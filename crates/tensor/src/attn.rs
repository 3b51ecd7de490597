//! The int8 attention kernels: exact-integer Q·Kᵀ and P·V over KV code
//! rows read in place, per block and per row.
//!
//! A paged KV cache stores a sequence as fixed-size blocks, so decode
//! attention meets its keys and values one block at a time. Two
//! per-block kernels do one block's sums:
//!
//! - [`ExecEngine::qk_block_i8`] reads each key code once and writes every
//!   (K step, head) dot product straight into the caller's step-major
//!   `[steps][heads][t]` PSUM tiles.
//! - [`ExecEngine::pv_block_i8`] sums every head's `[dh]` P·V tile over
//!   the block's slice of one K step, overwriting or accumulating, so a
//!   step that straddles a block boundary adds its second piece.
//!
//! Integer sums are exact in any order, so both equal the head-batched
//! [`crate::Gemm::reference`] products bit for bit on every backend.
//!
//! Two row kernels run a whole attention row's GEMM, every block of it,
//! with APSQ folded in: [`ExecEngine::qk_row_i8`] and
//! [`ExecEngine::pv_row_i8`] walk the row's [`KvSegment`]s inside one
//! call, run the per-block sums above, and fold each head's PSUM stream
//! by Algorithm 1 in the same call, choosing every step's scale as the
//! tightest power of two covering the exact input it quantizes (a
//! [`RowFold`]). Each head's result is that of its own
//! self-calibrating stream (`apsq_core::StreamingApsq::calibrating`):
//!
//! - Q·Kᵀ cuts each head's `dh` columns into `⌈dh/k_tile⌉` steps whose
//!   tiles are `t` scores wide, so a step's scale needs the whole row: the
//!   kernel scores every block, then folds each head's steps, then writes
//!   the dequantized scores `acc · scale · 2^e_k` (`e_k` the key's
//!   exponent byte) and stages the value scales `2^e_v`.
//! - P·V cuts the context into `⌈t/k_tile⌉` steps whose tiles are every
//!   head's `[dh]` outputs: the kernel accumulates one step at a time,
//!   across block boundaries, and folds it into a ring of `gs` code rows
//!   before the next step starts, so no PSUM tile outlives its step.
//!
//! Without a fold (exact mode) each GEMM is one step and the result is
//! the exact sum.
//!
//! ```
//! use apsq_tensor::{ExecEngine, KvSegment, RowFold, RowScratch};
//!
//! let eng = ExecEngine::serial();
//! let q = [1i8, 2, 3, 4]; // heads = 2, dh = 2
//! let keys = [1i8, 1, 1, 1, 2, 0, 0, 2]; // a block of 2 rows, d = 4
//! // k_tile 1: chunks (step 0, head 0), (0, 1), (1, 0), (1, 1), one tile
//! // row each, t = 2 scores per row.
//! let mut tiles = [0i32; 8];
//! eng.qk_block_i8(&q, 2, 1, &keys, &mut tiles, 2);
//! assert_eq!(tiles, [1, 2, 3, 0, 2, 0, 4, 8]);
//!
//! let p = [1i8, 2, 3, -1]; // [heads, len] probabilities
//! let mut ctx = [0i32; 4];
//! eng.pv_block_i8(&p, 2, &keys, 2, &mut ctx, false);
//! assert_eq!(ctx, [5, 1, 3, 1]);
//!
//! // The same rows as one segment with unit scales (exponent 0), folded
//! // in steps of one column / one token with groups of two 8-bit codes:
//! // every sum here fits a code, so the fold is exact.
//! let exps = [0i8; 4]; // [len, heads]
//! let seg = KvSegment { len: 2, k_codes: &keys, v_codes: &keys, k_exps: &exps, v_exps: &exps };
//! let fold = RowFold::new(1, 2, (-128, 127));
//! let mut scratch = RowScratch::default();
//! let (mut scores, mut v_scales) = ([0.0f32; 4], [0.0f32; 4]);
//! let words = eng.qk_row_i8(&q, 2, Some(&fold), 1.0, [seg], &mut scratch, &mut scores, &mut v_scales);
//! assert_eq!(scores, [3.0, 2.0, 7.0, 8.0]); // [heads, t]
//! assert_eq!(v_scales, [1.0; 4]);
//! assert_eq!(words, (8, 4)); // two steps of 4 codes written, one carried
//! eng.pv_row_i8(&p, 2, Some(&fold), [seg], &mut scratch, &mut ctx);
//! assert_eq!(ctx, [5, 1, 3, 1]);
//! ```

use crate::exec::ExecEngine;
use crate::kernels;

/// Self-calibrating grouped APSQ (paper Algorithm 1) as the row kernels
/// run it: K steps of `k_tile`, groups of `group_size` steps, codes in
/// `[qn, qp]`, and every step quantized at the [`crate::apsq::covering_shift`]
/// of the exact input it folds. `apsq_core` builds one from an
/// `ApsqConfig`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowFold {
    k_tile: usize,
    group_size: usize,
    qn: i32,
    qp: i32,
}

impl RowFold {
    /// A fold in K steps of `k_tile` and groups of `group_size`, storing
    /// codes in `[qn, qp]`.
    ///
    /// # Panics
    ///
    /// Panics if `k_tile` is not in `1..=2^16` (a deeper step of i8
    /// products could leave `i32`), `group_size` is 0, or `qn ≤ 0 ≤ qp`
    /// does not hold.
    pub fn new(k_tile: usize, group_size: usize, (qn, qp): (i32, i32)) -> Self {
        assert!(
            (1..=MAX_STEP).contains(&k_tile),
            "k_tile {k_tile} outside 1..=65536"
        );
        assert!(group_size > 0, "group size must be at least 1");
        assert!(qn <= 0 && 0 <= qp, "code range [{qn}, {qp}] must hold 0");
        RowFold {
            k_tile,
            group_size,
            qn,
            qp,
        }
    }

    /// The K step depth.
    pub fn k_tile(&self) -> usize {
        self.k_tile
    }

    /// Algorithm 1's group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The code range.
    pub(crate) fn range(&self) -> (i32, i32) {
        (self.qn, self.qp)
    }
}

/// The deepest exact i8 step: `2^16 · 2^14 = 2^30` keeps every tile in
/// `i32`.
const MAX_STEP: usize = 1 << 16;

/// One contiguous run of int8 KV storage in token order: `[len, d]`
/// row-major i8 codes for K and V plus `[len, heads]` per-(token, head)
/// power-of-two exponents. A paged KV block is one; a flat prefix is a
/// single one.
#[derive(Clone, Copy, Debug)]
pub struct KvSegment<'a> {
    /// Tokens in the segment.
    pub len: usize,
    /// `[len, d]` key codes.
    pub k_codes: &'a [i8],
    /// `[len, d]` value codes.
    pub v_codes: &'a [i8],
    /// `[len, heads]` key exponents: token `j`'s head-`h` key is
    /// `k_codes · 2^k_exps[j · heads + h]`.
    pub k_exps: &'a [i8],
    /// `[len, heads]` value exponents.
    pub v_exps: &'a [i8],
}

/// The reusable buffers of the row kernels, sized by a row's first call
/// and reused, so a row allocates nothing once they have grown.
#[derive(Clone, Debug, Default)]
pub struct RowScratch {
    /// Q·Kᵀ: the `[steps][heads][t]` exact tiles, each folded into its
    /// step's codes in place.
    pub(crate) tiles: Vec<i32>,
    /// The shift of every stored code row: per (Q·Kᵀ step, head), or per
    /// (P·V ring row, head).
    pub(crate) shifts: Vec<u32>,
    /// P·V: the current step's `[heads, dh]` tile.
    pub(crate) tile: Vec<i32>,
    /// P·V: the ring of `min(gs, steps)` `[heads, dh]` code rows.
    pub(crate) ring: Vec<i32>,
    /// Q·Kᵀ: the row's `[t, heads]` key exponents, then its value
    /// exponents.
    pub(crate) exps: Vec<i8>,
}

impl ExecEngine {
    /// Scores the `[d]` query codes `q` (`heads` heads of `dh = d / heads`)
    /// against every row of `keys`, a block of `[len, d]` key codes, in
    /// one pass. Each head's `dh` columns split into K steps of `k_tile`
    /// (the last may be narrower); step `s` of head `h` is tile row
    /// `c = s · heads + h`, and row `j`'s dot product over it is written to
    /// `tiles[c · ldt + j]`. With `tiles` the `[steps][heads][t]` PSUM
    /// tiles offset to the block's first token and `ldt = t`, every tile
    /// equals the head-batched NT [`ExecEngine::gemm`] K step over the
    /// same rows. Nothing outside those `len` columns of each row moves.
    ///
    /// # Panics
    ///
    /// Panics if `q` is empty or not `heads` equal heads, `k_tile` is 0,
    /// `keys` is not whole rows of `d`, a block is longer than `ldt`, or
    /// `tiles` ends before the last score.
    pub fn qk_block_i8(
        &self,
        q: &[i8],
        heads: usize,
        k_tile: usize,
        keys: &[i8],
        tiles: &mut [i32],
        ldt: usize,
    ) {
        let d = q.len();
        check_heads(d, heads, "qk_block_i8: the query");
        assert!(k_tile > 0, "qk_block_i8: k_tile must be positive");
        let len = rows_of(keys.len(), d, "qk_block_i8: the keys");
        assert!(
            len <= ldt,
            "qk_block_i8: {len} rows overflow tile rows of {ldt}"
        );
        let rows = heads * (d / heads).div_ceil(k_tile);
        let need = (rows - 1) * ldt + len;
        assert!(
            tiles.len() >= need,
            "qk_block_i8: {} tile slots, {need} needed",
            tiles.len()
        );
        kernels::qk_block_i8(self.backend(), q, heads, k_tile, keys, tiles, ldt);
    }

    /// One block's piece of a P·V K step: for every head `h`, the `[dh]`
    /// tile `out[h · dh..]` (`dh = out.len() / heads`) gains, or with
    /// `accumulate` false is set to,
    /// `Σ_j p[h · ldp + j] · values[j · d + h · dh + c]` over the `len`
    /// rows of `values`, a block of `[len, d]` value codes
    /// (`d = out.len()`). That is the head-batched NN [`ExecEngine::gemm`]
    /// over the same rows, with `p` the `[heads, ldp]` probability codes
    /// offset to the block's first token.
    ///
    /// # Panics
    ///
    /// Panics if `out` is empty or not `heads` equal heads, `values` is
    /// not whole rows of `d`, or `p` ends before head `heads − 1`'s `len`
    /// probabilities.
    pub fn pv_block_i8(
        &self,
        p: &[i8],
        ldp: usize,
        values: &[i8],
        heads: usize,
        out: &mut [i32],
        accumulate: bool,
    ) {
        let d = out.len();
        check_heads(d, heads, "pv_block_i8: the output");
        let len = rows_of(values.len(), d, "pv_block_i8: the values");
        let need = (heads - 1) * ldp + len;
        assert!(
            p.len() >= need,
            "pv_block_i8: {} probability codes, {need} needed",
            p.len()
        );
        kernels::pv_block_i8(self.backend(), p, ldp, values, heads, out, accumulate);
    }

    /// The Q·Kᵀ half of one int8 attention row: scores the `[d]` query
    /// codes `q` (`heads` heads of `dh = d / heads`) against the key codes
    /// of every segment of `kv`, which hold the row's `t` cached tokens in
    /// order (`t = scores.len() / heads`). Each head's `⌈dh/k_tile⌉` K
    /// steps are folded by `fold` (module docs), or summed exactly when
    /// it is `None`. Writes the `[heads, t]` scores
    /// `acc as f32 · scale · 2^e_k`, multiplied left to right, and the
    /// `[heads, t]` value scales `2^e_v`, both head-major, and returns the
    /// fold's code traffic in words: (written, read).
    ///
    /// # Panics
    ///
    /// Panics if `q` is empty or not `heads` equal heads, a step is deeper
    /// than 2^16, `scores` is not whole rows of `heads` or holds no token,
    /// `v_scales` differs from it in length, or the segments are ragged or
    /// do not hold exactly `t` tokens.
    #[allow(clippy::too_many_arguments)]
    pub fn qk_row_i8<'a, I>(
        &self,
        q: &[i8],
        heads: usize,
        fold: Option<&RowFold>,
        scale: f32,
        kv: I,
        scratch: &mut RowScratch,
        scores: &mut [f32],
        v_scales: &mut [f32],
    ) -> (u64, u64)
    where
        I: IntoIterator<Item = KvSegment<'a>>,
    {
        let d = q.len();
        check_heads(d, heads, "qk_row_i8: the query");
        check_step(fold.map_or(d / heads, RowFold::k_tile), "qk_row_i8");
        let t = row_tokens(scores.len(), heads, "qk_row_i8: the scores");
        assert_eq!(
            v_scales.len(),
            scores.len(),
            "qk_row_i8: value scales and scores differ in length"
        );
        let (kv, bk) = (kv.into_iter(), self.backend());
        kernels::qk_row_i8(bk, q, heads, fold, scale, kv, t, scratch, scores, v_scales)
    }

    /// The P·V half of one int8 attention row: the `[d]` output
    /// `out[h · dh + c] = Σ_j p[h · t + j] · v[j, h · dh + c]` over the
    /// value codes of every segment of `kv`, which hold the row's `t`
    /// tokens in order (`t = p.len() / heads`, `d = out.len()`), with each
    /// head's `⌈t/k_tile⌉` K steps folded by `fold` (module docs) and the
    /// last codes dequantized, or summed exactly when it is `None`.
    /// Returns the fold's code traffic in words: (written, read).
    ///
    /// # Panics
    ///
    /// Panics if `out` is empty or not `heads` equal heads, `p` is not
    /// whole rows of `heads` or holds no token, a step is deeper than
    /// 2^16, or the segments are ragged or do not hold exactly `t`
    /// tokens.
    pub fn pv_row_i8<'a, I>(
        &self,
        p: &[i8],
        heads: usize,
        fold: Option<&RowFold>,
        kv: I,
        scratch: &mut RowScratch,
        out: &mut [i32],
    ) -> (u64, u64)
    where
        I: IntoIterator<Item = KvSegment<'a>>,
    {
        check_heads(out.len(), heads, "pv_row_i8: the output");
        let t = row_tokens(p.len(), heads, "pv_row_i8: the probabilities");
        check_step(fold.map_or(t, RowFold::k_tile), "pv_row_i8");
        let (kv, bk) = (kv.into_iter(), self.backend());
        kernels::pv_row_i8(bk, p, heads, fold, kv, t, scratch, out)
    }
}

/// Checks that a `[d]` row splits into `heads` non-empty heads.
fn check_heads(d: usize, heads: usize, what: &str) {
    assert!(
        heads > 0 && d > 0 && d.is_multiple_of(heads),
        "{what} ([{d}]) is not {heads} equal heads"
    );
}

/// The tokens of a `[heads, t]` row buffer of `n` elements.
fn row_tokens(n: usize, heads: usize, what: &str) -> usize {
    assert!(
        n > 0 && n.is_multiple_of(heads),
        "{what} ({n}) are not a row of tokens for {heads} heads"
    );
    n / heads
}

/// Checks that a K step of i8 products stays exact in `i32`.
fn check_step(depth: usize, what: &str) {
    assert!(
        depth <= MAX_STEP,
        "{what}: a {depth}-deep K step could leave i32"
    );
}

/// The number of `[d]` rows in `n` codes.
fn rows_of(n: usize, d: usize, what: &str) -> usize {
    assert_eq!(n % d, 0, "{what} ({n} codes) are not rows of {d}");
    n / d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBackend;

    /// Every code at −128, the most negative i8, whose products with
    /// itself are the largest (2^14): two of them already overflow i16,
    /// so a kernel that sums pairs in i16 (`maddubs`) would saturate. Over
    /// the longest reductions here each score and tile must still be the
    /// exact `2^14 · K` — with 16-column groups (`dh` 512) and without
    /// (`dh` 1024 is past the grouped AVX2 path's width).
    #[test]
    fn all_min_codes_sum_exactly_at_the_longest_k() {
        for (heads, dh, len) in [(2usize, 1024usize, 1025usize), (2, 512, 1027)] {
            let d = heads * dh;
            let q = vec![-128i8; d];
            let kv = vec![-128i8; len * d];
            let p = vec![-128i8; heads * len];
            for bk in KernelBackend::supported() {
                let eng = ExecEngine::serial().with_backend(bk);
                // One chunk per head spans all dh columns.
                let mut tiles = vec![0i32; heads * len];
                eng.qk_block_i8(&q, heads, dh, &kv, &mut tiles, len);
                assert!(tiles.iter().all(|&s| s == (1 << 14) * dh as i32), "{bk}");
                let mut ctx = vec![0i32; d];
                eng.pv_block_i8(&p, len, &kv, heads, &mut ctx, false);
                assert!(ctx.iter().all(|&s| s == (1 << 14) * len as i32), "{bk}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile slots")]
    fn qk_rejects_short_tiles() {
        let mut tiles = [0i32; 5];
        // 2 heads × 2 steps = 4 rows of ldt 2: 3·2 + 2 = 8 slots needed.
        ExecEngine::serial().qk_block_i8(&[1; 4], 2, 1, &[1; 8], &mut tiles, 2);
    }

    #[test]
    #[should_panic(expected = "overflow tile rows")]
    fn qk_rejects_a_block_longer_than_its_tile_rows() {
        let mut tiles = [0i32; 16];
        ExecEngine::serial().qk_block_i8(&[1; 4], 2, 2, &[1; 12], &mut tiles, 2);
    }

    /// A row's buffers outlive it, so segments that stop short of the
    /// row's tokens would fold the previous row's tiles: both row kernels
    /// refuse them.
    #[test]
    #[should_panic(expected = "segments must cover the context")]
    fn qk_row_rejects_segments_short_of_the_row() {
        let seg = KvSegment {
            len: 1,
            k_codes: &[1; 4],
            v_codes: &[1; 4],
            k_exps: &[0; 2],
            v_exps: &[0; 2],
        };
        let (mut scores, mut v_scales) = ([0.0f32; 4], [0.0f32; 4]);
        let mut scratch = RowScratch::default();
        ExecEngine::serial().qk_row_i8(
            &[1; 4],
            2,
            None,
            1.0,
            [seg],
            &mut scratch,
            &mut scores,
            &mut v_scales,
        );
    }

    #[test]
    #[should_panic(expected = "segments must cover the context")]
    fn pv_row_rejects_segments_short_of_the_row() {
        let seg = KvSegment {
            len: 1,
            k_codes: &[1; 4],
            v_codes: &[1; 4],
            k_exps: &[0; 2],
            v_exps: &[0; 2],
        };
        let fold = RowFold::new(1, 2, (-128, 127));
        let mut out = [0i32; 4];
        let mut scratch = RowScratch::default();
        ExecEngine::serial().pv_row_i8(&[1; 4], 2, Some(&fold), [seg], &mut scratch, &mut out);
    }

    #[test]
    #[should_panic(expected = "probability codes")]
    fn pv_rejects_short_probabilities() {
        let mut out = [0i32; 4];
        ExecEngine::serial().pv_block_i8(&[1; 4], 3, &[1; 8], 2, &mut out, false);
    }
}
