//! The per-block int8 attention kernels: exact-integer Q·Kᵀ and P·V over
//! one block of `[len, d]` KV code rows, read in place.
//!
//! A paged KV cache stores a sequence as fixed-size blocks, so decode
//! attention meets its keys and values one block at a time. Running each
//! block through [`ExecEngine::gemm`] costs one head-batched descriptor
//! per K step for Q·Kᵀ and one for each piece of a P·V K step, each
//! launching one `1 × len × dh` kernel per head. These two kernels do the
//! same sums in one call per block:
//!
//! - [`ExecEngine::qk_block_i8`] reads each key code once and writes every
//!   (K step, head) dot product straight into the caller's step-major
//!   `[steps][heads][t]` PSUM tiles, the ones the APSQ fold reads.
//! - [`ExecEngine::pv_block_i8`] sums every head's `[dh]` P·V tile over
//!   the block's slice of one K step, overwriting or accumulating, so a
//!   step that straddles a block boundary adds its second piece.
//!
//! Integer sums are exact in any order, so both equal the NT and NN
//! [`ExecEngine::gemm`] products bit for bit on every backend.
//!
//! ```
//! use apsq_tensor::ExecEngine;
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
//! ```

use crate::exec::ExecEngine;
use crate::kernels;

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
}

/// Checks that a `[d]` row splits into `heads` non-empty heads.
fn check_heads(d: usize, heads: usize, what: &str) {
    assert!(
        heads > 0 && d > 0 && d.is_multiple_of(heads),
        "{what} ([{d}]) is not {heads} equal heads"
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
    /// exact `2^14 · K`.
    #[test]
    fn all_min_codes_sum_exactly_at_the_longest_k() {
        let (heads, dh, len) = (2usize, 1024usize, 1025usize);
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

    #[test]
    #[should_panic(expected = "probability codes")]
    fn pv_rejects_short_probabilities() {
        let mut out = [0i32; 4];
        ExecEngine::serial().pv_block_i8(&[1; 4], 3, &[1; 8], 2, &mut out, false);
    }
}
