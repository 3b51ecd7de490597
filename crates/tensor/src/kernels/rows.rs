//! The bodies of the row-level int8 attention kernels (`crate::attn`):
//! one attention row's Q·Kᵀ or P·V over every KV segment, with each
//! head's PSUM stream folded by self-calibrating Algorithm 1.
//!
//! Each body is written once, generic over the backend pieces it runs
//! ([`RowOps`]: the per-block sums and the per-head exponent reads), and
//! `#[inline(always)]` with every fold helper, so the AVX2 build
//! (`x86::avx2_{qk,pv}_row_i8`) compiles the same fold inside its
//! `#[target_feature]` wrapper, where the elementwise loops get 256-bit
//! lanes, around the AVX2 pieces. The scalar body, which every other tier
//! runs, defines the semantics.
//!
//! A step of one head's stream is the [`apsq`] step that
//! `apsq_core::StreamingApsq` runs on one calibrating push: it folds the
//! [`apsq::carried_rows`] into the step's exact tile ([`apsq::fold`]),
//! quantizes at the [`apsq::covering_shift`] of the result's largest
//! magnitude, and stores the codes where the stream's ring row would hold
//! them.

use super::lanes::pow2_i8;
use super::{apsq, scalar};
use crate::attn::{KvSegment, RowFold, RowScratch};

/// The pieces a backend runs inside the row bodies, extents already
/// checked: the kernels behind [`crate::ExecEngine::qk_block_i8`] and
/// [`crate::ExecEngine::pv_block_i8`], and head `h`'s reads of the row's
/// `[t, heads]` exponents.
pub(super) trait RowOps {
    /// A query row prepared once for all of a row's blocks.
    type Query<'q>;

    /// Prepares the `[d]` query `q` of `heads` heads for K steps of
    /// `k_tile`.
    fn query(q: &[i8], heads: usize, k_tile: usize) -> Self::Query<'_>;

    /// Per-block Q·Kᵀ ([`super::qk_block_i8`]) over the `len` rows of
    /// `keys`.
    fn qk(query: &Self::Query<'_>, keys: &[i8], len: usize, tiles: &mut [i32], ldt: usize);

    /// Per-block P·V ([`super::pv_block_i8`]) over the `len` rows of
    /// `values`, with `dims = (len, heads, dh)`.
    fn pv(
        p: &[i8],
        ldp: usize,
        values: &[i8],
        dims: (usize, usize, usize),
        out: &mut [i32],
        accumulate: bool,
    );

    /// `out[j] = acc[j] as f32 · scale · 2^exps[j · heads + h]`,
    /// multiplied left to right ([`scores_body`]).
    fn scores(acc: &[i32], scale: f32, exps: &[i8], heads: usize, h: usize, out: &mut [f32]);

    /// `out[j] = 2^exps[j · heads + h]` ([`scales_body`]).
    fn scales(exps: &[i8], heads: usize, h: usize, out: &mut [f32]);
}

/// The scalar pieces.
pub(super) struct ScalarOps;

impl RowOps for ScalarOps {
    type Query<'q> = (&'q [i8], usize, usize);

    #[inline(always)]
    fn query(q: &[i8], heads: usize, k_tile: usize) -> Self::Query<'_> {
        (q, heads, k_tile)
    }

    #[inline(always)]
    fn qk(query: &Self::Query<'_>, keys: &[i8], _: usize, tiles: &mut [i32], ldt: usize) {
        let &(q, heads, k_tile) = query;
        scalar::qk_block_i8(q, heads, k_tile, keys, tiles, ldt);
    }

    #[inline(always)]
    fn pv(
        p: &[i8],
        ldp: usize,
        values: &[i8],
        (_, heads, _): (usize, usize, usize),
        out: &mut [i32],
        accumulate: bool,
    ) {
        scalar::pv_block_i8(p, ldp, values, heads, out, accumulate);
    }

    #[inline(always)]
    fn scores(acc: &[i32], scale: f32, exps: &[i8], heads: usize, h: usize, out: &mut [f32]) {
        scores_body(acc, scale, exps, heads, h, out);
    }

    #[inline(always)]
    fn scales(exps: &[i8], heads: usize, h: usize, out: &mut [f32]) {
        scales_body(exps, heads, h, out);
    }
}

/// Head `h`'s dequantized scores:
/// `out[j] = acc[j] as f32 · scale · 2^exps[j · heads + h]`, multiplied
/// left to right, for the `out.len()` tokens. Also the AVX2 build's tail.
#[inline(always)]
pub(super) fn scores_body(
    acc: &[i32],
    scale: f32,
    exps: &[i8],
    heads: usize,
    h: usize,
    out: &mut [f32],
) {
    for ((o, &x), e) in out.iter_mut().zip(acc).zip(exps.chunks_exact(heads)) {
        *o = x as f32 * scale * pow2_i8(e[h]);
    }
}

/// Head `h`'s scales: `out[j] = 2^exps[j · heads + h]` for the
/// `out.len()` tokens. Also the AVX2 build's tail.
#[inline(always)]
pub(super) fn scales_body(exps: &[i8], heads: usize, h: usize, out: &mut [f32]) {
    for (o, e) in out.iter_mut().zip(exps.chunks_exact(heads)) {
        *o = pow2_i8(e[h]);
    }
}

/// Checks one segment against the row: whole `[len, d]` code rows and
/// `[len, heads]` exponents, within the row's `t` tokens from `off`.
#[inline(always)]
fn check_segment(seg: &KvSegment<'_>, d: usize, heads: usize, off: usize, t: usize) {
    assert!(
        off + seg.len <= t,
        "segments hold more than the row's {t} tokens"
    );
    assert!(
        seg.k_codes.len() == seg.len * d
            && seg.v_codes.len() == seg.len * d
            && seg.k_exps.len() == seg.len * heads
            && seg.v_exps.len() == seg.len * heads,
        "a {}-token segment is not [len, {d}] codes and [len, {heads}] exponents",
        seg.len
    );
}

/// The Q·Kᵀ row body ([`crate::ExecEngine::qk_row_i8`]): scores every
/// segment into the `[steps][heads][t]` tiles and copies its exponent
/// bytes into the row's `[t, heads]` K and V rows, folds each head's
/// steps (step `s`'s codes replace its tile row, which is where the
/// stream's ring would hold them while they are carried), dequantizes
/// each head's last codes in place, then writes each head's scores and
/// value scales in one pass over the row.
#[inline(always)]
pub(super) fn qk_row<'a, K: RowOps>(
    q: &[i8],
    heads: usize,
    fold: Option<&RowFold>,
    scale: f32,
    kv: impl Iterator<Item = KvSegment<'a>>,
    t: usize,
    scratch: &mut RowScratch,
    scores: &mut [f32],
    v_scales: &mut [f32],
) -> (u64, u64) {
    let d = q.len();
    let dh = d / heads;
    let k_tile = fold.map_or(dh, RowFold::k_tile);
    let np = dh.div_ceil(k_tile);
    let RowScratch {
        tiles,
        shifts,
        exps,
        ..
    } = scratch;
    tiles.resize(np * heads * t, 0);
    exps.resize(2 * t * heads, 0);
    let (k_exps, v_exps) = exps.split_at_mut(t * heads);
    let query = K::query(q, heads, k_tile);
    let mut off = 0;
    for seg in kv {
        check_segment(&seg, d, heads, off, t);
        K::qk(&query, seg.k_codes, seg.len, &mut tiles[off..], t);
        k_exps[off * heads..][..seg.len * heads].copy_from_slice(seg.k_exps);
        v_exps[off * heads..][..seg.len * heads].copy_from_slice(seg.v_exps);
        off += seg.len;
    }
    // The scratch outlives the row: a walk that stopped short would fold
    // the previous row's scores.
    assert_eq!(off, t, "segments must cover the context");

    let mut words = (0, 0);
    if let Some(f) = fold {
        let (gs, range) = (f.group_size(), f.range());
        shifts.resize(np * heads, 0);
        for i in 0..np {
            let carried = apsq::carried_rows(i, i % gs, np, gs);
            let (done, rest) = tiles.split_at_mut(i * heads * t);
            for (h, input) in rest[..heads * t].chunks_exact_mut(t).enumerate() {
                let carried_row = |r| {
                    let s = (i - carried + r) * heads + h;
                    (&done[s * t..][..t], shifts[s])
                };
                apsq::fold(input, carried, carried_row, range);
                let sh = apsq::covering_shift(apsq::max_abs(input), range.1);
                apsq::quantize_in_place(input, sh, range);
                shifts[i * heads + h] = sh;
            }
            words.0 += (heads * t) as u64;
            words.1 += (carried * heads * t) as u64;
        }
        let last = (np - 1) * heads;
        for (h, codes) in tiles[last * t..].chunks_exact_mut(t).enumerate() {
            apsq::dequantize(codes, shifts[last + h], range);
        }
    }

    // Each head's exact or dequantized accumulators are the last step's
    // tile rows.
    let acc = tiles[(np - 1) * heads * t..].chunks_exact(t);
    let rows = scores.chunks_exact_mut(t).zip(v_scales.chunks_exact_mut(t));
    for (h, (a, (s, v))) in acc.zip(rows).enumerate() {
        K::scores(a, scale, k_exps, heads, h, s);
        K::scales(v_exps, heads, h, v);
    }
    words
}

/// The P·V row body ([`crate::ExecEngine::pv_row_i8`]): accumulates one
/// K step of `k_tile` tokens at a time into the `[heads, dh]` tile, a
/// step that straddles a segment boundary adding its next piece, and
/// folds each head's part of the finished tile into the ring before the
/// next step starts; at the end each head's last codes are dequantized
/// into `out`. Without a fold every segment accumulates straight into
/// `out`. Steps and ring rows are counted, not divided out, per piece.
#[inline(always)]
pub(super) fn pv_row<'a, K: RowOps>(
    p: &[i8],
    heads: usize,
    fold: Option<&RowFold>,
    kv: impl Iterator<Item = KvSegment<'a>>,
    t: usize,
    scratch: &mut RowScratch,
    out: &mut [i32],
) -> (u64, u64) {
    let d = out.len();
    let dh = d / heads;
    let mut off = 0;
    let Some(f) = fold else {
        for seg in kv {
            check_segment(&seg, d, heads, off, t);
            let dims = (seg.len, heads, dh);
            K::pv(&p[off..], t, seg.v_codes, dims, out, off > 0);
            off += seg.len;
        }
        assert_eq!(off, t, "segments must cover the context");
        return (0, 0);
    };
    let (k_tile, gs, range) = (f.k_tile(), f.group_size(), f.range());
    let np = t.div_ceil(k_tile);
    let RowScratch {
        shifts, tile, ring, ..
    } = scratch;
    tile.resize(d, 0);
    ring.resize(gs.min(np) * d, 0);
    shifts.resize(gs.min(np) * heads, 0);
    let mut words = (0, 0);
    // Step `i` writes ring row `row = i mod gs`; `filled` of its tokens
    // are in the tile.
    let (mut i, mut row, mut filled) = (0, 0, 0);
    for seg in kv {
        check_segment(&seg, d, heads, off, t);
        let mut j = 0;
        while j < seg.len {
            let take = (k_tile - filled).min(seg.len - j);
            let values = &seg.v_codes[j * d..(j + take) * d];
            K::pv(
                &p[off + j..],
                t,
                values,
                (take, heads, dh),
                tile,
                filled > 0,
            );
            (j, filled) = (j + take, filled + take);
            if filled < k_tile && off + j < t {
                continue;
            }
            let carried = apsq::carried_rows(i, row, np, gs);
            for (h, input) in tile.chunks_exact_mut(dh).enumerate() {
                let carried_row = |r| (&ring[r * d + h * dh..][..dh], shifts[r * heads + h]);
                apsq::fold(input, carried, carried_row, range);
                let sh = apsq::covering_shift(apsq::max_abs(input), range.1);
                apsq::quantize(input, sh, range, &mut ring[row * d + h * dh..][..dh]);
                shifts[row * heads + h] = sh;
            }
            words.0 += d as u64;
            words.1 += (carried * d) as u64;
            (i, row, filled) = (i + 1, if row + 1 == gs { 0 } else { row + 1 }, 0);
        }
        off += seg.len;
    }
    assert_eq!(off, t, "segments must cover the context");
    let row = (np - 1) % gs;
    out.copy_from_slice(&ring[row * d..][..d]);
    for (h, o) in out.chunks_exact_mut(dh).enumerate() {
        apsq::dequantize(o, shifts[row * heads + h], range);
    }
    words
}
