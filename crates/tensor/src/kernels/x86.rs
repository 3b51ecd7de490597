//! `core::arch::x86_64` kernel backends: 128-bit SSE2 (baseline, no
//! detection needed) and 256-bit AVX2 (runtime-detected; the `exp` and
//! `tanh` builds also need FMA).
//!
//! Bit-identity with the scalar reference is the design rule, not a test
//! afterthought:
//!
//! - f32 kernels use separate multiply and add intrinsics — never FMA,
//!   whose single rounding would diverge from the scalar two-rounding
//!   sequence. The one FMA is in `exp`'s range reduction, where the
//!   scalar body fuses too (`f64::mul_add`).
//! - f32 kernels that vectorize along N (`gemm_f32`, `gemm_at_f32`) keep
//!   one output element per lane, so each element still reduces in `l`
//!   order, exactly like scalar.
//! - `gemm_bt_f32` maps SIMD lanes onto the pinned [`LANES`]-lane partial
//!   sums of [`super::dot_f32_lanes`] (SSE2 splits them across two
//!   128-bit registers), then reduces through the same lane array.
//! - Integer kernels accumulate in `i32`; any summation order is exact, so
//!   they are free to use `madd_epi16` widening reductions. The packed-B
//!   kernels (`*_gemm_np_i8`) madd a broadcast activation pair against a
//!   run of column pairs, so each i32 lane is one output column and no
//!   tile ever reduces horizontally.
//!
//! Memory safety: every vector load/store first carves a bounds-checked
//! subslice of exactly the lanes it touches, then loads from the slice
//! pointer — out-of-range extents panic like the scalar kernels instead of
//! reading past the buffer.

use core::arch::x86_64::*;

use super::scalar::{
    self, EXPM1_Q, EXP_INV_LN2_N, EXP_N, EXP_POLY, EXP_SHIFT, EXP_SPECIAL_TOP, EXP_TAB, INV_LN2,
    LN2_HI, LN2_LO,
};
use super::{
    np_passes, pair_word, qk_chunk, reduce_lanes_f32, tail_f32, tail_np_i8, Pairs, KC, LANES,
    MAX_RING, MR, NR,
};
use crate::fold::Fused;

/// Sign-extends the low 8 bytes of `v` to 8×i16 without SSE4.1:
/// duplicate each byte into a 16-bit lane, then arithmetic-shift the copy
/// back down.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_cvtepi8_epi16(v: __m128i) -> __m128i {
    _mm_srai_epi16::<8>(_mm_unpacklo_epi8(v, v))
}

/// Loads 8 `i8` values from a bounds-checked slice as 8×i16.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_load8_i8_as_i16(s: &[i8]) -> __m128i {
    debug_assert!(s.len() >= 8);
    // SAFETY: caller's slice carries ≥8 elements; loadl reads exactly 8
    // bytes (unaligned allowed).
    sse2_cvtepi8_epi16(unsafe { _mm_loadl_epi64(s.as_ptr() as *const __m128i) })
}

// ================================================================== SSE2

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let mut kp = k0;
    while kp < k1 {
        let kq = usize::min(kp + KC, k1);
        let mut i = 0;
        while i + MR <= m {
            let mut j = 0;
            while j + NR <= n {
                // MR rows × NR cols, each row's accumulator split across
                // two 4-wide registers. Lane c still sums in l order.
                let mut acc = [[_mm_setzero_ps(); 2]; MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    // SAFETY: brow has exactly NR = 8 elements.
                    let (bv0, bv1) = unsafe {
                        (
                            _mm_loadu_ps(brow.as_ptr()),
                            _mm_loadu_ps(brow.as_ptr().add(4)),
                        )
                    };
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm_set1_ps(a[(i + r) * lda + l]);
                        accr[0] = _mm_add_ps(accr[0], _mm_mul_ps(av, bv0));
                        accr[1] = _mm_add_ps(accr[1], _mm_mul_ps(av, bv1));
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    // SAFETY: orow has exactly NR = 8 elements.
                    unsafe {
                        let p = orow.as_mut_ptr();
                        _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), accr[0]));
                        _mm_storeu_ps(p.add(4), _mm_add_ps(_mm_loadu_ps(p.add(4)), accr[1]));
                    }
                }
                j += NR;
            }
            if j < n {
                tail_f32(a, lda, b, ldb, out, ldo, i, i + MR, j, n, kp, kq);
            }
            i += MR;
        }
        if i < m {
            tail_f32(a, lda, b, ldb, out, ldo, i, m, 0, n, kp, kq);
        }
        kp = kq;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_bt_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    for i in 0..m {
        let arow = &a[i * lda + k0..i * lda + k1];
        for j in 0..n {
            let brow = &b[j * ldb + k0..j * ldb + k1];
            out[i * ldo + j] += sse2_dot_f32(arow, brow);
        }
    }
}

/// [`super::dot_f32_lanes`] with lanes 0..4 in one register and 4..8 in
/// another — same per-lane sequence, same final reduction.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_dot_f32(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let full = x.len() - x.len() % LANES;
    let mut acc0 = _mm_setzero_ps();
    let mut acc1 = _mm_setzero_ps();
    let mut t = 0;
    while t < full {
        let xs = &x[t..t + LANES];
        let ys = &y[t..t + LANES];
        // SAFETY: both chunks carry exactly LANES = 8 elements.
        unsafe {
            let xv0 = _mm_loadu_ps(xs.as_ptr());
            let xv1 = _mm_loadu_ps(xs.as_ptr().add(4));
            let yv0 = _mm_loadu_ps(ys.as_ptr());
            let yv1 = _mm_loadu_ps(ys.as_ptr().add(4));
            acc0 = _mm_add_ps(acc0, _mm_mul_ps(xv0, yv0));
            acc1 = _mm_add_ps(acc1, _mm_mul_ps(xv1, yv1));
        }
        t += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: lanes has 8 f32 slots, one 128-bit store into each half.
    unsafe {
        _mm_storeu_ps(lanes.as_mut_ptr(), acc0);
        _mm_storeu_ps(lanes.as_mut_ptr().add(4), acc1);
    }
    for (c, i) in (full..x.len()).enumerate() {
        lanes[c] += x[i] * y[i];
    }
    reduce_lanes_f32(&lanes)
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_at_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    i0: usize,
    i1: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let wide = n - n % 4;
    for l in k0..k1 {
        let brow = &b[l * ldb..l * ldb + n];
        for i in i0..i1 {
            // No zero-skip: 0.0 * inf/NaN must still poison the gradient.
            let av = a[l * lda + i];
            let avv = _mm_set1_ps(av);
            let orow = &mut out[(i - i0) * ldo..(i - i0) * ldo + n];
            let mut j = 0;
            while j < wide {
                // SAFETY: j + 4 <= wide <= n bounds both row slices.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let bv = _mm_loadu_ps(brow.as_ptr().add(j));
                    _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), _mm_mul_ps(avv, bv)));
                }
                j += 4;
            }
            for (o, &bv) in orow[wide..].iter_mut().zip(brow[wide..].iter()) {
                *o += av * bv;
            }
        }
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_np_i8(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    np_passes(a, lda, m, (k0, k1), |pairs, i, rows, pass| match rows {
        4 => sse2_np_strip::<4>(pairs, b, ldb, out, ldo, i, n, pass),
        3 => sse2_np_strip::<3>(pairs, b, ldb, out, ldo, i, n, pass),
        2 => sse2_np_strip::<2>(pairs, b, ldb, out, ldo, i, n, pass),
        _ => sse2_np_strip::<1>(pairs, b, ldb, out, ldo, i, n, pass),
    });
}

/// Rows `i..i + R` of [`sse2_gemm_np_i8`] over one pass: R×8 madd tiles,
/// then an R×4 tile, then the < 4 column tail through [`tail_np_i8`].
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_np_strip<const R: usize>(
    pairs: &Pairs,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    n: usize,
    pass: (usize, usize),
) {
    let mut j = 0;
    while j + 8 <= n {
        sse2_np_tile::<R, 2>(pairs, b, ldb, out, ldo, i, j, pass);
        j += 8;
    }
    while j + 4 <= n {
        sse2_np_tile::<R, 1>(pairs, b, ldb, out, ldo, i, j, pass);
        j += 4;
    }
    tail_np_i8(pairs, R, b, ldb, out, ldo, i, (j, n), pass);
}

/// One R×(4·C) tile at `(i, j)`: per pair, C loads of 4 columns × 2 k,
/// widened to 8×i16 and madd'd against each row's broadcast pair.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_np_tile<const R: usize, const C: usize>(
    pairs: &Pairs,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    j: usize,
    (pp, pq): (usize, usize),
) {
    let mut acc = [[_mm_setzero_si128(); C]; R];
    for (t, p) in (pp..pq).enumerate() {
        let bp = &b[p * ldb + 2 * j..p * ldb + 2 * (j + 4 * C)];
        let mut bv = [_mm_setzero_si128(); C];
        for (v, chunk) in bv.iter_mut().zip(bp.chunks_exact(8)) {
            *v = sse2_load8_i8_as_i16(chunk);
        }
        for (accr, staged) in acc.iter_mut().zip(pairs) {
            let av = _mm_set1_epi32(pair_word(staged[t][0], staged[t][1]));
            for (accv, &v) in accr.iter_mut().zip(&bv) {
                *accv = _mm_add_epi32(*accv, _mm_madd_epi16(v, av));
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + 4 * C];
        for (chunk, accv) in orow.chunks_exact_mut(4).zip(accr) {
            // SAFETY: chunk has exactly 4 i32 slots.
            unsafe {
                let p = chunk.as_mut_ptr() as *mut __m128i;
                _mm_storeu_si128(p, _mm_add_epi32(_mm_loadu_si128(p), *accv));
            }
        }
    }
}

/// The ring of one SSE2 fused tile: ring row, tile row, 4-lane codes.
type Ring128 = [[[__m128i; 2]; MR]; MAX_RING];

#[target_feature(enable = "sse2")]
pub(super) fn sse2_apsq_linear_i8(f: &Fused<'_>, rows: usize, out: &mut [f32], codes: &mut [i32]) {
    let mut ring: Ring128 = [[[_mm_setzero_si128(); 2]; MR]; MAX_RING];
    let mut i = 0;
    while i < rows {
        let r = usize::min(MR, rows - i);
        match r {
            4 => sse2_fused_strip::<4>(f, i, &mut ring, out, codes),
            3 => sse2_fused_strip::<3>(f, i, &mut ring, out, codes),
            2 => sse2_fused_strip::<2>(f, i, &mut ring, out, codes),
            _ => sse2_fused_strip::<1>(f, i, &mut ring, out, codes),
        }
        i += r;
    }
    let j = f.n / 4 * 4;
    if j < f.n {
        scalar::apsq_linear_i8(f, rows, (j, f.n), out, codes);
    }
}

/// Rows `i..i + R` of [`sse2_apsq_linear_i8`]: R×8 tiles, then an R×4
/// tile.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_fused_strip<const R: usize>(
    f: &Fused<'_>,
    i: usize,
    ring: &mut Ring128,
    out: &mut [f32],
    codes: &mut [i32],
) {
    let mut j = 0;
    while j + 8 <= f.n {
        sse2_fused_tile::<R, 2>(f, i, j, ring, out, codes);
        j += 8;
    }
    if j + 4 <= f.n {
        sse2_fused_tile::<R, 1>(f, i, j, ring, out, codes);
    }
}

/// One R×(4·C) tile at `(i, j)` through every step of the plan: the madd
/// loop of [`sse2_np_tile`] per step, then the fold on the registers.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_fused_tile<const R: usize, const C: usize>(
    f: &Fused<'_>,
    i: usize,
    j: usize,
    ring: &mut Ring128,
    out: &mut [f32],
    codes: &mut [i32],
) {
    let plan = f.plan;
    let (lo, hi) = (_mm_set1_epi32(plan.qn), _mm_set1_epi32(plan.qp));
    for (step, w) in plan.steps.iter().zip(&plan.windows) {
        let mut acc = [[_mm_setzero_si128(); C]; R];
        let b_rows = f.b[w.pair * f.ldb..].chunks_exact(f.ldb);
        for (words, b_row) in f.block::<R>(i, w).chunks_exact(R).zip(b_rows) {
            let bp = &b_row[2 * j..][..8 * C];
            let mut bv = [_mm_setzero_si128(); C];
            for (v, chunk) in bv.iter_mut().zip(bp.chunks_exact(8)) {
                *v = sse2_load8_i8_as_i16(chunk);
            }
            for (accr, &word) in acc.iter_mut().zip(words) {
                let av = _mm_set1_epi32(word);
                for (a, &v) in accr.iter_mut().zip(&bv) {
                    *a = _mm_add_epi32(*a, _mm_madd_epi16(v, av));
                }
            }
        }
        for &(row, sh) in &step.carried {
            let cnt = _mm_cvtsi32_si128(sh as i32);
            for (accr, cr) in acc.iter_mut().zip(&ring[row]) {
                for (a, &c) in accr.iter_mut().zip(cr) {
                    *a = _mm_add_epi32(*a, _mm_sll_epi32(c, cnt));
                }
            }
        }
        let cnt = _mm_cvtsi32_si128(step.shift as i32);
        let half = _mm_set1_epi32(((1u32 << step.shift) >> 1) as i32);
        for (dst, accr) in ring[step.row].iter_mut().zip(&acc) {
            for (d, &a) in dst.iter_mut().zip(accr) {
                *d = sse2_round_shift_clamp(a, half, cnt, lo, hi);
            }
        }
    }
    let last = &plan.steps[plan.steps.len() - 1];
    let cnt = _mm_cvtsi32_si128(last.shift as i32);
    let scale = _mm_set1_ps(f.scale);
    for (r, cr) in ring[last.row][..R].iter().enumerate() {
        for (c, &code) in cr[..C].iter().enumerate() {
            let o = (i + r) * f.n + j + 4 * c;
            let bias = &f.bias[j + 4 * c..][..4];
            let y = &mut out[o..][..4];
            let v = _mm_cvtepi32_ps(_mm_sll_epi32(code, cnt));
            // SAFETY: `bias` and `y` hold exactly the 4 f32 lanes loaded
            // and stored.
            unsafe {
                let b = _mm_loadu_ps(bias.as_ptr());
                _mm_storeu_ps(y.as_mut_ptr(), _mm_add_ps(_mm_mul_ps(v, scale), b));
            }
            if !codes.is_empty() {
                let dst = &mut codes[o..][..4];
                // SAFETY: `dst` holds exactly the 4 i32 lanes stored.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, code) };
            }
        }
    }
}

/// [`super::lanes::round_shift_clamp`] on 4 lanes at one shift (`cnt`, with
/// `half = 2^sh / 2` rounded down): round the magnitude as a `u32`,
/// restore the sign, clamp with compare masks (SSE2 has no `i32`
/// min/max).
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_round_shift_clamp(
    x: __m128i,
    half: __m128i,
    cnt: __m128i,
    lo: __m128i,
    hi: __m128i,
) -> __m128i {
    let s = _mm_srai_epi32::<31>(x);
    let mag = _mm_sub_epi32(_mm_xor_si128(x, s), s);
    let t = _mm_srl_epi32(_mm_add_epi32(mag, half), cnt);
    let v = _mm_sub_epi32(_mm_xor_si128(t, s), s);
    let over = _mm_cmpgt_epi32(v, hi);
    let v = _mm_or_si128(_mm_and_si128(over, hi), _mm_andnot_si128(over, v));
    let under = _mm_cmpgt_epi32(lo, v);
    _mm_or_si128(_mm_and_si128(under, lo), _mm_andnot_si128(under, v))
}

// ================================================================== AVX2

/// Horizontal sum of 8×i32 — exact, so the order is free.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_hsum_i32(v: __m256i) -> i32 {
    let mut lanes = [0i32; 8];
    // SAFETY: 8-lane stack array matches the 256-bit store width.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v) };
    lanes.iter().sum()
}

/// Loads 16 `i8` values from a bounds-checked slice as 16×i16.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_load16_i8_as_i16(s: &[i8]) -> __m256i {
    _mm256_cvtepi8_epi16(avx2_load16_i8(s))
}

/// Loads 8 `i8` values from a bounds-checked slice: as 8×i16 in the low
/// 128 bits of the result, zeros above.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_load8_i8_as_i16(s: &[i8]) -> __m256i {
    _mm256_cvtepi8_epi16(avx2_load8_i8(s))
}

/// Loads 8 `i8` values from a bounds-checked slice into the low 64 bits.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_load8_i8(s: &[i8]) -> __m128i {
    let s = &s[..8];
    // SAFETY: `s` holds exactly the 8 bytes loadl reads (unaligned
    // allowed).
    unsafe { _mm_loadl_epi64(s.as_ptr() as *const __m128i) }
}

/// Loads 16 `i8` values from a bounds-checked slice.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_load16_i8(s: &[i8]) -> __m128i {
    let s = &s[..16];
    // SAFETY: `s` holds exactly the 16 bytes loadu reads.
    unsafe { _mm_loadu_si128(s.as_ptr() as *const __m128i) }
}

/// Adds the 8 i32 lanes of `v` into `out` (exactly 8 slots).
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_add_store_i32(out: &mut [i32], v: __m256i) {
    let out = &mut out[..NR];
    // SAFETY: `out` has exactly NR = 8 i32 slots.
    unsafe {
        let p = out.as_mut_ptr() as *mut __m256i;
        _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), v));
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let mut kp = k0;
    while kp < k1 {
        let kq = usize::min(kp + KC, k1);
        let mut i = 0;
        while i + MR <= m {
            let mut j = 0;
            // MR rows × two 8-wide registers (a 4×16 tile): each a-value
            // broadcast feeds two column vectors, halving the broadcast
            // cost per MAC. Every output element still sums its own lane
            // in l order with separate mul and add — the scalar sequence
            // — so the wider tile cannot change a bit.
            while j + 2 * NR <= n {
                let mut acc0 = [_mm256_setzero_ps(); MR];
                let mut acc1 = [_mm256_setzero_ps(); MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + 2 * NR];
                    // SAFETY: brow has exactly 2·NR = 16 elements.
                    let (bv0, bv1) = unsafe {
                        (
                            _mm256_loadu_ps(brow.as_ptr()),
                            _mm256_loadu_ps(brow.as_ptr().add(NR)),
                        )
                    };
                    for r in 0..MR {
                        let av = _mm256_set1_ps(a[(i + r) * lda + l]);
                        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, bv0));
                        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, bv1));
                    }
                }
                for r in 0..MR {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + 2 * NR];
                    // SAFETY: orow has exactly 2·NR = 16 elements.
                    unsafe {
                        let p = orow.as_mut_ptr();
                        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), acc0[r]));
                        let p1 = p.add(NR);
                        _mm256_storeu_ps(p1, _mm256_add_ps(_mm256_loadu_ps(p1), acc1[r]));
                    }
                }
                j += 2 * NR;
            }
            while j + NR <= n {
                // Narrow 4×8 tile for the last full-NR block.
                let mut acc = [_mm256_setzero_ps(); MR];
                for l in kp..kq {
                    let brow = &b[l * ldb + j..l * ldb + j + NR];
                    // SAFETY: brow has exactly NR = 8 elements.
                    let bv = unsafe { _mm256_loadu_ps(brow.as_ptr()) };
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(a[(i + r) * lda + l]);
                        *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, bv));
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + NR];
                    // SAFETY: orow has exactly NR = 8 elements.
                    unsafe {
                        let p = orow.as_mut_ptr();
                        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), *accr));
                    }
                }
                j += NR;
            }
            if j < n {
                tail_f32(a, lda, b, ldb, out, ldo, i, i + MR, j, n, kp, kq);
            }
            i += MR;
        }
        if i < m {
            tail_f32(a, lda, b, ldb, out, ldo, i, m, 0, n, kp, kq);
        }
        kp = kq;
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_bt_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    for i in 0..m {
        let arow = &a[i * lda + k0..i * lda + k1];
        for j in 0..n {
            let brow = &b[j * ldb + k0..j * ldb + k1];
            out[i * ldo + j] += avx2_dot_f32(arow, brow);
        }
    }
}

/// [`super::dot_f32_lanes`] with all [`LANES`] partial sums in one 256-bit
/// register — vector lane c IS pinned lane c.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_dot_f32(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let full = x.len() - x.len() % LANES;
    let mut acc = _mm256_setzero_ps();
    let mut t = 0;
    while t < full {
        let xs = &x[t..t + LANES];
        let ys = &y[t..t + LANES];
        // SAFETY: both chunks carry exactly LANES = 8 elements.
        unsafe {
            let xv = _mm256_loadu_ps(xs.as_ptr());
            let yv = _mm256_loadu_ps(ys.as_ptr());
            acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, yv));
        }
        t += LANES;
    }
    let mut lanes = [0.0f32; LANES];
    // SAFETY: lanes has exactly 8 f32 slots for the 256-bit store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    for (c, i) in (full..x.len()).enumerate() {
        lanes[c] += x[i] * y[i];
    }
    reduce_lanes_f32(&lanes)
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_at_f32(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    i0: usize,
    i1: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    let wide = n - n % NR;
    for l in k0..k1 {
        let brow = &b[l * ldb..l * ldb + n];
        for i in i0..i1 {
            // No zero-skip: 0.0 * inf/NaN must still poison the gradient.
            let av = a[l * lda + i];
            let avv = _mm256_set1_ps(av);
            let orow = &mut out[(i - i0) * ldo..(i - i0) * ldo + n];
            let mut j = 0;
            while j < wide {
                // SAFETY: j + 8 <= wide <= n bounds both row slices.
                unsafe {
                    let p = orow.as_mut_ptr().add(j);
                    let bv = _mm256_loadu_ps(brow.as_ptr().add(j));
                    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), _mm256_mul_ps(avv, bv)));
                }
                j += NR;
            }
            for (o, &bv) in orow[wide..].iter_mut().zip(brow[wide..].iter()) {
                *o += av * bv;
            }
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_np_i8(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    m: usize,
    n: usize,
    k0: usize,
    k1: usize,
) {
    np_passes(a, lda, m, (k0, k1), |pairs, i, rows, pass| match rows {
        4 => avx2_np_strip::<4>(pairs, b, ldb, out, ldo, i, n, pass),
        3 => avx2_np_strip::<3>(pairs, b, ldb, out, ldo, i, n, pass),
        2 => avx2_np_strip::<2>(pairs, b, ldb, out, ldo, i, n, pass),
        _ => avx2_np_strip::<1>(pairs, b, ldb, out, ldo, i, n, pass),
    });
}

/// Rows `i..i + R` of [`avx2_gemm_np_i8`] over one pass: R×2·NR madd
/// tiles (4×16 for a full row block), then an R×NR tile, then the < NR
/// column tail through [`tail_np_i8`].
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_np_strip<const R: usize>(
    pairs: &Pairs,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    n: usize,
    pass: (usize, usize),
) {
    let mut j = 0;
    while j + 2 * NR <= n {
        avx2_np_tile::<R, 2>(pairs, b, ldb, out, ldo, i, j, pass);
        j += 2 * NR;
    }
    while j + NR <= n {
        avx2_np_tile::<R, 1>(pairs, b, ldb, out, ldo, i, j, pass);
        j += NR;
    }
    tail_np_i8(pairs, R, b, ldb, out, ldo, i, (j, n), pass);
}

/// One R×(C·NR) tile at `(i, j)`: per pair, C loads of NR columns × 2 k,
/// widened to 16×i16 once and madd'd against every row's broadcast pair
/// into that row's C 8×i32 accumulators.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_np_tile<const R: usize, const C: usize>(
    pairs: &Pairs,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    j: usize,
    (pp, pq): (usize, usize),
) {
    let mut acc = [[_mm256_setzero_si256(); C]; R];
    for (t, p) in (pp..pq).enumerate() {
        let bp = &b[p * ldb + 2 * j..p * ldb + 2 * (j + C * NR)];
        let mut bv = [_mm256_setzero_si256(); C];
        for (v, chunk) in bv.iter_mut().zip(bp.chunks_exact(2 * NR)) {
            *v = avx2_load16_i8_as_i16(chunk);
        }
        for (accr, staged) in acc.iter_mut().zip(pairs) {
            let av = _mm256_set1_epi32(pair_word(staged[t][0], staged[t][1]));
            for (accv, &v) in accr.iter_mut().zip(&bv) {
                *accv = _mm256_add_epi32(*accv, _mm256_madd_epi16(v, av));
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + C * NR];
        for (chunk, &accv) in orow.chunks_exact_mut(NR).zip(accr) {
            avx2_add_store_i32(chunk, accv);
        }
    }
}

/// The ring of one AVX2 fused tile: ring row, tile row, 8-lane codes.
type Ring256 = [[[__m256i; 2]; MR]; MAX_RING];

#[target_feature(enable = "avx2")]
pub(super) fn avx2_apsq_linear_i8(f: &Fused<'_>, rows: usize, out: &mut [f32], codes: &mut [i32]) {
    let mut ring: Ring256 = [[[_mm256_setzero_si256(); 2]; MR]; MAX_RING];
    let mut i = 0;
    while i < rows {
        let r = usize::min(MR, rows - i);
        match r {
            4 => avx2_fused_strip::<4>(f, i, &mut ring, out, codes),
            3 => avx2_fused_strip::<3>(f, i, &mut ring, out, codes),
            2 => avx2_fused_strip::<2>(f, i, &mut ring, out, codes),
            _ => avx2_fused_strip::<1>(f, i, &mut ring, out, codes),
        }
        i += r;
    }
    let j = f.n / NR * NR;
    if j < f.n {
        scalar::apsq_linear_i8(f, rows, (j, f.n), out, codes);
    }
}

/// Rows `i..i + R` of [`avx2_apsq_linear_i8`]: R×2·NR tiles, then an
/// R×NR tile.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_fused_strip<const R: usize>(
    f: &Fused<'_>,
    i: usize,
    ring: &mut Ring256,
    out: &mut [f32],
    codes: &mut [i32],
) {
    let mut j = 0;
    while j + 2 * NR <= f.n {
        avx2_fused_tile::<R, 2>(f, i, j, ring, out, codes);
        j += 2 * NR;
    }
    if j + NR <= f.n {
        avx2_fused_tile::<R, 1>(f, i, j, ring, out, codes);
    }
}

/// One R×(C·NR) tile at `(i, j)` through every step of the plan: the
/// madd loop of [`avx2_np_tile`] per step, then the fold on the
/// registers.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_fused_tile<const R: usize, const C: usize>(
    f: &Fused<'_>,
    i: usize,
    j: usize,
    ring: &mut Ring256,
    out: &mut [f32],
    codes: &mut [i32],
) {
    let plan = f.plan;
    let (lo, hi) = (_mm256_set1_epi32(plan.qn), _mm256_set1_epi32(plan.qp));
    for (step, w) in plan.steps.iter().zip(&plan.windows) {
        let mut acc = [[_mm256_setzero_si256(); C]; R];
        let b_rows = f.b[w.pair * f.ldb..].chunks_exact(f.ldb);
        for (words, b_row) in f.block::<R>(i, w).chunks_exact(R).zip(b_rows) {
            let bp = &b_row[2 * j..][..2 * C * NR];
            let mut bv = [_mm256_setzero_si256(); C];
            for (v, chunk) in bv.iter_mut().zip(bp.chunks_exact(2 * NR)) {
                *v = avx2_load16_i8_as_i16(chunk);
            }
            for (accr, &word) in acc.iter_mut().zip(words) {
                let av = _mm256_set1_epi32(word);
                for (a, &v) in accr.iter_mut().zip(&bv) {
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(v, av));
                }
            }
        }
        for &(row, sh) in &step.carried {
            let cnt = _mm_cvtsi32_si128(sh as i32);
            for (accr, cr) in acc.iter_mut().zip(&ring[row]) {
                for (a, &c) in accr.iter_mut().zip(cr) {
                    *a = _mm256_add_epi32(*a, _mm256_sll_epi32(c, cnt));
                }
            }
        }
        let cnt = _mm_cvtsi32_si128(step.shift as i32);
        let half = _mm256_set1_epi32(((1u32 << step.shift) >> 1) as i32);
        for (dst, accr) in ring[step.row].iter_mut().zip(&acc) {
            for (d, &a) in dst.iter_mut().zip(accr) {
                *d = avx2_round_shift_clamp(a, half, cnt, lo, hi);
            }
        }
    }
    let last = &plan.steps[plan.steps.len() - 1];
    let cnt = _mm_cvtsi32_si128(last.shift as i32);
    let scale = _mm256_set1_ps(f.scale);
    for (r, cr) in ring[last.row][..R].iter().enumerate() {
        for (c, &code) in cr[..C].iter().enumerate() {
            let o = (i + r) * f.n + j + NR * c;
            let bias = &f.bias[j + NR * c..][..NR];
            let y = &mut out[o..][..NR];
            let v = _mm256_cvtepi32_ps(_mm256_sll_epi32(code, cnt));
            // SAFETY: `bias` and `y` hold exactly the NR = 8 f32 lanes
            // loaded and stored.
            unsafe {
                let b = _mm256_loadu_ps(bias.as_ptr());
                _mm256_storeu_ps(y.as_mut_ptr(), _mm256_add_ps(_mm256_mul_ps(v, scale), b));
            }
            if !codes.is_empty() {
                let dst = &mut codes[o..][..NR];
                // SAFETY: `dst` holds exactly the NR = 8 i32 lanes stored.
                unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, code) };
            }
        }
    }
}

/// [`super::lanes::round_shift_clamp`] on 8 lanes at one shift (`cnt`, with
/// `half = 2^sh / 2` rounded down): round the magnitude as a `u32`
/// (`|i32::MIN|` included), restore the sign, clamp.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_round_shift_clamp(
    x: __m256i,
    half: __m256i,
    cnt: __m128i,
    lo: __m256i,
    hi: __m256i,
) -> __m256i {
    let s = _mm256_srai_epi32::<31>(x);
    let t = _mm256_srl_epi32(_mm256_add_epi32(_mm256_abs_epi32(x), half), cnt);
    let v = _mm256_sub_epi32(_mm256_xor_si256(t, s), s);
    _mm256_min_epi32(_mm256_max_epi32(v, lo), hi)
}

/// [`super::lanes::quantize_i8`]: `clamp(round(x / scale), −128, 127)`
/// as `i8`, 32 lanes a pass, then 8, then the body for the last < 8.
/// Per lane: divide, add `copysign(pred(0.5), y)` and truncate — half
/// away from zero, exactly as `f32::round` — zero NaN lanes through an
/// ordered-compare mask, clamp, convert, and pack to bytes.
#[target_feature(enable = "avx2")]
pub(super) fn avx2_quantize_i8(xs: &[f32], scale: f32, out: &mut [i8]) {
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    let sv = _mm256_set1_ps(scale);
    // `_mm256_packs_*` interleave their 128-bit halves; this undoes it.
    let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    let mut xc = xs.chunks_exact(32);
    let mut oc = out.chunks_exact_mut(32);
    for (x, o) in (&mut xc).zip(&mut oc) {
        let (q0, q1) = (avx2_quantize8(&x[..8], sv), avx2_quantize8(&x[8..], sv));
        let (q2, q3) = (avx2_quantize8(&x[16..], sv), avx2_quantize8(&x[24..], sv));
        let lo = _mm256_packs_epi32(q0, q1);
        let hi = _mm256_packs_epi32(q2, q3);
        let v = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(lo, hi), order);
        // SAFETY: `o` holds exactly the 32 bytes stored.
        unsafe { _mm256_storeu_si256(o.as_mut_ptr() as *mut __m256i, v) };
    }
    let mut xc = xc.remainder().chunks_exact(8);
    let mut oc = oc.into_remainder().chunks_exact_mut(8);
    for (x, o) in (&mut xc).zip(&mut oc) {
        let w = _mm256_packs_epi32(avx2_quantize8(x, sv), _mm256_setzero_si256());
        let v = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(w, w), order);
        // SAFETY: `o` holds exactly the 8 bytes storel writes.
        unsafe { _mm_storel_epi64(o.as_mut_ptr() as *mut __m128i, _mm256_castsi256_si128(v)) };
    }
    super::lanes::quantize_i8_body(xc.remainder(), scale, oc.into_remainder());
}

/// The 8 i32 codes of [`avx2_quantize_i8`] for `x[..8]`.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_quantize8(x: &[f32], scale: __m256) -> __m256i {
    let x = &x[..8];
    // SAFETY: `x` holds exactly the 8 f32 lanes loaded.
    let y = _mm256_div_ps(unsafe { _mm256_loadu_ps(x.as_ptr()) }, scale);
    let pred_half = _mm256_set1_ps(f32::from_bits(0x3eff_ffff));
    let sign = _mm256_and_ps(y, _mm256_set1_ps(-0.0));
    let r = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_ps(
        y,
        _mm256_or_ps(pred_half, sign),
    ));
    let r = _mm256_and_ps(r, _mm256_cmp_ps::<_CMP_ORD_Q>(y, y));
    let r = _mm256_min_ps(
        _mm256_max_ps(r, _mm256_set1_ps(-128.0)),
        _mm256_set1_ps(127.0),
    );
    _mm256_cvttps_epi32(r)
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_qk_block_i8(
    q: &[i8],
    heads: usize,
    k_tile: usize,
    keys: &[i8],
    tiles: &mut [i32],
    ldt: usize,
) {
    let d = q.len();
    let dh = d / heads;
    let len = keys.len() / d;
    for c in 0..heads * dh.div_ceil(k_tile) {
        let row = &mut tiles[c * ldt..][..len];
        avx2_qk_chunk(q, keys, row, qk_chunk(c, heads, dh, k_tile));
    }
}

/// Chunk `[l0, l1)` of every key row into `row`, one score per key row,
/// for any chunk shape: eight rows per pass share one widened query
/// piece per 16 columns, and one hadd tree reduces their eight dot
/// products into one vector of consecutive scores.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_qk_chunk(q: &[i8], keys: &[i8], row: &mut [i32], (l0, l1): (usize, usize)) {
    let d = q.len();
    let len = row.len();
    let mut j = 0;
    while j + 8 <= len {
        let [a0, a1, a2, a3, a4, a5, a6, a7] = avx2_qk_dots::<8>(q, keys, d, j, (l0, l1));
        let sums = _mm256_set_m128i(
            avx2_hadd4_i32([a4, a5, a6, a7]),
            avx2_hadd4_i32([a0, a1, a2, a3]),
        );
        let dst = &mut row[j..j + 8];
        // SAFETY: `dst` has exactly 8 i32 slots.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, sums) };
        j += 8;
    }
    for (r, o) in row.iter_mut().enumerate().skip(j) {
        let [acc] = avx2_qk_dots::<1>(q, keys, d, r, (l0, l1));
        *o = avx2_hsum_i32(acc);
    }
    // The < 8-column tail of a narrow or ragged chunk.
    let t0 = l0 + (l1 - l0) / 8 * 8;
    if t0 < l1 {
        for (o, krow) in row.iter_mut().zip(keys.chunks_exact(d)) {
            for (&x, &y) in q[t0..l1].iter().zip(&krow[t0..l1]) {
                *o += x as i32 * y as i32;
            }
        }
    }
}

/// The madd partial sums of chunk `[l0, l1)` against key rows
/// `j..j + R`, one 8×i32 accumulator per row: 16 columns per madd, then
/// one 8-column madd, leaving the < 8-column tail to the caller.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_qk_dots<const R: usize>(
    q: &[i8],
    keys: &[i8],
    d: usize,
    j: usize,
    (l0, l1): (usize, usize),
) -> [__m256i; R] {
    let mut acc = [_mm256_setzero_si256(); R];
    let mut l = l0;
    while l + 16 <= l1 {
        let qv = avx2_load16_i8_as_i16(&q[l..l + 16]);
        for (r, accv) in acc.iter_mut().enumerate() {
            let kv = avx2_load16_i8_as_i16(&keys[(j + r) * d + l..][..16]);
            *accv = _mm256_add_epi32(*accv, _mm256_madd_epi16(qv, kv));
        }
        l += 16;
    }
    if l + 8 <= l1 {
        let qv = avx2_load8_i8_as_i16(&q[l..]);
        for (r, accv) in acc.iter_mut().enumerate() {
            let kv = avx2_load8_i8_as_i16(&keys[(j + r) * d + l..]);
            *accv = _mm256_add_epi32(*accv, _mm256_madd_epi16(qv, kv));
        }
    }
    acc
}

/// The four horizontal sums of `v`, in order: hadd twice folds pairs
/// within each 128-bit lane, then the two lanes add.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_hadd4_i32([v0, v1, v2, v3]: [__m256i; 4]) -> __m128i {
    let h = _mm256_hadd_epi32(_mm256_hadd_epi32(v0, v1), _mm256_hadd_epi32(v2, v3));
    _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h))
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_pv_block_i8(
    p: &[i8],
    ldp: usize,
    values: &[i8],
    heads: usize,
    out: &mut [i32],
    accumulate: bool,
) {
    let d = out.len();
    let dh = d / heads;
    let len = values.len() / d;
    for (h, o) in out.chunks_exact_mut(dh).enumerate() {
        if !accumulate {
            o.fill(0);
        }
        let ph = &p[h * ldp..][..len];
        let mut c = 0;
        while c + 4 * NR <= dh {
            avx2_pv_cols::<4>(ph, values, d, h * dh + c, &mut o[c..c + 4 * NR]);
            c += 4 * NR;
        }
        while c + NR <= dh {
            avx2_pv_cols::<1>(ph, values, d, h * dh + c, &mut o[c..c + NR]);
            c += NR;
        }
        if c < dh {
            for (&pj, vrow) in ph.iter().zip(values.chunks_exact(d)) {
                for (oc, &v) in o[c..].iter_mut().zip(&vrow[h * dh + c..(h + 1) * dh]) {
                    *oc += pj as i32 * v as i32;
                }
            }
        }
    }
}

/// Adds `Σ_j ph[j] · values[j · d + col + c]` into `o[c]` for the
/// `C · NR` columns of `o`. Rows go in pairs: the two rows' codes
/// interleave into (row j, row j + 1) i16 pairs, and one madd against the
/// broadcast probability pair gives each column's two-row sum in its own
/// i32 lane. An odd last row pairs with itself at probability zero.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_pv_cols<const C: usize>(ph: &[i8], values: &[i8], d: usize, col: usize, o: &mut [i32]) {
    let mut acc = [_mm256_setzero_si256(); C];
    let row = |j: usize| &values[j * d + col..][..C * NR];
    let mut j = 0;
    while j + 2 <= ph.len() {
        avx2_pv_madd_rows(&mut acc, row(j), row(j + 1), [ph[j], ph[j + 1]]);
        j += 2;
    }
    if j < ph.len() {
        avx2_pv_madd_rows(&mut acc, row(j), row(j), [ph[j], 0]);
    }
    for (chunk, &accv) in o.chunks_exact_mut(NR).zip(&acc) {
        avx2_add_store_i32(chunk, accv);
    }
}

/// One row pair of [`avx2_pv_cols`]: `acc[cc]` gains
/// `w0 · r0[cc·NR + i] + w1 · r1[cc·NR + i]` in lane `i`. Two units of
/// NR columns share one 16-byte load per row.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_pv_madd_rows<const C: usize>(
    acc: &mut [__m256i; C],
    r0: &[i8],
    r1: &[i8],
    [w0, w1]: [i8; 2],
) {
    let w = _mm256_set1_epi32(pair_word(w0 as i16, w1 as i16));
    let mut cc = 0;
    while cc + 2 <= C {
        let (v0, v1) = (
            avx2_load16_i8(&r0[cc * NR..]),
            avx2_load16_i8(&r1[cc * NR..]),
        );
        acc[cc] = avx2_madd_pairs(acc[cc], _mm_unpacklo_epi8(v0, v1), w);
        acc[cc + 1] = avx2_madd_pairs(acc[cc + 1], _mm_unpackhi_epi8(v0, v1), w);
        cc += 2;
    }
    if cc < C {
        let (v0, v1) = (avx2_load8_i8(&r0[cc * NR..]), avx2_load8_i8(&r1[cc * NR..]));
        acc[cc] = avx2_madd_pairs(acc[cc], _mm_unpacklo_epi8(v0, v1), w);
    }
}

/// `acc + madd(pairs, w)` for 8 interleaved i8 code pairs, sign-extended
/// to i16 first.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_madd_pairs(acc: __m256i, pairs: __m128i, w: __m256i) -> __m256i {
    _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_cvtepi8_epi16(pairs), w))
}

// ======================================================= AVX2+FMA exp/tanh
//
// The vector builds of `scalar::exp` and `scalar::tanh`: the same IEEE
// operations in the same order per lane (the two fused multiply-adds of
// `exp`'s range reduction included), so every lane is bit-identical to
// the body. A vector holding any lane the body special-cases outside the
// blended paths runs the body on all eight lanes, and so does the short
// tail.

/// `scalar::exp` over `xs`, in place, eight lanes per step as two f64×4
/// halves.
#[target_feature(enable = "avx2,fma")]
pub(super) fn avx2_exp_f32(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        // SAFETY: `c` holds exactly the 8 f32 loadu reads.
        let x = unsafe { _mm256_loadu_ps(c.as_ptr()) };
        let top = _mm256_and_si256(
            _mm256_srli_epi32::<20>(_mm256_castps_si256(x)),
            _mm256_set1_epi32(0x7ff),
        );
        let special = _mm256_cmpgt_epi32(top, _mm256_set1_epi32(EXP_SPECIAL_TOP as i32 - 1));
        if _mm256_movemask_epi8(special) != 0 {
            scalar::exp_f32(c);
            continue;
        }
        let lo = avx2_exp_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = avx2_exp_pd(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        // SAFETY: as for the load.
        unsafe { _mm256_storeu_ps(c.as_mut_ptr(), _mm256_set_m128(hi, lo)) };
    }
    scalar::exp_f32(chunks.into_remainder());
}

/// The non-special path of `scalar::exp` on four lanes widened to f64.
#[target_feature(enable = "avx2,fma")]
#[inline]
fn avx2_exp_pd(xd: __m256d) -> __m128 {
    let inv_ln2_n = _mm256_set1_pd(EXP_INV_LN2_N);
    let shift = _mm256_set1_pd(EXP_SHIFT);
    let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(EXP_N as i64 - 1));
    // SAFETY: every index is masked to 0..EXP_N, inside the table.
    let t = unsafe { _mm256_i64gather_epi64::<8>(EXP_TAB.as_ptr() as *const i64, idx) };
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let [c0, c1, c2] = EXP_POLY.map(|c| _mm256_set1_pd(c));
    let z = _mm256_add_pd(_mm256_mul_pd(c0, r), c1);
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_add_pd(_mm256_mul_pd(c2, r), _mm256_set1_pd(1.0));
    let y = _mm256_add_pd(_mm256_mul_pd(z, r2), y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// `scalar::tanh` over `xs`, in place: every lane runs the `expm1`
/// reduction and all of its `k` paths, and the lane's own branches pick
/// the result. Only a vector with an infinite or NaN lane runs the body.
#[target_feature(enable = "avx2,fma")]
pub(super) fn avx2_tanh_f32(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        // SAFETY: `c` holds exactly the 8 f32 loadu reads.
        let x = unsafe { _mm256_loadu_ps(c.as_ptr()) };
        let sign = _mm256_set1_ps(-0.0);
        let ax = _mm256_andnot_ps(sign, x);
        let ix = _mm256_castps_si256(ax);
        let above =
            |bits: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(bits - 1)));
        let below =
            |bits: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(bits), ix));
        if _mm256_movemask_ps(above(0x7f80_0000)) != 0 {
            scalar::tanh_f32(c);
            continue;
        }
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        // |x| ≥ 1: 1 − 2/(expm1(2|x|) + 2); else −t/(t + 2), t = expm1(−2|x|).
        let big = above(0x3f80_0000);
        let t = avx2_expm1_ps(_mm256_blendv_ps(
            _mm256_mul_ps(_mm256_set1_ps(-2.0), ax),
            _mm256_mul_ps(two, ax),
            big,
        ));
        let t2 = _mm256_add_ps(t, two);
        let z = _mm256_blendv_ps(
            _mm256_div_ps(_mm256_xor_ps(t, sign), t2),
            _mm256_sub_ps(one, _mm256_div_ps(two, t2)),
            big,
        );
        // |x| ≥ 22: 1.
        let z = _mm256_blendv_ps(z, one, above(0x41b0_0000));
        let z = _mm256_or_ps(z, _mm256_and_ps(sign, x));
        // |x| < 2^-55 (zeros included): x · (1 + x).
        let z = _mm256_blendv_ps(
            z,
            _mm256_mul_ps(x, _mm256_add_ps(one, x)),
            below(0x2400_0000),
        );
        // SAFETY: as for the load.
        unsafe { _mm256_storeu_ps(c.as_mut_ptr(), z) };
    }
    scalar::tanh_f32(chunks.into_remainder());
}

/// `scalar::expm1` on eight finite lanes with `|x| < 44`, the domain
/// `tanh` calls it on: the `k` reduction, then every return path of the
/// body, blended by the lane's own `k`.
#[target_feature(enable = "avx2,fma")]
#[inline]
fn avx2_expm1_ps(x: __m256) -> __m256 {
    let sign = _mm256_set1_ps(-0.0);
    let hx = _mm256_castps_si256(_mm256_andnot_ps(sign, x));
    let above = |bits: i32| _mm256_cmpgt_epi32(hx, _mm256_set1_epi32(bits - 1));
    let below = |bits: i32| _mm256_cmpgt_epi32(_mm256_set1_epi32(bits), hx);
    let neg = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_setzero_ps()));
    let half = _mm256_set1_ps(0.5);
    let xsign = _mm256_and_ps(sign, x);

    // k: 0 for |x| ≤ ln2/2, ±1 below 1.5·ln 2, else trunc(x/ln 2 ± 1/2).
    let kn = _mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(INV_LN2), x),
        _mm256_or_ps(half, xsign),
    ));
    let k1 = _mm256_or_si256(neg, _mm256_set1_epi32(1));
    let k = _mm256_blendv_epi8(kn, k1, below(0x3f85_1592));
    let k = _mm256_and_si256(k, above(0x3eb1_7219));
    let kf = _mm256_cvtepi32_ps(k);
    let hi = _mm256_sub_ps(x, _mm256_mul_ps(kf, _mm256_set1_ps(LN2_HI)));
    let lo = _mm256_mul_ps(kf, _mm256_set1_ps(LN2_LO));
    let xr = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

    let [q1, q2, q3, q4, q5] = EXPM1_Q.map(|q| _mm256_set1_ps(q));
    let one = _mm256_set1_ps(1.0);
    let hfx = _mm256_mul_ps(half, xr);
    let hxs = _mm256_mul_ps(xr, hfx);
    let p = _mm256_add_ps(q4, _mm256_mul_ps(hxs, q5));
    let p = _mm256_add_ps(q3, _mm256_mul_ps(hxs, p));
    let p = _mm256_add_ps(q2, _mm256_mul_ps(hxs, p));
    let p = _mm256_add_ps(q1, _mm256_mul_ps(hxs, p));
    let r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, p));
    let t = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, t),
            _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(xr, t)),
        ),
    );
    // k = 0.
    let y0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
    let e = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c),
        hxs,
    );
    // k = −1.
    let y_m1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
    // k = 1.
    let two = _mm256_set1_ps(2.0);
    let y_p1 = _mm256_blendv_ps(
        _mm256_add_ps(one, _mm256_mul_ps(two, _mm256_sub_ps(xr, e))),
        _mm256_mul_ps(
            _mm256_set1_ps(-2.0),
            _mm256_sub_ps(e, _mm256_add_ps(xr, half)),
        ),
        _mm256_cmp_ps::<_CMP_LT_OQ>(xr, _mm256_set1_ps(-0.25)),
    );
    let add_k = |y: __m256| {
        _mm256_castsi256_ps(_mm256_add_epi32(
            _mm256_castps_si256(y),
            _mm256_slli_epi32::<23>(k),
        ))
    };
    let e_x = _mm256_sub_ps(e, xr);
    // k ≤ −2 or k > 56.
    let y_far = _mm256_sub_ps(add_k(_mm256_sub_ps(one, e_x)), one);
    // 2 ≤ k < 23: t = 1 − 2^-k.
    let t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_set1_epi32(0x3f80_0000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
    ));
    let y_mid = add_k(_mm256_sub_ps(t_mid, e_x));
    // 23 ≤ k ≤ 56: t = 2^-k.
    let t_high = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(
        _mm256_set1_epi32(0x7f),
        k,
    )));
    let y_high = add_k(_mm256_add_ps(
        _mm256_sub_ps(xr, _mm256_add_ps(e, t_high)),
        one,
    ));

    let k_is = |v: i32| _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(v)));
    let k_below = |v: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(v), k));
    let k_above = |v: i32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(k, _mm256_set1_epi32(v)));
    let y = _mm256_blendv_ps(y_high, y_mid, k_below(23));
    let y = _mm256_blendv_ps(y, y_far, _mm256_or_ps(k_below(-1), k_above(56)));
    let y = _mm256_blendv_ps(y, y_p1, k_is(1));
    let y = _mm256_blendv_ps(y, y_m1, k_is(-1));
    let y = _mm256_blendv_ps(y, y0, k_is(0));
    // |x| < 2^-25: x itself.
    _mm256_blendv_ps(y, x, _mm256_castsi256_ps(below(0x3300_0000)))
}
