//! `core::arch::x86_64` kernel backends: 128-bit SSE2 (baseline, no
//! detection needed) and 256-bit AVX2 (runtime-detected).
//!
//! Bit-identity with the scalar reference is the design rule, not a test
//! afterthought:
//!
//! - f32 kernels use separate multiply and add intrinsics — never FMA,
//!   whose single rounding would diverge from the scalar two-rounding
//!   sequence.
//! - f32 kernels that vectorize along N (`gemm_f32`, `gemm_at_f32`) keep
//!   one output element per lane, so each element still reduces in `l`
//!   order, exactly like scalar.
//! - `gemm_bt_f32` maps SIMD lanes onto the pinned [`LANES`]-lane partial
//!   sums of [`super::dot_f32_lanes`] (SSE2 splits them across two
//!   128-bit registers), then reduces through the same lane array.
//! - Integer kernels accumulate in `i32`; any summation order is exact, so
//!   they are free to use `madd_epi16` widening reductions.
//!
//! Memory safety: every vector load/store first carves a bounds-checked
//! subslice of exactly the lanes it touches, then loads from the slice
//! pointer — out-of-range extents panic like the scalar kernels instead of
//! reading past the buffer.

use core::arch::x86_64::*;

use super::{reduce_lanes_f32, tail_f32, tail_i8, KC, LANES, MR, NR};

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

/// Widens 8×i16 `v` times 8×i16 `w` into two 4×i32 product vectors
/// (elements 0..4 and 4..8) using the SSE2 mullo/mulhi split.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_mul_i16_to_i32(v: __m128i, w: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_mullo_epi16(v, w);
    let hi = _mm_mulhi_epi16(v, w);
    (_mm_unpacklo_epi16(lo, hi), _mm_unpackhi_epi16(lo, hi))
}

/// Horizontal sum of 4×i32 — exact, so the order is free.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_hsum_i32(v: __m128i) -> i32 {
    let mut lanes = [0i32; 4];
    // SAFETY: 4-lane stack array matches the 128-bit store width.
    unsafe { _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, v) };
    lanes.iter().sum()
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
pub(super) fn sse2_gemm_i8(
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
    let mut kp = k0;
    while kp < k1 {
        let kq = usize::min(kp + KC, k1);
        let mut i = 0;
        while i + MR <= m {
            sse2_i8_strip::<MR, 1>(a, lda, b, ldb, out, ldo, i, n, kp, kq);
            i += MR;
        }
        // Rows left after the MR tiles — all of an M = 1 decode product —
        // run one-row vector tiles 4·NR wide, so each b row loaded per l
        // feeds 32 columns.
        while i < m {
            sse2_i8_strip::<1, 4>(a, lda, b, ldb, out, ldo, i, n, kp, kq);
            i += 1;
        }
        kp = kq;
    }
}

/// Rows `i..i + R` of [`sse2_gemm_i8`] over one K panel: R×(C·NR)
/// vector tiles across the columns, then R×NR tiles, then the < NR column
/// tail through [`tail_i8`].
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_i8_strip<const R: usize, const C: usize>(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    n: usize,
    kp: usize,
    kq: usize,
) {
    let mut j = 0;
    while j + C * NR <= n {
        sse2_i8_tile::<R, C>(a, lda, b, ldb, out, ldo, i, j, kp, kq);
        j += C * NR;
    }
    while j + NR <= n {
        sse2_i8_tile::<R, 1>(a, lda, b, ldb, out, ldo, i, j, kp, kq);
        j += NR;
    }
    if j < n {
        tail_i8(a, lda, b, ldb, out, ldo, i, i + R, j, n, kp, kq);
    }
}

/// One R×(C·NR) register tile at `(i, j)`: each row keeps two 4×i32
/// registers per NR columns. Integer adds are exact, so lane order is
/// free.
#[target_feature(enable = "sse2")]
#[inline]
fn sse2_i8_tile<const R: usize, const C: usize>(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    j: usize,
    kp: usize,
    kq: usize,
) {
    let mut acc = [[[_mm_setzero_si128(); 2]; C]; R];
    for l in kp..kq {
        let brow = &b[l * ldb + j..l * ldb + j + C * NR];
        let mut bv16 = [_mm_setzero_si128(); C];
        for (c, bv) in bv16.iter_mut().enumerate() {
            *bv = sse2_load8_i8_as_i16(&brow[c * NR..(c + 1) * NR]);
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            let av16 = _mm_set1_epi16(a[(i + r) * lda + l] as i16);
            for (accv, &bv) in accr.iter_mut().zip(&bv16) {
                let (p0, p1) = sse2_mul_i16_to_i32(bv, av16);
                accv[0] = _mm_add_epi32(accv[0], p0);
                accv[1] = _mm_add_epi32(accv[1], p1);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + C * NR];
        for (chunk, accv) in orow.chunks_exact_mut(NR).zip(accr) {
            // SAFETY: chunk has exactly NR = 8 i32 slots.
            unsafe {
                let p = chunk.as_mut_ptr() as *mut __m128i;
                _mm_storeu_si128(p, _mm_add_epi32(_mm_loadu_si128(p), accv[0]));
                _mm_storeu_si128(p.add(1), _mm_add_epi32(_mm_loadu_si128(p.add(1)), accv[1]));
            }
        }
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn sse2_gemm_bt_i8(
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
    for i in 0..m {
        let arow = &a[i * lda + k0..i * lda + k1];
        for j in 0..n {
            let brow = &b[j * ldb + k0..j * ldb + k1];
            let klen = arow.len();
            let full = klen - klen % 8;
            let mut acc = _mm_setzero_si128();
            let mut t = 0;
            while t < full {
                let av16 = sse2_load8_i8_as_i16(&arow[t..t + 8]);
                let bv16 = sse2_load8_i8_as_i16(&brow[t..t + 8]);
                // i8×i8 products fit i16; madd pairs them into 4×i32.
                acc = _mm_add_epi32(acc, _mm_madd_epi16(av16, bv16));
                t += 8;
            }
            let mut sum = sse2_hsum_i32(acc);
            for (&x, &y) in arow[full..].iter().zip(brow[full..].iter()) {
                sum += x as i32 * y as i32;
            }
            out[i * ldo + j] += sum;
        }
    }
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
    debug_assert!(s.len() >= 16);
    // SAFETY: the slice carries ≥16 bytes for the 128-bit load.
    _mm256_cvtepi8_epi16(unsafe { _mm_loadu_si128(s.as_ptr() as *const __m128i) })
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
pub(super) fn avx2_gemm_i8(
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
    let mut kp = k0;
    while kp < k1 {
        let kq = usize::min(kp + KC, k1);
        let mut i = 0;
        while i + MR <= m {
            avx2_i8_strip::<MR, 1>(a, lda, b, ldb, out, ldo, i, n, kp, kq);
            i += MR;
        }
        // Rows left after the MR tiles — all of an M = 1 decode product —
        // run one-row vector tiles 4·NR wide, so each b row loaded per l
        // feeds 32 columns.
        while i < m {
            avx2_i8_strip::<1, 4>(a, lda, b, ldb, out, ldo, i, n, kp, kq);
            i += 1;
        }
        kp = kq;
    }
}

/// Rows `i..i + R` of [`avx2_gemm_i8`] over one K panel: R×(C·NR)
/// vector tiles across the columns, then R×NR tiles, then the < NR column
/// tail through [`tail_i8`].
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_i8_strip<const R: usize, const C: usize>(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    n: usize,
    kp: usize,
    kq: usize,
) {
    let mut j = 0;
    while j + C * NR <= n {
        avx2_i8_tile::<R, C>(a, lda, b, ldb, out, ldo, i, j, kp, kq);
        j += C * NR;
    }
    while j + NR <= n {
        avx2_i8_tile::<R, 1>(a, lda, b, ldb, out, ldo, i, j, kp, kq);
        j += NR;
    }
    if j < n {
        tail_i8(a, lda, b, ldb, out, ldo, i, i + R, j, n, kp, kq);
    }
}

/// One R×(C·NR) register tile at `(i, j)`: R rows × C 8×i32 registers.
/// b's C·NR codes are widened to i32 lanes once per l, and each row's
/// broadcast a-value feeds all C of them.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_i8_tile<const R: usize, const C: usize>(
    a: &[i8],
    lda: usize,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    i: usize,
    j: usize,
    kp: usize,
    kq: usize,
) {
    let mut acc = [[_mm256_setzero_si256(); C]; R];
    for l in kp..kq {
        let brow = &b[l * ldb + j..l * ldb + j + C * NR];
        let mut bv32 = [_mm256_setzero_si256(); C];
        for (c, bv) in bv32.iter_mut().enumerate() {
            let chunk = &brow[c * NR..(c + 1) * NR];
            // SAFETY: chunk has exactly NR = 8 bytes for the 64-bit load.
            let bv8 = unsafe { _mm_loadl_epi64(chunk.as_ptr() as *const __m128i) };
            *bv = _mm256_cvtepi8_epi32(bv8);
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_epi32(a[(i + r) * lda + l] as i32);
            for (accv, &bv) in accr.iter_mut().zip(&bv32) {
                *accv = _mm256_add_epi32(*accv, _mm256_mullo_epi32(av, bv));
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + C * NR];
        for (chunk, accv) in orow.chunks_exact_mut(NR).zip(accr) {
            // SAFETY: chunk has exactly NR = 8 i32 slots.
            unsafe {
                let p = chunk.as_mut_ptr() as *mut __m256i;
                _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), *accv));
            }
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn avx2_gemm_bt_i8(
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
    let klen = k1 - k0;
    let full32 = klen - klen % 32;
    let full16 = klen - klen % 16;
    for i in 0..m {
        let arow = &a[i * lda + k0..i * lda + k1];
        let mut j = 0;
        // Four columns at a time: each a-chunk is loaded/widened once and
        // feeds four madds, and the four dot products collapse together
        // in one hadd tree instead of four scalar-extract reductions.
        // This is what keeps the shallow APSQ k-tiles (depth 16) from
        // being reduction-bound. Integer adds are exact in any order, so
        // the regrouping cannot change a single output bit.
        while j + 4 <= n {
            let b0 = &b[j * ldb + k0..j * ldb + k1];
            let b1 = &b[(j + 1) * ldb + k0..(j + 1) * ldb + k1];
            let b2 = &b[(j + 2) * ldb + k0..(j + 2) * ldb + k1];
            let b3 = &b[(j + 3) * ldb + k0..(j + 3) * ldb + k1];
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            let mut t = 0;
            while t < full16 {
                let av = avx2_load16_i8_as_i16(&arow[t..t + 16]);
                acc0 = _mm256_add_epi32(
                    acc0,
                    _mm256_madd_epi16(av, avx2_load16_i8_as_i16(&b0[t..t + 16])),
                );
                acc1 = _mm256_add_epi32(
                    acc1,
                    _mm256_madd_epi16(av, avx2_load16_i8_as_i16(&b1[t..t + 16])),
                );
                acc2 = _mm256_add_epi32(
                    acc2,
                    _mm256_madd_epi16(av, avx2_load16_i8_as_i16(&b2[t..t + 16])),
                );
                acc3 = _mm256_add_epi32(
                    acc3,
                    _mm256_madd_epi16(av, avx2_load16_i8_as_i16(&b3[t..t + 16])),
                );
                t += 16;
            }
            // hadd twice folds pairs within each 128-bit lane, the third
            // level is the lane add: lanes end up [sum0, sum1, sum2, sum3].
            let h01 = _mm256_hadd_epi32(acc0, acc1);
            let h23 = _mm256_hadd_epi32(acc2, acc3);
            let h = _mm256_hadd_epi32(h01, h23);
            let sums = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h));
            let mut tail = [0i32; 4];
            for (dst, brow) in tail.iter_mut().zip([b0, b1, b2, b3]) {
                for (&x, &y) in arow[full16..].iter().zip(brow[full16..].iter()) {
                    *dst += x as i32 * y as i32;
                }
            }
            let orow = &mut out[i * ldo + j..i * ldo + j + 4];
            // SAFETY: orow and tail both hold exactly 4 i32 slots.
            unsafe {
                let p = orow.as_mut_ptr() as *mut __m128i;
                let tv = _mm_loadu_si128(tail.as_ptr() as *const __m128i);
                _mm_storeu_si128(
                    p,
                    _mm_add_epi32(_mm_loadu_si128(p), _mm_add_epi32(sums, tv)),
                );
            }
            j += 4;
        }
        while j < n {
            let brow = &b[j * ldb + k0..j * ldb + k1];
            // Two independent accumulators hide the madd latency on the
            // 2×-unrolled main loop; integer adds make the split exact.
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut t = 0;
            while t < full32 {
                let av0 = avx2_load16_i8_as_i16(&arow[t..t + 16]);
                let bv0 = avx2_load16_i8_as_i16(&brow[t..t + 16]);
                let av1 = avx2_load16_i8_as_i16(&arow[t + 16..t + 32]);
                let bv1 = avx2_load16_i8_as_i16(&brow[t + 16..t + 32]);
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(av0, bv0));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(av1, bv1));
                t += 32;
            }
            while t < full16 {
                let av = avx2_load16_i8_as_i16(&arow[t..t + 16]);
                let bv = avx2_load16_i8_as_i16(&brow[t..t + 16]);
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(av, bv));
                t += 16;
            }
            let mut sum = avx2_hsum_i32(_mm256_add_epi32(acc0, acc1));
            for (&x, &y) in arow[full16..].iter().zip(brow[full16..].iter()) {
                sum += x as i32 * y as i32;
            }
            out[i * ldo + j] += sum;
            j += 1;
        }
    }
}
