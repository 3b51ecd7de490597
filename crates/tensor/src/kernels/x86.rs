//! `core::arch::x86_64` kernel backends: 128-bit SSE2 (baseline, no
//! detection needed) and 256-bit AVX2 (runtime-detected; the `exp` and
//! `tanh` builds also need FMA).
//!
//! The GEMM kernels — f32 NN, NT and TN, the packed-B i8 product and the
//! fused APSQ linear kernel — are each written once, generic over a
//! [`Tier`]: the registers of one ISA tier and the few operations the
//! bodies run on them. [`Sse2`] and [`Avx2`] implement it; a tier's entry
//! point is compiled with its features and the body, `#[inline(always)]`,
//! is compiled into it. The attention, quantizer and transcendental
//! kernels are AVX2 builds only; SSE2 runs their scalar bodies.
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
//!   sums of [`super::dot_f32_lanes`] (SSE2 holds them in two 128-bit
//!   registers), then reduces through the same lane array.
//! - Integer kernels accumulate in `i32`; any summation order is exact, so
//!   they are free to use `madd_epi16` widening reductions. The packed-B
//!   kernels (`gemm_np_i8`, `apsq_linear_i8`) madd a broadcast activation
//!   pair against a run of column pairs, so each i32 lane is one output
//!   column and no tile ever reduces horizontally.
//!
//! Memory safety: every vector load/store first carves a bounds-checked
//! subslice of exactly the lanes it touches, then loads from the slice
//! pointer — out-of-range extents panic like the scalar kernels instead of
//! reading past the buffer.

use core::arch::x86_64::*;

use super::rows::{self, RowOps};
use super::scalar::{
    self, EXPM1_Q, EXP_INV_LN2_N, EXP_N, EXP_POLY, EXP_SHIFT, EXP_SPECIAL_TOP, EXP_TAB, INV_LN2,
    LN2_HI, LN2_LO,
};
use super::{
    for_qk_chunks, np_passes, pair_word, reduce_lanes_f32, tail_f32, tail_np_i8, Pairs, KC, LANES,
    MAX_RING, MR, NR,
};
use crate::attn::{KvSegment, RowFold, RowScratch};
use crate::fold::Fused;

// ================================================================= tiers

/// The registers of one x86 SIMD tier and the operations the generic
/// GEMM bodies run on them: an `i32` vector of [`Tier::W`] lanes and an
/// f32 vector of the [`LANES`] pinned lanes.
///
/// # Safety
///
/// Every method is compiled with the tier's target features: call one
/// only on a host that has them (SSE2: every x86-64; AVX2: detected).
/// Slice arguments are cut to the lanes a method touches first, so a
/// short slice panics.
trait Tier {
    /// `i32` lanes of [`Tier::I`].
    const W: usize;
    /// The widest f32 NN tile, in [`LANES`]-column vectors: 2 (4×16) on
    /// AVX2, 1 (4×8) on SSE2.
    const NN_VECS: usize;
    /// `W` lanes of `i32`.
    type I: Copy;
    /// [`LANES`] lanes of `f32`.
    type F: Copy;

    /// `x` in every lane. Safety: [`Tier`].
    unsafe fn splat(x: i32) -> Self::I;
    /// `s[..2·W]` as `2·W` lanes of `i16`. Safety: [`Tier`].
    unsafe fn load_i8_as_i16(s: &[i8]) -> Self::I;
    /// `acc + madd_epi16(v, w)`. Safety: [`Tier`].
    unsafe fn madd(acc: Self::I, v: Self::I, w: Self::I) -> Self::I;
    /// Lane-wise `acc + (v << sh)`, wrapping. Safety: [`Tier`].
    unsafe fn add_shl(acc: Self::I, v: Self::I, sh: u32) -> Self::I;
    /// [`super::apsq::round_shift_clamp`] per lane, `sh ≤ 30`. Safety:
    /// [`Tier`].
    unsafe fn round_shift_clamp(x: Self::I, sh: u32, lo: Self::I, hi: Self::I) -> Self::I;
    /// `dst[..W] = v`. Safety: [`Tier`].
    unsafe fn store(dst: &mut [i32], v: Self::I);
    /// `dst[..W] += v`. Safety: [`Tier`].
    unsafe fn add_store(dst: &mut [i32], v: Self::I);
    /// `y[..W] = (v << sh) as f32 · scale + bias[..W]`, multiplied then
    /// added. Safety: [`Tier`].
    unsafe fn epilogue(v: Self::I, sh: u32, scale: f32, bias: &[f32], y: &mut [f32]);

    /// `x` in every lane. Safety: [`Tier`].
    unsafe fn fsplat(x: f32) -> Self::F;
    /// `s[..LANES]`. Safety: [`Tier`].
    unsafe fn fload(s: &[f32]) -> Self::F;
    /// `dst[..LANES] = v`. Safety: [`Tier`].
    unsafe fn fstore(dst: &mut [f32], v: Self::F);
    /// Lane-wise `a + b`. Safety: [`Tier`].
    unsafe fn fadd(a: Self::F, b: Self::F) -> Self::F;
    /// Lane-wise `a · b`. Safety: [`Tier`].
    unsafe fn fmul(a: Self::F, b: Self::F) -> Self::F;
}

/// The 128-bit tier: 4 `i32` lanes, and the [`LANES`] f32 lanes as two
/// registers, lanes 0..4 and 4..8.
struct Sse2;

impl Tier for Sse2 {
    const W: usize = 4;
    const NN_VECS: usize = 1;
    type I = __m128i;
    type F = [__m128; 2];

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn splat(x: i32) -> __m128i {
        _mm_set1_epi32(x)
    }

    /// Sign-extends without SSE4.1: each byte is duplicated into a 16-bit
    /// lane, then arithmetic-shifted down. Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn load_i8_as_i16(s: &[i8]) -> __m128i {
        let s = &s[..8];
        // SAFETY: `s` holds exactly the 8 bytes loadl reads (unaligned
        // allowed).
        let v = unsafe { _mm_loadl_epi64(s.as_ptr() as *const __m128i) };
        _mm_srai_epi16::<8>(_mm_unpacklo_epi8(v, v))
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn madd(acc: __m128i, v: __m128i, w: __m128i) -> __m128i {
        _mm_add_epi32(acc, _mm_madd_epi16(v, w))
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn add_shl(acc: __m128i, v: __m128i, sh: u32) -> __m128i {
        _mm_add_epi32(acc, _mm_sll_epi32(v, _mm_cvtsi32_si128(sh as i32)))
    }

    /// Rounds the magnitude as a `u32` (`|i32::MIN|` included), restores
    /// the sign, and clamps with compare masks (SSE2 has no `i32`
    /// min/max). Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn round_shift_clamp(x: __m128i, sh: u32, lo: __m128i, hi: __m128i) -> __m128i {
        let half = _mm_set1_epi32(((1u32 << sh) >> 1) as i32);
        let s = _mm_srai_epi32::<31>(x);
        let mag = _mm_sub_epi32(_mm_xor_si128(x, s), s);
        let t = _mm_srl_epi32(_mm_add_epi32(mag, half), _mm_cvtsi32_si128(sh as i32));
        let v = _mm_sub_epi32(_mm_xor_si128(t, s), s);
        let over = _mm_cmpgt_epi32(v, hi);
        let v = _mm_or_si128(_mm_and_si128(over, hi), _mm_andnot_si128(over, v));
        let under = _mm_cmpgt_epi32(lo, v);
        _mm_or_si128(_mm_and_si128(under, lo), _mm_andnot_si128(under, v))
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn store(dst: &mut [i32], v: __m128i) {
        let dst = &mut dst[..4];
        // SAFETY: `dst` holds exactly the 4 i32 lanes stored.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, v) };
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn add_store(dst: &mut [i32], v: __m128i) {
        let dst = &mut dst[..4];
        // SAFETY: `dst` holds exactly the 4 i32 lanes loaded and stored.
        unsafe {
            let p = dst.as_mut_ptr() as *mut __m128i;
            _mm_storeu_si128(p, _mm_add_epi32(_mm_loadu_si128(p), v));
        }
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn epilogue(v: __m128i, sh: u32, scale: f32, bias: &[f32], y: &mut [f32]) {
        let (bias, y) = (&bias[..4], &mut y[..4]);
        let v = _mm_cvtepi32_ps(_mm_sll_epi32(v, _mm_cvtsi32_si128(sh as i32)));
        let v = _mm_mul_ps(v, _mm_set1_ps(scale));
        // SAFETY: `bias` and `y` hold exactly the 4 f32 lanes loaded and
        // stored.
        unsafe { _mm_storeu_ps(y.as_mut_ptr(), _mm_add_ps(v, _mm_loadu_ps(bias.as_ptr()))) };
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn fsplat(x: f32) -> [__m128; 2] {
        [_mm_set1_ps(x); 2]
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn fload(s: &[f32]) -> [__m128; 2] {
        let s = &s[..LANES];
        // SAFETY: `s` holds exactly the 8 f32 lanes of the two loads.
        unsafe { [_mm_loadu_ps(s.as_ptr()), _mm_loadu_ps(s.as_ptr().add(4))] }
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn fstore(dst: &mut [f32], [v0, v1]: [__m128; 2]) {
        let dst = &mut dst[..LANES];
        // SAFETY: `dst` holds exactly the 8 f32 lanes of the two stores.
        unsafe {
            _mm_storeu_ps(dst.as_mut_ptr(), v0);
            _mm_storeu_ps(dst.as_mut_ptr().add(4), v1);
        }
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn fadd([a0, a1]: [__m128; 2], [b0, b1]: [__m128; 2]) -> [__m128; 2] {
        [_mm_add_ps(a0, b0), _mm_add_ps(a1, b1)]
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn fmul([a0, a1]: [__m128; 2], [b0, b1]: [__m128; 2]) -> [__m128; 2] {
        [_mm_mul_ps(a0, b0), _mm_mul_ps(a1, b1)]
    }
}

/// The 256-bit tier: 8 `i32` lanes, and the [`LANES`] f32 lanes in one
/// register.
struct Avx2;

impl Tier for Avx2 {
    const W: usize = 8;
    const NN_VECS: usize = 2;
    type I = __m256i;
    type F = __m256;

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat(x: i32) -> __m256i {
        _mm256_set1_epi32(x)
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_i8_as_i16(s: &[i8]) -> __m256i {
        avx2_load16_i8_as_i16(s)
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn madd(acc: __m256i, v: __m256i, w: __m256i) -> __m256i {
        _mm256_add_epi32(acc, _mm256_madd_epi16(v, w))
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_shl(acc: __m256i, v: __m256i, sh: u32) -> __m256i {
        _mm256_add_epi32(acc, _mm256_sll_epi32(v, _mm_cvtsi32_si128(sh as i32)))
    }

    /// Rounds the magnitude as a `u32` (`|i32::MIN|` included), restores
    /// the sign, clamps. Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn round_shift_clamp(x: __m256i, sh: u32, lo: __m256i, hi: __m256i) -> __m256i {
        let half = _mm256_set1_epi32(((1u32 << sh) >> 1) as i32);
        let s = _mm256_srai_epi32::<31>(x);
        let t = _mm256_add_epi32(_mm256_abs_epi32(x), half);
        let t = _mm256_srl_epi32(t, _mm_cvtsi32_si128(sh as i32));
        let v = _mm256_sub_epi32(_mm256_xor_si256(t, s), s);
        _mm256_min_epi32(_mm256_max_epi32(v, lo), hi)
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store(dst: &mut [i32], v: __m256i) {
        let dst = &mut dst[..8];
        // SAFETY: `dst` holds exactly the 8 i32 lanes stored.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, v) };
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_store(dst: &mut [i32], v: __m256i) {
        avx2_add_store_i32(dst, v);
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn epilogue(v: __m256i, sh: u32, scale: f32, bias: &[f32], y: &mut [f32]) {
        let (bias, y) = (&bias[..8], &mut y[..8]);
        let v = _mm256_cvtepi32_ps(_mm256_sll_epi32(v, _mm_cvtsi32_si128(sh as i32)));
        let v = _mm256_mul_ps(v, _mm256_set1_ps(scale));
        // SAFETY: `bias` and `y` hold exactly the 8 f32 lanes loaded and
        // stored.
        unsafe {
            _mm256_storeu_ps(
                y.as_mut_ptr(),
                _mm256_add_ps(v, _mm256_loadu_ps(bias.as_ptr())),
            )
        };
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fsplat(x: f32) -> __m256 {
        _mm256_set1_ps(x)
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fload(s: &[f32]) -> __m256 {
        let s = &s[..LANES];
        // SAFETY: `s` holds exactly the 8 f32 lanes loaded.
        unsafe { _mm256_loadu_ps(s.as_ptr()) }
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fstore(dst: &mut [f32], v: __m256) {
        let dst = &mut dst[..LANES];
        // SAFETY: `dst` holds exactly the 8 f32 lanes stored.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) };
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fadd(a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(a, b)
    }

    /// Safety: [`Tier`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fmul(a: __m256, b: __m256) -> __m256 {
        _mm256_mul_ps(a, b)
    }
}

/// Defines one kernel's entry point on each tier: a function compiled
/// with the tier's features that runs the kernel's generic body, which is
/// `#[inline(always)]` and so compiled into it for that tier. The
/// dispatch calls an entry point only on a host with its tier.
macro_rules! entry_points {
    ($body:ident: $sse2:ident, $avx2:ident ($($arg:ident: $ty:ty),*)) => {
        #[target_feature(enable = "sse2")]
        pub(super) fn $sse2($($arg: $ty),*) {
            // SAFETY: this function runs only on a host with SSE2, which
            // is all `Sse2` needs.
            unsafe { $body::<Sse2>($($arg),*) }
        }

        #[target_feature(enable = "avx2")]
        pub(super) fn $avx2($($arg: $ty),*) {
            // SAFETY: this function runs only on a host with AVX2, which
            // is all `Avx2` needs.
            unsafe { $body::<Avx2>($($arg),*) }
        }
    };
}

entry_points!(gemm_f32: sse2_gemm_f32, avx2_gemm_f32 (
    a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32], ldo: usize,
    m: usize, n: usize, k0: usize, k1: usize
));
entry_points!(gemm_bt_f32: sse2_gemm_bt_f32, avx2_gemm_bt_f32 (
    a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32], ldo: usize,
    m: usize, n: usize, k0: usize, k1: usize
));
entry_points!(gemm_at_f32: sse2_gemm_at_f32, avx2_gemm_at_f32 (
    a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32], ldo: usize,
    i0: usize, i1: usize, n: usize, k0: usize, k1: usize
));
entry_points!(gemm_np_i8: sse2_gemm_np_i8, avx2_gemm_np_i8 (
    a: &[i8], lda: usize, b: &[i8], ldb: usize, out: &mut [i32], ldo: usize,
    m: usize, n: usize, k0: usize, k1: usize
));
entry_points!(apsq_linear_i8: sse2_apsq_linear_i8, avx2_apsq_linear_i8 (
    f: &Fused<'_>, rows: usize, out: &mut [f32], codes: &mut [i32]
));

// ======================================================== generic bodies

/// [`super::gemm_f32`] on tier `T`: [`MR`]-row register tiles of
/// `T::NN_VECS` f32 vectors per row (4×16 on AVX2), then 4×8, each
/// output element summing its own lane in `l` order with separate mul and
/// add — the scalar sequence — so no tile width can change a bit. Edges
/// run [`tail_f32`].
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn gemm_f32<T: Tier>(
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
            if T::NN_VECS == 2 {
                while j + 2 * LANES <= n {
                    nn_tile::<T, 2>(a, lda, b, ldb, out, ldo, (i, j), (kp, kq));
                    j += 2 * LANES;
                }
            }
            while j + LANES <= n {
                nn_tile::<T, 1>(a, lda, b, ldb, out, ldo, (i, j), (kp, kq));
                j += LANES;
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

/// One [`MR`]×`C·LANES` tile of [`gemm_f32`] at `(i, j)` over the K panel
/// `[kp, kq)`: each `a` value broadcast once feeds the row's `C` column
/// vectors.
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn nn_tile<T: Tier, const C: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    (i, j): (usize, usize),
    (kp, kq): (usize, usize),
) {
    let mut acc = [[T::fsplat(0.0); C]; MR];
    for l in kp..kq {
        let brow = &b[l * ldb + j..][..C * LANES];
        let mut bv = [T::fsplat(0.0); C];
        for (v, chunk) in bv.iter_mut().zip(brow.chunks_exact(LANES)) {
            *v = T::fload(chunk);
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = T::fsplat(a[(i + r) * lda + l]);
            for (x, &v) in accr.iter_mut().zip(&bv) {
                *x = T::fadd(*x, T::fmul(av, v));
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let orow = &mut out[(i + r) * ldo + j..][..C * LANES];
        for (o, &x) in orow.chunks_exact_mut(LANES).zip(accr) {
            T::fstore(o, T::fadd(T::fload(o), x));
        }
    }
}

/// [`super::gemm_bt_f32`] on tier `T`: every output element is one
/// [`dot_f32`].
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn gemm_bt_f32<T: Tier>(
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
            out[i * ldo + j] += dot_f32::<T>(arow, brow);
        }
    }
}

/// [`super::dot_f32_lanes`] with the [`LANES`] partial sums in one f32
/// vector — vector lane c is pinned lane c — and the same tail and final
/// reduction.
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn dot_f32<T: Tier>(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let full = x.len() - x.len() % LANES;
    let mut acc = T::fsplat(0.0);
    for (xs, ys) in x[..full]
        .chunks_exact(LANES)
        .zip(y[..full].chunks_exact(LANES))
    {
        acc = T::fadd(acc, T::fmul(T::fload(xs), T::fload(ys)));
    }
    let mut lanes = [0.0f32; LANES];
    T::fstore(&mut lanes, acc);
    for (c, i) in (full..x.len()).enumerate() {
        lanes[c] += x[i] * y[i];
    }
    reduce_lanes_f32(&lanes)
}

/// [`super::gemm_at_f32`] on tier `T`: each `a` value broadcast against
/// its `b` row, [`LANES`] columns a vector, the < [`LANES`] tail scalar.
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn gemm_at_f32<T: Tier>(
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
    let wide = n - n % LANES;
    for l in k0..k1 {
        let brow = &b[l * ldb..l * ldb + n];
        for i in i0..i1 {
            // No zero-skip: 0.0 * inf/NaN must still poison the gradient.
            let av = a[l * lda + i];
            let avv = T::fsplat(av);
            let orow = &mut out[(i - i0) * ldo..(i - i0) * ldo + n];
            for (o, bv) in orow[..wide]
                .chunks_exact_mut(LANES)
                .zip(brow.chunks_exact(LANES))
            {
                T::fstore(o, T::fadd(T::fload(o), T::fmul(avv, T::fload(bv))));
            }
            for (o, &bv) in orow[wide..].iter_mut().zip(&brow[wide..]) {
                *o += av * bv;
            }
        }
    }
}

/// [`super::gemm_np_i8`] on tier `T`: per staged row block
/// ([`np_passes`]), R×`2·W` madd tiles, then an R×`W` tile, then the
/// < `W` column tail through [`tail_np_i8`].
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn gemm_np_i8<T: Tier>(
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
        4 => np_strip::<T, 4>(pairs, b, ldb, out, ldo, i, n, pass),
        3 => np_strip::<T, 3>(pairs, b, ldb, out, ldo, i, n, pass),
        2 => np_strip::<T, 2>(pairs, b, ldb, out, ldo, i, n, pass),
        _ => np_strip::<T, 1>(pairs, b, ldb, out, ldo, i, n, pass),
    });
}

/// Rows `i..i + R` of [`gemm_np_i8`] over one pass.
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn np_strip<T: Tier, const R: usize>(
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
    while j + 2 * T::W <= n {
        np_tile::<T, R, 2>(pairs, b, ldb, out, ldo, (i, j), pass);
        j += 2 * T::W;
    }
    while j + T::W <= n {
        np_tile::<T, R, 1>(pairs, b, ldb, out, ldo, (i, j), pass);
        j += T::W;
    }
    tail_np_i8(pairs, R, b, ldb, out, ldo, i, (j, n), pass);
}

/// One R×`C·W` tile of [`gemm_np_i8`] at `(i, j)`: [`madd_pair`] per
/// pass pair, then each row's `C` accumulators added into `out`.
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn np_tile<T: Tier, const R: usize, const C: usize>(
    pairs: &Pairs,
    b: &[i8],
    ldb: usize,
    out: &mut [i32],
    ldo: usize,
    (i, j): (usize, usize),
    (pp, pq): (usize, usize),
) {
    let mut acc = [[T::splat(0); C]; R];
    for (t, p) in (pp..pq).enumerate() {
        let words = pairs.iter().map(|s| pair_word(s[t][0], s[t][1]));
        let bp = &b[p * ldb + 2 * j..p * ldb + 2 * (j + C * T::W)];
        madd_pair::<T, R, C>(&mut acc, bp, words);
    }
    for (r, accr) in acc.iter().enumerate() {
        let orow = &mut out[(i + r) * ldo + j..(i + r) * ldo + j + C * T::W];
        for (o, &x) in orow.chunks_exact_mut(T::W).zip(accr) {
            T::add_store(o, x);
        }
    }
}

/// One k pair of an R×`C·W` packed-B tile: the pair's `2·C·W` bytes
/// `bp`, widened to i16 once, madd'd against each row's pair word into
/// that row's `C` accumulators.
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn madd_pair<T: Tier, const R: usize, const C: usize>(
    acc: &mut [[T::I; C]; R],
    bp: &[i8],
    words: impl Iterator<Item = i32>,
) {
    let mut bv = [T::splat(0); C];
    for (v, chunk) in bv.iter_mut().zip(bp.chunks_exact(2 * T::W)) {
        *v = T::load_i8_as_i16(chunk);
    }
    for (accr, word) in acc.iter_mut().zip(words) {
        let w = T::splat(word);
        for (x, &v) in accr.iter_mut().zip(&bv) {
            *x = T::madd(*x, v, w);
        }
    }
}

/// The ring of one fused tile: ring row, tile row, the tile's codes as up
/// to two vectors.
type Ring<T> = [[[<T as Tier>::I; 2]; MR]; MAX_RING];

/// [`super::apsq_linear_i8`] on tier `T`, under the plan's `i32` proof
/// and with at most [`MAX_RING`] ring rows: R×`2·W` tiles, then an
/// R×`W` tile; the < `W` column tail runs the scalar body.
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn apsq_linear_i8<T: Tier>(f: &Fused<'_>, rows: usize, out: &mut [f32], codes: &mut [i32]) {
    let mut ring: Ring<T> = [[[T::splat(0); 2]; MR]; MAX_RING];
    let mut i = 0;
    while i < rows {
        let r = usize::min(MR, rows - i);
        match r {
            4 => fused_strip::<T, 4>(f, i, &mut ring, out, codes),
            3 => fused_strip::<T, 3>(f, i, &mut ring, out, codes),
            2 => fused_strip::<T, 2>(f, i, &mut ring, out, codes),
            _ => fused_strip::<T, 1>(f, i, &mut ring, out, codes),
        }
        i += r;
    }
    let j = f.n / T::W * T::W;
    if j < f.n {
        scalar::apsq_linear_i8(f, rows, (j, f.n), out, codes);
    }
}

/// Rows `i..i + R` of [`apsq_linear_i8`].
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn fused_strip<T: Tier, const R: usize>(
    f: &Fused<'_>,
    i: usize,
    ring: &mut Ring<T>,
    out: &mut [f32],
    codes: &mut [i32],
) {
    let mut j = 0;
    while j + 2 * T::W <= f.n {
        fused_tile::<T, R, 2>(f, (i, j), ring, out, codes);
        j += 2 * T::W;
    }
    if j + T::W <= f.n {
        fused_tile::<T, R, 1>(f, (i, j), ring, out, codes);
    }
}

/// One R×`C·W` tile at `(i, j)` through every step of the plan: the madd
/// loop of [`np_tile`] per step, the carried ring rows added shifted left,
/// the sum round-shift-clamped into the step's ring row; then the
/// epilogue on the last codes.
///
/// # Safety
///
/// The host runs `T` ([`Tier`]).
#[inline(always)]
unsafe fn fused_tile<T: Tier, const R: usize, const C: usize>(
    f: &Fused<'_>,
    (i, j): (usize, usize),
    ring: &mut Ring<T>,
    out: &mut [f32],
    codes: &mut [i32],
) {
    let plan = f.plan;
    let (lo, hi) = (T::splat(plan.qn), T::splat(plan.qp));
    for (step, w) in plan.steps.iter().zip(&plan.windows) {
        let mut acc = [[T::splat(0); C]; R];
        let b_rows = f.b[w.pair * f.ldb..].chunks_exact(f.ldb);
        for (words, b_row) in f.block::<R>(i, w).chunks_exact(R).zip(b_rows) {
            let bp = &b_row[2 * j..][..2 * C * T::W];
            madd_pair::<T, R, C>(&mut acc, bp, words.iter().copied());
        }
        for &(row, sh) in &step.carried {
            for (accr, cr) in acc.iter_mut().zip(&ring[row]) {
                for (a, &c) in accr.iter_mut().zip(cr) {
                    *a = T::add_shl(*a, c, sh);
                }
            }
        }
        // Shifts and scales are read into locals once: read through the
        // plan after each store, their vectors would be rebuilt per vector.
        let sh = step.shift;
        for (dst, accr) in ring[step.row].iter_mut().zip(&acc) {
            for (d, &a) in dst.iter_mut().zip(accr) {
                *d = T::round_shift_clamp(a, sh, lo, hi);
            }
        }
    }
    let last = &plan.steps[plan.steps.len() - 1];
    let (sh, scale) = (last.shift, f.scale);
    for (r, cr) in ring[last.row][..R].iter().enumerate() {
        for (c, &code) in cr[..C].iter().enumerate() {
            let o = (i + r) * f.n + j + T::W * c;
            let bias = &f.bias[j + T::W * c..];
            T::epilogue(code, sh, scale, bias, &mut out[o..]);
            if !codes.is_empty() {
                T::store(&mut codes[o..], code);
            }
        }
    }
}

// ========================================================== AVX2 only

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
    let query = Avx2Query::new(q, heads, k_tile);
    avx2_qk_rows(&query, keys, keys.len() / q.len(), tiles, ldt);
}

/// The most 16-column groups an [`Avx2Query`] holds the query of.
const MAX_GROUPS: usize = 64;

/// A query row prepared once for [`avx2_qk_rows`] over any number of
/// blocks. When every chunk is whole 16-column groups (`dh` and `k_tile`
/// multiples of 16), the query's even and odd bytes are staged per 32
/// columns with each group's chunk; otherwise every chunk runs
/// [`avx2_qk_chunk`].
pub(super) struct Avx2Query<'q> {
    q: &'q [i8],
    heads: usize,
    k_tile: usize,
    groups: usize,
    /// Per 32 columns: the query's even and odd bytes as i16 lanes.
    pairs: [[__m256i; 2]; MAX_GROUPS / 2],
    /// Per group: its chunk, and whether it opens it (overwrite) or adds.
    chunk: [(usize, bool); MAX_GROUPS],
}

impl<'q> Avx2Query<'q> {
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn new(q: &'q [i8], heads: usize, k_tile: usize) -> Self {
        let d = q.len();
        let dh = d / heads;
        let mut query = Avx2Query {
            q,
            heads,
            k_tile,
            groups: 0,
            pairs: [[_mm256_setzero_si256(); 2]; MAX_GROUPS / 2],
            chunk: [(0, false); MAX_GROUPS],
        };
        if !dh.is_multiple_of(16) || !k_tile.is_multiple_of(16) || d > 16 * MAX_GROUPS {
            return query;
        }
        query.groups = d / 16;
        let mut g = 0;
        for h in 0..heads {
            let (mut c, mut into) = (h, 0);
            for _ in 0..dh / 16 {
                query.chunk[g] = (c, into == 0);
                g += 1;
                into += 16;
                if into == k_tile {
                    (c, into) = (c + heads, 0);
                }
            }
        }
        for (b, qb) in query.pairs[..d.div_ceil(32)].iter_mut().enumerate() {
            let x = avx2_load_group_pair(q, 32 * b);
            *qb = [avx2_even_i8(x), _mm256_srai_epi16::<8>(x)];
        }
        query
    }

    /// Writes, or adds when the group does not open its chunk, the `v`
    /// scores of group `g` for rows `j..` into `tiles`.
    #[inline(always)]
    fn put(&self, g: usize, tiles: &mut [i32], ldt: usize, j: usize, v: &[i32]) {
        let (c, opens) = self.chunk[g];
        let dst = &mut tiles[c * ldt + j..][..v.len()];
        if opens {
            dst.copy_from_slice(v);
        } else {
            dst.iter_mut().zip(v).for_each(|(o, &x)| *o += x);
        }
    }
}

/// [`avx2_qk_block_i8`] for a prepared query over the `len` rows of
/// `keys`. With 16-column groups, there is no shuffle in the product: a
/// 32-byte load of a key row splits into its even and odd bytes, each
/// sign-extended in i16 lanes by shifts alone, and two madds against the
/// query's even and odd bytes leave lane `i` the sum of columns
/// `4i..4i + 4`, so lanes 0–3 and 4–7 are the two groups. Two levels of
/// hadd over four rows reduce each group to one score per row; a chunk
/// of several groups adds them.
#[target_feature(enable = "avx2")]
pub(super) fn avx2_qk_rows(
    query: &Avx2Query<'_>,
    keys: &[i8],
    len: usize,
    tiles: &mut [i32],
    ldt: usize,
) {
    let (q, d) = (query.q, query.q.len());
    let groups = query.groups;
    if groups == 0 {
        let dh = d / query.heads;
        for_qk_chunks(query.heads, dh, query.k_tile, |c, l0, l1| {
            avx2_qk_chunk(q, keys, &mut tiles[c * ldt..][..len], (l0, l1));
        });
        return;
    }
    let keys = &keys[..len * d];
    let mut j = 0;
    while j + 4 <= len {
        let rows = &keys[j * d..(j + 4) * d];
        for b in 0..groups.div_ceil(2) {
            let qb = query.pairs[b];
            let r0 = avx2_group_dots(&rows[..d], b, qb);
            let r1 = avx2_group_dots(&rows[d..2 * d], b, qb);
            let r2 = avx2_group_dots(&rows[2 * d..3 * d], b, qb);
            let r3 = avx2_group_dots(&rows[3 * d..], b, qb);
            let h = _mm256_hadd_epi32(_mm256_hadd_epi32(r0, r1), _mm256_hadd_epi32(r2, r3));
            let mut sums = [0i32; 8];
            // SAFETY: `sums` holds exactly the 8 i32 lanes stored.
            unsafe { _mm256_storeu_si256(sums.as_mut_ptr() as *mut __m256i, h) };
            query.put(2 * b, tiles, ldt, j, &sums[..4]);
            if 2 * b + 1 < groups {
                query.put(2 * b + 1, tiles, ldt, j, &sums[4..]);
            }
        }
        j += 4;
    }
    for (j, row) in keys.chunks_exact(d).enumerate().skip(j) {
        for b in 0..groups.div_ceil(2) {
            let mut lanes = [0i32; 8];
            let v = avx2_group_dots(row, b, query.pairs[b]);
            // SAFETY: `lanes` holds exactly the 8 i32 lanes stored.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v) };
            query.put(2 * b, tiles, ldt, j, &[lanes[..4].iter().sum()]);
            if 2 * b + 1 < groups {
                query.put(2 * b + 1, tiles, ldt, j, &[lanes[4..].iter().sum()]);
            }
        }
    }
}

/// Columns `32b..32b + 32` of `row` dotted with the query's even and odd
/// bytes `[qe, qo]` of the same columns: lane `i` sums columns
/// `32b + 4i..32b + 4i + 4`.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_group_dots(row: &[i8], b: usize, [qe, qo]: [__m256i; 2]) -> __m256i {
    let x = avx2_load_group_pair(row, 32 * b);
    let even = _mm256_madd_epi16(avx2_even_i8(x), qe);
    _mm256_add_epi32(even, _mm256_madd_epi16(_mm256_srai_epi16::<8>(x), qo))
}

/// Columns `c..c + 32` of `row` as 16 i16 lanes of byte pairs; a row
/// that ends after 16 of them leaves the high lanes zero.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_load_group_pair(row: &[i8], c: usize) -> __m256i {
    if c + 32 <= row.len() {
        let s = &row[c..c + 32];
        // SAFETY: `s` holds exactly the 32 bytes loaded.
        unsafe { _mm256_loadu_si256(s.as_ptr() as *const __m256i) }
    } else {
        let s = &row[c..c + 16];
        // SAFETY: `s` holds exactly the 16 bytes loaded.
        let lo = unsafe { _mm_loadu_si128(s.as_ptr() as *const __m128i) };
        _mm256_set_m128i(_mm_setzero_si128(), lo)
    }
}

/// The even bytes of `x`'s 16-bit lanes, sign-extended: shifted up to the
/// high byte and arithmetic-shifted back.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_even_i8(x: __m256i) -> __m256i {
    _mm256_srai_epi16::<8>(_mm256_slli_epi16::<8>(x))
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
    avx2_pv_rows(
        p,
        ldp,
        values,
        values.len() / d,
        heads,
        d / heads,
        out,
        accumulate,
    );
}

/// [`avx2_pv_block_i8`] over the `len` rows of `values` with the head
/// width `dh` given, so a caller running many blocks divides nothing per
/// block.
#[target_feature(enable = "avx2")]
pub(super) fn avx2_pv_rows(
    p: &[i8],
    ldp: usize,
    values: &[i8],
    len: usize,
    heads: usize,
    dh: usize,
    out: &mut [i32],
    accumulate: bool,
) {
    let d = heads * dh;
    for h in 0..heads {
        let o = &mut out[h * dh..][..dh];
        let ph = &p[h * ldp..][..len];
        let mut c = 0;
        while c + 4 * NR <= dh {
            let cols = &mut o[c..c + 4 * NR];
            avx2_pv_cols::<4>(ph, values, d, h * dh + c, cols, accumulate);
            c += 4 * NR;
        }
        while c + NR <= dh {
            let cols = &mut o[c..c + NR];
            avx2_pv_cols::<1>(ph, values, d, h * dh + c, cols, accumulate);
            c += NR;
        }
        if c < dh {
            if !accumulate {
                o[c..].fill(0);
            }
            for (&pj, vrow) in ph.iter().zip(values.chunks_exact(d)) {
                for (oc, &v) in o[c..].iter_mut().zip(&vrow[h * dh + c..(h + 1) * dh]) {
                    *oc += pj as i32 * v as i32;
                }
            }
        }
    }
}

/// Adds `Σ_j ph[j] · values[j · d + col + c]` into `o[c]`, or with
/// `accumulate` false stores it there, for the `C · NR` columns of `o`.
/// Rows go in pairs: the two rows' codes interleave into (row j, row
/// j + 1) i16 pairs, and one madd against the broadcast probability pair
/// gives each column's two-row sum in its own i32 lane. An odd last row
/// pairs with itself at probability zero.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_pv_cols<const C: usize>(
    ph: &[i8],
    values: &[i8],
    d: usize,
    col: usize,
    o: &mut [i32],
    accumulate: bool,
) {
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
        if accumulate {
            avx2_add_store_i32(chunk, accv);
        } else {
            let chunk = &mut chunk[..NR];
            // SAFETY: `chunk` has exactly NR = 8 i32 slots.
            unsafe { _mm256_storeu_si256(chunk.as_mut_ptr() as *mut __m256i, accv) };
        }
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

/// The AVX2 block kernels, for the row bodies' AVX2 builds.
struct Avx2Ops;

impl RowOps for Avx2Ops {
    type Query<'q> = Avx2Query<'q>;

    #[inline(always)]
    fn query(q: &[i8], heads: usize, k_tile: usize) -> Avx2Query<'_> {
        // SAFETY: only `avx2_qk_row_i8` and `avx2_pv_row_i8` instantiate
        // the row bodies with these kernels, and the dispatch reaches them
        // only on an `Avx2` backend, which exists only on hosts with AVX2.
        unsafe { Avx2Query::new(q, heads, k_tile) }
    }

    #[inline(always)]
    fn qk(query: &Avx2Query<'_>, keys: &[i8], len: usize, tiles: &mut [i32], ldt: usize) {
        // SAFETY: as in `query`.
        unsafe { avx2_qk_rows(query, keys, len, tiles, ldt) }
    }

    #[inline(always)]
    fn pv(
        p: &[i8],
        ldp: usize,
        values: &[i8],
        (len, heads, dh): (usize, usize, usize),
        out: &mut [i32],
        accumulate: bool,
    ) {
        // SAFETY: as in `query`.
        unsafe { avx2_pv_rows(p, ldp, values, len, heads, dh, out, accumulate) }
    }

    #[inline(always)]
    fn scores(acc: &[i32], scale: f32, exps: &[i8], heads: usize, h: usize, out: &mut [f32]) {
        // SAFETY: as in `query`.
        unsafe { avx2_head_scales(Some((acc, scale)), exps, heads, h, out) }
    }

    #[inline(always)]
    fn scales(exps: &[i8], heads: usize, h: usize, out: &mut [f32]) {
        // SAFETY: as in `query`.
        unsafe { avx2_head_scales(None, exps, heads, h, out) }
    }
}

/// [`rows::scores_body`] (with `acc`) or [`rows::scales_body`] (without),
/// eight tokens a pass: one gather loads the word at each token's
/// exponent byte, a shift pair sign-extends the byte, and the exponent
/// bits become `2^e` exactly as [`super::lanes::pow2_i8`] builds it — the
/// biased exponent field, or for −127 and −128 the subnormal mantissa
/// bit. The products run in the scalar order. Tokens whose 4-byte word
/// would end past `exps` take the body.
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_head_scales(
    acc: Option<(&[i32], f32)>,
    exps: &[i8],
    heads: usize,
    h: usize,
    out: &mut [f32],
) {
    let len = out.len();
    assert!(
        heads > 0 && h < heads && exps.len() >= len * heads,
        "exponents are not [{len}, {heads}] rows"
    );
    // The gather's byte offsets are i32 lanes.
    assert!(
        exps.len() <= i32::MAX as usize,
        "{} exponents overflow the gather's offsets",
        exps.len()
    );
    // Token j's word is exps[j · heads + h..][..4].
    let simd = (exps.len().saturating_sub(h + 3)).div_ceil(heads).min(len) / 8 * 8;
    let step = _mm256_set1_epi32(heads as i32);
    let mut idx = _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), step);
    idx = _mm256_add_epi32(idx, _mm256_set1_epi32(h as i32));
    let stride8 = _mm256_set1_epi32(8 * heads as i32);
    let (bias, sub_bias, one) = (
        _mm256_set1_epi32(127),
        _mm256_set1_epi32(149),
        _mm256_set1_epi32(1),
    );
    let normal_min = _mm256_set1_epi32(-127);
    for j in (0..simd).step_by(8) {
        // SAFETY: every lane's word starts at (j + i) · heads + h and ends
        // 4 bytes later, within `exps` for the `simd` tokens (bound above);
        // the gather reads nothing else.
        let w = unsafe { _mm256_i32gather_epi32::<1>(exps.as_ptr() as *const i32, idx) };
        idx = _mm256_add_epi32(idx, stride8);
        let e = _mm256_srai_epi32::<24>(_mm256_slli_epi32::<24>(w));
        let normal = _mm256_slli_epi32::<23>(_mm256_add_epi32(e, bias));
        let subnormal = _mm256_sllv_epi32(one, _mm256_add_epi32(e, sub_bias));
        let is_normal = _mm256_cmpgt_epi32(e, normal_min);
        let p = _mm256_castsi256_ps(_mm256_blendv_epi8(subnormal, normal, is_normal));
        let v = match acc {
            Some((acc, scale)) => {
                let a = &acc[j..j + 8];
                // SAFETY: `a` holds exactly the 8 i32 lanes loaded.
                let x = unsafe { _mm256_loadu_si256(a.as_ptr() as *const __m256i) };
                let x = _mm256_mul_ps(_mm256_cvtepi32_ps(x), _mm256_set1_ps(scale));
                _mm256_mul_ps(x, p)
            }
            None => p,
        };
        let o = &mut out[j..j + 8];
        // SAFETY: `o` holds exactly the 8 f32 lanes stored.
        unsafe { _mm256_storeu_ps(o.as_mut_ptr(), v) };
    }
    let tail = &exps[simd * heads..];
    match acc {
        Some((acc, scale)) => {
            rows::scores_body(&acc[simd..], scale, tail, heads, h, &mut out[simd..])
        }
        None => rows::scales_body(tail, heads, h, &mut out[simd..]),
    }
}

/// [`rows::qk_row`] built for AVX2: the fold's elementwise loops get
/// 256-bit lanes around the AVX2 block kernels.
#[target_feature(enable = "avx2")]
pub(super) fn avx2_qk_row_i8<'a>(
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
    rows::qk_row::<Avx2Ops>(q, heads, fold, scale, kv, t, scratch, scores, v_scales)
}

/// [`rows::pv_row`] built for AVX2.
#[target_feature(enable = "avx2")]
pub(super) fn avx2_pv_row_i8<'a>(
    p: &[i8],
    heads: usize,
    fold: Option<&RowFold>,
    kv: impl Iterator<Item = KvSegment<'a>>,
    t: usize,
    scratch: &mut RowScratch,
    out: &mut [i32],
) -> (u64, u64) {
    rows::pv_row::<Avx2Ops>(p, heads, fold, kv, t, scratch, out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{apsq, KernelBackend};

    /// The `i32` lanes of `v`.
    ///
    /// # Safety
    ///
    /// The host runs `T` ([`Tier`]).
    unsafe fn lanes<T: Tier>(v: T::I) -> Vec<i32> {
        let mut out = [0; 8];
        T::store(&mut out, v);
        out[..T::W].to_vec()
    }

    /// Every primitive the fused tile reaches only through whole tiles,
    /// against scalar arithmetic: the round-shift-clamp against
    /// [`apsq::round_shift_clamp`] at every shift 0..=30, on both limits,
    /// zero and the rounding boundaries `±(2^sh/2)` and `±(2^sh/2 − 1)`,
    /// at the code ranges of 1-, 4-, 8- and 32-bit codes; shift-left and
    /// the f32 epilogue; the madd on i8 pairs at −128 and 127; and the f32
    /// lanes.
    ///
    /// # Safety
    ///
    /// The host runs `T` ([`Tier`]).
    unsafe fn check_tier<T: Tier>(bk: KernelBackend) {
        for (lo, hi) in [(-1, 0), (-8, 7), (-128, 127), (i32::MIN, i32::MAX)] {
            for sh in 0..=30u32 {
                let half = (1i32 << sh) / 2;
                for x in [i32::MIN, i32::MAX, 0, half, -half, half - 1, 1 - half] {
                    let (vlo, vhi) = (T::splat(lo), T::splat(hi));
                    let got = lanes::<T>(T::round_shift_clamp(T::splat(x), sh, vlo, vhi));
                    let want = apsq::round_shift_clamp(x, sh, lo, hi);
                    assert!(
                        got.iter().all(|&g| g == want),
                        "{bk} rsc({x}, {sh}) in [{lo}, {hi}]"
                    );
                }
            }
        }
        let codes = [0, 1, -1, 127, -128, 0x1234, -0x1234, i32::MAX, i32::MIN];
        let bias: Vec<f32> = (0..T::W).map(|c| c as f32 * 0.75 - 2.0).collect();
        for &x in &codes {
            for sh in 0..=31u32 {
                let v = T::add_shl(T::splat(-3), T::splat(x), sh);
                let want = x.wrapping_shl(sh);
                let sum = lanes::<T>(v);
                assert!(
                    sum.iter().all(|&g| g == want.wrapping_sub(3)),
                    "{bk} {x} << {sh}"
                );
                let mut y = [0.0f32; 8];
                T::epilogue(T::splat(x), sh, 0.3, &bias, &mut y);
                for (c, &yc) in y[..T::W].iter().enumerate() {
                    let want = want as f32 * 0.3 + bias[c];
                    assert_eq!(yc.to_bits(), want.to_bits(), "{bk} epilogue({x} << {sh})");
                }
            }
        }
        let b: Vec<i8> = (0..2 * T::W)
            .map(|c| [-128, 127, -128, -128, 127, 127][c % 6])
            .collect();
        for (w0, w1) in [(-128, -128), (-128, 127), (127, -128), (127, 127)] {
            let acc = T::splat(-7);
            let v = T::madd(acc, T::load_i8_as_i16(&b), T::splat(pair_word(w0, w1)));
            let want: Vec<i32> = (0..T::W)
                .map(|c| {
                    -7 + i32::from(b[2 * c]) * i32::from(w0)
                        + i32::from(b[2 * c + 1]) * i32::from(w1)
                })
                .collect();
            assert_eq!(lanes::<T>(v), want, "{bk} madd ({w0}, {w1})");
        }
        let x: Vec<f32> = (0..LANES).map(|c| c as f32 * 1.37 - 4.1).collect();
        let y: Vec<f32> = (0..LANES).map(|c| 0.3 - c as f32 * 0.71).collect();
        let mut got = [0.0f32; LANES];
        let v = T::fadd(T::fmul(T::fload(&x), T::fload(&y)), T::fsplat(0.1));
        T::fstore(&mut got, v);
        let want: Vec<u32> = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a * b + 0.1).to_bits())
            .collect();
        assert_eq!(got.map(f32::to_bits).to_vec(), want, "{bk} f32 lanes");
    }

    /// Each x86 tier this host supports passes [`check_tier`].
    #[test]
    fn every_tier_matches_scalar_arithmetic() {
        for bk in KernelBackend::supported() {
            match bk {
                // SAFETY: `supported` lists only the tiers this host runs.
                KernelBackend::Sse2 => unsafe { check_tier::<Sse2>(bk) },
                // SAFETY: as above.
                KernelBackend::Avx2 => unsafe { check_tier::<Avx2>(bk) },
                KernelBackend::Scalar => {}
            }
        }
    }
}
