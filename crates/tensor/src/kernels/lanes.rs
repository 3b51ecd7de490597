//! Elementwise slice kernels. Two are one stream step of Algorithm 1
//! (`apsq_core::StreamingApsq`) over the [`apsq`] step: the fold of the
//! carried code rows ([`apsq_fold_i32`]) and the quantizer that picks or
//! takes the step's shift ([`apsq_quantize_i32`]). [`quantize_i8`] is
//! the workspace's one f32 → i8 quantizer: the fused APSQ linear kernel's
//! input, [`crate::Int8Tensor::quantize`], the int8 KV rows and the int8
//! attention's Q codes and requantization; [`div_mul_max_abs_f32`] is that
//! attention's softmax divide fused with the value-scale fold.
//! [`exp_f32`] and [`tanh_f32`] are the workspace's `exp` and `tanh` (the
//! softmax's and GELU's): a scalar body and an AVX2+FMA build of each,
//! bit-identical, that the [`KernelBackend`] dispatch picks between.
//!
//! Each kernel has one body, written as plain scalar Rust. The
//! [`KernelBackend::Avx2`] tier compiles that same body inside a
//! `#[target_feature(enable = "avx2")]` wrapper, so the autovectorizer
//! emits 256-bit lanes; every other tier runs the body as is. The
//! quantizer is the exception: its AVX2 tier is an explicit intrinsic
//! build, which an exhaustive sweep pins to the body on every input (the
//! body itself rounds without libm, so it vectorizes on every tier). The
//! integer bodies are exact, the f32 bodies evaluate one IEEE expression
//! per element, and the one f32 reduction is a maximum, which no
//! evaluation order changes, so the tiers cannot disagree. The
//! process-wide [`KernelBackend::detect`] picks the tier, which makes the
//! [`crate::BACKEND_ENV`] override force the portable build; inside
//! [`crate::ExecEngine::apsq_linear`] the quantizer follows the engine's
//! own backend instead.

use super::{apsq, KernelBackend};

/// Defines the public kernel `$name` over the `#[inline(always)]` body
/// `$body`, and `$avx2`, the body built for AVX2, which `$name` runs when
/// the detected backend is [`KernelBackend::Avx2`].
macro_rules! lane_kernel {
    ($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?
        => $body:ident, $avx2:ident;) => {
        $(#[$doc])*
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if KernelBackend::detect() == KernelBackend::Avx2 {
                // SAFETY: `detect` yields Avx2 only after
                // `is_x86_feature_detected!("avx2")` confirmed the feature.
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }
    };
}

lane_kernel! {
    /// A stream step's fold ([`apsq::fold`] over codes of `range`):
    /// `input = tile` plus the carried code rows `ring[r · w..][..w]`
    /// (`w = tile.len()`) dequantized at `shifts[r]`, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not as long as `tile`, or `ring` holds fewer
    /// than `shifts.len()` rows.
    pub fn apsq_fold_i32(tile: &[i32], ring: &[i32], shifts: &[u32], range: (i32, i32), input: &mut [i32])
        => apsq_fold_body, apsq_fold_avx2;
}

lane_kernel! {
    /// A stream step's codes `out` ([`apsq::quantize`] of `xs`) at `shift`,
    /// or at the [`apsq::covering_shift`] of `xs` when `None`; returns the
    /// shift used.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the shift exceeds 31.
    pub fn apsq_quantize_i32(xs: &[i32], shift: Option<u32>, range: (i32, i32), out: &mut [i32]) -> u32
        => apsq_quantize_body, apsq_quantize_avx2;
}

/// `out[j] = clamp(round(xs[j] / scale), −128, 127)` as `i8`, rounding
/// half away from zero (NaN maps to 0, like `as i8`): the workspace's one
/// f32 → i8 quantizer. The AVX2 tier runs an explicit intrinsic build
/// (`x86::avx2_quantize_i8`), bit-identical to the body on every input.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn quantize_i8(xs: &[f32], scale: f32, out: &mut [i8]) {
    super::quantize_i8(KernelBackend::detect(), xs, scale, out);
}

lane_kernel! {
    /// `xs[j] = xs[j] / d · scales[j]`, divided then multiplied, returning
    /// the largest `|xs[j]|` afterwards (0 when empty; NaN is skipped, as
    /// by `f32::max`).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn div_mul_max_abs_f32(xs: &mut [f32], d: f32, scales: &[f32]) -> f32
        => div_mul_max_abs_body, div_mul_max_abs_avx2;
}

/// `xs[j] = e^xs[j]`, in place: glibc 2.36's `expf`, bit for bit, on
/// every backend and host.
pub fn exp_f32(xs: &mut [f32]) {
    super::exp_f32(KernelBackend::detect(), xs);
}

/// `xs[j] = tanh xs[j]`, in place: fdlibm's `tanhf`, bit for bit, on
/// every backend and host.
pub fn tanh_f32(xs: &mut [f32]) {
    super::tanh_f32(KernelBackend::detect(), xs);
}

#[inline(always)]
fn div_mul_max_abs_body(xs: &mut [f32], d: f32, scales: &[f32]) -> f32 {
    /// Independent running maxima: a maximum ignores order, so folding
    /// them at the end equals the sequential fold, and they vectorize.
    const W: usize = 8;
    assert_eq!(xs.len(), scales.len(), "input/scale length mismatch");
    let mut m = [0.0f32; W];
    let mut x_chunks = xs.chunks_exact_mut(W);
    let mut s_chunks = scales.chunks_exact(W);
    for (x8, s8) in (&mut x_chunks).zip(&mut s_chunks) {
        for ((x, &s), m) in x8.iter_mut().zip(s8).zip(&mut m) {
            *x = *x / d * s;
            *m = m.max(x.abs());
        }
    }
    let tail = x_chunks.into_remainder().iter_mut();
    for (x, &s) in tail.zip(s_chunks.remainder()) {
        *x = *x / d * s;
        m[0] = m[0].max(x.abs());
    }
    m.into_iter().fold(0.0, f32::max)
}

/// `2^e` as an f32, exact for every `i8` exponent: `e ≥ −126` sets the
/// f32 exponent field, and −127 and −128 set the subnormal mantissa bit
/// `2^(e + 149)`. The int8 attention's per-(token, head) KV scales; a
/// select of two integer expressions, so it vectorizes.
#[inline(always)]
pub(super) const fn pow2_i8(e: i8) -> f32 {
    let e = e as i32;
    let bits = if e >= -126 {
        ((e + 127) as u32) << 23
    } else {
        1u32 << (e + 149)
    };
    f32::from_bits(bits)
}

#[inline(always)]
fn apsq_fold_body(
    tile: &[i32],
    ring: &[i32],
    shifts: &[u32],
    range: (i32, i32),
    input: &mut [i32],
) {
    input.copy_from_slice(tile);
    let w = tile.len();
    apsq::fold(
        input,
        shifts.len(),
        |r| (&ring[r * w..][..w], shifts[r]),
        range,
    );
}

#[inline(always)]
fn apsq_quantize_body(xs: &[i32], shift: Option<u32>, range: (i32, i32), out: &mut [i32]) -> u32 {
    let sh = shift.unwrap_or_else(|| apsq::covering_shift(apsq::max_abs(xs), range.1));
    apsq::quantize(xs, sh, range, out);
    sh
}

/// The body of [`quantize_i8`], also its AVX2 build's `< 8`-lane tail.
#[inline(always)]
pub(super) fn quantize_i8_body(xs: &[f32], scale: f32, out: &mut [i8]) {
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = round_to_i8(x / scale);
    }
}

/// `y.round().clamp(−128.0, 127.0) as i8` without the libm `round` call,
/// so the body vectorizes on every tier. Bit-identical for every input:
/// after clamping to `[−129, 128]`, `y − trunc(y)` is exact, and rounding
/// the magnitude half away from zero is one compare per sign; a NaN stays
/// NaN through the clamp, truncates to 0 and fails both compares.
#[inline(always)]
fn round_to_i8(y: f32) -> i8 {
    let c = y.clamp(-129.0, 128.0);
    let t = c as i32;
    let f = c - t as f32;
    let r = t + i32::from(f >= 0.5) - i32::from(f <= -0.5);
    r.clamp(-128, 127) as i8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zeros, small values of both signs, rounding boundaries, the
    /// extremes, and a pseudo-random spread — longer than any vector
    /// width, with a ragged tail.
    fn awkward() -> Vec<i32> {
        let mut v = vec![0, 1, -1, 2, -2, 3, -3, 127, -128, 4095, -4096];
        v.extend([i32::MAX, i32::MIN, i32::MAX - 1, i32::MIN + 1]);
        v.extend((0..61).map(|i| (i * 2654435761u32 as i64 % 400_003) as i32 - 200_000));
        v
    }

    /// One build of the two stream-step kernels against the portable
    /// bodies on awkward inputs: folds of one to three carried rows at
    /// shifts that keep the `i32` bound and that break it, and
    /// quantization at every shift and covering.
    fn check_build(
        fold: impl Fn(&[i32], &[i32], &[u32], (i32, i32), &mut [i32]),
        quantize: impl Fn(&[i32], Option<u32>, (i32, i32), &mut [i32]) -> u32,
    ) {
        let xs = awkward();
        let w = xs.len();
        let ring: Vec<i32> = (0..3 * w as i32).map(|i| i % 256 - 128).collect();
        for shifts in [&[0u32][..], &[3, 7], &[12, 22, 5], &[30], &[24, 24, 24]] {
            let (mut got, mut want) = (vec![0; w], vec![0; w]);
            fold(&xs, &ring, shifts, (-128, 127), &mut got);
            apsq_fold_body(&xs, &ring, shifts, (-128, 127), &mut want);
            assert_eq!(got, want, "fold at {shifts:?}");
        }
        for sh in (0..=30).map(Some).chain([None]) {
            let (mut got, mut want) = (vec![0; w], vec![0; w]);
            let g = quantize(&xs, sh, (-128, 127), &mut got);
            let e = apsq_quantize_body(&xs, sh, (-128, 127), &mut want);
            assert_eq!((g, got), (e, want), "quantize at {sh:?}");
        }
    }

    /// The dispatched kernels (whatever tier this host detects) and, on
    /// an AVX2 host, the AVX2 builds called directly — so a run with the
    /// scalar tier forced still checks them — equal the portable bodies.
    #[test]
    fn every_build_matches_the_portable_bodies() {
        check_build(apsq_fold_i32, apsq_quantize_i32);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            check_build(
                // SAFETY: this host has AVX2 (detected just above).
                |t, ring, sh, range, input| unsafe { apsq_fold_avx2(t, ring, sh, range, input) },
                // SAFETY: as above.
                |xs, sh, range, out| unsafe { apsq_quantize_avx2(xs, sh, range, out) },
            );
        }
    }

    /// Both builds of the quantizer equal the portable body on ties,
    /// clamps, signed zeros, subnormals, infinities and NaN, at several
    /// power-of-two scales.
    #[test]
    fn quantize_builds_match_the_portable_body() {
        let mut xs = vec![
            0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 127.49, 127.5, -128.5,
        ];
        xs.extend([
            -129.0,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]);
        xs.extend([f32::MIN_POSITIVE / 4.0, 0.49999997, -0.49999997]);
        xs.extend((0..61).map(|i| (i as f32 * 0.7311).sin() * 300.0));
        for scale in [0.25f32, 1.0, 8.0, 2f32.powi(-20)] {
            let mut want = vec![0i8; xs.len()];
            quantize_i8_body(&xs, scale, &mut want);
            let mut got = vec![0i8; xs.len()];
            quantize_i8(&xs, scale, &mut got);
            assert_eq!(got, want, "dispatched, scale {scale}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: this host has AVX2 (detected just above).
                unsafe { super::super::x86::avx2_quantize_i8(&xs, scale, &mut got) };
                assert_eq!(got, want, "avx2, scale {scale}");
            }
        }
        let mut out = [0i8; 4];
        quantize_i8(&[2.5, -2.5, 300.0, -0.4], 1.0, &mut out);
        assert_eq!(out, [3, -3, 127, 0]);
    }

    /// The body is `round` then clamp, bit for bit: every half-integer
    /// boundary in and past the code range with its float neighbours, the
    /// special values, and a strided walk over every bit-pattern class.
    #[test]
    fn quantize_body_is_round_then_clamp() {
        let want = |x: f32| x.round().clamp(-128.0, 127.0) as i8;
        let mut xs = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-45,
            -1e-45,
        ];
        for k in -140i32..=140 {
            for base in [k as f32, k as f32 + 0.5, k as f32 - 0.5, k as f32 + 0.25] {
                xs.extend([base, base.next_up(), base.next_down()]);
            }
        }
        xs.extend((0..=u32::MAX).step_by(65_521).map(f32::from_bits));
        let mut got = vec![0i8; xs.len()];
        quantize_i8_body(&xs, 1.0, &mut got);
        for (x, g) in xs.iter().zip(&got) {
            assert_eq!(*g, want(*x), "x={x:e} ({:#x})", x.to_bits());
        }
    }

    /// Both builds of the attention glue kernel equal the portable body,
    /// and the divide and value-scale fold returns what a
    /// sequential `f32::max` fold over the scaled values does, on ragged
    /// lengths with NaN, infinities, signed zeros and subnormals.
    #[test]
    fn attention_glue_builds_match_the_portable_bodies() {
        let mut xs: Vec<f32> = vec![0.0, -0.0, f32::NAN, 1e-40, -3.5, f32::INFINITY, 2.0];
        xs.extend((0..53).map(|i| (i as f32 * 0.377).cos() * 0.9));
        let scales: Vec<f32> = (0..xs.len()).map(|i| 2f32.powi(i as i32 % 7 - 3)).collect();
        for len in [0, 1, 7, 8, 9, 31, xs.len()] {
            let want_xs: Vec<f32> = xs[..len]
                .iter()
                .zip(&scales)
                .map(|(x, s)| x / 3.0 * s)
                .collect();
            let want_max = want_xs.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let mut got = xs[..len].to_vec();
            let max = div_mul_max_abs_f32(&mut got, 3.0, &scales[..len]);
            assert_eq!(max.to_bits(), want_max.to_bits(), "len {len}");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want_xs), "len {len}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut got = xs[..len].to_vec();
                // SAFETY: this host has AVX2 (detected just above).
                let max = unsafe { div_mul_max_abs_avx2(&mut got, 3.0, &scales[..len]) };
                assert_eq!(max.to_bits(), want_max.to_bits(), "avx2 len {len}");
                assert_eq!(bits(&got), bits(&want_xs), "avx2 len {len}");
            }
        }
    }

    /// The KV exponent staging gives `2^e` for all 256 `i8` exponents,
    /// the two subnormal ones included, bit for bit as `exp2` does.
    #[test]
    fn pow2_staging_is_exact_for_every_exponent() {
        assert_eq!(pow2_i8(-128).to_bits(), 1 << 21, "2^-128 = 2^21 · 2^-149");
        for e in i8::MIN..=i8::MAX {
            assert_eq!(pow2_i8(e).to_bits(), (e as f32).exp2().to_bits(), "2^{e}");
        }
    }

    #[test]
    fn rounding_is_half_away_from_zero_and_clamped() {
        let mut out = [0; 6];
        let sh = apsq_quantize_i32(
            &[5, -5, 4, -4, 1 << 20, -(1 << 20)],
            Some(1),
            (-128, 127),
            &mut out,
        );
        assert_eq!((sh, out), (1, [3, -3, 2, -2, 127, -128]));
    }

    #[test]
    fn saturating_shift_clamps_at_the_limits() {
        // A fold that breaks the i32 bound saturates each dequantized code
        // and clamps the sum.
        let mut out = [0; 3];
        apsq_fold_i32(&[0, 0, -1], &[127, -128, -2], &[30], (-128, 127), &mut out);
        assert_eq!(out, [i32::MAX, i32::MIN, i32::MIN]);
    }
}
