//! Elementwise slice kernels. Four are the `i32` lanes of the APSQ fold
//! (`apsq_core::StreamingApsq`): an abs-max, a shifted de-accumulate, the
//! rounding right shift with clamp that quantizes, and the saturating left
//! shift that dequantizes. The first three also come in a segmented form
//! (`*_segments_i32`) that splits the slice into equal segments, each with
//! its own shift or maximum, so a stream folding several independent
//! tiles side by side makes one call per operation, not one per tile.
//! [`quantize_i8`] is the workspace's one f32 → i8 quantizer: the fused
//! APSQ linear kernel's input, [`crate::Int8Tensor::quantize`], the int8
//! KV rows and the int8 attention's Q codes and requantization;
//! [`scale_i32_f32`] and [`div_mul_max_abs_f32`] are
//! that attention's score dequantization and its softmax divide fused
//! with the value-scale fold, and [`pow2_heads_f32`] stages its
//! per-(token, head) KV exponents as head-major scales. [`exp_f32`] and
//! [`tanh_f32`] are the workspace's `exp` and `tanh` (the softmax's and
//! GELU's): a scalar body and an AVX2+FMA build of each, bit-identical,
//! that the [`KernelBackend`] dispatch picks between.
//!
//! Each kernel has one body, written as plain scalar Rust. The
//! [`KernelBackend::Avx2`] tier compiles that same body inside a
//! `#[target_feature(enable = "avx2")]` wrapper, so the autovectorizer
//! emits 256-bit lanes; every other tier runs the body as is. The
//! quantizer is the exception: its AVX2 tier is an explicit intrinsic
//! build, which an exhaustive sweep pins to the body on every input (the
//! body itself rounds without libm, so it vectorizes on every tier). The
//! integer bodies are exact, the f32 bodies evaluate one
//! IEEE expression per element (the exponent staging is a table lookup),
//! and the one f32 reduction is a maximum,
//! which no evaluation order changes, so the tiers cannot disagree. The
//! process-wide [`KernelBackend::detect`] picks the tier, which makes the
//! [`crate::BACKEND_ENV`] override force the portable build; inside
//! [`crate::ExecEngine::apsq_linear`] the quantizer follows the engine's
//! own backend instead.

use super::KernelBackend;

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
    /// The largest `|x|` in `xs` (0 when empty), as a `u32` so
    /// `|i32::MIN|` is exact.
    pub fn max_abs_i32(xs: &[i32]) -> u32 => max_abs_body, max_abs_avx2;
}

lane_kernel! {
    /// `acc[j] += codes[j] · 2^sh` in 32-bit lanes, for callers that have
    /// proven no product or sum leaves `i32`. The product is a multiply,
    /// not a shift, so an overflow-checked build panics on a broken proof
    /// instead of wrapping; an optimized build lowers it to a shift.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or `sh > 30`.
    pub fn shl_add_i32(codes: &[i32], sh: u32, acc: &mut [i32]) => shl_add_body, shl_add_avx2;
}

lane_kernel! {
    /// `out[j] = clamp(round(xs[j] / 2^sh), lo, hi)`, rounding half away
    /// from zero without a sign branch: take the sign mask, round the
    /// magnitude (`|x| + 2^(sh−1)` cannot overflow a `u32` for
    /// `sh ≤ 30`), restore the sign.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or `sh > 30`.
    pub fn round_shift_clamp_i32(xs: &[i32], sh: u32, lo: i32, hi: i32, out: &mut [i32])
        => round_shift_clamp_body, round_shift_clamp_avx2;
}

lane_kernel! {
    /// `out[j] = codes[j] · 2^sh`, saturating at the `i32` limits.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn shl_saturate_i32(codes: &[i32], sh: u32, out: &mut [i32])
        => shl_saturate_body, shl_saturate_avx2;
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
    /// [`max_abs_i32`] of each of the `out.len()` segments of `w`
    /// elements that make up `xs`: `out[g]` is the largest `|x|` in
    /// segment `g` (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not `out.len()` segments of `w` elements.
    pub fn max_abs_segments_i32(xs: &[i32], w: usize, out: &mut [u32])
        => max_abs_segments_body, max_abs_segments_avx2;
}

lane_kernel! {
    /// [`shl_add_i32`] over `shifts.len()` segments of `w` elements:
    /// segment `g` of `acc` gains segment `g` of `codes` times
    /// `2^shifts[g]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are not `shifts.len()`
    /// segments of `w` elements, or a shift exceeds 30.
    pub fn shl_add_segments_i32(codes: &[i32], w: usize, shifts: &[u32], acc: &mut [i32])
        => shl_add_segments_body, shl_add_segments_avx2;
}

lane_kernel! {
    /// [`round_shift_clamp_i32`] over `shifts.len()` segments of `w`
    /// elements, each rounded at its own shift.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are not `shifts.len()`
    /// segments of `w` elements, or a shift exceeds 30.
    pub fn round_shift_clamp_segments_i32(xs: &[i32], w: usize, shifts: &[u32], lo: i32, hi: i32, out: &mut [i32])
        => round_shift_clamp_segments_body, round_shift_clamp_segments_avx2;
}

lane_kernel! {
    /// `out[j] = xs[j] as f32 · s · scales[j]`, multiplied left to right.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn scale_i32_f32(xs: &[i32], s: f32, scales: &[f32], out: &mut [f32])
        => scale_i32_f32_body, scale_i32_f32_avx2;
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

lane_kernel! {
    /// Stages `[len, heads]` token-major power-of-two exponents as
    /// head-major scales: `out[h · ldo + j] = 2^exps[j · heads + h]` for
    /// the `len = exps.len() / heads` rows, each looked up in a 256-entry
    /// table. Every `i8` exponent is exact: `e ≥ −126` sets the f32
    /// exponent field, and −127 and −128 set the subnormal mantissa bit
    /// `2^(e + 149)`.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is 0, `exps` is not whole rows of `heads`, or
    /// `out` ends before the last head's row.
    pub fn pow2_heads_f32(exps: &[i8], heads: usize, out: &mut [f32], ldo: usize)
        => pow2_heads_body, pow2_heads_avx2;
}

/// Checks that `len` elements are `segments` segments of `w`; false when
/// they are empty, so callers skip the (zero-width) segment walk.
#[inline(always)]
fn has_segments(len: usize, w: usize, segments: usize) -> bool {
    assert_eq!(
        len,
        w * segments,
        "{len} elements are not {segments} segments of {w}"
    );
    w > 0
}

#[inline(always)]
fn max_abs_segments_body(xs: &[i32], w: usize, out: &mut [u32]) {
    if !has_segments(xs.len(), w, out.len()) {
        out.fill(0);
        return;
    }
    // One segment is the plain kernel: it keeps the plain kernel's code.
    if let [o] = out {
        *o = max_abs_body(xs);
        return;
    }
    // Index arithmetic, not `chunks_exact`, which divides by `w`.
    for (g, o) in out.iter_mut().enumerate() {
        *o = max_abs_body(&xs[g * w..][..w]);
    }
}

#[inline(always)]
fn shl_add_segments_body(codes: &[i32], w: usize, shifts: &[u32], acc: &mut [i32]) {
    assert_eq!(codes.len(), acc.len(), "code/accumulator length mismatch");
    if !has_segments(codes.len(), w, shifts.len()) {
        return;
    }
    if let [sh] = shifts {
        return shl_add_body(codes, *sh, acc);
    }
    for (g, &sh) in shifts.iter().enumerate() {
        shl_add_body(&codes[g * w..][..w], sh, &mut acc[g * w..][..w]);
    }
}

#[inline(always)]
fn round_shift_clamp_segments_body(
    xs: &[i32],
    w: usize,
    shifts: &[u32],
    lo: i32,
    hi: i32,
    out: &mut [i32],
) {
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    if !has_segments(xs.len(), w, shifts.len()) {
        return;
    }
    if let [sh] = shifts {
        return round_shift_clamp_body(xs, *sh, lo, hi, out);
    }
    for (g, &sh) in shifts.iter().enumerate() {
        round_shift_clamp_body(&xs[g * w..][..w], sh, lo, hi, &mut out[g * w..][..w]);
    }
}

#[inline(always)]
fn scale_i32_f32_body(xs: &[i32], s: f32, scales: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), scales.len(), "input/scale length mismatch");
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    for ((o, &x), &c) in out.iter_mut().zip(xs).zip(scales) {
        *o = x as f32 * s * c;
    }
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

/// `2^e` as an f32, exact for every `i8` exponent (see
/// [`pow2_heads_f32`]).
const fn pow2_i8(e: i8) -> f32 {
    let e = e as i32;
    let bits = if e >= -126 {
        ((e + 127) as u32) << 23
    } else {
        1u32 << (e + 149)
    };
    f32::from_bits(bits)
}

/// [`pow2_i8`] of every `i8`, indexed by `e as u8`.
static POW2_I8: [f32; 256] = {
    let mut table = [0.0f32; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = pow2_i8(i as u8 as i8);
        i += 1;
    }
    table
};

#[inline(always)]
fn pow2_heads_body(exps: &[i8], heads: usize, out: &mut [f32], ldo: usize) {
    assert!(heads > 0, "no heads to stage");
    assert_eq!(
        exps.len() % heads,
        0,
        "{} exponents are not rows of {heads} heads",
        exps.len()
    );
    let len = exps.len() / heads;
    if len == 0 {
        return;
    }
    let need = (heads - 1) * ldo + len;
    assert!(
        out.len() >= need,
        "{} scale slots, {need} needed",
        out.len()
    );
    for h in 0..heads {
        let row = &mut out[h * ldo..][..len];
        for (o, erow) in row.iter_mut().zip(exps.chunks_exact(heads)) {
            *o = POW2_I8[erow[h] as u8 as usize];
        }
    }
}

#[inline(always)]
fn max_abs_body(xs: &[i32]) -> u32 {
    xs.iter().fold(0, |m, x| m.max(x.unsigned_abs()))
}

#[inline(always)]
fn shl_add_body(codes: &[i32], sh: u32, acc: &mut [i32]) {
    assert_eq!(codes.len(), acc.len(), "code/accumulator length mismatch");
    assert!(sh <= 30, "shift {sh} out of range 0..=30");
    let step = 1i32 << sh;
    for (a, &c) in acc.iter_mut().zip(codes) {
        *a += c * step;
    }
}

#[inline(always)]
pub(super) fn round_shift_clamp_body(xs: &[i32], sh: u32, lo: i32, hi: i32, out: &mut [i32]) {
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    assert!(sh <= 30, "shift {sh} out of range 0..=30");
    // Branch once per slice, not per element, so both loops vectorize.
    if sh == 0 {
        out.iter_mut()
            .zip(xs)
            .for_each(|(o, &x)| *o = x.clamp(lo, hi));
        return;
    }
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = round_shift_clamp(x, sh, lo, hi);
    }
}

/// One element of [`round_shift_clamp_i32`] (`sh ≤ 30`).
#[inline(always)]
pub(super) fn round_shift_clamp(x: i32, sh: u32, lo: i32, hi: i32) -> i32 {
    if sh == 0 {
        return x.clamp(lo, hi);
    }
    let s = x >> 31; // 0 for x ≥ 0, −1 for x < 0
    let t = ((x.unsigned_abs() + (1 << (sh - 1))) >> sh) as i32;
    ((t ^ s) - s).clamp(lo, hi)
}

#[inline(always)]
fn shl_saturate_body(codes: &[i32], sh: u32, out: &mut [i32]) {
    assert_eq!(codes.len(), out.len(), "code/output length mismatch");
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = shl_saturate(c, sh);
    }
}

/// One element of [`shl_saturate_i32`], also the fused APSQ linear body's
/// dequantizer.
#[inline(always)]
pub(super) fn shl_saturate(code: i32, sh: u32) -> i32 {
    ((code as i64) << sh.min(62)).clamp(i32::MIN as i64, i32::MAX as i64) as i32
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

    /// One build of the four kernels.
    struct Build {
        max_abs: fn(&[i32]) -> u32,
        shl_add: fn(&[i32], u32, &mut [i32]),
        round: fn(&[i32], u32, i32, i32, &mut [i32]),
        saturate: fn(&[i32], u32, &mut [i32]),
    }

    /// `build` against the portable bodies on awkward inputs at every
    /// shift.
    fn check_build(build: &Build) {
        let xs = awkward();
        let codes: Vec<i32> = (0..xs.len() as i32).map(|i| i % 256 - 128).collect();
        assert_eq!((build.max_abs)(&xs), max_abs_body(&xs));
        assert_eq!((build.max_abs)(&[]), 0);
        for sh in 0..=30 {
            let (mut got, mut want) = (vec![0; xs.len()], vec![0; xs.len()]);
            (build.round)(&xs, sh, -128, 127, &mut got);
            round_shift_clamp_body(&xs, sh, -128, 127, &mut want);
            assert_eq!(got, want, "round sh={sh}");
            (build.saturate)(&codes, sh, &mut got);
            shl_saturate_body(&codes, sh, &mut want);
            assert_eq!(got, want, "saturate sh={sh}");
            if sh <= 22 {
                let base: Vec<i32> = (0..xs.len() as i32).map(|i| i * 1000 - 7).collect();
                let (mut got, mut want) = (base.clone(), base);
                (build.shl_add)(&codes, sh, &mut got);
                shl_add_body(&codes, sh, &mut want);
                assert_eq!(got, want, "add sh={sh}");
            }
        }
    }

    /// The dispatched kernels (whatever tier this host detects) and, on
    /// an AVX2 host, the AVX2 builds called directly — so a run with the
    /// scalar tier forced still checks them — equal the portable bodies.
    #[test]
    fn every_build_matches_the_portable_bodies() {
        check_build(&Build {
            max_abs: max_abs_i32,
            shl_add: shl_add_i32,
            round: round_shift_clamp_i32,
            saturate: shl_saturate_i32,
        });
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            check_build(&Build {
                // SAFETY: this host has AVX2 (detected just above).
                max_abs: |xs| unsafe { max_abs_avx2(xs) },
                // SAFETY: as above.
                shl_add: |c, sh, acc| unsafe { shl_add_avx2(c, sh, acc) },
                // SAFETY: as above.
                round: |xs, sh, lo, hi, out| unsafe { round_shift_clamp_avx2(xs, sh, lo, hi, out) },
                // SAFETY: as above.
                saturate: |c, sh, out| unsafe { shl_saturate_avx2(c, sh, out) },
            });
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

    /// Both builds of the attention glue kernels equal the portable
    /// bodies, and the divide and value-scale fold returns what a
    /// sequential `f32::max` fold over the scaled values does, on ragged
    /// lengths with NaN, infinities, signed zeros and subnormals.
    #[test]
    fn attention_glue_builds_match_the_portable_bodies() {
        let mut xs: Vec<f32> = vec![0.0, -0.0, f32::NAN, 1e-40, -3.5, f32::INFINITY, 2.0];
        xs.extend((0..53).map(|i| (i as f32 * 0.377).cos() * 0.9));
        let scales: Vec<f32> = (0..xs.len()).map(|i| 2f32.powi(i as i32 % 7 - 3)).collect();
        let ints = awkward();
        let int_scales: Vec<f32> = (0..ints.len())
            .map(|i| 2f32.powi(i as i32 % 9 - 20))
            .collect();
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
            let n = len.min(ints.len());
            let mut want = vec![0.0f32; n];
            scale_i32_f32_body(&ints[..n], 0.125, &int_scales[..n], &mut want);
            let mut got = vec![0.0f32; n];
            scale_i32_f32(&ints[..n], 0.125, &int_scales[..n], &mut got);
            assert_eq!(bits(&got), bits(&want), "len {len}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut got = xs[..len].to_vec();
                // SAFETY: this host has AVX2 (detected just above).
                let max = unsafe { div_mul_max_abs_avx2(&mut got, 3.0, &scales[..len]) };
                assert_eq!(max.to_bits(), want_max.to_bits(), "avx2 len {len}");
                assert_eq!(bits(&got), bits(&want_xs), "avx2 len {len}");
                let mut got = vec![0.0f32; n];
                // SAFETY: as above.
                unsafe { scale_i32_f32_avx2(&ints[..n], 0.125, &int_scales[..n], &mut got) };
                assert_eq!(bits(&got), bits(&want), "avx2 len {len}");
            }
        }
    }

    /// The segmented kernels, dispatched and (on an AVX2 host) as AVX2
    /// builds, equal the unsegmented bodies applied segment by segment,
    /// at one, three and seven segments with a distinct shift each.
    #[test]
    fn segmented_builds_match_per_segment_bodies() {
        let mut xs = awkward();
        xs.push(5); // 77 = 7 · 11 elements
        let codes: Vec<i32> = (0..77).map(|i| i % 256 - 128).collect();
        type Seg = (
            fn(&[i32], usize, &mut [u32]),
            fn(&[i32], usize, &[u32], &mut [i32]),
            fn(&[i32], usize, &[u32], i32, i32, &mut [i32]),
        );
        let mut builds: Vec<Seg> = vec![(
            max_abs_segments_i32,
            shl_add_segments_i32,
            round_shift_clamp_segments_i32,
        )];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            builds.push((
                // SAFETY: this host has AVX2 (detected just above).
                |xs, w, out| unsafe { max_abs_segments_avx2(xs, w, out) },
                // SAFETY: as above.
                |c, w, sh, acc| unsafe { shl_add_segments_avx2(c, w, sh, acc) },
                // SAFETY: as above.
                |xs, w, sh, lo, hi, out| unsafe {
                    round_shift_clamp_segments_avx2(xs, w, sh, lo, hi, out)
                },
            ));
        }
        for (max_abs, shl_add, round) in builds {
            for segments in [1usize, 7, 11] {
                let w = xs.len() / segments;
                let shifts: Vec<u32> = (0..segments as u32).map(|g| g * 4 % 23).collect();
                let mut got = vec![0u32; segments];
                max_abs(&xs, w, &mut got);
                let want: Vec<u32> = xs.chunks(w).map(max_abs_body).collect();
                assert_eq!(got, want, "max_abs, {segments} segments");
                let (mut got, mut want) = (vec![0; xs.len()], vec![0; xs.len()]);
                round(&xs, w, &shifts, -128, 127, &mut got);
                for ((x, o), &sh) in xs.chunks(w).zip(want.chunks_mut(w)).zip(&shifts) {
                    round_shift_clamp_body(x, sh, -128, 127, o);
                }
                assert_eq!(got, want, "round, {segments} segments");
                let base: Vec<i32> = (0..xs.len() as i32).map(|i| i * 1000 - 7).collect();
                let (mut got, mut want) = (base.clone(), base);
                shl_add(&codes, w, &shifts, &mut got);
                for ((c, a), &sh) in codes.chunks(w).zip(want.chunks_mut(w)).zip(&shifts) {
                    shl_add_body(c, sh, a);
                }
                assert_eq!(got, want, "shl_add, {segments} segments");
            }
            let mut out = [9u32; 3];
            max_abs(&[], 0, &mut out);
            assert_eq!(out, [0; 3], "empty segments");
        }
    }

    /// Every build of the exponent staging gives `2^e` for all 256 `i8`
    /// exponents, the two subnormal ones included, bit for bit as `exp2`
    /// does, and lands each head's scales in its own row, leaving the
    /// rest of `out` alone.
    #[test]
    fn pow2_staging_is_exact_for_every_exponent() {
        let exps: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        assert_eq!(POW2_I8[128].to_bits(), 1 << 21, "2^-128 = 2^21 · 2^-149");
        type Stage = fn(&[i8], usize, &mut [f32], usize);
        let mut builds: Vec<Stage> = vec![pow2_heads_f32, pow2_heads_body];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: this host has AVX2 (detected just above).
            builds.push(|e, h, out, ldo| unsafe { pow2_heads_avx2(e, h, out, ldo) });
        }
        // Head counts 1 to 4 and row counts with and without an
        // 8-row tail.
        for (heads, rows) in [(4, 64), (1, 256), (2, 128), (4, 61), (2, 13), (3, 85)] {
            let exps = &exps[..heads * rows];
            let ldo = rows + 3;
            let want: Vec<u32> = (0..heads * ldo)
                .map(|i| match (i / ldo, i % ldo) {
                    (h, j) if j < rows => (exps[j * heads + h] as f32).exp2().to_bits(),
                    _ => 7.0f32.to_bits(),
                })
                .collect();
            for stage in &builds {
                let mut out = vec![7.0f32; heads * ldo];
                stage(exps, heads, &mut out, ldo);
                let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{heads} heads, {rows} rows");
            }
        }
    }

    #[test]
    #[should_panic(expected = "are not 2 segments of 2")]
    fn segments_must_cover_the_slice() {
        max_abs_segments_i32(&[1, 2, 3], 2, &mut [0; 2]);
    }

    #[test]
    fn rounding_is_half_away_from_zero_and_clamped() {
        let mut out = [0; 6];
        round_shift_clamp_i32(&[5, -5, 4, -4, 1 << 20, -(1 << 20)], 1, -128, 127, &mut out);
        assert_eq!(out, [3, -3, 2, -2, 127, -128]);
    }

    #[test]
    fn saturating_shift_clamps_at_the_limits() {
        let mut out = [0; 3];
        shl_saturate_i32(&[127, -128, -2], 30, &mut out);
        assert_eq!(out, [i32::MAX, i32::MIN, i32::MIN]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shl_add_rejects_length_mismatch() {
        shl_add_i32(&[1, 2], 0, &mut [0; 3]);
    }
}
