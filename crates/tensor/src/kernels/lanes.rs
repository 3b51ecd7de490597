//! Elementwise `i32` slice kernels: the lanes of the APSQ fold
//! (`apsq_core::StreamingApsq`). They are an abs-max, a shifted
//! de-accumulate, the rounding right shift with clamp that quantizes, and
//! the saturating left shift that dequantizes.
//!
//! Each kernel has one body, written as plain scalar Rust. The
//! [`KernelBackend::Avx2`] tier compiles that same body inside a
//! `#[target_feature(enable = "avx2")]` wrapper, so the autovectorizer
//! emits 256-bit lanes; every other tier runs the body as is. The bodies
//! are integer-exact, so the tiers cannot disagree. The process-wide
//! [`KernelBackend::detect`] picks the tier, which makes the
//! [`crate::BACKEND_ENV`] override force the portable build.

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
fn round_shift_clamp_body(xs: &[i32], sh: u32, lo: i32, hi: i32, out: &mut [i32]) {
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    assert!(sh <= 30, "shift {sh} out of range 0..=30");
    let pairs = out.iter_mut().zip(xs);
    if sh == 0 {
        pairs.for_each(|(o, &x)| *o = x.clamp(lo, hi));
        return;
    }
    let add = 1u32 << (sh - 1);
    pairs.for_each(|(o, &x)| {
        let s = x >> 31; // 0 for x ≥ 0, −1 for x < 0
        let t = ((x.unsigned_abs() + add) >> sh) as i32;
        *o = ((t ^ s) - s).clamp(lo, hi);
    });
}

#[inline(always)]
fn shl_saturate_body(codes: &[i32], sh: u32, out: &mut [i32]) {
    const LO: i64 = i32::MIN as i64;
    const HI: i64 = i32::MAX as i64;
    assert_eq!(codes.len(), out.len(), "code/output length mismatch");
    let sh = sh.min(62);
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = ((c as i64) << sh).clamp(LO, HI) as i32;
    }
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
