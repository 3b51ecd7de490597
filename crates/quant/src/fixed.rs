//! Saturating fixed-point helpers shared by the software golden model and
//! the bit-accurate RAE datapath.
//!
//! Everything here rounds **half away from zero**, matching `f32::round`, so
//! the float fake-quant path used in QAT and the integer shift path used in
//! hardware agree bit-for-bit.

use crate::bitwidth::QRange;
use apsq_tensor::lanes;

/// Arithmetic right shift by `sh` with round-half-away-from-zero.
///
/// `rounding_shift_right(x, sh)` equals `round(x / 2^sh)` computed without
/// leaving the integer domain. `sh == 0` returns `x` unchanged.
///
/// The intermediate sum is formed in `i64`, so no input can overflow.
///
/// # Examples
///
/// ```
/// use apsq_quant::rounding_shift_right;
///
/// assert_eq!(rounding_shift_right(5, 1), 3);   // 2.5 → 3
/// assert_eq!(rounding_shift_right(-5, 1), -3); // −2.5 → −3
/// assert_eq!(rounding_shift_right(4, 1), 2);
/// ```
pub fn rounding_shift_right(x: i32, sh: u32) -> i32 {
    if sh == 0 {
        return x;
    }
    debug_assert!(sh < 63, "shift {sh} out of range");
    let add = 1i64 << (sh - 1);
    let wide = x as i64;
    let r = if wide >= 0 {
        (wide + add) >> sh
    } else {
        -((-wide + add) >> sh)
    };
    r as i32
}

/// Left shift (`x · 2^sh`) saturating at the `i32` limits.
pub fn saturating_shift_left(x: i32, sh: u32) -> i32 {
    if sh == 0 {
        return x;
    }
    let wide = (x as i64) << sh.min(62);
    wide.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// Saturating addition clamped into an arbitrary code range.
///
/// This is the RAE accumulator behaviour: adders saturate at the PSUM
/// precision rather than wrapping.
pub fn saturating_add_in_range(a: i32, b: i32, range: QRange) -> i32 {
    let wide = a as i64 + b as i64;
    wide.clamp(range.qn as i64, range.qp as i64) as i32
}

/// `round(x / 2^sh)` followed by clamping into `range` — the complete
/// shift-quantize step performed by the RAE quantization shifter.
pub fn shift_quantize(x: i32, sh: u32, range: QRange) -> i32 {
    range.clamp_i32(rounding_shift_right(x, sh))
}

/// `code · 2^sh` — the RAE dequantization shifter. Saturates at `i32`.
pub fn shift_dequantize(code: i32, sh: u32) -> i32 {
    saturating_shift_left(code, sh)
}

// ------------------------------------------------------------------ slices
//
// Slice forms of the shift quantizer for whole PSUM tiles: the APSQ fold
// runs them inside the GEMM K loop. They run on the branch-free
// `apsq_tensor::lanes` kernels, which vectorize (AVX2 when detected), and
// each is bit-identical to mapping its scalar twin over the slice (pinned
// by unit tests).

/// Maps [`shift_quantize`] over a slice of exact i32 PSUMs into `out`,
/// branch-free for every shift a [`crate::Pow2Scale`] can hold
/// (`sh ≤ 30`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn shift_quantize_slice(xs: &[i32], sh: u32, range: QRange, out: &mut [i32]) {
    assert_eq!(xs.len(), out.len(), "input/code length mismatch");
    if sh <= 30 {
        lanes::round_shift_clamp_i32(xs, sh, range.qn, range.qp, out);
    } else {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = shift_quantize(x, sh, range);
        }
    }
}

/// Adds the dequantized codes into an i32 accumulator
/// (`acc[j] += codes[j] · 2^sh`) — the de-accumulation of Algorithm 1
/// lines 4–6 in 32-bit lanes, for callers that have proven no product or
/// sum leaves i32 (the APSQ stream checks `max|tile| + Σ 2^(bits−1)·2^sh
/// ≤ i32::MAX` before taking this lane). An overflow-checked build
/// panics on a broken proof instead of wrapping
/// ([`lanes::shl_add_i32`]).
///
/// # Panics
///
/// Panics if the slices differ in length or `sh > 30`.
pub fn shift_dequantize_add(codes: &[i32], sh: u32, acc: &mut [i32]) {
    lanes::shl_add_i32(codes, sh, acc);
}

/// Maps [`shift_dequantize`] over a slice into `out`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn shift_dequantize_slice(codes: &[i32], sh: u32, out: &mut [i32]) {
    lanes::shl_saturate_i32(codes, sh, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitwidth::Bitwidth;

    #[test]
    fn rounding_matches_f64_round() {
        for sh in 0u32..8 {
            for x in -1000i32..1000 {
                let expect = ((x as f64) / f64::from(1u32 << sh)).round() as i32;
                assert_eq!(rounding_shift_right(x, sh), expect, "x={x}, sh={sh}");
            }
        }
    }

    #[test]
    fn rounding_extremes() {
        assert_eq!(rounding_shift_right(i32::MAX, 31), 1);
        assert_eq!(rounding_shift_right(i32::MIN, 31), -1);
        assert_eq!(rounding_shift_right(i32::MIN, 0), i32::MIN);
    }

    #[test]
    fn saturating_left_shift() {
        assert_eq!(saturating_shift_left(1, 3), 8);
        assert_eq!(saturating_shift_left(i32::MAX, 1), i32::MAX);
        assert_eq!(saturating_shift_left(i32::MIN, 1), i32::MIN);
        assert_eq!(saturating_shift_left(-3, 2), -12);
    }

    #[test]
    fn saturating_add() {
        let r = Bitwidth::INT8.signed_range();
        assert_eq!(saturating_add_in_range(100, 100, r), 127);
        assert_eq!(saturating_add_in_range(-100, -100, r), -128);
        assert_eq!(saturating_add_in_range(3, 4, r), 7);
    }

    #[test]
    fn shift_quant_dequant_round_trip_small_codes() {
        let r = Bitwidth::INT8.signed_range();
        for code in -128i32..=127 {
            let x = shift_dequantize(code, 4); // exact: code * 16
            assert_eq!(shift_quantize(x, 4, r), code);
        }
    }

    /// Awkward i32 values for the slice-vs-scalar equivalence sweeps:
    /// zeros, small values of both signs, rounding-boundary magnitudes,
    /// and the extremes.
    fn awkward_i32() -> Vec<i32> {
        let mut v = vec![0, 1, -1, 7, -8, 100, -100, 4095, -4096, 123456, -123457];
        v.extend([i32::MAX, i32::MIN, i32::MAX - 1, i32::MIN + 1]);
        v.extend((0..40).map(|i| (i * 2654435761u32 as i64 % 400_003) as i32 - 200_000));
        v
    }

    #[test]
    fn quantize_slice_matches_scalar_map() {
        let xs = awkward_i32();
        let mut out = vec![0; xs.len()];
        for bits in [Bitwidth::INT8, Bitwidth::new(4), Bitwidth::new(16)] {
            let r = bits.signed_range();
            for sh in 0u32..=32 {
                shift_quantize_slice(&xs, sh, r, &mut out);
                let want: Vec<i32> = xs.iter().map(|&x| shift_quantize(x, sh, r)).collect();
                assert_eq!(out, want, "sh={sh}");
            }
        }
    }

    #[test]
    fn dequantize_slice_and_add_match_scalar() {
        let codes: Vec<i32> = awkward_i32();
        let mut out = vec![0; codes.len()];
        for sh in [0u32, 1, 4, 15, 30] {
            shift_dequantize_slice(&codes, sh, &mut out);
            let want: Vec<i32> = codes.iter().map(|&c| shift_dequantize(c, sh)).collect();
            assert_eq!(out, want, "sh={sh}");
        }
        // The i32 lane on 8-bit codes, up to the largest shift whose sum
        // stays in range.
        let codes: Vec<i32> = (-128..=127).collect();
        for sh in [0u32, 1, 4, 15, 22] {
            let mut acc: Vec<i32> = (0..codes.len() as i32).map(|i| i * 1000 - 7).collect();
            let want: Vec<i32> = acc
                .iter()
                .zip(&codes)
                .map(|(&a, &c)| a + shift_dequantize(c, sh))
                .collect();
            shift_dequantize_add(&codes, sh, &mut acc);
            assert_eq!(acc, want, "sh={sh}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dequantize_add_rejects_length_mismatch() {
        let mut acc = vec![0i32; 3];
        shift_dequantize_add(&[1, 2], 0, &mut acc);
    }
}
