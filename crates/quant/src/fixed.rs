//! Saturating fixed-point helpers shared by the software golden model and
//! the bit-accurate RAE datapath.
//!
//! Everything here rounds **half away from zero**, matching `f32::round`, so
//! the float fake-quant path used in QAT and the integer shift path used in
//! hardware agree bit-for-bit.

use crate::bitwidth::QRange;
use apsq_tensor::apsq;

/// Arithmetic right shift by `sh` with round-half-away-from-zero.
///
/// `rounding_shift_right(x, sh)` equals `round(x / 2^sh)` computed without
/// leaving the integer domain ([`apsq::round_shift_clamp`] over the whole
/// `i32` range). `sh == 0` returns `x` unchanged.
///
/// # Panics
///
/// Panics if `sh > 31`.
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
    assert!(sh <= 31, "shift {sh} out of range 0..=31");
    apsq::round_shift_clamp(x, sh, i32::MIN, i32::MAX)
}

/// Left shift (`x · 2^sh`) saturating at the `i32` limits, for every
/// shift ([`apsq::shl_saturate`]).
pub fn saturating_shift_left(x: i32, sh: u32) -> i32 {
    apsq::shl_saturate(x, sh)
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
/// shift-quantize step performed by the RAE quantization shifter
/// ([`apsq::round_shift_clamp`]).
///
/// # Panics
///
/// Panics if `sh > 31`.
pub fn shift_quantize(x: i32, sh: u32, range: QRange) -> i32 {
    assert!(sh <= 31, "shift {sh} out of range 0..=31");
    apsq::round_shift_clamp(x, sh, range.qn, range.qp)
}

/// `code · 2^sh` — the RAE dequantization shifter. Saturates at `i32`.
pub fn shift_dequantize(code: i32, sh: u32) -> i32 {
    apsq::shl_saturate(code, sh)
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
        // Past 32 every nonzero value saturates: no i64 wrap.
        assert_eq!(saturating_shift_left(1 << 30, 40), i32::MAX);
        assert_eq!(saturating_shift_left(3, 62), i32::MAX);
        assert_eq!(shift_dequantize(-2, 62), i32::MIN);
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

    /// The step's slice quantizer is the scalar map at every shift.
    #[test]
    fn quantize_slice_matches_scalar_map() {
        let xs = awkward_i32();
        for bits in [Bitwidth::INT8, Bitwidth::new(4), Bitwidth::new(16)] {
            let r = bits.signed_range();
            for sh in 0u32..=31 {
                let mut out = vec![0; xs.len()];
                apsq::quantize(&xs, sh, (r.qn, r.qp), &mut out);
                let want: Vec<i32> = xs.iter().map(|&x| shift_quantize(x, sh, r)).collect();
                assert_eq!(out, want, "sh={sh}");
            }
        }
    }

    /// The step's slice dequantizer and both paths of its carried-row
    /// fold are the scalar map.
    #[test]
    fn dequantize_slice_and_add_match_scalar() {
        let r = Bitwidth::INT8.signed_range();
        let codes: Vec<i32> = (-128..=127).collect();
        for sh in [0u32, 1, 4, 15, 22, 24, 25, 30] {
            let mut out = codes.clone();
            apsq::dequantize(&mut out, sh, (r.qn, r.qp));
            let want: Vec<i32> = codes.iter().map(|&c| shift_dequantize(c, sh)).collect();
            assert_eq!(out, want, "sh={sh}");
        }
        // The i32 fold on 8-bit codes, up to the largest shift whose sum
        // stays in range, and the i64 fold past it.
        for sh in [0u32, 1, 4, 15, 22, 30] {
            let acc: Vec<i32> = (0..codes.len() as i32).map(|i| i * 1000 - 7).collect();
            let want: Vec<i32> = acc
                .iter()
                .zip(&codes)
                .map(|(&a, &c)| a as i64 + shift_dequantize(c, sh) as i64)
                .map(|v| v.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
                .collect();
            let mut got = acc.clone();
            apsq::fold(&mut got, 1, |_| (&codes[..], sh), (r.qn, r.qp));
            assert_eq!(got, want, "sh={sh}");
        }
    }
}
