//! Power-of-two scale quantization.
//!
//! The paper forces PSUM scaling factors into power-of-two form
//! (`α = 2^⌊log₂ α⌉`, learned through an STE) so that re-scaling becomes a
//! hardware shift. This module provides:
//!
//! - [`Pow2Scale`] — an exact, integer-domain shift quantizer (what the RAE
//!   shifters implement);
//! - [`Pow2LsqQuantizer`] — the float-domain QAT twin that learns a
//!   continuous `log₂ α` and snaps it to an integer through a rounding STE.

use crate::bitwidth::{Bitwidth, QRange};
use crate::fixed::{shift_dequantize, shift_quantize};
use crate::lsq::LsqQuantizer;
use apsq_tensor::Tensor;

/// A power-of-two scale `α = 2^e` with `e ≥ 0`, operating on `i32` values.
///
/// Quantization is a rounding arithmetic right shift by `e` followed by a
/// clip to the signed k-bit range; dequantization is a left shift by `e`.
/// Both match the float path `round(x / 2^e)` bit-for-bit.
///
/// # Examples
///
/// ```
/// use apsq_quant::{Bitwidth, Pow2Scale};
///
/// let s = Pow2Scale::new(4, Bitwidth::INT8);
/// assert_eq!(s.quantize(1000), 63);       // 1000 / 16 = 62.5 → 63
/// assert_eq!(s.dequantize(63), 1008);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pow2Scale {
    exp: u32,
    bits: Bitwidth,
    range: QRange,
}

impl Pow2Scale {
    /// Creates a scale `α = 2^exp` at the given signed bit-width.
    ///
    /// # Panics
    ///
    /// Panics if `exp > 30` (a shift that large is meaningless for i32
    /// PSUMs).
    pub fn new(exp: u32, bits: Bitwidth) -> Self {
        assert!(exp <= 30, "power-of-two exponent {exp} out of range 0..=30");
        Pow2Scale {
            exp,
            bits,
            range: bits.signed_range(),
        }
    }

    /// Chooses the tightest exponent so `max_abs` quantizes without
    /// clipping: the least `e ≤ 30` with `qp · 2^e ≥ |max_abs|`, or 30 when
    /// none covers it. Closed form: `qp · 2^e` shares its top bit with
    /// `|max_abs|` at `e = lz(qp) − lz(|max_abs|)`, and one compare decides
    /// whether that `e` or the next covers.
    pub fn covering(max_abs: i32, bits: Bitwidth) -> Self {
        let qp = bits.signed_range().qp as u32;
        let m = max_abs.unsigned_abs();
        let exp = if m <= qp {
            0
        } else if qp == 0 {
            30
        } else {
            let e = qp.leading_zeros() - m.leading_zeros();
            let e = e + u32::from(u64::from(qp) << e < u64::from(m));
            e.min(30)
        };
        Pow2Scale::new(exp, bits)
    }

    /// Builds the scale from a float that is an exact non-negative power
    /// of two (`1, 2, 4, …`). Returns `None` for fractional, non-pow2,
    /// or out-of-range values — the same values
    /// [`Pow2LsqQuantizer::to_pow2_scale`] rejects, since a fractional
    /// PSUM scale cannot be realized as a right shift on integer PSUMs.
    pub fn from_f32(scale: f32, bits: Bitwidth) -> Option<Self> {
        if !(scale.is_finite() && scale > 0.0) || scale.log2().fract() != 0.0 {
            return None;
        }
        let e = scale.log2();
        (0.0..=30.0)
            .contains(&e)
            .then(|| Pow2Scale::new(e as u32, bits))
    }

    /// The exponent `e` (so `α = 2^e`).
    pub fn exponent(&self) -> u32 {
        self.exp
    }

    /// The scale as a float (`2^e`).
    pub fn scale(&self) -> f32 {
        (self.exp as f32).exp2()
    }

    /// The bit-width.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// The code range.
    pub fn range(&self) -> QRange {
        self.range
    }

    /// Quantizes an exact i32 value to a k-bit code (shift + round + clip).
    pub fn quantize(&self, x: i32) -> i32 {
        shift_quantize(x, self.exp, self.range)
    }

    /// Dequantizes a code back to the i32 domain (left shift).
    pub fn dequantize(&self, code: i32) -> i32 {
        shift_dequantize(code, self.exp)
    }

    /// Quantize-then-dequantize in the integer domain.
    pub fn requantize(&self, x: i32) -> i32 {
        self.dequantize(self.quantize(x))
    }

    /// Slice form of [`Pow2Scale::quantize`] into `out` — branch-free
    /// ([`crate::shift_quantize_slice`]), bit-identical to mapping
    /// `quantize` over the slice.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn quantize_slice_into(&self, xs: &[i32], out: &mut [i32]) {
        crate::fixed::shift_quantize_slice(xs, self.exp, self.range, out);
    }

    /// Adds the dequantized codes into an i32 accumulator
    /// (`acc[j] += dequantize(codes[j])`) in 32-bit lanes; the caller
    /// proves no sum leaves i32 ([`crate::shift_dequantize_add`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn dequantize_add(&self, codes: &[i32], acc: &mut [i32]) {
        crate::fixed::shift_dequantize_add(codes, self.exp, acc);
    }

    /// Slice form of [`Pow2Scale::dequantize`] into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn dequantize_slice_into(&self, codes: &[i32], out: &mut [i32]) {
        crate::fixed::shift_dequantize_slice(codes, self.exp, out);
    }
}

/// `2^e` as an f32, built from the exponent bits — bit-identical to
/// `(e as f32).exp2()` for every `e` (an integer power of two is exactly
/// representable wherever it is normal), without the libm call. Below
/// the normal range (`e < −126`) and above it (`e > 127`) it falls back
/// to `exp2`, which rounds to the subnormal / infinity the same way.
///
/// This is how per-row power-of-two activation scales (the int8 KV-cache
/// exponents, the attention requantization scales) turn into multipliers
/// in per-element epilogues.
///
/// # Examples
///
/// ```
/// use apsq_quant::pow2_f32;
///
/// assert_eq!(pow2_f32(3), 8.0);
/// assert_eq!(pow2_f32(-2), 0.25);
/// ```
#[inline]
pub fn pow2_f32(e: i32) -> f32 {
    if (-126..=127).contains(&e) {
        f32::from_bits(((e + 127) as u32) << 23)
    } else {
        (e as f32).exp2()
    }
}

/// The tightest signed power-of-two exponent `e` such that values of
/// magnitude `max_abs` quantize to codes within `±qp` at scale `2^e`:
/// `e = ⌈log₂(max_abs / qp)⌉`, clamped to the f32-representable exponent
/// range `[-126, 126]`. Unlike [`Pow2Scale`] (integer-domain PSUM shifts,
/// `e ≥ 0`), this is the *activation* rule — per-row KV-cache scales and
/// frozen attention input scales are fractional powers of two.
///
/// `max_abs == 0` (an all-zero row) returns 0: the codes are all zero and
/// the scale is irrelevant, so the neutral exponent keeps dequantization
/// exact.
///
/// # Panics
///
/// Panics if `max_abs` is negative or not finite, or `qp` is not positive.
pub fn covering_pow2_exponent(max_abs: f32, qp: f32) -> i32 {
    assert!(
        max_abs.is_finite() && max_abs >= 0.0,
        "max_abs {max_abs} must be finite and non-negative"
    );
    assert!(qp > 0.0, "qp {qp} must be positive");
    if max_abs == 0.0 {
        return 0;
    }
    let e = (max_abs / qp).log2().ceil() as i32;
    e.clamp(-126, 126)
}

/// A QAT fake-quantizer whose step is constrained to a power of two.
///
/// Internally stores a continuous `log₂ α`; the forward pass snaps it with
/// `round` (straight-through in backward, as in the paper's use of the STE
/// for `2^⌊log₂ α⌉`). Gradients for `log₂ α` come from the LSQ rule chained
/// through `α = 2^u`: `∂α/∂u = α · ln 2`.
#[derive(Clone, Debug)]
pub struct Pow2LsqQuantizer {
    log2_step: f32,
    bits: Bitwidth,
    signed: bool,
    grad_log2: f32,
}

impl Pow2LsqQuantizer {
    /// Creates a quantizer with the given initial continuous `log₂ α`.
    pub fn new(log2_step: f32, bits: Bitwidth, signed: bool) -> Self {
        assert!(log2_step.is_finite(), "log2 step must be finite");
        Pow2LsqQuantizer {
            log2_step,
            bits,
            signed,
            grad_log2: 0.0,
        }
    }

    /// Initializes `log₂ α` from data using the LSQ rule, then takes the log.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty.
    pub fn with_init(x: &Tensor, bits: Bitwidth, signed: bool) -> Self {
        let lsq = LsqQuantizer::with_init(x, bits, signed);
        Self::new(lsq.step().log2(), bits, signed)
    }

    /// The snapped power-of-two step `2^⌊log₂ α⌉` used in the forward pass.
    pub fn effective_step(&self) -> f32 {
        self.log2_step.round().exp2()
    }

    /// The snapped integer exponent.
    pub fn effective_exponent(&self) -> i32 {
        self.log2_step.round() as i32
    }

    /// The continuous (pre-rounding) `log₂ α`.
    pub fn log2_step(&self) -> f32 {
        self.log2_step
    }

    /// The bit-width.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Fake-quantizes `x` with the snapped power-of-two step.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.as_lsq().forward(x)
    }

    /// Backward pass mirroring [`LsqQuantizer::backward`], accumulating the
    /// gradient on the continuous `log₂ α`.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `grad_out` shapes differ.
    pub fn backward(&mut self, x: &Tensor, grad_out: &Tensor) -> Tensor {
        let mut lsq = self.as_lsq();
        let grad_in = lsq.backward(x, grad_out);
        // Chain rule through α = 2^u (STE through the round): dα/du = α ln2.
        self.grad_log2 += lsq.grad_step() * self.effective_step() * std::f32::consts::LN_2;
        grad_in
    }

    /// The accumulated `log₂ α` gradient.
    pub fn grad_log2(&self) -> f32 {
        self.grad_log2
    }

    /// Applies one SGD step to `log₂ α` and clears the gradient.
    pub fn apply_grad(&mut self, lr: f32) {
        self.log2_step -= lr * self.grad_log2;
        self.grad_log2 = 0.0;
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad_log2 = 0.0;
    }

    /// Exports the exact integer-domain shift quantizer used at inference,
    /// provided the snapped exponent is non-negative.
    ///
    /// Returns `None` when `log₂ α` rounds negative (a fractional PSUM scale
    /// cannot be realized as a right shift on integer PSUMs).
    pub fn to_pow2_scale(&self) -> Option<Pow2Scale> {
        let e = self.effective_exponent();
        (0..=30)
            .contains(&e)
            .then(|| Pow2Scale::new(e as u32, self.bits))
    }

    fn as_lsq(&self) -> LsqQuantizer {
        LsqQuantizer::new(self.effective_step(), self.bits, self.signed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_built_pow2_matches_exp2_exhaustively() {
        // Every i8 exponent the KV cache can store, including the two
        // subnormal ones (−127, −128) that take the `exp2` fallback.
        for e in -128i32..=127 {
            let want = (e as f32).exp2();
            assert_eq!(pow2_f32(e).to_bits(), want.to_bits(), "e={e}");
        }
        assert!(pow2_f32(-127) > 0.0 && !pow2_f32(-127).is_normal());
    }

    #[test]
    fn shift_equivalence_with_float_path() {
        // Integer shift quantization must equal round(x / 2^e) with clip.
        for e in 0u32..12 {
            let s = Pow2Scale::new(e, Bitwidth::INT8);
            for &x in &[
                0i32,
                1,
                -1,
                5,
                -5,
                1000,
                -1000,
                123456,
                -123456,
                i32::MAX / 2,
            ] {
                let f = ((x as f64) / f64::from(1u32 << e)).round();
                let clipped = f.clamp(-128.0, 127.0) as i32;
                assert_eq!(s.quantize(x), clipped, "x={x}, e={e}");
            }
        }
    }

    #[test]
    fn covering_is_tight() {
        for &max_abs in &[100i32, 127, 128, 1000, 100_000, 1] {
            let s = Pow2Scale::covering(max_abs, Bitwidth::INT8);
            assert!(s.dequantize(127) >= max_abs - (1 << s.exponent()) / 2);
            if s.exponent() > 0 {
                let tighter = Pow2Scale::new(s.exponent() - 1, Bitwidth::INT8);
                assert!(
                    (127i64 << tighter.exponent()) < max_abs as i64,
                    "max_abs={max_abs}"
                );
            }
        }
    }

    /// The search loop `covering` replaced, kept as its oracle.
    fn covering_by_search(max_abs: i32, bits: Bitwidth) -> u32 {
        let qp = bits.signed_range().qp as i64;
        let mut exp = 0u32;
        while (qp << exp) < max_abs.unsigned_abs() as i64 && exp < 30 {
            exp += 1;
        }
        exp
    }

    #[test]
    fn covering_closed_form_matches_search_at_every_boundary() {
        for b in 2u8..=8 {
            let bits = Bitwidth::new(b);
            let qp = bits.signed_range().qp as i64;
            let mut xs = vec![0i64, 1, -1, i32::MAX as i64, i32::MIN as i64];
            for k in 0..=32 {
                let edge = qp << k;
                xs.extend([edge - 1, edge, edge + 1]);
            }
            for x in xs {
                let Ok(x) = i32::try_from(x) else { continue };
                for x in [x, x.saturating_neg()] {
                    let got = Pow2Scale::covering(x, bits).exponent();
                    assert_eq!(got, covering_by_search(x, bits), "bits={b} max_abs={x}");
                }
            }
        }
    }

    #[test]
    fn requantize_error_bounded() {
        let s = Pow2Scale::new(4, Bitwidth::INT8);
        for x in -2000i32..2000 {
            let r = s.requantize(x);
            if x.abs() <= 127 * 16 {
                assert!((r - x).abs() <= 8, "x={x}, r={r}"); // α/2
            }
        }
    }

    #[test]
    fn from_f32_accepts_only_integer_exponents() {
        assert_eq!(
            Pow2Scale::from_f32(8.0, Bitwidth::INT8),
            Some(Pow2Scale::new(3, Bitwidth::INT8))
        );
        assert_eq!(
            Pow2Scale::from_f32(1.0, Bitwidth::INT8),
            Some(Pow2Scale::new(0, Bitwidth::INT8))
        );
        assert_eq!(Pow2Scale::from_f32(0.5, Bitwidth::INT8), None);
        assert_eq!(Pow2Scale::from_f32(3.0, Bitwidth::INT8), None);
        assert_eq!(Pow2Scale::from_f32(0.0, Bitwidth::INT8), None);
        assert_eq!(Pow2Scale::from_f32(f32::NAN, Bitwidth::INT8), None);
    }

    #[test]
    fn covering_pow2_exponent_is_tight_and_covers() {
        for &(max_abs, qp) in &[
            (100.0f32, 127.0f32),
            (127.0, 127.0),
            (128.0, 127.0),
            (1.0, 127.0),
            (0.003, 127.0),
            (1.0e6, 127.0),
            (5.0, 7.0),
        ] {
            let e = covering_pow2_exponent(max_abs, qp);
            let scale = (e as f32).exp2();
            // Covers: |max_abs| quantizes without clipping.
            assert!(
                (max_abs / scale).round() <= qp,
                "max_abs={max_abs} qp={qp} e={e}"
            );
            // Tight: the next-smaller exponent would clip.
            if e > -126 {
                let tighter = ((e - 1) as f32).exp2();
                assert!(
                    max_abs / tighter > qp,
                    "max_abs={max_abs} qp={qp} e={e} not tight"
                );
            }
        }
        // All-zero rows get the neutral exponent.
        assert_eq!(covering_pow2_exponent(0.0, 127.0), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn covering_pow2_exponent_rejects_nan() {
        covering_pow2_exponent(f32::NAN, 127.0);
    }

    #[test]
    fn pow2_lsq_snaps_to_integer_exponent() {
        let q = Pow2LsqQuantizer::new(3.3, Bitwidth::INT8, true);
        assert_eq!(q.effective_step(), 8.0);
        assert_eq!(q.effective_exponent(), 3);
        assert_eq!(q.to_pow2_scale().unwrap().exponent(), 3);
    }

    #[test]
    fn pow2_lsq_negative_exponent_has_no_integer_twin() {
        let q = Pow2LsqQuantizer::new(-2.0, Bitwidth::INT8, true);
        assert!(q.to_pow2_scale().is_none());
    }

    #[test]
    fn pow2_lsq_backward_accumulates() {
        let mut q = Pow2LsqQuantizer::new(0.0, Bitwidth::new(4), true);
        let x = Tensor::from_vec(vec![100.0], [1]); // clipped at Qp
        q.backward(&x, &Tensor::ones([1]));
        assert!(q.grad_log2() > 0.0);
        let before = q.log2_step();
        q.apply_grad(0.5);
        assert!(q.log2_step() < before);
    }

    #[test]
    fn float_and_integer_paths_agree() {
        // The QAT fake-quant with α=2^e must equal the integer requantize on
        // integer-valued inputs.
        let q = Pow2LsqQuantizer::new(4.0, Bitwidth::INT8, true);
        let s = q.to_pow2_scale().unwrap();
        let xs: Vec<i32> = vec![0, 7, -7, 800, -800, 2032, -2033, 5000];
        let xt = Tensor::from_vec(xs.iter().map(|&v| v as f32).collect(), [xs.len()]);
        let yf = q.forward(&xt);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(yf.data()[i] as i32, s.requantize(x), "x={x}");
        }
    }
}
