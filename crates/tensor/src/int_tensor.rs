//! Integer tensors for the bit-accurate hardware path.
//!
//! In the paper's W8A8 setting, weights and activations are `i8`, a MAC
//! product is `i16`, and partial sums (PSUMs) accumulate in `i32`
//! (Section II-A: a depth-`Ci` accumulation needs `16 + log2(Ci)` bits).

use crate::shape::Shape;
use std::fmt;

macro_rules! int_tensor {
    ($(#[$meta:meta])* $name:ident, $elem:ty) => {
        $(#[$meta])*
        #[derive(Clone, PartialEq, Eq)]
        pub struct $name {
            data: Vec<$elem>,
            shape: Shape,
        }

        impl $name {
            /// Creates a tensor from raw data and a shape.
            ///
            /// # Panics
            ///
            /// Panics if `data.len() != shape.numel()`.
            pub fn from_vec<S: Into<Shape>>(data: Vec<$elem>, shape: S) -> Self {
                let shape = shape.into();
                assert_eq!(
                    data.len(),
                    shape.numel(),
                    "data length {} does not match shape {}",
                    data.len(),
                    shape
                );
                Self { data, shape }
            }

            /// Creates a zero-filled tensor.
            pub fn zeros<S: Into<Shape>>(shape: S) -> Self {
                let shape = shape.into();
                Self { data: vec![0; shape.numel()], shape }
            }

            /// The shape of the tensor.
            pub fn shape(&self) -> &Shape {
                &self.shape
            }

            /// The extents of the tensor.
            pub fn dims(&self) -> &[usize] {
                self.shape.dims()
            }

            /// The number of elements.
            pub fn numel(&self) -> usize {
                self.shape.numel()
            }

            /// Borrow of the underlying row-major storage.
            pub fn data(&self) -> &[$elem] {
                &self.data
            }

            /// Mutable borrow of the underlying row-major storage.
            pub fn data_mut(&mut self) -> &mut [$elem] {
                &mut self.data
            }

            /// Consumes the tensor and returns the underlying storage.
            pub fn into_vec(self) -> Vec<$elem> {
                self.data
            }

            /// Value at a multi-index.
            ///
            /// # Panics
            ///
            /// Panics if the index is out of bounds or the wrong rank.
            pub fn at(&self, index: &[usize]) -> $elem {
                self.data[self.shape.offset(index)]
            }

            /// Sets the value at a multi-index.
            ///
            /// # Panics
            ///
            /// Panics if the index is out of bounds or the wrong rank.
            pub fn set(&mut self, index: &[usize], value: $elem) {
                let off = self.shape.offset(index);
                self.data[off] = value;
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.numel() <= 16 {
                    write!(f, "{}({}, {:?})", stringify!($name), self.shape, self.data)
                } else {
                    write!(
                        f,
                        "{}({}, [{}, .., {}])",
                        stringify!($name),
                        self.shape,
                        self.data[0],
                        self.data[self.data.len() - 1]
                    )
                }
            }
        }
    };
}

int_tensor!(
    /// A dense row-major `i8` tensor: quantized weights and activations.
    Int8Tensor,
    i8
);

int_tensor!(
    /// A dense row-major `i32` tensor: exact partial sums / accumulators.
    Int32Tensor,
    i32
);

impl Int32Tensor {
    /// Elementwise wrapping addition of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn wrapping_add(&self, other: &Int32Tensor) -> Int32Tensor {
        assert_eq!(self.shape, other.shape, "wrapping_add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a.wrapping_add(b))
            .collect();
        Int32Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Elementwise checked addition; returns `None` on any i32 overflow.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn checked_add(&self, other: &Int32Tensor) -> Option<Int32Tensor> {
        assert_eq!(self.shape, other.shape, "checked_add: shape mismatch");
        let mut data = Vec::with_capacity(self.data.len());
        for (&a, &b) in self.data.iter().zip(other.data.iter()) {
            data.push(a.checked_add(b)?);
        }
        Some(Int32Tensor {
            data,
            shape: self.shape.clone(),
        })
    }

    /// Widens to `f32` for comparisons against the float reference path.
    pub fn to_f32(&self) -> crate::tensor::Tensor {
        crate::tensor::Tensor::from_vec(
            self.data.iter().map(|&v| v as f32).collect(),
            self.shape.clone(),
        )
    }
}

impl Int8Tensor {
    /// Widens to `i32`.
    pub fn to_i32(&self) -> Int32Tensor {
        Int32Tensor::from_vec(
            self.data.iter().map(|&v| v as i32).collect(),
            self.shape.clone(),
        )
    }

    /// Quantizes a float tensor to i8 codes at a per-tensor power-of-two
    /// scale: `q = clamp(round(x / scale), −128, 127)` — exactly the
    /// rounding the fake-quant training path applies, so codes and
    /// fake-quantized values stay on the same lattice.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive power of two.
    pub fn quantize(x: &crate::tensor::Tensor, scale: f32) -> Int8Tensor {
        assert_pow2(scale);
        let mut codes = vec![0i8; x.data().len()];
        crate::lanes::quantize_i8(x.data(), scale, &mut codes);
        Int8Tensor::from_vec(codes, x.shape().clone())
    }

    /// Dequantizes the codes back to floats: `x̃ = q · scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive power of two.
    pub fn dequantize(&self, scale: f32) -> crate::tensor::Tensor {
        assert_pow2(scale);
        crate::tensor::Tensor::from_vec(
            self.data.iter().map(|&v| v as f32 * scale).collect(),
            self.shape.clone(),
        )
    }

    /// Relative L2 error of the quantize→dequantize round trip of `x` at a
    /// per-tensor power-of-two scale — the one-liner benches and tests
    /// previously hand-rolled.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive power of two.
    pub fn roundtrip_rel_error(x: &crate::tensor::Tensor, scale: f32) -> f32 {
        let back = Int8Tensor::quantize(x, scale).dequantize(scale);
        rel_l2_error(x, &back)
    }
}

impl Int32Tensor {
    /// Quantizes a float tensor to i32 codes at a per-tensor power-of-two
    /// scale (round + saturate to the i32 range).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive power of two.
    pub fn quantize(x: &crate::tensor::Tensor, scale: f32) -> Int32Tensor {
        assert_pow2(scale);
        Int32Tensor::from_vec(
            x.data()
                .iter()
                .map(|&v| (v / scale).round().clamp(i32::MIN as f32, i32::MAX as f32) as i32)
                .collect(),
            x.shape().clone(),
        )
    }

    /// Dequantizes the codes back to floats: `x̃ = q · scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive power of two.
    pub fn dequantize(&self, scale: f32) -> crate::tensor::Tensor {
        assert_pow2(scale);
        crate::tensor::Tensor::from_vec(
            self.data.iter().map(|&v| v as f32 * scale).collect(),
            self.shape.clone(),
        )
    }

    /// Relative L2 error of the i32 quantize→dequantize round trip at a
    /// per-tensor power-of-two scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive power of two.
    pub fn roundtrip_rel_error(x: &crate::tensor::Tensor, scale: f32) -> f32 {
        let back = Int32Tensor::quantize(x, scale).dequantize(scale);
        rel_l2_error(x, &back)
    }
}

/// Shared pow2-scale validation for the round-trip helpers.
fn assert_pow2(scale: f32) {
    assert!(
        scale > 0.0 && scale.is_finite() && scale.log2().fract() == 0.0,
        "scale {scale} is not a positive power of two"
    );
}

/// `‖x − y‖₂ / max(‖x‖₂, ε)`.
fn rel_l2_error(x: &crate::tensor::Tensor, y: &crate::tensor::Tensor) -> f32 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&a, &b) in x.data().iter().zip(y.data().iter()) {
        num += ((a - b) as f64).powi(2); // lint: allow(float-reduction-outside-kernels) -- diagnostic norm, fixed zip order, single-threaded
        den += (a as f64).powi(2); // lint: allow(float-reduction-outside-kernels) -- diagnostic norm, fixed zip order, single-threaded
    }
    (num.sqrt() / den.sqrt().max(1e-12)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecEngine, Gemm, Layout};

    fn int8_matmul(a: &Int8Tensor, b: &Int8Tensor) -> Int32Tensor {
        ExecEngine::serial().int8_matmul(a, b)
    }

    #[test]
    fn exact_matmul() {
        let a = Int8Tensor::from_vec(vec![1, -2, 3, 4], [2, 2]);
        let b = Int8Tensor::from_vec(vec![5, 6, -7, 8], [2, 2]);
        let c = int8_matmul(&a, &b);
        assert_eq!(
            c.data(),
            &[5 + -2 * -7, 6 + -2 * 8, 3 * 5 + 4 * -7, 3 * 6 + 4 * 8]
        );
    }

    #[test]
    fn psum_tiles_sum_to_exact() {
        let a = Int8Tensor::from_vec((0..6 * 16).map(|x| (x % 17) as i8 - 8).collect(), [6, 16]);
        let b = Int8Tensor::from_vec((0..16 * 4).map(|x| (x % 11) as i8 - 5).collect(), [16, 4]);
        let exact = int8_matmul(&a, &b);
        let g = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
        for k_tile in [1, 3, 4, 8, 16, 32] {
            let mut acc = Int32Tensor::zeros([6, 4]);
            ExecEngine::serial().gemm_k_tiles(&g, k_tile, |_, t| {
                acc = acc.checked_add(t).unwrap();
            });
            assert_eq!(acc, exact, "k_tile={k_tile}");
        }
    }

    #[test]
    fn extreme_values_no_overflow() {
        // Worst case |product| = 128 * 128 = 16384; depth 512 ⇒ |sum| ≤ 2^23.
        let a = Int8Tensor::from_vec(vec![-128i8; 512], [1, 512]);
        let b = Int8Tensor::from_vec(vec![-128i8; 512], [512, 1]);
        let c = int8_matmul(&a, &b);
        assert_eq!(c.data()[0], 512 * 16384);
    }

    #[test]
    fn roundtrip_matches_fake_quant_lattice() {
        let x = crate::tensor::Tensor::from_vec(vec![0.3, -0.8, 100.0, -0.05], [4]);
        let q = Int8Tensor::quantize(&x, 0.5);
        assert_eq!(q.data(), &[1, -2, 127, 0]);
        assert_eq!(q.dequantize(0.5).data(), &[0.5, -1.0, 63.5, 0.0]);
        // In-range values round-trip within half a step.
        let err = Int8Tensor::roundtrip_rel_error(
            &crate::tensor::Tensor::from_vec(vec![0.3, -0.8, 1.9], [3]),
            0.5,
        );
        assert!(err > 0.0 && err < 0.2, "{err}");
        // Exact lattice points round-trip losslessly.
        let exact = crate::tensor::Tensor::from_vec(vec![1.0, -2.5, 3.5], [3]);
        assert_eq!(Int8Tensor::roundtrip_rel_error(&exact, 0.5), 0.0);
        assert_eq!(Int32Tensor::roundtrip_rel_error(&exact, 0.5), 0.0);
        assert_eq!(Int32Tensor::quantize(&exact, 0.5).data(), &[2, -5, 7]);
    }

    #[test]
    #[should_panic(expected = "not a positive power of two")]
    fn non_pow2_scale_rejected() {
        Int8Tensor::quantize(&crate::tensor::Tensor::zeros([1]), 0.3);
    }

    #[test]
    fn checked_add_detects_overflow() {
        let a = Int32Tensor::from_vec(vec![i32::MAX], [1]);
        let b = Int32Tensor::from_vec(vec![1], [1]);
        assert!(a.checked_add(&b).is_none());
        assert_eq!(a.wrapping_add(&b).data(), &[i32::MIN]);
    }
}
