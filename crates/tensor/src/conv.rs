//! Convolution lowering (im2col): turns spatial convolutions into the
//! GEMMs the tile-based accelerator actually executes, so conv layers in
//! the model inventories share the same PSUM path as everything else.

use crate::exec::ExecEngine;
use crate::int_tensor::{Int32Tensor, Int8Tensor};
use crate::tensor::Tensor;

impl ExecEngine {
    /// Lowers an `[C, H, W]` input into the im2col matrix
    /// `[Ho·Wo, C·K·K]` for a `K×K` / stride-`s` convolution (no padding —
    /// matching the "enlarged ifmap" convention of the analytical
    /// framework), parallelized over output rows.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank-3, `ksize == 0`, `stride == 0`, or
    /// the kernel does not fit the spatial extent.
    pub fn im2col(&self, input: &Tensor, ksize: usize, stride: usize) -> Tensor {
        let (out, rows, cols) = self.im2col_buffer(input.data(), input.dims(), ksize, stride);
        Tensor::from_vec(out, [rows, cols])
    }

    /// Shared im2col geometry + parallel fill for both element types:
    /// returns the `[rows, cols]` patch matrix as a flat buffer.
    fn im2col_buffer<T: Copy + Default + Send + Sync>(
        &self,
        data: &[T],
        dims: &[usize],
        ksize: usize,
        stride: usize,
    ) -> (Vec<T>, usize, usize) {
        assert_eq!(dims.len(), 3, "im2col expects [C, H, W]");
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        assert!(ksize > 0 && stride > 0, "degenerate kernel/stride");
        assert!(
            h >= ksize && w >= ksize,
            "kernel {ksize} does not fit {h}x{w}"
        );
        let ho = (h - ksize) / stride + 1;
        let wo = (w - ksize) / stride + 1;
        let cols = c * ksize * ksize;
        let mut out = vec![T::default(); ho * wo * cols];
        let macs = ho * wo * cols;
        self.partition_rows(&mut out, cols, ho * wo, cols, macs, &|r0, r1, chunk| {
            for row in r0..r1 {
                let (oy, ox) = (row / wo, row % wo);
                let dst = &mut chunk[(row - r0) * cols..(row - r0 + 1) * cols];
                let mut col = 0;
                for ch in 0..c {
                    for ky in 0..ksize {
                        let src = ch * h * w + (oy * stride + ky) * w + ox * stride;
                        dst[col..col + ksize].copy_from_slice(&data[src..src + ksize]);
                        col += ksize;
                    }
                }
            }
        });
        (out, ho * wo, cols)
    }

    /// Convolution via im2col + GEMM: `[C, H, W] ⊛ [Co, C, K, K]` →
    /// `[Ho·Wo, Co]` (the GEMM layout the accelerator produces; transpose
    /// of [`conv2d_i8_reference`]'s channel-major layout), both stages
    /// running through the engine. The `[Co, C·K·K]` weight rows are
    /// exactly the transposed-B operand, so no weight reshuffle is needed.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn conv2d_i8_gemm(
        &self,
        input: &Int8Tensor,
        weight: &Int8Tensor,
        stride: usize,
    ) -> Int32Tensor {
        assert_eq!(weight.dims().len(), 4, "weight must be [Co, C, K, K]");
        let (co, c, k) = (weight.dims()[0], weight.dims()[1], weight.dims()[2]);
        let (lowered, rows, cols) = self.im2col_buffer(input.data(), input.dims(), k, stride);
        assert_eq!(cols, c * k * k, "channel mismatch");
        let lowered = Int8Tensor::from_vec(lowered, [rows, cols]);
        let wmat = Int8Tensor::from_vec(weight.data().to_vec(), [co, cols]);
        self.int8_matmul_bt(&lowered, &wmat)
    }
}

/// Direct (nested-loop) integer convolution: `[C, H, W] ⊛ [Co, C, K, K]`
/// with stride `s`, producing `[Co, Ho, Wo]` in exact i32. The reference
/// that im2col+GEMM must match.
///
/// # Panics
///
/// Panics on rank/shape mismatches.
pub fn conv2d_i8_reference(input: &Int8Tensor, weight: &Int8Tensor, stride: usize) -> Int32Tensor {
    assert_eq!(input.shape().rank(), 3, "input must be [C, H, W]");
    assert_eq!(weight.shape().rank(), 4, "weight must be [Co, C, K, K]");
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (co, cw, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    assert_eq!(c, cw, "channel mismatch");
    assert_eq!(kh, kw, "only square kernels");
    let k = kh;
    let ho = (h - k) / stride + 1;
    let wo = (w - k) / stride + 1;
    let mut out = vec![0i32; co * ho * wo];
    for oc in 0..co {
        for oy in 0..ho {
            for ox in 0..wo {
                let mut acc = 0i32;
                for ch in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += input.at(&[ch, oy * stride + ky, ox * stride + kx]) as i32
                                * weight.at(&[oc, ch, ky, kx]) as i32;
                        }
                    }
                }
                out[oc * ho * wo + oy * wo + ox] = acc;
            }
        }
    }
    Int32Tensor::from_vec(out, [co, ho, wo])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(c: usize, h: usize, w: usize) -> Int8Tensor {
        Int8Tensor::from_vec(
            (0..c * h * w).map(|x| ((x * 29 + 3) % 251) as i8).collect(),
            [c, h, w],
        )
    }

    fn weight(co: usize, c: usize, k: usize) -> Int8Tensor {
        Int8Tensor::from_vec(
            (0..co * c * k * k)
                .map(|x| ((x * 53 + 1) % 241) as i8)
                .collect(),
            [co, c, k, k],
        )
    }

    #[test]
    fn im2col_shape_and_content() {
        let x = Tensor::from_vec((0..3 * 3).map(|v| v as f32).collect(), [1, 3, 3]);
        let m = ExecEngine::serial().im2col(&x, 2, 1);
        assert_eq!(m.dims(), &[4, 4]);
        // First patch is the top-left 2×2 window.
        assert_eq!(&m.data()[..4], &[0.0, 1.0, 3.0, 4.0]);
    }

    #[test]
    fn gemm_lowering_matches_direct_convolution() {
        for (c, h, k, s, co) in [
            (3usize, 8usize, 3usize, 1usize, 4usize),
            (2, 9, 3, 2, 5),
            (1, 6, 2, 2, 3),
        ] {
            let x = input(c, h, h);
            let wt = weight(co, c, k);
            let direct = conv2d_i8_reference(&x, &wt, s);
            let gemm = ExecEngine::serial().conv2d_i8_gemm(&x, &wt, s);
            let ho = (h - k) / s + 1;
            for oc in 0..co {
                for oy in 0..ho {
                    for ox in 0..ho {
                        assert_eq!(
                            gemm.at(&[oy * ho + ox, oc]),
                            direct.at(&[oc, oy, ox]),
                            "c={c} h={h} k={k} s={s} co={co} at ({oc},{oy},{ox})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pointwise_conv_is_plain_gemm() {
        // A 1×1 conv lowers to exactly the input reshaped to [H·W, C].
        let x = input(4, 5, 5);
        let (m, rows, cols) = ExecEngine::serial().im2col_buffer(x.data(), x.dims(), 1, 1);
        assert_eq!((rows, cols), (25, 4));
        for p in 0..25 {
            for ch in 0..4 {
                assert_eq!(m[p * 4 + ch], x.at(&[ch, p / 5, p % 5]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_rejected() {
        ExecEngine::serial().im2col(&Tensor::zeros([1, 2, 2]), 3, 1);
    }
}
