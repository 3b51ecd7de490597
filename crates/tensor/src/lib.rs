//! Dense tensor substrate for the APSQ reproduction.
//!
//! This crate provides the numeric foundation used by every other crate in
//! the workspace:
//!
//! - [`Tensor`] — a dense, row-major `f32` tensor with eager elementwise ops,
//!   reductions, and random initialization;
//! - [`ExecEngine`] — the parallel tiled execution engine behind every
//!   GEMM/conv: cache-blocked micro-kernels dispatched over a scoped thread
//!   pool, bit-identical results for any thread count. Every product is
//!   one strided [`Gemm`] descriptor (layout, leading dimensions, batch
//!   strides, K range, accumulate-or-overwrite) run by
//!   [`ExecEngine::gemm`]; [`ExecEngine::gemm_k_tiles`] splits the
//!   reduction axis into tiles and streams the partial-sum (PSUM) tiles
//!   the APSQ algorithm quantizes;
//! - [`Int8Tensor`] / [`Int32Tensor`] — the exact integer operands of the
//!   bit-accurate hardware path;
//! - [`KernelBackend`] — the explicit-width SIMD micro-kernel tiers
//!   (scalar reference, SSE2, AVX2) behind the engine, runtime-detected
//!   and bit-identical to each other by construction;
//! - [`lanes`] — elementwise i32 slice kernels (the APSQ fold's lanes)
//!   under the same dispatch.
//!
//! # Example
//!
//! ```
//! use apsq_tensor::{ExecEngine, Gemm, Layout, Tensor};
//!
//! let eng = ExecEngine::serial();
//! let a = Tensor::ones([4, 8]);
//! let b = Tensor::ones([8, 3]);
//! let full = eng.matmul(&a, &b);
//!
//! // The PSUM tiles along K sum back to the full product (paper eq. 8).
//! let g = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
//! let mut acc = Tensor::zeros([4, 3]);
//! eng.gemm_k_tiles(&g, 2, |_, t| acc = &acc + t);
//! assert_eq!(acc, full);
//! ```

#![warn(missing_docs)]

mod activation;
mod conv;
mod exec;
mod init;
mod int_tensor;
mod kernels;
mod matmul;
mod reduce;
mod shape;
mod tensor;

pub use activation::{
    gelu, gelu_grad, gelu_scalar, relu, relu_grad, sigmoid, silu, silu_grad, softmax_row_into,
    softmax_rows, softmax_rows_grad,
};
pub use conv::conv2d_i8_reference;
pub use exec::{ExecEngine, Gemm, Layout};
pub use init::{kaiming_normal, rand_uniform, randn, xavier_uniform};
pub use int_tensor::{Int32Tensor, Int8Tensor};
pub use kernels::{lanes, KernelBackend, BACKEND_ENV};
pub use reduce::{argmax_axis1, mean_axis1, sum_axis0, sum_axis1, var_axis1};
pub use shape::Shape;
pub use tensor::Tensor;
