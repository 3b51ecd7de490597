//! Pointwise activations and row-wise softmax, with their derivatives.

use crate::kernels::{lanes, tanh_one};
use crate::tensor::Tensor;

/// Rectified linear unit, elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Derivative of [`relu`] with respect to its input, elementwise.
pub fn relu_grad(x: &Tensor) -> Tensor {
    x.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Gaussian error linear unit (tanh approximation), elementwise.
///
/// Uses the approximation from the GELU paper:
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
pub fn gelu(x: &Tensor) -> Tensor {
    through(x, gelu_inner, lanes::tanh_f32, |v, t| 0.5 * v * (1.0 + t))
}

/// Scalar GELU (tanh approximation), bit for bit one element of [`gelu`].
pub fn gelu_scalar(v: f32) -> f32 {
    0.5 * v * (1.0 + tanh_one(gelu_inner(v)))
}

/// `√(2/π)`.
const GELU_C: f32 = 0.797_884_6;

/// GELU's tanh argument, `√(2/π)·(v + 0.044715·v³)`.
fn gelu_inner(v: f32) -> f32 {
    GELU_C * (v + 0.044715 * v * v * v)
}

/// Derivative of [`gelu`] with respect to its input, elementwise.
pub fn gelu_grad(x: &Tensor) -> Tensor {
    through(x, gelu_inner, lanes::tanh_f32, |v, t| {
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * v * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * v * v)
    })
}

/// Logistic sigmoid, elementwise.
pub fn sigmoid(x: &Tensor) -> Tensor {
    through(x, |v| -v, lanes::exp_f32, |_, e| 1.0 / (1.0 + e))
}

/// SiLU / swish (`x · sigmoid(x)`), elementwise. Used by LLaMA-style FFNs.
pub fn silu(x: &Tensor) -> Tensor {
    through(x, |v| -v, lanes::exp_f32, |v, e| v / (1.0 + e))
}

/// Derivative of [`silu`] with respect to its input, elementwise.
pub fn silu_grad(x: &Tensor) -> Tensor {
    through(
        x,
        |v| -v,
        lanes::exp_f32,
        |v, e| {
            let s = 1.0 / (1.0 + e);
            s * (1.0 + v * (1.0 - s))
        },
    )
}

/// `post(v, f(pre(v)))` for every element `v` of `x`, where `kernel`
/// applies the transcendental `f` to the whole tensor in one call.
fn through(
    x: &Tensor,
    pre: impl Fn(f32) -> f32,
    kernel: fn(&mut [f32]),
    post: impl Fn(f32, f32) -> f32,
) -> Tensor {
    let mut out: Vec<f32> = x.data().iter().map(|&v| pre(v)).collect();
    kernel(&mut out);
    for (o, &v) in out.iter_mut().zip(x.data()) {
        *o = post(v, *o);
    }
    Tensor::from_vec(out, x.dims())
}

/// Numerically stable softmax over the last axis of a rank-2 tensor.
///
/// # Panics
///
/// Panics if `x` is not rank-2.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 2, "softmax_rows requires a rank-2 tensor");
    let n = x.dims()[1];
    let mut out = vec![0.0f32; x.numel()];
    if n > 0 {
        for (row, o) in x.data().chunks_exact(n).zip(out.chunks_exact_mut(n)) {
            softmax_row_into(row, o);
        }
    }
    Tensor::from_vec(out, x.dims())
}

/// Softmax of one row into `out` — the single op order every softmax in
/// the workspace runs ([`softmax_rows`] maps it over rows), so callers
/// with their own scratch buffers stay bit-identical to it: the
/// numerators and their sum from [`softmax_exps_into`], then one divide
/// per element.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn softmax_row_into(row: &[f32], out: &mut [f32]) {
    let sum = softmax_exps_into(row, out);
    for v in out.iter_mut() {
        *v /= sum;
    }
}

/// The softmax of one row up to its divide: writes `e^(v − max)` for
/// every `v` of `row` into `out` and returns their sum, taken left to
/// right. A caller that divides each element by it has
/// [`softmax_row_into`]'s bits, and may fuse the divide into its next
/// pass.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn softmax_exps_into(row: &[f32], out: &mut [f32]) -> f32 {
    assert_eq!(row.len(), out.len(), "softmax row/output length mismatch");
    // The row maximum in eight independent lanes: a maximum ignores
    // order (and NaN), and `v − mx` is the same for either zero, so this
    // is the sequential fold's result without its serial dependency.
    let mut maxes = [f32::NEG_INFINITY; 8];
    let chunks = row.chunks_exact(8);
    let tail = chunks.remainder();
    for c in chunks {
        for (m, &v) in maxes.iter_mut().zip(c) {
            *m = m.max(v);
        }
    }
    let mx = tail
        .iter()
        .chain(&maxes)
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    for (o, &v) in out.iter_mut().zip(row) {
        *o = v - mx;
    }
    lanes::exp_f32(out);
    let mut sum = 0.0;
    for &e in out.iter() {
        // lint: allow(float-reduction-outside-kernels) -- softmax row sum in fixed left-to-right order; this IS the blessed order
        sum += e;
    }
    sum
}

/// Backward pass of [`softmax_rows`]: given the softmax output `y` and the
/// upstream gradient `dy`, returns the gradient with respect to the input.
///
/// Uses `dx = y ⊙ (dy − (y·dy) 1ᵀ)` per row.
///
/// # Panics
///
/// Panics if shapes disagree or the tensors are not rank-2.
pub fn softmax_rows_grad(y: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(y.rank(), 2, "softmax_rows_grad requires rank-2 tensors");
    assert_eq!(y.shape(), dy.shape(), "softmax_rows_grad: shape mismatch");
    let (m, n) = (y.dims()[0], y.dims()[1]);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let yr = &y.data()[i * n..(i + 1) * n];
        let dr = &dy.data()[i * n..(i + 1) * n];
        let dot: f32 = yr.iter().zip(dr.iter()).map(|(a, b)| a * b).sum();
        for j in 0..n {
            out[i * n + j] = yr[j] * (dr[j] - dot);
        }
    }
    Tensor::from_vec(out, [m, n])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
        assert_eq!(relu_grad(&x).data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1001.0, 1002.0], [2, 3]);
        let y = softmax_rows(&x);
        for i in 0..2 {
            let s: f32 = y.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Shift invariance: both rows have the same relative logits.
        for j in 0..3 {
            assert!((y.at(&[0, j]) - y.at(&[1, j])).abs() < 1e-5);
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh-approximation formula.
        assert!((gelu_scalar(0.0)).abs() < 1e-6);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_finite_difference() {
        let xs = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.7, 1.5], [5]);
        let g = gelu_grad(&xs);
        let eps = 1e-3;
        for (i, &x) in xs.data().iter().enumerate() {
            let fd = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            assert!(
                (g.data()[i] - fd).abs() < 1e-2,
                "x={x}: analytic {} vs fd {fd}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn silu_grad_finite_difference() {
        let xs = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.7, 1.5], [5]);
        let g = silu_grad(&xs);
        let eps = 1e-3;
        let f = |v: f32| v / (1.0 + (-v).exp());
        for (i, &x) in xs.data().iter().enumerate() {
            let fd = (f(x + eps) - f(x - eps)) / (2.0 * eps);
            assert!((g.data()[i] - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_grad_finite_difference() {
        let x = Tensor::from_vec(vec![0.3, -0.6, 1.2, 0.1], [1, 4]);
        let dy = Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0], [1, 4]);
        let y = softmax_rows(&x);
        let dx = softmax_rows_grad(&y, &dy);
        let eps = 1e-3;
        for j in 0..4 {
            let mut xp = x.clone();
            xp.set(&[0, j], x.at(&[0, j]) + eps);
            let mut xm = x.clone();
            xm.set(&[0, j], x.at(&[0, j]) - eps);
            let lp: f32 = softmax_rows(&xp)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = softmax_rows(&xm)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.at(&[0, j]) - fd).abs() < 1e-2,
                "j={j}: {} vs {fd}",
                dx.at(&[0, j])
            );
        }
    }
}
