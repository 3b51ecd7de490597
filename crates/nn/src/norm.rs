//! Layer normalization with manual backprop.

// lint: allow-file(float-reduction-outside-kernels) -- per-row backward sums run in fixed column order, single-threaded; order is pinned by construction

use crate::param::{HasParams, Param};
use apsq_tensor::{mean_axis1, var_axis1, Tensor};

/// Layer normalization over the last axis of a `[n, d]` tensor, with
/// learnable gain and bias.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    /// Gain `γ` (`[d]`).
    pub gamma: Param,
    /// Bias `β` (`[d]`).
    pub beta: Param,
    eps: f32,
    cache: Option<NormCache>,
}

#[derive(Clone, Debug)]
struct NormCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer with γ = 1, β = 0.
    pub fn new(d: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::ones([d])),
            beta: Param::new(Tensor::zeros([d])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Forward pass over `[n, d]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 with the configured feature width.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (y, cache) = self.normalize(x);
        self.cache = Some(cache);
        y
    }

    /// Inference-only forward (no layer state cloned or touched): one
    /// pass per row into one output buffer, bit-identical to
    /// [`Self::forward`] — the same left-to-right row sums,
    /// `1 / √(var + ε)`, and `(x − μ) · inv · γ + β` in that order.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank-2 with the configured feature width.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "LayerNorm expects [n, d]");
        let d = x.dims()[1];
        assert_eq!(d, self.gamma.value.numel(), "feature width mismatch");
        assert!(d > 0, "LayerNorm over zero features");
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let mut y = vec![0.0f32; x.numel()];
        for (row, out) in x.data().chunks_exact(d).zip(y.chunks_exact_mut(d)) {
            let mu = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            for (((o, &v), &g), &b) in out.iter_mut().zip(row).zip(gamma).zip(beta) {
                *o = (v - mu) * inv * g + b;
            }
        }
        Tensor::from_vec(y, x.dims())
    }

    fn normalize(&self, x: &Tensor) -> (Tensor, NormCache) {
        assert_eq!(x.rank(), 2, "LayerNorm expects [n, d]");
        let (n, d) = (x.dims()[0], x.dims()[1]);
        assert_eq!(d, self.gamma.value.numel(), "feature width mismatch");
        let mu = mean_axis1(x);
        let var = var_axis1(x);
        let inv_std: Vec<f32> = var
            .data()
            .iter()
            .map(|&v| 1.0 / (v + self.eps).sqrt())
            .collect();
        let mut x_hat = vec![0.0f32; n * d];
        for i in 0..n {
            for j in 0..d {
                x_hat[i * d + j] = (x.at(&[i, j]) - mu.data()[i]) * inv_std[i];
            }
        }
        let x_hat = Tensor::from_vec(x_hat, [n, d]);
        let y = &(&x_hat * &self.gamma.value) + &self.beta.value;
        (y, NormCache { x_hat, inv_std })
    }

    /// Backward pass: accumulates γ/β grads, returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let (n, d) = (dy.dims()[0], dy.dims()[1]);
        let x_hat = &cache.x_hat;

        // Parameter grads.
        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        for i in 0..n {
            for j in 0..d {
                dgamma[j] += dy.at(&[i, j]) * x_hat.at(&[i, j]);
                dbeta[j] += dy.at(&[i, j]);
            }
        }
        self.gamma.accumulate(&Tensor::from_vec(dgamma, [d]));
        self.beta.accumulate(&Tensor::from_vec(dbeta, [d]));

        // Input grad: dx = (1/d)·inv_std·(d·dxhat − Σdxhat − x̂·Σ(dxhat·x̂)).
        let mut dx = vec![0.0f32; n * d];
        for i in 0..n {
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for j in 0..d {
                let dxh = dy.at(&[i, j]) * self.gamma.value.data()[j];
                sum_dxhat += dxh;
                sum_dxhat_xhat += dxh * x_hat.at(&[i, j]);
            }
            for j in 0..d {
                let dxh = dy.at(&[i, j]) * self.gamma.value.data()[j];
                dx[i * d + j] = cache.inv_std[i] / d as f32
                    * (d as f32 * dxh - sum_dxhat - x_hat.at(&[i, j]) * sum_dxhat_xhat);
            }
        }
        Tensor::from_vec(dx, [n, d])
    }
}

impl HasParams for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_normalized() {
        let mut ln = LayerNorm::new(8);
        let mut rng = StdRng::seed_from_u64(2);
        let x = apsq_tensor::randn([4, 8], 3.0, &mut rng);
        let y = ln.forward(&(&x + 5.0));
        let mu = mean_axis1(&y);
        let var = var_axis1(&y);
        for i in 0..4 {
            assert!(mu.data()[i].abs() < 1e-4);
            assert!((var.data()[i] - 1.0).abs() < 1e-3);
        }
    }

    /// The one-pass inference forward equals the training forward bit
    /// for bit, over odd widths, a non-trivial γ/β, a constant row and
    /// rows far from zero mean.
    #[test]
    fn inference_forward_is_bit_identical_to_training_forward() {
        let mut rng = StdRng::seed_from_u64(11);
        for d in [1usize, 3, 7, 13, 31, 129] {
            let mut ln = LayerNorm::new(d);
            ln.gamma.value = apsq_tensor::randn([d], 1.0, &mut rng);
            ln.beta.value = apsq_tensor::randn([d], 0.5, &mut rng);
            let mut x = &apsq_tensor::randn([5, d], 3.0, &mut rng) + 40.0;
            for j in 0..d {
                x.set(&[2, j], -7.25);
            }
            let want = ln.forward(&x);
            let got = ln.forward_inference(&x);
            assert_eq!(got.dims(), want.dims());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "d = {d}");
        }
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ln = LayerNorm::new(5);
        // Non-trivial gamma.
        ln.gamma.value = apsq_tensor::randn([5], 1.0, &mut rng);
        let x = apsq_tensor::randn([3, 5], 1.0, &mut rng);
        let dy = apsq_tensor::randn([3, 5], 1.0, &mut rng);
        let _ = ln.forward(&x);
        let dx = ln.backward(&dy);

        let loss = |x: &Tensor| -> f32 {
            ln.forward_inference(x)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3;
        for (i, j) in [(0usize, 0usize), (1, 3), (2, 4)] {
            let mut xp = x.clone();
            xp.set(&[i, j], x.at(&[i, j]) + eps);
            let mut xm = x.clone();
            xm.set(&[i, j], x.at(&[i, j]) - eps);
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (dx.at(&[i, j]) - fd).abs() < 2e-2,
                "dx[{i},{j}] {} vs {fd}",
                dx.at(&[i, j])
            );
        }
    }
}
