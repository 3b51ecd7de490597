//! Random tensor initialization.
//!
//! Normal samples are produced with the Box–Muller transform so that the
//! crate only depends on `rand` (the offline allowlist does not include
//! `rand_distr`).

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;

/// Draws a standard-normal sample via Box–Muller.
fn sample_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid u1 == 0 which would produce -inf.
    let u1: f32 = loop {
        let u: f32 = rng.gen();
        if u > f32::EPSILON {
            break u;
        }
    };
    let u2: f32 = rng.gen();
    // lint: allow(libm-transcendental) -- Box–Muller on libm `ln`/`cos`, so seeded weights depend on libm (ROADMAP item 9)
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Tensor with i.i.d. `N(0, std²)` entries.
pub fn randn<S: Into<Shape>, R: Rng + ?Sized>(shape: S, std: f32, rng: &mut R) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.numel())
        .map(|_| sample_normal(rng) * std)
        .collect();
    Tensor::from_vec(data, shape)
}

/// Tensor with i.i.d. `U(lo, hi)` entries.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn rand_uniform<S: Into<Shape>, R: Rng + ?Sized>(
    shape: S,
    lo: f32,
    hi: f32,
    rng: &mut R,
) -> Tensor {
    assert!(lo <= hi, "rand_uniform: lo {lo} > hi {hi}");
    let shape = shape.into();
    let data = (0..shape.numel()).map(|_| rng.gen_range(lo..=hi)).collect();
    Tensor::from_vec(data, shape)
}

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
pub fn xavier_uniform<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    rand_uniform([fan_in, fan_out], -bound, bound, rng)
}

/// Kaiming/He normal initialization for a `[fan_in, fan_out]` weight.
pub fn kaiming_normal<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    randn([fan_in, fan_out], std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = randn([100, 100], 1.0, &mut rng);
        let mean = t.mean();
        let var = t.mean_sq() - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = rand_uniform([1000], -0.25, 0.75, &mut rng);
        assert!(t.min() >= -0.25);
        assert!(t.max() <= 0.75);
    }

    #[test]
    fn xavier_bound_scales_with_fans() {
        let mut rng = StdRng::seed_from_u64(1);
        let small = xavier_uniform(10, 10, &mut rng);
        let big = xavier_uniform(1000, 1000, &mut rng);
        assert!(small.max() > big.max());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = randn([8], 1.0, &mut StdRng::seed_from_u64(42));
        let b = randn([8], 1.0, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
