//! Losses: cross-entropy, MSE, and the distillation loss used by the
//! paper's QAT recipe (full-precision teacher).

// lint: allow-file(float-reduction-outside-kernels) -- training-loss accumulation in fixed row-major order; QAT is single-threaded, not in the serving datapath

use apsq_tensor::{softmax_rows, Tensor};

/// Softmax cross-entropy over `[n, classes]` logits with integer labels.
/// Returns `(mean loss, dL/dlogits)`.
///
/// # Panics
///
/// Panics if `labels.len() != n` or any label is out of range.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(labels.len(), n, "label count mismatch");
    let probs = softmax_rows(logits);
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range {c}");
        // lint: allow(libm-transcendental) -- training loss on libm `ln`; no kernel yet (ROADMAP item 9)
        loss -= probs.at(&[i, y]).max(1e-12).ln();
        grad.set(&[i, y], grad.at(&[i, y]) - 1.0);
    }
    (loss / n as f32, &grad * (1.0 / n as f32))
}

/// Mean squared error between `pred` and `target` (same shape). Returns
/// `(mean loss, dL/dpred)`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.numel() as f32;
    let diff = pred - target;
    let loss = diff.mean_sq();
    (loss, &diff * (2.0 / n))
}

/// Distillation loss: temperature-softened KL between teacher and student
/// logits, `T²·KL(softmax(t/T) ‖ softmax(s/T))`. Returns
/// `(loss, dL/dstudent_logits)`.
///
/// # Panics
///
/// Panics if shapes differ or `temperature` is not positive.
pub fn distillation_loss(
    student_logits: &Tensor,
    teacher_logits: &Tensor,
    temperature: f32,
) -> (f32, Tensor) {
    assert_eq!(
        student_logits.shape(),
        teacher_logits.shape(),
        "distillation shape mismatch"
    );
    assert!(temperature > 0.0, "temperature must be positive");
    let n = student_logits.dims()[0] as f32;
    let t = temperature;
    let ps = softmax_rows(&(student_logits * (1.0 / t)));
    let pt = softmax_rows(&(teacher_logits * (1.0 / t)));
    let mut loss = 0.0f32;
    for (s, tt) in ps.data().iter().zip(pt.data().iter()) {
        if *tt > 0.0 {
            // lint: allow(libm-transcendental) -- distillation loss on libm `ln`; no kernel yet (ROADMAP item 9)
            loss += tt * (tt.max(1e-12).ln() - s.max(1e-12).ln());
        }
    }
    // d/ds of T²·KL = T·(softmax(s/T) − softmax(t/T)).
    let grad = &(&ps - &pt) * (t / n);
    (loss * t * t / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ce_prefers_correct_class() {
        let good = Tensor::from_vec(vec![5.0, 0.0, 0.0], [1, 3]);
        let bad = Tensor::from_vec(vec![0.0, 5.0, 0.0], [1, 3]);
        let (lg, _) = cross_entropy(&good, &[0]);
        let (lb, _) = cross_entropy(&bad, &[0]);
        assert!(lg < lb);
    }

    #[test]
    fn ce_gradient_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1], [1, 4]);
        let (_, g) = cross_entropy(&logits, &[2]);
        let eps = 1e-3;
        for j in 0..4 {
            let mut lp = logits.clone();
            lp.set(&[0, j], logits.at(&[0, j]) + eps);
            let mut lm = logits.clone();
            lm.set(&[0, j], logits.at(&[0, j]) - eps);
            let fd = (cross_entropy(&lp, &[2]).0 - cross_entropy(&lm, &[2]).0) / (2.0 * eps);
            assert!((g.at(&[0, j]) - fd).abs() < 1e-3, "j={j}");
        }
    }

    #[test]
    fn mse_zero_at_target() {
        let x = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let (l, g) = mse_loss(&x, &x);
        assert_eq!(l, 0.0);
        assert_eq!(g.data(), &[0.0, 0.0]);
    }

    #[test]
    fn distillation_zero_when_matched() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 0.5], [1, 3]);
        let (l, g) = distillation_loss(&t, &t, 2.0);
        assert!(l.abs() < 1e-6);
        assert!(g.norm() < 1e-6);
    }

    #[test]
    fn distillation_gradient_finite_difference() {
        let s = Tensor::from_vec(vec![0.3, -0.7, 1.1], [1, 3]);
        let t = Tensor::from_vec(vec![1.0, 0.0, -1.0], [1, 3]);
        let (_, g) = distillation_loss(&s, &t, 2.0);
        let eps = 1e-3;
        for j in 0..3 {
            let mut sp = s.clone();
            sp.set(&[0, j], s.at(&[0, j]) + eps);
            let mut sm = s.clone();
            sm.set(&[0, j], s.at(&[0, j]) - eps);
            let fd = (distillation_loss(&sp, &t, 2.0).0 - distillation_loss(&sm, &t, 2.0).0)
                / (2.0 * eps);
            assert!((g.at(&[0, j]) - fd).abs() < 1e-3, "j={j}");
        }
    }
}
