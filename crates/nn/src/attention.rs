//! Multi-head self-attention with manual backprop, quantization-aware
//! projections, and an optional causal mask (for the decoder LM).

use crate::decode::Attention;
use crate::linear::{PsumMode, QuantLinear};
use crate::paged::{BlockId, BlockPool, PagedKvState};
use crate::param::{HasParams, Param};
use apsq_core::BufferTraffic;
use apsq_quant::Bitwidth;
use apsq_tensor::{softmax_rows, softmax_rows_grad, ExecEngine, Gemm, Layout, Tensor};
use rand::Rng;

/// Multi-head self-attention over a single `[T, d]` sequence.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    wq: QuantLinear,
    wk: QuantLinear,
    wv: QuantLinear,
    wo: QuantLinear,
    heads: usize,
    causal: bool,
    cache: Option<AttnCache>,
}

#[derive(Clone, Debug)]
struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Tensor, // head-major [heads·T, T]
}

impl MultiHeadAttention {
    /// Creates an attention layer.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not divisible by `heads`.
    pub fn new<R: Rng + ?Sized>(
        d: usize,
        heads: usize,
        bits: Bitwidth,
        psum_mode: PsumMode,
        causal: bool,
        rng: &mut R,
    ) -> Self {
        assert!(
            d.is_multiple_of(heads),
            "d = {d} not divisible by heads = {heads}"
        );
        MultiHeadAttention {
            wq: QuantLinear::new(d, d, bits, psum_mode, rng),
            wk: QuantLinear::new(d, d, bits, psum_mode, rng),
            wv: QuantLinear::new(d, d, bits, psum_mode, rng),
            wo: QuantLinear::new(d, d, bits, psum_mode, rng),
            heads,
            causal,
            cache: None,
        }
    }

    /// Whether a causal mask is applied.
    pub fn is_causal(&self) -> bool {
        self.causal
    }

    /// Switches the PSUM mode of all four projections.
    pub fn set_psum_mode(&mut self, mode: PsumMode) {
        self.wq.set_psum_mode(mode);
        self.wk.set_psum_mode(mode);
        self.wv.set_psum_mode(mode);
        self.wo.set_psum_mode(mode);
    }

    fn head_dim(&self, d: usize) -> usize {
        d / self.heads
    }

    /// Scaled-dot-product attention of `m` query rows over `t` key/value
    /// rows, all `d` wide and row-major, as two head-batched GEMMs: head
    /// `h` reads its `dh` columns of Q, K and V and writes its columns of
    /// the `[m, d]` context in place (`ld = d`, batch stride `dh`).
    /// `causal` masks query row `i` to keys `0..=i`. Returns the
    /// head-major `[heads·m, t]` probabilities.
    fn attend(
        &self,
        (q, k, v): (&[f32], &[f32], &[f32]),
        (m, t, d): (usize, usize, usize),
        causal: bool,
        eng: &ExecEngine,
        ctx: &mut [f32],
    ) -> Tensor {
        let (heads, dh) = (self.heads, self.head_dim(d));
        let qk = Gemm {
            lda: d,
            ldb: d,
            batch: heads,
            stride_a: dh,
            stride_b: dh,
            ..Gemm::new(Layout::NT, q, k, m, t, dh)
        };
        let mut scores = Tensor::zeros([heads * m, t]);
        eng.gemm(&qk, scores.data_mut());
        scores = &scores * (1.0 / (dh as f32).sqrt());
        if causal {
            apply_causal_mask(&mut scores);
        }
        let p = softmax_rows(&scores);
        let pv = Gemm {
            ldb: d,
            ldo: d,
            batch: heads,
            stride_b: dh,
            stride_o: dh,
            ..Gemm::new(Layout::NN, p.data(), v, m, dh, t)
        };
        eng.gemm(&pv, ctx);
        p
    }

    /// Forward pass over `[T, d]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_with(x, &ExecEngine::serial())
    }

    /// [`MultiHeadAttention::forward`] routed through an execution engine
    /// context: projections, score/context matmuls, and output projection
    /// all dispatch on `eng`.
    pub fn forward_with(&mut self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let q = self.wq.forward_with(x, eng);
        let k = self.wk.forward_with(x, eng);
        let v = self.wv.forward_with(x, eng);
        let (t, d) = (x.dims()[0], x.dims()[1]);
        let mut ctx = Tensor::zeros([t, d]);
        let qkv = (q.data(), k.data(), v.data());
        let probs = self.attend(qkv, (t, t, d), self.causal, eng, ctx.data_mut());
        self.cache = Some(AttnCache { q, k, v, probs });
        self.wo.forward_with(&ctx, eng)
    }

    /// Backward pass; returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_with(dy, &ExecEngine::serial())
    }

    /// [`MultiHeadAttention::backward`] routed through an execution engine.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_with(&mut self, dy: &Tensor, eng: &ExecEngine) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let d = cache.q.dims()[1];
        let dh = self.head_dim(d);
        let t = cache.q.dims()[0];

        let dctx = self.wo.backward_with(dy, eng);
        // The head-batched twins of `attend`'s GEMMs: every per-head operand
        // and gradient is its `dh` columns of a `[T, d]` buffer.
        let dp_g = Gemm {
            lda: d,
            ldb: d,
            batch: self.heads,
            stride_a: dh,
            stride_b: dh,
            ..Gemm::new(Layout::NT, dctx.data(), cache.v.data(), t, t, dh)
        };
        let mut dp = Tensor::zeros([self.heads * t, t]);
        eng.gemm(&dp_g, dp.data_mut());
        // Causal-masked entries have p = 0, so their softmax grad is 0.
        let dscores = &softmax_rows_grad(&cache.probs, &dp) * (1.0 / (dh as f32).sqrt());
        let mut dq = Tensor::zeros([t, d]);
        let mut dk = Tensor::zeros([t, d]);
        let mut dv = Tensor::zeros([t, d]);
        for (layout, a, b, out) in [
            (Layout::TN, &cache.probs, &dctx, &mut dv),
            (Layout::NN, &dscores, &cache.k, &mut dq),
            (Layout::TN, &dscores, &cache.q, &mut dk),
        ] {
            let g = Gemm {
                ldb: d,
                ldo: d,
                batch: self.heads,
                stride_b: dh,
                stride_o: dh,
                ..Gemm::new(layout, a.data(), b.data(), t, dh, t)
            };
            eng.gemm(&g, out.data_mut());
        }
        let dx_q = self.wq.backward_with(&dq, eng);
        let dx_k = self.wk.backward_with(&dk, eng);
        let dx_v = self.wv.backward_with(&dv, eng);
        &(&dx_q + &dx_k) + &dx_v
    }

    /// Applies accumulated LSQ step gradients in all projections.
    pub fn apply_quantizer_grads(&mut self, lr: f32) {
        self.wq.apply_quantizer_grads(lr);
        self.wk.apply_quantizer_grads(lr);
        self.wv.apply_quantizer_grads(lr);
        self.wo.apply_quantizer_grads(lr);
    }

    /// The batched paged decode step over `[B, d]`: the shared
    /// [`Attention::forward_decode_batch_paged_traced`] without its
    /// traffic count (always zero on the f32 path).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[B, d]` with one state per row, or the block
    /// pool is exhausted.
    pub fn forward_decode_batch_paged_with(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &BlockPool,
        states: &mut [&mut PagedKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        self.forward_decode_batch_paged_traced(x, layer, pool, states, eng)
            .0
    }
}

impl Attention for MultiHeadAttention {
    type Proj = QuantLinear;
    /// The gathered `[t·d]` K and V rows.
    type Scratch = (Vec<f32>, Vec<f32>);

    fn heads(&self) -> usize {
        self.heads
    }

    fn projections(&self) -> [&QuantLinear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }

    fn attend_sequence(&self, q: &Tensor, k: &Tensor, v: &Tensor, eng: &ExecEngine) -> Tensor {
        let (t, d) = (q.dims()[0], q.dims()[1]);
        let mut ctx = Tensor::zeros([t, d]);
        let qkv = (q.data(), k.data(), v.data());
        self.attend(qkv, (t, t, d), self.causal, eng, ctx.data_mut());
        ctx
    }

    fn attend_paged_row(
        &self,
        q: &[f32],
        blocks: &[BlockId],
        t: usize,
        pool: &BlockPool,
        eng: &ExecEngine,
        (k, v): &mut Self::Scratch,
        ctx: &mut [f32],
    ) -> BufferTraffic {
        pool.gather_f32(blocks, t, k, v);
        // No mask: the gathered prefix *is* the causal window.
        self.attend((q, &k[..], &v[..]), (1, t, q.len()), false, eng, ctx);
        BufferTraffic::new()
    }
}

impl HasParams for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

/// Masks each `[T, T]` head block of head-major `[heads·T, T]` scores:
/// query row `i` keeps keys `0..=i`.
pub(crate) fn apply_causal_mask(scores: &mut Tensor) {
    let t = scores.dims()[1];
    for (r, row) in scores.data_mut().chunks_mut(t).enumerate() {
        row[r % t + 1..].fill(f32::NEG_INFINITY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_causality() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut attn =
            MultiHeadAttention::new(16, 4, Bitwidth::INT8, PsumMode::Exact, true, &mut rng);
        let x = apsq_tensor::randn([6, 16], 1.0, &mut rng);
        let y = attn.forward(&x);
        assert_eq!(y.dims(), &[6, 16]);
        // Causality: the first output row must not depend on later tokens.
        let mut x2 = x.clone();
        for j in 0..16 {
            x2.set(&[5, j], 9.0);
        }
        let mut attn2 = attn.clone();
        let y2 = attn2.forward(&x2);
        for j in 0..16 {
            assert!(
                (y.at(&[0, j]) - y2.at(&[0, j])).abs() < 1e-4,
                "causal leak at column {j}"
            );
        }
    }

    #[test]
    fn backward_produces_grads_everywhere() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut attn =
            MultiHeadAttention::new(8, 2, Bitwidth::INT8, PsumMode::Exact, false, &mut rng);
        let x = apsq_tensor::randn([4, 8], 1.0, &mut rng);
        let _ = attn.forward(&x);
        let dx = attn.backward(&Tensor::ones([4, 8]));
        assert_eq!(dx.dims(), &[4, 8]);
        let mut total = 0.0;
        attn.visit_params(&mut |p| total += p.grad.norm());
        assert!(total > 0.0);
    }

    #[test]
    fn gradient_check_non_causal() {
        // End-to-end FD check through softmax attention. Finite differences
        // are meaningless through INT8 fake-quant stair-steps, so the check
        // runs at 32-bit "quantization" (step ≈ 4e-5 — numerically FP32),
        // where the STE backward coincides with the true gradient.
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn =
            MultiHeadAttention::new(4, 1, Bitwidth::INT32, PsumMode::Exact, false, &mut rng);
        let x = apsq_tensor::randn([3, 4], 0.5, &mut rng);
        let dy = apsq_tensor::randn([3, 4], 1.0, &mut rng);
        let _ = attn.forward(&x);
        let dx = attn.backward(&dy);

        let loss = |x: &Tensor| -> f32 {
            let mut a = attn.clone();
            a.forward(x)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(p, q)| p * q)
                .sum()
        };
        let eps = 2e-3;
        let mut checked = 0;
        for (i, j) in [(0usize, 0usize), (1, 2), (2, 3)] {
            let mut xp = x.clone();
            xp.set(&[i, j], x.at(&[i, j]) + eps);
            let mut xm = x.clone();
            xm.set(&[i, j], x.at(&[i, j]) - eps);
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            // Fake-quant steps make FD noisy; accept agreement within 30%
            // or absolute 0.05 — enough to catch sign/structure bugs.
            let a = dx.at(&[i, j]);
            if fd.abs() > 0.05 {
                assert!(
                    (a - fd).abs() < 0.3 * fd.abs().max(a.abs()) + 0.05,
                    "dx[{i},{j}] {a} vs {fd}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no informative FD points");
    }
}
