//! Multi-head self-attention with manual backprop, quantization-aware
//! projections, and an optional causal mask (for the decoder LM).

use crate::linear::{PsumMode, QuantLinear};
use crate::param::{HasParams, Param};
use apsq_quant::Bitwidth;
use apsq_tensor::{softmax_rows, softmax_rows_grad, ExecEngine, Tensor};
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
    probs: Vec<Tensor>, // per head [T, T]
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

    /// Attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Whether a causal mask is applied.
    pub fn is_causal(&self) -> bool {
        self.causal
    }

    /// The four projections `(wq, wk, wv, wo)` — the PTQ conversion's
    /// read-only view.
    pub(crate) fn projections(&self) -> (&QuantLinear, &QuantLinear, &QuantLinear, &QuantLinear) {
        (&self.wq, &self.wk, &self.wv, &self.wo)
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

    /// Forward pass over `[T, d]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_with(x, &ExecEngine::serial())
    }

    /// [`MultiHeadAttention::forward`] routed through an execution engine
    /// context: projections, score/context matmuls, and output projection
    /// all dispatch on `eng`.
    pub fn forward_with(&mut self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let d = x.dims()[1];
        let dh = self.head_dim(d);
        let t = x.dims()[0];
        let q = self.wq.forward_with(x, eng);
        let k = self.wk.forward_with(x, eng);
        let v = self.wv.forward_with(x, eng);

        let mut ctx = Tensor::zeros([t, d]);
        let mut probs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = slice_cols(&q, h * dh, dh);
            let kh = slice_cols(&k, h * dh, dh);
            let vh = slice_cols(&v, h * dh, dh);
            let mut scores = eng.matmul_bt(&qh, &kh);
            scores = &scores * (1.0 / (dh as f32).sqrt());
            if self.causal {
                apply_causal_mask(&mut scores);
            }
            let p = softmax_rows(&scores);
            let ctx_h = eng.matmul(&p, &vh);
            write_cols(&mut ctx, &ctx_h, h * dh);
            probs.push(p);
        }
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
        let mut dq = Tensor::zeros([t, d]);
        let mut dk = Tensor::zeros([t, d]);
        let mut dv = Tensor::zeros([t, d]);
        for h in 0..self.heads {
            let qh = slice_cols(&cache.q, h * dh, dh);
            let kh = slice_cols(&cache.k, h * dh, dh);
            let vh = slice_cols(&cache.v, h * dh, dh);
            let p = &cache.probs[h];
            let dctx_h = slice_cols(&dctx, h * dh, dh);
            let dp = eng.matmul_bt(&dctx_h, &vh);
            let dvh = eng.matmul_at(p, &dctx_h);
            let mut dscores = softmax_rows_grad(p, &dp);
            dscores = &dscores * (1.0 / (dh as f32).sqrt());
            // Causal-masked entries have p = 0, so their softmax grad is 0.
            let dqh = eng.matmul(&dscores, &kh);
            let dkh = eng.matmul_at(&dscores, &qh);
            write_cols(&mut dq, &dqh, h * dh);
            write_cols(&mut dk, &dkh, h * dh);
            write_cols(&mut dv, &dvh, h * dh);
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

    /// Inference-only forward over `[T, d]` — same math as
    /// [`Self::forward`] with frozen quantizers and no training caches
    /// touched. The full-sequence twin of the decode path, used to verify
    /// incremental decoding bit-for-bit.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let d = x.dims()[1];
        let dh = self.head_dim(d);
        let t = x.dims()[0];
        let q = self.wq.forward_inference_with(x, eng);
        let k = self.wk.forward_inference_with(x, eng);
        let v = self.wv.forward_inference_with(x, eng);

        let mut ctx = Tensor::zeros([t, d]);
        for h in 0..self.heads {
            let qh = slice_cols(&q, h * dh, dh);
            let kh = slice_cols(&k, h * dh, dh);
            let vh = slice_cols(&v, h * dh, dh);
            let mut scores = eng.matmul_bt(&qh, &kh);
            scores = &scores * (1.0 / (dh as f32).sqrt());
            if self.causal {
                apply_causal_mask(&mut scores);
            }
            let p = softmax_rows(&scores);
            let ctx_h = eng.matmul(&p, &vh);
            write_cols(&mut ctx, &ctx_h, h * dh);
        }
        self.wo.forward_inference_with(&ctx, eng)
    }

    /// Batched incremental decode step: one query row per sequence, each
    /// attending its own K/V history, which lives in `layer`'s block table
    /// of its [`crate::PagedKvState`]. The projections and the output GEMM
    /// run once over the whole `[B, d]` stack — the serving-path batching
    /// win. This step's K/V rows are appended first (allocating or
    /// copy-on-writing blocks as needed) under **one short lock** on the
    /// shared [`crate::BlockPool`], then each sequence's blocks are
    /// **gathered in token order** into a flat `[t·d]` layout via the
    /// pool's lock-free gather, so no allocator lock is held during the
    /// attention GEMMs and decode batches on other workers proceed
    /// concurrently. Inference-only — no training caches are touched.
    ///
    /// Every engine kernel reduces each output element in a fixed order
    /// independent of the batch partition, so row `b` is bit-identical to
    /// running that sequence alone, and to row `t` of
    /// [`Self::forward_inference_with`] over its whole prefix (the causal
    /// mask zeroes exactly the rows not yet gathered) — for every block
    /// size, thread count, and worker count.
    ///
    /// Positions are read from the states but **not** advanced — the
    /// caller advances once after all layers of the step (see
    /// [`crate::DecoderLm::decode_batch_paged_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[B, d]` with one state per row, or the block
    /// pool is exhausted.
    pub fn forward_decode_batch_paged_with(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &crate::paged::BlockPool,
        states: &mut [&mut crate::paged::PagedKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        let b = x.dims()[0];
        assert_eq!(b, states.len(), "one paged KV state per batched sequence");
        let d = x.dims()[1];
        let dh = self.head_dim(d);
        let q = self.wq.forward_inference_with(x, eng);
        let k = self.wk.forward_inference_with(x, eng);
        let v = self.wv.forward_inference_with(x, eng);
        {
            let mut alloc = pool.lock();
            for (i, state) in states.iter_mut().enumerate() {
                state.append_row(
                    layer,
                    &mut alloc,
                    &k.data()[i * d..(i + 1) * d],
                    &v.data()[i * d..(i + 1) * d],
                );
            }
        }

        let mut ctx = Tensor::zeros([b, d]);
        let (mut k_flat, mut v_flat) = (Vec::new(), Vec::new());
        for (i, state) in states.iter().enumerate() {
            let t = state.position() + 1; // this step's row is appended
            pool.gather_f32(state.layer_blocks(layer), t, &mut k_flat, &mut v_flat);
            let qi = Tensor::from_vec(q.data()[i * d..(i + 1) * d].to_vec(), [1, d]);
            let mut ctx_i = Tensor::zeros([1, d]);
            for h in 0..self.heads {
                let qh = slice_cols(&qi, h * dh, dh);
                let kh = head_from_rows(&k_flat, t, d, h * dh, dh);
                let vh = head_from_rows(&v_flat, t, d, h * dh, dh);
                let mut scores = eng.matmul_bt(&qh, &kh); // [1, t]
                scores = &scores * (1.0 / (dh as f32).sqrt());
                let p = softmax_rows(&scores);
                let ctx_h = eng.matmul(&p, &vh); // [1, dh]
                write_cols(&mut ctx_i, &ctx_h, h * dh);
            }
            ctx.data_mut()[i * d..(i + 1) * d].copy_from_slice(ctx_i.data());
        }
        self.wo.forward_inference_with(&ctx, eng)
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

/// Column slice `[rows, width]` taken directly from a flat row-major
/// buffer with leading dimension `ld` — the zero-clone twin of
/// [`slice_cols`] for KV-cache reads.
pub(crate) fn head_from_rows(
    data: &[f32],
    rows: usize,
    ld: usize,
    start: usize,
    width: usize,
) -> Tensor {
    let mut out = vec![0.0f32; rows * width];
    for i in 0..rows {
        out[i * width..(i + 1) * width]
            .copy_from_slice(&data[i * ld + start..i * ld + start + width]);
    }
    Tensor::from_vec(out, [rows, width])
}

pub(crate) fn slice_cols(x: &Tensor, start: usize, width: usize) -> Tensor {
    let (t, d) = (x.dims()[0], x.dims()[1]);
    let mut out = vec![0.0f32; t * width];
    for i in 0..t {
        out[i * width..(i + 1) * width]
            .copy_from_slice(&x.data()[i * d + start..i * d + start + width]);
    }
    Tensor::from_vec(out, [t, width])
}

pub(crate) fn write_cols(dst: &mut Tensor, src: &Tensor, start: usize) {
    let (t, d) = (dst.dims()[0], dst.dims()[1]);
    let w = src.dims()[1];
    for i in 0..t {
        let row = src.data()[i * w..(i + 1) * w].to_vec();
        dst.data_mut()[i * d + start..i * d + start + w].copy_from_slice(&row);
    }
}

pub(crate) fn apply_causal_mask(scores: &mut Tensor) {
    let t = scores.dims()[0];
    for i in 0..t {
        for j in (i + 1)..t {
            scores.set(&[i, j], f32::NEG_INFINITY);
        }
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
