//! A pre-LayerNorm transformer block with quantization-aware sub-layers.

use crate::attention::MultiHeadAttention;
use crate::linear::{PsumMode, QuantLinear};
use crate::norm::LayerNorm;
use crate::param::{HasParams, Param};
use apsq_quant::Bitwidth;
use apsq_tensor::{gelu, gelu_grad, ExecEngine, Tensor};
use rand::Rng;

/// Pre-LN block: `x + Attn(LN(x))`, then `x + FFN(LN(x))` with a GELU MLP.
#[derive(Clone, Debug)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: QuantLinear,
    fc2: QuantLinear,
    cache_h: Option<Tensor>, // pre-GELU activations
}

impl TransformerBlock {
    /// Creates a block with FFN width `d_ff`.
    pub fn new<R: Rng + ?Sized>(
        d: usize,
        heads: usize,
        d_ff: usize,
        bits: Bitwidth,
        psum_mode: PsumMode,
        causal: bool,
        rng: &mut R,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(d),
            attn: MultiHeadAttention::new(d, heads, bits, psum_mode, causal, rng),
            ln2: LayerNorm::new(d),
            fc1: QuantLinear::new(d, d_ff, bits, psum_mode, rng),
            fc2: QuantLinear::new(d_ff, d, bits, psum_mode, rng),
            cache_h: None,
        }
    }

    /// The block's sub-layers `(ln1, attn, ln2, fc1, fc2)` — the PTQ
    /// conversion's read-only view.
    pub(crate) fn parts(
        &self,
    ) -> (
        &LayerNorm,
        &MultiHeadAttention,
        &LayerNorm,
        &QuantLinear,
        &QuantLinear,
    ) {
        (&self.ln1, &self.attn, &self.ln2, &self.fc1, &self.fc2)
    }

    /// Switches the PSUM mode of every quantized matmul in the block.
    pub fn set_psum_mode(&mut self, mode: PsumMode) {
        self.attn.set_psum_mode(mode);
        self.fc1.set_psum_mode(mode);
        self.fc2.set_psum_mode(mode);
    }

    /// Forward over `[T, d]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_with(x, &ExecEngine::serial())
    }

    /// [`TransformerBlock::forward`] routed through an execution engine
    /// context (attention and both FFN GEMMs dispatch on `eng`).
    pub fn forward_with(&mut self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let a = self.ln1.forward(x);
        let a = self.attn.forward_with(&a, eng);
        let x1 = x + &a;
        let f = self.ln2.forward(&x1);
        let h = self.fc1.forward_with(&f, eng);
        self.cache_h = Some(h.clone());
        let g = gelu(&h);
        let o = self.fc2.forward_with(&g, eng);
        &x1 + &o
    }

    /// Backward; returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_with(dy, &ExecEngine::serial())
    }

    /// [`TransformerBlock::backward`] routed through an execution engine.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_with(&mut self, dy: &Tensor, eng: &ExecEngine) -> Tensor {
        let h = self.cache_h.take().expect("backward before forward");
        // FFN branch.
        let dg = self.fc2.backward_with(dy, eng);
        let dh = &dg * &gelu_grad(&h);
        let df = self.fc1.backward_with(&dh, eng);
        let dx1_ffn = self.ln2.backward(&df);
        let dx1 = dy + &dx1_ffn; // residual

        // Attention branch.
        let da = self.attn.backward_with(&dx1, eng);
        let dx_attn = self.ln1.backward(&da);
        &dx1 + &dx_attn // residual
    }

    /// Applies LSQ step gradients in all quantized sub-layers.
    pub fn apply_quantizer_grads(&mut self, lr: f32) {
        self.attn.apply_quantizer_grads(lr);
        self.fc1.apply_quantizer_grads(lr);
        self.fc2.apply_quantizer_grads(lr);
    }

    /// Inference-only forward over `[T, d]`: frozen quantizers, no
    /// training caches. The full-sequence reference the decode path is
    /// verified bit-for-bit against.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let a = self.ln1.forward_inference(x);
        let a = self.attn.forward_inference_with(&a, eng);
        let x1 = x + &a;
        self.ffn_inference(&x1, eng)
    }

    /// Batched decode step over `[B, d]` — one row per sequence, whose K/V
    /// for this block live in `layer`'s block table of its
    /// [`crate::PagedKvState`]. FFN and projection GEMMs run once over the
    /// whole stack; row `b` is bit-identical to decoding that sequence
    /// alone (see
    /// [`crate::MultiHeadAttention::forward_decode_batch_paged_with`]).
    pub fn forward_decode_batch_paged_with(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &crate::paged::BlockPool,
        states: &mut [&mut crate::paged::PagedKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        let a = self.ln1.forward_inference(x);
        let a = self
            .attn
            .forward_decode_batch_paged_with(&a, layer, pool, states, eng);
        let x1 = x + &a;
        self.ffn_inference(&x1, eng)
    }

    /// The shared post-attention half of every inference path: pre-LN FFN
    /// with residual.
    fn ffn_inference(&self, x1: &Tensor, eng: &ExecEngine) -> Tensor {
        let f = self.ln2.forward_inference(x1);
        let h = self.fc1.forward_inference_with(&f, eng);
        let g = gelu(&h);
        let o = self.fc2.forward_inference_with(&g, eng);
        x1 + &o
    }
}

impl HasParams for TransformerBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut b =
            TransformerBlock::new(16, 4, 32, Bitwidth::INT8, PsumMode::Exact, false, &mut rng);
        let x = apsq_tensor::randn([5, 16], 1.0, &mut rng);
        let y = b.forward(&x);
        assert_eq!(y.dims(), &[5, 16]);
        let dx = b.backward(&Tensor::ones([5, 16]));
        assert_eq!(dx.dims(), &[5, 16]);
        assert!(b.param_count() > 0);
    }

    #[test]
    fn parallel_engine_context_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(21);
        let b = TransformerBlock::new(16, 4, 32, Bitwidth::INT8, PsumMode::Exact, false, &mut rng);
        let x = apsq_tensor::randn([6, 16], 1.0, &mut rng);
        let dy = apsq_tensor::randn([6, 16], 1.0, &mut rng);

        let mut serial = b.clone();
        let y_serial = serial.forward(&x);
        let dx_serial = serial.backward(&dy);

        let eng = ExecEngine::with_threads(4).with_spawn_threshold(0);
        let mut par = b;
        let y_par = par.forward_with(&x, &eng);
        let dx_par = par.backward_with(&dy, &eng);

        assert_eq!(y_par, y_serial);
        assert_eq!(dx_par, dx_serial);
        // Accumulated parameter gradients agree bitwise too.
        let mut grads_serial = Vec::new();
        serial.visit_params(&mut |p| grads_serial.push(p.grad.clone()));
        let mut i = 0;
        par.visit_params(&mut |p| {
            assert_eq!(p.grad, grads_serial[i], "grad {i} differs");
            i += 1;
        });
    }

    #[test]
    fn residual_path_dominates_at_init() {
        // With small random weights, the block output stays close to x.
        let mut rng = StdRng::seed_from_u64(8);
        let mut b =
            TransformerBlock::new(8, 2, 16, Bitwidth::INT8, PsumMode::Exact, false, &mut rng);
        let x = apsq_tensor::randn([4, 8], 1.0, &mut rng);
        let y = b.forward(&x);
        let rel = (&y - &x).norm() / x.norm();
        assert!(rel < 2.0, "block destroyed the signal: {rel}");
    }
}
