//! Task-level models: encoder classifier/regressor, token tagger
//! (segmentation stand-in), and a causal decoder LM.

use crate::block::TransformerBlock;
use crate::embedding::Embedding;
use crate::linear::{Linear, PsumMode};
use crate::norm::LayerNorm;
use crate::param::{HasParams, Param};
use apsq_quant::Bitwidth;
use apsq_tensor::{sum_axis0, ExecEngine, Tensor};
use rand::Rng;

/// Shared hyper-parameters for the tiny task models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN width.
    pub d_ff: usize,
    /// Transformer blocks.
    pub layers: usize,
    /// Weight/activation bit-width for QAT (INT8 in the paper).
    pub bits: Bitwidth,
    /// PSUM path for every quantized matmul.
    pub psum_mode: PsumMode,
}

impl ModelConfig {
    /// A small-but-meaningful default used by the experiment harness:
    /// enough accumulation depth (`d_ff / k_tile` steps) for APSQ effects
    /// to show.
    pub fn tiny(psum_mode: PsumMode) -> Self {
        ModelConfig {
            vocab: 16,
            max_len: 32,
            d_model: 64,
            heads: 4,
            d_ff: 128,
            layers: 2,
            bits: Bitwidth::INT8,
            psum_mode,
        }
    }
}

/// Encoder with a pooled head: sequence classification (or regression with
/// `classes == 1`).
///
/// The head is a BERT-style nonlinear pooler — `Linear → GELU → Linear` —
/// so magnitude-style decisions on pooled statistics (|mean feature| vs a
/// threshold) are representable; a purely linear head cannot express them.
#[derive(Clone, Debug)]
pub struct EncoderClassifier {
    embed: Embedding,
    blocks: Vec<TransformerBlock>,
    ln: LayerNorm,
    pooler: Linear,
    head: Linear,
    seq_len_cache: usize,
    pooler_pre_act: Option<Tensor>,
}

impl EncoderClassifier {
    /// Creates a classifier with `classes` outputs.
    pub fn new<R: Rng + ?Sized>(config: &ModelConfig, classes: usize, rng: &mut R) -> Self {
        EncoderClassifier {
            embed: Embedding::new(config.vocab, config.max_len, config.d_model, rng),
            blocks: (0..config.layers)
                .map(|_| {
                    TransformerBlock::new(
                        config.d_model,
                        config.heads,
                        config.d_ff,
                        config.bits,
                        config.psum_mode,
                        false,
                        rng,
                    )
                })
                .collect(),
            ln: LayerNorm::new(config.d_model),
            pooler: Linear::new(config.d_model, config.d_model, rng),
            head: Linear::new(config.d_model, classes, rng),
            seq_len_cache: 0,
            pooler_pre_act: None,
        }
    }

    /// Switches the PSUM mode everywhere.
    pub fn set_psum_mode(&mut self, mode: PsumMode) {
        for b in &mut self.blocks {
            b.set_psum_mode(mode);
        }
    }

    /// The model's pieces `(embed, blocks, ln, pooler, head)` — the PTQ
    /// conversion's read-only view.
    pub(crate) fn parts(
        &self,
    ) -> (
        &Embedding,
        &[TransformerBlock],
        &LayerNorm,
        &Linear,
        &Linear,
    ) {
        (
            &self.embed,
            &self.blocks,
            &self.ln,
            &self.pooler,
            &self.head,
        )
    }

    /// Forward: token ids → `[1, classes]` logits (mean-pooled).
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        self.forward_with(ids, &ExecEngine::serial())
    }

    /// [`EncoderClassifier::forward`] routed through an execution engine
    /// context shared by every block, projection, and head GEMM.
    pub fn forward_with(&mut self, ids: &[usize], eng: &ExecEngine) -> Tensor {
        let mut h = self.embed.forward(ids);
        for b in &mut self.blocks {
            h = b.forward_with(&h, eng);
        }
        let h = self.ln.forward(&h);
        self.seq_len_cache = ids.len();
        // Mean pool over tokens, then the nonlinear pooler.
        let pooled = &sum_axis0(&h) * (1.0 / ids.len() as f32);
        let z = self
            .pooler
            .forward_with(&pooled.reshape([1, pooled.numel()]), eng);
        self.pooler_pre_act = Some(z.clone());
        self.head.forward_with(&apsq_tensor::gelu(&z), eng)
    }

    /// Backward from `[1, classes]` logits gradient.
    pub fn backward(&mut self, dlogits: &Tensor) {
        self.backward_with(dlogits, &ExecEngine::serial())
    }

    /// [`EncoderClassifier::backward`] routed through an execution engine.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_with(&mut self, dlogits: &Tensor, eng: &ExecEngine) {
        let z = self.pooler_pre_act.take().expect("backward before forward");
        let dgelu_out = self.head.backward_with(dlogits, eng);
        let dz = &dgelu_out * &apsq_tensor::gelu_grad(&z);
        let dpool = self.pooler.backward_with(&dz, eng);
        let t = self.seq_len_cache;
        let d = dpool.numel();
        // Broadcast pooled gradient back over tokens.
        let mut dh = vec![0.0f32; t * d];
        for i in 0..t {
            for j in 0..d {
                dh[i * d + j] = dpool.data()[j] / t as f32;
            }
        }
        let mut dh = Tensor::from_vec(dh, [t, d]);
        dh = self.ln.backward(&dh);
        for b in self.blocks.iter_mut().rev() {
            dh = b.backward_with(&dh, eng);
        }
        self.embed.backward(&dh);
    }

    /// Applies LSQ step grads across the model.
    pub fn apply_quantizer_grads(&mut self, lr: f32) {
        for b in &mut self.blocks {
            b.apply_quantizer_grads(lr);
        }
    }
}

impl HasParams for EncoderClassifier {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln.visit_params(f);
        self.pooler.visit_params(f);
        self.head.visit_params(f);
    }
}

/// Encoder with a per-token head: the segmentation stand-in (per-token
/// classification scored by mIoU).
#[derive(Clone, Debug)]
pub struct TokenTagger {
    embed: Embedding,
    blocks: Vec<TransformerBlock>,
    ln: LayerNorm,
    head: Linear,
}

impl TokenTagger {
    /// Creates a tagger with `classes` per-token outputs.
    pub fn new<R: Rng + ?Sized>(config: &ModelConfig, classes: usize, rng: &mut R) -> Self {
        TokenTagger {
            embed: Embedding::new(config.vocab, config.max_len, config.d_model, rng),
            blocks: (0..config.layers)
                .map(|_| {
                    TransformerBlock::new(
                        config.d_model,
                        config.heads,
                        config.d_ff,
                        config.bits,
                        config.psum_mode,
                        false,
                        rng,
                    )
                })
                .collect(),
            ln: LayerNorm::new(config.d_model),
            head: Linear::new(config.d_model, classes, rng),
        }
    }

    /// Switches the PSUM mode everywhere.
    pub fn set_psum_mode(&mut self, mode: PsumMode) {
        for b in &mut self.blocks {
            b.set_psum_mode(mode);
        }
    }

    /// Forward: token ids → `[T, classes]` per-token logits.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        self.forward_with(ids, &ExecEngine::serial())
    }

    /// [`TokenTagger::forward`] routed through an execution engine.
    pub fn forward_with(&mut self, ids: &[usize], eng: &ExecEngine) -> Tensor {
        let mut h = self.embed.forward(ids);
        for b in &mut self.blocks {
            h = b.forward_with(&h, eng);
        }
        let h = self.ln.forward(&h);
        self.head.forward_with(&h, eng)
    }

    /// Backward from `[T, classes]` logits gradient.
    pub fn backward(&mut self, dlogits: &Tensor) {
        self.backward_with(dlogits, &ExecEngine::serial())
    }

    /// [`TokenTagger::backward`] routed through an execution engine.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_with(&mut self, dlogits: &Tensor, eng: &ExecEngine) {
        let mut dh = self.head.backward_with(dlogits, eng);
        dh = self.ln.backward(&dh);
        for b in self.blocks.iter_mut().rev() {
            dh = b.backward_with(&dh, eng);
        }
        self.embed.backward(&dh);
    }

    /// Applies LSQ step grads across the model.
    pub fn apply_quantizer_grads(&mut self, lr: f32) {
        for b in &mut self.blocks {
            b.apply_quantizer_grads(lr);
        }
    }
}

impl HasParams for TokenTagger {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln.visit_params(f);
        self.head.visit_params(f);
    }
}

/// Decoder-only causal language model (the LLaMA stand-in for Table III).
#[derive(Clone, Debug)]
pub struct DecoderLm {
    embed: Embedding,
    blocks: Vec<TransformerBlock>,
    ln: LayerNorm,
    lm_head: Linear,
}

impl DecoderLm {
    /// Creates a causal LM over the config's vocabulary.
    pub fn new<R: Rng + ?Sized>(config: &ModelConfig, rng: &mut R) -> Self {
        DecoderLm {
            embed: Embedding::new(config.vocab, config.max_len, config.d_model, rng),
            blocks: (0..config.layers)
                .map(|_| {
                    TransformerBlock::new(
                        config.d_model,
                        config.heads,
                        config.d_ff,
                        config.bits,
                        config.psum_mode,
                        true,
                        rng,
                    )
                })
                .collect(),
            ln: LayerNorm::new(config.d_model),
            lm_head: Linear::new(config.d_model, config.vocab, rng),
        }
    }

    /// Switches the PSUM mode everywhere.
    pub fn set_psum_mode(&mut self, mode: PsumMode) {
        for b in &mut self.blocks {
            b.set_psum_mode(mode);
        }
    }

    /// Forward: token ids → `[T, vocab]` next-token logits.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        self.forward_with(ids, &ExecEngine::serial())
    }

    /// [`DecoderLm::forward`] routed through an execution engine.
    pub fn forward_with(&mut self, ids: &[usize], eng: &ExecEngine) -> Tensor {
        let mut h = self.embed.forward(ids);
        for b in &mut self.blocks {
            h = b.forward_with(&h, eng);
        }
        let h = self.ln.forward(&h);
        self.lm_head.forward_with(&h, eng)
    }

    /// Backward from `[T, vocab]` logits gradient.
    pub fn backward(&mut self, dlogits: &Tensor) {
        self.backward_with(dlogits, &ExecEngine::serial())
    }

    /// [`DecoderLm::backward`] routed through an execution engine.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_with(&mut self, dlogits: &Tensor, eng: &ExecEngine) {
        let mut dh = self.lm_head.backward_with(dlogits, eng);
        dh = self.ln.backward(&dh);
        for b in self.blocks.iter_mut().rev() {
            dh = b.backward_with(&dh, eng);
        }
        self.embed.backward(&dh);
    }

    /// Applies LSQ step grads across the model.
    pub fn apply_quantizer_grads(&mut self, lr: f32) {
        for b in &mut self.blocks {
            b.apply_quantizer_grads(lr);
        }
    }

    /// The model's pieces `(embed, blocks, ln, lm_head)` — the PTQ
    /// conversion's read-only view.
    pub(crate) fn parts(&self) -> (&Embedding, &[TransformerBlock], &LayerNorm, &Linear) {
        (&self.embed, &self.blocks, &self.ln, &self.lm_head)
    }

    /// Inference-only full-sequence forward: frozen quantizers, no
    /// training caches touched. The reference the incremental decode path
    /// is verified bit-for-bit against.
    pub fn forward_inference_with(&self, ids: &[usize], eng: &ExecEngine) -> Tensor {
        let mut h = self.embed.forward_inference(ids);
        for b in &self.blocks {
            h = b.forward_inference_with(&h, eng);
        }
        let h = self.ln.forward_inference(&h);
        self.lm_head.forward_inference_with(&h, eng)
    }

    /// Decoder depth (transformer blocks).
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Hidden width `d_model`.
    pub fn width(&self) -> usize {
        self.ln.gamma.value.numel()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.embed.tokens.value.dims()[0]
    }

    /// Maximum sequence length (positional-table rows).
    pub fn max_len(&self) -> usize {
        self.embed.positions.value.dims()[0]
    }

    /// Initializes **paged** KV state for this model's depth: one block
    /// table per layer, growing block-by-block from a shared
    /// [`crate::BlockAllocator`] instead of one preallocated buffer per
    /// session.
    pub fn new_paged_state(&self) -> crate::paged::PagedKvState {
        crate::paged::PagedKvState::for_layers(self.blocks.len())
    }

    /// Batched autoregressive decode: consumes one token per sequence at
    /// its state's current position and returns `[B, vocab]` next-token
    /// logits (row order follows the inputs) — the software analogue of
    /// the decode stage the paper's `Po = 1` configuration accelerates.
    /// Projection, FFN, and LM-head GEMMs run once over the whole batch —
    /// the dynamic-batching win a serving layer exploits — while each
    /// sequence attends only its own history.
    ///
    /// Each sequence's KV rows live in fixed-size blocks referenced by its
    /// state's per-layer block tables, carved from the shared
    /// [`crate::BlockPool`]. Appends take one short pool lock per layer,
    /// allocate a block per layer at each `block_tokens` boundary, and
    /// copy-on-write shared tail blocks; reads gather blocks in token
    /// order **without holding the pool lock**, so decode batches on other
    /// workers run concurrently.
    ///
    /// Row `b` is **bit-identical** to decoding that sequence alone and to
    /// row `t` of [`Self::forward_inference_with`] over its whole prefix:
    /// every engine kernel reduces each output element in a fixed order
    /// independent of the batch partition, and every non-GEMM op is
    /// per-row — for every block size, batch composition, engine thread
    /// count, and worker count (pinned by `tests/proptest_decode.rs` and
    /// `tests/proptest_paged.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` and `states` lengths differ, the batch is
    /// empty, a state was built for a different depth, a position exceeds
    /// `max_len`, or the allocator is exhausted (reserve
    /// [`crate::PagedKvState::blocks_needed_for_next_append`] first).
    pub fn decode_batch_paged_with(
        &self,
        tokens: &[usize],
        states: &mut [&mut crate::paged::PagedKvState],
        pool: &crate::paged::BlockPool,
        eng: &ExecEngine,
    ) -> Tensor {
        assert_eq!(tokens.len(), states.len(), "one KV state per token");
        assert!(!tokens.is_empty(), "empty decode batch");
        let d = self.width();
        let mut x = Tensor::zeros([tokens.len(), d]);
        for (i, (&t, s)) in tokens.iter().zip(states.iter()).enumerate() {
            assert_eq!(s.num_layers(), self.blocks.len(), "KV state depth mismatch");
            let row = self.embed.embed_one(t, s.position());
            x.data_mut()[i * d..(i + 1) * d].copy_from_slice(row.data());
        }
        let mut h = x;
        for (l, b) in self.blocks.iter().enumerate() {
            h = b.forward_decode_batch_paged_with(&h, l, pool, states, eng);
        }
        let h = self.ln.forward_inference(&h);
        for s in states.iter_mut() {
            s.advance();
        }
        self.lm_head.forward_inference_with(&h, eng)
    }
}

impl HasParams for DecoderLm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln.visit_params(f);
        self.lm_head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classifier_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ModelConfig::tiny(PsumMode::Exact);
        let mut m = EncoderClassifier::new(&cfg, 3, &mut rng);
        let logits = m.forward(&[1, 2, 3, 4]);
        assert_eq!(logits.dims(), &[1, 3]);
        m.backward(&Tensor::ones([1, 3]));
        assert!(m.param_count() > 10_000);
    }

    #[test]
    fn tagger_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ModelConfig::tiny(PsumMode::Exact);
        let mut m = TokenTagger::new(&cfg, 5, &mut rng);
        let logits = m.forward(&[1, 2, 3]);
        assert_eq!(logits.dims(), &[3, 5]);
        m.backward(&Tensor::ones([3, 5]));
    }

    #[test]
    fn kv_decode_matches_full_forward() {
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = ModelConfig::tiny(PsumMode::Exact);
        let mut m = DecoderLm::new(&cfg, &mut rng);
        let ids = [3usize, 7, 1, 12, 5, 9];
        // Initialize the activation quantizers via one full forward, then
        // compare the last-position logits against the incremental path.
        let full = m.forward(&ids);
        let last = ids.len() - 1;
        let pool = crate::BlockPool::new(crate::BlockAllocator::f32(1 << 20, 4, m.width()));
        let mut state = m.new_paged_state();
        let mut dec = Tensor::zeros([1, 1]);
        for &t in &ids {
            dec = m.decode_batch_paged_with(&[t], &mut [&mut state], &pool, &ExecEngine::serial());
        }
        for j in 0..cfg.vocab {
            assert!(
                (full.at(&[last, j]) - dec.at(&[0, j])).abs() < 1e-4,
                "logit {j}: {} vs {}",
                full.at(&[last, j]),
                dec.at(&[0, j])
            );
        }
        assert_eq!(state.position(), ids.len());
        state.release(&mut pool.lock());
    }

    #[test]
    fn lm_shapes_and_causality() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ModelConfig::tiny(PsumMode::Exact);
        let mut m = DecoderLm::new(&cfg, &mut rng);
        let l1 = m.forward(&[1, 2, 3, 4]);
        assert_eq!(l1.dims(), &[4, 16]);
        // Changing the last token must not change the first position's
        // logits (causality through the whole stack).
        let mut m2 = m.clone();
        let l2 = m2.forward(&[1, 2, 3, 9]);
        for j in 0..16 {
            assert!((l1.at(&[0, j]) - l2.at(&[0, j])).abs() < 1e-4);
        }
    }
}
