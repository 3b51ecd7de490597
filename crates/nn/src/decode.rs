//! The precision seam: the traits every precision's sub-layers implement,
//! the one paged decode step written against them, and the object-safe
//! decoder handle a server drives.
//!
//! A model is one tree. [`crate::TransformerBlock`], [`crate::DecoderLm`]
//! and [`crate::EncoderClassifier`] are generic over their sub-layer
//! types, and precision is a type per sub-layer: the fake-quant f32
//! [`crate::MultiHeadAttention`] / [`crate::QuantLinear`] /
//! [`crate::Linear`], or the integer [`crate::Int8MultiHeadAttention`] /
//! [`crate::Int8Linear`]. Everything around those sub-layers — the layer
//! loop, the append under the pool lock, the per-sequence attention
//! walk, the output projection, the position advance and the logits — is
//! written once, here and in the generic models.

use crate::paged::{BlockId, BlockPool, PagedKvState};
use apsq_core::BufferTraffic;
use apsq_tensor::{ExecEngine, Tensor};

/// An inference-time projection `[n, in] → [n, out]` with frozen
/// quantizers: the one matmul seam the generic models run every
/// projection, FFN and head GEMM through.
pub trait Project: Send + Sync {
    /// Inference forward over `[n, in]`; no training cache is touched.
    fn project(&self, x: &Tensor, eng: &ExecEngine) -> Tensor;

    /// PSUM-buffer words (stored and reloaded) one `m`-row call incurs:
    /// the Algorithm-1 invariant counts of an integer APSQ fold. Zero for
    /// layers whose accumulator never leaves registers, which includes
    /// every f32 layer.
    fn psum_words(&self, _m: usize) -> BufferTraffic {
        BufferTraffic::new()
    }
}

/// One precision's multi-head self-attention as the generic block sees
/// it: four projections, the full-sequence context, and the one paged
/// kernel — attend one query row over a block table.
///
/// The provided methods are the orchestration both precisions share; an
/// implementation supplies only the parts that depend on its datapath.
pub trait Attention: Send + Sync {
    /// The type of the four projections.
    type Proj: Project;
    /// Buffers [`Self::attend_paged_row`] reuses across the rows of one
    /// decode step (created once per step).
    type Scratch: Default;

    /// Attention heads.
    fn heads(&self) -> usize;

    /// The projections `[wq, wk, wv, wo]`.
    fn projections(&self) -> [&Self::Proj; 4];

    /// The `[T, d]` attention context of a whole sequence from its
    /// projected `[T, d]` queries, keys and values, causally masked when
    /// the layer is causal. The full-sequence oracle paged decode is
    /// pinned to.
    fn attend_sequence(&self, q: &Tensor, k: &Tensor, v: &Tensor, eng: &ExecEngine) -> Tensor;

    /// The paged kernel: attends one projected `[d]` query row over the
    /// first `t` tokens of a block table in `pool` and writes its `[d]`
    /// context row to `ctx`. It reads the blocks through the pool's
    /// lock-free gather into `scratch`, so no allocator lock is held
    /// while it computes. Returns the PSUM traffic its attention GEMMs
    /// incurred.
    #[allow(clippy::too_many_arguments)]
    fn attend_paged_row(
        &self,
        q: &[f32],
        blocks: &[BlockId],
        t: usize,
        pool: &BlockPool,
        eng: &ExecEngine,
        scratch: &mut Self::Scratch,
        ctx: &mut [f32],
    ) -> BufferTraffic;

    /// Analytic PSUM words the attention GEMMs incur for one decode row
    /// at context length `t`. Zero unless they fold through APSQ.
    fn attn_psum_words(&self, _t: usize) -> BufferTraffic {
        BufferTraffic::new()
    }

    /// Inference-only forward over `[T, d]`: frozen quantizers, no
    /// training caches.
    fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let [wq, wk, wv, wo] = self.projections();
        let (q, k, v) = (wq.project(x, eng), wk.project(x, eng), wv.project(x, eng));
        wo.project(&self.attend_sequence(&q, &k, &v, eng), eng)
    }

    /// The batched paged decode step over `[B, d]`, one query row per
    /// sequence; each sequence's K/V for this layer live in `layer`'s
    /// block table of its [`PagedKvState`].
    ///
    /// The Q/K/V projections run once over the whole stack. Every row's
    /// K/V is then appended under **one short lock** on the shared pool
    /// (allocating or copying-on-write blocks as needed). Each sequence
    /// then attends its own block table through
    /// [`Self::attend_paged_row`], with no lock held, and the output
    /// projection runs once over the stacked context. Returns the output
    /// and the PSUM traffic of the attention GEMMs across the batch.
    ///
    /// Every engine kernel reduces each output element in a fixed order
    /// independent of the batch partition, and the attention kernel is
    /// per row, so row `b` is bit-identical to running that sequence
    /// alone and to row `t` of [`Self::forward_inference_with`] over its
    /// whole prefix — for every block size, thread count and worker
    /// count.
    ///
    /// Positions are read from the states but **not** advanced; the
    /// decoder advances once after all layers of the step.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[B, d]` with one state per row, or the block
    /// pool is exhausted.
    fn forward_decode_batch_paged_traced(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &BlockPool,
        states: &mut [&mut PagedKvState],
        eng: &ExecEngine,
    ) -> (Tensor, BufferTraffic) {
        let (b, d) = (x.dims()[0], x.dims()[1]);
        assert_eq!(b, states.len(), "one paged KV state per batched sequence");
        let [wq, wk, wv, wo] = self.projections();
        let (q, k, v) = (wq.project(x, eng), wk.project(x, eng), wv.project(x, eng));
        {
            let mut alloc = pool.lock();
            let rows = k.data().chunks_exact(d).zip(v.data().chunks_exact(d));
            for (state, (k_row, v_row)) in states.iter_mut().zip(rows) {
                state.append_row(layer, &mut alloc, k_row, v_row);
            }
        }
        let mut traffic = BufferTraffic::new();
        let mut ctx = Tensor::zeros([b, d]);
        let mut scratch = Self::Scratch::default();
        let rows = q
            .data()
            .chunks_exact(d)
            .zip(ctx.data_mut().chunks_exact_mut(d));
        for (state, (q_row, ctx_row)) in states.iter().zip(rows) {
            // This step's row is appended but `advance` has not run.
            let t = state.position() + 1;
            let blocks = state.layer_blocks(layer);
            traffic += self.attend_paged_row(q_row, blocks, t, pool, eng, &mut scratch, ctx_row);
        }
        (wo.project(&ctx, eng), traffic)
    }

    /// PSUM words one `m`-row call incurs across the four projections.
    fn psum_words(&self, m: usize) -> BufferTraffic {
        let mut words = BufferTraffic::new();
        for p in self.projections() {
            words += p.psum_words(m);
        }
        words
    }
}

/// A decoder a server drives without knowing its precision. The trait is
/// object safe, so one `Box<dyn PagedDecoder>` holds either datapath; it
/// is implemented once, on the generic [`crate::DecoderLm`].
pub trait PagedDecoder: Send + Sync {
    /// [`crate::DecoderLm::decode_batch_paged_with`]: one token per
    /// sequence in, `[B, vocab]` next-token logits out, each state
    /// advanced by one position.
    fn decode_paged(
        &self,
        tokens: &[usize],
        states: &mut [&mut PagedKvState],
        pool: &BlockPool,
        eng: &ExecEngine,
    ) -> Tensor;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockAllocator, Int8MultiHeadAttention, MultiHeadAttention, PsumMode};
    use apsq_quant::Bitwidth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Feeds `x`'s rows one step at a time through the shared paged step
    /// on a one-layer pool and checks each output row against the same
    /// row of the full-sequence forward, bit for bit, and each step's
    /// traced traffic against the analytic count.
    fn assert_step_matches_sequence<A: Attention>(attn: &A, pool: &BlockPool, x: &Tensor) {
        let (t, d) = (x.dims()[0], x.dims()[1]);
        let full = attn.forward_inference_with(x, &ExecEngine::serial());
        let eng = ExecEngine::with_threads(3).with_spawn_threshold(0);
        let mut state = PagedKvState::for_layers(1);
        for i in 0..t {
            let row = Tensor::from_vec(x.data()[i * d..(i + 1) * d].to_vec(), [1, d]);
            let (y, traffic) =
                attn.forward_decode_batch_paged_traced(&row, 0, pool, &mut [&mut state], &eng);
            state.advance();
            assert_eq!(y.data(), &full.data()[i * d..(i + 1) * d], "row {i}");
            assert_eq!(traffic, attn.attn_psum_words(i + 1), "row {i} traffic");
        }
        state.release(&mut pool.lock());
    }

    #[test]
    fn paged_step_reproduces_the_sequence_forward_at_both_precisions() {
        let (d, heads, t) = (16, 4, 7);
        let mode = PsumMode::Apsq {
            bits: Bitwidth::INT8,
            gs: 2,
            k_tile: 4,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut attn = MultiHeadAttention::new(d, heads, Bitwidth::INT8, mode, true, &mut rng);
        let calib = apsq_tensor::randn([t, d], 1.0, &mut rng);
        let _ = attn.forward(&calib);
        let int8 = Int8MultiHeadAttention::from_float(&attn, &calib, &ExecEngine::serial());
        let x = apsq_tensor::randn([t, d], 1.0, &mut rng);
        for block_tokens in [1, 3] {
            let f32_pool = BlockPool::new(BlockAllocator::f32(1 << 16, block_tokens, d));
            assert_step_matches_sequence(&attn, &f32_pool, &x);
            let i8_pool = BlockPool::new(BlockAllocator::int8(1 << 16, block_tokens, d, heads));
            assert_step_matches_sequence(&int8, &i8_pool, &x);
        }
    }
}
