//! Property tests for the paged KV decode path: incremental decoding must
//! be **bit-identical** to a full-sequence recompute, and batched decoding
//! must be bit-identical to decoding each sequence alone — for random
//! shapes, head counts, depths, engines, and APSQ group sizes.
//!
//! Both properties rest on the same invariant: every engine kernel reduces
//! each output element in a fixed K order independent of how rows are
//! batched or partitioned, and every non-GEMM op (LayerNorm, GELU,
//! softmax, residual, LSQ fake-quant with frozen steps) is per-row. A
//! quantizer that silently updated state at inference, a KV store that
//! returned stale rows, or a kernel whose reduction order depended on M
//! would all break these assertions.

use apsq_nn::{BlockAllocator, BlockPool, DecoderLm, ModelConfig, PagedKvState, PsumMode};
use apsq_quant::Bitwidth;
use apsq_tensor::ExecEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a primed tiny decoder: one training-mode forward initializes the
/// activation quantizers and PSUM observers, after which the model is
/// frozen and every inference path must agree bitwise.
fn primed_model(
    seed: u64,
    heads: usize,
    layers: usize,
    psum: PsumMode,
) -> (DecoderLm, ModelConfig) {
    let cfg = ModelConfig {
        vocab: 16,
        max_len: 24,
        d_model: 8 * heads,
        heads,
        d_ff: 16 * heads,
        layers,
        bits: Bitwidth::INT8,
        psum_mode: psum,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = DecoderLm::new(&cfg, &mut rng);
    let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
    let _ = m.forward(&prime);
    (m, cfg)
}

fn random_ids(seed: u64, len: usize, vocab: usize) -> Vec<usize> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    (0..len).map(|_| rng.gen_range(0..vocab)).collect()
}

fn psum_mode(apsq: bool, gs: usize, k_tile: usize) -> PsumMode {
    if apsq {
        PsumMode::Apsq {
            bits: Bitwidth::INT8,
            gs,
            k_tile,
        }
    } else {
        PsumMode::Exact
    }
}

/// An f32 block pool with room for `sessions` full-`max_len` sequences
/// of `m`, in 4-token blocks.
fn f32_pool(m: &DecoderLm, sessions: usize) -> BlockPool {
    let blocks = sessions * m.num_layers() * m.max_len().div_ceil(4);
    BlockPool::new(BlockAllocator::f32(
        blocks * BlockAllocator::f32_bytes_per_block(4, m.width()),
        4,
        m.width(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feeding a sequence token-by-token through paged KV blocks yields,
    /// at every step, exactly the bits the full-sequence inference
    /// forward computes for that position.
    #[test]
    fn incremental_decode_is_bit_identical_to_full_recompute(
        seed in any::<u64>(),
        heads in 1usize..4,
        layers in 1usize..3,
        len in 2usize..10,
        apsq in any::<bool>(),
        gs in 1usize..5,
        k_tile in 2usize..9,
    ) {
        let (m, cfg) = primed_model(seed, heads, layers, psum_mode(apsq, gs, k_tile));
        let ids = random_ids(seed, len, cfg.vocab);
        let eng = ExecEngine::serial();
        let full = m.forward_inference_with(&ids, &eng);
        let pool = f32_pool(&m, 1);
        let mut state = m.new_paged_state();
        for (t, &tok) in ids.iter().enumerate() {
            let step = m.decode_batch_paged_with(&[tok], &mut [&mut state], &pool, &eng);
            prop_assert_eq!(step.dims(), &[1, cfg.vocab]);
            for j in 0..cfg.vocab {
                let f = full.at(&[t, j]);
                let d = step.at(&[0, j]);
                prop_assert!(
                    f.to_bits() == d.to_bits(),
                    "step {t} logit {j}: full {f:?} != decode {d:?}"
                );
            }
        }
        prop_assert_eq!(state.position(), ids.len());
    }

    /// A batched decode step returns, in row `b`, exactly the bits that
    /// sequence would get decoding alone — for any batch size, thread
    /// count, and per-sequence history length.
    #[test]
    fn batched_decode_is_bit_identical_to_sequential(
        seed in any::<u64>(),
        heads in 1usize..4,
        batch in 1usize..6,
        steps in 1usize..5,
        apsq in any::<bool>(),
        gs in 1usize..5,
        threads in 1usize..5,
    ) {
        let (m, cfg) = primed_model(seed, heads, 2, psum_mode(apsq, gs, 8));
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
        let serial = ExecEngine::serial();

        // Give each sequence a distinct history length by pre-decoding
        // `b % 3` extra tokens, then run `steps` batched rounds. Batched
        // and lone sessions share one pool, as concurrent sessions do.
        let pool = f32_pool(&m, 2 * batch);
        let mut batched: Vec<PagedKvState> = (0..batch).map(|_| m.new_paged_state()).collect();
        let mut lone: Vec<PagedKvState> = (0..batch).map(|_| m.new_paged_state()).collect();
        for b in 0..batch {
            for &tok in &random_ids(seed ^ b as u64, b % 3, cfg.vocab) {
                let _ = m.decode_batch_paged_with(&[tok], &mut [&mut batched[b]], &pool, &eng);
                let _ = m.decode_batch_paged_with(&[tok], &mut [&mut lone[b]], &pool, &serial);
            }
        }
        for s in 0..steps {
            let tokens: Vec<usize> =
                (0..batch).map(|b| (seed as usize + s * 7 + b * 3) % cfg.vocab).collect();
            let mut states: Vec<&mut PagedKvState> = batched.iter_mut().collect();
            let out = m.decode_batch_paged_with(&tokens, &mut states, &pool, &eng);
            prop_assert_eq!(out.dims(), &[batch, cfg.vocab]);
            for b in 0..batch {
                let alone =
                    m.decode_batch_paged_with(&[tokens[b]], &mut [&mut lone[b]], &pool, &serial);
                for j in 0..cfg.vocab {
                    prop_assert!(
                        out.at(&[b, j]).to_bits() == alone.at(&[0, j]).to_bits(),
                        "round {s} row {b} logit {j}: batched {:?} != alone {:?}",
                        out.at(&[b, j]),
                        alone.at(&[0, j])
                    );
                }
                prop_assert_eq!(batched[b].position(), lone[b].position());
            }
        }
    }
}
