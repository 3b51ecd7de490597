//! Property tests for the paged KV datapath: decoding through
//! [`BlockAllocator`] block tables must be **bit-identical** to the
//! full-sequence `forward_inference_with` recompute — for random shapes,
//! block sizes, engine thread counts, and both precisions — and a
//! copy-on-write fork must be bit-identical to a full recompute of the
//! same tokens. Both decode properties go through `&dyn PagedDecoder`,
//! the call the server makes.
//!
//! The invariant: a block-table gather reconstructs byte-for-byte the
//! flat `[t, d]` K/V rows the full forward computes for that prefix, and
//! the int8 paged store quantizes appends through the same per-(token,
//! head) covering-scale recipe the int8 full forward applies. A gather
//! that reordered tokens, a block boundary that split a reduction, or a
//! CoW copy that dropped filled rows would all break these assertions.

use apsq_nn::{
    BlockAllocator, BlockPool, DecoderLm, Int8DecoderLm, ModelConfig, PagedDecoder, PsumMode,
};
use apsq_quant::Bitwidth;
use apsq_tensor::{ExecEngine, Tensor};
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
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a6ed);
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

/// An f32 block pool with room for `sessions` sequences of `len` tokens.
fn f32_pool(m: &DecoderLm, block_tokens: usize, len: usize, sessions: usize) -> BlockPool {
    let blocks = sessions * m.num_layers() * len.div_ceil(block_tokens);
    BlockPool::new(BlockAllocator::f32(
        blocks * BlockAllocator::f32_bytes_per_block(block_tokens, m.width()),
        block_tokens,
        m.width(),
    ))
}

/// Row `t` of a `[T, vocab]` logits tensor as a `[1, vocab]` tensor.
fn row(logits: &Tensor, t: usize) -> Tensor {
    let vocab = logits.dims()[1];
    Tensor::from_vec(
        logits.data()[t * vocab..(t + 1) * vocab].to_vec(),
        [1, vocab],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decoding through f32 block tables yields, at every step `t`,
    /// exactly the bits of row `t` of the full-sequence forward — for
    /// every block size and thread count.
    #[test]
    fn f32_paged_decode_is_bit_identical_to_full_recompute(
        seed in any::<u64>(),
        heads in 1usize..4,
        layers in 1usize..3,
        len in 2usize..10,
        block_tokens in 1usize..9,
        apsq in any::<bool>(),
        gs in 1usize..5,
        threads in 1usize..5,
    ) {
        let (m, cfg) = primed_model(seed, heads, layers, psum_mode(apsq, gs, 8));
        let ids = random_ids(seed, len, cfg.vocab);
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);

        let full = m.forward_inference_with(&ids, &ExecEngine::serial());
        let pool = f32_pool(&m, block_tokens, len, 1);
        let mut paged = m.new_paged_state();
        let dec: &dyn PagedDecoder = &m;
        for (t, &tok) in ids.iter().enumerate() {
            let got = dec.decode_paged(&[tok], &mut [&mut paged], &pool, &eng);
            prop_assert_eq!(&got, &row(&full, t), "step {} token {}", t, tok);
        }
        prop_assert_eq!(paged.position(), ids.len());
        let mut alloc = pool.lock();
        prop_assert_eq!(alloc.tokens_stored(), m.num_layers() * ids.len());
        paged.release(&mut alloc);
        prop_assert_eq!(alloc.blocks_in_use(), 0);
    }

    /// The int8 paged datapath reproduces the int8 full-sequence forward
    /// bit for bit: block storage quantizes appends through the same
    /// covering-scale recipe, so the gathered codes and exponents are
    /// byte-identical to the prefix the full forward attends.
    #[test]
    fn int8_paged_decode_is_bit_identical_to_full_recompute(
        seed in any::<u64>(),
        heads in 1usize..4,
        len in 2usize..8,
        block_tokens in 1usize..9,
        apsq in any::<bool>(),
        gs in 1usize..5,
        threads in 1usize..5,
    ) {
        let (m, cfg) = primed_model(seed, heads, 2, psum_mode(apsq, gs, 8));
        let ids = random_ids(seed, len, cfg.vocab);
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &random_ids(seed, 12, cfg.vocab), &eng);
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);

        let full = im.forward_inference_with(&ids, &ExecEngine::serial());
        let blocks = im.num_layers() * len.div_ceil(block_tokens);
        let pool = BlockPool::new(BlockAllocator::int8(
            blocks * BlockAllocator::int8_bytes_per_block(block_tokens, im.width(), im.heads()),
            block_tokens,
            im.width(),
            im.heads(),
        ));
        let mut paged = im.new_paged_state();
        let dec: &dyn PagedDecoder = &im;
        for (t, &tok) in ids.iter().enumerate() {
            let got = dec.decode_paged(&[tok], &mut [&mut paged], &pool, &eng);
            prop_assert_eq!(&got, &row(&full, t), "step {} token {}", t, tok);
        }
        let mut alloc = pool.lock();
        paged.release(&mut alloc);
        prop_assert_eq!(alloc.blocks_in_use(), 0);
    }

    /// The append step is shared by both precisions, so block accounting
    /// cannot depend on precision: the same token streams — two
    /// sessions decoded in lockstep, then a copy-on-write fork of the
    /// first — through an f32 pool and an int8 pool with equal block
    /// capacities leave equal block tables and equal `blocks_in_use`,
    /// `tokens_stored` and `blocks_peak`.
    #[test]
    fn block_accounting_is_identical_across_precisions(
        seed in any::<u64>(),
        heads in 1usize..4,
        prefix_len in 1usize..7,
        suffix_len in 1usize..5,
        block_tokens in 1usize..6,
    ) {
        let (m, cfg) = primed_model(seed, heads, 2, psum_mode(true, 2, 8));
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &random_ids(seed, 12, cfg.vocab), &eng);
        let streams = [
            random_ids(seed, prefix_len + suffix_len, cfg.vocab),
            random_ids(seed ^ 1, prefix_len + suffix_len, cfg.vocab),
            random_ids(seed ^ 2, suffix_len, cfg.vocab),
        ];
        let blocks = 3 * m.num_layers() * (prefix_len + suffix_len).div_ceil(block_tokens);
        let pools = [
            f32_pool(&m, block_tokens, prefix_len + suffix_len, 3),
            BlockPool::new(BlockAllocator::int8(
                blocks * BlockAllocator::int8_bytes_per_block(block_tokens, im.width(), im.heads()),
                block_tokens,
                im.width(),
                im.heads(),
            )),
        ];
        let decoders: [&dyn PagedDecoder; 2] = [&m, &im];
        let mut tables = Vec::new();
        let mut gauges = Vec::new();
        for (dec, pool) in decoders.into_iter().zip(&pools) {
            let mut a = m.new_paged_state();
            let mut b = m.new_paged_state();
            let pairs = streams[0].iter().zip(&streams[1]);
            for (&ta, &tb) in pairs.clone().take(prefix_len) {
                let _ = dec.decode_paged(&[ta, tb], &mut [&mut a, &mut b], pool, &eng);
            }
            let mut fork = a.fork(&mut pool.lock());
            for ((&ta, &tb), &tf) in pairs.skip(prefix_len).zip(&streams[2]) {
                let states = &mut [&mut a, &mut b, &mut fork];
                let _ = dec.decode_paged(&[ta, tb, tf], states, pool, &eng);
            }
            let states = [&a, &b, &fork];
            tables.push(
                states
                    .iter()
                    .flat_map(|s| (0..m.num_layers()).map(|l| s.layer_blocks(l).to_vec()))
                    .collect::<Vec<_>>(),
            );
            let mut alloc = pool.lock();
            gauges.push((alloc.blocks_in_use(), alloc.tokens_stored(), alloc.blocks_peak()));
            for s in [&mut a, &mut b, &mut fork] {
                s.release(&mut alloc);
            }
            prop_assert_eq!(alloc.blocks_in_use(), 0);
        }
        prop_assert_eq!(&tables[0], &tables[1], "block tables depend on precision");
        prop_assert_eq!(gauges[0], gauges[1], "(in use, tokens, peak) depend on precision");
    }

    /// Forking a session after a shared prefix (zero-copy, refcounted
    /// blocks) and decoding divergent suffixes through copy-on-write is
    /// bit-identical to a full-sequence recompute of each prefix + suffix
    /// token stream from scratch.
    #[test]
    fn cow_fork_is_bit_identical_to_full_recompute(
        seed in any::<u64>(),
        heads in 1usize..4,
        prefix_len in 1usize..7,
        suffix_len in 1usize..5,
        block_tokens in 1usize..6,
        threads in 1usize..4,
    ) {
        let (m, cfg) = primed_model(seed, heads, 2, psum_mode(true, 2, 8));
        let prefix = random_ids(seed, prefix_len, cfg.vocab);
        let sfx_a = random_ids(seed ^ 1, suffix_len, cfg.vocab);
        let sfx_b = random_ids(seed ^ 2, suffix_len, cfg.vocab);
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
        let total = prefix_len + suffix_len;

        // Full-recompute references: the last row over prefix + suffix.
        let mut refs = Vec::new();
        for sfx in [&sfx_a, &sfx_b] {
            let ids: Vec<usize> = prefix.iter().chain(sfx.iter()).copied().collect();
            refs.push(row(&m.forward_inference_with(&ids, &eng), total - 1));
        }

        // Paged: decode the prefix once, fork, decode both suffixes.
        let pool = f32_pool(&m, block_tokens, total, 2);
        let capacity = pool.lock().blocks_capacity();
        let mut sess_a = m.new_paged_state();
        for &tok in &prefix {
            let _ = m.decode_batch_paged_with(&[tok], &mut [&mut sess_a], &pool, &eng);
        }
        let before_fork = pool.lock().blocks_in_use();
        let mut sess_b = sess_a.fork(&mut pool.lock());
        // The fork itself allocates nothing: every block is shared.
        prop_assert_eq!(pool.lock().blocks_in_use(), before_fork);
        let mut last_a = Tensor::zeros([1, 1]);
        let mut last_b = Tensor::zeros([1, 1]);
        for i in 0..suffix_len {
            last_a = m.decode_batch_paged_with(&[sfx_a[i]], &mut [&mut sess_a], &pool, &eng);
            last_b = m.decode_batch_paged_with(&[sfx_b[i]], &mut [&mut sess_b], &pool, &eng);
        }
        prop_assert_eq!(&last_a, &refs[0], "forked session A diverged");
        prop_assert_eq!(&last_b, &refs[1], "forked session B diverged");

        // Two independent sessions would hold 2·⌈total/bt⌉ blocks per
        // layer; the forked pair still shares every full prefix block.
        let per_layer_indep = 2 * total.div_ceil(block_tokens);
        let shared_full = prefix_len / block_tokens;
        let mut alloc = pool.lock();
        prop_assert_eq!(
            alloc.blocks_in_use(),
            m.num_layers() * (per_layer_indep - shared_full),
            "prefix blocks not shared"
        );
        prop_assert!(alloc.blocks_in_use() <= capacity);
        sess_a.release(&mut alloc);
        sess_b.release(&mut alloc);
        prop_assert_eq!(alloc.blocks_in_use(), 0);
    }
}
