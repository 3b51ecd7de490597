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

/// Builds a primed tiny decoder with 8-wide heads: one training-mode
/// forward initializes the activation quantizers and PSUM observers,
/// after which the model is frozen and every inference path must agree
/// bitwise.
fn primed_model(
    seed: u64,
    heads: usize,
    layers: usize,
    psum: PsumMode,
) -> (DecoderLm, ModelConfig) {
    primed_model_with_len(seed, (heads, 8), layers, psum, 24)
}

/// [`primed_model`] with `heads` heads of `dh` columns each and a
/// `max_len`-token context window.
fn primed_model_with_len(
    seed: u64,
    (heads, dh): (usize, usize),
    layers: usize,
    psum: PsumMode,
    max_len: usize,
) -> (DecoderLm, ModelConfig) {
    let cfg = ModelConfig {
        vocab: 16,
        max_len,
        d_model: dh * heads,
        heads,
        d_ff: 2 * dh * heads,
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

/// An int8 block pool with room for `tokens` tokens per layer in total.
fn int8_pool(im: &Int8DecoderLm, block_tokens: usize, tokens: usize) -> BlockPool {
    let blocks = im.num_layers() * tokens.div_ceil(block_tokens);
    BlockPool::new(BlockAllocator::int8(
        blocks * BlockAllocator::int8_bytes_per_block(block_tokens, im.width(), im.heads()),
        block_tokens,
        im.width(),
        im.heads(),
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

/// One int8 paged-decode run: sequences of `(len, start step)` decoded
/// in one batch through `&dyn PagedDecoder`.
struct Int8Case {
    seed: u64,
    heads: usize,
    dh: usize,
    seqs: Vec<(usize, usize)>,
    block_tokens: usize,
    psum: PsumMode,
    threads: usize,
}

/// Decodes `c`'s sequences through an int8 block pool and checks every
/// step's logits against the int8 full-sequence forward, bit for bit,
/// then checks nothing was gathered and every block came back.
fn int8_paged_matches_full(c: &Int8Case) {
    let (seed, block_tokens) = (c.seed, c.block_tokens);
    let (m, cfg) = primed_model_with_len(seed, (c.heads, c.dh), 2, c.psum, 48);
    let eng = ExecEngine::serial();
    let im = Int8DecoderLm::from_decoder(&m, &random_ids(seed, 12, cfg.vocab), &eng);
    let eng = ExecEngine::with_threads(c.threads).with_spawn_threshold(0);

    let seqs = &c.seqs;
    let ids: Vec<Vec<usize>> = (0..seqs.len())
        .map(|s| random_ids(seed ^ (s as u64 + 1), seqs[s].0, cfg.vocab))
        .collect();
    let full: Vec<Tensor> = ids
        .iter()
        .map(|ids| im.forward_inference_with(ids, &ExecEngine::serial()))
        .collect();
    let total: usize = seqs
        .iter()
        .map(|&(len, _)| len.div_ceil(block_tokens))
        .sum();
    let pool = int8_pool(&im, block_tokens, total * block_tokens);
    let mut states: Vec<_> = seqs.iter().map(|_| im.new_paged_state()).collect();
    let dec: &dyn PagedDecoder = &im;
    let steps = seqs.iter().map(|&(len, start)| start + len).max().unwrap();
    for g in 0..steps {
        // Sequence s decodes its token g − start while it has one left.
        let active: Vec<usize> = (0..seqs.len())
            .filter(|&s| (seqs[s].1..seqs[s].1 + seqs[s].0).contains(&g))
            .collect();
        if active.is_empty() {
            continue;
        }
        let tokens: Vec<usize> = active.iter().map(|&s| ids[s][g - seqs[s].1]).collect();
        let mut refs: Vec<_> = states
            .iter_mut()
            .enumerate()
            .filter(|(s, _)| active.contains(s))
            .map(|(_, st)| st)
            .collect();
        let got = dec.decode_paged(&tokens, &mut refs, &pool, &eng);
        let vocab = cfg.vocab;
        for (b, &s) in active.iter().enumerate() {
            let got_row =
                Tensor::from_vec(got.data()[b * vocab..(b + 1) * vocab].to_vec(), [1, vocab]);
            let t = g - seqs[s].1;
            assert_eq!(&got_row, &row(&full[s], t), "seq {s} step {t}");
        }
    }
    assert_eq!(pool.contention().gathered_bytes, 0, "int8 decode gathered");
    let mut alloc = pool.lock();
    for st in &mut states {
        st.release(&mut alloc);
    }
    assert_eq!(alloc.blocks_in_use(), 0);
}

/// The served attention shape, every time: four 32-wide heads folded in
/// 16-deep K steps, so every Q·Kᵀ chunk is 16 columns wide (`d` = 128),
/// at block sizes that do and do not divide the 16-token steps.
#[test]
fn int8_paged_decode_matches_full_recompute_at_the_served_shape() {
    for block_tokens in [16, 5] {
        int8_paged_matches_full(&Int8Case {
            seed: 0x5E12ED,
            heads: 4,
            dh: 32,
            seqs: vec![(40, 0), (23, 3)],
            block_tokens,
            psum: psum_mode(true, 3, 16),
            threads: 1,
        });
    }
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
    /// covering-scale recipe, and attention reads the pinned blocks in
    /// place, so it folds the same PSUM tiles the full forward folds over
    /// its flat prefix. Two or three sequences of different lengths start
    /// at different steps and decode in one batch, so each batch mixes
    /// context lengths; contexts reach 40+ tokens and `k_tile` varies, so
    /// P·V runs many K steps, some straddling a block boundary, and
    /// Q·Kᵀ steps that do and do not divide the head width. Heads are 8,
    /// 16, 20 or 32 wide and `k_tile` reaches 15..17, so the served
    /// shape's 16-wide Q·Kᵀ chunks (`dh` 32, `k_tile` 16) run too.
    #[test]
    fn int8_paged_decode_is_bit_identical_to_full_recompute(
        seed in any::<u64>(),
        heads in 1usize..5,
        dh in prop_oneof![Just(8usize), Just(16), Just(20), Just(32)],
        seqs in proptest::collection::vec((1usize..44, 0usize..8), 2..4),
        block_tokens in 1usize..9,
        apsq in any::<bool>(),
        gs in 1usize..5,
        k_tile in prop_oneof![2usize..11, 15usize..18],
        threads in 1usize..5,
    ) {
        int8_paged_matches_full(&Int8Case {
            seed,
            heads,
            dh,
            seqs,
            block_tokens,
            psum: psum_mode(apsq, gs, k_tile),
            threads,
        });
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

    /// The int8 twin of [`cow_fork_is_bit_identical_to_full_recompute`]:
    /// after the fork, both sessions' attention reads the shared
    /// (refcount > 1) prefix blocks in place, and each suffix decodes
    /// bit-identically to an int8 full recompute of its token stream.
    #[test]
    fn int8_cow_fork_is_bit_identical_to_full_recompute(
        seed in any::<u64>(),
        heads in 1usize..4,
        prefix_len in 1usize..20,
        suffix_len in 1usize..6,
        block_tokens in 1usize..6,
        k_tile in 2usize..11,
        threads in 1usize..4,
    ) {
        let (m, cfg) = primed_model(seed, heads, 2, psum_mode(true, 2, k_tile));
        let im = Int8DecoderLm::from_decoder(&m, &random_ids(seed, 12, cfg.vocab), &ExecEngine::serial());
        let prefix = random_ids(seed, prefix_len, cfg.vocab);
        let sfx_a = random_ids(seed ^ 1, suffix_len, cfg.vocab);
        let sfx_b = random_ids(seed ^ 2, suffix_len, cfg.vocab);
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
        let total = prefix_len + suffix_len;

        let mut refs = Vec::new();
        for sfx in [&sfx_a, &sfx_b] {
            let ids: Vec<usize> = prefix.iter().chain(sfx.iter()).copied().collect();
            refs.push(row(&im.forward_inference_with(&ids, &ExecEngine::serial()), total - 1));
        }

        let pool = int8_pool(&im, block_tokens, 2 * total.div_ceil(block_tokens) * block_tokens);
        let mut sess_a = im.new_paged_state();
        for &tok in &prefix {
            let _ = im.decode_batch_paged_with(&[tok], &mut [&mut sess_a], &pool, &eng);
        }
        let before_fork = pool.lock().blocks_in_use();
        let mut sess_b = sess_a.fork(&mut pool.lock());
        prop_assert_eq!(pool.lock().blocks_in_use(), before_fork);
        let mut last = [Tensor::zeros([1, 1]), Tensor::zeros([1, 1])];
        for i in 0..suffix_len {
            // Both sessions in one batch: their shared blocks are pinned
            // twice in the same step.
            let states = &mut [&mut sess_a, &mut sess_b];
            let got = im.decode_batch_paged_with(&[sfx_a[i], sfx_b[i]], states, &pool, &eng);
            let vocab = cfg.vocab;
            for (s, out) in last.iter_mut().enumerate() {
                *out = Tensor::from_vec(got.data()[s * vocab..(s + 1) * vocab].to_vec(), [1, vocab]);
            }
        }
        prop_assert_eq!(&last[0], &refs[0], "forked session A diverged");
        prop_assert_eq!(&last[1], &refs[1], "forked session B diverged");
        prop_assert_eq!(pool.contention().gathered_bytes, 0, "int8 decode gathered");

        let per_layer_indep = 2 * total.div_ceil(block_tokens);
        let shared_full = prefix_len / block_tokens;
        let mut alloc = pool.lock();
        prop_assert_eq!(
            alloc.blocks_in_use(),
            im.num_layers() * (per_layer_indep - shared_full),
            "prefix blocks not shared"
        );
        sess_a.release(&mut alloc);
        sess_b.release(&mut alloc);
        prop_assert_eq!(alloc.blocks_in_use(), 0);
    }
}
