//! Wall-clock concurrency stress for the shared block pool: many
//! workers decode shared-prefix overcommit traffic under continuous
//! batching — maximum lock churn on the allocator (appends, CoW,
//! hash-cons adoption, release) while gathers run lock-free — and the
//! completion fingerprint must equal the one a **virtual-time lockstep**
//! run produces for the same seed. Concurrency may change when work
//! runs, never what bits come out.
//!
//! The lockstep driver mirrors the closed-loop client recipe of
//! `apsq_serve::LoadGenerator` (per-client RNG streams, a fixed shared
//! prompt, greedy token feedback) but drives a
//! [`SloPolicy::virtual_time`] server through [`ServerHandle::tick`], so
//! its schedule is a pure function of the traffic — worker count and
//! thread timing cannot touch it.

use apsq_serve::{
    BatchPolicy, LoadGenerator, Payload, Precision, Request, Scenario, ServeConfig, Server,
    SloPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mirrors the loadgen request-id layout: `id = client * STRIDE + seq`.
const CLIENT_STRIDE: u64 = 1 << 20;
/// Mirrors the loadgen session-id base.
const SESSION_BASE: u64 = 1_000;
const SEED: u64 = 0x57E5_5EED;
const CLIENTS: usize = 6;
const PREFIX: usize = 8;
const STEPS: usize = 12;

/// One FNV-1a fold step (the same recipe `Response::digest` folds with).
fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Order-independent fingerprint over `(id, digest)` pairs — identical
/// to the `LoadGenerator` fold.
fn fingerprint(mut digests: Vec<(u64, u64)>) -> u64 {
    digests.sort_unstable();
    digests
        .iter()
        .fold(0xcbf29ce484222325, |h, &(id, d)| fnv1a(fnv1a(h, id), d))
}

/// Worker count for the wall-clock side: `APSQ_STRESS_WORKERS`, default 4.
fn stress_workers() -> usize {
    std::env::var("APSQ_STRESS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// The shared-prefix overcommit config: a byte budget for 3 worst-case
/// sessions carries 6 clients because identical prompts collapse onto
/// shared blocks.
fn overcommit_cfg(precision: Precision) -> ServeConfig {
    let mut cfg = ServeConfig::smoke();
    cfg.model.d_model = 32;
    cfg.model.d_ff = 64;
    cfg.model.heads = 2;
    cfg.model.vocab = 16;
    cfg.model.max_len = 16;
    cfg.prefill_max_macs = 5_000;
    cfg.kv_block_tokens = 4;
    cfg.precision = precision;
    cfg.kv_budget_bytes = 3 * cfg.model.kv_bytes_per_session(precision);
    cfg.queue_capacity = 32;
    cfg
}

struct Client {
    issued: usize,
    last_token: usize,
    rng: StdRng,
}

/// The next token client `ci` sends: fixed shared prompt, then a seeded
/// first draw, then greedy feedback — byte-for-byte the loadgen recipe.
fn next_request(c: &mut Client, ci: usize, vocab: usize) -> Request {
    let id = ci as u64 * CLIENT_STRIDE + c.issued as u64;
    let token = if c.issued < PREFIX {
        (c.issued * 7 + 3) % vocab
    } else if c.issued == 0 {
        c.rng.gen_range(0..vocab)
    } else {
        c.last_token
    };
    c.issued += 1;
    Request::decode(id, SESSION_BASE + ci as u64, token)
}

/// Runs the overcommit traffic against a virtual-time lockstep server
/// and returns `(fingerprint, errors, snapshot)`.
fn lockstep_run(precision: Precision) -> (u64, u64, apsq_serve::MetricsSnapshot) {
    let mut cfg = overcommit_cfg(precision);
    cfg.workers = 1;
    cfg.slo = SloPolicy::virtual_time(8, 1, cfg.queue_capacity);
    let vocab = cfg.model.vocab;
    let (server, rx) = Server::start(&cfg);
    let handle = server.handle();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| Client {
            issued: 0,
            last_token: 0,
            rng: StdRng::seed_from_u64(SEED ^ (0x9E37 + i as u64 * 0x1_0001)),
        })
        .collect();
    let mut outstanding = 0usize;
    for (ci, c) in clients.iter_mut().enumerate() {
        handle.submit(next_request(c, ci, vocab)).unwrap();
        outstanding += 1;
    }
    let mut digests: Vec<(u64, u64)> = Vec::new();
    let mut errors = 0u64;
    let mut now = 0u64;
    while outstanding > 0 {
        now += 1;
        assert!(now < 10_000, "lockstep run failed to drain");
        handle.tick(now).unwrap();
        while let Ok(r) = rx.try_recv() {
            outstanding -= 1;
            digests.push((r.id, r.digest()));
            let ci = (r.id / CLIENT_STRIDE) as usize;
            match &r.result {
                Ok(Payload::Decode { next_token, .. }) => clients[ci].last_token = *next_token,
                Ok(_) => {}
                Err(_) => errors += 1,
            }
            if clients[ci].issued < STEPS {
                handle
                    .submit(next_request(&mut clients[ci], ci, vocab))
                    .unwrap();
                outstanding += 1;
            }
        }
    }
    let snapshot = server.shutdown();
    (fingerprint(digests), errors, snapshot)
}

/// Runs the same traffic wall-clock — `APSQ_STRESS_WORKERS` (default 4)
/// workers, continuous batching — through the stock closed-loop
/// generator.
fn wallclock_run(precision: Precision) -> apsq_serve::LoadReport {
    let workers = stress_workers();
    let cfg = overcommit_cfg(precision)
        .with_workers(workers)
        .with_batch(BatchPolicy::continuous(8));
    LoadGenerator::new(SEED, Scenario::shared_prefix_decode(CLIENTS, PREFIX, STEPS)).run(&cfg)
}

fn stress(precision: Precision) {
    let wall = wallclock_run(precision);
    let (lock_fp, lock_errors, lock_snap) = lockstep_run(precision);
    assert_eq!(
        wall.fingerprint, lock_fp,
        "{precision:?}: wall-clock concurrent decode diverged from the lockstep run"
    );
    assert_eq!(wall.errors, 0, "{precision:?}: wall-clock run errored");
    assert_eq!(lock_errors, 0, "{precision:?}: lockstep run errored");
    assert_eq!(wall.snapshot.evictions, 0, "overcommit should not evict");
    assert_eq!(lock_snap.evictions, 0, "overcommit should not evict");
    // The run actually overcommitted: more concurrent sessions than the
    // nominal worst-case byte budget admits, carried by prefix sharing.
    assert!(
        wall.snapshot.sessions_peak > wall.snapshot.sessions_capacity,
        "{precision:?}: traffic never exceeded nominal capacity ({} <= {})",
        wall.snapshot.sessions_peak,
        wall.snapshot.sessions_capacity
    );
    assert!(wall.snapshot.shared_prefix_hits > 0);
    // Contention observability: decode traffic must have taken the
    // mutation lock. f32 attention copies its pinned blocks into flat
    // rows outside the lock; int8 attention reads them in place, so it
    // gathers nothing at all.
    assert!(wall.snapshot.alloc_lock_acquisitions > 0);
    match precision {
        Precision::F32 => assert!(wall.snapshot.gathered_bytes > 0),
        Precision::Int8Apsq => assert_eq!(wall.snapshot.gathered_bytes, 0),
    }
}

#[test]
fn concurrent_decode_matches_lockstep_fingerprint_f32() {
    stress(Precision::F32);
}

#[test]
fn concurrent_decode_matches_lockstep_fingerprint_int8() {
    stress(Precision::Int8Apsq);
}

/// Reruns of the wall-clock side agree with themselves across different
/// worker counts — the fingerprint is a function of the seed only.
#[test]
fn wallclock_fingerprint_is_worker_count_independent() {
    let base = overcommit_cfg(Precision::F32).with_batch(BatchPolicy::continuous(8));
    let gen = LoadGenerator::new(SEED, Scenario::shared_prefix_decode(CLIENTS, PREFIX, STEPS));
    let one = gen.run(&base.clone().with_workers(1));
    let many = gen.run(&base.with_workers(stress_workers().max(2)));
    assert_eq!(one.fingerprint, many.fingerprint);
    assert_eq!(one.errors + many.errors, 0);
}
