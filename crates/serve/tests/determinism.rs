//! The serving determinism contract, end to end: one seed and one traffic
//! scenario must produce **bit-identical response payloads** for every
//! worker-thread count and batch-size limit — batching and scheduling
//! decisions change timing, never results.
//!
//! The closed-loop decode traffic makes this a strong test: each client
//! feeds the server's greedy `next_token` back as its next input, so a
//! single bit of divergence anywhere in the quantized decode path
//! compounds into a different token stream and a different fingerprint.

use apsq_serve::{BatchPolicy, LoadGenerator, Precision, Scenario, ServeConfig};
use std::time::Duration;

/// The response fingerprints of `decode_traffic_is_bit_identical_across_server_shapes`
/// (seed 42, `llama_decode(8, 8)`), one per precision. Agreement across
/// server shapes alone cannot catch a change that moves every shape's
/// bits together — a kernel, quantizer or fold that drifts — so the
/// values themselves are pinned. A change that is meant to alter the
/// numerics must say so and re-record them.
const F32_DECODE_FINGERPRINT: u64 = 0x158364369cd9722c;
const INT8_DECODE_FINGERPRINT: u64 = 0x5849ba36e57bd61f;

/// The same pin for `decode_traffic_is_bit_identical_across_kv_block_sizes`
/// (seed 42, `llama_decode(6, 8)`), one per precision.
const F32_BLOCK_SWEEP_FINGERPRINT: u64 = 0xfa81f0a90d2ac300;
const INT8_BLOCK_SWEEP_FINGERPRINT: u64 = 0x22de365c4aea9677;

fn base_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::smoke();
    // Small model: the test sweeps five server shapes.
    cfg.model.d_model = 32;
    cfg.model.d_ff = 64;
    cfg.model.heads = 2;
    cfg.model.vocab = 16;
    cfg.model.max_len = 16;
    cfg.prefill_max_macs = 5_000;
    cfg
}

fn shapes() -> Vec<(ServeConfig, &'static str)> {
    let base = base_cfg();
    vec![
        (
            base.clone()
                .with_workers(1)
                .with_batch(BatchPolicy::single()),
            "1 worker, batch 1",
        ),
        (
            base.clone()
                .with_workers(1)
                .with_batch(BatchPolicy::batched(8)),
            "1 worker, batch 8",
        ),
        (
            base.clone()
                .with_workers(2)
                .with_batch(BatchPolicy::batched(4)),
            "2 workers, batch 4",
        ),
        (
            base.clone()
                .with_workers(4)
                .with_batch(BatchPolicy::batched(8)),
            "4 workers, batch 8",
        ),
        (
            base.clone().with_workers(3).with_batch(BatchPolicy {
                max_batch: 2,
                max_wait: Duration::from_micros(200),
                continuous: false,
            }),
            "3 workers, batch 2, 200us wait",
        ),
        (
            base.with_workers(2).with_batch(BatchPolicy::continuous(4)),
            "2 workers, continuous batch 4",
        ),
    ]
}

/// Pure decode traffic: every response in every configuration must hash
/// to the same fingerprint, and every request must succeed — separately
/// for **both precisions**. The f32 fake-quant path and the int8+APSQ
/// integer path each own one fingerprint per seed; batching, worker
/// count, and wait policy may never perturb either.
#[test]
fn decode_traffic_is_bit_identical_across_server_shapes() {
    let scenario = Scenario::llama_decode(8, 8);
    let gen = LoadGenerator::new(42, scenario);
    let mut per_precision = Vec::new();
    for precision in [Precision::F32, Precision::Int8Apsq] {
        let mut fingerprints = Vec::new();
        for (cfg, label) in shapes() {
            let report = gen.run(&cfg.with_precision(precision));
            assert_eq!(report.ok, 64, "{label}: not all requests succeeded");
            assert_eq!(report.errors, 0, "{label}");
            assert_eq!(report.client_shed, 0, "{label}");
            fingerprints.push((report.fingerprint, label));
        }
        let first = fingerprints[0].0;
        for (fp, label) in &fingerprints {
            assert_eq!(
                *fp,
                first,
                "{} response payloads diverged between '{}' and '{}'",
                precision.name(),
                fingerprints[0].1,
                label
            );
        }
        per_precision.push(first);
    }
    // The integer datapath is a different (requantized) computation: its
    // fingerprint must be reproducible, not equal to f32's.
    assert_ne!(
        per_precision[0], per_precision[1],
        "f32 and int8 traffic produced identical fingerprints — the precision switch is dead"
    );
    assert_eq!(
        per_precision,
        [F32_DECODE_FINGERPRINT, INT8_DECODE_FINGERPRINT],
        "decode fingerprints (f32, int8) moved off their pinned values: {:#018x?}",
        per_precision
    );
}

/// KV block size is a pure memory-layout knob: replaying one seed across
/// block sizes (including sizes that do not divide the context window)
/// must yield a single fingerprint per precision. Paged attention
/// gathers blocks back into the same flat token order the contiguous
/// caches used, so the reduction order — and every bit of every logit —
/// is invariant under the paging granularity.
#[test]
fn decode_traffic_is_bit_identical_across_kv_block_sizes() {
    let scenario = Scenario::llama_decode(6, 8);
    let gen = LoadGenerator::new(42, scenario);
    let pinned = [F32_BLOCK_SWEEP_FINGERPRINT, INT8_BLOCK_SWEEP_FINGERPRINT];
    for (precision, want) in [Precision::F32, Precision::Int8Apsq]
        .into_iter()
        .zip(pinned)
    {
        let mut fingerprints = Vec::new();
        for block_tokens in [2usize, 5, 16] {
            let cfg = base_cfg()
                .with_precision(precision)
                .with_workers(2)
                .with_batch(BatchPolicy::batched(4))
                .with_kv_block_tokens(block_tokens);
            let report = gen.run(&cfg);
            assert_eq!(report.ok, 48, "block size {block_tokens}");
            assert_eq!(report.errors, 0, "block size {block_tokens}");
            fingerprints.push((report.fingerprint, block_tokens));
        }
        assert!(
            fingerprints.iter().all(|(fp, _)| *fp == fingerprints[0].0),
            "{} fingerprints diverged across KV block sizes: {fingerprints:?}",
            precision.name()
        );
        assert_eq!(
            fingerprints[0].0,
            want,
            "{} block-sweep fingerprint {:#018x} moved off its pinned value",
            precision.name(),
            fingerprints[0].0
        );
    }
}

/// Mixed decode + prefill traffic: same contract with both lanes active.
#[test]
fn mixed_traffic_is_bit_identical_across_server_shapes() {
    let scenario = Scenario::mixed(7, 10, 5);
    assert!(scenario.decode_clients() > 0);
    let gen = LoadGenerator::new(7, scenario);
    let mut fingerprints = Vec::new();
    for (cfg, label) in shapes() {
        let report = gen.run(&cfg);
        assert_eq!(report.ok, 50, "{label}");
        assert_eq!(report.errors, 0, "{label}");
        fingerprints.push((report.fingerprint, label));
    }
    assert!(
        fingerprints.iter().all(|(fp, _)| *fp == fingerprints[0].0),
        "mixed-traffic fingerprints diverged: {fingerprints:?}"
    );
}

/// A different seed must change the fingerprint (the fingerprint actually
/// depends on the traffic, not just on counts).
#[test]
fn fingerprint_depends_on_seed() {
    let cfg = base_cfg();
    let a = LoadGenerator::new(1, Scenario::llama_decode(4, 4)).run(&cfg);
    let b = LoadGenerator::new(2, Scenario::llama_decode(4, 4)).run(&cfg);
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// Overflowing a session's context window sheds deterministically: the
/// same typed errors appear in every server shape, and the fingerprint
/// (which folds error codes) still matches.
#[test]
fn context_overflow_errors_are_deterministic_too() {
    let mut base = base_cfg();
    base.model.max_len = 6;
    base.kv_block_tokens = 3;
    let scenario = Scenario::llama_decode(3, 9); // 3 steps past the window
    let gen = LoadGenerator::new(5, scenario);
    let mut fingerprints = Vec::new();
    for workers in [1usize, 4] {
        let cfg = base.clone().with_workers(workers);
        let report = gen.run(&cfg);
        assert_eq!(report.ok, 18, "{workers} workers");
        assert_eq!(report.errors, 9, "{workers} workers");
        fingerprints.push(report.fingerprint);
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
}

/// The overload determinism contract: an **open-loop** scenario whose
/// offered load exceeds capacity — so admission sheds, deadline sheds,
/// and degradation sheds all fire — must still produce one completion-set
/// fingerprint per (seed, precision) across server shapes. The lockstep
/// virtual clock quiesces the system before every scheduling decision,
/// making each shed a pure function of the submitted traffic; worker
/// count and batch policy may change timing only.
#[test]
fn open_loop_overload_is_deterministic_across_server_shapes() {
    use apsq_serve::{ArrivalProcess, OpenLoopGenerator, OverloadScenario, SloPolicy};

    let scenario = OverloadScenario::mixed_slo(
        ArrivalProcess::Bursty {
            on_ticks: 6,
            off_ticks: 6,
            lambda_on: 3.0,
            lambda_off: 0.5,
        },
        36,
    );
    let gen = OpenLoopGenerator::new(23, scenario);
    let shapes: Vec<(ServeConfig, &str)> = vec![
        (
            base_cfg().with_workers(1).with_batch(BatchPolicy::single()),
            "1 worker, batch 1",
        ),
        (
            base_cfg()
                .with_workers(2)
                .with_batch(BatchPolicy::batched(4)),
            "2 workers, batch 4",
        ),
        (
            base_cfg()
                .with_workers(4)
                .with_batch(BatchPolicy::continuous(8)),
            "4 workers, continuous batch 8",
        ),
    ];
    let mut per_precision = Vec::new();
    for precision in [Precision::F32, Precision::Int8Apsq] {
        let mut runs = Vec::new();
        for (cfg, label) in &shapes {
            let cfg = cfg
                .clone()
                .with_precision(precision)
                .with_slo(SloPolicy::virtual_time(4, 1, 12));
            let report = gen.run(&cfg);
            assert!(
                report.errors + report.client_shed > 0,
                "{label}: the scenario never overloaded — the test is vacuous"
            );
            runs.push((report, *label));
        }
        let first = &runs[0].0;
        for (report, label) in &runs[1..] {
            assert_eq!(
                report.fingerprint,
                first.fingerprint,
                "{} overload fingerprints diverged between '{}' and '{}'",
                precision.name(),
                runs[0].1,
                label
            );
            // Shed *attribution* must match too, cause by cause.
            assert_eq!(report.client_shed, first.client_shed, "{label}");
            assert_eq!(report.ok, first.ok, "{label}");
            assert_eq!(report.errors, first.errors, "{label}");
            let (a, b) = (&report.snapshot, &first.snapshot);
            assert_eq!(a.shed_queue, b.shed_queue, "{label}");
            assert_eq!(a.shed_deadline, b.shed_deadline, "{label}");
            assert_eq!(a.shed_degraded, b.shed_degraded, "{label}");
            assert_eq!(a.shed_session_capacity, b.shed_session_capacity, "{label}");
            assert_eq!(a.shed_context_overflow, b.shed_context_overflow, "{label}");
            assert_eq!(a.goodput, b.goodput, "{label}");
        }
        per_precision.push(first.fingerprint);
    }
    assert_ne!(
        per_precision[0], per_precision[1],
        "f32 and int8 overload runs produced identical fingerprints"
    );
}
