//! Closed-loop serving benchmark over `apsq-serve`: the llama decode
//! scenario at batch-size-1 vs dynamic batching (same resources, same
//! seed, same traffic), continuous vs barrier-style batching, a mixed
//! bert/segformer/llama scenario, and a shared-prefix residency run on
//! the paged int8 KV cache — recorded as machine-readable JSON
//! (`BENCH_serve.json`, or `--out PATH`) through the shared report
//! emitter.
//!
//! ```text
//! cargo run --release -p apsq-bench --bin serve_bench [-- --quick] [--out PATH]
//! ```
//!
//! Because runs that replay identical traffic must produce identical
//! response payloads, the benchmark doubles as an end-to-end check of the
//! determinism contract: batch-1 vs batched and barrier vs continuous
//! fingerprints are asserted equal. The shared-prefix run asserts the
//! paged cache actually packs ≥1.5× the nominal worst-case session
//! capacity without evicting or shedding.
//!
//! The wall-clock throughput floors (continuous vs barrier, multi-worker
//! scaling) are single-sample timing comparisons, so only the full run
//! asserts them; `--quick` is a smoke run that asserts deterministic
//! facts only (fingerprints, zero errors, residency).

use apsq_bench::report::JsonObject;
use apsq_bench::serve_report::{
    contention_table, kv_blocks_table, latency_table, occupancy_table, report_json, summary_table,
};
use apsq_serve::{BatchPolicy, LoadGenerator, LoadReport, Precision, Scenario, ServeConfig};
use std::time::Duration;

const SEED: u64 = 0xA95C_BEEF;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let (clients, steps, mixed_steps) = if quick { (8, 8, 4) } else { (16, 48, 16) };
    let mut base = ServeConfig::smoke();
    base.workers = 2;
    base.engine_threads = 1;
    base.prefill_max_macs = if quick { 30_000 } else { 200_000 };
    let max_batch = 8;

    println!(
        "== apsq-serve load benchmark ({} decode clients x {steps} steps{}) ==",
        clients,
        if quick { ", --quick" } else { "" }
    );
    println!(
        "kernel backend: {} (runtime-detected)\n",
        apsq_tensor::KernelBackend::detect()
    );

    let decode = LoadGenerator::new(SEED, Scenario::llama_decode(clients, steps));
    let mut b1 = decode.run(&base.clone().with_batch(BatchPolicy::single()));
    b1.scenario.push_str("_batch1");
    let mut batched = decode.run(&base.clone().with_batch(BatchPolicy::batched(max_batch)));
    batched.scenario.push_str(&format!("_batch{max_batch}"));
    assert_eq!(
        b1.fingerprint, batched.fingerprint,
        "batching changed response payloads — determinism contract broken"
    );
    assert_eq!(b1.errors + batched.errors, 0, "decode traffic errored");
    let speedup = batched.tokens_per_s / b1.tokens_per_s;

    // Continuous vs barrier on the same traffic, swept across worker
    // counts: at every point the barrier policy's max_batch exceeds the
    // client count, so every dispatch waits out the full coalescing
    // window with workers idle; continuous dispatches the moment a
    // worker frees up and still coalesces whatever resubmitted
    // meanwhile. Since decode gathers and GEMMs run with no allocator
    // lock held, adding workers lets continuous batches overlap —
    // payloads must stay bit-identical at every point regardless.
    let wide = 2 * clients;
    struct SweepPoint {
        workers: usize,
        barrier: LoadReport,
        continuous: LoadReport,
    }
    let parallel_hw = std::thread::available_parallelism()
        .map(|n| n.get() >= 2)
        .unwrap_or(false);
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut barrier = decode.run(&base.clone().with_workers(workers).with_batch(BatchPolicy {
            max_batch: wide,
            max_wait: Duration::from_millis(2),
            continuous: false,
        }));
        barrier.scenario.push_str(&format!("_barrier_w{workers}"));
        let mut continuous = decode.run(
            &base
                .clone()
                .with_workers(workers)
                .with_batch(BatchPolicy::continuous(wide)),
        );
        continuous
            .scenario
            .push_str(&format!("_continuous_w{workers}"));
        assert_eq!(
            barrier.fingerprint, continuous.fingerprint,
            "continuous batching changed response payloads at {workers} workers"
        );
        assert_eq!(
            barrier.fingerprint, b1.fingerprint,
            "traffic diverged at {workers} workers"
        );
        // Continuous does ~2× the dispatches of the wide barrier, so now
        // that the SIMD kernels shrank per-step GEMM time the structural
        // gap is narrower and scheduling noise can briefly flip the two
        // — hence the small noise floor. On a single hardware thread,
        // multiple workers only add time-slicing overhead that falls
        // disproportionately on continuous's extra dispatches, so the
        // multi-worker floor loosens there. Recorded runs keep
        // continuous ahead (the per-point ratio lands in
        // BENCH_serve.json).
        let floor = if workers == 1 || parallel_hw {
            0.9
        } else {
            0.7
        };
        assert!(
            quick || continuous.tokens_per_s >= floor * barrier.tokens_per_s,
            "continuous batching fell well behind the coalescing barrier at {workers} workers: \
             {:.1} < {:.1} tok/s (floor {floor})",
            continuous.tokens_per_s,
            barrier.tokens_per_s
        );
        sweep.push(SweepPoint {
            workers,
            barrier,
            continuous,
        });
    }
    let continuous_1w = sweep[0].continuous.tokens_per_s;
    let best_multi = sweep[1..]
        .iter()
        .map(|p| p.continuous.tokens_per_s)
        .fold(f64::MIN, f64::max);
    let multi_worker_scaling = best_multi / continuous_1w;
    if parallel_hw {
        // Lock-free gathers mean multi-worker continuous decode must
        // actually scale once the hardware can run workers in parallel.
        assert!(
            quick || multi_worker_scaling >= 1.3,
            "multi-worker continuous decode scaled only {multi_worker_scaling:.2}x over 1 worker \
             (floor 1.3x on parallel hardware)"
        );
    } else {
        // A single hardware thread time-slices the workers, so extra
        // workers cannot add throughput; require they don't collapse it.
        assert!(
            quick || multi_worker_scaling >= 0.85,
            "multi-worker continuous decode regressed to {multi_worker_scaling:.2}x of 1 worker \
             on serial hardware (floor 0.85x)"
        );
    }
    let continuous_speedup = sweep[0].continuous.tokens_per_s / sweep[0].barrier.tokens_per_s;

    let mixed = LoadGenerator::new(SEED, Scenario::mixed(SEED, clients, mixed_steps))
        .run(&base.clone().with_batch(BatchPolicy::batched(max_batch)));

    // Shared-prefix residency on the paged int8 cache: a byte budget
    // sized for clients/2 worst-case sessions carries all `clients`
    // sessions because their identical prompts collapse onto shared
    // blocks. `sessions_peak / sessions_capacity` is the residency win.
    let int8_sessions = clients / 2;
    let shared_cfg = base
        .clone()
        .with_precision(Precision::Int8Apsq)
        .with_batch(BatchPolicy::continuous(max_batch))
        .with_kv_block_tokens(4)
        .with_kv_budget(int8_sessions * base.model.kv_bytes_per_session(Precision::Int8Apsq));
    let shared = LoadGenerator::new(SEED, Scenario::shared_prefix_decode(clients, steps, steps))
        .run(&shared_cfg);
    assert_eq!(
        shared.errors + shared.snapshot.evictions,
        0,
        "shared-prefix overcommit shed or evicted"
    );
    let resident_ratio =
        shared.snapshot.sessions_peak as f64 / shared.snapshot.sessions_capacity as f64;
    assert!(
        resident_ratio >= 1.5,
        "shared-prefix residency {resident_ratio:.2}x below the 1.5x floor"
    );

    let mut reports: Vec<&LoadReport> = vec![&b1, &batched];
    for p in &sweep {
        reports.push(&p.barrier);
        reports.push(&p.continuous);
    }
    reports.push(&mixed);
    reports.push(&shared);
    println!("{}", summary_table(&reports).render());
    println!("KV block pool:");
    println!("{}", kv_blocks_table(&reports).render());
    println!("block-pool lock contention:");
    println!("{}", contention_table(&reports).render());
    println!("batched decode latency by lane:");
    println!("{}", latency_table(&batched).render());
    println!("batched decode batch occupancy:");
    println!("{}", occupancy_table(&batched).render());
    println!(
        "llama decode throughput: {:.1} tok/s (batch 1) -> {:.1} tok/s (batch {max_batch}) = {speedup:.2}x",
        b1.tokens_per_s, batched.tokens_per_s
    );
    for p in &sweep {
        println!(
            "continuous vs barrier @ {} worker(s): {:.1} vs {:.1} tok/s = {:.2}x",
            p.workers,
            p.continuous.tokens_per_s,
            p.barrier.tokens_per_s,
            p.continuous.tokens_per_s / p.barrier.tokens_per_s
        );
    }
    println!(
        "multi-worker continuous scaling: best {best_multi:.1} vs {continuous_1w:.1} tok/s at 1 \
         worker = {multi_worker_scaling:.2}x ({})",
        if parallel_hw {
            "parallel hardware"
        } else {
            "serial hardware"
        }
    );
    println!(
        "shared-prefix int8 residency: {} sessions in a {}-session budget = {resident_ratio:.2}x",
        shared.snapshot.sessions_peak, shared.snapshot.sessions_capacity
    );
    println!(
        "fingerprints identical across batching configs: {:016x}",
        b1.fingerprint
    );

    let scenarios = apsq_bench::report::json_array(reports.iter().map(|r| report_json(r)));
    let worker_sweep = apsq_bench::report::json_array(sweep.iter().map(|p| {
        JsonObject::new()
            .int("workers", p.workers as i64)
            .num("tokens_per_s_barrier", p.barrier.tokens_per_s)
            .num("tokens_per_s_continuous", p.continuous.tokens_per_s)
            .num(
                "continuous_speedup",
                p.continuous.tokens_per_s / p.barrier.tokens_per_s,
            )
            .int(
                "alloc_lock_acquisitions",
                p.continuous.snapshot.alloc_lock_acquisitions as i64,
            )
            .int(
                "alloc_lock_wait_us",
                p.continuous.snapshot.alloc_lock_wait_us as i64,
            )
            .int(
                "alloc_lock_hold_max_us",
                p.continuous.snapshot.alloc_lock_hold_max_us as i64,
            )
            .int(
                "gathered_bytes",
                p.continuous.snapshot.gathered_bytes as i64,
            )
            .render()
    }));
    let json = JsonObject::new()
        .str("bench", "apsq_serve_loadgen")
        .str(
            "kernel_backend",
            apsq_tensor::KernelBackend::detect().name(),
        )
        .bool("quick", quick)
        .int("decode_clients", clients as i64)
        .int("decode_steps", steps as i64)
        .int("workers", base.workers as i64)
        .int("max_batch", max_batch as i64)
        .num("tokens_per_s_batch1", b1.tokens_per_s)
        .num("tokens_per_s_batched", batched.tokens_per_s)
        .num("batched_speedup", speedup)
        .num("tokens_per_s_barrier", sweep[0].barrier.tokens_per_s)
        .num("tokens_per_s_continuous", sweep[0].continuous.tokens_per_s)
        .num("continuous_speedup", continuous_speedup)
        .num("multi_worker_scaling", multi_worker_scaling)
        .bool("parallel_hardware", parallel_hw)
        .raw("worker_sweep", worker_sweep)
        .num("shared_prefix_resident_ratio", resident_ratio)
        .int(
            "shared_prefix_hits",
            shared.snapshot.shared_prefix_hits as i64,
        )
        .bool("fingerprints_match_across_batching", true)
        .raw("scenarios", scenarios)
        .render();
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
}
