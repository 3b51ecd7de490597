//! f32 fake-quant vs int8+APSQ serving benchmark: the same closed-loop
//! llama-decode traffic (same seed, same resources, same batching) runs
//! once per [`Precision`], recording decode throughput and the PSUM
//! buffer bytes each datapath moves — written as machine-readable JSON
//! (`BENCH_quant.json`, or `--out PATH`) through the shared report
//! emitter.
//!
//! ```text
//! cargo run --release -p apsq-bench --bin quant_bench [-- --quick] [--out PATH]
//! ```
//!
//! The full run asserts the acceptance contract: the integer datapath (no
//! per-call weight fake-quant, no schedule recalibration, i8 operand
//! traffic) must decode at least as fast as the f32 fake-quant reference,
//! and a layer-level microbench records the pure per-GEMM gap. `--quick`
//! skips those wall-clock floors and asserts only deterministic facts
//! (zero errors, KV byte ratio, session residency). PSUM
//! bytes use `apsq-dataflow`'s accounting: identical word counts per
//! Algorithm 1 (traffic is invariant in `gs`), scaled by each storage
//! format's bytes-per-word β — INT32 baseline (β = 4) for the f32 path
//! vs INT8 APSQ (β = 1).

use apsq_bench::report::{f, JsonObject, Table};
use apsq_bench::serve_report::summary_table;
use apsq_dataflow::PsumFormat;
use apsq_nn::{Int8DecoderLm, Int8Linear, PsumMode, QuantLinear};
use apsq_quant::Bitwidth;
use apsq_serve::{LoadGenerator, ModelSpec, Precision, Scenario, ServeConfig};
use apsq_tensor::{ExecEngine, KernelBackend};
use std::time::Instant;

const SEED: u64 = 0xA95C_0123;

/// A serving-scale KV spec (head_dim 64) for the byte-budget scenario:
/// per-head scale exponents amortize to a ≥ 3.9× per-token reduction.
fn kv_spec() -> ModelSpec {
    let mut spec = ModelSpec::tiny_llama();
    spec.d_model = 256;
    spec.d_ff = 256;
    spec.seed = 0xCAB_5EED;
    spec
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_quant.json".to_string());

    let (clients, steps) = if quick { (8, 8) } else { (16, 48) };
    let base = ServeConfig::smoke().with_workers(2);

    let backend = KernelBackend::detect();
    println!(
        "== f32 vs int8+APSQ decode benchmark ({clients} clients x {steps} steps{}) ==",
        if quick { ", --quick" } else { "" }
    );
    println!("kernel backend: {backend} (runtime-detected)\n");

    // Same seed and traffic through both datapaths.
    let gen = LoadGenerator::new(SEED, Scenario::llama_decode(clients, steps));
    let mut r_f32 = gen.run(&base.clone().with_precision(Precision::F32));
    r_f32.scenario.push_str("_f32");
    let mut r_int8 = gen.run(&base.clone().with_precision(Precision::Int8Apsq));
    r_int8.scenario.push_str("_int8_apsq");
    assert_eq!(r_f32.errors + r_int8.errors, 0, "decode traffic errored");
    let speedup = r_int8.tokens_per_s / r_f32.tokens_per_s;

    // PSUM traffic: word counts from the served model's integer twin,
    // bytes via the storage formats' β.
    let spec = base.model;
    let gs = match spec.psum_mode {
        PsumMode::Apsq { gs, .. } => gs,
        PsumMode::Exact => 1,
    };
    let f32_model = spec.build();
    let prime: Vec<usize> = (0..spec.max_len).map(|i| i % spec.vocab).collect();
    let eng = ExecEngine::serial();
    let int8_model = Int8DecoderLm::from_decoder(&f32_model, &prime, &eng);
    let words = int8_model.psum_words_per_token();
    let bytes_int32 = words.total() as f64 * PsumFormat::int32_baseline().beta();
    let bytes_int8 = words.total() as f64 * PsumFormat::apsq_int8(gs).beta();

    // Layer microbench: one llama-ish FFN GEMM, fake-quant vs integer.
    let (us_fakequant, us_int8) = layer_microbench(if quick { 20 } else { 100 });

    // ── KV byte budget: the same budget, both precisions ──
    // Capacity is the *real* admission path (SessionManager divides the
    // budget by a fully grown session's bytes), and the closed-loop runs
    // fill it: every client holds one resident session.
    let kv = kv_spec();
    let kv_budget = (if quick { 4 } else { 8 }) * kv.kv_bytes_per_session(Precision::F32);
    let kv_base = {
        let mut c = ServeConfig::smoke()
            .with_workers(2)
            .with_kv_budget(kv_budget);
        c.model = kv;
        c
    };
    let cap_f32 = kv_base.session_capacity();
    let cap_int8 = kv_base
        .clone()
        .with_precision(Precision::Int8Apsq)
        .session_capacity();
    let bpt_f32 = Precision::F32.kv_bytes_per_token(kv.d_model, kv.heads);
    let bpt_int8 = Precision::Int8Apsq.kv_bytes_per_token(kv.d_model, kv.heads);
    let kv_byte_ratio = bpt_f32 as f64 / bpt_int8 as f64;
    let kv_steps = if quick { 4 } else { 8 };
    let mut r_kv_f32 = LoadGenerator::new(SEED ^ 0xB0B, Scenario::llama_decode(cap_f32, kv_steps))
        .run(&kv_base.clone());
    r_kv_f32.scenario.push_str("_kvbudget_f32");
    let mut r_kv_int8 =
        LoadGenerator::new(SEED ^ 0xB0B, Scenario::llama_decode(cap_int8, kv_steps))
            .run(&kv_base.clone().with_precision(Precision::Int8Apsq));
    r_kv_int8.scenario.push_str("_kvbudget_int8");

    let reports = vec![&r_f32, &r_int8, &r_kv_f32, &r_kv_int8];
    println!("{}", summary_table(&reports).render());
    let mut layer_table = Table::new(&["path", "us_per_call"]);
    layer_table.row(vec!["fake_quant_f32".into(), f(us_fakequant, 1)]);
    layer_table.row(vec!["int8_apsq".into(), f(us_int8, 1)]);
    println!("FFN layer [8, 256] x [256, 512], gs=3, k_tile=16:");
    println!("{}", layer_table.render());
    println!(
        "decode throughput: {:.1} tok/s (f32) -> {:.1} tok/s (int8+APSQ) = {speedup:.2}x",
        r_f32.tokens_per_s, r_int8.tokens_per_s
    );
    println!(
        "psum traffic per decode token: {} words -> {:.0} B (INT32 baseline) vs {:.0} B (INT8 APSQ, gs={gs})",
        words.total(),
        bytes_int32,
        bytes_int8
    );
    // Acceptance contract: the integer datapath must beat the fake-quant
    // path outright (strictly above 1.13×), and with a SIMD backend the
    // integer GEMM + APSQ fold must run the FFN layer at ≥ 3× the
    // fake-quant path (the scalar fallback only has to break even). These
    // are single-sample wall-clock comparisons, so only the full run
    // asserts them: the --quick smoke is dominated by scheduling noise and
    // asserts deterministic facts only.
    let layer_speedup = us_fakequant / us_int8;
    if !quick {
        assert!(
            speedup > 1.13,
            "int8+APSQ decode ({:.1} tok/s) fell below 1.13x the f32 fake-quant path ({:.1} tok/s)",
            r_int8.tokens_per_s,
            r_f32.tokens_per_s
        );
        let layer_floor = match backend {
            KernelBackend::Scalar => 0.85,
            _ => 3.0,
        };
        assert!(
            layer_speedup >= layer_floor,
            "integer FFN layer ({us_int8:.1} us) only {layer_speedup:.2}x the fake-quant path \
             ({us_fakequant:.1} us) on the {backend} backend — floor is {layer_floor}x"
        );
    }
    // KV acceptance contract: ≥ 3.9× fewer bytes per cached token, ≥ 3×
    // the resident sessions at an equal byte budget, actually *held*
    // resident by closed-loop traffic, at no decode-throughput loss.
    println!(
        "kv cache: {bpt_f32} B/token (f32) -> {bpt_int8} B/token (int8) = {kv_byte_ratio:.2}x; \
         budget {kv_budget} B admits {cap_f32} f32 vs {cap_int8} int8 sessions \
         (peaks {} vs {})",
        r_kv_f32.snapshot.sessions_peak, r_kv_int8.snapshot.sessions_peak
    );
    assert!(
        kv_byte_ratio >= 3.9,
        "per-token KV bytes only dropped {kv_byte_ratio:.2}x"
    );
    assert!(
        cap_int8 >= 3 * cap_f32,
        "equal budget admits {cap_int8} int8 sessions < 3x the {cap_f32} f32 sessions"
    );
    assert_eq!(r_kv_f32.snapshot.sessions_peak, cap_f32);
    assert_eq!(r_kv_int8.snapshot.sessions_peak, cap_int8);
    assert!(
        r_kv_int8.snapshot.sessions_peak >= 3 * r_kv_f32.snapshot.sessions_peak,
        "int8 resident sessions did not reach 3x the f32 residency"
    );

    let scenarios = apsq_bench::report::json_array(
        reports
            .iter()
            .map(|r| apsq_bench::serve_report::report_json(r)),
    );
    let json = JsonObject::new()
        .str("bench", "apsq_quant_decode")
        .str("kernel_backend", backend.name())
        .bool("quick", quick)
        .int("decode_clients", clients as i64)
        .int("decode_steps", steps as i64)
        .int("workers", base.workers as i64)
        .int("apsq_gs", gs as i64)
        .num("tokens_per_s_f32", r_f32.tokens_per_s)
        .num("tokens_per_s_int8_apsq", r_int8.tokens_per_s)
        .num("int8_speedup", speedup)
        .num("layer_us_fake_quant", us_fakequant)
        .num("layer_us_int8_apsq", us_int8)
        .num("layer_int8_speedup", us_fakequant / us_int8)
        .int("psum_words_per_token", words.total() as i64)
        .num("psum_bytes_per_token_int32_baseline", bytes_int32)
        .num("psum_bytes_per_token_int8_apsq", bytes_int8)
        .num(
            "psum_byte_reduction",
            PsumFormat::int32_baseline().beta() / PsumFormat::apsq_int8(gs).beta(),
        )
        .int("kv_bytes_per_token_f32", bpt_f32 as i64)
        .int("kv_bytes_per_token_int8", bpt_int8 as i64)
        .num("kv_byte_reduction", kv_byte_ratio)
        .int("kv_budget_bytes", kv_budget as i64)
        .int("kv_sessions_at_budget_f32", cap_f32 as i64)
        .int("kv_sessions_at_budget_int8", cap_int8 as i64)
        .num(
            "kv_session_multiplier",
            cap_int8 as f64 / cap_f32.max(1) as f64,
        )
        .num("kv_tokens_per_s_f32", r_kv_f32.tokens_per_s)
        .num("kv_tokens_per_s_int8", r_kv_int8.tokens_per_s)
        .str("fingerprint_f32", format!("{:016x}", r_f32.fingerprint))
        .str("fingerprint_int8", format!("{:016x}", r_int8.fingerprint))
        .raw("scenarios", scenarios)
        .render();
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
}

/// Times one batched FFN GEMM (`[8, 256] × [256, 512]`, APSQ gs=3,
/// k_tile=16) through the fake-quant path and the converted integer
/// path; returns (µs f32 fake-quant, µs int8).
fn layer_microbench(reps: usize) -> (f64, f64) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mode = PsumMode::Apsq {
        bits: Bitwidth::INT8,
        gs: 3,
        k_tile: 16,
    };
    let mut ql = QuantLinear::new(256, 512, Bitwidth::INT8, mode, &mut rng);
    let eng = ExecEngine::serial();
    let calib = apsq_tensor::randn([8, 256], 1.0, &mut rng);
    ql.calibrate(&calib, &eng);
    ql.snap_pow2();
    let il = Int8Linear::from_quant_linear(&ql);
    let x = apsq_tensor::randn([8, 256], 1.0, &mut rng);

    let time = |body: &dyn Fn() -> f32| -> f64 {
        let mut sink = 0.0f32;
        sink += body(); // warm up
                        // Benchmark timing — wall-clock by design.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        for _ in 0..reps {
            sink += body();
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        assert!(sink.is_finite());
        us
    };
    let fq = time(&|| ql.forward_inference_with(&x, &eng).data()[0]);
    let i8t = time(&|| il.forward_inference_with(&x, &eng).data()[0]);
    (fq, i8t)
}
