//! End-to-end serving benchmark for `apsq-serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <long_ctx_int8|short_chat_f32|open_loop_int8> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One thread drives a fresh server per episode until `--seconds` have
//! passed, checks every successful response against the same seeded
//! traffic replayed directly through `decode_batch_paged_with`, and
//! prints one JSON result as its last line: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. The traced run also
//! writes its request and layer spans under `perfbench/results/`.

// lint: allow-file(float-reduction-outside-kernels) -- benchmark statistics over measured times and counts; no served result depends on their summation order
// A benchmark reads the wall clock by design, and its hash maps are only
// looked up (or sorted before they are folded), never iterated into output.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod drive;
mod layers;
mod replay;
mod report;
mod stats;
mod workloads;

use apsq_dataflow::PsumFormat;
use apsq_models::{bert_base_128, execute_workloads, llama_prefill, segformer_b0_512, LlamaConfig};
use apsq_nn::{Int8DecoderLm, PsumMode};
use apsq_serve::{Payload, Precision, PrefillModel, Server};
use apsq_tensor::ExecEngine;
use drive::{Episode, Span, Timed};
use replay::{DecodeNet, Stream};
use report::{Metrics, Obj};
use stats::{median, percentile, Summary};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Traffic, Workload, ENGINE_THREADS, WORKERS};

/// Standalone server starts timed before the episodes, so `setup_s`
/// always has several samples even when episodes are long.
const SETUP_STARTS: std::ops::RangeInclusive<usize> = 3..=15;
/// Standalone starts stop once this much set-up time is spent.
const SETUP_BUDGET_S: f64 = 1.0;
/// An open-loop episode's latencies are cut into windows this long.
const WINDOW_NS: u64 = 2_000_000_000;
/// A run whose send lag p99 exceeds this is invalid: the generator fell
/// behind, so its latencies would understate the load.
const MAX_LAG_P99_MS: f64 = 10.0;
/// Lockstep batch of the output oracle's replay. Rows are bit-identical
/// at every batch size; a wide batch just replays faster.
const REPLAY_BATCH: usize = 32;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <long_ctx_int8|short_chat_f32|open_loop_int8> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    match run(&w, &args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: invalid run: {e}");
            ExitCode::from(1)
        }
    }
}

/// Successful responses of `ep` whose digest differs from the oracle's.
fn mismatches(expected: &HashMap<u64, u64>, ep: &Episode) -> u64 {
    ep.digests
        .iter()
        .filter(|&&(id, d)| expected.get(&id) != Some(&d))
        .count() as u64
}

/// The expected response digest of every prefill in `plan`, from each
/// inventory executed directly.
fn prefill_digests(plan: &drive::OpenPlan, budget: u64, precision: Precision) -> Vec<(u64, u64)> {
    let eng = ExecEngine::serial();
    let payloads: Vec<(PrefillModel, Payload)> = [
        (PrefillModel::BertBase128, bert_base_128()),
        (PrefillModel::SegformerB0, segformer_b0_512()),
        (
            PrefillModel::LlamaPrefill128,
            llama_prefill(&LlamaConfig::llama2_7b(), 128),
        ),
    ]
    .into_iter()
    .map(|(m, wl)| {
        let run = &execute_workloads(&eng, &[(&wl, budget)], precision)[0];
        let p = Payload::Prefill {
            workload: m.name(),
            checksum: run.checksum(),
            macs: run.total_macs_executed(),
        };
        (m, p)
    })
    .collect();
    plan.prefills
        .iter()
        .enumerate()
        .map(|(i, (_, model))| {
            let id = drive::prefill_id(i);
            let p = &payloads
                .iter()
                .find(|(m, _)| m == model)
                .expect("every model")
                .1;
            (id, replay::response_digest(id, p.clone()))
        })
        .collect()
}

fn run(w: &Workload, args: &Args) -> Result<String, String> {
    let run_start = Instant::now();
    let spec = w.cfg.model;
    let precision = w.cfg.precision;
    let eng = ExecEngine::serial();

    // Set-up: server start (model build plus PTQ), timed several times.
    let mut setup_s: Vec<f64> = Vec::new();
    while setup_s.len() < *SETUP_STARTS.start()
        || (setup_s.len() < *SETUP_STARTS.end() && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        let (server, _rx) = Server::start(&w.cfg);
        setup_s.push(t.elapsed().as_secs_f64());
        server.shutdown();
    }

    // The oracle: the seed's traffic replayed on a private pool.
    let net = DecodeNet::build(&spec, precision);
    let pool = DecodeNet::pool(&spec, precision, w.cfg.kv_block_tokens, REPLAY_BATCH);
    let (streams, plan) = match &w.traffic {
        Traffic::Closed(sc) => (drive::closed_streams(sc, args.seed, spec.vocab), None),
        Traffic::Open(load) => {
            // A traced run serves the same plan twice, untraced then
            // traced, in half the time each.
            let secs = if args.trace {
                args.seconds / 2.0
            } else {
                args.seconds
            };
            let plan = drive::open_plan(load, args.seed, secs, spec.vocab);
            let streams: Vec<Stream> = plan.sessions.iter().map(|(_, s)| s.clone()).collect();
            (streams, Some(plan))
        }
    };
    let setup_done = run_start.elapsed().as_secs_f64();
    let (decode, _) = replay::replay(&net, &pool, &streams, REPLAY_BATCH, &eng);
    let expected_fp =
        replay::fingerprint(&decode.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
    let mut expected = decode;
    if let Some(plan) = &plan {
        expected.extend(prefill_digests(plan, w.cfg.prefill_max_macs, precision));
    }

    // Episodes until the measuring time is spent; a traced run
    // alternates untraced and traced episodes.
    let mut episodes: Vec<Episode> = Vec::new();
    let measure_start = Instant::now();
    let replay_done = run_start.elapsed().as_secs_f64();
    loop {
        let traced = args.trace && episodes.len() % 2 == 1;
        let ep = match (&w.traffic, &plan) {
            (Traffic::Closed(_), _) => drive::closed_episode(&w.cfg, &streams, traced),
            (Traffic::Open(load), Some(plan)) => drive::open_episode(&w.cfg, load, plan, traced),
            (Traffic::Open(_), None) => unreachable!("open traffic has a plan"),
        };
        episodes.push(ep);
        let spent = measure_start.elapsed().as_secs_f64() >= args.seconds;
        if spent && (!args.trace || episodes.len() >= 2) {
            break;
        }
    }
    setup_s.extend(episodes.iter().map(|e| e.setup_s));
    let episodes_done = run_start.elapsed().as_secs_f64();

    // Output checks.
    let mismatches: u64 = episodes.iter().map(|e| mismatches(&expected, e)).sum();
    let fingerprints: Vec<u64> = episodes
        .iter()
        .map(|e| replay::fingerprint(&e.digests))
        .collect();
    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum::<u64>() + mismatches;

    let host = report::host_facts(w.name, args.seed, WORKERS, ENGINE_THREADS);
    println!("# host {}", host.render());
    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let pool_f = |eps: &[&Episode], f: fn(&Episode) -> &Vec<f64>| -> Vec<f64> {
        eps.iter().flat_map(|e| f(e).iter().copied()).collect()
    };
    // Throughput is the median episode's, robust to a burst of host
    // contention slowing one episode.
    let tok_s = |eps: &[&Episode]| {
        let per: Vec<f64> = eps.iter().map(|e| e.tokens as f64 / e.elapsed_s).collect();
        median(&per).unwrap_or(0.0)
    };

    let open = matches!(w.traffic, Traffic::Open(_));
    let itl_w = windows(&untraced, open, |e| &e.itl);
    let ttft_w = windows(&untraced, open, |e| &e.ttft);
    let itl: Vec<f64> = itl_w.concat();
    let ttft: Vec<f64> = ttft_w.concat();
    let lag = pool_f(&episodes.iter().collect::<Vec<_>>(), |e| &e.lag_ms);
    let mut problems: Vec<String> = Vec::new();
    let lag_p99 = percentile(&lag, 0.99);
    match lag_p99 {
        Some(l) if l <= MAX_LAG_P99_MS => {}
        Some(l) => problems.push(format!("generator fell behind: send lag p99 {l:.2} ms")),
        None => problems.push(format!("only {} sends: lag p99 unsupported", lag.len())),
    }
    let itl_p99 = windowed(&itl_w, |v| percentile(v, 0.99));
    if itl_p99.is_none() {
        problems.push("no latency window holds enough ITL samples for a p99".to_string());
    }

    // The served shape's integer model gives the analytic PSUM counts.
    let counts_model: Int8DecoderLm;
    let counts = match &net {
        DecodeNet::Int8(m) => m.as_ref(),
        DecodeNet::F32(m) => {
            counts_model = replay::int8_twin(&spec, m);
            &counts_model
        }
    };
    let gs = match spec.psum_mode {
        PsumMode::Apsq { gs, .. } => gs,
        PsumMode::Exact => 1,
    };
    let served_ctx: Vec<usize> = untraced
        .iter()
        .flat_map(|e| e.positions.iter().map(|p| p + 1))
        .collect();
    let proj_words = counts.psum_words_per_token().total() as f64;
    let psum_words: f64 = served_ctx
        .iter()
        .map(|&t| proj_words + counts.attn_psum_words_at(t).total() as f64)
        .sum();
    let psum_bytes_per_token =
        psum_words * PsumFormat::apsq_int8(gs).beta() / served_ctx.len().max(1) as f64;

    let mut m = Metrics::default();
    let mut summaries = Obj::new();
    for (name, s) in [
        ("itl_ms", &itl),
        ("ttft_ms", &ttft),
        ("send_lag_ms", &lag),
        ("setup_s", &setup_s),
    ] {
        if let Some(sum) = Summary::of(s) {
            summaries = summaries.raw(name, sum.json());
        }
    }
    let mut extra = Obj::new()
        .int("episodes", episodes.len() as i64)
        .str("fingerprint_expected", &format!("{expected_fp:016x}"))
        .raw(
            "fingerprints",
            format!(
                "[{}]",
                fingerprints
                    .iter()
                    .map(|f| format!("\"{f:016x}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .int("mismatches", mismatches as i64)
        .num("itl_p99_ms", itl_p99.unwrap_or(0.0))
        .raw(
            "episode_tok_s",
            format!(
                "[{}]",
                episodes
                    .iter()
                    .map(|e| format!("{:.1}", e.tokens as f64 / e.elapsed_s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    if let Traffic::Open(load) = &w.traffic {
        let prefill = pool_f(&untraced, |e| &e.prefill_ms);
        let sent: u64 = untraced.iter().map(|e| e.slo_sent).sum();
        let met: u64 = untraced.iter().map(|e| e.slo_met).sum();
        if let Some(s) = Summary::of(&prefill) {
            summaries = summaries.raw("prefill_ms", s.json());
        }
        extra = extra
            .num("sessions_per_s", load.sessions_per_s)
            .num("prefills_per_s", load.prefills_per_s)
            .num("slo_attainment", met as f64 / sent.max(1) as f64)
            .num("ttft_limit_ms", load.ttft_limit_ms)
            .num("itl_limit_ms", load.itl_limit_ms)
            .num("prefill_limit_ms", load.prefill_limit_ms);
        let ttft_p50 = windowed(&ttft_w, median).unwrap_or(0.0);
        extra = extra.num("ttft_p50_ms", ttft_p50);
        println!(
            "# open loop: slo_attainment {:.4} ({met}/{sent}), ttft p50 {ttft_p50:.3} ms, \
             ttft p99 {}, prefill p99 {}",
            met as f64 / sent.max(1) as f64,
            show(percentile(&ttft, 0.99)),
            show(percentile(&prefill, 0.99)),
        );
    }
    if let Traffic::Closed(_) = &w.traffic {
        let all_match = fingerprints.iter().all(|&f| f == expected_fp);
        if !all_match && failed == 0 {
            problems.push("closed-loop fingerprint differs from the replay".to_string());
        }
    }

    if !args.trace {
        m.put("decode_tok_s", tok_s(&untraced), "tok/s");
        m.put("itl_p50_ms", windowed(&itl_w, median).unwrap_or(0.0), "ms");
        m.put("psum_bytes_per_token", psum_bytes_per_token, "B");
        m.put("setup_s", median(&setup_s).unwrap_or(0.0), "s");
        m.put("peak_rss_mb", report::peak_rss_mb(), "MiB");
    } else {
        serve_layer(&traced, w.cfg.kv_block_tokens, spec.layers, &mut m);
        let layer_rep = layers::measure(w, args.seed, &streams, counts, &served_ctx, &mut m);
        m.put("loadgen.lag_p99_ms", lag_p99.unwrap_or(0.0), "ms");
        m.put(
            "trace.overhead_frac",
            1.0 - tok_s(&traced) / tok_s(&untraced),
            "ratio",
        );
        summaries = summaries.raw("layers", layer_rep.summaries_json());
        let spans = spans_jsonl(&traced, &layer_rep, run_start);
        let name = format!("{}_seed{}.spans.jsonl", w.name, args.seed);
        match report::write_result_file(&name, &spans) {
            Ok(p) => println!("# spans: {p}"),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }

    let phases = Obj::new()
        .num("setup", setup_done)
        .num("replay", replay_done - setup_done)
        .num("episodes", episodes_done - replay_done)
        .num("after", run_start.elapsed().as_secs_f64() - episodes_done);
    println!("# phases_s {}", phases.render());
    let correct = mismatches == 0 && problems.is_empty();
    let body = host
        .bool("trace", args.trace)
        .num("seconds", args.seconds)
        .bool("correct", correct)
        .int("attempted", attempted as i64)
        .int("failed", failed as i64)
        .raw("problems", format!("{:?}", problems))
        .raw("checks", extra.render())
        .raw("metrics", m.json())
        .raw("summaries", summaries.render())
        .render();
    let name = format!(
        "{}_seed{}_trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    match report::write_result_file(&name, &body) {
        Ok(p) => println!("# report: {p}"),
        Err(e) => eprintln!("perfbench: could not write report: {e}"),
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(Obj::new()
        .bool("correct", correct)
        .int("attempted", attempted.max(1) as i64)
        .int("failed", failed as i64)
        .raw("metrics", m.json())
        .render())
}

/// Latency samples split into windows: one per closed-loop episode, and
/// `WINDOW_NS` slices of an open-loop episode.
fn windows(eps: &[&Episode], open: bool, f: fn(&Episode) -> &Vec<Timed>) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for e in eps {
        let mut slices: Vec<Vec<f64>> = Vec::new();
        for t in f(e) {
            let k = if open {
                (t.at_ns / WINDOW_NS) as usize
            } else {
                0
            };
            if slices.len() <= k {
                slices.resize(k + 1, Vec::new());
            }
            slices[k].push(t.ms);
        }
        out.extend(slices.into_iter().filter(|s| !s.is_empty()));
    }
    out
}

/// The median across windows of a per-window statistic, over the
/// windows that support it — a burst of host contention moves one
/// window, not the result.
fn windowed(windows: &[Vec<f64>], stat: fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let per: Vec<f64> = windows.iter().filter_map(|w| stat(w)).collect();
    median(&per)
}

fn show(v: Option<f64>) -> String {
    v.map_or_else(|| "unsupported".to_string(), |x| format!("{x:.3} ms"))
}

/// `serve.*` and pool-level `kv.*` metrics from the traced episodes'
/// server snapshots and responses.
fn serve_layer(eps: &[&Episode], block_tokens: usize, layers: usize, m: &mut Metrics) {
    let snaps: Vec<&apsq_serve::MetricsSnapshot> =
        eps.iter().filter_map(|e| e.snapshot.as_ref()).collect();
    let sum = |f: fn(&apsq_serve::MetricsSnapshot) -> u64| snaps.iter().map(|s| f(s)).sum::<u64>();
    let batches = sum(|s| s.batches) as f64;
    let tokens = sum(|s| s.decode_tokens).max(1) as f64;
    let occ: f64 = snaps
        .iter()
        .map(|s| s.batch_occupancy_mean * s.batches as f64)
        .sum::<f64>()
        / batches.max(1.0);
    m.put("serve.batch_occupancy_mean", occ, "requests");
    m.put("serve.batches_per_token", batches / tokens, "ratio");
    let depth: f64 =
        snaps.iter().map(|s| s.queue_depth_mean).sum::<f64>() / snaps.len().max(1) as f64;
    m.put("serve.queue_depth_mean", depth, "requests");
    let server_ms: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.server_ms.iter().copied())
        .collect();
    m.put(
        "serve.server_latency_p99_ms",
        percentile(&server_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "serve.shed.queue_full",
        sum(|s| s.shed_queue) as f64,
        "count",
    );
    m.put(
        "serve.shed.session_capacity",
        sum(|s| s.shed_session_capacity) as f64,
        "count",
    );
    m.put(
        "serve.shed.context_overflow",
        sum(|s| s.shed_context_overflow) as f64,
        "count",
    );
    m.put(
        "serve.shed.session_evicted",
        sum(|s| s.shed_session_evicted) as f64,
        "count",
    );
    m.put("serve.evictions", sum(|s| s.evictions) as f64, "count");
    m.put(
        "kv.gathered_bytes_per_token",
        sum(|s| s.gathered_bytes) as f64 / tokens,
        "B",
    );
    m.put(
        "kv.lock_wait_us_per_1k_tok",
        sum(|s| s.alloc_lock_wait_us) as f64 * 1e3 / tokens,
        "us",
    );
    m.put(
        "kv.lock_hold_max_us",
        snaps
            .iter()
            .map(|s| s.alloc_lock_hold_max_us)
            .max()
            .unwrap_or(0) as f64,
        "us",
    );
    // Blocks filled: one per layer each time a session's position
    // completes a block.
    let filled: usize = eps
        .iter()
        .flat_map(|e| e.positions.iter())
        .filter(|&&p| (p + 1) % block_tokens == 0)
        .count()
        * layers;
    m.put(
        "kv.prefix_hit_ratio",
        sum(|s| s.shared_prefix_hits) as f64 / filled.max(1) as f64,
        "ratio",
    );
    m.put(
        "kv.block_utilization_mean",
        snaps.iter().map(|s| s.block_utilization_mean).sum::<f64>() / snaps.len().max(1) as f64,
        "ratio",
    );
    m.put(
        "kv.blocks_peak",
        snaps.iter().map(|s| s.blocks_peak).max().unwrap_or(0) as f64,
        "blocks",
    );
}

/// Request spans of the traced episodes and the per-layer replay's call
/// spans, one JSON object per line, times in µs from the run start.
fn spans_jsonl(eps: &[&Episode], layers: &layers::LayerReport, run_start: Instant) -> String {
    let mut out = String::new();
    for (k, e) in eps.iter().enumerate() {
        for s in &e.spans {
            let Span {
                id,
                session,
                prefill,
                due_ns,
                sent_ns,
                done_ns,
                ok,
            } = *s;
            let _ = writeln!(
                out,
                "{{\"span\": \"request\", \"episode\": {k}, \"id\": {id}, \"session\": {session}, \
                 \"prefill\": {prefill}, \"due_us\": {}, \"sent_us\": {}, \"done_us\": {}, \"ok\": {ok}}}",
                due_ns / 1000,
                sent_ns / 1000,
                done_ns / 1000
            );
        }
    }
    for s in &layers.spans {
        let _ = writeln!(
            out,
            "{{\"span\": \"{}\", \"ctx\": {}, \"batch\": {}, \"start_us\": {:.1}, \"dur_us\": {:.3}}}",
            s.name,
            s.ctx,
            s.batch,
            s.start.duration_since(run_start).as_secs_f64() * 1e6,
            s.us
        );
    }
    out
}
