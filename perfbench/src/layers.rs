//! The traced per-layer replay: each layer is timed from outside, through
//! its public calls, at the served shape and precision, with the analytic
//! counts (MACs, bytes, PSUM words — computed from tensor sizes) beside
//! the times. Timings report medians; the report file keeps each one's
//! sample count and supported tail.

// lint: allow-file(float-reduction-outside-kernels) -- benchmark statistics over measured times and counts; no served result depends on their summation order

use crate::replay::{self, DecodeNet, Stream};
use crate::report::{Metrics, Obj};
use crate::stats::Summary;
use crate::workloads::{Workload, MAX_BATCH};
use apsq_core::{ApsqConfig, ScaleSchedule, StreamingApsq};
use apsq_models::{bert_base_128, execute_workloads, llama_prefill, segformer_b0_512, LlamaConfig};
use apsq_nn::{
    Int8Linear, Int8MultiHeadAttention, MultiHeadAttention, PagedKvState, PsumMode, QuantLinear,
};
use apsq_quant::Bitwidth;
use apsq_serve::{ModelSpec, Precision};
use apsq_tensor::{randn, ExecEngine, Int32Tensor, Int8Tensor, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Context lengths the sweeps report.
pub const CTX_POINTS: [usize; 3] = [64, 256, 480];
/// Each context point pools the steps at `ctx - CTX_WINDOW + 1 ..= ctx`.
const CTX_WINDOW: usize = 5;
/// Context window of the sweep model: the served spec, widened to hold
/// the largest context point.
const SWEEP_MAX_LEN: usize = 512;

/// A timed call into one layer, for the span file.
pub struct LayerSpan {
    pub name: &'static str,
    pub ctx: usize,
    pub batch: usize,
    pub start: Instant,
    pub us: f64,
}

/// Per-layer results: metrics for the result line, timing summaries and
/// spans for the report and span files.
#[derive(Default)]
pub struct LayerReport {
    pub summaries: Vec<(String, Summary)>,
    pub spans: Vec<LayerSpan>,
}

impl LayerReport {
    /// Records a timing population under `name` and returns its median.
    fn timing(&mut self, name: &str, samples: &[f64]) -> f64 {
        let s = Summary::of(samples).expect("a timing has samples");
        let m = s.median;
        self.summaries.push((name.to_string(), s));
        m
    }

    pub fn summaries_json(&self) -> String {
        let mut o = Obj::new();
        for (name, s) in &self.summaries {
            o = o.raw(name, s.json());
        }
        o.render()
    }
}

fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    black_box(f());
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn in_window(ctx: usize, point: usize) -> bool {
    ctx <= point && ctx + CTX_WINDOW > point
}

fn i8_tensor(rng: &mut StdRng, m: usize, n: usize) -> Int8Tensor {
    let data = (0..m * n)
        .map(|_| (rng.gen_range(0..256u32) as i32 - 128) as i8)
        .collect();
    Int8Tensor::from_vec(data, [m, n])
}

fn apsq_params(spec: &ModelSpec) -> (usize, usize) {
    match spec.psum_mode {
        PsumMode::Apsq { gs, k_tile, .. } => (gs, k_tile),
        PsumMode::Exact => (1, spec.d_model),
    }
}

/// Runs every per-layer measurement of `w` and adds its metrics to `m`.
/// `streams` are the workload's seeded sessions; `counts` is the served
/// shape's integer model, the source of the analytic PSUM counts;
/// `served_ctx` lists the context length of every token served.
pub fn measure(
    w: &Workload,
    seed: u64,
    streams: &[Stream],
    counts: &apsq_nn::Int8DecoderLm,
    served_ctx: &[usize],
    m: &mut Metrics,
) -> LayerReport {
    let mut rep = LayerReport::default();
    let eng = ExecEngine::serial();
    let spec = w.cfg.model;
    let precision = w.cfg.precision;
    let (d, d_ff, heads, b) = (spec.d_model, spec.d_ff, spec.heads, MAX_BATCH);
    let dh = d / heads;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_5EED);
    let (gs, k_tile) = apsq_params(&spec);

    // nn: whole decode steps over the workload's sessions, batch
    // MAX_BATCH, in a window widened to the largest context point.
    let sweep_spec = ModelSpec {
        max_len: spec.max_len.max(SWEEP_MAX_LEN),
        ..spec
    };
    let sweep_streams: Vec<Stream> = (0..2 * b)
        .map(|i| Stream {
            steps: CTX_POINTS[2],
            ..streams[i % streams.len()].clone()
        })
        .collect();
    let net = DecodeNet::build(&sweep_spec, precision);
    let pool = DecodeNet::pool(&sweep_spec, precision, w.cfg.kv_block_tokens, b);
    let (_, steps) = replay::replay(&net, &pool, &sweep_streams, b, &eng);
    // The workload's own mean served context, beside the fixed points.
    let served = (served_ctx.iter().sum::<usize>() as f64 / served_ctx.len().max(1) as f64)
        .round()
        .clamp(CTX_WINDOW as f64, CTX_POINTS[2] as f64) as usize;
    let points = [CTX_POINTS[0], CTX_POINTS[1], CTX_POINTS[2], served];
    let mut step_us = [0.0; 4];
    for (k, &c) in points.iter().enumerate() {
        let s: Vec<f64> = steps
            .iter()
            .filter(|t| in_window(t.ctx, c))
            .map(|t| t.us)
            .collect();
        step_us[k] = rep.timing(&format!("nn.step_us.ctx{c}"), &s);
        if k < CTX_POINTS.len() {
            m.put(format!("nn.step_us.ctx{c}"), step_us[k], "us");
        }
    }
    rep.spans.extend(steps.iter().map(|t| LayerSpan {
        name: "nn.step",
        ctx: t.ctx,
        batch: t.batch,
        start: t.start,
        us: t.us,
    }));
    // Analytic per-step counts (computed from tensor sizes, batch b).
    let elem_bytes = match precision {
        Precision::F32 => 4,
        Precision::Int8Apsq => 1,
    };
    let weights = spec.layers * (4 * d * d + 2 * d * d_ff) + d * spec.vocab;
    for &c in &CTX_POINTS {
        let macs = b * (spec.layers * (4 * d * d + 2 * d * d_ff + 2 * c * d) + d * spec.vocab);
        let kv = b * spec.layers * c * precision.kv_bytes_per_token(d, heads);
        m.put(format!("nn.step_mmac.ctx{c}"), macs as f64 / 1e6, "MMAC");
        m.put(
            format!("nn.step_kib.ctx{c}"),
            (weights * elem_bytes + kv) as f64 / 1024.0,
            "KiB",
        );
    }

    // nn: a standalone attention layer of the served shape, through its
    // paged decode entry point on a private one-layer pool.
    let attn_us = attention_sweep(
        &spec,
        precision,
        w.cfg.kv_block_tokens,
        &points,
        &mut rng,
        &eng,
        &mut rep,
    );
    for (k, &c) in CTX_POINTS.iter().enumerate() {
        m.put(format!("nn.attn_us.ctx{c}"), attn_us[k], "us");
    }
    let share = |k: usize| spec.layers as f64 * attn_us[k] / step_us[k];
    m.put("nn.attn_share.ctx64", share(0), "ratio");
    m.put("nn.attn_share.ctx480", share(2), "ratio");
    m.put("nn.attn_share.served", share(3), "ratio");

    // nn: one FFN up-projection, [B, d] x [d, d_ff].
    let mut ql = QuantLinear::new(d, d_ff, Bitwidth::INT8, spec.psum_mode, &mut rng);
    ql.calibrate(&randn([64, d], 1.0, &mut rng), &eng);
    let xb = randn([b, d], 1.0, &mut rng);
    let lin = match precision {
        Precision::F32 => time_us(300, || ql.forward_inference_with(&xb, &eng)),
        Precision::Int8Apsq => {
            let il = Int8Linear::from_quant_linear(&ql);
            time_us(300, || il.forward_inference_with(&xb, &eng))
        }
    };
    let v = rep.timing("nn.linear_us", &lin);
    m.put("nn.linear_us", v, "us");

    // kv: appends under the pool lock, then gathers at each context point.
    kv_micro(
        &spec,
        precision,
        w.cfg.kv_block_tokens,
        &mut rng,
        &mut rep,
        m,
    );

    // tensor: decode-shaped GEMMs, a per-head M=1 score GEMM, and peaks
    // measured here on the same host.
    let fa = randn([b, d], 1.0, &mut rng);
    let fb = randn([d, d_ff], 1.0, &mut rng);
    let ia = i8_tensor(&mut rng, b, d);
    let ib = i8_tensor(&mut rng, d, d_ff);
    let ops = 2.0 * (b * d * d_ff) as f64;
    let f32_rate =
        ops / rep.timing(
            "tensor.gemm_f32_us.decode",
            &time_us(500, || eng.matmul(&fa, &fb)),
        ) / 1e3;
    let i8_rate =
        ops / rep.timing(
            "tensor.gemm_i8_us.decode",
            &time_us(500, || eng.int8_matmul(&ia, &ib)),
        ) / 1e3;
    m.put("tensor.gemm_f32_gflops.decode", f32_rate, "GFLOP/s");
    m.put("tensor.gemm_i8_giops.decode", i8_rate, "GIOP/s");
    let n = 256;
    let (pa, pb) = (randn([n, n], 1.0, &mut rng), randn([n, n], 1.0, &mut rng));
    let (qa, qb) = (i8_tensor(&mut rng, n, n), i8_tensor(&mut rng, n, n));
    let peak_ops = 2.0 * (n * n * n) as f64;
    let f32_peak = peak_ops
        / rep.timing(
            "tensor.gemm_f32_us.peak256",
            &time_us(30, || eng.matmul(&pa, &pb)),
        )
        / 1e3;
    let i8_peak = peak_ops
        / rep.timing(
            "tensor.gemm_i8_us.peak256",
            &time_us(30, || eng.int8_matmul(&qa, &qb)),
        )
        / 1e3;
    m.put("tensor.peak_f32_gflops", f32_peak, "GFLOP/s");
    m.put("tensor.peak_i8_giops", i8_peak, "GIOP/s");
    let ctx = CTX_POINTS[2];
    let head = match precision {
        Precision::F32 => {
            let (q, k) = (
                randn([1, dh], 1.0, &mut rng),
                randn([ctx, dh], 1.0, &mut rng),
            );
            time_us(1000, || eng.matmul_bt(&q, &k))
        }
        Precision::Int8Apsq => {
            let (q, k) = (i8_tensor(&mut rng, 1, dh), i8_tensor(&mut rng, ctx, dh));
            time_us(1000, || eng.int8_matmul_bt(&q, &k))
        }
    };
    let v = rep.timing("tensor.head_gemm_m1_us", &head);
    m.put("tensor.head_gemm_m1_us", v, "us");
    let frac = match precision {
        Precision::F32 => f32_rate / f32_peak,
        Precision::Int8Apsq => i8_rate / i8_peak,
    };
    m.put("tensor.peak_frac", frac, "ratio");

    // core: the streaming APSQ fold over one decode projection's k-tiles.
    let np = d.div_ceil(k_tile);
    let tiles: Vec<Int32Tensor> = (0..np)
        .map(|_| {
            let data = (0..b * d_ff)
                .map(|_| rng.gen_range(0..8192u32) as i32 - 4096)
                .collect();
            Int32Tensor::from_vec(data, [b, d_ff])
        })
        .collect();
    let sched = ScaleSchedule::uniform(np, 4, Bitwidth::INT8);
    let fold = time_us(500, || {
        let mut s = StreamingApsq::new(sched.clone(), ApsqConfig::int8(gs));
        for t in &tiles {
            s.push_ref(t);
        }
        s.finish()
    });
    let per_tile: Vec<f64> = fold.iter().map(|us| us * 1e3 / np as f64).collect();
    let v = rep.timing("core.apsq_fold_ns_per_tile", &per_tile);
    m.put("core.apsq_fold_ns_per_tile", v, "ns");

    // models: each prefill inventory through execute_workloads.
    let budget = w.cfg.prefill_max_macs;
    let mut macs = 0u64;
    let mut secs = 0.0;
    for (name, wl) in [
        ("bert", bert_base_128()),
        ("segformer", segformer_b0_512()),
        ("llama", llama_prefill(&LlamaConfig::llama2_7b(), 128)),
    ] {
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let runs = execute_workloads(&eng, &[(&wl, budget)], precision);
            let dt = t.elapsed().as_secs_f64();
            macs += runs[0].total_macs_executed();
            secs += dt;
            samples.push(dt * 1e3);
        }
        let v = rep.timing(&format!("models.prefill_ms.{name}"), &samples);
        m.put(format!("models.prefill_ms.{name}"), v, "ms");
    }
    m.put("models.prefill_gmacs", macs as f64 / secs / 1e9, "GMAC/s");

    // dataflow: analytic PSUM words per served token.
    m.put(
        "dataflow.psum_words_per_token.proj",
        counts.psum_words_per_token().total() as f64,
        "words",
    );
    let attn_words: Vec<f64> = served_ctx
        .iter()
        .map(|&t| counts.attn_psum_words_at(t).total() as f64)
        .collect();
    m.put(
        "dataflow.psum_words_per_token.attn",
        attn_words.iter().sum::<f64>() / attn_words.len().max(1) as f64,
        "words",
    );
    rep
}

/// Times a standalone attention layer's paged decode call at batch
/// `MAX_BATCH` as its context grows to the largest point, twice; returns
/// the median at each of `points`.
fn attention_sweep(
    spec: &ModelSpec,
    precision: Precision,
    block_tokens: usize,
    points: &[usize],
    rng: &mut StdRng,
    eng: &ExecEngine,
    rep: &mut LayerReport,
) -> Vec<f64> {
    let (d, b) = (spec.d_model, MAX_BATCH);
    let mut attn =
        MultiHeadAttention::new(d, spec.heads, Bitwidth::INT8, spec.psum_mode, true, rng);
    let calib = randn([64, d], 1.0, rng);
    attn.forward(&calib);
    let int8 = (precision == Precision::Int8Apsq)
        .then(|| Int8MultiHeadAttention::from_float(&attn, &calib, eng));
    let one_layer = ModelSpec {
        layers: 1,
        max_len: SWEEP_MAX_LEN,
        ..*spec
    };
    let pool = DecodeNet::pool(&one_layer, precision, block_tokens, b);
    let x = randn([b, d], 1.0, rng);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    for _ in 0..2 {
        let mut states: Vec<PagedKvState> = (0..b).map(|_| PagedKvState::for_layers(1)).collect();
        for p in 0..CTX_POINTS[2] {
            let mut refs: Vec<&mut PagedKvState> = states.iter_mut().collect();
            let start = Instant::now();
            let out: Tensor = match &int8 {
                Some(a) => a.forward_decode_batch_paged_with(&x, 0, &pool, &mut refs, eng),
                None => attn.forward_decode_batch_paged_with(&x, 0, &pool, &mut refs, eng),
            };
            let us = start.elapsed().as_secs_f64() * 1e6;
            black_box(out);
            for s in &mut states {
                s.advance();
            }
            let ctx = p + 1;
            rep.spans.push(LayerSpan {
                name: "nn.attn",
                ctx,
                batch: b,
                start,
                us,
            });
            for (k, &c) in points.iter().enumerate() {
                if in_window(ctx, c) {
                    samples[k].push(us);
                }
            }
        }
        let mut alloc = pool.lock();
        for s in &mut states {
            s.release(&mut alloc);
        }
    }
    points
        .iter()
        .zip(&samples)
        .map(|(c, s)| rep.timing(&format!("nn.attn_us.ctx{c}"), s))
        .collect()
}

/// `kv.append_us` (lock plus `append_row`, one layer) and
/// `kv.gather_us.ctx*` (the pool's lock-free gather) on a private pool in
/// the served KV format.
fn kv_micro(
    spec: &ModelSpec,
    precision: Precision,
    block_tokens: usize,
    rng: &mut StdRng,
    rep: &mut LayerReport,
    m: &mut Metrics,
) {
    let d = spec.d_model;
    let one_layer = ModelSpec {
        layers: 1,
        max_len: SWEEP_MAX_LEN,
        ..*spec
    };
    let pool = DecodeNet::pool(&one_layer, precision, block_tokens, 1);
    let rows = randn([CTX_POINTS[2], 2 * d], 1.0, rng);
    let mut st = PagedKvState::for_layers(1);
    let mut append = Vec::new();
    for t in 0..CTX_POINTS[2] {
        let row = &rows.data()[t * 2 * d..(t + 1) * 2 * d];
        let start = Instant::now();
        {
            let mut alloc = pool.lock();
            st.append_row(0, &mut alloc, &row[..d], &row[d..]);
        }
        append.push(start.elapsed().as_secs_f64() * 1e6);
        st.advance();
    }
    let v = rep.timing("kv.append_us", &append);
    m.put("kv.append_us", v, "us");
    for &c in &CTX_POINTS {
        let samples = match precision {
            Precision::F32 => {
                let (mut k, mut v) = (Vec::new(), Vec::new());
                time_us(300, || {
                    pool.gather_f32(st.layer_blocks(0), c, &mut k, &mut v)
                })
            }
            Precision::Int8Apsq => {
                let (mut a, mut b, mut e, mut f) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                time_us(300, || {
                    pool.gather_int8(st.layer_blocks(0), c, &mut a, &mut b, &mut e, &mut f)
                })
            }
        };
        let v = rep.timing(&format!("kv.gather_us.ctx{c}"), &samples);
        m.put(format!("kv.gather_us.ctx{c}"), v, "us");
    }
    st.release(&mut pool.lock());
}
