//! The true integer inference datapath: i8×i8→i32 GEMMs with grouped
//! APSQ folded into the K loop, produced from trained fake-quant models
//! by a PTQ conversion pass.
//!
//! [`QuantLinear`] *simulates* the W8A8 + APSQ accumulation path in f32
//! (fake quantization). [`Int8Linear`] *executes* it: activations are
//! quantized to i8 codes, weights are stored as i8 codes in the
//! weight-stationary `[out, in]` layout, the GEMM's K tiles stream through
//! [`ExecEngine::gemm_k_tiles`], and every `Pci`-deep PSUM
//! tile is pushed into a [`StreamingApsq`] fold the moment it is produced
//! — exactly the dataflow of the RAE sitting next to the PE array.
//! Nothing leaves the integer domain between the input quantizer and the
//! single dequantize-and-bias epilogue.
//!
//! # Bit-identity contract
//!
//! When the source layer's learned scales are exact powers of two and its
//! bias sits on the product-scale grid (see [`QuantLinear::snap_pow2`]),
//! the integer path is **bit-identical** to
//! [`QuantLinear::forward_inference_with`] for every shape, group size,
//! `k_tile`, and engine thread count: products `α_x q_x · α_w q_w` and
//! their partial sums are exactly representable in f32 (|Σ q_x q_w| <
//! 2²⁴), the frozen-observer PSUM schedule is derived from the **same
//! float expression** both paths evaluate, and the integer and float
//! APSQ recursions agree bit-for-bit under power-of-two scales. The
//! property tests in `tests/proptest_int8.rs` pin this across random
//! shapes/gs/k_tile/threads.

use crate::embedding::Embedding;
use crate::linear::{observer_pow2_scale, Linear, PsumMode, QuantLinear};
use crate::models::{DecoderLm, EncoderClassifier};
use crate::norm::LayerNorm;
use crate::paged::quantize_int8_kv_row;
use apsq_core::{ApsqConfig, BufferTraffic, GroupSize, ScaleSchedule, StreamingApsq};
use apsq_quant::{Bitwidth, LsqQuantizer};
use apsq_tensor::{
    gelu, softmax_rows, sum_axis0, ExecEngine, Gemm, Int32Tensor, Int8Tensor, Layout, Tensor,
};

/// Snaps a positive step to the nearest power of two (identity on values
/// that already are).
fn pow2_snap(step: f32) -> f32 {
    step.log2().round().exp2()
}

/// A borrowed flat view over int8 KV storage: `[t, d]` row-major i8 codes
/// plus `[t, heads]` per-(token, head) power-of-two exponents. The
/// full-sequence forward's once-quantized K/V buffers (a prefix per query
/// row) and a gather from paged [`crate::BlockAllocator`] blocks produce
/// byte-identical views, which is what makes paged decode bit-identical
/// to a full recompute: the attention kernel only ever sees this view.
struct Int8KvView<'a> {
    width: usize,
    len: usize,
    k_codes: &'a [i8],
    v_codes: &'a [i8],
    k_exps: &'a [i8],
    v_exps: &'a [i8],
}

/// How an [`Int8Linear`] treats its i32 PSUM stream.
#[derive(Clone, Debug)]
enum Int8PsumPath {
    /// Exact i32 accumulation (the W8A8 baseline).
    Exact,
    /// Grouped APSQ with a frozen per-step power-of-two schedule.
    Apsq {
        config: ApsqConfig,
        k_tile: usize,
        schedule: ScaleSchedule,
    },
}

/// A fully integer linear layer: i8 weight codes in the weight-stationary
/// `[out, in]` layout, power-of-two activation/weight scales frozen from
/// the trained LSQ observers, and an i32 bias on the product-scale grid.
///
/// Built by the PTQ conversion pass from either a [`QuantLinear`]
/// ([`Int8Linear::from_quant_linear`] — preserves the APSQ PSUM path and
/// is bit-identical after [`QuantLinear::snap_pow2`]) or a plain f32
/// [`Linear`] plus a calibration batch ([`Int8Linear::from_linear`] —
/// best-effort W8A8 PTQ for classifier heads).
#[derive(Clone, Debug)]
pub struct Int8Linear {
    /// Weight codes `[out, in]`.
    codes: Int8Tensor,
    x_scale: f32,
    w_scale: f32,
    /// Bias codes at the product scale `α_x·α_w`.
    bias_q: Vec<i32>,
    /// Dequantized bias (`bias_q · α_x·α_w`), precomputed for the epilogue.
    bias_f: Vec<f32>,
    psum: Int8PsumPath,
}

impl Int8Linear {
    /// Converts a trained fake-quant layer to the integer datapath,
    /// freezing the APSQ schedule from the layer's warmed PSUM observers.
    ///
    /// Call [`QuantLinear::snap_pow2`] on the source first to get the
    /// bit-identity guarantee; otherwise the learned steps are snapped to
    /// the nearest power of two here and the conversion is best-effort
    /// PTQ.
    ///
    /// # Panics
    ///
    /// Panics if the layer is not INT8, was never calibrated (no input
    /// quantizer), or — in APSQ mode — its PSUM observers were never
    /// warmed.
    pub fn from_quant_linear(ql: &QuantLinear) -> Int8Linear {
        assert_eq!(
            ql.bits(),
            Bitwidth::INT8,
            "the integer datapath stores i8 weights/activations"
        );
        let ax = pow2_snap(ql.input_step().expect(
            "uncalibrated QuantLinear: run a training forward or `calibrate` before conversion",
        ));
        let aw = pow2_snap(ql.weight_step());
        let w = &ql.inner().w.value;
        let d_in = w.dims()[0];
        let psum = match ql.psum_mode() {
            PsumMode::Exact => Int8PsumPath::Exact,
            PsumMode::Apsq { bits, gs, k_tile } => {
                let np = d_in.div_ceil(k_tile);
                let obs = ql.psum_observers();
                assert_eq!(
                    obs.len(),
                    np,
                    "PSUM observers not warmed ({} steps recorded, GEMM produces {np}): run a \
                     training forward or `calibrate` before conversion",
                    obs.len()
                );
                let qp = bits.signed_range().qp as f32;
                let exponents: Vec<u32> = obs
                    .iter()
                    .map(|&o| {
                        // The same float expression the frozen fake-quant
                        // schedule evaluates, floored at 2^0 — shared so
                        // the two datapaths agree bit-for-bit. Observers
                        // large enough to exceed the shifter range (never
                        // reachable from i32 PSUMs) saturate at 2^30.
                        let s = observer_pow2_scale(o, qp).max(1.0);
                        apsq_quant::Pow2Scale::from_f32(s, bits).map_or(30, |p| p.exponent())
                    })
                    .collect();
                Int8PsumPath::Apsq {
                    config: ApsqConfig {
                        bits,
                        group_size: GroupSize::new(gs),
                    },
                    k_tile,
                    schedule: ScaleSchedule::from_exponents(&exponents, bits),
                }
            }
        };
        Self::build(w, &ql.inner().b.value, ax, aw, psum)
    }

    /// Best-effort W8A8 PTQ of a plain f32 layer: activation scale from a
    /// calibration batch, weight scale from the weights (both LSQ-init
    /// rules snapped to powers of two), exact i32 accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `calib_x` is empty.
    pub fn from_linear(l: &Linear, calib_x: &Tensor) -> Int8Linear {
        let ax = pow2_snap(LsqQuantizer::with_init(calib_x, Bitwidth::INT8, true).step());
        let aw = pow2_snap(LsqQuantizer::with_init(&l.w.value, Bitwidth::INT8, true).step());
        Self::build(&l.w.value, &l.b.value, ax, aw, Int8PsumPath::Exact)
    }

    /// Shared constructor: quantizes `w` (`[in, out]`) into the `[out,
    /// in]` code layout and `b` onto the product-scale grid.
    fn build(w: &Tensor, b: &Tensor, x_scale: f32, w_scale: f32, psum: Int8PsumPath) -> Int8Linear {
        let (d_in, d_out) = (w.dims()[0], w.dims()[1]);
        let mut codes = vec![0i8; d_out * d_in];
        for i in 0..d_in {
            for o in 0..d_out {
                codes[o * d_in + i] = (w.at(&[i, o]) / w_scale).round().clamp(-128.0, 127.0) as i8;
            }
        }
        let base = x_scale * w_scale;
        let bias_q: Vec<i32> = b
            .data()
            .iter()
            .map(|&v| {
                let q = (v / base).round();
                // A hard assert in every profile: a bias beyond the 2^23
                // grid would silently wrap the i32 epilogue on adversarial
                // inputs (construction-time check, cost-free at inference).
                assert!(
                    q.abs() < (1 << 23) as f32,
                    "bias {v} overflows the i32 grid"
                );
                q as i32
            })
            .collect();
        let bias_f: Vec<f32> = bias_q.iter().map(|&q| q as f32 * base).collect();
        Int8Linear {
            codes: Int8Tensor::from_vec(codes, [d_out, d_in]),
            x_scale,
            w_scale,
            bias_q,
            bias_f,
            psum,
        }
    }

    /// Input features.
    pub fn d_in(&self) -> usize {
        self.codes.dims()[1]
    }

    /// Output features.
    pub fn d_out(&self) -> usize {
        self.codes.dims()[0]
    }

    /// The frozen power-of-two activation scale `α_x`.
    pub fn x_scale(&self) -> f32 {
        self.x_scale
    }

    /// The frozen power-of-two weight scale `α_w`.
    pub fn w_scale(&self) -> f32 {
        self.w_scale
    }

    /// The i32 bias codes at the product scale.
    pub fn bias_codes(&self) -> &[i32] {
        &self.bias_q
    }

    /// Integer inference over `[n, in]`: quantize → i8 GEMM (+ APSQ fold)
    /// → dequantize + bias.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, d_in]`.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        self.forward_traced(x, eng).0
    }

    /// [`Int8Linear::forward_inference_with`] also returning the PSUM
    /// buffer traffic the APSQ fold incurred (zero for the exact path,
    /// whose accumulator never leaves registers in this model).
    pub fn forward_traced(&self, x: &Tensor, eng: &ExecEngine) -> (Tensor, BufferTraffic) {
        let q = Int8Tensor::quantize(x, self.x_scale);
        let (acc, traffic) = match &self.psum {
            Int8PsumPath::Exact => (eng.int8_matmul_bt(&q, &self.codes), BufferTraffic::new()),
            Int8PsumPath::Apsq {
                config,
                k_tile,
                schedule,
            } => {
                let mut stream = StreamingApsq::new(schedule.clone(), *config);
                let g = Gemm::dense(
                    Layout::NT,
                    q.data(),
                    q.dims(),
                    self.codes.data(),
                    self.codes.dims(),
                );
                eng.gemm_k_tiles(&g, *k_tile, |_, tile| stream.push_ref(tile));
                let run = stream.finish();
                (run.output, run.traffic)
            }
        };
        let base = self.x_scale * self.w_scale;
        let (m, d_out) = (x.dims()[0], self.d_out());
        let mut y = vec![0.0f32; m * d_out];
        for (yrow, arow) in y
            .chunks_exact_mut(d_out)
            .zip(acc.data().chunks_exact(d_out))
        {
            for ((yv, &av), &bf) in yrow.iter_mut().zip(arow).zip(&self.bias_f) {
                // Multiply-then-add in the same order as the fake-quant
                // epilogue (`out * base` then `+ b`), preserving bit-identity.
                *yv = av as f32 * base + bf;
            }
        }
        (Tensor::from_vec(y, [m, d_out]), traffic)
    }

    /// PSUM-buffer traffic (in stored words) one `m`-row call incurs —
    /// the Algorithm-1 invariant counts: `np` writes and `np − 1` reads
    /// per output element regardless of `gs`, zero for the exact
    /// register-resident path.
    pub fn psum_words(&self, m: usize) -> BufferTraffic {
        let numel = (m * self.d_out()) as u64;
        match &self.psum {
            Int8PsumPath::Exact => BufferTraffic::new(),
            Int8PsumPath::Apsq { schedule, .. } => {
                let np = schedule.len() as u64;
                BufferTraffic {
                    writes: np * numel,
                    reads: (np - 1) * numel,
                }
            }
        }
    }
}

/// Integer-datapath multi-head self-attention, **integer end to end**:
/// the four projections run as [`Int8Linear`] GEMMs, the KV blocks store
/// i8 codes with per-(token, head) power-of-two scales
/// ([`crate::BlockAllocator::int8`]), and both activation-activation GEMMs —
/// `Q·Kᵀ` and `P·V` — execute as i8×i8→i32 batched kernels with grouped
/// APSQ folded over their K loops. Only the softmax (and the row-level
/// dequant/requant glue) stays f32, as on the paper's accelerator.
///
/// Q is quantized at a power-of-two scale **frozen at PTQ conversion**
/// from a calibration sequence; K/V rows are quantized as they enter
/// storage at the tightest covering per-row scale. For `P·V` the softmax
/// probabilities absorb each value row's scale before requantization, so
/// the GEMM runs on one scale pair and APSQ folds over the **context
/// dimension** — the PSUM traffic that dominates memory-bound decode.
///
/// Every step is deterministic pure-integer or per-row f32 arithmetic, so
/// decode results are bit-identical across engine thread counts and batch
/// shapes, and incremental decode is bit-identical to the full-sequence
/// forward (both attend the same per-row KV bytes through one kernel).
#[derive(Clone, Debug)]
pub struct Int8MultiHeadAttention {
    wq: Int8Linear,
    wk: Int8Linear,
    wv: Int8Linear,
    wo: Int8Linear,
    heads: usize,
    causal: bool,
    /// Frozen power-of-two exponent of the Q quantizer (`α_q = 2^e`).
    q_exp: i32,
    /// APSQ config + k_tile for the score/context PSUM streams, inherited
    /// from the source projections' PSUM mode (`None` = exact i32).
    seq_apsq: Option<(ApsqConfig, usize)>,
}

impl Int8MultiHeadAttention {
    /// PTQ-converts a trained attention layer: all four projections plus
    /// a frozen power-of-two Q scale calibrated from `calib` (the
    /// layer-normed block input the conversion pass propagates).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Int8Linear::from_quant_linear`], plus an empty
    /// or non-finite calibration batch.
    pub fn from_float(attn: &crate::MultiHeadAttention, calib: &Tensor, eng: &ExecEngine) -> Self {
        let (wq, wk, wv, wo) = attn.projections();
        let seq_apsq = match wq.psum_mode() {
            PsumMode::Exact => None,
            PsumMode::Apsq { bits, gs, k_tile } => Some((
                ApsqConfig {
                    bits,
                    group_size: GroupSize::new(gs),
                },
                k_tile,
            )),
        };
        let wq = Int8Linear::from_quant_linear(wq);
        assert!(calib.dims()[0] > 0, "empty Q calibration batch");
        let q = wq.forward_inference_with(calib, eng);
        let max_abs = q.data().iter().fold(0.0f32, |m, &x| {
            // `f32::max` would silently swallow NaN (freezing a Q scale
            // unrelated to the data); check every element instead.
            assert!(x.is_finite(), "non-finite Q calibration value {x}");
            m.max(x.abs())
        });
        let q_exp = apsq_quant::covering_pow2_exponent(max_abs, 127.0);
        Int8MultiHeadAttention {
            wq,
            wk: Int8Linear::from_quant_linear(wk),
            wv: Int8Linear::from_quant_linear(wv),
            wo: Int8Linear::from_quant_linear(wo),
            heads: attn.heads(),
            causal: attn.is_causal(),
            q_exp,
            seq_apsq,
        }
    }

    /// The frozen power-of-two Q scale `α_q`.
    pub fn q_scale(&self) -> f32 {
        (self.q_exp as f32).exp2()
    }

    /// Quantizes one `[d]` query row at the frozen Q scale.
    fn quantize_q_row(&self, row: &[f32]) -> Vec<i8> {
        let scale = self.q_scale();
        row.iter()
            .map(|&x| (x / scale).round().clamp(-128.0, 127.0) as i8)
            .collect()
    }

    /// Streams the K tiles of a head-batched GEMM and folds each head's
    /// PSUM stream through Algorithm 1 with a schedule calibrated from that
    /// stream (deterministic: integer tiles are thread-invariant and
    /// calibration is a pure function of them), writing head `h`'s
    /// `m·n` outputs to `out[h·m·n..]`.
    fn fold_heads(
        eng: &ExecEngine,
        g: &Gemm<'_, i8>,
        (config, k_tile): (&ApsqConfig, usize),
        traffic: &mut BufferTraffic,
        out: &mut [i32],
    ) {
        let mut tiles: Vec<Int32Tensor> = Vec::new();
        eng.gemm_k_tiles(g, k_tile, |_, tile| tiles.push(tile.clone()));
        let width = g.m * g.n;
        for (h, out_h) in out.chunks_exact_mut(width).enumerate() {
            let stream: Vec<Int32Tensor> = tiles
                .iter()
                .map(|tl| {
                    Int32Tensor::from_vec(tl.data()[h * width..][..width].to_vec(), [1, width])
                })
                .collect();
            let sched = ScaleSchedule::calibrate(
                std::slice::from_ref(&stream),
                config.bits,
                config.group_size,
            );
            let run = apsq_core::grouped_apsq(&stream, &sched, config);
            *traffic += run.traffic;
            out_h.copy_from_slice(run.output.data());
        }
    }

    /// Attends one quantized query row over a flat KV view of length
    /// `t = kv.len`, returning the `[d]` context row and the PSUM buffer
    /// traffic the two APSQ folds incurred — the single attention kernel
    /// both the full-sequence forward and paged decode funnel into.
    fn attend_row_view(
        &self,
        qc: &[i8],
        kv: &Int8KvView<'_>,
        eng: &ExecEngine,
    ) -> (Vec<f32>, BufferTraffic) {
        let d = kv.width;
        let heads = self.heads;
        let dh = d / heads;
        let t = kv.len;
        let inv_sqrt = 1.0 / (dh as f32).sqrt();
        let q_scale = self.q_scale();
        let mut traffic = BufferTraffic::new();

        // Q·Kᵀ in the integer domain: [H, 1, dh] × [H, t, dh]ᵀ → [H, 1, t],
        // each head reading its dh columns of the [t, d] key rows in place.
        // One epilogue dequantizes with one scale per (head, cached token)
        // — the key row's covering scale — and 1/√dh folded into the
        // Q-side scale. No mask needed: the cache prefix *is* the causal
        // window.
        let qk = Gemm {
            ldb: d,
            batch: heads,
            stride_b: dh,
            ..Gemm::new(Layout::NT, qc, kv.k_codes, 1, t, dh)
        };
        let mut acc = vec![0i32; heads * t];
        match &self.seq_apsq {
            None => eng.gemm(&qk, &mut acc),
            Some((config, k_tile)) => {
                Self::fold_heads(eng, &qk, (config, *k_tile), &mut traffic, &mut acc)
            }
        }
        let qk_scale = q_scale * inv_sqrt;
        let scores: Vec<f32> = acc
            .iter()
            .enumerate()
            .map(|(i, &v)| v as f32 * qk_scale * (kv.k_exps[(i % t) * heads + i / t] as f32).exp2())
            .collect();

        // Softmax in f32, per head.
        let mut probs: Vec<Tensor> = Vec::with_capacity(heads);
        for h in 0..heads {
            let row = scores[h * t..(h + 1) * t].to_vec();
            probs.push(softmax_rows(&Tensor::from_vec(row, [1, t])));
        }

        // P·V: fold each value row's scale into the probabilities, then
        // requantize so the GEMM runs on a single scale pair and APSQ can
        // fold over the context (K) dimension.
        let v_exps = kv.v_exps;
        let mut r_exps = vec![0i32; heads];
        let mut rc = vec![0i8; heads * t];
        for h in 0..heads {
            let mut r = vec![0.0f32; t];
            let mut max_abs = 0.0f32;
            for (j, rj) in r.iter_mut().enumerate() {
                *rj = probs[h].data()[j] * (v_exps[j * heads + h] as f32).exp2();
                max_abs = max_abs.max(rj.abs());
            }
            let e = apsq_quant::covering_pow2_exponent(max_abs, 127.0);
            let scale = (e as f32).exp2();
            r_exps[h] = e;
            for (j, rj) in r.iter().enumerate() {
                rc[h * t + j] = (rj / scale).round().clamp(-128.0, 127.0) as i8;
            }
        }
        // Per head the [t, dh] column block of the value rows is already
        // the K×N operand the context GEMM consumes.
        let pv = Gemm {
            ldb: d,
            batch: heads,
            stride_b: dh,
            ..Gemm::new(Layout::NN, &rc, kv.v_codes, 1, dh, t)
        };
        let mut ctx_i32 = vec![0i32; d];
        match &self.seq_apsq {
            None => eng.gemm(&pv, &mut ctx_i32),
            Some((config, k_tile)) => {
                Self::fold_heads(eng, &pv, (config, *k_tile), &mut traffic, &mut ctx_i32)
            }
        }
        let mut ctx = vec![0.0f32; d];
        for h in 0..heads {
            let scale = (r_exps[h] as f32).exp2();
            for j in 0..dh {
                ctx[h * dh + j] = ctx_i32[h * dh + j] as f32 * scale;
            }
        }
        (ctx, traffic)
    }

    /// Full-sequence inference over `[T, d]` — the integer twin of
    /// [`crate::MultiHeadAttention::forward_inference_with`] and the oracle
    /// incremental decode is pinned to. All `T` K/V rows are quantized
    /// once into flat code and exponent buffers; query row `i` then
    /// attends a prefix view of them — `i + 1` rows when causal, all `T`
    /// otherwise — through the same kernel paged decode runs over its
    /// gathered blocks, so decoding reproduces it **bit for bit**.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let (t, d) = (x.dims()[0], x.dims()[1]);
        let h = self.heads;
        let q = self.wq.forward_inference_with(x, eng);
        let k = self.wk.forward_inference_with(x, eng);
        let v = self.wv.forward_inference_with(x, eng);
        let (mut k_codes, mut v_codes) = (vec![0i8; t * d], vec![0i8; t * d]);
        let (mut k_exps, mut v_exps) = (vec![0i8; t * h], vec![0i8; t * h]);
        for (src, codes, exps) in [
            (&k, &mut k_codes, &mut k_exps),
            (&v, &mut v_codes, &mut v_exps),
        ] {
            let rows = src.data().chunks(d).zip(codes.chunks_mut(d));
            for ((row, c), e) in rows.zip(exps.chunks_mut(h)) {
                quantize_int8_kv_row(row, h, c, e);
            }
        }
        let mut ctx = Tensor::zeros([t, d]);
        for i in 0..t {
            let len = if self.causal { i + 1 } else { t };
            let kv = Int8KvView {
                width: d,
                len,
                k_codes: &k_codes[..len * d],
                v_codes: &v_codes[..len * d],
                k_exps: &k_exps[..len * h],
                v_exps: &v_exps[..len * h],
            };
            let qc = self.quantize_q_row(&q.data()[i * d..(i + 1) * d]);
            let (row, _) = self.attend_row_view(&qc, &kv, eng);
            ctx.data_mut()[i * d..(i + 1) * d].copy_from_slice(&row);
        }
        self.wo.forward_inference_with(&ctx, eng)
    }

    /// Batched incremental decode step over `[B, d]`: each sequence's K/V
    /// rows for this layer live in fixed-size blocks owned by the shared
    /// **int8** [`crate::BlockPool`] and addressed through the sequence's
    /// [`crate::PagedKvState`] block table. Appends quantize through the
    /// crate's single per-(token, head) covering-scale recipe under one
    /// short pool lock; attention gathers the table back into a flat view
    /// via the pool's lock-free gather, so no allocator lock is held
    /// during the integer GEMMs. Row `b` is **bit-identical** to decoding
    /// that sequence alone and to row `t` of
    /// [`Self::forward_inference_with`] over its prefix, for every block
    /// size, engine thread count, and worker count (integer GEMMs are
    /// exact and row-independent, and all f32 glue is per-row).
    ///
    /// Positions are read but **not** advanced; the model driver calls
    /// [`crate::PagedKvState::advance`] once per step after all layers.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[B, d]` with one state per row, or the block
    /// pool is exhausted.
    pub fn forward_decode_batch_paged_with(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &crate::BlockPool,
        states: &mut [&mut crate::PagedKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        self.forward_decode_batch_paged_traced(x, layer, pool, states, eng)
            .0
    }

    /// [`Self::forward_decode_batch_paged_with`] also returning the PSUM
    /// buffer traffic the attention APSQ folds incurred across the batch.
    pub fn forward_decode_batch_paged_traced(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &crate::BlockPool,
        states: &mut [&mut crate::PagedKvState],
        eng: &ExecEngine,
    ) -> (Tensor, BufferTraffic) {
        let b = x.dims()[0];
        assert_eq!(b, states.len(), "one paged KV state per batched sequence");
        let d = x.dims()[1];
        let q = self.wq.forward_inference_with(x, eng);
        let k = self.wk.forward_inference_with(x, eng);
        let v = self.wv.forward_inference_with(x, eng);
        {
            let mut alloc = pool.lock();
            for (i, state) in states.iter_mut().enumerate() {
                state.append_row(
                    layer,
                    &mut alloc,
                    &k.data()[i * d..(i + 1) * d],
                    &v.data()[i * d..(i + 1) * d],
                );
            }
        }
        let mut traffic = BufferTraffic::new();
        let mut ctx = Tensor::zeros([b, d]);
        let (mut kc, mut vc) = (Vec::new(), Vec::new());
        let (mut ke, mut ve) = (Vec::new(), Vec::new());
        for (i, state) in states.iter().enumerate() {
            // This step's row was just appended but `advance` has not run.
            let t = state.position() + 1;
            pool.gather_int8(
                state.layer_blocks(layer),
                t,
                &mut kc,
                &mut vc,
                &mut ke,
                &mut ve,
            );
            let kv = Int8KvView {
                width: d,
                len: t,
                k_codes: &kc,
                v_codes: &vc,
                k_exps: &ke,
                v_exps: &ve,
            };
            let qc = self.quantize_q_row(&q.data()[i * d..(i + 1) * d]);
            let (row, row_traffic) = self.attend_row_view(&qc, &kv, eng);
            traffic += row_traffic;
            ctx.data_mut()[i * d..(i + 1) * d].copy_from_slice(&row);
        }
        (self.wo.forward_inference_with(&ctx, eng), traffic)
    }

    /// Analytic PSUM-buffer word counts (Algorithm-1 invariant: `np`
    /// writes, `np − 1` reads per output element, independent of `gs`)
    /// for one decode row attending a context of length `t` — `Q·Kᵀ`
    /// streams `⌈dh/k_tile⌉` tiles over `t` scores, `P·V` streams
    /// `⌈t/k_tile⌉` tiles over `dh` outputs, per head. Zero in exact mode
    /// and at `t = 0` (no cached context, no attention GEMMs).
    pub fn attn_psum_words(&self, t: usize) -> BufferTraffic {
        if t == 0 {
            return BufferTraffic::new();
        }
        match &self.seq_apsq {
            None => BufferTraffic::new(),
            Some((_, k_tile)) => {
                let dh = (self.wq.d_out() / self.heads) as u64;
                let h = self.heads as u64;
                let np_qk = (self.wq.d_out() / self.heads).div_ceil(*k_tile) as u64;
                let np_pv = t.div_ceil(*k_tile) as u64;
                let t = t as u64;
                BufferTraffic {
                    writes: h * (np_qk * t + np_pv * dh),
                    reads: h * ((np_qk - 1) * t + (np_pv - 1) * dh),
                }
            }
        }
    }

    /// PSUM words for one `m`-row call across all four projections.
    fn psum_words(&self, m: usize) -> BufferTraffic {
        let mut t = self.wq.psum_words(m);
        t += self.wk.psum_words(m);
        t += self.wv.psum_words(m);
        t += self.wo.psum_words(m);
        t
    }
}

/// Integer-datapath pre-LN transformer block: LayerNorm / GELU /
/// residuals in f32, every weight GEMM through [`Int8Linear`] with
/// requantization at each integer layer's input.
#[derive(Clone, Debug)]
pub struct Int8TransformerBlock {
    ln1: LayerNorm,
    attn: Int8MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Int8Linear,
    fc2: Int8Linear,
}

impl Int8TransformerBlock {
    /// PTQ-converts a trained block; `x` is the block's calibration input
    /// (the conversion pass propagates activations layer by layer), used
    /// to freeze the attention Q scale.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Int8Linear::from_quant_linear`].
    pub fn from_float(block: &crate::TransformerBlock, x: &Tensor, eng: &ExecEngine) -> Self {
        let (ln1, attn, ln2, fc1, fc2) = block.parts();
        let a = ln1.forward_inference(x);
        Int8TransformerBlock {
            ln1: ln1.clone(),
            attn: Int8MultiHeadAttention::from_float(attn, &a, eng),
            ln2: ln2.clone(),
            fc1: Int8Linear::from_quant_linear(fc1),
            fc2: Int8Linear::from_quant_linear(fc2),
        }
    }

    /// Full-sequence inference over `[T, d]`.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let a = self.ln1.forward_inference(x);
        let a = self.attn.forward_inference_with(&a, eng);
        let x1 = x + &a;
        self.ffn_inference(&x1, eng)
    }

    /// Batched decode step over `[B, d]` — one row per sequence, whose K/V
    /// for this block live in `layer`'s block table of its
    /// [`crate::PagedKvState`] (see
    /// [`Int8MultiHeadAttention::forward_decode_batch_paged_with`]).
    pub fn forward_decode_batch_paged_with(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &crate::BlockPool,
        states: &mut [&mut crate::PagedKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        let a = self.ln1.forward_inference(x);
        let a = self
            .attn
            .forward_decode_batch_paged_with(&a, layer, pool, states, eng);
        let x1 = x + &a;
        self.ffn_inference(&x1, eng)
    }

    /// Attention heads of the block.
    pub(crate) fn heads(&self) -> usize {
        self.attn.heads
    }

    /// Analytic attention PSUM words for one decode row at context `t`.
    fn attn_psum_words(&self, t: usize) -> BufferTraffic {
        self.attn.attn_psum_words(t)
    }

    fn ffn_inference(&self, x1: &Tensor, eng: &ExecEngine) -> Tensor {
        let f = self.ln2.forward_inference(x1);
        let h = self.fc1.forward_inference_with(&f, eng);
        let g = gelu(&h);
        let o = self.fc2.forward_inference_with(&g, eng);
        x1 + &o
    }

    fn psum_words(&self, m: usize) -> BufferTraffic {
        let mut t = self.attn.psum_words(m);
        t += self.fc1.psum_words(m);
        t += self.fc2.psum_words(m);
        t
    }
}

/// Integer-datapath causal decoder LM: the serving-path model. Embedding
/// lookups and LayerNorms stay f32; every projection, FFN, and the LM
/// head run as [`Int8Linear`] GEMMs, and the KV blocks hold **i8 codes
/// with per-(token, head) power-of-two scales** so decode attention runs
/// `Q·Kᵀ` and `P·V` in the integer domain with grouped APSQ folded over
/// the context dimension ([`Int8MultiHeadAttention`]).
#[derive(Clone, Debug)]
pub struct Int8DecoderLm {
    embed: Embedding,
    blocks: Vec<Int8TransformerBlock>,
    ln: LayerNorm,
    lm_head: Int8Linear,
}

impl Int8DecoderLm {
    /// PTQ conversion pass: converts every [`QuantLinear`] site from its
    /// frozen training state and calibrates the (plain f32) LM head from
    /// the activations `calib_ids` produces at its input.
    ///
    /// # Panics
    ///
    /// Panics if the source model was never primed (uncalibrated
    /// quantizers / unwarmed observers) or `calib_ids` is empty.
    pub fn from_decoder(m: &DecoderLm, calib_ids: &[usize], eng: &ExecEngine) -> Self {
        assert!(
            !calib_ids.is_empty(),
            "need a non-empty calibration sequence"
        );
        let (embed, blocks, ln, lm_head) = m.parts();
        let mut h = embed.forward_inference(calib_ids);
        let mut int8_blocks = Vec::with_capacity(blocks.len());
        for b in blocks {
            int8_blocks.push(Int8TransformerBlock::from_float(b, &h, eng));
            h = b.forward_inference_with(&h, eng);
        }
        let hn = ln.forward_inference(&h);
        Int8DecoderLm {
            embed: embed.clone(),
            blocks: int8_blocks,
            ln: ln.clone(),
            lm_head: Int8Linear::from_linear(lm_head, &hn),
        }
    }

    /// Decoder depth (transformer blocks).
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Attention heads per block.
    ///
    /// # Panics
    ///
    /// Panics on a depth-0 model (never produced by the conversion pass).
    pub fn heads(&self) -> usize {
        self.blocks.first().expect("decoder has no blocks").heads()
    }

    /// Hidden width `d_model`.
    pub fn width(&self) -> usize {
        self.embed.tokens.value.dims()[1]
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.embed.tokens.value.dims()[0]
    }

    /// Maximum sequence length (positional-table rows).
    pub fn max_len(&self) -> usize {
        self.embed.positions.value.dims()[0]
    }

    /// Full-sequence inference: token ids → `[T, vocab]` logits.
    pub fn forward_inference_with(&self, ids: &[usize], eng: &ExecEngine) -> Tensor {
        let mut h = self.embed.forward_inference(ids);
        for b in &self.blocks {
            h = b.forward_inference_with(&h, eng);
        }
        let h = self.ln.forward_inference(&h);
        self.lm_head.forward_inference_with(&h, eng)
    }

    /// An empty paged KV state with one block table per decoder layer.
    /// Pair with an **int8** [`crate::BlockPool`] over an allocator sized
    /// by [`crate::BlockAllocator::int8`] from the model's `width()` and
    /// `heads()` — `2·(d + heads)` bytes per stored token instead of the
    /// f32 blocks' `8·d`.
    pub fn new_paged_state(&self) -> crate::PagedKvState {
        crate::PagedKvState::for_layers(self.blocks.len())
    }

    /// Batched decode through the integer datapath: one token per
    /// sequence, returning `[B, vocab]` next-token logits. Every
    /// sequence's KV lives in fixed-size blocks carved from the shared
    /// pool's byte budget. The pool lock covers only appends; gathers are
    /// lock-free, so batches on other workers decode concurrently. Row `b`
    /// is bit-identical to decoding that sequence alone and to row `t` of
    /// [`Self::forward_inference_with`] over its prefix, for every block
    /// size, engine thread count, and worker count — integer GEMM rows are
    /// independent and exact, and the f32 glue is per-row (see
    /// [`Int8MultiHeadAttention::forward_decode_batch_paged_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` and `states` lengths differ, the batch is
    /// empty, a state was built for a different depth, a position exceeds
    /// `max_len`, or the block pool is exhausted.
    pub fn decode_batch_paged_with(
        &self,
        tokens: &[usize],
        states: &mut [&mut crate::PagedKvState],
        pool: &crate::BlockPool,
        eng: &ExecEngine,
    ) -> Tensor {
        assert_eq!(tokens.len(), states.len(), "one KV state per token");
        assert!(!tokens.is_empty(), "empty decode batch");
        let d = self.width();
        let mut x = Tensor::zeros([tokens.len(), d]);
        for (i, (&t, s)) in tokens.iter().zip(states.iter()).enumerate() {
            assert_eq!(s.num_layers(), self.blocks.len(), "KV state depth mismatch");
            let row = self.embed.embed_one(t, s.position());
            x.data_mut()[i * d..(i + 1) * d].copy_from_slice(row.data());
        }
        let mut h = x;
        for (l, b) in self.blocks.iter().enumerate() {
            h = b.forward_decode_batch_paged_with(&h, l, pool, states, eng);
        }
        let h = self.ln.forward_inference(&h);
        for s in states.iter_mut() {
            s.advance();
        }
        self.lm_head.forward_inference_with(&h, eng)
    }

    /// PSUM-buffer traffic (stored words) one decode token incurs across
    /// every integer **projection/FFN/head** GEMM in the model — the
    /// Algorithm-1 invariant counts, independent of `gs`. Multiply by the
    /// storage format's bytes-per-word (`apsq_dataflow::PsumFormat::beta`)
    /// for bytes. Attention-GEMM traffic grows with the context; see
    /// [`Int8DecoderLm::attn_psum_words_at`].
    pub fn psum_words_per_token(&self) -> BufferTraffic {
        let mut t = BufferTraffic::new();
        for b in &self.blocks {
            t += b.psum_words(1);
        }
        t += self.lm_head.psum_words(1);
        t
    }

    /// PSUM-buffer traffic the **attention** APSQ folds incur for one
    /// decode token at context length `t`, summed over all layers.
    pub fn attn_psum_words_at(&self, t: usize) -> BufferTraffic {
        let mut words = BufferTraffic::new();
        for b in &self.blocks {
            words += b.attn_psum_words(t);
        }
        words
    }
}

/// Integer-datapath encoder classifier: quantized blocks plus the
/// nonlinear pooler/head converted by best-effort W8A8 PTQ.
#[derive(Clone, Debug)]
pub struct Int8EncoderClassifier {
    embed: Embedding,
    blocks: Vec<Int8TransformerBlock>,
    ln: LayerNorm,
    pooler: Int8Linear,
    head: Int8Linear,
}

impl Int8EncoderClassifier {
    /// PTQ conversion pass: converts every [`QuantLinear`] site and
    /// calibrates the pooler/head from the activations `calib_ids`
    /// produce at their inputs.
    ///
    /// # Panics
    ///
    /// Panics if the source model was never trained/primed or
    /// `calib_ids` is empty.
    pub fn from_classifier(m: &EncoderClassifier, calib_ids: &[usize], eng: &ExecEngine) -> Self {
        assert!(
            !calib_ids.is_empty(),
            "need a non-empty calibration sequence"
        );
        let (embed, blocks, ln, pooler, head) = m.parts();
        let mut h = embed.forward_inference(calib_ids);
        let mut int8_blocks = Vec::with_capacity(blocks.len());
        for b in blocks {
            int8_blocks.push(Int8TransformerBlock::from_float(b, &h, eng));
            h = b.forward_inference_with(&h, eng);
        }
        let hn = ln.forward_inference(&h);
        let pooled = &sum_axis0(&hn) * (1.0 / calib_ids.len() as f32);
        let pooled = pooled.reshape([1, hn.dims()[1]]);
        let z = pooler.forward_inference_with(&pooled, eng);
        Int8EncoderClassifier {
            embed: embed.clone(),
            blocks: int8_blocks,
            ln: ln.clone(),
            pooler: Int8Linear::from_linear(pooler, &pooled),
            head: Int8Linear::from_linear(head, &gelu(&z)),
        }
    }

    /// Inference: token ids → `[1, classes]` logits (mean-pooled).
    pub fn forward_inference_with(&self, ids: &[usize], eng: &ExecEngine) -> Tensor {
        let mut h = self.embed.forward_inference(ids);
        for b in &self.blocks {
            h = b.forward_inference_with(&h, eng);
        }
        let h = self.ln.forward_inference(&h);
        let pooled = &sum_axis0(&h) * (1.0 / ids.len() as f32);
        let pooled = pooled.reshape([1, h.dims()[1]]);
        let z = self.pooler.forward_inference_with(&pooled, eng);
        self.head.forward_inference_with(&gelu(&z), eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn apsq_mode(gs: usize, k_tile: usize) -> PsumMode {
        PsumMode::Apsq {
            bits: Bitwidth::INT8,
            gs,
            k_tile,
        }
    }

    /// A calibrated + pow2-snapped QuantLinear and a matching input batch.
    fn snapped_layer(
        d_in: usize,
        d_out: usize,
        mode: PsumMode,
        seed: u64,
    ) -> (QuantLinear, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ql = QuantLinear::new(d_in, d_out, Bitwidth::INT8, mode, &mut rng);
        let calib = apsq_tensor::randn([4, d_in], 1.0, &mut rng);
        ql.calibrate(&calib, &ExecEngine::serial());
        ql.snap_pow2();
        let x = apsq_tensor::randn([3, d_in], 1.0, &mut rng);
        (ql, x)
    }

    /// An int8 pool with room for `sessions` sequences of `len` tokens.
    fn int8_pool(
        im: &Int8DecoderLm,
        block_tokens: usize,
        len: usize,
        sessions: usize,
    ) -> crate::BlockPool {
        let bpb = crate::BlockAllocator::int8_bytes_per_block(block_tokens, im.width(), im.heads());
        let blocks = sessions * im.num_layers() * len.div_ceil(block_tokens);
        crate::BlockPool::new(crate::BlockAllocator::int8(
            blocks * bpb,
            block_tokens,
            im.width(),
            im.heads(),
        ))
    }

    #[test]
    fn exact_mode_is_bit_identical_to_fake_quant() {
        let (ql, x) = snapped_layer(24, 10, PsumMode::Exact, 3);
        let il = Int8Linear::from_quant_linear(&ql);
        for threads in [1usize, 4] {
            let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
            assert_eq!(
                il.forward_inference_with(&x, &eng),
                ql.forward_inference_with(&x, &eng),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn apsq_mode_is_bit_identical_to_fake_quant() {
        for (gs, k_tile) in [(1usize, 8usize), (2, 8), (3, 7), (4, 16)] {
            let (ql, x) = snapped_layer(32, 12, apsq_mode(gs, k_tile), 7);
            let il = Int8Linear::from_quant_linear(&ql);
            for threads in [1usize, 3] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                assert_eq!(
                    il.forward_inference_with(&x, &eng),
                    ql.forward_inference_with(&x, &eng),
                    "gs={gs} k_tile={k_tile} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn traced_forward_reports_invariant_traffic() {
        let (ql, x) = snapped_layer(32, 6, apsq_mode(2, 8), 11);
        let il = Int8Linear::from_quant_linear(&ql);
        let (_, traffic) = il.forward_traced(&x, &ExecEngine::serial());
        // np = 4 tiles over 3 rows × 6 cols.
        assert_eq!(traffic.writes, 4 * 18);
        assert_eq!(traffic.reads, 3 * 18);
        assert_eq!(il.psum_words(3), traffic);
    }

    #[test]
    #[should_panic(expected = "uncalibrated QuantLinear")]
    fn conversion_requires_calibration() {
        let mut rng = StdRng::seed_from_u64(1);
        let ql = QuantLinear::new(8, 4, Bitwidth::INT8, PsumMode::Exact, &mut rng);
        let _ = Int8Linear::from_quant_linear(&ql);
    }

    #[test]
    fn from_linear_is_close_to_f32() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = Linear::new(32, 8, &mut rng);
        let calib = apsq_tensor::randn([8, 32], 1.0, &mut rng);
        let il = Int8Linear::from_linear(&l, &calib);
        let x = apsq_tensor::randn([4, 32], 1.0, &mut rng);
        let eng = ExecEngine::serial();
        let y_fp = l.forward_inference_with(&x, &eng);
        let y_q = il.forward_inference_with(&x, &eng);
        let rel = (&y_q - &y_fp).norm() / y_fp.norm().max(1e-6);
        assert!(rel < 0.1, "PTQ error {rel}");
    }

    #[test]
    fn int8_decoder_decode_matches_its_full_forward() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = ModelConfig::tiny(apsq_mode(2, 16));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);
        assert_eq!(im.num_layers(), 2);
        assert_eq!(im.vocab(), cfg.vocab);

        let ids = [3usize, 7, 1, 12, 5, 9];
        let full = im.forward_inference_with(&ids, &eng);
        let pool = int8_pool(&im, 4, ids.len(), 1);
        let mut state = im.new_paged_state();
        // Incremental int8 decode attends the exact per-row KV bytes of
        // the full-sequence forward: bit-identical, not merely close.
        for (i, &t) in ids.iter().enumerate() {
            let dec = im.decode_batch_paged_with(&[t], &mut [&mut state], &pool, &eng);
            for j in 0..cfg.vocab {
                assert_eq!(
                    full.at(&[i, j]).to_bits(),
                    dec.at(&[0, j]).to_bits(),
                    "step {i} logit {j}: {} vs {}",
                    full.at(&[i, j]),
                    dec.at(&[0, j])
                );
            }
        }
        state.release(&mut pool.lock());
        let words = im.psum_words_per_token();
        assert!(words.writes > 0 && words.reads > 0);
        let attn_words = im.attn_psum_words_at(ids.len());
        assert!(attn_words.writes > 0);
    }

    #[test]
    fn decode_attention_traffic_matches_analytic_counts() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = ModelConfig::tiny(apsq_mode(2, 4));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);

        // Drive one attention layer directly and compare traced traffic to
        // the Algorithm-1 invariant counts.
        let attn = &im.blocks[0].attn;
        let d = im.width();
        // Degenerate context: no cached rows means no attention GEMMs
        // (and no u64 underflow in the `np − 1` read counts).
        assert_eq!(attn.attn_psum_words(0), BufferTraffic::new());
        let pool = crate::BlockPool::new(crate::BlockAllocator::int8(1 << 16, 4, d, im.heads()));
        let mut state = crate::PagedKvState::for_layers(1);
        for step in 0..9 {
            let x = apsq_tensor::randn([1, d], 1.0, &mut rng);
            let (_, traffic) =
                attn.forward_decode_batch_paged_traced(&x, 0, &pool, &mut [&mut state], &eng);
            state.advance();
            let t = step + 1;
            assert_eq!(
                traffic,
                attn.attn_psum_words(t),
                "context length {t}: traced traffic diverged from the analytic counts"
            );
        }
        state.release(&mut pool.lock());
    }

    #[test]
    fn int8_kv_cache_is_4x_smaller_per_token() {
        let mut rng = StdRng::seed_from_u64(43);
        let cfg = ModelConfig::tiny(apsq_mode(2, 16));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let eng = ExecEngine::serial();
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);

        // One-token blocks: referenced bytes are exactly per-token bytes.
        let i8_pool = int8_pool(&im, 1, 3, 1);
        let f32_pool = crate::BlockPool::new(crate::BlockAllocator::f32(1 << 20, 1, m.width()));
        let mut i8_state = im.new_paged_state();
        let mut f32_state = m.new_paged_state();
        for &t in &[1usize, 2, 3] {
            let _ = im.decode_batch_paged_with(&[t], &mut [&mut i8_state], &i8_pool, &eng);
            let _ = m.decode_batch_paged_with(&[t], &mut [&mut f32_state], &f32_pool, &eng);
        }
        let f32_bytes = f32_state.kv_bytes(&f32_pool.lock());
        let i8_bytes = i8_state.kv_bytes(&i8_pool.lock());
        assert!(i8_bytes > 0);
        let ratio = f32_bytes as f64 / i8_bytes as f64;
        // tiny config: d = 64, heads = 4 ⇒ 8·64 / (2·(64 + 4)) = 3.76;
        // serving shapes with head_dim ≥ 40 exceed 3.9 (see paged tests).
        assert!(ratio > 3.7, "per-token KV ratio {ratio}");
        i8_state.release(&mut i8_pool.lock());
        f32_state.release(&mut f32_pool.lock());
    }

    #[test]
    fn int8_decoder_batched_decode_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(23);
        let cfg = ModelConfig::tiny(apsq_mode(3, 8));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let eng = ExecEngine::with_threads(4).with_spawn_threshold(0);
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);

        let seqs: [&[usize]; 3] = [&[1, 2, 3], &[7, 7], &[4, 9, 2]];
        let pool = int8_pool(&im, 2, 3, 2 * seqs.len());
        // Sequential reference.
        let mut solo_logits = Vec::new();
        for seq in &seqs {
            let mut st = im.new_paged_state();
            let mut last = Tensor::zeros([1, 1]);
            for &t in *seq {
                last = im.decode_batch_paged_with(&[t], &mut [&mut st], &pool, &eng);
            }
            solo_logits.push(last);
        }
        // Batched: step through in lockstep while sequences remain.
        let mut states: Vec<crate::PagedKvState> = (0..3).map(|_| im.new_paged_state()).collect();
        let mut batched_last: Vec<Option<Tensor>> = vec![None; 3];
        for step in 0..3 {
            let active: Vec<usize> = (0..3).filter(|&i| step < seqs[i].len()).collect();
            let tokens: Vec<usize> = active.iter().map(|&i| seqs[i][step]).collect();
            let mut sts: Vec<&mut crate::PagedKvState> = states
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| active.contains(i))
                .map(|(_, s)| s)
                .collect();
            let logits = im.decode_batch_paged_with(&tokens, &mut sts, &pool, &eng);
            let vocab = logits.dims()[1];
            for (row, &i) in active.iter().enumerate() {
                batched_last[i] = Some(Tensor::from_vec(
                    logits.data()[row * vocab..(row + 1) * vocab].to_vec(),
                    [1, vocab],
                ));
            }
        }
        for (i, solo) in solo_logits.iter().enumerate() {
            assert_eq!(batched_last[i].as_ref().unwrap(), solo, "sequence {i}");
        }
    }

    #[test]
    fn int8_paged_decode_is_bit_identical_to_full_forward() {
        let mut rng = StdRng::seed_from_u64(29);
        let cfg = ModelConfig::tiny(apsq_mode(2, 8));
        let mut m = crate::DecoderLm::new(&cfg, &mut rng);
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let _ = m.forward(&prime);
        let im = Int8DecoderLm::from_decoder(&m, &prime, &ExecEngine::serial());

        let ids = [3usize, 7, 1, 12, 5, 9, 2];
        // Full-sequence reference: the last position's logits.
        let full = im.forward_inference_with(&ids, &ExecEngine::serial());
        let vocab = full.dims()[1];
        let reference =
            Tensor::from_vec(full.data()[(ids.len() - 1) * vocab..].to_vec(), [1, vocab]);
        for block_tokens in [1usize, 3, 8] {
            for threads in [1usize, 4] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                let pool = int8_pool(&im, block_tokens, ids.len(), 1);
                let mut state = im.new_paged_state();
                let mut paged = Tensor::zeros([1, 1]);
                for &t in &ids {
                    paged = im.decode_batch_paged_with(&[t], &mut [&mut state], &pool, &eng);
                }
                assert_eq!(
                    paged, reference,
                    "block_tokens={block_tokens} threads={threads}"
                );
                let mut alloc = pool.lock();
                state.release(&mut alloc);
                assert_eq!(alloc.blocks_in_use(), 0);
            }
        }
    }

    #[test]
    fn int8_classifier_tracks_the_float_model() {
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = ModelConfig::tiny(PsumMode::Exact);
        let mut m = EncoderClassifier::new(&cfg, 3, &mut rng);
        let calib: Vec<usize> = (0..8).map(|i| i % cfg.vocab).collect();
        let y_fp = m.forward(&calib);
        let eng = ExecEngine::serial();
        let im = Int8EncoderClassifier::from_classifier(&m, &calib, &eng);
        let y_q = im.forward_inference_with(&calib, &eng);
        assert_eq!(y_q.dims(), &[1, 3]);
        let rel = (&y_q - &y_fp).norm() / y_fp.norm().max(1e-6);
        assert!(rel < 0.35, "int8 classifier drifted: {rel}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "QAT training is only fast enough in release"
    )]
    fn training_pipeline_to_int8_conversion_end_to_end() {
        // The full story: QAT-train a tiny decoder, convert, decode.
        let cfg = ModelConfig::tiny(apsq_mode(2, 16));
        let m = crate::qat::train_lm(&cfg, &TrainConfig::quick());
        let eng = ExecEngine::serial();
        let prime: Vec<usize> = (0..cfg.max_len).map(|i| i % cfg.vocab).collect();
        let im = Int8DecoderLm::from_decoder(&m, &prime, &eng);
        let pool = int8_pool(&im, 4, 1, 1);
        let mut st = im.new_paged_state();
        let logits = im.decode_batch_paged_with(&[1], &mut [&mut st], &pool, &eng);
        assert_eq!(logits.dims(), &[1, cfg.vocab]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }
}
