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

use crate::block::TransformerBlock;
use crate::decode::{Attention, Project};
use crate::linear::{observer_pow2_scale, Linear, PsumMode, QuantLinear};
use crate::models::{DecoderLm, EncoderClassifier};
use crate::paged::{quantize_int8_kv_row, BlockId, BlockPool, PagedKvState};
use apsq_core::{ApsqConfig, BufferTraffic, GroupSize, ScaleSchedule, StreamingApsq};
use apsq_quant::{pow2_f32, round_to_i8, Bitwidth, LsqQuantizer};
use apsq_tensor::{
    gelu, softmax_row_into, sum_axis0, ExecEngine, Gemm, Int8Tensor, Layout, Tensor,
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

/// Reusable buffers for [`Int8MultiHeadAttention`]'s attention kernel:
/// one set per forward call, resized to each row's context and reused
/// across rows and heads, so the per-row epilogues allocate nothing.
#[derive(Default)]
struct AttnScratch {
    /// `[H, t]` Q·Kᵀ accumulators.
    acc: Vec<i32>,
    /// `[H, t]` dequantized scores.
    scores: Vec<f32>,
    /// `[t]` one head's probabilities, then its value-scaled weights.
    probs: Vec<f32>,
    /// `[H, t]` requantized P·V operand.
    rc: Vec<i8>,
    /// `[d]` P·V accumulators.
    ctx_i32: Vec<i32>,
    /// `[H]` power-of-two exponents of the requantized P·V operand.
    r_exps: Vec<i32>,
    /// `[d]` the query row's i8 codes.
    qc: Vec<i8>,
    /// One APSQ stream per head, reset for every Q·Kᵀ and P·V fold.
    streams: Vec<StreamingApsq>,
}

/// [`Int8MultiHeadAttention`]'s paged-decode scratch: the gathered K/V
/// codes and exponents of the current row's block table plus the
/// kernel's [`AttnScratch`], all reused across the rows of one step.
#[derive(Default)]
pub struct Int8PagedScratch {
    /// Gathered `[t·d]` K and V codes, then `[t·heads]` K and V exponents.
    gathered: [Vec<i8>; 4],
    row: AttnScratch,
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
        let (m, d_out) = (x.dims()[0], self.d_out());
        let g = Gemm::dense(
            Layout::NT,
            q.data(),
            q.dims(),
            self.codes.data(),
            self.codes.dims(),
        );
        let mut acc = vec![0i32; m * d_out];
        let traffic = match &self.psum {
            Int8PsumPath::Exact => {
                eng.gemm(&g, &mut acc);
                BufferTraffic::new()
            }
            Int8PsumPath::Apsq {
                config,
                k_tile,
                schedule,
            } => {
                let mut stream = StreamingApsq::new(schedule.clone(), *config);
                eng.gemm_k_tiles(&g, *k_tile, |_, tile| stream.push_ref(tile));
                stream.finish_into(&mut acc)
            }
        };
        let base = self.x_scale * self.w_scale;
        let mut y = vec![0.0f32; m * d_out];
        for (yrow, arow) in y.chunks_exact_mut(d_out).zip(acc.chunks_exact(d_out)) {
            for ((yv, &av), &bf) in yrow.iter_mut().zip(arow).zip(&self.bias_f) {
                // Multiply-then-add in the same order as the fake-quant
                // epilogue (`out * base` then `+ b`), preserving bit-identity.
                *yv = av as f32 * base + bf;
            }
        }
        (Tensor::from_vec(y, [m, d_out]), traffic)
    }
}

impl Project for Int8Linear {
    fn project(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        self.forward_inference_with(x, eng)
    }

    /// `np` writes and `np − 1` reads per output element regardless of
    /// `gs`; zero for the exact register-resident path.
    fn psum_words(&self, m: usize) -> BufferTraffic {
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
        let [wq, wk, wv, wo] = attn.projections();
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
        pow2_f32(self.q_exp)
    }

    /// Streams the K tiles of a head-batched GEMM and folds each head's
    /// PSUM stream through Algorithm 1 the moment its tile lands: head
    /// `h`'s slice of every tile feeds its own self-calibrating
    /// [`StreamingApsq`] (deterministic: integer tiles are thread-invariant
    /// and each step's scale is a pure function of them), and head `h`'s
    /// `m·n` outputs land in `out[h·m·n..]`. The streams are the caller's,
    /// reset here, so a fold allocates nothing once they have seen its
    /// width.
    fn fold_heads(
        eng: &ExecEngine,
        g: &Gemm<'_, i8>,
        (config, k_tile): (&ApsqConfig, usize),
        streams: &mut Vec<StreamingApsq>,
        traffic: &mut BufferTraffic,
        out: &mut [i32],
    ) {
        let width = g.m * g.n;
        let np = g.k_range.len().div_ceil(k_tile);
        // One layer owns the scratch, so every stream shares its config.
        streams.resize_with(g.batch, || StreamingApsq::calibrating(np, *config));
        for stream in streams.iter_mut() {
            stream.reset(np);
        }
        eng.gemm_k_tiles(g, k_tile, |_, tile| {
            for (stream, head) in streams.iter_mut().zip(tile.data().chunks_exact(width)) {
                stream.push_slice(head);
            }
        });
        for (stream, out_h) in streams.iter().zip(out.chunks_exact_mut(width)) {
            *traffic += stream.finish_into(out_h);
        }
    }

    /// Quantizes the `[d]` query row `q` at the frozen Q scale into
    /// `scratch` and attends it over a flat KV view of length
    /// `t = kv.len`, writing the `[d]` context row to `ctx` and returning
    /// the PSUM buffer traffic the two APSQ folds incurred — the single
    /// attention kernel both the full-sequence forward and paged decode
    /// funnel into. Every intermediate lives in the caller's `scratch`,
    /// reused across rows and heads.
    fn attend_row_view(
        &self,
        q: &[f32],
        kv: &Int8KvView<'_>,
        eng: &ExecEngine,
        scratch: &mut AttnScratch,
        ctx: &mut [f32],
    ) -> BufferTraffic {
        let d = kv.width;
        let heads = self.heads;
        let dh = d / heads;
        let t = kv.len;
        let inv_sqrt = 1.0 / (dh as f32).sqrt();
        let mut traffic = BufferTraffic::new();
        let AttnScratch {
            acc,
            scores,
            probs,
            rc,
            ctx_i32,
            r_exps,
            qc,
            streams,
        } = scratch;
        let q_scale = self.q_scale();
        qc.clear();
        qc.extend(q.iter().map(|&x| round_to_i8(x / q_scale)));
        acc.resize(heads * t, 0);
        scores.resize(heads * t, 0.0);
        probs.resize(t, 0.0);
        rc.resize(heads * t, 0);
        ctx_i32.resize(d, 0);
        r_exps.resize(heads, 0);

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
        match &self.seq_apsq {
            None => eng.gemm(&qk, acc),
            Some((config, k_tile)) => {
                Self::fold_heads(eng, &qk, (config, *k_tile), streams, &mut traffic, acc)
            }
        }
        let qk_scale = q_scale * inv_sqrt;
        for (h, (s_h, acc_h)) in scores
            .chunks_exact_mut(t)
            .zip(acc.chunks_exact(t))
            .enumerate()
        {
            for (j, (s, &v)) in s_h.iter_mut().zip(acc_h).enumerate() {
                *s = v as f32 * qk_scale * pow2_f32(kv.k_exps[j * heads + h] as i32);
            }
        }

        // Softmax in f32, per head; then P·V: fold each value row's scale
        // into the probabilities and requantize, so the GEMM runs on a
        // single scale pair and APSQ can fold over the context (K)
        // dimension.
        for (h, (row, rc_h)) in scores
            .chunks_exact(t)
            .zip(rc.chunks_exact_mut(t))
            .enumerate()
        {
            softmax_row_into(row, probs);
            let mut max_abs = 0.0f32;
            for (j, p) in probs.iter_mut().enumerate() {
                *p *= pow2_f32(kv.v_exps[j * heads + h] as i32);
                max_abs = max_abs.max(p.abs());
            }
            let e = apsq_quant::covering_pow2_exponent(max_abs, 127.0);
            let scale = pow2_f32(e);
            r_exps[h] = e;
            for (c, p) in rc_h.iter_mut().zip(probs.iter()) {
                *c = round_to_i8(p / scale);
            }
        }
        // Per head the [t, dh] column block of the value rows is already
        // the K×N operand the context GEMM consumes.
        let pv = Gemm {
            ldb: d,
            batch: heads,
            stride_b: dh,
            ..Gemm::new(Layout::NN, rc, kv.v_codes, 1, dh, t)
        };
        match &self.seq_apsq {
            None => eng.gemm(&pv, ctx_i32),
            Some((config, k_tile)) => {
                Self::fold_heads(eng, &pv, (config, *k_tile), streams, &mut traffic, ctx_i32)
            }
        }
        for ((out_h, acc_h), &e) in ctx
            .chunks_exact_mut(dh)
            .zip(ctx_i32.chunks_exact(dh))
            .zip(r_exps.iter())
        {
            let scale = pow2_f32(e);
            for (o, &v) in out_h.iter_mut().zip(acc_h) {
                *o = v as f32 * scale;
            }
        }
        traffic
    }

    /// The batched paged decode step over `[B, d]` on an **int8**
    /// [`BlockPool`]: the shared
    /// [`Attention::forward_decode_batch_paged_traced`] without its
    /// traffic count.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[B, d]` with one state per row, or the block
    /// pool is exhausted.
    pub fn forward_decode_batch_paged_with(
        &self,
        x: &Tensor,
        layer: usize,
        pool: &BlockPool,
        states: &mut [&mut PagedKvState],
        eng: &ExecEngine,
    ) -> Tensor {
        self.forward_decode_batch_paged_traced(x, layer, pool, states, eng)
            .0
    }
}

impl Attention for Int8MultiHeadAttention {
    type Proj = Int8Linear;
    type Scratch = Int8PagedScratch;

    fn heads(&self) -> usize {
        self.heads
    }

    fn projections(&self) -> [&Int8Linear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }

    /// All `T` K/V rows are quantized once into flat code and exponent
    /// buffers; query row `i` then attends a prefix view of them — `i + 1`
    /// rows when causal, all `T` otherwise — through the same kernel paged
    /// decode runs over its gathered blocks, so decoding reproduces it
    /// **bit for bit**.
    fn attend_sequence(&self, q: &Tensor, k: &Tensor, v: &Tensor, eng: &ExecEngine) -> Tensor {
        let (t, d) = (q.dims()[0], q.dims()[1]);
        let h = self.heads;
        let (mut k_codes, mut v_codes) = (vec![0i8; t * d], vec![0i8; t * d]);
        let (mut k_exps, mut v_exps) = (vec![0i8; t * h], vec![0i8; t * h]);
        for (src, codes, exps) in [
            (k, &mut k_codes, &mut k_exps),
            (v, &mut v_codes, &mut v_exps),
        ] {
            let rows = src.data().chunks(d).zip(codes.chunks_mut(d));
            for ((row, c), e) in rows.zip(exps.chunks_mut(h)) {
                quantize_int8_kv_row(row, h, c, e);
            }
        }
        let mut ctx = Tensor::zeros([t, d]);
        let mut scratch = AttnScratch::default();
        let rows = q
            .data()
            .chunks_exact(d)
            .zip(ctx.data_mut().chunks_exact_mut(d));
        for (i, (q_row, ctx_row)) in rows.enumerate() {
            let len = if self.causal { i + 1 } else { t };
            let kv = Int8KvView {
                width: d,
                len,
                k_codes: &k_codes[..len * d],
                v_codes: &v_codes[..len * d],
                k_exps: &k_exps[..len * h],
                v_exps: &v_exps[..len * h],
            };
            self.attend_row_view(q_row, &kv, eng, &mut scratch, ctx_row);
        }
        ctx
    }

    /// Gathers the table's i8 codes and exponents (written through the
    /// crate's single per-(token, head) covering-scale recipe) into
    /// `scratch` and runs the integer attention kernel over them.
    fn attend_paged_row(
        &self,
        q: &[f32],
        blocks: &[BlockId],
        t: usize,
        pool: &BlockPool,
        eng: &ExecEngine,
        scratch: &mut Int8PagedScratch,
        ctx: &mut [f32],
    ) -> BufferTraffic {
        let [k_codes, v_codes, k_exps, v_exps] = &mut scratch.gathered;
        pool.gather_int8(blocks, t, k_codes, v_codes, k_exps, v_exps);
        let kv = Int8KvView {
            width: q.len(),
            len: t,
            k_codes,
            v_codes,
            k_exps,
            v_exps,
        };
        self.attend_row_view(q, &kv, eng, &mut scratch.row, ctx)
    }

    /// Algorithm-1 invariant counts: `Q·Kᵀ` streams `⌈dh/k_tile⌉` tiles
    /// over `t` scores, `P·V` streams `⌈t/k_tile⌉` tiles over `dh`
    /// outputs, per head. Zero in exact mode and at `t = 0` (no cached
    /// context, no attention GEMMs).
    fn attn_psum_words(&self, t: usize) -> BufferTraffic {
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
}

/// Integer-datapath pre-LN transformer block: LayerNorm / GELU /
/// residuals in f32, every weight GEMM through [`Int8Linear`] with
/// requantization at each integer layer's input.
pub type Int8TransformerBlock = TransformerBlock<Int8MultiHeadAttention, Int8Linear>;

impl Int8TransformerBlock {
    /// PTQ-converts a trained block; `x` is the block's calibration input
    /// (the conversion pass propagates activations layer by layer), used
    /// to freeze the attention Q scale.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Int8Linear::from_quant_linear`].
    pub fn from_float(block: &TransformerBlock, x: &Tensor, eng: &ExecEngine) -> Self {
        let a = block.ln1.forward_inference(x);
        TransformerBlock {
            ln1: block.ln1.clone(),
            attn: Int8MultiHeadAttention::from_float(&block.attn, &a, eng),
            ln2: block.ln2.clone(),
            fc1: Int8Linear::from_quant_linear(&block.fc1),
            fc2: Int8Linear::from_quant_linear(&block.fc2),
            cache_h: None,
        }
    }
}

/// PTQ-converts every block of a trained stack, propagating the f32
/// calibration activations `h` through it; returns the converted blocks
/// and the stack's output on `h`.
fn convert_blocks(
    blocks: &[TransformerBlock],
    mut h: Tensor,
    eng: &ExecEngine,
) -> (Vec<Int8TransformerBlock>, Tensor) {
    let mut int8_blocks = Vec::with_capacity(blocks.len());
    for b in blocks {
        int8_blocks.push(Int8TransformerBlock::from_float(b, &h, eng));
        h = b.forward_inference_with(&h, eng);
    }
    (int8_blocks, h)
}

/// Integer-datapath causal decoder LM: the serving-path model. Embedding
/// lookups and LayerNorms stay f32; every projection, FFN, and the LM
/// head run as [`Int8Linear`] GEMMs, and the KV blocks hold **i8 codes
/// with per-(token, head) power-of-two scales** so decode attention runs
/// `Q·Kᵀ` and `P·V` in the integer domain with grouped APSQ folded over
/// the context dimension ([`Int8MultiHeadAttention`]).
pub type Int8DecoderLm = DecoderLm<Int8MultiHeadAttention, Int8Linear, Int8Linear>;

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
        let (blocks, h) = convert_blocks(&m.blocks, m.embed.forward_inference(calib_ids), eng);
        let hn = m.ln.forward_inference(&h);
        DecoderLm {
            embed: m.embed.clone(),
            blocks,
            ln: m.ln.clone(),
            lm_head: Int8Linear::from_linear(&m.lm_head, &hn),
        }
    }
}

/// Integer-datapath encoder classifier: quantized blocks plus the
/// nonlinear pooler/head converted by best-effort W8A8 PTQ.
pub type Int8EncoderClassifier = EncoderClassifier<Int8MultiHeadAttention, Int8Linear, Int8Linear>;

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
        let (blocks, h) = convert_blocks(&m.blocks, m.embed.forward_inference(calib_ids), eng);
        let hn = m.ln.forward_inference(&h);
        let pooled = &sum_axis0(&hn) * (1.0 / calib_ids.len() as f32);
        let pooled = pooled.reshape([1, hn.dims()[1]]);
        let z = m.pooler.forward_inference_with(&pooled, eng);
        EncoderClassifier {
            embed: m.embed.clone(),
            blocks,
            ln: m.ln.clone(),
            pooler: Int8Linear::from_linear(&m.pooler, &pooled),
            head: Int8Linear::from_linear(&m.head, &gelu(&z)),
            seq_len_cache: 0,
            pooler_pre_act: None,
        }
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
