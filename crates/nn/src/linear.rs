//! Fully connected layers: plain FP32 and quantization-aware with the APSQ
//! PSUM path.

use crate::decode::Project;
use crate::param::{HasParams, Param};
use apsq_core::{grouped_apsq_f32, FloatScaleSchedule, GroupSize};
use apsq_quant::{Bitwidth, LsqQuantizer};
use apsq_tensor::{sum_axis0, ExecEngine, Gemm, Layout, Tensor};
use rand::Rng;

/// A plain FP32 linear layer `y = x·W + b` with manual backprop.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight `[in, out]`.
    pub w: Param,
    /// Bias `[out]`.
    pub b: Param,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(d_in: usize, d_out: usize, rng: &mut R) -> Self {
        Linear {
            w: Param::new(apsq_tensor::xavier_uniform(d_in, d_out, rng)),
            b: Param::new(Tensor::zeros([d_out])),
            cache_x: None,
        }
    }

    /// Forward pass over `[n, in]`, caching the input for backward.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_with(x, &ExecEngine::serial())
    }

    /// [`Linear::forward`] routed through an execution engine context.
    pub fn forward_with(&mut self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        self.cache_x = Some(x.clone());
        &eng.matmul(x, &self.w.value) + &self.b.value
    }

    /// Inference-only forward (no caches touched).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        self.forward_inference_with(x, &ExecEngine::serial())
    }

    /// [`Linear::forward_inference`] routed through an execution engine.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        &eng.matmul(x, &self.w.value) + &self.b.value
    }

    /// Backward pass: accumulates parameter grads, returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_with(dy, &ExecEngine::serial())
    }

    /// [`Linear::backward`] routed through an execution engine. The weight
    /// gradient accumulates straight into the parameter's gradient buffer
    /// (no per-step `dW` allocation).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_with(&mut self, dy: &Tensor, eng: &ExecEngine) -> Tensor {
        let x = self.cache_x.as_ref().expect("backward before forward");
        let dw = Gemm {
            accumulate: true,
            ..Gemm::dense(Layout::TN, x.data(), x.dims(), dy.data(), dy.dims())
        };
        eng.gemm(&dw, self.w.grad.data_mut());
        self.b.accumulate(&sum_axis0(dy));
        eng.matmul_bt(dy, &self.w.value)
    }
}

impl Project for Linear {
    fn project(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        self.forward_inference_with(x, eng)
    }
}

impl HasParams for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

/// How a [`QuantLinear`] treats its matmul partial sums.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PsumMode {
    /// Exact accumulation (the W8A8 baseline of Table I).
    Exact,
    /// Grouped APSQ over K-tiles of `k_tile` input features (the paper's
    /// method): fake-quantized in forward, straight-through in backward.
    Apsq {
        /// PSUM storage width.
        bits: Bitwidth,
        /// Group size `gs`.
        gs: usize,
        /// Input features per PSUM tile (the accelerator's `Pci`).
        k_tile: usize,
    },
}

/// A quantization-aware linear layer (W8A8 by default) whose accumulation
/// path can run grouped APSQ, exactly as the RAE would at inference.
///
/// Weight and activation fake-quantizers are LSQ with learned steps;
/// PSUM scales are power-of-two relative to the product scale `α_x·α_w`
/// and calibrated by an exponential moving average of per-step maxima —
/// the hardware-consistent reparameterization of the paper's learned
/// power-of-two PSUM scales.
#[derive(Clone, Debug)]
pub struct QuantLinear {
    inner: Linear,
    wq: LsqQuantizer,
    xq: Option<LsqQuantizer>,
    psum_mode: PsumMode,
    /// EMA of per-step max |psum| in product-scale units.
    psum_obs: Vec<f32>,
    /// How many training-forward PSUM scales were floored at 2^0 — the
    /// hardware constraint (a fractional scale is a left shift integer
    /// PSUMs can't do) is applied to the QAT fake-quant path too, and this
    /// counter reports how often it bit.
    psum_floor_clamps: u64,
    cache_xq: Option<Tensor>,
    cache_x: Option<Tensor>,
}

/// EMA momentum for PSUM range observers.
const PSUM_EMA: f32 = 0.9;

impl QuantLinear {
    /// Wraps a freshly initialized linear layer.
    pub fn new<R: Rng + ?Sized>(
        d_in: usize,
        d_out: usize,
        bits: Bitwidth,
        psum_mode: PsumMode,
        rng: &mut R,
    ) -> Self {
        let inner = Linear::new(d_in, d_out, rng);
        Self::from_linear(inner, bits, psum_mode)
    }

    /// Wraps an existing (e.g. teacher-initialized) linear layer.
    pub fn from_linear(inner: Linear, bits: Bitwidth, psum_mode: PsumMode) -> Self {
        if let PsumMode::Apsq { gs, k_tile, .. } = psum_mode {
            assert!(gs > 0, "APSQ group size must be positive");
            assert!(k_tile > 0, "k_tile must be positive");
        }
        let wq = LsqQuantizer::with_init(&inner.w.value, bits, true);
        QuantLinear {
            inner,
            wq,
            xq: None,
            psum_mode,
            psum_obs: Vec::new(),
            psum_floor_clamps: 0,
            cache_xq: None,
            cache_x: None,
        }
    }

    /// The PSUM mode.
    pub fn psum_mode(&self) -> PsumMode {
        self.psum_mode
    }

    /// Changes the PSUM mode (e.g. to sweep `gs` on trained weights).
    pub fn set_psum_mode(&mut self, mode: PsumMode) {
        self.psum_mode = mode;
        self.psum_obs.clear();
    }

    /// Forward pass with fake quantization (training mode: caches for
    /// backward, updates PSUM range observers).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_with(x, &ExecEngine::serial())
    }

    /// [`QuantLinear::forward`] routed through an execution engine context.
    pub fn forward_with(&mut self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        if self.xq.is_none() {
            self.xq = Some(LsqQuantizer::with_init(x, self.wq.bits(), true));
        }
        let xq = self.xq.as_ref().unwrap().forward(x);
        let wq = self.wq.forward(&self.inner.w.value);
        self.cache_x = Some(x.clone());
        self.cache_xq = Some(xq.clone());
        let y = self.matmul_with_psum_path(&xq, &wq, eng);
        &y + &self.inner.b.value
    }

    /// Calibrates the layer for inference without running a training
    /// step: initializes the input quantizer from `batch` (when absent)
    /// and warms the PSUM range observers by replaying the configured
    /// PSUM path — the PTQ entry point for layers that never saw a
    /// training forward. Backward caches are untouched; call it as many
    /// times as there are calibration batches.
    pub fn calibrate(&mut self, batch: &Tensor, eng: &ExecEngine) {
        if self.xq.is_none() {
            self.xq = Some(LsqQuantizer::with_init(batch, self.wq.bits(), true));
        }
        let xq = self.xq.as_ref().unwrap().forward(batch);
        let wq = self.wq.forward(&self.inner.w.value);
        let _ = self.matmul_with_psum_path(&xq, &wq, eng);
    }

    /// Whether the input quantizer has been initialized (by a training
    /// forward or [`QuantLinear::calibrate`]). Inference before
    /// calibration is a debug assertion.
    pub fn is_calibrated(&self) -> bool {
        self.xq.is_some()
    }

    /// Inference-only forward (uses frozen observers; no caches).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        self.forward_inference_with(x, &ExecEngine::serial())
    }

    /// [`QuantLinear::forward_inference`] routed through an execution
    /// engine. Reads the frozen observers in place — no caches touched, no
    /// layer state copied.
    ///
    /// # Panics
    ///
    /// Panics — in **every** build profile — when the layer was never
    /// calibrated (the input quantizer is uninitialized): an f32
    /// passthrough would silently misrepresent the W8A8 datapath. Run one
    /// training forward or [`QuantLinear::calibrate`] first.
    pub fn forward_inference_with(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        let xq = self
            .xq
            .as_ref()
            .expect(
                "QuantLinear inference before calibration: the input quantizer was never \
                 initialized — run one training forward or QuantLinear::calibrate first",
            )
            .forward(x);
        let wq = self.wq.forward(&self.inner.w.value);
        let y = self.matmul_psum_inference(&xq, &wq, eng);
        &y + &self.inner.b.value
    }

    /// Snaps the learned weight/activation steps to exact powers of two
    /// and the bias onto the resulting product-scale grid — the
    /// hardware-consistent reparameterization that makes the fake-quant
    /// inference path exactly representable by the integer datapath
    /// (`Int8Linear`). Idempotent; PSUM observers are kept (they live in
    /// product-scale units and are re-read under the new base).
    pub fn snap_pow2(&mut self) {
        let snap = |s: f32| s.log2().round().exp2();
        self.wq.set_step(snap(self.wq.step()));
        if let Some(q) = &mut self.xq {
            q.set_step(snap(q.step()));
        }
        let base = self.product_scale();
        self.inner.b.value = self.inner.b.value.map(|v| (v / base).round() * base);
    }

    /// The weight quantizer's learned step `α_w`.
    pub fn weight_step(&self) -> f32 {
        self.wq.step()
    }

    /// The input quantizer's learned step `α_x`, when calibrated.
    pub fn input_step(&self) -> Option<f32> {
        self.xq.as_ref().map(|q| q.step())
    }

    /// The weight/activation bit-width.
    pub fn bits(&self) -> Bitwidth {
        self.wq.bits()
    }

    /// The frozen PSUM range observers (EMA of per-step max |psum| in
    /// product-scale units), one per accumulation step — empty until a
    /// training forward or [`QuantLinear::calibrate`] warmed them.
    pub fn psum_observers(&self) -> &[f32] {
        &self.psum_obs
    }

    /// The product scale `α_x·α_w` the integer datapath would carry.
    fn product_scale(&self) -> f32 {
        let ax = self.xq.as_ref().map_or(1.0, |q| q.step());
        ax * self.wq.step()
    }

    /// Training-mode matmul through the configured PSUM path: the
    /// observers are resized to the stream and EMA-updated.
    fn matmul_with_psum_path(&mut self, xq: &Tensor, wq: &Tensor, eng: &ExecEngine) -> Tensor {
        match self.psum_mode {
            PsumMode::Exact => eng.matmul(xq, wq),
            PsumMode::Apsq { bits, gs, k_tile } => apsq_matmul(
                xq,
                wq,
                self.product_scale().max(1e-12),
                bits,
                gs,
                k_tile,
                eng,
                Observers::Train {
                    obs: &mut self.psum_obs,
                    floor_clamps: &mut self.psum_floor_clamps,
                },
            ),
        }
    }

    /// How many PSUM scales the training forward floored at 2^0 so far.
    /// Nonzero means the data drove sub-unit scales, which the integer
    /// hardware cannot realize — the clamp keeps train-time and PTQ-time
    /// accuracy modeling on the same schedule.
    pub fn psum_floor_clamps(&self) -> u64 {
        self.psum_floor_clamps
    }

    /// The read-only twin of [`Self::matmul_with_psum_path`] for inference:
    /// observers are consulted but never resized or updated, so no layer
    /// state needs to be copied per call.
    fn matmul_psum_inference(&self, xq: &Tensor, wq: &Tensor, eng: &ExecEngine) -> Tensor {
        match self.psum_mode {
            PsumMode::Exact => eng.matmul(xq, wq),
            PsumMode::Apsq { bits, gs, k_tile } => apsq_matmul(
                xq,
                wq,
                self.product_scale().max(1e-12),
                bits,
                gs,
                k_tile,
                eng,
                Observers::Frozen(&self.psum_obs),
            ),
        }
    }

    /// Backward pass: straight-through past the PSUM quantizers, LSQ
    /// gradients for the weight/activation quantizers.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_with(dy, &ExecEngine::serial())
    }

    /// [`QuantLinear::backward`] routed through an execution engine.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_with(&mut self, dy: &Tensor, eng: &ExecEngine) -> Tensor {
        let x = self.cache_x.take().expect("backward before forward");
        let xq = self.cache_xq.take().expect("backward before forward");
        // dW through the weight fake-quantizer (LSQ / STE).
        let mut dwq = Tensor::zeros(self.inner.w.value.dims());
        let g = Gemm::dense(Layout::TN, xq.data(), xq.dims(), dy.data(), dy.dims());
        eng.gemm(&g, dwq.data_mut());
        let dw = self.wq.backward(&self.inner.w.value, &dwq);
        self.inner.w.accumulate(&dw);
        self.inner.b.accumulate(&sum_axis0(dy));
        // dX through the activation fake-quantizer.
        let wq_val = self.wq.forward(&self.inner.w.value);
        let dxq = eng.matmul_bt(dy, &wq_val);
        match &mut self.xq {
            Some(q) => q.backward(&x, &dxq),
            None => dxq,
        }
    }

    /// Applies accumulated LSQ step-size gradients.
    pub fn apply_quantizer_grads(&mut self, lr: f32) {
        self.wq.apply_grad(lr);
        if let Some(q) = &mut self.xq {
            q.apply_grad(lr);
        }
    }

    /// Immutable access to the wrapped FP layer.
    pub fn inner(&self) -> &Linear {
        &self.inner
    }
}

/// Observer state handed to [`apsq_matmul`]: training resizes and
/// EMA-updates the ranges (counting 2^0 floor clamps); inference reads
/// them frozen.
enum Observers<'a> {
    Train {
        obs: &'a mut Vec<f32>,
        floor_clamps: &'a mut u64,
    },
    Frozen(&'a [f32]),
}

/// The one APSQ fake-quant matmul both forward paths share: collect the
/// K-tiled PSUM stream scaled into the integer PSUM domain (the batch
/// calibration replays it on its own scales, the fold on the blended
/// ones, so both need every tile), build the power-of-two schedule from
/// observers + batch calibration, and fold through the grouped float twin
/// of Algorithm 1.
#[allow(clippy::too_many_arguments)]
fn apsq_matmul(
    xq: &Tensor,
    wq: &Tensor,
    base: f32,
    bits: Bitwidth,
    gs: usize,
    k_tile: usize,
    eng: &ExecEngine,
    obs: Observers<'_>,
) -> Tensor {
    let mut scaled: Vec<Tensor> = Vec::new();
    let g = Gemm::dense(Layout::NN, xq.data(), xq.dims(), wq.data(), wq.dims());
    eng.gemm_k_tiles(&g, k_tile, |_, tile| scaled.push(tile * (1.0 / base)));
    let batch =
        FloatScaleSchedule::calibrate_pow2(std::slice::from_ref(&scaled), bits, GroupSize::new(gs));
    // Both paths floor every scale at 2^0: a fractional PSUM scale is a
    // left shift the integer datapath cannot perform. Flooring the frozen
    // path is what lets `Int8Linear` reproduce it bit-for-bit; flooring
    // the training path keeps QAT's accuracy modeling on the schedule the
    // hardware will actually run (the clamp count is reported via
    // `QuantLinear::psum_floor_clamps`).
    let sched = match obs {
        Observers::Train {
            obs: o,
            floor_clamps,
        } => {
            if o.len() != scaled.len() {
                *o = vec![0.0; scaled.len()];
            }
            let qp = bits.signed_range().qp as f32;
            for (obs, s) in o.iter_mut().zip(batch.scales()) {
                let need = s * qp;
                *obs = if *obs == 0.0 {
                    need
                } else {
                    (*obs * PSUM_EMA + need * (1.0 - PSUM_EMA)).max(need * 0.5)
                };
            }
            let (sched, clamps) = blended_schedule(o, &batch, bits);
            *floor_clamps += clamps;
            sched
        }
        // Unwarmed observers (wrong length) contribute nothing — exactly
        // the zero-filled state training would start from.
        Observers::Frozen(o) => {
            let o = if o.len() == scaled.len() { o } else { &[] };
            blended_schedule(o, &batch, bits).0
        }
    };
    let out = grouped_apsq_f32(&scaled, &sched, GroupSize::new(gs));
    &out * base
}

/// Per-step scales from the EMA observers where warmed (`obs > 0`),
/// falling back to the batch calibration; an empty/short `obs` slice means
/// every remaining step uses the batch scale. Every scale is floored at 1
/// — integer PSUMs only shift right, in training and at inference alike —
/// and the returned count says how many steps the floor clamped.
fn blended_schedule(
    obs: &[f32],
    batch: &FloatScaleSchedule,
    bits: Bitwidth,
) -> (FloatScaleSchedule, u64) {
    let qp = bits.signed_range().qp as f32;
    let mut clamps = 0u64;
    let scales: Vec<f32> = batch
        .scales()
        .iter()
        .enumerate()
        .map(|(i, &bs)| {
            let s = match obs.get(i) {
                Some(&o) if o > 0.0 => observer_pow2_scale(o, qp),
                _ => bs,
            };
            if s < 1.0 {
                clamps += 1;
            }
            s.max(1.0)
        })
        .collect();
    (FloatScaleSchedule::new(scales, bits), clamps)
}

/// The power-of-two scale a warmed observer value dictates:
/// `2^⌈log₂(o / Qp)⌉`. `Int8Linear`'s conversion evaluates the **same
/// float expression** when freezing its integer `ScaleSchedule`, which is
/// what keeps the two datapaths bit-identical even at the boundary cases
/// of `log2`'s rounding.
pub(crate) fn observer_pow2_scale(o: f32, qp: f32) -> f32 {
    (o / qp).log2().ceil().exp2()
}

impl Project for QuantLinear {
    fn project(&self, x: &Tensor, eng: &ExecEngine) -> Tensor {
        self.forward_inference_with(x, eng)
    }
}

impl HasParams for QuantLinear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = apsq_tensor::randn([2, 4], 1.0, &mut rng);
        let dy = apsq_tensor::randn([2, 3], 1.0, &mut rng);
        let _ = l.forward(&x);
        let dx = l.backward(&dy);

        // Finite-difference check on one weight and one input element.
        let eps = 1e-3;
        let loss = |l: &Linear, x: &Tensor| -> f32 {
            l.forward_inference(x)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        // dW[1,2]:
        let mut lp = l.clone();
        lp.w.value.set(&[1, 2], lp.w.value.at(&[1, 2]) + eps);
        let mut lm = l.clone();
        lm.w.value.set(&[1, 2], lm.w.value.at(&[1, 2]) - eps);
        let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
        assert!((l.w.grad.at(&[1, 2]) - fd).abs() < 1e-2, "dW mismatch");
        // dx[0,1]:
        let mut xp = x.clone();
        xp.set(&[0, 1], x.at(&[0, 1]) + eps);
        let mut xm = x.clone();
        xm.set(&[0, 1], x.at(&[0, 1]) - eps);
        let fd = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * eps);
        assert!((dx.at(&[0, 1]) - fd).abs() < 1e-2, "dx mismatch");
    }

    #[test]
    fn quant_linear_exact_mode_close_to_fp() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ql = QuantLinear::new(16, 8, Bitwidth::INT8, PsumMode::Exact, &mut rng);
        let x = apsq_tensor::randn([4, 16], 1.0, &mut rng);
        let y_fp = ql.inner().forward_inference(&x);
        let y_q = ql.forward(&x);
        // INT8 fake-quant stays within a few percent of FP32.
        let err = (&y_q - &y_fp).norm() / y_fp.norm().max(1e-6);
        assert!(err < 0.1, "relative error {err}");
    }

    #[test]
    fn apsq_mode_noise_grows_as_gs_shrinks() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = apsq_tensor::randn([8, 64], 1.0, &mut rng);
        let base = {
            let mut ql = QuantLinear::new(64, 16, Bitwidth::INT8, PsumMode::Exact, &mut rng);
            ql.forward(&x)
        };
        let mut errs = Vec::new();
        for gs in [1usize, 8] {
            let mut rng2 = StdRng::seed_from_u64(7); // same init

            let mut ql = QuantLinear::new(
                64,
                16,
                Bitwidth::INT8,
                PsumMode::Apsq {
                    bits: Bitwidth::INT8,
                    gs,
                    k_tile: 8,
                },
                &mut rng2,
            );
            // Warm the observers, then measure.
            let _warm: Tensor = ql.forward(&x);
            let y = ql.forward(&x);
            errs.push(((&y - &base).norm(), gs));
        }
        assert!(
            errs[0].0 >= errs[1].0 * 0.9,
            "gs=1 noise {} should not be clearly smaller than gs=8 noise {}",
            errs[0].0,
            errs[1].0
        );
    }

    /// This expect fires in **release** builds too (it replaced a
    /// `debug_assert!` that compiled out and silently returned an f32
    /// passthrough); the release CI test pass exercises exactly this.
    #[test]
    #[should_panic(expected = "inference before calibration")]
    fn uncalibrated_inference_panics_in_every_profile() {
        let mut rng = StdRng::seed_from_u64(17);
        let ql = QuantLinear::new(8, 4, Bitwidth::INT8, PsumMode::Exact, &mut rng);
        assert!(!ql.is_calibrated());
        let _ = ql.forward_inference(&Tensor::zeros([1, 8]));
    }

    /// The schedule blender floors every sub-unit scale at 2^0 and counts
    /// the clamps — a fractional PSUM scale is a left shift integer
    /// hardware can't do, in training and at inference alike.
    #[test]
    fn blended_schedule_floors_sub_unit_scales() {
        let batch = FloatScaleSchedule::new(vec![0.25, 0.5, 2.0, 1.0], Bitwidth::INT8);
        let (sched, clamps) = blended_schedule(&[], &batch, Bitwidth::INT8);
        assert_eq!(sched.scales(), &[1.0, 1.0, 2.0, 1.0]);
        assert_eq!(clamps, 2);
        // Warmed observers below Qp also floor: o = 32 ⇒ 2^⌈log2(32/127)⌉
        // = 0.5 ⇒ clamped to 1.
        let (sched, clamps) = blended_schedule(&[32.0, 1024.0], &batch, Bitwidth::INT8);
        assert_eq!(sched.scales()[0], 1.0);
        assert_eq!(sched.scales()[1], 16.0, "2^ceil(log2(1024/127))");
        assert_eq!(clamps, 1, "only the warmed sub-unit observer clamps");
    }

    /// The 2^0 PSUM floor applies to the *training* fake-quant schedule
    /// too: under a distribution shift toward tiny PSUMs (sub-unit
    /// scales) a training-mode forward and the frozen inference forward
    /// must agree bit-for-bit, and the layer reports the clamps.
    #[test]
    fn training_psum_floor_matches_inference_floor() {
        let mut rng = StdRng::seed_from_u64(19);
        let mode = PsumMode::Apsq {
            bits: Bitwidth::INT8,
            gs: 2,
            k_tile: 4,
        };
        let mut ql = QuantLinear::new(16, 4, Bitwidth::INT8, mode, &mut rng);
        // Initialize the activation quantizer at unit magnitude, then
        // reset the observers (set_psum_mode clears them) and shift the
        // data small: codes shrink, per-tile PSUMs in product-scale units
        // fall below Qp, and the batch-calibrated scales go sub-unit.
        let _ = ql.forward(&apsq_tensor::randn([3, 16], 1.0, &mut rng));
        ql.set_psum_mode(mode);
        let x = &apsq_tensor::randn([3, 16], 1.0, &mut rng) * 0.05;
        let _warm = ql.forward(&x);
        assert!(
            ql.psum_floor_clamps() > 0,
            "small activations should have driven sub-unit PSUM scales"
        );
        let y_train = ql.forward(&x);
        let y_inf = ql.forward_inference(&x);
        assert_eq!(
            y_train, y_inf,
            "train-time and frozen-inference PSUM schedules diverged"
        );
    }

    #[test]
    fn apsq_backward_is_straight_through() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ql = QuantLinear::new(
            8,
            4,
            Bitwidth::INT8,
            PsumMode::Apsq {
                bits: Bitwidth::INT8,
                gs: 2,
                k_tile: 4,
            },
            &mut rng,
        );
        let x = apsq_tensor::randn([2, 8], 1.0, &mut rng);
        let _ = ql.forward(&x);
        let dy = Tensor::ones([2, 4]);
        let dx = ql.backward(&dy);
        assert_eq!(dx.dims(), &[2, 8]);
        // Weight grads accumulated.
        let mut any = false;
        ql.visit_params(&mut |p| any |= p.grad.norm() > 0.0);
        assert!(any);
    }
}
