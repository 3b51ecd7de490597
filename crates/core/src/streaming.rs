//! Incremental (push-based) grouped APSQ, for simulators and execution
//! engines that produce PSUM tiles one accumulation step at a time.

use crate::config::ApsqConfig;
use crate::grouped::ApsqRun;
use crate::schedule::ScaleSchedule;
use crate::traffic::BufferTraffic;
use apsq_quant::Pow2Scale;
use apsq_tensor::{ExecEngine, Gemm, Int32Tensor, Int8Tensor, Layout, Shape};

/// A truly incremental implementation of Algorithm 1 (grouped APSQ):
/// each push executes one algorithm step immediately, so only the INT8
/// code bank — the state the hardware itself keeps — is retained between
/// steps. The incoming PSUM tiles are **not** collected; peak tile memory
/// is one tile (plus the reused accumulator buffers) regardless of stream
/// length.
///
/// A stream quantizes with either a fixed [`ScaleSchedule`]
/// ([`StreamingApsq::new`]) or scales it commits itself
/// ([`StreamingApsq::calibrating`]): each push then picks the tightest
/// power of two covering the exact accumulator it is about to quantize.
/// That choice is causal — it needs nothing from later tiles — so the
/// calibrating stream *is* single-stream [`ScaleSchedule::calibrate`];
/// there is no separate replay.
///
/// [`crate::grouped_apsq`] is a thin batch wrapper over this type, so the
/// two stay bit-identical by construction.
///
/// # Examples
///
/// ```
/// use apsq_core::{ApsqConfig, ScaleSchedule, StreamingApsq};
/// use apsq_quant::Bitwidth;
/// use apsq_tensor::Int32Tensor;
///
/// let sched = ScaleSchedule::uniform(2, 0, Bitwidth::INT8);
/// let mut s = StreamingApsq::new(sched, ApsqConfig::int8(1));
/// s.push(Int32Tensor::from_vec(vec![10], [1]));
/// s.push(Int32Tensor::from_vec(vec![5], [1]));
/// let run = s.finish();
/// assert_eq!(run.output.data(), &[15]);
///
/// // Self-calibrating: 1000 needs 2^3 (127 · 8 ≥ 1000), and the final
/// // fold sees 1000 + 24 = 1024 → 2^4.
/// let mut s = StreamingApsq::calibrating(2, ApsqConfig::int8(1));
/// s.push_slice(&[1000]);
/// s.push_slice(&[24]);
/// let run = s.finish();
/// assert_eq!(run.schedule.scale(0).exponent(), 3);
/// assert_eq!(run.schedule.scale(1).exponent(), 4);
/// assert_eq!(run.output.data(), &[1024]);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingApsq {
    config: ApsqConfig,
    steps: usize,
    /// Committed per-step scales: a fixed stream starts with all `steps`
    /// of them, a calibrating stream starts empty and commits one per push.
    scales: Vec<Pow2Scale>,
    step: usize,
    shape: Option<Shape>,
    /// Exact 64-bit fold of the current step's tile and carried codes.
    acc: Vec<i64>,
    /// The current step's quantizer input (clamped to i32).
    input: Vec<i32>,
    stored_codes: Vec<Vec<i32>>,
    traffic: BufferTraffic,
    output: Option<Int32Tensor>,
}

impl StreamingApsq {
    /// Creates a stream expecting `schedule.len()` tiles, quantized with
    /// the schedule's scales.
    pub fn new(schedule: ScaleSchedule, config: ApsqConfig) -> Self {
        let steps = schedule.len();
        Self::with_scales(steps, schedule.scales().to_vec(), config)
    }

    /// Creates a self-calibrating stream expecting `steps` tiles: step
    /// `i`'s scale is [`Pow2Scale::covering`] the largest |value| of the
    /// exact accumulator it quantizes (clamped to `i32::MAX`, floored at
    /// 1), committed before the step runs. The run is bit-identical to
    /// [`ScaleSchedule::calibrate`] over the collected stream followed by
    /// [`crate::grouped_apsq`] with that schedule.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn calibrating(steps: usize, config: ApsqConfig) -> Self {
        Self::with_scales(steps, Vec::with_capacity(steps), config)
    }

    fn with_scales(steps: usize, scales: Vec<Pow2Scale>, config: ApsqConfig) -> Self {
        assert!(steps > 0, "stream must cover at least one step");
        StreamingApsq {
            config,
            steps,
            scales,
            step: 0,
            shape: None,
            acc: Vec::new(),
            input: Vec::new(),
            stored_codes: Vec::with_capacity(steps),
            traffic: BufferTraffic::new(),
            output: None,
        }
    }

    /// Number of tiles pushed so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Number of tiles expected in total.
    pub fn steps_expected(&self) -> usize {
        self.steps
    }

    /// Pushes the next PSUM tile.
    ///
    /// # Panics
    ///
    /// Panics if more tiles are pushed than the stream expects, or if the
    /// tile shape differs from the first tile's.
    pub fn push(&mut self, tile: Int32Tensor) {
        self.push_ref(&tile);
    }

    /// Pushes the next PSUM tile by reference — the zero-copy entry point
    /// for engines that stream tiles through one reusable buffer
    /// ([`ExecEngine::gemm_k_tiles`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`StreamingApsq::push`].
    pub fn push_ref(&mut self, tile: &Int32Tensor) {
        self.push_shaped(tile.dims(), tile.data());
    }

    /// Pushes the next PSUM tile as a flat slice (shape `[len]`) — how one
    /// head's sub-tile of a batched [`ExecEngine::gemm_k_tiles`] tile
    /// feeds its own stream without a copy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StreamingApsq::push`].
    pub fn push_slice(&mut self, tile: &[i32]) {
        self.push_shaped(&[tile.len()], tile);
    }

    fn push_shaped(&mut self, dims: &[usize], tile: &[i32]) {
        self.load(dims, tile);
        let scale = match self.scales.get(self.step) {
            Some(&s) => s,
            None => Pow2Scale::covering(self.input_max_abs(), self.config.bits),
        };
        self.commit(scale);
    }

    /// First half of one Algorithm-1 step: assembles the next step's
    /// quantizer input in the accumulator — the tile, plus the
    /// dequantized previous group on an APSQ step (lines 4–7) or the
    /// current group's stored prefix on a final mid-group step (lines
    /// 13–14). A plain PSQ step (lines 9–11) quantizes the tile alone.
    ///
    /// # Panics
    ///
    /// Panics if the stream already received all its tiles, or `dims`
    /// differs from the first tile's shape.
    pub(crate) fn load(&mut self, dims: &[usize], tile: &[i32]) {
        let np = self.steps;
        assert!(self.step < np, "stream already received all {np} tiles");
        match &self.shape {
            Some(shape) => assert_eq!(shape.dims(), dims, "all PSUM tiles must share one shape"),
            None => self.shape = Some(Shape::from(dims)),
        }
        let gs = self.config.group_size.get();
        let i = self.step;
        let folded = if i.is_multiple_of(gs) {
            i.saturating_sub(gs)..i
        } else if i == np - 1 {
            i - i % gs..i
        } else {
            i..i
        };
        self.input.clear();
        if folded.is_empty() {
            self.input.extend_from_slice(tile);
            return;
        }
        // Seeding the accumulator from the tile instead of zeroing it
        // saves a whole pass; integer adds make the regrouping exact.
        self.acc.clear();
        self.acc.extend(tile.iter().map(|&t| t as i64));
        for l in folded {
            // The slice epilogues in `apsq-quant` are branch-free and
            // bit-identical to the scalar `quantize`/`dequantize` maps —
            // `apsq_recursion_reference` stays scalar as the cross-check.
            self.scales[l].dequantize_accumulate(&self.stored_codes[l], &mut self.acc);
            self.traffic.reads += tile.len() as u64;
        }
        // `Qᵢ(clamp(Σ …))`: clamping once here lets the max and the
        // quantizer run in 32-bit lanes.
        const LO: i64 = i32::MIN as i64;
        const HI: i64 = i32::MAX as i64;
        self.input
            .extend(self.acc.iter().map(|&v| v.clamp(LO, HI) as i32));
    }

    /// The magnitude a covering scale must reach for the loaded input:
    /// its largest |value|, clamped to `i32::MAX` and floored at 1.
    pub(crate) fn input_max_abs(&self) -> i32 {
        let m = self.input.iter().fold(0u32, |m, v| m.max(v.unsigned_abs()));
        m.clamp(1, i32::MAX as u32) as i32
    }

    /// Second half of one Algorithm-1 step: quantizes the loaded input at
    /// `scale` (committing it when the stream is calibrating), stores the
    /// codes, and on the final step dequantizes them into `To`.
    pub(crate) fn commit(&mut self, scale: Pow2Scale) {
        if self.scales.len() == self.step {
            self.scales.push(scale);
        }
        let mut codes = Vec::new();
        scale.quantize_slice_into(&self.input, &mut codes);
        self.traffic.writes += codes.len() as u64;
        if self.step == self.steps - 1 {
            let mut out = Vec::new();
            scale.dequantize_slice_into(&codes, &mut out);
            let shape = self.shape.clone().expect("set by the first load");
            self.output = Some(Int32Tensor::from_vec(out, shape));
        }
        self.stored_codes.push(codes);
        self.step += 1;
    }

    /// Completes the stream and returns the APSQ result.
    ///
    /// # Panics
    ///
    /// Panics if fewer tiles were pushed than the stream expects.
    pub fn finish(self) -> ApsqRun {
        assert_eq!(
            self.step, self.steps,
            "stream received {} of {} tiles",
            self.step, self.steps
        );
        ApsqRun {
            output: self
                .output
                .expect("final step always produces the output tile"),
            stored_codes: self.stored_codes,
            traffic: self.traffic,
            schedule: ScaleSchedule::from_scales(self.scales),
        }
    }
}

/// Grouped APSQ folded directly into the K loop of an INT8 GEMM: the
/// engine streams each `Pci`-deep PSUM tile of `a · b` through one
/// reusable buffer, and each tile is quantized/accumulated the moment it
/// is produced — no `Vec<Int32Tensor>` is ever materialized. This is the
/// software shape of the RAE sitting next to the PE array.
///
/// Produces exactly the same [`ApsqRun`] as running [`crate::grouped_apsq`]
/// over the collected tile stream (verified by property tests), for every
/// group size and engine thread count.
///
/// # Panics
///
/// Panics if operands are not rank-2, inner dims disagree, `k_tile == 0`,
/// or `schedule.len() != ceil(K / k_tile)`.
///
/// # Examples
///
/// ```
/// use apsq_core::{grouped_apsq, grouped_apsq_streamed, ApsqConfig, GroupSize, ScaleSchedule};
/// use apsq_quant::Bitwidth;
/// use apsq_tensor::{ExecEngine, Gemm, Int8Tensor, Layout};
///
/// let a = Int8Tensor::from_vec((0..4 * 16).map(|x| (x % 17) as i8 - 8).collect(), [4, 16]);
/// let b = Int8Tensor::from_vec((0..16 * 3).map(|x| (x % 11) as i8 - 5).collect(), [16, 3]);
/// let g = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
/// let mut tiles = Vec::new();
/// ExecEngine::serial().gemm_k_tiles(&g, 4, |_, t| tiles.push(t.clone()));
/// let sched = ScaleSchedule::calibrate(
///     std::slice::from_ref(&tiles),
///     Bitwidth::INT8,
///     GroupSize::new(2),
/// );
/// let batch = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(2));
/// let streamed = grouped_apsq_streamed(
///     &ExecEngine::serial(), &a, &b, 4, &sched, &ApsqConfig::int8(2),
/// );
/// assert_eq!(streamed.output, batch.output);
/// ```
pub fn grouped_apsq_streamed(
    engine: &ExecEngine,
    a: &Int8Tensor,
    b: &Int8Tensor,
    k_tile: usize,
    schedule: &ScaleSchedule,
    config: &ApsqConfig,
) -> ApsqRun {
    assert!(k_tile > 0, "k_tile must be positive");
    let g = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
    let np = g.k.div_ceil(k_tile);
    assert_eq!(
        schedule.len(),
        np,
        "schedule covers {} steps but the GEMM produces {} PSUM tiles",
        schedule.len(),
        np
    );
    let mut stream = StreamingApsq::new(schedule.clone(), *config);
    engine.gemm_k_tiles(&g, k_tile, |_, tile| stream.push_ref(tile));
    stream.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouped::grouped_apsq;
    use apsq_quant::Bitwidth;

    #[test]
    fn matches_batch_api() {
        let tiles: Vec<Int32Tensor> = (0..6)
            .map(|i| Int32Tensor::from_vec(vec![i * 100 - 250, 37 * i], [2]))
            .collect();
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            crate::GroupSize::new(2),
        );
        let batch = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(2));
        let mut s = StreamingApsq::new(sched, ApsqConfig::int8(2));
        for t in &tiles {
            s.push(t.clone());
        }
        let run = s.finish();
        assert_eq!(run.output, batch.output);
        assert_eq!(run.traffic, batch.traffic);
    }

    #[test]
    fn streamed_gemm_matches_batch_over_collected_tiles() {
        let a = Int8Tensor::from_vec(
            (0..8 * 48).map(|x| ((x * 37) % 255) as i8).collect(),
            [8, 48],
        );
        let b = Int8Tensor::from_vec(
            (0..48 * 6).map(|x| ((x * 73) % 251) as i8).collect(),
            [48, 6],
        );
        for (k_tile, gs) in [(8usize, 1usize), (8, 2), (8, 4), (8, 6), (7, 3), (48, 1)] {
            let g = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
            let mut tiles = Vec::new();
            ExecEngine::serial().gemm_k_tiles(&g, k_tile, |_, t| tiles.push(t.clone()));
            let sched = ScaleSchedule::calibrate(
                std::slice::from_ref(&tiles),
                Bitwidth::INT8,
                crate::GroupSize::new(gs),
            );
            let cfg = ApsqConfig::int8(gs);
            let batch = grouped_apsq(&tiles, &sched, &cfg);
            for threads in [1usize, 4] {
                let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
                let run = grouped_apsq_streamed(&eng, &a, &b, k_tile, &sched, &cfg);
                assert_eq!(run.output, batch.output, "k_tile={k_tile} gs={gs}");
                assert_eq!(run.stored_codes, batch.stored_codes);
                assert_eq!(run.traffic, batch.traffic);
            }
        }
    }

    #[test]
    #[should_panic(expected = "already received")]
    fn too_many_pushes() {
        let sched = ScaleSchedule::uniform(1, 0, Bitwidth::INT8);
        let mut s = StreamingApsq::new(sched, ApsqConfig::int8(1));
        s.push(Int32Tensor::zeros([1]));
        s.push(Int32Tensor::zeros([1]));
    }

    #[test]
    #[should_panic(expected = "received 1 of 2")]
    fn too_few_pushes() {
        let sched = ScaleSchedule::uniform(2, 0, Bitwidth::INT8);
        let mut s = StreamingApsq::new(sched, ApsqConfig::int8(1));
        s.push(Int32Tensor::zeros([1]));
        s.finish();
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn shape_drift_rejected() {
        let sched = ScaleSchedule::uniform(2, 0, Bitwidth::INT8);
        let mut s = StreamingApsq::new(sched, ApsqConfig::int8(1));
        s.push(Int32Tensor::zeros([2]));
        s.push(Int32Tensor::zeros([3]));
    }

    #[test]
    #[should_panic(expected = "schedule covers")]
    fn streamed_schedule_mismatch_rejected() {
        let a = Int8Tensor::zeros([2, 8]);
        let b = Int8Tensor::zeros([8, 2]);
        grouped_apsq_streamed(
            &ExecEngine::serial(),
            &a,
            &b,
            4,
            &ScaleSchedule::uniform(3, 0, Bitwidth::INT8),
            &ApsqConfig::int8(1),
        );
    }
}
