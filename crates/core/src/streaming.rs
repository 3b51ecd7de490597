//! Incremental (push-based) grouped APSQ, for simulators and execution
//! engines that produce PSUM tiles one accumulation step at a time.

use crate::config::ApsqConfig;
use crate::grouped::ApsqRun;
use crate::schedule::ScaleSchedule;
use crate::traffic::BufferTraffic;
use apsq_tensor::{apsq, lanes, pack_k_pairs, ExecEngine, Gemm, Int32Tensor, Int8Tensor, Layout};

/// A truly incremental implementation of Algorithm 1 (grouped APSQ):
/// each push executes one algorithm step immediately, and between steps
/// the stream keeps only what the RAE keeps — a ring of `gs` INT8 code
/// rows (step `i` writes row `i mod gs`, the RAE's bank rule; Algorithm 1
/// never reads further back than the previous group) plus the committed
/// per-step scales. Incoming PSUM tiles are **not** collected, and every
/// buffer is sized by a stream's first push and then reused: no later
/// push, no [`StreamingApsq::reset`] to the same step count and tile
/// width, and no [`StreamingApsq::finish_into`] allocates.
///
/// A stream quantizes with either a fixed [`ScaleSchedule`]
/// ([`StreamingApsq::new`]) or scales it commits itself
/// ([`StreamingApsq::calibrating`]): each push then picks the tightest
/// power of two covering the exact accumulator it is about to quantize.
/// That choice is causal — it needs nothing from later tiles — so the
/// calibrating stream *is* single-stream [`ScaleSchedule::calibrate`];
/// there is no separate replay.
///
/// Each push runs the [`apsq_tensor::apsq`] step every fold in the
/// workspace runs ([`lanes::apsq_fold_i32`] and
/// [`lanes::apsq_quantize_i32`], built for AVX2 when detected): the fold
/// runs in i32 whenever a per-push check proves the exact sum cannot
/// leave i32 (`max|tile| + Σ_l 2^(bits−1)·2^e_l ≤ i32::MAX` over the
/// carried rows); otherwise it falls back to an i64 fold clamped into
/// i32. Both give the same bits.
///
/// [`crate::grouped_apsq`] is a thin batch wrapper over this type, so the
/// two stay bit-identical by construction; it records the full code
/// history from [`StreamingApsq::last_codes`] after every push.
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
/// assert_eq!(s.last_codes(), &[125]);
/// s.push_slice(&[24]);
/// let mut out = [0];
/// let traffic = s.finish_into(&mut out);
/// assert_eq!(out, [1024]);
/// assert_eq!((traffic.writes, traffic.reads), (2, 1));
///
/// // The same stream folds again without allocating.
/// s.reset(2);
/// s.push_slice(&[-7]);
/// s.push_slice(&[3]);
/// s.finish_into(&mut out);
/// assert_eq!(out, [-4]);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingApsq {
    config: ApsqConfig,
    steps: usize,
    /// Whether the stream commits its own scales (one per push) instead
    /// of replaying a fixed schedule.
    calibrating: bool,
    /// Committed scale exponents: a fixed stream holds all `steps` of
    /// them, a calibrating stream commits one per push.
    shifts: Vec<u32>,
    step: usize,
    /// `step mod gs`: the ring row the next push writes, kept as a
    /// counter so a push divides nothing.
    row: usize,
    /// The current stream's tile shape, set by its first push.
    dims: Vec<usize>,
    /// The current stream's tile width (`dims` product).
    width: usize,
    /// The RAE code banks: `min(gs, steps)` rows of `width` codes.
    ring: Vec<i32>,
    /// The current step's quantizer input when it folds carried codes
    /// (`staged`); a step that folds nothing quantizes its tile directly.
    input: Vec<i32>,
    staged: bool,
    traffic: BufferTraffic,
}

impl StreamingApsq {
    /// Creates a stream expecting `schedule.len()` tiles, quantized with
    /// the schedule's scales.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's bit-width is not `config.bits`, the width
    /// the stream's codes are stored at.
    pub fn new(schedule: ScaleSchedule, config: ApsqConfig) -> Self {
        assert_eq!(
            schedule.bits(),
            config.bits,
            "schedule bit-width differs from the configuration's"
        );
        let shifts = schedule.scales().iter().map(|s| s.exponent()).collect();
        Self::with_shifts(schedule.len(), false, shifts, config)
    }

    /// Creates a self-calibrating stream expecting `steps` tiles: step
    /// `i`'s scale is the [`apsq::covering_shift`] of the largest |value|
    /// of the exact accumulator it quantizes, committed before the step
    /// runs. The run is bit-identical to
    /// [`ScaleSchedule::calibrate`] over the collected stream followed by
    /// [`crate::grouped_apsq`] with that schedule.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn calibrating(steps: usize, config: ApsqConfig) -> Self {
        let shifts = Vec::with_capacity(steps);
        Self::with_shifts(steps, true, shifts, config)
    }

    fn with_shifts(steps: usize, calibrating: bool, shifts: Vec<u32>, config: ApsqConfig) -> Self {
        assert!(steps > 0, "stream must cover at least one step");
        StreamingApsq {
            config,
            steps,
            calibrating,
            shifts,
            step: 0,
            row: 0,
            dims: Vec::new(),
            width: 0,
            ring: Vec::new(),
            input: Vec::new(),
            staged: false,
            traffic: BufferTraffic::new(),
        }
    }

    /// Rewinds the stream to expect `steps` new tiles, of any one shape,
    /// keeping its buffers: a calibrating stream drops its committed
    /// scales, a fixed stream keeps its schedule.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`, or if the stream has a fixed schedule of a
    /// different length.
    pub fn reset(&mut self, steps: usize) {
        assert!(steps > 0, "stream must cover at least one step");
        if self.calibrating {
            self.shifts.clear();
            self.shifts.reserve(steps);
        } else {
            assert_eq!(
                steps,
                self.shifts.len(),
                "a fixed-schedule stream resets to its schedule's length"
            );
        }
        self.steps = steps;
        self.step = 0;
        self.row = 0;
        self.traffic = BufferTraffic::new();
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
        let shift = (!self.calibrating).then(|| self.shifts[self.step]);
        self.quantize_step(tile, shift);
    }

    /// First half of one Algorithm-1 step: on an APSQ step (lines 4–7)
    /// or a final mid-group step (lines 13–14), folds the tile and the
    /// dequantized carried code rows — the previous group, or the
    /// current group's stored prefix — into the staged quantizer input.
    /// A plain PSQ step (lines 9–11) stages nothing: its tile is the
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if the stream already received all its tiles, or `dims`
    /// differs from the first tile's shape.
    pub(crate) fn load(&mut self, dims: &[usize], tile: &[i32]) {
        let np = self.steps;
        assert!(self.step < np, "stream already received all {np} tiles");
        let gs = self.config.group_size.get();
        let i = self.step;
        if i == 0 {
            self.dims.clear();
            self.dims.extend_from_slice(dims);
            self.width = tile.len();
            self.ring.resize(gs.min(np) * tile.len(), 0);
            self.input.resize(tile.len(), 0);
        } else {
            assert_eq!(
                self.dims.as_slice(),
                dims,
                "all PSUM tiles must share one shape"
            );
        }
        let carried = apsq::carried_rows(i, self.row, np, gs);
        self.staged = carried > 0;
        if self.staged {
            // Carried row r holds step i − carried + r.
            self.traffic.reads += (carried * self.width) as u64;
            let shifts = &self.shifts[i - carried..i];
            lanes::apsq_fold_i32(tile, &self.ring, shifts, self.range(), &mut self.input);
        }
    }

    /// The largest magnitude of the loaded input (the staged fold, or else
    /// `tile`).
    pub(crate) fn input_max_abs(&self, tile: &[i32]) -> u32 {
        apsq::max_abs(if self.staged { &self.input } else { tile })
    }

    /// Second half of one Algorithm-1 step: quantizes the loaded input at
    /// `shift` — committing it when the stream is calibrating — straight
    /// into the step's ring row.
    pub(crate) fn commit(&mut self, shift: u32, tile: &[i32]) {
        self.quantize_step(tile, Some(shift));
    }

    /// Quantizes the loaded input (the staged fold, or else `tile`) at
    /// `shift`, or at its covering shift when `None`, straight into the
    /// step's ring row, committing the shift when the stream is
    /// calibrating.
    fn quantize_step(&mut self, tile: &[i32], shift: Option<u32>) {
        let w = self.width;
        let range = self.range();
        let input = if self.staged { &self.input } else { tile };
        let row = &mut self.ring[self.row * w..][..w];
        let sh = lanes::apsq_quantize_i32(input, shift, range, row);
        if self.calibrating {
            self.shifts.push(sh);
        }
        self.traffic.writes += w as u64;
        self.step += 1;
        self.row += 1;
        if self.row == self.config.group_size.get() {
            self.row = 0;
        }
    }

    /// The code range `(qn, qp)`.
    fn range(&self) -> (i32, i32) {
        let r = self.config.bits.signed_range();
        (r.qn, r.qp)
    }

    /// The codes the latest push stored — its RAE bank row.
    ///
    /// # Panics
    ///
    /// Panics if nothing was pushed since construction or the last
    /// [`StreamingApsq::reset`].
    pub fn last_codes(&self) -> &[i32] {
        assert!(self.step > 0, "no tile pushed yet");
        let w = self.width;
        let row = (self.step - 1) % self.config.group_size.get();
        &self.ring[row * w..][..w]
    }

    /// Completes the stream: dequantizes the final step's codes into
    /// `out` (the output tile `To`) and returns the buffer traffic the
    /// run incurred. The stream can then be [`StreamingApsq::reset`].
    ///
    /// # Panics
    ///
    /// Panics if fewer tiles were pushed than the stream expects, or
    /// `out` is not one tile wide.
    pub fn finish_into(&self, out: &mut [i32]) -> BufferTraffic {
        assert_eq!(
            self.step, self.steps,
            "stream received {} of {} tiles",
            self.step, self.steps
        );
        assert_eq!(out.len(), self.width, "output must be one tile wide");
        out.copy_from_slice(self.last_codes());
        apsq::dequantize(out, self.shifts[self.steps - 1], self.range());
        self.traffic
    }

    /// Completes the stream and returns the APSQ result. The ring keeps
    /// only the last group, so [`ApsqRun::stored_codes`] is empty here;
    /// the batch wrappers record it from [`StreamingApsq::last_codes`].
    ///
    /// # Panics
    ///
    /// Panics if fewer tiles were pushed than the stream expects.
    pub fn finish(self) -> ApsqRun {
        let mut out = vec![0; self.width];
        let traffic = self.finish_into(&mut out);
        ApsqRun {
            output: Int32Tensor::from_vec(out, self.dims),
            stored_codes: Vec::new(),
            traffic,
            schedule: ScaleSchedule::from_exponents(&self.shifts, self.config.bits),
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
/// use apsq_tensor::{pack_k_pairs, ExecEngine, Gemm, Int8Tensor, Layout};
///
/// let a = Int8Tensor::from_vec((0..4 * 16).map(|x| (x % 17) as i8 - 8).collect(), [4, 16]);
/// let b = Int8Tensor::from_vec((0..16 * 3).map(|x| (x % 11) as i8 - 5).collect(), [16, 3]);
/// let panels = pack_k_pairs(b.data(), 16, 3);
/// let g = Gemm::dense(Layout::NP, a.data(), a.dims(), &panels, b.dims());
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
    let &[k, n] = b.dims() else {
        panic!("gemm: `b` must be rank-2, got {:?}", b.dims())
    };
    let panels = pack_k_pairs(b.data(), k, n);
    let g = Gemm::dense(Layout::NP, a.data(), a.dims(), &panels, b.dims());
    let np = g.k.div_ceil(k_tile);
    assert_eq!(
        schedule.len(),
        np,
        "schedule covers {} steps but the GEMM produces {} PSUM tiles",
        schedule.len(),
        np
    );
    let mut stream = StreamingApsq::new(schedule.clone(), *config);
    let mut stored_codes = Vec::with_capacity(np);
    engine.gemm_k_tiles(&g, k_tile, |_, tile| {
        stream.push_ref(tile);
        stored_codes.push(stream.last_codes().to_vec());
    });
    ApsqRun {
        stored_codes,
        ..stream.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouped::{apsq_recursion_reference, grouped_apsq};
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
        let panels = pack_k_pairs(b.data(), 48, 6);
        for (k_tile, gs) in [(8usize, 1usize), (8, 2), (8, 4), (8, 6), (7, 3), (48, 1)] {
            let g = Gemm::dense(Layout::NP, a.data(), a.dims(), &panels, b.dims());
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

    /// Address and capacity of every buffer a stream owns.
    fn buffers(s: &StreamingApsq) -> [(usize, usize); 4] {
        [
            (s.shifts.as_ptr() as usize, s.shifts.capacity()),
            (s.dims.as_ptr() as usize, s.dims.capacity()),
            (s.ring.as_ptr() as usize, s.ring.capacity()),
            (s.input.as_ptr() as usize, s.input.capacity()),
        ]
    }

    #[test]
    fn buffers_never_grow_after_the_first_group() {
        let (np, gs, w) = (11usize, 3usize, 24usize);
        let tiles: Vec<Vec<i32>> = (0..np)
            .map(|i| {
                (0..w)
                    .map(|j| ((i * 131 + j * 37) % 2001) as i32 - 1000)
                    .collect()
            })
            .collect();
        let fixed = StreamingApsq::new(
            ScaleSchedule::uniform(np, 3, Bitwidth::INT8),
            ApsqConfig::int8(gs),
        );
        let calibrating = StreamingApsq::calibrating(np, ApsqConfig::int8(gs));
        for mut s in [fixed, calibrating] {
            let mut first_group = None;
            let mut outputs = Vec::new();
            for round in 0..3 {
                if round > 0 {
                    s.reset(np);
                    assert_eq!(Some(buffers(&s)), first_group, "reset grew a buffer");
                }
                for (i, tile) in tiles.iter().enumerate() {
                    s.push_slice(tile);
                    if round == 0 && i == gs - 1 {
                        first_group = Some(buffers(&s));
                    }
                    if round > 0 || i >= gs - 1 {
                        assert_eq!(Some(buffers(&s)), first_group, "round {round} step {i}");
                    }
                }
                let mut out = vec![0; w];
                s.finish_into(&mut out);
                outputs.push(out);
            }
            // Reuse changes nothing observable either.
            assert!(outputs.iter().all(|o| *o == outputs[0]));
            assert_eq!(outputs[0], s.clone().finish().output.data());
        }
    }

    #[test]
    fn i32_lanes_and_i64_fallback_in_one_stream() {
        // gs = 1, so the eq (10) recursion is an independent oracle. The
        // early tiles fold in i32 lanes; the tile within 1000 of the i32
        // limits cannot, and neither can the last step, which carries its
        // 2^25 scale (there the exact sum clamps at i32::MAX, where
        // wrapping i32 lanes would land near i32::MIN).
        let rows: [[i32; 3]; 7] = [
            [100, -37, 5],
            [-150, 74, 6],
            [2000, -111, 7],
            [-900, 148, 8],
            [450, -185, 9],
            [i32::MAX - 700, i32::MIN + 300, 5],
            [1000, -1000, 7],
        ];
        let tiles: Vec<Int32Tensor> = rows
            .iter()
            .map(|r| Int32Tensor::from_vec(r.to_vec(), [3]))
            .collect();
        let cfg = ApsqConfig::int8(1);
        let mut s = StreamingApsq::calibrating(tiles.len(), cfg);
        let mut stored_codes = Vec::new();
        for t in &tiles {
            s.push_ref(t);
            stored_codes.push(s.last_codes().to_vec());
        }
        let mut out = vec![0; 3];
        let traffic = s.finish_into(&mut out);
        let run = s.finish();
        let sched = run.schedule;

        // Which lane each folding step took: |tile| plus the carried
        // row's largest dequantized magnitude, 2^7 · 2^e.
        let lane_bound = |i: usize| {
            let max = rows[i]
                .iter()
                .map(|v| v.unsigned_abs() as u64)
                .max()
                .unwrap();
            max + (128u64 << sched.scale(i - 1).exponent())
        };
        assert!((1..5).all(|i| lane_bound(i) <= i32::MAX as u64));
        assert!((5..7).all(|i| lane_bound(i) > i32::MAX as u64));

        assert_eq!(out, apsq_recursion_reference(&tiles, &sched).data());
        let batch = grouped_apsq(&tiles, &sched, &cfg);
        assert_eq!(out, batch.output.data());
        assert_eq!(stored_codes, batch.stored_codes);
        assert_eq!(traffic, batch.traffic);
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
    #[should_panic(expected = "schedule bit-width differs")]
    fn schedule_of_another_bit_width_rejected() {
        let sched = ScaleSchedule::uniform(2, 0, Bitwidth::new(4));
        StreamingApsq::new(sched, ApsqConfig::int8(1));
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
