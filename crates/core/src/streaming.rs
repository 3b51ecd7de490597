//! Incremental (push-based) grouped APSQ, for simulators and execution
//! engines that produce PSUM tiles one accumulation step at a time.

use crate::config::ApsqConfig;
use crate::grouped::ApsqRun;
use crate::schedule::ScaleSchedule;
use crate::traffic::BufferTraffic;
use apsq_tensor::{ExecEngine, Gemm, Int32Tensor, Int8Tensor, Layout};

/// A truly incremental implementation of Algorithm 1 (grouped APSQ):
/// each [`StreamingApsq::push`] executes one algorithm step immediately,
/// so only the INT8 code bank — the state the hardware itself keeps — is
/// retained between steps. The incoming PSUM tiles are **not** collected;
/// peak tile memory is one tile regardless of stream length.
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
/// ```
#[derive(Clone, Debug)]
pub struct StreamingApsq {
    schedule: ScaleSchedule,
    config: ApsqConfig,
    step: usize,
    shape: Option<apsq_tensor::Shape>,
    stored_codes: Vec<Vec<i32>>,
    traffic: BufferTraffic,
    output: Option<Int32Tensor>,
}

impl StreamingApsq {
    /// Creates a stream expecting `schedule.len()` tiles.
    pub fn new(schedule: ScaleSchedule, config: ApsqConfig) -> Self {
        let np = schedule.len();
        StreamingApsq {
            schedule,
            config,
            step: 0,
            shape: None,
            stored_codes: Vec::with_capacity(np),
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
        self.schedule.len()
    }

    /// Pushes the next PSUM tile.
    ///
    /// # Panics
    ///
    /// Panics if more tiles are pushed than the schedule covers, or if the
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
        let np = self.schedule.len();
        assert!(self.step < np, "stream already received all {} tiles", np);
        match &self.shape {
            Some(shape) => assert_eq!(shape, tile.shape(), "all PSUM tiles must share one shape"),
            None => self.shape = Some(tile.shape().clone()),
        }
        let numel = tile.numel();
        let gs = self.config.group_size.get();
        let i = self.step;
        let is_apsq_step = i.is_multiple_of(gs);
        let is_final = i == np - 1;
        let scale = self.schedule.scale(i);

        // The per-tile inner loops below all run through the branch-free
        // slice epilogues in `apsq-quant` (`quantize_clamped_i64_into`,
        // `dequantize_accumulate`), which are bit-identical to the scalar
        // `quantize`/`dequantize` maps — `apsq_recursion_reference` stays
        // scalar on purpose as the cross-check.
        if is_apsq_step {
            // Lines 4–7: accumulate the previous group (if any) + Tp_i.
            // Seeding the accumulator from the tile instead of zeroing it
            // saves a whole pass; integer adds make the regrouping exact.
            let mut acc: Vec<i64> = tile.data().iter().map(|&t| t as i64).collect();
            if i > 0 {
                for l in i - gs..i {
                    let ls = self.schedule.scale(l);
                    ls.dequantize_accumulate(&self.stored_codes[l], &mut acc);
                    self.traffic.reads += numel as u64;
                }
            }
            let mut codes = Vec::new();
            scale.quantize_clamped_i64_into(&acc, &mut codes);
            self.traffic.writes += numel as u64;
            if is_final {
                self.output = Some(dequant_tile(&codes, scale, tile));
            }
            self.stored_codes.push(codes);
        } else if !is_final {
            // Lines 9–11: plain PSUM quantization of Tp_i.
            let mut codes = Vec::new();
            scale.quantize_slice_into(tile.data(), &mut codes);
            self.traffic.writes += numel as u64;
            self.stored_codes.push(codes);
        } else {
            // Lines 13–14: final tile inside a group — fold the stored
            // group prefix with Tp_{np−1} and produce To.
            let group_start = (i / gs) * gs;
            let mut acc: Vec<i64> = tile.data().iter().map(|&t| t as i64).collect();
            for l in group_start..i {
                let ls = self.schedule.scale(l);
                ls.dequantize_accumulate(&self.stored_codes[l], &mut acc);
                self.traffic.reads += numel as u64;
            }
            let mut codes = Vec::new();
            scale.quantize_clamped_i64_into(&acc, &mut codes);
            self.traffic.writes += numel as u64;
            self.output = Some(dequant_tile(&codes, scale, tile));
            self.stored_codes.push(codes);
        }
        self.step += 1;
    }

    /// Completes the stream and returns the APSQ result.
    ///
    /// # Panics
    ///
    /// Panics if fewer tiles were pushed than the schedule covers.
    pub fn finish(self) -> ApsqRun {
        assert_eq!(
            self.step,
            self.schedule.len(),
            "stream received {} of {} tiles",
            self.step,
            self.schedule.len()
        );
        ApsqRun {
            output: self
                .output
                .expect("final step always produces the output tile"),
            stored_codes: self.stored_codes,
            traffic: self.traffic,
        }
    }
}

fn dequant_tile(codes: &[i32], scale: apsq_quant::Pow2Scale, like: &Int32Tensor) -> Int32Tensor {
    let mut out = Vec::new();
    scale.dequantize_slice_into(codes, &mut out);
    Int32Tensor::from_vec(out, like.shape().clone())
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
