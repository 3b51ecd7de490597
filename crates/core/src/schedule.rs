//! Per-step power-of-two scale schedules for the APSQ quantizers.
//!
//! Eq (10) gives every accumulation step its own quantizer `Q^i_k` with its
//! own scaling factor `α_i`. In hardware the scales live in a register list
//! (Algorithm 1, line 1) and are powers of two so that scaling is a shift.

use crate::config::{ApsqConfig, GroupSize};
use crate::streaming::StreamingApsq;
use apsq_quant::{Bitwidth, Pow2Scale};
use apsq_tensor::{apsq, FoldPlan, FoldStep, Int32Tensor};

/// The ordered list of power-of-two scales `α_0 .. α_{np−1}` used by one
/// APSQ run of `np` PSUM tiles.
///
/// # Examples
///
/// ```
/// use apsq_core::ScaleSchedule;
/// use apsq_quant::Bitwidth;
///
/// let s = ScaleSchedule::uniform(4, 3, Bitwidth::INT8);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.scale(2).exponent(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScaleSchedule {
    scales: Vec<Pow2Scale>,
}

impl ScaleSchedule {
    /// Builds a schedule from explicit per-step exponents.
    ///
    /// # Panics
    ///
    /// Panics if `exponents` is empty or any exponent exceeds 30.
    pub fn from_exponents(exponents: &[u32], bits: Bitwidth) -> Self {
        assert!(
            !exponents.is_empty(),
            "schedule must cover at least one step"
        );
        ScaleSchedule {
            scales: exponents.iter().map(|&e| Pow2Scale::new(e, bits)).collect(),
        }
    }

    /// Builds a schedule with the same exponent at every step.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or `exponent > 30`.
    pub fn uniform(steps: usize, exponent: u32, bits: Bitwidth) -> Self {
        assert!(steps > 0, "schedule must cover at least one step");
        ScaleSchedule {
            scales: vec![Pow2Scale::new(exponent, bits); steps],
        }
    }

    /// Calibrates a schedule from sample PSUM-tile streams so that no
    /// quantization step clips, for a given group size.
    ///
    /// Each step's exponent is the tightest power of two covering the
    /// largest |value| entering quantizer `Q^i_k` on any stream
    /// ([`apsq::covering_shift`], which floors it at 1). Because later
    /// steps see *dequantized* values produced by earlier steps, every
    /// exponent is committed before the next step runs. That makes
    /// calibration causal: the streams run Algorithm 1 in lockstep as
    /// [`StreamingApsq::calibrating`] folds, and one stream's committed
    /// scales are exactly its self-calibrated run.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty, any stream is empty, or stream lengths
    /// differ.
    pub fn calibrate(streams: &[Vec<Int32Tensor>], bits: Bitwidth, group_size: GroupSize) -> Self {
        assert!(!streams.is_empty(), "need at least one calibration stream");
        let np = streams[0].len();
        assert!(np > 0, "streams must contain at least one tile");
        assert!(
            streams.iter().all(|s| s.len() == np),
            "calibration streams must have equal length"
        );
        let config = ApsqConfig { bits, group_size };
        let mut runs: Vec<StreamingApsq> = streams
            .iter()
            .map(|_| StreamingApsq::calibrating(np, config))
            .collect();
        for i in 0..np {
            let mut max_abs = 0;
            for (run, stream) in runs.iter_mut().zip(streams) {
                run.load(stream[i].dims(), stream[i].data());
                max_abs = max_abs.max(run.input_max_abs(stream[i].data()));
            }
            let shift = apsq::covering_shift(max_abs, bits.signed_range().qp);
            for (run, stream) in runs.iter_mut().zip(streams) {
                run.commit(shift, stream[i].data());
            }
        }
        runs.swap_remove(0).finish().schedule
    }

    /// Number of steps covered.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// Whether the schedule is empty (never true for constructed schedules).
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// The scale for step `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn scale(&self, i: usize) -> Pow2Scale {
        self.scales[i]
    }

    /// All scales in step order.
    pub fn scales(&self) -> &[Pow2Scale] {
        &self.scales
    }

    /// The shared bit-width of every scale in the schedule.
    pub fn bits(&self) -> Bitwidth {
        self.scales[0].bits()
    }

    /// Algorithm 1 with this schedule frozen, as the per-step plan
    /// [`apsq_tensor::ExecEngine::apsq_linear`] runs on its register
    /// tiles: a `k`-deep reduction in `k_tile` steps, codes stored at
    /// `config.bits` in a ring of `min(gs, steps)` rows. Step `i` quantizes
    /// at its own exponent into ring row `i mod gs` and folds the rows
    /// [`StreamingApsq`] would carry, each at the exponent of the step that
    /// stored it, so the plan runs the same fold as
    /// [`StreamingApsq::new`] with this schedule. The plan also carries
    /// the static `i32` exactness proof ([`FoldPlan::is_i32_exact`]).
    ///
    /// # Panics
    ///
    /// Panics if `k_tile == 0`, the schedule does not have `⌈k / k_tile⌉`
    /// steps, or its bit-width is not `config.bits`.
    pub fn fold_plan(&self, config: &ApsqConfig, k: usize, k_tile: usize) -> FoldPlan {
        assert!(k_tile > 0, "k_tile must be positive");
        assert_eq!(
            self.bits(),
            config.bits,
            "schedule bit-width differs from the configuration's"
        );
        let (np, gs) = (self.len(), config.group_size.get());
        assert_eq!(
            k.div_ceil(k_tile),
            np,
            "schedule covers {np} steps but a {k}-deep reduction in tiles of {k_tile} has {}",
            k.div_ceil(k_tile)
        );
        let steps = (0..np)
            .map(|i| {
                let row = i % gs;
                let carried = apsq::carried_rows(i, row, np, gs);
                FoldStep {
                    shift: self.scales[i].exponent(),
                    row,
                    carried: (0..carried)
                        .map(|r| (r, self.scales[i - carried + r].exponent()))
                        .collect(),
                }
            })
            .collect();
        let range = config.bits.signed_range();
        FoldPlan::new(k, k_tile, (range.qn, range.qp), steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(vals: &[i32]) -> Int32Tensor {
        Int32Tensor::from_vec(vals.to_vec(), [vals.len()])
    }

    #[test]
    fn uniform_schedule() {
        let s = ScaleSchedule::uniform(3, 4, Bitwidth::INT8);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.scales().iter().all(|sc| sc.exponent() == 4));
    }

    #[test]
    fn from_exponents_round_trip() {
        let s = ScaleSchedule::from_exponents(&[0, 2, 5], Bitwidth::INT8);
        assert_eq!(s.scale(0).exponent(), 0);
        assert_eq!(s.scale(1).exponent(), 2);
        assert_eq!(s.scale(2).exponent(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_schedule_rejected() {
        ScaleSchedule::from_exponents(&[], Bitwidth::INT8);
    }

    #[test]
    fn single_and_multi_stream_calibration_agree() {
        let tiles: Vec<Int32Tensor> = (0..9)
            .map(|i| {
                Int32Tensor::from_vec(
                    (0..5).map(|j| ((i * 173 + j * 41) % 3001) - 1500).collect(),
                    [5],
                )
            })
            .collect();
        for gs in [1usize, 2, 3, 4] {
            let fast = ScaleSchedule::calibrate(
                std::slice::from_ref(&tiles),
                Bitwidth::INT8,
                GroupSize::new(gs),
            );
            let slow = ScaleSchedule::calibrate(
                &[tiles.clone(), tiles.clone()],
                Bitwidth::INT8,
                GroupSize::new(gs),
            );
            assert_eq!(fast, slow, "gs={gs}");
        }
    }

    #[test]
    fn calibration_covers_growing_stream_gs1() {
        // Tiles of growing magnitude: the running sum grows, so later
        // exponents must be at least as large as needed by the prefix sums.
        let stream = vec![tile(&[100]), tile(&[200]), tile(&[400]), tile(&[800])];
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(1),
        );
        assert_eq!(sched.len(), 4);
        // Step 0 sees 100 → covering exponent 0 (127 ≥ 100).
        assert_eq!(sched.scale(0).exponent(), 0);
        // Later steps see roughly the prefix sums 300, 700, 1500.
        assert!(sched.scale(3).dequantize(127) >= 1400);
    }

    #[test]
    fn fold_plan_lists_algorithm_1() {
        // 7 steps in groups of 3: steps 3 and 6 open groups and fold the
        // previous three codes; step 6 is also the last step.
        let s = ScaleSchedule::from_exponents(&[0, 1, 2, 3, 4, 5, 6], Bitwidth::INT8);
        let plan = s.fold_plan(&ApsqConfig::int8(3), 27, 4);
        let step = |shift, row, carried: &[(usize, u32)]| FoldStep {
            shift,
            row,
            carried: carried.to_vec(),
        };
        let want = [
            step(0, 0, &[]),
            step(1, 1, &[]),
            step(2, 2, &[]),
            step(3, 0, &[(0, 0), (1, 1), (2, 2)]),
            step(4, 1, &[]),
            step(5, 2, &[]),
            step(6, 0, &[(0, 3), (1, 4), (2, 5)]),
        ];
        assert_eq!(plan.steps(), want);
        // np − 1 reads per element, whatever gs is.
        assert_eq!(plan.words_per_element(), (7, 6));
        // A last step mid-group folds its group's stored prefix.
        let s = ScaleSchedule::uniform(5, 2, Bitwidth::INT8);
        let last = s.fold_plan(&ApsqConfig::int8(3), 5, 1).steps()[4].clone();
        assert_eq!((last.row, last.carried), (1, vec![(0, 2)]));
    }

    #[test]
    #[should_panic(expected = "schedule covers 2 steps")]
    fn fold_plan_rejects_a_schedule_of_the_wrong_length() {
        ScaleSchedule::uniform(2, 0, Bitwidth::INT8).fold_plan(&ApsqConfig::int8(1), 9, 4);
    }

    #[test]
    #[should_panic(expected = "schedule bit-width differs")]
    fn fold_plan_rejects_a_schedule_of_another_bit_width() {
        ScaleSchedule::uniform(3, 0, Bitwidth::new(4)).fold_plan(&ApsqConfig::int8(1), 9, 4);
    }

    #[test]
    fn calibration_mid_group_steps_only_cover_own_tile() {
        // With gs = 4, steps 1..3 quantize only their own tile, so their
        // exponents depend on the tile magnitude, not the prefix sum.
        let stream = vec![
            tile(&[1000]),
            tile(&[50]),
            tile(&[50]),
            tile(&[50]),
            tile(&[50]),
        ];
        let sched = ScaleSchedule::calibrate(&[stream], Bitwidth::INT8, GroupSize::new(4));
        // Step 1 and 2 only see |50| → exponent 0.
        assert_eq!(sched.scale(1).exponent(), 0);
        assert_eq!(sched.scale(2).exponent(), 0);
        // Step 0 sees 1000 → needs exponent 3 (127·8 = 1016 ≥ 1000).
        assert_eq!(sched.scale(0).exponent(), 3);
    }
}
