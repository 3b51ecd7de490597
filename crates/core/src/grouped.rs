//! The grouped APSQ algorithm (paper Algorithm 1) in the exact integer
//! domain — the software golden model the RAE hardware must match
//! bit-for-bit.

use crate::config::ApsqConfig;
#[cfg(test)]
use crate::config::GroupSize;
use crate::schedule::ScaleSchedule;
use crate::traffic::BufferTraffic;
use apsq_tensor::Int32Tensor;

/// Result of running grouped APSQ over one PSUM tile stream.
#[derive(Clone, Debug)]
pub struct ApsqRun {
    /// The dequantized output tile `To` (i32 domain, scale applied).
    pub output: Int32Tensor,
    /// Every stored INT8 code tile `AP*_i`, in step order (useful for
    /// verifying hardware bank contents), as the batch wrappers
    /// ([`grouped_apsq`], [`crate::grouped_apsq_streamed`]) record it.
    /// Empty from [`crate::StreamingApsq::finish`]: the stream keeps only
    /// the last group's rows.
    pub stored_codes: Vec<Vec<i32>>,
    /// PSUM-buffer traffic incurred, in words.
    pub traffic: BufferTraffic,
    /// The per-step scales the run quantized with: the given schedule, or
    /// the scales a [`crate::StreamingApsq::calibrating`] stream committed.
    pub schedule: ScaleSchedule,
}

/// Executes Algorithm 1 (grouped APSQ) over a stream of i32 PSUM tiles.
///
/// Semantics per step `i` (with `gs = config.group_size`):
///
/// - `i ≡ 0 (mod gs)` — **APSQ step** (Algorithm 1 lines 4–7): read the
///   previous group's `gs` stored codes, dequantize each with its own step
///   scale, add the current tile `Tp_i`, quantize with `α_i` and store.
///   At `i = 0` there is no previous group and `AP*_0 = Q⁰(Tp_0)`.
/// - otherwise, `i < np−1` — **PSQ step** (lines 9–11): quantize `Tp_i`
///   alone and store.
/// - `i = np−1` not on a group boundary — **final step** (lines 13–14):
///   read the current group's stored prefix (`np−1−group_start` codes),
///   dequantize, add `Tp_{np−1}`, quantize, and dequantize into `To`.
///
/// With `gs = 1` every step is an APSQ step and the recursion reduces
/// exactly to eq (10). With `gs ≥ np` every tile is quantized once and
/// accumulated once at the end — pure PSUM quantization (PSQ, paper refs 19 and 20
/// of the paper) with low-bit storage.
///
/// The paper's Algorithm 1 line 13 contains an off-by-one: it reads
/// `np − i + 1` codes, which is 2 at `i = np − 1` wherever the group
/// starts, but the final step's group has stored exactly the codes of
/// steps `group_start..np−1`. This implementation reads those
/// `np − 1 − group_start` codes, so every stored code is read exactly once
/// (`np − 1` reads per element for any `gs`), and at `gs = 1`, where every
/// step is an APSQ step folding the one previous code, the recursion is
/// eq (10).
///
/// # Panics
///
/// Panics if `tiles` is empty, tiles have mismatched shapes, or
/// `schedule.len() != tiles.len()`.
///
/// # Examples
///
/// ```
/// use apsq_core::{grouped_apsq, ApsqConfig, ScaleSchedule};
/// use apsq_quant::Bitwidth;
/// use apsq_tensor::Int32Tensor;
///
/// let tiles = vec![
///     Int32Tensor::from_vec(vec![100, -50], [2]),
///     Int32Tensor::from_vec(vec![30, 20], [2]),
/// ];
/// let sched = ScaleSchedule::calibrate(
///     std::slice::from_ref(&tiles),
///     Bitwidth::INT8,
///     apsq_core::GroupSize::new(1),
/// );
/// let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(1));
/// assert_eq!(run.output.dims(), &[2]);
/// ```
pub fn grouped_apsq(
    tiles: &[Int32Tensor],
    schedule: &ScaleSchedule,
    config: &ApsqConfig,
) -> ApsqRun {
    let np = tiles.len();
    assert!(np > 0, "grouped_apsq requires at least one PSUM tile");
    assert_eq!(
        schedule.len(),
        np,
        "schedule covers {} steps but {} tiles were given",
        schedule.len(),
        np
    );
    assert!(
        tiles.iter().all(|t| t.shape() == tiles[0].shape()),
        "all PSUM tiles must share one shape"
    );

    // One incremental step per tile — `StreamingApsq` IS the algorithm;
    // this batch entry point just drives it, so the push-based and batch
    // APIs stay bit-identical by construction.
    let mut stream = crate::streaming::StreamingApsq::new(schedule.clone(), *config);
    let mut stored_codes = Vec::with_capacity(np);
    for tile in tiles {
        stream.push_ref(tile);
        stored_codes.push(stream.last_codes().to_vec());
    }
    ApsqRun {
        stored_codes,
        ..stream.finish()
    }
}

/// The pure eq (10) recursion (`gs = 1`), written independently of
/// [`grouped_apsq`] as a cross-check:
/// `AP_i = Qᵢ(Tp_i + α_{i−1}·AP_{i−1})`, `AP_0 = Q₀(Tp_0)`,
/// `To = α_{np−1}·AP_{np−1}`.
///
/// # Panics
///
/// Panics if `tiles` is empty or `schedule.len() != tiles.len()`.
pub fn apsq_recursion_reference(tiles: &[Int32Tensor], schedule: &ScaleSchedule) -> Int32Tensor {
    let np = tiles.len();
    assert!(np > 0, "requires at least one PSUM tile");
    assert_eq!(schedule.len(), np, "schedule length mismatch");
    let numel = tiles[0].numel();

    let mut prev_codes: Vec<i32> = tiles[0]
        .data()
        .iter()
        .map(|&v| schedule.scale(0).quantize(v))
        .collect();
    // `i` is the algorithm's PSUM step number, not a slice cursor.
    #[allow(clippy::needless_range_loop)]
    for i in 1..np {
        let prev_scale = schedule.scale(i - 1);
        let scale = schedule.scale(i);
        let mut next = Vec::with_capacity(numel);
        for (idx, &t) in tiles[i].data().iter().enumerate() {
            let deq = prev_scale.dequantize(prev_codes[idx]) as i64 + t as i64;
            next.push(scale.quantize(clamp_i64(deq)));
        }
        prev_codes = next;
    }
    let last = schedule.scale(np - 1);
    Int32Tensor::from_vec(
        prev_codes.iter().map(|&c| last.dequantize(c)).collect(),
        tiles[0].shape().clone(),
    )
}

/// Algorithm 1 for any group size, written independently of
/// [`grouped_apsq`] as its oracle: per element, in `i64`, as the paper
/// states it. Step `i` of `np` in groups of `gs` computes
/// `AP_i = Qᵢ(Tp_i + Σ_l α_l·AP_l)` over `l ∈ [i − gs, i)` when
/// `i ≡ 0 (mod gs)`, over its group's prefix `[i − i mod gs, i)` when it
/// is the last step, and over nothing otherwise; `To = α_{np−1}·AP_{np−1}`.
/// `α_l·AP_l` saturates at the `i32` limits, each sum is clamped into
/// `i32`, and `Qᵢ(x) = clamp(round(x / 2^eᵢ))` into the signed `bits`
/// range, rounding half away from zero. With `schedule = None` each step
/// first commits the least `e` in `0..=30` with `qp·2^e ≥ max(1, max|x|)`
/// over its clamped sums (`|i32::MIN|` counting as `i32::MAX`), or 30.
///
/// # Panics
///
/// Panics if `tiles` is empty, tiles have mismatched sizes, or `schedule`
/// does not have one scale per tile.
pub fn grouped_apsq_reference(
    tiles: &[Int32Tensor],
    schedule: Option<&ScaleSchedule>,
    config: &ApsqConfig,
) -> ApsqRun {
    let np = tiles.len();
    assert!(np > 0, "requires at least one PSUM tile");
    let numel = tiles[0].numel();
    assert!(
        tiles.iter().all(|t| t.numel() == numel),
        "all PSUM tiles must share one size"
    );
    if let Some(s) = schedule {
        assert_eq!(s.len(), np, "schedule length mismatch");
    }
    let gs = config.group_size.get();
    let bits = u32::from(config.bits.get());
    let (qn, qp) = (-(1i64 << (bits - 1)), (1i64 << (bits - 1)) - 1);
    let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
    let dequantize = |code: i32, e: u32| (i64::from(code) * (1i64 << e)).clamp(lo, hi);
    let quantize = |x: i64, e: u32| {
        // round(|x| / 2^e) half up, then the sign back.
        let d = 1i64 << e;
        let q = (2 * x.abs() + d) / (2 * d);
        (if x < 0 { -q } else { q }).clamp(qn, qp) as i32
    };

    let mut codes: Vec<Vec<i32>> = Vec::with_capacity(np);
    let mut exps: Vec<u32> = Vec::with_capacity(np);
    let mut traffic = BufferTraffic::new();
    for (i, tile) in tiles.iter().enumerate() {
        let folded = if i % gs == 0 {
            i.saturating_sub(gs)..i
        } else if i == np - 1 {
            i - i % gs..i
        } else {
            i..i
        };
        traffic.reads += (folded.len() * numel) as u64;
        let sums: Vec<i64> = (0..numel)
            .map(|j| {
                let carried: i64 = folded
                    .clone()
                    .map(|l| dequantize(codes[l][j], exps[l]))
                    .sum();
                (i64::from(tile.data()[j]) + carried).clamp(lo, hi)
            })
            .collect();
        let e = match schedule {
            Some(s) => s.scale(i).exponent(),
            None => {
                let m = sums.iter().map(|x| x.abs()).max().unwrap_or(0).clamp(1, hi);
                (0..=30).find(|&e| qp << e >= m).unwrap_or(30)
            }
        };
        codes.push(sums.iter().map(|&x| quantize(x, e)).collect());
        exps.push(e);
        traffic.writes += numel as u64;
    }
    let output = codes[np - 1]
        .iter()
        .map(|&c| dequantize(c, exps[np - 1]) as i32)
        .collect();
    ApsqRun {
        output: Int32Tensor::from_vec(output, tiles[0].shape().clone()),
        stored_codes: codes,
        traffic,
        schedule: ScaleSchedule::from_exponents(&exps, config.bits),
    }
}

pub(crate) fn clamp_i64(v: i64) -> i32 {
    v.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsq_quant::Bitwidth;

    fn tiles_from(vals: &[&[i32]]) -> Vec<Int32Tensor> {
        vals.iter()
            .map(|v| Int32Tensor::from_vec(v.to_vec(), [v.len()]))
            .collect()
    }

    fn calibrated(tiles: &[Int32Tensor], gs: usize) -> ScaleSchedule {
        ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles.to_vec()),
            Bitwidth::INT8,
            GroupSize::new(gs),
        )
    }

    #[test]
    fn gs1_matches_eq10_reference() {
        let tiles = tiles_from(&[&[100, -30], &[55, 70], &[-20, 10], &[5, -5]]);
        let sched = calibrated(&tiles, 1);
        let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(1));
        let reference = apsq_recursion_reference(&tiles, &sched);
        assert_eq!(run.output, reference);
    }

    #[test]
    fn exact_when_scales_are_unit_and_values_small() {
        // With α = 1 everywhere and values far from clipping, APSQ is exact.
        let tiles = tiles_from(&[&[10, -3], &[5, 7], &[-2, 1]]);
        let sched = ScaleSchedule::uniform(3, 0, Bitwidth::INT8);
        for gs in 1..=4 {
            let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(gs));
            assert_eq!(run.output.data(), &[13, 5], "gs={gs}");
        }
    }

    #[test]
    fn traffic_independent_of_group_size() {
        // Paper Section III-B: total reads/writes match for gs = 1 and gs > 1.
        let tiles = tiles_from(&[
            &[100, 2],
            &[50, -3],
            &[25, 4],
            &[12, -5],
            &[6, 6],
            &[3, -7],
            &[2, 8],
            &[1, -9],
        ]);
        let mut traffics = Vec::new();
        for gs in [1usize, 2, 3, 4, 8] {
            let sched = calibrated(&tiles, gs);
            let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(gs));
            traffics.push((gs, run.traffic));
        }
        let first = traffics[0].1;
        for (gs, t) in traffics {
            assert_eq!(t, first, "traffic changed at gs={gs}");
        }
        // np tiles × numel writes; (np−1) × numel reads.
        assert_eq!(first.writes, 8 * 2);
        assert_eq!(first.reads, 7 * 2);
    }

    #[test]
    fn larger_groups_reduce_error_on_random_like_stream() {
        // The cumulative value is requantized np/gs times, so error shrinks
        // as gs grows. Construct a stream with non-trivial rounding error.
        let vals: Vec<Vec<i32>> = (0..12)
            .map(|i| (0..16).map(|j| ((i * 37 + j * 101) % 513) - 256).collect())
            .collect();
        let tiles: Vec<Int32Tensor> = vals
            .iter()
            .map(|v| Int32Tensor::from_vec(v.clone(), [v.len()]))
            .collect();
        let exact: Vec<i64> = (0..16)
            .map(|j| vals.iter().map(|t| t[j] as i64).sum())
            .collect();

        let mut errors = Vec::new();
        for gs in [1usize, 4, 12] {
            let sched = calibrated(&tiles, gs);
            let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(gs));
            let err: f64 = run
                .output
                .data()
                .iter()
                .zip(exact.iter())
                .map(|(&a, &e)| ((a as i64 - e) as f64).powi(2))
                .sum::<f64>()
                .sqrt();
            errors.push(err);
        }
        assert!(
            errors[0] >= errors[2],
            "gs=1 error {} should be >= gs=12 error {}",
            errors[0],
            errors[2]
        );
    }

    #[test]
    fn final_tile_on_group_boundary() {
        // np = 5, gs = 4: final tile index 4 IS a group boundary (APSQ step).
        let tiles = tiles_from(&[&[100], &[50], &[25], &[12], &[6]]);
        let sched = calibrated(&tiles, 4);
        let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(4));
        // Output must approximate the exact sum 193.
        let out = run.output.data()[0];
        assert!((out - 193).abs() <= 16, "out={out}");
        assert_eq!(run.stored_codes.len(), 5);
    }

    #[test]
    fn single_tile_stream() {
        let tiles = tiles_from(&[&[77]]);
        let sched = calibrated(&tiles, 3);
        let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(3));
        assert_eq!(run.output.data()[0], 77);
        assert_eq!(run.traffic.reads, 0);
        assert_eq!(run.traffic.writes, 1);
    }

    #[test]
    fn gs_at_least_np_is_pure_psq() {
        // Every tile quantized once, one final accumulation: with exact
        // unit scales this equals the exact sum.
        let tiles = tiles_from(&[&[9], &[-4], &[7], &[3]]);
        let sched = ScaleSchedule::uniform(4, 0, Bitwidth::INT8);
        let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(16));
        assert_eq!(run.output.data()[0], 15);
        // Reads only happen at the final fold: np−1 of them.
        assert_eq!(run.traffic.reads, 3);
    }

    #[test]
    #[should_panic(expected = "at least one PSUM tile")]
    fn empty_stream_rejected() {
        grouped_apsq(
            &[],
            &ScaleSchedule::uniform(1, 0, Bitwidth::INT8),
            &ApsqConfig::int8(1),
        );
    }

    #[test]
    #[should_panic(expected = "schedule covers")]
    fn schedule_length_mismatch_rejected() {
        let tiles = tiles_from(&[&[1], &[2]]);
        grouped_apsq(
            &tiles,
            &ScaleSchedule::uniform(3, 0, Bitwidth::INT8),
            &ApsqConfig::int8(1),
        );
    }
}
