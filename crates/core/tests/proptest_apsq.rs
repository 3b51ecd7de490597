//! Property-based tests for the APSQ algorithm invariants.

use apsq_core::{
    apsq_recursion_reference, exact_accumulate, grouped_apsq, grouped_apsq_f32,
    grouped_apsq_streamed, ApsqConfig, BufferTraffic, FloatScaleSchedule, GroupSize, ScaleSchedule,
    StreamingApsq,
};
use apsq_quant::{Bitwidth, Pow2Scale};
use apsq_tensor::{pack_k_pairs, ExecEngine, Gemm, Int32Tensor, Int8Tensor, Layout};
use proptest::prelude::*;

fn stream_strategy() -> impl Strategy<Value = Vec<Int32Tensor>> {
    (1usize..12, 1usize..16).prop_flat_map(|(np, numel)| {
        proptest::collection::vec(
            proptest::collection::vec(-20_000i32..20_000, numel..=numel),
            np..=np,
        )
        .prop_map(move |tiles| {
            tiles
                .into_iter()
                .map(|v| Int32Tensor::from_vec(v, [numel]))
                .collect()
        })
    })
}

/// One PSUM value: ordinary two times in three, otherwise within 1000 of
/// `i32::MIN` or `i32::MAX` (clamped folds, saturated exponents).
fn extreme_value() -> impl Strategy<Value = i32> {
    (0u8..6, 0i32..20_000).prop_map(|(class, v)| match class {
        4 => i32::MIN + v % 1000,
        5 => i32::MAX - v % 1000,
        _ => v - 10_000,
    })
}

/// Long streams whose tiles may be all zero (one in five — the `max(1)`
/// floor) or hold values next to the i32 limits.
fn extreme_stream_strategy() -> impl Strategy<Value = Vec<Int32Tensor>> {
    (1usize..40, 1usize..6).prop_flat_map(|(np, numel)| {
        let tile = (
            0u8..5,
            proptest::collection::vec(extreme_value(), numel..=numel),
        );
        proptest::collection::vec(tile, np..=np).prop_map(move |tiles| {
            tiles
                .into_iter()
                .map(|(zero, v)| {
                    let v = if zero == 0 { vec![0; numel] } else { v };
                    Int32Tensor::from_vec(v, [numel])
                })
                .collect()
        })
    })
}

/// An independent scalar spelling of single-stream calibration: replay
/// Algorithm 1 step by step, committing each step's covering exponent
/// (of the exact input, clamped to `i32::MAX`, floored at 1) before
/// quantizing with it.
fn reference_exponents(stream: &[Int32Tensor], bits: Bitwidth, gs: usize) -> Vec<u32> {
    let np = stream.len();
    let mut scales: Vec<Pow2Scale> = Vec::new();
    let mut stored: Vec<Vec<i32>> = Vec::new();
    for (i, tile) in stream.iter().enumerate() {
        let prefix = if i % gs == 0 {
            i.saturating_sub(gs)..i
        } else if i == np - 1 {
            (i / gs) * gs..i
        } else {
            0..0
        };
        let input: Vec<i64> = (0..tile.numel())
            .map(|j| {
                let carried: i64 = prefix
                    .clone()
                    .map(|l| scales[l].dequantize(stored[l][j]) as i64)
                    .sum();
                tile.data()[j] as i64 + carried
            })
            .collect();
        let max_abs = input.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        let scale = Pow2Scale::covering(max_abs.clamp(1, i32::MAX as u64) as i32, bits);
        stored.push(
            input
                .iter()
                .map(|&v| scale.quantize(v.clamp(i32::MIN as i64, i32::MAX as i64) as i32))
                .collect(),
        );
        scales.push(scale);
    }
    scales.iter().map(|s| s.exponent()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The self-calibrating stream is `ScaleSchedule::calibrate` followed
    /// by `grouped_apsq`: same output, per-step codes, traffic and scales —
    /// and those scales match an independent scalar replay — for long
    /// streams, every group size (including gs = 1 and gs > np), all-zero
    /// tiles and values at the i32 limits (exponents saturating at 30 for
    /// 2-bit codes).
    #[test]
    fn calibrating_stream_equals_calibrate_then_fold(
        stream in extreme_stream_strategy(),
        gs in 1usize..9,
        bits in 0usize..3,
    ) {
        let bits = Bitwidth::new([2, 4, 8][bits]);
        let cfg = ApsqConfig { bits, group_size: GroupSize::new(gs) };
        let sched = ScaleSchedule::calibrate(std::slice::from_ref(&stream), bits, GroupSize::new(gs));
        let batch = grouped_apsq(&stream, &sched, &cfg);
        let mut s = StreamingApsq::calibrating(stream.len(), cfg);
        let mut stored_codes = Vec::new();
        for tile in &stream {
            s.push_slice(tile.data());
            stored_codes.push(s.last_codes().to_vec());
        }
        let run = s.finish();
        prop_assert_eq!(run.output.data(), batch.output.data());
        prop_assert_eq!(&stored_codes, &batch.stored_codes);
        prop_assert_eq!(run.traffic, batch.traffic);
        prop_assert_eq!(&run.schedule, &sched);
        prop_assert_eq!(&batch.schedule, &sched);
        let exps: Vec<u32> = sched.scales().iter().map(|s| s.exponent()).collect();
        prop_assert_eq!(exps, reference_exponents(&stream, bits, gs));
    }

    /// A segmented stream folds each segment exactly as a separate
    /// calibrating stream would: same stored codes after every push, same
    /// outputs side by side, same summed traffic. The segments differ in
    /// magnitude (the extreme stream, a small copy, its negation, zeros),
    /// so one push mixes scales, and the i32 lane and the i64 fallback.
    #[test]
    fn segmented_stream_equals_separate_streams(
        stream in extreme_stream_strategy(),
        gs in 1usize..9,
        bits in 0usize..3,
    ) {
        let bits = Bitwidth::new([2, 4, 8][bits]);
        let cfg = ApsqConfig { bits, group_size: GroupSize::new(gs) };
        let variants: [fn(i32) -> i32; 4] = [|x| x, |x| x / 4096, |x| x.saturating_neg(), |_| 0];
        let (np, numel) = (stream.len(), stream[0].numel());
        for segments in 1..=variants.len() {
            let mut joint = StreamingApsq::calibrating_segments(np, segments, cfg);
            let mut separate: Vec<_> =
                (0..segments).map(|_| StreamingApsq::calibrating(np, cfg)).collect();
            for tile in &stream {
                let parts: Vec<Vec<i32>> = variants[..segments]
                    .iter()
                    .map(|f| tile.data().iter().map(|&x| f(x)).collect())
                    .collect();
                for (s, part) in separate.iter_mut().zip(&parts) {
                    s.push_slice(part);
                }
                joint.push_slice(&parts.concat());
                let codes: Vec<i32> =
                    separate.iter().flat_map(|s| s.last_codes().to_vec()).collect();
                prop_assert_eq!(joint.last_codes(), &codes[..], "{} segments", segments);
            }
            let mut out = vec![0; segments * numel];
            let traffic = joint.finish_into(&mut out);
            let (mut want, mut want_traffic) = (Vec::new(), BufferTraffic::new());
            for s in &separate {
                let mut o = vec![0; numel];
                want_traffic += s.finish_into(&mut o);
                want.extend(o);
            }
            prop_assert_eq!(out, want, "{} segments", segments);
            prop_assert_eq!(traffic, want_traffic, "{} segments", segments);
        }
    }

    /// gs = 1 must reduce exactly to the eq (10) recursion.
    #[test]
    fn gs1_equals_eq10(stream in stream_strategy()) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(1),
        );
        let run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(1));
        let reference = apsq_recursion_reference(&stream, &sched);
        prop_assert_eq!(run.output, reference);
    }

    /// Buffer traffic is independent of group size: np·numel writes and
    /// (np−1)·numel reads, exactly (paper Section III-B).
    #[test]
    fn traffic_invariant(stream in stream_strategy(), gs in 1usize..9) {
        let np = stream.len() as u64;
        let numel = stream[0].numel() as u64;
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        prop_assert_eq!(run.traffic.writes, np * numel);
        prop_assert_eq!(run.traffic.reads, (np - 1) * numel);
    }

    /// Every stored code must fit the configured bit-width.
    #[test]
    fn stored_codes_fit_bitwidth(stream in stream_strategy(), gs in 1usize..6, bits in 3u8..9) {
        let b = Bitwidth::new(bits);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            b,
            GroupSize::new(gs),
        );
        let run = grouped_apsq(&stream, &sched, &ApsqConfig { bits: b, group_size: GroupSize::new(gs) });
        let r = b.signed_range();
        for codes in &run.stored_codes {
            for &c in codes {
                prop_assert!(r.contains(c), "code {} escapes {}", c, b);
            }
        }
    }

    /// With calibrated (non-clipping) scales, the APSQ output error vs the
    /// exact sum is bounded by the sum of per-step half-steps.
    #[test]
    fn error_bounded_by_accumulated_rounding(stream in stream_strategy(), gs in 1usize..5) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let exact = exact_accumulate(&stream);
        // Worst case: each of the np quantizations contributes α_i/2, and
        // every earlier error can be carried through later requantization.
        let bound: i64 = sched
            .scales()
            .iter()
            .map(|s| (1i64 << s.exponent()) / 2 + 1)
            .sum::<i64>()
            * 2; // slack for error propagation through requantization
        for (a, e) in run.output.data().iter().zip(exact.data()) {
            prop_assert!(
                ((*a as i64) - (*e as i64)).abs() <= bound,
                "err {} exceeds bound {}",
                (*a as i64) - (*e as i64),
                bound
            );
        }
    }

    /// The float fake-quant twin agrees bit-for-bit with the integer golden
    /// model when scales are powers of two and inputs are integers.
    #[test]
    fn float_twin_bit_exact(stream in stream_strategy(), gs in 1usize..5) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let fsched = FloatScaleSchedule::new(
            sched.scales().iter().map(|s| s.scale()).collect(),
            Bitwidth::INT8,
        );
        let float_tiles: Vec<_> = stream.iter().map(|t| t.to_f32()).collect();
        let int_run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let f_out = grouped_apsq_f32(&float_tiles, &fsched, GroupSize::new(gs));
        for (a, b) in int_run.output.data().iter().zip(f_out.data()) {
            prop_assert_eq!(*a, *b as i32);
        }
    }

    /// The engine-driven streamed GEMM fold agrees with the batch API run
    /// over collected PSUM tiles — same output, same code bank, same
    /// traffic — for every group size, tile size, and thread count.
    #[test]
    fn streamed_equals_batch_for_all_group_sizes(
        (m, k, n) in (1usize..6, 2usize..40, 1usize..6),
        k_tile in 1usize..12,
        gs in 1usize..9,
        threads in 1usize..5,
        seed in any::<u32>(),
    ) {
        let a = Int8Tensor::from_vec(
            (0..m * k).map(|x| ((x as u32).wrapping_mul(37).wrapping_add(seed) % 255) as i8).collect(),
            [m, k],
        );
        let b = Int8Tensor::from_vec(
            (0..k * n).map(|x| ((x as u32).wrapping_mul(73).wrapping_add(seed / 3) % 251) as i8).collect(),
            [k, n],
        );
        let panels = pack_k_pairs(b.data(), k, n);
        let g = Gemm::dense(Layout::NP, a.data(), a.dims(), &panels, b.dims());
        let mut tiles = Vec::new();
        ExecEngine::serial().gemm_k_tiles(&g, k_tile, |_, t| tiles.push(t.clone()));
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let cfg = ApsqConfig { bits: Bitwidth::INT8, group_size: GroupSize::new(gs) };
        let batch = grouped_apsq(&tiles, &sched, &cfg);
        let streamed = grouped_apsq_streamed(
            &ExecEngine::with_threads(threads).with_spawn_threshold(0),
            &a, &b, k_tile, &sched, &cfg,
        );
        prop_assert_eq!(streamed.output, batch.output);
        prop_assert_eq!(streamed.stored_codes, batch.stored_codes);
        prop_assert_eq!(streamed.traffic, batch.traffic);
    }

    /// Calibrated schedules never clip: the dequantized range covers the
    /// exact partial results seen during the run.
    #[test]
    fn calibrated_run_is_deterministic(stream in stream_strategy(), gs in 1usize..5) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let a = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let b = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.stored_codes, b.stored_codes);
    }
}
