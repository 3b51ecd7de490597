//! Property-based tests for the APSQ algorithm invariants.

use apsq_core::{
    apsq_recursion_reference, exact_accumulate, grouped_apsq, grouped_apsq_f32,
    grouped_apsq_reference, grouped_apsq_streamed, ApsqConfig, FloatScaleSchedule, GroupSize,
    ScaleSchedule, StreamingApsq,
};
use apsq_quant::Bitwidth;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The self-calibrating stream is `ScaleSchedule::calibrate` followed
    /// by `grouped_apsq`: same output, per-step codes, traffic and scales —
    /// and all of them match the naive oracle `grouped_apsq_reference` — for long
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
        let naive = grouped_apsq_reference(&stream, None, &cfg);
        prop_assert_eq!(&naive.schedule, &sched);
        prop_assert_eq!(naive.output.data(), batch.output.data());
        prop_assert_eq!(&naive.stored_codes, &batch.stored_codes);
        prop_assert_eq!(naive.traffic, batch.traffic);
    }

    /// With a fixed schedule — exponents anywhere in the shifter's
    /// 0..=30, so dequantized codes saturate and sums clamp — the naive
    /// oracle is `grouped_apsq` at every group size and bit-width, and at
    /// gs = 1 it is the eq (10) recursion.
    #[test]
    fn naive_reference_equals_the_fold_on_fixed_schedules(
        stream in extreme_stream_strategy(),
        gs in 1usize..9,
        bits in 0usize..4,
        exps in proptest::collection::vec(0u32..=30, 40),
    ) {
        let bits = Bitwidth::new([2, 4, 8, 32][bits]);
        let sched = ScaleSchedule::from_exponents(&exps[..stream.len()], bits);
        let cfg = ApsqConfig { bits, group_size: GroupSize::new(gs) };
        let naive = grouped_apsq_reference(&stream, Some(&sched), &cfg);
        let batch = grouped_apsq(&stream, &sched, &cfg);
        prop_assert_eq!(naive.output.data(), batch.output.data());
        prop_assert_eq!(&naive.stored_codes, &batch.stored_codes);
        prop_assert_eq!(naive.traffic, batch.traffic);
        prop_assert_eq!(&naive.schedule, &sched);
        let gs1 = ApsqConfig { bits, group_size: GroupSize::new(1) };
        let naive = grouped_apsq_reference(&stream, Some(&sched), &gs1);
        prop_assert_eq!(naive.output, apsq_recursion_reference(&stream, &sched));
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
        let naive = grouped_apsq_reference(&stream, None, &ApsqConfig::int8(1));
        prop_assert_eq!(&naive.output, &reference);
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
