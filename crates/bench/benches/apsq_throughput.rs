//! Criterion: software APSQ throughput vs the exact and ADC-PSQ baselines,
//! across group sizes (the throughput side of the accuracy ablation in
//! `src/bin/ablation_group_size.rs`).

use apsq_core::{
    exact_accumulate, grouped_apsq, psq_adc_reference, synthetic_psum_stream, ApsqConfig,
    GroupSize, ScaleSchedule,
};
use apsq_quant::Bitwidth;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_accumulation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let stream = synthetic_psum_stream(&mut rng, 32, 1024, 8);
    let elems = (stream.len() * stream[0].numel()) as u64;

    let mut g = c.benchmark_group("psum_accumulation");
    g.throughput(Throughput::Elements(elems));

    g.bench_function("exact_int32", |b| {
        b.iter(|| exact_accumulate(std::hint::black_box(&stream)))
    });

    let sched1 = ScaleSchedule::calibrate(
        std::slice::from_ref(&stream),
        Bitwidth::INT8,
        GroupSize::new(1),
    );
    g.bench_function("adc_psq", |b| {
        b.iter(|| psq_adc_reference(std::hint::black_box(&stream), &sched1))
    });

    for gs in [1usize, 2, 3, 4] {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&stream),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let cfg = ApsqConfig::int8(gs);
        g.bench_with_input(BenchmarkId::new("grouped_apsq", gs), &gs, |b, _| {
            b.iter(|| grouped_apsq(std::hint::black_box(&stream), &sched, &cfg))
        });
    }
    g.finish();
}

fn bench_calibration(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let stream = synthetic_psum_stream(&mut rng, 16, 256, 8);
    c.bench_function("scale_schedule_calibrate_gs2", |b| {
        b.iter(|| {
            ScaleSchedule::calibrate(
                std::slice::from_ref(std::hint::black_box(&stream)),
                Bitwidth::INT8,
                GroupSize::new(2),
            )
        })
    });
}

criterion_group!(benches, bench_accumulation, bench_calibration);
criterion_main!(benches);
