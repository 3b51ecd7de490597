//! Criterion: the matmul kernels behind QAT and the integer simulators —
//! the legacy serial kernel vs the `ExecEngine` thread sweep at paper
//! scale, plus the K-tiled PSUM stream's overhead over plain matmul.

use apsq_bench::baseline::matmul_reference;
use apsq_tensor::{ExecEngine, Gemm, Int8Tensor, Layout, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_matmul(c: &mut Criterion) {
    let (m, k, n) = (64usize, 256usize, 64usize);
    let a = Tensor::from_vec((0..m * k).map(|x| (x % 97) as f32 * 0.01).collect(), [m, k]);
    let b = Tensor::from_vec((0..k * n).map(|x| (x % 89) as f32 * 0.01).collect(), [k, n]);
    let flops = (2 * m * k * n) as u64;
    let eng = ExecEngine::serial();

    let mut g = c.benchmark_group("matmul_f32");
    g.throughput(Throughput::Elements(flops));
    g.bench_function("plain", |bch| {
        bch.iter(|| eng.matmul(std::hint::black_box(&a), std::hint::black_box(&b)))
    });
    let dense = Gemm::dense(Layout::NN, a.data(), a.dims(), b.data(), b.dims());
    for k_tile in [8usize, 32] {
        g.bench_with_input(
            BenchmarkId::new("psum_tiles", k_tile),
            &k_tile,
            |bch, &kt| {
                bch.iter(|| {
                    let mut tiles = Vec::new();
                    eng.gemm_k_tiles(std::hint::black_box(&dense), kt, |_, t| {
                        tiles.push(t.clone())
                    });
                    tiles
                })
            },
        );
    }
    g.finish();

    let ai = Int8Tensor::from_vec((0..m * k).map(|x| (x % 251) as i8).collect(), [m, k]);
    let bi = Int8Tensor::from_vec((0..k * n).map(|x| (x % 241) as i8).collect(), [k, n]);
    let mut g = c.benchmark_group("matmul_int8");
    g.throughput(Throughput::Elements(flops));
    g.bench_function("exact_i32_accumulate", |bch| {
        bch.iter(|| eng.int8_matmul(std::hint::black_box(&ai), std::hint::black_box(&bi)))
    });
    g.finish();
}

/// The tentpole comparison: legacy serial kernel vs the cache-blocked
/// engine at 1/2/4/8 threads on a paper-scale square GEMM (every large
/// FFN/attention GEMM in the model inventories lives in this regime).
fn bench_engine_scaling(c: &mut Criterion) {
    let n = 512usize;
    let a = Tensor::from_vec((0..n * n).map(|x| (x % 97) as f32 * 0.01).collect(), [n, n]);
    let b = Tensor::from_vec((0..n * n).map(|x| (x % 89) as f32 * 0.01).collect(), [n, n]);
    let flops = 2 * (n as u64).pow(3);

    let mut g = c.benchmark_group(format!("engine_f32_{n}cubed"));
    g.throughput(Throughput::Elements(flops));
    g.bench_function("serial_reference", |bch| {
        bch.iter(|| matmul_reference(std::hint::black_box(&a), std::hint::black_box(&b)))
    });
    for threads in [1usize, 2, 4, 8] {
        let eng = ExecEngine::with_threads(threads);
        g.bench_with_input(
            BenchmarkId::new("engine_threads", threads),
            &threads,
            |bch, _| bch.iter(|| eng.matmul(std::hint::black_box(&a), std::hint::black_box(&b))),
        );
    }
    g.finish();

    let ai = Int8Tensor::from_vec((0..n * n).map(|x| (x % 251) as i8).collect(), [n, n]);
    let bi = Int8Tensor::from_vec((0..n * n).map(|x| (x % 241) as i8).collect(), [n, n]);
    let mut g = c.benchmark_group(format!("engine_int8_{n}cubed"));
    g.throughput(Throughput::Elements(flops));
    for threads in [1usize, 4] {
        let eng = ExecEngine::with_threads(threads);
        g.bench_with_input(
            BenchmarkId::new("engine_threads", threads),
            &threads,
            |bch, _| {
                bch.iter(|| eng.int8_matmul(std::hint::black_box(&ai), std::hint::black_box(&bi)))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_engine_scaling);
criterion_main!(benches);
