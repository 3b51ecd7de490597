//! Property-based tests for the tensor substrate.

use apsq_tensor::{softmax_rows, ExecEngine, Gemm, Int32Tensor, Int8Tensor, Layout, Tensor};
use proptest::prelude::*;
use proptest::strategy::ValueTree;

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..8, 1usize..12, 1usize..8)
}

fn tensor_strategy(m: usize, n: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-4.0f32..4.0, m * n).prop_map(move |v| Tensor::from_vec(v, [m, n]))
}

fn int8_strategy(m: usize, n: usize) -> impl Strategy<Value = Int8Tensor> {
    proptest::collection::vec(any::<i8>(), m * n).prop_map(move |v| Int8Tensor::from_vec(v, [m, n]))
}

/// Deterministic seed-mixed i8 fill, so proptest-drawn seeds really vary
/// the operand data across cases.
fn seeded_i8(m: usize, n: usize, seed: u32) -> Int8Tensor {
    Int8Tensor::from_vec(
        (0..m * n)
            .map(|x| ((x as u32).wrapping_mul(37).wrapping_add(seed) % 255) as i8)
            .collect(),
        [m, n],
    )
}

fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    ExecEngine::serial().matmul(a, b)
}

fn int8_matmul(a: &Int8Tensor, b: &Int8Tensor) -> Int32Tensor {
    ExecEngine::serial().int8_matmul(a, b)
}

fn nn<'a, T>(a: &'a [T], a_dims: &[usize], b: &'a [T], b_dims: &[usize]) -> Gemm<'a, T> {
    Gemm::dense(Layout::NN, a, a_dims, b, b_dims)
}

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros([m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for l in 0..k {
                acc += (a.at(&[i, l]) as f64) * (b.at(&[l, j]) as f64);
            }
            out.set(&[i, j], acc as f32);
        }
    }
    out
}

proptest! {
    #[test]
    fn matmul_matches_naive(((m, k, n), seed) in (small_dims(), any::<u64>())) {
        let _ = seed;
        let strat = (tensor_strategy(m, k), tensor_strategy(k, n));
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let (a, b) = strat.new_tree(&mut runner).unwrap().current();
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn psum_tiles_partition_reduction(
        (m, k, n) in small_dims(),
        k_tile in 1usize..16,
        vals in proptest::collection::vec(-2.0f32..2.0, 8 * 12 + 12 * 8),
    ) {
        let a = Tensor::from_vec(vals[..m * k].to_vec(), [m, k]);
        let b = Tensor::from_vec(vals[vals.len() - k * n..].to_vec(), [k, n]);
        let mut steps = 0;
        let mut acc = Tensor::zeros([m, n]);
        ExecEngine::serial().gemm_k_tiles(&nn(a.data(), a.dims(), b.data(), b.dims()), k_tile, |_, t| {
            acc = &acc + t;
            steps += 1;
        });
        prop_assert_eq!(steps, k.div_ceil(k_tile));
        let full = matmul(&a, &b);
        for (x, y) in acc.data().iter().zip(full.data()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn transpose_variants_agree(
        (m, k, n) in small_dims(),
        vals in proptest::collection::vec(-2.0f32..2.0, 8 * 12 + 12 * 8),
    ) {
        let a = Tensor::from_vec(vals[..m * k].to_vec(), [m, k]);
        let b = Tensor::from_vec(vals[vals.len() - k * n..].to_vec(), [k, n]);
        let c = matmul(&a, &b);
        let c_bt = ExecEngine::serial().matmul_bt(&a, &b.transpose());
        let at = a.transpose();
        let mut c_at = Tensor::zeros([m, n]);
        let tn = Gemm::dense(Layout::TN, at.data(), at.dims(), b.data(), b.dims());
        ExecEngine::serial().gemm(&tn, c_at.data_mut());
        for (x, y) in c.data().iter().zip(c_bt.data()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
        for (x, y) in c.data().iter().zip(c_at.data()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn softmax_rows_is_distribution(
        m in 1usize..6,
        n in 1usize..10,
        vals in proptest::collection::vec(-30.0f32..30.0, 60),
    ) {
        let x = Tensor::from_vec(vals[..m * n].to_vec(), [m, n]);
        let y = softmax_rows(&x);
        for i in 0..m {
            let row = &y.data()[i * n..(i + 1) * n];
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine's parallel integer matmul is bit-exact against the serial
    /// reference for every thread count, at sizes large enough to really
    /// cross the engine's spawn threshold.
    #[test]
    fn engine_parallel_int8_matmul_bit_exact(
        (m, extra_k, n) in (9usize..70, 0usize..80, 5usize..40),
        threads in 2usize..9,
        seed in any::<u16>(),
    ) {
        let k = 64 + extra_k;
        let a = seeded_i8(m, k, seed as u32);
        let b = seeded_i8(k, n, seed as u32 ^ 0x9e37);
        let serial = int8_matmul(&a, &b);
        let parallel = ExecEngine::with_threads(threads)
            .with_spawn_threshold(0)
            .int8_matmul(&a, &b);
        prop_assert_eq!(parallel, serial);
    }

    /// Float results are also bit-identical across thread counts (the
    /// engine's per-element reduction order never depends on the
    /// partition).
    #[test]
    fn engine_parallel_f32_matmul_bit_exact(
        (m, extra_k, n) in (9usize..70, 0usize..80, 5usize..40),
        threads in 2usize..9,
        vals in proptest::collection::vec(-3.0f32..3.0, 70 * 144),
    ) {
        let k = 64 + extra_k;
        let a = Tensor::from_vec(vals[..m * k].to_vec(), [m, k]);
        let b = Tensor::from_vec(vals[vals.len() - k * n..].to_vec(), [k, n]);
        let serial = ExecEngine::serial().matmul(&a, &b);
        let parallel = ExecEngine::with_threads(threads)
            .with_spawn_threshold(0)
            .matmul(&a, &b);
        prop_assert_eq!(parallel, serial);
    }

    /// The streaming K-tile API partitions the exact integer reduction:
    /// folding the streamed tiles with checked adds reproduces the full
    /// product for any tile size and thread count.
    #[test]
    fn engine_int8_k_tile_stream_partitions_reduction(
        (m, k, n) in small_dims(),
        k_tile in 1usize..16,
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let a = seeded_i8(m, k, seed as u32);
        let b = seeded_i8(k, n, seed as u32 ^ 0x51ed);
        let exact = int8_matmul(&a, &b);
        let mut acc = Int32Tensor::zeros([m, n]);
        let mut steps = 0usize;
        ExecEngine::with_threads(threads)
            .with_spawn_threshold(0)
            .gemm_k_tiles(&nn(a.data(), a.dims(), b.data(), b.dims()), k_tile, |step, tile| {
            prop_assert_eq!(step, steps);
            acc = acc.checked_add(tile).expect("no overflow at these depths");
            steps += 1;
        });
        prop_assert_eq!(steps, k.div_ceil(k_tile));
        prop_assert_eq!(acc, exact);
    }

    /// The transposed-weight int8 GEMM and its K-tile stream agree with
    /// the `[K, N]`-layout path exactly, for every thread count.
    #[test]
    fn int8_bt_matches_kn_layout(
        (m, k, n) in small_dims(),
        k_tile in 1usize..16,
        threads in 1usize..5,
        seed in any::<u16>(),
    ) {
        let a = seeded_i8(m, k, seed as u32);
        let b = seeded_i8(k, n, seed as u32 ^ 0x77aa);
        // bᵀ stored [N, K].
        let mut bt = vec![0i8; n * k];
        for l in 0..k {
            for j in 0..n {
                bt[j * k + l] = b.data()[l * n + j];
            }
        }
        let bt = Int8Tensor::from_vec(bt, [n, k]);
        let eng = ExecEngine::with_threads(threads).with_spawn_threshold(0);
        let want = int8_matmul(&a, &b);
        prop_assert_eq!(&eng.int8_matmul_bt(&a, &bt), &want);
        let mut tiles = Vec::new();
        eng.gemm_k_tiles(&nn(a.data(), a.dims(), b.data(), b.dims()), k_tile, |_, t| {
            tiles.push(t.clone())
        });
        let mut steps = 0usize;
        let g = Gemm::dense(Layout::NT, a.data(), a.dims(), bt.data(), bt.dims());
        eng.gemm_k_tiles(&g, k_tile, |step, tile| {
            prop_assert_eq!(tile, &tiles[step]);
            steps += 1;
        });
        prop_assert_eq!(steps, k.div_ceil(k_tile));
        // Accumulate mode doubles the exact result.
        let mut acc = want.clone();
        eng.gemm(&Gemm { accumulate: true, ..nn(a.data(), a.dims(), b.data(), b.dims()) }, acc.data_mut());
        for (x, y) in acc.data().iter().zip(want.data()) {
            prop_assert_eq!(*x, 2 * y);
        }
    }

    /// Quantize→dequantize round trips stay within half a step for
    /// in-range values, and the reported relative error is consistent.
    #[test]
    fn int8_roundtrip_error_bounded(
        exp in -6i32..7,
        n in 1usize..64,
        seed in any::<u16>(),
    ) {
        let scale = (exp as f32).exp2();
        let vals: Vec<f32> = (0..n)
            .map(|i| {
                let r = ((i as u32).wrapping_mul(2654435761).wrapping_add(seed as u32) % 2000)
                    as f32 / 1000.0 - 1.0;
                r * 100.0 * scale // keep within the i8 code range
            })
            .collect();
        let x = Tensor::from_vec(vals, [n]);
        let back = Int8Tensor::quantize(&x, scale).dequantize(scale);
        for (a, b) in x.data().iter().zip(back.data()) {
            prop_assert!((a - b).abs() <= scale / 2.0 + 1e-6, "{a} vs {b} at scale {scale}");
        }
        let err = Int8Tensor::roundtrip_rel_error(&x, scale);
        prop_assert!((0.0..=1.0).contains(&err));
    }

    #[test]
    fn int8_psum_tiles_exact_partition(
        (m, k, n) in small_dims(),
        k_tile in 1usize..16,
        seed in any::<u16>(),
    ) {
        let _ = seed;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let a = int8_strategy(m, k).new_tree(&mut runner).unwrap().current();
        let b = int8_strategy(k, n).new_tree(&mut runner).unwrap().current();
        let exact = int8_matmul(&a, &b);
        let mut acc = Int32Tensor::zeros([m, n]);
        ExecEngine::serial().gemm_k_tiles(&nn(a.data(), a.dims(), b.data(), b.dims()), k_tile, |_, t| {
            acc = acc.checked_add(t).expect("no overflow at these depths");
        });
        prop_assert_eq!(acc, exact);
    }
}
