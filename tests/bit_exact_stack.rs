//! End-to-end bit-exactness across the whole stack: the K-tiled integer
//! GEMM, the software golden model (Algorithm 1), the RAE hardware model,
//! and the accelerator simulator must all agree.

use apsq::accel::{GemmSimulator, PsumPath};
use apsq::core::{exact_accumulate, grouped_apsq, ApsqConfig, GroupSize, ScaleSchedule};
use apsq::dataflow::{AcceleratorConfig, Dataflow};
use apsq::quant::Bitwidth;
use apsq::rae::{RaeConfig, RaeEngine};
use apsq::tensor::{pack_k_pairs, ExecEngine, Gemm, Int32Tensor, Int8Tensor, Layout};

fn int8_matmul(a: &Int8Tensor, w: &Int8Tensor) -> Int32Tensor {
    ExecEngine::serial().int8_matmul(a, w)
}

/// The K-tiled PSUM stream of `a · w`, one tile per `k_tile` input channels.
fn int8_matmul_psum_tiles(a: &Int8Tensor, w: &Int8Tensor, k_tile: usize) -> Vec<Int32Tensor> {
    let panels = pack_k_pairs(w.data(), w.dims()[0], w.dims()[1]);
    let g = Gemm::dense(Layout::NP, a.data(), a.dims(), &panels, w.dims());
    let mut tiles = Vec::new();
    ExecEngine::serial().gemm_k_tiles(&g, k_tile, |_, t| tiles.push(t.clone()));
    tiles
}

fn tensors(t: usize, ci: usize, co: usize, seed: i32) -> (Int8Tensor, Int8Tensor) {
    let a = Int8Tensor::from_vec(
        (0..t * ci)
            .map(|x| (((x as i32 * 37 + seed) % 255) - 127) as i8)
            .collect(),
        [t, ci],
    );
    let w = Int8Tensor::from_vec(
        (0..ci * co)
            .map(|x| (((x as i32 * 73 + seed * 3) % 251) - 125) as i8)
            .collect(),
        [ci, co],
    );
    (a, w)
}

#[test]
fn golden_equals_rae_on_gemm_psum_streams() {
    let (a, w) = tensors(6, 64, 4, 5);
    // PSUM tiles exactly as a Pci=8 PE array would produce them.
    let tiles = int8_matmul_psum_tiles(&a, &w, 8);
    let flat = tiles.to_vec();
    for gs in 1..=4 {
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&flat),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let golden = grouped_apsq(&flat, &sched, &ApsqConfig::int8(gs));
        let mut rae = RaeEngine::new(RaeConfig::int8(gs));
        let out = rae.process_stream(&flat, &sched);
        assert_eq!(out, golden.output, "gs={gs}");
    }
}

#[test]
fn tiles_sum_to_exact_gemm() {
    let (a, w) = tensors(5, 48, 7, 11);
    let tiles = int8_matmul_psum_tiles(&a, &w, 8);
    let acc = exact_accumulate(&tiles);
    let exact = int8_matmul(&a, &w);
    assert_eq!(acc.data(), exact.data());
}

#[test]
fn simulator_baseline_is_bit_exact_for_both_dataflows() {
    let arch = AcceleratorConfig {
        po: 4,
        pci: 8,
        pco: 4,
        ifmap_buffer_bytes: 32 * 1024,
        ofmap_buffer_bytes: 32 * 1024,
        weight_buffer_bytes: 16 * 1024,
    };
    let (a, w) = tensors(12, 40, 10, 3);
    let exact = int8_matmul(&a, &w);
    for df in [Dataflow::InputStationary, Dataflow::WeightStationary] {
        let sim = GemmSimulator::new(arch, df, PsumPath::ExactInt32);
        assert_eq!(sim.run(&a, &w).output, exact, "{df}");
    }
}

#[test]
fn simulator_apsq_error_matches_golden_scale_bound() {
    // The simulator's APSQ output deviates from exact by at most the
    // accumulated half-steps of its calibrated schedule.
    let arch = AcceleratorConfig {
        po: 4,
        pci: 8,
        pco: 4,
        ifmap_buffer_bytes: 32 * 1024,
        ofmap_buffer_bytes: 32 * 1024,
        weight_buffer_bytes: 16 * 1024,
    };
    let (a, w) = tensors(8, 64, 8, 9);
    let exact = int8_matmul(&a, &w);
    for gs in 1..=4 {
        let sim = GemmSimulator::new(
            arch,
            Dataflow::WeightStationary,
            PsumPath::Apsq {
                bits: Bitwidth::INT8,
                gs,
            },
        );
        let out = sim.run(&a, &w).output;
        // Quantization error is *absolute* (≈ α/2 per rounding), so bound
        // it against the signal range, not per-element magnitudes.
        let range = exact.data().iter().map(|e| e.abs()).max().unwrap() as f64;
        for (x, e) in out.data().iter().zip(exact.data()) {
            let err = (x - e).abs() as f64;
            assert!(err <= 0.05 * range, "gs={gs}: {x} vs {e} (range {range})");
        }
    }
}

#[test]
fn convolution_through_the_accelerator_is_bit_exact() {
    // Lower a 3×3/stride-2 conv with im2col and execute it as a GEMM on
    // the WS simulator: output must equal the direct convolution.
    use apsq::tensor::conv2d_i8_reference;
    let input = Int8Tensor::from_vec(
        (0..3 * 11 * 11)
            .map(|x| ((x * 41 + 9) % 253) as i8)
            .collect(),
        [3, 11, 11],
    );
    let weight4 = Int8Tensor::from_vec(
        (0..8 * 3 * 3 * 3)
            .map(|x| ((x * 67 + 5) % 247) as i8)
            .collect(),
        [8, 3, 3, 3],
    );
    let direct = conv2d_i8_reference(&input, &weight4, 2);

    // i8 codes are exact in f32, so lowering at scale 1 round-trips them.
    let lowered = ExecEngine::serial().im2col(&input.dequantize(1.0), 3, 2);
    let lowered = Int8Tensor::quantize(&lowered, 1.0); // [25, 27]

    // Weights as [C·K·K, Co].
    let mut wmat = vec![0i8; 27 * 8];
    for oc in 0..8 {
        let mut idx = 0;
        for ch in 0..3 {
            for ky in 0..3 {
                for kx in 0..3 {
                    wmat[idx * 8 + oc] = weight4.at(&[oc, ch, ky, kx]);
                    idx += 1;
                }
            }
        }
    }
    let wmat = Int8Tensor::from_vec(wmat, [27, 8]);

    let arch = AcceleratorConfig {
        po: 4,
        pci: 8,
        pco: 4,
        ifmap_buffer_bytes: 16 * 1024,
        ofmap_buffer_bytes: 16 * 1024,
        weight_buffer_bytes: 8 * 1024,
    };
    let sim = GemmSimulator::new(arch, Dataflow::WeightStationary, PsumPath::ExactInt32);
    let r = sim.run(&lowered, &wmat);
    let ho = 5;
    for oc in 0..8 {
        for oy in 0..ho {
            for ox in 0..ho {
                assert_eq!(r.output.at(&[oy * ho + ox, oc]), direct.at(&[oc, oy, ox]));
            }
        }
    }
}

#[test]
fn whole_stack_group_size_error_ordering() {
    // Across the stack, gs=4 must not be worse than gs=1 *on average*
    // (Section III-B's motivation; the paper notes per-task improvements
    // are not strictly monotonic, so single draws can flip).
    let mse_at = |gs: usize, seed: i32| -> f64 {
        let (a, w) = tensors(8, 128, 8, seed);
        let tiles = int8_matmul_psum_tiles(&a, &w, 8);
        let exact = exact_accumulate(&tiles);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            GroupSize::new(gs),
        );
        let run = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(gs));
        exact
            .data()
            .iter()
            .zip(run.output.data())
            .map(|(&e, &o)| ((e - o) as f64).powi(2))
            .sum::<f64>()
    };
    let seeds = [3, 21, 55, 89, 144, 233, 377, 610];
    let avg = |gs: usize| seeds.iter().map(|&s| mse_at(gs, s)).sum::<f64>() / seeds.len() as f64;
    let g1 = avg(1);
    let g4 = avg(4);
    assert!(
        g4 <= g1 * 1.05,
        "mean MSE at gs=4 ({g4:.3e}) should not exceed gs=1 ({g1:.3e})"
    );
}
