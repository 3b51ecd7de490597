//! The fused APSQ linear kernel against the unfused datapath it replaces.
//!
//! [`ExecEngine::apsq_linear`] runs a [`ScaleSchedule::fold_plan`] on the
//! packed-B GEMM's register tiles. The oracle is the unfused path: the
//! activations quantized by the scalar formula, the K tiles of the
//! unpacked `[k, n]` product formed by the shared naive oracle
//! ([`Gemm::reference`]) and streamed into a [`StreamingApsq`] with the
//! same schedule, and the epilogue written out here. Every backend this host runs, at 1–4 threads, must
//! match it on the output bits, the last codes and the traffic — over
//! ragged shapes (`d_in` odd and past the kernels' 256-deep K panel,
//! `d_out` with 16-, 8- and < 8-column tails), odd `k_tile`s, group
//! sizes 1–8, and exponents 0–30, whose large end breaks the plan's i32
//! proof and sends the call to the scalar body's clamped-i64 fold.

use apsq_core::{ApsqConfig, BufferTraffic, ScaleSchedule, StreamingApsq};
use apsq_quant::Bitwidth;
use apsq_tensor::{
    pack_k_pairs, ApsqLinear, ExecEngine, Gemm, Int32Tensor, Int8Tensor, KernelBackend, Layout,
};
use proptest::prelude::*;

/// One fused call's case: shape, fold and data seeds.
#[derive(Clone, Debug)]
struct Case {
    m: usize,
    k: usize,
    n: usize,
    k_tile: usize,
    gs: usize,
    /// One exponent per step (`⌈k / k_tile⌉` of them).
    exponents: Vec<u32>,
    /// `log2` of the activation scale.
    x_exp: i32,
    seed: u32,
    threads: usize,
}

fn case() -> impl Strategy<Value = Case> {
    let n = prop_oneof![
        1usize..8,
        Just(8usize),
        9usize..16,
        Just(16usize),
        17usize..41
    ];
    let k = prop_oneof![1usize..40, 250usize..301];
    let shape = (1usize..=10, k, n);
    let fold = (1usize..=20, 1usize..=8, -3i32..3);
    (shape, fold, any::<u32>(), 1usize..=4).prop_flat_map(
        |((m, k, n), (k_tile, gs, x_exp), seed, threads)| {
            let np = k.div_ceil(k_tile);
            // Mostly realistic exponents, which keep the i32 proof; a
            // third of the cases draw from the whole shifter range.
            let exps = prop_oneof![
                proptest::collection::vec(0u32..=12, np..=np),
                proptest::collection::vec(0u32..=12, np..=np),
                proptest::collection::vec(0u32..=30, np..=np),
            ];
            exps.prop_map(move |exponents| Case {
                m,
                k,
                n,
                k_tile,
                gs,
                exponents,
                x_exp,
                seed,
                threads,
            })
        },
    )
}

/// Seed-mixed data: activations spanning past the i8 clamps at the
/// case's scale, weights over all of i8 (−128 included), a bias.
fn data(c: &Case) -> (Vec<f32>, Vec<i8>, Vec<f32>) {
    let mix = |i: usize, salt: u32| {
        (i as u32)
            .wrapping_mul(2654435761)
            .wrapping_add(c.seed ^ salt)
            .rotate_left(13)
    };
    let x_scale = 2f32.powi(c.x_exp);
    let x = (0..c.m * c.k)
        .map(|i| (mix(i, 1) % 601) as f32 / 2.0 - 150.0)
        .map(|v| v * x_scale)
        .collect();
    let w = (0..c.k * c.n)
        .map(|i| (mix(i, 2) % 256) as u8 as i8)
        .collect();
    let bias = (0..c.n)
        .map(|i| (mix(i, 3) % 2001) as f32 / 8.0 - 125.0)
        .collect();
    (x, w, bias)
}

/// The unfused path: outputs, last codes and traffic.
fn oracle(c: &Case, plan_inputs: &PlanInputs<'_>) -> (Vec<u32>, Vec<i32>, BufferTraffic) {
    let PlanInputs {
        x,
        w,
        bias,
        x_scale,
        out_scale,
        schedule,
        config,
    } = *plan_inputs;
    let codes: Vec<i8> = x
        .iter()
        .map(|&v| (v / x_scale).round().clamp(-128.0, 127.0) as i8)
        .collect();
    let a = Int8Tensor::from_vec(codes, [c.m, c.k]);
    let g = Gemm::dense(Layout::NN, a.data(), a.dims(), w, &[c.k, c.n]);
    let mut stream = StreamingApsq::new(schedule.clone(), config);
    for k0 in (0..c.k).step_by(c.k_tile) {
        let mut tile = Int32Tensor::zeros([c.m, c.n]);
        let slice = Gemm {
            k_range: k0..c.k.min(k0 + c.k_tile),
            ..g.clone()
        };
        slice.reference(tile.data_mut());
        stream.push_ref(&tile);
    }
    let last = stream.last_codes().to_vec();
    let mut acc = vec![0i32; c.m * c.n];
    let traffic = stream.finish_into(&mut acc);
    let y = acc
        .iter()
        .enumerate()
        .map(|(i, &v)| (v as f32 * out_scale + bias[i % c.n]).to_bits())
        .collect();
    (y, last, traffic)
}

#[derive(Clone, Copy)]
struct PlanInputs<'a> {
    x: &'a [f32],
    w: &'a [i8],
    bias: &'a [f32],
    x_scale: f32,
    out_scale: f32,
    schedule: &'a ScaleSchedule,
    config: ApsqConfig,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fused_kernel_is_the_unfused_fold_on_every_backend(c in case()) {
        let (x, w, bias) = data(&c);
        let config = ApsqConfig::int8(c.gs);
        let schedule = ScaleSchedule::from_exponents(&c.exponents, Bitwidth::INT8);
        let inputs = PlanInputs {
            x: &x,
            w: &w,
            bias: &bias,
            x_scale: 2f32.powi(c.x_exp),
            out_scale: 2f32.powi(c.x_exp - 6),
            schedule: &schedule,
            config,
        };
        let (want_y, want_codes, want_traffic) = oracle(&c, &inputs);
        let plan = schedule.fold_plan(&config, c.k, c.k_tile);
        let (writes, reads) = plan.words_per_element();
        let numel = (c.m * c.n) as u64;
        prop_assert_eq!(
            BufferTraffic { writes: writes * numel, reads: reads * numel },
            want_traffic
        );
        let panels = pack_k_pairs(&w, c.k, c.n);
        let op = ApsqLinear {
            panels: &panels,
            n: c.n,
            plan: &plan,
            x_scale: inputs.x_scale,
            out_scale: inputs.out_scale,
            bias: &bias,
        };
        for bk in KernelBackend::supported() {
            let eng = ExecEngine::with_threads(c.threads)
                .with_spawn_threshold(0)
                .with_backend(bk);
            let mut y = vec![f32::NAN; c.m * c.n];
            let mut codes = vec![i32::MIN; c.m * c.n];
            eng.apsq_linear(&op, &x, &mut y, Some(&mut codes));
            let y: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&y, &want_y, "{} output, exact={}", bk, plan.is_i32_exact());
            prop_assert_eq!(&codes, &want_codes, "{} codes", bk);
            // Without the codes output the epilogue is the same.
            let mut y2 = vec![0.0f32; c.m * c.n];
            eng.apsq_linear(&op, &x, &mut y2, None);
            let y2: Vec<u32> = y2.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&y2, &want_y, "{} output without codes", bk);
        }
    }
}

/// Every code at the i8 extremes over the longest step the proof admits
/// with a full ring: the tile sits at `k_tile · 2^14` and the carried rows
/// at their largest dequantized magnitude, so an SIMD build that wrapped
/// or saturated anywhere would differ from the oracle.
#[test]
fn extreme_codes_at_the_edge_of_the_proof() {
    let (m, k, n, k_tile, gs) = (5usize, 96usize, 24usize, 16usize, 3usize);
    let np = k / k_tile;
    for (xv, wv) in [(-128.0f32, -128i8), (127.0, -128), (-128.0, 127)] {
        for e in [0u32, 12, 22, 23] {
            let c = Case {
                m,
                k,
                n,
                k_tile,
                gs,
                exponents: vec![e; np],
                x_exp: 0,
                seed: 0,
                threads: 1,
            };
            let x = vec![xv; m * k];
            let w = vec![wv; k * n];
            let bias = vec![0.5f32; n];
            let config = ApsqConfig::int8(gs);
            let schedule = ScaleSchedule::from_exponents(&c.exponents, Bitwidth::INT8);
            let inputs = PlanInputs {
                x: &x,
                w: &w,
                bias: &bias,
                x_scale: 1.0,
                out_scale: 2f32.powi(-9),
                schedule: &schedule,
                config,
            };
            let (want_y, want_codes, _) = oracle(&c, &inputs);
            let plan = schedule.fold_plan(&config, k, k_tile);
            assert_eq!(plan.is_i32_exact(), e <= 22, "e={e}");
            let panels = pack_k_pairs(&w, k, n);
            let op = ApsqLinear {
                panels: &panels,
                n,
                plan: &plan,
                x_scale: 1.0,
                out_scale: inputs.out_scale,
                bias: &bias,
            };
            for bk in KernelBackend::supported() {
                let eng = ExecEngine::serial().with_backend(bk);
                let mut y = vec![0.0f32; m * n];
                let mut codes = vec![0i32; m * n];
                eng.apsq_linear(&op, &x, &mut y, Some(&mut codes));
                let y: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(y, want_y, "{bk} x={xv} w={wv} e={e}");
                assert_eq!(codes, want_codes, "{bk} x={xv} w={wv} e={e}");
            }
        }
    }
}
