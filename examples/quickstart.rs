//! Quickstart: run grouped APSQ on a synthetic PSUM stream and compare it
//! against exact INT32 accumulation and the ADC-style PSQ baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use apsq::core::{
    error_vs_group_size, exact_accumulate, grouped_apsq, psq_adc_reference, sqnr_db,
    synthetic_psum_stream, ApsqConfig, GroupSize, ScaleSchedule,
};
use apsq::quant::Bitwidth;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // A stream of 32 PSUM tiles, each 256 elements deep, as a W8A8 PE
    // array would produce with Pci = 8 (np = Ci/Pci = 32 steps).
    let stream = synthetic_psum_stream(&mut rng, 32, 256, 8);
    let exact = exact_accumulate(&stream);

    println!("== APSQ vs baselines on a 32-step PSUM stream ==\n");

    // ADC-style PSQ (refs [19,20]): quantizes each tile but stores the
    // running sum at full precision — no memory saving.
    let sched = ScaleSchedule::calibrate(
        std::slice::from_ref(&stream),
        Bitwidth::INT8,
        GroupSize::new(1),
    );
    let psq = psq_adc_reference(&stream, &sched);
    println!(
        "ADC-style PSQ   : SQNR {:6.1} dB  (storage stays INT32 — no traffic saving)",
        sqnr_db(exact.data(), psq.data())
    );

    // Grouped APSQ: INT8 storage for every additive partial sum.
    for gs in [1usize, 2, 3, 4] {
        let group = GroupSize::new(gs);
        let sched = ScaleSchedule::calibrate(std::slice::from_ref(&stream), Bitwidth::INT8, group);
        let run = grouped_apsq(&stream, &sched, &ApsqConfig::int8(gs));
        println!(
            "APSQ gs={gs}       : SQNR {:6.1} dB  (INT8 storage; {} buffer reads, {} writes)",
            sqnr_db(exact.data(), run.output.data()),
            run.traffic.reads,
            run.traffic.writes,
        );
    }

    println!("\n== Group-size sweep (the paper's Section IV-B observation) ==\n");
    for p in error_vs_group_size(&stream, Bitwidth::INT8, &[1, 2, 4, 8, 16, 32]) {
        println!(
            "gs={:<3} SQNR {:6.1} dB   max|err| {:6}",
            p.group_size, p.sqnr_db, p.max_abs_err
        );
    }
    println!("\nLarger groups requantize the running sum less often, so the");
    println!("error shrinks — while buffer traffic stays identical (paper III-B).");

    // The execution engine behind every GEMM: cache-blocked kernels on a
    // scoped thread pool, bit-identical to serial for any thread count.
    println!("\n== ExecEngine: parallel tiled GEMM (bit-identical to serial) ==\n");
    let n: usize = if cfg!(debug_assertions) { 128 } else { 768 };
    let a = apsq::tensor::Tensor::from_vec(
        (0..n * n).map(|x| ((x % 97) as f32) * 0.01).collect(),
        [n, n],
    );
    let b = apsq::tensor::Tensor::from_vec(
        (0..n * n).map(|x| ((x % 89) as f32) * 0.01).collect(),
        [n, n],
    );
    // One dense descriptor, run into a caller-owned output buffer.
    let gemm = apsq::tensor::Gemm::dense(
        apsq::tensor::Layout::NN,
        a.data(),
        a.dims(),
        b.data(),
        b.dims(),
    );
    let time = |eng: &apsq::tensor::ExecEngine| {
        let mut best = f64::MAX;
        let mut out = apsq::tensor::Tensor::zeros([n, n]);
        for _ in 0..3 {
            // Demo timing printout — wall-clock by design.
            #[allow(clippy::disallowed_methods)]
            let t = std::time::Instant::now();
            eng.gemm(&gemm, out.data_mut());
            best = best.min(t.elapsed().as_secs_f64());
        }
        (out, best)
    };
    let (serial_out, t_serial) = time(&apsq::tensor::ExecEngine::serial());
    println!("{n}x{n}x{n} GEMM, serial engine: {t_serial:.4} s");
    for threads in [2usize, 4] {
        let eng = apsq::tensor::ExecEngine::with_threads(threads);
        let (out, t) = time(&eng);
        println!(
            "{n}x{n}x{n} GEMM, {threads} threads: {t:.4} s  (speedup {:.2}x, bit-identical: {})",
            t_serial / t,
            out == serial_out,
        );
    }
}
