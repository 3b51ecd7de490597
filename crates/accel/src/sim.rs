//! The tile-based GEMM simulator: executes IS/WS loop nests over a MAC
//! array model with byte-accurate traffic accounting and a bit-accurate
//! PSUM path (exact INT32 or grouped APSQ).

use crate::stats::SimStats;
use apsq_core::{ApsqConfig, GroupSize, StreamingApsq};
use apsq_dataflow::{AcceleratorConfig, Dataflow};
use apsq_quant::Bitwidth;
use apsq_tensor::{pack_k_pairs, ExecEngine, Gemm, Int32Tensor, Int8Tensor, Layout};

/// How the simulator treats partial sums.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PsumPath {
    /// Conventional exact INT32 accumulation (β = 4).
    ExactInt32,
    /// Grouped APSQ at the given bit-width and group size (β = bits/8,
    /// `gs` buffer slots per element).
    Apsq {
        /// Stored PSUM width.
        bits: Bitwidth,
        /// Group size.
        gs: usize,
    },
}

impl PsumPath {
    /// Bytes per stored PSUM access.
    pub fn access_bytes(&self) -> f64 {
        match self {
            PsumPath::ExactInt32 => 4.0,
            PsumPath::Apsq { bits, .. } => bits.get() as f64 / 8.0,
        }
    }

    /// Buffer-resident bytes per output element.
    pub fn working_set_bytes_per_element(&self) -> f64 {
        match self {
            PsumPath::ExactInt32 => 4.0,
            PsumPath::Apsq { bits, gs } => (*gs as f64) * bits.get() as f64 / 8.0,
        }
    }
}

/// Result of simulating one GEMM layer.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The layer output in the i32 PSUM domain: exact sums for
    /// [`PsumPath::ExactInt32`], dequantized APSQ outputs otherwise.
    pub output: Int32Tensor,
    /// Measured traffic and compute.
    pub stats: SimStats,
}

/// The simulator. Executes `[T, Ci] × [Ci, Co]` GEMMs under a chosen
/// dataflow with byte-accurate access accounting.
#[derive(Clone, Debug)]
pub struct GemmSimulator {
    arch: AcceleratorConfig,
    dataflow: Dataflow,
    psum_path: PsumPath,
    engine: ExecEngine,
}

impl GemmSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the architecture has zero fields, if the dataflow is
    /// output-stationary (the PSUM path under study does not exist there),
    /// or if an APSQ path has `gs = 0`.
    pub fn new(arch: AcceleratorConfig, dataflow: Dataflow, psum_path: PsumPath) -> Self {
        Self::with_engine(arch, dataflow, psum_path, ExecEngine::serial())
    }

    /// Creates a simulator whose PE-array tile computations dispatch on
    /// `engine` (parallelized over output-tile rows). Traffic accounting
    /// and outputs are bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GemmSimulator::new`].
    pub fn with_engine(
        arch: AcceleratorConfig,
        dataflow: Dataflow,
        psum_path: PsumPath,
        engine: ExecEngine,
    ) -> Self {
        arch.validate();
        assert!(
            dataflow.buffers_psums(),
            "the simulator models the buffered-PSUM dataflows (IS/WS)"
        );
        if let PsumPath::Apsq { gs, .. } = psum_path {
            assert!(gs > 0, "APSQ group size must be positive");
        }
        GemmSimulator {
            arch,
            dataflow,
            psum_path,
            engine,
        }
    }

    /// Runs one GEMM: `ifmap` is `[T, Ci]` (tokens × input channels),
    /// `weight` is `[Ci, Co]`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn run(&self, ifmap: &Int8Tensor, weight: &Int8Tensor) -> SimResult {
        assert_eq!(ifmap.shape().rank(), 2, "ifmap must be [T, Ci]");
        assert_eq!(weight.shape().rank(), 2, "weight must be [Ci, Co]");
        assert_eq!(
            ifmap.dims()[1],
            weight.dims()[0],
            "ifmap Ci {} != weight Ci {}",
            ifmap.dims()[1],
            weight.dims()[0]
        );
        match self.dataflow {
            Dataflow::WeightStationary => self.run_ws(ifmap, weight),
            Dataflow::InputStationary => self.run_is(ifmap, weight),
            Dataflow::OutputStationary => unreachable!("rejected in constructor"),
        }
    }

    /// Weight-stationary nest: `for co_g { for ci_g { for tok_tile } }`.
    /// PSUMs for all tokens × one co-group stay live across the `ci_g`
    /// loop.
    fn run_ws(&self, ifmap: &Int8Tensor, weight: &Int8Tensor) -> SimResult {
        let (t, ci) = (ifmap.dims()[0], ifmap.dims()[1]);
        let co = weight.dims()[1];
        let (po, pci, pco) = (self.arch.po, self.arch.pci, self.arch.pco);
        let np = ci.div_ceil(pci);
        let co_groups = co.div_ceil(pco);
        let tok_tiles = t.div_ceil(po);

        let mut stats = SimStats::default();

        // Ifmap: DRAM → SRAM once if the *tile* working set fits (Po·Ci for
        // a GEMM), re-fetched per co-pass otherwise (paper eq 5/6).
        let ifmap_tile_bytes = (po * ci) as f64;
        let ifmap_resident = ifmap_tile_bytes <= self.arch.ifmap_buffer_bytes as f64;
        stats.ifmap.dram_bytes += (t * ci) as u64;
        stats.ifmap.sram_bytes += (t * ci) as u64; // fill write

        // Weights: DRAM → SRAM once; each weight byte then read once.
        stats.weight.dram_bytes += (ci * co) as u64;
        stats.weight.sram_bytes += (ci * co) as u64; // fill write
        stats.weight.sram_bytes += (ci * co) as u64; // one read per byte

        // PSUM residency for one co-group.
        let psum_ws = self.psum_path.working_set_bytes_per_element() * (t * pco) as f64;
        let psum_resident = psum_ws <= self.arch.ofmap_buffer_bytes as f64;

        let mut out = vec![0i32; t * co];
        // The weights, packed once; each co-group reads its columns' pairs
        // in place (`ldb = 2·co`).
        let panels = pack_k_pairs(weight.data(), ci, co);

        for cog in 0..co_groups {
            let co0 = cog * pco;
            let co1 = usize::min(co0 + pco, co);

            if cog > 0 && !ifmap_resident {
                // Re-fetch the whole ifmap for this pass.
                stats.ifmap.dram_bytes += (t * ci) as u64;
                stats.ifmap.sram_bytes += (t * ci) as u64;
            }

            // Produce the PSUM tile stream for this co-group. The MAC
            // arithmetic runs through the execution engine (bit-identical
            // to the scalar loops for every thread count); the traffic and
            // cycle accounting below is the closed form of the per-token-
            // tile loop it replaces.
            let mut tiles: Vec<Int32Tensor> = Vec::with_capacity(np);
            for cig in 0..np {
                let ci0 = cig * pci;
                let ci1 = usize::min(ci0 + pci, ci);
                // The tile reads this co-group's column pairs of the panels
                // in place (`ldb = 2·co`) over this ci-group's K slice.
                let g = Gemm {
                    ldb: 2 * co,
                    k_range: ci0..ci1,
                    ..Gemm::new(
                        Layout::NP,
                        ifmap.data(),
                        &panels[2 * co0..],
                        t,
                        co1 - co0,
                        ci,
                    )
                };
                let mut tile = vec![0i32; t * (co1 - co0)];
                self.engine.gemm(&g, &mut tile);
                // One ifmap SRAM read per (token, input-channel) pair…
                stats.ifmap.sram_bytes += (t * (ci1 - ci0)) as u64;
                // …one MAC per (token, output-channel, input-channel)…
                stats.macs += (t * (co1 - co0) * (ci1 - ci0)) as u64;
                // …and one array pass per Po-token tile.
                stats.array_cycles += tok_tiles as u64;
                tiles.push(Int32Tensor::from_vec(tile, [t * (co1 - co0)]));
            }

            // Fold the stream through the configured PSUM path with
            // byte-accurate buffer accounting.
            let folded = self.fold_psums(&tiles, psum_resident, &mut stats);
            for tok in 0..t {
                for oc in co0..co1 {
                    out[tok * co + oc] = folded.data()[tok * (co1 - co0) + (oc - co0)];
                }
            }
        }

        // Ofmap: requantized outputs written to SRAM, then drained to DRAM.
        stats.ofmap.sram_bytes += 2 * (t * co) as u64;
        stats.ofmap.dram_bytes += (t * co) as u64;

        SimResult {
            output: Int32Tensor::from_vec(out, [t, co]),
            stats,
        }
    }

    /// Input-stationary nest: `for tok_tile { for ci_g { for co_g } }`.
    /// PSUMs for one token tile × all output channels stay live across the
    /// `ci_g` loop; weights are re-streamed once per token tile.
    fn run_is(&self, ifmap: &Int8Tensor, weight: &Int8Tensor) -> SimResult {
        let (t, ci) = (ifmap.dims()[0], ifmap.dims()[1]);
        let co = weight.dims()[1];
        let (po, pci, pco) = (self.arch.po, self.arch.pci, self.arch.pco);
        let np = ci.div_ceil(pci);
        let co_groups = co.div_ceil(pco);
        let tok_tiles = t.div_ceil(po);

        let mut stats = SimStats::default();

        // Ifmap: once from DRAM, each byte written and read once (eq 3/4).
        stats.ifmap.dram_bytes += (t * ci) as u64;
        stats.ifmap.sram_bytes += 2 * (t * ci) as u64;

        // Weights: resident if the full Sw fits in Bw (eq 3/4); otherwise
        // re-fetched from DRAM on every token-tile pass.
        let weights_resident = ((ci * co) as f64) <= self.arch.weight_buffer_bytes as f64;
        if weights_resident {
            stats.weight.dram_bytes += (ci * co) as u64;
            stats.weight.sram_bytes += (ci * co) as u64; // fill write
        }

        // PSUM residency for one token tile (Po pixels × all Co).
        let psum_ws = self.psum_path.working_set_bytes_per_element() * (po * co) as f64;
        let psum_resident = psum_ws <= self.arch.ofmap_buffer_bytes as f64;

        let mut out = vec![0i32; t * co];
        let panels = pack_k_pairs(weight.data(), ci, co);

        for tt in 0..tok_tiles {
            let t0 = tt * po;
            let t1 = usize::min(t0 + po, t);

            if weights_resident {
                // One SRAM read sweep over the weights for this pass.
                stats.weight.sram_bytes += (ci * co) as u64;
            } else {
                // Stage through SRAM from DRAM every pass.
                stats.weight.dram_bytes += (ci * co) as u64;
                stats.weight.sram_bytes += 2 * (ci * co) as u64;
            }

            // Tile MACs run through the engine; accounting is the closed
            // form of the per-co-group loop it replaces.
            let mut tiles: Vec<Int32Tensor> = Vec::with_capacity(np);
            for cig in 0..np {
                let ci0 = cig * pci;
                let ci1 = usize::min(ci0 + pci, ci);
                let g = Gemm {
                    k_range: ci0..ci1,
                    ..Gemm::new(
                        Layout::NP,
                        &ifmap.data()[t0 * ci..],
                        &panels,
                        t1 - t0,
                        co,
                        ci,
                    )
                };
                let mut tile = vec![0i32; (t1 - t0) * co];
                self.engine.gemm(&g, &mut tile);
                stats.macs += ((t1 - t0) * co * (ci1 - ci0)) as u64;
                stats.array_cycles += co_groups as u64;
                tiles.push(Int32Tensor::from_vec(tile, [(t1 - t0) * co]));
            }

            let folded = self.fold_psums(&tiles, psum_resident, &mut stats);
            for tok in t0..t1 {
                for oc in 0..co {
                    out[tok * co + oc] = folded.data()[(tok - t0) * co + oc];
                }
            }
        }

        stats.ofmap.sram_bytes += 2 * (t * co) as u64;
        stats.ofmap.dram_bytes += (t * co) as u64;

        SimResult {
            output: Int32Tensor::from_vec(out, [t, co]),
            stats,
        }
    }

    /// Folds one PSUM tile stream (per output block) through the
    /// configured path, charging buffer traffic:
    ///
    /// - resident: logical read = 1 SRAM read; logical write = 1 SRAM
    ///   write;
    /// - spilled: logical read additionally stages from DRAM (+1 DRAM read,
    ///   +1 SRAM write); logical write additionally evicts (+1 SRAM read,
    ///   +1 DRAM write) — reproducing the analytical 2× SRAM + 1× DRAM per
    ///   logical access (eq 3–6 spill terms).
    fn fold_psums(
        &self,
        tiles: &[Int32Tensor],
        resident: bool,
        stats: &mut SimStats,
    ) -> Int32Tensor {
        let numel = tiles[0].numel() as u64;
        let np = tiles.len() as u64;
        let bytes = self.psum_path.access_bytes();
        let charge = |n_logical_reads: u64, n_logical_writes: u64, stats: &mut SimStats| {
            let (mut sram, mut dram) = (0f64, 0f64);
            sram += (n_logical_reads + n_logical_writes) as f64 * bytes;
            if !resident {
                sram += (n_logical_reads + n_logical_writes) as f64 * bytes;
                dram += (n_logical_reads + n_logical_writes) as f64 * bytes;
            }
            stats.psum.sram_bytes += sram as u64;
            stats.psum.dram_bytes += dram as u64;
        };

        match self.psum_path {
            PsumPath::ExactInt32 => {
                // np writes, np−1 read-modify reads per element.
                charge((np - 1) * numel, np * numel, stats);
                apsq_core::exact_accumulate(tiles)
            }
            PsumPath::Apsq { bits, gs } => {
                // Grouped APSQ: word-count invariant — np writes, np−1
                // reads per element, each 1 word at `bits`.
                charge((np - 1) * numel, np * numel, stats);
                let mut stream = StreamingApsq::calibrating(
                    tiles.len(),
                    ApsqConfig {
                        bits,
                        group_size: GroupSize::new(gs),
                    },
                );
                for tile in tiles {
                    stream.push_ref(tile);
                }
                stream.finish().output
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int8_matmul(a: &Int8Tensor, w: &Int8Tensor) -> Int32Tensor {
        ExecEngine::serial().int8_matmul(a, w)
    }

    fn test_tensors(t: usize, ci: usize, co: usize) -> (Int8Tensor, Int8Tensor) {
        let a = Int8Tensor::from_vec(
            (0..t * ci).map(|x| ((x * 37 + 11) % 255) as i8).collect(),
            [t, ci],
        );
        let w = Int8Tensor::from_vec(
            (0..ci * co).map(|x| ((x * 73 + 5) % 251) as i8).collect(),
            [ci, co],
        );
        (a, w)
    }

    fn small_arch() -> AcceleratorConfig {
        AcceleratorConfig {
            po: 4,
            pci: 4,
            pco: 4,
            ifmap_buffer_bytes: 64 * 1024,
            ofmap_buffer_bytes: 64 * 1024,
            weight_buffer_bytes: 32 * 1024,
        }
    }

    #[test]
    fn ws_exact_output_matches_reference_gemm() {
        let (a, w) = test_tensors(10, 24, 12);
        let sim = GemmSimulator::new(
            small_arch(),
            Dataflow::WeightStationary,
            PsumPath::ExactInt32,
        );
        let r = sim.run(&a, &w);
        assert_eq!(r.output, int8_matmul(&a, &w));
        assert_eq!(r.stats.macs, (10 * 24 * 12) as u64);
    }

    #[test]
    fn is_exact_output_matches_reference_gemm() {
        let (a, w) = test_tensors(9, 17, 13); // deliberately ragged tiles
        let sim = GemmSimulator::new(
            small_arch(),
            Dataflow::InputStationary,
            PsumPath::ExactInt32,
        );
        let r = sim.run(&a, &w);
        assert_eq!(r.output, int8_matmul(&a, &w));
        assert_eq!(r.stats.macs, (9 * 17 * 13) as u64);
    }

    #[test]
    fn parallel_engine_simulation_is_bit_identical() {
        let (a, w) = test_tensors(33, 70, 21); // ragged against every tile dim
        for dataflow in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            for path in [
                PsumPath::ExactInt32,
                PsumPath::Apsq {
                    bits: Bitwidth::INT8,
                    gs: 2,
                },
            ] {
                let serial = GemmSimulator::new(small_arch(), dataflow, path).run(&a, &w);
                let parallel = GemmSimulator::with_engine(
                    small_arch(),
                    dataflow,
                    path,
                    ExecEngine::with_threads(4).with_spawn_threshold(0),
                )
                .run(&a, &w);
                assert_eq!(parallel.output, serial.output, "{dataflow:?} {path:?}");
                assert_eq!(parallel.stats, serial.stats, "{dataflow:?} {path:?}");
            }
        }
    }

    #[test]
    fn apsq_output_close_to_exact() {
        let (a, w) = test_tensors(8, 64, 8);
        let exact = int8_matmul(&a, &w);
        for gs in [1usize, 2, 4] {
            let sim = GemmSimulator::new(
                small_arch(),
                Dataflow::WeightStationary,
                PsumPath::Apsq {
                    bits: Bitwidth::INT8,
                    gs,
                },
            );
            let r = sim.run(&a, &w);
            // Relative error of the INT8 APSQ path stays small.
            for (x, e) in r.output.data().iter().zip(exact.data()) {
                let tol = (e.abs() as f64 * 0.05).max(2000.0);
                assert!(((x - e).abs() as f64) <= tol, "gs={gs}: {x} vs {e}");
            }
        }
    }

    #[test]
    fn apsq_psum_traffic_is_quarter_of_exact() {
        let (a, w) = test_tensors(8, 64, 8);
        let exact_sim = GemmSimulator::new(
            small_arch(),
            Dataflow::WeightStationary,
            PsumPath::ExactInt32,
        );
        let apsq_sim = GemmSimulator::new(
            small_arch(),
            Dataflow::WeightStationary,
            PsumPath::Apsq {
                bits: Bitwidth::INT8,
                gs: 2,
            },
        );
        let e = exact_sim.run(&a, &w).stats;
        let q = apsq_sim.run(&a, &w).stats;
        assert_eq!(e.psum.sram_bytes, 4 * q.psum.sram_bytes);
    }

    #[test]
    fn psum_traffic_invariant_across_group_sizes() {
        let (a, w) = test_tensors(8, 64, 8);
        let mut traffics = Vec::new();
        for gs in 1..=4 {
            let sim = GemmSimulator::new(
                small_arch(),
                Dataflow::WeightStationary,
                PsumPath::Apsq {
                    bits: Bitwidth::INT8,
                    gs,
                },
            );
            traffics.push(sim.run(&a, &w).stats.psum);
        }
        assert!(traffics.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn spill_adds_dram_traffic() {
        // Tiny ofmap buffer forces the INT32 working set off-chip.
        let mut arch = small_arch();
        arch.ofmap_buffer_bytes = 16;
        let (a, w) = test_tensors(8, 32, 8);
        let sim = GemmSimulator::new(arch, Dataflow::WeightStationary, PsumPath::ExactInt32);
        let r = sim.run(&a, &w);
        assert!(r.stats.psum.dram_bytes > 0);
        // Spilled SRAM traffic doubles.
        let fit_sim = GemmSimulator::new(
            small_arch(),
            Dataflow::WeightStationary,
            PsumPath::ExactInt32,
        );
        let f = fit_sim.run(&a, &w);
        assert_eq!(r.stats.psum.sram_bytes, 2 * f.stats.psum.sram_bytes);
        // And the output is still exact.
        assert_eq!(r.output, int8_matmul(&a, &w));
    }

    #[test]
    #[should_panic(expected = "IS/WS")]
    fn os_rejected() {
        GemmSimulator::new(
            small_arch(),
            Dataflow::OutputStationary,
            PsumPath::ExactInt32,
        );
    }
}
