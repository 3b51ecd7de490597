//! Output-stationary loop nest: PSUMs accumulate in PE registers, so the
//! PSUM format never touches memory — the reference point against which
//! the paper motivates fixing IS/WS instead.

use crate::sim::SimResult;
use crate::stats::SimStats;
use apsq_dataflow::AcceleratorConfig;
use apsq_tensor::{Int32Tensor, Int8Tensor};

/// Output-stationary GEMM simulator: each output tile is fully reduced in
/// registers before anything is written back.
///
/// Traffic model (matching the analytical OS derivation): the ifmap is
/// re-read once per output-channel pass, the weights once per output-pixel
/// pass; PSUM register energy is tracked as `psum_reg` accesses (2 per
/// MAC at the accumulation width) but no PSUM bytes move in SRAM or DRAM.
#[derive(Clone, Debug)]
pub struct OsGemmSimulator {
    arch: AcceleratorConfig,
    /// PSUM register width in bits (32 for exact accumulation).
    psum_reg_bits: u32,
}

impl OsGemmSimulator {
    /// Creates an OS simulator with 32-bit accumulation registers.
    ///
    /// # Panics
    ///
    /// Panics if the architecture has zero fields.
    pub fn new(arch: AcceleratorConfig) -> Self {
        arch.validate();
        OsGemmSimulator {
            arch,
            psum_reg_bits: 32,
        }
    }

    /// Overrides the accumulation register width (for width studies).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn with_psum_reg_bits(mut self, bits: u32) -> Self {
        assert!(bits > 0, "register width must be positive");
        self.psum_reg_bits = bits;
        self
    }

    /// Runs one GEMM: `ifmap` `[T, Ci]` × `weight` `[Ci, Co]`, bit-exact.
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
        let (t, ci) = (ifmap.dims()[0], ifmap.dims()[1]);
        let co = weight.dims()[1];
        let (po, pci, pco) = (self.arch.po, self.arch.pci, self.arch.pco);
        let co_groups = co.div_ceil(pco);
        let px_groups = t.div_ceil(po);

        let mut stats = SimStats::default();

        // Ifmap residency (full map vs Bi), re-read per co pass.
        let si = (t * ci) as u64;
        let i_resident = (si as f64) <= self.arch.ifmap_buffer_bytes as f64;
        if i_resident {
            stats.ifmap.dram_bytes += si;
            stats.ifmap.sram_bytes += si; // fill
            stats.ifmap.sram_bytes += si * co_groups as u64; // per-pass reads
        } else {
            stats.ifmap.dram_bytes += si * co_groups as u64;
            stats.ifmap.sram_bytes += 2 * si * co_groups as u64;
        }

        // Weight residency (full weights vs Bw), re-read per pixel pass.
        let sw = (ci * co) as u64;
        let w_resident = (sw as f64) <= self.arch.weight_buffer_bytes as f64;
        if w_resident {
            stats.weight.dram_bytes += sw;
            stats.weight.sram_bytes += sw;
            stats.weight.sram_bytes += sw * px_groups as u64;
        } else {
            stats.weight.dram_bytes += sw * px_groups as u64;
            stats.weight.sram_bytes += 2 * sw * px_groups as u64;
        }

        // Compute: full reduction per output element, in registers.
        let mut out = vec![0i32; t * co];
        for tok in 0..t {
            for oc in 0..co {
                let mut acc = 0i32;
                for icn in 0..ci {
                    acc +=
                        ifmap.data()[tok * ci + icn] as i32 * weight.data()[icn * co + oc] as i32;
                }
                out[tok * co + oc] = acc;
            }
        }
        stats.macs = (t * ci * co) as u64;
        stats.array_cycles = (px_groups * co_groups * ci.div_ceil(pci)) as u64;
        // PSUMs never leave the PE registers: `stats.psum` stays zero, and
        // register traffic is reported by [`Self::psum_register_bytes`].

        stats.ofmap.sram_bytes += 2 * (t * co) as u64;
        stats.ofmap.dram_bytes += (t * co) as u64;

        SimResult {
            output: Int32Tensor::from_vec(out, [t, co]),
            stats,
        }
    }

    /// PSUM register bytes touched for a `[T, Ci] × [Ci, Co]` GEMM
    /// (2 accesses per MAC at the configured register width).
    pub fn psum_register_bytes(&self, t: usize, ci: usize, co: usize) -> u64 {
        2 * (t * ci * co) as u64 * (self.psum_reg_bits as u64) / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int8_matmul(a: &Int8Tensor, w: &Int8Tensor) -> Int32Tensor {
        apsq_tensor::ExecEngine::serial().int8_matmul(a, w)
    }

    fn arch() -> AcceleratorConfig {
        AcceleratorConfig {
            po: 4,
            pci: 4,
            pco: 4,
            ifmap_buffer_bytes: 8 * 1024,
            ofmap_buffer_bytes: 8 * 1024,
            weight_buffer_bytes: 2 * 1024,
        }
    }

    fn tensors(t: usize, ci: usize, co: usize) -> (Int8Tensor, Int8Tensor) {
        let a = Int8Tensor::from_vec(
            (0..t * ci).map(|x| ((x * 37) % 255) as i8).collect(),
            [t, ci],
        );
        let w = Int8Tensor::from_vec(
            (0..ci * co).map(|x| ((x * 73) % 251) as i8).collect(),
            [ci, co],
        );
        (a, w)
    }

    #[test]
    fn output_bit_exact() {
        let (a, w) = tensors(9, 20, 11);
        let r = OsGemmSimulator::new(arch()).run(&a, &w);
        assert_eq!(r.output, int8_matmul(&a, &w));
    }

    #[test]
    fn no_psum_memory_traffic() {
        let (a, w) = tensors(32, 64, 32);
        let r = OsGemmSimulator::new(arch()).run(&a, &w);
        assert_eq!(r.stats.psum.sram_bytes, 0);
        assert_eq!(r.stats.psum.dram_bytes, 0);
    }

    #[test]
    fn weight_spill_scales_with_pixel_passes() {
        // Sw = 64·64 = 4 KB > 2 KB ⇒ re-fetched per pixel pass (32/4 = 8).
        let (a, w) = tensors(32, 64, 64);
        let r = OsGemmSimulator::new(arch()).run(&a, &w);
        assert_eq!(r.stats.weight.dram_bytes, (64 * 64 * 8) as u64);
    }

    #[test]
    fn matches_analytical_os_model() {
        use apsq_dataflow::{access_counts, Dataflow, LayerShape, PsumFormat};
        let (a, w) = tensors(32, 48, 24);
        let layer = LayerShape::gemm("x", 32, 48, 24);
        let r = OsGemmSimulator::new(arch()).run(&a, &w);
        let p = access_counts(
            &layer,
            &arch(),
            Dataflow::OutputStationary,
            &PsumFormat::int32_baseline(),
        );
        assert_eq!(r.stats.ifmap.sram_bytes as f64, p.ifmap.sram_bytes);
        assert_eq!(r.stats.ifmap.dram_bytes as f64, p.ifmap.dram_bytes);
        assert_eq!(r.stats.weight.sram_bytes as f64, p.weight.sram_bytes);
        assert_eq!(r.stats.weight.dram_bytes as f64, p.weight.dram_bytes);
        assert_eq!(r.stats.ofmap.sram_bytes as f64, p.ofmap.sram_bytes);
        assert_eq!(r.stats.macs as f64, p.macs);
    }

    #[test]
    fn register_bytes_accounting() {
        let sim = OsGemmSimulator::new(arch());
        assert_eq!(sim.psum_register_bytes(2, 3, 4), 2 * 24 * 4);
        let sim16 = OsGemmSimulator::new(arch()).with_psum_reg_bits(16);
        assert_eq!(sim16.psum_register_bytes(2, 3, 4), 2 * 24 * 2);
    }
}
