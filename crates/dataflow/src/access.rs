//! Per-layer access-count models — the paper's equations (3)–(6) plus an
//! OS model derived from ref [16].
//!
//! All counts are *per-element access multiplicities* `N` multiplied out
//! into byte totals per eq (2):
//!
//! ```text
//! N_d/s = Si·N^i + Sw·N^w + β·So·N^p + So·N^o
//! ```
//!
//! Conventions (where the paper's text is ambiguous, each reading below is
//! the one that reproduces its figures):
//!
//! - "fits" means `working set ≤ capacity` (boundary-inclusive); this is
//!   required to reproduce Fig 6b, where Segformer-B0 at `gs = 2` still
//!   avoids spilling a 256 KB PSUM working set into DRAM.
//! - IS checks the **full** weight size `Sw` against `Bw` (eq 3); WS checks
//!   the **tile** input size `S̃i` against `Bi` (eq 5) — the asymmetry is
//!   in the paper and is what differentiates the Fig 1 energy shares.
//! - Input-pixel passes for IS use the flattened form
//!   `⌈Hi·Wi / Po⌉` (≡ `⌈Hi/Pih⌉·⌈Wi/Piw⌉` with `Piw = 1`).

use crate::arch::AcceleratorConfig;
use crate::dataflow::Dataflow;
use crate::layer::LayerShape;
use crate::psum::PsumFormat;

/// SRAM/DRAM byte traffic attributed to one tensor of a layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TensorAccess {
    /// Bytes moved to/from on-chip SRAM.
    pub sram_bytes: f64,
    /// Bytes moved to/from off-chip DRAM.
    pub dram_bytes: f64,
}

impl TensorAccess {
    fn new(sram_bytes: f64, dram_bytes: f64) -> Self {
        TensorAccess {
            sram_bytes,
            dram_bytes,
        }
    }

    /// Total bytes across both levels.
    pub fn total_bytes(&self) -> f64 {
        self.sram_bytes + self.dram_bytes
    }
}

/// Complete access/compute inventory for one layer instance under one
/// dataflow.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AccessCounts {
    /// Ifmap traffic.
    pub ifmap: TensorAccess,
    /// Weight traffic.
    pub weight: TensorAccess,
    /// PSUM traffic (already scaled by β).
    pub psum: TensorAccess,
    /// Ofmap traffic.
    pub ofmap: TensorAccess,
    /// PSUM register-file bytes (OS only: accumulation happens in PE
    /// registers, 2 accesses per MAC at the PSUM width).
    pub psum_reg_bytes: f64,
    /// MAC operations.
    pub macs: f64,
}

impl AccessCounts {
    /// Sum of all SRAM bytes.
    pub fn sram_bytes(&self) -> f64 {
        self.ifmap.sram_bytes
            + self.weight.sram_bytes
            + self.psum.sram_bytes
            + self.ofmap.sram_bytes
    }

    /// Sum of all DRAM bytes.
    pub fn dram_bytes(&self) -> f64 {
        self.ifmap.dram_bytes
            + self.weight.dram_bytes
            + self.psum.dram_bytes
            + self.ofmap.dram_bytes
    }

    /// Adds another layer's counts (used to fold a workload).
    pub fn accumulate(&mut self, other: &AccessCounts, times: f64) {
        let add = |a: &mut TensorAccess, b: &TensorAccess| {
            a.sram_bytes += b.sram_bytes * times;
            a.dram_bytes += b.dram_bytes * times;
        };
        add(&mut self.ifmap, &other.ifmap);
        add(&mut self.weight, &other.weight);
        add(&mut self.psum, &other.psum);
        add(&mut self.ofmap, &other.ofmap);
        self.psum_reg_bytes += other.psum_reg_bytes * times;
        self.macs += other.macs * times;
    }
}

/// Evaluates the access-count model for one layer instance.
///
/// # Panics
///
/// Panics if the accelerator configuration contains a zero field.
pub fn access_counts(
    layer: &LayerShape,
    arch: &AcceleratorConfig,
    dataflow: Dataflow,
    psum: &PsumFormat,
) -> AccessCounts {
    arch.validate();
    match dataflow {
        Dataflow::InputStationary => is_counts(layer, arch, psum),
        Dataflow::WeightStationary => ws_counts(layer, arch, psum),
        Dataflow::OutputStationary => os_counts(layer, arch, psum),
    }
}

fn ceil_div(a: usize, b: usize) -> f64 {
    a.div_ceil(b) as f64
}

/// Input Stationary — eq (3) for SRAM, eq (4) for DRAM.
fn is_counts(layer: &LayerShape, arch: &AcceleratorConfig, psum: &PsumFormat) -> AccessCounts {
    let si = layer.si_bytes();
    let sw = layer.sw_bytes();
    let so = layer.so_bytes();
    let beta = psum.beta();
    let np = layer.ci.div_ceil(arch.pci) as f64;

    // Input-pixel passes: the stationary tile covers Po pixels of the
    // enlarged ifmap.
    let passes = ceil_div(layer.hi() * layer.wi(), arch.po);

    // Weight residency: eq (3)/(4) check the full weight size against Bw.
    let w_fits = sw <= arch.weight_buffer_bytes as f64;
    let n_w_s = if w_fits { 1.0 + passes } else { 2.0 * passes };
    let n_w_d = if w_fits { 1.0 } else { passes };

    // PSUM working set: (Co/Pco)·S̃p = slots·bits/8 · Po · Co bytes.
    let psum_ws = psum.working_set_bytes_per_element() * (arch.po * layer.co) as f64;
    let p_fits = psum_ws <= arch.ofmap_buffer_bytes as f64;
    let n_p_s = if p_fits {
        2.0 * (np - 1.0)
    } else {
        4.0 * (np - 1.0)
    };
    let n_p_d = if p_fits { 0.0 } else { 2.0 * (np - 1.0) };

    AccessCounts {
        ifmap: TensorAccess::new(si * 2.0, si),
        weight: TensorAccess::new(sw * n_w_s, sw * n_w_d),
        psum: TensorAccess::new(beta * so * n_p_s, beta * so * n_p_d),
        ofmap: TensorAccess::new(so * 2.0, so),
        psum_reg_bytes: 0.0,
        macs: layer.macs(),
    }
}

/// Weight Stationary — eq (5) for SRAM, eq (6) for DRAM.
fn ws_counts(layer: &LayerShape, arch: &AcceleratorConfig, psum: &PsumFormat) -> AccessCounts {
    let si = layer.si_bytes();
    let sw = layer.sw_bytes();
    let so = layer.so_bytes();
    let beta = psum.beta();
    let np = layer.ci.div_ceil(arch.pci) as f64;
    let co_passes = ceil_div(layer.co, arch.pco);

    // Input-tile residency: eq (5) checks the *tile* S̃i — the receptive
    // field of Po output pixels across all Ci — against Bi.
    let si_tile = (layer.ci * ((arch.po - 1) * layer.stride + layer.kh) * layer.kw) as f64;
    let i_fits = si_tile <= arch.ifmap_buffer_bytes as f64;
    let n_i_s = if i_fits {
        1.0 + co_passes
    } else {
        2.0 * co_passes
    };
    let n_i_d = if i_fits { 1.0 } else { co_passes };

    // PSUM working set: (Ho·Wo/Po)·S̃p = slots·bits/8 · Ho·Wo · Pco bytes.
    let psum_ws = psum.working_set_bytes_per_element() * (layer.output_pixels() * arch.pco) as f64;
    let p_fits = psum_ws <= arch.ofmap_buffer_bytes as f64;
    let n_p_s = if p_fits {
        2.0 * (np - 1.0)
    } else {
        4.0 * (np - 1.0)
    };
    let n_p_d = if p_fits { 0.0 } else { 2.0 * (np - 1.0) };

    AccessCounts {
        ifmap: TensorAccess::new(si * n_i_s, si * n_i_d),
        weight: TensorAccess::new(sw * 2.0, sw),
        psum: TensorAccess::new(beta * so * n_p_s, beta * so * n_p_d),
        ofmap: TensorAccess::new(so * 2.0, so),
        psum_reg_bytes: 0.0,
        macs: layer.macs(),
    }
}

/// Output Stationary — derived from ref [16]: PSUMs live in PE registers
/// (no SRAM/DRAM PSUM traffic), at the price of re-streaming the ifmap once
/// per output-channel pass and the weights once per output-pixel pass.
fn os_counts(layer: &LayerShape, arch: &AcceleratorConfig, psum: &PsumFormat) -> AccessCounts {
    let si = layer.si_bytes();
    let sw = layer.sw_bytes();
    let so = layer.so_bytes();
    let co_passes = ceil_div(layer.co, arch.pco);
    let px_passes = ceil_div(layer.output_pixels(), arch.po);

    let i_fits = si <= arch.ifmap_buffer_bytes as f64;
    let n_i_s = if i_fits {
        1.0 + co_passes
    } else {
        2.0 * co_passes
    };
    let n_i_d = if i_fits { 1.0 } else { co_passes };

    let w_fits = sw <= arch.weight_buffer_bytes as f64;
    let n_w_s = if w_fits {
        1.0 + px_passes
    } else {
        2.0 * px_passes
    };
    let n_w_d = if w_fits { 1.0 } else { px_passes };

    // Each MAC updates a PSUM register (read + write) at the PSUM width.
    let psum_reg_bytes = 2.0 * layer.macs() * psum.beta();

    AccessCounts {
        ifmap: TensorAccess::new(si * n_i_s, si * n_i_d),
        weight: TensorAccess::new(sw * n_w_s, sw * n_w_d),
        psum: TensorAccess::default(),
        ofmap: TensorAccess::new(so * 2.0, so),
        psum_reg_bytes,
        macs: layer.macs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert_ffn1() -> LayerShape {
        LayerShape::gemm("ffn1", 128, 768, 3072)
    }

    #[test]
    fn ws_bert_ffn1_matches_hand_calculation() {
        let arch = AcceleratorConfig::transformer();
        let c = access_counts(
            &bert_ffn1(),
            &arch,
            Dataflow::WeightStationary,
            &PsumFormat::int32_baseline(),
        );
        // np = 768/8 = 96; PSUM ws = 4·128·8 = 4 KB fits ⇒ N_p_s = 2·95.
        let so = 128.0 * 3072.0;
        assert_eq!(c.psum.sram_bytes, 4.0 * so * 190.0);
        assert_eq!(c.psum.dram_bytes, 0.0);
        // Tile S̃i = 768·16 = 12 KB fits ⇒ N_i_s = 1 + 384.
        let si = 128.0 * 768.0;
        assert_eq!(c.ifmap.sram_bytes, si * 385.0);
        assert_eq!(c.ifmap.dram_bytes, si);
        // Weights move twice through SRAM, once from DRAM.
        let sw = 768.0 * 3072.0;
        assert_eq!(c.weight.sram_bytes, sw * 2.0);
        assert_eq!(c.weight.dram_bytes, sw);
        assert_eq!(c.macs, 128.0 * 768.0 * 3072.0);
    }

    #[test]
    fn is_bert_ffn1_weight_spill() {
        let arch = AcceleratorConfig::transformer();
        let c = access_counts(
            &bert_ffn1(),
            &arch,
            Dataflow::InputStationary,
            &PsumFormat::int32_baseline(),
        );
        // Sw = 2.36 MB ≥ 128 KB ⇒ weights re-fetched per pixel pass
        // (128/16 = 8 passes).
        let sw = 768.0 * 3072.0;
        assert_eq!(c.weight.dram_bytes, sw * 8.0);
        assert_eq!(c.weight.sram_bytes, sw * 16.0);
        // Ifmap touched exactly twice in SRAM, once from DRAM.
        let si = 128.0 * 768.0;
        assert_eq!(c.ifmap.sram_bytes, si * 2.0);
        // PSUM ws = 4·16·3072 = 192 KB ≤ 256 KB ⇒ on-chip.
        assert_eq!(c.psum.dram_bytes, 0.0);
        assert_eq!(c.psum.sram_bytes, 4.0 * 128.0 * 3072.0 * 190.0);
    }

    #[test]
    fn os_has_no_psum_memory_traffic() {
        let arch = AcceleratorConfig::transformer();
        let c = access_counts(
            &bert_ffn1(),
            &arch,
            Dataflow::OutputStationary,
            &PsumFormat::int32_baseline(),
        );
        assert_eq!(c.psum.sram_bytes, 0.0);
        assert_eq!(c.psum.dram_bytes, 0.0);
        assert!(c.psum_reg_bytes > 0.0);
    }

    #[test]
    fn apsq_int8_cuts_psum_traffic_4x() {
        let arch = AcceleratorConfig::transformer();
        let base = access_counts(
            &bert_ffn1(),
            &arch,
            Dataflow::WeightStationary,
            &PsumFormat::int32_baseline(),
        );
        for gs in 1..=4 {
            let apsq = access_counts(
                &bert_ffn1(),
                &arch,
                Dataflow::WeightStationary,
                &PsumFormat::apsq_int8(gs),
            );
            assert_eq!(apsq.psum.sram_bytes * 4.0, base.psum.sram_bytes, "gs={gs}");
        }
    }

    #[test]
    fn large_token_count_spills_psums_at_high_gs() {
        // Segformer-like: 16384 tokens. ws = gs·16384·8 bytes.
        let arch = AcceleratorConfig::transformer();
        let layer = LayerShape::gemm("seg_ffn", 16384, 32, 128);
        // Baseline INT32: ws = 4·16384·8 = 512 KB > 256 KB ⇒ spills.
        let base = access_counts(
            &layer,
            &arch,
            Dataflow::WeightStationary,
            &PsumFormat::int32_baseline(),
        );
        assert!(base.psum.dram_bytes > 0.0);
        // INT8 gs = 2: ws = 2·16384·8 = 256 KB ⇒ exactly fits (≤).
        let gs2 = access_counts(
            &layer,
            &arch,
            Dataflow::WeightStationary,
            &PsumFormat::apsq_int8(2),
        );
        assert_eq!(gs2.psum.dram_bytes, 0.0);
        // INT8 gs = 3: ws = 384 KB ⇒ spills again.
        let gs3 = access_counts(
            &layer,
            &arch,
            Dataflow::WeightStationary,
            &PsumFormat::apsq_int8(3),
        );
        assert!(gs3.psum.dram_bytes > 0.0);
    }

    #[test]
    fn accumulate_with_repeat() {
        let arch = AcceleratorConfig::transformer();
        let c = access_counts(
            &bert_ffn1(),
            &arch,
            Dataflow::WeightStationary,
            &PsumFormat::int32_baseline(),
        );
        let mut total = AccessCounts::default();
        total.accumulate(&c, 12.0);
        assert_eq!(total.macs, c.macs * 12.0);
        assert_eq!(total.psum.sram_bytes, c.psum.sram_bytes * 12.0);
    }
}
