//! Executing workload inventories as real integer GEMMs/convs through the
//! [`ExecEngine`] — turning the static layer geometry of each model into
//! measurable compute.
//!
//! The analytical framework prices a [`Workload`] from shape arithmetic
//! alone; this module actually *runs* each layer: GEMM layers as
//! `[tokens, Ci] × [Ci, Co]` INT8 matmuls, spatial convolutions through
//! im2col + GEMM, all dispatched on a caller-supplied engine. Because the
//! engine is bit-identical across thread counts, a workload's output
//! checksum is a determinism probe for the whole multi-threaded stack.
//!
//! Paper-scale layers (LLaMA2-7B FFNs) are far too large to execute per
//! test, so the runner scales a layer's *parallel* extents (tokens /
//! output channels / spatial size) down to a MAC budget while always
//! preserving the reduction depth `Ci·Kh·Kw` — the dimension APSQ tiles —
//! so PSUM streams stay representative.

use apsq_core::{ApsqConfig, BufferTraffic, StreamingApsq};
use apsq_dataflow::{LayerShape, Workload};
use apsq_tensor::{pack_k_pairs, ExecEngine, Gemm, Int8Tensor, Layout, Tensor};

/// The numeric datapath a workload executes on — the serving layer's
/// precision switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// f32 GEMMs/convs through the engine (the fake-quant reference
    /// regime).
    #[default]
    F32,
    /// i8×i8→i32 GEMMs with grouped APSQ folded into the K loop (the
    /// paper's integer datapath); spatial convolutions run exact int8
    /// through im2col + GEMM.
    Int8Apsq,
}

impl Precision {
    /// Display name used in configs, payload labels, and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8Apsq => "int8_apsq",
        }
    }

    /// Bytes one stored decode token occupies in KV blocks of this
    /// precision, per layer: f32 blocks store `2·d` floats, int8 blocks
    /// `2·d` codes plus `2·heads` per-(token, head) power-of-two scale
    /// exponents (`apsq_nn::BlockAllocator::int8`). The serve layer's KV
    /// byte budget divides by this to size resident sessions.
    pub fn kv_bytes_per_token(&self, width: usize, heads: usize) -> usize {
        match self {
            Precision::F32 => 2 * width * std::mem::size_of::<f32>(),
            Precision::Int8Apsq => 2 * (width + heads),
        }
    }
}

/// APSQ group size used when executing inventory GEMMs at
/// [`Precision::Int8Apsq`] (the paper's headline `gs` range midpoint).
const APSQ_GS: usize = 2;

/// Result of executing one layer instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerRun {
    /// Layer name from the inventory.
    pub name: String,
    /// Instances of this layer in the network (not executed repeatedly).
    pub repeat: usize,
    /// MACs actually executed (after any budget scaling).
    pub macs_executed: u64,
    /// MACs one full-size instance would take.
    pub macs_full: u64,
    /// Wrapping fold of the output bits — a determinism probe that any
    /// kernel or threading bug perturbs.
    pub checksum: i64,
    /// PSUM-buffer traffic (stored words) the APSQ fold incurred — zero
    /// for f32 and for the exact conv path, whose accumulators stay in
    /// registers here.
    pub psum_traffic: BufferTraffic,
}

/// Result of executing a whole workload inventory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Workload display name.
    pub workload: String,
    /// Per-layer results, in inventory order.
    pub layers: Vec<LayerRun>,
}

impl WorkloadRun {
    /// Total MACs executed across all layers (each distinct layer once).
    pub fn total_macs_executed(&self) -> u64 {
        self.layers.iter().map(|l| l.macs_executed).sum()
    }

    /// Total PSUM-buffer traffic (stored words) across all layers.
    pub fn total_psum_traffic(&self) -> BufferTraffic {
        let mut t = BufferTraffic::new();
        for l in &self.layers {
            t += l.psum_traffic;
        }
        t
    }

    /// Combined checksum over all layer outputs.
    pub fn checksum(&self) -> i64 {
        self.layers
            .iter()
            .fold(0i64, |acc, l| acc.wrapping_mul(31).wrapping_add(l.checksum))
    }
}

/// Executes one layer through the engine at the given [`Precision`],
/// scaled to at most `max_macs` multiply-accumulates (0 means
/// unlimited). Scaling halves the parallel extents (tokens / spatial
/// output / output channels) and never the reduction depth.
///
/// At [`Precision::Int8Apsq`], GEMM layers fold grouped APSQ into the
/// K loop (schedule calibrated from the layer's own PSUM stream, tile
/// depth 64 input channels) and report the fold's buffer traffic;
/// spatial convolutions run exact int8 through im2col + GEMM.
///
/// # Panics
///
/// Panics if the layer geometry is degenerate (zero extents are already
/// rejected by [`LayerShape`]'s constructors).
pub fn execute_layer(
    eng: &ExecEngine,
    layer: &LayerShape,
    max_macs: u64,
    precision: Precision,
) -> LayerRun {
    let macs_full = layer.macs() as u64;
    let is_gemm = layer.kh == 1 && layer.kw == 1 && layer.stride == 1;
    let mut psum_traffic = BufferTraffic::new();
    let (checksum, macs_executed) = if is_gemm {
        let mut tokens = layer.ho * layer.wo;
        let mut co = layer.co;
        let ci = layer.ci;
        while max_macs > 0 && (tokens * ci * co) as u64 > max_macs && (tokens > 1 || co > 1) {
            if tokens >= co {
                tokens = (tokens / 2).max(1);
            } else {
                co = (co / 2).max(1);
            }
        }
        let checksum = match precision {
            Precision::F32 => {
                let a = Tensor::from_vec(synthetic_f32(tokens * ci, 0x5eed), [tokens, ci]);
                let b = Tensor::from_vec(synthetic_f32(ci * co, 0xca1f), [ci, co]);
                wrapping_bits_sum(eng.matmul(&a, &b).data())
            }
            Precision::Int8Apsq => {
                let a = synthetic_i8(tokens * ci, 0x5eed).reshape2(tokens, ci);
                let b = synthetic_i8(ci * co, 0xca1f).reshape2(ci, co);
                let k_tile = ci.min(64);
                // One GEMM pass folds each k-tile the moment it lands; the
                // stream commits each step's scale from the accumulator it
                // quantizes, so no tile is collected first. The weight is
                // packed once into the k-pair panels of the i8 kernel.
                let panels = pack_k_pairs(b.data(), ci, co);
                let g = Gemm::dense(Layout::NP, a.data(), a.dims(), &panels, b.dims());
                let mut stream =
                    StreamingApsq::calibrating(ci.div_ceil(k_tile), ApsqConfig::int8(APSQ_GS));
                eng.gemm_k_tiles(&g, k_tile, |_, tile| stream.push_ref(tile));
                let run = stream.finish();
                psum_traffic = run.traffic;
                wrapping_sum(run.output.data())
            }
        };
        (checksum, (tokens * ci * co) as u64)
    } else {
        assert_eq!(
            layer.kh, layer.kw,
            "execute_layer runs conv layers through the square-kernel im2col GEMM path"
        );
        let (mut ho, mut wo, mut co) = (layer.ho, layer.wo, layer.co);
        let k = layer.kh;
        let (ci, stride) = (layer.ci, layer.stride);
        let macs = |ho: usize, wo: usize, co: usize| (ho * wo * co * ci * k * k) as u64;
        while max_macs > 0 && macs(ho, wo, co) > max_macs && (ho > 1 || wo > 1 || co > 1) {
            if ho * wo >= co {
                ho = (ho / 2).max(1);
                wo = (wo / 2).max(1);
            } else {
                co = (co / 2).max(1);
            }
        }
        let hi = (ho - 1) * stride + k;
        let wi = (wo - 1) * stride + k;
        let checksum = match precision {
            Precision::F32 => {
                let input = Tensor::from_vec(synthetic_f32(ci * hi * wi, 0x5eed), [ci, hi, wi]);
                let cols = ci * k * k;
                // Weights generated [Co, Ci·K·K] row-major — exactly the
                // transposed-B layout matmul_bt consumes.
                let wmat = Tensor::from_vec(synthetic_f32(co * cols, 0xca1f), [co, cols]);
                let lowered = eng.im2col(&input, k, stride);
                wrapping_bits_sum(eng.matmul_bt(&lowered, &wmat).data())
            }
            Precision::Int8Apsq => {
                let input =
                    Int8Tensor::from_vec(synthetic_i8(ci * hi * wi, 0x5eed).data, [ci, hi, wi]);
                let weight = Int8Tensor::from_vec(
                    synthetic_i8(co * ci * k * k, 0xca1f).data,
                    [co, ci, k, k],
                );
                wrapping_sum(eng.conv2d_i8_gemm(&input, &weight, stride).data())
            }
        };
        (checksum, macs(ho, wo, co))
    };
    LayerRun {
        name: layer.name.clone(),
        repeat: layer.repeat,
        macs_executed,
        macs_full,
        checksum,
        psum_traffic,
    }
}

/// Executes every layer of a workload inventory through the engine (each
/// distinct layer once; `repeat` is carried as metadata). `max_macs_per_layer`
/// bounds the executed size per layer (0 = unlimited).
pub fn execute_workload(
    eng: &ExecEngine,
    w: &Workload,
    max_macs_per_layer: u64,
    precision: Precision,
) -> WorkloadRun {
    WorkloadRun {
        workload: w.name.clone(),
        layers: w
            .layers
            .iter()
            .map(|l| execute_layer(eng, l, max_macs_per_layer, precision))
            .collect(),
    }
}

/// Executes a coalesced batch of workload instances back-to-back on one
/// engine context — the serving-layer entry point for a prefill batch.
/// Each `(workload, max_macs_per_layer)` pair runs exactly as
/// [`execute_workload`] would alone, so results are independent of how
/// requests were grouped; coalescing amortizes the per-dispatch cost of
/// waking an executor.
pub fn execute_workloads(
    eng: &ExecEngine,
    batch: &[(&Workload, u64)],
    precision: Precision,
) -> Vec<WorkloadRun> {
    batch
        .iter()
        .map(|(w, budget)| execute_workload(eng, w, *budget, precision))
        .collect()
}

struct SyntheticVec {
    data: Vec<i8>,
}

impl SyntheticVec {
    fn reshape2(self, m: usize, n: usize) -> Int8Tensor {
        Int8Tensor::from_vec(self.data, [m, n])
    }
}

/// Deterministic pseudo-random i8 fill (xorshift-mixed index), independent
/// of any RNG crate so workload checksums are stable across the workspace.
fn synthetic_i8(n: usize, salt: u64) -> SyntheticVec {
    let data = (0..n)
        .map(|i| {
            let mut x = (i as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9e3779b97f4a7c15);
            x ^= x >> 29;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 32;
            (x % 255) as i8
        })
        .collect();
    SyntheticVec { data }
}

/// The same deterministic fill as [`synthetic_i8`], scaled by 2⁻⁴ into a
/// small exact-in-f32 range — f32 and int8 runs see "the same" data.
fn synthetic_f32(n: usize, salt: u64) -> Vec<f32> {
    synthetic_i8(n, salt)
        .data
        .iter()
        .map(|&v| v as f32 * 0.0625)
        .collect()
}

fn wrapping_sum(vals: &[i32]) -> i64 {
    vals.iter().fold(0i64, |acc, &v| acc.wrapping_add(v as i64))
}

/// Determinism probe for f32 outputs: folds the raw bit patterns, so a
/// single ULP of drift anywhere changes the checksum.
fn wrapping_bits_sum(vals: &[f32]) -> i64 {
    vals.iter()
        .fold(0i64, |acc, &v| acc.wrapping_add(v.to_bits() as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bert::{bert_workload, BertConfig};

    fn tiny_bert() -> Workload {
        bert_workload(&BertConfig {
            hidden: 32,
            layers: 1,
            heads: 2,
            ffn: 64,
            tokens: 16,
        })
    }

    #[test]
    fn kv_bytes_per_token_compresses_4x_at_serving_shapes() {
        assert_eq!(Precision::F32.kv_bytes_per_token(128, 4), 1024);
        assert_eq!(Precision::Int8Apsq.kv_bytes_per_token(128, 4), 264);
        // head_dim 64: the per-head scale exponents amortize below the
        // 3.9× acceptance floor's slack.
        let f32_b = Precision::F32.kv_bytes_per_token(256, 4) as f64;
        let i8_b = Precision::Int8Apsq.kv_bytes_per_token(256, 4) as f64;
        assert!(f32_b / i8_b >= 3.9, "{}", f32_b / i8_b);
    }

    #[test]
    fn workload_executes_and_is_deterministic_across_threads() {
        let w = tiny_bert();
        for precision in [Precision::F32, Precision::Int8Apsq] {
            let serial = execute_workload(&ExecEngine::serial(), &w, 0, precision);
            let parallel = execute_workload(
                &ExecEngine::with_threads(4).with_spawn_threshold(0),
                &w,
                0,
                precision,
            );
            assert_eq!(
                serial,
                parallel,
                "threading changed {} results",
                precision.name()
            );
            assert_eq!(serial.layers.len(), w.layers.len());
            assert!(serial.total_macs_executed() > 0);
            // Unscaled runs execute exactly the inventory's MACs per instance.
            for (run, layer) in serial.layers.iter().zip(&w.layers) {
                assert_eq!(run.macs_executed, layer.macs() as u64, "{}", run.name);
                assert_eq!(run.repeat, layer.repeat);
            }
        }
    }

    #[test]
    fn precisions_diverge_but_each_is_self_consistent() {
        let w = tiny_bert();
        let eng = ExecEngine::serial();
        let f = execute_workload(&eng, &w, 0, Precision::F32);
        let q = execute_workload(&eng, &w, 0, Precision::Int8Apsq);
        assert_ne!(f.checksum(), q.checksum(), "precisions cannot share bits");
        // Only the integer path touches the PSUM buffer.
        assert_eq!(f.total_psum_traffic().total(), 0);
        assert!(q.total_psum_traffic().writes > 0);
        // A paper-depth reduction (768 > the 64-channel tile) streams
        // multiple PSUM tiles: np writes, np−1 reads per element.
        let deep = LayerShape::gemm("ffn1", 8, 768, 16);
        let run = execute_layer(&eng, &deep, 0, Precision::Int8Apsq);
        let np = 768u64.div_ceil(64);
        assert_eq!(run.psum_traffic.writes, np * 8 * 16);
        assert_eq!(run.psum_traffic.reads, (np - 1) * 8 * 16);
    }

    #[test]
    fn mac_budget_scales_parallel_extents_only() {
        let layer = LayerShape::gemm("ffn1", 128, 768, 3072);
        let run = execute_layer(
            &ExecEngine::serial(),
            &layer,
            1_000_000,
            Precision::Int8Apsq,
        );
        assert!(run.macs_executed <= 1_000_000, "{}", run.macs_executed);
        // The reduction depth must survive scaling: executed MACs stay a
        // multiple of Ci.
        assert_eq!(run.macs_executed % 768, 0);
        assert_eq!(run.macs_full, 128 * 768 * 3072);
    }

    #[test]
    fn conv_layers_run_through_im2col_gemm() {
        let layer = LayerShape::conv("stem", 8, 8, 3, 16, 3, 2);
        for precision in [Precision::F32, Precision::Int8Apsq] {
            let a = execute_layer(&ExecEngine::serial(), &layer, 0, precision);
            let b = execute_layer(
                &ExecEngine::with_threads(3).with_spawn_threshold(0),
                &layer,
                0,
                precision,
            );
            assert_eq!(a, b);
            assert_eq!(a.macs_executed, (8 * 8 * 16 * 3 * 3 * 3) as u64);
        }
    }

    #[test]
    fn coalesced_batch_matches_individual_runs() {
        let w1 = tiny_bert();
        let w2 = tiny_bert();
        let eng = ExecEngine::serial();
        let p = Precision::Int8Apsq;
        let batched = execute_workloads(&eng, &[(&w1, 0), (&w2, 50_000)], p);
        assert_eq!(batched[0], execute_workload(&eng, &w1, 0, p));
        assert_eq!(batched[1], execute_workload(&eng, &w2, 50_000, p));
    }

    #[test]
    fn paper_models_execute_under_budget() {
        for w in [
            crate::bert_base_128(),
            crate::segformer_b0_512(),
            crate::efficientvit_b1_512(),
        ] {
            let run = execute_workload(&ExecEngine::serial(), &w, 200_000, Precision::Int8Apsq);
            assert_eq!(run.layers.len(), w.layers.len(), "{}", w.name);
            assert!(run.layers.iter().all(|l| l.macs_executed > 0));
        }
    }
}
