//! The Reconfigurable APSQ Engine: controller FSM + shifter/adder datapath
//! over four PSUM banks, bit-exact against the software golden model.

use crate::bank::PsumBank;
use crate::config::{RaeConfig, NUM_BANKS};
use apsq_core::ScaleSchedule;
use apsq_quant::{shift_dequantize, shift_quantize};
use apsq_tensor::Int32Tensor;

/// Per-step operation selected by the dynamic encoding `s2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaeOp {
    /// `s2 = 0`: quantize the incoming PSUM tile alone and store it.
    PsumQuant,
    /// `s2 = 1`: retrieve the group's stored tiles, dequantize, accumulate
    /// with the incoming tile, quantize, store.
    Apsq,
}

/// One controller decision, for verification and debugging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stream step index.
    pub step: usize,
    /// Operation performed.
    pub op: RaeOp,
    /// Banks read this step (in read order).
    pub banks_read: Vec<usize>,
    /// Bank written this step.
    pub bank_written: usize,
    /// Quantizer shift exponent used.
    pub exponent: u32,
}

/// Aggregate activity counters for one stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RaeStats {
    /// Pipeline cycles consumed (1 element/cycle throughput, plus fill
    /// latency per accumulating step).
    pub cycles: u64,
    /// Words read across all banks.
    pub bank_reads: u64,
    /// Words written across all banks.
    pub bank_writes: u64,
    /// 34-bit adder operations.
    pub adds: u64,
    /// Barrel-shifter operations (dequant + quant).
    pub shifts: u64,
}

/// Pipeline fill latency of an accumulating step: bank read, dequant
/// shift, two adder stages, quantize shift.
pub const APSQ_PIPELINE_DEPTH: u64 = 5;

/// Per-operation energy constants for the RAE datapath (28 nm-class, pJ).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RaeEnergyTable {
    /// One PSUM-bank byte access (small dedicated SRAM).
    pub bank_pj_per_access: f64,
    /// One 34-bit saturating add.
    pub add_pj: f64,
    /// One 32-bit barrel shift.
    pub shift_pj: f64,
}

impl RaeEnergyTable {
    /// Default 28 nm-class constants: a small dedicated bank access is far
    /// cheaper than a main-buffer access; adds and shifts are sub-pJ.
    pub fn default_28nm() -> Self {
        RaeEnergyTable {
            bank_pj_per_access: 1.2,
            add_pj: 0.1,
            shift_pj: 0.05,
        }
    }
}

impl Default for RaeEnergyTable {
    fn default() -> Self {
        Self::default_28nm()
    }
}

impl RaeStats {
    /// Total datapath energy for the recorded activity, in pJ.
    pub fn energy_pj(&self, table: &RaeEnergyTable) -> f64 {
        (self.bank_reads + self.bank_writes) as f64 * table.bank_pj_per_access
            + self.adds as f64 * table.add_pj
            + self.shifts as f64 * table.shift_pj
    }
}

/// The engine. Feed it a PSUM tile stream with [`RaeEngine::process_stream`];
/// it reproduces `apsq_core::grouped_apsq` bit-for-bit while modelling the
/// banked SRAM, the shifter-based scale arithmetic, and the two-stage adder
/// pipeline of Fig 2.
#[derive(Clone, Debug)]
pub struct RaeEngine {
    config: RaeConfig,
    banks: Vec<PsumBank>,
    stats: RaeStats,
    trace: Option<Vec<TraceEvent>>,
}

impl RaeEngine {
    /// Creates an engine.
    pub fn new(config: RaeConfig) -> Self {
        RaeEngine {
            config,
            banks: (0..NUM_BANKS)
                .map(|_| PsumBank::new(config.bank_words))
                .collect(),
            stats: RaeStats::default(),
            trace: None,
        }
    }

    /// Enables event tracing (cleared on [`Self::reset`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&[TraceEvent]> {
        self.trace.as_deref()
    }

    /// Activity counters.
    pub fn stats(&self) -> RaeStats {
        self.stats
    }

    /// The engine configuration.
    pub fn config(&self) -> &RaeConfig {
        &self.config
    }

    /// Clears banks, counters and trace.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.reset();
        }
        self.stats = RaeStats::default();
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }

    /// Bank index holding step `i`'s codes: round-robin over the group
    /// window (`i mod gs`), so any group's codes occupy distinct banks and
    /// can be retrieved simultaneously.
    fn bank_for_step(&self, step: usize) -> usize {
        step % self.config.group_size.get()
    }

    /// Processes one complete PSUM tile stream and returns the dequantized
    /// output tile `To`.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty or ragged, if a tile exceeds the bank
    /// depth, or if `schedule.len() != tiles.len()`.
    pub fn process_stream(
        &mut self,
        tiles: &[Int32Tensor],
        schedule: &ScaleSchedule,
    ) -> Int32Tensor {
        let np = tiles.len();
        assert!(np > 0, "RAE requires at least one PSUM tile");
        assert_eq!(schedule.len(), np, "schedule length mismatch");
        let numel = tiles[0].numel();
        assert!(
            tiles.iter().all(|t| t.shape() == tiles[0].shape()),
            "all PSUM tiles must share one shape"
        );
        assert!(
            numel <= self.config.bank_words,
            "tile of {numel} elements exceeds bank depth {}",
            self.config.bank_words
        );

        let gs = self.config.group_size.get();
        let range = self.config.bits.signed_range();
        let mut output: Option<Vec<i32>> = None;

        for (i, tile) in tiles.iter().enumerate() {
            let is_apsq_step = i % gs == 0;
            let is_final = i == np - 1;
            let exp = schedule.scale(i).exponent();
            let dst = self.bank_for_step(i);

            // The controller's s2 and the bank set to retrieve.
            let (op, read_steps): (RaeOp, Vec<usize>) = if is_apsq_step {
                if i == 0 {
                    (RaeOp::PsumQuant, vec![])
                } else {
                    (RaeOp::Apsq, (i - gs..i).collect())
                }
            } else if is_final {
                let group_start = (i / gs) * gs;
                (RaeOp::Apsq, (group_start..i).collect())
            } else {
                (RaeOp::PsumQuant, vec![])
            };

            let read_banks: Vec<usize> =
                read_steps.iter().map(|&s| self.bank_for_step(s)).collect();
            debug_assert!(
                {
                    let mut b = read_banks.clone();
                    b.sort_unstable();
                    b.dedup();
                    b.len() == read_banks.len()
                },
                "group codes must occupy distinct banks"
            );

            let mut out_codes: Vec<i8> = Vec::with_capacity(numel);
            for e in 0..numel {
                // Datapath per element: retrieve + dequant-shift each group
                // slot, fold through the adder tree, add the incoming PSUM,
                // quantize-shift, write back.
                let mut acc: i64 = 0;
                for (&s, &b) in read_steps.iter().zip(read_banks.iter()) {
                    let code = self.banks[b].read(e) as i32;
                    self.stats.bank_reads += 1;
                    let deq = shift_dequantize(code, schedule.scale(s).exponent());
                    self.stats.shifts += 1;
                    acc += deq as i64;
                    self.stats.adds += 1;
                }
                acc += tile.data()[e] as i64;
                if op == RaeOp::Apsq {
                    self.stats.adds += 1;
                }
                let sat = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                let code = shift_quantize(sat, exp, range);
                self.stats.shifts += 1;
                self.banks[dst].write(e, code as i8);
                self.stats.bank_writes += 1;
                out_codes.push(code as i8);
            }

            // Cycle accounting: 1 element/cycle, plus pipeline fill for
            // accumulating steps.
            self.stats.cycles += numel as u64
                + if op == RaeOp::Apsq {
                    APSQ_PIPELINE_DEPTH - 1
                } else {
                    0
                };

            if let Some(t) = &mut self.trace {
                t.push(TraceEvent {
                    step: i,
                    op,
                    banks_read: read_banks,
                    bank_written: dst,
                    exponent: exp,
                });
            }

            if is_final {
                let out: Vec<i32> = out_codes
                    .iter()
                    .map(|&c| shift_dequantize(c as i32, exp))
                    .collect();
                output = Some(out);
            }
        }

        Int32Tensor::from_vec(
            output.expect("final step always produces To"),
            tiles[0].shape().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsq_core::{grouped_apsq, grouped_apsq_reference, ApsqConfig, GroupSize};
    use apsq_quant::Bitwidth;

    fn stream(np: usize, numel: usize, seed: i32) -> Vec<Int32Tensor> {
        (0..np)
            .map(|i| {
                Int32Tensor::from_vec(
                    (0..numel)
                        .map(|j| {
                            let x = (i as i32 * 131 + j as i32 * 37 + seed) % 4001;
                            x - 2000
                        })
                        .collect(),
                    [numel],
                )
            })
            .collect()
    }

    #[test]
    fn bit_exact_vs_golden_all_group_sizes() {
        for gs in 1..=4 {
            let tiles = stream(10, 32, gs as i32);
            let sched = ScaleSchedule::calibrate(
                std::slice::from_ref(&tiles),
                Bitwidth::INT8,
                GroupSize::new(gs),
            );
            let golden = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(gs));
            let naive = grouped_apsq_reference(&tiles, Some(&sched), &ApsqConfig::int8(gs));
            let mut engine = RaeEngine::new(RaeConfig::int8(gs));
            let out = engine.process_stream(&tiles, &sched);
            assert_eq!(out, golden.output, "gs={gs}");
            assert_eq!(out, naive.output, "gs={gs} vs the naive oracle");
        }
    }

    #[test]
    fn bank_traffic_matches_golden_traffic() {
        for gs in 1..=4 {
            let tiles = stream(9, 16, 7);
            let sched = ScaleSchedule::calibrate(
                std::slice::from_ref(&tiles),
                Bitwidth::INT8,
                GroupSize::new(gs),
            );
            let golden = grouped_apsq(&tiles, &sched, &ApsqConfig::int8(gs));
            let mut engine = RaeEngine::new(RaeConfig::int8(gs));
            engine.process_stream(&tiles, &sched);
            let s = engine.stats();
            assert_eq!(s.bank_reads, golden.traffic.reads, "gs={gs}");
            assert_eq!(s.bank_writes, golden.traffic.writes, "gs={gs}");
        }
    }

    #[test]
    fn trace_records_controller_sequence_gs4() {
        let tiles = stream(8, 4, 1);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            GroupSize::new(4),
        );
        let mut engine = RaeEngine::new(RaeConfig::int8(4));
        engine.enable_trace();
        engine.process_stream(&tiles, &sched);
        let trace = engine.trace().unwrap();
        assert_eq!(trace.len(), 8);
        // Step 0: first tile — plain quantization, no reads.
        assert_eq!(trace[0].op, RaeOp::PsumQuant);
        assert!(trace[0].banks_read.is_empty());
        // Steps 1..3: in-group PSQ.
        for t in &trace[1..4] {
            assert_eq!(t.op, RaeOp::PsumQuant);
        }
        // Step 4: APSQ reads all four banks simultaneously (s2 toggles).
        assert_eq!(trace[4].op, RaeOp::Apsq);
        assert_eq!(trace[4].banks_read.len(), 4);
        // Step 7 is the final tile mid-group: reads the stored prefix.
        assert_eq!(trace[7].op, RaeOp::Apsq);
        assert_eq!(trace[7].banks_read.len(), 3);
    }

    #[test]
    fn gs1_always_rereads_previous_bank() {
        let tiles = stream(5, 4, 2);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            GroupSize::new(1),
        );
        let mut engine = RaeEngine::new(RaeConfig::int8(1));
        engine.enable_trace();
        engine.process_stream(&tiles, &sched);
        for t in engine.trace().unwrap().iter().skip(1) {
            assert_eq!(t.banks_read, vec![0], "gs=1 always uses bank 0");
            assert_eq!(t.bank_written, 0);
        }
    }

    #[test]
    fn cycles_account_pipeline_fill() {
        let tiles = stream(4, 10, 3);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            GroupSize::new(2),
        );
        let mut engine = RaeEngine::new(RaeConfig::int8(2));
        engine.process_stream(&tiles, &sched);
        // Steps: 0 PSQ, 1 PSQ(wait: 1 % 2 == 1 and not final → PSQ),
        // 2 APSQ, 3 final APSQ ⇒ 4·10 + 2·(depth−1).
        assert_eq!(engine.stats().cycles, 40 + 2 * (APSQ_PIPELINE_DEPTH - 1));
    }

    #[test]
    fn energy_accounting_favours_rae_over_int32_buffer_traffic() {
        // The co-design argument in one number: the RAE's INT8 bank
        // traffic plus datapath ops costs less than the INT32 main-buffer
        // traffic it replaces (4 bytes × ~6 pJ/byte per access).
        let tiles = stream(12, 64, 5);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            GroupSize::new(2),
        );
        let mut engine = RaeEngine::new(RaeConfig::int8(2));
        engine.process_stream(&tiles, &sched);
        let s = engine.stats();
        let rae_pj = s.energy_pj(&RaeEnergyTable::default_28nm());
        // Equivalent INT32 path: same logical accesses at 4 B × 6 pJ/B.
        let int32_pj = (s.bank_reads + s.bank_writes) as f64 * 4.0 * 6.0;
        assert!(
            rae_pj < 0.25 * int32_pj,
            "RAE {rae_pj:.0} pJ vs INT32 buffer {int32_pj:.0} pJ"
        );
    }

    #[test]
    fn energy_pj_formula() {
        let s = RaeStats {
            cycles: 0,
            bank_reads: 10,
            bank_writes: 5,
            adds: 8,
            shifts: 4,
        };
        let t = RaeEnergyTable {
            bank_pj_per_access: 1.0,
            add_pj: 0.5,
            shift_pj: 0.25,
        };
        assert_eq!(s.energy_pj(&t), 15.0 + 4.0 + 1.0);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let tiles = stream(4, 8, 4);
        let sched = ScaleSchedule::calibrate(
            std::slice::from_ref(&tiles),
            Bitwidth::INT8,
            GroupSize::new(2),
        );
        let mut engine = RaeEngine::new(RaeConfig::int8(2));
        let a = engine.process_stream(&tiles, &sched);
        engine.reset();
        let b = engine.process_stream(&tiles, &sched);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds bank depth")]
    fn oversize_tile_rejected() {
        let tiles = vec![Int32Tensor::zeros([10_000])];
        let sched = ScaleSchedule::uniform(1, 0, Bitwidth::INT8);
        RaeEngine::new(RaeConfig::int8(1)).process_stream(&tiles, &sched);
    }
}
