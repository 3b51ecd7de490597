//! Additive Partial Sum Quantization (APSQ) — the paper's core algorithm.
//!
//! DNN accelerators with input- or weight-stationary dataflows repeatedly
//! store and re-fetch high-precision (INT32) partial sums. APSQ (paper
//! eq 10) folds the accumulation into the quantizer so every stored
//! additive partial sum fits in INT8:
//!
//! ```text
//! AP_i = Qᵢ(Tp_i + α_{i−1} · AP_{i−1}),   AP_0 = Q₀(Tp_0)
//! ```
//!
//! Because requantizing the running sum at every step compounds rounding
//! error, the paper's *grouping strategy* (Algorithm 1) applies APSQ once
//! per group of `gs` tiles and plain PSUM quantization to the rest — same
//! buffer traffic, less error. This crate implements:
//!
//! - [`grouped_apsq`] — Algorithm 1 in the exact integer domain (the golden
//!   model the RAE hardware simulator must match bit-for-bit), with
//!   [`BufferTraffic`] accounting;
//! - [`apsq_recursion_reference`] — an independent eq (10) implementation
//!   for cross-checking `gs = 1`;
//! - [`grouped_apsq_f32`] — the float fake-quant twin used during QAT;
//! - [`StreamingApsq`] / [`grouped_apsq_streamed`] — the incremental form:
//!   one algorithm step per pushed tile, with a fixed schedule or scales
//!   it commits itself from each step's exact accumulator, and an
//!   [`apsq_tensor::ExecEngine`]-driven GEMM that folds APSQ quantization
//!   directly into the K loop without materializing the tile stream;
//! - [`exact_accumulate`] / [`psq_adc_reference`] — the baselines;
//! - [`ScaleSchedule`] — per-step power-of-two scale calibration;
//! - [`error_vs_group_size`] and friends — SQNR analysis.
//!
//! # Example
//!
//! ```
//! use apsq_core::{error_vs_group_size, synthetic_psum_stream};
//! use apsq_quant::Bitwidth;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let stream = synthetic_psum_stream(&mut rng, 16, 64, 8);
//! let sweep = error_vs_group_size(&stream, Bitwidth::INT8, &[1, 2, 3, 4]);
//! // Larger groups requantize the running sum less often.
//! assert!(sweep.last().unwrap().sqnr_db >= sweep[0].sqnr_db - 1.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod config;
mod float_apsq;
mod grouped;
mod reference;
mod schedule;
mod streaming;
mod theory;
mod traffic;

pub use analysis::{
    error_vs_group_size, max_abs_err, mse, sqnr_db, synthetic_psum_stream, GroupSweepPoint,
};
pub use config::{ApsqConfig, GroupSize};
pub use float_apsq::{grouped_apsq_f32, FloatScaleSchedule};
pub use grouped::{apsq_recursion_reference, grouped_apsq, ApsqRun};
pub use reference::{exact_accumulate, psq_adc_reference};
pub use schedule::ScaleSchedule;
pub use streaming::{grouped_apsq_streamed, StreamingApsq};
pub use theory::{predicted_error_variance, predicted_sqnr_db, signal_power};
pub use traffic::BufferTraffic;
