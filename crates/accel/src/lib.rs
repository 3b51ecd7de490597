//! Tile-based DNN accelerator simulator with byte-accurate traffic
//! accounting and a bit-accurate PSUM path.
//!
//! [`GemmSimulator`] executes `[T, Ci] × [Ci, Co]` GEMMs through real IS or
//! WS loop nests over a `Po × Pci × Pco` MAC-array model:
//!
//! - outputs are **bit-exact**: the INT32 path equals
//!   [`apsq_tensor::ExecEngine::int8_matmul`], the APSQ path equals the software golden
//!   model [`apsq_core::grouped_apsq`] (itself equal to the RAE hardware
//!   model);
//! - every SRAM/DRAM byte is counted per tensor, which cross-validates the
//!   paper's analytical access-count equations (3)–(6) empirically — see
//!   the `tests/` directory of this crate and the workspace-level
//!   integration tests.
//!
//! # Example
//!
//! ```
//! use apsq_accel::{GemmSimulator, PsumPath};
//! use apsq_dataflow::{AcceleratorConfig, Dataflow};
//! use apsq_tensor::{ExecEngine, Int8Tensor};
//!
//! let a = Int8Tensor::from_vec(vec![1; 8 * 16], [8, 16]);
//! let w = Int8Tensor::from_vec(vec![2; 16 * 8], [16, 8]);
//! let sim = GemmSimulator::new(
//!     AcceleratorConfig::transformer(),
//!     Dataflow::WeightStationary,
//!     PsumPath::ExactInt32,
//! );
//! let r = sim.run(&a, &w);
//! assert_eq!(r.output, ExecEngine::serial().int8_matmul(&a, &w));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod mem;
mod os_sim;
mod sim;
mod stats;

pub use mem::{Dram, Sram};
pub use os_sim::OsGemmSimulator;
pub use sim::{GemmSimulator, PsumPath, SimResult};
pub use stats::{MemTraffic, SimStats};
