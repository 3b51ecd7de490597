//! Quantizers for the APSQ reproduction.
//!
//! Implements the paper's Section II-B toolbox:
//!
//! - [`UniformQuantizer`] — symmetric uniform quantization, eq. (7);
//! - [`LsqQuantizer`] — Learned Step-size Quantization with STE gradients
//!   (the method the paper uses for weights and activations);
//! - [`Pow2Scale`] / [`Pow2LsqQuantizer`] — power-of-two scales whose
//!   rescaling is an exact hardware shift (the paper's PSUM scale format);
//! - [`MinMaxObserver`] / [`EmaObserver`] — calibration observers;
//! - [`rounding_shift_right`] and friends — the saturating fixed-point
//!   primitives shared with the bit-accurate RAE datapath.
//!
//! The float fake-quant path and the integer shift path round identically
//! (half away from zero), which is what lets the QAT model and the hardware
//! simulator agree bit-for-bit.
//!
//! # Example
//!
//! ```
//! use apsq_quant::{Bitwidth, Pow2Scale, UniformQuantizer};
//!
//! // A PSUM of 1000 stored in INT8 with a shift-by-4 scale:
//! let s = Pow2Scale::new(4, Bitwidth::INT8);
//! let code = s.quantize(1000);
//! assert_eq!(code, 63);
//! assert_eq!(s.dequantize(code), 1008); // |error| ≤ α/2 = 8
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bitwidth;
mod fixed;
mod lsq;
mod observer;
mod per_channel;
mod pow2;
mod uniform;

pub use bitwidth::{Bitwidth, QRange};
pub use fixed::{
    round_to_i8, rounding_shift_right, saturating_add_in_range, saturating_shift_left,
    shift_dequantize, shift_dequantize_add, shift_dequantize_slice, shift_quantize,
    shift_quantize_slice,
};
pub use lsq::LsqQuantizer;
pub use observer::{EmaObserver, MinMaxObserver};
pub use per_channel::PerChannelLsq;
pub use pow2::{covering_pow2_exponent, pow2_f32, Pow2LsqQuantizer, Pow2Scale};
pub use uniform::{pow2_exponent_for, UniformQuantizer};
