//! # f2-imc
//!
//! Reproduction of the §IV thrust of the ICSC Flagship 2 paper:
//! **in-memory computing (IMC) architectures** based on emerging non-volatile
//! memories (RRAM, PCM) and on SRAM digital IMC.
//!
//! The paper organises the challenges on three levels, and so does this
//! crate:
//!
//! * **Device** ([`device`], [`program`]) — RRAM/PCM conductance models with
//!   programming variability, read noise, conductance drift and multi-level
//!   cell (MLC) operation; high-precision *program-and-verify* loops that
//!   counter the non-idealities (Milo et al. \[10\]).
//! * **Circuit** ([`crossbar`], [`dimc`]) — analog matrix-vector
//!   multiplication via Ohm's law and Kirchhoff's current law on crossbar
//!   arrays, DAC/ADC interfaces, analog accumulation that minimises A/D
//!   conversions (Neural-PIM-style \[11\]), and SRAM-based digital IMC with
//!   adder trees.
//! * **Architecture** ([`tile`], [`eval`]) — a multi-tile IMC system with a
//!   weight-mapping compiler, plus end-to-end DNN accuracy/energy evaluation
//!   under device non-idealities.
//!
//! ```
//! use f2_imc::device::DeviceModel;
//! use f2_imc::program::{ProgramVerify, Programmer};
//! use f2_core::rng::rng_for;
//!
//! let dev = DeviceModel::rram();
//! let mut rng = rng_for(1, "demo");
//! let target = dev.level_conductance(2, 4)?; // level 2 of a 4-level MLC
//! let outcome = ProgramVerify::default().program(&dev, target, &mut rng);
//! assert!((outcome.conductance - target).abs() / target < 0.05);
//! # Ok::<(), f2_imc::ImcError>(())
//! ```

#![deny(unsafe_code)]

pub mod crossbar;
pub mod device;
pub mod dimc;
pub mod error;
pub mod eval;
pub mod experiments;
pub mod program;
pub mod slicing;
pub mod tile;

pub use error::ImcError;

/// Convenience result alias used across `f2-imc`.
pub type Result<T> = std::result::Result<T, ImcError>;
