//! # flagship2
//!
//! Unified façade for the ICSC Flagship 2 reproduction — "Multi-Partner
//! Project: Architectures and Design Methodologies to Accelerate AI
//! Workloads" (DATE 2025).
//!
//! Each research thrust of the paper lives in its own crate, re-exported
//! here under a stable name:
//!
//! | Module | Paper section | Content |
//! |---|---|---|
//! | [`core`] | §II | KPIs, numeric formats, workloads, roofline/energy, DSE |
//! | [`hls`] | §III | HLS toolchain + SPARTA parallel accelerators |
//! | [`imc`] | §IV | RRAM/PCM/SRAM in-memory computing |
//! | [`approx`] | §V | HTCONV & approximate FPGA accelerators |
//! | [`dna`] | §VI | DNA storage pipeline + edit-distance accelerator |
//! | [`hetero`] | §VI | CPU/GPU/FPGA pipeline benchmarking + storage |
//! | [`scf`] | §VII | RISC-V Compute Unit + Scalable Compute Fabric |
//!
//! ```
//! use flagship2::core::kpi::{Gflops, Watts};
//!
//! let eff = Gflops::new(150.0) / Watts::new(0.1);
//! assert!((eff.value() - 1500.0).abs() < 1e-9);
//! ```

#![deny(unsafe_code)]

pub mod experiments;

pub use f2_approx as approx;
pub use f2_core as core;
pub use f2_dna as dna;
pub use f2_hetero as hetero;
pub use f2_hls as hls;
pub use f2_imc as imc;
pub use f2_scf as scf;
