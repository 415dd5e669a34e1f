//! # f2-hls
//!
//! Reproduction of the §III thrust of the ICSC Flagship 2 paper: a
//! **Design-Space Exploration and High-Level Synthesis toolchain** for AI
//! accelerators, including the SPARTA methodology for synthesising parallel
//! multi-threaded accelerators for irregular (graph) workloads.
//!
//! The pipeline mirrors an open-source HLS flow (Bambu-style):
//!
//! 1. [`ir`] — build a dataflow graph (DFG) of the kernel, either by hand or
//!    with the loop-kernel generators.
//! 2. [`schedule`] — ASAP/ALAP analysis and resource-constrained list
//!    scheduling map operations to clock cycles.
//! 3. [`binding`] — operations are bound to functional-unit instances and
//!    registers, producing a resource estimate.
//! 4. [`fpga`] — device library (Kintex-7 / Virtex-7 / Alveo class) turning
//!    bound designs into LUT/FF/DSP/BRAM counts and an fmax estimate.
//! 5. [`dse`] — exhaustive exploration over HLS knobs (unrolling, resource
//!    budgets) with Pareto filtering, built on `f2-core`.
//! 6. [`sparta`] — a cycle-level simulator of SPARTA's parallel accelerator
//!    template: hardware thread contexts that hide external-memory latency by
//!    context switching, a NoC to multiple memory channels, and memory-side
//!    caching.
//! 7. [`spdataflow`] — analytical SpMV/SpGEMM dataflow cost models
//!    (inner-product, outer-product, multi-row Gustavson, adaptive
//!    per-row-block) over procedural sparse matrices, for dataflow ×
//!    sparsity-pattern × tiling design-space exploration.
//!
//! ```
//! use f2_hls::ir::Dfg;
//! use f2_hls::schedule::{list_schedule, OpLatency, ResourceBudget};
//!
//! // y = a*b + c*d — two multipliers finish sooner than one.
//! let mut g = Dfg::new();
//! let a = g.input("a");
//! let b = g.input("b");
//! let c = g.input("c");
//! let d = g.input("d");
//! let ab = g.mul(a, b);
//! let cd = g.mul(c, d);
//! let y = g.add(ab, cd);
//! g.output("y", y);
//!
//! let lat = OpLatency::default();
//! let fast = list_schedule(&g, &lat, &ResourceBudget::unlimited())?;
//! let slow = list_schedule(&g, &lat, &ResourceBudget::new(1, 1, 1))?;
//! assert!(fast.latency() < slow.latency());
//! # Ok::<(), f2_hls::HlsError>(())
//! ```

#![deny(unsafe_code)]

pub mod binding;
pub mod dse;
pub mod error;
pub mod experiments;
pub mod fpga;
pub mod interface;
pub mod ir;
pub mod pipeline;
pub mod schedule;
pub mod sparta;
pub mod spdataflow;

pub use error::HlsError;

/// Convenience result alias used across `f2-hls`.
pub type Result<T> = std::result::Result<T, HlsError>;
