//! # f2-core
//!
//! Shared substrate for the ICSC Flagship 2 reproduction.
//!
//! The DATE 2025 overview paper spans five research thrusts (HLS/DSE
//! toolchains, in-memory computing, approximate FPGA accelerators,
//! heterogeneous platforms, and RISC-V compute fabrics). All of them share a
//! common vocabulary: performance/power/area KPIs, reduced-precision number
//! formats, workload descriptions, and cost models. This crate provides that
//! vocabulary so the thrust-specific crates (`f2-hls`, `f2-imc`, `f2-approx`,
//! `f2-dna`, `f2-hetero`, `f2-scf`) compose cleanly.
//!
//! ## Quick tour
//!
//! ```
//! use f2_core::kpi::{Tops, Watts};
//! use f2_core::roofline::Roofline;
//!
//! // KPIs are strongly typed: TOPS / W division yields TOPS/W directly.
//! let eff = Tops::new(209.6) / Watts::new(14.0);
//! assert!((eff.value() - 14.97).abs() < 0.01);
//!
//! // Roofline models bound attainable performance.
//! let a100ish = Roofline::new(312e12, 2.0e12);
//! assert!(a100ish.attainable(1.0) <= 2.0e12);
//! ```
//!
//! Cross-cutting infrastructure rides alongside the modelling vocabulary:
//! [`trace`] (Chrome-trace spans plus the log-scale [`trace::Histogram`]
//! behind serve's latency percentiles), [`serve`] (the batched experiment
//! daemon with request-scoped observability — trace-ID propagation,
//! `f2-serve-metrics-v3`, the `f2-serve-log-v1` access log, and the
//! `/debug/recent` flight recorder), [`exec`] (the work-stealing pool) and
//! [`experiment`] (registry + golden-KPI plumbing).

pub mod benchkit;
pub mod bf16;
pub mod energy;
pub mod error;
pub mod exec;
pub mod experiment;
pub mod fixed;
pub mod json;
pub mod kpi;
pub mod pareto;
pub mod platform;
pub mod ptest;
pub mod rng;
pub mod roofline;
pub mod scenario;
pub mod serve;
pub mod tensor;
pub mod trace;
pub mod workload;

pub use error::CoreError;

/// Convenience result alias used across `f2-core`.
pub type Result<T> = std::result::Result<T, CoreError>;
