//! # f2-bench
//!
//! Benchmark harness regenerating every table and figure of the ICSC
//! Flagship 2 overview paper, built on the unified experiment registry in
//! [`flagship2::experiments`].
//!
//! The single entry point is the `f2` runner:
//!
//! ```text
//! cargo run -p f2-bench --release --bin f2 -- list
//! cargo run -p f2-bench --release --bin f2 -- run all --quick
//! cargo run -p f2-bench --release --bin f2 -- run imc_energy --json
//! cargo run -p f2-bench --release --bin f2 -- campaign sweep.json
//! ```
//!
//! The historical per-experiment binaries (`fig1_landscape`,
//! `sparta_speedup`, …) are gone; `f2 run <name>` is the only spelling.
//!
//! Table/number formatting lives in [`f2_core::experiment::render`]
//! (re-exported here); golden-KPI snapshot plumbing in
//! [`f2_core::experiment::golden`]; scenario sweeps in [`campaign`]
//! (with `--progress` heartbeats); service load generation with trace-ID
//! echo checking in [`loadgen`]; the `f2 check-log` access-log validator
//! next to the other `check-*` gates in [`runner`].

#![deny(unsafe_code)]

pub use f2_core::experiment::render::{fmt, print_table, section};

pub mod campaign;
pub mod loadgen;
pub mod runner;
pub mod suite;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_reexport_works() {
        assert_eq!(fmt(4.23456, 2), "4.23");
        assert_eq!(fmt(10.0, 0), "10");
    }

    #[test]
    fn table_reexport_prints_without_panicking() {
        print_table(&["a", "bb"], &[vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_reexport_rejects_ragged_rows() {
        print_table(&["a", "b"], &[vec!["1".to_string()]]);
    }
}
