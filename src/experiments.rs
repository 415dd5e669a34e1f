//! Assembly of the full E1–E13 experiment [`Registry`].
//!
//! Each thrust crate exposes its experiments from an `experiments` module;
//! this facade is the one place that depends on all of them, so it is where
//! the registry is put together. The `f2` runner
//! (`crates/bench/src/bin/f2.rs`) and the golden-KPI regression test
//! (`tests/golden_kpis.rs`) both build their registry here, which keeps
//! `f2 list` the single source of truth for what the repository reproduces.

use f2_core::experiment::Registry;

/// Builds the full registry: the paper-level catalog experiments (E1, E11)
/// and one entry per thrust experiment (E2–E13). Every entry reports KPIs;
/// wall-clock micro-benchmarks live in `f2 bench`, not here.
pub fn registry() -> Registry {
    let mut reg = Registry::new();
    reg.extend(f2_core::experiment::catalog::experiments());
    reg.extend(f2_hls::experiments::experiments());
    reg.extend(f2_imc::experiments::experiments());
    reg.extend(f2_approx::experiments::experiments());
    reg.extend(f2_dna::experiments::experiments());
    reg.extend(f2_hetero::experiments::experiments());
    reg.extend(f2_scf::experiments::experiments());
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper reproduces fourteen experiments (E1–E13 plus the TCDM
    /// ablation); the registry also carries the sparse-dataflow design-space
    /// explorer.
    const EXPECTED: &[&str] = &[
        "fig1_landscape",
        "fig7_riscv_sota",
        "sparta_speedup",
        "hls/spdataflow",
        "imc_accuracy",
        "imc_energy",
        "htconv_quality",
        "table1_fpga",
        "hetero_pipeline",
        "storage_io",
        "dna_throughput",
        "dna_pipeline",
        "cu_transformer",
        "tcdm_banking",
        "scf_scaling",
    ];

    #[test]
    fn registry_contains_all_experiments() {
        let reg = registry();
        for name in EXPECTED {
            assert!(reg.find(name).is_some(), "missing experiment {name}");
        }
        assert_eq!(reg.entries().len(), EXPECTED.len());
    }

    #[test]
    fn selectors_resolve_names_and_tags() {
        let reg = registry();
        assert_eq!(reg.select("all").expect("all").len(), EXPECTED.len());
        assert_eq!(reg.select("imc").expect("tag").len(), 2);
        assert_eq!(reg.select("tcdm_banking").expect("name").len(), 1);
        assert!(reg.select("kernels").is_err());
        assert!(reg.select("no_such_thing").is_err());
    }
}
