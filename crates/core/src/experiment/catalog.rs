//! Landscape-survey experiments (E1 / Fig. 1 and E11 / Fig. 7).
//!
//! Both operate purely on the [`crate::platform`] catalogs, so they live
//! with the substrate; the thrust crates register their own experiments the
//! same way.

use super::render::fmt;
use super::{Experiment, ExperimentCtx, ExperimentReport};
use crate::platform::{
    fig1_catalog, median_efficiency, riscv_sota_catalog, PlatformClass, PowerBand,
};
use crate::Result;
use std::collections::BTreeMap;

/// The classes Fig. 1 clusters, in narrative order.
const FIG1_CLASSES: [PlatformClass; 8] = [
    PlatformClass::Cpu,
    PlatformClass::Gpu,
    PlatformClass::Fpga,
    PlatformClass::Cgra,
    PlatformClass::Npu,
    PlatformClass::RiscV,
    PlatformClass::NpuSramImc,
    PlatformClass::NpuNvmImc,
];

/// E1 / Fig. 1 — the TOPS/W landscape of state-of-the-art AI accelerators.
pub struct Fig1Landscape;

impl Experiment for Fig1Landscape {
    fn name(&self) -> &'static str {
        "fig1_landscape"
    }

    fn summary(&self) -> &'static str {
        "E1 / Fig. 1: AI-accelerator landscape, per-class median TOPS/W"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e1", "landscape", "figure"]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> Result<ExperimentReport> {
        ctx.section("Fig. 1 — AI accelerator landscape (peak throughput vs efficiency)");
        let _phase = ctx.span("catalog:fig1_landscape");
        let catalog = fig1_catalog();
        let rows: Vec<Vec<String>> = catalog
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    p.class.to_string(),
                    fmt(p.peak.value(), 1),
                    fmt(p.power.value(), 3),
                    fmt(p.efficiency().value(), 2),
                ]
            })
            .collect();
        ctx.table(
            &["Platform", "Class", "Peak TOPS", "Power W", "TOPS/W"],
            &rows,
        );
        ctx.kpi("catalog_size", catalog.len() as f64);

        ctx.section("Per-class median efficiency (the Fig. 1 'clusters')");
        let mut rows = Vec::new();
        for &class in &FIG1_CLASSES {
            if let Some(m) = median_efficiency(&catalog, class) {
                rows.push(vec![class.to_string(), fmt(m.value(), 2)]);
                ctx.kpi(&format!("median_tops_per_watt/{class}"), m.value());
            }
        }
        ctx.table(&["Class", "Median TOPS/W"], &rows);
        ctx.note("\nShape check: CPUs are least efficient; IMC-augmented NPUs dominate,");
        ctx.note("with analog NVM IMC above digital SRAM IMC — matching Fig. 1.");
        Ok(ctx.report(self.name()))
    }
}

/// E11 / Fig. 7 — RISC-V acceleration state of the art.
pub struct Fig7RiscvSota;

impl Experiment for Fig7RiscvSota {
    fn name(&self) -> &'static str {
        "fig7_riscv_sota"
    }

    fn summary(&self) -> &'static str {
        "E11 / Fig. 7: RISC-V accelerator survey and power-band histogram"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e11", "landscape", "riscv", "figure"]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> Result<ExperimentReport> {
        ctx.section("Fig. 7 — RISC-V DNN/transformer accelerators");
        let _phase = ctx.span("catalog:fig7_riscv_sota");
        let catalog = riscv_sota_catalog();
        let rows: Vec<Vec<String>> = catalog
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    fmt(p.peak.value() * 1000.0, 1), // GOPS
                    fmt(p.power.value(), 3),
                    fmt(p.efficiency().value(), 2),
                    PowerBand::classify(p.power).to_string(),
                ]
            })
            .collect();
        ctx.table(
            &["Architecture", "Peak GOPS", "Power W", "TOPS/W", "Band"],
            &rows,
        );
        ctx.kpi("catalog_size", catalog.len() as f64);

        ctx.section("Power-band histogram");
        let mut bands: BTreeMap<PowerBand, usize> = BTreeMap::new();
        for p in &catalog {
            *bands.entry(PowerBand::classify(p.power)).or_insert(0) += 1;
        }
        let rows: Vec<Vec<String>> = bands
            .iter()
            .map(|(b, n)| vec![b.to_string(), n.to_string()])
            .collect();
        ctx.table(&["Band", "Architectures"], &rows);
        for (band, n) in &bands {
            ctx.kpi(&format!("band_count/{band}"), *n as f64);
        }
        ctx.note("\nShape check: the 100mW-1W band holds the plurality of designs;");
        ctx.note("the >1W band is sparse — the gap the ICSC Flagship 2 SCF targets.");
        Ok(ctx.report(self.name()))
    }
}

/// The substrate-level experiments this crate contributes to the registry.
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    vec![Box::new(Fig1Landscape), Box::new(Fig7RiscvSota)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Fidelity, Scenario};

    #[test]
    fn both_catalog_experiments_report_kpis() {
        for exp in experiments() {
            let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::new(42, Fidelity::Quick, 1));
            let report = exp.run(&mut ctx).expect("catalog experiments run");
            assert_eq!(report.experiment, exp.name());
            assert!(report.kpi("catalog_size").unwrap() > 5.0);
            assert!(!ctx.rendered().is_empty());
        }
    }

    #[test]
    fn fig1_medians_preserve_narrative_ordering() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::new(42, Fidelity::Quick, 1));
        let report = Fig1Landscape.run(&mut ctx).expect("runs");
        let cpu = report.kpi("median_tops_per_watt/CPU").expect("cpu median");
        let gpu = report.kpi("median_tops_per_watt/GPU").expect("gpu median");
        assert!(cpu < gpu, "CPUs must trail GPUs in the landscape");
    }
}
