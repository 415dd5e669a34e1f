//! This thrust's registry entries for the unified `f2` runner.

use f2_core::experiment::render::fmt;
use f2_core::experiment::{Experiment, ExperimentCtx, ExperimentReport, ParamSpec, SeedlessCtx};

use crate::accelerator::{AcceleratorConfig, CpuBaseline};
use crate::channel::ChannelModel;
use crate::levenshtein::{levenshtein_banded, levenshtein_dp, levenshtein_myers};
use crate::pipeline::{run_pipeline, PipelineConfig};
use crate::sequence::{DnaBase, DnaSequence};
use std::time::Instant;

const PAYLOAD: &[u8] = b"The ICSC Italian National Research Center for High-Performance \
Computing, Big Data, and Quantum Computing is a central hub for supercomputing \
infrastructure, supported by ten specialized research spokes.";

/// E9 / §VI — the FPGA edit-distance accelerator for DNA storage.
///
/// Reproduces the published Alveo U50 figures (16.8 TCUPS, 46 Mpair/J, ~90%
/// computing efficiency at ~90% resource use) from the systolic-array model
/// and compares against CPU baselines. The software-kernel timing table is
/// informative only (wall-clock, machine-dependent); the KPIs are the
/// deterministic model outputs and cell-update counts.
pub struct DnaThroughput;

impl DnaThroughput {
    fn software_kernels(&self, ctx: &mut ExperimentCtx) {
        let pairs_n = ctx.param_u64("pairs", if ctx.quick() { 50 } else { 200 });
        let strand_len = ctx.param_u64("strand_len", 150) as usize;
        ctx.section(&format!(
            "Software kernel throughput (this machine, {strand_len}-base pairs, {pairs_n} pairs)"
        ));
        let mut rng = ctx.rng_for("e9");
        let pairs: Vec<(DnaSequence, DnaSequence)> = (0..pairs_n)
            .map(|_| {
                let s = |rng: &mut _| {
                    DnaSequence::from_bases(
                        (0..strand_len)
                            .map(|_| DnaBase::from_bits(f2_core::rng::Rng::gen(rng)))
                            .collect(),
                    )
                };
                (s(&mut rng), s(&mut rng))
            })
            .collect();
        let mut rows = Vec::new();
        for (name, slug, f) in [
            (
                "exact DP",
                "exact_dp",
                Box::new(|a: &DnaSequence, b: &DnaSequence| levenshtein_dp(a, b).cell_updates)
                    as Box<dyn Fn(&DnaSequence, &DnaSequence) -> u64>,
            ),
            (
                "banded (k=16)",
                "banded_k16",
                Box::new(|a: &DnaSequence, b: &DnaSequence| {
                    levenshtein_banded(a, b, 16).cell_updates
                }),
            ),
            (
                "Myers bit-parallel",
                "myers",
                Box::new(|a: &DnaSequence, b: &DnaSequence| levenshtein_myers(a, b).cell_updates),
            ),
        ] {
            let start = Instant::now();
            let mut cells = 0u64;
            for (a, b) in &pairs {
                cells += f(a, b);
            }
            let dt = start.elapsed().as_secs_f64();
            rows.push(vec![
                name.to_string(),
                cells.to_string(),
                fmt(cells as f64 / dt / 1e9, 2),
                fmt(pairs.len() as f64 / dt / 1e3, 1),
            ]);
            // Cell-update counts are deterministic; GCUPS is wall-clock and
            // stays out of the KPI set.
            ctx.kpi(&format!("kernels/cell_updates_{slug}"), cells as f64);
        }
        ctx.table(&["Kernel", "Cell updates", "GCUPS", "kpairs/s"], &rows);
    }

    fn accelerator_model(&self, ctx: &mut ExperimentCtx) {
        ctx.section("Alveo U50 accelerator model vs baselines (150-base pairs)");
        let fpga = AcceleratorConfig::alveo_u50();
        let cpu = CpuBaseline::server();
        let rows = vec![
            vec![
                "Alveo U50 systolic [35]".to_string(),
                fmt(fpga.throughput().value(), 1),
                fmt(fpga.pairs_per_second(150) / 1e6, 0),
                fmt(fpga.pair_efficiency(150).value(), 1),
                fmt(fpga.compute_efficiency * 100.0, 0),
                fmt(fpga.resource_utilization * 100.0, 0),
            ],
            vec![
                "32-core CPU (Myers)".to_string(),
                fmt(cpu.throughput().value(), 3),
                fmt(cpu.throughput().value() * 1e12 / (150.0 * 150.0) / 1e6, 1),
                fmt(cpu.pair_efficiency(150).value(), 3),
                "-".to_string(),
                "-".to_string(),
            ],
        ];
        ctx.table(
            &[
                "Platform",
                "TCUPS",
                "Mpairs/s",
                "Mpair/J",
                "Compute eff %",
                "Resource %",
            ],
            &rows,
        );
        ctx.kpi("accelerator/tcups", fpga.throughput().value());
        ctx.kpi(
            "accelerator/mpair_per_joule",
            fpga.pair_efficiency(150).value(),
        );
        ctx.kpi(
            "accelerator/throughput_speedup_vs_cpu",
            fpga.throughput().value() / cpu.throughput().value(),
        );
        ctx.kpi(
            "accelerator/energy_speedup_vs_cpu",
            fpga.pair_efficiency(150).value() / cpu.pair_efficiency(150).value(),
        );
        ctx.note("\nPublished: 16.8 TCUPS, 46 Mpair/J, ~90% efficiency, ~90% resources.");

        ctx.section("Ablation: strand length vs pair throughput (quadratic cell count)");
        let mut rows = Vec::new();
        for len in [100usize, 150, 200, 300] {
            rows.push(vec![
                len.to_string(),
                fmt(fpga.pairs_per_second(len) / 1e6, 0),
                fmt(fpga.pair_efficiency(len).value(), 1),
            ]);
            ctx.kpi(
                &format!("accelerator/mpairs_per_s_len_{len}"),
                fpga.pairs_per_second(len) / 1e6,
            );
        }
        ctx.table(&["Strand length", "Mpairs/s", "Mpair/J"], &rows);
    }
}

impl Experiment for DnaThroughput {
    fn name(&self) -> &'static str {
        "dna_throughput"
    }

    fn summary(&self) -> &'static str {
        "E9 / §VI: FPGA edit-distance accelerator model vs CPU baselines"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e9", "dna", "fpga"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::u64(
                "pairs",
                "software-kernel sequence pairs (quick 50, full 200)",
            ),
            ParamSpec::u64("strand_len", "bases per generated strand (default 150)"),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        {
            let _phase = ctx.span("dna:software_kernels");
            self.software_kernels(ctx);
        }
        {
            let _phase = ctx.span("dna:accelerator_model");
            self.accelerator_model(ctx);
        }
        Ok(ctx.report(self.name()))
    }
}

/// E10 / Fig. 6b — end-to-end DNA storage channel round trip.
///
/// Reproduces the DNAssim-style simulation: payload -> oligos -> noisy
/// channel -> clustering -> consensus -> decode, sweeping the channel error
/// rate to find where recovery breaks down.
pub struct DnaPipeline;

impl DnaPipeline {
    /// The whole report. Every round trip runs at the fixed channel seeds
    /// (42, and `0..sweep_seeds` per sweep point), so nothing here depends
    /// on the scenario seed.
    fn round_trips(ctx: &mut SeedlessCtx) {
        ctx.note(&format!("Payload: {} bytes", PAYLOAD.len()));

        ctx.section("Round trip across channel profiles");
        let roundtrip_phase = ctx.span("dna:roundtrip_profiles");
        let mut rows = Vec::new();
        for (name, slug, ch) in [
            (
                "noiseless",
                "noiseless",
                ChannelModel {
                    substitution: 0.0,
                    insertion: 0.0,
                    deletion: 0.0,
                    dropout: 0.0,
                    mean_coverage: 5.0,
                },
            ),
            (
                "typical (Illumina-class)",
                "typical",
                ChannelModel::typical(),
            ),
            ("harsh (nanopore-class)", "harsh", ChannelModel::harsh()),
        ] {
            let cfg = PipelineConfig {
                channel: ch,
                ..PipelineConfig::default()
            };
            let (_, report) = run_pipeline(PAYLOAD, &cfg, 42).expect("valid config");
            ctx.counter_add("dna.distance_calls", report.distance_calls);
            rows.push(vec![
                name.to_string(),
                report.strands_written.to_string(),
                report.reads.to_string(),
                report.clusters.to_string(),
                report.decode.parity_recovered.to_string(),
                report.payload_recovered.to_string(),
                report.distance_calls.to_string(),
            ]);
            ctx.kpi(
                &format!("roundtrip/{slug}_recovered"),
                if report.payload_recovered { 1.0 } else { 0.0 },
            );
            ctx.kpi(
                &format!("roundtrip/{slug}_distance_calls"),
                report.distance_calls as f64,
            );
        }
        ctx.table(
            &[
                "Channel",
                "Oligos",
                "Reads",
                "Clusters",
                "Parity fixes",
                "Recovered",
                "Dist calls",
            ],
            &rows,
        );

        // Quick mode trims the sweep and the per-point seed count; the
        // clean-recovery/breakdown shape is what the KPIs pin. `sub_scale`
        // shifts the whole sweep into a harsher or milder error regime.
        let (base_subs, seeds_d): (&[f64], u64) = if ctx.quick() {
            (&[0.005, 0.02, 0.1], 3)
        } else {
            (&[0.005, 0.01, 0.02, 0.05, 0.1], 5)
        };
        let seeds = ctx.param_u64("sweep_seeds", seeds_d);
        let sub_scale = ctx.param_f64("sub_scale", 1.0);
        let subs: Vec<f64> = base_subs.iter().map(|s| s * sub_scale).collect();
        let subs = subs.as_slice();
        drop(roundtrip_phase);
        ctx.section(&format!(
            "Substitution-rate sweep (recovery probability over {seeds} seeds)"
        ));
        let _phase = ctx.span("dna:substitution_sweep");
        let results = ctx.exec().map(subs, |&sub| {
            let cfg = PipelineConfig {
                channel: ChannelModel {
                    substitution: sub,
                    ..ChannelModel::typical()
                },
                ..PipelineConfig::default()
            };
            (0..seeds)
                .filter(|&seed| {
                    run_pipeline(PAYLOAD, &cfg, seed)
                        .map(|(_, r)| r.payload_recovered)
                        .unwrap_or(false)
                })
                .count()
        });
        let mut rows = Vec::new();
        for (&sub, ok) in subs.iter().zip(results) {
            rows.push(vec![fmt(sub * 100.0, 1), format!("{ok}/{seeds}")]);
            ctx.kpi(
                &format!("sweep/recovery_rate_sub_{}bp10k", (sub * 10_000.0) as u64),
                ok as f64 / seeds as f64,
            );
        }
        ctx.table(&["Substitution %", "Recovered"], &rows);
        ctx.note("\nShape check: clean recovery at realistic error rates, graceful");
        ctx.note("breakdown as the channel degrades — the decoding workload whose");
        ctx.note("cost motivates the FPGA accelerator (§VI).");
    }
}

impl Experiment for DnaPipeline {
    fn name(&self) -> &'static str {
        "dna_pipeline"
    }

    fn summary(&self) -> &'static str {
        "E10 / Fig. 6b: end-to-end DNA storage channel round trip"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e10", "dna", "figure"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::u64(
                "sweep_seeds",
                "seeds per substitution-sweep point (quick 3, full 5)",
            ),
            ParamSpec::f64(
                "sub_scale",
                "error-regime multiplier on every swept substitution rate (default 1)",
            ),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        ctx.seedless("dna_pipeline/round_trips", Self::round_trips);
        Ok(ctx.report(self.name()))
    }
}

/// This crate's experiments, for registry assembly.
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    vec![Box::new(DnaThroughput), Box::new(DnaPipeline)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::rng::DEFAULT_SEED;
    use f2_core::scenario::{Fidelity, Scenario};

    #[test]
    fn dna_throughput_matches_published_model() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        let report = DnaThroughput.run(&mut ctx).expect("runs");
        let tcups = report.kpi("accelerator/tcups").expect("kpi");
        assert!((tcups - 16.8).abs() < 0.5, "calibrated TCUPS (got {tcups})");
    }

    #[test]
    fn dna_pipeline_recovers_on_clean_channels() {
        let mut ctx =
            ExperimentCtx::quiet_scenario(&Scenario::new(DEFAULT_SEED, Fidelity::Quick, 2));
        let report = DnaPipeline.run(&mut ctx).expect("runs");
        assert_eq!(report.kpi("roundtrip/noiseless_recovered"), Some(1.0));
        assert_eq!(report.kpi("roundtrip/typical_recovered"), Some(1.0));
    }
}
