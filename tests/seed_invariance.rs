//! Seed-invariance oracle for the seedless sections.
//!
//! A campaign computes each `ExperimentCtx::seedless` section once per
//! distinct non-seed key and replays it at every other seed. The compiler
//! keeps the scenario seed out of such a section; this test pins the
//! outputs EXPERIMENTS.md lists as seed-invariant, so it fails if an edit
//! swaps one of their fixed seeds for the scenario seed (which means
//! moving the work out of the seedless section) or lets anything else
//! that varies between runs into it.

use flagship2::core::experiment::{ExperimentCtx, ExperimentReport, Kpi};
use flagship2::core::rng::DEFAULT_SEED;
use flagship2::core::scenario::{Fidelity, Scenario};

/// Runs one registered experiment at quick fidelity without a memo.
fn run(name: &str, seed: u64) -> (String, ExperimentReport) {
    let registry = flagship2::experiments::registry();
    let exp = registry.find(name).expect("registered");
    let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::new(seed, Fidelity::Quick, 2));
    let report = exp.run(&mut ctx).expect("runs");
    (ctx.rendered().to_string(), report)
}

const OTHER_SEED: u64 = 9;

#[test]
fn whole_body_seedless_reports_are_the_same_at_every_seed() {
    for name in ["sparta_speedup", "dna_pipeline", "htconv_quality"] {
        let (text, report) = run(name, DEFAULT_SEED);
        let (other_text, other_report) = run(name, OTHER_SEED);
        assert!(!report.kpis.is_empty(), "{name} reports KPIs");
        assert_eq!(text, other_text, "{name}: text moved with the seed");
        assert_eq!(report, other_report, "{name}: KPIs moved with the seed");
    }
}

#[test]
fn the_imc_accuracy_table_is_the_same_at_every_seed() {
    let accuracy = |seed| {
        let (text, report) = run("imc_accuracy", seed);
        let at = text
            .find("=== Deployed MLP accuracy")
            .expect("the accuracy section runs");
        let kpis: Vec<Kpi> = report
            .kpis
            .into_iter()
            .filter(|k| k.name.starts_with("accuracy/"))
            .collect();
        (text[at..].to_string(), kpis)
    };
    let (text, kpis) = accuracy(DEFAULT_SEED);
    assert_eq!(kpis.len(), 6, "float32 plus five deployments");
    assert_eq!((text, kpis), accuracy(OTHER_SEED));
    // The programming table before it does read the seed.
    let programming = |seed| {
        run("imc_accuracy", seed)
            .1
            .kpi("programming/open_loop_rms_pct")
    };
    assert_ne!(programming(DEFAULT_SEED), programming(OTHER_SEED));
}
