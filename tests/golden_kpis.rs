//! Golden-KPI regression gate.
//!
//! Every registered experiment runs in quick mode with the default seed and
//! a fixed thread budget, and its KPI report is diffed against the snapshot
//! in `tests/golden/<name>.json` using the per-KPI relative tolerance
//! stored in the snapshot.
//!
//! To refresh the snapshots after an intentional modelling change:
//!
//! ```text
//! F2_BLESS=1 cargo test --test golden_kpis
//! ```
//!
//! The bless run rewrites every snapshot and then fails itself with a
//! reminder so a bless can never silently pass in CI.
//!
//! An experiment whose quick report holds no KPI fails the gate as well:
//! its snapshot would pin nothing, and a wall-clock loop belongs in
//! `f2 bench`, not in the registry.

use std::collections::BTreeSet;
use std::path::PathBuf;

use flagship2::core::experiment::{golden, ExperimentCtx};
use flagship2::core::rng::DEFAULT_SEED;
use flagship2::core::scenario::{Fidelity, Scenario};

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

#[test]
fn quick_mode_kpis_match_golden_snapshots() {
    let registry = flagship2::experiments::registry();
    let dir = golden_dir();
    let bless = golden::bless_requested();
    let mut failures = Vec::new();
    let mut seen = BTreeSet::new();

    for exp in registry.entries() {
        // The snapshot fidelity: quick, quiet, default seed. Two threads
        // exercise the parallel sweeps, whose results are bit-identical at
        // any worker count.
        let mut ctx =
            ExperimentCtx::quiet_scenario(&Scenario::new(DEFAULT_SEED, Fidelity::Quick, 2));
        let report = match exp.run(&mut ctx) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{}: run failed: {e}", exp.name()));
                continue;
            }
        };
        seen.insert(format!("{}.json", exp.name()));
        if report.kpis.is_empty() {
            failures.push(format!(
                "{}: quick report has no KPIs; timing loops belong in `f2 bench`",
                exp.name()
            ));
        }
        let path = golden::snapshot_path(&dir, exp.name());
        if bless {
            golden::save(&path, &report).expect("snapshot dir writable");
            continue;
        }
        match golden::load(&path) {
            Ok(expected) => {
                for diff in golden::compare(&expected, &report) {
                    failures.push(format!("{}: {diff}", exp.name()));
                }
            }
            Err(e) => failures.push(format!(
                "{}: cannot load snapshot: {e}\n  (bless with `F2_BLESS=1 cargo test --test golden_kpis`)",
                exp.name()
            )),
        }
    }

    if bless {
        panic!(
            "snapshots blessed into {}; unset {} and re-run to verify",
            dir.display(),
            golden::BLESS_ENV
        );
    }

    // Orphan snapshots mean an experiment was renamed or removed without
    // updating the goldens — catch that too.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && !seen.contains(&name) {
                failures.push(format!("orphan snapshot {name}: no such experiment"));
            }
        }
    }

    assert!(
        failures.is_empty(),
        "golden KPI mismatches:\n{}",
        failures.join("\n")
    );
}
