//! Self-tests of the benchmark: seed-deterministic generators, tiny runs
//! of every workload that pass their output checks, a deliberately wrong
//! expected value that must be counted as failed, and a `BENCHMARK.json`
//! that names exactly the metrics the runs report.

use f2_core::json::Json;
use f2_perfbench::outcome::{repo_root, Outcome, RunConfig};
use f2_perfbench::{combine, dse, iss, result_json, serve, END_TO_END, PER_LAYER, WORKLOADS};

/// A program set small enough for a debug-build test.
const TINY_SET: iss::SetSize = iss::SetSize {
    variants: 1,
    hart_budget: 3_000,
    vector_adds: 2,
    maps: 2,
    map_budget: 3_000,
};

/// The hart programs of [`TINY_SET`] (`iss_programs`).
const TINY_HARTS: iss::SetSize = iss::SetSize {
    vector_adds: 0,
    maps: 0,
    ..TINY_SET
};

/// The cluster programs of [`TINY_SET`] (`iss_cluster`).
const TINY_CLUSTERS: iss::SetSize = iss::SetSize {
    variants: 0,
    ..TINY_SET
};

fn cfg(seed: u64, seconds: f64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds,
        trace,
    }
}

fn assert_clean(out: &Outcome, what: &str) {
    assert!(out.attempted > 0, "{what}: nothing attempted");
    assert_eq!(out.failed, 0, "{what}: {:?}", out.failures);
}

fn assert_reports(out: &Outcome, trace: bool) {
    let doc = result_json(out, trace);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        let m = doc.get("metrics").and_then(|m| m.get(name)).expect(name);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        assert!(m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite));
        if !trace {
            assert!(
                out.get(name).is_some_and(|v| v > 0.0),
                "{name} not measured"
            );
        }
    }
}

#[test]
fn generators_are_seed_deterministic() {
    assert_eq!(dse::manifest(7, 1), dse::manifest(7, 1));
    assert_ne!(dse::manifest(7, 1), dse::manifest(8, 1));

    let digest = |seed| iss::set_digest(&iss::program_set(seed, TINY_SET));
    assert_eq!(digest(7), digest(7));
    assert_ne!(digest(7), digest(8));

    assert_eq!(serve::traffic(7, 2.0), serve::traffic(7, 2.0));
    assert_ne!(serve::traffic(7, 2.0), serve::traffic(8, 2.0));
}

#[test]
fn tiny_dse_sweep_passes_its_checks() {
    for trace in [false, true] {
        let out = dse::run(cfg(3, 0.01, trace), 1);
        assert_clean(&out, "dse_sweep");
        assert_reports(&out, trace);
    }
}

#[test]
fn tiny_iss_programs_pass_their_checks() {
    for trace in [false, true] {
        let out = iss::run(cfg(3, 0.01, trace), TINY_HARTS);
        assert_clean(&out, "iss_programs");
        assert_reports(&out, trace);
        assert!(out.get("iss.hart_mips").is_some_and(|v| v > 0.0));
    }
}

#[test]
fn tiny_iss_cluster_passes_its_checks() {
    for trace in [false, true] {
        let out = iss::run(cfg(3, 0.01, trace), TINY_CLUSTERS);
        assert_clean(&out, "iss_cluster");
        assert_reports(&out, trace);
        assert!(out.get("iss.cluster_mips").is_some_and(|v| v > 0.0));
    }
}

#[test]
fn tiny_serve_mixed_passes_its_checks() {
    for trace in [false, true] {
        let out = serve::run(cfg(3, 0.6, trace));
        assert_clean(&out, "serve_mixed");
        assert_reports(&out, trace);
    }
}

#[test]
fn wrong_golden_kpi_is_counted_as_failed() {
    let out = dse::run_with(cfg(3, 0.01, false), || {
        let mut sweep = dse::setup(3, 0)?;
        let report = sweep
            .golden
            .values_mut()
            .next()
            .expect("a default scenario");
        report.kpis[0].value += 1.0 + report.kpis[0].value.abs();
        Ok(sweep)
    });
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    let doc = result_json(&out, false);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
}

#[test]
fn wrong_model_register_is_counted_as_failed() {
    let out = iss::run_with(cfg(3, 0.01, false), || {
        let mut set = iss::program_set(3, TINY_HARTS);
        set.harts[0].regs[0] ^= 1;
        set
    });
    assert!(out.failed >= 1, "{:?}", out.failures);
}

#[test]
fn wrong_cluster_output_is_counted_as_failed() {
    let out = iss::run_with(cfg(3, 0.01, false), || {
        let mut set = iss::program_set(3, TINY_CLUSTERS);
        set.clusters[0].expected[0] ^= 1;
        set
    });
    assert!(out.failed >= 1, "{:?}", out.failures);
}

#[test]
fn a_failed_earlier_workload_fails_the_combined_result() {
    let failed = iss::run_with(cfg(3, 0.01, false), || {
        let mut set = iss::program_set(3, TINY_HARTS);
        set.harts[0].regs[0] ^= 1;
        set
    });
    let clean = iss::run(cfg(3, 0.01, false), TINY_CLUSTERS);
    assert!(failed.failed >= 1 && clean.failed == 0);
    let combined = combine(&[
        ("iss_programs", Some(result_json(&failed, false))),
        ("iss_cluster", Some(result_json(&clean, false))),
    ]);
    let num = |key: &str| combined.get(key).and_then(Json::as_f64);
    assert_eq!(combined.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(num("failed"), Some(failed.failed as f64));
    assert_eq!(
        num("attempted"),
        Some((failed.attempted + clean.attempted) as f64)
    );
    let metric = |name: &str| combined.get("metrics").and_then(|m| m.get(name));
    assert!(metric("iss_programs.p50_ms").is_some());
    assert!(metric("iss_cluster.p50_ms").is_some());

    // A workload that gave no result line counts as failed too.
    let missing = combine(&[
        ("iss_cluster", Some(result_json(&clean, false))),
        ("serve_mixed", None),
    ]);
    assert_eq!(missing.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(missing.get("failed").and_then(Json::as_f64), Some(1.0));
}

#[test]
fn wrong_expected_hit_body_is_counted_as_failed() {
    let out = serve::run_with(cfg(3, 0.6, false), |window| {
        let mut traffic = serve::traffic(3, window);
        let slot = traffic
            .schedule
            .iter_mut()
            .find(|s| s.hit.is_some())
            .expect("a hit request");
        // Expect another key's body for this request.
        slot.hit = slot.hit.map(|k| (k + 1) % serve::HIT_KEYS);
        traffic
    });
    assert_eq!(out.failed, 1, "{:?}", out.failures);
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expect = |names: &[(&str, &str)]| -> Vec<(String, String)> {
        names
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expect(&END_TO_END));
    assert_eq!(listed("per_layer"), expect(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
