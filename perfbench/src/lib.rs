//! End-to-end benchmark of the ICSC Flagship 2 reproduction.
//!
//! Four seeded workloads drive the workspace through its public entry
//! points — a design-space campaign ([`dse`]), the two `scf` RV32IM
//! simulators ([`iss`]) and the experiment service ([`serve`]) — check
//! every output, and report end-to-end metrics (untraced run) or
//! per-layer metrics (traced run). `README.md` next to this crate
//! documents the workloads and metrics.

pub mod dse;
pub mod iss;
pub mod layers;
pub mod outcome;
pub mod serve;
pub mod stats;

use f2_core::json::{Json, ToJson};
use outcome::{Outcome, RunConfig};

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["dse_sweep", "iss_programs", "iss_cluster", "serve_mixed"];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Per-layer metrics every traced run reports (0 where a workload does
/// not exercise the layer), with their units.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("campaign.expand_ms", "ms"),
    ("dna.busy_s", "s"),
    ("dna.calls", "count"),
    ("imc.busy_s", "s"),
    ("imc.calls", "count"),
    ("hls.busy_s", "s"),
    ("hls.calls", "count"),
    ("approx.busy_s", "s"),
    ("approx.calls", "count"),
    ("hetero.busy_s", "s"),
    ("hetero.calls", "count"),
    ("core.busy_s", "s"),
    ("core.calls", "count"),
    ("scf.busy_s", "s"),
    ("scf.calls", "count"),
    ("exec.idle_s", "s"),
    ("exec.steal.chunks", "count"),
    ("sweep.scenarios_per_s", "1/s"),
    ("scf.cpu.busy_s", "s"),
    ("scf.cpu.instret", "count"),
    ("scf.bb.hit_ratio", "ratio"),
    ("scf.bb.invalidations", "count"),
    ("scf.multicore.build_s", "s"),
    ("scf.multicore.busy_s", "s"),
    ("scf.multicore.instret", "count"),
    ("scf.tcdm.accesses", "count"),
    ("scf.tcdm.conflict_stalls", "count"),
    ("iss.hart_mips", "instr/us"),
    ("iss.cluster_mips", "instr/us"),
    ("serve.queue.hit_p99_ms", "ms"),
    ("serve.queue.miss_p50_ms", "ms"),
    ("serve.batch.size_p99", "count"),
    ("serve.queue.depth_p99", "count"),
    ("serve.wire.p50_ms", "ms"),
    ("serve.wire.p99_ms", "ms"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.entries", "count"),
    ("serve.run.p50_ms", "ms"),
    ("serve.run.p90_ms", "ms"),
    ("serve.miss.p50_ms", "ms"),
    ("serve.miss.p90_ms", "ms"),
    ("serve.gen_late.p99_ms", "ms"),
    ("serve.gen_jitter.p99_ms", "ms"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Runs one workload at the benchmark's sizes; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: RunConfig) -> Option<Outcome> {
    stats::reset_peak_rss();
    let out = match name {
        "dse_sweep" => dse::run(cfg, dse::REPS),
        "iss_programs" => iss::run(cfg, iss::HART_SET),
        "iss_cluster" => iss::run(cfg, iss::CLUSTER_SET),
        "serve_mixed" => serve::run(cfg),
        _ => return None,
    };
    Some(out)
}

/// The result line: the machine-readable JSON object with the end-to-end
/// (untraced) or per-layer (traced) metrics.
pub fn result_json(out: &Outcome, trace: bool) -> Json {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let value = out.get(name).unwrap_or(0.0);
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), unit.to_json()),
                ]),
            )
        })
        .collect();
    let complete = trace || names.iter().all(|(n, _)| out.get(n).is_some());
    Json::Obj(vec![
        (
            "correct".to_string(),
            (out.failed == 0 && complete).to_json(),
        ),
        ("attempted".to_string(), out.attempted.max(1).to_json()),
        ("failed".to_string(), out.failed.to_json()),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

/// Combines the result lines of several workloads (`None` for one that
/// gave no result) into one: attempted and failed operations add up, the
/// run is correct only if every workload's is, and each metric is keyed
/// `<workload>.<metric>`.
pub fn combine(results: &[(&str, Option<Json>)]) -> Json {
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for (name, result) in results {
        let field = |key: &str| result.as_ref().and_then(|r| r.get(key));
        let ok = field("correct").and_then(Json::as_bool) == Some(true);
        correct &= ok;
        match (field("attempted"), field("failed")) {
            (Some(Json::Num(a)), Some(Json::Num(f))) => {
                attempted += a;
                failed += f;
            }
            _ => {
                attempted += 1.0;
                failed += 1.0;
            }
        }
        if let Some(Json::Obj(ms)) = field("metrics") {
            for (metric, value) in ms {
                metrics.push((format!("{name}.{metric}"), value.clone()));
            }
        }
    }
    Json::Obj(vec![
        ("correct".to_string(), correct.to_json()),
        ("attempted".to_string(), Json::Num(attempted)),
        ("failed".to_string(), Json::Num(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}
