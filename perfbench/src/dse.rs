//! `dse_sweep`: a design-space campaign over every parameterized thrust
//! experiment, run through `f2_bench::campaign::run` on `nproc` workers.
//!
//! The seed generates one manifest: each experiment's default quick
//! scenario (checked against `tests/golden`), every parameter-free catalog
//! experiment, and per parameterized experiment an equal number of
//! scenarios at each of five size levels, from below quick to beyond full
//! fidelity, with seeded scenario seeds and secondary knobs. The closed
//! loop runs that campaign round after round; each round must reproduce
//! the first one's KPIs exactly.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use f2_bench::campaign::{self, CampaignOptions};
use f2_core::experiment::{golden, ExperimentReport, Kpi, Registry, DEFAULT_KPI_TOL};
use f2_core::json::{Json, ToJson};
use f2_core::rng::{rng_for, Rng};

use crate::layers::{interleave, timed_registry, Call, CallLog, LAYERS};
use crate::outcome::{repo_root, Outcome, RunConfig, ScratchDir};
use crate::stats::{digest, median, ms, nproc, peak_rss_mb, quantile_of, reset_peak_rss};

/// Size levels per parameterized experiment.
const LEVELS: usize = 5;

/// Repetitions of each (experiment, level) pair in the benchmark manifest.
pub const REPS: usize = 6;

/// Set-ups timed before the measured rounds, after one untimed warm-up
/// (the first-touch costs of a fresh process are not set-up work);
/// `setup_s` is their median. One takes under a millisecond, so many are
/// needed for a steady median.
const SETUPS: usize = 51;

/// A value a manifest axis can take.
#[derive(Debug, Clone, Copy)]
enum V {
    N(f64),
    S(&'static str),
}

/// One param of a design space: either indexed by the scenario's size
/// level (`LEVELS` values, smallest first) or drawn from the seed.
struct Axis {
    param: &'static str,
    by_level: bool,
    values: &'static [V],
}

const fn level(param: &'static str, values: &'static [V]) -> Axis {
    Axis {
        param,
        by_level: true,
        values,
    }
}

const fn drawn(param: &'static str, values: &'static [V]) -> Axis {
    Axis {
        param,
        by_level: false,
        values,
    }
}

use V::{N, S};

/// The swept design spaces. Level 1 is each experiment's quick size and
/// level 3 its full size; level 0 is below quick and level 4 beyond full.
const SPACES: &[(&str, &[Axis])] = &[
    (
        "sparta_speedup",
        &[
            level("rmat_scale", &[N(7.0), N(8.0), N(9.0), N(10.0), N(11.0)]),
            level(
                "rmat_edge_factor",
                &[N(4.0), N(8.0), N(8.0), N(8.0), N(4.0)],
            ),
        ],
    ),
    (
        "hls/spdataflow",
        &[
            level(
                "rows",
                &[N(128.0), N(256.0), N(512.0), N(1024.0), N(1536.0)],
            ),
            level("nnz_per_row", &[N(4.0), N(8.0), N(8.0), N(12.0), N(16.0)]),
            drawn(
                "pattern",
                &[S("uniform"), S("banded"), S("powerlaw"), S("block")],
            ),
            drawn(
                "dataflow",
                &[S("inner"), S("outer"), S("row"), S("adaptive")],
            ),
            drawn("tile_rows", &[N(4.0), N(8.0), N(16.0)]),
            drawn("buffer_words", &[N(64.0), N(128.0), N(512.0), N(768.0)]),
        ],
    ),
    (
        "imc_accuracy",
        &[
            level(
                "cells",
                &[N(250.0), N(500.0), N(1000.0), N(2000.0), N(3000.0)],
            ),
            level("train_n", &[N(20.0), N(40.0), N(60.0), N(80.0), N(100.0)]),
            level("test_n", &[N(12.0), N(24.0), N(32.0), N(40.0), N(48.0)]),
            level("epochs", &[N(5.0), N(10.0), N(12.0), N(15.0), N(18.0)]),
        ],
    ),
    (
        "imc_energy",
        &[level(
            "mvm_n",
            &[N(32.0), N(64.0), N(96.0), N(128.0), N(192.0)],
        )],
    ),
    (
        "htconv_quality",
        &[
            level("scene_dim", &[N(32.0), N(64.0), N(80.0), N(96.0), N(128.0)]),
            level("scenes", &[N(1.0), N(2.0), N(3.0), N(4.0), N(4.0)]),
            level("in_dim", &[N(16.0), N(32.0), N(40.0), N(48.0), N(64.0)]),
        ],
    ),
    (
        "dna_throughput",
        &[
            level("pairs", &[N(25.0), N(50.0), N(100.0), N(200.0), N(300.0)]),
            level(
                "strand_len",
                &[N(100.0), N(150.0), N(150.0), N(150.0), N(200.0)],
            ),
        ],
    ),
    (
        "dna_pipeline",
        &[
            level("sweep_seeds", &[N(1.0), N(3.0), N(4.0), N(5.0), N(6.0)]),
            level("sub_scale", &[N(0.5), N(1.0), N(1.0), N(1.0), N(2.0)]),
        ],
    ),
    (
        "tcdm_banking",
        &[
            level(
                "vector_len",
                &[N(128.0), N(256.0), N(384.0), N(512.0), N(768.0)],
            ),
            drawn("cores", &[N(2.0), N(4.0), N(8.0), N(16.0)]),
        ],
    ),
    (
        "hetero_pipeline",
        &[level(
            "num_samples",
            &[N(2048.0), N(4096.0), N(8192.0), N(16384.0), N(32768.0)],
        )],
    ),
    (
        "storage_io",
        &[level(
            "num_samples",
            &[N(2048.0), N(4096.0), N(8192.0), N(16384.0), N(32768.0)],
        )],
    ),
];

/// A 53-bit seed (exactly representable as a JSON number).
fn draw_seed(rng: &mut impl Rng) -> f64 {
    (rng.next_u64() >> 11) as f64
}

fn spec(experiment: &str, axes: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("experiment".to_string(), experiment.to_json()),
        ("grid".to_string(), Json::Obj(axes)),
    ])
}

/// Generates the campaign manifest for `seed` with `reps` scenarios per
/// (experiment, size level), plus every experiment's default scenario.
///
/// Every spec is a one-point grid, so manifest order is scenario order.
pub fn manifest(seed: u64, reps: usize) -> String {
    let mut specs: Vec<Json> = crate::layers::experiment_names()
        .into_iter()
        .map(|name| {
            let default_seed = f2_core::rng::DEFAULT_SEED.to_json();
            spec(
                name,
                vec![("seed".to_string(), Json::Arr(vec![default_seed]))],
            )
        })
        .collect();
    for (experiment, axes) in SPACES {
        for lvl in 0..LEVELS {
            for rep in 0..reps {
                let mut rng = rng_for(seed, &format!("perfbench/dse/{experiment}/{lvl}/{rep}"));
                let mut grid = vec![(
                    "seed".to_string(),
                    Json::Arr(vec![Json::Num(draw_seed(&mut rng))]),
                )];
                for axis in *axes {
                    let v = if axis.by_level {
                        axis.values[lvl]
                    } else {
                        axis.values[rng.gen_range(0..axis.values.len())]
                    };
                    let v = match v {
                        N(n) => Json::Num(n),
                        S(s) => s.to_json(),
                    };
                    grid.push((axis.param.to_string(), Json::Arr(vec![v])));
                }
                specs.push(spec(experiment, grid));
            }
        }
    }
    // Seeded order: which scenarios share a pool chunk is part of the input.
    let mut rng = rng_for(seed, "perfbench/dse/order");
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.gen_range(0..i + 1));
    }
    Json::Obj(vec![
        ("schema".to_string(), campaign::MANIFEST_SCHEMA.to_json()),
        ("seed".to_string(), Json::Num(seed as f64)),
        (
            "base".to_string(),
            Json::Obj(vec![
                ("fidelity".to_string(), "quick".to_json()),
                ("threads".to_string(), 1u64.to_json()),
            ]),
        ),
        ("specs".to_string(), Json::Arr(specs)),
    ])
    .encode()
}

/// A set-up sweep: the manifest, its expansion and the golden reports its
/// default scenarios must reproduce.
pub struct Sweep {
    /// The registry every round runs on.
    pub registry: Registry,
    /// Experiment calls recorded by `registry`.
    pub log: Arc<CallLog>,
    /// Manifest text written for `campaign::run`.
    pub manifest: String,
    /// Expanded scenario count.
    pub scenarios: usize,
    /// Scenario index → golden report, for every default scenario.
    pub golden: BTreeMap<usize, ExperimentReport>,
    /// Seconds spent building the registry and expanding the manifest:
    /// the program's set-up of the workload.
    pub setup_s: f64,
}

/// Generates the manifest, builds the registry and expands the manifest
/// (the last two timed as the set-up) and loads the goldens of its
/// default scenarios.
///
/// # Errors
///
/// Reports a manifest that does not expand or a missing golden.
pub fn setup(seed: u64, reps: usize) -> Result<Sweep, String> {
    let manifest = manifest(seed, reps);
    let t = Instant::now();
    let log = Arc::new(CallLog::default());
    let registry = timed_registry(&log);
    let items = campaign::expand_manifest(&manifest, &registry)?;
    let setup_s = t.elapsed().as_secs_f64();
    let golden_dir = repo_root().join("tests").join("golden");
    let mut golden = BTreeMap::new();
    for item in &items {
        if item.scenario == f2_core::scenario::Scenario::default() {
            let path = golden::snapshot_path(&golden_dir, &item.experiment);
            golden.insert(item.index, golden::load(&path)?);
        }
    }
    Ok(Sweep {
        registry,
        log,
        manifest,
        scenarios: items.len(),
        golden,
        setup_s,
    })
}

/// One finished campaign round.
struct Round {
    wall_s: f64,
    calls: Vec<Call>,
}

/// Checks a merged campaign report: every scenario completed with finite
/// KPIs, defaults match their goldens, and (given a reference) every
/// scenario's KPIs equal the reference round's. Returns the per-scenario
/// KPI digests and one message per failed scenario.
fn check_report(sweep: &Sweep, report: &str, reference: Option<&[u64]>) -> (Vec<u64>, Vec<String>) {
    let mut failures = Vec::new();
    let mut digests = vec![0u64; sweep.scenarios];
    let doc = match Json::parse(report) {
        Ok(d) => d,
        Err(e) => {
            return (
                digests,
                vec![format!("campaign report unreadable: {e}"); sweep.scenarios],
            )
        }
    };
    let mut seen = vec![false; sweep.scenarios];
    for result in doc.get("results").and_then(Json::as_array).unwrap_or(&[]) {
        let index = result.get("index").and_then(Json::as_f64).unwrap_or(-1.0);
        if !(0.0..sweep.scenarios as f64).contains(&index) {
            failures.push(format!("result with bad index {index}"));
            continue;
        }
        let index = index as usize;
        seen[index] = true;
        let experiment = result
            .get("experiment")
            .and_then(Json::as_str)
            .unwrap_or("");
        let raw = result.get("kpis").and_then(Json::as_array).unwrap_or(&[]);
        let kpis: Vec<Kpi> = raw
            .iter()
            .filter_map(|k| {
                Some(Kpi {
                    name: k.get("name")?.as_str()?.to_string(),
                    value: k.get("value")?.as_f64()?,
                    tol: DEFAULT_KPI_TOL,
                })
            })
            .collect();
        digests[index] = digest([result
            .get("kpis")
            .map_or(String::new(), Json::encode)
            .as_bytes()]);
        let off_golden = sweep.golden.get(&index).and_then(|expected| {
            let actual = ExperimentReport {
                experiment: experiment.to_string(),
                kpis: kpis.clone(),
            };
            golden::compare(expected, &actual).into_iter().next()
        });
        if kpis.is_empty() || kpis.len() != raw.len() {
            failures.push(format!(
                "scenario {index} ({experiment}): missing or non-finite KPIs"
            ));
        } else if let Some(diff) = off_golden {
            failures.push(format!(
                "scenario {index} ({experiment}) off golden: {diff}"
            ));
        } else if reference.is_some_and(|r| r[index] != digests[index]) {
            failures.push(format!(
                "scenario {index} ({experiment}): KPIs differ from the first round"
            ));
        }
    }
    for (index, ok) in seen.iter().enumerate() {
        if !ok {
            failures.push(format!("scenario {index} did not complete"));
        }
    }
    (digests, failures)
}

/// Runs one campaign round and checks its report.
fn round(
    sweep: &Sweep,
    dir: &Path,
    threads: usize,
    reference: &mut Option<Vec<u64>>,
    out: &mut Outcome,
) -> Round {
    let opts = CampaignOptions {
        manifest: dir.join("manifest.json"),
        out: Some(dir.join("report.json")),
        checkpoint: Some(dir.join("checkpoint.jsonl")),
        resume: false,
        threads,
        golden: None,
        progress: None,
    };
    let t = Instant::now();
    let code = campaign::run(&sweep.registry, &opts);
    let wall_s = t.elapsed().as_secs_f64();
    let calls = sweep.log.drain();
    out.attempted += sweep.scenarios as u64;
    let report = std::fs::read_to_string(dir.join("report.json")).unwrap_or_default();
    let (digests, failures) = check_report(sweep, &report, reference.as_deref());
    if code != 0 && failures.is_empty() {
        out.fail(format!(
            "campaign exited {code} with every scenario correct"
        ));
    }
    for f in failures {
        out.fail(f);
    }
    reference.get_or_insert(digests);
    Round { wall_s, calls }
}

/// Runs rounds until `seconds` have passed (at least one).
fn rounds(
    sweep: &Sweep,
    dir: &Path,
    seconds: f64,
    reference: &mut Option<Vec<u64>>,
    out: &mut Outcome,
) -> Vec<Round> {
    let threads = nproc();
    let start = Instant::now();
    let mut done = Vec::new();
    while done.is_empty() || start.elapsed().as_secs_f64() < seconds {
        done.push(round(sweep, dir, threads, reference, out));
    }
    done
}

/// Runs the `dse_sweep` workload with `reps` scenarios per size level.
pub fn run(cfg: RunConfig, reps: usize) -> Outcome {
    run_with(cfg, || setup(cfg.seed, reps))
}

/// Runs the workload on sweeps built by `make`.
pub fn run_with(cfg: RunConfig, make: impl Fn() -> Result<Sweep, String>) -> Outcome {
    let mut out = Outcome::default();
    let dir = ScratchDir::new("dse_sweep");
    let set_up = |setups: &mut Vec<f64>| {
        let s = make();
        if let Ok(s) = &s {
            setups.push(s.setup_s);
        }
        s
    };
    let _ = make();
    let mut setups = Vec::new();
    let mut sweep = set_up(&mut setups);
    for _ in 1..SETUPS {
        sweep = set_up(&mut setups);
    }
    let sweep = sweep.and_then(|s| {
        std::fs::write(dir.0.join("manifest.json"), &s.manifest)
            .map_err(|e| format!("cannot write the manifest: {e}"))?;
        Ok(s)
    });
    let sweep = match sweep {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("dse_sweep set-up failed: {e}"));
            return out;
        }
    };
    let expand_ms: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let _ = campaign::expand_manifest(&sweep.manifest, &sweep.registry);
            ms(t.elapsed())
        })
        .collect();
    out.set("campaign.expand_ms", median(&expand_ms), "ms");

    let mut reference = None;
    let rate = |rs: &[Round]| {
        median(
            &rs.iter()
                .map(|r| sweep.scenarios as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    if !cfg.trace {
        reset_peak_rss();
        let plain = rounds(&sweep, &dir.0, cfg.seconds, &mut reference, &mut out);
        let peak_rss = peak_rss_mb();
        let lat: Vec<f64> = plain
            .iter()
            .flat_map(|r| &r.calls)
            .map(|c| c.secs() * 1e3)
            .collect();
        out.set("setup_s", median(&setups), "s");
        out.set("throughput_per_s", rate(&plain), "1/s");
        out.set("sweep.scenarios_per_s", rate(&plain), "1/s");
        out.set("p50_ms", quantile_of(&lat, 0.5), "ms");
        out.set("p99_ms", quantile_of(&lat, 0.99), "ms");
        out.set("sweep.scenario_samples", lat.len() as f64, "count");
        out.set("peak_rss_mb", peak_rss, "MiB");
        return out;
    }

    let threads = nproc();
    let (plain, traced, counters) = interleave(cfg.seconds, || {
        round(&sweep, &dir.0, threads, &mut reference, &mut out)
    });
    let n = traced.len() as f64;
    let threads = threads as f64;
    let mut busy = [0.0f64; LAYERS.len()];
    let mut calls = [0u64; LAYERS.len()];
    let (mut idle, mut outside) = (0.0, 0.0);
    for r in &traced {
        let mut round_busy = 0.0;
        for c in &r.calls {
            busy[c.layer] += c.secs();
            calls[c.layer] += 1;
            round_busy += c.secs();
        }
        let first = r.calls.iter().map(|c| c.start).min();
        let last = r.calls.iter().map(|c| c.end).max();
        let window = match (first, last) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        idle += threads * window - round_busy;
        outside += r.wall_s - window;
    }
    for (i, layer) in LAYERS.iter().enumerate() {
        out.set(&format!("{layer}.busy_s"), busy[i] / n, "s");
        out.set(&format!("{layer}.calls"), calls[i] as f64 / n, "count");
    }
    out.set("exec.idle_s", idle / n, "s");
    out.set(
        "exec.steal.chunks",
        counters.get("exec.steal.chunks") as f64 / n,
        "count",
    );
    crate::iss::bb_metrics(&counters, n, &mut out);
    let wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let unattributed = outside - median(&expand_ms) / 1e3 * n;
    out.set("unattributed_frac", unattributed / wall, "ratio");
    out.set(
        "trace_overhead_frac",
        rate(&plain) / rate(&traced) - 1.0,
        "ratio",
    );
    out.set("sweep.scenarios_per_s", rate(&traced), "1/s");
    out
}
