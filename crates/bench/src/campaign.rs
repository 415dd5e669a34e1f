//! `f2 campaign` — expand a scenario manifest and sweep it on the pool.
//!
//! A campaign turns one small JSON manifest into a (possibly very long)
//! list of [`Scenario`]s and runs every one through the experiment
//! registry, with a checkpoint journal so an interrupted sweep resumes
//! instead of recomputing. Everything is deterministic: the manifest's
//! seed drives every random draw through [`f2_core::rng::rng_for`], so
//! the same manifest always expands to the same scenario list and the
//! same merged report, bit for bit, at any `--threads` and across
//! interrupt/resume cycles.
//!
//! ## Manifest (`f2-campaign-manifest-v1`)
//!
//! ```json
//! {
//!   "schema": "f2-campaign-manifest-v1",
//!   "seed": 7,
//!   "base": {"fidelity": "quick", "threads": 1},
//!   "specs": [
//!     {"experiment": "imc_energy",
//!      "grid": {"seed": [1, 2, 3], "mvm_n": [32, 64]}},
//!     {"experiment": "storage_io",
//!      "random": {"count": 1000,
//!                 "dims": {"num_samples": {"min": 16, "max": 64, "int": true}}}}
//!   ]
//! }
//! ```
//!
//! * `seed` (optional) — manifest seed for the random generators.
//! * `base` (optional) — scenario members every expanded scenario starts
//!   from (same format as `f2 run --scenario`).
//! * `grid` specs take the cartesian product of their axes. Axes are
//!   sorted by name; the last sorted axis varies fastest. The special
//!   axis `seed` overrides the scenario seed; every other axis must be a
//!   param the experiment declares.
//! * `random` specs draw `count` scenarios. Each dim draws uniformly in
//!   `[min, max)` (or the integers `min..=max` with `"int": true`) from
//!   `rng_for(seed, "campaign/<spec>/<i>/<dim>")`, and each scenario's
//!   seed from `rng_for(seed, "campaign/seed/<spec>/<i>")` — scenario
//!   `i` of spec `s` is the same no matter what ran before it.
//!
//! ## Outputs
//!
//! The checkpoint (`f2-campaign-checkpoint-v1`) is a JSONL journal: a
//! header line binding the manifest hash and scenario count, then one
//! result line per finished scenario, appended as they complete. On
//! `--resume` finished scenarios are replayed from the journal (a
//! partial trailing line from a crash is ignored); a header that does
//! not match the manifest is an error, not silent recomputation.
//!
//! The merged report (`f2-campaign-v1`) lists every result in scenario
//! order plus per-KPI distributions (`count`/`mean`/`p10`/`p50`/`p90`),
//! and `--golden` checks those distributions against a committed
//! `f2-campaign-dist-v1` snapshot (`F2_BLESS=1` rewrites it) — a
//! distribution-level golden, so a 1000-scenario sweep is gated by one
//! small reviewable file.
//!
//! `--progress <file.jsonl>` makes a long sweep monitorable: it appends
//! `f2-campaign-progress-v1` heartbeat events (scenarios done/total,
//! elapsed, fresh-scenario throughput, ETA), throttled to one event per
//! [`PROGRESS_EVERY`] plus an unconditional final `done == total` event.
//! Heartbeats never touch the checkpoint journal or the merged report,
//! so resume stays bit-identical with or without them.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use f2_core::exec::Pool;
use f2_core::experiment::{golden, ExperimentCtx, Registry};
use f2_core::json::{Json, ToJson};
use f2_core::rng::{rng_for, Rng};
use f2_core::scenario::{ParamValue, Scenario};

/// Schema tag of the campaign manifest document.
pub const MANIFEST_SCHEMA: &str = "f2-campaign-manifest-v1";
/// Schema tag of the merged campaign report.
pub const SCHEMA: &str = "f2-campaign-v1";
/// Schema tag of the checkpoint journal header.
pub const CHECKPOINT_SCHEMA: &str = "f2-campaign-checkpoint-v1";
/// Schema tag of the distribution golden snapshot.
pub const DIST_SCHEMA: &str = "f2-campaign-dist-v1";
/// Schema tag of the `--progress` heartbeat events.
pub const PROGRESS_SCHEMA: &str = "f2-campaign-progress-v1";

/// Minimum spacing between throttled progress heartbeats; the final
/// `done == total` event is always written regardless.
pub const PROGRESS_EVERY: Duration = Duration::from_millis(500);

/// Relative tolerance of the distribution-golden comparison (`count` is
/// compared exactly).
pub const DIST_REL_TOL: f64 = 1e-6;

/// Options of the `campaign` subcommand.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// The manifest file to expand.
    pub manifest: PathBuf,
    /// Merged report path (default `<manifest>.out.json`).
    pub out: Option<PathBuf>,
    /// Checkpoint journal path (default `<manifest>.checkpoint.jsonl`).
    pub checkpoint: Option<PathBuf>,
    /// Replay finished scenarios from the checkpoint.
    pub resume: bool,
    /// Pool workers sweeping the campaign.
    pub threads: usize,
    /// Distribution golden to check (or bless under `F2_BLESS=1`).
    pub golden: Option<PathBuf>,
    /// Append [`PROGRESS_SCHEMA`] heartbeat events here (truncated at
    /// startup). `None` disables them — the zero-cost default.
    pub progress: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self {
            manifest: PathBuf::new(),
            out: None,
            checkpoint: None,
            resume: false,
            threads: f2_core::exec::num_threads(),
            golden: None,
            progress: None,
        }
    }
}

/// Heartbeat writer for `--progress`. Worker threads bump the fresh
/// completion counter as scenarios finish (success or failure — the
/// heartbeat tracks sweep residency, not outcomes); writes are throttled
/// under the sink lock so the journal stays small no matter how fast the
/// pool drains. Checkpoint-replayed scenarios count as done up front but
/// are excluded from the throughput/ETA estimate, which only fresh work
/// informs.
struct Progress {
    total: usize,
    /// Scenarios replayed from the checkpoint before the pool started.
    resumed: usize,
    started: Instant,
    fresh_done: AtomicUsize,
    /// The journal plus the instant of the last written event.
    sink: Mutex<(std::fs::File, Option<Instant>)>,
}

impl Progress {
    fn new(file: std::fs::File, total: usize, resumed: usize) -> Self {
        Self {
            total,
            resumed,
            started: Instant::now(),
            fresh_done: AtomicUsize::new(0),
            sink: Mutex::new((file, None)),
        }
    }

    fn event(&self, done: usize, elapsed: Duration) -> Json {
        let fresh = done.saturating_sub(self.resumed);
        let secs = elapsed.as_secs_f64();
        let throughput = if secs > 0.0 { fresh as f64 / secs } else { 0.0 };
        let remaining = self.total.saturating_sub(done);
        // ETA is unknowable until fresh work has landed; encode that as
        // null rather than a fake number.
        let eta_ms = if throughput > 0.0 {
            (remaining as f64 / throughput * 1e3).to_json()
        } else {
            Json::Null
        };
        Json::Obj(vec![
            ("schema".to_string(), PROGRESS_SCHEMA.to_json()),
            ("done".to_string(), (done as u64).to_json()),
            ("total".to_string(), (self.total as u64).to_json()),
            ("elapsed_ms".to_string(), (secs * 1e3).to_json()),
            ("throughput_per_s".to_string(), throughput.to_json()),
            ("eta_ms".to_string(), eta_ms),
        ])
    }

    /// One scenario finished on a worker; maybe emit a heartbeat.
    fn bump(&self) {
        self.fresh_done.fetch_add(1, Ordering::Relaxed);
        self.tick(false);
    }

    /// Writes a heartbeat unless one landed within [`PROGRESS_EVERY`];
    /// `force` skips the throttle (the final event).
    fn tick(&self, force: bool) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        if !force {
            if let Some(last) = sink.1 {
                if now.duration_since(last) < PROGRESS_EVERY {
                    return;
                }
            }
        }
        sink.1 = Some(now);
        let done = self.resumed + self.fresh_done.load(Ordering::Relaxed);
        let event = self.event(done, now.duration_since(self.started));
        if let Err(e) = writeln!(sink.0, "{}", event.encode()) {
            eprintln!("f2 campaign: progress write failed: {e}");
        }
    }
}

/// One expanded scenario of the campaign: its stable position in the
/// sweep, the target experiment, and the full run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignItem {
    /// Position in the expanded list — the identity resume keys on.
    pub index: usize,
    /// Registry name of the experiment.
    pub experiment: String,
    /// The run configuration.
    pub scenario: Scenario,
}

fn as_u64(v: &Json) -> Option<u64> {
    let n = v.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64).then_some(n as u64)
}

/// Expands a manifest document into the campaign's scenario list.
///
/// Validates everything up front — schema, member names, experiment
/// names, declared params, dim bounds — so a sweep never dies on
/// scenario 900 of 1000 over a typo.
///
/// # Errors
///
/// Returns a human-readable description of the first problem.
pub fn expand_manifest(text: &str, registry: &Registry) -> Result<Vec<CampaignItem>, String> {
    let doc = Json::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    let Json::Obj(members) = &doc else {
        return Err("manifest must be a JSON object".into());
    };
    for (name, _) in members {
        if !matches!(name.as_str(), "schema" | "seed" | "base" | "specs") {
            return Err(format!("unknown manifest member `{name}`"));
        }
    }
    if doc.get("schema").and_then(Json::as_str) != Some(MANIFEST_SCHEMA) {
        return Err(format!("not a `{MANIFEST_SCHEMA}` document"));
    }
    let seed = match doc.get("seed") {
        None => f2_core::rng::DEFAULT_SEED,
        Some(v) => as_u64(v).ok_or("`seed` must be a non-negative integer")?,
    };
    let base = match doc.get("base") {
        None => Scenario::default(),
        Some(b) => Scenario::from_json(b).map_err(|e| format!("invalid `base`: {e}"))?,
    };
    let specs = doc
        .get("specs")
        .and_then(Json::as_array)
        .ok_or("missing `specs` array")?;
    if specs.is_empty() {
        return Err("`specs` must list at least one spec".into());
    }

    let mut items = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let err = |msg: String| format!("spec {si}: {msg}");
        let Json::Obj(members) = spec else {
            return Err(err("must be a JSON object".into()));
        };
        for (name, _) in members {
            if !matches!(name.as_str(), "experiment" | "grid" | "random") {
                return Err(err(format!("unknown member `{name}`")));
            }
        }
        let experiment = spec
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing `experiment` string member".into()))?;
        let Some(exp) = registry.find(experiment) else {
            return Err(err(format!("unknown experiment `{experiment}`")));
        };
        let declared = exp.params();
        let declares = |key: &str| declared.iter().any(|p| p.name == key);

        match (spec.get("grid"), spec.get("random")) {
            (Some(grid), None) => {
                let Json::Obj(raw_axes) = grid else {
                    return Err(err("`grid` must be an object of axes".into()));
                };
                if raw_axes.is_empty() {
                    return Err(err("`grid` needs at least one axis".into()));
                }
                let mut axes: Vec<(&String, &[Json])> = Vec::new();
                for (key, values) in raw_axes {
                    let values = values
                        .as_array()
                        .ok_or_else(|| err(format!("axis `{key}` must be an array")))?;
                    if values.is_empty() {
                        return Err(err(format!("axis `{key}` must not be empty")));
                    }
                    if key != "seed" && !declares(key) {
                        return Err(err(format!(
                            "experiment `{experiment}` has no param `{key}`"
                        )));
                    }
                    axes.push((key, values));
                }
                // Sorted axes: expansion order is a property of the
                // manifest content, not of JSON member order.
                axes.sort_by(|a, b| a.0.cmp(b.0));
                let total: usize = axes.iter().map(|(_, v)| v.len()).product();
                for k in 0..total {
                    let mut scenario = base.clone();
                    // Odometer over the sorted axes, last axis fastest.
                    let mut rem = k;
                    for (key, values) in axes.iter().rev() {
                        let value = &values[rem % values.len()];
                        rem /= values.len();
                        if key.as_str() == "seed" {
                            scenario.seed = as_u64(value).ok_or_else(|| {
                                err("`seed` axis values must be non-negative integers".into())
                            })?;
                        } else {
                            let value = match value {
                                Json::Num(n) => ParamValue::Num(*n),
                                Json::Str(s) => ParamValue::Str(s.clone()),
                                other => {
                                    return Err(err(format!(
                                        "axis `{key}`: unsupported value {other}"
                                    )))
                                }
                            };
                            scenario.set_param(key, value);
                        }
                    }
                    items.push(CampaignItem {
                        index: items.len(),
                        experiment: experiment.to_string(),
                        scenario,
                    });
                }
            }
            (None, Some(random)) => {
                let Json::Obj(random_members) = random else {
                    return Err(err("`random` must be an object".into()));
                };
                for (name, _) in random_members {
                    if !matches!(name.as_str(), "count" | "dims") {
                        return Err(err(format!("unknown `random` member `{name}`")));
                    }
                }
                let count = random
                    .get("count")
                    .and_then(as_u64)
                    .filter(|&c| c >= 1)
                    .ok_or_else(|| err("`random` needs a positive integer `count`".into()))?;
                let Some(Json::Obj(dims)) = random.get("dims") else {
                    return Err(err("`random` needs a `dims` object".into()));
                };
                // Validate the dims once, not per scenario.
                let mut parsed: Vec<(&String, f64, f64, bool)> = Vec::new();
                for (key, dim) in dims {
                    if !declares(key) {
                        return Err(err(format!(
                            "experiment `{experiment}` has no param `{key}`"
                        )));
                    }
                    let Json::Obj(dim_members) = dim else {
                        return Err(err(format!("dim `{key}` must be an object")));
                    };
                    for (name, _) in dim_members {
                        if !matches!(name.as_str(), "min" | "max" | "int") {
                            return Err(err(format!("dim `{key}`: unknown member `{name}`")));
                        }
                    }
                    let min = dim.get("min").and_then(Json::as_f64);
                    let max = dim.get("max").and_then(Json::as_f64);
                    let (Some(min), Some(max)) = (min, max) else {
                        return Err(err(format!("dim `{key}` needs numeric `min` and `max`")));
                    };
                    if !(min.is_finite() && max.is_finite() && min <= max) {
                        return Err(err(format!("dim `{key}`: need finite min <= max")));
                    }
                    let int = match dim.get("int") {
                        None => false,
                        Some(v) => v
                            .as_bool()
                            .ok_or_else(|| err(format!("dim `{key}`: `int` must be a boolean")))?,
                    };
                    if int && (min.fract() != 0.0 || max.fract() != 0.0) {
                        return Err(err(format!("dim `{key}`: integer bounds must be integers")));
                    }
                    parsed.push((key, min, max, int));
                }
                for d in 0..count {
                    let mut scenario = base.clone();
                    scenario.seed = rng_for(seed, &format!("campaign/seed/{si}/{d}")).next_u64();
                    for (key, min, max, int) in &parsed {
                        let u: f64 = rng_for(seed, &format!("campaign/{si}/{d}/{key}")).gen();
                        let value = if *int {
                            (min + u * (max - min + 1.0)).floor().min(*max)
                        } else {
                            min + u * (max - min)
                        };
                        scenario.set_param(key, ParamValue::Num(value));
                    }
                    items.push(CampaignItem {
                        index: items.len(),
                        experiment: experiment.to_string(),
                        scenario,
                    });
                }
            }
            _ => return Err(err("needs exactly one of `grid` or `random`".into())),
        }
    }
    Ok(items)
}

/// Linear-interpolated quantile of an ascending-sorted slice at rank
/// `(n - 1) * q`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile rank out of [0, 1]");
    let rank = (sorted.len() - 1) as f64 * q;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Per-KPI distribution summaries over the merged results, keyed
/// `"<experiment>/<kpi>"` in sorted order.
fn distributions(results: &BTreeMap<usize, Json>) -> Vec<(String, Json)> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for doc in results.values() {
        let Some(experiment) = doc.get("experiment").and_then(Json::as_str) else {
            continue;
        };
        let Some(kpis) = doc.get("kpis").and_then(Json::as_array) else {
            continue;
        };
        for kpi in kpis {
            let (Some(name), Some(value)) = (
                kpi.get("name").and_then(Json::as_str),
                kpi.get("value").and_then(Json::as_f64),
            ) else {
                continue;
            };
            samples
                .entry(format!("{experiment}/{name}"))
                .or_default()
                .push(value);
        }
    }
    samples
        .into_iter()
        .map(|(key, mut values)| {
            values.sort_by(f64::total_cmp);
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let dist = Json::Obj(vec![
                ("count".to_string(), (values.len() as u64).to_json()),
                ("mean".to_string(), mean.to_json()),
                ("p10".to_string(), quantile(&values, 0.1).to_json()),
                ("p50".to_string(), quantile(&values, 0.5).to_json()),
                ("p90".to_string(), quantile(&values, 0.9).to_json()),
            ]);
            (key, dist)
        })
        .collect()
}

/// Writes the distribution golden snapshot (the `F2_BLESS=1` path).
///
/// # Errors
///
/// Returns the I/O problem as text.
pub fn save_dist_golden(
    path: &Path,
    manifest_hash: &str,
    dists: &[(String, Json)],
) -> Result<(), String> {
    let doc = Json::Obj(vec![
        ("schema".to_string(), DIST_SCHEMA.to_json()),
        ("manifest_hash".to_string(), manifest_hash.to_json()),
        ("distributions".to_string(), Json::Obj(dists.to_vec())),
    ]);
    std::fs::write(path, golden::encode_pretty(&doc))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= DIST_REL_TOL * a.abs().max(b.abs())
}

/// Compares the computed distributions against a golden snapshot.
///
/// `count` must match exactly; the statistics within [`DIST_REL_TOL`]
/// relative; the key sets exactly (a vanished or new KPI is a failure
/// either way). Returns the list of mismatches.
///
/// # Errors
///
/// Returns the read/parse problem as text (the caller's exit-2 path).
pub fn check_dist_golden(
    path: &Path,
    manifest_hash: &str,
    dists: &[(String, Json)],
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}; bless with F2_BLESS=1", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: malformed JSON: {e}", path.display()))?;
    if doc.get("schema").and_then(Json::as_str) != Some(DIST_SCHEMA) {
        return Err(format!(
            "{}: not a `{DIST_SCHEMA}` document",
            path.display()
        ));
    }
    let mut failures = Vec::new();
    if doc.get("manifest_hash").and_then(Json::as_str) != Some(manifest_hash) {
        failures.push(format!(
            "manifest hash changed (now {manifest_hash}); re-bless the golden"
        ));
    }
    let Some(Json::Obj(expected)) = doc.get("distributions") else {
        return Err(format!(
            "{}: missing `distributions` object",
            path.display()
        ));
    };
    for (key, want) in expected {
        let Some((_, got)) = dists.iter().find(|(k, _)| k == key) else {
            failures.push(format!("{key}: missing from this run"));
            continue;
        };
        let want_count = want.get("count").and_then(Json::as_f64);
        let got_count = got.get("count").and_then(Json::as_f64);
        if want_count != got_count {
            failures.push(format!(
                "{key}: count {got_count:?} != golden {want_count:?}"
            ));
            continue;
        }
        for stat in ["mean", "p10", "p50", "p90"] {
            let w = want.get(stat).and_then(Json::as_f64);
            let g = got.get(stat).and_then(Json::as_f64);
            match (w, g) {
                (Some(w), Some(g)) if close(w, g) => {}
                _ => failures.push(format!("{key}: {stat} {g:?} vs golden {w:?}")),
            }
        }
    }
    for (key, _) in dists {
        if !expected.iter().any(|(k, _)| k == key) {
            failures.push(format!("{key}: not in the golden; re-bless"));
        }
    }
    Ok(failures)
}

fn checkpoint_header(manifest_hash: &str, scenarios: usize) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), CHECKPOINT_SCHEMA.to_json()),
        ("manifest_hash".to_string(), manifest_hash.to_json()),
        ("scenarios".to_string(), (scenarios as u64).to_json()),
    ])
}

/// Loads finished results from an existing checkpoint journal.
///
/// The header must bind the same manifest hash and scenario count;
/// result lines that fail to parse (a partial line from a crash) are
/// skipped. Later duplicate lines win, matching append order.
fn load_checkpoint(
    path: &Path,
    manifest_hash: &str,
    scenarios: usize,
) -> Result<HashMap<usize, Json>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("checkpoint {} has no header line", path.display()))?;
    let expected = checkpoint_header(manifest_hash, scenarios);
    if header != expected {
        return Err(format!(
            "checkpoint {} belongs to a different campaign \
             (header {header} vs {expected}); delete it or drop --resume",
            path.display()
        ));
    }
    let mut completed = HashMap::new();
    for line in lines {
        let Ok(doc) = Json::parse(line) else {
            continue; // partial trailing line from an interrupt
        };
        let Some(index) = doc.get("index").and_then(as_u64) else {
            continue;
        };
        if (index as usize) < scenarios {
            completed.insert(index as usize, doc);
        }
    }
    Ok(completed)
}

/// Runs one scenario and renders its checkpoint/result line.
fn run_item(registry: &Registry, item: &CampaignItem) -> Result<Json, String> {
    let Some(exp) = registry.find(&item.experiment) else {
        // Validated during expansion; defensive for registry changes.
        return Err(format!("unknown experiment `{}`", item.experiment));
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ctx = ExperimentCtx::quiet_scenario(&item.scenario);
        exp.run(&mut ctx)
    }));
    let report = match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(format!("scenario {}: {e}", item.index)),
        Err(_) => return Err(format!("scenario {}: panicked", item.index)),
    };
    let kpis: Vec<Json> = report
        .kpis
        .iter()
        .map(|k| {
            Json::Obj(vec![
                ("name".to_string(), k.name.to_json()),
                ("value".to_string(), k.value.to_json()),
            ])
        })
        .collect();
    Ok(Json::Obj(vec![
        ("index".to_string(), (item.index as u64).to_json()),
        ("experiment".to_string(), item.experiment.to_json()),
        ("scenario".to_string(), item.scenario.to_json()),
        ("kpis".to_string(), Json::Arr(kpis)),
    ]))
}

/// Runs the full campaign; returns the process exit code (0 ok, 1 failed
/// scenarios or golden mismatch, 2 manifest/checkpoint/usage errors).
pub fn run(registry: &Registry, opts: &CampaignOptions) -> u8 {
    let bytes = match std::fs::read(&opts.manifest) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("f2 campaign: cannot read {}: {e}", opts.manifest.display());
            return 2;
        }
    };
    let manifest_hash = format!("{:016x}", f2_core::rng::fnv1a(&bytes));
    let text = String::from_utf8_lossy(&bytes);
    let items = match expand_manifest(&text, registry) {
        Ok(items) => items,
        Err(e) => {
            eprintln!("f2 campaign: {}: {e}", opts.manifest.display());
            return 2;
        }
    };
    let suffixed = |ext: &str| {
        let mut os = opts.manifest.clone().into_os_string();
        os.push(ext);
        PathBuf::from(os)
    };
    let out_path = opts.out.clone().unwrap_or_else(|| suffixed(".out.json"));
    let ckpt_path = opts
        .checkpoint
        .clone()
        .unwrap_or_else(|| suffixed(".checkpoint.jsonl"));

    // Without --resume the journal starts over; with it, finished lines
    // are replayed and fresh results appended after them.
    let resuming = opts.resume && ckpt_path.exists();
    let completed = if resuming {
        match load_checkpoint(&ckpt_path, &manifest_hash, items.len()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("f2 campaign: {e}");
                return 2;
            }
        }
    } else {
        HashMap::new()
    };
    let mut open = std::fs::OpenOptions::new();
    if resuming {
        open.append(true);
    } else {
        open.write(true).create(true).truncate(true);
    }
    // A crash can leave the journal without a trailing newline; appending
    // straight after would glue the first fresh line onto the partial one.
    let needs_newline = resuming
        && std::fs::read(&ckpt_path)
            .map(|b| b.last() != Some(&b'\n'))
            .unwrap_or(false);
    let ckpt_file = match open.open(&ckpt_path) {
        Ok(mut f) => {
            let lead_in = if resuming {
                if needs_newline {
                    writeln!(f)
                } else {
                    Ok(())
                }
            } else {
                writeln!(
                    f,
                    "{}",
                    checkpoint_header(&manifest_hash, items.len()).encode()
                )
            };
            if let Err(e) = lead_in {
                eprintln!(
                    "f2 campaign: cannot write checkpoint {}: {e}",
                    ckpt_path.display()
                );
                return 2;
            }
            Mutex::new(f)
        }
        Err(e) => {
            eprintln!(
                "f2 campaign: cannot open checkpoint {}: {e}",
                ckpt_path.display()
            );
            return 2;
        }
    };

    let pending: Vec<&CampaignItem> = items
        .iter()
        .filter(|i| !completed.contains_key(&i.index))
        .collect();
    eprintln!(
        "f2 campaign: {} scenario(s), {} from checkpoint, {} to run on {} thread(s)",
        items.len(),
        completed.len(),
        pending.len(),
        opts.threads
    );
    let progress = match &opts.progress {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(Progress::new(f, items.len(), completed.len())),
            Err(e) => {
                eprintln!(
                    "f2 campaign: cannot create progress {}: {e}",
                    path.display()
                );
                return 2;
            }
        },
        None => None,
    };
    let pool = Pool::new(opts.threads);
    let fresh: Vec<(usize, Result<Json, String>)> = pool.map(&pending, |item| {
        let res = run_item(registry, item);
        if let Ok(doc) = &res {
            let mut f = ckpt_file.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = writeln!(f, "{}", doc.encode()) {
                eprintln!(
                    "f2 campaign: checkpoint write failed for scenario {}: {e}",
                    item.index
                );
            }
        }
        if let Some(p) = &progress {
            p.bump();
        }
        (item.index, res)
    });
    if let Some(p) = &progress {
        p.tick(true);
    }

    let mut results: BTreeMap<usize, Json> = completed.into_iter().collect();
    let mut failures = 0usize;
    for (index, res) in fresh {
        match res {
            Ok(doc) => {
                results.insert(index, doc);
            }
            Err(e) => {
                eprintln!("f2 campaign: {e}");
                failures += 1;
            }
        }
    }

    let dists = distributions(&results);
    let merged = Json::Obj(vec![
        ("schema".to_string(), SCHEMA.to_json()),
        ("manifest_hash".to_string(), manifest_hash.to_json()),
        ("scenarios".to_string(), (items.len() as u64).to_json()),
        ("completed".to_string(), (results.len() as u64).to_json()),
        (
            "results".to_string(),
            Json::Arr(results.values().cloned().collect()),
        ),
        ("distributions".to_string(), Json::Obj(dists.clone())),
    ]);
    if let Err(e) = std::fs::write(&out_path, format!("{}\n", merged.encode())) {
        eprintln!("f2 campaign: cannot write {}: {e}", out_path.display());
        return 2;
    }
    eprintln!(
        "f2 campaign: wrote {} result(s) and {} distribution(s) to {}",
        results.len(),
        dists.len(),
        out_path.display()
    );

    let mut golden_failed = false;
    if let Some(gpath) = &opts.golden {
        if golden::bless_requested() {
            match save_dist_golden(gpath, &manifest_hash, &dists) {
                Ok(()) => eprintln!("f2 campaign: blessed golden {}", gpath.display()),
                Err(e) => {
                    eprintln!("f2 campaign: {e}");
                    return 2;
                }
            }
        } else {
            match check_dist_golden(gpath, &manifest_hash, &dists) {
                Ok(mismatches) if mismatches.is_empty() => {
                    eprintln!(
                        "f2 campaign: {} distribution(s) match {}",
                        dists.len(),
                        gpath.display()
                    );
                }
                Ok(mismatches) => {
                    for m in &mismatches {
                        eprintln!("f2 campaign: golden: {m}");
                    }
                    golden_failed = true;
                }
                Err(e) => {
                    eprintln!("f2 campaign: {e}");
                    return 2;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "f2 campaign: {failures} scenario(s) failed out of {}",
            items.len()
        );
    }
    u8::from(failures > 0 || golden_failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::experiment::{Experiment, ExperimentReport, ParamSpec};
    use f2_core::scenario::Fidelity;

    /// Deterministic fixture: one KPI fully determined by seed and params.
    struct Poly;

    impl Experiment for Poly {
        fn name(&self) -> &'static str {
            "poly"
        }
        fn summary(&self) -> &'static str {
            "campaign test fixture"
        }
        fn tags(&self) -> &'static [&'static str] {
            &["campaign-test"]
        }
        fn params(&self) -> Vec<ParamSpec> {
            vec![
                ParamSpec::f64("x", "polynomial input"),
                ParamSpec::u64("n", "multiplier"),
            ]
        }
        fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
            let x = ctx.param_f64("x", 1.0);
            let n = ctx.param_u64("n", 2);
            ctx.kpi("y", x * n as f64 + (ctx.seed() % 97) as f64);
            Ok(ctx.report(self.name()))
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(Poly));
        r
    }

    const MANIFEST: &str = r#"{
        "schema": "f2-campaign-manifest-v1",
        "seed": 7,
        "base": {"fidelity": "quick"},
        "specs": [
            {"experiment": "poly", "grid": {"seed": [1, 2], "x": [0.5, 1.5]}},
            {"experiment": "poly",
             "random": {"count": 8,
                        "dims": {"n": {"min": 1, "max": 4, "int": true},
                                 "x": {"min": 0, "max": 1}}}}
        ]
    }"#;

    #[test]
    fn grid_expansion_is_sorted_cartesian_last_axis_fastest() {
        let items = expand_manifest(MANIFEST, &registry()).expect("expands");
        assert_eq!(items.len(), 2 * 2 + 8);
        // Sorted axes: `seed` < `x`, so x varies fastest.
        let combos: Vec<(u64, &ParamValue)> = items[..4]
            .iter()
            .map(|i| (i.scenario.seed, i.scenario.param("x").expect("x set")))
            .collect();
        assert_eq!(
            combos,
            vec![
                (1, &ParamValue::Num(0.5)),
                (1, &ParamValue::Num(1.5)),
                (2, &ParamValue::Num(0.5)),
                (2, &ParamValue::Num(1.5)),
            ]
        );
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.index, i);
            assert_eq!(item.scenario.fidelity, Fidelity::Quick, "base applied");
        }
    }

    #[test]
    fn random_expansion_is_deterministic_and_in_bounds() {
        let a = expand_manifest(MANIFEST, &registry()).expect("expands");
        let b = expand_manifest(MANIFEST, &registry()).expect("expands");
        assert_eq!(a, b, "same manifest, same scenario list");
        let mut seeds = std::collections::HashSet::new();
        for item in &a[4..] {
            seeds.insert(item.scenario.seed);
            let ParamValue::Num(n) = item.scenario.param("n").expect("n drawn") else {
                panic!("n must be numeric");
            };
            assert!((1.0..=4.0).contains(n) && n.fract() == 0.0, "n={n}");
            let ParamValue::Num(x) = item.scenario.param("x").expect("x drawn") else {
                panic!("x must be numeric");
            };
            assert!((0.0..1.0).contains(x), "x={x}");
        }
        assert!(seeds.len() > 1, "random scenarios draw distinct seeds");
    }

    #[test]
    fn manifest_validation_rejects_garbage() {
        let reg = registry();
        for (text, needle) in [
            ("{not json", "malformed"),
            ("[1]", "must be a JSON object"),
            (
                r#"{"schema":"other","specs":[]}"#,
                "not a `f2-campaign-manifest-v1`",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1","specs":[]}"#,
                "at least one",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1","sxecs":[]}"#,
                "unknown manifest member",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1","specs":[{"grid":{}}]}"#,
                "missing `experiment`",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "specs":[{"experiment":"ghost","grid":{"x":[1]}}]}"#,
                "unknown experiment",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "specs":[{"experiment":"poly","grid":{"nope":[1]}}]}"#,
                "no param `nope`",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "specs":[{"experiment":"poly"}]}"#,
                "exactly one of",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "specs":[{"experiment":"poly","grid":{"x":[1]},
                              "random":{"count":1,"dims":{}}}]}"#,
                "exactly one of",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "specs":[{"experiment":"poly","grid":{"x":[]}}]}"#,
                "not be empty",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "specs":[{"experiment":"poly",
                              "random":{"count":0,"dims":{}}}]}"#,
                "positive integer `count`",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "specs":[{"experiment":"poly",
                              "random":{"count":1,
                                        "dims":{"x":{"min":2,"max":1}}}}]}"#,
                "min <= max",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "specs":[{"experiment":"poly",
                              "random":{"count":1,
                                        "dims":{"n":{"min":0.5,"max":2,"int":true}}}}]}"#,
                "integer bounds",
            ),
            (
                r#"{"schema":"f2-campaign-manifest-v1",
                    "base":{"fidelity":{"scale":0.5}},
                    "specs":[{"experiment":"poly","grid":{"x":[1]}}]}"#,
                "fidelity",
            ),
        ] {
            let err = expand_manifest(text, &reg).expect_err(text);
            assert!(err.contains(needle), "{text}: got `{err}`, want `{needle}`");
        }
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.1) - 1.3).abs() < 1e-12);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    #[test]
    fn campaign_runs_checkpoints_and_resumes_bit_identically() {
        let reg = registry();
        let manifest = tmp("f2-campaign-test-manifest.json");
        let out = tmp("f2-campaign-test-out.json");
        let ckpt = tmp("f2-campaign-test-ckpt.jsonl");
        std::fs::write(&manifest, MANIFEST).expect("writable tmp");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&ckpt);
        let opts = CampaignOptions {
            manifest: manifest.clone(),
            out: Some(out.clone()),
            checkpoint: Some(ckpt.clone()),
            resume: false,
            threads: 2,
            golden: None,
            progress: None,
        };
        assert_eq!(run(&reg, &opts), 0);
        let full = std::fs::read(&out).expect("output written");
        let doc = Json::parse(std::str::from_utf8(&full).expect("utf8")).expect("parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("scenarios").and_then(Json::as_f64), Some(12.0));
        assert_eq!(doc.get("completed").and_then(Json::as_f64), Some(12.0));
        let results = doc
            .get("results")
            .and_then(Json::as_array)
            .expect("results");
        assert_eq!(results.len(), 12);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.get("index").and_then(Json::as_f64), Some(i as f64));
        }
        let dist = doc
            .get("distributions")
            .and_then(|d| d.get("poly/y"))
            .expect("poly/y distribution");
        assert_eq!(dist.get("count").and_then(Json::as_f64), Some(12.0));

        // Simulate an interrupt: keep the header, five finished lines and
        // a partial sixth; the resumed run must replay the five, recompute
        // the rest, and merge to a bit-identical output.
        let journal = std::fs::read_to_string(&ckpt).expect("checkpoint written");
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 13, "header + one line per scenario");
        let mut truncated: String = lines[..6].join("\n");
        truncated.push('\n');
        truncated.push_str(&lines[6][..lines[6].len() / 2]);
        std::fs::write(&ckpt, &truncated).expect("writable tmp");
        std::fs::remove_file(&out).expect("drop first output");
        let resumed = CampaignOptions {
            resume: true,
            ..opts.clone()
        };
        assert_eq!(run(&reg, &resumed), 0);
        let merged = std::fs::read(&out).expect("resumed output written");
        assert_eq!(merged, full, "resume must merge bit-identically");

        // A checkpoint from a different manifest is refused, not reused.
        let other = tmp("f2-campaign-test-manifest2.json");
        std::fs::write(&other, MANIFEST.replace("\"seed\": 7", "\"seed\": 8"))
            .expect("writable tmp");
        let mismatched = CampaignOptions {
            manifest: other.clone(),
            ..resumed
        };
        assert_eq!(run(&reg, &mismatched), 2);
        for p in [&manifest, &out, &ckpt, &other] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn progress_heartbeats_track_the_sweep_and_end_complete() {
        let reg = registry();
        let manifest = tmp("f2-campaign-progress-manifest.json");
        let out = tmp("f2-campaign-progress-out.json");
        let ckpt = tmp("f2-campaign-progress-ckpt.jsonl");
        let prog = tmp("f2-campaign-progress-events.jsonl");
        std::fs::write(&manifest, MANIFEST).expect("writable tmp");
        let opts = CampaignOptions {
            manifest: manifest.clone(),
            out: Some(out.clone()),
            checkpoint: Some(ckpt.clone()),
            resume: false,
            threads: 2,
            golden: None,
            progress: Some(prog.clone()),
        };
        assert_eq!(run(&reg, &opts), 0);
        let baseline = std::fs::read(&out).expect("output written");
        let journal = std::fs::read_to_string(&prog).expect("progress written");
        let events: Vec<Json> = journal
            .lines()
            .map(|l| Json::parse(l).expect("well-formed event"))
            .collect();
        assert!(!events.is_empty(), "at least the final event");
        let mut last_done = 0.0;
        for e in &events {
            assert_eq!(
                e.get("schema").and_then(Json::as_str),
                Some(PROGRESS_SCHEMA)
            );
            assert_eq!(e.get("total").and_then(Json::as_f64), Some(12.0));
            let done = e.get("done").and_then(Json::as_f64).expect("done");
            assert!(done >= last_done, "done is monotonic");
            last_done = done;
            assert!(e.get("elapsed_ms").and_then(Json::as_f64).expect("elapsed") >= 0.0);
            let tput = e
                .get("throughput_per_s")
                .and_then(Json::as_f64)
                .expect("throughput");
            assert!(tput >= 0.0);
            // ETA is a number once fresh work landed, null before.
            match e.get("eta_ms") {
                Some(Json::Null) => assert_eq!(tput, 0.0),
                Some(v) => assert!(v.as_f64().expect("numeric eta") >= 0.0),
                None => panic!("missing eta_ms"),
            }
        }
        let finale = events.last().expect("nonempty");
        assert_eq!(finale.get("done").and_then(Json::as_f64), Some(12.0));

        // Heartbeats never perturb the sweep itself: a re-run without
        // them produces a bit-identical merged report and checkpoint.
        let journal_lines = std::fs::read_to_string(&ckpt)
            .expect("ckpt")
            .lines()
            .count();
        assert_eq!(journal_lines, 13, "header + one line per scenario");
        std::fs::remove_file(&out).expect("drop output");
        let silent = CampaignOptions {
            progress: None,
            ..opts
        };
        assert_eq!(run(&reg, &silent), 0);
        assert_eq!(std::fs::read(&out).expect("rerun output"), baseline);
        for p in [&manifest, &out, &ckpt, &prog] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn dist_golden_round_trips_and_flags_drift() {
        let dists = vec![(
            "poly/y".to_string(),
            Json::Obj(vec![
                ("count".to_string(), 12u64.to_json()),
                ("mean".to_string(), 3.25.to_json()),
                ("p10".to_string(), 1.0.to_json()),
                ("p50".to_string(), 3.0.to_json()),
                ("p90".to_string(), 6.0.to_json()),
            ]),
        )];
        let path = tmp("f2-campaign-test-golden.json");
        save_dist_golden(&path, "00000000deadbeef", &dists).expect("writes");
        assert_eq!(
            check_dist_golden(&path, "00000000deadbeef", &dists).expect("readable"),
            Vec::<String>::new()
        );
        // Tiny drift within tolerance passes; real drift fails.
        let mut near = dists.clone();
        near[0].1 = Json::Obj(vec![
            ("count".to_string(), 12u64.to_json()),
            ("mean".to_string(), (3.25 * (1.0 + 1e-9)).to_json()),
            ("p10".to_string(), 1.0.to_json()),
            ("p50".to_string(), 3.0.to_json()),
            ("p90".to_string(), 6.0.to_json()),
        ]);
        assert!(check_dist_golden(&path, "00000000deadbeef", &near)
            .expect("readable")
            .is_empty());
        let mut far = dists.clone();
        far[0].1 = Json::Obj(vec![
            ("count".to_string(), 12u64.to_json()),
            ("mean".to_string(), 3.5.to_json()),
            ("p10".to_string(), 1.0.to_json()),
            ("p50".to_string(), 3.0.to_json()),
            ("p90".to_string(), 6.0.to_json()),
        ]);
        let failures = check_dist_golden(&path, "00000000deadbeef", &far).expect("readable");
        assert!(failures.iter().any(|f| f.contains("mean")), "{failures:?}");
        // Changed manifest hash and changed key set both fail loudly.
        assert!(!check_dist_golden(&path, "ffffffffffffffff", &dists)
            .expect("readable")
            .is_empty());
        let extra = vec![dists[0].clone(), ("poly/z".to_string(), dists[0].1.clone())];
        assert!(check_dist_golden(&path, "00000000deadbeef", &extra)
            .expect("readable")
            .iter()
            .any(|f| f.contains("poly/z")));
        let missing = check_dist_golden(&path, "00000000deadbeef", &[]).expect("readable");
        assert!(missing.iter().any(|f| f.contains("missing")), "{missing:?}");
        let _ = std::fs::remove_file(&path);
    }
}
