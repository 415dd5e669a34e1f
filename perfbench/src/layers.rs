//! Per-layer timing from the benchmark's side of the boundary.
//!
//! [`timed_registry`] builds the same experiment registry the `f2` runner
//! uses, except that each entry is wrapped so every `Experiment::run` call
//! records its start, end and owning thrust crate. The campaign and serve
//! code then run unchanged on top of it; no span is added inside the
//! program.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use f2_core::experiment::{Experiment, ExperimentCtx, ExperimentReport, ParamSpec, Registry};
use f2_core::trace::{self, TraceReport};

/// The thrust layers whose experiment time is reported, in report order.
pub const LAYERS: [&str; 7] = ["dna", "imc", "hls", "approx", "hetero", "core", "scf"];

/// One finished `Experiment::run` call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Index into [`LAYERS`].
    pub layer: usize,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Call {
    /// Call duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Calls recorded by a [`timed_registry`], drained by the workload.
#[derive(Debug, Default)]
pub struct CallLog(Mutex<Vec<Call>>);

impl CallLog {
    /// Takes every call recorded so far.
    pub fn drain(&self) -> Vec<Call> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

struct Timed {
    inner: Box<dyn Experiment>,
    layer: usize,
    log: Arc<CallLog>,
}

impl Experiment for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn summary(&self) -> &'static str {
        self.inner.summary()
    }
    fn tags(&self) -> &'static [&'static str] {
        self.inner.tags()
    }
    fn params(&self) -> Vec<ParamSpec> {
        self.inner.params()
    }
    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        let start = Instant::now();
        let report = self.inner.run(ctx);
        let end = Instant::now();
        self.log
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Call {
                layer: self.layer,
                start,
                end,
            });
        report
    }
}

/// The thrust experiments grouped by the crate that implements them, in
/// [`LAYERS`] order. The `kernels` micro-bench suite is left out: it runs
/// for a fixed wall-clock time per sample, so it measures nothing here.
fn experiments_by_layer() -> [Vec<Box<dyn Experiment>>; 7] {
    [
        flagship2::dna::experiments::experiments(),
        flagship2::imc::experiments::experiments(),
        flagship2::hls::experiments::experiments(),
        flagship2::approx::experiments::experiments(),
        flagship2::hetero::experiments::experiments(),
        f2_core::experiment::catalog::experiments(),
        flagship2::scf::experiments::experiments(),
    ]
}

/// A registry of every thrust and catalog experiment whose runs are
/// recorded in `log`.
pub fn timed_registry(log: &Arc<CallLog>) -> Registry {
    let mut registry = Registry::new();
    for (layer, experiments) in experiments_by_layer().into_iter().enumerate() {
        for inner in experiments {
            registry.register(Box::new(Timed {
                inner,
                layer,
                log: Arc::clone(log),
            }));
        }
    }
    registry
}

/// Registry names of every experiment [`timed_registry`] holds.
pub fn experiment_names() -> Vec<&'static str> {
    experiments_by_layer()
        .iter()
        .flatten()
        .map(|e| e.name())
        .collect()
}

/// Counter totals summed over several trace sessions.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Adds a finished session's counters.
    pub fn add(&mut self, report: &TraceReport) {
        for (name, value) in &report.counters {
            *self.0.entry(name.clone()).or_default() += value;
        }
    }

    /// Total of the named counter (0 when never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Alternates an untraced and a traced call of `unit` until `seconds`
/// have passed (at least one of each), so that host drift slows both
/// sides alike. Returns the untraced results, the traced results and the
/// traced calls' counters.
pub fn interleave<T>(seconds: f64, mut unit: impl FnMut() -> T) -> (Vec<T>, Vec<T>, Counters) {
    let start = Instant::now();
    let (mut plain, mut traced, mut counters) = (Vec::new(), Vec::new(), Counters::default());
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        plain.push(unit());
        let session = trace::session();
        traced.push(unit());
        counters.add(&session.finish());
    }
    (plain, traced, counters)
}
