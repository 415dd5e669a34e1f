//! Seedless sections: the parts of an experiment whose output cannot
//! depend on the scenario seed.
//!
//! Some sections draw everything from fixed seeds (a dataset generated at
//! seed 7, an RMAT graph at [`crate::rng::DEFAULT_SEED`]). A campaign with
//! a seed axis would recompute their tables once per seed.
//! [`ExperimentCtx::seedless`] runs such a section in a [`SeedlessCtx`],
//! records what it emitted and replays the recording into the caller; a
//! [`SeedlessMemo`] shared by a campaign's contexts lets every scenario
//! with the same key replay one recording instead of running the section
//! again.
//!
//! Seed-blindness is enforced by the compiler. The section is a plain
//! `fn` pointer, so it captures nothing from the caller, and
//! [`SeedlessCtx`] has no method that reaches the seed:
//!
//! ```
//! use f2_core::experiment::{ExperimentCtx, SeedlessCtx};
//! use f2_core::scenario::Scenario;
//!
//! fn squares(ctx: &mut SeedlessCtx) {
//!     let n = ctx.param_u64("n", 4);
//!     ctx.section("Squares");
//!     ctx.kpi("sum", (0..n).map(|i| (i * i) as f64).sum());
//! }
//!
//! let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
//! ctx.seedless("demo/squares", squares);
//! assert_eq!(ctx.report("demo").kpi("sum"), Some(14.0));
//! assert!(ctx.rendered().contains("=== Squares ==="));
//! ```
//!
//! A section that asks for the seed, a seeded stream or the scenario
//! does not compile:
//!
//! ```compile_fail,E0599
//! # use f2_core::experiment::SeedlessCtx;
//! fn section(ctx: &mut SeedlessCtx) {
//!     ctx.kpi("seed", ctx.seed() as f64);
//! }
//! ```
//!
//! ```compile_fail,E0599
//! # use f2_core::experiment::SeedlessCtx;
//! fn section(ctx: &mut SeedlessCtx) {
//!     let _rng = ctx.rng_for("stream");
//! }
//! ```
//!
//! ```compile_fail,E0599
//! # use f2_core::experiment::SeedlessCtx;
//! fn section(ctx: &mut SeedlessCtx) {
//!     let _seed = ctx.scenario().seed;
//! }
//! ```
//!
//! Neither does a closure that captures a seed read outside the section:
//!
//! ```compile_fail,E0308
//! # use f2_core::experiment::{ExperimentCtx, SeedlessCtx};
//! # use f2_core::scenario::Scenario;
//! let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
//! let seed = ctx.seed();
//! ctx.seedless("demo/seed", move |s: &mut SeedlessCtx| s.kpi("seed", seed as f64));
//! ```

use std::collections::HashMap;
use std::fmt::Display;
use std::sync::{Arc, Mutex, OnceLock};

use super::{ExperimentCtx, Kpi, Output};
use crate::json::{Json, ToJson};
use crate::scenario::Scenario;

/// What one seedless section emitted: its rendered text, KPIs (with their
/// tolerances) and structured records, each in emission order.
#[derive(Debug)]
struct Recording {
    text: String,
    kpis: Vec<Kpi>,
    records: Vec<(String, Json)>,
}

impl Recording {
    /// Runs `section` in a fresh buffered sub-context for the seed-free
    /// `scenario`. The section's trailing `section:` span closes before
    /// this returns.
    fn capture(scenario: &Scenario, section: fn(&mut SeedlessCtx)) -> Self {
        let mut ctx = SeedlessCtx {
            inner: ExperimentCtx::quiet_scenario(scenario),
        };
        section(&mut ctx);
        let mut sub = ctx.inner;
        sub.section_span = None;
        let Output::Buffer(text) = sub.output else {
            unreachable!("a quiet context buffers its output")
        };
        Self {
            text,
            kpis: sub.kpis,
            records: sub.records,
        }
    }

    /// Emits the recording into `ctx` as if the section had run there.
    ///
    /// # Panics
    ///
    /// Panics if a recorded KPI name is already in `ctx`'s report.
    fn replay(&self, ctx: &mut ExperimentCtx) {
        match &mut ctx.output {
            Output::Stdout => print!("{}", self.text),
            Output::Buffer(buf) => buf.push_str(&self.text),
        }
        for k in &self.kpis {
            ctx.kpi_tol(&k.name, k.value, k.tol);
        }
        ctx.records.extend(self.records.iter().cloned());
    }
}

/// One recording per `(label, seed-free scenario)` key, shared by every
/// context of one campaign.
///
/// Each key has its own once-cell: the first context to ask runs the
/// section, a context asking while it runs waits for it, and later ones
/// replay it. A section that panics stores nothing, so the panic fails
/// only the scenario that ran it. Drop the memo with the campaign: it
/// grows with every distinct key it sees.
#[derive(Default)]
pub struct SeedlessMemo {
    cells: Mutex<HashMap<(String, Scenario), Cell>>,
}

/// The recording of one memo key, set by the first run that finishes.
type Cell = Arc<OnceLock<Recording>>;

impl SeedlessMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, label: &str, scenario: &Scenario) -> Cell {
        let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            cells
                .entry((label.to_string(), scenario.clone()))
                .or_default(),
        )
    }
}

impl ExperimentCtx {
    /// Shares a campaign's [`SeedlessMemo`] with this context, so each
    /// [`ExperimentCtx::seedless`] section runs once per distinct key
    /// across every context holding the memo.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<SeedlessMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Runs a section whose output cannot depend on the scenario seed.
    ///
    /// `section` runs in a [`SeedlessCtx`] that holds this scenario's
    /// fidelity, threads and params but not its seed; what it emits
    /// (headings, tables, notes, KPIs with their tolerances, records) is
    /// then replayed here in order. With a memo ([`ExperimentCtx::with_memo`])
    /// the recording is stored under `label` and the scenario minus its
    /// seed, and a later context with the same key replays it without
    /// running the section; spans and counters come only from real runs.
    /// Labels are `<experiment>/<section>`, unique across the registry.
    ///
    /// The caller's open `section:` span closes first, so the section's
    /// spans never nest inside it.
    ///
    /// # Panics
    ///
    /// Propagates a panic of `section`, and panics if a recorded KPI name
    /// repeats one already in this context.
    pub fn seedless(&mut self, label: &str, section: fn(&mut SeedlessCtx)) {
        self.section_span = None;
        let mut key = self.scenario.clone();
        key.seed = 0;
        match self.memo.as_ref().map(|memo| memo.cell(label, &key)) {
            Some(cell) => cell
                .get_or_init(|| Recording::capture(&key, section))
                .replay(self),
            None => Recording::capture(&key, section).replay(self),
        }
    }
}

/// The context of a seedless section: the seed-free subset of
/// [`ExperimentCtx`], delegated to a buffered sub-context whose scenario
/// has the seed removed. It has no `seed`, `rng_for` or `scenario`.
pub struct SeedlessCtx {
    inner: ExperimentCtx,
}

impl SeedlessCtx {
    /// See [`ExperimentCtx::quick`].
    pub fn quick(&self) -> bool {
        self.inner.quick()
    }

    /// See [`ExperimentCtx::threads`].
    pub fn threads(&self) -> usize {
        self.inner.threads()
    }

    /// See [`ExperimentCtx::param_u64`].
    ///
    /// # Panics
    ///
    /// As [`ExperimentCtx::param_u64`].
    pub fn param_u64(&self, name: &str, default: u64) -> u64 {
        self.inner.param_u64(name, default)
    }

    /// See [`ExperimentCtx::param_f64`].
    ///
    /// # Panics
    ///
    /// As [`ExperimentCtx::param_f64`].
    pub fn param_f64(&self, name: &str, default: f64) -> f64 {
        self.inner.param_f64(name, default)
    }

    /// See [`ExperimentCtx::param_str`].
    ///
    /// # Panics
    ///
    /// As [`ExperimentCtx::param_str`].
    pub fn param_str(&self, name: &str, default: &str) -> String {
        self.inner.param_str(name, default)
    }

    /// See [`ExperimentCtx::exec`].
    pub fn exec(&self) -> &crate::exec::Pool {
        self.inner.exec()
    }

    /// See [`ExperimentCtx::section`].
    pub fn section(&mut self, title: &str) {
        self.inner.section(title);
    }

    /// See [`ExperimentCtx::table`].
    ///
    /// # Panics
    ///
    /// As [`ExperimentCtx::table`].
    pub fn table<S: Display>(&mut self, headers: &[&str], rows: &[Vec<S>]) {
        self.inner.table(headers, rows);
    }

    /// See [`ExperimentCtx::note`].
    pub fn note(&mut self, text: &str) {
        self.inner.note(text);
    }

    /// See [`ExperimentCtx::kpi`].
    ///
    /// # Panics
    ///
    /// As [`ExperimentCtx::kpi`].
    pub fn kpi(&mut self, name: &str, value: f64) {
        self.inner.kpi(name, value);
    }

    /// See [`ExperimentCtx::kpi_tol`].
    ///
    /// # Panics
    ///
    /// As [`ExperimentCtx::kpi`].
    pub fn kpi_tol(&mut self, name: &str, value: f64, tol: f64) {
        self.inner.kpi_tol(name, value, tol);
    }

    /// See [`ExperimentCtx::record`].
    pub fn record(&mut self, label: &str, value: &impl ToJson) {
        self.inner.record(label, value);
    }

    /// See [`ExperimentCtx::span`].
    pub fn span(&self, label: &str) -> crate::trace::SpanGuard {
        self.inner.span(label)
    }

    /// See [`ExperimentCtx::counter`].
    pub fn counter(&self, name: &str) {
        self.inner.counter(name);
    }

    /// See [`ExperimentCtx::counter_add`].
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.inner.counter_add(name, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Fidelity, ParamValue};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scenario(seed: u64, n: f64) -> Scenario {
        Scenario::new(seed, Fidelity::Quick, 2).with_param("n", ParamValue::Num(n))
    }

    /// Emits one of everything a section can emit.
    fn everything(ctx: &mut SeedlessCtx) {
        let n = ctx.param_u64("n", 1);
        ctx.section(&format!("Table n={n}"));
        ctx.table(&["i", "i^2"], &[vec![n, n * n]]);
        ctx.note("note");
        ctx.kpi("sum", n as f64);
        ctx.kpi_tol("loose", 0.5, 0.1);
        ctx.record("rec", &(n as f64));
    }

    #[test]
    fn a_section_replays_what_it_emitted_in_order() {
        let mut ctx = ExperimentCtx::quiet_scenario(&scenario(5, 3.0));
        ctx.section("Before");
        ctx.seedless("test/everything", everything);
        ctx.note("after");
        let report = ctx.report("t");

        let mut direct = ExperimentCtx::quiet_scenario(&scenario(5, 3.0));
        direct.section("Before");
        direct.section("Table n=3");
        direct.table(&["i", "i^2"], &[vec![3, 9]]);
        direct.note("note");
        direct.kpi("sum", 3.0);
        direct.kpi_tol("loose", 0.5, 0.1);
        direct.record("rec", &3.0);
        direct.note("after");
        assert_eq!(ctx.rendered(), direct.rendered());
        assert_eq!(report, direct.report("t"));
        assert_eq!(ctx.records(), direct.records());
    }

    static COUNTED_RUNS: AtomicUsize = AtomicUsize::new(0);

    fn counted(ctx: &mut SeedlessCtx) {
        COUNTED_RUNS.fetch_add(1, Ordering::SeqCst);
        everything(ctx);
    }

    #[test]
    fn a_memo_runs_each_key_once_and_replays_it_at_every_seed() {
        let memo = Arc::new(SeedlessMemo::new());
        let mut outputs = Vec::new();
        for n in [1.0, 2.0] {
            for seed in [1, 2, 3] {
                let mut ctx =
                    ExperimentCtx::quiet_scenario(&scenario(seed, n)).with_memo(Arc::clone(&memo));
                ctx.seedless("test/counted", counted);
                let report = ctx.report("t");
                outputs.push((n, ctx.rendered().to_string(), report));
            }
        }
        assert_eq!(COUNTED_RUNS.load(Ordering::SeqCst), 2, "one run per n");
        for (n, text, report) in &outputs {
            let mut fresh = ExperimentCtx::quiet_scenario(&scenario(9, *n));
            fresh.seedless("test/counted", counted);
            assert_eq!(text, fresh.rendered());
            assert_eq!(report, &fresh.report("t"));
        }
        // Two threads asking for a fresh key at once share one run.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for seed in [4, 5] {
                let (memo, barrier) = (Arc::clone(&memo), &barrier);
                s.spawn(move || {
                    let mut ctx =
                        ExperimentCtx::quiet_scenario(&scenario(seed, 7.0)).with_memo(memo);
                    barrier.wait();
                    ctx.seedless("test/counted", counted);
                    assert_eq!(ctx.report("t").kpi("sum"), Some(7.0));
                });
            }
        });
        assert_eq!(COUNTED_RUNS.load(Ordering::SeqCst), 2 + 6 + 1);
    }

    static FRAGILE_RUNS: AtomicUsize = AtomicUsize::new(0);

    fn fragile(ctx: &mut SeedlessCtx) {
        FRAGILE_RUNS.fetch_add(1, Ordering::SeqCst);
        assert!(ctx.param_u64("n", 0) != 13, "unlucky n");
        ctx.kpi("ok", 1.0);
    }

    #[test]
    fn a_panicking_section_stores_nothing() {
        let memo = Arc::new(SeedlessMemo::new());
        let run = |seed, n| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut ctx =
                    ExperimentCtx::quiet_scenario(&scenario(seed, n)).with_memo(Arc::clone(&memo));
                ctx.seedless("test/fragile", fragile);
                ctx.report("t").kpi("ok")
            }))
        };
        assert!(run(1, 13.0).is_err());
        assert!(run(2, 13.0).is_err(), "the failed run left no recording");
        assert_eq!(FRAGILE_RUNS.load(Ordering::SeqCst), 2);
        assert_eq!(run(1, 1.0).ok(), Some(Some(1.0)));
        assert_eq!(run(2, 1.0).ok(), Some(Some(1.0)));
        assert_eq!(FRAGILE_RUNS.load(Ordering::SeqCst), 3);
    }

    fn traced(ctx: &mut SeedlessCtx) {
        ctx.section("inside");
        let _work = ctx.span("work");
        ctx.counter("seedless.runs");
    }

    #[test]
    fn spans_and_counters_come_only_from_real_runs() {
        let session = crate::trace::session();
        let memo = Arc::new(SeedlessMemo::new());
        for seed in [1, 2] {
            let mut ctx =
                ExperimentCtx::quiet_scenario(&scenario(seed, 1.0)).with_memo(Arc::clone(&memo));
            ctx.section("caller");
            ctx.seedless("test/traced", traced);
            let _ = ctx.report("t");
            assert!(ctx.rendered().contains("=== inside ==="));
        }
        let report = session.finish();
        assert_eq!(report.span_count("section:caller"), 2);
        assert_eq!(report.span_count("section:inside"), 1);
        assert_eq!(report.span_count("work"), 1);
        assert_eq!(report.counter("seedless.runs"), 1);
        // The caller's section closed before the seedless one opened.
        let inside = report
            .spans
            .iter()
            .find(|s| s.name == "section:inside")
            .expect("ran once");
        assert!(report
            .spans
            .iter()
            .filter(|s| s.name == "section:caller")
            .all(|s| Some(s.id) != inside.parent));
    }
}
