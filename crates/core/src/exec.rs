//! Work-stealing parallel executor behind the [`Pool`] handle.
//!
//! The DSE sweeps, IMC evaluation loops and bench bins all have the same
//! shape: a pure function applied to a slice of independent inputs whose
//! per-item cost can vary wildly (one design point may simulate 100x longer
//! than its neighbour). This module runs that shape on `std::thread::scope`
//! workers that *self-schedule*: instead of one static chunk per worker,
//! the input is pre-split into a deterministic, geometrically shrinking
//! chunk schedule (large chunks up front to amortise claim overhead, small
//! chunks toward the tail to even out stragglers) and idle workers steal
//! the next unclaimed chunk from a shared atomic index. No external
//! thread-pool crate, and *bit-identical* results to the sequential path:
//! every chunk writes into pre-sized output slots, so the result lands in
//! input order regardless of which worker claims what, at any thread count.
//!
//! Construct a [`Pool`] once — from an explicit count ([`Pool::new`]) or
//! the environment ([`Pool::from_env`], honouring `F2_THREADS`) — and hand
//! it to everything that sweeps; `ExperimentCtx::exec()` does exactly
//! that for experiments. Nested calls on a pool worker degrade to inline
//! execution instead of oversubscribing the machine.
//!
//! ```
//! use f2_core::exec::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
//!
//! The worker count is resolved once per [`Pool`] construction, from
//! 1. the explicit `threads` argument of [`Pool::new`],
//! 2. the `F2_THREADS` environment variable ([`Pool::from_env`]),
//! 3. [`std::thread::available_parallelism`].
//!
//! When a [`trace`] session is live, every parallel call records
//! `exec:worker` spans, `exec.steal.*` counters (calls, items, chunks,
//! nested inline degradations), per-worker `exec.worker_ms` /
//! `exec.worker_chunks` histograms and the `exec.chunk_imbalance` gauge
//! (`(max - min) / max` over per-worker wall-clock, always finite) — the
//! balance signal CI pins.

use crate::trace;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "F2_THREADS";

/// How an `F2_THREADS` override string parsed. Split out of
/// [`num_threads`] so every parse path is unit-testable without touching
/// the process environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadsOverride {
    /// Variable unset (or blank): use the machine default.
    Unset,
    /// A positive integer override.
    Threads(usize),
    /// Set but not a positive integer; carries the raw value for the
    /// warning.
    Invalid(String),
}

/// Parses the raw value of [`THREADS_ENV`] (pass `None` when unset),
/// which accepts exactly a positive integer.
pub fn parse_threads_override(value: Option<&str>) -> ThreadsOverride {
    let Some(raw) = value else {
        return ThreadsOverride::Unset;
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return ThreadsOverride::Unset;
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n > 0 => ThreadsOverride::Threads(n),
        _ => ThreadsOverride::Invalid(raw.to_string()),
    }
}

/// Resolves the default worker count: `F2_THREADS` if set and positive,
/// otherwise the machine's available parallelism (at least 1). An invalid
/// override (`F2_THREADS=abc`, `=0`, `=-3`) is reported once on stderr and
/// ignored rather than silently swallowed.
pub fn num_threads() -> usize {
    let machine = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match parse_threads_override(std::env::var(THREADS_ENV).ok().as_deref()) {
        ThreadsOverride::Threads(n) => n,
        ThreadsOverride::Unset => machine(),
        ThreadsOverride::Invalid(raw) => {
            static WARNED: Once = Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid {THREADS_ENV}={raw:?} \
                     (expected a positive integer); using the default"
                );
            });
            machine()
        }
    }
}

thread_local! {
    /// True while this thread is a pool worker (or running a pool region
    /// inline): the nested-parallelism guard.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Sets the abort flag when dropped during a panic, so sibling workers
/// stop claiming chunks instead of finishing a doomed map.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Marks the current thread as inside a pool region for its lifetime;
/// drop-based so a caught panic in `f` cannot leave the caller thread
/// permanently degraded to inline execution.
struct InPoolGuard;

impl InPoolGuard {
    fn enter() -> Self {
        IN_POOL.with(|c| c.set(true));
        Self
    }
}

impl Drop for InPoolGuard {
    fn drop(&mut self) {
        IN_POOL.with(|c| c.set(false));
    }
}

/// One unclaimed chunk: an input window and its matching output window.
struct Chunk<'i, 'o, T, R> {
    input: &'i [T],
    output: &'o mut [Option<R>],
}

/// The deterministic adaptive chunk schedule for `len` items on `threads`
/// workers: each chunk takes `ceil(remaining / (2 * threads))` items, so
/// sizes shrink geometrically toward the tail. The schedule depends only
/// on `(len, threads)` — never on timing — which keeps traces and tests
/// reproducible; only the *assignment* of chunks to workers is dynamic.
fn chunk_schedule(len: usize, threads: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let size = remaining.div_ceil(2 * threads);
        sizes.push(size);
        remaining -= size;
    }
    sizes
}

/// A work-stealing executor handle: a worker-count budget. Copyable and
/// cheap — it owns no threads; each parallel call runs on scoped workers
/// that exit when the call returns, so a `Pool` can live in a context
/// object for the whole process without holding resources.
///
/// All entry points guarantee **determinism**: for any pure `f`, results
/// are bit-identical to the sequential loop, in input order, at any
/// thread count — workers claim *which* chunk they process dynamically,
/// but every chunk writes into its own pre-assigned output slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// Equivalent to [`Pool::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

impl Pool {
    /// A pool with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        Self { threads }
    }

    /// A pool sized from the environment: `F2_THREADS` workers (machine
    /// parallelism when unset). Resolve once and reuse — that is the
    /// whole point of the handle.
    pub fn from_env() -> Self {
        Self::new(num_threads())
    }

    /// The worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool's self-scheduling workers.
    ///
    /// Results are returned in input order and are bit-identical to
    /// `items.iter().map(f).collect()` for any pure `f`, at any thread
    /// count. With one worker, one item or a single-chunk schedule no
    /// thread is spawned at all — the map runs on the caller's stack. A
    /// call from inside a pool worker (nested parallelism) also runs
    /// inline instead of oversubscribing the machine.
    ///
    /// A panic in any worker aborts chunk claiming on its siblings and
    /// propagates to the caller after all workers have been joined (the
    /// guarantee `std::thread::scope` provides).
    ///
    /// When a [`trace`] session is live on the calling thread, the call
    /// records `exec:worker` spans, `exec.steal.*` counters, per-worker
    /// `exec.worker_ms` / `exec.worker_chunks` histogram samples and the
    /// always-finite `exec.chunk_imbalance` gauge. None of this runs when
    /// tracing is off.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        if IN_POOL.with(Cell::get) {
            trace::counter("exec.steal.nested_inline", 1);
            let _span = trace::span("exec:inline");
            return items.iter().map(f).collect();
        }
        let schedule = chunk_schedule(items.len(), self.threads);
        if self.threads == 1 || schedule.len() <= 1 {
            let _span = trace::span("exec:inline");
            let _guard = InPoolGuard::enter();
            return items.iter().map(f).collect();
        }
        let tracing = trace::active();
        if tracing {
            trace::counter("exec.steal.calls", 1);
            trace::counter("exec.steal.items", items.len() as u64);
            trace::counter("exec.steal.chunks", schedule.len() as u64);
        }
        let handoff = trace::handoff();
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        // Pre-split input and output into the scheduled chunks; workers
        // claim them through the shared `next` index. The per-chunk mutex
        // is uncontended by construction (each index is claimed exactly
        // once) — it only exists to hand the `&mut` output window across
        // threads safely.
        let mut chunks: Vec<Mutex<Option<Chunk<T, R>>>> = Vec::with_capacity(schedule.len());
        let mut rest_in = items;
        let mut rest_out = out.as_mut_slice();
        for len in schedule {
            let (input, tail_in) = rest_in.split_at(len);
            let (output, tail_out) = rest_out.split_at_mut(len);
            rest_in = tail_in;
            rest_out = tail_out;
            chunks.push(Mutex::new(Some(Chunk { input, output })));
        }
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let workers = self.threads.min(chunks.len());
        let mut worker_secs = vec![0.0f64; workers];
        let mut worker_chunks = vec![0u64; workers];
        std::thread::scope(|scope| {
            for (secs, claimed) in worker_secs.iter_mut().zip(worker_chunks.iter_mut()) {
                let (f, chunks, next, abort) = (&f, &chunks, &next, &abort);
                let handoff = handoff.clone();
                scope.spawn(move || {
                    let attachment = handoff.attach();
                    let timer = attachment.as_ref().map(|_| std::time::Instant::now());
                    let _in_pool = InPoolGuard::enter();
                    let _bomb = AbortOnPanic(abort);
                    {
                        let _span = trace::span("exec:worker");
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(slot) = chunks.get(i) else {
                                break;
                            };
                            let chunk = slot
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .take()
                                .expect("each chunk is claimed exactly once");
                            for (item, out) in chunk.input.iter().zip(chunk.output.iter_mut()) {
                                *out = Some(f(item));
                            }
                            *claimed += 1;
                        }
                    }
                    if let Some(t) = timer {
                        *secs = t.elapsed().as_secs_f64();
                    }
                    // `attachment` drops here, merging this worker's
                    // records into the session before the scope observes
                    // completion.
                });
            }
        });
        if tracing {
            let max = worker_secs.iter().copied().fold(0.0f64, f64::max);
            let min = worker_secs.iter().copied().fold(f64::INFINITY, f64::min);
            // Guarded against max == 0 (all workers finished in ~0 time):
            // the gauge must always be a finite number, or the Chrome
            // trace export emits `null` values.
            let imbalance = if max > 0.0 { (max - min) / max } else { 0.0 };
            trace::gauge("exec.chunk_imbalance", imbalance);
            for (secs, claimed) in worker_secs.iter().zip(&worker_chunks) {
                trace::observe("exec.worker_ms", secs * 1e3);
                trace::observe("exec.worker_chunks", *claimed as f64);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every slot written by its chunk"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 200] {
            let par = Pool::new(threads).map(&items, |&x| x * 3 + 1);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn map_empty_input() {
        let out: Vec<u32> = Pool::new(4).map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_equals_sequential() {
        let items: Vec<f64> = (0..50).map(|i| i as f64 / 7.0).collect();
        let seq: Vec<f64> = items.iter().map(|x| x.sin() * x.cos()).collect();
        let one = Pool::new(1).map(&items, |x| x.sin() * x.cos());
        // Bit-identical, not approximately equal.
        assert_eq!(seq.len(), one.len());
        for (a, b) in seq.iter().zip(&one) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map(&items, |&x| {
                assert!(x != 61, "worker dies on a late (stolen) chunk");
                x
            })
        });
        assert!(result.is_err(), "panic must cross the scope boundary");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn pool_from_env_is_default() {
        assert_eq!(Pool::from_env(), Pool::default());
        assert!(Pool::from_env().threads() >= 1);
    }

    #[test]
    fn threads_override_parse_paths() {
        use ThreadsOverride::*;
        // Unset or blank: machine default.
        assert_eq!(parse_threads_override(None), Unset);
        assert_eq!(parse_threads_override(Some("")), Unset);
        assert_eq!(parse_threads_override(Some("   ")), Unset);
        // Valid positive integers (whitespace tolerated).
        assert_eq!(parse_threads_override(Some("1")), Threads(1));
        assert_eq!(parse_threads_override(Some(" 8 ")), Threads(8));
        assert_eq!(parse_threads_override(Some("128")), Threads(128));
        // Invalid values are reported, not silently ignored.
        assert_eq!(parse_threads_override(Some("abc")), Invalid("abc".into()));
        assert_eq!(parse_threads_override(Some("0")), Invalid("0".into()));
        assert_eq!(parse_threads_override(Some("-3")), Invalid("-3".into()));
        assert_eq!(parse_threads_override(Some("2.5")), Invalid("2.5".into()));
        assert_eq!(parse_threads_override(Some(" 4x ")), Invalid(" 4x ".into()));
    }

    #[test]
    fn chunk_schedule_covers_input_and_shrinks() {
        for (len, threads) in [(0, 4), (1, 4), (64, 4), (97, 3), (1000, 8)] {
            let sizes = chunk_schedule(len, threads);
            assert_eq!(sizes.iter().sum::<usize>(), len, "covers every index");
            // Geometric shrink: sizes are non-increasing.
            assert!(
                sizes.windows(2).all(|w| w[0] >= w[1]),
                "schedule must shrink toward the tail: {sizes:?}"
            );
        }
    }

    #[test]
    fn nested_map_degrades_to_inline() {
        let session = trace::session();
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..16).collect();
        let out = pool.map(&items, |&x| {
            // Nested parallel call: must run inline on this worker, not
            // spawn another 4 threads per item.
            let inner: Vec<u64> = pool.map(&[x, x + 1], |&y| y * 2);
            inner[0] + inner[1]
        });
        let seq: Vec<u64> = items.iter().map(|&x| 4 * x + 2).collect();
        assert_eq!(out, seq);
        let report = session.finish();
        assert_eq!(report.counter("exec.steal.calls"), 1, "outer call only");
        assert_eq!(report.counter("exec.steal.nested_inline"), 16);
        assert_eq!(report.span_count("exec:inline"), 16);
    }

    #[test]
    fn map_emits_steal_probes_and_finite_imbalance() {
        let session = trace::session();
        let items: Vec<u64> = (0..64).collect();
        let pool = Pool::new(4);
        let out = pool.map(&items, |&x| x + 1);
        assert_eq!(out.len(), 64);
        let report = session.finish();
        let chunks = chunk_schedule(64, 4).len() as u64;
        assert_eq!(report.counter("exec.steal.calls"), 1);
        assert_eq!(report.counter("exec.steal.items"), 64);
        assert_eq!(report.counter("exec.steal.chunks"), chunks);
        assert!(report.span_count("exec:worker") <= 4);
        assert!(report.span_count("exec:worker") >= 1);
        let imbalance = report.gauge("exec.chunk_imbalance").expect("gauge set");
        assert!(imbalance.is_finite(), "gauge must never be NaN");
        assert!((0.0..=1.0).contains(&imbalance));
        let ms = report.histogram("exec.worker_ms").expect("hist");
        let claimed = report.histogram("exec.worker_chunks").expect("hist");
        assert_eq!(ms.count, claimed.count, "one sample per worker");
        // Every chunk was claimed by exactly one worker.
        assert_eq!(claimed.sum as u64, chunks);
    }

    #[test]
    fn inline_path_is_traced_without_workers() {
        let session = trace::session();
        let out = Pool::new(1).map(&[1u64, 2, 3], |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        let report = session.finish();
        assert_eq!(report.span_count("exec:inline"), 1);
        assert_eq!(report.span_count("exec:worker"), 0);
        assert_eq!(report.counter("exec.steal.calls"), 0);
    }

    /// Burns a deterministic amount of CPU proportional to `units` (one
    /// unit is ~100µs, so per-worker times dwarf thread-spawn noise).
    fn spin(units: u64) -> u64 {
        let mut acc = 0x9e3779b97f4a7c15u64;
        for i in 0..units * 300_000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc)
    }

    /// The acceptance microbenchmark: on a front-loaded skewed workload the
    /// work-stealing pool must report strictly lower `exec.chunk_imbalance`
    /// than static chunk partitioning (the pre-Pool executor design,
    /// re-created inline here as the recorded baseline).
    #[test]
    fn stealing_beats_static_chunking_on_skewed_workload() {
        const THREADS: usize = 4;
        // First half of the items are 8x heavier than the second half: under
        // static partitioning workers 0-1 own all the heavy items.
        let items: Vec<u64> = (0..64).map(|i| if i < 32 { 8 } else { 1 }).collect();

        // Static baseline: one contiguous chunk per worker, per-worker
        // wall-clock measured exactly like the executor does.
        let mut static_secs = [0.0f64; THREADS];
        let chunk = items.len().div_ceil(THREADS);
        std::thread::scope(|scope| {
            for (item_chunk, secs) in items.chunks(chunk).zip(static_secs.iter_mut()) {
                scope.spawn(move || {
                    let t = std::time::Instant::now();
                    for &units in item_chunk {
                        spin(units);
                    }
                    *secs = t.elapsed().as_secs_f64();
                });
            }
        });
        let max = static_secs.iter().copied().fold(0.0f64, f64::max);
        let min = static_secs.iter().copied().fold(f64::INFINITY, f64::min);
        let static_imbalance = if max > 0.0 { (max - min) / max } else { 0.0 };

        let session = trace::session();
        Pool::new(THREADS).map(&items, |&units| spin(units));
        let report = session.finish();
        let steal_imbalance = report.gauge("exec.chunk_imbalance").expect("gauge set");

        assert!(
            steal_imbalance < static_imbalance,
            "work stealing must balance the skewed load better: \
             stealing={steal_imbalance:.3} static={static_imbalance:.3}"
        );
    }
}
