//! Wall-clock micro-benchmark harness, replacing `criterion`.
//!
//! Deliberately small: per benchmark it warms up, auto-calibrates an
//! iteration count so one sample lasts a few milliseconds, takes N timed
//! samples, and reports min/median/mean per iteration. That is enough to
//! compare kernels and catch order-of-magnitude regressions, which is all
//! `f2 bench` needs — with zero dependencies and sub-second default
//! runtime per benchmark.
//!
//! ```no_run
//! let mut h = f2_core::benchkit::Harness::new();
//! let mut group = h.group("levenshtein");
//! group.bench_function("dp", |b| b.iter(|| 2 + 2));
//! ```

use crate::json::{Json, ToJson};
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimiser from deleting benchmarked
/// work (re-export of [`std::hint::black_box`] under the familiar name).
pub fn black_box<T>(value: T) -> T {
    std_black_box(value)
}

/// Target wall time of one measured sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(5);
/// Default number of measured samples per benchmark (`f2 bench
/// --samples` overrides it).
pub const DEFAULT_SAMPLES: usize = 15;

/// Top-level harness: owns the benchmark filter and collects results.
pub struct Harness {
    filter: Option<String>,
    samples: usize,
    results: Vec<Record>,
}

/// One benchmark's summary statistics, as per-iteration nanoseconds. They
/// keep the fraction of a nanosecond a fast kernel's sample has; only the
/// f2-bench-v1 document rounds them down to whole `*_ns` integers.
#[derive(Debug, Clone)]
pub struct Record {
    /// `group/function` label.
    pub label: String,
    /// Fastest sample.
    pub min: f64,
    /// 10th-percentile sample (sorted index `samples / 10`): robust to the
    /// occasional slow outlier a shared machine injects, unlike `min` which
    /// rewards one lucky sample — the statistic `check-bench` compares.
    pub p10: f64,
    /// Median sample.
    pub median: f64,
    /// Mean over all samples.
    pub mean: f64,
    /// Iterations per sample the calibrator settled on.
    pub iters_per_sample: u64,
}

impl ToJson for Record {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".to_string(), self.label.to_json()),
            ("min_ns".to_string(), (self.min as u64).to_json()),
            ("p10_ns".to_string(), (self.p10 as u64).to_json()),
            ("median_ns".to_string(), (self.median as u64).to_json()),
            ("mean_ns".to_string(), (self.mean as u64).to_json()),
            (
                "iters_per_sample".to_string(),
                self.iters_per_sample.to_json(),
            ),
        ])
    }
}

impl Harness {
    /// An unfiltered harness taking [`DEFAULT_SAMPLES`] samples per
    /// benchmark.
    pub fn new() -> Self {
        Self {
            filter: None,
            samples: DEFAULT_SAMPLES,
            results: Vec::new(),
        }
    }

    /// Overrides the default sample count for groups opened after this
    /// call (the `f2 bench --samples` knob); clamped to at least 3.
    pub fn set_samples(&mut self, samples: usize) {
        self.samples = samples.max(3);
    }

    /// Restricts `bench_function` to labels containing `filter`.
    pub fn set_filter(&mut self, filter: Option<String>) {
        self.filter = filter;
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        let samples = self.samples;
        Group {
            harness: self,
            name: name.to_string(),
            samples,
        }
    }

    /// All records measured so far.
    pub fn results(&self) -> &[Record] {
        &self.results
    }

    /// Prints the summary table. Call at the end of `main`.
    pub fn finish(&self) {
        println!();
        println!(
            "{:<44} {:>12} {:>12} {:>12} {:>12}",
            "benchmark", "min", "p10", "median", "mean"
        );
        println!("{}", "-".repeat(97));
        for r in &self.results {
            println!(
                "{:<44} {:>12} {:>12} {:>12} {:>12}",
                r.label,
                format_ns(r.min),
                format_ns(r.p10),
                format_ns(r.median),
                format_ns(r.mean),
            );
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

/// A named group of related benchmarks (mirrors criterion's `BenchmarkGroup`).
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Measures one benchmark; skipped when the harness filter does not
    /// match. When a [`crate::trace`] session is live the whole
    /// measurement (warm-up, calibration and samples) runs under a
    /// `bench:<group/label>` span, so `f2 bench --trace` output is
    /// Perfetto-inspectable per kernel.
    pub fn bench_function(&mut self, label: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.name, label);
        if let Some(filter) = &self.harness.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let _span = crate::trace::span(&format!("bench:{full}"));
        let mut bencher = Bencher {
            samples: self.samples,
            record: None,
        };
        f(&mut bencher);
        let mut record = bencher
            .record
            .expect("bench_function closure must call Bencher::iter");
        record.label = full.clone();
        println!(
            "{full}: median {} (min {}, {} iters/sample)",
            format_ns(record.median),
            format_ns(record.min),
            record.iters_per_sample
        );
        self.harness.results.push(record);
        self
    }
}

/// Timer handle passed to the benchmark closure.
pub struct Bencher {
    samples: usize,
    record: Option<Record>,
}

impl Bencher {
    /// Benchmarks `f`: calibrates iterations/sample, measures, records.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warm-up and calibration: grow the batch until it meets the target.
        let mut iters: u64 = 1;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= SAMPLE_TARGET || iters >= 1 << 30 {
                break elapsed / iters.max(1) as u32;
            }
            // Aim directly at the target from the observed rate.
            let scale = (SAMPLE_TARGET.as_nanos() as f64 / elapsed.as_nanos().max(1) as f64)
                .clamp(2.0, 100.0);
            iters = ((iters as f64) * scale).ceil() as u64;
        };
        let _ = per_iter;
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            times.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        times.sort_unstable_by(f64::total_cmp);
        let min = times[0];
        let p10 = times[times.len() / 10];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        self.record = Some(Record {
            label: String::new(),
            min,
            p10,
            median,
            mean,
            iters_per_sample: iters,
        });
    }
}

/// Formats whole nanoseconds of a per-iteration time.
fn format_ns(ns: f64) -> String {
    format_duration(Duration::from_nanos(ns as u64))
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut h = Harness::new();
        h.set_samples(3);
        h.group("smoke")
            .bench_function("noop", |b| b.iter(|| 1u64 + 1));
        assert_eq!(h.results().len(), 1);
        let r = &h.results()[0];
        assert_eq!(r.label, "smoke/noop");
        assert!(r.min <= r.p10 && r.p10 <= r.median && r.median <= r.mean * 2.0);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn record_serialises_to_json_in_ns() {
        let r = Record {
            label: "g/f".to_string(),
            min: 100.0,
            p10: 110.9,
            median: 150.5,
            mean: 160.0,
            iters_per_sample: 42,
        };
        assert_eq!(
            r.to_json().encode(),
            r#"{"label":"g/f","min_ns":100,"p10_ns":110,"median_ns":150,"mean_ns":160,"iters_per_sample":42}"#
        );
    }

    #[test]
    fn harness_samples_knob_clamps_and_propagates() {
        let mut h = Harness::new();
        h.set_samples(1);
        assert_eq!(h.samples, 3, "clamped to the statistical minimum");
        h.set_samples(7);
        let group = h.group("g");
        assert_eq!(group.samples, 7);
    }

    #[test]
    fn bench_function_emits_a_labelled_span() {
        let session = crate::trace::session();
        let mut h = Harness::new();
        h.set_samples(3);
        h.group("spanned")
            .bench_function("noop", |b| b.iter(|| 1u8));
        let report = session.finish();
        assert_eq!(report.span_count("bench:spanned/noop"), 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness::new();
        h.set_filter(Some("wanted".to_string()));
        h.set_samples(3);
        let mut group = h.group("g");
        group.bench_function("other", |b| b.iter(|| 0u8));
        group.bench_function("wanted_one", |b| b.iter(|| 0u8));
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].label, "g/wanted_one");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(format_duration(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(format_duration(Duration::from_millis(7)), "7.00 ms");
    }
}
