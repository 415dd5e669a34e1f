//! What one workload run hands back: its operation counts, the checks
//! that failed, and every metric it measured, by name and unit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Failure messages kept for the report; the count keeps going.
const KEPT_FAILURES: usize = 20;

/// The result of running one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (scenarios, program runs, requests).
    pub attempted: u64,
    /// Operations that failed or gave a wrong output.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Every measured metric: name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// Records a metric (a later value under the same name replaces it).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// How long the timed part of a run lasts, and whether it is traced.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured seconds (a traced run splits them between an untraced
    /// and a traced pass).
    pub seconds: f64,
    /// Whether this is the traced run that reports per-layer metrics.
    pub trace: bool,
}

/// Root of the repository checkout the benchmark was built in (goldens
/// are read from it, scratch files go under it).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// A fresh scratch directory under the checkout for one workload run.
/// Removed by [`ScratchDir`]'s drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `<repo>/.perfbench-tmp/<label>-<pid>-<n>`, unique within
    /// the process.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = repo_root()
            .join(".perfbench-tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once the last concurrent run has cleaned up.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
