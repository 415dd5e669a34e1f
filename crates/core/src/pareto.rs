//! Multi-objective design-space exploration (DSE).
//!
//! §III's toolchain goal is to "explore automatically the wide space of the
//! architectural parameters" and surface the performance/resource/energy
//! trade-off. This module provides the generic machinery every thrust crate
//! reuses: named parameter axes, exhaustive cartesian sweeps, and Pareto
//! dominance filtering over arbitrary objective vectors.
//!
//! ```
//! use f2_core::pareto::{Direction, ParetoFront};
//!
//! // (latency ms, area mm²) — both minimised.
//! let points = vec![vec![10.0, 5.0], vec![8.0, 7.0], vec![12.0, 6.0]];
//! let dirs = [Direction::Minimize, Direction::Minimize];
//! let front = ParetoFront::from_points(&points, &dirs);
//! // [12, 6] is dominated by [10, 5]; the other two trade off.
//! assert_eq!(front.indices(), &[0, 1]);
//! ```

use std::collections::BTreeMap;

/// Optimisation direction of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latency, power, area).
    Minimize,
    /// Larger is better (throughput, accuracy, efficiency).
    Maximize,
}

impl Direction {
    /// Canonicalises a value so that *smaller is always better*.
    fn key(self, v: f64) -> f64 {
        match self {
            Direction::Minimize => v,
            Direction::Maximize => -v,
        }
    }
}

/// Returns true if objective vector `a` dominates `b`: at least as good in
/// every objective and strictly better in at least one.
///
/// # Panics
///
/// Panics if the vectors and direction slice have mismatched lengths.
pub fn dominates(a: &[f64], b: &[f64], dirs: &[Direction]) -> bool {
    assert_eq!(a.len(), dirs.len(), "objective arity mismatch");
    assert_eq!(b.len(), dirs.len(), "objective arity mismatch");
    let mut strictly_better = false;
    for ((&x, &y), &d) in a.iter().zip(b).zip(dirs) {
        let (kx, ky) = (d.key(x), d.key(y));
        if kx > ky {
            return false;
        }
        if kx < ky {
            strictly_better = true;
        }
    }
    strictly_better
}

/// The non-dominated subset of a set of evaluated design points.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront {
    indices: Vec<usize>,
}

impl ParetoFront {
    /// Computes the Pareto-optimal indices of `points` under `dirs`.
    ///
    /// Duplicate objective vectors are all retained (none dominates the
    /// other). Indices are returned in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if any point's arity differs from `dirs.len()`.
    pub fn from_points(points: &[Vec<f64>], dirs: &[Direction]) -> Self {
        let mut indices = Vec::new();
        'outer: for (i, p) in points.iter().enumerate() {
            for (j, q) in points.iter().enumerate() {
                if i != j && dominates(q, p, dirs) {
                    continue 'outer;
                }
            }
            indices.push(i);
        }
        Self { indices }
    }

    /// Indices of the non-dominated points (ascending).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if the front is empty (only for empty input).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// One concrete assignment of values to the swept parameters.
pub type ParamPoint = BTreeMap<String, f64>;

/// A cartesian design space over named numeric axes.
///
/// ```
/// use f2_core::pareto::DesignSpace;
///
/// let space = DesignSpace::new()
///     .axis("pe_count", [1.0, 2.0, 4.0])
///     .axis("buffer_kb", [16.0, 32.0]);
/// assert_eq!(space.len(), 6);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesignSpace {
    axes: Vec<(String, Vec<f64>)>,
}

impl DesignSpace {
    /// Creates an empty design space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named axis with the given candidate values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or the axis name repeats.
    pub fn axis(mut self, name: &str, values: impl IntoIterator<Item = f64>) -> Self {
        let values: Vec<f64> = values.into_iter().collect();
        assert!(
            !values.is_empty(),
            "axis `{name}` must have at least one value"
        );
        assert!(
            self.axes.iter().all(|(n, _)| n != name),
            "duplicate axis `{name}`"
        );
        self.axes.push((name.to_string(), values));
        self
    }

    /// Number of points in the cartesian product.
    pub fn len(&self) -> usize {
        if self.axes.is_empty() {
            0
        } else {
            self.axes.iter().map(|(_, v)| v.len()).product()
        }
    }

    /// True if the space has no axes.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// Iterates over all parameter assignments in lexicographic axis order.
    pub fn iter(&self) -> impl Iterator<Item = ParamPoint> + '_ {
        let total = self.len();
        (0..total).map(move |mut flat| {
            let mut point = ParamPoint::new();
            for (name, values) in self.axes.iter().rev() {
                let idx = flat % values.len();
                flat /= values.len();
                point.insert(name.clone(), values[idx]);
            }
            point
        })
    }

    /// Evaluates `eval` at every point and returns the evaluated sweep.
    pub fn sweep<F>(&self, dirs: &[Direction], eval: F) -> Sweep
    where
        F: FnMut(&ParamPoint) -> Vec<f64>,
    {
        let points: Vec<ParamPoint> = self.iter().collect();
        let objectives: Vec<Vec<f64>> = points.iter().map(eval).collect();
        for (i, o) in objectives.iter().enumerate() {
            assert_eq!(
                o.len(),
                dirs.len(),
                "evaluator returned wrong arity at point {i}"
            );
        }
        let front = ParetoFront::from_points(&objectives, dirs);
        Sweep {
            points,
            objectives,
            front,
        }
    }

    /// Like [`DesignSpace::sweep`], but evaluates points on `threads`
    /// worker threads. Convenience wrapper over [`DesignSpace::sweep_with`]
    /// constructing a throwaway [`crate::exec::Pool`]; callers that already
    /// hold a pool (experiments do, via `ExperimentCtx::exec()`) should
    /// pass it to `sweep_with` instead.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or the evaluator returns the wrong arity.
    pub fn sweep_parallel<F>(&self, dirs: &[Direction], threads: usize, eval: F) -> Sweep
    where
        F: Fn(&ParamPoint) -> Vec<f64> + Sync,
    {
        self.sweep_with(dirs, &crate::exec::Pool::new(threads), eval)
    }

    /// Evaluates every point on `pool`'s work-stealing workers
    /// ([`crate::exec::Pool::map`]) — the executor made for exactly this
    /// shape: per-point cost in a design-space sweep varies wildly, and
    /// self-scheduling keeps all workers busy through the expensive
    /// region. Results are identical to the sequential sweep for any pure
    /// evaluator, at any worker count.
    ///
    /// Under a live [`crate::trace`] session this records one
    /// `pareto.sweep_parallel.calls` increment and one
    /// `pareto.sweep_parallel.points` increment per evaluated point; the
    /// per-point counts merge across workers, so the total is independent
    /// of the pool width.
    ///
    /// # Panics
    ///
    /// Panics if the evaluator returns the wrong arity.
    pub fn sweep_with<F>(&self, dirs: &[Direction], pool: &crate::exec::Pool, eval: F) -> Sweep
    where
        F: Fn(&ParamPoint) -> Vec<f64> + Sync,
    {
        crate::trace::counter("pareto.sweep_parallel.calls", 1);
        let points: Vec<ParamPoint> = self.iter().collect();
        let objectives: Vec<Vec<f64>> = pool.map(&points, |point| {
            crate::trace::counter("pareto.sweep_parallel.points", 1);
            eval(point)
        });
        for (i, o) in objectives.iter().enumerate() {
            assert_eq!(
                o.len(),
                dirs.len(),
                "evaluator returned wrong arity at point {i}"
            );
        }
        let front = ParetoFront::from_points(&objectives, dirs);
        Sweep {
            points,
            objectives,
            front,
        }
    }
}

/// Result of an exhaustive sweep: every evaluated point plus its Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    points: Vec<ParamPoint>,
    objectives: Vec<Vec<f64>>,
    front: ParetoFront,
}

impl Sweep {
    /// All swept parameter points.
    pub fn points(&self) -> &[ParamPoint] {
        &self.points
    }

    /// Objective vectors aligned with [`Sweep::points`].
    pub fn objectives(&self) -> &[Vec<f64>] {
        &self.objectives
    }

    /// The Pareto front over the sweep.
    pub fn front(&self) -> &ParetoFront {
        &self.front
    }

    /// Yields `(params, objectives)` for the Pareto-optimal points.
    pub fn front_entries(&self) -> impl Iterator<Item = (&ParamPoint, &[f64])> + '_ {
        self.front
            .indices()
            .iter()
            .map(move |&i| (&self.points[i], self.objectives[i].as_slice()))
    }

    /// Index of the best point for a single objective.
    ///
    /// Returns `None` for an empty sweep.
    pub fn best_for(&self, objective_idx: usize, dir: Direction) -> Option<usize> {
        (0..self.objectives.len()).min_by(|&a, &b| {
            let ka = dir.key(self.objectives[a][objective_idx]);
            let kb = dir.key(self.objectives[b][objective_idx]);
            ka.partial_cmp(&kb).expect("objectives must not be NaN")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN2: [Direction; 2] = [Direction::Minimize, Direction::Minimize];

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0], &MIN2));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0], &MIN2));
        assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0], &MIN2));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0], &MIN2));
    }

    #[test]
    fn maximize_flips_dominance() {
        let dirs = [Direction::Maximize];
        assert!(dominates(&[5.0], &[3.0], &dirs));
        assert!(!dominates(&[3.0], &[5.0], &dirs));
    }

    #[test]
    fn front_keeps_tradeoffs_drops_dominated() {
        let pts = vec![
            vec![10.0, 5.0],
            vec![8.0, 7.0],
            vec![12.0, 6.0], // dominated by [10,5]
            vec![7.0, 9.0],
        ];
        let f = ParetoFront::from_points(&pts, &MIN2);
        assert_eq!(f.indices(), &[0, 1, 3]);
    }

    #[test]
    fn duplicates_all_survive() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let f = ParetoFront::from_points(&pts, &MIN2);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn empty_input_empty_front() {
        let f = ParetoFront::from_points(&[], &MIN2);
        assert!(f.is_empty());
    }

    #[test]
    fn design_space_cartesian_product() {
        let space = DesignSpace::new()
            .axis("a", [1.0, 2.0])
            .axis("b", [10.0, 20.0, 30.0]);
        assert_eq!(space.len(), 6);
        let pts: Vec<_> = space.iter().collect();
        assert_eq!(pts.len(), 6);
        // First point is the first value of every axis.
        assert_eq!(pts[0]["a"], 1.0);
        assert_eq!(pts[0]["b"], 10.0);
        // Last point is the last value of every axis.
        assert_eq!(pts[5]["a"], 2.0);
        assert_eq!(pts[5]["b"], 30.0);
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_panics() {
        let _ = DesignSpace::new().axis("a", [1.0]).axis("a", [2.0]);
    }

    #[test]
    fn sweep_evaluates_and_finds_front() {
        let space = DesignSpace::new().axis("x", [1.0, 2.0, 3.0, 4.0]);
        // Objectives: (x, 10/x) — all points are Pareto-optimal.
        let sweep = space.sweep(&MIN2, |p| vec![p["x"], 10.0 / p["x"]]);
        assert_eq!(sweep.front().len(), 4);
        // Best for objective 0 (minimise x) is x=1.
        let best = sweep.best_for(0, Direction::Minimize).expect("non-empty");
        assert_eq!(sweep.points()[best]["x"], 1.0);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let space = DesignSpace::new()
            .axis("x", [1.0, 2.0, 3.0, 4.0, 5.0])
            .axis("y", [0.5, 1.5, 2.5]);
        let eval = |p: &ParamPoint| vec![p["x"] * p["y"], p["x"] + 10.0 / p["y"]];
        let seq = space.sweep(&MIN2, eval);
        for threads in [1, 2, 4, 7] {
            let par = space.sweep_parallel(&MIN2, threads, eval);
            assert_eq!(par.objectives(), seq.objectives(), "threads={threads}");
            assert_eq!(par.front(), seq.front());
        }
    }

    #[test]
    fn sweep_with_shared_pool_matches_sequential() {
        let space = DesignSpace::new().axis("x", (0..13).map(f64::from));
        let eval = |p: &ParamPoint| vec![p["x"], 100.0 - p["x"]];
        let seq = space.sweep(&MIN2, eval);
        let pool = crate::exec::Pool::new(3);
        let par = space.sweep_with(&MIN2, &pool, eval);
        assert_eq!(par.objectives(), seq.objectives());
        assert_eq!(par.front(), seq.front());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn parallel_sweep_rejects_zero_threads() {
        let space = DesignSpace::new().axis("x", [1.0]);
        space.sweep_parallel(&[Direction::Minimize], 0, |p| vec![p["x"]]);
    }

    #[test]
    fn sweep_single_winner() {
        let space = DesignSpace::new().axis("x", [1.0, 2.0, 3.0]);
        // x=1 dominates in both objectives.
        let sweep = space.sweep(&MIN2, |p| vec![p["x"], p["x"] * 2.0]);
        assert_eq!(sweep.front().indices(), &[0]);
    }
}
