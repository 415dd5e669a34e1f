//! Property-based tests over the core substrate invariants.

use f2_core::bf16::Bf16;
use f2_core::exec::Pool;
use f2_core::experiment::{ExperimentReport, Kpi};
use f2_core::fixed::QFormat;
use f2_core::json::{Json, ToJson};
use f2_core::pareto::{dominates, DesignSpace, Direction, ParetoFront};
use f2_core::ptest::{assume, Gen};
use f2_core::roofline::Roofline;
use f2_core::tensor::Matrix;
use f2_core::trace;
use f2_core::workload::graph::{bfs, gnm_random, pagerank, spmv};

/// Burns CPU proportional to `units` and folds the work into the returned
/// value, so the imbalance cannot be optimised away.
fn weighted_work(x: u64, units: u64) -> u64 {
    let mut acc = x;
    for i in 0..units * 50 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

/// Draws a name stressing the JSON string path: escapes, whitespace,
/// non-ASCII, the works.
fn json_hostile_name(g: &mut Gen) -> String {
    const ALPHABET: &[char] = &[
        'a', 'B', 'z', '0', '9', '_', '/', '.', '-', ' ', '"', '\\', '\n', '\t', 'é', 'µ', '🧪',
    ];
    let len = g.usize_in(0..12);
    (0..len)
        .map(|_| ALPHABET[g.usize_in(0..ALPHABET.len())])
        .collect()
}

f2_core::ptest! {
    /// Quantisation error is bounded by half an LSB for in-range values.
    fn fixed_quantize_error_bounded(g) {
        let v = g.f64_in(-100.0, 100.0);
        let frac = g.u64_in(4..16) as u8;
        let q = QFormat::new(24, frac).expect("valid format");
        let x = q.quantize(v);
        let err = (q.dequantize(x) - v).abs();
        assert!(err <= q.resolution() / 2.0 + 1e-12);
    }

    /// Quantisation is idempotent: re-quantising a representable value is exact.
    fn fixed_quantize_idempotent(g) {
        let v = g.f64_in(-1000.0, 1000.0);
        let q = QFormat::new(16, 6).expect("valid format");
        let once = q.quantize(v);
        let twice = q.quantize(once.to_f64());
        assert_eq!(once.raw(), twice.raw());
    }

    /// Saturating add never exceeds the format bounds.
    fn fixed_add_stays_in_range(g) {
        let a = g.f64_in(-200.0, 200.0);
        let b = g.f64_in(-200.0, 200.0);
        let q = QFormat::new(16, 8).expect("valid format");
        let s = q.quantize(a).saturating_add(q.quantize(b));
        assert!(s.to_f64() <= q.max_value());
        assert!(s.to_f64() >= q.min_value());
    }

    /// bf16 round-trip error is within one part in 2^8 for normal values.
    fn bf16_relative_error(g) {
        let v = g.f32_normal();
        assume(v.abs() > 1e-30 && v.abs() < 1e30);
        let r = Bf16::from_f32(v).to_f32();
        assert!(((r - v) / v).abs() <= 2.0f32.powi(-8));
    }

    /// bf16 conversion is idempotent.
    fn bf16_idempotent(g) {
        let x = Bf16::from_bits(g.u16());
        assume(!x.is_nan());
        assert_eq!(Bf16::from_f32(x.to_f32()), x);
    }

    /// Pareto dominance is irreflexive and antisymmetric.
    fn dominance_axioms(g) {
        let a: Vec<f64> = (0..3).map(|_| g.f64_in(0.0, 10.0)).collect();
        let b: Vec<f64> = (0..3).map(|_| g.f64_in(0.0, 10.0)).collect();
        let dirs = [Direction::Minimize, Direction::Maximize, Direction::Minimize];
        assert!(!dominates(&a, &a, &dirs));
        assert!(!(dominates(&a, &b, &dirs) && dominates(&b, &a, &dirs)));
    }

    /// No point on a Pareto front is dominated by any input point.
    fn front_is_nondominated(g) {
        let pts = g.vec(1..30, |g| {
            vec![g.f64_in(0.0, 10.0), g.f64_in(0.0, 10.0)]
        });
        let dirs = [Direction::Minimize, Direction::Minimize];
        let front = ParetoFront::from_points(&pts, &dirs);
        assert!(!front.is_empty());
        for &i in front.indices() {
            for p in &pts {
                assert!(!dominates(p, &pts[i], &dirs));
            }
        }
    }

    /// Roofline attainable performance never exceeds either roof.
    fn roofline_bounds(g) {
        let peak = g.f64_in(1.0, 1e15);
        let bw = g.f64_in(1.0, 1e13);
        let oi = g.f64_in(0.001, 1e6);
        let r = Roofline::new(peak, bw);
        let p = r.attainable(oi);
        assert!(p <= peak + 1e-9);
        assert!(p <= oi * bw + 1e-9);
    }

    /// Matrix transpose is an involution and preserves the Frobenius norm.
    fn transpose_involution(g) {
        let rows = g.usize_in(1..8);
        let cols = g.usize_in(1..8);
        let seed = g.u64();
        let m = Matrix::from_fn(rows, cols, |r, c| {
            ((seed as usize).wrapping_mul(r * 31 + c * 7) % 1000) as f64 / 10.0
        });
        let t = m.transposed();
        assert_eq!(t.transposed(), m.clone());
        assert!((t.frobenius_norm() - m.frobenius_norm()).abs() < 1e-9);
    }

    /// SpMV is linear: A(x + y) = Ax + Ay.
    fn spmv_linearity(g) {
        let g_raph = gnm_random(20, 60, g.u64());
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..20).map(|i| (20 - i) as f64).collect();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let ax = spmv(&g_raph, &x).expect("shape");
        let ay = spmv(&g_raph, &y).expect("shape");
        let axy = spmv(&g_raph, &xy).expect("shape");
        for i in 0..20 {
            assert!((axy[i] - (ax[i] + ay[i])).abs() < 1e-9);
        }
    }

    /// BFS levels of neighbours differ by at most 1 along reachable edges.
    fn bfs_triangle_inequality(g) {
        let graph = gnm_random(30, 90, g.u64());
        let level = bfs(&graph, 0);
        for u in 0..30 {
            if level[u] == usize::MAX { continue; }
            for (v, _) in graph.neighbors(u) {
                assert!(level[v] <= level[u] + 1);
            }
        }
    }

    /// PageRank mass is conserved for any graph.
    fn pagerank_mass_conserved(g) {
        let graph = gnm_random(25, 50, g.u64());
        let iters = g.usize_in(1..20);
        let pr = pagerank(&graph, 0.85, iters);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(pr.iter().all(|&r| r >= 0.0));
    }

    /// A parallel DSE sweep is identical to the sequential one — same
    /// points, objectives and Pareto frontier — at any worker count, and
    /// the merged `pareto.sweep_parallel.points` counter equals the point
    /// count (thread-count-independent: per-worker increments must merge
    /// without loss or double-counting).
    fn pareto_sweep_parallel_matches_sequential(g) {
        let xs = g.vec(1..6, |g| g.f64_in(0.0, 10.0));
        let ys = g.vec(1..6, |g| g.f64_in(0.0, 10.0));
        let threads = g.usize_in(1..9);
        let points = xs.len() * ys.len();
        let space = DesignSpace::new()
            .axis("x", xs)
            .axis("y", ys);
        let dirs = [Direction::Minimize, Direction::Maximize];
        let eval = |p: &f2_core::pareto::ParamPoint| {
            let x = p["x"];
            let y = p["y"];
            vec![x * x + y, x - y * y]
        };
        let sequential = space.sweep(&dirs, eval);
        let session = trace::session();
        let parallel = space.sweep_parallel(&dirs, threads, eval);
        let report = session.finish();
        assert_eq!(sequential, parallel);
        assert_eq!(report.counter("pareto.sweep_parallel.calls"), 1);
        assert_eq!(
            report.counter("pareto.sweep_parallel.points"),
            points as u64,
            "counter total must not depend on threads={threads}"
        );
    }

    /// `Pool::map` equals the sequential map — same values, same order —
    /// under adversarial per-item runtimes (uniform, front-loaded,
    /// back-loaded, single hot item) at arbitrary thread counts. The
    /// stealing schedule must never reorder, drop or duplicate results.
    fn pool_map_matches_sequential_under_skew(g) {
        let len = g.usize_in(0..65);
        let threads = g.usize_in(1..10);
        let profile = g.usize_in(0..4);
        let hot = g.usize_in(0..len.max(1));
        let items: Vec<u64> = (0..len as u64).collect();
        let weight = |i: usize| -> u64 {
            match profile {
                0 => 1,                                           // uniform
                1 => if i < len / 4 { 16 } else { 1 },            // front-loaded
                2 => if i >= len - len / 4 { 16 } else { 1 },     // back-loaded
                _ => if i == hot { 64 } else { 1 },               // single hot item
            }
        };
        let f = |&x: &u64| weighted_work(x, weight(x as usize));
        let sequential: Vec<u64> = items.iter().map(f).collect();
        let pool = Pool::new(threads);
        assert_eq!(pool.map(&items, f), sequential,
            "threads={threads} profile={profile}");
    }

    /// A panic at an arbitrary item must propagate out of `Pool::map` at
    /// any thread count — including through the stealing parallel path —
    /// never hang a worker or return a truncated result.
    fn pool_map_propagates_panics(g) {
        let threads = g.usize_in(1..9);
        let poison = g.usize_in(0..48);
        let items: Vec<usize> = (0..48).collect();
        let pool = Pool::new(threads);
        let result = std::panic::catch_unwind(|| {
            pool.map(&items, |&x| {
                assert!(x != poison, "synthetic worker failure");
                x * 2
            })
        });
        assert!(result.is_err(), "panic at item {poison} must reach the caller");
    }

    /// An [`ExperimentReport`] survives the JSON round trip exactly —
    /// report → `to_json` → encode → parse → `from_json` is the identity,
    /// including hostile KPI names and full-precision f64 values.
    fn experiment_report_json_round_trip(g) {
        let report = ExperimentReport {
            experiment: json_hostile_name(g),
            kpis: g.vec(0..8, |g| Kpi {
                name: json_hostile_name(g),
                value: g.f64_in(-1e9, 1e9),
                tol: g.f64_in(0.0, 0.5),
            }),
        };
        let encoded = report.to_json().encode();
        let doc = Json::parse(&encoded).expect("report encoding is well-formed JSON");
        let back = ExperimentReport::from_json(&doc).expect("round trip parses");
        assert_eq!(back, report);
    }
}

/// `ExperimentReport::from_json` rejects structurally malformed documents
/// with a message naming the first offending member, and defaults a
/// missing `tol`.
#[test]
fn experiment_report_from_json_malformed_inputs() {
    for (text, expect) in [
        (r#"{"kpis":[]}"#, "missing `experiment`"),
        (r#"{"experiment":7,"kpis":[]}"#, "missing `experiment`"),
        (r#"{"experiment":"x"}"#, "missing `kpis`"),
        (r#"{"experiment":"x","kpis":3}"#, "missing `kpis`"),
        (
            r#"{"experiment":"x","kpis":[{"value":1,"tol":0}]}"#,
            "missing `name`",
        ),
        (
            r#"{"experiment":"x","kpis":[{"name":7,"value":1}]}"#,
            "missing `name`",
        ),
        (
            r#"{"experiment":"x","kpis":[{"name":"k","tol":0}]}"#,
            "missing `value`",
        ),
        (
            r#"{"experiment":"x","kpis":[{"name":"k","value":"nope"}]}"#,
            "missing `value`",
        ),
    ] {
        let doc = Json::parse(text).expect("test inputs are well-formed JSON");
        let err = ExperimentReport::from_json(&doc).expect_err(text);
        assert!(err.contains(expect), "{text}: got error {err:?}");
    }
    // A missing `tol` is not an error: it takes the default tolerance.
    let doc = Json::parse(r#"{"experiment":"x","kpis":[{"name":"k","value":2}]}"#).unwrap();
    let report = ExperimentReport::from_json(&doc).expect("tol is optional");
    assert_eq!(report.kpis[0].tol, f2_core::experiment::DEFAULT_KPI_TOL);
}

/// The sweep counter total is invariant across explicit worker counts for
/// a fixed design space (the deterministic companion to the property test
/// above, pinning one space across many thread counts).
#[test]
fn pareto_sweep_counter_is_thread_count_invariant() {
    let space = DesignSpace::new()
        .axis("x", (0..12).map(f64::from))
        .axis("y", [1.0, 2.0, 3.0]);
    let dirs = [Direction::Minimize, Direction::Minimize];
    let eval = |p: &f2_core::pareto::ParamPoint| vec![p["x"] + p["y"], p["x"] * p["y"]];
    let mut totals = Vec::new();
    for threads in [1, 2, 3, 5, 8, 64] {
        let session = trace::session();
        let sweep = space.sweep_parallel(&dirs, threads, eval);
        let report = session.finish();
        assert_eq!(sweep.points().len(), 36);
        totals.push(report.counter("pareto.sweep_parallel.points"));
    }
    assert_eq!(totals, vec![36; 6]);
}

/// A panicking evaluator must bring down `sweep_parallel`, not produce a
/// truncated sweep (mirrors the `exec` panic-propagation guarantee).
#[test]
fn pareto_sweep_parallel_propagates_panics() {
    let space = DesignSpace::new().axis("x", (0..16).map(f64::from));
    let result = std::panic::catch_unwind(|| {
        space.sweep_parallel(&[Direction::Minimize], 4, |p| {
            assert!(p["x"] < 10.0, "synthetic evaluator failure");
            vec![p["x"]]
        })
    });
    assert!(
        result.is_err(),
        "evaluator panic must propagate to the caller"
    );
}

f2_core::ptest! {
    /// Every sparsity-pattern generator is a pure function of
    /// (pattern, shape, density, seed): regenerating is bit-identical, and
    /// the CSR invariants plus exact stats hold for arbitrary specs.
    fn sparse_generators_are_seed_deterministic(g) {
        use f2_core::workload::sparse::{generate, SparsityPattern};
        let pattern = SparsityPattern::ALL[g.usize_in(0..SparsityPattern::ALL.len())];
        let rows = g.usize_in(1..96);
        let cols = g.usize_in(1..96);
        let nnz_per_row = g.usize_in(1..12);
        let seed = g.u64();
        let m = generate(pattern, rows, cols, nnz_per_row, seed).expect("valid spec");
        let again = generate(pattern, rows, cols, nnz_per_row, seed).expect("valid spec");
        assert_eq!(m, again, "same seed must be bit-identical");
        assert_eq!(m.row_ptr().len(), rows + 1);
        assert_eq!(m.nnz(), m.col_idx().len());
        for r in 0..rows {
            let row = m.row_cols(r);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "rows sorted, no dups");
            assert!(row.iter().all(|&c| c < cols), "columns in range");
        }
        let stats = m.stats();
        assert_eq!(stats.nnz, m.nnz());
        assert_eq!(stats.row_hist.iter().sum::<usize>(), rows);
        assert_eq!(
            stats.empty_rows,
            (0..rows).filter(|&r| m.row_nnz(r) == 0).count()
        );
    }

    /// Generation is thread-count-invariant: matrices produced on worker
    /// pools of any width match the single-threaded result exactly.
    fn sparse_generation_is_thread_count_invariant(g) {
        use f2_core::workload::sparse::{generate, SparsityPattern};
        let pattern = SparsityPattern::ALL[g.usize_in(0..SparsityPattern::ALL.len())];
        let rows = g.usize_in(1..64);
        let nnz_per_row = g.usize_in(1..10);
        let seed = g.u64();
        let seeds: Vec<u64> = (0..8).map(|i| seed.wrapping_add(i)).collect();
        let reference: Vec<_> = seeds
            .iter()
            .map(|&s| generate(pattern, rows, rows, nnz_per_row, s).expect("valid spec"))
            .collect();
        for threads in [1usize, 2, 8] {
            let pool = Pool::new(threads);
            let parallel = pool.map(&seeds, |&s| {
                generate(pattern, rows, rows, nnz_per_row, s).expect("valid spec")
            });
            assert_eq!(parallel, reference, "threads={threads} must be bit-identical");
        }
    }
}
