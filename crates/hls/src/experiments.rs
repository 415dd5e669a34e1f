//! This thrust's registry entries for the unified `f2` runner.

use f2_core::experiment::render::fmt;
use f2_core::experiment::{Experiment, ExperimentCtx, ExperimentReport, ParamSpec};
use f2_core::pareto::{DesignSpace, Direction};
use f2_core::workload::graph::rmat;
use f2_core::workload::sparse::{generate, SparseMatrix, SparsityPattern};
use f2_core::CoreError;

use crate::sparta::{run, CacheConfig, Kernel, SpartaConfig, Workload, WorkloadBuilder};
use crate::spdataflow::{spgemm_cost, spmv_cost, Dataflow, Policy, SpConfig};

fn spmv_trace(graph: &f2_core::workload::graph::CsrGraph) -> Workload {
    WorkloadBuilder::new(&SparseMatrix::from_csr_graph(graph))
        .kernel(Kernel::Spmv)
        .build()
}

fn bfs_trace(graph: &f2_core::workload::graph::CsrGraph) -> Workload {
    WorkloadBuilder::new(&SparseMatrix::from_csr_graph(graph))
        .kernel(Kernel::Bfs)
        .build()
}

/// E2 / §III — SPARTA parallel multi-threaded accelerators on irregular
/// graph kernels.
///
/// Reproduces the claim shape: SPARTA-generated accelerators (spatial lanes
/// plus hardware contexts, multi-channel NoC and memory-side cache) beat the
/// sequential HLS baseline on irregular workloads, with speedup growing as
/// memory latency rises (context switching hides it).
pub struct SpartaSpeedup;

impl Experiment for SpartaSpeedup {
    fn name(&self) -> &'static str {
        "sparta_speedup"
    }

    fn summary(&self) -> &'static str {
        "E2 / §III: SPARTA multi-threaded accelerators vs sequential HLS"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e2", "hls", "sparta"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::u64("rmat_scale", "log2 RMAT vertices (quick 8, full 10)"),
            ParamSpec::u64("rmat_edge_factor", "RMAT edges per vertex (default 8)"),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        // Quick mode shrinks the RMAT graph two scales; the claim shapes
        // (speedup > 1, monotone latency hiding) survive intact.
        let scale = ctx.param_u64("rmat_scale", if ctx.quick() { 8 } else { 10 }) as u32;
        let edge_factor = ctx.param_u64("rmat_edge_factor", 8) as usize;
        let graph = rmat(scale, edge_factor, f2_core::rng::DEFAULT_SEED);
        ctx.note(&format!(
            "Workload graphs: RMAT scale-{scale} ({} vertices, {} edges, power-law)",
            graph.num_nodes(),
            graph.num_edges()
        ));

        for (name, wl) in [("spmv", spmv_trace(&graph)), ("bfs", bfs_trace(&graph))] {
            ctx.section(&format!(
                "{name}: SPARTA configuration sweep (mem latency 100)"
            ));
            let _phase = ctx.span(&format!("sparta:{name}_sweep"));
            let base = run(&wl, &SpartaConfig::sequential_baseline(100)).expect("valid config");
            let sweep = [
                (1, 1, 1, false),
                (1, 8, 1, false),
                (1, 8, 4, false),
                (4, 8, 4, false),
                (4, 8, 4, true),
            ];
            // Configuration points are independent cycle-level simulations —
            // run them on the context's worker budget.
            let reports = ctx.exec().map(&sweep, |&(accels, ctxs, chans, cache)| {
                let cfg = SpartaConfig {
                    accelerators: accels,
                    contexts_per_accel: ctxs,
                    mem_channels: chans,
                    mem_latency: 100,
                    noc_hop_latency: 2,
                    context_switch_penalty: 1,
                    cache: cache.then(CacheConfig::small),
                };
                (run(&wl, &cfg).expect("valid config"), cfg)
            });
            let mut rows = Vec::new();
            let mut best_speedup: f64 = 0.0;
            let mut best_hit_rate = 0.0;
            for ((accels, ctxs, chans, cache), (r, cfg)) in sweep.iter().zip(reports) {
                let speedup = base.cycles as f64 / r.cycles as f64;
                if speedup > best_speedup {
                    best_speedup = speedup;
                    best_hit_rate = r.hit_rate();
                }
                rows.push(vec![
                    format!(
                        "{accels}x{ctxs}ctx/{chans}ch{}",
                        if *cache { "+cache" } else { "" }
                    ),
                    r.cycles.to_string(),
                    fmt(speedup, 2),
                    fmt(r.utilization(&cfg), 2),
                    fmt(r.hit_rate(), 2),
                ]);
            }
            ctx.table(
                &["Config", "Cycles", "Speedup", "Lane util", "Cache hit"],
                &rows,
            );
            ctx.kpi(&format!("{name}/baseline_cycles"), base.cycles as f64);
            ctx.kpi(&format!("{name}/best_speedup"), best_speedup);
            ctx.kpi(&format!("{name}/best_cache_hit_rate"), best_hit_rate);
        }

        ctx.section("Ablation: speedup vs external memory latency (4x8ctx/4ch+cache)");
        let _phase = ctx.span("sparta:latency_ablation");
        let wl = spmv_trace(&graph);
        let latencies: &[u32] = if ctx.quick() {
            &[25, 100, 400]
        } else {
            &[25, 50, 100, 200, 400]
        };
        let results = ctx.exec().map(latencies, |&lat| {
            let cfg = SpartaConfig {
                accelerators: 4,
                contexts_per_accel: 8,
                mem_channels: 4,
                mem_latency: lat,
                noc_hop_latency: 2,
                context_switch_penalty: 1,
                cache: Some(CacheConfig::small()),
            };
            let base = run(&wl, &SpartaConfig::sequential_baseline(lat)).expect("valid config");
            let opt = run(&wl, &cfg).expect("valid config");
            (base, opt)
        });
        let mut rows = Vec::new();
        for (&lat, (base, opt)) in latencies.iter().zip(results) {
            let speedup = base.cycles as f64 / opt.cycles as f64;
            rows.push(vec![
                lat.to_string(),
                base.cycles.to_string(),
                opt.cycles.to_string(),
                fmt(speedup, 2),
            ]);
            ctx.kpi(&format!("spmv/speedup_at_latency_{lat}"), speedup);
        }
        ctx.table(
            &["Mem latency", "Baseline cyc", "SPARTA cyc", "Speedup"],
            &rows,
        );
        ctx.note("\nShape check: speedup grows with memory latency — the latency-hiding");
        ctx.note("claim of the SPARTA template (§III).");
        Ok(ctx.report(self.name()))
    }
}

/// §III — sparse-dataflow design-space explorer: SpGEMM/SpMV dataflow
/// cost models over procedural sparsity patterns.
///
/// For each generated matrix the experiment evaluates `C = A·A` and
/// `y = A·x` under every fixed dataflow (inner-product, outer-product,
/// multi-row Gustavson) and the adaptive per-row-block policy, then runs a
/// Pareto sweep over tile × buffer configurations. The claim shape: no
/// fixed dataflow wins everywhere, and the adaptive policy is never worse
/// than the best fixed one (strictly better on mixed-sparsity inputs).
pub struct SpDataflow;

impl SpDataflow {
    /// Resolves the scenario params into a matrix + config, converting
    /// domain errors into runner-visible invalid-parameter errors.
    fn resolve(ctx: &ExperimentCtx) -> f2_core::Result<(SparseMatrix, Policy, SpConfig)> {
        let pattern = SparsityPattern::parse(&ctx.param_str("pattern", "powerlaw"))?;
        let rows = ctx.param_u64("rows", if ctx.quick() { 256 } else { 1024 }) as usize;
        let nnz_per_row = ctx.param_u64("nnz_per_row", 8) as usize;
        let policy = Policy::parse(&ctx.param_str("dataflow", "adaptive")).map_err(|e| {
            CoreError::InvalidParameter {
                name: "dataflow".to_string(),
                reason: e.to_string(),
            }
        })?;
        let cfg = SpConfig {
            tile_rows: ctx.param_u64("tile_rows", 8) as usize,
            buffer_words: ctx.param_u64("buffer_words", if ctx.quick() { 128 } else { 512 })
                as usize,
            ..SpConfig::default()
        };
        cfg.validate().map_err(|e| CoreError::InvalidParameter {
            name: "tile_rows/buffer_words".to_string(),
            reason: e.to_string(),
        })?;
        let matrix = generate(pattern, rows, rows, nnz_per_row, ctx.seed())?;
        Ok((matrix, policy, cfg))
    }
}

impl Experiment for SpDataflow {
    fn name(&self) -> &'static str {
        "hls/spdataflow"
    }

    fn summary(&self) -> &'static str {
        "§III: SpGEMM/SpMV dataflow cost models across sparsity patterns"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["hls", "sparse", "dse"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::str("pattern", "sparsity pattern: uniform|banded|powerlaw|block"),
            ParamSpec::u64("rows", "matrix dimension (quick 256, full 1024)"),
            ParamSpec::u64("nnz_per_row", "target nonzeros per row (default 8)"),
            ParamSpec::str(
                "dataflow",
                "reported policy: inner|outer|row|adaptive (default adaptive)",
            ),
            ParamSpec::u64("tile_rows", "rows of A per row-block (default 8)"),
            ParamSpec::u64("buffer_words", "on-chip buffer words (quick 128, full 512)"),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        let (matrix, policy, cfg) = Self::resolve(ctx)?;
        let stats = matrix.stats();
        ctx.note(&format!(
            "Matrix: {}x{}, {} nnz (density {:.4}), row nnz {}..{} (mean {:.1}), {} empty rows",
            stats.rows,
            stats.cols,
            stats.nnz,
            matrix.density(),
            stats.min_row_nnz,
            stats.max_row_nnz,
            stats.mean_row_nnz,
            stats.empty_rows
        ));
        ctx.kpi("matrix/nnz", stats.nnz as f64);
        ctx.kpi("matrix/max_row_nnz", stats.max_row_nnz as f64);

        ctx.section("SpGEMM C = A*A: fixed dataflows vs adaptive per-row-block");
        let _phase = ctx.span("spdataflow:spgemm");
        let policies = [
            Policy::Fixed(Dataflow::Inner),
            Policy::Fixed(Dataflow::Outer),
            Policy::Fixed(Dataflow::RowWise),
            Policy::Adaptive,
        ];
        // The four policy evaluations are independent symbolic passes.
        let reports = ctx.exec().map(&policies, |&p| {
            spgemm_cost(&matrix, &matrix, p, &cfg).expect("validated config")
        });
        let mut rows = Vec::new();
        let mut best_fixed = u64::MAX;
        for (p, r) in policies.iter().zip(&reports) {
            if matches!(p, Policy::Fixed(_)) {
                best_fixed = best_fixed.min(r.cycles);
            }
            rows.push(vec![
                p.name().to_string(),
                r.cycles.to_string(),
                r.compute_cycles.to_string(),
                r.dram_words.to_string(),
                r.peak_buffer_words.to_string(),
                r.switches.to_string(),
            ]);
            ctx.kpi(&format!("spgemm/{}_cycles", p.name()), r.cycles as f64);
        }
        ctx.table(
            &[
                "Policy",
                "Cycles",
                "Compute",
                "DRAM words",
                "Peak buf",
                "Switches",
            ],
            &rows,
        );
        let adaptive = reports[3];
        ctx.kpi("spgemm/adaptive_switches", adaptive.switches as f64);
        ctx.kpi(
            "spgemm/best_fixed_over_adaptive",
            best_fixed as f64 / adaptive.cycles as f64,
        );

        let selected = reports[policies.iter().position(|p| *p == policy).expect("listed")];
        ctx.kpi("selected/cycles", selected.cycles as f64);
        ctx.kpi("selected/dram_words", selected.dram_words as f64);
        ctx.kpi(
            "selected/peak_buffer_words",
            selected.peak_buffer_words as f64,
        );

        ctx.section("SpMV y = A*x");
        let _phase = ctx.span("spdataflow:spmv");
        let spmv_reports = ctx.exec().map(&policies, |&p| {
            spmv_cost(&matrix, p, &cfg).expect("validated config")
        });
        let spmv_best_fixed = spmv_reports[..3].iter().map(|r| r.cycles).min().expect("3");
        ctx.kpi("spmv/adaptive_cycles", spmv_reports[3].cycles as f64);
        ctx.kpi("spmv/best_fixed_cycles", spmv_best_fixed as f64);

        ctx.section("Pareto sweep: tile_rows x buffer_words (adaptive policy)");
        let _phase = ctx.span("spdataflow:pareto");
        let (tiles, buffers): (&[f64], &[f64]) = if ctx.quick() {
            (&[8.0, 32.0], &[128.0, 1024.0])
        } else {
            (&[8.0, 16.0, 32.0, 64.0], &[128.0, 512.0, 1024.0, 4096.0])
        };
        let dirs = [
            Direction::Minimize,
            Direction::Minimize,
            Direction::Minimize,
        ];
        let space = DesignSpace::new()
            .axis("tile_rows", tiles.iter().copied())
            .axis("buffer_words", buffers.iter().copied());
        let sweep = space.sweep_with(&dirs, ctx.exec(), |point| {
            let c = SpConfig {
                tile_rows: point["tile_rows"] as usize,
                buffer_words: point["buffer_words"] as usize,
                ..cfg
            };
            let r = spgemm_cost(&matrix, &matrix, Policy::Adaptive, &c).expect("validated");
            vec![
                r.cycles as f64,
                r.dram_words as f64,
                r.peak_buffer_words as f64,
            ]
        });
        let mut front_rows = Vec::new();
        for (point, obj) in sweep.front_entries() {
            front_rows.push(vec![
                format!("{}", point["tile_rows"] as u64),
                format!("{}", point["buffer_words"] as u64),
                format!("{}", obj[0] as u64),
                format!("{}", obj[1] as u64),
                format!("{}", obj[2] as u64),
            ]);
        }
        ctx.table(
            &["Tile", "Buffer", "Cycles", "DRAM words", "Peak buf"],
            &front_rows,
        );
        let best = sweep.best_for(0, Direction::Minimize).expect("non-empty");
        ctx.kpi("pareto/front_size", front_rows.len() as f64);
        ctx.kpi("pareto/best_cycles", sweep.objectives()[best][0]);
        ctx.note("\nShape check: the adaptive policy never loses to a fixed dataflow, and");
        ctx.note("mixed-sparsity inputs make it strictly faster (§III dataflow co-design).");
        Ok(ctx.report(self.name()))
    }
}

/// This crate's experiments, for registry assembly.
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    vec![Box::new(SpartaSpeedup), Box::new(SpDataflow)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::rng::DEFAULT_SEED;
    use f2_core::scenario::{Fidelity, Scenario};

    #[test]
    fn sparta_experiment_reports_latency_hiding() {
        let mut ctx =
            ExperimentCtx::quiet_scenario(&Scenario::new(DEFAULT_SEED, Fidelity::Quick, 2));
        let report = SpartaSpeedup.run(&mut ctx).expect("valid configs");
        let lo = report.kpi("spmv/speedup_at_latency_25").expect("kpi");
        let hi = report.kpi("spmv/speedup_at_latency_400").expect("kpi");
        assert!(lo > 1.0, "SPARTA must beat the baseline (got {lo})");
        assert!(hi > lo, "speedup must grow with memory latency");
    }

    #[test]
    fn spdataflow_adaptive_never_loses() {
        let mut ctx =
            ExperimentCtx::quiet_scenario(&Scenario::new(DEFAULT_SEED, Fidelity::Quick, 2));
        let report = SpDataflow.run(&mut ctx).expect("valid params");
        let ratio = report.kpi("spgemm/best_fixed_over_adaptive").expect("kpi");
        assert!(
            ratio >= 1.0,
            "adaptive must never lose to a fixed dataflow (ratio {ratio})"
        );
        let adaptive = report.kpi("spgemm/adaptive_cycles").expect("kpi");
        for df in ["inner", "outer", "row"] {
            let fixed = report.kpi(&format!("spgemm/{df}_cycles")).expect("kpi");
            assert!(
                adaptive <= fixed,
                "adaptive {adaptive} lost to {df} {fixed}"
            );
        }
        assert!(report.kpi("pareto/front_size").expect("kpi") >= 1.0);
    }

    #[test]
    fn spdataflow_report_is_thread_count_invariant() {
        let run_at = |threads| {
            let scenario = Scenario::new(DEFAULT_SEED, Fidelity::Quick, threads);
            let mut ctx = ExperimentCtx::quiet_scenario(&scenario);
            SpDataflow.run(&mut ctx).expect("valid params")
        };
        let base = run_at(1);
        assert_eq!(base, run_at(2), "threads=2 must be bit-identical");
        assert_eq!(base, run_at(8), "threads=8 must be bit-identical");
    }

    #[test]
    fn spdataflow_rejects_invalid_scenario_params() {
        use f2_core::scenario::ParamValue;
        for (name, value) in [
            ("pattern", ParamValue::Str("mystery".to_string())),
            ("dataflow", ParamValue::Str("spada".to_string())),
            ("tile_rows", ParamValue::Num(0.0)),
            ("buffer_words", ParamValue::Num(0.0)),
            ("rows", ParamValue::Num(0.0)),
        ] {
            let scenario = Scenario::default().with_param(name, value);
            let mut ctx = ExperimentCtx::quiet_scenario(&scenario);
            match SpDataflow.run(&mut ctx) {
                Err(f2_core::CoreError::InvalidParameter { .. }) => {}
                other => panic!("`{name}` must yield InvalidParameter, got {other:?}"),
            }
        }
    }
}
