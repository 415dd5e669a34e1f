//! This thrust's registry entries for the unified `f2` runner.

use f2_core::experiment::render::fmt;
use f2_core::experiment::{Experiment, ExperimentCtx, ExperimentReport, ParamSpec, SeedlessCtx};
use f2_core::workload::dnn::fsrcnn;

use crate::fpga_model::table1_rows;
use crate::fsrcnn::{DeconvMode, FsrcnnModel};
use crate::htconv::{htconv_upscale2x, FoveaSpec};
use crate::image::Image;
use crate::psnr::{psnr, psnr_cropped};
use crate::tconv::{bicubic_kernel, tconv_upscale2x};

/// E5 / Fig. 3 + §V — HTCONV MAC saving vs PSNR.
///
/// Reproduces: (a) the foveated HTCONV layer saves the bulk of the exact
/// TCONV's MACs with a PSNR reduction below 10%; (b) the full approximate
/// model (FSRCNN(25,5,1)+HTCONV) saves >80% of the MACs of the
/// FSRCNN(56,12,4) baseline; (c) the fovea-fraction ablation.
pub struct HtconvQuality;

impl HtconvQuality {
    /// The whole report. The scenes, the FSRCNN weights and its input are
    /// fixed synthetic data, so nothing here depends on the scenario seed.
    fn tables(ctx: &mut SeedlessCtx) {
        {
            let _phase = ctx.span("htconv:layer_quality");
            Self::layer_quality(ctx);
        }
        {
            let _phase = ctx.span("htconv:model_level");
            Self::model_level(ctx);
        }
        {
            let _phase = ctx.span("htconv:end_to_end");
            Self::end_to_end_inference(ctx);
        }
    }

    fn layer_quality(ctx: &mut SeedlessCtx) {
        // Quick mode halves the scene size and count; the saving/PSNR
        // trade-off shape is scale-invariant.
        let (scene_d, scenes_d) = if ctx.quick() { (64, 2) } else { (96, 4) };
        let scene_dim = ctx.param_u64("scene_dim", scene_d) as usize;
        let scenes_n = ctx.param_u64("scenes", scenes_d);
        let lr_dim = scene_dim / 2;
        ctx.section(&format!(
            "HTCONV layer: fovea fraction vs MAC saving and PSNR ({scene_dim}x{scene_dim} scenes)"
        ));
        let scenes: Vec<Image> = (0..scenes_n)
            .map(|s| Image::synthetic(scene_dim, scene_dim, 100 + s))
            .collect();
        let fracs: &[f64] = if ctx.quick() {
            &[1.0, 0.5, 0.15, 0.0]
        } else {
            &[1.0, 0.5, 0.3, 0.15, 0.05, 0.0]
        };
        // The low-resolution input, its exact upscale and that upscale's
        // PSNR depend on the scene alone, so they are computed once, not
        // once per fovea fraction.
        let inputs = ctx.exec().map(&scenes, |hr| {
            let lr = hr.downsample2x().expect("even dims");
            let (exact, _) = tconv_upscale2x(&lr, &bicubic_kernel());
            (lr, psnr_cropped(hr, &exact, 6).expect("same dims"))
        });
        let n = scenes.len() as f64;
        let mut pe = 0.0;
        for (_, psnr_exact) in &inputs {
            pe += psnr_exact;
        }
        let pe = pe / n;
        // Each fovea fraction is an independent HTCONV pass per scene; the
        // fraction sets how many pixels take all four exact phases, so the
        // passes differ widely in cost: the skewed shape the
        // work-stealing pool schedules well.
        let frac_results = ctx.exec().map(fracs, |&frac| {
            let fovea = FoveaSpec::centered_fraction(lr_dim, lr_dim, frac);
            let mut saving = 0.0;
            let mut psnr_hybrid = 0.0;
            for (hr, (lr, _)) in scenes.iter().zip(&inputs) {
                let (hybrid, stats) = htconv_upscale2x(lr, &bicubic_kernel(), &fovea);
                saving += stats.mac_saving_vs_exact();
                psnr_hybrid += psnr_cropped(hr, &hybrid, 6).expect("same dims");
            }
            (saving / n, psnr_hybrid / n)
        });
        let mut rows = Vec::new();
        for (&frac, &(saving, ph)) in fracs.iter().zip(&frac_results) {
            let loss_pct = (pe - ph) / pe * 100.0;
            rows.push(vec![
                fmt(frac, 2),
                fmt(saving * 100.0, 1),
                fmt(pe, 2),
                fmt(ph, 2),
                fmt(loss_pct, 2),
            ]);
            if frac == 0.15 {
                ctx.kpi("layer/mac_saving_pct_at_015_fovea", saving * 100.0);
                ctx.kpi("layer/psnr_loss_pct_at_015_fovea", loss_pct);
            }
        }
        ctx.table(
            &[
                "Fovea frac",
                "MAC saving %",
                "PSNR exact dB",
                "PSNR HTCONV dB",
                "PSNR loss %",
            ],
            &rows,
        );
        ctx.note("\nShape check: sub-10% PSNR loss at substantial layer-MAC saving (§V).");
    }

    fn model_level(ctx: &mut SeedlessCtx) {
        ctx.section("Model-level MACs (1080p -> 4K, per frame): approximate vs baseline");
        let h = 1080 / 2;
        let w = 1920 / 2;
        let baseline = fsrcnn(56, 12, 4, h, w).expect("valid model");
        let small = fsrcnn(25, 5, 1, h, w).expect("valid model");
        // HTCONV variant: the deconv layer's MACs shrink by the measured
        // saving (15% fovea, from the layer table).
        let fovea_saving = 0.72;
        let deconv_macs: u64 = small
            .layers()
            .iter()
            .filter(|l| l.name() == "deconv")
            .map(|l| l.macs())
            .sum();
        let approx_macs = small.total_macs() - (deconv_macs as f64 * fovea_saving) as u64;
        let saving_pct = (1.0 - approx_macs as f64 / baseline.total_macs() as f64) * 100.0;
        let rows = vec![
            vec![
                baseline.name().to_string(),
                baseline.total_macs().to_string(),
                fmt(0.0, 1),
            ],
            vec![
                small.name().to_string(),
                small.total_macs().to_string(),
                fmt(
                    (1.0 - small.total_macs() as f64 / baseline.total_macs() as f64) * 100.0,
                    1,
                ),
            ],
            vec![
                format!("{} + HTCONV", small.name()),
                approx_macs.to_string(),
                fmt(saving_pct, 1),
            ],
        ];
        ctx.table(&["Model", "MACs/frame", "Saving vs baseline %"], &rows);
        ctx.kpi("model/mac_saving_pct_vs_baseline", saving_pct);
        ctx.note("\nShape check: the approximate model saves >80% of the baseline's");
        ctx.note("MACs — the §V headline claim.");
    }

    fn end_to_end_inference(ctx: &mut SeedlessCtx) {
        let in_dim = ctx.param_u64("in_dim", if ctx.quick() { 32 } else { 48 }) as usize;
        ctx.section(&format!(
            "End-to-end FSRCNN(8,3,1) inference ({in_dim}x{in_dim}), exact vs HTCONV final layer"
        ));
        let model = FsrcnnModel::generate(8, 3, 1, 42);
        let lr = Image::synthetic(in_dim, in_dim, 7);
        let exact = model.run(&lr, DeconvMode::Exact, None);
        let fovea = FoveaSpec::centered_fraction(in_dim, in_dim, 0.15);
        let hybrid = model.run(&lr, DeconvMode::Htconv(fovea), None);
        let psnr_vs_exact = psnr(&exact.image, &hybrid.image).expect("same dims");
        let rows = vec![
            vec![
                "exact TCONV".to_string(),
                exact.total_macs().to_string(),
                "-".to_string(),
            ],
            vec![
                "HTCONV (15% fovea)".to_string(),
                hybrid.total_macs().to_string(),
                fmt(psnr_vs_exact, 2),
            ],
        ];
        ctx.table(&["Final layer", "Total MACs", "PSNR vs exact (dB)"], &rows);
        ctx.kpi("end_to_end/psnr_vs_exact_db", psnr_vs_exact);
        ctx.kpi(
            "end_to_end/mac_ratio",
            hybrid.total_macs() as f64 / exact.total_macs() as f64,
        );
    }
}

impl Experiment for HtconvQuality {
    fn name(&self) -> &'static str {
        "htconv_quality"
    }

    fn summary(&self) -> &'static str {
        "E5 / Fig. 3 + §V: HTCONV MAC saving vs PSNR, model-level saving"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e5", "approx", "figure"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::u64(
                "scene_dim",
                "square scene edge, must be even (quick 64, full 96)",
            ),
            ParamSpec::u64("scenes", "synthetic scenes averaged (quick 2, full 4)"),
            ParamSpec::u64(
                "in_dim",
                "end-to-end inference input edge (quick 32, full 48)",
            ),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        ctx.seedless("htconv_quality/tables", Self::tables);
        Ok(ctx.report(self.name()))
    }
}

/// E6 / Table I — FPGA implementation comparison of super-resolution
/// accelerators.
///
/// Rows \[15\] and \[17\] are published literature values (inputs to the
/// table, as in the paper); the "New" row is computed by the `f2-approx`
/// architectural model of the Fig. 4 HTCONV datapath.
pub struct Table1Fpga;

impl Experiment for Table1Fpga {
    fn name(&self) -> &'static str {
        "table1_fpga"
    }

    fn summary(&self) -> &'static str {
        "E6 / Table I: FPGA super-resolution comparison, computed 'New' row"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e6", "approx", "fpga", "table"]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        ctx.section("Table I — comparison to FPGA-based SotA super-resolution");
        let _phase = ctx.span("table1:assemble");
        let all_rows = table1_rows();
        let rows: Vec<Vec<String>> = all_rows
            .iter()
            .map(|r| {
                vec![
                    r.method.clone(),
                    format!("{}x{}", r.in_resolution.0, r.in_resolution.1),
                    format!("({},{})", r.bitwidth.0, r.bitwidth.1),
                    r.technology.clone(),
                    fmt(r.fmax.value(), 0),
                    fmt(r.out_throughput.value(), 2),
                    r.luts.to_string(),
                    r.ffs.to_string(),
                    r.dsps.to_string(),
                    fmt(r.bram_kb, 1),
                    r.power
                        .map(|p| fmt(p.value(), 2))
                        .unwrap_or_else(|| "NA".to_string()),
                    r.energy_efficiency()
                        .map(|e| fmt(e.value(), 1))
                        .unwrap_or_else(|| "NA".to_string()),
                ]
            })
            .collect();
        ctx.table(
            &[
                "Method", "In res", "Bits", "Device", "Fmax MHz", "Mpix/s", "LUTs", "FFs", "DSPs",
                "BRAM KB", "Power W", "Mpix/s/W",
            ],
            &rows,
        );
        let new = all_rows.last().expect("table has the computed row");
        ctx.kpi("new_row/fmax_mhz", new.fmax.value());
        ctx.kpi("new_row/throughput_mpix_s", new.out_throughput.value());
        ctx.kpi("new_row/luts", new.luts as f64);
        ctx.kpi("new_row/dsps", new.dsps as f64);
        if let Some(e) = new.energy_efficiency() {
            ctx.kpi("new_row/mpix_s_per_watt", e.value());
        }
        ctx.note("\nPaper row 'New': 222 MHz, 753.04 Mpix/s, 28080 LUTs, 81791 FFs,");
        ctx.note("1750 DSPs, 542.25 KB, 3.7 W, 203.5 Mpix/s/W — compare the computed row.");
        ctx.note("Shape check: ~6x fewer LUTs and ~2.2x better Mpix/s/W than [15],");
        ctx.note("throughput parity with [17].");
        Ok(ctx.report(self.name()))
    }
}

/// This crate's experiments, for registry assembly.
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    vec![Box::new(HtconvQuality), Box::new(Table1Fpga)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::scenario::Scenario;

    #[test]
    fn htconv_quick_mode_preserves_headline_claims() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        let report = HtconvQuality.run(&mut ctx).expect("runs");
        assert!(report.kpi("model/mac_saving_pct_vs_baseline").expect("kpi") > 80.0);
        assert!(report.kpi("layer/psnr_loss_pct_at_015_fovea").expect("kpi") < 10.0);
    }

    #[test]
    fn table1_computed_row_is_calibrated() {
        let mut ctx = ExperimentCtx::quiet_scenario(&Scenario::default());
        let report = Table1Fpga.run(&mut ctx).expect("runs");
        assert_eq!(report.kpi("new_row/fmax_mhz"), Some(222.0));
    }
}
