//! This thrust's registry entries for the unified `f2` runner.

use f2_core::energy::{EnergyLedger, OpEnergy, OpKind, TechNode};
use f2_core::experiment::render::fmt;
use f2_core::experiment::{Experiment, ExperimentCtx, ExperimentReport, ParamSpec};
use f2_core::kpi::Megahertz;
use f2_core::tensor::Matrix;

use crate::crossbar::{Adc, Crossbar};
use crate::device::DeviceModel;
use crate::dimc::DimcMacro;
use crate::eval::{imc_accuracy, make_train_test, train_mlp, DeploymentScenario};
use crate::program::{program_array, OpenLoop, ProgramVerify, Programmer};
use crate::tile::{ImcTileLayer, TileConfig};

/// E3 / §IV (device level) — program-and-verify vs open-loop programming.
///
/// Reproduces: (a) P&V collapses the conductance-error distribution at the
/// cost of more pulses; (b) deployed-DNN accuracy is retained under P&V and
/// degraded by open-loop programming; (c) PCM drift erodes accuracy over
/// time and digital compensation restores it.
pub struct ImcAccuracy;

impl ImcAccuracy {
    fn programming_table(&self, ctx: &mut ExperimentCtx) {
        let cells = ctx.param_u64("cells", if ctx.quick() { 500 } else { 2000 }) as usize;
        ctx.section(&format!(
            "Programming error vs pulse budget (RRAM, {cells} cells)"
        ));
        let dev = DeviceModel::rram();
        let weights: Vec<f64> = (0..cells).map(|i| (i % 101) as f64 / 100.0).collect();
        let mut rows = Vec::new();
        let mut rng = ctx.rng_for("e3-open");
        let (_, ol) = program_array(&OpenLoop, &dev, &weights, &mut rng);
        rows.push(vec![
            "open-loop".to_string(),
            fmt(ol.rms_error * 100.0, 2),
            fmt(ol.total_pulses as f64 / weights.len() as f64, 1),
        ]);
        ctx.kpi("programming/open_loop_rms_pct", ol.rms_error * 100.0);
        for tol in [0.05, 0.02, 0.01, 0.005] {
            let pv = ProgramVerify {
                tolerance: tol,
                max_pulses: 64,
            };
            let mut rng = ctx.rng_for("e3-pv");
            let (_, st) = program_array(&pv, &dev, &weights, &mut rng);
            rows.push(vec![
                format!("P&V tol {:.1}%", tol * 100.0),
                fmt(st.rms_error * 100.0, 2),
                fmt(st.total_pulses as f64 / weights.len() as f64, 1),
            ]);
            if tol == 0.01 {
                ctx.kpi("programming/pv_1pct_rms_pct", st.rms_error * 100.0);
                ctx.kpi(
                    "programming/pv_1pct_pulses_per_cell",
                    st.total_pulses as f64 / weights.len() as f64,
                );
            }
        }
        ctx.table(&["Scheme", "RMS error (% window)", "Pulses/cell"], &rows);
    }

    fn accuracy_table(&self, ctx: &mut ExperimentCtx) {
        ctx.section("Deployed MLP accuracy (6-class synthetic task, tiled IMC)");
        let (train_d, test_d, epochs_d) = if ctx.quick() {
            (40, 24, 10)
        } else {
            (80, 40, 15)
        };
        let train_n = ctx.param_u64("train_n", train_d) as usize;
        let test_n = ctx.param_u64("test_n", test_d) as usize;
        let epochs = ctx.param_u64("epochs", epochs_d) as usize;
        let (train, test) = make_train_test(6, 12, train_n, test_n, 0.25, 7);
        let mlp = train_mlp(&train, 20, epochs, 0.05, 9);
        let float_acc = mlp.accuracy(&test);
        ctx.note(&format!("float32 reference accuracy: {float_acc:.3}"));
        ctx.kpi("accuracy/float32", float_acc);

        let tile = TileConfig {
            tile_rows: 16,
            tile_cols: 16,
            adc_bits: 9,
            analog_accumulation: true,
            drift_compensation: false,
        };
        let scenarios: [(&str, &str, DeviceModel, f64, bool, bool); 5] = [
            (
                "RRAM P&V, t=1s",
                "rram_pv",
                DeviceModel::rram(),
                1.0,
                false,
                true,
            ),
            (
                "RRAM open-loop, t=1s",
                "rram_open",
                DeviceModel::rram(),
                1.0,
                false,
                false,
            ),
            (
                "PCM P&V, t=1s",
                "pcm_pv",
                DeviceModel::pcm(),
                1.0,
                false,
                true,
            ),
            (
                "PCM P&V, t=1e7s",
                "pcm_drift",
                DeviceModel::pcm(),
                1e7,
                false,
                true,
            ),
            (
                "PCM P&V, t=1e7s +comp",
                "pcm_drift_comp",
                DeviceModel::pcm(),
                1e7,
                true,
                true,
            ),
        ];
        let mut rows = Vec::new();
        for (label, key, dev, t, comp, pv) in scenarios {
            let scenario = DeploymentScenario {
                device: dev,
                inference_time: t,
                tile: TileConfig {
                    drift_compensation: comp,
                    ..tile
                },
            };
            let acc = if pv {
                deployed_accuracy(&mlp, &test, &scenario, &ProgramVerify::default())
            } else {
                deployed_accuracy(&mlp, &test, &scenario, &OpenLoop)
            };
            rows.push(vec![label.to_string(), fmt(acc, 3)]);
            ctx.kpi(&format!("accuracy/{key}"), acc);
        }
        ctx.table(&["Scenario", "Accuracy"], &rows);
        ctx.note("\nShape check: P&V ≈ float; open-loop loses accuracy; PCM drift");
        ctx.note("erodes it over 7 decades; digital compensation restores it (§IV).");
    }
}

fn deployed_accuracy<P: Programmer>(
    mlp: &crate::eval::Mlp,
    test: &crate::eval::Dataset,
    scenario: &DeploymentScenario,
    programmer: &P,
) -> f64 {
    imc_accuracy(mlp, test, scenario, programmer, 11)
        .expect("deployment is valid")
        .accuracy
}

impl Experiment for ImcAccuracy {
    fn name(&self) -> &'static str {
        "imc_accuracy"
    }

    fn summary(&self) -> &'static str {
        "E3 / §IV: program-and-verify vs open-loop programming, drift"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e3", "imc"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::u64("cells", "programmed RRAM cells (quick 500, full 2000)"),
            ParamSpec::u64(
                "train_n",
                "MLP training samples per class (quick 40, full 80)",
            ),
            ParamSpec::u64("test_n", "MLP test samples per class (quick 24, full 40)"),
            ParamSpec::u64("epochs", "MLP training epochs (quick 10, full 15)"),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        {
            let _phase = ctx.span("imc:programming");
            self.programming_table(ctx);
        }
        {
            let _phase = ctx.span("imc:accuracy");
            self.accuracy_table(ctx);
        }
        Ok(ctx.report(self.name()))
    }
}

/// E4 / §IV (circuit level) — analog IMC vs digital baselines, the ADC
/// bottleneck, analog accumulation, and the DIMC efficiency band.
pub struct ImcEnergy;

impl ImcEnergy {
    fn mvm_energy_breakdown(&self, ctx: &mut ExperimentCtx) {
        let n = ctx.param_u64("mvm_n", if ctx.quick() { 64 } else { 128 }) as usize;
        ctx.section(&format!(
            "{n}x{n} MVM energy: analog IMC vs digital MAC baseline (45nm)"
        ));
        let table = OpEnergy::for_node(TechNode::N45);
        let weights = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 41) as f64 / 20.0 - 1.0);
        let mut rng = ctx.rng_for("e4");
        let xbar = Crossbar::program(
            DeviceModel::rram(),
            &weights,
            &ProgramVerify::default(),
            &mut rng,
        )
        .expect("valid weights");
        let x = vec![0.5; n];
        let mut ledger = EnergyLedger::new();
        xbar.mvm(&x, 1.0, &Adc::new(8), &mut rng, &mut ledger)
            .expect("valid geometry");

        let analog_total = ledger.total_energy(&table);
        let adc_share = ledger.energy_of(OpKind::AdcConversion, &table);
        // Digital baseline: n*n 8-bit MACs + SRAM weight reads.
        let mut digital = EnergyLedger::new();
        digital.record(OpKind::MacInt8, (n * n) as u64);
        digital.record(OpKind::SramRead32, (n * n / 4) as u64);
        let digital_total = digital.total_energy(&table);

        let rows = vec![
            vec![
                "analog crossbar (8b ADC)".to_string(),
                fmt(analog_total.to_picojoules().value() / 1000.0, 2),
                fmt(adc_share.value() / analog_total.value() * 100.0, 1),
            ],
            vec![
                "digital MAC + SRAM".to_string(),
                fmt(digital_total.to_picojoules().value() / 1000.0, 2),
                "-".to_string(),
            ],
        ];
        ctx.table(
            &["Implementation", "Energy (nJ/MVM)", "ADC share (%)"],
            &rows,
        );
        let advantage = digital_total.value() / analog_total.value();
        ctx.note(&format!(
            "Analog advantage: {advantage:.1}x lower energy; ADC dominates the analog budget (§IV)."
        ));
        ctx.kpi(
            "mvm/analog_nj",
            analog_total.to_picojoules().value() / 1000.0,
        );
        ctx.kpi(
            "mvm/digital_nj",
            digital_total.to_picojoules().value() / 1000.0,
        );
        ctx.kpi(
            "mvm/adc_share_pct",
            adc_share.value() / analog_total.value() * 100.0,
        );
        ctx.kpi("mvm/analog_advantage", advantage);
    }

    fn adc_ablation(&self, ctx: &mut ExperimentCtx) {
        ctx.section("Ablation: ADC precision vs energy and output error (64x16 layer)");
        let weights = Matrix::from_fn(64, 16, |r, c| ((r * 13 + c * 7) % 23) as f64 / 11.0 - 1.0);
        let table = OpEnergy::for_node(TechNode::N45);
        let bits_list: &[u32] = if ctx.quick() {
            &[4, 8, 12]
        } else {
            &[4, 6, 8, 10, 12]
        };
        // Each precision point reprograms and evaluates a fresh crossbar from
        // its own seeded RNG stream, so the points are independent — run them
        // on the context's worker budget.
        let seed = ctx.seed();
        let results = ctx.exec().map(bits_list, |&bits| {
            let mut rng = f2_core::rng::rng_for(seed, "e4-adc");
            let xbar = Crossbar::program(
                DeviceModel::rram(),
                &weights,
                &ProgramVerify::default(),
                &mut rng,
            )
            .expect("valid weights");
            let x: Vec<f64> = (0..64).map(|i| ((i % 9) as f64 - 4.0) / 4.0).collect();
            let ideal = xbar.mvm_ideal(&x, 1.0).expect("valid geometry");
            let mut ledger = EnergyLedger::new();
            let got = xbar
                .mvm(&x, 1.0, &Adc::new(bits), &mut rng, &mut ledger)
                .expect("valid geometry");
            let rmse: f64 = (got
                .iter()
                .zip(&ideal)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                / 16.0)
                .sqrt();
            // SAR ADC energy scales ~2x per extra bit; rebuild the total with
            // a precision-scaled conversion cost (anchor: 2 pJ at 8 bits).
            let adc_pj = 2.0 * 2f64.powi(bits as i32 - 8);
            let non_adc = ledger.total_energy(&table).to_picojoules().value()
                - ledger.count(OpKind::AdcConversion) as f64 * 2.0;
            let e = non_adc + ledger.count(OpKind::AdcConversion) as f64 * adc_pj;
            (e / 1000.0, rmse)
        });
        let mut rows = Vec::new();
        for (&bits, &(energy_nj, rmse)) in bits_list.iter().zip(&results) {
            rows.push(vec![bits.to_string(), fmt(energy_nj, 3), fmt(rmse, 4)]);
            ctx.kpi(&format!("adc/rmse_{bits}b"), rmse);
        }
        ctx.table(&["ADC bits", "Energy (nJ/MVM)", "Output RMSE"], &rows);
    }

    fn analog_accumulation(&self, ctx: &mut ExperimentCtx) {
        ctx.section("Analog accumulation: A/D conversions per 64x16 layer (16-row tiles)");
        let weights = Matrix::from_fn(64, 16, |r, c| ((r * 3 + c) % 13) as f64 / 6.0 - 1.0);
        let bias = vec![0.0; 16];
        let mut rows = Vec::new();
        for analog in [false, true] {
            let cfg = TileConfig {
                tile_rows: 16,
                tile_cols: 16,
                adc_bits: 8,
                analog_accumulation: analog,
                drift_compensation: false,
            };
            let mut rng = ctx.rng_for("e4-acc");
            let layer = ImcTileLayer::map(
                &weights,
                &bias,
                DeviceModel::rram(),
                &cfg,
                &ProgramVerify::default(),
                &mut rng,
            )
            .expect("valid layer");
            let mut ledger = EnergyLedger::new();
            layer
                .forward(&vec![0.5; 64], 1.0, &cfg, &mut rng, &mut ledger)
                .expect("valid geometry");
            let conversions = ledger.count(OpKind::AdcConversion);
            rows.push(vec![
                if analog {
                    "analog accumulation"
                } else {
                    "per-tile ADC"
                }
                .to_string(),
                conversions.to_string(),
            ]);
            ctx.kpi(
                &format!(
                    "accumulation/adc_conversions_{}",
                    if analog { "analog" } else { "per_tile" }
                ),
                conversions as f64,
            );
        }
        ctx.table(&["Scheme", "ADC conversions"], &rows);
        ctx.note("Analog accumulation divides conversions by the row-block count ([11]).");
    }

    fn input_mode_ablation(&self, ctx: &mut ExperimentCtx) {
        ctx.section("Ablation: analog-input vs bit-serial input drive (64x16 layer)");
        let weights = Matrix::from_fn(64, 16, |r, c| ((r * 11 + c * 3) % 19) as f64 / 9.0 - 1.0);
        let table = OpEnergy::for_node(TechNode::N45);
        let mut rng = ctx.rng_for("e4-input");
        let xbar = Crossbar::program(
            DeviceModel::rram(),
            &weights,
            &ProgramVerify::default(),
            &mut rng,
        )
        .expect("valid weights");
        let x: Vec<f64> = (0..64).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect();
        let ideal = xbar.mvm_ideal(&x, 1.0).expect("valid geometry");
        let rmse = |y: &[f64]| -> f64 {
            (y.iter()
                .zip(&ideal)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                / 16.0)
                .sqrt()
        };
        let mut rows = Vec::new();
        {
            let mut ledger = EnergyLedger::new();
            let y = xbar
                .mvm(&x, 1.0, &Adc::new(8), &mut rng, &mut ledger)
                .expect("valid geometry");
            rows.push(vec![
                "analog input (1 pass)".to_string(),
                ledger.count(OpKind::DacConversion).to_string(),
                ledger.count(OpKind::AdcConversion).to_string(),
                fmt(
                    ledger.total_energy(&table).to_picojoules().value() / 1000.0,
                    3,
                ),
                fmt(rmse(&y), 4),
            ]);
        }
        for bits in [2u32, 4, 8] {
            let mut ledger = EnergyLedger::new();
            let y = xbar
                .mvm_bit_serial(&x, 1.0, bits, &Adc::new(8), &mut rng, &mut ledger)
                .expect("valid geometry");
            let conversions = ledger.count(OpKind::AdcConversion);
            rows.push(vec![
                format!("bit-serial ({bits} passes)"),
                "0".to_string(),
                conversions.to_string(),
                fmt(
                    ledger.total_energy(&table).to_picojoules().value() / 1000.0,
                    3,
                ),
                fmt(rmse(&y), 4),
            ]);
            ctx.kpi(
                &format!("input_drive/bit_serial_{bits}b_adc_conversions"),
                conversions as f64,
            );
        }
        ctx.table(
            &[
                "Input drive",
                "DACs",
                "ADC convs",
                "Energy nJ",
                "Output RMSE",
            ],
            &rows,
        );
        ctx.note("Analog input maximises parallelism (one pass); bit-serial removes");
        ctx.note("DACs at the cost of one ADC pass per input bit (§IV trade-off).");
    }

    fn dimc_band(&self, ctx: &mut ExperimentCtx) {
        ctx.section("SRAM digital IMC: precision vs TOPS/W (ISSCC'23 band: 40-310)");
        let weights: Vec<i32> = (0..128 * 128).map(|i| (i % 15) - 7).collect();
        let mut rows = Vec::new();
        for bits in [1u32, 2, 4, 8] {
            let m = DimcMacro::new(
                128,
                128,
                bits,
                bits,
                &weights,
                Megahertz::new(500.0),
                TechNode::N16,
            )
            .expect("valid macro");
            rows.push(vec![
                format!("{bits}b x {bits}b"),
                fmt(m.peak_throughput().value(), 2),
                fmt(m.power().value() * 1000.0, 1),
                fmt(m.efficiency().value(), 0),
            ]);
            ctx.kpi(
                &format!("dimc/tops_per_watt_{bits}b"),
                m.efficiency().value(),
            );
        }
        ctx.table(&["Precision", "Peak TOPS", "Power mW", "TOPS/W"], &rows);
    }
}

impl Experiment for ImcEnergy {
    fn name(&self) -> &'static str {
        "imc_energy"
    }

    fn summary(&self) -> &'static str {
        "E4 / §IV: analog vs digital MVM energy, ADC bottleneck, DIMC band"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["e4", "imc", "energy"]
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::u64(
            "mvm_n",
            "square MVM dimension of the energy breakdown (quick 64, full 128)",
        )]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> f2_core::Result<ExperimentReport> {
        for (label, phase) in [
            (
                "imc:mvm_energy",
                Self::mvm_energy_breakdown as fn(&Self, &mut ExperimentCtx),
            ),
            ("imc:adc_ablation", Self::adc_ablation),
            ("imc:analog_accumulation", Self::analog_accumulation),
            ("imc:input_mode_ablation", Self::input_mode_ablation),
            ("imc:dimc_band", Self::dimc_band),
        ] {
            let _phase = ctx.span(label);
            phase(self, ctx);
        }
        Ok(ctx.report(self.name()))
    }
}

/// This crate's experiments, for registry assembly.
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    vec![Box::new(ImcAccuracy), Box::new(ImcEnergy)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::rng::DEFAULT_SEED;
    use f2_core::scenario::{Fidelity, Scenario};

    #[test]
    fn imc_accuracy_preserves_pv_vs_open_loop_ordering() {
        let mut ctx =
            ExperimentCtx::quiet_scenario(&Scenario::new(DEFAULT_SEED, Fidelity::Quick, 2));
        let report = ImcAccuracy.run(&mut ctx).expect("runs");
        let open = report.kpi("programming/open_loop_rms_pct").expect("kpi");
        let pv = report.kpi("programming/pv_1pct_rms_pct").expect("kpi");
        assert!(pv < open, "P&V must collapse the programming error");
    }

    #[test]
    fn imc_energy_analog_beats_digital() {
        let mut ctx =
            ExperimentCtx::quiet_scenario(&Scenario::new(DEFAULT_SEED, Fidelity::Quick, 2));
        let report = ImcEnergy.run(&mut ctx).expect("runs");
        assert!(report.kpi("mvm/analog_advantage").expect("kpi") > 1.0);
        // ADC RMSE shrinks with precision.
        let coarse = report.kpi("adc/rmse_4b").expect("kpi");
        let fine = report.kpi("adc/rmse_12b").expect("kpi");
        assert!(fine < coarse);
    }
}
