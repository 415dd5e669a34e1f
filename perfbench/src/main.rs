//! Benchmark entry point: `f2-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. Prints every measured metric by name
//! and unit, then one JSON result object as the last line of stdout.
//! `--workload all` runs every workload and exits non-zero unless all of
//! them were correct.

use std::process::{Command, ExitCode, Stdio};

use f2_core::json::Json;
use f2_perfbench::outcome::RunConfig;
use f2_perfbench::{combine, result_json, run_workload, WORKLOADS};

const USAGE: &str = "usage: f2-perfbench \
                     --workload <dse_sweep|iss_programs|iss_cluster|serve_mixed|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok((
        workload,
        RunConfig {
            seed,
            seconds,
            trace,
        },
    ))
}

/// Runs one workload in this process and prints its metric lines and
/// result line.
fn run_one(name: &str, cfg: RunConfig) {
    let out = run_workload(name, cfg).expect("workload validated by parse");
    println!(
        "# {name} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (metric, (value, unit)) in &out.metrics {
        println!("{name} {metric} = {value} {unit}");
    }
    println!("{name} failed_frac = {} ratio", out.failed_frac());
    for f in &out.failures {
        eprintln!("f2-perfbench: {name}: FAILED {f}");
    }
    println!("{}", result_json(&out, cfg.trace).encode());
}

/// Runs every workload, each in a child process of its own so that its
/// peak RSS is its own, forwards their output and ends with the combined
/// result line. Fails unless every workload was correct.
fn run_all(cfg: RunConfig) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("f2-perfbench: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let result = match output {
            Ok(o) => {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let mut lines: Vec<&str> = text.lines().collect();
                let last = lines.pop().and_then(|l| Json::parse(l).ok());
                for line in lines {
                    println!("{line}");
                }
                last.filter(|_| o.status.success())
            }
            Err(e) => {
                eprintln!("f2-perfbench: {name}: cannot start: {e}");
                None
            }
        };
        results.push((name, result));
    }
    let combined = combine(&results);
    println!("{}", combined.encode());
    if combined.get("correct").and_then(Json::as_bool) == Some(true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("f2-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(cfg);
    }
    run_one(&workload, cfg);
    ExitCode::SUCCESS
}
