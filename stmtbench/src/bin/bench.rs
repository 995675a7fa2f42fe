//! `bench`: the one command of the statement-level benchmark.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last stdout line is the result
//! bench all [--seed N]                                             every workload, one report
//! bench compare <base.json> <candidate.json>                       two `all` reports, cell by cell
//! ```

use cdb_stmtbench::json::{self, Value};
use cdb_stmtbench::report::{
    compare, full_report, metrics_from_json, result_line, Metric, RunReport, Sampled,
    WorkloadSummary,
};
use cdb_stmtbench::run::measure;
use cdb_stmtbench::trace::trace_run;
use cdb_stmtbench::workloads::{Sizes, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;

/// Untraced runs per workload in `all`, every one at the same seed, so that
/// their spread is the host's and not the generator's.
const RUNS: usize = 10;

/// Where `all` writes its report.
const REPORT_FILE: &str = "stmtbench-report.json";

const USAGE: &str = "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1> | all [--seed N] | compare <base.json> <candidate.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => one_run(&args),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag` in `args`, parsed; `default` when absent.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// Where build outputs live: the trace file goes beside them.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// One run of one workload. Prints the run's detail line, then — last — the
/// result line. `Ok(false)` when a statement failed.
fn one_run(args: &[String]) -> Result<bool, String> {
    let name: String = flag(args, "--workload", String::new())?;
    if !WORKLOADS.contains(&name.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    let seed = flag(args, "--seed", DEFAULT_SEED)?;
    let seconds = flag(args, "--seconds", RUN_SECONDS)?;
    let traced = match flag(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let sizes = Sizes::full();
    let (attempted, failed, metrics, complaints) = if traced {
        let outcome = trace_run(&name, seed, seconds, &sizes)?;
        let path = target_dir()
            .join("stmtbench")
            .join(format!("trace_{name}.json"));
        std::fs::create_dir_all(path.parent().unwrap_or(&path))
            .and_then(|()| std::fs::write(&path, outcome.spans.to_line()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        (
            outcome.attempted,
            outcome.failed,
            outcome.metrics,
            outcome.complaints,
        )
    } else {
        let (report, complaints) = measure(&name, seed, seconds, &sizes)?;
        println!("{}", report.to_json().to_line());
        let metrics = report.metrics.iter().map(Sampled::metric).collect();
        (report.attempted, report.failed, metrics, complaints)
    };
    for complaint in &complaints {
        eprintln!("check failed: {complaint}");
    }
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

/// Run this executable as a child with the driver's arguments and return
/// its stdout lines.
fn child(workload: &str, seed: u64, traced: bool) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    std::io::Write::write_all(&mut std::io::stderr(), &output.stderr).map_err(|e| e.to_string())?;
    // Exit code 1 is "ran, but a statement failed": the lines still parse.
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(str::to_owned)
        .collect())
}

/// Every workload: [`RUNS`] untraced runs and one traced run, each in its
/// own child process (so `peak_rss_mb` is per workload and per run).
fn all(args: &[String]) -> Result<bool, String> {
    let seed = flag(args, "--seed", DEFAULT_SEED)?;
    let mut entries = Vec::new();
    let mut clean = true;
    for workload in WORKLOADS {
        let mut runs = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let lines = child(workload, seed, false)?;
            let detail = lines
                .len()
                .checked_sub(2)
                .and_then(|i| json::parse(&lines[i]).ok())
                .and_then(|v| RunReport::from_json(&v))
                .ok_or_else(|| format!("{workload} printed no run report"))?;
            clean &= detail.failed == 0;
            runs.push(detail);
        }
        let traced = child(workload, seed, true)?;
        let per_layer: Vec<Metric> = traced
            .last()
            .and_then(|l| json::parse(l).ok())
            .and_then(|v| {
                clean &= v.get("failed")?.as_f64()? == 0.0;
                metrics_from_json(v.get("metrics")?)
            })
            .ok_or_else(|| format!("{workload}: traced run printed no result"))?;
        let summary = WorkloadSummary::of(&runs);
        print!("{}", summary.text(&per_layer));
        entries.push(summary.to_json(&runs, &per_layer));
    }
    let report = full_report(seed, RUN_SECONDS as u64, entries);
    std::fs::write(REPORT_FILE, report.to_pretty())
        .map_err(|e| format!("writing {REPORT_FILE}: {e}"))?;
    println!("report written to {REPORT_FILE}");
    Ok(clean)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: bench compare <base.json> <candidate.json>".to_owned());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!("{regressed} regressed");
    Ok(regressed == 0)
}
