//! Smoke of the whole harness at tiny sizes: every workload checks out
//! against its oracles, transcripts are reproducible, the traced run's
//! replays agree byte for byte, and the names the command emits are exactly
//! the names `BENCHMARK.json` declares.

use cdb_stmtbench::json::{self, Value};
use cdb_stmtbench::report::{
    compare, full_report, Metric, RunReport, Sampled, WorkloadSummary, END_TO_END, PER_LAYER,
};
use cdb_stmtbench::run::{is_read, measure, MIN_REPEATS, P90_MIN_SAMPLES};
use cdb_stmtbench::trace::trace_run;
use cdb_stmtbench::workloads::{generate, Sizes, WORKLOADS};
use std::process::Command;

fn names(obj: Option<&Value>) -> Vec<&str> {
    obj.and_then(Value::as_obj)
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn every_workload_passes_its_oracles_and_is_reproducible() {
    let sizes = Sizes::tiny();
    for name in WORKLOADS {
        let (a, complaints) = measure(name, 11, 0.0, &sizes).expect(name);
        assert!(complaints.is_empty(), "{name}: {complaints:?}");
        assert_eq!(a.failed, 0, "{name}: failed statements");
        assert!(
            a.attempted > 0 && a.repeats == MIN_REPEATS,
            "{name}: nothing ran"
        );
        // Exactly the declared end-to-end metrics, each a positive number;
        // everything else is under `info`. A one-session workload reports
        // its noise floor (one value), `serve_mixed` medians across repeats.
        let declared = END_TO_END.map(|m| m.0);
        let measured: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(measured, declared, "{name}");
        for m in &a.metrics {
            let s = m.summary;
            assert!(s.median.is_finite() && s.median > 0.0, "{name}: {m:?}");
            assert!(s.q1 <= s.median && s.median <= s.q3, "{name}: {m:?}");
            let samples = if name == "serve_mixed" && m.name != "peak_rss_mb" {
                MIN_REPEATS
            } else {
                1
            };
            assert_eq!(s.n, samples, "{name}: {m:?}");
        }
        assert!(a.info.iter().all(|m| !declared.contains(&m.name.as_str())));
        let has_write_latency = a.info.iter().any(|m| m.name == "write_p50_ms");
        assert_eq!(has_write_latency, a.writes_per_repeat > 0, "{name}");
        // Same seed, same bytes; another seed, other bytes.
        let (b, _) = measure(name, 11, 0.0, &sizes).expect(name);
        assert_eq!(
            a.transcript_hash, b.transcript_hash,
            "{name}: not reproducible"
        );
        let (c, _) = measure(name, 12, 0.0, &sizes).expect(name);
        assert_eq!(c.failed, 0, "{name}: failed statements at seed 12");
        assert_ne!(a.transcript_hash, c.transcript_hash, "{name}: seed ignored");

        // What `all` makes of real runs: the report entry names exactly
        // the declared metrics, and the printed text every metric measured.
        let runs = [a, b];
        let summary = WorkloadSummary::of(&runs);
        let entry = summary.to_json(&runs, &[]);
        assert_eq!(names(entry.get("metrics")), declared, "{name}");
        assert_eq!(
            names(entry.get("info")),
            runs[0]
                .info
                .iter()
                .map(|m| m.name.as_str())
                .collect::<Vec<_>>()
        );
        assert_eq!(entry.get("failed_frac").and_then(Value::as_f64), Some(0.0));
        let text = summary.text(&[]);
        for m in runs[0].metrics.iter().chain(&runs[0].info) {
            assert!(
                text.lines()
                    .any(|l| l.contains(&m.name) && l.contains(&m.unit)),
                "{name}: {} missing from\n{text}",
                m.name
            );
        }
    }
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    let sizes = Sizes::full();
    for name in WORKLOADS {
        let text = |seed| {
            let w = generate(name, seed, &sizes).expect(name);
            w.setup
                .iter()
                .chain(w.sessions.iter().flatten())
                .map(|s| s.text.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(text(5), text(5), "{name}");
        assert_ne!(text(5), text(6), "{name}");
        // The structure (statement count) must not depend on the seed.
        assert_eq!(text(5).len(), text(6).len(), "{name}");
    }
    assert!(generate("no_such_workload", 1, &sizes).is_none());
}

/// A repeat's p90 needs ten samples beyond it. `tc_update` is the write
/// workload (8 insert-then-select rounds): its nine reads are the one
/// exception, recorded in the README.
#[test]
fn full_size_scripts_have_a_p90_sample() {
    for name in WORKLOADS {
        let w = generate(name, 1996, &Sizes::full()).expect(name);
        let reads = w
            .sessions
            .iter()
            .flatten()
            .filter(|s| is_read(&s.text))
            .count();
        assert_eq!(
            reads >= P90_MIN_SAMPLES,
            name != "tc_update",
            "{name}: {reads} reads"
        );
    }
}

#[test]
fn traced_run_replays_agree_and_emits_every_per_layer_metric() {
    let sizes = Sizes::tiny();
    for name in WORKLOADS {
        let outcome = trace_run(name, 11, 0.0, &sizes).expect(name);
        assert!(
            outcome.complaints.is_empty(),
            "{name}: {:?}",
            outcome.complaints
        );
        // `failed` counts replay mismatches too: Replay A vs the server,
        // B vs A, C vs B.
        assert_eq!(outcome.failed, 0, "{name}: a replay disagreed");
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared, "{name}");
        let get = |metric: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.0 == metric)
                .map_or(f64::NAN, |m| m.2)
        };
        for (metric, _, value) in &outcome.metrics {
            assert!(value.is_finite(), "{name}: {metric} = {value}");
        }
        // The by-design zeros and non-zeros.
        match name {
            "alibi_scan" => {
                assert_eq!(get("qe.plan.cad"), 0.0);
                assert_eq!(get("qe.cache.hits") + get("qe.cache.misses"), 0.0);
                assert!(get("qe.plan.quad") > 0.0);
            }
            "conic_cad" => {
                assert!(get("qe.plan.cad") > 0.0 && get("qe.cad.cells") > 0.0);
                assert!(get("qe.cache.misses") > 0.0);
                assert!(get("qe.cad.build_s") > 0.0);
            }
            "tc_update" => {
                assert_eq!(get("qe.plan.cad"), 0.0);
                assert!(get("core.incremental_reruns") > 0.0 && get("core.full_reruns") > 0.0);
                assert!(get("datalog.iterations") > 0.0);
                assert!(get("server.write_p50_ms") > 0.0);
            }
            "calcf_agg" => {
                assert!(get("agg.apply_s") > 0.0 && get("approx.pieces") > 0.0);
            }
            _ => {
                assert!(get("qe.cache.hits") > 0.0 && get("core.cache_invalidations") > 0.0);
            }
        }
        let spans = outcome.spans.as_arr().expect("span array");
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("server.execute")));
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

#[test]
fn benchmark_json_declares_exactly_what_the_command_emits() {
    let spec = benchmark_json();
    let keys: Vec<&str> = spec
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(Value::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).map(str::to_owned);
    let end_to_end: Vec<(String, String, f64)> = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            assert_eq!(field(m, "better").as_deref(), Some("lower"));
            (
                field(m, "name").expect("name"),
                field(m, "unit").expect("unit"),
                m.get("bound").and_then(Value::as_f64).expect("bound"),
            )
        })
        .collect();
    let declared: Vec<(String, String, f64)> = END_TO_END
        .iter()
        .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), *b))
        .collect();
    assert_eq!(end_to_end, declared);
    assert!(end_to_end.iter().all(|m| m.2 <= 0.25));
    assert!(end_to_end.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
    let per_layer: Vec<(String, String, String)> = spec
        .get("per_layer")
        .and_then(Value::as_arr)
        .expect("per_layer")
        .iter()
        .map(|m| {
            (
                field(m, "name").expect("name"),
                field(m, "unit").expect("unit"),
                field(m, "better").expect("better"),
            )
        })
        .collect();
    let declared: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned()))
        .collect();
    assert_eq!(per_layer, declared);
    for w in spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
    {
        let why = field(w, "why").expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}

/// The driver's invocation, through the built binary: the last stdout line
/// has exactly the contract's keys and the declared metric names, and the
/// seed round-trips (the transcript hash equals the in-process one).
#[test]
fn command_line_contract() {
    let run = |trace: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args([
                "--workload",
                "tc_update",
                "--seed",
                "77",
                "--seconds",
                "0",
                "--trace",
                trace,
            ])
            .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("bench runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let untraced = run("0");
    let lines: Vec<&str> = untraced.lines().collect();
    let result = json::parse(lines[lines.len() - 1]).expect("result line");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|m| m.0));
    for ((_, m), (_, unit, _)) in metrics.iter().zip(END_TO_END) {
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        assert!(m.get("value").and_then(Value::as_f64).expect("value") > 0.0);
    }
    let detail = RunReport::from_json(&json::parse(lines[lines.len() - 2]).expect("detail line"))
        .expect("run report");
    let (in_process, _) = measure("tc_update", 77, 0.0, &Sizes::full()).expect("measure");
    assert_eq!(detail.transcript_hash, in_process.transcript_hash);
    assert_eq!(detail.seed, 77);

    let traced = run("1");
    let result = json::parse(traced.lines().last().expect("output")).expect("result line");
    let names: Vec<&str> = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, PER_LAYER.map(|m| m.0));

    // Bad arguments: non-zero exit, no result line.
    let bad = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("bench runs");
    assert!(!bad.status.success() && bad.stdout.is_empty());
}

fn synthetic_run(workload: &str, run: u64, scale: f64) -> RunReport {
    // ±1 % run-to-run wobble around `scale`.
    let wobble = 1.0 + 0.01 * ((run % 3) as f64 - 1.0);
    RunReport {
        workload: workload.to_owned(),
        seed: 5,
        repeats: 9,
        attempted: 100,
        failed: 0,
        reads_per_repeat: 8,
        writes_per_repeat: 2,
        transcript_hash: "00ff".to_owned(),
        metrics: END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, unit, _))| {
                let v = scale * wobble * (i + 1) as f64;
                Sampled::of(name, unit, &[0.9 * v, v, 1.2 * v])
            })
            .collect(),
        info: vec![Sampled::of("write_p50_ms", "ms", &[3.0 * wobble])],
    }
}

#[test]
fn report_round_trips_and_compare_judges_by_bound() {
    let per_layer: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(n, u, _)| ((*n).to_owned(), (*u).to_owned(), 1.5))
        .collect();
    let report = |scale: f64| {
        let entries = WORKLOADS
            .iter()
            .map(|w| {
                let runs: Vec<RunReport> = (0..6).map(|s| synthetic_run(w, s, scale)).collect();
                WorkloadSummary::of(&runs).to_json(&runs, &per_layer)
            })
            .collect();
        full_report(0, 20, entries)
    };
    let base = report(1.0);
    let parsed = json::parse(&base.to_pretty()).expect("report parses back");
    assert_eq!(parsed, base);
    assert!(
        parsed
            .get("hardware_threads")
            .and_then(Value::as_f64)
            .expect("threads")
            >= 1.0
    );
    let workloads = parsed
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for w in workloads {
        assert_eq!(names(w.get("metrics")), END_TO_END.map(|m| m.0));
        assert_eq!(names(w.get("info")), ["write_p50_ms"]);
        assert_eq!(names(w.get("per_layer")), PER_LAYER.map(|m| m.0));
        let run = &w.get("runs").and_then(Value::as_arr).expect("runs")[0];
        assert_eq!(
            RunReport::from_json(run),
            Some(synthetic_run(
                w.get("workload").and_then(Value::as_str).expect("name"),
                0,
                1.0
            ))
        );
    }

    // Same numbers: every cell ok. 5 % worse: inside every bound. 40 %
    // worse: every cell regressed. 40 % better: ok.
    let count = |candidate: &Value| compare(&base, candidate).expect("comparable");
    let cells = WORKLOADS.len() * END_TO_END.len();
    let (table, regressed) = count(&base);
    assert_eq!(regressed, 0, "{table}");
    assert_eq!(table.matches(" ok").count(), cells, "{table}");
    assert_eq!(count(&report(1.05)).1, 0);
    assert_eq!(count(&report(1.4)).1, cells);
    assert_eq!(count(&report(0.6)).1, 0);
    assert!(compare(&base, &Value::Null).is_err());
}
