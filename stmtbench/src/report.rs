//! Metric names, order statistics, the result line the driver reads, the
//! multi-workload report, and the two-report comparison.

use crate::json::Value;

/// End-to-end metrics: `(name, unit, regression bound)`; lower is better
/// for all of them. The same list is in `BENCHMARK.json` (a test keeps the
/// two equal). A bound holds on every workload (the contract has one per
/// metric); why the timings' is the contract's maximum is in the README
/// ("Bounds").
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("read_p50_ms", "ms", 0.25),
    ("read_p90_ms", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.15),
];

/// Per-layer metrics of the traced run: `(name, unit, better)`. `_s` names
/// are span times summed over the timed statements; the rest are counts
/// or ratios. Which end-to-end metric each should move, on which
/// workload, is tabulated in README.md.
pub const PER_LAYER: [(&str, &str, &str); 69] = [
    ("server.parse_s", "s", "lower"),
    ("server.parse_bytes", "count", "lower"),
    ("server.display_s", "s", "lower"),
    ("server.admission_overhead_s", "s", "lower"),
    ("server.batches", "count", "lower"),
    ("server.batched_reads", "count", "higher"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.write_overhead_s", "s", "lower"),
    ("server.write_p50_ms", "ms", "lower"),
    ("server.write_p90_ms", "ms", "lower"),
    ("core.snapshot_clone_s", "s", "lower"),
    ("core.query_s", "s", "lower"),
    ("core.insert_s", "s", "lower"),
    ("core.retract_s", "s", "lower"),
    ("core.run_datalog_s", "s", "lower"),
    ("core.define_s", "s", "lower"),
    ("core.incremental_reruns", "count", "higher"),
    ("core.full_reruns", "count", "lower"),
    ("core.refreshed", "count", "lower"),
    ("core.cache_invalidations", "count", "lower"),
    ("datalog.parse_s", "s", "lower"),
    ("datalog.iterations", "count", "lower"),
    ("datalog.qe_calls", "count", "lower"),
    ("datalog.delta_tuples", "count", "lower"),
    ("calcf.parse_s", "s", "lower"),
    ("calcf.evaluate_s", "s", "lower"),
    ("calcf.lower_s", "s", "lower"),
    ("calcf.self_s", "s", "lower"),
    ("constraints.instantiate_s", "s", "lower"),
    ("constraints.normalize_s", "s", "lower"),
    ("constraints.dnf_s", "s", "lower"),
    ("constraints.dnf_disjuncts", "count", "lower"),
    ("qe.eliminate_s", "s", "lower"),
    ("qe.plan.subst", "count", "higher"),
    ("qe.plan.fm", "count", "higher"),
    ("qe.plan.quad", "count", "higher"),
    ("qe.plan.cad", "count", "lower"),
    ("qe.plan.subst_s", "s", "lower"),
    ("qe.plan.fm_s", "s", "lower"),
    ("qe.plan.quad_s", "s", "lower"),
    ("qe.plan.cad_s", "s", "lower"),
    ("qe.cad.project_s", "s", "lower"),
    ("qe.cad.build_s", "s", "lower"),
    ("qe.cad.solution_s", "s", "lower"),
    ("qe.cad.cells", "count", "lower"),
    ("qe.cad.proj_polys", "count", "lower"),
    ("qe.cad.sign_evals", "count", "lower"),
    ("qe.cache.hits", "count", "higher"),
    ("qe.cache.misses", "count", "lower"),
    ("qe.cache.hit_ratio", "ratio", "higher"),
    ("qe.cache.evictions", "count", "lower"),
    ("qe.cache.entries", "count", "lower"),
    ("poly.resultant.prs", "count", "lower"),
    ("poly.resultant.eval_interp", "count", "higher"),
    ("poly.resultant.crt", "count", "higher"),
    ("poly.resultant.fallbacks", "count", "lower"),
    ("poly.intern.hits", "count", "higher"),
    ("poly.intern.misses", "count", "lower"),
    ("poly.intern.entries", "count", "lower"),
    ("poly.intern.hit_ratio", "ratio", "higher"),
    ("num.filter.hits", "count", "higher"),
    ("num.filter.fallbacks", "count", "lower"),
    ("num.filter.hit_ratio", "ratio", "higher"),
    ("approx.approximate_s", "s", "lower"),
    ("approx.pieces", "count", "lower"),
    ("agg.body_eval_s", "s", "lower"),
    ("agg.apply_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
];

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending.
#[must_use]
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them — the rule the acceptance check uses.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// Median, quartiles and count of a sample: one metric's values across the
/// repeats of a run, or across the runs of a set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median — the reported value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarize a sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// A measured metric: `(name, unit, value)`.
pub type Metric = (String, String, f64);

/// A metric with the sample behind its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sampled {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// The value (`median`) with quartiles and sample size.
    pub summary: Summary,
}

impl Sampled {
    /// Summarize `values` under `name`.
    #[must_use]
    pub fn of(name: &str, unit: &str, values: &[f64]) -> Sampled {
        Sampled {
            name: name.to_owned(),
            unit: unit.to_owned(),
            summary: Summary::of(values),
        }
    }

    /// `(name, unit, median)`.
    #[must_use]
    pub fn metric(&self) -> Metric {
        (self.name.clone(), self.unit.clone(), self.summary.median)
    }
}

/// `{name: {"value": v, "unit": u}, …}`, the shape metrics have in the
/// result line and under a report's `per_layer`.
#[must_use]
pub fn metrics_to_json(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|(name, unit, value)| {
        (
            name.clone(),
            Value::obj([("value", Value::Num(*value)), ("unit", Value::str(unit))]),
        )
    }))
}

/// Inverse of [`metrics_to_json`]; a metric that failed to measure was
/// written as `null` and reads back as NaN.
#[must_use]
pub fn metrics_from_json(v: &Value) -> Option<Vec<Metric>> {
    v.as_obj()?
        .iter()
        .map(|(name, m)| {
            Some((
                name.clone(),
                m.get("unit")?.as_str()?.to_owned(),
                m.get("value")?.as_f64().unwrap_or(f64::NAN),
            ))
        })
        .collect()
}

/// `{name: {"value": median, "unit": u, "q1": …, "q3": …, "n": …}, …}`.
fn sampled_to_json(sampled: &[Sampled]) -> Value {
    Value::obj(sampled.iter().map(|m| {
        (
            m.name.clone(),
            Value::obj([
                ("value", Value::Num(m.summary.median)),
                ("unit", Value::str(&m.unit)),
                ("q1", Value::Num(m.summary.q1)),
                ("q3", Value::Num(m.summary.q3)),
                ("n", Value::Num(m.summary.n as f64)),
            ]),
        )
    }))
}

fn summary_from_json(v: &Value) -> Option<Summary> {
    Some(Summary {
        median: v.get("value")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
        n: v.get("n")?.as_f64()? as usize,
    })
}

fn sampled_from_json(v: &Value) -> Option<Vec<Sampled>> {
    v.as_obj()?
        .iter()
        .map(|(name, m)| {
            Some(Sampled {
                name: name.clone(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                summary: summary_from_json(m)?,
            })
        })
        .collect()
}

/// The one-line result of `--workload … --trace 0|1`: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_to_json(metrics)),
    ])
    .to_line()
}

/// Everything one run (one process, one workload, one seed) produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Seed the statements were generated from.
    pub seed: u64,
    /// Timed repeats.
    pub repeats: usize,
    /// Statements executed over all repeats.
    pub attempted: usize,
    /// Of those, failed or wrong.
    pub failed: usize,
    /// Read statements per repeat — the sample behind `read_p50_ms` and
    /// `read_p90_ms`.
    pub reads_per_repeat: usize,
    /// Write statements per repeat.
    pub writes_per_repeat: usize,
    /// Hash of the verified transcript.
    pub transcript_hash: String,
    /// Every [`END_TO_END`] metric, in that order. Where a value is a median
    /// across repeats, their quartiles and count are with it; a noise floor
    /// and `peak_rss_mb` are single readings (`n` = 1).
    pub metrics: Vec<Sampled>,
    /// Measured too, but not declared in `BENCHMARK.json` and never judged.
    pub info: Vec<Sampled>,
}

impl RunReport {
    /// JSON form (one line per run in the `all` report).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(&self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            ("repeats", Value::Num(self.repeats as f64)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("reads_per_repeat", Value::Num(self.reads_per_repeat as f64)),
            (
                "writes_per_repeat",
                Value::Num(self.writes_per_repeat as f64),
            ),
            ("transcript_hash", Value::str(&self.transcript_hash)),
            ("metrics", sampled_to_json(&self.metrics)),
            ("info", sampled_to_json(&self.info)),
        ])
    }

    /// Inverse of [`RunReport::to_json`].
    #[must_use]
    pub fn from_json(v: &Value) -> Option<RunReport> {
        let count = |key: &str| v.get(key)?.as_f64().map(|n| n as usize);
        Some(RunReport {
            workload: v.get("workload")?.as_str()?.to_owned(),
            seed: v.get("seed")?.as_f64()? as u64,
            repeats: count("repeats")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            reads_per_repeat: count("reads_per_repeat")?,
            writes_per_repeat: count("writes_per_repeat")?,
            transcript_hash: v.get("transcript_hash")?.as_str()?.to_owned(),
            metrics: sampled_from_json(v.get("metrics")?)?,
            info: sampled_from_json(v.get("info")?)?,
        })
    }
}

/// Runs of one workload and its traced run, summarized: each metric's
/// per-run values become one [`Sampled`] across the runs.
pub struct WorkloadSummary {
    /// Workload name.
    pub workload: String,
    /// Number of runs.
    pub runs: usize,
    /// Timed repeats of the first run.
    pub repeats: usize,
    /// Transcript hash of the first run.
    pub transcript_hash: String,
    /// Statements executed over all runs.
    pub attempted: usize,
    /// Of those, failed or wrong.
    pub failed: usize,
    /// The [`END_TO_END`] metrics across the runs.
    pub metrics: Vec<Sampled>,
    /// The informational values across the runs.
    pub info: Vec<Sampled>,
}

impl WorkloadSummary {
    /// Summarize `runs` (all of one workload).
    #[must_use]
    pub fn of(runs: &[RunReport]) -> WorkloadSummary {
        let across = |pick: fn(&RunReport) -> &Vec<Sampled>| -> Vec<Sampled> {
            let Some(first) = runs.first() else {
                return Vec::new();
            };
            pick(first)
                .iter()
                .map(|m| {
                    let values: Vec<f64> = runs
                        .iter()
                        .filter_map(|r| pick(r).iter().find(|x| x.name == m.name))
                        .map(|x| x.summary.median)
                        .collect();
                    Sampled::of(&m.name, &m.unit, &values)
                })
                .collect()
        };
        let first = runs.first();
        WorkloadSummary {
            workload: first.map_or(String::new(), |r| r.workload.clone()),
            runs: runs.len(),
            repeats: first.map_or(0, |r| r.repeats),
            transcript_hash: first.map_or(String::new(), |r| r.transcript_hash.clone()),
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            metrics: across(|r| &r.metrics),
            info: across(|r| &r.info),
        }
    }

    /// Every metric by name with its unit, as `all` prints it: end-to-end
    /// as median and spread across the runs beside the bound, then the
    /// informational values, then the traced run's per-layer values.
    #[must_use]
    pub fn text(&self, per_layer: &[Metric]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {}: {} runs, {} repeats in the first, {} statements, {} failed, transcript {}",
            self.workload,
            self.runs,
            self.repeats,
            self.attempted,
            self.failed,
            self.transcript_hash,
        );
        for (m, bound) in self
            .metrics
            .iter()
            .map(|m| (m, END_TO_END.iter().find(|e| e.0 == m.name).map(|e| e.2)))
            .chain(self.info.iter().map(|m| (m, None)))
        {
            let _ = writeln!(
                out,
                "  {:<24} {:>12.5} {:<5} spread {:>5.1}%{}",
                m.name,
                m.summary.median,
                m.unit,
                100.0 * m.summary.spread(),
                bound.map_or(String::new(), |b| format!("  (bound {:.0}%)", 100.0 * b)),
            );
        }
        for (name, unit, value) in per_layer {
            let _ = writeln!(out, "  {name:<28} {value:>14.6} {unit}");
        }
        out
    }

    /// This workload's entry in the `all` report.
    #[must_use]
    pub fn to_json(&self, runs: &[RunReport], per_layer: &[Metric]) -> Value {
        Value::obj([
            ("workload", Value::str(&self.workload)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "failed_frac",
                Value::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("metrics", sampled_to_json(&self.metrics)),
            ("info", sampled_to_json(&self.info)),
            ("per_layer", metrics_to_json(per_layer)),
            (
                "runs",
                Value::Arr(runs.iter().map(RunReport::to_json).collect()),
            ),
        ])
    }
}

/// The report `all` writes: one entry per workload plus the host facts a
/// reader needs to interpret the numbers.
#[must_use]
pub fn full_report(seed: u64, seconds: u64, workloads: Vec<Value>) -> Value {
    Value::obj([
        ("benchmark", Value::str("stmtbench")),
        ("seed", Value::Num(seed as f64)),
        ("run_seconds", Value::Num(seconds as f64)),
        (
            "hardware_threads",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Value::Arr(workloads)),
    ])
}

/// Verdict for one workload × end-to-end metric cell of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Candidate median within the bound of the base median.
    Ok,
    /// Candidate worse than base by more than the bound.
    Regressed,
    /// Run-to-run spread (either side) wider than the bound, and the two
    /// interquartile ranges overlap: the cell cannot resolve a change of
    /// the size it is meant to guard.
    Unresolved,
}

/// Judge candidate `b` against base `a` for a lower-is-better metric.
#[must_use]
pub fn judge(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let too_wide = a.spread() > bound || b.spread() > bound;
    let separated = b.q1 > a.q3 || b.q3 < a.q1;
    if too_wide && !separated {
        Verdict::Unresolved
    } else if b.median > a.median * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compare two `all` reports (base `a`, candidate `b`): one text row per
/// workload × end-to-end metric with both medians, the ratio `b/a` and
/// the verdict. Returns the table and the number of `regressed` cells.
pub fn compare(a: &Value, b: &Value) -> Result<(String, usize), String> {
    use std::fmt::Write as _;
    let workloads = |r: &Value| -> Result<Vec<Value>, String> {
        r.get("workloads")
            .and_then(Value::as_arr)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| "report has no `workloads` array".to_owned())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "candidate", "cand/base", "bound"
    );
    let mut regressed = 0;
    for base in &wa {
        let name = base.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(cand) = wb
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<12} missing from the candidate report");
            regressed += 1;
            continue;
        };
        let failed = |w: &Value| w.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
        if failed(cand) > failed(base) {
            let _ = writeln!(
                out,
                "{name:<12} {:<12} {:>12} {:>12} {:>9} {:>6}  regressed (may not rise)",
                "failed",
                failed(base),
                failed(cand),
                "",
                ""
            );
            regressed += 1;
        }
        for (metric, unit, bound) in END_TO_END {
            let cell = |w: &Value| w.get("metrics")?.get(metric).and_then(summary_from_json);
            let (Some(sa), Some(sb)) = (cell(base), cell(cand)) else {
                let _ = writeln!(out, "{name:<12} {metric:<12} missing");
                regressed += 1;
                continue;
            };
            let verdict = judge(&sa, &sb, bound);
            if verdict == Verdict::Regressed {
                regressed += 1;
            }
            let _ = writeln!(
                out,
                "{name:<12} {metric:<12} {:>9.4} {unit:<3} {:>8.4} {unit:<3} {:>9.4} {bound:>6.2}  {}",
                sa.median,
                sb.median,
                sb.median / sa.median,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_across_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One disturbed repeat does not move the reported value.
        assert_eq!(median(&[2.0, 2.1, 1.9, 2.0, 9.0, 2.05, 1.95]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
        assert_eq!((q1, q3), (2.0, 32.0));
    }

    #[test]
    fn verdicts() {
        let tight = |m: f64| Summary {
            median: m,
            q1: m * 0.99,
            q3: m * 1.01,
            n: 8,
        };
        assert_eq!(judge(&tight(1.0), &tight(1.05), 0.10), Verdict::Ok);
        assert_eq!(judge(&tight(1.0), &tight(1.2), 0.10), Verdict::Regressed);
        assert_eq!(judge(&tight(1.0), &tight(0.5), 0.10), Verdict::Ok);
        let wide = Summary {
            median: 1.1,
            q1: 0.8,
            q3: 1.4,
            n: 8,
        };
        assert_eq!(judge(&tight(1.0), &wide, 0.10), Verdict::Unresolved);
        // Wide but every quartile worse than the base: still a regression.
        let wide_worse = Summary {
            median: 2.0,
            q1: 1.6,
            q3: 2.4,
            n: 8,
        };
        assert_eq!(judge(&tight(1.0), &wide_worse, 0.10), Verdict::Regressed);
    }
}
