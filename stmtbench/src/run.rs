//! The closed-loop driver: statement text in through
//! [`cdb_server::Session::execute`] on a fresh default-configured
//! [`Server`], latencies out, answers checked.
//!
//! One *repeat* = generate the workload from its seed, build a `Server`,
//! load the base relations (all of that is `setup_s`), then run every
//! session's script on its own thread (that is `wall_s`). The first repeat
//! of a run is the **verification pass**: sessions run one after another,
//! each answer is checked against its [`Oracle`], and the responses become
//! the reference transcript. Every later (timed, concurrent) repeat must
//! reproduce that transcript byte for byte; a differing response is a failed
//! statement.

use crate::report::{percentile, sorted, RunReport, Sampled, END_TO_END};
use crate::workloads::{generate, Conic, Expected, Members, Oracle, Sizes, Stmt, Workload};
use cdb_num::Rat;
use cdb_server::{
    parse_statement, Response, Server, ServerConfig, ServerError, ServerStats, Session, Statement,
};
use std::time::{Duration, Instant};

/// Transcript line for one statement.
#[must_use]
pub fn render(result: &Result<Response, ServerError>) -> String {
    match result {
        Ok(resp) => resp.to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// Whether a statement is a read (`SELECT` / `SHOW`); everything else
/// goes through the master mutex.
#[must_use]
pub fn is_read(text: &str) -> bool {
    let head = text.trim_start().as_bytes();
    head.len() >= 4
        && (head[..4].eq_ignore_ascii_case(b"SELE") || head[..4].eq_ignore_ascii_case(b"SHOW"))
}

/// FNV-1a over the transcript lines (setup first, then each session).
#[must_use]
pub fn transcript_hash<'a>(lines: impl IntoIterator<Item = &'a String>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A fresh default server with the workload's base relations loaded.
pub struct Loaded {
    /// The generated workload.
    pub workload: Workload,
    /// The server under test (`ServerConfig::default()`).
    pub server: Server,
    /// Responses of the setup statements.
    pub setup_transcript: Vec<String>,
    /// Generate + build + load, in seconds.
    pub setup_s: f64,
    /// Setup statements that failed (or, with `check`, missed their oracle).
    pub failed: usize,
}

/// Generate `name` from `seed` and load it into a fresh server. `check`
/// also verifies the setup statements' oracles (verification pass only).
pub fn load(name: &str, seed: u64, sizes: &Sizes, check: bool) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let workload = generate(name, seed, sizes).ok_or_else(|| format!("unknown workload {name}"))?;
    let server = Server::new(ServerConfig::default());
    let mut failed = 0;
    let mut setup_transcript = Vec::with_capacity(workload.setup.len());
    {
        let mut loader = server.session();
        for stmt in &workload.setup {
            let result = loader.execute(&stmt.text);
            if result.is_err() || (check && check_oracle(stmt, &result, &loader).is_err()) {
                failed += 1;
            }
            setup_transcript.push(render(&result));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Loaded {
        workload,
        server,
        setup_transcript,
        setup_s,
        failed,
    })
}

/// What one repeat measured.
pub struct Repeat {
    /// Generate + build + load.
    pub setup_s: f64,
    /// Wall time of the timed script (all sessions, concurrently).
    pub wall_s: f64,
    /// Latency in ms of every timed statement, per session in script
    /// order, as seen by the submitting thread.
    pub latency_ms: Vec<Vec<f64>>,
    /// Parallel to `latency_ms`: whether the statement is a read.
    pub is_read: Vec<Vec<bool>>,
    /// Setup responses, then each session's responses.
    pub transcript: Vec<Vec<String>>,
    /// Statements that returned `Err` or whose bytes differ from the
    /// verified transcript.
    pub failed: usize,
    /// Statements executed (setup included).
    pub attempted: usize,
    /// The server's counters when the script ended.
    pub stats: ServerStats,
    /// Memo-cache `(evictions, entries)` when the script ended.
    pub cache: (u64, usize),
}

/// What the verification pass established.
pub struct Verified {
    /// Its set-up time (one more `setup_s` sample).
    pub setup_s: f64,
    /// Setup responses, then each session's: the reference transcript.
    pub transcript: Vec<Vec<String>>,
    /// Statements executed (setup included).
    pub attempted: usize,
    /// Statements that failed or missed their oracle.
    pub failed: usize,
    /// The first few oracle complaints (empty when everything checked out).
    pub complaints: Vec<String>,
}

/// The verification pass: sessions run one after the other on one server,
/// every oracle is checked. Its transcript is the reference for the timed
/// repeats, and — since the scripts are interleaving-independent by
/// construction — the solo-run transcript of each session.
pub fn verify_repeat(name: &str, seed: u64, sizes: &Sizes) -> Result<Verified, String> {
    let loaded = load(name, seed, sizes, true)?;
    let mut verified = Verified {
        setup_s: loaded.setup_s,
        transcript: vec![loaded.setup_transcript],
        attempted: loaded.workload.setup.len(),
        failed: loaded.failed,
        complaints: Vec::new(),
    };
    for script in &loaded.workload.sessions {
        let mut session = loaded.server.session();
        let mut lines = Vec::with_capacity(script.len());
        for stmt in script {
            let result = session.execute(&stmt.text);
            if let Err(why) = check_oracle(stmt, &result, &session) {
                verified.failed += 1;
                if verified.complaints.len() < 5 {
                    verified
                        .complaints
                        .push(format!("{why}\n  statement: {}", truncate(&stmt.text, 200)));
                }
            }
            lines.push(render(&result));
        }
        verified.attempted += script.len();
        verified.transcript.push(lines);
    }
    Ok(verified)
}

/// One timed repeat: every session on its own thread, closed loop.
pub fn timed_repeat(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    reference: &[Vec<String>],
) -> Result<Repeat, String> {
    let Loaded {
        workload,
        server,
        setup_transcript,
        setup_s,
        ..
    } = load(name, seed, sizes, false)?;
    let sessions: Vec<Session> = workload.sessions.iter().map(|_| server.session()).collect();
    let t0 = Instant::now();
    let per_session: Vec<Vec<(Duration, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .zip(&workload.sessions)
            .map(|(mut session, script)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(script.len());
                    for stmt in script {
                        let t = Instant::now();
                        let result = session.execute(&stmt.text);
                        out.push((t.elapsed(), render(&result)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned()))
            .collect::<Result<_, _>>()
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = server.stats();
    let cache = {
        let probe = server.session();
        let cache = probe.snapshot().cache();
        (cache.evictions(), cache.len())
    };
    server.shutdown();

    let mut repeat = Repeat {
        setup_s,
        wall_s,
        latency_ms: Vec::new(),
        is_read: Vec::new(),
        transcript: vec![setup_transcript],
        failed: 0,
        attempted: workload.setup.len(),
        stats,
        cache,
    };
    for (script, results) in workload.sessions.iter().zip(per_session) {
        repeat.attempted += results.len();
        repeat
            .is_read
            .push(script.iter().map(|s| is_read(&s.text)).collect());
        let (latencies, lines): (Vec<f64>, Vec<String>) = results
            .into_iter()
            .map(|(latency, line)| (latency.as_secs_f64() * 1e3, line))
            .unzip();
        repeat.latency_ms.push(latencies);
        repeat.transcript.push(lines);
    }
    repeat.failed = repeat
        .transcript
        .iter()
        .flatten()
        .zip(reference.iter().flatten())
        .filter(|(got, want)| got != want)
        .count();
    Ok(repeat)
}

/// Fewest timed repeats a run reports on, however short `--seconds` is.
pub const MIN_REPEATS: usize = 7;

/// Fewest samples a repeat needs for its p90 to be a percentile (ten
/// beyond it) and not just its slowest few statements.
pub const P90_MIN_SAMPLES: usize = 100;

/// The timings one pass over the script yields: `(name, unit)`, in the
/// order [`Timed::timings`] returns them.
pub const TIMINGS: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
];

/// The times of one pass over the script: a repeat as measured, or the
/// noise floor of several repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// Generate + build + load, in seconds.
    pub setup_s: f64,
    /// The timed script, in seconds.
    pub wall_s: f64,
    /// Latency of every timed statement in ms, session after session.
    pub latency_ms: Vec<f64>,
    /// Parallel to `latency_ms`: whether the statement is a read.
    pub is_read: Vec<bool>,
}

impl Timed {
    /// One repeat as measured.
    #[must_use]
    pub fn of(repeat: &Repeat) -> Timed {
        Timed {
            setup_s: repeat.setup_s,
            wall_s: repeat.wall_s,
            latency_ms: repeat.latency_ms.iter().flatten().copied().collect(),
            is_read: repeat.is_read.iter().flatten().copied().collect(),
        }
    }

    /// The noise floor of the repeats of a **one-session** script: the
    /// script is a fixed sequence, so statement `j` does identical work in
    /// every repeat, and whatever its executions took beyond the fastest of
    /// them is the host's doing. Each statement, and the set-up, is taken
    /// at the fastest of its executions; the wall time of one client is the
    /// sum of its latencies.
    #[must_use]
    pub fn floor(repeats: &[Timed]) -> Option<Timed> {
        let mut floor = repeats.first()?.clone();
        for t in &repeats[1..] {
            floor.setup_s = floor.setup_s.min(t.setup_s);
            for (f, l) in floor.latency_ms.iter_mut().zip(&t.latency_ms) {
                *f = f.min(*l);
            }
        }
        floor.wall_s = floor.latency_ms.iter().sum::<f64>() / 1e3;
        Some(floor)
    }

    /// Latencies of the reads (`true`) or writes, ascending.
    #[must_use]
    pub fn latencies(&self, reads: bool) -> Vec<f64> {
        sorted(
            self.latency_ms
                .iter()
                .zip(&self.is_read)
                .filter(|(_, is_read)| **is_read == reads)
                .map(|(ms, _)| *ms)
                .collect(),
        )
    }

    /// The value of every [`TIMINGS`] entry: percentiles are taken within
    /// this one pass, over the statements of all its sessions; the write
    /// entries are NaN for a script without writes.
    #[must_use]
    pub fn timings(&self) -> [f64; 6] {
        let (reads, writes) = (self.latencies(true), self.latencies(false));
        [
            self.setup_s,
            self.wall_s,
            percentile(&reads, 50.0),
            percentile(&reads, 90.0),
            percentile(&writes, 50.0),
            percentile(&writes, 90.0),
        ]
    }
}

/// Run one workload for `seconds`: the verification pass (which is also the
/// untimed warm-up), then timed repeats, each on a fresh server, until the
/// time is used. Returns the report and the first few oracle complaints
/// (empty when everything checked out).
///
/// A **one-session** workload's timings are those of its noise floor over
/// the run's repeats ([`Timed::floor`]): on the defining host the median of
/// whole repeats spreads 3–35 % between identical runs, the floor 1–9 %
/// (README, "Why noise floors"). With concurrent sessions what a statement
/// costs depends on the interleaving (who pays the shared cache's miss, who
/// waits for the master lock), so a statement's fastest execution is not
/// what the script costs: there every timing is measured per repeat,
/// percentiles within the repeat, and reported as the median across
/// repeats, with their quartiles.
pub fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
) -> Result<(RunReport, Vec<String>), String> {
    let verified = verify_repeat(name, seed, sizes)?;
    let (mut attempted, mut failed) = (verified.attempted, verified.failed);
    let mut repeats: Vec<Timed> = Vec::new();
    let t0 = Instant::now();
    while repeats.len() < MIN_REPEATS || t0.elapsed().as_secs_f64() < seconds {
        let repeat = timed_repeat(name, seed, sizes, &verified.transcript)?;
        attempted += repeat.attempted;
        failed += repeat.failed;
        repeats.push(Timed::of(&repeat));
    }
    // The verified transcript is the set-up's, then one per session.
    let series: Vec<Vec<f64>> = if verified.transcript.len() == 2 {
        let floor = Timed::floor(&repeats).ok_or("no repeat ran")?;
        floor.timings().iter().map(|v| vec![*v]).collect()
    } else {
        (0..TIMINGS.len())
            .map(|i| repeats.iter().map(|r| r.timings()[i]).collect())
            .collect()
    };
    let (reads, writes) = repeats.first().map_or((0, 0), |r| {
        (r.latencies(true).len(), r.latencies(false).len())
    });
    if reads < P90_MIN_SAMPLES {
        eprintln!(
            "note: {name} has {reads} reads per repeat: read_p90_ms is its slowest read, not a percentile"
        );
    }
    // Declared timings go under `metrics` in `END_TO_END` order, the rest
    // (write latencies, where the script writes) under `info`.
    let timing = |metric: &str| {
        let i = TIMINGS.iter().position(|t| t.0 == metric)?;
        (!series[i][0].is_nan()).then(|| Sampled::of(metric, TIMINGS[i].1, &series[i]))
    };
    let metrics = END_TO_END
        .iter()
        .map(|&(metric, unit, _)| match metric {
            "peak_rss_mb" => Ok(Sampled::of(metric, unit, &[peak_rss_mb()])),
            _ => timing(metric).ok_or_else(|| format!("{name}: no timing for {metric}")),
        })
        .collect::<Result<_, _>>()?;
    let mut info: Vec<Sampled> = ["write_p50_ms", "write_p90_ms"]
        .into_iter()
        .filter_map(timing)
        .collect();
    // The plain statistic of the issue's protocol, with its quartiles.
    let walls: Vec<f64> = repeats.iter().map(|r| r.wall_s).collect();
    info.push(Sampled::of("wall_repeat_median_s", "s", &walls));
    Ok((
        RunReport {
            workload: name.to_owned(),
            seed,
            repeats: walls.len(),
            attempted,
            failed,
            reads_per_repeat: reads,
            writes_per_repeat: writes,
            transcript_hash: transcript_hash(verified.transcript.iter().flatten()),
            metrics,
            info,
        },
        verified.complaints,
    ))
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        let cut = (0..=n).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

/// Check one executed statement against its oracle. `session` is the
/// session that executed it (its snapshot already reflects the statement).
pub fn check_oracle(
    stmt: &Stmt,
    result: &Result<Response, ServerError>,
    session: &Session,
) -> Result<(), String> {
    let response = result
        .as_ref()
        .map_err(|e| format!("statement failed: {e}"))?;
    let line = response.to_string();
    // Oracles that need the answer *relation* re-evaluate the query on the
    // session's snapshot and first tie that relation to the response bytes.
    let requery = || -> Result<constraintdb::QueryResult, String> {
        let Ok(Statement::Select { query }) = parse_statement(&stmt.text) else {
            return Err("oracle needs a SELECT".to_owned());
        };
        let answer = session
            .snapshot()
            .query(&query)
            .map_err(|e| e.to_string())?;
        let again = format!("rows (exact={}): {}", answer.is_exact(), answer.display());
        if again != line {
            return Err(format!(
                "re-evaluation differs: {} vs {}",
                truncate(&again, 120),
                truncate(&line, 120)
            ));
        }
        Ok(answer)
    };
    match &stmt.oracle {
        Oracle::Transcript => Ok(()),
        Oracle::Text(want) => {
            if &line == want {
                Ok(())
            } else {
                Err(format!("expected `{want}`, got `{}`", truncate(&line, 120)))
            }
        }
        Oracle::Answer(members) => {
            let answer = requery()?;
            check_members(members, |p| answer.contains(p))
        }
        Oracle::Relation { name, members } => {
            let rel = session
                .snapshot()
                .relation(name)
                .ok_or_else(|| format!("relation {name} is missing"))?;
            check_members(members, |p| rel.satisfied_at(p)).map_err(|e| format!("{name}: {e}"))
        }
        Oracle::Value(expected) => {
            let got = parse_scalar(&line)
                .ok_or_else(|| format!("no scalar in `{}`", truncate(&line, 120)))?;
            match expected {
                Expected::Exact(want) if &got == want => Ok(()),
                Expected::Exact(want) => Err(format!("expected {want}, got {got}")),
                Expected::Approx { value, tol } if (got.to_f64() - value).abs() <= *tol => Ok(()),
                Expected::Approx { value, tol } => {
                    Err(format!("expected {value} ± {tol}, got {}", got.to_f64()))
                }
            }
        }
        Oracle::Conic(conic) => check_conic(conic, &requery()?),
    }
}

fn check_members(members: &Members, contains: impl Fn(&[Rat]) -> bool) -> Result<(), String> {
    let show = |p: &[Rat]| p.iter().map(Rat::to_string).collect::<Vec<_>>().join(", ");
    if let Some(p) = members.inside.iter().find(|p| !contains(p)) {
        return Err(format!("({}) is missing from the answer", show(p)));
    }
    if let Some(p) = members.outside.iter().find(|p| contains(p)) {
        return Err(format!("({}) should not be in the answer", show(p)));
    }
    Ok(())
}

/// Value of `z` in a response `rows (…): (a*z ± b = 0)`.
#[must_use]
pub fn parse_scalar(line: &str) -> Option<Rat> {
    let body = line.split_once("): (")?.1.strip_suffix(" = 0)")?;
    // body is `z`, `z - b`, `a*z`, or `a*z + b`.
    let (lhs, constant) = match body.find(" - ").or_else(|| body.find(" + ")) {
        Some(i) => {
            let c: Rat = body[i + 3..].parse().ok()?;
            (&body[..i], if &body[i..i + 3] == " - " { -&c } else { c })
        }
        None => (body, Rat::zero()),
    };
    let coeff: Rat = match lhs.strip_suffix("*z") {
        Some(a) => a.parse().ok()?,
        None if lhs == "z" => Rat::one(),
        None if lhs == "-z" => -&Rat::one(),
        None => return None,
    };
    Some(&(-&constant) / &coeff)
}

/// The rational-grid point oracle: on `x, y ∈ {−6, −11/2, …, 6}`, every
/// exact witness `(x, y)` of `W` fixes membership of `x`; where no grid
/// witness exists the f64 root scan decides, and abstains near boundaries.
fn check_conic(conic: &Conic, answer: &constraintdb::QueryResult) -> Result<(), String> {
    let grid: Vec<Rat> = (-12..=12).map(|k| Rat::from_ints(k, 2)).collect();
    for x in &grid {
        let found = if grid.iter().any(|y| conic.witness_at(x, y)) {
            true
        } else {
            match conic.exists_y_f64(x.to_f64()) {
                Some(found) => found,
                None => continue,
            }
        };
        let want = conic.answer_if(found);
        if answer.contains(std::slice::from_ref(x)) != want {
            return Err(format!(
                "x = {x}: answer should {}contain it",
                if want { "" } else { "not " }
            ));
        }
    }
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_forms() {
        let p = |body: &str| parse_scalar(&format!("rows (exact=true): ({body} = 0)"));
        assert_eq!(p("z"), Some(Rat::zero()));
        assert_eq!(p("z - 19"), Some(Rat::from(19)));
        assert_eq!(p("z + 3"), Some(Rat::from(-3)));
        assert_eq!(p("2*z - 5"), Some(Rat::from_ints(5, 2)));
        assert_eq!(p("x - 1"), None);
        assert_eq!(parse_scalar("rows (exact=true): false"), None);
    }

    #[test]
    fn percentiles_are_taken_within_a_pass_over_all_sessions() {
        // Two sessions: reads 1..=10 ms split between them, writes 20, 40.
        let repeat = Repeat {
            setup_s: 0.5,
            wall_s: 2.0,
            latency_ms: vec![
                vec![1.0, 20.0, 3.0, 5.0, 7.0, 9.0],
                vec![2.0, 4.0, 40.0, 6.0, 8.0, 10.0],
            ],
            is_read: vec![
                vec![true, false, true, true, true, true],
                vec![true, true, false, true, true, true],
            ],
            transcript: Vec::new(),
            failed: 0,
            attempted: 12,
            stats: ServerStats::default(),
            cache: (0, 0),
        };
        let timed = Timed::of(&repeat);
        assert_eq!(timed.timings(), [0.5, 2.0, 5.0, 9.0, 20.0, 40.0]);
        assert_eq!(timed.latencies(false), [20.0, 40.0]);
        // A read-only pass has no write latency.
        let read_only = Timed {
            is_read: vec![true; 12],
            ..timed
        };
        assert!(read_only.timings()[4].is_nan() && read_only.timings()[5].is_nan());
    }

    #[test]
    fn floor_takes_each_statement_at_its_fastest() {
        let pass = |setup_s: f64, latency_ms: [f64; 3]| Timed {
            setup_s,
            wall_s: 9.0,
            latency_ms: latency_ms.to_vec(),
            is_read: vec![true, false, true],
        };
        let repeats = [
            pass(0.3, [4.0, 10.0, 6.0]),
            pass(0.2, [5.0, 8.0, 9.0]),
            pass(0.4, [3.0, 12.0, 7.0]),
        ];
        let floor = Timed::floor(&repeats).expect("non-empty");
        assert_eq!(floor.latency_ms, [3.0, 8.0, 6.0]);
        assert_eq!(floor.setup_s, 0.2);
        // One client's wall time is the sum of its latencies.
        assert!((floor.wall_s - 0.017).abs() < 1e-12);
        // The floor of one repeat is the repeat, but for the wall clock.
        assert_eq!(
            Timed::floor(&repeats[..1]).expect("one").latency_ms,
            repeats[0].latency_ms
        );
        assert!(Timed::floor(&[]).is_none());
    }

    #[test]
    fn read_write_split() {
        assert!(is_read("SELECT x = 1;"));
        assert!(is_read("  select x = 1;"));
        assert!(!is_read("INSERT INTO W VALUES (1);"));
        assert!(!is_read("DATALOG { T(x) :- E(x). };"));
    }

    #[test]
    fn hash_depends_on_every_line() {
        let a = vec!["x".to_owned(), "y".to_owned()];
        let b = vec!["xy".to_owned()];
        assert_ne!(transcript_hash(&a), transcript_hash(&b));
        assert_eq!(transcript_hash(&a), transcript_hash(&a.clone()));
    }
}
