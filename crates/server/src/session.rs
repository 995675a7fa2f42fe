//! Sessions and snapshots (DESIGN.md §13).
//!
//! One [`Server`] owns the **master** [`ConstraintDb`] behind a mutex.
//! Each [`Session`] holds its own `ConstraintDb` **snapshot** — a cheap
//! clone, because relation storage is `Arc` copy-on-write (PR 2) and the
//! algebraic memo-cache is an `Arc`-backed handle, so every snapshot shares
//! one cache with the master and with every other session: one user's CAD
//! projections warm every user's cache.
//!
//! **Reads** (`SELECT`, `SHOW RELATIONS`) evaluate on the calling thread
//! against the session's snapshot — never against the master — so they
//! are snapshot-isolated and lock-free, and each result is a pure function
//! of its own (snapshot, query) pair: concurrency changes *when* a query
//! runs, never *what* it returns. Session threads are the one unit of
//! parallelism; per-query engine parallelism is pinned to 1.
//! **Writes** (`CREATE`, `INSERT`, `DELETE`, `DATALOG`, `DROP`)
//! serialize through the master mutex via PR 7's update path
//! (`insert_tuples` / `retract_tuples`, with incremental view
//! maintenance), and the writing session then refreshes its own snapshot;
//! other sessions keep their old snapshot until they next write or call
//! [`Session::refresh`].
//!
//! **Session commands** sit beside the statements: `SOLVE` is a read,
//! `SAVE` reads the snapshot, `LOAD` writes the master, and `SET PRECISION`
//! is session state off the snapshot that puts the session's reads under
//! `⊨_QE^F` ([`ConstraintDb::query_fp_then`]); writes are unaffected.

use crate::parser::{parse_command, parse_commands, Command, Rows, Statement};
use crate::{Response, ServerError};
use cdb_calcf::lexer::tokenize;
use cdb_calcf::Token;
use cdb_constraints::{ConstraintRelation, GeneralizedTuple};
use cdb_num::Rat;
use constraintdb::{parse_program, storage, ConstraintDb, DbError, QueryResult};
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Maximum Datalog¬ fixpoint iterations a `DATALOG` statement may run.
const MAX_DATALOG_ITERATIONS: usize = 256;

/// Server configuration. The server has no knobs; the type remains so
/// that `Server::new(ServerConfig::default())` keeps compiling.
// frozen harness: `stmtbench` builds every server with
// `Server::new(ServerConfig::default())`.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {}

/// Integer snapshot of the server's counters (all exact — no rates; the
/// bench layer derives ratios).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Statements executed (reads + writes).
    pub statements: u64,
    /// Read statements.
    pub reads: u64,
    /// Write statements applied to the master.
    pub writes: u64,
    /// Always 0: there is no admission layer, so nothing is batched.
    // frozen harness: `stmtbench/src/trace.rs` reads it.
    pub batches: u64,
    /// Always 0, for the same reason as [`ServerStats::batches`].
    // frozen harness: `stmtbench/src/trace.rs` reads it.
    pub batched_reads: u64,
    /// Algebraic memo-cache hits (shared across all sessions).
    pub cache_hits: u64,
    /// Algebraic memo-cache misses.
    pub cache_misses: u64,
}

/// Shared server state.
struct Inner {
    master: Mutex<ConstraintDb>,
    shutdown: AtomicBool,
    statements: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

/// A long-lived constraint-database server: the master store and the
/// counters its sessions share.
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Fresh empty server.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> Server {
        Server::with_db(ConstraintDb::new(), cfg)
    }

    /// Serve an existing database (its memo-cache becomes the shared
    /// server cache). Per-query engine parallelism is forced to 1 —
    /// session threads are the unit of parallelism.
    #[must_use]
    // frozen harness: `_cfg` is unused; `stmtbench` passes one.
    pub fn with_db(mut db: ConstraintDb, _cfg: ServerConfig) -> Server {
        db.engine_mut().workers = 1;
        Server {
            inner: Arc::new(Inner {
                master: Mutex::new(db),
                shutdown: AtomicBool::new(false),
                statements: AtomicU64::new(0),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            }),
        }
    }

    /// Open a session. Its snapshot is the master state as of this call.
    #[must_use]
    pub fn session(&self) -> Session {
        let snapshot = {
            let master = self
                .inner
                .master
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            master.clone()
        };
        Session {
            inner: Arc::clone(&self.inner),
            snapshot,
            precision: None,
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let (cache_hits, cache_misses) = {
            let master = self
                .inner
                .master
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (master.cache().hits(), master.cache().misses())
        };
        ServerStats {
            statements: self.inner.statements.load(Ordering::SeqCst),
            reads: self.inner.reads.load(Ordering::SeqCst),
            writes: self.inner.writes.load(Ordering::SeqCst),
            batches: 0,
            batched_reads: 0,
            cache_hits,
            cache_misses,
        }
    }

    /// Flag shutdown: reads submitted from now on get
    /// [`ServerError::Shutdown`]. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }
}

/// One client's connection: a private snapshot plus a handle to the
/// shared server state.
pub struct Session {
    inner: Arc<Inner>,
    snapshot: ConstraintDb,
    /// `SET PRECISION`: the `⊨_QE^F` bit budget of this session's reads
    /// (`None` = exact semantics).
    precision: Option<u64>,
}

impl Session {
    /// Parse and execute one command (a statement or a session command).
    pub fn execute(&mut self, src: &str) -> Result<Response, ServerError> {
        let cmd = parse_command(src).map_err(ServerError::Parse)?;
        self.execute_command(&cmd)
    }

    /// Execute an already-parsed command.
    pub fn execute_command(&mut self, cmd: &Command) -> Result<Response, ServerError> {
        self.inner.statements.fetch_add(1, Ordering::SeqCst);
        match cmd {
            Command::Run(stmt) => self.run_statement(stmt),
            Command::Solve { query } => self.read(query, |answer| {
                let points = answer.solve()?;
                Ok(Response::Solutions {
                    points: points.map(|ps| ps.iter().map(|p| render_point(&answer, p)).collect()),
                })
            }),
            Command::SetPrecision(budget_bits) => {
                self.precision = *budget_bits;
                Ok(Response::Precision {
                    budget_bits: *budget_bits,
                })
            }
            Command::Save { path } => {
                self.admit_read()?;
                let text = storage::save(&self.snapshot).map_err(db_err)?;
                // Durable before it is reported saved.
                std::fs::File::create(path)
                    .and_then(|mut file| {
                        file.write_all(text.as_bytes())?;
                        file.sync_all()
                    })
                    .map_err(|e| ServerError::Db(format!("cannot write {path}: {e}")))?;
                Ok(Response::Saved { path: path.clone() })
            }
            Command::Load { path } => self.load_file(path),
        }
    }

    fn run_statement(&mut self, stmt: &Statement) -> Result<Response, ServerError> {
        match stmt {
            Statement::Select { query } => self.read(query, |answer| {
                Ok(Response::Rows {
                    text: answer.display(),
                    exact: answer.is_exact(),
                })
            }),
            Statement::ShowRelations => {
                self.admit_read()?;
                Ok(Response::Relations {
                    schema: self.snapshot.schema(),
                })
            }
            _ => self.write(stmt),
        }
    }

    /// Evaluate a read query against the snapshot and render its answer;
    /// under `SET PRECISION k` a query whose evaluation or rendering (the
    /// NUMERICAL EVALUATION of `SOLVE`) exceeds the budget answers
    /// [`Response::Undefined`].
    fn read(
        &self,
        query: &str,
        render: impl FnOnce(QueryResult) -> Result<Response, DbError>,
    ) -> Result<Response, ServerError> {
        self.admit_read()?;
        match self.precision {
            None => self.snapshot.query(query).and_then(render).map_err(db_err),
            Some(budget_bits) => Ok(self
                .snapshot
                .query_fp_then(query, budget_bits, render)
                .map_err(db_err)?
                .unwrap_or(Response::Undefined { budget_bits })),
        }
    }

    /// The `serve` REPL: read `;`-terminated commands (possibly spanning
    /// lines) from `input` and write one response or error line per
    /// command to `out`.
    pub fn serve(&mut self, input: impl BufRead, out: &mut impl Write) -> io::Result<()> {
        let mut buf = String::new();
        for line in input.lines() {
            buf.push_str(&line?);
            buf.push('\n');
            // Execute once the buffer's last token ends a command; a `;`
            // inside a `--` comment is no token. A lex error counts as an
            // end, so that it prints.
            let complete = tokenize(&buf).map_or(true, |toks| {
                toks.last().is_some_and(|t| t.token == Token::Semi)
            });
            if complete {
                self.run_buffered(&mut buf, out)?;
            }
        }
        if buf.trim().is_empty() {
            return Ok(());
        }
        self.run_buffered(&mut buf, out)
    }

    /// Parse → execute → print the buffered commands (or their syntax
    /// error), then clear the buffer.
    fn run_buffered(&mut self, buf: &mut String, out: &mut impl Write) -> io::Result<()> {
        match parse_commands(buf) {
            Ok(cmds) => {
                for cmd in &cmds {
                    match self.execute_command(cmd) {
                        Ok(resp) => writeln!(out, "{resp}")?,
                        Err(e) => writeln!(out, "error: {e}")?,
                    }
                }
            }
            Err(e) => writeln!(out, "error: {}", ServerError::Parse(e))?,
        }
        buf.clear();
        Ok(())
    }

    /// Re-snapshot from the master, picking up other sessions' committed
    /// writes. Never implicit on reads: snapshot isolation means a
    /// session's view moves only when it writes or asks.
    pub fn refresh(&mut self) {
        let fresh = {
            let master = self
                .inner
                .master
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            master.clone()
        };
        self.snapshot = fresh;
    }

    /// The session's current view (for tests and tooling).
    #[must_use]
    pub fn snapshot(&self) -> &ConstraintDb {
        &self.snapshot
    }

    /// Count a read, and refuse it once the server has shut down.
    fn admit_read(&self) -> Result<(), ServerError> {
        self.inner.reads.fetch_add(1, Ordering::SeqCst);
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::Shutdown);
        }
        Ok(())
    }

    fn write(&mut self, stmt: &Statement) -> Result<Response, ServerError> {
        self.inner.writes.fetch_add(1, Ordering::SeqCst);
        let mut master = self
            .inner
            .master
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let resp = apply_write(&mut master, stmt)?;
        // Refresh the session's own snapshot on success so it reads its own
        // writes; on failure the master is untouched (every facade write is
        // all-or-nothing, `ConstraintDb::atomically`).
        self.snapshot = master.clone();
        Ok(resp)
    }

    /// `LOAD`: replace the master with the database in the file at `path`,
    /// served by the server's engine (shared cache, one worker).
    fn load_file(&mut self, path: &str) -> Result<Response, ServerError> {
        self.inner.writes.fetch_add(1, Ordering::SeqCst);
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServerError::Db(format!("cannot read {path}: {e}")))?;
        let mut loaded = storage::load(&text).map_err(db_err)?;
        let mut master = self
            .inner
            .master
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *loaded.engine_mut() = master.engine_mut().clone();
        *master = loaded;
        self.snapshot = master.clone();
        Ok(Response::Relations {
            schema: master.schema(),
        })
    }
}

fn db_err(e: DbError) -> ServerError {
    ServerError::Db(e.to_string())
}

/// One `SOLVE` point: `x = 5/2, y = 1` over the answer's free variables.
fn render_point(answer: &QueryResult, coords: &[Rat]) -> String {
    answer
        .free_vars()
        .iter()
        .zip(coords)
        .map(|(&v, c)| format!("{} = {c}", answer.var_names()[v]))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Apply one write statement to the master database.
fn apply_write(db: &mut ConstraintDb, stmt: &Statement) -> Result<Response, ServerError> {
    match stmt {
        Statement::CreateRelation {
            name,
            vars,
            definition,
        } => {
            let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
            match definition {
                Some(src) => db.define(name, &var_refs, src).map_err(db_err)?,
                // Two facade calls, either of which can reject: commit
                // them together.
                None => db
                    .atomically(|next| {
                        next.insert(name, ConstraintRelation::new(vars.len(), Vec::new()))?;
                        next.rename_vars(name, &var_refs)
                    })
                    .map_err(db_err)?,
            }
            Ok(Response::Created {
                name: name.clone(),
                arity: vars.len(),
            })
        }
        Statement::Insert { name, rows } | Statement::Delete { name, rows } => {
            let tuples = compile_rows(db, name, rows)?;
            let report = if matches!(stmt, Statement::Insert { .. }) {
                db.insert_tuples(name, &tuples)
            } else {
                db.retract_tuples(name, &tuples)
            }
            .map_err(db_err)?;
            Ok(Response::Updated {
                relation: report.relation,
                inserted: report.inserted,
                retracted: report.retracted,
                refreshed: report.refreshed_views.len() + report.refreshed_heads.len(),
            })
        }
        Statement::Datalog { program } => {
            let prog = parse_program(program).map_err(db_err)?;
            let stats = db
                .run_datalog(&prog, MAX_DATALOG_ITERATIONS)
                .map_err(db_err)?;
            Ok(Response::Fixpoint {
                iterations: stats.iterations,
                qe_calls: stats.qe_calls,
            })
        }
        Statement::DropRelation { name } => match db.remove(name) {
            Some(_) => Ok(Response::Dropped { name: name.clone() }),
            None => Err(ServerError::Db(format!(
                "schema error: no relation named {name}"
            ))),
        },
        Statement::Select { .. } | Statement::ShowRelations => Err(ServerError::Db(
            "internal: read statement routed to the write path".to_owned(),
        )),
    }
}

/// Turn `INSERT`/`DELETE` rows into generalized tuples for the update
/// path: point rows become point tuples; a `CONSTRAINT` body is compiled
/// by the CALC_F engine over the relation's declared variables.
fn compile_rows(
    db: &mut ConstraintDb,
    name: &str,
    rows: &Rows,
) -> Result<Vec<GeneralizedTuple>, ServerError> {
    let arity = db
        .relation(name)
        .map(ConstraintRelation::nvars)
        .ok_or_else(|| ServerError::Db(format!("schema error: no relation named {name}")))?;
    match rows {
        Rows::Points(points) => {
            for p in points {
                if p.len() != arity {
                    return Err(ServerError::Db(format!(
                        "arity mismatch on {name}: stored relation has arity {arity}, got {}",
                        p.len()
                    )));
                }
            }
            Ok(ConstraintRelation::from_points(arity, points)
                .tuples()
                .to_vec())
        }
        Rows::Constraint(src) => {
            let names: Vec<String> = db
                .var_names(name)
                .map(<[String]>::to_vec)
                .unwrap_or_default();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            // The engine compiles against the raw store (relation symbols
            // inside the constraint body resolve to stored relations);
            // clone the engine handle to end the facade borrow first.
            let engine = db.engine_mut().clone();
            let rel = engine
                .compile_relation(db.raw(), &name_refs, src)
                .map_err(|e| ServerError::Db(e.to_string()))?;
            Ok(rel.tuples().to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_server(cfg: ServerConfig) -> Server {
        let server = Server::new(cfg);
        let mut s = server.session();
        s.execute("CREATE RELATION S(x, y) AS 4*x^2 - y - 20*x + 25 <= 0;")
            .unwrap();
        s.execute("CREATE RELATION P(x);").unwrap();
        s.execute("INSERT INTO P VALUES (1), (2), (7/2);").unwrap();
        server
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let server = seeded_server(ServerConfig::default());
        let mut s = server.session();
        let resp = s.execute("SELECT P(x) and x >= 2;").unwrap();
        let Response::Rows { text, .. } = &resp else {
            panic!("expected rows, got {resp:?}");
        };
        // Closed-form constraint rows: x = 2 and x = 7/2 (as 2*x - 7 = 0).
        assert!(text.contains("x - 2 = 0"), "missing point 2 in {text}");
        assert!(text.contains("2*x - 7 = 0"), "missing point 7/2 in {text}");
    }

    #[test]
    fn snapshot_isolation_until_own_write_or_refresh() {
        let server = seeded_server(ServerConfig::default());
        let mut reader = server.session();
        let before = reader.execute("SELECT P(x);").unwrap().to_string();
        let mut writer = server.session();
        writer.execute("INSERT INTO P VALUES (100);").unwrap();
        // The reader's snapshot predates the write.
        assert_eq!(reader.execute("SELECT P(x);").unwrap().to_string(), before);
        // The writer reads its own write.
        let writer_view = writer.execute("SELECT P(x);").unwrap().to_string();
        assert!(writer_view.contains("100"));
        // An explicit refresh catches the reader up.
        reader.refresh();
        assert_eq!(
            reader.execute("SELECT P(x);").unwrap().to_string(),
            writer_view
        );
    }

    #[test]
    fn concurrent_sessions_identical_transcripts() {
        // N threads × M queries over one server: per-session transcripts
        // must equal the single-threaded run regardless of interleaving.
        let queries = [
            "SELECT P(x) and x >= 2;",
            "SELECT S(x, y) and y = 0;",
            "SELECT P(x) and x <= 1;",
        ];
        let expected: Vec<String> = {
            let server = seeded_server(ServerConfig::default());
            let mut s = server.session();
            queries
                .iter()
                .map(|q| s.execute(q).unwrap().to_string())
                .collect()
        };
        let server = seeded_server(ServerConfig::default());
        let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut s = server.session();
                    let queries = &queries;
                    scope.spawn(move || {
                        queries
                            .iter()
                            .map(|q| s.execute(q).unwrap().to_string())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &transcripts {
            assert_eq!(*t, expected);
        }
        let stats = server.stats();
        assert_eq!(stats.reads, 12);
    }

    #[test]
    fn constraint_rows_and_datalog_views() {
        let server = Server::new(ServerConfig::default());
        let mut s = server.session();
        s.execute("CREATE RELATION E(x, y);").unwrap();
        s.execute("INSERT INTO E VALUES (1, 2), (2, 3);").unwrap();
        s.execute("DATALOG { T(x, y) :- E(x, y). T(x, y) :- T(x, z), E(z, y). };")
            .unwrap();
        let closed = s.execute("SELECT T(x, y);").unwrap().to_string();
        assert!(closed.contains('3'), "transitive closure missing: {closed}");
        // An insert through the update path refreshes the materialized head.
        let resp = s.execute("INSERT INTO E VALUES (3, 4);").unwrap();
        let Response::Updated { refreshed, .. } = resp else {
            panic!("expected update report");
        };
        assert!(refreshed >= 1, "materialized view not refreshed");
        let after = s.execute("SELECT T(x, y);").unwrap().to_string();
        assert!(after.contains('4'), "closure not maintained: {after}");
        // Constraint rows: a generalized tuple with a strict region.
        s.execute("CREATE RELATION Band(x);").unwrap();
        s.execute("INSERT INTO Band CONSTRAINT x >= 1 and x <= 2;")
            .unwrap();
        let band = s.execute("SELECT Band(x);").unwrap().to_string();
        assert!(band.contains('1') && band.contains('2'), "band: {band}");
        // A decimal literal inside a DATALOG block is a number, not a rule
        // terminator.
        s.execute("DATALOG { Low(x) :- Band(x), x <= 1.5. };")
            .unwrap();
        let low = s.execute("SELECT Low(x);").unwrap().to_string();
        assert!(low.contains("2*x - 3 <= 0"), "low: {low}");
    }

    /// A point is the same stored tuple however the row spells it: the
    /// compiled `CONSTRAINT 2*x = 1` is `2x − 1 = 0`, the stored point is
    /// `x − 1/2 = 0`.
    #[test]
    fn point_rows_and_constraint_rows_share_one_canonical_form() {
        let server = Server::new(ServerConfig::default());
        let mut s = server.session();
        s.execute("CREATE RELATION P(x);").unwrap();
        s.execute("CREATE RELATION V(x) AS P(x) and x >= 0;")
            .unwrap();
        s.execute("DATALOG { H(x) :- P(x). };").unwrap();
        let first = s.execute("INSERT INTO P VALUES (1/2);").unwrap();
        assert_eq!(first.to_string(), "updated P: +1 -0 (refreshed 2)");
        let again = s.execute("INSERT INTO P CONSTRAINT 2*x = 1;").unwrap();
        assert_eq!(again.to_string(), "updated P: +0 -0 (refreshed 0)");
        let gone = s.execute("DELETE FROM P CONSTRAINT 2*x = 1;").unwrap();
        assert_eq!(gone.to_string(), "updated P: +0 -1 (refreshed 2)");
        let left = s.execute("SELECT P(x);").unwrap().to_string();
        assert!(left.ends_with(": false"), "point survived: {left}");
    }

    #[test]
    fn errors_are_typed_and_do_not_poison() {
        let server = seeded_server(ServerConfig::default());
        let mut s = server.session();
        assert!(matches!(s.execute("SELECT"), Err(ServerError::Parse(_))));
        assert!(matches!(
            s.execute("SELECT Nope(x);"),
            Err(ServerError::Db(_))
        ));
        assert!(matches!(
            s.execute("INSERT INTO P VALUES (1, 2);"),
            Err(ServerError::Db(_))
        ));
        // A failing query does not abort its batch or wedge the server.
        assert!(s.execute("SELECT P(x);").is_ok());
        // A repeated column name is a schema error on both CREATE forms,
        // and neither leaves a relation behind.
        for create in [
            "CREATE RELATION D(x, x);",
            "CREATE RELATION D(x, x) AS x <= 1;",
        ] {
            let err = s.execute(create).unwrap_err();
            assert!(
                matches!(&err, ServerError::Db(m) if m.contains("repeated variable x")),
                "{err}"
            );
        }
        assert!(matches!(
            s.execute("SELECT D(a, b);"),
            Err(ServerError::Db(_))
        ));
    }

    /// Statement text controls the CALC_F parser's recursion depth; past
    /// its limit the answer is a typed error and the session (this test's
    /// thread has the 2 MiB stack a client thread has) goes on to answer
    /// the next statement — including one nested right at the limit.
    #[test]
    fn over_deep_statements_are_errors_and_the_session_survives() {
        let server = seeded_server(ServerConfig::default());
        let mut s = server.session();
        for hostile in [
            format!("SELECT {}x{} <= 0;", "(".repeat(5_000), ")".repeat(5_000)),
            format!("SELECT {}x <= 0;", "not ".repeat(10_000)),
            format!("SELECT 0 <= {}x;", "- ".repeat(10_000)),
        ] {
            let err = s.execute(&hostile).unwrap_err();
            assert!(
                matches!(&err, ServerError::Db(m) if m.contains("nesting deeper")),
                "{err}"
            );
            assert!(s.execute("SELECT P(x);").is_ok());
        }
        for (deep, want) in [
            (
                format!("SELECT {}x{} <= 0;", "(".repeat(256), ")".repeat(256)),
                "(x <= 0)",
            ),
            (format!("SELECT {}x <= 0;", "not ".repeat(256)), "(x <= 0)"),
            (format!("SELECT 0 <= {}x;", "- ".repeat(256)), "(x >= 0)"),
        ] {
            let resp = s.execute(&deep).unwrap().to_string();
            assert!(resp.contains(want), "{resp}");
        }
    }

    /// `SAVE` writes the snapshot; `LOAD` into a fresh server answers the
    /// same schema and the same closed forms, byte for byte.
    #[test]
    fn save_then_load_into_a_fresh_server() {
        let dir = std::env::temp_dir().join(format!("cdb_server_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.txt").display().to_string();
        let reads = ["SHOW RELATIONS;", "SELECT exists y (S(x, y) and y <= 0);"];
        let mut s = seeded_server(ServerConfig::default()).session();
        let saved = s.execute(&format!("SAVE {path};")).unwrap();
        assert_eq!(saved.to_string(), format!("saved to {path}"));
        let before: Vec<String> = reads
            .iter()
            .map(|r| s.execute(r).unwrap().to_string())
            .collect();
        let fresh = Server::new(ServerConfig::default());
        let mut t = fresh.session();
        let loaded = t.execute(&format!("LOAD {path};")).unwrap();
        assert_eq!(loaded.to_string(), "relations: P/1 S/2");
        let after: Vec<String> = reads
            .iter()
            .map(|r| t.execute(r).unwrap().to_string())
            .collect();
        assert_eq!(after, before);
        // The loaded master keeps the server's engine: one worker.
        let mut view = fresh.session().snapshot().clone();
        assert_eq!(view.engine_mut().workers, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_rejects_late_reads() {
        let server = seeded_server(ServerConfig::default());
        let mut s = server.session();
        server.shutdown();
        assert!(matches!(
            s.execute("SELECT P(x);"),
            Err(ServerError::Shutdown)
        ));
        // Writes still apply (the master mutex outlives admission).
        assert!(s.execute("INSERT INTO P VALUES (9);").is_ok());
    }
}
