//! Per-layer attribution **from outside the engine**: a span recorder owned
//! by the harness, and three replays that push each generated statement
//! through the layers' public functions.
//!
//! * **Replay A** (statement level): `parse_statement` → `parse_formula` →
//!   `CalcFEngine::evaluate_ast` / `ConstraintDb::{insert_tuples,
//!   retract_tuples, run_datalog, define}` → display, on a harness-owned
//!   `ConstraintDb`, right after the same statement went through
//!   `Session::execute`. The two transcripts must be equal.
//! * **Replay B** (formula level, every aggregate-free and analytic-free
//!   `SELECT`): lower the public `CFormula` AST here, then `instantiate →
//!   to_nnf/to_prenex → to_dnf/simplify/prune_empty_boxes →
//!   plan::eliminate_prefix` under a harness-owned `QeContext`. Display
//!   bytes must equal Replay A's.
//! * **Replay C** (CAD-routed queries): `cad::project::project`,
//!   `cad::build_cad`, `cad::solution::{evaluate_truth, construct_formula}`
//!   on the query's polynomials, reassembled the way the planner does.
//!   Display bytes must equal Replay B's.
//!
//! Each replay owns its memo-cache and replays the whole statement sequence,
//! so all of them see the cache temperature the server saw. Nothing inside
//! the engine is instrumented (that is ROADMAP item 3).

use crate::json::Value;
use crate::report::{percentile, Metric, PER_LAYER};
use crate::run::{is_read, render, timed_repeat, verify_repeat, Repeat, Timed};
use crate::workloads::{generate, Sizes};
use cdb_agg::aggregate::AggOutput;
use cdb_agg::apply_aggregate;
use cdb_approx::approximate_on_abase;
use cdb_calcf::{parse_formula, CFormula, CTerm, CalcFEngine};
use cdb_constraints::formula::relation_to_formula;
use cdb_constraints::{Atom, ConstraintRelation, Formula, GeneralizedTuple, Quantifier};
use cdb_poly::MPoly;
use cdb_qe::cad::project::{normalize, project, Registry};
use cdb_qe::cad::{build_cad, solution};
use cdb_qe::plan::{classify, eliminate_prefix, Strategy};
use cdb_qe::{AlgebraicCache, QeContext, QeError};
use cdb_server::{parse_statement, Response, Rows, Server, ServerConfig, Statement};
use constraintdb::{parse_program, ConstraintDb, UpdateReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `qe.eliminate`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Statement the span belongs to (position in the replayed sequence).
    pub stmt: u32,
}

/// In-memory span recorder; written out once, at exit.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u32,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// Empty recorder; the epoch is now.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Attribute the spans recorded from now on to statement `stmt`.
    pub fn set_statement(&mut self, stmt: u32) {
        self.stmt = stmt;
    }

    /// Record `f` as a span named `name`, nested in whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured interval (for tests).
    pub fn push_raw(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// All spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus the part its children cover) of every
    /// span, in seconds, keyed by `(statement, name)` and summed.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<(u32, &'static str), f64> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry((s.stmt, s.name)).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Inclusive duration of every span, in seconds, keyed by
    /// `(statement, name)` and summed.
    #[must_use]
    pub fn durations(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut out: BTreeMap<(u32, &'static str), f64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry((s.stmt, s.name)).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        out
    }

    /// The trace file: one object per span.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("stmt", Value::Num(f64::from(s.stmt))),
                    ])
                })
                .collect(),
        )
    }
}

/// Counts gathered while replaying (exact, deterministic for a fixed script).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    /// Bytes of statement text parsed.
    pub parse_bytes: u64,
    /// Programs re-run through the incremental delta path.
    pub incremental_reruns: u64,
    /// Programs re-run from scratch.
    pub full_reruns: u64,
    /// Views and heads refreshed by update propagation.
    pub refreshed: u64,
    /// Updates that invalidated the memo-cache.
    pub cache_invalidations: u64,
    /// Fixpoint iterations of `DATALOG` statements.
    pub datalog_iterations: u64,
    /// QE calls of `DATALOG` statements.
    pub datalog_qe_calls: u64,
    /// New tuples derived across all fixpoint rounds.
    pub datalog_delta_tuples: u64,
    /// Disjuncts of the DNF matrices handed to the planner.
    pub dnf_disjuncts: u64,
    /// Projection-closure polynomials of the CADs Replay C built.
    pub cad_proj_polys: u64,
    /// Pieces of the replayed a-base approximations.
    pub approx_pieces: u64,
    /// Statements where a replay's bytes differed from the layer above.
    pub mismatches: u64,
    /// CAD-routed statements Replay C could not reassemble (shape outside
    /// the one-quantifier class it replicates).
    pub replay_c_skipped: u64,
}

/// The harness-owned state of Replays A, B and C: one database, and one
/// evaluation context (with its own memo-cache) per formula-level replay.
pub struct Replayer {
    db: ConstraintDb,
    engine: CalcFEngine,
    ctx_b: QeContext,
    ctx_c: QeContext,
    /// Counts so far.
    pub counts: ReplayCounts,
}

impl Default for Replayer {
    fn default() -> Replayer {
        Replayer::new()
    }
}

/// `Session::write`'s fixpoint budget.
const MAX_DATALOG_ITERATIONS: usize = 256;

impl Replayer {
    /// Fresh empty replay state, configured like `Server::new` configures
    /// its master (one engine worker; the batch is the server's unit of
    /// parallelism).
    #[must_use]
    pub fn new() -> Replayer {
        let mut db = ConstraintDb::new();
        db.engine_mut().workers = 1;
        let engine = db.engine_mut().clone();
        let ctx = || {
            QeContext::exact()
                .with_workers(1)
                .with_cache(&AlgebraicCache::default())
        };
        Replayer {
            db,
            engine,
            ctx_b: ctx(),
            ctx_c: ctx(),
            counts: ReplayCounts::default(),
        }
    }

    /// The formula-level context (plan statistics, cell and sign-evaluation
    /// counters accumulate here).
    #[must_use]
    pub fn formula_context(&self) -> &QeContext {
        &self.ctx_b
    }

    /// Replay one statement through every layer it touches. `served` is the
    /// line `Session::execute` produced for it.
    pub fn replay(&mut self, rec: &mut Recorder, text: &str, served: &str) {
        let line = rec.span("replay.a", |rec| self.replay_a(rec, text));
        if line != served {
            self.counts.mismatches += 1;
        }
    }

    fn replay_a(&mut self, rec: &mut Recorder, text: &str) -> String {
        self.counts.parse_bytes += text.len() as u64;
        let parsed = rec.span("server.parse", |_| parse_statement(text));
        let stmt = match parsed {
            Ok(stmt) => stmt,
            Err(e) => return format!("error: parse error: {e}"),
        };
        let result = match &stmt {
            Statement::Select { query } => return self.replay_select(rec, query),
            Statement::ShowRelations => Ok(Response::Relations {
                schema: self.db.schema(),
            }),
            Statement::CreateRelation {
                name,
                vars,
                definition,
            } => {
                let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
                match definition {
                    Some(src) => rec.span("core.define", |_| self.db.define(name, &refs, src)),
                    None => rec.span("core.create", |_| {
                        self.db
                            .insert(name, ConstraintRelation::new(vars.len(), Vec::new()))?;
                        self.db.rename_vars(name, &refs)
                    }),
                }
                .map(|()| Response::Created {
                    name: name.clone(),
                    arity: vars.len(),
                })
                .map_err(|e| e.to_string())
            }
            Statement::Insert { name, rows } => self.replay_update(rec, name, rows, true),
            Statement::Delete { name, rows } => self.replay_update(rec, name, rows, false),
            Statement::Datalog { program } => rec
                .span("datalog.parse", |_| parse_program(program))
                .and_then(|prog| {
                    rec.span("core.run_datalog", |_| {
                        self.db.run_datalog(&prog, MAX_DATALOG_ITERATIONS)
                    })
                })
                .map(|stats| {
                    self.counts.datalog_iterations += stats.iterations as u64;
                    self.counts.datalog_qe_calls += stats.qe_calls as u64;
                    self.counts.datalog_delta_tuples += stats
                        .per_iteration
                        .iter()
                        .flat_map(|it| it.delta_tuples.iter().map(|(_, n)| *n as u64))
                        .sum::<u64>();
                    Response::Fixpoint {
                        iterations: stats.iterations,
                        qe_calls: stats.qe_calls,
                    }
                })
                .map_err(|e| e.to_string()),
            Statement::DropRelation { name } => match self.db.remove(name) {
                Some(_) => Ok(Response::Dropped { name: name.clone() }),
                None => Err(format!("schema error: no relation named {name}")),
            },
        };
        if result.is_ok() && !stmt.is_read_only() {
            // What `Session::write` does under the master mutex after a
            // successful write: re-snapshot.
            rec.span("core.snapshot_clone", |_| drop(self.db.clone()));
        }
        match result {
            Ok(resp) => rec.span("server.display", |_| resp.to_string()),
            Err(e) => format!("error: {e}"),
        }
    }

    fn replay_update(
        &mut self,
        rec: &mut Recorder,
        name: &str,
        rows: &Rows,
        insert: bool,
    ) -> Result<Response, String> {
        let tuples = rec.span("server.compile_rows", |_| self.compile_rows(name, rows))?;
        let report: UpdateReport = if insert {
            rec.span("core.insert", |_| self.db.insert_tuples(name, &tuples))
        } else {
            rec.span("core.retract", |_| self.db.retract_tuples(name, &tuples))
        }
        .map_err(|e| e.to_string())?;
        self.counts.incremental_reruns += report.incremental_reruns as u64;
        self.counts.full_reruns += report.full_reruns as u64;
        let refreshed = report.refreshed_views.len() + report.refreshed_heads.len();
        self.counts.refreshed += refreshed as u64;
        if report.cache_invalidated {
            self.counts.cache_invalidations += 1;
            // Keep the formula-level replays at the server's cache
            // temperature.
            self.ctx_b.cache.invalidate();
            self.ctx_c.cache.invalidate();
        }
        Ok(Response::Updated {
            relation: report.relation,
            inserted: report.inserted,
            retracted: report.retracted,
            refreshed,
        })
    }

    /// `INSERT`/`DELETE` rows → generalized tuples, as the server's write
    /// path compiles them.
    fn compile_rows(&self, name: &str, rows: &Rows) -> Result<Vec<GeneralizedTuple>, String> {
        let arity = self
            .db
            .relation(name)
            .map(ConstraintRelation::nvars)
            .ok_or_else(|| format!("schema error: no relation named {name}"))?;
        match rows {
            Rows::Points(points) => {
                if let Some(p) = points.iter().find(|p| p.len() != arity) {
                    return Err(format!(
                        "arity mismatch on {name}: stored relation has arity {arity}, got {}",
                        p.len()
                    ));
                }
                Ok(ConstraintRelation::from_points(arity, points)
                    .tuples()
                    .to_vec())
            }
            Rows::Constraint(src) => {
                let names: Vec<&str> = self
                    .db
                    .var_names(name)
                    .unwrap_or_default()
                    .iter()
                    .map(String::as_str)
                    .collect();
                self.engine
                    .compile_relation(self.db.raw(), &names, src)
                    .map(|rel| rel.tuples().to_vec())
                    .map_err(|e| e.to_string())
            }
        }
    }

    fn replay_select(&mut self, rec: &mut Recorder, query: &str) -> String {
        let evaluated = rec.span("core.query", |rec| {
            let ast = rec
                .span("calcf.parse", |_| parse_formula(query))
                .map_err(|e| e.to_string())?;
            let out = rec
                .span("calcf.evaluate", |_| {
                    self.engine.evaluate_ast(self.db.raw(), &ast)
                })
                .map_err(|e| e.to_string())?;
            let line = rec.span("server.display", |_| {
                Response::Rows {
                    text: out.display(),
                    exact: out.exact,
                }
                .to_string()
            });
            Ok::<_, String>((ast, line))
        });
        let (ast, line) = match evaluated {
            Ok(ok) => ok,
            // `ServerError::Db` renders the `DbError`, which prefixes the
            // engine error; an erroring statement is a failed statement
            // anyway, so the exact text does not matter here.
            Err(e) => return format!("error: {e}"),
        };
        // The replays below explain `calcf.evaluate`; they run after it, on
        // their own contexts.
        if formula_has(&ast, &|t| matches!(t, CTerm::Agg(..) | CTerm::Apply(..))) {
            rec.span("replay.agg", |rec| self.replay_aggregate(rec, &ast));
        } else {
            let b = rec.span("replay.b", |rec| self.replay_b(rec, &ast));
            match b {
                Ok(b_line) if b_line == line => {}
                _ => self.counts.mismatches += 1,
            }
        }
        line
    }

    /// Replay the aggregate and analytic parts of an aggregate query:
    /// every `AGG[vars]{body}` term is evaluated as the engine does (body
    /// first, then the aggregate over the body's relation), and every
    /// analytic application is approximated over the engine's a-base.
    fn replay_aggregate(&mut self, rec: &mut Recorder, ast: &CFormula) {
        let mut aggs = Vec::new();
        let mut applies = Vec::new();
        visit_terms(ast, &mut |t| match t {
            CTerm::Agg(agg, vars, body) => aggs.push((*agg, vars.clone(), (**body).clone())),
            CTerm::Apply(func, _) => applies.push(*func),
            _ => {}
        });
        for func in applies {
            let pieces = rec.span("approx.approximate", |_| {
                approximate_on_abase(
                    func,
                    &self.engine.abase,
                    self.engine.order,
                    self.engine.method,
                )
            });
            self.counts.approx_pieces += pieces.map_or(0, |p| p.len() as u64);
        }
        for (agg, vars, body) in aggs {
            let Ok(sub) = rec.span("agg.body_eval", |_| {
                self.engine.evaluate_ast(self.db.raw(), &body)
            }) else {
                self.counts.mismatches += 1;
                continue;
            };
            let inner: Option<Vec<usize>> = vars
                .iter()
                .map(|v| sub.var_names.iter().position(|n| n == v))
                .collect();
            let ctx = QeContext::exact().with_workers(1);
            let applied = inner.map(|inner| {
                rec.span("agg.apply", |_| {
                    apply_aggregate(agg, &sub.relation, &inner, &self.engine.eps, &ctx)
                })
            });
            if !matches!(
                applied,
                Some(Ok(AggOutput::Scalar(_) | AggOutput::Relation(_)))
            ) {
                self.counts.mismatches += 1;
            }
        }
    }

    /// Replay B: the polynomial pipeline on the lowered formula. Returns
    /// the response line it would produce.
    fn replay_b(&mut self, rec: &mut Recorder, ast: &CFormula) -> Result<String, String> {
        let var_names = ast.all_vars_in_order();
        let nvars = var_names.len().max(1);
        let formula = rec.span("calcf.lower", |_| lower(ast, &var_names, nvars))?;
        let pure = rec.span("constraints.instantiate", |_| {
            formula.instantiate(self.db.raw(), nvars)
        })?;
        let free: Vec<usize> = pure.free_vars().into_iter().collect();
        let (prefix, matrix) = rec.span("constraints.normalize", |_| pure.to_nnf().to_prenex());
        let matrix_rel = rec.span("constraints.dnf", |_| {
            matrix
                .to_dnf(nvars)
                .map(|r| r.simplify().prune_empty_boxes())
        })?;
        self.counts.dnf_disjuncts += matrix_rel.tuples().len() as u64;
        let cad_before = self.ctx_b.plan_stats().cad;
        let for_c = matrix_rel.clone();
        let relation = rec
            .span("qe.eliminate", |_| {
                eliminate_prefix(&matrix, matrix_rel, &prefix, &free, nvars, &self.ctx_b)
            })
            .map_err(|e| e.to_string())?;
        let names: Vec<&str> = var_names.iter().map(String::as_str).collect();
        let display = relation.display_with(&names);
        if self.ctx_b.plan_stats().cad > cad_before {
            let c = rec.span("replay.c", |rec| {
                self.replay_c(rec, &for_c, &prefix, &free, nvars)
            });
            match c {
                Ok(Some(rel)) if rel.display_with(&names) == display => {}
                Ok(None) => self.counts.replay_c_skipped += 1,
                _ => self.counts.mismatches += 1,
            }
        }
        Ok(Response::Rows {
            text: display,
            exact: true,
        }
        .to_string())
    }

    /// Replay C: rebuild a CAD-routed answer from the CAD's public pieces,
    /// following `plan::eliminate_prefix` for a one-quantifier prefix.
    /// `Ok(None)` when the statement's shape is outside that class.
    fn replay_c(
        &mut self,
        rec: &mut Recorder,
        rel: &ConstraintRelation,
        prefix: &[(Quantifier, usize)],
        free: &[usize],
        nvars: usize,
    ) -> Result<Option<ConstraintRelation>, QeError> {
        let &[(quantifier, var)] = prefix else {
            return Ok(None);
        };
        match quantifier {
            // Nonlinear ∀ keeps the whole-relation CAD.
            Quantifier::Forall => {
                if cdb_qe::linear::is_linear(rel) {
                    return Ok(None);
                }
                let matrix = relation_to_formula(rel);
                self.cad_eliminate(rec, &matrix, prefix, free, nvars)
                    .map(Some)
            }
            // ∃ distributes over the disjuncts; each CAD-classified one
            // gets a decomposition over just the variables it uses.
            Quantifier::Exists => {
                let mut out: Vec<GeneralizedTuple> = Vec::new();
                for tuple in rel.tuples() {
                    let produced = if !tuple.uses_var(var) {
                        vec![tuple.clone()]
                    } else if classify(tuple, var) == Strategy::Cad {
                        let single = ConstraintRelation::new(nvars, vec![tuple.clone()]);
                        let used: Vec<usize> = (0..nvars)
                            .filter(|&v| v != var && tuple.uses_var(v))
                            .collect();
                        self.cad_eliminate(
                            rec,
                            &relation_to_formula(&single),
                            prefix,
                            &used,
                            nvars,
                        )?
                        .tuples()
                        .to_vec()
                    } else {
                        // The other eliminators have no public per-disjunct
                        // entry point.
                        return Ok(None);
                    };
                    for t in produced.iter().filter_map(GeneralizedTuple::simplify) {
                        if !out.contains(&t) {
                            out.push(t);
                        }
                    }
                }
                Ok(Some(ConstraintRelation::new(nvars, out).simplify()))
            }
        }
    }

    /// `cad::eliminate` / `cad::decide_sentence`, step by step: projection
    /// (replayed standalone, which also warms this replay's cache for the
    /// build), build, truth evaluation and solution-formula construction,
    /// with the derivative-augmentation retry.
    fn cad_eliminate(
        &mut self,
        rec: &mut Recorder,
        matrix: &Formula,
        prefix: &[(Quantifier, usize)],
        free: &[usize],
        nvars: usize,
    ) -> Result<ConstraintRelation, QeError> {
        let ctx = &self.ctx_c;
        let mut order: Vec<usize> = free.to_vec();
        order.extend(prefix.iter().map(|(_, v)| *v));
        let mut polys: Vec<MPoly> = Vec::new();
        matrix_polys(matrix, &mut polys);
        for attempt in 0..3 {
            rec.span("qe.cad.project", |_| {
                projection_closure(&polys, &order, ctx)
            })?;
            let cad = rec.span("qe.cad.build", |_| build_cad(&polys, &order, nvars, ctx))?;
            self.counts.cad_proj_polys += cad.registry.len() as u64;
            let built = rec.span("qe.cad.solution", |_| {
                let truth = solution::evaluate_truth(&cad, matrix, prefix, free.len(), ctx)?;
                if free.is_empty() {
                    return Ok(if truth.root_truth {
                        ConstraintRelation::full(nvars)
                    } else {
                        ConstraintRelation::empty(nvars)
                    });
                }
                solution::construct_formula(&cad, &truth, free.len(), nvars, ctx)
            });
            match built {
                Err(QeError::FormulaConstruction(_)) if attempt < 2 => {
                    for (_, p) in cad.registry.iter() {
                        let d = p.derivative(order[level_of(p, &order) - 1]);
                        if !d.is_constant() {
                            polys.push(d);
                        }
                    }
                }
                other => return other,
            }
        }
        Err(QeError::FormulaConstruction(
            "sign vectors still collide after augmentation".into(),
        ))
    }
}

/// What a traced run (`--trace 1`) reports.
pub struct TraceOutcome {
    /// Statements executed through the server over the whole run.
    pub attempted: usize,
    /// Statements that failed, differed from the verified transcript, or
    /// whose replay bytes differed from the layer above.
    pub failed: usize,
    /// Every [`PER_LAYER`] metric, in that order.
    pub metrics: Vec<Metric>,
    /// Spans of the first traced pass (the trace file's content).
    pub spans: Value,
    /// Oracle complaints of the verification pass.
    pub complaints: Vec<String>,
}

/// The leaf spans of Replay A's tree; what its root spans spend outside
/// them is `trace.unattributed_frac`.
const REPLAY_A_LEAVES: [&str; 12] = [
    "server.parse",
    "server.compile_rows",
    "server.display",
    "calcf.parse",
    "calcf.evaluate",
    "core.define",
    "core.create",
    "core.insert",
    "core.retract",
    "core.run_datalog",
    "core.snapshot_clone",
    "datalog.parse",
];

/// One traced pass over the script: every statement goes through
/// `Session::execute` on a fresh default server and is then replayed.
/// Sessions run one after the other (spans need one timeline).
struct Pass {
    recorder: Recorder,
    replayer: Replayer,
    /// Per statement id: is it a read; `None` for setup statements.
    kinds: Vec<Option<bool>>,
    attempted: usize,
    failed: usize,
}

fn traced_pass(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    reference: &[Vec<String>],
) -> Result<Pass, String> {
    let workload = generate(name, seed, sizes).ok_or_else(|| format!("unknown workload {name}"))?;
    let server = Server::new(ServerConfig::default());
    let mut pass = Pass {
        recorder: Recorder::new(),
        replayer: Replayer::new(),
        kinds: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let scripts = std::iter::once(&workload.setup).chain(&workload.sessions);
    for (i, (script, expected)) in scripts.zip(reference).enumerate() {
        // The set-up script comes first; it is not part of the timed script.
        let timed = i > 0;
        let mut session = server.session();
        for (stmt, want) in script.iter().zip(expected) {
            let id = u32::try_from(pass.kinds.len()).map_err(|e| e.to_string())?;
            pass.kinds.push(timed.then(|| is_read(&stmt.text)));
            pass.recorder.set_statement(id);
            let served = pass
                .recorder
                .span("server.execute", |_| render(&session.execute(&stmt.text)));
            pass.attempted += 1;
            if &served != want {
                pass.failed += 1;
            }
            pass.replayer
                .replay(&mut pass.recorder, &stmt.text, &served);
        }
        pass.failed += pass.replayer.counts.mismatches as usize;
        if !timed {
            // Counts, like span sums, cover the timed script only.
            pass.replayer.counts = ReplayCounts::default();
        } else {
            pass.replayer.counts.mismatches = 0;
        }
    }
    server.shutdown();
    Ok(pass)
}

/// Process-global engine counters (`fintv` filter, resultant strategies,
/// interner), read around one untraced repeat.
struct GlobalCounters {
    filter: (u64, u64),
    resultant: (u64, u64, u64, u64),
    intern: cdb_poly::intern::InternStats,
}

impl GlobalCounters {
    fn read() -> GlobalCounters {
        GlobalCounters {
            filter: cdb_num::fintv::filter_counters(),
            resultant: cdb_poly::resultant::strategy_counters(),
            intern: cdb_poly::intern::stats(),
        }
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Every [`PER_LAYER`] value, in that order. `first` is the first untraced
/// repeat (the server's counters) and `globals` the process-global
/// counters before and after it; `reference` holds the untraced times the
/// traced ones are compared with; `durations` and `own` are the span times
/// (inclusive and self) at their floor across the traced passes; `pass` is
/// the first traced pass (statement kinds and the replays' counts).
fn layer_values(
    first: &Repeat,
    globals: &(GlobalCounters, GlobalCounters),
    reference: &Timed,
    durations: &BTreeMap<(u32, &'static str), f64>,
    own: &BTreeMap<(u32, &'static str), f64>,
    pass: &Pass,
) -> Vec<f64> {
    // Sums over the timed statements (setup excluded, as in `wall_s`).
    let timed_sum = |map: &BTreeMap<(u32, &'static str), f64>,
                     names: &[&str],
                     want_read: Option<bool>|
     -> f64 {
        map.iter()
            .filter(|((stmt, name), _)| {
                names.contains(name)
                    && match pass.kinds.get(*stmt as usize).copied().flatten() {
                        None => false,
                        Some(read) => want_read.is_none_or(|w| w == read),
                    }
            })
            .map(|(_, d)| *d)
            .sum()
    };
    let sum_where =
        |names: &[&str], want_read: Option<bool>| timed_sum(durations, names, want_read);
    let sum = |name: &str| sum_where(&[name], None);
    // Replay A's own glue: time of its non-leaf spans that no child covers.
    let glue = timed_sum(own, &["replay.a", "core.query"], None);
    let counts = &pass.replayer.counts;
    let ctx = pass.replayer.formula_context();
    let plan = ctx.plan_stats();
    let stats = &first.stats;
    let (before, after) = globals;
    let filter = (
        after.filter.0 - before.filter.0,
        after.filter.1 - before.filter.1,
    );
    let intern = (
        after.intern.hits - before.intern.hits,
        after.intern.misses - before.intern.misses,
    );
    let writes = reference.latencies(false);
    let write_percentile = |p: f64| {
        if writes.is_empty() {
            0.0
        } else {
            percentile(&writes, p)
        }
    };
    let explained_by_replay = sum_where(
        &[
            "calcf.lower",
            "constraints.instantiate",
            "constraints.normalize",
            "constraints.dnf",
            "qe.eliminate",
            "agg.body_eval",
            "agg.apply",
        ],
        None,
    );
    let untraced_s = reference.latency_ms.iter().sum::<f64>() / 1e3;
    let value = |name: &str| -> f64 {
        match name {
            "server.parse_s" => sum("server.parse"),
            "server.parse_bytes" => counts.parse_bytes as f64,
            "server.display_s" => sum("server.display"),
            "server.admission_overhead_s" => {
                sum_where(&["server.execute"], Some(true))
                    - sum_where(&["server.parse", "core.query"], Some(true))
            }
            "server.batches" => stats.batches as f64,
            "server.batched_reads" => stats.batched_reads as f64,
            "server.batch_size_mean" => {
                if stats.batches == 0 {
                    0.0
                } else {
                    stats.batched_reads as f64 / stats.batches as f64
                }
            }
            "server.write_overhead_s" => {
                sum_where(&["server.execute"], Some(false)) - sum_where(&["replay.a"], Some(false))
            }
            "server.write_p50_ms" => write_percentile(50.0),
            "server.write_p90_ms" => write_percentile(90.0),
            "core.snapshot_clone_s" => sum("core.snapshot_clone"),
            "core.query_s" => sum("core.query"),
            "core.insert_s" => sum("core.insert"),
            "core.retract_s" => sum("core.retract"),
            "core.run_datalog_s" => sum("core.run_datalog"),
            "core.define_s" => sum("core.define"),
            "core.incremental_reruns" => counts.incremental_reruns as f64,
            "core.full_reruns" => counts.full_reruns as f64,
            "core.refreshed" => counts.refreshed as f64,
            "core.cache_invalidations" => counts.cache_invalidations as f64,
            "datalog.parse_s" => sum("datalog.parse"),
            "datalog.iterations" => counts.datalog_iterations as f64,
            "datalog.qe_calls" => counts.datalog_qe_calls as f64,
            "datalog.delta_tuples" => counts.datalog_delta_tuples as f64,
            "calcf.parse_s" => sum("calcf.parse"),
            "calcf.evaluate_s" => sum("calcf.evaluate"),
            "calcf.lower_s" => sum("calcf.lower"),
            "calcf.self_s" => sum("calcf.evaluate") - explained_by_replay,
            "constraints.instantiate_s" => sum("constraints.instantiate"),
            "constraints.normalize_s" => sum("constraints.normalize"),
            "constraints.dnf_s" => sum("constraints.dnf"),
            "constraints.dnf_disjuncts" => counts.dnf_disjuncts as f64,
            "qe.eliminate_s" => sum("qe.eliminate"),
            "qe.plan.subst" => plan.subst as f64,
            "qe.plan.fm" => plan.fm as f64,
            "qe.plan.quad" => plan.quad as f64,
            "qe.plan.cad" => plan.cad as f64,
            "qe.plan.subst_s" => plan.subst_nanos as f64 / 1e9,
            "qe.plan.fm_s" => plan.fm_nanos as f64 / 1e9,
            "qe.plan.quad_s" => plan.quad_nanos as f64 / 1e9,
            "qe.plan.cad_s" => plan.cad_nanos as f64 / 1e9,
            "qe.cad.project_s" => sum("qe.cad.project"),
            "qe.cad.build_s" => sum("qe.cad.build"),
            "qe.cad.solution_s" => sum("qe.cad.solution"),
            "qe.cad.cells" => ctx.cells_built.get() as f64,
            "qe.cad.proj_polys" => counts.cad_proj_polys as f64,
            "qe.cad.sign_evals" => ctx.sign_evals.get() as f64,
            "qe.cache.hits" => stats.cache_hits as f64,
            "qe.cache.misses" => stats.cache_misses as f64,
            "qe.cache.hit_ratio" => ratio(stats.cache_hits, stats.cache_misses),
            "qe.cache.evictions" => first.cache.0 as f64,
            "qe.cache.entries" => first.cache.1 as f64,
            "poly.resultant.prs" => (after.resultant.0 - before.resultant.0) as f64,
            "poly.resultant.eval_interp" => (after.resultant.1 - before.resultant.1) as f64,
            "poly.resultant.crt" => (after.resultant.2 - before.resultant.2) as f64,
            "poly.resultant.fallbacks" => (after.resultant.3 - before.resultant.3) as f64,
            "poly.intern.hits" => intern.0 as f64,
            "poly.intern.misses" => intern.1 as f64,
            "poly.intern.entries" => after.intern.entries as f64,
            "poly.intern.hit_ratio" => ratio(intern.0, intern.1),
            "num.filter.hits" => filter.0 as f64,
            "num.filter.fallbacks" => filter.1 as f64,
            "num.filter.hit_ratio" => ratio(filter.0, filter.1),
            "approx.approximate_s" => sum("approx.approximate"),
            "approx.pieces" => counts.approx_pieces as f64,
            "agg.body_eval_s" => sum("agg.body_eval"),
            "agg.apply_s" => sum("agg.apply"),
            "trace.overhead_frac" => sum("server.execute") / untraced_s - 1.0,
            "trace.unattributed_frac" => glue / (glue + sum_where(&REPLAY_A_LEAVES, None)),
            _ => f64::NAN,
        }
    };
    PER_LAYER.iter().map(|(name, _, _)| value(name)).collect()
}

/// The `--trace 1` run: verification pass, then pairs of one untraced
/// repeat and one traced pass until `seconds` are used, so both sides see
/// the same host and the same number of executions. Span times are
/// per-statement floors across the traced passes (sessions run one after
/// the other there, so a statement's work is the same in every pass); the
/// untraced reference is the floor of the untraced repeats for a
/// one-session workload and the repeat of median wall time otherwise, as
/// in [`crate::run::measure`]. The server's and the process-global counters
/// are read after / around the first untraced repeat.
pub fn trace_run(
    name: &str,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
) -> Result<TraceOutcome, String> {
    let t0 = Instant::now();
    let verified = verify_repeat(name, seed, sizes)?;
    let (mut attempted, mut failed) = (verified.attempted, verified.failed);
    let mut first: Option<(Repeat, (GlobalCounters, GlobalCounters))> = None;
    let mut first_pass: Option<Pass> = None;
    let mut untraced: Vec<Timed> = Vec::new();
    let mut durations: BTreeMap<(u32, &'static str), f64> = BTreeMap::new();
    let mut own: BTreeMap<(u32, &'static str), f64> = BTreeMap::new();
    while first_pass.is_none() || t0.elapsed().as_secs_f64() < seconds {
        let before = GlobalCounters::read();
        let repeat = timed_repeat(name, seed, sizes, &verified.transcript)?;
        let after = GlobalCounters::read();
        let pass = traced_pass(name, seed, sizes, &verified.transcript)?;
        attempted += repeat.attempted + pass.attempted;
        failed += repeat.failed + pass.failed;
        untraced.push(Timed::of(&repeat));
        for (floors, pass_values) in [
            (&mut durations, pass.recorder.durations()),
            (&mut own, pass.recorder.self_times()),
        ] {
            for (key, d) in pass_values {
                floors
                    .entry(key)
                    .and_modify(|floor| *floor = floor.min(d))
                    .or_insert(d);
            }
        }
        first.get_or_insert((repeat, (before, after)));
        first_pass.get_or_insert(pass);
    }
    let (pass, (first, globals)) = first_pass.zip(first).ok_or("no traced pass ran")?;
    // The verified transcript is the set-up's, then one per session.
    let reference = if verified.transcript.len() == 2 {
        Timed::floor(&untraced)
    } else {
        untraced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        untraced.get(untraced.len() / 2).cloned()
    }
    .ok_or("no untraced repeat ran")?;
    let metrics = PER_LAYER
        .iter()
        .zip(layer_values(
            &first, &globals, &reference, &durations, &own, &pass,
        ))
        .map(|((name, unit, _), value)| ((*name).to_owned(), (*unit).to_owned(), value))
        .collect();
    if pass.replayer.counts.replay_c_skipped > 0 {
        eprintln!(
            "note: Replay C skipped {} CAD-routed statement(s) outside its one-quantifier class",
            pass.replayer.counts.replay_c_skipped
        );
    }
    Ok(TraceOutcome {
        attempted,
        failed,
        metrics,
        spans: pass.recorder.to_json(),
        complaints: verified.complaints,
    })
}

/// 1-based level of a polynomial under a variable order (0 for constants).
fn level_of(p: &MPoly, order: &[usize]) -> usize {
    order
        .iter()
        .rposition(|&v| p.uses_var(v))
        .map_or(0, |pos| pos + 1)
}

/// The projection phase of `build_cad`, on its own: close the input set
/// under `project`, top level downwards.
fn projection_closure(polys: &[MPoly], order: &[usize], ctx: &QeContext) -> Result<usize, QeError> {
    let mut registry = Registry::default();
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
    let add = |p: &MPoly, registry: &mut Registry, levels: &mut Vec<Vec<usize>>| {
        if let Some(norm) = normalize(p) {
            let level = level_of(&norm, order);
            let id = registry.insert(norm);
            if level >= 1 && !levels[level - 1].contains(&id) {
                levels[level - 1].push(id);
            }
        }
    };
    for p in polys {
        add(p, &mut registry, &mut levels);
    }
    for l in (2..=order.len()).rev() {
        let at_level: Vec<MPoly> = levels[l - 1]
            .iter()
            .map(|&id| registry.get(id).clone())
            .collect();
        if at_level.is_empty() {
            continue;
        }
        for p in project(&at_level, order[l - 1], ctx)? {
            add(&p, &mut registry, &mut levels);
        }
    }
    Ok(registry.len())
}

/// Distinct non-constant polynomials of a quantifier-free pure formula, in
/// first-occurrence order (what `cad::eliminate` gathers).
fn matrix_polys(f: &Formula, out: &mut Vec<MPoly>) {
    match f {
        Formula::Atom(a) => {
            if !a.poly.is_constant() && !out.contains(&a.poly) {
                out.push(a.poly.clone());
            }
        }
        Formula::Not(g) => matrix_polys(g, out),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| matrix_polys(g, out)),
        Formula::True | Formula::False | Formula::Rel(..) | Formula::Quant(..) => {}
    }
}

/// Call `f` on every term of a formula, aggregate bodies included.
fn visit_terms(formula: &CFormula, f: &mut impl FnMut(&CTerm)) {
    fn term(t: &CTerm, f: &mut impl FnMut(&CTerm)) {
        f(t);
        match t {
            CTerm::Var(_) | CTerm::Const(_) => {}
            CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => {
                term(a, f);
                term(b, f);
            }
            CTerm::Neg(a) | CTerm::Pow(a, _) | CTerm::Apply(_, a) => term(a, f),
            CTerm::Agg(_, _, body) => visit_terms(body, f),
        }
    }
    match formula {
        CFormula::True | CFormula::False | CFormula::Rel(..) => {}
        CFormula::Cmp(a, _, b) => {
            term(a, f);
            term(b, f);
        }
        CFormula::EvalPred(_, g)
        | CFormula::Not(g)
        | CFormula::Exists(_, g)
        | CFormula::Forall(_, g) => {
            visit_terms(g, f);
        }
        CFormula::And(fs) | CFormula::Or(fs) => fs.iter().for_each(|g| visit_terms(g, f)),
    }
}

fn formula_has(formula: &CFormula, pred: &impl Fn(&CTerm) -> bool) -> bool {
    let mut found = matches!(formula, CFormula::EvalPred(..));
    visit_terms(formula, &mut |t| found |= pred(t));
    found
}

/// Lower an aggregate-free, analytic-free CALC_F formula to the pure
/// formula type over ring indices (`names[i]` is variable `i`).
fn lower(f: &CFormula, names: &[String], nvars: usize) -> Result<Formula, String> {
    let index = |v: &String| {
        names
            .iter()
            .position(|n| n == v)
            .ok_or_else(|| format!("unknown variable {v}"))
    };
    Ok(match f {
        CFormula::True => Formula::True,
        CFormula::False => Formula::False,
        CFormula::Rel(name, args) => Formula::Rel(
            name.clone(),
            args.iter().map(index).collect::<Result<_, _>>()?,
        ),
        CFormula::Cmp(a, op, b) => {
            let poly = &lower_term(a, names, nvars)? - &lower_term(b, names, nvars)?;
            Formula::Atom(Atom::new(poly, *op))
        }
        CFormula::Not(g) => Formula::not(lower(g, names, nvars)?),
        CFormula::And(fs) => Formula::And(
            fs.iter()
                .map(|g| lower(g, names, nvars))
                .collect::<Result<_, _>>()?,
        ),
        CFormula::Or(fs) => Formula::Or(
            fs.iter()
                .map(|g| lower(g, names, nvars))
                .collect::<Result<_, _>>()?,
        ),
        CFormula::Exists(v, g) => Formula::exists(index(v)?, lower(g, names, nvars)?),
        CFormula::Forall(v, g) => Formula::forall(index(v)?, lower(g, names, nvars)?),
        CFormula::EvalPred(..) => return Err("EVAL predicate in a formula-level replay".to_owned()),
    })
}

fn lower_term(t: &CTerm, names: &[String], nvars: usize) -> Result<MPoly, String> {
    Ok(match t {
        CTerm::Var(v) => MPoly::var(
            names
                .iter()
                .position(|n| n == v)
                .ok_or_else(|| format!("unknown variable {v}"))?,
            nvars,
        ),
        CTerm::Const(c) => MPoly::constant(c.clone(), nvars),
        CTerm::Add(a, b) => &lower_term(a, names, nvars)? + &lower_term(b, names, nvars)?,
        CTerm::Sub(a, b) => &lower_term(a, names, nvars)? - &lower_term(b, names, nvars)?,
        CTerm::Mul(a, b) => &lower_term(a, names, nvars)? * &lower_term(b, names, nvars)?,
        CTerm::Neg(a) => -&lower_term(a, names, nvars)?,
        CTerm::Pow(a, n) => lower_term(a, names, nvars)?.pow(*n),
        CTerm::Apply(..) | CTerm::Agg(..) => {
            return Err("analytic or aggregate term in a formula-level replay".to_owned())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &'static str, start: u64, end: u64, parent: Option<usize>, stmt: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            stmt,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new();
        // root [0, 100) with children [10, 40) and [50, 90); the second has
        // a grandchild [60, 70).
        rec.push_raw(raw("root", 0, 100, None, 7));
        rec.push_raw(raw("a", 10, 40, Some(0), 7));
        rec.push_raw(raw("b", 50, 90, Some(0), 7));
        rec.push_raw(raw("a", 60, 70, Some(2), 7));
        let own = rec.self_times();
        let ns = |name| (own[&(7, name)] * 1e9).round() as u64;
        assert_eq!(ns("root"), 30); // 100 − 30 − 40
        assert_eq!(ns("b"), 30); // 40 − 10
        assert_eq!(ns("a"), 40); // 30 + 10, summed over both spans
        let total: u64 = ["root", "a", "b"].iter().map(|n| ns(n)).sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn nested_closures_record_parents_and_statements() {
        let mut rec = Recorder::new();
        rec.set_statement(3);
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.span("inner", |_| ());
        });
        rec.set_statement(4);
        rec.span("outer", |_| ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].stmt, spans[3].stmt), (3, 4));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
