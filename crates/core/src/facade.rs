//! The user-facing constraint database.

use crate::update::{Change, Derivation, UpdateReport};
use cdb_calcf::{CalcFEngine, CalcFError, CalcFOutput};
use cdb_constraints::{ConstraintRelation, Database};
use cdb_datalog::{DatalogError, FixpointStats, Program, DELTA_PREFIX};
use cdb_num::Rat;
use cdb_qe::pipeline::numerical_evaluation;
use cdb_qe::{AlgebraicCache, QeError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors from the facade.
#[derive(Debug)]
pub enum DbError {
    /// Query/definition failure.
    CalcF(CalcFError),
    /// QE failure during numeric evaluation.
    Qe(QeError),
    /// Datalog¬ fixpoint failure.
    Datalog(DatalogError),
    /// Schema problem.
    Schema(String),
    /// Storage format problem.
    Storage(String),
    /// An operation addressed an existing relation with the wrong arity
    /// (the write is rejected; nothing is overwritten).
    ArityMismatch {
        /// The relation addressed.
        name: String,
        /// Its stored arity.
        existing: usize,
        /// The arity the operation supplied.
        requested: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::CalcF(e) => write!(f, "{e}"),
            DbError::Qe(e) => write!(f, "{e}"),
            DbError::Datalog(e) => write!(f, "{e}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::Storage(m) => write!(f, "storage error: {m}"),
            DbError::ArityMismatch {
                name,
                existing,
                requested,
            } => write!(
                f,
                "arity mismatch on {name}: stored relation has arity {existing}, got {requested}"
            ),
        }
    }
}

impl std::error::Error for DbError {}

impl From<CalcFError> for DbError {
    fn from(e: CalcFError) -> Self {
        DbError::CalcF(e)
    }
}

impl From<QeError> for DbError {
    fn from(e: QeError) -> Self {
        DbError::Qe(e)
    }
}

impl From<DatalogError> for DbError {
    fn from(e: DatalogError) -> Self {
        DbError::Datalog(e)
    }
}

/// A query answer: the closed-form relation plus helpers for the numeric
/// steps of the paper's pipeline.
#[derive(Debug, Clone)]
pub struct QueryResult {
    output: CalcFOutput,
    /// The engine that evaluated `output`, so the numeric step runs under
    /// the same configuration (precision, CAD lifting threads, bit budget,
    /// memo-cache) as the symbolic one.
    engine: CalcFEngine,
}

impl QueryResult {
    /// The closed-form answer relation (over the query's ambient ring).
    #[must_use]
    pub fn relation(&self) -> &ConstraintRelation {
        &self.output.relation
    }

    /// Names of the ambient ring's variables.
    #[must_use]
    pub fn var_names(&self) -> &[String] {
        &self.output.var_names
    }

    /// Indices of the free variables.
    #[must_use]
    pub fn free_vars(&self) -> &[usize] {
        &self.output.free_vars
    }

    /// True when no approximation was involved anywhere.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.output.exact
    }

    /// Measured sup-norm error bound of the analytic-function
    /// approximations used in this evaluation (0.0 when exact).
    #[must_use]
    // cdb-lint: allow(float) — diagnostic-only sup-norm bound surfaced to the
    // caller (§5 approximate aggregates); never feeds back into exact decisions
    pub fn approx_error(&self) -> f64 {
        self.output.approx_sup_error
    }

    /// Membership test: does the point (free-variable coordinates, in free
    /// variable order) satisfy the answer?
    #[must_use]
    pub fn contains(&self, free_coords: &[Rat]) -> bool {
        self.output
            .relation
            .satisfied_at(&self.output.point(free_coords))
    }

    /// Render the answer with variable names.
    #[must_use]
    pub fn display(&self) -> String {
        self.output.display()
    }

    /// Finite explicit points (exact), if the relation is already a finite
    /// set of rational points.
    #[must_use]
    pub fn points(&self) -> Option<Vec<Vec<Rat>>> {
        self.output.as_points()
    }

    /// NUMERICAL EVALUATION (paper §2 step 3): if the answer is a finite
    /// set, ε-approximate all solution points; `None` for infinite answers.
    pub fn solve(&self) -> Result<Option<Vec<Vec<Rat>>>, DbError> {
        let pts = numerical_evaluation(
            &self.output.relation,
            &self.output.free_vars,
            &self.engine.eps,
            &self.engine.qe_context(self.engine.budget_bits),
        )?;
        Ok(pts.map(|ps| ps.into_iter().map(|p| p.coords).collect()))
    }
}

/// A constraint database with a CALC_F query engine.
///
/// Beyond evaluation, the database is *updatable*: [`Self::insert_tuples`]
/// / [`Self::retract_tuples`] change named relations in place and
/// propagate the change to every `define`d view and materialized Datalog¬
/// head that (transitively) reads them — incrementally where the change
/// permits, by recompute where it does not (see `crate::update`).
#[derive(Debug, Clone)]
pub struct ConstraintDb {
    pub(crate) db: Database,
    /// Engine configuration, including the one algebraic memo-cache
    /// handle every evaluation context of this database shares.
    pub(crate) engine: CalcFEngine,
    /// Declared variable names per relation (display and storage only).
    pub(crate) catalog: BTreeMap<String, Vec<String>>,
    /// The derived relations' definitions, in registration order; each
    /// relation has at most one owner here.
    pub(crate) derived: Vec<Derivation>,
}

impl Default for ConstraintDb {
    fn default() -> Self {
        ConstraintDb::new()
    }
}

impl ConstraintDb {
    /// Empty database with the default engine (Chebyshev order-6
    /// approximations over a 32-cell a-base on [−16, 16], ε = 2⁻³⁰).
    #[must_use]
    pub fn new() -> ConstraintDb {
        ConstraintDb::with_engine(CalcFEngine::default())
    }

    /// Use a custom engine configuration.
    #[must_use]
    pub fn with_engine(engine: CalcFEngine) -> ConstraintDb {
        ConstraintDb {
            db: Database::new(),
            engine,
            catalog: BTreeMap::new(),
            derived: Vec::new(),
        }
    }

    /// Engine configuration (mutable: adjust a-base, precision, budget).
    pub fn engine_mut(&mut self) -> &mut CalcFEngine {
        &mut self.engine
    }

    /// The underlying raw database.
    #[must_use]
    pub fn raw(&self) -> &Database {
        &self.db
    }

    /// The engine's algebraic memo-cache: the one handle CALC_F queries,
    /// Datalog runs and the update path all evaluate through (cloning the
    /// database, or the engine, shares it).
    #[must_use]
    pub fn cache(&self) -> &AlgebraicCache {
        &self.engine.cache
    }

    /// Reject names the evaluator reserves and arity-0 schemas (the
    /// storage format cannot represent a nullary relation, and a 0-ary
    /// extent is a sentence, not a relation).
    fn check_schema(name: &str, arity: usize) -> Result<(), DbError> {
        if name.is_empty() {
            return Err(DbError::Schema("empty relation name".to_owned()));
        }
        if name.starts_with(DELTA_PREFIX) {
            return Err(DbError::Schema(format!(
                "relation name {name} uses the reserved prefix {DELTA_PREFIX}"
            )));
        }
        if arity == 0 {
            return Err(DbError::Schema(format!(
                "relation {name} has arity 0; nullary relations are not supported"
            )));
        }
        Ok(())
    }

    /// Reject a column list that names one variable twice: positional
    /// binding would silently keep the last position only.
    pub(crate) fn check_distinct_vars(name: &str, vars: &[&str]) -> Result<(), DbError> {
        let mut seen = BTreeSet::new();
        match vars.iter().find(|v| !seen.insert(**v)) {
            Some(v) => Err(DbError::Schema(format!(
                "relation {name} has repeated variable {v}"
            ))),
            None => Ok(()),
        }
    }

    /// [`DbError::ArityMismatch`] if `name` exists with an arity other
    /// than `requested`.
    fn check_arity(&self, name: &str, requested: usize) -> Result<(), DbError> {
        match self.db.get(name) {
            Some(existing) if existing.nvars() != requested => Err(DbError::ArityMismatch {
                name: name.to_owned(),
                existing: existing.nvars(),
                requested,
            }),
            _ => Ok(()),
        }
    }

    /// Default `v0, v1, …` variable names for relations inserted without
    /// declared names.
    pub(crate) fn default_var_names(arity: usize) -> Vec<String> {
        (0..arity).map(|i| format!("v{i}")).collect()
    }

    /// Define a relation from CALC_F source over the named variables:
    /// `db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")`.
    /// Definitions may use quantifiers, previously defined relations,
    /// analytic functions and aggregates.
    ///
    /// The definition is registered as the relation's one owner (replacing
    /// a view or program that owned it): when a relation it reads is later
    /// updated, the view is recompiled over `vars`. Redefining an existing
    /// relation keeps its arity ([`DbError::ArityMismatch`] otherwise) and
    /// refreshes everything that reads *it*.
    pub fn define(&mut self, name: &str, vars: &[&str], src: &str) -> Result<(), DbError> {
        Self::check_schema(name, vars.len())?;
        Self::check_distinct_vars(name, vars)?;
        self.check_arity(name, vars.len())?;
        let ast = cdb_calcf::parse_formula(src).map_err(CalcFError::from)?;
        let rel = self.engine.compile_relation_ast(&self.db, vars, &ast)?;
        let vars: Vec<String> = vars.iter().map(|v| (*v).to_owned()).collect();
        let view = Derivation::View {
            name: name.to_owned(),
            vars: vars.clone(),
            src: src.to_owned(),
            reads: ast.relation_names(),
        };
        self.store(name, rel, vars, Some(view))
    }

    /// Insert (or replace) a pre-built relation. Over a view or a program
    /// head this makes `name` a base relation (the program's other heads
    /// too). Replacing requires the arity to match
    /// ([`DbError::ArityMismatch`]) and refreshes every view /
    /// materialized head that transitively reads `name`.
    pub fn insert(&mut self, name: &str, rel: ConstraintRelation) -> Result<(), DbError> {
        Self::check_schema(name, rel.nvars())?;
        self.check_arity(name, rel.nvars())?;
        let arity = rel.nvars();
        let var_names = self
            .catalog
            .get(name)
            .filter(|names| names.len() == arity)
            .cloned()
            .unwrap_or_else(|| Self::default_var_names(arity));
        self.store(name, rel, var_names, None)
    }

    /// Store `rel` as `name` with its variable names, owned by `view` or,
    /// without one, as a base relation. Over an existing relation this
    /// refreshes everything that reads it, all or nothing: when a
    /// dependent fails to refresh, nothing is stored.
    fn store(
        &mut self,
        name: &str,
        rel: ConstraintRelation,
        var_names: Vec<String>,
        view: Option<Derivation>,
    ) -> Result<(), DbError> {
        let replacing = self.db.get(name).is_some();
        self.atomically(|next| {
            next.db.insert(name, rel.canonicalized());
            next.catalog.insert(name.to_owned(), var_names);
            match view {
                Some(view) => next.register(view),
                None => next.disown(&BTreeSet::from([name.to_owned()])),
            }
            if replacing {
                let changed = BTreeMap::from([(name.to_owned(), Change::Destructive)]);
                next.propagate(changed, &mut UpdateReport::default())?;
            }
            Ok(())
        })
    }

    /// Insert (or replace) a finite relation from explicit points.
    pub fn insert_points(
        &mut self,
        name: &str,
        arity: usize,
        points: &[Vec<Rat>],
    ) -> Result<(), DbError> {
        self.insert(name, ConstraintRelation::from_points(arity, points))
    }

    /// Look up a stored relation.
    #[must_use]
    pub fn relation(&self, name: &str) -> Option<&ConstraintRelation> {
        self.db.get(name)
    }

    /// Declared variable names of a stored relation (defaults `v0, v1, …`
    /// when it was inserted without names).
    #[must_use]
    pub fn var_names(&self, name: &str) -> Option<&[String]> {
        self.catalog.get(name).map(Vec::as_slice)
    }

    /// Declare the variable names of an existing relation (count must
    /// match its arity, no name twice). The names are cosmetic — display
    /// and storage — so no recompilation happens, and a view keeps
    /// recompiling over the variables it was defined over.
    pub fn rename_vars(&mut self, name: &str, vars: &[&str]) -> Result<(), DbError> {
        let Some(rel) = self.db.get(name) else {
            return Err(DbError::Schema(format!("no relation named {name}")));
        };
        if rel.nvars() != vars.len() {
            return Err(DbError::ArityMismatch {
                name: name.to_owned(),
                existing: rel.nvars(),
                requested: vars.len(),
            });
        }
        Self::check_distinct_vars(name, vars)?;
        let var_names = vars.iter().map(|v| (*v).to_owned()).collect();
        self.catalog.insert(name.to_owned(), var_names);
        Ok(())
    }

    /// Remove a relation, with the view or program that owned it. Every
    /// derived relation whose definition reads it stops being derived: it
    /// keeps its last materialized extent as a base relation (a program's
    /// other heads too). The memo-cache is invalidated.
    pub fn remove(&mut self, name: &str) -> Option<ConstraintRelation> {
        let removed = self.db.remove(name);
        if removed.is_some() {
            self.catalog.remove(name);
            self.derived
                .retain(|d| !d.outputs().contains(name) && !d.reads().contains(name));
            // frozen harness: a pure cache needs no wipe.
            self.engine.cache.invalidate();
        }
        removed
    }

    /// Schema: `(name, arity)` pairs.
    #[must_use]
    pub fn schema(&self) -> Vec<(String, usize)> {
        self.db.schema()
    }

    /// Evaluate a CALC_F query in closed form.
    pub fn query(&self, src: &str) -> Result<QueryResult, DbError> {
        let output = self.engine.evaluate(&self.db, src)?;
        Ok(QueryResult {
            output,
            engine: self.engine.clone(),
        })
    }

    /// Run a Datalog¬ program to its inflationary fixpoint with the
    /// semi-naive evaluator, merging the saturated head relations
    /// back into this database. The evaluation context carries the
    /// engine's full configuration — `workers`, `budget_bits`, *and* the
    /// facade's persistent memo-cache (so repeated runs and the update
    /// path reuse each other's algebraic work); returns the run's
    /// [`FixpointStats`].
    ///
    /// The program is also *registered* as the one owner of its heads,
    /// replacing any view or program that owned one of them, and later
    /// [`Self::insert_tuples`] / [`Self::retract_tuples`] calls re-run it —
    /// incrementally when the change permits. A head that existed before
    /// the run counts as replaced: everything else that reads it is
    /// refreshed, all or nothing.
    ///
    /// Programs are built directly ([`cdb_datalog::Rule`]) or parsed from
    /// text with [`crate::parse_program`].
    pub fn run_datalog(
        &mut self,
        program: &Program,
        max_iterations: usize,
    ) -> Result<FixpointStats, DbError> {
        let heads = program.head_names();
        // Snapshot the pre-materialization head extents: a later full
        // recompute must restart from these, not from the saturated ones
        // (the inflationary semantics never shrinks an extent).
        let base_heads: BTreeMap<String, Option<ConstraintRelation>> = heads
            .iter()
            .map(|h| (h.clone(), self.db.get(h).cloned()))
            .collect();
        let replaced: BTreeMap<String, Change> = base_heads
            .iter()
            .filter(|(_, snapshot)| snapshot.is_some())
            .map(|(head, _)| (head.clone(), Change::Destructive))
            .collect();
        let (saturated, stats) = program.run(
            &self.db,
            &self.engine.qe_context(self.engine.budget_bits),
            max_iterations,
        )?;
        self.atomically(|next| {
            next.db = saturated;
            for head in &heads {
                let arity = next.db.get(head).map_or(0, ConstraintRelation::nvars);
                next.catalog
                    .entry(head.clone())
                    .or_insert_with(|| Self::default_var_names(arity));
            }
            next.register(Derivation::Program {
                program: program.clone(),
                max_iterations,
                base_heads,
            });
            if !replaced.is_empty() {
                next.propagate(replaced, &mut UpdateReport::default())?;
            }
            Ok(stats)
        })
    }

    /// Evaluate under the finite precision semantics with bit budget `k`:
    /// `Ok(None)` when the query is *undefined* (`⊨_QE^F` partiality).
    pub fn query_fp(&self, src: &str, budget_bits: u64) -> Result<Option<QueryResult>, DbError> {
        self.query_fp_then(src, budget_bits, Ok)
    }

    /// [`Self::query_fp`], then `then` on the answer — which keeps the
    /// budget, so NUMERICAL EVALUATION ([`QueryResult::solve`]) runs under
    /// it too: `Ok(None)` when either step exceeds `k` bits. This is the
    /// one place that turns [`QeError::PrecisionExceeded`] into
    /// *undefined*.
    pub fn query_fp_then<T>(
        &self,
        src: &str,
        budget_bits: u64,
        then: impl FnOnce(QueryResult) -> Result<T, DbError>,
    ) -> Result<Option<T>, DbError> {
        let mut engine = self.engine.clone();
        engine.budget_bits = Some(budget_bits);
        let answer = engine.evaluate(&self.db, src).map_err(DbError::from);
        match answer.and_then(|output| then(QueryResult { output, engine })) {
            Err(DbError::CalcF(CalcFError::Qe(e)) | DbError::Qe(e))
                if matches!(e, QeError::PrecisionExceeded { .. }) =>
            {
                Ok(None)
            }
            answer => answer.map(Some),
        }
    }

    /// Evaluate `src` under both semantics and compare the answers on the
    /// grid of half-integers in `[-range, range]` over the free variables:
    /// the empirical content of Theorem 4.2 (a linear query agrees whenever
    /// defined). `Ok(None)` when the finite-precision answer is undefined,
    /// as for [`Self::query_fp`].
    pub fn compare_semantics(
        &self,
        src: &str,
        budget_bits: u64,
        range: i64,
    ) -> Result<Option<Divergence>, DbError> {
        let Some(fp) = self.query_fp(src, budget_bits)? else {
            return Ok(None);
        };
        let exact = self.query(src)?;
        let steps: Vec<Rat> = (-2 * range..=2 * range)
            .map(|i| Rat::from_ints(i, 2))
            .collect();
        let dims = exact.free_vars().len();
        let probes = (0..dims).fold(1, |n, _| n * steps.len());
        let disagreements = (0..probes)
            .filter(|&i| {
                let mut rest = i;
                let coords: Vec<Rat> = (0..dims)
                    .map(|_| {
                        let c = steps[rest % steps.len()].clone();
                        rest /= steps.len();
                        c
                    })
                    .collect();
                exact.contains(&coords) != fp.contains(&coords)
            })
            .count();
        Ok(Some(Divergence {
            disagreements,
            probes,
        }))
    }
}

/// What [`ConstraintDb::compare_semantics`] found on a defined answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Probe points where the two answers disagreed.
    pub disagreements: usize,
    /// Probe points examined.
    pub probes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> ConstraintDb {
        let mut db = ConstraintDb::new();
        db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")
            .unwrap();
        db
    }

    #[test]
    fn define_and_membership() {
        let db = paper_db();
        let q = db.query("S(x, y)").unwrap();
        assert!(q.contains(&["5/2".parse().unwrap(), Rat::zero()]));
        assert!(!q.contains(&[Rat::zero(), Rat::zero()]));
    }

    #[test]
    fn figure1_pipeline() {
        let db = paper_db();
        let q = db.query("exists y (S(x, y) and y <= 0)").unwrap();
        assert!(q.is_exact());
        let pts = q.solve().unwrap().expect("finite");
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0][0], "5/2".parse().unwrap());
    }

    #[test]
    fn surface_aggregate() {
        let db = paper_db();
        let q = db.query("z = SURFACE[x, y]{ S(x, y) and y <= 9 }").unwrap();
        assert_eq!(q.points().unwrap(), vec![vec![Rat::from(18i64)]]);
    }

    #[test]
    fn derived_definitions() {
        let mut db = paper_db();
        // Define the Figure 1 answer as a stored relation.
        db.define("Q", &["x"], "exists y (S(x, y) and y <= 0)")
            .unwrap();
        let q = db.query("Q(x)").unwrap();
        assert!(q.contains(&["5/2".parse().unwrap()]));
        assert!(!q.contains(&[Rat::from(3i64)]));
    }

    #[test]
    fn finite_precision_query() {
        let db = paper_db();
        assert!(db
            .query_fp("exists y (S(x, y) and y <= 0)", 3)
            .unwrap()
            .is_none());
        assert!(db
            .query_fp("exists y (S(x, y) and y <= 0)", 64)
            .unwrap()
            .is_some());
    }

    /// A quantifier-free query passes evaluation at any budget; its
    /// NUMERICAL EVALUATION still runs under the budget and is undefined
    /// when it overflows, not an error.
    #[test]
    fn numerical_evaluation_keeps_the_budget() {
        let db = ConstraintDb::new();
        let solve = |k| db.query_fp_then("x^2 = 1000", k, |a| a.solve());
        assert!(db.query_fp("x^2 = 1000", 3).unwrap().is_some());
        assert_eq!(solve(3).unwrap(), None);
        let points = solve(256).unwrap().expect("defined").expect("finite");
        assert_eq!(points.len(), 2);
    }

    /// Theorem 4.2: with `c·k` bits a linear query is defined and agrees
    /// with the exact semantics; a tiny budget leaves it undefined, never
    /// wrong.
    #[test]
    fn linear_query_semantics_agree_or_are_undefined() {
        let mut db = ConstraintDb::new();
        db.define("R", &["x", "y"], "y = 1048576*x and x >= 0 and x <= 4")
            .unwrap();
        let generous = db.compare_semantics("exists y R(x, y)", 200, 6).unwrap();
        assert_eq!(
            generous,
            Some(Divergence {
                disagreements: 0,
                probes: 25,
            })
        );
        let tiny = db.compare_semantics("exists y R(x, y)", 4, 3).unwrap();
        assert_eq!(tiny, None);
    }

    #[test]
    fn schema_and_crud() {
        let mut db = paper_db();
        assert_eq!(db.schema(), vec![("S".to_owned(), 2)]);
        db.insert_points("P", 1, &[vec![Rat::one()]]).unwrap();
        assert_eq!(db.schema().len(), 2);
        assert!(db.relation("P").is_some());
        db.remove("P");
        assert!(db.relation("P").is_none());
    }

    #[test]
    fn bad_definition_rejected() {
        let mut db = ConstraintDb::new();
        let err = db.define("R", &["x"], "x <= y");
        assert!(err.is_err(), "undeclared variable must be rejected");
    }

    /// Accepting `P(x, x) := x <= 1` would bind only the last position:
    /// `P(a, b)` would answer `b - 1 <= 0`.
    #[test]
    fn repeated_column_names_rejected() {
        let mut db = ConstraintDb::new();
        let err = db.define("P", &["x", "x"], "x <= 1").unwrap_err();
        assert!(
            matches!(&err, DbError::Schema(m) if m.contains("repeated variable x")),
            "{err}"
        );
        assert!(db.relation("P").is_none());
        db.insert("Q", ConstraintRelation::empty(3)).unwrap();
        let err = db.rename_vars("Q", &["a", "b", "a"]).unwrap_err();
        assert!(matches!(err, DbError::Schema(_)), "{err}");
        assert_eq!(db.var_names("Q").unwrap(), ["v0", "v1", "v2"]);
    }

    #[test]
    fn run_datalog_saturates_into_database() {
        let mut db = ConstraintDb::new();
        db.insert_points(
            "E",
            2,
            &[
                vec![Rat::one(), Rat::from(2i64)],
                vec![Rat::from(2i64), Rat::from(3i64)],
            ],
        )
        .unwrap();
        let program = crate::parse_program(
            "T(x, y) :- E(x, y).\n\
             T(x, y) :- T(x, z), E(z, y).",
        )
        .unwrap();
        let stats = db.run_datalog(&program, 32).unwrap();
        assert!(stats.iterations >= 2);
        assert!(stats.qe_calls >= stats.iterations);
        // The saturated head is queryable like any stored relation.
        let q = db.query("T(x, y)").unwrap();
        assert!(q.contains(&[Rat::one(), Rat::from(3i64)]));
        assert!(!q.contains(&[Rat::from(3i64), Rat::one()]));
    }
}
