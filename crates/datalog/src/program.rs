//! Datalog¬ programs and their inflationary fixpoint evaluation.
//!
//! Two evaluators share the same semantics:
//!
//! * [`Program::run`] — the default **semi-naive** fixpoint
//!   (Balbin–Ramamohanarao delta rewriting): each round tracks the tuples
//!   derived in the previous round per head relation (the *delta*), rewrites
//!   every recursive rule into variants where one positive IDB literal binds
//!   to the delta instead of the full extent, and evaluates the round's QE
//!   jobs one after another, merging in job order (semi-naive transitive
//!   closure has one job per round; DESIGN.md §6).
//! * [`Program::run_naive`] — the reference evaluator: every rule body
//!   against the full extents, sequentially, every round. Kept for
//!   differential testing.
//!
//! Delta rewriting is sound here *because* the semantics is inflationary:
//! extents only grow, so negated IDB literals only shrink, and any body
//! binding drawn entirely from pre-delta extents was already derivable (and
//! derived) in the previous round — the union never loses it. New tuples
//! therefore require at least one delta tuple in a positive IDB position,
//! which is exactly what the rewritten variants enumerate.

use cdb_constraints::{Atom, ConstraintRelation, Database, Formula, GeneralizedTuple};
use cdb_num::Rat;
use cdb_qe::{evaluate_query, QeContext, QeError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
// cdb-lint: allow(determinism) — wall-clock readings feed only the
// `Duration` fields of `IterationStats`/`FixpointStats` (E11 timing
// instrumentation); derived relations never depend on them.
use std::time::{Duration, Instant};

/// Reserved relation-name prefix for per-round delta extents. Input
/// databases must not define relations under it.
pub const DELTA_PREFIX: &str = "Δ:";

/// The delta relation name for `name`.
fn delta_name(name: &str) -> String {
    format!("{DELTA_PREFIX}{name}")
}

/// A body literal. Variables are indices into the rule's local ring.
#[derive(Debug, Clone)]
pub enum Literal {
    /// Positive relation atom `R(x̄)`.
    Rel(String, Vec<usize>),
    /// Negated relation atom `¬R(x̄)` (inflationary: complement of the
    /// current extent).
    NegRel(String, Vec<usize>),
    /// A polynomial constraint over the rule's variables.
    Constraint(Atom),
}

/// A rule `Head(x̄) :- body`.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Head relation name.
    pub head: String,
    /// Head variables (rule-local indices, distinct).
    pub head_vars: Vec<usize>,
    /// Body literals (conjunction).
    pub body: Vec<Literal>,
    /// Arity of the rule's local variable ring.
    pub nvars: usize,
}

impl Rule {
    /// Construct with sanity checks. Head variables must be distinct and
    /// within the rule's variable ring; violations are reachable from user
    /// input (the text frontend), so they surface as
    /// [`DatalogError::RuleHead`] rather than a panic.
    pub fn new(
        head: impl Into<String>,
        head_vars: Vec<usize>,
        body: Vec<Literal>,
        nvars: usize,
    ) -> Result<Rule, DatalogError> {
        let mut seen = BTreeSet::new();
        for &v in &head_vars {
            if v >= nvars {
                return Err(DatalogError::RuleHead(format!(
                    "head variable x{v} out of range (rule ring has {nvars} variables)"
                )));
            }
            if !seen.insert(v) {
                return Err(DatalogError::RuleHead(format!(
                    "repeated head variable x{v}"
                )));
            }
        }
        Ok(Rule {
            head: head.into(),
            head_vars,
            body,
            nvars,
        })
    }

    /// The body as a first-order formula with existentials over non-head
    /// variables. With `delta_pos = Some(i)`, the positive literal at body
    /// position `i` reads the delta relation instead of the full extent.
    fn body_formula_inner(&self, delta_pos: Option<usize>) -> Formula {
        let mut conj: Vec<Formula> = Vec::with_capacity(self.body.len());
        for (i, lit) in self.body.iter().enumerate() {
            conj.push(match lit {
                Literal::Rel(name, args) => {
                    let name = if delta_pos == Some(i) {
                        delta_name(name)
                    } else {
                        name.clone()
                    };
                    Formula::Rel(name, args.clone())
                }
                Literal::NegRel(name, args) => {
                    Formula::not(Formula::Rel(name.clone(), args.clone()))
                }
                Literal::Constraint(a) => Formula::Atom(a.clone()),
            });
        }
        let mut f = Formula::And(conj);
        // Existentials over body variables not in the head.
        let used: BTreeSet<usize> = f.free_vars();
        for v in used {
            if !self.head_vars.contains(&v) {
                f = Formula::exists(v, f);
            }
        }
        f
    }

    /// The plain body formula against the full extents.
    fn body_formula(&self) -> Formula {
        self.body_formula_inner(None)
    }
}

/// A Datalog¬ program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The rules; heads define the intensional relations.
    pub rules: Vec<Rule>,
}

/// Evaluation failure.
#[derive(Debug)]
pub enum DatalogError {
    /// QE failure — including finite-precision undefinedness, which is the
    /// *expected* way runs are bounded under `⊨_QE^F`.
    Qe(QeError),
    /// The iteration cap was reached without a fixpoint.
    IterationCap(usize),
    /// Head arity conflicts with an existing relation.
    Arity(String),
    /// QE left a residual constraint over a quantified-away body variable,
    /// so the head projection is undefined (it would alias a head column).
    ResidualVariable {
        /// Head relation of the offending rule.
        head: String,
        /// The rule-ring variable that survived elimination.
        var: usize,
    },
    /// The input database defines a relation under the reserved
    /// [`DELTA_PREFIX`] namespace.
    ReservedName(String),
    /// Rule construction rejected: a head variable is out of range or
    /// repeated (reachable from user input via the text frontend).
    RuleHead(String),
    /// [`Program::run_incremental`] refused a change set the program cannot
    /// maintain incrementally (a negated literal reads an intensional or
    /// changed relation); callers fall back to a full recompute.
    NotIncremental(String),
    /// An internal evaluator invariant was broken — never expected; returned
    /// instead of panicking so callers (servers, REPLs) can recover.
    Internal(String),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Qe(e) => write!(f, "datalog: {e}"),
            DatalogError::IterationCap(n) => {
                write!(f, "datalog: no fixpoint within {n} iterations")
            }
            DatalogError::Arity(m) => write!(f, "datalog arity conflict: {m}"),
            DatalogError::ResidualVariable { head, var } => write!(
                f,
                "datalog: residual constraint over eliminated variable x{var} in a rule for {head}"
            ),
            DatalogError::ReservedName(n) => {
                write!(
                    f,
                    "datalog: relation name {n} uses the reserved prefix {DELTA_PREFIX}"
                )
            }
            DatalogError::RuleHead(m) => write!(f, "datalog rule head: {m}"),
            DatalogError::NotIncremental(m) => {
                write!(f, "datalog: change not incrementally maintainable: {m}")
            }
            DatalogError::Internal(m) => write!(f, "datalog internal error: {m}"),
        }
    }
}

impl std::error::Error for DatalogError {}

impl From<QeError> for DatalogError {
    fn from(e: QeError) -> Self {
        DatalogError::Qe(e)
    }
}

/// Per-iteration measurements of a fixpoint run.
#[derive(Debug, Clone, Default)]
pub struct IterationStats {
    /// QE calls issued for rule bodies this round.
    pub qe_calls: usize,
    /// Per-head count of syntactically new tuples derived this round
    /// (the next round's delta sizes), sorted by head name.
    pub delta_tuples: Vec<(String, usize)>,
    /// Wall-clock time of the round.
    pub wall: Duration,
}

/// Statistics of a fixpoint run (experiment E11 reads these).
#[derive(Debug, Clone, Default)]
pub struct FixpointStats {
    /// Iterations executed (including the final no-change pass).
    pub iterations: usize,
    /// Largest coefficient bit length observed across all QE calls.
    pub max_bits_seen: u64,
    /// Total QE calls issued for rule bodies (excludes fixpoint subset
    /// checks).
    pub qe_calls: usize,
    /// QE calls per rule, indexed like [`Program::rules`].
    pub qe_calls_per_rule: Vec<usize>,
    /// Per-iteration breakdown.
    pub per_iteration: Vec<IterationStats>,
    /// Total wall-clock time of the run.
    pub wall: Duration,
}

/// One QE job of a fixpoint round: a rule index and the (possibly
/// delta-rewritten) body formula to evaluate.
struct QeJob {
    rule_idx: usize,
    formula: Formula,
}

impl Program {
    /// Names of the intensional relations (rule heads).
    fn idb_names(&self) -> BTreeSet<&str> {
        self.rules.iter().map(|r| r.head.as_str()).collect()
    }

    /// Validate head arities and create empty extents for absent heads.
    fn init_heads(&self, db: &mut Database) -> Result<(), DatalogError> {
        for (name, _) in db.iter() {
            if name.starts_with(DELTA_PREFIX) {
                return Err(DatalogError::ReservedName(name.clone()));
            }
        }
        for rule in &self.rules {
            let arity = rule.head_vars.len();
            match db.get(&rule.head) {
                Some(rel) if rel.nvars() != arity => {
                    return Err(DatalogError::Arity(format!(
                        "{} has arity {}, rule head uses {}",
                        rule.head,
                        rel.nvars(),
                        arity
                    )));
                }
                Some(_) => {}
                None => db.insert(rule.head.clone(), ConstraintRelation::empty(arity)),
            }
        }
        Ok(())
    }

    /// Names of the intensional relations (rule heads), owned — the
    /// relations a run (re)defines.
    #[must_use]
    pub fn head_names(&self) -> BTreeSet<String> {
        self.rules.iter().map(|r| r.head.clone()).collect()
    }

    /// Names of every relation a rule body reads (positively or under
    /// negation), heads included when the program is recursive: what the
    /// update path watches to re-run a materialized program.
    #[must_use]
    pub fn read_names(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for rule in &self.rules {
            for lit in &rule.body {
                match lit {
                    Literal::Rel(name, _) | Literal::NegRel(name, _) => {
                        out.insert(name.clone());
                    }
                    Literal::Constraint(_) => {}
                }
            }
        }
        out
    }

    /// One delta-bound job per (rule, positive body position) whose
    /// relation has a nonempty delta — the semi-naive round step,
    /// uniform over intensional deltas (rounds ≥ 2) and seeded base
    /// deltas (incremental round 1).
    fn delta_jobs(&self, deltas: &BTreeMap<String, ConstraintRelation>) -> Vec<QeJob> {
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            for (pos, lit) in rule.body.iter().enumerate() {
                if let Literal::Rel(name, _) = lit {
                    if deltas
                        .get(name)
                        .is_some_and(|d| !d.is_syntactically_empty())
                    {
                        out.push(QeJob {
                            rule_idx: i,
                            formula: rule.body_formula_inner(Some(pos)),
                        });
                    }
                }
            }
        }
        out
    }

    /// True iff restarting the inflationary fixpoint from a saturated
    /// state after *enlarging* the relations in `changed` is guaranteed to
    /// agree with a from-scratch run: the program must be effectively
    /// positive with respect to the change — no negated body literal may
    /// read an intensional relation or a changed one. (Negation over an
    /// untouched base relation is a fixed extent and commutes with the
    /// restart; negation over a growing extent does not, because the
    /// inflationary semantics never retracts a derived tuple.)
    #[must_use]
    pub fn incrementally_maintainable(&self, changed: &BTreeSet<String>) -> bool {
        let idb = self.idb_names();
        self.rules.iter().all(|rule| {
            rule.body.iter().all(|lit| match lit {
                Literal::NegRel(name, _) => !idb.contains(name.as_str()) && !changed.contains(name),
                Literal::Rel(..) | Literal::Constraint(_) => true,
            })
        })
    }

    /// Run the inflationary fixpoint on (a copy of) the database with the
    /// **semi-naive** evaluator. Head relations are created empty if
    /// absent. Returns the saturated database and run statistics.
    ///
    /// Determinism: the round's QE jobs and their merge order are fixed by
    /// the program text.
    pub fn run(
        &self,
        db: &Database,
        ctx: &QeContext,
        max_iterations: usize,
    ) -> Result<(Database, FixpointStats), DatalogError> {
        self.run_semi_naive(db, None, ctx, max_iterations)
    }

    /// Resume the fixpoint **incrementally** after inserting tuples into
    /// base relations of an already-saturated database.
    ///
    /// `db` must hold the *updated* base extents (inserts already applied)
    /// together with the head extents saturated against the pre-update
    /// base; `base_deltas` maps each changed relation to exactly the
    /// inserted tuples. Round 1 then evaluates only delta-bound rule
    /// variants over the changed relations — rules that never read a
    /// changed relation cost nothing — and later rounds proceed exactly as
    /// [`Program::run`].
    ///
    /// Sound only for enlarging updates on programs that are
    /// [`Program::incrementally_maintainable`] for the change set (checked
    /// here; [`DatalogError::NotIncremental`] tells the caller to fall
    /// back to a full recompute — retractions must always take that
    /// path). Under that guard the inflationary fixpoint is a least
    /// fixpoint and monotone in the base, so resuming from the saturated
    /// state converges to the same relations as a from-scratch run; on
    /// finite extents the canonicalized representation is byte-identical
    /// (differential-tested).
    pub fn run_incremental(
        &self,
        db: &Database,
        base_deltas: &BTreeMap<String, ConstraintRelation>,
        ctx: &QeContext,
        max_iterations: usize,
    ) -> Result<(Database, FixpointStats), DatalogError> {
        let changed: BTreeSet<String> = base_deltas.keys().cloned().collect();
        if !self.incrementally_maintainable(&changed) {
            return Err(DatalogError::NotIncremental(format!(
                "negation reads an intensional or changed relation (changed: {})",
                changed.iter().cloned().collect::<Vec<_>>().join(", ")
            )));
        }
        for (name, delta) in base_deltas {
            if name.starts_with(DELTA_PREFIX) {
                return Err(DatalogError::ReservedName(name.clone()));
            }
            match db.get(name) {
                None => {
                    return Err(DatalogError::Arity(format!(
                        "delta for {name}, but the database has no such relation"
                    )));
                }
                Some(rel) if rel.nvars() != delta.nvars() => {
                    return Err(DatalogError::Arity(format!(
                        "delta for {name} has arity {}, relation has {}",
                        delta.nvars(),
                        rel.nvars()
                    )));
                }
                Some(_) => {}
            }
        }
        self.run_semi_naive(db, Some(base_deltas), ctx, max_iterations)
    }

    /// The shared semi-naive loop. `seed = None` is a from-scratch run
    /// (round 1 evaluates every rule against the full extents); `seed =
    /// Some(deltas)` resumes from a saturated state (round 1 evaluates
    /// delta-bound variants over the seeded relations only).
    fn run_semi_naive(
        &self,
        db: &Database,
        seed: Option<&BTreeMap<String, ConstraintRelation>>,
        ctx: &QeContext,
        max_iterations: usize,
    ) -> Result<(Database, FixpointStats), DatalogError> {
        // cdb-lint: allow(determinism) — stats-only timing (see module `use`).
        let t0 = Instant::now();
        let mut db = db.clone();
        self.init_heads(&mut db)?;
        let mut stats = FixpointStats {
            qe_calls_per_rule: vec![0; self.rules.len()],
            ..FixpointStats::default()
        };
        // Tuples derived in the previous round, per head (the delta) —
        // or, when resuming incrementally, the freshly inserted base
        // tuples seeding round 1.
        let mut deltas: BTreeMap<String, ConstraintRelation> = match seed {
            Some(s) => s.clone(),
            None => BTreeMap::new(),
        };
        for it in 1..=max_iterations {
            // cdb-lint: allow(determinism) — stats-only timing (see module `use`).
            let round_t0 = Instant::now();
            stats.iterations = it;
            // A from-scratch round 1 evaluates every rule against the full
            // extents (the delta *is* the initial database); every other
            // round — including an incrementally seeded round 1 — evaluates
            // one variant per (rule, positive literal) pair whose
            // relation's delta is nonempty.
            let jobs: Vec<QeJob> = if it == 1 && seed.is_none() {
                self.rules
                    .iter()
                    .enumerate()
                    .map(|(i, r)| QeJob {
                        rule_idx: i,
                        formula: r.body_formula(),
                    })
                    .collect()
            } else {
                self.delta_jobs(&deltas)
            };
            if jobs.is_empty() {
                // No recursive rule can fire: the extents are saturated.
                stats.per_iteration.push(IterationStats {
                    wall: round_t0.elapsed(),
                    ..IterationStats::default()
                });
                stats.wall = t0.elapsed();
                return Ok((db, stats));
            }
            // Snapshot for this round: base extents plus the previous
            // round's deltas under their reserved names. `Database` clones
            // are shallow (Arc per relation), so this is cheap.
            let eval_db = {
                let mut e = db.clone();
                for (name, d) in &deltas {
                    e.insert(delta_name(name), d.clone());
                }
                e
            };
            let results = jobs
                .iter()
                .map(|job| {
                    evaluate_query(&eval_db, &job.formula, self.rules[job.rule_idx].nvars, ctx)
                })
                .collect::<Result<Vec<_>, QeError>>()?;
            stats.qe_calls += jobs.len();
            for job in &jobs {
                stats.qe_calls_per_rule[job.rule_idx] += 1;
            }
            stats.max_bits_seen = stats.max_bits_seen.max(ctx.max_bits_seen.get());
            // Merge in job order.
            let mut changed = false;
            let mut grown: BTreeMap<String, ConstraintRelation> = BTreeMap::new();
            for (job, out) in jobs.iter().zip(results) {
                let rule = &self.rules[job.rule_idx];
                let derived = project_to_head(rule, &out.relation)?;
                let current = match grown.entry(rule.head.clone()) {
                    std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        let base = db
                            .get(&rule.head)
                            .ok_or_else(|| missing_head(&rule.head))?
                            .clone();
                        slot.insert(base)
                    }
                };
                let (merged, grew) = merge_extent(current, &derived, ctx)?;
                changed |= grew;
                *current = merged;
            }
            // Next round's deltas: the syntactically new tuples per head.
            // Stale deltas (heads untouched this round) drop out — every
            // consumer already ran against them in this round's jobs.
            deltas = BTreeMap::new();
            for (name, g) in &grown {
                let old = db.get(name).ok_or_else(|| missing_head(name))?;
                deltas.insert(name.clone(), g.without_tuples(old.tuples()));
            }
            stats.per_iteration.push(IterationStats {
                qe_calls: jobs.len(),
                delta_tuples: deltas
                    .iter()
                    .map(|(n, d)| (n.clone(), d.tuples().len()))
                    .collect(),
                wall: round_t0.elapsed(),
            });
            // Copy-on-write commit: only the touched heads are replaced.
            for (name, g) in grown {
                db.insert(name, g);
            }
            if !changed {
                stats.wall = t0.elapsed();
                return Ok((db, stats));
            }
        }
        Err(DatalogError::IterationCap(max_iterations))
    }

    /// The reference evaluator: every rule body against the full extents,
    /// sequentially, every round. Semantically equivalent to [`Program::run`]
    /// (property-tested); kept for differential testing.
    pub fn run_naive(
        &self,
        db: &Database,
        ctx: &QeContext,
        max_iterations: usize,
    ) -> Result<(Database, FixpointStats), DatalogError> {
        // cdb-lint: allow(determinism) — stats-only timing (see module `use`).
        let t0 = Instant::now();
        let mut db = db.clone();
        self.init_heads(&mut db)?;
        let heads: BTreeSet<&str> = self.idb_names();
        let mut stats = FixpointStats {
            qe_calls_per_rule: vec![0; self.rules.len()],
            ..FixpointStats::default()
        };
        for it in 1..=max_iterations {
            // cdb-lint: allow(determinism) — stats-only timing (see module `use`).
            let round_t0 = Instant::now();
            stats.iterations = it;
            let mut changed = false;
            let mut next = db.clone();
            for (ri, rule) in self.rules.iter().enumerate() {
                let q = rule.body_formula();
                let out = evaluate_query(&db, &q, rule.nvars, ctx)?;
                stats.qe_calls += 1;
                stats.qe_calls_per_rule[ri] += 1;
                stats.max_bits_seen = stats.max_bits_seen.max(ctx.max_bits_seen.get());
                let derived = project_to_head(rule, &out.relation)?;
                let current = next
                    .get(&rule.head)
                    .ok_or_else(|| missing_head(&rule.head))?;
                let (grown, grew) = merge_extent(current, &derived, ctx)?;
                changed |= grew;
                next.insert(rule.head.clone(), grown);
            }
            let mut delta_tuples = Vec::with_capacity(heads.len());
            for h in &heads {
                let old = db.get(h).ok_or_else(|| missing_head(h))?;
                let new = next.get(h).ok_or_else(|| missing_head(h))?;
                let fresh = new.without_tuples(old.tuples()).tuples().len();
                delta_tuples.push(((*h).to_owned(), fresh));
            }
            stats.per_iteration.push(IterationStats {
                qe_calls: self.rules.len(),
                delta_tuples,
                wall: round_t0.elapsed(),
            });
            db = next;
            if !changed {
                stats.wall = t0.elapsed();
                return Ok((db, stats));
            }
        }
        Err(DatalogError::IterationCap(max_iterations))
    }
}

/// The internal error for a head extent that [`Program::init_heads`] should
/// have created — returned instead of panicking so callers can recover.
fn missing_head(name: &str) -> DatalogError {
    DatalogError::Internal(format!("head extent for {name} not initialized"))
}

/// Project a rule-ring QE answer onto the head's ring.
///
/// Only head variables receive a target column; every other rule variable
/// must have been eliminated by QE. A residual constraint over a
/// quantified-away variable is an error — under the old `vec![0; nvars]`
/// default map it would silently alias head column 0.
fn project_to_head(
    rule: &Rule,
    derived: &ConstraintRelation,
) -> Result<ConstraintRelation, DatalogError> {
    let head_arity = rule.head_vars.len().max(1);
    let mut map: Vec<Option<usize>> = vec![None; rule.nvars];
    for (pos, &v) in rule.head_vars.iter().enumerate() {
        map[v] = Some(pos);
    }
    let mut remap = vec![0usize; rule.nvars];
    for (v, target) in map.iter().enumerate() {
        match target {
            Some(pos) => remap[v] = *pos,
            None => {
                if derived.uses_var(v) {
                    return Err(DatalogError::ResidualVariable {
                        head: rule.head.clone(),
                        var: v,
                    });
                }
                // Unused in `derived`: the 0 entry is never read.
            }
        }
    }
    Ok(derived.remap_vars(&remap, head_arity).simplify())
}

/// Merge one job's `derived` tuples into a head's `current` extent: the
/// merged extent in canonical form (QE may render the same point with
/// differently-ordered atoms, defeating the syntactic dedup and bloating the
/// extent) and whether anything new arrived — the inflationary growth test
/// `derived ⊄ current`.
///
/// Two finite point sets merge as point sets: the sorted, deduplicated
/// union, rebuilt once. That is what `canonicalized` makes of
/// `union → simplify` there (`simplify` has nothing to drop from a point
/// tuple, and its atom order does not survive `canonicalized`), and the
/// set difference is `subset_of` on points. Anything else takes that
/// general path.
fn merge_extent(
    current: &ConstraintRelation,
    derived: &ConstraintRelation,
    ctx: &QeContext,
) -> Result<(ConstraintRelation, bool), QeError> {
    if let (Some(have), Some(new)) = (current.as_finite_points(), derived.as_finite_points()) {
        let mut all: BTreeSet<Vec<Rat>> = have.into_iter().collect();
        let before = all.len();
        all.extend(new);
        let grew = all.len() > before;
        let all: Vec<Vec<Rat>> = all.into_iter().collect();
        return Ok((ConstraintRelation::from_points(current.nvars(), &all), grew));
    }
    let grew = !subset_of(derived, current, ctx)?;
    Ok((current.union(derived).simplify().canonicalized(), grew))
}

/// Tuple-count cap beyond which `subset_of` refuses to De-Morgan-expand
/// `¬b` and falls back to the per-tuple containment loop.
const COMPLEMENT_TUPLE_CAP: usize = 8;

/// Cap on the estimated DNF size of `¬b` (product of per-tuple atom
/// counts) for the same fallback.
const COMPLEMENT_EXPANSION_CAP: usize = 512;

/// Estimated disjunct count of the De Morgan expansion of `¬b`.
fn complement_expansion_estimate(b: &ConstraintRelation) -> usize {
    b.tuples()
        .iter()
        .map(|t| t.atoms().len().max(1))
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX)
}

/// Semantic subset test `a ⊆ b` (two finite point sets never get here —
/// [`merge_extent`] compares those as sets): syntactically subsumed tuples
/// are skipped, and only the remainder goes through QE (`¬∃x̄ (a ∧ ¬b)`).
/// The De Morgan expansion of `¬b` is exponential in b's tuple count, so
/// past [`COMPLEMENT_TUPLE_CAP`] / [`COMPLEMENT_EXPANSION_CAP`] the test
/// falls back to a per-tuple containment loop (sound, conservatively
/// incomplete: a `false` may cost an extra fixpoint round, never a wrong
/// answer).
fn subset_of(
    a: &ConstraintRelation,
    b: &ConstraintRelation,
    ctx: &QeContext,
) -> Result<bool, QeError> {
    if a.is_syntactically_empty() {
        return Ok(true);
    }
    // Fast path: drop tuples of `a` that appear verbatim in `b`.
    let remaining = a.without_tuples(b.tuples());
    if remaining.is_syntactically_empty() {
        return Ok(true);
    }
    if b.tuples().len() > COMPLEMENT_TUPLE_CAP
        || complement_expansion_estimate(b) > COMPLEMENT_EXPANSION_CAP
    {
        // Per-tuple fallback: every remaining tuple must lie inside some
        // single tuple of `b`. Each check negates one conjunction only, so
        // the formulas stay linear in the atom counts.
        'tuples: for ta in remaining.tuples() {
            for tb in b.tuples() {
                if tuple_contained_in(ta, tb, ctx)? {
                    continue 'tuples;
                }
            }
            return Ok(false); // possibly covered only by a union — report ⊄
        }
        return Ok(true);
    }
    let nvars = a.nvars();
    let fa = cdb_constraints::formula::relation_to_formula(&remaining);
    let fb = cdb_constraints::formula::relation_to_formula(b);
    sentence_is_empty(Formula::and(fa, Formula::not(fb)), nvars, ctx)
}

/// Single-tuple containment `ta ⊆ tb`, decided as `¬∃x̄ (ta ∧ ¬tb)`.
fn tuple_contained_in(
    ta: &GeneralizedTuple,
    tb: &GeneralizedTuple,
    ctx: &QeContext,
) -> Result<bool, QeError> {
    if tb.is_top() {
        return Ok(true);
    }
    let nvars = ta.nvars();
    let fa = if ta.is_top() {
        Formula::True
    } else {
        Formula::And(ta.atoms().iter().cloned().map(Formula::Atom).collect())
    };
    let not_tb = Formula::Or(
        tb.atoms()
            .iter()
            .map(|at| Formula::Atom(at.negated()))
            .collect(),
    );
    sentence_is_empty(Formula::and(fa, not_tb), nvars, ctx)
}

/// Close `diff` existentially over all `nvars` variables and decide whether
/// the sentence is false (the set it describes is empty).
fn sentence_is_empty(diff: Formula, nvars: usize, ctx: &QeContext) -> Result<bool, QeError> {
    let mut diff = diff;
    for v in 0..nvars {
        diff = Formula::exists(v, diff);
    }
    let db = Database::new();
    let out = evaluate_query(&db, &diff, nvars, ctx)?;
    // The sentence result is a full or empty relation.
    Ok(out.relation.is_syntactically_empty()
        || !out.relation.satisfied_at(&vec![Rat::zero(); nvars]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::{GeneralizedTuple, RelOp};
    use cdb_num::Rat;
    use cdb_poly::MPoly;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    /// Finite-graph transitive closure: E = {(1,2), (2,3), (3,4)}.
    #[test]
    fn transitive_closure_finite() {
        let mut db = Database::new();
        db.insert(
            "E",
            ConstraintRelation::from_points(
                2,
                &[
                    vec![Rat::from(1i64), Rat::from(2i64)],
                    vec![Rat::from(2i64), Rat::from(3i64)],
                    vec![Rat::from(3i64), Rat::from(4i64)],
                ],
            ),
        );
        // T(x,y) :- E(x,y).  T(x,y) :- T(x,z), E(z,y).
        let program = tc_program();
        let ctx = QeContext::exact();
        let (out, stats) = program.run(&db, &ctx, 16).unwrap();
        let t = out.get("T").unwrap();
        for (a, b, expect) in [
            (1i64, 2i64, true),
            (1, 3, true),
            (1, 4, true),
            (2, 4, true),
            (2, 1, false),
            (1, 1, false),
        ] {
            assert_eq!(
                t.satisfied_at(&[Rat::from(a), Rat::from(b)]),
                expect,
                "T({a},{b})"
            );
        }
        assert!(stats.iterations <= 5);
        assert_eq!(stats.qe_calls_per_rule.len(), 2);
        assert_eq!(stats.per_iteration.len(), stats.iterations);
        // Semi-naive: after round 1, only the recursive rule fires.
        assert_eq!(
            stats.qe_calls_per_rule[0], 1,
            "{:?}",
            stats.qe_calls_per_rule
        );
    }

    /// Regression (panic-surface triage): invalid head variables surface as
    /// `RuleHead` errors instead of panicking — they are reachable from user
    /// input via the text frontend.
    #[test]
    fn rule_new_rejects_bad_head_vars() {
        let err = Rule::new("R", vec![2], vec![], 2).unwrap_err();
        assert!(matches!(err, DatalogError::RuleHead(_)), "{err:?}");
        let err = Rule::new("R", vec![0, 0], vec![], 2).unwrap_err();
        assert!(matches!(err, DatalogError::RuleHead(_)), "{err:?}");
    }

    /// The canonical TC program used by several tests.
    fn tc_program() -> Program {
        Program {
            rules: vec![
                Rule::new(
                    "T",
                    vec![0, 1],
                    vec![Literal::Rel("E".into(), vec![0, 1])],
                    2,
                )
                .unwrap(),
                Rule::new(
                    "T",
                    vec![0, 1],
                    vec![
                        Literal::Rel("T".into(), vec![0, 2]),
                        Literal::Rel("E".into(), vec![2, 1]),
                    ],
                    3,
                )
                .unwrap(),
            ],
        }
    }

    /// Dense-order reachability (Theorem 4.8 flavor): intervals as segment
    /// sets; reach extends the right endpoint through overlapping segments.
    #[test]
    fn dense_order_reachability() {
        // R(x) :- Start(x). R(y) :- R(x), Step(x, y). With Step(x,y) ≡
        // x ≤ y ∧ y ≤ x+1 ∧ y ≤ 3 and Start = {0}: R saturates to [0, 3].
        let n = 2;
        let x = MPoly::var(0, n);
        let y = MPoly::var(1, n);
        let mut db = Database::new();
        db.insert(
            "Start",
            ConstraintRelation::from_points(1, &[vec![Rat::zero()]]),
        );
        db.insert(
            "Step",
            ConstraintRelation::new(
                n,
                vec![GeneralizedTuple::new(
                    n,
                    vec![
                        Atom::cmp(x.clone(), RelOp::Le, y.clone()),
                        Atom::cmp(y.clone(), RelOp::Le, &x + &c(1, n)),
                        Atom::cmp(y, RelOp::Le, c(3, n)),
                    ],
                )],
            ),
        );
        let program = Program {
            rules: vec![
                Rule::new("R", vec![0], vec![Literal::Rel("Start".into(), vec![0])], 1).unwrap(),
                Rule::new(
                    "R",
                    vec![1],
                    vec![
                        Literal::Rel("R".into(), vec![0]),
                        Literal::Rel("Step".into(), vec![0, 1]),
                    ],
                    2,
                )
                .unwrap(),
            ],
        };
        let ctx = QeContext::exact();
        let (out, stats) = program.run(&db, &ctx, 20).unwrap();
        let r = out.get("R").unwrap();
        for (v, expect) in [
            ("0", true),
            ("1/2", true),
            ("2", true),
            ("3", true),
            ("7/2", false),
            ("-1", false),
        ] {
            assert_eq!(r.satisfied_at(&[v.parse().unwrap()]), expect, "R({v})");
        }
        // Saturation in ~4 rounds (step extends reach by 1 per round).
        assert!(stats.iterations <= 8, "iterations {}", stats.iterations);
    }

    /// Inflationary negation: Unmarked(x) :- Domain(x), not Marked(x)
    /// evaluated once against the *initial* Marked extent.
    #[test]
    fn inflationary_negation() {
        let mut db = Database::new();
        db.insert(
            "Domain",
            ConstraintRelation::from_points(
                1,
                &[
                    vec![Rat::one()],
                    vec![Rat::from(2i64)],
                    vec![Rat::from(3i64)],
                ],
            ),
        );
        db.insert(
            "Marked",
            ConstraintRelation::from_points(1, &[vec![Rat::from(2i64)]]),
        );
        let program = Program {
            rules: vec![Rule::new(
                "Unmarked",
                vec![0],
                vec![
                    Literal::Rel("Domain".into(), vec![0]),
                    Literal::NegRel("Marked".into(), vec![0]),
                ],
                1,
            )
            .unwrap()],
        };
        let ctx = QeContext::exact();
        let (out, _) = program.run(&db, &ctx, 8).unwrap();
        let u = out.get("Unmarked").unwrap();
        assert!(u.satisfied_at(&[Rat::one()]));
        assert!(!u.satisfied_at(&[Rat::from(2i64)]));
        assert!(u.satisfied_at(&[Rat::from(3i64)]));
    }

    /// The divergent-doubling program used by the budget tests.
    fn divergent_program() -> (Database, Program) {
        // D(x) :- Init(x).  D(y) :- D(x), Double(x, y) with y = 2x: the
        // extent {1, 2, 4, 8, …} grows forever under exact semantics.
        let n = 2;
        let x = MPoly::var(0, n);
        let y = MPoly::var(1, n);
        let mut db = Database::new();
        db.insert(
            "Init",
            ConstraintRelation::from_points(1, &[vec![Rat::one()]]),
        );
        db.insert(
            "Double",
            ConstraintRelation::new(
                n,
                vec![GeneralizedTuple::new(
                    n,
                    vec![Atom::cmp(y, RelOp::Eq, x.scale(&Rat::from(2i64)))],
                )],
            ),
        );
        let program = Program {
            rules: vec![
                Rule::new("D", vec![0], vec![Literal::Rel("Init".into(), vec![0])], 1).unwrap(),
                Rule::new(
                    "D",
                    vec![1],
                    vec![
                        Literal::Rel("D".into(), vec![0]),
                        Literal::Rel("Double".into(), vec![0, 1]),
                    ],
                    2,
                )
                .unwrap(),
            ],
        };
        (db, program)
    }

    /// Finite precision: a program whose derived constants grow without
    /// bound is cut off by the bit budget (Theorem 4.7's guarantee that
    /// `Datalog¬_F` cannot run forever).
    #[test]
    fn budget_bounds_divergent_program() {
        let (db, program) = divergent_program();
        // Exact semantics: hits the iteration cap.
        let ctx = QeContext::exact();
        let err = program.run(&db, &ctx, 6).unwrap_err();
        assert!(matches!(err, DatalogError::IterationCap(6)));
        // Finite precision: undefined once the doubling exceeds the budget.
        let fp = QeContext::with_budget(8);
        let err2 = program.run(&db, &fp, 64).unwrap_err();
        assert!(
            matches!(err2, DatalogError::Qe(QeError::PrecisionExceeded { .. })),
            "{err2:?}"
        );
    }

    /// Fixpoint over already-saturated input terminates in one pass.
    #[test]
    fn immediate_fixpoint() {
        let mut db = Database::new();
        db.insert(
            "P",
            ConstraintRelation::from_points(1, &[vec![Rat::zero()]]),
        );
        let program = Program {
            rules: vec![
                Rule::new("P", vec![0], vec![Literal::Rel("P".into(), vec![0])], 1).unwrap(),
            ],
        };
        let ctx = QeContext::exact();
        let (_, stats) = program.run(&db, &ctx, 8).unwrap();
        assert_eq!(stats.iterations, 1);
    }

    /// Satellite-1 regression: a residual constraint over a quantified-away
    /// variable must be rejected — under the old `vec![0; nvars]` default
    /// map it silently aliased head column 0.
    #[test]
    fn projection_rejects_residual_variable() {
        let n = 2;
        let rule = Rule::new("T", vec![0], vec![], n).unwrap();
        let leaky = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(
                n,
                vec![Atom::cmp(MPoly::var(1, n), RelOp::Eq, c(7, n))],
            )],
        );
        let err = project_to_head(&rule, &leaky).unwrap_err();
        assert!(
            matches!(&err, DatalogError::ResidualVariable { head, var: 1 } if head == "T"),
            "{err:?}"
        );
        // A clean answer over the head variable alone projects fine.
        let clean = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(
                n,
                vec![Atom::cmp(MPoly::var(0, n), RelOp::Eq, c(7, n))],
            )],
        );
        let projected = project_to_head(&rule, &clean).unwrap();
        assert_eq!(projected.nvars(), 1);
        assert!(projected.satisfied_at(&[Rat::from(7i64)]));
        assert!(!projected.satisfied_at(&[Rat::from(8i64)]));
    }

    /// Satellite-2 regression: a many-disjunct right-hand side must not be
    /// De-Morgan-expanded (2^n blowup); the per-tuple fallback still
    /// answers correctly in both directions.
    #[test]
    fn subset_cap_many_disjunct_extent() {
        let n = 1;
        let x = || MPoly::var(0, 1);
        // b = {0, …, 19} ∪ [100, ∞): 21 disjuncts, far over the tuple cap.
        let mut tuples: Vec<GeneralizedTuple> = (0..20)
            .map(|i| GeneralizedTuple::point(&[Rat::from(i as i64)]))
            .collect();
        tuples.push(GeneralizedTuple::new(
            n,
            vec![Atom::cmp(x(), RelOp::Ge, c(100, n))],
        ));
        let b = ConstraintRelation::new(n, tuples);
        assert!(b.tuples().len() > COMPLEMENT_TUPLE_CAP);
        let interval = |lo: i64, hi: i64| {
            ConstraintRelation::new(
                n,
                vec![GeneralizedTuple::new(
                    n,
                    vec![
                        Atom::cmp(x(), RelOp::Ge, c(lo, n)),
                        Atom::cmp(x(), RelOp::Le, c(hi, n)),
                    ],
                )],
            )
        };
        let ctx = QeContext::exact().with_workers(1);
        // Point 5 (written as a two-sided inequality, so no verbatim match)
        // lies inside the b-disjunct x = 5.
        assert!(subset_of(&interval(5, 5), &b, &ctx).unwrap());
        // Point 50 is outside every disjunct.
        assert!(!subset_of(&interval(50, 50), &b, &ctx).unwrap());
        // [150, 160] sits inside the unbounded tail disjunct.
        assert!(subset_of(&interval(150, 160), &b, &ctx).unwrap());
    }

    /// `merge_extent` against the four passes it replaced — `subset_of` with
    /// its linear point scan, `union → simplify → canonicalized`, and the
    /// round's `Vec::contains` delta — on finite, mixed and non-finite
    /// extents, including a head snapshot that is not yet in canonical form.
    #[test]
    fn merge_extent_matches_the_passes_it_replaced() {
        let n = 1;
        let x = || MPoly::var(0, 1);
        let pts = |vs: &[i64]| {
            let ps: Vec<Vec<Rat>> = vs.iter().map(|&v| vec![Rat::from(v)]).collect();
            ConstraintRelation::from_points(n, &ps)
        };
        let interval = |lo: i64, hi: i64| {
            GeneralizedTuple::new(
                n,
                vec![
                    Atom::cmp(x(), RelOp::Ge, c(lo, n)),
                    Atom::cmp(x(), RelOp::Le, c(hi, n)),
                ],
            )
        };
        // {3, 1, 1} with the first point written `2x − 6 = 0`: unsorted,
        // repeated and unscaled, as a user-supplied head extent can be.
        let raw_points = ConstraintRelation::new(
            n,
            vec![
                GeneralizedTuple::new(
                    n,
                    vec![Atom::new(
                        (&x() - &c(3, n)).scale(&Rat::from(2i64)),
                        RelOp::Eq,
                    )],
                ),
                GeneralizedTuple::point(&[Rat::one()]),
                GeneralizedTuple::point(&[Rat::one()]),
            ],
        );
        let band = ConstraintRelation::new(n, vec![interval(0, 2)]);
        let mixed = pts(&[7]).union(&band);
        let cases = [
            (pts(&[]), pts(&[])),
            (pts(&[]), pts(&[2, 1, 2])),
            (pts(&[1, 2, 5]), pts(&[])),
            (pts(&[1, 2, 5]), pts(&[2, 5])),
            (pts(&[1, 2, 5]), pts(&[4, 2, 0])),
            (raw_points.clone(), pts(&[1, 3])),
            (raw_points.clone(), pts(&[2])),
            (raw_points, band.clone()),
            (pts(&[1, 9]), band.clone()),
            (band.clone(), pts(&[1, 9])),
            (
                band.clone(),
                ConstraintRelation::new(n, vec![interval(1, 2)]),
            ),
            (band, ConstraintRelation::new(n, vec![interval(1, 3)])),
            (mixed.clone(), pts(&[7, 1])),
            (mixed, ConstraintRelation::full(n)),
        ];
        let ctx = QeContext::exact().with_workers(1);
        for (current, derived) in &cases {
            let grew = match (current.as_finite_points(), derived.as_finite_points()) {
                (Some(pc), Some(pd)) => !pd.iter().all(|p| pc.contains(p)),
                _ => !subset_of(derived, current, &ctx).unwrap(),
            };
            let merged = current.union(derived).simplify().canonicalized();
            let fresh: Vec<GeneralizedTuple> = merged
                .tuples()
                .iter()
                .filter(|t| !current.tuples().contains(t))
                .cloned()
                .collect();
            let got = merge_extent(current, derived, &ctx).unwrap();
            assert_eq!(got, (merged, grew), "{current} + {derived}");
            assert_eq!(
                got.0.without_tuples(current.tuples()).tuples(),
                fresh,
                "delta of {current} + {derived}"
            );
        }
    }

    /// Differential check: the semi-naive evaluator agrees with the naive
    /// reference on TC and issues strictly fewer QE calls.
    #[test]
    fn semi_naive_matches_naive_with_fewer_qe_calls() {
        let mut db = Database::new();
        db.insert(
            "E",
            ConstraintRelation::from_points(
                2,
                &[
                    vec![Rat::from(1i64), Rat::from(2i64)],
                    vec![Rat::from(2i64), Rat::from(3i64)],
                    vec![Rat::from(3i64), Rat::from(4i64)],
                    vec![Rat::from(4i64), Rat::from(1i64)], // cycle
                ],
            ),
        );
        let program = tc_program();
        let ctx = QeContext::exact();
        let (naive, naive_stats) = program.run_naive(&db, &ctx, 32).unwrap();
        let (semi, semi_stats) = program.run(&db, &ctx, 32).unwrap();
        let t1 = semi.get("T").unwrap();
        // Semantic agreement with the reference evaluator on the node grid.
        let tn = naive.get("T").unwrap();
        for a in 1..=4i64 {
            for b in 1..=4i64 {
                let p = [Rat::from(a), Rat::from(b)];
                assert_eq!(tn.satisfied_at(&p), t1.satisfied_at(&p), "T({a},{b})");
            }
        }
        assert!(
            semi_stats.qe_calls < naive_stats.qe_calls,
            "semi-naive {} vs naive {}",
            semi_stats.qe_calls,
            naive_stats.qe_calls
        );
    }

    /// Input relations under the reserved delta prefix are rejected.
    #[test]
    fn reserved_delta_prefix_rejected() {
        let mut db = Database::new();
        db.insert(
            format!("{DELTA_PREFIX}E"),
            ConstraintRelation::from_points(1, &[vec![Rat::zero()]]),
        );
        let program = Program {
            rules: vec![
                Rule::new("P", vec![0], vec![Literal::Rel("P".into(), vec![0])], 1).unwrap(),
            ],
        };
        let ctx = QeContext::exact();
        let err = program.run(&db, &ctx, 4).unwrap_err();
        assert!(matches!(err, DatalogError::ReservedName(_)), "{err:?}");
    }

    fn edge_rel(edges: &[(i64, i64)]) -> ConstraintRelation {
        let pts: Vec<Vec<Rat>> = edges
            .iter()
            .map(|&(a, b)| vec![Rat::from(a), Rat::from(b)])
            .collect();
        ConstraintRelation::from_points(2, &pts)
    }

    /// Inserting edges into a saturated TC and resuming incrementally
    /// must print byte-identically to a from-scratch run on the updated
    /// base while issuing fewer QE calls.
    #[test]
    fn incremental_insert_matches_from_scratch() {
        let program = tc_program();
        let ctx = QeContext::exact();
        let mut db = Database::new();
        db.insert("E", edge_rel(&[(1, 2), (2, 3), (3, 4)]));
        let (saturated, _) = program.run(&db, &ctx, 32).unwrap();

        // Apply the insert the way the update path does: union the
        // delta into the base extent, canonicalized.
        let delta = edge_rel(&[(4, 5), (5, 6)]);
        let mut updated = saturated.clone();
        let merged = updated.get("E").unwrap().union(&delta).canonicalized();
        updated.insert("E", merged.clone());

        let mut base_deltas = BTreeMap::new();
        base_deltas.insert("E".to_owned(), delta);
        let (inc, inc_stats) = program
            .run_incremental(&updated, &base_deltas, &ctx, 32)
            .unwrap();

        // From scratch on the updated base only.
        let mut fresh = Database::new();
        fresh.insert("E", merged);
        let (scratch, scratch_stats) = program.run(&fresh, &ctx, 32).unwrap();

        let names = ["x", "y"];
        for rel in ["E", "T"] {
            assert_eq!(
                inc.get(rel).unwrap().display_with(&names),
                scratch.get(rel).unwrap().display_with(&names),
                "{rel} diverged"
            );
        }
        assert!(
            inc_stats.qe_calls < scratch_stats.qe_calls,
            "incremental {} vs scratch {} QE calls",
            inc_stats.qe_calls,
            scratch_stats.qe_calls
        );
    }

    /// A no-op change set (empty delta) is a fixpoint already: zero
    /// iterations of useful work, database returned unchanged.
    #[test]
    fn incremental_empty_delta_is_noop() {
        let program = tc_program();
        let ctx = QeContext::exact();
        let mut db = Database::new();
        db.insert("E", edge_rel(&[(1, 2), (2, 3)]));
        let (saturated, _) = program.run(&db, &ctx, 32).unwrap();
        let mut base_deltas = BTreeMap::new();
        base_deltas.insert("E".to_owned(), ConstraintRelation::empty(2));
        let (out, stats) = program
            .run_incremental(&saturated, &base_deltas, &ctx, 32)
            .unwrap();
        assert_eq!(stats.qe_calls, 0);
        let names = ["x", "y"];
        assert_eq!(
            out.get("T").unwrap().display_with(&names),
            saturated.get("T").unwrap().display_with(&names)
        );
    }

    /// Negation over a changed relation (or any intensional relation)
    /// cannot be resumed inflationarily; the evaluator must refuse rather
    /// than silently return a state a from-scratch run would not reach.
    #[test]
    fn incremental_refuses_negation_over_change() {
        // U(x) :- V(x), ¬E(x, x) — negation reads E.
        let program = Program {
            rules: vec![Rule::new(
                "U",
                vec![0],
                vec![
                    Literal::Rel("V".into(), vec![0]),
                    Literal::NegRel("E".into(), vec![0, 0]),
                ],
                1,
            )
            .unwrap()],
        };
        let mut changed = BTreeSet::new();
        changed.insert("E".to_owned());
        assert!(!program.incrementally_maintainable(&changed));
        let mut other = BTreeSet::new();
        other.insert("V".to_owned());
        assert!(program.incrementally_maintainable(&other));

        let mut db = Database::new();
        db.insert("V", ConstraintRelation::from_points(1, &[vec![Rat::one()]]));
        db.insert("E", edge_rel(&[(1, 1)]));
        let mut base_deltas = BTreeMap::new();
        base_deltas.insert("E".to_owned(), edge_rel(&[(2, 2)]));
        let ctx = QeContext::exact();
        let err = program
            .run_incremental(&db, &base_deltas, &ctx, 8)
            .unwrap_err();
        assert!(matches!(err, DatalogError::NotIncremental(_)), "{err:?}");
    }

    /// Deltas over unknown relations or with the wrong arity are rejected
    /// with a clear error instead of evaluating against garbage.
    #[test]
    fn incremental_validates_deltas() {
        let program = tc_program();
        let ctx = QeContext::exact();
        let mut db = Database::new();
        db.insert("E", edge_rel(&[(1, 2)]));
        let (saturated, _) = program.run(&db, &ctx, 32).unwrap();

        let mut missing = BTreeMap::new();
        missing.insert(
            "Q".to_owned(),
            ConstraintRelation::from_points(1, &[vec![Rat::one()]]),
        );
        assert!(matches!(
            program.run_incremental(&saturated, &missing, &ctx, 8),
            Err(DatalogError::Arity(_))
        ));

        let mut wrong = BTreeMap::new();
        wrong.insert(
            "E".to_owned(),
            ConstraintRelation::from_points(1, &[vec![Rat::one()]]),
        );
        assert!(matches!(
            program.run_incremental(&saturated, &wrong, &ctx, 8),
            Err(DatalogError::Arity(_))
        ));

        let mut reserved = BTreeMap::new();
        reserved.insert(format!("{DELTA_PREFIX}E"), edge_rel(&[(1, 2)]));
        assert!(matches!(
            program.run_incremental(&saturated, &reserved, &ctx, 8),
            Err(DatalogError::ReservedName(_))
        ));
    }
}
