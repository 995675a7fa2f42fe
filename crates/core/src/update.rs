//! Updates, the registry of derived relations, and incremental view
//! maintenance.
//!
//! Every derived relation has exactly one owner in the registry
//! (`ConstraintDb::derived`): a `Derivation` that is either a
//! [`ConstraintDb::define`]d view or a Datalog¬ program materialized by
//! [`ConstraintDb::run_datalog`]. Registering a derivation drops every
//! derivation that owned one of its outputs; [`ConstraintDb::insert`] over
//! a derived relation makes it a base relation; [`ConstraintDb::remove`]
//! drops the owner of the removed relation and every derivation that reads
//! it (those keep their extents as base relations).
//!
//! [`ConstraintDb::insert_tuples`] and [`ConstraintDb::retract_tuples`]
//! change a named base relation in place and produce an explicit
//! per-relation delta. The facade then *propagates* the change instead of
//! recomputing the world: one scheduler collects every derivation that
//! transitively reads the changed relation and runs each exactly once, a
//! derivation after every pending one that produces a relation it reads
//! (ties and cycles break by registration order) —
//!
//! * **incrementally**, when every changed input of a program enlarged:
//!   the deltas re-enter the semi-naive evaluator
//!   ([`Program::run_incremental`]) so only delta-bound rule variants pay
//!   QE calls; when the evaluator answers [`DatalogError::NotIncremental`]
//!   (negation over an intensional or changed relation) the program
//!   restarts as below;
//! * **by recompute**, for retractions, replacements and redefinitions
//!   (views recompile from their source over their own variables; programs
//!   restart from their pre-materialization head snapshots), with the shared
//!   [`cdb_qe::AlgebraicCache`] invalidated first. Its entries are pure
//!   functions of their polynomial keys and cannot go stale
//!   (`tests/update_path.rs` pins warm ≡ cold), so the wipe is never
//!   needed; it stays only while the frozen benchmark asserts its counter
//!   ([`UpdateReport::cache_invalidated`]).
//!
//! Every write is **all or nothing** ([`ConstraintDb::atomically`]): the
//! base change and its whole propagation run on a copy-on-write copy that
//! replaces the database only when every dependent refreshed; when one
//! fails (an iteration cap, a bit budget) the caller gets the error and the
//! database is exactly as it was.
//!
//! On finite extents the propagated state is byte-identical to a
//! from-scratch evaluation of the updated database (differential-tested
//! across worker counts); on infinite extents it is semantically equal.

use crate::facade::{ConstraintDb, DbError};
use cdb_calcf::CalcFEngine;
use cdb_constraints::{ConstraintRelation, Database, GeneralizedTuple, TupleSet};
use cdb_datalog::{DatalogError, Program};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// The one definition of one or more derived relations, kept to refresh
/// them when a relation they read changes.
#[derive(Debug, Clone)]
pub(crate) enum Derivation {
    /// A `define`d view: `src` compiled over `vars`, the variables it was
    /// defined over (renaming the relation's variables leaves them alone).
    View {
        name: String,
        vars: Vec<String>,
        src: String,
        reads: BTreeSet<String>,
    },
    /// A Datalog¬ program whose heads are materialized.
    Program {
        program: Program,
        max_iterations: usize,
        /// Head extents as they were *before* the program first ran
        /// (`None` = the head did not exist). Full recomputes restart from
        /// these: the inflationary semantics never shrinks an extent, so
        /// restarting from the saturated state would fossilize retracted
        /// derivations.
        base_heads: BTreeMap<String, Option<ConstraintRelation>>,
    },
}

impl Derivation {
    /// The relations this derivation writes.
    pub(crate) fn outputs(&self) -> BTreeSet<String> {
        match self {
            Derivation::View { name, .. } => BTreeSet::from([name.clone()]),
            Derivation::Program { program, .. } => program.head_names(),
        }
    }

    /// The relations its definition reads, other than its own outputs: a
    /// change to one of these makes it stale.
    pub(crate) fn reads(&self) -> BTreeSet<String> {
        let mut reads = match self {
            Derivation::View { reads, .. } => reads.clone(),
            Derivation::Program { program, .. } => program.read_names(),
        };
        let outputs = self.outputs();
        reads.retain(|r| !outputs.contains(r));
        reads
    }

    /// Recompute the outputs in `db` after the inputs changed as `arrived`
    /// records. `Some(incremental)` for a program: whether it resumed from
    /// its saturated state.
    fn recompute(
        &self,
        db: &mut Database,
        engine: &CalcFEngine,
        arrived: &BTreeMap<String, Change>,
    ) -> Result<Option<bool>, DbError> {
        let (program, max_iterations, base_heads) = match self {
            Derivation::View {
                name, vars, src, ..
            } => {
                let refs: Vec<&str> = vars.iter().map(String::as_str).collect();
                let rel = engine.compile_relation(db, &refs, src)?;
                db.insert(name, rel.canonicalized());
                return Ok(None);
            }
            Derivation::Program {
                program,
                max_iterations,
                base_heads,
            } => (program, *max_iterations, base_heads),
        };
        let ctx = engine.qe_context(engine.budget_bits);
        let reads = self.reads();
        let mut deltas = BTreeMap::new();
        let mut all_enlarging = true;
        for (name, change) in arrived.iter().filter(|(name, _)| reads.contains(*name)) {
            match change {
                Change::Enlarge(delta) => {
                    deltas.insert(name.clone(), delta.clone());
                }
                Change::Destructive => all_enlarging = false,
            }
        }
        if all_enlarging {
            match program.run_incremental(db, &deltas, &ctx, max_iterations) {
                Ok((saturated, _stats)) => {
                    *db = saturated;
                    return Ok(Some(true));
                }
                Err(DatalogError::NotIncremental(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Full recompute: restart the heads from their
        // pre-materialization snapshots, then saturate.
        for (head, snapshot) in base_heads {
            match snapshot {
                Some(rel) => db.insert(head.clone(), rel.clone()),
                None => {
                    db.remove(head);
                }
            }
        }
        let (saturated, _stats) = program.run(db, &ctx, max_iterations)?;
        *db = saturated;
        Ok(Some(false))
    }
}

/// What an update did: the direct change, plus every derived relation the
/// propagation refreshed and how.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// The relation updated.
    pub relation: String,
    /// Tuples actually added (syntactic duplicates are skipped).
    pub inserted: usize,
    /// Tuples actually removed (absent tuples are skipped).
    pub retracted: usize,
    /// `define`d views recompiled, in processing order: dependency order,
    /// and registration order between views that do not depend on each
    /// other.
    pub refreshed_views: Vec<String>,
    /// Materialized heads refreshed, in processing order.
    pub refreshed_heads: Vec<String>,
    /// Programs re-run through the incremental delta path.
    pub incremental_reruns: usize,
    /// Programs re-run from scratch (restored head snapshots).
    pub full_reruns: usize,
    /// Whether the shared memo-cache was invalidated (destructive path).
    /// The wipe buys nothing — entries are pure and cannot go stale — and
    /// goes together with this field once the frozen benchmark stops
    /// asserting `core.cache_invalidations > 0` (`stmtbench/tests/harness.rs`;
    /// the ROADMAP's unfreeze ledger).
    // frozen harness: `stmtbench` counts it as `core.cache_invalidations`.
    pub cache_invalidated: bool,
}

/// The incoming tuples of an update as the store would hold them: arity
/// checked, point tuples in the canonical point form stored finite extents
/// are kept in — so `VALUES (1/2)` and `CONSTRAINT 2*x = 1` name the same
/// stored tuple — everything else as given.
fn stored_form(
    name: &str,
    arity: usize,
    tuples: &[GeneralizedTuple],
) -> Result<Vec<GeneralizedTuple>, DbError> {
    tuples
        .iter()
        .map(|t| {
            if t.nvars() == arity {
                Ok(t.clone().canonicalized())
            } else {
                Err(DbError::ArityMismatch {
                    name: name.to_owned(),
                    existing: arity,
                    requested: t.nvars(),
                })
            }
        })
        .collect()
}

/// How a relation changed, as seen by downstream consumers.
#[derive(Debug, Clone)]
pub(crate) enum Change {
    /// The relation grew by exactly this delta — eligible for incremental
    /// maintenance.
    Enlarge(ConstraintRelation),
    /// Arbitrary change (retraction, replacement, redefinition, or a
    /// refreshed derived relation with no tracked delta) — consumers must
    /// recompute.
    Destructive,
}

impl ConstraintDb {
    /// Run `write` on a copy of the database (relation storage is
    /// copy-on-write, so the copy is shallow) and commit the copy only if
    /// `write` succeeds; on `Err` this database is exactly as it was. Every
    /// facade write that can fail after its first mutation goes through
    /// here, and a caller with several writes to commit together (the
    /// server's `CREATE RELATION`) can too.
    pub fn atomically<T, E>(
        &mut self,
        write: impl FnOnce(&mut ConstraintDb) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut next = self.clone();
        let out = write(&mut next)?;
        *self = next;
        Ok(out)
    }

    /// Insert generalized tuples into the named base relation, propagating
    /// the delta to every derived relation that reads it. Tuples already
    /// present (syntactically, in stored form) are skipped; an empty
    /// effective delta is a no-op. The relation must exist ([`DbError::Schema`]) with matching
    /// arity ([`DbError::ArityMismatch`]), and must not itself be derived
    /// (update its base relations, or redefine it, instead).
    pub fn insert_tuples(
        &mut self,
        name: &str,
        tuples: &[GeneralizedTuple],
    ) -> Result<UpdateReport, DbError> {
        let (arity, fresh) = {
            let rel = self.updatable_relation(name)?;
            let arity = rel.nvars();
            let incoming = stored_form(name, arity, tuples)?;
            let stored = TupleSet::from_slice(rel.tuples());
            let mut fresh = TupleSet::default();
            for t in incoming {
                if !stored.contains(&t) {
                    fresh.insert(Cow::Owned(t));
                }
            }
            (arity, fresh.into_tuples())
        };
        let mut report = UpdateReport {
            relation: name.to_owned(),
            inserted: fresh.len(),
            ..UpdateReport::default()
        };
        if fresh.is_empty() {
            return Ok(report);
        }
        let delta = ConstraintRelation::new(arity, fresh);
        let merged = self.updatable_relation(name)?.union(&delta).canonicalized();
        self.atomically(|next| {
            next.db.insert(name, merged);
            next.propagate(
                BTreeMap::from([(name.to_owned(), Change::Enlarge(delta))]),
                &mut report,
            )
        })?;
        Ok(report)
    }

    /// Retract generalized tuples from the named base relation
    /// (syntactic-equality deletion in stored form — exact point deletion on
    /// canonical finite relations), propagating to every derived relation that reads
    /// it. Retraction is always the destructive path: dependents are
    /// recomputed from scratch and the memo-cache is invalidated.
    pub fn retract_tuples(
        &mut self,
        name: &str,
        tuples: &[GeneralizedTuple],
    ) -> Result<UpdateReport, DbError> {
        let shrunk = {
            let rel = self.updatable_relation(name)?;
            let shrunk = rel.without_tuples(&stored_form(name, rel.nvars(), tuples)?);
            if shrunk.tuples().len() == rel.tuples().len() {
                None
            } else {
                Some((rel.tuples().len() - shrunk.tuples().len(), shrunk))
            }
        };
        let mut report = UpdateReport {
            relation: name.to_owned(),
            ..UpdateReport::default()
        };
        let Some((removed, shrunk)) = shrunk else {
            return Ok(report);
        };
        report.retracted = removed;
        self.atomically(|next| {
            next.db.insert(name, shrunk.canonicalized());
            next.propagate(
                BTreeMap::from([(name.to_owned(), Change::Destructive)]),
                &mut report,
            )
        })?;
        Ok(report)
    }

    /// The stored relation `name`, rejecting updates to derived relations.
    fn updatable_relation(&self, name: &str) -> Result<&ConstraintRelation, DbError> {
        if self.derived.iter().any(|d| d.outputs().contains(name)) {
            return Err(DbError::Schema(format!(
                "{name} is a derived relation (view or materialized head); \
                 update the relations it reads, or redefine it"
            )));
        }
        self.db
            .get(name)
            .ok_or_else(|| DbError::Schema(format!("no relation named {name}")))
    }

    /// Make `derivation` the one owner of its outputs: drop every
    /// derivation that owns one of them, then register it last.
    pub(crate) fn register(&mut self, derivation: Derivation) {
        self.disown(&derivation.outputs());
        self.derived.push(derivation);
    }

    /// Drop every derivation that owns one of `names`: their outputs become
    /// base relations with their current extents.
    pub(crate) fn disown(&mut self, names: &BTreeSet<String>) {
        self.derived.retain(|d| d.outputs().is_disjoint(names));
    }

    /// Propagate the `changes` of some relations to every derivation that
    /// transitively reads them, each refreshed exactly once: first collect
    /// the derivations the change reaches, then run them in order — a
    /// derivation after every pending one that produces a relation it
    /// reads, ties and cycles broken by registration order. A destructive
    /// change invalidates the shared memo-cache first. Mutates in place:
    /// callers run it inside [`ConstraintDb::atomically`].
    pub(crate) fn propagate(
        &mut self,
        mut arrived: BTreeMap<String, Change>,
        report: &mut UpdateReport,
    ) -> Result<(), DbError> {
        if arrived.values().any(|c| matches!(c, Change::Destructive)) {
            // frozen harness: a pure cache needs no wipe.
            self.engine.cache.invalidate();
            report.cache_invalidated = true;
        }
        let mut dirty: BTreeSet<String> = arrived.keys().cloned().collect();
        let mut reached = vec![false; self.derived.len()];
        let mut grew = true;
        while grew {
            grew = false;
            for (d, reached) in self.derived.iter().zip(&mut reached) {
                if !*reached && !d.reads().is_disjoint(&dirty) {
                    *reached = true;
                    dirty.extend(d.outputs());
                    grew = true;
                }
            }
        }
        let mut pending: Vec<&Derivation> = (self.derived.iter().zip(reached))
            .filter_map(|(d, reached)| reached.then_some(d))
            .collect();
        while !pending.is_empty() {
            let produced: BTreeSet<String> = pending.iter().flat_map(|d| d.outputs()).collect();
            let next = pending
                .iter()
                .position(|d| d.reads().is_disjoint(&produced))
                .unwrap_or(0);
            let derivation = pending.remove(next);
            let outputs = derivation.outputs();
            match derivation.recompute(&mut self.db, &self.engine, &arrived)? {
                None => report.refreshed_views.extend(outputs.iter().cloned()),
                Some(incremental) => {
                    if incremental {
                        report.incremental_reruns += 1;
                    } else {
                        report.full_reruns += 1;
                        if !report.cache_invalidated {
                            // frozen harness: a pure cache needs no wipe.
                            self.engine.cache.invalidate();
                            report.cache_invalidated = true;
                        }
                    }
                    report.refreshed_heads.extend(outputs.iter().cloned());
                }
            }
            arrived.extend(outputs.into_iter().map(|o| (o, Change::Destructive)));
        }
        Ok(())
    }
}
