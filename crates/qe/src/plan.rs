//! Per-disjunct cost-based planning for quantifier elimination
//! (DESIGN.md §16) — the single entry point the pipeline routes through.
//!
//! The paper's pipeline picks one engine for the *whole* matrix: FM if
//! every disjunct is linear, CAD otherwise — so a single curved atom drags
//! an otherwise-linear relation into the most expensive algorithm. But `∃`
//! distributes over the DNF disjuncts, so each disjunct can be classified
//! independently, per variable, into the cheapest applicable eliminator:
//!
//! | rank | strategy | applies when (per disjunct, target `v`) |
//! |------|----------|------------------------------------------|
//! | 0 | substitution | an `=` atom linear in `v` with constant coefficient |
//! | 1 | Fourier–Motzkin | every atom using `v` is linear in `v` (constant coefficient) |
//! | 2 | quadratic ([`crate::quad1`]) | degree ≤ 2 in `v`, constant lead, ≤ 1 quadratic atom |
//! | 3 | CAD fallback | everything else |
//!
//! Within a run of identical quantifiers (adjacent `∃∃` / `∀∀` commute) the
//! planner also picks the elimination *order*: cheapest strategy rank
//! first, fewest atom occurrences as the tie-break, innermost position
//! last — substituting a pinned variable first can collapse a disjunct
//! that would otherwise need CAD.
//!
//! Disjuncts are eliminated one after another on the calling thread: a
//! typical disjunct costs microseconds, less than a thread spawn (DESIGN.md
//! §6), so the only fan-out under a query is CAD lifting inside a disjunct
//! that falls back to CAD. `∀` runs go through `¬∃¬` when the relation is
//! linear; nonlinear `∀` keeps the pre-planner whole-relation CAD.
//!
//! The table is the only policy: each eliminator is reached only through
//! [`classify`], so it may assume the cheaper rows did not apply (FM sees
//! no linear equality, the quadratic shortcut sees a degree-2 atom and no
//! linear equality). An input outside its class is reported as
//! [`QeError::Unsupported`], never silently rerouted.

use crate::cad;
use crate::linear;
use crate::quad1;
use crate::{QeContext, QeError};
use cdb_constraints::formula::relation_to_formula;
use cdb_constraints::{Atom, ConstraintRelation, Formula, GeneralizedTuple, Quantifier, RelOp};
use cdb_num::{Rat, Sign};
use cdb_poly::{MPoly, Terms};
// cdb-lint: allow(determinism) — wall-clock readings feed only the
// per-strategy PlanStats diagnostics; no result-producing decision reads
// them.
use std::time::Instant;

/// The eliminator chosen for one (disjunct, variable) step, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strategy {
    /// Linear-equality substitution — no case splits at all.
    Subst,
    /// Fourier–Motzkin bound pairing (atoms not using the variable pass
    /// through at any degree).
    Fm,
    /// Quadratic root-interval elimination ([`crate::quad1`]).
    Quad,
    /// Per-disjunct cylindrical algebraic decomposition.
    Cad,
}

fn rank(s: Strategy) -> u8 {
    match s {
        Strategy::Subst => 0,
        Strategy::Fm => 1,
        Strategy::Quad => 2,
        Strategy::Cad => 3,
    }
}

/// Index and coefficient of an `=` atom linear in `var` with a constant
/// (nonzero) coefficient, if any — the substitution eliminator's anchor.
fn find_subst_atom(tuple: &GeneralizedTuple, var: usize) -> Option<(usize, Rat)> {
    tuple.atoms().iter().enumerate().find_map(|(i, a)| {
        if a.op == RelOp::Eq && a.poly.degree_in(var) == 1 {
            Some((i, a.poly.lead_coeff_in(var)?))
        } else {
            None
        }
    })
}

/// True iff Fourier–Motzkin can eliminate `var`: every atom *using* `var`
/// is linear in it with a constant coefficient. Atoms not using `var` pass
/// through regardless of their degree (the interval-intersection argument
/// never touches them), which is what lets FM handle disjuncts the
/// whole-matrix `is_linear` test would have sent to CAD.
fn fm_applicable(tuple: &GeneralizedTuple, var: usize) -> bool {
    tuple.atoms().iter().all(|a| {
        a.poly.degree_in(var) == 0
            || (a.poly.degree_in(var) == 1 && a.poly.lead_coeff_in(var).is_some())
    })
}

/// Classify one disjunct for eliminating `∃ var`: the cheapest applicable
/// strategy in the table above.
#[must_use]
pub fn classify(tuple: &GeneralizedTuple, var: usize) -> Strategy {
    if find_subst_atom(tuple, var).is_some() {
        Strategy::Subst
    } else if fm_applicable(tuple, var) {
        Strategy::Fm
    } else if quad1::applicable(tuple, var) {
        Strategy::Quad
    } else {
        Strategy::Cad
    }
}

/// Substitution eliminator: `c·v + r = 0` pins `v = −r/c`; Horner-evaluate
/// every other atom at the pinned value (sound at any degree — this is how
/// a linear equality rescues an otherwise-CAD disjunct). Returns `None`
/// when the result is contradictory.
fn subst_eliminate_tuple(
    tuple: &GeneralizedTuple,
    var: usize,
    ctx: &QeContext,
) -> Result<Option<GeneralizedTuple>, QeError> {
    let nvars = tuple.nvars();
    let (idx, c) = find_subst_atom(tuple, var).ok_or_else(|| {
        QeError::Unsupported(format!("substitution: no linear equality atom in x{var}"))
    })?;
    let rest = constant_coeff(&tuple.atoms()[idx].poly, var);
    let sub = rest.scale(&(-c.recip())); // v := −rest/c
    ctx.observe_bits(sub.max_coeff_bits())?;
    let mut atoms = Vec::with_capacity(tuple.atoms().len() - 1);
    for (i, atom) in tuple.atoms().iter().enumerate() {
        if i == idx {
            continue; // becomes 0 = 0
        }
        if !atom.poly.uses_var(var) {
            atoms.push(atom.clone());
            continue;
        }
        // Horner in `Terms`: only the substituted atom is sealed.
        let mut cs = atom.poly.coeffs_in(var).into_iter().rev();
        let mut acc = cs.next().unwrap_or_else(|| Terms::zero(nvars));
        for lower in cs {
            acc = &(&acc * &sub) + &lower;
        }
        let acc = acc.seal();
        ctx.observe_poly(&acc)?;
        atoms.push(Atom::new(acc, atom.op));
    }
    Ok(GeneralizedTuple::new(nvars, atoms).simplify())
}

/// The coefficient of `var⁰` in `p`, unsealed.
fn constant_coeff(p: &MPoly, var: usize) -> Terms {
    p.coeffs_in(var)
        .into_iter()
        .next()
        .unwrap_or_else(|| Terms::zero(p.nvars()))
}

/// Generalized Fourier–Motzkin on one disjunct (`≠` atoms using `var`
/// already split, no equality using `var`: [`classify`] substitutes those
/// first): isolate `var` in each atom using it and pair lower × upper
/// bounds. Pass-through atoms may have any degree and bounds are arbitrary
/// polynomials in the other variables.
fn fm_eliminate_tuple(
    tuple: &GeneralizedTuple,
    var: usize,
    ctx: &QeContext,
) -> Result<Option<GeneralizedTuple>, QeError> {
    let nvars = tuple.nvars();
    let mut atoms: Vec<Atom> = Vec::new();
    let mut lowers: Vec<(Terms, bool)> = Vec::new(); // (bound, strict)
    let mut uppers: Vec<(Terms, bool)> = Vec::new();
    for atom in tuple.atoms() {
        if !atom.poly.uses_var(var) {
            atoms.push(atom.clone());
            continue;
        }
        if atom.poly.degree_in(var) != 1 {
            return Err(QeError::Unsupported(format!(
                "Fourier–Motzkin: atom is nonlinear in x{var}"
            )));
        }
        let c = atom.poly.lead_coeff_in(var).ok_or_else(|| {
            QeError::Unsupported(format!("Fourier–Motzkin: symbolic coefficient of x{var}"))
        })?;
        let bound = constant_coeff(&atom.poly, var).scale(&(-c.recip()));
        ctx.observe_bits(bound.max_coeff_bits())?;
        let op = if c.sign() == Sign::Neg {
            atom.op.flipped()
        } else {
            atom.op
        };
        match op {
            RelOp::Lt => uppers.push((bound, true)),
            RelOp::Le => uppers.push((bound, false)),
            RelOp::Gt => lowers.push((bound, true)),
            RelOp::Ge => lowers.push((bound, false)),
            RelOp::Eq => {
                return Err(QeError::Unsupported(
                    "Fourier–Motzkin: equality not substituted before elimination".into(),
                ))
            }
            RelOp::Ne => {
                return Err(QeError::Unsupported(
                    "Fourier–Motzkin: `≠` atom not split before elimination".into(),
                ))
            }
        }
    }
    for (l, ls) in &lowers {
        for (u, us) in &uppers {
            let d = (l - u).seal(); // need l ⋈ u (density of the reals)
            ctx.observe_poly(&d)?;
            atoms.push(Atom::new(d, if *ls || *us { RelOp::Lt } else { RelOp::Le }));
        }
    }
    Ok(GeneralizedTuple::new(nvars, atoms).simplify())
}

/// CAD fallback for one disjunct: a decomposition over just the variables
/// this disjunct uses — the other disjuncts never pay for it.
fn cad_eliminate_tuple(
    tuple: &GeneralizedTuple,
    var: usize,
    nvars: usize,
    ctx: &QeContext,
) -> Result<Vec<GeneralizedTuple>, QeError> {
    let single = ConstraintRelation::new(nvars, vec![tuple.clone()]);
    let matrix = relation_to_formula(&single);
    let prefix = [(Quantifier::Exists, var)];
    let free: Vec<usize> = (0..nvars)
        .filter(|&v| v != var && tuple.uses_var(v))
        .collect();
    if free.is_empty() {
        // The disjunct is univariate in `var`: `∃ var` is a sentence.
        return Ok(if cad::decide_sentence(&matrix, &prefix, nvars, ctx)? {
            vec![GeneralizedTuple::top(nvars)]
        } else {
            Vec::new()
        });
    }
    let out = cad::eliminate(&matrix, &prefix, &free, nvars, ctx)?;
    Ok(out.tuples().to_vec())
}

/// Eliminate `∃ var` from one work tuple by its [`classify`] strategy,
/// recording the per-strategy disjunct count and wall time.
fn eliminate_var_from_tuple(
    tuple: &GeneralizedTuple,
    var: usize,
    nvars: usize,
    ctx: &QeContext,
) -> Result<Vec<GeneralizedTuple>, QeError> {
    if !tuple.uses_var(var) {
        return Ok(vec![tuple.clone()]);
    }
    let strat = classify(tuple, var);
    // cdb-lint: allow(determinism) — stats-only timing (see module `use`).
    let t0 = Instant::now();
    let out = match strat {
        Strategy::Subst => subst_eliminate_tuple(tuple, var, ctx)?
            .into_iter()
            .collect(),
        Strategy::Fm => {
            let mut rs = Vec::new();
            for split in linear::split_ne(tuple, var) {
                if let Some(t) = fm_eliminate_tuple(&split, var, ctx)? {
                    rs.push(t);
                }
            }
            rs
        }
        Strategy::Quad => {
            let mut rs = Vec::new();
            for split in linear::split_ne(tuple, var) {
                rs.extend(quad1::eliminate_tuple(&split, var, ctx)?);
            }
            rs
        }
        Strategy::Cad => cad_eliminate_tuple(tuple, var, nvars, ctx)?,
    };
    let (count, nanos) = match strat {
        Strategy::Subst => (&ctx.plan.subst, &ctx.plan.subst_nanos),
        Strategy::Fm => (&ctx.plan.fm, &ctx.plan.fm_nanos),
        Strategy::Quad => (&ctx.plan.quad, &ctx.plan.quad_nanos),
        Strategy::Cad => (&ctx.plan.cad, &ctx.plan.cad_nanos),
    };
    count.add(1);
    nanos.add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    Ok(out)
}

/// Pick the next variable to eliminate: cheapest worst-case strategy rank
/// over the current work set, then fewest atom occurrences, then innermost
/// position (`remaining` is kept innermost-first, so the lowest index wins
/// ties). Returns an index into `remaining`.
fn choose_var(work: &[GeneralizedTuple], remaining: &[usize]) -> usize {
    let mut best = 0usize;
    let mut best_key = (u8::MAX, usize::MAX, usize::MAX);
    for (i, &v) in remaining.iter().enumerate() {
        let mut worst_rank = 0u8;
        let mut occurrences = 0usize;
        for t in work {
            if !t.uses_var(v) {
                continue;
            }
            worst_rank = worst_rank.max(rank(classify(t, v)));
            occurrences += t.atoms().iter().filter(|a| a.poly.uses_var(v)).count();
        }
        let key = (worst_rank, occurrences, i);
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// Eliminate a run of existential variables (`run` innermost-first) from
/// one original disjunct. The work set grows only through splits (`≠`,
/// quadratic sign-condition branches, CAD output disjuncts), each of which
/// is planned independently at the next variable.
fn eliminate_run_from_tuple(
    tuple: &GeneralizedTuple,
    run: &[usize],
    nvars: usize,
    ctx: &QeContext,
) -> Result<Vec<GeneralizedTuple>, QeError> {
    let mut work = vec![tuple.clone()];
    let mut remaining: Vec<usize> = run.to_vec();
    while !remaining.is_empty() && !work.is_empty() {
        let var = remaining.remove(choose_var(&work, &remaining));
        let mut next: Vec<GeneralizedTuple> = Vec::new();
        for w in &work {
            for produced in eliminate_var_from_tuple(w, var, nvars, ctx)? {
                if let Some(t) = produced.simplify() {
                    if !next.contains(&t) {
                        next.push(t);
                    }
                }
            }
        }
        work = next;
    }
    Ok(work)
}

/// Eliminate a run of existential quantifiers (`run` innermost-first) from
/// a DNF relation, planning each disjunct independently.
pub fn eliminate_exists_run(
    rel: &ConstraintRelation,
    run: &[usize],
    ctx: &QeContext,
) -> Result<ConstraintRelation, QeError> {
    let nvars = rel.nvars();
    let mut out: Vec<GeneralizedTuple> = Vec::new();
    for tuple in rel.tuples() {
        for t in eliminate_run_from_tuple(tuple, run, nvars, ctx)? {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    Ok(ConstraintRelation::new(nvars, out).simplify())
}

/// The pre-planner path: one CAD (or sentence decision) over everything
/// still quantified in `rel`. Counts every disjunct of `rel` as a CAD
/// dispatch.
fn whole_cad(
    rel: &ConstraintRelation,
    prefix: &[(Quantifier, usize)],
    free: &[usize],
    nvars: usize,
    ctx: &QeContext,
) -> Result<ConstraintRelation, QeError> {
    // cdb-lint: allow(determinism) — stats-only timing (see module `use`).
    let t0 = Instant::now();
    let matrix = &relation_to_formula(rel);
    let out = if free.is_empty() {
        if cad::decide_sentence(matrix, prefix, nvars, ctx)? {
            ConstraintRelation::full(nvars)
        } else {
            ConstraintRelation::empty(nvars)
        }
    } else {
        cad::eliminate(matrix, prefix, free, nvars, ctx)?
    };
    ctx.plan.cad.add(rel.tuples().len().max(1) as u64);
    ctx.plan
        .cad_nanos
        .add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    Ok(out)
}

/// Planner entry point: eliminate the whole quantifier prefix from a
/// prenex matrix given as its DNF `matrix_rel`; `free` lists the query's
/// free variables ascending.
///
/// Processes innermost runs of identical quantifiers: `∃` runs go through
/// the per-disjunct planner; `∀` runs go through `¬∃¬` when the relation is
/// linear, and keep the pre-planner whole-relation CAD otherwise.
pub fn eliminate_prefix(
    // frozen harness: the statement benchmark's trace replay passes the
    // prenex matrix; the planner reads only its DNF.
    _matrix: &Formula,
    matrix_rel: ConstraintRelation,
    prefix: &[(Quantifier, usize)],
    free: &[usize],
    nvars: usize,
    ctx: &QeContext,
) -> Result<ConstraintRelation, QeError> {
    if prefix.is_empty() {
        return Ok(matrix_rel);
    }
    let mut rel = matrix_rel;
    let mut rest: Vec<(Quantifier, usize)> = prefix.to_vec();
    while let Some(&(q, _)) = rest.last() {
        // Innermost run of identical quantifiers (adjacent ∃∃/∀∀ commute,
        // so the planner may reorder within the run).
        let mut start = rest.len();
        while start > 0 && rest[start - 1].0 == q {
            start -= 1;
        }
        let run: Vec<usize> = rest[start..].iter().rev().map(|&(_, v)| v).collect();
        match q {
            Quantifier::Exists => {
                rel = eliminate_exists_run(&rel, &run, ctx)?;
            }
            Quantifier::Forall => {
                if !linear::is_linear(&rel) {
                    // Complementing a nonlinear DNF can blow up; keep the
                    // pre-planner behavior — one CAD over everything still
                    // quantified.
                    return whole_cad(&rel, &rest, free, nvars, ctx);
                }
                let negated = rel.complement().simplify();
                let eliminated = eliminate_exists_run(&negated, &run, ctx)?;
                rel = eliminated.complement().simplify();
            }
        }
        rest.truncate(start);
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_num::Rat;

    fn var(i: usize, n: usize) -> MPoly {
        MPoly::var(i, n)
    }

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    /// `∃ x1` over one conjunction of atoms in `(x0, x1)`.
    fn exists_y(atoms: Vec<Atom>, ctx: &QeContext) -> Result<ConstraintRelation, QeError> {
        let rel = ConstraintRelation::new(2, vec![GeneralizedTuple::new(2, atoms)]);
        eliminate_exists_run(&rel, &[1], ctx)
    }

    fn holds_at(rel: &ConstraintRelation, x: i64) -> bool {
        rel.satisfied_at(&[Rat::from(x), Rat::zero()])
    }

    /// ∃y (x ≤ y ∧ y ≤ 5): expect x ≤ 5.
    #[test]
    fn simple_projection() {
        let (x, y) = (var(0, 2), var(1, 2));
        let ctx = QeContext::exact();
        let out = exists_y(
            vec![
                Atom::cmp(x, RelOp::Le, y.clone()),
                Atom::cmp(y, RelOp::Le, c(5, 2)),
            ],
            &ctx,
        )
        .unwrap();
        assert!(holds_at(&out, 5));
        assert!(holds_at(&out, -100));
        assert!(!holds_at(&out, 6));
        assert_eq!(ctx.plan_stats().fm, 1);
    }

    /// ∃y (y = 2x + 1 ∧ y ≥ 3 ∧ y ≤ 7): expect 1 ≤ x ≤ 3.
    #[test]
    fn equality_substitution() {
        let n = 2;
        let (x, y) = (var(0, n), var(1, n));
        let out = exists_y(
            vec![
                Atom::cmp(y.clone(), RelOp::Eq, &x.scale(&Rat::from(2i64)) + &c(1, n)),
                Atom::cmp(y.clone(), RelOp::Ge, c(3, n)),
                Atom::cmp(y, RelOp::Le, c(7, n)),
            ],
            &QeContext::exact(),
        )
        .unwrap();
        for (v, expect) in [(0i64, false), (1, true), (2, true), (3, true), (4, false)] {
            assert_eq!(holds_at(&out, v), expect, "x = {v}");
        }
    }

    /// ∃y (x < y ∧ y < x): empty.
    #[test]
    fn infeasible_bounds() {
        let (x, y) = (var(0, 2), var(1, 2));
        let out = exists_y(
            vec![
                Atom::cmp(x.clone(), RelOp::Lt, y.clone()),
                Atom::cmp(y, RelOp::Lt, x),
            ],
            &QeContext::exact(),
        )
        .unwrap();
        assert!(!holds_at(&out, 0));
        assert!(!holds_at(&out, 7));
    }

    /// Unbounded side: ∃y (y ≥ x) is always true.
    #[test]
    fn unbounded_is_true() {
        let out = exists_y(
            vec![Atom::cmp(var(1, 2), RelOp::Ge, var(0, 2))],
            &QeContext::exact(),
        )
        .unwrap();
        for v in [-10i64, 0, 10] {
            assert!(holds_at(&out, v));
        }
    }

    /// Dense order with ≠: ∃y (x ≤ y ∧ y ≤ x ∧ y ≠ 3) ⇔ x ≠ 3.
    #[test]
    fn ne_split() {
        let n = 2;
        let (x, y) = (var(0, n), var(1, n));
        let out = exists_y(
            vec![
                Atom::cmp(x.clone(), RelOp::Le, y.clone()),
                Atom::cmp(y.clone(), RelOp::Le, x),
                Atom::cmp(y, RelOp::Ne, c(3, n)),
            ],
            &QeContext::exact(),
        )
        .unwrap();
        assert!(holds_at(&out, 2));
        assert!(holds_at(&out, 4));
        assert!(!holds_at(&out, 3));
    }

    /// Forall through `¬∃¬`: ∀y (y ≥ x ∨ y ≤ 5) ⇔ x ≤ 5.
    #[test]
    fn forall_via_complement() {
        let n = 2;
        let (x, y) = (var(0, n), var(1, n));
        let rel = ConstraintRelation::new(
            n,
            vec![
                GeneralizedTuple::new(n, vec![Atom::cmp(y.clone(), RelOp::Ge, x)]),
                GeneralizedTuple::new(n, vec![Atom::cmp(y, RelOp::Le, c(5, n))]),
            ],
        );
        let ctx = QeContext::exact();
        let out = eliminate_prefix(
            &relation_to_formula(&rel),
            rel,
            &[(Quantifier::Forall, 1)],
            &[0],
            n,
            &ctx,
        )
        .unwrap();
        assert!(holds_at(&out, 5));
        assert!(holds_at(&out, -3));
        assert!(!holds_at(&out, 6));
        assert_eq!(ctx.plan_stats().cad, 0);
    }

    /// Budget: the bound `1000003·x` needs ~20 bits, so a tiny budget
    /// trips — through substitution (`=`) and through FM (`≤`) alike.
    #[test]
    fn budget_trips() {
        let n = 2;
        let (x, y) = (var(0, n), var(1, n));
        for op in [RelOp::Eq, RelOp::Le] {
            let atoms = vec![
                Atom::cmp(y.clone(), op, x.scale(&Rat::from(1_000_003i64))),
                Atom::cmp(y.clone(), RelOp::Ge, c(999_983, n)),
            ];
            let err = exists_y(atoms.clone(), &QeContext::with_budget(8)).unwrap_err();
            assert!(
                matches!(err, QeError::PrecisionExceeded { .. }),
                "{op:?}: {err}"
            );
            assert!(exists_y(atoms, &QeContext::with_budget(64)).is_ok());
        }
    }

    /// Soundness: the eliminated formula agrees with a brute-force scan
    /// over sample witnesses.
    #[test]
    fn soundness_spot_check() {
        let n = 2;
        let (x, y) = (var(0, n), var(1, n));
        // ∃y (2y ≤ x + 4 ∧ −3y ≤ x − 1 ∧ y ≥ −10)
        let atoms = vec![
            Atom::cmp(y.scale(&Rat::from(2i64)), RelOp::Le, &x + &c(4, n)),
            Atom::cmp(y.scale(&Rat::from(-3i64)), RelOp::Le, &x - &c(1, n)),
            Atom::cmp(y, RelOp::Ge, c(-10, n)),
        ];
        let rel = ConstraintRelation::new(n, vec![GeneralizedTuple::new(n, atoms.clone())]);
        let out = exists_y(atoms, &QeContext::exact()).unwrap();
        for xv in -15..=15i64 {
            // The grid can only under-approximate ∃; on this instance the
            // bounds are rational with small denominators, so it finds
            // every witness.
            let expect = (-1000..=1000)
                .map(|i| Rat::from_ints(i, 50))
                .any(|yv| rel.satisfied_at(&[Rat::from(xv), yv]));
            assert_eq!(holds_at(&out, xv), expect, "x = {xv}");
        }
    }
}
