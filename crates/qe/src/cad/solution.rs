//! Truth propagation through quantifier blocks and solution formula
//! construction (the final phase of Appendix I's QE procedure).
//!
//! "Since each cylinder is partitioned in a finite number of cells, the
//! universal (respectively existential) quantifiers can be replaced by
//! finite conjunctions (respectively disjunctions)." Truth is evaluated at
//! top-level cells and folded down the stacks; the defining formulas of the
//! true free-space cells are assembled from the sign vectors of the
//! projection polynomials (Hong-style construction; the caller retries with
//! derivative augmentation when two cells share a vector but disagree).

use super::{eval_formula_at_cell, Cad};
use crate::{QeContext, QeError};
use cdb_constraints::{Atom, ConstraintRelation, Formula, GeneralizedTuple, Quantifier, RelOp};
use cdb_num::Sign;
use std::collections::BTreeMap;

/// Truth assignment produced by quantifier folding.
pub struct TruthTable {
    /// Truth per cell of the free level (`cad.levels[free_levels-1]`);
    /// empty when `free_levels == 0`.
    pub free_cell_truth: Vec<bool>,
    /// Verdict for the sentence case (`free_levels == 0`).
    pub root_truth: bool,
}

/// Evaluate the matrix on every finest cell of a *full* CAD
/// ([`super::build_cad`]), then fold the quantifier prefix down to the free
/// level. The engine itself goes through [`super::decide`], which never
/// builds the finest level; this is the reference that path is tested
/// against.
pub fn evaluate_truth(
    cad: &Cad,
    matrix: &Formula,
    prefix: &[(Quantifier, usize)],
    free_levels: usize,
    ctx: &QeContext,
) -> Result<TruthTable, QeError> {
    debug_assert_eq!(free_levels + prefix.len(), cad.levels.len());
    let mut truth: Vec<bool> = Vec::with_capacity(cad.top_cells());
    for cell in cad.levels.last().into_iter().flat_map(|cells| cells.iter()) {
        truth.push(eval_formula_at_cell(cad, cell, matrix, ctx)?);
    }
    fold_prefix(cad, truth, prefix, free_levels)
}

/// Fold `truth` — one verdict per cell of level `free_levels + prefix.len()`
/// (one for the virtual root when that is level 0) — through `prefix`,
/// innermost quantifier first, down to the free level.
pub(super) fn fold_prefix(
    cad: &Cad,
    mut truth: Vec<bool>,
    prefix: &[(Quantifier, usize)],
    free_levels: usize,
) -> Result<TruthTable, QeError> {
    for (k, (q, _)) in prefix.iter().enumerate().rev() {
        // Level `l` folds into level `l − 1`; level 0 is the virtual root.
        let l = free_levels + k + 1;
        let parent_count = if l == 1 { 1 } else { cad.levels[l - 2].len() };
        let mut folded = vec![*q == Quantifier::Forall; parent_count];
        for (cell, t) in cad.levels[l - 1].iter().zip(&truth) {
            let p = match cell.parent {
                None if l > 1 => {
                    return Err(QeError::Unsupported(
                        "truth fold: non-base cell without a parent".to_owned(),
                    ))
                }
                p => p.unwrap_or(0),
            };
            match q {
                Quantifier::Exists => folded[p] = folded[p] || *t,
                Quantifier::Forall => folded[p] = folded[p] && *t,
            }
        }
        truth = folded;
    }
    if free_levels > 0 {
        return Ok(TruthTable {
            free_cell_truth: truth,
            root_truth: false,
        });
    }
    match truth.as_slice() {
        [root] => Ok(TruthTable {
            free_cell_truth: Vec::new(),
            root_truth: *root,
        }),
        _ => Err(QeError::Unsupported(format!(
            "truth fold: {} verdicts for the root",
            truth.len()
        ))),
    }
}

/// A cell's sign signature over the free-space projection polynomials.
type Signature = Vec<(usize, Sign)>;

/// Build the quantifier-free defining formula of the true region from the
/// free-level cells. Errors with [`QeError::FormulaConstruction`] when two
/// cells share a signature but disagree on truth (caller augments).
pub fn construct_formula(
    cad: &Cad,
    truth: &TruthTable,
    free_levels: usize,
    nvars: usize,
    _ctx: &QeContext,
) -> Result<ConstraintRelation, QeError> {
    assert!(
        free_levels >= 1,
        "sentence case is handled by decide_sentence"
    );
    let cells = &cad.levels[free_levels - 1];
    debug_assert_eq!(cells.len(), truth.free_cell_truth.len());
    // Group signatures.
    let mut groups: BTreeMap<Signature, bool> = BTreeMap::new();
    for (cell, &t) in cells.iter().zip(&truth.free_cell_truth) {
        let sig: Signature = cell.signs.iter().map(|(&id, &s)| (id, s)).collect();
        match groups.get(&sig) {
            Some(&prev) if prev != t => {
                return Err(QeError::FormulaConstruction(format!(
                    "cells with identical sign vector disagree ({} polys)",
                    sig.len()
                )));
            }
            _ => {
                groups.insert(sig, t);
            }
        }
    }
    let false_sigs: Vec<&Signature> = groups.iter().filter(|(_, &t)| !t).map(|(s, _)| s).collect();
    let mut tuples: Vec<GeneralizedTuple> = Vec::new();
    for (sig, t) in &groups {
        if !*t {
            continue;
        }
        // Greedy pruning: drop conditions not needed to exclude every false
        // signature. (Sound because cells are sign-invariant: a point lies
        // in some cell, and its signature decides membership.)
        let mut kept: Vec<(usize, Sign)> = sig.clone();
        let mut i = 0;
        while i < kept.len() {
            let mut trial = kept.clone();
            trial.remove(i);
            let excludes_all = false_sigs.iter().all(|fs| {
                // A false signature escapes if it satisfies every remaining
                // condition.
                !trial
                    .iter()
                    .all(|(id, s)| fs.iter().any(|(fid, fsig)| fid == id && fsig == s))
            });
            if excludes_all {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        let atoms: Vec<Atom> = kept
            .iter()
            .map(|(id, s)| {
                let poly = cad.registry.get(*id).clone();
                let op = match s {
                    Sign::Neg => RelOp::Lt,
                    Sign::Zero => RelOp::Eq,
                    Sign::Pos => RelOp::Gt,
                };
                Atom::new(poly, op)
            })
            .collect();
        let tuple = GeneralizedTuple::new(nvars, atoms);
        if !tuples.contains(&tuple) {
            tuples.push(tuple);
        }
    }
    Ok(ConstraintRelation::new(nvars, tuples).simplify())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cad::build_cad;
    use cdb_num::Rat;
    use cdb_poly::MPoly;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    /// The paper's Figure 1, end to end through the CAD engine:
    /// ∃y (4x² − y − 20x + 25 ≤ 0 ∧ y ≤ 0) ⇔ 4x² − 20x + 25 = 0.
    #[test]
    fn figure1_via_cad() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let s_poly = &(&(&c(4, 2) * &x.pow(2)) - &y) - &(&(&c(20, 2) * &x) - &c(25, 2));
        let matrix = Formula::and(
            Formula::Atom(Atom::new(s_poly, RelOp::Le)),
            Formula::Atom(Atom::new(y.clone(), RelOp::Le)),
        );
        let ctx = QeContext::exact();
        let rel =
            crate::cad::eliminate(&matrix, &[(Quantifier::Exists, 1)], &[0], 2, &ctx).unwrap();
        // The answer is exactly {x = 5/2}.
        assert!(rel.satisfied_at(&["5/2".parse().unwrap(), Rat::zero()]));
        for v in ["0", "2", "3", "-5", "249/100", "251/100"] {
            assert!(
                !rel.satisfied_at(&[v.parse().unwrap(), Rat::zero()]),
                "x = {v} should be outside"
            );
        }
        // And it is a finite point set.
        let pts = rel.as_finite_points();
        if let Some(pts) = pts {
            assert_eq!(pts.len(), 1);
        }
    }

    /// ∃y (x² + y² < 1) ⇔ −1 < x < 1.
    #[test]
    fn circle_shadow() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let circle = &(&x.pow(2) + &y.pow(2)) - &c(1, 2);
        let matrix = Formula::Atom(Atom::new(circle, RelOp::Lt));
        let ctx = QeContext::exact();
        let rel =
            crate::cad::eliminate(&matrix, &[(Quantifier::Exists, 1)], &[0], 2, &ctx).unwrap();
        for (v, expect) in [
            ("0", true),
            ("99/100", true),
            ("-99/100", true),
            ("1", false),
            ("-1", false),
            ("3/2", false),
            ("-2", false),
        ] {
            assert_eq!(
                rel.satisfied_at(&[v.parse().unwrap(), Rat::zero()]),
                expect,
                "x = {v}"
            );
        }
    }

    /// ∀y (y² ≥ x) ⇔ x ≤ 0.
    #[test]
    fn forall_parabola() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &y.pow(2) - &x;
        let matrix = Formula::Atom(Atom::new(p, RelOp::Ge));
        let ctx = QeContext::exact();
        let rel =
            crate::cad::eliminate(&matrix, &[(Quantifier::Forall, 1)], &[0], 2, &ctx).unwrap();
        for (v, expect) in [
            ("0", true),
            ("-1", true),
            ("-100", true),
            ("1/100", false),
            ("4", false),
        ] {
            assert_eq!(
                rel.satisfied_at(&[v.parse().unwrap(), Rat::zero()]),
                expect,
                "x = {v}"
            );
        }
    }

    /// Sentences: ∃x (x² = 2) is true; ∀x (x² ≠ 2) is false; ∀x (x² ≥ 0) is
    /// true.
    #[test]
    fn sentences() {
        let x = MPoly::var(0, 1);
        let p = &x.pow(2) - &c(2, 1);
        let ctx = QeContext::exact();
        assert!(crate::cad::decide_sentence(
            &Formula::Atom(Atom::new(p.clone(), RelOp::Eq)),
            &[(Quantifier::Exists, 0)],
            1,
            &ctx,
        )
        .unwrap());
        assert!(!crate::cad::decide_sentence(
            &Formula::Atom(Atom::new(p, RelOp::Ne)),
            &[(Quantifier::Forall, 0)],
            1,
            &ctx,
        )
        .unwrap());
        let sq = MPoly::var(0, 1).pow(2);
        assert!(crate::cad::decide_sentence(
            &Formula::Atom(Atom::new(sq, RelOp::Ge)),
            &[(Quantifier::Forall, 0)],
            1,
            &ctx,
        )
        .unwrap());
    }

    /// The sentence-case fold wants exactly one verdict for the root; any
    /// other count is a typed error, not an index out of bounds.
    #[test]
    fn root_fold_is_typed_on_a_miscounted_table() {
        let p = &MPoly::var(0, 1).pow(2) - &c(2, 1);
        let cad = build_cad(&[p], &[0], 1, &QeContext::exact()).unwrap();
        assert!(fold_prefix(&cad, vec![true], &[], 0).unwrap().root_truth);
        for miscounted in [Vec::new(), vec![true, false]] {
            assert!(matches!(
                fold_prefix(&cad, miscounted, &[], 0),
                Err(QeError::Unsupported(_))
            ));
        }
    }

    /// Two quantifiers: ∃x∃y (x² + y² = 0 ∧ x = y) is true (origin).
    #[test]
    fn nested_exists() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let matrix = Formula::and(
            Formula::Atom(Atom::new(&x.pow(2) + &y.pow(2), RelOp::Eq)),
            Formula::Atom(Atom::new(&x - &y, RelOp::Eq)),
        );
        let ctx = QeContext::exact();
        assert!(crate::cad::decide_sentence(
            &matrix,
            &[(Quantifier::Exists, 0), (Quantifier::Exists, 1)],
            2,
            &ctx,
        )
        .unwrap());
    }

    /// Free variables with algebraic cell boundaries: ∃y (y² = x ∧ y ≥ 1)
    /// ⇔ x ≥ 1.
    #[test]
    fn algebraic_boundary() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let matrix = Formula::and(
            Formula::Atom(Atom::new(&y.pow(2) - &x, RelOp::Eq)),
            Formula::Atom(Atom::new(&y - &c(1, 2), RelOp::Ge)),
        );
        let ctx = QeContext::exact();
        let rel =
            crate::cad::eliminate(&matrix, &[(Quantifier::Exists, 1)], &[0], 2, &ctx).unwrap();
        for (v, expect) in [("0", false), ("1/2", false), ("1", true), ("4", true)] {
            assert_eq!(
                rel.satisfied_at(&[v.parse().unwrap(), Rat::zero()]),
                expect,
                "x = {v}"
            );
        }
    }

    /// CAD of a single variable decomposes the line correctly.
    #[test]
    fn base_cad_structure() {
        let x = MPoly::var(0, 1);
        let p = &x.pow(2) - &c(4, 1); // roots ±2
        let ctx = QeContext::exact();
        let cad = build_cad(&[p], &[0], 1, &ctx).unwrap();
        assert_eq!(cad.levels.len(), 1);
        // 2 sections + 3 sectors.
        assert_eq!(cad.levels[0].len(), 5);
        let dims: Vec<usize> = cad.levels[0]
            .iter()
            .map(super::super::CadCell::dimension)
            .collect();
        assert_eq!(dims, vec![1, 0, 1, 0, 1]);
    }
}
