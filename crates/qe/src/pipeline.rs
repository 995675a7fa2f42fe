//! The paper's query-evaluation pipeline (§2, Figure 1):
//!
//! 1. **INSTANTIATION** — replace relation symbols by their stored
//!    definitions (purely syntactic).
//! 2. **QUANTIFIER ELIMINATION** — routed through the per-disjunct planner
//!    ([`crate::plan`]): substitution / Fourier–Motzkin / quadratic
//!    shortcut / CAD, chosen per disjunct and variable; output is a
//!    quantifier-free DNF relation.
//! 3. **NUMERICAL EVALUATION** — when the answer is a finite set, extract
//!    ε-approximations of the solution points (Theorem 3.2).

use crate::cad;
use crate::plan;
use crate::{QeContext, QeError};
use cdb_constraints::formula::relation_to_formula;
use cdb_constraints::{ConstraintRelation, Database, Formula};
use cdb_num::Rat;

/// Result of evaluating a query.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// Quantifier-free answer relation over the ambient ring (only the free
    /// variables are constrained).
    pub relation: ConstraintRelation,
    /// The query's free variables, ascending.
    pub free_vars: Vec<usize>,
}

/// Evaluate a relational-calculus query over a constraint database, in
/// closed form. `nvars` is the ambient ring arity (all variable indices in
/// `query` are below it).
pub fn evaluate_query(
    db: &Database,
    query: &Formula,
    nvars: usize,
    ctx: &QeContext,
) -> Result<EvalOutput, QeError> {
    // Step 1: INSTANTIATION.
    let pure = query.instantiate(db, nvars).map_err(QeError::Schema)?;
    let free_vars: Vec<usize> = pure.free_vars().into_iter().collect();
    // Normalize: NNF, then prenex.
    let nnf = pure.to_nnf();
    let (prefix, matrix) = nnf.to_prenex();
    // Step 2: QUANTIFIER ELIMINATION. The DNF (simplified, deduplicated,
    // box-pruned) is needed on every path, so build it once, ahead of the
    // prefix check; the per-disjunct planner is the single entry point for
    // the quantified cases.
    let matrix_rel = matrix.to_dnf(nvars).map_err(QeError::Unsupported)?;
    let relation = plan::eliminate_prefix(&matrix, matrix_rel, &prefix, &free_vars, nvars, ctx)?;
    Ok(EvalOutput {
        relation,
        free_vars,
    })
}

/// An ε-approximated solution point.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxPoint {
    /// One rational approximation per free variable (ascending var order).
    pub coords: Vec<Rat>,
    /// True when every coordinate is exact (not just approximate).
    pub exact: bool,
}

/// Step 3: NUMERICAL EVALUATION (Theorem 3.2). If the relation denotes a
/// finite set over `free_vars`, return ε-approximations of all solution
/// points (sorted lexicographically); `None` when the set is infinite.
pub fn numerical_evaluation(
    relation: &ConstraintRelation,
    free_vars: &[usize],
    eps: &Rat,
    ctx: &QeContext,
) -> Result<Option<Vec<ApproxPoint>>, QeError> {
    if relation.is_syntactically_empty() {
        return Ok(Some(Vec::new()));
    }
    if free_vars.is_empty() {
        return Ok(Some(Vec::new()));
    }
    // Fast path: explicit rational points.
    if let Some(points) = relation.as_finite_points() {
        let mut out: Vec<ApproxPoint> = points
            .into_iter()
            .map(|p| ApproxPoint {
                coords: free_vars.iter().map(|&v| p[v].clone()).collect(),
                exact: true,
            })
            .collect();
        out.sort_by(|a, b| a.coords.cmp(&b.coords));
        out.dedup();
        return Ok(Some(out));
    }
    // General path: CAD over the free variables; the set is finite iff all
    // true cells are zero-dimensional.
    let polys = relation.polynomials();
    let cad = cad::build_cad(&polys, free_vars, relation.nvars(), ctx)?;
    let matrix = relation_to_formula(relation);
    let cells = cad::true_cells(&cad, &matrix, ctx)?;
    let mut out = Vec::new();
    for cell in cells {
        if cell.dimension() > 0 {
            return Ok(None); // infinite set
        }
        let mut coords = Vec::with_capacity(cell.sample.len());
        let mut exact = true;
        for c in &cell.sample {
            match c.to_rat() {
                Some(r) => coords.push(r),
                None => {
                    exact = false;
                    coords.push(c.approx(eps));
                }
            }
        }
        out.push(ApproxPoint { coords, exact });
    }
    out.sort_by(|a, b| a.coords.cmp(&b.coords));
    out.dedup();
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::{Atom, GeneralizedTuple, RelOp};
    use cdb_poly::MPoly;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    fn paper_db() -> Database {
        // S(x, y) ≡ 4x² − y − 20x + 25 ≤ 0.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&(&c(4, 2) * &x.pow(2)) - &y) - &(&(&c(20, 2) * &x) - &c(25, 2));
        let mut db = Database::new();
        db.insert(
            "S",
            ConstraintRelation::new(
                2,
                vec![GeneralizedTuple::new(2, vec![Atom::new(p, RelOp::Le)])],
            ),
        );
        db
    }

    /// Full Figure 1: instantiate, eliminate, numerically evaluate → x = 2.5.
    #[test]
    fn figure1_full_pipeline() {
        let db = paper_db();
        let y = MPoly::var(1, 2);
        let query = Formula::exists(
            1,
            Formula::and(
                Formula::Rel("S".into(), vec![0, 1]),
                Formula::Atom(Atom::new(y, RelOp::Le)),
            ),
        );
        let ctx = QeContext::exact();
        let out = evaluate_query(&db, &query, 2, &ctx).unwrap();
        assert_eq!(out.free_vars, vec![0]);
        // QE result is semantically {x = 5/2}.
        assert!(out
            .relation
            .satisfied_at(&["5/2".parse().unwrap(), Rat::zero()]));
        assert!(!out.relation.satisfied_at(&[Rat::from(2i64), Rat::zero()]));
        // Numerical evaluation extracts the root.
        let pts = numerical_evaluation(
            &out.relation,
            &out.free_vars,
            &"1/1000000".parse().unwrap(),
            &ctx,
        )
        .unwrap()
        .expect("finite");
        assert_eq!(pts.len(), 1);
        let v = &pts[0].coords[0];
        assert!((v - &"5/2".parse().unwrap()).abs() < "1/1000000".parse().unwrap());
    }

    /// Membership query (quantifier-free): S(2.5, 0) true, S(0,0) false.
    #[test]
    fn membership_queries() {
        let db = paper_db();
        let ctx = QeContext::exact();
        let q = Formula::Rel("S".into(), vec![0, 1]);
        let out = evaluate_query(&db, &q, 2, &ctx).unwrap();
        assert!(out
            .relation
            .satisfied_at(&["5/2".parse().unwrap(), Rat::zero()]));
        assert!(!out.relation.satisfied_at(&[Rat::zero(), Rat::zero()]));
    }

    /// Linear query goes through FM: ∃y (x ≤ y ∧ y ≤ 10 ∧ x ≥ 0).
    #[test]
    fn linear_pipeline() {
        let n = 2;
        let x = MPoly::var(0, n);
        let y = MPoly::var(1, n);
        let db = Database::new();
        let query = Formula::exists(
            1,
            Formula::And(vec![
                Formula::Atom(Atom::cmp(x.clone(), RelOp::Le, y.clone())),
                Formula::Atom(Atom::cmp(y, RelOp::Le, c(10, n))),
                Formula::Atom(Atom::new(-&x, RelOp::Le)),
            ]),
        );
        let ctx = QeContext::exact();
        let out = evaluate_query(&db, &query, n, &ctx).unwrap();
        for (v, expect) in [("0", true), ("10", true), ("11", false), ("-1", false)] {
            assert_eq!(
                out.relation
                    .satisfied_at(&[v.parse().unwrap(), Rat::zero()]),
                expect,
                "x = {v}"
            );
        }
    }

    /// Numerical evaluation of an irrational finite set: x² = 2.
    #[test]
    fn numeric_eval_sqrt2() {
        let n = 1;
        let x = MPoly::var(0, n);
        let rel = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(
                n,
                vec![Atom::new(&x.pow(2) - &c(2, n), RelOp::Eq)],
            )],
        );
        let ctx = QeContext::exact();
        let eps: Rat = "1/100000000".parse().unwrap();
        let pts = numerical_evaluation(&rel, &[0], &eps, &ctx)
            .unwrap()
            .expect("finite");
        assert_eq!(pts.len(), 2);
        assert!(!pts[0].exact);
        assert!((pts[0].coords[0].to_f64() + std::f64::consts::SQRT_2).abs() < 1e-7);
        assert!((pts[1].coords[0].to_f64() - std::f64::consts::SQRT_2).abs() < 1e-7);
    }

    /// Numerical evaluation detects infinite answers.
    #[test]
    fn numeric_eval_infinite() {
        let n = 1;
        let x = MPoly::var(0, n);
        let rel = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(
                n,
                vec![Atom::new(&x.pow(2) - &c(2, n), RelOp::Le)],
            )],
        );
        let ctx = QeContext::exact();
        let res = numerical_evaluation(&rel, &[0], &"1/64".parse().unwrap(), &ctx).unwrap();
        assert!(res.is_none());
    }

    /// Finite-precision semantics: the same query succeeds exactly and is
    /// undefined under a tiny bit budget (Theorem 4.1's partiality).
    #[test]
    fn finite_precision_undefined() {
        let db = paper_db();
        let y = MPoly::var(1, 2);
        let query = Formula::exists(
            1,
            Formula::and(
                Formula::Rel("S".into(), vec![0, 1]),
                Formula::Atom(Atom::new(y, RelOp::Le)),
            ),
        );
        let tiny = QeContext::with_budget(3);
        let err = evaluate_query(&db, &query, 2, &tiny).unwrap_err();
        assert!(matches!(err, QeError::PrecisionExceeded { .. }));
        let roomy = QeContext::with_budget(64);
        assert!(evaluate_query(&db, &query, 2, &roomy).is_ok());
    }

    /// Sentence evaluation: ∃x S(x, 0) is… S(x,0) ⇔ (2x−5)² ≤ 0, true.
    #[test]
    fn sentence_through_pipeline() {
        let db = paper_db();
        let query = Formula::exists(
            0,
            Formula::exists(
                1,
                Formula::and(
                    Formula::Rel("S".into(), vec![0, 1]),
                    Formula::Atom(Atom::new(MPoly::var(1, 2), RelOp::Eq)),
                ),
            ),
        );
        let ctx = QeContext::exact();
        let out = evaluate_query(&db, &query, 2, &ctx).unwrap();
        // True sentence → full relation.
        assert!(out.relation.satisfied_at(&[Rat::zero(), Rat::zero()]));
    }
}
