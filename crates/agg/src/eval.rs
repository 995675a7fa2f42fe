//! The EVAL aggregate module: "maps a given system of constraints S either
//! to its finite set of solutions if it exists, or to S itself otherwise."

use crate::AggError;
use cdb_constraints::ConstraintRelation;
use cdb_num::Rat;
use cdb_qe::pipeline::numerical_evaluation;
use cdb_qe::QeContext;

/// Result of EVAL.
#[derive(Debug, Clone)]
pub enum EvalResult {
    /// The relation denotes a finite set: its ε-approximated points, as a
    /// finite constraint relation.
    Finite {
        /// One point tuple per solution.
        relation: ConstraintRelation,
        /// True when every coordinate of every point is exact, false when
        /// one is an ε-approximation of an irrational solution.
        exact: bool,
    },
    /// Infinite: the input system unchanged.
    Unchanged(ConstraintRelation),
}

impl EvalResult {
    /// The relation either way.
    #[must_use]
    pub fn relation(self) -> ConstraintRelation {
        match self {
            EvalResult::Finite { relation: r, .. } | EvalResult::Unchanged(r) => r,
        }
    }

    /// True when the finite branch was taken.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        matches!(self, EvalResult::Finite { .. })
    }
}

/// EVAL over the given variables, solving to ε-precision.
pub fn eval_aggregate(
    rel: &ConstraintRelation,
    vars: &[usize],
    eps: &Rat,
    ctx: &QeContext,
) -> Result<EvalResult, AggError> {
    if vars.is_empty() {
        return Err(AggError::Arity {
            expected: 1,
            got: 0,
        });
    }
    match numerical_evaluation(rel, vars, eps, ctx)? {
        None => Ok(EvalResult::Unchanged(rel.clone())),
        Some(points) => {
            // Rebuild as explicit points, constraining only the aggregate's
            // variables (other ring coordinates stay free).
            use cdb_constraints::{Atom, GeneralizedTuple, RelOp};
            use cdb_poly::MPoly;
            let nvars = rel.nvars();
            let exact = points.iter().all(|p| p.exact);
            let tuples: Vec<GeneralizedTuple> = points
                .into_iter()
                .map(|p| {
                    let atoms = vars
                        .iter()
                        .zip(&p.coords)
                        .map(|(&v, c)| {
                            Atom::new(
                                &MPoly::var(v, nvars) - &MPoly::constant(c.clone(), nvars),
                                RelOp::Eq,
                            )
                        })
                        .collect();
                    GeneralizedTuple::new(nvars, atoms)
                })
                .collect();
            Ok(EvalResult::Finite {
                relation: ConstraintRelation::new(nvars, tuples),
                exact,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::{Atom, GeneralizedTuple, RelOp};
    use cdb_poly::MPoly;

    fn eps() -> Rat {
        "1/1000000".parse().unwrap()
    }

    #[test]
    fn finite_system_solved() {
        // (2x − 5)² = 0 → {5/2} — the paper's Figure 1 equation.
        let x = MPoly::var(0, 1);
        let p = &(&x.scale(&Rat::from(4i64)) * &x)
            - &(&x.scale(&Rat::from(20i64)) - &MPoly::constant(Rat::from(25i64), 1));
        let rel = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(1, vec![Atom::new(p, RelOp::Eq)])],
        );
        let ctx = QeContext::exact();
        let out = eval_aggregate(&rel, &[0], &eps(), &ctx).unwrap();
        assert!(matches!(out, EvalResult::Finite { exact: true, .. }));
        let pts = out.relation().as_finite_points().unwrap();
        assert_eq!(pts.len(), 1);
        assert!((&pts[0][0] - &"5/2".parse().unwrap()).abs() < eps());
    }

    /// x² = 2: the points are ε-approximations of ±√2, and the result
    /// says so.
    #[test]
    fn irrational_points_are_inexact() {
        let x = MPoly::var(0, 1);
        let rel = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(
                1,
                vec![Atom::new(
                    &x.pow(2) - &MPoly::constant(Rat::from(2i64), 1),
                    RelOp::Eq,
                )],
            )],
        );
        let ctx = QeContext::exact();
        let out = eval_aggregate(&rel, &[0], &eps(), &ctx).unwrap();
        assert!(matches!(out, EvalResult::Finite { exact: false, .. }));
        assert_eq!(out.relation().as_finite_points().unwrap().len(), 2);
    }

    #[test]
    fn infinite_system_unchanged() {
        let x = MPoly::var(0, 1);
        let rel = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(
                1,
                vec![Atom::new(&x - &MPoly::constant(Rat::one(), 1), RelOp::Le)],
            )],
        );
        let ctx = QeContext::exact();
        let out = eval_aggregate(&rel, &[0], &eps(), &ctx).unwrap();
        assert!(!out.is_finite());
        assert_eq!(out.relation(), rel);
    }

    #[test]
    fn two_dim_finite_system() {
        // x² + y² = 0: single solution (0, 0).
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![Atom::new(&x.pow(2) + &y.pow(2), RelOp::Eq)],
            )],
        );
        let ctx = QeContext::exact();
        let out = eval_aggregate(&rel, &[0, 1], &eps(), &ctx).unwrap();
        assert!(out.is_finite());
        let pts = out.relation().as_finite_points().unwrap();
        assert_eq!(pts, vec![vec![Rat::zero(), Rat::zero()]]);
    }
}
