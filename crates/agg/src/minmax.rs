//! MIN and MAX aggregate modules: "standard unary functions which return
//! respectively the smallest \[and\] largest values if they exist, undefined
//! otherwise".

use crate::region::{Cell1D, Region1D};
use crate::{AggError, AggValue};
use cdb_constraints::ConstraintRelation;
use cdb_num::Rat;
use cdb_qe::QeContext;

/// Minimum of a unary relation over variable `var`, to precision `eps` for
/// irrational extrema.
pub fn min_of(
    rel: &ConstraintRelation,
    var: usize,
    eps: &Rat,
    ctx: &QeContext,
) -> Result<AggValue, AggError> {
    let region = Region1D::from_relation(rel, var, eps, ctx)?;
    let first = region.cells.first().ok_or(AggError::EmptyRegion)?;
    match first {
        Cell1D::Point(p) => Ok(AggValue::of(p, eps)),
        Cell1D::Interval(None, _) => Err(AggError::Unbounded),
        // Open from the left: the infimum is not attained, so MIN does not
        // exist (the region's leftmost cell is open — had the endpoint been
        // in the set, it would be a preceding Point cell).
        Cell1D::Interval(Some(_), _) => Err(AggError::NotAttained),
    }
}

/// Maximum of a unary relation over variable `var`.
pub fn max_of(
    rel: &ConstraintRelation,
    var: usize,
    eps: &Rat,
    ctx: &QeContext,
) -> Result<AggValue, AggError> {
    let region = Region1D::from_relation(rel, var, eps, ctx)?;
    let last = region.cells.last().ok_or(AggError::EmptyRegion)?;
    match last {
        Cell1D::Point(p) => Ok(AggValue::of(p, eps)),
        Cell1D::Interval(_, None) => Err(AggError::Unbounded),
        Cell1D::Interval(_, Some(_)) => Err(AggError::NotAttained),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::{Atom, GeneralizedTuple, RelOp};
    use cdb_poly::MPoly;

    fn c(v: i64) -> MPoly {
        MPoly::constant(Rat::from(v), 1)
    }

    fn x() -> MPoly {
        MPoly::var(0, 1)
    }

    fn rel(atoms: Vec<Atom>) -> ConstraintRelation {
        ConstraintRelation::new(1, vec![GeneralizedTuple::new(1, atoms)])
    }

    fn eps() -> Rat {
        "1/1000000".parse().unwrap()
    }

    #[test]
    fn closed_interval() {
        // 1 ≤ x ≤ 3.
        let r = rel(vec![
            Atom::new(&c(1) - &x(), RelOp::Le),
            Atom::new(&x() - &c(3), RelOp::Le),
        ]);
        let ctx = QeContext::exact();
        assert_eq!(
            min_of(&r, 0, &eps(), &ctx).unwrap(),
            AggValue::exact(Rat::one())
        );
        assert_eq!(
            max_of(&r, 0, &eps(), &ctx).unwrap(),
            AggValue::exact(Rat::from(3i64))
        );
    }

    #[test]
    fn open_interval_is_undefined() {
        let r = rel(vec![
            Atom::new(&c(1) - &x(), RelOp::Lt),
            Atom::new(&x() - &c(3), RelOp::Lt),
        ]);
        let ctx = QeContext::exact();
        assert_eq!(min_of(&r, 0, &eps(), &ctx), Err(AggError::NotAttained));
        assert_eq!(max_of(&r, 0, &eps(), &ctx), Err(AggError::NotAttained));
    }

    #[test]
    fn unbounded_is_undefined() {
        let r = rel(vec![Atom::new(&c(1) - &x(), RelOp::Le)]); // x ≥ 1
        let ctx = QeContext::exact();
        assert_eq!(
            min_of(&r, 0, &eps(), &ctx).unwrap(),
            AggValue::exact(Rat::one())
        );
        assert_eq!(max_of(&r, 0, &eps(), &ctx), Err(AggError::Unbounded));
    }

    #[test]
    fn empty_is_undefined() {
        let r = rel(vec![
            Atom::new(&x() - &c(1), RelOp::Lt),
            Atom::new(&c(3) - &x(), RelOp::Lt),
        ]); // x < 1 ∧ x > 3
        let ctx = QeContext::exact();
        assert_eq!(min_of(&r, 0, &eps(), &ctx), Err(AggError::EmptyRegion));
    }

    #[test]
    fn irrational_extremum() {
        // x² ≤ 2: min = −√2, max = √2 (attained: boundary included).
        let r = rel(vec![Atom::new(&x().pow(2) - &c(2), RelOp::Le)]);
        let ctx = QeContext::exact();
        let mn = min_of(&r, 0, &eps(), &ctx).unwrap();
        let mx = max_of(&r, 0, &eps(), &ctx).unwrap();
        assert!(!mn.exact && !mx.exact);
        assert!((mn.to_f64() + std::f64::consts::SQRT_2).abs() < 1e-5);
        assert!((mx.to_f64() - std::f64::consts::SQRT_2).abs() < 1e-5);
    }

    #[test]
    fn finite_set() {
        // (x−1)(x−5)(x+2) = 0.
        let p = &(&(&x() - &c(1)) * &(&x() - &c(5))) * &(&x() + &c(2));
        let r = rel(vec![Atom::new(p, RelOp::Eq)]);
        let ctx = QeContext::exact();
        assert_eq!(
            min_of(&r, 0, &eps(), &ctx).unwrap(),
            AggValue::exact(Rat::from(-2i64))
        );
        assert_eq!(
            max_of(&r, 0, &eps(), &ctx).unwrap(),
            AggValue::exact(Rat::from(5i64))
        );
    }
}
