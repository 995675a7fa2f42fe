//! LENGTH and AVG aggregate modules.
//!
//! LENGTH of a unary relation is its one-dimensional Lebesgue measure;
//! LENGTH of a binary relation is arc length of its one-dimensional pieces.
//! AVG is the mean of a finite set, or the centroid (`∫x dx / measure`) of
//! a set of positive measure — the paper's motivating "average value of a
//! bond over a period of time".

// cdb-lint: allow-file(float) — §5 approximate aggregates: arc length falls back to f64 quadrature when no exact antiderivative exists; results are flagged inexact
use crate::quad::adaptive_simpson;
use crate::region::{Arc, Cell1D, Region1D, Region2D};
use crate::{AggError, AggValue};
use cdb_constraints::ConstraintRelation;
use cdb_num::Rat;
use cdb_qe::QeContext;

/// 1D measure of a unary relation over `var` (exact when all endpoints are
/// rational).
pub fn length(
    rel: &ConstraintRelation,
    var: usize,
    eps: &Rat,
    ctx: &QeContext,
) -> Result<AggValue, AggError> {
    let region = Region1D::from_relation(rel, var, eps, ctx)?;
    let mut total = Rat::zero();
    let mut exact = true;
    for cell in &region.cells {
        match cell {
            Cell1D::Point(_) => {}
            Cell1D::Interval(None, _) | Cell1D::Interval(_, None) => {
                return Err(AggError::InfiniteMeasure)
            }
            Cell1D::Interval(Some(lo), Some(hi)) => {
                exact = exact && lo.exact && hi.exact;
                total = &total + &(&hi.value - &lo.value);
            }
        }
    }
    Ok(AggValue {
        value: total,
        exact,
    })
}

/// AVG of a unary relation: mean of a finite set, or centroid of a set of
/// positive finite measure. Undefined for empty or unbounded sets.
pub fn avg(
    rel: &ConstraintRelation,
    var: usize,
    eps: &Rat,
    ctx: &QeContext,
) -> Result<AggValue, AggError> {
    let region = Region1D::from_relation(rel, var, eps, ctx)?;
    if region.is_empty() {
        return Err(AggError::EmptyRegion);
    }
    if region.is_finite_set() {
        let mut sum = Rat::zero();
        let mut exact = true;
        let mut n = 0i64;
        for cell in &region.cells {
            let Cell1D::Point(p) = cell else {
                return Err(AggError::Internal(
                    "finite-set region produced a non-point cell".to_owned(),
                ));
            };
            let v = AggValue::of(p, eps);
            sum = &sum + &v.value;
            exact = exact && v.exact;
            n += 1;
        }
        return Ok(AggValue {
            value: &sum / &Rat::from(n),
            exact,
        });
    }
    // Positive measure: centroid = ∫ x dx / measure, over the intervals.
    let mut measure = Rat::zero();
    let mut moment = Rat::zero();
    let mut exact = true;
    for cell in &region.cells {
        match cell {
            Cell1D::Point(_) => {}
            Cell1D::Interval(None, _) | Cell1D::Interval(_, None) => {
                return Err(AggError::Unbounded)
            }
            Cell1D::Interval(Some(lo), Some(hi)) => {
                let (l, h) = (&lo.value, &hi.value);
                exact = exact && lo.exact && hi.exact;
                measure = &measure + &(h - l);
                // ∫ₗʰ x dx = (h² − l²)/2.
                let half = Rat::from_ints(1, 2);
                moment = &moment + &(&(&(h * h) - &(l * l)) * &half);
            }
        }
    }
    Ok(AggValue {
        value: &moment / &measure,
        exact,
    })
}

/// Arc length of the one-dimensional pieces of a binary relation over
/// `(xvar, yvar)`: Σ over arcs of ∫ √(1 + (dy/dx)²) dx, by quadrature with
/// implicit differentiation (`dy/dx = −p_x/p_y` on `p(x, y) = 0`).
pub fn arc_length(
    rel: &ConstraintRelation,
    xvar: usize,
    yvar: usize,
    eps: &Rat,
    ctx: &QeContext,
) -> Result<AggValue, AggError> {
    let region = Region2D::from_relation(rel, xvar, yvar, eps, ctx)?;
    let mut total = 0.0f64;
    for slab in &region.slabs {
        if !slab.bands.is_empty() {
            // A two-dimensional piece has no finite arc length.
            return Err(AggError::InfiniteMeasure);
        }
        match &slab.x_cell {
            Cell1D::Point(_) => {} // vertical point or segment: see below
            Cell1D::Interval(None, _) | Cell1D::Interval(_, None) => {
                if !slab.arcs.is_empty() {
                    return Err(AggError::InfiniteMeasure);
                }
            }
            Cell1D::Interval(Some(lo), Some(hi)) => {
                let (a, b) = (lo.to_f64(), hi.to_f64());
                for arc in &slab.arcs {
                    total += arc_piece_length(&region, arc, a, b)?;
                }
            }
        }
    }
    AggValue::approx(total)
}

fn arc_piece_length(region: &Region2D, arc: &Arc, a: f64, b: f64) -> Result<f64, AggError> {
    let p = &arc.poly;
    let px = p.derivative(region.xvar);
    let py = p.derivative(region.yvar);
    let branch = arc.branch;
    let integrand = |x: f64| -> f64 {
        let Ok(roots) = region.stack_roots_f64(x) else {
            return f64::NAN;
        };
        let Some(&y) = roots.get(branch - 1) else {
            return f64::NAN;
        };
        let mut pt = vec![Rat::zero(); region.nvars];
        pt[region.xvar] = Rat::from_f64(x).unwrap_or_default();
        pt[region.yvar] = Rat::from_f64(y).unwrap_or_default();
        let dx = px.eval(&pt).to_f64();
        let dy = py.eval(&pt).to_f64();
        if dy.abs() < 1e-300 {
            return f64::NAN; // vertical tangent inside the cell: refine
        }
        let slope = -dx / dy;
        (1.0 + slope * slope).sqrt()
    };
    // Shrink slightly away from the endpoints to avoid vertical tangents at
    // cell boundaries (standard for graph pieces of curves).
    let w = b - a;
    let (a2, b2) = (a + 1e-7 * w.max(1.0), b - 1e-7 * w.max(1.0));
    let v = adaptive_simpson(&integrand, a2, b2, 1e-7);
    if v.is_nan() {
        return Err(AggError::Quadrature("vertical tangent in arc".into()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::{Atom, GeneralizedTuple, RelOp};
    use cdb_poly::MPoly;

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    fn eps() -> Rat {
        "1/100000000".parse().unwrap()
    }

    #[test]
    fn length_of_union_of_intervals() {
        // [0,2] ∪ [5,6]: length 3, exact.
        let x = MPoly::var(0, 1);
        let rel = ConstraintRelation::new(
            1,
            vec![
                GeneralizedTuple::new(
                    1,
                    vec![
                        Atom::new(-&x, RelOp::Le),
                        Atom::new(&x - &c(2, 1), RelOp::Le),
                    ],
                ),
                GeneralizedTuple::new(
                    1,
                    vec![
                        Atom::new(&c(5, 1) - &x, RelOp::Le),
                        Atom::new(&x - &c(6, 1), RelOp::Le),
                    ],
                ),
            ],
        );
        let ctx = QeContext::exact();
        let l = length(&rel, 0, &eps(), &ctx).unwrap();
        assert!(l.exact);
        assert_eq!(l.value, Rat::from(3i64));
    }

    #[test]
    fn length_of_sqrt2_interval() {
        // x² ≤ 2: length 2√2 ≈ 2.8284, approximate.
        let x = MPoly::var(0, 1);
        let rel = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(
                1,
                vec![Atom::new(&x.pow(2) - &c(2, 1), RelOp::Le)],
            )],
        );
        let ctx = QeContext::exact();
        let l = length(&rel, 0, &eps(), &ctx).unwrap();
        assert!(!l.exact);
        assert!((l.to_f64() - 2.0 * std::f64::consts::SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn length_unbounded_undefined() {
        let x = MPoly::var(0, 1);
        let rel = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(1, vec![Atom::new(-&x, RelOp::Le)])],
        );
        let ctx = QeContext::exact();
        assert_eq!(
            length(&rel, 0, &eps(), &ctx),
            Err(AggError::InfiniteMeasure)
        );
    }

    #[test]
    fn avg_of_finite_set() {
        // {1, 2, 6} → 3.
        let x = MPoly::var(0, 1);
        let p = &(&(&x - &c(1, 1)) * &(&x - &c(2, 1))) * &(&x - &c(6, 1));
        let rel = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(1, vec![Atom::new(p, RelOp::Eq)])],
        );
        let ctx = QeContext::exact();
        let a = avg(&rel, 0, &eps(), &ctx).unwrap();
        assert!(a.exact);
        assert_eq!(a.value, Rat::from(3i64));
    }

    #[test]
    fn avg_of_interval_is_midpoint() {
        // [2, 6] → 4 (centroid).
        let x = MPoly::var(0, 1);
        let rel = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(
                1,
                vec![
                    Atom::new(&c(2, 1) - &x, RelOp::Le),
                    Atom::new(&x - &c(6, 1), RelOp::Le),
                ],
            )],
        );
        let ctx = QeContext::exact();
        let a = avg(&rel, 0, &eps(), &ctx).unwrap();
        assert!(a.exact);
        assert_eq!(a.value, Rat::from(4i64));
    }

    #[test]
    fn avg_weighted_union() {
        // [0,2] ∪ [4,6]: measure 4, moment (2 + 10) → avg = 3.
        let x = MPoly::var(0, 1);
        let rel = ConstraintRelation::new(
            1,
            vec![
                GeneralizedTuple::new(
                    1,
                    vec![
                        Atom::new(-&x, RelOp::Le),
                        Atom::new(&x - &c(2, 1), RelOp::Le),
                    ],
                ),
                GeneralizedTuple::new(
                    1,
                    vec![
                        Atom::new(&c(4, 1) - &x, RelOp::Le),
                        Atom::new(&x - &c(6, 1), RelOp::Le),
                    ],
                ),
            ],
        );
        let ctx = QeContext::exact();
        let a = avg(&rel, 0, &eps(), &ctx).unwrap();
        assert_eq!(a.value, Rat::from(3i64));
    }

    #[test]
    fn arc_length_of_line_segment() {
        // y = x for 0 ≤ x ≤ 3: length 3√2.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![
                    Atom::new(&y - &x, RelOp::Eq),
                    Atom::new(-&x, RelOp::Le),
                    Atom::new(&x - &c(3, 2), RelOp::Le),
                ],
            )],
        );
        let ctx = QeContext::exact();
        let l = arc_length(&rel, 0, 1, &eps(), &ctx).unwrap();
        assert!((l.to_f64() - 3.0 * std::f64::consts::SQRT_2).abs() < 1e-4);
    }

    /// `y = 2·10¹⁵⁴·x` on `[0, 1]`: the integrand `√(1 + slope²)` overflows
    /// to `+∞`, and the answer is a quadrature error, not a number.
    #[test]
    fn arc_length_that_overflows_is_an_error() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let steep = &Rat::from(2i64) * &Rat::from(cdb_num::Int::from(10i64).pow(154));
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![
                    Atom::new(&y - &x.scale(&steep), RelOp::Eq),
                    Atom::new(-&x, RelOp::Le),
                    Atom::new(&x - &c(1, 2), RelOp::Le),
                ],
            )],
        );
        let ctx = QeContext::exact();
        let got = arc_length(&rel, 0, 1, &eps(), &ctx);
        assert!(matches!(got, Err(AggError::Quadrature(_))), "{got:?}");
    }

    #[test]
    fn arc_length_of_parabola_piece() {
        // y = x² on [0, 1]: ∫√(1+4x²) = (2√5 + asinh 2)/4 ≈ 1.478942857.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![
                    Atom::new(&y - &x.pow(2), RelOp::Eq),
                    Atom::new(-&x, RelOp::Le),
                    Atom::new(&x - &c(1, 2), RelOp::Le),
                ],
            )],
        );
        let ctx = QeContext::exact();
        let l = arc_length(&rel, 0, 1, &eps(), &ctx).unwrap();
        let expect = (2.0 * 5f64.sqrt() + 2f64.asinh()) / 4.0;
        assert!(
            (l.to_f64() - expect).abs() < 1e-4,
            "{} vs {expect}",
            l.to_f64()
        );
    }
}
