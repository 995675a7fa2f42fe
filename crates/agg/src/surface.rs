//! The SURFACE aggregate module: the area of a two-dimensional region,
//! "mathematically defined as" the integral of (upper − lower) over the
//! base cells — exactly the paper's worked example
//! `SURFACE_{x,y}(S(x,y) ∧ y ≤ 9) = 27 − ∫₁⁴(−4x² + 20x − 25)dx = 18`.
//!
//! Bands whose bounds are polynomial graphs over x-cells with rational
//! endpoints are integrated **exactly** (antiderivatives over `Q[x]`);
//! everything else falls back to adaptive Simpson quadrature on the branch
//! root functions.

// cdb-lint: allow-file(float) — §5 approximate aggregates: SURFACE integrates band areas by f64 quadrature; results are flagged inexact
use crate::quad::adaptive_simpson;
use crate::region::{Band, BoundFn, Cell1D, Region2D};
use crate::{AggError, AggValue};
use cdb_constraints::ConstraintRelation;
use cdb_num::Rat;
use cdb_qe::QeContext;

/// Area of the region of a binary relation over `(xvar, yvar)`.
pub fn surface(
    rel: &ConstraintRelation,
    xvar: usize,
    yvar: usize,
    eps: &Rat,
    ctx: &QeContext,
) -> Result<AggValue, AggError> {
    let region = Region2D::from_relation(rel, xvar, yvar, eps, ctx)?;
    let mut exact_total = Rat::zero();
    let mut approx_total = 0.0f64;
    let mut all_exact = true;
    for slab in &region.slabs {
        let (lo, hi) = match &slab.x_cell {
            Cell1D::Point(_) => continue, // measure-zero slab
            Cell1D::Interval(None, _) | Cell1D::Interval(_, None) => {
                if slab.bands.is_empty() {
                    continue;
                }
                return Err(AggError::InfiniteMeasure);
            }
            Cell1D::Interval(Some(lo), Some(hi)) => (lo, hi),
        };
        for band in &slab.bands {
            let (Some(lower), Some(upper)) = (&band.lower, &band.upper) else {
                return Err(AggError::InfiniteMeasure);
            };
            match (lower, upper) {
                (BoundFn::Poly(gl), BoundFn::Poly(gu)) if lo.exact && hi.exact => {
                    // Exact: ∫ₐᵇ (gu − gl) dx.
                    let diff = gu - gl;
                    exact_total = &exact_total + &diff.integrate(&lo.value, &hi.value);
                }
                _ => {
                    all_exact = false;
                    approx_total +=
                        integrate_band_numeric(&region, band, lo.to_f64(), hi.to_f64())?;
                }
            }
        }
    }
    if all_exact {
        Ok(AggValue::exact(exact_total))
    } else {
        AggValue::approx(exact_total.to_f64() + approx_total)
    }
}

/// `∫ₐᵇ (upper − lower) dx` by quadrature over the x-interval `(a, b)`.
fn integrate_band_numeric(region: &Region2D, band: &Band, a: f64, b: f64) -> Result<f64, AggError> {
    let eval_bound = |bf: &BoundFn, x: f64| -> f64 {
        match bf {
            BoundFn::Poly(g) => g.eval_f64(x),
            BoundFn::Branch(k) => match region.stack_roots_f64(x) {
                Ok(roots) => roots.get(k - 1).copied().unwrap_or(f64::NAN),
                Err(_) => f64::NAN,
            },
        }
    };
    let (Some(lower), Some(upper)) = (band.lower.as_ref(), band.upper.as_ref()) else {
        return Err(AggError::Unbounded);
    };
    let integrand = |x: f64| eval_bound(upper, x) - eval_bound(lower, x);
    // Shrink marginally to dodge branch collisions at cell boundaries.
    let w = (b - a).max(1e-12);
    let (a2, b2) = (a + 1e-7 * w, b - 1e-7 * w);
    let v = adaptive_simpson(&integrand, a2, b2, 1e-6);
    if v.is_nan() {
        return Err(AggError::Quadrature("branch evaluation failed".into()));
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

    /// **The paper's §2 / Example 5.4 computation**:
    /// SURFACE(S(x,y) ∧ y ≤ 9) = 18, exactly.
    #[test]
    fn paper_surface_example_is_18() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let s = &(&(&c(4, 2) * &x.pow(2)) - &y) - &(&(&c(20, 2) * &x) - &c(25, 2));
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![Atom::new(s, RelOp::Le), Atom::new(&y - &c(9, 2), RelOp::Le)],
            )],
        );
        let ctx = QeContext::exact();
        let a = surface(&rel, 0, 1, &eps(), &ctx).unwrap();
        assert!(a.exact, "polynomial bounds integrate exactly");
        assert_eq!(a.value, Rat::from(18i64));
    }

    #[test]
    fn unit_square_area() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![
                    Atom::new(-&x, RelOp::Le),
                    Atom::new(&x - &c(1, 2), RelOp::Le),
                    Atom::new(-&y, RelOp::Le),
                    Atom::new(&y - &c(1, 2), RelOp::Le),
                ],
            )],
        );
        let ctx = QeContext::exact();
        let a = surface(&rel, 0, 1, &eps(), &ctx).unwrap();
        assert!(a.exact);
        assert_eq!(a.value, Rat::one());
    }

    #[test]
    fn triangle_area() {
        // The paper's §3 triangle: x ≤ y ∧ x ≥ 0 ∧ y ≤ 10 → area 50.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![
                    Atom::new(&x - &y, RelOp::Le),
                    Atom::new(-&x, RelOp::Le),
                    Atom::new(&y - &c(10, 2), RelOp::Le),
                ],
            )],
        );
        let ctx = QeContext::exact();
        let a = surface(&rel, 0, 1, &eps(), &ctx).unwrap();
        assert!(a.exact);
        assert_eq!(a.value, Rat::from(50i64));
    }

    #[test]
    fn circle_area_numeric() {
        // x² + y² ≤ 1: π (branch bounds are not polynomial graphs).
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![Atom::new(&(&x.pow(2) + &y.pow(2)) - &c(1, 2), RelOp::Le)],
            )],
        );
        let ctx = QeContext::exact();
        let a = surface(&rel, 0, 1, &eps(), &ctx).unwrap();
        assert!(!a.exact);
        assert!(
            (a.to_f64() - std::f64::consts::PI).abs() < 1e-3,
            "{} vs π",
            a.to_f64()
        );
    }

    #[test]
    fn unbounded_region_undefined() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![Atom::new(&y - &x, RelOp::Le), Atom::new(-&x, RelOp::Le)],
            )],
        );
        let ctx = QeContext::exact();
        assert_eq!(
            surface(&rel, 0, 1, &eps(), &ctx),
            Err(AggError::InfiniteMeasure)
        );
    }

    #[test]
    fn empty_region_zero_area() {
        let x = MPoly::var(0, 2);
        let rel = ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![
                    Atom::new(&x - &c(1, 2), RelOp::Lt),
                    Atom::new(&c(2, 2) - &x, RelOp::Lt),
                ],
            )],
        );
        let ctx = QeContext::exact();
        let a = surface(&rel, 0, 1, &eps(), &ctx).unwrap();
        assert_eq!(a.value, Rat::zero());
    }
}
