//! The VOLUME aggregate module: 3D measure by slicing — the volume is
//! `∫ area(slice at x) dx`, with the slice areas computed by the SURFACE
//! module on the substituted relation and the outer integral by adaptive
//! Simpson. ("Functions such as SURFACE and VOLUME, very useful in most of
//! the related applications…")

// cdb-lint: allow-file(float) — §5 approximate aggregates: VOLUME integrates slab cross-sections by f64 quadrature; results are flagged inexact
use crate::quad::adaptive_simpson;
use crate::region::{Cell1D, Region1D};
use crate::surface::surface;
use crate::{AggError, AggValue};
use cdb_constraints::{ConstraintRelation, Quantifier};
use cdb_num::Rat;
use cdb_qe::QeContext;

/// Volume of the region of a ternary relation over `(xvar, yvar, zvar)`.
pub fn volume(
    rel: &ConstraintRelation,
    xvar: usize,
    yvar: usize,
    zvar: usize,
    eps: &Rat,
    ctx: &QeContext,
) -> Result<AggValue, AggError> {
    // Project onto x: ∃y∃z rel — gives the integration range(s). Routed
    // through the per-disjunct planner (DESIGN.md §16): linear slabs go
    // through FM/substitution, curved ones fall back to CAD per disjunct.
    let matrix = cdb_constraints::formula::relation_to_formula(rel).to_nnf();
    let shadow = cdb_qe::plan::eliminate_prefix(
        &matrix,
        rel.clone(),
        &[(Quantifier::Exists, yvar), (Quantifier::Exists, zvar)],
        &[xvar],
        rel.nvars(),
        ctx,
    )?;
    let region = Region1D::from_relation(&shadow, xvar, eps, ctx)?;
    let mut total = 0.0f64;
    for cell in &region.cells {
        match cell {
            Cell1D::Point(_) => {}
            Cell1D::Interval(None, _) | Cell1D::Interval(_, None) => {
                return Err(AggError::InfiniteMeasure)
            }
            Cell1D::Interval(Some(lo), Some(hi)) => {
                let (a, b) = (lo.to_f64(), hi.to_f64());
                // Slice area at x: SURFACE of rel with x substituted.
                let integrand = |x: f64| -> f64 {
                    let Some(xr) = Rat::from_f64(x) else {
                        return f64::NAN;
                    };
                    let slice = rel.substitute(xvar, &xr).simplify();
                    match surface(&slice, yvar, zvar, eps, ctx) {
                        Ok(v) => v.to_f64(),
                        Err(_) => f64::NAN,
                    }
                };
                let w = (b - a).max(1e-12);
                let (a2, b2) = (a + 1e-9 * w, b - 1e-9 * w);
                let v = adaptive_simpson(&integrand, a2, b2, 1e-5);
                if v.is_nan() {
                    return Err(AggError::Quadrature("slice area failed".into()));
                }
                total += v;
            }
        }
    }
    AggValue::approx(total)
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
        "1/1000000".parse().unwrap()
    }

    fn unit_cube() -> ConstraintRelation {
        let n = 3;
        let vars: Vec<MPoly> = (0..3).map(|i| MPoly::var(i, n)).collect();
        let mut atoms = Vec::new();
        for v in &vars {
            atoms.push(Atom::new(-v, RelOp::Le));
            atoms.push(Atom::new(v - &c(1, n), RelOp::Le));
        }
        ConstraintRelation::new(n, vec![GeneralizedTuple::new(n, atoms)])
    }

    #[test]
    fn unit_cube_volume() {
        let ctx = QeContext::exact();
        let v = volume(&unit_cube(), 0, 1, 2, &eps(), &ctx).unwrap();
        assert!((v.to_f64() - 1.0).abs() < 1e-4, "{}", v.to_f64());
    }

    /// Slice areas are computed in the caller's context (its worker count,
    /// its cache, its counters), so the caller sees more cells than the
    /// x-shadow's scan alone builds.
    #[test]
    fn slices_evaluate_in_the_callers_context() {
        let rel = unit_cube();
        let ctx = QeContext::exact();
        volume(&rel, 0, 1, 2, &eps(), &ctx).unwrap();

        let scan = QeContext::exact();
        let matrix = cdb_constraints::formula::relation_to_formula(&rel).to_nnf();
        let shadow = cdb_qe::plan::eliminate_prefix(
            &matrix,
            rel.clone(),
            &[(Quantifier::Exists, 1), (Quantifier::Exists, 2)],
            &[0],
            3,
            &scan,
        )
        .unwrap();
        Region1D::from_relation(&shadow, 0, &eps(), &scan).unwrap();

        assert!(
            ctx.cells_built.get() > scan.cells_built.get(),
            "volume built {} cells, the shadow scan alone {}",
            ctx.cells_built.get(),
            scan.cells_built.get()
        );
    }

    #[test]
    fn tetrahedron() {
        // x,y,z ≥ 0, x + y + z ≤ 1: volume 1/6.
        let n = 3;
        let x = MPoly::var(0, n);
        let y = MPoly::var(1, n);
        let z = MPoly::var(2, n);
        let rel = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(
                n,
                vec![
                    Atom::new(-&x, RelOp::Le),
                    Atom::new(-&y, RelOp::Le),
                    Atom::new(-&z, RelOp::Le),
                    Atom::new(&(&(&x + &y) + &z) - &c(1, n), RelOp::Le),
                ],
            )],
        );
        let ctx = QeContext::exact();
        let v = volume(&rel, 0, 1, 2, &eps(), &ctx).unwrap();
        assert!((v.to_f64() - 1.0 / 6.0).abs() < 1e-3, "{}", v.to_f64());
    }

    #[test]
    fn unbounded_volume_undefined() {
        let n = 3;
        let x = MPoly::var(0, n);
        let rel = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(n, vec![Atom::new(-&x, RelOp::Le)])],
        );
        let ctx = QeContext::exact();
        assert!(volume(&rel, 0, 1, 2, &eps(), &ctx).is_err());
    }
}
