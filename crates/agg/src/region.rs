//! Region scanning: turn a constraint relation into measurable geometry
//! via its CAD — 1D cell lists and 2D slab/band decompositions.
//!
//! This is the bridge between the symbolic world (generalized tuples) and
//! the numeric world (integration): exactly the structure Appendix I's CAD
//! provides ("the cells are indexed in a simple way which permits to
//! determine their dimension and their relative positions in the stacks").

// cdb-lint: allow-file(float) — §5 approximate aggregates: region scanning feeds the quadrature paths, whose results are explicitly flagged inexact via AggValue::exact
use crate::{AggError, AggValue};
use cdb_constraints::formula::relation_to_formula;
use cdb_constraints::ConstraintRelation;
use cdb_num::{Rat, Sign};
use cdb_poly::{MPoly, Partial, RealAlg, UPoly};
use cdb_qe::cad::{build_cad, eval_formula_at_cell, CadCell};
use cdb_qe::QeContext;
use std::collections::BTreeMap;

/// A cell of a one-dimensional region.
#[derive(Debug, Clone)]
pub enum Cell1D {
    /// An isolated point.
    Point(RealAlg),
    /// An open interval; `None` endpoints are infinite. A finite end is
    /// its root when rational, else a rational within the region's `eps`.
    Interval(Option<AggValue>, Option<AggValue>),
}

/// A one-dimensional region: true cells of the CAD of a unary relation,
/// ascending.
#[derive(Debug, Clone)]
pub struct Region1D {
    /// The cells.
    pub cells: Vec<Cell1D>,
}

impl Region1D {
    /// Scan a relation that constrains the single variable `var`; interval
    /// ends are approximated to `eps`.
    pub fn from_relation(
        rel: &ConstraintRelation,
        var: usize,
        eps: &Rat,
        ctx: &QeContext,
    ) -> Result<Region1D, AggError> {
        if rel.is_syntactically_empty() {
            return Ok(Region1D { cells: Vec::new() });
        }
        let polys = rel.polynomials();
        if polys.is_empty() {
            // Trivial relation: either all of R or empty; sample at 0.
            return Ok(if rel.satisfied_at(&vec![Rat::zero(); rel.nvars()]) {
                Region1D {
                    cells: vec![Cell1D::Interval(None, None)],
                }
            } else {
                Region1D { cells: Vec::new() }
            });
        }
        let cad = build_cad(&polys, &[var], rel.nvars(), ctx)?;
        let matrix = relation_to_formula(rel);
        let Some(cells) = cad.levels.first() else {
            return Err(AggError::Internal("1-D CAD has no levels".to_owned()));
        };
        let Some(last) = cells.last() else {
            return Ok(Region1D { cells: Vec::new() });
        };
        let max_index = cell_index(last, 0)?;
        let mut ends = BTreeMap::new();
        let mut out = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            if eval_formula_at_cell(&cad, cell, &matrix, ctx)? {
                out.push(x_cell(cells, i, max_index, eps, &mut ends)?);
            }
        }
        Ok(Region1D { cells: out })
    }

    /// True iff no true cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All cells are points (the region is a finite set).
    #[must_use]
    pub fn is_finite_set(&self) -> bool {
        self.cells.iter().all(|c| matches!(c, Cell1D::Point(_)))
    }
}

/// Level-1 cell `cells[i]` as a [`Cell1D`]: a section is its root; a sector
/// is the open interval between the sections around it, unbounded below the
/// first and above the last (stack position `max_index`). Each root is
/// approximated to `eps` once per region: `ends` keeps the approximations
/// by section index, so neighbouring sectors share their common end.
fn x_cell(
    cells: &[CadCell],
    i: usize,
    max_index: usize,
    eps: &Rat,
    ends: &mut BTreeMap<usize, AggValue>,
) -> Result<Cell1D, AggError> {
    let pos = cell_index(&cells[i], 0)?;
    if pos % 2 == 0 {
        return Ok(Cell1D::Point(cell_coord(&cells[i], 0)?.clone()));
    }
    let mut end = |j: usize| -> Result<Option<AggValue>, AggError> {
        let Some(cell) = cells.get(j) else {
            return Ok(None);
        };
        if let Some(v) = ends.get(&j) {
            return Ok(Some(v.clone()));
        }
        let v = AggValue::of(cell_coord(cell, 0)?, eps);
        ends.insert(j, v.clone());
        Ok(Some(v))
    };
    let lo = match i.checked_sub(1) {
        Some(j) if pos != 1 => end(j)?,
        _ => None,
    };
    let hi = if pos == max_index { None } else { end(i + 1)? };
    Ok(Cell1D::Interval(lo, hi))
}

/// Index entry of a CAD cell at `level` (cells at level ℓ carry ℓ+1 entries).
fn cell_index(cell: &CadCell, level: usize) -> Result<usize, AggError> {
    cell.index.get(level).copied().ok_or_else(|| {
        AggError::Internal(format!("CAD cell carries no index entry at level {level}"))
    })
}

/// Sample coordinate of a CAD cell at `level`.
fn cell_coord(cell: &CadCell, level: usize) -> Result<&RealAlg, AggError> {
    cell.sample.get(level).ok_or_else(|| {
        AggError::Internal(format!(
            "CAD cell carries no sample coordinate at level {level}"
        ))
    })
}

/// A function bounding a band from below or above.
#[derive(Debug, Clone)]
pub enum BoundFn {
    /// Exactly `y = g(x)` for a univariate polynomial `g` (the bounding
    /// section's polynomial is linear in `y` with constant leading
    /// coefficient) — enables exact integration.
    Poly(UPoly),
    /// The `branch`-th root (1-based) of the merged stack of the region's
    /// level-2 polynomials over `x`.
    Branch(usize),
}

/// A vertical band: a true sector cell of a stack.
#[derive(Debug, Clone)]
pub struct Band {
    /// Lower bound (`None` = −∞).
    pub lower: Option<BoundFn>,
    /// Upper bound (`None` = +∞).
    pub upper: Option<BoundFn>,
}

/// A section arc: a true section cell (piece of a curve `p(x, y) = 0`).
#[derive(Debug, Clone)]
pub struct Arc {
    /// The branch index in the merged stack.
    pub branch: usize,
    /// A polynomial vanishing on the arc (for implicit differentiation).
    pub poly: MPoly,
}

/// Everything above one x-cell.
#[derive(Debug, Clone)]
pub struct Slab {
    /// The x-cell: a point (section) or an interval.
    pub x_cell: Cell1D,
    /// True sector cells.
    pub bands: Vec<Band>,
    /// True section cells (curve pieces).
    pub arcs: Vec<Arc>,
}

/// A two-dimensional region decomposition.
pub struct Region2D {
    /// Ambient arity of the relation.
    pub nvars: usize,
    /// The x variable.
    pub xvar: usize,
    /// The y variable.
    pub yvar: usize,
    /// Level-2 polynomials of the CAD (for branch evaluation).
    pub fiber_polys: Vec<MPoly>,
    /// The slabs, in x order.
    pub slabs: Vec<Slab>,
}

impl Region2D {
    /// Scan a relation constraining variables `xvar` and `yvar`; the ends
    /// of the slabs' x-intervals are approximated to `eps`.
    pub fn from_relation(
        rel: &ConstraintRelation,
        xvar: usize,
        yvar: usize,
        eps: &Rat,
        ctx: &QeContext,
    ) -> Result<Region2D, AggError> {
        let polys = rel.polynomials();
        let cad = build_cad(&polys, &[xvar, yvar], rel.nvars(), ctx)?;
        let matrix = relation_to_formula(rel);
        let Some(fiber_ids) = cad.level_poly_ids.get(1) else {
            return Err(AggError::Internal(
                "2-D CAD has no level-2 polynomials".to_owned(),
            ));
        };
        let fiber_polys: Vec<MPoly> = fiber_ids
            .iter()
            .map(|&id| cad.registry.get(id).clone())
            .collect();
        let (Some(level1), Some(level2)) = (cad.levels.first(), cad.levels.get(1)) else {
            return Err(AggError::Internal("2-D CAD is missing a level".to_owned()));
        };
        let max_x_index = match level1.last() {
            Some(c) => cell_index(c, 0)?,
            None => 1,
        };
        // Lifting lays each level-1 cell's stack out as one run of level 2,
        // in parent order.
        let mut ends = BTreeMap::new();
        let mut slabs = Vec::new();
        for children in level2.chunk_by(|a, b| a.parent == b.parent) {
            let (Some(first), Some(last)) = (children.first(), children.last()) else {
                continue;
            };
            let pi = first
                .parent
                .ok_or_else(|| AggError::Internal("level-2 CAD cell has no parent".to_owned()))?;
            let max_y_index = cell_index(last, 1)?;
            let mut bands = Vec::new();
            let mut arcs = Vec::new();
            for (ci, cell) in children.iter().enumerate() {
                if !eval_formula_at_cell(&cad, cell, &matrix, ctx)? {
                    continue;
                }
                let pos = cell_index(cell, 1)?;
                if pos % 2 == 0 {
                    // Section: find a vanishing level-2 polynomial.
                    let poly = fiber_ids
                        .iter()
                        .find(|&&id| cell.signs.get(&id) == Some(&Sign::Zero))
                        .map(|&id| cad.registry.get(id).clone());
                    if let Some(poly) = poly {
                        arcs.push(Arc {
                            branch: pos / 2,
                            poly,
                        });
                    }
                } else {
                    let lower = if pos == 1 {
                        None
                    } else {
                        Some(bound_of_section(&cad, &children[ci - 1], yvar, pos / 2))
                    };
                    let upper = if pos == max_y_index {
                        None
                    } else {
                        Some(bound_of_section(&cad, &children[ci + 1], yvar, pos / 2 + 1))
                    };
                    bands.push(Band { lower, upper });
                }
            }
            if !bands.is_empty() || !arcs.is_empty() {
                slabs.push(Slab {
                    x_cell: x_cell(level1, pi, max_x_index, eps, &mut ends)?,
                    bands,
                    arcs,
                });
            }
        }
        Ok(Region2D {
            nvars: rel.nvars(),
            xvar,
            yvar,
            fiber_polys,
            slabs,
        })
    }

    /// Fast approximate stack roots for quadrature: the sample `x` is
    /// snapped to a dyadic rational (bounded coefficient growth), roots are
    /// isolated to ~1e-12 and deduplicated by closeness. Used only on
    /// numeric integration paths, where the integral itself is approximate.
    pub fn stack_roots_f64(&self, x: f64) -> Result<Vec<f64>, AggError> {
        // Snap to a denominator of 2^24: generic enough for interior
        // samples, small enough to keep isolation fast.
        let snapped = (x * 16_777_216.0).round() / 16_777_216.0;
        let xr = Rat::from_f64(snapped)
            .ok_or_else(|| AggError::Quadrature("non-finite sample".into()))?;
        let eps: Rat = Rat::new(cdb_num::Int::one(), cdb_num::Int::pow2(40));
        let mut point = vec![None; self.nvars];
        point[self.xvar] = Some(xr);
        let mut all: Vec<f64> = Vec::new();
        for p in &self.fiber_polys {
            let u = match p.eval_partial(&point) {
                Partial::Constant(_) => continue,
                Partial::Univariate(v, u) if v == self.yvar => u,
                _ => {
                    return Err(AggError::Quadrature(
                        "fiber polynomial kept extra variables".into(),
                    ))
                }
            };
            for r in RealAlg::roots_of(&u) {
                all.push(r.approx(&eps).to_f64());
            }
        }
        all.sort_by(f64::total_cmp);
        all.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        Ok(all)
    }
}

/// Extract the bound function of a section cell: an exact polynomial graph
/// when some vanishing polynomial is linear in `y` with constant leading
/// coefficient; otherwise the branch index.
fn bound_of_section(cad: &cdb_qe::cad::Cad, cell: &CadCell, yvar: usize, branch: usize) -> BoundFn {
    for &id in cad.level_poly_ids.get(1).into_iter().flatten() {
        if cell.signs.get(&id) != Some(&Sign::Zero) {
            continue;
        }
        let p = cad.registry.get(id);
        if p.degree_in(yvar) != 1 {
            continue;
        }
        let coeffs = p.as_upoly_in(yvar);
        let Some(c1) = coeffs.get(1).and_then(MPoly::to_constant) else {
            continue;
        };
        // y = −c0(x)/c1; exact only when c0 is univariate in x.
        let Some(&xvar) = cad.order.first() else {
            break;
        };
        if let Some(c0) = coeffs.first().and_then(|c| c.to_upoly_in(xvar)) {
            return BoundFn::Poly(c0.scale(&-(c1.recip())));
        }
    }
    BoundFn::Branch(branch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::{Atom, GeneralizedTuple, RelOp};

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    fn eps() -> Rat {
        "1/100000000".parse().unwrap()
    }

    fn interval_rel() -> ConstraintRelation {
        // 0 ≤ x ≤ 2 ∪ {4}
        let x = MPoly::var(0, 1);
        ConstraintRelation::new(
            1,
            vec![
                GeneralizedTuple::new(
                    1,
                    vec![
                        Atom::new(-&x, RelOp::Le),
                        Atom::new(&x - &c(2, 1), RelOp::Le),
                    ],
                ),
                GeneralizedTuple::new(1, vec![Atom::new(&x - &c(4, 1), RelOp::Eq)]),
            ],
        )
    }

    #[test]
    fn region1d_cells() {
        let ctx = QeContext::exact();
        let r = Region1D::from_relation(&interval_rel(), 0, &eps(), &ctx).unwrap();
        // Sections at 0 and 2 are *in* the set (≤), plus the open interval
        // and the isolated point 4: point(0), (0,2), point(2), point(4).
        assert_eq!(r.cells.len(), 4);
        assert!(!r.is_finite_set());
        match &r.cells[1] {
            Cell1D::Interval(Some(lo), Some(hi)) => {
                assert_eq!(*lo, AggValue::exact(Rat::zero()));
                assert_eq!(*hi, AggValue::exact(Rat::from(2i64)));
            }
            other => panic!("expected bounded interval, got {other:?}"),
        }
        match &r.cells[3] {
            Cell1D::Point(p) => assert_eq!(p.to_rat(), Some(Rat::from(4i64))),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn region1d_unbounded() {
        let x = MPoly::var(0, 1);
        let rel = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(1, vec![Atom::new(-&x, RelOp::Le)])],
        );
        let ctx = QeContext::exact();
        let r = Region1D::from_relation(&rel, 0, &eps(), &ctx).unwrap();
        assert!(r
            .cells
            .iter()
            .any(|c| matches!(c, Cell1D::Interval(_, None))));
    }

    #[test]
    fn region2d_paper_surface_region() {
        // S(x,y) ∧ y ≤ 9 with S ≡ 4x² − y − 20x + 25 ≤ 0.
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
        let region = Region2D::from_relation(&rel, 0, 1, &eps(), &ctx).unwrap();
        // Open slabs over (1, 5/2) and (5/2, 4) plus measure-zero pieces.
        let open_slabs: Vec<&Slab> = region
            .slabs
            .iter()
            .filter(|s| matches!(&s.x_cell, Cell1D::Interval(Some(_), Some(_))))
            .collect();
        assert_eq!(open_slabs.len(), 2);
        for slab in &open_slabs {
            assert_eq!(slab.bands.len(), 1);
            let band = &slab.bands[0];
            // Both bounds are exact polynomial graphs.
            assert!(matches!(band.lower, Some(BoundFn::Poly(_))));
            assert!(matches!(band.upper, Some(BoundFn::Poly(_))));
        }
        // Lower bound at x = 2 is the parabola: y = 4·4 − 40 + 25 = 1.
        if let Some(BoundFn::Poly(g)) = &open_slabs[0].bands[0].lower {
            assert_eq!(g.eval(&Rat::from(2i64)), Rat::one());
        }
        if let Some(BoundFn::Poly(g)) = &open_slabs[0].bands[0].upper {
            assert_eq!(g.eval(&Rat::from(2i64)), Rat::from(9i64));
        }
    }
}
