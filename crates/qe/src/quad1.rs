//! Bound elimination of one variable — the planner's Fourier–Motzkin and
//! quadratic tiers, between substitution and full CAD (DESIGN.md §16).
//!
//! When the target variable `v` occurs at degree ≤ 2 in every atom of a
//! disjunct, with a *constant* leading coefficient and at most one atom of
//! degree exactly 2, `∃v` is eliminated by explicit formulas instead of a
//! cylindrical decomposition. Every atom linear in `v` is isolated into a
//! lower or upper bound on `v` (a polynomial in the other variables), and
//! every lower bound is paired with every upper bound. With no degree-2
//! atom that pairing *is* Fourier–Motzkin, and the answer is the atoms not
//! using `v` followed by the pairs. Otherwise write the quadratic atom
//! (normalized to `a > 0`) as
//!
//! ```text
//! a·v² + b·v + c  ⋈  0,        D = b² − 4ac,   r± = (−b ± √D) / (2a)
//! ```
//!
//! where `b`, `c` (hence `D`) are polynomials in the remaining variables.
//! For `⋈ ∈ {≤, <}` the atom means `v ∈ [r−, r+]` (resp. open), so the
//! roots join the linear bounds as one more lower/upper pair; for
//! `{≥, >}` it means `v ≤ r−  ∨  v ≥ r+  ∨` "no real roots"; for `=` it
//! pins `v` to one of the roots. Each comparison of a linear bound `t`
//! against a root reduces — because `a > 0` — to comparing
//! `A = 2a·t + b` against `±√D`, and those comparisons have quantifier-free
//! sign-condition forms (valid whenever `D ≥ 0`, which each branch
//! conjoins):
//!
//! ```text
//! A ≤ √D  ⇔ A ≤ 0 ∨ A² ≤ D        A < √D  ⇔ A < 0 ∨ A² < D
//! A ≤ −√D ⇔ A ≤ 0 ∧ A² ≥ D        A < −√D ⇔ A < 0 ∧ A² > D
//! √D ≤ B  ⇔ B ≥ 0 ∧ B² ≥ D        √D < B  ⇔ B > 0 ∧ B² > D
//! −√D ≤ B ⇔ B ≥ 0 ∨ B² ≤ D        −√D < B ⇔ B > 0 ∨ B² < D
//! ```
//!
//! (see DESIGN.md §16 for the derivations). Disjunctive forms split the
//! disjunct — the output stays DNF. The planner sends a disjunct here only
//! when substitution does not apply, so it has no linear equality in `v`.
//! Everything is certified against `cad::eliminate` by the differential
//! tests in `tests/plan_differential.rs`, and the printed output is pinned
//! by `tests/eliminator_bytes.rs`.

use crate::{QeContext, QeError};
use cdb_constraints::{Atom, GeneralizedTuple, RelOp};
use cdb_num::{Rat, Sign};
use cdb_poly::{MPoly, Terms};

/// The number of degree-2 atoms in `var` when this module can eliminate
/// `∃ var` from the disjunct — every atom using `var` has degree ≤ 2 in it
/// with a constant leading coefficient — else `None`. The planner reads
/// `Some(0)` as Fourier–Motzkin and `Some(1)` as the quadratic shortcut.
/// (`≠` atoms are fine — they are split into `<` / `>` before elimination.)
#[must_use]
pub fn degree2_atoms(tuple: &GeneralizedTuple, var: usize) -> Option<usize> {
    let mut quads = 0usize;
    for atom in tuple.atoms() {
        match atom.poly.degree_in(var) {
            0 => {}
            deg @ (1 | 2) => {
                atom.poly.lead_coeff_in(var)?;
                quads += usize::from(deg == 2);
            }
            _ => return None,
        }
    }
    Some(quads)
}

/// `atoms` followed by every lower × upper pair `l ⋈ u` (`<` when either
/// bound is strict, else `≤`; density of the reals): the Fourier–Motzkin
/// step, budget-checked pair by pair.
fn paired(
    mut atoms: Vec<Atom>,
    lowers: &[(Terms, bool)],
    uppers: &[(Terms, bool)],
    ctx: &QeContext,
) -> Result<Vec<Atom>, QeError> {
    for (l, ls) in lowers {
        for (u, us) in uppers {
            let d = (l - u).seal();
            ctx.observe_poly(&d)?;
            atoms.push(Atom::new(d, if *ls || *us { RelOp::Lt } else { RelOp::Le }));
        }
    }
    Ok(atoms)
}

/// One of the quadratic atom's roots `r±`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Root {
    Minus,
    Plus,
}

/// One family of output branches for the quadratic atom's operator: the
/// sign condition on `D`, the root every lower bound must lie below and the
/// root every upper bound must lie above (`None`: that side is free).
type Family = (RelOp, Option<Root>, Option<Root>);

/// The families for the (normalized, `a > 0`) quadratic operator, in output
/// order.
fn families(op: RelOp) -> &'static [Family] {
    use Root::{Minus, Plus};
    match op {
        // v ∈ [r−, r+] (open when strict): the roots join the bound
        // pairing — feasibility of r− ⋈ r+ is exactly D ≥ 0 (resp. > 0).
        RelOp::Le => &[(RelOp::Ge, Some(Plus), Some(Minus))],
        RelOp::Lt => &[(RelOp::Gt, Some(Plus), Some(Minus))],
        // Three overlapping families: no real roots (the parabola never
        // dips below zero), v ≤ r−, and v ≥ r+.
        RelOp::Ge => &[
            (RelOp::Le, None, None),
            (RelOp::Ge, Some(Minus), None),
            (RelOp::Ge, None, Some(Plus)),
        ],
        RelOp::Gt => &[
            (RelOp::Lt, None, None),
            (RelOp::Ge, Some(Minus), None),
            (RelOp::Ge, None, Some(Plus)),
        ],
        // v = r− or v = r+ (both need D ≥ 0); linear bounds must hold at
        // the chosen root.
        RelOp::Eq => &[
            (RelOp::Ge, Some(Minus), Some(Minus)),
            (RelOp::Ge, Some(Plus), Some(Plus)),
        ],
        // Rejected before the families are read.
        RelOp::Ne => &[],
    }
}

/// The degree-2 atom normalized to `a > 0`: `2a`, `b`, and `D = b² − 4ac`.
struct Quadratic {
    two_a: Rat,
    b: Terms,
    d: MPoly,
}

impl Quadratic {
    /// Conjoin to every branch that the linear bound `t` lies below the
    /// root (a lower bound, `upper = false`) or above it (an upper bound),
    /// strictly when `strict`. With `A = 2a·t + b` that is `A ⋈ ±√D` or
    /// `±√D ⋈ A`. A lower bound against `r+` or an upper bound against `r−`
    /// holds when `A` is on the bound's side of 0 (`A ⋈ 0` for a lower
    /// bound, `0 ⋈ A` for an upper one) *or* `A² ⋈ D`: a disjunction, which
    /// doubles the branches. A lower bound against `r−` or an upper bound
    /// against `r+` needs `A` on the bound's side *and* `D ⋈ A²`: a
    /// conjunction. The `A` atom comes first either way.
    fn compare(
        &self,
        branches: &mut Vec<Vec<Atom>>,
        t: &Terms,
        upper: bool,
        root: Root,
        strict: bool,
        ctx: &QeContext,
    ) -> Result<(), QeError> {
        let a_t = (&t.clone().scale(&self.two_a) + &self.b).seal();
        ctx.observe_poly(&a_t)?;
        let sq = (&(a_t.as_terms() * a_t.as_terms()) - self.d.as_terms()).seal();
        ctx.observe_poly(&sq)?;
        let (le, ge) = if strict {
            (RelOp::Lt, RelOp::Gt)
        } else {
            (RelOp::Le, RelOp::Ge)
        };
        let side = Atom::new(a_t, if upper { ge } else { le });
        if upper != (root == Root::Plus) {
            let square = Atom::new(sq, le);
            let mut next = Vec::with_capacity(branches.len() * 2);
            for b in branches.drain(..) {
                let mut x = b.clone();
                x.push(side.clone());
                next.push(x);
                let mut y = b;
                y.push(square.clone());
                next.push(y);
            }
            *branches = next;
        } else {
            let square = Atom::new(sq, ge);
            for b in branches.iter_mut() {
                b.extend([side.clone(), square.clone()]);
            }
        }
        Ok(())
    }
}

/// Eliminate `∃ var` from one disjunct with at most one degree-2 atom
/// ([`degree2_atoms`] is 0 or 1) and no linear equality in `var`; `≠`
/// atoms using `var` must be split beforehand (the planner ensures all of
/// it). With no degree-2 atom the result is the Fourier–Motzkin tuple (or
/// nothing when it simplifies to false); otherwise a small DNF (the
/// branches of the sign-condition disjunctions), each tuple free of `var`.
pub fn eliminate_tuple(
    tuple: &GeneralizedTuple,
    var: usize,
    ctx: &QeContext,
) -> Result<Vec<GeneralizedTuple>, QeError> {
    let unsupported = || {
        QeError::Unsupported(format!(
            "bound elimination: disjunct exceeds degree 2 in x{var}, has a \
             symbolic leading coefficient, or has two distinct quadratic atoms"
        ))
    };
    if degree2_atoms(tuple, var).is_none_or(|quads| quads > 1) {
        return Err(unsupported());
    }
    let nvars = tuple.nvars();
    let mut passthrough: Vec<Atom> = Vec::new();
    let mut lowers: Vec<(Terms, bool)> = Vec::new(); // (bound, strict)
    let mut uppers: Vec<(Terms, bool)> = Vec::new();
    let mut quad: Option<(Rat, Terms, Terms, RelOp)> = None; // a>0, b, c, op
    for atom in tuple.atoms() {
        let deg = atom.poly.degree_in(var);
        if deg == 0 {
            passthrough.push(atom.clone());
            continue;
        }
        if atom.op == RelOp::Ne {
            return Err(QeError::Unsupported(
                "bound elimination: `≠` atom not split before elimination".into(),
            ));
        }
        let lead = atom.poly.lead_coeff_in(var).ok_or_else(unsupported)?;
        let mut rest = atom.poly.coeffs_in(var).into_iter();
        let c0 = rest.next().unwrap_or_else(|| Terms::zero(nvars));
        if deg == 2 {
            let c1 = rest.next().unwrap_or_else(|| Terms::zero(nvars));
            quad = Some(if lead.sign() == Sign::Neg {
                (-lead, -c1, -c0, atom.op.flipped())
            } else {
                (lead, c1, c0, atom.op)
            });
            continue;
        }
        // lead·var + rest σ 0 ⇔ var σ' −rest/lead.
        let bound = c0.scale(&(-lead.recip()));
        ctx.observe_bits(bound.max_coeff_bits())?;
        let op = if lead.sign() == Sign::Neg {
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
                    "bound elimination: linear equality not substituted before elimination".into(),
                ))
            }
            RelOp::Ne => {} // rejected above
        }
    }
    let Some((a, b, c, qop)) = quad else {
        let atoms = paired(passthrough, &lowers, &uppers, ctx)?;
        return Ok(GeneralizedTuple::new(nvars, atoms)
            .simplify()
            .into_iter()
            .collect());
    };
    let two_a = &a + &a;
    let d = (&(&b * &b) - &c.scale(&(&two_a + &two_a))).seal();
    ctx.observe_poly(&d)?;
    // Bounds must still pair among themselves in every branch.
    let base = paired(passthrough, &lowers, &uppers, ctx)?;
    let q = Quadratic { two_a, b, d };
    let qs = matches!(qop, RelOp::Lt | RelOp::Gt);
    let mut out: Vec<GeneralizedTuple> = Vec::new();
    for &(d_op, lower_root, upper_root) in families(qop) {
        let mut first = base.clone();
        first.push(Atom::new(q.d.clone(), d_op));
        let mut branches = vec![first];
        for (bounds, upper, root) in [(&lowers, false, lower_root), (&uppers, true, upper_root)] {
            let Some(root) = root else { continue };
            for (t, strict) in bounds {
                q.compare(&mut branches, t, upper, root, *strict || qs, ctx)?;
            }
        }
        for atoms in branches {
            if let Some(t) = GeneralizedTuple::new(nvars, atoms).simplify() {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
    }
    Ok(out)
}
