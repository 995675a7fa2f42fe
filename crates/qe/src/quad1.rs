//! Quadratic one-variable elimination — the planner's middle tier between
//! Fourier–Motzkin and full CAD (DESIGN.md §16).
//!
//! When the target variable `v` occurs at degree ≤ 2 in every atom of a
//! disjunct, with a *constant* leading coefficient and at most one atom of
//! degree exactly 2, `∃v` can be eliminated by explicit root-interval
//! formulas instead of a cylindrical decomposition. Write the quadratic
//! atom (normalized to `a > 0`) as
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
//! when the cheaper eliminators do not apply, so it has a degree-2 atom and
//! no linear equality in `v` (the `a = 0` case is Fourier–Motzkin's, a
//! linear equality is substitution's). Everything is certified against
//! `cad::eliminate` by the differential tests in
//! `tests/plan_differential.rs`.

use crate::{QeContext, QeError};
use cdb_constraints::{Atom, GeneralizedTuple, RelOp};
use cdb_num::{Rat, Sign};
use cdb_poly::{MPoly, Terms};

/// True iff the quadratic shortcut can eliminate `∃ var` from this
/// disjunct: every atom using `var` has degree ≤ 2 in it with a constant
/// leading coefficient, and at most one atom has degree exactly 2.
/// (`≠` atoms are fine — they are split into `<` / `>` before elimination.)
#[must_use]
pub fn applicable(tuple: &GeneralizedTuple, var: usize) -> bool {
    let mut quads = 0usize;
    for atom in tuple.atoms() {
        match atom.poly.degree_in(var) {
            0 => {}
            1 | 2 => {
                if atom.poly.lead_coeff_in(var).is_none() {
                    return false;
                }
                if atom.poly.degree_in(var) == 2 {
                    quads += 1;
                }
            }
            _ => return false,
        }
    }
    quads <= 1
}

/// Append `atoms` to every branch (a conjunctive condition).
fn conj(branches: &mut [Vec<Atom>], atoms: &[Atom]) {
    for b in branches.iter_mut() {
        b.extend_from_slice(atoms);
    }
}

/// Split every branch over a two-way disjunction.
fn disj(branches: &mut Vec<Vec<Atom>>, alt1: &[Atom], alt2: &[Atom]) {
    let mut next = Vec::with_capacity(branches.len() * 2);
    for b in branches.drain(..) {
        let mut x = b.clone();
        x.extend_from_slice(alt1);
        next.push(x);
        let mut y = b;
        y.extend_from_slice(alt2);
        next.push(y);
    }
    *branches = next;
}

/// `X² − D`, budget-checked.
fn sq_minus_d(x: &MPoly, d: &MPoly, ctx: &QeContext) -> Result<MPoly, QeError> {
    let (x, d) = (x.as_terms(), d.as_terms());
    let p = (&(x * x) - d).seal();
    ctx.observe_poly(&p)?;
    Ok(p)
}

/// `X ⋈ √D` (root `r+` as an upper bound for linear lower bound `X/2a`):
/// `X ≤ 0 ∨ X² ≤ D` (strict: `X < 0 ∨ X² < D`).
fn le_sqrt(
    branches: &mut Vec<Vec<Atom>>,
    x: &MPoly,
    d: &MPoly,
    strict: bool,
    ctx: &QeContext,
) -> Result<(), QeError> {
    let op = if strict { RelOp::Lt } else { RelOp::Le };
    let sq = sq_minus_d(x, d, ctx)?;
    disj(branches, &[Atom::new(x.clone(), op)], &[Atom::new(sq, op)]);
    Ok(())
}

/// `X ⋈ −√D` (root `r−` as an upper bound): `X ≤ 0 ∧ X² ≥ D`
/// (strict: `X < 0 ∧ X² > D`).
fn le_neg_sqrt(
    branches: &mut [Vec<Atom>],
    x: &MPoly,
    d: &MPoly,
    strict: bool,
    ctx: &QeContext,
) -> Result<(), QeError> {
    let (lo, hi) = if strict {
        (RelOp::Lt, RelOp::Gt)
    } else {
        (RelOp::Le, RelOp::Ge)
    };
    let sq = sq_minus_d(x, d, ctx)?;
    conj(branches, &[Atom::new(x.clone(), lo), Atom::new(sq, hi)]);
    Ok(())
}

/// `−√D ⋈ X` (root `r−` as a lower bound for linear upper bound `X/2a`):
/// `X ≥ 0 ∨ X² ≤ D` (strict: `X > 0 ∨ X² < D`).
fn neg_sqrt_le(
    branches: &mut Vec<Vec<Atom>>,
    x: &MPoly,
    d: &MPoly,
    strict: bool,
    ctx: &QeContext,
) -> Result<(), QeError> {
    let (lo, hi) = if strict {
        (RelOp::Gt, RelOp::Lt)
    } else {
        (RelOp::Ge, RelOp::Le)
    };
    let sq = sq_minus_d(x, d, ctx)?;
    disj(branches, &[Atom::new(x.clone(), lo)], &[Atom::new(sq, hi)]);
    Ok(())
}

/// `√D ⋈ X` (root `r+` as a lower bound): `X ≥ 0 ∧ X² ≥ D`
/// (strict: `X > 0 ∧ X² > D`).
fn sqrt_le(
    branches: &mut [Vec<Atom>],
    x: &MPoly,
    d: &MPoly,
    strict: bool,
    ctx: &QeContext,
) -> Result<(), QeError> {
    let op = if strict { RelOp::Gt } else { RelOp::Ge };
    let sq = sq_minus_d(x, d, ctx)?;
    conj(branches, &[Atom::new(x.clone(), op), Atom::new(sq, op)]);
    Ok(())
}

/// Eliminate `∃ var` from one disjunct via the root-interval formulas.
/// Requires [`applicable`], one degree-2 atom and no linear equality in
/// `var`; `≠` atoms using `var` must be split beforehand (the planner
/// ensures all of it). The result is a small DNF (the branches of the
/// sign-condition disjunctions), each tuple free of `var`.
pub fn eliminate_tuple(
    tuple: &GeneralizedTuple,
    var: usize,
    ctx: &QeContext,
) -> Result<Vec<GeneralizedTuple>, QeError> {
    if !applicable(tuple, var) {
        return Err(QeError::Unsupported(format!(
            "quadratic shortcut: disjunct exceeds degree 2 in x{var}, has a \
             symbolic leading coefficient, or has two distinct quadratic atoms"
        )));
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
                "quadratic shortcut: `≠` atom not split before elimination".into(),
            ));
        }
        let lead = atom.poly.lead_coeff_in(var).ok_or_else(|| {
            QeError::Unsupported(format!(
                "quadratic shortcut: symbolic leading coefficient in x{var}"
            ))
        })?;
        let mut rest = atom.poly.coeffs_in(var).into_iter();
        let c0 = rest.next().unwrap_or_else(|| Terms::zero(nvars));
        let c1 = rest.next().unwrap_or_else(|| Terms::zero(nvars));
        if deg == 1 {
            // lead·var + rest σ 0 ⇔ var σ' −rest/lead.
            let bound = c0.scale(&(-lead.recip()));
            ctx.observe_bits(bound.max_coeff_bits())?;
            let op = if lead.sign() == Sign::Neg {
                atom.op.flipped()
            } else {
                atom.op
            };
            match op {
                RelOp::Eq => {
                    return Err(QeError::Unsupported(
                        "quadratic shortcut: linear equality not substituted before elimination"
                            .into(),
                    ))
                }
                RelOp::Lt => uppers.push((bound, true)),
                RelOp::Le => uppers.push((bound, false)),
                RelOp::Gt => lowers.push((bound, true)),
                RelOp::Ge => lowers.push((bound, false)),
                RelOp::Ne => {} // excluded above
            }
        } else {
            let mut a = lead;
            let mut b = c1;
            let mut c = c0;
            let mut op = atom.op;
            if a.sign() == Sign::Neg {
                a = -a;
                b = -b;
                c = -c;
                op = op.flipped();
            }
            quad = Some((a, b, c, op));
        }
    }
    let Some((a, b, c, qop)) = quad else {
        return Err(QeError::Unsupported(format!(
            "quadratic shortcut: no degree-2 atom in x{var}"
        )));
    };
    // D = b² − 4ac; for a linear bound t, A(t) = 2a·t + b compares against
    // ±√D exactly as t compares against r∓ (a > 0 keeps directions).
    let two_a = &a + &a;
    let four_a = &two_a + &two_a;
    let d_poly = (&(&b * &b) - &c.scale(&four_a)).seal();
    ctx.observe_poly(&d_poly)?;
    let lin = |t: &Terms| -> Result<MPoly, QeError> {
        let p = (&t.clone().scale(&two_a) + &b).seal();
        ctx.observe_poly(&p)?;
        Ok(p)
    };
    // Bounds must still pair among themselves in every branch.
    let mut base = passthrough;
    for (l, ls) in &lowers {
        for (u, us) in &uppers {
            let d = (l - u).seal();
            ctx.observe_poly(&d)?;
            base.push(Atom::new(d, if *ls || *us { RelOp::Lt } else { RelOp::Le }));
        }
    }
    let with = |extra: Atom| -> Vec<Vec<Atom>> {
        let mut b0 = base.clone();
        b0.push(extra);
        vec![b0]
    };
    let qs = matches!(qop, RelOp::Lt | RelOp::Gt);
    let mut branches: Vec<Vec<Atom>> = Vec::new();
    match qop {
        RelOp::Le | RelOp::Lt => {
            // v ∈ [r−, r+] (open when strict): the roots join the bound
            // pairing — feasibility of r− ⋈ r+ is exactly D ≥ 0 (resp. > 0).
            let mut fam = with(Atom::new(
                d_poly.clone(),
                if qs { RelOp::Gt } else { RelOp::Ge },
            ));
            for (l, ls) in &lowers {
                le_sqrt(&mut fam, &lin(l)?, &d_poly, *ls || qs, ctx)?;
            }
            for (u, us) in &uppers {
                neg_sqrt_le(&mut fam, &lin(u)?, &d_poly, *us || qs, ctx)?;
            }
            branches.append(&mut fam);
        }
        RelOp::Ge | RelOp::Gt => {
            // Three overlapping families: no real roots (the parabola never
            // dips below zero), v ≤ r−, and v ≥ r+.
            let fam1 = with(Atom::new(
                d_poly.clone(),
                if qs { RelOp::Lt } else { RelOp::Le },
            ));
            branches.extend(fam1);
            let mut fam2 = with(Atom::new(d_poly.clone(), RelOp::Ge));
            for (l, ls) in &lowers {
                le_neg_sqrt(&mut fam2, &lin(l)?, &d_poly, *ls || qs, ctx)?;
            }
            branches.append(&mut fam2);
            let mut fam3 = with(Atom::new(d_poly.clone(), RelOp::Ge));
            for (u, us) in &uppers {
                sqrt_le(&mut fam3, &lin(u)?, &d_poly, *us || qs, ctx)?;
            }
            branches.append(&mut fam3);
        }
        RelOp::Eq => {
            // v = r− or v = r+ (both need D ≥ 0); linear bounds must hold
            // at the chosen root.
            let mut fam_m = with(Atom::new(d_poly.clone(), RelOp::Ge));
            for (l, ls) in &lowers {
                le_neg_sqrt(&mut fam_m, &lin(l)?, &d_poly, *ls, ctx)?;
            }
            for (u, us) in &uppers {
                neg_sqrt_le(&mut fam_m, &lin(u)?, &d_poly, *us, ctx)?;
            }
            branches.append(&mut fam_m);
            let mut fam_p = with(Atom::new(d_poly.clone(), RelOp::Ge));
            for (l, ls) in &lowers {
                le_sqrt(&mut fam_p, &lin(l)?, &d_poly, *ls, ctx)?;
            }
            for (u, us) in &uppers {
                sqrt_le(&mut fam_p, &lin(u)?, &d_poly, *us, ctx)?;
            }
            branches.append(&mut fam_p);
        }
        RelOp::Ne => {
            // Excluded above (and the planner splits `≠` beforehand).
            return Err(QeError::Unsupported(
                "quadratic shortcut: `≠` atom not split before elimination".into(),
            ));
        }
    }
    let mut out: Vec<GeneralizedTuple> = Vec::new();
    for atoms in branches {
        if let Some(t) = GeneralizedTuple::new(nvars, atoms).simplify() {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    Ok(out)
}
