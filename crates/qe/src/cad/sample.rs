//! Sample points, whose coordinates are real algebraic numbers (rational or
//! not), and exact sign evaluation of polynomials at them.

use crate::{QeContext, QeError};
use cdb_num::{fintv, FIntv, Rat, RatInterval, Sign};
use cdb_poly::{MPoly, Partial, RealAlg};

/// `p` at the rational coordinates of `sample` (`sample[i]` is the
/// coordinate of ambient variable `vars[i]`), evaluated in one pass and not
/// sealed, together with copies of the irrational coordinates by ambient
/// variable. A caller that refines the copies hands them back with
/// [`write_back`].
#[must_use]
pub(crate) fn eval_at_rationals(
    p: &MPoly,
    vars: &[usize],
    sample: &[RealAlg],
) -> (Partial, Vec<(usize, RealAlg)>) {
    let mut point = vec![None; p.nvars()];
    let mut algs = Vec::new();
    for (&v, c) in vars.iter().zip(sample) {
        match c.to_rat() {
            Some(r) => point[v] = Some(r),
            None => algs.push((v, c.clone())),
        }
    }
    (p.eval_partial(&point), algs)
}

/// Put coordinates taken out by [`eval_at_rationals`], refined since, back
/// into the sample they came from, so its owner keeps the refinement.
pub(crate) fn write_back(vars: &[usize], sample: &mut [RealAlg], algs: Vec<(usize, RealAlg)>) {
    for (v, a) in algs {
        if let Some(c) = vars
            .iter()
            .position(|&w| w == v)
            .and_then(|i| sample.get_mut(i))
        {
            *c = a;
        }
    }
}

/// Exact sign of `p` at the sample (coordinates for `vars`). The sample
/// keeps whatever refinement the sign took; a reader of a cell it does not
/// own signs on a copy.
///
/// * All-rational: exact evaluation.
/// * One algebraic coordinate: exact via [`RealAlg::sign_of`] (zero decided
///   by gcd).
/// * Several algebraic coordinates: interval refinement, which can *refute*
///   but never prove zero — callers must only use this when the value is
///   known nonzero, or accept [`QeError::IndeterminateSign`].
pub fn sign_at(
    p: &MPoly,
    vars: &[usize],
    sample: &mut [RealAlg],
    ctx: &QeContext,
) -> Result<Sign, QeError> {
    ctx.sign_evals.add(1);
    let (value, mut algs) = eval_at_rationals(p, vars, sample);
    let sign = sign_of_value(value, &mut algs);
    write_back(vars, sample, algs);
    sign
}

/// Exact sign of a value whose variables left are among the algebraic
/// coordinates `algs`: a constant's own, [`RealAlg::sign_of`] in one
/// coordinate, interval refinement (sealed once) in several. The
/// coordinates keep the refinement.
pub(crate) fn sign_of_value(
    value: Partial,
    algs: &mut [(usize, RealAlg)],
) -> Result<Sign, QeError> {
    match value {
        Partial::Constant(c) => Ok(c.sign()),
        Partial::Univariate(v, u) => match algs.iter_mut().find(|(a, _)| *a == v) {
            Some((_, alpha)) => Ok(alpha.sign_of(&u)),
            None => Err(QeError::Unsupported(format!(
                "sign_at: {u} keeps variable {v}, which is not an algebraic coordinate"
            ))),
        },
        Partial::Terms(t) => {
            let q = t.seal();
            if algs.iter().filter(|(v, _)| q.uses_var(*v)).count() < 2 {
                return Err(QeError::Unsupported(format!(
                    "sign_at: {q} keeps variables that are not algebraic coordinates"
                )));
            }
            sign_by_refinement(&q, algs)
        }
    }
}

/// Interval-refinement sign determination for ≥2 algebraic coordinates.
///
/// Each round first evaluates over outward-rounded `f64` enclosures
/// ([`eval_fintv`]); the exact `RatInterval` evaluation only runs when the
/// float enclosure straddles zero. A definite float sign implies the exact
/// evaluation over the same enclosures is definite with the same sign
/// (float intervals contain the exact ones), so the refinement trajectory —
/// and therefore every downstream byte of output — is identical with the
/// filter on or off.
fn sign_by_refinement(q: &MPoly, algs: &mut [(usize, RealAlg)]) -> Result<Sign, QeError> {
    for _ in 0..64 {
        if let Some(s) = fintv::filtered(|| eval_fintv(q, algs)) {
            return Ok(s);
        }
        let iv = eval_interval(q, algs);
        if let Some(s) = iv.sign() {
            return Ok(s);
        }
        // Halve every enclosure `q` reads. A zero width means the
        // coordinate is exact, and `refined` returns it before reading the
        // width.
        for (_, a) in algs.iter_mut().filter(|(v, _)| q.uses_var(*v)) {
            let w = &a.interval().width() * &Rat::from_ints(1, 4);
            *a = a.refined(&w);
        }
    }
    Err(QeError::IndeterminateSign(format!(
        "interval refinement did not converge for {q}"
    )))
}

/// Split-word float evaluation of `q` over outward-rounded hulls of its
/// algebraic coordinates' isolating intervals. The result encloses the exact
/// [`eval_interval`] result over the same enclosures.
fn eval_fintv(q: &MPoly, algs: &[(usize, RealAlg)]) -> FIntv {
    let hulls: Vec<(usize, FIntv)> = algs
        .iter()
        .map(|(v, a)| {
            let iv = a.interval();
            (*v, FIntv::from_rat_endpoints(iv.lo(), iv.hi()))
        })
        .collect();
    let mut acc = FIntv::zero();
    for (mono, coeff) in q.terms() {
        let mut term = FIntv::from(coeff);
        for (i, e) in mono.exps().enumerate() {
            if e == 0 {
                continue;
            }
            let (_, h) = hulls
                .iter()
                .find(|(v, _)| *v == i)
                // cdb-lint: allow(panic) — a missing enclosure is an internal
                // invariant violation; treating the factor as 1 would return a
                // wrong *sign*, so failing loudly is the safe behaviour.
                .unwrap_or_else(|| panic!("variable {i} has no enclosure"));
            term = term.mul(&h.pow(e));
        }
        acc = acc.add(&term);
    }
    acc
}

/// Interval evaluation of `q` over enclosures of its algebraic coordinates.
fn eval_interval(q: &MPoly, algs: &[(usize, RealAlg)]) -> RatInterval {
    let mut acc = RatInterval::point(Rat::zero());
    for (mono, coeff) in q.terms() {
        let mut term = RatInterval::point(coeff.clone());
        for (i, e) in mono.exps().enumerate() {
            if e == 0 {
                continue;
            }
            // A missing enclosure is an internal invariant violation; in a
            // release build silently treating the factor as 1 would return
            // a *wrong sign*, so fail loudly instead.
            let (_, a) = algs
                .iter()
                .find(|(v, _)| *v == i)
                // cdb-lint: allow(panic) — same invariant as `eval_fintv`:
                // a silent fallback would yield a wrong sign, so fail loudly.
                .unwrap_or_else(|| panic!("variable {i} has no enclosure"));
            term = term.mul(&a.interval().pow(e));
        }
        acc = acc.add(&term);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_poly::UPoly;

    fn sqrt2() -> RealAlg {
        RealAlg::roots_of(&UPoly::from_ints(&[-2, 0, 1]))
            .pop()
            .unwrap()
    }

    fn sqrt3() -> RealAlg {
        RealAlg::roots_of(&UPoly::from_ints(&[-3, 0, 1]))
            .pop()
            .unwrap()
    }

    #[test]
    fn all_rational_sign() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&x * &y) - &MPoly::constant(Rat::from(2i64), 2);
        let ctx = QeContext::exact();
        let s = sign_at(
            &p,
            &[0, 1],
            &mut [
                RealAlg::from_rat(Rat::from(1i64)),
                RealAlg::from_rat(Rat::from(2i64)),
            ],
            &ctx,
        )
        .unwrap();
        assert_eq!(s, Sign::Zero);
        let s2 = sign_at(
            &p,
            &[0, 1],
            &mut [
                RealAlg::from_rat(Rat::from(1i64)),
                RealAlg::from_rat(Rat::from(3i64)),
            ],
            &ctx,
        )
        .unwrap();
        assert_eq!(s2, Sign::Pos);
    }

    #[test]
    fn one_algebraic_exact_zero() {
        // p = x² − 2 at x = √2 (exact zero), y irrelevant.
        let x = MPoly::var(0, 2);
        let p = &x.pow(2) - &MPoly::constant(Rat::from(2i64), 2);
        let ctx = QeContext::exact();
        let s = sign_at(
            &p,
            &[0, 1],
            &mut [sqrt2(), RealAlg::from_rat(Rat::zero())],
            &ctx,
        )
        .unwrap();
        assert_eq!(s, Sign::Zero);
    }

    #[test]
    fn two_algebraic_refinement() {
        // √2·√3 − 2 > 0 (≈ 0.449); refinement must decide.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&x * &y) - &MPoly::constant(Rat::from(2i64), 2);
        let ctx = QeContext::exact();
        let s = sign_at(&p, &[0, 1], &mut [sqrt2(), sqrt3()], &ctx).unwrap();
        assert_eq!(s, Sign::Pos);
        // √2·√3 − 3 < 0 (≈ −0.551).
        let q = &(&x * &y) - &MPoly::constant(Rat::from(3i64), 2);
        let s2 = sign_at(&q, &[0, 1], &mut [sqrt2(), sqrt3()], &ctx).unwrap();
        assert_eq!(s2, Sign::Neg);
    }

    #[test]
    fn mixed_rational_algebraic() {
        // p = x·y − √2·3: at (√2, 3) → 3√2 − 3√2 = 0? Use p = x·y − 3x:
        // at (√2, 3): zero, detected exactly via the single-alg path.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&x * &y) - &x.scale(&Rat::from(3i64));
        let ctx = QeContext::exact();
        let s = sign_at(
            &p,
            &[0, 1],
            &mut [sqrt2(), RealAlg::from_rat(Rat::from(3i64))],
            &ctx,
        )
        .unwrap();
        assert_eq!(s, Sign::Zero);
    }
}
