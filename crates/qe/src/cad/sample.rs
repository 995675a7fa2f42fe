//! Sample points with rational and real algebraic coordinates, and exact
//! sign evaluation of polynomials at them.

use crate::{QeContext, QeError};
use cdb_num::{fintv, FIntv, Rat, RatInterval, Sign};
use cdb_poly::{MPoly, Partial, RealAlg, Terms};
use std::fmt;

/// One coordinate of a CAD sample point. Every algebraic coordinate carries
/// its own minimal polynomial over `Q` (no field towers — see DESIGN.md).
#[derive(Clone)]
pub enum Coord {
    /// Exact rational.
    Rat(Rat),
    /// Real algebraic number over `Q`.
    Alg(RealAlg),
}

impl Coord {
    /// `f64` approximation (for reporting).
    #[must_use]
    // cdb-lint: allow(float) — display/reporting widening only: the value
    // feeds `Debug` output and CLI summaries, never a sign decision or a
    // stored relation (those go through `interval()` / exact arithmetic).
    pub fn to_f64(&self) -> f64 {
        match self {
            Coord::Rat(r) => r.to_f64(),
            Coord::Alg(a) => a.to_f64(),
        }
    }

    /// Enclosing interval.
    #[must_use]
    pub fn interval(&self) -> RatInterval {
        match self {
            Coord::Rat(r) => RatInterval::point(r.clone()),
            Coord::Alg(a) => a.interval(),
        }
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coord::Rat(r) => write!(f, "{r}"),
            // cdb-lint: allow(float-taint) — Debug rendering only; the float
            // goes to the formatter, never into result bytes
            Coord::Alg(a) => write!(f, "≈{:.6}", a.to_f64()),
        }
    }
}

/// `p` at the rational coordinates of `sample` (`sample[i]` is the
/// coordinate of ambient variable `vars[i]`; a `RealAlg` that is rational
/// counts as rational), evaluated in one pass and not sealed, together with
/// the irrational coordinates by ambient variable.
#[must_use]
pub(crate) fn eval_at_rationals(
    p: &MPoly,
    vars: &[usize],
    sample: &[Coord],
) -> (Partial, Vec<(usize, RealAlg)>) {
    let mut point = vec![None; p.nvars()];
    let mut algs = Vec::new();
    for (&v, c) in vars.iter().zip(sample) {
        match c {
            Coord::Rat(r) => point[v] = Some(r.clone()),
            Coord::Alg(a) => match a.to_rat() {
                Some(r) => point[v] = Some(r),
                None => algs.push((v, a.clone())),
            },
        }
    }
    (p.eval_partial(&point), algs)
}

/// Seal a value that keeps several variables — once — and keep the
/// algebraic coordinates that still occur in it.
#[must_use]
pub(crate) fn seal_over(value: Terms, algs: &[(usize, RealAlg)]) -> (MPoly, Vec<(usize, RealAlg)>) {
    let q = value.seal();
    let used = algs
        .iter()
        .filter(|(v, _)| q.uses_var(*v))
        .cloned()
        .collect();
    (q, used)
}

/// Exact sign of `p` at the sample (coordinates for `vars`).
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
    sample: &[Coord],
    ctx: &QeContext,
) -> Result<Sign, QeError> {
    ctx.sign_evals.add(1);
    let (value, algs) = eval_at_rationals(p, vars, sample);
    sign_of_value(value, &algs)
}

/// Exact sign of a value whose variables left are among the algebraic
/// coordinates `algs`: a constant's own, [`RealAlg::sign_of`] in one
/// coordinate, interval refinement (sealed once) in several.
pub(crate) fn sign_of_value(value: Partial, algs: &[(usize, RealAlg)]) -> Result<Sign, QeError> {
    match value {
        Partial::Constant(c) => Ok(c.sign()),
        Partial::Univariate(v, u) => match algs.iter().find(|(a, _)| *a == v) {
            Some((_, alpha)) => Ok(alpha.sign_of(&u)),
            None => Err(QeError::Unsupported(format!(
                "sign_at: {u} keeps variable {v}, which is not an algebraic coordinate"
            ))),
        },
        Partial::Terms(t) => {
            let (q, algs) = seal_over(t, algs);
            if algs.len() < 2 {
                return Err(QeError::Unsupported(format!(
                    "sign_at: {q} keeps variables that are not algebraic coordinates"
                )));
            }
            sign_by_refinement(&q, &algs)
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
fn sign_by_refinement(q: &MPoly, algs: &[(usize, RealAlg)]) -> Result<Sign, QeError> {
    let mut current: Vec<(usize, RealAlg)> = algs.to_vec();
    for _ in 0..64 {
        if fintv::filter_enabled() {
            if let Some(s) = eval_fintv(q, &current).sign() {
                fintv::note_filter_hit();
                return Ok(s);
            }
            fintv::note_filter_fallback();
        }
        let iv = eval_interval(q, &current);
        if let Some(s) = iv.sign() {
            return Ok(s);
        }
        // Halve every enclosure. A zero width means the coordinate is
        // exact, and `refined` returns it before reading the width.
        current = current
            .iter()
            .map(|(v, a)| {
                let w = &a.interval().width() * &Rat::from_ints(1, 4);
                (*v, a.refined(&w))
            })
            .collect();
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
            &[Coord::Rat(Rat::from(1i64)), Coord::Rat(Rat::from(2i64))],
            &ctx,
        )
        .unwrap();
        assert_eq!(s, Sign::Zero);
        let s2 = sign_at(
            &p,
            &[0, 1],
            &[Coord::Rat(Rat::from(1i64)), Coord::Rat(Rat::from(3i64))],
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
            &[Coord::Alg(sqrt2()), Coord::Rat(Rat::zero())],
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
        let s = sign_at(
            &p,
            &[0, 1],
            &[Coord::Alg(sqrt2()), Coord::Alg(sqrt3())],
            &ctx,
        )
        .unwrap();
        assert_eq!(s, Sign::Pos);
        // √2·√3 − 3 < 0 (≈ −0.551).
        let q = &(&x * &y) - &MPoly::constant(Rat::from(3i64), 2);
        let s2 = sign_at(
            &q,
            &[0, 1],
            &[Coord::Alg(sqrt2()), Coord::Alg(sqrt3())],
            &ctx,
        )
        .unwrap();
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
            &[Coord::Alg(sqrt2()), Coord::Rat(Rat::from(3i64))],
            &ctx,
        )
        .unwrap();
        assert_eq!(s, Sign::Zero);
    }
}
