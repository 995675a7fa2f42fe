//! Real algebraic numbers over `Q`.
//!
//! CAD cells at "section" level have real algebraic sample coordinates
//! (Appendix I: "An algebraic number is defined by its minimal polynomial
//! `p_α` and an isolating interval for the particular root"). This module
//! provides [`RealAlg`]: a root of a squarefree polynomial with an isolating
//! interval, refinable on demand, with **exact** sign determination
//! `sign(q(α))` for rational-coefficient `q` (gcd test for zero, interval
//! refinement otherwise — never a guess) and exact comparison. That is all
//! lifting a CAD stack over a section cell needs of `α`: the fibre's roots
//! are found over `Q`, among the roots of a resultant, and signs of
//! polynomials with rational coefficients at rational separators decide
//! which candidates are roots (DESIGN.md §5, rule 2). No arithmetic in
//! `Q(α)` remains.

use crate::roots::{halve, isolate_squarefree, linear_root, refine_squarefree, RootLocation};
use crate::upoly::UPoly;
use cdb_num::{fintv, FIntv, Rat, RatInterval, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Filtered sign of `q` over an exact rational interval: evaluate over the
/// outward-rounded float hull first and certify with the exact
/// `eval_interval` only on straddle. Since the float enclosure contains the
/// exact interval evaluation, a definite float sign implies the exact
/// interval sign is the same — so callers take byte-identical branches with
/// the filter on or off. `None` means even the exact evaluation is
/// indefinite (the caller must refine).
fn filtered_interval_sign(q: &UPoly, iv: &RatInterval) -> Option<Sign> {
    if fintv::filter_enabled() {
        if let Some(s) = q
            .eval_fintv(&FIntv::from_rat_endpoints(iv.lo(), iv.hi()))
            .sign()
        {
            fintv::note_filter_hit();
            return Some(s);
        }
        fintv::note_filter_fallback();
    }
    q.eval_interval(iv).sign()
}

/// Whether `g` takes opposite signs at the ends of `iv`, which are not roots
/// of `g`: for a `g` with at most one root inside, a simple one, that is
/// whether the root is there.
fn changes_sign(g: &UPoly, iv: &RatInterval) -> bool {
    g.fsign_at(iv.lo()) != g.fsign_at(iv.hi())
}

/// A real algebraic number: the unique root of `poly` (squarefree) inside
/// `interval` (open, endpoints not roots), or an exact rational.
///
/// The isolating interval is held behind a shared cell: refinement done by
/// one observer (a sign test, a comparison) persists and benefits every
/// clone — crucial for CAD performance, where the same sample coordinate
/// is probed by many polynomials.
#[derive(Clone)]
pub struct RealAlg {
    /// Squarefree defining polynomial (monic). For `Exact` values this is
    /// `x − r`.
    poly: UPoly,
    loc: Arc<Mutex<RootLocation>>,
}

impl RealAlg {
    /// From a rational value.
    #[must_use]
    pub fn from_rat(r: Rat) -> RealAlg {
        let poly = UPoly::from_coeffs(vec![-r.clone(), Rat::one()]);
        RealAlg {
            poly,
            loc: Arc::new(Mutex::new(RootLocation::Exact(r))),
        }
    }

    /// From a squarefree polynomial and an isolating location. The caller
    /// guarantees `poly` is squarefree and `loc` isolates exactly one root.
    /// Squarefreeness is load-bearing: `approx`/`refined`/`roots_of` bisect
    /// on `poly` itself and `sign_of`/`cmp_alg` read a root off a sign change
    /// of one of its divisors, none of them re-deriving the squarefree part.
    #[must_use]
    pub fn new(poly: UPoly, loc: RootLocation) -> RealAlg {
        debug_assert!(!poly.is_constant());
        debug_assert!(
            poly.gcd(&poly.derivative()).is_constant(),
            "RealAlg::new: defining polynomial must be squarefree"
        );
        RealAlg {
            poly: poly.monic(),
            loc: Arc::new(Mutex::new(loc)),
        }
    }

    /// All real roots of `p` as algebraic numbers, ascending.
    #[must_use]
    pub fn roots_of(p: &UPoly) -> Vec<RealAlg> {
        if p.is_constant() {
            return Vec::new();
        }
        if let Some(r) = linear_root(p) {
            return vec![RealAlg::from_rat(r)];
        }
        let sf = p.squarefree();
        isolate_squarefree(&sf)
            .into_iter()
            .map(|loc| match loc {
                RootLocation::Exact(r) => RealAlg::from_rat(r),
                iso => RealAlg::new(sf.clone(), iso),
            })
            .collect()
    }

    /// Defining polynomial (squarefree, monic).
    #[must_use]
    pub fn poly(&self) -> &UPoly {
        &self.poly
    }

    /// Exact rational value, when the number is rational.
    #[must_use]
    pub fn to_rat(&self) -> Option<Rat> {
        match &*self
            .loc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            RootLocation::Exact(r) => Some(r.clone()),
            RootLocation::Isolated(_) => None,
        }
    }

    /// Current enclosing interval (degenerate for rationals).
    #[must_use]
    pub fn interval(&self) -> RatInterval {
        self.loc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            // cdb-lint: allow(lock-order) — resolves to RootLocation::interval,
            // which takes no lock; the RealAlg::interval candidate is the
            // method-name union's over-approximation, not a real recursion
            .interval()
    }

    /// A rational approximation within `eps`.
    #[must_use]
    pub fn approx(&self, eps: &Rat) -> Rat {
        let loc = self
            .loc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        match loc {
            RootLocation::Exact(r) => r,
            RootLocation::Isolated(_) => {
                let iv = refine_squarefree(&self.poly, &loc, eps);
                self.store_refinement(&iv);
                iv.midpoint()
            }
        }
    }

    /// Persist a refined enclosure into the shared cell.
    fn store_refinement(&self, iv: &RatInterval) {
        let mut loc = self
            .loc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if matches!(&*loc, RootLocation::Isolated(_)) {
            *loc = if iv.width().is_zero() {
                RootLocation::Exact(iv.midpoint())
            } else {
                RootLocation::Isolated(iv.clone())
            };
        }
    }

    /// `f64` approximation.
    #[must_use]
    // cdb-lint: allow(float) — reporting-only conversion; exact comparisons go
    // through `cmp_alg`/`sign_of`, never through this value
    pub fn to_f64(&self) -> f64 {
        self.approx(&Rat::new(cdb_num::Int::one(), cdb_num::Int::pow2(60)))
            .to_f64()
    }

    /// A copy with the isolating interval refined to width `<= eps`
    /// (refinement is persisted in the shared cell).
    #[must_use]
    pub fn refined(&self, eps: &Rat) -> RealAlg {
        let loc = self
            .loc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        match loc {
            RootLocation::Exact(_) => self.clone(),
            RootLocation::Isolated(_) => {
                let iv = refine_squarefree(&self.poly, &loc, eps);
                self.store_refinement(&iv);
                self.clone()
            }
        }
    }

    /// Exact sign of `q(α)` for rational-coefficient `q`.
    ///
    /// A few halvings of the isolating interval decide every sign that is
    /// not zero cheaply. If the interval evaluation of `q` is still
    /// indefinite after six, zero is decided exactly, once: `g = gcd(p_α, q)`
    /// divides the squarefree `p_α`, whose only root in the interval is `α`
    /// and whose endpoints are not roots, so `g` has at most one root there,
    /// a simple one, and `q(α) = 0` iff `g` changes sign across the interval.
    /// Otherwise halving goes on until the evaluation is definite. All
    /// refinement is persisted in the shared cell, so repeated probes of the
    /// same number get cheaper and cheaper.
    #[must_use]
    pub fn sign_of(&self, q: &UPoly) -> Sign {
        if q.is_zero() {
            return Sign::Zero;
        }
        if let Some(r) = self.to_rat() {
            return q.fsign_at(&r);
        }
        let (mut iv, mut s_hi) = (self.interval(), None);
        let mut halvings = 0;
        loop {
            if let Some(s) = filtered_interval_sign(q, &iv) {
                self.store_refinement(&iv);
                return s;
            }
            if halvings == 6 {
                self.store_refinement(&iv);
                // `p_α` is squarefree, so the gcd is too: no need to take
                // `q`'s squarefree part first.
                let g = self.poly.gcd(q);
                if !g.is_constant() && changes_sign(&g, &iv) {
                    return Sign::Zero;
                }
            }
            match halve(&self.poly, &iv, &mut s_hi) {
                RootLocation::Isolated(next) => iv = next,
                RootLocation::Exact(mid) => return q.fsign_at(&mid),
            }
            halvings += 1;
        }
    }

    /// Compare with a rational, exactly.
    #[must_use]
    pub fn cmp_rat(&self, r: &Rat) -> Ordering {
        // sign(α − r) = sign of (x − r) at α, negated order.
        let q = UPoly::from_coeffs(vec![-r.clone(), Rat::one()]);
        match self.sign_of(&q) {
            Sign::Neg => Ordering::Less,
            Sign::Zero => Ordering::Equal,
            Sign::Pos => Ordering::Greater,
        }
    }

    /// Exact equality test.
    #[must_use]
    pub fn eq_alg(&self, other: &RealAlg) -> bool {
        self.cmp_alg(other) == Ordering::Equal
    }

    /// Exact comparison of two real algebraic numbers.
    #[must_use]
    pub fn cmp_alg(&self, other: &RealAlg) -> Ordering {
        let quarter = Rat::from_ints(1, 4);
        // `None` = gcd not taken yet; `Some(None)` = provably distinct;
        // `Some(Some(g))` = both are roots of `g = gcd(p_α, p_β)`.
        let mut common: Option<Option<UPoly>> = None;
        for round in 0.. {
            // Checked every round: a bisection midpoint can land on the root.
            match (self.to_rat(), other.to_rat()) {
                (Some(a), Some(b)) => return a.cmp(&b),
                (Some(a), None) => return other.cmp_rat(&a).reverse(),
                (None, Some(b)) => return self.cmp_rat(&b),
                (None, None) => {}
            }
            // Both irrational. Cheap rounds of interval refinement decide all
            // strictly-separated pairs; the (expensive) gcd only runs when the
            // intervals persist in overlapping — i.e. the numbers are
            // plausibly equal.
            let (ia, ib) = (self.interval(), other.interval());
            if ia.hi() < ib.lo() {
                return Ordering::Less;
            }
            if ib.hi() < ia.lo() {
                return Ordering::Greater;
            }
            if round >= 4 {
                let both_roots = common.get_or_insert_with(|| {
                    // `g | p_α`, and α is the only root of `p_α` in its
                    // isolating interval, whose endpoints are non-roots of
                    // `p_α` hence of `g`: α is a root of `g` iff `g` changes
                    // sign there. Likewise β. A `g` that misses either one
                    // means distinct, and refinement separates them.
                    let g = self.poly.gcd(&other.poly);
                    (!g.is_constant() && changes_sign(&g, &ia) && changes_sign(&g, &ib))
                        .then_some(g)
                });
                if let Some(g) = both_roots {
                    // The overlapping intervals' hull is their union, so the
                    // `g`-roots in it are exactly α and β, both simple, and
                    // its ends are non-roots of `g`: `g` changes sign across
                    // the hull iff they coincide.
                    let lo = Rat::min(ia.lo().clone(), ib.lo().clone());
                    let hi = Rat::max(ia.hi().clone(), ib.hi().clone());
                    if changes_sign(g, &RatInterval::new(lo, hi)) {
                        return Ordering::Equal;
                    }
                }
            }
            let w = &Rat::min(ia.width(), ib.width()) * &quarter;
            let _ = self.refined(&w);
            let _ = other.refined(&w);
        }
        // cdb-lint: allow(panic) — the `for round in 0..` loop above only exits
        // via `return`: every pair of distinct reals separates under refinement
        // and the gcd test decides equality, so this line is never reached.
        unreachable!("refinement loop decides every comparison")
    }
}

impl fmt::Display for RealAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self
            .loc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            RootLocation::Exact(r) => write!(f, "{r}"),
            RootLocation::Isolated(iv) => {
                write!(f, "root of {} in {}", self.poly, iv)
            }
        }
    }
}

impl fmt::Debug for RealAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RealAlg({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[i64]) -> UPoly {
        UPoly::from_ints(coeffs)
    }

    fn sqrt2() -> RealAlg {
        RealAlg::roots_of(&p(&[-2, 0, 1])).pop().unwrap()
    }

    #[test]
    fn sign_of_exact_zero() {
        let a = sqrt2();
        // (x²−2)·(x+7) vanishes at √2.
        let q = &p(&[-2, 0, 1]) * &p(&[7, 1]);
        assert_eq!(a.sign_of(&q), Sign::Zero);
        assert_eq!(a.sign_of(&p(&[-1, 1])), Sign::Pos); // √2 − 1 > 0
        assert_eq!(a.sign_of(&p(&[-2, 1])), Sign::Neg); // √2 − 2 < 0
    }

    #[test]
    fn cmp_rationals_and_algebraics() {
        let a = sqrt2();
        assert_eq!(a.cmp_rat(&Rat::one()), Ordering::Greater);
        assert_eq!(a.cmp_rat(&Rat::from(2i64)), Ordering::Less);
        let b = RealAlg::roots_of(&p(&[-3, 0, 1])).pop().unwrap(); // √3
        assert_eq!(a.cmp_alg(&b), Ordering::Less);
        assert_eq!(b.cmp_alg(&a), Ordering::Greater);
        // Same number via different polynomials: √2 as root of (x²−2)(x²−5).
        let c = RealAlg::roots_of(&(&p(&[-2, 0, 1]) * &p(&[-5, 0, 1])))
            .into_iter()
            .find(|r| {
                r.cmp_rat(&Rat::one()) == Ordering::Greater
                    && r.cmp_rat(&Rat::from(2i64)) == Ordering::Less
            })
            .unwrap();
        assert!(a.eq_alg(&c));
    }

    /// `gcd(p_α, p_β)` must hold *both* operands before a one-root hull
    /// proves equality: α = √2 is a root of the gcd x² − 2, β = √(2 + 10⁻¹²)
    /// is not, and their intervals overlap until refined past 10⁻¹³.
    #[test]
    fn cmp_alg_checks_both_operands_against_the_gcd() {
        let iso = |lo: &str, hi: &str| {
            RootLocation::Isolated(RatInterval::new(lo.parse().unwrap(), hi.parse().unwrap()))
        };
        let near: Rat = "-2000000000001/1000000000000".parse().unwrap();
        let a = RealAlg::new(p(&[-2, 0, 1]), iso("1", "2"));
        let b = RealAlg::new(
            &p(&[-2, 0, 1]) * &UPoly::from_coeffs(vec![near, Rat::zero(), Rat::one()]),
            iso("14142135623731/10000000000000", "3"),
        );
        assert_eq!(a.cmp_alg(&b), Ordering::Less);
        assert_eq!(b.cmp_alg(&a), Ordering::Greater);
    }

    /// The squarefree invariant is established by `roots_of`, not assumed
    /// of its input: numbers built from `(x²−2)²·(x−1)` carry `x³−x²−2x+2`
    /// and `approx`/`refined`/`cmp_alg`/`sign_of`, which bisect on that
    /// polynomial without re-deriving it, agree with the per-call reference
    /// (`refine_to_width` on the raw input) and with the exact answers.
    #[test]
    fn roots_of_establishes_the_squarefree_invariant() {
        let raw = &p(&[-2, 0, 1]).pow(2) * &p(&[-1, 1]);
        let eps = Rat::new(1i64.into(), cdb_num::Int::pow2(40));
        let roots = RealAlg::roots_of(&raw);
        assert_eq!(roots.len(), 3);
        assert_eq!(roots[1].to_rat(), Some(Rat::one()));
        for r in [&roots[0], &roots[2]] {
            assert_eq!(r.poly(), &p(&[2, -2, -1, 1]));
            let before = RootLocation::Isolated(r.interval());
            let want = crate::roots::refine_to_width(&raw, &before, &eps);
            assert_eq!(r.approx(&eps), want.midpoint());
            assert_eq!(r.refined(&eps).interval(), want);
            assert_eq!(r.sign_of(&p(&[-2, 0, 1])), Sign::Zero);
            // Non-squarefree `q`, zero and ambiguously-close-to-zero at ±√2.
            assert_eq!(r.sign_of(&raw), Sign::Zero);
            let near = UPoly::from_coeffs(vec![
                "-2000000000001/1000000000000".parse().unwrap(),
                Rat::zero(),
                Rat::one(),
            ]);
            assert_eq!(r.sign_of(&(&near.pow(2) * &p(&[7, 1]))), Sign::Pos);
        }
        assert_eq!(roots[0].cmp_alg(&roots[2]), Ordering::Less);
        assert_eq!(roots[2].cmp_alg(&roots[1]), Ordering::Greater);
        assert!(roots[2].eq_alg(&sqrt2()));
        assert_eq!(roots[0].cmp_alg(&sqrt2()), Ordering::Less);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be squarefree")]
    fn new_rejects_a_non_squarefree_polynomial() {
        let iv = RatInterval::new(Rat::one(), Rat::from(2i64));
        let _ = RealAlg::new(p(&[-2, 0, 1]).pow(2), RootLocation::Isolated(iv));
    }

    #[test]
    fn roots_of_returns_sorted() {
        let roots = RealAlg::roots_of(&p(&[-6, 11, -6, 1]));
        assert_eq!(roots.len(), 3);
        let vals: Vec<Rat> = roots.iter().map(|r| r.to_rat().unwrap()).collect();
        assert_eq!(vals, vec![Rat::one(), Rat::from(2i64), Rat::from(3i64)]);
    }
}
