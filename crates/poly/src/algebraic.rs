//! Real algebraic numbers over `Q`.
//!
//! Every real number the system holds exactly is a [`RealAlg`] (Appendix I:
//! "An algebraic number is defined by its minimal polynomial `p_α` and an
//! isolating interval for the particular root"): a rational, or a root of a
//! squarefree polynomial with an isolating interval — CAD sample
//! coordinates, region endpoints, the roots NUMERICAL EVALUATION
//! approximates. It is refinable on demand, with **exact** sign determination
//! `sign(q(α))` for rational-coefficient `q` (gcd test for zero, interval
//! refinement otherwise — never a guess) and exact comparison. That is all
//! lifting a CAD stack over a section cell needs of `α`: the fibre's roots
//! are found over `Q`, among the roots of a resultant, and signs of
//! polynomials with rational coefficients at rational separators decide
//! which candidates are roots (DESIGN.md §5, rule 2). No arithmetic in
//! `Q(α)` remains.

use crate::roots::{halve, isolate_squarefree, linear_root, refine, RootLocation};
use crate::upoly::UPoly;
use cdb_num::{fintv, FIntv, Rat, RatInterval, Sign};
use std::cmp::Ordering;
use std::fmt;

/// Filtered sign of `q` over an exact rational interval: evaluate over the
/// outward-rounded float hull first and certify with the exact
/// `eval_interval` only on straddle. Since the float enclosure contains the
/// exact interval evaluation, a definite float sign implies the exact
/// interval sign is the same — so callers take byte-identical branches with
/// the filter on or off. `None` means even the exact evaluation is
/// indefinite (the caller must refine).
fn filtered_interval_sign(q: &UPoly, iv: &RatInterval) -> Option<Sign> {
    fintv::filtered(|| q.eval_fintv(&FIntv::from_rat_endpoints(iv.lo(), iv.hi())))
        .or_else(|| q.eval_interval(iv).sign())
}

/// Whether `g` takes opposite signs at the ends of `iv`, which are not roots
/// of `g`: for a `g` with at most one root inside, a simple one, that is
/// whether the root is there.
fn changes_sign(g: &UPoly, iv: &RatInterval) -> bool {
    g.fsign_at(iv.lo()) != g.fsign_at(iv.hi())
}

/// A real number that is algebraic over `Q`: an exact rational, or the
/// unique root of a squarefree polynomial inside an isolating interval.
///
/// A plain value: `clone` is a copy, and refinement — by a sign test, a
/// comparison, [`RealAlg::refined`] — narrows only the interval of the
/// value it runs on. Whoever owns a number keeps what was learnt about it
/// by holding on to the refined value (DESIGN.md §5).
#[derive(Clone)]
pub struct RealAlg(Repr);

#[derive(Clone)]
enum Repr {
    /// Exactly this rational.
    Rat(Rat),
    /// The only root of `poly` (squarefree, monic) in the open `interval`,
    /// whose endpoints are not roots of `poly`.
    Root { poly: UPoly, interval: RatInterval },
}

impl RealAlg {
    /// From a rational value.
    #[must_use]
    pub fn from_rat(r: Rat) -> RealAlg {
        RealAlg(Repr::Rat(r))
    }

    /// The root of `poly` in `interval`. The caller guarantees `poly` is
    /// squarefree, and that `interval` holds exactly one of its roots and
    /// has no root at either end. Squarefreeness is load-bearing:
    /// `approx`/`refined`/`sign_of`/`cmp_alg` bisect on `poly` itself and
    /// read a root off a sign change of one of its divisors, none of them
    /// re-deriving the squarefree part.
    #[must_use]
    pub fn new(poly: UPoly, interval: RatInterval) -> RealAlg {
        debug_assert!(!poly.is_constant());
        debug_assert!(
            poly.gcd(&poly.derivative()).is_constant(),
            "RealAlg::new: defining polynomial must be squarefree"
        );
        RealAlg(Repr::Root {
            poly: poly.monic(),
            interval,
        })
    }

    /// All real roots of `p` as algebraic numbers, ascending. The
    /// squarefree part of `p` is taken here, once; a root found to be
    /// rational is returned as a rational.
    #[must_use]
    pub fn roots_of(p: &UPoly) -> Vec<RealAlg> {
        if p.is_constant() {
            return Vec::new();
        }
        if let Some(r) = linear_root(p) {
            return vec![RealAlg::from_rat(r)];
        }
        // `squarefree` is monic.
        let sf = p.squarefree();
        isolate_squarefree(&sf)
            .into_iter()
            .map(|loc| match loc {
                RootLocation::Exact(r) => RealAlg::from_rat(r),
                RootLocation::Isolated(interval) => RealAlg(Repr::Root {
                    poly: sf.clone(),
                    interval,
                }),
            })
            .collect()
    }

    /// Defining polynomial (squarefree, monic) of an irrational-looking
    /// number; `None` for a rational.
    #[must_use]
    pub fn poly(&self) -> Option<&UPoly> {
        match &self.0 {
            Repr::Rat(_) => None,
            Repr::Root { poly, .. } => Some(poly),
        }
    }

    /// Exact rational value, when the number is held as a rational.
    #[must_use]
    pub fn to_rat(&self) -> Option<Rat> {
        match &self.0 {
            Repr::Rat(r) => Some(r.clone()),
            Repr::Root { .. } => None,
        }
    }

    /// Current enclosing interval (degenerate for rationals).
    #[must_use]
    pub fn interval(&self) -> RatInterval {
        match &self.0 {
            Repr::Rat(r) => RatInterval::point(r.clone()),
            Repr::Root { interval, .. } => interval.clone(),
        }
    }

    /// A rational within `eps` of the number: the midpoint of its interval
    /// halved to width `<= eps`. Pure: the number keeps its interval.
    #[must_use]
    pub fn approx(&self, eps: &Rat) -> Rat {
        match &self.0 {
            Repr::Rat(r) => r.clone(),
            Repr::Root { poly, interval } => match refine(poly, interval, eps) {
                RootLocation::Exact(r) => r,
                RootLocation::Isolated(iv) => iv.midpoint(),
            },
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

    /// A copy with the isolating interval halved to width `<= eps` (a
    /// rational when a midpoint lands on the root).
    #[must_use]
    pub fn refined(&self, eps: &Rat) -> RealAlg {
        let mut copy = self.clone();
        copy.refine(eps);
        copy
    }

    /// Halve the isolating interval to width `<= eps`, in place.
    fn refine(&mut self, eps: &Rat) {
        if let Repr::Root { poly, interval } = &mut self.0 {
            match refine(poly, interval, eps) {
                RootLocation::Exact(r) => self.0 = Repr::Rat(r),
                RootLocation::Isolated(iv) => *interval = iv,
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
    /// Otherwise halving goes on until the evaluation is definite. The
    /// interval that decided is kept, so the next probe of this value starts
    /// from it.
    #[must_use]
    pub fn sign_of(&mut self, q: &UPoly) -> Sign {
        if q.is_zero() {
            return Sign::Zero;
        }
        let (poly, interval) = match &mut self.0 {
            Repr::Rat(r) => return q.fsign_at(r),
            Repr::Root { poly, interval } => (&*poly, interval),
        };
        let (mut iv, mut s_hi) = (interval.clone(), None);
        let mut halvings = 0;
        loop {
            if let Some(s) = filtered_interval_sign(q, &iv) {
                *interval = iv;
                return s;
            }
            if halvings == 6 {
                *interval = iv.clone();
                // `p_α` is squarefree, so the gcd is too: no need to take
                // `q`'s squarefree part first.
                let g = poly.gcd(q);
                if !g.is_constant() && changes_sign(&g, &iv) {
                    return Sign::Zero;
                }
            }
            match halve(poly, &iv, &mut s_hi) {
                RootLocation::Isolated(next) => iv = next,
                RootLocation::Exact(mid) => return q.fsign_at(&mid),
            }
            halvings += 1;
        }
    }

    /// Compare with a rational, exactly.
    #[must_use]
    pub fn cmp_rat(&mut self, r: &Rat) -> Ordering {
        // sign(α − r) = sign of (x − r) at α, negated order.
        let q = UPoly::from_coeffs(vec![-r.clone(), Rat::one()]);
        match self.sign_of(&q) {
            Sign::Neg => Ordering::Less,
            Sign::Zero => Ordering::Equal,
            Sign::Pos => Ordering::Greater,
        }
    }

    /// Exact comparison of two real algebraic numbers; both keep the
    /// intervals that decided it.
    #[must_use]
    pub fn cmp_alg(&mut self, other: &mut RealAlg) -> Ordering {
        let quarter = Rat::from_ints(1, 4);
        // `None` = gcd not taken yet; `Some(None)` = provably distinct;
        // `Some(Some(g))` = both are roots of `g = gcd(p_α, p_β)`.
        let mut common: Option<Option<UPoly>> = None;
        for round in 0.. {
            // Checked every round: a bisection midpoint can land on the root.
            let (pa, ia, pb, ib) = match (&self.0, &other.0) {
                (Repr::Rat(a), Repr::Rat(b)) => return a.cmp(b),
                (Repr::Rat(a), Repr::Root { .. }) => {
                    let a = a.clone();
                    return other.cmp_rat(&a).reverse();
                }
                (Repr::Root { .. }, Repr::Rat(b)) => {
                    let b = b.clone();
                    return self.cmp_rat(&b);
                }
                (
                    Repr::Root {
                        poly: pa,
                        interval: ia,
                    },
                    Repr::Root {
                        poly: pb,
                        interval: ib,
                    },
                ) => (pa, ia, pb, ib),
            };
            // Both irrational. Cheap rounds of interval refinement decide all
            // strictly-separated pairs; the (expensive) gcd only runs when the
            // intervals persist in overlapping — i.e. the numbers are
            // plausibly equal.
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
                    let g = pa.gcd(pb);
                    (!g.is_constant() && changes_sign(&g, ia) && changes_sign(&g, ib)).then_some(g)
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
            self.refine(&w);
            other.refine(&w);
        }
        // cdb-lint: allow(panic) — the `for round in 0..` loop above only exits
        // via `return`: every pair of distinct reals separates under refinement
        // and the gcd test decides equality, so this line is never reached.
        unreachable!("refinement loop decides every comparison")
    }
}

impl fmt::Display for RealAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Rat(r) => write!(f, "{r}"),
            Repr::Root { poly, interval } => write!(f, "root of {poly} in {interval}"),
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
        let mut a = sqrt2();
        // (x²−2)·(x+7) vanishes at √2.
        let q = &p(&[-2, 0, 1]) * &p(&[7, 1]);
        assert_eq!(a.sign_of(&q), Sign::Zero);
        assert_eq!(a.sign_of(&p(&[-1, 1])), Sign::Pos); // √2 − 1 > 0
        assert_eq!(a.sign_of(&p(&[-2, 1])), Sign::Neg); // √2 − 2 < 0
    }

    #[test]
    fn cmp_rationals_and_algebraics() {
        let mut a = sqrt2();
        assert_eq!(a.cmp_rat(&Rat::one()), Ordering::Greater);
        assert_eq!(a.cmp_rat(&Rat::from(2i64)), Ordering::Less);
        let mut b = RealAlg::roots_of(&p(&[-3, 0, 1])).pop().unwrap(); // √3
        assert_eq!(a.cmp_alg(&mut b), Ordering::Less);
        assert_eq!(b.cmp_alg(&mut a), Ordering::Greater);
        // Same number via different polynomials: √2 as root of (x²−2)(x²−5).
        let mut c = RealAlg::roots_of(&(&p(&[-2, 0, 1]) * &p(&[-5, 0, 1])))
            .into_iter()
            .find(|r| {
                let mut r = r.clone();
                r.cmp_rat(&Rat::one()) == Ordering::Greater
                    && r.cmp_rat(&Rat::from(2i64)) == Ordering::Less
            })
            .unwrap();
        assert_eq!(a.cmp_alg(&mut c), Ordering::Equal);
    }

    /// A clone is a copy: refining, sign-testing or comparing it leaves the
    /// original's interval as it was, and `refined` and `approx` leave their
    /// receiver's.
    #[test]
    fn clones_refine_independently() {
        let a = sqrt2();
        let before = a.interval();
        let eps = Rat::from_ints(1, 1 << 20);
        let mut b = a.clone();
        // 10·x − 14 at √2 ≈ 1.414 needs a few halvings of [1, 2] or so.
        assert_eq!(b.sign_of(&p(&[-14, 10])), Sign::Pos);
        let mut c = a.clone();
        let mut sqrt3 = RealAlg::roots_of(&p(&[-3, 0, 1])).pop().unwrap();
        assert_eq!(c.cmp_alg(&mut sqrt3), Ordering::Less);
        let d = a.refined(&eps);
        let _ = a.approx(&eps);
        assert_eq!(a.interval(), before);
        for narrower in [&b, &c, &d] {
            assert!(narrower.interval().width() < before.width(), "{narrower}");
        }
        assert!(d.interval().width() <= eps);
    }

    /// `gcd(p_α, p_β)` must hold *both* operands before a one-root hull
    /// proves equality: α = √2 is a root of the gcd x² − 2, β = √(2 + 10⁻¹²)
    /// is not, and their intervals overlap until refined past 10⁻¹³.
    #[test]
    fn cmp_alg_checks_both_operands_against_the_gcd() {
        let iv = |lo: &str, hi: &str| RatInterval::new(lo.parse().unwrap(), hi.parse().unwrap());
        let near: Rat = "-2000000000001/1000000000000".parse().unwrap();
        let a = RealAlg::new(p(&[-2, 0, 1]), iv("1", "2"));
        let b = RealAlg::new(
            &p(&[-2, 0, 1]) * &UPoly::from_coeffs(vec![near, Rat::zero(), Rat::one()]),
            iv("14142135623731/10000000000000", "3"),
        );
        assert_eq!(a.clone().cmp_alg(&mut b.clone()), Ordering::Less);
        assert_eq!(b.clone().cmp_alg(&mut a.clone()), Ordering::Greater);
    }

    /// The squarefree invariant is established by `roots_of`, not assumed
    /// of its input: numbers built from `(x²−2)²·(x−1)` carry `x³−x²−2x+2`
    /// and `approx`/`refined`/`cmp_alg`/`sign_of`, which bisect on that
    /// polynomial without re-deriving it, agree with bisection on the
    /// squarefree part of the raw input and with the exact answers.
    #[test]
    fn roots_of_establishes_the_squarefree_invariant() {
        let raw = &p(&[-2, 0, 1]).pow(2) * &p(&[-1, 1]);
        let eps = Rat::new(1i64.into(), cdb_num::Int::pow2(40));
        let mut roots = RealAlg::roots_of(&raw);
        assert_eq!(roots.len(), 3);
        assert_eq!(roots[1].to_rat(), Some(Rat::one()));
        for i in [0, 2] {
            let r = &mut roots[i];
            assert_eq!(r.poly(), Some(&p(&[2, -2, -1, 1])));
            let want = refine(&raw.squarefree(), &r.interval(), &eps).interval();
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
        let [low, one, high] = &mut roots[..] else {
            unreachable!("three roots")
        };
        assert_eq!(low.cmp_alg(high), Ordering::Less);
        assert_eq!(high.cmp_alg(one), Ordering::Greater);
        assert_eq!(high.cmp_alg(&mut sqrt2()), Ordering::Equal);
        assert_eq!(low.cmp_alg(&mut sqrt2()), Ordering::Less);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be squarefree")]
    fn new_rejects_a_non_squarefree_polynomial() {
        let iv = RatInterval::new(Rat::one(), Rat::from(2i64));
        let _ = RealAlg::new(p(&[-2, 0, 1]).pow(2), iv);
    }

    #[test]
    fn roots_of_returns_sorted() {
        let roots = RealAlg::roots_of(&p(&[-6, 11, -6, 1]));
        assert_eq!(roots.len(), 3);
        let vals: Vec<Rat> = roots.iter().map(|r| r.to_rat().unwrap()).collect();
        assert_eq!(vals, vec![Rat::one(), Rat::from(2i64), Rat::from(3i64)]);
    }
}
