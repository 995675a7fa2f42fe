//! Real-root isolation and ε-refinement.
//!
//! This is the paper's NUMERICAL EVALUATION step (§2 step 3, Theorem 3.2):
//! given the quantifier-free output of QE, "solve the resulting system(s) of
//! equation(s)" to ε-approximate values. We substitute bisection for the
//! witness machinery of \[GV88\]/\[Nef90\]: a Sturm chain, private to this
//! module, counts the roots while isolation splits the Cauchy interval, and
//! once a root is alone in its interval one `halve` step at a time refines
//! it by sign alone. For a fixed number of variables this is
//! polynomial in the coefficient bit length and in `log(1/ε)`, preserving
//! the PTIME statement (see DESIGN.md §3). The entry points are
//! `RealAlg::roots_of`, `RealAlg::refined` and `RealAlg::approx`; this
//! module's results are private to the crate.

use crate::upoly::{negate, prem_primitive, UPoly};
use cdb_num::{FIntv, Rat, RatInterval, Sign};

/// Where a single real root of a squarefree polynomial lives: isolation's
/// and one halving step's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RootLocation {
    /// The root is exactly this rational.
    Exact(Rat),
    /// The root lies strictly inside the open interval, which contains
    /// exactly one root and whose endpoints are not roots.
    Isolated(RatInterval),
}

impl RootLocation {
    /// Interval enclosing the root (degenerate for exact roots).
    pub(crate) fn interval(&self) -> RatInterval {
        match self {
            RootLocation::Exact(r) => RatInterval::point(r.clone()),
            RootLocation::Isolated(iv) => iv.clone(),
        }
    }
}

/// Isolate all distinct real roots of `sf`, which the caller knows to be
/// squarefree (`gcd(sf, sf')` constant): `RealAlg::roots_of` establishes that
/// once and carries it. Roots are returned in increasing order. Rational
/// roots with small coefficients are detected exactly (rational sample
/// points keep downstream CAD arithmetic cheap).
pub(crate) fn isolate_squarefree(sf: &UPoly) -> Vec<RootLocation> {
    assert!(!sf.is_zero(), "cannot isolate roots of the zero polynomial");
    if sf.is_constant() {
        return Vec::new();
    }
    if let Some(r) = linear_root(sf) {
        return vec![RootLocation::Exact(r)];
    }
    let mut sf = sf.clone();
    let mut exacts = Vec::new();
    // Deflate exact rational roots first (bounded divisor enumeration).
    for r in rational_roots(&sf) {
        let lin = UPoly::from_coeffs(vec![-r.clone(), Rat::one()]);
        sf = sf.div_exact(&lin);
        exacts.push(r);
    }
    if let Some(r) = linear_root(&sf) {
        exacts.push(r);
        sf = UPoly::one();
    }
    let mut out = Vec::new();
    if !sf.is_constant() {
        let chain = sturm_chain(&sf);
        // The Cauchy bound is strict, so no root sits at or beyond ±bound:
        // the variations at ±bound are those at ±∞, and the count on
        // (lo, hi] equals the total.
        let (v_neg, v_pos) = variations_at_infinities(&chain);
        let bound = sf.cauchy_bound();
        let lo = (-bound.clone(), v_neg);
        isolate_in(&sf, &chain, lo, bound, v_neg - v_pos, &mut out);
        // Shrink isolated intervals until they exclude the deflated exact
        // roots (they must be disjoint from every root of `p`, not just of
        // the deflated `sf`).
        for loc in &mut out {
            let mut s_hi = None;
            while let RootLocation::Isolated(iv) = &*loc {
                if !exacts.iter().any(|r| iv.contains(r)) {
                    break;
                }
                *loc = halve(&sf, iv, &mut s_hi);
            }
        }
    }
    out.extend(exacts.into_iter().map(RootLocation::Exact));
    // The locations are disjoint, so their lower ends order them.
    out.sort_by_cached_key(|loc| loc.interval().lo().clone());
    out
}

/// One bisection step on an interval `iv` that holds exactly one root of the
/// squarefree `sf`, a simple one, with `hi` not a root: the half that holds
/// it, or `Exact(mid)` when the midpoint is the root. The root is in
/// `(mid, hi)` iff `sf` changes sign there, since it would be that half's
/// only root. `s_hi` caches `sf`'s sign at `iv.hi()`, taken on first use;
/// it stays the sign at the returned interval's `hi`, so a caller that
/// halves repeatedly passes the same cell and the sign is taken once.
pub(crate) fn halve(sf: &UPoly, iv: &RatInterval, s_hi: &mut Option<Sign>) -> RootLocation {
    let s_hi = *s_hi.get_or_insert_with(|| sf.fsign_at(iv.hi()));
    debug_assert_ne!(s_hi, Sign::Zero);
    let mid = iv.midpoint();
    match sf.fsign_at(&mid) {
        Sign::Zero => RootLocation::Exact(mid),
        s if s == s_hi => RootLocation::Isolated(RatInterval::new(iv.lo().clone(), mid)),
        _ => RootLocation::Isolated(RatInterval::new(mid, iv.hi().clone())),
    }
}

/// The root `−c₀/c₁` of a degree-1 polynomial, read off its coefficients:
/// no squarefree part, divisor enumeration or zero test (whose float filter
/// cannot certify a zero) is needed to find it.
pub(crate) fn linear_root(p: &UPoly) -> Option<Rat> {
    (p.deg() == 1).then(|| -(&p.coeff(0) / &p.coeff(1)))
}

/// Exact rational roots of a squarefree polynomial, via the rational-root
/// theorem with a budget: skipped when the constant/leading coefficients are
/// too large to enumerate divisors cheaply (irrational/huge roots are then
/// simply reported as isolated intervals — correctness is unaffected).
///
/// A candidate `s·p/q` in lowest terms reaches the exact evaluation only if
/// `q − s·p` divides `f(1)` and `q + s·p` divides `f(−1)`, `f` the primitive
/// integer multiple: were it a root, `q·x − s·p` would divide `f` over `Z`
/// (Gauss's lemma), so `f(±1)` would be a multiple of `±q − s·p`.
fn rational_roots(sf: &UPoly) -> Vec<Rat> {
    use cdb_num::Int;
    const LIMIT: i64 = 1_000_000;
    let prim = sf.primitive();
    if prim.deg() == 0 {
        return Vec::new();
    }
    // Factor out x^k first: root 0.
    let mut out = Vec::new();
    let mut start = 0;
    while prim.coeff(start).is_zero() {
        start += 1;
    }
    if start > 0 {
        out.push(Rat::zero());
    }
    let a0 = prim.coeff(start).numer().abs();
    let ad = prim.leading().numer().abs();
    let (Some(a0), Some(ad)) = (a0.to_i64(), ad.to_i64()) else {
        return out;
    };
    if a0 > LIMIT || ad > LIMIT {
        return out;
    }
    let divisors = |n: i64| -> Vec<i64> {
        let mut d = Vec::new();
        let mut i = 1;
        while i * i <= n {
            if n % i == 0 {
                d.push(i);
                d.push(n / i);
            }
            i += 1;
        }
        d
    };
    // f(1) and f(−1); dividing out x^start changes neither up to sign.
    let (mut at_one, mut at_minus_one) = (Int::zero(), Int::zero());
    for (i, c) in prim.coeffs().iter().enumerate() {
        at_one += c.numer();
        if i % 2 == 0 {
            at_minus_one += c.numer();
        } else {
            at_minus_one -= c.numer();
        }
    }
    let divides = |d: i64, v: &Int| match d.unsigned_abs() {
        0 => v.is_zero(),
        m => v.mod_u64(m) == 0,
    };
    let ps = divisors(a0);
    let qs = divisors(ad);
    for &p in &ps {
        for &q in &qs {
            if Int::from(p).gcd(&Int::from(q)) != Int::one() {
                continue;
            }
            for s in [1i64, -1] {
                if !divides(q - s * p, &at_one) || !divides(q + s * p, &at_minus_one) {
                    continue;
                }
                let cand = Rat::new(Int::from(s * p), Int::from(q));
                if sf.fsign_at(&cand) == Sign::Zero {
                    out.push(cand);
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Recursive bisection: `count` roots of `sf` lie in `(lo, hi]`, counted by
/// `chain`, the Sturm chain of `sf`. `lo` comes with its variation count,
/// which the caller already has: it is the parent interval's `lo` or its
/// midpoint, so each split evaluates the chain once, at the new midpoint.
fn isolate_in(
    sf: &UPoly,
    chain: &[UPoly],
    (lo, v_lo): (Rat, usize),
    hi: Rat,
    count: usize,
    out: &mut Vec<RootLocation>,
) {
    if count == 0 {
        return;
    }
    if count == 1 {
        // Check whether the right endpoint is the root itself.
        let mut s_hi = Some(sf.fsign_at(&hi));
        if s_hi == Some(Sign::Zero) {
            out.push(RootLocation::Exact(hi));
            return;
        }
        // The left endpoint may itself be a root of `sf` (not the one being
        // isolated — the count is over the half-open `(lo, hi]`). Halve
        // until it no longer is, keeping exactly one root inside.
        let mut loc = RootLocation::Isolated(RatInterval::new(lo, hi));
        while let RootLocation::Isolated(iv) = &loc {
            if sf.fsign_at(iv.lo()) != Sign::Zero {
                break;
            }
            loc = halve(sf, iv, &mut s_hi);
        }
        out.push(loc);
        return;
    }
    let mid = Rat::midpoint(&lo, &hi);
    let v_mid = variations_at(chain, &mid);
    let left = v_lo - v_mid;
    isolate_in(sf, chain, (lo, v_lo), mid.clone(), left, out);
    isolate_in(sf, chain, (mid, v_mid), hi, count - left, out);
}

/// The Sturm chain `p, p', -rem(p, p'), ...` of `p`; for a squarefree `p`
/// the number of its distinct real roots in `(a, b]` is
/// `variations_at(a) − variations_at(b)`. Every member after the first two
/// is the primitive integer multiple of `-rem` by a *positive* factor
/// (positive scaling preserves signs, controls coefficient growth). The
/// remainders are taken on integers (DESIGN.md §10.1): `p` and `p'` become
/// their primitive integer multiples once and each step is one
/// sign-preserving pseudo-remainder, so no `Rat` arithmetic runs inside the
/// loop.
fn sturm_chain(p: &UPoly) -> Vec<UPoly> {
    if p.is_zero() {
        return Vec::new();
    }
    let mut seq = vec![p.clone()];
    if p.is_constant() {
        return seq;
    }
    let dp = p.derivative();
    let mut a = p.primitive_ints();
    let mut b = dp.primitive_ints();
    seq.push(dp);
    while b.len() > 1 {
        let mut r = prem_primitive(&a, &b);
        if r.is_empty() {
            break;
        }
        negate(&mut r);
        seq.push(UPoly::from_int_coeffs(r.clone()));
        a = b;
        b = r;
    }
    seq
}

/// Sign variations of `chain` at `x`. Each member's sign goes through the
/// outward-rounded float enclosure first ([`UPoly::fsign_at_enclosed`]) and
/// is evaluated exactly only when the enclosure straddles zero, so the count
/// is the unfiltered one.
fn variations_at(chain: &[UPoly], x: &Rat) -> usize {
    let fx = FIntv::from(x);
    variations(chain.iter().map(|q| q.fsign_at_enclosed(x, &fx)))
}

/// Sign variations of `chain` at −∞ and at +∞, read off leading
/// coefficients. For the Sturm chain of a squarefree polynomial their
/// difference is its number of distinct real roots.
fn variations_at_infinities(chain: &[UPoly]) -> (usize, usize) {
    let at_pos_inf = |q: &UPoly| q.leading().sign();
    let at_neg_inf = |q: &UPoly| match q.deg() % 2 {
        1 => q.leading().sign().neg(),
        _ => q.leading().sign(),
    };
    (
        variations(chain.iter().map(at_neg_inf)),
        variations(chain.iter().map(at_pos_inf)),
    )
}

/// Sign changes in a sequence, zeros skipped.
fn variations(signs: impl Iterator<Item = Sign>) -> usize {
    let mut prev = Sign::Zero;
    let mut count = 0;
    for s in signs.filter(|&s| s != Sign::Zero) {
        count += usize::from(prev != Sign::Zero && prev != s);
        prev = s;
    }
    count
}

/// Halve the isolating interval `iv` of a root of the squarefree `sf` until
/// it is at most `eps` wide, or a midpoint is the root.
pub(crate) fn refine(sf: &UPoly, iv: &RatInterval, eps: &Rat) -> RootLocation {
    assert!(eps.sign() == Sign::Pos, "eps must be positive");
    let mut loc = RootLocation::Isolated(iv.clone());
    let mut s_hi = None;
    while let RootLocation::Isolated(iv) = &loc {
        if &iv.width() <= eps {
            break;
        }
        loc = halve(sf, iv, &mut s_hi);
    }
    loc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RealAlg;
    use cdb_num::Int;
    use proptest::prelude::*;

    fn p(coeffs: &[i64]) -> UPoly {
        UPoly::from_ints(coeffs)
    }

    /// All real roots of `f`, ε-approximated, increasing.
    fn approx_roots(f: &UPoly, eps: &Rat) -> Vec<Rat> {
        RealAlg::roots_of(f).iter().map(|r| r.approx(eps)).collect()
    }

    fn rat(s: &str) -> Rat {
        s.parse().unwrap()
    }

    #[test]
    fn figure1_unique_root() {
        // 4x^2 - 20x + 25 = (2x-5)^2: unique root 2.5 — the paper's example.
        let f = p(&[25, -20, 4]);
        let roots = RealAlg::roots_of(&f);
        assert_eq!(roots.len(), 1);
        // Squarefree part is linear, so the root is exact.
        assert_eq!(roots[0].to_rat(), Some(rat("5/2")));
        assert_eq!(roots[0].approx(&rat("1/1000000")), rat("5/2"));
    }

    #[test]
    fn three_rational_roots() {
        let f = p(&[-6, 11, -6, 1]); // roots 1, 2, 3
        let roots = approx_roots(&f, &rat("1/1024"));
        assert_eq!(roots.len(), 3);
        for (r, expect) in roots.iter().zip([1i64, 2, 3]) {
            assert!((r - &Rat::from(expect)).abs() < rat("1/1000"));
        }
    }

    #[test]
    fn irrational_roots_sqrt2() {
        let f = p(&[-2, 0, 1]); // x^2 - 2
        let roots = RealAlg::roots_of(&f);
        assert_eq!(roots.len(), 2);
        let eps = rat("1/1000000000");
        let pos = roots[1].refined(&eps).interval();
        let mid = pos.midpoint().to_f64();
        assert!((mid - std::f64::consts::SQRT_2).abs() < 1e-8);
        let neg = roots[0].refined(&eps).interval();
        assert!((neg.midpoint().to_f64() + std::f64::consts::SQRT_2).abs() < 1e-8);
    }

    #[test]
    fn no_roots() {
        assert!(RealAlg::roots_of(&p(&[1, 0, 1])).is_empty());
        assert!(RealAlg::roots_of(&p(&[5])).is_empty());
    }

    #[test]
    fn close_roots_separated() {
        // (x - 1)(x - 1001/1000): two roots 1/1000 apart.
        let f = &p(&[-1, 1]) * &UPoly::from_coeffs(vec![rat("-1001/1000"), Rat::one()]);
        let roots = RealAlg::roots_of(&f);
        assert_eq!(roots.len(), 2);
        let a = roots[0].refined(&rat("1/100000")).interval();
        let b = roots[1].refined(&rat("1/100000")).interval();
        assert!(a.hi() < b.lo());
        assert!(a.contains(&Rat::one()));
        assert!(b.contains(&rat("1001/1000")));
    }

    #[test]
    fn multiple_root_counted_once() {
        let f = &p(&[-1, 1]).pow(3) * &p(&[-4, 1]); // (x-1)^3 (x-4)
        let roots = approx_roots(&f, &rat("1/1000"));
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn degree7_roots_in_order() {
        let mut f = UPoly::one();
        for i in 1..=7i64 {
            f = &f * &p(&[-i, 1]);
        }
        let roots = approx_roots(&f, &rat("1/4096"));
        assert_eq!(roots.len(), 7);
        for w in roots.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    /// The hardest univariate inputs the system sees (§5): the five
    /// degree-6, 41-bit Chebyshev pieces of `cos` on `[-1, 4]` that
    /// `LENGTH[x]{cos(x) >= 0 and 0 <= x <= 3}` isolates and refines. The
    /// integer kernel's squarefree part and Sturm chain equal the seed `Rat`
    /// sequences member for member — all that isolation and refinement read
    /// besides the polynomial itself — and `RealAlg::approx` lands on the
    /// ε = 2⁻³⁰ midpoints of isolation and refinement on that squarefree
    /// part.
    #[test]
    fn abase_cos_pieces_match_the_reference_path() {
        use crate::refimpl::{ref_squarefree, ref_sturm_chain, RefUPoly};
        const DEN: &str = "1099511627776"; // 2^40
        const PIECES: [[i64; 7]; 5] = [
            [
                1099511638972,
                1094188,
                -549738557827,
                100527211,
                46084972505,
                358056343,
                -1329722187,
            ],
            [
                1099511638972,
                -1094188,
                -549738557827,
                -100527211,
                46084972505,
                -358056343,
                -1329722187,
            ],
            [
                1102396247956,
                -14132428864,
                -520530499629,
                -32936811091,
                67459583737,
                -8080216358,
                -107181741,
            ],
            [
                1196063927307,
                -281312321739,
                -199167078489,
                -241831977067,
                144935211647,
                -23635202465,
                1213901104,
            ],
            [
                1182938960437,
                -307765315907,
                -133275438499,
                -290760355773,
                162164566114,
                -26616756100,
                1418928872,
            ],
        ];
        let eps = Rat::new(1i64.into(), cdb_num::Int::pow2(30));
        let den: Rat = rat(DEN);
        let mut in_cell = Vec::new();
        for (lo, ints) in (-1i64..).zip(PIECES) {
            let f = UPoly::from_coeffs(ints.iter().map(|&c| &Rat::from(c) / &den).collect());
            assert_eq!(f.max_coeff_bits(), 41);
            let sf = f.squarefree();
            assert_eq!(sf, ref_squarefree(&RefUPoly::from_upoly(&f)).to_upoly());
            let want: Vec<UPoly> = ref_sturm_chain(&RefUPoly::from_upoly(&sf))
                .iter()
                .map(RefUPoly::to_upoly)
                .collect();
            assert_eq!(sturm_chain(&sf), want);

            let mids: Vec<Rat> = isolate_squarefree(&sf)
                .iter()
                .map(|loc| match loc {
                    RootLocation::Exact(r) => r.clone(),
                    RootLocation::Isolated(iv) => refine(&sf, iv, &eps).interval().midpoint(),
                })
                .collect();
            assert_eq!(approx_roots(&f, &eps), mids);
            let (lo, hi) = (Rat::from(lo), Rat::from(lo + 1));
            in_cell.extend(mids.into_iter().filter(|m| &lo <= m && m <= &hi));
        }
        // On their own cells the pieces have one root between them: π/2.
        assert_eq!(in_cell.len(), 1);
        assert!((in_cell[0].to_f64() - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
    }

    /// `(s·p, q)` in lowest terms for a planted factor `q·x − s·p`: 0, ±1,
    /// small fractions, and numerators and denominators at the divisor
    /// enumeration's 10⁶ limit.
    fn arb_root() -> impl Strategy<Value = (i64, i64)> {
        let limit = || prop_oneof![Just(1i64), Just(999_999), Just(1_000_000)];
        prop_oneof![
            Just((0i64, 1i64)),
            Just((1, 1)),
            Just((-1, 1)),
            (-12i64..=12, 1i64..=12),
            (limit(), limit()),
            (limit(), limit()).prop_map(|(p, q)| (-p, q)),
        ]
        .prop_map(|(p, q)| {
            let g = Int::from(p).gcd(&Int::from(q)).to_i64().unwrap_or(1);
            (p / g, q / g)
        })
    }

    /// Every `±p/q` with `p | a0`, `q | ad` coprime that `f` vanishes at,
    /// without the divisibility filter.
    fn unfiltered_rational_roots(f: &UPoly) -> Vec<Rat> {
        let prim = f.primitive();
        let start = (0..).find(|&i| !prim.coeff(i).is_zero()).unwrap_or(0);
        let divisors = |n: &Int| -> Vec<i64> {
            let n = n.abs().to_i64().unwrap_or(0);
            (1..=n).filter(|d| n % d == 0).collect()
        };
        let mut out: Vec<Rat> = if start > 0 {
            vec![Rat::zero()]
        } else {
            Vec::new()
        };
        for p in divisors(prim.coeff(start).numer()) {
            for q in divisors(prim.leading().numer()) {
                for cand in [Rat::from_ints(p, q), Rat::from_ints(-p, q)] {
                    if f.sign_at(&cand) == Sign::Zero {
                        out.push(cand);
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The `f(±1)` divisibility filter drops no root: planted factors
        /// `q·x − s·p` times a quadratic cofactor without rational roots
        /// (or 1) come back as exactly the planted roots, which is what the
        /// unfiltered enumeration finds; past the 10⁶ limit only the root 0
        /// is reported.
        #[test]
        fn rational_roots_are_the_planted_ones(
            planted in prop::collection::vec(arb_root(), 0..4),
            (c0, c1, c2) in (-3i64..=3, -3i64..=3, 1i64..=3),
        ) {
            let cofactor = if c0 == 0 {
                UPoly::one()
            } else {
                let disc = c1 * c1 - 4 * c0 * c2;
                prop_assume!(disc < 0 || (0..=disc).all(|r| r * r != disc));
                p(&[c0, c1, c2])
            };
            let mut roots: Vec<Rat> = planted.iter().map(|&(p, q)| Rat::from_ints(p, q)).collect();
            roots.sort();
            roots.dedup();
            let mut f = cofactor;
            for r in &roots {
                let q = Rat::from(r.denom().clone());
                f = &f * &UPoly::from_coeffs(vec![-(r * &q), q]);
            }
            let found = rational_roots(&f);
            let prim = f.primitive();
            let start = (0..).find(|&i| !prim.coeff(i).is_zero()).unwrap_or(0);
            let limit = Int::from(1_000_000i64);
            if prim.coeff(start).numer().abs() <= limit && prim.leading().numer().abs() <= limit {
                prop_assert_eq!(&found, &roots);
                prop_assert_eq!(&found, &unfiltered_rational_roots(&f));
            } else {
                let zero: Vec<Rat> = roots.into_iter().filter(Rat::is_zero).collect();
                prop_assert_eq!(found, zero);
            }
        }
    }

    /// A linear polynomial's root comes straight off its coefficients, also
    /// past `rational_roots`' 10⁶ enumeration limit and under a negative
    /// leading coefficient, and every entry point reports the same root.
    #[test]
    fn linear_root_is_exact_past_the_enumeration_limit() {
        let huge = Rat::from(Int::pow2(70));
        let cases = [
            (p(&[7_000_000_019, -3_000_017]), rat("7000000019/3000017")),
            (p(&[-5, -2_000_003]), rat("-5/2000003")),
            (
                UPoly::from_coeffs(vec![Rat::from(3i64), -huge.clone()]),
                &Rat::from(3i64) / &huge,
            ),
            (p(&[0, -9]), Rat::zero()),
        ];
        let eps = rat("1/1024");
        for (f, root) in cases {
            assert_eq!(linear_root(&f), Some(root.clone()), "{f}");
            assert_eq!(
                isolate_squarefree(&f.squarefree()),
                [RootLocation::Exact(root.clone())]
            );
            assert_eq!(approx_roots(&f, &eps), std::slice::from_ref(&root));
            let alg = RealAlg::roots_of(&f);
            let [only] = alg.as_slice() else {
                panic!("one root expected for {f}")
            };
            assert_eq!(only.to_rat(), Some(root));
            assert_eq!(only.poly(), None);
        }
        assert_eq!(linear_root(&p(&[1, 2, 3])), None);
        assert_eq!(linear_root(&p(&[4])), None);
    }

    #[test]
    fn refinement_hits_epsilon() {
        let f = p(&[-3, 0, 1]); // sqrt(3)
        let roots = RealAlg::roots_of(&f);
        let eps = rat("1/1000000000000");
        let iv = roots[1].refined(&eps).interval();
        assert!(iv.width() <= eps);
        // sqrt(3) inside.
        let m = iv.midpoint();
        assert!((&(&m * &m) - &Rat::from(3i64)).abs() < rat("1/1000000000"));
    }

    /// Distinct real roots of the squarefree polynomial whose Sturm chain
    /// this is.
    fn real_root_count(chain: &[UPoly]) -> usize {
        let (at_neg, at_pos) = variations_at_infinities(chain);
        at_neg - at_pos
    }

    /// Distinct roots in `(a, b]` of the squarefree polynomial whose Sturm
    /// chain this is.
    fn count_half_open(chain: &[UPoly], a: &Rat, b: &Rat) -> usize {
        assert!(a <= b);
        variations_at(chain, a) - variations_at(chain, b)
    }

    #[test]
    fn count_roots_of_cubic() {
        // (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        let chain = sturm_chain(&p(&[-6, 11, -6, 1]));
        assert_eq!(real_root_count(&chain), 3);
        assert_eq!(count_half_open(&chain, &Rat::zero(), &Rat::from(10i64)), 3);
        // Half-open (1, 2]: the root at 2 is counted, the root at 1 is not.
        assert_eq!(count_half_open(&chain, &Rat::one(), &Rat::from(2i64)), 1);
        assert_eq!(count_half_open(&chain, &rat("3/2"), &rat("5/2")), 1);
    }

    #[test]
    fn no_real_roots() {
        assert_eq!(real_root_count(&sturm_chain(&p(&[1, 0, 1]))), 0); // x^2 + 1
    }

    #[test]
    fn double_root_counted_once_after_squarefree() {
        let chain = sturm_chain(&p(&[25, -20, 4]).squarefree()); // (2x-5)^2
        assert_eq!(real_root_count(&chain), 1);
        assert_eq!(
            count_half_open(&chain, &Rat::from(2i64), &Rat::from(3i64)),
            1
        );
    }

    #[test]
    fn variations_edges() {
        let chain = sturm_chain(&p(&[0, 1])); // x, root at 0
                                              // (−1, 0] contains the root; (0, 1] does not.
        assert_eq!(count_half_open(&chain, &Rat::from(-1i64), &Rat::zero()), 1);
        assert_eq!(count_half_open(&chain, &Rat::zero(), &Rat::one()), 0);
    }

    #[test]
    fn wilkinson_like_many_roots() {
        // Π_{i=1..7} (x - i)
        let mut f = UPoly::one();
        for i in 1..=7i64 {
            f = &f * &p(&[-i, 1]);
        }
        let chain = sturm_chain(&f);
        assert_eq!(real_root_count(&chain), 7);
        // Roots 3, 4, 5.
        assert_eq!(count_half_open(&chain, &rat("5/2"), &rat("11/2")), 3);
    }

    /// Product of random small linear factors `den·x − num`, and its roots.
    fn factored_poly() -> impl Strategy<Value = (UPoly, Vec<Rat>)> {
        prop::collection::vec((-8i64..=8, 1i64..=4), 1..=4).prop_map(|facs| {
            let mut f = UPoly::one();
            let mut roots: Vec<Rat> = Vec::new();
            for (num, den) in facs {
                f = &f * &p(&[-num, den]);
                roots.push(Rat::from_ints(num, den));
            }
            roots.sort();
            roots.dedup();
            (f, roots)
        })
    }

    /// A rational whose numerator has up to ~200 bits (40 and up in the
    /// common case) over a denominator that is 1, small, or a full word.
    fn big_rat() -> impl Strategy<Value = Rat> {
        (
            any::<i128>(),
            0u64..=72,
            prop_oneof![Just(1u64), 1u64..=97, any::<u64>()],
        )
            .prop_map(|(num, shift, den)| Rat::new(&Int::from(num) << shift, Int::from(den.max(1))))
    }

    /// A polynomial of the given coefficient count over [`big_rat`] (count 0
    /// is the zero polynomial).
    fn big_poly(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = UPoly> {
        prop::collection::vec(big_rat(), len).prop_map(UPoly::from_coeffs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sturm_count_matches_known_roots((f, roots) in factored_poly()) {
            prop_assert_eq!(real_root_count(&sturm_chain(&f.squarefree())), roots.len());
        }

        /// Isolation starts from the variations at −∞ in place of those at
        /// minus the Cauchy bound: no root lies at or below it, so the two
        /// counts agree.
        #[test]
        fn variations_at_minus_bound_are_those_at_minus_infinity(
            coeffs in prop::collection::vec(-30i64..=30, 2..=8),
        ) {
            let f = p(&coeffs).squarefree();
            prop_assume!(!f.is_constant());
            let chain = sturm_chain(&f);
            let minus_bound = -f.cauchy_bound();
            prop_assert_eq!(variations_at(&chain, &minus_bound), variations_at_infinities(&chain).0);
        }

        /// Filtered Sturm variation counts equal the exact per-element
        /// counts, so root isolation takes identical branches with the
        /// filter on or off.
        #[test]
        fn filtered_sturm_variations_agree(
            coeffs in prop::collection::vec(-30i64..=30, 1..=7),
            n in -100i64..=100,
            d in 1i64..=8,
        ) {
            let f = p(&coeffs);
            prop_assume!(!f.is_constant());
            let chain = sturm_chain(&f);
            let x = Rat::from_ints(n, d);
            let exact = {
                let signs: Vec<Sign> = chain
                    .iter()
                    .map(|q| q.sign_at(&x))
                    .filter(|s| *s != Sign::Zero)
                    .collect();
                signs.windows(2).filter(|w| w[0] != w[1]).count()
            };
            prop_assert_eq!(variations_at(&chain, &x), exact);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Sturm chains agree member-by-member with the seed algorithm
        /// (`refimpl::ref_sturm_chain`): `==` on `UPoly`, coefficients and
        /// content hash. Inputs run from small integer polynomials to
        /// 200-bit rational coefficients, with repeated factors (the chain
        /// ends on a zero remainder), constants and linear polynomials.
        #[test]
        fn sturm_chain_matches_reference(
            small in prop::collection::vec(-20i64..=20, 1..=7),
            f in big_poly(0..=6),
            q in big_poly(1..=3),
        ) {
            use crate::refimpl::{ref_sturm_chain, RefUPoly};
            for f in [p(&small), f.clone(), &(&q * &q) * &f, &q * &f.derivative()] {
                let want: Vec<UPoly> = ref_sturm_chain(&RefUPoly::from_upoly(&f))
                    .iter()
                    .map(RefUPoly::to_upoly)
                    .collect();
                prop_assert_eq!(sturm_chain(&f), want, "chain of {}", &f);
            }
        }
    }
}
