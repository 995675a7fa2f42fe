//! Property-based tests: polynomial ring axioms, division/gcd identities,
//! root isolation invariants, exact signs and comparisons of algebraic
//! numbers, and resultant specialization.

use cdb_num::{Int, Rat, RatInterval, Sign};
use cdb_poly::refimpl::{ref_squarefree, ref_sturm_chain, RefUPoly};
use cdb_poly::resultant::{discriminant, resultant};
use cdb_poly::{MPoly, Partial, RealAlg, UPoly};
use proptest::prelude::*;
use std::cmp::Ordering;

fn arb_upoly(max_deg: usize, coeff: i64) -> impl Strategy<Value = UPoly> {
    prop::collection::vec(-coeff..=coeff, 1..=max_deg + 1).prop_map(|v| UPoly::from_ints(&v))
}

fn nonzero_upoly(max_deg: usize, coeff: i64) -> impl Strategy<Value = UPoly> {
    arb_upoly(max_deg, coeff).prop_filter("nonzero", |p| !p.is_zero())
}

/// Product of random small linear/quadratic factors: known real roots.
fn factored_poly() -> impl Strategy<Value = (UPoly, Vec<Rat>)> {
    prop::collection::vec((-8i64..=8, 1i64..=4), 1..=4).prop_map(|facs| {
        let mut p = UPoly::one();
        let mut roots: Vec<Rat> = Vec::new();
        for (num, den) in facs {
            let r = Rat::new(num.into(), den.into());
            // factor (den*x - num)
            p = &p * &UPoly::from_coeffs(vec![Rat::from(-num), Rat::from(den)]);
            roots.push(r);
        }
        roots.sort();
        roots.dedup();
        (p, roots)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn upoly_ring_axioms(a in arb_upoly(5, 10), b in arb_upoly(5, 10), c in arb_upoly(5, 10)) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn upoly_divrem_invariant(a in arb_upoly(6, 10), b in nonzero_upoly(4, 10)) {
        let (q, r) = a.divrem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a);
        prop_assert!(r.is_zero() || r.deg() < b.deg());
    }

    #[test]
    fn upoly_gcd_divides_both(a in nonzero_upoly(4, 6), b in nonzero_upoly(4, 6)) {
        let g = a.gcd(&b);
        prop_assert!(a.divrem(&g).1.is_zero());
        prop_assert!(b.divrem(&g).1.is_zero());
    }

    #[test]
    fn upoly_gcd_detects_common_factor(a in nonzero_upoly(3, 6), b in nonzero_upoly(3, 6), f in nonzero_upoly(2, 6)) {
        prop_assume!(!f.is_constant());
        let g = (&a * &f).gcd(&(&b * &f));
        // gcd is divisible by f (up to scalar).
        prop_assert!(g.divrem(&f.monic()).1.is_zero() || f.monic().divrem(&g).1.is_zero() || !g.is_constant());
        prop_assert!((&a * &f).divrem(&g).1.is_zero());
    }

    #[test]
    fn derivative_is_linear(a in arb_upoly(5, 10), b in arb_upoly(5, 10)) {
        prop_assert_eq!((&a + &b).derivative(), &a.derivative() + &b.derivative());
        // Product rule.
        let lhs = (&a * &b).derivative();
        let rhs = &(&a.derivative() * &b) + &(&a * &b.derivative());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn antiderivative_inverts_derivative(a in arb_upoly(5, 10)) {
        prop_assert_eq!(a.antiderivative().derivative(), a);
    }

    #[test]
    fn eval_is_ring_hom(a in arb_upoly(4, 8), b in arb_upoly(4, 8), x in -20i64..=20) {
        let p = Rat::from(x);
        prop_assert_eq!((&a + &b).eval(&p), &a.eval(&p) + &b.eval(&p));
        prop_assert_eq!((&a * &b).eval(&p), &a.eval(&p) * &b.eval(&p));
    }

    #[test]
    fn isolation_finds_all_known_roots((p, roots) in factored_poly()) {
        let found = RealAlg::roots_of(&p);
        prop_assert_eq!(found.len(), roots.len());
        for (root, expect) in found.iter().zip(&roots) {
            match root.to_rat() {
                Some(r) => prop_assert_eq!(&r, expect),
                None => prop_assert!(root.interval().contains(expect)),
            }
        }
    }

    #[test]
    fn isolated_intervals_are_disjoint(p in nonzero_upoly(6, 12)) {
        prop_assume!(!p.is_constant());
        let roots = RealAlg::roots_of(&p);
        for w in roots.windows(2) {
            prop_assert!(w[0].interval().hi() <= w[1].interval().lo());
        }
        // Each interval/point actually brackets a sign change or exact zero.
        let sf = p.squarefree();
        for root in &roots {
            match root.to_rat() {
                Some(r) => prop_assert_eq!(sf.sign_at(&r), Sign::Zero),
                None => {
                    let iv = root.interval();
                    let sl = sf.sign_at(iv.lo());
                    let sh = sf.sign_at(iv.hi());
                    prop_assert!(sl != Sign::Zero && sh != Sign::Zero && sl != sh);
                }
            }
        }
    }

    #[test]
    fn refinement_preserves_root(p in nonzero_upoly(5, 10), bits in 4u32..20) {
        prop_assume!(!p.is_constant());
        let eps = Rat::new(1i64.into(), cdb_num::Int::pow2(u64::from(bits)));
        for root in RealAlg::roots_of(&p) {
            let iv = root.refined(&eps).interval();
            prop_assert!(iv.width() <= eps);
            // Sign change or zero still inside.
            let sf = p.squarefree();
            if iv.width().is_zero() {
                prop_assert_eq!(sf.sign_at(iv.lo()), Sign::Zero);
            } else {
                prop_assert!(sf.sign_at(iv.lo()) != sf.sign_at(iv.hi()));
            }
        }
    }

    #[test]
    fn resultant_specialization(ax in -4i64..=4, bx in -4i64..=4, cx in -4i64..=4, dx in -4i64..=4, at in -5i64..=5) {
        // p = x·y + ax·y² + bx, q = cx·y + dx (in vars x=0, y=1), random
        // specialization x = at must commute with res_y as long as leading
        // coefficients do not vanish under specialization.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let cst = |v: i64| MPoly::constant(Rat::from(v), 2);
        let p = &(&(&x * &y) + &(&cst(ax) * &y.pow(2))) + &cst(bx);
        let q = &(&cst(cx) * &y) + &cst(dx);
        prop_assume!(!p.is_zero() && !q.is_zero());
        let py = p.as_upoly_in(1);
        let qy = q.as_upoly_in(1);
        let a = Rat::from(at);
        prop_assume!(!py.last().unwrap().substitute(0, &a).is_zero());
        prop_assume!(!qy.last().unwrap().substitute(0, &a).is_zero());
        let r = resultant(&p, &q, 1);
        let ps = p.substitute(0, &a).to_upoly_in(1).unwrap();
        let qs = q.substitute(0, &a).to_upoly_in(1).unwrap();
        let direct = resultant(
            &MPoly::from_upoly(&ps, 0, 1),
            &MPoly::from_upoly(&qs, 0, 1),
            0,
        );
        prop_assert_eq!(
            r.substitute(0, &a).to_constant().unwrap(),
            direct.to_constant().unwrap()
        );
    }

    #[test]
    fn discriminant_zero_iff_multiple_root(r1 in -5i64..=5, r2 in -5i64..=5) {
        // (x − r1)(x − r2): discriminant zero iff r1 == r2.
        let x = MPoly::var(0, 1);
        let f1 = &x - &MPoly::constant(Rat::from(r1), 1);
        let f2 = &x - &MPoly::constant(Rat::from(r2), 1);
        let p = &f1 * &f2;
        let d = discriminant(&p, 0);
        prop_assert_eq!(d.is_zero(), r1 == r2);
    }

    #[test]
    fn realalg_sign_consistent_with_approx(c0 in -9i64..=9, c1 in -9i64..=9) {
        // α = roots of x² + c1 x + c0; check sign_of(x - m) against approx.
        let p = UPoly::from_ints(&[c0, c1, 1]);
        for mut alpha in RealAlg::roots_of(&p) {
            let a = alpha.approx(&"1/65536".parse().unwrap());
            for m in [-3i64, 0, 2] {
                let q = UPoly::from_coeffs(vec![Rat::from(-m), Rat::one()]);
                let s = alpha.sign_of(&q);
                let approx_val = &a - &Rat::from(m);
                if approx_val.abs() > "1/1024".parse::<Rat>().unwrap() {
                    prop_assert_eq!(s, approx_val.sign());
                }
            }
        }
    }

    /// Roots of `f·h` against roots of `g·h` (shared and near-shared roots):
    /// `cmp_alg` is antisymmetric, its strict verdicts are the order of the
    /// enclosures at width 2⁻⁶⁴, and `Equal` means exactly that those still
    /// overlap and both numbers are roots of `gcd(f·h, g·h)`.
    #[test]
    fn cmp_alg_is_exact_on_shared_factors(f in nonzero_upoly(2, 4), g in nonzero_upoly(2, 4), h in nonzero_upoly(2, 4)) {
        let (fh, gh) = (&f * &h, &g * &h);
        let common = fh.gcd(&gh);
        let eps = Rat::new(Int::one(), Int::pow2(64));
        for mut a in RealAlg::roots_of(&fh) {
            for mut b in RealAlg::roots_of(&gh) {
                let ord = a.cmp_alg(&mut b);
                prop_assert_eq!(b.cmp_alg(&mut a), ord.reverse());
                let (ia, ib) = (a.refined(&eps).interval(), b.refined(&eps).interval());
                match ord {
                    Ordering::Less => prop_assert!(ia.hi() < ib.lo()),
                    Ordering::Greater => prop_assert!(ib.hi() < ia.lo()),
                    Ordering::Equal => {}
                }
                let overlap = ia.lo() <= ib.hi() && ib.lo() <= ia.hi();
                let both_roots =
                    a.sign_of(&common) == Sign::Zero && b.sign_of(&common) == Sign::Zero;
                prop_assert_eq!(ord == Ordering::Equal, overlap && both_roots);
            }
        }
    }

    #[test]
    fn mpoly_eval_substitute_agree(ax in -5i64..=5, by in -5i64..=5, c in -5i64..=5, px in -4i64..=4, py in -4i64..=4) {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&(&MPoly::constant(Rat::from(ax), 2) * &x.pow(2))
            + &(&MPoly::constant(Rat::from(by), 2) * &(&x * &y)))
            + &MPoly::constant(Rat::from(c), 2);
        let full = p.eval(&[Rat::from(px), Rat::from(py)]);
        let step = p
            .substitute(0, &Rat::from(px))
            .substitute(1, &Rat::from(py))
            .to_constant()
            .unwrap();
        prop_assert_eq!(full, step);
    }
}

/// Distinct roots of `p` in the open interval `iv`, counted by the seed
/// Sturm chain of its squarefree part (`refimpl`), not by `RealAlg`.
fn ref_roots_in(p: &UPoly, iv: &RatInterval) -> usize {
    let sf = ref_squarefree(&RefUPoly::from_upoly(p));
    let chain = ref_sturm_chain(&sf);
    let variations = |x: &Rat| {
        let signs: Vec<Sign> = chain
            .iter()
            .map(|q| q.eval(x).sign())
            .filter(|s| *s != Sign::Zero)
            .collect();
        signs.windows(2).filter(|w| w[0] != w[1]).count()
    };
    variations(iv.lo()) - variations(iv.hi()) - usize::from(sf.eval(iv.hi()).is_zero())
}

/// `2⁻ⁿ`.
fn pow2_inv(n: u32) -> Rat {
    Rat::new(Int::one(), Int::pow2(n.into()))
}

/// Root `i` of the squarefree `p`, whose roots are known to within 2⁻⁸⁰
/// as `centres`, as a `RealAlg` with the skewed isolating interval
/// `(c − 2⁻ˡ, c + 2⁻ʳ)` around `c = centres[i]`: each side is halved until
/// it keeps clear of every other centre and does not end on a root. The
/// seed Sturm chain then confirms that one root of `p` lies inside. A side
/// left wide keeps the interval overlapping a neighbour's through many
/// refinements.
fn skewed(p: &UPoly, centres: &[Rat], i: usize, (mut l, mut r): (u32, u32)) -> RealAlg {
    let (c, margin) = (&centres[i], pow2_inv(70));
    let clear = |end: &Rat| {
        let (lo, hi) = (
            Rat::min(c.clone(), end.clone()),
            Rat::max(c.clone(), end.clone()),
        );
        let (lo, hi) = (&lo - &margin, &hi + &margin);
        p.sign_at(end) != Sign::Zero
            && centres
                .iter()
                .enumerate()
                .all(|(j, d)| j == i || d < &lo || &hi < d)
    };
    while !clear(&(c - &pow2_inv(l))) {
        l += 1;
    }
    while !clear(&(c + &pow2_inv(r))) {
        r += 1;
    }
    assert!(l.max(r) < 70, "no isolating interval around {c}");
    let iv = RatInterval::new(c - &pow2_inv(l), c + &pow2_inv(r));
    assert_eq!(ref_roots_in(p, &iv), 1, "{iv} isolates a root of {p}");
    RealAlg::new(p.clone(), iv)
}

/// `x² + b·x + c` with two irrational roots.
fn irrational_quadratic() -> impl Strategy<Value = UPoly> {
    (-4i64..=4, -6i64..=6)
        .prop_filter("irrational roots", |&(b, c)| {
            let d = b * b - 4 * c;
            d > 0 && (0..=d).all(|r| r * r != d)
        })
        .prop_map(|(b, c)| UPoly::from_ints(&[c, b, 1]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `sign_of` decides `q(α) = 0`, and `cmp_alg` decides `α = β`, by
    /// whether a gcd changes sign across an isolating interval (DESIGN.md
    /// §5, rule 1). α and β are roots of `f·g` and `f·h`, `f` a shared
    /// quadratic with irrational roots; a cofactor is 1, a small random
    /// polynomial, or `f − 10⁻ᵏ`, whose roots sit within 10⁻¹⁰ of `f`'s
    /// (`√2` against `√(2 + 10⁻¹²)` when `f = x² − 2`). Every interval is
    /// skewed wide on a random side, so shared and near-coincident pairs
    /// still overlap after `cmp_alg`'s four cheap rounds and reach the gcd:
    /// each case has at least two equal pairs (`f`'s roots), which only the
    /// gcd can call equal. The answers are checked against root counts of
    /// the seed Sturm chain on the intervals: with `I` an isolating interval
    /// of α, `q(α) = 0` iff `p_α·q` has no more roots in `I` than `q`; and
    /// α = β iff `p_α`, `p_β` and `p_α·p_β` each have one root in the
    /// intersection of their intervals. Strict answers are checked against
    /// intervals refined to 2⁻⁶⁴.
    #[test]
    fn gcd_sign_change_decides_zero_and_equality(
        f in irrational_quadratic(),
        (kg, kh, kq) in (0u8..3, 0u8..3, 0u8..3),
        (rg, rh, rq) in (nonzero_upoly(2, 4), nonzero_upoly(2, 4), nonzero_upoly(2, 4)),
        shift in 10u32..=13,
        skews in prop::collection::vec((0u32..=30, 0u32..=30), 8),
    ) {
        let tenth = Rat::from_ints(1, 10);
        let near = &f - &UPoly::from_coeffs(vec![(0..shift).fold(Rat::one(), |d, _| &d * &tenth)]);
        let pick = |kind: u8, r: &UPoly| match kind {
            0 => UPoly::one(),
            1 => r.clone(),
            _ => near.clone(),
        };
        let (fg, fh, q) = (&f * &pick(kg, &rg), &f * &pick(kh, &rh), &f * &pick(kq, &rq));
        // Each root of `f·g` and `f·h` with its skewed interval, once.
        // Every use takes a copy: refinement persists in the `RealAlg` it
        // ran on, and a number refined by an earlier comparison would
        // separate from the next one before the gcd is ever taken.
        let isolated = |p: &UPoly, skew: usize| -> Vec<RealAlg> {
            let roots = RealAlg::roots_of(p);
            let centres: Vec<Rat> = roots.iter().map(|r| r.approx(&pow2_inv(80))).collect();
            roots
                .iter()
                .zip(&skews[skew..])
                .enumerate()
                .map(|(i, (root, &lr))| match root.poly() {
                    None => root.clone(),
                    Some(p) => skewed(p, &centres, i, lr),
                })
                .collect()
        };
        let (alphas, betas) = (isolated(&fg, 0), isolated(&fh, 4));
        let eps = pow2_inv(64);
        let mut equal_pairs = 0;
        for a in &alphas {
            let mut alpha = a.clone();
            let s = alpha.sign_of(&q);
            if let Some(r) = alpha.to_rat() {
                prop_assert_eq!(s, q.sign_at(&r));
            } else if let Some(p_alpha) = alpha.poly() {
                let iv = alpha.interval();
                let zero = ref_roots_in(&(p_alpha * &q), &iv) == ref_roots_in(&q, &iv);
                prop_assert_eq!(s == Sign::Zero, zero, "sign of {} at {:?}", &q, &alpha);
                if s != Sign::Zero {
                    prop_assert_eq!(q.sign_at(&alpha.approx(&pow2_inv(80))), s);
                }
            }
            for b in &betas {
                let (mut x, mut y) = (a.clone(), b.clone());
                let ord = x.cmp_alg(&mut y);
                prop_assert_eq!(y.cmp_alg(&mut x), ord.reverse());
                if let (Some(px), Some(py)) = (x.poly(), y.poly()) {
                    let (ix, iy) = (x.interval(), y.interval());
                    let (lo, hi) = (Rat::max(ix.lo().clone(), iy.lo().clone()), Rat::min(ix.hi().clone(), iy.hi().clone()));
                    let equal = lo < hi && {
                        let j = RatInterval::new(lo, hi);
                        [px.clone(), py.clone(), px * py]
                            .iter()
                            .all(|p| ref_roots_in(p, &j) == 1)
                    };
                    prop_assert_eq!(ord == Ordering::Equal, equal, "{:?} against {:?}", &x, &y);
                }
                let (ix, iy) = (x.refined(&eps).interval(), y.refined(&eps).interval());
                match ord {
                    Ordering::Less => prop_assert!(ix.hi() < iy.lo()),
                    Ordering::Greater => prop_assert!(iy.hi() < ix.lo()),
                    Ordering::Equal => equal_pairs += 1,
                }
            }
        }
        prop_assert!(equal_pairs >= 2, "f's two roots are shared");
    }
}

/// A polynomial in 3 variables: up to 6 terms of degree at most 3 in each
/// variable, zero coefficients allowed (so the zero polynomial occurs), and
/// variable `drop` removed (so variables the polynomial does not use occur;
/// `drop = 3` removes none).
fn arb_mpoly3() -> impl Strategy<Value = MPoly> {
    let term = ((0u32..=3, 0u32..=3, 0u32..=3), -4i64..=4);
    (prop::collection::vec(term, 0..=6), 0usize..4).prop_map(|(terms, drop)| {
        let terms = terms.into_iter().map(|((a, b, c), k)| {
            let mut exps = vec![a, b, c];
            if let Some(e) = exps.get_mut(drop) {
                *e = 0;
            }
            (exps, Rat::from(k))
        });
        MPoly::from_terms(3, terms)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `eval_partial` against chained `substitute` followed by
    /// `to_constant` / `to_upoly_in`, for every choice of kept variables.
    /// A coordinate may come as the rational root of a linear polynomial,
    /// the way a CAD sample hands over a `RealAlg` that is rational.
    #[test]
    fn eval_partial_matches_chained_substitution(
        p in arb_mpoly3(),
        coords in prop::collection::vec((-5i64..=5, 1i64..=4, any::<bool>()), 3),
    ) {
        let xs: Vec<Rat> = coords
            .iter()
            .map(|&(n, d, via_alg)| {
                let x = Rat::new(n.into(), d.into());
                if !via_alg {
                    return x;
                }
                let line = UPoly::from_coeffs(vec![-(&x * &Rat::from(d)), Rat::from(d)]);
                RealAlg::roots_of(&line).pop().and_then(|a| a.to_rat()).unwrap()
            })
            .collect();
        for kept in 0u32..8 {
            let point: Vec<Option<Rat>> = xs
                .iter()
                .enumerate()
                .map(|(i, x)| (kept >> i & 1 == 0).then(|| x.clone()))
                .collect();
            let mut chained = p.clone();
            for (i, x) in point.iter().enumerate() {
                if let Some(x) = x {
                    chained = chained.substitute(i, x);
                }
            }
            let value = p.eval_partial(&point);
            prop_assert_eq!(value.max_coeff_bits(), chained.max_coeff_bits());
            let left: Vec<usize> = (0..3).filter(|&i| chained.uses_var(i)).collect();
            match (&value, left.as_slice()) {
                (Partial::Constant(c), []) => {
                    prop_assert_eq!(Some(c.clone()), chained.to_constant());
                }
                (Partial::Univariate(v, u), [w]) => {
                    prop_assert_eq!(v, w);
                    prop_assert_eq!(Some(u.clone()), chained.to_upoly_in(*v));
                }
                (Partial::Terms(t), [_, _, ..]) => prop_assert_eq!(t.clone().seal(), chained),
                _ => prop_assert!(false, "{:?} for {} ({:?} left)", value, chained, left),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `squarefree_part` must preserve the zero set exactly — including
    /// content factors (the regression that dropped the `x = 0` component
    /// of `x·y`). Check products of random linear forms, where zeros are
    /// easy to enumerate.
    #[test]
    fn mpoly_squarefree_preserves_zero_set(
        factors in prop::collection::vec((-3i64..=3, -3i64..=3, -3i64..=3), 1..=3),
        e0 in 1u32..=2, px in -4i64..=4, py in -4i64..=4,
    ) {
        use cdb_poly::squarefree_part;
        let mk = |a: i64, b: i64, c: i64| {
            let x = MPoly::var(0, 2);
            let y = MPoly::var(1, 2);
            &(&x.scale(&Rat::from(a)) + &y.scale(&Rat::from(b)))
                + &MPoly::constant(Rat::from(c), 2)
        };
        let mut p = MPoly::constant(Rat::one(), 2);
        for (i, &(a, b, c)) in factors.iter().enumerate() {
            let f = mk(a, b, c);
            if f.is_zero() || f.is_constant() {
                continue;
            }
            let e = if i == 0 { e0 } else { 1 };
            p = &p * &f.pow(e);
        }
        prop_assume!(!p.is_zero() && !p.is_constant());
        let sf = squarefree_part(&p);
        let pt = [Rat::from(px), Rat::from(py)];
        prop_assert_eq!(
            p.eval(&pt).is_zero(),
            sf.eval(&pt).is_zero(),
            "zero sets differ at ({}, {}): p = {}, sf = {}", px, py, p, sf
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The float-filtered sign (`fsign_at`) always agrees with the exact
    /// sign: a definite split-word enclosure is trusted only when it cannot
    /// lie, and a straddle falls back to exact arithmetic.
    #[test]
    fn filtered_sign_agrees_with_exact(
        p in arb_upoly(7, 50),
        n in -200i64..=200,
        d in 1i64..=16,
    ) {
        let x = Rat::new(n.into(), d.into());
        prop_assert_eq!(p.fsign_at(&x), p.sign_at(&x));
    }

    /// A definite sign of the split-word Horner evaluation is the sign of
    /// the exact value (the enclosure property, at the polynomial level).
    #[test]
    fn fintv_horner_sign_is_exact(
        p in arb_upoly(7, 50),
        n in -200i64..=200,
        d in 1i64..=16,
    ) {
        let x = Rat::new(n.into(), d.into());
        if let Some(s) = p.eval_fintv(&cdb_num::FIntv::from(&x)).sign() {
            prop_assert_eq!(s, p.eval(&x).sign());
        }
    }
}
