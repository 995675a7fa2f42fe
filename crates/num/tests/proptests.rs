//! Property-based tests for the arithmetic substrate: ring/field axioms,
//! division invariants, parse/display round trips, interval containment and
//! F_k partiality.

use cdb_num::{Fk, FkParams, Int, Rat, RatInterval, Sign, Zk};
use proptest::prelude::*;

fn arb_int() -> impl Strategy<Value = Int> {
    // Mix of small values and multi-limb magnitudes.
    prop_oneof![
        any::<i64>().prop_map(Int::from),
        (any::<i128>(), 0u64..200).prop_map(|(v, sh)| &Int::from(v) << sh),
    ]
}

fn arb_rat() -> impl Strategy<Value = Rat> {
    (any::<i64>(), 1i64..=i64::MAX).prop_map(|(n, d)| Rat::new(Int::from(n), Int::from(d)))
}

proptest! {
    #[test]
    fn int_add_commutative(a in arb_int(), b in arb_int()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn int_add_associative(a in arb_int(), b in arb_int(), c in arb_int()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn int_mul_commutative(a in arb_int(), b in arb_int()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn int_mul_associative(a in arb_int(), b in arb_int(), c in arb_int()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn int_distributive(a in arb_int(), b in arb_int(), c in arb_int()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn int_sub_inverse(a in arb_int(), b in arb_int()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn int_divrem_invariant(a in arb_int(), b in arb_int()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Remainder sign matches dividend (or zero).
        prop_assert!(r.is_zero() || r.sign() == a.sign());
    }

    #[test]
    fn int_div_euclid_invariant(a in arb_int(), b in arb_int()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_euclid(&b);
        prop_assert_eq!(&(&q * &b) + &r, a);
        prop_assert!(r.sign() != Sign::Neg);
        prop_assert!(r < b.abs());
    }

    #[test]
    fn int_gcd_divides(a in arb_int(), b in arb_int()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.divrem(&g).1.is_zero());
            prop_assert!(b.divrem(&g).1.is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn int_parse_display_roundtrip(a in arb_int()) {
        let s = a.to_string();
        let back: Int = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn int_shift_roundtrip(a in arb_int(), sh in 0u64..300) {
        prop_assert_eq!(&(&a << sh) >> sh, a);
    }

    #[test]
    fn int_bit_length_bounds(a in arb_int()) {
        prop_assume!(!a.is_zero());
        let bl = a.bit_length();
        prop_assert!(a.abs() < Int::pow2(bl));
        prop_assert!(a.abs() >= Int::pow2(bl - 1));
    }

    #[test]
    fn int_ordering_consistent_with_sub(a in arb_int(), b in arb_int()) {
        prop_assert_eq!(a.cmp(&b), (&a - &b).cmp(&Int::zero()));
    }

    #[test]
    fn rat_field_axioms(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        if !b.is_zero() {
            prop_assert_eq!(&(&a / &b) * &b, a);
        }
    }

    #[test]
    fn rat_parse_display_roundtrip(a in arb_rat()) {
        let back: Rat = a.to_string().parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn rat_floor_ceil_bracket(a in arb_rat()) {
        let f = Rat::from(a.floor());
        let c = Rat::from(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(&c - &f <= Rat::one());
    }

    #[test]
    fn rat_f64_exact_roundtrip(v in any::<f64>()) {
        prop_assume!(v.is_finite());
        let r = Rat::from_f64(v).unwrap();
        prop_assert_eq!(r.to_f64(), v);
    }

    #[test]
    fn interval_add_contains_pointwise(
        (al, aw) in (-1000i64..1000, 0i64..100),
        (bl, bw) in (-1000i64..1000, 0i64..100),
        t in 0.0f64..=1.0, u in 0.0f64..=1.0,
    ) {
        let a = RatInterval::new(Rat::from(al), Rat::from(al + aw));
        let b = RatInterval::new(Rat::from(bl), Rat::from(bl + bw));
        // Sample interior points via rational approximations of t, u.
        let pa = &Rat::from(al) + &(&Rat::from(aw) * &Rat::from_f64(t).unwrap());
        let pb = &Rat::from(bl) + &(&Rat::from(bw) * &Rat::from_f64(u).unwrap());
        prop_assert!(a.add(&b).contains(&(&pa + &pb)));
        prop_assert!(a.mul(&b).contains(&(&pa * &pb)));
        prop_assert!(a.sub(&b).contains(&(&pa - &pb)));
    }

    #[test]
    fn fk_round_is_close(n in -10_000i64..10_000, d in 1i64..10_000) {
        let params = FkParams::with_k(24);
        let r = Rat::new(Int::from(n), Int::from(d));
        let f = Fk::from_rat_round(&r, params).unwrap();
        // Relative error <= 2^-23 for values in range (plus underflow floor).
        let err = (&f.to_rat() - &r).abs();
        let tol = &r.abs() * &Rat::new(Int::one(), Int::pow2(23))
            + Rat::new(Int::one(), Int::pow2(24));
        prop_assert!(err <= tol, "rounding error too large for {r}");
    }

    #[test]
    fn fk_exact_ops_are_exact(a in -2000i64..2000, b in -2000i64..2000) {
        let params = FkParams::with_k(40);
        let fa = Fk::from_rat_exact(&Rat::from(a), params).unwrap();
        let fb = Fk::from_rat_exact(&Rat::from(b), params).unwrap();
        prop_assert_eq!(fa.add_exact(&fb).unwrap().to_rat(), Rat::from(a + b));
        prop_assert_eq!(fa.mul_exact(&fb).unwrap().to_rat(), Rat::from(a * b));
    }

    #[test]
    fn zk_split_ops_reconstruct(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2, k in 4u32..32) {
        let z = Zk::new(k);
        let m = 1u64 << k;
        let (wa, wb) = (Int::from(a % m), Int::from(b % m));
        // lo + 2^k * hi == exact op
        let sum = z.compose(&z.add_lo(&wa, &wb), &z.add_hi(&wa, &wb));
        prop_assert_eq!(sum, &wa + &wb);
        let prod = z.compose(&z.mul_lo(&wa, &wb), &z.mul_hi(&wa, &wb));
        prop_assert_eq!(prod, &wa * &wb);
    }
}

/// Exact rational value of a finite `f64` (every finite float is dyadic).
fn dyadic(x: f64) -> Option<Rat> {
    if !x.is_finite() {
        return None;
    }
    let bits = x.to_bits();
    let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let frac = (bits & ((1u64 << 52) - 1)) as i64;
    let (m, e) = if exp == 0 {
        (sign * frac, -1074i64)
    } else {
        (sign * (frac + (1 << 52)), exp - 1075)
    };
    Some(if e >= 0 {
        Rat::new(&Int::from(m) * &Int::pow2(e as u64), Int::one())
    } else {
        Rat::new(Int::from(m), Int::pow2((-e) as u64))
    })
}

/// `r` lies inside the outward-rounded enclosure `iv` (exact comparison:
/// finite endpoints are compared as dyadic rationals, infinite ones hold
/// trivially).
fn encloses(iv: &cdb_num::FIntv, r: &Rat) -> bool {
    let lo_ok = dyadic(iv.lo()).is_none_or(|lo| &lo <= r);
    let hi_ok = dyadic(iv.hi()).is_none_or(|hi| r <= &hi);
    lo_ok && hi_ok
}

proptest! {
    /// The split-word conversion encloses the exact rational, including
    /// multi-limb numerators/denominators from the shifted generator.
    #[test]
    fn fintv_from_rat_encloses(r in arb_rat(), sh in 0u64..200) {
        let wide = Rat::new(r.numer() << sh, r.denom().clone());
        prop_assert!(encloses(&cdb_num::FIntv::from(&r), &r));
        prop_assert!(encloses(&cdb_num::FIntv::from(&wide), &wide));
    }

    /// Enclosure is preserved by +, −, × (Thm 4.3's split-word ops with
    /// outward rounding): the float interval always contains the exact
    /// rational result.
    #[test]
    fn fintv_ops_enclose_exact(a in arb_rat(), b in arb_rat()) {
        let (fa, fb) = (cdb_num::FIntv::from(&a), cdb_num::FIntv::from(&b));
        prop_assert!(encloses(&fa.add(&fb), &(&a + &b)));
        prop_assert!(encloses(&fa.sub(&fb), &(&a - &b)));
        prop_assert!(encloses(&fa.mul(&fb), &(&a * &b)));
    }

    /// A definite filter sign is never wrong: when the enclosure of a single
    /// rational decides a sign, it is the exact sign.
    #[test]
    fn fintv_definite_sign_is_exact(a in arb_rat(), b in arb_rat()) {
        let v = &a * &b;
        let fv = cdb_num::FIntv::from(&a).mul(&cdb_num::FIntv::from(&b));
        if let Some(s) = fv.sign() {
            prop_assert_eq!(s, v.sign());
        }
    }

    /// The small-limb fast paths agree with the generic multi-limb route:
    /// push both operands past the single-limb boundary and compare.
    #[test]
    fn int_small_and_big_paths_agree(a in any::<i64>(), b in any::<i64>(), sh in 0u64..130) {
        let (sa, sb) = (Int::from(a), Int::from(b));
        let (ba, bb) = (&sa << sh, &sb << sh);
        prop_assert_eq!(&(&sa + &sb) << sh, &ba + &bb);
        prop_assert_eq!(&(&sa * &sb) << (2 * sh), &ba * &bb);
        prop_assert_eq!(sa.cmp(&sb), ba.cmp(&bb));
        if !sa.is_zero() || !sb.is_zero() {
            prop_assert_eq!(&sa.gcd(&sb) << sh, ba.gcd(&bb));
        }
    }
}

// ── Differential tests of the normalise-once `Rat` operators ───────────────
//
// Every operator builds its canonical result directly (Henrici sums,
// cross-cancelled products). The reference below is the textbook formula
// reduced by `Rat::new`, which is canonical by construction; the derived
// `Eq` is structural, so equality also proves the fast result canonical.

/// Factors shared across independently drawn values, so pairs of them meet
/// `gcd(b, d) ≠ 1`, `gcd(t, g) ≠ 1` and cross-cancellation in products:
/// small primes, a 61-bit and a two-limb Mersenne prime, and 2^64 + 1.
fn factor_pool() -> Vec<Int> {
    vec![
        Int::from(2),
        Int::from(3),
        Int::from(7),
        &Int::pow2(61) - &Int::one(),
        &Int::pow2(89) - &Int::one(),
        &Int::pow2(64) + &Int::one(),
    ]
}

/// A product of pool factors (each to the power 0..=3) times a cofactor of
/// zero, one, two or three limbs.
fn arb_factored() -> impl Strategy<Value = Int> {
    let cofactor = prop_oneof![
        Just(Int::one()),
        (1u64..1000).prop_map(Int::from),
        any::<u64>().prop_map(|v| Int::from(v | 1)),
        any::<u128>().prop_map(|v| Int::from((v | 1) as i128).abs()),
        (any::<u128>(), any::<u64>())
            .prop_map(|(v, w)| &(&Int::from((v >> 1) as i128) << 64) + &Int::from(w | 1)),
    ];
    (prop::collection::vec(0u32..4, 6), cofactor).prop_map(|(exps, c)| {
        factor_pool()
            .iter()
            .zip(exps)
            .fold(c, |acc, (f, e)| &acc * &f.pow(e))
    })
}

/// Rationals for the differential tests: multi-limb numerators and
/// denominators with planted common factors, dyadic denominators (which
/// often coincide between two draws), integers and zero.
fn arb_rat_wide() -> impl Strategy<Value = Rat> {
    prop_oneof![
        (arb_factored(), arb_factored(), any::<bool>())
            .prop_map(|(n, d, neg)| Rat::new(if neg { -n } else { n }, d)),
        (arb_int(), arb_factored()).prop_map(|(n, d)| Rat::new(n, d)),
        (arb_int(), 0u64..130).prop_map(|(n, k)| Rat::new(n, Int::pow2(k))),
        (any::<i64>(), 0u64..4).prop_map(|(n, k)| Rat::new(Int::from(n), Int::pow2(k))),
        arb_int().prop_map(Rat::from),
        (-3i64..=3).prop_map(Rat::from),
        Just(Rat::zero()),
        arb_rat(),
    ]
}

/// A pair whose second member often shares the first's denominator exactly
/// (the `cmp` and Henrici equal-denominator paths).
fn arb_rat_pair() -> impl Strategy<Value = (Rat, Rat)> {
    prop_oneof![
        (arb_rat_wide(), arb_rat_wide()),
        (arb_rat_wide(), arb_int()).prop_map(|(x, c)| {
            let y = Rat::new(c, x.denom().clone());
            (x, y)
        }),
        (arb_rat_wide(), arb_factored()).prop_map(|(x, k)| {
            let y = Rat::new(x.numer() * &k + Int::one(), x.denom() * &k);
            (x, y)
        }),
    ]
}

/// `(a, b, c, d)` for `x = a/b`, `y = c/d`.
fn parts<'a>(x: &'a Rat, y: &'a Rat) -> (&'a Int, &'a Int, &'a Int, &'a Int) {
    (x.numer(), x.denom(), y.numer(), y.denom())
}

/// Textbook gcd: Euclid on the absolute values through `%`.
fn gcd_reference(a: &Int, b: &Int) -> Int {
    let (mut a, mut b) = (a.abs(), b.abs());
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rat_add_sub_match_textbook((x, y) in arb_rat_pair()) {
        let (a, b, c, d) = parts(&x, &y);
        let bd = b * d;
        prop_assert_eq!(&x + &y, Rat::new(&(a * d) + &(c * b), bd.clone()));
        prop_assert_eq!(&x - &y, Rat::new(&(a * d) - &(c * b), bd));
        let (mut s, mut t) = (x.clone(), x.clone());
        s += &y;
        t -= &y;
        prop_assert_eq!(s, &x + &y);
        prop_assert_eq!(t, &x - &y);
        prop_assert_eq!(x.clone() + y.clone(), &x + &y);
        prop_assert_eq!(x.clone() - &y, &x - &y);
    }

    #[test]
    fn rat_mul_div_match_textbook((x, y) in arb_rat_pair()) {
        let (a, b, c, d) = parts(&x, &y);
        prop_assert_eq!(&x * &y, Rat::new(a * c, b * d));
        let mut p = x.clone();
        p *= &y;
        prop_assert_eq!(p, &x * &y);
        prop_assert_eq!(&x * y.clone(), &x * &y);
        if !y.is_zero() {
            prop_assert_eq!(&x / &y, Rat::new(a * d, b * c));
            prop_assert_eq!(x.clone() / y.clone(), &x / &y);
        }
    }

    #[test]
    fn rat_cmp_matches_cross_multiplication((x, y) in arb_rat_pair()) {
        let (a, b, c, d) = parts(&x, &y);
        let want = (a * d).cmp(&(c * b));
        prop_assert_eq!(x.cmp(&y), want);
        prop_assert_eq!(y.cmp(&x), want.reverse());
        prop_assert_eq!(x.cmp(&x), std::cmp::Ordering::Equal);
        prop_assert!(Rat::min(x.clone(), y.clone()) <= Rat::max(x.clone(), y.clone()));
    }

    #[test]
    fn rat_recip_pow_midpoint_match_textbook((x, y) in arb_rat_pair(), e in -4i32..=6) {
        let (a, b, c, d) = parts(&x, &y);
        prop_assert_eq!(
            Rat::midpoint(&x, &y),
            Rat::new(&(a * d) + &(c * b), &(b * d) * &Int::from(2))
        );
        if !x.is_zero() {
            prop_assert_eq!(x.recip(), Rat::new(b.clone(), a.clone()));
        }
        if e >= 0 {
            prop_assert_eq!(x.pow(e), Rat::new(a.pow(e as u32), b.pow(e as u32)));
        } else if !x.is_zero() {
            let k = e.unsigned_abs();
            prop_assert_eq!(x.pow(e), Rat::new(b.pow(k), a.pow(k)));
        }
        prop_assert_eq!(Rat::from(x.floor()), Rat::new(a.div_euclid(b).0, Int::one()));
        prop_assert!(Rat::from(x.ceil()) >= x && &Rat::from(x.ceil()) - &x < Rat::one());
    }

    #[test]
    fn int_gcd_matches_euclid(
        a in prop_oneof![arb_int(), arb_factored(), (-2i64..=2).prop_map(Int::from)],
        b in prop_oneof![arb_int(), arb_factored(), (-2i64..=2).prop_map(Int::from)],
        f in arb_factored(),
    ) {
        let g = a.gcd(&b);
        prop_assert_eq!(&g, &gcd_reference(&a, &b));
        prop_assert_eq!(b.gcd(&a), g.clone());
        prop_assert_eq!((-&a).gcd(&b), g.clone());
        prop_assert_eq!(a.gcd(&Int::zero()), a.abs());
        prop_assert_eq!(a.gcd(&Int::one()), Int::one());
        prop_assert_eq!(Int::from(-1).gcd(&a), Int::one());
        // A planted common factor scales the gcd.
        prop_assert_eq!((&a * &f).gcd(&(&b * &f)), &g * &f);
    }
}
