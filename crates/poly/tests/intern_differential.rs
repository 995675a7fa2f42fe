//! Differential tests: the interned flat-term representation must agree
//! with the retained seed reference implementation (`cdb_poly::refimpl`) —
//! same values, byte-identical `Display` — on random inputs, for
//! `add`/`mul`/`div_exact`/`resultant`/`gcd`, under 1 and 4 worker
//! threads; and a whole expression built in one `Terms` and sealed once
//! must equal the same expression chained through `MPoly` operators.

use cdb_num::modp::PRIMES;
use cdb_num::{Int, Rat};
use cdb_poly::refimpl::{ref_gcd, ref_resultant, ref_squarefree, RefPoly, RefUPoly};
use cdb_poly::resultant::resultant;
use cdb_poly::{MPoly, Terms, UPoly};
use proptest::prelude::*;

/// Build both representations from one term list.
fn both(nvars: usize, terms: &[(Vec<u32>, i64)]) -> (MPoly, RefPoly) {
    let pairs: Vec<(Vec<u32>, Rat)> = terms
        .iter()
        .map(|(m, c)| (m.clone(), Rat::from(*c)))
        .collect();
    (
        MPoly::from_terms(nvars, pairs.clone()),
        RefPoly::from_terms(nvars, pairs),
    )
}

fn terms2(raw: &[(u32, u32, i64)]) -> Vec<(Vec<u32>, i64)> {
    raw.iter().map(|&(e0, e1, c)| (vec![e0, e1], c)).collect()
}

/// A rational whose numerator has up to ~200 bits (40 and up in the common
/// case) over a denominator that is 1, small, or a full word.
fn big_rat() -> impl Strategy<Value = Rat> {
    (
        any::<i128>(),
        0u64..=72,
        prop_oneof![Just(1u64), 1u64..=97, any::<u64>()],
    )
        .prop_map(|(num, shift, den)| Rat::new(&Int::from(num) << shift, Int::from(den.max(1))))
}

/// A polynomial of the given coefficient count over [`big_rat`] (count 0 is
/// the zero polynomial; trailing zero coefficients are trimmed as usual).
fn big_poly(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = UPoly> {
    prop::collection::vec(big_rat(), len).prop_map(UPoly::from_coeffs)
}

/// A polynomial expression tree over the builder's operations.
#[derive(Clone, Debug)]
enum Expr {
    /// `x_i^e` (variable index taken modulo the ring's arity); exponents
    /// above 255 spill the monomial out of its packed form.
    Power(usize, u32),
    Const(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Scale(Box<Expr>, i64),
    Pow(Box<Expr>, u32),
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0usize..9, prop_oneof![0u32..=3, 250u32..=300]).prop_map(|(i, e)| Expr::Power(i, e)),
        (-9i64..=9).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Expr::Neg(Box::new(a))),
            (inner.clone(), -4i64..=4).prop_map(|(a, c)| Expr::Scale(Box::new(a), c)),
            (inner, 0u32..=3).prop_map(|(a, n)| Expr::Pow(Box::new(a), n)),
        ]
    })
}

/// Chained `MPoly` operators: every intermediate is sealed.
fn eval_mpoly(e: &Expr, n: usize) -> MPoly {
    match e {
        Expr::Power(i, k) => MPoly::var(i % n, n).pow(*k),
        Expr::Const(c) => MPoly::constant(Rat::from(*c), n),
        Expr::Add(a, b) => &eval_mpoly(a, n) + &eval_mpoly(b, n),
        Expr::Sub(a, b) => &eval_mpoly(a, n) - &eval_mpoly(b, n),
        Expr::Mul(a, b) => &eval_mpoly(a, n) * &eval_mpoly(b, n),
        Expr::Neg(a) => -&eval_mpoly(a, n),
        Expr::Scale(a, c) => eval_mpoly(a, n).scale(&Rat::from(*c)),
        Expr::Pow(a, k) => eval_mpoly(a, n).pow(*k),
    }
}

/// The same tree in one unsealed builder.
fn eval_terms(e: &Expr, n: usize) -> Terms {
    match e {
        Expr::Power(i, k) => Terms::var(i % n, n).pow(*k),
        Expr::Const(c) => Terms::constant(Rat::from(*c), n),
        Expr::Add(a, b) => &eval_terms(a, n) + &eval_terms(b, n),
        Expr::Sub(a, b) => &eval_terms(a, n) - &eval_terms(b, n),
        Expr::Mul(a, b) => &eval_terms(a, n) * &eval_terms(b, n),
        Expr::Neg(a) => -eval_terms(a, n),
        Expr::Scale(a, c) => eval_terms(a, n).scale(&Rat::from(*c)),
        Expr::Pow(a, k) => eval_terms(a, n).pow(*k),
    }
}

/// The seed reference representation.
fn eval_ref(e: &Expr, n: usize) -> RefPoly {
    match e {
        Expr::Power(i, k) => RefPoly::var(i % n, n).pow(*k),
        Expr::Const(c) => RefPoly::constant(Rat::from(*c), n),
        Expr::Add(a, b) => &eval_ref(a, n) + &eval_ref(b, n),
        Expr::Sub(a, b) => &eval_ref(a, n) - &eval_ref(b, n),
        Expr::Mul(a, b) => &eval_ref(a, n) * &eval_ref(b, n),
        Expr::Neg(a) => -&eval_ref(a, n),
        Expr::Scale(a, c) => eval_ref(a, n).scale(&Rat::from(*c)),
        Expr::Pow(a, k) => eval_ref(a, n).pow(*k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One `Terms` sealed once, chained `MPoly` operators and the seed
    /// reference agree on `==`, `id()` and `Display`, in a packed (3) and
    /// an always-spilled (9) variable ring; and the one-scan leading
    /// coefficient equals the one read off the coefficient polynomials.
    #[test]
    fn terms_sealed_once_matches_chained_and_reference(e in expr(), wide in any::<bool>()) {
        let n = if wide { 9 } else { 3 };
        let chained = eval_mpoly(&e, n);
        let sealed = eval_terms(&e, n).seal();
        let reference = eval_ref(&e, n);
        prop_assert_eq!(&sealed, &chained);
        prop_assert_eq!(sealed.id(), chained.id());
        prop_assert_eq!(sealed.to_string(), chained.to_string());
        prop_assert_eq!(sealed.to_string(), reference.to_string());
        prop_assert_eq!(&sealed, &reference.to_mpoly());
        for v in 0..n {
            prop_assert_eq!(
                sealed.lead_coeff_in(v),
                sealed.as_upoly_in(v).last().and_then(MPoly::to_constant),
                "lead of {} in x{}", &sealed, v
            );
        }
    }

    /// Ring operations agree with the seed representation, down to the
    /// rendered string.
    #[test]
    fn add_sub_mul_match_reference(
        ra in prop::collection::vec((0u32..=4, 0u32..=4, -9i64..=9), 0..=6),
        rb in prop::collection::vec((0u32..=4, 0u32..=4, -9i64..=9), 0..=6),
    ) {
        let (a, fa) = both(2, &terms2(&ra));
        let (b, fb) = both(2, &terms2(&rb));
        prop_assert_eq!((&a + &b).to_string(), (&fa + &fb).to_string());
        prop_assert_eq!((&a - &b).to_string(), (&fa - &fb).to_string());
        prop_assert_eq!((&a * &b).to_string(), (&fa * &fb).to_string());
        prop_assert_eq!((-&a).to_string(), (-&fa).to_string());
        // And the evaluation semantics agree.
        let pt = [Rat::from(3i64), Rat::from(-2i64)];
        prop_assert_eq!((&a * &b).eval(&pt), (&fa * &fb).eval(&pt));
    }

    /// Exact division of a constructed multiple agrees with the seed.
    #[test]
    fn div_exact_matches_reference(
        ra in prop::collection::vec((0u32..=3, 0u32..=3, -6i64..=6), 1..=4),
        rb in prop::collection::vec((0u32..=3, 0u32..=3, -6i64..=6), 1..=4),
    ) {
        let (a, fa) = both(2, &terms2(&ra));
        let (b, fb) = both(2, &terms2(&rb));
        prop_assume!(!a.is_zero() && !b.is_zero());
        let prod = &a * &b;
        let fprod = &fa * &fb;
        prop_assert_eq!(prod.div_exact(&a).to_string(), fprod.div_exact(&fa).to_string());
        prop_assert_eq!(prod.div_exact(&b).to_string(), fprod.div_exact(&fb).to_string());
    }

    /// Bareiss resultants agree with the seed algorithm byte-for-byte.
    #[test]
    fn resultant_matches_reference(
        ra in prop::collection::vec((0u32..=2, 0u32..=2, -5i64..=5), 1..=4),
        rb in prop::collection::vec((0u32..=2, 0u32..=2, -5i64..=5), 1..=4),
        var in 0usize..=1,
    ) {
        let (a, fa) = both(2, &terms2(&ra));
        let (b, fb) = both(2, &terms2(&rb));
        prop_assert_eq!(
            resultant(&a, &b, var).to_string(),
            ref_resultant(&fa, &fb, var).to_string()
        );
    }

    /// `gcd` and `squarefree` agree with the seed `Rat` remainder sequence
    /// on every route through the integer kernel: certificate hit (random
    /// pairs), shared and repeated factors (integer PRS, non-trivial
    /// answer), a zero / constant / linear operand, a leading coefficient
    /// divisible by the certificate prime (bad prime: exact path, trivial
    /// and non-trivial answer), and a pair coprime over `Q` with a common
    /// root modulo the prime (certificate inconclusive, PRS must say 1).
    #[test]
    fn gcd_matches_reference(
        p in big_poly(0..=6),
        q in big_poly(0..=6),
        f in big_poly(1..=3),
        r in -1000i64..=1000,
    ) {
        let prime = Rat::from(Int::from(PRIMES[0]));
        let lin = |c: Rat| UPoly::from_coeffs(vec![-c, Rat::one()]);
        // `p`'s primitive integer form with the leading coefficient times
        // the prime (the other coefficients keep the content at 1).
        let bad_lead = {
            let prim = p.primitive();
            let extra = &prim.leading() * &(&prime - &Rat::one());
            &prim + &UPoly::x().pow(prim.deg() as u32).scale(&extra)
        };
        let pairs = [
            (p.clone(), q.clone()),
            (&p * &f, &q * &f),
            (&(&p * &p) * &f, &p * &q),
            (p.clone(), UPoly::zero()),
            (UPoly::zero(), q.clone()),
            (&p * &lin(Rat::from(r)), lin(Rat::from(r))),
            (p.clone(), UPoly::constant(Rat::from(r))),
            (bad_lead.clone(), q.clone()),
            (&bad_lead * &f, &q * &f),
            (&p * &lin(Rat::from(r)), &q * &lin(&Rat::from(r) + &prime)),
        ];
        for (a, b) in &pairs {
            let (ra, rb) = (RefUPoly::from_upoly(a), RefUPoly::from_upoly(b));
            prop_assert_eq!(a.gcd(b), ref_gcd(&ra, &rb).to_upoly(), "gcd({}, {})", a, b);
            prop_assert_eq!(b.gcd(a), ref_gcd(&rb, &ra).to_upoly(), "gcd({}, {})", b, a);
            prop_assert_eq!(a.squarefree(), ref_squarefree(&ra).to_upoly(), "squarefree({})", a);
        }
    }

    /// Eq/Hash invariants: equal content built along different construction
    /// paths yields equal handles and equal content-derived ids.
    #[test]
    fn eq_hash_id_consistent(
        ra in prop::collection::vec((0u32..=4, 0u32..=4, -9i64..=9), 0..=6),
    ) {
        use cdb_num::hash::ContentHasher;
        use std::hash::{Hash, Hasher};
        let (a, fa) = both(2, &terms2(&ra));
        // Rebuild by summing single-term polynomials: same content.
        let mut b = MPoly::zero(2);
        for (m, c) in fa.to_mpoly().terms() {
            b = &b + &MPoly::from_terms(2, [(m.to_vec(), c.clone())]);
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.id(), b.id());
        let h = |p: &MPoly| {
            let mut s = ContentHasher::default();
            p.hash(&mut s);
            s.finish()
        };
        prop_assert_eq!(h(&a), h(&b));
    }
}

/// Deterministic splitmix-style generator for the thread matrix below.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rand_terms(state: &mut u64, nterms: usize) -> Vec<(u32, u32, i64)> {
    (0..nterms)
        .map(|_| {
            (
                (next(state) % 4) as u32,
                (next(state) % 4) as u32,
                (next(state) % 15) as i64 - 7,
            )
        })
        .collect()
}

/// One work item: multiply, divide back, take a resultant; return the
/// rendered results.
fn work_item(seed: u64) -> Vec<String> {
    let mut st = seed;
    let (a, _) = both(2, &terms2(&rand_terms(&mut st, 4)));
    let (b, _) = both(2, &terms2(&rand_terms(&mut st, 4)));
    let prod = &a * &b;
    let mut out = vec![prod.to_string()];
    if !a.is_zero() {
        out.push(prod.div_exact(&a).to_string());
    }
    out.push(resultant(&a, &b, 1).to_string());
    out
}

fn reference_item(seed: u64) -> Vec<String> {
    let mut st = seed;
    let (_, fa) = both(2, &terms2(&rand_terms(&mut st, 4)));
    let (_, fb) = both(2, &terms2(&rand_terms(&mut st, 4)));
    let prod = &fa * &fb;
    let mut out = vec![prod.to_string()];
    if !fa.is_zero() {
        out.push(prod.div_exact(&fa).to_string());
    }
    out.push(ref_resultant(&fa, &fb, 1).to_string());
    out
}

/// The same work sharded over 1 and 4 worker threads produces byte-identical
/// output, equal to the seed reference — interning (a shared global
/// structure) must not make results depend on thread schedule.
#[test]
fn workers_1_and_4_byte_identical() {
    const TASKS: u64 = 24;
    let want: Vec<Vec<String>> = (0..TASKS).map(reference_item).collect();
    for workers in [1usize, 4] {
        let mut got: Vec<Option<Vec<String>>> = vec![None; TASKS as usize];
        let chunks: Vec<Vec<u64>> = (0..workers)
            .map(|w| {
                (0..TASKS)
                    .filter(|t| (*t as usize) % workers == w)
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|t| (t, work_item(t)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (t, res) in h.join().expect("worker panicked") {
                    got[t as usize] = Some(res);
                }
            }
        });
        let got: Vec<Vec<String>> = got.into_iter().map(|r| r.expect("task ran")).collect();
        assert_eq!(got, want, "workers = {workers}");
    }
}

/// Spilled monomials (exponent > 255) and packed ones agree with the seed.
#[test]
fn spilled_monomials_match_reference() {
    let (a, fa) = both(2, &[(vec![300, 1], 3), (vec![2, 0], -1), (vec![0, 0], 7)]);
    let (b, fb) = both(2, &[(vec![260, 0], 2), (vec![0, 1], 5)]);
    assert_eq!((&a * &b).to_string(), (&fa * &fb).to_string());
    assert_eq!((&a + &b).to_string(), (&fa + &fb).to_string());
    assert_eq!(a.degree_in(0), fa.degree_in(0));
    let prod = &a * &b;
    assert_eq!(
        prod.div_exact(&a).to_string(),
        (&fa * &fb).div_exact(&fa).to_string()
    );
}
