//! Differential tests for the resultant kernels (DESIGN.md §11): both
//! strategies the dispatcher can pick must agree with the retained seed
//! reference implementation (`cdb_poly::refimpl::ref_resultant`)
//! byte-for-byte — on random inputs, on the degenerate shapes the CRT path
//! special-cases (zero polynomials, vanishing leading coefficients, shared
//! factors, spilled >8-variable monomials) and under 1 and 4 worker threads.
//! Subresultants are checked against the fibre gcd they stand for in CAD
//! lifting (DESIGN.md §5 rule 2).

use cdb_num::Rat;
use cdb_poly::refimpl::{ref_resultant, RefPoly};
use cdb_poly::resultant::{
    discriminant, resultant, resultant_with_strategy, subresultant, Strategy,
};
use cdb_poly::MPoly;
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

/// Assert the dispatcher *and* each applicable forced strategy agree with
/// the reference, byte-for-byte.
fn assert_all_strategies_match(a: &MPoly, fa: &RefPoly, b: &MPoly, fb: &RefPoly, var: usize) {
    let want = ref_resultant(fa, fb, var).to_string();
    assert_eq!(resultant(a, b, var).to_string(), want, "dispatcher");
    for strat in [Strategy::Prs, Strategy::Crt] {
        if let Some(r) = resultant_with_strategy(a, b, var, strat) {
            assert_eq!(r.to_string(), want, "{strat:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bivariate inputs: both kernels ≡ the seed algorithm.
    #[test]
    fn random_bivariate_matches_reference(
        ra in prop::collection::vec((0u32..=3, 0u32..=3, -9i64..=9), 1..=6),
        rb in prop::collection::vec((0u32..=3, 0u32..=3, -9i64..=9), 1..=6),
        var in 0usize..=1,
    ) {
        let (a, fa) = both(2, &terms2(&ra));
        let (b, fb) = both(2, &terms2(&rb));
        assert_all_strategies_match(&a, &fa, &b, &fb, var);
    }

    /// Products with a constructed common factor: the resultant is zero and
    /// both kernels must detect it (no "lucky prime" can hide a common
    /// root, and interpolation of the zero function is zero).
    #[test]
    fn shared_factor_resultant_is_zero(
        rs in prop::collection::vec((0u32..=2, 0u32..=2, -5i64..=5), 1..=3),
        ra in prop::collection::vec((0u32..=2, 0u32..=2, -5i64..=5), 1..=3),
        rb in prop::collection::vec((0u32..=2, 0u32..=2, -5i64..=5), 1..=3),
    ) {
        let (s, fs) = both(2, &terms2(&rs));
        let (a, fa) = both(2, &terms2(&ra));
        let (b, fb) = both(2, &terms2(&rb));
        prop_assume!(!s.is_zero() && s.total_degree() > 0);
        let (p, fp) = (&s * &a, &fs * &fa);
        let (q, fq) = (&s * &b, &fs * &fb);
        for var in [0usize, 1] {
            // A common factor forces a zero resultant only when it has
            // positive degree in the eliminated variable.
            if s.degree_in(var) >= 1 && p.degree_in(var).min(q.degree_in(var)) >= 1 {
                let want = ref_resultant(&fp, &fq, var);
                assert!(want.to_mpoly().is_zero(), "reference must vanish");
                assert_all_strategies_match(&p, &fp, &q, &fq, var);
            }
        }
    }

    /// Spilled monomials: the same bivariate shapes embedded in an 11-variable
    /// ring, where `Mono` cannot pack inline (PACK_VARS = 8) and every
    /// monomial lives on the spill path.
    #[test]
    fn spilled_wide_ring_matches_reference(
        ra in prop::collection::vec((0u32..=3, 0u32..=3, -9i64..=9), 1..=5),
        rb in prop::collection::vec((0u32..=3, 0u32..=3, -9i64..=9), 1..=5),
    ) {
        const WIDE: usize = 11;
        let widen = |raw: &[(u32, u32, i64)]| -> Vec<(Vec<u32>, i64)> {
            raw.iter()
                .map(|&(e0, e1, c)| {
                    // Use the two outermost variables of the wide ring.
                    let mut exps = vec![0u32; WIDE];
                    exps[0] = e0;
                    exps[WIDE - 1] = e1;
                    (exps, c)
                })
                .collect()
        };
        let (a, fa) = both(WIDE, &widen(&ra));
        let (b, fb) = both(WIDE, &widen(&rb));
        for var in [0, WIDE - 1] {
            assert_all_strategies_match(&a, &fa, &b, &fb, var);
        }
    }
}

#[test]
fn zero_polynomial_inputs() {
    let (z, fz) = both(2, &[]);
    let (a, fa) = both(2, &terms2(&[(2, 1, 3), (0, 0, -1)]));
    assert_all_strategies_match(&z, &fz, &a, &fa, 0);
    assert_all_strategies_match(&a, &fa, &z, &fz, 0);
    assert_all_strategies_match(&z, &fz, &z, &fz, 1);
}

#[test]
fn vanishing_leading_coefficient_cases() {
    // lc_x(p) = y and lc_x(q) = y − 2: specializations at y = 0 and y = 2
    // drop degrees, so the CRT kernel must skip those points; it
    // additionally sees the leading row reduce to a single coefficient that
    // stays nonzero mod every 62-bit prime.
    let (p, fp) = both(2, &terms2(&[(2, 1, 1), (1, 0, 1), (0, 0, 1)])); // y·x² + x + 1
    let (q, fq) = both(
        2,
        &terms2(&[(2, 1, 1), (2, 0, -2), (0, 2, 1), (0, 0, -3)]), // (y−2)x² + y² − 3
    );
    assert_all_strategies_match(&p, &fp, &q, &fq, 0);
    assert_all_strategies_match(&p, &fp, &q, &fq, 1);
}

/// One deterministic pair of bivariate inputs, in both representations.
fn work_inputs(seed: u64) -> ((MPoly, RefPoly), (MPoly, RefPoly)) {
    let mut st = seed;
    let mut next = move || {
        st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = st;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut raw = |n: usize| -> Vec<(u32, u32, i64)> {
        (0..n)
            .map(|_| {
                (
                    (next() % 4) as u32,
                    (next() % 4) as u32,
                    (next() % 19) as i64 - 9,
                )
            })
            .collect()
    };
    let a = both(2, &terms2(&raw(5)));
    let b = both(2, &terms2(&raw(5)));
    (a, b)
}

/// One deterministic work item: a dispatcher resultant rendered to string.
fn work_item(seed: u64) -> String {
    let ((a, _), (b, _)) = work_inputs(seed);
    resultant(&a, &b, 1).to_string()
}

fn reference_item(seed: u64) -> String {
    let ((_, fa), (_, fb)) = work_inputs(seed);
    ref_resultant(&fa, &fb, 1).to_string()
}

/// The CRT kernel shares process-global state (strategy counters, the
/// interner, the prime table): sharding the same work over 1 and 4 threads
/// must stay byte-identical to the sequential seed reference.
#[test]
fn workers_1_and_4_byte_identical() {
    const TASKS: u64 = 24;
    let want: Vec<String> = (0..TASKS).map(reference_item).collect();
    for workers in [1usize, 4] {
        let mut got: Vec<Option<String>> = vec![None; TASKS as usize];
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
        let got: Vec<String> = got.into_iter().map(|r| r.expect("task ran")).collect();
        assert_eq!(got, want, "workers = {workers}");
    }
}

/// The dispatcher's choice changes speed, never bytes: whatever it picks
/// equals the forced seed strategy on the same inputs.
#[test]
fn dispatcher_matches_forced_prs() {
    for seed in 700..712u64 {
        let ((a, _), (b, _)) = work_inputs(seed);
        let fast = resultant(&a, &b, 1);
        let slow = resultant_with_strategy(&a, &b, 1, Strategy::Prs).expect("PRS always applies");
        assert_eq!(fast, slow, "seed {seed}");
        assert_eq!(fast.to_string(), slow.to_string(), "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `p ∈ Z[x, y]` with a planted factor `(y − a(x))^m`, at a rational
    /// `x = r` where `lc_y(p)` does not vanish: the least `j` with
    /// `psc_j(p, ∂p/∂y)(r) ≠ 0` is the degree of `gcd(p(r, ·), p_y(r, ·))`,
    /// `S_k(r, ·)` is a nonzero rational multiple of that gcd, and `psc_0`
    /// is the resultant, `±lc·disc`.
    #[test]
    fn subresultants_specialise_to_the_fibre_gcd(
        raw in prop::collection::vec((0u32..=2, 0u32..=2, -4i64..=4), 1..=5),
        (a0, a1) in (-3i64..=3, -2i64..=2),
        m in 1u32..=3,
        r in -3i64..=3,
    ) {
        let (cofactor, _) = both(2, &terms2(&raw));
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        let root = &MPoly::constant(Rat::from(a0), 2) + &x.scale(&Rat::from(a1));
        let p = &(&y - &root).pow(m) * &cofactor;
        let d = p.degree_in(1) as usize;
        prop_assume!(d >= 1);
        let r = Rat::from(r);
        let lc = p.as_upoly_in(1).pop().unwrap();
        let lc_r = lc.substitute(0, &r).to_constant().unwrap();
        prop_assume!(!lc_r.is_zero());
        let dp = p.derivative(1);
        let fibre = p.substitute(0, &r).to_upoly_in(1).unwrap();
        let gcd = fibre.gcd(&fibre.derivative());
        let at_r = |s: &MPoly| s.substitute(0, &r);
        let psc = |j: usize| {
            let s = subresultant(&p, &dp, 1, j);
            at_r(&s).as_upoly_in(1).get(j).and_then(MPoly::to_constant).unwrap_or_else(Rat::zero)
        };
        let k = (0..d).find(|&j| !psc(j).is_zero()).unwrap();
        prop_assert_eq!(k, gcd.degree().unwrap_or(0));
        let s_k = at_r(&subresultant(&p, &dp, 1, k)).to_upoly_in(1).unwrap();
        prop_assert!(!s_k.is_zero());
        prop_assert_eq!(s_k.monic(), gcd.monic());
        let psc_0 = subresultant(&p, &dp, 1, 0);
        prop_assert_eq!(&psc_0, &resultant(&p, &dp, 1));
        if d >= 2 {
            let lc_disc = &lc * &discriminant(&p, 1);
            prop_assert!(psc_0 == lc_disc || psc_0 == -&lc_disc);
        }
    }
}

/// `S_{deg q}` is `lc(q)^{deg p − deg q − 1}·q`, and every `S_j` of `p` and
/// `∂p/∂y` has degree at most `j`: one cubic with a symbolic coefficient.
#[test]
fn subresultant_shape_on_a_cubic() {
    let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
    let p = &(&y.pow(3) - &(&x * &y)) + &MPoly::constant(Rat::from(2i64), 2);
    let dp = p.derivative(1);
    assert_eq!(subresultant(&p, &dp, 1, 2), dp);
    let q = &x * &y;
    assert_eq!(subresultant(&p, &q, 1, 1), &x * &q);
    for j in 0..2 {
        assert!(subresultant(&p, &dp, 1, j).degree_in(1) as usize <= j);
    }
}
