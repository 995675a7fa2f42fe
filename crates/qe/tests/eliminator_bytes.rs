//! Byte pins for the bound eliminators (DESIGN.md §16).
//!
//! `plan_differential.rs` checks the planner's answers against CAD
//! semantically; this file pins the exact text they print. Fourier–Motzkin
//! disjuncts go through the planner entry point (they print one relation);
//! quadratic disjuncts go straight to `quad1::eliminate_tuple` (one line per
//! output tuple, in the order it returns them). Under a bit budget the first
//! observation that exceeds it reports, so the budget sweeps pin the order
//! of observations: which one fires first under each budget, and what it saw.
//!
//! Variables are `x0` (free) and `x1` (eliminated), plus `x2` in the
//! three-variable case, where `x2` is eliminated.

use cdb_constraints::{Atom, ConstraintRelation, GeneralizedTuple, RelOp};
use cdb_num::Rat;
use cdb_poly::MPoly;
use cdb_qe::{plan, quad1, QeContext, QeError};

fn v(i: usize, n: usize) -> MPoly {
    MPoly::var(i, n)
}

fn k(c: i64, n: usize) -> MPoly {
    MPoly::constant(Rat::from(c), n)
}

fn sc(p: &MPoly, c: i64) -> MPoly {
    p.scale(&Rat::from(c))
}

const OPS: [RelOp; 5] = [RelOp::Le, RelOp::Lt, RelOp::Ge, RelOp::Gt, RelOp::Eq];

/// `∃ x{var}` over one disjunct through the planner, asserting it was a
/// single Fourier–Motzkin dispatch; the answer's printed form.
fn fm(atoms: Vec<Atom>, var: usize, ctx: &QeContext) -> Result<String, QeError> {
    let n = atoms.first().map_or(2, |a| a.poly.nvars());
    let rel = ConstraintRelation::new(n, vec![GeneralizedTuple::new(n, atoms)]);
    let out = plan::eliminate_exists_run(&rel, &[var], ctx)?;
    let stats = ctx.plan_stats();
    assert_eq!(
        (stats.subst, stats.fm, stats.quad, stats.cad),
        (0, 1, 0, 0),
        "not one Fourier–Motzkin dispatch"
    );
    Ok(out.to_string())
}

/// `∃ x1` over one quadratic disjunct in `(x0, x1)` through the quadratic
/// eliminator; its output tuples, one per line.
fn quad(atoms: Vec<Atom>, ctx: &QeContext) -> Result<String, QeError> {
    let t = GeneralizedTuple::new(2, atoms);
    let out = quad1::eliminate_tuple(&t, 1, ctx)?;
    Ok(out.iter().map(|t| format!("{t}\n")).collect())
}

/// `seen_bits` of the `PrecisionExceeded` that `run` reports under each
/// budget `0..=max` (asserting it names that budget), or 0 where the run
/// fits the budget.
fn sweep(max: u64, run: impl Fn(&QeContext) -> Result<String, QeError>) -> Vec<u64> {
    (0..=max)
        .map(|b| match run(&QeContext::with_budget(b)) {
            Ok(_) => 0,
            Err(QeError::PrecisionExceeded {
                budget_bits,
                seen_bits,
            }) => {
                assert_eq!(budget_bits, b);
                seen_bits
            }
            Err(e) => panic!("budget {b}: expected PrecisionExceeded, got {e}"),
        })
        .collect()
}

/// The output of an unbudgeted run and the widest coefficient it observed.
fn exact(run: impl Fn(&QeContext) -> Result<String, QeError>) -> (String, u64) {
    let ctx = QeContext::exact();
    let out = run(&ctx).unwrap();
    (out, ctx.max_bits_seen.get())
}

fn owned(pins: &[(&str, u64)]) -> Vec<(String, u64)> {
    pins.iter().map(|&(s, b)| (s.to_owned(), b)).collect()
}

/// Mixed strictness, a negative coefficient and a nonlinear pass-through
/// atom: `x0² − 4 < 0 ∧ x1 ≥ x0 ∧ −2·x1 + 3 > 0 ∧ 3·x1 − x0 − 6 ≤ 0 ∧
/// x1 + 1 > 0`.
#[test]
fn fm_mixed_strictness_bytes() {
    let n = 2;
    let (x, y) = (v(0, n), v(1, n));
    let atoms = vec![
        Atom::new(&(&x * &x) - &k(4, n), RelOp::Lt),
        Atom::cmp(y.clone(), RelOp::Ge, x.clone()),
        Atom::new(&sc(&y, -2) + &k(3, n), RelOp::Gt),
        Atom::new(&(&sc(&y, 3) - &x) - &k(6, n), RelOp::Le),
        Atom::new(&y + &k(1, n), RelOp::Gt),
    ];
    let got = exact(|ctx| fm(atoms.clone(), 1, ctx));
    assert_eq!(
        got,
        (
            String::from("(x0^2 - 4 < 0 and 2*x0 - 3 < 0 and x0 - 3 <= 0 and x0 + 9 > 0)"),
            3
        )
    );
}

/// Bounds that are polynomials in two other variables, with rational
/// coefficients: `∃ x2 (2·x2 ≥ x0 + x1 ∧ −3·x2 + x0·x1 ≥ 0 ∧ 5·x2 < x1 − 7)`.
#[test]
fn fm_symbolic_bounds_bytes() {
    let n = 3;
    let (x, y, z) = (v(0, n), v(1, n), v(2, n));
    let atoms = vec![
        Atom::cmp(sc(&z, 2), RelOp::Ge, &x + &y),
        Atom::new(&sc(&z, -3) + &(&x * &y), RelOp::Ge),
        Atom::cmp(sc(&z, 5), RelOp::Lt, &y - &k(7, n)),
    ];
    let got = exact(|ctx| fm(atoms.clone(), 2, ctx));
    assert_eq!(
        got,
        (
            String::from("(2*x0*x1 - 3*x0 - 3*x1 >= 0 and 5*x0 + 3*x1 + 14 < 0)"),
            4
        )
    );
}

/// One-sided bounds pair with nothing: only the pass-through atom stays.
#[test]
fn fm_one_sided_bytes() {
    let n = 2;
    let (x, y) = (v(0, n), v(1, n));
    let atoms = vec![
        Atom::new(&(&x * &x) - &x, RelOp::Ge),
        Atom::cmp(y.clone(), RelOp::Gt, x.clone()),
        Atom::cmp(sc(&y, -1), RelOp::Le, k(4, n)),
    ];
    let got = exact(|ctx| fm(atoms.clone(), 1, ctx));
    assert_eq!(got, (String::from("(x0^2 - x0 >= 0)"), 3));
}

/// The quadratic atom `q ⋈ 0`, for each operator, with one lower bound
/// `x1 ≥ x0 − 1` and one strict upper bound `x1 < 2`: each operator's
/// output and the widest coefficient it observed.
fn quad_every_operator(q: &MPoly) -> Vec<(String, u64)> {
    let n = 2;
    let (x, y) = (v(0, n), v(1, n));
    OPS.iter()
        .map(|&op| {
            let atoms = vec![
                Atom::new(q.clone(), op),
                Atom::cmp(y.clone(), RelOp::Ge, &x - &k(1, n)),
                Atom::cmp(y.clone(), RelOp::Lt, k(2, n)),
            ];
            exact(|ctx| quad(atoms.clone(), ctx))
        })
        .collect()
}

/// `x1² − 2·x0·x1 + x0 − 1 ⋈ 0` under `≤ < ≥ > =`.
#[test]
fn quad_every_operator_bytes() {
    let n = 2;
    let (x, y) = (v(0, n), v(1, n));
    let q = &(&(&y * &y) - &sc(&(&x * &y), 2)) + &(&x - &k(1, n));
    let got = quad_every_operator(&q);
    assert_eq!(got, owned(&QUAD_OPS));
}

/// A negative leading coefficient: `−2·x1² + x1 + x0 ⋈ 0` under
/// `≤ < ≥ > =` (normalised to `a > 0` with the operator flipped).
#[test]
fn quad_negative_lead_every_operator_bytes() {
    let n = 2;
    let (x, y) = (v(0, n), v(1, n));
    let q = &(&sc(&(&y * &y), -2) + &y) + &x;
    let got = quad_every_operator(&q);
    assert_eq!(got, owned(&NEG_OPS));
}

/// Fourier–Motzkin under every budget up to past its widest observation:
/// two lower and two upper bounds of distinct widths whose pairs are wider
/// still, so each budget names the first observation that exceeds it —
/// bounds in atom order, then pairs.
#[test]
fn fm_budget_sweep() {
    let n = 2;
    let (x, y) = (v(0, n), v(1, n));
    let atoms = vec![
        Atom::new(&(&x * &x) - &k(70_001, n), RelOp::Lt),
        Atom::cmp(y.clone(), RelOp::Ge, &x - &k(100, n)),
        Atom::cmp(sc(&y, 2), RelOp::Gt, &k(3_001, n) - &x),
        Atom::cmp(y.clone(), RelOp::Le, &sc(&x, 40) + &k(9, n)),
        Atom::cmp(sc(&y, -7), RelOp::Ge, &x - &k(250_000, n)),
    ];
    let got = sweep(24, |ctx| fm(atoms.clone(), 1, ctx));
    assert_eq!(
        got,
        [7, 7, 7, 7, 7, 7, 7, 12, 12, 12, 12, 12, 18, 18, 18, 18, 18, 18, 19, 0, 0, 0, 0, 0, 0]
    );
}

/// The quadratic path under every budget up to past its widest
/// observation, for every operator: `3·x1² − 2·x0·x1 − 5000 ⋈ 0` with
/// `x1 ≥ x0 − 100` and `3·x1 < 1000`. The bounds, the discriminant, the
/// pair, and the root comparisons' linear forms and squares have distinct
/// widths, so each budget names the first observation that exceeds it.
#[test]
fn quad_budget_sweep() {
    let n = 2;
    let (x, y) = (v(0, n), v(1, n));
    let q = &(&sc(&(&y * &y), 3) - &sc(&(&x * &y), 2)) - &k(5_000, n);
    let got: Vec<Vec<u64>> = OPS
        .iter()
        .map(|&op| {
            let atoms = vec![
                Atom::new(q.clone(), op),
                Atom::cmp(y.clone(), RelOp::Ge, &x - &k(100, n)),
                Atom::cmp(sc(&y, 3), RelOp::Lt, k(1_000, n)),
            ];
            sweep(24, |ctx| quad(atoms.clone(), ctx))
        })
        .collect();
    assert_eq!(got, [QUAD_SWEEP; 5]);
}

/// `quad_every_operator_bytes`, in `OPS` order: output tuples, widest
/// coefficient observed.
const QUAD_OPS: [(&str, u64); 5] = [
    (
        "x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0 - 2 < 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0 - 1 > 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0^2 - x0 >= 0 and x0 - 2 < 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0^2 - x0 >= 0 and x0 - 1 > 0\n",
        4,
    ),
    (
        "x0 - 3 < 0 and x0^2 - x0 + 1 > 0 and x0 - 2 < 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 > 0 and x0 - 1 > 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 > 0 and x0^2 - x0 > 0 and x0 - 2 < 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 > 0 and x0^2 - x0 > 0 and x0 - 1 > 0\n",
        4,
    ),
    (
        "x0 - 3 < 0 and x0^2 - x0 + 1 <= 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0^2 - x0 <= 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0 - 2 < 0 and x0 - 1 < 0\n",
        4,
    ),
    (
        "x0 - 3 < 0 and x0^2 - x0 + 1 < 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0^2 - x0 < 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0 - 2 < 0 and x0 - 1 < 0\n",
        4,
    ),
    (
        "x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0^2 - x0 <= 0 and x0 - 2 < 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0^2 - x0 <= 0 and x0 - 1 > 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0 - 2 < 0 and x0 - 1 < 0\n\
         x0 - 3 < 0 and x0^2 - x0 + 1 >= 0 and x0^2 - x0 >= 0 and x0 - 2 < 0 and x0 - 1 < 0\n",
        4,
    ),
];

/// `quad_negative_lead_every_operator_bytes`, in `OPS` order.
const NEG_OPS: [(&str, u64); 5] = [
    (
        "x0 - 3 < 0 and 8*x0 + 1 <= 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and 4*x0 - 5 <= 0 and 2*x0^2 - 6*x0 + 3 >= 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and x0 - 6 < 0\n",
        6,
    ),
    (
        "x0 - 3 < 0 and 8*x0 + 1 < 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and 4*x0 - 5 < 0 and 2*x0^2 - 6*x0 + 3 > 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and x0 - 6 < 0\n",
        6,
    ),
    (
        "x0 - 3 < 0 and 8*x0 + 1 >= 0 and 4*x0 - 5 <= 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and 4*x0 - 5 <= 0 and x0 - 6 > 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and 2*x0^2 - 6*x0 + 3 <= 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and 2*x0^2 - 6*x0 + 3 <= 0 and x0 - 6 > 0\n",
        6,
    ),
    (
        "x0 - 3 < 0 and 8*x0 + 1 > 0 and 4*x0 - 5 < 0\n\
         x0 - 3 < 0 and 8*x0 + 1 > 0 and 4*x0 - 5 < 0 and x0 - 6 > 0\n\
         x0 - 3 < 0 and 8*x0 + 1 > 0 and 2*x0^2 - 6*x0 + 3 < 0\n\
         x0 - 3 < 0 and 8*x0 + 1 > 0 and 2*x0^2 - 6*x0 + 3 < 0 and x0 - 6 > 0\n",
        6,
    ),
    (
        "x0 - 3 < 0 and 8*x0 + 1 >= 0 and 4*x0 - 5 <= 0 and 2*x0^2 - 6*x0 + 3 >= 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and 4*x0 - 5 <= 0 and 2*x0^2 - 6*x0 + 3 >= 0 and x0 - 6 > 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and 4*x0 - 5 <= 0 and x0 - 6 < 0\n\
         x0 - 3 < 0 and 8*x0 + 1 >= 0 and 2*x0^2 - 6*x0 + 3 <= 0 and x0 - 6 < 0\n",
        6,
    ),
];

/// `quad_budget_sweep` under each operator: bounds (7, 10 bits), the
/// discriminant (16) before the pair (11), then each root comparison's
/// linear form and square (10 and 19 for the lower bound, 11 and 22 for the
/// upper).
const QUAD_SWEEP: [u64; 25] = [
    7, 7, 7, 7, 7, 7, 7, 10, 10, 10, 16, 16, 16, 16, 16, 16, 19, 19, 19, 22, 22, 22, 0, 0, 0,
];
