//! Differential tests for the per-disjunct QE planner (DESIGN.md §16).
//!
//! Three obligations:
//! 1. `Auto` output is byte-identical across worker counts (1 vs 4), and
//!    semantically equal to the `ForceCAD` output (which reproduces the
//!    pre-planner whole-relation path byte-for-byte, also across workers).
//! 2. The quadratic shortcut ([`cdb_qe::quad1`]) agrees with CAD on every
//!    degree-≤2 one-variable formula — including the degenerate `a = 0`
//!    (linear) case and double roots.
//! 3. Forced modes fail *typed* on inapplicable disjuncts
//!    ([`QeError::PlanUnsupported`]), never silently falling back.
//!
//! A fixed mixed corpus also pins that all four strategies are exercised
//! (`strategies_all_exercised`), and a reorder pin shows the cost-aware
//! variable order avoiding a CAD dispatch a naive order would pay for.

use cdb_constraints::{Atom, ConstraintRelation, Formula, GeneralizedTuple, Quantifier, RelOp};
use cdb_num::Rat;
use cdb_poly::MPoly;
use cdb_qe::cad::{self, solution};
use cdb_qe::{plan, PlanMode, QeContext, QeError};
use proptest::prelude::*;

fn c(v: i64, n: usize) -> MPoly {
    MPoly::constant(Rat::from(v), n)
}

/// Run the planner entry point on a prenex matrix and return the answer
/// relation (callers compare its printed form for byte identity, or probe
/// it for semantic equality).
fn run_planner(
    matrix: &Formula,
    prefix: &[(Quantifier, usize)],
    free: &[usize],
    nvars: usize,
    mode: PlanMode,
    workers: usize,
) -> Result<ConstraintRelation, QeError> {
    let ctx = QeContext::exact()
        .with_workers(workers)
        .with_plan_mode(mode);
    run_planner_in(&ctx, matrix, prefix, free, nvars)
}

/// [`run_planner`] in a caller-owned context (whose counters the caller
/// then reads).
fn run_planner_in(
    ctx: &QeContext,
    matrix: &Formula,
    prefix: &[(Quantifier, usize)],
    free: &[usize],
    nvars: usize,
) -> Result<ConstraintRelation, QeError> {
    let rel = matrix.to_dnf(nvars).map_err(QeError::Unsupported)?;
    plan::eliminate_prefix(matrix, rel, prefix, free, nvars, ctx)
}

/// One mixed-corpus disjunct over `(x, y)` (y is eliminated): `kind`
/// selects the planner class it should land in.
fn mixed_disjunct(kind: u8, a: i64, b: i64) -> Formula {
    let n = 2;
    let x = MPoly::var(0, n);
    let y = MPoly::var(1, n);
    let atoms = match kind {
        // Substitution: y pinned by a linear equality.
        0 => vec![
            Atom::new(&y - &c(a, n), RelOp::Eq),
            Atom::new(&(&x - &y) - &c(b, n), RelOp::Le),
        ],
        // Fourier–Motzkin: all-linear bounds on y.
        1 => vec![
            Atom::new(&y - &c(b.max(a), n), RelOp::Le),
            Atom::new(&c(a.min(b), n) - &y, RelOp::Le),
            Atom::new(&x - &y, RelOp::Le),
        ],
        // Quadratic shortcut: one degree-2 atom, constant lead.
        2 => vec![
            Atom::new(&(&y.pow(2) + &y.scale(&Rat::from(a))) + &c(b, n), RelOp::Le),
            Atom::new(&x - &y, RelOp::Le),
        ],
        // CAD fallback: cubic in y. ∃y (y³ ≥ x ∧ y ≤ a) ⇔ x ≤ a³.
        _ => vec![
            Atom::new(&x - &y.pow(3), RelOp::Le),
            Atom::new(&y - &c(a, n), RelOp::Le),
        ],
    };
    Formula::And(atoms.into_iter().map(Formula::Atom).collect())
}

fn mixed_matrix(spec: &[(u8, i64, i64)]) -> Formula {
    Formula::Or(
        spec.iter()
            .map(|&(k, a, b)| mixed_disjunct(k, a, b))
            .collect(),
    )
    .to_nnf()
}

/// Probe grid for semantic comparison of one-free-variable answers.
fn probe_points() -> Vec<Rat> {
    ["-4", "-2", "-1", "-1/2", "0", "1/2", "1", "2", "4", "27/8"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
}

/// Fixed mixed corpus: every strategy fires, and the planner's output
/// agrees with forced CAD — byte-identical across workers within each
/// mode, semantically equal across modes.
#[test]
fn strategies_all_exercised() {
    let spec = [(0u8, 2i64, 1i64), (1, -1, 2), (2, 1, -2), (3, 2, 0)];
    let matrix = mixed_matrix(&spec);
    let prefix = [(Quantifier::Exists, 1)];
    for workers in [1usize, 4] {
        let ctx = QeContext::exact()
            .with_workers(workers)
            .with_plan_mode(PlanMode::Auto);
        let rel = matrix.to_dnf(2).unwrap();
        plan::eliminate_prefix(&matrix, rel, &prefix, &[0], 2, &ctx).unwrap();
        let stats = ctx.plan_stats();
        assert!(stats.subst >= 1, "substitution never fired (w={workers})");
        assert!(stats.fm >= 1, "FM never fired (w={workers})");
        assert!(stats.quad >= 1, "quad shortcut never fired (w={workers})");
        assert!(stats.cad >= 1, "CAD fallback never fired (w={workers})");
    }
}

/// The fixed corpus again, as a full four-way differential.
#[test]
fn mixed_corpus_differential_fixed() {
    let spec = [(0u8, 2i64, 1i64), (1, -1, 2), (2, 1, -2), (3, 2, 0)];
    let matrix = mixed_matrix(&spec);
    let prefix = [(Quantifier::Exists, 1)];
    let auto1 = run_planner(&matrix, &prefix, &[0], 2, PlanMode::Auto, 1).unwrap();
    let auto4 = run_planner(&matrix, &prefix, &[0], 2, PlanMode::Auto, 4).unwrap();
    let cad1 = run_planner(&matrix, &prefix, &[0], 2, PlanMode::ForceCAD, 1).unwrap();
    let cad4 = run_planner(&matrix, &prefix, &[0], 2, PlanMode::ForceCAD, 4).unwrap();
    assert_eq!(
        format!("{auto1}"),
        format!("{auto4}"),
        "Auto not worker-deterministic"
    );
    assert_eq!(
        format!("{cad1}"),
        format!("{cad4}"),
        "ForceCAD not worker-deterministic"
    );
    for x in probe_points() {
        let point = [x.clone(), Rat::zero()];
        assert_eq!(
            auto1.satisfied_at(&point),
            cad1.satisfied_at(&point),
            "Auto and ForceCAD disagree at x = {x}"
        );
    }
}

/// Reorder pin (satellite 2): in ∃x∃y (x = 2 ∧ x·y² + y − 3 ≤ 0) the
/// quadratic's leading coefficient in y is *symbolic* (`x`), so naively
/// eliminating the innermost y first means a CAD dispatch. The cost-aware
/// order substitutes the pinned x first, which collapses the disjunct to
/// 2y² + y − 3 ≤ 0 — a quad-shortcut job. CAD must never fire.
#[test]
fn reorder_avoids_cad_dispatch() {
    let n = 2;
    let x = MPoly::var(0, n);
    let y = MPoly::var(1, n);
    let quad_atom = Atom::new(&(&(&x * &y.pow(2)) + &y) - &c(3, n), RelOp::Le);
    let tuple = GeneralizedTuple::new(
        n,
        vec![Atom::new(&x - &c(2, n), RelOp::Eq), quad_atom.clone()],
    );
    // Naive innermost-first would start at y, which classifies as CAD.
    assert_eq!(plan::classify(&tuple, 1), plan::Strategy::Cad);
    assert_eq!(plan::classify(&tuple, 0), plan::Strategy::Subst);
    let matrix = Formula::And(vec![
        Formula::Atom(Atom::new(&x - &c(2, n), RelOp::Eq)),
        Formula::Atom(quad_atom),
    ])
    .to_nnf();
    let prefix = [(Quantifier::Exists, 0), (Quantifier::Exists, 1)];
    let ctx = QeContext::exact().with_workers(1);
    let rel = matrix.to_dnf(n).unwrap();
    let out = plan::eliminate_prefix(&matrix, rel, &prefix, &[], n, &ctx).unwrap();
    // The sentence is true: y = 1 gives 2 + 1 − 3 ≤ 0.
    assert!(out.satisfied_at(&[Rat::zero(), Rat::zero()]));
    let stats = ctx.plan_stats();
    assert_eq!(stats.cad, 0, "cost-aware order should avoid CAD entirely");
    assert!(stats.subst >= 1, "x = 2 should be substituted");
    assert!(stats.quad >= 1, "the collapsed disjunct should go quad");
}

/// Satellite 6: a forced mode returns a typed error on an inapplicable
/// disjunct — no panic, no silent fallback.
#[test]
fn forced_modes_fail_typed() {
    let n = 1;
    let x = MPoly::var(0, n);
    let cubic = ConstraintRelation::new(
        n,
        vec![GeneralizedTuple::new(
            n,
            vec![Atom::new(&x.pow(3) - &c(2, n), RelOp::Le)],
        )],
    );
    let fq = QeContext::exact().with_plan_mode(PlanMode::ForceQuad);
    let err = plan::eliminate_exists_run(&cubic, &[0], &fq).unwrap_err();
    assert!(
        matches!(err, QeError::PlanUnsupported(_)),
        "ForceQuad on a cubic must be PlanUnsupported, got: {err}"
    );
    // The error also survives the full planner entry point.
    let matrix = cdb_constraints::formula::relation_to_formula(&cubic);
    let err = plan::eliminate_prefix(
        &matrix,
        cubic.clone(),
        &[(Quantifier::Exists, 0)],
        &[],
        n,
        &fq,
    )
    .unwrap_err();
    assert!(matches!(err, QeError::PlanUnsupported(_)), "{err}");
}

/// Quad-vs-CAD on hand-picked degenerate cases: double roots, empty
/// interiors, the linear `a = 0` delegation, and equality constraints.
#[test]
fn quad_shortcut_degenerate_cases() {
    // (q(x) atoms, extra linear bounds, expected sentence truth)
    let n = 1;
    let x = MPoly::var(0, n);
    let dbl = &(&x - &c(1, n)).pow(2); // (x−1)², double root at 1
    let cases: Vec<(Vec<Atom>, bool)> = vec![
        (vec![Atom::new(dbl.clone(), RelOp::Le)], true),
        (vec![Atom::new(dbl.clone(), RelOp::Lt)], false),
        (
            vec![
                Atom::new(dbl.clone(), RelOp::Le),
                Atom::new(&c(2, n) - &x, RelOp::Le), // x ≥ 2 excludes the root
            ],
            false,
        ),
        (
            vec![
                Atom::new(dbl.clone(), RelOp::Eq),
                Atom::new(-&x, RelOp::Le), // x ≥ 0 keeps it
            ],
            true,
        ),
        // a = 0: the "quadratic" is linear; quad1 delegates to FM.
        (
            vec![
                Atom::new(&x.scale(&Rat::from(2i64)) + &c(1, n), RelOp::Le),
                Atom::new(-&x, RelOp::Le), // x ≥ 0 ∧ 2x+1 ≤ 0: empty
            ],
            false,
        ),
        (
            vec![
                Atom::new(&x.pow(2) - &c(2, n), RelOp::Eq),
                Atom::new(&c(1, n) - &x, RelOp::Le), // x ≥ 1 keeps √2
            ],
            true,
        ),
    ];
    for (i, (atoms, expect)) in cases.into_iter().enumerate() {
        let matrix = Formula::And(atoms.into_iter().map(Formula::Atom).collect()).to_nnf();
        let prefix = [(Quantifier::Exists, 0)];
        for mode in [PlanMode::ForceQuad, PlanMode::ForceCAD, PlanMode::Auto] {
            let out = run_planner(&matrix, &prefix, &[], n, mode, 1).unwrap();
            assert_eq!(
                out.satisfied_at(&[Rat::zero()]),
                expect,
                "case {i} under {mode:?}"
            );
        }
    }
}

/// `Σ c·xⁱ·yʲ` over `(x, y)`.
fn poly2(terms: &[(i64, u32, u32)]) -> MPoly {
    terms.iter().fold(c(0, 2), |acc, &(k, i, j)| {
        &acc + &(&MPoly::var(0, 2).pow(i) * &MPoly::var(1, 2).pow(j)).scale(&Rat::from(k))
    })
}

/// Lifting corpus (also probed pointwise in `tests/qe_soundness.rs`): the
/// four `conic_cad` template shapes of `stmtbench/README.md` and two queries
/// whose level-2 polynomials share an irrational root over an algebraic
/// section of `x`. A rational line can only touch a rational conic at a
/// rational point (a double root of a rational quadratic is rational), so
/// the last row takes the line through the disc's boundary at `x = ±1/√2`.
/// Each row: quantifier, matrix, then the `Display` bytes of the `ForceCAD`
/// answer, captured at the commit before lifting stopped repeating its
/// algebra and untouched since, and the `cells_built` / `sign_evals`
/// counters of the partial CAD (re-baselined when the innermost level
/// stopped being materialised; [`FULL_CAD_PINS`] keeps the old ones).
fn lifting_corpus() -> Vec<(Quantifier, Formula, &'static str, u64, u64)> {
    let atom = |terms: &[(i64, u32, u32)], op| Formula::Atom(Atom::new(poly2(terms), op));
    vec![
        // Off-centre disc ∩ axis-parallel ellipse.
        (
            Quantifier::Exists,
            Formula::And(vec![
                atom(&[(1, 2, 0), (1, 0, 2), (-2, 1, 0), (4, 0, 1), (-4, 0, 0)], RelOp::Le),
                atom(&[(2, 2, 0), (3, 0, 2), (-20, 0, 0)], RelOp::Le),
            ]),
            "(x0^4 - 12*x0^3 + 148*x0^2 - 96*x0 - 896 < 0) or (x0^4 - 12*x0^3 + 148*x0^2 - 96*x0 - 896 = 0) or (x0^2 - 2*x0 - 8 < 0 and x0^2 - 10 < 0) or (x0^2 - 2*x0 - 8 < 0 and x0^2 - 10 = 0)",
            69,
            50,
        ),
        // Non-constant leading coefficient with side conditions.
        (
            Quantifier::Exists,
            Formula::And(vec![
                atom(&[(1, 1, 2), (2, 0, 1), (-3, 0, 0)], RelOp::Eq),
                atom(&[(1, 0, 1), (-1, 0, 0)], RelOp::Ge),
                atom(&[(1, 1, 0), (-5, 0, 0)], RelOp::Le),
            ]),
            "(3*x0 + 1 = 0) or (3*x0 + 1 > 0 and x0 - 1 < 0) or (x0 - 1 = 0)",
            49,
            30,
        ),
        // Cubic in the bound variable.
        (
            Quantifier::Exists,
            Formula::And(vec![
                atom(&[(1, 0, 3), (1, 1, 1), (-2, 0, 1), (2, 1, 0), (1, 0, 0)], RelOp::Eq),
                atom(&[(1, 0, 1), (1, 0, 0)], RelOp::Ge),
                atom(&[(1, 0, 1), (-2, 0, 0)], RelOp::Le),
            ]),
            "(x0 + 2 = 0) or (x0 + 2 > 0 and 4*x0 + 5 < 0) or (4*x0 + 5 = 0) or (4*x0^3 + 84*x0^2 + 156*x0 - 5 < 0 and 4*x0 + 5 > 0) or (4*x0^3 + 84*x0^2 + 156*x0 - 5 = 0 and 4*x0 + 5 > 0)",
            123,
            85,
        ),
        // Nonlinear ∀: no point of the open disc lies above the line.
        (
            Quantifier::Forall,
            Formula::Or(vec![
                atom(&[(1, 2, 0), (1, 0, 2), (-2, 1, 0), (2, 0, 1), (-3, 0, 0)], RelOp::Ge),
                atom(&[(1, 0, 1), (-2, 1, 0), (-1, 0, 0)], RelOp::Le),
            ]),
            "(2*x0 + 1 > 0 and 5*x0^2 + 6*x0 = 0) or (2*x0 + 1 > 0 and 5*x0^2 + 6*x0 > 0) or (x0^2 - 2*x0 - 4 = 0) or (x0^2 - 2*x0 - 4 > 0)",
            90,
            59,
        ),
        // ∃y (y² = x ∧ y ≥ 1).
        (
            Quantifier::Exists,
            Formula::And(vec![
                atom(&[(1, 0, 2), (-1, 1, 0)], RelOp::Eq),
                atom(&[(1, 0, 1), (-1, 0, 0)], RelOp::Ge),
            ]),
            "(x0 - 1 = 0) or (x0 - 1 > 0)",
            30,
            19,
        ),
        // Unit disc and the line y = x: common root y = ±1/√2 over x = ±1/√2.
        (
            Quantifier::Exists,
            Formula::And(vec![
                atom(&[(1, 2, 0), (1, 0, 2), (-1, 0, 0)], RelOp::Le),
                atom(&[(1, 0, 1), (-1, 1, 0)], RelOp::Eq),
            ]),
            "(2*x0^2 - 1 < 0) or (2*x0^2 - 1 = 0)",
            59,
            37,
        ),
    ]
}

/// `cells_built` / `sign_evals` per corpus row when every level was
/// materialised and every cell took every polynomial's sign afresh.
const FULL_CAD_PINS: [(u64, u64); 6] = [
    (98, 182),
    (62, 115),
    (154, 421),
    (104, 192),
    (32, 50),
    (72, 123),
];

/// The lifting corpus under `ForceCAD`, workers {1, 4}: output bytes and
/// the deterministic CAD counters equal the pinned ones, and the partial
/// CAD does strictly less work than the full one did on every row — under
/// half the sign evaluations overall.
#[test]
fn lifting_corpus_matches_pinned_decomposition() {
    let pins = lifting_corpus().into_iter().map(|row| (row.3, row.4));
    for ((cells, sign_evals), (full_cells, full_evals)) in pins.clone().zip(FULL_CAD_PINS) {
        assert!(cells < full_cells && sign_evals < full_evals);
    }
    let evals: u64 = pins.map(|(_, e)| e).sum();
    let full_evals: u64 = FULL_CAD_PINS.iter().map(|(_, e)| e).sum();
    assert!(2 * evals <= full_evals, "{evals} vs {full_evals}");
    for (i, (q, matrix, display, cells, sign_evals)) in lifting_corpus().into_iter().enumerate() {
        let matrix = matrix.to_nnf();
        for workers in [1usize, 4] {
            let ctx = QeContext::exact()
                .with_workers(workers)
                .with_plan_mode(PlanMode::ForceCAD);
            let out = run_planner_in(&ctx, &matrix, &[(q, 1)], &[0], 2).unwrap();
            assert_eq!(format!("{out}"), display, "row {i}, workers {workers}");
            assert_eq!(ctx.cells_built.get(), cells, "row {i}, workers {workers}");
            assert_eq!(
                ctx.sign_evals.get(),
                sign_evals,
                "row {i}, workers {workers}"
            );
        }
    }
}

/// The partial CAD of [`cad::decide`] against the reference — a full
/// [`cad::build_cad`] under [`solution::evaluate_truth`]: the innermost
/// quantifier's verdict per cell of level `n − 1`, the truth table after
/// the whole prefix, and the `Display` bytes of the solution formula.
fn assert_partial_matches_full(
    matrix: &Formula,
    prefix: &[(Quantifier, usize)],
    free: &[usize],
    nvars: usize,
) {
    let matrix = matrix.to_nnf();
    let ctx = QeContext::exact();
    let polys = cad::matrix_polys(&matrix).unwrap();
    let mut order = free.to_vec();
    order.extend(prefix.iter().map(|(_, v)| *v));
    let full = cad::build_cad(&polys, &order, nvars, &ctx).unwrap();
    // Innermost quantifier alone, every level below it taken as free.
    let (inner, below) = (&prefix[prefix.len() - 1..], &order[..order.len() - 1]);
    let (partial, verdicts) = cad::decide(&polys, &matrix, inner, below, nvars, &ctx).unwrap();
    let reference = solution::evaluate_truth(&full, &matrix, inner, below.len(), &ctx).unwrap();
    assert_eq!(partial.levels.len(), below.len(), "{matrix}");
    assert_eq!(
        verdicts.free_cell_truth, reference.free_cell_truth,
        "{matrix}"
    );
    assert_eq!(verdicts.root_truth, reference.root_truth, "{matrix}");
    // The whole prefix.
    let (partial, truth) = cad::decide(&polys, &matrix, prefix, free, nvars, &ctx).unwrap();
    let reference = solution::evaluate_truth(&full, &matrix, prefix, free.len(), &ctx).unwrap();
    assert_eq!(truth.free_cell_truth, reference.free_cell_truth, "{matrix}");
    assert_eq!(truth.root_truth, reference.root_truth, "{matrix}");
    if !free.is_empty() {
        let bytes = |cad: &cad::Cad, truth: &solution::TruthTable| {
            solution::construct_formula(cad, truth, free.len(), nvars, &ctx)
                .map(|rel| rel.to_string())
        };
        assert_eq!(
            bytes(&partial, &truth),
            bytes(&full, &reference),
            "{matrix}"
        );
    }
}

/// [`assert_partial_matches_full`] over the lifting corpus, a sweep of the
/// mixed-corpus generator, two-quantifier prefixes (`∃∃`, `∀∃`, `∃∀`) over
/// the algebraic-coordinate matrices of `cad_depth.rs`, and sentences.
#[test]
fn partial_matches_full() {
    for (q, matrix, ..) in lifting_corpus() {
        assert_partial_matches_full(&matrix, &[(q, 1)], &[0], 2);
    }
    for k1 in 0u8..=3 {
        for k2 in 0u8..=3 {
            for (a, b) in [(-2, 1), (1, -1), (2, 0)] {
                let matrix = mixed_matrix(&[(k1, a, b), (k2, b, a)]);
                assert_partial_matches_full(&matrix, &[(Quantifier::Exists, 1)], &[0], 2);
            }
        }
    }
    // x² = 2 ∧ y² = 3 ∧ z = x·y ∧ 5z ≥ 12, and a sphere cut by a saddle.
    let n = 3;
    let (x, y, z) = (MPoly::var(0, n), MPoly::var(1, n), MPoly::var(2, n));
    let roots = Formula::And(vec![
        Formula::Atom(Atom::new(&x.pow(2) - &c(2, n), RelOp::Eq)),
        Formula::Atom(Atom::new(&y.pow(2) - &c(3, n), RelOp::Eq)),
        Formula::Atom(Atom::new(&z - &(&x * &y), RelOp::Eq)),
        Formula::Atom(Atom::new(&c(12, n) - &z.scale(&Rat::from(5)), RelOp::Le)),
    ]);
    let sphere = Formula::Or(vec![
        Formula::Atom(Atom::new(
            &(&(&x.pow(2) + &y.pow(2)) + &z.pow(2)) - &c(4, n),
            RelOp::Lt,
        )),
        Formula::Atom(Atom::new(&z - &(&x * &y), RelOp::Ge)),
    ]);
    use Quantifier::{Exists, Forall};
    for matrix in [&roots, &sphere] {
        for (qy, qz) in [(Exists, Exists), (Forall, Exists), (Exists, Forall)] {
            assert_partial_matches_full(matrix, &[(qy, 1), (qz, 2)], &[0], n);
        }
    }
    // Sentences: three levels, and the `n = 1` case whose parent is the root.
    assert_partial_matches_full(&roots, &[(Exists, 0), (Exists, 1), (Exists, 2)], &[], n);
    let x = MPoly::var(0, 1);
    for (q, op) in [
        (Exists, RelOp::Eq),
        (Forall, RelOp::Ne),
        (Forall, RelOp::Ge),
    ] {
        let matrix = Formula::Atom(Atom::new(&x.pow(2) - &c(2, 1), op));
        assert_partial_matches_full(&matrix, &[(q, 0)], &[], 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The partial CAD equals the full one on randomized mixed corpora.
    #[test]
    fn partial_matches_full_on_mixed_corpora(
        spec in proptest::collection::vec((0u8..=3, -2i64..=2, -2i64..=2), 2..=3),
    ) {
        assert_partial_matches_full(&mixed_matrix(&spec), &[(Quantifier::Exists, 1)], &[0], 2);
    }

    /// Randomized mixed corpora: Auto is byte-identical across workers
    /// {1, 4}, ForceCAD likewise, and the two modes agree semantically on
    /// a probe grid.
    #[test]
    fn mixed_corpus_differential(
        spec in proptest::collection::vec((0u8..=3, -2i64..=2, -2i64..=2), 2..=3),
    ) {
        let matrix = mixed_matrix(&spec);
        let prefix = [(Quantifier::Exists, 1)];
        let auto1 = run_planner(&matrix, &prefix, &[0], 2, PlanMode::Auto, 1).unwrap();
        let auto4 = run_planner(&matrix, &prefix, &[0], 2, PlanMode::Auto, 4).unwrap();
        let cad1 = run_planner(&matrix, &prefix, &[0], 2, PlanMode::ForceCAD, 1).unwrap();
        let cad4 = run_planner(&matrix, &prefix, &[0], 2, PlanMode::ForceCAD, 4).unwrap();
        prop_assert_eq!(format!("{}", auto1), format!("{}", auto4));
        prop_assert_eq!(format!("{}", cad1), format!("{}", cad4));
        for x in probe_points() {
            let point = [x.clone(), Rat::zero()];
            prop_assert_eq!(
                auto1.satisfied_at(&point),
                cad1.satisfied_at(&point),
                "Auto and ForceCAD disagree at x = {}", x
            );
        }
    }

    /// Randomized degree-≤2 one-variable formulas (a = 0 included): the
    /// quad shortcut and CAD decide the same sentences.
    #[test]
    fn quad_shortcut_matches_cad(
        a in -2i64..=2, b in -3i64..=3, cc in -3i64..=3,
        op_idx in 0u8..=4,
        lo in -3i64..=1, hi in 0i64..=3,
        with_lo in any::<bool>(), with_hi in any::<bool>(),
    ) {
        let n = 1;
        let x = MPoly::var(0, n);
        let q = &(&x.pow(2).scale(&Rat::from(a)) + &x.scale(&Rat::from(b))) + &c(cc, n);
        let op = [RelOp::Le, RelOp::Lt, RelOp::Ge, RelOp::Gt, RelOp::Eq][usize::from(op_idx)];
        let mut atoms = vec![Atom::new(q, op)];
        if with_lo {
            atoms.push(Atom::new(&c(lo, n) - &x, RelOp::Le));
        }
        if with_hi {
            atoms.push(Atom::new(&x - &c(hi, n), RelOp::Le));
        }
        let matrix = Formula::And(atoms.into_iter().map(Formula::Atom).collect()).to_nnf();
        let prefix = [(Quantifier::Exists, 0)];
        let quad = run_planner(&matrix, &prefix, &[], n, PlanMode::ForceQuad, 1).unwrap();
        let cad = run_planner(&matrix, &prefix, &[], n, PlanMode::ForceCAD, 1).unwrap();
        prop_assert_eq!(
            quad.satisfied_at(&[Rat::zero()]),
            cad.satisfied_at(&[Rat::zero()]),
            "quad shortcut disagrees with CAD on a={} b={} c={} op={:?} lo={:?} hi={:?}",
            a, b, cc, op,
            with_lo.then_some(lo), with_hi.then_some(hi)
        );
    }
}
