//! The five macro workloads: seeded generators that emit **statement text**
//! (the only thing the system under test ever sees) plus, per statement, an
//! independent [`Oracle`] the harness checks the answer against.
//!
//! Why these five, and what each deliberately bypasses, is recorded in
//! `README.md` beside the crate; the one-line reasons live in
//! `BENCHMARK.json`.
//!
//! Seeds vary parameters *inside* a fixed structure (same statement count,
//! same template mix, same coefficient ranges), so that a metric's spread
//! across seeds measures the host, not the generator.

use cdb_bench::{gen_trajectories, Trajectories};
use cdb_constraints::RelOp;
use cdb_num::{Rat, Sign};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 5] = [
    "alibi_scan",
    "conic_cad",
    "tc_update",
    "calcf_agg",
    "serve_mixed",
];

/// Default `--seed` (the paper's year).
pub const DEFAULT_SEED: u64 = 1996;

/// One statement and what its answer must be.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement text, `;`-terminated.
    pub text: String,
    /// Independent expectation.
    pub oracle: Oracle,
}

/// How a statement's answer is checked in the verification pass. Timed
/// repeats then only compare bytes with the verified transcript.
#[derive(Debug, Clone)]
pub enum Oracle {
    /// No independent expectation beyond "did not fail": the bytes are
    /// pinned by the verified transcript.
    Transcript,
    /// The generator knows the full response line.
    Text(String),
    /// `SELECT` whose answer, restricted to a finite universe the
    /// generator knows, is exactly `inside` (free-variable order).
    Answer(Members),
    /// After this write, relation `name` in the writer's snapshot has this
    /// extent over the universe.
    Relation {
        /// Relation to inspect.
        name: String,
        /// Its expected extent.
        members: Members,
    },
    /// Aggregate `SELECT z = AGG[..]{..}` with a closed-form value.
    Value(Expected),
    /// One-quantifier conic query checked on a rational grid.
    Conic(Conic),
}

/// A finite universe of points split by membership: every `inside` point
/// must satisfy the answer, every `outside` point must not.
#[derive(Debug, Clone, Default)]
pub struct Members {
    /// Points the answer must contain.
    pub inside: Vec<Vec<Rat>>,
    /// Points the answer must not contain.
    pub outside: Vec<Vec<Rat>>,
}

impl Members {
    fn split(
        universe: impl IntoIterator<Item = Vec<Rat>>,
        inside: impl Fn(&[Rat]) -> bool,
    ) -> Members {
        let mut m = Members::default();
        for p in universe {
            if inside(&p) {
                m.inside.push(p);
            } else {
                m.outside.push(p);
            }
        }
        m
    }
}

/// Closed-form value of an aggregate.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The engine must return exactly this rational.
    Exact(Rat),
    /// The engine's value must lie within `tol` (absolute).
    Approx {
        /// Closed form in f64.
        value: f64,
        /// Absolute tolerance: quadrature/approximation error of the
        /// engine's defaults with a safety factor (see README).
        tol: f64,
    },
}

/// `Σ c·xⁱ·yʲ` with small integer coefficients: enough for every conic
/// template, cheap to render and to evaluate exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly2(pub Vec<(i64, u32, u32)>);

impl Poly2 {
    /// Exact value at a rational point.
    #[must_use]
    pub fn eval(&self, x: &Rat, y: &Rat) -> Rat {
        let mut acc = Rat::zero();
        for &(c, i, j) in &self.0 {
            let term = &(&Rat::from(c) * &x.pow(i as i32)) * &y.pow(j as i32);
            acc = &acc + &term;
        }
        acc
    }

    /// Coefficients in `y` (ascending) at a fixed f64 `x`.
    #[must_use]
    pub fn coeffs_in_y(&self, x: f64) -> Vec<f64> {
        let deg = self.0.iter().map(|t| t.2).max().unwrap_or(0) as usize;
        let mut out = vec![0.0; deg + 1];
        for &(c, i, j) in &self.0 {
            out[j as usize] += c as f64 * x.powi(i as i32);
        }
        out
    }

    /// CALC_F text, e.g. `x^2 - 2*x*y + 3`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &(c, i, j) in &self.0 {
            if c == 0 {
                continue;
            }
            let mut factors: Vec<String> = Vec::new();
            if c.abs() != 1 || (i == 0 && j == 0) {
                factors.push(c.abs().to_string());
            }
            for (name, e) in [("x", i), ("y", j)] {
                match e {
                    0 => {}
                    1 => factors.push(name.to_owned()),
                    e => factors.push(format!("{name}^{e}")),
                }
            }
            let sign = if c < 0 { "-" } else { "+" };
            if out.is_empty() {
                if c < 0 {
                    out.push('-');
                }
            } else {
                let _ = write!(out, " {sign} ");
            }
            out.push_str(&factors.join("*"));
        }
        if out.is_empty() {
            out.push('0');
        }
        out
    }
}

/// `poly op 0`.
#[derive(Debug, Clone)]
pub struct ConicAtom {
    /// Left-hand side.
    pub poly: Poly2,
    /// Comparison with zero.
    pub op: RelOp,
}

impl ConicAtom {
    fn holds(&self, x: &Rat, y: &Rat) -> bool {
        sign_satisfies(self.poly.eval(x, y).sign(), self.op)
    }

    fn render(&self, negate: bool) -> String {
        let op = if negate { self.op.negated() } else { self.op };
        format!("{} {} 0", self.poly.render(), op_text(op))
    }
}

fn op_text(op: RelOp) -> &'static str {
    match op {
        RelOp::Eq => "=",
        RelOp::Ne => "!=",
        RelOp::Lt => "<",
        RelOp::Le => "<=",
        RelOp::Gt => ">",
        RelOp::Ge => ">=",
    }
}

fn sign_satisfies(s: Sign, op: RelOp) -> bool {
    match op {
        RelOp::Eq => s == Sign::Zero,
        RelOp::Ne => s != Sign::Zero,
        RelOp::Lt => s == Sign::Neg,
        RelOp::Le => s != Sign::Pos,
        RelOp::Gt => s == Sign::Pos,
        RelOp::Ge => s != Sign::Neg,
    }
}

/// A query `Q y. M(x, y)` with one bound and one free variable, kept in
/// *witness form*: a conjunction `W(x, y)` such that the answer at `x` is
/// `∃y W` for `exists` queries and `¬∃y W` for `forall` queries (there
/// `W = ¬M`).
#[derive(Debug, Clone)]
pub struct Conic {
    /// `forall` query (answer is the complement of the projection of `W`).
    pub forall: bool,
    /// The conjunction `W`.
    pub witness: Vec<ConicAtom>,
}

impl Conic {
    /// Inline query text (no relation symbols).
    #[must_use]
    pub fn text(&self) -> String {
        let literals: Vec<String> = self.witness.iter().map(|a| a.render(self.forall)).collect();
        self.quantify(&literals)
    }

    /// The query over the given matrix literals, one per witness atom: a
    /// conjunction under `exists`, or — the literals then being the negated
    /// atoms — a disjunction under `forall`.
    fn quantify(&self, literals: &[String]) -> String {
        if self.forall {
            format!("forall y ({})", literals.join(" or "))
        } else {
            format!("exists y ({})", literals.join(" and "))
        }
    }

    /// Whether `W(x, y)` holds at a rational point (exact).
    #[must_use]
    pub fn witness_at(&self, x: &Rat, y: &Rat) -> bool {
        self.witness.iter().all(|a| a.holds(x, y))
    }

    /// Whether `x` belongs to the answer given that some `y` satisfies `W`
    /// there (`found`) or that none does.
    #[must_use]
    pub fn answer_if(&self, found: bool) -> bool {
        found != self.forall
    }

    /// Numerical decision of `∃y W(x, y)` at a fixed `x`: `None` when the
    /// f64 evidence is too close to a boundary to call. Candidates are the
    /// real roots in `y` of every atom (degree ≤ 3 in `y`), the midpoints
    /// between them and one point beyond each end, so every sign-invariant
    /// interval and every boundary point is tried.
    #[must_use]
    pub fn exists_y_f64(&self, x: f64) -> Option<bool> {
        const TOL: f64 = 1e-9;
        let polys: Vec<Vec<f64>> = self.witness.iter().map(|a| a.poly.coeffs_in_y(x)).collect();
        let mut roots: Vec<f64> = polys.iter().flat_map(|c| real_roots(c)).collect();
        roots.sort_by(f64::total_cmp);
        let mut candidates = roots.clone();
        candidates.extend(roots.windows(2).map(|w| (w[0] + w[1]) / 2.0));
        candidates.push(roots.first().map_or(0.0, |r| r - 1.0));
        candidates.push(roots.last().map_or(0.0, |r| r + 1.0));
        let mut unsure = false;
        'candidates: for &y in &candidates {
            // Atoms within rounding of their own boundary at `y`: a simple
            // root of an equation is as good as a strict witness (the true
            // root is nearby and every other atom holds with margin);
            // anything else on a boundary is evidence, not proof.
            let (mut simple_eq, mut on_boundary) = (0, 0);
            for (a, c) in self.witness.iter().zip(&polys) {
                let v = horner(c, y);
                let scale = c.iter().fold(1.0f64, |m, k| m.max(k.abs()))
                    * (1.0 + y.abs()).powi(c.len() as i32 - 1);
                if v.abs() <= TOL * scale {
                    let slope = horner(&derivative(c), y);
                    if a.op == RelOp::Eq && slope.abs() > 1e-5 * scale {
                        simple_eq += 1;
                    } else {
                        on_boundary += 1;
                    }
                    continue;
                }
                let holds = match a.op {
                    RelOp::Eq => false,
                    RelOp::Ne => true,
                    RelOp::Lt | RelOp::Le => v < 0.0,
                    RelOp::Gt | RelOp::Ge => v > 0.0,
                };
                if !holds {
                    continue 'candidates;
                }
            }
            if on_boundary == 0 && simple_eq <= 1 {
                return Some(true);
            }
            unsure = true;
        }
        (!unsure).then_some(false)
    }
}

fn derivative(coeffs: &[f64]) -> Vec<f64> {
    coeffs
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, k)| k * i as f64)
        .collect()
}

fn horner(coeffs: &[f64], y: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, c| acc * y + c)
}

/// Real roots of a polynomial of degree ≤ 3 (ascending coefficients):
/// closed form up to degree 2, bisection between critical points for
/// cubics. Multiplicities are not reported.
fn real_roots(coeffs: &[f64]) -> Vec<f64> {
    let mut c = coeffs.to_vec();
    while c.last().is_some_and(|k| k.abs() < 1e-12) {
        c.pop();
    }
    match c.len() {
        0 | 1 => Vec::new(),
        2 => vec![-c[0] / c[1]],
        3 => {
            let disc = c[1] * c[1] - 4.0 * c[2] * c[0];
            if disc < 0.0 {
                if disc > -1e-9 * (1.0 + c[1] * c[1]) {
                    return vec![-c[1] / (2.0 * c[2])];
                }
                return Vec::new();
            }
            let s = disc.sqrt();
            vec![(-c[1] - s) / (2.0 * c[2]), (-c[1] + s) / (2.0 * c[2])]
        }
        _ => {
            let deriv = derivative(&c);
            let lead = c[c.len() - 1].abs();
            let bound = 1.0 + c.iter().fold(0.0f64, |m, k| m.max(k.abs())) / lead;
            let mut cuts = vec![-bound];
            let mut crit = real_roots(&deriv);
            crit.sort_by(f64::total_cmp);
            cuts.extend(crit);
            cuts.push(bound);
            let mut roots = Vec::new();
            for w in cuts.windows(2) {
                let (mut lo, mut hi) = (w[0], w[1]);
                let (flo, fhi) = (horner(&c, lo), horner(&c, hi));
                if flo == 0.0 {
                    roots.push(lo);
                    continue;
                }
                if flo.signum() == fhi.signum() {
                    // A double root sits on a critical point.
                    if fhi.abs() < 1e-9 * bound.powi(3) * lead {
                        roots.push(hi);
                    }
                    continue;
                }
                for _ in 0..200 {
                    let mid = (lo + hi) / 2.0;
                    if horner(&c, mid).signum() == flo.signum() {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                roots.push((lo + hi) / 2.0);
            }
            roots
        }
    }
}

/// A generated workload: statements to load, then one closed-loop client
/// script per session.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// Statements that load shared/base relations on a fresh server; timed
    /// as part of `setup_s`, not of `wall_s`.
    pub setup: Vec<Stmt>,
    /// One script per client thread.
    pub sessions: Vec<Vec<Stmt>>,
}

impl Workload {
    /// Statements in the timed script, all sessions.
    #[must_use]
    pub fn timed_statements(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }
}

/// Workload sizes. [`Sizes::full`] is what `BENCHMARK.json` measures;
/// [`Sizes::tiny`] is the smoke size of `tests/harness.rs`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `alibi_scan`: trajectories (pairs = n·(n−1)/2).
    pub alibi_objects: usize,
    /// `alibi_scan`: unit time slices per trajectory.
    pub alibi_slices: usize,
    /// `conic_cad`: queries per template (four templates).
    pub conic_per_template: usize,
    /// `tc_update`: edges in the initial chain.
    pub tc_chain: usize,
    /// `tc_update`: insert-then-select rounds.
    pub tc_rounds: usize,
    /// `calcf_agg`: repetitions of the cheap exact block.
    pub agg_cheap_blocks: usize,
    /// `calcf_agg`: analytic aggregates of each kind.
    pub agg_analytic: usize,
    /// `serve_mixed`: loop iterations per session.
    pub mixed_rounds: usize,
}

impl Sizes {
    /// The measured sizes.
    #[must_use]
    pub fn full() -> Sizes {
        Sizes {
            alibi_objects: 36,
            alibi_slices: 12,
            conic_per_template: 25,
            tc_chain: 20,
            tc_rounds: 8,
            agg_cheap_blocks: 8,
            agg_analytic: 3,
            mixed_rounds: 20,
        }
    }

    /// Smoke-test sizes (every code path, a fraction of a second).
    #[must_use]
    pub fn tiny() -> Sizes {
        Sizes {
            alibi_objects: 6,
            alibi_slices: 5,
            conic_per_template: 2,
            tc_chain: 6,
            tc_rounds: 2,
            agg_cheap_blocks: 1,
            agg_analytic: 1,
            mixed_rounds: 10,
        }
    }
}

/// Generate workload `name` from `seed`; `None` for an unknown name.
#[must_use]
pub fn generate(name: &str, seed: u64, sizes: &Sizes) -> Option<Workload> {
    // Decorrelate the workloads: the same `--seed` must not hand two of
    // them the same random stream.
    let salt = WORKLOADS.iter().position(|w| *w == name)? as u64;
    let rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt));
    Some(match name {
        "alibi_scan" => alibi_scan(seed, sizes),
        "conic_cad" => conic_cad(rng, sizes),
        "tc_update" => tc_update(rng, sizes),
        "calcf_agg" => calcf_agg(rng, sizes),
        "serve_mixed" => serve_mixed(rng, sizes),
        _ => return None,
    })
}

fn read(text: String, oracle: Oracle) -> Stmt {
    Stmt {
        text: format!("SELECT {text};"),
        oracle,
    }
}

fn stmt(text: String, oracle: Oracle) -> Stmt {
    Stmt { text, oracle }
}

fn rows_text(exact: bool, body: &str) -> String {
    format!("rows (exact={exact}): {body}")
}

// ---------------------------------------------------------------- alibi

/// `R²` of the alibi query: beads touch within distance 2.
const ALIBI_R2: i64 = 4;

/// Every 4th slice is a *sighting*: a mid-slice ping pins `t = s + 1/2`.
fn is_sighting_slice(s: usize) -> bool {
    s % 4 == 3
}

/// Relative position and velocity of objects `i`, `j` during slice `s`.
fn relative_motion(traj: &Trajectories, i: usize, j: usize, s: usize) -> ((Rat, Rat), (Rat, Rat)) {
    let (pix, piy) = &traj.pos[i][s];
    let (pjx, pjy) = &traj.pos[j][s];
    let (vix, viy) = &traj.vel[i][s];
    let (vjx, vjy) = &traj.vel[j][s];
    ((pix - pjx, piy - pjy), (vix - vjx, viy - vjy))
}

/// `a + b*(t - s)` as text (all integers here).
fn affine_text(a: &Rat, b: &Rat, s: usize) -> String {
    let sign = if b.sign() == Sign::Neg { "-" } else { "+" };
    format!("({a} {sign} {}*(t - {s}))", b.abs())
}

/// The alibi sentence for one object pair as CALC_F text: `∃t ⋁ₛ (slice
/// bounds ∧ |Δp + Δv·(t−s)|² ≤ R²)` — one disjunct per slice, quadratic in
/// `t` (linear for convoy slices), a linear equality on sighting slices.
#[must_use]
pub fn alibi_query_text(traj: &Trajectories, i: usize, j: usize) -> String {
    let slices = traj.pos[i].len();
    let mut disjuncts = Vec::with_capacity(slices);
    for s in 0..slices {
        let ((dpx, dpy), (dvx, dvy)) = relative_motion(traj, i, j, s);
        let dist = format!(
            "{}^2 + {}^2 <= {ALIBI_R2}",
            affine_text(&dpx, &dvx, s),
            affine_text(&dpy, &dvy, s)
        );
        disjuncts.push(if is_sighting_slice(s) {
            format!("(2*t = {} and {dist})", 2 * s + 1)
        } else {
            format!("(t >= {s} and t <= {} and {dist})", s + 1)
        });
    }
    format!("exists t ({})", disjuncts.join(" or "))
}

/// Closed-form rational oracle for the alibi sentence: per slice, minimise
/// `q(u) = A·u² + B·u + C` over `u ∈ [0, 1]` (endpoints, plus the vertex
/// when it lies inside) — or evaluate at the ping for sighting slices. No
/// QE involved.
#[must_use]
pub fn alibi_oracle(traj: &Trajectories, i: usize, j: usize) -> bool {
    let r2 = Rat::from(ALIBI_R2);
    let nonpos = |v: &Rat| v.sign() != Sign::Pos;
    for s in 0..traj.pos[i].len() {
        let ((dpx, dpy), (dvx, dvy)) = relative_motion(traj, i, j, s);
        let a = &(&dvx * &dvx) + &(&dvy * &dvy);
        let half_b = &(&dpx * &dvx) + &(&dpy * &dvy);
        let b = &half_b + &half_b;
        let c = &(&(&dpx * &dpx) + &(&dpy * &dpy)) - &r2;
        let q_at = |u: &Rat| &(&(&(&a * u) + &b) * u) + &c;
        if is_sighting_slice(s) {
            if nonpos(&q_at(&Rat::from_ints(1, 2))) {
                return true;
            }
            continue;
        }
        if nonpos(&q_at(&Rat::zero())) || nonpos(&q_at(&Rat::one())) {
            return true;
        }
        if a.sign() == Sign::Pos {
            let vertex = &(-&b) / &(&a + &a);
            if vertex.sign() != Sign::Neg && vertex <= Rat::one() && nonpos(&q_at(&vertex)) {
                return true;
            }
        }
    }
    false
}

fn alibi_scan(seed: u64, sizes: &Sizes) -> Workload {
    let traj = gen_trajectories(seed, sizes.alibi_objects, sizes.alibi_slices);
    let mut script = Vec::new();
    for i in 0..sizes.alibi_objects {
        for j in (i + 1)..sizes.alibi_objects {
            // A sentence answers `(true)` or `false` (display of the full /
            // empty relation).
            let verdict = if alibi_oracle(&traj, i, j) {
                "(true)"
            } else {
                "false"
            };
            script.push(read(
                alibi_query_text(&traj, i, j),
                Oracle::Text(rows_text(true, verdict)),
            ));
        }
    }
    Workload {
        name: "alibi_scan",
        setup: Vec::new(),
        sessions: vec![script],
    }
}

// ---------------------------------------------------------------- conic

fn atom(terms: &[(i64, u32, u32)], op: RelOp) -> ConicAtom {
    ConicAtom {
        poly: Poly2(terms.iter().copied().filter(|t| t.0 != 0).collect()),
        op,
    }
}

/// `(x−a)² + (y−b)² − r ≤ 0`, expanded.
fn disc(a: i64, b: i64, r: i64) -> ConicAtom {
    atom(
        &[
            (1, 2, 0),
            (1, 0, 2),
            (-2 * a, 1, 0),
            (-2 * b, 0, 1),
            (a * a + b * b - r, 0, 0),
        ],
        RelOp::Le,
    )
}

fn nonzero(rng: &mut StdRng, bound: i64) -> i64 {
    let v = rng.gen_range(1..=bound);
    if rng.gen_bool(0.5) {
        v
    } else {
        -v
    }
}

/// One query from template `k ∈ 0..4`; every template forces the planner
/// to CAD (see README for why each does).
fn conic_template(k: usize, rng: &mut StdRng) -> Conic {
    match k {
        // Two quadratic atoms in the bound variable: off-centre disc ∩
        // axis-parallel ellipse.
        0 => Conic {
            forall: false,
            witness: vec![
                disc(nonzero(rng, 2), nonzero(rng, 2), rng.gen_range(5..=12)),
                atom(
                    &[
                        (rng.gen_range(1..=4), 2, 0),
                        (rng.gen_range(1..=4), 0, 2),
                        (-rng.gen_range(12..=30i64), 0, 0),
                    ],
                    RelOp::Le,
                ),
            ],
        },
        // Non-constant leading coefficient: x·y² + b·y − c = 0 ∧ y ≥ d ∧ x ≤ e.
        1 => Conic {
            forall: false,
            witness: vec![
                atom(
                    &[
                        (1, 1, 2),
                        (rng.gen_range(1..=4i64), 0, 1),
                        (-rng.gen_range(1..=6i64), 0, 0),
                    ],
                    RelOp::Eq,
                ),
                atom(&[(1, 0, 1), (-rng.gen_range(0..=2i64), 0, 0)], RelOp::Ge),
                atom(&[(1, 1, 0), (-rng.gen_range(3..=9i64), 0, 0)], RelOp::Le),
            ],
        },
        // Cubic in the bound variable: y³ + a·x·y + b·y + c·x + d = 0 ∧ y ≥ e ∧ y ≤ f.
        2 => {
            let lo = rng.gen_range(-2..=0i64);
            Conic {
                forall: false,
                witness: vec![
                    atom(
                        &[
                            (1, 0, 3),
                            (nonzero(rng, 2), 1, 1),
                            (-rng.gen_range(1..=4i64), 0, 1),
                            (nonzero(rng, 3), 1, 0),
                            (rng.gen_range(-3..=3i64), 0, 0),
                        ],
                        RelOp::Eq,
                    ),
                    atom(&[(1, 0, 1), (-lo, 0, 0)], RelOp::Ge),
                    atom(
                        &[(1, 0, 1), (-(lo + rng.gen_range(2..=4i64)), 0, 0)],
                        RelOp::Le,
                    ),
                ],
            }
        }
        // Nonlinear ∀: forall y ((x−a)² + (y−b)² ≥ r or y ≤ m·x + k), i.e.
        // no point of the open disc lies above the line.
        _ => {
            let (a, b, r) = (nonzero(rng, 2), nonzero(rng, 2), rng.gen_range(3..=9i64));
            let mut inside = disc(a, b, r);
            inside.op = RelOp::Lt;
            Conic {
                forall: true,
                witness: vec![
                    inside,
                    atom(
                        &[
                            (1, 0, 1),
                            (-nonzero(rng, 3), 1, 0),
                            (-rng.gen_range(-3..=3i64), 0, 0),
                        ],
                        RelOp::Gt,
                    ),
                ],
            }
        }
    }
}

/// The seed of the fixed catalogues (conic queries, aggregate shapes). CAD
/// cost depends on the real-root structure of each query's projection
/// polynomials (3 to 55 ms within one template), region-scan cost on how
/// boxes overlap, so drawing the shapes themselves from `--seed` would make
/// `wall_s` measure the draw. The catalogues are fixed; `--seed` applies
/// cost-neutral variation to them (mirror images, shifts, order).
const CATALOGUE_SEED: u64 = 0x1996_0603;

impl Conic {
    /// Mirror image under `x → −x` and/or `y → −y`: same cell structure,
    /// same coefficient sizes, different statement text and answer.
    #[must_use]
    pub fn reflected(&self, flip_x: bool, flip_y: bool) -> Conic {
        let flip = |p: &Poly2| {
            Poly2(
                p.0.iter()
                    .map(|&(c, i, j)| {
                        let odd = (flip_x && i % 2 == 1) != (flip_y && j % 2 == 1);
                        (if odd { -c } else { c }, i, j)
                    })
                    .collect(),
            )
        };
        Conic {
            forall: self.forall,
            witness: self
                .witness
                .iter()
                .map(|a| ConicAtom {
                    poly: flip(&a.poly),
                    op: a.op,
                })
                .collect(),
        }
    }
}

/// `per_template` queries of each of the four templates, template-major,
/// no two of them mirror images of each other.
fn conic_catalogue(per_template: usize) -> Vec<Conic> {
    let mut rng = StdRng::seed_from_u64(CATALOGUE_SEED);
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::with_capacity(4 * per_template);
    for k in 0..4 {
        for _ in 0..per_template {
            let q = loop {
                let q = conic_template(k, &mut rng);
                let images: Vec<String> =
                    [(false, false), (true, false), (false, true), (true, true)]
                        .iter()
                        .map(|&(fx, fy)| q.reflected(fx, fy).text())
                        .collect();
                if images.iter().all(|t| !seen.contains(t)) {
                    seen.extend(images);
                    break q;
                }
            };
            out.push(q);
        }
    }
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn conic_cad(mut rng: StdRng, sizes: &Sizes) -> Workload {
    // Distinct queries (the catalogue holds no two mirror images), so every
    // statement is the cache's first sight of its polynomials.
    let mut queries: Vec<Conic> = conic_catalogue(sizes.conic_per_template)
        .iter()
        .map(|q| q.reflected(rng.gen_bool(0.5), rng.gen_bool(0.5)))
        .collect();
    shuffle(&mut queries, &mut rng);
    let script = queries
        .into_iter()
        .map(|q| read(q.text(), Oracle::Conic(q)))
        .collect();
    Workload {
        name: "conic_cad",
        setup: Vec::new(),
        sessions: vec![script],
    }
}

// ---------------------------------------------------------------- tc_update

fn point(coords: &[i64]) -> Vec<Rat> {
    coords.iter().map(|&c| Rat::from(c)).collect()
}

/// All pairs `(a, b)` with a nonempty path `a → b` (plain BFS).
fn reachability(edges: &BTreeSet<(i64, i64)>) -> BTreeSet<Vec<Rat>> {
    let mut succ: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &(a, b) in edges {
        succ.entry(a).or_default().push(b);
    }
    let mut out = BTreeSet::new();
    for &start in succ.keys() {
        let mut seen: BTreeSet<i64> = BTreeSet::new();
        let mut queue: Vec<i64> = succ[&start].clone();
        while let Some(n) = queue.pop() {
            if seen.insert(n) {
                queue.extend(succ.get(&n).into_iter().flatten());
            }
        }
        out.extend(seen.into_iter().map(|n| point(&[start, n])));
    }
    out
}

fn values_text(rows: &[(i64, i64)]) -> String {
    let parts: Vec<String> = rows.iter().map(|(a, b)| format!("({a}, {b})")).collect();
    parts.join(", ")
}

fn tc_update(mut rng: StdRng, sizes: &Sizes) -> Workload {
    // A chain over seeded labels: the structure (and so the fixpoint's
    // work) is fixed, the numbers are not.
    let total = sizes.tc_chain + sizes.tc_rounds;
    let mut labels = vec![rng.gen_range(0..=3i64)];
    for _ in 0..total {
        let last = labels[labels.len() - 1];
        labels.push(last + rng.gen_range(1..=3i64));
    }
    let chain: Vec<(i64, i64)> = labels.windows(2).map(|w| (w[0], w[1])).collect();
    let (initial, later) = chain.split_at(sizes.tc_chain);
    // Load order is seeded too.
    let mut load: Vec<(i64, i64)> = initial.to_vec();
    shuffle(&mut load, &mut rng);
    let setup = vec![
        stmt(
            "CREATE RELATION E(x, y);".to_owned(),
            Oracle::Text("created E/2".to_owned()),
        ),
        stmt(
            format!("INSERT INTO E VALUES {};", values_text(&load)),
            Oracle::Text(format!("updated E: +{} -0 (refreshed 0)", load.len())),
        ),
    ];
    let mut edges: BTreeSet<(i64, i64)> = initial.iter().copied().collect();
    // The universe of the membership checks: every ordered pair of labels.
    let pairs = || {
        labels
            .iter()
            .flat_map(|&a| labels.iter().map(move |&b| point(&[a, b])))
    };
    let closure = |edges: &BTreeSet<(i64, i64)>| {
        let reach = reachability(edges);
        Oracle::Relation {
            name: "T".to_owned(),
            members: Members::split(pairs(), |p| reach.contains(p)),
        }
    };
    let mut script = vec![stmt(
        "DATALOG { T(x, y) :- E(x, y). T(x, y) :- T(x, z), E(z, y). };".to_owned(),
        closure(&edges),
    )];
    let source = labels[0];
    let far = labels[sizes.tc_chain];
    let far_query = |edges: &BTreeSet<(i64, i64)>| {
        let reach = reachability(edges);
        read(
            format!("T(x, y) and x = {source} and y >= {far}"),
            Oracle::Answer(Members::split(pairs(), |p| {
                p[0] == Rat::from(source) && p[1] >= Rat::from(far) && reach.contains(p)
            })),
        )
    };
    for (round, &(a, b)) in later.iter().enumerate() {
        edges.insert((a, b));
        // Every 4th insert is fully checked against BFS; the rest are
        // covered by the SELECT that follows.
        let oracle = if round % 4 == 0 {
            closure(&edges)
        } else {
            Oracle::Text("updated E: +1 -0 (refreshed 1)".to_owned())
        };
        script.push(stmt(format!("INSERT INTO E VALUES ({a}, {b});"), oracle));
        script.push(far_query(&edges));
    }
    // One retraction in the middle of the chain: the destructive path
    // (memo-cache invalidation, full recompute from the base heads).
    let cut = chain[sizes.tc_chain / 2];
    edges.remove(&cut);
    script.push(stmt(
        format!("DELETE FROM E VALUES ({}, {});", cut.0, cut.1),
        closure(&edges),
    ));
    script.push(far_query(&edges));
    Workload {
        name: "tc_update",
        setup,
        sessions: vec![script],
    }
}

// ---------------------------------------------------------------- calcf_agg

/// An axis-parallel box `(x0, x1, y0, y1)` with integer corners.
type IntBox = (i64, i64, i64, i64);

/// Exact area of a union of integer boxes (coordinate compression).
fn union_area(boxes: &[IntBox]) -> i64 {
    let mut xs: Vec<i64> = boxes.iter().flat_map(|b| [b.0, b.1]).collect();
    let mut ys: Vec<i64> = boxes.iter().flat_map(|b| [b.2, b.3]).collect();
    xs.sort_unstable();
    xs.dedup();
    ys.sort_unstable();
    ys.dedup();
    let mut area = 0;
    for wx in xs.windows(2) {
        for wy in ys.windows(2) {
            if boxes
                .iter()
                .any(|b| b.0 <= wx[0] && wx[1] <= b.1 && b.2 <= wy[0] && wy[1] <= b.3)
            {
                area += (wx[1] - wx[0]) * (wy[1] - wy[0]);
            }
        }
    }
    area
}

fn agg(text: String, expect: Expected) -> Stmt {
    read(format!("z = {text}"), Oracle::Value(expect))
}

/// Which mirror image of a catalogue shape the seed picks, per axis.
/// Areas, lengths and the engine's work are the same in every image (the
/// `fintv` filter counters agree within 0.1 %; integer shifts moved them by
/// 7 %); coordinates, statement text and answers are not.
#[derive(Debug, Clone, Copy)]
struct Mirror {
    x: bool,
    y: bool,
}

impl Mirror {
    fn draw(rng: &mut StdRng) -> Mirror {
        Mirror {
            x: rng.gen_bool(0.5),
            y: rng.gen_bool(0.5),
        }
    }

    /// Image of the interval `[lo, hi]` on the x axis.
    fn x(&self, lo: i64, hi: i64) -> (i64, i64) {
        if self.x {
            (-hi, -lo)
        } else {
            (lo, hi)
        }
    }

    fn boxed(&self, b: IntBox) -> IntBox {
        let (x0, x1) = self.x(b.0, b.1);
        let (y0, y1) = if self.y { (-b.3, -b.2) } else { (b.2, b.3) };
        (x0, x1, y0, y1)
    }
}

fn calcf_agg(mut rng: StdRng, sizes: &Sizes) -> Workload {
    // Every shape comes from the fixed catalogue stream `cat` and the seed
    // only mirrors it (region-scan and quadrature cost follow the shape: how
    // the boxes overlap, which a-base cell a curve crosses).
    let mut cat = StdRng::seed_from_u64(CATALOGUE_SEED);
    // Stored boxes: three relations of three overlapping integer boxes.
    let mut setup = Vec::new();
    let mut stored: Vec<(String, Mirror, Vec<IntBox>)> = Vec::new();
    for r in 0..3 {
        let name = format!("B{r}");
        let mirror = Mirror::draw(&mut rng);
        setup.push(stmt(
            format!("CREATE RELATION {name}(x, y);"),
            Oracle::Text(format!("created {name}/2")),
        ));
        let mut boxes = Vec::new();
        for _ in 0..3 {
            let (x0, y0) = (cat.gen_range(-6..=2i64), cat.gen_range(-6..=2i64));
            let b = mirror.boxed((
                x0,
                x0 + cat.gen_range(2..=6i64),
                y0,
                y0 + cat.gen_range(2..=6i64),
            ));
            setup.push(stmt(
                format!(
                    "INSERT INTO {name} CONSTRAINT x >= {} and x <= {} and y >= {} and y <= {};",
                    b.0, b.1, b.2, b.3
                ),
                Oracle::Transcript,
            ));
            boxes.push(b);
        }
        stored.push((name, mirror, boxes));
    }
    let line = Mirror::draw(&mut rng);
    let exact = |v: i64| Expected::Exact(Rat::from(v));
    let mut script = Vec::new();
    // Cheap exact block: region scans over stored boxes and intervals.
    for _ in 0..sizes.agg_cheap_blocks {
        for (name, mirror, boxes) in &stored {
            let (lo, hi) = mirror.x(cat.gen_range(-7..=-3i64), cat.gen_range(3..=9i64));
            let clipped: Vec<_> = boxes
                .iter()
                .map(|b| (b.0.max(lo), b.1.min(hi), b.2, b.3))
                .filter(|b| b.0 < b.1)
                .collect();
            script.push(agg(
                format!("SURFACE[x, y]{{ {name}(x, y) and x >= {lo} and x <= {hi} }}"),
                exact(union_area(&clipped)),
            ));
            script.push(agg(
                format!("MAX[x]{{ exists y ({name}(x, y)) }}"),
                exact(boxes.iter().map(|b| b.1).max().unwrap_or(0)),
            ));
            script.push(agg(
                format!("MIN[y]{{ exists x ({name}(x, y)) }}"),
                exact(boxes.iter().map(|b| b.2).min().unwrap_or(0)),
            ));
        }
        let (a, w) = (cat.gen_range(-4..=4i64), cat.gen_range(1..=9i64));
        let (lo, hi) = line.x(a, a + w);
        script.push(agg(
            format!("AVG[x]{{ x >= {lo} and x <= {hi} }}"),
            Expected::Exact(Rat::from_ints(lo + hi, 2)),
        ));
        let (lo2, hi2) = line.x(a + w + 2, a + w + 5);
        script.push(agg(
            format!("LENGTH[x]{{ (x >= {lo} and x <= {hi}) or (x >= {lo2} and x <= {hi2}) }}"),
            exact(w + 3),
        ));
        let (p, q, r) = (
            cat.gen_range(1..=4i64),
            cat.gen_range(1..=4i64),
            cat.gen_range(1..=4i64),
        );
        script.push(agg(
            format!(
                "VOLUME[x, y, w]{{ x >= 0 and x <= {p} and y >= 0 and y <= {q} and w >= 0 and w <= {r} }}"
            ),
            Expected::Approx {
                value: (p * q * r) as f64,
                tol: 1e-6,
            },
        ));
    }
    // Exact curved regions: between a parabola and a horizontal line, the
    // parabola opening up or down.
    for _ in 0..sizes.agg_cheap_blocks {
        let k = cat.gen_range(1..=5i64);
        let region = if line.y {
            format!("y + x^2 <= 0 and y >= {}", -k * k)
        } else {
            format!("y >= x^2 and y <= {}", k * k)
        };
        script.push(agg(
            format!("SURFACE[x, y]{{ {region} }}"),
            Expected::Exact(Rat::from_ints(4 * k * k * k, 3)),
        ));
    }
    // Analytic block: a-base approximation (32 unit cells on [−16, 16],
    // order-6 Chebyshev pieces) plus the many-disjunct QE it induces, then
    // quadrature. `exp` has no mirror image, so those statements are the
    // same at every seed; `sin` and `cos` ones are mirrored. Tolerances are
    // ~100× the errors measured at the engine's defaults (README).
    for _ in 0..sizes.agg_analytic {
        let a = cat.gen_range(-3..=1i64);
        script.push(agg(
            format!(
                "SURFACE[x, y]{{ x >= {a} and x <= {} and y >= 0 and y <= exp(x) }}",
                a + 1
            ),
            Expected::Approx {
                value: ((a + 1) as f64).exp() - (a as f64).exp(),
                tol: 1e-4,
            },
        ));
    }
    if sizes.agg_analytic > 0 {
        use std::f64::consts::PI;
        let (sin_cond, lo, hi) = if rng.gen_bool(0.5) {
            ("sin(x) >= 1/2", 0, 1)
        } else {
            ("sin(x) <= -1/2", -1, 0)
        };
        script.push(agg(
            format!("LENGTH[x]{{ {sin_cond} and x >= {lo} and x <= {hi} }}"),
            Expected::Approx {
                value: 1.0 - PI / 6.0,
                tol: 1e-4,
            },
        ));
        let c = cat.gen_range(2..=6i64);
        script.push(agg(
            format!("LENGTH[x]{{ exp(x) <= {c} and x >= 0 and x <= 3 }}"),
            Expected::Approx {
                value: (c as f64).ln(),
                tol: 1e-4,
            },
        ));
        let (lo, hi) = if rng.gen_bool(0.5) { (0, 3) } else { (-3, 0) };
        script.push(agg(
            format!("LENGTH[x]{{ cos(x) >= 0 and x >= {lo} and x <= {hi} }}"),
            Expected::Approx {
                value: PI / 2.0,
                tol: 1e-4,
            },
        ));
    }
    Workload {
        name: "calcf_agg",
        setup,
        sessions: vec![script],
    }
}

// ---------------------------------------------------------------- serve_mixed

/// Number of conic queries in the shared read pool.
pub const MIXED_POOL: usize = 8;

fn serve_mixed(mut rng: StdRng, sizes: &Sizes) -> Workload {
    // Shared relations: each pool query's atoms become stored relations
    // `K{q}_{a}(x, y)`, loaded once and read by both sessions.
    let mut setup = Vec::new();
    let mut pool: Vec<(String, Conic)> = Vec::new();
    // Two catalogue queries per template, mirrored by the seed.
    let catalogue = conic_catalogue(MIXED_POOL / 4);
    for (q, base) in catalogue.iter().enumerate() {
        let conic = base.reflected(rng.gen_bool(0.5), rng.gen_bool(0.5));
        let mut parts = Vec::new();
        for (a, at) in conic.witness.iter().enumerate() {
            let name = format!("K{q}_{a}");
            // For a ∀ query the stored relation is the matrix literal ¬W_a.
            setup.push(stmt(
                format!(
                    "CREATE RELATION {name}(x, y) AS {};",
                    at.render(conic.forall)
                ),
                Oracle::Text(format!("created {name}/2")),
            ));
            parts.push(format!("{name}(x, y)"));
        }
        pool.push((conic.quantify(&parts), conic));
    }
    let sessions = (0..2)
        .map(|i| {
            let w = format!("W{i}");
            let mut extent: BTreeSet<i64> = BTreeSet::new();
            // Universe of the membership checks: every value a script can
            // ever insert, and a margin.
            let horizon = 14 + 3 * sizes.mixed_rounds as i64;
            let points = |extent: &BTreeSet<i64>, from: i64| {
                Members::split((-1..=horizon).map(|v| point(&[v])), |p| {
                    p[0] >= Rat::from(from) && extent.iter().any(|&v| Rat::from(v) == p[0])
                })
            };
            let first = [rng.gen_range(0..=4i64), rng.gen_range(5..=9i64)];
            extent.extend(first);
            let mut script = vec![
                stmt(
                    format!("CREATE RELATION {w}(x);"),
                    Oracle::Text(format!("created {w}/1")),
                ),
                stmt(
                    format!("INSERT INTO {w} VALUES ({}), ({});", first[0], first[1]),
                    Oracle::Text(format!("updated {w}: +2 -0 (refreshed 0)")),
                ),
                // A view and a Datalog head hang off the private relation,
                // so every later write propagates to both.
                stmt(
                    format!("CREATE RELATION V{i}(x) AS {w}(x) and x >= 3;"),
                    Oracle::Text(format!("created V{i}/1")),
                ),
                stmt(
                    format!("DATALOG {{ U{i}(x) :- {w}(x), x >= 5. }};"),
                    Oracle::Relation {
                        name: format!("U{i}"),
                        members: points(&extent, 5),
                    },
                ),
            ];
            // Every pool query equally often, in seeded order: the mix of
            // cheap and dear queries (1 to 50 ms) must not depend on the seed.
            let mut picks: Vec<usize> = (0..2 * sizes.mixed_rounds)
                .map(|r| r % MIXED_POOL)
                .collect();
            shuffle(&mut picks, &mut rng);
            let pool_read = |pick: usize| {
                let (text, conic) = &pool[pick];
                read(text.clone(), Oracle::Conic(conic.clone()))
            };
            let mut next = 10;
            for round in 0..sizes.mixed_rounds {
                script.push(pool_read(picks[2 * round]));
                // One write per round: mostly inserts, every 5th a delete
                // (the destructive path: full recompute + cache invalidation).
                if round % 5 == 4 {
                    let victim = *extent.iter().next_back().unwrap_or(&0);
                    extent.remove(&victim);
                    script.push(stmt(
                        format!("DELETE FROM {w} VALUES ({victim});"),
                        Oracle::Relation {
                            name: format!("U{i}"),
                            members: points(&extent, 5),
                        },
                    ));
                } else {
                    next += rng.gen_range(1..=3i64);
                    extent.insert(next);
                    script.push(stmt(
                        format!("INSERT INTO {w} VALUES ({next});"),
                        Oracle::Text(format!("updated {w}: +1 -0 (refreshed 2)")),
                    ));
                }
                // A linear read on the private relation, its view or its
                // Datalog head, then a second pool read. Two thirds of the
                // reads are CAD ones on purpose: the median read is then a
                // millisecond-scale statement. A sub-millisecond linear read
                // is mostly two thread hand-offs through the admission
                // queue, and its floor moved 20 % between two sets of runs.
                let from = rng.gen_range(0..=next);
                script.push(match round % 3 {
                    0 => read(
                        format!("{w}(x) and x >= {from}"),
                        Oracle::Answer(points(&extent, from)),
                    ),
                    1 => read(
                        format!("V{i}(x) and x >= {from}"),
                        Oracle::Answer(points(&extent, from.max(3))),
                    ),
                    _ => read(
                        format!("U{i}(x) and x >= {from}"),
                        Oracle::Answer(points(&extent, from.max(5))),
                    ),
                });
                script.push(pool_read(picks[2 * round + 1]));
            }
            script
        })
        .collect();
    Workload {
        name: "serve_mixed",
        setup,
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_render_and_eval() {
        let p = Poly2(vec![(1, 2, 0), (-2, 1, 1), (3, 0, 0)]);
        assert_eq!(p.render(), "x^2 - 2*x*y + 3");
        assert_eq!(p.eval(&Rat::from(2), &Rat::from_ints(1, 2)), Rat::from(5));
        assert_eq!(Poly2(vec![(-1, 0, 1)]).render(), "-y");
    }

    #[test]
    fn roots_of_low_degree() {
        let r = real_roots(&[-6.0, 11.0, -6.0, 1.0]); // (y-1)(y-2)(y-3)
        assert_eq!(r.len(), 3);
        for (got, want) in r.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert!(real_roots(&[1.0, 0.0, 1.0]).is_empty());
        assert_eq!(real_roots(&[-4.0, 0.0, 1.0]), vec![-2.0, 2.0]);
    }

    #[test]
    fn numeric_witness_decides_clear_cases() {
        // exists y (x^2 + y^2 <= 4 and y >= 1): x in [-sqrt 3, sqrt 3].
        let q = Conic {
            forall: false,
            witness: vec![disc(0, 0, 4), atom(&[(1, 0, 1), (-1, 0, 0)], RelOp::Ge)],
        };
        assert_eq!(q.exists_y_f64(0.0), Some(true));
        assert_eq!(q.exists_y_f64(1.7), Some(true));
        assert_eq!(q.exists_y_f64(1.8), Some(false));
        assert_eq!(q.exists_y_f64(5.0), Some(false));
    }

    #[test]
    fn union_area_counts_overlap_once() {
        assert_eq!(union_area(&[(0, 3, 1, 5), (2, 6, 0, 2)]), 19);
    }

    #[test]
    fn bfs_closure_of_a_chain() {
        let edges: BTreeSet<(i64, i64)> = [(0, 1), (1, 2), (2, 3)].into_iter().collect();
        assert_eq!(reachability(&edges).len(), 6);
    }
}
