//! Resultants and discriminants: a modular CRT kernel with a fraction-free
//! (Bareiss) fallback.
//!
//! These are the workhorses of the CAD projection operator `PROJ` (Appendix
//! I: "Polynomials of PROJ(P_i) are formed by addition, subtraction, and
//! multiplication of the coefficients … with the technique of
//! subresultants"). Two strategies compute the *same* mathematical object
//! — the determinant of the Sylvester matrix — so their outputs are
//! byte-identical, and a per-call dispatcher picks the cheaper one
//! (DESIGN.md §11):
//!
//! * **PRS** ([`Strategy::Prs`]) — Bareiss fraction-free elimination on the
//!   Sylvester matrix over `MPoly`. Fully general (any number of
//!   variables); every intermediate is polynomial, divisions exact. This is
//!   the seed algorithm and the guaranteed fallback.
//! * **Modular CRT** ([`Strategy::Crt`]) — for inputs that are (at most)
//!   bivariate `{var, y}`: content-extract to primitive integer
//!   polynomials, map into `Z_p` for word-size primes ([`cdb_num::modp`]),
//!   specialize `y` at enough points (Brown's bound `deg_y(res) ≤
//!   deg_y(p)·deg_x(q) + deg_y(q)·deg_x(p)`), take univariate resultants by
//!   the Euclidean product formula and Newton-interpolate, all in `u64`
//!   arithmetic, then Chinese-remainder the integer coefficients back
//!   against a Hadamard-style bound. Bad primes (leading coefficient
//!   vanishing mod `p`) are detected and skipped; exhausting the prime
//!   table falls back to PRS.
//!
//! Strategy decisions are counted in process-global counters
//! ([`strategy_counters`]).

use crate::mpoly::MPoly;
use crate::upoly::UPoly;
use cdb_num::modp::{Crt, ModP, PRIMES, PRIME_BITS};
use cdb_num::{Int, Rat};
use std::sync::atomic::{AtomicU64, Ordering};

// ───────────────────────── dispatcher instrumentation ─────────────────────

/// Calls answered by the Bareiss PRS path (including fallbacks).
static STRAT_PRS: AtomicU64 = AtomicU64::new(0);
/// Calls answered by the modular CRT kernel.
static STRAT_CRT: AtomicU64 = AtomicU64::new(0);
/// Fast-path attempts that had to fall back to PRS (bad primes exhausted,
/// coefficient bound beyond the prime table, …).
static STRAT_FALLBACK: AtomicU64 = AtomicU64::new(0);

/// Process-global dispatcher counters `(prs, 0, crt, fallbacks)`.
///
/// `prs` counts every call answered by Bareiss (dispatch choice *or*
/// fallback); `fallbacks` additionally counts how many of those began on
/// the CRT path and could not finish. Slot 1 counted the retired rational
/// evaluation–interpolation kernel and is always 0; the tuple keeps its
/// shape because the frozen `stmtbench/src/trace.rs` destructures it.
#[must_use]
pub fn strategy_counters() -> (u64, u64, u64, u64) {
    (
        STRAT_PRS.load(Ordering::SeqCst),
        // frozen harness: always-zero slot 1, destructured by `stmtbench`.
        0,
        STRAT_CRT.load(Ordering::SeqCst),
        STRAT_FALLBACK.load(Ordering::SeqCst),
    )
}

/// One of the two resultant kernels (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Bareiss fraction-free PRS over `MPoly` (seed algorithm, any arity).
    Prs,
    /// Modular CRT over word-size primes (bivariate, integer content).
    Crt,
}

// ───────────────────────────── public entry points ─────────────────────────

/// Resultant of `p` and `q` with respect to variable `var`.
///
/// Conventions: if either polynomial is zero, the resultant is zero. If both
/// have degree 0 in `var`, the resultant is 1 (empty Sylvester matrix).
#[must_use]
pub fn resultant(p: &MPoly, q: &MPoly, var: usize) -> MPoly {
    assert_eq!(p.nvars(), q.nvars());
    let nvars = p.nvars();
    if p.is_zero() || q.is_zero() {
        return MPoly::zero(nvars);
    }
    let pc = p.as_upoly_in(var);
    let qc = q.as_upoly_in(var);
    let m = pc.len() - 1; // deg p
    let n = qc.len() - 1; // deg q
    if m == 0 && n == 0 {
        return MPoly::constant(Rat::one(), nvars);
    }
    // res(c, q) = c^deg(q) — binary exponentiation via MPoly::pow.
    if let [c] = pc.as_slice() {
        return c.pow(n as u32);
    }
    if let [c] = qc.as_slice() {
        return c.pow(m as u32);
    }
    // Dispatch: the analysis is cheap (degree bookkeeping only).
    if let Some(shape) = Bivar::analyze(p, q, var) {
        if shape.choose() == Strategy::Crt {
            if let Some(r) = crt_resultant(p, q, var, &shape) {
                STRAT_CRT.fetch_add(1, Ordering::SeqCst);
                return r;
            }
            // Prime table exhausted or non-integer degenerate:
            // guaranteed fallback to the seed path.
            STRAT_FALLBACK.fetch_add(1, Ordering::SeqCst);
        }
    }
    STRAT_PRS.fetch_add(1, Ordering::SeqCst);
    prs_resultant(&pc, &qc, nvars)
}

/// Run one specific kernel, bypassing the dispatcher (differential tests
/// compare the strategies with this).
///
/// Returns `None` when the strategy does not apply to the input shape (the
/// CRT kernel on a ≥3-variable resultant, or when the coefficient bound
/// exceeds the prime table). [`Strategy::Prs`] always
/// succeeds. Degenerate base cases (zero/constant arguments) are answered
/// directly, as in [`resultant`], whatever the requested strategy.
#[must_use]
pub fn resultant_with_strategy(
    p: &MPoly,
    q: &MPoly,
    var: usize,
    strategy: Strategy,
) -> Option<MPoly> {
    assert_eq!(p.nvars(), q.nvars());
    let nvars = p.nvars();
    if p.is_zero() || q.is_zero() {
        return Some(MPoly::zero(nvars));
    }
    let pc = p.as_upoly_in(var);
    let qc = q.as_upoly_in(var);
    let m = pc.len() - 1;
    let n = qc.len() - 1;
    if m == 0 && n == 0 {
        return Some(MPoly::constant(Rat::one(), nvars));
    }
    if let [c] = pc.as_slice() {
        return Some(c.pow(n as u32));
    }
    if let [c] = qc.as_slice() {
        return Some(c.pow(m as u32));
    }
    match strategy {
        Strategy::Prs => Some(prs_resultant(&pc, &qc, nvars)),
        Strategy::Crt => {
            let shape = Bivar::analyze(p, q, var)?;
            crt_resultant(p, q, var, &shape)
        }
    }
}

/// Discriminant of `p` with respect to `var`:
/// `disc = (−1)^{d(d−1)/2} · res(p, ∂p/∂var) / lc(p)`.
#[must_use]
pub fn discriminant(p: &MPoly, var: usize) -> MPoly {
    let d = p.degree_in(var);
    assert!(d >= 1, "discriminant needs degree >= 1 in the variable");
    let dp = p.derivative(var);
    let res = resultant(p, &dp, var);
    // cdb-lint: allow(panic) — `d >= 1` is asserted above, so the coefficient
    // list has at least two entries and `pop` cannot fail.
    let lc = p.as_upoly_in(var).pop().expect("nonzero degree");
    let q = res.div_exact(&lc);
    if (u64::from(d) * (u64::from(d) - 1) / 2) % 2 == 1 {
        -&q
    } else {
        q
    }
}

/// The `j`-th subresultant `S_j` of `p` and `q` in `var`, for `deg p ≥ deg
/// q ≥ j` and `deg p > j`: `Σ_{i ≤ j} det(M_i)·var^i`, where the rows of
/// the Sylvester submatrix are `var^{deg q − j − 1}·p, …, p, var^{deg p − j
/// − 1}·q, …, q` and `M_i` keeps its first `deg p + deg q − 2j − 1` columns
/// and the column of `var^i`. `S_0` is the resultant, the principal
/// coefficient `psc_j` is `S_j`'s coefficient of `var^j`, and `S_{deg q} =
/// lc(q)^{deg p − deg q − 1}·q`.
#[must_use]
pub fn subresultant(p: &MPoly, q: &MPoly, var: usize, j: usize) -> MPoly {
    let pc = p.as_upoly_in(var);
    let qc = q.as_upoly_in(var);
    let (m, n) = (pc.len() - 1, qc.len() - 1);
    assert!(
        j <= n && n <= m && j < m,
        "subresultant needs deg p >= deg q >= j and deg p > j"
    );
    let nvars = p.nvars();
    let (rows, cols) = (m + n - 2 * j, m + n - j);
    let mut sylvester = vec![vec![MPoly::zero(nvars); cols]; rows];
    let shifted = (0..n - j)
        .map(|r| (r, &pc))
        .chain((0..m - j).map(|r| (r, &qc)));
    for (row, (shift, coeffs)) in sylvester.iter_mut().zip(shifted) {
        for (entry, c) in row.iter_mut().skip(shift).zip(coeffs.iter().rev()) {
            *entry = c.clone();
        }
    }
    let mut s = MPoly::zero(nvars);
    for i in 0..=j {
        let minor = sylvester
            .iter()
            .map(|row| {
                let mut kept = row[..rows - 1].to_vec();
                kept.push(row[cols - 1 - i].clone());
                kept
            })
            .collect();
        let term = &bareiss_determinant(minor) * &MPoly::var(var, nvars).pow(i as u32);
        s = &s + &term;
    }
    s
}

// ──────────────────────────── PRS (seed) kernel ────────────────────────────

/// Seed path: build the Sylvester matrix from the coefficient lists and run
/// Bareiss. `pc`/`qc` are ascending coefficient lists in the eliminated
/// variable, both of degree ≥ 1.
fn prs_resultant(pc: &[MPoly], qc: &[MPoly], nvars: usize) -> MPoly {
    let m = pc.len() - 1;
    let n = qc.len() - 1;
    // Sylvester matrix: n rows of p's coefficients, m rows of q's, each row
    // listing coefficients from the highest power.
    let size = m + n;
    let mut mat = vec![vec![MPoly::zero(nvars); size]; size];
    for (row, mrow) in mat.iter_mut().enumerate().take(n) {
        for (j, c) in pc.iter().rev().enumerate() {
            mrow[row + j] = c.clone();
        }
    }
    for row in 0..m {
        for (j, c) in qc.iter().rev().enumerate() {
            mat[n + row][row + j] = c.clone();
        }
    }
    bareiss_determinant(mat)
}

/// Determinant via Bareiss fraction-free elimination. Consumes the matrix.
/// Entries stay polynomial throughout; all divisions are exact.
#[must_use]
pub fn bareiss_determinant(mut m: Vec<Vec<MPoly>>) -> MPoly {
    let n = m.len();
    assert!(
        n > 0 && m.iter().all(|r| r.len() == n),
        "square matrix required"
    );
    let nvars = m[0][0].nvars(); // cdb-lint: allow(panic) — square + nonempty asserted above
    if n == 1 {
        return m[0][0].clone(); // cdb-lint: allow(panic) — square + nonempty asserted above
    }
    let mut sign_flip = false;
    let mut prev = MPoly::constant(Rat::one(), nvars);
    for k in 0..n - 1 {
        if m[k][k].is_zero() {
            // Pivot search.
            let Some(swap) = (k + 1..n).find(|&r| !m[r][k].is_zero()) else {
                return MPoly::zero(nvars);
            };
            m.swap(k, swap);
            sign_flip = !sign_flip;
        }
        for i in k + 1..n {
            for j in k + 1..n {
                let num = &(&m[k][k] * &m[i][j]) - &(&m[i][k] * &m[k][j]);
                m[i][j] = num.div_exact(&prev);
            }
            m[i][k] = MPoly::zero(nvars);
        }
        prev = m[k][k].clone();
    }
    let det = m[n - 1][n - 1].clone();
    if sign_flip {
        -&det
    } else {
        det
    }
}

// ─────────────────────────── shape analysis / dispatch ─────────────────────

/// Shape of a resultant call the CRT kernel can take on: at most one
/// auxiliary variable besides the eliminated one.
struct Bivar {
    /// The surviving variable (`None`: both inputs univariate in `var`).
    yvar: Option<usize>,
    /// `deg_var(p)` — at least 1 when analysis succeeds.
    m: usize,
    /// `deg_var(q)` — at least 1 when analysis succeeds.
    n: usize,
    /// Brown's bound on `deg_y(res)`: `dy(p)·n + dy(q)·m`.
    bound_deg: usize,
}

impl Bivar {
    /// `Some` iff the call is at most bivariate and both degrees in `var`
    /// are ≥ 1 (base cases were peeled off by the caller).
    fn analyze(p: &MPoly, q: &MPoly, var: usize) -> Option<Bivar> {
        let mut yvar = None;
        for i in 0..p.nvars() {
            if i == var || !(p.uses_var(i) || q.uses_var(i)) {
                continue;
            }
            if yvar.is_some() {
                return None; // two or more auxiliary variables → PRS
            }
            yvar = Some(i);
        }
        let m = p.degree_in(var) as usize;
        let n = q.degree_in(var) as usize;
        debug_assert!(m >= 1 && n >= 1);
        let (dyp, dyq) = match yvar {
            Some(y) => (p.degree_in(y) as usize, q.degree_in(y) as usize),
            None => (0, 0),
        };
        Some(Bivar {
            yvar,
            m,
            n,
            bound_deg: dyp * n + dyq * m,
        })
    }

    /// Dispatch heuristic (DESIGN.md §11), tuned against forced-strategy
    /// probes: tiny Sylvester matrices stay on PRS (a 2×2 determinant beats
    /// any kernel's setup cost); every other shape with at most one
    /// surviving variable goes modular, where CRT measured fastest across
    /// conic through degree-4 and wide-coefficient workloads. The CRT
    /// kernel itself reports inapplicability (bound beyond the prime
    /// table), upon which the caller falls back to PRS.
    fn choose(&self) -> Strategy {
        if self.m + self.n <= 2 {
            Strategy::Prs // 2×2 determinant: nothing to save
        } else {
            Strategy::Crt
        }
    }
}

// ─────────────────────── modular CRT over word primes ──────────────────────

/// Trim trailing zeros of a dense `Z_p` coefficient vector.
fn trim_modp(v: &mut Vec<u64>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

/// Pseudo-remainder of `a` by `b` in `Z_p[x]` (dense ascending
/// coefficients, `b` trimmed and nonconstant): `lc(b)^{deg a − deg b + 1} ·
/// a mod b`, computed without any inversion. Result is trimmed.
fn prem_modp(fp: ModP, a: &[u64], b: &[u64]) -> Vec<u64> {
    let db = b.len() - 1;
    let lb = b[db];
    let mut r = a.to_vec();
    for k in (db..r.len()).rev() {
        // r ← lb · r − r[k] · x^{k−db} · b: multiply unconditionally (even
        // for a zero pivot) so the pseudo-remainder is exactly
        // lb^{da−db+1} · (a mod b) with a deterministic exponent.
        let c = r[k];
        for rc in r.iter_mut().take(k) {
            *rc = fp.mul(*rc, lb);
        }
        for (j, &bc) in b.iter().enumerate().take(db) {
            r[k - db + j] = fp.sub(r[k - db + j], fp.mul(c, bc));
        }
        r[k] = 0; // lb·r[k] − r[k]·lc(b) cancels exactly
    }
    r.truncate(db);
    trim_modp(&mut r);
    r
}

/// Univariate resultant in `Z_p[x]` as an uninverted fraction
/// `(num, den)` with `den ≢ 0`: the Euclidean product formula
/// `res(A, B) = (−1)^{deg A · deg B} · lc(B)^{deg A − deg R} · res(B, R)`
/// with `R = A rem B`, terminating at `res(A, c) = c^{deg A}`, run on
/// *pseudo*-remainders so the whole chain costs zero inversions — each step `R = lc(b)^e · (a mod b)` contributes
/// `lc(b)^{da − dr}` to the numerator and `lc(b)^{e·db}` to the denominator
/// (from `res(b, c·r) = c^{deg b} · res(b, r)`). Callers batch-invert the
/// denominators across evaluation points (Montgomery's trick), one Fermat
/// exponentiation per batch.
fn upoly_res_modp_frac(fp: ModP, mut a: Vec<u64>, mut b: Vec<u64>) -> (u64, u64) {
    trim_modp(&mut a);
    trim_modp(&mut b);
    if a.is_empty() || b.is_empty() {
        return (0, 1);
    }
    let mut num = 1u64;
    let mut den = 1u64;
    let mut negate = false;
    loop {
        let da = a.len() - 1;
        let db = b.len() - 1;
        if db == 0 {
            // cdb-lint: allow(panic) — db == 0 means b has exactly one entry
            num = fp.mul(num, fp.pow(b[0], da as u64));
            return (if negate { fp.neg(num) } else { num }, den);
        }
        if da < db {
            if da * db % 2 == 1 {
                negate = !negate;
            }
            std::mem::swap(&mut a, &mut b);
            continue;
        }
        let r = prem_modp(fp, &a, &b);
        if r.is_empty() {
            return (0, 1);
        }
        if da * db % 2 == 1 {
            negate = !negate;
        }
        let lb = b[db];
        num = fp.mul(num, fp.pow(lb, (da - (r.len() - 1)) as u64));
        den = fp.mul(den, fp.pow(lb, ((da - db + 1) * db) as u64));
        a = b;
        b = r;
    }
}

/// Univariate resultant in `Z_p[x]`: the fraction form resolved with a
/// single inversion.
fn upoly_res_modp(fp: ModP, a: Vec<u64>, b: Vec<u64>) -> u64 {
    let (num, den) = upoly_res_modp_frac(fp, a, b);
    // den is a product of leading coefficients, never ≡ 0.
    fp.mul(num, fp.pow(den, fp.modulus() - 2))
}

/// Newton interpolation in `Z_p`: dense coefficients of the unique
/// polynomial of degree `< pts.len()` through `(pts[i], vals[i])`. All
/// divided-difference denominators are inverted in one batch (a single
/// Fermat exponentiation for the whole table).
fn interpolate_modp(fp: ModP, pts: &[u64], vals: &[u64]) -> Vec<u64> {
    let n = pts.len();
    debug_assert!(n >= 1 && vals.len() == n);
    // Denominators pts[i] − pts[i−j], in the exact order the divided-
    // difference loop consumes them. Points are distinct field elements,
    // so every difference is nonzero and the batch inverse is total.
    let mut denoms = Vec::with_capacity(n * (n - 1) / 2);
    for j in 1..n {
        for i in (j..n).rev() {
            denoms.push(fp.sub(pts[i], pts[i - j]));
        }
    }
    let invs = fp
        .batch_inv(&denoms)
        .expect("interpolation points are distinct"); // cdb-lint: allow(panic) — differences of distinct reduced points are nonzero, so the batch inverse is total
    let mut next_inv = invs.iter();
    let mut dd = vals.to_vec();
    for j in 1..n {
        for i in (j..n).rev() {
            // cdb-lint: allow(panic) — invs has exactly one entry per denominator pushed by the identical loop above
            let inv = *next_inv.next().expect("one inverse per denominator");
            dd[i] = fp.mul(fp.sub(dd[i], dd[i - 1]), inv);
        }
    }
    let mut coeffs = vec![0u64; n];
    coeffs[0] = dd[n - 1]; // cdb-lint: allow(panic) — n >= 1 is debug-asserted above; both vectors have length n
    for (deg, i) in (0..n - 1).rev().enumerate() {
        // coeffs ← coeffs·(x − pts[i]) + dd[i]
        let neg_t = fp.neg(pts[i]);
        for k in (0..=deg).rev() {
            let c = coeffs[k];
            coeffs[k + 1] = fp.add(coeffs[k + 1], c);
            coeffs[k] = fp.mul(c, neg_t);
        }
        // The shift above moved every term up; rebuild the constant slot.
        coeffs[0] = fp.add(coeffs[0], dd[i]); // cdb-lint: allow(panic) — coeffs has length n >= 1 by construction
    }
    coeffs
}

/// A primitive-integer view of one input: `poly = factor · Σ grid[i][j] ·
/// var^i · y^j` with `grid` holding `Int` coefficients of content 1.
struct IntGrid {
    /// `grid[i][j]` = integer coefficient of `var^i y^j`; rows `0..=deg_var`.
    grid: Vec<Vec<Int>>,
    /// Rational content: original = `factor · grid`.
    factor: Rat,
    /// Max bit length over the grid.
    coeff_bits: u64,
}

impl IntGrid {
    /// Content-extract `poly` (nonzero) into a primitive integer grid.
    fn build(poly: &MPoly, var: usize, yvar: Option<usize>) -> Option<IntGrid> {
        // Dense rational grid.
        let rows = poly.as_upoly_in(var);
        let mut rat_grid: Vec<Vec<Rat>> = Vec::with_capacity(rows.len());
        for row in &rows {
            match yvar {
                Some(y) => {
                    let ycoeffs = row.as_upoly_in(y);
                    let mut dense = Vec::with_capacity(ycoeffs.len());
                    for c in &ycoeffs {
                        dense.push(c.to_constant()?);
                    }
                    rat_grid.push(dense);
                }
                None => rat_grid.push(vec![row.to_constant()?]),
            }
        }
        // lcm of denominators, then gcd of the scaled numerators.
        let mut lcm = Int::one();
        for c in rat_grid.iter().flatten() {
            let g = lcm.gcd(c.denom());
            lcm = &lcm.div_exact(&g) * c.denom();
        }
        let mut ints: Vec<Vec<Int>> = Vec::with_capacity(rat_grid.len());
        let mut gcd = Int::zero();
        for row in &rat_grid {
            let mut irow = Vec::with_capacity(row.len());
            for c in row {
                let v = &(c.numer() * &lcm).div_exact(c.denom());
                gcd = gcd.gcd(v);
                irow.push(v.clone());
            }
            ints.push(irow);
        }
        debug_assert!(!gcd.is_zero(), "nonzero polynomial has nonzero content");
        let mut coeff_bits = 0u64;
        for row in &mut ints {
            for c in row.iter_mut() {
                *c = c.div_exact(&gcd);
                coeff_bits = coeff_bits.max(c.bit_length());
            }
        }
        Some(IntGrid {
            grid: ints,
            factor: Rat::new(gcd, lcm),
            coeff_bits,
        })
    }

    /// Reduce the grid into `Z_p`. Returns `None` for a *bad prime*: one
    /// where the leading `var`-coefficient row vanishes identically mod `p`
    /// (the Sylvester determinant of the reduction would have lost rows).
    fn reduce(&self, fp: ModP) -> Option<Vec<Vec<u64>>> {
        let reduced: Vec<Vec<u64>> = self
            .grid
            .iter()
            .map(|row| row.iter().map(|c| fp.from_int(c)).collect())
            .collect();
        match reduced.last() {
            Some(top) if top.iter().any(|&c| c != 0) => Some(reduced),
            _ => None,
        }
    }
}

/// Ceiling of `log2` of the Hadamard-style coefficient bound for
/// `res_var(P, Q)` with primitive integer grids `P`, `Q`: the determinant
/// of the `(m+n)²` Sylvester matrix expands into at most `(m+n)!` products
/// of `m+n` entries, each entry a `y`-polynomial with ≤ `d+1` terms of at
/// most `hp`/`hq` bits, so every coefficient is bounded by
/// `(m+n)! · (d+1)^{m+n−1} · Hp^n · Hq^m`.
fn crt_bound_bits(m: usize, n: usize, ydeg: usize, hp: u64, hq: u64) -> u64 {
    let s = (m + n) as u64;
    // log2(s!) ≤ Σ bit_length(i): an overestimate is harmless (one extra
    // prime at worst).
    let fact_bits: u64 = (2..=s).map(|i| 64 - u64::from(i.leading_zeros())).sum();
    let d_bits = 64 - u64::from(((ydeg + 1) as u64).leading_zeros());
    fact_bits + (s - 1) * d_bits + (n as u64) * hp + (m as u64) * hq
}

/// Modular CRT kernel. Returns `None` (→ caller falls back) when the
/// coefficient bound exceeds the prime table's capacity or too many primes
/// are bad. Exact by construction: the CRT modulus is kept strictly above
/// twice the Hadamard bound, so the symmetric representatives *are* the
/// integer coefficients of `res(P, Q)`.
fn crt_resultant(p: &MPoly, q: &MPoly, var: usize, shape: &Bivar) -> Option<MPoly> {
    let nvars = p.nvars();
    let pg = IntGrid::build(p, var, shape.yvar)?;
    let qg = IntGrid::build(q, var, shape.yvar)?;
    let ydeg = pg
        .grid
        .iter()
        .chain(qg.grid.iter())
        .map(|row| row.len().saturating_sub(1))
        .max()
        .unwrap_or(0);
    // +2: one bit of sign headroom for the symmetric range, one of slack.
    let bound_bits = crt_bound_bits(shape.m, shape.n, ydeg, pg.coeff_bits, qg.coeff_bits) + 2;
    let primes_needed = (bound_bits / PRIME_BITS) as usize + 1;
    if primes_needed > PRIMES.len() {
        return None;
    }
    let ncoeffs = shape.bound_deg + 1;
    let mut crts = vec![Crt::new(); ncoeffs];
    let mut good = 0usize;
    for &prime in PRIMES.iter() {
        let fp = ModP::new(prime);
        // Bad-prime detection: either leading coefficient row ≡ 0 mod p
        // drops the `var`-degree of the reduction.
        let (Some(pm), Some(qm)) = (pg.reduce(fp), qg.reduce(fp)) else {
            continue;
        };
        let Some(mut res_mod) = bivar_res_modp(fp, &pm, &qm, ncoeffs) else {
            continue; // unlucky prime for point selection (practically unreachable)
        };
        // The accumulators advance in lockstep over the same prime
        // sequence, so the Garner inverse is shared across coefficients.
        res_mod.resize(ncoeffs, 0);
        Crt::push_batch(&mut crts, &res_mod, prime);
        good += 1;
        if good == primes_needed {
            break;
        }
    }
    if good < primes_needed {
        return None; // prime table exhausted by bad primes
    }
    // Symmetric reconstruction, then undo the content extraction:
    // res(p, q) = factor_p^n · factor_q^m · res(P, Q).
    let coeffs: Vec<Rat> = crts.iter().map(|c| Rat::from(c.symmetric())).collect();
    let scale = &pg.factor.pow(shape.n as i32) * &qg.factor.pow(shape.m as i32);
    let result = match shape.yvar {
        Some(y) => MPoly::from_upoly(&UPoly::from_coeffs(coeffs), y, nvars),
        None => MPoly::constant(coeffs.first().cloned().unwrap_or_else(Rat::zero), nvars),
    };
    Some(result.scale(&scale))
}

/// Bivariate resultant in `Z_p` by evaluation–interpolation: specialize `y`
/// at `ncoeffs` points where neither leading coefficient vanishes, run the
/// `u64` Euclidean resultant per point, and Newton-interpolate. The grids
/// have a nonzero leading row mod `p` (checked by the caller), which keeps
/// the count of unusable points below `deg_y(lc_p) + deg_y(lc_q) < p`.
fn bivar_res_modp(fp: ModP, pm: &[Vec<u64>], qm: &[Vec<u64>], ncoeffs: usize) -> Option<Vec<u64>> {
    let eval_row = |row: &[u64], a: u64| -> u64 {
        row.iter()
            .rev()
            .fold(0u64, |acc, &c| fp.add(fp.mul(acc, a), c))
    };
    if ncoeffs == 1 && pm.iter().chain(qm.iter()).all(|row| row.len() <= 1) {
        // Univariate inputs: a single resultant, no interpolation.
        let a: Vec<u64> = pm
            .iter()
            .map(|row| row.first().copied().unwrap_or(0))
            .collect();
        let b: Vec<u64> = qm
            .iter()
            .map(|row| row.first().copied().unwrap_or(0))
            .collect();
        return Some(vec![upoly_res_modp(fp, a, b)]);
    }
    let lcp = &pm[pm.len() - 1];
    let lcq = &qm[qm.len() - 1];
    let mut pts = Vec::with_capacity(ncoeffs);
    let mut nums = Vec::with_capacity(ncoeffs);
    let mut dens = Vec::with_capacity(ncoeffs);
    let max_bad = lcp.len() + lcq.len(); // > #roots of either leading coeff
    let mut a = 0u64;
    while pts.len() < ncoeffs {
        if a as usize > ncoeffs + max_bad + 4 || a >= fp.modulus() {
            return None; // cannot happen with 62-bit primes; defensive
        }
        let point = a;
        a += 1;
        if eval_row(lcp, point) == 0 || eval_row(lcq, point) == 0 {
            continue;
        }
        let pa: Vec<u64> = pm.iter().map(|row| eval_row(row, point)).collect();
        let qa: Vec<u64> = qm.iter().map(|row| eval_row(row, point)).collect();
        let (num, den) = upoly_res_modp_frac(fp, pa, qa);
        nums.push(num);
        dens.push(den);
        pts.push(point);
    }
    // One Fermat exponentiation resolves every point's denominator.
    let invs = fp.batch_inv(&dens)?; // dens are products of nonzero lcs
    let vals: Vec<u64> = nums
        .iter()
        .zip(&invs)
        .map(|(&num, &inv)| fp.mul(num, inv))
        .collect();
    Some(interpolate_modp(fp, &pts, &vals))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: i64, nvars: usize) -> MPoly {
        MPoly::constant(Rat::from(v), nvars)
    }

    #[test]
    fn univariate_resultant_of_coprime() {
        // res(p, q) = lc(p)^n · Π q(α_i): res(x−1, x−2) = q(1) = −1.
        let x = MPoly::var(0, 1);
        let p = &x - &c(1, 1);
        let q = &x - &c(2, 1);
        let r = resultant(&p, &q, 0);
        assert_eq!(r.to_constant().unwrap(), Rat::from(-1i64));
        // Symmetry up to (−1)^{mn}.
        assert_eq!(resultant(&q, &p, 0).to_constant().unwrap(), Rat::one());
    }

    #[test]
    fn resultant_zero_iff_common_root() {
        let x = MPoly::var(0, 1);
        let p = &(&x - &c(1, 1)) * &(&x - &c(3, 1));
        let q = &(&x - &c(1, 1)) * &(&x - &c(5, 1));
        assert!(resultant(&p, &q, 0).is_zero());
        let q2 = &(&x - &c(2, 1)) * &(&x - &c(5, 1));
        assert!(!resultant(&p, &q2, 0).is_zero());
    }

    #[test]
    fn discriminant_of_quadratic() {
        // disc(ax² + bx + c) = b² − 4ac: check on 4x² − 20x + 25 → 0 (the
        // paper's double root) and on x² − 2 → 8.
        let x = MPoly::var(0, 1);
        let p = &(&c(4, 1) * &x.pow(2)) + &(&c(-20, 1) * &x).add_c(25);
        assert!(discriminant(&p, 0).is_zero());
        let q = &x.pow(2) - &c(2, 1);
        assert_eq!(discriminant(&q, 0).to_constant().unwrap(), Rat::from(8i64));
    }

    // Small helper: p + constant.
    trait AddC {
        fn add_c(&self, v: i64) -> MPoly;
    }
    impl AddC for MPoly {
        fn add_c(&self, v: i64) -> MPoly {
            self + &c(v, self.nvars())
        }
    }

    #[test]
    fn bivariate_projection_resultant() {
        // p = 4x² − y − 20x + 25 viewed in y has degree 1, so
        // res_y(p, ∂p/∂y) degenerates; instead project the circle:
        // p = x² + y² − 1, disc_y = −4(x² − 1) up to the convention:
        // disc(y² + (x²−1)) = 0² − 4·1·(x²−1) = 4 − 4x².
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let circle = &(&x.pow(2) + &y.pow(2)) - &c(1, 2);
        let d = discriminant(&circle, 1);
        let expect = &c(4, 2) - &(&c(4, 2) * &x.pow(2));
        assert_eq!(d, expect);
    }

    #[test]
    fn resultant_eliminates_variable() {
        // Common solutions of x² + y² − 2 = 0 and x − y = 0 are x = ±1.
        // res_y gives a polynomial in x vanishing exactly there.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&x.pow(2) + &y.pow(2)) - &c(2, 2);
        let q = &x - &y;
        let r = resultant(&p, &q, 1);
        let u = r.to_upoly_in(0).unwrap();
        // 2x² − 2 (up to sign/scale): roots ±1.
        let eps = "1/1000000".parse().unwrap();
        let roots: Vec<Rat> = crate::RealAlg::roots_of(&u)
            .iter()
            .map(|r| r.approx(&eps))
            .collect();
        assert_eq!(roots.len(), 2);
        assert!((roots[0].to_f64() + 1.0).abs() < 1e-5);
        assert!((roots[1].to_f64() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn bareiss_matches_known_determinant() {
        // |1 2; 3 4| = −2 over constants.
        let m = vec![vec![c(1, 1), c(2, 1)], vec![c(3, 1), c(4, 1)]];
        assert_eq!(
            bareiss_determinant(m).to_constant().unwrap(),
            Rat::from(-2i64)
        );
        // Singular matrix.
        let s = vec![vec![c(1, 1), c(2, 1)], vec![c(2, 1), c(4, 1)]];
        assert!(bareiss_determinant(s).is_zero());
    }

    #[test]
    fn bareiss_with_polynomial_entries() {
        // det |x 1; 1 x| = x² − 1.
        let x = MPoly::var(0, 1);
        let m = vec![vec![x.clone(), c(1, 1)], vec![c(1, 1), x.clone()]];
        let d = bareiss_determinant(m);
        assert_eq!(d, &x.pow(2) - &c(1, 1));
    }

    #[test]
    fn resultant_agrees_with_eval_specialization() {
        // res commutes with specialization when the leading coefficient does
        // not vanish: spot-check res_y(p, q)(a) == res(p(a,·), q(a,·)).
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&x.pow(2) + &(&y.pow(2) * &x)) + &c(3, 2); // x²+x·y²+3
        let q = &(&y * &x) - &c(1, 2); // x·y − 1
        let r = resultant(&p, &q, 1);
        for a in [1i64, 2, -3] {
            let ar = Rat::from(a);
            let pu = p.substitute(0, &ar).to_upoly_in(1).unwrap();
            let qu = q.substitute(0, &ar).to_upoly_in(1).unwrap();
            let pm = MPoly::from_upoly(&pu, 0, 1);
            let qm = MPoly::from_upoly(&qu, 0, 1);
            let direct = resultant(&pm, &qm, 0).to_constant().unwrap();
            assert_eq!(
                r.substitute(0, &ar).to_constant().unwrap(),
                direct,
                "at x={a}"
            );
        }
    }

    // ── fast-kernel specific tests ──────────────────────────────────────

    /// Deterministic bivariate polynomial with pseudo-random coefficients.
    fn dense_bivar(seed: &mut u64, dx: u32, dy: u32, bits: u32) -> MPoly {
        let mut terms = Vec::new();
        for i in 0..=dx {
            for j in 0..=dy {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mask = (1i64 << bits) - 1;
                let v = ((*seed >> 17) as i64 & mask) - (mask / 2);
                if v != 0 {
                    terms.push((vec![i, j], Rat::from(v)));
                }
            }
        }
        // Guarantee full degree so the Sylvester shape is as requested.
        terms.push((vec![dx, dy], Rat::one()));
        MPoly::from_terms(2, terms)
    }

    #[test]
    fn all_strategies_agree_on_random_bivariate() {
        let mut seed = 7u64;
        for (dx, dy, bits) in [(2, 2, 4), (3, 2, 8), (4, 4, 10), (5, 3, 16)] {
            let p = dense_bivar(&mut seed, dx, dy, bits);
            let q = dense_bivar(&mut seed, dx.max(1), dy, bits);
            for var in [0usize, 1] {
                let prs = resultant_with_strategy(&p, &q, var, Strategy::Prs).unwrap();
                let crt = resultant_with_strategy(&p, &q, var, Strategy::Crt).unwrap();
                assert_eq!(prs, crt, "CRT vs PRS at ({dx},{dy},{bits}), var {var}");
                assert_eq!(prs.to_string(), crt.to_string());
            }
        }
    }

    #[test]
    fn strategies_agree_on_rational_coefficients() {
        // Denominators exercise the content-extraction path of the CRT
        // kernel.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let half = MPoly::constant(Rat::from_ints(1, 2), 2);
        let third = MPoly::constant(Rat::from_ints(-2, 3), 2);
        let p = &(&half * &x.pow(3)) + &(&(&y.pow(2) * &x) + &third);
        let q = &(&third * &(&x.pow(2) * &y)) - &(&half + &x);
        let prs = resultant_with_strategy(&p, &q, 0, Strategy::Prs).unwrap();
        let crt = resultant_with_strategy(&p, &q, 0, Strategy::Crt).unwrap();
        assert_eq!(prs, crt);
    }

    #[test]
    fn strategies_agree_on_shared_factor_zero_resultant() {
        // p and q share (x + y): both kernels must return exactly zero.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let shared = &x + &y;
        let p = &shared * &(&x.pow(2) - &y);
        let q = &shared * &(&(&x * &y) + &c(2, 2));
        for strat in [Strategy::Prs, Strategy::Crt] {
            let r = resultant_with_strategy(&p, &q, 0, strat).unwrap();
            assert!(r.is_zero(), "{strat:?} must detect the common factor");
        }
    }

    #[test]
    fn crt_declines_three_variable_inputs() {
        let x = MPoly::var(0, 3);
        let y = MPoly::var(1, 3);
        let z = MPoly::var(2, 3);
        let p = &(&x.pow(2) + &(&y * &z)) - &c(1, 3);
        let q = &(&x * &y) + &z;
        assert!(resultant_with_strategy(&p, &q, 0, Strategy::Crt).is_none());
        // The dispatcher still answers (via PRS) and matches the direct path.
        let via_dispatch = resultant(&p, &q, 0);
        let via_prs = resultant_with_strategy(&p, &q, 0, Strategy::Prs).unwrap();
        assert_eq!(via_dispatch, via_prs);
    }

    #[test]
    fn crt_handles_large_coefficients() {
        // 120-bit coefficients force a multi-prime CRT reconstruction.
        let big: Rat = Rat::from(&(&Int::pow2(120) + &Int::from(7i64)) * &Int::one());
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let bigc = MPoly::constant(big, 2);
        let p = &(&x.pow(3) * &bigc) + &(&y.pow(2) - &c(5, 2));
        let q = &(&x.pow(2) - &(&bigc * &y)) + &c(1, 2);
        let prs = resultant_with_strategy(&p, &q, 0, Strategy::Prs).unwrap();
        let crt = resultant_with_strategy(&p, &q, 0, Strategy::Crt).unwrap();
        assert_eq!(prs, crt);
        assert_eq!(prs.to_string(), crt.to_string());
    }

    #[test]
    fn dispatcher_counters_advance() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&x.pow(2) + &y.pow(2)) - &c(1, 2);
        let q = &(&x * &y) - &c(1, 2);
        let before = strategy_counters();
        let _ = resultant(&p, &q, 0);
        let after = strategy_counters();
        assert!(
            after.0 + after.2 > before.0 + before.2,
            "some strategy must be counted"
        );
    }

    #[test]
    fn dispatcher_output_matches_prs_reference() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&x.pow(3) + &(&y.pow(2) * &x)) - &c(4, 2);
        let q = &(&x.pow(2) * &y) + &(&x - &c(2, 2));
        let fast = resultant(&p, &q, 0);
        let slow = resultant_with_strategy(&p, &q, 0, Strategy::Prs).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.to_string(), slow.to_string());
    }

    #[test]
    fn univariate_small_coefficients_dispatch_to_crt() {
        // No surviving variable, coefficients of a few bits, Sylvester
        // matrix larger than 2×2 — a shape with its own dispatch rule until
        // the rational kernel went; it must take CRT. Other tests bump the global counters concurrently,
        // so the exact decision is read off `choose` and the counters are
        // only required to have moved.
        let x = MPoly::var(0, 1);
        let p = &(&x.pow(3) - &(&c(2, 1) * &x)) + &c(5, 1);
        let q = &(&c(3, 1) * &x.pow(2)) + &(&x - &c(7, 1));
        assert_eq!(Bivar::analyze(&p, &q, 0).unwrap().choose(), Strategy::Crt);
        let before = strategy_counters();
        let r = resultant(&p, &q, 0);
        let after = strategy_counters();
        assert!(after.2 > before.2, "CRT must be counted");
        assert_eq!((before.1, after.1), (0, 0), "slot 1 is retired");
        let prs = resultant_with_strategy(&p, &q, 0, Strategy::Prs).unwrap();
        assert_eq!(r, prs);
        assert_eq!(r.to_string(), prs.to_string());
    }

    #[test]
    fn univariate_resultants_through_crt() {
        // Strictly univariate inputs (yvar = None) through the CRT kernel.
        let x = MPoly::var(0, 1);
        let p = &(&x.pow(4) - &(&c(3, 1) * &x.pow(2))) + &c(2, 1);
        let q = &(&c(2, 1) * &x.pow(3)) - &(&x + &c(5, 1));
        let prs = resultant_with_strategy(&p, &q, 0, Strategy::Prs).unwrap();
        let crt = resultant_with_strategy(&p, &q, 0, Strategy::Crt).unwrap();
        assert_eq!(prs, crt);
    }

    #[test]
    fn vanishing_leading_coefficient_points_are_skipped() {
        // lc_x(p) = y: evaluation at y = 0 would drop the degree; the CRT
        // kernel must skip that point and still agree with PRS.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let p = &(&(&y * &x.pow(2)) + &x) + &c(1, 2); // y·x² + x + 1
        let q = &(&x.pow(2) + &y.pow(2)) - &c(3, 2);
        let prs = resultant_with_strategy(&p, &q, 0, Strategy::Prs).unwrap();
        let crt = resultant_with_strategy(&p, &q, 0, Strategy::Crt).unwrap();
        assert_eq!(prs, crt);
    }
}
