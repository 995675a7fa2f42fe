//! The retained **seed reference implementation** of polynomial arithmetic.
//!
//! Before the hash-consing refactor (DESIGN.md §10), [`crate::MPoly`] stored
//! terms in a `BTreeMap<Vec<u32>, Rat>` and [`crate::UPoly`] owned a plain
//! `Vec<Rat>`; every clone was a deep copy and every hash walked all terms.
//! This module keeps those representations and the seed algorithms alive,
//! bit-for-bit, for **differential/property testing**: interned arithmetic
//! must agree with the reference on `add`/`mul`/`div_exact`/`resultant`/Sturm
//! chains, with byte-identical `Display` (see `crates/poly/tests/`, and the
//! `roots` unit tests for the Sturm chain, which is private there). The
//! `Rat` remainder sequences behind `gcd`/`squarefree`/Sturm chains, which
//! the live kernel replaced by integer pseudo-remainders (DESIGN.md §10.1),
//! are kept here the same way ([`ref_gcd`], [`ref_squarefree`],
//! [`ref_sturm_chain`]).
//!
//! Nothing outside tests should use these types.

use crate::mpoly::MPoly;
use crate::upoly::UPoly;
use cdb_num::{Int, Rat, Sign};
use std::collections::BTreeMap;
use std::fmt;

/// Seed-representation sparse multivariate polynomial
/// (`BTreeMap<Vec<u32>, Rat>`, deep clones, per-use hashing).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RefPoly {
    nvars: usize,
    terms: BTreeMap<Vec<u32>, Rat>,
}

impl RefPoly {
    /// The zero polynomial in `nvars` variables.
    #[must_use]
    pub fn zero(nvars: usize) -> RefPoly {
        RefPoly {
            nvars,
            terms: BTreeMap::new(),
        }
    }

    /// A constant polynomial.
    #[must_use]
    pub fn constant(c: Rat, nvars: usize) -> RefPoly {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(vec![0; nvars], c);
        }
        RefPoly { nvars, terms }
    }

    /// The variable `x_i`.
    #[must_use]
    pub fn var(i: usize, nvars: usize) -> RefPoly {
        assert!(i < nvars);
        let mut mono = vec![0; nvars];
        mono[i] = 1;
        let mut terms = BTreeMap::new();
        terms.insert(mono, Rat::one());
        RefPoly { nvars, terms }
    }

    /// Build from `(monomial, coefficient)` pairs (summing duplicates).
    #[must_use]
    pub fn from_terms(nvars: usize, pairs: impl IntoIterator<Item = (Vec<u32>, Rat)>) -> RefPoly {
        let mut terms: BTreeMap<Vec<u32>, Rat> = BTreeMap::new();
        for (m, c) in pairs {
            assert_eq!(m.len(), nvars, "monomial arity mismatch");
            let e = terms.entry(m).or_default();
            *e = &*e + &c;
        }
        terms.retain(|_, c| !c.is_zero());
        RefPoly { nvars, terms }
    }

    /// Convert to the interned representation.
    #[must_use]
    pub fn to_mpoly(&self) -> MPoly {
        MPoly::from_terms(
            self.nvars,
            self.terms.iter().map(|(m, c)| (m.clone(), c.clone())),
        )
    }

    /// Number of variables of the ambient ring.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// True iff the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value, if constant.
    #[must_use]
    pub fn to_constant(&self) -> Option<Rat> {
        if self.is_zero() {
            return Some(Rat::zero());
        }
        if self.terms.keys().all(|m| m.iter().all(|&e| e == 0)) {
            return self.terms.values().next().cloned();
        }
        None
    }

    /// Degree in variable `i` — the seed's per-call scan over all terms.
    #[must_use]
    pub fn degree_in(&self, i: usize) -> u32 {
        self.terms.keys().map(|m| m[i]).max().unwrap_or(0)
    }

    /// Leading term under lex order.
    fn leading_term(&self) -> Option<(&Vec<u32>, &Rat)> {
        self.terms.last_key_value()
    }

    /// Multiply by a scalar.
    #[must_use]
    pub fn scale(&self, c: &Rat) -> RefPoly {
        if c.is_zero() {
            return RefPoly::zero(self.nvars);
        }
        RefPoly {
            nvars: self.nvars,
            terms: self.terms.iter().map(|(m, a)| (m.clone(), a * c)).collect(),
        }
    }

    /// Multiply by a single term.
    fn mul_term(&self, mono: &[u32], c: &Rat) -> RefPoly {
        if c.is_zero() {
            return RefPoly::zero(self.nvars);
        }
        RefPoly {
            nvars: self.nvars,
            terms: self
                .terms
                .iter()
                .map(|(m, a)| {
                    let mut nm = m.clone();
                    for (e, me) in nm.iter_mut().zip(mono) {
                        *e += me;
                    }
                    (nm, a * c)
                })
                .collect(),
        }
    }

    /// `self^n` by binary exponentiation (seed algorithm).
    #[must_use]
    pub fn pow(&self, mut n: u32) -> RefPoly {
        let mut acc = RefPoly::constant(Rat::one(), self.nvars);
        let mut base = self.clone();
        while n > 0 {
            if n & 1 == 1 {
                acc = &acc * &base;
            }
            n >>= 1;
            if n > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Full evaluation at a rational point (seed per-variable power tables,
    /// max exponents recomputed by scanning every term).
    #[must_use]
    pub fn eval(&self, point: &[Rat]) -> Rat {
        assert_eq!(point.len(), self.nvars);
        let mut max_exp = vec![0u32; self.nvars];
        for m in self.terms.keys() {
            for (me, &e) in max_exp.iter_mut().zip(m.iter()) {
                *me = (*me).max(e);
            }
        }
        let powers: Vec<Vec<Rat>> = point
            .iter()
            .zip(&max_exp)
            .map(|(x, &me)| {
                let mut tab = Vec::with_capacity(me as usize + 1);
                let mut pw = Rat::one();
                for _ in 0..me {
                    tab.push(pw.clone());
                    pw = &pw * x;
                }
                tab.push(pw);
                tab
            })
            .collect();
        let mut acc = Rat::zero();
        for (m, c) in &self.terms {
            let mut t = c.clone();
            for (i, &e) in m.iter().enumerate() {
                if e > 0 {
                    t = &t * &powers[i][e as usize];
                }
            }
            acc = &acc + &t;
        }
        acc
    }

    /// View as a univariate polynomial in variable `i` (seed algorithm).
    #[must_use]
    pub fn as_upoly_in(&self, i: usize) -> Vec<RefPoly> {
        let d = self.degree_in(i) as usize;
        let mut coeffs = vec![RefPoly::zero(self.nvars); d + 1];
        for (m, c) in &self.terms {
            let e = m[i] as usize;
            let mut nm = m.clone();
            nm[i] = 0;
            let entry = coeffs[e].terms.entry(nm).or_default();
            *entry = &*entry + c;
        }
        for p in &mut coeffs {
            p.terms.retain(|_, c| !c.is_zero());
        }
        coeffs
    }

    /// Exact division (seed leading-term reduction; panics if not exact).
    #[must_use]
    pub fn div_exact(&self, div: &RefPoly) -> RefPoly {
        assert!(!div.is_zero(), "RefPoly division by zero");
        assert_eq!(self.nvars, div.nvars);
        if self.is_zero() {
            return RefPoly::zero(self.nvars);
        }
        if let Some(c) = div.to_constant() {
            return self.scale(&c.recip());
        }
        let mut rem = self.clone();
        let mut quot = RefPoly::zero(self.nvars);
        let Some((dm, dc)) = div.leading_term().map(|(m, c)| (m.clone(), c.clone())) else {
            return quot;
        };
        while let Some((rm, rc)) = rem.leading_term().map(|(m, c)| (m.clone(), c.clone())) {
            let mut qm = rm.clone();
            let mut divisible = true;
            for (q, d) in qm.iter_mut().zip(&dm) {
                if *q < *d {
                    divisible = false;
                    break;
                }
                *q -= d;
            }
            assert!(divisible, "RefPoly::div_exact: not divisible");
            let qc = &rc / &dc;
            let t = div.mul_term(&qm, &qc);
            rem = &rem - &t;
            quot = &quot + &RefPoly::from_terms(self.nvars, [(qm, qc)]);
        }
        quot
    }

    /// Render with the given variable names (seed formatting, byte-identical
    /// to [`MPoly::display_with`]).
    #[must_use]
    pub fn display_with(&self, names: &[&str]) -> String {
        assert!(names.len() >= self.nvars);
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut out = String::new();
        for (m, c) in self.terms.iter().rev() {
            let neg = c.sign() == Sign::Neg;
            if out.is_empty() {
                if neg {
                    out.push('-');
                }
            } else {
                out.push_str(if neg { " - " } else { " + " });
            }
            let a = c.abs();
            let is_const_mono = m.iter().all(|&e| e == 0);
            if a != Rat::one() || is_const_mono {
                out.push_str(&a.to_string());
                if !is_const_mono {
                    out.push('*');
                }
            }
            let mut first = true;
            for (i, &e) in m.iter().enumerate() {
                if e == 0 {
                    continue;
                }
                if !first {
                    out.push('*');
                }
                out.push_str(names[i]);
                if e > 1 {
                    out.push_str(&format!("^{e}"));
                }
                first = false;
            }
        }
        out
    }
}

impl fmt::Display for RefPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.nvars).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        write!(f, "{}", self.display_with(&refs))
    }
}

impl fmt::Debug for RefPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RefPoly({self})")
    }
}

impl std::ops::Add for &RefPoly {
    type Output = RefPoly;
    fn add(self, rhs: &RefPoly) -> RefPoly {
        assert_eq!(self.nvars, rhs.nvars);
        let mut terms = self.terms.clone();
        for (m, c) in &rhs.terms {
            let e = terms.entry(m.clone()).or_default();
            *e = &*e + c;
        }
        terms.retain(|_, c| !c.is_zero());
        RefPoly {
            nvars: self.nvars,
            terms,
        }
    }
}

impl std::ops::Sub for &RefPoly {
    type Output = RefPoly;
    fn sub(self, rhs: &RefPoly) -> RefPoly {
        self + &(-rhs)
    }
}

impl std::ops::Neg for &RefPoly {
    type Output = RefPoly;
    fn neg(self) -> RefPoly {
        RefPoly {
            nvars: self.nvars,
            terms: self
                .terms
                .iter()
                .map(|(m, c)| (m.clone(), -c.clone()))
                .collect(),
        }
    }
}

impl std::ops::Mul for &RefPoly {
    type Output = RefPoly;
    fn mul(self, rhs: &RefPoly) -> RefPoly {
        assert_eq!(self.nvars, rhs.nvars);
        let mut terms: BTreeMap<Vec<u32>, Rat> = BTreeMap::new();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &rhs.terms {
                let mono: Vec<u32> = ma.iter().zip(mb).map(|(a, b)| a + b).collect();
                let e = terms.entry(mono).or_default();
                *e = &*e + &(ca * cb);
            }
        }
        terms.retain(|_, c| !c.is_zero());
        RefPoly {
            nvars: self.nvars,
            terms,
        }
    }
}

/// Seed-algorithm resultant of `p` and `q` w.r.t. `var` (Sylvester matrix +
/// Bareiss elimination over [`RefPoly`] entries, mirroring
/// [`crate::resultant::resultant`]).
#[must_use]
pub fn ref_resultant(p: &RefPoly, q: &RefPoly, var: usize) -> RefPoly {
    assert_eq!(p.nvars(), q.nvars());
    let nvars = p.nvars();
    if p.is_zero() || q.is_zero() {
        return RefPoly::zero(nvars);
    }
    let pc = p.as_upoly_in(var);
    let qc = q.as_upoly_in(var);
    let m = pc.len() - 1;
    let n = qc.len() - 1;
    if m == 0 && n == 0 {
        return RefPoly::constant(Rat::one(), nvars);
    }
    if let [c] = pc.as_slice() {
        return c.pow(n as u32);
    }
    if let [c] = qc.as_slice() {
        return c.pow(m as u32);
    }
    let size = m + n;
    let mut mat = vec![vec![RefPoly::zero(nvars); size]; size];
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
    ref_bareiss_determinant(mat)
}

/// Bareiss determinant over [`RefPoly`] entries (seed algorithm).
#[must_use]
pub fn ref_bareiss_determinant(mut m: Vec<Vec<RefPoly>>) -> RefPoly {
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
    let mut prev = RefPoly::constant(Rat::one(), nvars);
    for k in 0..n - 1 {
        if m[k][k].is_zero() {
            let Some(swap) = (k + 1..n).find(|&r| !m[r][k].is_zero()) else {
                return RefPoly::zero(nvars);
            };
            m.swap(k, swap);
            sign_flip = !sign_flip;
        }
        for i in k + 1..n {
            for j in k + 1..n {
                let num = &(&m[k][k] * &m[i][j]) - &(&m[i][k] * &m[k][j]);
                m[i][j] = num.div_exact(&prev);
            }
            m[i][k] = RefPoly::zero(nvars);
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

/// Seed-representation dense univariate polynomial (owned `Vec<Rat>`, deep
/// clones, no precomputed hash).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RefUPoly {
    coeffs: Vec<Rat>,
}

impl RefUPoly {
    /// From low-to-high coefficients; trailing zeros removed.
    #[must_use]
    pub fn from_coeffs(mut coeffs: Vec<Rat>) -> RefUPoly {
        while coeffs.last().is_some_and(Rat::is_zero) {
            coeffs.pop();
        }
        RefUPoly { coeffs }
    }

    /// Convert from the shared-storage representation.
    #[must_use]
    pub fn from_upoly(p: &UPoly) -> RefUPoly {
        RefUPoly::from_coeffs(p.coeffs().to_vec())
    }

    /// Convert to the shared-storage representation.
    #[must_use]
    pub fn to_upoly(&self) -> UPoly {
        UPoly::from_coeffs(self.coeffs.clone())
    }

    /// Coefficients, low-to-high (empty for zero).
    #[must_use]
    pub fn coeffs(&self) -> &[Rat] {
        &self.coeffs
    }

    /// True iff the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// True iff a (possibly zero) constant.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.coeffs.len() <= 1
    }

    /// Degree with `deg 0 = 0` convention for the zero polynomial.
    #[must_use]
    pub fn deg(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Leading coefficient; zero for the zero polynomial.
    #[must_use]
    pub fn leading(&self) -> Rat {
        self.coeffs.last().cloned().unwrap_or_default()
    }

    /// Coefficient of `x^i` (zero beyond the degree).
    #[must_use]
    pub fn coeff(&self, i: usize) -> Rat {
        self.coeffs.get(i).cloned().unwrap_or_default()
    }

    /// Horner evaluation at a rational point (seed algorithm).
    #[must_use]
    pub fn eval(&self, x: &Rat) -> Rat {
        let mut acc = Rat::zero();
        for c in self.coeffs.iter().rev() {
            acc = &(&acc * x) + c;
        }
        acc
    }

    /// Formal derivative (seed algorithm).
    #[must_use]
    pub fn derivative(&self) -> RefUPoly {
        if self.coeffs.len() <= 1 {
            return RefUPoly::from_coeffs(Vec::new());
        }
        RefUPoly::from_coeffs(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, c)| c * &Rat::from(i as i64))
                .collect(),
        )
    }

    /// Division with remainder (seed algorithm).
    #[must_use]
    pub fn divrem(&self, div: &RefUPoly) -> (RefUPoly, RefUPoly) {
        assert!(!div.is_zero(), "polynomial division by zero");
        if self.deg() < div.deg() || self.is_zero() {
            return (RefUPoly::from_coeffs(Vec::new()), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let dd = div.deg();
        let lead_inv = div.leading().recip();
        let mut q = vec![Rat::zero(); rem.len() - dd];
        for i in (dd..rem.len()).rev() {
            if rem[i].is_zero() {
                continue;
            }
            let f = &rem[i] * &lead_inv;
            for (j, dc) in div.coeffs.iter().enumerate() {
                let idx = i - dd + j;
                rem[idx] = &rem[idx] - &(&f * dc);
            }
            q[i - dd] = f;
        }
        (RefUPoly::from_coeffs(q), RefUPoly::from_coeffs(rem))
    }

    /// Integer-primitive form, positive leading coefficient (seed algorithm).
    #[must_use]
    pub fn primitive(&self) -> RefUPoly {
        if self.is_zero() {
            return RefUPoly::from_coeffs(Vec::new());
        }
        let mut l = Int::one();
        for c in &self.coeffs {
            let d = c.denom();
            let g = l.gcd(d);
            l = &(&l / &g) * d;
        }
        let ints: Vec<Int> = self
            .coeffs
            .iter()
            .map(|c| (c * &Rat::from(l.clone())).numer().clone())
            .collect();
        let mut g = Int::zero();
        for v in &ints {
            g = g.gcd(v);
        }
        debug_assert!(!g.is_zero());
        let flip = self.leading().sign() == Sign::Neg;
        RefUPoly::from_coeffs(
            ints.iter()
                .map(|v| {
                    let q = Rat::from(v.div_exact(&g));
                    if flip {
                        -q
                    } else {
                        q
                    }
                })
                .collect(),
        )
    }
}

impl fmt::Display for RefUPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Seed formatting, byte-identical to `UPoly`'s `Display`.
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate().rev() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " {} ", if c.sign() == Sign::Neg { "-" } else { "+" })?;
            } else if c.sign() == Sign::Neg {
                write!(f, "-")?;
            }
            let a = c.abs();
            match i {
                0 => write!(f, "{a}")?,
                1 => {
                    if a == Rat::one() {
                        write!(f, "x")?;
                    } else {
                        write!(f, "{a}*x")?;
                    }
                }
                _ => {
                    if a == Rat::one() {
                        write!(f, "x^{i}")?;
                    } else {
                        write!(f, "{a}*x^{i}")?;
                    }
                }
            }
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for RefUPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RefUPoly({self})")
    }
}

impl std::ops::Neg for &RefUPoly {
    type Output = RefUPoly;
    fn neg(self) -> RefUPoly {
        RefUPoly::from_coeffs(self.coeffs.iter().map(|c| -c.clone()).collect())
    }
}

/// Seed-algorithm Sturm chain `p, p', -rem(p, p'), ...` with primitive-part
/// scaling, mirroring the private chain behind root isolation
/// (`RealAlg::roots_of`). Returns the chain members in order.
#[must_use]
pub fn ref_sturm_chain(p: &RefUPoly) -> Vec<RefUPoly> {
    let mut seq = Vec::new();
    if p.is_zero() {
        return seq;
    }
    seq.push(p.clone());
    if p.is_constant() {
        return seq;
    }
    seq.push(p.derivative());
    loop {
        let n = seq.len();
        let (_, r) = seq[n - 2].divrem(&seq[n - 1]);
        if r.is_zero() {
            break;
        }
        let neg = -&r;
        let prim = neg.primitive();
        let signed = if neg.leading().sign() == Sign::Neg {
            -&prim
        } else {
            prim
        };
        let done = signed.is_constant();
        seq.push(signed);
        if done {
            break;
        }
    }
    seq
}

/// Seed `monic`: scale by the reciprocal of the (nonzero) leading coefficient.
fn ref_monic(p: &RefUPoly) -> RefUPoly {
    let inv = p.leading().recip();
    RefUPoly::from_coeffs(p.coeffs.iter().map(|a| a * &inv).collect())
}

/// Seed-algorithm monic gcd: the primitive remainder sequence over `Rat`
/// (`divrem` in `Q[x]`, `primitive()` after every step) that
/// [`crate::UPoly::gcd`] ran before it moved to integers.
#[must_use]
pub fn ref_gcd(p: &RefUPoly, q: &RefUPoly) -> RefUPoly {
    if p.is_zero() {
        return if q.is_zero() { q.clone() } else { ref_monic(q) };
    }
    if q.is_zero() {
        return ref_monic(p);
    }
    let mut a = p.primitive();
    let mut b = q.primitive();
    if a.deg() < b.deg() {
        std::mem::swap(&mut a, &mut b);
    }
    while !b.is_zero() {
        let (_, r) = a.divrem(&b);
        a = b;
        b = if r.is_zero() { r } else { r.primitive() };
    }
    if a.is_constant() {
        RefUPoly::from_coeffs(vec![Rat::one()])
    } else {
        ref_monic(&a)
    }
}

/// Seed-algorithm squarefree part `p / gcd(p, p')` (monic), over [`ref_gcd`].
#[must_use]
pub fn ref_squarefree(p: &RefUPoly) -> RefUPoly {
    if p.is_constant() {
        return p.clone();
    }
    let g = ref_gcd(p, &p.derivative());
    if g.is_constant() {
        ref_monic(p)
    } else {
        ref_monic(&p.divrem(&g).0)
    }
}
