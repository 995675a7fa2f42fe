//! Sparse multivariate polynomials over `Q`, hash-consed.
//!
//! Generalized tuples constrain points of `R^k` with polynomials in `k`
//! variables; the CAD projection phase manipulates them as univariate
//! polynomials in the eliminated variable with multivariate coefficients
//! ([`MPoly::as_upoly_in`]).
//!
//! Representation: a canonical **sorted flat `Vec<(Mono, Rat)>`** (ascending
//! lexicographic monomial order, no zero coefficients, no duplicate
//! monomials). Two types carry it:
//!
//! * [`Terms`] — the owned, unsealed builder. Every polynomial operation
//!   (`+ − × neg`, scaling, powers, exact division, coefficient views) is
//!   implemented on it once, and a kernel that chains several operations
//!   (term lowering, Horner substitution, discriminants) stays in `Terms`
//!   until its result is final.
//! * [`MPoly`] — the sealed handle. [`Terms::seal`] hashes the vector and
//!   interns it in the [`crate::intern`] shards, once per result
//!   (DESIGN.md §10.2); `MPoly`'s own operators are a `Terms` operation
//!   followed by one seal. `Clone` is a pointer bump, `Hash` writes one
//!   precomputed content hash, and `Eq` short-circuits on pointer identity
//!   before falling back to a hash-guarded structural compare — so `MPoly`
//!   stays usable directly as a memo-cache key at O(1) per probe. Total
//!   degree and per-variable degrees are computed when the interner first
//!   takes a polynomial in, never on a hit
//!   ([`MPoly::total_degree`]/[`MPoly::degree_in`] are O(1) reads).
//!
//! Lexicographic order is a valid monomial order; exact division
//! ([`MPoly::div_exact`]) uses it for leading-term reduction.

use crate::intern;
use crate::mono::Mono;
use crate::upoly::UPoly;
use cdb_num::hash::ContentHasher;
use cdb_num::{Int, Rat, Sign};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::{Arc, OnceLock};

/// Exponent vector as a plain vector; `mono[i]` is the exponent of variable
/// `i`. Retained as the [`MPoly::from_terms`] input currency; internal
/// storage uses the packed [`Mono`].
pub type Monomial = Vec<u32>;

/// Deterministic identity of a canonical polynomial: the content hash of
/// `(nvars, terms)` under the fixed-key [`cdb_num::hash::ContentHasher`].
/// Equal polynomials always carry equal ids, across threads, runs, hosts
/// and interner states (ids derive from content, not insertion order).
/// Distinct polynomials may collide, so ids are for diagnostics and
/// hash-keying — `Eq` still verifies structure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PolyId(u64);

/// An owned, unsealed polynomial under construction.
///
/// Invariant (kept by every operation): `terms` is canonical — ascending
/// lex monomial order, distinct monomials, no zero coefficients — so
/// [`Terms::seal`] only hashes and interns, and structural
/// equality is polynomial equality. Nothing is hashed or interned until
/// `seal`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Terms {
    nvars: usize,
    terms: Vec<(Mono, Rat)>,
}

impl Terms {
    /// The zero polynomial in `nvars` variables.
    #[must_use]
    pub fn zero(nvars: usize) -> Terms {
        Terms {
            nvars,
            terms: Vec::new(),
        }
    }

    /// A constant polynomial.
    #[must_use]
    pub fn constant(c: Rat, nvars: usize) -> Terms {
        if c.is_zero() {
            return Terms::zero(nvars);
        }
        Terms {
            nvars,
            terms: vec![(Mono::zero(nvars), c)],
        }
    }

    /// The variable `x_i`.
    #[must_use]
    pub fn var(i: usize, nvars: usize) -> Terms {
        assert!(i < nvars);
        Terms {
            nvars,
            terms: vec![(Mono::zero(nvars).with_exp(i, 1), Rat::one())],
        }
    }

    /// Canonicalize an arbitrary term list: sort, merge duplicate monomials,
    /// drop zero coefficients.
    fn from_pairs(nvars: usize, mut pairs: Vec<(Mono, Rat)>) -> Terms {
        pairs.retain(|(_, c)| !c.is_zero());
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut terms: Vec<(Mono, Rat)> = Vec::with_capacity(pairs.len());
        for (m, c) in pairs {
            match terms.last_mut() {
                Some(last) if last.0 == m => last.1 = &last.1 + &c,
                _ => terms.push((m, c)),
            }
        }
        terms.retain(|(_, c)| !c.is_zero());
        Terms { nvars, terms }
    }

    /// True iff the zero polynomial.
    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Maximum bit length over coefficients.
    #[must_use]
    pub fn max_coeff_bits(&self) -> u64 {
        self.terms
            .iter()
            .map(|(_, c)| c.bit_length())
            .max()
            .unwrap_or(0)
    }

    /// Multiply by a scalar.
    #[must_use]
    pub fn scale(mut self, c: &Rat) -> Terms {
        if c.is_zero() {
            self.terms.clear();
        } else {
            // Scaling by a nonzero rational preserves order and nonzeroness.
            for (_, a) in &mut self.terms {
                *a = &*a * c;
            }
        }
        self
    }

    /// Multiply by a single nonzero term.
    fn mul_term(&self, mono: &Mono, c: &Rat) -> Terms {
        // Adding a fixed exponent vector is strictly monotone in lex order,
        // so the result is canonical without re-sorting.
        Terms {
            nvars: self.nvars,
            terms: self
                .terms
                .iter()
                .map(|(m, a)| (m.mul(mono), a * c))
                .collect(),
        }
    }

    /// `self^n`.
    #[must_use]
    pub fn pow(&self, mut n: u32) -> Terms {
        // Binary exponentiation: O(log n) polynomial multiplications instead
        // of n (the resultant base cases raise constants to degree-sized n).
        // The accumulator starts at the lowest power the bits of `n` ask
        // for, not at 1, so `p^2` costs one product rather than two.
        if n == 0 {
            return Terms::constant(Rat::one(), self.nvars);
        }
        let mut base = self.clone();
        while n & 1 == 0 {
            base = &base * &base;
            n >>= 1;
        }
        let mut acc = base.clone();
        n >>= 1;
        while n > 0 {
            base = &base * &base;
            if n & 1 == 1 {
                acc = &acc * &base;
            }
            n >>= 1;
        }
        acc
    }

    /// Exact division: `self / div`; panics if not exact.
    fn div_exact(&self, div: &Terms) -> Terms {
        assert!(!div.is_zero(), "MPoly division by zero");
        assert_eq!(self.nvars, div.nvars);
        let Some((dm, dc)) = div.terms.last() else {
            // Unreachable: a zero divisor is rejected by the assert above.
            return Terms::zero(self.nvars);
        };
        if dm.is_constant() {
            return self.clone().scale(&dc.recip());
        }
        // Leading-term reduction: each step's quotient monomial is the
        // remainder's (strictly falling) leading monomial over the
        // divisor's, so the quotient comes out in descending order.
        let mut rem = self.clone();
        let mut quot: Vec<(Mono, Rat)> = Vec::new();
        while let Some((rm, rc)) = rem.terms.last() {
            let step = rm.try_div(dm);
            assert!(step.is_some(), "MPoly::div_exact: not divisible");
            let Some(qm) = step else {
                // Unreachable: the assert above fired first.
                break;
            };
            let qc = rc / dc;
            rem = &rem - &div.mul_term(&qm, &qc);
            quot.push((qm, qc));
        }
        quot.reverse();
        Terms {
            nvars: self.nvars,
            terms: quot,
        }
    }

    /// Merge two canonical term vectors (`a ± b`): one linear pass, output
    /// canonical by construction.
    fn merge(a: &[(Mono, Rat)], b: &[(Mono, Rat)], negate_b: bool) -> Vec<(Mono, Rat)> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let mut ia = 0usize;
        let mut ib = 0usize;
        let bc = |c: &Rat| if negate_b { -c.clone() } else { c.clone() };
        while ia < a.len() && ib < b.len() {
            match a[ia].0.cmp(&b[ib].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[ia].clone());
                    ia += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((b[ib].0.clone(), bc(&b[ib].1)));
                    ib += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = if negate_b {
                        &a[ia].1 - &b[ib].1
                    } else {
                        &a[ia].1 + &b[ib].1
                    };
                    if !c.is_zero() {
                        out.push((a[ia].0.clone(), c));
                    }
                    ia += 1;
                    ib += 1;
                }
            }
        }
        out.extend(a[ia..].iter().cloned());
        out.extend(b[ib..].iter().map(|(m, c)| (m.clone(), bc(c))));
        out
    }

    /// Finish: hash and intern — the one place a polynomial is hashed and
    /// looked up.
    #[must_use]
    pub fn seal(self) -> MPoly {
        MPoly::from_canonical(self)
    }
}

impl From<&MPoly> for Terms {
    fn from(p: &MPoly) -> Terms {
        p.as_terms().clone()
    }
}

impl Add for &Terms {
    type Output = Terms;
    fn add(self, rhs: &Terms) -> Terms {
        assert_eq!(self.nvars, rhs.nvars);
        Terms {
            nvars: self.nvars,
            terms: Terms::merge(&self.terms, &rhs.terms, false),
        }
    }
}

impl Sub for &Terms {
    type Output = Terms;
    fn sub(self, rhs: &Terms) -> Terms {
        assert_eq!(self.nvars, rhs.nvars);
        Terms {
            nvars: self.nvars,
            terms: Terms::merge(&self.terms, &rhs.terms, true),
        }
    }
}

impl Mul for &Terms {
    type Output = Terms;
    fn mul(self, rhs: &Terms) -> Terms {
        assert_eq!(self.nvars, rhs.nvars);
        let mut pairs = Vec::with_capacity(self.terms.len() * rhs.terms.len());
        for (ma, ca) in &self.terms {
            for (mb, cb) in &rhs.terms {
                pairs.push((ma.mul(mb), ca * cb));
            }
        }
        Terms::from_pairs(self.nvars, pairs)
    }
}

impl Neg for Terms {
    type Output = Terms;
    fn neg(mut self) -> Terms {
        for (_, c) in &mut self.terms {
            *c = -std::mem::replace(c, Rat::zero());
        }
        self
    }
}

/// A polynomial evaluated at a partial rational point
/// ([`MPoly::eval_partial`]), in the smallest form that holds it. Which
/// form is decided after cancellation: a variable counts as left only if
/// it occurs in the value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Partial {
    /// No variable is left.
    Constant(Rat),
    /// Exactly one variable is left: the value as a polynomial in it, of
    /// degree at least 1.
    Univariate(usize, UPoly),
    /// Two or more variables are left: the value, unsealed.
    Terms(Terms),
}

impl Partial {
    /// `u` in variable `v`, a constant when `u` is one.
    fn univariate(v: usize, u: UPoly) -> Partial {
        if u.is_constant() {
            Partial::Constant(u.coeff(0))
        } else {
            Partial::Univariate(v, u)
        }
    }

    /// Classify canonical terms by the variables occurring in them.
    fn from_terms(t: Terms) -> Partial {
        let mut used = (0..t.nvars).filter(|&i| t.terms.iter().any(|(m, _)| m.get(i) > 0));
        match (used.next(), used.next()) {
            (None, _) => {
                Partial::Constant(t.terms.first().map_or_else(Rat::zero, |(_, c)| c.clone()))
            }
            (Some(v), None) => {
                let d = t.terms.iter().map(|(m, _)| m.get(v)).max().unwrap_or(0);
                let mut coeffs = vec![Rat::zero(); d as usize + 1];
                for (m, c) in t.terms {
                    coeffs[m.get(v) as usize] = c;
                }
                Partial::Univariate(v, UPoly::from_coeffs(coeffs))
            }
            (Some(_), Some(_)) => Partial::Terms(t),
        }
    }

    /// Maximum bit length over the nonzero coefficients: exactly
    /// [`MPoly::max_coeff_bits`] of the sealed value.
    #[must_use]
    pub fn max_coeff_bits(&self) -> u64 {
        match self {
            Partial::Constant(c) if c.is_zero() => 0,
            Partial::Constant(c) => c.bit_length(),
            Partial::Univariate(_, u) => u
                .coeffs()
                .iter()
                .filter(|c| !c.is_zero())
                .map(Rat::bit_length)
                .max()
                .unwrap_or(0),
            Partial::Terms(t) => t.max_coeff_bits(),
        }
    }
}

/// The interned payload: canonical terms plus caches computed once, when
/// the interner first takes the polynomial in, and two pure forms written
/// once, on their first use (DESIGN.md §10.2). Immutable otherwise.
pub(crate) struct PolyData {
    /// The canonical term vector and its ring arity.
    pub(crate) body: Terms,
    /// Content hash of `(nvars, terms)` ([`content_hash`]).
    pub(crate) hash: u64,
    /// Max total degree over terms (0 for the zero polynomial).
    pub(crate) total_degree: u32,
    /// `var_degrees[i]` = max exponent of variable `i` (0 if absent).
    pub(crate) var_degrees: Vec<u32>,
    /// [`MPoly::primitive`], once computed: `None` when the polynomial is
    /// its own primitive part.
    pub(crate) primitive: OnceLock<Option<MPoly>>,
    /// [`crate::squarefree_part`], once computed: `None` when the
    /// polynomial is its own squarefree part.
    pub(crate) squarefree: OnceLock<Option<MPoly>>,
}

/// A pure form of a polynomial that its interned entry memoises.
///
/// Both forms are idempotent and a form other than the polynomial itself
/// is primitive, so a slot only ever points at an entry whose own slot for
/// that form reads `None`: memo links are at most two deep and never form
/// an `Arc` cycle, and the interner's `strong_count == 1` sweep still
/// reclaims every entry.
#[derive(Clone, Copy)]
pub(crate) enum Form {
    /// The integer-primitive part with a positive lex-leading coefficient.
    Primitive,
    /// The primitive squarefree part (constants are their own).
    Squarefree,
}

impl Form {
    fn slot(self, data: &PolyData) -> &OnceLock<Option<MPoly>> {
        match self {
            Form::Primitive => &data.primitive,
            Form::Squarefree => &data.squarefree,
        }
    }
}

/// A sparse multivariate polynomial in a fixed number of variables.
///
/// The representation is canonical and hash-consed: no zero coefficients
/// are stored, terms are sorted by exponent vector, and equal polynomials
/// usually share one allocation — so structurally equal polynomials hash
/// equal (in O(1)), which makes `MPoly` usable directly as a memo-cache key.
#[derive(Clone)]
pub struct MPoly {
    data: Arc<PolyData>,
}

impl PartialEq for MPoly {
    fn eq(&self, other: &MPoly) -> bool {
        // Interned handles to equal polynomials are usually the same Arc.
        Arc::ptr_eq(&self.data, &other.data)
            || (self.data.hash == other.data.hash && self.data.body == other.data.body)
    }
}

impl Eq for MPoly {}

impl Hash for MPoly {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // O(1): the content hash was computed once at construction.
        state.write_u64(self.data.hash);
    }
}

impl PolyData {
    /// The payload of a canonical `body` whose content hash is `hash`, with
    /// its degree caches; built on an interner miss only.
    pub(crate) fn new(body: Terms, hash: u64) -> PolyData {
        let mut total_degree = 0u32;
        let mut var_degrees = vec![0u32; body.nvars];
        for (m, _) in &body.terms {
            total_degree = total_degree.max(m.total_degree());
            for (d, e) in var_degrees.iter_mut().zip(m.exps()) {
                *d = (*d).max(e);
            }
        }
        PolyData {
            body,
            hash,
            total_degree,
            var_degrees,
            primitive: OnceLock::new(),
            squarefree: OnceLock::new(),
        }
    }
}

/// Content hash of canonical `(nvars, terms)` under the fixed-key
/// [`ContentHasher`] (deterministic across threads, processes and hosts).
fn content_hash(body: &Terms) -> u64 {
    let mut h = ContentHasher::default();
    h.write_usize(body.nvars);
    body.terms.hash(&mut h);
    h.finish()
}

/// For `x = n/δ` and a degree `d`: the integers `nᵉ·δ^(d−e)` for
/// `e = 0..=d`, and `δ^d`, so that `xᵉ` is the `e`-th over the last.
fn scaled_powers(x: &Rat, d: u32) -> (Vec<Int>, Int) {
    let d = d as usize;
    let mut num = vec![Int::one()];
    let mut den = vec![Int::one()];
    for e in 0..d {
        num.push(&num[e] * x.numer());
        den.push(&den[e] * x.denom());
    }
    let table = (0..=d).map(|e| &num[e] * &den[d - e]).collect();
    (table, den.swap_remove(d))
}

impl MPoly {
    /// Seal a term vector that is already canonical: hash and intern.
    fn from_canonical(body: Terms) -> MPoly {
        let terms = &body.terms;
        debug_assert!(
            terms
                .iter()
                .zip(terms.iter().skip(1))
                .all(|(a, b)| a.0 < b.0),
            "terms not sorted"
        );
        debug_assert!(terms.iter().all(|(_, c)| !c.is_zero()), "zero coefficient");
        let hash = content_hash(&body);
        MPoly {
            data: intern::canonicalize(body, hash),
        }
    }

    /// The canonical term vector, borrowed: arithmetic on it builds an
    /// unsealed [`Terms`] without copying this polynomial.
    #[must_use]
    pub fn as_terms(&self) -> &Terms {
        &self.data.body
    }

    fn terms_slice(&self) -> &[(Mono, Rat)] {
        &self.data.body.terms
    }

    /// The zero polynomial in `nvars` variables.
    #[must_use]
    pub fn zero(nvars: usize) -> MPoly {
        Terms::zero(nvars).seal()
    }

    /// A constant polynomial.
    #[must_use]
    pub fn constant(c: Rat, nvars: usize) -> MPoly {
        Terms::constant(c, nvars).seal()
    }

    /// The variable `x_i`.
    #[must_use]
    pub fn var(i: usize, nvars: usize) -> MPoly {
        Terms::var(i, nvars).seal()
    }

    /// Build from `(monomial, coefficient)` pairs (summing duplicates).
    #[must_use]
    pub fn from_terms(nvars: usize, pairs: impl IntoIterator<Item = (Monomial, Rat)>) -> MPoly {
        let pairs: Vec<(Mono, Rat)> = pairs
            .into_iter()
            .map(|(m, c)| {
                assert_eq!(m.len(), nvars, "monomial arity mismatch");
                (Mono::from_vec(m), c)
            })
            .collect();
        Terms::from_pairs(nvars, pairs).seal()
    }

    /// Deterministic content-derived identity (see [`PolyId`]).
    #[must_use]
    pub fn id(&self) -> PolyId {
        PolyId(self.data.hash)
    }

    /// Number of variables of the ambient ring.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.data.body.nvars
    }

    /// Nonzero terms (lexicographic monomial order, ascending).
    pub fn terms(&self) -> impl DoubleEndedIterator<Item = (&Mono, &Rat)> {
        self.terms_slice().iter().map(|(m, c)| (m, c))
    }

    /// Number of nonzero terms.
    #[must_use]
    pub fn num_terms(&self) -> usize {
        self.terms_slice().len()
    }

    /// True iff the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.data.body.is_zero()
    }

    /// True iff constant (possibly zero). O(1) via the degree cache.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.data.total_degree == 0
    }

    /// The constant value, if constant.
    #[must_use]
    pub fn to_constant(&self) -> Option<Rat> {
        if self.is_zero() {
            return Some(Rat::zero());
        }
        if self.is_constant() {
            return self.terms_slice().first().map(|(_, c)| c.clone());
        }
        None
    }

    /// Degree in variable `i` (0 for the zero polynomial). O(1): cached at
    /// construction.
    #[must_use]
    pub fn degree_in(&self, i: usize) -> u32 {
        self.data.var_degrees.get(i).copied().unwrap_or(0)
    }

    /// Total degree (0 for the zero polynomial). O(1): cached at
    /// construction.
    #[must_use]
    pub fn total_degree(&self) -> u32 {
        self.data.total_degree
    }

    /// True iff variable `i` occurs. O(1) via the degree cache.
    #[must_use]
    pub fn uses_var(&self, i: usize) -> bool {
        self.degree_in(i) > 0
    }

    /// The leading coefficient of `self` viewed as univariate in `var`,
    /// when that coefficient is a constant — exactly
    /// `as_upoly_in(var).last().and_then(MPoly::to_constant)` (so `Some(0)`
    /// for the zero polynomial), read in one scan of the terms without
    /// building any coefficient polynomial.
    #[must_use]
    pub fn lead_coeff_in(&self, var: usize) -> Option<Rat> {
        let d = self.degree_in(var);
        let mut lead = Rat::zero();
        for (m, c) in self.terms_slice() {
            if m.get(var) == d {
                // A term of top degree in `var` that also uses another
                // variable makes the leading coefficient non-constant.
                if m.total_degree() != d {
                    return None;
                }
                lead = c.clone();
            }
        }
        Some(lead)
    }

    /// Multiply by a scalar.
    #[must_use]
    pub fn scale(&self, c: &Rat) -> MPoly {
        Terms::from(self).scale(c).seal()
    }

    /// `self^n`.
    #[must_use]
    pub fn pow(&self, n: u32) -> MPoly {
        self.as_terms().pow(n).seal()
    }

    /// Full evaluation at a rational point.
    #[must_use]
    pub fn eval(&self, point: &[Rat]) -> Rat {
        assert_eq!(point.len(), self.nvars());
        // Per-variable power tables: each `point[i]^e` is computed once per
        // call instead of once per term mentioning `x_i^e`; table sizes come
        // straight from the cached per-variable degrees.
        let powers: Vec<Vec<Rat>> = point
            .iter()
            .zip(&self.data.var_degrees)
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
        for (m, c) in self.terms_slice() {
            let mut t = c.clone();
            for (i, e) in m.exps().enumerate() {
                if e > 0 {
                    t = &t * &powers[i][e as usize];
                }
            }
            acc = &acc + &t;
        }
        acc
    }

    /// Evaluation at a partial rational point: `point[i]` is the value of
    /// variable `i`, or `None` to keep it. One pass over the terms, with a
    /// power table per substituted variable, and nothing sealed: the value
    /// is exactly the chained [`MPoly::substitute`] calls' followed by
    /// [`MPoly::to_constant`] or [`MPoly::to_upoly_in`], in the smallest
    /// form that holds it (see [`Partial`]).
    #[must_use]
    pub fn eval_partial(&self, point: &[Option<Rat>]) -> Partial {
        let nvars = self.nvars();
        assert_eq!(point.len(), nvars);
        let degrees = &self.data.var_degrees;
        // Over one common denominator: with `x_i = n_i/δ_i` of degree `D_i`,
        // a term `(p/q)·Π x_iᵉ` is the integer `p·(L/q)·Π n_iᵉ·δ_i^(D_i−e)`
        // over `L·Π δ_i^(D_i)`, `L` the lcm of the coefficients'
        // denominators. Sums run in `Int`, and each coefficient of the value
        // is reduced once. An empty table marks a kept variable (or one that
        // does not occur).
        let mut scale = Int::one();
        let tables: Vec<Vec<Int>> = point
            .iter()
            .zip(degrees)
            .map(|(x, &d)| match x {
                Some(x) if d > 0 => {
                    let (table, den) = scaled_powers(x, d);
                    scale = &scale * &den;
                    table
                }
                _ => Vec::new(),
            })
            .collect();
        let lcm = self.terms_slice().iter().fold(Int::one(), |l, (_, c)| {
            let q = c.denom();
            if q.is_one() || *q == l {
                l
            } else {
                &l.div_exact(&l.gcd(q)) * q
            }
        });
        let value = |m: &Mono, c: &Rat| {
            let mut t = if *c.denom() == lcm {
                c.numer().clone()
            } else {
                c.numer() * &lcm.div_exact(c.denom())
            };
            for (i, e) in m.exps().enumerate() {
                if let Some(w) = tables[i].get(e as usize) {
                    t = &t * w;
                }
            }
            t
        };
        let scale = &scale * &lcm;
        let reduce = |sum: Int| Rat::new(sum, scale.clone());
        let mut kept = (0..nvars).filter(|&i| point[i].is_none() && degrees[i] > 0);
        match (kept.next(), kept.next()) {
            (None, _) => Partial::Constant(reduce(
                self.terms_slice()
                    .iter()
                    .fold(Int::zero(), |acc, (m, c)| &acc + &value(m, c)),
            )),
            (Some(v), None) => {
                let mut sums = vec![Int::zero(); degrees[v] as usize + 1];
                for (m, c) in self.terms_slice() {
                    sums[m.get(v) as usize] += &value(m, c);
                }
                let coeffs = sums.into_iter().map(reduce).collect();
                Partial::univariate(v, UPoly::from_coeffs(coeffs))
            }
            (Some(_), Some(_)) => {
                let pairs = self
                    .terms_slice()
                    .iter()
                    .map(|(m, c)| {
                        let reduced = (0..nvars)
                            .filter(|&i| !tables[i].is_empty())
                            .fold(m.clone(), |m, i| m.zeroed(i));
                        (reduced, reduce(value(m, c)))
                    })
                    .collect();
                Partial::from_terms(Terms::from_pairs(nvars, pairs))
            }
        }
    }

    /// Substitute a rational value for variable `i` (result keeps the same
    /// ambient arity; variable `i` no longer occurs).
    #[must_use]
    pub fn substitute(&self, i: usize, v: &Rat) -> MPoly {
        assert!(i < self.nvars());
        let pairs = self
            .terms_slice()
            .iter()
            .map(|(m, c)| {
                let e = m.get(i);
                (m.zeroed(i), c * &v.pow(e as i32))
            })
            .collect();
        Terms::from_pairs(self.nvars(), pairs).seal()
    }

    /// Partial derivative with respect to variable `i`.
    #[must_use]
    pub fn derivative(&self, i: usize) -> MPoly {
        // Decrementing one coordinate on every surviving term preserves both
        // lex order and distinctness, so the result is canonical as built.
        let terms = self
            .terms_slice()
            .iter()
            .filter_map(|(m, c)| {
                let e = m.get(i);
                if e == 0 {
                    return None;
                }
                Some((m.with_exp(i, e - 1), c * &Rat::from(i64::from(e))))
            })
            .collect();
        Terms {
            nvars: self.nvars(),
            terms,
        }
        .seal()
    }

    /// View as a univariate polynomial in variable `i`: coefficients (in the
    /// other variables) by ascending power of `x_i`.
    #[must_use]
    pub fn as_upoly_in(&self, i: usize) -> Vec<MPoly> {
        self.coeffs_in(i).into_iter().map(Terms::seal).collect()
    }

    /// [`MPoly::as_upoly_in`] with the coefficients left unsealed, for
    /// kernels that keep computing with them.
    #[must_use]
    pub fn coeffs_in(&self, i: usize) -> Vec<Terms> {
        let nvars = self.nvars();
        let d = self.degree_in(i) as usize;
        let mut buckets: Vec<Terms> = vec![Terms::zero(nvars); d + 1];
        for (m, c) in self.terms_slice() {
            // Terms sharing an `x_i` power keep their relative lex order and
            // distinctness after zeroing coordinate `i`, so each bucket is
            // canonical as collected.
            buckets[m.get(i) as usize]
                .terms
                .push((m.zeroed(i), c.clone()));
        }
        buckets
    }

    /// Inverse of [`MPoly::as_upoly_in`].
    #[must_use]
    pub fn from_upoly_in(i: usize, coeffs: &[MPoly], nvars: usize) -> MPoly {
        let mut pairs = Vec::new();
        for (e, c) in coeffs.iter().enumerate() {
            assert_eq!(c.nvars(), nvars);
            assert!(!c.uses_var(i), "coefficient uses the main variable");
            for (m, a) in c.terms_slice() {
                pairs.push((m.with_exp(i, e as u32), a.clone()));
            }
        }
        Terms::from_pairs(nvars, pairs).seal()
    }

    /// Convert to [`UPoly`] if only variable `i` occurs.
    #[must_use]
    pub fn to_upoly_in(&self, i: usize) -> Option<UPoly> {
        let mut coeffs = vec![Rat::zero(); self.degree_in(i) as usize + 1];
        for (m, c) in self.terms_slice() {
            for (j, e) in m.exps().enumerate() {
                if j != i && e > 0 {
                    return None;
                }
            }
            coeffs[m.get(i) as usize] = c.clone();
        }
        Some(UPoly::from_coeffs(coeffs))
    }

    /// Lift a univariate polynomial into variable `i` of an `nvars`-ring.
    #[must_use]
    pub fn from_upoly(p: &UPoly, i: usize, nvars: usize) -> MPoly {
        let base = Mono::zero(nvars);
        let pairs = p
            .coeffs()
            .iter()
            .enumerate()
            .map(|(e, c)| (base.with_exp(i, e as u32), c.clone()))
            .collect();
        Terms::from_pairs(nvars, pairs).seal()
    }

    /// Rename variables: variable `i` becomes `map[i]` in a ring of
    /// `new_nvars` variables. Used when a stored relation `R(x0, x1)` is
    /// instantiated as `R(u, w)` inside a query (INSTANTIATION step).
    #[must_use]
    pub fn remap_vars(&self, map: &[usize], new_nvars: usize) -> MPoly {
        assert_eq!(map.len(), self.nvars());
        assert!(map.iter().all(|&m| m < new_nvars));
        // The identity map into a ring of the same arity.
        if new_nvars == map.len() && map.iter().enumerate().all(|(i, &m)| i == m) {
            return self.clone();
        }
        let pairs = self
            .terms_slice()
            .iter()
            .map(|(m, c)| {
                // Mapping two sources onto one target is legal (diagonals like
                // R(x, x)); exponents add up.
                let mut nm = vec![0u32; new_nvars];
                for (i, e) in m.exps().enumerate() {
                    nm[map[i]] += e;
                }
                (Mono::from_vec(nm), c.clone())
            })
            .collect();
        Terms::from_pairs(new_nvars, pairs).seal()
    }

    /// Exact division: `self / div`; panics if not exact (callers guarantee
    /// divisibility — Bareiss elimination and discriminant-by-lc division).
    #[must_use]
    pub fn div_exact(&self, div: &MPoly) -> MPoly {
        self.as_terms().div_exact(div.as_terms()).seal()
    }

    /// Integer-primitive normal form with positive lex-leading coefficient
    /// (used to deduplicate CAD projection sets). Computed once per
    /// interned polynomial, then read off its entry.
    #[must_use]
    pub fn primitive(&self) -> MPoly {
        self.memoised(Form::Primitive, MPoly::primitive_uncached)
    }

    /// `form` of this polynomial: the entry's slot when it is filled, else
    /// `compute(self)`, written to the slot. Racing first calls compute
    /// the same interned value and agree on whichever lands first; nothing
    /// blocks while a form is computed. A form other than `self` gets its
    /// own slot filled with `None` as it is stored: both forms are
    /// idempotent.
    pub(crate) fn memoised(&self, form: Form, compute: fn(&MPoly) -> MPoly) -> MPoly {
        let slot = form.slot(&self.data);
        let memo = match slot.get() {
            Some(memo) => memo,
            None => {
                let value = compute(self);
                let memo = (value != *self).then(|| {
                    // Unset, or already `None` from a racing call: a form
                    // is its own form.
                    let own = form.slot(&value.data);
                    let _ = own.set(None);
                    debug_assert!(
                        matches!(own.get(), Some(None)),
                        "a form is its own form: its slot reads `None`"
                    );
                    value
                });
                slot.get_or_init(|| memo)
            }
        };
        memo.clone().unwrap_or_else(|| self.clone())
    }

    /// [`MPoly::primitive`] without the memo.
    fn primitive_uncached(&self) -> MPoly {
        if self.is_zero() {
            return self.clone();
        }
        // Scale by lcm of denominators / gcd of numerators.
        let mut l = cdb_num::Int::one();
        for (_, c) in self.terms_slice() {
            let d = c.denom();
            let g = l.gcd(d);
            l = &(&l / &g) * d;
        }
        let lr = Rat::from(l);
        let mut g = cdb_num::Int::zero();
        for (_, c) in self.terms_slice() {
            g = g.gcd((c * &lr).numer());
        }
        let scale = &lr / &Rat::from(g);
        let lead_sign = self
            .terms_slice()
            .last()
            .map_or(Sign::Zero, |(_, c)| c.sign());
        let scale = if lead_sign == Sign::Neg {
            -scale
        } else {
            scale
        };
        if scale == Rat::one() {
            // Already primitive: the handle itself, no interner round-trip.
            return self.clone();
        }
        self.scale(&scale)
    }

    /// Maximum bit length over coefficients.
    #[must_use]
    pub fn max_coeff_bits(&self) -> u64 {
        self.data.body.max_coeff_bits()
    }

    /// Render with the given variable names.
    #[must_use]
    pub fn display_with(&self, names: &[&str]) -> String {
        assert!(names.len() >= self.nvars());
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut out = String::new();
        // Highest terms first for readability.
        for (m, c) in self.terms_slice().iter().rev() {
            let neg = c.sign() == Sign::Neg;
            if out.is_empty() {
                if neg {
                    out.push('-');
                }
            } else {
                out.push_str(if neg { " - " } else { " + " });
            }
            let a = c.abs();
            let is_const_mono = m.is_constant();
            if a != Rat::one() || is_const_mono {
                out.push_str(&a.to_string());
                if !is_const_mono {
                    out.push('*');
                }
            }
            let mut first = true;
            for (i, e) in m.exps().enumerate() {
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

impl fmt::Display for MPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.nvars()).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        write!(f, "{}", self.display_with(&refs))
    }
}

impl fmt::Debug for MPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MPoly({self})")
    }
}

impl Add for &MPoly {
    type Output = MPoly;
    fn add(self, rhs: &MPoly) -> MPoly {
        (self.as_terms() + rhs.as_terms()).seal()
    }
}

impl Sub for &MPoly {
    type Output = MPoly;
    fn sub(self, rhs: &MPoly) -> MPoly {
        (self.as_terms() - rhs.as_terms()).seal()
    }
}

impl Neg for &MPoly {
    type Output = MPoly;
    fn neg(self) -> MPoly {
        (-Terms::from(self)).seal()
    }
}

impl Mul for &MPoly {
    type Output = MPoly;
    fn mul(self, rhs: &MPoly) -> MPoly {
        (self.as_terms() * rhs.as_terms()).seal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgcd::{squarefree_part, squarefree_uncached};
    use proptest::prelude::*;

    /// The paper's running example: S(x, y) uses 4x² − y − 20x + 25.
    fn paper_poly() -> MPoly {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let c = |v: i64| MPoly::constant(Rat::from(v), 2);
        &(&(&c(4) * &x.pow(2)) - &y) - &(&(&c(20) * &x) - &c(25))
    }

    #[test]
    fn construction_and_eval() {
        let p = paper_poly();
        assert_eq!(p.nvars(), 2);
        assert_eq!(p.degree_in(0), 2);
        assert_eq!(p.degree_in(1), 1);
        assert_eq!(p.total_degree(), 2);
        // At (2.5, 0) the polynomial vanishes.
        assert!(p.eval(&["5/2".parse().unwrap(), Rat::zero()]).is_zero());
        assert_eq!(p.eval(&[Rat::zero(), Rat::zero()]), Rat::from(25i64));
    }

    #[test]
    fn arithmetic_ring_identities() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let a = &x + &y;
        let b = &x - &y;
        // (x+y)(x-y) = x² − y²
        assert_eq!(&a * &b, &x.pow(2) - &y.pow(2));
        assert!((&a - &a).is_zero());
    }

    #[test]
    fn substitution_and_to_upoly() {
        let p = paper_poly();
        // Substitute y = 9: 4x² − 20x + 16.
        let q = p.substitute(1, &Rat::from(9i64));
        let u = q.to_upoly_in(0).unwrap();
        assert_eq!(u, UPoly::from_ints(&[16, -20, 4]));
        // Substituting x leaves y.
        let r = p.substitute(0, &Rat::zero());
        assert_eq!(r.to_upoly_in(1).unwrap(), UPoly::from_ints(&[25, -1]));
        assert!(p.to_upoly_in(0).is_none());
    }

    #[test]
    fn upoly_view_roundtrip() {
        let p = paper_poly();
        let coeffs = p.as_upoly_in(1);
        assert_eq!(coeffs.len(), 2);
        assert_eq!(coeffs[1], MPoly::constant(Rat::from(-1i64), 2));
        let back = MPoly::from_upoly_in(1, &coeffs, 2);
        assert_eq!(back, p);
    }

    #[test]
    fn derivative() {
        let p = paper_poly();
        let dx = p.derivative(0); // 8x − 20
        assert_eq!(dx.to_upoly_in(0).unwrap(), UPoly::from_ints(&[-20, 8]));
        let dy = p.derivative(1);
        assert_eq!(dy.to_constant(), Some(Rat::from(-1i64)));
    }

    #[test]
    fn exact_division() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let a = &x + &y;
        let b = &x - &y;
        let prod = &a * &b;
        assert_eq!(prod.div_exact(&a), b);
        assert_eq!(prod.div_exact(&b), a);
        let sq = a.pow(3);
        assert_eq!(sq.div_exact(&a.pow(2)), a);
    }

    #[test]
    fn pow_matches_repeated_product() {
        let p =
            &(&MPoly::var(0, 2) - &MPoly::var(1, 2)) + &MPoly::constant(Rat::from_ints(1, 2), 2);
        let mut want = MPoly::constant(Rat::one(), 2);
        for n in 0..10 {
            assert_eq!(p.pow(n), want, "p^{n}");
            want = &want * &p;
        }
        assert!(MPoly::zero(2).pow(3).is_zero());
        assert_eq!(MPoly::zero(2).pow(0), MPoly::constant(Rat::one(), 2));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn division_not_exact_panics() {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let _ = (&x + &MPoly::constant(Rat::one(), 2)).div_exact(&y);
    }

    #[test]
    fn primitive_normalization() {
        let x = MPoly::var(0, 1);
        let p = &x.scale(&"2/3".parse().unwrap()) + &MPoly::constant("4/3".parse().unwrap(), 1);
        let prim = p.primitive();
        // (2/3)x + 4/3 → x + 2
        assert_eq!(prim, &x + &MPoly::constant(Rat::from(2i64), 1));
        // Negative lead flips.
        let q = (&p).neg().primitive();
        assert_eq!(q, prim);
    }

    #[test]
    fn display_human_readable() {
        let p = paper_poly();
        assert_eq!(p.display_with(&["x", "y"]), "4*x^2 - 20*x - y + 25");
    }

    #[test]
    fn interning_shares_and_ids_are_content_derived() {
        let p = paper_poly();
        let q = paper_poly();
        // Equal content → equal id, equal handle.
        assert_eq!(p, q);
        assert_eq!(p.id(), q.id());
        // And one shared allocation.
        assert!(Arc::ptr_eq(&p.data, &q.data));
        // Clones are pointer bumps.
        let r = p.clone();
        assert!(Arc::ptr_eq(&p.data, &r.data));
        // Different content → different id (hash collision aside).
        assert_ne!(p.id(), MPoly::var(0, 2).id());
    }

    /// Ids are a pure function of content: pinned literals, the same in
    /// every process and on every host.
    #[test]
    fn ids_are_pinned() {
        let x0 = MPoly::var(0, 2);
        let p = &(&MPoly::constant(Rat::from(3), 2) * &x0.pow(2)) - &MPoly::var(1, 2);
        assert_eq!(x0.id(), PolyId(16_588_870_406_903_969_835));
        assert_eq!(p.id(), PolyId(8_755_707_371_278_487_562));
    }

    /// No two polynomials `Σ c_ij x^i y^j`, `c_ij ∈ {−1, 0, 1}`, `i, j ≤ 2`
    /// share a content hash.
    #[test]
    fn small_polynomials_have_distinct_ids() {
        let monos: Vec<Mono> = (0..3)
            .flat_map(|i| (0..3).map(move |j| Mono::from_exps(&[i, j])))
            .collect();
        let mut ids = std::collections::BTreeSet::new();
        for mut code in 0..3usize.pow(9) {
            let mut pairs = Vec::new();
            for m in &monos {
                pairs.push((m.clone(), Rat::from(code as i64 % 3 - 1)));
                code /= 3;
            }
            assert!(ids.insert(Terms::from_pairs(2, pairs).seal().id()));
        }
        assert_eq!(ids.len(), 19_683);
    }

    #[test]
    fn hash_is_content_hash() {
        let p = paper_poly();
        let q = paper_poly();
        let h = |x: &MPoly| {
            let mut s = ContentHasher::default();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&p), h(&q));
    }

    /// `r · (a·x + b) · Π (c·x + d·y^j + f)^k` in 2 variables: a rational
    /// scale of either sign (content, a negative lex-leading coefficient,
    /// rational coefficients), content in the main variable `y`, and
    /// repeated factors; zero and constants included.
    fn memo_case() -> impl Strategy<Value = MPoly> {
        let rat = (-6i64..=6, 1i64..=5).prop_map(|(n, d)| Rat::from_ints(n, d));
        let factor = (-2i64..=2, -2i64..=2, 1u32..=2, -2i64..=2, 1u32..=3);
        (
            rat,
            (-2i64..=2, -2i64..=2),
            prop::collection::vec(factor, 0..=2),
        )
            .prop_map(|(r, (a, b), factors)| {
                let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
                let k = |v: i64| MPoly::constant(Rat::from(v), 2);
                let mut p = (&(&k(a) * &x) + &k(b)).scale(&r);
                for (c, d, j, f, m) in factors {
                    p = &p * &(&(&(&k(c) * &x) + &(&k(d) * &y.pow(j))) + &k(f)).pow(m);
                }
                p
            })
    }

    /// The form each slot of `p` holds, or `None` while it is unwritten.
    fn slots(p: &MPoly) -> [Option<Option<MPoly>>; 2] {
        [
            p.data.primitive.get().cloned(),
            p.data.squarefree.get().cloned(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The memoised primitive and squarefree parts equal the unmemoised
        /// computations on the first call, on the second, and from 4
        /// threads racing on a fresh polynomial; each form's own slot then
        /// reads `None` (it is its own form), and so does that of a
        /// polynomial that is already in form.
        #[test]
        fn memoised_forms_equal_the_unmemoised(p in memo_case(), t in 7i64..=1000) {
            let (prim, sf) = (p.primitive_uncached(), squarefree_uncached(&p));
            // Idempotence, checked without the memo: it is what lets a form's
            // own slot read `None`.
            prop_assert_eq!(prim.primitive_uncached(), prim.clone());
            prop_assert_eq!(squarefree_uncached(&sf), sf.clone());
            for _ in 0..2 {
                prop_assert_eq!(p.primitive(), prim.clone());
                prop_assert_eq!(squarefree_part(&p), sf.clone());
            }
            for (form, f) in [(&prim, 0), (&sf, 1)] {
                prop_assert_eq!(slots(form)[f].clone(), Some(None));
            }
            let filled = |form: &MPoly| Some((form != &p).then(|| form.clone()));
            prop_assert_eq!(slots(&p), [filled(&prim), filled(&sf)]);
            // The generator draws no denominator of 1009, so the racers
            // find `q`'s slots empty unless an earlier race drew `q` too.
            let q = p.scale(&Rat::from_ints(t, 1009));
            let want = (q.primitive_uncached(), squarefree_uncached(&q));
            let barrier = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                let racers: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            (q.primitive(), squarefree_part(&q))
                        })
                    })
                    .collect();
                for r in racers {
                    assert_eq!(r.join().ok(), Some(want.clone()));
                }
            });
        }

        /// `remap_vars` — identity, strictly increasing and arbitrary maps,
        /// diagonals included — equals renaming term by term and
        /// re-canonicalising. Exponents of 200 make a diagonal's sum spill
        /// out of the packed monomial.
        #[test]
        fn remap_vars_renames_term_by_term(
            terms in prop::collection::vec(
                (
                    prop::collection::vec((0u32..=3).prop_map(|e| if e == 3 { 200 } else { e }), 3),
                    -3i64..=3,
                ),
                0..=5,
            ),
            extra in 0usize..=2,
            targets in prop::collection::vec(0usize..=4, 3),
        ) {
            let p = MPoly::from_terms(3, terms.iter().map(|(m, c)| (m.clone(), Rat::from(*c))));
            let new_nvars = 3 + extra;
            let renamed = |map: &[usize]| {
                MPoly::from_terms(new_nvars, p.terms().map(|(m, c)| {
                    let mut out = vec![0u32; new_nvars];
                    for (i, e) in m.exps().enumerate() {
                        out[map[i]] += e;
                    }
                    (out, c.clone())
                }))
            };
            let arbitrary: Vec<usize> = targets.iter().map(|&t| t % new_nvars).collect();
            let increasing = [0, 1 + extra / 2, 2 + extra];
            for map in [&arbitrary[..], &increasing[..]] {
                prop_assert_eq!(p.remap_vars(map, new_nvars), renamed(map));
            }
            prop_assert_eq!(p.remap_vars(&[0, 1, 2], 3), p);
        }
    }
}
