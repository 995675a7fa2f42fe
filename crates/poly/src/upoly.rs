//! Dense univariate polynomials over `Q`.

use cdb_num::modp::{ModP, PRIMES};
use cdb_num::{fintv, FIntv, Int, Rat, RatInterval, Sign};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

/// A univariate polynomial with rational coefficients, dense representation,
/// normalized so the leading coefficient is nonzero (the zero polynomial has
/// an empty coefficient vector).
///
/// Coefficients live behind `Arc`, so `Clone` is a pointer bump (Sturm
/// chains clone polynomials freely). No map or memo key hashes a `UPoly`,
/// so none carries a content hash.
#[derive(Clone)]
pub struct UPoly {
    /// `coeffs[i]` is the coefficient of `x^i`.
    coeffs: Arc<[Rat]>,
}

impl PartialEq for UPoly {
    fn eq(&self, other: &UPoly) -> bool {
        Arc::ptr_eq(&self.coeffs, &other.coeffs) || self.coeffs[..] == other.coeffs[..]
    }
}

impl Eq for UPoly {}

impl UPoly {
    /// The zero polynomial.
    #[must_use]
    pub fn zero() -> UPoly {
        UPoly::from_coeffs(Vec::new())
    }

    /// The constant polynomial 1.
    #[must_use]
    pub fn one() -> UPoly {
        UPoly::constant(Rat::one())
    }

    /// The monomial `x`.
    #[must_use]
    pub fn x() -> UPoly {
        UPoly::from_coeffs(vec![Rat::zero(), Rat::one()])
    }

    /// A constant polynomial.
    #[must_use]
    pub fn constant(c: Rat) -> UPoly {
        UPoly::from_coeffs(vec![c])
    }

    /// From low-to-high coefficients; trailing zeros removed.
    #[must_use]
    pub fn from_coeffs(mut coeffs: Vec<Rat>) -> UPoly {
        while coeffs.last().is_some_and(Rat::is_zero) {
            coeffs.pop();
        }
        UPoly {
            coeffs: coeffs.into(),
        }
    }

    /// From integer coefficients, low-to-high.
    #[must_use]
    pub fn from_ints(coeffs: &[i64]) -> UPoly {
        UPoly::from_coeffs(coeffs.iter().map(|&c| Rat::from(c)).collect())
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

    /// Degree; the zero polynomial has degree `None`.
    #[must_use]
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
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

    /// Horner evaluation at a rational point.
    #[must_use]
    pub fn eval(&self, x: &Rat) -> Rat {
        let mut acc = Rat::zero();
        for c in self.coeffs.iter().rev() {
            acc = &(&acc * x) + c;
        }
        acc
    }

    /// Sign of the value at a rational point.
    #[must_use]
    pub fn sign_at(&self, x: &Rat) -> Sign {
        self.eval(x).sign()
    }

    /// Horner evaluation at an `f64` point (fast, approximate).
    #[must_use]
    // cdb-lint: allow(float) — approximate fast path for diagnostics/plotting;
    // every exact decision goes through `sign_at`/`eval_interval` instead
    pub fn eval_f64(&self, x: f64) -> f64 {
        let mut acc = 0.0; // cdb-lint: allow(float) — same approximate fast path
        for c in self.coeffs.iter().rev() {
            acc = acc * x + c.to_f64();
        }
        acc
    }

    /// Interval extension (Horner over exact rational intervals).
    #[must_use]
    pub fn eval_interval(&self, x: &RatInterval) -> RatInterval {
        let mut acc = RatInterval::point(Rat::zero());
        for c in self.coeffs.iter().rev() {
            acc = acc.mul(x).add(&RatInterval::point(c.clone()));
        }
        acc
    }

    /// Split-word interval extension: Horner over outward-rounded `f64`
    /// enclosures. The result is a guaranteed enclosure of the exact value
    /// of the polynomial over `x` (inclusion-monotone interval arithmetic
    /// with directed rounding), so a definite [`FIntv::sign`] of the result
    /// is the true sign everywhere on `x`.
    #[must_use]
    pub fn eval_fintv(&self, x: &FIntv) -> FIntv {
        match self.coeffs.last() {
            None => FIntv::zero(),
            Some(top) => {
                let mut acc = FIntv::from(top);
                for c in self.coeffs.iter().rev().skip(1) {
                    acc = acc.mul(x).add(&FIntv::from(c));
                }
                acc
            }
        }
    }

    /// Filtered sign at a rational point: try the cheap outward-rounded
    /// float enclosure first and certify with exact arithmetic only when
    /// the enclosure straddles zero. Always equal to [`UPoly::sign_at`].
    #[must_use]
    pub fn fsign_at(&self, x: &Rat) -> Sign {
        fintv::filtered(|| self.eval_fintv(&FIntv::from(x))).unwrap_or_else(|| self.sign_at(x))
    }

    /// Filtered sign at a pre-converted float enclosure of a rational
    /// point; `x` is the exact point, `fx` must enclose it. Used by hot
    /// loops (root isolation's Sturm chain) that evaluate many polynomials
    /// at one point.
    #[must_use]
    pub fn fsign_at_enclosed(&self, x: &Rat, fx: &FIntv) -> Sign {
        fintv::filtered(|| self.eval_fintv(fx)).unwrap_or_else(|| self.sign_at(x))
    }

    /// Formal derivative.
    #[must_use]
    pub fn derivative(&self) -> UPoly {
        if self.coeffs.len() <= 1 {
            return UPoly::zero();
        }
        UPoly::from_coeffs(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, c)| c * &Rat::from(i as i64))
                .collect(),
        )
    }

    /// A primitive (an antiderivative with zero constant term) — used by the
    /// SURFACE/VOLUME aggregate modules for exact integration of polynomial
    /// bounds (the paper's §2 example integrates `F(x) = 4/3 x³ − 10x² + 25x`).
    #[must_use]
    pub fn antiderivative(&self) -> UPoly {
        if self.is_zero() {
            return UPoly::zero();
        }
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + 1);
        coeffs.push(Rat::zero());
        for (i, c) in self.coeffs.iter().enumerate() {
            coeffs.push(c / &Rat::from(i as i64 + 1));
        }
        UPoly::from_coeffs(coeffs)
    }

    /// Exact definite integral over `[a, b]`.
    #[must_use]
    pub fn integrate(&self, a: &Rat, b: &Rat) -> Rat {
        let f = self.antiderivative();
        &f.eval(b) - &f.eval(a)
    }

    /// Multiply by a scalar.
    #[must_use]
    pub fn scale(&self, c: &Rat) -> UPoly {
        if c.is_zero() {
            return UPoly::zero();
        }
        // Scaling by a nonzero rational keeps the leading coefficient
        // nonzero; `from_coeffs` recomputes the content hash.
        UPoly::from_coeffs(self.coeffs.iter().map(|a| a * c).collect())
    }

    /// Make monic (leading coefficient 1); panics on zero.
    #[must_use]
    pub fn monic(&self) -> UPoly {
        assert!(!self.is_zero());
        self.scale(&self.leading().recip())
    }

    /// Polynomial division with remainder: `self = q*div + r`, `deg r < deg div`.
    #[must_use]
    pub fn divrem(&self, div: &UPoly) -> (UPoly, UPoly) {
        assert!(!div.is_zero(), "polynomial division by zero");
        if self.deg() < div.deg() || self.is_zero() {
            return (UPoly::zero(), self.clone());
        }
        let mut rem = self.coeffs.to_vec();
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
        (UPoly::from_coeffs(q), UPoly::from_coeffs(rem))
    }

    /// Exact division (panics in debug if not exact).
    #[must_use]
    pub fn div_exact(&self, div: &UPoly) -> UPoly {
        let (q, r) = self.divrem(div);
        debug_assert!(r.is_zero(), "UPoly::div_exact: nonzero remainder");
        q
    }

    /// Integer-primitive form: the unique positive-rational multiple of
    /// `self` with coprime integer coefficients and positive leading
    /// coefficient.
    #[must_use]
    pub fn primitive(&self) -> UPoly {
        let mut ints = self.primitive_ints();
        if self.leading().sign() == Sign::Neg {
            negate(&mut ints);
        }
        UPoly::from_int_coeffs(ints)
    }

    /// The unique *positive*-rational multiple of `self` with coprime
    /// integer coefficients, low-to-high: every coefficient keeps its sign.
    /// This is the operand form of the integer kernels ([`UPoly::gcd`] and
    /// the Sturm chain of root isolation); empty for the zero polynomial.
    pub(crate) fn primitive_ints(&self) -> Vec<Int> {
        // lcm of denominators.
        let mut l = Int::one();
        for c in self.coeffs.iter() {
            let d = c.denom();
            let g = l.gcd(d);
            l = &(&l / &g) * d;
        }
        let mut ints: Vec<Int> = self
            .coeffs
            .iter()
            .map(|c| c.numer() * &(&l / c.denom()))
            .collect();
        divide_content(&mut ints);
        ints
    }

    /// From integer coefficients, low-to-high (no `Rat` normalisation: an
    /// integer over 1 is already in lowest terms).
    pub(crate) fn from_int_coeffs(ints: Vec<Int>) -> UPoly {
        UPoly::from_coeffs(ints.into_iter().map(Rat::from).collect())
    }

    /// Maximum bit length over all coefficient numerators/denominators —
    /// the "size" used by the finite-precision semantics.
    #[must_use]
    pub fn max_coeff_bits(&self) -> u64 {
        self.coeffs.iter().map(Rat::bit_length).max().unwrap_or(0)
    }

    /// Monic GCD in `Q[x]`, computed on integers (DESIGN.md §10.1): both
    /// operands become their primitive integer multiples once, a one-prime
    /// modular Euclid settles the coprime case (`coprime_mod_prime`, exact),
    /// and anything else runs the primitive pseudo-remainder sequence
    /// (`prem_primitive`) — no `Rat` is built until the final `monic()`.
    /// The monic gcd is unique, so the result does not depend on the route.
    #[must_use]
    pub fn gcd(&self, other: &UPoly) -> UPoly {
        if self.is_zero() {
            return if other.is_zero() {
                UPoly::zero()
            } else {
                other.monic()
            };
        }
        if other.is_zero() {
            return self.monic();
        }
        let mut a = self.primitive_ints();
        let mut b = other.primitive_ints();
        if a.len() < b.len() {
            std::mem::swap(&mut a, &mut b);
        }
        if coprime_mod_prime(&a, &b) {
            return UPoly::one();
        }
        while !b.is_empty() {
            let r = prem_primitive(&a, &b);
            a = b;
            b = r;
        }
        if a.len() <= 1 {
            UPoly::one()
        } else {
            UPoly::from_int_coeffs(a).monic()
        }
    }

    /// Squarefree part `self / gcd(self, self')` (monic).
    #[must_use]
    pub fn squarefree(&self) -> UPoly {
        if self.is_constant() {
            return self.clone();
        }
        if self.deg() == 1 {
            // Its derivative is a nonzero constant: the gcd is 1.
            return self.monic();
        }
        let g = self.gcd(&self.derivative());
        if g.is_constant() {
            self.monic()
        } else {
            self.div_exact(&g).monic()
        }
    }

    /// Cauchy root bound: every real root has `|root| <= bound`.
    #[must_use]
    pub fn cauchy_bound(&self) -> Rat {
        assert!(!self.is_zero());
        let lead = self.leading().abs();
        let mut m = Rat::zero();
        for c in &self.coeffs[..self.coeffs.len() - 1] {
            let q = &c.abs() / &lead;
            if q > m {
                m = q;
            }
        }
        &m + &Rat::one()
    }

    /// Substitute another polynomial: `self(g(x))`.
    #[must_use]
    pub fn compose(&self, g: &UPoly) -> UPoly {
        let mut acc = UPoly::zero();
        for c in self.coeffs.iter().rev() {
            acc = &(&acc * g) + &UPoly::constant(c.clone());
        }
        acc
    }

    /// `self^n`.
    #[must_use]
    pub fn pow(&self, mut n: u32) -> UPoly {
        // Binary exponentiation: O(log n) polynomial multiplications.
        let mut acc = UPoly::one();
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
}

/// Negate every coefficient in place.
pub(crate) fn negate(v: &mut [Int]) {
    for c in v {
        *c = -std::mem::take(c);
    }
}

/// Divide the (positive) content out of `v`; a zero vector is left alone.
fn divide_content(v: &mut [Int]) {
    let mut g = Int::zero();
    for c in v.iter() {
        g = g.gcd(c);
        if g.is_one() {
            return;
        }
    }
    if !g.is_zero() {
        for c in v {
            *c = c.div_exact(&g);
        }
    }
}

/// Sign-preserving primitive pseudo-remainder of integer polynomials
/// (low-to-high, leading entries nonzero, `deg a >= deg b` in every use):
/// the primitive *positive* integer multiple of `rem(a, b)`, empty when `b`
/// divides `a` over `Q`. Each elimination step is
/// `r <- |lc(b)|·r − sgn(lc(b))·r_k·x^(k−n)·b`, which scales `r` by the
/// positive `|lc(b)|` only, so the sign of the true remainder survives; the
/// content is divided out once at the end. `rem(a, 0) = a`.
pub(crate) fn prem_primitive(a: &[Int], b: &[Int]) -> Vec<Int> {
    let mut r = a.to_vec();
    if let Some((lc, low)) = b.split_last() {
        let scale = lc.abs();
        while r.len() > low.len() {
            let Some(top) = r.pop() else { break };
            if top.is_zero() {
                continue;
            }
            let f = if lc.is_negative() { -top } else { top };
            let shift = r.len() - low.len();
            let (below, aligned) = r.split_at_mut(shift);
            for c in below {
                *c = &*c * &scale;
            }
            for (c, bc) in aligned.iter_mut().zip(low) {
                *c = &(&*c * &scale) - &(&f * bc);
            }
        }
        while r.last().is_some_and(Int::is_zero) {
            r.pop();
        }
    }
    divide_content(&mut r);
    r
}

/// One-prime coprimality certificate for primitive integer operands: `true`
/// only if `gcd(a, b) = 1` in `Q[x]`. Exact, not a heuristic: when the prime
/// divides neither leading coefficient, the primitive integer gcd `g`
/// divides both operands over `Z` (Gauss), `lc(g)` divides both leading
/// coefficients, so `g mod p` keeps its degree and divides both images —
/// `deg g <= deg gcd_p`. A constant `gcd_p` therefore proves `deg g = 0`.
/// `false` (bad prime, or a non-constant modular gcd, lucky or not) proves
/// nothing and the caller runs the integer remainder sequence.
fn coprime_mod_prime(a: &[Int], b: &[Int]) -> bool {
    let Some(&p) = PRIMES.first() else {
        return false;
    };
    let f = ModP::new(p);
    let image = |v: &[Int]| -> Vec<u64> { v.iter().map(|c| f.from_int(c)).collect() };
    let (mut a, mut b) = (image(a), image(b));
    if a.last() == Some(&0) || b.last() == Some(&0) {
        return false; // the prime divides a leading coefficient
    }
    // Euclid in Z_p[x]; `b` keeps a nonzero leading entry throughout.
    while let Some((&lc, low)) = b.split_last() {
        if low.is_empty() {
            return true; // nonzero constant remainder
        }
        while a.len() > low.len() {
            let Some(top) = a.pop() else { break };
            // a <- lc·a − top·x^shift·b: a unit multiple of the remainder.
            let shift = a.len() - low.len();
            let (below, aligned) = a.split_at_mut(shift);
            for c in below {
                *c = f.mul(*c, lc);
            }
            for (c, bc) in aligned.iter_mut().zip(low) {
                *c = f.sub(f.mul(*c, lc), f.mul(top, *bc));
            }
        }
        while a.last() == Some(&0) {
            a.pop();
        }
        std::mem::swap(&mut a, &mut b);
    }
    false // `b` ran out: the last divisor, of degree >= 1, is the modular gcd
}

impl fmt::Display for UPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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

impl fmt::Debug for UPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPoly({self})")
    }
}

impl Add for &UPoly {
    type Output = UPoly;
    fn add(self, rhs: &UPoly) -> UPoly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(&self.coeff(i) + &rhs.coeff(i));
        }
        UPoly::from_coeffs(out)
    }
}

impl Sub for &UPoly {
    type Output = UPoly;
    fn sub(self, rhs: &UPoly) -> UPoly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(&self.coeff(i) - &rhs.coeff(i));
        }
        UPoly::from_coeffs(out)
    }
}

impl Mul for &UPoly {
    type Output = UPoly;
    fn mul(self, rhs: &UPoly) -> UPoly {
        if self.is_zero() || rhs.is_zero() {
            return UPoly::zero();
        }
        // Schoolbook: quadratic and cache-friendly.
        let mut out = vec![Rat::zero(); self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, x) in self.coeffs.iter().enumerate() {
            if x.is_zero() {
                continue;
            }
            for (j, y) in rhs.coeffs.iter().enumerate() {
                out[i + j] = &out[i + j] + &(x * y);
            }
        }
        UPoly::from_coeffs(out)
    }
}

impl Neg for &UPoly {
    type Output = UPoly;
    fn neg(self) -> UPoly {
        UPoly::from_coeffs(self.coeffs.iter().map(|c| -c.clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[i64]) -> UPoly {
        UPoly::from_ints(coeffs)
    }

    #[test]
    fn construction_normalizes() {
        assert!(p(&[0, 0]).is_zero());
        assert_eq!(p(&[1, 2, 0]).deg(), 1);
        assert_eq!(UPoly::x().deg(), 1);
    }

    /// Equality is of coefficients, whichever way they were built.
    #[test]
    fn equality_across_construction_paths() {
        let padded =
            UPoly::from_coeffs(vec![Rat::from(-1i64), Rat::zero(), Rat::one(), Rat::zero()]);
        let product = &p(&[1, 1]) * &p(&[-1, 1]);
        assert_eq!(padded, p(&[-1, 0, 1]));
        assert_eq!(product, padded);
        assert_eq!(&product - &padded, UPoly::zero());
        assert_ne!(padded, p(&[-1, 0, 2]));
        assert_ne!(padded, p(&[-1, 0, 1, 1]));
    }

    #[test]
    fn evaluation() {
        // 4x^2 - 20x + 25 at 2.5 = 0 (the paper's Figure 1 output poly).
        let q = p(&[25, -20, 4]);
        assert!(q.eval(&"5/2".parse().unwrap()).is_zero());
        assert_eq!(q.eval(&Rat::zero()), Rat::from(25i64));
        assert_eq!(q.sign_at(&Rat::from(10i64)), Sign::Pos);
    }

    #[test]
    fn arithmetic() {
        let a = p(&[1, 1]); // 1 + x
        let b = p(&[-1, 1]); // -1 + x
        assert_eq!(&a * &b, p(&[-1, 0, 1]));
        assert_eq!(&a + &b, p(&[0, 2]));
        assert_eq!(&a - &b, p(&[2]));
    }

    #[test]
    fn division() {
        let f = p(&[-1, 0, 0, 1]); // x^3 - 1
        let g = p(&[-1, 1]); // x - 1
        let (q, r) = f.divrem(&g);
        assert_eq!(q, p(&[1, 1, 1]));
        assert!(r.is_zero());
        let (q2, r2) = p(&[1, 0, 1]).divrem(&p(&[1, 1]));
        assert_eq!(q2, p(&[-1, 1]));
        assert_eq!(r2, p(&[2]));
    }

    #[test]
    fn derivative_and_integral() {
        let f = p(&[25, -20, 4]);
        assert_eq!(f.derivative(), p(&[-20, 8]));
        // ∫_1^4 (-4x² + 20x − 25) dx = -9 (the paper's surface computation
        // inner integral: 27 - 18 = 9 with opposite sign conventions).
        let g = p(&[-25, 20, -4]);
        assert_eq!(g.integrate(&Rat::one(), &Rat::from(4i64)), Rat::from(-9i64));
    }

    #[test]
    fn gcd_and_squarefree() {
        let f = &p(&[-1, 1]) * &p(&[-1, 1]); // (x-1)^2
        let g = &p(&[-1, 1]) * &p(&[2, 1]); // (x-1)(x+2)
        assert_eq!(f.gcd(&g), p(&[-1, 1]));
        let h = &f * &p(&[3, 1]);
        assert_eq!(h.squarefree(), (&p(&[-1, 1]) * &p(&[3, 1])).monic());
    }

    #[test]
    fn primitive_form() {
        let f = UPoly::from_coeffs(vec!["1/2".parse().unwrap(), "3/4".parse().unwrap()]);
        assert_eq!(f.primitive(), p(&[2, 3]));
        let g = p(&[-4, -6]);
        assert_eq!(g.primitive(), p(&[2, 3])); // sign normalized positive lead
    }

    #[test]
    fn cauchy_bound_contains_roots() {
        let f = p(&[-6, 11, -6, 1]); // roots 1, 2, 3
        let b = f.cauchy_bound();
        assert!(b >= Rat::from(3i64));
    }

    #[test]
    fn composition() {
        let f = p(&[0, 0, 1]); // x^2
        let h = f.compose(&p(&[1, 1, 1]));
        assert_eq!(h, &p(&[1, 1, 1]) * &p(&[1, 1, 1]));
    }

    #[test]
    fn interval_evaluation_encloses() {
        let f = p(&[25, -20, 4]);
        let iv = RatInterval::new(Rat::from(2i64), Rat::from(3i64));
        let out = f.eval_interval(&iv);
        for x in ["2", "5/2", "3"] {
            let v = f.eval(&x.parse().unwrap());
            assert!(out.contains(&v));
        }
    }

    #[test]
    fn display() {
        assert_eq!(p(&[25, -20, 4]).to_string(), "4*x^2 - 20*x + 25");
        assert_eq!(p(&[0, 1]).to_string(), "x");
        assert_eq!(UPoly::zero().to_string(), "0");
    }
}
