//! Exact rational numbers over [`Int`].
//!
//! Rationals are the working field of quantifier elimination: isolating
//! interval endpoints, CAD sample points and polynomial coefficients all live
//! in `Q`. The representation is always normalized (`den > 0`, `gcd = 1`) so
//! equality is structural.
//!
//! Because both operands arrive in that form, the operators never need the
//! textbook "cross-multiply, then divide by the gcd" step. They follow GMP's
//! `mpq` rules instead (DESIGN.md §10.3): integer operands take plain `Int`
//! arithmetic, a sum divides only by the gcd of the denominators (Henrici),
//! and a product cancels across before it multiplies, so the result is
//! canonical as built. [`Rat::new`] remains the one place that reduces an
//! arbitrary fraction.

use crate::int::{Int, ParseIntError};
use crate::Sign;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Arbitrary-precision rational number, always normalized.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: Int,
    /// Strictly positive.
    den: Int,
}

impl Rat {
    /// 0/1.
    #[must_use]
    pub fn zero() -> Rat {
        Rat {
            num: Int::zero(),
            den: Int::one(),
        }
    }

    /// 1/1.
    #[must_use]
    pub fn one() -> Rat {
        Rat {
            num: Int::one(),
            den: Int::one(),
        }
    }

    /// Construct and normalize `num/den`. Panics if `den == 0`.
    #[must_use]
    pub fn new(num: Int, den: Int) -> Rat {
        assert!(!den.is_zero(), "rational with zero denominator");
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        if num.is_zero() {
            return Rat::zero();
        }
        let g = num.gcd(&den);
        if g.is_one() {
            Rat { num, den }
        } else {
            Rat {
                num: num.div_exact(&g),
                den: den.div_exact(&g),
            }
        }
    }

    /// Wrap a fraction the caller has already put in canonical form
    /// (`den > 0`, `gcd(num, den) = 1`, so `0` is `0/1`). Debug builds,
    /// the test suites among them, re-check the gcd the release build
    /// relies on the arithmetic rules to have made 1.
    fn canonical(num: Int, den: Int) -> Rat {
        debug_assert!(den.sign() == Sign::Pos, "canonical denominator is positive");
        debug_assert!(num.gcd(&den).is_one(), "canonical fraction is reduced");
        Rat { num, den }
    }

    /// Construct from integers.
    #[must_use]
    pub fn from_ints(num: i64, den: i64) -> Rat {
        Rat::new(Int::from(num), Int::from(den))
    }

    /// Numerator (sign-carrying).
    #[must_use]
    pub fn numer(&self) -> &Int {
        &self.num
    }

    /// Denominator (always positive).
    #[must_use]
    pub fn denom(&self) -> &Int {
        &self.den
    }

    /// True iff 0.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Sign.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.num.sign()
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// True iff the denominator is 1.
    fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Multiplicative inverse. Panics on 0.
    ///
    /// Swapping a coprime pair keeps it coprime; only the sign moves.
    #[must_use]
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        if self.num.is_negative() {
            Rat::canonical(-&self.den, -&self.num)
        } else {
            Rat::canonical(self.den.clone(), self.num.clone())
        }
    }

    /// Integer power (negative exponents allowed for nonzero values).
    ///
    /// Powers of coprime integers are coprime, so the result is canonical
    /// without a gcd.
    #[must_use]
    pub fn pow(&self, exp: i32) -> Rat {
        if exp < 0 {
            return self.recip().pow(-exp);
        }
        let exp = exp.unsigned_abs();
        Rat::canonical(self.num.pow(exp), self.den.pow(exp))
    }

    /// Largest integer `<= self`.
    #[must_use]
    pub fn floor(&self) -> Int {
        if self.is_integer() {
            return self.num.clone();
        }
        self.num.div_euclid(&self.den).0
    }

    /// Smallest integer `>= self`.
    #[must_use]
    pub fn ceil(&self) -> Int {
        if self.is_integer() {
            return self.num.clone();
        }
        &self.num.div_euclid(&self.den).0 + &Int::one()
    }

    /// Midpoint of two rationals.
    ///
    /// Halving a canonical `n/d` gives `(n/2)/d` when `n` is even (then `d`
    /// is odd) and `n/(2d)` when `n` is odd; both are canonical.
    #[must_use]
    pub fn midpoint(a: &Rat, b: &Rat) -> Rat {
        let sum = a + b;
        if sum.num.is_even() {
            Rat::canonical(&sum.num >> 1, sum.den)
        } else {
            Rat::canonical(sum.num, &sum.den << 1)
        }
    }

    /// Lossy conversion to `f64`.
    #[must_use]
    // cdb-lint: allow(float) — audited exact↔f64 conversion boundary (Thm 4.3): callers needing soundness must go through FIntv
    pub fn to_f64(&self) -> f64 {
        // Scale so the quotient retains ~80 bits of precision before the
        // floating division, avoiding premature overflow/underflow.
        // cdb-lint: allow(float) — audited exact↔f64 conversion boundary (Thm 4.3): callers needing soundness must go through FIntv
        fn ldexp(mut x: f64, mut e: i64) -> f64 {
            while e > 1000 {
                x *= 2f64.powi(1000); // cdb-lint: allow(float) — audited exact↔f64 conversion boundary (Thm 4.3): callers needing soundness must go through FIntv
                e -= 1000;
            }
            while e < -1000 {
                x *= 2f64.powi(-1000); // cdb-lint: allow(float) — audited exact↔f64 conversion boundary (Thm 4.3): callers needing soundness must go through FIntv
                e += 1000;
            }
            x * 2f64.powi(e as i32) // cdb-lint: allow(float) — audited exact↔f64 conversion boundary (Thm 4.3): callers needing soundness must go through FIntv
        }
        let nb = self.num.bit_length() as i64;
        let db = self.den.bit_length() as i64;
        let shift = nb - db - 80;
        if shift > 0 {
            let q = &self.num / &(&self.den << (shift as u64));
            ldexp(q.to_f64(), shift)
        } else {
            let q = &(&self.num << ((-shift) as u64)) / &self.den;
            ldexp(q.to_f64(), shift)
        }
    }

    /// Exact conversion from a finite `f64` (every finite double is dyadic).
    ///
    /// Returns `None` for NaN/infinite inputs.
    #[must_use]
    // cdb-lint: allow(float) — audited exact↔f64 conversion boundary (Thm 4.3): callers needing soundness must go through FIntv
    pub fn from_f64(v: f64) -> Option<Rat> {
        if !v.is_finite() {
            return None;
        }
        // cdb-lint: allow(float) — audited exact↔f64 conversion boundary (Thm 4.3): callers needing soundness must go through FIntv
        if v == 0.0 {
            return Some(Rat::zero());
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, e2) = if exp == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1u64 << 52), exp - 1075)
        };
        let m = &Int::from(mant) * &Int::from(sign);
        Some(if e2 >= 0 {
            Rat::new(&m << (e2 as u64), Int::one())
        } else {
            Rat::new(m, Int::pow2((-e2) as u64))
        })
    }

    /// Maximum bit length over numerator and denominator — the "size" of a
    /// rational for finite-precision accounting.
    #[must_use]
    pub fn bit_length(&self) -> u64 {
        self.num.bit_length().max(self.den.bit_length())
    }

    /// min by value.
    #[must_use]
    pub fn min(a: Rat, b: Rat) -> Rat {
        if a <= b {
            a
        } else {
            b
        }
    }

    /// max by value.
    #[must_use]
    pub fn max(a: Rat, b: Rat) -> Rat {
        if a >= b {
            a
        } else {
            b
        }
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::zero()
    }
}

impl From<Int> for Rat {
    fn from(v: Int) -> Rat {
        Rat {
            num: v,
            den: Int::one(),
        }
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::from(Int::from(v))
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Rat {
        Rat::from(Int::from(v))
    }
}

impl FromStr for Rat {
    type Err = ParseIntError;

    /// Accepts `"3"`, `"-3/4"`, `"1.25"`, `"-0.5"`.
    fn from_str(s: &str) -> Result<Rat, ParseIntError> {
        if let Some((n, d)) = s.split_once('/') {
            let num: Int = n.trim().parse()?;
            let den: Int = d.trim().parse()?;
            if den.is_zero() {
                return Err(ParseIntError(s.to_owned()));
            }
            return Ok(Rat::new(num, den));
        }
        if let Some((ip, fp)) = s.split_once('.') {
            if fp.is_empty() || !fp.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseIntError(s.to_owned()));
            }
            let neg = ip.trim_start().starts_with('-');
            let int_part: Int = if ip.is_empty() || ip == "-" || ip == "+" {
                Int::zero()
            } else {
                ip.parse()?
            };
            let frac_num: Int = fp.parse()?;
            let scale = Int::from(10i64).pow(fp.len() as u32);
            let mag = &(&int_part.abs() * &scale) + &frac_num;
            let signed = if neg { -mag } else { mag };
            return Ok(Rat::new(signed, scale));
        }
        Ok(Rat::from(s.parse::<Int>()?))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({self})")
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    /// Signs first, then numerators over a shared denominator; only values
    /// of one sign with different denominators cross-multiply.
    fn cmp(&self, other: &Rat) -> Ordering {
        let (sa, sb) = (self.sign(), other.sign());
        if sa != sb || sa == Sign::Zero {
            return sa.cmp(&sb);
        }
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        -self.clone()
    }
}

/// `x + y`, or `x - y` when `sub`.
fn add_or_sub(x: &Int, y: &Int, sub: bool) -> Int {
    if sub {
        x - y
    } else {
        x + y
    }
}

/// `x / g`, borrowing `x` when `g` is 1.
fn cancel<'a>(x: &'a Int, g: &Int) -> Cow<'a, Int> {
    if g.is_one() {
        Cow::Borrowed(x)
    } else {
        Cow::Owned(x.div_exact(g))
    }
}

/// `a/b ± c/d` by Henrici's rule. With `g = gcd(b, d)` the sum is
/// `t / (b·d/g)` for `t = a·(d/g) ± c·(b/g)`, and the only common factor
/// `t` can share with that denominator divides `g`: one gcd of the
/// denominators and one of `t` with `g`, where the textbook sum takes a gcd
/// of the full cross products. Integer operands skip both.
fn henrici(x: &Rat, y: &Rat, sub: bool) -> Rat {
    let (a, b, c, d) = (&x.num, &x.den, &y.num, &y.den);
    match (x.is_integer(), y.is_integer()) {
        (true, true) => return Rat::from(add_or_sub(a, c, sub)),
        // a/b ± c = (a ± c·b)/b: adding a multiple of b keeps gcd with b 1.
        (false, true) => return Rat::canonical(add_or_sub(a, &(c * b), sub), b.clone()),
        (true, false) => return Rat::canonical(add_or_sub(&(a * d), c, sub), d.clone()),
        (false, false) => {}
    }
    let g = b.gcd(d);
    if g.is_one() {
        return Rat::canonical(add_or_sub(&(a * d), &(c * b), sub), b * d);
    }
    let (b_g, d_g) = (b.div_exact(&g), d.div_exact(&g));
    let t = add_or_sub(&(a * &d_g), &(c * &b_g), sub);
    if t.is_zero() {
        return Rat::zero();
    }
    let h = t.gcd(&g);
    if h.is_one() {
        Rat::canonical(t, b * &d_g)
    } else {
        Rat::canonical(t.div_exact(&h), &b.div_exact(&h) * &d_g)
    }
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, rhs: &Rat) -> Rat {
        henrici(self, rhs, false)
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, rhs: &Rat) -> Rat {
        henrici(self, rhs, true)
    }
}

impl Mul for &Rat {
    type Output = Rat;
    /// `(a/b)·(c/d)`: cancel `gcd(a, d)` and `gcd(c, b)` across before
    /// multiplying, so the product is canonical as built. A gcd against a
    /// denominator of 1 returns at once (`Int::gcd`).
    fn mul(self, rhs: &Rat) -> Rat {
        let (a, b, c, d) = (&self.num, &self.den, &rhs.num, &rhs.den);
        if a.is_zero() || c.is_zero() {
            return Rat::zero();
        }
        if self.is_integer() && rhs.is_integer() {
            return Rat::from(a * c);
        }
        let (g1, g2) = (a.gcd(d), c.gcd(b));
        Rat::canonical(
            &*cancel(a, &g1) * &*cancel(c, &g2),
            &*cancel(b, &g2) * &*cancel(d, &g1),
        )
    }
}

impl Div for &Rat {
    type Output = Rat;
    /// `(a/b)/(c/d) = (a·d)/(b·c)`, cancelling `gcd(a, c)` and `gcd(d, b)`
    /// across first; the sign moves to the numerator at the end.
    fn div(self, rhs: &Rat) -> Rat {
        assert!(!rhs.is_zero(), "rational division by zero");
        let (a, b, c, d) = (&self.num, &self.den, &rhs.num, &rhs.den);
        if a.is_zero() {
            return Rat::zero();
        }
        let (g1, g2) = (a.gcd(c), d.gcd(b));
        let num = &*cancel(a, &g1) * &*cancel(d, &g2);
        let den = &*cancel(b, &g2) * &*cancel(c, &g1);
        if den.is_negative() {
            Rat::canonical(-num, -den)
        } else {
            Rat::canonical(num, den)
        }
    }
}

macro_rules! forward_rat_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rat> for Rat {
            type Output = Rat;
            fn $method(self, rhs: &Rat) -> Rat {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rat> for &Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                self.$method(&rhs)
            }
        }
    };
}

forward_rat_binop!(Add, add);
forward_rat_binop!(Sub, sub);
forward_rat_binop!(Mul, mul);
forward_rat_binop!(Div, div);

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, rhs: &Rat) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, rhs: &Rat) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, rhs: &Rat) {
        *self = &*self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(s: &str) -> Rat {
        s.parse().unwrap()
    }

    #[test]
    fn normalization() {
        assert_eq!(rat("2/4"), rat("1/2"));
        assert_eq!(rat("-2/-4"), rat("1/2"));
        assert_eq!(rat("2/-4"), rat("-1/2"));
        assert_eq!(rat("0/5"), Rat::zero());
        assert_eq!(rat("6/3"), Rat::from(2i64));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(&rat("1/2") + &rat("1/3"), rat("5/6"));
        assert_eq!(&rat("1/2") - &rat("1/3"), rat("1/6"));
        assert_eq!(&rat("2/3") * &rat("3/4"), rat("1/2"));
        assert_eq!(&rat("1/2") / &rat("1/4"), Rat::from(2i64));
    }

    #[test]
    fn ordering() {
        assert!(rat("1/3") < rat("1/2"));
        assert!(rat("-1/2") < rat("-1/3"));
        assert!(rat("7/3") > Rat::from(2i64));
        assert_eq!(Rat::min(rat("1/3"), rat("1/2")), rat("1/3"));
    }

    #[test]
    fn decimal_parsing() {
        assert_eq!(rat("1.25"), rat("5/4"));
        assert_eq!(rat("-0.5"), rat("-1/2"));
        assert_eq!(rat("2.5"), rat("5/2"));
        assert_eq!(rat("0.125"), rat("1/8"));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(rat("7/2").floor(), Int::from(3));
        assert_eq!(rat("7/2").ceil(), Int::from(4));
        assert_eq!(rat("-7/2").floor(), Int::from(-4));
        assert_eq!(rat("-7/2").ceil(), Int::from(-3));
        assert_eq!(Rat::from(3i64).floor(), Int::from(3));
        assert_eq!(Rat::from(3i64).ceil(), Int::from(3));
    }

    #[test]
    fn f64_roundtrip() {
        for v in [0.0, 1.0, -1.5, 0.1, 1e-300, 1e300, std::f64::consts::PI] {
            let r = Rat::from_f64(v).unwrap();
            assert_eq!(r.to_f64(), v, "roundtrip {v}");
        }
        assert!(Rat::from_f64(f64::NAN).is_none());
        assert!(Rat::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn from_f64_exact_dyadic() {
        assert_eq!(Rat::from_f64(0.25).unwrap(), rat("1/4"));
        assert_eq!(Rat::from_f64(-2.5).unwrap(), rat("-5/2"));
    }

    #[test]
    fn pow_and_recip() {
        assert_eq!(rat("2/3").pow(2), rat("4/9"));
        assert_eq!(rat("2/3").pow(-2), rat("9/4"));
        assert_eq!(rat("2/3").pow(0), Rat::one());
        assert_eq!(rat("-3/5").recip(), rat("-5/3"));
    }

    #[test]
    fn midpoint() {
        assert_eq!(Rat::midpoint(&rat("1/2"), &rat("3/2")), Rat::one());
    }

    #[test]
    fn to_f64_extremes() {
        // Huge rational close to 1.
        let big = Int::pow2(2000);
        let r = Rat::new(&big + &Int::one(), big);
        assert!((r.to_f64() - 1.0).abs() < 1e-12);
    }
}
