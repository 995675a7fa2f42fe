//! The paper's k-floating numbers `F_k` (§4).
//!
//! A floating number is a pair `[n, e]` denoting `n · 2^e` with a mantissa
//! `n` of at most `k` bits and an exponent `e` of at most `log(k)`-many
//! digits, i.e. bounded magnitude. Arithmetic over `F_k` is **partial**
//! (footnote 1 of the paper): an operation whose exact result cannot be
//! represented is *undefined*, caused by "overflow of exponent (number too
//! large or too small) or mantissa (insufficient precision)".
//!
//! We expose both faces used in the paper:
//!
//! * [`Fk::add_exact`] etc. — the relational, partial operations of the
//!   structure `F_k = ⟨F_k, ≤, +, ×, 0, 1⟩`; `None` when undefined.
//! * [`Fk::add_round`] etc. — round-to-nearest versions (ties to even), the
//!   "finite precision arithmetics" whose poor algebraic properties §4
//!   catalogues (no distributivity, order-of-evaluation sensitivity, a
//!   greatest element). These still return `None` on exponent overflow.

use crate::{Int, Rat, Sign};
use std::cmp::Ordering;
use std::fmt;

/// Shape parameters of the structure `F_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FkParams {
    /// Maximum mantissa bit length `k`.
    pub mantissa_bits: u32,
    /// Exponent magnitude bound: `|e| <= exp_bound`.
    pub exp_bound: i64,
}

impl FkParams {
    /// Parameters with mantissa `k` and the paper's `log(k)`-digit exponent,
    /// i.e. `|e| < 2^ceil(log2 k) ~ k`.
    #[must_use]
    pub fn with_k(k: u32) -> FkParams {
        FkParams {
            mantissa_bits: k,
            exp_bound: i64::from(k.max(2)),
        }
    }
}

/// Error raised when an `F_k` operation is undefined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FkError {
    /// Exponent outside `[-exp_bound, exp_bound]`.
    ExponentOverflow,
    /// Exact result needs more than `k` mantissa bits.
    InsufficientPrecision,
}

impl fmt::Display for FkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FkError::ExponentOverflow => write!(f, "F_k exponent overflow"),
            FkError::InsufficientPrecision => write!(f, "F_k mantissa precision exceeded"),
        }
    }
}

impl std::error::Error for FkError {}

/// A k-floating number `[n, e]` = `n · 2^e`, normalized so that `n` is odd
/// or zero (maximizing representable range).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Fk {
    mant: Int,
    exp: i64,
    params: FkParams,
}

impl Fk {
    /// Zero in the given structure.
    #[must_use]
    pub fn zero(params: FkParams) -> Fk {
        Fk {
            mant: Int::zero(),
            exp: 0,
            params,
        }
    }

    /// One in the given structure.
    #[must_use]
    pub fn one(params: FkParams) -> Fk {
        Fk {
            mant: Int::one(),
            exp: 0,
            params,
        }
    }

    /// Construct from mantissa and exponent, normalizing. `Err` if the value
    /// is not representable in `F_k`.
    pub fn new(mut mant: Int, mut exp: i64, params: FkParams) -> Result<Fk, FkError> {
        if mant.is_zero() {
            return Ok(Fk::zero(params));
        }
        if let Some(tz) = mant.trailing_zeros() {
            if tz > 0 {
                mant = &mant >> tz;
                exp = exp
                    .checked_add(tz as i64)
                    .ok_or(FkError::ExponentOverflow)?;
            }
        }
        if mant.bit_length() > u64::from(params.mantissa_bits) {
            return Err(FkError::InsufficientPrecision);
        }
        if exp.abs() > params.exp_bound {
            return Err(FkError::ExponentOverflow);
        }
        Ok(Fk { mant, exp, params })
    }

    /// The largest element of `F_k` — which *exists*, unlike in `R` (the
    /// paper's example of a non-desirable deduction: `F_k ⊨ ∃x∀y (y ≤ x)`).
    #[must_use]
    pub fn max_value(params: FkParams) -> Fk {
        let mant = &Int::pow2(u64::from(params.mantissa_bits)) - &Int::one();
        // cdb-lint: allow(panic) — (2^m − 1) · 2^exp_bound is representable by
        // construction: the mantissa has exactly `mantissa_bits` bits and the
        // exponent equals the bound, so `Fk::new` cannot reject it.
        Fk::new(mant, params.exp_bound, params).expect("max value is representable")
    }

    /// Structure parameters.
    #[must_use]
    pub fn params(&self) -> FkParams {
        self.params
    }

    /// Mantissa.
    #[must_use]
    pub fn mantissa(&self) -> &Int {
        &self.mant
    }

    /// Exponent.
    #[must_use]
    pub fn exponent(&self) -> i64 {
        self.exp
    }

    /// True iff 0.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.mant.is_zero()
    }

    /// Exact value as a rational.
    #[must_use]
    pub fn to_rat(&self) -> Rat {
        if self.exp >= 0 {
            Rat::from(&self.mant << (self.exp as u64))
        } else {
            Rat::new(self.mant.clone(), Int::pow2((-self.exp) as u64))
        }
    }

    /// Exact conversion from a rational; `Err` if not a representable dyadic.
    pub fn from_rat_exact(r: &Rat, params: FkParams) -> Result<Fk, FkError> {
        let den = r.denom();
        // Representable iff denominator is a power of two (dyadic).
        let tz = den.trailing_zeros().unwrap_or(0);
        if (den >> tz) != Int::one() {
            return Err(FkError::InsufficientPrecision);
        }
        Fk::new(r.numer().clone(), -(tz as i64), params)
    }

    /// Round a rational to the nearest representable `F_k` value
    /// (ties to even). `Err` only on exponent overflow.
    pub fn from_rat_round(r: &Rat, params: FkParams) -> Result<Fk, FkError> {
        if r.is_zero() {
            return Ok(Fk::zero(params));
        }
        let k = i64::from(params.mantissa_bits);
        // Find e such that mant = round(r * 2^-e) has exactly <= k bits:
        // bitlen(num) - bitlen(den) approximates log2 |r|.
        let approx_log = r.numer().bit_length() as i64 - r.denom().bit_length() as i64;
        // Gradual underflow: never scale below 2^-exp_bound; tiny values lose
        // mantissa bits rather than becoming undefined (only "number too
        // large" overflows the exponent under rounding).
        let mut e = (approx_log - k).max(-params.exp_bound);
        // scaled = r / 2^e; adjust e until mantissa fits in k bits exactly.
        loop {
            let mant = Fk::round_div_pow2(r, e);
            let bl = mant.bit_length() as i64;
            if bl > k {
                e += bl - k;
                continue;
            }
            if bl < k && bl > 0 {
                // Could use more precision; but rounding again at finer scale
                // may round up to k+1 bits, so check. Stay within the
                // exponent range.
                let finer_e = (e - (k - bl)).max(-params.exp_bound);
                if finer_e < e {
                    let finer = Fk::round_div_pow2(r, finer_e);
                    if finer.bit_length() as i64 <= k {
                        return Fk::new(finer, finer_e, params);
                    }
                }
            }
            return Fk::new(mant, e, params);
        }
    }

    /// round(r / 2^e), ties to even.
    fn round_div_pow2(r: &Rat, e: i64) -> Int {
        // r / 2^e = num * 2^-e / den
        let (num, den) = if e >= 0 {
            (r.numer().clone(), r.denom() << (e as u64))
        } else {
            (r.numer() << ((-e) as u64), r.denom().clone())
        };
        let (q, rem) = num.div_euclid(&den);
        let twice = &(&rem + &rem) - &den; // sign tells which half
        match twice.sign() {
            Sign::Neg => q,
            Sign::Pos => &q + &Int::one(),
            Sign::Zero => {
                if q.is_even() {
                    q
                } else {
                    &q + &Int::one()
                }
            }
        }
    }

    fn check_params(&self, other: &Fk) {
        assert_eq!(self.params, other.params, "mixing F_k structures");
    }

    /// Partial exact addition (the relational `+` of the structure `F_k`).
    pub fn add_exact(&self, other: &Fk) -> Result<Fk, FkError> {
        self.check_params(other);
        Fk::from_rat_exact(&(&self.to_rat() + &other.to_rat()), self.params)
    }

    /// Partial exact multiplication.
    pub fn mul_exact(&self, other: &Fk) -> Result<Fk, FkError> {
        self.check_params(other);
        Fk::from_rat_exact(&(&self.to_rat() * &other.to_rat()), self.params)
    }

    /// Rounded addition (round to nearest, ties even).
    pub fn add_round(&self, other: &Fk) -> Result<Fk, FkError> {
        self.check_params(other);
        Fk::from_rat_round(&(&self.to_rat() + &other.to_rat()), self.params)
    }

    /// Rounded multiplication.
    pub fn mul_round(&self, other: &Fk) -> Result<Fk, FkError> {
        self.check_params(other);
        Fk::from_rat_round(&(&self.to_rat() * &other.to_rat()), self.params)
    }
}

impl PartialOrd for Fk {
    fn partial_cmp(&self, other: &Fk) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fk {
    fn cmp(&self, other: &Fk) -> Ordering {
        self.to_rat().cmp(&other.to_rat())
    }
}

impl fmt::Display for Fk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.mant, self.exp)
    }
}

impl fmt::Debug for Fk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fk({} * 2^{})", self.mant, self.exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p8() -> FkParams {
        FkParams::with_k(8)
    }

    fn fk(m: i64, e: i64) -> Fk {
        Fk::new(Int::from(m), e, p8()).unwrap()
    }

    #[test]
    fn normalization_strips_trailing_zeros() {
        let a = fk(8, 0);
        assert_eq!(a.mantissa(), &Int::from(1));
        assert_eq!(a.exponent(), 3);
    }

    #[test]
    fn exact_add_within_precision() {
        let a = fk(3, 0);
        let b = fk(5, 0);
        assert_eq!(a.add_exact(&b).unwrap(), fk(8, 0));
    }

    #[test]
    fn exact_add_insufficient_precision() {
        // 255*2 + 1 = 511 needs 9 mantissa bits; k = 8.
        let a = Fk::new(Int::from(255), 1, p8()).unwrap();
        let b = Fk::one(p8());
        assert_eq!(a.add_exact(&b), Err(FkError::InsufficientPrecision));
    }

    #[test]
    fn exponent_overflow() {
        assert_eq!(
            Fk::new(Int::one(), 100, p8()).unwrap_err(),
            FkError::ExponentOverflow
        );
        let m = Fk::max_value(p8());
        assert!(m.mul_round(&m).is_err());
    }

    #[test]
    fn greatest_element_exists() {
        // F_k |= exists x forall y (y <= x): max_value is that witness.
        let m = Fk::max_value(p8());
        for v in [-100i64, 0, 1, 200] {
            let w = Fk::from_rat_round(&Rat::from(v), p8()).unwrap();
            assert!(w <= m);
        }
    }

    #[test]
    fn distributivity_fails_under_rounding() {
        // Find witnesses a*(b+c) != a*b + a*c under round-to-8-bits.
        let params = p8();
        let mk = |v: i64| Fk::from_rat_round(&Rat::from(v), params).unwrap();
        let mut found = false;
        'outer: for a in 1..40i64 {
            for b in 1..40i64 {
                for c in 1..40i64 {
                    let (fa, fb, fc) = (mk(a), mk(b), mk(c));
                    let lhs = fa.mul_round(&fb.add_round(&fc).unwrap()).unwrap();
                    let rhs = fa
                        .mul_round(&fb)
                        .unwrap()
                        .add_round(&fa.mul_round(&fc).unwrap())
                        .unwrap();
                    if lhs != rhs {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "distributivity should fail somewhere in F_8");
    }

    #[test]
    fn rounding_ties_to_even() {
        // 5/2 rounds... exactly representable. Use a tiny mantissa space:
        let params = FkParams {
            mantissa_bits: 2,
            exp_bound: 32,
        };
        // 5 = 101b needs 3 bits; round to 2 bits: candidates 4 (=100b -> 1*2^2)
        // and 6 (=11*2). 5 is equidistant; ties-to-even picks 4 (mantissa 1).
        let r = Fk::from_rat_round(&Rat::from(5i64), params).unwrap();
        assert_eq!(r.to_rat(), Rat::from(4i64));
    }

    #[test]
    fn rat_roundtrip() {
        let a = fk(-37, 3);
        assert_eq!(Fk::from_rat_exact(&a.to_rat(), p8()).unwrap(), a);
    }

    #[test]
    fn order_matches_value() {
        assert!(fk(1, 4) > fk(15, 0)); // 16 > 15
        assert!(fk(-1, 4) < fk(-15, 0));
        assert!(fk(3, -2) < fk(1, 0)); // 0.75 < 1
    }

    #[test]
    fn round_from_rational_third() {
        let params = FkParams::with_k(10);
        let third = Rat::from_ints(1, 3);
        let r = Fk::from_rat_round(&third, params).unwrap();
        let err = (&r.to_rat() - &third).abs();
        // error < 2^-(10) relative-ish: ulp at scale ~2^-10 / 2^10
        assert!(err < Rat::new(Int::one(), Int::pow2(11)));
    }
}
