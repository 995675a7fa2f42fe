//! Arbitrary-precision signed integers.
//!
//! Implemented from scratch (no external bignum crates are available in this
//! environment): sign-magnitude representation over little-endian `u64`
//! limbs, schoolbook + Karatsuba multiplication, Knuth Algorithm D division.
//!
//! Magnitudes that fit one `u64` are stored inline (`Mag::Small`) so the
//! small coefficients that dominate CAD/Sturm workloads never touch the heap;
//! add/mul/cmp/gcd/divrem all have allocation-free single-limb fast paths.
//!
//! Bit lengths are first-class here ([`Int::bit_length`]) because the paper's
//! finite-precision semantics (§4) is defined by bounding the bit length of
//! every integer the QE algorithm manipulates.

use crate::Sign;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

/// Magnitude storage: inline single limb or heap-allocated limb vector.
///
/// Canonical form (required for derived `PartialEq`/`Hash` to coincide with
/// numeric equality): the value 0 is always `Small(0)` (paired with
/// `Sign::Zero`); any magnitude fitting one limb is `Small`; `Big` always
/// holds >= 2 limbs with a nonzero top limb.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Mag {
    /// Inline single-limb magnitude (no heap allocation).
    Small(u64),
    /// Little-endian magnitude limbs, length >= 2, top limb nonzero.
    Big(Vec<u64>),
}

/// Arbitrary-precision signed integer.
///
/// Invariants: `mag` is in canonical form (see `Mag`); `sign` is `Zero`
/// iff the magnitude is zero.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Int {
    sign: Sign,
    mag: Mag,
}

const KARATSUBA_THRESHOLD: usize = 32;

impl Int {
    /// The integer 0.
    #[must_use]
    pub fn zero() -> Int {
        Int {
            sign: Sign::Zero,
            mag: Mag::Small(0),
        }
    }

    /// The integer 1.
    #[must_use]
    pub fn one() -> Int {
        Int::from(1i64)
    }

    /// True iff this is 0.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True iff this is 1.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Pos && matches!(self.mag, Mag::Small(1))
    }

    /// Sign of the integer.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// True iff strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Neg
    }

    /// True iff even (0 is even).
    #[must_use]
    pub fn is_even(&self) -> bool {
        self.limbs().first().is_none_or(|l| l & 1 == 0)
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Int {
        Int {
            sign: if self.is_zero() {
                Sign::Zero
            } else {
                Sign::Pos
            },
            mag: self.mag.clone(),
        }
    }

    /// Magnitude limbs as a little-endian slice (empty for 0).
    fn limbs(&self) -> &[u64] {
        match &self.mag {
            Mag::Small(0) => &[],
            Mag::Small(l) => std::slice::from_ref(l),
            Mag::Big(v) => v,
        }
    }

    /// Canonical single-limb constructor; `m == 0` yields [`Int::zero`].
    fn small(sign: Sign, m: u64) -> Int {
        if m == 0 {
            Int::zero()
        } else {
            debug_assert!(sign != Sign::Zero);
            Int {
                sign,
                mag: Mag::Small(m),
            }
        }
    }

    /// Canonical constructor from a `u128` magnitude.
    fn from_u128_mag(sign: Sign, m: u128) -> Int {
        let hi = (m >> 64) as u64;
        if hi == 0 {
            Int::small(sign, m as u64)
        } else {
            Int {
                sign,
                mag: Mag::Big(vec![m as u64, hi]),
            }
        }
    }

    /// Number of bits in the magnitude; 0 for the integer 0.
    ///
    /// This is the quantity bounded by the finite-precision semantics: an
    /// integer `n` "occurs with bit length `bit_length(n)`".
    #[must_use]
    pub fn bit_length(&self) -> u64 {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() as u64 - 1) * 64 + (64 - u64::from(top.leading_zeros())),
        }
    }

    /// Number of trailing zero bits; `None` for 0.
    #[must_use]
    pub fn trailing_zeros(&self) -> Option<u64> {
        if self.is_zero() {
            return None;
        }
        let mut total = 0u64;
        for &limb in self.limbs() {
            if limb == 0 {
                total += 64;
            } else {
                return Some(total + u64::from(limb.trailing_zeros()));
            }
        }
        // cdb-lint: allow(panic) — `is_zero()` returned false above, and the
        // magnitude is kept trimmed by construction (`Int::trim`), so a
        // nonzero limb always exists; total conversion has no error channel
        // in this infallible numeric API.
        unreachable!("normalized nonzero Int has a nonzero limb")
    }

    fn trim(mut mag: Vec<u64>) -> Vec<u64> {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        mag
    }

    fn from_mag(sign: Sign, mag: Vec<u64>) -> Int {
        let mag = Int::trim(mag);
        if let [only] = mag.as_slice() {
            return Int {
                sign,
                mag: Mag::Small(*only),
            };
        }
        if mag.is_empty() {
            return Int::zero();
        }
        Int {
            sign,
            mag: Mag::Big(mag),
        }
    }

    /// Compare magnitudes only.
    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            if a[i] != b[i] {
                return a[i].cmp(&b[i]);
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &li) in long.iter().enumerate() {
            let bi = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = li.overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// Requires |a| >= |b|.
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Int::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (d1, b1) = ai.overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        Int::trim(out)
    }

    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        if a.len().min(b.len()) >= KARATSUBA_THRESHOLD {
            return Int::karatsuba(a, b);
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(ai) * u128::from(bj) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Int::trim(out)
    }

    fn karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
        let split = a.len().max(b.len()) / 2;
        let (a0, a1) = a.split_at(a.len().min(split));
        let (b0, b1) = b.split_at(b.len().min(split));
        // a = a1*B + a0, b = b1*B + b0 with B = 2^(64*split).
        let z0 = Int::mul_mag(a0, b0);
        let z2 = Int::mul_mag(a1, b1);
        let a01 = Int::add_mag(a0, a1);
        let b01 = Int::add_mag(b0, b1);
        let mut z1 = Int::mul_mag(&a01, &b01);
        z1 = Int::sub_mag(&z1, &z0);
        z1 = Int::sub_mag(&z1, &z2);
        // result = z2*B^2 + z1*B + z0
        let mut out = vec![0u64; a.len() + b.len() + 1];
        Int::add_shifted(&mut out, &z0, 0);
        Int::add_shifted(&mut out, &z1, split);
        Int::add_shifted(&mut out, &z2, 2 * split);
        Int::trim(out)
    }

    fn add_shifted(acc: &mut [u64], v: &[u64], shift: usize) {
        let mut carry = 0u64;
        let mut i = 0;
        while i < v.len() || carry != 0 {
            let idx = shift + i;
            let add = v.get(i).copied().unwrap_or(0);
            let (s1, c1) = acc[idx].overflowing_add(add);
            let (s2, c2) = s1.overflowing_add(carry);
            acc[idx] = s2;
            carry = u64::from(c1) + u64::from(c2);
            i += 1;
        }
    }

    fn shl_mag(mag: &[u64], bits: u64) -> Vec<u64> {
        if mag.is_empty() {
            return Vec::new();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(mag);
        } else {
            let mut carry = 0u64;
            for &l in mag {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Int::trim(out)
    }

    fn shr_mag(mag: &[u64], bits: u64) -> Vec<u64> {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= mag.len() {
            return Vec::new();
        }
        let bit_shift = bits % 64;
        let src = &mag[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Int::trim(out)
    }

    /// Knuth Algorithm D. Returns (quotient, remainder) of magnitudes;
    /// requires `b` nonzero.
    fn divrem_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert!(!b.is_empty(), "division by zero");
        match Int::cmp_mag(a, b) {
            Ordering::Less => return (Vec::new(), a.to_vec()),
            Ordering::Equal => return (vec![1], Vec::new()),
            Ordering::Greater => {}
        }
        if let [d] = b {
            let d = *d;
            let mut q = vec![0u64; a.len()];
            let mut rem = 0u128;
            for i in (0..a.len()).rev() {
                let cur = (rem << 64) | u128::from(a[i]);
                q[i] = (cur / u128::from(d)) as u64;
                rem = cur % u128::from(d);
            }
            let r = if rem == 0 {
                Vec::new()
            } else {
                vec![rem as u64]
            };
            return (Int::trim(q), r);
        }
        // Normalize so the divisor's top limb has its high bit set. The shift
        // keeps bn at b.len() limbs and an grows to at most a.len()+1.
        let shift = u64::from(b.last().map_or(0, |t| t.leading_zeros()));
        let bn = Int::shl_mag(b, shift);
        let mut an = Int::shl_mag(a, shift);
        an.resize(a.len() + 1, 0);
        let n = bn.len();
        debug_assert_eq!(n, b.len());
        let m = an.len() - n - 1;
        let mut q = vec![0u64; m + 1];
        let btop = u128::from(bn[n - 1]);
        let bsec = if n >= 2 { u128::from(bn[n - 2]) } else { 0 };
        for j in (0..=m).rev() {
            let top = (u128::from(an[j + n]) << 64) | u128::from(an[j + n - 1]);
            let mut qhat = top / btop;
            let mut rhat = top % btop;
            if qhat > u128::from(u64::MAX) {
                qhat = u128::from(u64::MAX);
                rhat = top - qhat * btop;
            }
            while rhat <= u128::from(u64::MAX)
                && qhat * bsec > ((rhat << 64) | u128::from(if n >= 2 { an[j + n - 2] } else { 0 }))
            {
                qhat -= 1;
                rhat += btop;
            }
            // Multiply-subtract qhat * bn from an[j..j+n+1].
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * u128::from(bn[i]) + carry;
                carry = p >> 64;
                let sub = i128::from(an[j + i]) - i128::from(p as u64) + borrow;
                an[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = i128::from(an[j + n]) - i128::from(carry as u64) + borrow;
            an[j + n] = sub as u64;
            borrow = sub >> 64;
            let mut qj = qhat as u64;
            if borrow < 0 {
                // qhat was one too large: add back.
                qj -= 1;
                let mut c = 0u64;
                for i in 0..n {
                    let (s1, c1) = an[j + i].overflowing_add(bn[i]);
                    let (s2, c2) = s1.overflowing_add(c);
                    an[j + i] = s2;
                    c = u64::from(c1) + u64::from(c2);
                }
                an[j + n] = an[j + n].wrapping_add(c);
            }
            q[j] = qj;
        }
        let r = Int::shr_mag(&Int::trim(an[..n].to_vec()), shift);
        (Int::trim(q), r)
    }

    /// Truncated division with remainder: `self = q*other + r`,
    /// `|r| < |other|`, `r` has the sign of `self` (or is zero).
    #[must_use]
    pub fn divrem(&self, other: &Int) -> (Int, Int) {
        assert!(!other.is_zero(), "division by zero");
        if self.is_zero() {
            return (Int::zero(), Int::zero());
        }
        if let (Mag::Small(a), Mag::Small(b)) = (&self.mag, &other.mag) {
            return (
                Int::small(self.sign.mul(other.sign), a / b),
                Int::small(self.sign, a % b),
            );
        }
        let (qm, rm) = Int::divrem_mag(self.limbs(), other.limbs());
        let qsign = self.sign.mul(other.sign);
        (Int::from_mag(qsign, qm), Int::from_mag(self.sign, rm))
    }

    /// Euclidean division: remainder in `[0, |other|)`.
    #[must_use]
    pub fn div_euclid(&self, other: &Int) -> (Int, Int) {
        let (q, r) = self.divrem(other);
        if r.is_negative() {
            if other.is_negative() {
                (&q + &Int::one(), &r - other)
            } else {
                (&q - &Int::one(), &r + other)
            }
        } else {
            (q, r)
        }
    }

    /// Exact division; panics in debug builds if the division is not exact.
    #[must_use]
    pub fn div_exact(&self, other: &Int) -> Int {
        let (q, r) = self.divrem(other);
        debug_assert!(r.is_zero(), "div_exact with nonzero remainder");
        q
    }

    /// Greatest common divisor (always non-negative).
    ///
    /// Works on borrowed magnitudes: one-limb operands run a binary gcd
    /// without touching the heap, an operand of magnitude 1 answers at
    /// once, and a multi-limb Euclid drops to the one-limb path as soon as
    /// the divisor fits a limb.
    #[must_use]
    pub fn gcd(&self, other: &Int) -> Int {
        let (a, b) = (self.limbs(), other.limbs());
        if a == [1] || b == [1] {
            return Int::one();
        }
        match (a, b) {
            ([], _) => other.abs(),
            (_, []) => self.abs(),
            ([x], [y]) => Int::small(Sign::Pos, gcd_u64(*x, *y)),
            (big, [y]) | ([y], big) => Int::small(Sign::Pos, gcd_u64(*y, mod_mag_u64(big, *y))),
            _ => {
                let (hi, lo) = if Int::cmp_mag(a, b) == Ordering::Less {
                    (b, a)
                } else {
                    (a, b)
                };
                // Invariant: `b < a`, and `gcd(a, b)` is the answer.
                let mut a = lo.to_vec();
                let mut b = Int::divrem_mag(hi, lo).1;
                loop {
                    match (a.as_slice(), b.as_slice()) {
                        (_, []) => return Int::from_mag(Sign::Pos, a),
                        (a, [y]) => return Int::small(Sign::Pos, gcd_u64(*y, mod_mag_u64(a, *y))),
                        _ => {}
                    }
                    let r = Int::divrem_mag(&a, &b).1;
                    a = std::mem::replace(&mut b, r);
                }
            }
        }
    }

    /// `self^exp`.
    #[must_use]
    pub fn pow(&self, mut exp: u32) -> Int {
        let mut base = self.clone();
        let mut acc = Int::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Convert to `f64` (may overflow to infinity, lose precision).
    ///
    /// This function and [`Int::to_f64_interval`] are the audited
    /// exact→float widening primitives behind the `FIntv` filter — the one
    /// door finite precision walks through (Thm 4.3); hence the per-line
    /// float allows.
    #[must_use]
    // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
    pub fn to_f64(&self) -> f64 {
        // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
        let mut v = 0.0f64;
        for &limb in self.limbs().iter().rev() {
            // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
            v = v * 1.8446744073709552e19 + limb as f64; // 2^64
        }
        if self.sign == Sign::Neg {
            -v
        } else {
            v
        }
    }

    /// Guaranteed two-sided `f64` enclosure: returns `(lo, hi)` with
    /// `lo <= self <= hi` as real numbers.
    ///
    /// The enclosure is exact (`lo == hi`) whenever the value fits in 53
    /// bits; otherwise it is outward-rounded from the top 64 bits of the
    /// magnitude via [`f64::next_down`]/[`f64::next_up`] — the `+l`/`+u`
    /// directed roundings of the paper's split-word arithmetic (Thm 4.3).
    /// Values beyond the finite `f64` range yield an infinite endpoint on
    /// the far side and `±f64::MAX` on the near side, so the enclosure
    /// stays valid.
    #[must_use]
    // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
    pub fn to_f64_interval(&self) -> (f64, f64) {
        let bits = self.bit_length();
        if bits == 0 {
            return (0.0, 0.0); // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
        }
        let (mlo, mhi) = if bits <= 53 {
            // Exact: fits the mantissa.
            // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
            let v = self.limbs().first().copied().unwrap_or(0) as f64;
            (v, v)
        } else if bits <= 64 {
            // Correctly rounded: off by <= ulp/2.
            // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
            let v = self.limbs().first().copied().unwrap_or(0) as f64;
            (v.next_down(), v.next_up())
        } else {
            // top = magnitude >> shift has exactly 64 bits (MSB set), so
            // top <= |self| / 2^shift < top + 1, and ulp(top as f64) = 2048:
            // one step of directed rounding absorbs both the cast error
            // (<= 1024) and the truncated low bits (< 1).
            let shift = bits - 64;
            let top = Int::shr_mag(self.limbs(), shift);
            debug_assert_eq!(top.len(), 1);
            // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
            let t = top.first().copied().unwrap_or(0) as f64;
            // Exact power of two 2^shift (infinite once past the f64 range).
            let scale = if shift > 1023 {
                f64::INFINITY // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
            } else {
                f64::from_bits((1023 + shift) << 52) // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
            };
            let lo = t.next_down() * scale;
            let hi = t.next_up() * scale;
            (if lo.is_finite() { lo } else { f64::MAX }, hi) // cdb-lint: allow(float) — FIntv widening boundary (Thm 4.3): this block is the audited exact→float door
        };
        match self.sign {
            Sign::Neg => (-mhi, -mlo),
            _ => (mlo, mhi),
        }
    }

    /// Convert to `i64` if it fits.
    #[must_use]
    pub fn to_i64(&self) -> Option<i64> {
        match &self.mag {
            Mag::Small(m) => match self.sign {
                Sign::Zero => Some(0),
                Sign::Pos if *m <= i64::MAX as u64 => Some(*m as i64),
                Sign::Neg if *m <= 1u64 << 63 => Some((*m as i128).wrapping_neg() as i64),
                _ => None,
            },
            Mag::Big(_) => None,
        }
    }

    /// Construct `2^e`.
    #[must_use]
    pub fn pow2(e: u64) -> Int {
        if e < 64 {
            return Int {
                sign: Sign::Pos,
                mag: Mag::Small(1u64 << e),
            };
        }
        let limb = (e / 64) as usize;
        let mut mag = vec![0u64; limb + 1];
        mag[limb] = 1u64 << (e % 64);
        Int {
            sign: Sign::Pos,
            mag: Mag::Big(mag),
        }
    }

    /// Magnitude modulo `m` (sign ignored): `|self| mod m`, in `[0, m)`.
    ///
    /// Single pass over the limbs, high to low, with a 128-bit running
    /// remainder — this is the hot reduction of the CRT resultant kernel
    /// ([`crate::modp`]), so it never allocates.
    #[must_use]
    pub fn mod_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "modulus must be nonzero");
        mod_mag_u64(self.limbs(), m)
    }

    /// Decimal string of the magnitude.
    fn mag_to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = self.limbs().to_vec();
        let mut chunks: Vec<u64> = Vec::new();
        while !mag.is_empty() {
            let mut rem = 0u128;
            for i in (0..mag.len()).rev() {
                let cur = (rem << 64) | u128::from(mag[i]);
                mag[i] = (cur / u128::from(CHUNK)) as u64;
                rem = cur % u128::from(CHUNK);
            }
            chunks.push(rem as u64);
            mag = Int::trim(mag);
        }
        let mut s = chunks.last().map_or_else(|| "0".to_owned(), u64::to_string);
        for c in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{c:019}"));
        }
        s
    }
}

/// Binary (Stein) gcd of two machine words; `gcd(0, 0) = 0`.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `mag mod m` for a little-endian magnitude and a nonzero word `m`, in
/// one allocation-free pass from the top limb down.
fn mod_mag_u64(mag: &[u64], m: u64) -> u64 {
    let mut rem = 0u128;
    for &limb in mag.iter().rev() {
        rem = ((rem << 64) | u128::from(limb)) % u128::from(m);
    }
    rem as u64
}

impl Default for Int {
    fn default() -> Self {
        Int::zero()
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Int {
        match v.cmp(&0) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int::small(Sign::Pos, v as u64),
            Ordering::Less => Int::small(Sign::Neg, (v as i128).unsigned_abs() as u64),
        }
    }
}

impl From<u64> for Int {
    fn from(v: u64) -> Int {
        Int::small(Sign::Pos, v)
    }
}

impl From<i32> for Int {
    fn from(v: i32) -> Int {
        Int::from(i64::from(v))
    }
}

impl From<i128> for Int {
    fn from(v: i128) -> Int {
        if v == 0 {
            return Int::zero();
        }
        let sign = if v > 0 { Sign::Pos } else { Sign::Neg };
        Int::from_u128_mag(sign, v.unsigned_abs())
    }
}

/// Parse error for [`Int`] / [`crate::Rat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntError(pub String);

impl fmt::Display for ParseIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal: {}", self.0)
    }
}

impl std::error::Error for ParseIntError {}

impl FromStr for Int {
    type Err = ParseIntError;

    fn from_str(s: &str) -> Result<Int, ParseIntError> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(d) => (true, d),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseIntError(s.to_owned()));
        }
        let digits = digits.trim_start_matches('0');
        // Up to 19 digits stay below 10^19 < 2^64: one machine parse.
        let acc = if digits.len() <= 19 {
            Int::from(u64_of(digits).ok_or_else(|| ParseIntError(s.to_owned()))?)
        } else {
            from_digits_chunked(digits).ok_or_else(|| ParseIntError(s.to_owned()))?
        };
        Ok(if neg { -acc } else { acc })
    }
}

/// The value of at most 19 ASCII decimal digits (`0` for none).
fn u64_of(digits: &str) -> Option<u64> {
    if digits.is_empty() {
        return Some(0);
    }
    digits.parse().ok()
}

/// The value of a string of ASCII decimal digits of any length, 19 digits
/// (one `u64`) at a time.
fn from_digits_chunked(digits: &str) -> Option<Int> {
    let mut acc = Int::zero();
    for chunk in digits.as_bytes().chunks(19) {
        let v = u64_of(std::str::from_utf8(chunk).ok()?)?;
        let scale = Int::from(10u64).pow(chunk.len() as u32);
        acc = &(&acc * &scale) + &Int::from(v);
    }
    Some(acc)
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Neg {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag_to_decimal())
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Int) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Int) -> Ordering {
        if let (Mag::Small(a), Mag::Small(b)) = (&self.mag, &other.mag) {
            // Branch-light single-limb path: compare signed (sign, mag) keys.
            return match (self.sign, other.sign) {
                (Sign::Neg, Sign::Neg) => b.cmp(a),
                (sa, sb) if sa != sb => sa.to_i32().cmp(&sb.to_i32()),
                _ => a.cmp(b),
            };
        }
        match (self.sign, other.sign) {
            (Sign::Neg, Sign::Neg) => Int::cmp_mag(other.limbs(), self.limbs()),
            (Sign::Neg, _) => Ordering::Less,
            (Sign::Zero, Sign::Neg) => Ordering::Greater,
            (Sign::Zero, Sign::Zero) => Ordering::Equal,
            (Sign::Zero, Sign::Pos) => Ordering::Less,
            (Sign::Pos, Sign::Pos) => Int::cmp_mag(self.limbs(), other.limbs()),
            (Sign::Pos, _) => Ordering::Greater,
        }
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(mut self) -> Int {
        self.sign = self.sign.neg();
        self
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        -self.clone()
    }
}

impl Int {
    /// Allocation-free signed addition of two single-limb magnitudes.
    fn add_small(sa: Sign, a: u64, sb: Sign, b: u64) -> Int {
        match (sa, sb) {
            (Sign::Zero, _) => Int::small(sb, b),
            (_, Sign::Zero) => Int::small(sa, a),
            _ if sa == sb => {
                let (s, carry) = a.overflowing_add(b);
                if carry {
                    Int {
                        sign: sa,
                        mag: Mag::Big(vec![s, 1]),
                    }
                } else {
                    Int {
                        sign: sa,
                        mag: Mag::Small(s),
                    }
                }
            }
            _ => match a.cmp(&b) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => Int {
                    sign: sa,
                    mag: Mag::Small(a - b),
                },
                Ordering::Less => Int {
                    sign: sb,
                    mag: Mag::Small(b - a),
                },
            },
        }
    }

    /// `self + rhs` with `rhs`'s sign replaced by `rsign`: addition when
    /// `rsign == rhs.sign`, subtraction when it is the flipped sign, so
    /// neither operator clones an operand to negate it.
    fn add_signed(&self, rsign: Sign, rhs: &Int) -> Int {
        if let (Mag::Small(a), Mag::Small(b)) = (&self.mag, &rhs.mag) {
            return Int::add_small(self.sign, *a, rsign, *b);
        }
        match (self.sign, rsign) {
            (Sign::Zero, _) => Int {
                sign: rsign,
                mag: rhs.mag.clone(),
            },
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => Int::from_mag(a, Int::add_mag(self.limbs(), rhs.limbs())),
            _ => match Int::cmp_mag(self.limbs(), rhs.limbs()) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => {
                    Int::from_mag(self.sign, Int::sub_mag(self.limbs(), rhs.limbs()))
                }
                Ordering::Less => Int::from_mag(rsign, Int::sub_mag(rhs.limbs(), self.limbs())),
            },
        }
    }
}

impl Add for &Int {
    type Output = Int;
    fn add(self, rhs: &Int) -> Int {
        self.add_signed(rhs.sign, rhs)
    }
}

impl Sub for &Int {
    type Output = Int;
    fn sub(self, rhs: &Int) -> Int {
        self.add_signed(rhs.sign.neg(), rhs)
    }
}

impl Mul for &Int {
    type Output = Int;
    fn mul(self, rhs: &Int) -> Int {
        if self.is_zero() || rhs.is_zero() {
            return Int::zero();
        }
        if let (Mag::Small(a), Mag::Small(b)) = (&self.mag, &rhs.mag) {
            return Int::from_u128_mag(self.sign.mul(rhs.sign), u128::from(*a) * u128::from(*b));
        }
        Int::from_mag(
            self.sign.mul(rhs.sign),
            Int::mul_mag(self.limbs(), rhs.limbs()),
        )
    }
}

impl Div for &Int {
    type Output = Int;
    fn div(self, rhs: &Int) -> Int {
        self.divrem(rhs).0
    }
}

impl Rem for &Int {
    type Output = Int;
    fn rem(self, rhs: &Int) -> Int {
        self.divrem(rhs).1
    }
}

impl Shl<u64> for &Int {
    type Output = Int;
    fn shl(self, bits: u64) -> Int {
        if self.is_zero() {
            return Int::zero();
        }
        if let Mag::Small(m) = &self.mag {
            if u64::from(m.leading_zeros()) >= bits {
                return Int {
                    sign: self.sign,
                    mag: Mag::Small(m << bits),
                };
            }
        }
        Int::from_mag(self.sign, Int::shl_mag(self.limbs(), bits))
    }
}

impl Shr<u64> for &Int {
    type Output = Int;
    fn shr(self, bits: u64) -> Int {
        // Arithmetic-toward-zero shift of the magnitude.
        if let Mag::Small(m) = &self.mag {
            let r = if bits >= 64 { 0 } else { m >> bits };
            return Int::small(self.sign, r);
        }
        Int::from_mag(self.sign, Int::shr_mag(self.limbs(), bits))
    }
}

macro_rules! forward_binop_owned {
    ($trait:ident, $method:ident) => {
        impl $trait for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Int> for Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                (&self).$method(rhs)
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                self.$method(&rhs)
            }
        }
    };
}

forward_binop_owned!(Add, add);
forward_binop_owned!(Sub, sub);
forward_binop_owned!(Mul, mul);
forward_binop_owned!(Div, div);
forward_binop_owned!(Rem, rem);

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, rhs: &Int) {
        *self = &*self - rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn int(s: &str) -> Int {
        s.parse().unwrap()
    }

    proptest! {
        /// A literal that fits one `u64` parses without bignum work; it
        /// must agree with the chunked path, and both must print back the
        /// literal without its leading zeros (and without the sign of
        /// `-0`). Digit strings of length 1–60: leading zeros, then digits.
        #[test]
        fn short_and_chunked_parses_agree(
            neg in any::<bool>(),
            zeros in 0usize..=25,
            tail in prop::collection::vec(0u8..=9, 0..=35),
        ) {
            let mut digits = "0".repeat(zeros);
            digits.extend(tail.iter().map(|&d| char::from(b'0' + d)));
            if digits.is_empty() {
                digits.push('0');
            }
            let literal = format!("{}{digits}", if neg { "-" } else { "" });
            let parsed: Int = literal.parse().map_err(|e| TestCaseError::fail(format!("{e}")))?;
            let magnitude = from_digits_chunked(&digits).ok_or_else(|| TestCaseError::fail("chunked"))?;
            let chunked = if neg { -magnitude } else { magnitude };
            prop_assert_eq!(&parsed, &chunked);
            let trimmed = digits.trim_start_matches('0');
            let want = match (trimmed, neg) {
                ("", _) => "0".to_owned(),
                (t, true) => format!("-{t}"),
                (t, false) => t.to_owned(),
            };
            prop_assert_eq!(parsed.to_string(), want);
        }
    }

    #[test]
    fn zero_properties() {
        let z = Int::zero();
        assert!(z.is_zero());
        assert_eq!(z.bit_length(), 0);
        assert_eq!(z.to_string(), "0");
        assert_eq!(&z + &Int::from(5), Int::from(5));
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(&Int::from(2) + &Int::from(3), Int::from(5));
        assert_eq!(&Int::from(2) - &Int::from(3), Int::from(-1));
        assert_eq!(&Int::from(-4) * &Int::from(-5), Int::from(20));
        assert_eq!(&Int::from(7) / &Int::from(2), Int::from(3));
        assert_eq!(&Int::from(7) % &Int::from(2), Int::from(1));
        assert_eq!(&Int::from(-7) / &Int::from(2), Int::from(-3));
        assert_eq!(&Int::from(-7) % &Int::from(2), Int::from(-1));
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            assert_eq!(int(s).to_string(), s);
        }
    }

    #[test]
    fn big_multiplication() {
        let a = int("123456789012345678901234567890");
        let b = int("987654321098765432109876543210");
        let p = &a * &b;
        assert_eq!(
            p.to_string(),
            "121932631137021795226185032733622923332237463801111263526900"
        );
    }

    #[test]
    fn big_division() {
        let a = int("121932631137021795226185032733622923332237463801111263526900");
        let b = int("987654321098765432109876543210");
        let (q, r) = a.divrem(&b);
        assert_eq!(q.to_string(), "123456789012345678901234567890");
        assert!(r.is_zero());
        let a2 = &a + &Int::from(17);
        let (q2, r2) = a2.divrem(&b);
        assert_eq!(q2, q);
        assert_eq!(r2, Int::from(17));
    }

    #[test]
    fn division_sign_convention() {
        for (a, b) in [(7i64, 3i64), (-7, 3), (7, -3), (-7, -3)] {
            let (q, r) = Int::from(a).divrem(&Int::from(b));
            assert_eq!(q, Int::from(a / b), "q for {a}/{b}");
            assert_eq!(r, Int::from(a % b), "r for {a}/{b}");
        }
    }

    #[test]
    fn bit_length() {
        assert_eq!(Int::from(1).bit_length(), 1);
        assert_eq!(Int::from(2).bit_length(), 2);
        assert_eq!(Int::from(255).bit_length(), 8);
        assert_eq!(Int::from(256).bit_length(), 9);
        assert_eq!(Int::pow2(100).bit_length(), 101);
        assert_eq!(Int::from(-255).bit_length(), 8);
    }

    #[test]
    fn shifts() {
        let a = int("123456789012345678901234567890");
        assert_eq!(&(&a << 13) >> 13, a);
        assert_eq!(&Int::from(1) << 64, int("18446744073709551616"));
        assert_eq!(&int("18446744073709551617") >> 64, Int::from(1));
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(Int::from(12).gcd(&Int::from(18)), Int::from(6));
        assert_eq!(Int::from(-12).gcd(&Int::from(18)), Int::from(6));
        assert_eq!(Int::zero().gcd(&Int::from(-5)), Int::from(5));
        assert_eq!(Int::from(17).gcd(&Int::from(13)), Int::from(1));
    }

    #[test]
    fn pow() {
        assert_eq!(Int::from(3).pow(0), Int::from(1));
        assert_eq!(Int::from(3).pow(5), Int::from(243));
        assert_eq!(
            Int::from(10).pow(30),
            int("1000000000000000000000000000000")
        );
        assert_eq!(Int::from(-2).pow(3), Int::from(-8));
    }

    #[test]
    fn euclid_division() {
        let (q, r) = Int::from(-7).div_euclid(&Int::from(3));
        assert_eq!((q, r), (Int::from(-3), Int::from(2)));
        let (q, r) = Int::from(-7).div_euclid(&Int::from(-3));
        assert_eq!((q, r), (Int::from(3), Int::from(2)));
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(Int::from(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!(Int::from(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!((&Int::from(i64::MAX) + &Int::one()).to_i64(), None);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands big enough to cross the Karatsuba threshold.
        let mut a = Int::one();
        let mut b = Int::from(3);
        for i in 0..40 {
            a = &(&a * &int("1000000000000000000019")) + &Int::from(i);
            b = &(&b * &int("999999999999999999989")) + &Int::from(2 * i + 1);
        }
        let p = &a * &b;
        // Verify via divrem: p / a == b exactly.
        let (q, r) = p.divrem(&a);
        assert_eq!(q, b);
        assert!(r.is_zero());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(Int::zero().trailing_zeros(), None);
        assert_eq!(Int::from(1).trailing_zeros(), Some(0));
        assert_eq!(Int::from(8).trailing_zeros(), Some(3));
        assert_eq!(Int::pow2(130).trailing_zeros(), Some(130));
    }

    // ── Single-limb edge cases the CRT resultant path leans on ──────────

    #[test]
    fn u64_max_boundary_add_carries() {
        // u64::MAX + 1 must carry out of the inline limb into Big storage.
        let max = Int::from(u64::MAX);
        let succ = &max + &Int::one();
        assert_eq!(succ, Int::pow2(64));
        assert_eq!(succ.bit_length(), 65);
        // … and subtracting brings it back down to a canonical Small.
        assert_eq!(&succ - &Int::one(), max);
        assert_eq!((&succ - &Int::one()).bit_length(), 64);
        // MAX + MAX = 2^65 − 2 straddles the limb boundary from both sides.
        let doubled = &max + &max;
        assert_eq!(doubled, &Int::pow2(65) - &Int::from(2));
        assert_eq!(&doubled - &max, max);
    }

    #[test]
    fn u64_max_boundary_mul_carries() {
        // MAX² = 2^128 − 2^65 + 1: the full-width single-limb product.
        let max = Int::from(u64::MAX);
        let sq = &max * &max;
        let expect = &(&Int::pow2(128) - &Int::pow2(65)) + &Int::one();
        assert_eq!(sq, expect);
        assert_eq!(sq.bit_length(), 128);
        // Exact division recovers the factor, and mod_u64 sees residue 0.
        assert_eq!(sq.div_exact(&max), max);
        assert_eq!(sq.mod_u64(u64::MAX), 0);
        assert_eq!((&sq + &Int::one()).mod_u64(u64::MAX), 1);
    }

    #[test]
    fn to_f64_interval_at_2_to_53() {
        // 2^53 − 1 is the largest odd integer that fits the mantissa: the
        // enclosure must be a point there (bit_length = 53, exact branch).
        let exact = Int::pow2(53);
        let below = &exact - &Int::one();
        assert_eq!(
            below.to_f64_interval(),
            (9007199254740991.0, 9007199254740991.0)
        );
        // 2^53 itself has bit_length 54, so it crosses into the
        // correctly-rounded branch: the enclosure widens outward by one ulp
        // step each way but must still contain the exact value.
        let (lo, hi) = exact.to_f64_interval();
        assert!(lo <= 9007199254740992.0 && 9007199254740992.0 <= hi);
        assert!(hi - lo <= 4.0, "enclosure stays within 2 ulps at 2^53");
        // 2^53 + 1 (odd, 54 bits) cannot be an f64 at all: the enclosure
        // must properly straddle the true value.
        let above = &exact + &Int::one();
        let (lo, hi) = above.to_f64_interval();
        assert!(lo < hi, "2^53 + 1 is not an f64; interval must widen");
        assert!(lo <= 9007199254740992.0 && 9007199254740994.0 <= hi);
        // Negative mirror.
        let (nlo, nhi) = (-&above).to_f64_interval();
        assert_eq!((nlo, nhi), (-hi, -lo));
    }

    #[test]
    fn gcd_of_mixed_small_and_big_magnitudes() {
        // gcd(2^100 · 3, 6) = 6: one operand Big, one Small.
        let big = &Int::pow2(100) * &Int::from(3);
        assert_eq!(big.gcd(&Int::from(6)), Int::from(6));
        assert_eq!(Int::from(6).gcd(&big), Int::from(6));
        // Coprime mix in either order, and sign-insensitivity.
        let p = &Int::pow2(89) - &Int::one(); // Mersenne prime M89
        assert_eq!(p.gcd(&Int::from(u64::MAX)), Int::one());
        assert_eq!((-&p).gcd(&Int::from(-6)), Int::one());
        // Shared Big factor found through a Small cofactor:
        // gcd(m · 7, 7) where m · 7 is multi-limb.
        let m7 = &p * &Int::from(7);
        assert_eq!(m7.gcd(&Int::from(7)), Int::from(7));
        // Zero identities at the boundary.
        assert_eq!(big.gcd(&Int::zero()), big.abs());
        assert_eq!(Int::zero().gcd(&Int::from(u64::MAX)), Int::from(u64::MAX));
    }

    #[test]
    fn mod_u64_matches_divrem() {
        let samples = [
            Int::zero(),
            Int::from(1),
            Int::from(-1),
            Int::from(u64::MAX),
            &Int::pow2(64) + &Int::from(5),
            &Int::pow2(200) - &Int::from(3),
            -&(&Int::pow2(130) + &Int::from(911)),
        ];
        for m in [1u64, 2, 97, u64::MAX, 4611686018427387847] {
            for v in &samples {
                let (_, r) = v.abs().divrem(&Int::from(m));
                assert_eq!(Int::from(v.mod_u64(m)), r, "v = {v}, m = {m}");
            }
        }
    }
}
