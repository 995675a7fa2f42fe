//! Outward-rounded `f64` intervals — the split-word filter arithmetic.
//!
//! [`FIntv`] is the machine-float realisation of the paper's split-word
//! arithmetic (Thm 4.3 / Lemma 4.4): every operation is computed twice,
//! once rounded toward −∞ for the lower word (`+l`, `×l`, …) and once
//! toward +∞ for the upper word (`+u`, `×u`, …). We emulate the directed
//! roundings on round-to-nearest hardware by widening each result with
//! [`f64::next_down`]/[`f64::next_up`], which over-approximates both
//! directed modes and therefore preserves the enclosure invariant:
//!
//! > for every exact rational value `v` tracked by an `FIntv`,
//! > `lo <= v <= hi` holds as real numbers.
//!
//! [`FIntv::sign`] is the *filter*: it answers `Some(sign)` only when the
//! enclosure excludes zero (or is the exact point zero), so a caller may
//! short-circuit an exact big-rational sign computation. When the enclosure
//! straddles zero the filter answers `None` and the caller must *certify*
//! with exact arithmetic — the certify-on-straddle invariant that keeps
//! every filtered decision byte-identical to the unfiltered pipeline.
//!
//! The module also hosts the process-global filter instrumentation
//! (hit/fallback counters and the on/off switch used by the differential
//! tests).

use crate::{Int, Rat, Sign};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Outward-rounded floating-point interval (split-word filter value).
///
/// Invariants: `lo <= hi`, neither endpoint is NaN (infinite endpoints mark
/// an unbounded enclosure). Every arithmetic result is widened one ulp per
/// endpoint so the true real result is always contained.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FIntv {
    lo: f64,
    hi: f64,
}

/// Process-global count of sign decisions the float filter settled.
static FILTER_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-global count of straddles that required exact certification.
static FILTER_FALLBACKS: AtomicU64 = AtomicU64::new(0);
/// Master switch; disabled means every filtered call goes straight to the
/// exact path (used by differential tests and before/after benchmarks).
static FILTER_ENABLED: AtomicBool = AtomicBool::new(true);

/// Is the float filter currently enabled? (Default: yes.)
// cdb-lint: allow(determinism-taint) — the flag only gates a result-transparent
// fast path: on either branch the exact path confirms the same bytes
fn filter_enabled() -> bool {
    FILTER_ENABLED.load(Ordering::Relaxed)
}

/// The filtered-sign gate: when the filter is enabled, the sign of the
/// float `enclosure` if it excludes zero (counted as a hit), else `None`
/// (counted as a fallback); when disabled, `None` without building the
/// enclosure. On `None` the caller takes its exact path, so the decision is
/// byte-identical with the filter on or off.
#[must_use]
pub fn filtered(enclosure: impl FnOnce() -> FIntv) -> Option<Sign> {
    if !filter_enabled() {
        return None;
    }
    let sign = FIntv::sign(&enclosure());
    if sign.is_some() {
        note_filter_hit();
    } else {
        note_filter_fallback();
    }
    sign
}

/// Enable or disable the float filter process-wide.
///
/// Disabling routes every filtered sign decision to the exact path; results
/// are byte-identical either way (the filter only short-circuits decisions
/// the exact path would confirm), so this exists for differential testing
/// and for measuring the filter's wall-clock contribution.
pub fn set_filter_enabled(enabled: bool) {
    FILTER_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Record one filter hit (float enclosure settled the sign).
// cdb-lint: allow(determinism-taint) — stats counter; never read on a result path
fn note_filter_hit() {
    FILTER_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Record one filter fallback (straddle; exact certification ran).
// cdb-lint: allow(determinism-taint) — stats counter; never read on a result path
fn note_filter_fallback() {
    FILTER_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the process-global `(hits, fallbacks)` filter counters.
#[must_use]
// cdb-lint: allow(determinism-taint) — diagnostics snapshot; callers report it,
// results never depend on it
pub fn filter_counters() -> (u64, u64) {
    (
        FILTER_HITS.load(Ordering::Relaxed),
        FILTER_FALLBACKS.load(Ordering::Relaxed),
    )
}

impl FIntv {
    /// The point interval `[v, v]` (no widening; `v` must be exact).
    #[must_use]
    pub fn point(v: f64) -> FIntv {
        debug_assert!(!v.is_nan());
        FIntv { lo: v, hi: v }
    }

    /// The exact zero interval `[0, 0]`.
    #[must_use]
    pub fn zero() -> FIntv {
        FIntv::point(0.0)
    }

    /// The whole real line `[-inf, +inf]` (conveys no information).
    #[must_use]
    pub fn whole() -> FIntv {
        FIntv {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// Construct from endpoints, mapping any NaN to [`FIntv::whole`].
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> FIntv {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            FIntv::whole()
        } else {
            FIntv { lo, hi }
        }
    }

    /// Lower endpoint.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// True iff this is the exact point zero.
    #[must_use]
    pub fn is_exact_zero(&self) -> bool {
        self.lo == 0.0 && self.hi == 0.0
    }

    /// Sign of every real number in the enclosure, or `None` when the
    /// enclosure straddles zero (the caller must certify exactly).
    ///
    /// `Some(Sign::Zero)` is returned only for the exact point zero, which
    /// under outward rounding arises solely from exact constructions — it
    /// is never the result of a widened operation on nonzero inputs.
    #[must_use]
    pub fn sign(&self) -> Option<Sign> {
        if self.lo > 0.0 {
            Some(Sign::Pos)
        } else if self.hi < 0.0 {
            Some(Sign::Neg)
        } else if self.lo == 0.0 && self.hi == 0.0 {
            Some(Sign::Zero)
        } else {
            None
        }
    }

    /// Interval negation (exact: no widening needed).
    #[must_use]
    pub fn neg(&self) -> FIntv {
        FIntv {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// Outward-rounded addition (`+l` on the lower word, `+u` on the upper).
    #[must_use]
    pub fn add(&self, other: &FIntv) -> FIntv {
        if self.is_exact_zero() {
            return *other;
        }
        if other.is_exact_zero() {
            return *self;
        }
        FIntv::new(
            (self.lo + other.lo).next_down(),
            (self.hi + other.hi).next_up(),
        )
    }

    /// Outward-rounded subtraction.
    #[must_use]
    pub fn sub(&self, other: &FIntv) -> FIntv {
        self.add(&other.neg())
    }

    /// Outward-rounded multiplication (`×l` / `×u` over the four corner
    /// products).
    #[must_use]
    pub fn mul(&self, other: &FIntv) -> FIntv {
        // Exact algebraic identity; also avoids 0 * inf = NaN corners.
        if self.is_exact_zero() || other.is_exact_zero() {
            return FIntv::zero();
        }
        let c = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        if c.iter().any(|v| v.is_nan()) {
            return FIntv::whole();
        }
        let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        FIntv::new(lo.next_down(), hi.next_up())
    }

    /// Outward-rounded `n`-th power, sharp for even powers of straddling
    /// intervals (the result is clamped to `>= 0`, mirroring
    /// [`crate::RatInterval::pow`]).
    #[must_use]
    pub fn pow(&self, n: u32) -> FIntv {
        fn pow_down(x: f64, n: u32) -> f64 {
            debug_assert!(x >= 0.0);
            let mut acc = 1.0f64;
            for _ in 0..n {
                acc = (acc * x).next_down().max(0.0);
            }
            acc
        }
        fn pow_up(x: f64, n: u32) -> f64 {
            debug_assert!(x >= 0.0);
            let mut acc = 1.0f64;
            for _ in 0..n {
                acc = (acc * x).next_up();
            }
            acc
        }
        if n == 0 {
            return FIntv::point(1.0);
        }
        if n == 1 {
            return *self;
        }
        let (lo, hi) = (self.lo, self.hi);
        if n % 2 == 1 {
            // Odd powers are monotone.
            let plo = if lo >= 0.0 {
                pow_down(lo, n)
            } else {
                -pow_up(-lo, n)
            };
            let phi = if hi >= 0.0 {
                pow_up(hi, n)
            } else {
                -pow_down(-hi, n)
            };
            FIntv::new(plo, phi)
        } else if lo >= 0.0 {
            FIntv::new(pow_down(lo, n), pow_up(hi, n))
        } else if hi <= 0.0 {
            FIntv::new(pow_down(-hi, n), pow_up(-lo, n))
        } else {
            // Straddles zero: minimum is 0, maximum at the larger magnitude.
            FIntv::new(0.0, pow_up((-lo).max(hi), n))
        }
    }

    /// Widening conversion from an exact integer (guaranteed enclosure).
    #[must_use]
    pub fn from_int(v: &Int) -> FIntv {
        let (lo, hi) = v.to_f64_interval();
        FIntv { lo, hi }
    }

    /// Hull of two rational endpoints: the tightest representable float
    /// interval containing `[lo, hi]`.
    #[must_use]
    pub fn from_rat_endpoints(lo: &Rat, hi: &Rat) -> FIntv {
        let l = FIntv::from(lo);
        let h = FIntv::from(hi);
        FIntv::new(l.lo, h.hi)
    }

    /// True iff the enclosure contains `v` (endpoint-inclusive).
    #[must_use]
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

impl From<&Rat> for FIntv {
    /// Widening conversion: a guaranteed enclosure of the exact rational,
    /// built from integer enclosures of the numerator and (positive)
    /// denominator via outward-rounded corner division.
    fn from(r: &Rat) -> FIntv {
        if r.is_zero() {
            return FIntv::zero();
        }
        let (nlo, nhi) = r.numer().to_f64_interval();
        let (dlo, dhi) = r.denom().to_f64_interval();
        debug_assert!(dlo > 0.0, "Rat denominators are normalized positive");
        let c = [nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi];
        if c.iter().any(|v| v.is_nan()) {
            return FIntv::whole();
        }
        let lo = c.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        FIntv::new(lo.next_down(), hi.next_up())
    }
}

impl From<&Int> for FIntv {
    fn from(v: &Int) -> FIntv {
        FIntv::from_int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i64, d: i64) -> Rat {
        Rat::new(Int::from(n), Int::from(d))
    }

    fn contains_rat(iv: &FIntv, v: &Rat) {
        // Compare exactly: endpoints are floats, so convert them to Rat.
        if iv.lo().is_finite() {
            let lo = Rat::from_f64(iv.lo()).unwrap();
            assert!(&lo <= v, "lo {} > value {v}", iv.lo());
        }
        if iv.hi().is_finite() {
            let hi = Rat::from_f64(iv.hi()).unwrap();
            assert!(v <= &hi, "hi {} < value {v}", iv.hi());
        }
    }

    #[test]
    fn point_and_sign() {
        assert_eq!(FIntv::point(2.0).sign(), Some(Sign::Pos));
        assert_eq!(FIntv::point(-2.0).sign(), Some(Sign::Neg));
        assert_eq!(FIntv::zero().sign(), Some(Sign::Zero));
        assert_eq!(FIntv::new(-1.0, 1.0).sign(), None);
        assert_eq!(FIntv::whole().sign(), None);
    }

    #[test]
    fn rat_conversion_encloses() {
        for (n, d) in [(1, 3), (-22, 7), (0, 5), (i64::MAX, 3), (-7, 11)] {
            let r = rat(n, d);
            let iv = FIntv::from(&r);
            contains_rat(&iv, &r);
        }
    }

    #[test]
    fn huge_int_enclosure() {
        let big = Int::pow2(300);
        let (lo, hi) = big.to_f64_interval();
        assert!(lo <= 2f64.powi(300) && 2f64.powi(300) <= hi);
        let over = Int::pow2(2000);
        let (lo, hi) = over.to_f64_interval();
        assert_eq!(hi, f64::INFINITY);
        assert_eq!(lo, f64::MAX);
        let (lo, hi) = (-over).to_f64_interval();
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, -f64::MAX);
    }

    #[test]
    fn arithmetic_encloses() {
        let a = rat(1, 3);
        let b = rat(-22, 7);
        let (fa, fb) = (FIntv::from(&a), FIntv::from(&b));
        contains_rat(&fa.add(&fb), &(&a + &b));
        contains_rat(&fa.sub(&fb), &(&a - &b));
        contains_rat(&fa.mul(&fb), &(&a * &b));
        contains_rat(&fb.pow(3), &(&(&b * &b) * &b));
        contains_rat(&fb.pow(2), &(&b * &b));
    }

    #[test]
    fn even_pow_of_straddle_is_nonnegative() {
        let iv = FIntv::new(-2.0, 1.0).pow(2);
        assert!(iv.lo() >= 0.0);
        assert!(iv.hi() >= 4.0);
    }

    #[test]
    fn exact_zero_propagates() {
        let z = FIntv::zero();
        let x = FIntv::new(3.0, 4.0);
        assert!(z.mul(&x).is_exact_zero());
        assert_eq!(z.add(&x), x);
        assert_eq!(z.mul(&FIntv::whole()).sign(), Some(Sign::Zero));
    }

    #[test]
    fn counters_move() {
        let (h0, f0) = filter_counters();
        note_filter_hit();
        note_filter_fallback();
        let (h1, f1) = filter_counters();
        assert!(h1 > h0 && f1 > f0);
    }
}
