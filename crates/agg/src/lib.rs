#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-agg`: aggregate evaluation modules (§5, Definition 5.3).
//!
//! "A (k, l)-aggregate (evaluation) module is a partial mapping from k-ary
//! constraint relations to l-ary constraint relations." The aggregates the
//! paper includes — MIN, MAX, AVG, LENGTH, SURFACE, VOLUME, EVAL — are
//! implemented over the CAD machinery: a relation's cells are scanned, and
//! measures are integrated exactly (polynomial bounds, rational endpoints)
//! or by adaptive Simpson quadrature otherwise ("the aggregate functions
//! included in CALC_F can be implemented by known numerical methods
//! [BF85, PTVF92]").
//!
//! All modules are *partial*: unbounded regions, non-attained extrema and
//! infinite measures yield [`AggError`] (the paper's "undefined otherwise"),
//! never a wrong number.

pub mod aggregate;
pub mod eval;
pub mod length;
pub mod minmax;
pub mod quad;
pub mod region;
pub mod surface;
pub mod volume;

pub use aggregate::{apply_aggregate, Aggregate};
pub use eval::eval_aggregate;
pub use length::{avg, length};
pub use minmax::{max_of, min_of};
pub use surface::surface;
pub use volume::volume;

use std::fmt;

/// Why an aggregate is undefined (or failed).
#[derive(Debug, Clone, PartialEq)]
pub enum AggError {
    /// The region is unbounded in some direction.
    Unbounded,
    /// The extremum exists as an infimum/supremum but is not attained
    /// (open region), so MIN/MAX is undefined.
    NotAttained,
    /// The measure is infinite.
    InfiniteMeasure,
    /// The relation is empty (MIN/MAX/AVG of nothing).
    EmptyRegion,
    /// Arity mismatch for the module.
    Arity {
        /// What the module needs.
        expected: usize,
        /// What it got.
        got: usize,
    },
    /// Underlying quantifier elimination failure.
    Qe(cdb_qe::QeError),
    /// Numerical integration failed to converge.
    Quadrature(String),
    /// Invariant violation inside the aggregate machinery (a bug in the
    /// CAD/region plumbing, not a user error).
    Internal(String),
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::Unbounded => write!(f, "aggregate undefined: unbounded region"),
            AggError::NotAttained => write!(f, "aggregate undefined: extremum not attained"),
            AggError::InfiniteMeasure => write!(f, "aggregate undefined: infinite measure"),
            AggError::EmptyRegion => write!(f, "aggregate undefined: empty region"),
            AggError::Arity { expected, got } => {
                write!(
                    f,
                    "aggregate arity mismatch: expected {expected}, got {got}"
                )
            }
            AggError::Qe(e) => write!(f, "aggregate: {e}"),
            AggError::Quadrature(m) => write!(f, "quadrature failure: {m}"),
            AggError::Internal(m) => write!(f, "aggregate internal error: {m}"),
        }
    }
}

impl std::error::Error for AggError {}

impl From<cdb_qe::QeError> for AggError {
    fn from(e: cdb_qe::QeError) -> AggError {
        AggError::Qe(e)
    }
}

/// An aggregate's numeric result.
#[derive(Debug, Clone, PartialEq)]
pub struct AggValue {
    /// The value (exact rational, or a rational carrying the f64 result).
    pub value: cdb_num::Rat,
    /// True when computed by exact integration/extraction.
    pub exact: bool,
}

impl AggValue {
    /// Exact value.
    #[must_use]
    pub fn exact(value: cdb_num::Rat) -> AggValue {
        AggValue { value, exact: true }
    }

    /// The real number `root`: itself when it is rational, else a rational
    /// within `eps` of it.
    #[must_use]
    pub(crate) fn of(root: &cdb_poly::RealAlg, eps: &cdb_num::Rat) -> AggValue {
        match root.to_rat() {
            Some(r) => AggValue::exact(r),
            None => AggValue {
                value: root.approx(eps),
                exact: false,
            },
        }
    }

    /// Approximate value from an f64; a non-finite one (an overflowed or
    /// failed quadrature) is an [`AggError::Quadrature`], never a number.
    // cdb-lint: allow(float) — the one inward door for §5 quadrature results;
    // the value is tagged `exact: false` so callers cannot mistake it
    pub fn approx(v: f64) -> Result<AggValue, AggError> {
        match cdb_num::Rat::from_f64(v) {
            Some(value) => Ok(AggValue {
                value,
                exact: false,
            }),
            None => Err(AggError::Quadrature(format!("non-finite result {v}"))),
        }
    }

    /// As f64.
    #[must_use]
    // cdb-lint: allow(float) — reporting-only conversion for display/tests
    pub fn to_f64(&self) -> f64 {
        self.value.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quadrature total that overflowed or failed is an error, not an
    /// approximate 0; a finite one is kept exactly, tagged inexact.
    #[test]
    fn approx_refuses_non_finite_values() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(
                matches!(AggValue::approx(v), Err(AggError::Quadrature(_))),
                "{v}"
            );
        }
        let half = AggValue::approx(0.5).unwrap();
        assert_eq!(half.value, cdb_num::Rat::from_ints(1, 2));
        assert!(!half.exact);
    }
}
