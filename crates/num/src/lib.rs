#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-num`: exact and finite-precision arithmetic substrate for the
//! constraint database.
//!
//! The paper's framework needs three kinds of numbers:
//!
//! * **Arbitrary-precision integers** ([`Int`]) — coefficients of the
//!   polynomials that encode generalized tuples, and the raw material of the
//!   finite-precision semantics (bit lengths of these integers are what the
//!   `⊨_QE^F` satisfaction relation bounds).
//! * **Rationals** ([`Rat`]) — sample points, isolating-interval endpoints,
//!   and every intermediate value of quantifier elimination.
//! * **k-floating numbers** ([`fk::Fk`]) — the paper's §4 structure
//!   `F_k = ⟨F_k, ≤, +, ×, 0, 1⟩` of floating numbers `[n, e]` denoting
//!   `n·2^e`, whose arithmetic is *partial* (undefined on exponent overflow
//!   or insufficient mantissa precision).
//! * **Bounded integers** ([`zk::Zk`]) — the §4 structure `Z_k` of integers of
//!   bit length at most `k`, with the split-word operations `+l/+u/×l/×u` of
//!   Theorem 4.3.
//! * **Word-size prime fields** ([`modp::ModP`]) — `Z_p` residue arithmetic
//!   and Chinese-remainder reconstruction ([`modp::Crt`]) powering the
//!   modular resultant kernels of DESIGN.md §11.
//!
//! Rational interval arithmetic ([`interval::RatInterval`]) supports exact
//! sign determination at real algebraic points during CAD lifting, and
//! outward-rounded machine-float intervals ([`fintv::FIntv`]) provide the
//! split-word *filter* layer that short-circuits exact sign computations
//! whenever a cheap f64 enclosure already excludes zero.
//!
//! Every content-addressed table of the workspace hashes with the one
//! fixed-key word hasher [`hash::ContentHasher`].

pub mod fintv;
pub mod fk;
pub mod hash;
pub mod int;
pub mod interval;
pub mod modp;
pub mod rat;
pub mod zk;

pub use fintv::FIntv;
pub use fk::{Fk, FkError, FkParams};
pub use int::Int;
pub use interval::RatInterval;
pub use modp::ModP;
pub use rat::Rat;
pub use zk::Zk;

/// Sign of a real quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Neg,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Pos,
}

// The arithmetic-flavoured method names are deliberate (sign algebra);
// they are not operator-trait implementations.
#[allow(clippy::should_implement_trait)]
impl Sign {
    /// Sign of a product.
    #[must_use]
    pub fn mul(self, other: Sign) -> Sign {
        match (self, other) {
            (Sign::Zero, _) | (_, Sign::Zero) => Sign::Zero,
            (Sign::Neg, Sign::Neg) | (Sign::Pos, Sign::Pos) => Sign::Pos,
            _ => Sign::Neg,
        }
    }

    /// Sign flip.
    #[must_use]
    pub fn neg(self) -> Sign {
        match self {
            Sign::Neg => Sign::Pos,
            Sign::Zero => Sign::Zero,
            Sign::Pos => Sign::Neg,
        }
    }

    /// As -1 / 0 / +1.
    #[must_use]
    pub fn to_i32(self) -> i32 {
        match self {
            Sign::Neg => -1,
            Sign::Zero => 0,
            Sign::Pos => 1,
        }
    }
}
