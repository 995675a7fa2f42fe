//! Atomic polynomial constraints `p σ 0`.

use cdb_num::{Rat, Sign};
use cdb_poly::MPoly;
use std::fmt;

/// Comparison operator of an atomic constraint (against zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `p = 0`
    Eq,
    /// `p ≠ 0`
    Ne,
    /// `p < 0`
    Lt,
    /// `p ≤ 0`
    Le,
    /// `p > 0`
    Gt,
    /// `p ≥ 0`
    Ge,
}

impl RelOp {
    /// Does a value of this sign satisfy the comparison?
    #[must_use]
    pub fn accepts(self, s: Sign) -> bool {
        match self {
            RelOp::Eq => s == Sign::Zero,
            RelOp::Ne => s != Sign::Zero,
            RelOp::Lt => s == Sign::Neg,
            RelOp::Le => s != Sign::Pos,
            RelOp::Gt => s == Sign::Pos,
            RelOp::Ge => s != Sign::Neg,
        }
    }

    /// The complementary operator (`¬(p σ 0)` ⇔ `p σ̄ 0`).
    #[must_use]
    pub fn negated(self) -> RelOp {
        match self {
            RelOp::Eq => RelOp::Ne,
            RelOp::Ne => RelOp::Eq,
            RelOp::Lt => RelOp::Ge,
            RelOp::Le => RelOp::Gt,
            RelOp::Gt => RelOp::Le,
            RelOp::Ge => RelOp::Lt,
        }
    }

    /// The operator for the sign-flipped polynomial (`p σ 0` ⇔ `−p σ' 0`).
    #[must_use]
    pub fn flipped(self) -> RelOp {
        match self {
            RelOp::Eq => RelOp::Eq,
            RelOp::Ne => RelOp::Ne,
            RelOp::Lt => RelOp::Gt,
            RelOp::Le => RelOp::Ge,
            RelOp::Gt => RelOp::Lt,
            RelOp::Ge => RelOp::Le,
        }
    }

    /// Render.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            RelOp::Eq => "=",
            RelOp::Ne => "!=",
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
        }
    }
}

/// An atomic constraint `poly op 0` over the variables of `poly`'s ring.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Left-hand polynomial (compared against zero).
    pub poly: MPoly,
    /// Comparison operator.
    pub op: RelOp,
}

impl Atom {
    /// Construct.
    #[must_use]
    pub fn new(poly: MPoly, op: RelOp) -> Atom {
        Atom { poly, op }
    }

    /// `lhs op rhs` convenience constructor (moves everything to the left).
    #[must_use]
    pub fn cmp(lhs: MPoly, op: RelOp, rhs: MPoly) -> Atom {
        Atom {
            poly: &lhs - &rhs,
            op,
        }
    }

    /// Number of variables in the ambient ring.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.poly.nvars()
    }

    /// Truth at a rational point.
    #[must_use]
    pub fn satisfied_at(&self, point: &[Rat]) -> bool {
        self.op.accepts(self.poly.eval(point).sign())
    }

    /// The negated atom.
    #[must_use]
    pub fn negated(&self) -> Atom {
        Atom {
            poly: self.poly.clone(),
            op: self.op.negated(),
        }
    }

    /// Canonical form: polynomial in integer-primitive form with positive
    /// leading coefficient (op flipped accordingly). Constant polynomials
    /// collapse to `Some(true/false)`.
    #[must_use]
    pub fn canonicalize(&self) -> CanonicalAtom {
        if let Some(c) = self.poly.to_constant() {
            return CanonicalAtom::Trivial(self.op.accepts(c.sign()));
        }
        let prim = self.poly.primitive();
        // primitive() scales by a positive factor unless the lex-leading
        // coefficient was negative, in which case it negates — flip the
        // operator to compensate.
        let orig_lead = self
            .poly
            .terms()
            .last()
            .map_or(Sign::Zero, |(_, c)| c.sign());
        let op = if orig_lead == Sign::Neg {
            self.op.flipped()
        } else {
            self.op
        };
        CanonicalAtom::Atom(Atom { poly: prim, op })
    }

    /// Read a one-variable linear atom `a·xᵢ + b σ 0` straight off its
    /// (at most two) terms: `(i, −b/a, a < 0)`, i.e. the atom says
    /// `xᵢ σ −b/a`, with `σ` flipped when the last component is set. `None`
    /// for every other shape.
    #[must_use]
    pub fn as_linear_bound(&self) -> Option<(usize, Rat, bool)> {
        if self.poly.total_degree() != 1 || self.poly.num_terms() > 2 {
            return None;
        }
        // Ascending lex order puts the constant term, if any, first.
        let mut terms = self.poly.terms();
        let (mono, a) = terms.next_back()?;
        let b = match terms.next() {
            Some((m, b)) if m.is_constant() => -b,
            Some(_) => return None,
            None => Rat::zero(),
        };
        let var = mono.exps().position(|e| e == 1)?;
        Some((var, &b / a, a.sign() == Sign::Neg))
    }

    /// Render with the given variable names.
    #[must_use]
    pub fn display_with(&self, names: &[&str]) -> String {
        format!("{} {} 0", self.poly.display_with(names), self.op.symbol())
    }
}

/// Result of canonicalization.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CanonicalAtom {
    /// Constant truth value.
    Trivial(bool),
    /// Normalized atom.
    Atom(Atom),
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} 0", self.poly, self.op.symbol())
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Atom({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x2_minus_2() -> Atom {
        let x = MPoly::var(0, 1);
        Atom::new(&x.pow(2) - &MPoly::constant(Rat::from(2i64), 1), RelOp::Le)
    }

    #[test]
    fn satisfaction() {
        let a = x2_minus_2(); // x² − 2 ≤ 0
        assert!(a.satisfied_at(&[Rat::one()]));
        assert!(a.satisfied_at(&[Rat::from(-1i64)]));
        assert!(!a.satisfied_at(&[Rat::from(2i64)]));
    }

    #[test]
    fn negation_partitions() {
        let a = x2_minus_2();
        let n = a.negated();
        for v in [-3i64, -1, 0, 1, 2, 5] {
            let p = [Rat::from(v)];
            assert_ne!(a.satisfied_at(&p), n.satisfied_at(&p));
        }
    }

    #[test]
    fn op_tables() {
        assert!(RelOp::Le.accepts(Sign::Zero));
        assert!(RelOp::Le.accepts(Sign::Neg));
        assert!(!RelOp::Le.accepts(Sign::Pos));
        assert_eq!(RelOp::Lt.negated(), RelOp::Ge);
        assert_eq!(RelOp::Lt.flipped(), RelOp::Gt);
        assert_eq!(RelOp::Eq.flipped(), RelOp::Eq);
    }

    #[test]
    fn cmp_constructor() {
        // x ≤ y becomes x − y ≤ 0.
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let a = Atom::cmp(x, RelOp::Le, y);
        assert!(a.satisfied_at(&[Rat::one(), Rat::from(2i64)]));
        assert!(!a.satisfied_at(&[Rat::from(2i64), Rat::one()]));
    }

    #[test]
    fn canonicalization() {
        // −2x + 4 ≥ 0 canonicalizes to x − 2 ≤ 0.
        let x = MPoly::var(0, 1);
        let a = Atom::new(
            &MPoly::constant(Rat::from(4i64), 1) - &x.scale(&Rat::from(2i64)),
            RelOp::Ge,
        );
        match a.canonicalize() {
            CanonicalAtom::Atom(c) => {
                assert_eq!(c.op, RelOp::Le);
                assert_eq!(
                    c.poly,
                    &MPoly::var(0, 1) - &MPoly::constant(Rat::from(2i64), 1)
                );
            }
            CanonicalAtom::Trivial(_) => panic!("not trivial"),
        }
        // Trivial: 3 < 0 is false.
        let t = Atom::new(MPoly::constant(Rat::from(3i64), 1), RelOp::Lt);
        assert_eq!(t.canonicalize(), CanonicalAtom::Trivial(false));
    }
}
