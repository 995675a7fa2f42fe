//! First-order formulas over the real field plus a database schema.
//!
//! Variables are indices into a fixed ambient ring of `nvars` variables
//! (the paper's "pre-established order" of variables, which the finite
//! precision semantics requires to be fixed — §4).

use crate::atom::Atom;
use crate::boxes::TupleBox;
use crate::database::Database;
use crate::gtuple::GeneralizedTuple;
use crate::relation::ConstraintRelation;
use crate::tupleset::TupleSet;
use cdb_num::Rat;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// Quantifier kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    /// ∃
    Exists,
    /// ∀
    Forall,
}

/// A first-order formula in the language `L ∪ σ` (real field plus database
/// relation symbols).
#[derive(Clone, PartialEq)]
pub enum Formula {
    /// ⊤
    True,
    /// ⊥
    False,
    /// Polynomial constraint.
    Atom(Atom),
    /// Database relation applied to variables (by index).
    Rel(String, Vec<usize>),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Quantification over one variable.
    Quant(Quantifier, usize, Box<Formula>),
}

impl Formula {
    /// ∃x φ.
    #[must_use]
    pub fn exists(var: usize, body: Formula) -> Formula {
        Formula::Quant(Quantifier::Exists, var, Box::new(body))
    }

    /// ∀x φ.
    #[must_use]
    pub fn forall(var: usize, body: Formula) -> Formula {
        Formula::Quant(Quantifier::Forall, var, Box::new(body))
    }

    /// ¬φ.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // constructor, not an operator
    pub fn not(body: Formula) -> Formula {
        Formula::Not(Box::new(body))
    }

    /// Binary conjunction.
    #[must_use]
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(vec![a, b])
    }

    /// Binary disjunction.
    #[must_use]
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(vec![a, b])
    }

    /// Free variables (indices).
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<usize> {
        fn go(f: &Formula, bound: &mut Vec<usize>, out: &mut BTreeSet<usize>) {
            match f {
                Formula::True | Formula::False => {}
                Formula::Atom(a) => {
                    for i in 0..a.nvars() {
                        if a.poly.uses_var(i) && !bound.contains(&i) {
                            out.insert(i);
                        }
                    }
                }
                Formula::Rel(_, args) => {
                    for &i in args {
                        if !bound.contains(&i) {
                            out.insert(i);
                        }
                    }
                }
                Formula::Not(b) => go(b, bound, out),
                Formula::And(fs) | Formula::Or(fs) => {
                    for g in fs {
                        go(g, bound, out);
                    }
                }
                Formula::Quant(_, v, b) => {
                    bound.push(*v);
                    go(b, bound, out);
                    bound.pop();
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// True iff no database relation symbols occur.
    #[must_use]
    pub fn is_pure(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => true,
            Formula::Rel(..) => false,
            Formula::Not(b) | Formula::Quant(_, _, b) => b.is_pure(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_pure),
        }
    }

    /// True iff quantifier-free.
    #[must_use]
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Rel(..) => true,
            Formula::Not(b) => b.is_quantifier_free(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_quantifier_free),
            Formula::Quant(..) => false,
        }
    }

    /// INSTANTIATION (step 1 of the paper's evaluation pipeline): replace
    /// every relation symbol by its stored definition (a disjunction of
    /// generalized tuples) with variables remapped to the argument list.
    ///
    /// `nvars` is the ambient ring arity of the resulting pure formula.
    pub fn instantiate(&self, db: &Database, nvars: usize) -> Result<Formula, String> {
        Ok(match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => {
                assert!(a.nvars() == nvars, "atom arity mismatch in instantiate");
                Formula::Atom(a.clone())
            }
            Formula::Rel(name, args) => {
                let rel = db
                    .get(name)
                    .ok_or_else(|| format!("unknown relation symbol: {name}"))?;
                if rel.nvars() != args.len() {
                    return Err(format!(
                        "relation {name} has arity {}, applied to {} arguments",
                        rel.nvars(),
                        args.len()
                    ));
                }
                let remapped = rel.remap_vars(args, nvars);
                relation_to_formula(&remapped)
            }
            Formula::Not(b) => Formula::not(b.instantiate(db, nvars)?),
            Formula::And(fs) => Formula::And(
                fs.iter()
                    .map(|f| f.instantiate(db, nvars))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Or(fs) => Formula::Or(
                fs.iter()
                    .map(|f| f.instantiate(db, nvars))
                    .collect::<Result<_, _>>()?,
            ),
            Formula::Quant(q, v, b) => Formula::Quant(*q, *v, Box::new(b.instantiate(db, nvars)?)),
        })
    }

    /// Negation normal form: negations pushed to atoms (and absorbed into
    /// the comparison operators), no `Not` nodes remain.
    #[must_use]
    pub fn to_nnf(&self) -> Formula {
        fn go(f: &Formula, neg: bool) -> Formula {
            match f {
                Formula::True => {
                    if neg {
                        Formula::False
                    } else {
                        Formula::True
                    }
                }
                Formula::False => {
                    if neg {
                        Formula::True
                    } else {
                        Formula::False
                    }
                }
                Formula::Atom(a) => Formula::Atom(if neg { a.negated() } else { a.clone() }),
                Formula::Rel(name, args) => {
                    let r = Formula::Rel(name.clone(), args.clone());
                    if neg {
                        Formula::Not(Box::new(r))
                    } else {
                        r
                    }
                }
                Formula::Not(b) => go(b, !neg),
                Formula::And(fs) => {
                    let parts: Vec<Formula> = fs.iter().map(|g| go(g, neg)).collect();
                    if neg {
                        Formula::Or(parts)
                    } else {
                        Formula::And(parts)
                    }
                }
                Formula::Or(fs) => {
                    let parts: Vec<Formula> = fs.iter().map(|g| go(g, neg)).collect();
                    if neg {
                        Formula::And(parts)
                    } else {
                        Formula::Or(parts)
                    }
                }
                Formula::Quant(q, v, b) => {
                    let q2 = match (q, neg) {
                        (Quantifier::Exists, false) | (Quantifier::Forall, true) => {
                            Quantifier::Exists
                        }
                        _ => Quantifier::Forall,
                    };
                    Formula::Quant(q2, *v, Box::new(go(b, neg)))
                }
            }
        }
        go(self, false)
    }

    /// Prenex normal form of an NNF formula (caller should run
    /// [`Formula::to_nnf`] first; quantified variables must be distinct from
    /// each other and from free variables, which our parser guarantees).
    /// Returns the quantifier prefix (outermost first) and the matrix.
    #[must_use]
    pub fn to_prenex(&self) -> (Vec<(Quantifier, usize)>, Formula) {
        match self {
            Formula::Quant(q, v, b) => {
                let (mut prefix, matrix) = b.to_prenex();
                prefix.insert(0, (*q, *v));
                (prefix, matrix)
            }
            Formula::And(fs) => {
                let mut prefix = Vec::new();
                let mut parts = Vec::new();
                for f in fs {
                    let (p, m) = f.to_prenex();
                    prefix.extend(p);
                    parts.push(m);
                }
                (prefix, Formula::And(parts))
            }
            Formula::Or(fs) => {
                let mut prefix = Vec::new();
                let mut parts = Vec::new();
                for f in fs {
                    let (p, m) = f.to_prenex();
                    prefix.extend(p);
                    parts.push(m);
                }
                (prefix, Formula::Or(parts))
            }
            Formula::Not(b) => {
                // NNF guarantees the body is a Rel; no quantifiers inside.
                debug_assert!(b.is_quantifier_free());
                (Vec::new(), self.clone())
            }
            other => (Vec::new(), other.clone()),
        }
    }

    /// Convert a pure quantifier-free formula (NNF, no `Rel`, no `Not`) into
    /// DNF as a [`ConstraintRelation`] over `nvars` variables, in normal
    /// form: every tuple simplified ([`GeneralizedTuple::simplify`]), no
    /// tuple repeated (first occurrence kept), no tuple whose [`TupleBox`]
    /// is certified empty, and [`ConstraintRelation::full`] as soon as one
    /// tuple is unconstrained. Tuple order is the ordered cross product of
    /// the `And` operands and the concatenation of the `Or` operands; atom
    /// order inside a tuple is operand order.
    ///
    /// The result equals — byte for byte, tuple and atom order included —
    /// the pairwise `intersection`/`union` fold followed by
    /// [`ConstraintRelation::simplify`] and
    /// [`ConstraintRelation::prune_empty_boxes`] (both idempotent on it),
    /// but is built in one pass whose work follows the pairs that survive:
    /// a cross product of two many-tuple operands compares the operands'
    /// boxes first and never conjoins a pair whose boxes are disjoint, and an
    /// `And` of atoms is one tuple simplified once (DESIGN.md §5.1 has the
    /// identity arguments).
    pub fn to_dnf(&self, nvars: usize) -> Result<ConstraintRelation, String> {
        let mut kept = TupleSet::default();
        for t in self.disjuncts(nvars)? {
            // Only here, at the root: `a ∧ (b ∨ ⊤)` stays `a∧b ∨ a`.
            if t.is_top() {
                return Ok(ConstraintRelation::full(nvars));
            }
            if !TupleBox::of_tuple(&t).is_empty() {
                kept.insert(Cow::Owned(t));
            }
        }
        Ok(ConstraintRelation::new(nvars, kept.into_tuples()))
    }

    /// The disjuncts of [`Formula::to_dnf`] before the root's top-collapse
    /// and prune.
    fn disjuncts(&self, nvars: usize) -> Result<Vec<GeneralizedTuple>, String> {
        match self {
            Formula::True => Ok(vec![GeneralizedTuple::top(nvars)]),
            Formula::False => Ok(Vec::new()),
            Formula::Atom(a) => {
                let leaf = GeneralizedTuple::new(nvars, vec![a.clone()]).simplify();
                Ok(leaf.into_iter().collect())
            }
            Formula::And(fs) => {
                // An `And` of atoms — every instantiated stored tuple — is
                // one tuple simplified once: the product below would conjoin
                // the same canonical atoms one at a time (DESIGN.md §5.1).
                if let Some(atoms) = fs
                    .iter()
                    .map(|f| match f {
                        Formula::Atom(a) => Some(a.clone()),
                        _ => None,
                    })
                    .collect::<Option<Vec<Atom>>>()
                {
                    return Ok(GeneralizedTuple::new(nvars, atoms)
                        .simplify()
                        .into_iter()
                        .collect());
                }
                let mut acc = vec![GeneralizedTuple::top(nvars)];
                for f in fs {
                    acc = product(&acc, &f.disjuncts(nvars)?);
                }
                Ok(acc)
            }
            Formula::Or(fs) => {
                let mut acc = TupleSet::default();
                for f in fs {
                    for t in f.disjuncts(nvars)? {
                        acc.insert(Cow::Owned(t));
                    }
                }
                Ok(acc.into_tuples())
            }
            Formula::Not(_) => Err("to_dnf requires NNF input (no Not nodes)".into()),
            Formula::Rel(name, _) => Err(format!("to_dnf on uninstantiated relation {name}")),
            Formula::Quant(..) => Err("to_dnf on quantified formula".into()),
        }
    }

    /// Evaluate a pure quantifier-free formula at a rational point.
    pub fn eval_at(&self, point: &[Rat]) -> Result<bool, String> {
        match self {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Atom(a) => Ok(a.satisfied_at(point)),
            Formula::Not(b) => Ok(!b.eval_at(point)?),
            Formula::And(fs) => {
                for f in fs {
                    if !f.eval_at(point)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(fs) => {
                for f in fs {
                    if f.eval_at(point)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Rel(name, _) => Err(format!("eval_at on relation symbol {name}")),
            Formula::Quant(..) => Err("eval_at on quantified formula".into()),
        }
    }
}

/// The ordered cross product `lhs ∧ rhs` of two lists of simplified tuples.
/// When both sides have several tuples, each operand tuple's box is computed
/// once, and a pair whose boxes are [`TupleBox::disjoint`] (the box of the
/// pair's conjunction is certified empty) is skipped before anything is
/// cloned; a one-tuple side — an `And` of atoms — computes no box at all.
/// Boxes are not kept past the product: where nothing is prunable (curved
/// atoms) they would cost a box per survivor.
fn product(lhs: &[GeneralizedTuple], rhs: &[GeneralizedTuple]) -> Vec<GeneralizedTuple> {
    let prune = lhs.len() > 1 && rhs.len() > 1;
    let boxes = |side: &[GeneralizedTuple]| -> Vec<TupleBox> {
        let side = if prune { side } else { &[] };
        side.iter().map(TupleBox::of_tuple).collect()
    };
    let (lhs_boxes, rhs_boxes) = (boxes(lhs), boxes(rhs));
    let mut out = Vec::new();
    for (i, a) in lhs.iter().enumerate() {
        for (j, b) in rhs.iter().enumerate() {
            if prune && lhs_boxes[i].disjoint(&rhs_boxes[j]) {
                continue;
            }
            out.extend(a.conjoin(b));
        }
    }
    out
}

/// Expand a relation into the equivalent disjunction-of-conjunctions formula.
#[must_use]
pub fn relation_to_formula(rel: &ConstraintRelation) -> Formula {
    if rel.tuples().is_empty() {
        return Formula::False;
    }
    let mut disjuncts: Vec<Formula> = rel
        .tuples()
        .iter()
        .map(|t| {
            if t.atoms().is_empty() {
                Formula::True
            } else {
                Formula::And(t.atoms().iter().cloned().map(Formula::Atom).collect())
            }
        })
        .collect();
    match disjuncts.pop() {
        Some(only) if disjuncts.is_empty() => only,
        Some(last) => {
            disjuncts.push(last);
            Formula::Or(disjuncts)
        }
        None => Formula::False,
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Rel(name, args) => {
                let args: Vec<String> = args.iter().map(|i| format!("x{i}")).collect();
                write!(f, "{name}({})", args.join(", "))
            }
            Formula::Not(b) => write!(f, "not ({b})"),
            Formula::And(fs) => {
                let parts: Vec<String> = fs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" and "))
            }
            Formula::Or(fs) => {
                let parts: Vec<String> = fs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" or "))
            }
            Formula::Quant(Quantifier::Exists, v, b) => write!(f, "exists x{v} ({b})"),
            Formula::Quant(Quantifier::Forall, v, b) => write!(f, "forall x{v} ({b})"),
        }
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Formula({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::RelOp;
    use cdb_poly::MPoly;

    fn s_atom() -> Atom {
        // 4x² − y − 20x + 25 ≤ 0 over (x, y) = vars (0, 1).
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let c = |v: i64| MPoly::constant(Rat::from(v), 2);
        Atom::new(
            &(&(&c(4) * &x.pow(2)) - &y) - &(&(&c(20) * &x) - &c(25)),
            RelOp::Le,
        )
    }

    fn y_le_0() -> Atom {
        Atom::new(MPoly::var(1, 2), RelOp::Le)
    }

    #[test]
    fn figure1_query_shape() {
        // Q(x) ≡ ∃y (S(x,y) ∧ y ≤ 0)
        let q = Formula::exists(
            1,
            Formula::and(
                Formula::Rel("S".into(), vec![0, 1]),
                Formula::Atom(y_le_0()),
            ),
        );
        assert_eq!(q.free_vars().into_iter().collect::<Vec<_>>(), vec![0]);
        assert!(!q.is_pure());
        assert!(!q.is_quantifier_free());
    }

    #[test]
    fn instantiation_makes_pure() {
        let mut db = Database::new();
        db.insert(
            "S",
            ConstraintRelation::new(2, vec![GeneralizedTuple::new(2, vec![s_atom()])]),
        );
        let q = Formula::exists(
            1,
            Formula::and(
                Formula::Rel("S".into(), vec![0, 1]),
                Formula::Atom(y_le_0()),
            ),
        );
        let pure = q.instantiate(&db, 2).unwrap();
        assert!(pure.is_pure());
        // Unknown symbol errors.
        let bad = Formula::Rel("T".into(), vec![0]);
        assert!(bad.instantiate(&db, 2).is_err());
        // Arity error.
        let bad2 = Formula::Rel("S".into(), vec![0]);
        assert!(bad2.instantiate(&db, 2).is_err());
    }

    #[test]
    fn nnf_pushes_negation() {
        let f = Formula::not(Formula::and(
            Formula::Atom(y_le_0()),
            Formula::exists(0, Formula::Atom(s_atom())),
        ));
        let nnf = f.to_nnf();
        // ¬(a ∧ ∃x b) = ¬a ∨ ∀x ¬b
        match &nnf {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                match &parts[0] {
                    Formula::Atom(a) => assert_eq!(a.op, RelOp::Gt),
                    other => panic!("expected atom, got {other}"),
                }
                match &parts[1] {
                    Formula::Quant(Quantifier::Forall, 0, _) => {}
                    other => panic!("expected forall, got {other}"),
                }
            }
            other => panic!("expected Or, got {other}"),
        }
        // NNF is involution-stable under eval.
        for (px, py) in [(0i64, 0i64), (2, -1), (3, 10)] {
            let p = [Rat::from(px), Rat::from(py)];
            let direct = Formula::not(Formula::Atom(y_le_0())).eval_at(&p).unwrap();
            let via_nnf = Formula::not(Formula::Atom(y_le_0()))
                .to_nnf()
                .eval_at(&p)
                .unwrap();
            assert_eq!(direct, via_nnf);
        }
    }

    #[test]
    fn prenex_lifts_quantifiers() {
        let f = Formula::and(
            Formula::exists(1, Formula::Atom(s_atom())),
            Formula::Atom(y_le_0()),
        );
        let (prefix, matrix) = f.to_nnf().to_prenex();
        assert_eq!(prefix, vec![(Quantifier::Exists, 1)]);
        assert!(matrix.is_quantifier_free());
    }

    #[test]
    fn dnf_distributes() {
        // (a ∨ b) ∧ c → (a∧c) ∨ (b∧c)
        let x = MPoly::var(0, 1);
        let a = Formula::Atom(Atom::new(x.clone(), RelOp::Lt));
        let b = Formula::Atom(Atom::new(
            &x - &MPoly::constant(Rat::from(5i64), 1),
            RelOp::Gt,
        ));
        let c = Formula::Atom(Atom::new(
            &x - &MPoly::constant(Rat::from(-10i64), 1),
            RelOp::Ge,
        ));
        let f = Formula::and(Formula::or(a, b), c);
        let dnf = f.to_dnf(1).unwrap();
        assert_eq!(dnf.tuples().len(), 2);
        // Semantics preserved.
        for v in [-20i64, -5, 0, 3, 6] {
            let p = [Rat::from(v)];
            assert_eq!(dnf.satisfied_at(&p), f.eval_at(&p).unwrap(), "at {v}");
        }
    }

    #[test]
    fn relation_to_formula_roundtrip() {
        let rel = crate::relation::tests_support::unit_square();
        let f = relation_to_formula(&rel);
        for (x, y) in [(0i64, 0i64), (1, 1), (2, 0), (-1, 0)] {
            let p = [Rat::from(x), Rat::from(y)];
            assert_eq!(f.eval_at(&p).unwrap(), rel.satisfied_at(&p));
        }
    }
}
