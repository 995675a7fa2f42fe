//! Finitely representable relations: finite unions of generalized tuples.

#[cfg(test)]
use crate::atom::{Atom, RelOp};
use crate::gtuple::GeneralizedTuple;
use crate::tupleset::TupleSet;
use cdb_num::Rat;
use cdb_poly::MPoly;
use std::borrow::Cow;
use std::fmt;

/// A `k`-ary finitely representable relation — a disjunction (finite set) of
/// `k`-ary generalized tuples, denoting a possibly infinite subset of `R^k`.
#[derive(Clone, PartialEq, Eq)]
pub struct ConstraintRelation {
    nvars: usize,
    tuples: Vec<GeneralizedTuple>,
}

impl ConstraintRelation {
    /// The empty relation.
    #[must_use]
    pub fn empty(nvars: usize) -> ConstraintRelation {
        ConstraintRelation {
            nvars,
            tuples: Vec::new(),
        }
    }

    /// All of `R^k`.
    #[must_use]
    pub fn full(nvars: usize) -> ConstraintRelation {
        ConstraintRelation {
            nvars,
            tuples: vec![GeneralizedTuple::top(nvars)],
        }
    }

    /// From generalized tuples.
    #[must_use]
    pub fn new(nvars: usize, tuples: Vec<GeneralizedTuple>) -> ConstraintRelation {
        assert!(
            tuples.iter().all(|t| t.nvars() == nvars),
            "tuple arity mismatch"
        );
        ConstraintRelation { nvars, tuples }
    }

    /// A finite relation from explicit points.
    #[must_use]
    pub fn from_points(nvars: usize, points: &[Vec<Rat>]) -> ConstraintRelation {
        let tuples = points
            .iter()
            .map(|p| {
                assert_eq!(p.len(), nvars);
                GeneralizedTuple::point(p)
            })
            .collect();
        ConstraintRelation { nvars, tuples }
    }

    /// Arity.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The disjuncts.
    #[must_use]
    pub fn tuples(&self) -> &[GeneralizedTuple] {
        &self.tuples
    }

    /// Syntactically empty (no tuples). Semantic emptiness requires QE.
    #[must_use]
    pub fn is_syntactically_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Canonical representative when the extent is a finite point set:
    /// points sorted and deduplicated, so any two derivations of the same
    /// set — from-scratch vs incremental, any merge order — print
    /// byte-identically. Non-finite extents are returned unchanged (their
    /// tuple order is the derivation order, which evaluators keep
    /// deterministic by construction).
    #[must_use]
    pub fn canonicalized(self) -> ConstraintRelation {
        match self.as_finite_points() {
            Some(mut pts) => {
                pts.sort();
                pts.dedup();
                ConstraintRelation::from_points(self.nvars, &pts)
            }
            None => self,
        }
    }

    /// The relation minus the tuples *syntactically* equal to one of
    /// `remove` — the retraction primitive. Semantic containment is not
    /// decided here (that needs QE); the update path retracts exactly the
    /// generalized tuples the caller names, which for finite point
    /// relations in canonical form is exact point deletion.
    #[must_use]
    pub fn without_tuples(&self, remove: &[GeneralizedTuple]) -> ConstraintRelation {
        let remove = TupleSet::from_slice(remove);
        ConstraintRelation {
            nvars: self.nvars,
            tuples: self
                .tuples
                .iter()
                .filter(|t| !remove.contains(t))
                .cloned()
                .collect(),
        }
    }

    /// Truth at a rational point.
    #[must_use]
    pub fn satisfied_at(&self, point: &[Rat]) -> bool {
        self.tuples.iter().any(|t| t.satisfied_at(point))
    }

    /// Union (same arity).
    #[must_use]
    pub fn union(&self, other: &ConstraintRelation) -> ConstraintRelation {
        assert_eq!(self.nvars, other.nvars);
        let mut tuples = TupleSet::from_slice(&self.tuples);
        for t in &other.tuples {
            tuples.insert(Cow::Borrowed(t));
        }
        ConstraintRelation {
            nvars: self.nvars,
            tuples: tuples.into_tuples(),
        }
    }

    /// Intersection by cross-product of conjunctions.
    #[must_use]
    pub fn intersection(&self, other: &ConstraintRelation) -> ConstraintRelation {
        assert_eq!(self.nvars, other.nvars);
        let mut tuples = Vec::new();
        for a in &self.tuples {
            for b in &other.tuples {
                if let Some(t) = a.and(b).simplify() {
                    tuples.push(t);
                }
            }
        }
        ConstraintRelation {
            nvars: self.nvars,
            tuples,
        }
    }

    /// Complement, by De Morgan expansion (exponential in tuple sizes; used
    /// for small relations — large complements should go through QE).
    #[must_use]
    pub fn complement(&self) -> ConstraintRelation {
        // ¬(T₁ ∨ … ∨ Tₘ) = ∧ᵢ ¬Tᵢ; ¬(a₁ ∧ … ∧ aₙ) = ∨ⱼ ¬aⱼ.
        let mut acc = ConstraintRelation::full(self.nvars);
        for t in &self.tuples {
            let negated_tuple = ConstraintRelation::new(
                self.nvars,
                t.atoms()
                    .iter()
                    .map(|a| GeneralizedTuple::new(self.nvars, vec![a.negated()]))
                    .collect(),
            );
            acc = acc.intersection(&negated_tuple);
        }
        acc
    }

    /// Simplify every tuple, drop empty ones and exact duplicates.
    #[must_use]
    pub fn simplify(&self) -> ConstraintRelation {
        let mut tuples = TupleSet::default();
        for t in &self.tuples {
            if let Some(s) = t.simplify() {
                if s.is_top() {
                    return ConstraintRelation::full(self.nvars);
                }
                tuples.insert(Cow::Owned(s));
            }
        }
        ConstraintRelation {
            nvars: self.nvars,
            tuples: tuples.into_tuples(),
        }
    }

    /// All distinct polynomials (canonical primitive form) across tuples —
    /// the input to CAD projection, and the `m` of the class `K_{d,m}`.
    #[must_use]
    pub fn polynomials(&self) -> Vec<MPoly> {
        let mut out: Vec<MPoly> = Vec::new();
        for t in &self.tuples {
            for p in t.polynomials() {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Maximum polynomial degree (the `d` of `K_{d,m}`).
    #[must_use]
    pub fn max_degree(&self) -> u32 {
        self.polynomials()
            .iter()
            .map(MPoly::total_degree)
            .max()
            .unwrap_or(0)
    }

    /// Maximum coefficient bit length (the `k` of the context `Z_k`).
    #[must_use]
    pub fn max_coeff_bits(&self) -> u64 {
        self.tuples
            .iter()
            .map(GeneralizedTuple::max_coeff_bits)
            .max()
            .unwrap_or(0)
    }

    /// True iff some tuple constrains variable `i`.
    #[must_use]
    pub fn uses_var(&self, i: usize) -> bool {
        self.tuples.iter().any(|t| t.uses_var(i))
    }

    /// Substitute a rational for one variable in every tuple.
    #[must_use]
    pub fn substitute(&self, i: usize, v: &Rat) -> ConstraintRelation {
        ConstraintRelation {
            nvars: self.nvars,
            tuples: self.tuples.iter().map(|t| t.substitute(i, v)).collect(),
        }
    }

    /// Remap variables into a wider ring.
    #[must_use]
    pub fn remap_vars(&self, map: &[usize], new_nvars: usize) -> ConstraintRelation {
        ConstraintRelation {
            nvars: new_nvars,
            tuples: self
                .tuples
                .iter()
                .map(|t| t.remap_vars(map, new_nvars))
                .collect(),
        }
    }

    /// If this relation is a finite set of explicit rational points
    /// (conjunctions of `xᵢ = cᵢ` only), extract them.
    #[must_use]
    pub fn as_finite_points(&self) -> Option<Vec<Vec<Rat>>> {
        self.tuples.iter().map(GeneralizedTuple::as_point).collect()
    }

    /// Render with names.
    #[must_use]
    pub fn display_with(&self, names: &[&str]) -> String {
        if self.tuples.is_empty() {
            return "false".to_owned();
        }
        self.tuples
            .iter()
            .map(|t| format!("({})", t.display_with(names)))
            .collect::<Vec<_>>()
            .join(" or ")
    }
}

impl fmt::Display for ConstraintRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.nvars).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        write!(f, "{}", self.display_with(&refs))
    }
}

impl fmt::Debug for ConstraintRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConstraintRelation({self})")
    }
}

/// Shared fixtures for intra-crate tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// The unit square `0 ≤ x ≤ 1 ∧ 0 ≤ y ≤ 1`.
    pub(crate) fn unit_square() -> ConstraintRelation {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let one = MPoly::constant(Rat::one(), 2);
        ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(
                2,
                vec![
                    Atom::new(-&x, RelOp::Le),
                    Atom::new(&x - &one, RelOp::Le),
                    Atom::new(-&y, RelOp::Le),
                    Atom::new(&y - &one, RelOp::Le),
                ],
            )],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's S(x, y): 4x² − y − 20x + 25 ≤ 0.
    pub(crate) fn paper_s() -> ConstraintRelation {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let c = |v: i64| MPoly::constant(Rat::from(v), 2);
        let p = &(&(&c(4) * &x.pow(2)) - &y) - &(&(&c(20) * &x) - &c(25));
        ConstraintRelation::new(
            2,
            vec![GeneralizedTuple::new(2, vec![Atom::new(p, RelOp::Le)])],
        )
    }

    #[test]
    fn paper_s_membership() {
        let s = paper_s();
        // Points above the parabola y = 4x² − 20x + 25 are in S.
        assert!(s.satisfied_at(&["5/2".parse().unwrap(), Rat::zero()])); // vertex
        assert!(s.satisfied_at(&[Rat::zero(), Rat::from(30i64)]));
        assert!(!s.satisfied_at(&[Rat::zero(), Rat::zero()])); // 25 > 0
        assert!(s.satisfied_at(&[Rat::one(), Rat::from(9i64)]));
        assert!(!s.satisfied_at(&[Rat::one(), Rat::from(8i64)])); // 4−20+25−8=1>0
    }

    #[test]
    fn union_intersection_complement() {
        let x = MPoly::var(0, 1);
        let le2 = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(
                1,
                vec![Atom::new(
                    &x - &MPoly::constant(Rat::from(2i64), 1),
                    RelOp::Le,
                )],
            )],
        );
        let ge0 = ConstraintRelation::new(
            1,
            vec![GeneralizedTuple::new(1, vec![Atom::new(-&x, RelOp::Le)])],
        );
        let seg = le2.intersection(&ge0); // [0, 2]
        assert!(seg.satisfied_at(&[Rat::one()]));
        assert!(!seg.satisfied_at(&[Rat::from(3i64)]));
        assert!(!seg.satisfied_at(&[Rat::from(-1i64)]));
        let comp = seg.complement();
        for v in [-5i64, -1, 0, 1, 2, 3, 10] {
            assert_ne!(
                seg.satisfied_at(&[Rat::from(v)]),
                comp.satisfied_at(&[Rat::from(v)]),
                "complement at {v}"
            );
        }
        let all = seg.union(&comp);
        for v in [-5i64, 0, 7] {
            assert!(all.satisfied_at(&[Rat::from(v)]));
        }
    }

    #[test]
    fn finite_points_roundtrip() {
        let pts = vec![
            vec![Rat::one(), Rat::from(2i64)],
            vec![Rat::from(-3i64), "1/2".parse().unwrap()],
        ];
        let r = ConstraintRelation::from_points(2, &pts);
        assert_eq!(r.as_finite_points(), Some(pts.clone()));
        for p in &pts {
            assert!(r.satisfied_at(p));
        }
        assert!(!r.satisfied_at(&[Rat::zero(), Rat::zero()]));
        // Not finite: an inequality.
        assert!(paper_s().as_finite_points().is_none());
    }

    #[test]
    fn class_parameters() {
        let s = paper_s();
        assert_eq!(s.polynomials().len(), 1);
        assert_eq!(s.max_degree(), 2);
        assert!(s.max_coeff_bits() >= 5); // 25 needs 5 bits
    }

    #[test]
    fn simplify_removes_empty_tuples() {
        let x = MPoly::var(0, 1);
        let contradiction = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(x.clone(), RelOp::Lt),
                Atom::new(x.clone(), RelOp::Gt),
            ],
        );
        // x<0 ∧ x>0 is not detected by the *cheap* syntactic check unless ops
        // are exact negations; x<0's negation is x≥0. Use that pair instead.
        let contradiction2 = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(x.clone(), RelOp::Lt),
                Atom::new(x.clone(), RelOp::Ge),
            ],
        );
        let ok = GeneralizedTuple::new(1, vec![Atom::new(x, RelOp::Le)]);
        let r = ConstraintRelation::new(1, vec![contradiction, contradiction2, ok.clone()]);
        let s = r.simplify();
        // contradiction2 dropped; contradiction (x<0 ∧ x>0) survives the
        // syntactic pass (semantics needs QE) — that is documented behavior.
        assert!(s.tuples().len() <= 2);
        assert!(s.tuples().contains(&ok));
    }

    #[test]
    fn simplify_dedups_duplicate_disjuncts() {
        let x = MPoly::var(0, 1);
        let t = GeneralizedTuple::new(1, vec![Atom::new(x.clone(), RelOp::Le)]);
        // Same disjunct three times, plus a scaled copy (2x ≤ 0) whose
        // canonical form coincides with x ≤ 0.
        let scaled =
            GeneralizedTuple::new(1, vec![Atom::new(x.scale(&Rat::from(2i64)), RelOp::Le)]);
        let r = ConstraintRelation::new(1, vec![t.clone(), t.clone(), scaled, t]);
        let s = r.simplify();
        assert_eq!(s.tuples().len(), 1);
        for v in [-3i64, 0, 3] {
            assert_eq!(
                r.satisfied_at(&[Rat::from(v)]),
                s.satisfied_at(&[Rat::from(v)]),
                "at {v}"
            );
        }
    }

    #[test]
    fn simplify_collapses_full_relation() {
        let x = MPoly::var(0, 1);
        // One disjunct is trivially true (−1 ≤ 0 only): the whole union is
        // R^1 and everything else must collapse away.
        let top = GeneralizedTuple::new(
            1,
            vec![Atom::new(MPoly::constant(Rat::from(-1i64), 1), RelOp::Le)],
        );
        let narrow = GeneralizedTuple::new(1, vec![Atom::new(x, RelOp::Le)]);
        let r = ConstraintRelation::new(1, vec![narrow, top]);
        let s = r.simplify();
        assert_eq!(s, ConstraintRelation::full(1));
        assert_eq!(s.tuples().len(), 1);
        assert!(s.tuples()[0].is_top());
        assert!(s.satisfied_at(&[Rat::from(1_000_000i64)]));
    }

    #[test]
    fn simplify_of_empty_relation_is_empty() {
        let r = ConstraintRelation::empty(2);
        let s = r.simplify();
        assert!(s.is_syntactically_empty());
        assert_eq!(s.nvars(), 2);
    }

    #[test]
    fn simplify_is_idempotent() {
        let x = MPoly::var(0, 1);
        let dup = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(x.clone(), RelOp::Le),
                Atom::new(x.clone(), RelOp::Le),
                Atom::new(MPoly::constant(Rat::from(-2i64), 1), RelOp::Lt),
            ],
        );
        let r = ConstraintRelation::new(1, vec![dup.clone(), dup]);
        let once = r.simplify();
        assert_eq!(once, once.simplify());
        assert_eq!(once.tuples().len(), 1);
        assert_eq!(once.tuples()[0].atoms().len(), 1);
    }
}
