//! Generalized tuples: conjunctions of atomic constraints.

use crate::atom::{Atom, CanonicalAtom, RelOp};
use cdb_num::Rat;
use cdb_poly::MPoly;
use std::fmt;

/// A `k`-ary generalized tuple: a conjunction of atomic constraints over `k`
/// variables, denoting a (possibly infinite, possibly empty) subset of `R^k`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct GeneralizedTuple {
    nvars: usize,
    atoms: Vec<Atom>,
}

impl GeneralizedTuple {
    /// The unconstrained tuple (all of `R^k`).
    #[must_use]
    pub fn top(nvars: usize) -> GeneralizedTuple {
        GeneralizedTuple {
            nvars,
            atoms: Vec::new(),
        }
    }

    /// From a conjunction of atoms.
    #[must_use]
    pub fn new(nvars: usize, atoms: Vec<Atom>) -> GeneralizedTuple {
        assert!(
            atoms.iter().all(|a| a.nvars() == nvars),
            "atom arity mismatch"
        );
        GeneralizedTuple { nvars, atoms }
    }

    /// The singleton point `{(p₀, …, p_{k−1})}` as equality constraints.
    #[must_use]
    pub fn point(point: &[Rat]) -> GeneralizedTuple {
        let nvars = point.len();
        let atoms = point
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mut x = vec![0; nvars];
                x[i] = 1;
                let terms = [(x, Rat::one()), (vec![0; nvars], -v)];
                Atom::new(MPoly::from_terms(nvars, terms), RelOp::Eq)
            })
            .collect();
        GeneralizedTuple { nvars, atoms }
    }

    /// The point this tuple pins down, when it is a conjunction of
    /// `a·xᵢ + b = 0` atoms fixing every coordinate exactly once in value.
    #[must_use]
    pub fn as_point(&self) -> Option<Vec<Rat>> {
        let mut coords: Vec<Option<Rat>> = vec![None; self.nvars];
        for a in &self.atoms {
            if a.op != RelOp::Eq {
                return None;
            }
            let (i, val, _) = a.as_linear_bound()?;
            match &coords[i] {
                Some(prev) if *prev != val => return None,
                _ => coords[i] = Some(val),
            }
        }
        coords.into_iter().collect()
    }

    /// The point of a tuple written exactly as [`Self::point`] writes it —
    /// atom `i` is `xᵢ − cᵢ = 0` with unit coefficient, one atom per
    /// coordinate in order — so `Self::point(&p) == *self` whenever this is
    /// `Some(p)`. Any other spelling of a point (`2x − 6 = 0`, atoms out of
    /// order or repeated) is `None`; [`Self::as_point`] still reads it.
    /// Decoding builds no polynomial, which is what lets stored finite
    /// extents be kept instead of rebuilt.
    #[must_use]
    pub fn canonical_point(&self) -> Option<Vec<Rat>> {
        if self.atoms.len() != self.nvars {
            return None;
        }
        self.atoms
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let p = &a.poly;
                if a.op != RelOp::Eq || p.total_degree() != 1 || p.num_terms() > 2 {
                    return None;
                }
                // Ascending lex order puts the constant term, if any, first.
                let mut terms = p.terms();
                let (mono, lead) = terms.next_back()?;
                if mono.get(i) != 1 || *lead != Rat::one() {
                    return None;
                }
                match terms.next() {
                    None => Some(Rat::zero()),
                    Some((m, c)) if m.is_constant() => Some(-c),
                    Some(_) => None,
                }
            })
            .collect()
    }

    /// The canonical representative of a point tuple ([`Self::point`] of
    /// [`Self::as_point`], kept as it is when already in that form); any
    /// other tuple unchanged. Stored finite extents hold this form, so the
    /// update path compares against it.
    #[must_use]
    pub fn canonicalized(self) -> GeneralizedTuple {
        if self.canonical_point().is_some() {
            return self;
        }
        match self.as_point() {
            Some(p) => GeneralizedTuple::point(&p),
            None => self,
        }
    }

    /// Number of variables.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The conjuncts.
    #[must_use]
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// True iff no constraints (all of `R^k`).
    #[must_use]
    pub fn is_top(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Add a conjunct.
    pub fn push(&mut self, atom: Atom) {
        assert_eq!(atom.nvars(), self.nvars);
        self.atoms.push(atom);
    }

    /// Conjunction of two tuples over the same variables.
    #[must_use]
    pub fn and(&self, other: &GeneralizedTuple) -> GeneralizedTuple {
        assert_eq!(self.nvars, other.nvars);
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        GeneralizedTuple {
            nvars: self.nvars,
            atoms,
        }
    }

    /// Truth at a rational point.
    #[must_use]
    pub fn satisfied_at(&self, point: &[Rat]) -> bool {
        self.atoms.iter().all(|a| a.satisfied_at(point))
    }

    /// Canonicalize every atom, drop trivially-true conjuncts, deduplicate;
    /// `None` if some conjunct is trivially false (empty set).
    #[must_use]
    pub fn simplify(&self) -> Option<GeneralizedTuple> {
        let mut out = GeneralizedTuple {
            nvars: self.nvars,
            atoms: Vec::with_capacity(self.atoms.len()),
        };
        for a in &self.atoms {
            match a.canonicalize() {
                CanonicalAtom::Trivial(true) => {}
                CanonicalAtom::Trivial(false) => return None,
                CanonicalAtom::Atom(c) => {
                    if !out.push_canonical(c) {
                        return None;
                    }
                }
            }
        }
        Some(out)
    }

    /// Append an already-canonical atom unless it repeats one; `false` on
    /// the contradiction pair `p σ 0 ∧ p σ̄ 0` (the cheap syntactic check).
    fn push_canonical(&mut self, c: Atom) -> bool {
        if !self.atoms.contains(&c) {
            if self
                .atoms
                .iter()
                .any(|e| e.poly == c.poly && e.op == c.op.negated())
            {
                return false;
            }
            self.atoms.push(c);
        }
        true
    }

    /// `self.and(other).simplify()` for two tuples that are already
    /// simplified: canonicalisation is idempotent, so the atoms are merged
    /// as they stand.
    #[must_use]
    pub(crate) fn conjoin(&self, other: &GeneralizedTuple) -> Option<GeneralizedTuple> {
        let mut out = self.clone();
        for c in &other.atoms {
            if !out.push_canonical(c.clone()) {
                return None;
            }
        }
        Some(out)
    }

    /// All distinct polynomials appearing, in canonical primitive form.
    #[must_use]
    pub fn polynomials(&self) -> Vec<MPoly> {
        let mut out: Vec<MPoly> = Vec::new();
        for a in &self.atoms {
            if a.poly.is_constant() {
                continue;
            }
            let p = a.poly.primitive();
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    /// True iff some atom's polynomial mentions variable `i`.
    #[must_use]
    pub fn uses_var(&self, i: usize) -> bool {
        self.atoms.iter().any(|a| a.poly.uses_var(i))
    }

    /// Substitute a rational for variable `i` in every atom (arity kept).
    #[must_use]
    pub fn substitute(&self, i: usize, v: &Rat) -> GeneralizedTuple {
        GeneralizedTuple {
            nvars: self.nvars,
            atoms: self
                .atoms
                .iter()
                .map(|a| Atom::new(a.poly.substitute(i, v), a.op))
                .collect(),
        }
    }

    /// Remap variables into a wider ring (see [`MPoly::remap_vars`]).
    #[must_use]
    pub fn remap_vars(&self, map: &[usize], new_nvars: usize) -> GeneralizedTuple {
        GeneralizedTuple {
            nvars: new_nvars,
            atoms: self
                .atoms
                .iter()
                .map(|a| Atom::new(a.poly.remap_vars(map, new_nvars), a.op))
                .collect(),
        }
    }

    /// Maximum coefficient bit length over all atoms (finite-precision
    /// accounting: the `k` of `Z_k ⊔ ⟨R̂₁, …⟩`).
    #[must_use]
    pub fn max_coeff_bits(&self) -> u64 {
        self.atoms
            .iter()
            .map(|a| a.poly.max_coeff_bits())
            .max()
            .unwrap_or(0)
    }

    /// Render with names.
    #[must_use]
    pub fn display_with(&self, names: &[&str]) -> String {
        if self.atoms.is_empty() {
            return "true".to_owned();
        }
        self.atoms
            .iter()
            .map(|a| a.display_with(names))
            .collect::<Vec<_>>()
            .join(" and ")
    }
}

impl fmt::Display for GeneralizedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.nvars).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        write!(f, "{}", self.display_with(&refs))
    }
}

impl fmt::Debug for GeneralizedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GeneralizedTuple({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's filled triangle: x ≤ y ∧ x ≥ 0 ∧ y ≤ 10.
    fn triangle() -> GeneralizedTuple {
        let x = MPoly::var(0, 2);
        let y = MPoly::var(1, 2);
        let ten = MPoly::constant(Rat::from(10i64), 2);
        GeneralizedTuple::new(
            2,
            vec![
                Atom::cmp(x.clone(), RelOp::Le, y.clone()),
                Atom::new(-&x, RelOp::Le),
                Atom::cmp(y, RelOp::Le, ten),
            ],
        )
    }

    #[test]
    fn triangle_membership() {
        let t = triangle();
        assert!(t.satisfied_at(&[Rat::one(), Rat::from(5i64)]));
        assert!(t.satisfied_at(&[Rat::zero(), Rat::zero()]));
        assert!(t.satisfied_at(&[Rat::from(10i64), Rat::from(10i64)]));
        assert!(!t.satisfied_at(&[Rat::from(5i64), Rat::one()])); // x > y
        assert!(!t.satisfied_at(&[Rat::from(-1i64), Rat::zero()])); // x < 0
        assert!(!t.satisfied_at(&[Rat::one(), Rat::from(11i64)])); // y > 10
    }

    #[test]
    fn point_tuple() {
        let p = GeneralizedTuple::point(&[Rat::one(), Rat::from(2i64)]);
        assert!(p.satisfied_at(&[Rat::one(), Rat::from(2i64)]));
        assert!(!p.satisfied_at(&[Rat::one(), Rat::one()]));
    }

    /// `canonical_point` reads exactly what `point` writes; every other
    /// spelling of a point is left to `as_point` and rebuilt.
    #[test]
    fn canonical_point_reads_only_the_stored_form() {
        let half = Rat::from(-1i64) / Rat::from(2i64);
        for p in [
            vec![],
            vec![Rat::zero()],
            vec![Rat::from(3i64), half.clone()],
            vec![Rat::zero(), Rat::from(7i64), half],
        ] {
            let t = GeneralizedTuple::point(&p);
            assert_eq!(t.canonical_point(), Some(p.clone()));
            assert_eq!(t.clone().canonicalized(), t);
        }
        let (x, y) = (MPoly::var(0, 2), MPoly::var(1, 2));
        let c = |v: i64| MPoly::constant(Rat::from(v), 2);
        let eq = |p: MPoly| Atom::new(p, RelOp::Eq);
        let stored = GeneralizedTuple::point(&[Rat::from(3i64), Rat::one()]);
        for other in [
            vec![eq((&x - &c(3)).scale(&Rat::from(2i64))), eq(&y - &c(1))],
            vec![eq(&y - &c(1)), eq(&x - &c(3))],
            vec![eq(&x - &c(3)), eq(&y - &c(1)), eq(&y - &c(1))],
            vec![eq(&c(3) - &x), eq(&y - &c(1))],
        ] {
            let t = GeneralizedTuple::new(2, other);
            assert_eq!(t.canonical_point(), None, "{t}");
            assert_eq!(t.clone().canonicalized(), stored, "{t}");
        }
        for no_point in [
            vec![eq(&x - &c(3)), Atom::new(&y - &c(1), RelOp::Ge)],
            vec![eq(&x - &y), eq(&y - &c(1))],
            vec![eq(&x - &c(3))],
        ] {
            let t = GeneralizedTuple::new(2, no_point);
            assert_eq!(t.canonical_point(), None, "{t}");
            assert_eq!(t.clone().canonicalized(), t);
        }
    }

    #[test]
    fn simplify_drops_trivial_and_detects_contradiction() {
        let x = MPoly::var(0, 1);
        let mut t = GeneralizedTuple::top(1);
        t.push(Atom::new(MPoly::constant(Rat::from(-1i64), 1), RelOp::Le)); // −1 ≤ 0 ✓
        t.push(Atom::new(x.clone(), RelOp::Le));
        let s = t.simplify().unwrap();
        assert_eq!(s.atoms().len(), 1);
        // Contradiction: x ≤ 0 ∧ x > 0.
        let mut c = s.clone();
        c.push(Atom::new(x, RelOp::Gt));
        assert!(c.simplify().is_none());
    }

    #[test]
    fn conjunction_and_substitution() {
        let t = triangle();
        let only_x = t.substitute(1, &Rat::from(3i64));
        // Now constraints: x ≤ 3 ∧ x ≥ 0 ∧ 3 ≤ 10.
        assert!(only_x.satisfied_at(&[Rat::from(2i64), Rat::zero()]));
        assert!(!only_x.satisfied_at(&[Rat::from(4i64), Rat::zero()]));
    }

    #[test]
    fn polynomials_deduplicated() {
        let x = MPoly::var(0, 1);
        let t = GeneralizedTuple::new(
            1,
            vec![
                Atom::new(x.clone(), RelOp::Le),
                Atom::new(x.scale(&Rat::from(2i64)), RelOp::Lt), // same primitive
                Atom::new(&x - &MPoly::constant(Rat::one(), 1), RelOp::Ge),
            ],
        );
        assert_eq!(t.polynomials().len(), 2);
    }

    #[test]
    fn remap() {
        // R(x0, x1) instantiated as R(x2, x0) in a 3-var ring.
        let t = triangle().remap_vars(&[2, 0], 3);
        assert_eq!(t.nvars(), 3);
        // (x2=1, x0=5) satisfies x2 ≤ x0 etc.
        assert!(t.satisfied_at(&[Rat::from(5i64), Rat::from(99i64), Rat::one()]));
        assert!(!t.satisfied_at(&[Rat::one(), Rat::zero(), Rat::from(5i64)]));
    }
}
