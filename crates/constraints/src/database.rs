//! Constraint databases: named finitely representable relations.

use crate::relation::ConstraintRelation;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A constraint database `⟨R̂₁, …, R̂ₙ⟩` over a schema of named relation
/// symbols, in the context of the real field.
///
/// Relations are stored behind `Arc`, so cloning a database is a shallow
/// copy-on-write snapshot: `clone()` bumps one reference count per relation,
/// and `insert` replaces only the named entry. Iterative evaluators (the
/// Datalog fixpoint) rely on this to take per-round snapshots without
/// deep-copying every extent.
#[derive(Clone, Default, PartialEq)]
pub struct Database {
    relations: BTreeMap<String, Arc<ConstraintRelation>>,
}

impl Database {
    /// Empty database.
    #[must_use]
    pub fn new() -> Database {
        Database::default()
    }

    /// Insert or replace a relation.
    pub fn insert(&mut self, name: impl Into<String>, rel: ConstraintRelation) {
        self.relations.insert(name.into(), Arc::new(rel));
    }

    /// Look up a relation.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ConstraintRelation> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// Remove a relation.
    pub fn remove(&mut self, name: &str) -> Option<ConstraintRelation> {
        self.relations
            .remove(name)
            .map(|rel| Arc::try_unwrap(rel).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Schema: names with arities.
    #[must_use]
    pub fn schema(&self) -> Vec<(String, usize)> {
        self.relations
            .iter()
            .map(|(n, r)| (n.clone(), r.nvars()))
            .collect()
    }

    /// Iterate relations.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ConstraintRelation)> {
        self.relations.iter().map(|(n, r)| (n, r.as_ref()))
    }

    /// Number of relations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Maximum coefficient bit length across all relations — the bit-length
    /// context `k` of `Z_k ⊔ ⟨R̂₁, …, R̂ₙ⟩` in the finite precision semantics
    /// (§4: "the active domain is therefore the Z_k, such that k is a bound
    /// on the bit length of all integers occurring in the finite
    /// representation of the input").
    #[must_use]
    pub fn max_coeff_bits(&self) -> u64 {
        self.relations
            .values()
            .map(|rel| rel.max_coeff_bits())
            .max()
            .unwrap_or(0)
    }

    /// `K_{d,m}` parameters of this database: max degree and number of
    /// distinct polynomials.
    #[must_use]
    pub fn class_parameters(&self) -> (u32, usize) {
        let mut polys = Vec::new();
        let mut d = 0;
        for rel in self.relations.values() {
            for p in rel.polynomials() {
                d = d.max(p.total_degree());
                if !polys.contains(&p) {
                    polys.push(p);
                }
            }
        }
        (d, polys.len())
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Database {{")?;
        for (name, rel) in &self.relations {
            writeln!(f, "  {name}/{}: {rel}", rel.nvars())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::tests_support::unit_square;

    #[test]
    fn crud() {
        let mut db = Database::new();
        assert!(db.is_empty());
        db.insert("SQ", unit_square());
        assert_eq!(db.len(), 1);
        assert_eq!(db.schema(), vec![("SQ".to_owned(), 2)]);
        assert!(db.get("SQ").is_some());
        assert!(db.get("NOPE").is_none());
        assert!(db.remove("SQ").is_some());
        assert!(db.is_empty());
    }

    #[test]
    fn context_parameters() {
        let mut db = Database::new();
        db.insert("SQ", unit_square());
        let (d, m) = db.class_parameters();
        assert_eq!(d, 1);
        assert_eq!(m, 4); // x, x−1, y, y−1
        assert!(db.max_coeff_bits() >= 1);
    }
}
