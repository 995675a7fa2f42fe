//! First-occurrence sets of generalized tuples.

use crate::gtuple::GeneralizedTuple;
use cdb_num::hash::BuildContentHasher;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::hash::BuildHasher;

/// A list of generalized tuples in insertion order with hashed membership:
/// every position is filed under its tuple's content hash (`MPoly` hashes in
/// O(1)) and a probe confirms by equality, so a collision costs a compare,
/// never a wrong answer. The index is only ever probed, never iterated —
/// tuple order is the order of the `insert` calls alone, which is what lets
/// it replace the `Vec::contains` scans byte for byte.
#[derive(Default)]
pub struct TupleSet<'a> {
    tuples: Vec<Cow<'a, GeneralizedTuple>>,
    /// `(content hash, position in tuples)`.
    index: BTreeSet<(u64, usize)>,
}

/// Content hash under the fixed-key [`cdb_num::hash::ContentHasher`].
fn content_hash(t: &GeneralizedTuple) -> u64 {
    BuildContentHasher::default().hash_one(t)
}

impl<'a> TupleSet<'a> {
    /// The tuples of `slice` as they stand, repeats included, borrowed.
    #[must_use]
    pub fn from_slice(slice: &'a [GeneralizedTuple]) -> TupleSet<'a> {
        let mut set = TupleSet::default();
        for t in slice {
            set.push(content_hash(t), Cow::Borrowed(t));
        }
        set
    }

    /// True iff an equal tuple is in the list.
    #[must_use]
    pub fn contains(&self, t: &GeneralizedTuple) -> bool {
        self.holds(content_hash(t), t)
    }

    /// Append `t` unless an equal tuple is already in the list; true iff it
    /// was appended.
    pub fn insert(&mut self, t: Cow<'a, GeneralizedTuple>) -> bool {
        self.insert_hashed(content_hash(&t), t)
    }

    /// The list, in insertion order.
    #[must_use]
    pub fn into_tuples(self) -> Vec<GeneralizedTuple> {
        self.tuples.into_iter().map(Cow::into_owned).collect()
    }

    fn holds(&self, hash: u64, t: &GeneralizedTuple) -> bool {
        self.index
            .range((hash, 0)..=(hash, usize::MAX))
            .any(|&(_, at)| *self.tuples[at] == *t)
    }

    fn push(&mut self, hash: u64, t: Cow<'a, GeneralizedTuple>) {
        self.index.insert((hash, self.tuples.len()));
        self.tuples.push(t);
    }

    fn insert_hashed(&mut self, hash: u64, t: Cow<'a, GeneralizedTuple>) -> bool {
        let fresh = !self.holds(hash, &t);
        if fresh {
            self.push(hash, t);
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, RelOp};
    use cdb_num::Rat;
    use cdb_poly::MPoly;

    fn le(c: i64) -> GeneralizedTuple {
        let p = &MPoly::var(0, 1) - &MPoly::constant(Rat::from(c), 1);
        GeneralizedTuple::new(1, vec![Atom::new(p, RelOp::Le)])
    }

    #[test]
    fn first_occurrence_wins_and_order_is_insertion_order() {
        let mut set = TupleSet::default();
        assert!(set.insert(Cow::Owned(le(2))));
        assert!(set.insert(Cow::Owned(le(1))));
        assert!(!set.insert(Cow::Owned(le(2))));
        assert!(set.contains(&le(1)) && !set.contains(&le(3)));
        assert_eq!(set.into_tuples(), vec![le(2), le(1)]);
    }

    #[test]
    fn from_slice_keeps_repeats() {
        let stored = [le(1), le(1), le(2)];
        let mut set = TupleSet::from_slice(&stored);
        assert!(!set.insert(Cow::Owned(le(2))));
        assert!(set.insert(Cow::Owned(le(3))));
        assert_eq!(set.into_tuples(), vec![le(1), le(1), le(2), le(3)]);
    }

    /// Confirm-on-collision: distinct tuples filed under one hash are both
    /// kept, and a repeat of either is still recognised.
    #[test]
    fn colliding_tuples_are_both_kept() {
        let mut set = TupleSet::default();
        assert!(set.insert_hashed(7, Cow::Owned(le(1))));
        assert!(set.insert_hashed(7, Cow::Owned(le(2))));
        assert!(!set.insert_hashed(7, Cow::Owned(le(1))));
        assert!(!set.insert_hashed(7, Cow::Owned(le(2))));
        assert!(set.holds(7, &le(2)) && !set.holds(7, &le(3)));
        assert_eq!(set.into_tuples(), vec![le(1), le(2)]);
    }
}
