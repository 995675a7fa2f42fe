//! Approximation bases (§5): "An approximation base (a-base) is a list of
//! floating numbers b₁, …, b_{ℓ−1} where bᵢ₋₁ < bᵢ" dividing the line into
//! intervals over which non-polynomial functions are approximated.
//!
//! The paper's outer intervals `[b₀, b₁] = [−∞, b₁]` are clamped to a finite
//! working range here: polynomial approximation of an analytic function on
//! an unbounded interval is impossible in sup-norm, so CALC_F evaluation
//! restricts aggregates to the a-base's span (documented substitution).

use cdb_num::Rat;

/// A finite approximation base: strictly increasing breakpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ABase {
    points: Vec<Rat>,
}

impl ABase {
    /// From breakpoints (must be strictly increasing, at least two).
    #[must_use]
    pub fn new(points: Vec<Rat>) -> ABase {
        assert!(points.len() >= 2, "a-base needs at least two breakpoints");
        assert!(
            points.windows(2).all(|w| matches!(w, [a, b] if a < b)),
            "a-base breakpoints must be strictly increasing"
        );
        ABase { points }
    }

    /// Uniform base: `cells` intervals between `lo` and `hi`.
    #[must_use]
    pub fn uniform(lo: Rat, hi: Rat, cells: usize) -> ABase {
        assert!(cells >= 1 && lo < hi);
        let width = &(&hi - &lo) / &Rat::from(cells as i64);
        let mut points = Vec::with_capacity(cells + 1);
        for i in 0..=cells {
            points.push(&lo + &(&width * &Rat::from(i as i64)));
        }
        ABase { points }
    }

    /// The breakpoints.
    #[must_use]
    pub fn points(&self) -> &[Rat] {
        &self.points
    }

    /// Number of intervals.
    #[must_use]
    pub fn num_intervals(&self) -> usize {
        self.points.len() - 1
    }

    /// The `i`-th interval `[bᵢ, bᵢ₊₁]`.
    #[must_use]
    pub fn interval(&self, i: usize) -> (Rat, Rat) {
        (self.points[i].clone(), self.points[i + 1].clone())
    }

    /// Iterate intervals.
    pub fn intervals(&self) -> impl Iterator<Item = (Rat, Rat)> + '_ {
        (0..self.num_intervals()).map(|i| self.interval(i))
    }

    /// Span `[lo, hi]`.
    #[must_use]
    pub fn span(&self) -> (Rat, Rat) {
        (
            // cdb-lint: allow(panic) — every constructor asserts ≥ 2 breakpoints
            self.points.first().expect("nonempty").clone(),
            // cdb-lint: allow(panic) — every constructor asserts ≥ 2 breakpoints
            self.points.last().expect("nonempty").clone(),
        )
    }

    /// Refine: split every interval in two (halving the error at roughly
    /// double the piece count — the paper's accuracy/complexity trade-off).
    #[must_use]
    pub fn refined(&self) -> ABase {
        let mut points = Vec::with_capacity(self.points.len() * 2 - 1);
        for w in self.points.windows(2) {
            let [a, b] = w else { continue };
            points.push(a.clone());
            points.push(Rat::midpoint(a, b));
        }
        points.extend(self.points.last().cloned());
        ABase { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(v: i64) -> Rat {
        Rat::from(v)
    }

    #[test]
    fn uniform_base() {
        let b = ABase::uniform(rat(0), rat(4), 4);
        assert_eq!(b.num_intervals(), 4);
        assert_eq!(b.interval(0), (rat(0), rat(1)));
        assert_eq!(b.interval(3), (rat(3), rat(4)));
        assert_eq!(b.span(), (rat(0), rat(4)));
    }

    #[test]
    fn refinement_doubles() {
        let b = ABase::uniform(rat(0), rat(2), 2);
        let r = b.refined();
        assert_eq!(r.num_intervals(), 4);
        assert_eq!(r.interval(1), ("1/2".parse().unwrap(), rat(1)));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted() {
        let _ = ABase::new(vec![rat(1), rat(0)]);
    }
}
