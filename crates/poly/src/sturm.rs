//! Sturm sequences and real-root counting.
//!
//! The CAD base phase (Appendix I, second phase: "All the roots are
//! identified \[CL82\]") uses Sturm's theorem: the number of distinct real
//! roots of a squarefree `p` in `(a, b]` is `V(a) − V(b)` where `V(x)` is
//! the number of sign variations of the Sturm chain at `x`.

use crate::upoly::{negate, prem_primitive, UPoly};
use cdb_num::{FIntv, Rat, Sign};

/// A precomputed Sturm chain for one polynomial.
#[derive(Debug, Clone)]
pub struct SturmChain {
    seq: Vec<UPoly>,
}

impl SturmChain {
    /// Build the chain `p, p', -rem(p, p'), ...`; every member after the
    /// first two is the primitive integer multiple of `-rem` by a *positive*
    /// factor (positive scaling preserves signs, controls coefficient
    /// growth). The remainders are taken on integers (DESIGN.md §10.1): `p`
    /// and `p'` become their primitive integer multiples once and each step
    /// is one sign-preserving pseudo-remainder, so no `Rat` arithmetic runs
    /// inside the loop.
    #[must_use]
    pub fn new(p: &UPoly) -> SturmChain {
        let mut seq = Vec::new();
        if p.is_zero() {
            return SturmChain { seq };
        }
        seq.push(p.clone());
        if p.is_constant() {
            return SturmChain { seq };
        }
        let dp = p.derivative();
        let mut a = p.primitive_ints();
        let mut b = dp.primitive_ints();
        seq.push(dp);
        while b.len() > 1 {
            let mut r = prem_primitive(&a, &b);
            if r.is_empty() {
                break;
            }
            negate(&mut r);
            seq.push(UPoly::from_int_coeffs(r.clone()));
            a = b;
            b = r;
        }
        SturmChain { seq }
    }

    /// The chain members.
    #[must_use]
    pub fn sequence(&self) -> &[UPoly] {
        &self.seq
    }

    /// Number of sign variations at `x`.
    ///
    /// Each chain member's sign is first filtered through the cheap
    /// outward-rounded float enclosure ([`UPoly::fsign_at_enclosed`]); the
    /// exact big-rational evaluation runs only for members whose enclosure
    /// straddles zero, so the count is identical to the unfiltered one.
    #[must_use]
    pub fn variations_at(&self, x: &Rat) -> usize {
        let fx = FIntv::from(x);
        count_variations(self.seq.iter().map(|q| q.fsign_at_enclosed(x, &fx)))
    }

    /// Number of sign variations at `+inf` (signs of leading coefficients).
    #[must_use]
    pub fn variations_at_pos_inf(&self) -> usize {
        count_variations(self.seq.iter().map(|q| q.leading().sign()))
    }

    /// Number of sign variations at `-inf`.
    #[must_use]
    pub fn variations_at_neg_inf(&self) -> usize {
        count_variations(self.seq.iter().map(|q| {
            let s = q.leading().sign();
            if q.deg() % 2 == 1 {
                s.neg()
            } else {
                s
            }
        }))
    }

    /// Distinct real roots in the half-open interval `(a, b]`. Requires the
    /// chain's polynomial to be squarefree for exact counts.
    #[must_use]
    pub fn count_roots_half_open(&self, a: &Rat, b: &Rat) -> usize {
        assert!(a <= b);
        self.variations_at(a) - self.variations_at(b)
    }

    /// Distinct real roots in the whole real line.
    #[must_use]
    pub fn count_real_roots(&self) -> usize {
        self.variations_at_neg_inf() - self.variations_at_pos_inf()
    }
}

fn count_variations<I: IntoIterator<Item = Sign>>(signs: I) -> usize {
    let mut prev: Option<Sign> = None;
    let mut count = 0;
    for s in signs {
        if s == Sign::Zero {
            continue;
        }
        if let Some(p) = prev {
            if p != s {
                count += 1;
            }
        }
        prev = Some(s);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[i64]) -> UPoly {
        UPoly::from_ints(coeffs)
    }

    #[test]
    fn count_roots_of_cubic() {
        // (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        let f = p(&[-6, 11, -6, 1]);
        let chain = SturmChain::new(&f);
        assert_eq!(chain.count_real_roots(), 3);
        assert_eq!(
            chain.count_roots_half_open(&Rat::zero(), &Rat::from(10i64)),
            3
        );
        assert_eq!(
            chain.count_roots_half_open(&Rat::from(1i64), &Rat::from(2i64)),
            1 // half-open (1,2]: root at 2 counted, root at 1 not
        );
        assert_eq!(
            chain.count_roots_half_open(&"3/2".parse().unwrap(), &"5/2".parse().unwrap()),
            1
        );
    }

    #[test]
    fn no_real_roots() {
        let f = p(&[1, 0, 1]); // x^2 + 1
        assert_eq!(SturmChain::new(&f).count_real_roots(), 0);
    }

    #[test]
    fn double_root_counted_once_after_squarefree() {
        let f = p(&[25, -20, 4]); // (2x-5)^2
        let chain = SturmChain::new(&f.squarefree());
        assert_eq!(chain.count_real_roots(), 1);
        assert_eq!(
            chain.count_roots_half_open(&Rat::from(2i64), &Rat::from(3i64)),
            1
        );
    }

    #[test]
    fn variations_edges() {
        let f = p(&[0, 1]); // x, root at 0
        let chain = SturmChain::new(&f);
        // (−1, 0] contains the root; (0, 1] does not.
        assert_eq!(
            chain.count_roots_half_open(&Rat::from(-1i64), &Rat::zero()),
            1
        );
        assert_eq!(chain.count_roots_half_open(&Rat::zero(), &Rat::one()), 0);
    }

    #[test]
    fn wilkinson_like_many_roots() {
        // Π_{i=1..7} (x - i)
        let mut f = UPoly::one();
        for i in 1..=7i64 {
            f = &f * &p(&[-i, 1]);
        }
        let chain = SturmChain::new(&f);
        assert_eq!(chain.count_real_roots(), 7);
        assert_eq!(
            chain.count_roots_half_open(&"5/2".parse().unwrap(), &"11/2".parse().unwrap()),
            3 // roots 3, 4, 5
        );
    }
}
