//! The input bit length of the partial query semantics `FOF_QE` (§4).
//!
//! A query is evaluated by the same deterministic QE algorithm as the exact
//! semantics, but every integer the algorithm manipulates is restricted to
//! bit length `k` — `constraintdb::ConstraintDb::query_fp`, the one
//! evaluation entry point of `⊨_QE^F`. "The bit length of the integers
//! allowed in the QE algorithm depends upon the input database and the
//! query": budgets are chosen as multiples of [`input_bit_length`].

use cdb_constraints::{Database, Formula};

/// Bit length of the input: the largest bit length of any integer occurring
/// in the database representation or the query — the `k` such that the
/// active domain is `Z_k` (§4).
#[must_use]
pub fn input_bit_length(db: &Database, query: &Formula) -> u64 {
    fn formula_bits(f: &Formula) -> u64 {
        match f {
            Formula::True | Formula::False | Formula::Rel(..) => 0,
            Formula::Atom(a) => a.poly.max_coeff_bits(),
            Formula::Not(b) | Formula::Quant(_, _, b) => formula_bits(b),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().map(formula_bits).max().unwrap_or(0),
        }
    }
    db.max_coeff_bits().max(formula_bits(query)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraints::{Atom, ConstraintRelation, GeneralizedTuple, RelOp};
    use cdb_num::Rat;
    use cdb_poly::MPoly;
    use cdb_qe::{evaluate_query, QeContext};

    fn c(v: i64, n: usize) -> MPoly {
        MPoly::constant(Rat::from(v), n)
    }

    fn linear_db(coeff: i64) -> (Database, Formula) {
        // R(x, y) ≡ y = coeff·x ∧ 0 ≤ x ≤ 4; query ∃y R(x, y).
        let n = 2;
        let x = MPoly::var(0, n);
        let y = MPoly::var(1, n);
        let rel = ConstraintRelation::new(
            n,
            vec![GeneralizedTuple::new(
                n,
                vec![
                    Atom::cmp(y, RelOp::Eq, x.scale(&Rat::from(coeff))),
                    Atom::new(-&x, RelOp::Le),
                    Atom::cmp(x, RelOp::Le, c(4, n)),
                ],
            )],
        );
        let mut db = Database::new();
        db.insert("R", rel);
        let q = Formula::exists(1, Formula::Rel("R".into(), vec![0, 1]));
        (db, q)
    }

    #[test]
    fn input_bit_length_reflects_coefficients() {
        let (db, q) = linear_db(1000);
        assert!(input_bit_length(&db, &q) >= 10); // 1000 needs 10 bits
        let (db2, q2) = linear_db(1);
        assert!(input_bit_length(&db2, &q2) <= 4);
    }

    #[test]
    fn polynomial_queries_need_polynomially_more_bits() {
        // Theorem 4.1 intuition: CAD on degree-2 inputs squares coefficient
        // sizes; exact run records the growth.
        let n = 2;
        let x = MPoly::var(0, n);
        let y = MPoly::var(1, n);
        let big = 1_000_003i64;
        let p = &(&y.pow(2) - &x.scale(&Rat::from(big))) + &c(1, n);
        let mut db = Database::new();
        db.insert(
            "P",
            ConstraintRelation::new(
                n,
                vec![GeneralizedTuple::new(n, vec![Atom::new(p, RelOp::Le)])],
            ),
        );
        let q = Formula::exists(1, Formula::Rel("P".into(), vec![0, 1]));
        let exact_ctx = QeContext::exact();
        let _ = evaluate_query(&db, &q, n, &exact_ctx).unwrap();
        let input_bits = input_bit_length(&db, &q);
        // CAD intermediate integers exceeded the input bit length.
        assert!(exact_ctx.max_bits_seen.get() > input_bits);
    }
}
