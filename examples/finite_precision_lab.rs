//! Finite precision laboratory: the §4 phenomena, live.
//!
//! * The structure `F_k` has a greatest element, breaks distributivity, and
//!   is evaluation-order sensitive — the three pathologies that rule out
//!   Tarskian semantics over floating numbers.
//! * Under the algorithmic semantics `⊨_QE^F`, queries are *partial*:
//!   undefined when any intermediate integer exceeds `k` bits. Linear
//!   queries stay defined at budget `c·k` (Theorem 4.2); polynomial queries
//!   genuinely need more (Theorem 4.1).
//! * Lemma 4.5's doubling: `Z_{2k}` arithmetic built from `Z_k` split ops.
//!
//! Run with: `cargo run --example finite_precision_lab`

use cdb_fp::doubling::{add2k_lo, le2k, mul2k_words, Pair};
use cdb_fp::pathologies::{
    distributivity_counterexample, greatest_element, summation_order_counterexample,
};
use cdb_fp::semantics::input_bit_length;
use cdb_num::{FkParams, Int, Zk};
use constraintdb::ConstraintDb;

fn main() {
    // ---- F_k pathologies. --------------------------------------------------
    let params = FkParams::with_k(8);
    println!("F_8 (8-bit mantissas):");
    println!("  greatest element = {}", greatest_element(params));
    if let Some((a, b, c)) = distributivity_counterexample(params) {
        let lhs = a.mul_round(&b.add_round(&c).unwrap()).unwrap();
        let rhs = a
            .mul_round(&b)
            .unwrap()
            .add_round(&a.mul_round(&c).unwrap())
            .unwrap();
        println!(
            "  distributivity fails: a={}, b={}, c={}: a(b+c) = {} but ab+ac = {}",
            a.to_rat(),
            b.to_rat(),
            c.to_rat(),
            lhs.to_rat(),
            rhs.to_rat()
        );
    }
    if let Some((vals, ltr, rtl)) = summation_order_counterexample(params) {
        println!(
            "  order sensitivity: summing {:?} left-to-right = {}, right-to-left = {}",
            vals.iter().map(|v| v.to_rat().to_f64()).collect::<Vec<_>>(),
            ltr.to_rat(),
            rtl.to_rat()
        );
    }

    // ---- Lemma 4.5: doubling word width from split operations. -------------
    let z = Zk::new(8);
    let a = Pair::split(&z, &Int::from(48_813i64));
    let b = Pair::split(&z, &Int::from(51_966i64));
    let sum = add2k_lo(&z, &a, &b);
    let words = mul2k_words(&z, &a, &b);
    println!("\nZ_16 from Z_8 split ops (Lemma 4.5):");
    println!(
        "  [lo,hi] pairs: a = {:?}, b = {:?}; a + b (low 16 bits) = {}",
        (a.lo.to_string(), a.hi.to_string()),
        (b.lo.to_string(), b.hi.to_string()),
        sum.value(&z)
    );
    println!(
        "  a × b 8-bit words (low→high): [{}]",
        words
            .iter()
            .map(Int::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("  a ≤ b by the defining formula: {}", le2k(&z, &a, &b));

    // ---- Theorem 4.1 / 4.2: defined vs undefined queries. ------------------
    let mut db = ConstraintDb::new();
    db.define("S", &["x", "y"], "4*x^2 - y - 20*x + 25 <= 0")
        .unwrap();
    db.define("L", &["x", "y"], "y = 3*x + 1 and x >= 0 and x <= 10")
        .unwrap();
    println!("\nFinite precision semantics (⊨_QE^F):");
    for (label, query) in [
        ("linear  ∃y L(x,y)", "exists y L(x, y)"),
        (
            "polynomial ∃y (S(x,y) ∧ y ≤ 0)",
            "exists y (S(x, y) and y <= 0)",
        ),
    ] {
        print!("  {label}: defined at k =");
        for k in [4u64, 6, 8, 12, 24, 64] {
            let defined = db.query_fp(query, k).unwrap().is_some();
            if defined {
                print!(" {k}✓");
            } else {
                print!(" {k}✗");
            }
        }
        println!();
    }

    // ---- Theorem 4.2 empirically: linear agreement whenever defined. -------
    let q =
        cdb_constraints::Formula::exists(1, cdb_constraints::Formula::Rel("L".into(), vec![0, 1]));
    let k = input_bit_length(db.raw(), &q);
    let div = db
        .compare_semantics("exists y L(x, y)", 8 * k, 10)
        .unwrap()
        .expect("linear query undefined at 8k budget");
    println!(
        "\nTheorem 4.2 check (linear query, budget 8k = {}): defined, {} probes, {} disagreements",
        8 * k,
        div.probes,
        div.disagreements
    );
    assert_eq!(div.disagreements, 0);
}
