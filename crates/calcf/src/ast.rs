//! Abstract syntax of CALC_F.
//!
//! Terms may contain analytic function applications and aggregate
//! predicates `g_ȳ[φ]` (§5: "if φ is a formula in CALC_F with free
//! variables among x̄, ȳ and g_ȳ is an aggregate function … then g_ȳ\[φ\] is
//! an (|x̄| + k)-ary aggregate predicate"). Our surface syntax renders the
//! aggregate predicate as a *term*, `AGG[ȳ]{φ}`, compared against other
//! terms — e.g. the paper's Example 5.1 is written
//! `z = SURFACE[x, y]{ S(x, y) and y <= 9 }`.

use cdb_agg::Aggregate;
use cdb_approx::AnalyticFn;
use cdb_constraints::RelOp;
use cdb_num::Rat;
use std::collections::BTreeSet;
use std::fmt;

/// A CALC_F term.
#[derive(Debug, Clone, PartialEq)]
pub enum CTerm {
    /// Variable by name.
    Var(String),
    /// Rational constant.
    Const(Rat),
    /// Sum.
    Add(Box<CTerm>, Box<CTerm>),
    /// Difference.
    Sub(Box<CTerm>, Box<CTerm>),
    /// Product.
    Mul(Box<CTerm>, Box<CTerm>),
    /// Negation.
    Neg(Box<CTerm>),
    /// Natural power.
    Pow(Box<CTerm>, u32),
    /// Analytic function application.
    Apply(AnalyticFn, Box<CTerm>),
    /// Aggregate predicate: `AGG[vars]{formula}`.
    Agg(Aggregate, Vec<String>, Box<CFormula>),
}

/// A CALC_F formula.
#[derive(Debug, Clone, PartialEq)]
pub enum CFormula {
    /// ⊤
    True,
    /// ⊥
    False,
    /// Term comparison.
    Cmp(CTerm, RelOp, CTerm),
    /// Database relation applied to variables.
    Rel(String, Vec<String>),
    /// The EVAL aggregate used as a predicate: `EVAL[vars]{φ}` holds of the
    /// listed variables — the system's finite solution set when it exists,
    /// the system itself otherwise (§5).
    EvalPred(Vec<String>, Box<CFormula>),
    /// Negation.
    Not(Box<CFormula>),
    /// Conjunction.
    And(Vec<CFormula>),
    /// Disjunction.
    Or(Vec<CFormula>),
    /// ∃
    Exists(String, Box<CFormula>),
    /// ∀
    Forall(String, Box<CFormula>),
}

impl CTerm {
    /// Variables occurring (free; aggregate-bound variables excluded).
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            CTerm::Var(v) => {
                out.insert(v.clone());
            }
            CTerm::Const(_) => {}
            CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            CTerm::Neg(a) | CTerm::Pow(a, _) | CTerm::Apply(_, a) => a.collect_vars(out),
            CTerm::Agg(_, bound, f) => {
                let mut inner = BTreeSet::new();
                f.collect_free_vars(&mut inner);
                for v in inner {
                    if !bound.contains(&v) {
                        out.insert(v);
                    }
                }
            }
        }
    }

    /// True iff the term contains an analytic function application.
    #[must_use]
    pub fn has_analytic(&self) -> bool {
        match self {
            CTerm::Var(_) | CTerm::Const(_) => false,
            CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => {
                a.has_analytic() || b.has_analytic()
            }
            CTerm::Neg(a) | CTerm::Pow(a, _) => a.has_analytic(),
            CTerm::Apply(..) => true,
            CTerm::Agg(..) => false, // aggregates are evaluated away first
        }
    }

    /// True iff the term contains an aggregate predicate.
    #[must_use]
    pub fn has_aggregate(&self) -> bool {
        match self {
            CTerm::Var(_) | CTerm::Const(_) => false,
            CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => {
                a.has_aggregate() || b.has_aggregate()
            }
            CTerm::Neg(a) | CTerm::Pow(a, _) | CTerm::Apply(_, a) => a.has_aggregate(),
            CTerm::Agg(..) => true,
        }
    }
}

impl CFormula {
    /// Free variables of the formula.
    pub fn collect_free_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            CFormula::True | CFormula::False => {}
            CFormula::Cmp(a, _, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            CFormula::Rel(_, args) => out.extend(args.iter().cloned()),
            CFormula::EvalPred(vars, _) => out.extend(vars.iter().cloned()),
            CFormula::Not(f) => f.collect_free_vars(out),
            CFormula::And(fs) | CFormula::Or(fs) => {
                for f in fs {
                    f.collect_free_vars(out);
                }
            }
            CFormula::Exists(v, f) | CFormula::Forall(v, f) => {
                let mut inner = BTreeSet::new();
                f.collect_free_vars(&mut inner);
                inner.remove(v);
                out.extend(inner);
            }
        }
    }

    /// Free variables, sorted.
    #[must_use]
    pub fn free_vars(&self) -> Vec<String> {
        let mut s = BTreeSet::new();
        self.collect_free_vars(&mut s);
        s.into_iter().collect()
    }

    /// Names of the relations the formula reads, inside aggregate and
    /// `EVAL` bodies too (`AGG[ȳ]{φ}` reads whatever φ reads).
    #[must_use]
    pub fn relation_names(&self) -> BTreeSet<String> {
        fn term(t: &CTerm, out: &mut BTreeSet<String>) {
            match t {
                CTerm::Var(_) | CTerm::Const(_) => {}
                CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => {
                    term(a, out);
                    term(b, out);
                }
                CTerm::Neg(a) | CTerm::Pow(a, _) | CTerm::Apply(_, a) => term(a, out),
                CTerm::Agg(_, _, f) => go(f, out),
            }
        }
        fn go(f: &CFormula, out: &mut BTreeSet<String>) {
            match f {
                CFormula::True | CFormula::False => {}
                CFormula::Cmp(a, _, b) => {
                    term(a, out);
                    term(b, out);
                }
                CFormula::Rel(name, _) => {
                    out.insert(name.clone());
                }
                CFormula::EvalPred(_, g)
                | CFormula::Not(g)
                | CFormula::Exists(_, g)
                | CFormula::Forall(_, g) => go(g, out),
                CFormula::And(fs) | CFormula::Or(fs) => {
                    for g in fs {
                        go(g, out);
                    }
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }

    /// All variables mentioned anywhere (free, quantified, aggregate-bound),
    /// in first-appearance order — the paper's "pre-established order".
    #[must_use]
    pub fn all_vars_in_order(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn push(out: &mut Vec<String>, v: &str) {
            if !out.iter().any(|o| o == v) {
                out.push(v.to_owned());
            }
        }
        fn term(t: &CTerm, out: &mut Vec<String>) {
            match t {
                CTerm::Var(v) => push(out, v),
                CTerm::Const(_) => {}
                CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => {
                    term(a, out);
                    term(b, out);
                }
                CTerm::Neg(a) | CTerm::Pow(a, _) | CTerm::Apply(_, a) => term(a, out),
                CTerm::Agg(_, bound, f) => {
                    for v in bound {
                        push(out, v);
                    }
                    go(f, out);
                }
            }
        }
        fn go(f: &CFormula, out: &mut Vec<String>) {
            match f {
                CFormula::True | CFormula::False => {}
                CFormula::Cmp(a, _, b) => {
                    term(a, out);
                    term(b, out);
                }
                CFormula::Rel(_, args) => {
                    for v in args {
                        push(out, v);
                    }
                }
                CFormula::EvalPred(vars, g) => {
                    for v in vars {
                        push(out, v);
                    }
                    go(g, out);
                }
                CFormula::Not(g) => go(g, out),
                CFormula::And(fs) | CFormula::Or(fs) => {
                    for g in fs {
                        go(g, out);
                    }
                }
                CFormula::Exists(v, g) | CFormula::Forall(v, g) => {
                    push(out, v);
                    go(g, out);
                }
            }
        }
        go(self, &mut out);
        out
    }

    /// Maximum nesting depth of aggregate predicates (the number of stages
    /// the evaluator runs; 0 = no aggregates).
    #[must_use]
    pub fn aggregate_depth(&self) -> usize {
        fn term(t: &CTerm) -> usize {
            match t {
                CTerm::Var(_) | CTerm::Const(_) => 0,
                CTerm::Add(a, b) | CTerm::Sub(a, b) | CTerm::Mul(a, b) => term(a).max(term(b)),
                CTerm::Neg(a) | CTerm::Pow(a, _) | CTerm::Apply(_, a) => term(a),
                CTerm::Agg(_, _, f) => 1 + f.aggregate_depth(),
            }
        }
        match self {
            CFormula::True | CFormula::False | CFormula::Rel(..) => 0,
            CFormula::EvalPred(_, f) => 1 + f.aggregate_depth(),
            CFormula::Cmp(a, _, b) => term(a).max(term(b)),
            CFormula::Not(f) | CFormula::Exists(_, f) | CFormula::Forall(_, f) => {
                f.aggregate_depth()
            }
            CFormula::And(fs) | CFormula::Or(fs) => {
                fs.iter().map(CFormula::aggregate_depth).max().unwrap_or(0)
            }
        }
    }
}

impl fmt::Display for CTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CTerm::Var(v) => write!(f, "{v}"),
            CTerm::Const(c) => write!(f, "{c}"),
            CTerm::Add(a, b) => write!(f, "({a} + {b})"),
            CTerm::Sub(a, b) => write!(f, "({a} - {b})"),
            CTerm::Mul(a, b) => write!(f, "({a} * {b})"),
            // Parenthesize the operand: `-(-8)` must not print as `--8`,
            // which the lexer reads as a comment.
            CTerm::Neg(a) => write!(f, "(-({a}))"),
            // Parenthesize any base that is not a plain variable or a
            // nonnegative constant: `-1^2` would re-parse as `-(1^2)`.
            CTerm::Pow(a, n) => match a.as_ref() {
                CTerm::Var(_) => write!(f, "{a}^{n}"),
                CTerm::Const(c) if c >= &Rat::zero() => write!(f, "{a}^{n}"),
                _ => write!(f, "({a})^{n}"),
            },
            CTerm::Apply(g, a) => write!(f, "{g}({a})"),
            CTerm::Agg(g, vars, body) => {
                write!(f, "{}[{}]{{{body}}}", g.name(), vars.join(", "))
            }
        }
    }
}

impl fmt::Display for CFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CFormula::True => write!(f, "true"),
            CFormula::False => write!(f, "false"),
            CFormula::Cmp(a, op, b) => write!(f, "{a} {} {b}", op.symbol()),
            CFormula::Rel(name, args) => write!(f, "{name}({})", args.join(", ")),
            CFormula::EvalPred(vars, g) => {
                write!(f, "EVAL[{}]{{{g}}}", vars.join(", "))
            }
            CFormula::Not(g) => write!(f, "not ({g})"),
            CFormula::And(fs) => {
                let parts: Vec<String> = fs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" and "))
            }
            CFormula::Or(fs) => {
                let parts: Vec<String> = fs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" or "))
            }
            CFormula::Exists(v, g) => write!(f, "exists {v} ({g})"),
            CFormula::Forall(v, g) => write!(f, "forall {v} ({g})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example51() -> CFormula {
        // z = SURFACE[x, y]{ S(x, y) and y <= 9 }
        CFormula::Cmp(
            CTerm::Var("z".into()),
            RelOp::Eq,
            CTerm::Agg(
                Aggregate::Surface,
                vec!["x".into(), "y".into()],
                Box::new(CFormula::And(vec![
                    CFormula::Rel("S".into(), vec!["x".into(), "y".into()]),
                    CFormula::Cmp(
                        CTerm::Var("y".into()),
                        RelOp::Le,
                        CTerm::Const(Rat::from(9i64)),
                    ),
                ])),
            ),
        )
    }

    #[test]
    fn free_vars_exclude_aggregate_bound() {
        let f = example51();
        assert_eq!(f.free_vars(), vec!["z".to_owned()]);
        assert_eq!(f.aggregate_depth(), 1);
    }

    #[test]
    fn relation_names_descend_into_aggregates() {
        let f =
            crate::parse_formula("exists y (S(x, y) and z = LENGTH[w]{ P(w) and Q(w) })").unwrap();
        let names: Vec<String> = f.relation_names().into_iter().collect();
        assert_eq!(names, ["P", "Q", "S"]);
    }

    #[test]
    fn variable_order_is_first_appearance() {
        let f = example51();
        assert_eq!(
            f.all_vars_in_order(),
            vec!["z".to_owned(), "x".to_owned(), "y".to_owned()]
        );
    }

    #[test]
    fn display_roundtrips_visually() {
        let f = example51();
        assert_eq!(f.to_string(), "z = SURFACE[x, y]{(S(x, y)) and (y <= 9)}");
    }

    #[test]
    fn analytic_detection() {
        let t = CTerm::Apply(AnalyticFn::Sin, Box::new(CTerm::Var("x".into())));
        assert!(t.has_analytic());
        assert!(!CTerm::Var("x".into()).has_analytic());
    }
}
