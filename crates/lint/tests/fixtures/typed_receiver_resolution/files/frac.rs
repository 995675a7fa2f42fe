//@ path: crates/num/src/frac.rs
//! Fixture: a method called on a parameter declared `T`, `&T` or `&mut T`
//! is `T`'s when `T` defines it. `canonical` calls `Big::sign` only, so the
//! panicking `Poly::sign` of another crate does not reach it. Wherever the
//! parameter may be shadowed (a `let`, a closure parameter, a `match` arm)
//! or its type does not define the method, the call keeps the union over
//! every workspace method of that name, and the panic reaches.

impl Big {
    pub fn sign(&self) -> i8 {
        1
    }
}

pub fn canonical(num: Big, den: &Big, scratch: &mut Big) -> i8 {
    num.sign() + den.sign() + scratch.sign()
}

pub fn shadowed_by_let(den: &Big, other: Other) -> i8 {
    let den = other;
    den.sign()
}

pub fn shadowed_by_closure(den: &Big, others: &[Other]) -> i8 {
    others.iter().map(|den| den.sign()).sum()
}

pub fn shadowed_by_match(den: &Big, other: Option<Other>) -> i8 {
    match other {
        Some(den) => den.sign(),
        None => 0,
    }
}

pub fn not_defined_by_type(den: &Other) -> i8 {
    den.sign()
}
