//@ path: crates/num/src/frac.rs
//! Fixture: a method called on a field of `self` that the impl's own
//! struct declares `f: T` or `f: &T` is `T`'s when `T` defines it.
//! `field_typed` calls `Big::sign` only, so the panicking `Poly::sign` of
//! another crate does not reach it. A field whose type does not define the
//! method, a `Box` (reached through `Deref`), a generic parameter, a call
//! result and a deeper field path keep the union over every workspace
//! method of that name, and the panic reaches.

pub struct Frac<'a, T> {
    num: Big,
    pub(crate) den: &'a Big,
    other: Other,
    boxed: Box<Big>,
    generic: T,
    inner: Inner,
}

pub struct Inner {
    num: Big,
}

impl Big {
    pub fn sign(&self) -> i8 {
        1
    }
}

impl<'a, T> Frac<'a, T> {
    pub fn field_typed(&self) -> i8 {
        self.num.sign() + self.den.sign()
    }

    pub fn field_without_the_method(&self) -> i8 {
        self.other.sign()
    }

    pub fn boxed_field(&self) -> i8 {
        self.boxed.sign()
    }

    pub fn generic_field(&self) -> i8 {
        self.generic.sign()
    }

    pub fn call_result(&self) -> i8 {
        self.numerator().sign()
    }

    pub fn nested_field(&self) -> i8 {
        self.inner.num.sign()
    }

    fn numerator(&self) -> &Big {
        &self.num
    }
}
