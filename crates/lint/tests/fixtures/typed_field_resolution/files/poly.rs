//@ path: crates/poly/src/poly.rs
//! Fixture: an unrelated `sign` method that panics.

impl Poly {
    pub fn sign(&self) -> i8 {
        self.lead().unwrap()
    }
}
