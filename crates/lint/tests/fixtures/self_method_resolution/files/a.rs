//@ path: crates/srv/src/a.rs
//! Fixture: `A::check` calls `self.probe()`. Inside `impl A` that call is
//! `A::probe`, which cannot panic, so `A::check` stays off the panic
//! surface although `B::probe`, a method of the same name, unwraps.

impl A {
    pub fn check(&self) -> bool {
        self.probe()
    }

    fn probe(&self) -> bool {
        self.ready
    }
}
