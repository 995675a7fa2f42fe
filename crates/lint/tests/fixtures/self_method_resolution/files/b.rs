//@ path: crates/srv/src/b.rs
//! Fixture: the same call shape inside `impl B` is `B::probe`, whose
//! `.unwrap()` puts `B::run` on the panic surface.

impl B {
    pub fn run(&self) -> u32 {
        self.probe()
    }

    fn probe(&self) -> u32 {
        self.slot.unwrap()
    }
}
