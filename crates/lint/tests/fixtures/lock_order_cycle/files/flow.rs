//@ path: crates/srv/src/flow.rs
//! Fixture: acquires the master cell, then calls into `helper`, which
//! takes a `loc` cell — the forward direction of the cycle.

pub fn forward(s: &S) {
    let g = s.master.lock().unwrap_or_else(recover);
    helper::grab_root(s);
    touch(&g);
}

fn touch(_g: &G) {}

fn recover(e: E) -> G {
    e.into_inner()
}
