//@ path: crates/srv/src/helper.rs
//! Fixture: `backward` takes a `loc` cell first and the master cell
//! under it — the opposite order to `flow::forward`, closing the cycle.

pub fn grab_root(s: &S) {
    let q = s.loc.lock().unwrap_or_else(recover);
    consume(&q);
}

pub fn backward(s: &S) {
    let q = s.loc.lock().unwrap_or_else(recover);
    let g = s.master.lock().unwrap_or_else(recover);
    consume_both(&g, &q);
}

fn consume(_q: &Q) {}

fn consume_both(_g: &G, _q: &Q) {}

fn recover(e: E) -> G {
    e.into_inner()
}
