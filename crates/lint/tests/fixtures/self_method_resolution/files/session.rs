//@ path: crates/srv/src/session.rs
//! Fixture: `Session::serve` takes the master cell; `Session::write` holds
//! it while it fans work out to the pool.

impl Session {
    pub fn serve(&self) {
        let g = self.master.lock().unwrap_or_else(recover);
        touch(&g);
    }

    pub fn write(&self) {
        let g = self.master.lock().unwrap_or_else(recover);
        pool::dispatch(&g);
        touch(&g);
    }
}

fn touch(_g: &G) {}

fn recover(e: E) -> G {
    e.into_inner()
}
