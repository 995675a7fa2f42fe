//@ path: crates/srv/src/pool.rs
//! Fixture: a lock-free pool whose helper loop shares the name `serve`
//! with `Session::serve`. `self.serve()` inside `Pool` is `Pool::serve`,
//! so `Session::write → dispatch → Pool::help` takes no second master
//! lock and there is no `db-master → db-master` cycle to report.

pub fn dispatch(_g: &G) {
    POOL.help();
}

impl Pool {
    pub fn help(&self) {
        self.serve();
    }

    fn serve(&self) {
        self.queue.pop_front();
    }
}
