//! `serve`: a line-oriented REPL over one server session.
//!
//! Reads statements from stdin (`;`-terminated, possibly spanning lines),
//! prints one response or error line per statement
//! ([`cdb_server::Session::serve`]). A quick way to poke the surface by
//! hand:
//!
//! ```text
//! $ echo 'CREATE RELATION P(x); INSERT INTO P VALUES (1), (2); SELECT P(x);' | serve
//! created P/1
//! updated P: +2 -0 (refreshed 0)
//! rows (exact=true): ...
//! ```

use cdb_server::{Server, ServerConfig};

fn main() {
    let server = Server::new(ServerConfig::default());
    let mut session = server.session();
    // The stdin lock is held for the whole session.
    let input = std::io::stdin().lock();
    let served = session.serve(input, &mut std::io::stdout());
    server.shutdown();
    if let Err(e) = served {
        eprintln!("serve: {e}");
    }
}
