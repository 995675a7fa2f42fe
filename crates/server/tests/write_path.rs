//! What a failed write does to the state sessions share: nothing.

use cdb_server::{Server, ServerConfig, ServerError};

/// A write that fails while refreshing a dependent leaves the master as it
/// was: a session that refreshes afterwards still sees `T` = the closure of
/// the `E` it sees. (`Top` is the largest source of an edge; over the
/// half-plane the `INSERT` adds it has no maximum, so its refresh fails
/// after `E` was written.)
#[test]
fn failed_write_leaves_the_master_untouched() {
    let server = Server::new(ServerConfig::default());
    let mut writer = server.session();
    for setup in [
        "CREATE RELATION E(x, y);",
        "INSERT INTO E VALUES (1, 2), (2, 3);",
        "DATALOG { T(x, y) :- E(x, y). T(x, y) :- T(x, z), E(z, y). };",
        "CREATE RELATION Top(z) AS z = MAX[x]{ exists y E(x, y) };",
    ] {
        writer.execute(setup).unwrap();
    }
    let mut reader = server.session();
    let e_before = reader.execute("SELECT E(x, y);").unwrap().to_string();
    let t_before = reader.execute("SELECT T(x, y);").unwrap().to_string();

    let err = writer
        .execute("INSERT INTO E CONSTRAINT y - x >= 1;")
        .unwrap_err();
    assert!(
        matches!(&err, ServerError::Db(m) if m.contains("unbounded")),
        "{err}"
    );

    reader.refresh();
    for session in [&mut reader, &mut writer] {
        assert_eq!(
            session.execute("SELECT E(x, y);").unwrap().to_string(),
            e_before,
            "the failed INSERT left its tuple in E"
        );
        assert_eq!(
            session.execute("SELECT T(x, y);").unwrap().to_string(),
            t_before
        );
    }
    // The master is not wedged: a write its dependents can follow goes
    // through, and T follows it.
    let ok = writer.execute("INSERT INTO E VALUES (3, 4);").unwrap();
    assert_eq!(ok.to_string(), "updated E: +1 -0 (refreshed 2)");
    reader.refresh();
    let t_after = reader.execute("SELECT T(x, y);").unwrap().to_string();
    assert!(t_after != t_before && t_after.contains('4'), "{t_after}");
}
