//! Snapshot-isolation semantics over real loopback sockets: lock-free
//! snapshot reads while a writer holds its X lock, and the
//! first-updater-wins write-write conflict surfacing as a retryable
//! [`err_code::TXN_RETRY`] error that a client retry loop absorbs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_core::Bullfrog;
use bullfrog_engine::{Database, DbConfig, EngineMode};
use bullfrog_net::{err_code, Client, ClientError, Server, ServerConfig};

fn serve_si() -> (Server, std::net::SocketAddr) {
    let db = Arc::new(Database::with_config(DbConfig {
        mode: EngineMode::Snapshot,
        ..DbConfig::default()
    }));
    let bf = Arc::new(Bullfrog::new(db));
    let server = Server::bind(
        ("127.0.0.1", 0),
        bf,
        ServerConfig {
            max_connections: 8,
            idle_timeout: Duration::from_secs(10),
            statement_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

#[test]
fn write_write_conflict_is_retryable_over_tcp() {
    let (_server, addr) = serve_si();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.execute("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
        .unwrap();
    a.execute("INSERT INTO t VALUES (0, 1), (1, 1)").unwrap();

    // A holds the X lock on row 0 uncommitted.
    a.execute("BEGIN").unwrap();
    assert_eq!(a.execute("UPDATE t SET v = 111 WHERE id = 0").unwrap(), 1);

    // B's snapshot read returns the old committed value immediately —
    // no S lock, so no blocking on A's X lock. The read also pins B's
    // snapshot: it is now "used" and can no longer be refreshed.
    b.execute("BEGIN").unwrap();
    let started = Instant::now();
    let (_, rows) = b.query_rows("SELECT v FROM t WHERE id = 0").unwrap();
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "snapshot read must not block on the writer's X lock"
    );
    assert_eq!(rows[0].0[0].as_i64(), Some(1), "pre-commit value");

    a.execute("COMMIT").unwrap();

    // First-updater-wins: row 0 now has a version committed after B's
    // snapshot, so B's write loses with the retryable TXN_RETRY code
    // (the server aborts B's open transaction on the error).
    match b.execute("UPDATE t SET v = 222 WHERE id = 0") {
        Err(ClientError::Server {
            retryable: true,
            code,
            ..
        }) => assert_eq!(code, err_code::TXN_RETRY, "conflict must map to TXN_RETRY"),
        other => panic!("expected a retryable write conflict, got {other:?}"),
    }

    // The client's retry loop: restart the bracket with a fresh
    // snapshot and win.
    let mut committed = false;
    for _ in 0..8 {
        b.execute("BEGIN").unwrap();
        match b.execute("UPDATE t SET v = 222 WHERE id = 0") {
            Ok(n) => {
                assert_eq!(n, 1);
                b.execute("COMMIT").unwrap();
                committed = true;
                break;
            }
            Err(ClientError::Server {
                retryable: true, ..
            }) => continue,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    assert!(committed, "retry with a fresh snapshot must succeed");

    let (_, rows) = a.query_rows("SELECT v FROM t WHERE id = 0").unwrap();
    assert_eq!(rows[0].0[0].as_i64(), Some(222));
}
