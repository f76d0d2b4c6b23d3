//! End-to-end tests of the BFNET1 server over real loopback sockets:
//! statement round trips, error recovery on a live connection,
//! backpressure, idle timeout, transaction lifecycle across frames,
//! admin opcodes, and the shutdown durability guarantee.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{row, Row, Value};
use bullfrog_core::Bullfrog;
use bullfrog_engine::{recovery, Database, DbConfig, EngineMode};
use bullfrog_net::{
    wire, Client, ClientError, QueryReply, Request, Response, Server, ServerConfig,
};

/// Boots a server on an ephemeral loopback port over a fresh in-memory
/// database.
fn serve(config: ServerConfig) -> (Server, std::net::SocketAddr) {
    let bf = Arc::new(Bullfrog::new(Arc::new(Database::new())));
    let server = Server::bind(("127.0.0.1", 0), bf, config).expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        max_connections: 16,
        idle_timeout: Duration::from_secs(10),
        statement_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// A per-test temp path (tests run in one process, so pid + tag is
/// unique enough).
fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bullfrog-net-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.wal"))
}

#[test]
fn statements_round_trip_over_tcp() {
    let (_server, addr) = serve(quick_config());
    let mut c = Client::connect(addr).unwrap();

    assert_eq!(
        c.execute("CREATE TABLE t (id INT, name CHAR(10), PRIMARY KEY (id))")
            .unwrap(),
        0
    );
    assert_eq!(
        c.execute("INSERT INTO t VALUES (1, 'ada'), (2, 'grace')")
            .unwrap(),
        2
    );

    let (names, mut rows) = c.query_rows("SELECT id, name FROM t").unwrap();
    assert_eq!(names, vec!["id", "name"]);
    rows.sort();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Int(1));
    assert_eq!(rows[1][1], Value::from("grace"));

    assert_eq!(
        c.execute("UPDATE t SET name = 'alan' WHERE id = 1")
            .unwrap(),
        1
    );
    let (_, rows) = c.query_rows("SELECT name FROM t WHERE id = 1").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::from("alan"));

    assert_eq!(c.execute("DELETE FROM t WHERE id = 2").unwrap(), 1);
    let (_, rows) = c.query_rows("SELECT id FROM t").unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn errors_keep_the_connection_usable() {
    let (_server, addr) = serve(quick_config());
    let mut c = Client::connect(addr).unwrap();
    c.execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        .unwrap();

    // Parse error, semantic error, and constraint error in sequence —
    // each reported over the wire, none killing the session.
    for bad in [
        "SELEC id FROM t",
        "SELECT id FROM missing_table",
        "INSERT INTO t VALUES ('not-an-int')",
    ] {
        match c.query(bad) {
            Err(ClientError::Server { .. }) => {}
            other => panic!("expected a server error for {bad:?}, got {other:?}"),
        }
    }

    // The same connection still works.
    assert_eq!(c.execute("INSERT INTO t VALUES (7)").unwrap(), 1);
    let (_, rows) = c.query_rows("SELECT id FROM t").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(7));
}

#[test]
fn over_capacity_connection_is_told_busy() {
    let (_server, addr) = serve(ServerConfig {
        max_connections: 1,
        ..quick_config()
    });
    let mut first = Client::connect(addr).unwrap();
    first
        .execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        .unwrap();

    // The slot is taken; the second connection must get a retryable
    // busy error (possibly needing one probe statement to read it).
    let mut second = Client::connect(addr).unwrap();
    match second.query("SELECT id FROM t") {
        Err(ClientError::Server {
            retryable, message, ..
        }) => {
            assert!(retryable, "busy must be retryable");
            assert!(message.contains("busy"), "unexpected message {message:?}");
        }
        Err(ClientError::Io(_)) => {} // server closed after the busy frame raced our send
        other => panic!("expected busy, got {other:?}"),
    }

    // Freeing the slot lets a new connection in.
    drop(second);
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = Client::connect(addr).unwrap();
        match retry.query("SELECT id FROM t") {
            Ok(_) => break,
            Err(ClientError::Server {
                retryable: true, ..
            })
            | Err(ClientError::Io(_))
                if std::time::Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected the freed slot to admit us, got {other:?}"),
        }
    }
}

#[test]
fn idle_connection_is_closed() {
    let (_server, addr) = serve(ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..quick_config()
    });
    let mut c = Client::connect(addr).unwrap();
    c.execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        .unwrap();

    std::thread::sleep(Duration::from_millis(400));
    // The server hung up while we slept; the next call sees a dead
    // transport.
    match c.query("SELECT id FROM t") {
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        other => panic!("expected a transport error after idle close, got {other:?}"),
    }
}

#[test]
fn explicit_transactions_span_frames() {
    let (_server, addr) = serve(quick_config());
    let mut writer = Client::connect(addr).unwrap();
    let mut reader = Client::connect(addr).unwrap();
    writer
        .execute("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
        .unwrap();

    writer.execute("BEGIN").unwrap();
    writer.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    writer.execute("INSERT INTO t VALUES (2, 20)").unwrap();
    writer.execute("COMMIT").unwrap();
    let (_, rows) = reader.query_rows("SELECT id FROM t").unwrap();
    assert_eq!(rows.len(), 2, "committed rows visible to another session");

    writer.execute("BEGIN").unwrap();
    writer.execute("INSERT INTO t VALUES (3, 30)").unwrap();
    writer.execute("ROLLBACK").unwrap();
    let (_, rows) = reader.query_rows("SELECT id FROM t").unwrap();
    assert_eq!(rows.len(), 2, "rolled-back insert must not be visible");
}

#[test]
fn disconnect_aborts_the_open_transaction() {
    let (_server, addr) = serve(quick_config());
    let mut admin = Client::connect(addr).unwrap();
    admin
        .execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        .unwrap();

    let mut doomed = Client::connect(addr).unwrap();
    doomed.execute("BEGIN").unwrap();
    doomed.execute("INSERT INTO t VALUES (99)").unwrap();
    drop(doomed); // vanish mid-transaction

    // The abort releases the X lock; poll until the row count settles
    // at zero (the server notices the EOF within a poll slice).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match admin.query_rows("SELECT id FROM t") {
            Ok((_, rows)) if rows.is_empty() => break,
            Ok(_)
            | Err(ClientError::Server {
                retryable: true, ..
            }) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "uncommitted insert still visible after disconnect"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("verification scan failed: {e}"),
        }
    }
}

#[test]
fn checkpoint_and_status_opcodes() {
    let (server, addr) = serve(quick_config());
    let mut c = Client::connect(addr).unwrap();
    c.execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        .unwrap();
    c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();

    let absorbed = c.checkpoint().unwrap();
    assert!(absorbed >= 3, "checkpoint absorbed {absorbed} records");

    let pairs = c.status().unwrap();
    let get = |key: &str| -> i64 {
        bullfrog_net::stat(&pairs, key).unwrap_or_else(|| panic!("STATUS missing {key}"))
    };
    assert_eq!(get("server.active_sessions"), 1);
    assert!(get("server.accepted") >= 1);
    assert!(get("sessions.statements") >= 2);
    assert_eq!(get("sessions.rows_written"), 3);
    assert_eq!(get("migration.active"), 0);
    assert!(get("wal.checkpoints") >= 1);
    assert_eq!(get("scheduler.enabled"), 0); // no policy configured
    assert_eq!(server.active_sessions(), 1);
}

/// `wal.resident_bytes` is the encoded size of the log held in memory:
/// it grows with every commit and falls when a checkpoint truncates the
/// log.
#[test]
fn resident_bytes_gauge_grows_with_appends_and_falls_at_checkpoint() {
    let wal_path = temp_path("resident-bytes");
    let _ = std::fs::remove_file(&wal_path);
    let ckpt_path = bullfrog_engine::checkpoint::checkpoint_path_for(&wal_path);
    let _ = std::fs::remove_file(&ckpt_path);
    let db =
        Arc::new(Database::with_wal_file(DbConfig::default(), &wal_path).expect("file-backed db"));
    let bf = Arc::new(Bullfrog::new(db));
    let server = Server::bind(("127.0.0.1", 0), bf, quick_config()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.execute("CREATE TABLE t (id INT, v TEXT, PRIMARY KEY (id))")
        .unwrap();
    let gauge =
        |c: &mut Client| bullfrog_net::stat(&c.status().unwrap(), "wal.resident_bytes").unwrap();
    let empty = gauge(&mut c);
    let mut last = empty;
    for i in 0..20 {
        c.execute(&format!("INSERT INTO t VALUES ({i}, 'row number {i}')"))
            .unwrap();
        let now = gauge(&mut c);
        assert!(now > last, "insert {i}: {now} after {last}");
        last = now;
    }
    c.checkpoint().unwrap();
    let after = gauge(&mut c);
    assert!(after < last, "checkpoint left {after} of {last} bytes");
    assert_eq!(after, empty);
    drop(c);
    drop(server);
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&ckpt_path);
}

#[test]
fn statement_timeout_aborts_instead_of_committing() {
    let (_server, addr) = serve(ServerConfig {
        statement_timeout: Duration::from_millis(0),
        ..quick_config()
    });
    let mut c = Client::connect(addr).unwrap();
    // DDL is exempt from the statement timeout; DML is not.
    c.execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        .unwrap();
    match c.execute("INSERT INTO t VALUES (1)") {
        Err(ClientError::Server { message, .. }) => {
            assert!(
                message.contains("timeout"),
                "expected a statement-timeout error, got {message:?}"
            );
        }
        other => panic!("expected a timeout error, got {other:?}"),
    }
    // The overrunning statement aborted: nothing committed.
    let (_, rows) = c.query_rows("SELECT id FROM t").unwrap_or((vec![], vec![]));
    assert!(rows.is_empty(), "timed-out insert must not commit");
}

#[test]
fn shutdown_drains_without_dropping_committed_writes() {
    let wal_path = temp_path("shutdown-drain");
    let _ = std::fs::remove_file(&wal_path);
    let ckpt_path = bullfrog_engine::checkpoint::checkpoint_path_for(&wal_path);
    let _ = std::fs::remove_file(&ckpt_path);

    let db =
        Arc::new(Database::with_wal_file(DbConfig::default(), &wal_path).expect("file-backed db"));
    let bf = Arc::new(Bullfrog::new(db));
    let mut server = Server::bind(("127.0.0.1", 0), bf, quick_config()).unwrap();
    let addr = server.local_addr();

    // Several sessions commit concurrently right up to the shutdown.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                if w == 0 {
                    c.execute("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
                        .unwrap();
                }
                c
            })
        })
        .collect();
    let mut clients: Vec<Client> = workers.into_iter().map(|t| t.join().unwrap()).collect();
    let mut committed = 0i64;
    for (w, c) in clients.iter_mut().enumerate() {
        for i in 0..8 {
            let id = (w as i64) * 100 + i;
            if c.execute_retry(&format!("INSERT INTO t VALUES ({id}, {id})"), 10)
                .is_ok()
            {
                committed += 1;
            }
        }
    }
    assert_eq!(committed, 32);

    // Remote SHUTDOWN: the server acknowledges, then wait_shutdown
    // drains sessions and syncs the WAL.
    clients[0].shutdown_server().unwrap();
    server.wait_shutdown();
    drop(clients);
    drop(server);

    // Recover the WAL (+ checkpoint sidecar) into a fresh database and
    // assert every committed row survived.
    let recovered = Database::new();
    recovered
        .create_table(
            bullfrog_common::TableSchema::new(
                "t",
                vec![
                    bullfrog_common::ColumnDef::new("id", bullfrog_common::DataType::Int),
                    bullfrog_common::ColumnDef::new("v", bullfrog_common::DataType::Int),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
    recovery::recover_from_files(&recovered, &wal_path, &ckpt_path).expect("recovery");
    let table = recovered.catalog().get("t").unwrap();
    assert_eq!(
        table.live_count() as i64,
        committed,
        "every committed write must survive shutdown + recovery"
    );
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&ckpt_path);
}

/// Regression: `sessions.rows_written` used to be bumped per DML
/// statement inside an open transaction, so a `ROLLBACK` (or a failed
/// autocommit) left phantom rows in the counter. Writes now accumulate
/// per transaction and flush on commit only.
#[test]
fn rolled_back_writes_do_not_count_as_rows_written() {
    let (_server, addr) = serve(quick_config());
    let mut c = Client::connect(addr).unwrap();
    c.execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
        .unwrap();
    fn written(c: &mut Client) -> i64 {
        c.status()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "sessions.rows_written")
            .expect("STATUS missing sessions.rows_written")
            .1
    }

    c.execute("BEGIN").unwrap();
    c.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    c.execute("ROLLBACK").unwrap();
    assert_eq!(written(&mut c), 0, "rolled-back inserts must not count");

    c.execute("BEGIN").unwrap();
    c.execute("INSERT INTO t VALUES (3), (4)").unwrap();
    c.execute("COMMIT").unwrap();
    assert_eq!(written(&mut c), 2, "committed inserts count on COMMIT");

    c.execute("INSERT INTO t VALUES (5)").unwrap();
    assert_eq!(written(&mut c), 3, "autocommit counts immediately");

    // A failed autocommit (duplicate key) writes nothing.
    assert!(c.execute("INSERT INTO t VALUES (5)").is_err());
    assert_eq!(written(&mut c), 3, "failed autocommit must not count");
}

/// The `METRICS` snapshot round-trips over the wire in both engine
/// modes, its counters agree with legacy `STATUS` (same registry
/// storage), and per-opcode statement histogram counts sum exactly to
/// `sessions.statements`.
#[test]
fn metrics_snapshot_matches_status_in_both_engine_modes() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }));
        let bf = Arc::new(Bullfrog::new(db));
        let _server = Server::bind(("127.0.0.1", 0), Arc::clone(&bf), quick_config()).unwrap();
        let addr = _server.local_addr();
        let mut c = Client::connect(addr).unwrap();

        // Exercise every statement opcode: QUERY, PREPARE, EXECUTE,
        // CLOSE_STMT, plus a pipelined burst.
        c.execute("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
            .unwrap();
        c.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        c.prepare(7, "SELECT v FROM t WHERE id = ?").unwrap();
        c.execute_prepared(7, vec![Value::Int(1)].into()).unwrap();
        for reply in c
            .pipeline(&["SELECT id FROM t".into(), "SELECT v FROM t".into()])
            .unwrap()
        {
            reply.unwrap();
        }
        c.close_stmt(7).unwrap();
        // Touch the migration path so migrate.* histograms exist.
        c.execute("CREATE TABLE t2 AS (SELECT id, v FROM t) PRIMARY KEY (id)")
            .unwrap();
        c.query_rows("SELECT id FROM t2").unwrap();
        c.execute("FINALIZE MIGRATION DROP OLD").unwrap();

        let snap = c.metrics().unwrap();
        let pairs = c.status().unwrap();
        let status_of = |key: &str| -> i64 {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("STATUS missing {key} ({mode:?})"))
                .1
        };

        // Same registry storage: STATUS and METRICS must agree on every
        // shared counter (no statements ran between the two requests —
        // STATUS/METRICS are admin opcodes and do not count).
        for key in [
            "sessions.statements",
            "sessions.rows_written",
            "sessions.commits",
            "server.accepted",
        ] {
            assert_eq!(
                snap.counter(key),
                Some(status_of(key) as u64),
                "METRICS and STATUS disagree on {key} ({mode:?})"
            );
        }
        // Gauges are computed per request from the same state: the log
        // did not move between the two requests.
        for key in ["wal.resident_records", "wal.resident_bytes"] {
            assert_eq!(
                snap.gauge(key),
                Some(status_of(key)),
                "METRICS and STATUS disagree on {key} ({mode:?})"
            );
        }
        assert!(status_of("wal.resident_bytes") > 0, "({mode:?})");

        // Totals match: every statement frame lands in exactly one of
        // the four statement histograms.
        let hist_count = |name: &str| snap.histogram(name).map_or(0, |h| h.count());
        let recorded = hist_count("net.query_us")
            + hist_count("net.execute_us")
            + hist_count("net.admin_us")
            + hist_count("net.pipelined_us");
        assert_eq!(
            recorded,
            snap.counter("sessions.statements").unwrap(),
            "statement histogram counts must sum to sessions.statements ({mode:?})"
        );
        assert!(
            hist_count("net.pipelined_us") >= 1,
            "the pipelined burst records follow-on frames ({mode:?})"
        );
        // The hand-off and the pass shape are on the same surface: every
        // worker pass timed its wait in the queue, and the passes between
        // them executed at least every statement frame.
        assert!(hist_count("net.queue_wait_us") >= 1, "({mode:?})");
        let passes = snap
            .histogram("net.frames_per_pass")
            .unwrap_or_else(|| panic!("METRICS missing net.frames_per_pass ({mode:?})"));
        assert!(passes.count() >= 1, "({mode:?})");
        assert!(passes.sum >= recorded, "({mode:?})");

        // The migration lifecycle left latency evidence behind.
        for name in [
            "engine.commit_us",
            "migrate.granule_us",
            "migrate.finalize_us",
        ] {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("METRICS missing histogram {name} ({mode:?})"));
            assert!(h.count() >= 1, "{name} is empty ({mode:?})");
        }
        // The lock manager's histograms are exported from the start; only
        // 2PL commits record a lock count, and only parked requests a wait.
        assert!(
            snap.histogram("txn.lock_wait_us").is_some(),
            "METRICS missing txn.lock_wait_us ({mode:?})"
        );
        let per_commit = snap
            .histogram("txn.locks_per_commit")
            .unwrap_or_else(|| panic!("METRICS missing txn.locks_per_commit ({mode:?})"));
        assert_eq!(
            per_commit.count() >= 1,
            mode == EngineMode::TwoPL,
            "({mode:?})"
        );
        assert!(
            snap.spans_named("migrate.granule").next().is_some(),
            "tracer captured granule spans ({mode:?})"
        );
        assert!(snap.uptime_us > 0, "uptime advances ({mode:?})");
    }
}

#[test]
fn migration_ddl_works_over_the_wire() {
    let (_server, addr) = serve(quick_config());
    let mut c = Client::connect(addr).unwrap();
    c.execute("CREATE TABLE src (id INT, v INT, PRIMARY KEY (id))")
        .unwrap();
    c.execute("INSERT INTO src VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();

    c.execute("CREATE TABLE dst AS (SELECT id, v FROM src) PRIMARY KEY (id)")
        .unwrap();

    // Lazy reads through the new table migrate on touch.
    let (_, rows) = c.query_rows("SELECT id, v FROM dst").unwrap();
    assert_eq!(rows.len(), 3);

    let pairs = c.status().unwrap();
    let active = pairs
        .iter()
        .find(|(k, _)| k == "migration.active")
        .unwrap()
        .1;
    assert_eq!(active, 1, "migration is live until FINALIZE");

    c.execute("FINALIZE MIGRATION DROP OLD").unwrap();
    let pairs = c.status().unwrap();
    let active = pairs
        .iter()
        .find(|(k, _)| k == "migration.active")
        .unwrap()
        .1;
    assert_eq!(active, 0, "FINALIZE clears the active migration");

    // The old table is gone; the new one serves directly.
    assert!(matches!(
        c.query("SELECT id FROM src"),
        Err(ClientError::Server { .. })
    ));
    let QueryReply::Rows { rows, .. } = c.query("SELECT id FROM dst").unwrap() else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), 3);
}

/// A raw connection past the preamble, with `t(id, v)` holding
/// `(1, 10), (2, 20), (3, 30)`.
fn raw_conn_with_table(addr: std::net::SocketAddr) -> TcpStream {
    let mut admin = Client::connect(addr).unwrap();
    admin
        .execute("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
        .unwrap();
    admin
        .execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    wire::write_preamble(&mut s).unwrap();
    s
}

fn select_v(id: i64) -> Vec<u8> {
    let mut frame = Vec::new();
    Request::Query(format!("SELECT v FROM t WHERE id = {id}")).encode_into(&mut frame);
    frame
}

fn expect_v(s: &mut TcpStream, v: i64) {
    match wire::read_response(s).unwrap().expect("connection open") {
        Response::Rows { rows, .. } => assert_eq!(rows, vec![row![v]]),
        other => panic!("{other:?}"),
    }
}

/// Sends `bytes` as separate segments, `piece` bytes at a time. The
/// pause gives each piece its own worker pass; nothing asserted depends
/// on the server having seen them apart.
fn dribble(s: &mut TcpStream, bytes: &[u8], piece: usize) {
    for part in bytes.chunks(piece) {
        s.write_all(part).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_request_in_pieces_still_gets_its_response() {
    let (_server, addr) = serve(quick_config());
    let mut s = raw_conn_with_table(addr);
    let frame = select_v(2);

    // Split at every offset of header and payload.
    for cut in 1..frame.len() {
        dribble(&mut s, &frame[..cut], cut);
        dribble(&mut s, &frame[cut..], frame.len());
        expect_v(&mut s, 20);
    }

    // One byte per segment, preamble included, on a fresh connection.
    let mut t = TcpStream::connect(addr).unwrap();
    t.set_nodelay(true).unwrap();
    t.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    dribble(&mut t, &wire::PREAMBLE, 1);
    dribble(&mut t, &frame, 1);
    expect_v(&mut t, 20);

    // The pieces really were served apart: passes that found no whole
    // frame are on record.
    let snap = Client::connect(addr).unwrap().metrics().unwrap();
    let passes = snap.histogram("net.frames_per_pass").unwrap();
    let empty_passes = passes
        .sparse()
        .iter()
        .find(|&&(bucket, _)| bucket as usize == bullfrog_obs::bucket_of(0))
        .map_or(0, |&(_, n)| n);
    assert!(empty_passes > 0, "{:?}", passes.sparse());
}

#[test]
fn a_truncated_third_frame_waits_for_its_tail() {
    let (_server, addr) = serve(quick_config());
    let mut s = raw_conn_with_table(addr);
    let mut burst = select_v(1);
    burst.extend(select_v(2));
    let third = select_v(3);
    let cut = third.len() / 2;
    burst.extend(&third[..cut]);

    // Two whole frames and half of a third in one segment: the two are
    // answered, the half waits.
    s.write_all(&burst).unwrap();
    expect_v(&mut s, 10);
    expect_v(&mut s, 20);
    s.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut probe = [0u8; 1];
    assert!(
        std::io::Read::read(&mut s, &mut probe).is_err(),
        "no third response before the third request is whole"
    );
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&third[cut..]).unwrap();
    expect_v(&mut s, 30);
}

#[test]
fn a_retired_opcode_gets_an_error_and_the_connection_stays_usable() {
    let (_server, addr) = serve(quick_config());
    let mut s = raw_conn_with_table(addr);
    // 0x08 was the cluster-control opcode; its sub-operation byte
    // follows as it used to.
    wire::write_frame(&mut s, &bytes::Bytes::from_static(&[0x08, 0x01])).unwrap();
    match wire::read_response(&mut s)
        .unwrap()
        .expect("connection open")
    {
        Response::Err { message, .. } => {
            assert!(message.contains("unknown request opcode 0x08"), "{message}")
        }
        other => panic!("{other:?}"),
    }
    s.write_all(&select_v(3)).unwrap();
    expect_v(&mut s, 30);
}

#[test]
fn a_client_that_never_reads_is_closed_and_its_worker_released() {
    let (server, addr) = serve(quick_config());
    let mut admin = Client::connect(addr).unwrap();
    admin
        .execute("CREATE TABLE big (id INT, pad CHAR(1024), PRIMARY KEY (id))")
        .unwrap();
    let pad = "x".repeat(1024);
    for chunk in 0..20 {
        let values: Vec<String> = (0..100)
            .map(|i| format!("({}, '{pad}')", chunk * 100 + i))
            .collect();
        admin
            .execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
            .unwrap();
    }

    // 32 pipelined scans of ~2 MiB each and not one read: far more than
    // the socket buffers of both ends hold, so the worker's write stalls.
    let mut deaf = TcpStream::connect(addr).unwrap();
    wire::write_preamble(&mut deaf).unwrap();
    let mut burst = Vec::new();
    for _ in 0..32 {
        Request::Query("SELECT id, pad FROM big".into()).encode_into(&mut burst);
    }
    deaf.write_all(&burst).unwrap();
    let sent = Instant::now();
    let wait_for_sessions = |n: usize, what: &str| {
        while server.active_sessions() != n {
            assert!(sent.elapsed() < Duration::from_secs(30), "{what}");
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    wait_for_sessions(2, "the burst's connection was never admitted");

    // The stall is bounded (5 s without progress): the connection is
    // closed, and its session slot and worker come back.
    wait_for_sessions(1, "a peer that stopped reading still holds its session");
    assert!(
        sent.elapsed() >= Duration::from_secs(4),
        "closed after {:?}: the write never stalled, the test sent too little",
        sent.elapsed()
    );
    // Every worker but the one answering this STATUS is idle again. The
    // closing worker drops the session slot before it is back in the
    // pool, so poll until it arrives.
    let status = loop {
        let status = admin.status().unwrap();
        let of = |key: &str| status.iter().find(|(k, _)| k == key).unwrap().1;
        if of("server.pool_idle") == of("server.pool_workers") - 1
            || sent.elapsed() > Duration::from_secs(30)
        {
            break status;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let of = |key: &str| status.iter().find(|(k, _)| k == key).unwrap().1;
    assert_eq!(of("server.pool_idle"), of("server.pool_workers") - 1);
    assert_eq!(of("server.parked_connections"), 1);
    drop(deaf);
}

/// A herd of idle connections costs the readiness poller nothing that
/// active clients can see. 384 parked sessions (768 fds in this one
/// process, under a 1,024 soft limit) sit idle while 16 workers send
/// prepared, pipelined point reads. The p99 stays under 50 ms, every
/// parked session still answers afterwards, and no connection was
/// refused or failed to accept.
#[test]
fn parked_connections_leave_pipelined_prepared_reads_fast() {
    const PARKED: usize = 384;
    const WORKERS: usize = 16;
    const KEYS: i64 = 1024;
    let (_server, addr) = serve(ServerConfig {
        max_connections: PARKED + 64,
        // The parked herd idles for the whole test.
        idle_timeout: Duration::from_secs(300),
        ..quick_config()
    });
    let mut admin = Client::connect(addr).unwrap();
    admin
        .execute("CREATE TABLE kv (id INT, v INT, PRIMARY KEY (id))")
        .unwrap();
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(64) {
        let values: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i * 3)).collect();
        admin
            .execute(&format!("INSERT INTO kv VALUES {}", values.join(", ")))
            .unwrap();
    }
    let mut parked: Vec<Client> = (0..PARKED)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("parking {i}: {e}")))
        .collect();

    let workers: Vec<_> = (0..WORKERS as i64)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                assert_eq!(c.prepare(1, "SELECT v FROM kv WHERE id = ?").unwrap(), 1);
                let mut per_stmt_us = Vec::new();
                for batch in 0..8 {
                    let ids: Vec<Row> = (0..16)
                        .map(|i| row![(w * 131 + batch * 16 + i) * 7 % KEYS])
                        .collect();
                    let t0 = Instant::now();
                    for (id, reply) in ids.iter().zip(c.pipeline_execute(1, &ids).unwrap()) {
                        match reply.unwrap() {
                            QueryReply::Rows { rows, .. } => {
                                assert_eq!(rows, vec![row![id[0].as_i64().unwrap() * 3]])
                            }
                            other => panic!("point read answered {other:?}"),
                        }
                    }
                    let us = t0.elapsed().as_micros() as u64 / ids.len() as u64;
                    per_stmt_us.extend(std::iter::repeat_n(us, ids.len()));
                }
                per_stmt_us
            })
        })
        .collect();
    let mut lat: Vec<u64> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    lat.sort_unstable();
    let p99 = lat[(lat.len() - 1) * 99 / 100];
    assert!(
        p99 < 50_000,
        "p99 {p99} us with {PARKED} parked connections"
    );

    for (i, c) in parked.iter_mut().enumerate() {
        let (_, rows) = c
            .query_rows("SELECT v FROM kv WHERE id = 7")
            .unwrap_or_else(|e| panic!("parked connection {i} was dropped: {e}"));
        assert_eq!(rows, vec![row![21]]);
    }
    let status = admin.status().unwrap();
    let of = |key: &str| status.iter().find(|(k, _)| k == key).unwrap().1;
    assert_eq!(of("server.rejected"), 0, "sessions were turned away");
    assert_eq!(of("server.accept_errors"), 0, "the accept loop saw errors");
    assert!(of("server.active_sessions") > PARKED as i64);
}
