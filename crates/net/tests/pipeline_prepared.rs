//! Pipelining, prepared statements, and chunked large results over real
//! loopback TCP.
//!
//! The contracts under test:
//!
//! - **Ordering**: a client may write N request frames before reading
//!   any response; the server answers strictly in request order, and a
//!   failed statement produces an `ERR` in its slot without
//!   desynchronizing the stream.
//! - **Equivalence**: `PREPARE`/`EXECUTE` replies are byte-identical to
//!   the `QUERY` reply for the same statement with parameters inlined
//!   as literals.
//! - **Chunking**: a result set larger than the 16 MiB frame cap ships
//!   as a `ROWS_CHUNK` sequence and reassembles client-side; a single
//!   row that cannot fit any frame fails its statement, not the
//!   session.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{Row, Value};
use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::{Database, DbConfig, EngineMode};
use bullfrog_net::{
    wire, Client, ClientError, QueryReply, Request, Response, Server, ServerConfig,
};

/// Boots a server on an ephemeral loopback port over a fresh in-memory
/// database in `mode`, also handing back the controller for server-side
/// setup.
fn serve(mode: EngineMode) -> (Server, std::net::SocketAddr, Arc<Bullfrog>) {
    let db = Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    });
    let bf = Arc::new(Bullfrog::new(Arc::new(db)));
    let server = Server::bind(
        ("127.0.0.1", 0),
        Arc::clone(&bf),
        ServerConfig {
            max_connections: 16,
            idle_timeout: Duration::from_secs(10),
            statement_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    (server, addr, bf)
}

/// Writes all requests as raw frames before reading anything, then
/// reads exactly one (reassembled) response per request.
fn raw_pipeline(stream: &mut TcpStream, requests: &[Request]) -> Vec<Response> {
    for req in requests {
        wire::write_frame(stream, &req.encode()).unwrap();
    }
    requests
        .iter()
        .map(|_| {
            wire::read_response(stream)
                .expect("decode response")
                .expect("connection open")
        })
        .collect()
}

#[test]
fn pipelined_frames_answer_in_order() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut admin = Client::connect(addr).unwrap();
        admin
            .execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
            .unwrap();

        // Raw socket so nothing reads a response until every frame is out.
        // Alternate INSERT(i) / SELECT WHERE id = i: each SELECT can only
        // return its row if the INSERT one slot earlier already ran, and
        // the returned value proves which response slot this is.
        let mut s = TcpStream::connect(addr).unwrap();
        wire::write_preamble(&mut s).unwrap();
        let mut requests = Vec::new();
        for i in 0..32i64 {
            requests.push(Request::Query(format!("INSERT INTO t VALUES ({i})")));
            requests.push(Request::Query(format!("SELECT id FROM t WHERE id = {i}")));
        }
        let responses = raw_pipeline(&mut s, &requests);
        assert_eq!(responses.len(), 64);
        for i in 0..32usize {
            match &responses[2 * i] {
                Response::Ok { affected: 1 } => {}
                other => panic!("slot {} expected OK(1), got {other:?}", 2 * i),
            }
            match &responses[2 * i + 1] {
                Response::Rows { rows, .. } => {
                    assert_eq!(rows.len(), 1, "slot {}", 2 * i + 1);
                    assert_eq!(rows[0][0], Value::Int(i as i64));
                }
                other => panic!("slot {} expected rows, got {other:?}", 2 * i + 1),
            }
        }
    }
}

#[test]
fn pipeline_errors_occupy_their_slot_without_desync() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
            .unwrap();

        let batch: Vec<String> = vec![
            "INSERT INTO t VALUES (1)".into(),
            "SELEC id FROM t".into(), // parse error
            "INSERT INTO t VALUES (2)".into(),
            "SELECT id FROM missing_table".into(), // semantic error
            "INSERT INTO t VALUES (1)".into(),     // duplicate key
            "SELECT id FROM t WHERE id = 2".into(), // must still answer
        ];
        let replies = c.pipeline(&batch).unwrap();
        assert_eq!(replies.len(), 6);
        assert!(matches!(replies[0], Ok(QueryReply::Ok { affected: 1 })));
        assert!(matches!(replies[1], Err(ClientError::Server { .. })));
        assert!(matches!(replies[2], Ok(QueryReply::Ok { affected: 1 })));
        assert!(matches!(replies[3], Err(ClientError::Server { .. })));
        assert!(matches!(replies[4], Err(ClientError::Server { .. })));
        match &replies[5] {
            Ok(QueryReply::Rows { rows, .. }) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0][0], Value::Int(2));
            }
            other => panic!("expected rows in the final slot, got {other:?}"),
        }

        // The connection survives the batch.
        let (_, rows) = c.query_rows("SELECT id FROM t").unwrap();
        assert_eq!(rows.len(), 2);
    }
}

#[test]
fn prepared_execute_replies_are_byte_identical_to_query() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut admin = Client::connect(addr).unwrap();
        admin
            .execute("CREATE TABLE t (id INT, name CHAR(10), PRIMARY KEY (id))")
            .unwrap();
        admin
            .execute("INSERT INTO t VALUES (1, 'ada'), (2, 'grace'), (3, 'alan')")
            .unwrap();

        // Raw sockets: compare the exact response payload bytes.
        let mut q = TcpStream::connect(addr).unwrap();
        wire::write_preamble(&mut q).unwrap();
        let mut p = TcpStream::connect(addr).unwrap();
        wire::write_preamble(&mut p).unwrap();

        let query_reply = {
            let req = Request::Query("SELECT id, name FROM t WHERE id = 2".into());
            wire::write_frame(&mut q, &req.encode()).unwrap();
            wire::read_frame(&mut q).unwrap().expect("open")
        };

        let prepare = Request::Prepare {
            id: 9,
            sql: "SELECT id, name FROM t WHERE id = ?".into(),
        };
        wire::write_frame(&mut p, &prepare.encode()).unwrap();
        let prep_ack = Response::decode(wire::read_frame(&mut p).unwrap().expect("open")).unwrap();
        assert_eq!(prep_ack, Response::Ok { affected: 1 }, "one parameter");
        let exec_reply = {
            let req = Request::Execute {
                id: 9,
                params: Row(vec![Value::Int(2)]),
            };
            wire::write_frame(&mut p, &req.encode()).unwrap();
            wire::read_frame(&mut p).unwrap().expect("open")
        };
        assert_eq!(
            query_reply, exec_reply,
            "EXECUTE must answer byte-identically to the literal QUERY"
        );

        // Same for a write: both acknowledge OK(1) with identical bytes.
        let insert_reply = {
            let req = Request::Query("INSERT INTO t VALUES (10, 'kay')".into());
            wire::write_frame(&mut q, &req.encode()).unwrap();
            wire::read_frame(&mut q).unwrap().expect("open")
        };
        wire::write_frame(
            &mut p,
            &Request::Prepare {
                id: 10,
                sql: "INSERT INTO t VALUES (?, ?)".into(),
            }
            .encode(),
        )
        .unwrap();
        let _ = wire::read_frame(&mut p).unwrap().expect("open");
        let exec_insert_reply = {
            let req = Request::Execute {
                id: 10,
                params: Row(vec![Value::Int(11), Value::from("joan")]),
            };
            wire::write_frame(&mut p, &req.encode()).unwrap();
            wire::read_frame(&mut p).unwrap().expect("open")
        };
        assert_eq!(insert_reply, exec_insert_reply);
    }
}

#[test]
fn prepared_statement_lifecycle() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
            .unwrap();

        // Unknown id fails but keeps the session.
        match c.execute_prepared(42, Row(vec![])) {
            Err(ClientError::Server { message, .. }) => {
                assert!(message.contains("unknown prepared statement"), "{message}");
            }
            other => panic!("expected unknown-statement error, got {other:?}"),
        }

        assert_eq!(c.prepare(1, "INSERT INTO t VALUES (?)").unwrap(), 1);
        for i in 0..5 {
            let reply = c.execute_prepared(1, Row(vec![Value::Int(i)])).unwrap();
            assert_eq!(reply, QueryReply::Ok { affected: 1 });
        }

        // Wrong arity is a per-statement error.
        match c.execute_prepared(1, Row(vec![Value::Int(9), Value::Int(9)])) {
            Err(ClientError::Server { message, .. }) => {
                assert!(message.contains("expects 1 parameter"), "{message}");
            }
            other => panic!("expected an arity error, got {other:?}"),
        }

        // Re-preparing an id replaces its statement.
        assert_eq!(c.prepare(1, "SELECT id FROM t WHERE id = ?").unwrap(), 1);
        match c.execute_prepared(1, Row(vec![Value::Int(3)])).unwrap() {
            QueryReply::Rows { rows, .. } => assert_eq!(rows, vec![Row(vec![Value::Int(3)])]),
            other => panic!("expected rows, got {other:?}"),
        }

        // CLOSE frees the id; executing it afterwards fails.
        c.close_stmt(1).unwrap();
        assert!(matches!(
            c.execute_prepared(1, Row(vec![Value::Int(3)])),
            Err(ClientError::Server { .. })
        ));

        // Non-DML is refused at PREPARE time.
        match c.prepare(2, "BEGIN") {
            Err(ClientError::Server { message, .. }) => {
                assert!(message.contains("PREPARE supports only"), "{message}");
            }
            other => panic!("expected a kind error, got {other:?}"),
        }
    }
}

#[test]
fn scan_larger_than_frame_cap_chunks_and_reassembles() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE big (id INT, payload CHAR(1048576), PRIMARY KEY (id))")
            .unwrap();

        // 24 rows of 1 MiB each: the full scan is ~24 MiB, well past the
        // 16 MiB frame cap. Prepared INSERTs carry the payload as a bound
        // parameter, so no statement text ever approaches the SQL cap.
        c.prepare(1, "INSERT INTO big VALUES (?, ?)").unwrap();
        let payload = "x".repeat(1 << 20);
        for i in 0..24i64 {
            let reply = c
                .execute_prepared(1, Row(vec![Value::Int(i), Value::from(payload.clone())]))
                .unwrap();
            assert_eq!(reply, QueryReply::Ok { affected: 1 });
        }

        // Client path: read_response reassembles the chunk sequence.
        let (names, rows) = c.query_rows("SELECT id, payload FROM big").unwrap();
        assert_eq!(names, vec!["id", "payload"]);
        assert_eq!(rows.len(), 24);
        for row in &rows {
            match &row[1] {
                Value::Text(s) => assert_eq!(s.len(), 1 << 20),
                other => panic!("expected text payload, got {other:?}"),
            }
        }

        // Wire path: the same scan on a raw socket must arrive as a
        // ROWS_CHUNK sequence (more=true ... more=false), proving the
        // server actually split it rather than attempting one giant frame.
        let mut s = TcpStream::connect(addr).unwrap();
        wire::write_preamble(&mut s).unwrap();
        wire::write_frame(
            &mut s,
            &Request::Query("SELECT id, payload FROM big".into()).encode(),
        )
        .unwrap();
        let mut chunks = 0usize;
        let mut total_rows = 0usize;
        loop {
            let payload = wire::read_frame(&mut s).unwrap().expect("open");
            match Response::decode(payload).unwrap() {
                Response::RowsChunk { more, rows, .. } => {
                    chunks += 1;
                    total_rows += rows.len();
                    if !more {
                        break;
                    }
                }
                other => panic!("expected a chunked result, got {other:?}"),
            }
        }
        assert!(chunks >= 2, "a 24 MiB scan must span multiple chunks");
        assert_eq!(total_rows, 24);

        // The connection that received chunks is still in frame sync.
        wire::write_frame(
            &mut s,
            &Request::Query("SELECT id FROM big WHERE id = 0".into()).encode(),
        )
        .unwrap();
        match wire::read_response(&mut s).unwrap().expect("open") {
            Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

#[test]
fn burst_larger_than_server_buffer_is_not_a_violation() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut admin = Client::connect(addr).unwrap();
        admin
            .execute("CREATE TABLE t (id INT, payload CHAR(20000000), PRIMARY KEY (id))")
            .unwrap();

        // One near-maximum frame (a prepared INSERT whose bound parameter
        // never passes through SQL text) followed by a tail of pipelined
        // EXECUTEs: the whole burst (~17.5 MiB) exceeds the server's
        // receive high-water mark, so it can only be absorbed by executing
        // buffered frames between drain rounds — a server that treats the
        // mark as a protocol violation disconnects this legal client
        // mid-batch.
        let mut burst: Vec<u8> = Vec::new();
        wire::write_preamble(&mut burst).unwrap();
        let prepare = Request::Prepare {
            id: 1,
            sql: "INSERT INTO t VALUES (?, ?)".into(),
        };
        wire::write_frame(&mut burst, &prepare.encode()).unwrap();
        let big = Request::Execute {
            id: 1,
            params: Row(vec![Value::Int(0), Value::from("x".repeat(15_900_000))]),
        };
        wire::write_frame(&mut burst, &big.encode()).unwrap();
        let tail = "y".repeat(64 << 10);
        for i in 1..=24i64 {
            let req = Request::Execute {
                id: 1,
                params: Row(vec![Value::Int(i), Value::from(tail.clone())]),
            };
            wire::write_frame(&mut burst, &req.encode()).unwrap();
        }
        assert!(
            burst.len() > wire::MAX_FRAME_BYTES + 4 + (64 << 10),
            "burst must exceed the server's buffer high-water mark"
        );

        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&burst).unwrap();
        match wire::read_response(&mut s)
            .unwrap()
            .expect("connection open")
        {
            Response::Ok { affected: 2 } => {} // PREPARE acks the param count
            other => panic!("expected the PREPARE ack, got {other:?}"),
        }
        for slot in 0..25usize {
            match wire::read_response(&mut s)
                .unwrap()
                .expect("connection open")
            {
                Response::Ok { affected: 1 } => {}
                other => panic!("slot {slot} expected OK(1), got {other:?}"),
            }
        }

        // The connection survives the burst.
        wire::write_frame(
            &mut s,
            &Request::Query("SELECT id FROM t WHERE id = 24".into()).encode(),
        )
        .unwrap();
        match wire::read_response(&mut s).unwrap().expect("open") {
            Response::Rows { rows, .. } => assert_eq!(rows, vec![Row(vec![Value::Int(24)])]),
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

#[test]
fn eof_after_pipelined_requests_still_delivers_responses() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut admin = Client::connect(addr).unwrap();
        admin
            .execute("CREATE TABLE t (id INT, PRIMARY KEY (id))")
            .unwrap();

        // Pipeline a batch, then shut down the write side before reading
        // anything: EOF means "no more requests", so every response owed
        // must still arrive before the server closes.
        let mut s = TcpStream::connect(addr).unwrap();
        wire::write_preamble(&mut s).unwrap();
        for i in 0..8i64 {
            wire::write_frame(
                &mut s,
                &Request::Query(format!("INSERT INTO t VALUES ({i})")).encode(),
            )
            .unwrap();
            wire::write_frame(
                &mut s,
                &Request::Query(format!("SELECT id FROM t WHERE id = {i}")).encode(),
            )
            .unwrap();
        }
        s.shutdown(Shutdown::Write).unwrap();

        for i in 0..8usize {
            match wire::read_response(&mut s).unwrap().expect("open") {
                Response::Ok { affected: 1 } => {}
                other => panic!("slot {} expected OK(1), got {other:?}", 2 * i),
            }
            match wire::read_response(&mut s).unwrap().expect("open") {
                Response::Rows { rows, .. } => {
                    assert_eq!(rows, vec![Row(vec![Value::Int(i as i64)])]);
                }
                other => panic!("slot {} expected rows, got {other:?}", 2 * i + 1),
            }
        }
        // After the owed responses, the server closes cleanly.
        assert!(wire::read_frame(&mut s).unwrap().is_none());
    }
}

#[test]
fn large_bidirectional_pipeline_completes() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE t (id INT, payload CHAR(70000), PRIMARY KEY (id))")
            .unwrap();

        // ~9.6 MiB of requests and ~9.6 MiB of responses in one batch —
        // far past what kernel socket buffers hold in either direction, so
        // a client that wrote everything before reading anything would
        // wedge against the server's response writes. The client must
        // stream the batch (threaded writer) while draining replies.
        let payload = "z".repeat(64 << 10);
        let mut batch = Vec::new();
        for i in 0..150i64 {
            batch.push(format!("INSERT INTO t VALUES ({i}, '{payload}')"));
            batch.push(format!("SELECT payload FROM t WHERE id = {i}"));
        }
        let replies = c.pipeline(&batch).unwrap();
        assert_eq!(replies.len(), 300);
        for (slot, reply) in replies.iter().enumerate() {
            if slot % 2 == 0 {
                assert!(
                    matches!(reply, Ok(QueryReply::Ok { affected: 1 })),
                    "slot {slot}: {reply:?}"
                );
            } else {
                match reply {
                    Ok(QueryReply::Rows { rows, .. }) => {
                        assert_eq!(rows.len(), 1, "slot {slot}");
                        match &rows[0][0] {
                            Value::Text(s) => assert_eq!(s.len(), 64 << 10, "slot {slot}"),
                            other => panic!("slot {slot}: expected text, got {other:?}"),
                        }
                    }
                    other => panic!("slot {slot}: expected rows, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn err_legally_terminates_a_chunk_sequence_mid_stream() {
    // Nine 1 MiB rows force at least one chunk (4 MiB split target) to
    // flush with more=true before the 17 MiB row proves unencodable;
    // the ERR written after those chunks must come back as the
    // statement's response, and the *next* response in the stream must
    // still be readable (frame sync survives).
    let mut rows: Vec<Row> = (0..9)
        .map(|i| Row(vec![Value::Int(i), Value::from("x".repeat(1 << 20))]))
        .collect();
    rows.push(Row(vec![Value::Int(99), Value::from("y".repeat(17 << 20))]));
    let mut buf: Vec<u8> = Vec::new();
    wire::write_response(
        &mut buf,
        &Response::Rows {
            names: vec!["id".into(), "payload".into()],
            rows,
        },
    )
    .unwrap();
    wire::write_response(&mut buf, &Response::Ok { affected: 7 }).unwrap();

    // The sequence really did start before the failure was detected.
    let mut peek = &buf[..];
    let first = Response::decode(wire::read_frame(&mut peek).unwrap().unwrap()).unwrap();
    assert!(
        matches!(first, Response::RowsChunk { more: true, .. }),
        "expected a flushed continuation chunk first, got {first:?}"
    );

    let mut r = &buf[..];
    match wire::read_response(&mut r).unwrap().expect("response") {
        Response::Err { message, .. } => assert!(message.contains("frame cap"), "{message}"),
        other => panic!("expected the frame-cap ERR, got {other:?}"),
    }
    assert_eq!(
        wire::read_response(&mut r).unwrap().expect("response"),
        Response::Ok { affected: 7 },
        "the statement after the aborted chunk sequence must decode cleanly"
    );
}

#[test]
fn oversized_row_after_flushed_chunks_fails_statement_not_session() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE huge (id INT, payload CHAR(20000000), PRIMARY KEY (id))")
            .unwrap();
        c.prepare(1, "INSERT INTO huge VALUES (?, ?)").unwrap();
        let medium = "x".repeat(1 << 20);
        for i in 0..9i64 {
            c.execute_prepared(1, Row(vec![Value::Int(i), Value::from(medium.clone())]))
                .unwrap();
        }
        // The 17 MiB row cannot cross the wire in any frame (nor be
        // inserted over it), so plant it server-side via the controller.
        {
            let db = bf.db();
            let mut txn = db.begin();
            bf.insert(
                &mut txn,
                "huge",
                Row(vec![Value::Int(99), Value::from("y".repeat(17 << 20))]),
            )
            .unwrap();
            db.commit(&mut txn).unwrap();
        }

        // The scan flushes chunks of the nine medium rows before tripping
        // on the unsplittable one — the statement alone fails.
        match c.query("SELECT id, payload FROM huge") {
            Err(ClientError::Server { message, .. }) => {
                assert!(message.contains("frame cap"), "{message}");
            }
            other => panic!("expected a frame-cap error, got {other:?}"),
        }

        // The session survives in frame sync.
        let (_, rows) = c.query_rows("SELECT id FROM huge WHERE id = 1").unwrap();
        assert_eq!(rows.len(), 1);
    }
}

#[test]
fn unsplittable_row_fails_the_statement_not_the_session() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (_server, addr, bf) = serve(mode);
        assert_eq!(bf.db().config().mode, mode);
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE huge (id INT, payload CHAR(20000000), PRIMARY KEY (id))")
            .unwrap();
        c.execute("INSERT INTO huge VALUES (1, 'small')").unwrap();

        // A single 17 MiB row cannot cross the wire in any frame. It also
        // cannot be *inserted* over the wire (the request would bust the
        // same cap), so plant it server-side through the controller.
        {
            let db = bf.db();
            let mut txn = db.begin();
            bf.insert(
                &mut txn,
                "huge",
                Row(vec![Value::Int(2), Value::from("y".repeat(17 << 20))]),
            )
            .unwrap();
            db.commit(&mut txn).unwrap();
        }

        match c.query("SELECT payload FROM huge WHERE id = 2") {
            Err(ClientError::Server { message, .. }) => {
                assert!(message.contains("frame cap"), "{message}");
            }
            other => panic!("expected a frame-cap error, got {other:?}"),
        }

        // The session survives and the framing is intact.
        let (_, rows) = c.query_rows("SELECT id FROM huge WHERE id = 1").unwrap();
        assert_eq!(rows, vec![Row(vec![Value::Int(1)])]);
    }
}
