//! Network protocol microbench: what PREPARE/EXECUTE and pipelining buy
//! over one-QUERY-per-round-trip, on a loopback server.
//!
//! Three client protocols drive the same point-read workload over one
//! connection each:
//!
//! - `query` — SQL text per request, one synchronous round trip per
//!   statement (the wire's baseline protocol);
//! - `prepared` — PREPARE once, then EXECUTE with a bound parameter per
//!   statement, still one round trip each (saves parse/plan text work);
//! - `prepared_pipelined` — PREPARE once, EXECUTE frames written in
//!   batches before any response is read (saves the round trips too).
//!
//! Emits machine-readable JSON to stdout and to `BENCH_net.json` (path
//! overridable via `BENCH_NET_JSON`); wall-clock bounded to a few
//! seconds so the verify script can run it routinely. The headline
//! figure is `speedup_pipelined`: prepared + pipelined throughput over
//! plain QUERY throughput (expected comfortably >= 2x on loopback).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::{Row, Value};
use bullfrog_core::Bullfrog;
use bullfrog_engine::{Database, DbConfig, EngineMode};
use bullfrog_net::{Client, Server, ServerConfig};

const KEYS: i64 = 1024;
const WARMUP_OPS: usize = 256;
const MEASURE_OPS: usize = 4096;
const PIPELINE_BATCH: usize = 64;

struct Sample {
    protocol: &'static str,
    ops: usize,
    elapsed_ms: f64,
    stmts_per_sec: f64,
}

fn sample(protocol: &'static str, ops: usize, elapsed: Duration) -> Sample {
    Sample {
        protocol,
        ops,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        stmts_per_sec: ops as f64 / elapsed.as_secs_f64(),
    }
}

/// Deterministic key sequence — identical across protocols so every run
/// reads the same rows in the same order.
fn key(i: usize) -> i64 {
    ((i as i64).wrapping_mul(2654435761) & i64::MAX) % KEYS
}

fn run_query(addr: std::net::SocketAddr) -> Sample {
    let mut c = Client::connect(addr).expect("connect");
    for i in 0..WARMUP_OPS {
        c.query_rows(&format!("SELECT v FROM kv WHERE id = {}", key(i)))
            .expect("warmup read");
    }
    let t = Instant::now();
    for i in 0..MEASURE_OPS {
        let (_, rows) = c
            .query_rows(&format!("SELECT v FROM kv WHERE id = {}", key(i)))
            .expect("point read");
        assert_eq!(rows.len(), 1);
    }
    sample("query", MEASURE_OPS, t.elapsed())
}

fn run_prepared(addr: std::net::SocketAddr) -> Sample {
    let mut c = Client::connect(addr).expect("connect");
    c.prepare(1, "SELECT v FROM kv WHERE id = ?")
        .expect("prepare");
    for i in 0..WARMUP_OPS {
        c.execute_prepared(1, Row(vec![Value::Int(key(i))]))
            .expect("warmup read");
    }
    let t = Instant::now();
    for i in 0..MEASURE_OPS {
        c.execute_prepared(1, Row(vec![Value::Int(key(i))]))
            .expect("point read");
    }
    sample("prepared", MEASURE_OPS, t.elapsed())
}

fn run_prepared_pipelined(addr: std::net::SocketAddr) -> Sample {
    let mut c = Client::connect(addr).expect("connect");
    c.prepare(1, "SELECT v FROM kv WHERE id = ?")
        .expect("prepare");
    let batches = |ops: usize, base: usize| {
        (0..ops.div_ceil(PIPELINE_BATCH)).map(move |b| {
            let start = b * PIPELINE_BATCH;
            let end = (start + PIPELINE_BATCH).min(ops);
            (start..end)
                .map(|i| Row(vec![Value::Int(key(base + i))]))
                .collect::<Vec<Row>>()
        })
    };
    for batch in batches(WARMUP_OPS, 0) {
        for reply in c.pipeline_execute(1, &batch).expect("warmup batch") {
            reply.expect("warmup read");
        }
    }
    let t = Instant::now();
    for batch in batches(MEASURE_OPS, WARMUP_OPS) {
        for reply in c.pipeline_execute(1, &batch).expect("pipelined batch") {
            reply.expect("point read");
        }
    }
    sample("prepared_pipelined", MEASURE_OPS, t.elapsed())
}

fn main() {
    let mode = EngineMode::from_env().expect("BULLFROG_ENGINE_MODE");
    let db = Arc::new(Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    }));
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(Bullfrog::new(db)),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .execute("CREATE TABLE kv (id INT, v INT, PRIMARY KEY (id))")
        .expect("create kv");
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(64) {
        let values: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i * 3)).collect();
        admin
            .execute(&format!("INSERT INTO kv VALUES {}", values.join(", ")))
            .expect("load kv");
    }

    let samples = [
        run_query(addr),
        run_prepared(addr),
        run_prepared_pipelined(addr),
    ];
    let base = samples[0].stmts_per_sec;
    let speedup_prepared = samples[1].stmts_per_sec / base;
    let speedup_pipelined = samples[2].stmts_per_sec / base;

    // Recording-overhead probe: the same prepared+pipelined workload
    // back-to-back with histogram/tracer recording globally off, then
    // on. Reported, not asserted — loopback throughput is noisy at the
    // sub-percent level the recording path actually costs.
    bullfrog_obs::set_enabled(false);
    let obs_off = run_prepared_pipelined(addr);
    bullfrog_obs::set_enabled(true);
    let obs_on = run_prepared_pipelined(addr);
    let obs_overhead_pct =
        (obs_off.stmts_per_sec - obs_on.stmts_per_sec) / obs_off.stmts_per_sec * 100.0;

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"protocol\": \"{}\", \"ops\": {}, \"elapsed_ms\": {:.3}, \
                 \"stmts_per_sec\": {:.1}}}",
                s.protocol, s.ops, s.elapsed_ms, s.stmts_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"net\",\n  \"engine_mode\": \"{}\",\n  \"keys\": {KEYS},\n  \
         \"pipeline_batch\": {PIPELINE_BATCH},\n  \"speedup_prepared\": {speedup_prepared:.3},\n  \
         \"speedup_pipelined\": {speedup_pipelined:.3},\n  \
         \"obs_overhead_pct\": {obs_overhead_pct:.2},\n  \"samples\": [\n{}\n  ]\n}}\n",
        mode.as_str(),
        rows.join(",\n")
    );
    print!("{json}");
    let path = std::env::var("BENCH_NET_JSON").unwrap_or_else(|_| "BENCH_net.json".to_string());
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create BENCH_net.json parent dir");
        }
    }
    std::fs::write(&path, &json).expect("write BENCH_net.json");
    eprintln!("micro_net: wrote {path}");

    server.shutdown();
    assert!(
        speedup_pipelined >= 1.0,
        "pipelined prepared execution slower than plain QUERY: {speedup_pipelined:.3}x"
    );
}
