//! Cluster scale bench: how the two-phase flip, lazy drain, and
//! aggregate exchange behave as nodes are added.
//!
//! For each node count it stands up a loopback cluster, loads the
//! accounts fixture via routed inserts, and times:
//!
//! - `flip_1to1_ms` — the two-phase logical flip of the 1:1 migration
//!   (the paper's O(statements) switch, here plus two network rounds
//!   per node);
//! - `drain_1to1_ms` — until every node's lazy migration reports
//!   complete;
//! - `flip_nto1_ms` / `drain_nto1_ms` — the same for the GROUP BY
//!   migration;
//! - `exchange_ms` and `partials_moved` — the cross-node merge of
//!   partial aggregates.
//!
//! Emits machine-readable JSON to stdout and to `BENCH_cluster.json`
//! (path overridable via `BENCH_CLUSTER_JSON`); wall-clock bounded to a
//! few seconds so the verify script can run it routinely.

use std::time::{Duration, Instant};

use bullfrog_cluster::{ClusterClient, Coordinator, LocalCluster};
use bullfrog_common::Value;
use bullfrog_engine::EngineMode;

const ACCOUNTS: i64 = 512;
const OWNERS: i64 = 32;

struct Sample {
    nodes: usize,
    flip_1to1_ms: f64,
    drain_1to1_ms: f64,
    flip_nto1_ms: f64,
    drain_nto1_ms: f64,
    exchange_ms: f64,
    partials_moved: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run(nodes: usize, mode: EngineMode) -> Sample {
    let cluster = LocalCluster::start(nodes, mode).expect("start cluster");
    let mut coord = Coordinator::connect(&cluster.addrs()).expect("coordinator");
    coord
        .execute_all("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
        .expect("create");
    let mut router = ClusterClient::connect(&cluster.addrs()[0]).expect("router");
    for id in 0..ACCOUNTS {
        router
            .execute_key(
                &[Value::Int(id)],
                &format!(
                    "INSERT INTO accounts VALUES ({id}, 'o{}', 1000)",
                    id % OWNERS
                ),
            )
            .expect("load");
    }

    let t = Instant::now();
    let specs = coord
        .migrate(
            "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) \
             PRIMARY KEY (id)",
        )
        .expect("1:1 flip");
    let flip_1to1 = t.elapsed();
    let t = Instant::now();
    assert!(coord
        .wait_all_complete(Duration::from_secs(60))
        .expect("poll"));
    let drain_1to1 = t.elapsed();
    coord.run_exchange(&specs).expect("release hold");
    coord.finalize_all(true).expect("finalize 1:1");

    let t = Instant::now();
    let specs = coord
        .migrate(
            "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
             FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)",
        )
        .expect("n:1 flip");
    let flip_nto1 = t.elapsed();
    let t = Instant::now();
    assert!(coord
        .wait_all_complete(Duration::from_secs(60))
        .expect("poll"));
    let drain_nto1 = t.elapsed();
    let t = Instant::now();
    let moved = coord.run_exchange(&specs).expect("exchange");
    let exchange = t.elapsed();
    coord.finalize_all(false).expect("finalize n:1");

    Sample {
        nodes,
        flip_1to1_ms: ms(flip_1to1),
        drain_1to1_ms: ms(drain_1to1),
        flip_nto1_ms: ms(flip_nto1),
        drain_nto1_ms: ms(drain_nto1),
        exchange_ms: ms(exchange),
        partials_moved: moved,
    }
}

fn main() {
    let mode = EngineMode::from_env().expect("BULLFROG_ENGINE_MODE");
    let samples: Vec<Sample> = [1, 2, 3].iter().map(|&n| run(n, mode)).collect();
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"nodes\": {}, \"flip_1to1_ms\": {:.3}, \"drain_1to1_ms\": {:.3}, \
                 \"flip_nto1_ms\": {:.3}, \"drain_nto1_ms\": {:.3}, \"exchange_ms\": {:.3}, \
                 \"partials_moved\": {}}}",
                s.nodes,
                s.flip_1to1_ms,
                s.drain_1to1_ms,
                s.flip_nto1_ms,
                s.drain_nto1_ms,
                s.exchange_ms,
                s.partials_moved
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster_scale\",\n  \"engine_mode\": \"{}\",\n  \
         \"accounts\": {ACCOUNTS},\n  \"owners\": {OWNERS},\n  \"samples\": [\n{}\n  ]\n}}\n",
        mode.as_str(),
        rows.join(",\n")
    );
    print!("{json}");
    let path =
        std::env::var("BENCH_CLUSTER_JSON").unwrap_or_else(|_| "BENCH_cluster.json".to_string());
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create BENCH_cluster.json parent dir");
        }
    }
    std::fs::write(&path, &json).expect("write BENCH_cluster.json");
    eprintln!("cluster_scale: wrote {path}");
}
