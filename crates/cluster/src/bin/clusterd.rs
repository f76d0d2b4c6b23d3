//! clusterd: the multi-process face of bullfrog-cluster.
//!
//! One binary, role per subcommand:
//!
//! - `clusterd node --listen <addr> [--wal-dir <dir>]` — one member
//!   node: a full BFNET1 server over its own partition with cluster
//!   enforcement on (shard ownership, flip windows), engine mode from
//!   the deployment setting `BULLFROG_ENGINE_MODE` (`2pl` when unset,
//!   or `si`; an unknown mode is refused). Serves until a remote
//!   `SHUTDOWN`.
//! - `clusterd init --nodes <a,b,c>` — install a fresh shard map
//!   listing the nodes in order on every node.
//! - `clusterd exec --nodes <a,b,c> --sql <stmt>` — broadcast one
//!   statement to every node over coordinator connections (schema DDL
//!   like `CREATE TABLE`, which must exist identically everywhere).
//! - `clusterd migrate --nodes <a,b,c> --sql <ddl> [--finalize|--finalize-drop]`
//!   — drive a two-phase cluster flip of migration DDL: prepare
//!   everywhere, commit everywhere, wait for every node's lazy
//!   migration to drain, run the cross-node aggregate exchange, and
//!   optionally finalize.
//! - `clusterd status --nodes <a,b,c>` — print the cluster-aggregated
//!   `STATUS` pairs.
//! - `clusterd shutdown --nodes <a,b,c>` — remote graceful shutdown of
//!   every node.
//!
//! `tests/clusterd.rs` drives a three-process loopback cluster through
//! this binary; it is also the smallest real deployment shape.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use bullfrog_cluster::Coordinator;
use bullfrog_core::Bullfrog;
use bullfrog_engine::{CheckpointPolicy, Database, DbConfig, EngineMode};
use bullfrog_net::{Client, ClusterMember, Server, ServerConfig};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_exit();
    }
    let cmd = args.remove(0);
    let mut opts = std::collections::HashMap::new();
    let mut flags = std::collections::HashSet::new();
    let mut it = args.into_iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--finalize" | "--finalize-drop" => {
                flags.insert(flag);
            }
            _ => {
                let value = it
                    .next()
                    .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
                opts.insert(flag, value);
            }
        }
    }
    let get = |name: &str| -> String {
        opts.get(name)
            .cloned()
            .unwrap_or_else(|| fail(&format!("{cmd} requires {name}")))
    };
    let nodes = |list: &str| -> Vec<String> {
        let nodes: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if nodes.is_empty() {
            fail("--nodes must list at least one address");
        }
        nodes
    };
    match cmd.as_str() {
        "node" => run_node(&get("--listen"), opts.get("--wal-dir").map(String::as_str)),
        "init" => {
            let nodes = nodes(&get("--nodes"));
            let coord = Coordinator::connect(&nodes)
                .unwrap_or_else(|e| fail(&format!("install shard map: {e}")));
            println!(
                "clusterd: shard map v{} installed on {} nodes",
                coord.map().version,
                coord.len()
            );
        }
        "exec" => {
            let nodes = nodes(&get("--nodes"));
            let mut coord = Coordinator::connect(&nodes)
                .unwrap_or_else(|e| fail(&format!("connect cluster: {e}")));
            let affected = coord
                .execute_all(&get("--sql"))
                .unwrap_or_else(|e| fail(&format!("exec: {e}")));
            println!(
                "clusterd: executed on {} nodes ({affected} rows affected)",
                coord.len()
            );
        }
        "migrate" => run_migrate(
            &nodes(&get("--nodes")),
            &get("--sql"),
            flags.contains("--finalize") || flags.contains("--finalize-drop"),
            flags.contains("--finalize-drop"),
        ),
        "status" => {
            let node_addrs = nodes(&get("--nodes"));
            let mut coord = Coordinator::connect(&node_addrs)
                .unwrap_or_else(|e| fail(&format!("connect cluster: {e}")));
            let status = coord
                .aggregate_status()
                .unwrap_or_else(|e| fail(&format!("STATUS: {e}")));
            // Status output is routinely piped into `grep -q`, which
            // closes the pipe at first match — write through a handle
            // that treats EPIPE as "reader satisfied", not a panic.
            let mut out = std::io::stdout().lock();
            for (k, v) in status {
                if writeln!(out, "{k} = {v}").is_err() {
                    return;
                }
            }
            print_latency_summary(&node_addrs, &mut out);
        }
        "shutdown" => {
            for node in nodes(&get("--nodes")) {
                let mut client = Client::connect(node.as_str())
                    .unwrap_or_else(|e| fail(&format!("connect {node}: {e}")));
                client
                    .shutdown_server()
                    .unwrap_or_else(|e| fail(&format!("SHUTDOWN {node}: {e}")));
                println!("clusterd: {node} shutdown acknowledged");
            }
        }
        _ => usage_exit(),
    }
}

fn run_node(listen: &str, wal_dir: Option<&str>) {
    let config = DbConfig {
        checkpoint_policy: Some(CheckpointPolicy {
            max_resident_records: 4_096,
            max_flushed_bytes: 0,
            poll_interval: Duration::from_millis(50),
        }),
        mode: EngineMode::from_env()
            .unwrap_or_else(|e| fail(&format!("BULLFROG_ENGINE_MODE: {e}"))),
        ..DbConfig::default()
    };
    let db = Arc::new(match wal_dir {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| fail(&format!("create {}: {e}", dir.display())));
            Database::with_wal_file(config, dir.join("clusterd.wal"))
                .unwrap_or_else(|e| fail(&format!("open WAL under {}: {e}", dir.display())))
        }
        None => Database::with_config(config),
    });
    let mode = db.config().mode;
    let bf = Arc::new(Bullfrog::new(db));
    let member = Arc::new(ClusterMember::new());
    let mut server = Server::bind(
        listen,
        bf,
        ServerConfig {
            cluster: Some(member),
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("bind {listen}: {e}")));
    println!(
        "clusterd: node serving on {} ({} engine, awaiting shard map)",
        server.local_addr(),
        mode.as_str()
    );
    server.wait_shutdown();
    println!("clusterd: node stopped");
}

fn run_migrate(nodes: &[String], sql: &str, finalize: bool, drop_old: bool) {
    let mut coord =
        Coordinator::connect(nodes).unwrap_or_else(|e| fail(&format!("connect cluster: {e}")));
    let specs = coord
        .migrate(sql)
        .unwrap_or_else(|e| fail(&format!("cluster flip: {e}")));
    println!(
        "clusterd: flip committed on {} nodes ({} exchange table(s))",
        coord.len(),
        specs.len()
    );
    let drained = coord
        .wait_all_complete(Duration::from_secs(60))
        .unwrap_or_else(|e| fail(&format!("poll migration: {e}")));
    if !drained {
        fail("timed out waiting for every node's lazy migration to drain");
    }
    let moved = coord
        .run_exchange(&specs)
        .unwrap_or_else(|e| fail(&format!("exchange: {e}")));
    println!("clusterd: lazy migration drained, {moved} partial aggregate(s) exchanged");
    if finalize {
        coord
            .finalize_all(drop_old)
            .unwrap_or_else(|e| fail(&format!("finalize: {e}")));
        println!(
            "clusterd: finalized{}",
            if drop_old { " (old dropped)" } else { "" }
        );
    }
}

/// One summary line of cluster-merged latency truth: commit p50/p99
/// plus the p99 of every flip/exchange phase that has fired, from each
/// node's `METRICS` snapshot merged across the cluster. Best-effort — a
/// node without the opcode is skipped, and a closed stdout (the reader
/// was a `grep -q` that already matched) is not an error.
fn print_latency_summary(nodes: &[String], out: &mut impl Write) {
    let mut merged: Option<bullfrog_obs::MetricsSnapshot> = None;
    for addr in nodes {
        let Ok(mut client) = Client::connect(addr) else {
            continue;
        };
        let Ok(snap) = client.metrics() else { continue };
        match &mut merged {
            Some(m) => m.merge(&snap),
            None => merged = Some(snap),
        }
    }
    let Some(snap) = merged else { return };
    let mut line = String::from("latency:");
    if let Some(h) = snap.histogram("engine.commit_us") {
        line.push_str(&format!(
            " commit_p50_us={} commit_p99_us={}",
            h.quantile(0.50),
            h.quantile(0.99)
        ));
    }
    for (label, name) in [
        ("prepare", "cluster.prepare_us"),
        ("flip", "cluster.commit_us"),
        ("exchange", "cluster.exchange_us"),
        ("granule", "migrate.granule_us"),
        ("finalize", "migrate.finalize_us"),
    ] {
        if let Some(h) = snap.histogram(name) {
            if h.count() > 0 {
                line.push_str(&format!(" {label}_p99_us={}", h.quantile(0.99)));
            }
        }
    }
    let _ = writeln!(out, "{line}");
}

fn fail(msg: &str) -> ! {
    eprintln!("clusterd: {msg}");
    std::process::exit(1);
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: clusterd node --listen <addr> [--wal-dir <dir>]\n\
         \x20      clusterd init --nodes <a,b,c>\n\
         \x20      clusterd exec --nodes <a,b,c> --sql <stmt>\n\
         \x20      clusterd migrate --nodes <a,b,c> --sql <ddl> [--finalize|--finalize-drop]\n\
         \x20      clusterd status --nodes <a,b,c>\n\
         \x20      clusterd shutdown --nodes <a,b,c>"
    );
    std::process::exit(2);
}
