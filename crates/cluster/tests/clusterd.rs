//! `clusterd` as deployed: three node processes on loopback, driven
//! through the `clusterd` admin subcommands.

#[path = "../../../tests/support/daemon.rs"]
mod daemon;

use bullfrog_engine::EngineMode;
use daemon::{run, Daemon};

const CLUSTERD: &str = env!("CARGO_BIN_EXE_clusterd");

/// Three nodes take a shard map, a table, and a two-phase flip with
/// `--finalize-drop`. The merged `status` then counts three nodes and
/// carries the cluster-merged latency line, and every node exits 0 on
/// `shutdown`.
#[test]
fn three_node_processes_flip_and_report_status() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let mut nodes: Vec<Daemon> = (1..=3)
            .map(|i| {
                Daemon::spawn(
                    CLUSTERD,
                    &format!("node {i}"),
                    mode,
                    &["node", "--listen", "127.0.0.1:0"],
                )
            })
            .collect();
        let list = nodes.iter().map(|n| n.addr()).collect::<Vec<_>>().join(",");
        for node in &nodes {
            node.assert_engine_mode(mode);
        }

        run(CLUSTERD, &["init", "--nodes", &list]);
        run(
            CLUSTERD,
            &[
                "exec",
                "--nodes",
                &list,
                "--sql",
                "CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))",
            ],
        );
        run(
            CLUSTERD,
            &[
                "migrate",
                "--nodes",
                &list,
                "--finalize-drop",
                "--sql",
                "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) PRIMARY KEY (id)",
            ],
        );
        let status = run(CLUSTERD, &["status", "--nodes", &list]);
        assert!(
            status.lines().any(|l| l == "cluster.nodes = 3"),
            "status: {status}"
        );
        assert!(
            status
                .lines()
                .any(|l| l.starts_with("latency: commit_p50_us=")),
            "status: {status}"
        );

        run(CLUSTERD, &["shutdown", "--nodes", &list]);
        for node in &mut nodes {
            node.assert_clean_exit();
        }
    }
}
