//! End-to-end replication tests: a real TCP primary with the
//! [`ReplicationSender`] hooks, a real [`Replica`], and traffic driven
//! through [`bullfrog_net::Client`] — including mid-stream lazy
//! migrations, snapshot bootstraps after log truncation, and a primary
//! kill/restore/reattach cycle.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_common::row;
use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::checkpoint::checkpoint_path_for;
use bullfrog_engine::{CheckpointImage, Database, DbConfig, EngineMode};
use bullfrog_net::{err_code, stat, Client, ClientError, Server, ServerConfig};
use bullfrog_repl::{restore, DdlJournal, Replica, ReplicationSender};
use bullfrog_txn::WalOptions;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bf-repl-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A file-backed primary serving SQL + replication on an ephemeral
/// loopback port.
fn start_primary(
    mode: EngineMode,
    dir: &std::path::Path,
) -> (Server, Arc<Bullfrog>, Arc<ReplicationSender>) {
    let wal_path = dir.join("primary.wal");
    let db = Arc::new(
        Database::with_wal_file_opts(
            DbConfig {
                mode,
                ..DbConfig::default()
            },
            &wal_path,
            WalOptions::default(),
        )
        .expect("file-backed primary"),
    );
    let bf = Arc::new(Bullfrog::new(db));
    let journal = Arc::new(DdlJournal::open(DdlJournal::path_for(&wal_path)).expect("ddl journal"));
    let sender = ReplicationSender::new(Arc::clone(&bf), journal);
    let server = Server::bind(
        ("127.0.0.1", 0),
        Arc::clone(&bf),
        ServerConfig {
            replication: Some(Arc::clone(&sender) as _),
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    (server, bf, sender)
}

/// An in-memory replica following `primary_addr`, serving read-only SQL.
fn start_replica(mode: EngineMode, primary_addr: std::net::SocketAddr) -> (Server, Replica) {
    let bf = Arc::new(Bullfrog::new(Arc::new(Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    }))));
    let replica = Replica::start(primary_addr.to_string(), Arc::clone(&bf));
    let server = Server::bind(
        ("127.0.0.1", 0),
        bf,
        ServerConfig {
            read_only: Some(replica.read_only()),
            ..ServerConfig::default()
        },
    )
    .expect("bind replica");
    (server, replica)
}

fn wait_complete(admin: &mut Client, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let status = admin.status().expect("status poll");
        if stat(&status, "migration.active").expect("STATUS missing migration.active") == 0
            || stat(&status, "migration.complete").expect("STATUS missing migration.complete") == 1
        {
            return;
        }
        assert!(Instant::now() < deadline, "migration stalled: {status:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn sorted_rows(client: &mut Client, sql: &str) -> Vec<bullfrog_common::Row> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.query_rows(sql) {
            Ok((_, mut rows)) => {
                rows.sort_by_key(|r| format!("{r:?}"));
                return rows;
            }
            Err(ClientError::Server {
                retryable: true, ..
            }) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("{sql} failed: {e}"),
        }
    }
}

/// Syncs the primary, waits for the replica to reach its frontier, and
/// asserts both servers answer `sql` identically.
fn assert_converged(
    bf: &Arc<Bullfrog>,
    replica: &Replica,
    primary: &mut Client,
    replica_client: &mut Client,
    sql: &str,
) {
    bf.db().wal().sync();
    let target = bf.db().wal().frontier();
    assert!(
        replica.wait_caught_up(target, Duration::from_secs(20)),
        "replica stuck below {target}: {:?}",
        replica.stats()
    );
    assert_eq!(replica.stats().lag_lsns(), 0);
    assert_eq!(
        sorted_rows(primary, sql),
        sorted_rows(replica_client, sql),
        "primary/replica diverged on {sql}"
    );
}

/// The tentpole scenario: concurrent transfer traffic, a 1:1 bitmap
/// migration and an n:1 hash migration submitted mid-stream, and a
/// replica that must converge to identical scans after each drain.
#[test]
fn replica_converges_through_mid_stream_migrations() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("converge");
        let (server, bf, sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let addr = server.local_addr();
        let (rserver, replica) = start_replica(mode, addr);

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
            .unwrap();
        let values: Vec<String> = (0..64)
            .map(|i| format!("({i}, 'o{}', 100)", i % 8))
            .collect();
        admin
            .execute(&format!(
                "INSERT INTO accounts VALUES {}",
                values.join(", ")
            ))
            .unwrap();

        // Concurrent writers transferring balance; they swap tables when the
        // migration flips.
        let on_v2 = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let on_v2 = Arc::clone(&on_v2);
                let stop = Arc::clone(&stop);
                let committed = Arc::clone(&committed);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("worker");
                    let mut i: i64 = w;
                    while !stop.load(Ordering::Acquire) {
                        let table = if on_v2.load(Ordering::Acquire) {
                            "accounts_v2"
                        } else {
                            "accounts"
                        };
                        let a = i.rem_euclid(64);
                        let b = (i + 17).rem_euclid(64);
                        i += 13;
                        let mut txn = || -> Result<(), ClientError> {
                            client.execute("BEGIN")?;
                            client.execute(&format!(
                                "UPDATE {table} SET balance = balance - 3 WHERE id = {a}"
                            ))?;
                            client.execute(&format!(
                                "UPDATE {table} SET balance = balance + 3 WHERE id = {b}"
                            ))?;
                            client.execute("COMMIT")?;
                            Ok(())
                        };
                        match txn() {
                            Ok(()) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ClientError::Server { .. }) => {} // retry next round
                            Err(e) => panic!("transport: {e}"),
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            })
            .collect();

        // Mid-stream 1:1 (bitmap) migration.
        std::thread::sleep(Duration::from_millis(60));
        admin
            .execute(
                "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) \
                 PRIMARY KEY (id)",
            )
            .unwrap();
        on_v2.store(true, Ordering::Release);
        wait_complete(&mut admin, Duration::from_secs(20));

        // Quiesce before the scan comparison.
        stop.store(true, Ordering::Release);
        for w in workers {
            w.join().unwrap();
        }
        assert!(
            committed.load(Ordering::Relaxed) > 0,
            "no traffic committed"
        );
        admin.execute("FINALIZE MIGRATION DROP OLD").unwrap();

        let mut rclient = Client::connect(rserver.local_addr()).expect("replica client");
        assert_converged(
            &bf,
            &replica,
            &mut admin,
            &mut rclient,
            "SELECT id, owner, balance FROM accounts_v2",
        );

        // Mid-stream n:1 (hash) migration: lazy point reads + background
        // sweeps complete it, then the replica must match the aggregate.
        admin
            .execute(
                "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
                 FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)",
            )
            .unwrap();
        for o in 0..8 {
            let _ = admin.query_rows(&format!(
                "SELECT owner, total FROM owner_totals WHERE owner = 'o{o}'"
            ));
        }
        wait_complete(&mut admin, Duration::from_secs(20));
        admin.execute("FINALIZE MIGRATION").unwrap();
        assert_converged(
            &bf,
            &replica,
            &mut admin,
            &mut rclient,
            "SELECT owner, total FROM owner_totals",
        );

        // The replica rebuilt tracker state from shipped granule records.
        assert!(
            replica.stats().granules_mirrored.load(Ordering::Acquire) > 0,
            "no granules mirrored"
        );
        assert_eq!(sender.replica_count(), 1);

        drop((server, rserver, replica));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Replicas answer reads and bounce writes with a retryable READ_ONLY
/// error naming the primary.
#[test]
fn replica_serves_reads_and_rejects_writes() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("readonly");
        let (server, bf, _sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let addr = server.local_addr();
        let (rserver, replica) = start_replica(mode, addr);

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        admin
            .execute("INSERT INTO kv VALUES (1, 10), (2, 20)")
            .unwrap();

        let mut rclient = Client::connect(rserver.local_addr()).expect("replica client");
        assert_converged(
            &bf,
            &replica,
            &mut admin,
            &mut rclient,
            "SELECT k, v FROM kv",
        );

        for sql in [
            "INSERT INTO kv VALUES (3, 30)",
            "UPDATE kv SET v = 0 WHERE k = 1",
            "DELETE FROM kv WHERE k = 2",
            "CREATE TABLE nope (x INT, PRIMARY KEY (x))",
            "BEGIN",
        ] {
            match rclient.execute(sql) {
                Err(ClientError::Server {
                    retryable,
                    code,
                    message,
                }) => {
                    assert!(retryable, "{sql}: read-only rejection must be retryable");
                    assert_eq!(code, err_code::READ_ONLY, "{sql}: wrong code");
                    assert!(
                        message.contains(&addr.to_string()),
                        "{sql}: error must name the primary ({message})"
                    );
                }
                other => panic!("{sql} on replica: expected READ_ONLY, got {other:?}"),
            }
        }
        // The connection is still usable for reads afterwards.
        assert_eq!(sorted_rows(&mut rclient, "SELECT k, v FROM kv").len(), 2);

        drop((server, rserver, replica));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A transaction larger than one `FRAMES` batch (1,024 records) ships
/// alone and whole: the replica applies it as one transaction, and a
/// reader polling the replica sees none of its rows or all of them.
#[test]
fn a_transaction_larger_than_one_batch_replicates_whole() {
    replicates_whole("big-txn", "v INT", 2_500, |k| row![k, k]);
}

/// A transaction whose redo passes the 16 MiB wire frame cap leaves the
/// primary in pieces and still lands on the replica as one transaction.
#[test]
fn a_transaction_larger_than_the_frame_cap_replicates_whole() {
    let blob = "x".repeat(512 << 10);
    replicates_whole("huge-txn", "v TEXT", 40, move |k| row![k, blob.clone()]);
}

/// Commits `rows` rows made by `row` as one transaction on a primary with
/// a replica, in both engine modes, and checks that the replica applies
/// it whole: `txns_applied` rises by 1, `records_applied` by `rows`, and
/// a reader polling `SELECT COUNT(*)` on the replica sees 0 or `rows`.
fn replicates_whole(
    label: &str,
    value: &str,
    rows: i64,
    row: impl Fn(i64) -> bullfrog_common::Row,
) {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir(label);
        let (server, bf, _sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let (rserver, replica) = start_replica(mode, server.local_addr());
        let mut admin = Client::connect(server.local_addr()).expect("admin");
        admin
            .execute(&format!(
                "CREATE TABLE big (k INT, {value}, PRIMARY KEY (k))"
            ))
            .unwrap();
        let mut rclient = Client::connect(rserver.local_addr()).expect("replica client");
        let count = "SELECT COUNT(*) FROM big";
        // DDL moves no LSN, so wait for the replica to apply it before
        // the first comparison.
        let stats = Arc::clone(replica.stats());
        let deadline = Instant::now() + Duration::from_secs(20);
        while stats.ddl_applied.load(Ordering::Acquire) == 0 {
            assert!(Instant::now() < deadline, "replica never created big");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_converged(&bf, &replica, &mut admin, &mut rclient, count);
        let txns = stats.txns_applied.load(Ordering::Acquire);
        let records = stats.records_applied.load(Ordering::Acquire);

        let stop = Arc::new(AtomicBool::new(false));
        let poller = {
            let stop = Arc::clone(&stop);
            let raddr = rserver.local_addr();
            std::thread::spawn(move || {
                let mut c = Client::connect(raddr).expect("poller");
                let mut seen = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Acquire) {
                    seen.insert(sorted_rows(&mut c, count)[0].0[0].clone());
                }
                seen
            })
        };
        let db = bf.db();
        db.with_txn(|txn| {
            for k in 0..rows {
                db.insert(txn, "big", row(k))?;
            }
            Ok(())
        })
        .unwrap();
        assert_converged(&bf, &replica, &mut admin, &mut rclient, count);
        stop.store(true, Ordering::Release);
        let seen = poller.join().unwrap();

        assert_eq!(stats.txns_applied.load(Ordering::Acquire), txns + 1);
        assert_eq!(
            stats.records_applied.load(Ordering::Acquire),
            records + rows as u64
        );
        let whole = [row![0], row![rows]].map(|r| r.0[0].clone());
        assert!(
            seen.iter().all(|n| whole.contains(n)),
            "a reader saw part of the transaction: {seen:?}"
        );
        drop((server, rserver, replica));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// STATUS and METRICS serve one set of numbers. On a primary with one
/// caught-up replica and an idle log, each server's STATUS has no
/// duplicate key and reads, as a map, exactly like its METRICS counters
/// plus gauges; replication lag is 0 in both opcodes on both sides.
#[test]
fn status_serves_the_metrics_counters_and_gauges() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("status-metrics");
        let (server, bf, _sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let addr = server.local_addr();
        let (rserver, replica) = start_replica(mode, addr);

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        for k in 0..20 {
            admin
                .execute(&format!("INSERT INTO kv VALUES ({k}, {k})"))
                .unwrap();
        }
        bf.db().wal().sync();
        let target = bf.db().wal().frontier();
        assert!(
            replica.wait_caught_up(target, Duration::from_secs(20)),
            "replica stuck below {target}: {:?}",
            replica.stats()
        );

        assert_status_is_metrics(&mut admin, "primary");
        let mut rclient = Client::connect(rserver.local_addr()).expect("replica client");
        assert_status_is_metrics(&mut rclient, "replica");

        drop((server, rserver, replica));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Polls STATUS and METRICS on one connection until STATUS equals the
/// METRICS counters plus gauges and both report zero lag (the sender
/// learns of the replica's last ack on its next heartbeat); asserts
/// both at the deadline. STATUS must never repeat a key.
fn assert_status_is_metrics(client: &mut Client, who: &str) {
    use std::collections::{BTreeMap, HashSet};
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.status().expect("STATUS");
        let metrics = client.metrics().expect("METRICS");
        let mut seen = HashSet::new();
        let repeated: Vec<&String> = status
            .iter()
            .map(|(k, _)| k)
            .filter(|k| !seen.insert(*k))
            .collect();
        assert!(repeated.is_empty(), "{who}: STATUS repeats {repeated:?}");
        let status_lag = stat(&status, "repl.lag_lsns").expect("STATUS missing repl.lag_lsns");
        let metrics_lag = metrics.gauge("repl.lag_lsns");
        let status: BTreeMap<String, i64> = status.into_iter().collect();
        let served: BTreeMap<String, i64> = metrics
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v as i64))
            .chain(metrics.gauges.iter().cloned())
            .collect();
        assert_eq!(
            served.len(),
            metrics.counters.len() + metrics.gauges.len(),
            "{who}: a METRICS name is both a counter and a gauge"
        );
        let settled = status == served && status_lag == 0 && metrics_lag == Some(0);
        if settled {
            return;
        }
        if Instant::now() >= deadline {
            let only_status: Vec<_> = status.keys().filter(|k| !served.contains_key(*k)).collect();
            let only_metrics: Vec<_> = served.keys().filter(|k| !status.contains_key(*k)).collect();
            let differ: Vec<_> = status
                .iter()
                .filter(|(k, v)| served.get(*k).is_some_and(|m| m != *v))
                .collect();
            panic!(
                "{who}: STATUS lag {status_lag}, METRICS lag {metrics_lag:?}; \
                 {} STATUS-only keys {only_status:?}; METRICS-only {only_metrics:?}; \
                 values differ on {differ:?}",
                only_status.len()
            );
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A replica whose resume point has been truncated away re-bootstraps
/// from a snapshot instead of failing: checkpoint truncation ran before
/// it ever connected, so LSN 0 is gone.
#[test]
fn truncated_log_forces_snapshot_bootstrap() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("snapshot");
        let (server, bf, _sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let addr = server.local_addr();

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        for k in 0..50 {
            admin
                .execute(&format!("INSERT INTO kv VALUES ({k}, {})", k * 2))
                .unwrap();
        }
        bf.db().wal().sync();
        let stats = bf.db().checkpoint().expect("manual checkpoint");
        assert!(
            stats.cut_lsn > 0,
            "checkpoint must have truncated something"
        );
        assert!(bf.db().wal().base_lsn() > 0, "log base must have moved");

        // Now attach a fresh replica: subscribe-from-0 must be refused with
        // SNAPSHOT_REQUIRED and the replica must bootstrap.
        let (rserver, replica) = start_replica(mode, addr);
        let mut rclient = Client::connect(rserver.local_addr()).expect("replica client");
        assert_converged(
            &bf,
            &replica,
            &mut admin,
            &mut rclient,
            "SELECT k, v FROM kv",
        );
        assert!(
            replica.stats().snapshots.load(Ordering::Acquire) >= 1,
            "replica must have bootstrapped from a snapshot: {:?}",
            replica.stats()
        );

        // And it keeps streaming normally afterwards.
        admin.execute("INSERT INTO kv VALUES (100, 200)").unwrap();
        assert_converged(
            &bf,
            &replica,
            &mut admin,
            &mut rclient,
            "SELECT k, v FROM kv",
        );

        drop((server, rserver, replica));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill the primary mid-stream — with a migration still in flight — and
/// restore it from WAL + sidecar + DDL journal on a new port. The
/// replica must reattach via its backoff loop and converge; the restored
/// primary must be able to finish the migration lazily.
#[test]
fn primary_restart_replica_reconverges() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("restart");
        let (server, bf, sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let addr = server.local_addr();
        let (rserver, replica) = start_replica(mode, addr);

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
            .unwrap();
        let values: Vec<String> = (0..40)
            .map(|i| format!("({i}, 'o{}', 100)", i % 4))
            .collect();
        admin
            .execute(&format!(
                "INSERT INTO accounts VALUES {}",
                values.join(", ")
            ))
            .unwrap();

        // Submit the migration and kill the primary while it is in flight
        // (no FINALIZE): trackers must survive via journal + granule
        // records.
        admin
            .execute(
                "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) \
                 PRIMARY KEY (id)",
            )
            .unwrap();
        // Touch a few slices so some granule records are committed.
        for id in 0..10 {
            let _ = admin.query_rows(&format!(
                "SELECT id, balance FROM accounts_v2 WHERE id = {id}"
            ));
        }
        let caught = {
            bf.db().wal().sync();
            let target = bf.db().wal().frontier();
            replica.wait_caught_up(target, Duration::from_secs(20))
        };
        assert!(caught, "replica behind before the kill");

        // Kill: drop every handle so the WAL files are closed before
        // restore reopens them. The replica now spins in reconnect backoff.
        let wal_path = dir.join("primary.wal");
        drop(admin);
        drop(server);
        drop(sender);
        drop(bf);

        let (bf2, journal2, report) = restore(
            &wal_path,
            DbConfig {
                mode,
                ..DbConfig::default()
            },
            WalOptions::default(),
        )
        .expect("restore");
        assert_eq!(bf2.db().config().mode, mode);
        assert!(
            report.ddl_applied >= 2,
            "journal must replay DDL: {report:?}"
        );
        let sender2 = ReplicationSender::new(Arc::clone(&bf2), journal2);
        let server2 = Server::bind(
            ("127.0.0.1", 0),
            Arc::clone(&bf2),
            ServerConfig {
                replication: Some(Arc::clone(&sender2) as _),
                ..ServerConfig::default()
            },
        )
        .expect("rebind primary");
        replica.set_primary(server2.local_addr().to_string());

        let mut admin2 = Client::connect(server2.local_addr()).expect("admin after restart");
        // Restore respawned the background sweepers, but don't rely on them
        // here: a full scan migrates every remaining slice lazily, then
        // finalize re-derives completeness from the trackers either way.
        let rows = sorted_rows(&mut admin2, "SELECT id, owner, balance FROM accounts_v2");
        assert_eq!(rows.len(), 40, "restored migration lost rows");
        admin2.execute("FINALIZE MIGRATION DROP OLD").unwrap();
        admin2
            .execute("UPDATE accounts_v2 SET balance = balance + 1 WHERE id = 0")
            .unwrap();

        let mut rclient = Client::connect(rserver.local_addr()).expect("replica client");
        assert_converged(
            &bf2,
            &replica,
            &mut admin2,
            &mut rclient,
            "SELECT id, owner, balance FROM accounts_v2",
        );
        assert!(
            replica.stats().reconnects.load(Ordering::Acquire) >= 1,
            "replica must have reconnected after the restart"
        );

        drop((server2, rserver, replica));
        // The WAL file, journal and sidecar live under dir.
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regression for sweeper respawn after restore: kill the primary while
/// a migration is in flight, restore it, and issue **no client traffic
/// at all** — the background sweepers respawned from the rebuilt
/// trackers must finish the migration on their own.
#[test]
fn restored_primary_finishes_migration_without_traffic() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("respawn");
        let (server, bf, sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let addr = server.local_addr();

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
            .unwrap();
        let values: Vec<String> = (0..60)
            .map(|i| format!("({i}, 'o{}', 100)", i % 4))
            .collect();
        admin
            .execute(&format!(
                "INSERT INTO accounts VALUES {}",
                values.join(", ")
            ))
            .unwrap();
        admin
            .execute(
                "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) \
                 PRIMARY KEY (id)",
            )
            .unwrap();
        // Touch a few slices so some (but not all) granule records are
        // committed, then kill well inside the sweepers' start delay so the
        // migration is genuinely in flight on disk.
        for id in 0..5 {
            let _ = admin.query_rows(&format!(
                "SELECT id, balance FROM accounts_v2 WHERE id = {id}"
            ));
        }
        let wal_path = dir.join("primary.wal");
        drop(admin);
        drop(server);
        drop(sender);
        drop(bf);

        let (bf2, _journal2, report) = restore(
            &wal_path,
            DbConfig {
                mode,
                ..DbConfig::default()
            },
            WalOptions::default(),
        )
        .expect("restore");
        assert_eq!(bf2.db().config().mode, mode);
        assert!(
            report.ddl_applied >= 2,
            "journal must replay the migration DDL: {report:?}"
        );
        assert!(
            bf2.active().is_some(),
            "restored primary must have the in-flight migration active"
        );

        // No server, no clients: only the respawned sweepers can finish it.
        assert!(
            bf2.wait_migration_complete(Duration::from_secs(30)),
            "respawned sweepers never completed the migration: {:?}",
            bf2.progress()
        );
        bf2.finalize_migration(true).expect("finalize after sweep");
        assert_eq!(
            bf2.db().table("accounts_v2").unwrap().live_count(),
            60,
            "sweepers must have migrated every row"
        );
        bf2.shutdown_background();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A primary on a file WAL that committed 20 single-row inserts, folded
/// them all into the checkpoint sidecar, and was then dropped. Returns
/// the scratch directory and the WAL path.
fn checkpointed_primary(mode: EngineMode, tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch_dir(tag);
    let (server, bf, sender) = start_primary(mode, &dir);
    assert_eq!(bf.db().config().mode, mode);
    let mut admin = Client::connect(server.local_addr()).expect("admin");
    admin
        .execute("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
        .unwrap();
    for i in 0..20 {
        admin
            .execute(&format!("INSERT INTO accounts VALUES ({i}, 'o{i}', 100)"))
            .unwrap();
    }
    let stats = bf.db().checkpoint().expect("manual checkpoint");
    assert_eq!(
        stats.cut_lsn,
        bf.db().wal().frontier(),
        "checkpoint folded every commit: {stats:?}"
    );
    drop(admin);
    drop(server);
    drop(sender);
    drop(bf);
    let wal_path = dir.join("primary.wal");
    (dir, wal_path)
}

/// A sidecar that exists but cannot be read is not "no checkpoint":
/// restoring without it would silently drop every row the image holds
/// (the log below its base is truncated) and seed the checkpointer with
/// an empty image.
#[test]
fn restore_refuses_an_unreadable_checkpoint_sidecar() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (dir, wal_path) = checkpointed_primary(mode, "bad-sidecar");
        let ckpt = checkpoint_path_for(&wal_path);
        std::fs::remove_file(&ckpt).expect("remove sidecar");
        std::fs::create_dir(&ckpt).expect("sidecar path becomes a directory");
        let marker = ckpt.join("keep");
        std::fs::write(&marker, b"untouched").unwrap();

        let restored = restore(
            &wal_path,
            DbConfig {
                mode,
                ..DbConfig::default()
            },
            WalOptions::default(),
        );
        assert!(
            restored.is_err(),
            "restore must refuse an unreadable sidecar, got {:?}",
            restored.map(|(_, _, report)| report)
        );
        assert!(ckpt.is_dir(), "restore must leave the sidecar path alone");
        assert_eq!(std::fs::read(&marker).unwrap(), b"untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A restore whose whole history sits in the checkpoint image must still
/// resume the timestamp oracle past the image's commit horizon, or
/// post-restart snapshot commits reuse timestamps the image covers.
#[test]
fn restore_resumes_the_oracle_past_the_checkpoint_image() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (dir, wal_path) = checkpointed_primary(mode, "oracle");
        let image = CheckpointImage::decode(
            std::fs::read(checkpoint_path_for(&wal_path)).expect("read sidecar"),
        )
        .expect("decode sidecar");
        if mode == EngineMode::Snapshot {
            assert!(image.base_ts >= 20, "one timestamp per insert: {image:?}");
        }

        let (bf2, _journal2, report) = restore(
            &wal_path,
            DbConfig {
                mode,
                ..DbConfig::default()
            },
            WalOptions::default(),
        )
        .expect("restore");
        assert_eq!(bf2.db().config().mode, mode);
        assert_eq!(report.image_rows, 20, "{report:?}");
        let oracle = bf2.db().wal().oracle();
        assert!(
            oracle.last_drawn() >= image.base_ts,
            "oracle at {} behind the image's base_ts {}",
            oracle.last_drawn(),
            image.base_ts
        );

        let db = bf2.db();
        db.with_txn(|txn| db.insert(txn, "accounts", row![20, "o20", 100]))
            .expect("post-restore commit");
        if mode == EngineMode::Snapshot {
            assert!(
                oracle.last_drawn() > image.base_ts,
                "post-restore commit drew {} at or below base_ts {}",
                oracle.last_drawn(),
                image.base_ts
            );
        }
        bf2.shutdown_background();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
