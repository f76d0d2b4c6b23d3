//! loadgen: concurrent TCP clients driving a lazy migration end to end.
//!
//! The scenario the paper cares about, over real sockets:
//!
//! 1. an admin session creates `accounts` and loads it;
//! 2. N worker clients hammer it with transfer transactions
//!    (`BEGIN`/`UPDATE`/`UPDATE`/`COMMIT`) while the admin submits
//!    migration DDL mid-traffic — the 1:1 (bitmap-tracked) migration
//!    `accounts → accounts_v2`;
//! 3. workers switch to the new table without a pause, their reads and
//!    writes lazily migrating the slices they touch, background threads
//!    sweeping the rest;
//! 4. after the drain: exactly-once verification (row count, conserved
//!    balance, `rows_migrated == rows loaded`, zero conflict skips),
//!    `FINALIZE MIGRATION`, then a second, aggregating (hash-tracked)
//!    migration `accounts_v2 → owner_totals` driven the same way;
//! 5. `SHUTDOWN`, which must drain without dropping a committed write.
//!
//! `--failover` runs the high-availability end-state proof instead: a
//! three-process `repld` group (primary + replica + witness, quorum
//! leases, `SYNC_REPLICAS 1` with the `BLOCK` policy), seeded transfer
//! traffic through [`FailoverClient`]s that log every transfer in an
//! in-database `txlog`, `SIGKILL` of the primary mid-1:1-migration,
//! lease-lapse election and promotion on the replica, respawned
//! sweepers finishing the migration on the survivor, and a final audit:
//! every acked commit present (`acked ⊆ txlog`), balances equal to the
//! transaction log's replay, and the n:1 GROUP BY migration run to
//! completion on the survivor.
//!
//! Deterministic per `--seed`. Exits non-zero on any violated invariant.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_cluster::{ClusterClient, Coordinator, LocalCluster, ShardMap};
use bullfrog_common::Value;
use bullfrog_core::Bullfrog;
use bullfrog_engine::{CheckpointPolicy, Database, DbConfig, EngineMode};
use bullfrog_ha::FailoverClient;
use bullfrog_net::{err_code, Client, ClientError, Server, ServerConfig};
use bullfrog_repl::{DdlJournal, Replica, ReplicationSender};
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};

struct Args {
    clients: usize,
    accounts: i64,
    owners: i64,
    ops: usize,
    seed: u64,
    /// `COMMIT` (sync, waits for the merged durable horizon) or
    /// `COMMIT NOWAIT` (acknowledged at WAL-enqueue time).
    nowait: bool,
    /// When set, the server runs file-backed: sharded WAL under this
    /// directory instead of a purely in-memory log.
    wal_dir: Option<std::path::PathBuf>,
    /// Drive an external server at this address instead of self-hosting
    /// (the external server is left running: no SHUTDOWN at the end).
    addr: Option<String>,
    /// Attach a read-only replica to the self-hosted primary and verify
    /// primary/replica equivalence after the drain. Implies a
    /// file-backed WAL (replication ships durable frames only); uses a
    /// scratch directory when `--wal-dir` is not given.
    replica: bool,
    /// Concurrency-control mode for the self-hosted server (and its
    /// replica): `2pl` (default) or `si`. Defaults from
    /// `BULLFROG_ENGINE_MODE` like every other harness, so the same
    /// script drives either engine.
    mode: EngineMode,
    /// When > 0, run the shared-nothing cluster scenario instead: this
    /// many loopback member nodes under one shard map, workers routed
    /// per key, migrations driven as two-phase cluster flips (with the
    /// cross-node aggregate exchange for the GROUP BY step), and a
    /// final scatter-gathered scan checked byte-identical to a
    /// single-node oracle.
    cluster: usize,
    /// Run the HA failover scenario: spawn a `repld` primary, replica
    /// and witness as child processes, kill the primary mid-migration
    /// under load, and verify zero lost acked commits on the survivor.
    failover: bool,
    /// When > 0, run the high-connection network scenario instead: park
    /// this many mostly-idle connections on a serve-only child process
    /// (each side of a socket pair burns one fd, so a 10k-connection
    /// run needs the two ends in separate processes to fit a 20k fd
    /// limit), drive point reads from a bounded worker set, report
    /// p50/p99, then prove every parked session still answers.
    connections: usize,
    /// Net scenario: PREPARE each worker's statement once and EXECUTE
    /// with bound parameters instead of sending SQL text per request.
    prepared: bool,
    /// Net scenario: batch requests into pipelined frame bursts instead
    /// of one round trip per statement.
    pipeline: bool,
    /// Serve-only mode (used as the child of `--connections`): bind a
    /// loopback server, print its address, and block until a remote
    /// SHUTDOWN.
    serve: bool,
    /// Run the observability timeline scenario instead: both engine
    /// modes in one invocation, per-second latency histograms across
    /// mid-traffic 1:1 and n:1 migrations, JSON to
    /// `target/BENCH_obs.json` (override with `BENCH_OBS_JSON`).
    timeline: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            clients: 32,
            accounts: 256,
            owners: 16,
            ops: 20,
            seed: 42,
            nowait: false,
            wal_dir: None,
            addr: None,
            replica: false,
            mode: EngineMode::from_env(),
            cluster: 0,
            failover: false,
            connections: 0,
            prepared: false,
            pipeline: false,
            serve: false,
            timeline: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> u64 {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} needs a numeric value"))
            };
            match flag.as_str() {
                "--clients" => args.clients = take("--clients") as usize,
                "--accounts" => args.accounts = take("--accounts") as i64,
                "--owners" => args.owners = take("--owners") as i64,
                "--ops" => args.ops = take("--ops") as usize,
                "--seed" => args.seed = take("--seed"),
                "--commit-mode" => {
                    args.nowait = match it.next().as_deref() {
                        Some("sync") => false,
                        Some("nowait") => true,
                        other => panic!("--commit-mode must be sync or nowait, got {other:?}"),
                    }
                }
                "--wal-dir" => {
                    args.wal_dir = Some(
                        it.next()
                            .unwrap_or_else(|| panic!("--wal-dir needs a directory"))
                            .into(),
                    )
                }
                "--addr" => {
                    args.addr = Some(
                        it.next()
                            .unwrap_or_else(|| panic!("--addr needs host:port")),
                    )
                }
                "--replica" => args.replica = true,
                "--cluster" => args.cluster = take("--cluster") as usize,
                "--failover" => args.failover = true,
                "--connections" => args.connections = take("--connections") as usize,
                "--prepared" => args.prepared = true,
                "--pipeline" => args.pipeline = true,
                "--serve" => args.serve = true,
                "--timeline" => args.timeline = true,
                "--engine-mode" => {
                    args.mode = match it.next().as_deref() {
                        Some("2pl") => EngineMode::TwoPL,
                        Some("si" | "snapshot" | "mvcc") => EngineMode::Snapshot,
                        other => panic!("--engine-mode must be 2pl or si, got {other:?}"),
                    }
                }
                other => panic!("unknown flag {other}"),
            }
        }
        if args.replica && args.addr.is_some() {
            panic!("--replica needs the self-hosted server; drop --addr");
        }
        if args.cluster > 0 && (args.replica || args.addr.is_some()) {
            panic!("--cluster self-hosts its member nodes; drop --replica/--addr");
        }
        if args.failover && (args.replica || args.addr.is_some() || args.cluster > 0) {
            panic!("--failover spawns its own repld group; drop --replica/--addr/--cluster");
        }
        if (args.prepared || args.pipeline) && args.connections == 0 && !args.serve {
            panic!("--prepared/--pipeline belong to the net scenario; add --connections N");
        }
        if args.connections > 0 && (args.replica || args.cluster > 0 || args.failover) {
            panic!(
                "--connections runs its own serve-only child; drop --replica/--cluster/--failover"
            );
        }
        if args.timeline
            && (args.replica
                || args.addr.is_some()
                || args.cluster > 0
                || args.failover
                || args.connections > 0)
        {
            panic!("--timeline self-hosts both engine modes; drop the other scenario flags");
        }
        args
    }
}

const INITIAL_BALANCE: i64 = 1000;

/// Phases broadcast from the admin thread to the workers.
const PHASE_OLD: usize = 0; // write `accounts`
const PHASE_NEW: usize = 1; // write `accounts_v2`
const PHASE_PAUSE: usize = 2; // quiesce while the admin verifies
const PHASE_TOTALS: usize = 3; // read `owner_totals`
const PHASE_DONE: usize = 4;

fn main() {
    let args = Args::parse();
    let started = Instant::now();
    if args.serve {
        run_serve(&args);
        return;
    }
    if args.timeline {
        run_timeline(&args, started);
        return;
    }
    if args.connections > 0 {
        run_net(&args, started);
        return;
    }
    if args.failover {
        run_failover(&args, started);
        return;
    }
    if args.cluster > 0 {
        run_cluster(&args, started);
        return;
    }

    // Scratch WAL directory when --replica needs a file-backed log and
    // the caller did not provide one.
    let scratch_dir = (args.replica && args.addr.is_none() && args.wal_dir.is_none()).then(|| {
        let dir = std::env::temp_dir().join(format!("bf-loadgen-repl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch WAL dir");
        dir
    });

    // Self-hosted server on an ephemeral loopback port (background
    // checkpointing on so the scheduler satellite runs under load too),
    // unless --addr points at an external one.
    let mut hosted: Option<(Server, Arc<Bullfrog>)> = None;
    let mut attached: Option<(Server, Replica)> = None;
    let addr: std::net::SocketAddr = match &args.addr {
        Some(a) => {
            use std::net::ToSocketAddrs;
            a.to_socket_addrs()
                .expect("--addr must resolve")
                .next()
                .expect("--addr must resolve")
        }
        None => {
            let config = DbConfig {
                checkpoint_policy: Some(CheckpointPolicy {
                    max_resident_records: 2_000,
                    max_flushed_bytes: 0,
                    poll_interval: Duration::from_millis(20),
                }),
                mode: args.mode,
                ..DbConfig::default()
            };
            let wal_dir = args.wal_dir.clone().or_else(|| scratch_dir.clone());
            let wal_path = wal_dir.as_ref().map(|d| d.join("loadgen.wal"));
            let db = Arc::new(match &wal_path {
                Some(path) => {
                    Database::with_wal_file(config, path).expect("open WAL under --wal-dir")
                }
                None => Database::with_config(config),
            });
            let bf = Arc::new(Bullfrog::new(db));
            let mut server_config = ServerConfig {
                max_connections: args.clients + 8,
                idle_timeout: Duration::from_secs(30),
                statement_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            };
            if args.replica {
                let journal = Arc::new(
                    DdlJournal::open(DdlJournal::path_for(
                        wal_path.as_ref().expect("--replica implies a WAL path"),
                    ))
                    .expect("open DDL journal"),
                );
                server_config.replication =
                    Some(ReplicationSender::new(Arc::clone(&bf), journal) as _);
            }
            let server = Server::bind(("127.0.0.1", 0), Arc::clone(&bf), server_config)
                .expect("bind loopback");
            let addr = server.local_addr();
            if args.replica {
                // The replica applies physical frames, so it could run
                // either mode; matching the primary keeps its local
                // reads under the same isolation the run is exercising.
                let rdb = Database::with_config(DbConfig {
                    mode: args.mode,
                    ..DbConfig::default()
                });
                let rbf = Arc::new(Bullfrog::new(Arc::new(rdb)));
                let replica = Replica::start(addr.to_string(), Arc::clone(&rbf));
                let rserver = Server::bind(
                    ("127.0.0.1", 0),
                    rbf,
                    ServerConfig {
                        read_only: Some(replica.read_only()),
                        ..ServerConfig::default()
                    },
                )
                .expect("bind replica loopback");
                println!("loadgen: replica serving on {}", rserver.local_addr());
                attached = Some((rserver, replica));
            }
            hosted = Some((server, bf));
            addr
        }
    };
    println!(
        "loadgen: serving on {addr} ({} clients, {} engine)",
        args.clients,
        args.mode.as_str()
    );

    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .execute("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
        .expect("create accounts");
    for chunk in (0..args.accounts).collect::<Vec<_>>().chunks(64) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, 'o{}', {INITIAL_BALANCE})", i % args.owners))
            .collect();
        admin
            .execute(&format!(
                "INSERT INTO accounts VALUES {}",
                values.join(", ")
            ))
            .expect("load accounts");
    }

    // Workers: transfer transactions against the phase's current table.
    let commit_sql: &'static str = if args.nowait {
        "COMMIT NOWAIT"
    } else {
        "COMMIT"
    };
    let phase = Arc::new(AtomicUsize::new(PHASE_OLD));
    let committed = Arc::new(AtomicU64::new(0));
    let retried = Arc::new(AtomicU64::new(0));
    let paused = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for w in 0..args.clients {
        let phase = Arc::clone(&phase);
        let committed = Arc::clone(&committed);
        let retried = Arc::clone(&retried);
        let paused = Arc::clone(&paused);
        let accounts = args.accounts;
        let owners = args.owners;
        let ops = args.ops;
        let seed = args.seed;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w as u64));
            let mut client = Client::connect(addr).expect("worker connect");
            // Keep issuing transfers until the admin has finished both
            // migrations; each phase change just swaps the table name.
            let mut acked_pause = false;
            loop {
                match phase.load(Ordering::Acquire) {
                    PHASE_DONE => break,
                    PHASE_PAUSE => {
                        // Acknowledge the quiesce exactly once, *after*
                        // any in-flight transfer bracket finished: the
                        // admin's verification scan only starts when
                        // every worker has acked, so a read-committed
                        // scan can't interleave with a live transfer.
                        if !acked_pause {
                            acked_pause = true;
                            paused.fetch_add(1, Ordering::AcqRel);
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    PHASE_TOTALS => {
                        // Drive the hash-tracked migration: per-owner
                        // point reads lazily migrate each group.
                        let o = rng.gen_range(0..owners);
                        let _ = client
                            .query_rows(&format!(
                                "SELECT owner, total FROM owner_totals WHERE owner = 'o{o}'"
                            ))
                            .map_err(fatal_if_transport);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    p => {
                        let table = if p == PHASE_OLD {
                            "accounts"
                        } else {
                            "accounts_v2"
                        };
                        let a = rng.gen_range(0..accounts);
                        let b = (a + 1 + rng.gen_range(0..accounts - 1)) % accounts;
                        if transfer(&mut client, table, a, b, commit_sql, &retried) {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Pace each worker to its op budget per phase by
                // yielding; total runtime is bounded by the admin.
                if rng.gen_bool(1.0 / ops.max(1) as f64) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }));
    }

    // Let pre-migration traffic run, then flip mid-traffic.
    std::thread::sleep(Duration::from_millis(150));
    admin
        .execute(
            "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) \
             PRIMARY KEY (id)",
        )
        .expect("submit bitmap migration");
    phase.store(PHASE_NEW, Ordering::Release);
    println!(
        "loadgen: bitmap migration submitted at {:?}, workers flipped",
        started.elapsed()
    );

    // Lazy + background migration finish while traffic continues.
    wait_complete(&mut admin, Duration::from_secs(20));
    let status = admin.status().expect("status");
    let rows_migrated = stat(&status, "migration.rows_migrated");
    let conflict_skips = stat(&status, "migration.conflict_skips");
    let rows_dropped = stat(&status, "migration.rows_dropped");
    // Quiesce the workers so the verification scan sees a settled table
    // (read-committed scans have no snapshot to hide in-flight
    // transfers behind). Workers ack the pause only between transfer
    // brackets, so waiting for every ack — not a fixed sleep — is what
    // rules out scan/transfer read skew.
    phase.store(PHASE_PAUSE, Ordering::Release);
    while paused.load(Ordering::Acquire) < args.clients {
        std::thread::sleep(Duration::from_millis(2));
    }
    admin
        .execute("FINALIZE MIGRATION DROP OLD")
        .expect("finalize bitmap");

    // Exactly-once: every source row arrived in the output exactly once.
    assert_eq!(
        rows_migrated, args.accounts,
        "exactly-once violated: {rows_migrated} rows migrated for {} sources",
        args.accounts
    );
    assert_eq!(conflict_skips, 0, "duplicate migration attempts detected");
    assert_eq!(rows_dropped, 0, "migration dropped rows");
    let rows = scan_retry(&mut admin, "SELECT id, balance FROM accounts_v2");
    assert_eq!(rows.len() as i64, args.accounts, "row count changed");
    let total: i64 = rows.iter().map(|r| r.0[1].as_i64().unwrap()).sum();
    assert_eq!(
        total,
        args.accounts * INITIAL_BALANCE,
        "transfers must conserve total balance"
    );
    println!(
        "loadgen: bitmap migration exactly-once verified ({} rows, total {total}) at {:?}",
        rows.len(),
        started.elapsed()
    );

    // Mid-run equivalence: accounts_v2 is live right now, but the next
    // migration is a big flip that retires it on both sides — compare
    // here or never.
    if let Some((rserver, replica)) = &attached {
        let (_, bf) = hosted.as_ref().expect("--replica implies self-hosting");
        compare_scans(
            &mut admin,
            bf,
            rserver,
            replica,
            "SELECT id, owner, balance FROM accounts_v2",
        );
        println!(
            "loadgen: replica matched accounts_v2 mid-run at {:?}",
            started.elapsed()
        );
    }

    // Phase 2: the n:1 aggregation (hash-tracked) migration, submitted
    // while workers keep reading.
    admin
        .execute(
            "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
             FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)",
        )
        .expect("submit hash migration");
    phase.store(PHASE_TOTALS, Ordering::Release);
    wait_complete(&mut admin, Duration::from_secs(20));
    admin.execute("FINALIZE MIGRATION").expect("finalize hash");
    let totals = scan_retry(&mut admin, "SELECT owner, total FROM owner_totals");
    assert_eq!(totals.len() as i64, args.owners, "one group per owner");
    let grand: i64 = totals.iter().map(|r| r.0[1].as_i64().unwrap()).sum();
    assert_eq!(
        grand,
        args.accounts * INITIAL_BALANCE,
        "aggregation must conserve total balance"
    );
    println!(
        "loadgen: hash migration verified ({} owners, total {grand}) at {:?}",
        totals.len(),
        started.elapsed()
    );

    phase.store(PHASE_DONE, Ordering::Release);
    for h in handles {
        h.join().expect("worker");
    }

    let status = admin.status().expect("final status");
    println!(
        "loadgen: {} transfers committed, {} retries, {} statements, {} scheduler checkpoints",
        committed.load(Ordering::Relaxed),
        retried.load(Ordering::Relaxed),
        stat(&status, "sessions.statements"),
        stat(&status, "scheduler.checkpoints"),
    );
    println!(
        "loadgen: engine mode {} ({} live versions, gc horizon {}, {} reclaimed)",
        if stat(&status, "engine.mode") == 1 {
            "si"
        } else {
            "2pl"
        },
        stat(&status, "mvcc.versions"),
        stat(&status, "mvcc.gc_horizon"),
        stat(&status, "mvcc.gc_reclaimed"),
    );

    if let Some((rserver, replica)) = &attached {
        let (_, bf) = hosted.as_ref().expect("--replica implies self-hosting");
        verify_replica(&mut admin, bf, rserver, replica);
    }

    match hosted {
        Some((mut server, _)) => {
            // Graceful remote shutdown: the server drains and syncs.
            admin.shutdown_server().expect("shutdown opcode");
            server.shutdown();
        }
        None => println!("loadgen: external server at {addr} left running"),
    }
    if let Some((mut rserver, mut replica)) = attached {
        replica.shutdown();
        rserver.shutdown();
    }
    if let Some(dir) = scratch_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    println!("loadgen: done in {:?}", started.elapsed());
}

/// Waits for the replica to reach the primary's current frontier with
/// zero lag, then asserts both sides return identical rows for `sql`.
fn compare_scans(
    admin: &mut Client,
    bf: &Arc<Bullfrog>,
    rserver: &Server,
    replica: &Replica,
    sql: &str,
) {
    use bullfrog_core::ClientAccess;
    bf.db().wal().sync();
    let target = bf.db().wal().frontier();
    assert!(
        replica.wait_caught_up(target, Duration::from_secs(30)),
        "replica failed to reach primary frontier {target}: {:?}",
        replica.stats()
    );
    assert_eq!(replica.stats().lag_lsns(), 0, "replica lag after catch-up");
    let mut rclient = Client::connect(rserver.local_addr()).expect("replica connect");
    let mut primary_rows = scan_retry(admin, sql);
    let mut replica_rows = scan_retry(&mut rclient, sql);
    primary_rows.sort_by_key(|r| format!("{r:?}"));
    replica_rows.sort_by_key(|r| format!("{r:?}"));
    assert_eq!(
        primary_rows, replica_rows,
        "primary/replica scans diverged for {sql}"
    );
}

/// Post-drain primary/replica equivalence: converged scans on the final
/// table, writes rejected with the READ_ONLY code, repl.* summary.
fn verify_replica(admin: &mut Client, bf: &Arc<Bullfrog>, rserver: &Server, replica: &Replica) {
    compare_scans(
        admin,
        bf,
        rserver,
        replica,
        "SELECT owner, total FROM owner_totals",
    );
    let mut rclient = Client::connect(rserver.local_addr()).expect("replica connect");

    // Writes must bounce with the READ_ONLY code — the signal loadgen's
    // retry policy treats as "wrong endpoint", never as retry-here.
    match rclient.execute("INSERT INTO owner_totals VALUES ('zz', 1)") {
        Err(ClientError::Server { code, .. }) if code == err_code::READ_ONLY => {}
        other => panic!("replica accepted a write (or wrong error): {other:?}"),
    }

    let rstatus = rclient.status().expect("replica status");
    assert_eq!(stat(&rstatus, "repl.role_replica"), 1);
    println!(
        "loadgen: replica converged (applied {}, {} txns, {} granules mirrored, {} reconnects)",
        stat(&rstatus, "repl.applied_lsn"),
        stat(&rstatus, "repl.txns_applied"),
        stat(&rstatus, "repl.granules_mirrored"),
        stat(&rstatus, "repl.reconnects"),
    );
    let pstatus = admin.status().expect("primary status");
    for (k, v) in pstatus.iter().filter(|(k, _)| k.starts_with("repl.")) {
        println!("loadgen:   {k} = {v}");
    }
}

/// One transfer transaction; returns whether it committed. Retries the
/// whole bracket on retryable failures (the server aborts the open
/// transaction on any statement error, so a retry restarts cleanly).
fn transfer(
    client: &mut Client,
    table: &str,
    a: i64,
    b: i64,
    commit_sql: &str,
    retried: &AtomicU64,
) -> bool {
    for _ in 0..8 {
        match try_transfer(client, table, a, b, commit_sql) {
            Ok(committed) => return committed,
            Err(ClientError::Server {
                retryable: true,
                code,
                message,
            }) => {
                // Retryable is not always retry-here: a READ_ONLY bounce
                // means we are pointed at a replica, and retrying would
                // loop forever. The error code disambiguates.
                if code == err_code::READ_ONLY {
                    panic!("transfer rejected as read-only (wrong endpoint?): {message}");
                }
                retried.fetch_add(1, Ordering::Relaxed);
            }
            // Frozen/retired table: the phase just flipped under us.
            Err(ClientError::Server { .. }) => return false,
            Err(e) => panic!("transport failure during transfer: {e}"),
        }
    }
    false
}

fn try_transfer(
    client: &mut Client,
    table: &str,
    a: i64,
    b: i64,
    commit_sql: &str,
) -> Result<bool, ClientError> {
    client.execute("BEGIN")?;
    let debited = client.execute(&format!(
        "UPDATE {table} SET balance = balance - 7 WHERE id = {a}"
    ))?;
    let credited = client.execute(&format!(
        "UPDATE {table} SET balance = balance + 7 WHERE id = {b}"
    ))?;
    // Both rows exist for the table's whole lifetime, so each UPDATE
    // must match exactly one row; a half-matched transfer would destroy
    // balance, so refuse to commit it.
    if debited != credited {
        let _ = client.execute("ROLLBACK");
        panic!("transfer matched {debited} debit rows but {credited} credit rows (table {table}, {a}->{b})");
    }
    client.execute(commit_sql)?;
    Ok(debited > 0)
}

/// Scans with bounded retries: a worker's X lock can time a scan out.
fn scan_retry(client: &mut Client, sql: &str) -> Vec<bullfrog_common::Row> {
    let mut last = None;
    for _ in 0..20 {
        match client.query_rows(sql) {
            Ok((_, rows)) => return rows,
            Err(ClientError::Server {
                retryable: true,
                message,
                ..
            }) => last = Some(message),
            Err(e) => panic!("{sql} failed: {e}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("{sql} kept timing out: {last:?}");
}

fn fatal_if_transport(e: ClientError) -> ClientError {
    if matches!(e, ClientError::Io(_) | ClientError::Protocol(_)) {
        panic!("transport failure: {e}");
    }
    e
}

/// Polls `STATUS` until the active migration reports complete.
fn wait_complete(admin: &mut Client, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let status = admin.status().expect("status poll");
        if stat(&status, "migration.active") == 0 || stat(&status, "migration.complete") == 1 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "migration did not complete within {timeout:?}: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn stat(pairs: &[(String, i64)], key: &str) -> i64 {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("STATUS is missing {key}"))
}

// ---------------------------------------------------------------------------
// --timeline: the per-second latency timeline across mid-traffic
// migrations, both engine modes in one invocation.
// ---------------------------------------------------------------------------

/// Runs the migration scenario under both engine modes, bucketing every
/// statement bracket's latency into 1-second [`bullfrog_obs::Histogram`]
/// slots, and emits the per-second p50/p99 timeline — with markers at
/// migration submit/complete/finalize — to `target/BENCH_obs.json`
/// (override with `BENCH_OBS_JSON`). Self-asserts that the slots
/// spanning each migration window carry a nonzero p99: the timeline is
/// only evidence if traffic actually overlapped the migration.
fn run_timeline(args: &Args, started: Instant) {
    let mut reports = Vec::new();
    for mode in [EngineMode::TwoPL, EngineMode::Snapshot] {
        reports.push(run_timeline_mode(args, mode));
        println!(
            "loadgen: timeline for {} captured at {:?}",
            mode.as_str(),
            started.elapsed()
        );
    }
    let path =
        std::env::var("BENCH_OBS_JSON").unwrap_or_else(|_| "target/BENCH_obs.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"obs_timeline\",\n  \"seed\": {},\n  \"clients\": {},\n  \
         \"accounts\": {},\n  \"modes\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.clients,
        args.accounts,
        reports.join(",\n")
    );
    if let Some(parent) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &json).expect("write BENCH_obs.json");
    println!(
        "loadgen: timeline written to {path} in {:?}",
        started.elapsed()
    );
}

/// One engine mode's timeline run; returns its JSON object fragment.
fn run_timeline_mode(args: &Args, mode: EngineMode) -> String {
    /// Per-second slots; a run past the last slot clamps into it rather
    /// than losing samples.
    const SLOTS: usize = 120;
    let db = Arc::new(Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    }));
    let bf = Arc::new(Bullfrog::new(db));
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Arc::clone(&bf),
        ServerConfig {
            max_connections: args.clients + 8,
            idle_timeout: Duration::from_secs(30),
            statement_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind timeline loopback");
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .execute("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
        .expect("create accounts");
    for chunk in (0..args.accounts).collect::<Vec<_>>().chunks(64) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, 'o{}', {INITIAL_BALANCE})", i % args.owners))
            .collect();
        admin
            .execute(&format!(
                "INSERT INTO accounts VALUES {}",
                values.join(", ")
            ))
            .expect("load accounts");
    }

    let run0 = Instant::now();
    let slots: Arc<Vec<bullfrog_obs::Histogram>> =
        Arc::new((0..SLOTS).map(|_| bullfrog_obs::Histogram::new()).collect());
    let commit_sql: &'static str = if args.nowait {
        "COMMIT NOWAIT"
    } else {
        "COMMIT"
    };
    let phase = Arc::new(AtomicUsize::new(PHASE_OLD));
    let committed = Arc::new(AtomicU64::new(0));
    let retried = Arc::new(AtomicU64::new(0));
    let paused = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for w in 0..args.clients {
        let phase = Arc::clone(&phase);
        let committed = Arc::clone(&committed);
        let retried = Arc::clone(&retried);
        let paused = Arc::clone(&paused);
        let slots = Arc::clone(&slots);
        let accounts = args.accounts;
        let owners = args.owners;
        let seed = args.seed;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w as u64));
            let mut client = Client::connect(addr).expect("worker connect");
            let record = |slots: &[bullfrog_obs::Histogram], t0: Instant| {
                let slot = (run0.elapsed().as_secs() as usize).min(SLOTS - 1);
                slots[slot].record_micros(t0.elapsed());
            };
            let mut acked_pause = false;
            loop {
                match phase.load(Ordering::Acquire) {
                    PHASE_DONE => break,
                    PHASE_PAUSE => {
                        if !acked_pause {
                            acked_pause = true;
                            paused.fetch_add(1, Ordering::AcqRel);
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    PHASE_TOTALS => {
                        let o = rng.gen_range(0..owners);
                        let t0 = Instant::now();
                        let _ = client
                            .query_rows(&format!(
                                "SELECT owner, total FROM owner_totals WHERE owner = 'o{o}'"
                            ))
                            .map_err(fatal_if_transport);
                        record(&slots, t0);
                    }
                    p => {
                        let table = if p == PHASE_OLD {
                            "accounts"
                        } else {
                            "accounts_v2"
                        };
                        let a = rng.gen_range(0..accounts);
                        let b = (a + 1 + rng.gen_range(0..accounts - 1)) % accounts;
                        let t0 = Instant::now();
                        if transfer(&mut client, table, a, b, commit_sql, &retried) {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        record(&slots, t0);
                    }
                }
            }
        }));
    }

    // Let pre-migration traffic cross at least one slot boundary so the
    // timeline has a "before" baseline.
    std::thread::sleep(Duration::from_millis(1100));
    let m1_submit = run0.elapsed().as_secs_f64();
    admin
        .execute(
            "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) \
             PRIMARY KEY (id)",
        )
        .expect("submit 1:1 migration");
    phase.store(PHASE_NEW, Ordering::Release);
    wait_complete(&mut admin, Duration::from_secs(20));
    let m1_complete = run0.elapsed().as_secs_f64();
    phase.store(PHASE_PAUSE, Ordering::Release);
    while paused.load(Ordering::Acquire) < args.clients {
        std::thread::sleep(Duration::from_millis(2));
    }
    admin
        .execute("FINALIZE MIGRATION DROP OLD")
        .expect("finalize 1:1");
    let m1_finalize = run0.elapsed().as_secs_f64();

    let m2_submit = run0.elapsed().as_secs_f64();
    admin
        .execute(
            "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
             FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)",
        )
        .expect("submit n:1 migration");
    phase.store(PHASE_TOTALS, Ordering::Release);
    wait_complete(&mut admin, Duration::from_secs(20));
    let m2_complete = run0.elapsed().as_secs_f64();
    admin.execute("FINALIZE MIGRATION").expect("finalize n:1");
    let m2_finalize = run0.elapsed().as_secs_f64();
    // A short post-migration tail gives the timeline an "after" edge.
    std::thread::sleep(Duration::from_millis(300));
    phase.store(PHASE_DONE, Ordering::Release);
    for h in handles {
        h.join().expect("timeline worker");
    }

    // Server-side evidence from METRICS: the migration-phase histograms
    // that only the registry sees.
    let snap = admin.metrics().expect("metrics snapshot");
    let hist_p99 = |name: &str| snap.histogram(name).map_or(0, |h| h.quantile(0.99));
    let hist_count = |name: &str| snap.histogram(name).map_or(0, |h| h.count());
    admin.shutdown_server().expect("shutdown opcode");
    server.shutdown();

    // Per-second rows, skipping empty slots past the run's end.
    let mut rows = Vec::new();
    for (s, h) in slots.iter().enumerate() {
        let snap = h.snapshot();
        if snap.count() == 0 {
            continue;
        }
        rows.push(format!(
            "        {{\"s\": {s}, \"count\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
            snap.count(),
            snap.quantile(0.50),
            snap.quantile(0.99)
        ));
    }

    let m1_p99 = window_p99(&slots, m1_submit, m1_complete);
    let m2_p99 = window_p99(&slots, m2_submit, m2_complete);
    assert!(
        m1_p99 > 0,
        "no traffic latency recorded inside the 1:1 migration window ({})",
        mode.as_str()
    );
    assert!(
        m2_p99 > 0,
        "no traffic latency recorded inside the n:1 migration window ({})",
        mode.as_str()
    );
    println!(
        "loadgen: {} timeline — {} commits, 1:1 window p99 {}us, n:1 window p99 {}us, \
         granule p99 {}us ({} granules)",
        mode.as_str(),
        committed.load(Ordering::Relaxed),
        m1_p99,
        m2_p99,
        hist_p99("migrate.granule_us"),
        hist_count("migrate.granule_us"),
    );

    format!(
        "    {{\n      \"mode\": \"{}\",\n      \"committed\": {},\n      \"retried\": {},\n      \
         \"markers_s\": {{\"m1_submit\": {m1_submit:.3}, \"m1_complete\": {m1_complete:.3}, \
         \"m1_finalize\": {m1_finalize:.3}, \"m2_submit\": {m2_submit:.3}, \
         \"m2_complete\": {m2_complete:.3}, \"m2_finalize\": {m2_finalize:.3}}},\n      \
         \"m1_window_p99_us\": {m1_p99},\n      \"m2_window_p99_us\": {m2_p99},\n      \
         \"server\": {{\"commit_p99_us\": {}, \"granule_p99_us\": {}, \"granule_count\": {}, \
         \"finalize_p99_us\": {}, \"flip_p99_us\": {}}},\n      \"timeline\": [\n{}\n      ]\n    }}",
        mode.as_str(),
        committed.load(Ordering::Relaxed),
        retried.load(Ordering::Relaxed),
        hist_p99("engine.commit_us"),
        hist_p99("migrate.granule_us"),
        hist_count("migrate.granule_us"),
        hist_p99("migrate.finalize_us"),
        hist_p99("migrate.flip_us"),
        rows.join(",\n")
    )
}

/// The merged p99 of every 1-second slot the `[from_s, to_s]` window
/// touches (slot granularity is the timeline's resolution, so the
/// window rounds outward to whole slots).
fn window_p99(slots: &[bullfrog_obs::Histogram], from_s: f64, to_s: f64) -> u64 {
    let lo = (from_s.floor() as usize).min(slots.len() - 1);
    let hi = (to_s.floor() as usize).min(slots.len() - 1);
    let mut merged: Option<bullfrog_obs::HistogramSnapshot> = None;
    for h in &slots[lo..=hi] {
        let snap = h.snapshot();
        match &mut merged {
            Some(m) => m.merge(&snap),
            None => merged = Some(snap),
        }
    }
    merged.map_or(0, |m| m.quantile(0.99))
}

// ---------------------------------------------------------------------------
// --connections N: the high-connection network scenario.
// ---------------------------------------------------------------------------

/// Serve-only child for [`run_net`]: binds a loopback server sized for
/// the parent's connection count, announces the address on stdout, and
/// blocks until a remote `SHUTDOWN`.
fn run_serve(args: &Args) {
    use std::io::Write as _;
    let db = Arc::new(Database::with_config(DbConfig {
        mode: args.mode,
        ..DbConfig::default()
    }));
    let bf = Arc::new(Bullfrog::new(db));
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        bf,
        ServerConfig {
            max_connections: args.connections + 128,
            // Parked connections sit idle for the whole measurement;
            // the sweep must not reap them mid-run.
            idle_timeout: Duration::from_secs(300),
            statement_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    println!("loadgen: serving on {}", server.local_addr());
    std::io::stdout().flush().expect("flush addr line");
    server.wait_shutdown();
}

/// Parks `--connections` mostly-idle sessions against a serve-only
/// child process, runs a bounded worker set of point reads (optionally
/// `--prepared` and/or `--pipeline`d), reports p50/p99, and then proves
/// zero dropped sessions by running one statement on every parked
/// connection.
///
/// The child process exists for fd arithmetic: every loopback
/// connection costs one fd on each end, so 10k connections need 20k
/// fds — exactly a typical `ulimit -n` — and splitting server from
/// client gives each side its own budget.
fn run_net(args: &Args, started: Instant) {
    use std::io::BufRead as _;
    let n = args.connections;
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(&exe)
        .args([
            "--serve",
            "--connections",
            &n.to_string(),
            "--engine-mode",
            args.mode.as_str(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve-only child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr: std::net::SocketAddr = loop {
        let line = lines
            .next()
            .expect("serve child exited before announcing its address")
            .expect("read serve child stdout");
        if let Some(rest) = line.strip_prefix("loadgen: serving on ") {
            break rest.trim().parse().expect("parse child address");
        }
    };
    println!(
        "loadgen: net scenario on {addr} ({n} connections, {} workers, prepared={}, pipeline={}, {} engine)",
        args.clients.clamp(1, 64),
        args.prepared,
        args.pipeline,
        args.mode.as_str()
    );

    let mut admin = Client::connect(addr).expect("admin connect");
    admin
        .execute("CREATE TABLE kv (id INT, v INT, PRIMARY KEY (id))")
        .expect("create kv");
    let keys: i64 = 1024;
    for chunk in (0..keys).collect::<Vec<_>>().chunks(64) {
        let values: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i * 3)).collect();
        admin
            .execute(&format!("INSERT INTO kv VALUES {}", values.join(", ")))
            .expect("load kv");
    }

    // Park the herd. Readiness-driven serving is the whole point: these
    // connections must cost (almost) nothing while idle.
    let mut parked: Vec<Client> = Vec::with_capacity(n);
    for i in 0..n {
        match Client::connect(addr) {
            Ok(c) => parked.push(c),
            Err(e) => panic!("connection {i}/{n} failed to park: {e}"),
        }
    }
    println!(
        "loadgen: parked {} idle connections at {:?}",
        parked.len(),
        started.elapsed()
    );

    // Bounded worker set: latency must not degrade just because the
    // parked herd exists.
    let workers = args.clients.clamp(1, 64);
    let per_worker_ops = args.ops.max(1) * 16;
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for w in 0..workers {
        let latencies = Arc::clone(&latencies);
        let prepared = args.prepared;
        let pipeline = args.pipeline;
        let seed = args.seed;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w as u64));
            let mut client = Client::connect(addr).expect("worker connect");
            if prepared {
                let n_params = client
                    .prepare(1, "SELECT v FROM kv WHERE id = ?")
                    .expect("prepare point read");
                assert_eq!(n_params, 1);
            }
            let mut local = Vec::with_capacity(per_worker_ops);
            let mut remaining = per_worker_ops;
            while remaining > 0 {
                let batch = if pipeline { remaining.min(16) } else { 1 };
                let ids: Vec<i64> = (0..batch).map(|_| rng.gen_range(0..keys)).collect();
                let t0 = Instant::now();
                match (prepared, pipeline) {
                    (true, true) => {
                        let rows: Vec<bullfrog_common::Row> = ids
                            .iter()
                            .map(|id| bullfrog_common::Row(vec![Value::Int(*id)]))
                            .collect();
                        for reply in client
                            .pipeline_execute(1, &rows)
                            .expect("pipelined execute")
                        {
                            reply.expect("point read");
                        }
                    }
                    (true, false) => {
                        client
                            .execute_prepared(1, bullfrog_common::Row(vec![Value::Int(ids[0])]))
                            .expect("prepared point read");
                    }
                    (false, true) => {
                        let sqls: Vec<String> = ids
                            .iter()
                            .map(|id| format!("SELECT v FROM kv WHERE id = {id}"))
                            .collect();
                        for reply in client.pipeline(&sqls).expect("pipelined batch") {
                            reply.expect("point read");
                        }
                    }
                    (false, false) => {
                        client
                            .query_rows(&format!("SELECT v FROM kv WHERE id = {}", ids[0]))
                            .expect("point read");
                    }
                }
                // Per-statement latency; a pipelined batch amortizes
                // its single round trip across the batch.
                let per_stmt = (t0.elapsed().as_micros() as u64) / batch as u64;
                local.extend(std::iter::repeat_n(per_stmt, batch));
                remaining -= batch;
            }
            latencies.lock().extend(local);
        }));
    }
    for h in handles {
        h.join().expect("net worker");
    }
    let mut lat = latencies.lock().clone();
    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    println!(
        "loadgen: {} statements, p50 {}us, p99 {}us at {:?}",
        lat.len(),
        pct(0.50),
        pct(0.99),
        started.elapsed()
    );

    // Zero dropped sessions: every parked connection must still answer
    // a statement. This also drags 10k sockets through one more
    // readiness cycle each.
    for (i, c) in parked.iter_mut().enumerate() {
        let (_, rows) = c
            .query_rows("SELECT v FROM kv WHERE id = 7")
            .unwrap_or_else(|e| panic!("parked connection {i} was dropped: {e}"));
        assert_eq!(rows.len(), 1);
    }
    println!(
        "loadgen: all {} parked connections still answer at {:?}",
        parked.len(),
        started.elapsed()
    );

    let status = admin.status().expect("status");
    for key in [
        "server.active_sessions",
        "server.parked_connections",
        "server.pool_workers",
        "server.pool_idle",
        "server.accepted",
        "server.rejected",
        "server.accept_errors",
        "sessions.statements",
    ] {
        println!("loadgen:   {key} = {}", stat(&status, key));
    }
    assert_eq!(
        stat(&status, "server.rejected"),
        0,
        "sessions were turned away"
    );
    assert_eq!(
        stat(&status, "server.accept_errors"),
        0,
        "accept loop saw errors"
    );
    // Parked herd + admin; workers have disconnected by now but their
    // sockets may still be draining, so bound from below only.
    assert!(
        stat(&status, "server.active_sessions") >= (n + 1) as i64,
        "parked sessions went missing from STATUS"
    );

    drop(parked);
    admin.shutdown_server().expect("shutdown opcode");
    let code = child.wait().expect("reap serve child");
    assert!(code.success(), "serve child exited with {code}");
    println!("loadgen: net scenario done in {:?}", started.elapsed());
}

// ---------------------------------------------------------------------------
// --cluster N: the shared-nothing scenario.
// ---------------------------------------------------------------------------

/// Runs the whole loadgen scenario against an N-node loopback cluster:
///
/// 1. create `accounts` on every node, load it with routed single-key
///    inserts (each row lands on its hash owner);
/// 2. exercise the `WRONG_SHARD` recovery path with a deliberately
///    rotated (stale) shard map before traffic starts;
/// 3. race the workers — same-node transfer pairs, every acked commit
///    recorded in a per-account ledger — against a mid-traffic
///    two-phase 1:1 cluster flip;
/// 4. verify exactly-once cluster-wide (summed `rows_migrated`, zero
///    conflict skips/drops) and zero lost acked commits (every final
///    balance equals `INITIAL_BALANCE` plus the ledger's delta);
/// 5. race point-readers against the cross-node n:1 GROUP BY flip and
///    its aggregate exchange;
/// 6. check the final scatter-gathered `owner_totals` byte-identical to
///    a single-node oracle fed the same frozen `accounts_v2` rows.
fn run_cluster(args: &Args, started: Instant) {
    let n = args.cluster;
    assert!(n >= 2, "--cluster needs at least 2 nodes to shard anything");
    let mut cluster = LocalCluster::start(n, args.mode).expect("start loopback cluster");
    let mut coord = Coordinator::connect(&cluster.addrs()).expect("coordinator connect");
    println!(
        "loadgen: {n}-node cluster up ({} clients, {} engine, shard map v{})",
        args.clients,
        args.mode.as_str(),
        coord.map().version
    );
    coord
        .execute_all("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
        .expect("create accounts everywhere");

    // Routed load: one statement per row so each insert can go to the
    // key's owner.
    let mut router = ClusterClient::connect(&cluster.addrs()[0]).expect("routing client");
    for id in 0..args.accounts {
        router
            .execute_key(
                &[Value::Int(id)],
                &format!(
                    "INSERT INTO accounts VALUES ({id}, 'o{}', {INITIAL_BALANCE})",
                    id % args.owners
                ),
            )
            .expect("routed load");
    }
    let map = router.map().clone();
    let mut per_node: Vec<Vec<i64>> = vec![Vec::new(); n];
    for id in 0..args.accounts {
        per_node[map.owner_of(&[Value::Int(id)])].push(id);
    }
    for (i, ids) in per_node.iter().enumerate() {
        assert!(
            ids.len() >= 2,
            "node {i} owns {} accounts; raise --accounts so every node can host transfers",
            ids.len()
        );
    }

    // Satellite: a client with a stale (rotated) map must recover by
    // re-fetching on WRONG_SHARD, never by retrying the same node.
    let mut rotated_nodes = map.nodes.clone();
    rotated_nodes.rotate_left(1);
    let mut stale = ClusterClient::with_map(ShardMap {
        version: 0,
        nodes: rotated_nodes,
    });
    for id in 0..(args.owners.min(8)) {
        stale
            .query_key(
                &[Value::Int(id)],
                &format!("SELECT balance FROM accounts WHERE id = {id}"),
            )
            .expect("stale-map read");
    }
    assert!(
        stale.wrong_shard_refetches >= 1,
        "the rotated map never bounced — WRONG_SHARD path not exercised"
    );
    assert_eq!(
        stale.map().nodes,
        map.nodes,
        "stale client converged on the wrong map"
    );
    println!(
        "loadgen: stale-map client recovered via {} WRONG_SHARD re-fetch(es) at {:?}",
        stale.wrong_shard_refetches,
        started.elapsed()
    );

    // Workers: same-node transfer pairs (a distributed transaction
    // would need a cross-node commit protocol, which the shard map
    // deliberately avoids: route whole transactions instead). Every
    // acked commit lands in the ledger; the final scan must account
    // for each one.
    let commit_sql: &'static str = if args.nowait {
        "COMMIT NOWAIT"
    } else {
        "COMMIT"
    };
    let phase = Arc::new(AtomicUsize::new(PHASE_OLD));
    let committed = Arc::new(AtomicU64::new(0));
    let retried = Arc::new(AtomicU64::new(0));
    let paused = Arc::new(AtomicUsize::new(0));
    let ledger: Arc<Vec<std::sync::atomic::AtomicI64>> = Arc::new(
        (0..args.accounts)
            .map(|_| std::sync::atomic::AtomicI64::new(0))
            .collect(),
    );
    let mut handles = Vec::new();
    for w in 0..args.clients {
        let phase = Arc::clone(&phase);
        let committed = Arc::clone(&committed);
        let retried = Arc::clone(&retried);
        let paused = Arc::clone(&paused);
        let ledger = Arc::clone(&ledger);
        let my_node = w % n;
        let my_accounts = per_node[my_node].clone();
        let addr = map.nodes[my_node].clone();
        let worker_map = map.clone();
        let owners = args.owners;
        let ops = args.ops;
        let seed = args.seed;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w as u64));
            let mut client = Client::connect(addr.as_str()).expect("worker connect");
            let mut reader: Option<ClusterClient> = None;
            let mut acked_pause = false;
            loop {
                match phase.load(Ordering::Acquire) {
                    PHASE_DONE => break,
                    PHASE_PAUSE => {
                        if !acked_pause {
                            acked_pause = true;
                            paused.fetch_add(1, Ordering::AcqRel);
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    PHASE_TOTALS => {
                        // Routed point reads race the n:1 flip and its
                        // exchange; FLIP_PENDING bounces back off in
                        // the client, and reads before the flip (no
                        // owner_totals yet) or past the retry budget
                        // are simply dropped.
                        let reader = reader
                            .get_or_insert_with(|| ClusterClient::with_map(worker_map.clone()));
                        let o = rng.gen_range(0..owners);
                        let _ = reader.query_key(
                            &[Value::Text(format!("o{o}"))],
                            &format!("SELECT owner, total FROM owner_totals WHERE owner = 'o{o}'"),
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    p => {
                        let table = if p == PHASE_OLD {
                            "accounts"
                        } else {
                            "accounts_v2"
                        };
                        let a = my_accounts[rng.gen_range(0..my_accounts.len() as i64) as usize];
                        let b = loop {
                            let b =
                                my_accounts[rng.gen_range(0..my_accounts.len() as i64) as usize];
                            if b != a {
                                break b;
                            }
                        };
                        if transfer(&mut client, table, a, b, commit_sql, &retried) {
                            committed.fetch_add(1, Ordering::Relaxed);
                            ledger[a as usize].fetch_sub(7, Ordering::Relaxed);
                            ledger[b as usize].fetch_add(7, Ordering::Relaxed);
                        }
                    }
                }
                if rng.gen_bool(1.0 / ops.max(1) as f64) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }));
    }

    // Mid-traffic two-phase 1:1 flip. Workers bounce off FLIP_PENDING
    // during the prepare→commit window (counted as retries), then fail
    // over to the new table when the phase flips.
    std::thread::sleep(Duration::from_millis(150));
    let specs = coord
        .migrate(
            "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) \
             PRIMARY KEY (id)",
        )
        .expect("1:1 cluster flip");
    assert!(specs.is_empty(), "1:1 migration owes no exchange");
    phase.store(PHASE_NEW, Ordering::Release);
    println!(
        "loadgen: 1:1 cluster flip committed on {n} nodes at {:?}, workers flipped",
        started.elapsed()
    );

    assert!(
        coord
            .wait_all_complete(Duration::from_secs(30))
            .expect("poll cluster migration"),
        "1:1 lazy migration never drained on every node"
    );
    let status = coord.aggregate_status().expect("cluster status");
    let rows_migrated = bullfrog_cluster::coordinator::stat(&status, "migration.rows_migrated");
    let conflict_skips = bullfrog_cluster::coordinator::stat(&status, "migration.conflict_skips");
    let rows_dropped = bullfrog_cluster::coordinator::stat(&status, "migration.rows_dropped");
    // Granule-progress gauges, sampled while the migration runtime is
    // still live (FINALIZE retires it, zeroing them).
    let granules_done = bullfrog_cluster::coordinator::stat(&status, "migration.granules_done");
    let granules_total = bullfrog_cluster::coordinator::stat(&status, "migration.granules_total");
    // `total` counts the tracker's full capacity (rounded up past the
    // occupied rows), so a drained migration reports done <= total.
    assert!(
        granules_done > 0 && granules_done <= granules_total,
        "granule gauges inconsistent: {granules_done}/{granules_total}"
    );
    assert_eq!(
        rows_migrated, args.accounts,
        "cluster exactly-once violated: {rows_migrated} rows migrated for {} sources",
        args.accounts
    );
    assert_eq!(conflict_skips, 0, "duplicate migration attempts detected");
    assert_eq!(rows_dropped, 0, "migration dropped rows");
    coord.run_exchange(&specs).expect("release 1:1 hold");

    // Quiesce, then settle the books: every acked commit must be in the
    // final balances (zero lost acked commits), nothing else may be.
    phase.store(PHASE_PAUSE, Ordering::Release);
    while paused.load(Ordering::Acquire) < args.clients {
        std::thread::sleep(Duration::from_millis(2));
    }
    coord.finalize_all(true).expect("finalize 1:1");
    let (_, mut frozen) = router
        .scatter_rows("SELECT id, owner, balance FROM accounts_v2")
        .expect("scatter accounts_v2");
    frozen.sort_by_key(|r| r.0[0].as_i64().unwrap());
    assert_eq!(frozen.len() as i64, args.accounts, "row count changed");
    let mut total = 0;
    for row in &frozen {
        let id = row.0[0].as_i64().unwrap();
        let balance = row.0[2].as_i64().unwrap();
        let expected = INITIAL_BALANCE + ledger[id as usize].load(Ordering::Acquire);
        assert_eq!(
            balance, expected,
            "acked commit lost (or phantom write) on account {id}: \
             balance {balance}, ledger says {expected}"
        );
        total += balance;
    }
    assert_eq!(
        total,
        args.accounts * INITIAL_BALANCE,
        "transfers must conserve total balance"
    );
    println!(
        "loadgen: cluster 1:1 exactly-once + ledger verified ({} rows, total {total}) at {:?}",
        frozen.len(),
        started.elapsed()
    );

    // Single-node oracle: the same frozen rows through the same GROUP
    // BY migration on one plain node.
    let oracle_totals = cluster_oracle_totals(args, &frozen);

    // The cross-node n:1 flip, raced by the point-readers.
    phase.store(PHASE_TOTALS, Ordering::Release);
    let specs = coord
        .migrate(
            "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
             FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)",
        )
        .expect("n:1 cluster flip");
    assert_eq!(specs.len(), 1, "one aggregate output table");
    assert!(
        coord
            .wait_all_complete(Duration::from_secs(30))
            .expect("poll cluster migration"),
        "n:1 lazy migration never drained on every node"
    );
    let moved = coord.run_exchange(&specs).expect("aggregate exchange");
    coord.finalize_all(false).expect("finalize n:1");
    println!(
        "loadgen: n:1 cluster flip + exchange done ({moved} partials moved) at {:?}",
        started.elapsed()
    );

    let (_, totals) = router
        .scatter_rows("SELECT owner, total FROM owner_totals")
        .expect("scatter owner_totals");
    let mut sorted_totals = totals.clone();
    sorted_totals.sort_by_key(|r| format!("{r:?}"));
    assert_eq!(
        totals.len() as i64,
        args.owners,
        "one merged group per owner"
    );
    let grand: i64 = totals.iter().map(|r| r.0[1].as_i64().unwrap()).sum();
    assert_eq!(
        grand,
        args.accounts * INITIAL_BALANCE,
        "aggregation must conserve total balance"
    );
    assert_eq!(
        format!("{sorted_totals:?}"),
        format!("{oracle_totals:?}"),
        "distributed owner_totals diverged from the single-node oracle"
    );
    println!(
        "loadgen: scatter-gathered owner_totals byte-identical to the single-node oracle at {:?}",
        started.elapsed()
    );

    phase.store(PHASE_DONE, Ordering::Release);
    for h in handles {
        h.join().expect("worker");
    }

    // Cluster-level summary gauges (per-node counters summed; topology
    // gauges are cluster-wide constants).
    let status = coord.aggregate_status().expect("final cluster status");
    let gauge = |k: &str| bullfrog_cluster::coordinator::stat(&status, k);
    println!(
        "loadgen: {} transfers committed, {} retries, {} statements across the cluster",
        committed.load(Ordering::Relaxed),
        retried.load(Ordering::Relaxed),
        gauge("sessions.statements"),
    );
    println!(
        "loadgen: cluster.nodes = {}, cluster.shardmap_version = {}, \
         cluster.migration.granules_done = {granules_done}, \
         cluster.migration.granules_total = {granules_total}",
        gauge("cluster.nodes"),
        gauge("cluster.shardmap_version"),
    );
    println!(
        "loadgen: cluster.wrong_shard_rejects = {}, cluster.flip_pending_rejects = {}",
        gauge("cluster.wrong_shard_rejects"),
        gauge("cluster.flip_pending_rejects"),
    );
    assert_eq!(gauge("cluster.nodes"), n as i64);
    assert!(
        gauge("cluster.wrong_shard_rejects") >= 1,
        "the stale-map burst must have registered server-side"
    );

    cluster.shutdown();
    println!("loadgen: cluster done in {:?}", started.elapsed());
}

/// Replays the frozen `accounts_v2` rows through the GROUP BY migration
/// on one plain (cluster-less) node and returns its sorted
/// `owner_totals` — the oracle the distributed run must match
/// byte-for-byte.
fn cluster_oracle_totals(
    args: &Args,
    frozen: &[bullfrog_common::Row],
) -> Vec<bullfrog_common::Row> {
    let db = Arc::new(Database::with_config(DbConfig {
        mode: args.mode,
        ..DbConfig::default()
    }));
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(Bullfrog::new(db)),
        ServerConfig::default(),
    )
    .expect("bind oracle");
    let mut admin = Client::connect(server.local_addr()).expect("oracle connect");
    admin
        .execute("CREATE TABLE accounts_v2 (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
        .expect("oracle create");
    for chunk in frozen.chunks(64) {
        let values: Vec<String> = chunk
            .iter()
            .map(|r| {
                format!(
                    "({}, {}, {})",
                    bullfrog_cluster::coordinator::sql_lit(&r.0[0]),
                    bullfrog_cluster::coordinator::sql_lit(&r.0[1]),
                    bullfrog_cluster::coordinator::sql_lit(&r.0[2]),
                )
            })
            .collect();
        admin
            .execute(&format!(
                "INSERT INTO accounts_v2 VALUES {}",
                values.join(", ")
            ))
            .expect("oracle load");
    }
    admin
        .execute(
            "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
             FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)",
        )
        .expect("oracle flip");
    wait_complete(&mut admin, Duration::from_secs(30));
    admin
        .execute("FINALIZE MIGRATION")
        .expect("oracle finalize");
    let (_, mut totals) = admin
        .query_rows("SELECT owner, total FROM owner_totals")
        .expect("oracle scan");
    totals.sort_by_key(|r| format!("{r:?}"));
    server.shutdown();
    totals
}

// ---------------------------------------------------------------------------
// --failover: the HA end-state proof.
// ---------------------------------------------------------------------------

/// A spawned repld child, killed on drop so a panicking assertion never
/// leaks daemon processes.
struct RepldChild {
    name: &'static str,
    child: Option<std::process::Child>,
}

impl RepldChild {
    fn spawn(repld: &std::path::Path, name: &'static str, args: &[&str]) -> RepldChild {
        let child = std::process::Command::new(repld)
            .args(args)
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name} ({}): {e}", repld.display()));
        RepldChild {
            name,
            child: Some(child),
        }
    }

    /// SIGKILL — the unclean death failover must survive.
    fn kill(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// Reap after a graceful remote shutdown.
    fn wait(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.wait();
        }
    }
}

impl Drop for RepldChild {
    fn drop(&mut self) {
        if self.child.is_some() {
            eprintln!("loadgen: cleaning up leaked {} child", self.name);
            self.kill();
        }
    }
}

/// Reserves a loopback port by binding and immediately releasing it —
/// the child process re-binds it a moment later.
fn free_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

/// The repld binary next to this one (both live in target/<profile>/).
fn repld_path() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current exe");
    exe.parent()
        .expect("exe dir")
        .join(format!("repld{}", std::env::consts::EXE_SUFFIX))
}

fn wait_serving(addr: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        if Client::connect(addr).is_ok() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{addr} never started serving within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls an address's `STATUS` until `key` satisfies `pred`.
fn wait_stat(addr: &str, key: &str, timeout: Duration, pred: impl Fn(i64) -> bool) {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(status) = c.status() {
                let v = status
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                if pred(v) {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "{addr} never reached the wanted {key} within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One failover-safe transfer: a fresh `tid` per attempt (an ambiguous
/// `COMMIT` may have applied, so a retry must never collide in
/// `txlog`), the whole bracket restarted on re-route. Returns the
/// acked transfer's tid, or `None` when it never (observably)
/// committed.
fn transfer_ha(
    fc: &mut FailoverClient,
    table: &str,
    a: i64,
    b: i64,
    tids: &AtomicI64,
) -> Option<i64> {
    fc.with_retry(25, |c| {
        let tid = tids.fetch_add(1, Ordering::Relaxed);
        c.execute("BEGIN")?;
        let debited = c.execute(&format!(
            "UPDATE {table} SET balance = balance - 7 WHERE id = {a}"
        ))?;
        let credited = c.execute(&format!(
            "UPDATE {table} SET balance = balance + 7 WHERE id = {b}"
        ))?;
        if debited != credited {
            let _ = c.execute("ROLLBACK");
            panic!("transfer matched {debited} debit rows but {credited} credit rows ({a}->{b})");
        }
        if debited == 0 {
            let _ = c.execute("ROLLBACK");
            return Ok(None);
        }
        c.execute(&format!("INSERT INTO txlog VALUES ({tid}, {a}, {b})"))?;
        c.execute("COMMIT")?;
        Ok(Some(tid))
    })
    .ok()
    .flatten()
}

/// Polls the migration gauges through a failover-aware client.
fn wait_complete_ha(fc: &mut FailoverClient, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let status = fc.status().expect("status poll");
        if stat(&status, "migration.active") == 0 || stat(&status, "migration.complete") == 1 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "migration did not complete within {timeout:?}: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Kill the primary mid-migration; prove the replica promotes, the
/// migration finishes on the survivor, and no acked commit is lost.
fn run_failover(args: &Args, started: Instant) {
    let repld = repld_path();
    assert!(
        repld.exists(),
        "repld not found at {} — build it first (cargo build -p bullfrog-ha)",
        repld.display()
    );
    let scratch = std::env::temp_dir().join(format!("bf-loadgen-ha-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    for sub in ["primary", "replica", "witness"] {
        std::fs::create_dir_all(scratch.join(sub)).expect("create HA scratch dirs");
    }
    let (p_addr, r_addr, w_addr) = (free_addr(), free_addr(), free_addr());
    let members = vec![p_addr.clone(), r_addr.clone(), w_addr.clone()];
    let member_list = members.join(",");
    let lease_ms = "800";

    let mut primary = RepldChild::spawn(
        &repld,
        "primary",
        &[
            "primary",
            "--listen",
            &p_addr,
            "--wal-dir",
            scratch.join("primary").to_str().unwrap(),
            "--ha-self",
            &p_addr,
            "--ha-members",
            &member_list,
            "--lease-ms",
            lease_ms,
            "--sync-replicas",
            "1",
            "--sync-policy",
            "block",
        ],
    );
    let mut replica = RepldChild::spawn(
        &repld,
        "replica",
        &[
            "replica",
            "--listen",
            &r_addr,
            "--primary",
            &p_addr,
            "--wal-dir",
            scratch.join("replica").to_str().unwrap(),
            "--ha-self",
            &r_addr,
            "--ha-members",
            &member_list,
            "--lease-ms",
            lease_ms,
        ],
    );
    let mut witness = RepldChild::spawn(
        &repld,
        "witness",
        &[
            "witness",
            "--listen",
            &w_addr,
            "--wal-dir",
            scratch.join("witness").to_str().unwrap(),
            "--ha-self",
            &w_addr,
            "--ha-members",
            &member_list,
            "--lease-ms",
            lease_ms,
        ],
    );
    for addr in [&p_addr, &r_addr, &w_addr] {
        wait_serving(addr, Duration::from_secs(10));
    }
    // SYNC_REPLICAS 1 + BLOCK: no commit acks until the replica is
    // subscribed and acking, so wait for it before the first write.
    wait_stat(&p_addr, "repl.replicas", Duration::from_secs(10), |v| {
        v >= 1
    });
    println!(
        "loadgen: HA group up (primary {p_addr}, replica {r_addr}, witness {w_addr}) at {:?}",
        started.elapsed()
    );

    let mut admin = FailoverClient::new(members.clone());
    admin
        .execute("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
        .expect("create accounts");
    admin
        .execute("CREATE TABLE txlog (tid INT, src INT, dst INT, PRIMARY KEY (tid))")
        .expect("create txlog");
    for chunk in (0..args.accounts).collect::<Vec<_>>().chunks(64) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, 'o{}', {INITIAL_BALANCE})", i % args.owners))
            .collect();
        admin
            .execute(&format!(
                "INSERT INTO accounts VALUES {}",
                values.join(", ")
            ))
            .expect("load accounts");
    }

    let phase = Arc::new(AtomicUsize::new(PHASE_OLD));
    let paused = Arc::new(AtomicUsize::new(0));
    let tids = Arc::new(AtomicI64::new(1));
    let acked: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for w in 0..args.clients {
        let phase = Arc::clone(&phase);
        let paused = Arc::clone(&paused);
        let tids = Arc::clone(&tids);
        let acked = Arc::clone(&acked);
        let members = members.clone();
        let accounts = args.accounts;
        let ops = args.ops;
        let seed = args.seed;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w as u64));
            let mut fc = FailoverClient::new(members);
            let mut acked_pause = false;
            loop {
                match phase.load(Ordering::Acquire) {
                    PHASE_DONE => break,
                    PHASE_PAUSE | PHASE_TOTALS => {
                        if !acked_pause {
                            acked_pause = true;
                            paused.fetch_add(1, Ordering::AcqRel);
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    p => {
                        let table = if p == PHASE_OLD {
                            "accounts"
                        } else {
                            "accounts_v2"
                        };
                        let a = rng.gen_range(0..accounts);
                        let b = (a + 1 + rng.gen_range(0..accounts - 1)) % accounts;
                        if let Some(tid) = transfer_ha(&mut fc, table, a, b, &tids) {
                            acked.lock().push(tid);
                        }
                    }
                }
                if rng.gen_bool(1.0 / ops.max(1) as f64) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            fc.reroutes
        }));
    }

    // Let synchronous traffic run, then flip mid-traffic.
    std::thread::sleep(Duration::from_millis(250));
    admin
        .execute(
            "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) \
             PRIMARY KEY (id)",
        )
        .expect("submit bitmap migration");
    phase.store(PHASE_NEW, Ordering::Release);
    println!(
        "loadgen: bitmap migration submitted at {:?}, workers flipped",
        started.elapsed()
    );
    // The survivor can only finish what it has heard about: make sure
    // the migration DDL frame reached the replica before the murder.
    wait_stat(&r_addr, "migration.active", Duration::from_secs(10), |v| {
        v >= 1
    });

    println!(
        "loadgen: SIGKILL primary mid-migration at {:?}",
        started.elapsed()
    );
    primary.kill();

    // The lease lapses, the replica stands, the witness's vote makes
    // the majority, and the epoch bump lands in the survivor's WAL.
    let promoted = std::process::Command::new(&repld)
        .args(["wait-promoted", "--addr", &r_addr, "--timeout-secs", "30"])
        .status()
        .expect("run repld wait-promoted");
    assert!(promoted.success(), "replica never promoted after the kill");
    println!("loadgen: replica promoted at {:?}", started.elapsed());

    // Traffic keeps flowing through re-routed clients while the
    // respawned sweepers finish the migration on the survivor.
    wait_complete_ha(&mut admin, Duration::from_secs(30));
    std::thread::sleep(Duration::from_millis(250));
    phase.store(PHASE_PAUSE, Ordering::Release);
    while paused.load(Ordering::Acquire) < args.clients {
        std::thread::sleep(Duration::from_millis(2));
    }
    admin
        .execute("FINALIZE MIGRATION DROP OLD")
        .expect("finalize bitmap migration on the survivor");

    // The audit. The transaction log is ground truth: every acked tid
    // must be in it (zero lost acked commits), and replaying it must
    // reproduce every balance (no phantom or half-applied transfer).
    let (_, logged) = admin
        .query_rows("SELECT tid, src, dst FROM txlog")
        .expect("scan txlog");
    let mut applied = std::collections::HashSet::new();
    let mut expected: Vec<i64> = vec![INITIAL_BALANCE; args.accounts as usize];
    for row in &logged {
        let tid = row.0[0].as_i64().unwrap();
        let src = row.0[1].as_i64().unwrap() as usize;
        let dst = row.0[2].as_i64().unwrap() as usize;
        assert!(applied.insert(tid), "txlog tid {tid} applied twice");
        expected[src] -= 7;
        expected[dst] += 7;
    }
    // Workers are quiesced at PHASE_PAUSE, so the list is stable.
    let acked: Vec<i64> = acked.lock().clone();
    let lost: Vec<i64> = acked
        .iter()
        .copied()
        .filter(|tid| !applied.contains(tid))
        .collect();
    assert!(
        lost.is_empty(),
        "{} acked commits lost across failover: {lost:?}",
        lost.len()
    );
    let rows = admin
        .query_rows("SELECT id, balance FROM accounts_v2")
        .expect("scan accounts_v2")
        .1;
    assert_eq!(rows.len() as i64, args.accounts, "row count changed");
    let mut total = 0;
    for row in &rows {
        let id = row.0[0].as_i64().unwrap();
        let balance = row.0[1].as_i64().unwrap();
        assert_eq!(
            balance, expected[id as usize],
            "account {id} diverged from the txlog replay across failover"
        );
        total += balance;
    }
    assert_eq!(
        total,
        args.accounts * INITIAL_BALANCE,
        "transfers must conserve total balance"
    );
    println!(
        "loadgen: zero lost acked commits ({} acked, {} logged, {} rows audited) at {:?}",
        acked.len(),
        logged.len(),
        rows.len(),
        started.elapsed()
    );

    // The n:1 (hash-tracked) migration must also run to completion on
    // the promoted survivor — its sweepers are respawned state, not
    // inherited threads.
    admin
        .execute(
            "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
             FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)",
        )
        .expect("submit hash migration on the survivor");
    wait_complete_ha(&mut admin, Duration::from_secs(30));
    admin
        .execute("FINALIZE MIGRATION")
        .expect("finalize hash migration");
    let totals = admin
        .query_rows("SELECT owner, total FROM owner_totals")
        .expect("scan owner_totals")
        .1;
    assert_eq!(totals.len() as i64, args.owners, "one group per owner");
    let grand: i64 = totals.iter().map(|r| r.0[1].as_i64().unwrap()).sum();
    assert_eq!(
        grand,
        args.accounts * INITIAL_BALANCE,
        "aggregation must conserve total balance"
    );

    phase.store(PHASE_DONE, Ordering::Release);
    let mut reroutes = 0;
    for h in handles {
        reroutes += h.join().expect("worker");
    }
    assert!(
        reroutes >= 1,
        "no client ever re-routed — the kill happened outside the traffic window"
    );

    // Fencing evidence on the survivor: bumped epoch, leader role.
    let mut survivor = Client::connect(r_addr.as_str()).expect("survivor connect");
    let state = survivor.ha_state().expect("survivor HA state");
    assert_eq!(state.role, "leader", "survivor must lead after promotion");
    assert!(state.epoch >= 1, "promotion must bump the fencing epoch");
    let sstatus = survivor.status().expect("survivor status");
    assert_eq!(stat(&sstatus, "repl.promoted"), 1);
    println!(
        "loadgen: survivor leads at epoch {} ({} client re-routes, migration complete) at {:?}",
        state.epoch,
        reroutes,
        started.elapsed()
    );

    survivor.shutdown_server().expect("survivor shutdown");
    replica.wait();
    let mut wclient = Client::connect(w_addr.as_str()).expect("witness connect");
    wclient.shutdown_server().expect("witness shutdown");
    witness.wait();
    let _ = std::fs::remove_dir_all(&scratch);
    println!("loadgen: failover scenario done in {:?}", started.elapsed());
}
