//! Concurrent remote sessions racing a lazy migration over TCP.
//!
//! N client threads hammer `accounts` with transfer transactions while
//! the admin session submits migration DDL mid-traffic. Workers flip to
//! the new table as soon as the logical schema flips and keep writing —
//! their statements lazily migrate the slices they touch. After the
//! drain the tests assert exactly-once semantics: every source row
//! migrated exactly once (`rows_migrated == row count`, zero conflict
//! skips, zero drops), the total balance is conserved, and every
//! account holds exactly what the transfers its clients were acked for
//! moved, i.e. no acked transfer was lost or applied twice.
//!
//! Same invariants the in-process core tests check, but with the racing
//! clients on the other side of a socket, which is the configuration
//! the paper actually claims works. Each test runs its body once per
//! engine mode; the bitmap race also runs on a file-backed WAL with
//! `COMMIT NOWAIT` acks and a background checkpointer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::Value;
use bullfrog_core::Bullfrog;
use bullfrog_engine::{CheckpointPolicy, Database, DbConfig, EngineMode};
use bullfrog_net::{stat, Client, ClientError, Server, ServerConfig};

const WORKERS: usize = 8;
const ACCOUNTS: i64 = 64;
const OWNERS: i64 = 8;
const INITIAL_BALANCE: i64 = 1000;

const PHASE_OLD: usize = 0; // write `accounts`
const PHASE_NEW: usize = 1; // write `accounts_v2`
const PHASE_DONE: usize = 2;

struct Harness {
    server: Server,
    addr: std::net::SocketAddr,
    admin: Client,
}

/// A server in `mode`, in-memory, or with its WAL under `wal_dir` and a
/// background checkpointer.
fn boot(mode: EngineMode, wal_dir: Option<&std::path::Path>) -> Harness {
    let config = DbConfig {
        mode,
        ..DbConfig::default()
    };
    let db = match wal_dir {
        None => Database::with_config(config),
        Some(dir) => {
            let policy = CheckpointPolicy {
                max_resident_records: 2_000,
                ..CheckpointPolicy::default()
            };
            let config = DbConfig {
                checkpoint_policy: Some(policy),
                ..config
            };
            Database::with_wal_file(config, dir.join("race.wal")).unwrap()
        }
    };
    let bf = Arc::new(Bullfrog::new(Arc::new(db)));
    let server = Server::bind(
        ("127.0.0.1", 0),
        bf,
        ServerConfig {
            max_connections: WORKERS + 4,
            idle_timeout: Duration::from_secs(30),
            statement_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    admin
        .execute("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))")
        .unwrap();
    let values: Vec<String> = (0..ACCOUNTS)
        .map(|i| format!("({i}, 'o{}', {INITIAL_BALANCE})", i % OWNERS))
        .collect();
    admin
        .execute(&format!(
            "INSERT INTO accounts VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    Harness {
        server,
        addr,
        admin,
    }
}

/// One transfer transaction against `table`, ended by `commit`
/// (`COMMIT` or `COMMIT NOWAIT`) and retried on retryable errors.
/// Returns false when the statement failed non-retryably — which under
/// a phase flip means "frozen input, re-check the phase".
fn transfer(c: &mut Client, table: &str, a: i64, b: i64, commit: &str) -> bool {
    for _ in 0..12 {
        c.execute("BEGIN").unwrap();
        let debit = c.execute(&format!(
            "UPDATE {table} SET balance = balance - 7 WHERE id = {a}"
        ));
        let credit = match &debit {
            Ok(_) => c.execute(&format!(
                "UPDATE {table} SET balance = balance + 7 WHERE id = {b}"
            )),
            Err(_) => Ok(0),
        };
        match (debit, credit) {
            (Ok(_), Ok(_)) => {
                if c.execute(commit).is_ok() {
                    return true;
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                let _ = c.execute("ROLLBACK");
                match e {
                    ClientError::Server {
                        retryable: true, ..
                    } => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    ClientError::Server {
                        retryable: false, ..
                    } => return false,
                    other => panic!("transport failure mid-transfer: {other}"),
                }
            }
        }
    }
    false
}

/// What the workers were acked for: the transfers whose commit
/// succeeded and, per account id, the net amount they moved.
struct Ledger {
    committed: u64,
    delta: Vec<i64>,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            committed: 0,
            delta: vec![0; ACCOUNTS as usize],
        }
    }

    /// Books one acked transfer of 7 from `a` to `b`.
    fn book(&mut self, a: i64, b: i64) {
        self.committed += 1;
        self.delta[a as usize] -= 7;
        self.delta[b as usize] += 7;
    }

    /// The balance account `id` must hold: its initial balance plus
    /// every acked transfer's move.
    fn expected(&self, id: i64) -> i64 {
        INITIAL_BALANCE + self.delta[id as usize]
    }
}

/// Runs the worker pool: transfers against the phase's table until the
/// admin advances to PHASE_DONE.
fn spawn_workers(
    addr: std::net::SocketAddr,
    phase: &Arc<AtomicUsize>,
    commit: &'static str,
) -> Vec<std::thread::JoinHandle<Ledger>> {
    (0..WORKERS)
        .map(|w| {
            let phase = Arc::clone(phase);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut ledger = Ledger::new();
                let mut n = w as i64;
                loop {
                    let table = match phase.load(Ordering::Acquire) {
                        PHASE_OLD => "accounts",
                        PHASE_NEW => "accounts_v2",
                        _ => return ledger,
                    };
                    n = (n * 31 + 17) % ACCOUNTS;
                    let a = n;
                    let b = (n + 1 + w as i64) % ACCOUNTS;
                    if a != b && transfer(&mut c, table, a, b, commit) {
                        ledger.book(a, b);
                    }
                }
            })
        })
        .collect()
}

/// Joins the worker pool and sums its ledgers.
fn join_workers(workers: Vec<std::thread::JoinHandle<Ledger>>) -> Ledger {
    let mut total = Ledger::new();
    for w in workers {
        let ledger = w.join().unwrap();
        total.committed += ledger.committed;
        for (sum, d) in total.delta.iter_mut().zip(&ledger.delta) {
            *sum += d;
        }
    }
    total
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(v) => *v,
        other => panic!("unexpected value {other:?}"),
    }
}

/// Polls STATUS until the active migration reports complete.
fn wait_complete(admin: &mut Client) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let pairs = admin.status().unwrap();
        if stat(&pairs, "migration.active").expect("STATUS missing migration.active") == 1
            && stat(&pairs, "migration.complete").expect("STATUS missing migration.complete") == 1
        {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "migration did not complete in time: {pairs:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A full-table scan retried while worker X locks are in the way.
fn scan_retry(c: &mut Client, sql: &str) -> Vec<bullfrog_common::Row> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match c.query_rows(sql) {
            Ok((_, rows)) => return rows,
            Err(ClientError::Server {
                retryable: true, ..
            }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("scan {sql:?} failed: {e}"),
        }
    }
}

#[test]
fn bitmap_migration_is_exactly_once_under_remote_contention() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        bitmap_race(mode, None);
    }
    let dir = std::env::temp_dir().join(format!(
        "bf-bitmap_migration_is_exactly_once_under_remote_contention-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    bitmap_race(EngineMode::TwoPL, Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transfers race a mid-traffic 1:1 migration. With `wal_dir`, the
/// server is file-backed and the workers commit with `COMMIT NOWAIT`.
fn bitmap_race(mode: EngineMode, wal_dir: Option<&std::path::Path>) {
    let mut h = boot(mode, wal_dir);
    let commit = if wal_dir.is_some() {
        "COMMIT NOWAIT"
    } else {
        "COMMIT"
    };
    let phase = Arc::new(AtomicUsize::new(PHASE_OLD));
    let workers = spawn_workers(h.addr, &phase, commit);

    // Let traffic build, then flip the schema mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    h.admin
        .execute("CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) PRIMARY KEY (id)")
        .unwrap();
    phase.store(PHASE_NEW, Ordering::Release);

    wait_complete(&mut h.admin);

    // Capture the exactly-once counters while the migration is still
    // live (progress() reports nothing after FINALIZE), then quiesce
    // the workers before the verification scans.
    let pairs = h.admin.status().unwrap();
    phase.store(PHASE_DONE, Ordering::Release);
    let ledger = join_workers(workers);
    assert!(
        ledger.committed > 0,
        "{mode:?}: workers must have committed transfers"
    );

    assert_eq!(
        stat(&pairs, "migration.rows_migrated").expect("STATUS missing migration.rows_migrated"),
        ACCOUNTS,
        "{mode:?}: every source row migrated exactly once"
    );
    assert_eq!(
        stat(&pairs, "migration.conflict_skips").expect("STATUS missing migration.conflict_skips"),
        0
    );
    assert_eq!(
        stat(&pairs, "migration.rows_dropped").expect("STATUS missing migration.rows_dropped"),
        0
    );

    h.admin.execute("FINALIZE MIGRATION DROP OLD").unwrap();

    // Balance conservation: transfers move value, never create it. A
    // lost or doubled lazy migration of any slice would break the sum.
    let rows = scan_retry(&mut h.admin, "SELECT id, balance FROM accounts_v2");
    assert_eq!(rows.len() as i64, ACCOUNTS);
    let total: i64 = rows.iter().map(|r| int(&r[1])).sum();
    assert_eq!(
        total,
        ACCOUNTS * INITIAL_BALANCE,
        "{mode:?}: balance must be conserved"
    );
    // Per account, against what the clients were acked: a lost acked
    // transfer loses both its legs and still conserves the total.
    for r in &rows {
        let id = int(&r[0]);
        assert_eq!(
            int(&r[1]),
            ledger.expected(id),
            "{mode:?}: account {id} must hold its acked transfers \
             ({} acked in all, {commit})",
            ledger.committed
        );
    }

    // SHUTDOWN drains every session and syncs the log before it returns.
    h.admin.shutdown_server().unwrap();
    h.server.shutdown();
}

#[test]
fn hash_migration_aggregates_exactly_once_under_remote_contention() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        hash_race(mode);
    }
}

fn hash_race(mode: EngineMode) {
    let mut h = boot(mode, None);
    let phase = Arc::new(AtomicUsize::new(PHASE_OLD));
    let workers = spawn_workers(h.addr, &phase, "COMMIT");

    std::thread::sleep(Duration::from_millis(100));
    // n:1 GROUP BY migration: the HashTracker must fold each source
    // row into its group exactly once even as workers race it.
    h.admin
        .execute(
            "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total FROM accounts GROUP BY owner) PRIMARY KEY (owner)",
        )
        .unwrap();
    // The GROUP BY migration freezes its input: workers' writes to
    // `accounts` now fail non-retryably, and the phase flip tells them
    // to stop (there is no writable successor table for transfers).
    phase.store(PHASE_DONE, Ordering::Release);
    let committed = join_workers(workers).committed;

    wait_complete(&mut h.admin);
    let pairs = h.admin.status().unwrap();
    // `rows_migrated` counts *output* rows, so an n:1 aggregation
    // reports one per group; exactly-once folding of the 64 source
    // rows is proven below by the conserved grand total (folding any
    // slice twice, or missing one, would skew it).
    assert_eq!(
        stat(&pairs, "migration.rows_migrated").expect("STATUS missing migration.rows_migrated"),
        OWNERS,
        "{mode:?}: one output row per group"
    );
    assert!(
        stat(&pairs, "migration.granules_migrated")
            .expect("STATUS missing migration.granules_migrated")
            >= 1
    );
    assert_eq!(
        stat(&pairs, "migration.conflict_skips").expect("STATUS missing migration.conflict_skips"),
        0
    );

    h.admin.execute("FINALIZE MIGRATION").unwrap();

    let rows = scan_retry(&mut h.admin, "SELECT owner, total FROM owner_totals");
    assert_eq!(rows.len() as i64, OWNERS, "one group per owner");
    let grand: i64 = rows.iter().map(|r| int(&r[1])).sum();
    // Transfers conserved the total before the freeze; the aggregate
    // must see exactly that conserved sum.
    assert_eq!(
        grand,
        ACCOUNTS * INITIAL_BALANCE,
        "{mode:?}: aggregated total must equal the conserved balance \
         (committed transfers: {committed})"
    );

    h.server.shutdown();
}
