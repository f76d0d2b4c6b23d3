//! `repld` as deployed: primary, replica and witness as separate
//! processes on loopback, driven through [`bullfrog_net::Client`],
//! [`FailoverClient`] and the `repld` subcommands.

#[path = "../../../tests/support/daemon.rs"]
mod daemon;

use std::collections::HashSet;
use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bullfrog_common::Row;
use bullfrog_engine::EngineMode;
use bullfrog_ha::FailoverClient;
use bullfrog_net::{stat, Client, ClientError};
use daemon::{run, scratch_dir, wait_exit, wait_until, Daemon, DEADLINE};

const REPLD: &str = env!("CARGO_BIN_EXE_repld");
const INITIAL_BALANCE: i64 = 1000;

/// Whether `addr` answers `STATUS` with `key` satisfying `pred`.
fn stat_is(addr: &str, key: &str, pred: impl Fn(i64) -> bool) -> bool {
    Client::connect(addr)
        .and_then(|mut c| c.status())
        .is_ok_and(|s| s.iter().any(|(k, v)| k == key && pred(*v)))
}

/// `CREATE TABLE accounts` plus `n` rows over `owners` owners, in
/// 64-row INSERTs through `exec`.
fn load_accounts(n: i64, owners: i64, mut exec: impl FnMut(&str)) {
    exec("CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))");
    for chunk in (0..n).collect::<Vec<_>>().chunks(64) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, 'o{}', {INITIAL_BALANCE})", i % owners))
            .collect();
        exec(&format!(
            "INSERT INTO accounts VALUES {}",
            values.join(", ")
        ));
    }
}

/// A worker's deterministic pseudo-random account pair: two distinct ids
/// in `0..n`.
fn next_pair(state: &mut u64, n: i64) -> (i64, i64) {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let a = (*state >> 33) as i64 % n;
    let b = (a + 1 + (*state >> 13) as i64 % (n - 1)) % n;
    (a, b)
}

fn spawn_primary(mode: EngineMode, wal_dir: &std::path::Path) -> Daemon {
    let wal_dir = wal_dir.to_str().unwrap();
    let args = ["primary", "--listen", "127.0.0.1:0", "--wal-dir", wal_dir];
    Daemon::spawn(REPLD, "primary", mode, &args)
}

fn sorted_rows(addr: &str, sql: &str) -> Result<Vec<Row>, ClientError> {
    let (_, mut rows) = Client::connect(addr)?.query_rows(sql)?;
    rows.sort_by_key(|r| format!("{r:?}"));
    Ok(rows)
}

/// A primary and a replica daemon: commits and a 1:1 migration through
/// the primary reach the replica, `wait-zero-lag` settles, the `status`
/// views name each role and carry the primary's commit latency, and
/// both daemons exit 0 on `SHUTDOWN`.
#[test]
fn primary_and_replica_daemons() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("primary_and_replica_daemons");
        let mut primary = spawn_primary(mode, &dir);
        let p_addr = primary.addr().to_string();
        let mut replica = Daemon::spawn(
            REPLD,
            "replica",
            mode,
            &["replica", "--listen", "127.0.0.1:0", "--primary", &p_addr],
        );
        let r_addr = replica.addr().to_string();
        primary.assert_engine_mode(mode);
        replica.assert_engine_mode(mode);

        let mut admin = Client::connect(p_addr.as_str()).expect("admin connect");
        load_accounts(64, 8, |sql| {
            admin.execute(sql).expect(sql);
        });
        for id in 0..64 {
            admin
                .execute(&format!(
                    "UPDATE accounts SET balance = balance + {id} WHERE id = {id}"
                ))
                .expect("update");
        }
        admin
            .execute("CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) PRIMARY KEY (id)")
            .expect("submit migration");
        wait_until("the migration completing on the primary", DEADLINE, || {
            stat_is(&p_addr, "migration.complete", |v| v == 1)
        });
        admin
            .execute("FINALIZE MIGRATION DROP OLD")
            .expect("finalize");

        run(
            REPLD,
            &["wait-zero-lag", "--addr", &r_addr, "--timeout-secs", "25"],
        );
        let sql = "SELECT id, owner, balance FROM accounts_v2";
        let want = sorted_rows(&p_addr, sql).expect("primary scan");
        assert_eq!(want.len(), 64);
        wait_until(
            "the replica serving the primary's accounts_v2",
            DEADLINE,
            || sorted_rows(&r_addr, sql).is_ok_and(|rows| rows == want),
        );

        let full = run(REPLD, &["status", "--addr", &r_addr, "--full"]);
        assert!(
            full.lines().any(|l| l == "repl.role_replica = 1"),
            "replica status --full: {full}"
        );
        let line = run(REPLD, &["status", "--addr", &r_addr]);
        assert!(line.starts_with("role=replica "), "replica status: {line}");
        let line = run(REPLD, &["status", "--addr", &p_addr]);
        let p99: u64 = line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("commit_p99_us="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no commit_p99_us in primary status: {line}"));
        assert!(p99 > 0, "primary status: {line}");

        run(REPLD, &["shutdown", "--addr", &r_addr]);
        run(REPLD, &["shutdown", "--addr", &p_addr]);
        replica.assert_clean_exit();
        primary.assert_clean_exit();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // An unknown engine mode is refused at startup, naming the value.
    let dir = scratch_dir("primary_and_replica_daemons");
    let mut child = Command::new(REPLD)
        .args(["primary", "--listen", "127.0.0.1:0", "--wal-dir"])
        .arg(&dir)
        .env("BULLFROG_ENGINE_MODE", "bogus")
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repld primary");
    let status = wait_exit(&mut child, "repld primary with a bogus mode", DEADLINE);
    let mut stderr = String::new();
    let _ = child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr);
    assert!(!status.success(), "a bogus mode must not start: {stderr}");
    assert!(
        stderr.contains("bogus"),
        "stderr must name the mode: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon owned by a test that panics is killed as the panic unwinds.
#[test]
fn a_panicking_test_leaks_no_daemon() {
    let dir = scratch_dir("a_panicking_test_leaks_no_daemon");
    let spawned = Mutex::new(None);
    let outcome = std::panic::catch_unwind(|| {
        let primary = spawn_primary(EngineMode::TwoPL, &dir);
        *spawned.lock().unwrap() = Some((primary.pid(), primary.addr().to_string()));
        panic!("deliberate panic with a live daemon");
    });
    assert!(outcome.is_err());
    let (pid, addr) = spawned.lock().unwrap().take().expect("daemon spawned");
    assert!(
        Client::connect(addr.as_str()).is_err(),
        "the daemon at {addr} still serves after the panic"
    );
    // Killed and reaped: no process, not even a zombie (vacuous where
    // there is no /proc).
    assert!(
        !std::path::Path::new(&format!("/proc/{pid}")).exists(),
        "repld child {pid} outlived the panic"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reserves a loopback port by binding and releasing it. The HA group
/// needs every member's address before any member starts.
fn free_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    listener.local_addr().expect("local addr").to_string()
}

/// One failover-safe transfer that logs itself in `txlog`. Each attempt
/// takes a fresh `tid`: an ambiguous `COMMIT` may have applied, so a
/// retry must never collide in `txlog`. Returns the acked tid, or `None`
/// when the transfer never observably committed.
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
        assert_eq!(
            debited, credited,
            "half-matched transfer {a}->{b} on {table}"
        );
        if debited == 0 {
            c.execute("ROLLBACK")?;
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
fn wait_complete_ha(fc: &mut FailoverClient, what: &str) {
    wait_until(what, DEADLINE, || {
        let status = fc.status().expect("status poll");
        stat(&status, "migration.active").expect("STATUS missing migration.active") == 0
            || stat(&status, "migration.complete").expect("STATUS missing migration.complete") == 1
    });
}

/// The HA end-state proof. A primary, replica and witness run with
/// quorum leases and `SYNC_REPLICAS 1` under the `BLOCK` policy. Seeded
/// transfer traffic logs every transfer in an in-database `txlog`. The
/// primary is SIGKILLed mid-way through a 1:1 migration. The replica
/// must win the election, finish the migration with respawned sweepers,
/// and hold every acked commit: `acked ⊆ txlog`, and every balance
/// equals the replay of `txlog`. An n:1 GROUP BY migration then runs to
/// completion on the survivor.
#[test]
fn sigkill_primary_mid_migration_loses_no_acked_commit() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        const CLIENTS: usize = 8;
        const ACCOUNTS: i64 = 256;
        const OWNERS: i64 = 16;
        let dir = scratch_dir("sigkill_primary_mid_migration_loses_no_acked_commit");
        let (p_addr, r_addr, w_addr) = (free_addr(), free_addr(), free_addr());
        let members = vec![p_addr.clone(), r_addr.clone(), w_addr.clone()];
        let member_list = members.join(",");
        let member = |role: &str, addr: &str, extra: &[&str]| {
            let wal_dir = dir.join(role);
            let mut args = vec![
                role,
                "--listen",
                addr,
                "--wal-dir",
                wal_dir.to_str().unwrap(),
                "--ha-self",
                addr,
                "--ha-members",
                &member_list,
                "--lease-ms",
                "800",
            ];
            args.extend_from_slice(extra);
            Daemon::spawn(REPLD, role, mode, &args)
        };
        let mut primary = member(
            "primary",
            &p_addr,
            &["--sync-replicas", "1", "--sync-policy", "block"],
        );
        let mut replica = member("replica", &r_addr, &["--primary", &p_addr]);
        let mut witness = member("witness", &w_addr, &[]);
        primary.assert_engine_mode(mode);
        replica.assert_engine_mode(mode);
        // SYNC_REPLICAS 1 + BLOCK: no commit acks until the replica is
        // subscribed, so wait for it before the first write.
        wait_until("the replica subscribing to the primary", DEADLINE, || {
            stat_is(&p_addr, "repl.replicas", |v| v >= 1)
        });

        let mut admin = FailoverClient::new(members.clone());
        admin
            .execute("CREATE TABLE txlog (tid INT, src INT, dst INT, PRIMARY KEY (tid))")
            .expect("create txlog");
        load_accounts(ACCOUNTS, OWNERS, |sql| {
            admin.execute(sql).expect(sql);
        });

        let on_v2 = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let tids = Arc::new(AtomicI64::new(1));
        let acked = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..CLIENTS as u64)
            .map(|w| {
                let (on_v2, stop, tids, acked) = (
                    Arc::clone(&on_v2),
                    Arc::clone(&stop),
                    Arc::clone(&tids),
                    Arc::clone(&acked),
                );
                let members = members.clone();
                std::thread::spawn(move || {
                    let mut fc = FailoverClient::new(members);
                    let mut rng = 42 + w;
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let table = if on_v2.load(Ordering::Acquire) {
                            "accounts_v2"
                        } else {
                            "accounts"
                        };
                        let (a, b) = next_pair(&mut rng, ACCOUNTS);
                        if let Some(tid) = transfer_ha(&mut fc, table, a, b, &tids) {
                            acked.lock().unwrap().push(tid);
                        }
                        ops += 1;
                        if ops.is_multiple_of(5) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    fc.reroutes
                })
            })
            .collect();

        // Synchronous traffic first, then the flip mid-traffic.
        std::thread::sleep(Duration::from_millis(250));
        admin
            .execute("CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) PRIMARY KEY (id)")
            .expect("submit bitmap migration");
        on_v2.store(true, Ordering::Release);
        // The survivor can only finish a migration it has heard about.
        wait_until("the migration DDL reaching the replica", DEADLINE, || {
            stat_is(&r_addr, "migration.active", |v| v >= 1)
        });
        primary.kill();

        // The lease lapses, the witness's vote makes the majority, and the
        // epoch bump lands in the survivor's WAL.
        run(
            REPLD,
            &["wait-promoted", "--addr", &r_addr, "--timeout-secs", "30"],
        );
        // Traffic keeps flowing through re-routed clients while respawned
        // sweepers finish the migration on the survivor.
        wait_complete_ha(&mut admin, "the 1:1 migration completing on the survivor");
        std::thread::sleep(Duration::from_millis(250));
        stop.store(true, Ordering::Release);
        let reroutes: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert!(
            reroutes >= 1,
            "no client re-routed: the kill fell outside the traffic window"
        );
        admin
            .execute("FINALIZE MIGRATION DROP OLD")
            .expect("finalize bitmap migration on the survivor");

        // The audit. `txlog` is ground truth: every acked tid is in it, and
        // replaying it reproduces every balance.
        let (_, logged) = admin
            .query_rows("SELECT tid, src, dst FROM txlog")
            .expect("scan txlog");
        let mut applied = HashSet::new();
        let mut expected = vec![INITIAL_BALANCE; ACCOUNTS as usize];
        for row in &logged {
            let tid = row[0].as_i64().unwrap();
            assert!(applied.insert(tid), "txlog tid {tid} applied twice");
            expected[row[1].as_i64().unwrap() as usize] -= 7;
            expected[row[2].as_i64().unwrap() as usize] += 7;
        }
        let acked = acked.lock().unwrap().clone();
        let lost: Vec<i64> = acked
            .iter()
            .copied()
            .filter(|t| !applied.contains(t))
            .collect();
        assert!(
            lost.is_empty(),
            "{} acked commits lost across failover: {lost:?}",
            lost.len()
        );
        let (_, rows) = admin
            .query_rows("SELECT id, balance FROM accounts_v2")
            .expect("scan accounts_v2");
        assert_eq!(rows.len() as i64, ACCOUNTS, "row count changed");
        for row in &rows {
            let id = row[0].as_i64().unwrap();
            assert_eq!(
                row[1].as_i64().unwrap(),
                expected[id as usize],
                "account {id} diverged from the txlog replay across failover"
            );
        }

        // The n:1 migration runs to completion on the promoted survivor.
        admin
            .execute(
                "CREATE TABLE owner_totals AS (SELECT owner, SUM(balance) AS total \
                 FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)",
            )
            .expect("submit hash migration on the survivor");
        wait_complete_ha(&mut admin, "the n:1 migration completing on the survivor");
        admin
            .execute("FINALIZE MIGRATION")
            .expect("finalize hash migration");
        let (_, totals) = admin
            .query_rows("SELECT owner, total FROM owner_totals")
            .expect("scan owner_totals");
        assert_eq!(totals.len() as i64, OWNERS, "one group per owner");
        let grand: i64 = totals.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(
            grand,
            ACCOUNTS * INITIAL_BALANCE,
            "aggregation must conserve the total"
        );

        // Fencing evidence on the survivor: a bumped epoch and the lead.
        let mut survivor = Client::connect(r_addr.as_str()).expect("survivor connect");
        let state = survivor.ha_state().expect("survivor HA state");
        assert_eq!(state.role, "leader", "survivor must lead after promotion");
        assert!(state.epoch >= 1, "promotion must bump the fencing epoch");
        assert_eq!(
            stat(
                &survivor.status().expect("survivor status"),
                "repl.promoted"
            ),
            Some(1)
        );

        survivor.shutdown_server().expect("survivor shutdown");
        replica.assert_clean_exit();
        Client::connect(w_addr.as_str())
            .and_then(|mut c| c.shutdown_server())
            .expect("witness shutdown");
        witness.assert_clean_exit();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
