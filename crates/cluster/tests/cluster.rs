//! Three-node loopback cluster integration tests.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_cluster::{ClusterClient, Coordinator, LocalCluster, ShardMap};
use bullfrog_common::Value;
use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::{Database, DbConfig, EngineMode};
use bullfrog_net::{err_code, Client, ClientError, Server, ServerConfig};

const ACCOUNTS: i64 = 60;
const OWNERS: i64 = 5;
const INITIAL_BALANCE: i64 = 1_000;

/// Loads the canonical accounts fixture through `run`, one row per
/// statement so the cluster side can route each insert to its owner.
fn load_accounts(mut run: impl FnMut(&str)) {
    for id in 0..ACCOUNTS {
        run(&format!(
            "INSERT INTO accounts VALUES ({id}, 'o{}', {INITIAL_BALANCE})",
            id % OWNERS
        ));
    }
    // A deterministic spread of updates so the migrated data is not
    // just the initial constants.
    for id in 0..ACCOUNTS {
        if id % 3 == 0 {
            run(&format!(
                "UPDATE accounts SET balance = balance + {id} WHERE id = {id}"
            ));
        }
    }
}

const CREATE_ACCOUNTS: &str =
    "CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))";
const MIGRATE_1TO1: &str = "CREATE TABLE accounts_v2 AS \
     (SELECT id, owner, balance FROM accounts) PRIMARY KEY (id)";
const MIGRATE_NTO1: &str = "CREATE TABLE owner_totals AS \
     (SELECT owner, SUM(balance) AS total FROM accounts_v2 GROUP BY owner) PRIMARY KEY (owner)";

fn sorted(mut rows: Vec<bullfrog_common::Row>) -> Vec<bullfrog_common::Row> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// Runs the whole scenario on one plain (cluster-less) node and
/// returns its final `owner_totals` and `accounts_v2` scans.
fn single_node_oracle(mode: EngineMode) -> (Vec<bullfrog_common::Row>, Vec<bullfrog_common::Row>) {
    let db = Arc::new(Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    }));
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Arc::new(Bullfrog::new(db)),
        ServerConfig::default(),
    )
    .expect("bind oracle");
    let mut admin = Client::connect(server.local_addr()).expect("oracle connect");
    admin.execute(CREATE_ACCOUNTS).expect("oracle create");
    load_accounts(|sql| {
        admin.execute(sql).expect("oracle load");
    });
    admin.execute(MIGRATE_1TO1).expect("oracle 1:1 flip");
    wait_complete_single(&mut admin);
    admin
        .execute("FINALIZE MIGRATION DROP OLD")
        .expect("oracle finalize 1:1");
    let (_, v2) = admin
        .query_rows("SELECT id, owner, balance FROM accounts_v2")
        .expect("oracle v2 scan");
    admin.execute(MIGRATE_NTO1).expect("oracle n:1 flip");
    wait_complete_single(&mut admin);
    admin
        .execute("FINALIZE MIGRATION")
        .expect("oracle finalize n:1");
    let (_, totals) = admin
        .query_rows("SELECT owner, total FROM owner_totals")
        .expect("oracle totals scan");
    server.shutdown();
    (sorted(totals), sorted(v2))
}

fn wait_complete_single(admin: &mut Client) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let status = admin.status().expect("status");
        let get = |k: &str| {
            status
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        if get("migration.active") == 0 || get("migration.complete") == 1 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "single-node migration never drained"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole end-to-end: a 3-node cluster runs a mid-life 1:1
/// migration and then a cross-node n:1 GROUP BY migration (with the
/// aggregate exchange), and the final scatter-gathered scans are
/// byte-identical to a single node running the same scenario.
#[test]
fn three_node_scan_matches_single_node_oracle() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let cluster = LocalCluster::start(3, mode).expect("start cluster");
        for node in cluster.nodes() {
            assert_eq!(node.bullfrog().db().config().mode, mode);
        }
        let mut coord = Coordinator::connect(&cluster.addrs()).expect("coordinator");
        coord
            .execute_all(CREATE_ACCOUNTS)
            .expect("create everywhere");

        let mut client = ClusterClient::connect(&cluster.addrs()[0]).expect("routing client");
        load_accounts(|sql| {
            // Route each single-key statement to its owning node. The key
            // is the account id for both the insert and the update.
            let id: i64 = sql
                .split(|c: char| !c.is_ascii_digit())
                .find(|s| !s.is_empty())
                .expect("statement embeds an id")
                .parse()
                .expect("numeric id");
            let affected = client
                .execute_key(&[Value::Int(id)], sql)
                .expect("routed statement");
            assert!(affected >= 1, "routed statement matched nothing: {sql}");
        });

        // Every partition holds only its own keys: the scatter-gathered
        // count is the total, and no single node holds everything.
        let (_, all) = client
            .scatter_rows("SELECT id FROM accounts")
            .expect("scatter count");
        assert_eq!(all.len() as i64, ACCOUNTS);
        for node in cluster.nodes() {
            let mut one = Client::connect(node.addr()).expect("node connect");
            let (_, local) = one
                .query_rows("SELECT id FROM accounts")
                .expect("local scan");
            assert!(
                (local.len() as i64) < ACCOUNTS,
                "one node holds every row — not partitioned"
            );
        }

        // 1:1 flip across the cluster.
        let specs = coord.migrate(MIGRATE_1TO1).expect("1:1 flip");
        assert!(specs.is_empty(), "1:1 migration owes no exchange");
        assert!(
            coord
                .wait_all_complete(Duration::from_secs(30))
                .expect("poll"),
            "1:1 lazy migration never drained on every node"
        );
        coord.run_exchange(&specs).expect("release hold");
        coord.finalize_all(true).expect("finalize 1:1");

        let (_, v2) = client
            .scatter_rows("SELECT id, owner, balance FROM accounts_v2")
            .expect("scatter v2");

        // n:1 flip: group keys hash by owner, so most partials land on the
        // wrong node and the exchange must move them.
        let specs = coord.migrate(MIGRATE_NTO1).expect("n:1 flip");
        assert_eq!(specs.len(), 1, "one aggregate output table");
        assert_eq!(specs[0].table, "owner_totals");
        assert_eq!(specs[0].key_cols, vec!["owner".to_string()]);
        assert!(
            coord
                .wait_all_complete(Duration::from_secs(30))
                .expect("poll"),
            "n:1 lazy migration never drained on every node"
        );
        let moved = coord.run_exchange(&specs).expect("exchange");
        assert!(moved > 0, "a 3-node GROUP BY must move some partials");
        coord.finalize_all(false).expect("finalize n:1");

        let (_, totals) = client
            .scatter_rows("SELECT owner, total FROM owner_totals")
            .expect("scatter totals");
        assert_eq!(totals.len() as i64, OWNERS, "one merged group per owner");

        // Each group must live on exactly the node its key hashes to. (An
        // unkeyed scan per node: keyed SELECTs for groups owned elsewhere
        // would themselves bounce with WRONG_SHARD — the enforcement under
        // test.)
        for (i, node) in cluster.nodes().iter().enumerate() {
            let mut one = Client::connect(node.addr()).expect("node connect");
            let (_, local) = one
                .query_rows("SELECT owner FROM owner_totals")
                .expect("local group scan");
            for row in &local {
                assert_eq!(
                    coord.map().owner_of(&row.0[..1]),
                    i,
                    "group {:?} left misplaced on node {i} after the exchange",
                    row.0[0]
                );
            }
        }

        // Byte-identical to the single-node run.
        let (oracle_totals, oracle_v2) = single_node_oracle(mode);
        assert_eq!(
            format!("{:?}", sorted(v2)),
            format!("{oracle_v2:?}"),
            "distributed accounts_v2 diverged from the single-node oracle"
        );
        assert_eq!(
            format!("{:?}", sorted(totals)),
            format!("{oracle_totals:?}"),
            "distributed owner_totals diverged from the single-node oracle"
        );

        // The cluster gauges survived the whole scenario.
        let status = client.aggregate_status().expect("aggregate status");
        let get = |k: &str| {
            status
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("cluster.nodes"), 3);
        assert!(get("cluster.shardmap_version") >= 1);
        assert_eq!(get("cluster.flip_pending"), 0, "no flip left pending");
    }
}

/// One transfer of 7 from `a` to `b`, both owned by the node `c` talks
/// to; returns whether it committed. A server error (a `FLIP_PENDING`
/// bounce, a lock timeout, a retired or not yet created table) aborts
/// it, and the worker moves on to its next pair.
fn transfer(c: &mut Client, table: &str, a: i64, b: i64) -> bool {
    let attempt = (|| -> Result<(), ClientError> {
        c.execute("BEGIN")?;
        let debited = c.execute(&format!(
            "UPDATE {table} SET balance = balance - 7 WHERE id = {a}"
        ))?;
        let credited = c.execute(&format!(
            "UPDATE {table} SET balance = balance + 7 WHERE id = {b}"
        ))?;
        assert_eq!((debited, credited), (1, 1), "transfer {a}->{b} on {table}");
        c.execute("COMMIT").map(drop)
    })();
    match attempt {
        Ok(()) => true,
        Err(ClientError::Server { .. }) => false,
        Err(e) => panic!("transport failure mid-transfer: {e}"),
    }
}

/// Routed transfer workers race a mid-traffic two-phase 1:1 flip, under
/// each engine mode. Each worker moves balance between two accounts its
/// node owns and books every acked commit in a per-account ledger. The
/// flip migrates every row exactly once cluster-wide, and no acked
/// commit is lost: every final balance is its initial value plus its
/// ledger delta.
#[test]
fn routed_transfers_race_the_cluster_flip_without_losing_a_commit() {
    const ACCOUNTS: i64 = 120;
    const WORKERS_PER_NODE: usize = 4;
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let cluster = LocalCluster::start(3, mode).expect("start cluster");
        for node in cluster.nodes() {
            assert_eq!(node.bullfrog().db().config().mode, mode);
        }
        let mut coord = Coordinator::connect(&cluster.addrs()).expect("coordinator");
        coord
            .execute_all(CREATE_ACCOUNTS)
            .expect("create everywhere");
        let mut router = ClusterClient::connect(&cluster.addrs()[0]).expect("routing client");
        let map = router.map().clone();
        let mut owned: Vec<Vec<i64>> = vec![Vec::new(); map.nodes.len()];
        for id in 0..ACCOUNTS {
            router
                .execute_key(
                    &[Value::Int(id)],
                    &format!(
                        "INSERT INTO accounts VALUES ({id}, 'o{}', {INITIAL_BALANCE})",
                        id % 8
                    ),
                )
                .expect("routed load");
            owned[map.owner_of(&[Value::Int(id)])].push(id);
        }

        let on_v2 = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let ledger: Arc<Vec<AtomicI64>> =
            Arc::new((0..ACCOUNTS).map(|_| AtomicI64::new(0)).collect());
        let workers: Vec<_> = (0..map.nodes.len() * WORKERS_PER_NODE)
            .map(|w| {
                let node = w % map.nodes.len();
                let ids = owned[node].clone();
                assert!(ids.len() >= 2, "node {node} owns {} accounts", ids.len());
                let addr = map.nodes[node].clone();
                let (on_v2, stop, ledger) =
                    (Arc::clone(&on_v2), Arc::clone(&stop), Arc::clone(&ledger));
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr.as_str()).expect("worker connect");
                    let mut n = w;
                    let mut committed = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let table = if on_v2.load(Ordering::Acquire) {
                            "accounts_v2"
                        } else {
                            "accounts"
                        };
                        n = (n * 31 + 17) % ids.len();
                        let (a, b) = (ids[n], ids[(n + 1 + w) % ids.len()]);
                        if a != b && transfer(&mut c, table, a, b) {
                            ledger[a as usize].fetch_sub(7, Ordering::Relaxed);
                            ledger[b as usize].fetch_add(7, Ordering::Relaxed);
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(150));
        let specs = coord.migrate(MIGRATE_1TO1).expect("1:1 cluster flip");
        assert!(specs.is_empty(), "1:1 migration owes no exchange");
        on_v2.store(true, Ordering::Release);
        assert!(
            coord
                .wait_all_complete(Duration::from_secs(30))
                .expect("poll"),
            "{mode:?}: 1:1 lazy migration never drained on every node"
        );
        // Progress counters are read while the migration is live, since
        // FINALIZE retires them.
        let status = coord.aggregate_status().expect("cluster status");
        let get = |k: &str| bullfrog_net::stat(&status, k).unwrap_or(0);
        assert_eq!(
            get("migration.rows_migrated"),
            ACCOUNTS,
            "{mode:?}: every row migrated exactly once cluster-wide"
        );
        assert_eq!(
            get("migration.conflict_skips"),
            0,
            "{mode:?}: duplicate migration attempts"
        );
        assert_eq!(
            get("migration.rows_dropped"),
            0,
            "{mode:?}: migration dropped rows"
        );
        let (done, total) = (
            get("migration.granules_done"),
            get("migration.granules_total"),
        );
        assert!(
            done > 0 && done <= total,
            "{mode:?}: granule gauges {done}/{total}"
        );
        coord.run_exchange(&specs).expect("release hold");

        stop.store(true, Ordering::Release);
        let committed: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert!(committed > 0, "{mode:?}: no transfer committed");
        coord.finalize_all(true).expect("finalize 1:1");
        let (_, rows) = router
            .scatter_rows("SELECT id, balance FROM accounts_v2")
            .expect("scatter accounts_v2");
        assert_eq!(rows.len() as i64, ACCOUNTS, "{mode:?}: row count changed");
        for row in &rows {
            let id = row[0].as_i64().unwrap();
            assert_eq!(
                row[1].as_i64().unwrap(),
                INITIAL_BALANCE + ledger[id as usize].load(Ordering::Acquire),
                "{mode:?}: account {id} lost an acked commit or gained a phantom one"
            );
        }
    }
}

/// A client holding a rotated (stale) shard map must recover by
/// re-fetching the map on `WRONG_SHARD` — never by blind retry.
#[test]
fn stale_map_client_refetches_on_wrong_shard() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let cluster = LocalCluster::start(3, mode).expect("start cluster");
        for node in cluster.nodes() {
            assert_eq!(node.bullfrog().db().config().mode, mode);
        }
        let mut coord = Coordinator::connect(&cluster.addrs()).expect("coordinator");
        coord
            .execute_all(CREATE_ACCOUNTS)
            .expect("create everywhere");

        let mut fresh = ClusterClient::connect(&cluster.addrs()[0]).expect("routing client");
        for id in 0..12 {
            fresh
                .execute_key(
                    &[Value::Int(id)],
                    &format!("INSERT INTO accounts VALUES ({id}, 'o0', {INITIAL_BALANCE})"),
                )
                .expect("load");
        }

        // Rotate the node list by one: every owner index now points at the
        // wrong address, so the first routed statement is guaranteed to
        // land on a non-owner and bounce with WRONG_SHARD.
        let true_map = fresh.map().clone();
        let mut rotated = true_map.nodes.clone();
        rotated.rotate_left(1);
        let mut stale = ClusterClient::with_map(ShardMap {
            version: 0,
            nodes: rotated,
        });

        for id in 0..12 {
            let affected = stale
                .execute_key(
                    &[Value::Int(id)],
                    &format!("UPDATE accounts SET balance = balance + 1 WHERE id = {id}"),
                )
                .expect("stale client update");
            assert_eq!(affected, 1, "update for id {id} matched {affected} rows");
        }
        assert!(
            stale.wrong_shard_refetches >= 1,
            "the stale map never triggered a re-fetch"
        );
        assert_eq!(
            stale.map().nodes,
            true_map.nodes,
            "re-fetch did not converge on the installed map"
        );

        // The nodes counted the bounces (cluster-level gauge).
        let status = fresh.aggregate_status().expect("status");
        let bounced = status
            .iter()
            .find(|(k, _)| k == "cluster.wrong_shard_rejects")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(bounced >= 1, "no node recorded a WRONG_SHARD reject");
    }
}

/// Between `PREPARE` and that node's `COMMIT`, statements touching the
/// flip's tables bounce with the retryable `FLIP_PENDING` code; `ABORT`
/// reopens the window. Migration DDL sent straight to a member (not
/// through the coordinator) is refused outright.
#[test]
fn flip_window_gates_dml_until_commit_or_abort() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let cluster = LocalCluster::start(3, mode).expect("start cluster");
        for node in cluster.nodes() {
            assert_eq!(node.bullfrog().db().config().mode, mode);
        }
        let mut coord = Coordinator::connect(&cluster.addrs()).expect("coordinator");
        coord
            .execute_all(CREATE_ACCOUNTS)
            .expect("create everywhere");

        // Pick a key owned by node 0 so the happy path targets it.
        let map = coord.map().clone();
        let id = (0..)
            .find(|i| map.owner_of(&[Value::Int(*i)]) == 0)
            .unwrap();
        let mut direct = Client::connect(cluster.nodes()[0].addr()).expect("direct connect");
        direct
            .execute(&format!(
                "INSERT INTO accounts VALUES ({id}, 'o0', {INITIAL_BALANCE})"
            ))
            .expect("insert at owner");

        // Migration DDL on a member connection is refused: the two-phase
        // flip is the only path that keeps the cluster's schemas in step.
        match direct.execute(MIGRATE_1TO1) {
            Err(ClientError::Server {
                retryable: false, ..
            }) => {}
            other => panic!("member accepted direct migration DDL: {other:?}"),
        }

        // Stage the flip on node 0 only (coordinator-style prepare).
        let mut admin = Client::connect(cluster.nodes()[0].addr()).expect("admin connect");
        admin.cluster_prepare(MIGRATE_1TO1).expect("prepare");

        match direct.execute(&format!(
            "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
        )) {
            Err(ClientError::Server {
                retryable: true,
                code,
                ..
            }) if code == err_code::FLIP_PENDING => {}
            other => panic!("flip window did not gate DML: {other:?}"),
        }

        admin.cluster_abort().expect("abort");
        let affected = direct
            .execute(&format!(
                "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
            ))
            .expect("update after abort");
        assert_eq!(affected, 1);
    }
}

/// A statement whose key hashes to another node bounces with
/// `WRONG_SHARD` naming the owner, and the owning node accepts it.
#[test]
fn non_owner_rejects_single_key_dml() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let cluster = LocalCluster::start(3, mode).expect("start cluster");
        for node in cluster.nodes() {
            assert_eq!(node.bullfrog().db().config().mode, mode);
        }
        let mut coord = Coordinator::connect(&cluster.addrs()).expect("coordinator");
        coord
            .execute_all(CREATE_ACCOUNTS)
            .expect("create everywhere");

        let map = coord.map().clone();
        // A key owned by node 1, submitted to node 0.
        let id = (0..)
            .find(|i| map.owner_of(&[Value::Int(*i)]) == 1)
            .unwrap();
        let mut wrong = Client::connect(cluster.nodes()[0].addr()).expect("connect node 0");
        let sql = format!("INSERT INTO accounts VALUES ({id}, 'o0', {INITIAL_BALANCE})");
        match wrong.execute(&sql) {
            Err(ClientError::Server {
                retryable: true,
                code,
                message,
            }) if code == err_code::WRONG_SHARD => {
                assert!(
                    message.contains(&map.nodes[1]),
                    "WRONG_SHARD must name the owner: {message}"
                );
            }
            other => panic!("non-owner accepted the insert: {other:?}"),
        }
        let mut owner = Client::connect(map.nodes[1].as_str()).expect("connect owner");
        assert_eq!(owner.execute(&sql).expect("owner accepts"), 1);
    }
}
