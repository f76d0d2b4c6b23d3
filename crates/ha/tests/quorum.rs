//! Quorum-lease and synchronous-replication integration tests, fully
//! in-process: three [`HaMember`]s over real loopback servers, a live
//! lease-renewal loop, and an election after the leader disappears.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::{Database, DbConfig, EngineMode};
use bullfrog_ha::{HaConfig, HaMember, HaNode, Role};
use bullfrog_net::{stat, Client, Server, ServerConfig};
use bullfrog_repl::{DdlJournal, Replica, ReplicationSender};
use bullfrog_txn::{EpochStore, WalOptions};
use parking_lot::Mutex;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bf-ha-quorum-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Reserves an ephemeral loopback address the caller re-binds shortly
/// after (members must know each other's addresses before binding).
fn free_addr() -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = listener.local_addr().expect("local addr");
    drop(listener);
    addr
}

/// Leader renewal holds elections off while the leader lives; killing
/// it lapses the lease, the follower stands with the witness's vote,
/// promotes its replica, bumps the epoch, and starts taking writes.
#[test]
fn replica_promotes_after_leader_death() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("election");
        let ttl = Duration::from_millis(250);
        let (p_addr, r_addr, w_addr) = (free_addr(), free_addr(), free_addr());
        let members: Vec<String> = [p_addr, r_addr, w_addr]
            .iter()
            .map(|a| a.to_string())
            .collect();
        let config = |self_addr: SocketAddr| HaConfig {
            self_addr: self_addr.to_string(),
            members: members.clone(),
            lease_ttl: ttl,
        };

        // Primary: file-backed, replication hooks, leader member + loop.
        let wal_path = dir.join("primary.wal");
        let pdb = Arc::new(
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
        let pbf = Arc::new(Bullfrog::new(pdb));
        assert_eq!(pbf.db().config().mode, mode);
        let journal = Arc::new(DdlJournal::open(DdlJournal::path_for(&wal_path)).expect("journal"));
        let pepoch = EpochStore::open(&wal_path).expect("epoch sidecar");
        let sender = ReplicationSender::with_epoch(Arc::clone(&pbf), journal, pepoch);
        let p_member = HaMember::new(
            config(p_addr),
            Arc::clone(sender.epoch_store()),
            Role::Leader,
            Some(pbf.db().wal().sync_gate()),
        );
        let mut p_node = HaNode::spawn(Arc::clone(&p_member), None);
        let p_server = Server::bind(
            p_addr,
            Arc::clone(&pbf),
            ServerConfig {
                replication: Some(Arc::clone(&sender) as _),
                ha: Some(Arc::clone(&p_member) as _),
                ..ServerConfig::default()
            },
        )
        .expect("bind primary");

        // Replica: follower member + loop that can promote it.
        let rbf = Arc::new(Bullfrog::new(Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }))));
        let replica = Replica::start(p_addr.to_string(), Arc::clone(&rbf));
        let r_member = HaMember::new(
            config(r_addr),
            Arc::clone(replica.epoch_store()),
            Role::Follower,
            Some(rbf.db().wal().sync_gate()),
        );
        let read_only = replica.read_only();
        let replica = Arc::new(Mutex::new(replica));
        let mut r_node = HaNode::spawn(Arc::clone(&r_member), Some(Arc::clone(&replica)));
        let _r_server = Server::bind(
            r_addr,
            Arc::clone(&rbf),
            ServerConfig {
                read_only: Some(read_only),
                ha: Some(Arc::clone(&r_member) as _),
                ..ServerConfig::default()
            },
        )
        .expect("bind replica");

        // Witness: vote-granting member only, no data, no loop needed.
        let wbf = Arc::new(Bullfrog::new(Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }))));
        let w_member = HaMember::new(config(w_addr), EpochStore::volatile(), Role::Witness, None);
        let _w_server = Server::bind(
            w_addr,
            wbf,
            ServerConfig {
                ha: Some(Arc::clone(&w_member) as _),
                ..ServerConfig::default()
            },
        )
        .expect("bind witness");

        let mut admin = Client::connect(p_addr).expect("admin");
        admin
            .execute("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        admin.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
        pbf.db().wal().sync();
        assert!(
            replica
                .lock()
                .wait_caught_up(pbf.db().wal().frontier(), Duration::from_secs(10)),
            "replica never caught up"
        );

        // While the leader renews, the follower must not stand for election
        // even well past the startup grace.
        std::thread::sleep(ttl * 4);
        assert_eq!(r_member.role(), Role::Follower, "premature election");
        assert!(!replica.lock().is_promoted(), "premature promotion");
        assert_eq!(p_member.role(), Role::Leader, "leader deposed while alive");

        // Kill the leader: loop first (stop renewals), then the server.
        p_node.shutdown();
        drop(p_server);
        drop(admin);

        // The lease lapses, the witness's vote makes 2/3, the replica
        // promotes and the member becomes leader.
        let deadline = Instant::now() + Duration::from_secs(10);
        while r_member.role() != Role::Leader {
            assert!(Instant::now() < deadline, "follower never won the election");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(replica.lock().is_promoted(), "leadership without promotion");
        assert_eq!(r_member.epoch(), 1, "election must land on epoch 1");

        // The survivor takes writes, reports itself leader, and the write
        // gate is open.
        let mut survivor = Client::connect(r_addr).expect("survivor client");
        let state = survivor.ha_state().expect("ha state");
        assert_eq!(state.role, "leader");
        assert_eq!(state.epoch, 1);
        survivor.execute("INSERT INTO kv VALUES (2, 20)").unwrap();
        let (_, rows) = survivor.query_rows("SELECT k, v FROM kv").expect("scan");
        assert_eq!(rows.len(), 2, "survivor lost the pre-failover row");
        let status = survivor.status().expect("status");
        assert_eq!(
            stat(&status, "ha.is_leader").expect("STATUS missing ha.is_leader"),
            1
        );
        assert_eq!(
            stat(&status, "repl.promoted").expect("STATUS missing repl.promoted"),
            1
        );

        r_node.shutdown();
        replica.lock().shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `SET SYNC_REPLICAS` over the wire: with no replica attached a
/// `DEGRADE` policy acks after its grace (counting the degrade), and
/// with a replica under `BLOCK` the commit waits for the replica ack.
#[test]
fn sync_replicas_degrade_and_block() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("sync");
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
        assert_eq!(bf.db().config().mode, mode);
        let journal = Arc::new(DdlJournal::open(DdlJournal::path_for(&wal_path)).expect("journal"));
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
        let addr = server.local_addr();

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        admin.execute("SET SYNC_REPLICAS 1").unwrap();
        admin.execute("SET SYNC_POLICY DEGRADE 50").unwrap();

        // No replica: the commit must still ack (degraded) rather than
        // hang, and the degrade is counted.
        let t0 = Instant::now();
        admin.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "degrade policy must not block indefinitely"
        );
        let status = admin.status().expect("status");
        assert_eq!(
            stat(&status, "repl.sync_replicas").expect("STATUS missing repl.sync_replicas"),
            1
        );
        assert!(
            stat(&status, "repl.sync_degraded").expect("STATUS missing repl.sync_degraded") >= 1,
            "commit without a replica must count as degraded: {status:?}"
        );

        // Attach a replica and switch to BLOCK: the commit now waits for a
        // real replica ack and the replicated horizon advances.
        let rbf = Arc::new(Bullfrog::new(Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }))));
        let mut replica = Replica::start(addr.to_string(), Arc::clone(&rbf));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = admin.status().expect("status");
            if stat(&status, "repl.sync_peers").expect("STATUS missing repl.sync_peers") >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "replica never registered");
            std::thread::sleep(Duration::from_millis(10));
        }
        admin.execute("SET SYNC_POLICY BLOCK").unwrap();
        admin.execute("INSERT INTO kv VALUES (2, 20)").unwrap();
        let status = admin.status().expect("status");
        assert!(
            stat(&status, "repl.sync_replicated_lsn")
                .expect("STATUS missing repl.sync_replicated_lsn")
                > 0,
            "replica ack horizon must have advanced: {status:?}"
        );

        replica.shutdown();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
