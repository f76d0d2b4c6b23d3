//! Fencing regression suite: a deposed primary must never acknowledge
//! writes or ship frames again, and a promoted node must keep its
//! bumped epoch across restarts — with or without the sidecar file.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_core::{Bullfrog, ClientAccess};
use bullfrog_engine::{Database, DbConfig, EngineMode};
use bullfrog_net::{err_code, stat, Client, ClientError, Server, ServerConfig};
use bullfrog_repl::{restore, DdlJournal, Replica, ReplicationSender};
use bullfrog_txn::{EpochStore, WalOptions};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bf-ha-fence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A file-backed primary with a persistent epoch store, serving SQL and
/// replication on an ephemeral loopback port.
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
    let epoch = EpochStore::open(&wal_path).expect("epoch sidecar");
    let sender = ReplicationSender::with_epoch(Arc::clone(&bf), journal, epoch);
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

fn wait_stat(client: &mut Client, key: &str, want: i64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let status = client.status().expect("status poll");
        let got = stat(&status, key).unwrap_or_else(|| panic!("STATUS missing {key}: {status:?}"));
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{key} never reached {want}: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A replica that has observed a newer epoch rejects the old primary's
/// frames, and its re-subscription fences the old primary for good: no
/// more shipped frames, no more acknowledged writes.
#[test]
fn stale_epoch_primary_is_fenced() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("stale");
        let (server, bf, sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let addr = server.local_addr();

        let rbf = Arc::new(Bullfrog::new(Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }))));
        let replica = Replica::start(addr.to_string(), Arc::clone(&rbf));
        let rserver = Server::bind(
            ("127.0.0.1", 0),
            Arc::clone(&rbf),
            ServerConfig {
                read_only: Some(replica.read_only()),
                ..ServerConfig::default()
            },
        )
        .expect("bind replica");

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        admin.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
        bf.db().wal().sync();
        assert!(
            replica.wait_caught_up(bf.db().wal().frontier(), Duration::from_secs(10)),
            "replica never caught up: {:?}",
            replica.stats()
        );

        // Simulate a promotion elsewhere: the replica has seen epoch 5.
        // The old primary is still at epoch 0 and does not know.
        replica
            .epoch_store()
            .observe(5)
            .expect("observe newer epoch");

        // Traffic on the stale primary: its frames now carry a stale epoch,
        // the replica refuses them and re-subscribes at epoch 5, which
        // fences the sender.
        admin.execute("INSERT INTO kv VALUES (2, 20)").unwrap();
        bf.db().wal().sync();
        wait_stat(&mut admin, "repl.fenced", 1, Duration::from_secs(10));
        assert_eq!(
            sender.epoch_store().epoch(),
            5,
            "zombie must adopt the epoch"
        );

        // A fenced primary acknowledges nothing: writes bounce with the
        // READ_ONLY class so clients re-resolve the real primary.
        match admin.execute("INSERT INTO kv VALUES (3, 30)") {
            Err(ClientError::Server { code, message, .. }) => {
                assert_eq!(code, err_code::READ_ONLY, "fenced writes use READ_ONLY");
                assert!(
                    message.contains("fenced"),
                    "message must say fenced: {message}"
                );
            }
            other => panic!("write on fenced primary: expected rejection, got {other:?}"),
        }

        // Nothing written after the fence ever reaches the replica: the row
        // inserted while stale (k=2) and the rejected one (k=3) are absent.
        std::thread::sleep(Duration::from_millis(200));
        let mut rclient = Client::connect(rserver.local_addr()).expect("replica client");
        let (_, rows) = rclient.query_rows("SELECT k, v FROM kv").expect("scan");
        assert_eq!(
            rows.len(),
            1,
            "replica must hold only the pre-fence row: {rows:?}"
        );

        drop((server, rserver, replica));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A promoted replica's bumped epoch survives `restore()` — first via
/// the `.epoch` sidecar, and, with the sidecar deleted, via the durable
/// `Epoch` record promotion appended to its WAL.
#[test]
fn promoted_epoch_survives_restore() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let dir = scratch_dir("restore");
        let (server, bf, _sender) = start_primary(mode, &dir);
        assert_eq!(bf.db().config().mode, mode);
        let addr = server.local_addr();

        // File-backed replica with its own persistent epoch store.
        let rdir = dir.join("replica");
        std::fs::create_dir_all(&rdir).unwrap();
        let r_wal = rdir.join("replica.wal");
        let rdb = Arc::new(
            Database::with_wal_file_opts(
                DbConfig {
                    mode,
                    ..DbConfig::default()
                },
                &r_wal,
                WalOptions::default(),
            )
            .expect("file-backed replica"),
        );
        let rbf = Arc::new(Bullfrog::new(rdb));
        let repoch = EpochStore::open(&r_wal).expect("replica epoch sidecar");
        let mut replica = Replica::start_with_epoch(addr.to_string(), Arc::clone(&rbf), repoch);

        let mut admin = Client::connect(addr).expect("admin");
        admin
            .execute("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        admin.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
        bf.db().wal().sync();
        assert!(
            replica.wait_caught_up(bf.db().wal().frontier(), Duration::from_secs(10)),
            "replica never caught up: {:?}",
            replica.stats()
        );

        let epoch = replica.promote().expect("promote");
        assert_eq!(epoch, 1, "first promotion bumps 0 -> 1");
        assert!(replica.is_promoted());
        // The promoted node serves writes now.
        rbf.db().wal().sync();
        replica.shutdown();
        drop(admin);
        drop(server);
        drop(bf);
        rbf.shutdown_background();
        drop(rbf);

        // Restore with the sidecar present.
        let (bf2, _j2, report) = restore(
            &r_wal,
            DbConfig {
                mode,
                ..DbConfig::default()
            },
            WalOptions::default(),
        )
        .expect("restore with sidecar");
        assert_eq!(bf2.db().config().mode, mode);
        assert_eq!(report.epoch, 1, "sidecar must carry the bumped epoch");
        bf2.shutdown_background();
        drop(bf2);

        // Delete the sidecar: the durable `Epoch` WAL record alone must
        // still reproduce the bumped epoch (and rewrite the sidecar).
        std::fs::remove_file(EpochStore::path_for(&r_wal)).expect("remove sidecar");
        let (bf3, _j3, report) = restore(
            &r_wal,
            DbConfig {
                mode,
                ..DbConfig::default()
            },
            WalOptions::default(),
        )
        .expect("restore from records");
        assert_eq!(bf3.db().config().mode, mode);
        assert_eq!(
            report.epoch, 1,
            "the WAL Epoch record alone must reproduce the epoch"
        );
        bf3.shutdown_background();
        drop(bf3);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
