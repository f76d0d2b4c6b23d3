//! Durability-path integration tests for the file-backed WAL: read-only
//! commits, async commit tickets, the fenced gate, recovery across a
//! checkpoint, the checkpoint-vs-commit race and retain horizons.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{row, ColumnDef, DataType, Error, TableSchema, Value};
use bullfrog_engine::checkpoint::checkpoint_path_for;
use bullfrog_engine::{recovery, Database, DbConfig, EngineMode, LockPolicy};
use bullfrog_txn::AckOutcome;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bullfrog-durability-{tag}-{}.wal",
        std::process::id()
    ))
}

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ],
    )
    .with_primary_key(&["id"])
}

fn file_db(mode: EngineMode, tag: &str) -> (Database, PathBuf, PathBuf) {
    let wal_path = temp_path(tag);
    let _ = std::fs::remove_file(&wal_path);
    let ckpt_path = checkpoint_path_for(&wal_path);
    let _ = std::fs::remove_file(&ckpt_path);
    let db = Database::with_wal_file(
        DbConfig {
            mode,
            ..DbConfig::default()
        },
        &wal_path,
    )
    .expect("file-backed db");
    db.create_table(schema()).unwrap();
    (db, wal_path, ckpt_path)
}

/// Replays `wal_path` + sidecar into a fresh catalog-matched database and
/// returns the sorted live rows of `t`.
fn recovered_rows(mode: EngineMode, wal_path: &Path, ckpt_path: &Path) -> Vec<(i64, i64)> {
    let db = Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    });
    db.create_table(schema()).unwrap();
    recovery::recover_from_files(&db, wal_path, ckpt_path).expect("recovery");
    let mut rows: Vec<(i64, i64)> = db
        .select_unlocked("t", None)
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r.0[0].as_i64().unwrap(), r.0[1].as_i64().unwrap()))
        .collect();
    rows.sort_unstable();
    rows
}

/// Regression for the read-only commit bug: a transaction that never
/// wrote used to append a lone `Commit` record and park on the group
/// commit barrier — an fsync (or a full group window of latency) for a
/// transaction with nothing to make durable.
#[test]
fn read_only_commit_issues_zero_flushes() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (db, wal_path, ckpt_path) = file_db(mode, "readonly");
        assert_eq!(db.config().mode, mode);
        db.with_txn(|txn| db.insert(txn, "t", row![1, 10]).map(|_| ()))
            .unwrap();
        db.wal().sync();
        let len_before = db.wal().len();
        let flushes_before = db.wal().stats().flushes;

        // Read-only commit: select under shared locks, then commit.
        let mut txn = db.begin();
        let got = db
            .get_by_pk(&mut txn, "t", &[Value::Int(1)], LockPolicy::Shared)
            .unwrap();
        assert!(got.is_some());
        db.commit(&mut txn).unwrap();

        // Read-only abort writes nothing either.
        let mut txn = db.begin();
        let _ = db
            .get_by_pk(&mut txn, "t", &[Value::Int(1)], LockPolicy::Shared)
            .unwrap();
        db.abort(&mut txn);

        db.wal().sync();
        assert_eq!(db.wal().len(), len_before, "read-only txns must not log");
        assert_eq!(
            db.wal().stats().flushes,
            flushes_before,
            "read-only commit must not force a flush"
        );

        // And the nowait path hands back an already-durable ticket.
        let mut txn = db.begin();
        let _ = db
            .get_by_pk(&mut txn, "t", &[Value::Int(1)], LockPolicy::Shared)
            .unwrap();
        let ticket = db.commit_nowait(&mut txn).unwrap();
        assert!(ticket.is_durable());

        drop(db);
        std::fs::remove_file(&wal_path).unwrap();
        let _ = std::fs::remove_file(&ckpt_path);
    }
}

/// An abort appends nothing: the transaction's redo never reached the
/// log, so there is nothing to disclaim, and the flusher neither writes
/// nor syncs for it.
#[test]
fn an_abort_leaves_the_file_untouched() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (db, wal_path, ckpt_path) = file_db(mode, "abort");
        assert_eq!(db.config().mode, mode);
        db.with_txn(|txn| db.insert(txn, "t", row![1, 10]).map(|_| ()))
            .unwrap();
        db.wal().sync();
        let file_len = || std::fs::metadata(&wal_path).unwrap().len();
        let before = (db.wal().len(), file_len(), db.wal().stats().flushes);

        // A transaction that inserts, updates and deletes, then aborts.
        let mut txn = db.begin();
        db.insert(&mut txn, "t", row![2, 20]).unwrap();
        let (rid, _) = db
            .get_by_pk(&mut txn, "t", &[Value::Int(1)], LockPolicy::Exclusive)
            .unwrap()
            .unwrap();
        db.update(&mut txn, "t", rid, row![1, 11]).unwrap();
        db.delete(&mut txn, "t", rid).unwrap();
        db.abort(&mut txn);
        db.wal().sync();

        let after = (db.wal().len(), file_len(), db.wal().stats().flushes);
        assert_eq!(after, before, "(wal.len(), file length, wal.flushes)");
        drop(db);
        assert_eq!(recovered_rows(mode, &wal_path, &ckpt_path), vec![(1, 10)]);
        std::fs::remove_file(&wal_path).unwrap();
        let _ = std::fs::remove_file(&ckpt_path);
    }
}

/// A fenced node refuses every writing commit, in-memory or file-backed
/// log alike: the synchronous path returns `Error::Fenced` and the
/// ticket's acked wait says `Fenced`. A read-only transaction appends
/// nothing and still commits on both paths.
#[test]
fn fenced_gate_refuses_writing_commits_on_every_log() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let mem = Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        });
        mem.create_table(schema()).unwrap();
        let (file, wal_path, ckpt_path) = file_db(mode, "fenced");
        for db in [&mem, &file] {
            assert_eq!(db.config().mode, mode);
            db.wal().sync_gate().fence(None);
            let mut txn = db.begin();
            db.insert(&mut txn, "t", row![1, 1]).unwrap();
            assert!(matches!(db.commit(&mut txn), Err(Error::Fenced { .. })));
            let mut txn = db.begin();
            db.insert(&mut txn, "t", row![2, 2]).unwrap();
            let ticket = db.commit_nowait(&mut txn).unwrap();
            assert_eq!(ticket.wait_acked(), AckOutcome::Fenced);

            let read = |txn: &mut _| db.get_by_pk(txn, "t", &[Value::Int(1)], LockPolicy::Shared);
            let mut txn = db.begin();
            assert!(read(&mut txn).unwrap().is_some());
            db.commit(&mut txn).unwrap();
            let mut txn = db.begin();
            assert!(read(&mut txn).unwrap().is_some());
            let ticket = db.commit_nowait(&mut txn).unwrap();
            assert_eq!(ticket.wait_acked(), AckOutcome::Synced);
        }
        drop(file);
        std::fs::remove_file(&wal_path).unwrap();
        let _ = std::fs::remove_file(&ckpt_path);
    }
}

/// Inserts folded into a checkpoint image, then updates, deletes and an
/// abort in the log tail: recovery stitches image and tail back into
/// exactly the committed rows.
#[test]
fn checkpointed_writes_recover_from_files() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (db, wal_path, ckpt_path) = file_db(mode, "ckpt-tail");
        assert_eq!(db.config().mode, mode);
        for i in 0..40i64 {
            db.with_txn(|txn| db.insert(txn, "t", row![i, i * 10]).map(|_| ()))
                .unwrap();
        }
        db.checkpoint().unwrap();
        let mut expect = Vec::new();
        for i in 0..40i64 {
            if i % 3 == 2 {
                expect.push((i, i * 10));
                continue;
            }
            db.with_txn(|txn| {
                let (rid, _) = db
                    .get_by_pk(txn, "t", &[Value::Int(i)], LockPolicy::Exclusive)?
                    .unwrap();
                if i % 3 == 0 {
                    db.update(txn, "t", rid, row![i, i * 10 + 1]).map(|_| ())
                } else {
                    db.delete(txn, "t", rid).map(|_| ())
                }
            })
            .unwrap();
            if i % 3 == 0 {
                expect.push((i, i * 10 + 1));
            }
        }
        // An aborted write leaves no trace.
        let mut txn = db.begin();
        db.insert(&mut txn, "t", row![999, 999]).unwrap();
        db.abort(&mut txn);
        db.wal().sync();
        drop(db);

        assert_eq!(recovered_rows(mode, &wal_path, &ckpt_path), expect);
        std::fs::remove_file(&wal_path).unwrap();
        let _ = std::fs::remove_file(&ckpt_path);
    }
}

/// Every `commit_nowait` whose ticket was awaited must survive recovery:
/// an acknowledged-durable commit is a promise.
#[test]
fn acked_nowait_commits_survive_recovery() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (db, wal_path, ckpt_path) = file_db(mode, "nowait");
        assert_eq!(db.config().mode, mode);
        let db = Arc::new(db);
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    for i in 0..25i64 {
                        let id = (w as i64) * 100 + i;
                        let mut txn = db.begin();
                        db.insert(&mut txn, "t", row![id, id]).unwrap();
                        tickets.push(db.commit_nowait(&mut txn).unwrap());
                    }
                    // Await durability only after enqueueing the whole batch,
                    // so flushes overlap with later commits.
                    for t in &tickets {
                        t.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // No sync: every awaited ticket already guarantees its commit is on
        // disk, so recovery sees all 100 rows even without a drain.
        let rows = recovered_rows(mode, &wal_path, &ckpt_path);
        assert_eq!(rows.len(), 100, "an acked-durable commit was lost");

        drop(db);
        std::fs::remove_file(&wal_path).unwrap();
        let _ = std::fs::remove_file(&ckpt_path);
    }
}

/// Checkpoints racing live committers: the rotation must keep every
/// staged-but-unflushed commit (the `truncate_to` bugfix), so recovery
/// sees exactly the committed rows no matter where the cut landed.
#[test]
fn checkpoint_racing_commits_loses_nothing() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (db, wal_path, ckpt_path) = file_db(mode, "ckptrace");
        assert_eq!(db.config().mode, mode);
        let db = Arc::new(db);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let ckpt = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut cuts = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    db.checkpoint().unwrap();
                    cuts += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                cuts
            })
        };

        let writers: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..50i64 {
                        let id = (w as i64) * 100 + i;
                        db.with_txn(|txn| db.insert(txn, "t", row![id, id]).map(|_| ()))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        let cuts = ckpt.join().unwrap();
        assert!(cuts > 0, "checkpointer never ran");
        db.wal().sync();
        drop(db);

        let rows = recovered_rows(mode, &wal_path, &ckpt_path);
        assert_eq!(
            rows.len(),
            200,
            "a checkpoint cut dropped a committed write"
        );

        std::fs::remove_file(&wal_path).unwrap();
        let _ = std::fs::remove_file(&ckpt_path);
    }
}

/// A registered retain horizon (a replication subscription's resume
/// point) must pin checkpoint truncation: the tail at or above the
/// horizon stays readable until the consumer releases it.
#[test]
fn checkpoint_truncation_respects_retain_horizon() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let (db, wal_path, ckpt_path) = file_db(mode, "retain");
        assert_eq!(db.config().mode, mode);
        for i in 0..30i64 {
            db.with_txn(|txn| db.insert(txn, "t", row![i, i]).map(|_| ()))
                .unwrap();
        }
        db.wal().sync();
        let mid = db.wal().frontier() / 2;
        let (retain_id, granted) = db.wal().register_retain(mid);
        assert_eq!(
            granted, mid,
            "nothing truncated yet: horizon granted as asked"
        );

        for i in 30..60i64 {
            db.with_txn(|txn| db.insert(txn, "t", row![i, i]).map(|_| ()))
                .unwrap();
        }
        db.wal().sync();
        db.checkpoint().unwrap();
        assert_eq!(
            db.wal().base_lsn(),
            mid,
            "truncation must clamp to the registered retain horizon"
        );
        let (tail, _) = db.wal().durable_frames_from(mid, usize::MAX);
        assert!(
            !tail.is_empty() && tail[0].first_lsn == mid,
            "the retained tail must still be streamable from the horizon"
        );

        // Release, write a little more (so the frontier moves), and the
        // next checkpoint reclaims the formerly pinned tail.
        db.wal().release_retain(retain_id);
        for i in 60..70i64 {
            db.with_txn(|txn| db.insert(txn, "t", row![i, i]).map(|_| ()))
                .unwrap();
        }
        db.wal().sync();
        db.checkpoint().unwrap();
        assert!(
            db.wal().base_lsn() > mid,
            "released horizon must stop pinning truncation"
        );

        drop(db);
        std::fs::remove_file(&wal_path).unwrap();
        let _ = std::fs::remove_file(&ckpt_path);
    }
}
