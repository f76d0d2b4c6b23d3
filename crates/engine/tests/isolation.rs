//! Engine isolation tests: no dirty reads, strict-2PL write visibility,
//! clean rollback of multi-table transactions, and lock release on abort.

use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{row, ColumnDef, DataType, Error, TableSchema, Value};
use bullfrog_engine::{Database, DbConfig, EngineMode, LockPolicy};
use bullfrog_txn::{LockKey, LockMode};

fn db(mode: EngineMode) -> Arc<Database> {
    db_with(DbConfig {
        mode,
        lock_timeout: Duration::from_millis(40),
        ..Default::default()
    })
}

fn db_with(config: DbConfig) -> Arc<Database> {
    let db = Arc::new(Database::with_config(config));
    db.create_table(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    db
}

#[test]
fn no_dirty_reads_through_shared_locks() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = db(mode);
        assert_eq!(db.config().mode, mode);
        let rid = db.with_txn(|txn| db.insert(txn, "t", row![1, 10])).unwrap();

        // Writer updates but does not commit.
        let mut writer = db.begin();
        db.update(&mut writer, "t", rid, row![1, 99]).unwrap();

        // Neither engine mode lets the reader observe v=99: under 2PL the
        // S-lock request blocks and times out; under snapshot isolation the
        // read is lock-free and returns the last committed version.
        let mut reader = db.begin();
        if db.config().mode.is_snapshot() {
            assert_eq!(
                db.get(&mut reader, "t", rid, LockPolicy::Shared).unwrap(),
                Some(row![1, 10])
            );
        } else {
            let err = db
                .get(&mut reader, "t", rid, LockPolicy::Shared)
                .unwrap_err();
            assert!(matches!(err, Error::LockTimeout { .. }));
        }
        db.abort(&mut reader);

        // Writer aborts; the reader then sees the original value.
        db.abort(&mut writer);
        let mut reader = db.begin();
        assert_eq!(
            db.get(&mut reader, "t", rid, LockPolicy::Shared).unwrap(),
            Some(row![1, 10])
        );
        db.commit(&mut reader).unwrap();
    }
}

#[test]
fn select_recheck_skips_rows_that_vanish() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = db(mode);
        assert_eq!(db.config().mode, mode);
        db.with_txn(|txn| {
            for i in 0..10 {
                db.insert(txn, "t", row![i, i])?;
            }
            Ok(())
        })
        .unwrap();
        // Delete row 5 concurrently-ish (before the reader locks it).
        db.with_txn(|txn| {
            let (rid, _) = db
                .get_by_pk(txn, "t", &[Value::Int(5)], LockPolicy::Exclusive)?
                .unwrap();
            db.delete(txn, "t", rid).map(|_| ())
        })
        .unwrap();
        let mut txn = db.begin();
        let rows = db.select(&mut txn, "t", None, LockPolicy::Shared).unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(rows.len(), 9);
    }
}

#[test]
fn abort_releases_all_locks_immediately() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = db(mode);
        assert_eq!(db.config().mode, mode);
        let rid = db.with_txn(|txn| db.insert(txn, "t", row![1, 10])).unwrap();
        let mut t1 = db.begin();
        db.update(&mut t1, "t", rid, row![1, 11]).unwrap();
        db.abort(&mut t1);
        // No residual locks: an immediate exclusive access succeeds.
        db.with_txn(|txn| db.update(txn, "t", rid, row![1, 12]))
            .unwrap();
        assert_eq!(db.lock_manager().locked_key_count(), 0);
    }
}

#[test]
fn multi_table_rollback_is_atomic() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = db(mode);
        assert_eq!(db.config().mode, mode);
        db.create_table(
            TableSchema::new(
                "u",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        let rid = db.with_txn(|txn| db.insert(txn, "t", row![1, 10])).unwrap();

        let mut txn = db.begin();
        db.insert(&mut txn, "u", row![100, 0]).unwrap();
        db.update(&mut txn, "t", rid, row![1, 20]).unwrap();
        db.insert(&mut txn, "u", row![101, 0]).unwrap();
        db.delete(&mut txn, "t", rid).unwrap();
        db.abort(&mut txn);

        assert_eq!(db.table("u").unwrap().live_count(), 0);
        let mut txn = db.begin();
        assert_eq!(
            db.get(&mut txn, "t", rid, LockPolicy::Shared).unwrap(),
            Some(row![1, 10])
        );
        db.commit(&mut txn).unwrap();
    }
}

#[test]
fn undo_applies_in_reverse_order() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // Update the same row repeatedly inside one txn; abort must restore
        // the ORIGINAL image, not an intermediate one.
        let db = db(mode);
        assert_eq!(db.config().mode, mode);
        let rid = db.with_txn(|txn| db.insert(txn, "t", row![1, 0])).unwrap();
        let mut txn = db.begin();
        for v in 1..=5 {
            db.update(&mut txn, "t", rid, row![1, v]).unwrap();
        }
        db.abort(&mut txn);
        let mut txn = db.begin();
        assert_eq!(
            db.get(&mut txn, "t", rid, LockPolicy::Shared).unwrap(),
            Some(row![1, 0])
        );
        db.commit(&mut txn).unwrap();
    }
}

#[test]
fn committed_writes_are_immediately_visible_to_new_readers() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }));
        assert_eq!(db.config().mode, mode);
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let id = t * 1000 + i;
                    db.with_txn(|txn| db.insert(txn, "t", row![id, id]))
                        .unwrap();
                    // Immediately readable by a fresh transaction.
                    let mut txn = db.begin();
                    let got = db
                        .get_by_pk(&mut txn, "t", &[Value::Int(id)], LockPolicy::Shared)
                        .unwrap();
                    db.commit(&mut txn).unwrap();
                    assert!(got.is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.table("t").unwrap().live_count(), 400);
    }
}

#[test]
fn table_intents_are_taken_once_and_fold_into_the_held_mode() {
    // Row reads lock only under 2PL; snapshot reads take no locks.
    let db = db_with(DbConfig {
        mode: EngineMode::TwoPL,
        ..Default::default()
    });
    db.with_txn(|txn| {
        for i in 0..500 {
            db.insert(txn, "t", row![i, i])?;
        }
        Ok(())
    })
    .unwrap();
    let table = LockKey::Table(db.table("t").unwrap().id());
    let lm = db.lock_manager();

    let mut txn = db.begin();
    let rows = db.select(&mut txn, "t", None, LockPolicy::Shared).unwrap();
    assert_eq!(rows.len(), 500);
    assert_eq!(txn.locks.len(), 501, "one table key plus one key per row");
    assert_eq!(lm.held(txn.id(), table), Some(LockMode::IS));
    db.insert(&mut txn, "t", row![500, 0]).unwrap();
    assert_eq!(lm.held(txn.id(), table), Some(LockMode::IX));
    db.commit(&mut txn).unwrap();

    let mut txn = db.begin();
    db.lock(&mut txn, table, LockMode::S).unwrap();
    db.lock(&mut txn, table, LockMode::IX).unwrap();
    assert_eq!(lm.held(txn.id(), table), Some(LockMode::SIX));
    assert_eq!(txn.locks, vec![table], "upgrades record the key once");
    db.commit(&mut txn).unwrap();
    assert_eq!(lm.locked_key_count(), 0);
}
