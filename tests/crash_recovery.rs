//! Cross-crate crash-recovery test: data replay from the log's frames,
//! tracker rebuild (§3.5), and migration resumption — including the
//! mixed case where some granules were migrated by committed transactions
//! and others were in flight (uncommitted) at the crash.

use std::sync::Arc;

use bullfrog::common::{row, ColumnDef, DataType, TableSchema, Value};
use bullfrog::core::{
    candidates_for, migrate_candidates, BitmapTracker, Bullfrog, BullfrogConfig, ClientAccess,
    Granule, GranuleState, HashTracker, MigrationPlan, MigrationStatement, MigrationStats,
    StatementRuntime, Tracker,
};
use bullfrog::engine::{recovery::replay, Database, LockPolicy};
use bullfrog::query::{AggFunc, Expr, SelectSpec};
use bullfrog::txn::Wal;

fn make_schema(db: &Database) {
    db.create_table(
        TableSchema::new(
            "readings",
            vec![
                ColumnDef::new("r_id", DataType::Int),
                ColumnDef::new("r_sensor", DataType::Int),
                ColumnDef::new("r_value", DataType::Decimal),
            ],
        )
        .with_primary_key(&["r_id"]),
    )
    .unwrap();
}

fn plan() -> MigrationPlan {
    MigrationPlan::new("sensor_totals")
        .with_statement(MigrationStatement::new(
            TableSchema::new(
                "readings_v2",
                vec![
                    ColumnDef::new("r_id", DataType::Int),
                    ColumnDef::new("r_value", DataType::Decimal),
                ],
            )
            .with_primary_key(&["r_id"]),
            SelectSpec::new()
                .from_table("readings", "r")
                .select("r_id", Expr::col("r", "r_id"))
                .select("r_value", Expr::col("r", "r_value")),
        ))
        .with_statement(MigrationStatement::new(
            TableSchema::new(
                "sensor_totals",
                vec![
                    ColumnDef::new("sensor", DataType::Int),
                    ColumnDef::nullable("total", DataType::Decimal),
                ],
            )
            .with_primary_key(&["sensor"]),
            SelectSpec::new()
                .from_table("readings", "r")
                .select("sensor", Expr::col("r", "r_sensor"))
                .select_agg("total", AggFunc::Sum, Expr::col("r", "r_value")),
        ))
}

#[test]
fn crash_recovery_resumes_both_tracker_kinds() {
    // --- before the crash -------------------------------------------------
    let db = Arc::new(Database::new());
    make_schema(&db);
    for i in 0..200i64 {
        db.with_txn(|txn| db.insert(txn, "readings", row![i, i % 8, i * 10]))
            .unwrap();
    }
    let bf = Bullfrog::with_config(
        Arc::clone(&db),
        BullfrogConfig {
            background: bullfrog::core::BackgroundConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    bf.submit_migration(plan()).unwrap();
    // Migrate part of each statement via client requests.
    for i in 0..60i64 {
        let mut txn = db.begin();
        bf.get_by_pk(
            &mut txn,
            "readings_v2",
            &[Value::Int(i)],
            LockPolicy::Shared,
        )
        .unwrap()
        .unwrap();
        db.commit(&mut txn).unwrap();
    }
    for s in 0..3i64 {
        let mut txn = db.begin();
        bf.get_by_pk(
            &mut txn,
            "sensor_totals",
            &[Value::Int(s)],
            LockPolicy::Shared,
        )
        .unwrap()
        .unwrap();
        db.commit(&mut txn).unwrap();
    }
    let frames = db.wal().snapshot();
    drop(bf);
    drop(db);

    // --- after the crash ---------------------------------------------------
    let db = Arc::new(Database::new());
    make_schema(&db);
    let mut recovered_plan = plan();
    // Recreate output tables in the same order (ids must line up).
    db.create_table(recovered_plan.statements[0].output.clone())
        .unwrap();
    db.create_table(recovered_plan.statements[1].output.clone())
        .unwrap();

    let stats = replay(&db, frames).unwrap();
    // Data recovered: 200 source rows, 60 migrated copies, 3 totals.
    assert_eq!(db.table("readings").unwrap().live_count(), 200);
    assert_eq!(db.table("readings_v2").unwrap().live_count(), 60);
    assert_eq!(db.table("sensor_totals").unwrap().live_count(), 3);
    assert_eq!(stats.migrated_granules.len(), 63);

    // Tracker rebuild.
    recovered_plan.resolve(&db).unwrap();
    let cap = db.table("readings").unwrap().heap().ordinal_bound();
    let rts: Vec<Arc<StatementRuntime>> = recovered_plan
        .statements
        .into_iter()
        .enumerate()
        .map(|(i, stmt)| {
            let tracker: Arc<dyn Tracker> = if i == 0 {
                Arc::new(BitmapTracker::new(cap, 1))
            } else {
                Arc::new(HashTracker::new())
            };
            Arc::new(
                StatementRuntime::new(
                    &db,
                    i as u32,
                    stmt,
                    tracker,
                    Arc::new(MigrationStats::new()),
                )
                .unwrap(),
            )
        })
        .collect();
    let applied = bullfrog::core::recovery::rebuild_trackers(&rts, &stats.migrated_granules);
    assert_eq!(applied, 63);
    assert_eq!(rts[0].tracker.migrated_count(), 60);
    assert_eq!(rts[1].tracker.migrated_count(), 3);
    assert_eq!(
        rts[1].tracker.state(&Granule::Group(vec![Value::Int(2)])),
        GranuleState::Migrated
    );
    assert_eq!(
        rts[1].tracker.state(&Granule::Group(vec![Value::Int(5)])),
        GranuleState::NotStarted
    );

    // Resume: the remaining granules migrate exactly once.
    for rt in &rts {
        let pending = candidates_for(&db, rt, None).unwrap();
        migrate_candidates(&db, rt, pending, &Default::default()).unwrap();
    }
    assert_eq!(db.table("readings_v2").unwrap().live_count(), 200);
    assert_eq!(db.table("sensor_totals").unwrap().live_count(), 8);
    // Totals are correct (not double-counted across the crash).
    for (_, r) in db.select_unlocked("sensor_totals", None).unwrap() {
        let s = r[0].as_i64().unwrap();
        let expected: i64 = (0..200).filter(|i| i % 8 == s).map(|i| i * 10).sum();
        assert_eq!(r[1].as_i64().unwrap(), expected, "sensor {s}");
    }
}

#[test]
fn durable_wal_file_survives_process_style_crash() {
    // Same flow as above but through the on-disk WAL: open a file-backed
    // database, do work, "crash" (drop everything), then recover a fresh
    // database purely from the file — including a torn tail.
    let dir = std::env::temp_dir().join(format!("bullfrog-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.wal");
    let _ = std::fs::remove_file(&path);

    {
        let db = Arc::new(Database::with_wal_file(Default::default(), &path).unwrap());
        make_schema(&db);
        for i in 0..80i64 {
            db.with_txn(|txn| db.insert(txn, "readings", row![i, i % 4, i]))
                .unwrap();
        }
        db.with_txn(|txn| {
            let (rid, _) = db
                .get_by_pk(
                    txn,
                    "readings",
                    &[Value::Int(7)],
                    bullfrog::engine::LockPolicy::Exclusive,
                )?
                .unwrap();
            db.update(txn, "readings", rid, row![7, 3, 777])
        })
        .unwrap();
    } // <- crash: everything in memory is gone

    // Tear the tail to simulate a crash mid-append.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();

    let frames = Wal::load(&path).unwrap();
    let db = Arc::new(Database::new());
    make_schema(&db);
    replay(&db, frames).unwrap();
    // The torn bytes belonged to the last transaction's frame; its
    // checksum fails, so the whole last transaction is ignored —
    // atomicity across the crash.
    let t = db.table("readings").unwrap();
    assert_eq!(t.live_count(), 80);
    let (_, r) = t.get_by_pk(&[Value::Int(7)]).unwrap();
    assert_eq!(r, row![7, 3, 7], "torn update transaction must not apply");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_tail_mid_group_commit_batch_keeps_atomicity() {
    // Concurrent committers share fsyncs through the group-commit window;
    // a crash tearing the file mid-batch must still recover every fully
    // durable transaction and drop the torn one whole.
    use bullfrog::txn::WalOptions;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("bullfrog-group-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("group.wal");
    let _ = std::fs::remove_file(&path);

    const THREADS: i64 = 8;
    const PER_THREAD: i64 = 5;
    {
        let db = Arc::new(
            Database::with_wal_file_opts(
                Default::default(),
                &path,
                WalOptions {
                    group_window: Duration::from_millis(15),
                },
            )
            .unwrap(),
        );
        make_schema(&db);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        let id = t * 100 + i;
                        db.with_txn(|txn| db.insert(txn, "readings", row![id, t, id * 10]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Group commit observable at the engine level: fewer fsyncs than
        // commit batches, so at least one multi-transaction group.
        let stats = db.wal().stats();
        assert_eq!(stats.flushed_batches, (THREADS * PER_THREAD) as u64);
        assert!(
            stats.flushes < stats.flushed_batches,
            "expected coalescing: {} flushes for {} batches",
            stats.flushes,
            stats.flushed_batches
        );
    } // <- crash

    // Tear into the middle of the final flushed batch.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let frames = Wal::load(&path).unwrap();
    let db = Arc::new(Database::new());
    make_schema(&db);
    let stats = replay(&db, frames).unwrap();
    let t = db.table("readings").unwrap();
    // Each transaction inserted exactly one row, so atomicity means:
    // rows recovered == transactions whose frame survived the tear, and
    // the torn transaction is dropped entirely.
    assert_eq!(t.live_count(), stats.committed_txns);
    assert!(
        stats.committed_txns < (THREADS * PER_THREAD) as usize,
        "the tear must have cut at least the final commit"
    );
    // Every surviving row is complete and correct.
    for (_, r) in db.select_unlocked("readings", None).unwrap() {
        let id = r[0].as_i64().unwrap();
        assert_eq!(r, row![id, id / 100, id * 10]);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_truncation_and_file_recovery_restore_tables_and_trackers() {
    // Full durability cycle: work → checkpoint (sidecar + log truncation)
    // → more work in the log tail → crash → recover_from_files. Table
    // contents AND migration-tracker state must come back exactly, with
    // granules merged from both the checkpoint image and the tail.
    use bullfrog::engine::checkpoint::checkpoint_path_for;
    use bullfrog::engine::recovery::recover_from_files;

    let dir = std::env::temp_dir().join(format!("bullfrog-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(checkpoint_path_for(&path));

    {
        let db = Arc::new(Database::with_wal_file(Default::default(), &path).unwrap());
        make_schema(&db);
        for i in 0..200i64 {
            db.with_txn(|txn| db.insert(txn, "readings", row![i, i % 8, i * 10]))
                .unwrap();
        }
        let bf = Bullfrog::with_config(
            Arc::clone(&db),
            BullfrogConfig {
                background: bullfrog::core::BackgroundConfig {
                    enabled: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        bf.submit_migration(plan()).unwrap();
        for i in 0..60i64 {
            let mut txn = db.begin();
            bf.get_by_pk(
                &mut txn,
                "readings_v2",
                &[Value::Int(i)],
                LockPolicy::Shared,
            )
            .unwrap()
            .unwrap();
            db.commit(&mut txn).unwrap();
        }
        for s in 0..3i64 {
            let mut txn = db.begin();
            bf.get_by_pk(
                &mut txn,
                "sensor_totals",
                &[Value::Int(s)],
                LockPolicy::Shared,
            )
            .unwrap()
            .unwrap();
            db.commit(&mut txn).unwrap();
        }

        // Checkpoint: committed prefix folded into the sidecar image, log
        // memory bounded by truncation.
        let before = db.wal().resident_records();
        let cstats = db.checkpoint().unwrap();
        assert!(cstats.dropped_records > 0, "nothing truncated: {cstats:?}");
        assert!(db.wal().resident_records() < before);
        assert_eq!(db.wal().len(), cstats.cut_lsn as usize);

        // Post-checkpoint tail: migrate two more totals granules, so the
        // recovered granule set must merge image + tail.
        for s in 3..5i64 {
            let mut txn = db.begin();
            bf.get_by_pk(
                &mut txn,
                "sensor_totals",
                &[Value::Int(s)],
                LockPolicy::Shared,
            )
            .unwrap()
            .unwrap();
            db.commit(&mut txn).unwrap();
        }
    } // <- crash

    let db = Arc::new(Database::new());
    make_schema(&db);
    let mut recovered_plan = plan();
    db.create_table(recovered_plan.statements[0].output.clone())
        .unwrap();
    db.create_table(recovered_plan.statements[1].output.clone())
        .unwrap();
    let stats = recover_from_files(&db, &path, checkpoint_path_for(&path)).unwrap();

    assert_eq!(db.table("readings").unwrap().live_count(), 200);
    assert_eq!(db.table("readings_v2").unwrap().live_count(), 60);
    assert_eq!(db.table("sensor_totals").unwrap().live_count(), 5);
    assert_eq!(stats.migrated_granules.len(), 65);

    // Tracker rebuild from the merged granule list, then exactly-once
    // resumption.
    recovered_plan.resolve(&db).unwrap();
    let cap = db.table("readings").unwrap().heap().ordinal_bound();
    let rts: Vec<Arc<StatementRuntime>> = recovered_plan
        .statements
        .into_iter()
        .enumerate()
        .map(|(i, stmt)| {
            let tracker: Arc<dyn Tracker> = if i == 0 {
                Arc::new(BitmapTracker::new(cap, 1))
            } else {
                Arc::new(HashTracker::new())
            };
            Arc::new(
                StatementRuntime::new(
                    &db,
                    i as u32,
                    stmt,
                    tracker,
                    Arc::new(MigrationStats::new()),
                )
                .unwrap(),
            )
        })
        .collect();
    let applied = bullfrog::core::recovery::rebuild_trackers(&rts, &stats.migrated_granules);
    assert_eq!(applied, 65);
    assert_eq!(rts[0].tracker.migrated_count(), 60);
    assert_eq!(rts[1].tracker.migrated_count(), 5);

    for rt in &rts {
        let pending = candidates_for(&db, rt, None).unwrap();
        migrate_candidates(&db, rt, pending, &Default::default()).unwrap();
    }
    assert_eq!(db.table("readings_v2").unwrap().live_count(), 200);
    assert_eq!(db.table("sensor_totals").unwrap().live_count(), 8);
    for (_, r) in db.select_unlocked("sensor_totals", None).unwrap() {
        let s = r[0].as_i64().unwrap();
        let expected: i64 = (0..200).filter(|i| i % 8 == s).map(|i| i * 10).sum();
        assert_eq!(r[1].as_i64().unwrap(), expected, "sensor {s}");
    }
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(checkpoint_path_for(&path));
}

#[test]
fn a_foreground_migration_over_many_boxes_waits_for_durability_once() {
    // A client request whose scope is the whole table migrates it in many
    // boxed migration transactions. Each commits without waiting; the
    // request waits once, on the last commit, and that covers them all:
    // every migrated granule comes back from the files.
    use bullfrog::engine::checkpoint::checkpoint_path_for;
    use bullfrog::engine::recovery::recover_from_files;
    use bullfrog::txn::WalOptions;

    const ROWS: i64 = 1000;
    let dir = std::env::temp_dir().join(format!("bullfrog-boxes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("boxes.wal");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(checkpoint_path_for(&path));

    {
        // The group window keeps the last commit undurable until its
        // flush, so the request's one wait is a real wait.
        let opts = WalOptions {
            group_window: std::time::Duration::from_millis(2),
        };
        let db = Arc::new(Database::with_wal_file_opts(Default::default(), &path, opts).unwrap());
        make_schema(&db);
        db.with_txn(|txn| {
            for i in 0..ROWS {
                db.insert(txn, "readings", row![i, i % 8, i * 10])?;
            }
            Ok(())
        })
        .unwrap();
        let bf = Bullfrog::with_config(
            Arc::clone(&db),
            BullfrogConfig {
                background: bullfrog::core::BackgroundConfig {
                    enabled: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        bf.submit_migration(plan()).unwrap();
        let waits = |db: &Database| {
            db.obs()
                .snapshot()
                .histogram("wal.commit_wait_us")
                .map_or(0, |h| h.count())
        };
        let waits_before = waits(&db);
        bf.ensure_migrated("readings_v2", None).unwrap();
        let stats = bf.progress().unwrap().stats;
        assert!(
            stats.migration_txns > 1,
            "one transaction migrated the whole table: {stats:?}"
        );
        assert_eq!(stats.granules_migrated, ROWS as u64);
        assert_eq!(waits(&db) - waits_before, 1, "durability waits");
    } // <- crash

    let db = Arc::new(Database::new());
    make_schema(&db);
    let recovered_plan = plan();
    db.create_table(recovered_plan.statements[0].output.clone())
        .unwrap();
    db.create_table(recovered_plan.statements[1].output.clone())
        .unwrap();
    let stats = recover_from_files(&db, &path, checkpoint_path_for(&path)).unwrap();
    assert_eq!(db.table("readings_v2").unwrap().live_count(), ROWS as usize);
    assert_eq!(stats.migrated_granules.len(), ROWS as usize);
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(checkpoint_path_for(&path));
}
