//! Tests of the eager and multi-step baselines, including equivalence of
//! their final states with lazy BullFrog's.

use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{row, ColumnDef, DataType, Row, TableSchema, Value};
use bullfrog_core::{
    BackgroundConfig, Bullfrog, BullfrogConfig, ClientAccess, EagerMigrator, MigrationPlan,
    MigrationStatement, MultiStepMigrator, SchemaVersion,
};
use bullfrog_engine::{Database, DbConfig, EngineMode, LockPolicy};
use bullfrog_query::{AggFunc, Expr, SelectSpec};

fn seed_db(mode: EngineMode, rows: i64) -> Arc<Database> {
    let db = Arc::new(Database::with_config(DbConfig {
        mode,
        lock_timeout: Duration::from_millis(100),
        ..Default::default()
    }));
    db.create_table(
        TableSchema::new(
            "items",
            vec![
                ColumnDef::new("i_id", DataType::Int),
                ColumnDef::new("i_cat", DataType::Int),
                ColumnDef::new("i_price", DataType::Decimal),
            ],
        )
        .with_primary_key(&["i_id"]),
    )
    .unwrap();
    for i in 0..rows {
        db.insert_unlogged("items", row![i, i % 7, i * 10]).unwrap();
    }
    db
}

fn copy_plan() -> MigrationPlan {
    MigrationPlan::new("item_copy").with_statement(MigrationStatement::new(
        TableSchema::new(
            "items2",
            vec![
                ColumnDef::new("i_id", DataType::Int),
                ColumnDef::new("i_cat", DataType::Int),
                ColumnDef::new("i_price", DataType::Decimal),
            ],
        )
        .with_primary_key(&["i_id"]),
        SelectSpec::new()
            .from_table("items", "i")
            .select("i_id", Expr::col("i", "i_id"))
            .select("i_cat", Expr::col("i", "i_cat"))
            .select("i_price", Expr::col("i", "i_price")),
    ))
}

fn agg_plan() -> MigrationPlan {
    MigrationPlan::new("cat_totals").with_statement(MigrationStatement::new(
        TableSchema::new(
            "cat_totals",
            vec![
                ColumnDef::new("cat", DataType::Int),
                ColumnDef::nullable("total", DataType::Decimal),
            ],
        )
        .with_primary_key(&["cat"]),
        SelectSpec::new()
            .from_table("items", "i")
            .select("cat", Expr::col("i", "i_cat"))
            .select_agg("total", AggFunc::Sum, Expr::col("i", "i_price")),
    ))
}

fn sorted_rows(db: &Database, table: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = db
        .select_unlocked(table, None)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    rows.sort();
    rows
}

#[test]
fn eager_migrates_everything_at_once() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 200);
        assert_eq!(db.config().mode, mode);
        let eager = EagerMigrator::new(Arc::clone(&db));
        assert_eq!(eager.version(), SchemaVersion::Old);
        eager.migrate(copy_plan()).unwrap();
        assert_eq!(eager.version(), SchemaVersion::New);
        assert_eq!(db.table("items2").unwrap().live_count(), 200);
    }
}

#[test]
fn eager_blocks_concurrent_clients_until_done() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 3000);
        assert_eq!(db.config().mode, mode);
        let eager = Arc::new(EagerMigrator::new(Arc::clone(&db)));

        let e2 = Arc::clone(&eager);
        let migrator = std::thread::spawn(move || e2.migrate(copy_plan()));

        // Wait for the flip, then issue a client read. Under 2PL it must
        // observe the complete output (it queues behind the X table lock) or
        // time out while the migration holds the lock; under snapshot
        // isolation the read is lock-free and sees the pre-commit state (no
        // rows) until the single migration transaction commits. Either way a
        // partial result is never visible.
        while eager.version() == SchemaVersion::Old {
            std::thread::yield_now();
        }
        let si = db.config().mode.is_snapshot();
        let mut observed = None;
        for _ in 0..2000 {
            let mut txn = db.begin();
            match eager.select(&mut txn, "items2", None, LockPolicy::Shared) {
                Ok(rows) => {
                    let _ = db.commit(&mut txn);
                    if si && rows.is_empty() {
                        // Pre-commit snapshot; the copy is still running.
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    observed = Some(rows.len());
                    break;
                }
                Err(_) => {
                    db.abort(&mut txn);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        migrator.join().unwrap().unwrap();
        assert_eq!(observed, Some(3000), "reads never see a partial migration");
    }
}

#[test]
fn multistep_reads_old_until_caught_up() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 500);
        assert_eq!(db.config().mode, mode);
        let ms = MultiStepMigrator::new(Arc::clone(&db));
        ms.register(copy_plan()).unwrap();
        // Until the copier finishes, clients stay on the old schema.
        if !ms.is_caught_up() {
            assert_eq!(ms.version(), SchemaVersion::Old);
        }
        assert!(ms.wait_caught_up(Duration::from_secs(30)));
        assert_eq!(ms.version(), SchemaVersion::New);
        assert_eq!(db.table("items2").unwrap().live_count(), 500);
    }
}

#[test]
fn multistep_dual_writes_reach_the_new_schema() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 2000);
        assert_eq!(db.config().mode, mode);
        let ms = MultiStepMigrator::new(Arc::clone(&db));
        ms.register(copy_plan()).unwrap();

        // While the copier runs, perform old-schema writes through the client
        // interface: insert, update, delete. Retry: under snapshot isolation
        // the dual-write mirror can lose a first-updater-wins race against a
        // copier transaction, which is a retryable conflict.
        db.with_txn_retry(20, |txn| {
            ms.insert(txn, "items", row![5000, 1, 999])?;
            Ok(())
        })
        .unwrap();
        db.with_txn_retry(20, |txn| {
            let (rid, _) = ms
                .get_by_pk(txn, "items", &[Value::Int(10)], LockPolicy::Exclusive)?
                .unwrap();
            ms.update(txn, "items", rid, row![10, 3, 12345])
        })
        .unwrap();
        db.with_txn_retry(20, |txn| {
            let (rid, _) = ms
                .get_by_pk(txn, "items", &[Value::Int(11)], LockPolicy::Exclusive)?
                .unwrap();
            ms.delete(txn, "items", rid).map(|_| ())
        })
        .unwrap();

        assert!(ms.wait_caught_up(Duration::from_secs(60)));
        // The new schema reflects every write exactly.
        assert_eq!(sorted_rows(&db, "items"), sorted_rows(&db, "items2"));
        let t2 = db.table("items2").unwrap();
        assert_eq!(
            t2.get_by_pk(&[Value::Int(5000)]).unwrap().1,
            row![5000, 1, 999]
        );
        assert_eq!(
            t2.get_by_pk(&[Value::Int(10)]).unwrap().1,
            row![10, 3, 12345]
        );
        assert!(t2.get_by_pk(&[Value::Int(11)]).is_none());
    }
}

#[test]
fn multistep_aggregate_mirror_keeps_groups_fresh() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 700);
        assert_eq!(db.config().mode, mode);
        let ms = MultiStepMigrator::new(Arc::clone(&db));
        ms.register(agg_plan()).unwrap();

        // Update an item's price mid-copy: its category total must be correct
        // at the end. Retried because the mirror's slice rewrite can lose a
        // first-updater-wins race against the copier under snapshot isolation.
        db.with_txn_retry(20, |txn| {
            let (rid, _) = ms
                .get_by_pk(txn, "items", &[Value::Int(14)], LockPolicy::Exclusive)?
                .unwrap();
            ms.update(txn, "items", rid, row![14, 0, 1_000_000])
        })
        .unwrap();
        assert!(ms.wait_caught_up(Duration::from_secs(60)));

        // Recompute expectation from the old schema directly.
        let mut expected = std::collections::BTreeMap::new();
        for (_, r) in db.select_unlocked("items", None).unwrap() {
            *expected.entry(r[1].clone()).or_insert(0i64) += r[2].as_i64().unwrap();
        }
        for (_, r) in db.select_unlocked("cat_totals", None).unwrap() {
            assert_eq!(
                r[1].as_i64().unwrap(),
                expected[&r[0]],
                "category {} total",
                r[0]
            );
        }
    }
}

#[test]
fn lazy_and_eager_final_states_agree() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // Same data, two strategies, identical end state.
        let db_lazy = seed_db(mode, 300);
        let db_eager = seed_db(mode, 300);
        assert_eq!(db_lazy.config().mode, mode);
        assert_eq!(db_eager.config().mode, mode);

        let bf = Bullfrog::with_config(
            Arc::clone(&db_lazy),
            BullfrogConfig {
                background: BackgroundConfig {
                    enabled: true,
                    start_delay: Duration::from_millis(5),
                    batch: 64,
                    pause: Duration::ZERO,
                    threads: 2,
                },
                ..Default::default()
            },
        );
        bf.submit_migration(agg_plan()).unwrap();
        // Touch some groups through the client path too.
        for cat in 0..7i64 {
            let mut txn = db_lazy.begin();
            let _ = bf.get_by_pk(
                &mut txn,
                "cat_totals",
                &[Value::Int(cat)],
                LockPolicy::Shared,
            );
            let _ = db_lazy.commit(&mut txn);
        }
        assert!(bf.wait_migration_complete(Duration::from_secs(30)));
        bf.shutdown_background();

        let eager = EagerMigrator::new(Arc::clone(&db_eager));
        eager.migrate(agg_plan()).unwrap();

        assert_eq!(
            sorted_rows(&db_lazy, "cat_totals"),
            sorted_rows(&db_eager, "cat_totals")
        );
    }
}
