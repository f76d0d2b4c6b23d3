//! End-to-end tests of the BullFrog controller: logical flip, lazy
//! migration on access, constraint widening, background completion,
//! failure injection, and the §2.4 validation modes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{row, ColumnDef, DataType, Error, Row, TableSchema, Value};
use bullfrog_core::{
    BackgroundConfig, Bullfrog, BullfrogConfig, ClientAccess, DedupMode, MigrationPlan,
    MigrationStatement, SchemaVersion,
};
use bullfrog_engine::{Database, DbConfig, EngineMode, LockPolicy};
use bullfrog_query::{AggFunc, ColRef, Expr, SelectSpec};

/// Builds a database with an `employees` table (the "old schema").
fn seed_db(mode: EngineMode, rows: i64) -> Arc<Database> {
    let db = Arc::new(Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    }));
    db.create_table(
        TableSchema::new(
            "employees",
            vec![
                ColumnDef::new("e_id", DataType::Int),
                ColumnDef::new("e_name", DataType::Text),
                ColumnDef::new("e_dept", DataType::Int),
                ColumnDef::new("e_salary", DataType::Decimal),
            ],
        )
        .with_primary_key(&["e_id"]),
    )
    .unwrap();
    db.create_index("employees", "employees_dept_idx", &["e_dept"], false)
        .unwrap();
    for i in 0..rows {
        db.insert_unlogged("employees", row![i, format!("emp{i}"), i % 10, i * 100])
            .unwrap();
    }
    db
}

/// Table-split plan: employees → emp_public (id, name, dept) +
/// emp_private (id, salary). 1:n w.r.t. employees; two bitmap statements.
fn split_plan() -> MigrationPlan {
    MigrationPlan::new("employee_split")
        .with_statement(MigrationStatement::new(
            TableSchema::new(
                "emp_public",
                vec![
                    ColumnDef::new("e_id", DataType::Int),
                    ColumnDef::new("e_name", DataType::Text),
                    ColumnDef::new("e_dept", DataType::Int),
                ],
            )
            .with_primary_key(&["e_id"]),
            SelectSpec::new()
                .from_table("employees", "e")
                .select("e_id", Expr::col("e", "e_id"))
                .select("e_name", Expr::col("e", "e_name"))
                .select("e_dept", Expr::col("e", "e_dept")),
        ))
        .with_statement(MigrationStatement::new(
            TableSchema::new(
                "emp_private",
                vec![
                    ColumnDef::new("e_id", DataType::Int),
                    ColumnDef::new("e_salary", DataType::Decimal),
                ],
            )
            .with_primary_key(&["e_id"]),
            SelectSpec::new()
                .from_table("employees", "e")
                .select("e_id", Expr::col("e", "e_id"))
                .select("e_salary", Expr::col("e", "e_salary")),
        ))
}

fn no_background() -> BullfrogConfig {
    BullfrogConfig {
        background: BackgroundConfig {
            enabled: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn fast_background() -> BullfrogConfig {
    BullfrogConfig {
        background: BackgroundConfig {
            enabled: true,
            start_delay: Duration::from_millis(10),
            batch: 64,
            pause: Duration::ZERO,
            threads: 2,
        },
        ..Default::default()
    }
}

#[test]
fn flip_is_instant_and_retires_old_schema() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 100);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        assert_eq!(bf.version(), SchemaVersion::Old);
        bf.submit_migration(split_plan()).unwrap();
        assert_eq!(bf.version(), SchemaVersion::New);
        // New tables exist and are empty (nothing physically migrated yet).
        assert_eq!(db.table("emp_public").unwrap().live_count(), 0);
        // Old schema requests are rejected (big flip).
        let mut txn = db.begin();
        let err = bf
            .select(&mut txn, "employees", None, LockPolicy::Shared)
            .unwrap_err();
        assert!(matches!(err, Error::SchemaRetired(_)));
        db.abort(&mut txn);
    }
}

#[test]
fn select_migrates_only_relevant_tuples() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 100);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        bf.submit_migration(split_plan()).unwrap();

        let pred = Expr::column("e_dept").eq(Expr::lit(3));
        let mut txn = db.begin();
        let rows = bf
            .select(&mut txn, "emp_public", Some(&pred), LockPolicy::Shared)
            .unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(rows.len(), 10, "dept 3 has 10 employees");
        // Only dept-3 rows were physically migrated into emp_public; and the
        // emp_private statement was not touched at all.
        assert_eq!(db.table("emp_public").unwrap().live_count(), 10);
        assert_eq!(db.table("emp_private").unwrap().live_count(), 0);

        let active = bf.active().unwrap();
        let stats = &active.stats;
        assert_eq!(bullfrog_core::MigrationStats::get(&stats.rows_migrated), 10);
    }
}

#[test]
fn get_by_pk_migrates_the_point() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 50);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        bf.submit_migration(split_plan()).unwrap();
        let mut txn = db.begin();
        let got = bf
            .get_by_pk(
                &mut txn,
                "emp_private",
                &[Value::Int(7)],
                LockPolicy::Shared,
            )
            .unwrap();
        db.commit(&mut txn).unwrap();
        let (_, r) = got.unwrap();
        assert_eq!(r, row![7, 700]);
        assert_eq!(db.table("emp_private").unwrap().live_count(), 1);
    }
}

#[test]
fn repeated_requests_do_not_remigrate() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 50);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        bf.submit_migration(split_plan()).unwrap();
        let pred = Expr::column("e_id").lt(Expr::lit(10));
        for _ in 0..5 {
            let mut txn = db.begin();
            let rows = bf
                .select(&mut txn, "emp_public", Some(&pred), LockPolicy::Shared)
                .unwrap();
            db.commit(&mut txn).unwrap();
            assert_eq!(rows.len(), 10);
        }
        let active = bf.active().unwrap();
        assert_eq!(
            bullfrog_core::MigrationStats::get(&active.stats.rows_migrated),
            10,
            "exactly-once despite 5 requests"
        );
    }
}

#[test]
fn background_completes_everything() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 500);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), fast_background());
        bf.submit_migration(split_plan()).unwrap();
        assert!(
            bf.wait_migration_complete(Duration::from_secs(30)),
            "background migration should finish"
        );
        assert_eq!(db.table("emp_public").unwrap().live_count(), 500);
        assert_eq!(db.table("emp_private").unwrap().live_count(), 500);
        // Finalize drops the old table.
        bf.finalize_migration(true).unwrap();
        assert!(db.table("employees").is_err());
        bf.shutdown_background();
    }
}

#[test]
fn clients_and_background_cooperate_exactly_once() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 400);
        assert_eq!(db.config().mode, mode);
        let bf = Arc::new(Bullfrog::with_config(Arc::clone(&db), fast_background()));
        bf.submit_migration(split_plan()).unwrap();

        // Hammer random point lookups from several threads while background
        // migration runs.
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let bf = Arc::clone(&bf);
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut rng = t + 1;
                for _ in 0..200 {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let id = ((rng >> 33) % 400) as i64;
                    let mut txn = db.begin();
                    let got = bf
                        .get_by_pk(
                            &mut txn,
                            "emp_public",
                            &[Value::Int(id)],
                            LockPolicy::Shared,
                        )
                        .unwrap();
                    db.commit(&mut txn).unwrap();
                    assert!(got.is_some(), "employee {id} must be visible");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(bf.wait_migration_complete(Duration::from_secs(30)));
        // Exactly-once: no duplicates in the outputs.
        assert_eq!(db.table("emp_public").unwrap().live_count(), 400);
        assert_eq!(db.table("emp_private").unwrap().live_count(), 400);
        bf.shutdown_background();
    }
}

#[test]
fn abort_injection_never_loses_or_duplicates() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 300);
        assert_eq!(db.config().mode, mode);
        // Every 3rd migration transaction aborts.
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let cfg = BullfrogConfig {
            failpoint: Some(Arc::new(move || {
                c2.fetch_add(1, Ordering::Relaxed).is_multiple_of(3)
            })),
            ..fast_background()
        };
        let bf = Bullfrog::with_config(Arc::clone(&db), cfg);
        bf.submit_migration(split_plan()).unwrap();
        assert!(bf.wait_migration_complete(Duration::from_secs(60)));
        assert_eq!(db.table("emp_public").unwrap().live_count(), 300);
        assert_eq!(db.table("emp_private").unwrap().live_count(), 300);
        let active = bf.active().unwrap();
        assert!(
            bullfrog_core::MigrationStats::get(&active.stats.migration_aborts) > 0,
            "failpoint must actually have fired"
        );
        bf.shutdown_background();
    }
}

#[test]
fn insert_widens_to_unique_conflicts() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 50);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        bf.submit_migration(split_plan()).unwrap();

        // Inserting a *new* employee id works without touching old data beyond
        // the key probe.
        let mut txn = db.begin();
        bf.insert(&mut txn, "emp_public", row![1000, "newbie", 1])
            .unwrap();
        db.commit(&mut txn).unwrap();

        // Inserting an id that exists in the old schema must first migrate the
        // old tuple, then fail the uniqueness check (the old record wins).
        let mut txn = db.begin();
        let err = bf
            .insert(&mut txn, "emp_public", row![7, "imposter", 1])
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        db.abort(&mut txn);
        // Employee 7 was migrated by the conflict probe.
        let mut txn = db.begin();
        let got = bf
            .get_by_pk(&mut txn, "emp_public", &[Value::Int(7)], LockPolicy::Shared)
            .unwrap()
            .unwrap();
        assert_eq!(got.1, row![7, "emp7", 7]);
        db.commit(&mut txn).unwrap();
    }
}

#[test]
fn aggregate_migration_on_access() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 100);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        let plan = MigrationPlan::new("dept_totals").with_statement(MigrationStatement::new(
            TableSchema::new(
                "dept_salary",
                vec![
                    ColumnDef::new("dept", DataType::Int),
                    ColumnDef::nullable("total", DataType::Decimal),
                ],
            )
            .with_primary_key(&["dept"]),
            SelectSpec::new()
                .from_table("employees", "e")
                .select("dept", Expr::col("e", "e_dept"))
                .select_agg("total", AggFunc::Sum, Expr::col("e", "e_salary")),
        ));
        bf.submit_migration(plan).unwrap();

        let mut txn = db.begin();
        let rows = bf
            .select(
                &mut txn,
                "dept_salary",
                Some(&Expr::column("dept").eq(Expr::lit(4))),
                LockPolicy::Shared,
            )
            .unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(rows.len(), 1);
        // dept 4: employees 4, 14, ..., 94 → salaries 400 + 1400 + ... + 9400.
        let expected: i64 = (0..10).map(|k| (4 + 10 * k) * 100).sum();
        assert_eq!(
            rows[0].1,
            Row(vec![Value::Int(4), Value::Decimal(expected)])
        );
        // Only the accessed group was migrated.
        assert_eq!(db.table("dept_salary").unwrap().live_count(), 1);
    }
}

#[test]
fn on_conflict_mode_end_to_end() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 100);
        assert_eq!(db.config().mode, mode);
        let cfg = BullfrogConfig {
            dedup: DedupMode::OnConflict,
            ..fast_background()
        };
        let bf = Bullfrog::with_config(Arc::clone(&db), cfg);
        bf.submit_migration(split_plan()).unwrap();
        // Client requests during background migration.
        for id in 0..20i64 {
            let mut txn = db.begin();
            bf.get_by_pk(
                &mut txn,
                "emp_public",
                &[Value::Int(id)],
                LockPolicy::Shared,
            )
            .unwrap()
            .unwrap();
            db.commit(&mut txn).unwrap();
        }
        assert!(bf.wait_migration_complete(Duration::from_secs(30)));
        assert_eq!(db.table("emp_public").unwrap().live_count(), 100);
        assert_eq!(db.table("emp_private").unwrap().live_count(), 100);
        bf.shutdown_background();
    }
}

#[test]
fn on_conflict_mode_requires_unique_output() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 10);
        assert_eq!(db.config().mode, mode);
        let cfg = BullfrogConfig {
            dedup: DedupMode::OnConflict,
            ..no_background()
        };
        let bf = Bullfrog::with_config(Arc::clone(&db), cfg);
        let plan = MigrationPlan::new("no_unique").with_statement(MigrationStatement::new(
            TableSchema::new("emp_copy", vec![ColumnDef::new("e_id", DataType::Int)]), // no PK!
            SelectSpec::new()
                .from_table("employees", "e")
                .select("e_id", Expr::col("e", "e_id")),
        ));
        assert!(matches!(
            bf.submit_migration(plan),
            Err(Error::InvalidMigration(_))
        ));
    }
}

#[test]
fn eager_validation_rejects_doomed_unique_constraint() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }));
        assert_eq!(db.config().mode, mode);
        db.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("dup", DataType::Int),
            ],
        ))
        .unwrap();
        db.insert_unlogged("t", row![1, 7]).unwrap();
        db.insert_unlogged("t", row![2, 7]).unwrap();
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        // New schema declares uniqueness on a duplicated column: with eager
        // validation the submit itself fails (§2.4 option 1)...
        let plan = MigrationPlan::new("doomed")
            .with_statement(MigrationStatement::new(
                TableSchema::new("t2", vec![ColumnDef::new("dup", DataType::Int)])
                    .with_primary_key(&["dup"]),
                SelectSpec::new()
                    .from_table("t", "s")
                    .select("dup", Expr::col("s", "dup")),
            ))
            .with_eager_validation();
        assert!(matches!(
            bf.submit_migration(plan),
            Err(Error::UniqueViolation { .. })
        ));
        assert!(db.table("t2").is_err(), "no output table left behind");
    }
}

#[test]
fn lazy_constraint_drop_counts_warnings() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // ...and without eager validation, the lazy path proceeds, dropping
        // the conflicting record with a warning counter (§2.4 option 2).
        let db = Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }));
        assert_eq!(db.config().mode, mode);
        db.create_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("dup", DataType::Int),
            ],
        ))
        .unwrap();
        db.insert_unlogged("t", row![1, 7]).unwrap();
        db.insert_unlogged("t", row![2, 7]).unwrap();
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        let plan = MigrationPlan::new("lossy").with_statement(MigrationStatement::new(
            TableSchema::new("t2", vec![ColumnDef::new("dup", DataType::Int)])
                .with_primary_key(&["dup"]),
            SelectSpec::new()
                .from_table("t", "s")
                .select("dup", Expr::col("s", "dup")),
        ));
        bf.submit_migration(plan).unwrap();
        let mut txn = db.begin();
        let rows = bf.select(&mut txn, "t2", None, LockPolicy::Shared).unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(rows.len(), 1, "one of the duplicates survives");
        let active = bf.active().unwrap();
        assert_eq!(
            bullfrog_core::MigrationStats::get(&active.stats.rows_dropped),
            1
        );
    }
}

#[test]
fn backwards_compatible_plan_keeps_old_readable_but_frozen() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 20);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        bf.submit_migration(split_plan().backwards_compatible())
            .unwrap();
        // Old reads still work...
        let mut txn = db.begin();
        let rows = bf
            .select(&mut txn, "employees", None, LockPolicy::Shared)
            .unwrap();
        assert_eq!(rows.len(), 20);
        // ...but writes to the frozen input are rejected while migrating.
        let err = bf
            .insert(&mut txn, "employees", row![99, "x", 0, 0])
            .unwrap_err();
        assert!(matches!(err, Error::SchemaRetired(_)));
        db.commit(&mut txn).unwrap();
    }
}

#[test]
fn second_migration_rejected_while_active() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = seed_db(mode, 10);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        bf.submit_migration(split_plan()).unwrap();
        let plan2 = MigrationPlan::new("again").with_statement(MigrationStatement::new(
            TableSchema::new("x", vec![ColumnDef::new("e_id", DataType::Int)]),
            SelectSpec::new()
                .from_table("employees", "e")
                .select("e_id", Expr::col("e", "e_id")),
        ));
        assert!(matches!(
            bf.submit_migration(plan2),
            Err(Error::InvalidMigration(_))
        ));
    }
}

#[test]
fn join_migration_via_execute_spec_read() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // employees ⋈ departments denormalization, read through execute_spec.
        let db = seed_db(mode, 60);
        assert_eq!(db.config().mode, mode);
        db.create_table(
            TableSchema::new(
                "departments",
                vec![
                    ColumnDef::new("d_id", DataType::Int),
                    ColumnDef::new("d_name", DataType::Text),
                ],
            )
            .with_primary_key(&["d_id"]),
        )
        .unwrap();
        for d in 0..10 {
            db.insert_unlogged("departments", row![d, format!("dept{d}")])
                .unwrap();
        }
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        let plan = MigrationPlan::new("denorm").with_statement(MigrationStatement::new(
            TableSchema::new(
                "emp_dept",
                vec![
                    ColumnDef::new("e_id", DataType::Int),
                    ColumnDef::new("e_name", DataType::Text),
                    ColumnDef::new("d_name", DataType::Text),
                ],
            )
            .with_primary_key(&["e_id"]),
            SelectSpec::new()
                .from_table("employees", "e")
                .from_table("departments", "d")
                .join_on(ColRef::new("e", "e_dept"), ColRef::new("d", "d_id"))
                .select("e_id", Expr::col("e", "e_id"))
                .select("e_name", Expr::col("e", "e_name"))
                .select("d_name", Expr::col("d", "d_name")),
        ));
        bf.submit_migration(plan).unwrap();

        // Read through a spec over the NEW table.
        let read = SelectSpec::new()
            .from_table("emp_dept", "ed")
            .filter(Expr::col("ed", "e_id").eq(Expr::lit(13)))
            .select("e_name", Expr::col("ed", "e_name"))
            .select("d_name", Expr::col("ed", "d_name"));
        let mut txn = db.begin();
        let out = bf
            .execute_spec(&mut txn, &read, &Default::default())
            .unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(
            out.rows[0],
            Row(vec![Value::text("emp13"), Value::text("dept3")])
        );
        assert_eq!(db.table("emp_dept").unwrap().live_count(), 1);
    }
}

#[test]
fn page_granularity_migrates_whole_pages() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        let db = Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }));
        assert_eq!(db.config().mode, mode);
        // Small pages so granularity is visible.
        db.create_table_with_slots(
            TableSchema::new("src", vec![ColumnDef::new("id", DataType::Int)])
                .with_primary_key(&["id"]),
            8,
        )
        .unwrap();
        for i in 0..64 {
            db.insert_unlogged("src", row![i]).unwrap();
        }
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        let plan = MigrationPlan::new("paged").with_statement(
            MigrationStatement::new(
                TableSchema::new("dst", vec![ColumnDef::new("id", DataType::Int)])
                    .with_primary_key(&["id"]),
                SelectSpec::new()
                    .from_table("src", "s")
                    .select("id", Expr::col("s", "id")),
            )
            .with_granule_rows(8),
        );
        bf.submit_migration(plan).unwrap();
        let mut txn = db.begin();
        bf.get_by_pk(&mut txn, "dst", &[Value::Int(3)], LockPolicy::Shared)
            .unwrap()
            .unwrap();
        db.commit(&mut txn).unwrap();
        // The whole 8-row page of id 3 migrated, not just one tuple.
        assert_eq!(db.table("dst").unwrap().live_count(), 8);
    }
}

#[test]
fn sequential_migrations_after_finalize() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // A second evolution can run once the first completes and finalizes —
        // continuous deployment means migrations keep coming.
        let db = seed_db(mode, 40);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), fast_background());
        bf.submit_migration(split_plan()).unwrap();
        assert!(bf.wait_migration_complete(Duration::from_secs(30)));
        bf.shutdown_background();
        bf.finalize_migration(true).unwrap();
        assert!(db.table("employees").is_err());

        // Second migration: re-merge the split (join pub ⋈ priv).
        let merge = MigrationPlan::new("remerge").with_statement(MigrationStatement::new(
            TableSchema::new(
                "employees_v2",
                vec![
                    ColumnDef::new("e_id", DataType::Int),
                    ColumnDef::new("e_name", DataType::Text),
                    ColumnDef::new("e_salary", DataType::Decimal),
                ],
            )
            .with_primary_key(&["e_id"]),
            SelectSpec::new()
                .from_table("emp_public", "p")
                .from_table("emp_private", "s")
                .join_on(ColRef::new("p", "e_id"), ColRef::new("s", "e_id"))
                .select("e_id", Expr::col("p", "e_id"))
                .select("e_name", Expr::col("p", "e_name"))
                .select("e_salary", Expr::col("s", "e_salary")),
        ));
        bf.submit_migration(merge).unwrap();
        let mut txn = db.begin();
        let got = bf
            .get_by_pk(
                &mut txn,
                "employees_v2",
                &[Value::Int(5)],
                LockPolicy::Shared,
            )
            .unwrap()
            .unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(got.1, row![5, "emp5", 500]);
        assert!(bf.wait_migration_complete(Duration::from_secs(30)));
        assert_eq!(db.table("employees_v2").unwrap().live_count(), 40);
        bf.shutdown_background();
    }
}

#[test]
fn update_changing_unique_key_widens_migration() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // §2.1: "updates to the unique attribute" must migrate potentially
        // conflicting records before the check.
        let db = seed_db(mode, 30);
        assert_eq!(db.config().mode, mode);
        let bf = Bullfrog::with_config(Arc::clone(&db), no_background());
        bf.submit_migration(split_plan()).unwrap();
        // Migrate employee 3 via a point read, then try to take employee 7's id.
        let mut txn = db.begin();
        let (rid, _) = bf
            .get_by_pk(
                &mut txn,
                "emp_public",
                &[Value::Int(3)],
                LockPolicy::Exclusive,
            )
            .unwrap()
            .unwrap();
        let err = bf
            .update(&mut txn, "emp_public", rid, row![7, "thief", 3])
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        db.abort(&mut txn);
        // The probe migrated employee 7 to perform the check.
        assert!(db
            .table("emp_public")
            .unwrap()
            .get_by_pk(&[Value::Int(7)])
            .is_some());
    }
}

#[test]
fn wait_and_skip_paths_under_heavy_point_contention() {
    for mode in EngineMode::ALL {
        eprintln!("engine mode: {mode:?}");
        // Many threads all demanding the same few granules: the SKIP list and
        // tracker waits must resolve without losing anyone.
        let db = seed_db(mode, 8);
        assert_eq!(db.config().mode, mode);
        let bf = Arc::new(Bullfrog::with_config(Arc::clone(&db), no_background()));
        bf.submit_migration(split_plan()).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let bf = Arc::clone(&bf);
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let id = ((t + i) % 8) as i64;
                    let mut txn = db.begin();
                    let got = bf
                        .get_by_pk(
                            &mut txn,
                            "emp_private",
                            &[Value::Int(id)],
                            LockPolicy::Shared,
                        )
                        .unwrap();
                    db.commit(&mut txn).unwrap();
                    assert!(got.is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.table("emp_private").unwrap().live_count(), 8);
        let stats = &bf.active().unwrap().stats;
        assert_eq!(
            bullfrog_core::MigrationStats::get(&stats.rows_migrated),
            8,
            "exactly once despite contention (skips={} waits={})",
            bullfrog_core::MigrationStats::get(&stats.skips),
            bullfrog_core::MigrationStats::get(&stats.waits),
        );
    }
}
