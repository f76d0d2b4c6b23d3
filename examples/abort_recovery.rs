//! Abort storms and crash recovery (paper §3.5).
//!
//! ```text
//! cargo run --release --example abort_recovery
//! ```
//!
//! Part 1 injects aborts into one of every three migration transactions
//! while concurrent workers hammer the new schema: the trackers' reset
//! path guarantees that no tuple is lost or migrated twice.
//!
//! Part 2 "crashes" mid-migration: a fresh database replays the WAL
//! (restoring committed data) and rebuilds the migration trackers from the
//! committed `MigrationGranule` records — the §3.5 feature the paper left
//! unimplemented — then finishes the migration from where it stopped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog::common::{row, ColumnDef, DataType, TableSchema, Value};
use bullfrog::core::{
    BackgroundConfig, Bullfrog, BullfrogConfig, ClientAccess, GranuleState, MigrationPlan,
    MigrationStatement,
};
use bullfrog::engine::{Database, LockPolicy};
use bullfrog::query::{Expr, SelectSpec};

fn schema_and_data(db: &Database, rows: i64) {
    db.create_table(
        TableSchema::new(
            "events",
            vec![
                ColumnDef::new("e_id", DataType::Int),
                ColumnDef::new("e_kind", DataType::Int),
                ColumnDef::new("e_payload", DataType::Text),
            ],
        )
        .with_primary_key(&["e_id"]),
    )
    .unwrap();
    for i in 0..rows {
        db.with_txn(|txn| db.insert(txn, "events", row![i, i % 5, format!("payload-{i}")]))
            .unwrap();
    }
}

fn plan() -> MigrationPlan {
    MigrationPlan::new("event_copy").with_statement(MigrationStatement::new(
        TableSchema::new(
            "events_v2",
            vec![
                ColumnDef::new("e_id", DataType::Int),
                ColumnDef::new("e_kind", DataType::Int),
                ColumnDef::new("e_tag", DataType::Text),
            ],
        )
        .with_primary_key(&["e_id"]),
        SelectSpec::new()
            .from_table("events", "e")
            .select("e_id", Expr::col("e", "e_id"))
            .select("e_kind", Expr::col("e", "e_kind"))
            .select("e_tag", Expr::col("e", "e_payload")),
    ))
}

fn main() {
    // --- part 1: abort injection ----------------------------------------
    println!("== part 1: exactly-once under an abort storm ==");
    let db = Arc::new(Database::new());
    schema_and_data(&db, 600);
    let aborts = Arc::new(AtomicU64::new(0));
    let a2 = Arc::clone(&aborts);
    let bf = Arc::new(Bullfrog::with_config(
        Arc::clone(&db),
        BullfrogConfig {
            failpoint: Some(Arc::new(move || {
                a2.fetch_add(1, Ordering::Relaxed).is_multiple_of(3)
            })),
            background: BackgroundConfig {
                enabled: true,
                start_delay: Duration::from_millis(50),
                batch: 32,
                pause: Duration::ZERO,
                threads: 2,
            },
            ..Default::default()
        },
    ));
    let migration = bf.submit_migration(plan()).unwrap();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let bf = Arc::clone(&bf);
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let mut x = t;
            for _ in 0..300 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let id = ((x >> 33) % 600) as i64;
                let mut txn = db.begin();
                let got = bf
                    .get_by_pk(&mut txn, "events_v2", &[Value::Int(id)], LockPolicy::Shared)
                    .unwrap();
                db.commit(&mut txn).unwrap();
                assert!(got.is_some(), "event {id} must be readable");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(bf.wait_migration_complete(Duration::from_secs(60)));
    println!(
        "  {} rows migrated exactly once despite {} injected aborts — stats: {}",
        db.table("events_v2").unwrap().live_count(),
        bullfrog::core::MigrationStats::get(&migration.stats.migration_aborts),
        migration.stats.summary()
    );
    assert_eq!(db.table("events_v2").unwrap().live_count(), 600);
    bf.shutdown_background();

    // --- part 2: crash + recovery ----------------------------------------
    println!("\n== part 2: crash mid-migration, recover from the WAL ==");
    let db = Arc::new(Database::new());
    schema_and_data(&db, 400);
    let bf = Bullfrog::with_config(
        Arc::clone(&db),
        BullfrogConfig {
            background: BackgroundConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    bf.submit_migration(plan()).unwrap();
    // Migrate part of the table through client requests, then "crash".
    for id in 0..150i64 {
        let mut txn = db.begin();
        bf.get_by_pk(&mut txn, "events_v2", &[Value::Int(id)], LockPolicy::Shared)
            .unwrap();
        db.commit(&mut txn).unwrap();
    }
    let wal_image = db.wal().encode_all();
    println!(
        "  'crash' with {} of 400 rows migrated; WAL image: {} bytes",
        db.table("events_v2").unwrap().live_count(),
        wal_image.len()
    );
    drop(bf);
    drop(db);

    // Recovery: rebuild catalog, replay the log, rebuild the trackers.
    let db = Arc::new(Database::new());
    db.create_table(
        TableSchema::new(
            "events",
            vec![
                ColumnDef::new("e_id", DataType::Int),
                ColumnDef::new("e_kind", DataType::Int),
                ColumnDef::new("e_payload", DataType::Text),
            ],
        )
        .with_primary_key(&["e_id"]),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "events_v2",
            vec![
                ColumnDef::new("e_id", DataType::Int),
                ColumnDef::new("e_kind", DataType::Int),
                ColumnDef::new("e_tag", DataType::Text),
            ],
        )
        .with_primary_key(&["e_id"]),
    )
    .unwrap();
    let records = bullfrog::txn::Wal::decode_all(wal_image).unwrap();
    let stats = bullfrog::engine::recovery::replay(&db, &records).unwrap();
    println!(
        "  replayed {} records from {} committed txns; {} migrated granules recorded",
        stats.applied,
        stats.committed_txns,
        stats.migrated_granules.len()
    );

    // Resume the migration with rebuilt trackers: re-submit the plan on
    // the recovered catalog (output table already exists from replay, so
    // rebuild trackers through a fresh runtime set).
    let mut resumed = plan();
    resumed.resolve(&db).unwrap();
    let stmt = resumed.statements.remove(0);
    let cap = db.table("events").unwrap().heap().ordinal_bound();
    let rt = Arc::new(
        bullfrog::core::StatementRuntime::new(
            &db,
            0,
            stmt,
            Arc::new(bullfrog::core::BitmapTracker::new(cap, 1)),
            Arc::new(bullfrog::core::MigrationStats::new()),
        )
        .unwrap(),
    );
    let applied =
        bullfrog::core::recovery::rebuild_trackers(&[Arc::clone(&rt)], &stats.migrated_granules);
    println!("  trackers rebuilt: {applied} granules restored to [0 1]");
    assert_eq!(
        rt.tracker.state(&bullfrog::core::Granule::Ordinal(0)),
        GranuleState::Migrated
    );

    // Finish the remaining granules through the migration loop.
    let pending = bullfrog::core::candidates_for(&db, &rt, None).unwrap();
    bullfrog::core::migrate_candidates(&db, &rt, pending, &Default::default()).unwrap();
    assert_eq!(db.table("events_v2").unwrap().live_count(), 400);
    println!(
        "  migration resumed and finished: {} rows, {} migrated after recovery (150 were already done)",
        db.table("events_v2").unwrap().live_count(),
        bullfrog::core::MigrationStats::get(&rt.stats.rows_migrated)
    );
}
