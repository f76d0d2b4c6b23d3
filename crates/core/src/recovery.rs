//! Rebuilding tracker state after a crash (paper §3.5).
//!
//! "BullFrog's status tracking data structures are stored in volatile
//! memory. Upon a crash, they must be reinitialized. While the REDO log is
//! scanned during recovery, for each tuple (or group) that is found in a
//! committed migration transaction, the corresponding status is set to
//! `[0 1]` in the bitmap or `migrated` in the hashmap." The paper lists
//! this as not yet implemented; here it is.
//!
//! Flow: `bullfrog_engine::recovery::replay` rebuilds table contents and
//! returns the `MigrationGranule` records of committed transactions;
//! [`rebuild_trackers`] applies them to freshly allocated trackers.

use std::sync::Arc;

use bullfrog_txn::wal::GranuleKey;

use crate::granule::Granule;
use crate::migrate::StatementRuntime;

/// Applies committed migration-granule records (as returned by engine
/// recovery) to the runtimes' trackers. Returns how many granules were
/// marked.
pub fn rebuild_trackers(
    runtimes: &[Arc<StatementRuntime>],
    migrated: &[(u32, GranuleKey)],
) -> usize {
    let mut applied = 0;
    for (stmt_id, key) in migrated {
        if let Some(rt) = runtimes.iter().find(|rt| rt.id == *stmt_id) {
            if rt.tracker.mark_migrated_direct(&Granule::from_wal(key)) {
                applied += 1;
            }
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::BitmapTracker;
    use crate::granule::GranuleState;
    use crate::hashmap::HashTracker;
    use crate::plan::MigrationStatement;
    use crate::stats::MigrationStats;
    use bullfrog_common::{ColumnDef, DataType, TableSchema, Value};
    use bullfrog_engine::{Database, DbConfig, EngineMode};
    use bullfrog_query::{AggFunc, Expr, SelectSpec};
    use std::sync::atomic::AtomicU64;

    fn runtimes(mode: EngineMode) -> Vec<Arc<StatementRuntime>> {
        let db = Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        });
        db.create_table(
            TableSchema::new(
                "src",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        let mut s0 = MigrationStatement::new(
            TableSchema::new("copy", vec![ColumnDef::new("id", DataType::Int)])
                .with_primary_key(&["id"]),
            SelectSpec::new()
                .from_table("src", "s")
                .select("id", Expr::col("s", "id")),
        );
        s0.resolve(&db).unwrap();
        let mut s1 = MigrationStatement::new(
            TableSchema::new(
                "totals",
                vec![
                    ColumnDef::new("v", DataType::Int),
                    ColumnDef::new("n", DataType::Int),
                ],
            )
            .with_primary_key(&["v"]),
            SelectSpec::new()
                .from_table("src", "s")
                .select("v", Expr::col("s", "v"))
                .select_agg("n", AggFunc::Count, Expr::lit(1)),
        );
        s1.resolve(&db).unwrap();
        vec![
            Arc::new(StatementRuntime {
                id: 0,
                stmt: s0,
                tracker: Arc::new(BitmapTracker::new(100, 1)),
                stats: Arc::new(MigrationStats::new()),
                in_flight: AtomicU64::new(0),
            }),
            Arc::new(StatementRuntime {
                id: 1,
                stmt: s1,
                tracker: Arc::new(HashTracker::new()),
                stats: Arc::new(MigrationStats::new()),
                in_flight: AtomicU64::new(0),
            }),
        ]
    }

    #[test]
    fn rebuild_marks_both_tracker_kinds() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let rts = runtimes(mode);
            let records = vec![
                (0u32, GranuleKey::Ordinal(3)),
                (0, GranuleKey::Ordinal(7)),
                (1, GranuleKey::Group(vec![Value::Int(42)])),
            ];
            let applied = rebuild_trackers(&rts, &records);
            assert_eq!(applied, 3);
            assert_eq!(
                rts[0].tracker.state(&Granule::Ordinal(3)),
                GranuleState::Migrated
            );
            assert_eq!(
                rts[0].tracker.state(&Granule::Ordinal(4)),
                GranuleState::NotStarted
            );
            assert_eq!(
                rts[1].tracker.state(&Granule::Group(vec![Value::Int(42)])),
                GranuleState::Migrated
            );
        }
    }

    #[test]
    fn duplicates_and_unknown_statements_ignored() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let rts = runtimes(mode);
            let records = vec![
                (0u32, GranuleKey::Ordinal(3)),
                (0, GranuleKey::Ordinal(3)), // duplicate
                (9, GranuleKey::Ordinal(1)), // unknown statement
            ];
            assert_eq!(rebuild_trackers(&rts, &records), 1);
            assert_eq!(rts[0].tracker.migrated_count(), 1);
        }
    }
}
