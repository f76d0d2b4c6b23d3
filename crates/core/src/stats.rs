//! Migration progress and overhead counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters published by an active migration (all monotonically
/// increasing; read with relaxed ordering — they are diagnostics, not
/// synchronization).
#[derive(Debug, Default)]
pub struct MigrationStats {
    /// Granules physically migrated (committed).
    pub granules_migrated: AtomicU64,
    /// Output rows inserted by migration transactions.
    pub rows_migrated: AtomicU64,
    /// Migration transactions committed.
    pub migration_txns: AtomicU64,
    /// Migration transactions aborted (and their claims reset).
    pub migration_aborts: AtomicU64,
    /// Granules found claimed by another worker (SKIP-list appends).
    pub skips: AtomicU64,
    /// Times a worker blocked waiting for another worker's in-progress
    /// granule (Algorithm 1 line 10 loop).
    pub waits: AtomicU64,
    /// Output rows that violated a new-schema constraint and were dropped
    /// during migration (paper §2.4's "warning" path).
    pub rows_dropped: AtomicU64,
    /// Rows whose insert was skipped by ON CONFLICT dedup (§3.7 mode).
    pub conflict_skips: AtomicU64,
    /// Granules migrated by background threads (subset of
    /// `granules_migrated`).
    pub background_granules: AtomicU64,
}

impl MigrationStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// A coherent-enough point-in-time copy of every counter (each read
    /// is individually atomic; the set is advisory, as all diagnostics
    /// here are).
    pub fn snapshot(&self) -> MigrationStatsSnapshot {
        MigrationStatsSnapshot {
            granules_migrated: Self::get(&self.granules_migrated),
            rows_migrated: Self::get(&self.rows_migrated),
            migration_txns: Self::get(&self.migration_txns),
            migration_aborts: Self::get(&self.migration_aborts),
            skips: Self::get(&self.skips),
            waits: Self::get(&self.waits),
            rows_dropped: Self::get(&self.rows_dropped),
            conflict_skips: Self::get(&self.conflict_skips),
            background_granules: Self::get(&self.background_granules),
        }
    }

    /// One-line progress summary.
    pub fn summary(&self) -> String {
        format!(
            "granules={} rows={} txns={} aborts={} skips={} waits={} dropped={} conflicts={} bg={}",
            Self::get(&self.granules_migrated),
            Self::get(&self.rows_migrated),
            Self::get(&self.migration_txns),
            Self::get(&self.migration_aborts),
            Self::get(&self.skips),
            Self::get(&self.waits),
            Self::get(&self.rows_dropped),
            Self::get(&self.conflict_skips),
            Self::get(&self.background_granules),
        )
    }
}

/// Plain-value copy of [`MigrationStats`], fit for shipping over the
/// wire (the server's `STATUS` opcode) or embedding in reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStatsSnapshot {
    /// See [`MigrationStats::granules_migrated`].
    pub granules_migrated: u64,
    /// See [`MigrationStats::rows_migrated`].
    pub rows_migrated: u64,
    /// See [`MigrationStats::migration_txns`].
    pub migration_txns: u64,
    /// See [`MigrationStats::migration_aborts`].
    pub migration_aborts: u64,
    /// See [`MigrationStats::skips`].
    pub skips: u64,
    /// See [`MigrationStats::waits`].
    pub waits: u64,
    /// See [`MigrationStats::rows_dropped`].
    pub rows_dropped: u64,
    /// See [`MigrationStats::conflict_skips`].
    pub conflict_skips: u64,
    /// See [`MigrationStats::background_granules`].
    pub background_granules: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_capture_reflects_wal_shape() {
        use bullfrog_common::{row, ColumnDef, DataType, TableSchema};
        use bullfrog_engine::{Database, DbConfig, EngineMode};

        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = Database::with_config(DbConfig {
                mode,
                ..DbConfig::default()
            });
            assert_eq!(db.config().mode, mode);
            db.create_table(
                TableSchema::new("t", vec![ColumnDef::new("id", DataType::Int)])
                    .with_primary_key(&["id"]),
            )
            .unwrap();
            db.with_txn(|txn| db.insert(txn, "t", row![1]).map(|_| ()))
                .unwrap();
            // One txn = one frame of its one Insert record.
            assert_eq!(db.wal().len(), 1);
            assert_eq!(db.wal().resident_records(), 1);
            assert_eq!(db.wal().snapshot().len(), 1);
        }
    }

    #[test]
    fn counters_accumulate() {
        let s = MigrationStats::new();
        MigrationStats::add(&s.granules_migrated, 3);
        MigrationStats::add(&s.granules_migrated, 2);
        assert_eq!(MigrationStats::get(&s.granules_migrated), 5);
        assert!(s.summary().contains("granules=5"));
    }
}
