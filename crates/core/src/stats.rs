//! Migration progress and overhead counters, plus a snapshot of the
//! engine's durability (group-commit WAL + checkpoint) counters.

use std::sync::atomic::{AtomicU64, Ordering};

use bullfrog_engine::Database;
use bullfrog_txn::WalStatsSnapshot;

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

/// Point-in-time durability counters captured from a database: the WAL's
/// group-commit/flush/checkpoint totals plus the current log shape. One
/// capture per run is enough — everything in here is monotonic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurabilityStats {
    /// The WAL's aggregated counters (flushes, group sizes, bytes,
    /// latency, checkpoints, truncated records) summed over every shard.
    pub wal: WalStatsSnapshot,
    /// Per-shard flush counters, indexed by durability shard.
    pub shards: Vec<WalStatsSnapshot>,
    /// LSN-space length of the log (records ever appended).
    pub log_len: u64,
    /// Records currently resident in memory (bounded by checkpointing).
    pub resident_records: u64,
    /// The merged durable horizon (min over shard frontiers).
    pub durable_lsn: u64,
}

impl DurabilityStats {
    /// Captures the counters from `db`'s WAL.
    pub fn capture(db: &Database) -> Self {
        let wal = db.wal();
        DurabilityStats {
            wal: wal.stats(),
            shards: wal.shard_stats(),
            log_len: wal.len() as u64,
            resident_records: wal.resident_records() as u64,
            durable_lsn: wal.durable_lsn(),
        }
    }

    /// One-line summary for bench reports: fsync count vs. batches (the
    /// group-commit win), group sizes, flush latency, per-shard fsync
    /// spread, and log footprint.
    pub fn summary(&self) -> String {
        let spread: Vec<String> = self.shards.iter().map(|s| s.flushes.to_string()).collect();
        format!(
            "{} shards[fsyncs]=[{}] len={} resident={} durable_lsn={}",
            self.wal.summary(),
            spread.join("/"),
            self.log_len,
            self.resident_records,
            self.durable_lsn,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_capture_reflects_wal_shape() {
        use bullfrog_common::{row, ColumnDef, DataType, TableSchema};
        use bullfrog_engine::{DbConfig, EngineMode};

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
            let d = DurabilityStats::capture(&db);
            // One txn = Insert + Commit records.
            assert_eq!(d.log_len, 2);
            assert_eq!(d.resident_records, 2);
            assert!(d.summary().contains("len=2"));
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
