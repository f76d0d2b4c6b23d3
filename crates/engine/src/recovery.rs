//! WAL replay.
//!
//! Crash recovery in two passes over the log: first find the committed
//! transactions, then apply their data records in log order. Records of
//! uncommitted/aborted transactions are ignored (the log is redo-only; the
//! in-memory heaps die with the process, so there is nothing to undo).
//!
//! DDL is not logged: the caller re-creates the catalog (same tables, same
//! creation order, so [`TableId`](bullfrog_common::TableId)s match) before replaying, exactly like
//! restoring a schema dump before applying the log.
//!
//! `MigrationGranule` records of committed transactions are returned to the
//! caller; `bullfrog-core` uses them to rebuild its bitmap/hashmap trackers
//! (paper §3.5 — listed there as unimplemented future work).

use std::collections::{HashMap, HashSet};
use std::path::Path;

use bullfrog_common::{Result, TxnId};
use bullfrog_txn::wal::GranuleKey;
use bullfrog_txn::{LogRecord, Wal};
use bytes::Bytes;

use crate::checkpoint::CheckpointImage;
use crate::db::Database;

/// Outcome of a replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Number of committed transactions found.
    pub committed_txns: usize,
    /// Number of data records applied.
    pub applied: usize,
    /// Migration granules whose migration committed: `(migration id, key)`.
    pub migrated_granules: Vec<(u32, GranuleKey)>,
    /// Highest committed fencing epoch in the log (0 = none logged).
    /// Recovery surfaces it so a restored primary can never regress
    /// below an epoch it already promoted to, even without the sidecar.
    pub max_epoch: u64,
}

/// Replays `records` into `db` (whose catalog must already hold the same
/// tables, created in the same order as the original).
pub fn replay(db: &Database, records: &[LogRecord]) -> Result<RecoveryStats> {
    let committed: HashSet<TxnId> = records
        .iter()
        .filter_map(|r| if r.is_commit() { Some(r.txn()) } else { None })
        .collect();
    // Snapshot-mode logs carry commit timestamps; fast-forward the oracle
    // past the highest one so post-recovery commits never reuse a
    // persisted timestamp.
    if let Some(max_ts) = records.iter().filter_map(|r| r.commit_ts()).max() {
        db.wal().oracle().resume_past(max_ts);
    }

    let mut stats = RecoveryStats {
        committed_txns: committed.len(),
        ..Default::default()
    };

    for rec in records {
        if !committed.contains(&rec.txn()) {
            continue;
        }
        match rec {
            LogRecord::Insert {
                table, rid, row, ..
            } => {
                let t = db.catalog().get_by_id(*table)?;
                t.place(*rid, row.clone())?;
                stats.applied += 1;
            }
            LogRecord::Update {
                table, rid, after, ..
            } => {
                let t = db.catalog().get_by_id(*table)?;
                t.update(*rid, after.clone())?;
                stats.applied += 1;
            }
            LogRecord::Delete { table, rid, .. } => {
                let t = db.catalog().get_by_id(*table)?;
                t.delete(*rid)?;
                stats.applied += 1;
            }
            LogRecord::MigrationGranule {
                migration, granule, ..
            } => {
                stats.migrated_granules.push((*migration, granule.clone()));
            }
            LogRecord::Epoch { epoch, .. } => {
                stats.max_epoch = stats.max_epoch.max(*epoch);
            }
            LogRecord::Begin(_)
            | LogRecord::Commit(_)
            | LogRecord::CommitTs { .. }
            | LogRecord::Abort(_) => {}
        }
    }
    Ok(stats)
}

/// Replays a checkpoint image plus the log tail: the image's rows and
/// migrated granules are applied first, then `tail` (whose records must
/// all be at or above `image.base_lsn` — the part of the log the image
/// does not cover). Equivalent to [`replay`] over the full original log,
/// because checkpoint cuts are transaction-safe.
pub fn replay_with_checkpoint(
    db: &Database,
    image: &CheckpointImage,
    tail: &[LogRecord],
) -> Result<RecoveryStats> {
    let applied = image.apply_to(db)?;
    let mut stats = replay(db, tail)?;
    stats.applied += applied;
    stats.migrated_granules = image
        .migrated
        .iter()
        .cloned()
        .chain(stats.migrated_granules)
        .collect();
    Ok(stats)
}

/// Full file recovery: loads the checkpoint sidecar (if present) and the
/// WAL, skips the file prefix the image already covers (a crash between
/// sidecar persistence and log truncation leaves both on disk), and
/// replays image + tail into `db`. The catalog must already hold the same
/// tables, as with [`replay`].
///
/// The replayed tail is the longest **LSN-contiguous** run of merged
/// shard records starting at the image base. A crash can leave a gap in
/// the merged stream — a batch staged on one shard was never flushed
/// while a later-LSN batch on another shard was — and everything past
/// the first gap is discarded rather than replayed. That is exactly the
/// acknowledgement boundary: commits are only ever acknowledged at the
/// merged durable horizon, which cannot pass a gap, so no acknowledged
/// commit is dropped; and because WAL order respects lock order, a
/// surviving commit's dependencies always sit below it in the dense
/// prefix, so replay never applies an update to a row whose insert was
/// lost with the gap.
pub fn recover_from_files(
    db: &Database,
    wal_path: impl AsRef<Path>,
    ckpt_path: impl AsRef<Path>,
) -> Result<RecoveryStats> {
    let image = match std::fs::read(ckpt_path.as_ref()) {
        Ok(bytes) => CheckpointImage::decode(Bytes::from(bytes))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => CheckpointImage::new(),
        Err(e) => {
            return Err(bullfrog_common::Error::Wal(format!(
                "read checkpoint sidecar: {e}"
            )))
        }
    };
    // Merge every WAL shard file into one LSN-ordered stream; records
    // below the image's base are already folded into the image. Stop at
    // the first LSN gap: a missing record means some shard's staged
    // batch died unflushed, so nothing at or above it was ever
    // acknowledged durable (acks wait on the merged horizon), and a
    // commit up there may depend on the very rows the gap swallowed.
    let mut tail: Vec<LogRecord> = Vec::new();
    let mut expect = image.base_lsn;
    for (lsn, r) in Wal::load_sharded(wal_path)? {
        if lsn < image.base_lsn {
            continue;
        }
        if lsn != expect {
            break;
        }
        tail.push(r);
        expect = lsn + 1;
    }
    replay_with_checkpoint(db, &image, &tail)
}

/// Effect of feeding one record to a [`StreamingReplay`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ApplyOutcome {
    /// Data records applied to the database by this call (non-zero only
    /// when the record was a `Commit`, which flushes its buffered txn).
    pub applied: usize,
    /// Whether this record committed a transaction.
    pub committed: bool,
    /// Migration granules of the committed transaction, if any.
    pub granules: Vec<(u32, GranuleKey)>,
    /// Buffered records dropped because their table is unknown locally.
    pub skipped_unknown_table: usize,
    /// A committed fencing-epoch raise carried by this transaction, if
    /// any — a replica adopts (and persists) it on sight.
    pub epoch: Option<u64>,
}

/// Incremental redo-apply for a live log tail, e.g. replicated frames.
///
/// [`replay`] needs the whole record slice up front to decide commit
/// status; a replication stream never ends, so this buffers each
/// transaction's records until its `Commit` arrives (then applies the
/// whole txn atomically from the caller's perspective) or its `Abort`
/// (then drops them). Because a replica only ever receives frames below
/// the primary's merged durable horizon, the stream it sees is exactly a
/// recoverable log prefix — applying txn-at-a-time here produces the same
/// state [`replay`] would.
///
/// Records whose table is unknown locally are skipped (counted, not
/// fatal): the replica applies DDL at journal-defined points, and a
/// record for a table dropped by a later `FINALIZE MIGRATION` can
/// legitimately still sit in the tail.
#[derive(Debug, Default)]
pub struct StreamingReplay {
    buffered: HashMap<TxnId, Vec<LogRecord>>,
}

impl StreamingReplay {
    /// An empty replay with no buffered transactions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every buffered transaction (re-bootstrap from a snapshot:
    /// the image's cut is transaction-safe, so any half-buffered txn is
    /// either fully inside the image or will be re-streamed above it).
    pub fn clear(&mut self) {
        self.buffered.clear();
    }

    /// Transactions currently buffered awaiting their outcome.
    pub fn buffered_txns(&self) -> usize {
        self.buffered.len()
    }

    /// Feeds the next record in LSN order. Data records buffer; `Commit`
    /// applies the transaction's buffered records to `db` and reports
    /// granules; `Abort` discards them.
    pub fn apply(&mut self, db: &Database, rec: &LogRecord) -> Result<ApplyOutcome> {
        let mut out = ApplyOutcome::default();
        match rec {
            LogRecord::Begin(txn) => {
                self.buffered.entry(*txn).or_default();
            }
            LogRecord::Abort(txn) => {
                self.buffered.remove(txn);
            }
            commit if commit.is_commit() => {
                let txn = &commit.txn();
                out.committed = true;
                // Snapshot-mode commits carry a timestamp: keep the local
                // oracle past it so a promoted replica continues the
                // timestamp space instead of reusing it.
                if let Some(ts) = commit.commit_ts() {
                    db.wal().oracle().resume_past(ts);
                }
                for rec in self.buffered.remove(txn).unwrap_or_default() {
                    match &rec {
                        LogRecord::Insert {
                            table, rid, row, ..
                        } => match db.catalog().get_by_id(*table) {
                            Ok(t) => {
                                t.place(*rid, row.clone())?;
                                out.applied += 1;
                            }
                            Err(_) => out.skipped_unknown_table += 1,
                        },
                        LogRecord::Update {
                            table, rid, after, ..
                        } => match db.catalog().get_by_id(*table) {
                            Ok(t) => {
                                t.update(*rid, after.clone())?;
                                out.applied += 1;
                            }
                            Err(_) => out.skipped_unknown_table += 1,
                        },
                        LogRecord::Delete { table, rid, .. } => {
                            match db.catalog().get_by_id(*table) {
                                Ok(t) => {
                                    t.delete(*rid)?;
                                    out.applied += 1;
                                }
                                Err(_) => out.skipped_unknown_table += 1,
                            }
                        }
                        LogRecord::MigrationGranule {
                            migration, granule, ..
                        } => {
                            out.granules.push((*migration, granule.clone()));
                        }
                        LogRecord::Epoch { epoch, .. } => {
                            out.epoch = Some(out.epoch.unwrap_or(0).max(*epoch));
                        }
                        LogRecord::Begin(_)
                        | LogRecord::Commit(_)
                        | LogRecord::CommitTs { .. }
                        | LogRecord::Abort(_) => {}
                    }
                }
            }
            data => {
                self.buffered
                    .entry(data.txn())
                    .or_default()
                    .push(rec.clone());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbConfig, EngineMode, LockPolicy};
    use bullfrog_common::{row, ColumnDef, DataType, TableSchema, Value};

    fn db_in(mode: EngineMode) -> Database {
        Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        })
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Text),
            ],
        )
        .with_primary_key(&["id"])
    }

    #[test]
    fn committed_work_survives_uncommitted_does_not() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_in(mode);
            assert_eq!(db.config().mode, mode);
            db.create_table(schema()).unwrap();

            db.with_txn(|txn| {
                db.insert(txn, "t", row![1, "one"])?;
                db.insert(txn, "t", row![2, "two"])
            })
            .unwrap();
            // A txn that updates then aborts: its records never hit the WAL.
            let mut txn = db.begin();
            let (rid, _) = db
                .get_by_pk(&mut txn, "t", &[Value::Int(1)], LockPolicy::Exclusive)
                .unwrap()
                .unwrap();
            db.update(&mut txn, "t", rid, row![1, "dirty"]).unwrap();
            db.abort(&mut txn);
            // A committed update + delete.
            db.with_txn(|txn| {
                let (rid1, _) = db
                    .get_by_pk(txn, "t", &[Value::Int(1)], LockPolicy::Exclusive)?
                    .unwrap();
                db.update(txn, "t", rid1, row![1, "uno"])?;
                let (rid2, _) = db
                    .get_by_pk(txn, "t", &[Value::Int(2)], LockPolicy::Exclusive)?
                    .unwrap();
                db.delete(txn, "t", rid2).map(|_| ())
            })
            .unwrap();

            // Fresh database, same DDL, replay.
            let db2 = db_in(mode);
            db2.create_table(schema()).unwrap();
            let stats = replay(&db2, &db.wal().snapshot()).unwrap();
            assert_eq!(stats.committed_txns, 2);

            let rows = db2.select_unlocked("t", None).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].1, row![1, "uno"]);
            // The pk index was rebuilt too.
            assert!(db2
                .table("t")
                .unwrap()
                .get_by_pk(&[Value::Int(1)])
                .is_some());
            assert!(db2
                .table("t")
                .unwrap()
                .get_by_pk(&[Value::Int(2)])
                .is_none());
        }
    }

    #[test]
    fn rids_are_preserved_across_commit_reordering() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            // T1 inserts first but commits second; replay must still put each
            // row at its original rid.
            let db = db_in(mode);
            assert_eq!(db.config().mode, mode);
            db.create_table(schema()).unwrap();
            let mut t1 = db.begin();
            let rid1 = db.insert(&mut t1, "t", row![1, "first"]).unwrap();
            let mut t2 = db.begin();
            let rid2 = db.insert(&mut t2, "t", row![2, "second"]).unwrap();
            db.commit(&mut t2).unwrap();
            db.commit(&mut t1).unwrap();
            assert!(rid1 < rid2);

            let db2 = db_in(mode);
            db2.create_table(schema()).unwrap();
            replay(&db2, &db.wal().snapshot()).unwrap();
            let t = db2.table("t").unwrap();
            assert_eq!(t.heap().get(rid1), Some(row![1, "first"]));
            assert_eq!(t.heap().get(rid2), Some(row![2, "second"]));
        }
    }

    #[test]
    fn aborted_insert_leaves_hole() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_in(mode);
            assert_eq!(db.config().mode, mode);
            db.create_table(schema()).unwrap();
            let mut t1 = db.begin();
            db.insert(&mut t1, "t", row![1, "gone"]).unwrap();
            db.abort(&mut t1);
            let rid2 = db
                .with_txn(|txn| db.insert(txn, "t", row![2, "kept"]))
                .unwrap();

            let db2 = db_in(mode);
            db2.create_table(schema()).unwrap();
            let stats = replay(&db2, &db.wal().snapshot()).unwrap();
            assert_eq!(stats.applied, 1);
            let t = db2.table("t").unwrap();
            assert_eq!(t.live_count(), 1);
            assert_eq!(t.heap().get(rid2), Some(row![2, "kept"]));
        }
    }

    #[test]
    fn migration_granules_surface_for_committed_txns_only() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            use bullfrog_txn::wal::GranuleKey;
            use bullfrog_txn::LogRecord;
            let db = db_in(mode);
            assert_eq!(db.config().mode, mode);
            db.create_table(schema()).unwrap();
            // Committed migration txn.
            let mut t1 = db.begin();
            t1.push_redo(LogRecord::MigrationGranule {
                txn: t1.id(),
                migration: 1,
                granule: GranuleKey::Ordinal(5),
            });
            db.commit(&mut t1).unwrap();
            // Aborted migration txn.
            let mut t2 = db.begin();
            t2.push_redo(LogRecord::MigrationGranule {
                txn: t2.id(),
                migration: 1,
                granule: GranuleKey::Ordinal(9),
            });
            db.abort(&mut t2);

            let db2 = db_in(mode);
            db2.create_table(schema()).unwrap();
            let stats = replay(&db2, &db.wal().snapshot()).unwrap();
            assert_eq!(stats.migrated_granules, vec![(1, GranuleKey::Ordinal(5))]);
        }
    }

    #[test]
    fn streaming_replay_matches_batch_replay() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = db_in(mode);
            assert_eq!(db.config().mode, mode);
            db.create_table(schema()).unwrap();
            db.with_txn(|txn| {
                db.insert(txn, "t", row![1, "one"])?;
                db.insert(txn, "t", row![2, "two"])
            })
            .unwrap();
            let mut aborted = db.begin();
            db.insert(&mut aborted, "t", row![3, "ghost"]).unwrap();
            db.abort(&mut aborted);
            db.with_txn(|txn| {
                let (rid, _) = db
                    .get_by_pk(txn, "t", &[Value::Int(2)], LockPolicy::Exclusive)?
                    .unwrap();
                db.delete(txn, "t", rid).map(|_| ())
            })
            .unwrap();

            let db2 = db_in(mode);
            db2.create_table(schema()).unwrap();
            let mut stream = StreamingReplay::new();
            let mut applied = 0;
            for rec in db.wal().snapshot() {
                applied += stream.apply(&db2, &rec).unwrap().applied;
            }
            assert_eq!(stream.buffered_txns(), 0);

            let db3 = db_in(mode);
            db3.create_table(schema()).unwrap();
            let stats = replay(&db3, &db.wal().snapshot()).unwrap();
            assert_eq!(applied, stats.applied);
            assert_eq!(
                db2.select_unlocked("t", None).unwrap(),
                db3.select_unlocked("t", None).unwrap()
            );
        }
    }

    #[test]
    fn streaming_replay_skips_unknown_tables_and_reports_granules() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            use bullfrog_common::TableId;
            use bullfrog_txn::LogRecord;
            let db = db_in(mode);
            assert_eq!(db.config().mode, mode);
            db.create_table(schema()).unwrap();
            let txn = TxnId(7);
            let recs = vec![
                LogRecord::Begin(txn),
                LogRecord::Insert {
                    txn,
                    table: TableId(99),
                    rid: bullfrog_common::RowId::new(0, 0),
                    row: row![1, "orphan"],
                },
                LogRecord::MigrationGranule {
                    txn,
                    migration: 2,
                    granule: GranuleKey::Ordinal(4),
                },
                LogRecord::Commit(txn),
            ];
            let mut stream = StreamingReplay::new();
            let mut last = ApplyOutcome::default();
            for rec in &recs {
                last = stream.apply(&db, rec).unwrap();
            }
            assert!(last.committed);
            assert_eq!(last.applied, 0);
            assert_eq!(last.skipped_unknown_table, 1);
            assert_eq!(last.granules, vec![(2, GranuleKey::Ordinal(4))]);
        }
    }
}
