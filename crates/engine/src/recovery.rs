//! WAL replay: the one way back from disk.
//!
//! Crash recovery ([`recover_from_files`]), a replication primary's
//! restart (`bullfrog_repl::restore`) and a replica's snapshot bootstrap
//! share three pieces: [`load_from_files`] reads the checkpoint sidecar
//! and the LSN-contiguous WAL tail, [`CheckpointImage::apply_to`] places
//! the image's rows, and [`apply_frame`] turns a committed transaction's
//! redo records into rows. The log holds committed transactions only,
//! one [`Frame`] each, so a replay is a fold of [`apply_frame`] over the
//! frames (the log is redo-only; the in-memory heaps die with the
//! process, so there is nothing to undo).
//!
//! DDL is not logged: the caller re-creates the catalog (same tables, same
//! creation order, so [`TableId`]s match) before replaying, exactly like
//! restoring a schema dump before applying the log. Both appliers skip
//! and count rows whose table the catalog lacks — a mirror can hold them
//! legitimately after `FINALIZE MIGRATION … DROP OLD` — and the strict
//! entry points here ([`replay`], [`replay_with_checkpoint`],
//! [`recover_from_files`]) turn a non-zero count into
//! [`Error::TableNotFound`] just before they return.
//!
//! `MigrationGranule` records are returned to the caller; `bullfrog-core`
//! uses them to rebuild its bitmap/hashmap trackers (paper §3.5 — listed
//! there as unimplemented future work).

use std::path::Path;

use bullfrog_common::{Error, Result, TableId};
use bullfrog_storage::Table;
use bullfrog_txn::wal::{Frame, GranuleKey};
use bullfrog_txn::{LogRecord, Wal};

use crate::checkpoint::CheckpointImage;
use crate::db::Database;

/// Outcome of applying frames or an image to a database.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Number of committed transactions applied.
    pub committed_txns: usize,
    /// Number of data records and image rows applied.
    pub applied: usize,
    /// Migration granules whose migration committed: `(migration id, key)`.
    pub migrated_granules: Vec<(u32, GranuleKey)>,
    /// Data records and image rows skipped because the local catalog
    /// does not know their table.
    pub skipped_unknown_table: usize,
}

impl RecoveryStats {
    /// Adds `other`'s counts and granules to `self`.
    fn add(&mut self, other: RecoveryStats) {
        self.committed_txns += other.committed_txns;
        self.applied += other.applied;
        self.migrated_granules.extend(other.migrated_granules);
        self.skipped_unknown_table += other.skipped_unknown_table;
    }

    /// Runs `write` against `table` and counts it as applied, or counts
    /// `rows` as skipped when the catalog lacks the table.
    pub(crate) fn write(
        &mut self,
        db: &Database,
        table: TableId,
        rows: usize,
        write: impl FnOnce(&Table) -> Result<()>,
    ) -> Result<()> {
        match db.catalog().get_by_id(table) {
            Ok(t) => {
                write(&t)?;
                self.applied += rows;
            }
            Err(_) => self.skipped_unknown_table += rows,
        }
        Ok(())
    }

    /// The strict entry points' end: rows for a table the catalog lacks
    /// mean the caller re-created the wrong catalog.
    fn strict(self) -> Result<RecoveryStats> {
        match self.skipped_unknown_table {
            0 => Ok(self),
            n => Err(Error::TableNotFound(format!(
                "{n} logged rows name tables missing from the catalog"
            ))),
        }
    }
}

/// Replays `frames` into `db` (whose catalog must already hold the same
/// tables, created in the same order as the original): a fold of
/// [`apply_frame`] over them.
pub fn replay(db: &Database, frames: impl IntoIterator<Item = Frame>) -> Result<RecoveryStats> {
    fold(db, frames, RecoveryStats::default())?.strict()
}

/// Replays a checkpoint image plus the log tail: the image's rows and
/// migrated granules are applied first, then `tail` (whose frames must
/// all start at or above `image.base_lsn` — the part of the log the
/// image does not cover). Equivalent to [`replay`] over the full
/// original log, because a checkpoint cuts at a frame boundary.
pub fn replay_with_checkpoint(
    db: &Database,
    image: &CheckpointImage,
    tail: impl IntoIterator<Item = Frame>,
) -> Result<RecoveryStats> {
    fold(db, tail, image.apply_to(db)?)?.strict()
}

fn fold(
    db: &Database,
    frames: impl IntoIterator<Item = Frame>,
    mut stats: RecoveryStats,
) -> Result<RecoveryStats> {
    for frame in frames {
        stats.add(apply_frame(db, frame)?);
    }
    Ok(stats)
}

/// What [`load_from_files`] read back from disk.
#[derive(Debug, Default)]
pub struct OnDisk {
    /// The checkpoint sidecar's image (empty when there is no sidecar).
    pub image: CheckpointImage,
    /// The WAL file's frames from `image.base_lsn` on, each starting
    /// where the one before ended.
    pub tail: Vec<Frame>,
    /// Highest fencing epoch over every on-disk record, including those
    /// below the image base (0 = none logged): an epoch, once observed,
    /// must never regress, even if the surrounding commit never
    /// acknowledged.
    pub max_epoch: u64,
}

/// Reads the checkpoint sidecar at `ckpt_path` and the WAL file at
/// `wal_path`. A missing sidecar gives an empty image; any other sidecar
/// read or decode error, or an unreadable WAL, is an error.
///
/// The tail is the run of frames starting at the image base, each at the
/// LSN after the one before. Frames below the base are already folded
/// into the image: a crash between sidecar persistence and log rotation
/// leaves both on disk, and those frames are skipped. The file is written
/// in LSN order and its scan stops at the first torn or damaged frame, so
/// what it holds is a prefix of the log: a crash loses only a suffix,
/// never an earlier transaction while a later one survives.
pub fn load_from_files(wal_path: impl AsRef<Path>, ckpt_path: impl AsRef<Path>) -> Result<OnDisk> {
    let mut disk = OnDisk::default();
    match std::fs::read(ckpt_path.as_ref()) {
        Ok(bytes) => disk.image = CheckpointImage::decode(bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(Error::Wal(format!("read checkpoint sidecar: {e}"))),
    }
    let mut expect = disk.image.base_lsn;
    for frame in Wal::load(wal_path)? {
        for r in &frame.records {
            if let LogRecord::Epoch { epoch } = r {
                disk.max_epoch = disk.max_epoch.max(*epoch);
            }
        }
        if frame.first_lsn == expect {
            expect = frame.end_lsn();
            disk.tail.push(frame);
        }
    }
    Ok(disk)
}

/// Full file recovery: [`load_from_files`], then replays image + tail
/// into `db` as [`replay_with_checkpoint`] does. The catalog must already
/// hold the same tables, as with [`replay`].
pub fn recover_from_files(
    db: &Database,
    wal_path: impl AsRef<Path>,
    ckpt_path: impl AsRef<Path>,
) -> Result<RecoveryStats> {
    let disk = load_from_files(wal_path, ckpt_path)?;
    replay_with_checkpoint(db, &disk.image, disk.tail)
}

/// The redo applier: the only code that writes a [`LogRecord`] into a
/// heap. It applies one committed transaction at a time, so it serves a
/// replication stream that never ends as well as a finished log; a
/// replica holds its apply gate around each batch of frames, so readers
/// never see half a transaction. Rows move from the frame into the
/// heaps; the frame's commit timestamp keeps the local oracle past it.
///
/// Applying transactions in log order gives the rows at the rids they
/// were logged with: heap slots are never reused, so every insert places
/// its row at its own rid, whatever order the transactions ran in.
///
/// Records whose table is unknown locally are skipped and counted in
/// [`RecoveryStats::skipped_unknown_table`], not fatal: a mirror applies
/// DDL at journal-defined points, and a record for a table dropped by a
/// later `FINALIZE MIGRATION` can legitimately still sit in the tail.
pub fn apply_frame(db: &Database, frame: Frame) -> Result<RecoveryStats> {
    let mut out = RecoveryStats {
        committed_txns: 1,
        ..RecoveryStats::default()
    };
    // Snapshot-mode commits carry a timestamp: keep the local oracle past
    // it so post-recovery commits (and a promoted replica's) continue the
    // timestamp space instead of reusing it.
    if frame.commit_ts > 0 {
        db.wal().oracle().resume_past(frame.commit_ts);
    }
    for rec in frame.records {
        match rec {
            LogRecord::Insert { table, rid, row } => {
                out.write(db, table, 1, |t| t.place(rid, row))?
            }
            LogRecord::Update { table, rid, after } => {
                out.write(db, table, 1, |t| t.update(rid, &after).map(drop))?
            }
            LogRecord::Delete { table, rid } => {
                out.write(db, table, 1, |t| t.delete(rid).map(drop))?
            }
            LogRecord::MigrationGranule { migration, granule } => {
                out.migrated_granules.push((migration, granule))
            }
            // The fencing epoch's durable home is its sidecar;
            // `load_from_files` reports the log's highest.
            LogRecord::Epoch { .. } => {}
        }
    }
    Ok(out)
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
            let stats = replay(&db2, db.wal().snapshot()).unwrap();
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
            replay(&db2, db.wal().snapshot()).unwrap();
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
            let stats = replay(&db2, db.wal().snapshot()).unwrap();
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
                migration: 1,
                granule: GranuleKey::Ordinal(5),
            });
            db.commit(&mut t1).unwrap();
            // Aborted migration txn.
            let mut t2 = db.begin();
            t2.push_redo(LogRecord::MigrationGranule {
                migration: 1,
                granule: GranuleKey::Ordinal(9),
            });
            db.abort(&mut t2);

            let db2 = db_in(mode);
            db2.create_table(schema()).unwrap();
            let stats = replay(&db2, db.wal().snapshot()).unwrap();
            assert_eq!(stats.migrated_granules, vec![(1, GranuleKey::Ordinal(5))]);
        }
    }

    #[test]
    fn streaming_replay_matches_source_rows() {
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
            let frames = db.wal().snapshot();
            // One frame per committed transaction; the aborted insert
            // never logged.
            assert_eq!(frames.len(), 2);
            let mut applied = 0;
            for frame in frames {
                let out = apply_frame(&db2, frame).unwrap();
                assert_eq!(out.committed_txns, 1);
                applied += out.applied;
            }
            // Two inserts and one delete.
            assert_eq!(applied, 3);
            // Same rows at the same rids as the database that wrote the log.
            assert_eq!(
                db2.select_unlocked("t", None).unwrap(),
                db.select_unlocked("t", None).unwrap()
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
            let frame = Frame {
                first_lsn: 0,
                commit_ts: 0,
                records: vec![
                    LogRecord::Insert {
                        table: TableId(99),
                        rid: bullfrog_common::RowId::new(0, 0),
                        row: row![1, "orphan"],
                    },
                    LogRecord::MigrationGranule {
                        migration: 2,
                        granule: GranuleKey::Ordinal(4),
                    },
                ],
            };
            let out = apply_frame(&db, frame.clone()).unwrap();
            assert_eq!(out.committed_txns, 1);
            assert_eq!(out.applied, 0);
            assert_eq!(out.skipped_unknown_table, 1);
            assert_eq!(out.migrated_granules, vec![(2, GranuleKey::Ordinal(4))]);
            // The strict entry point refuses the same frame.
            assert!(matches!(replay(&db, [frame]), Err(Error::TableNotFound(_))));
        }
    }
}
