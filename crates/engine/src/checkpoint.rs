//! Checkpointing: bound the WAL by snapshotting its committed prefix.
//!
//! A checkpoint turns the log prefix below a transaction-safe cut (see
//! [`Wal::safe_cut`](bullfrog_txn::Wal::safe_cut)) into a
//! [`CheckpointImage`] — the rows every table would hold after
//! replaying that prefix, plus the migration granules
//! whose migration committed in it. The image is **built by replay, not by
//! scanning live heaps**, so it needs no table locks and is trivially
//! consistent: it is exactly what recovery would have produced.
//!
//! Images are incremental. Each checkpoint folds only the log delta
//! since the previous cut into the running image — streamed off the log's
//! bytes one record at a time (`CheckpointImage::fold_from`), so the
//! delta is never resident as records — persists the image to a sidecar
//! file (temp + [`durable_rename`], so a crash never leaves a
//! half-written image and a power loss never undoes the rename), and only
//! then truncates the log
//! ([`Wal::truncate_to`](bullfrog_txn::Wal::truncate_to)).
//! Crashing between those steps is safe in both orders: recovery replays
//! `image + tail records at or above the image's base LSN`, and
//! [`recovery::load_from_files`](crate::recovery::load_from_files)
//! skips the already-absorbed file prefix.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bullfrog_common::fs::durable_rename;
use bullfrog_common::{Error, Result, Row, RowId, TableId, TxnId};
use bullfrog_txn::wal::{codec, GranuleKey};
use bullfrog_txn::{LogRecord, Wal};
pub use bytes::Bytes;

use bytes::{Buf, BufMut, BytesMut};
use parking_lot::Mutex;

use crate::db::Database;
use crate::recovery::{CommitBuffer, RecoveryStats};

/// Magic prefix of checkpoint sidecar files, the only image format: the
/// header fields fixed-width, the rows, row ids and granules in the WAL's
/// varint record codec.
const CKPT_MAGIC: [u8; 7] = *b"BFCKPT3";

/// The effect of replaying the committed log prefix below `base_lsn`:
/// every table's rows (at their original row ids) and the committed
/// migration granules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointImage {
    /// Records below this LSN are covered by the image.
    pub base_lsn: u64,
    /// Highest commit timestamp folded into the image (0 when the
    /// absorbed prefix held no `CommitTs` records). Recovery resumes the
    /// timestamp oracle past this, so post-restart commits never reuse a
    /// timestamp the image already covers.
    pub base_ts: u64,
    /// Surviving rows per table.
    pub tables: BTreeMap<TableId, BTreeMap<RowId, Row>>,
    /// `(migration id, granule)` pairs whose migration committed.
    pub migrated: Vec<(u32, GranuleKey)>,
}

impl CheckpointImage {
    /// An empty image covering nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows in the image, across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Folds a log delta into the image. The delta must be the records in
    /// `[self.base_lsn, cut)` for a transaction-safe `cut`: every
    /// transaction in it is then fully contained, so commit status is
    /// decidable from the slice alone. Transactions left without an
    /// outcome (a crash tail) are not applied.
    pub fn absorb(&mut self, delta: &[LogRecord], cut: u64) {
        let committed: std::collections::HashSet<TxnId> = delta
            .iter()
            .filter_map(|r| if r.is_commit() { Some(r.txn()) } else { None })
            .collect();
        if let Some(max_ts) = delta.iter().filter_map(|r| r.commit_ts()).max() {
            self.base_ts = self.base_ts.max(max_ts);
        }
        for rec in delta {
            if committed.contains(&rec.txn()) {
                self.put(rec.clone());
            }
        }
        self.base_lsn = cut;
    }

    /// As [`CheckpointImage::absorb`] over `wal`'s records in
    /// `[self.base_lsn, cut)`, but streamed: each record is decoded once,
    /// straight off the log's bytes ([`Wal::scan`]), buffered with its
    /// transaction until the outcome (`recovery::CommitBuffer`, shared with
    /// [`crate::recovery::StreamingReplay`]) and then moved into the image.
    /// Only unresolved transactions are ever held, never the delta.
    /// Returns the records folded.
    pub(crate) fn fold_from(&mut self, wal: &Wal, cut: u64) -> usize {
        let mut pending = CommitBuffer::default();
        let folded = wal.scan(self.base_lsn, cut, |_, rec| {
            if let Some(ts) = rec.commit_ts() {
                self.base_ts = self.base_ts.max(ts);
            }
            for committed in pending.feed(rec).into_iter().flatten() {
                self.put(committed);
            }
        });
        self.base_lsn = cut;
        folded
    }

    /// Applies one record of a committed transaction, moving its row in.
    fn put(&mut self, rec: LogRecord) {
        match rec {
            LogRecord::Insert {
                table, rid, row, ..
            }
            | LogRecord::Update {
                table,
                rid,
                after: row,
                ..
            } => {
                self.tables.entry(table).or_default().insert(rid, row);
            }
            LogRecord::Delete { table, rid, .. } => {
                self.tables.entry(table).or_default().remove(&rid);
            }
            LogRecord::MigrationGranule {
                migration, granule, ..
            } => self.migrated.push((migration, granule)),
            // The epoch's durable home is its sidecar (and the retained
            // log tail); the image does not carry it.
            LogRecord::Epoch { .. }
            | LogRecord::Begin(_)
            | LogRecord::Commit(_)
            | LogRecord::CommitTs { .. }
            | LogRecord::Abort(_) => {}
        }
    }

    /// The image applier: places the image's rows into `db` (whose
    /// catalog must already hold the same tables, like
    /// [`crate::recovery::replay`]) and resumes the timestamp oracle past
    /// `base_ts`. Rows of tables the catalog lacks are skipped and
    /// counted, as the redo applier does. The returned stats carry the
    /// image's migrated granules.
    pub fn apply_to(&self, db: &Database) -> Result<RecoveryStats> {
        let mut stats = RecoveryStats {
            migrated_granules: self.migrated.clone(),
            ..RecoveryStats::default()
        };
        for (table, rows) in &self.tables {
            stats.write(db, *table, rows.len(), |t| {
                rows.iter()
                    .try_for_each(|(rid, row)| t.place(*rid, row.clone()))
            })?;
        }
        // Keep the timestamp oracle past the image's commit horizon
        // (no-op for 2PL images, whose base_ts is 0).
        db.wal().oracle().resume_past(self.base_ts);
        Ok(stats)
    }

    /// Serializes the image (rows in deterministic table/rid order).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(&CKPT_MAGIC);
        buf.put_u64(self.base_lsn);
        buf.put_u64(self.base_ts);
        buf.put_u32(self.tables.len() as u32);
        for (table, rows) in &self.tables {
            buf.put_u32(table.0);
            buf.put_u32(rows.len() as u32);
            for (rid, row) in rows {
                codec::put_rid(&mut buf, *rid);
                codec::put_row(&mut buf, row);
            }
        }
        buf.put_u32(self.migrated.len() as u32);
        for (migration, granule) in &self.migrated {
            buf.put_u32(*migration);
            codec::put_granule(&mut buf, granule);
        }
        buf.freeze()
    }

    /// Parses an image produced by [`CheckpointImage::encode`]; any other
    /// format is an error.
    pub fn decode(bytes: impl Into<Bytes>) -> Result<Self> {
        let mut bytes = bytes.into();
        if !bytes.starts_with(&CKPT_MAGIC) {
            let found = &bytes[..bytes.len().min(CKPT_MAGIC.len())];
            return Err(Error::Wal(format!(
                "not a BFCKPT3 checkpoint image: it starts {:?}",
                String::from_utf8_lossy(found)
            )));
        }
        bytes.advance(CKPT_MAGIC.len());
        let base_lsn = codec::get_u64(&mut bytes)?;
        let base_ts = codec::get_u64(&mut bytes)?;
        let mut tables = BTreeMap::new();
        let ntables = codec::get_u32(&mut bytes)?;
        for _ in 0..ntables {
            let table = TableId(codec::get_u32(&mut bytes)?);
            let nrows = codec::get_u32(&mut bytes)?;
            let mut rows = BTreeMap::new();
            for _ in 0..nrows {
                let rid = codec::get_rid(&mut bytes)?;
                let row = codec::get_row(&mut bytes)?;
                rows.insert(rid, row);
            }
            tables.insert(table, rows);
        }
        let nmigrated = codec::get_u32(&mut bytes)?;
        // Every granule takes at least a byte: the count cannot size an
        // allocation past what is left.
        let mut migrated = Vec::with_capacity((nmigrated as usize).min(bytes.remaining()));
        for _ in 0..nmigrated {
            let migration = codec::get_u32(&mut bytes)?;
            migrated.push((migration, codec::get_granule(&mut bytes)?));
        }
        Ok(CheckpointImage {
            base_lsn,
            base_ts,
            tables,
            migrated,
        })
    }
}

/// Outcome of one [`Database::checkpoint`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The transaction-safe cut the checkpoint covered up to.
    pub cut_lsn: u64,
    /// Log records folded into the image this round.
    pub absorbed_records: usize,
    /// Records dropped from WAL memory by the truncation.
    pub dropped_records: u64,
    /// Records still resident in the WAL afterwards.
    pub resident_records: usize,
}

/// The sidecar path convention for a WAL at `wal_path`.
pub fn checkpoint_path_for(wal_path: &Path) -> PathBuf {
    wal_path.with_extension("ckpt")
}

/// Owns the running image and drives the checkpoint cycle. One per
/// [`Database`]; the internal mutex serializes concurrent checkpoints.
pub struct Checkpointer {
    image: Mutex<CheckpointImage>,
    /// Sidecar file (durable databases); `None` keeps the image in memory
    /// only, which still bounds WAL memory for in-memory databases.
    path: Option<PathBuf>,
}

impl Checkpointer {
    /// A checkpointer persisting to `path` (or memory-only for `None`).
    pub fn new(path: Option<PathBuf>) -> Self {
        Checkpointer {
            image: Mutex::new(CheckpointImage::new()),
            path,
        }
    }

    /// The sidecar path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// A consistent clone of the running image. Used by replication to
    /// serve snapshot bootstraps without re-reading the sidecar file.
    pub fn image_snapshot(&self) -> CheckpointImage {
        self.image.lock().clone()
    }

    /// Replaces the running image. Used when restoring a primary from
    /// files: the restored image must seed the checkpointer, or the next
    /// checkpoint would absorb from LSN 0 and miss the truncated prefix.
    pub fn seed(&self, image: CheckpointImage) {
        *self.image.lock() = image;
    }

    /// Runs one checkpoint cycle against `db`: pick the cut, fold the
    /// delta into the image as it streams off the log, persist the image,
    /// truncate the log.
    pub fn run(&self, db: &Database) -> Result<CheckpointStats> {
        let mut image = self.image.lock();
        let cut = db.wal().safe_cut();
        if cut <= image.base_lsn {
            // Nothing new is coverable (e.g. a long-running transaction
            // pins the cut); report without touching the log.
            return Ok(CheckpointStats {
                cut_lsn: image.base_lsn,
                absorbed_records: 0,
                dropped_records: 0,
                resident_records: db.wal().resident_records(),
            });
        }
        let absorbed_records = image.fold_from(db.wal(), cut);
        if let Some(path) = &self.path {
            write_sidecar(path, &image.encode())?;
        }
        let dropped = db.wal().truncate_to(cut)?;
        Ok(CheckpointStats {
            cut_lsn: cut,
            absorbed_records,
            dropped_records: dropped,
            resident_records: db.wal().resident_records(),
        })
    }
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let image = self.image.lock();
        f.debug_struct("Checkpointer")
            .field("base_lsn", &image.base_lsn)
            .field("rows", &image.row_count())
            .field("path", &self.path)
            .finish()
    }
}

/// Writes `bytes` to `path` atomically and durably: a temp file,
/// [`durable_rename`]d over the sidecar.
fn write_sidecar(path: &Path, bytes: &Bytes) -> Result<()> {
    let tmp = path.with_extension("ckpt-tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| durable_rename(&tmp, path))
        .map_err(|e| Error::Wal(format!("write checkpoint sidecar: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbConfig, EngineMode};
    use bullfrog_common::{row, Value};

    fn sample_image() -> CheckpointImage {
        let mut img = CheckpointImage::new();
        img.absorb(
            &[
                LogRecord::Begin(TxnId(1)),
                LogRecord::Insert {
                    txn: TxnId(1),
                    table: TableId(0),
                    rid: RowId::new(0, 0),
                    row: row![1, "one"],
                },
                LogRecord::Insert {
                    txn: TxnId(1),
                    table: TableId(0),
                    rid: RowId::new(0, 1),
                    row: row![2, "two"],
                },
                LogRecord::MigrationGranule {
                    txn: TxnId(1),
                    migration: 3,
                    granule: GranuleKey::Group(vec![Value::Int(9)]),
                },
                LogRecord::Commit(TxnId(1)),
                // Uncommitted noise that must not surface.
                LogRecord::Begin(TxnId(2)),
                LogRecord::Insert {
                    txn: TxnId(2),
                    table: TableId(0),
                    rid: RowId::new(0, 2),
                    row: row![3, "ghost"],
                },
                LogRecord::Abort(TxnId(2)),
            ],
            8,
        );
        img
    }

    #[test]
    fn absorb_applies_committed_only() {
        let img = sample_image();
        assert_eq!(img.base_lsn, 8);
        assert_eq!(img.row_count(), 2);
        assert_eq!(
            img.migrated,
            vec![(3, GranuleKey::Group(vec![Value::Int(9)]))]
        );
    }

    #[test]
    fn absorb_folds_updates_and_deletes() {
        let mut img = sample_image();
        img.absorb(
            &[
                LogRecord::Update {
                    txn: TxnId(4),
                    table: TableId(0),
                    rid: RowId::new(0, 0),
                    after: row![1, "uno"],
                },
                LogRecord::Delete {
                    txn: TxnId(4),
                    table: TableId(0),
                    rid: RowId::new(0, 1),
                },
                LogRecord::Commit(TxnId(4)),
            ],
            11,
        );
        assert_eq!(img.base_lsn, 11);
        let rows = &img.tables[&TableId(0)];
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[&RowId::new(0, 0)], row![1, "uno"]);
    }

    #[test]
    fn streaming_fold_matches_slice_absorb() {
        let wal = Wal::new();
        let ins = |txn, slot, v: i64| LogRecord::Insert {
            txn: TxnId(txn),
            table: TableId(0),
            rid: RowId::new(0, slot),
            row: row![v, "x"],
        };
        let upd = |txn, slot, v: i64| LogRecord::Update {
            txn: TxnId(txn),
            table: TableId(0),
            rid: RowId::new(0, slot),
            after: row![v, "y"],
        };
        let granule = |txn, key| LogRecord::MigrationGranule {
            txn: TxnId(txn),
            migration: 4,
            granule: key,
        };
        // T1 commits stamped (a `CommitTs`); T2's insert is interleaved
        // with T3's batch and aborts; T3 and T4 update the same row, T3
        // deletes one and migrates a granule; T5 aborts in one batch; T6
        // commits plainly.
        wal.append(
            [LogRecord::Begin(TxnId(1)), ins(1, 0, 1), ins(1, 1, 2)],
            Some(TxnId(1)),
        );
        wal.append([LogRecord::Begin(TxnId(2)), ins(2, 2, 3)], None);
        wal.append(
            [
                upd(3, 0, 10),
                LogRecord::Delete {
                    txn: TxnId(3),
                    table: TableId(0),
                    rid: RowId::new(0, 1),
                },
                granule(3, GranuleKey::Ordinal(7)),
            ],
            Some(TxnId(3)),
        );
        wal.append([LogRecord::Abort(TxnId(2))], None);
        let mid = wal.len() as u64;
        wal.append(
            [
                upd(4, 0, 20),
                granule(4, GranuleKey::Group(vec![Value::Int(5)])),
            ],
            Some(TxnId(4)),
        );
        wal.append([ins(5, 3, 9), LogRecord::Abort(TxnId(5))], None);
        wal.append([ins(6, 4, 6), LogRecord::Commit(TxnId(6))], None);
        let cut = wal.len() as u64;

        let mut absorbed = CheckpointImage::new();
        absorbed.absorb(&wal.snapshot(), cut);
        let mut streamed = CheckpointImage::new();
        assert_eq!(streamed.fold_from(&wal, cut), cut as usize);
        assert_eq!(streamed, absorbed);
        // Two folds split at a transaction boundary give the same image.
        let mut stepped = CheckpointImage::new();
        stepped.fold_from(&wal, mid);
        assert_eq!(stepped.fold_from(&wal, cut), (cut - mid) as usize);
        assert_eq!(stepped, absorbed);

        let rows = &streamed.tables[&TableId(0)];
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert_eq!(rows[&RowId::new(0, 0)], row![20, "y"]);
        assert_eq!(rows[&RowId::new(0, 4)], row![6, "x"]);
        assert_eq!(streamed.base_ts, 3, "three stamped commits");
        assert_eq!(
            streamed.migrated,
            vec![
                (4, GranuleKey::Ordinal(7)),
                (4, GranuleKey::Group(vec![Value::Int(5)]))
            ]
        );
        assert_eq!(streamed.base_lsn, cut);
    }

    #[test]
    fn image_encoding_round_trips() {
        let img = sample_image();
        let decoded = CheckpointImage::decode(img.encode()).unwrap();
        assert_eq!(decoded, img);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CheckpointImage::decode(Bytes::from_static(b"nope")).is_err());
        let good = sample_image().encode();
        assert!(CheckpointImage::decode(good.slice(..good.len() - 1)).is_err());
        // Any other version, older or newer, is rejected, not misparsed,
        // and the error names what it found.
        for magic in [b"BFCKPT1", b"BFCKPT2", b"BFCKPT9"] {
            let mut bad = good.to_vec();
            bad[..7].copy_from_slice(magic);
            let err = CheckpointImage::decode(Bytes::from(bad)).unwrap_err();
            let name = std::str::from_utf8(magic).unwrap();
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn absorb_tracks_commit_ts_horizon_and_apply_resumes_oracle() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let mut img = CheckpointImage::new();
            img.absorb(
                &[
                    LogRecord::Insert {
                        txn: TxnId(1),
                        table: TableId(1), // catalog ids start at 1
                        rid: RowId::new(0, 0),
                        row: row![1, "one"],
                    },
                    LogRecord::CommitTs {
                        txn: TxnId(1),
                        ts: 17,
                    },
                ],
                2,
            );
            assert_eq!(img.base_ts, 17);
            assert_eq!(img.row_count(), 1, "CommitTs marks the txn committed");
            let round = CheckpointImage::decode(img.encode()).unwrap();
            assert_eq!(round.base_ts, 17);

            let db = Database::with_config(DbConfig {
                mode,
                ..DbConfig::default()
            });
            assert_eq!(db.config().mode, mode);
            db.create_table(
                bullfrog_common::TableSchema::new(
                    "t",
                    vec![
                        bullfrog_common::ColumnDef::new("id", bullfrog_common::DataType::Int),
                        bullfrog_common::ColumnDef::new("v", bullfrog_common::DataType::Text),
                    ],
                )
                .with_primary_key(&["id"]),
            )
            .unwrap();
            img.apply_to(&db).unwrap();
            assert!(
                db.wal().oracle().stable() >= 17,
                "oracle resumed past the image's commit horizon"
            );
        }
    }
}
