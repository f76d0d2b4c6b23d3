//! Checkpointing: bound the WAL by snapshotting its committed prefix.
//!
//! A checkpoint turns the log below a cut into a [`CheckpointImage`] —
//! the rows every table would hold after replaying that prefix, plus the
//! migration granules whose migration committed in it. The log holds
//! committed transactions only, one frame each, and the cut is the log's
//! frontier, which is always a frame boundary, so the prefix is a whole
//! number of committed transactions. The image is **built by replay, not
//! by scanning live heaps**, so it needs no table locks and is trivially
//! consistent: it is exactly what recovery would have produced.
//!
//! Images are incremental. Each checkpoint folds only the log delta
//! since the previous cut into the running image — streamed off the log's
//! bytes one frame at a time (`CheckpointImage::fold_from`), so the
//! delta is never resident as records — persists the image to a sidecar
//! file (temp + [`durable_rename`], so a crash never leaves a
//! half-written image and a power loss never undoes the rename), and only
//! then truncates the log
//! ([`Wal::truncate_to`](bullfrog_txn::Wal::truncate_to), which holds
//! the cut below a tailing replica's retain horizon and on a frame
//! boundary). Crashing between those steps is safe in both orders:
//! recovery replays `image + tail frames at or above the image's base
//! LSN`, and
//! [`recovery::load_from_files`](crate::recovery::load_from_files)
//! skips the already-absorbed file prefix.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bullfrog_common::fs::durable_rename;
use bullfrog_common::{Error, Result, Row, RowId, TableId};
use bullfrog_txn::wal::{codec, Frame, GranuleKey};
use bullfrog_txn::{LogRecord, Wal};
pub use bytes::Bytes;

use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;

use crate::db::Database;
use crate::recovery::RecoveryStats;

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
    /// absorbed prefix held no stamped frames). Recovery resumes the
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

    /// Folds a log delta into the image: `frames` are the committed
    /// transactions in `[self.base_lsn, cut)`, in LSN order.
    pub fn absorb(&mut self, frames: impl IntoIterator<Item = Frame>, cut: u64) {
        for frame in frames {
            self.put(frame);
        }
        self.base_lsn = cut;
    }

    /// As [`CheckpointImage::absorb`] over `wal`'s frames in
    /// `[self.base_lsn, cut)`, but streamed: each frame is decoded once,
    /// straight off the log's bytes ([`Wal::scan`]), and moved into the
    /// image, so the delta is never held. Returns the records folded.
    pub(crate) fn fold_from(&mut self, wal: &Wal, cut: u64) -> usize {
        let folded = wal.scan(self.base_lsn, cut, |frame| self.put(frame));
        self.base_lsn = cut;
        folded
    }

    /// Applies one committed transaction, moving its rows in.
    fn put(&mut self, frame: Frame) {
        self.base_ts = self.base_ts.max(frame.commit_ts);
        for rec in frame.records {
            match rec {
                LogRecord::Insert { table, rid, row }
                | LogRecord::Update {
                    table,
                    rid,
                    after: row,
                } => {
                    self.tables.entry(table).or_default().insert(rid, row);
                }
                LogRecord::Delete { table, rid } => {
                    self.tables.entry(table).or_default().remove(&rid);
                }
                LogRecord::MigrationGranule { migration, granule } => {
                    self.migrated.push((migration, granule))
                }
                // The epoch's durable home is its sidecar (and the retained
                // log tail); the image does not carry it.
                LogRecord::Epoch { .. } => {}
            }
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
        let bytes = bytes.into();
        let Some(mut bytes) = bytes.strip_prefix(&CKPT_MAGIC[..]) else {
            let found = &bytes[..bytes.len().min(CKPT_MAGIC.len())];
            return Err(Error::Wal(format!(
                "not a BFCKPT3 checkpoint image: it starts {:?}",
                String::from_utf8_lossy(found)
            )));
        };
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
        let mut migrated = Vec::with_capacity((nmigrated as usize).min(bytes.len()));
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
    /// The frame boundary the checkpoint's image covers up to.
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

    /// Runs one checkpoint cycle against `db`: cut at the log's frontier,
    /// fold the delta into the image as it streams off the log, persist
    /// the image, truncate the log.
    pub fn run(&self, db: &Database) -> Result<CheckpointStats> {
        let mut image = self.image.lock();
        let cut = db.wal().frontier();
        if cut <= image.base_lsn {
            // Nothing was committed since the last cut; report without
            // touching the log.
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

    fn insert(slot: u16, v: i64, text: &str) -> LogRecord {
        LogRecord::Insert {
            table: TableId(0),
            rid: RowId::new(0, slot),
            row: row![v, text],
        }
    }

    fn frame(first_lsn: u64, commit_ts: u64, records: Vec<LogRecord>) -> Frame {
        Frame {
            first_lsn,
            commit_ts,
            records,
        }
    }

    fn sample_image() -> CheckpointImage {
        let mut img = CheckpointImage::new();
        img.absorb(
            [frame(
                0,
                0,
                vec![
                    insert(0, 1, "one"),
                    insert(1, 2, "two"),
                    LogRecord::MigrationGranule {
                        migration: 3,
                        granule: GranuleKey::Group(vec![Value::Int(9)]),
                    },
                ],
            )],
            3,
        );
        img
    }

    #[test]
    fn absorb_applies_committed_only() {
        // Only committed transactions reach the log, so everything
        // absorbed lands: the rows and the granule of the one frame.
        let img = sample_image();
        assert_eq!(img.base_lsn, 3);
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
            [frame(
                3,
                0,
                vec![
                    LogRecord::Update {
                        table: TableId(0),
                        rid: RowId::new(0, 0),
                        after: row![1, "uno"],
                    },
                    LogRecord::Delete {
                        table: TableId(0),
                        rid: RowId::new(0, 1),
                    },
                ],
            )],
            5,
        );
        assert_eq!(img.base_lsn, 5);
        let rows = &img.tables[&TableId(0)];
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[&RowId::new(0, 0)], row![1, "uno"]);
    }

    #[test]
    fn streaming_fold_matches_slice_absorb() {
        let wal = Wal::new();
        let upd = |slot, v: i64| LogRecord::Update {
            table: TableId(0),
            rid: RowId::new(0, slot),
            after: row![v, "y"],
        };
        let granule = |key| LogRecord::MigrationGranule {
            migration: 4,
            granule: key,
        };
        // T1 commits stamped; T2 and T3 update the same row, T2 deletes
        // one and migrates a granule; T4 commits plainly.
        let commit = |records: Vec<LogRecord>, stamp: bool| {
            let ticket = wal.append(records, stamp);
            if let Some(ts) = ticket.commit_ts() {
                wal.oracle().finish(ts);
            }
        };
        commit(vec![insert(0, 1, "x"), insert(1, 2, "x")], true);
        commit(
            vec![
                upd(0, 10),
                LogRecord::Delete {
                    table: TableId(0),
                    rid: RowId::new(0, 1),
                },
                granule(GranuleKey::Ordinal(7)),
            ],
            true,
        );
        let mid = wal.frontier();
        commit(
            vec![upd(0, 20), granule(GranuleKey::Group(vec![Value::Int(5)]))],
            true,
        );
        commit(vec![insert(4, 6, "x")], false);
        let cut = wal.frontier();

        let mut absorbed = CheckpointImage::new();
        absorbed.absorb(wal.snapshot(), cut);
        let mut streamed = CheckpointImage::new();
        assert_eq!(streamed.fold_from(&wal, cut), cut as usize);
        assert_eq!(streamed, absorbed);
        // Two folds split at a frame boundary give the same image.
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
                [frame(
                    0,
                    17,
                    vec![LogRecord::Insert {
                        table: TableId(1), // catalog ids start at 1
                        rid: RowId::new(0, 0),
                        row: row![1, "one"],
                    }],
                )],
                1,
            );
            assert_eq!(img.base_ts, 17);
            assert_eq!(img.row_count(), 1);
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
