//! Primary restart: rebuild a [`Bullfrog`] controller — catalog, heap,
//! and in-flight migration trackers — from its on-disk trio: the
//! WAL file, the checkpoint sidecar image, and the DDL journal.
//!
//! Plain engine recovery ([`bullfrog_engine::recovery`]) rebuilds heaps
//! but expects the caller to re-create the catalog, because DDL is not
//! WAL-logged. A replication primary has its DDL journal instead:
//! [`restore`] interleaves journal events with the log tail at their
//! recorded apply points (exactly like a replica applying a stream),
//! which also rebuilds the lazy-migration bitmap/hashmap trackers from
//! committed `MigrationGranule` records (paper §3.5). The restored
//! controller resumes on the same WAL file — the reopened log's
//! frontier continues past the on-disk records — so reconnecting
//! replicas either resume from their acked LSN or, if a checkpoint had
//! truncated past it, re-bootstrap from a snapshot.
//!
//! Restored mid-flight migrations resume their background sweeps: once
//! the trackers are rebuilt from committed `MigrationGranule` records,
//! [`restore`] respawns the sweeper threads (per the controller's
//! background config), so a restarted primary finishes its migration
//! even with no client traffic at all.

use std::path::Path;
use std::sync::Arc;

use bullfrog_common::Result;
use bullfrog_core::Bullfrog;
use bullfrog_engine::checkpoint::checkpoint_path_for;
use bullfrog_engine::recovery::{apply_frame, load_from_files, OnDisk};
use bullfrog_engine::{Database, DbConfig};
use bullfrog_txn::WalOptions;

use crate::apply::{apply_ddl_event, mark_granules};
use crate::journal::DdlJournal;

/// What [`restore`] rebuilt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Rows placed from the checkpoint image.
    pub image_rows: usize,
    /// Image rows skipped (tables since dropped).
    pub image_rows_skipped: usize,
    /// Data records applied from the log tail.
    pub tail_records: usize,
    /// Transactions (frames) in the tail.
    pub tail_txns: usize,
    /// DDL journal events re-applied.
    pub ddl_applied: usize,
    /// Migration granules marked in rebuilt trackers.
    pub granules: usize,
    /// First LSN of the replayed tail (the image's base).
    pub start_lsn: u64,
    /// One past the last record of the contiguous tail.
    pub end_lsn: u64,
    /// Restored fencing epoch: the max of the `.epoch` sidecar and any
    /// `Epoch` record in the on-disk log, persisted back to the
    /// sidecar — a promoted node keeps its bumped epoch across restore.
    pub epoch: u64,
}

/// Rebuilds a primary from the WAL file at `wal_path`, its checkpoint
/// sidecar, and DDL journal, returning the controller (resumed on the
/// same WAL file) and the journal (hand both to a
/// [`ReplicationSender`](crate::ReplicationSender) to resume serving
/// replicas).
pub fn restore(
    wal_path: &Path,
    config: DbConfig,
    wal_opts: WalOptions,
) -> Result<(Arc<Bullfrog>, Arc<DdlJournal>, RestoreReport)> {
    let journal = Arc::new(DdlJournal::open(DdlJournal::path_for(wal_path))?);
    // Open the log before reading it: a fresh primary has no WAL file
    // yet and opening creates it, so the shared loader then finds an
    // empty log. The reopened log resumes appending past every on-disk
    // record and retains nothing below that point in memory. Sample it now (no writers
    // yet): it is the restored image's cut, so a snapshot covers
    // everything the log no longer serves and a reconnecting replica
    // never loops between SNAPSHOT_REQUIRED and a snapshot that ends
    // short of the log base.
    let db = Arc::new(Database::with_wal_file_opts(config, wal_path, wal_opts)?);
    let resume_frontier = db.wal().frontier();
    let OnDisk {
        mut image,
        tail,
        max_epoch,
    } = load_from_files(wal_path, checkpoint_path_for(wal_path))?;
    // Fencing epoch: the sidecar merged with every `Epoch` record on
    // disk. Persist the merge back immediately so the sidecar alone is
    // authoritative from here on.
    let epoch_store = bullfrog_txn::EpochStore::open(wal_path)?;
    epoch_store.observe(max_epoch)?;

    let bf = Arc::new(Bullfrog::new(Arc::clone(&db)));
    let mut report = RestoreReport {
        start_lsn: image.base_lsn,
        end_lsn: tail.last().map_or(image.base_lsn, |f| f.end_lsn()),
        epoch: epoch_store.epoch(),
        ..RestoreReport::default()
    };

    // 1. Catalog as of the image: journal events at or below its base.
    let entries = journal.entries();
    let mut pending = entries.iter().peekable();
    while let Some(e) = pending.peek() {
        if e.apply_at_lsn > image.base_lsn {
            break;
        }
        apply_ddl_event(&bf, &e.event)?;
        report.ddl_applied += 1;
        pending.next();
    }

    // 2. The image's rows and migrated granules.
    let placed = image.apply_to(&db)?;
    report.image_rows = placed.applied;
    report.image_rows_skipped = placed.skipped_unknown_table;
    report.granules += mark_granules(&bf, &placed.migrated_granules);

    // 3. The tail, interleaving the remaining journal events at their
    // apply points (frame boundaries) — the same frame-at-a-time apply a
    // replica uses. Each frame is also folded into the image (step 4).
    for frame in tail {
        while let Some(e) = pending.peek() {
            if e.apply_at_lsn > frame.first_lsn {
                break;
            }
            apply_ddl_event(&bf, &e.event)?;
            report.ddl_applied += 1;
            pending.next();
        }
        image.absorb([frame.clone()], frame.end_lsn());
        let out = apply_frame(&db, frame)?;
        report.tail_records += out.applied;
        report.tail_txns += out.committed_txns;
        report.granules += mark_granules(&bf, &out.migrated_granules);
    }
    // Journal events past the last record (DDL was the final act).
    for e in pending {
        apply_ddl_event(&bf, &e.event)?;
        report.ddl_applied += 1;
    }

    // 4. Seed the checkpointer with the image the tail was folded into,
    // so the next checkpoint builds on restored state instead of
    // re-reading a log prefix that may partially truncate. Frames between
    // the tail's end and the resume frontier (past a gap) belong to
    // commits that never acknowledged and are dropped.
    image.base_lsn = image.base_lsn.max(resume_frontier);
    db.checkpointer().seed(image);

    // 5. The crash dropped the previous process's background sweeper
    // threads; restart them from the rebuilt trackers so an in-flight
    // migration completes without depending on client traffic.
    bf.respawn_background();

    Ok((bf, journal, report))
}
