//! Background checkpoint scheduling.
//!
//! [`Database::checkpoint`](crate::Database::checkpoint) is a manual
//! operation; under sustained write traffic somebody has to call it or
//! the WAL's resident tail grows without bound. [`CheckpointScheduler`]
//! is that somebody: a policy thread that watches the WAL and runs a
//! checkpoint cycle whenever the resident log exceeds the configured
//! record or byte thresholds since the last cut.
//!
//! The scheduler holds only a [`Weak`] reference to the database, so it
//! never keeps a dropped database alive; the thread exits on its own
//! when the database goes away, when [`CheckpointScheduler::stop`] is
//! called, or when the scheduler is dropped. Progress counters are
//! readable at any time via [`CheckpointScheduler::status`] — the
//! server's `STATUS` admin opcode reports them to remote clients.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::db::Database;

/// When the background scheduler triggers a checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many WAL records are resident past the last
    /// cut (0 disables the record trigger).
    pub max_resident_records: u64,
    /// Checkpoint once this many bytes have been flushed to the WAL file
    /// since the last cut (0 disables the byte trigger; in-memory WALs
    /// never flush, so only the record trigger applies to them).
    pub max_flushed_bytes: u64,
    /// How often the policy thread re-examines the WAL.
    pub poll_interval: Duration,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            max_resident_records: 10_000,
            max_flushed_bytes: 4 << 20,
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// Monotonic counters describing what the scheduler has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStatus {
    /// Checkpoints completed successfully.
    pub checkpoints: u64,
    /// Checkpoint attempts that returned an error.
    pub errors: u64,
    /// Cut LSN of the most recent successful checkpoint.
    pub last_cut_lsn: u64,
    /// Records absorbed into the image by the most recent checkpoint.
    pub last_absorbed: u64,
}

#[derive(Default)]
struct Counters {
    checkpoints: AtomicU64,
    errors: AtomicU64,
    last_cut_lsn: AtomicU64,
    last_absorbed: AtomicU64,
}

/// Handle to the background policy thread. Dropping it stops the thread.
pub struct CheckpointScheduler {
    counters: Arc<Counters>,
    stop_tx: mpsc::Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl CheckpointScheduler {
    /// Spawns the policy thread against `db`. The thread keeps only a
    /// weak reference: it does not prevent the database from being
    /// dropped, and exits when that happens.
    pub fn start(db: &Arc<Database>, policy: CheckpointPolicy) -> Self {
        let weak: Weak<Database> = Arc::downgrade(db);
        let counters = Arc::new(Counters::default());
        let thread_counters = Arc::clone(&counters);
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("bf-ckpt-sched".into())
            .spawn(move || run(weak, policy, thread_counters, stop_rx))
            .expect("spawn checkpoint scheduler");
        CheckpointScheduler {
            counters,
            stop_tx,
            handle: Some(handle),
        }
    }

    /// Spawns a scheduler if `db`'s configuration carries a policy
    /// ([`DbConfig::checkpoint_policy`](crate::DbConfig)).
    pub fn from_config(db: &Arc<Database>) -> Option<Self> {
        db.config()
            .checkpoint_policy
            .clone()
            .map(|p| Self::start(db, p))
    }

    /// Current progress counters.
    pub fn status(&self) -> SchedulerStatus {
        SchedulerStatus {
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            last_cut_lsn: self.counters.last_cut_lsn.load(Ordering::Relaxed),
            last_absorbed: self.counters.last_absorbed.load(Ordering::Relaxed),
        }
    }

    /// Stops the policy thread and waits for it to exit. Idempotent.
    pub fn stop(&mut self) {
        let _ = self.stop_tx.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CheckpointScheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run(
    weak: Weak<Database>,
    policy: CheckpointPolicy,
    counters: Arc<Counters>,
    stop_rx: mpsc::Receiver<()>,
) {
    // Bytes flushed as of the last cut; deltas against it drive the byte
    // trigger.
    let mut bytes_at_cut = match weak.upgrade() {
        Some(db) => db.wal().stats().flushed_bytes,
        None => return,
    };
    loop {
        match stop_rx.recv_timeout(policy.poll_interval) {
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        let Some(db) = weak.upgrade() else { return };
        let resident = db.wal().resident_records() as u64;
        let flushed = db.wal().stats().flushed_bytes;
        let by_records = policy.max_resident_records > 0 && resident >= policy.max_resident_records;
        let by_bytes = policy.max_flushed_bytes > 0
            && flushed.saturating_sub(bytes_at_cut) >= policy.max_flushed_bytes;
        if !(by_records || by_bytes) {
            continue;
        }
        match db.checkpoint() {
            Ok(stats) => {
                bytes_at_cut = db.wal().stats().flushed_bytes;
                counters.checkpoints.fetch_add(1, Ordering::Relaxed);
                counters
                    .last_cut_lsn
                    .store(stats.cut_lsn, Ordering::Relaxed);
                counters
                    .last_absorbed
                    .store(stats.absorbed_records as u64, Ordering::Relaxed);
            }
            Err(_) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbConfig, EngineMode};
    use bullfrog_common::{row, ColumnDef, DataType, TableSchema};

    fn writable_db(mode: EngineMode) -> Arc<Database> {
        let db = Arc::new(Database::with_config(DbConfig {
            mode,
            ..DbConfig::default()
        }));
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db
    }

    #[test]
    fn record_threshold_triggers_checkpoint() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = writable_db(mode);
            assert_eq!(db.config().mode, mode);
            let sched = CheckpointScheduler::start(
                &db,
                CheckpointPolicy {
                    max_resident_records: 50,
                    max_flushed_bytes: 0,
                    poll_interval: Duration::from_millis(5),
                },
            );
            for i in 0..200 {
                db.with_txn(|txn| db.insert(txn, "t", row![i, i])).unwrap();
            }
            // The scheduler should cut at least once and keep the resident
            // tail bounded near the threshold.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while sched.status().checkpoints == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let status = sched.status();
            assert!(status.checkpoints >= 1, "no checkpoint ran: {status:?}");
            assert_eq!(status.errors, 0);
            assert!(status.last_cut_lsn > 0);
            // All 200 rows survive the cut.
            assert_eq!(db.table("t").unwrap().live_count(), 200);
        }
    }

    #[test]
    fn from_config_respects_knob() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = writable_db(mode);
            assert_eq!(db.config().mode, mode);
            assert!(CheckpointScheduler::from_config(&db).is_none());
            let db2 = Arc::new(Database::with_config(DbConfig {
                checkpoint_policy: Some(CheckpointPolicy::default()),
                mode,
                ..DbConfig::default()
            }));
            assert!(CheckpointScheduler::from_config(&db2).is_some());
        }
    }

    #[test]
    fn thread_exits_when_database_dropped() {
        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = writable_db(mode);
            assert_eq!(db.config().mode, mode);
            let mut sched = CheckpointScheduler::start(
                &db,
                CheckpointPolicy {
                    poll_interval: Duration::from_millis(1),
                    ..CheckpointPolicy::default()
                },
            );
            drop(db);
            // The thread notices the dead Weak on its next poll; join must
            // not hang.
            std::thread::sleep(Duration::from_millis(10));
            sched.stop();
        }
    }
}
