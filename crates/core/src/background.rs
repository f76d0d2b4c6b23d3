//! Background migration (paper §2.2).
//!
//! Client requests alone may never touch some tuples, so a purely lazy
//! system would never finish. BullFrog therefore starts background threads
//! that "slowly inject simulated client requests that cumulatively cover
//! the entirety of the old tables". Here each thread walks its statement's
//! granule space in batches, claiming and migrating through exactly the
//! same Algorithm-1 loop that client requests use, so client and
//! background workers cooperate safely through the trackers.
//!
//! In the paper's experiments the background threads start **after a
//! delay** (20 s in Figure 3) because early on the client requests
//! themselves keep the migration moving; [`BackgroundConfig::start_delay`]
//! reproduces that knob, and a batch pause bounds the interference with
//! foreground work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_engine::Database;

use crate::controller::ActiveMigration;
use crate::granule::{Granule, GranuleState};
use crate::migrate::{candidates_for, migrate_candidates, MigrateOptions};

/// Background migration settings.
#[derive(Debug, Clone)]
pub struct BackgroundConfig {
    /// Whether background threads run at all (the paper's "without
    /// background migration" dotted lines disable this).
    pub enabled: bool,
    /// Delay before the threads start working (paper: 20 s).
    pub start_delay: Duration,
    /// Granules per background migration transaction.
    pub batch: usize,
    /// Pause between batches (throttling).
    pub pause: Duration,
    /// Worker threads per migration statement.
    pub threads: usize,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            enabled: true,
            start_delay: Duration::from_millis(500),
            batch: 256,
            pause: Duration::from_millis(1),
            threads: 1,
        }
    }
}

/// Spawns the background workers for every statement of `migration`.
/// Threads exit when their statement completes or `shutdown` is set; the
/// statement's completion flag is set once its granule space is fully
/// migrated.
pub fn spawn_background(
    db: Arc<Database>,
    migration: Arc<ActiveMigration>,
    cfg: BackgroundConfig,
    opts: MigrateOptions,
    shutdown: Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut handles = Vec::new();
    let opts = Arc::new(opts);
    for (idx, rt) in migration.runtimes.iter().enumerate() {
        for worker in 0..cfg.threads.max(1) {
            let db = Arc::clone(&db);
            let migration = Arc::clone(&migration);
            let rt = Arc::clone(rt);
            let cfg = cfg.clone();
            let opts = Arc::clone(&opts);
            let shutdown = Arc::clone(&shutdown);
            // Fits the 15-byte Linux thread name for statements and
            // workers below 100.
            let name = format!("bf-mig-bg-{idx}-{worker}");
            let spawned = std::thread::Builder::new().name(name).spawn(move || {
                // Interruptible start delay.
                let deadline = std::time::Instant::now() + cfg.start_delay;
                while std::time::Instant::now() < deadline {
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(2).min(cfg.start_delay));
                }
                run_worker(&db, &migration, idx, &rt, worker, &cfg, &opts, &shutdown);
            });
            handles.push(spawned.expect("spawn background migration worker"));
        }
    }
    handles
}

/// One background worker: sweeps the statement's granule space, striding
/// by worker index so multiple workers split the work.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    db: &Database,
    migration: &ActiveMigration,
    stmt_idx: usize,
    rt: &crate::migrate::StatementRuntime,
    worker: usize,
    cfg: &BackgroundConfig,
    opts: &MigrateOptions,
    shutdown: &AtomicBool,
) {
    // Wait out the flip-time writer quiesce (snapshot mode; opens
    // immediately under 2PL).
    migration.wait_ready();
    // Enumerate the full candidate space once (the old schema is frozen
    // during migration, so the space is stable).
    let all_granules = match candidates_for(db, rt, None) {
        Ok(c) => c,
        Err(_) => return, // tables dropped under us — nothing to do
    };
    let mine: Vec<Granule> = all_granules
        .iter()
        .enumerate()
        .filter(|(i, _)| i % cfg.threads.max(1) == worker)
        .map(|(_, g)| g.clone())
        .collect();

    let all = {
        for chunk in mine.chunks(cfg.batch.max(1)) {
            if shutdown.load(Ordering::Acquire) {
                return;
            }
            let pending: Vec<Granule> = chunk
                .iter()
                .filter(|g| rt.tracker.state(g) != GranuleState::Migrated)
                .cloned()
                .collect();
            if !pending.is_empty() && migrate_candidates(db, rt, pending, opts).is_err() {
                // Unretryable failure (e.g. finalize dropped the old
                // tables because the foreground finished everything):
                // stop quietly.
                return;
            }
            if !cfg.pause.is_zero() {
                std::thread::sleep(cfg.pause);
            }
        }
        all_granules
    };

    // This worker's slice is done; now settle the whole space. A one-shot
    // check would be racy: a granule may be InProgress under a *client*
    // request right now, and if every background worker exited on that
    // observation, nobody would ever set the completion flag. Instead,
    // loop: re-claim anything claimable (e.g. reset after an abort), wait
    // out in-flight claims, and flip the flag once everything is migrated.
    loop {
        if shutdown.load(Ordering::Acquire) || migration.is_statement_complete(stmt_idx) {
            return;
        }
        let pending: Vec<Granule> = all
            .iter()
            .filter(|g| rt.tracker.state(g) != GranuleState::Migrated)
            .cloned()
            .collect();
        if pending.is_empty() {
            migration.set_complete(stmt_idx);
            return;
        }
        if migrate_candidates(db, rt, pending, opts).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_enabled() {
        let c = BackgroundConfig::default();
        assert!(c.enabled);
        assert!(c.threads >= 1);
    }

    /// Polls `/proc/self/task/*/comm` until the names starting with
    /// `bf-mig-bg-` are exactly `want`. A thread names itself as it
    /// starts, and its task entry can outlive the join that reaps it.
    #[cfg(target_os = "linux")]
    fn wait_for_background_threads(want: &[&str]) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
                .expect("list /proc/self/task")
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .map(|comm| comm.trim_end().to_string())
                .filter(|comm| comm.starts_with("bf-mig-bg-"))
                .collect();
            names.sort();
            if names == want {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background threads never matched {want:?}: saw {names:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Every background worker is named for its statement and worker
    /// index in `/proc/*/task/*/comm`, where profilers and affinity
    /// tools find it.
    #[cfg(target_os = "linux")]
    #[test]
    fn background_threads_are_named_per_statement_and_worker() {
        use bullfrog_common::{row, ColumnDef, DataType, TableSchema};
        use bullfrog_engine::{DbConfig, EngineMode};
        use bullfrog_query::{Expr, SelectSpec};

        use crate::{Bullfrog, BullfrogConfig, MigrationPlan, MigrationStatement};

        for mode in EngineMode::ALL {
            eprintln!("engine mode: {mode:?}");
            let db = Arc::new(Database::with_config(DbConfig {
                mode,
                ..DbConfig::default()
            }));
            assert_eq!(db.config().mode, mode);
            let cols = |names: &[&str]| -> Vec<ColumnDef> {
                names
                    .iter()
                    .map(|n| ColumnDef::new(*n, DataType::Int))
                    .collect()
            };
            db.create_table(
                TableSchema::new("t", cols(&["id", "a", "b"])).with_primary_key(&["id"]),
            )
            .unwrap();
            for i in 0..10 {
                db.insert_unlogged("t", row![i, i, i]).unwrap();
            }
            let mut plan = MigrationPlan::new("split");
            for col in ["a", "b"] {
                plan = plan.with_statement(MigrationStatement::new(
                    TableSchema::new(format!("t_{col}"), cols(&["id", col]))
                        .with_primary_key(&["id"]),
                    SelectSpec::new()
                        .from_table("t", "t")
                        .select("id", Expr::col("t", "id"))
                        .select(col, Expr::col("t", col)),
                ));
            }
            // The workers sit in their start delay until shut down.
            let bf = Bullfrog::with_config(
                db,
                BullfrogConfig {
                    background: BackgroundConfig {
                        start_delay: Duration::from_secs(60),
                        threads: 2,
                        ..BackgroundConfig::default()
                    },
                    ..BullfrogConfig::default()
                },
            );
            bf.submit_migration(plan).unwrap();

            wait_for_background_threads(&[
                "bf-mig-bg-0-0",
                "bf-mig-bg-0-1",
                "bf-mig-bg-1-0",
                "bf-mig-bg-1-1",
            ]);
            bf.shutdown_background();
            wait_for_background_threads(&[]);
        }
    }
}
