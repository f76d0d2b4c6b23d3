//! Open-loop workload runner.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bullfrog_core::ClientAccess;
use bullfrog_tpcc::{Driver, TpccRng, TxnKind, TxnOutcome};
use parking_lot::Mutex;

/// A strategy under test: the client access object plus the action that
/// kicks off its migration and the predicate that detects completion.
pub struct Strategy {
    /// Display name (used in the printed series).
    pub name: String,
    /// Client interface.
    pub access: Arc<dyn ClientAccess>,
    /// Starts the migration (called once at `migrate_at`). `None` = the
    /// no-migration control.
    #[allow(clippy::type_complexity)]
    pub start_migration: Option<Box<dyn FnOnce() + Send>>,
    /// Polled to detect migration completion.
    #[allow(clippy::type_complexity)]
    pub is_complete: Box<dyn Fn() -> bool + Send + Sync>,
}

/// One experiment run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Arrivals per second.
    pub rate_tps: f64,
    /// Total run length.
    pub duration: Duration,
    /// When the migration is submitted.
    pub migrate_at: Duration,
    /// Worker threads (the paper dedicates 8 cores).
    pub clients: usize,
    /// Workload RNG seed base.
    pub seed: u64,
    /// Throughput bucket width in ms (the compressed timescale needs
    /// sub-second resolution to show the migration dips).
    pub bucket_ms: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            rate_tps: 500.0,
            duration: Duration::from_secs(10),
            migrate_at: Duration::from_secs(2),
            clients: 8,
            seed: 42,
            bucket_ms: 500,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy name.
    pub name: String,
    /// Bucket width used for `per_bucket`.
    pub bucket_ms: u64,
    /// Committed transactions per bucket.
    pub per_bucket: Vec<u32>,
    /// End-to-end latencies (µs) of NewOrder transactions completed after
    /// `migrate_at` (the paper's Figure 4/6/8 population).
    pub new_order_latencies_us: Vec<u64>,
    /// Seconds (relative to run start) when the migration was submitted.
    pub migration_start_s: f64,
    /// Seconds when it completed (`None` = did not finish in the window).
    pub migration_end_s: Option<f64>,
    /// Total committed transactions.
    pub committed: u64,
    /// Transactions that exhausted retries.
    pub failed: u64,
    /// The WAL's durability counters at run end (`None` when the caller
    /// did not have the database at hand to read them).
    pub durability: Option<bullfrog_txn::WalStatsSnapshot>,
}

impl RunResult {
    /// `(p50, p95, p99)` NewOrder latency in µs.
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        let mut v = self.new_order_latencies_us.clone();
        v.sort_unstable();
        (
            percentile(&v, 0.50),
            percentile(&v, 0.95),
            percentile(&v, 0.99),
        )
    }

    /// CDF sample points `(latency_us, fraction)` at the given fractions.
    pub fn latency_cdf(&self, fractions: &[f64]) -> Vec<(u64, f64)> {
        let mut v = self.new_order_latencies_us.clone();
        v.sort_unstable();
        fractions.iter().map(|&f| (percentile(&v, f), f)).collect()
    }
}

/// Percentile of a **sorted** slice (nearest-rank); 0 for empty input.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// A custom workload operation: given the client access, a worker RNG,
/// and the scheduled arrival time (µs since run start), run one
/// transaction. The boolean says whether its latency belongs in the
/// reported CDF.
pub type CustomOp =
    Arc<dyn Fn(&dyn ClientAccess, &mut TpccRng, i64) -> (TxnOutcome, bool) + Send + Sync>;

/// Runs the standard TPC-C mix against one strategy (latency CDF =
/// NewOrder, as in the paper's figures).
pub fn run_workload(strategy: Strategy, driver: Arc<Driver>, cfg: &RunConfig) -> RunResult {
    let op: CustomOp = Arc::new(move |access, rng, now| {
        let kind = driver.pick_kind(rng);
        let outcome = driver.run_one(access, rng, kind, now);
        (outcome, kind == TxnKind::NewOrder)
    });
    run_custom_workload(strategy, op, cfg)
}

/// Runs an arbitrary per-arrival operation against one strategy.
///
/// Arrival *i* is scheduled at `start + i / rate`; a worker that picks an
/// arrival whose scheduled time has passed executes immediately, so when
/// the system cannot keep up, completions lag their schedule and the
/// latency of every subsequent transaction grows — the open-loop queue.
pub fn run_custom_workload(strategy: Strategy, op: CustomOp, cfg: &RunConfig) -> RunResult {
    let start = Instant::now();
    let end = start + cfg.duration;
    let buckets = (cfg.duration.as_millis() as u64 / cfg.bucket_ms + 1) as usize;

    let arrivals = Arc::new(AtomicU64::new(0));
    let committed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let per_bucket: Arc<Vec<AtomicU64>> =
        Arc::new((0..buckets).map(|_| AtomicU64::new(0)).collect());
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));

    // Worker threads.
    let mut workers = Vec::new();
    for worker_id in 0..cfg.clients {
        let access = Arc::clone(&strategy.access);
        let op = Arc::clone(&op);
        let arrivals = Arc::clone(&arrivals);
        let committed = Arc::clone(&committed);
        let failed = Arc::clone(&failed);
        let per_bucket = Arc::clone(&per_bucket);
        let latencies = Arc::clone(&latencies);
        let stop = Arc::clone(&stop);
        let rate = cfg.rate_tps;
        let migrate_at = cfg.migrate_at;
        let seed = cfg.seed;
        let bucket_ms = cfg.bucket_ms;
        workers.push(std::thread::spawn(move || {
            let mut rng = TpccRng::new(seed.wrapping_add(worker_id as u64 * 7919));
            let mut local_lat: Vec<u64> = Vec::new();
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = arrivals.fetch_add(1, Ordering::Relaxed);
                let sched = start + Duration::from_secs_f64(i as f64 / rate);
                if sched >= end {
                    break;
                }
                let now = Instant::now();
                if sched > now {
                    std::thread::sleep(sched - now);
                }
                let (outcome, track_latency) = op(
                    access.as_ref(),
                    &mut rng,
                    sched.duration_since(start).as_micros() as i64,
                );
                let done = Instant::now();
                match outcome {
                    TxnOutcome::Committed | TxnOutcome::UserAbort => {
                        committed.fetch_add(1, Ordering::Relaxed);
                        let bucket =
                            (done.duration_since(start).as_millis() as u64 / bucket_ms) as usize;
                        if bucket < per_bucket.len() {
                            per_bucket[bucket].fetch_add(1, Ordering::Relaxed);
                        }
                        if track_latency && done.duration_since(start) >= migrate_at {
                            local_lat.push(done.duration_since(sched).as_micros() as u64);
                        }
                    }
                    TxnOutcome::Failed(_) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            latencies.lock().extend(local_lat);
        }));
    }

    // Controller thread: fire the migration, watch for completion.
    let migration_end;
    {
        let is_complete = &strategy.is_complete;
        let mut start_migration = strategy.start_migration;
        let mut end_seen: Option<f64> = None;
        let mut migration_thread: Option<std::thread::JoinHandle<()>> = None;
        while Instant::now() < end {
            let elapsed = start.elapsed();
            if elapsed >= cfg.migrate_at {
                if let Some(f) = start_migration.take() {
                    // Eager migration blocks; run it on its own thread.
                    migration_thread = Some(std::thread::spawn(f));
                }
                if end_seen.is_none() && start_migration.is_none() && is_complete() {
                    end_seen = Some(elapsed.as_secs_f64());
                }
            }
            if end_seen.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        migration_end = end_seen;
        // Let the run finish; then make sure the migration thread ends.
        while Instant::now() < end {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = migration_thread {
            let _ = h.join();
        }
    }
    for w in workers {
        let _ = w.join();
    }

    RunResult {
        name: strategy.name,
        bucket_ms: cfg.bucket_ms,
        per_bucket: per_bucket
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as u32)
            .collect(),
        new_order_latencies_us: {
            let mut guard = latencies.lock();
            std::mem::take(&mut *guard)
        },
        migration_start_s: cfg.migrate_at.as_secs_f64(),
        migration_end_s: migration_end,
        committed: committed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        durability: None,
    }
}

/// Closed-loop burst to find the machine's max sustainable TPS for a
/// loaded database + driver (used to pick the paper-equivalent "450" and
/// "700" request rates).
pub fn calibrate_max_tps(
    access: &Arc<dyn ClientAccess>,
    driver: &Driver,
    clients: usize,
    window: Duration,
) -> f64 {
    let done = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for w in 0..clients {
        let access = Arc::clone(access);
        let done = Arc::clone(&done);
        let stop = Arc::clone(&stop);
        let driver2 = Driver {
            scale: driver.scale.clone(),
            scenario: driver.scenario,
            max_retries: driver.max_retries,
            rollback_pct: driver.rollback_pct,
            weights: driver.weights,
        };
        workers.push(std::thread::spawn(move || {
            let mut rng = TpccRng::new(0xCA11B7 + w as u64);
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let kind = driver2.pick_kind(&mut rng);
                if driver2
                    .run_one(access.as_ref(), &mut rng, kind, i * 1000)
                    .is_success()
                {
                    done.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
            }
        }));
    }
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        let _ = w.join();
    }
    done.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
}

/// Prints a run as the textual equivalent of a throughput figure panel.
pub fn print_series(result: &RunResult) {
    let end = result
        .migration_end_s
        .map(|e| format!("{e:.1}s"))
        .unwrap_or_else(|| "not finished".into());
    println!(
        "# {}: committed={} failed={} migration {:.1}s -> {}",
        result.name, result.committed, result.failed, result.migration_start_s, end
    );
    let scale = 1000.0 / result.bucket_ms as f64;
    let series: Vec<String> = result
        .per_bucket
        .iter()
        .enumerate()
        .map(|(b, n)| {
            format!(
                "{:.1}:{:.0}",
                b as f64 * result.bucket_ms as f64 / 1000.0,
                *n as f64 * scale
            )
        })
        .collect();
    println!("  tps  {}", series.join(" "));
    let (p50, p95, p99) = result.latency_percentiles();
    println!(
        "  lat  p50={:.2}ms p95={:.2}ms p99={:.2}ms (n={})",
        p50 as f64 / 1000.0,
        p95 as f64 / 1000.0,
        p99 as f64 / 1000.0,
        result.new_order_latencies_us.len()
    );
    if let Some(d) = &result.durability {
        println!("  wal  {d:?}");
    }
}

/// Prints a latency CDF as the textual equivalent of a latency figure.
pub fn print_cdf(result: &RunResult) {
    let points = result.latency_cdf(&[0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]);
    let line: Vec<String> = points
        .iter()
        .map(|(us, f)| format!("{:.2}ms@{:.0}%", *us as f64 / 1000.0, f * 100.0))
        .collect();
    println!("  cdf  {} — {}", result.name, line.join(" "));
}
