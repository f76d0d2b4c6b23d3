//! From what a run measured to the metrics `BENCHMARK.json` names.
//!
//! Every workload prints every metric. Where a metric's population does
//! not exist on a workload the definition says what stands in: the flip
//! window of a workload that submits no migration is its whole measured
//! window, and a per-layer metric of a layer the workload never enters
//! is 0 (which is itself the layer-separation evidence).

use bullfrog_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::json::Json;
use crate::pinned;
use crate::probes::Probed;
use crate::record::{StmtSpan, TxnSample};
use crate::run::{RunData, Workload};
use crate::tpcc_wire::{Class, Stmt};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    pub value: f64,
    /// Samples behind the value (0 for ratios of counters).
    pub n: u64,
}

fn m(name: &'static str, unit: &'static str, better: &'static str, value: f64, n: u64) -> Metric {
    Metric {
        name,
        unit,
        better,
        value,
        n,
    }
}

/// The `q`-quantile of `sorted` by the nearest-rank rule; 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The run's samples started inside the measured window, and the windows
/// the phase metrics use.
pub struct Windows<'a> {
    pub all: Vec<&'a TxnSample>,
    /// [submit, migration complete]; the whole window without a flip.
    pub flip: (u64, u64),
    /// From `post_gap` after completion; the whole window without a flip.
    pub post_from: u64,
    /// A flip was submitted and finished inside the window, or none was
    /// due.
    pub flip_resolved: bool,
}

impl<'a> Windows<'a> {
    /// The transaction started inside the flip window.
    pub fn in_flip(&self, s: &TxnSample) -> bool {
        (self.flip.0..=self.flip.1).contains(&s.start_us)
    }

    pub fn of(w: Workload, d: &'a RunData, seconds: f64) -> Self {
        let all = d
            .logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| (d.warm_us..d.end_us).contains(&s.start_us))
            .collect();
        let (flip, post_from, flip_resolved) = match (w.scenario(), d.submit_us, d.complete_us) {
            (None, ..) => ((d.warm_us, d.end_us), d.warm_us, true),
            (Some(_), Some(s), Some(c)) => {
                let gap = pinned::phases(seconds).post_gap.as_micros() as u64;
                ((s, c), c + gap, true)
            }
            _ => ((d.end_us, d.end_us), d.end_us, false),
        };
        Windows {
            all,
            flip,
            post_from,
            flip_resolved,
        }
    }
}

/// First statement sent to commit acknowledged, retries included.
fn latency_ms(s: &TxnSample) -> f64 {
    (s.end_us - s.start_us) as f64 / 1e3
}

/// Latencies of the committed transactions of one kind. The latency
/// metrics use kind 0, the workload's reference transaction: NewOrder on
/// TPC-C (the population of the paper's figures) and the transfer on
/// `transfer_durable`. The mix as a whole is bimodal (a NewOrder is ~45
/// statements, a Payment ~7) and its median sits on the edge between
/// the two modes, so it is not reported.
fn latencies<'a>(samples: impl Iterator<Item = &'a &'a TxnSample>, kind: u8) -> Vec<f64> {
    sorted(
        samples
            .filter(|s| s.ok && s.kind == kind)
            .map(|s| latency_ms(s))
            .collect(),
    )
}

const REFERENCE: u8 = 0;
const PAYMENT: u8 = 1;

/// Commits acknowledged in `[from, to)`, whenever their transactions
/// started.
fn commits_in(d: &RunData, from: u64, to: u64) -> f64 {
    d.logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.ok && (from..to).contains(&s.end_us))
        .count() as f64
}

/// Commits per second in the flip window over commits per second in the
/// whole measured window: the share of its throughput the client
/// population keeps while the migration runs.
fn flip_tps_ratio(win: &Windows, d: &RunData) -> f64 {
    let rate = |from: u64, to: u64| ratio(commits_in(d, from, to), (to - from) as f64);
    ratio(rate(win.flip.0, win.flip.1), rate(d.warm_us, d.end_us))
}

/// The fewest commits in any bucket of the flip window (rounded up to
/// whole buckets, clipped to the run) over the mean commits per bucket
/// of the whole measured window. A stall of a bucket's length reads 0.
fn low_tps_ratio(win: &Windows, d: &RunData, bucket_us: u64) -> (f64, u64) {
    let mut fewest = f64::INFINITY;
    let mut buckets = 0;
    let mut from = win.flip.0;
    while from < win.flip.1 && from + bucket_us <= d.end_us {
        fewest = fewest.min(commits_in(d, from, from + bucket_us));
        buckets += 1;
        from += bucket_us;
    }
    if buckets == 0 {
        return (0.0, 0);
    }
    let per_bucket =
        commits_in(d, d.warm_us, d.end_us) * bucket_us as f64 / (d.end_us - d.warm_us) as f64;
    (ratio(fewest, per_bucket), buckets)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The metrics a user of the system sees, from an untraced run.
pub fn end_to_end(d: &RunData, win: &Windows) -> Vec<Metric> {
    let measured_s = (d.end_us - d.warm_us) as f64 / 1e6;
    let committed = commits_in(d, d.warm_us, d.end_us);
    let all = latencies(win.all.iter(), REFERENCE);
    let in_flip = |s: &&&TxnSample| win.in_flip(s);
    let flip = latencies(win.all.iter().filter(in_flip), REFERENCE);
    let post = latencies(
        win.all.iter().filter(|s| s.start_us >= win.post_from),
        REFERENCE,
    );
    vec![
        m(
            "setup_s",
            "s",
            "lower",
            median(&d.setup_s),
            d.setup_s.len() as u64,
        ),
        m(
            "txn_per_s",
            "1/s",
            "higher",
            committed / measured_s,
            committed as u64,
        ),
        m(
            "txn_p50_ms",
            "ms",
            "lower",
            quantile(&all, 0.50),
            all.len() as u64,
        ),
        m(
            "txn_p95_ms",
            "ms",
            "lower",
            quantile(&all, 0.95),
            all.len() as u64,
        ),
        m(
            "flip_p50_ms",
            "ms",
            "lower",
            quantile(&flip, 0.50),
            flip.len() as u64,
        ),
        m(
            "flip_p90_ms",
            "ms",
            "lower",
            quantile(&flip, 0.90),
            flip.len() as u64,
        ),
        m(
            "flip_tps_ratio",
            "ratio",
            "higher",
            flip_tps_ratio(win, d),
            flip.len() as u64,
        ),
        m(
            "post_p50_ms",
            "ms",
            "lower",
            quantile(&post, 0.50),
            post.len() as u64,
        ),
        m("peak_rss_mb", "MB", "lower", d.peak_rss_mb, 1),
    ]
}

/// `after − before`, bucket by bucket.
fn hist_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let mut out = after.histogram(name).cloned().unwrap_or_default();
    if let Some(b) = before.histogram(name) {
        out.sum = out.sum.wrapping_sub(b.sum);
        for (a, b) in out.buckets.iter_mut().zip(&b.buckets) {
            *a = a.saturating_sub(*b);
        }
    }
    out
}

fn counter_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> f64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

/// Statement spans of one traced transaction, as the model sees them.
struct TracedTxn<'a> {
    sample: &'a TxnSample,
    spans: &'a [StmtSpan],
}

fn traced_txns<'a>(d: &'a RunData) -> Vec<TracedTxn<'a>> {
    let mut out = Vec::new();
    for log in &d.logs {
        // Spans are appended in transaction order, so each transaction's
        // spans are one contiguous run.
        let mut spans = &log.spans[..];
        for (i, sample) in log.samples.iter().enumerate() {
            let n = spans.iter().take_while(|s| s.txn as usize == i).count();
            let (mine, rest) = spans.split_at(n);
            spans = rest;
            if sample.traced && sample.ok && (d.warm_us..d.end_us).contains(&sample.start_us) {
                out.push(TracedTxn {
                    sample,
                    spans: mine,
                });
            }
        }
    }
    out
}

/// The per-layer metrics, from a traced run and its probes.
pub fn per_layer(
    w: Workload,
    d: &RunData,
    win: &Windows,
    seconds: f64,
    probes: &[Probed],
) -> Vec<Metric> {
    let (a, b) = (&d.obs_after, &d.obs_before);
    let traced = traced_txns(d);
    let probe = |name: &'static str, unit: &'static str| {
        let p = probes.iter().find(|p| p.name == name);
        m(
            name,
            unit,
            "lower",
            p.map_or(0.0, |p| p.us),
            p.map_or(0, |p| p.calls),
        )
    };
    let hist = |name: &'static str, source: &str, q: f64, unit: &'static str, scale: f64| {
        let h = hist_delta(a, b, source);
        m(name, unit, "lower", h.quantile(q) as f64 * scale, h.count())
    };

    // --- net ---
    let rtts: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.spans)
        .map(|s| (s.end_us - s.start_us) as f64)
        .collect();
    let rtts = sorted(rtts);
    let mut server = hist_delta(a, b, "net.query_us");
    server.merge(&hist_delta(a, b, "net.execute_us"));
    server.merge(&hist_delta(a, b, "net.pipelined_us"));
    let trips_per_txn = ratio(rtts.len() as f64, traced.len() as f64);
    // A TPC-C round trip carries one statement. A transfer burst carries
    // four of very different cost (BEGIN, two updates, a COMMIT that
    // waits for the disk), so its server share is four times the mean.
    let server_per_trip = if w.is_tpcc() {
        server.quantile(0.5) as f64
    } else {
        4.0 * server.mean()
    };
    let transport_us = (quantile(&rtts, 0.5) - server_per_trip).max(0.0);
    let think: Vec<f64> = traced
        .iter()
        .filter(|t| !t.spans.is_empty())
        .map(|t| {
            let in_spans: u64 = t.spans.iter().map(|s| s.end_us - s.start_us).sum();
            (t.sample.end_us - t.sample.start_us).saturating_sub(in_spans) as f64
                / t.spans.len() as f64
        })
        .collect();
    let think_us = mean(&think);

    // --- the latency model: the reference transaction's median as a sum
    // of the layers' own numbers. What the sum leaves over is time inside
    // the server that no probe covers: the session's gates, planning,
    // response encoding, lock waits.
    let p_us = |name: &str| probes.iter().find(|p| p.name == name).map_or(0.0, |p| p.us);
    let commit = hist_delta(a, b, "engine.commit_us");
    let class_cost = |c: Class| match c {
        Class::Control => 0.0,
        Class::SelPk => p_us("sql.bind_us") + p_us("engine.point_read_us"),
        Class::SelIdx => p_us("sql.bind_us") + p_us("engine.select_idx_us"),
        Class::Update | Class::Delete => p_us("sql.bind_us") + p_us("engine.update_us"),
        Class::Insert => p_us("sql.bind_us") + p_us("engine.insert_us"),
    };
    let reference: Vec<&TracedTxn> = traced
        .iter()
        .filter(|t| t.sample.kind == REFERENCE)
        .collect();
    let measured_us = quantile(
        &sorted(
            reference
                .iter()
                .map(|t| (t.sample.end_us - t.sample.start_us) as f64)
                .collect(),
        ),
        0.5,
    );
    let ref_trips = mean(
        &reference
            .iter()
            .map(|t| t.spans.len() as f64)
            .collect::<Vec<_>>(),
    );
    let engine_us = if w.is_tpcc() {
        mean(
            &reference
                .iter()
                .map(|t| {
                    t.spans
                        .iter()
                        .map(|s| class_cost(Stmt::ALL[s.stmt as usize].class()))
                        .sum()
                })
                .collect::<Vec<f64>>(),
        )
    } else {
        2.0 * class_cost(Class::Update)
    };
    let modelled_us =
        ref_trips * (transport_us + think_us) + engine_us + commit.quantile(0.5) as f64;
    let unaccounted_pct = 100.0 * ratio((measured_us - modelled_us).abs(), measured_us);

    // --- bench ---
    let p50 = |traced: bool| {
        quantile(
            &latencies(win.all.iter().filter(|s| s.traced == traced), REFERENCE),
            0.5,
        )
    };
    let trace_overhead_pct = 100.0 * ratio(p50(true) - p50(false), p50(false));

    // --- txn ---
    let attempted = win.all.len() as f64;
    let committed = win.all.iter().filter(|s| s.ok).count() as f64;
    let retries: f64 = win.all.iter().map(|s| f64::from(s.retries)).sum();
    let commits = counter_delta(a, b, "sessions.commits");
    let aborts = counter_delta(a, b, "sessions.aborts");
    let flushes = (d.wal_after.flushes - d.wal_before.flushes) as f64;
    let batches = (d.wal_after.flushed_batches - d.wal_before.flushed_batches) as f64;
    let bytes = (d.wal_after.flushed_bytes - d.wal_before.flushed_bytes) as f64;

    // --- engine: checkpoints ---
    let ckpt_ms: Vec<f64> = d
        .checkpoints
        .iter()
        .map(|(s, e)| (e - s) as f64 / 1e3)
        .collect();
    let overlaps = |s: &TxnSample| {
        d.checkpoints
            .iter()
            .any(|(from, to)| s.start_us < *to && s.end_us > *from)
    };
    let during = latencies(win.all.iter().filter(|s| overlaps(s)), REFERENCE);
    let outside = latencies(win.all.iter().filter(|s| !overlaps(s)), REFERENCE);
    let stall_ms = if during.is_empty() {
        0.0
    } else {
        quantile(&during, 0.95) - quantile(&outside, 0.95)
    };

    // --- core ---
    let mig = d.migration.unwrap_or_default();
    let migration_s = match (d.submit_us, d.complete_us) {
        (Some(s), Some(c)) => (c - s) as f64 / 1e6,
        _ => 0.0,
    };
    let in_flip = |s: &&&TxnSample| win.in_flip(s);
    let flip_txns = win.all.iter().filter(in_flip).count() as f64;
    let flipped = w.scenario().is_some();
    let when_flipped = |v: f64| if flipped { v } else { 0.0 };

    let all_ref = latencies(win.all.iter(), REFERENCE);
    let flip_ref = latencies(win.all.iter().filter(in_flip), REFERENCE);
    let bucket_us = pinned::phases(seconds).bucket.as_micros() as u64;
    let (low_tps, low_buckets) = low_tps_ratio(win, d, bucket_us);
    // `transfer_durable` has one transaction kind and no second population.
    let payments = |s: &&&TxnSample| w.is_tpcc() && s.kind == PAYMENT;
    let payment = latencies(win.all.iter().filter(payments), PAYMENT);
    let payment_flip = latencies(win.all.iter().filter(payments).filter(in_flip), PAYMENT);

    vec![
        m(
            "net.stmt_rtt_us.p50",
            "us",
            "lower",
            quantile(&rtts, 0.50),
            rtts.len() as u64,
        ),
        m(
            "net.stmt_rtt_us.p99",
            "us",
            "lower",
            quantile(&rtts, 0.99),
            rtts.len() as u64,
        ),
        m(
            "net.server_stmt_us.p50",
            "us",
            "lower",
            server.quantile(0.50) as f64,
            server.count(),
        ),
        m(
            "net.server_stmt_us.p99",
            "us",
            "lower",
            server.quantile(0.99) as f64,
            server.count(),
        ),
        m(
            "net.transport_us",
            "us",
            "lower",
            transport_us,
            rtts.len() as u64,
        ),
        probe("net.codec_small_us", "us"),
        probe("net.codec_rows200_us", "us"),
        probe("net.session_stmt_us", "us"),
        m(
            "net.stmts_per_txn",
            "count",
            "lower",
            trips_per_txn,
            traced.len() as u64,
        ),
        probe("sql.parse_us", "us"),
        probe("sql.bind_us", "us"),
        probe("query.eval_us", "us"),
        probe("query.transpose_us", "us"),
        probe("engine.point_read_us", "us"),
        probe("engine.select_idx_us", "us"),
        probe("engine.update_us", "us"),
        probe("engine.insert_us", "us"),
        m(
            "engine.commit_us.p50",
            "us",
            "lower",
            commit.quantile(0.50) as f64,
            commit.count(),
        ),
        m(
            "engine.commit_us.p99",
            "us",
            "lower",
            commit.quantile(0.99) as f64,
            commit.count(),
        ),
        m(
            "engine.checkpoint_ms",
            "ms",
            "lower",
            median(&ckpt_ms),
            ckpt_ms.len() as u64,
        ),
        m(
            "engine.checkpoint_stall_ms",
            "ms",
            "lower",
            stall_ms,
            during.len() as u64,
        ),
        probe("storage.heap_get_us", "us"),
        probe("storage.pk_lookup_us", "us"),
        probe("storage.index_range_us", "us"),
        probe("txn.lock_us", "us"),
        hist("txn.wal_append_us.p50", "wal.append_us", 0.50, "us", 1.0),
        hist("txn.wal_flush_us.p50", "wal.flush_us", 0.50, "us", 1.0),
        hist("txn.wal_flush_us.p99", "wal.flush_us", 0.99, "us", 1.0),
        hist(
            "txn.wal_commit_wait_us.p50",
            "wal.commit_wait_us",
            0.50,
            "us",
            1.0,
        ),
        hist(
            "txn.wal_commit_wait_us.p99",
            "wal.commit_wait_us",
            0.99,
            "us",
            1.0,
        ),
        m(
            "txn.wal_group_size",
            "count",
            "higher",
            ratio(batches, flushes),
            flushes as u64,
        ),
        m(
            "txn.wal_bytes_per_txn",
            "B",
            "lower",
            ratio(bytes, committed),
            committed as u64,
        ),
        m(
            "txn.retry_ratio",
            "ratio",
            "lower",
            ratio(retries, attempted),
            attempted as u64,
        ),
        m(
            "txn.abort_ratio",
            "ratio",
            "lower",
            ratio(aborts, commits + aborts),
            (commits + aborts) as u64,
        ),
        hist("core.granule_us.p50", "migrate.granule_us", 0.50, "us", 1.0),
        hist("core.granule_us.p99", "migrate.granule_us", 0.99, "us", 1.0),
        hist("core.flip_us", "migrate.flip_us", 0.50, "us", 1.0),
        hist("core.quiesce_us", "migrate.quiesce_us", 0.50, "us", 1.0),
        probe("core.ensure_cold_us", "us"),
        probe("core.ensure_warm_us", "us"),
        probe("core.bitmap_claim_ns", "ns"),
        probe("core.hash_claim_ns", "ns"),
        m(
            "core.lazy_granule_share",
            "ratio",
            "higher",
            when_flipped(1.0 - ratio(mig.background_granules as f64, mig.granules_migrated as f64)),
            mig.granules_migrated,
        ),
        m(
            "core.wasted_ratio",
            "ratio",
            "lower",
            ratio(
                (mig.conflict_skips + mig.migration_aborts) as f64,
                mig.migration_txns as f64,
            ),
            mig.migration_txns,
        ),
        m(
            "core.waits_per_ktxn",
            "count",
            "lower",
            ratio(mig.waits as f64 * 1e3, flip_txns) * when_flipped(1.0),
            mig.waits,
        ),
        m(
            "core.rows_migrated_per_s",
            "1/s",
            "higher",
            ratio(mig.rows_migrated as f64, migration_s),
            mig.rows_migrated,
        ),
        m(
            "bench.client_think_us",
            "us",
            "lower",
            think_us,
            think.len() as u64,
        ),
        m(
            "bench.trace_overhead_pct",
            "%",
            "lower",
            trace_overhead_pct,
            traced.len() as u64,
        ),
        m(
            "bench.unaccounted_pct",
            "%",
            "lower",
            unaccounted_pct,
            traced.len() as u64,
        ),
        m(
            "fail_ratio",
            "ratio",
            "lower",
            ratio(attempted - committed, attempted),
            attempted as u64,
        ),
        m(
            "migration_s",
            "s",
            "lower",
            migration_s,
            u64::from(migration_s > 0.0),
        ),
        m(
            "txn_p99_ms",
            "ms",
            "lower",
            quantile(&all_ref, 0.99),
            all_ref.len() as u64,
        ),
        m(
            "flip_p95_ms",
            "ms",
            "lower",
            quantile(&flip_ref, 0.95),
            flip_ref.len() as u64,
        ),
        m(
            "flip_low_tps_ratio",
            "ratio",
            "higher",
            low_tps,
            low_buckets,
        ),
        m(
            "payment_p50_ms",
            "ms",
            "lower",
            quantile(&payment, 0.50),
            payment.len() as u64,
        ),
        m(
            "payment_flip_p50_ms",
            "ms",
            "lower",
            quantile(&payment_flip, 0.50),
            payment_flip.len() as u64,
        ),
    ]
}

pub fn metrics_json(metrics: &[Metric], full: bool) -> Json {
    Json::obj(metrics.iter().map(|x| {
        let mut fields = vec![
            ("value", Json::Num(x.value)),
            ("unit", Json::Str(x.unit.into())),
        ];
        if full {
            fields.push(("better", Json::Str(x.better.into())));
            fields.push(("n", Json::Num(x.n as f64)));
        }
        (x.name, Json::obj(fields))
    }))
}
