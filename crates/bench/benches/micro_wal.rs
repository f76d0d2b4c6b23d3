//! WAL durability microbenchmarks: 8 concurrent committers against the
//! group-commit log, sweeping the durability shard count and the commit
//! acknowledgement mode.
//!
//! Expected shape: in `nowait` (throughput-bound) mode the sharded log
//! wins — four flusher lanes drain the staged queues in parallel, each
//! writing and fsyncing a quarter of the bytes. In `durable`
//! (latency-bound) mode each commit's ack is one fsync round on its own
//! shard either way, so on a single-device host — where concurrent
//! fsyncs slow each other at the journal — one big group-commit lane can
//! beat four small ones; sharding is a throughput feature, not a sync
//! latency one.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bullfrog_common::{row, RowId, TableId, TxnId};
use bullfrog_txn::wal::{shard_file_path, LogRecord, Wal, WalOptions};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

/// Committers racing for the log in each measured burst.
const COMMITTERS: usize = 8;
/// Transactions each committer makes durable per burst — enough that the
/// flusher lanes reach steady state and fsync counts, not thread spawns,
/// dominate the measurement.
const TXNS_PER_COMMITTER: usize = 200;

fn bench_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bullfrog-bench-{tag}-{}.wal", std::process::id()))
}

fn remove_wal_shards(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    for shard in 1.. {
        if std::fs::remove_file(shard_file_path(path, shard)).is_err() {
            break;
        }
    }
}

/// Rows per transaction — enough payload that flush cost is dominated by
/// bytes written, which is what partitions across durability shards.
const ROWS_PER_TXN: usize = 8;

/// One committer's transaction batch: Begin + inserts + Commit for a txn
/// id unique to `(worker, i)` so shard assignment spreads like real
/// traffic.
fn batch(worker: usize, i: usize) -> Vec<LogRecord> {
    let txn = TxnId((worker * 1_000_000 + i + 1) as u64);
    let payload = "x".repeat(256);
    let mut records = Vec::with_capacity(ROWS_PER_TXN + 2);
    records.push(LogRecord::Begin(txn));
    for r in 0..ROWS_PER_TXN {
        records.push(LogRecord::Insert {
            txn,
            table: TableId(1),
            rid: RowId::from_ordinal((i * ROWS_PER_TXN + r) as u64, 64),
            row: row![r as i64, payload.as_str()],
        });
    }
    records.push(LogRecord::Commit(txn));
    records
}

/// A fresh file-backed log for one measured burst, so every sample
/// starts from an empty queue and a small file.
fn fresh_wal(tag: &str, shards: usize) -> (Arc<Wal>, PathBuf) {
    let path = bench_path(tag);
    remove_wal_shards(&path);
    let wal = Wal::with_file_opts(
        &path,
        WalOptions {
            group_window: Duration::ZERO,
            shards,
        },
    )
    .expect("bench wal");
    (Arc::new(wal), path)
}

fn wal_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_commit_8x");
    for shards in [1usize, 4] {
        g.bench_function(&format!("durable_shards{shards}"), |b| {
            b.iter_batched(
                || fresh_wal(&format!("durable-s{shards}"), shards),
                |(wal, path)| {
                    std::thread::scope(|s| {
                        for w in 0..COMMITTERS {
                            let wal = Arc::clone(&wal);
                            s.spawn(move || {
                                for i in 0..TXNS_PER_COMMITTER {
                                    black_box(wal.append(batch(w, i), None)).wait();
                                }
                            });
                        }
                    });
                    // Dropping the handle joins the flushers — part of
                    // the drain. File deletion happens in the next
                    // iteration's untimed setup.
                    drop(wal);
                    path
                },
                BatchSize::PerIteration,
            )
        });
        remove_wal_shards(&bench_path(&format!("durable-s{shards}")));

        g.bench_function(&format!("nowait_shards{shards}"), |b| {
            b.iter_batched(
                || fresh_wal(&format!("nowait-s{shards}"), shards),
                |(wal, path)| {
                    std::thread::scope(|s| {
                        for w in 0..COMMITTERS {
                            let wal = Arc::clone(&wal);
                            s.spawn(move || {
                                let mut last = None;
                                for i in 0..TXNS_PER_COMMITTER {
                                    last = Some(wal.append(batch(w, i), None));
                                }
                                // Ack latency is off the committer's
                                // path; only the burst's last ticket is
                                // awaited.
                                last.unwrap().wait();
                            });
                        }
                    });
                    drop(wal);
                    path
                },
                BatchSize::PerIteration,
            )
        });
        remove_wal_shards(&bench_path(&format!("nowait-s{shards}")));
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = wal_commit
}
criterion_main!(benches);
