//! WAL durability microbenchmarks: 8 concurrent committers against the
//! group-commit log, in each commit acknowledgement mode.
//!
//! `durable` has every committer wait for its own commit before the next
//! (synchronous `COMMIT`): each ack costs one fsync round, and whoever
//! staged while that fsync ran joins the next group, so the group size
//! tracks the number of waiting committers. `nowait` enqueues a whole
//! burst and waits once, on its last ticket (asynchronous commit): the
//! flusher drains larger groups, and the run is bound by bytes written,
//! not by fsync rounds. The gap between the two is what group commit
//! cannot hide from a synchronous committer.

use std::path::PathBuf;
use std::sync::Arc;

use bullfrog_common::{row, RowId, TableId};
use bullfrog_txn::wal::{LogRecord, Wal};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

/// Committers racing for the log in each measured burst.
const COMMITTERS: usize = 8;
/// Transactions each committer makes durable per burst — enough that the
/// flusher reaches steady state and fsync counts, not thread spawns,
/// dominate the measurement.
const TXNS_PER_COMMITTER: usize = 200;

fn bench_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bullfrog-bench-{tag}-{}.wal", std::process::id()))
}

/// Rows per transaction — enough payload that flush cost includes the
/// bytes written, not only the fsync.
const ROWS_PER_TXN: usize = 8;

/// One committer's transaction: the inserts its commit appends as one
/// frame, at row ids unique to `(worker, i)`.
fn batch(worker: usize, i: usize) -> Vec<LogRecord> {
    let payload = "x".repeat(256);
    (0..ROWS_PER_TXN)
        .map(|r| LogRecord::Insert {
            table: TableId(1 + worker as u32),
            rid: RowId::from_ordinal((i * ROWS_PER_TXN + r) as u64, 64),
            row: row![r as i64, payload.as_str()],
        })
        .collect()
}

/// A fresh file-backed log for one measured burst, so every sample
/// starts from an empty queue and a small file.
fn fresh_wal(tag: &str) -> (Arc<Wal>, PathBuf) {
    let path = bench_path(tag);
    let _ = std::fs::remove_file(&path);
    let wal = Wal::with_file(&path).expect("bench wal");
    (Arc::new(wal), path)
}

fn wal_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_commit_8x");
    g.bench_function("durable", |b| {
        b.iter_batched(
            || fresh_wal("durable"),
            |(wal, path)| {
                std::thread::scope(|s| {
                    for w in 0..COMMITTERS {
                        let wal = Arc::clone(&wal);
                        s.spawn(move || {
                            for i in 0..TXNS_PER_COMMITTER {
                                black_box(wal.append(batch(w, i), false)).wait();
                            }
                        });
                    }
                });
                // Dropping the handle joins the flusher — part of the
                // drain. File deletion happens in the next iteration's
                // untimed setup.
                drop(wal);
                path
            },
            BatchSize::PerIteration,
        )
    });
    let _ = std::fs::remove_file(bench_path("durable"));

    g.bench_function("nowait", |b| {
        b.iter_batched(
            || fresh_wal("nowait"),
            |(wal, path)| {
                std::thread::scope(|s| {
                    for w in 0..COMMITTERS {
                        let wal = Arc::clone(&wal);
                        s.spawn(move || {
                            let mut last = None;
                            for i in 0..TXNS_PER_COMMITTER {
                                last = Some(wal.append(batch(w, i), false));
                            }
                            // Ack latency is off the committer's path;
                            // only the burst's last ticket is awaited.
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
    let _ = std::fs::remove_file(bench_path("nowait"));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = wal_commit
}
criterion_main!(benches);
