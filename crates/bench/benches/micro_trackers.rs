//! Criterion microbenchmarks of the migration trackers and the predicate
//! transposition — the per-operation costs behind Figure 9's "tracking
//! overhead is small" claim.

use std::sync::Arc;

use bullfrog_common::Value;
use bullfrog_core::granule::WorkList;
use bullfrog_core::{BitmapTracker, Granule, HashTracker, Tracker};
use bullfrog_query::{transpose, ColRef, Expr, SelectSpec};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bitmap_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitmap");
    g.bench_function("claim+mark", |b| {
        b.iter_batched(
            || (BitmapTracker::new(1 << 16, 1), 0u64),
            |(t, _)| {
                let (mut wip, mut skip) = (WorkList::new(), WorkList::new());
                for o in 0..1000u64 {
                    t.try_claim(&Granule::Ordinal(o), &mut wip, &mut skip);
                }
                t.mark_migrated(wip.items());
                black_box(wip.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("state_read_migrated", |b| {
        let t = BitmapTracker::new(1 << 16, 1);
        let (mut wip, mut skip) = (WorkList::new(), WorkList::new());
        for o in 0..1000u64 {
            t.try_claim(&Granule::Ordinal(o), &mut wip, &mut skip);
        }
        t.mark_migrated(wip.items());
        b.iter(|| {
            let mut migrated = 0;
            for o in 0..1000u64 {
                let (mut w, mut s) = (WorkList::new(), WorkList::new());
                if !t.try_claim(&Granule::Ordinal(o), &mut w, &mut s) {
                    migrated += 1;
                }
            }
            black_box(migrated)
        })
    });
    g.bench_function("contended_claims_8_threads", |b| {
        b.iter_batched(
            || Arc::new(BitmapTracker::new(1 << 14, 1)),
            |t| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let t = Arc::clone(&t);
                        std::thread::spawn(move || {
                            let (mut wip, mut skip) = (WorkList::new(), WorkList::new());
                            for o in 0..2000u64 {
                                t.try_claim(&Granule::Ordinal(o), &mut wip, &mut skip);
                            }
                            t.mark_migrated(wip.items());
                            wip.len()
                        })
                    })
                    .collect();
                let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
                assert_eq!(total, 2000);
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn hashmap_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("hashmap");
    g.bench_function("claim+mark", |b| {
        b.iter_batched(
            HashTracker::new,
            |t| {
                let (mut wip, mut skip) = (WorkList::new(), WorkList::new());
                for k in 0..1000i64 {
                    t.try_claim(&Granule::Group(vec![Value::Int(k)]), &mut wip, &mut skip);
                }
                t.mark_migrated(wip.items());
                black_box(wip.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("composite_keys", |b| {
        b.iter_batched(
            HashTracker::new,
            |t| {
                let (mut wip, mut skip) = (WorkList::new(), WorkList::new());
                for k in 0..500i64 {
                    t.try_claim(
                        &Granule::Group(vec![
                            Value::Int(k % 10),
                            Value::Int(k / 10),
                            Value::Int(k),
                        ]),
                        &mut wip,
                        &mut skip,
                    );
                }
                t.mark_migrated(wip.items());
                black_box(wip.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn lock_shard_hash(c: &mut Criterion) {
    use bullfrog_common::{RowId, TableId, TxnId};
    use bullfrog_txn::{LockKey, LockManager, LockMode};
    use std::time::{Duration, Instant};

    let mut g = c.benchmark_group("lock_shard");
    // The deterministic FNV hash that picks a lock-table shard (and a
    // tracker partition) — the per-acquire cost the DefaultHasher swap
    // had to not regress.
    g.bench_function("fnv_hash_key", |b| {
        let keys: Vec<LockKey> = (0..1024u64)
            .map(|r| LockKey::Row(TableId(3), RowId::from_ordinal(r, 64)))
            .collect();
        b.iter(|| {
            let mut acc = 0u64;
            for k in &keys {
                acc ^= bullfrog_common::fnv_hash_one(k);
            }
            black_box(acc)
        })
    });
    // End-to-end acquire/release through the sharded table, single txn,
    // distinct rows: dominated by shard pick + mutex + map entry.
    g.bench_function("acquire_release_1k", |b| {
        b.iter_batched(
            || LockManager::new(Duration::from_millis(50), Default::default()),
            |lm| {
                for r in 0..1000u64 {
                    lm.acquire(
                        TxnId(1),
                        LockKey::Row(TableId(3), RowId::from_ordinal(r, 64)),
                        LockMode::X,
                    )
                    .unwrap();
                }
                lm.release_all(
                    TxnId(1),
                    (0..1000u64).map(|r| LockKey::Row(TableId(3), RowId::from_ordinal(r, 64))),
                );
            },
            BatchSize::SmallInput,
        )
    });
    // The post-flip NewOrder lock set: one table IS plus the S locks the
    // stock probe takes on every row of the item in all four warehouses,
    // released at commit. The harness line is per round; the line before
    // it splits a round into ns per lock for the acquires and the release.
    g.bench_function("is_plus_1440_s_release_all", |b| {
        const ROWS: u64 = 1440;
        let lm = LockManager::new(Duration::from_millis(50), Default::default());
        let table = LockKey::Table(TableId(3));
        let rows: Vec<LockKey> = (0..ROWS)
            .map(|r| LockKey::Row(TableId(3), RowId::from_ordinal(r * 7, 64)))
            .collect();
        let mut keys = Vec::with_capacity(rows.len() + 1);
        let (mut acquire, mut release, mut rounds) = (Duration::ZERO, Duration::ZERO, 0u32);
        b.iter(|| {
            let t0 = Instant::now();
            lm.acquire(TxnId(1), table, LockMode::IS).unwrap();
            keys.push(table);
            for &key in &rows {
                lm.acquire(TxnId(1), key, LockMode::S).unwrap();
                keys.push(key);
            }
            let t1 = Instant::now();
            lm.release_all(TxnId(1), keys.drain(..));
            acquire += t1 - t0;
            release += t1.elapsed();
            rounds += 1;
        });
        let per_lock = |d: Duration| d.as_nanos() as f64 / (rounds as f64 * (ROWS + 1) as f64);
        println!(
            "lock_shard/is_plus_1440_s per lock: acquire {:.1} ns, release {:.1} ns",
            per_lock(acquire),
            per_lock(release)
        );
    });
    g.finish();
}

fn transposition(c: &mut Criterion) {
    let spec = SelectSpec::new()
        .from_table("flights", "f")
        .from_table("flewon", "fi")
        .join_on(ColRef::new("f", "flightid"), ColRef::new("fi", "flightid"))
        .select("fid", Expr::col("f", "flightid"))
        .select("flightdate", Expr::col("fi", "flightdate"))
        .select(
            "empty_seats",
            Expr::col("f", "capacity").sub(Expr::col("fi", "passenger_count")),
        );
    let pred = Expr::column("fid")
        .eq(Expr::lit("AA101"))
        .and(Expr::column("flightdate").ge(Expr::lit(Value::Date(1))))
        .and(Expr::column("empty_seats").gt(Expr::lit(0)));
    c.bench_function("transpose_paper_example", |b| {
        b.iter(|| black_box(transpose(&spec, Some(&pred))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bitmap_ops, hashmap_ops, lock_shard_hash, transposition
}
criterion_main!(benches);
