//! Criterion microbenchmarks of the MVCC substrate: the same point
//! operations under both engine modes (2PL read-committed vs snapshot
//! isolation), plus the SI-only paths — version-chain traversal from an
//! old snapshot and first-updater-wins conflict detection — that have
//! no 2PL counterpart.

use std::sync::Arc;

use bullfrog_common::{row, ColumnDef, DataType, RowId, TableSchema, Value};
use bullfrog_engine::{Database, DbConfig, EngineMode, LockPolicy};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const ROWS: i64 = 1_000;

/// A single-table database in the given mode, loaded with [`ROWS`]
/// accounts and every row updated once so SI reads traverse real
/// version metadata rather than the fresh-insert fast path.
fn db_in(mode: EngineMode) -> (Arc<Database>, Vec<RowId>) {
    let db = Arc::new(Database::with_config(DbConfig {
        mode,
        ..DbConfig::default()
    }));
    db.create_table(
        TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("balance", DataType::Int),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    let rids = db
        .with_txn(|txn| {
            (0..ROWS)
                .map(|i| db.insert(txn, "accounts", row![i, 100]))
                .collect::<Result<Vec<_>, _>>()
        })
        .unwrap();
    for (i, rid) in rids.iter().enumerate() {
        db.with_txn(|txn| db.update(txn, "accounts", *rid, row![i as i64, 100]))
            .unwrap();
    }
    (db, rids)
}

fn mode_pairs(c: &mut Criterion) {
    for mode in [EngineMode::TwoPL, EngineMode::Snapshot] {
        let (db, rids) = db_in(mode);
        let name = format!("mvcc_{}", mode.as_str());
        let mut g = c.benchmark_group(name.as_str());

        g.bench_function("pk_point_read", |b| {
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                let key = [Value::Int(i % ROWS)];
                let mut txn = db.begin();
                let got = db.get_by_pk(&mut txn, "accounts", &key, LockPolicy::Shared);
                db.commit(&mut txn).unwrap();
                black_box(got.unwrap())
            })
        });

        g.bench_function("update_commit", |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                // Bound resident chain length: with no live snapshots the
                // horizon is the stable frontier, so GC strips everything
                // this bench installed (no-op under 2PL).
                if i.is_multiple_of(8192) {
                    db.version_gc();
                }
                let rid = rids[(i % ROWS as u64) as usize];
                let id = (i % ROWS as u64) as i64;
                db.with_txn(|txn| db.update(txn, "accounts", rid, row![id, 100 + (i % 7) as i64]))
                    .unwrap();
            })
        });

        g.bench_function("full_scan", |b| {
            b.iter(|| {
                let mut txn = db.begin();
                let got = db.select(&mut txn, "accounts", None, LockPolicy::Shared);
                db.commit(&mut txn).unwrap();
                black_box(got.unwrap().len())
            })
        });
        g.finish();
    }
}

fn si_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("mvcc_si_chains");

    // A reader whose snapshot predates `depth` committed updates must
    // walk that many chain nodes to find its visible version.
    for depth in [1usize, 8, 64] {
        let (db, rids) = db_in(EngineMode::Snapshot);
        let rid = rids[0];
        let mut old_reader = db.begin();
        // Pin the snapshot (and the GC horizon) before growing the chain.
        let key = [Value::Int(0)];
        black_box(
            db.get_by_pk(&mut old_reader, "accounts", &key, LockPolicy::Shared)
                .unwrap(),
        );
        for v in 0..depth {
            db.with_txn(|txn| db.update(txn, "accounts", rid, row![0, 200 + v as i64]))
                .unwrap();
        }
        let name = format!("read_behind_depth_{depth}");
        g.bench_function(name.as_str(), |b| {
            b.iter(|| {
                let got = db.get_by_pk(&mut old_reader, "accounts", &key, LockPolicy::Shared);
                black_box(got.unwrap())
            })
        });
        db.commit(&mut old_reader).unwrap();
    }

    // First-updater-wins: the loser detects the conflict at its first
    // touch of the row and aborts; this is the retry path's fixed cost.
    let (db, rids) = db_in(EngineMode::Snapshot);
    let rid = rids[0];
    g.bench_function("write_conflict_detect_abort", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if i.is_multiple_of(8192) {
                db.version_gc();
            }
            let mut loser = db.begin();
            db.with_txn(|txn| db.update(txn, "accounts", rid, row![0, (i % 9) as i64]))
                .unwrap();
            let err = db
                .update(&mut loser, "accounts", rid, row![0, -1])
                .unwrap_err();
            db.abort(&mut loser);
            black_box(err)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = mode_pairs, si_only
}
criterion_main!(benches);
