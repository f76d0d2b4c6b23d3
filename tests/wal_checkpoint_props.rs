//! Property: recovering from a checkpoint image plus the log tail is
//! indistinguishable from replaying the full log — for table contents AND
//! for the committed migration-granule set the trackers are rebuilt from —
//! no matter where the checkpoint cut lands (any frame boundary) and
//! no matter what mix of inserts/updates/deletes/granules the log holds.

use std::sync::Arc;

use bullfrog::common::{row, ColumnDef, DataType, TableSchema, Value};
use bullfrog::core::recovery::rebuild_trackers;
use bullfrog::engine::checkpoint::CheckpointImage;
use bullfrog::engine::recovery::{replay, replay_with_checkpoint};
use bullfrog::engine::{Database, LockPolicy};
use bullfrog::txn::wal::{Frame, GranuleKey};
use bullfrog::txn::LogRecord;
use proptest::prelude::*;

/// One logical client transaction in the generated history.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a fresh row keyed by the op index.
    Insert(i64),
    /// Update the row created by op `target` (if it still exists).
    Update { target: usize, val: i64 },
    /// Delete the row created by op `target` (if it still exists).
    Delete { target: usize },
    /// A committed migration transaction marking one granule.
    Granule { stmt: u32, ordinal: u64 },
    /// An aborted transaction — its records must never replay.
    AbortedInsert(i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..1000).prop_map(Op::Insert),
        ((0usize..40), (0i64..1000)).prop_map(|(target, val)| Op::Update { target, val }),
        (0usize..40).prop_map(|target| Op::Delete { target }),
        ((0u32..2), (0u64..64)).prop_map(|(stmt, ordinal)| Op::Granule { stmt, ordinal }),
        (0i64..1000).prop_map(Op::AbortedInsert),
    ]
}

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ],
    )
    .with_primary_key(&["id"])
}

/// Runs the ops against a fresh database, returning its full WAL frame
/// history. Row ids are disambiguated by op index so inserts never
/// collide on the primary key.
fn run_history(ops: &[Op]) -> (Arc<Database>, Vec<Frame>) {
    let db = Arc::new(Database::new());
    db.create_table(schema()).unwrap();
    let mut rids = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(v) => {
                let rid = db
                    .with_txn(|txn| db.insert(txn, "t", row![i as i64, *v]))
                    .unwrap();
                rids.push(Some((i as i64, rid)));
            }
            Op::Update { target, val } => {
                rids.push(None);
                if let Some(Some((id, _))) = rids.get(*target).cloned() {
                    let _ = db.with_txn(|txn| {
                        match db.get_by_pk(txn, "t", &[Value::Int(id)], LockPolicy::Exclusive)? {
                            Some((rid, _)) => db.update(txn, "t", rid, row![id, *val]).map(|_| ()),
                            None => Ok(()),
                        }
                    });
                }
            }
            Op::Delete { target } => {
                rids.push(None);
                if let Some(Some((id, _))) = rids.get(*target).cloned() {
                    let _ = db.with_txn(|txn| {
                        match db.get_by_pk(txn, "t", &[Value::Int(id)], LockPolicy::Exclusive)? {
                            Some((rid, _)) => db.delete(txn, "t", rid).map(|_| ()),
                            None => Ok(()),
                        }
                    });
                }
            }
            Op::Granule { stmt, ordinal } => {
                rids.push(None);
                let mut txn = db.begin();
                txn.push_redo(LogRecord::MigrationGranule {
                    migration: *stmt,
                    granule: GranuleKey::Ordinal(*ordinal),
                });
                db.commit(&mut txn).unwrap();
            }
            Op::AbortedInsert(v) => {
                rids.push(None);
                let mut txn = db.begin();
                db.insert(&mut txn, "t", row![10_000 + i as i64, *v])
                    .unwrap();
                db.abort(&mut txn);
            }
        }
    }
    let frames = db.wal().snapshot();
    (db, frames)
}

fn table_contents(db: &Database) -> Vec<(bullfrog::common::RowId, bullfrog::common::Row)> {
    let mut rows = db.select_unlocked("t", None).unwrap();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn checkpoint_plus_tail_equals_full_replay(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let (_src, frames) = run_history(&ops);

        // Path A: plain full-log replay.
        let full = Database::new();
        full.create_table(schema()).unwrap();
        let full_stats = replay(&full, frames.clone()).unwrap();

        // Path B, at every frame boundary a checkpoint may cut at (the
        // start of each frame, and the end of the log): fold the prefix
        // into a checkpoint image (surviving an encode/decode round trip,
        // as the on-disk sidecar would), then replay image + tail.
        for cut in 0..=frames.len() {
            let cut_lsn = frames.get(cut).map_or_else(
                || frames.last().map_or(0, Frame::end_lsn),
                |f| f.first_lsn,
            );
            let mut image = CheckpointImage::new();
            image.absorb(frames[..cut].to_vec(), cut_lsn);
            let image = CheckpointImage::decode(image.encode()).unwrap();
            let ckpt = Database::new();
            ckpt.create_table(schema()).unwrap();
            let ckpt_stats =
                replay_with_checkpoint(&ckpt, &image, frames[cut..].to_vec()).unwrap();

            prop_assert_eq!(table_contents(&full), table_contents(&ckpt), "cut {}", cut);
            // The granule set drives tracker rebuild; equal sets (in
            // order) yield equal tracker state.
            prop_assert_eq!(&full_stats.migrated_granules, &ckpt_stats.migrated_granules);
        }
        // Silence the unused-import warning path: rebuild_trackers is the
        // consumer of this list; its behaviour over equal lists is
        // exercised in tests/crash_recovery.rs.
        let _ = rebuild_trackers(&[], &full_stats.migrated_granules);
    }
}
