//! Slotted pages of encoded tuples.

use bullfrog_common::SlotNo;

/// Default number of row slots per page.
///
/// A page is a vector of variable-length tuples rather than a fixed byte
/// extent, so the slot count — not a byte size — defines the page. 128
/// slots keeps page-granularity migration (paper §4.4.3) meaningful while
/// bounding latch hold times.
pub const DEFAULT_SLOTS_PER_PAGE: u16 = 128;

/// A stored tuple: a row in [`bullfrog_common::codec`]'s encoding (the
/// bytes the log writes for it), in one allocation of exactly its size.
pub type Tuple = Box<[u8]>;

/// A slot within a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// Holds a live tuple.
    Live(Tuple),
    /// Held a row that was deleted. Tombstones are never reused: `RowId`s
    /// must stay stable for the lifetime of the table so that migration
    /// trackers keyed by row id can never alias two different tuples.
    Tombstone,
}

impl Slot {
    /// The tuple, if live.
    pub fn tuple(&self) -> Option<&[u8]> {
        match self {
            Slot::Live(t) => Some(t),
            Slot::Tombstone => None,
        }
    }
}

/// One committed version of a row (Snapshot engine mode).
///
/// `row == None` records a committed deletion: readers whose snapshot
/// lands on this node see no row, while older snapshots keep reading the
/// next (older) node in the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionNode {
    /// Commit timestamp this version became visible at. Timestamp 0 is
    /// the pre-history base version (rows that existed before the first
    /// snapshot transaction touched them).
    pub begin_ts: u64,
    /// A copy of the tuple, or `None` for a committed delete.
    pub row: Option<Tuple>,
}

/// Per-slot MVCC metadata, allocated lazily the first time a snapshot
/// transaction writes the slot. Slots without metadata are implicitly a
/// single committed version at timestamp 0 — TwoPL mode never allocates
/// metadata, so the 2PL heap pays nothing for MVCC support.
///
/// Invariant: when `writer` is `None`, the newest chain node equals the
/// slot's current state (commit pushes the slot image onto the chain), so
/// version GC can drop a fully-pruned chain and fall back to the slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionMeta {
    /// Transaction id with a pending in-place write on the slot. While
    /// set, the slot content is uncommitted; only that transaction reads
    /// the slot directly, everyone else traverses `chain`.
    pub writer: Option<u64>,
    /// Committed versions, newest first.
    pub chain: Vec<VersionNode>,
}

impl VersionMeta {
    /// Newest committed version timestamp (first-updater-wins check).
    fn newest_begin_ts(&self) -> u64 {
        self.chain.first().map_or(0, |n| n.begin_ts)
    }
}

/// What a page holds: tuples (live slots and version-chain copies) and
/// their bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Held {
    /// Stored tuples.
    pub tuples: usize,
    /// Their encoded bytes.
    pub bytes: usize,
}

impl Held {
    fn add(&mut self, t: &[u8]) {
        self.tuples += 1;
        self.bytes += t.len();
    }

    fn sub(&mut self, t: &[u8]) {
        self.tuples -= 1;
        self.bytes -= t.len();
    }
}

/// A fixed-capacity slotted page.
///
/// Pages only ever grow (slots are appended until `capacity`), and slots
/// transition `Live -> Tombstone` (delete) or are overwritten in place
/// (update / un-delete during transaction rollback).
#[derive(Debug)]
pub struct Page {
    slots: Vec<Slot>,
    capacity: u16,
    live: u16,
    /// Parallel to `slots`; `None` for slots with no version history.
    /// Boxed so the common (TwoPL / never-versioned) case costs one
    /// pointer per slot. Guarded by the same page latch as `slots`, which
    /// is what makes slot-vs-chain reads torn-free.
    versions: Vec<Option<Box<VersionMeta>>>,
    /// Every tuple in `slots` and `versions`, kept exact by each method
    /// that stores or drops one.
    held: Held,
}

impl Page {
    /// Creates an empty page with room for `capacity` slots.
    pub fn new(capacity: u16) -> Self {
        Page {
            slots: Vec::new(),
            capacity,
            live: 0,
            versions: Vec::new(),
            held: Held::default(),
        }
    }

    /// True when no more slots can be appended.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity as usize
    }

    /// Number of slots in use (live + tombstoned).
    pub fn used(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Number of live rows.
    pub fn live(&self) -> u16 {
        self.live
    }

    /// The tuples and bytes this page holds, version copies included.
    pub fn held(&self) -> Held {
        self.held
    }

    /// Appends a tuple, returning its slot number, or `None` when full.
    pub fn append(&mut self, tuple: Tuple) -> Option<SlotNo> {
        if self.is_full() {
            return None;
        }
        let slot = self.slots.len() as SlotNo;
        self.held.add(&tuple);
        self.slots.push(Slot::Live(tuple));
        self.live += 1;
        Some(slot)
    }

    /// The live tuple at `slot`, if any.
    pub fn get(&self, slot: SlotNo) -> Option<&[u8]> {
        self.slots.get(slot as usize).and_then(Slot::tuple)
    }

    /// Replaces the live tuple at `slot`; returns the previous one or
    /// `None` when the slot is vacant/tombstoned.
    pub fn update(&mut self, slot: SlotNo, tuple: Tuple) -> Option<Tuple> {
        match self.slots.get_mut(slot as usize) {
            Some(Slot::Live(t)) => {
                self.held.sub(t);
                self.held.add(&tuple);
                Some(std::mem::replace(t, tuple))
            }
            _ => None,
        }
    }

    /// Tombstones the tuple at `slot`; returns it, or `None` when not live.
    pub fn delete(&mut self, slot: SlotNo) -> Option<Tuple> {
        match self.slots.get_mut(slot as usize) {
            Some(s @ Slot::Live(_)) => {
                let Slot::Live(t) = std::mem::replace(s, Slot::Tombstone) else {
                    unreachable!("matched Live")
                };
                self.held.sub(&t);
                self.live -= 1;
                Some(t)
            }
            _ => None,
        }
    }

    /// Restores a tombstoned slot to `tuple` (transaction rollback of a
    /// delete). Returns false when the slot is not a tombstone.
    pub fn undelete(&mut self, slot: SlotNo, tuple: Tuple) -> bool {
        match self.slots.get_mut(slot as usize) {
            Some(s @ Slot::Tombstone) => {
                self.held.add(&tuple);
                *s = Slot::Live(tuple);
                self.live += 1;
                true
            }
            _ => false,
        }
    }

    /// Places a tuple at an exact slot (WAL replay): extends the page with
    /// tombstones as needed; fails when the slot is already live or beyond
    /// capacity.
    pub fn place(&mut self, slot: SlotNo, tuple: Tuple) -> bool {
        if slot >= self.capacity {
            return false;
        }
        while self.slots.len() <= slot as usize {
            self.slots.push(Slot::Tombstone);
        }
        self.undelete(slot, tuple)
    }

    /// Iterates `(slot, tuple)` over live tuples.
    pub fn iter_live(&self) -> impl Iterator<Item = (SlotNo, &[u8])> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.tuple().map(|t| (i as SlotNo, t)))
    }

    // ---- MVCC version chains (Snapshot engine mode) ----

    fn meta(&self, slot: SlotNo) -> Option<&VersionMeta> {
        self.versions.get(slot as usize).and_then(|m| m.as_deref())
    }

    fn meta_mut(&mut self, slot: SlotNo) -> &mut Option<Box<VersionMeta>> {
        if self.versions.len() < self.slots.len() {
            self.versions.resize_with(self.slots.len(), || None);
        }
        &mut self.versions[slot as usize]
    }

    /// A chain copy of the tuple at `slot`, counted as held.
    fn copy_for_chain(&mut self, slot: SlotNo) -> Option<Tuple> {
        let copy: Tuple = self.get(slot)?.into();
        self.held.add(&copy);
        Some(copy)
    }

    /// Appends a tuple with a pending-writer marker in the same critical
    /// section, so concurrent snapshot readers never see the uncommitted
    /// insert (empty chain + foreign writer ⇒ invisible).
    pub fn append_versioned(&mut self, tuple: Tuple, txn: u64) -> Option<SlotNo> {
        let slot = self.append(tuple)?;
        *self.meta_mut(slot) = Some(Box::new(VersionMeta {
            writer: Some(txn),
            chain: Vec::new(),
        }));
        Some(slot)
    }

    /// Marks `txn` as the pending writer of `slot` before an in-place
    /// update/delete. On first versioning of a slot the current committed
    /// state is seeded as the timestamp-0 base version. Idempotent for
    /// the same transaction. Returns whether a writer marker was newly
    /// placed (false on an idempotent re-mark), so the heap can keep its
    /// pending-writer gauge exact.
    pub fn prepare_write(&mut self, slot: SlotNo, txn: u64) -> bool {
        if slot as usize >= self.slots.len() {
            return false;
        }
        if let Some(m) = self.meta_mut(slot) {
            let newly = m.writer.is_none();
            m.writer = Some(txn);
            return newly;
        }
        let seed = self.copy_for_chain(slot);
        *self.meta_mut(slot) = Some(Box::new(VersionMeta {
            writer: Some(txn),
            chain: vec![VersionNode {
                begin_ts: 0,
                row: seed,
            }],
        }));
        true
    }

    /// Commits `txn`'s pending write on `slot`: pushes a copy of the
    /// slot's current state onto the chain at `ts` and clears the writer
    /// marker. No-op when `txn` is not the pending writer. Returns
    /// whether the marker was actually cleared.
    pub fn install_version(&mut self, slot: SlotNo, txn: u64, ts: u64) -> bool {
        if self.meta(slot).is_none_or(|m| m.writer != Some(txn)) {
            return false;
        }
        let row = self.copy_for_chain(slot);
        let m = self.meta_mut(slot).as_deref_mut().expect("checked above");
        m.chain.insert(0, VersionNode { begin_ts: ts, row });
        m.writer = None;
        true
    }

    /// Aborts `txn`'s pending write on `slot` (the undo log has already
    /// restored the slot itself). Drops chain-less metadata so an aborted
    /// insert leaves no residue. Returns whether the marker was cleared.
    pub fn clear_pending(&mut self, slot: SlotNo, txn: u64) -> bool {
        let meta = self.meta_mut(slot);
        if let Some(m) = meta.as_deref_mut() {
            if m.writer == Some(txn) {
                m.writer = None;
                if m.chain.is_empty() {
                    *meta = None;
                }
                return true;
            }
        }
        false
    }

    /// The tuple visible to a reader at snapshot `snap`. `txn` is the
    /// reader's id, used for read-your-own-writes: the pending writer of
    /// a slot reads the slot state directly.
    pub fn visible(&self, slot: SlotNo, txn: Option<u64>, snap: u64) -> Option<&[u8]> {
        let slot_tuple = self.get(slot);
        match self.meta(slot) {
            // Never versioned: the slot is the ts-0 base version.
            None => slot_tuple,
            Some(m) => {
                if m.writer.is_some() && m.writer == txn {
                    return slot_tuple;
                }
                m.chain
                    .iter()
                    .find(|n| n.begin_ts <= snap)
                    .and_then(|n| n.row.as_deref())
            }
        }
    }

    /// Newest committed version timestamp of `slot` (0 for unversioned
    /// slots). Drives the first-updater-wins conflict check.
    pub fn newest_version_ts(&self, slot: SlotNo) -> u64 {
        self.meta(slot).map_or(0, VersionMeta::newest_begin_ts)
    }

    /// Number of chain nodes retained on this page.
    pub fn version_count(&self) -> usize {
        self.versions
            .iter()
            .filter_map(|m| m.as_deref())
            .map(|m| m.chain.len())
            .sum()
    }

    /// Prunes versions no active snapshot can reach: for each chain, keeps
    /// everything newer than `horizon` plus the first node at or below it;
    /// drops metadata entirely once only that node remains (the slot holds
    /// the same image, per the commit invariant). Returns freed nodes.
    pub fn gc_versions(&mut self, horizon: u64) -> usize {
        let mut freed = 0;
        for meta in &mut self.versions {
            let Some(m) = meta.as_deref_mut() else {
                continue;
            };
            let keep = match m.chain.iter().position(|n| n.begin_ts <= horizon) {
                Some(keep) => keep + 1,
                None => m.chain.len(),
            };
            let whole = m.writer.is_none() && keep <= 1 && m.newest_begin_ts() <= horizon;
            let dropped = if whole {
                &m.chain[..]
            } else {
                &m.chain[keep..]
            };
            for t in dropped.iter().filter_map(|n| n.row.as_deref()) {
                self.held.sub(t);
            }
            freed += dropped.len();
            if whole {
                *meta = None;
            } else {
                m.chain.truncate(keep);
            }
        }
        freed
    }

    /// What the page holds, counted from scratch (the reference the
    /// running `held` is tested against).
    #[cfg(test)]
    pub(crate) fn recount(&self) -> Held {
        let mut held = Held::default();
        let chains = self.versions.iter().flatten().flat_map(|m| &m.chain);
        let tuples = self.slots.iter().filter_map(Slot::tuple);
        for t in tuples.chain(chains.filter_map(|n| n.row.as_deref())) {
            held.add(t);
        }
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::{codec, row, Row};

    /// A one-value tuple.
    fn t(v: i64) -> Tuple {
        codec::encode_values(&row![v].0)
    }

    fn some(v: i64) -> Option<Tuple> {
        Some(t(v))
    }

    fn row_of(tuple: Option<&[u8]>) -> Option<Row> {
        tuple.map(|mut b| Row(codec::get_values(&mut b).unwrap()))
    }

    #[test]
    fn append_until_full() {
        let mut p = Page::new(2);
        assert_eq!(p.append(t(1)), Some(0));
        assert_eq!(p.append(t(2)), Some(1));
        assert!(p.is_full());
        assert_eq!(p.append(t(3)), None);
        assert_eq!(p.live(), 2);
        assert_eq!(p.held().tuples, 2, "a refused tuple is not held");
    }

    #[test]
    fn delete_tombstones_without_reuse() {
        let mut p = Page::new(4);
        p.append(t(1));
        p.append(t(2));
        assert_eq!(p.delete(0), some(1));
        assert_eq!(p.get(0), None);
        assert_eq!(p.live(), 1);
        // The freed slot is NOT reused; appends continue at the end.
        assert_eq!(p.append(t(3)), Some(2));
        // Double delete is a no-op.
        assert_eq!(p.delete(0), None);
    }

    #[test]
    fn update_only_live_slots() {
        let mut p = Page::new(4);
        p.append(t(1));
        assert_eq!(p.update(0, t(9)), some(1));
        assert_eq!(row_of(p.get(0)), Some(row![9]));
        assert_eq!(p.update(1, t(5)), None, "vacant slot");
        p.delete(0);
        assert_eq!(p.update(0, t(5)), None, "tombstoned slot");
    }

    #[test]
    fn undelete_restores_rollback() {
        let mut p = Page::new(4);
        p.append(t(1));
        p.delete(0);
        assert!(p.undelete(0, t(1)));
        assert_eq!(row_of(p.get(0)), Some(row![1]));
        assert_eq!(p.live(), 1);
        // Can't undelete a live slot.
        assert!(!p.undelete(0, t(2)));
    }

    #[test]
    fn version_chain_visibility() {
        let mut p = Page::new(4);
        p.append(t(1)); // unversioned base row
        assert_eq!(row_of(p.visible(0, None, 0)), Some(row![1]));

        // Writer 7 updates in place at snapshot 5, commits at ts 10.
        p.prepare_write(0, 7);
        p.update(0, t(2));
        assert_eq!(row_of(p.visible(0, Some(7), 5)), Some(row![2]), "own write");
        assert_eq!(
            row_of(p.visible(0, Some(8), 5)),
            Some(row![1]),
            "other reader"
        );
        assert_eq!(row_of(p.visible(0, None, 5)), Some(row![1]));
        p.install_version(0, 7, 10);
        assert_eq!(row_of(p.visible(0, None, 9)), Some(row![1]), "old snapshot");
        assert_eq!(
            row_of(p.visible(0, None, 10)),
            Some(row![2]),
            "new snapshot"
        );
        assert_eq!(p.newest_version_ts(0), 10);
        assert_eq!(p.version_count(), 2);
    }

    #[test]
    fn versioned_insert_hidden_until_install() {
        let mut p = Page::new(4);
        let s = p.append_versioned(t(9), 3).unwrap();
        assert_eq!(p.visible(s, None, 100), None, "uncommitted insert hidden");
        assert_eq!(
            row_of(p.visible(s, Some(3), 0)),
            Some(row![9]),
            "own insert"
        );
        p.install_version(s, 3, 20);
        assert_eq!(p.visible(s, None, 19), None);
        assert_eq!(row_of(p.visible(s, None, 20)), Some(row![9]));
    }

    #[test]
    fn versioned_delete_keeps_old_snapshot_readable() {
        let mut p = Page::new(4);
        p.append(t(1));
        p.prepare_write(0, 5);
        p.delete(0);
        assert_eq!(
            row_of(p.visible(0, None, 50)),
            Some(row![1]),
            "pending delete"
        );
        p.install_version(0, 5, 30);
        assert_eq!(row_of(p.visible(0, None, 29)), Some(row![1]));
        assert_eq!(p.visible(0, None, 30), None, "committed delete");
    }

    #[test]
    fn clear_pending_drops_abandoned_meta() {
        let mut p = Page::new(4);
        let s = p.append_versioned(t(1), 2).unwrap();
        p.delete(s); // undo of the aborted insert
        p.clear_pending(s, 2);
        assert_eq!(p.version_count(), 0);
        assert_eq!(p.visible(s, None, 100), None);
        assert_eq!(p.held(), Held::default());
    }

    #[test]
    fn gc_prunes_unreachable_versions() {
        let mut p = Page::new(4);
        p.append(t(0));
        for (txn, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
            p.prepare_write(0, txn);
            p.update(0, t(ts as i64));
            p.install_version(0, txn, ts);
        }
        assert_eq!(p.version_count(), 4); // base + three commits
        assert_eq!(p.held().tuples, 5, "the slot and four chain copies");
        // Horizon 20: versions 30 and 20 stay (20 is the first reachable
        // at-or-below node); 10 and the base go.
        assert_eq!(p.gc_versions(20), 2);
        assert_eq!(p.held().tuples, 3);
        assert_eq!(row_of(p.visible(0, None, 25)), Some(row![20]));
        assert_eq!(row_of(p.visible(0, None, 35)), Some(row![30]));
        // Horizon 40: chain collapses to the slot, meta freed.
        assert_eq!(p.gc_versions(40), 2);
        assert_eq!(p.version_count(), 0);
        assert_eq!(p.held().tuples, 1);
        assert_eq!(p.held().bytes, t(30).len());
        assert_eq!(row_of(p.visible(0, None, 40)), Some(row![30]));
    }

    #[test]
    fn iter_live_skips_tombstones() {
        let mut p = Page::new(4);
        p.append(t(1));
        p.append(t(2));
        p.append(t(3));
        p.delete(1);
        let live: Vec<_> = p.iter_live().map(|(s, _)| s).collect();
        assert_eq!(live, vec![0, 2]);
    }
}
