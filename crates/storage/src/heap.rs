//! Table heaps: append-only collections of slotted pages.
//!
//! A heap stores each row as a [`Tuple`]: the bytes
//! [`bullfrog_common::codec`] encodes it to, which are also the bytes the
//! log writes for it. Writes encode once into an exact-size allocation;
//! reads decode a fresh [`Row`], and scans decode into one reused `Row`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bullfrog_common::{codec, PageNo, Row, RowId, SlotNo};
use parking_lot::{Mutex, RwLock};

use crate::page::{Held, Page, Tuple};

/// Encodes `row` as the heap stores it.
fn encode(row: &Row) -> Tuple {
    codec::encode_values(&row.0)
}

/// Decodes `tuple` into `row`, reusing `row`'s allocations.
fn decode_into(mut tuple: &[u8], row: &mut Row) {
    codec::get_values_into(&mut tuple, &mut row.0)
        .expect("the heap decodes only tuples it encoded");
}

/// Decodes `tuple` into a fresh row.
fn decode(tuple: &[u8]) -> Row {
    let mut row = Row::default();
    decode_into(tuple, &mut row);
    row
}

/// A heap of slotted pages holding a table's rows.
///
/// - Inserts append to the last page (new pages are allocated under a small
///   append mutex).
/// - Rows are addressed by stable [`RowId`]s; deleted slots tombstone and
///   are never reused.
/// - Pages are individually latched; scans clone the page list (cheap — it
///   is a vector of `Arc`s) and then visit pages without holding the list
///   lock, so long scans never block inserts of new pages.
pub struct TableHeap {
    pages: RwLock<Vec<Arc<RwLock<Page>>>>,
    /// Serializes the "last page full → allocate" decision.
    append: Mutex<()>,
    slots_per_page: u16,
    /// Largest commit timestamp ever installed into a version chain of
    /// this heap (monotone; GC never lowers it). Together with
    /// `pending_writers` this gates the snapshot-read fast path: when no
    /// version is newer than a snapshot and no write is in flight, the
    /// latest slot state *is* the snapshot state.
    max_version_ts: AtomicU64,
    /// Number of slots currently carrying an uncommitted writer marker.
    pending_writers: AtomicUsize,
    /// The sum of every page's [`Page::held`]: tuples, then bytes. An
    /// insert adds its tuple as it encodes it; every other page write
    /// carries its page's change over once it returns.
    held_tuples: AtomicUsize,
    held_bytes: AtomicUsize,
}

impl TableHeap {
    /// Creates an empty heap with the given page slot count.
    pub fn new(slots_per_page: u16) -> Self {
        assert!(slots_per_page > 0, "pages must hold at least one slot");
        TableHeap {
            pages: RwLock::new(Vec::new()),
            append: Mutex::new(()),
            slots_per_page,
            max_version_ts: AtomicU64::new(0),
            pending_writers: AtomicUsize::new(0),
            held_tuples: AtomicUsize::new(0),
            held_bytes: AtomicUsize::new(0),
        }
    }

    /// Slots per page (the bitmap tracker sizes ordinals with this).
    pub fn slots_per_page(&self) -> u16 {
        self.slots_per_page
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.pages.read().len()
    }

    /// Upper bound on row ordinals (= pages × slots/page); the bitmap
    /// tracker uses this as its capacity.
    pub fn ordinal_bound(&self) -> u64 {
        self.num_pages() as u64 * self.slots_per_page as u64
    }

    /// Number of live rows (O(pages)).
    pub fn live_count(&self) -> usize {
        self.snapshot()
            .iter()
            .map(|p| p.read().live() as usize)
            .sum()
    }

    /// The tuples this heap stores — live rows and the copies its version
    /// chains keep — and their encoded bytes (O(1)).
    pub fn held(&self) -> Held {
        Held {
            tuples: self.held_tuples.load(Ordering::Relaxed),
            bytes: self.held_bytes.load(Ordering::Relaxed),
        }
    }

    /// Adds what a page write changed (`after` less `before`, each part
    /// possibly negative) to the heap's totals.
    fn carry(&self, before: Held, after: Held) {
        if before != after {
            let tuples = after.tuples.wrapping_sub(before.tuples);
            let bytes = after.bytes.wrapping_sub(before.bytes);
            self.held_tuples.fetch_add(tuples, Ordering::Relaxed);
            self.held_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Runs `f` on page `page_no` under its write latch and carries the
    /// change in what the page holds to the heap's totals. `None` when
    /// the page does not exist.
    fn write<R>(&self, page_no: PageNo, f: impl FnOnce(&mut Page) -> R) -> Option<R> {
        let page = self.page(page_no)?;
        let mut guard = page.write();
        let before = guard.held();
        let out = f(&mut guard);
        let after = guard.held();
        drop(guard);
        self.carry(before, after);
        Some(out)
    }

    /// Inserts a row, returning its stable id.
    pub fn insert(&self, row: &Row) -> RowId {
        self.append_with(row, Page::append)
    }

    /// Puts `row`'s tuple on the last page with `put`, allocating a page
    /// when the last one is full.
    fn append_with(&self, row: &Row, put: impl Fn(&mut Page, Tuple) -> Option<SlotNo>) -> RowId {
        let tuple = encode(row);
        let held = Held {
            tuples: 1,
            bytes: tuple.len(),
        };
        self.carry(Held::default(), held);
        let _guard = self.append.lock();
        // Fast path: last page has room.
        {
            let pages = self.pages.read();
            if let Some(last) = pages.last() {
                let page_no = (pages.len() - 1) as PageNo;
                let mut page = last.write();
                // `put` fails only on a full page: test first, so the
                // tuple moves in without a speculative copy.
                if !page.is_full() {
                    let slot = put(&mut page, tuple).expect("a page with room accepts the tuple");
                    return RowId::new(page_no, slot);
                }
            }
        }
        // Slow path: allocate a page. Safe because we hold `append`.
        let mut pages = self.pages.write();
        let mut page = Page::new(self.slots_per_page);
        let slot = put(&mut page, tuple).expect("fresh page accepts at least one tuple");
        pages.push(Arc::new(RwLock::new(page)));
        RowId::new((pages.len() - 1) as PageNo, slot)
    }

    /// Reads the live row at `rid`.
    pub fn get(&self, rid: RowId) -> Option<Row> {
        let page = self.page(rid.page())?;
        let guard = page.read();
        guard.get(rid.slot()).map(decode)
    }

    /// Replaces the live row at `rid`; false when the slot holds no
    /// live row. The replaced tuple is dropped undecoded: a caller that
    /// needs the old row reads it first, under its row lock.
    pub fn update(&self, rid: RowId, row: &Row) -> bool {
        let tuple = encode(row);
        self.write(rid.page(), |p| p.update(rid.slot(), tuple).is_some())
            .unwrap_or(false)
    }

    /// Tombstones the row at `rid`, returning it.
    pub fn delete(&self, rid: RowId) -> Option<Row> {
        let old = self.write(rid.page(), |p| p.delete(rid.slot()))??;
        Some(decode(&old))
    }

    /// Restores a tombstoned slot (rollback of a delete).
    pub fn undelete(&self, rid: RowId, row: &Row) -> bool {
        let tuple = encode(row);
        self.write(rid.page(), |p| p.undelete(rid.slot(), tuple))
            .unwrap_or(false)
    }

    /// Places a row at an exact id (WAL replay): allocates intermediate
    /// pages as needed. Fails when the slot is already live or out of page
    /// capacity.
    pub fn place(&self, rid: RowId, row: &Row) -> bool {
        if rid.slot() >= self.slots_per_page {
            return false;
        }
        let tuple = encode(row);
        let _guard = self.append.lock();
        {
            let mut pages = self.pages.write();
            while pages.len() <= rid.page() as usize {
                pages.push(Arc::new(RwLock::new(Page::new(self.slots_per_page))));
            }
        }
        self.write(rid.page(), |p| p.place(rid.slot(), tuple))
            .expect("allocated above")
    }

    /// Clones the page list for lock-free iteration.
    fn snapshot(&self) -> Vec<Arc<RwLock<Page>>> {
        self.pages.read().clone()
    }

    fn page(&self, page_no: PageNo) -> Option<Arc<RwLock<Page>>> {
        self.pages.read().get(page_no as usize).cloned()
    }

    /// Visits every live row; `f` returning `false` stops the scan early.
    /// Each row is decoded into one `Row` the scan reuses, so `f` sees it
    /// only for the length of its call.
    ///
    /// The scan sees a consistent snapshot of the *page list*; rows inserted
    /// into already-visited pages during the scan are missed, rows inserted
    /// into unvisited pages are seen — same as a heap scan in a real engine.
    pub fn scan(&self, mut f: impl FnMut(RowId, &Row) -> bool) {
        let mut row = Row::default();
        for (page_no, page) in self.snapshot().into_iter().enumerate() {
            let guard = page.read();
            for (slot, tuple) in guard.iter_live() {
                decode_into(tuple, &mut row);
                if !f(RowId::new(page_no as PageNo, slot), &row) {
                    return;
                }
            }
        }
    }

    // ---- MVCC version chains (Snapshot engine mode) ----

    /// Inserts a row with `txn` marked as its pending writer, so snapshot
    /// readers do not see it until [`TableHeap::install_version`] runs.
    pub fn insert_versioned(&self, row: &Row, txn: u64) -> RowId {
        self.pending_writers.fetch_add(1, Ordering::SeqCst);
        self.append_with(row, |page, tuple| page.append_versioned(tuple, txn))
    }

    /// Marks `txn` as the pending writer of `rid` (call before the
    /// in-place update/delete; seeds the base version on first use).
    pub fn prepare_write(&self, rid: RowId, txn: u64) {
        if self.write(rid.page(), |p| p.prepare_write(rid.slot(), txn)) == Some(true) {
            self.pending_writers.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Publishes `txn`'s pending write on `rid` at commit timestamp `ts`.
    ///
    /// The ts high-water mark is raised *before* the pending gauge drops:
    /// a reader that observes `pending_writers == 0` is then guaranteed to
    /// also observe `max_version_ts >= ts`, so the snapshot-read fast-path
    /// gate can never miss a concurrent commit.
    pub fn install_version(&self, rid: RowId, txn: u64, ts: u64) {
        self.max_version_ts.fetch_max(ts, Ordering::SeqCst);
        if self.write(rid.page(), |p| p.install_version(rid.slot(), txn, ts)) == Some(true) {
            self.pending_writers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Clears `txn`'s pending-writer marker on `rid` after an abort.
    pub fn clear_pending(&self, rid: RowId, txn: u64) {
        if self.write(rid.page(), |p| p.clear_pending(rid.slot(), txn)) == Some(true) {
            self.pending_writers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// True when the latest slot state is exactly the state at snapshot
    /// `snap`: no committed version is newer and no write is in flight.
    /// Under this condition index-assisted reads are exact for snapshot
    /// readers. Callers must re-check *after* collecting results — a
    /// writer that raced the read either still holds its pending marker
    /// or has installed a version above `snap`, failing the re-check.
    pub fn current_matches_snapshot(&self, snap: u64) -> bool {
        self.pending_writers.load(Ordering::SeqCst) == 0
            && self.max_version_ts.load(Ordering::SeqCst) <= snap
    }

    /// Reads the row at `rid` visible to `txn` at snapshot `snap`.
    pub fn get_visible(&self, rid: RowId, txn: Option<u64>, snap: u64) -> Option<Row> {
        let page = self.page(rid.page())?;
        let guard = page.read();
        guard.visible(rid.slot(), txn, snap).map(decode)
    }

    /// Newest committed version timestamp at `rid` (0 when unversioned).
    pub fn newest_version_ts(&self, rid: RowId) -> u64 {
        match self.page(rid.page()) {
            Some(page) => page.read().newest_version_ts(rid.slot()),
            None => 0,
        }
    }

    /// Visits every row visible at snapshot `snap`, including rows whose
    /// slot is currently tombstoned or overwritten by an uncommitted
    /// writer but whose chain still holds a visible version. Rows are
    /// decoded into one reused `Row`, as in [`TableHeap::scan`].
    pub fn scan_visible(
        &self,
        txn: Option<u64>,
        snap: u64,
        mut f: impl FnMut(RowId, &Row) -> bool,
    ) {
        let mut row = Row::default();
        for (page_no, page) in self.snapshot().into_iter().enumerate() {
            let guard = page.read();
            for slot in 0..guard.used() {
                if let Some(tuple) = guard.visible(slot, txn, snap) {
                    decode_into(tuple, &mut row);
                    if !f(RowId::new(page_no as PageNo, slot), &row) {
                        return;
                    }
                }
            }
        }
    }

    /// Number of retained chain nodes across all pages (O(pages)).
    pub fn version_count(&self) -> usize {
        self.snapshot()
            .iter()
            .map(|p| p.read().version_count())
            .sum()
    }

    /// Prunes version chains no snapshot at or above `horizon` needs.
    /// Returns the number of freed chain nodes.
    pub fn gc_versions(&self, horizon: u64) -> usize {
        (0..self.num_pages() as PageNo)
            .filter_map(|page_no| self.write(page_no, |p| p.gc_versions(horizon)))
            .sum()
    }

    /// Collects `(RowId, Row)` for every live row (test/loader convenience).
    pub fn all_rows(&self) -> Vec<(RowId, Row)> {
        let mut out = Vec::new();
        self.scan(|rid, row| {
            out.push((rid, row.clone()));
            true
        });
        out
    }
}

impl std::fmt::Debug for TableHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHeap")
            .field("pages", &self.num_pages())
            .field("slots_per_page", &self.slots_per_page)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullfrog_common::{row, Value};
    use proptest::prelude::*;

    /// The bytes stored at `rid`.
    fn stored(h: &TableHeap, rid: RowId) -> Vec<u8> {
        h.page(rid.page())
            .unwrap()
            .read()
            .get(rid.slot())
            .unwrap()
            .to_vec()
    }

    /// What the heap holds, counted from scratch page by page.
    fn recount(h: &TableHeap) -> Held {
        let pages = h.snapshot();
        let mut held = Held::default();
        for page in pages {
            let page = page.read().recount();
            held.tuples += page.tuples;
            held.bytes += page.bytes;
        }
        held
    }

    /// `a` and `b` hold the same values, each of the same variant, and a
    /// float with the same bits: `Value`'s `==` treats `Int(5)` and
    /// `Decimal(5)` as equal, and NaN as equal to any NaN.
    fn assert_same(a: &Row, b: &Row) {
        assert_eq!(a.arity(), b.arity(), "{a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => {
                    assert_eq!(std::mem::discriminant(x), std::mem::discriminant(y));
                    assert_eq!(x, y);
                }
            }
        }
    }

    fn edge_i64() -> impl Strategy<Value = i64> {
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(0i64),
            Just(-1i64),
            any::<i64>()
        ]
    }

    fn edge_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            edge_i64().prop_map(Value::Int),
            prop_oneof![
                Just(f64::NAN),
                Just(-0.0f64),
                Just(f64::INFINITY),
                Just(f64::MIN_POSITIVE),
                any::<f64>()
            ]
            .prop_map(Value::Float),
            edge_i64().prop_map(Value::Decimal),
            "[a-zé€𝄞]{0,40}".prop_map(Value::Text),
            prop_oneof![Just(i32::MIN), Just(i32::MAX), Just(0i32), any::<i32>()]
                .prop_map(Value::Date),
            edge_i64().prop_map(Value::Timestamp),
        ]
    }

    fn edge_row() -> impl Strategy<Value = Row> {
        proptest::collection::vec(edge_value(), 0..10).prop_map(Row)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every row the heap stores comes back value for value and
        /// variant for variant, its stored bytes are the codec's
        /// encoding and re-encode identically, and a scan's reused row
        /// carries nothing from one row into the next, whatever their
        /// arities and text lengths.
        #[test]
        fn rows_round_trip_through_the_heap(rows in proptest::collection::vec(edge_row(), 1..12)) {
            let h = TableHeap::new(4);
            let rids: Vec<_> = rows.iter().map(|r| h.insert(r)).collect();
            for (rid, row) in rids.iter().zip(&rows) {
                let mut put = Vec::new();
                codec::put_values(&mut put, &row.0);
                let bytes = stored(&h, *rid);
                prop_assert_eq!(&bytes, &put);
                let got = h.get(*rid).unwrap();
                assert_same(&got, row);
                prop_assert_eq!(&*encode(&got), &bytes[..]);
            }
            let mut seen = Vec::new();
            h.scan(|rid, r| {
                seen.push((rid, r.clone()));
                true
            });
            prop_assert_eq!(seen.len(), rows.len());
            for ((rid, got), (want_rid, want)) in seen.iter().zip(rids.iter().zip(&rows)) {
                prop_assert_eq!(rid, want_rid);
                assert_same(got, want);
            }
            let mut visible = Vec::new();
            h.scan_visible(None, 0, |_, r| {
                visible.push(r.clone());
                true
            });
            for (got, want) in visible.iter().zip(&rows) {
                assert_same(got, want);
            }
            prop_assert_eq!(h.held(), recount(&h));
        }

        /// The heap's held counts equal a from-scratch recount after any
        /// mix of writes, MVCC installs, aborts and version GC.
        #[test]
        fn held_counts_match_a_recount(ops in proptest::collection::vec((0u8..8, 0usize..64, edge_row()), 1..60)) {
            let h = TableHeap::new(3);
            let mut rids = Vec::new();
            let mut deleted: Vec<(RowId, Row)> = Vec::new();
            for (n, (op, pick, row)) in ops.into_iter().enumerate() {
                let txn = n as u64 + 1;
                let rid = (!rids.is_empty()).then(|| rids[pick % rids.len()]);
                match (op, rid) {
                    (0, _) | (_, None) => rids.push(h.insert(&row)),
                    (1, _) => rids.push(h.insert_versioned(&row, txn)),
                    (2, Some(rid)) => {
                        h.update(rid, &row);
                    }
                    (3, Some(rid)) => {
                        if let Some(old) = h.delete(rid) {
                            deleted.push((rid, old));
                        }
                    }
                    (4, _) => {
                        if let Some((rid, old)) = deleted.pop() {
                            h.undelete(rid, &old);
                        }
                    }
                    (5, Some(rid)) => {
                        h.prepare_write(rid, txn);
                        h.update(rid, &row);
                        h.install_version(rid, txn, txn);
                    }
                    (6, Some(rid)) => {
                        h.prepare_write(rid, txn);
                        if let Some(old) = h.get(rid) {
                            assert!(h.update(rid, &row));
                            assert!(h.update(rid, &old));
                        }
                        h.clear_pending(rid, txn);
                    }
                    (_, Some(_)) => {
                        h.gc_versions(txn / 2);
                    }
                }
                prop_assert_eq!(h.held(), recount(&h));
            }
        }
    }

    #[test]
    fn held_counts_follow_insert_update_delete_abort_and_gc() {
        let len = |r: &Row| encode(r).len();
        let (a, b, c) = (row![1, "a"], row![2, "a longer text"], row![3, Value::Null]);
        let h = TableHeap::new(2);
        let held = |tuples, bytes| Held { tuples, bytes };
        assert_eq!(h.held(), held(0, 0));

        // Insert, then update, then delete.
        let ra = h.insert(&a);
        let rb = h.insert(&b);
        assert_eq!(h.held(), held(2, len(&a) + len(&b)));
        h.update(ra, &c);
        assert_eq!(h.held(), held(2, len(&c) + len(&b)));
        let old_b = h.delete(rb).unwrap();
        assert_eq!(h.held(), held(1, len(&c)));

        // Abort: the undo of the delete, the update and an insert.
        assert!(h.undelete(rb, &old_b));
        h.update(ra, &a);
        let rc = h.insert(&c);
        h.delete(rc);
        assert_eq!(h.held(), held(2, len(&a) + len(&b)));

        // A snapshot write seeds the base copy and installs a second one;
        // an aborted one leaves nothing behind.
        h.prepare_write(ra, 7);
        assert_eq!(h.held(), held(3, 2 * len(&a) + len(&b)));
        h.update(ra, &c);
        h.install_version(ra, 7, 10);
        assert_eq!(h.held(), held(4, len(&a) + 2 * len(&c) + len(&b)));
        let rd = h.insert_versioned(&b, 8);
        h.delete(rd);
        h.clear_pending(rd, 8);
        assert_eq!(h.held(), held(4, len(&a) + 2 * len(&c) + len(&b)));

        // Version GC past the horizon drops both chain copies.
        assert_eq!(h.gc_versions(10), 2);
        assert_eq!(h.held(), held(2, len(&c) + len(&b)));
        assert_eq!(h.held(), recount(&h));
    }

    #[test]
    fn insert_assigns_sequential_rids() {
        let h = TableHeap::new(2);
        assert_eq!(h.insert(&row![1]), RowId::new(0, 0));
        assert_eq!(h.insert(&row![2]), RowId::new(0, 1));
        assert_eq!(h.insert(&row![3]), RowId::new(1, 0));
        assert_eq!(h.num_pages(), 2);
        assert_eq!(h.ordinal_bound(), 4);
    }

    #[test]
    fn get_update_delete_round_trip() {
        let h = TableHeap::new(4);
        let rid = h.insert(&row![1, "a"]);
        assert_eq!(h.get(rid), Some(row![1, "a"]));
        assert!(h.update(rid, &row![2, "b"]));
        assert_eq!(h.get(rid), Some(row![2, "b"]));
        assert_eq!(h.delete(rid), Some(row![2, "b"]));
        assert_eq!(h.get(rid), None);
        assert!(!h.update(rid, &row![3, "c"]), "tombstoned slot");
        assert!(h.undelete(rid, &row![2, "b"]));
        assert_eq!(h.get(rid), Some(row![2, "b"]));
    }

    #[test]
    fn scan_sees_all_live_rows() {
        let h = TableHeap::new(3);
        let rids: Vec<_> = (0..10).map(|i| h.insert(&row![i])).collect();
        h.delete(rids[4]);
        let mut seen = Vec::new();
        h.scan(|rid, _| {
            seen.push(rid);
            true
        });
        assert_eq!(seen.len(), 9);
        assert!(!seen.contains(&rids[4]));
        assert_eq!(h.live_count(), 9);
    }

    #[test]
    fn scan_early_exit() {
        let h = TableHeap::new(4);
        for i in 0..10 {
            h.insert(&row![i]);
        }
        let mut n = 0;
        h.scan(|_, _| {
            n += 1;
            n < 3
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let h = TableHeap::new(2);
        assert_eq!(h.get(RowId::new(0, 0)), None);
        h.insert(&row![1]);
        assert_eq!(h.get(RowId::new(0, 1)), None);
        assert_eq!(h.get(RowId::new(5, 0)), None);
    }

    #[test]
    fn visible_scan_traverses_chains() {
        let h = TableHeap::new(2);
        let a = h.insert(&row![1]);
        let b = h.insert(&row![2]);
        // Txn 9 updates a and deletes b in place; commit at ts 10.
        h.prepare_write(a, 9);
        h.update(a, &row![10]);
        h.prepare_write(b, 9);
        h.delete(b);
        let pre: Vec<_> = {
            let mut v = Vec::new();
            h.scan_visible(None, 5, |_, r| {
                v.push(r.clone());
                true
            });
            v
        };
        assert_eq!(pre, vec![row![1], row![2]], "pending writes invisible");
        h.install_version(a, 9, 10);
        h.install_version(b, 9, 10);
        let mut old = Vec::new();
        h.scan_visible(None, 9, |_, r| {
            old.push(r.clone());
            true
        });
        assert_eq!(old, vec![row![1], row![2]], "old snapshot still intact");
        let mut new = Vec::new();
        h.scan_visible(None, 10, |_, r| {
            new.push(r.clone());
            true
        });
        assert_eq!(new, vec![row![10]], "delete visible at ts 10");
        assert_eq!(h.get_visible(b, None, 9), Some(row![2]));
        assert_eq!(h.get_visible(b, None, 10), None);
        assert!(h.version_count() > 0);
        assert_eq!(h.gc_versions(10), 4);
        assert_eq!(h.version_count(), 0, "chains collapse past the horizon");
        assert_eq!(h.get_visible(a, None, 10), Some(row![10]));
    }

    #[test]
    fn insert_versioned_hidden_until_install() {
        let h = TableHeap::new(2);
        let rid = h.insert_versioned(&row![7], 3);
        assert_eq!(h.get_visible(rid, None, 100), None);
        assert_eq!(h.get_visible(rid, Some(3), 0), Some(row![7]));
        assert_eq!(h.get(rid), Some(row![7]), "2PL read sees the slot");
        h.install_version(rid, 3, 4);
        assert_eq!(h.get_visible(rid, None, 4), Some(row![7]));
        assert_eq!(h.newest_version_ts(rid), 4);
    }

    #[test]
    fn concurrent_inserts_unique_rids() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let h = Arc::new(TableHeap::new(8));
        let mut handles = Vec::new();
        for t in 0..8 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                (0..500)
                    .map(|i| h.insert(&row![t * 1000 + i]))
                    .collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for handle in handles {
            for rid in handle.join().unwrap() {
                assert!(all.insert(rid), "duplicate rid {rid}");
            }
        }
        assert_eq!(all.len(), 4000);
        assert_eq!(h.live_count(), 4000);
    }
}
