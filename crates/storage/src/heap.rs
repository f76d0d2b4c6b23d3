//! Table heaps: append-only collections of slotted pages.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bullfrog_common::{PageNo, Row, RowId, SlotNo};
use parking_lot::{Mutex, RwLock};

use crate::page::Page;

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

    /// Inserts a row, returning its stable id.
    pub fn insert(&self, row: Row) -> RowId {
        self.append_with(row, Page::append)
    }

    /// Puts `row` on the last page with `put`, allocating a page when the
    /// last one is full.
    fn append_with(&self, row: Row, put: impl Fn(&mut Page, Row) -> Option<SlotNo>) -> RowId {
        let _guard = self.append.lock();
        // Fast path: last page has room.
        {
            let pages = self.pages.read();
            if let Some(last) = pages.last() {
                let page_no = (pages.len() - 1) as PageNo;
                let mut page = last.write();
                // `put` fails only on a full page: test first, so the row
                // moves in without a speculative clone.
                if !page.is_full() {
                    let slot = put(&mut page, row).expect("a page with room accepts the row");
                    return RowId::new(page_no, slot);
                }
            }
        }
        // Slow path: allocate a page. Safe because we hold `append`.
        let mut pages = self.pages.write();
        let mut page = Page::new(self.slots_per_page);
        let slot = put(&mut page, row).expect("fresh page accepts at least one row");
        pages.push(Arc::new(RwLock::new(page)));
        RowId::new((pages.len() - 1) as PageNo, slot)
    }

    /// Reads the live row at `rid`.
    pub fn get(&self, rid: RowId) -> Option<Row> {
        let page = self.page(rid.page())?;
        let guard = page.read();
        guard.get(rid.slot()).cloned()
    }

    /// Replaces the live row at `rid`, returning the previous row.
    pub fn update(&self, rid: RowId, row: Row) -> Option<Row> {
        let page = self.page(rid.page())?;
        let mut guard = page.write();
        guard.update(rid.slot(), row)
    }

    /// Tombstones the row at `rid`, returning it.
    pub fn delete(&self, rid: RowId) -> Option<Row> {
        let page = self.page(rid.page())?;
        let mut guard = page.write();
        guard.delete(rid.slot())
    }

    /// Restores a tombstoned slot (rollback of a delete).
    pub fn undelete(&self, rid: RowId, row: Row) -> bool {
        match self.page(rid.page()) {
            Some(page) => page.write().undelete(rid.slot(), row),
            None => false,
        }
    }

    /// Places a row at an exact id (WAL replay): allocates intermediate
    /// pages as needed. Fails when the slot is already live or out of page
    /// capacity.
    pub fn place(&self, rid: RowId, row: Row) -> bool {
        if rid.slot() >= self.slots_per_page {
            return false;
        }
        let _guard = self.append.lock();
        {
            let mut pages = self.pages.write();
            while pages.len() <= rid.page() as usize {
                pages.push(Arc::new(RwLock::new(Page::new(self.slots_per_page))));
            }
        }
        let page = self.page(rid.page()).expect("allocated above");
        let mut guard = page.write();
        guard.place(rid.slot(), row)
    }

    /// Clones the page list for lock-free iteration.
    fn snapshot(&self) -> Vec<Arc<RwLock<Page>>> {
        self.pages.read().clone()
    }

    fn page(&self, page_no: PageNo) -> Option<Arc<RwLock<Page>>> {
        self.pages.read().get(page_no as usize).cloned()
    }

    /// Visits every live row; `f` returning `false` stops the scan early.
    ///
    /// The scan sees a consistent snapshot of the *page list*; rows inserted
    /// into already-visited pages during the scan are missed, rows inserted
    /// into unvisited pages are seen — same as a heap scan in a real engine.
    pub fn scan(&self, mut f: impl FnMut(RowId, &Row) -> bool) {
        for (page_no, page) in self.snapshot().into_iter().enumerate() {
            let guard = page.read();
            for (slot, row) in guard.iter_live() {
                if !f(RowId::new(page_no as PageNo, slot), row) {
                    return;
                }
            }
        }
    }

    // ---- MVCC version chains (Snapshot engine mode) ----

    /// Inserts a row with `txn` marked as its pending writer, so snapshot
    /// readers do not see it until [`TableHeap::install_version`] runs.
    pub fn insert_versioned(&self, row: Row, txn: u64) -> RowId {
        self.pending_writers.fetch_add(1, Ordering::SeqCst);
        self.append_with(row, |page, row| page.append_versioned(row, txn))
    }

    /// Marks `txn` as the pending writer of `rid` (call before the
    /// in-place update/delete; seeds the base version on first use).
    pub fn prepare_write(&self, rid: RowId, txn: u64) {
        if let Some(page) = self.page(rid.page()) {
            if page.write().prepare_write(rid.slot(), txn) {
                self.pending_writers.fetch_add(1, Ordering::SeqCst);
            }
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
        if let Some(page) = self.page(rid.page()) {
            if page.write().install_version(rid.slot(), txn, ts) {
                self.pending_writers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Clears `txn`'s pending-writer marker on `rid` after an abort.
    pub fn clear_pending(&self, rid: RowId, txn: u64) {
        if let Some(page) = self.page(rid.page()) {
            if page.write().clear_pending(rid.slot(), txn) {
                self.pending_writers.fetch_sub(1, Ordering::SeqCst);
            }
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
        guard.visible(rid.slot(), txn, snap).cloned()
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
    /// writer but whose chain still holds a visible version.
    pub fn scan_visible(
        &self,
        txn: Option<u64>,
        snap: u64,
        mut f: impl FnMut(RowId, &Row) -> bool,
    ) {
        for (page_no, page) in self.snapshot().into_iter().enumerate() {
            let guard = page.read();
            for slot in 0..guard.used() {
                if let Some(row) = guard.visible(slot, txn, snap) {
                    if !f(RowId::new(page_no as PageNo, slot), row) {
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
        self.snapshot()
            .iter()
            .map(|p| p.write().gc_versions(horizon))
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
    use bullfrog_common::row;

    #[test]
    fn insert_assigns_sequential_rids() {
        let h = TableHeap::new(2);
        assert_eq!(h.insert(row![1]), RowId::new(0, 0));
        assert_eq!(h.insert(row![2]), RowId::new(0, 1));
        assert_eq!(h.insert(row![3]), RowId::new(1, 0));
        assert_eq!(h.num_pages(), 2);
        assert_eq!(h.ordinal_bound(), 4);
    }

    #[test]
    fn get_update_delete_round_trip() {
        let h = TableHeap::new(4);
        let rid = h.insert(row![1, "a"]);
        assert_eq!(h.get(rid), Some(row![1, "a"]));
        assert_eq!(h.update(rid, row![2, "b"]), Some(row![1, "a"]));
        assert_eq!(h.get(rid), Some(row![2, "b"]));
        assert_eq!(h.delete(rid), Some(row![2, "b"]));
        assert_eq!(h.get(rid), None);
        assert_eq!(h.update(rid, row![3, "c"]), None);
        assert!(h.undelete(rid, row![2, "b"]));
        assert_eq!(h.get(rid), Some(row![2, "b"]));
    }

    #[test]
    fn scan_sees_all_live_rows() {
        let h = TableHeap::new(3);
        let rids: Vec<_> = (0..10).map(|i| h.insert(row![i])).collect();
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
            h.insert(row![i]);
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
        h.insert(row![1]);
        assert_eq!(h.get(RowId::new(0, 1)), None);
        assert_eq!(h.get(RowId::new(5, 0)), None);
    }

    #[test]
    fn visible_scan_traverses_chains() {
        let h = TableHeap::new(2);
        let a = h.insert(row![1]);
        let b = h.insert(row![2]);
        // Txn 9 updates a and deletes b in place; commit at ts 10.
        h.prepare_write(a, 9);
        h.update(a, row![10]);
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
        let rid = h.insert_versioned(row![7], 3);
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
                    .map(|i| h.insert(row![t * 1000 + i]))
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
