//! In-memory storage engine: slotted-page heaps, B-tree indexes, catalog.
//!
//! Layout mirrors the parts of PostgreSQL that BullFrog's migration
//! machinery depends on:
//!
//! - rows live in **pages** of a fixed slot count and are addressed by a
//!   stable [`RowId`](bullfrog_common::RowId) (page, slot) — the analogue of
//!   a heap TID, which the bitmap migration tracker maps to bit offsets;
//! - a slot holds its row **as bytes**, in
//!   [`bullfrog_common::codec`]'s encoding (the bytes the log writes for
//!   it), the way PostgreSQL keeps byte-packed heap tuples; the heap
//!   encodes on write and decodes on read, so its API is rows in, rows out;
//! - deletes **tombstone** slots instead of reusing them, so a `RowId`
//!   observed by a migration tracker can never silently come to address a
//!   different tuple;
//! - **B-tree indexes** (unique and non-unique) support the point and range
//!   lookups that predicate-driven lazy migration relies on.
//!
//! Physical concurrency is page-level read/write latching (`parking_lot`);
//! *logical* concurrency control (two-phase locking) lives in
//! `bullfrog-txn` and is composed by `bullfrog-engine`.

pub mod catalog;
pub mod heap;
pub mod index;
pub mod page;
pub mod table;

pub use catalog::Catalog;
pub use heap::TableHeap;
pub use index::{BTreeIndex, IndexDef};
pub use page::{Held, Page, Slot, VersionMeta, VersionNode, DEFAULT_SLOTS_PER_PAGE};
pub use table::Table;
