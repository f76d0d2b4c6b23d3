//! bullfrog-repl: physical replication by WAL shipping.
//!
//! The paper's migrations are only "online" if the whole database is:
//! this crate adds the availability half — read-only replicas that stay
//! live through schema changes, and a primary that can restart without
//! losing them. The pieces:
//!
//! - [`ReplicationSender`] — primary-side hooks
//!   ([`ReplicationHooks`](bullfrog_net::ReplicationHooks)) plugged into
//!   the TCP server: streams committed log frames below the merged
//!   durable horizon, serves bootstrap snapshots (checkpoint image +
//!   DDL journal), and journals every DDL statement with its WAL apply
//!   point. Subscriptions pin the log with retain horizons
//!   ([`Wal::register_retain`](bullfrog_txn::Wal)) so checkpoint
//!   truncation never cuts a tail a connected replica still needs.
//! - [`DdlJournal`] — the catalog side-channel. DDL is not WAL-logged;
//!   the journal records each statement with `apply_at_lsn`, the log
//!   position at which a mirror must replay it, which keeps replica
//!   [`TableId`](bullfrog_common::TableId)s and lazy-migration tracker
//!   shapes identical to the primary's.
//! - [`Replica`] — connects, bootstraps from a snapshot when its resume
//!   point has been truncated away, applies the frame stream
//!   transaction-at-a-time under an apply gate, mirrors mid-flight
//!   migration tracker state from shipped granule records, serves
//!   read-only `SELECT`s meanwhile, and reconnects with bounded
//!   exponential backoff.
//! - [`restore()`] — primary restart from WAL + sidecar + journal,
//!   rebuilding catalog, heaps, and in-flight migration trackers so
//!   replicas can reattach (resuming, or re-bootstrapping if the log
//!   base moved past their applied LSN).
//!
//! See `DESIGN.md` (§ bullfrog-repl) for the protocol and the
//! durability reasoning.

pub mod apply;
pub mod journal;
pub mod replica;
pub mod restore;
pub mod sender;

pub use journal::{DdlJournal, JournalEntry};
pub use replica::{Replica, ReplicaStats};
pub use restore::{restore, RestoreReport};
pub use sender::ReplicationSender;
