//! bullfrog-ha: fenced failover, quorum leases, and synchronous
//! replication on top of the `bullfrog-repl` primary/replica pair.
//!
//! The paper's migrations stay online through schema change; this crate
//! keeps them online through *node loss*. Three mechanisms compose:
//!
//! - **Fencing epochs** (`bullfrog-txn`'s
//!   [`EpochStore`](bullfrog_txn::EpochStore), wired through every
//!   BFNET1 `SUBSCRIBE`/`REPL_ACK`/`FRAMES` message): a monotonic
//!   counter naming which incarnation of the primary may acknowledge
//!   writes and ship frames. Promotion bumps it — persisted to the WAL
//!   sidecar *and* as a durable log record — and any peer exchange
//!   surfaces a stale epoch, fencing the zombie for good.
//! - **Synchronous replication** (`SET SYNC_REPLICAS n`, the
//!   [`SyncGate`](bullfrog_txn::SyncGate)): commit acknowledgements wait
//!   for `n` replica acks on top of the WAL's durable horizon, with a
//!   `BLOCK`-or-`DEGRADE` policy; degrading is permitted only while the
//!   node verifiably holds the leadership lease.
//! - **Quorum leases** (this crate): a static member group — primary,
//!   replica, witness — where the leader renews a time-bounded lease at
//!   TTL/3 and a follower stands for election only after the lease it
//!   granted has lapsed. Vote grants burn the epoch in each granter's
//!   persistent ballot, so two candidates can never win the same epoch.
//!
//! Pieces:
//!
//! - [`HaMember`] — the per-node state machine, plugged into the TCP
//!   server as its [`HaHooks`](bullfrog_net::HaHooks): handles
//!   `RENEW`/`VOTE`/`PROMOTE`/`STATE`, gates writes by leadership, and
//!   reports `ha.*` gauges;
//! - [`HaNode`] — the loop thread: lease renewal while leading,
//!   lapse-detection and election (promoting the local
//!   [`Replica`](bullfrog_repl::Replica)) while following;
//! - [`FailoverClient`] — client-side re-routing off `READ_ONLY`
//!   bounces (whose messages name the primary) and HA state probes.
//!
//! The `repld` binary wires all of it into a deployable three-process
//! group (`primary` / `replica` / `witness`), and the test
//! `tests/repld.rs::sigkill_primary_mid_migration_loses_no_acked_commit`
//! drives the end-state proof: kill the primary mid-migration under
//! seeded traffic, watch the replica promote, the respawned sweepers
//! finish the migration, and every acked commit survive.
//!
//! See `DESIGN.md` (§ bullfrog-ha) for the protocol and the safety
//! argument.

pub mod failover;
pub mod loops;
pub mod member;

pub use failover::FailoverClient;
pub use loops::HaNode;
pub use member::{HaConfig, HaMember, Role};
