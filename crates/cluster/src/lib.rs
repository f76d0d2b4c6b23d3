//! bullfrog-cluster: shared-nothing distributed lazy migration.
//!
//! BullFrog's contribution is a schema flip that is O(statements)
//! followed by lazy, exactly-once physical migration. This crate scales
//! that across a shared-nothing cluster: every table is hash-partitioned
//! by primary key over N nodes (the [`ShardMap`]), each node runs the
//! ordinary single-node engine over its own partition, and a schema
//! change is *one* logical flip cluster-wide — two-phase (prepare on
//! every node, then commit), after which each node migrates its local
//! granules lazily with the existing 2PL/SI trackers.
//!
//! - [`ClusterClient`] — routing client: single-key DML goes to the
//!   owning node (re-fetching the map on `WRONG_SHARD`, backing off on
//!   `FLIP_PENDING`), scans scatter-gather across all nodes.
//! - [`Coordinator`] — admin-side driver: installs shard maps, runs the
//!   two-phase flip, and for n:1 migrations (GROUP BY whose group keys
//!   hash to other nodes than their input rows) performs the *exchange*:
//!   after every node's local lazy migration drains, partial aggregates
//!   are shipped to each group key's owning node and folded in, then the
//!   hold on the output tables is released.
//! - [`LocalCluster`] — an in-process loopback cluster for the
//!   integration tests (`tests/cluster.rs`).
//! - `clusterd` — the multi-process binary (`node` / `init` / `migrate`
//!   / `status` / `shutdown` subcommands).
//!
//! See `DESIGN.md` (§ bullfrog-cluster) for the protocol and its
//! failure/retry semantics.

pub mod client;
pub mod coordinator;
pub mod local;

pub use bullfrog_net::{ClusterMember, ClusterReq, ExchangeSpec, FlipPlan, ShardMap};
pub use client::ClusterClient;
pub use coordinator::Coordinator;
pub use local::{LocalCluster, LocalNode};
