//! BullFrog — online schema evolution via lazy evaluation.
//!
//! This facade crate re-exports the whole workspace under one roof so that
//! examples and downstream users can depend on a single `bullfrog` crate.
//!
//! - [`common`] — values, rows, schemas, constraints, errors.
//! - [`storage`] — slotted-page heaps, B-tree indexes, catalog.
//! - [`txn`] — strict-2PL lock manager, transactions, WAL.
//! - [`query`] — expressions, select specs, view expansion.
//! - [`engine`] — the OLTP engine (DML/DDL/scans/joins/aggregation).
//! - [`core`] — the paper's contribution: lazy, exactly-once schema
//!   migration with bitmap/hashmap trackers, background migration, and the
//!   eager / multi-step baselines.
//! - [`sql`] — a SQL front-end: predicates, SELECT specs, CREATE TABLE,
//!   and `CREATE TABLE ... AS SELECT` migration DDL.
//! - [`net`] — the BFNET1 TCP server/client: lazy migrations under real
//!   multi-client traffic.
//! - [`repl`] — physical replication by WAL shipping: primary-side
//!   sender, read-only replicas, and snapshot bootstrap.
//! - [`ha`] — fenced failover, quorum leases, synchronous replication,
//!   and the `repld` binary.
//! - [`tpcc`] — the TPC-C workload extended with schema migrations.
//!
//! See the `examples/` directory for end-to-end usage, starting with
//! `quickstart.rs`.

pub use bullfrog_common as common;
pub use bullfrog_core as core;
pub use bullfrog_engine as engine;
pub use bullfrog_ha as ha;
pub use bullfrog_net as net;
pub use bullfrog_query as query;
pub use bullfrog_repl as repl;
pub use bullfrog_sql as sql;
pub use bullfrog_storage as storage;
pub use bullfrog_tpcc as tpcc;
pub use bullfrog_txn as txn;

pub use bullfrog_common::{Error, Result, Row, Value};
