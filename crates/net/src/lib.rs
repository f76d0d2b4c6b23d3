//! bullfrog-net: the TCP surface of BullFrog.
//!
//! The paper's claim — schema migrations that never block concurrent
//! clients — only means something when the clients are real: separate
//! connections racing each other and the migration over a socket, not
//! function calls sharing a test harness. This crate provides that
//! surface:
//!
//! - [`wire`] — the BFNET1 framed binary protocol (length-prefixed
//!   frames, statement text and admin opcodes in, row batches / errors /
//!   stats out), reusing the WAL's row codec;
//! - [`Server`] — a multi-threaded TCP server; each connection owns a
//!   [`Session`] whose statements run through the
//!   [`Bullfrog`](bullfrog_core::Bullfrog) controller, so every remote
//!   read and write gets the lazy-migration interposition, including
//!   migration DDL submitted over the wire;
//! - [`Client`] — a blocking client with connection reuse, used by the
//!   `repld` binary and the integration tests.
//!
//! See `DESIGN.md` (§ bullfrog-net) for the frame format, the session
//! state machine, and shutdown semantics.

pub mod client;
pub mod server;
pub mod session;
pub mod wire;

pub use client::{primary_hint, stat, Client, ClientError, ClientResult, HaStateReply, QueryReply};
pub use server::{DdlEvent, HaHooks, ReadOnly, ReplicationHooks, Server, ServerConfig};
pub use session::{build_migration_plan, Session, SessionCounters};
pub use wire::{err_code, HaReq, Request, Response, WireDdl, MAX_FRAME_BYTES, PREAMBLE};
