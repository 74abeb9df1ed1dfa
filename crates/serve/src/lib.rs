//! `pp_serve`: a deterministic multi-tenant analysis server over cached
//! analysis sessions.
//!
//! The batch layer ([`pp_petri::batch`]) already runs analyses over
//! shared compiled nets, with every result bit-identical to a solo
//! query. This crate puts a wire on its query
//! executor ([`BatchQuery::run_on`](pp_petri::BatchQuery::run_on)): a
//! daemon ([`server::Server`]) speaking newline-delimited JSON frames over
//! TCP, where any number of clients submit jobs — catalog protocols from
//! [`pp_protocols::catalog`] or inline Petri-net literals — and get back
//! completion reasons, `final_limits` watermarks and result
//! [fingerprints](pp_petri::fingerprint) that a solo
//! [`Batch`](pp_petri::Batch) run at the same limits reproduces exactly.
//!
//! The moving parts, bottom-up:
//!
//! * [`json`] — a tiny total JSON codec (no dependencies, never panics on
//!   arbitrary bytes, canonical key-sorted output);
//! * [`proto`] — the frame grammar: requests in, typed error codes and
//!   wire names out;
//! * [`pool`] — the cross-connection token pool (one token = one stored
//!   configuration), bounding server memory and fair-sharing it;
//! * [`cache`] — the keyed session store that keeps compiled nets and
//!   resumable truncated results hot across requests and tenants;
//! * [`server`] — the daemon: accept loop, per-connection reader/executor
//!   pair, graceful drain, disconnect refunds;
//! * [`client`] — a small blocking client the CLI, tests, benches and
//!   examples all share.
//!
//! The wire protocol is documented in the README ("The analysis server");
//! the design rationale lives in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod json;
pub mod pool;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, JobAnswer};
pub use json::Json;
pub use server::{Server, ServerConfig, ServerHandle};
