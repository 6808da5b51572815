//! # poneglyph-service
//!
//! The serving layer that turns the session-oriented
//! [`ProverSession`](poneglyph_core::ProverSession) /
//! [`VerifierSession`](poneglyph_core::VerifierSession) API into the
//! paper's deployment model (Figure 2): a long-lived prover hosting a
//! *registry* of committed private databases and answering a stream of
//! client queries — planned or raw SQL — with non-interactive
//! zero-knowledge proofs.
//!
//! Three layers, separable and individually testable:
//!
//! * [`ProvingService`] — the engine: a digest-addressed
//!   [`DatabaseRegistry`] (attach/detach at runtime, plus
//!   [`append_rows`](ProvingService::append_rows): homomorphic
//!   incremental commitment updates with epoch-snapshot retention for
//!   in-flight queries), a bounded job queue feeding a pool of prover
//!   threads, an entry- and byte-bounded LRU proof cache keyed by
//!   `(database digest, plan fingerprint)` with per-database accounting,
//!   and in-flight deduplication so identical concurrent queries cost one
//!   proof.
//! * [`protocol`] — the versioned frame protocol (v5: digest-addressed
//!   queries, SQL-over-the-wire, row appends with epoch advertisement,
//!   metrics snapshots) and payload codecs shared by server and client.
//! * [`ServiceServer`] / [`ServiceClient`] — a `std::net` TCP front end
//!   and its matching blocking client (no external dependencies); the
//!   client verifies through cached per-database verifier sessions.
//!
//! The `poneglyph-serve` binary wraps all three into a runnable daemon.
//!
//! ```no_run
//! use poneglyph_service::{ProvingService, ServiceConfig, ServiceServer, ServiceClient};
//! use poneglyph_pcs::IpaParams;
//! use poneglyph_sql::Database;
//! use std::sync::Arc;
//!
//! let params = IpaParams::setup(11);
//! let service = Arc::new(ProvingService::empty(params.clone(), ServiceConfig::default()));
//! let digest = service.attach(Database::new()); // the prover's private tables
//! let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
//!
//! let mut client = ServiceClient::connect(server.local_addr()).unwrap();
//! let (result, plan, cache_hit) = client
//!     .query_verified_sql(&params, &digest, "SELECT id FROM t WHERE val >= 20")
//!     .unwrap();
//! ```

#![warn(missing_docs)]

mod client;
pub mod protocol;
mod registry;
mod server;
mod service;

pub use client::{ClientError, ServiceClient, WireResponse, DEFAULT_SESSION_CAPACITY};
pub use poneglyph_core::Parallelism;
pub use protocol::{AppendAck, DatabaseInfo, ServerInfo, MAX_APPEND_CELLS, PROTOCOL_VERSION};
pub use registry::{digest_hex, DatabaseRegistry};
pub use server::{server_info, ServiceServer};
pub use service::{
    CacheKey, DatabaseSnapshot, DatabaseStats, JobHandle, MutationStats, ProvingService, Served,
    ServiceConfig, ServiceError, ServiceStats,
};
