//! # PoneglyphDB
//!
//! A from-scratch Rust reproduction of **PoneglyphDB: Efficient
//! Non-interactive Zero-Knowledge Proofs for Arbitrary SQL-Query
//! Verification** (SIGMOD 2025).
//!
//! A *prover* hosting a private database answers SQL queries with
//! non-interactive zero-knowledge proofs: the *verifier* learns the result
//! (and anything implied by it) and nothing else, while being convinced the
//! result is the correct evaluation of the query over a previously
//! committed database.
//!
//! The facade re-exports the full stack:
//!
//! * [`obs`] — bottom-of-stack observability (metrics registry, span
//!   tracing, slow-query ring, leveled logging, `/metrics` HTTP responder)
//! * [`arith`] — Pasta prime fields (254-bit, FFT-friendly)
//! * [`par`] — scoped-thread parallelism primitives and the per-proof
//!   thread budget ([`Parallelism`](par::Parallelism))
//! * [`curve`] — Pallas group + Pippenger MSM
//! * [`hash`] — BLAKE2b + Fiat–Shamir transcript
//! * [`poly`] — polynomials, FFTs, evaluation domains
//! * [`pcs`] — IPA polynomial commitments (no trusted setup)
//! * [`plonkish`] — the PLONKish proving system (gates, lookups, shuffles,
//!   copy constraints)
//! * [`core`] — the paper's SQL gates, query compiler and prover/verifier
//!   API
//! * [`sql`] — SQL parser, planner and witness-generating executor
//! * [`tpch`] — the evaluation workload (scaled dbgen + Q1/Q3/Q5/Q8/Q9/Q18)
//! * [`baselines`] — ZKSQL-style interactive proving and Libra-style GKR
//! * [`service`] — the long-lived proving service (job queue, proof cache,
//!   TCP wire protocol)
//! * [`analyze`] — static circuit-soundness analysis and the workspace
//!   source linter (the `analyze` and `srclint` binaries)

pub use poneglyph_analyze as analyze;
pub use poneglyph_arith as arith;
pub use poneglyph_baselines as baselines;
pub use poneglyph_core as core;
pub use poneglyph_curve as curve;
pub use poneglyph_hash as hash;
pub use poneglyph_obs as obs;
pub use poneglyph_par as par;
pub use poneglyph_pcs as pcs;
pub use poneglyph_plonkish as plonkish;
pub use poneglyph_poly as poly;
pub use poneglyph_service as service;
pub use poneglyph_sql as sql;
pub use poneglyph_tpch as tpch;

/// The most common imports for applications.
pub mod prelude {
    pub use poneglyph_core::{
        apply_append, check_query, database_shape, AppliedDelta, CommitmentRegistry,
        DatabaseCommitment, DeltaLog, MutationError, Parallelism, ProverSession, QueryResponse,
        RowBatch, SessionStats, VerifierSession,
    };
    pub use poneglyph_pcs::IpaParams;
    pub use poneglyph_service::{ProvingService, ServiceClient, ServiceConfig, ServiceServer};
    pub use poneglyph_sql::{
        catalog_of, execute, parse, plan_fingerprint, plan_query, Catalog, Database, Plan, Table,
    };
}
