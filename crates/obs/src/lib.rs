//! Bottom-of-stack observability for the PoneglyphDB workspace.
//!
//! Proving latencies span four orders of magnitude (a cache hit is tens of
//! microseconds, a cold proof is seconds), exactly the regime where
//! averages lie. This crate provides the telemetry substrate every other
//! layer records into, with **no external dependencies** (the build
//! environment is offline) and no locks on the hot path:
//!
//! * [`MetricsRegistry`] — counters, gauges, and fixed-bucket log-scale
//!   histograms. Registration takes a short mutex; updates go through
//!   cloneable handles backed by `SeqCst` atomics. [`MetricsRegistry::render`]
//!   emits the Prometheus text exposition format, so the snapshot is
//!   scrapeable by stock fleet tooling.
//! * A span API — [`span`]/[`record_span`] record named durations into the
//!   registry *and* attribute them to the active request
//!   ([`begin_request`]), whose completed trace lands in a bounded
//!   in-memory [`EventRing`] (the slow-query log).
//! * [`logging`] — leveled, timestamped stderr logging behind a
//!   `PONEGLYPH_LOG` environment filter ([`log_error!`], [`log_warn!`],
//!   [`log_info!`], [`log_debug!`]).
//! * [`http::MetricsHttpServer`] — a minimal, panic-free HTTP/1.0
//!   responder answering `GET /metrics`, for pull-model scrapers.
//!
//! Instrumentation is process-globally switchable: [`set_enabled`]`(false)`
//! turns every recording call into the [`global`] registry into a cheap
//! no-op, which is how the proof-determinism test isolates the
//! instrumentation's effect. Proof bytes are identical either way —
//! recording only ever observes wall-clock time, it never touches
//! transcripts or randomness.

#![warn(missing_docs)]

pub mod http;
pub mod logging;
mod registry;
mod span;

pub use logging::Level;
pub use registry::{
    log2_buckets, nanos_buckets, size_buckets, Counter, Gauge, Histogram, MetricsRegistry,
};
pub use span::{
    begin_request, mark_cache_hit, record_span, ring, span, span_histogram, EventRing,
    RequestGuard, RequestRecord, SpanGuard, RING_CAPACITY,
};

use std::sync::OnceLock;

/// The process-wide registry every layer of the stack records into.
///
/// Created on first use; the serving layer renders it for `REQ_METRICS`
/// frames and the `GET /metrics` endpoint.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Whether the [`global`] registry is currently recording (default:
/// `true`).
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Turn the [`global`] registry's recording on or off process-wide.
///
/// While disabled, counter/gauge/histogram updates, span recording and
/// request tracing are no-ops (already-recorded values remain visible in
/// [`MetricsRegistry::render`]). The determinism test compares runs with
/// it on and off; a proving service's own counters always record.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}
