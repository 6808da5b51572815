//! The digest-addressed database registry: which committed databases a
//! proving service currently hosts.
//!
//! A real deployment hosts many databases (one per tenant / snapshot), each
//! addressed by its commitment digest — the same 64-byte value published to
//! the immutable commitment registry of §3.3, so a client can name exactly
//! the database state it wants proofs against. Attach/detach are dynamic,
//! and a hosted database may *advance*: an append batch produces a
//! successor entry under a new digest ([`DatabaseRegistry::advance`]),
//! with the lineage's history kept in a per-digest
//! [`DeltaLog`](poneglyph_core::DeltaLog).

use poneglyph_core::{DeltaLog, ProverSession};
use poneglyph_sql::{Catalog, Database};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// One hosted database: the prover session (private data), the public
/// shape, the SQL catalog, and per-database counters.
pub(crate) struct DbEntry {
    /// The commitment digest addressing this database.
    pub digest: [u8; 64],
    /// The prover session (owns the private data).
    pub session: ProverSession,
    /// The public shape (schemas + row counts, zeroed values).
    pub shape: Database,
    /// Catalog for server-side SQL planning.
    pub catalog: Catalog,
    /// Proofs generated for this database.
    pub proofs_generated: AtomicU64,
    /// Queries served from the proof cache.
    pub cache_hits: AtomicU64,
    /// Queries that waited for an identical in-flight proof.
    pub inflight_dedups: AtomicU64,
}

/// A digest-addressed set of hosted databases.
///
/// Keys are commitment digests (BTreeMap: deterministic iteration order
/// for `REQ_INFO` listings). Each hosted digest carries the [`DeltaLog`]
/// of its lineage; the log's length is the database's *mutation epoch* (0
/// for a freshly attached state).
#[derive(Default)]
pub struct DatabaseRegistry {
    entries: BTreeMap<[u8; 64], Arc<DbEntry>>,
    logs: BTreeMap<[u8; 64], DeltaLog>,
}

impl DatabaseRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of hosted databases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no database is attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Digests of every hosted database, in digest order.
    pub fn digests(&self) -> Vec<[u8; 64]> {
        self.entries.keys().copied().collect()
    }

    /// The mutation epoch of a hosted digest: how many append batches its
    /// lineage has absorbed (0 for a fresh attach, `None` if not hosted).
    pub fn epoch_of(&self, digest: &[u8; 64]) -> Option<u64> {
        self.entries
            .contains_key(digest)
            .then(|| self.logs.get(digest).map(DeltaLog::epoch).unwrap_or(0))
    }

    /// The delta log of a hosted digest's lineage.
    pub fn log(&self, digest: &[u8; 64]) -> Option<&DeltaLog> {
        self.logs.get(digest)
    }

    pub(crate) fn insert(&mut self, entry: Arc<DbEntry>) -> [u8; 64] {
        let digest = entry.digest;
        // Last attach wins: re-attaching the same committed state swaps in
        // the fresh entry (new catalog/PK metadata), never silently keeps
        // the old one. An existing lineage log for this digest survives.
        self.entries.insert(digest, entry);
        self.logs.entry(digest).or_default();
        digest
    }

    /// Swap `old_digest`'s entry for its mutated successor, carrying the
    /// lineage's delta log (already extended with the applied batch) to
    /// the new digest.
    pub(crate) fn advance(&mut self, old_digest: &[u8; 64], entry: Arc<DbEntry>, log: DeltaLog) {
        let new_digest = entry.digest;
        self.entries.remove(old_digest);
        self.logs.remove(old_digest);
        self.entries.insert(new_digest, entry);
        self.logs.insert(new_digest, log);
    }

    /// Remove the lineage log for `digest`, to extend during a mutation;
    /// pair with [`advance`](Self::advance) (which re-inserts it under
    /// the successor digest).
    pub(crate) fn take_log(&mut self, digest: &[u8; 64]) -> DeltaLog {
        self.logs.remove(digest).unwrap_or_default()
    }

    pub(crate) fn remove(&mut self, digest: &[u8; 64]) -> Option<Arc<DbEntry>> {
        let removed = self.entries.remove(digest)?;
        self.logs.remove(digest);
        Some(removed)
    }

    pub(crate) fn get(&self, digest: &[u8; 64]) -> Option<Arc<DbEntry>> {
        self.entries.get(digest).cloned()
    }

    pub(crate) fn entries(&self) -> impl Iterator<Item = &Arc<DbEntry>> {
        self.entries.values()
    }
}

/// Render a digest prefix as hex (error messages, logs).
pub fn digest_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}
