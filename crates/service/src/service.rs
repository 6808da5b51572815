//! The proving service: a long-lived prover answering a stream of queries
//! against any number of committed databases.
//!
//! This is the paper's Figure 2 deployment model as a running system: the
//! service hosts a digest-addressed [`DatabaseRegistry`] of committed
//! private [`Database`]s (each wrapped in a
//! [`ProverSession`](poneglyph_core::ProverSession)), accepts planned
//! queries — or raw SQL text, planned server-side — through a *bounded*
//! job queue, proves them on a pool of worker threads, and serves repeated
//! queries from an LRU proof cache keyed by `(database digest, plan
//! fingerprint)`. Identical queries in flight at the same time are
//! deduplicated: the second waits for the first proof instead of proving
//! again. The proof cache is the only prover-side cache; a session keys
//! every proof it generates.

use crate::registry::{digest_hex, DatabaseRegistry, DbEntry};
use poneglyph_core::{
    AppliedDelta, DeltaLog, LruCache, Parallelism, ProverSession, QueryResponse, RowBatch,
};
use poneglyph_obs as obs;
use poneglyph_pcs::IpaParams;
use poneglyph_sql::{
    canonical_plan, canonical_plan_fingerprint, catalog_of, parse, plan_query, Database, Plan,
    Schema,
};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The proof-cache key: which database state, which (canonical) query.
pub type CacheKey = ([u8; 64], [u8; 32]);

/// Tunables for a [`ProvingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of prover worker threads.
    pub workers: usize,
    /// Per-proof thread budget: how many threads one worker may fan out
    /// across *inside* a single proof (FFTs, MSMs, quotient chunks, IPA
    /// folding). `0` = auto-detect (the `PONEGLYPH_PROVER_THREADS`
    /// environment variable, else hardware parallelism). Operators trade
    /// this against `workers`: many workers × few threads maximizes
    /// throughput under load, few workers × many threads minimizes cold
    /// latency. Proof bytes are identical either way.
    pub prover_threads: usize,
    /// Maximum number of cached [`QueryResponse`]s (shared across all
    /// hosted databases).
    pub cache_capacity: usize,
    /// Approximate byte budget of the proof cache (each entry is charged
    /// [`QueryResponse::approx_bytes`]); least-recently-used responses are
    /// evicted once the total exceeds it. `0` disables the byte bound —
    /// only `cache_capacity` applies.
    pub cache_bytes: usize,
    /// Seed for the workers' proof-blinding randomness.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|v| v.get().min(4))
                .unwrap_or(2),
            prover_threads: 0,
            cache_capacity: 64,
            cache_bytes: 64 << 20,
            seed: 0x706f_6e65,
        }
    }
}

/// Errors surfaced to a service caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The query could not be proven (planning, execution or prover error).
    Prove(String),
    /// The service shut down before answering.
    Shutdown,
    /// No database with the requested digest is attached (hex digest).
    UnknownDatabase(String),
    /// SQL text failed to parse or plan.
    Sql(String),
    /// A mutation batch was rejected (unknown table, width mismatch,
    /// out-of-range value); the hosted state is unchanged.
    Mutation(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Prove(e) => write!(f, "proving failed: {e}"),
            ServiceError::Shutdown => write!(f, "service shut down"),
            ServiceError::UnknownDatabase(d) => write!(f, "no database with digest {d}"),
            ServiceError::Sql(e) => write!(f, "SQL error: {e}"),
            ServiceError::Mutation(e) => write!(f, "mutation rejected: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A successfully served query.
#[derive(Clone, Debug)]
pub struct Served {
    /// The proof-carrying response (shared with the cache). The proof is
    /// of the *canonical* form of the submitted plan — verify it with a
    /// [`VerifierSession`](poneglyph_core::VerifierSession) over the
    /// database's shape.
    pub response: Arc<QueryResponse>,
    /// True when the response came from the proof cache without proving.
    pub cache_hit: bool,
}

/// Per-database monotonic counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatabaseStats {
    /// The database's commitment digest.
    pub digest: [u8; 64],
    /// The lineage's mutation epoch (number of append batches absorbed;
    /// 0 for a freshly attached state).
    pub epoch: u64,
    /// Proofs generated for this database.
    pub proofs_generated: u64,
    /// Queries answered from the proof cache.
    pub cache_hits: u64,
    /// Queries that waited for an identical in-flight proof instead of
    /// proving again.
    pub inflight_dedups: u64,
    /// Responses currently held in the proof cache for this database.
    pub cached_proofs: u64,
}

/// The outcome of one applied append batch — returned by
/// [`ProvingService::append_rows`] and surfaced in the wire protocol's
/// append acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationStats {
    /// The digest the batch was applied against.
    pub old_digest: [u8; 64],
    /// The successor digest now serving the lineage (equal to
    /// `old_digest` for an empty batch, which is a no-op).
    pub new_digest: [u8; 64],
    /// The lineage's mutation epoch after the append.
    pub epoch: u64,
    /// Rows appended by this batch.
    pub appended_rows: usize,
    /// Wall-clock cost of the homomorphic commitment update (the O(delta)
    /// MSM + digest recompute — the cost a full re-commit would multiply).
    pub commit_update: Duration,
    /// Cached proofs invalidated — exactly the old digest's entries.
    pub entries_invalidated: usize,
}

/// One hosted database's advertisement data (a consistent row of
/// [`ProvingService::info_snapshot`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatabaseSnapshot {
    /// Public table metadata `(name, schema, row count)`, in name order.
    pub tables: Vec<(String, Schema, u64)>,
    /// The database's counters.
    pub stats: DatabaseStats,
}

/// Monotonic service counters (global plus per-database).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Proofs actually generated (cache misses that reached the prover).
    pub proofs_generated: u64,
    /// Queries answered straight from the cache.
    pub cache_hits: u64,
    /// Queries that missed the cache.
    pub cache_misses: u64,
    /// Append batches applied across all hosted databases.
    pub mutations: u64,
    /// Rows appended across all hosted databases.
    pub rows_appended: u64,
    /// Approximate bytes currently held by the proof cache.
    pub cache_bytes: u64,
    /// The *effective* per-proof thread budget (the resolved value of
    /// [`ServiceConfig::prover_threads`]; auto-detection already applied).
    pub prover_threads: usize,
    /// Per-database breakdown, in digest order.
    pub databases: Vec<DatabaseStats>,
}

struct Job {
    entry: Arc<DbEntry>,
    plan: Plan,
    /// Enqueue time, for the queue-wait histogram (observed at dequeue).
    submitted: Instant,
    reply: SyncSender<Result<Served, ServiceError>>,
}

impl Job {
    /// A job proving `plan` on `entry`, and the handle its answer arrives
    /// on.
    fn new(entry: Arc<DbEntry>, plan: Plan) -> (Self, JobHandle) {
        let (reply, rx) = sync_channel(1);
        let job = Self {
            entry,
            plan,
            submitted: Instant::now(),
            reply,
        };
        (job, JobHandle { rx })
    }
}

/// The service's own metrics registry and its handles, resolved once at
/// construction so the hot path never takes the registration mutex. The
/// counters are the one store [`ProvingService::stats`] reads; gauges are
/// set at scrape time by `refresh_metrics`.
struct Metrics {
    registry: obs::MetricsRegistry,
    queue_wait: obs::Histogram,
    proofs_generated: obs::Counter,
    cache_hits: obs::Counter,
    cache_misses: obs::Counter,
    inflight_dedups: obs::Counter,
    mutations: obs::Counter,
    rows_appended: obs::Counter,
    cache_bytes: obs::Gauge,
    cache_entries: obs::Gauge,
    cache_evictions: obs::Gauge,
    prover_threads: obs::Gauge,
}

impl Metrics {
    fn new() -> Self {
        let reg = obs::MetricsRegistry::new();
        Self {
            queue_wait: reg.histogram(
                "poneglyph_queue_wait_nanos",
                &[],
                obs::nanos_buckets(),
                "Time a job spent in the bounded queue before a worker dequeued it",
            ),
            proofs_generated: reg.counter(
                "poneglyph_proofs_generated_total",
                &[],
                "Proofs actually generated (cache misses that reached the prover)",
            ),
            cache_hits: reg.counter(
                "poneglyph_proof_cache_hits_total",
                &[],
                "Queries answered straight from the proof cache",
            ),
            cache_misses: reg.counter(
                "poneglyph_proof_cache_misses_total",
                &[],
                "Queries that missed the proof cache",
            ),
            inflight_dedups: reg.counter(
                "poneglyph_inflight_dedups_total",
                &[],
                "Queries that waited for an identical in-flight proof instead of proving again",
            ),
            mutations: reg.counter(
                "poneglyph_mutations_total",
                &[],
                "Append batches applied across all hosted databases",
            ),
            rows_appended: reg.counter(
                "poneglyph_rows_appended_total",
                &[],
                "Rows appended across all hosted databases",
            ),
            cache_bytes: reg.gauge(
                "poneglyph_proof_cache_bytes",
                &[],
                "Approximate bytes currently held by the proof cache",
            ),
            cache_entries: reg.gauge(
                "poneglyph_proof_cache_entries",
                &[],
                "Responses currently held by the proof cache",
            ),
            cache_evictions: reg.gauge(
                "poneglyph_proof_cache_evictions",
                &[],
                "Responses evicted by the proof cache's capacity or byte bounds so far",
            ),
            prover_threads: reg.gauge(
                "poneglyph_prover_threads",
                &[],
                "Effective per-proof thread budget",
            ),
            registry: reg,
        }
    }
}

struct Shared {
    params: IpaParams,
    /// Per-proof thread budget handed to every hosted [`ProverSession`].
    parallelism: Parallelism,
    registry: RwLock<DatabaseRegistry>,
    cache: Mutex<LruCache<CacheKey, Arc<QueryResponse>>>,
    /// Keys currently being proven, for in-flight deduplication.
    inflight: Mutex<HashSet<CacheKey>>,
    inflight_done: Condvar,
    metrics: Metrics,
}

/// A handle to one submitted query; resolve it with [`JobHandle::wait`].
pub struct JobHandle {
    rx: Receiver<Result<Served, ServiceError>>,
}

impl JobHandle {
    /// Block until the service answers (or shuts down).
    pub fn wait(self) -> Result<Served, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }
}

/// A multi-threaded proving service over a registry of committed
/// databases.
///
/// Dropping the service closes the queue and joins every worker.
pub struct ProvingService {
    shared: Arc<Shared>,
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ProvingService {
    /// Start a service with no databases attached.
    pub fn empty(params: IpaParams, config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            params,
            parallelism: Parallelism::new(config.prover_threads),
            registry: RwLock::new(DatabaseRegistry::new()),
            cache: Mutex::new(LruCache::with_byte_budget(
                config.cache_capacity,
                config.cache_bytes,
            )),
            inflight: Mutex::new(HashSet::new()),
            inflight_done: Condvar::new(),
            metrics: Metrics::new(),
        });
        const QUEUE_DEPTH: usize = 64;
        let (tx, rx) = sync_channel::<Job>(QUEUE_DEPTH);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                let rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64));
                std::thread::Builder::new()
                    .name(format!("poneglyph-prover-{i}"))
                    .spawn(move || worker_loop(shared, rx, rng))
                    .expect("spawn prover worker")
            })
            .collect();
        Self {
            shared,
            tx: Some(tx),
            workers,
        }
    }

    /// Commit to `db` and host it; returns the digest that now addresses
    /// it. Re-attaching an already-hosted digest *replaces* its entry — the
    /// SQL catalog and primary-key metadata take effect and that database's
    /// counters restart; cached proofs stay valid because the committed
    /// state is identical.
    pub fn attach(&self, db: Database) -> [u8; 64] {
        self.attach_with_pks(db, &[])
    }

    /// [`attach`](Self::attach) with primary-key metadata for server-side
    /// SQL planning (joins are oriented PK-side right).
    pub fn attach_with_pks(&self, db: Database, pks: &[(&str, &str)]) -> [u8; 64] {
        let catalog = catalog_of(&db, pks);
        let session = ProverSession::new(self.shared.params.clone(), db)
            .with_parallelism(self.shared.parallelism);
        let digest = session.digest();
        let shape = session.shape();
        let entry = Arc::new(DbEntry {
            digest,
            session,
            shape,
            catalog,
            proofs_generated: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            inflight_dedups: AtomicU64::new(0),
        });
        self.shared
            .registry
            .write()
            .expect("registry lock")
            .insert(entry)
    }

    /// Append a batch of rows to the database addressed by `digest` — the
    /// mutable-state path. The column commitments are advanced
    /// *homomorphically* (one MSM over only the new rows' cells, cost
    /// O(batch) instead of a full re-commit), a successor entry is swapped
    /// in under the new digest atomically (registry write lock), and
    /// exactly the old digest's cached proofs are purged.
    ///
    /// Epoch-style snapshot retention: jobs already submitted against the
    /// old digest hold an `Arc` of its entry and complete — and verify —
    /// against that retained snapshot; the entry is freed when its last
    /// in-flight job finishes. New queries naming the old digest are
    /// rejected (`UnknownDatabase`), exactly as a detach would.
    ///
    /// The heavy work (database clone, MSM) runs without the registry
    /// lock; only the final swap takes the write lock, and it lands only
    /// if the lineage has not moved meanwhile (a concurrent append or
    /// detach of the same digest is a clean `Mutation` error — re-resolve
    /// and retry).
    ///
    /// An empty batch is a no-op: same digest, nothing invalidated, no
    /// epoch advance. A rejected batch (unknown table, width mismatch,
    /// out-of-range value) changes nothing.
    pub fn append_rows(
        &self,
        digest: &[u8; 64],
        table: &str,
        rows: Vec<Vec<i64>>,
    ) -> Result<MutationStats, ServiceError> {
        let batch = RowBatch::new(table, rows);
        // Resolve and validate under the *read* lock; the expensive part
        // of the mutation (database clone + homomorphic MSM) runs with no
        // registry lock held, so query submission never stalls behind it.
        let entry = self.resolve(digest)?;
        batch
            .validate(entry.session.database())
            .map_err(|e| ServiceError::Mutation(e.to_string()))?;
        if batch.rows.is_empty() {
            let epoch = self.epoch_of(digest).unwrap_or(0);
            return Ok(MutationStats {
                old_digest: *digest,
                new_digest: *digest,
                epoch,
                appended_rows: 0,
                commit_update: Duration::ZERO,
                entries_invalidated: 0,
            });
        }

        // Build the successor state: cloned values plus a homomorphically
        // advanced commitment.
        let mut db = entry.session.database().clone();
        let mut commitment = entry.session.commitment().clone();
        batch
            .apply(&mut db)
            .map_err(|e| ServiceError::Mutation(e.to_string()))?;
        let started = Instant::now();
        let delta_commitments = commitment
            .append_rows(&self.shared.params, &batch.table, &batch.rows)
            .map_err(|e| ServiceError::Mutation(e.to_string()))?;
        let new_digest = commitment.digest();
        let commit_update = started.elapsed();

        // Seeding the session with the updated commitment is what makes
        // the append O(batch); debug builds re-assert it equals a fresh
        // commit of the mutated database.
        let session = ProverSession::with_commitment(self.shared.params.clone(), db, commitment)
            .with_parallelism(self.shared.parallelism);
        let shape = session.shape();
        let successor = Arc::new(DbEntry {
            digest: new_digest,
            session,
            shape,
            catalog: entry.catalog.clone(),
            proofs_generated: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            inflight_dedups: AtomicU64::new(0),
        });

        // Swap under a short write lock. The lineage may have moved while
        // we worked (concurrent append, detach, re-attach): the swap only
        // lands if the digest still names the entry we started from —
        // otherwise the commitment we advanced is stale and the caller
        // must re-resolve and retry.
        let epoch = {
            let mut registry = self.shared.registry.write().expect("registry lock");
            match registry.get(digest) {
                Some(current) if Arc::ptr_eq(&current, &entry) => {
                    let mut log = registry.take_log(digest);
                    log.record(AppliedDelta {
                        seq: log.epoch(),
                        table: batch.table.clone(),
                        rows: batch.rows.len(),
                        delta_commitments,
                        pre_digest: *digest,
                        post_digest: new_digest,
                    });
                    let epoch = log.epoch();
                    registry.advance(digest, successor, log);
                    epoch
                }
                _ => {
                    return Err(ServiceError::Mutation(format!(
                        "database {} was mutated or detached concurrently; \
                         re-resolve and retry",
                        digest_hex(&digest[..16])
                    )))
                }
            }
        };

        // Purge precisely the old digest's cache entries; every other
        // database's proofs survive. (In-flight old-digest jobs cannot
        // re-populate: `serve_one` re-checks the registry before caching.)
        let mut entries_invalidated = 0usize;
        self.shared
            .cache
            .lock()
            .expect("cache lock")
            .retain(|key, _| {
                let stale = key.0 == *digest;
                entries_invalidated += usize::from(stale);
                !stale
            });
        self.shared.metrics.mutations.inc();
        self.shared
            .metrics
            .rows_appended
            .add(batch.rows.len() as u64);

        Ok(MutationStats {
            old_digest: *digest,
            new_digest,
            epoch,
            appended_rows: batch.rows.len(),
            commit_update,
            entries_invalidated,
        })
    }

    /// The mutation epoch of a hosted digest (0 = freshly attached).
    pub fn epoch_of(&self, digest: &[u8; 64]) -> Option<u64> {
        self.shared
            .registry
            .read()
            .expect("registry lock")
            .epoch_of(digest)
    }

    /// The append history of a hosted digest's lineage: every applied
    /// batch with its mini-commitment and digest transition.
    pub fn delta_log(&self, digest: &[u8; 64]) -> Option<DeltaLog> {
        self.shared
            .registry
            .read()
            .expect("registry lock")
            .log(digest)
            .cloned()
    }

    /// Stop hosting a database; its cached proofs are purged. Returns
    /// `false` if no such digest was attached.
    pub fn detach(&self, digest: &[u8; 64]) -> bool {
        let removed = self
            .shared
            .registry
            .write()
            .expect("registry lock")
            .remove(digest)
            .is_some();
        if removed {
            self.shared
                .cache
                .lock()
                .expect("cache lock")
                .retain(|key, _| key.0 != *digest);
        }
        removed
    }

    /// Digests of every hosted database, in digest order.
    pub fn digests(&self) -> Vec<[u8; 64]> {
        self.shared
            .registry
            .read()
            .expect("registry lock")
            .digests()
    }

    /// The shape of the database addressed by `digest`.
    pub fn shape_of(&self, digest: &[u8; 64]) -> Option<Database> {
        self.shared
            .registry
            .read()
            .expect("registry lock")
            .get(digest)
            .map(|e| e.shape.clone())
    }

    /// The service's public parameters.
    pub fn params(&self) -> &IpaParams {
        &self.shared.params
    }

    fn resolve(&self, digest: &[u8; 64]) -> Result<Arc<DbEntry>, ServiceError> {
        self.shared
            .registry
            .read()
            .expect("registry lock")
            .get(digest)
            .ok_or_else(|| ServiceError::UnknownDatabase(digest_hex(&digest[..16])))
    }

    /// Hand a job to the workers, blocking while the queue is full.
    fn enqueue(&self, entry: Arc<DbEntry>, plan: Plan) -> JobHandle {
        let (job, handle) = Job::new(entry, plan);
        if let Some(tx) = &self.tx {
            // A send error means every worker is gone; the handle will
            // resolve to `Shutdown` because the reply sender was dropped.
            let _ = tx.send(job);
        }
        handle
    }

    /// Enqueue a query against the database addressed by `digest`,
    /// blocking while the queue is full.
    pub fn submit_on(&self, digest: &[u8; 64], plan: Plan) -> Result<JobHandle, ServiceError> {
        Ok(self.enqueue(self.resolve(digest)?, plan))
    }

    /// Submit and wait against the database addressed by `digest`.
    pub fn query_on(&self, digest: &[u8; 64], plan: Plan) -> Result<Served, ServiceError> {
        self.submit_on(digest, plan)?.wait()
    }

    /// Plan SQL text server-side, then submit and wait. Returns the
    /// canonical plan alongside the response so the caller can verify
    /// exactly what was proven.
    pub fn query_sql(&self, digest: &[u8; 64], sql: &str) -> Result<(Plan, Served), ServiceError> {
        let entry = self.resolve(digest)?;
        let plan = plan_on_entry(&entry, sql)?;
        let served = self.enqueue(entry, plan.clone()).wait()?;
        Ok((plan, served))
    }

    /// A snapshot of the service counters, including the per-database
    /// breakdown.
    pub fn stats(&self) -> ServiceStats {
        let registry = self.shared.registry.read().expect("registry lock");
        let databases = self.collect_database_stats(&registry);
        drop(registry);
        let cache_bytes = self.shared.cache.lock().expect("cache lock").total_bytes() as u64;
        let m = &self.shared.metrics;
        ServiceStats {
            proofs_generated: m.proofs_generated.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            mutations: m.mutations.get(),
            rows_appended: m.rows_appended.get(),
            cache_bytes,
            prover_threads: self.shared.parallelism.threads(),
            databases,
        }
    }

    /// The effective per-proof thread budget every hosted session proves
    /// with (the resolved [`ServiceConfig::prover_threads`]).
    pub fn prover_parallelism(&self) -> Parallelism {
        self.shared.parallelism
    }

    /// Render the process-wide registry (FFT, MSM, keygen, span and
    /// request series), then this service's own, in the Prometheus text
    /// exposition format, with the scrape-time gauges (cache occupancy,
    /// per-database mutation epochs, thread budget) refreshed first. Backs
    /// both the `REQ_METRICS` wire frame and the `GET /metrics` HTTP
    /// endpoint.
    pub fn metrics_text(&self) -> String {
        self.refresh_metrics();
        obs::global().render() + &self.shared.metrics.registry.render()
    }

    /// Set every gauge whose truth lives in service state rather than in
    /// an event stream. Per-database epoch gauges are rebuilt from scratch
    /// each scrape — mutation swaps retire digests, and a retired digest's
    /// series must disappear rather than freeze at its last value.
    fn refresh_metrics(&self) {
        let m = &self.shared.metrics;
        {
            let cache = self.shared.cache.lock().expect("cache lock");
            m.cache_bytes.set(cache.total_bytes() as i64);
            m.cache_entries.set(cache.len() as i64);
            m.cache_evictions.set(cache.evictions() as i64);
        }
        m.prover_threads
            .set(self.shared.parallelism.threads() as i64);

        let reg = &m.registry;
        reg.clear_series("poneglyph_db_epoch");
        let registry = self.shared.registry.read().expect("registry lock");
        for entry in registry.entries() {
            let epoch = registry.epoch_of(&entry.digest).unwrap_or(0);
            let db = digest_hex(&entry.digest[..16]);
            reg.gauge(
                "poneglyph_db_epoch",
                &[("db", &db)],
                "Mutation epoch of each hosted database (append batches absorbed)",
            )
            .set(epoch as i64);
        }
    }

    /// A *consistent* snapshot for the info advertisement: every hosted
    /// database's table metadata + counters, read under one registry lock.
    pub fn info_snapshot(&self) -> Vec<DatabaseSnapshot> {
        let registry = self.shared.registry.read().expect("registry lock");
        let stats = self.collect_database_stats(&registry);
        registry
            .entries()
            .zip(stats)
            .map(|(entry, stats)| {
                let mut tables: Vec<_> = entry
                    .shape
                    .tables
                    .iter()
                    .map(|(name, t)| (name.clone(), t.schema.clone(), t.len() as u64))
                    .collect();
                tables.sort_by(|a, b| a.0.cmp(&b.0));
                DatabaseSnapshot { tables, stats }
            })
            .collect()
    }

    /// Per-database counters for every registered entry, with cached-proof
    /// counts from a *single* pass over the cache keys. The caller holds
    /// the registry read lock (entries and counts stay consistent).
    fn collect_database_stats(&self, registry: &DatabaseRegistry) -> Vec<DatabaseStats> {
        let mut cached: HashMap<[u8; 64], u64> = HashMap::new();
        {
            let cache = self.shared.cache.lock().expect("cache lock");
            for key in cache.keys() {
                *cached.entry(key.0).or_insert(0) += 1;
            }
        }
        registry
            .entries()
            .map(|entry| DatabaseStats {
                digest: entry.digest,
                epoch: registry.epoch_of(&entry.digest).unwrap_or(0),
                proofs_generated: entry.proofs_generated.load(Ordering::SeqCst),
                cache_hits: entry.cache_hits.load(Ordering::SeqCst),
                inflight_dedups: entry.inflight_dedups.load(Ordering::SeqCst),
                cached_proofs: cached.get(&entry.digest).copied().unwrap_or(0),
            })
            .collect()
    }
}

/// Parse + plan SQL against one hosted database.
///
/// The string dictionary is cloned per request: literals not present in
/// the database intern to fresh ids that match no stored value (an empty
/// predicate match), without mutating the committed database state.
fn plan_on_entry(entry: &DbEntry, sql: &str) -> Result<Plan, ServiceError> {
    let stmt = parse(sql).map_err(ServiceError::Sql)?;
    let mut dict = entry.session.database().dict.clone();
    let plan = plan_query(&stmt, &entry.catalog, &mut dict).map_err(ServiceError::Sql)?;
    Ok(canonical_plan(&plan))
}

impl Drop for ProvingService {
    fn drop(&mut self) {
        // Closing the queue ends every worker's recv loop.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<Receiver<Job>>>, mut rng: StdRng) {
    loop {
        // Hold the receiver lock only for the dequeue, not the proving.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => break,
        };
        let Ok(job) = job else { break };
        shared
            .metrics
            .queue_wait
            .observe(job.submitted.elapsed().as_nanos() as u64);
        let served = serve_one(&shared, &job.entry, &job.plan, &mut rng);
        // The client may have given up; a dead reply channel is fine.
        let _ = job.reply.send(served);
    }
}

/// Answer one query: cache → in-flight dedup → prove.
///
/// The canonical plan is the query's identity: the proof is generated for
/// (and must be verified against) `canonical_plan(plan)`, so that every
/// plan sharing a fingerprint shares one cache entry *and* one circuit.
fn serve_one(
    shared: &Shared,
    entry: &DbEntry,
    plan: &Plan,
    rng: &mut StdRng,
) -> Result<Served, ServiceError> {
    let plan = canonical_plan(plan);
    let fingerprint = canonical_plan_fingerprint(&plan);
    let key: CacheKey = (entry.digest, fingerprint);
    // The request trace covers everything on this worker thread from here
    // on: the prover's stage spans attribute to it, and the completed
    // record (with cache-hit flag) lands in the slow-query ring.
    let _request = obs::begin_request(format!(
        "{}:{}",
        digest_hex(&entry.digest[..8]),
        digest_hex(&fingerprint[..8])
    ));

    // Claim the key, or wait for whoever holds it and take their result
    // from the cache. Lock order is inflight → cache throughout.
    {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        let mut waited = false;
        loop {
            if let Some(hit) = shared.cache.lock().expect("cache lock").get(&key) {
                entry.cache_hits.fetch_add(1, Ordering::SeqCst);
                shared.metrics.cache_hits.inc();
                obs::mark_cache_hit();
                return Ok(Served {
                    response: hit,
                    cache_hit: true,
                });
            }
            if inflight.insert(key) {
                break; // claimed: this worker proves
            }
            if !waited {
                waited = true;
                entry.inflight_dedups.fetch_add(1, Ordering::SeqCst);
                shared.metrics.inflight_dedups.inc();
            }
            inflight = shared.inflight_done.wait(inflight).expect("inflight wait");
        }
    }

    entry.proofs_generated.fetch_add(1, Ordering::SeqCst);
    shared.metrics.cache_misses.inc();
    shared.metrics.proofs_generated.inc();
    // One canonicalization per request: the session reuses the plan
    // computed above for the cache key.
    let outcome = entry
        .session
        .prove_canonical(&plan, rng)
        .map(Arc::new)
        .map_err(|e| ServiceError::Prove(e.to_string()));

    if let Ok(response) = &outcome {
        // Insert only while the database is still attached, holding the
        // registry read lock across the insert: if a concurrent `detach`
        // already removed the entry we skip (its purge may have run);
        // if it removes the entry after our check, its purge is ordered
        // after our insert and erases it. Either way a detached digest
        // leaves nothing in the cache.
        let registry = shared.registry.read().expect("registry lock");
        if registry.get(&entry.digest).is_some() {
            // Weighted by approximate wire size: the cache's byte budget
            // bounds memory, not just entry count.
            shared.cache.lock().expect("cache lock").insert_weighted(
                key,
                Arc::clone(response),
                response.approx_bytes(),
            );
        }
        drop(registry);
    }

    // Release the claim whether proving succeeded or failed, so waiters
    // either hit the cache or retry the proof themselves.
    let mut inflight = shared.inflight.lock().expect("inflight lock");
    inflight.remove(&key);
    shared.inflight_done.notify_all();
    drop(inflight);

    outcome.map(|response| Served {
        response,
        cache_hit: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_core::VerifierSession;
    use poneglyph_sql::{CmpOp, ColumnType, Predicate, Schema, Table};

    fn tiny_db() -> Database {
        let mut db = Database::new();
        let mut t = Table::empty(Schema::new(&[
            ("id", ColumnType::Int),
            ("val", ColumnType::Int),
        ]));
        for (id, val) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            t.push_row(&[id, val]);
        }
        db.add_table("t", t);
        db
    }

    fn other_db() -> Database {
        let mut db = Database::new();
        let mut t = Table::empty(Schema::new(&[
            ("id", ColumnType::Int),
            ("val", ColumnType::Int),
        ]));
        for (id, val) in [(1, 5), (2, 25), (3, 35)] {
            t.push_row(&[id, val]);
        }
        db.add_table("t", t);
        db
    }

    /// A service hosting one database, and the digest that addresses it.
    fn host(db: Database, config: ServiceConfig) -> (ProvingService, [u8; 64]) {
        let service = ProvingService::empty(IpaParams::setup(11), config);
        let digest = service.attach(db);
        (service, digest)
    }

    fn filter_plan(bound: i64) -> Plan {
        Plan::Filter {
            input: Box::new(Plan::Scan { table: "t".into() }),
            predicates: vec![Predicate::ColConst {
                col: 1,
                op: CmpOp::Ge,
                value: bound,
            }],
        }
    }

    #[test]
    fn serves_and_caches() {
        let (service, digest) = host(
            tiny_db(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let first = service.query_on(&digest, filter_plan(20)).expect("first");
        assert!(!first.cache_hit);
        let second = service.query_on(&digest, filter_plan(20)).expect("second");
        assert!(second.cache_hit);
        assert_eq!(first.response, second.response);

        let stats = service.stats();
        assert_eq!(stats.proofs_generated, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.databases.len(), 1);
        assert_eq!(stats.databases[0].proofs_generated, 1);
        assert_eq!(stats.databases[0].cache_hits, 1);
        assert_eq!(stats.databases[0].cached_proofs, 1);

        // The cached response still verifies from public information.
        let verifier = VerifierSession::new(
            service.params().clone(),
            service.shape_of(&digest).expect("shape"),
        );
        let verified = verifier
            .verify(&filter_plan(20), &second.response)
            .expect("verify");
        assert_eq!(verified, second.response.result);
    }

    /// The value of an unlabelled series in a Prometheus text scrape.
    fn scraped(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from the scrape"))
    }

    #[test]
    fn each_service_scrapes_its_own_counters() {
        let (a, da) = host(tiny_db(), ServiceConfig::default());
        let (b, db) = host(other_db(), ServiceConfig::default());
        a.query_on(&da, filter_plan(20)).expect("a proves");
        assert!(a.query_on(&da, filter_plan(20)).expect("a hits").cache_hit);
        b.query_on(&db, filter_plan(20)).expect("b proves");

        for service in [&a, &b] {
            let text = service.metrics_text();
            let stats = service.stats();
            for (name, value) in [
                ("poneglyph_proofs_generated_total", stats.proofs_generated),
                ("poneglyph_proof_cache_hits_total", stats.cache_hits),
                ("poneglyph_proof_cache_misses_total", stats.cache_misses),
            ] {
                assert_eq!(scraped(&text, name), value, "{name}");
            }
        }
        assert_eq!(a.stats().proofs_generated, 1);
        assert_eq!(b.stats().cache_hits, 0);
    }

    #[test]
    fn semantically_equal_plans_share_a_cache_entry() {
        let (service, digest) = host(tiny_db(), ServiceConfig::default());
        let a = Plan::Filter {
            input: Box::new(Plan::Scan { table: "t".into() }),
            predicates: vec![
                Predicate::ColConst {
                    col: 1,
                    op: CmpOp::Ge,
                    value: 20,
                },
                Predicate::ColConst {
                    col: 0,
                    op: CmpOp::Le,
                    value: 3,
                },
            ],
        };
        let b = Plan::Filter {
            input: Box::new(Plan::Scan { table: "t".into() }),
            predicates: vec![
                Predicate::ColConst {
                    col: 0,
                    op: CmpOp::Le,
                    value: 3,
                },
                Predicate::ColConst {
                    col: 1,
                    op: CmpOp::Ge,
                    value: 20,
                },
            ],
        };
        assert!(!service.query_on(&digest, a.clone()).expect("a").cache_hit);
        let shared = service.query_on(&digest, b.clone()).expect("b");
        assert!(shared.cache_hit);
        assert_eq!(service.stats().proofs_generated, 1);

        // The shared proof is of the canonical plan; a verifier session
        // canonicalizes internally, so *both* spellings verify.
        let verifier = VerifierSession::new(
            service.params().clone(),
            service.shape_of(&digest).expect("shape"),
        );
        for plan in [a, b] {
            let verified = verifier
                .verify(&plan, &shared.response)
                .expect("shared proof verifies");
            assert_eq!(verified, shared.response.result);
        }
    }

    #[test]
    fn prover_threads_flow_from_config_to_sessions() {
        let (service, digest) = host(
            tiny_db(),
            ServiceConfig {
                prover_threads: 3,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(service.prover_parallelism().threads(), 3);
        assert_eq!(service.stats().prover_threads, 3);
        // Sessions created by attach — and by the mutation path's
        // successor swap — inherit the budget.
        let stats = service
            .append_rows(&digest, "t", vec![vec![5, 50]])
            .expect("append");
        let served = service
            .query_on(&stats.new_digest, filter_plan(20))
            .expect("proves under explicit budget");
        assert_eq!(served.response.result.len(), 4);
        // `0` resolves to a concrete budget rather than staying zero.
        let (auto, _) = host(tiny_db(), ServiceConfig::default());
        assert!(auto.stats().prover_threads >= 1);
    }

    #[test]
    fn bad_query_reports_error_not_panic() {
        let (service, digest) = host(tiny_db(), ServiceConfig::default());
        let missing = Plan::Scan {
            table: "nope".into(),
        };
        match service.query_on(&digest, missing) {
            Err(ServiceError::Prove(_)) => {}
            other => panic!("expected prove error, got {other:?}"),
        }
        // The failure is not cached; the service keeps running.
        assert_eq!(service.stats().proofs_generated, 1);
        assert!(service.query_on(&digest, filter_plan(20)).is_ok());
    }

    #[test]
    fn multi_database_attach_detach() {
        let service = ProvingService::empty(IpaParams::setup(11), ServiceConfig::default());
        let d1 = service.attach(tiny_db());
        let d2 = service.attach(other_db());
        assert_ne!(d1, d2);
        assert_eq!(service.digests().len(), 2);

        // Same plan, different databases: different proofs, both correct.
        let r1 = service.query_on(&d1, filter_plan(20)).expect("db1");
        let r2 = service.query_on(&d2, filter_plan(20)).expect("db2");
        assert_ne!(r1.response.result, r2.response.result);
        let v1 = VerifierSession::new(
            service.params().clone(),
            service.shape_of(&d1).expect("shape 1"),
        );
        let v2 = VerifierSession::new(
            service.params().clone(),
            service.shape_of(&d2).expect("shape 2"),
        );
        assert!(v1.verify(&filter_plan(20), &r1.response).is_ok());
        assert!(v2.verify(&filter_plan(20), &r2.response).is_ok());
        // Swapped shapes reject (different table sizes → different circuit).
        assert!(v2.verify(&filter_plan(20), &r1.response).is_err());

        let stats = service.stats();
        assert_eq!(stats.databases.len(), 2);
        assert!(stats.databases.iter().all(|d| d.proofs_generated == 1));

        // Detaching purges the cache and unroutes the digest.
        assert!(service.detach(&d1));
        assert!(!service.detach(&d1));
        assert!(matches!(
            service.query_on(&d1, filter_plan(20)),
            Err(ServiceError::UnknownDatabase(_))
        ));
        let stats = service.stats();
        assert_eq!(stats.databases.len(), 1);
        assert_eq!(stats.databases[0].digest, d2);
        // Detaching the first-attached database leaves the other one
        // addressable and advertised, alone.
        let r2_again = service
            .query_on(&d2, filter_plan(20))
            .expect("db2 after detach");
        assert!(r2_again.cache_hit);
        let advertised: Vec<_> = crate::server_info(&service)
            .databases
            .iter()
            .map(|d| d.digest)
            .collect();
        assert_eq!(advertised, vec![d2]);
    }

    #[test]
    fn reattach_replaces_entry_and_keeps_cached_proofs() {
        let (service, digest) = host(tiny_db(), ServiceConfig::default());
        service
            .query_on(&digest, filter_plan(20))
            .expect("prove once");
        assert_eq!(service.stats().databases[0].proofs_generated, 1);

        // Re-attach with PK metadata: same digest, fresh entry.
        let again = service.attach_with_pks(tiny_db(), &[("t", "id")]);
        assert_eq!(again, digest);
        assert_eq!(
            service.stats().databases[0].proofs_generated,
            0,
            "re-attach swaps in a fresh entry (counters restart)"
        );

        // The proof cached before the re-attach still serves: same
        // committed state, same (digest, fingerprint) key.
        let served = service
            .query_on(&digest, filter_plan(20))
            .expect("query after re-attach");
        assert!(served.cache_hit);
    }

    #[test]
    fn append_advances_digest_and_invalidates_precisely() {
        let params = IpaParams::setup(11);
        let service = ProvingService::empty(params.clone(), ServiceConfig::default());
        let d1 = service.attach(tiny_db());
        let d2 = service.attach(other_db());

        // Warm the cache on both databases.
        service.query_on(&d1, filter_plan(20)).expect("db1");
        service.query_on(&d2, filter_plan(20)).expect("db2");
        assert_eq!(service.stats().proofs_generated, 2);

        let stats = service
            .append_rows(&d1, "t", vec![vec![5, 50], vec![6, 60]])
            .expect("append");
        assert_eq!(stats.old_digest, d1);
        assert_ne!(stats.new_digest, d1, "append moves the digest");
        assert_eq!(stats.appended_rows, 2);
        assert_eq!(stats.epoch, 1);
        assert_eq!(
            stats.entries_invalidated, 1,
            "exactly the old digest's cached proof is purged"
        );

        // The old digest is gone; the successor serves (one more row in
        // the result) and verifies against its advertised shape.
        assert!(matches!(
            service.query_on(&d1, filter_plan(20)),
            Err(ServiceError::UnknownDatabase(_))
        ));
        let served = service
            .query_on(&stats.new_digest, filter_plan(20))
            .expect("query successor");
        assert!(!served.cache_hit);
        assert_eq!(served.response.result.len(), 5, "3 old rows + 2 appended");
        let verifier = VerifierSession::new(
            params.clone(),
            service.shape_of(&stats.new_digest).expect("shape"),
        );
        assert!(verifier.verify(&filter_plan(20), &served.response).is_ok());

        // The *other* database's cache entry survived.
        assert!(
            service
                .query_on(&d2, filter_plan(20))
                .expect("db2")
                .cache_hit
        );

        // Lineage accounting: epoch, delta log chain, service counters.
        assert_eq!(service.epoch_of(&stats.new_digest), Some(1));
        assert_eq!(service.epoch_of(&d2), Some(0));
        let log = service.delta_log(&stats.new_digest).expect("log");
        assert_eq!(log.epoch(), 1);
        assert_eq!(log.entries()[0].pre_digest, d1);
        assert_eq!(log.entries()[0].post_digest, stats.new_digest);
        assert_eq!(log.entries()[0].rows, 2);
        let svc_stats = service.stats();
        assert_eq!(svc_stats.mutations, 1);
        assert_eq!(svc_stats.rows_appended, 2);

        // A second append chains onto the new digest.
        let stats2 = service
            .append_rows(&stats.new_digest, "t", vec![vec![7, 70]])
            .expect("second append");
        assert_eq!(stats2.epoch, 2);
        let log = service.delta_log(&stats2.new_digest).expect("log");
        assert_eq!(log.entries()[1].pre_digest, stats.new_digest);
    }

    #[test]
    fn append_rejections_change_nothing() {
        let (service, digest) = host(tiny_db(), ServiceConfig::default());

        assert!(matches!(
            service.append_rows(&[9u8; 64], "t", vec![vec![1, 2]]),
            Err(ServiceError::UnknownDatabase(_))
        ));
        assert!(matches!(
            service.append_rows(&digest, "nope", vec![vec![1, 2]]),
            Err(ServiceError::Mutation(_))
        ));
        assert!(matches!(
            service.append_rows(&digest, "t", vec![vec![1]]),
            Err(ServiceError::Mutation(_))
        ));
        assert!(matches!(
            service.append_rows(&digest, "t", vec![vec![-1, 2]]),
            Err(ServiceError::Mutation(_))
        ));

        // An empty batch is a no-op, not a new state.
        let stats = service.append_rows(&digest, "t", vec![]).expect("empty");
        assert_eq!(stats.new_digest, digest);
        assert_eq!(stats.epoch, 0);
        assert_eq!(service.stats().mutations, 0);
        assert_eq!(service.digests(), vec![digest]);
    }

    #[test]
    fn in_flight_query_completes_against_retained_snapshot() {
        let params = IpaParams::setup(11);
        let service = ProvingService::empty(
            params.clone(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let d1 = service.attach(tiny_db());
        let old_shape = service.shape_of(&d1).expect("shape");

        // Submit resolves the entry Arc *now*; the append below swaps the
        // registry before (or while) the worker proves.
        let handle = service.submit_on(&d1, filter_plan(20)).expect("submit");
        let stats = service
            .append_rows(&d1, "t", vec![vec![5, 50]])
            .expect("append");
        assert_ne!(stats.new_digest, d1);

        // The pre-append job still completes — against the old snapshot —
        // and verifies under the old shape.
        let served = handle.wait().expect("pre-append job");
        assert_eq!(served.response.result.len(), 3, "old state: 3 matches");
        let old_verifier = VerifierSession::new(params.clone(), old_shape);
        assert!(old_verifier
            .verify(&filter_plan(20), &served.response)
            .is_ok());

        // Its proof was *not* cached under the dead digest: a fresh query
        // on the successor proves anew, and the cache holds only live
        // digests.
        let successor = service
            .query_on(&stats.new_digest, filter_plan(20))
            .expect("successor query");
        assert!(!successor.cache_hit);
        let db_stats = service.stats().databases;
        assert_eq!(db_stats.len(), 1);
        assert_eq!(db_stats[0].digest, stats.new_digest);
        assert_eq!(db_stats[0].cached_proofs, 1);
    }

    #[test]
    fn byte_budget_bounds_the_proof_cache() {
        // A 1-byte budget rejects every response: identical queries must
        // re-prove (nothing fits), and the byte accounting stays at zero.
        let (service, digest) = host(
            tiny_db(),
            ServiceConfig {
                cache_bytes: 1,
                ..ServiceConfig::default()
            },
        );
        assert!(
            !service
                .query_on(&digest, filter_plan(20))
                .expect("first")
                .cache_hit
        );
        assert!(
            !service
                .query_on(&digest, filter_plan(20))
                .expect("second")
                .cache_hit
        );
        let stats = service.stats();
        assert_eq!(stats.proofs_generated, 2);
        assert_eq!(stats.cache_bytes, 0);
        assert_eq!(stats.databases[0].cached_proofs, 0);

        // A generous budget caches normally and reports the bytes held.
        let (service, digest) = host(
            tiny_db(),
            ServiceConfig {
                cache_bytes: 64 << 20,
                ..ServiceConfig::default()
            },
        );
        let first = service.query_on(&digest, filter_plan(20)).expect("first");
        assert!(
            service
                .query_on(&digest, filter_plan(20))
                .expect("second")
                .cache_hit
        );
        let stats = service.stats();
        assert_eq!(stats.proofs_generated, 1);
        assert_eq!(
            stats.cache_bytes,
            first.response.approx_bytes() as u64,
            "cache charges each entry its approximate wire size"
        );
    }

    #[test]
    fn sql_over_the_service() {
        let (service, digest) = host(tiny_db(), ServiceConfig::default());
        let (plan, served) = service
            .query_sql(&digest, "SELECT id, val FROM t WHERE val >= 20")
            .expect("sql query");
        let verifier = VerifierSession::new(
            service.params().clone(),
            service.shape_of(&digest).expect("shape"),
        );
        let verified = verifier.verify(&plan, &served.response).expect("verify");
        assert_eq!(verified.len(), 3);

        // A re-submission of the same SQL (even spelled differently) hits
        // the same cache entry via the canonical plan fingerprint.
        let (_, again) = service
            .query_sql(
                &digest,
                "SELECT id, val FROM t WHERE val >= 20 AND val >= 20",
            )
            .expect("repeat sql");
        assert!(again.cache_hit, "identical SQL must share a proof");
        assert_eq!(service.stats().proofs_generated, 1);

        // Bad SQL is a clean error.
        assert!(matches!(
            service.query_sql(&digest, "SELECT nope FROM nowhere"),
            Err(ServiceError::Sql(_))
        ));
    }
}
