//! Session-oriented prover/verifier API: long-lived handles over one
//! committed database (prover) or its public shape (verifier).
//!
//! The paper's deployment model (Figure 2) is a long-lived prover serving
//! many queries against a committed database. A [`ProverSession`] owns the
//! parameters plus the private database and keys every proof afresh: a
//! query's literals are compiled into its fixed columns, so distinct
//! queries never share a proving key, and a repeated query is answered by
//! the serving layer's proof cache before it reaches the session. A
//! [`VerifierSession`] owns the parameters plus the public shape and keeps
//! a map from *canonical plan fingerprint* to the compiled verifying key,
//! so checking N responses for one plan compiles and keys exactly once.
//!
//! [`VerifierSession::verify_batch`] goes further: the per-proof IPA
//! opening checks — the verifier's dominant MSM cost — are folded into one
//! random-linear-combination claim settled by a single MSM
//! (Halo-style accumulation, paper §3.2).
//!
//! The verifier session uses interior mutability (a mutex around the key
//! map, an init-once slot per fingerprint, atomics for counters), so it can
//! be shared across threads: the map lock is held only around lookups, and
//! only threads racing on the *same not-yet-keyed plan* wait on each other
//! — one of them runs the compile+keygen, the rest reuse it, so the
//! one-keygen-per-plan invariant holds under concurrency.
//!
//! Its key cache is **bounded**: at most [`DEFAULT_KEY_CACHE_CAPACITY`]
//! fingerprints (tunable via `with_key_capacity`) in an
//! [`LruCache`](crate::LruCache), so a long-running client cannot grow key
//! memory without bound. Evicting a plan only costs a re-keygen on its
//! next use.

use crate::cache::LruCache;
use crate::compiler::{compile, GateSet};
use crate::db::{database_shape, DatabaseCommitment, DbError, QueryResponse};
use crate::encode::decode;
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_hash::Transcript;
use poneglyph_par::Parallelism;
use poneglyph_pcs::{IpaAccumulator, IpaParams};
use poneglyph_plonkish::{
    keygen_pk_with, keygen_vk_with, prove_timed, verify, verify_accumulate, VerifyingKey,
};
use poneglyph_sql::{
    canonical_plan, canonical_plan_fingerprint, execute, Database, Plan, Schema, Table,
};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Record one verifier-side proof check's wall clock into
/// `poneglyph_verify_nanos{kind=...}` (`kind` is `"single"` or
/// `"batch"`). Failed checks record too — slow rejections matter as much
/// as slow accepts.
fn observe_verify(kind: &'static str, started: Instant) {
    poneglyph_obs::global()
        .histogram(
            "poneglyph_verify_nanos",
            &[("kind", kind)],
            poneglyph_obs::nanos_buckets(),
            "Verifier-side latency of proof checks, by kind",
        )
        .observe(started.elapsed().as_nanos() as u64);
}

/// Default bound on a [`VerifierSession`]'s per-fingerprint verifying-key
/// cache. 64 distinct hot plans per database is generous, and eviction
/// only costs a re-keygen.
pub const DEFAULT_KEY_CACHE_CAPACITY: usize = 64;

/// Monotonic counters for one [`VerifierSession`]'s circuit/key work.
///
/// The acceptance property of the session API is visible here: verifying N
/// responses for one plan leaves `compiles == keygens == 1` and
/// `key_cache_hits == N - 1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Circuit structure compilations performed.
    pub compiles: u64,
    /// Verifying-key generations performed.
    pub keygens: u64,
    /// Queries answered from the session's key cache without keygen.
    pub key_cache_hits: u64,
}

#[derive(Default)]
struct StatCounters {
    compiles: AtomicU64,
    keygens: AtomicU64,
    key_cache_hits: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> SessionStats {
        SessionStats {
            compiles: self.compiles.load(Ordering::SeqCst),
            keygens: self.keygens.load(Ordering::SeqCst),
            key_cache_hits: self.key_cache_hits.load(Ordering::SeqCst),
        }
    }
}

/// A long-lived prover handle over one committed database.
///
/// Owns the public parameters and the private [`Database`]. Every
/// [`prove`](Self::prove) executes, compiles, keys and proves — a proving
/// key serves one proof. The database commitment is computed lazily on
/// first [`digest`](Self::digest) and then pinned for the session's
/// lifetime.
pub struct ProverSession {
    params: IpaParams,
    db: Database,
    commitment: OnceLock<DatabaseCommitment>,
    /// Per-proof thread budget for key generation and proving; threaded
    /// down through the plonkish prover to the FFT and MSM layers.
    parallelism: Parallelism,
}

impl ProverSession {
    /// Open a session over a private database. Commitment is deferred to
    /// the first [`digest`](Self::digest) call.
    pub fn new(params: IpaParams, db: Database) -> Self {
        Self {
            params,
            db,
            commitment: OnceLock::new(),
            parallelism: Parallelism::auto(),
        }
    }

    /// Set the per-proof thread budget (builder style). Proof bytes do not
    /// depend on the budget — only latency does — so sessions at different
    /// budgets are interchangeable.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Open a session over a database whose commitment is *already known*
    /// — the incremental-update path: a mutation engine that
    /// homomorphically advanced a previous state's commitment
    /// ([`DatabaseCommitment::append_rows`]) seeds the successor session
    /// with it instead of paying a full re-commit.
    ///
    /// The caller asserts `commitment` commits to `db`; in debug builds
    /// this is re-checked against a fresh commit.
    pub fn with_commitment(
        params: IpaParams,
        db: Database,
        commitment: DatabaseCommitment,
    ) -> Self {
        debug_assert!(
            commitment.matches(&params, &db),
            "seeded commitment must match the database"
        );
        let session = Self::new(params, db);
        session
            .commitment
            .set(commitment)
            .expect("fresh session has no commitment");
        session
    }

    /// The session's public parameters.
    pub fn params(&self) -> &IpaParams {
        &self.params
    }

    /// The private database (prover side only).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The shape (schemas + row counts, zeroed values) a verifier needs.
    pub fn shape(&self) -> Database {
        database_shape(&self.db)
    }

    /// The database commitment (computed once, then cached).
    pub fn commitment(&self) -> &DatabaseCommitment {
        self.commitment
            .get_or_init(|| DatabaseCommitment::commit(&self.params, &self.db))
    }

    /// The committed database's registry digest.
    pub fn digest(&self) -> [u8; 64] {
        self.commitment().digest()
    }

    /// Execute a query and produce a proof-carrying [`QueryResponse`].
    ///
    /// The plan is canonicalized first: the proof is of
    /// [`canonical_plan`]`(plan)`, so every spelling of a query yields the
    /// same proof statement (and, downstream, one proof-cache entry).
    pub fn prove(&self, plan: &Plan, rng: &mut impl Rng) -> Result<QueryResponse, DbError> {
        self.prove_canonical(&canonical_plan(plan), rng)
    }

    /// [`prove`](Self::prove) for a plan that is *already* canonical — the
    /// serving layer canonicalizes once for the proof-cache key and must
    /// not pay it twice.
    pub fn prove_canonical(
        &self,
        plan: &Plan,
        rng: &mut impl Rng,
    ) -> Result<QueryResponse, DbError> {
        // The witness depends on the private data and the fixed columns on
        // the query's literals, so every step runs per call.
        let trace = execute(&self.db, plan).map_err(|e| DbError::Execute(e.to_string()))?;
        let result = trace.output.clone();
        let compiled =
            compile(&self.db, plan, Some(&trace), GateSet::default()).map_err(DbError::Compile)?;
        let k = compiled.asn.k;
        if k > self.params.k {
            return Err(DbError::Compile(format!(
                "circuit needs 2^{k} rows but parameters cap at 2^{}",
                self.params.k
            )));
        }
        let params_k = self.params.truncate(k);
        let pk = keygen_pk_with(&params_k, &compiled.cs, &compiled.asn, self.parallelism);
        let instance = compiled.instance.clone();
        let (proof, _) = prove_timed(&params_k, &pk, compiled.asn, rng, self.parallelism)
            .map_err(|e| DbError::Prove(e.to_string()))?;
        Ok(QueryResponse {
            result,
            instance,
            proof,
            k,
        })
    }
}

/// A verifier-side compiled query: everything needed to check any number
/// of responses for one canonical plan.
struct PreparedQuery {
    /// log2 of the circuit size the plan compiles to.
    k: u32,
    /// Parameters truncated to the circuit's size.
    params_k: IpaParams,
    /// The verifying key (no prover-only tables — built by [`keygen_vk_with`]).
    vk: VerifyingKey,
    /// Rows in the output region (instance extraction bound).
    output_cap: usize,
    /// The plan's output schema.
    schema: Schema,
}

/// A long-lived verifier handle over one database *shape*.
///
/// Owns the public parameters and the public shape (schemas + row counts;
/// values are irrelevant — circuit structure depends only on sizes).
/// Caches `(circuit, verifying key)` by canonical plan fingerprint, so
/// checking N responses for one plan compiles and keys once. Keys are
/// generated with [`keygen_vk_with`]: the verifier path never materializes
/// prover-only tables.
pub struct VerifierSession {
    params: IpaParams,
    shape: Database,
    /// One init-once slot per canonical fingerprint: a second thread
    /// asking for the same plan blocks on the slot instead of duplicating
    /// the compile + keygen, so `compiles == keygens == 1` per plan holds
    /// even under concurrent first use. Compile failures are cached too
    /// (deterministic in plan + shape). LRU-bounded.
    prepared: Mutex<LruCache<[u8; 32], Arc<OnceLock<Result<Arc<PreparedQuery>, String>>>>>,
    stats: StatCounters,
}

impl VerifierSession {
    /// Open a session over a database shape (any database with the right
    /// schemas and row counts works — values are never read).
    pub fn new(params: IpaParams, shape: Database) -> Self {
        Self::with_key_capacity(params, shape, DEFAULT_KEY_CACHE_CAPACITY)
    }

    /// [`new`](Self::new) with an explicit key-cache bound (`0` disables
    /// caching: every verify re-compiles and re-keys).
    pub fn with_key_capacity(params: IpaParams, shape: Database, capacity: usize) -> Self {
        Self {
            params,
            shape,
            prepared: Mutex::new(LruCache::new(capacity)),
            stats: StatCounters::default(),
        }
    }

    /// The session's public parameters.
    pub fn params(&self) -> &IpaParams {
        &self.params
    }

    /// The shape this session verifies against.
    pub fn shape(&self) -> &Database {
        &self.shape
    }

    /// Compile + key a canonical plan, or fetch it from the cache.
    fn prepare(&self, plan: &Plan, fingerprint: [u8; 32]) -> Result<Arc<PreparedQuery>, DbError> {
        let slot = {
            let mut map = self.prepared.lock().expect("prepared lock");
            map.get_or_insert_with(&fingerprint, Default::default)
        };
        let mut initialized_here = false;
        let outcome = slot.get_or_init(|| {
            initialized_here = true;
            self.stats.compiles.fetch_add(1, Ordering::SeqCst);
            let compiled = compile(&self.shape, plan, None, GateSet::default())?;
            let k = compiled.asn.k;
            if k > self.params.k {
                return Err(format!(
                    "circuit needs 2^{k} rows but parameters cap at 2^{}",
                    self.params.k
                ));
            }
            self.stats.keygens.fetch_add(1, Ordering::SeqCst);
            let params_k = self.params.truncate(k);
            let vk = keygen_vk_with(&params_k, &compiled.cs, &compiled.asn, Parallelism::auto());
            let lookup = |name: &str| {
                self.shape
                    .table(name)
                    .map(|t| t.schema.clone())
                    .unwrap_or_default()
            };
            Ok(Arc::new(PreparedQuery {
                k,
                params_k,
                vk,
                output_cap: compiled.output_cap,
                schema: plan.schema(&lookup),
            }))
        });
        match outcome {
            Ok(p) => {
                if !initialized_here {
                    self.stats.key_cache_hits.fetch_add(1, Ordering::SeqCst);
                }
                Ok(Arc::clone(p))
            }
            Err(e) => Err(DbError::Compile(e.clone())),
        }
    }

    /// Verify one [`QueryResponse`]: check the proof against the cached
    /// verifying key and extract the proven result table.
    ///
    /// The plan is canonicalized first — pass any spelling; the proof must
    /// be of the canonical form (which is what [`ProverSession::prove`]
    /// and the proving service produce).
    pub fn verify(&self, plan: &Plan, response: &QueryResponse) -> Result<Table, DbError> {
        let started = Instant::now();
        let out = (|| {
            let plan = canonical_plan(plan);
            let fingerprint = canonical_plan_fingerprint(&plan);
            let prepared = self.prepare(&plan, fingerprint)?;
            if prepared.k != response.k {
                return Err(DbError::Verify("circuit size mismatch".to_string()));
            }
            verify(
                &prepared.params_k,
                &prepared.vk,
                &response.instance,
                &response.proof,
            )
            .map_err(|e| DbError::Verify(e.to_string()))?;
            extract_result(&prepared, response)
        })();
        observe_verify("single", started);
        out
    }

    /// Verify a batch of responses with *one* folded IPA opening check.
    ///
    /// Each response replays its own transcript and quotient identity, but
    /// the per-proof opening claims — the dominant MSM cost — are combined
    /// under a random linear combination and settled by a single MSM. The
    /// batch is all-or-nothing: if any proof, instance or claimed result
    /// is invalid, the whole call fails.
    ///
    /// The RLC weight is derived Fiat–Shamir-style from every batch
    /// member, so a prover cannot craft errors that cancel across proofs.
    /// Plans may repeat (the compiled circuit is fetched once) and may
    /// differ in circuit size (claims fold over the shared generator
    /// prefix).
    ///
    /// Returns the verified result tables in input order.
    pub fn verify_batch(&self, items: &[(Plan, QueryResponse)]) -> Result<Vec<Table>, DbError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let started = Instant::now();
        let out = self.verify_batch_inner(items);
        observe_verify("batch", started);
        out
    }

    fn verify_batch_inner(&self, items: &[(Plan, QueryResponse)]) -> Result<Vec<Table>, DbError> {
        // Prepare every circuit up front (cache-deduplicated).
        let mut prepared = Vec::with_capacity(items.len());
        for (i, (plan, response)) in items.iter().enumerate() {
            let plan = canonical_plan(plan);
            let fingerprint = canonical_plan_fingerprint(&plan);
            let p = self
                .prepare(&plan, fingerprint)
                .map_err(|e| DbError::Verify(format!("batch item {i}: {e}")))?;
            if p.k != response.k {
                return Err(DbError::Verify(format!(
                    "batch item {i}: circuit size mismatch"
                )));
            }
            prepared.push((fingerprint, p));
        }

        // Derive the random-linear-combination weight from every batch
        // member, so no member's claim is independent of the weight.
        let mut transcript = Transcript::new(b"poneglyph-batch-verify");
        transcript.absorb_u64(b"batch-len", items.len() as u64);
        for ((fingerprint, _), (_, response)) in prepared.iter().zip(items) {
            transcript.absorb_bytes(b"batch-plan", fingerprint);
            transcript.absorb_bytes(b"batch-response", &response.to_bytes());
        }
        let rho: Fq = transcript.challenge_nonzero(b"batch-rho");

        // The accumulator spans the largest circuit in the batch; smaller
        // circuits fold over the shared generator prefix.
        let widest_idx = (0..prepared.len())
            .max_by_key(|&i| prepared[i].1.k)
            .expect("non-empty batch");
        let mut acc = IpaAccumulator::new(&prepared[widest_idx].1.params_k, rho);
        for (i, ((_, p), (_, response))) in prepared.iter().zip(items).enumerate() {
            verify_accumulate(
                &p.params_k,
                &p.vk,
                &response.instance,
                &response.proof,
                &mut acc,
            )
            .map_err(|e| DbError::Verify(format!("batch item {i}: {e}")))?;
        }
        if !acc.finalize(&prepared[widest_idx].1.params_k) {
            return Err(DbError::Verify(
                "batched IPA opening check failed".to_string(),
            ));
        }

        prepared
            .iter()
            .zip(items)
            .enumerate()
            .map(|(i, ((_, p), (_, response)))| {
                extract_result(p, response)
                    .map_err(|e| DbError::Verify(format!("batch item {i}: {e}")))
            })
            .collect()
    }

    /// A snapshot of the session's work counters.
    pub fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }

    /// Number of plans currently holding a cached compiled circuit + key.
    pub fn key_cache_len(&self) -> usize {
        self.prepared.lock().expect("prepared lock").len()
    }
}

/// Decode the proven instance into the result table and check it equals
/// the response's claimed result.
fn extract_result(prepared: &PreparedQuery, response: &QueryResponse) -> Result<Table, DbError> {
    let mut out = Table::empty(prepared.schema.clone());
    let reals = &response.instance[0];
    for r in 0..prepared.output_cap {
        let is_real = reals.get(r).copied().unwrap_or(Fq::ZERO);
        if is_real == Fq::ONE {
            let row: Option<Vec<i64>> = (1..response.instance.len())
                .map(|c| response.instance[c].get(r).and_then(decode))
                .collect();
            let row = row.ok_or_else(|| DbError::Verify("non-decodable output".to_string()))?;
            out.push_row(&row);
        } else if !is_real.is_zero() {
            return Err(DbError::Verify("real indicator not boolean".to_string()));
        }
    }
    // Sanity: the attached result must equal the proven instance content.
    if out != response.result {
        return Err(DbError::Verify(
            "claimed result differs from proven instance".to_string(),
        ));
    }
    Ok(out)
}
