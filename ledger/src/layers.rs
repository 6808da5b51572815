//! The adapter: the only file that names an item of a product crate.
//!
//! One function per layer metric, named `<crate>_<what>`. A rename under
//! the product's API clean-up is a change to this file alone. Where the
//! product offers several forms of one call, the forms the roadmap says
//! survive are used: sessions, `query_verified_sql`, the budgeted `*_with`
//! entry points and `prove_timed`.

use poneglyph_arith::{Fq, PrimeField};
use poneglyph_core::{
    compile, database_shape, CompiledQuery, DatabaseCommitment, GateSet, Parallelism,
    VerifierSession,
};
use poneglyph_hash::Transcript;
use poneglyph_pcs::open_with;
use poneglyph_plonkish::{keygen_pk_with, prove_timed};
use poneglyph_service::{ProvingService, ServiceConfig, ServiceServer};
use poneglyph_sql::{canonical_plan, catalog_of, execute, parse, plan_query, Executed};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use poneglyph_core::QueryResponse;
pub use poneglyph_pcs::IpaParams;
pub use poneglyph_plonkish::ProvingKey;
pub use poneglyph_service::ServiceClient;
pub use poneglyph_sql::{Catalog, Database, Plan, Table};
pub use poneglyph_tpch::{Q18_SQL, Q1_SQL, Q5_SQL, REGIONS};

pub type Digest = [u8; 64];

/// One thread per proof: single-thread time is the ledger's primary number.
pub const PROVER_THREADS: usize = 1;

fn budget() -> Parallelism {
    Parallelism::new(PROVER_THREADS)
}

/// Primary keys of the TPC-H tables, for server-side join planning.
const TPCH_PKS: [(&str, &str); 7] = [
    ("region", "r_regionkey"),
    ("nation", "n_nationkey"),
    ("supplier", "s_suppkey"),
    ("customer", "c_custkey"),
    ("part", "p_partkey"),
    ("partsupp", "ps_pskey"),
    ("orders", "o_orderkey"),
];

// ---------------------------------------------------------------- set-up

pub fn pcs_setup(k: u32) -> IpaParams {
    IpaParams::setup(k)
}

pub fn pcs_truncate(params: &IpaParams, k: u32) -> IpaParams {
    params.truncate(k)
}

pub fn tpch_generate(lineitem_rows: usize) -> Database {
    poneglyph_tpch::generate(lineitem_rows)
}

pub fn tpch_catalog(db: &Database) -> Catalog {
    catalog_of(db, &TPCH_PKS)
}

pub fn core_commit_db(params: &IpaParams, db: &Database) -> DatabaseCommitment {
    DatabaseCommitment::commit(params, db)
}

// --------------------------------------------------------------- service

/// A proving service hosting one database behind a TCP front end on an
/// ephemeral loopback port. Dropping it stops the acceptor and joins the
/// prover worker.
pub struct Host {
    pub service: Arc<ProvingService>,
    pub digest: Digest,
    server: ServiceServer,
}

impl Host {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// One worker with a one-thread proof budget, so at most one thread
/// computes at a time; `seed` drives the proof-blinding randomness.
pub fn service_host(params: &IpaParams, db: Database, seed: u64) -> std::io::Result<Host> {
    let config = ServiceConfig {
        workers: 1,
        prover_threads: PROVER_THREADS,
        seed,
        ..ServiceConfig::default()
    };
    let service = Arc::new(ProvingService::empty(params.clone(), config));
    let digest = service.attach_with_pks(db, &TPCH_PKS);
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0")?;
    Ok(Host {
        service,
        digest,
        server,
    })
}

/// Connect and fetch `REQ_INFO`: after this the first query can be sent.
pub fn service_connect(addr: SocketAddr) -> Result<ServiceClient, String> {
    let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
    client.info().map_err(|e| e.to_string())?;
    Ok(client)
}

/// SQL text out, verified table back: the end-to-end operation. Also
/// returns whether the server answered from its proof cache.
pub fn service_query_verified(
    client: &mut ServiceClient,
    params: &IpaParams,
    digest: &Digest,
    sql: &str,
) -> Result<(Table, bool), String> {
    let (table, _plan, cache_hit) = client
        .query_verified_sql(params, digest, sql)
        .map_err(|e| e.to_string())?;
    Ok((table, cache_hit))
}

/// The same round trip without verification: the plan the server proved,
/// its still-unverified response, and whether that came from the cache.
pub fn service_fetch(
    client: &mut ServiceClient,
    digest: &Digest,
    sql: &str,
) -> Result<(Plan, QueryResponse, bool), String> {
    let (plan, wire) = client.query_sql(digest, sql).map_err(|e| e.to_string())?;
    Ok((plan, wire.response, wire.cache_hit))
}

/// Append rows; returns the digest of the successor state.
pub fn service_append(
    client: &mut ServiceClient,
    digest: &Digest,
    table: &str,
    rows: &[Vec<i64>],
) -> Result<Digest, String> {
    client
        .append_rows(digest, table, rows)
        .map(|ack| ack.new_digest)
        .map_err(|e| e.to_string())
}

/// The `REQ_METRICS` scrape: the obs registry as Prometheus text.
pub fn service_scrape(client: &mut ServiceClient) -> Result<String, String> {
    client.metrics().map_err(|e| e.to_string())
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounts {
    pub proofs_generated: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub mutations: u64,
}

pub fn service_counts(service: &ProvingService) -> ServiceCounts {
    let s = service.stats();
    ServiceCounts {
        proofs_generated: s.proofs_generated,
        cache_hits: s.cache_hits,
        cache_misses: s.cache_misses,
        mutations: s.mutations,
    }
}

/// `(keygens, key_cache_hits)` of the connection's verifier session for
/// `digest`; zeros before its first verified query.
pub fn service_verifier_counts(client: &ServiceClient, digest: &Digest) -> (u64, u64) {
    client
        .verifier_stats(digest)
        .map_or((0, 0), |s| (s.keygens, s.key_cache_hits))
}

// ------------------------------------------------------ the prover's path

/// Parse and plan as the service does: against a clone of the dictionary,
/// canonicalized.
pub fn sql_parse_plan(db: &Database, catalog: &Catalog, sql: &str) -> Result<Plan, String> {
    let stmt = parse(sql)?;
    let mut dict = db.dict.clone();
    let plan = plan_query(&stmt, catalog, &mut dict)?;
    Ok(canonical_plan(&plan))
}

pub fn sql_execute(db: &Database, plan: &Plan) -> Result<Executed, String> {
    execute(db, plan).map_err(|e| e.to_string())
}

pub fn executed_output(trace: &Executed) -> &Table {
    &trace.output
}

pub fn core_compile(db: &Database, plan: &Plan, trace: &Executed) -> Result<CompiledQuery, String> {
    compile(db, plan, Some(trace), GateSet::default())
}

/// `(k, advice columns, fixed columns, gates, lookups)` of a circuit.
pub fn core_circuit_counts(c: &CompiledQuery) -> (u32, usize, usize, usize, usize) {
    (
        c.asn.k,
        c.cs.num_advice,
        c.cs.num_fixed,
        c.cs.gates.len(),
        c.cs.lookups.len(),
    )
}

pub fn plonkish_keygen_pk(params_k: &IpaParams, c: &CompiledQuery) -> ProvingKey {
    keygen_pk_with(params_k, &c.cs, &c.asn, budget())
}

/// Prove, consuming the compiled witness. Returns the response and the
/// prover's own commit / quotient / open stage times.
pub fn plonkish_prove(
    params_k: &IpaParams,
    pk: &ProvingKey,
    c: CompiledQuery,
    result: Table,
    seed: u64,
) -> Result<(QueryResponse, [Duration; 3]), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = c.asn.k;
    let (proof, t) =
        prove_timed(params_k, pk, c.asn, &mut rng, budget()).map_err(|e| e.to_string())?;
    let response = QueryResponse {
        result,
        instance: c.instance,
        proof,
        k,
    };
    Ok((response, [t.commit, t.quotient, t.open]))
}

pub fn core_encode(response: &QueryResponse) -> Vec<u8> {
    response.to_bytes()
}

pub fn core_decode(bytes: &[u8]) -> Result<QueryResponse, String> {
    QueryResponse::from_bytes(bytes).map_err(|e| e.to_string())
}

pub fn response_k(response: &QueryResponse) -> u32 {
    response.k
}

pub fn response_proof_bytes(response: &QueryResponse) -> usize {
    response.proof_size()
}

// ----------------------------------------------------- the verifier's path

/// A verifier that knows only the database's shape and holds no keys yet.
pub fn core_verifier(params: &IpaParams, db: &Database) -> VerifierSession {
    VerifierSession::new(params.clone(), database_shape(db))
}

pub fn core_verify(
    session: &VerifierSession,
    plan: &Plan,
    response: &QueryResponse,
) -> Result<Table, String> {
    session.verify(plan, response).map_err(|e| e.to_string())
}

/// Two forgeries of `response`: one result cell changed, and one bit of
/// one claimed evaluation inside the proof changed.
pub fn forgeries(response: &QueryResponse, pick: u64) -> [QueryResponse; 2] {
    let mut cell = response.clone();
    let (cols, rows) = (cell.result.cols.len() as u64, cell.result.len() as u64);
    cell.result.cols[(pick % cols) as usize][(pick / cols % rows) as usize] ^= 1;

    let mut byte = response.clone();
    let evals = &mut byte.proof.evals;
    let at = (pick % evals.len() as u64) as usize;
    let mut repr = evals[at].to_repr();
    repr[0] ^= 1;
    // The low bit moves the value by one, which stays canonical.
    evals[at] = Fq::from_repr(&repr).expect("low-bit flip of a canonical scalar");
    [cell, byte]
}

// -------------------------------------------------------------- mutation

/// The in-process homomorphic commitment update; the service's append adds
/// the database clone, the registry swap, the cache purge and the wire.
pub fn core_append(
    commitment: &mut DatabaseCommitment,
    params: &IpaParams,
    table: &str,
    rows: &[Vec<i64>],
) -> Result<(), String> {
    commitment
        .append_rows(params, table, rows)
        .map(drop)
        .map_err(|e| e.to_string())
}

// ------------------------------------------------------------ primitives

/// ns per field multiplication, over a dependent chain so that each
/// product waits for the last.
pub fn arith_fq_mul_ns() -> f64 {
    const N: u32 = 1_000_000;
    let step = Fq::from_u64(0x9e37_79b9_7f4a_7c15);
    let mut acc = black_box(Fq::from_u64(3));
    let start = Instant::now();
    for _ in 0..N {
        acc *= step;
    }
    let took = start.elapsed();
    black_box(acc);
    took.as_nanos() as f64 / f64::from(N)
}

/// ns per field inversion.
pub fn arith_fq_inv_ns() -> f64 {
    const N: u32 = 2_000;
    let mut acc = black_box(Fq::from_u64(3));
    let start = Instant::now();
    for _ in 0..N {
        acc = acc.invert().expect("nonzero") + Fq::ONE;
    }
    let took = start.elapsed();
    black_box(acc);
    took.as_nanos() as f64 / f64::from(N)
}

/// `2^k` scalars: full-width, or below `2^56` as every database cell is.
pub fn scalars(k: u32, full_width: bool, seed: u64) -> Vec<Fq> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1usize << k)
        .map(|_| {
            if full_width {
                Fq::random(&mut rng)
            } else {
                Fq::from_u64(rand::Rng::next_u64(&mut rng) >> 8)
            }
        })
        .collect()
}

/// One inverse FFT then one coset FFT at the key's domain, timed apart.
pub fn poly_ifft_then_coset_fft(pk: &ProvingKey, values: Vec<Fq>) -> [Duration; 2] {
    let domain = &pk.vk.domain;
    let start = Instant::now();
    let poly = domain.lagrange_to_coeff_with(values, budget());
    let ifft = start.elapsed();
    let start = Instant::now();
    black_box(domain.coeff_to_extended_with(&poly, budget()));
    [ifft, start.elapsed()]
}

/// One Pedersen commitment: an MSM over `scalars.len()` generators.
pub fn pcs_commit(params_k: &IpaParams, scalars: &[Fq]) {
    black_box(params_k.commit_with(scalars, Fq::ZERO, budget()));
}

/// One IPA opening of `coeffs` at a random point, then its verification,
/// timed apart. `Err` if the honest opening does not verify.
pub fn pcs_open_then_verify(
    params_k: &IpaParams,
    coeffs: &[Fq],
    seed: u64,
) -> Result<[Duration; 2], String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let blind = Fq::random(&mut rng);
    let x = Fq::random(&mut rng);
    let v = coeffs.iter().rev().fold(Fq::ZERO, |acc, c| acc * x + *c);
    let commitment = params_k.commit_with(coeffs, blind, budget());

    let start = Instant::now();
    let mut transcript = Transcript::new(b"ledger-ipa");
    let proof = open_with(
        params_k,
        &mut transcript,
        coeffs,
        blind,
        x,
        &mut rng,
        budget(),
    );
    let open = start.elapsed();

    let start = Instant::now();
    let mut transcript = Transcript::new(b"ledger-ipa");
    let ok = poneglyph_pcs::verify(params_k, &mut transcript, &commitment, x, v, &proof);
    let verify = start.elapsed();
    ok.then_some([open, verify])
        .ok_or_else(|| "an honest IPA opening did not verify".to_string())
}
