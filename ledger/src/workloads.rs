//! The four workloads, driven over TCP by one client in a closed loop: the
//! client waits for its verified answer before it asks again, so with one
//! prover worker on a one-thread budget at most one thread computes.

use crate::alloc;
use crate::inputs::{self, InputRng, Query};
use crate::layers::{self, Digest, Host, IpaParams, ServiceCounts};
use crate::oracle::{self, Oracle};
use crate::stats::median;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// `lineitem` rows. Every plannable TPC-H query compiles to `k = 9` here;
/// the 256-row range table alone forces `k >= 9`, so a smaller database
/// would prove no faster.
pub const SCALE: usize = 240;
/// Parameters are generated for circuits up to `2^13` rows, as a host that
/// expects its tables to grow would; each proof uses the `2^k` prefix.
pub const PARAMS_K: u32 = 13;
/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// Single-row appends before each requery of `append_requery`.
pub const APPENDS_PER_CYCLE: usize = 20;
/// Single-row appends every run makes in all: after its measured phase a
/// workload appends until it has this many samples, so that each reports
/// `append_p50_ms` from the same number. A round trip of under half a
/// millisecond is mostly thread wake-ups; fewer samples do not settle it.
pub const APPEND_SAMPLES: usize = 240;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Q1Cold,
    Q5Cold,
    HitVerified,
    AppendRequery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Q1Cold,
        Workload::Q5Cold,
        Workload::HitVerified,
        Workload::AppendRequery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Q1Cold => "q1_cold",
            Workload::Q5Cold => "q5_cold",
            Workload::HitVerified => "hit_verified",
            Workload::AppendRequery => "append_requery",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Q1Cold => "Distinct Q1 literals miss every cache: filter/group-by/aggregate circuit, >95% keygen+prove, so prover arithmetic shows here and serving-path work does not.",
            Workload::Q5Cold => "Distinct Q5 windows miss every cache: six-table join with lookup/shuffle gadgets and 40% more columns, so a prover change tuned to Q1's gate mix that costs joins shows here.",
            Workload::HitVerified => "Two cached proofs served alternately: the prover is idle, so only parse, cache lookup, encode, wire, decode and warm verify are timed; prover changes must show no change.",
            Workload::AppendRequery => "Twenty one-row appends then a verified Q1 on the new digest: small-scalar MSMs, registry swap and cache purge beside a keyless re-prove; shows what a write costs readers.",
        }
    }
}

/// When a measured phase ends. A new operation starts only while the rule
/// is unmet, and at least one always runs.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this much wall time: the benchmark's runs.
    Deadline(Duration),
    /// After this many operations: the traced run and the tests, where the
    /// program's own counts must repeat exactly.
    Ops(usize),
}

impl Stop {
    fn reached(self, elapsed: Duration, ops: usize) -> bool {
        match self {
            Stop::Deadline(d) => elapsed >= d,
            Stop::Ops(n) => ops >= n,
        }
    }
}

/// A service that is up, a client connected to it, and the benchmark's
/// own plaintext copy of the database it hosts.
pub struct Stand {
    pub params: IpaParams,
    pub host: Host,
    pub client: layers::ServiceClient,
    pub digest: Digest,
    pub oracle: Oracle,
}

/// Everything between a cold process and the first request: parameters,
/// data, database commitment (inside `service_host`), bind, connect,
/// `REQ_INFO`. Returns how long that took. The traced run passes a tracer
/// that is on and gets a span per step; the benchmark's runs pass one that
/// is off.
pub fn set_up(seed: u64, t: &mut Tracer) -> Result<(Stand, Duration), String> {
    let start = Instant::now();
    let params = t.time("pcs.setup", |_| layers::pcs_setup(PARAMS_K));
    let db = t.time("tpch.generate", |_| layers::tpch_generate(SCALE));
    let host = t
        .time("service.host", |_| layers::service_host(&params, db, seed))
        .map_err(|e| e.to_string())?;
    let client = t.time("service.connect", |_| layers::service_connect(host.addr()))?;
    let took = start.elapsed();
    let stand = Stand {
        params,
        digest: host.digest,
        host,
        client,
        oracle: Oracle::new(layers::tpch_generate(SCALE)),
    };
    Ok((stand, took))
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_samples_s: Vec<f64>,
    /// Proofs the workload needs cached before its first request.
    pub warmup_s: f64,
    /// Latency of each verified query: SQL text written to the socket to
    /// oracle-ready `Table` returned.
    pub query_s: Vec<f64>,
    pub append_ms: Vec<f64>,
    /// Time the client spent waiting inside the measured phase.
    pub busy_s: f64,
    pub peak_heap_mb: f64,
    /// Mean proof size over the workload's distinct query texts.
    pub proof_bytes: f64,
    pub k: u32,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Service and client counters when the measured phase ended.
    pub service: ServiceCounts,
    pub verifier_keygens: u64,
    pub verifier_key_cache_hits: u64,
}

impl Outcome {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples_s) + self.warmup_s
    }

    pub fn verified_qps(&self) -> f64 {
        self.query_s.len() as f64 / self.busy_s
    }

    /// Run a sequence of operations that stops at its first failure; the
    /// failure is counted once.
    fn guard(&mut self, ops: impl FnOnce(&mut Self) -> Result<(), String>) {
        if let Err(e) = ops(self) {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

/// Set up `SETUP_REPEATS` times, then measure on the last stand.
pub fn run(workload: Workload, seed: u64, stop: Stop) -> Result<Outcome, String> {
    let mut setup_samples_s = Vec::new();
    let mut stand = None;
    for _ in 0..SETUP_REPEATS {
        // Take the previous stand down first, outside the timed interval.
        drop(stand.take());
        let (fresh, took) = set_up(seed, &mut Tracer::new(false))?;
        setup_samples_s.push(took.as_secs_f64());
        stand = Some(fresh);
    }
    let mut stand = stand.expect("SETUP_REPEATS > 0");
    let mut out = measure(&mut stand, workload, seed, stop);
    out.setup_samples_s = setup_samples_s;
    if out.failed == 0 {
        append_tail(&mut stand, &mut out, seed);
    }
    Ok(out)
}

/// Single-row appends after the measured phase, up to `APPEND_SAMPLES`.
pub fn append_tail(stand: &mut Stand, out: &mut Outcome, seed: u64) {
    let mut rows = InputRng::new(seed, 10);
    out.guard(|out| {
        (out.append_ms.len()..APPEND_SAMPLES).try_for_each(|_| append(stand, out, &mut rows))
    });
}

/// Warm up, run the measured phase, then check what the phase left behind.
/// Stops at the first operation that fails.
pub fn measure(stand: &mut Stand, workload: Workload, seed: u64, stop: Stop) -> Outcome {
    let mut out = Outcome::default();
    out.guard(|out| measure_into(out, stand, workload, seed, stop));
    out
}

fn measure_into(
    out: &mut Outcome,
    stand: &mut Stand,
    workload: Workload,
    seed: u64,
    stop: Stop,
) -> Result<(), String> {
    let mut rows = InputRng::new(seed, 9);
    let standard_q1 = inputs::q1(90);
    let hit_pair = [standard_q1.clone(), inputs::q18()];
    let texts = match workload {
        Workload::Q1Cold => inputs::q1_texts(seed),
        Workload::Q5Cold => inputs::q5_texts(seed, &stand.oracle)?,
        Workload::HitVerified | Workload::AppendRequery => Vec::new(),
    };

    if workload == Workload::HitVerified {
        let start = Instant::now();
        for q in &hit_pair {
            query(stand, out, q, false)?;
        }
        out.warmup_s = start.elapsed().as_secs_f64();
        out.query_s.clear(); // the warm-up is set-up time, not a sample
    }

    // ---- the measured phase
    let before = layers::service_counts(&stand.host.service);
    let baseline = alloc::reset_peak();
    let started = Instant::now();
    let mut first_k = None;
    let mut ops = 0;
    loop {
        match workload {
            Workload::Q1Cold | Workload::Q5Cold => {
                let Some(q) = texts.get(ops) else {
                    break; // every distinct text has been asked once
                };
                query(stand, out, q, false)?;
            }
            Workload::HitVerified => query(stand, out, &hit_pair[ops % 2], true)?,
            Workload::AppendRequery => {
                for _ in 0..APPENDS_PER_CYCLE {
                    append(stand, out, &mut rows)?;
                }
                query(stand, out, &standard_q1, false)?;
                // Growth must not move the circuit size, or the requeries
                // of one run would not be comparable.
                let (k, _) = fetch(stand, out, &standard_q1)?;
                let first = *first_k.get_or_insert(k);
                if k != first {
                    return Err(format!("k moved from {first} to {k} as the table grew"));
                }
            }
        }
        ops += 1;
        if stop.reached(started.elapsed(), ops) {
            break;
        }
    }
    out.peak_heap_mb = alloc::peak_growth_mb(baseline);
    out.busy_s = out.query_s.iter().sum::<f64>() + out.append_ms.iter().sum::<f64>() / 1e3;
    out.service = layers::service_counts(&stand.host.service);
    (out.verifier_keygens, out.verifier_key_cache_hits) =
        layers::service_verifier_counts(&stand.client, &stand.digest);

    // ---- the phase must have used the caches as the workload defines
    out.attempted += 1;
    let queries = out.query_s.len() as u64;
    let proved = out.service.proofs_generated - before.proofs_generated;
    let hits = out.service.cache_hits - before.cache_hits;
    let as_defined = match workload {
        Workload::Q1Cold | Workload::Q5Cold => (proved, hits) == (queries, 0),
        Workload::HitVerified => (out.service.proofs_generated, proved, hits) == (2, 0, queries),
        // Each requery is followed by one fetch of the proof it cached.
        Workload::AppendRequery => (proved, hits) == (queries, queries),
    };
    if !as_defined {
        return Err(format!(
            "{queries} queries made {proved} proofs and {hits} cache hits"
        ));
    }

    // ---- proof size, circuit size and the tamper checks, from the cache
    let distinct: &[Query] = match workload {
        Workload::Q1Cold | Workload::Q5Cold => &texts[..ops],
        Workload::HitVerified => &hit_pair,
        Workload::AppendRequery => std::slice::from_ref(&standard_q1),
    };
    let mut total_bytes = 0;
    for q in distinct {
        let (k, bytes) = fetch(stand, out, q)?;
        out.k = out.k.max(k);
        total_bytes += bytes;
    }
    out.proof_bytes = total_bytes as f64 / distinct.len() as f64;

    out.attempted += 1;
    let last = distinct.last().expect("at least one query ran");
    let (plan, response, _) = layers::service_fetch(&mut stand.client, &stand.digest, &last.sql)?;
    oracle::tamper_check(&stand.params, stand.oracle.db(), &plan, &response, seed)
}

/// One verified query, timed from the SQL text leaving to the verified
/// table arriving, then checked against the oracle outside that interval.
fn query(stand: &mut Stand, out: &mut Outcome, q: &Query, expect_hit: bool) -> Result<(), String> {
    out.attempted += 1;
    let start = Instant::now();
    let answer =
        layers::service_query_verified(&mut stand.client, &stand.params, &stand.digest, &q.sql);
    let took = start.elapsed();
    let (table, hit) = answer?;
    out.query_s.push(took.as_secs_f64());
    if hit != expect_hit {
        return Err(format!(
            "cache hit was {hit}, the workload defines {expect_hit}"
        ));
    }
    stand.oracle.check(q, &table)
}

/// One single-row append, timed; the oracle's copy and the digest follow.
fn append(stand: &mut Stand, out: &mut Outcome, rows: &mut InputRng) -> Result<(), String> {
    out.attempted += 1;
    let lineitem = stand.oracle.db().table("lineitem").expect("lineitem");
    let batch = [inputs::lineitem_row(rows, lineitem)];
    let start = Instant::now();
    let acked = layers::service_append(&mut stand.client, &stand.digest, "lineitem", &batch);
    let took = start.elapsed();
    let new_digest = acked?;
    out.append_ms.push(took.as_secs_f64() * 1e3);
    if new_digest == stand.digest {
        return Err("an append left the digest unchanged".into());
    }
    stand.digest = new_digest;
    stand.oracle.append("lineitem", &batch);
    Ok(())
}

/// `(k, proof bytes)` of a proof that must already be in the cache.
fn fetch(stand: &mut Stand, out: &mut Outcome, q: &Query) -> Result<(u32, usize), String> {
    out.attempted += 1;
    let (_, response, hit) = layers::service_fetch(&mut stand.client, &stand.digest, &q.sql)?;
    if !hit {
        return Err("a proof expected in the cache was proven again".into());
    }
    Ok((
        layers::response_k(&response),
        layers::response_proof_bytes(&response),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request per workload, all the way through: set-up, the wire,
    /// the oracle, the cache invariants and the tamper checks.
    fn smoke(workload: Workload) -> Outcome {
        let (mut stand, _) = set_up(11, &mut Tracer::new(false)).unwrap();
        let mut out = measure(&mut stand, workload, 11, Stop::Ops(1));
        append_tail(&mut stand, &mut out, 11);
        assert_eq!(out.failures, Vec::<String>::new());
        assert_eq!(out.failed, 0);
        assert_eq!(out.query_s.len(), 1);
        assert_eq!(out.k, 9);
        assert!(out.proof_bytes > 50_000.0 && out.peak_heap_mb > 0.0 && out.busy_s > 0.0);
        assert_eq!(out.append_ms.len(), APPEND_SAMPLES);
        out
    }

    #[test]
    fn smoke_q1_cold() {
        let out = smoke(Workload::Q1Cold);
        assert_eq!(
            (out.service.proofs_generated, out.service.cache_hits),
            (1, 0)
        );
        // the query, the cache-use check, the fetch of its proof, the
        // tamper check, and the appends
        assert_eq!(out.attempted, 4 + APPEND_SAMPLES as u64);
    }

    #[test]
    fn smoke_q5_cold() {
        let out = smoke(Workload::Q5Cold);
        assert_eq!(
            (out.service.proofs_generated, out.service.cache_hits),
            (1, 0)
        );
    }

    #[test]
    fn smoke_hit_verified() {
        let out = smoke(Workload::HitVerified);
        assert_eq!(
            (out.service.proofs_generated, out.service.cache_hits),
            (2, 1)
        );
        assert!(out.warmup_s > out.query_s[0]);
        // Q1 was keyed by the warm-up; the hit reused that key.
        assert_eq!((out.verifier_keygens, out.verifier_key_cache_hits), (2, 1));
    }

    #[test]
    fn smoke_append_requery() {
        let out = smoke(Workload::AppendRequery);
        // Counted when the measured phase ended, before the tail.
        assert_eq!(out.service.mutations, APPENDS_PER_CYCLE as u64);
        assert_eq!(out.service.proofs_generated, 1);
    }

    #[test]
    fn names_round_trip_and_reasons_fit_one_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("q9_cold"), None);
    }
}
