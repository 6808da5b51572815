//! # poneglyph-bench
//!
//! Shared measurement machinery for regenerating the paper's evaluation:
//! a peak-tracking global allocator (the memory axis of Figures 7/10), wall
//! timers, and the experiment drivers of the `repro` binary, the one way
//! to regenerate a paper table or figure.

use poneglyph_baselines::{libra, sqlcirc, zksql};
use poneglyph_core::{GateSet, Parallelism, ProverSession, VerifierSession};
use poneglyph_pcs::IpaParams;
use poneglyph_plonkish::{keygen_pk_with, prove_timed};
use poneglyph_sql::{execute, Database, Plan};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A global allocator that tracks current and peak heap usage.
pub struct PeakAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(cur, Ordering::SeqCst);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

impl PeakAlloc {
    /// Reset the peak to the current level.
    pub fn reset_peak() {
        PEAK.store(CURRENT.load(Ordering::SeqCst), Ordering::SeqCst);
    }
    /// Peak heap bytes since the last reset.
    pub fn peak_bytes() -> usize {
        PEAK.load(Ordering::SeqCst)
    }
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Time a closure and capture peak heap growth.
pub fn timed_with_peak<T>(f: impl FnOnce() -> T) -> (T, Duration, usize) {
    PeakAlloc::reset_peak();
    let base = PeakAlloc::peak_bytes();
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    let peak = PeakAlloc::peak_bytes().saturating_sub(base);
    (out, elapsed, peak)
}

/// The bench scale (lineitem rows); `PONEGLYPH_SCALE` overrides. The paper
/// runs 60k/120k/240k; the default here is 1/250 of that so the whole suite
/// fits in CI — circuit size is linear in rows (§5.6), preserving shape.
pub fn base_scale() -> usize {
    std::env::var("PONEGLYPH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(240)
}

/// Deterministic bench RNG.
pub fn rng() -> StdRng {
    StdRng::seed_from_u64(0xbe5c)
}

/// One PoneglyphDB prove+verify measurement.
pub struct QueryMeasurement {
    /// Query label.
    pub name: String,
    /// Proving wall time.
    pub prove: Duration,
    /// Verification wall time.
    pub verify: Duration,
    /// Peak heap during proving.
    pub peak_bytes: usize,
    /// Serialized proof size.
    pub proof_bytes: usize,
    /// Circuit size (log2 rows) or depth for Libra.
    pub k: u32,
}

/// Prove and verify one query, measuring everything (Figures 7/10, Table 4).
pub fn measure_query(
    params: &IpaParams,
    db: &Database,
    name: &str,
    plan: &Plan,
) -> QueryMeasurement {
    let mut r = rng();
    // Cold semantics (the paper's metric): fresh sessions, nothing
    // amortized across queries. Sessions are built outside the timed
    // region so the measured peak stays the prover's own footprint.
    let prover = ProverSession::new(params.clone(), db.clone());
    let (response, prove, peak) = timed_with_peak(|| prover.prove(plan, &mut r).expect("prove"));
    let verifier = VerifierSession::new(params.clone(), poneglyph_core::database_shape(db));
    let (_, verify) = timed(|| verifier.verify(plan, &response).expect("verify"));
    QueryMeasurement {
        name: name.to_string(),
        prove,
        verify,
        peak_bytes: peak,
        proof_bytes: response.proof_size(),
        k: response.k,
    }
}

/// ZKSQL-baseline measurement of one query (Figure 7).
pub fn measure_zksql(
    params: &IpaParams,
    db: &Database,
    name: &str,
    plan: &Plan,
) -> QueryMeasurement {
    let mut r = rng();
    let (session, prove, peak) =
        timed_with_peak(|| zksql::prove_interactive(params, db, plan, &mut r).expect("zksql"));
    let (ok, verify) = timed(|| zksql::verify_interactive(params, &session));
    ok.expect("zksql verify");
    QueryMeasurement {
        name: name.to_string(),
        prove,
        verify,
        peak_bytes: peak,
        proof_bytes: session.total_proof_size(),
        k: session.num_rounds() as u32,
    }
}

/// Libra-baseline measurement (Table 4): a full-64-bit bitwise filter
/// circuit shaped by the query's comparison count over `rows` rows.
pub fn measure_libra(db: &Database, name: &str, ncols: usize, rows: usize) -> QueryMeasurement {
    let li = db.table("lineitem").expect("lineitem");
    let rows = rows.min(li.len());
    let columns: Vec<Vec<u64>> = (0..ncols)
        .map(|c| {
            let col = (4 + c) % li.cols.len();
            li.cols[col][..rows].iter().map(|v| *v as u64).collect()
        })
        .collect();
    let thresholds: Vec<u64> = (0..ncols).map(|c| 1 << (10 + 4 * c)).collect();
    let (circuit, inputs) = sqlcirc::filter_count_circuit(&columns, &thresholds, 64);
    let (proof, prove, peak) = timed_with_peak(|| libra::prove(&circuit, &inputs));
    let (ok, verify) = timed(|| libra::verify(&circuit, &inputs, &proof));
    assert!(ok, "libra verify");
    QueryMeasurement {
        name: name.to_string(),
        prove,
        verify,
        peak_bytes: peak,
        proof_bytes: proof.size_in_bytes(),
        k: circuit.depth() as u32,
    }
}

/// Per-phase proving breakdown (Figures 8/9): the incremental cost of each
/// gate family, measured by proving progressively richer circuits.
pub fn breakdown(params: &IpaParams, db: &Database, plan: &Plan) -> Vec<(String, Duration)> {
    let stages: Vec<(&str, GateSet)> = vec![
        ("circuit without any gates", GateSet::none()),
        (
            "filters",
            GateSet {
                filters: true,
                ..GateSet::none()
            },
        ),
        (
            "joins",
            GateSet {
                filters: true,
                joins: true,
                ..GateSet::none()
            },
        ),
        (
            "group-by and order-by",
            GateSet {
                filters: true,
                joins: true,
                sorts: true,
                group_by: true,
                ..GateSet::none()
            },
        ),
        ("aggregations", GateSet::default()),
    ];
    let trace = execute(db, plan).expect("execute");
    let mut out = Vec::new();
    let mut prev = Duration::ZERO;
    for (label, gates) in stages {
        let mut r = rng();
        let compiled = poneglyph_core::compile(db, plan, Some(&trace), gates).expect("compile");
        let params_k = params.truncate(compiled.asn.k);
        let (_, total) = timed(|| {
            let par = Parallelism::auto();
            let pk = keygen_pk_with(&params_k, &compiled.cs, &compiled.asn, par);
            prove_timed(&params_k, &pk, compiled.asn.clone(), &mut r, par).expect("prove")
        });
        let delta = total.saturating_sub(prev);
        out.push((
            label.to_string(),
            if label.starts_with("circuit") {
                total
            } else {
                delta
            },
        ));
        prev = total;
    }
    out
}

/// Pretty-print seconds.
pub fn secs(d: Duration) -> String {
    format!("{:8.2}s", d.as_secs_f64())
}

/// Pretty-print megabytes.
pub fn mb(bytes: usize) -> String {
    format!("{:7.1} MB", bytes as f64 / 1_048_576.0)
}
