//! The traced run: the per-layer numbers.
//!
//! End-to-end numbers never come from here. This run sets up once with a
//! span around each step, sends a fixed number of the workload's requests
//! over the wire untraced (for the program's own counts and the latency
//! the decomposition must add up to), replays one request in-process with
//! a span around each call into a crate, replays it again with spans off
//! (the difference is the tracing overhead), and times the primitives
//! below the prover at the workload's circuit size.

use crate::inputs::{self, InputRng, Query};
use crate::json::Json;
use crate::layers::{self, Database, IpaParams};
use crate::oracle::Oracle;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, Outcome, Stop, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Traced {
    /// Every per-layer metric, by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
    pub wire: Outcome,
    /// FFT and MSM calls of the wire phase by size bucket, from the
    /// `REQ_METRICS` scrape: `series{le} -> calls`.
    pub by_size: BTreeMap<String, u64>,
}

/// Requests the wire phase sends: by count, never by time, so that the
/// program's own counters repeat exactly.
fn wire_ops(workload: Workload) -> usize {
    match workload {
        Workload::HitVerified => 16,
        _ => 1,
    }
}

/// The request the replay decomposes: the workload's first.
fn replayed_query(workload: Workload, seed: u64, oracle: &Oracle) -> Result<Query, String> {
    Ok(match workload {
        Workload::Q1Cold => inputs::q1_texts(seed).swap_remove(0),
        Workload::Q5Cold => inputs::q5_texts(seed, oracle)?.swap_remove(0),
        Workload::HitVerified | Workload::AppendRequery => inputs::q1(90),
    })
}

pub fn run(workload: Workload, seed: u64) -> Result<Traced, String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut t = Tracer::new(true);

    // ---- request 1: set-up, a span per step, and the commitment the
    // service made inside `service.host` once more on its own
    t.next_request();
    let (mut stand, _) = t.time("setup", |t| workloads::set_up(seed, t))?;
    let mut commitment = t.time("core.commit_db", |_| {
        layers::core_commit_db(&stand.params, stand.oracle.db())
    });
    m.insert("pcs.setup_ms", t.total_ms("pcs.setup"));
    m.insert("core.commit_db_ms", t.total_ms("core.commit_db"));

    let query = replayed_query(workload, seed, &stand.oracle)?;

    // ---- the wire phase, untraced, between two scrapes
    let scrape_before = layers::service_scrape(&mut stand.client)?;
    let wire = workloads::measure(&mut stand, workload, seed, Stop::Ops(wire_ops(workload)));
    let scrape_after = layers::service_scrape(&mut stand.client)?;
    if wire.failed > 0 {
        return Err(format!("wire phase failed: {:?}", wire.failures));
    }
    let delta = scrape_delta(&scrape_before, &scrape_after);
    let sum_of = |prefix: &str| -> f64 {
        delta
            .iter()
            .filter(|(series, _)| series.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    m.insert("obs.fft_count", sum_of("poneglyph_fft_size_count"));
    m.insert("obs.fft_points", sum_of("poneglyph_fft_size_sum"));
    m.insert("obs.msm_count", sum_of("poneglyph_msm_size_count"));
    m.insert("obs.msm_terms", sum_of("poneglyph_msm_size_sum"));
    m.insert("obs.keygens", sum_of("poneglyph_keygens_total"));
    let by_size = per_bucket(&delta);
    m.insert(
        "service.proofs_generated",
        wire.service.proofs_generated as f64,
    );
    m.insert("service.cache_hits", wire.service.cache_hits as f64);
    m.insert("service.cache_misses", wire.service.cache_misses as f64);
    m.insert("service.mutations", wire.service.mutations as f64);
    m.insert("client.keygens", wire.verifier_keygens as f64);
    m.insert("client.key_cache_hits", wire.verifier_key_cache_hits as f64);
    let wire_ms = median(&wire.query_s) * 1e3;
    m.insert("wire.query_ms", wire_ms);

    // The unverified round trip for a cached proof: the serving path alone.
    let mut fetch_ms = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        let (_, _, hit) = layers::service_fetch(&mut stand.client, &stand.digest, &query.sql)?;
        fetch_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !hit {
            return Err("service.fetch_ms timed a proof, not a cache hit".into());
        }
    }
    m.insert("service.fetch_ms", median(&fetch_ms));

    // The replay runs over the database as the wire request saw it; only
    // `append_requery` had grown it by then. The tail appends come after.
    let as_seen = Oracle::new(stand.oracle.db().clone());
    let mut wire = wire;
    workloads::append_tail(&mut stand, &mut wire, seed);
    if wire.failed > 0 {
        return Err(format!("tail appends failed: {:?}", wire.failures));
    }
    m.insert("wire.append_ms", median(&wire.append_ms));

    // ---- request 2: the replay, traced; then once more with spans off
    let oracle = &as_seen;
    t.next_request();
    let facts = t.time("replay", |t| replay(t, &stand.params, oracle, &query, seed))?;
    m.insert("replay.traced_ms", t.total_ms("replay"));
    let start = Instant::now();
    replay(&mut Tracer::new(false), &stand.params, oracle, &query, seed)?;
    m.insert("replay.untraced_ms", start.elapsed().as_secs_f64() * 1e3);
    m.insert(
        "trace_overhead_pct",
        (m["replay.traced_ms"] / m["replay.untraced_ms"] - 1.0) * 100.0,
    );

    for (metric, span) in [
        ("sql.parse_plan_ms", "sql.parse_plan"),
        ("sql.execute_ms", "sql.execute"),
        ("core.compile_ms", "core.compile"),
        ("plonkish.keygen_pk_ms", "plonkish.keygen_pk"),
        ("plonkish.prove_commit_ms", "plonkish.prove.commit"),
        ("plonkish.prove_quotient_ms", "plonkish.prove.quotient"),
        ("plonkish.prove_open_ms", "plonkish.prove.open"),
        ("core.encode_ms", "core.encode"),
        ("core.decode_ms", "core.decode"),
        ("core.verify_cold_ms", "core.verify_cold"),
        ("core.verify_warm_ms", "core.verify_warm"),
    ] {
        m.insert(metric, t.total_ms(span));
    }
    m.insert("core.k", f64::from(facts.k));
    m.insert("core.advice_columns", facts.advice_columns as f64);
    m.insert("core.fixed_columns", facts.fixed_columns as f64);
    m.insert("core.gates", facts.gates as f64);
    m.insert("core.lookups", facts.lookups as f64);
    m.insert("core.response_bytes", facts.response_bytes as f64);

    // What the wire latency holds beyond the stages that block it. A cache
    // hit waits for planning, encoding, decoding and a warm verify; every
    // other request for the whole prover and a cold verify as well.
    let blocking: &[&str] = match workload {
        Workload::HitVerified => &[
            "sql.parse_plan",
            "core.encode",
            "core.decode",
            "core.verify_warm",
        ],
        _ => &[
            "sql.parse_plan",
            "sql.execute",
            "core.compile",
            "plonkish.keygen_pk",
            "plonkish.prove",
            "core.encode",
            "core.decode",
            "core.verify_cold",
        ],
    };
    let timed: f64 = blocking.iter().map(|span| t.total_ms(span)).sum();
    m.insert("untimed_ms", wire_ms - timed);

    // ---- request 3: what lies below the prover, at this circuit size
    t.next_request();
    let lineitem = oracle.db().table("lineitem").expect("lineitem");
    t.time("primitives", |t| {
        primitives(t, &mut m, &stand.params, &facts, seed)?;
        // One-row appends against the commitment made in set-up.
        let mut rows = InputRng::new(seed, 13);
        let mut append_ms = Vec::new();
        t.time("core.append", |_| {
            (0..20).try_for_each(|_| {
                let batch = [inputs::lineitem_row(&mut rows, lineitem)];
                let start = Instant::now();
                layers::core_append(&mut commitment, &stand.params, "lineitem", &batch)?;
                append_ms.push(start.elapsed().as_secs_f64() * 1e3);
                Ok::<(), String>(())
            })
        })?;
        m.insert("core.append_ms", median(&append_ms));
        Ok::<(), String>(())
    })?;

    Ok(Traced {
        metrics: m,
        tracer: t,
        wire,
        by_size,
    })
}

/// Field, FFT, MSM and IPA costs at the replayed circuit's `k`, each the
/// median of three.
fn primitives(
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
    params: &IpaParams,
    facts: &ReplayFacts,
    seed: u64,
) -> Result<(), String> {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let params_k = layers::pcs_truncate(params, facts.k);
    let full = layers::scalars(facts.k, true, seed);
    let small = layers::scalars(facts.k, false, seed);
    let [mul, inv] = t.time("arith.fq", |_| {
        medians(&thrice(|| {
            [layers::arith_fq_mul_ns(), layers::arith_fq_inv_ns()]
        }))
    });
    m.insert("arith.fq_mul_ns", mul);
    m.insert("arith.fq_inv_ns", inv);
    let [ifft, coset_fft] = t.time("poly.fft", |_| {
        medians(&thrice(|| {
            layers::poly_ifft_then_coset_fft(&facts.pk, full.clone()).map(ms)
        }))
    });
    m.insert("poly.ifft_ms", ifft);
    m.insert("poly.coset_fft_ms", coset_fft);
    let [commit_full, commit_small] = t.time("pcs.commit", |_| {
        medians(&thrice(|| {
            [&full, &small].map(|scalars| {
                let start = Instant::now();
                layers::pcs_commit(&params_k, scalars);
                ms(start.elapsed())
            })
        }))
    });
    m.insert("pcs.commit_full_ms", commit_full);
    m.insert("pcs.commit_small_ms", commit_small);
    let opened = t.time("pcs.open_verify", |_| {
        thrice(|| layers::pcs_open_then_verify(&params_k, &full, seed))
    });
    let mut open_verify = [[0.0; 2]; 3];
    for (slot, times) in open_verify.iter_mut().zip(opened) {
        *slot = times?.map(ms);
    }
    let [open, verify] = medians(&open_verify);
    m.insert("pcs.open_ms", open);
    m.insert("pcs.verify_ms", verify);
    Ok(())
}

fn thrice<T>(mut f: impl FnMut() -> T) -> [T; 3] {
    [f(), f(), f()]
}

/// The median of three runs, position by position.
fn medians<const N: usize>(runs: &[[f64; N]; 3]) -> [f64; N] {
    std::array::from_fn(|i| median(&[runs[0][i], runs[1][i], runs[2][i]]))
}

struct ReplayFacts {
    k: u32,
    advice_columns: usize,
    fixed_columns: usize,
    gates: usize,
    lookups: usize,
    response_bytes: usize,
    pk: layers::ProvingKey,
}

/// One request, in-process, in the order the service and the client run
/// it: plan, execute, compile, key, prove, encode | decode, verify with no
/// keys, verify again with them. The verified table goes to the oracle.
fn replay(
    t: &mut Tracer,
    params: &IpaParams,
    oracle: &Oracle,
    query: &Query,
    seed: u64,
) -> Result<ReplayFacts, String> {
    let db: &Database = oracle.db();
    let plan = t.time("sql.parse_plan", |_| {
        layers::sql_parse_plan(db, oracle.catalog(), &query.sql)
    })?;
    let trace = t.time("sql.execute", |_| layers::sql_execute(db, &plan))?;
    let compiled = t.time("core.compile", |_| layers::core_compile(db, &plan, &trace))?;
    let (k, advice_columns, fixed_columns, gates, lookups) = layers::core_circuit_counts(&compiled);
    let params_k = layers::pcs_truncate(params, k);
    let pk = t.time("plonkish.keygen_pk", |_| {
        layers::plonkish_keygen_pk(&params_k, &compiled)
    });
    let result = layers::executed_output(&trace).clone();
    let response = t.time("plonkish.prove", |t| {
        let (response, [commit, quotient, open]) =
            layers::plonkish_prove(&params_k, &pk, compiled, result, seed)?;
        t.stages(&[
            ("plonkish.prove.commit", commit),
            ("plonkish.prove.quotient", quotient),
            ("plonkish.prove.open", open),
        ]);
        Ok::<_, String>(response)
    })?;
    let bytes = t.time("core.encode", |_| layers::core_encode(&response));
    let decoded = t.time("core.decode", |_| layers::core_decode(&bytes))?;
    let verifier = layers::core_verifier(params, db);
    let table = t.time("core.verify_cold", |_| {
        layers::core_verify(&verifier, &plan, &decoded)
    })?;
    t.time("core.verify_warm", |_| {
        layers::core_verify(&verifier, &plan, &decoded)
    })?;
    oracle.check(query, &table)?;
    Ok(ReplayFacts {
        k,
        advice_columns,
        fixed_columns,
        gates,
        lookups,
        response_bytes: bytes.len(),
        pk,
    })
}

/// Sample lines of a Prometheus text scrape as `series -> value`.
fn parse_scrape(text: &str) -> BTreeMap<&str, u64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series, value.parse().ok()?))
        })
        .collect()
}

/// How far each FFT-size, MSM-size and keygen series moved between two
/// scrapes; series that did not move are left out.
fn scrape_delta(before: &str, after: &str) -> BTreeMap<String, u64> {
    let before = parse_scrape(before);
    parse_scrape(after)
        .into_iter()
        .filter(|(series, _)| {
            [
                "poneglyph_fft_size",
                "poneglyph_msm_size",
                "poneglyph_keygens_total",
            ]
            .iter()
            .any(|name| series.starts_with(name))
        })
        .filter_map(|(series, now)| {
            let moved = now.checked_sub(before.get(series).copied().unwrap_or(0))?;
            (moved > 0).then(|| (series.to_string(), moved))
        })
        .collect()
}

/// Cumulative `_bucket{le=...}` deltas as calls per bucket.
fn per_bucket(delta: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for name in ["poneglyph_fft_size", "poneglyph_msm_size"] {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(f64, &str, u64)> = delta
            .iter()
            .filter_map(|(series, v)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, le, *v))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut below = 0;
        for (_, le, cumulative) in buckets {
            if cumulative > below {
                out.insert(format!("{name}{{le=\"{le}\"}}"), cumulative - below);
            }
            below = cumulative;
        }
    }
    out
}

impl Traced {
    /// `trace.json`: every span, with its self time.
    pub fn trace_json(&self, workload: Workload, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::str(workload.name())),
            ("seed", Json::from(seed)),
            ("spans", self.tracer.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# HELP poneglyph_fft_size FFT sizes\n\
        # TYPE poneglyph_fft_size histogram\n\
        poneglyph_fft_size_bucket{le=\"512\"} 4\n\
        poneglyph_fft_size_bucket{le=\"1024\"} 4\n\
        poneglyph_fft_size_bucket{le=\"+Inf\"} 4\n\
        poneglyph_fft_size_sum 2048\n\
        poneglyph_fft_size_count 4\n\
        poneglyph_keygens_total{kind=\"pk\"} 1\n\
        poneglyph_requests_total{kind=\"sql\"} 9\n";
    const AFTER: &str = "poneglyph_fft_size_bucket{le=\"512\"} 6\n\
        poneglyph_fft_size_bucket{le=\"1024\"} 9\n\
        poneglyph_fft_size_bucket{le=\"+Inf\"} 9\n\
        poneglyph_fft_size_sum 6144\n\
        poneglyph_fft_size_count 9\n\
        poneglyph_keygens_total{kind=\"pk\"} 1\n\
        poneglyph_keygens_total{kind=\"vk\"} 2\n\
        poneglyph_msm_size_bucket{le=\"16\"} 3\n\
        poneglyph_msm_size_bucket{le=\"+Inf\"} 3\n\
        poneglyph_requests_total{kind=\"sql\"} 12\n";

    #[test]
    fn the_replay_s_spans_cover_the_request() {
        let params = layers::pcs_setup(9);
        let oracle = Oracle::new(layers::tpch_generate(workloads::SCALE));
        let mut t = Tracer::new(true);
        t.next_request();
        let facts = t
            .time("replay", |t| {
                replay(t, &params, &oracle, &inputs::q1(75), 5)
            })
            .unwrap();
        assert_eq!(facts.k, 9);
        assert!(facts.response_bytes > 100_000 && facts.gates > 0 && facts.lookups > 0);

        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "replay",
                "sql.parse_plan",
                "sql.execute",
                "core.compile",
                "plonkish.keygen_pk",
                "plonkish.prove",
                "plonkish.prove.commit",
                "plonkish.prove.quotient",
                "plonkish.prove.open",
                "core.encode",
                "core.decode",
                "core.verify_cold",
                "core.verify_warm",
            ]
        );
        // The first verify compiles and keys the circuit; the second does not.
        assert!(t.total_ms("core.verify_cold") > t.total_ms("core.verify_warm"));
        // Nothing of the request runs outside a stage span: the root's own
        // time, and the prover's beyond its three stages, are under 1 %.
        let own = crate::trace::self_times(t.spans());
        let total = t.spans()[0].duration_ns();
        assert!(own[0] < total / 100, "root self time {} of {total}", own[0]);
        assert!(
            own[5] < total / 100,
            "prove self time {} of {total}",
            own[5]
        );
        assert_eq!(own.iter().sum::<u64>(), total);
    }

    #[test]
    fn scrape_delta_keeps_what_moved_in_the_three_series() {
        let delta = scrape_delta(BEFORE, AFTER);
        assert_eq!(delta["poneglyph_fft_size_count"], 5);
        assert_eq!(delta["poneglyph_fft_size_sum"], 4096);
        assert_eq!(delta["poneglyph_keygens_total{kind=\"vk\"}"], 2);
        assert!(!delta.contains_key("poneglyph_keygens_total{kind=\"pk\"}"));
        assert!(!delta
            .keys()
            .any(|s| s.starts_with("poneglyph_requests_total")));
    }

    #[test]
    fn cumulative_buckets_become_calls_per_size() {
        let by_size = per_bucket(&scrape_delta(BEFORE, AFTER));
        let expect: BTreeMap<String, u64> = [
            ("poneglyph_fft_size{le=\"512\"}", 2),
            ("poneglyph_fft_size{le=\"1024\"}", 3),
            ("poneglyph_msm_size{le=\"16\"}", 3),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        assert_eq!(by_size, expect);
    }
}
