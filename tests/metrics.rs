//! Observability integration tests, end to end: the metrics registry under
//! 8-way parallel writers, the v4 `REQ_METRICS` wire round trip with the
//! acceptance series populated, the HTTP scrape endpoint, the slow-query
//! ring, and the per-session isolation of stage timings.
//!
//! These tests leave metrics at the default (enabled) and only ever grow
//! counters, so they can share one process registry; the on/off toggle is
//! exercised in `metrics_determinism.rs`, a separate binary.

use poneglyphdb::prelude::*;
use poneglyphdb::service::{digest_hex, ServiceServer};
use poneglyphdb::sql::{ColumnType, Schema};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn test_db() -> Database {
    let mut db = Database::new();
    let mut t = Table::empty(Schema::new(&[
        ("id", ColumnType::Int),
        ("grp", ColumnType::Int),
        ("val", ColumnType::Int),
    ]));
    for (id, grp, val) in [(1, 7, 10), (2, 8, 20), (3, 7, 30), (4, 8, 40)] {
        t.push_row(&[id, grp, val]);
    }
    db.add_table("t", t);
    db
}

/// The value of the series `name{...label_frags...}`, if present: scans
/// sample lines (skipping comments), requiring every fragment to appear in
/// the line, and parses the trailing token.
fn series_value(text: &str, name: &str, label_frags: &[&str]) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter(|l| {
            let series = l.split_whitespace().next().unwrap_or("");
            series == name || series.starts_with(&format!("{name}{{"))
        })
        .find(|l| label_frags.iter().all(|frag| l.contains(frag)))
        .and_then(|l| l.split_whitespace().last()?.parse().ok())
}

/// Every sample line of a Prometheus text exposition must be
/// `series value` with a finite numeric value, and every series must be
/// introduced by `# HELP` / `# TYPE` headers.
fn assert_parseable_exposition(text: &str) {
    let mut described = std::collections::BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            described.insert(rest.split_whitespace().next().unwrap().to_string());
            continue;
        }
        if line.starts_with("# TYPE ") || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let series = tokens.next().expect("sample line has a series");
        let value: f64 = tokens
            .next()
            .unwrap_or_else(|| panic!("no value on: {line}"))
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value on: {line}"));
        assert!(value.is_finite(), "non-finite value on: {line}");
        assert!(tokens.next().is_none(), "trailing tokens on: {line}");
        let base = series.split('{').next().unwrap();
        let family = base
            .strip_suffix("_bucket")
            .or_else(|| base.strip_suffix("_sum"))
            .or_else(|| base.strip_suffix("_count"))
            .filter(|f| described.contains(*f))
            .unwrap_or(base);
        assert!(
            described.contains(family),
            "series {series} has no # HELP header"
        );
    }
}

#[test]
fn par_map_counter_increments_are_exact_across_8_threads() {
    let counter =
        poneglyphdb::obs::global().counter("test_par_map_ticks_total", &[], "test counter");
    let before = counter.get();
    let items: Vec<u64> = (0..4096).collect();
    let out = poneglyphdb::par::par_map(Parallelism::new(8), &items, |_, item| {
        counter.inc();
        item + 1
    });
    assert_eq!(out.len(), items.len());
    assert_eq!(
        counter.get() - before,
        items.len() as u64,
        "no increment may be lost or doubled under 8-way parallelism"
    );
}

#[test]
fn wire_metrics_round_trip_covers_the_acceptance_series() {
    let params = IpaParams::setup(11);
    let service = Arc::new(ProvingService::empty(
        params.clone(),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let digest = service.attach_with_pks(test_db(), &[("t", "id")]);
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    // One proved query (miss), one repeat (hit) — both verified client-side
    // in this process, so the verify histogram populates too.
    let sql = "SELECT id, val FROM t WHERE val >= 20";
    let (_, _, hit1) = client
        .query_verified_sql(&params, &digest, sql)
        .expect("sql");
    let (_, _, hit2) = client
        .query_verified_sql(&params, &digest, sql)
        .expect("sql repeat");
    assert!(!hit1 && hit2, "second identical query must be a cache hit");

    // First scrape: before the mutation, while the cached proof is still
    // resident (the append below invalidates it).
    let text = client.metrics().expect("REQ_METRICS round trip");
    assert_parseable_exposition(&text);

    // Per-stage prove spans, recorded through the session layer.
    for span in ["prove.commit", "prove.quotient", "prove.open"] {
        let frag = format!("span=\"{span}\"");
        let count = series_value(&text, "poneglyph_span_nanos_count", &[&frag])
            .unwrap_or_else(|| panic!("missing span series {span}:\n{text}"));
        assert!(count >= 1.0, "span {span} never observed");
    }
    // Queue wait, cache traffic, occupancy, prover sizing.
    assert!(series_value(&text, "poneglyph_queue_wait_nanos_count", &[]).unwrap() >= 2.0);
    assert!(series_value(&text, "poneglyph_proof_cache_misses_total", &[]).unwrap() >= 1.0);
    assert!(series_value(&text, "poneglyph_proof_cache_hits_total", &[]).unwrap() >= 1.0);
    assert!(series_value(&text, "poneglyph_proof_cache_bytes", &[]).unwrap() > 0.0);
    assert!(series_value(&text, "poneglyph_proof_cache_entries", &[]).unwrap() >= 1.0);
    assert!(series_value(&text, "poneglyph_prover_threads", &[]).unwrap() >= 1.0);
    assert!(series_value(&text, "poneglyph_proofs_generated_total", &[]).unwrap() >= 1.0);
    // Client-side verification latency (same process, same registry).
    assert!(
        series_value(&text, "poneglyph_verify_nanos_count", &["kind=\"single\""]).unwrap() >= 2.0
    );
    // Kernel-size histograms fed by the prover's FFT/MSM call sites.
    assert!(series_value(&text, "poneglyph_fft_size_count", &[]).unwrap() >= 1.0);
    assert!(series_value(&text, "poneglyph_msm_size_count", &[]).unwrap() >= 1.0);
    assert!(series_value(&text, "poneglyph_keygens_total", &["kind=\"pk\""]).unwrap() >= 1.0);
    // Wire request accounting, including this scrape itself.
    assert!(series_value(&text, "poneglyph_requests_total", &["kind=\"sql\""]).unwrap() >= 2.0);
    assert!(series_value(&text, "poneglyph_requests_total", &["kind=\"metrics\""]).unwrap() >= 1.0);

    // A mutation advances the epoch gauge for the successor digest; scrape
    // again to observe it.
    let ack = client
        .append_rows(&digest, "t", &[vec![5, 9, 50]])
        .expect("append");
    assert_eq!(ack.epoch, 1);
    let text = client.metrics().expect("post-append scrape");
    assert_parseable_exposition(&text);
    assert!(series_value(&text, "poneglyph_requests_total", &["kind=\"append\""]).unwrap() >= 1.0);
    // Mutation accounting and the per-database epoch gauge: the successor
    // digest reports epoch 1, and the retired pre-append digest's series
    // is gone (clear-and-rebuild on scrape).
    assert!(series_value(&text, "poneglyph_mutations_total", &[]).unwrap() >= 1.0);
    assert!(series_value(&text, "poneglyph_rows_appended_total", &[]).unwrap() >= 1.0);
    let successor = format!("db=\"{}\"", digest_hex(&ack.new_digest[..16]));
    assert_eq!(
        series_value(&text, "poneglyph_db_epoch", &[&successor]),
        Some(1.0),
        "successor digest must advertise epoch 1:\n{text}"
    );
    assert_eq!(
        series_value(
            &text,
            "poneglyph_db_epoch",
            &[&format!("db=\"{}\"", digest_hex(&digest[..16]))]
        ),
        None,
        "retired digest must not linger in the epoch gauge"
    );

    // The slow-query ring saw both requests, and tagged the repeat as a
    // cache hit with no prove stages.
    let slowest = poneglyphdb::obs::ring().slowest(64);
    assert!(
        slowest.len() >= 2,
        "ring retained {} records",
        slowest.len()
    );
    assert!(
        slowest.iter().any(|r| r.cache_hit),
        "the repeat query must be ring-tagged as a cache hit"
    );
    assert!(
        slowest
            .iter()
            .any(|r| r.stages.iter().any(|(name, _)| *name == "prove.commit")),
        "the proved query's record must carry its stage breakdown"
    );

    server.stop();
}

#[test]
fn http_endpoint_serves_the_same_exposition() {
    // Populate at least one series deterministically before scraping.
    poneglyphdb::obs::global()
        .counter("test_http_scrapes_total", &[], "test counter")
        .inc();
    let http = poneglyphdb::obs::http::MetricsHttpServer::spawn(("127.0.0.1", 0), || {
        poneglyphdb::obs::global().render()
    })
    .expect("bind scrape endpoint");

    let mut stream = TcpStream::connect(http.local_addr()).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("text/plain"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("has a body");
    assert_parseable_exposition(body);
    assert!(series_value(body, "test_http_scrapes_total", &[]).unwrap() >= 1.0);

    // Unknown paths are clean 404s, not hangups or panics.
    let mut stream = TcpStream::connect(http.local_addr()).expect("connect");
    stream
        .write_all(b"GET /nope HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.0 404"), "{response}");

    http.stop();
}
