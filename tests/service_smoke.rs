//! End-to-end service smoke test: a proving service on an ephemeral TCP
//! port, concurrent clients, proof verification from public info only, and
//! the cache-hit guarantee (the second identical query never re-proves,
//! asserted via the service's prove counter). Covers digest addressing,
//! SQL-over-the-wire, and what the server does with a frame tag it does
//! not know.

use poneglyphdb::par::par_map;
use poneglyphdb::prelude::*;
use poneglyphdb::service::protocol::{
    decode_sql_response, encode_sql_request, read_frame, write_frame, REQ_METRICS, REQ_SQL,
    RESP_ERR, RESP_METRICS, RESP_SQL,
};
use poneglyphdb::service::ServiceServer;
use poneglyphdb::sql::{CmpOp, ColumnType, Predicate, Schema, Table};
use std::sync::Arc;

fn test_db() -> Database {
    let mut db = Database::new();
    let mut t = Table::empty(Schema::new(&[
        ("id", ColumnType::Int),
        ("grp", ColumnType::Int),
        ("val", ColumnType::Int),
    ]));
    for (id, grp, val) in [
        (1, 7, 10),
        (2, 8, 20),
        (3, 7, 30),
        (4, 8, 40),
        (5, 7, 50),
        (6, 9, 60),
    ] {
        t.push_row(&[id, grp, val]);
    }
    db.add_table("t", t);
    db
}

fn second_db() -> Database {
    let mut db = Database::new();
    let mut t = Table::empty(Schema::new(&[
        ("id", ColumnType::Int),
        ("grp", ColumnType::Int),
        ("val", ColumnType::Int),
    ]));
    for (id, grp, val) in [(1, 1, 15), (2, 1, 25), (3, 2, 35)] {
        t.push_row(&[id, grp, val]);
    }
    db.add_table("t", t);
    db
}

fn query_plan() -> Plan {
    Plan::Filter {
        input: Box::new(Plan::Scan { table: "t".into() }),
        predicates: vec![Predicate::ColConst {
            col: 2,
            op: CmpOp::Ge,
            value: 20,
        }],
    }
}

/// The same query spelled differently: an extra always-true predicate
/// order and a chained filter. Canonicalization must make this share the
/// cached proof of [`query_plan`]'s canonical sibling below.
fn reordered_two_pred_plan(flip: bool) -> Plan {
    let p1 = Predicate::ColConst {
        col: 2,
        op: CmpOp::Ge,
        value: 20,
    };
    let p2 = Predicate::ColConst {
        col: 0,
        op: CmpOp::Le,
        value: 6,
    };
    let predicates = if flip { vec![p2, p1] } else { vec![p1, p2] };
    Plan::Filter {
        input: Box::new(Plan::Scan { table: "t".into() }),
        predicates,
    }
}

/// A service hosting `test_db()` alone, and the digest that addresses it.
fn host(params: &IpaParams, config: ServiceConfig) -> (Arc<ProvingService>, [u8; 64]) {
    let service = Arc::new(ProvingService::empty(params.clone(), config));
    let digest = service.attach(test_db());
    (service, digest)
}

#[test]
fn concurrent_clients_over_tcp_share_one_proof() {
    let params = IpaParams::setup(11);
    let (service, digest) = host(
        &params,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // The same query from two threads at once: in-flight deduplication
    // means exactly one proof is generated, and both responses verify.
    let results: Vec<(Table, bool)> = par_map(Parallelism::new(2), &[(); 2], |_, _| {
        let mut client = ServiceClient::connect(addr).expect("connect");
        client
            .query_verified_on(&params, &digest, &query_plan())
            .expect("query + verify")
    });

    let expected = poneglyphdb::sql::execute(&test_db(), &query_plan())
        .unwrap()
        .output;
    for (table, _) in &results {
        assert_eq!(table, &expected, "both clients get the verified result");
    }
    assert_eq!(
        service.stats().proofs_generated,
        1,
        "concurrent identical queries must share one proof"
    );

    // A third request is now a guaranteed cache hit, served without
    // touching the prover.
    let mut client = ServiceClient::connect(addr).expect("connect");
    let (table, cache_hit) = client
        .query_verified_on(&params, &digest, &query_plan())
        .expect("cached query");
    assert_eq!(table, expected);
    assert!(cache_hit, "repeat query must come from the proof cache");
    assert_eq!(
        service.stats().proofs_generated,
        1,
        "cache hit must not invoke the prover"
    );
    assert!(service.stats().cache_hits >= 1);

    // Semantically identical plans with reordered predicates share one
    // proof over TCP — and the shared proof verifies for both spellings
    // through the client's cached verifier session (one compile+keygen
    // for the pair).
    let stats_before = service.stats();
    let session_before = client.verifier_stats(&digest).expect("session exists");
    let (r1, hit1) = client
        .query_verified_on(&params, &digest, &reordered_two_pred_plan(false))
        .expect("two-pred query");
    let (r2, hit2) = client
        .query_verified_on(&params, &digest, &reordered_two_pred_plan(true))
        .expect("reordered two-pred query");
    assert_eq!(r1, r2);
    assert!(!hit1, "first spelling is a fresh proof");
    assert!(hit2, "reordered spelling must hit the same cache entry");
    assert_eq!(
        service.stats().proofs_generated,
        stats_before.proofs_generated + 1
    );
    let session_after = client.verifier_stats(&digest).expect("session exists");
    assert_eq!(
        session_after.keygens,
        session_before.keygens + 1,
        "both spellings share one verifying key"
    );

    server.stop();
}

#[test]
fn sql_and_multi_db_round_trip() {
    let params = IpaParams::setup(11);
    let service = Arc::new(ProvingService::empty(
        params.clone(),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let d1 = service.attach(test_db());
    let d2 = service.attach(second_db());
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    // Info advertises both databases with their shapes and counters.
    let info = client.info().expect("info");
    assert_eq!(info.protocol, poneglyphdb::service::PROTOCOL_VERSION);
    assert_eq!(info.databases.len(), 2);
    assert!(info.database(&d1).is_some() && info.database(&d2).is_some());

    // SQL text against a named digest: the server plans it, the client
    // verifies the response against the echoed canonical plan.
    let sql = "SELECT id, val FROM t WHERE val >= 20";
    let (result, plan, _) = client
        .query_verified_sql(&params, &d1, sql)
        .expect("sql round trip");
    assert_eq!(result.len(), 5, "five rows of test_db satisfy val >= 20");

    // The same SQL against the *other* database gives that database's
    // answer, independently proven and verified.
    let (result2, _, _) = client
        .query_verified_sql(&params, &d2, sql)
        .expect("sql on second db");
    assert_eq!(result2.len(), 2, "two rows of second_db satisfy val >= 20");

    // Cross-database confusion is rejected: a response proven against d2
    // cannot verify under d1's session (different table sizes → different
    // circuit), and naming an unknown digest is a clean server error.
    let (_, wire2) = client.query_sql(&d2, sql).expect("raw response from d2");
    let v1 = VerifierSession::new(params.clone(), service.shape_of(&d1).expect("shape"));
    assert!(
        v1.verify(&plan, &wire2.response).is_err(),
        "swapped-digest response must not verify"
    );
    let unknown = [0xABu8; 64];
    match client.query_sql(&unknown, sql) {
        Err(poneglyphdb::service::ClientError::Server(msg)) => {
            assert!(msg.contains("no database"), "{msg}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    // Per-database counters are live over REQ_INFO.
    let info = client.info().expect("info refresh");
    let db1 = info.database(&d1).expect("d1 advertised");
    let db2 = info.database(&d2).expect("d2 advertised");
    assert_eq!(db1.proofs_generated, 1);
    assert_eq!(db2.proofs_generated, 1);

    // Detaching the first-attached database leaves the other addressable,
    // and REQ_INFO lists exactly what remains.
    assert!(service.detach(&d1));
    let info = client.info().expect("info after detach");
    let advertised: Vec<_> = info.databases.iter().map(|d| d.digest).collect();
    assert_eq!(advertised, vec![d2]);
    let (again, _, cache_hit) = client
        .query_verified_sql(&params, &d2, sql)
        .expect("d2 after detach");
    assert_eq!(again, result2);
    assert!(cache_hit, "d2's cached proof survives d1's detach");
    assert!(matches!(
        client.query_sql(&d1, sql),
        Err(poneglyphdb::service::ClientError::Server(_))
    ));

    server.stop();
}

/// The numeric value of the first sample of `name` whose line contains
/// every fragment (comments skipped), or 0.0 when the series is absent.
fn scrape_value(text: &str, name: &str, frags: &[&str]) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            let series = l.split_whitespace().next().unwrap_or("");
            series == name || series.starts_with(&format!("{name}{{"))
        })
        .find(|l| frags.iter().all(|f| l.contains(f)))
        .and_then(|l| l.split_whitespace().last()?.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn unknown_frame_tag_is_refused_counted_and_survivable() {
    // 0x02 was the bare-plan query of protocol v1..v4; v5 has no such
    // frame, so it gets the answer any unknown tag gets.
    let params = IpaParams::setup(11);
    let (service, digest) = host(&params, ServiceConfig::default());
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut exchange = |tag: u8, payload: &[u8]| {
        write_frame(&mut stream, tag, payload).expect("write");
        read_frame(&mut stream).expect("read").expect("a frame")
    };
    let unknown_count = |scrape: (u8, Vec<u8>)| {
        assert_eq!(scrape.0, RESP_METRICS);
        let text = String::from_utf8(scrape.1).expect("utf-8 metrics");
        scrape_value(&text, "poneglyph_requests_total", &["kind=\"unknown\""])
    };

    let before = unknown_count(exchange(REQ_METRICS, &[]));
    let plan_bytes = poneglyphdb::sql::plan_to_bytes(&query_plan());
    let (tag, body) = exchange(0x02, &plan_bytes);
    assert_eq!(tag, RESP_ERR);
    assert_eq!(String::from_utf8_lossy(&body), "unknown request type 0x02");
    let after = unknown_count(exchange(REQ_METRICS, &[]));
    assert!(after >= before + 1.0, "{before} -> {after}");

    // The same connection still serves a real request, correctly.
    let sql = "SELECT id, val FROM t WHERE val >= 20";
    let (tag, body) = exchange(REQ_SQL, &encode_sql_request(&digest, sql));
    assert_eq!(tag, RESP_SQL);
    let (cache_hit, plan, response) = decode_sql_response(&body).expect("decode");
    assert!(!cache_hit);
    let verifier = VerifierSession::new(params, service.shape_of(&digest).expect("shape"));
    let verified = verifier.verify(&plan, &response).expect("verify");
    assert_eq!(verified.len(), 5);
    assert_eq!(service.stats().proofs_generated, 1, "only the SQL proved");

    server.stop();
}

#[test]
fn metrics_scrapes_stay_monotone_across_requests() {
    // Two scrapes bracketing a proved query plus a cached repeat: every
    // core counter series is non-decreasing, and the ones the traffic must
    // move (requests, proofs, hits) strictly increase.
    let params = IpaParams::setup(11);
    let (service, digest) = host(&params, ServiceConfig::default());
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    let first = client.metrics().expect("first scrape");
    client
        .query_verified_on(&params, &digest, &query_plan())
        .expect("proved query");
    client
        .query_verified_on(&params, &digest, &query_plan())
        .expect("cached repeat");
    let second = client.metrics().expect("second scrape");

    const CORE_COUNTERS: &[&str] = &[
        "poneglyph_proofs_generated_total",
        "poneglyph_proof_cache_hits_total",
        "poneglyph_proof_cache_misses_total",
        "poneglyph_inflight_dedups_total",
        "poneglyph_mutations_total",
        "poneglyph_rows_appended_total",
        "poneglyph_queue_wait_nanos_count",
        "poneglyph_keygens_total",
    ];
    for name in CORE_COUNTERS {
        assert!(
            scrape_value(&second, name, &[]) >= scrape_value(&first, name, &[]),
            "{name} went backwards between scrapes"
        );
    }
    let queries = ["kind=\"query_db\""];
    assert!(
        scrape_value(&second, "poneglyph_requests_total", &queries)
            >= scrape_value(&first, "poneglyph_requests_total", &queries) + 2.0,
        "two wire queries must be counted"
    );
    assert!(
        scrape_value(&second, "poneglyph_proofs_generated_total", &[])
            > scrape_value(&first, "poneglyph_proofs_generated_total", &[]),
        "the proved query must move the proof counter"
    );
    assert!(
        scrape_value(&second, "poneglyph_proof_cache_hits_total", &[])
            > scrape_value(&first, "poneglyph_proof_cache_hits_total", &[]),
        "the repeat must move the cache-hit counter"
    );

    server.stop();
}

#[test]
fn server_reports_clean_errors_for_bad_requests() {
    let params = IpaParams::setup(11);
    let (service, digest) = host(&params, ServiceConfig::default());
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");

    // Unknown table: the prover fails, the connection survives.
    let missing = Plan::Scan {
        table: "nope".into(),
    };
    match client.query_on(&digest, &missing) {
        Err(poneglyphdb::service::ClientError::Server(msg)) => {
            assert!(msg.contains("nope") || msg.contains("proving"), "{msg}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    // Malformed SQL is a clean error, not a hangup.
    match client.query_sql(&digest, "SELEKT broken FROM") {
        Err(poneglyphdb::service::ClientError::Server(_)) => {}
        other => panic!("expected a server error, got {other:?}"),
    }

    // The same connection still answers good queries afterwards.
    let info = client.info().expect("info after error");
    assert!(info.database(&digest).is_some());
    let wire = client.query_on(&digest, &query_plan()).expect("good query");
    assert!(!wire.response.result.is_empty());
}
