//! The mutation subsystem end to end: homomorphic commitment equivalence
//! (property-style, over random batches including empty and
//! chunk-boundary-crossing appends), bounded verifier key caches, and the
//! acceptance scenario — a client appends rows **over TCP**, immediately
//! queries the successor digest with a verifying proof, while a
//! concurrently issued pre-append query still verifies against the
//! retained old snapshot.

use poneglyphdb::prelude::*;
use poneglyphdb::service::ServiceServer;
use poneglyphdb::sql::{CmpOp, ColumnType, Predicate, Schema, Table};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

fn int_table(widths: &[&str], rows: &[Vec<i64>]) -> Table {
    let cols: Vec<(&str, ColumnType)> = widths.iter().map(|n| (*n, ColumnType::Int)).collect();
    let mut t = Table::empty(Schema::new(&cols));
    for row in rows {
        t.push_row(row);
    }
    t
}

/// Random row batches against random base tables must leave the
/// homomorphically updated commitment *bit-identical* (digest and every
/// column commitment) to a fresh commit of the concatenated database.
#[test]
fn append_rows_matches_full_commit_on_random_batches() {
    // n = 8: tiny chunks, so batches routinely cross the generator-chunk
    // boundary (the case where per-cell generator indexing must wrap).
    let params = IpaParams::setup(3);
    let mut rng = StdRng::seed_from_u64(0xDE17A);

    for case in 0..12 {
        let mut db = Database::new();
        let base_a = (0..rng.gen_range(0..20))
            .map(|i| vec![i as i64, rng.gen_range(0..1_000_000) as i64])
            .collect::<Vec<_>>();
        db.add_table("a", int_table(&["id", "val"], &base_a));
        let base_b = (0..rng.gen_range(1..9))
            .map(|_| {
                vec![
                    rng.gen_range(0..100) as i64,
                    rng.gen_range(0..100) as i64,
                    // Near the top of the provable range: overflow in the
                    // encoding would show up as a digest mismatch.
                    ((1u64 << 56) - 2 - rng.gen_range(0..1000)) as i64,
                ]
            })
            .collect::<Vec<_>>();
        db.add_table("b", int_table(&["x", "y", "z"], &base_b));

        let mut commitment = DatabaseCommitment::commit(&params, &db);
        let mut log = DeltaLog::new();

        // A chain of random appends (sometimes empty) on both tables.
        for step in 0..4 {
            let (table, width) = if rng.gen_range(0..2) == 0 {
                ("a", 2)
            } else {
                ("b", 3)
            };
            let nrows = rng.gen_range(0..12) as usize;
            let rows: Vec<Vec<i64>> = (0..nrows)
                .map(|_| {
                    (0..width)
                        .map(|_| rng.gen_range(0..(1 << 56) - 1) as i64)
                        .collect()
                })
                .collect();
            let batch = RowBatch::new(table, rows);
            let applied = apply_append(&params, &mut db, &mut commitment, &mut log, &batch)
                .expect("append applies");
            let fresh = DatabaseCommitment::commit(&params, &db);
            assert_eq!(
                commitment, fresh,
                "case {case} step {step}: homomorphic update must be \
                 bit-identical to a fresh commit"
            );
            assert_eq!(applied.post_digest, fresh.digest());
        }
        assert_eq!(log.epoch(), 4);
    }
}

/// The two hand-picked boundary cases the random walk might miss: an
/// append that lands exactly on the chunk capacity, and an empty batch.
#[test]
fn append_rows_boundary_cases() {
    let params = IpaParams::setup(3); // n = 8
    let mut db = Database::new();
    let rows: Vec<Vec<i64>> = (0..5).map(|i| vec![i, 10 * i]).collect();
    db.add_table("t", int_table(&["id", "val"], &rows));
    let mut commitment = DatabaseCommitment::commit(&params, &db);
    let mut log = DeltaLog::new();

    // 5 → 8 rows: fills the first chunk exactly.
    let to_boundary = RowBatch::new("t", (5..8).map(|i| vec![i, 10 * i]).collect());
    apply_append(&params, &mut db, &mut commitment, &mut log, &to_boundary).expect("to boundary");
    assert_eq!(commitment, DatabaseCommitment::commit(&params, &db));

    // Empty batch: applies, logs, changes nothing.
    let before = commitment.digest();
    apply_append(
        &params,
        &mut db,
        &mut commitment,
        &mut log,
        &RowBatch::new("t", vec![]),
    )
    .expect("empty");
    assert_eq!(commitment.digest(), before);

    // 8 → 11 rows: starts a brand-new chunk.
    let past_boundary = RowBatch::new("t", (8..11).map(|i| vec![i, 10 * i]).collect());
    apply_append(&params, &mut db, &mut commitment, &mut log, &past_boundary)
        .expect("past boundary");
    assert_eq!(commitment, DatabaseCommitment::commit(&params, &db));
    assert_eq!(log.epoch(), 3);

    // The log chains digests across all three entries.
    let entries = log.entries();
    assert_eq!(entries[0].post_digest, entries[1].pre_digest);
    assert_eq!(entries[1].post_digest, entries[2].pre_digest);
}

fn query_db() -> Database {
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

/// The verifier session's key cache is LRU-bounded: evicted plans re-key
/// on return, and the cache never exceeds its capacity (the mutation-churn
/// guard). The prover session keeps no key cache at all.
#[test]
fn session_key_caches_are_bounded() {
    let params = IpaParams::setup(11);
    let db = query_db();
    let mut rng = StdRng::seed_from_u64(7);

    let prover = ProverSession::new(params.clone(), db.clone());
    let r20 = prover.prove(&filter_plan(20), &mut rng).expect("plan 20");
    let r30 = prover.prove(&filter_plan(30), &mut rng).expect("plan 30");

    let verifier = VerifierSession::with_key_capacity(params.clone(), database_shape(&db), 1);
    verifier.verify(&filter_plan(20), &r20).expect("verify 20");
    verifier.verify(&filter_plan(30), &r30).expect("verify 30");
    assert_eq!(verifier.key_cache_len(), 1);
    verifier
        .verify(&filter_plan(20), &r20)
        .expect("verify 20 again");
    assert_eq!(
        verifier.stats().keygens,
        3,
        "evicted plan re-compiles + re-keys"
    );

    // The default-capacity session keeps both plans keyed.
    let roomy = VerifierSession::new(params, database_shape(&db));
    roomy.verify(&filter_plan(20), &r20).expect("verify");
    roomy.verify(&filter_plan(30), &r30).expect("verify");
    roomy.verify(&filter_plan(20), &r20).expect("verify again");
    assert_eq!(roomy.stats().keygens, 2);
    assert_eq!(roomy.stats().key_cache_hits, 1);
}

/// The acceptance scenario, over real TCP: append → new digest →
/// immediate verified query against it, while a pre-append query in
/// flight on another connection completes and verifies against the old
/// snapshot. Also exercises the client-side session bound and epoch
/// advertisement.
#[test]
fn append_over_tcp_with_concurrent_pre_append_query() {
    let params = IpaParams::setup(11);
    let service = Arc::new(ProvingService::empty(
        params.clone(),
        ServiceConfig {
            workers: 1, // serialize proving: the pre-append job holds the worker
            ..ServiceConfig::default()
        },
    ));
    let d0 = service.attach(query_db());
    let old_shape = service.shape_of(&d0).expect("old shape");
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // A fresh (never-cached) query against the original digest, on its
    // own connection and thread: it must actually prove.
    let pre_append = std::thread::spawn(move || {
        let mut client = ServiceClient::connect(addr).expect("connect");
        client
            .query_on(&d0, &filter_plan(20))
            .expect("pre-append query")
    });

    // Wait until the worker has *started* that proof (the cache-miss
    // counter ticks before proving begins), so the append below is
    // genuinely concurrent with it.
    while service.stats().cache_misses == 0 {
        std::thread::yield_now();
    }

    let mut writer = ServiceClient::connect(addr).expect("connect");
    let appended = writer
        .append_rows(&d0, "t", &[vec![5, 50], vec![6, 60]])
        .expect("append over TCP");
    assert_ne!(appended.new_digest, d0);
    assert_eq!(appended.epoch, 1);
    assert_eq!(appended.appended_rows, 2);

    // Immediately query the successor digest — SQL over the wire,
    // verified against the advertised (grown) shape.
    let (table, _, _) = writer
        .query_verified_sql(
            &params,
            &appended.new_digest,
            "SELECT id, val FROM t WHERE val >= 20",
        )
        .expect("post-append verified query");
    assert_eq!(table.len(), 5, "3 original matches + 2 appended rows");

    let old_result = pre_append.join().expect("pre-append thread");

    // The pre-append response is for the *old* state and verifies under
    // the old shape (epoch-style snapshot retention).
    assert_eq!(old_result.response.result.len(), 3);
    let old_verifier = VerifierSession::new(params.clone(), old_shape);
    assert!(old_verifier
        .verify(&filter_plan(20), &old_result.response)
        .is_ok());

    // The server now advertises only the successor, at epoch 1; the old
    // digest is a clean error.
    let mut observer = ServiceClient::connect(addr).expect("connect");
    let info = observer.info().expect("info");
    assert_eq!(info.databases.len(), 1);
    assert_eq!(info.databases[0].digest, appended.new_digest);
    assert_eq!(info.databases[0].epoch, 1);
    assert_eq!(info.databases[0].tables[0].2, 6, "6 rows advertised");
    assert!(matches!(
        observer.query_on(&d0, &filter_plan(20)),
        Err(poneglyphdb::service::ClientError::Server(_))
    ));

    server.stop();
}

/// The client's per-digest verifier-session map is LRU-bounded.
#[test]
fn client_session_map_is_bounded() {
    let params = IpaParams::setup(11);
    let service = Arc::new(ProvingService::empty(
        params.clone(),
        ServiceConfig::default(),
    ));
    let d1 = service.attach(query_db());
    let mut other = query_db();
    other.tables.get_mut("t").unwrap().push_row(&[5, 50]);
    let d2 = service.attach(other);
    let server = ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let mut client =
        ServiceClient::connect_with_session_capacity(server.local_addr(), 1).expect("connect");
    client
        .query_verified_on(&params, &d1, &filter_plan(20))
        .expect("query d1");
    client
        .query_verified_on(&params, &d2, &filter_plan(20))
        .expect("query d2");
    assert_eq!(
        client.session_count(),
        1,
        "capacity 1 keeps only the most recent database's session"
    );

    server.stop();
}
