//! Session-API payoff on the verifier side, and multi-database serving.
//!
//! Three comparisons:
//! * `verify/cold_one_shot` vs `verify/session_warm` — the one-shot path
//!   recompiles the circuit and regenerates the verifying key per call; a
//!   warm [`VerifierSession`] reuses both, leaving only transcript replay
//!   and the opening MSMs.
//! * `verify/sequential_8` vs `verify/batch_8` — eight separate session
//!   verifications vs one `verify_batch` call that folds the eight IPA
//!   opening checks into a single random-linear-combination MSM.
//! * `multi_db/*` — cold vs cache-hit serving when one service hosts two
//!   databases and queries alternate between them.
//!
//! Results land alongside `service_throughput` in the Criterion output.

use criterion::{criterion_group, criterion_main, Criterion};
use poneglyph_bench::rng;
use poneglyph_core::{database_shape, ProverSession, QueryResponse, VerifierSession};
use poneglyph_pcs::IpaParams;
use poneglyph_service::{ProvingService, ServiceConfig};
use poneglyph_sql::{CmpOp, ColumnType, Database, Plan, Predicate, Schema, Table};

fn bench_db(rows: i64) -> Database {
    let mut db = Database::new();
    let mut t = Table::empty(Schema::new(&[
        ("id", ColumnType::Int),
        ("grp", ColumnType::Int),
        ("val", ColumnType::Int),
    ]));
    for i in 0..rows {
        t.push_row(&[i + 1, i % 3, 10 * i]);
    }
    db.add_table("t", t);
    db
}

fn filter_plan(bound: i64) -> Plan {
    Plan::Filter {
        input: Box::new(Plan::Scan { table: "t".into() }),
        predicates: vec![Predicate::ColConst {
            col: 2,
            op: CmpOp::Ge,
            value: bound,
        }],
    }
}

fn verifier_sessions(c: &mut Criterion) {
    let params = IpaParams::setup(11);
    let db = bench_db(16);
    let plan = filter_plan(40);
    let prover = ProverSession::new(params.clone(), db.clone());
    let mut r = rng();

    // Eight independently-blinded responses for one plan.
    let responses: Vec<QueryResponse> = (0..8)
        .map(|_| prover.prove(&plan, &mut r).expect("prove"))
        .collect();
    let batch: Vec<(Plan, QueryResponse)> = responses
        .iter()
        .map(|resp| (plan.clone(), resp.clone()))
        .collect();
    let shape = database_shape(&db);

    let mut g = c.benchmark_group("service_multi_db/verify");
    g.sample_size(10);

    // Cold: a throwaway session per response — compile + keygen each time.
    g.bench_function("cold_one_shot", |b| {
        b.iter(|| {
            VerifierSession::new(params.clone(), shape.clone())
                .verify(&plan, &responses[0])
                .expect("verify")
        })
    });

    // Warm: one session, cached circuit + verifying key.
    let warm = VerifierSession::new(params.clone(), shape.clone());
    warm.verify(&plan, &responses[0]).expect("prime the cache");
    g.bench_function("session_warm", |b| {
        b.iter(|| warm.verify(&plan, &responses[0]).expect("verify"))
    });

    // Eight sequential warm verifications: eight full IPA opening checks.
    g.bench_function("sequential_8", |b| {
        b.iter(|| {
            for resp in &responses {
                warm.verify(&plan, resp).expect("verify");
            }
        })
    });

    // One batch of eight: the opening checks fold into a single MSM.
    g.bench_function("batch_8", |b| {
        b.iter(|| warm.verify_batch(&batch).expect("batch verify"))
    });
    g.finish();
}

fn multi_db_serving(c: &mut Criterion) {
    let params = IpaParams::setup(11);
    let service = ProvingService::empty(
        params,
        ServiceConfig {
            workers: 2,
            cache_capacity: 32,
            ..ServiceConfig::default()
        },
    );
    let d1 = service.attach(bench_db(16));
    let d2 = service.attach(bench_db(24));

    let mut g = c.benchmark_group("service_multi_db/serving");
    g.sample_size(3);

    // Cold: alternate fresh queries across the two hosted databases.
    let mut bound = 1i64;
    g.bench_function("cold_alternating_2_dbs", |b| {
        b.iter(|| {
            for digest in [&d1, &d2] {
                bound += 1;
                let served = service
                    .query_on(digest, filter_plan(bound))
                    .expect("proved");
                assert!(!served.cache_hit);
            }
        })
    });

    // Warm: the same query per database is a pure cache hit.
    service.query_on(&d1, filter_plan(0)).expect("warm d1");
    service.query_on(&d2, filter_plan(0)).expect("warm d2");
    g.bench_function("cache_hit_alternating_2_dbs", |b| {
        b.iter(|| {
            for digest in [&d1, &d2] {
                let served = service.query_on(digest, filter_plan(0)).expect("hit");
                assert!(served.cache_hit);
            }
        })
    });
    g.finish();
}

criterion_group!(benches, verifier_sessions, multi_db_serving);
criterion_main!(benches);
