//! Proving-service throughput: cold proofs vs. cache hits at varying
//! worker-pool sizes.
//!
//! Cold runs defeat the proof cache by varying the filter constant per
//! request, so every query is a fresh circuit proof; cache-hit runs repeat
//! one query, measuring the serving layer's overhead alone (queue hop +
//! fingerprint + cache lookup). The gap between the two is the paper's
//! argument for a serving layer: a cache hit is orders of magnitude
//! cheaper than a proof.

use criterion::{criterion_group, criterion_main, Criterion};
use poneglyph_pcs::IpaParams;
use poneglyph_service::{ProvingService, ServiceConfig};
use poneglyph_sql::{CmpOp, ColumnType, Database, Plan, Predicate, Schema, Table};
use std::sync::atomic::{AtomicI64, Ordering};

fn bench_db() -> Database {
    let mut db = Database::new();
    let mut t = Table::empty(Schema::new(&[
        ("id", ColumnType::Int),
        ("grp", ColumnType::Int),
        ("val", ColumnType::Int),
    ]));
    for i in 0..16i64 {
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

fn service_throughput(c: &mut Criterion) {
    let params = IpaParams::setup(11);
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(3);

    for workers in [1usize, 2, 4] {
        let service = ProvingService::empty(
            params.clone(),
            ServiceConfig {
                workers,
                cache_capacity: 4, // small: cold queries churn through it
                ..ServiceConfig::default()
            },
        );
        let digest = service.attach(bench_db());

        // Cold: 4 distinct queries in flight at once, no cache reuse.
        let unique = AtomicI64::new(1);
        group.bench_function(format!("cold_4_queries/{workers}_workers"), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let bound = unique.fetch_add(1, Ordering::SeqCst);
                        service
                            .submit_on(&digest, filter_plan(bound))
                            .expect("hosted")
                    })
                    .collect();
                for h in handles {
                    let served = h.wait().expect("proved");
                    assert!(!served.cache_hit);
                }
            })
        });

        // Warm the cache once, then measure pure cache-hit serving.
        let warm = filter_plan(0);
        service.query_on(&digest, warm.clone()).expect("warm");
        group.bench_function(format!("cache_hit_100_queries/{workers}_workers"), |b| {
            b.iter(|| {
                for _ in 0..100 {
                    let served = service.query_on(&digest, warm.clone()).expect("hit");
                    assert!(served.cache_hit);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, service_throughput);
criterion_main!(benches);
