//! Observability overhead on the serving hot path: the cache-hit lane
//! (queue hop + fingerprint + cache lookup) with metrics collection
//! enabled vs. disabled. The acceptance budget is 5% — counters are
//! single atomic adds and spans two clock reads, so the two lanes should
//! be statistically indistinguishable at this granularity.

use criterion::{criterion_group, criterion_main, Criterion};
use poneglyph_pcs::IpaParams;
use poneglyph_service::{ProvingService, ServiceConfig};
use poneglyph_sql::{CmpOp, ColumnType, Database, Plan, Predicate, Schema, Table};

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

fn filter_plan() -> Plan {
    Plan::Filter {
        input: Box::new(Plan::Scan { table: "t".into() }),
        predicates: vec![Predicate::ColConst {
            col: 2,
            op: CmpOp::Ge,
            value: 40,
        }],
    }
}

fn metrics_overhead(c: &mut Criterion) {
    let params = IpaParams::setup(11);
    let service = ProvingService::empty(params, ServiceConfig::default());
    let digest = service.attach(bench_db());
    // Prime the cache: every measured iteration below is a pure hit.
    service
        .query_on(&digest, filter_plan())
        .expect("prime the cache");

    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(10);
    for (label, enabled) in [
        ("cache_hit_metrics_on", true),
        ("cache_hit_metrics_off", false),
    ] {
        group.bench_function(label, |b| {
            poneglyph_obs::set_enabled(enabled);
            b.iter(|| {
                let served = service
                    .query_on(&digest, filter_plan())
                    .expect("cached query");
                assert!(served.cache_hit);
                served
            });
            poneglyph_obs::set_enabled(true);
        });
    }
    group.finish();
}

criterion_group!(benches, metrics_overhead);
criterion_main!(benches);
