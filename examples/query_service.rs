//! Query service: a long-lived prover hosting *two* committed databases,
//! serving concurrent clients over TCP with digest addressing and
//! SQL-over-the-wire.
//!
//! ```sh
//! cargo run --release --example query_service
//! ```
//!
//! The paper's Figure 2 as a running system: the prover commits to each
//! private database once, then answers a stream of queries; repeated
//! queries are served from the proof cache without re-proving, SQL text is
//! planned server-side (clients never need the string dictionary), and
//! clients verify every response from public information only through a
//! cached per-database verifier session.

use poneglyphdb::par::par_map;
use poneglyphdb::prelude::*;
use poneglyphdb::service::{digest_hex, PROTOCOL_VERSION};
use poneglyphdb::sql::{
    AggFunc, Aggregate, CmpOp, ColumnType, Predicate, ScalarExpr, Schema, Table,
};
use std::sync::Arc;
use std::time::Instant;

fn orders_db() -> Database {
    let mut db = Database::new();
    let mut orders = Table::empty(Schema::new(&[
        ("order_id", ColumnType::Int),
        ("region", ColumnType::Int),
        ("amount", ColumnType::Decimal),
    ]));
    for i in 0..32i64 {
        orders.push_row(&[i + 1, i % 4, 10_000 + 731 * i]);
    }
    db.add_table("orders", orders);
    db
}

fn payroll_db() -> Database {
    let mut db = Database::new();
    let mut employees = Table::empty(Schema::new(&[
        ("emp_id", ColumnType::Int),
        ("dept", ColumnType::Int),
        ("salary", ColumnType::Decimal),
    ]));
    for i in 0..12i64 {
        employees.push_row(&[i + 1, i % 3, 400_000 + 37_000 * i]);
    }
    db.add_table("employees", employees);
    db
}

fn revenue_by_region(min_amount: i64) -> Plan {
    Plan::Aggregate {
        input: Box::new(Plan::Filter {
            input: Box::new(Plan::Scan {
                table: "orders".into(),
            }),
            predicates: vec![Predicate::ColConst {
                col: 2,
                op: CmpOp::Ge,
                value: min_amount,
            }],
        }),
        group_by: vec![1],
        aggs: vec![(
            "revenue".into(),
            Aggregate {
                func: AggFunc::Sum,
                input: ScalarExpr::Col(2),
            },
        )],
    }
}

fn main() {
    // Server side: parameters, a database registry, worker pool, TCP
    // listener.
    let params = IpaParams::setup(12);
    let service = Arc::new(ProvingService::empty(
        params.clone(),
        ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    ));
    let d_orders = service.attach_with_pks(orders_db(), &[("orders", "order_id")]);
    let d_payroll = service.attach_with_pks(payroll_db(), &[("employees", "emp_id")]);
    println!(
        "service up; hosting orders {}… and payroll {}…",
        digest_hex(&d_orders[..8]),
        digest_hex(&d_payroll[..8])
    );
    let server = poneglyphdb::service::ServiceServer::spawn(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();
    println!("listening on {addr} (protocol v{PROTOCOL_VERSION})");

    // Client side: three concurrent analysts against the orders database.
    // Two ask the same question — the service proves it once and serves
    // the twin from the cache.
    let queries = [
        revenue_by_region(10_000),
        revenue_by_region(10_000), // duplicate of the first
        revenue_by_region(20_000),
    ];
    let start = Instant::now();
    par_map(Parallelism::new(queries.len()), &queries, |i, plan| {
        let t0 = Instant::now();
        let mut client = ServiceClient::connect(addr).expect("connect");
        let (result, cache_hit) = client
            .query_verified_on(&params, &d_orders, plan)
            .expect("query + verify");
        println!(
            "analyst {i}: verified {} group(s) in {:?}{}",
            result.len(),
            t0.elapsed(),
            if cache_hit { " (cache hit)" } else { "" }
        );
    });

    // SQL over the wire: the auditor sends *text* against the payroll
    // database. The server parses and plans it; the echoed canonical plan
    // is what the proof binds the result to.
    let mut auditor = ServiceClient::connect(addr).expect("connect");
    let (result, plan, _) = auditor
        .query_verified_sql(
            &params,
            &d_payroll,
            "SELECT dept, AVG(salary) AS avg_salary, COUNT(*) AS headcount \
             FROM employees GROUP BY dept ORDER BY dept",
        )
        .expect("sql query + verify");
    println!(
        "auditor verified payroll aggregates (plan: {} nodes deep):",
        plan_depth(&plan)
    );
    for r in 0..result.len() {
        let row = result.row(r);
        println!(
            "  dept {:>2}: avg salary ${:.2}, headcount {}",
            row[0],
            row[1] as f64 / 100.0,
            row[2]
        );
    }
    // A repeated question reuses both the server's proof cache and the
    // client's cached verifying key — no proving, no keygen.
    let (_, _, cache_hit) = auditor
        .query_verified_sql(
            &params,
            &d_payroll,
            "SELECT dept, AVG(salary) AS avg_salary, COUNT(*) AS headcount \
             FROM employees GROUP BY dept ORDER BY dept",
        )
        .expect("repeat sql");
    assert!(cache_hit, "repeat SQL is served from the proof cache");
    let session_stats = auditor
        .verifier_stats(&d_payroll)
        .expect("session exists after verification");
    assert_eq!(
        (session_stats.compiles, session_stats.keygens),
        (1, 1),
        "two verifications, one compile + keygen"
    );

    let stats = service.stats();
    println!(
        "served in {:?}: {} proof(s) generated, {} cache hit(s) across {} database(s)",
        start.elapsed(),
        stats.proofs_generated,
        stats.cache_hits,
        stats.databases.len()
    );
    for db in &stats.databases {
        println!(
            "  db {}…: {} proven, {} cache hit(s), {} in-flight dedup(s)",
            digest_hex(&db.digest[..8]),
            db.proofs_generated,
            db.cache_hits,
            db.inflight_dedups
        );
    }
    server.stop();
}

fn plan_depth(plan: &Plan) -> usize {
    match plan {
        Plan::Scan { .. } => 1,
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => 1 + plan_depth(input),
        Plan::Join { left, right, .. } => 1 + plan_depth(left).max(plan_depth(right)),
    }
}
