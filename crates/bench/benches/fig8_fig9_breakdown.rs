//! Figures 8/9 (micro): gate-family breakdown on a minimal plan.
//! `repro fig8` / `repro fig9` run the paper's Q1/Q3 breakdowns.
use criterion::{criterion_group, criterion_main, Criterion};
use poneglyph_bench::rng;
use poneglyph_core::{compile, GateSet, Parallelism};
use poneglyph_pcs::IpaParams;
use poneglyph_plonkish::{keygen_pk_with, prove_timed};
use poneglyph_sql::{execute, CmpOp, Plan, Predicate};
use poneglyph_tpch::generate;

fn bench(c: &mut Criterion) {
    let db = generate(16);
    let params = IpaParams::setup(10);
    let plan = Plan::Filter {
        input: Box::new(Plan::Scan {
            table: "lineitem".into(),
        }),
        predicates: vec![Predicate::ColConst {
            col: 4,
            op: CmpOp::Lt,
            value: 24,
        }],
    };
    let trace = execute(&db, &plan).expect("exec");
    let mut g = c.benchmark_group("fig8_fig9_breakdown");
    g.sample_size(10);
    for (stage, gates) in [
        ("no_gates", GateSet::none()),
        ("all_gates", GateSet::default()),
    ] {
        g.bench_function(stage, |b| {
            b.iter(|| {
                let compiled = compile(&db, &plan, Some(&trace), gates).expect("compile");
                let params_k = params.truncate(compiled.asn.k);
                let par = Parallelism::auto();
                let pk = keygen_pk_with(&params_k, &compiled.cs, &compiled.asn, par);
                prove_timed(&params_k, &pk, compiled.asn, &mut rng(), par).expect("prove")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
