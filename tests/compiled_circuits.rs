//! Pins the compiler's output: one BLAKE2b digest per compiled circuit, so
//! a refactor of `core::compile` that changes a single column, gate, fixed
//! cell, copy constraint or witness value is caught without proving.
//!
//! A witness compile (the prover's) digests `k`, the constraint-system
//! digest, every fixed, advice and instance cell, the copy constraints and
//! the public instance of the `CompiledQuery`. A structure compile (the
//! verifier's) digests `k`, the constraint-system digest, the fixed cells
//! and the copy constraints only — keygen reads nothing else of it.
//!
//! Print the current digests with
//! `cargo test -q --offline --test compiled_circuits -- --nocapture`.

use poneglyph_arith::{Fq, PrimeField};
use poneglyph_core::{compile, database_shape, CompiledQuery, GateSet};
use poneglyph_hash::Blake2b;
use poneglyph_sql::{
    execute, AggFunc, Aggregate, ColumnType, Database, Plan, ScalarExpr, Schema, Table,
};
use poneglyph_tpch::{all_queries, generate, q1_plan};

/// Digests recorded on the compiler before the structure/witness paths
/// were merged; they must never be re-recorded by a refactor.
const PINNED: &[(&str, &str)] = &[
    (
        "Q1 witness",
        "1daff5410007f8ed17ef52c73432f01c42053704fd1480c74f1dc1402cd9fddb",
    ),
    (
        "Q1 structure",
        "694fedc963d194cf671ae1035fabbfda6d25a34c1e73d96c514a1fea7bb2002f",
    ),
    (
        "Q3 witness",
        "8ecf02573deb81807420cb6f85c0305421d1defead049da6f9056cf4d89579b4",
    ),
    (
        "Q3 structure",
        "56145d64b33c65145fd53d0f726fe8f7b6447bd51e2cacce0ab6dfbc82bbe16c",
    ),
    (
        "Q5 witness",
        "925f6ecb6e931c86a4f1344d2303e1fa023b449f7331fabee4229728714fef9a",
    ),
    (
        "Q5 structure",
        "8e04cb3c1e52d42276b836889715014045ecf4641e26b415d049fa1c91076f76",
    ),
    (
        "Q8 witness",
        "f91947cd3a159788a436b693d85580c1b588f86db53bd3f02389af1ce54c03f7",
    ),
    (
        "Q8 structure",
        "b3499b9a2134bc446f819b46d47e460ce208e07530a1ea923a0974031be48c89",
    ),
    (
        "Q9 witness",
        "bd0bed725e46d5057294abca69590103cfb8e1fc250cd462244a5f3cb055b1ca",
    ),
    (
        "Q9 structure",
        "f4bc2511140c8a899605573037a35408acb05417ae1e280785c166e5273bb3f7",
    ),
    (
        "Q18 witness",
        "e8181d70557039714bf3ee03814ba8bdcca2ab42ecc12727464dfae52bc157c9",
    ),
    (
        "Q18 structure",
        "c57fe10ee4bdab7805b4d1d54bfe6469e7c0d8f81feefb900168adc32cdf9785",
    ),
    (
        "minmax witness",
        "eb088a0b46a71ea8d2065799bf9ab07b3cb824f6e6f8f4920de3c5320fc4e37d",
    ),
    (
        "minmax structure",
        "b9387947e0cc9093571fdd85234769d13d0d98585691a085487a056052e5ae40",
    ),
    (
        "Q1-none witness",
        "758bb87b43ef5aa70fa4516ce7d7c85b53164d806e8a586d7cbde9d5edcfdc59",
    ),
    (
        "Q1-none structure",
        "0f7c82988ce5946952a3826203264176ce68c2e2d3ca4bd1b512593a2f06d03a",
    ),
    (
        "Q1-bitwise witness",
        "f2bbabcdf7aaac3816f6b1f984ebcf54fd70b1e06976288693c6426bc173a378",
    ),
    (
        "Q1-bitwise structure",
        "e6e6c1d5bfdc21a19209a701866c8fb9d0b503caa1a229ea9591c64fbd4f93ea",
    ),
];

/// Hash the nonzero cells of a column set as `(column, row, value)`.
fn cells(h: &mut Blake2b, label: &[u8], columns: &[Vec<Fq>]) {
    h.update(label);
    h.update(&(columns.len() as u64).to_le_bytes());
    for (c, col) in columns.iter().enumerate() {
        for (r, v) in col.iter().enumerate() {
            if *v != Fq::ZERO {
                h.update(&(c as u64).to_le_bytes());
                h.update(&(r as u64).to_le_bytes());
                h.update(&v.to_repr());
            }
        }
    }
}

fn digest(compiled: &CompiledQuery, witness: bool) -> String {
    let mut h = Blake2b::new();
    h.update(&compiled.asn.k.to_le_bytes());
    h.update(&compiled.cs.digest());
    cells(&mut h, b"fixed", &compiled.asn.fixed);
    h.update(format!("{:?}", compiled.asn.copies).as_bytes());
    if witness {
        cells(&mut h, b"advice", &compiled.asn.advice);
        cells(&mut h, b"instance", &compiled.asn.instance);
        cells(&mut h, b"public", &compiled.instance);
    }
    h.finalize()[..32]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// The MIN/MAX group-by of `tests/gadget_props.rs` over fixed rows.
fn minmax_case() -> (Database, Plan) {
    let mut db = Database::new();
    let mut t = Table::empty(Schema::new(&[
        ("k", ColumnType::Int),
        ("g", ColumnType::Int),
        ("v", ColumnType::Int),
    ]));
    for (i, (g, v)) in [(1, 7), (2, 3), (1, 2), (3, 9), (2, 11), (1, 5), (3, 1)]
        .iter()
        .enumerate()
    {
        t.push_row(&[i as i64 + 1, *g, *v]);
    }
    db.add_table("t", t);
    let agg = |func, input| Aggregate { func, input };
    let plan = Plan::Aggregate {
        input: Box::new(Plan::Scan { table: "t".into() }),
        group_by: vec![1],
        aggs: vec![
            ("s".into(), agg(AggFunc::Sum, ScalarExpr::Col(2))),
            ("c".into(), agg(AggFunc::Count, ScalarExpr::Const(1))),
            ("mn".into(), agg(AggFunc::Min, ScalarExpr::Col(2))),
            ("mx".into(), agg(AggFunc::Max, ScalarExpr::Col(2))),
        ],
    };
    (db, plan)
}

/// Every pinned case, witness and structure compile both.
fn actual() -> Vec<(String, String)> {
    let tpch = generate(120);
    let mut cases: Vec<(String, Database, Plan, GateSet)> = all_queries(&tpch)
        .into_iter()
        .map(|(name, plan)| (name.to_string(), tpch.clone(), plan, GateSet::default()))
        .collect();
    let (db, plan) = minmax_case();
    cases.push(("minmax".into(), db, plan, GateSet::default()));
    cases.push(("Q1-none".into(), tpch.clone(), q1_plan(), GateSet::none()));
    let bitwise = GateSet {
        bitwise_ranges: true,
        ..GateSet::default()
    };
    cases.push(("Q1-bitwise".into(), tpch.clone(), q1_plan(), bitwise));

    let mut out = Vec::new();
    for (name, db, plan, gates) in &cases {
        let trace = execute(db, plan).unwrap_or_else(|e| panic!("{name}: {e}"));
        let witness = compile(db, plan, Some(&trace), *gates).expect("witness compile");
        out.push((format!("{name} witness"), digest(&witness, true)));
        let structure =
            compile(&database_shape(db), plan, None, *gates).expect("structure compile");
        out.push((format!("{name} structure"), digest(&structure, false)));
    }
    out
}

#[test]
fn compiled_circuits_match_their_pinned_digests() {
    let actual = actual();
    for (name, d) in &actual {
        println!("(\"{name}\", \"{d}\"),");
    }
    let pinned: Vec<(String, String)> = PINNED
        .iter()
        .map(|(n, d)| (n.to_string(), d.to_string()))
        .collect();
    assert_eq!(actual, pinned);
}
