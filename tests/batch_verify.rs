//! Batch-verification soundness and amortization: a batch of valid
//! responses accepts with exactly one compile+keygen for a repeated plan,
//! and corrupting any single proof, instance, claimed result, or IPA
//! opening — or swapping responses across databases — makes the whole
//! batch reject.

use poneglyphdb::prelude::*;
use poneglyphdb::sql::{CmpOp, ColumnType, Predicate, Schema, Table};
use rand::SeedableRng;

fn db_a() -> Database {
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

/// Same schema, different row count: a different committed state whose
/// circuits differ from `db_a`'s.
fn db_b() -> Database {
    let mut db = Database::new();
    let mut t = Table::empty(Schema::new(&[
        ("id", ColumnType::Int),
        ("val", ColumnType::Int),
    ]));
    for (id, val) in [(1, 12), (2, 22), (3, 32), (4, 42), (5, 52), (6, 62)] {
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

#[test]
fn batch_of_eight_accepts_with_one_compile_and_keygen() {
    let params = IpaParams::setup(11);
    let db = db_a();
    let prover = ProverSession::new(params.clone(), db.clone());
    let plan = filter_plan(20);

    // Eight independently-blinded proofs of the same query.
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let batch: Vec<(Plan, QueryResponse)> = (0..8)
        .map(|_| (plan.clone(), prover.prove(&plan, &mut rng).expect("prove")))
        .collect();
    // Distinct blinding: the eight proofs are genuinely different objects.
    assert!(batch.windows(2).all(|w| w[0].1.proof != w[1].1.proof));

    let verifier = VerifierSession::new(params, database_shape(&db));
    let tables = verifier.verify_batch(&batch).expect("batch verifies");
    assert_eq!(tables.len(), 8);
    let expected = poneglyphdb::sql::execute(&db, &plan).unwrap().output;
    assert!(tables.iter().all(|t| *t == expected));

    // THE acceptance property: verifying 8 responses for one plan
    // performed exactly one compile and one key generation.
    let stats = verifier.stats();
    assert_eq!(stats.compiles, 1, "one circuit compilation for the batch");
    assert_eq!(stats.keygens, 1, "one key generation for the batch");
    assert_eq!(stats.key_cache_hits, 7);

    // Batches may mix plans (and thus circuits).
    let other_plan = filter_plan(30);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut mixed = batch.clone();
    mixed.push((
        other_plan.clone(),
        prover.prove(&other_plan, &mut rng).expect("prove other"),
    ));
    let tables = verifier.verify_batch(&mixed).expect("mixed batch verifies");
    assert_eq!(tables.len(), 9);
    assert_eq!(
        verifier.stats().compiles,
        2,
        "one more compile for the new plan"
    );

    // An empty batch is trivially fine.
    assert!(verifier.verify_batch(&[]).expect("empty").is_empty());
}

#[test]
fn corrupting_any_single_member_rejects_the_whole_batch() {
    let params = IpaParams::setup(11);
    let db = db_a();
    let prover = ProverSession::new(params.clone(), db.clone());
    let plan = filter_plan(20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    let batch: Vec<(Plan, QueryResponse)> = (0..4)
        .map(|_| (plan.clone(), prover.prove(&plan, &mut rng).expect("prove")))
        .collect();
    let verifier = VerifierSession::new(params, database_shape(&db));
    verifier.verify_batch(&batch).expect("baseline accepts");

    let corrupt_at = 2; // a middle member, not the first or last

    // (a) a tampered proof evaluation.
    let mut bad = batch.clone();
    bad[corrupt_at].1.proof.evals[0] += poneglyphdb::arith::Fq::ONE;
    assert!(verifier.verify_batch(&bad).is_err(), "tampered proof eval");

    // (b) a tampered IPA opening — invisible to the per-proof transcript
    // checks, caught only by the folded MSM at finalize time.
    let mut bad = batch.clone();
    bad[corrupt_at].1.proof.openings[0].a += poneglyphdb::arith::Fq::ONE;
    assert!(verifier.verify_batch(&bad).is_err(), "tampered IPA opening");

    // (c) a tampered public instance (forged output value).
    let mut bad = batch.clone();
    bad[corrupt_at].1.instance[1][0] += poneglyphdb::arith::Fq::ONE;
    assert!(verifier.verify_batch(&bad).is_err(), "tampered instance");

    // (d) a tampered claimed result table (instance untouched).
    let mut bad = batch.clone();
    bad[corrupt_at].1.result.cols[1][0] += 1;
    assert!(
        verifier.verify_batch(&bad).is_err(),
        "tampered claimed result"
    );

    // (e) a response claiming the wrong circuit size.
    let mut bad = batch.clone();
    bad[corrupt_at].1.k += 1;
    assert!(verifier.verify_batch(&bad).is_err(), "wrong circuit size");

    // The untampered batch still accepts afterwards (no state poisoning).
    verifier
        .verify_batch(&batch)
        .expect("baseline still accepts");
}

#[test]
fn batches_spanning_two_databases_with_swapped_digests_reject() {
    let params = IpaParams::setup(11);
    let (da, dbb) = (db_a(), db_b());
    let prover_a = ProverSession::new(params.clone(), da.clone());
    let prover_b = ProverSession::new(params.clone(), dbb.clone());
    assert_ne!(prover_a.digest(), prover_b.digest());
    let plan = filter_plan(20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let resp_a = prover_a.prove(&plan, &mut rng).expect("prove on A");
    let resp_b = prover_b.prove(&plan, &mut rng).expect("prove on B");

    let verifier_a = VerifierSession::new(params.clone(), database_shape(&da));
    let verifier_b = VerifierSession::new(params, database_shape(&dbb));

    // Correctly routed, both verify (alone and as batches).
    verifier_a
        .verify_batch(&[(plan.clone(), resp_a.clone())])
        .expect("A on A");
    verifier_b
        .verify_batch(&[(plan.clone(), resp_b.clone())])
        .expect("B on B");

    // Swapped: a batch containing the *other* database's response must
    // reject — the committed states differ, so the circuits differ.
    assert!(
        verifier_a
            .verify_batch(&[
                (plan.clone(), resp_a.clone()),
                (plan.clone(), resp_b.clone())
            ])
            .is_err(),
        "B's response under A's digest must reject"
    );
    assert!(
        verifier_b.verify_batch(&[(plan.clone(), resp_a)]).is_err(),
        "A's response under B's digest must reject"
    );
}
