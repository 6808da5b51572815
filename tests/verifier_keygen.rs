//! Verification must never materialize prover-only tables, and a proving
//! key serves exactly one proof.
//!
//! This file deliberately holds a single test: it asserts on the
//! process-global keygen instrumentation counters, which only gives a
//! stable reading when no other test in the same binary runs keygen
//! concurrently.

use poneglyphdb::plonkish::instrument;
use poneglyphdb::prelude::*;
use poneglyphdb::sql::{CmpOp, ColumnType, Predicate, Schema, Table};
use rand::SeedableRng;

#[test]
fn verification_performs_no_prover_keygen() {
    let mut db = Database::new();
    let mut t = Table::empty(Schema::new(&[
        ("id", ColumnType::Int),
        ("val", ColumnType::Int),
    ]));
    for (id, val) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
        t.push_row(&[id, val]);
    }
    db.add_table("t", t);
    let plan = Plan::Filter {
        input: Box::new(Plan::Scan { table: "t".into() }),
        predicates: vec![Predicate::ColConst {
            col: 1,
            op: CmpOp::Ge,
            value: 20,
        }],
    };

    let params = IpaParams::setup(11);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let prover = ProverSession::new(params.clone(), db.clone());
    let pk_start = instrument::pk_keygens();
    let response = prover.prove(&plan, &mut rng).expect("prove");
    let again = prover.prove(&plan, &mut rng).expect("prove again");
    assert_eq!(again.result, response.result);
    assert_eq!(
        instrument::pk_keygens(),
        pk_start + 2,
        "the prover keeps no key cache: two proofs of one plan, two keygens"
    );

    // From here on, nothing may build prover tables (σ/fixed polynomial
    // forms): verification routes through keygen_vk_with.
    let pk0 = instrument::pk_keygens();
    let vk0 = instrument::vk_keygens();

    let shape = database_shape(&db);
    let verifier = VerifierSession::new(params, shape);
    let verified = verifier.verify(&plan, &response).expect("session verify");
    assert_eq!(verified, response.result);

    // And batch verification too.
    verifier
        .verify_batch(&[(plan.clone(), response.clone())])
        .expect("batch verify");

    assert_eq!(
        instrument::pk_keygens(),
        pk0,
        "verification must not materialize permutation/fixed prover tables"
    );
    assert_eq!(
        instrument::vk_keygens(),
        vk0 + 1,
        "one vk keygen, cached across verify + batch"
    );
}
