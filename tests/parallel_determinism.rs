//! The serial-transcript determinism invariant, end to end: proving the
//! same canonical plan under 1-, 2- and 8-thread budgets must produce
//! **byte-identical** responses (same proof, same instance, same result),
//! every one of which a verifier accepts. Fiat–Shamir soundness depends on
//! prover and verifier replaying one transcript — intra-proof parallelism
//! must never leak into the proof bytes.

use poneglyph_core::{database_shape, Parallelism, ProverSession, VerifierSession};
use poneglyph_pcs::IpaParams;
use poneglyph_sql::{
    canonical_plan, canonical_plan_fingerprint, AggFunc, Aggregate, CmpOp, Plan, Predicate,
    ScalarExpr,
};
use poneglyph_tpch::generate;
use rand::{rngs::StdRng, SeedableRng};

/// A TPC-H-shaped filter + group-by aggregate over lineitem.
fn plan() -> Plan {
    Plan::Aggregate {
        input: Box::new(Plan::Filter {
            input: Box::new(Plan::Scan {
                table: "lineitem".into(),
            }),
            predicates: vec![Predicate::ColConst {
                col: 4,
                op: CmpOp::Lt,
                value: 24,
            }],
        }),
        group_by: vec![8],
        aggs: vec![(
            "s".into(),
            Aggregate {
                func: AggFunc::Sum,
                input: ScalarExpr::Col(4),
            },
        )],
    }
}

/// BLAKE2b of the 1-thread response bytes for [`plan`] over `generate(24)`
/// at k = 11, seed `0xdead_beef`.
const PINNED_RESPONSE_DIGEST: &str = concat!(
    "9a153531181eedc5bb10eba5a621e5d59333795b43ce1f48ab98ea0af091a145",
    "ca7010b236b6a134f3deafce35fff0892bb262250d1bfd09b93192e337bd108d",
);

#[test]
fn proof_bytes_identical_at_1_2_and_8_threads() {
    let db = generate(24);
    let params = IpaParams::setup(11);
    let plan = plan();
    let canonical = canonical_plan(&plan);
    let fingerprint = canonical_plan_fingerprint(&canonical);

    let mut responses = Vec::new();
    for threads in [1usize, 2, 8] {
        // Fresh session + fresh seeded rng per budget: everything that
        // could differ is the thread count.
        let session = ProverSession::new(params.clone(), db.clone())
            .with_parallelism(Parallelism::new(threads));
        let mut rng = StdRng::seed_from_u64(0xdead_beef);
        let response = session.prove(&plan, &mut rng).expect("prove");
        responses.push((threads, response));
    }

    let reference = responses[0].1.to_bytes();
    // Cross-commit pin: a refactor must reproduce these exact bytes. Only a
    // deliberate protocol change re-records the digest (in its own commit).
    let digest: String = poneglyph_hash::blake2b(&reference)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    println!("pinned proof digest (parallel_determinism): {digest}");
    assert_eq!(digest, PINNED_RESPONSE_DIGEST, "1-thread response bytes");
    for (threads, response) in &responses {
        assert_eq!(
            response.to_bytes(),
            reference,
            "{threads}-thread proof bytes differ from the 1-thread proof"
        );
        // The transcript is bound to the canonical plan fingerprint: the
        // proof verifies against the canonical form (any spelling works —
        // the verifier canonicalizes too), under the public shape only.
        let verifier = VerifierSession::new(params.clone(), database_shape(&db));
        let table = verifier
            .verify(&canonical, response)
            .unwrap_or_else(|e| panic!("{threads}-thread proof rejected: {e}"));
        assert_eq!(table, response.result);
        assert_eq!(
            canonical_plan_fingerprint(&canonical_plan(&plan)),
            fingerprint,
            "fingerprint must be stable across runs"
        );
    }
}

#[test]
fn tampered_parallel_proof_still_rejected() {
    // Parallelism must not weaken soundness: corrupt one byte of an
    // 8-thread proof and the verifier rejects it.
    let db = generate(16);
    let params = IpaParams::setup(10);
    let session =
        ProverSession::new(params.clone(), db.clone()).with_parallelism(Parallelism::new(8));
    let mut rng = StdRng::seed_from_u64(7);
    let mut response = session.prove(&plan(), &mut rng).expect("prove");
    response.proof.evals[0] += poneglyph_arith::Fq::from(1u64);
    let verifier = VerifierSession::new(params, database_shape(&db));
    assert!(verifier.verify(&plan(), &response).is_err());
}
