//! # poneglyph-plonkish
//!
//! A from-scratch PLONKish proving system in the style of Halo2 (paper
//! §2.2/§3.4): circuits are rectangular matrices of fixed, advice and
//! instance columns constrained by custom gates (low-degree multivariate
//! polynomials over rotated queries), copy constraints (a chunked
//! grand-product permutation argument), lookup arguments (the paper's
//! Eqs. 1–3, i.e. plookup), and shuffle arguments (the paper's Eq. 5,
//! multiset equality). Commitments are IPA/Pedersen over Pallas; the proof
//! is made non-interactive with the Fiat–Shamir transcript.
//!
//! The crate exposes:
//! * [`ConstraintSystem`] / [`Assignment`] — circuit shape and contents,
//! * [`keygen_pk_with`] / [`keygen_vk_with`] → [`ProvingKey`] /
//!   [`VerifyingKey`] (the verifier-side path never materializes
//!   prover-only tables),
//! * [`prove_timed`] / [`verify`] — the non-interactive argument, plus
//!   [`verify_accumulate`] which defers the IPA opening checks into an
//!   [`IpaAccumulator`](poneglyph_pcs::IpaAccumulator) so a batch of
//!   proofs settles with one MSM,
//! * [`identities`] — the protocol's polynomial identities, the one list the
//!   prover, the verifier, [`ConstraintSystem::max_degree`] and the
//!   analyzer all read,
//! * [`mock_prove`] — fast constraint checking for circuit development.

#![warn(missing_docs)]

mod circuit;
mod eval;
mod expression;
mod identities;
mod keygen;
mod mock;
mod proof;
mod prover;
mod verifier;

pub use circuit::{
    Assignment, Cell, ConstraintSystem, Gate, Lookup, Shuffle, BLINDING_ROWS, PERMUTATION_CHUNK,
};
pub use eval::{eval_at_point, eval_strided, identity_coset, omega_powers};
pub use expression::{Column, ColumnKind, Expression, Query, Rotation};
pub use identities::{
    compress, coset_multiplier, grand_products, identities, GrandProduct, Identity, Origin,
};
pub use keygen::{instrument, keygen_pk_with, keygen_vk_with, ProvingKey, VerifyingKey};
pub use mock::{mock_prove, MockError, MOCK_ERRORS_PER_CLASS};
pub use proof::{open_schedule, Proof};
pub use prover::{prove_timed, ProveError, ProverTimings};
pub use verifier::{verify, verify_accumulate, VerifyError};

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_arith::{Fq, PrimeField};
    use poneglyph_par::Parallelism;
    use poneglyph_pcs::IpaParams;
    use rand::{rngs::StdRng, SeedableRng};

    /// A toy circuit exercising every protocol feature:
    /// * gate: `q·(a·b − c) = 0` (multiplication gate)
    /// * copy: `c[i]` is copied into `a[i+1]` (chained squaring-ish)
    /// * instance: final product exposed publicly
    /// * lookup: all `b` values must lie in a table `[0, 8)`
    /// * shuffle: column `d` is a permutation of column `a`
    struct Toy {
        cs: ConstraintSystem<Fq>,
        q: Column,
        a: Column,
        b: Column,
        c: Column,
        d: Column,
        t: Column,
        q_lookup: Column,
        io: Column,
    }

    fn toy_cs() -> Toy {
        let mut cs = ConstraintSystem::<Fq>::new();
        let q = cs.fixed_column();
        let t = cs.fixed_column();
        let q_lookup = cs.fixed_column();
        let a = cs.advice_column();
        let b = cs.advice_column();
        let c = cs.advice_column();
        let d = cs.advice_column();
        let io = cs.instance_column();
        cs.create_gate(
            "mul",
            vec![
                Expression::fixed(q.index)
                    * (Expression::advice(a.index) * Expression::advice(b.index)
                        - Expression::advice(c.index)),
            ],
        );
        cs.enable_permutation(a);
        cs.enable_permutation(c);
        cs.enable_permutation(io);
        cs.add_lookup(
            "b-range",
            vec![Expression::fixed(q_lookup.index) * Expression::advice(b.index)],
            vec![Expression::fixed(t.index)],
        );
        cs.add_shuffle(
            "d-perm-a",
            vec![Expression::advice(d.index)],
            vec![Expression::advice(a.index)],
        );
        Toy {
            cs,
            q,
            a,
            b,
            c,
            d,
            t,
            q_lookup,
            io,
        }
    }

    /// Build the witness: rows of a·b = c with c chained into the next a.
    fn toy_assignment(toy: &Toy, k: u32, rows: usize, tamper: Option<&str>) -> Assignment<Fq> {
        let mut asn = Assignment::new(&toy.cs, k);
        // lookup table [0, 8) in the fixed column t (includes 0 for padding)
        for i in 0..8 {
            asn.assign_fixed(toy.t, i, Fq::from_u64(i as u64));
        }
        let mut a_val = Fq::from_u64(3);
        let mut perm: Vec<Fq> = Vec::new();
        for r in 0..rows {
            let b_val = Fq::from_u64((r % 7 + 1) as u64);
            let c_val = a_val * b_val;
            asn.assign_fixed(toy.q, r, Fq::ONE);
            asn.assign_fixed(toy.q_lookup, r, Fq::ONE);
            asn.assign_advice(toy.a, r, a_val);
            asn.assign_advice(toy.b, r, b_val);
            asn.assign_advice(toy.c, r, c_val);
            perm.push(a_val);
            if r + 1 < rows {
                asn.assign_advice(toy.a, r + 1, c_val);
                asn.copy(
                    Cell {
                        column: toy.c,
                        row: r,
                    },
                    Cell {
                        column: toy.a,
                        row: r + 1,
                    },
                );
            }
            a_val = c_val;
        }
        // d = reversed a (a permutation)
        perm.reverse();
        for (r, v) in perm.iter().enumerate() {
            asn.assign_advice(toy.d, r, *v);
        }
        // public output: the last c value, bound by a copy constraint
        let last_c = asn.value(toy.c, rows - 1);
        asn.assign_instance(toy.io, 0, last_c);
        asn.copy(
            Cell {
                column: toy.c,
                row: rows - 1,
            },
            Cell {
                column: toy.io,
                row: 0,
            },
        );

        match tamper {
            None => {}
            Some("gate") => {
                asn.advice[toy.c.index][1] += Fq::ONE;
                // keep the copy chain consistent so only the gate breaks
                asn.copies
                    .retain(|(x, y)| !(x.row == 1 || y.row == 2 && x.column == toy.c));
            }
            Some("copy") => {
                // break the copy chain: c[0] copied to a[1] but value differs
                asn.advice[toy.a.index][1] += Fq::ONE;
                // fix downstream gates so only the copy is inconsistent
                let b1 = asn.value(toy.b, 1);
                let new_c1 = asn.value(toy.a, 1) * b1;
                // don't propagate: c[1] keeps its old (now wrong for copy) value
                let _ = new_c1;
            }
            Some("lookup") => {
                asn.advice[toy.b.index][0] = Fq::from_u64(100); // outside table
                                                                // fix the gate so only the lookup breaks
                let a0 = asn.value(toy.a, 0);
                asn.advice[toy.c.index][0] = a0 * Fq::from_u64(100);
                // break downstream copies
                asn.copies.clear();
                let last_c = asn.value(toy.c, rows - 1);
                asn.instance[toy.io.index][0] = last_c;
            }
            Some("shuffle") => {
                asn.advice[toy.d.index][0] += Fq::ONE;
            }
            Some(other) => panic!("unknown tamper {other}"),
        }
        asn
    }

    #[test]
    fn mock_prover_accepts_valid_circuit() {
        let toy = toy_cs();
        let asn = toy_assignment(&toy, 5, 8, None);
        mock_prove(&toy.cs, &asn).expect("valid circuit");
    }

    #[test]
    fn mock_prover_catches_each_violation_kind() {
        let toy = toy_cs();
        for (tamper, check) in [
            ("gate", "gate"),
            ("lookup", "lookup"),
            ("shuffle", "shuffle"),
        ] {
            let asn = toy_assignment(&toy, 5, 8, Some(tamper));
            let errs = mock_prove(&toy.cs, &asn).expect_err("must fail");
            let found = errs.iter().any(|e| {
                matches!(
                    (check, e),
                    ("gate", MockError::Gate { .. })
                        | ("lookup", MockError::Lookup { .. })
                        | ("shuffle", MockError::Shuffle { .. })
                )
            });
            assert!(found, "tamper {tamper} produced {errs:?}");
        }
        let asn = toy_assignment(&toy, 5, 8, Some("copy"));
        let errs = mock_prove(&toy.cs, &asn).expect_err("must fail");
        assert!(
            errs.iter()
                .any(|e| matches!(e, MockError::Copy { .. } | MockError::Gate { .. })),
            "copy tamper produced {errs:?}"
        );
    }

    #[test]
    fn prove_and_verify_end_to_end() {
        let mut rng = StdRng::seed_from_u64(1234);
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);
        let asn = toy_assignment(&toy, k, 8, None);
        mock_prove(&toy.cs, &asn).expect("valid");
        let pk = keygen_pk_with(&params, &toy.cs, &asn, Parallelism::auto());
        let instance = vec![asn.instance[0][..1].to_vec()];
        let proof = prove_timed(&params, &pk, asn, &mut rng, Parallelism::auto())
            .expect("prover")
            .0;
        verify(&params, &pk.vk, &instance, &proof).expect("verifier");

        // serialization roundtrip
        let bytes = proof.to_bytes();
        let back = Proof::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, proof);
        verify(&params, &pk.vk, &instance, &back).expect("verify deserialized");
    }

    /// BLAKE2b of the serial toy proof (k = 5, 8 rows, seed 4242).
    const PINNED_TOY_PROOF_DIGEST: &str = concat!(
        "3e06b9f893890d10a16fc00cee04ba5f4d8dc203e8cfe1b8696ab45c390f93be",
        "da52b6f4c0d7f8328b5f66cb4ae1e1625506bb19eb5b8f885d52b096628cdb9a",
    );

    #[test]
    fn proof_bytes_identical_at_every_thread_count() {
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);
        let reference_pk = keygen_pk_with(
            &params,
            &toy.cs,
            &toy_assignment(&toy, k, 8, None),
            Parallelism::serial(),
        );
        let reference = prove_timed(
            &params,
            &reference_pk,
            toy_assignment(&toy, k, 8, None),
            &mut StdRng::seed_from_u64(4242),
            Parallelism::serial(),
        )
        .expect("serial prove")
        .0
        .to_bytes();
        // Cross-commit pin: a refactor must reproduce these exact bytes. Only
        // a deliberate protocol change re-records the digest.
        let digest: String = poneglyph_hash::blake2b(&reference)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        println!("pinned proof digest (plonkish toy): {digest}");
        assert_eq!(digest, PINNED_TOY_PROOF_DIGEST, "serial toy proof bytes");
        for threads in [2usize, 3, 8] {
            let par = Parallelism::new(threads);
            let pk = keygen_pk_with(&params, &toy.cs, &toy_assignment(&toy, k, 8, None), par);
            assert_eq!(
                pk.vk.fixed_commitments, reference_pk.vk.fixed_commitments,
                "keygen at {threads} threads"
            );
            let proof = prove_timed(
                &params,
                &pk,
                toy_assignment(&toy, k, 8, None),
                &mut StdRng::seed_from_u64(4242),
                par,
            )
            .expect("parallel prove")
            .0;
            assert_eq!(
                proof.to_bytes(),
                reference,
                "proof bytes must not depend on the thread budget ({threads})"
            );
        }
    }

    #[test]
    fn prove_timed_reports_stages() {
        use poneglyph_par::Parallelism;
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);
        let asn = toy_assignment(&toy, k, 8, None);
        let pk = keygen_pk_with(&params, &toy.cs, &asn, Parallelism::auto());
        let instance = vec![asn.instance[0][..1].to_vec()];
        let before = (
            instrument::commit_nanos(),
            instrument::quotient_nanos(),
            instrument::open_nanos(),
        );
        let (proof, timings) = prove_timed(
            &params,
            &pk,
            asn,
            &mut StdRng::seed_from_u64(7),
            Parallelism::auto(),
        )
        .expect("prove");
        verify(&params, &pk.vk, &instance, &proof).expect("verifies");
        assert!(timings.commit > std::time::Duration::ZERO);
        assert!(timings.quotient > std::time::Duration::ZERO);
        assert!(timings.open > std::time::Duration::ZERO);
        // The process-wide counters grew by at least this proof's stages.
        assert!(instrument::commit_nanos() >= before.0 + timings.commit.as_nanos() as u64);
        assert!(instrument::quotient_nanos() >= before.1 + timings.quotient.as_nanos() as u64);
        assert!(instrument::open_nanos() >= before.2 + timings.open.as_nanos() as u64);
    }

    #[test]
    fn wrong_instance_rejected() {
        let mut rng = StdRng::seed_from_u64(5678);
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);
        let asn = toy_assignment(&toy, k, 8, None);
        let pk = keygen_pk_with(&params, &toy.cs, &asn, Parallelism::auto());
        let mut instance = vec![asn.instance[0][..1].to_vec()];
        let proof = prove_timed(&params, &pk, asn, &mut rng, Parallelism::auto())
            .expect("prover")
            .0;
        instance[0][0] += Fq::ONE;
        assert!(verify(&params, &pk.vk, &instance, &proof).is_err());
    }

    #[test]
    fn tampered_proof_commitment_rejected() {
        let mut rng = StdRng::seed_from_u64(42);
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);
        let asn = toy_assignment(&toy, k, 8, None);
        let pk = keygen_pk_with(&params, &toy.cs, &asn, Parallelism::auto());
        let instance = vec![asn.instance[0][..1].to_vec()];
        let mut proof = prove_timed(&params, &pk, asn, &mut rng, Parallelism::auto())
            .expect("prover")
            .0;
        // replace an advice commitment with a random point
        proof.advice_commitments[0] = poneglyph_curve::Pallas::generator()
            .mul(&Fq::from_u64(7))
            .to_affine();
        assert!(verify(&params, &pk.vk, &instance, &proof).is_err());
    }

    #[test]
    fn tampered_eval_rejected() {
        let mut rng = StdRng::seed_from_u64(43);
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);
        let asn = toy_assignment(&toy, k, 8, None);
        let pk = keygen_pk_with(&params, &toy.cs, &asn, Parallelism::auto());
        let instance = vec![asn.instance[0][..1].to_vec()];
        let mut proof = prove_timed(&params, &pk, asn, &mut rng, Parallelism::auto())
            .expect("prover")
            .0;
        proof.evals[0] += Fq::ONE;
        assert!(verify(&params, &pk.vk, &instance, &proof).is_err());
    }

    #[test]
    fn invalid_witness_fails_to_prove_or_verify() {
        let mut rng = StdRng::seed_from_u64(44);
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);
        let good = toy_assignment(&toy, k, 8, None);
        let pk = keygen_pk_with(&params, &toy.cs, &good, Parallelism::auto());
        let instance = vec![good.instance[0][..1].to_vec()];

        // gate violation: proving "succeeds" (the prover is not a validator)
        // but verification must fail.
        let bad = toy_assignment(&toy, k, 8, Some("gate"));
        // an Err from prove is also acceptable: the prover noticed the
        // inconsistency itself.
        if let Ok((proof, _)) = prove_timed(&params, &pk, bad, &mut rng, Parallelism::auto()) {
            assert!(verify(&params, &pk.vk, &instance, &proof).is_err());
        }

        // lookup violation is detected during proving
        let bad = toy_assignment(&toy, k, 8, Some("lookup"));
        let res = prove_timed(&params, &pk, bad, &mut rng, Parallelism::auto());
        assert!(matches!(res, Err(ProveError::LookupValueMissing { .. })));
    }

    #[test]
    fn accumulated_verification_matches_immediate() {
        let mut rng = StdRng::seed_from_u64(77);
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);

        // Two independent proofs of the same circuit.
        let mut proofs = Vec::new();
        for _ in 0..2 {
            let asn = toy_assignment(&toy, k, 8, None);
            let pk = keygen_pk_with(&params, &toy.cs, &asn, Parallelism::auto());
            let instance = vec![asn.instance[0][..1].to_vec()];
            let proof = prove_timed(&params, &pk, asn, &mut rng, Parallelism::auto())
                .expect("prover")
                .0;
            proofs.push((pk.vk, instance, proof));
        }

        let rho = Fq::from_u64(0x5eed_cafe);
        let mut acc = poneglyph_pcs::IpaAccumulator::new(&params, rho);
        for (vk, instance, proof) in &proofs {
            verify_accumulate(&params, vk, instance, proof, &mut acc).expect("accumulate");
        }
        assert!(acc.finalize(&params), "valid batch settles");

        // A tampered member poisons the whole batch at finalize time.
        let mut acc = poneglyph_pcs::IpaAccumulator::new(&params, rho);
        let (vk, instance, proof) = &proofs[0];
        verify_accumulate(&params, vk, instance, proof, &mut acc).expect("accumulate good");
        let (vk, instance, proof) = &proofs[1];
        let mut bad = proof.clone();
        bad.openings[0].a += Fq::ONE;
        // The per-proof checks (transcript, quotient) still pass — the lie
        // lives in the opening claim, which only finalize can catch.
        verify_accumulate(&params, vk, instance, &bad, &mut acc).expect("accumulate bad");
        assert!(!acc.finalize(&params), "tampered opening poisons the batch");
    }

    #[test]
    fn proof_size_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(45);
        let toy = toy_cs();
        let k = 5;
        let params = IpaParams::setup(k);
        let asn = toy_assignment(&toy, k, 8, None);
        let pk = keygen_pk_with(&params, &toy.cs, &asn, Parallelism::auto());
        let proof = prove_timed(&params, &pk, asn, &mut rng, Parallelism::auto())
            .expect("prover")
            .0;
        // tiny circuit: proof should be a few KB, far below the witness size
        assert!(proof.size_in_bytes() < 40_000, "{}", proof.size_in_bytes());
    }
}
