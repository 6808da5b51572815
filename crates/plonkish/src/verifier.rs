//! Proof verification (paper workflow step 5, Figure 2).
//!
//! The verifier replays the Fiat–Shamir transcript, recomputes the folded
//! constraint value at the evaluation challenge from the claimed
//! evaluations, checks it against the quotient commitment, and verifies the
//! batched IPA openings.

use crate::eval::eval_at_point;
use crate::expression::{Column, ColumnKind, Query};
use crate::identities::identities;
use crate::keygen::VerifyingKey;
use crate::proof::{claims_by_rotation, eval_of, instance_queries, open_schedule, Proof};
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_curve::Pallas;
use poneglyph_hash::Transcript;
use poneglyph_pcs::{IpaAccumulator, IpaParams, IpaProof};
use std::collections::BTreeMap;

/// Verification failure reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The proof does not have the shape the circuit requires.
    Malformed(&'static str),
    /// The folded constraint identity does not hold at the challenge point.
    QuotientViolation,
    /// An IPA opening failed (rotation group index).
    OpeningFailure(usize),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Malformed(what) => write!(f, "malformed proof: {what}"),
            VerifyError::QuotientViolation => write!(f, "constraint system not satisfied"),
            VerifyError::OpeningFailure(g) => write!(f, "IPA opening {g} failed"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify `proof` against public `instance` columns, settling every IPA
/// opening immediately (one MSM per rotation group).
pub fn verify(
    params: &IpaParams,
    vk: &VerifyingKey,
    instance: &[Vec<Fq>],
    proof: &Proof,
) -> Result<(), VerifyError> {
    verify_inner(
        params,
        vk,
        instance,
        proof,
        &mut |params, transcript, commitment, point, eval, opening| {
            poneglyph_pcs::verify(params, transcript, commitment, point, eval, opening)
        },
    )
}

/// Verify `proof` like [`verify`], but *defer* the IPA opening checks into
/// `acc` instead of settling them one by one.
///
/// All transcript replay, structural checks and the quotient identity run
/// exactly as in [`verify`]; only the final opening checks are folded into
/// the accumulator's random linear combination. The caller settles the
/// whole batch with a single [`IpaAccumulator::finalize`] MSM — the
/// Halo-style amortization the paper's §3.2 relies on for cheap
/// verification of proof streams.
///
/// An `Ok(())` here means nothing on its own: the batch is sound only if
/// `finalize` returns `true`.
pub fn verify_accumulate(
    params: &IpaParams,
    vk: &VerifyingKey,
    instance: &[Vec<Fq>],
    proof: &Proof,
    acc: &mut IpaAccumulator,
) -> Result<(), VerifyError> {
    verify_inner(
        params,
        vk,
        instance,
        proof,
        &mut |params, transcript, commitment, point, eval, opening| {
            acc.add_claim(params, transcript, commitment, point, eval, opening)
        },
    )
}

/// The shared verification body; `check_opening` either settles each
/// opening claim immediately or accumulates it.
fn verify_inner(
    params: &IpaParams,
    vk: &VerifyingKey,
    instance: &[Vec<Fq>],
    proof: &Proof,
    check_opening: &mut dyn FnMut(&IpaParams, &mut Transcript, &Pallas, Fq, Fq, &IpaProof) -> bool,
) -> Result<(), VerifyError> {
    let cs = &vk.cs;
    let domain = &vk.domain;
    let n = domain.n;
    let u = vk.usable_rows;
    let num_pieces = domain.extended_n / n - 1;
    let chunks = cs.permutation_chunks();

    // Structural checks.
    if instance.len() != cs.num_instance {
        return Err(VerifyError::Malformed("instance column count"));
    }
    if instance.iter().any(|c| c.len() > u) {
        return Err(VerifyError::Malformed("instance column too long"));
    }
    if proof.advice_commitments.len() != cs.num_advice {
        return Err(VerifyError::Malformed("advice commitment count"));
    }
    if proof.lookup_permuted.len() != cs.lookups.len() {
        return Err(VerifyError::Malformed("lookup permuted count"));
    }
    if proof.perm_z.len() != chunks {
        return Err(VerifyError::Malformed("permutation product count"));
    }
    if proof.lookup_z.len() != cs.lookups.len() {
        return Err(VerifyError::Malformed("lookup product count"));
    }
    if proof.shuffle_z.len() != cs.shuffles.len() {
        return Err(VerifyError::Malformed("shuffle product count"));
    }
    if proof.h_pieces.len() != num_pieces {
        return Err(VerifyError::Malformed("quotient piece count"));
    }
    let schedule = open_schedule(cs, u as i32, num_pieces);
    if proof.evals.len() != schedule.len() {
        return Err(VerifyError::Malformed("evaluation count"));
    }
    let groups = claims_by_rotation(&schedule);
    if proof.openings.len() != groups.len() {
        return Err(VerifyError::Malformed("opening count"));
    }

    // Replay the transcript.
    let mut transcript = Transcript::new(b"poneglyph-plonk");
    vk.absorb_into(&mut transcript);
    for inst in instance {
        let mut blob = Vec::with_capacity(u * 32);
        for r in 0..u {
            let v = inst.get(r).copied().unwrap_or(Fq::ZERO);
            blob.extend_from_slice(&v.to_repr());
        }
        transcript.absorb_bytes(b"instance", &blob);
    }
    for c in &proof.advice_commitments {
        transcript.absorb_bytes(b"advice", &c.to_bytes());
    }
    let theta: Fq = transcript.challenge_nonzero(b"theta");
    for (a, s) in &proof.lookup_permuted {
        transcript.absorb_bytes(b"lookup-a", &a.to_bytes());
        transcript.absorb_bytes(b"lookup-s", &s.to_bytes());
    }
    let beta: Fq = transcript.challenge_nonzero(b"beta");
    let gamma: Fq = transcript.challenge_nonzero(b"gamma");
    for c in &proof.perm_z {
        transcript.absorb_bytes(b"perm-z", &c.to_bytes());
    }
    for c in &proof.lookup_z {
        transcript.absorb_bytes(b"lookup-z", &c.to_bytes());
    }
    for c in &proof.shuffle_z {
        transcript.absorb_bytes(b"shuffle-z", &c.to_bytes());
    }
    let y: Fq = transcript.challenge_nonzero(b"y");
    for c in &proof.h_pieces {
        transcript.absorb_bytes(b"h", &c.to_bytes());
    }
    let x: Fq = transcript.challenge_nonzero(b"x");
    for e in &proof.evals {
        transcript.absorb_scalar(b"eval", e);
    }

    // Every leaf of the identities at `x`: a claimed evaluation, unless the
    // verifier computes it itself — the instance columns (barycentric over
    // the padded public vector) and the row indicators (closed form).
    let mut computed: BTreeMap<Query, Fq> = BTreeMap::new();
    for q in instance_queries(cs) {
        let mut padded = instance[q.column.index].clone();
        padded.resize(n, Fq::ZERO);
        let point = domain.rotate_omega(q.rotation.0) * x;
        computed.insert(q, domain.eval_lagrange(&padded, point));
    }
    for (kind, value) in [
        (ColumnKind::L0, vk.lagrange_eval(0, x)),
        (ColumnKind::LLast, vk.lagrange_eval(u, x)),
        (ColumnKind::LActive, vk.l_active_eval(x)),
    ] {
        computed.insert(Query::new(kind, 0, 0), value);
    }
    let at_x = |q: Query| -> Fq {
        let claimed = || eval_of(&schedule, &proof.evals, q);
        computed
            .get(&q)
            .copied()
            .or_else(claimed)
            .expect("every leaf is scheduled")
    };

    // Fold the identities in canonical order.
    let folded = identities(cs, u, theta, beta, gamma).fold(Fq::ZERO, |acc, id| {
        acc * y + eval_at_point(&id.expr, x, &at_x)
    });

    // Quotient identity: folded == H(x)·(xⁿ − 1).
    let xn = x.pow(&[n as u64, 0, 0, 0]);
    let mut hx = Fq::ZERO;
    for j in (0..num_pieces).rev() {
        hx = hx * xn + at_x(Query::new(ColumnKind::HPiece, j, 0));
    }
    if folded != hx * (xn - Fq::ONE) {
        return Err(VerifyError::QuotientViolation);
    }

    // Batched IPA openings.
    let commitment_of = |c: Column| -> Pallas {
        match c.kind {
            ColumnKind::Advice => proof.advice_commitments[c.index].to_projective(),
            ColumnKind::Fixed => vk.fixed_commitments[c.index].to_projective(),
            ColumnKind::Sigma => vk.sigma_commitments[c.index].to_projective(),
            ColumnKind::PermZ => proof.perm_z[c.index].to_projective(),
            ColumnKind::LookupA => proof.lookup_permuted[c.index].0.to_projective(),
            ColumnKind::LookupS => proof.lookup_permuted[c.index].1.to_projective(),
            ColumnKind::LookupZ => proof.lookup_z[c.index].to_projective(),
            ColumnKind::ShuffleZ => proof.shuffle_z[c.index].to_projective(),
            ColumnKind::HPiece => proof.h_pieces[c.index].to_projective(),
            kind => unreachable!("{kind:?} is never opened"),
        }
    };

    let v: Fq = transcript.challenge_nonzero(b"v");
    for (g, ((r, ids), opening)) in groups.iter().zip(&proof.openings).enumerate() {
        let point = domain.rotate_omega(*r) * x;
        let mut combined = Pallas::identity();
        let mut combined_eval = Fq::ZERO;
        let mut pow = Fq::ONE;
        for id in ids {
            combined = combined.add(&commitment_of(*id).mul(&pow));
            combined_eval += pow * at_x(Query::new(id.kind, id.index, *r));
            pow *= v;
        }
        if !check_opening(
            params,
            &mut transcript,
            &combined,
            point,
            combined_eval,
            opening,
        ) {
            return Err(VerifyError::OpeningFailure(g));
        }
    }

    Ok(())
}
