//! Proof generation (paper workflow step 4, Figure 2), restructured as an
//! explicitly staged, data-parallel pipeline.
//!
//! The prover commits to the witness, builds the lookup/shuffle/permutation
//! grand products, computes the quotient polynomial over the extended coset,
//! and opens every committed polynomial at the evaluation challenge with
//! batched IPA openings. Each stage is data-parallel under an explicit
//! [`Parallelism`] budget:
//!
//! * **commit** — column interpolations (parallel FFTs), per-column
//!   commitments (parallel MSMs), per-lookup permuted-column construction,
//!   and per-chunk grand-product numerators/denominators all fan out
//!   across scoped workers;
//! * **quotient** — every polynomial an identity reads (the witness
//!   columns and, since the proving key holds no coset tables, the fixed,
//!   σ and indicator columns too) is extended onto the coset in parallel,
//!   then **one** chunk-parallel pass accumulates every constraint term
//!   over contiguous coset ranges (no worker materializes a full-coset
//!   temporary);
//! * **open** — schedule evaluations run per-claim in parallel and the IPA
//!   folding rounds split their vector updates across workers.
//!
//! **Determinism invariant:** transcript absorption and every randomness
//! draw happen in a fixed serial order, *outside* the parallel regions —
//! blinding values are drawn up front and handed to workers. Field and
//! group arithmetic are exact, so chunked re-association cannot change a
//! value: the proof bytes are identical at every thread count. This is an
//! invariant, not a best effort — Fiat–Shamir soundness depends on prover
//! and verifier replaying one transcript.

use crate::circuit::Assignment;
use crate::eval::{eval_strided, identity_coset, omega_powers};
use crate::expression::{Column, ColumnKind, Expression};
use crate::identities::{compress, grand_products, identities};
use crate::keygen::{instrument, ProvingKey};
use crate::proof::{claims_by_rotation, open_schedule, Proof};
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_curve::{Pallas, PallasAffine};
use poneglyph_hash::Transcript;
use poneglyph_par::{par_chunks_mut, par_map, Parallelism};
use poneglyph_pcs::IpaParams;
use poneglyph_poly::{EvaluationDomain, Polynomial};
use rand::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Minimum coset points per scoped worker in the quotient pass.
const MIN_COSET_CHUNK: usize = 1 << 10;
/// Minimum coefficients per scoped worker in linear-combination passes.
const MIN_COEFF_CHUNK: usize = 1 << 10;

/// Errors surfaced during witness-dependent proving steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProveError {
    /// A lookup input value does not appear in its table.
    LookupValueMissing {
        /// The lookup's diagnostic name.
        lookup: String,
        /// The offending row.
        row: usize,
    },
    /// Copy constraints are inconsistent with the assigned values.
    PermutationInconsistent,
}

impl std::fmt::Display for ProveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProveError::LookupValueMissing { lookup, row } => {
                write!(f, "lookup '{lookup}': row {row} value not present in table")
            }
            ProveError::PermutationInconsistent => {
                write!(f, "copy constraints violated by assignment")
            }
        }
    }
}

impl std::error::Error for ProveError {}

/// Wall-clock breakdown of one [`prove_timed`] call by pipeline stage.
///
/// `commit` covers witness interpolation through the grand-product
/// commitments (phases 1–3), `quotient` the extended-coset constraint
/// accumulation and quotient-piece commitments (phase 4), and `open` the
/// schedule evaluations plus batched IPA openings (phase 5). The same
/// totals accumulate process-wide in [`instrument`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProverTimings {
    /// Time in the commit stage.
    pub commit: Duration,
    /// Time in the quotient stage.
    pub quotient: Duration,
    /// Time in the open stage.
    pub open: Duration,
}

// ---------------------------------------------------------------------
// Batch helpers shared with keygen: split the thread budget across
// columns first, and hand each column's FFT/MSM the leftover budget.
// ---------------------------------------------------------------------

/// Interpolate many Lagrange columns into coefficient polynomials.
pub(crate) fn to_coeff_all(
    domain: &EvaluationDomain<Fq>,
    values: &[Vec<Fq>],
    par: Parallelism,
) -> Vec<Polynomial<Fq>> {
    let inner = par.inner_for(values.len());
    par_map(par, values, |_, v| {
        domain.lagrange_to_coeff_with(v.clone(), inner)
    })
}

/// Evaluate many coefficient polynomials over the extended coset.
pub(crate) fn to_extended_all(
    domain: &EvaluationDomain<Fq>,
    polys: &[Polynomial<Fq>],
    par: Parallelism,
) -> Vec<Vec<Fq>> {
    let inner = par.inner_for(polys.len());
    par_map(par, polys, |_, p| domain.coeff_to_extended_with(p, inner))
}

/// Commit to many polynomials (blinds `None` = all zero, the keygen case)
/// and normalize the batch to affine.
pub(crate) fn commit_all(
    params: &IpaParams,
    polys: &[Polynomial<Fq>],
    blinds: Option<&[Fq]>,
    par: Parallelism,
) -> Vec<PallasAffine> {
    let inner = par.inner_for(polys.len());
    let projective = par_map(par, polys, |i, p| {
        let blind = blinds.map_or(Fq::ZERO, |b| b[i]);
        params.commit_with(&p.coeffs, blind, inner)
    });
    Pallas::batch_to_affine(&projective)
}

/// Construct one lookup's permuted columns `A'`/`S'` (paper §4.1, Figure 4)
/// from the rows of its compressed input and table. Pure function of the
/// witness and the pre-drawn blinding rows, so lookups build in parallel.
fn build_lookup(
    name: &str,
    a: &[Fq],
    s: &[Fq],
    u: usize,
    blind_rows: &(Vec<Fq>, Vec<Fq>),
) -> Result<(Vec<Fq>, Vec<Fq>), ProveError> {
    let n = a.len();
    // Sort the inputs so duplicates are adjacent (paper Eq. 1 layout).
    let mut a_sorted: Vec<Fq> = a[..u].to_vec();
    a_sorted.sort_unstable_by_key(|v| {
        let mut r = v.to_repr();
        r.reverse();
        r
    });
    // Arrange S' so that whenever a new value starts in A', S' carries it.
    let mut counts: HashMap<[u8; 32], usize> = HashMap::with_capacity(u);
    for v in &s[..u] {
        *counts.entry(v.to_repr()).or_insert(0) += 1;
    }
    let mut s_matched: Vec<Option<Fq>> = vec![None; u];
    for i in 0..u {
        if i == 0 || a_sorted[i] != a_sorted[i - 1] {
            let slot = counts.get_mut(&a_sorted[i].to_repr());
            match slot {
                Some(c) if *c > 0 => *c -= 1,
                _ => {
                    return Err(ProveError::LookupValueMissing {
                        lookup: name.to_string(),
                        row: i,
                    })
                }
            }
            s_matched[i] = Some(a_sorted[i]);
        }
    }
    // Fill the remaining S' slots with the leftover table values.
    let mut leftovers = s[..u].iter().filter(|v| {
        let key = v.to_repr();
        if let Some(c) = counts.get_mut(&key) {
            if *c > 0 {
                *c -= 1;
                return true;
            }
        }
        false
    });
    let mut s_final = Vec::with_capacity(n);
    for slot in s_matched {
        match slot {
            Some(v) => s_final.push(v),
            None => s_final.push(*leftovers.next().expect("table size equals input size")),
        }
    }
    // Blinding region: values were drawn serially by the caller.
    a_sorted.resize(n, Fq::ZERO);
    s_final.resize(n, Fq::ZERO);
    a_sorted[u..n].copy_from_slice(&blind_rows.0);
    s_final[u..n].copy_from_slice(&blind_rows.1);
    Ok((a_sorted, s_final))
}

/// Generate a proof for `asn` under `pk` within the thread budget `par`,
/// returning it with the per-stage wall-clock breakdown (also accumulated
/// into the process-wide [`instrument`] counters). The proof bytes are
/// identical at every budget (see the module docs for why).
///
/// The instance columns inside `asn` are the public inputs; the verifier
/// must be given the same values.
pub fn prove_timed(
    params: &IpaParams,
    pk: &ProvingKey,
    mut asn: Assignment<Fq>,
    rng: &mut impl Rng,
    par: Parallelism,
) -> Result<(Proof, ProverTimings), ProveError> {
    let vk = &pk.vk;
    let cs = &vk.cs;
    let domain = &vk.domain;
    let n = domain.n;
    let u = vk.usable_rows;
    assert_eq!(params.k, asn.k, "params/circuit size mismatch");

    let stage_start = Instant::now();

    let mut transcript = Transcript::new(b"poneglyph-plonk");
    vk.absorb_into(&mut transcript);
    for col in &asn.instance {
        let mut blob = Vec::with_capacity(u * 32);
        for v in &col[..u] {
            blob.extend_from_slice(&v.to_repr());
        }
        transcript.absorb_bytes(b"instance", &blob);
    }

    // ------------------------------------------------------------------
    // Phase 1: commit to the (blinded) advice columns.
    // Randomness first (serial), then the interpolations and MSMs fan
    // out across the budget, then the commitments absorb in column order.
    // ------------------------------------------------------------------
    asn.blind(rng);
    let advice_blinds: Vec<Fq> = (0..asn.advice.len()).map(|_| Fq::random(rng)).collect();
    let advice_polys = to_coeff_all(domain, &asn.advice, par);
    let advice_commitments = commit_all(params, &advice_polys, Some(&advice_blinds), par);
    for c in &advice_commitments {
        transcript.absorb_bytes(b"advice", &c.to_bytes());
    }

    let theta: Fq = transcript.challenge_nonzero(b"theta");

    // ------------------------------------------------------------------
    // Phase 2: lookup permuted columns A' and S' (paper §4.1, Figure 4).
    // Blinding rows are drawn serially per lookup; construction (row
    // evaluation, sorting, matching) runs one worker per lookup.
    // ------------------------------------------------------------------
    let omega_pows = omega_powers(domain);
    let circuit_rows = |c: Column| -> &[Fq] {
        match c.kind {
            ColumnKind::Fixed => &pk.fixed_values[c.index],
            ColumnKind::Advice => &asn.advice[c.index],
            ColumnKind::Instance => &asn.instance[c.index],
            ColumnKind::Sigma => &pk.sigma_values[c.index],
            kind => unreachable!("{kind:?} has no row values at this stage"),
        }
    };

    let lookup_blind_rows: Vec<(Vec<Fq>, Vec<Fq>)> = cs
        .lookups
        .iter()
        .map(|_| {
            (
                (u..n).map(|_| Fq::random(rng)).collect(),
                (u..n).map(|_| Fq::random(rng)).collect(),
            )
        })
        .collect();
    let built = par_map(par, &cs.lookups, |l, lk| {
        let rows = |parts: &[Expression<Fq>]| {
            eval_strided(&compress(parts, theta), &circuit_rows, &omega_pows, 1, 0, n)
        };
        let (a, s) = (rows(&lk.input), rows(&lk.table));
        build_lookup(&lk.name, &a, &s, u, &lookup_blind_rows[l])
    });
    let mut lookup_a_sorted: Vec<Vec<Fq>> = Vec::with_capacity(cs.lookups.len());
    let mut lookup_s_matched: Vec<Vec<Fq>> = Vec::with_capacity(cs.lookups.len());
    for b in built {
        // First failing lookup (lowest index) wins, as in a serial pass.
        let (a_sorted, s_final) = b?;
        lookup_a_sorted.push(a_sorted);
        lookup_s_matched.push(s_final);
    }
    let lookup_a_blinds: Vec<Fq> = (0..cs.lookups.len()).map(|_| Fq::random(rng)).collect();
    let lookup_s_blinds: Vec<Fq> = (0..cs.lookups.len()).map(|_| Fq::random(rng)).collect();
    let lookup_a_polys = to_coeff_all(domain, &lookup_a_sorted, par);
    let lookup_s_polys = to_coeff_all(domain, &lookup_s_matched, par);
    let lookup_a_comm = commit_all(params, &lookup_a_polys, Some(&lookup_a_blinds), par);
    let lookup_s_comm = commit_all(params, &lookup_s_polys, Some(&lookup_s_blinds), par);
    let mut lookup_permuted = Vec::with_capacity(cs.lookups.len());
    for (ca, cb) in lookup_a_comm.iter().zip(&lookup_s_comm) {
        transcript.absorb_bytes(b"lookup-a", &ca.to_bytes());
        transcript.absorb_bytes(b"lookup-s", &cb.to_bytes());
        lookup_permuted.push((*ca, *cb));
    }

    let beta: Fq = transcript.challenge_nonzero(b"beta");
    let gamma: Fq = transcript.challenge_nonzero(b"gamma");

    // ------------------------------------------------------------------
    // Phase 3: grand products. The O(rows·columns) numerator/denominator
    // tables build in parallel (they depend only on the witness and the
    // challenges); the O(rows) running products and their blinding draws
    // stay serial — the permutation chunks chain through `carry`.
    // ------------------------------------------------------------------
    let products: Vec<_> = grand_products(cs, theta, beta, gamma).collect();
    let row_values = |c: Column| -> &[Fq] {
        match c.kind {
            ColumnKind::LookupA => &lookup_a_sorted[c.index],
            ColumnKind::LookupS => &lookup_s_matched[c.index],
            _ => circuit_rows(c),
        }
    };
    let ratios: Vec<(Vec<Fq>, Vec<Fq>)> = par_map(par, &products, |_, gp| {
        let rows = |e: &Expression<Fq>| eval_strided(e, &row_values, &omega_pows, 1, 0, u);
        let mut den = rows(&gp.denominator);
        Fq::batch_invert(&mut den);
        (rows(&gp.numerator), den)
    });
    let mut z_values: Vec<Vec<Fq>> = Vec::with_capacity(products.len());
    let mut carry = Fq::ONE;
    for (gp, (num, den_inv)) in products.iter().zip(&ratios) {
        let mut z = vec![Fq::ZERO; n];
        z[0] = if gp.carries_from.is_some() {
            carry
        } else {
            Fq::ONE
        };
        for r in 0..u {
            z[r + 1] = z[r] * num[r] * den_inv[r];
        }
        carry = z[u];
        if gp.closes && carry != Fq::ONE {
            // Nothing before this point checks the copies. A lookup was
            // matched by `build_lookup`, and a false shuffle yields a proof
            // the verifier rejects.
            if gp.z.kind == ColumnKind::PermZ {
                return Err(ProveError::PermutationInconsistent);
            }
            debug_assert!(false, "{:?} product must close", gp.origin);
        }
        for zi in z[u + 1..].iter_mut() {
            *zi = Fq::random(rng);
        }
        z_values.push(z);
    }

    // Commit all Z polynomials (blinds drawn serially first, as above).
    let z_blinds: Vec<Fq> = (0..products.len()).map(|_| Fq::random(rng)).collect();
    let z_polys = to_coeff_all(domain, &z_values, par);
    let z_comm = commit_all(params, &z_polys, Some(&z_blinds), par);
    for (gp, c) in products.iter().zip(&z_comm) {
        let label: &[u8] = match gp.z.kind {
            ColumnKind::PermZ => b"perm-z",
            ColumnKind::LookupZ => b"lookup-z",
            _ => b"shuffle-z",
        };
        transcript.absorb_bytes(label, &c.to_bytes());
    }
    // Where a product's polynomial sits in `z_polys` (commitment order).
    let chunks = cs.permutation_chunks();
    let z_slot = |c: Column| match c.kind {
        ColumnKind::PermZ => c.index,
        ColumnKind::LookupZ => chunks + c.index,
        _ => chunks + cs.lookups.len() + c.index,
    };

    let y: Fq = transcript.challenge_nonzero(b"y");
    let commit_elapsed = stage_start.elapsed();
    let stage_start = Instant::now();

    // ------------------------------------------------------------------
    // Phase 4: quotient polynomial over the extended coset.
    // Every polynomial an identity reads — key columns, protocol
    // indicators and witness alike — extends onto the coset in parallel, then
    // one chunk-parallel pass accumulates every identity: each worker owns
    // a contiguous slice of the accumulator and evaluates all of them, in
    // the fixed fold order, over its own index range.
    // ------------------------------------------------------------------
    let ext_n = domain.extended_n;
    let ext_factor = ext_n / n;
    let instance_polys = to_coeff_all(domain, &asn.instance, par);
    let indicator = |rows: std::ops::Range<usize>| {
        let mut v = vec![Fq::ZERO; n];
        v[rows].fill(Fq::ONE);
        v
    };
    // `l₀`, `l_last` (the boundary row) and `l_active`, in that order; the
    // Lagrange and coefficient forms are temporaries.
    let indicator_ext = to_extended_all(
        domain,
        &to_coeff_all(
            domain,
            &[indicator(0..1), indicator(u..u + 1), indicator(0..u)],
            par,
        ),
        par,
    );
    let fixed_ext = to_extended_all(domain, &pk.fixed_polys, par);
    let sigma_ext = to_extended_all(domain, &pk.sigma_polys, par);
    let advice_cosets = to_extended_all(domain, &advice_polys, par);
    let instance_cosets = to_extended_all(domain, &instance_polys, par);
    let id_coset = identity_coset(domain);
    let z_cosets = to_extended_all(domain, &z_polys, par);
    let lookup_a_cosets = to_extended_all(domain, &lookup_a_polys, par);
    let lookup_s_cosets = to_extended_all(domain, &lookup_s_polys, par);
    let coset_values = |c: Column| -> &[Fq] {
        match c.kind {
            ColumnKind::Fixed => &fixed_ext[c.index],
            ColumnKind::Advice => &advice_cosets[c.index],
            ColumnKind::Instance => &instance_cosets[c.index],
            ColumnKind::Sigma => &sigma_ext[c.index],
            ColumnKind::PermZ | ColumnKind::LookupZ | ColumnKind::ShuffleZ => &z_cosets[z_slot(c)],
            ColumnKind::LookupA => &lookup_a_cosets[c.index],
            ColumnKind::LookupS => &lookup_s_cosets[c.index],
            ColumnKind::L0 => &indicator_ext[0],
            ColumnKind::LLast => &indicator_ext[1],
            ColumnKind::LActive => &indicator_ext[2],
            ColumnKind::HPiece => unreachable!("the quotient is not a leaf of any identity"),
        }
    };

    let ids: Vec<_> = identities(cs, u, theta, beta, gamma).collect();
    let vinv = domain.vanishing_inv_on_extended();
    let vinv_period = vinv.len();

    let mut acc = vec![Fq::ZERO; ext_n];
    par_chunks_mut(par, &mut acc, MIN_COSET_CHUNK, |offset, out| {
        // Horner fold in `y`: per-index, so chunking cannot reorder it.
        for id in &ids {
            let term = eval_strided(
                &id.expr,
                &coset_values,
                &id_coset,
                ext_factor,
                offset,
                out.len(),
            );
            for (a, t) in out.iter_mut().zip(&term) {
                *a = *a * y + *t;
            }
        }
        // Divide by the vanishing polynomial (periodic over the coset).
        for (i, a) in out.iter_mut().enumerate() {
            *a *= vinv[(offset + i) % vinv_period];
        }
    });

    let h = domain.extended_to_coeff_with(acc, par);
    let num_pieces = ext_factor - 1;
    debug_assert!(
        h.coeffs[num_pieces * n..].iter().all(|c| c.is_zero()),
        "quotient degree exceeds budget — constraint degree accounting bug"
    );
    let h_piece_polys: Vec<Polynomial<Fq>> = (0..num_pieces)
        .map(|j| Polynomial::from_coeffs(h.coeffs[j * n..(j + 1) * n].to_vec()))
        .collect();
    let h_blinds: Vec<Fq> = (0..num_pieces).map(|_| Fq::random(rng)).collect();
    let h_comm = commit_all(params, &h_piece_polys, Some(&h_blinds), par);
    for c in &h_comm {
        transcript.absorb_bytes(b"h", &c.to_bytes());
    }

    let x: Fq = transcript.challenge_nonzero(b"x");
    let quotient_elapsed = stage_start.elapsed();
    let stage_start = Instant::now();

    // ------------------------------------------------------------------
    // Phase 5: evaluations and batched openings. Claims evaluate in
    // parallel; their transcript absorption (and every IPA round) stays
    // in fixed schedule order.
    // ------------------------------------------------------------------
    let poly_of = |c: Column| -> (&Polynomial<Fq>, Fq) {
        match c.kind {
            ColumnKind::Advice => (&advice_polys[c.index], advice_blinds[c.index]),
            ColumnKind::Fixed => (&pk.fixed_polys[c.index], Fq::ZERO),
            ColumnKind::Sigma => (&pk.sigma_polys[c.index], Fq::ZERO),
            ColumnKind::PermZ | ColumnKind::LookupZ | ColumnKind::ShuffleZ => {
                (&z_polys[z_slot(c)], z_blinds[z_slot(c)])
            }
            ColumnKind::LookupA => (&lookup_a_polys[c.index], lookup_a_blinds[c.index]),
            ColumnKind::LookupS => (&lookup_s_polys[c.index], lookup_s_blinds[c.index]),
            ColumnKind::HPiece => (&h_piece_polys[c.index], h_blinds[c.index]),
            kind => unreachable!("{kind:?} is never opened"),
        }
    };

    let schedule = open_schedule(cs, u as i32, num_pieces);
    let evals = par_map(par, &schedule, |_, q| {
        let point = domain.rotate_omega(q.rotation.0) * x;
        poly_of(q.column).0.eval(point)
    });
    for e in &evals {
        transcript.absorb_scalar(b"eval", e);
    }

    let v: Fq = transcript.challenge_nonzero(b"v");
    let groups = claims_by_rotation(&schedule);
    let mut openings = Vec::with_capacity(groups.len());
    for (r, ids) in &groups {
        let point = domain.rotate_omega(*r) * x;
        // The v-weighted combination is per-coefficient: each worker walks
        // the same id order over its own coefficient range.
        let mut combined = vec![Fq::ZERO; n];
        par_chunks_mut(par, &mut combined, MIN_COEFF_CHUNK, |offset, chunk| {
            let mut pow = Fq::ONE;
            for id in ids {
                let (poly, _) = poly_of(*id);
                let hi = poly.coeffs.len().min(offset + chunk.len());
                if hi > offset {
                    for (c, p) in chunk.iter_mut().zip(&poly.coeffs[offset..hi]) {
                        *c += pow * *p;
                    }
                }
                pow *= v;
            }
        });
        let mut combined_blind = Fq::ZERO;
        let mut pow = Fq::ONE;
        for id in ids {
            combined_blind += pow * poly_of(*id).1;
            pow *= v;
        }
        openings.push(poneglyph_pcs::open_with(
            params,
            &mut transcript,
            &combined,
            combined_blind,
            point,
            rng,
            par,
        ));
    }

    let open_elapsed = stage_start.elapsed();
    let timings = ProverTimings {
        commit: commit_elapsed,
        quotient: quotient_elapsed,
        open: open_elapsed,
    };
    instrument::record_stages(
        commit_elapsed.as_nanos() as u64,
        quotient_elapsed.as_nanos() as u64,
        open_elapsed.as_nanos() as u64,
    );

    let (perm_z, rest) = z_comm.split_at(chunks);
    let (lookup_z, shuffle_z) = rest.split_at(cs.lookups.len());
    Ok((
        Proof {
            advice_commitments,
            lookup_permuted,
            perm_z: perm_z.to_vec(),
            lookup_z: lookup_z.to_vec(),
            shuffle_z: shuffle_z.to_vec(),
            h_pieces: h_comm,
            evals,
            openings,
        },
        timings,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counters_are_monotone() {
        // The process-global stage counters only ever grow; other tests in
        // this binary may run concurrently, so assert lower bounds on the
        // deltas (concurrent provers only push the counters further up),
        // not exact values.
        let before = (
            instrument::commit_nanos(),
            instrument::quotient_nanos(),
            instrument::open_nanos(),
        );
        instrument::record_stages(3, 2, 1);
        instrument::record_stages(10, 20, 30);
        assert!(instrument::commit_nanos() >= before.0 + 13);
        assert!(instrument::quotient_nanos() >= before.1 + 22);
        assert!(instrument::open_nanos() >= before.2 + 31);
    }
}
