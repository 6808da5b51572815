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
//! * **quotient** — every committed polynomial is extended onto the coset
//!   in parallel, then **one** chunk-parallel pass accumulates every
//!   constraint term over contiguous coset ranges (no worker materializes
//!   a full-coset temporary);
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

use crate::circuit::{Assignment, PERMUTATION_CHUNK};
use crate::eval::{
    compress_rows, eval_extended_chunk, eval_rows, identity_coset, omega_powers, CosetSource,
    RowSource,
};
use crate::keygen::{instrument, ProvingKey, VerifyingKey};
use crate::proof::{claims_by_rotation, open_schedule, PolyId, Proof};
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

/// One lookup's prover columns: the compressed input/table rows and the
/// permuted `A'`/`S'` columns of paper §4.1, Figure 4.
struct BuiltLookup {
    a: Vec<Fq>,
    s: Vec<Fq>,
    a_sorted: Vec<Fq>,
    s_final: Vec<Fq>,
}

/// Construct one lookup's permuted columns. Pure function of the witness
/// and the pre-drawn blinding rows, so lookups build in parallel.
fn build_lookup(
    lk: &crate::circuit::Lookup<Fq>,
    row_src: &RowSource<'_>,
    theta: Fq,
    u: usize,
    n: usize,
    blind_rows: &(Vec<Fq>, Vec<Fq>),
) -> Result<BuiltLookup, ProveError> {
    let inputs: Vec<Vec<Fq>> = lk.input.iter().map(|e| eval_rows(e, row_src, n)).collect();
    let tables: Vec<Vec<Fq>> = lk.table.iter().map(|e| eval_rows(e, row_src, n)).collect();
    let a = compress_rows(&inputs, theta);
    let s = compress_rows(&tables, theta);

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
                        lookup: lk.name.clone(),
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
    Ok(BuiltLookup {
        a,
        s,
        a_sorted,
        s_final,
    })
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
    let row_src = RowSource {
        fixed: &pk.fixed_values,
        advice: &asn.advice,
        instance: &asn.instance,
        omega_pows: &omega_pows,
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
        build_lookup(lk, &row_src, theta, u, n, &lookup_blind_rows[l])
    });
    let mut lookup_inputs: Vec<Vec<Fq>> = Vec::with_capacity(cs.lookups.len());
    let mut lookup_tables: Vec<Vec<Fq>> = Vec::with_capacity(cs.lookups.len());
    let mut lookup_a_sorted: Vec<Vec<Fq>> = Vec::with_capacity(cs.lookups.len());
    let mut lookup_s_matched: Vec<Vec<Fq>> = Vec::with_capacity(cs.lookups.len());
    for b in built {
        // First failing lookup (lowest index) wins, as in a serial pass.
        let b = b?;
        lookup_inputs.push(b.a);
        lookup_tables.push(b.s);
        lookup_a_sorted.push(b.a_sorted);
        lookup_s_matched.push(b.s_final);
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
    // Copy-constraint permutation (chunked).
    let perm_cols = &cs.permutation_columns;
    let chunks = cs.permutation_chunks();
    let chunk_slices: Vec<&[crate::expression::Column]> =
        perm_cols.chunks(PERMUTATION_CHUNK).collect();
    let chunk_tables: Vec<(Vec<Fq>, Vec<Fq>)> = par_map(par, &chunk_slices, |j, chunk| {
        let mut num = vec![Fq::ONE; u];
        let mut den = vec![Fq::ONE; u];
        for (ci, col) in chunk.iter().enumerate() {
            let global_i = j * PERMUTATION_CHUNK + ci;
            let k_i = VerifyingKey::coset_multiplier(global_i);
            let values = match col.kind {
                crate::expression::ColumnKind::Fixed => &pk.fixed_values[col.index],
                crate::expression::ColumnKind::Advice => &asn.advice[col.index],
                crate::expression::ColumnKind::Instance => &asn.instance[col.index],
            };
            let sigma = &pk.sigma_values[global_i];
            for r in 0..u {
                num[r] *= values[r] + beta * k_i * omega_pows[r] + gamma;
                den[r] *= values[r] + beta * sigma[r] + gamma;
            }
        }
        Fq::batch_invert(&mut den);
        (num, den)
    });
    let mut perm_z_values: Vec<Vec<Fq>> = Vec::with_capacity(chunks);
    let mut carry = Fq::ONE;
    for (num, den_inv) in &chunk_tables {
        let mut z = vec![Fq::ZERO; n];
        z[0] = carry;
        for r in 0..u {
            z[r + 1] = z[r] * num[r] * den_inv[r];
        }
        carry = z[u];
        for zi in z[u + 1..].iter_mut() {
            *zi = Fq::random(rng);
        }
        perm_z_values.push(z);
    }
    if chunks > 0 && carry != Fq::ONE {
        return Err(ProveError::PermutationInconsistent);
    }

    // Lookup grand products.
    let lookup_idx: Vec<usize> = (0..cs.lookups.len()).collect();
    let lookup_den_inv: Vec<Vec<Fq>> = par_map(par, &lookup_idx, |_, &l| {
        let ap = &lookup_a_sorted[l];
        let sp = &lookup_s_matched[l];
        let mut den: Vec<Fq> = (0..u).map(|r| (ap[r] + beta) * (sp[r] + gamma)).collect();
        Fq::batch_invert(&mut den);
        den
    });
    let mut lookup_z_values: Vec<Vec<Fq>> = Vec::with_capacity(cs.lookups.len());
    for l in 0..cs.lookups.len() {
        let a = &lookup_inputs[l];
        let s = &lookup_tables[l];
        let den = &lookup_den_inv[l];
        let mut z = vec![Fq::ZERO; n];
        z[0] = Fq::ONE;
        for r in 0..u {
            z[r + 1] = z[r] * (a[r] + beta) * (s[r] + gamma) * den[r];
        }
        debug_assert_eq!(z[u], Fq::ONE, "lookup product must close");
        for zi in z[u + 1..].iter_mut() {
            *zi = Fq::random(rng);
        }
        lookup_z_values.push(z);
    }

    // Shuffle grand products.
    let shuffle_tables: Vec<(Vec<Fq>, Vec<Fq>, Vec<Fq>)> = par_map(par, &cs.shuffles, |_, sh| {
        let inputs: Vec<Vec<Fq>> = sh.input.iter().map(|e| eval_rows(e, &row_src, n)).collect();
        let targets: Vec<Vec<Fq>> = sh
            .target
            .iter()
            .map(|e| eval_rows(e, &row_src, n))
            .collect();
        let a = compress_rows(&inputs, theta);
        let b = compress_rows(&targets, theta);
        let mut den: Vec<Fq> = (0..u).map(|r| b[r] + gamma).collect();
        Fq::batch_invert(&mut den);
        (a, b, den)
    });
    let mut shuffle_inputs: Vec<Vec<Fq>> = Vec::with_capacity(cs.shuffles.len());
    let mut shuffle_targets: Vec<Vec<Fq>> = Vec::with_capacity(cs.shuffles.len());
    let mut shuffle_z_values: Vec<Vec<Fq>> = Vec::with_capacity(cs.shuffles.len());
    for (a, b, den) in shuffle_tables {
        let mut z = vec![Fq::ZERO; n];
        z[0] = Fq::ONE;
        for r in 0..u {
            z[r + 1] = z[r] * (a[r] + gamma) * den[r];
        }
        debug_assert_eq!(z[u], Fq::ONE, "shuffle product must close");
        for zi in z[u + 1..].iter_mut() {
            *zi = Fq::random(rng);
        }
        shuffle_inputs.push(a);
        shuffle_targets.push(b);
        shuffle_z_values.push(z);
    }

    // Commit all Z polynomials (blinds drawn serially first, as above).
    let perm_z_blinds: Vec<Fq> = (0..chunks).map(|_| Fq::random(rng)).collect();
    let lookup_z_blinds: Vec<Fq> = (0..cs.lookups.len()).map(|_| Fq::random(rng)).collect();
    let shuffle_z_blinds: Vec<Fq> = (0..cs.shuffles.len()).map(|_| Fq::random(rng)).collect();
    let perm_z_polys = to_coeff_all(domain, &perm_z_values, par);
    let lookup_z_polys = to_coeff_all(domain, &lookup_z_values, par);
    let shuffle_z_polys = to_coeff_all(domain, &shuffle_z_values, par);
    let perm_z_comm = commit_all(params, &perm_z_polys, Some(&perm_z_blinds), par);
    let lookup_z_comm = commit_all(params, &lookup_z_polys, Some(&lookup_z_blinds), par);
    let shuffle_z_comm = commit_all(params, &shuffle_z_polys, Some(&shuffle_z_blinds), par);
    for c in &perm_z_comm {
        transcript.absorb_bytes(b"perm-z", &c.to_bytes());
    }
    for c in &lookup_z_comm {
        transcript.absorb_bytes(b"lookup-z", &c.to_bytes());
    }
    for c in &shuffle_z_comm {
        transcript.absorb_bytes(b"shuffle-z", &c.to_bytes());
    }

    let y: Fq = transcript.challenge_nonzero(b"y");
    let commit_elapsed = stage_start.elapsed();
    let stage_start = Instant::now();

    // ------------------------------------------------------------------
    // Phase 4: quotient polynomial over the extended coset.
    // Every committed polynomial extends onto the coset in parallel, then
    // one chunk-parallel pass accumulates every constraint term: each
    // worker owns a contiguous slice of the accumulator and evaluates all
    // terms, in the fixed fold order, over its own index range.
    // ------------------------------------------------------------------
    let ext_n = domain.extended_n;
    let ext_factor = ext_n / n;
    let instance_polys = to_coeff_all(domain, &asn.instance, par);
    let advice_cosets = to_extended_all(domain, &advice_polys, par);
    let instance_cosets = to_extended_all(domain, &instance_polys, par);
    let id_coset = identity_coset(domain);
    let coset_src = CosetSource {
        fixed: &pk.fixed_cosets,
        advice: &advice_cosets,
        instance: &instance_cosets,
        identity: &id_coset,
        ext_factor,
    };
    let perm_z_cosets = to_extended_all(domain, &perm_z_polys, par);
    let lookup_z_cosets = to_extended_all(domain, &lookup_z_polys, par);
    let shuffle_z_cosets = to_extended_all(domain, &shuffle_z_polys, par);
    let lookup_a_cosets = to_extended_all(domain, &lookup_a_polys, par);
    let lookup_s_cosets = to_extended_all(domain, &lookup_s_polys, par);

    // Rotation shifts in coset points (reads wrap around the full coset).
    let shift_of =
        |rows: i64| -> usize { (rows * ext_factor as i64).rem_euclid(ext_n as i64) as usize };
    let next_shift = shift_of(1);
    let prev_shift = shift_of(-1);
    let usable_shift = shift_of(u as i64);

    let vinv = domain.vanishing_inv_on_extended();
    let vinv_period = vinv.len();

    let mut acc = vec![Fq::ZERO; ext_n];
    par_chunks_mut(par, &mut acc, MIN_COSET_CHUNK, |offset, out| {
        let len = out.len();
        // Horner fold in `y`: per-index, so chunking cannot reorder it.
        let fold = |out: &mut [Fq], term: &[Fq]| {
            for (a, t) in out.iter_mut().zip(term) {
                *a = *a * y + *t;
            }
        };

        // (a) custom gates, gated by the active-row indicator.
        for gate in &cs.gates {
            for poly in &gate.polys {
                let mut term = eval_extended_chunk(poly, &coset_src, ext_n, offset, len);
                for (t, g) in term
                    .iter_mut()
                    .zip(&pk.l_active_coset[offset..offset + len])
                {
                    *t *= *g;
                }
                fold(out, &term);
            }
        }

        // (b) copy-constraint permutation.
        for j in 0..chunks {
            let z = &perm_z_cosets[j];
            if j == 0 {
                let term: Vec<Fq> = (0..len)
                    .map(|i| pk.l0_coset[offset + i] * (z[offset + i] - Fq::ONE))
                    .collect();
                fold(out, &term);
            } else {
                let prev = &perm_z_cosets[j - 1];
                let term: Vec<Fq> = (0..len)
                    .map(|i| {
                        let idx = offset + i;
                        pk.l0_coset[idx] * (z[idx] - prev[(idx + usable_shift) % ext_n])
                    })
                    .collect();
                fold(out, &term);
            }
            if j == chunks - 1 {
                let term: Vec<Fq> = (0..len)
                    .map(|i| pk.l_last_coset[offset + i] * (z[offset + i] - Fq::ONE))
                    .collect();
                fold(out, &term);
            }
            // Running product.
            let chunk = &perm_cols[j * PERMUTATION_CHUNK
                ..(j * PERMUTATION_CHUNK + PERMUTATION_CHUNK).min(perm_cols.len())];
            let mut num = vec![Fq::ONE; len];
            let mut den = vec![Fq::ONE; len];
            for (ci, col) in chunk.iter().enumerate() {
                let global_i = j * PERMUTATION_CHUNK + ci;
                let k_i = VerifyingKey::coset_multiplier(global_i);
                let vals = match col.kind {
                    crate::expression::ColumnKind::Fixed => &pk.fixed_cosets[col.index],
                    crate::expression::ColumnKind::Advice => &advice_cosets[col.index],
                    crate::expression::ColumnKind::Instance => &instance_cosets[col.index],
                };
                let sigma = &pk.sigma_cosets[global_i];
                for i in 0..len {
                    let idx = offset + i;
                    num[i] *= vals[idx] + beta * k_i * id_coset[idx] + gamma;
                    den[i] *= vals[idx] + beta * sigma[idx] + gamma;
                }
            }
            let term: Vec<Fq> = (0..len)
                .map(|i| {
                    let idx = offset + i;
                    let z_next = z[(idx + next_shift) % ext_n];
                    pk.l_active_coset[idx] * (z_next * den[i] - z[idx] * num[i])
                })
                .collect();
            fold(out, &term);
        }

        // (c) lookups.
        for l in 0..cs.lookups.len() {
            let z = &lookup_z_cosets[l];
            let ap = &lookup_a_cosets[l];
            let sp = &lookup_s_cosets[l];
            let inputs: Vec<Vec<Fq>> = cs.lookups[l]
                .input
                .iter()
                .map(|e| eval_extended_chunk(e, &coset_src, ext_n, offset, len))
                .collect();
            let tables: Vec<Vec<Fq>> = cs.lookups[l]
                .table
                .iter()
                .map(|e| eval_extended_chunk(e, &coset_src, ext_n, offset, len))
                .collect();
            let a_comp = compress_rows(&inputs, theta);
            let s_comp = compress_rows(&tables, theta);

            let t1: Vec<Fq> = (0..len)
                .map(|i| pk.l0_coset[offset + i] * (z[offset + i] - Fq::ONE))
                .collect();
            fold(out, &t1);
            let t2: Vec<Fq> = (0..len)
                .map(|i| pk.l_last_coset[offset + i] * (z[offset + i] - Fq::ONE))
                .collect();
            fold(out, &t2);
            let t3: Vec<Fq> = (0..len)
                .map(|i| {
                    let idx = offset + i;
                    let z_next = z[(idx + next_shift) % ext_n];
                    pk.l_active_coset[idx]
                        * (z_next * (ap[idx] + beta) * (sp[idx] + gamma)
                            - z[idx] * (a_comp[i] + beta) * (s_comp[i] + gamma))
                })
                .collect();
            fold(out, &t3);
            let t4: Vec<Fq> = (0..len)
                .map(|i| {
                    let idx = offset + i;
                    pk.l0_coset[idx] * (ap[idx] - sp[idx])
                })
                .collect();
            fold(out, &t4);
            let t5: Vec<Fq> = (0..len)
                .map(|i| {
                    let idx = offset + i;
                    let ap_prev = ap[(idx + prev_shift) % ext_n];
                    pk.l_active_coset[idx] * (ap[idx] - sp[idx]) * (ap[idx] - ap_prev)
                })
                .collect();
            fold(out, &t5);
        }

        // (d) shuffles.
        for (shuffle, z) in cs.shuffles.iter().zip(&shuffle_z_cosets) {
            let inputs: Vec<Vec<Fq>> = shuffle
                .input
                .iter()
                .map(|e| eval_extended_chunk(e, &coset_src, ext_n, offset, len))
                .collect();
            let targets: Vec<Vec<Fq>> = shuffle
                .target
                .iter()
                .map(|e| eval_extended_chunk(e, &coset_src, ext_n, offset, len))
                .collect();
            let a_comp = compress_rows(&inputs, theta);
            let b_comp = compress_rows(&targets, theta);
            let t1: Vec<Fq> = (0..len)
                .map(|i| pk.l0_coset[offset + i] * (z[offset + i] - Fq::ONE))
                .collect();
            fold(out, &t1);
            let t2: Vec<Fq> = (0..len)
                .map(|i| pk.l_last_coset[offset + i] * (z[offset + i] - Fq::ONE))
                .collect();
            fold(out, &t2);
            let t3: Vec<Fq> = (0..len)
                .map(|i| {
                    let idx = offset + i;
                    let z_next = z[(idx + next_shift) % ext_n];
                    pk.l_active_coset[idx]
                        * (z_next * (b_comp[i] + gamma) - z[idx] * (a_comp[i] + gamma))
                })
                .collect();
            fold(out, &t3);
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
    let poly_of = |id: PolyId| -> (&Polynomial<Fq>, Fq) {
        match id {
            PolyId::Advice(i) => (&advice_polys[i], advice_blinds[i]),
            PolyId::Fixed(i) => (&pk.fixed_polys[i], Fq::ZERO),
            PolyId::Sigma(i) => (&pk.sigma_polys[i], Fq::ZERO),
            PolyId::PermZ(j) => (&perm_z_polys[j], perm_z_blinds[j]),
            PolyId::LookupA(l) => (&lookup_a_polys[l], lookup_a_blinds[l]),
            PolyId::LookupS(l) => (&lookup_s_polys[l], lookup_s_blinds[l]),
            PolyId::LookupZ(l) => (&lookup_z_polys[l], lookup_z_blinds[l]),
            PolyId::ShuffleZ(s) => (&shuffle_z_polys[s], shuffle_z_blinds[s]),
            PolyId::HPiece(j) => (&h_piece_polys[j], h_blinds[j]),
        }
    };

    let schedule = open_schedule(cs, u as i32, num_pieces);
    let evals = par_map(par, &schedule, |_, (id, r)| {
        let point = domain.rotate_omega(*r) * x;
        poly_of(*id).0.eval(point)
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

    Ok((
        Proof {
            advice_commitments,
            lookup_permuted,
            perm_z: perm_z_comm,
            lookup_z: lookup_z_comm,
            shuffle_z: shuffle_z_comm,
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
