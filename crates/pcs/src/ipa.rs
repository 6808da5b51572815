//! The inner-product opening argument (Bootle et al. / Halo variant).
//!
//! Proves that a committed coefficient vector `a` satisfies `p(x) = v`,
//! i.e. `<a, (1, x, x², …)> = v`, in `log n` rounds with two group elements
//! per round. Proving time is linear in the vector length, proof size and
//! (amortized) verification are logarithmic — the three properties for which
//! the paper selects IPA (§3.2).

use crate::params::IpaParams;
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_curve::{msm_with, Pallas, PallasAffine};
use poneglyph_hash::Transcript;
use poneglyph_par::{par_chunks_mut, par_ranges, Parallelism};
use rand::Rng;

/// Minimum field elements per scoped worker in the folding passes.
const MIN_FOLD_CHUNK: usize = 1 << 10;
/// Minimum scalar multiplications per scoped worker when folding `G`.
const MIN_POINT_CHUNK: usize = 1 << 5;

/// A non-interactive IPA opening proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IpaProof {
    /// Per-round cross terms `(L_j, R_j)`.
    pub rounds: Vec<(PallasAffine, PallasAffine)>,
    /// The fully folded scalar.
    pub a: Fq,
    /// The folded blinding factor.
    pub blind: Fq,
}

impl IpaProof {
    /// Byte length of the serialized proof (used for the paper's proof-size
    /// measurements in Table 4).
    pub fn size_in_bytes(&self) -> usize {
        self.rounds.len() * 2 * 64 + 2 * 32
    }

    /// Serialize (uncompressed points, little-endian scalars).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_in_bytes() + 8);
        out.extend_from_slice(&(self.rounds.len() as u64).to_le_bytes());
        for (l, r) in &self.rounds {
            out.extend_from_slice(&l.to_bytes());
            out.extend_from_slice(&r.to_bytes());
        }
        out.extend_from_slice(&self.a.to_repr());
        out.extend_from_slice(&self.blind.to_repr());
        out
    }

    /// Deserialize; `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let n = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        if n > 64 || bytes.len() != 8 + n * 128 + 64 {
            return None;
        }
        let mut rounds = Vec::with_capacity(n);
        let mut off = 8;
        for _ in 0..n {
            let l = PallasAffine::from_bytes(bytes[off..off + 64].try_into().unwrap())?;
            let r = PallasAffine::from_bytes(bytes[off + 64..off + 128].try_into().unwrap())?;
            rounds.push((l, r));
            off += 128;
        }
        let a = Fq::from_repr(bytes[off..off + 32].try_into().unwrap())?;
        let blind = Fq::from_repr(bytes[off + 32..off + 64].try_into().unwrap())?;
        Some(Self { rounds, a, blind })
    }
}

/// Open the committed polynomial `coeffs` (blinded by `blind`) at `x`.
///
/// The caller must already have absorbed the commitment and the claimed
/// evaluation into `transcript` (as the verifier will). Each folding
/// round's vector updates (`a`, `b`, `G`) and cross-term inner products
/// split across scoped workers, while transcript absorption and blinding
/// draws stay in serial round order — the proof bytes are identical at any
/// budget.
pub fn open_with(
    params: &IpaParams,
    transcript: &mut Transcript,
    coeffs: &[Fq],
    blind: Fq,
    x: Fq,
    rng: &mut impl Rng,
    par: Parallelism,
) -> IpaProof {
    let _span = poneglyph_obs::span("pcs.open");
    let n = params.n;
    assert!(coeffs.len() <= n);
    let k = params.k;

    // Mix the evaluation claim into the commitment: the relation proven is
    // P' = <a, G> + blind·H + z·<a, b>·U.
    let z: Fq = transcript.challenge_nonzero(b"ipa-z");

    let mut a = coeffs.to_vec();
    a.resize(n, Fq::ZERO);
    let mut b: Vec<Fq> = Vec::with_capacity(n);
    let mut cur = Fq::ONE;
    for _ in 0..n {
        b.push(cur);
        cur *= x;
    }
    let mut g: Vec<PallasAffine> = params.g.clone();
    let mut blind_acc = blind;
    let u_point = params.u.to_projective();

    let mut rounds = Vec::with_capacity(k as usize);
    let mut half = n / 2;
    while half >= 1 {
        let (a_lo, a_hi) = a.split_at(half);
        let (b_lo, b_hi) = b.split_at(half);
        let (g_lo, g_hi) = g.split_at(half);

        let l_blind = Fq::random(rng);
        let r_blind = Fq::random(rng);
        // Partial sums per contiguous range; field addition is exact, so
        // the reassociation cannot change the value.
        let inner_lo_hi: Fq = par_ranges(par, half, MIN_FOLD_CHUNK, |r| {
            r.map(|i| a_lo[i] * b_hi[i]).sum::<Fq>()
        })
        .into_iter()
        .sum();
        let inner_hi_lo: Fq = par_ranges(par, half, MIN_FOLD_CHUNK, |r| {
            r.map(|i| a_hi[i] * b_lo[i]).sum::<Fq>()
        })
        .into_iter()
        .sum();

        let l = msm_with(a_lo, g_hi, par)
            .add(&u_point.mul(&(z * inner_lo_hi)))
            .add(&params.h.to_projective().mul(&l_blind));
        let r = msm_with(a_hi, g_lo, par)
            .add(&u_point.mul(&(z * inner_hi_lo)))
            .add(&params.h.to_projective().mul(&r_blind));
        let l_aff = l.to_affine();
        let r_aff = r.to_affine();
        transcript.absorb_bytes(b"ipa-l", &l_aff.to_bytes());
        transcript.absorb_bytes(b"ipa-r", &r_aff.to_bytes());
        rounds.push((l_aff, r_aff));

        let u_j: Fq = transcript.challenge_nonzero(b"ipa-u");
        let u_j_inv = u_j.invert().expect("challenge is nonzero");

        // Fold: a' = u·a_lo + u⁻¹·a_hi, b' = u⁻¹·b_lo + u·b_hi,
        //       G' = u⁻¹·G_lo + u·G_hi. Every output cell is written by
        //       exactly one worker from immutable halves.
        let mut a_next = vec![Fq::ZERO; half];
        let mut b_next = vec![Fq::ZERO; half];
        par_chunks_mut(par, &mut a_next, MIN_FOLD_CHUNK, |offset, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                let i = offset + j;
                *v = a_lo[i] * u_j + a_hi[i] * u_j_inv;
            }
        });
        par_chunks_mut(par, &mut b_next, MIN_FOLD_CHUNK, |offset, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                let i = offset + j;
                *v = b_lo[i] * u_j_inv + b_hi[i] * u_j;
            }
        });
        let mut g_proj = vec![Pallas::identity(); half];
        par_chunks_mut(par, &mut g_proj, MIN_POINT_CHUNK, |offset, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                let i = offset + j;
                *v = g_lo[i]
                    .to_projective()
                    .mul(&u_j_inv)
                    .add(&g_hi[i].to_projective().mul(&u_j));
            }
        });
        let g_next = Pallas::batch_to_affine(&g_proj);

        blind_acc += l_blind * u_j.square() + r_blind * u_j_inv.square();
        a = a_next;
        b = b_next;
        g = g_next;
        half /= 2;
    }

    IpaProof {
        rounds,
        a: a[0],
        blind: blind_acc,
    }
}

/// Recompute the IPA folding challenges from a transcript and proof.
fn read_challenges(transcript: &mut Transcript, proof: &IpaProof) -> (Fq, Vec<Fq>) {
    let z: Fq = transcript.challenge_nonzero(b"ipa-z");
    let mut challenges = Vec::with_capacity(proof.rounds.len());
    for (l, r) in &proof.rounds {
        transcript.absorb_bytes(b"ipa-l", &l.to_bytes());
        transcript.absorb_bytes(b"ipa-r", &r.to_bytes());
        challenges.push(transcript.challenge_nonzero(b"ipa-u"));
    }
    (z, challenges)
}

/// The `s` vector: `G_final = <s, G>`.
fn s_vector(challenges: &[Fq]) -> Vec<Fq> {
    let mut s = vec![Fq::ONE];
    for u_j in challenges.iter().rev() {
        let u_inv = u_j.invert().expect("nonzero");
        let mut next = Vec::with_capacity(s.len() * 2);
        next.extend(s.iter().map(|v| *v * u_inv));
        next.extend(s.iter().map(|v| *v * *u_j));
        s = next;
    }
    s
}

/// `b_final = Σ s_i·x^i = Π_j (u_j⁻¹ + u_j·x^{2^{k-j}})`.
fn b_final(challenges: &[Fq], x: Fq) -> Fq {
    let mut acc = Fq::ONE;
    let mut x_pow = x; // x^{2^{k-j}} for j = k (innermost) is x^1
    for u_j in challenges.iter().rev() {
        let u_inv = u_j.invert().expect("nonzero");
        acc *= u_inv + *u_j * x_pow;
        x_pow = x_pow.square();
    }
    acc
}

/// Fully verify an opening proof (`commitment` opens to `v` at `x`): an
/// [`IpaAccumulator`] holding this one claim, settled at once.
///
/// The final check is an `n`-sized MSM; accumulate many claims before
/// settling for the amortized form the paper relies on for cheap
/// verification.
pub fn verify(
    params: &IpaParams,
    transcript: &mut Transcript,
    commitment: &Pallas,
    x: Fq,
    v: Fq,
    proof: &IpaProof,
) -> bool {
    let mut acc = IpaAccumulator::new(params, Fq::ONE);
    acc.add_claim(params, transcript, commitment, x, v, proof) && acc.finalize(params)
}

/// Deferred verification: each proof contributes one linear claim over the
/// fixed generator vector `G`; claims are combined with a random challenge
/// and settled with a single MSM (`Halo`-style accumulation, the mechanism
/// behind the paper's "recursive proof composition" §3.2).
pub struct IpaAccumulator {
    /// Random linear-combination weight for the next claim.
    rho: Fq,
    /// Running weight.
    weight: Fq,
    /// Accumulated coefficients on `G`.
    g_scalars: Vec<Fq>,
    /// Accumulated explicit point term (everything that is not `<·, G>`).
    point: Pallas,
}

impl IpaAccumulator {
    /// Start an empty accumulator for parameters of size `n`.
    pub fn new(params: &IpaParams, rho: Fq) -> Self {
        Self {
            rho,
            weight: Fq::ONE,
            g_scalars: vec![Fq::ZERO; params.n],
            point: Pallas::identity(),
        }
    }

    /// Add one opening claim. Returns `false` immediately on structural
    /// mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn add_claim(
        &mut self,
        params: &IpaParams,
        transcript: &mut Transcript,
        commitment: &Pallas,
        x: Fq,
        v: Fq,
        proof: &IpaProof,
    ) -> bool {
        if proof.rounds.len() != params.k as usize {
            return false;
        }
        let (z, challenges) = read_challenges(transcript, proof);
        let mut lhs = commitment.add(&params.u.to_projective().mul(&(z * v)));
        for ((l, r), u_j) in proof.rounds.iter().zip(&challenges) {
            let u2 = u_j.square();
            let u2_inv = u2.invert().expect("nonzero");
            lhs = lhs
                .add(&l.to_projective().mul(&u2))
                .add(&r.to_projective().mul(&u2_inv));
        }
        let s = s_vector(&challenges);
        let b = b_final(&challenges, x);
        // weight · (RHS − LHS) accumulated; RHS = a·<s,G> + z·a·b·U + blind·H
        let w = self.weight;
        for (acc, si) in self.g_scalars.iter_mut().zip(&s) {
            *acc += w * proof.a * *si;
        }
        self.point = self
            .point
            .add(&params.u.to_projective().mul(&(w * z * proof.a * b)))
            .add(&params.h.to_projective().mul(&(w * proof.blind)))
            .sub(&lhs.mul(&w));
        self.weight *= self.rho;
        true
    }

    /// Settle every accumulated claim with one MSM.
    pub fn finalize(self, params: &IpaParams) -> bool {
        msm_with(&self.g_scalars, &params.g, Parallelism::auto())
            .add(&self.point)
            .is_identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup(k: u32) -> (IpaParams, StdRng) {
        (IpaParams::setup(k), StdRng::seed_from_u64(99))
    }

    fn eval(coeffs: &[Fq], x: Fq) -> Fq {
        let mut acc = Fq::ZERO;
        for c in coeffs.iter().rev() {
            acc = acc * x + *c;
        }
        acc
    }

    #[test]
    fn open_verify_roundtrip() {
        let (params, mut rng) = setup(4);
        let coeffs: Vec<Fq> = (0..16).map(|_| Fq::random(&mut rng)).collect();
        let blind = Fq::random(&mut rng);
        let c = params.commit_with(&coeffs, blind, Parallelism::auto());
        let x = Fq::random(&mut rng);
        let v = eval(&coeffs, x);

        let mut tp = Transcript::new(b"test");
        tp.absorb_bytes(b"c", &c.to_affine().to_bytes());
        tp.absorb_scalar(b"v", &v);
        let proof = open_with(
            &params,
            &mut tp,
            &coeffs,
            blind,
            x,
            &mut rng,
            Parallelism::auto(),
        );

        let mut tv = Transcript::new(b"test");
        tv.absorb_bytes(b"c", &c.to_affine().to_bytes());
        tv.absorb_scalar(b"v", &v);
        assert!(verify(&params, &mut tv, &c, x, v, &proof));
    }

    #[test]
    fn wrong_evaluation_rejected() {
        let (params, mut rng) = setup(3);
        let coeffs: Vec<Fq> = (0..8).map(|_| Fq::random(&mut rng)).collect();
        let blind = Fq::random(&mut rng);
        let c = params.commit_with(&coeffs, blind, Parallelism::auto());
        let x = Fq::random(&mut rng);
        let v = eval(&coeffs, x);

        let mut tp = Transcript::new(b"test");
        tp.absorb_bytes(b"c", &c.to_affine().to_bytes());
        tp.absorb_scalar(b"v", &v);
        let proof = open_with(
            &params,
            &mut tp,
            &coeffs,
            blind,
            x,
            &mut rng,
            Parallelism::auto(),
        );

        // Claiming a different evaluation must fail.
        let bad_v = v + Fq::ONE;
        let mut tv = Transcript::new(b"test");
        tv.absorb_bytes(b"c", &c.to_affine().to_bytes());
        tv.absorb_scalar(b"v", &bad_v);
        assert!(!verify(&params, &mut tv, &c, x, bad_v, &proof));
    }

    #[test]
    fn tampered_proof_rejected() {
        let (params, mut rng) = setup(3);
        let coeffs: Vec<Fq> = (0..8).map(|_| Fq::random(&mut rng)).collect();
        let blind = Fq::random(&mut rng);
        let c = params.commit_with(&coeffs, blind, Parallelism::auto());
        let x = Fq::random(&mut rng);
        let v = eval(&coeffs, x);

        let mut tp = Transcript::new(b"test");
        tp.absorb_bytes(b"c", &c.to_affine().to_bytes());
        tp.absorb_scalar(b"v", &v);
        let mut proof = open_with(
            &params,
            &mut tp,
            &coeffs,
            blind,
            x,
            &mut rng,
            Parallelism::auto(),
        );
        proof.a += Fq::ONE;

        let mut tv = Transcript::new(b"test");
        tv.absorb_bytes(b"c", &c.to_affine().to_bytes());
        tv.absorb_scalar(b"v", &v);
        assert!(!verify(&params, &mut tv, &c, x, v, &proof));
    }

    #[test]
    fn wrong_commitment_rejected() {
        let (params, mut rng) = setup(3);
        let coeffs: Vec<Fq> = (0..8).map(|_| Fq::random(&mut rng)).collect();
        let blind = Fq::random(&mut rng);
        let c = params.commit_with(&coeffs, blind, Parallelism::auto());
        let x = Fq::random(&mut rng);
        let v = eval(&coeffs, x);

        let mut tp = Transcript::new(b"test");
        tp.absorb_bytes(b"c", &c.to_affine().to_bytes());
        tp.absorb_scalar(b"v", &v);
        let proof = open_with(
            &params,
            &mut tp,
            &coeffs,
            blind,
            x,
            &mut rng,
            Parallelism::auto(),
        );

        let other = params.commit_with(&coeffs, blind + Fq::ONE, Parallelism::auto());
        let mut tv = Transcript::new(b"test");
        tv.absorb_bytes(b"c", &c.to_affine().to_bytes());
        tv.absorb_scalar(b"v", &v);
        assert!(!verify(&params, &mut tv, &other, x, v, &proof));
    }

    #[test]
    fn short_vectors_are_padded() {
        let (params, mut rng) = setup(4);
        let coeffs: Vec<Fq> = (0..5).map(|_| Fq::random(&mut rng)).collect();
        let blind = Fq::random(&mut rng);
        let c = params.commit_with(&coeffs, blind, Parallelism::auto());
        let x = Fq::random(&mut rng);
        let v = eval(&coeffs, x);
        let mut tp = Transcript::new(b"t");
        let proof = open_with(
            &params,
            &mut tp,
            &coeffs,
            blind,
            x,
            &mut rng,
            Parallelism::auto(),
        );
        let mut tv = Transcript::new(b"t");
        assert!(verify(&params, &mut tv, &c, x, v, &proof));
    }

    #[test]
    fn serialization_roundtrip() {
        let (params, mut rng) = setup(3);
        let coeffs: Vec<Fq> = (0..8).map(|_| Fq::random(&mut rng)).collect();
        let blind = Fq::random(&mut rng);
        let x = Fq::random(&mut rng);
        let mut tp = Transcript::new(b"t");
        let proof = open_with(
            &params,
            &mut tp,
            &coeffs,
            blind,
            x,
            &mut rng,
            Parallelism::auto(),
        );
        let bytes = proof.to_bytes();
        assert_eq!(bytes.len(), proof.size_in_bytes() + 8);
        assert_eq!(IpaProof::from_bytes(&bytes), Some(proof));
        assert!(IpaProof::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn accumulator_batches_many_proofs() {
        let (params, mut rng) = setup(3);
        let mut claims = Vec::new();
        for _ in 0..4 {
            let coeffs: Vec<Fq> = (0..8).map(|_| Fq::random(&mut rng)).collect();
            let blind = Fq::random(&mut rng);
            let c = params.commit_with(&coeffs, blind, Parallelism::auto());
            let x = Fq::random(&mut rng);
            let v = eval(&coeffs, x);
            let mut tp = Transcript::new(b"t");
            tp.absorb_scalar(b"v", &v);
            let proof = open_with(
                &params,
                &mut tp,
                &coeffs,
                blind,
                x,
                &mut rng,
                Parallelism::auto(),
            );
            claims.push((c, x, v, proof));
        }
        let mut acc = IpaAccumulator::new(&params, Fq::random(&mut rng));
        for (c, x, v, proof) in &claims {
            let mut tv = Transcript::new(b"t");
            tv.absorb_scalar(b"v", v);
            assert!(acc.add_claim(&params, &mut tv, c, *x, *v, proof));
        }
        assert!(acc.finalize(&params));

        // A single bad claim must poison the batch.
        let mut acc = IpaAccumulator::new(&params, Fq::random(&mut rng));
        for (i, (c, x, v, proof)) in claims.iter().enumerate() {
            let mut tv = Transcript::new(b"t");
            let v = if i == 2 { *v + Fq::ONE } else { *v };
            tv.absorb_scalar(b"v", &v);
            acc.add_claim(&params, &mut tv, c, *x, v, proof);
        }
        assert!(!acc.finalize(&params));
    }
}
