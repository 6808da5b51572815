//! Public parameters for the IPA commitment scheme.
//!
//! Generated from publicly verifiable randomness (hash-to-curve over a fixed
//! domain string) — there is **no trusted setup**, exactly as the paper's
//! §3.2 requires. Parameter generation time as a function of the maximal
//! circuit size is the subject of the paper's **Table 2**.

use poneglyph_arith::{Fq, PrimeField};
use poneglyph_curve::{hash_to_curve, msm_with, Pallas, PallasAffine};
use poneglyph_par::{par_chunks_mut, Parallelism};

/// Public parameters supporting commitments to vectors of up to `2^k`
/// scalars.
#[derive(Clone, Debug)]
pub struct IpaParams {
    /// log2 of the maximum vector length.
    pub k: u32,
    /// Maximum vector length `n = 2^k`.
    pub n: usize,
    /// Independent commitment generators (no known discrete-log relations).
    pub g: Vec<PallasAffine>,
    /// The blinding generator.
    pub h: PallasAffine,
    /// The inner-product claim generator.
    pub u: PallasAffine,
}

impl IpaParams {
    /// Derive parameters for circuits of at most `2^k` rows.
    ///
    /// This is the one-time cost the paper reports in Table 2; parameters
    /// are reusable for every circuit that fits.
    pub fn setup(k: u32) -> Self {
        let n = 1usize << k;
        let mut g = vec![PallasAffine::identity(); n];
        par_chunks_mut(Parallelism::auto(), &mut g, 1, |offset, slot| {
            for (j, p) in slot.iter_mut().enumerate() {
                *p = hash_to_curve(b"poneglyph-ipa-g", (offset + j) as u64);
            }
        });
        let h = hash_to_curve(b"poneglyph-ipa-h", 0);
        let u = hash_to_curve(b"poneglyph-ipa-u", 0);
        Self { k, n, g, h, u }
    }

    /// Pedersen commitment to a coefficient vector with an explicit blind:
    /// `C = <coeffs, G> + blind·H`, under an explicit thread budget for the
    /// underlying MSM (identical result at any budget).
    ///
    /// Panics if `coeffs.len() > n`.
    pub fn commit_with(&self, coeffs: &[Fq], blind: Fq, par: Parallelism) -> Pallas {
        assert!(
            coeffs.len() <= self.n,
            "vector of length {} exceeds parameter capacity {}",
            coeffs.len(),
            self.n
        );
        let c = msm_with(coeffs, &self.g[..coeffs.len()], par);
        if blind.is_zero() {
            c
        } else {
            c.add(&self.h.to_projective().mul(&blind))
        }
    }

    /// Restrict to a smaller capacity `2^k'` (shares the generator prefix).
    pub fn truncate(&self, k: u32) -> Self {
        assert!(k <= self.k);
        Self {
            k,
            n: 1 << k,
            g: self.g[..1 << k].to_vec(),
            h: self.h,
            u: self.u,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_arith::PrimeField;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn setup_is_deterministic_and_valid() {
        let p1 = IpaParams::setup(4);
        let p2 = IpaParams::setup(4);
        assert_eq!(p1.g, p2.g);
        assert_eq!(p1.h, p2.h);
        assert!(p1.g.iter().all(|g| g.is_on_curve() && !g.infinity));
        // all generators distinct
        for i in 0..p1.n {
            for j in (i + 1)..p1.n {
                assert_ne!(p1.g[i], p1.g[j]);
            }
        }
    }

    #[test]
    fn commitment_is_homomorphic() {
        let params = IpaParams::setup(3);
        let mut rng = StdRng::seed_from_u64(1);
        let a: Vec<Fq> = (0..8).map(|_| Fq::random(&mut rng)).collect();
        let b: Vec<Fq> = (0..8).map(|_| Fq::random(&mut rng)).collect();
        let sum: Vec<Fq> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let (ra, rb) = (Fq::random(&mut rng), Fq::random(&mut rng));
        let ca = params.commit_with(&a, ra, Parallelism::auto());
        let cb = params.commit_with(&b, rb, Parallelism::auto());
        let csum = params.commit_with(&sum, ra + rb, Parallelism::auto());
        assert_eq!(ca.add(&cb), csum);
    }

    #[test]
    fn blind_hides() {
        let params = IpaParams::setup(3);
        let a = vec![Fq::ONE; 8];
        let c1 = params.commit_with(&a, Fq::from_u64(1), Parallelism::auto());
        let c2 = params.commit_with(&a, Fq::from_u64(2), Parallelism::auto());
        assert_ne!(c1, c2);
    }

    #[test]
    fn truncate_shares_prefix() {
        let p = IpaParams::setup(4);
        let t = p.truncate(2);
        assert_eq!(t.n, 4);
        assert_eq!(&t.g[..], &p.g[..4]);
        let coeffs = vec![Fq::from_u64(3); 4];
        assert_eq!(
            t.commit_with(&coeffs, Fq::ZERO, Parallelism::auto()),
            p.commit_with(&coeffs, Fq::ZERO, Parallelism::auto())
        );
    }
}
