//! Multi-scalar multiplication (Pippenger's bucket method).
//!
//! The prover's commitment cost is dominated by MSMs of size 2^k (one per
//! committed column/polynomial), so this routine is parallelized across
//! windows under the caller's [`Parallelism`] budget.

use crate::pallas::{Pallas, PallasAffine};
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_par::{par_chunks_mut, Parallelism};
use std::sync::OnceLock;

/// Record one MSM's term count into `poneglyph_msm_size` (handle cached:
/// the registry mutex is taken once per process, not per MSM).
fn observe_msm_size(n: usize) {
    static HIST: OnceLock<poneglyph_obs::Histogram> = OnceLock::new();
    HIST.get_or_init(|| {
        poneglyph_obs::global().histogram(
            "poneglyph_msm_size",
            &[],
            poneglyph_obs::size_buckets(),
            "Term count of each multi-scalar multiplication",
        )
    })
    .observe(n as u64);
}

/// Window size heuristic (bits per bucket pass).
fn window_size(n: usize) -> usize {
    match n {
        0..=3 => 1,
        4..=31 => 3,
        32..=255 => 5,
        256..=2047 => 7,
        2048..=65535 => 10,
        _ => 13,
    }
}

/// Computes `sum_i scalars[i] * bases[i]`: Pippenger windows are split
/// across at most `par.threads()` scoped workers (serial budget = no
/// spawns). The result is identical at any budget — window sums combine
/// by exact group addition.
///
/// Panics if the slices have different lengths.
pub fn msm_with(scalars: &[Fq], bases: &[PallasAffine], par: Parallelism) -> Pallas {
    assert_eq!(
        scalars.len(),
        bases.len(),
        "msm operand length mismatch: {} scalars vs {} bases",
        scalars.len(),
        bases.len()
    );
    if scalars.is_empty() {
        return Pallas::identity();
    }
    observe_msm_size(scalars.len());
    if scalars.len() < 8 {
        return scalars
            .iter()
            .zip(bases)
            .map(|(s, b)| b.to_projective().mul(s))
            .sum();
    }

    let c = window_size(scalars.len());
    let num_windows = 256usize.div_ceil(c);
    let limbs: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_canonical()).collect();

    // Extract window `w` (bits [w*c, w*c + c)) from a 256-bit scalar.
    let get_window = |limbs: &[u64; 4], w: usize| -> usize {
        let bit = w * c;
        let limb = bit / 64;
        let off = bit % 64;
        let mut v = limbs[limb] >> off;
        if off + c > 64 && limb + 1 < 4 {
            v |= limbs[limb + 1] << (64 - off);
        }
        (v as usize) & ((1 << c) - 1)
    };

    let window_sum = |w: usize| -> Pallas {
        let mut buckets = vec![Pallas::identity(); (1 << c) - 1];
        for (l, base) in limbs.iter().zip(bases) {
            let idx = get_window(l, w);
            if idx != 0 {
                buckets[idx - 1] = buckets[idx - 1].add_affine(base);
            }
        }
        // Running-sum trick: sum_i i * bucket[i].
        let mut running = Pallas::identity();
        let mut acc = Pallas::identity();
        for b in buckets.iter().rev() {
            running = running.add(b);
            acc = acc.add(&running);
        }
        acc
    };

    let mut sums = vec![Pallas::identity(); num_windows];
    par_chunks_mut(par, &mut sums, 1, |base_w, chunk| {
        for (j, s) in chunk.iter_mut().enumerate() {
            *s = window_sum(base_w + j);
        }
    });

    // Horner over windows, highest first.
    let mut acc = Pallas::identity();
    for s in sums.iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc = acc.add(s);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn naive(scalars: &[Fq], bases: &[PallasAffine]) -> Pallas {
        scalars
            .iter()
            .zip(bases)
            .map(|(s, b)| b.to_projective().mul(s))
            .sum()
    }

    #[test]
    fn msm_matches_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = Pallas::generator();
        for n in [0usize, 1, 2, 7, 8, 33, 100, 300] {
            let bases: Vec<PallasAffine> = (0..n)
                .map(|_| g.mul(&Fq::random(&mut rng)).to_affine())
                .collect();
            let scalars: Vec<Fq> = (0..n).map(|_| Fq::random(&mut rng)).collect();
            assert_eq!(
                msm_with(&scalars, &bases, Parallelism::auto()),
                naive(&scalars, &bases),
                "n={n}"
            );
        }
    }

    #[test]
    fn msm_identical_at_every_budget() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = Pallas::generator();
        let bases: Vec<PallasAffine> = (0..200)
            .map(|_| g.mul(&Fq::random(&mut rng)).to_affine())
            .collect();
        let scalars: Vec<Fq> = (0..200).map(|_| Fq::random(&mut rng)).collect();
        let reference = msm_with(&scalars, &bases, Parallelism::serial());
        for threads in [2usize, 3, 8] {
            assert_eq!(
                msm_with(&scalars, &bases, Parallelism::new(threads)),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn msm_with_zeros_and_ones() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = Pallas::generator();
        let bases: Vec<PallasAffine> = (0..50)
            .map(|_| g.mul(&Fq::random(&mut rng)).to_affine())
            .collect();
        let mut scalars = vec![Fq::ZERO; 50];
        scalars[3] = Fq::ONE;
        scalars[17] = Fq::from_u64(2);
        scalars[49] = -Fq::ONE;
        assert_eq!(
            msm_with(&scalars, &bases, Parallelism::auto()),
            naive(&scalars, &bases)
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn msm_length_mismatch_panics() {
        let g = Pallas::generator().to_affine();
        msm_with(&[Fq::ONE], &[g, g], Parallelism::auto());
    }
}
