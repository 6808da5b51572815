//! Evaluation domains: the multiplicative subgroup `H = <ω>` of order `2^k`
//! over which circuit columns are interpolated, plus the extended coset
//! domain used for quotient-polynomial computation.

use crate::fft::{fft, fft_with, ifft_with};
use crate::Polynomial;
use poneglyph_arith::PrimeField;
use poneglyph_par::{par_chunks_mut, Parallelism};

/// Minimum rows per worker when parallelizing the coset scaling passes.
const MIN_SCALE_CHUNK: usize = 1 << 12;

/// The `2^k`-row evaluation domain and its extension.
///
/// Columns live in *Lagrange form* over `H`; the quotient argument needs
/// evaluations over a *coset* `g·H'` of the larger group `H'` of order
/// `2^(k + extended_bits)` so that the vanishing polynomial `X^n − 1` is
/// nonzero at every evaluation point.
#[derive(Clone, Debug)]
pub struct EvaluationDomain<F: PrimeField> {
    /// log2 of the domain size.
    pub k: u32,
    /// Domain size `n = 2^k`.
    pub n: usize,
    /// Primitive `n`-th root of unity.
    pub omega: F,
    /// `omega^{-1}`.
    pub omega_inv: F,
    /// `n^{-1}` in the field.
    pub n_inv: F,
    /// log2 of the extension factor.
    pub extended_bits: u32,
    /// Extended domain size.
    pub extended_n: usize,
    /// Primitive root of unity for the extended domain.
    pub extended_omega: F,
    /// Inverse of `extended_omega`.
    pub extended_omega_inv: F,
    /// `extended_n^{-1}`.
    pub extended_n_inv: F,
    /// Coset generator (the field's multiplicative generator).
    pub coset_gen: F,
    /// `coset_gen^{-1}`.
    pub coset_gen_inv: F,
}

impl<F: PrimeField> EvaluationDomain<F> {
    /// Create a domain of `2^k` rows whose extended domain supports
    /// constraints of degree `max_degree` (the quotient numerator has degree
    /// `max_degree·(n−1)`, so the extension factor is the next power of two
    /// at or above `max_degree`).
    pub fn new(k: u32, max_degree: usize) -> Self {
        assert!(
            k >= 1 && k <= F::TWO_ADICITY,
            "unsupported domain size 2^{k}"
        );
        let extended_bits = (max_degree.max(2) as u64)
            .next_power_of_two()
            .trailing_zeros();
        assert!(
            k + extended_bits <= F::TWO_ADICITY,
            "extended domain exceeds field 2-adicity"
        );
        let n = 1usize << k;
        let extended_n = 1usize << (k + extended_bits);

        let mut omega = F::root_of_unity();
        for _ in k..F::TWO_ADICITY {
            omega = omega.square();
        }
        let mut extended_omega = F::root_of_unity();
        for _ in (k + extended_bits)..F::TWO_ADICITY {
            extended_omega = extended_omega.square();
        }
        let coset_gen = F::multiplicative_generator();
        Self {
            k,
            n,
            omega,
            omega_inv: omega.invert().expect("omega != 0"),
            n_inv: F::from_u64(n as u64).invert().expect("n != 0 in F"),
            extended_bits,
            extended_n,
            extended_omega,
            extended_omega_inv: extended_omega.invert().expect("omega != 0"),
            extended_n_inv: F::from_u64(extended_n as u64).invert().expect("n != 0"),
            coset_gen,
            coset_gen_inv: coset_gen.invert().expect("generator != 0"),
        }
    }

    /// Interpolate Lagrange values over `H` into a coefficient polynomial
    /// (identical output at any thread budget).
    pub fn lagrange_to_coeff_with(&self, mut values: Vec<F>, par: Parallelism) -> Polynomial<F> {
        assert_eq!(values.len(), self.n);
        ifft_with(&mut values, self.omega_inv, self.n_inv, par);
        Polynomial { coeffs: values }
    }

    /// Evaluate a coefficient polynomial over `H`.
    pub fn coeff_to_lagrange(&self, poly: &Polynomial<F>) -> Vec<F> {
        assert!(
            poly.coeffs.len() <= self.n,
            "polynomial too large for domain"
        );
        let mut values = poly.coeffs.clone();
        values.resize(self.n, F::ZERO);
        fft(&mut values, self.omega);
        values
    }

    /// Evaluate a coefficient polynomial over the extended coset `g·H'`:
    /// the coset scaling pass and the extended FFT both split across
    /// scoped workers (identical output at any thread budget).
    pub fn coeff_to_extended_with(&self, poly: &Polynomial<F>, par: Parallelism) -> Vec<F> {
        assert!(poly.coeffs.len() <= self.extended_n);
        let mut values = poly.coeffs.clone();
        values.resize(self.extended_n, F::ZERO);
        // Multiply coefficient i by g^i to shift evaluation onto the coset;
        // each worker seeds its run of the geometric sequence with one pow.
        let gen = self.coset_gen;
        par_chunks_mut(par, &mut values, MIN_SCALE_CHUNK, |offset, chunk| {
            let mut gi = gen.pow(&[offset as u64, 0, 0, 0]);
            for v in chunk.iter_mut() {
                *v *= gi;
                gi *= gen;
            }
        });
        fft_with(&mut values, self.extended_omega, par);
        values
    }

    /// Interpolate extended-coset evaluations back to coefficients
    /// (identical output at any thread budget).
    pub fn extended_to_coeff_with(&self, mut values: Vec<F>, par: Parallelism) -> Polynomial<F> {
        assert_eq!(values.len(), self.extended_n);
        ifft_with(
            &mut values,
            self.extended_omega_inv,
            self.extended_n_inv,
            par,
        );
        let gen_inv = self.coset_gen_inv;
        par_chunks_mut(par, &mut values, MIN_SCALE_CHUNK, |offset, chunk| {
            let mut gi = gen_inv.pow(&[offset as u64, 0, 0, 0]);
            for v in chunk.iter_mut() {
                *v *= gi;
                gi *= gen_inv;
            }
        });
        Polynomial { coeffs: values }
    }

    /// Evaluations of the vanishing polynomial `X^n − 1` over the extended
    /// coset. Periodic with period `2^extended_bits`, so only that many
    /// values are computed.
    pub fn vanishing_on_extended(&self) -> Vec<F> {
        let period = 1usize << self.extended_bits;
        let gen_pow_n = self.coset_gen.pow(&[self.n as u64, 0, 0, 0]);
        let omega_ext_pow_n = self.extended_omega.pow(&[self.n as u64, 0, 0, 0]);
        let mut out = Vec::with_capacity(period);
        let mut cur = gen_pow_n;
        for _ in 0..period {
            out.push(cur - F::ONE);
            cur *= omega_ext_pow_n;
        }
        out
    }

    /// Inverses of [`Self::vanishing_on_extended`].
    pub fn vanishing_inv_on_extended(&self) -> Vec<F> {
        let mut v = self.vanishing_on_extended();
        let inverted = F::batch_invert(&mut v);
        assert_eq!(inverted, v.len(), "vanishing poly must not vanish on coset");
        v
    }

    /// Evaluate a polynomial given in Lagrange form at an arbitrary point
    /// using the barycentric formula (one batch inversion, O(n)).
    pub fn eval_lagrange(&self, values: &[F], x: F) -> F {
        assert_eq!(values.len(), self.n);
        // l_i(x) = (x^n - 1) * ω^i / (n * (x - ω^i))
        let xn = x.pow(&[self.n as u64, 0, 0, 0]);
        let zx = xn - F::ONE;
        if zx.is_zero() {
            // x is in H: return the matching table value directly.
            let mut wi = F::ONE;
            for v in values {
                if x == wi {
                    return *v;
                }
                wi *= self.omega;
            }
            unreachable!("x^n = 1 but x not found in domain");
        }
        let mut denoms: Vec<F> = Vec::with_capacity(self.n);
        let mut wi = F::ONE;
        for _ in 0..self.n {
            denoms.push(x - wi);
            wi *= self.omega;
        }
        F::batch_invert(&mut denoms);
        let mut acc = F::ZERO;
        let mut wi = F::ONE;
        for (v, d) in values.iter().zip(&denoms) {
            acc += *v * wi * *d;
            wi *= self.omega;
        }
        acc * zx * self.n_inv
    }

    /// `ω^i` for an arbitrary (possibly negative) rotation `i`.
    pub fn rotate_omega(&self, rotation: i32) -> F {
        if rotation >= 0 {
            self.omega.pow(&[rotation as u64, 0, 0, 0])
        } else {
            self.omega_inv.pow(&[(-rotation) as u64, 0, 0, 0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_arith::Fq;
    use rand::{rngs::StdRng, SeedableRng};

    fn rand_values(n: usize, seed: u64) -> Vec<Fq> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Fq::random(&mut rng)).collect()
    }

    #[test]
    fn lagrange_coeff_roundtrip() {
        let d = EvaluationDomain::<Fq>::new(5, 4);
        let values = rand_values(d.n, 1);
        let poly = d.lagrange_to_coeff_with(values.clone(), Parallelism::serial());
        assert_eq!(d.coeff_to_lagrange(&poly), values);
    }

    #[test]
    fn extended_roundtrip() {
        let d = EvaluationDomain::<Fq>::new(4, 4);
        let values = rand_values(d.n, 2);
        let serial = Parallelism::serial();
        let poly = d.lagrange_to_coeff_with(values, serial);
        let ext = d.coeff_to_extended_with(&poly, serial);
        let back = d.extended_to_coeff_with(ext, serial);
        // high coefficients must be zero
        for c in &back.coeffs[d.n..] {
            assert_eq!(*c, Fq::ZERO);
        }
        assert_eq!(&back.coeffs[..d.n], &poly.coeffs[..]);
    }

    #[test]
    fn threaded_conversions_match_serial() {
        // k chosen so the extended domain crosses the parallel threshold.
        let d = EvaluationDomain::<Fq>::new(10, 4);
        let values = rand_values(d.n, 9);
        let serial_poly = d.lagrange_to_coeff_with(values.clone(), Parallelism::serial());
        let serial_ext = d.coeff_to_extended_with(&serial_poly, Parallelism::serial());
        for threads in [2usize, 3, 8] {
            let par = Parallelism::new(threads);
            let poly = d.lagrange_to_coeff_with(values.clone(), par);
            assert_eq!(poly, serial_poly, "interpolation, threads={threads}");
            let ext = d.coeff_to_extended_with(&poly, par);
            assert_eq!(ext, serial_ext, "coset eval, threads={threads}");
            let back = d.extended_to_coeff_with(ext, par);
            assert_eq!(
                &back.coeffs[..d.n],
                &serial_poly.coeffs[..],
                "coset interp, threads={threads}"
            );
        }
    }

    #[test]
    fn vanishing_values_match_direct() {
        let d = EvaluationDomain::<Fq>::new(3, 4);
        let vals = d.vanishing_on_extended();
        let period = vals.len();
        for i in 0..d.extended_n {
            let x = d.coset_gen * d.extended_omega.pow(&[i as u64, 0, 0, 0]);
            let direct = x.pow(&[d.n as u64, 0, 0, 0]) - Fq::ONE;
            assert_eq!(vals[i % period], direct, "i={i}");
            assert!(!direct.is_zero());
        }
    }

    #[test]
    fn barycentric_matches_horner() {
        let d = EvaluationDomain::<Fq>::new(4, 4);
        let values = rand_values(d.n, 3);
        let poly = d.lagrange_to_coeff_with(values.clone(), Parallelism::serial());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let x = Fq::random(&mut rng);
            assert_eq!(d.eval_lagrange(&values, x), poly.eval(x));
        }
        // x inside the domain hits the shortcut path
        let x = d.omega.pow(&[7, 0, 0, 0]);
        assert_eq!(d.eval_lagrange(&values, x), values[7]);
    }

    #[test]
    fn rotate_omega_signs() {
        let d = EvaluationDomain::<Fq>::new(4, 4);
        assert_eq!(d.rotate_omega(1), d.omega);
        assert_eq!(d.rotate_omega(-1), d.omega_inv);
        assert_eq!(d.rotate_omega(3) * d.rotate_omega(-3), Fq::ONE);
        assert_eq!(d.rotate_omega(0), Fq::ONE);
    }
}
