//! # poneglyph-poly
//!
//! Polynomial machinery for the PLONKish proving system: dense coefficient
//! polynomials, radix-2 FFTs, and [`EvaluationDomain`]s (the `2^k`-row
//! circuit domain plus its extended coset for quotient computation).

#![warn(missing_docs)]

mod domain;
mod fft;

pub use domain::EvaluationDomain;
pub use fft::{fft_with, ifft_with};

use poneglyph_arith::PrimeField;

/// A dense polynomial in coefficient form (index `i` holds the `X^i` term).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polynomial<F> {
    /// Coefficients, lowest degree first.
    pub coeffs: Vec<F>,
}

impl<F: PrimeField> Polynomial<F> {
    /// The zero polynomial padded to `n` coefficients.
    pub fn zero(n: usize) -> Self {
        Self {
            coeffs: vec![F::ZERO; n],
        }
    }

    /// Construct from coefficients.
    pub fn from_coeffs(coeffs: Vec<F>) -> Self {
        Self { coeffs }
    }

    /// Number of stored coefficients (not the degree).
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True when no coefficients are stored.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, x: F) -> F {
        let mut acc = F::ZERO;
        for c in self.coeffs.iter().rev() {
            acc = acc * x + *c;
        }
        acc
    }

    /// `self + scalar * other`, padding to the longer length.
    pub fn add_scaled(&self, other: &Self, scalar: F) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = self.coeffs.clone();
        out.resize(n, F::ZERO);
        for (o, c) in out.iter_mut().zip(other.coeffs.iter()) {
            *o += *c * scalar;
        }
        Self { coeffs: out }
    }

    /// Multiply every coefficient by `scalar`.
    pub fn scale(&self, scalar: F) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(|c| *c * scalar).collect(),
        }
    }
}

impl<F: PrimeField> core::ops::Add<&Polynomial<F>> for Polynomial<F> {
    type Output = Polynomial<F>;
    fn add(self, rhs: &Polynomial<F>) -> Polynomial<F> {
        self.add_scaled(rhs, F::ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_arith::Fq;

    #[test]
    fn eval_and_scale() {
        // p(x) = 3 + 2x + x^2
        let p = Polynomial::from_coeffs(vec![Fq::from_u64(3), Fq::from_u64(2), Fq::from_u64(1)]);
        assert_eq!(p.eval(Fq::from_u64(5)), Fq::from_u64(3 + 10 + 25));
        let q = p.scale(Fq::from_u64(2));
        assert_eq!(q.eval(Fq::from_u64(5)), Fq::from_u64(2 * 38));
    }

    #[test]
    fn add_scaled_pads() {
        let p = Polynomial::from_coeffs(vec![Fq::ONE]);
        let q = Polynomial::from_coeffs(vec![Fq::ZERO, Fq::ONE, Fq::ONE]);
        let r = p.add_scaled(&q, Fq::from_u64(3));
        assert_eq!(r.len(), 3);
        assert_eq!(r.eval(Fq::from_u64(2)), Fq::from_u64(1 + 3 * (2 + 4)));
    }
}
