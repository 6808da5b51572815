//! Expression evaluation in the three representations the protocol needs:
//! row values (witness generation), extended-coset evaluations (quotient
//! computation), and single-point evaluation (verification).

use crate::expression::{ColumnKind, Expression, Query};
use poneglyph_arith::Fq;

use poneglyph_poly::EvaluationDomain;

/// Column data in Lagrange (row) form.
pub struct RowSource<'a> {
    /// Fixed column values.
    pub fixed: &'a [Vec<Fq>],
    /// Advice column values.
    pub advice: &'a [Vec<Fq>],
    /// Instance column values.
    pub instance: &'a [Vec<Fq>],
    /// Powers of ω (`X` evaluated on the domain).
    pub omega_pows: &'a [Fq],
}

/// Evaluate an expression on every row of the domain (with wrap-around
/// rotations).
pub fn eval_rows(expr: &Expression<Fq>, src: &RowSource<'_>, n: usize) -> Vec<Fq> {
    let col = |q: Query| -> &[Fq] {
        match q.column.kind {
            ColumnKind::Fixed => &src.fixed[q.column.index],
            ColumnKind::Advice => &src.advice[q.column.index],
            ColumnKind::Instance => &src.instance[q.column.index],
        }
    };
    expr.evaluate(
        &|c| vec![c; n],
        &|| src.omega_pows.to_vec(),
        &|q| {
            let data = col(q);
            (0..n)
                .map(|r| data[(r as i64 + q.rotation.0 as i64).rem_euclid(n as i64) as usize])
                .collect()
        },
        &|mut a| {
            for v in a.iter_mut() {
                *v = -*v;
            }
            a
        },
        &|mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += *y;
            }
            a
        },
        &|mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x *= *y;
            }
            a
        },
        &|mut a, s| {
            for v in a.iter_mut() {
                *v *= s;
            }
            a
        },
    )
}

/// Column data over the extended coset.
pub struct CosetSource<'a> {
    /// Fixed columns over the coset.
    pub fixed: &'a [Vec<Fq>],
    /// Advice columns over the coset.
    pub advice: &'a [Vec<Fq>],
    /// Instance columns over the coset.
    pub instance: &'a [Vec<Fq>],
    /// `X` evaluated over the coset (`g·ω_ext^i`).
    pub identity: &'a [Fq],
    /// Rotation step: one domain row = `extended_n / n` coset points.
    pub ext_factor: usize,
}

/// Evaluate an expression at every point of the extended coset.
pub fn eval_extended(expr: &Expression<Fq>, src: &CosetSource<'_>, ext_n: usize) -> Vec<Fq> {
    eval_extended_chunk(expr, src, ext_n, 0, ext_n)
}

/// Evaluate an expression over the contiguous coset slice
/// `[offset, offset + len)` only.
///
/// This is the working set of the prover's chunk-parallel quotient pass:
/// each scoped worker evaluates every constraint over its own index range,
/// so no worker ever materializes (or writes) a full-coset vector. Reads
/// still wrap around the full coset — rotations reach outside the chunk.
pub fn eval_extended_chunk(
    expr: &Expression<Fq>,
    src: &CosetSource<'_>,
    ext_n: usize,
    offset: usize,
    len: usize,
) -> Vec<Fq> {
    debug_assert!(offset + len <= ext_n);
    let col = |q: Query| -> &[Fq] {
        match q.column.kind {
            ColumnKind::Fixed => &src.fixed[q.column.index],
            ColumnKind::Advice => &src.advice[q.column.index],
            ColumnKind::Instance => &src.instance[q.column.index],
        }
    };
    expr.evaluate(
        &|c| vec![c; len],
        &|| src.identity[offset..offset + len].to_vec(),
        &|q| {
            let data = col(q);
            let shift =
                (q.rotation.0 as i64 * src.ext_factor as i64).rem_euclid(ext_n as i64) as usize;
            (0..len)
                .map(|i| data[(offset + i + shift) % ext_n])
                .collect()
        },
        &|mut a| {
            for v in a.iter_mut() {
                *v = -*v;
            }
            a
        },
        &|mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += *y;
            }
            a
        },
        &|mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x *= *y;
            }
            a
        },
        &|mut a, s| {
            for v in a.iter_mut() {
                *v *= s;
            }
            a
        },
    )
}

/// Evaluate an expression at a single point `x`, resolving queries through a
/// caller-supplied resolver (claimed evaluations for advice/fixed columns,
/// barycentric evaluation for instance columns).
pub fn eval_at_point(expr: &Expression<Fq>, x: Fq, resolve: &impl Fn(Query) -> Fq) -> Fq {
    expr.evaluate(
        &|c| c,
        &|| x,
        resolve,
        &|a| -a,
        &|a, b| a + b,
        &|a, b| a * b,
        &|a, s| a * s,
    )
}

/// Compress a tuple of expressions with powers of θ (paper §4: multi-column
/// lookups and shuffles operate on compressed composite values).
pub fn compress_rows(parts: &[Vec<Fq>], theta: Fq) -> Vec<Fq> {
    let n = parts[0].len();
    let mut out = vec![Fq::ZERO; n];
    for part in parts {
        for (o, v) in out.iter_mut().zip(part) {
            *o = *o * theta + *v;
        }
    }
    out
}

/// Powers of ω over the plain domain (`X` restricted to `H`).
pub fn omega_powers(domain: &EvaluationDomain<Fq>) -> Vec<Fq> {
    let mut out = Vec::with_capacity(domain.n);
    let mut cur = Fq::ONE;
    for _ in 0..domain.n {
        out.push(cur);
        cur *= domain.omega;
    }
    out
}

/// `X` evaluated over the extended coset.
pub fn identity_coset(domain: &EvaluationDomain<Fq>) -> Vec<Fq> {
    let mut out = Vec::with_capacity(domain.extended_n);
    let mut cur = domain.coset_gen;
    for _ in 0..domain.extended_n {
        out.push(cur);
        cur *= domain.extended_omega;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::Rotation;
    use poneglyph_arith::PrimeField;
    use poneglyph_par::Parallelism;
    use poneglyph_poly::EvaluationDomain;

    #[test]
    fn rows_extended_and_point_agree() {
        let domain = EvaluationDomain::<Fq>::new(3, 4);
        let n = domain.n;
        let fixed = vec![(0..n as u64).map(Fq::from_u64).collect::<Vec<_>>()];
        let advice = vec![(0..n as u64)
            .map(|i| Fq::from_u64(i * i + 3))
            .collect::<Vec<_>>()];
        let instance: Vec<Vec<Fq>> = vec![];
        let omega_pows = omega_powers(&domain);

        // expr = f0(X) * a0(ωX) + X
        let expr =
            Expression::fixed(0) * Expression::advice_at(0, Rotation::NEXT) + Expression::Identity;

        let rows = eval_rows(
            &expr,
            &RowSource {
                fixed: &fixed,
                advice: &advice,
                instance: &instance,
                omega_pows: &omega_pows,
            },
            n,
        );
        // manual check on row 2: f0[2] * a0[3] + ω²
        assert_eq!(rows[2], fixed[0][2] * advice[0][3] + omega_pows[2]);
        // wraparound on the last row
        assert_eq!(
            rows[n - 1],
            fixed[0][n - 1] * advice[0][0] + omega_pows[n - 1]
        );

        // extended evaluation must match evaluating the composed coefficient
        // polynomials at coset points
        let serial = Parallelism::serial();
        let f_poly = domain.lagrange_to_coeff_with(fixed[0].clone(), serial);
        let a_poly = domain.lagrange_to_coeff_with(advice[0].clone(), serial);
        let fixed_cosets = vec![domain.coeff_to_extended_with(&f_poly, serial)];
        let advice_cosets = vec![domain.coeff_to_extended_with(&a_poly, serial)];
        let id = identity_coset(&domain);
        let ext = eval_extended(
            &expr,
            &CosetSource {
                fixed: &fixed_cosets,
                advice: &advice_cosets,
                instance: &[],
                identity: &id,
                ext_factor: domain.extended_n / n,
            },
            domain.extended_n,
        );
        for i in [0usize, 1, 5, domain.extended_n - 1] {
            let x = id[i];
            let direct = f_poly.eval(x) * a_poly.eval(x * domain.omega) + x;
            assert_eq!(ext[i], direct, "coset point {i}");
        }

        // point evaluation with a resolver
        let x = Fq::from_u64(0x5555);
        let v = eval_at_point(&expr, x, &|q| match q.column.kind {
            ColumnKind::Fixed => f_poly.eval(x),
            ColumnKind::Advice => a_poly.eval(x * domain.omega),
            ColumnKind::Instance => unreachable!(),
        });
        assert_eq!(v, f_poly.eval(x) * a_poly.eval(x * domain.omega) + x);
    }

    #[test]
    fn compression_uses_theta_horner() {
        let a = vec![Fq::from_u64(1), Fq::from_u64(2)];
        let b = vec![Fq::from_u64(3), Fq::from_u64(4)];
        let theta = Fq::from_u64(10);
        let c = compress_rows(&[a, b], theta);
        assert_eq!(c[0], Fq::from_u64(13));
        assert_eq!(c[1], Fq::from_u64(24));
    }
}
