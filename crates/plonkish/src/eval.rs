//! Expression evaluation in the two forms the protocol needs: over a run of
//! points of a cyclic domain (the rows, for witness generation and the mock
//! prover; the extended coset, for the quotient) and at a single point
//! (verification).

use crate::expression::{Column, Expression, Query};
use poneglyph_arith::Fq;

use poneglyph_poly::EvaluationDomain;

/// Evaluate an expression at the `len` consecutive points starting at
/// `offset` of a cyclic domain on which `X` takes the values `xs` and one
/// circuit row spans `stride` points: `stride` is 1 over the rows
/// ([`omega_powers`]) and `extended_n / n` over the extended coset
/// ([`identity_coset`]). `column` yields a column's values over the whole
/// domain; rotated reads wrap around it, so a worker of the prover's
/// chunk-parallel quotient pass evaluates its own index range without ever
/// materializing a full-domain vector.
pub fn eval_strided<'a>(
    expr: &Expression<Fq>,
    column: &impl Fn(Column) -> &'a [Fq],
    xs: &[Fq],
    stride: usize,
    offset: usize,
    len: usize,
) -> Vec<Fq> {
    let total = xs.len();
    debug_assert!(offset + len <= total);
    expr.evaluate(
        &|c| vec![c; len],
        &|| xs[offset..offset + len].to_vec(),
        &|q| {
            let data = column(q.column);
            let shift = q.rotation.0 as i64 * stride as i64;
            let start = (offset as i64 + shift).rem_euclid(total as i64) as usize;
            // The run may wrap around the end of the domain.
            let head = len.min(total - start);
            let mut out = Vec::with_capacity(len);
            out.extend_from_slice(&data[start..start + head]);
            out.extend_from_slice(&data[..len - head]);
            out
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
    use crate::expression::{ColumnKind, Rotation};
    use poneglyph_arith::PrimeField;
    use poneglyph_par::Parallelism;
    use poneglyph_poly::EvaluationDomain;

    #[test]
    fn rows_extended_and_point_agree() {
        let domain = EvaluationDomain::<Fq>::new(3, 4);
        let n = domain.n;
        let fixed: Vec<Fq> = (0..n as u64).map(Fq::from_u64).collect();
        let advice: Vec<Fq> = (0..n as u64).map(|i| Fq::from_u64(i * i + 3)).collect();
        let omega_pows = omega_powers(&domain);

        // expr = f0(X) * a0(ωX) + X
        let expr =
            Expression::fixed(0) * Expression::advice_at(0, Rotation::NEXT) + Expression::Identity;

        let row_values = |c: Column| -> &[Fq] {
            match c.kind {
                ColumnKind::Fixed => &fixed,
                _ => &advice,
            }
        };
        let rows = eval_strided(&expr, &row_values, &omega_pows, 1, 0, n);
        // manual check on row 2: f0[2] * a0[3] + ω²
        assert_eq!(rows[2], fixed[2] * advice[3] + omega_pows[2]);
        // wraparound on the last row
        assert_eq!(rows[n - 1], fixed[n - 1] * advice[0] + omega_pows[n - 1]);

        // extended evaluation must match evaluating the composed coefficient
        // polynomials at coset points
        let serial = Parallelism::serial();
        let f_poly = domain.lagrange_to_coeff_with(fixed.clone(), serial);
        let a_poly = domain.lagrange_to_coeff_with(advice.clone(), serial);
        let f_coset = domain.coeff_to_extended_with(&f_poly, serial);
        let a_coset = domain.coeff_to_extended_with(&a_poly, serial);
        let coset_values = |c: Column| -> &[Fq] {
            match c.kind {
                ColumnKind::Fixed => &f_coset,
                _ => &a_coset,
            }
        };
        let id = identity_coset(&domain);
        let (ext_n, stride) = (domain.extended_n, domain.extended_n / n);
        let ext = eval_strided(&expr, &coset_values, &id, stride, 0, ext_n);
        for i in [0usize, 1, 5, ext_n - 1] {
            let x = id[i];
            let direct = f_poly.eval(x) * a_poly.eval(x * domain.omega) + x;
            assert_eq!(ext[i], direct, "coset point {i}");
        }
        // a chunk in the middle (or at the wrapping end) is a slice of the
        // full evaluation
        for (offset, len) in [(3, 7), (ext_n - 5, 5)] {
            let chunk = eval_strided(&expr, &coset_values, &id, stride, offset, len);
            assert_eq!(chunk, ext[offset..offset + len], "chunk at {offset}");
        }

        // point evaluation with a resolver
        let x = Fq::from_u64(0x5555);
        let v = eval_at_point(&expr, x, &|q| match q.column.kind {
            ColumnKind::Fixed => f_poly.eval(x),
            _ => a_poly.eval(x * domain.omega),
        });
        assert_eq!(v, f_poly.eval(x) * a_poly.eval(x * domain.omega) + x);
    }
}
