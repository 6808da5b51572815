//! The protocol's polynomial identities, written once.
//!
//! A proof shows that every expression returned by [`identities`] vanishes
//! on the whole domain. Everything that needs to know *what* is proven reads
//! this one list: the prover evaluates each expression over the extended
//! coset and folds them with `y` into the quotient, its grand-product
//! witness routine multiplies up the `numerator / denominator` of each
//! [`GrandProduct`], the verifier evaluates the same expressions at `x` and
//! folds them with the same `y`, and
//! [`ConstraintSystem::max_degree`] and the analyzer's degree audit read
//! `degree()` off them. Leaves name circuit columns and the protocol's own
//! polynomials alike (see [`ColumnKind`]).
//!
//! The order of the list is the `y`-fold order, hence part of the protocol.

use crate::circuit::{ConstraintSystem, PERMUTATION_CHUNK};
use crate::expression::{Column, ColumnKind, Expression, Query};
use poneglyph_arith::PrimeField;

/// The argument an identity belongs to, as indices into the constraint
/// system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Polynomial `poly` of custom gate `gate`.
    Gate {
        /// Index into `cs.gates`.
        gate: usize,
        /// Index into that gate's `polys`.
        poly: usize,
    },
    /// A chunk of the copy-constraint permutation.
    Permutation(usize),
    /// A lookup argument (paper §4.1, Eqs. 1–3).
    Lookup(usize),
    /// A shuffle argument (paper §4.2, Eq. 5).
    Shuffle(usize),
}

/// One polynomial that must vanish on every row of the domain.
#[derive(Clone, Debug)]
pub struct Identity<F> {
    /// Where the identity comes from.
    pub origin: Origin,
    /// The polynomial.
    pub expr: Expression<F>,
}

/// The one shape every running-product argument has: `z` starts at one (or
/// where `carries_from` ended), is multiplied by `numerator / denominator`
/// on each usable row, and — when `closes` — is back at one on the boundary
/// row.
#[derive(Clone, Debug)]
pub struct GrandProduct<F> {
    /// The argument this product implements.
    pub origin: Origin,
    /// The running-product column.
    pub z: Column,
    /// Per-row factor multiplied in.
    pub numerator: Expression<F>,
    /// Per-row factor divided out.
    pub denominator: Expression<F>,
    /// The product whose final value this one starts from, if any.
    pub carries_from: Option<Column>,
    /// Whether the product must end at one.
    pub closes: bool,
}

fn poly<F>(kind: ColumnKind, index: usize, rotation: i32) -> Expression<F> {
    Expression::Var(Query::new(kind, index, rotation))
}

/// Coset multiplier `k_i = gⁱ` of permutation column `i`: each column's cells
/// are labelled `k_i·ωʳ`, distinct cosets of the evaluation domain.
pub fn coset_multiplier<F: PrimeField>(i: usize) -> F {
    F::multiplicative_generator().pow(&[i as u64, 0, 0, 0])
}

/// Compress a tuple of expressions into one with powers of θ (paper §4:
/// multi-column lookups and shuffles operate on compressed values).
pub fn compress<F: PrimeField>(parts: &[Expression<F>], theta: F) -> Expression<F> {
    let horner = parts.iter().cloned().reduce(|acc, e| acc * theta + e);
    horner.unwrap_or(Expression::Constant(F::ZERO))
}

/// The running products of the protocol, in commitment order: one per
/// copy-permutation chunk (chained), one per lookup, one per shuffle.
pub fn grand_products<F: PrimeField>(
    cs: &ConstraintSystem<F>,
    theta: F,
    beta: F,
    gamma: F,
) -> impl Iterator<Item = GrandProduct<F>> + '_ {
    let constant = Expression::Constant;
    let chunks = cs.permutation_chunks();
    let permutation = cs.permutation_columns.chunks(PERMUTATION_CHUNK).enumerate();
    let permutation = permutation.map(move |(j, chunk)| {
        // Π (v + β·k_i·X + γ) / Π (v + β·σ_i + γ) over the chunk's columns.
        let factors = |label: &dyn Fn(usize) -> Expression<F>| {
            let each = chunk.iter().enumerate().map(|(ci, col)| {
                poly(col.kind, col.index, 0) + label(j * PERMUTATION_CHUNK + ci) + constant(gamma)
            });
            each.reduce(|a, b| a * b).expect("chunks are non-empty")
        };
        GrandProduct {
            origin: Origin::Permutation(j),
            z: Column::new(ColumnKind::PermZ, j),
            numerator: factors(&|i| Expression::Identity * (beta * coset_multiplier::<F>(i))),
            denominator: factors(&|i| poly(ColumnKind::Sigma, i, 0) * beta),
            carries_from: j
                .checked_sub(1)
                .map(|index| Column::new(ColumnKind::PermZ, index)),
            closes: j + 1 == chunks,
        }
    });
    // (a + β)(s + γ) / (A′ + β)(S′ + γ)
    let lookups = cs
        .lookups
        .iter()
        .enumerate()
        .map(move |(l, lk)| GrandProduct {
            origin: Origin::Lookup(l),
            z: Column::new(ColumnKind::LookupZ, l),
            numerator: (compress(&lk.input, theta) + constant(beta))
                * (compress(&lk.table, theta) + constant(gamma)),
            denominator: (poly(ColumnKind::LookupA, l, 0) + constant(beta))
                * (poly(ColumnKind::LookupS, l, 0) + constant(gamma)),
            carries_from: None,
            closes: true,
        });
    // (input + γ) / (target + γ)
    let shuffles = cs
        .shuffles
        .iter()
        .enumerate()
        .map(move |(s, sh)| GrandProduct {
            origin: Origin::Shuffle(s),
            z: Column::new(ColumnKind::ShuffleZ, s),
            numerator: compress(&sh.input, theta) + constant(gamma),
            denominator: compress(&sh.target, theta) + constant(gamma),
            carries_from: None,
            closes: true,
        });
    permutation.chain(lookups).chain(shuffles)
}

/// Every identity of the protocol for `cs`, in `y`-fold order: the gates
/// (restricted to the usable rows), then for each [`GrandProduct`] its
/// start, closing and step identities, each lookup's followed by the two
/// that tie `A′` to `S′` (paper Eqs. 1–2). `usable_rows` is the rotation
/// that reaches a chunk's final value from row 0. The list is produced one
/// argument at a time, so a reader that folds it (the verifier) never
/// holds more than one argument's expressions.
pub fn identities<F: PrimeField>(
    cs: &ConstraintSystem<F>,
    usable_rows: usize,
    theta: F,
    beta: F,
    gamma: F,
) -> impl Iterator<Item = Identity<F>> + '_ {
    let l0 = || poly::<F>(ColumnKind::L0, 0, 0);
    let l_last = || poly::<F>(ColumnKind::LLast, 0, 0);
    let l_active = || poly::<F>(ColumnKind::LActive, 0, 0);
    let one = || Expression::Constant(F::ONE);

    let gates = cs.gates.iter().enumerate().flat_map(move |(gate, g)| {
        g.polys.iter().enumerate().map(move |(poly, p)| Identity {
            origin: Origin::Gate { gate, poly },
            expr: l_active() * p.clone(),
        })
    });
    let products = grand_products(cs, theta, beta, gamma).flat_map(move |gp| {
        let mut exprs = Vec::with_capacity(5);
        let z = |rotation| poly::<F>(gp.z.kind, gp.z.index, rotation);
        let start = match gp.carries_from {
            Some(prev) => poly(prev.kind, prev.index, usable_rows as i32),
            None => one(),
        };
        exprs.push(l0() * (z(0) - start));
        if gp.closes {
            exprs.push(l_last() * (z(0) - one()));
        }
        exprs.push(l_active() * (z(1) * gp.denominator - z(0) * gp.numerator));
        if let Origin::Lookup(l) = gp.origin {
            // A′ starts on a table value, and afterwards either repeats its
            // previous value or moves to the table value beside it.
            let a = |rotation| poly::<F>(ColumnKind::LookupA, l, rotation);
            let s = || poly::<F>(ColumnKind::LookupS, l, 0);
            exprs.push(l0() * (a(0) - s()));
            exprs.push(l_active() * (a(0) - s()) * (a(0) - a(-1)));
        }
        let origin = gp.origin;
        exprs.into_iter().map(move |expr| Identity { origin, expr })
    });
    gates.chain(products)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_at_point;
    use poneglyph_arith::Fq;

    #[test]
    fn compression_uses_theta_horner() {
        let parts = [Expression::<Fq>::advice(0), Expression::advice(1)];
        let at = |q: Query| Fq::from_u64([1, 3][q.column.index]);
        let c = compress(&parts, Fq::from_u64(10));
        assert_eq!(eval_at_point(&c, Fq::ZERO, &at), Fq::from_u64(13));
        // A single part is left as it is: no θ, no extra degree.
        assert_eq!(compress(&parts[..1], Fq::from_u64(10)), parts[0]);
    }

    #[test]
    fn list_order_and_product_chaining() {
        let mut cs = ConstraintSystem::<Fq>::new();
        let cols: Vec<Column> = (0..4).map(|_| cs.advice_column()).collect();
        let table = cs.fixed_column();
        cs.create_gate("g", vec![Expression::advice(0) - Expression::advice(1)]);
        for c in &cols {
            cs.enable_permutation(*c);
        }
        cs.add_lookup(
            "lk",
            vec![Expression::advice(2)],
            vec![Expression::fixed(table.index)],
        );
        cs.add_shuffle(
            "sh",
            vec![Expression::advice(2)],
            vec![Expression::advice(3)],
        );

        let one = Fq::ONE;
        let products: Vec<_> = grand_products(&cs, one, one, one).collect();
        let perm_z = |index| Column::new(ColumnKind::PermZ, index);
        // Four permutation columns: a full chunk chained into a second one,
        // and only the last chunk closes.
        assert_eq!(products.len(), 4);
        assert_eq!(
            (products[0].carries_from, products[0].closes),
            (None, false)
        );
        assert_eq!(
            (products[1].carries_from, products[1].closes),
            (Some(perm_z(0)), true)
        );
        assert!(products[2..]
            .iter()
            .all(|p| p.carries_from.is_none() && p.closes));

        let origins: Vec<Origin> = identities(&cs, 10, one, one, one)
            .map(|id| id.origin)
            .collect();
        use Origin::*;
        let expected = [
            vec![Gate { gate: 0, poly: 0 }],
            vec![Permutation(0); 2], // start, step
            vec![Permutation(1); 3], // start, close, step
            vec![Lookup(0); 5],
            vec![Shuffle(0); 3],
        ];
        assert_eq!(origins, expected.concat());
    }
}
