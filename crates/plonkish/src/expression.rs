//! Columns, rotations and the polynomial-constraint expression language.
//!
//! This is the PLONKish arithmetization of the paper's §2.2: a rectangular
//! matrix of fixed, advice and instance columns, with multivariate
//! polynomial constraints over rotated column queries that must vanish on
//! every row.

use poneglyph_arith::PrimeField;
use std::collections::BTreeSet;

/// Every kind of column the proof system names. A circuit is written over
/// the first three (the PLONKish matrix of paper §2.2); the rest are the
/// protocol's own polynomials, which only [`crate::identities`] queries.
/// The declaration order is the sort order of [`Query`], which fixes the
/// proof's evaluation layout — append, never reorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ColumnKind {
    /// Circuit-constant columns (selectors, lookup tables, constants).
    Fixed,
    /// Private witness columns.
    Advice,
    /// Public input/output columns shared with the verifier.
    Instance,
    /// The copy permutation σ of one permutation column (verifying key).
    Sigma,
    /// The grand product `Z` of one copy-permutation chunk.
    PermZ,
    /// A lookup's permuted input column `A′`.
    LookupA,
    /// A lookup's permuted table column `S′`.
    LookupS,
    /// A lookup's grand product `Z`.
    LookupZ,
    /// A shuffle's grand product `Z`.
    ShuffleZ,
    /// A piece of the quotient polynomial `h` (opened, never a leaf).
    HPiece,
    /// `l_0`: the indicator of row 0.
    L0,
    /// `l_last`: the indicator of the boundary row after the usable rows.
    LLast,
    /// `l_active`: the indicator of the usable rows.
    LActive,
}

/// A column reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Column {
    /// Which matrix this column belongs to.
    pub kind: ColumnKind,
    /// Index within its kind.
    pub index: usize,
}

impl Column {
    /// Column `index` of `kind`.
    pub fn new(kind: ColumnKind, index: usize) -> Self {
        Self { kind, index }
    }
    /// Shorthand for a fixed column.
    pub fn fixed(index: usize) -> Self {
        Self::new(ColumnKind::Fixed, index)
    }
    /// Shorthand for an advice column.
    pub fn advice(index: usize) -> Self {
        Self::new(ColumnKind::Advice, index)
    }
    /// Shorthand for an instance column.
    pub fn instance(index: usize) -> Self {
        Self::new(ColumnKind::Instance, index)
    }
}

/// A relative row offset in a query (wraps around the domain).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rotation(pub i32);

impl Rotation {
    /// The current row.
    pub const CUR: Rotation = Rotation(0);
    /// The next row.
    pub const NEXT: Rotation = Rotation(1);
    /// The previous row.
    pub const PREV: Rotation = Rotation(-1);
}

/// A query of one column at one rotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Query {
    /// The queried column.
    pub column: Column,
    /// The rotation applied to the query.
    pub rotation: Rotation,
}

impl Query {
    /// Column `index` of `kind`, `rotation` rows away.
    pub fn new(kind: ColumnKind, index: usize, rotation: i32) -> Self {
        Self {
            column: Column::new(kind, index),
            rotation: Rotation(rotation),
        }
    }
}

/// A multivariate polynomial over column queries.
///
/// `Identity` denotes the polynomial `X` itself (needed by the permutation
/// argument's identity terms `k_i·X`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expression<F> {
    /// A constant field element.
    Constant(F),
    /// The linear polynomial `X`.
    Identity,
    /// A column query.
    Var(Query),
    /// Negation.
    Negated(Box<Expression<F>>),
    /// Addition.
    Sum(Box<Expression<F>>, Box<Expression<F>>),
    /// Multiplication.
    Product(Box<Expression<F>>, Box<Expression<F>>),
    /// Multiplication by a constant.
    Scaled(Box<Expression<F>>, F),
}

impl<F: PrimeField> Expression<F> {
    /// Query a fixed column at the current row.
    pub fn fixed(index: usize) -> Self {
        Self::fixed_at(index, Rotation::CUR)
    }
    /// Query a fixed column at a rotation.
    pub fn fixed_at(index: usize, rotation: Rotation) -> Self {
        Expression::Var(Query {
            column: Column::fixed(index),
            rotation,
        })
    }
    /// Query an advice column at the current row.
    pub fn advice(index: usize) -> Self {
        Self::advice_at(index, Rotation::CUR)
    }
    /// Query an advice column at a rotation.
    pub fn advice_at(index: usize, rotation: Rotation) -> Self {
        Expression::Var(Query {
            column: Column::advice(index),
            rotation,
        })
    }
    /// Query an instance column at the current row.
    pub fn instance(index: usize) -> Self {
        Expression::Var(Query {
            column: Column::instance(index),
            rotation: Rotation::CUR,
        })
    }
    /// A constant.
    pub fn constant(v: u64) -> Self {
        Expression::Constant(F::from_u64(v))
    }

    /// The total degree of the constraint polynomial (queries and `X` count
    /// as degree 1).
    pub fn degree(&self) -> usize {
        match self {
            Expression::Constant(_) => 0,
            Expression::Identity => 1,
            Expression::Var(_) => 1,
            Expression::Negated(e) => e.degree(),
            Expression::Sum(a, b) => a.degree().max(b.degree()),
            Expression::Product(a, b) => a.degree() + b.degree(),
            Expression::Scaled(e, _) => e.degree(),
        }
    }

    /// Collect every column query appearing in the expression.
    pub fn collect_queries(&self, out: &mut BTreeSet<Query>) {
        match self {
            Expression::Constant(_) | Expression::Identity => {}
            Expression::Var(q) => {
                out.insert(*q);
            }
            Expression::Negated(e) | Expression::Scaled(e, _) => e.collect_queries(out),
            Expression::Sum(a, b) | Expression::Product(a, b) => {
                a.collect_queries(out);
                b.collect_queries(out);
            }
        }
    }

    /// Generic evaluation by substituting closures for the leaves.
    pub fn evaluate<T>(
        &self,
        constant: &impl Fn(F) -> T,
        identity: &impl Fn() -> T,
        var: &impl Fn(Query) -> T,
        negate: &impl Fn(T) -> T,
        sum: &impl Fn(T, T) -> T,
        product: &impl Fn(T, T) -> T,
        scaled: &impl Fn(T, F) -> T,
    ) -> T {
        match self {
            Expression::Constant(c) => constant(*c),
            Expression::Identity => identity(),
            Expression::Var(q) => var(*q),
            Expression::Negated(e) => {
                let inner = e.evaluate(constant, identity, var, negate, sum, product, scaled);
                negate(inner)
            }
            Expression::Sum(a, b) => {
                let a = a.evaluate(constant, identity, var, negate, sum, product, scaled);
                let b = b.evaluate(constant, identity, var, negate, sum, product, scaled);
                sum(a, b)
            }
            Expression::Product(a, b) => {
                let a = a.evaluate(constant, identity, var, negate, sum, product, scaled);
                let b = b.evaluate(constant, identity, var, negate, sum, product, scaled);
                product(a, b)
            }
            Expression::Scaled(e, s) => {
                let inner = e.evaluate(constant, identity, var, negate, sum, product, scaled);
                scaled(inner, *s)
            }
        }
    }
}

impl<F: PrimeField> core::ops::Add for Expression<F> {
    type Output = Expression<F>;
    fn add(self, rhs: Self) -> Self {
        Expression::Sum(Box::new(self), Box::new(rhs))
    }
}
impl<F: PrimeField> core::ops::Sub for Expression<F> {
    type Output = Expression<F>;
    fn sub(self, rhs: Self) -> Self {
        Expression::Sum(Box::new(self), Box::new(Expression::Negated(Box::new(rhs))))
    }
}
impl<F: PrimeField> core::ops::Mul for Expression<F> {
    type Output = Expression<F>;
    fn mul(self, rhs: Self) -> Self {
        Expression::Product(Box::new(self), Box::new(rhs))
    }
}
impl<F: PrimeField> core::ops::Mul<F> for Expression<F> {
    type Output = Expression<F>;
    fn mul(self, rhs: F) -> Self {
        Expression::Scaled(Box::new(self), rhs)
    }
}
impl<F: PrimeField> core::ops::Neg for Expression<F> {
    type Output = Expression<F>;
    fn neg(self) -> Self {
        Expression::Negated(Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_arith::Fq;

    #[test]
    fn degrees() {
        let a = Expression::<Fq>::advice(0);
        let b = Expression::<Fq>::advice(1);
        let q = Expression::<Fq>::fixed(0);
        let expr = q * (a.clone() * b.clone() - a.clone());
        assert_eq!(expr.degree(), 3);
        assert_eq!(Expression::<Fq>::constant(5).degree(), 0);
        assert_eq!(Expression::<Fq>::Identity.degree(), 1);
        assert_eq!((a * b + Expression::Identity).degree(), 2);
    }

    #[test]
    fn query_collection() {
        let e = Expression::<Fq>::advice(0) * Expression::advice_at(0, Rotation::NEXT)
            + Expression::fixed(2)
            - Expression::instance(1);
        let mut qs = BTreeSet::new();
        e.collect_queries(&mut qs);
        assert_eq!(qs.len(), 4);
        assert!(qs.contains(&Query {
            column: Column::advice(0),
            rotation: Rotation::NEXT
        }));
    }

    #[test]
    fn arithmetic_evaluation() {
        // (a + 2b) * 3 with a = 5, b = 7 => 57
        let e = (Expression::<Fq>::advice(0) + Expression::advice(1) * Fq::from_u64(2))
            * Fq::from_u64(3);
        let v = e.evaluate(
            &|c| c,
            &|| Fq::ZERO,
            &|q| {
                if q.column.index == 0 {
                    Fq::from_u64(5)
                } else {
                    Fq::from_u64(7)
                }
            },
            &|x| -x,
            &|a, b| a + b,
            &|a, b| a * b,
            &|a, s| a * s,
        );
        assert_eq!(v, Fq::from_u64(57));
    }
}
