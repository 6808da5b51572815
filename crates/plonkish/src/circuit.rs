//! The constraint system (circuit *shape*) and the assignment (circuit
//! *contents*): the two halves of a PLONKish circuit.

use crate::expression::{Column, ColumnKind, Expression, Query, Rotation};
use poneglyph_arith::PrimeField;
use std::collections::BTreeSet;

/// Number of trailing blinding rows reserved in every column for zero
/// knowledge, plus one boundary row for the grand-product arguments.
pub const BLINDING_ROWS: usize = 5;

/// A named custom gate: a set of polynomial constraints that must vanish on
/// every usable row (the proving system gates them by the active-row
/// indicator automatically).
#[derive(Clone, Debug)]
pub struct Gate<F> {
    /// Human-readable name, reported by the mock prover on failure.
    pub name: String,
    /// The constraint polynomials.
    pub polys: Vec<Expression<F>>,
}

/// A lookup argument: every row's `input` tuple must appear among the rows
/// of the `table` tuple (paper §4.1, Eqs. 1–3 / plookup).
#[derive(Clone, Debug)]
pub struct Lookup<F> {
    /// Name for diagnostics.
    pub name: String,
    /// Input expressions (θ-compressed by the prover).
    pub input: Vec<Expression<F>>,
    /// Table expressions.
    pub table: Vec<Expression<F>>,
}

/// A shuffle argument: the multiset of `input` rows must equal the multiset
/// of `target` rows (paper §4.2, Eq. 5 — permutation integrity for sorts and
/// joins).
#[derive(Clone, Debug)]
pub struct Shuffle<F> {
    /// Name for diagnostics.
    pub name: String,
    /// Input expressions.
    pub input: Vec<Expression<F>>,
    /// Target expressions (a permutation of the input rows).
    pub target: Vec<Expression<F>>,
}

/// The shape of a circuit: columns, gates, lookups, shuffles and which
/// columns may participate in copy (equality) constraints.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSystem<F> {
    /// Number of fixed columns.
    pub num_fixed: usize,
    /// Number of advice columns.
    pub num_advice: usize,
    /// Number of instance columns.
    pub num_instance: usize,
    /// Custom gates.
    pub gates: Vec<Gate<F>>,
    /// Columns that participate in the copy-constraint permutation.
    pub permutation_columns: Vec<Column>,
    /// Lookup arguments.
    pub lookups: Vec<Lookup<F>>,
    /// Shuffle arguments.
    pub shuffles: Vec<Shuffle<F>>,
}

/// Columns in a permutation chunk (bounded so the grand-product constraint
/// stays low-degree, as the paper's "low-order polynomial constraints"
/// design goal requires).
pub const PERMUTATION_CHUNK: usize = 3;

impl<F: PrimeField> ConstraintSystem<F> {
    /// An empty constraint system.
    pub fn new() -> Self {
        Self {
            num_fixed: 0,
            num_advice: 0,
            num_instance: 0,
            gates: Vec::new(),
            permutation_columns: Vec::new(),
            lookups: Vec::new(),
            shuffles: Vec::new(),
        }
    }

    /// Allocate a fixed column.
    pub fn fixed_column(&mut self) -> Column {
        self.num_fixed += 1;
        Column::fixed(self.num_fixed - 1)
    }

    /// Allocate an advice column.
    pub fn advice_column(&mut self) -> Column {
        self.num_advice += 1;
        Column::advice(self.num_advice - 1)
    }

    /// Allocate an instance column.
    pub fn instance_column(&mut self) -> Column {
        self.num_instance += 1;
        Column::instance(self.num_instance - 1)
    }

    /// Register a custom gate.
    pub fn create_gate(&mut self, name: impl Into<String>, polys: Vec<Expression<F>>) {
        self.gates.push(Gate {
            name: name.into(),
            polys,
        });
    }

    /// Allow a column to participate in copy constraints.
    pub fn enable_permutation(&mut self, column: Column) {
        if !self.permutation_columns.contains(&column) {
            self.permutation_columns.push(column);
        }
    }

    /// Register a lookup argument.
    pub fn add_lookup(
        &mut self,
        name: impl Into<String>,
        input: Vec<Expression<F>>,
        table: Vec<Expression<F>>,
    ) {
        assert_eq!(input.len(), table.len(), "lookup arity mismatch");
        assert!(!input.is_empty(), "empty lookup");
        self.lookups.push(Lookup {
            name: name.into(),
            input,
            table,
        });
    }

    /// Register a shuffle (multiset equality) argument.
    pub fn add_shuffle(
        &mut self,
        name: impl Into<String>,
        input: Vec<Expression<F>>,
        target: Vec<Expression<F>>,
    ) {
        assert_eq!(input.len(), target.len(), "shuffle arity mismatch");
        assert!(!input.is_empty(), "empty shuffle");
        self.shuffles.push(Shuffle {
            name: name.into(),
            input,
            target,
        });
    }

    /// Number of permutation grand-product chunks.
    pub fn permutation_chunks(&self) -> usize {
        self.permutation_columns.len().div_ceil(PERMUTATION_CHUNK)
    }

    /// The maximum degree over the protocol's identities, which the quotient
    /// argument must support (at least 2, the vanishing baseline). Degrees
    /// do not depend on the challenges or the row count.
    pub fn max_degree(&self) -> usize {
        let ids = crate::identities::identities(self, 0, F::ONE, F::ONE, F::ONE);
        ids.map(|id| id.expr.degree()).fold(2, usize::max)
    }

    /// All column queries made by gates, lookups and shuffles.
    pub fn collect_queries(&self) -> BTreeSet<Query> {
        let mut out = BTreeSet::new();
        for g in &self.gates {
            for p in &g.polys {
                p.collect_queries(&mut out);
            }
        }
        for lk in &self.lookups {
            for e in lk.input.iter().chain(&lk.table) {
                e.collect_queries(&mut out);
            }
        }
        for sh in &self.shuffles {
            for e in sh.input.iter().chain(&sh.target) {
                e.collect_queries(&mut out);
            }
        }
        // Permutation columns are opened at Rotation::CUR.
        for c in &self.permutation_columns {
            out.insert(Query {
                column: *c,
                rotation: Rotation::CUR,
            });
        }
        out
    }

    /// A structural digest used to bind the verifying key to the transcript.
    pub fn digest(&self) -> [u8; 64] {
        let mut h = poneglyph_hash::Blake2b::new();
        h.update(b"cs-digest");
        h.update(&(self.num_fixed as u64).to_le_bytes());
        h.update(&(self.num_advice as u64).to_le_bytes());
        h.update(&(self.num_instance as u64).to_le_bytes());
        h.update(&(self.gates.len() as u64).to_le_bytes());
        for g in &self.gates {
            h.update(g.name.as_bytes());
            h.update(&(g.polys.len() as u64).to_le_bytes());
            for p in &g.polys {
                h.update(format!("{p:?}").as_bytes());
            }
        }
        for lk in &self.lookups {
            h.update(b"lookup");
            h.update(format!("{:?}{:?}", lk.input, lk.table).as_bytes());
        }
        for sh in &self.shuffles {
            h.update(b"shuffle");
            h.update(format!("{:?}{:?}", sh.input, sh.target).as_bytes());
        }
        for c in &self.permutation_columns {
            h.update(format!("{c:?}").as_bytes());
        }
        h.finalize()
    }
}

/// A cell reference for copy constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// The column of the cell.
    pub column: Column,
    /// The row of the cell.
    pub row: usize,
}

/// The contents of a circuit: fixed values, the private witness, the public
/// instance, and the copy constraints.
#[derive(Clone, Debug)]
pub struct Assignment<F> {
    /// log2 of the number of rows.
    pub k: u32,
    /// Number of rows `n = 2^k`.
    pub n: usize,
    /// Rows usable for circuit data (the rest are boundary/blinding rows).
    pub usable_rows: usize,
    /// Fixed column values.
    pub fixed: Vec<Vec<F>>,
    /// Advice (witness) column values.
    pub advice: Vec<Vec<F>>,
    /// Instance (public) column values.
    pub instance: Vec<Vec<F>>,
    /// Copy constraints.
    pub copies: Vec<(Cell, Cell)>,
}

impl<F: PrimeField> Assignment<F> {
    /// Create an all-zero assignment for a circuit shape at size `2^k`.
    pub fn new(cs: &ConstraintSystem<F>, k: u32) -> Self {
        let n = 1usize << k;
        assert!(
            n > BLINDING_ROWS + 1,
            "domain of 2^{k} rows leaves no usable rows"
        );
        Self {
            k,
            n,
            usable_rows: n - BLINDING_ROWS - 1,
            fixed: vec![vec![F::ZERO; n]; cs.num_fixed],
            advice: vec![vec![F::ZERO; n]; cs.num_advice],
            instance: vec![vec![F::ZERO; n]; cs.num_instance],
            copies: Vec::new(),
        }
    }

    /// Assign a fixed cell.
    pub fn assign_fixed(&mut self, column: Column, row: usize, value: F) {
        debug_assert_eq!(column.kind, ColumnKind::Fixed);
        assert!(row < self.usable_rows, "row {row} beyond usable rows");
        self.fixed[column.index][row] = value;
    }

    /// Assign an advice cell.
    pub fn assign_advice(&mut self, column: Column, row: usize, value: F) {
        debug_assert_eq!(column.kind, ColumnKind::Advice);
        assert!(row < self.usable_rows, "row {row} beyond usable rows");
        self.advice[column.index][row] = value;
    }

    /// Assign an instance cell.
    pub fn assign_instance(&mut self, column: Column, row: usize, value: F) {
        debug_assert_eq!(column.kind, ColumnKind::Instance);
        assert!(row < self.usable_rows, "row {row} beyond usable rows");
        self.instance[column.index][row] = value;
    }

    /// Read back a cell value.
    pub fn value(&self, column: Column, row: usize) -> F {
        match column.kind {
            ColumnKind::Fixed => self.fixed[column.index][row],
            ColumnKind::Advice => self.advice[column.index][row],
            ColumnKind::Instance => self.instance[column.index][row],
            kind => panic!("an assignment holds no {kind:?} column"),
        }
    }

    /// Record a copy (equality) constraint between two cells. Both columns
    /// must have been enabled for permutation in the constraint system.
    pub fn copy(&mut self, a: Cell, b: Cell) {
        assert!(
            a.row < self.usable_rows && b.row < self.usable_rows,
            "copy touches non-usable rows"
        );
        self.copies.push((a, b));
    }

    /// Fill blinding rows of every advice column with random values
    /// (called by the prover just before committing).
    pub fn blind(&mut self, rng: &mut impl rand::Rng) {
        for col in self.advice.iter_mut() {
            for v in col[self.usable_rows..].iter_mut() {
                *v = F::random(rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_arith::Fq;

    #[test]
    fn column_allocation() {
        let mut cs = ConstraintSystem::<Fq>::new();
        let f = cs.fixed_column();
        let a = cs.advice_column();
        let i = cs.instance_column();
        assert_eq!(f, Column::fixed(0));
        assert_eq!(a, Column::advice(0));
        assert_eq!(i, Column::instance(0));
        assert_eq!((cs.num_fixed, cs.num_advice, cs.num_instance), (1, 1, 1));
    }

    #[test]
    fn max_degree_accounts_for_gating() {
        let mut cs = ConstraintSystem::<Fq>::new();
        let q = cs.fixed_column();
        let a = cs.advice_column();
        let b = cs.advice_column();
        cs.create_gate(
            "mul",
            vec![
                Expression::fixed(q.index)
                    * (Expression::advice(a.index) * Expression::advice(b.index)),
            ],
        );
        // degree 3 gate + 1 implicit active gate = 4
        assert_eq!(cs.max_degree(), 4);
        cs.enable_permutation(a);
        cs.enable_permutation(b);
        assert_eq!(cs.max_degree(), 4); // perm with 2 cols: 2 + 2 = 4
    }

    #[test]
    fn assignment_bounds_enforced() {
        let mut cs = ConstraintSystem::<Fq>::new();
        let a = cs.advice_column();
        let mut asn = Assignment::new(&cs, 4);
        assert_eq!(asn.n, 16);
        assert_eq!(asn.usable_rows, 16 - BLINDING_ROWS - 1);
        asn.assign_advice(a, 0, Fq::ONE);
        assert_eq!(asn.value(a, 0), Fq::ONE);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut asn2 = asn.clone();
            asn2.assign_advice(a, 15, Fq::ONE);
        }));
        assert!(result.is_err(), "blinding-row assignment must panic");
    }

    #[test]
    fn digest_changes_with_structure() {
        let mut cs1 = ConstraintSystem::<Fq>::new();
        cs1.advice_column();
        let mut cs2 = ConstraintSystem::<Fq>::new();
        cs2.advice_column();
        cs2.advice_column();
        assert_ne!(cs1.digest(), cs2.digest());
    }
}
