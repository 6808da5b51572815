//! The circuit builder: allocation of columns, fixed data, and the paper's
//! reusable gates (range check designs A–D, comparison, equality).
//!
//! The builder is *structure-first*: every column, gate, lookup, shuffle and
//! copy constraint depends only on the query plan, the public base-table
//! sizes and the query constants — never on private data. Witness values
//! are recorded for whatever each gadget is given; the verifier runs the
//! same gadgets over empty columns, so it records none and re-derives the
//! verifying key independently.

use crate::encode::{bound_fq, VALUE_BOUND, VALUE_BYTES};
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_plonkish::{
    Assignment, Cell, Column, ConstraintSystem, Expression, Rotation, BLINDING_ROWS,
};

/// Records structure plus witness values, then materializes a
/// [`ConstraintSystem`] + [`Assignment`] pair.
pub struct Builder {
    /// The constraint system under construction.
    pub cs: ConstraintSystem<Fq>,
    /// Decompose range checks into *bits* with boolean gates instead of
    /// bytes with lookup tables. This is the ZKSQL-style boolean-circuit
    /// encoding the paper contrasts against (§5.3/§5.4): 8× the columns
    /// and no lookup arguments.
    pub bitwise_ranges: bool,
    /// Advice column indices that hold scanned base-table data. Their
    /// binding is the database-commitment check (ROADMAP §3.3), not a
    /// circuit gate; the static analyzer's shipped allow-list is scoped to
    /// exactly this set.
    pub scan_advice: Vec<usize>,
    fixed_writes: Vec<(Column, usize, Fq)>,
    advice_writes: Vec<(Column, usize, Fq)>,
    instance_writes: Vec<(Column, usize, Fq)>,
    copies: Vec<(Cell, Cell)>,
    rows: usize,
    /// The shared u8 lookup table column (Design C).
    pub byte_table: Column,
}

/// A boolean witness column produced by a predicate gadget.
#[derive(Clone, Debug)]
pub struct BitCol {
    /// The advice column holding the bit.
    pub col: Column,
    /// Witness bits (empty in structure mode).
    pub vals: Vec<bool>,
}

/// Query a column at the current row.
pub fn col_expr(c: Column) -> Expression<Fq> {
    rotated(c, Rotation::CUR)
}

/// Query a column at a rotation.
pub fn rotated(c: Column, rotation: Rotation) -> Expression<Fq> {
    Expression::Var(poneglyph_plonkish::Query {
        column: c,
        rotation,
    })
}

impl Builder {
    /// Start a builder holding only the shared u8 table.
    pub fn new() -> Self {
        let mut cs = ConstraintSystem::new();
        let byte_table = cs.fixed_column();
        let mut b = Self {
            cs,
            bitwise_ranges: false,
            scan_advice: Vec::new(),
            fixed_writes: Vec::new(),
            advice_writes: Vec::new(),
            instance_writes: Vec::new(),
            copies: Vec::new(),
            rows: 0,
            byte_table,
        };
        for i in 0..256usize {
            b.fixed_writes
                .push((b.byte_table, i, Fq::from_u64(i as u64)));
        }
        b.rows = 256;
        b
    }

    /// Track the high-water row mark.
    pub fn need_rows(&mut self, rows: usize) {
        self.rows = self.rows.max(rows);
    }

    /// Smallest `k` with room for every region plus blinding rows.
    pub fn k(&self) -> u32 {
        let needed = self.rows + BLINDING_ROWS + 1;
        (needed.next_power_of_two().trailing_zeros()).max(4)
    }

    /// A fixed column that is 1 on rows `[0, cap)` (a region selector).
    pub fn selector(&mut self, cap: usize) -> Column {
        let col = self.cs.fixed_column();
        for r in 0..cap {
            self.fixed_writes.push((col, r, Fq::ONE));
        }
        self.need_rows(cap);
        col
    }

    /// A fixed column holding `value` on rows `[0, cap)`.
    pub fn fixed_const(&mut self, cap: usize, value: Fq) -> Column {
        let col = self.cs.fixed_column();
        for r in 0..cap {
            self.fixed_writes.push((col, r, value));
        }
        self.need_rows(cap);
        col
    }

    /// Record a single fixed-cell write on an existing column.
    pub fn write_fixed(&mut self, col: Column, row: usize, value: Fq) {
        self.fixed_writes.push((col, row, value));
        self.need_rows(row + 1);
    }

    /// A fixed selector over rows `[from, to)`.
    pub fn selector_range(&mut self, from: usize, to: usize) -> Column {
        let col = self.cs.fixed_column();
        for r in from..to {
            self.fixed_writes.push((col, r, Fq::ONE));
        }
        self.need_rows(to);
        col
    }

    /// A fixed selector set at a single row.
    pub fn selector_single(&mut self, row: usize) -> Column {
        self.selector_range(row, row + 1)
    }

    /// A fixed column with explicit `(row, value)` writes.
    pub fn fixed_values(&mut self, writes: &[(usize, Fq)]) -> Column {
        let col = self.cs.fixed_column();
        let max = writes.iter().map(|(r, _)| r + 1).max().unwrap_or(0);
        self.fixed_writes
            .extend(writes.iter().map(|(r, v)| (col, *r, *v)));
        self.need_rows(max);
        col
    }

    /// An advice column; `values` fill rows `[0, len)`.
    pub fn advice(&mut self, values: &[Fq]) -> Column {
        let col = self.cs.advice_column();
        self.advice_writes
            .extend(values.iter().enumerate().map(|(r, v)| (col, r, *v)));
        self.need_rows(values.len());
        col
    }

    /// An advice column from `u64` values.
    pub fn advice_u64(&mut self, values: &[u64]) -> Column {
        let vals: Vec<Fq> = values.iter().map(|v| Fq::from_u64(*v)).collect();
        self.advice(&vals)
    }

    /// An advice column of 0/1 values.
    pub fn advice_bits(&mut self, values: &[bool]) -> Column {
        self.advice(&bits(values))
    }

    /// An instance (public) column.
    pub fn instance(&mut self, values: &[Fq]) -> Column {
        let col = self.cs.instance_column();
        self.instance_writes
            .extend(values.iter().enumerate().map(|(r, v)| (col, r, *v)));
        self.need_rows(values.len());
        col
    }

    /// Record a copy constraint, enabling both columns for permutation.
    pub fn copy(&mut self, a: Cell, b: Cell) {
        self.cs.enable_permutation(a.column);
        self.cs.enable_permutation(b.column);
        self.copies.push((a, b));
    }

    // ------------------------------------------------------------------
    // The paper's gates
    // ------------------------------------------------------------------

    /// Range check (Design C): constrain `col` to `[0, 2^(8·nbytes))` on
    /// rows where the selector `q` is 1, via byte decomposition against the
    /// shared u8 lookup table.
    pub fn range_check(
        &mut self,
        q: Column,
        col: Column,
        nbytes: usize,
        values: &[u64],
        cap: usize,
    ) {
        if self.bitwise_ranges {
            return self.range_check_bits(q, col, nbytes * 8, values, cap);
        }
        let mut byte_cols = Vec::with_capacity(nbytes);
        for i in 0..nbytes {
            let vals: Vec<u64> = values.iter().map(|v| (v >> (8 * i)) & 0xff).collect();
            byte_cols.push(self.advice_u64(&vals));
        }
        // q · (col − Σ bᵢ·2^{8i}) = 0
        let mut recomposed = Expression::Constant(Fq::ZERO);
        for (i, b) in byte_cols.iter().enumerate() {
            recomposed = recomposed
                + Expression::advice(b.index) * Fq::from_u64(1).double().pow_expr(8 * i as u64);
        }
        let gate = Expression::fixed(q.index) * (Expression::advice(col.index) - recomposed);
        self.cs.create_gate("range-decompose", vec![gate]);
        for b in &byte_cols {
            self.cs.add_lookup(
                "u8",
                vec![Expression::fixed(q.index) * Expression::advice(b.index)],
                vec![Expression::fixed(self.byte_table.index)],
            );
        }
        self.need_rows(cap);
    }

    /// Bit-level range check (the boolean-circuit alternative the paper
    /// compares against): one boolean-gated advice column per bit.
    pub fn range_check_bits(
        &mut self,
        q: Column,
        col: Column,
        nbits: usize,
        values: &[u64],
        cap: usize,
    ) {
        let qe = Expression::fixed(q.index);
        let mut recomposed = Expression::Constant(Fq::ZERO);
        let mut weight = Fq::ONE;
        for i in 0..nbits {
            let vals: Vec<u64> = values.iter().map(|v| (v >> i) & 1).collect();
            let bit = self.advice_u64(&vals);
            let be = Expression::advice(bit.index);
            self.cs.create_gate(
                "bit-bool",
                vec![qe.clone() * (be.clone() * be.clone() - be.clone())],
            );
            recomposed = recomposed + be * weight;
            weight = weight.double();
        }
        self.cs
            .create_gate("bit-decompose", vec![qe * (col_expr(col) - recomposed)]);
        self.need_rows(cap);
    }

    /// Comparison gate (Design D): returns a bit column `c` with
    /// `c = [x < t + offset]`, where `x` and `t` are value columns in
    /// `[0, 2^56)`. Proves `0 ≤ (x − t − offset) + c·2^56 < 2^56`.
    #[allow(clippy::too_many_arguments)]
    pub fn lt_gadget(
        &mut self,
        q: Column,
        cap: usize,
        x: Column,
        x_vals: &[u64],
        t: Column,
        t_vals: &[u64],
        offset: u64,
    ) -> BitCol {
        let (c_vals, d_vals): (Vec<bool>, Vec<u64>) = x_vals
            .iter()
            .zip(t_vals)
            .map(|(xv, tv)| {
                let thresh = tv + offset;
                let lt = (*xv as u128) < thresh as u128;
                let d = (*xv as i128) - (thresh as i128) + if lt { VALUE_BOUND as i128 } else { 0 };
                debug_assert!((0..VALUE_BOUND as i128).contains(&d));
                (lt, d as u64)
            })
            .unzip();
        let c_col = self.advice_bits(&c_vals);
        let d_col = self.advice_u64(&d_vals);
        let qe = Expression::fixed(q.index);
        let ce = Expression::advice(c_col.index);
        // boolean
        self.cs.create_gate(
            "lt-bool",
            vec![qe.clone() * (ce.clone() * ce.clone() - ce.clone())],
        );
        // D = x − t − offset + c·B
        self.cs.create_gate(
            "lt-shift",
            vec![
                qe * (Expression::advice(d_col.index) - col_expr(x)
                    + col_expr(t)
                    + Expression::Constant(Fq::from_u64(offset))
                    - ce * bound_fq()),
            ],
        );
        self.range_check(q, d_col, VALUE_BYTES, &d_vals, cap);
        BitCol {
            col: c_col,
            vals: c_vals,
        }
    }

    /// Equality gate (paper Eqs. 6/7): returns bit `b = [a = t]` using the
    /// prover-supplied inverse trick `b = 1 − (a − t)·p`, `b·(a − t) = 0`.
    pub fn eq_gadget(
        &mut self,
        q: Column,
        a: Column,
        a_vals: &[u64],
        t: Column,
        t_vals: &[u64],
    ) -> BitCol {
        let (b_vals, p_vals): (Vec<bool>, Vec<Fq>) = a_vals
            .iter()
            .zip(t_vals)
            .map(|(av, tv)| {
                if av == tv {
                    (true, Fq::ZERO)
                } else {
                    let diff = Fq::from_u64(*av) - Fq::from_u64(*tv);
                    (false, diff.invert().expect("nonzero"))
                }
            })
            .unzip();
        let b_col = self.advice_bits(&b_vals);
        let p_col = self.advice(&p_vals);
        let qe = Expression::fixed(q.index);
        let diff = col_expr(a) - col_expr(t);
        let be = Expression::advice(b_col.index);
        self.cs.create_gate(
            "eq",
            vec![
                qe.clone()
                    * (be.clone() - Expression::Constant(Fq::ONE)
                        + diff.clone() * Expression::advice(p_col.index)),
                qe * (be * diff),
            ],
        );
        BitCol {
            col: b_col,
            vals: b_vals,
        }
    }

    /// Equality-with-previous-row gate: bit `b_r = [x_r = x_{r−1}]` for
    /// rows in `[1, cap)` (row 0 is unconstrained and witnessed 0). Used by
    /// the group-by boundary detection (paper Eqs. 6/7 across adjacent
    /// rows).
    pub fn eq_prev_gadget(&mut self, q_rest: Column, x: Column, vals: &[Fq]) -> BitCol {
        let (b_vals, p_vals): (Vec<bool>, Vec<Fq>) = (0..vals.len())
            .map(|r| {
                if r == 0 {
                    (false, Fq::ZERO)
                } else if vals[r] == vals[r - 1] {
                    (true, Fq::ZERO)
                } else {
                    let diff = vals[r] - vals[r - 1];
                    (false, diff.invert().expect("nonzero"))
                }
            })
            .unzip();
        let b_col = self.advice_bits(&b_vals);
        let p_col = self.advice(&p_vals);
        let qe = Expression::fixed(q_rest.index);
        let diff = col_expr(x) - rotated(x, Rotation::PREV);
        let be = Expression::advice(b_col.index);
        self.cs.create_gate(
            "eq-prev",
            vec![
                qe.clone()
                    * (be.clone() - Expression::Constant(Fq::ONE)
                        + diff.clone() * Expression::advice(p_col.index)),
                qe * (be * diff),
            ],
        );
        BitCol {
            col: b_col,
            vals: b_vals,
        }
    }

    /// Product column `out = a·b` (for chaining predicate bits and masks).
    pub fn product(
        &mut self,
        q: Column,
        a: Expression<Fq>,
        b: Expression<Fq>,
        vals: &[Fq],
    ) -> Column {
        let out = self.advice(vals);
        self.cs.create_gate(
            "product",
            vec![Expression::fixed(q.index) * (Expression::advice(out.index) - a * b)],
        );
        out
    }

    /// Materialize the assignment (and final constraint system).
    pub fn finish(self) -> (ConstraintSystem<Fq>, Assignment<Fq>) {
        let k = self.k();
        let mut asn = Assignment::new(&self.cs, k);
        for (col, row, v) in self.fixed_writes {
            asn.assign_fixed(col, row, v);
        }
        for (col, row, v) in self.advice_writes {
            asn.assign_advice(col, row, v);
        }
        for (col, row, v) in self.instance_writes {
            asn.assign_instance(col, row, v);
        }
        for (a, b) in self.copies {
            asn.copy(a, b);
        }
        (self.cs, asn)
    }
}

/// Bits as 0/1 field elements.
pub fn bits(values: &[bool]) -> Vec<Fq> {
    values.iter().map(|b| Fq::from_u64(*b as u64)).collect()
}

/// Tiny helper: `2^e` as an expression-friendly field constant.
trait PowExpr {
    fn pow_expr(self, e: u64) -> Fq;
}
impl PowExpr for Fq {
    fn pow_expr(self, e: u64) -> Fq {
        self.pow(&[e, 0, 0, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_plonkish::mock_prove;

    #[test]
    fn range_check_accepts_in_range() {
        let mut b = Builder::new();
        let vals: Vec<u64> = vec![0, 255, 256, (1 << 56) - 1, 12345];
        let q = b.selector(vals.len());
        let col = b.advice_u64(&vals);
        b.range_check(q, col, VALUE_BYTES, &vals, vals.len());
        let (cs, asn) = b.finish();
        mock_prove(&cs, &asn).expect("in-range values pass");
    }

    #[test]
    fn range_check_rejects_out_of_range() {
        let mut b = Builder::new();
        let vals: Vec<u64> = vec![5, 1 << 56];
        let q = b.selector(vals.len());
        let col = b.advice_u64(&vals);
        // decomposition of 2^56 needs an 8th byte; with 7 bytes the
        // recomposition gate cannot hold
        b.range_check(q, col, VALUE_BYTES, &vals, vals.len());
        let (cs, asn) = b.finish();
        assert!(mock_prove(&cs, &asn).is_err());
    }

    #[test]
    fn lt_gadget_is_correct_on_samples() {
        let xs: Vec<u64> = vec![0, 1, 5, 10, 10, 11, (1 << 56) - 2, 7];
        let ts: Vec<u64> = vec![1, 1, 9, 10, 11, 10, 0, (1 << 56) - 2];
        let mut b = Builder::new();
        let q = b.selector(xs.len());
        let x = b.advice_u64(&xs);
        let t = b.advice_u64(&ts);
        let bit = b.lt_gadget(q, xs.len(), x, &xs, t, &ts, 0);
        let expect: Vec<bool> = xs.iter().zip(&ts).map(|(a, b)| a < b).collect();
        assert_eq!(bit.vals, expect);
        let (cs, asn) = b.finish();
        mock_prove(&cs, &asn).expect("honest lt passes");
    }

    #[test]
    fn lt_gadget_wrong_bit_fails() {
        let xs = vec![3u64];
        let ts = vec![10u64];
        let mut b = Builder::new();
        let q = b.selector(1);
        let x = b.advice_u64(&xs);
        let t = b.advice_u64(&ts);
        let _ = b.lt_gadget(q, 1, x, &xs, t, &ts, 0);
        // flip the bit column value by appending a conflicting write
        // (simplest tamper: rebuild with forged witness)
        let (cs, mut asn) = b.finish();
        // bit column is the first advice column after x and t
        asn.advice[2][0] = Fq::ZERO; // claim x >= t
        assert!(mock_prove(&cs, &asn).is_err());
    }

    #[test]
    fn lt_offset_implements_le() {
        // x <= t  ⟺  x < t+1
        let xs: Vec<u64> = vec![4, 5, 6];
        let ts: Vec<u64> = vec![5, 5, 5];
        let mut b = Builder::new();
        let q = b.selector(xs.len());
        let x = b.advice_u64(&xs);
        let t = b.advice_u64(&ts);
        let bit = b.lt_gadget(q, xs.len(), x, &xs, t, &ts, 1);
        assert_eq!(bit.vals, vec![true, true, false]);
        let (cs, asn) = b.finish();
        mock_prove(&cs, &asn).expect("le via offset");
    }

    #[test]
    fn eq_gadget_detects_equality() {
        let a: Vec<u64> = vec![7, 8, 0, 123];
        let t: Vec<u64> = vec![7, 9, 0, 122];
        let mut b = Builder::new();
        let q = b.selector(a.len());
        let ac = b.advice_u64(&a);
        let tc = b.advice_u64(&t);
        let bit = b.eq_gadget(q, ac, &a, tc, &t);
        assert_eq!(bit.vals, vec![true, false, true, false]);
        let (cs, asn) = b.finish();
        mock_prove(&cs, &asn).expect("honest eq passes");
    }

    #[test]
    fn eq_gadget_forged_bit_fails() {
        let a: Vec<u64> = vec![7];
        let t: Vec<u64> = vec![9];
        let mut b = Builder::new();
        let q = b.selector(1);
        let ac = b.advice_u64(&a);
        let tc = b.advice_u64(&t);
        let _ = b.eq_gadget(q, ac, &a, tc, &t);
        let (cs, mut asn) = b.finish();
        asn.advice[2][0] = Fq::ONE; // claim equal
        assert!(mock_prove(&cs, &asn).is_err());
    }

    #[test]
    fn product_gate() {
        let mut b = Builder::new();
        let q = b.selector(2);
        let a = b.advice_u64(&[3, 0]);
        let c = b.advice_u64(&[5, 9]);
        let out = b.product(
            q,
            Expression::advice(a.index),
            Expression::advice(c.index),
            &[Fq::from_u64(15), Fq::ZERO],
        );
        let _ = out;
        let (cs, asn) = b.finish();
        mock_prove(&cs, &asn).expect("product");
    }
}
