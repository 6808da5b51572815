//! The query-to-circuit compiler: maps a logical plan (plus the executor's
//! witness trace) onto the paper's gates (§4.6 "Combining Gates").
//!
//! Every operator becomes a *region*: a set of advice columns holding the
//! operator's output rows, a `real` indicator column (the ZKSQL-style dummy
//! tuples of §3.4 that keep cardinalities oblivious), and a fixed region
//! selector. Region capacities depend only on the plan and the public base
//! table sizes, so the circuit structure is data-independent and the
//! verifier can re-derive the verifying key.

use crate::builder::{bits, BitCol, Builder};
use crate::encode::{encode, MAX_VALUE, VALUE_BOUND, VALUE_BYTES};
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_plonkish::{Assignment, Cell, Column, ConstraintSystem, Expression, Gate, Rotation};
use poneglyph_sql::{AggFunc, CmpOp, Database, Executed, Plan, Predicate, ScalarExpr};
use std::collections::HashMap;

/// Which constraint families to emit — `repro fig8`/`fig9` ablate them
/// ("circuit without any gates" etc.) and the ZKSQL baseline swaps in
/// bitwise range checks. Witness layout and commitments are identical in
/// every configuration; only the constraints differ.
#[derive(Clone, Copy, Debug)]
pub struct GateSet {
    /// Emit filter comparison gates.
    pub filters: bool,
    /// Emit join gates (equality, source lookup, completeness).
    pub joins: bool,
    /// Emit sort/order-by gates.
    pub sorts: bool,
    /// Emit group-by boundary gates.
    pub group_by: bool,
    /// Emit aggregation accumulator gates.
    pub aggregates: bool,
    /// Use bit-level boolean range checks instead of byte lookups (the
    /// ZKSQL-style encoding; see `Builder::bitwise_ranges`).
    pub bitwise_ranges: bool,
}

impl Default for GateSet {
    fn default() -> Self {
        Self {
            filters: true,
            joins: true,
            sorts: true,
            group_by: true,
            aggregates: true,
            bitwise_ranges: false,
        }
    }
}

impl GateSet {
    /// The "circuit without any gates" baseline of Figures 8/9.
    pub fn none() -> Self {
        Self {
            filters: false,
            joins: false,
            sorts: false,
            group_by: false,
            aggregates: false,
            bitwise_ranges: false,
        }
    }
}

/// A compiled query circuit plus its public instance.
pub struct CompiledQuery {
    /// The constraint system.
    pub cs: ConstraintSystem<Fq>,
    /// The assignment (witness included only in prover mode).
    pub asn: Assignment<Fq>,
    /// The public instance columns (`real` bit first, then output columns).
    pub instance: Vec<Vec<Fq>>,
    /// Rows in the output region.
    pub output_cap: usize,
    /// Output column names.
    pub output_names: Vec<String>,
    /// Advice column indices holding scanned base-table data. These are
    /// public database values, not free witness: their binding check is the
    /// per-column database commitment (ROADMAP §3.3), so the static
    /// analyzer's shipped allow-list waives unconstrained-advice findings
    /// for exactly this set and nothing else.
    pub scan_columns: Vec<usize>,
}

/// One operator's output inside the circuit.
#[derive(Clone)]
struct Region {
    cols: Vec<Column>,
    real: Column,
    q: Column,
    cap: usize,
    /// Witness: values per column over `[0, cap)` (empty in structure mode).
    vals: Vec<Vec<u64>>,
    /// Witness: real bits over `[0, cap)` (empty in structure mode).
    reals: Vec<bool>,
}

impl Region {
    fn width(&self) -> usize {
        self.cols.len()
    }
}

/// Compile a plan + optional execution trace into a circuit.
///
/// With `trace = None` the circuit contains structure and fixed data only
/// (what the verifier needs for key generation); base table sizes come from
/// `db` whose tables may then be value-empty but must have correct lengths.
/// That structure compile is the same lowering as the witness compile, run
/// over empty columns: scans yield no values, so every gadget records no
/// witness, while columns, gates, lookups, fixed data and copies — which
/// depend on capacities alone — come out identical.
pub fn compile(
    db: &Database,
    plan: &Plan,
    trace: Option<&Executed>,
    gates: GateSet,
) -> Result<CompiledQuery, String> {
    let mut b = Builder::new();
    b.bitwise_ranges = gates.bitwise_ranges;
    let mut c = Compiler {
        b: &mut b,
        db,
        gates,
    };
    let out = c.node(plan, trace)?;
    // Final masking + public output.
    let masked = c.mask_output(&out);
    let mut instance = Vec::with_capacity(masked.width() + 1);
    let real_vals = bits(&masked.reals);
    let inst_real = c.b.instance(&real_vals);
    c.b.copy_region_to_instance(&masked, masked.real, inst_real);
    instance.push(pad_instance(real_vals, masked.cap));
    for (j, col) in masked.cols.clone().iter().enumerate() {
        let vals: Vec<Fq> = masked.vals[j].iter().map(|v| Fq::from_u64(*v)).collect();
        let ic = c.b.instance(&vals);
        c.b.copy_region_to_instance(&masked, *col, ic);
        instance.push(pad_instance(vals, masked.cap));
    }
    let output_cap = masked.cap;
    let lookup = |name: &str| db.table(name).map(|t| t.schema.clone()).unwrap_or_default();
    let output_names = plan
        .schema(&lookup)
        .columns
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let scan_columns = b.scan_advice.clone();
    let (cs, asn) = b.finish();
    Ok(CompiledQuery {
        cs,
        asn,
        instance,
        output_cap,
        output_names,
        scan_columns,
    })
}

fn pad_instance(mut v: Vec<Fq>, cap: usize) -> Vec<Fq> {
    v.resize(cap, Fq::ZERO);
    v
}

impl Builder {
    /// Copy a whole region column into an instance column, row by row.
    fn copy_region_to_instance(&mut self, region: &Region, from: Column, to: Column) {
        for r in 0..region.cap {
            self.copy(
                Cell {
                    column: from,
                    row: r,
                },
                Cell { column: to, row: r },
            );
        }
    }
}

struct Compiler<'a> {
    b: &'a mut Builder,
    db: &'a Database,
    gates: GateSet,
}

impl<'a> Compiler<'a> {
    fn node(&mut self, plan: &Plan, trace: Option<&Executed>) -> Result<Region, String> {
        if let Some(t) = trace {
            if t.plan.op_name() != plan.op_name() {
                return Err("trace does not match plan".to_string());
            }
        }
        match plan {
            Plan::Scan { table } => self.scan(table, trace),
            Plan::Filter { input, predicates } => {
                let child = self.node(input, trace.map(|t| &t.children[0]))?;
                self.filter(&child, predicates)
            }
            Plan::Project { input, exprs } => {
                let child = self.node(input, trace.map(|t| &t.children[0]))?;
                self.project(&child, exprs)
            }
            Plan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = self.node(left, trace.map(|t| &t.children[0]))?;
                let r = self.node(right, trace.map(|t| &t.children[1]))?;
                self.join(&l, &r, *left_key, *right_key)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let child = self.node(input, trace.map(|t| &t.children[0]))?;
                self.aggregate(&child, group_by, aggs)
            }
            Plan::Sort { input, keys } => {
                let child = self.node(input, trace.map(|t| &t.children[0]))?;
                self.sort(&child, keys, self.gates.sorts)
            }
            Plan::Limit { input, n } => {
                let child = self.node(input, trace.map(|t| &t.children[0]))?;
                self.limit(&child, *n)
            }
        }
    }

    // --------------------------------------------------------------
    // Scan
    // --------------------------------------------------------------
    fn scan(&mut self, table: &str, trace: Option<&Executed>) -> Result<Region, String> {
        let t = self
            .db
            .table(table)
            .ok_or_else(|| format!("unknown table {table}"))?;
        let cap = t.len().max(1);
        let q = self.b.selector(cap);
        // The one place structure and witness compiles differ: without a
        // trace the scan yields empty columns, and every later witness
        // computation maps empty inputs to empty outputs.
        let rows = if trace.is_some() { cap } else { 0 };
        let mut vals = Vec::with_capacity(t.schema.width());
        let mut cols = Vec::with_capacity(t.schema.width());
        for c in &t.cols {
            let v: Vec<u64> = c
                .iter()
                .map(|x| encode(*x))
                .chain(std::iter::repeat(0))
                .take(rows)
                .collect();
            let col = self.b.advice_u64(&v);
            self.b.scan_advice.push(col.index);
            cols.push(col);
            vals.push(v);
        }
        let reals: Vec<bool> = (0..rows).map(|r| r < t.len()).collect();
        let real = self.b.advice_bits(&reals);
        // A nonempty table fills its whole region (`cap == t.len()`), so a
        // single clause pins `real = 1` on every data row; an empty table
        // occupies one all-dummy row whose real bit must be 0. Emitting only
        // the live clause keeps the gate free of identically-zero
        // polynomials (which the static analyzer rightly denies).
        let clause = if !t.is_empty() {
            Expression::fixed(q.index)
                * (Expression::advice(real.index) - Expression::Constant(Fq::ONE))
        } else {
            Expression::fixed(q.index) * Expression::advice(real.index)
        };
        self.b.cs.create_gate("scan-real", vec![clause]);
        Ok(Region {
            cols,
            real,
            q,
            cap,
            vals,
            reals,
        })
    }

    // --------------------------------------------------------------
    // Filter (range-check gates, Designs A–D)
    // --------------------------------------------------------------
    fn filter(&mut self, input: &Region, predicates: &[Predicate]) -> Result<Region, String> {
        let cap = input.cap;
        let q = input.q;
        let mut acc_expr = Expression::advice(input.real.index);
        let mut acc_vals: Vec<bool> = input.reals.clone();
        for p in predicates {
            // (bit expression, witness bits)
            let (bit_expr, bit_vals): (Expression<Fq>, Vec<bool>) = match p {
                Predicate::ColConst { col, op, value } => {
                    let x = input.cols[*col];
                    let xv = &input.vals[*col];
                    let v = encode(*value);
                    let t = self.b.fixed_const(cap, Fq::from_u64(v));
                    let tv = vec![v; xv.len()];
                    self.cmp_bit(q, cap, x, xv, t, &tv, *op)
                }
                Predicate::ColCol { left, op, right } => {
                    let x = input.cols[*left];
                    let xv = input.vals[*left].clone();
                    let t = input.cols[*right];
                    let tv = input.vals[*right].clone();
                    self.cmp_bit(q, cap, x, &xv, t, &tv, *op)
                }
            };
            let next_vals: Vec<bool> = acc_vals
                .iter()
                .zip(&bit_vals)
                .map(|(a, b)| *a && *b)
                .collect();
            let out = if self.gates.filters {
                self.b
                    .product(q, acc_expr.clone(), bit_expr, &bits(&next_vals))
            } else {
                self.b.advice_bits(&next_vals)
            };
            acc_expr = Expression::advice(out.index);
            acc_vals = next_vals;
        }
        let real = match acc_expr {
            Expression::Var(qr) => qr.column,
            _ => input.real, // no predicates
        };
        Ok(Region {
            cols: input.cols.clone(),
            real,
            q,
            cap,
            vals: input.vals.clone(),
            reals: acc_vals,
        })
    }

    /// A comparison predicate bit as an expression (possibly negated LT).
    #[allow(clippy::too_many_arguments)]
    fn cmp_bit(
        &mut self,
        q: Column,
        cap: usize,
        x: Column,
        xv: &[u64],
        t: Column,
        tv: &[u64],
        op: CmpOp,
    ) -> (Expression<Fq>, Vec<bool>) {
        let one = Expression::Constant(Fq::ONE);
        if !self.gates.filters {
            // Witness-only path: allocate a free bit column (no constraints)
            // so that column counts match the gated circuit.
            let vals: Vec<bool> = xv
                .iter()
                .zip(tv)
                .map(|(a, b)| op.apply(*a as i64, *b as i64))
                .collect();
            let col = self.b.advice_bits(&vals);
            return (Expression::advice(col.index), vals);
        }
        match op {
            CmpOp::Lt => {
                let bit = self.b.lt_gadget(q, cap, x, xv, t, tv, 0);
                (Expression::advice(bit.col.index), bit.vals)
            }
            CmpOp::Le => {
                let bit = self.b.lt_gadget(q, cap, x, xv, t, tv, 1);
                (Expression::advice(bit.col.index), bit.vals)
            }
            CmpOp::Ge => {
                let bit = self.b.lt_gadget(q, cap, x, xv, t, tv, 0);
                let neg: Vec<bool> = bit.vals.iter().map(|v| !v).collect();
                (one - Expression::advice(bit.col.index), neg)
            }
            CmpOp::Gt => {
                let bit = self.b.lt_gadget(q, cap, x, xv, t, tv, 1);
                let neg: Vec<bool> = bit.vals.iter().map(|v| !v).collect();
                (one - Expression::advice(bit.col.index), neg)
            }
            CmpOp::Eq => {
                let bit = self.b.eq_gadget(q, x, xv, t, tv);
                (Expression::advice(bit.col.index), bit.vals)
            }
            CmpOp::Ne => {
                let bit = self.b.eq_gadget(q, x, xv, t, tv);
                let neg: Vec<bool> = bit.vals.iter().map(|v| !v).collect();
                (one - Expression::advice(bit.col.index), neg)
            }
        }
    }

    // --------------------------------------------------------------
    // Project (arithmetic, division, CASE, EXTRACT-YEAR gates; §4.5)
    // --------------------------------------------------------------
    fn project(
        &mut self,
        input: &Region,
        exprs: &[(String, ScalarExpr)],
    ) -> Result<Region, String> {
        let mut cols = Vec::with_capacity(exprs.len());
        let mut vals = Vec::with_capacity(exprs.len());
        for (_, e) in exprs {
            let (col, v) = self.scalar_column(input, e)?;
            cols.push(col);
            vals.push(v);
        }
        Ok(Region {
            cols,
            real: input.real,
            q: input.q,
            cap: input.cap,
            vals,
            reals: input.reals.clone(),
        })
    }

    /// Compile a scalar expression to a *column* (pass-through for plain
    /// column references).
    fn scalar_column(
        &mut self,
        input: &Region,
        e: &ScalarExpr,
    ) -> Result<(Column, Vec<u64>), String> {
        if let ScalarExpr::Col(i) = e {
            return Ok((input.cols[*i], input.vals[*i].clone()));
        }
        let (expr, v) = self.scalar_expr(input, e)?;
        let fqv: Vec<Fq> = v.iter().map(|x| Fq::from_u64(*x)).collect();
        let col = self.b.advice(&fqv);
        self.b.cs.create_gate(
            "project",
            vec![Expression::fixed(input.q.index) * (Expression::advice(col.index) - expr)],
        );
        Ok((col, v))
    }

    /// Compile a scalar expression to a degree-≤1 expression plus values.
    fn scalar_expr(
        &mut self,
        input: &Region,
        e: &ScalarExpr,
    ) -> Result<(Expression<Fq>, Vec<u64>), String> {
        let cap = input.cap;
        match e {
            ScalarExpr::Col(i) => Ok((
                Expression::advice(input.cols[*i].index),
                input.vals[*i].clone(),
            )),
            ScalarExpr::Const(v) => {
                let enc = encode(*v);
                Ok((
                    Expression::Constant(Fq::from_u64(enc)),
                    vec![enc; input.reals.len()],
                ))
            }
            ScalarExpr::Add(a, bx) => {
                let (ea, va) = self.scalar_expr(input, a)?;
                let (eb, vb) = self.scalar_expr(input, bx)?;
                let v: Vec<u64> = va.iter().zip(&vb).map(|(x, y)| x + y).collect();
                Ok((ea + eb, v))
            }
            ScalarExpr::Sub(a, bx) => {
                let (ea, va) = self.scalar_expr(input, a)?;
                let (eb, vb) = self.scalar_expr(input, bx)?;
                let v = va
                    .iter()
                    .zip(&vb)
                    .map(|(x, y)| {
                        x.checked_sub(*y)
                            .ok_or("negative intermediate in circuit expression")
                    })
                    .collect::<Result<_, _>>()?;
                Ok((ea - eb, v))
            }
            ScalarExpr::Mul(a, bx) => {
                let (ea, va) = self.scalar_expr(input, a)?;
                let (eb, vb) = self.scalar_expr(input, bx)?;
                let v: Vec<u64> = va
                    .iter()
                    .zip(&vb)
                    .map(|(x, y)| {
                        let p = (*x as u128) * (*y as u128);
                        if p < 1 << 63 {
                            Ok(p as u64)
                        } else {
                            Err("product overflow in circuit expression")
                        }
                    })
                    .collect::<Result<_, _>>()?;
                let fqv: Vec<Fq> = v.iter().map(|p| Fq::from_u64(*p)).collect();
                let out = self.b.product(input.q, ea, eb, &fqv);
                Ok((Expression::advice(out.index), v))
            }
            ScalarExpr::Div(a, bx) => {
                let (ea, va) = self.scalar_expr(input, a)?;
                let (eb, vb) = self.scalar_expr(input, bx)?;
                // Gated by `real`: dummy rows may hold zero divisors.
                let (qv, rv): (Vec<u64>, Vec<u64>) = va
                    .iter()
                    .zip(&vb)
                    .zip(&input.reals)
                    .map(|((n, d), real)| {
                        if *real && *d > 0 {
                            (n / d, n % d)
                        } else {
                            (0, 0)
                        }
                    })
                    .unzip();
                let quot = self.b.advice_u64(&qv);
                let rem = self.b.advice_u64(&rv);
                let qe = Expression::fixed(input.q.index);
                let re = Expression::advice(input.real.index);
                self.b.cs.create_gate(
                    "div",
                    vec![
                        qe * re.clone()
                            * (ea
                                - Expression::advice(quot.index) * eb.clone()
                                - Expression::advice(rem.index)),
                    ],
                );
                self.b.range_check(input.q, quot, VALUE_BYTES, &qv, cap);
                self.b.range_check(input.q, rem, VALUE_BYTES, &rv, cap);
                // real · (den − rem − 1) ∈ [0, 2^56)  ⇒  rem < den on real rows
                let slack_v: Vec<u64> = vb
                    .iter()
                    .zip(&rv)
                    .zip(&input.reals)
                    .map(|((d, r), real)| if *real { d - r - 1 } else { 0 })
                    .collect();
                let slack_fq: Vec<Fq> = slack_v.iter().map(|v| Fq::from_u64(*v)).collect();
                let slack = self.b.product(
                    input.q,
                    re,
                    eb - Expression::advice(rem.index) - Expression::Constant(Fq::ONE),
                    &slack_fq,
                );
                self.b
                    .range_check(input.q, slack, VALUE_BYTES, &slack_v, cap);
                Ok((Expression::advice(quot.index), qv))
            }
            ScalarExpr::CaseEq {
                col,
                value,
                then,
                otherwise,
            } => {
                let x = input.cols[*col];
                let xv = input.vals[*col].clone();
                let v = encode(*value);
                let t = self.b.fixed_const(cap, Fq::from_u64(v));
                let tv = vec![v; xv.len()];
                let bit = self.b.eq_gadget(input.q, x, &xv, t, &tv);
                let (et, vt) = self.scalar_expr(input, then)?;
                let (eo, vo) = self.scalar_expr(input, otherwise)?;
                let outv: Vec<u64> = bit
                    .vals
                    .iter()
                    .zip(vt.iter().zip(&vo))
                    .map(|(b, (a, c))| if *b { *a } else { *c })
                    .collect();
                let out = self.b.advice_u64(&outv);
                // out = b·then + (1−b)·else
                let be = Expression::advice(bit.col.index);
                self.b.cs.create_gate(
                    "case-eq",
                    vec![
                        Expression::fixed(input.q.index)
                            * (Expression::advice(out.index)
                                - be.clone() * et
                                - (Expression::Constant(Fq::ONE) - be) * eo),
                    ],
                );
                Ok((Expression::advice(out.index), outv))
            }
            ScalarExpr::ExtractYear(inner) => {
                let (date_col, datev) = self.scalar_column(input, inner.as_ref())?;
                // Fixed (day, year) table over the public TPC-H date range.
                let lo = poneglyph_sql::epoch_days(1992, 1, 1);
                let hi = poneglyph_sql::epoch_days(1999, 1, 1);
                let days: Vec<(usize, Fq)> = (lo..=hi)
                    .enumerate()
                    .map(|(i, d)| (i, Fq::from_u64(d as u64)))
                    .collect();
                let years: Vec<(usize, Fq)> = (lo..=hi)
                    .enumerate()
                    .map(|(i, d)| (i, Fq::from_u64(poneglyph_sql::year_of_epoch_days(d) as u64)))
                    .collect();
                let day_col = self.b.fixed_values(&days);
                let year_col = self.b.fixed_values(&years);
                let year_table_q = self.b.selector((hi - lo + 1) as usize);
                let yearv: Vec<u64> = datev
                    .iter()
                    .zip(&input.reals)
                    .map(|(d, real)| {
                        if *real {
                            poneglyph_sql::year_of_epoch_days(*d as i64) as u64
                        } else {
                            0
                        }
                    })
                    .collect();
                let out = self.b.advice_u64(&yearv);
                let g = Expression::fixed(input.q.index) * Expression::advice(input.real.index);
                self.b.cs.add_lookup(
                    "extract-year",
                    vec![
                        g.clone() * Expression::advice(date_col.index),
                        g * Expression::advice(out.index),
                    ],
                    vec![
                        Expression::fixed(year_table_q.index) * Expression::fixed(day_col.index),
                        Expression::fixed(year_table_q.index) * Expression::fixed(year_col.index),
                    ],
                );
                Ok((Expression::advice(out.index), yearv))
            }
        }
    }

    // --------------------------------------------------------------
    // Sort (paper §4.2: shuffle + adjacent range checks)
    // --------------------------------------------------------------
    /// Sort `input` by `keys`; `gated` emits the shuffle and sortedness
    /// constraints (`GateSet::sorts` for ORDER BY, `GateSet::group_by` when
    /// grouping).
    fn sort(
        &mut self,
        input: &Region,
        keys: &[(usize, bool)],
        gated: bool,
    ) -> Result<Region, String> {
        let cap = input.cap;
        let q = input.q;

        // Witness: real rows sorted by keys, dummies (with their residual
        // values) appended.
        let (mut real_rows, dummy_rows): (Vec<usize>, Vec<usize>) =
            (0..input.reals.len()).partition(|r| input.reals[*r]);
        real_rows.sort_by(|&a, &b| {
            for (col, desc) in keys {
                let (va, vb) = (input.vals[*col][a], input.vals[*col][b]);
                let ord = va.cmp(&vb);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        });
        let order: Vec<usize> = real_rows.into_iter().chain(dummy_rows).collect();
        let out_vals: Vec<Vec<u64>> = input
            .vals
            .iter()
            .map(|v| order.iter().map(|r| v[*r]).collect())
            .collect();
        let out_reals: Vec<bool> = order.iter().map(|r| input.reals[*r]).collect();

        let mut out_cols = Vec::with_capacity(input.width());
        for v in &out_vals {
            out_cols.push(self.b.advice_u64(v));
        }
        let out_real = self.b.advice_bits(&out_reals);

        let region = Region {
            cols: out_cols.clone(),
            real: out_real,
            q,
            cap,
            vals: out_vals,
            reals: out_reals,
        };

        if gated {
            // Shuffle: full tuples including the real bit (Eq. 5).
            let qe = Expression::fixed(q.index);
            let mut lhs = vec![qe.clone() * Expression::advice(input.real.index)];
            let mut rhs = vec![qe.clone() * Expression::advice(out_real.index)];
            for (ic, oc) in input.cols.iter().zip(&out_cols) {
                lhs.push(qe.clone() * Expression::advice(ic.index));
                rhs.push(qe.clone() * Expression::advice(oc.index));
            }
            self.b.cs.add_shuffle("sort-perm", lhs, rhs);
            self.sortedness(&region, keys, false)?;
        }
        Ok(region)
    }

    /// Enforce that `region` is sorted by `keys` on its real prefix:
    /// descending real bits + gated composite-key ordering. With
    /// `strict = true` equal adjacent keys are rejected (used by the join's
    /// primary-key column).
    fn sortedness(
        &mut self,
        region: &Region,
        keys: &[(usize, bool)],
        strict: bool,
    ) -> Result<(), String> {
        let cap = region.cap;
        let q = region.q;
        let qe = Expression::fixed(q.index);
        // Real bits descending: (real − real_next) boolean on rows [0, cap−1).
        let q_pair = self.b.selector(cap.saturating_sub(1));
        let d = Expression::advice(region.real.index)
            - Expression::advice_at(region.real.index, Rotation::NEXT);
        self.b.cs.create_gate(
            "reals-descending",
            vec![Expression::fixed(q_pair.index) * (d.clone() * d.clone() - d)],
        );
        if keys.is_empty() {
            return Ok(());
        }
        // Composite key K = Σ w_j · adj(col_j); descending keys complemented.
        // The composite lives in the field and its byte decomposition spans
        // nk·7 bytes, so at most 4 attributes (224 bits < |F|) per sort.
        let nk = keys.len();
        if nk > 4 {
            return Err(format!(
                "composite sort keys support at most 4 attributes; got {nk}"
            ));
        }
        let bound = Fq::from_u64(VALUE_BOUND);
        let mut kexpr = Expression::Constant(Fq::ZERO);
        let mut weight = Fq::ONE;
        // least-significant last: iterate keys in reverse
        for (col, desc) in keys.iter().rev() {
            let ce = Expression::advice(region.cols[*col].index);
            let adj = if *desc {
                Expression::Constant(Fq::from_u64(MAX_VALUE)) - ce
            } else {
                ce
            };
            kexpr = kexpr + adj * weight;
            weight *= bound;
        }
        // 4-limb composite witness values (up to 224 bits).
        let kvals: Vec<WideVal> = (0..region.reals.len())
            .map(|r| {
                let mut acc = WideVal::ZERO;
                for (col, desc) in keys {
                    let v = region.vals[*col][r];
                    let adj = if *desc { MAX_VALUE - v } else { v };
                    acc = acc.shl56().add_small(adj);
                }
                acc
            })
            .collect();
        let kfq: Vec<Fq> = kvals.iter().map(|v| Fq::from_raw(v.0)).collect();
        let kcol = self.b.advice(&kfq);
        self.b.cs.create_gate(
            "sort-composite-key",
            vec![qe * (Expression::advice(kcol.index) - kexpr)],
        );
        // D = real_next · (K_next − K − strict) must be in [0, B^nk).
        let strict_off = if strict { Fq::ONE } else { Fq::ZERO };
        let dv: Vec<WideVal> = (0..kvals.len())
            .map(|r| {
                if region.reals.get(r + 1) == Some(&true) {
                    let mut hi = kvals[r + 1];
                    if strict {
                        hi = hi.sub(&WideVal::from_u64(1));
                    }
                    hi.sub(&kvals[r])
                } else {
                    WideVal::ZERO
                }
            })
            .collect();
        let dfq: Vec<Fq> = dv.iter().map(|v| Fq::from_raw(v.0)).collect();
        let dcol = self.b.advice(&dfq);
        self.b.cs.create_gate(
            "sort-ordered",
            vec![
                Expression::fixed(q_pair.index)
                    * (Expression::advice(dcol.index)
                        - Expression::advice_at(region.real.index, Rotation::NEXT)
                            * (Expression::advice_at(kcol.index, Rotation::NEXT)
                                - Expression::advice(kcol.index)
                                - Expression::Constant(strict_off))),
            ],
        );
        // Byte-decompose D over nk·7 bytes, with the lookup gated by q_pair.
        self.range_check_wide(q_pair, dcol, nk * VALUE_BYTES, &dv, cap);
        Ok(())
    }

    /// Byte decomposition for values up to 4 limbs wide (composite sort
    /// keys — the paper's fixed bit-length attribute concatenation).
    fn range_check_wide(
        &mut self,
        q: Column,
        col: Column,
        nbytes: usize,
        values: &[WideVal],
        cap: usize,
    ) {
        let mut byte_cols = Vec::with_capacity(nbytes);
        for i in 0..nbytes {
            let vals: Vec<u64> = values.iter().map(|v| v.byte(i) as u64).collect();
            byte_cols.push(self.b.advice_u64(&vals));
        }
        let mut recomposed = Expression::Constant(Fq::ZERO);
        let mut w = Fq::ONE;
        let two8 = Fq::from_u64(256);
        for bcol in &byte_cols {
            recomposed = recomposed + Expression::advice(bcol.index) * w;
            w *= two8;
        }
        self.b.cs.create_gate(
            "range-decompose-wide",
            vec![Expression::fixed(q.index) * (Expression::advice(col.index) - recomposed)],
        );
        for bcol in &byte_cols {
            self.b.cs.add_lookup(
                "u8",
                vec![Expression::fixed(q.index) * Expression::advice(bcol.index)],
                vec![Expression::fixed(self.b.byte_table.index)],
            );
        }
        self.b.need_rows(cap);
    }

    // --------------------------------------------------------------
    // Group-by + aggregation (paper §4.3/§4.5, Figure 5)
    // --------------------------------------------------------------
    fn aggregate(
        &mut self,
        input: &Region,
        group_by: &[usize],
        aggs: &[(String, poneglyph_sql::Aggregate)],
    ) -> Result<Region, String> {
        // Rewrite AVG into SUM/COUNT + a division projection.
        #[derive(Clone, Copy)]
        enum OutSpec {
            Direct(usize),
            Avg { sum: usize, count: usize },
        }
        let mut circuit_aggs: Vec<(AggFunc, ScalarExpr)> = Vec::new();
        let mut outs: Vec<OutSpec> = Vec::new();
        let mut count_slot: Option<usize> = None;
        for (_, a) in aggs {
            match a.func {
                AggFunc::Avg => {
                    let sum = circuit_aggs.len();
                    circuit_aggs.push((AggFunc::Sum, a.input.clone()));
                    let count = *count_slot.get_or_insert_with(|| {
                        circuit_aggs.push((AggFunc::Count, ScalarExpr::Const(1)));
                        circuit_aggs.len() - 1
                    });
                    outs.push(OutSpec::Avg { sum, count });
                }
                AggFunc::Count => {
                    let slot = *count_slot.get_or_insert_with(|| {
                        circuit_aggs.push((AggFunc::Count, ScalarExpr::Const(1)));
                        circuit_aggs.len() - 1
                    });
                    outs.push(OutSpec::Direct(slot));
                }
                f => {
                    circuit_aggs.push((f, a.input.clone()));
                    outs.push(OutSpec::Direct(circuit_aggs.len() - 1));
                }
            }
        }

        // 1. Materialize group keys + aggregate inputs.
        let mut pre_exprs: Vec<(String, ScalarExpr)> = group_by
            .iter()
            .map(|g| (format!("k{g}"), ScalarExpr::Col(*g)))
            .collect();
        for (i, (_, e)) in circuit_aggs.iter().enumerate() {
            pre_exprs.push((format!("a{i}"), e.clone()));
        }
        let mat = self.project(input, &pre_exprs)?;
        let nk = group_by.len();
        let na = circuit_aggs.len();

        // 2. Sort by (up to four of) the group keys so that equal key
        //    tuples end up adjacent; boundary detection below compares the
        //    *full* key tuple. For >4 keys the leading key must determine
        //    the rest (the compiler's callers guarantee this — Q18 puts the
        //    unique o_orderkey first).
        let sort_keys: Vec<(usize, bool)> = (0..nk.min(4)).map(|i| (i, false)).collect();
        let sorted = self.sort(&mat, &sort_keys, self.gates.group_by)?;

        let cap = sorted.cap;
        let n = sorted.reals.len();
        let q = sorted.q;
        let qe = Expression::fixed(q.index);
        let q_rest = self.b.selector_range(1, cap); // rows [1, cap)
        let q0 = self.b.selector_single(0);

        // 3. Boundary detection: same_r = [row r has the same real bit and
        //    group keys as row r−1], via per-attribute eq-prev gates
        //    (Eqs. 6/7) chained with product gates. Dummy rows share a real
        //    bit of 0 and thus form their own trailing group.
        let same_vals: Vec<bool> = (0..n)
            .map(|r| {
                r > 0
                    && sorted.reals[r] == sorted.reals[r - 1]
                    && (0..nk).all(|kc| sorted.vals[kc][r] == sorted.vals[kc][r - 1])
            })
            .collect();
        let same = if self.gates.group_by {
            let mut acc = self
                .b
                .eq_prev_gadget(q_rest, sorted.real, &bits(&sorted.reals));
            for kc in 0..nk {
                let kv: Vec<Fq> = sorted.vals[kc].iter().map(|v| Fq::from_u64(*v)).collect();
                let bit = self.b.eq_prev_gadget(q_rest, sorted.cols[kc], &kv);
                let vals: Vec<bool> = acc
                    .vals
                    .iter()
                    .zip(&bit.vals)
                    .map(|(a, b)| *a && *b)
                    .collect();
                let col = self.b.product(
                    q,
                    Expression::advice(acc.col.index),
                    Expression::advice(bit.col.index),
                    &bits(&vals),
                );
                acc = BitCol { col, vals };
            }
            // row 0 is always a boundary
            self.b.cs.create_gate(
                "group-first-boundary",
                vec![Expression::fixed(q0.index) * Expression::advice(acc.col.index)],
            );
            acc.col
        } else {
            self.b.advice_bits(&same_vals)
        };

        // 4. Running aggregates.
        let mut run_cols: Vec<Column> = Vec::with_capacity(na);
        let mut run_vals: Vec<Vec<u64>> = Vec::with_capacity(na);
        for (ai, (func, _)) in circuit_aggs.iter().enumerate() {
            let vcol = sorted.cols[nk + ai];
            let vexpr = Expression::advice(vcol.index);
            let re = Expression::advice(sorted.real.index);
            match func {
                AggFunc::Sum | AggFunc::Count => {
                    // contribution = real·v (or real for COUNT)
                    let contrib_expr = if matches!(func, AggFunc::Count) {
                        re.clone()
                    } else {
                        re.clone() * vexpr.clone()
                    };
                    let mut mu = Vec::with_capacity(n);
                    let mut acc: u64 = 0;
                    for (r, &same_r) in same_vals.iter().enumerate() {
                        let contrib = if sorted.reals[r] {
                            if matches!(func, AggFunc::Count) {
                                1
                            } else {
                                sorted.vals[nk + ai][r]
                            }
                        } else {
                            0
                        };
                        acc = if r > 0 && same_r { acc } else { 0 } + contrib;
                        mu.push(acc);
                    }
                    let mcol = self.b.advice_u64(&mu);
                    if self.gates.aggregates {
                        let me = Expression::advice(mcol.index);
                        let mprev = Expression::advice_at(mcol.index, Rotation::PREV);
                        self.b.cs.create_gate(
                            "agg-running-sum",
                            vec![
                                Expression::fixed(q_rest.index)
                                    * (me.clone()
                                        - Expression::advice(same.index) * mprev
                                        - contrib_expr.clone()),
                                Expression::fixed(q0.index) * (me - contrib_expr),
                            ],
                        );
                    }
                    run_cols.push(mcol);
                    run_vals.push(mu);
                }
                AggFunc::Min | AggFunc::Max => {
                    let is_min = matches!(func, AggFunc::Min);
                    // T = M_{r−1}; c = [v < T] (min) / [T < v] (max);
                    // M = same·(c ? v : T) + (1−same)·v
                    let mut mu = Vec::with_capacity(n);
                    let mut tu = Vec::with_capacity(n);
                    let mut acc: u64 = 0;
                    for (r, &same_r) in same_vals.iter().enumerate() {
                        let v = sorted.vals[nk + ai][r];
                        tu.push(acc);
                        acc = if r > 0 && same_r {
                            if is_min {
                                acc.min(v)
                            } else {
                                acc.max(v)
                            }
                        } else {
                            v
                        };
                        mu.push(acc);
                    }
                    let tcol = self.b.advice_u64(&tu);
                    // The carry gate T = M_{r−1} needs the M column, which is
                    // allocated after the comparison gadget; it is inserted
                    // at this position once M exists.
                    let carry_slot = self.b.cs.gates.len();
                    let (x, xv, t, tv) = if is_min {
                        (vcol, sorted.vals[nk + ai].clone(), tcol, tu.clone())
                    } else {
                        (tcol, tu.clone(), vcol, sorted.vals[nk + ai].clone())
                    };
                    let cbit = if self.gates.aggregates {
                        self.b.lt_gadget(q, cap, x, &xv, t, &tv, 0)
                    } else {
                        BitCol {
                            col: self.b.advice(&[]),
                            vals: Vec::new(),
                        }
                    };
                    let mcol = self.b.advice_u64(&mu);
                    if self.gates.aggregates {
                        self.b.cs.gates.insert(
                            carry_slot,
                            Gate {
                                name: "agg-prev-carry".into(),
                                polys: vec![
                                    Expression::fixed(q_rest.index)
                                        * (Expression::advice(tcol.index)
                                            - Expression::advice_at(mcol.index, Rotation::PREV)),
                                ],
                            },
                        );
                        let se = Expression::advice(same.index);
                        let ce = Expression::advice(cbit.col.index);
                        let te = Expression::advice(tcol.index);
                        // min: c = [v < T], max: c = [T < v]; either way c picks v
                        let picked =
                            ce.clone() * vexpr.clone() + (Expression::Constant(Fq::ONE) - ce) * te;
                        self.b.cs.create_gate(
                            "agg-running-minmax",
                            vec![
                                qe.clone()
                                    * (Expression::advice(mcol.index)
                                        - se.clone() * picked
                                        - (Expression::Constant(Fq::ONE) - se) * vexpr.clone()),
                            ],
                        );
                    }
                    run_cols.push(mcol);
                    run_vals.push(mu);
                }
                AggFunc::Avg => unreachable!("avg rewritten"),
            }
        }

        // 5. End-of-group bits and output shuffle.
        let evals: Vec<bool> = (0..n)
            .map(|r| sorted.reals[r] && (r + 1 == n || !same_vals[r + 1]))
            .collect();
        let ecol = self.b.advice_bits(&evals);
        if self.gates.group_by {
            let q_pair = self.b.selector(cap.saturating_sub(1));
            let q_lastrow = self.b.selector_single(cap - 1);
            let re = Expression::advice(sorted.real.index);
            self.b.cs.create_gate(
                "group-end",
                vec![
                    Expression::fixed(q_pair.index)
                        * (Expression::advice(ecol.index)
                            - re.clone()
                                * (Expression::Constant(Fq::ONE)
                                    - Expression::advice_at(same.index, Rotation::NEXT))),
                    Expression::fixed(q_lastrow.index) * (Expression::advice(ecol.index) - re),
                ],
            );
        }

        // Output region: group keys + aggregate results, compacted.
        let mut out_vals: Vec<Vec<u64>> = vec![Vec::new(); nk + na];
        let (key_cols, agg_cols) = out_vals.split_at_mut(nk);
        for (r, &emit) in evals.iter().enumerate() {
            if emit {
                for (col, src) in key_cols.iter_mut().zip(&sorted.vals) {
                    col.push(src[r]);
                }
                for (col, src) in agg_cols.iter_mut().zip(&run_vals) {
                    col.push(src[r]);
                }
            }
        }
        let groups = out_vals.first().map(|c| c.len()).unwrap_or(0);
        let mut out_reals = vec![true; groups];
        for c in out_vals.iter_mut() {
            c.resize(n, 0);
        }
        out_reals.resize(n, false);
        let mut out_cols = Vec::with_capacity(nk + na);
        for v in &out_vals {
            out_cols.push(self.b.advice_u64(v));
        }
        let out_real = self.b.advice_bits(&out_reals);
        if self.gates.group_by {
            // (E, E·key…, E·M…)  ≡  (real', key'·real'?, …): output dummy
            // rows are all-zero, so mask the output by real' as well.
            let ee = Expression::advice(ecol.index);
            let oe = Expression::advice(out_real.index);
            let mut lhs = vec![qe.clone() * ee.clone()];
            let mut rhs = vec![qe.clone() * oe.clone()];
            for (sc, oc) in sorted.cols.iter().zip(&out_cols).take(nk) {
                lhs.push(qe.clone() * (ee.clone() * Expression::advice(sc.index)));
                rhs.push(qe.clone() * (oe.clone() * Expression::advice(oc.index)));
            }
            for ac in 0..na {
                lhs.push(qe.clone() * (ee.clone() * Expression::advice(run_cols[ac].index)));
                rhs.push(qe.clone() * (oe.clone() * Expression::advice(out_cols[nk + ac].index)));
            }
            self.b.cs.add_shuffle("group-output", lhs, rhs);
            // out dummy rows must hold zeros so the masked tuples match:
            // (1−real')·col = 0
            for c in &out_cols {
                self.b.cs.create_gate(
                    "group-output-zeros",
                    vec![
                        qe.clone()
                            * ((Expression::Constant(Fq::ONE) - oe.clone())
                                * Expression::advice(c.index)),
                    ],
                );
            }
            // real' boolean
            self.b.cs.create_gate(
                "group-real-bool",
                vec![qe.clone() * (oe.clone() * oe.clone() - oe)],
            );
        }
        let grouped = Region {
            cols: out_cols,
            real: out_real,
            q,
            cap,
            vals: out_vals,
            reals: out_reals,
        };

        // 6. Output projection mapping (incl. AVG divisions).
        let proj: Vec<(String, ScalarExpr)> = (0..nk)
            .map(|i| (format!("k{i}"), ScalarExpr::Col(i)))
            .chain(outs.iter().enumerate().map(|(i, o)| {
                let e = match o {
                    OutSpec::Direct(a) => ScalarExpr::Col(nk + a),
                    OutSpec::Avg { sum, count } => ScalarExpr::Div(
                        Box::new(ScalarExpr::Col(nk + sum)),
                        Box::new(ScalarExpr::Col(nk + count)),
                    ),
                };
                (format!("o{i}"), e)
            }))
            .collect();
        self.project(&grouped, &proj)
    }

    // --------------------------------------------------------------
    // PK–FK join (paper §4.4, Figure 6)
    // --------------------------------------------------------------
    fn join(
        &mut self,
        left: &Region,
        right: &Region,
        left_key: usize,
        right_key: usize,
    ) -> Result<Region, String> {
        let cap = left.cap;
        let q = left.q;
        let qe = Expression::fixed(q.index);

        // Witness: match left rows against unique right keys.
        let mut right_index: HashMap<u64, usize> = HashMap::new();
        for (r, real) in right.reals.iter().enumerate() {
            if *real {
                let k = right.vals[right_key][r];
                if k == 0 || k >= MAX_VALUE {
                    return Err(format!("join key {k} outside (0, 2^56-1)"));
                }
                if right_index.insert(k, r).is_some() {
                    return Err("join PK side not unique".to_string());
                }
            }
        }
        let mut sorted_keys: Vec<u64> = right_index.keys().copied().collect();
        sorted_keys.sort_unstable();

        let hits: Vec<Option<usize>> = left.vals[left_key]
            .iter()
            .map(|k| right_index.get(k).copied())
            .collect();
        let m_vals: Vec<bool> = hits.iter().map(Option::is_some).collect();
        let out_reals: Vec<bool> = left
            .reals
            .iter()
            .zip(&m_vals)
            .map(|(l, m)| *l && *m)
            .collect();
        let joined_vals: Vec<Vec<u64>> = right
            .vals
            .iter()
            .map(|src| {
                hits.iter()
                    .zip(&out_reals)
                    .map(|(hit, matched)| match hit {
                        Some(rr) if *matched => src[*rr],
                        _ => 0,
                    })
                    .collect()
            })
            .collect();

        let mcol = self.b.advice_bits(&m_vals);
        let mut jcols = Vec::with_capacity(right.width());
        for v in &joined_vals {
            jcols.push(self.b.advice_u64(v));
        }
        let out_real = if self.gates.joins {
            self.b.product(
                q,
                Expression::advice(left.real.index),
                Expression::advice(mcol.index),
                &bits(&out_reals),
            )
        } else {
            self.b.advice_bits(&out_reals)
        };

        if self.gates.joins {
            // m boolean.
            let me = Expression::advice(mcol.index);
            self.b.cs.create_gate(
                "join-match-bool",
                vec![qe.clone() * (me.clone() * me.clone() - me)],
            );
            // Equality: real_out · (left_key − joined_key) = 0.
            self.b.cs.create_gate(
                "join-key-eq",
                vec![
                    qe.clone()
                        * Expression::advice(out_real.index)
                        * (Expression::advice(left.cols[left_key].index)
                            - Expression::advice(jcols[right_key].index)),
                ],
            );
            // Source verification: joined tuple ∈ real right rows.
            let oe = Expression::advice(out_real.index);
            let rr = Expression::advice(right.real.index);
            let rq = Expression::fixed(right.q.index);
            let mut lhs = vec![qe.clone() * oe.clone()];
            let mut rhs = vec![rq.clone() * rr.clone()];
            for (jc, rc) in jcols.iter().zip(&right.cols) {
                lhs.push(qe.clone() * (oe.clone() * Expression::advice(jc.index)));
                rhs.push(rq.clone() * (rr.clone() * Expression::advice(rc.index)));
            }
            self.b.cs.add_lookup("join-source", lhs, rhs);
            // Completeness: unmatched real left rows prove non-membership
            // through the sorted unique key column (strict sort = dedup).
            self.join_completeness(
                left,
                right,
                left_key,
                right_key,
                mcol,
                &m_vals,
                &sorted_keys,
            )?;
        }

        let mut cols = left.cols.clone();
        cols.extend(jcols);
        let mut vals = left.vals.clone();
        vals.extend(joined_vals);
        Ok(Region {
            cols,
            real: out_real,
            q,
            cap,
            vals,
            reals: out_reals,
        })
    }

    /// The join completeness argument: a sorted, strictly-increasing column
    /// of all real right keys (plus 0 / MAX sentinels) is proven to be a
    /// permutation of the right keys; every unmatched real left row supplies
    /// an adjacent pair `(lo, hi)` with `lo < key < hi`.
    #[allow(clippy::too_many_arguments)]
    fn join_completeness(
        &mut self,
        left: &Region,
        right: &Region,
        left_key: usize,
        right_key: usize,
        mcol: Column,
        m_vals: &[bool],
        sorted_keys: &[u64],
    ) -> Result<(), String> {
        let sk_cap = right.cap + 2;
        let q_sk = self.b.selector(sk_cap);
        // Sentinel source rows live directly after the right region.
        let sent = self.b.fixed_values(&[
            (right.cap, Fq::ZERO),
            (right.cap + 1, Fq::from_u64(MAX_VALUE)),
        ]);
        let q_sent = {
            let col = self.b.cs.fixed_column();
            self.b.write_fixed(col, right.cap, Fq::ONE);
            self.b.write_fixed(col, right.cap + 1, Fq::ONE);
            col
        };
        // SK region witness: 0, sorted keys, MAX, dummies. Its sentinels are
        // not computed from the right region's rows, so this is the one
        // lowering that checks its input for emptiness.
        let (sk_vals, sk_reals): (Vec<u64>, Vec<bool>) = if right.reals.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let mut v = vec![0u64];
            v.extend_from_slice(sorted_keys);
            v.push(MAX_VALUE);
            let mut reals = vec![true; v.len()];
            v.resize(sk_cap, 0);
            reals.resize(sk_cap, false);
            (v, reals)
        };
        let sk = self.b.advice_u64(&sk_vals);
        let sk_real = self.b.advice_bits(&sk_reals);
        // Shuffle: {(real_R, real_R·key_R)} ∪ sentinels = {(sk_real, sk_real·sk)}.
        let rq = Expression::fixed(right.q.index);
        let rr = Expression::advice(right.real.index);
        let sentq = Expression::fixed(q_sent.index);
        let lhs = vec![
            rq.clone() * rr.clone() + sentq.clone(),
            rq * (rr * Expression::advice(right.cols[right_key].index))
                + sentq * Expression::fixed(sent.index),
        ];
        let ske = Expression::fixed(q_sk.index);
        let rhs = vec![
            ske.clone() * Expression::advice(sk_real.index),
            ske * (Expression::advice(sk_real.index) * Expression::advice(sk.index)),
        ];
        self.b.cs.add_shuffle("join-sk-perm", lhs, rhs);

        // Strict sortedness of the SK region (dedup + order).
        let sk_region = Region {
            cols: vec![sk],
            real: sk_real,
            q: q_sk,
            cap: sk_cap,
            vals: vec![sk_vals.clone()],
            reals: sk_reals.clone(),
        };
        self.sortedness(&sk_region, &[(0, false)], true)?;

        // PAIROK = sk_real · sk_real(next) materialized for the pair table.
        let q_skpair = self.b.selector(sk_cap.saturating_sub(1));
        let pair_vals: Vec<bool> = (0..sk_reals.len())
            .map(|r| sk_reals[r] && sk_reals.get(r + 1) == Some(&true))
            .collect();
        let pairok = self.b.advice_bits(&pair_vals);
        self.b.cs.create_gate(
            "join-pairok",
            vec![
                Expression::fixed(q_skpair.index)
                    * (Expression::advice(pairok.index)
                        - Expression::advice(sk_real.index)
                            * Expression::advice_at(sk_real.index, Rotation::NEXT)),
                // beyond the pair range the column must be zero
                (Expression::fixed(q_sk.index) - Expression::fixed(q_skpair.index))
                    * Expression::advice(pairok.index),
            ],
        );

        // NM = real_L · (1 − m) and the neighbor witnesses lo/hi.
        let cap = left.cap;
        let nm_vals: Vec<bool> = left
            .reals
            .iter()
            .zip(m_vals)
            .map(|(real, m)| *real && !*m)
            .collect();
        let nm = self.b.product(
            left.q,
            Expression::advice(left.real.index),
            Expression::Constant(Fq::ONE) - Expression::advice(mcol.index),
            &bits(&nm_vals),
        );
        let (lo_vals, hi_vals): (Vec<u64>, Vec<u64>) = nm_vals
            .iter()
            .zip(&left.vals[left_key])
            .map(|(nm, k)| {
                if *nm {
                    // neighbors in 0 ∪ sorted_keys ∪ MAX
                    let idx = sorted_keys.partition_point(|v| v < k);
                    let lo = if idx == 0 { 0 } else { sorted_keys[idx - 1] };
                    let hi = if idx == sorted_keys.len() {
                        MAX_VALUE
                    } else {
                        sorted_keys[idx]
                    };
                    (lo, hi)
                } else {
                    (0, 0)
                }
            })
            .unzip();
        let lo = self.b.advice_u64(&lo_vals);
        let hi = self.b.advice_u64(&hi_vals);
        // Pair lookup: (NM, NM·lo, NM·hi) ∈ (PAIROK, PAIROK·sk, PAIROK·sk_next).
        let qe = Expression::fixed(left.q.index);
        let nme = Expression::advice(nm.index);
        let ske2 = Expression::fixed(q_skpair.index);
        self.b.cs.add_lookup(
            "join-neighbors",
            vec![
                qe.clone() * nme.clone(),
                qe.clone() * (nme.clone() * Expression::advice(lo.index)),
                qe.clone() * (nme.clone() * Expression::advice(hi.index)),
            ],
            vec![
                ske2.clone() * Expression::advice(pairok.index),
                ske2.clone() * (Expression::advice(pairok.index) * Expression::advice(sk.index)),
                ske2 * (Expression::advice(pairok.index)
                    * Expression::advice_at(sk.index, Rotation::NEXT)),
            ],
        );
        // Gated range checks: NM·(key − lo − 1) and NM·(hi − key − 1) ∈ [0, 2^56).
        for (a, bexpr, av) in [
            (
                left.vals[left_key].clone(),
                Expression::advice(left.cols[left_key].index)
                    - Expression::advice(lo.index)
                    - Expression::Constant(Fq::ONE),
                lo_vals.clone(),
            ),
            (
                hi_vals.clone(),
                Expression::advice(hi.index)
                    - Expression::advice(left.cols[left_key].index)
                    - Expression::Constant(Fq::ONE),
                left.vals[left_key].clone(),
            ),
        ] {
            let dv: Vec<u64> = (0..nm_vals.len())
                .map(|r| if nm_vals[r] { a[r] - av[r] - 1 } else { 0 })
                .collect();
            let dfq: Vec<Fq> = dv.iter().map(|v| Fq::from_u64(*v)).collect();
            let dcol = self.b.product(left.q, nme.clone(), bexpr, &dfq);
            self.b.range_check(left.q, dcol, VALUE_BYTES, &dv, cap);
        }
        Ok(())
    }

    // --------------------------------------------------------------
    // Limit
    // --------------------------------------------------------------
    fn limit(&mut self, input: &Region, n: usize) -> Result<Region, String> {
        let cap = n.min(input.cap).max(1);
        // The limit region truncates to the first `cap` rows (the input is
        // compacted real-first by the preceding sort).
        let q = self.b.selector(cap);
        let reals: Vec<bool> = input.reals.iter().take(cap).copied().collect();
        let real = self.b.advice_bits(&reals);
        // real_out = real_in row-wise on the kept prefix (copy constraints).
        for r in 0..cap {
            self.b.copy(
                Cell {
                    column: input.real,
                    row: r,
                },
                Cell {
                    column: real,
                    row: r,
                },
            );
        }
        let vals: Vec<Vec<u64>> = input
            .vals
            .iter()
            .map(|v| v.iter().take(cap).copied().collect())
            .collect();
        Ok(Region {
            cols: input.cols.clone(),
            real,
            q,
            cap,
            vals,
            reals,
        })
    }

    // --------------------------------------------------------------
    // Output masking (prevents dummy-row leakage into the instance)
    // --------------------------------------------------------------
    fn mask_output(&mut self, input: &Region) -> Region {
        let cap = input.cap;
        let mut cols = Vec::with_capacity(input.width());
        let mut vals = Vec::with_capacity(input.width());
        for (c, v) in input.cols.iter().zip(&input.vals) {
            let mu: Vec<u64> = v
                .iter()
                .zip(&input.reals)
                .map(|(v, real)| if *real { *v } else { 0 })
                .collect();
            let mv: Vec<Fq> = mu.iter().map(|v| Fq::from_u64(*v)).collect();
            let out = self.b.product(
                input.q,
                Expression::advice(input.real.index),
                Expression::advice(c.index),
                &mv,
            );
            cols.push(out);
            vals.push(mu);
        }
        Region {
            cols,
            real: input.real,
            q: input.q,
            cap,
            vals,
            reals: input.reals.clone(),
        }
    }
}

/// A little 4-limb unsigned integer for composite sort keys (up to 224
/// bits: 4 attributes × 56 bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WideVal(pub [u64; 4]);

impl WideVal {
    const ZERO: WideVal = WideVal([0; 4]);

    fn from_u64(v: u64) -> Self {
        WideVal([v, 0, 0, 0])
    }

    /// Shift left by 56 bits (one attribute slot).
    fn shl56(&self) -> Self {
        let mut out = [0u64; 4];
        // 56 = 64 - 8: limb i contributes its top 8 bits to limb i+1.
        for i in (0..4).rev() {
            let lo = self.0[i] << 56;
            let hi = self.0[i] >> 8;
            if i + 1 < 4 {
                out[i + 1] |= hi;
            } else {
                assert_eq!(hi, 0, "composite key overflow");
            }
            out[i] |= lo;
        }
        WideVal(out)
    }

    /// Add a value below 2^56.
    fn add_small(&self, v: u64) -> Self {
        let mut out = self.0;
        let (r, mut carry) = out[0].overflowing_add(v);
        out[0] = r;
        for limb in out.iter_mut().skip(1) {
            if !carry {
                break;
            }
            let (r, c) = limb.overflowing_add(1);
            *limb = r;
            carry = c;
        }
        assert!(!carry, "composite key overflow");
        WideVal(out)
    }

    /// Subtraction (panics if the result would be negative — an unsorted
    /// witness).
    fn sub(&self, other: &Self) -> Self {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (o, (&a, &b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            let (r, b1) = a.overflowing_sub(b);
            let (r, b2) = r.overflowing_sub(borrow);
            *o = r;
            borrow = (b1 || b2) as u64;
        }
        assert_eq!(borrow, 0, "witness not sorted");
        WideVal(out)
    }

    /// Byte `i` of the little-endian representation.
    fn byte(&self, i: usize) -> u8 {
        (self.0[i / 8] >> (8 * (i % 8))) as u8
    }
}
