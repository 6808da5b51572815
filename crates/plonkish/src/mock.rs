//! The mock prover: checks every constraint directly against the assigned
//! values, without any cryptography. This is the circuit-debugging tool used
//! by every gadget test (millisecond feedback instead of seconds of proving).

use crate::circuit::{Assignment, Cell, ConstraintSystem};
use crate::eval::eval_strided;
use crate::expression::{Column, ColumnKind, Expression};
use crate::identities::compress;
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_poly::EvaluationDomain;
use std::collections::HashMap;

/// A concrete constraint violation found by the mock prover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MockError {
    /// A gate polynomial evaluated nonzero.
    Gate {
        /// The gate's name.
        gate: String,
        /// Index of the violated polynomial within the gate.
        poly: usize,
        /// The violating row.
        row: usize,
    },
    /// A copy constraint between unequal cells.
    Copy {
        /// First cell.
        a: Cell,
        /// Second cell.
        b: Cell,
    },
    /// A lookup input row absent from the table.
    Lookup {
        /// The lookup's name.
        name: String,
        /// The violating row.
        row: usize,
    },
    /// A shuffle whose sides are not multiset-equal.
    Shuffle {
        /// The shuffle's name.
        name: String,
    },
}

impl std::fmt::Display for MockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MockError::Gate { gate, poly, row } => {
                write!(f, "gate '{gate}' poly {poly} violated at row {row}")
            }
            MockError::Copy { a, b } => write!(f, "copy constraint violated: {a:?} != {b:?}"),
            MockError::Lookup { name, row } => {
                write!(f, "lookup '{name}' row {row} not in table")
            }
            MockError::Shuffle { name } => write!(f, "shuffle '{name}' is not a permutation"),
        }
    }
}

/// How many violations of each class (gate / copy / lookup / shuffle) the
/// mock prover reports before truncating that class. Truncation never
/// abandons the *other* classes: a circuit with 1000 gate violations still
/// reports its copy and lookup defects, so analyzer and gadget tests see
/// the complete defect spectrum in one run.
pub const MOCK_ERRORS_PER_CLASS: usize = 32;

/// Check every constraint of `cs` against `asn`, collecting all violations
/// (bounded to [`MOCK_ERRORS_PER_CLASS`] per class) rather than stopping at
/// the first.
///
/// Blinding rows of advice columns are filled with deterministic junk so
/// that gates which accidentally reach into the blinding region fail here
/// the same way they would fail (probabilistically) in real proving.
pub fn mock_prove(cs: &ConstraintSystem<Fq>, asn: &Assignment<Fq>) -> Result<(), Vec<MockError>> {
    let n = asn.n;
    let u = asn.usable_rows;
    let domain = EvaluationDomain::<Fq>::new(asn.k, cs.max_degree().max(2));
    let omega_pows = crate::eval::omega_powers(&domain);

    // Deterministic junk in the blinding region.
    let mut advice = asn.advice.clone();
    for (ci, col) in advice.iter_mut().enumerate() {
        for (ri, v) in col[u..].iter_mut().enumerate() {
            *v = Fq::from_u64(0x9e37_79b9_7f4a_7c15u64 ^ ((ci as u64) << 32) ^ ri as u64);
        }
    }
    let column_rows = |c: Column| -> &[Fq] {
        match c.kind {
            ColumnKind::Fixed => &asn.fixed[c.index],
            ColumnKind::Advice => &advice[c.index],
            ColumnKind::Instance => &asn.instance[c.index],
            kind => unreachable!("a circuit cannot query {kind:?}"),
        }
    };
    let on_rows = |e: &Expression<Fq>| eval_strided(e, &column_rows, &omega_pows, 1, 0, n);

    let mut errors = Vec::new();

    let mut gate_errors = 0usize;
    'gates: for gate in &cs.gates {
        for (pi, poly) in gate.polys.iter().enumerate() {
            let values = on_rows(poly);
            for (row, v) in values[..u].iter().enumerate() {
                if !v.is_zero() {
                    errors.push(MockError::Gate {
                        gate: gate.name.clone(),
                        poly: pi,
                        row,
                    });
                    gate_errors += 1;
                    if gate_errors == MOCK_ERRORS_PER_CLASS {
                        break 'gates;
                    }
                }
            }
        }
    }

    let mut copy_errors = 0usize;
    for (a, b) in &asn.copies {
        if asn.value(a.column, a.row) != asn.value(b.column, b.row) {
            errors.push(MockError::Copy { a: *a, b: *b });
            copy_errors += 1;
            if copy_errors == MOCK_ERRORS_PER_CLASS {
                break;
            }
        }
    }

    // θ does not matter for membership; compare tuples directly.
    let mut lookup_errors = 0usize;
    'lookups: for lk in &cs.lookups {
        let inputs: Vec<Vec<Fq>> = lk.input.iter().map(&on_rows).collect();
        let tables: Vec<Vec<Fq>> = lk.table.iter().map(&on_rows).collect();
        let mut table_set: HashMap<Vec<[u8; 32]>, ()> = HashMap::with_capacity(u);
        for r in 0..u {
            table_set.insert(tables.iter().map(|t| t[r].to_repr()).collect(), ());
        }
        for r in 0..u {
            let tuple: Vec<[u8; 32]> = inputs.iter().map(|t| t[r].to_repr()).collect();
            if !table_set.contains_key(&tuple) {
                errors.push(MockError::Lookup {
                    name: lk.name.clone(),
                    row: r,
                });
                lookup_errors += 1;
                if lookup_errors == MOCK_ERRORS_PER_CLASS {
                    break 'lookups;
                }
            }
        }
    }

    for sh in &cs.shuffles {
        // Compress with a fixed pseudo-random θ: multiset equality of
        // compressed values at a random point is equality w.h.p., and the
        // mock prover only needs a diagnostic.
        let theta = Fq::from_u64(0xd1b5_4a32_d192_ed03);
        let a = on_rows(&compress(&sh.input, theta));
        let b = on_rows(&compress(&sh.target, theta));
        let mut counts: HashMap<[u8; 32], i64> = HashMap::with_capacity(u);
        for r in 0..u {
            *counts.entry(a[r].to_repr()).or_insert(0) += 1;
            *counts.entry(b[r].to_repr()).or_insert(0) -= 1;
        }
        if counts.values().any(|c| *c != 0) {
            errors.push(MockError::Shuffle {
                name: sh.name.clone(),
            });
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}
