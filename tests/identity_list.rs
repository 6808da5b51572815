//! The protocol's identity list checked on its own, with neither prover nor
//! verifier (and no cryptography): for a toy circuit exercising every
//! argument and for all six TPC-H shapes,
//!
//! * with `A′`/`S′`/`Z`/σ columns built here, independently of the prover,
//!   every identity of `identities()` is zero on every row for an honest
//!   witness — agreeing with `mock_prove` — and a tampered witness cell
//!   makes a named identity non-zero where `mock_prove` points;
//! * `open_schedule` opens exactly the committed polynomials the list
//!   queries, plus the quotient pieces;
//! * `max_degree()`, now read off the list, is what the hand-written
//!   accounting it replaced returned (it fixes the number of quotient
//!   pieces, hence the proof size).

use poneglyph_arith::{Fq, PrimeField};
use poneglyph_core::{compile, GateSet};
use poneglyph_plonkish::{
    coset_multiplier, eval_strided, grand_products, identities, mock_prove, open_schedule,
    Assignment, Cell, Column, ColumnKind, ConstraintSystem, Expression, Identity, MockError,
    Origin, Query,
};
use poneglyph_poly::EvaluationDomain;
use poneglyph_sql::execute;
use poneglyph_tpch::{all_queries, generate};
use std::collections::{BTreeMap, BTreeSet};

/// The seven circuits with an honest witness, each with the `max_degree()`
/// recorded from the commit before the identity list existed.
fn circuits() -> Vec<(String, ConstraintSystem<Fq>, Assignment<Fq>, usize)> {
    let (cs, asn) = toy();
    let mut out = vec![("toy".to_string(), cs, asn, 5)];
    let db = generate(60);
    let recorded = [
        ("Q1", 5),
        ("Q3", 8),
        ("Q5", 8),
        ("Q8", 8),
        ("Q9", 8),
        ("Q18", 8),
    ];
    for ((name, plan), (recorded_name, degree)) in all_queries(&db).into_iter().zip(recorded) {
        assert_eq!(name, recorded_name);
        let trace = execute(&db, &plan).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let c = compile(&db, &plan, Some(&trace), GateSet::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((name.to_string(), c.cs, c.asn, degree));
    }
    out
}

/// The shape of the plonkish crate's own toy circuit: a multiplication gate
/// chained by copies into a public output, a range lookup and a shuffle.
fn toy() -> (ConstraintSystem<Fq>, Assignment<Fq>) {
    let mut cs = ConstraintSystem::<Fq>::new();
    let (q, t, q_lookup) = (cs.fixed_column(), cs.fixed_column(), cs.fixed_column());
    let (a, b, c, d) = (
        cs.advice_column(),
        cs.advice_column(),
        cs.advice_column(),
        cs.advice_column(),
    );
    let io = cs.instance_column();
    cs.create_gate(
        "mul",
        vec![
            Expression::fixed(q.index)
                * (Expression::advice(a.index) * Expression::advice(b.index)
                    - Expression::advice(c.index)),
        ],
    );
    for col in [a, c, io] {
        cs.enable_permutation(col);
    }
    cs.add_lookup(
        "b-range",
        vec![Expression::fixed(q_lookup.index) * Expression::advice(b.index)],
        vec![Expression::fixed(t.index)],
    );
    cs.add_shuffle(
        "d-perm-a",
        vec![Expression::advice(d.index)],
        vec![Expression::advice(a.index)],
    );

    let rows = 8;
    let mut asn = Assignment::new(&cs, 5);
    for i in 0..8 {
        asn.assign_fixed(t, i, Fq::from_u64(i as u64));
    }
    let mut a_val = Fq::from_u64(3);
    for r in 0..rows {
        let b_val = Fq::from_u64((r % 7 + 1) as u64);
        let c_val = a_val * b_val;
        asn.assign_fixed(q, r, Fq::ONE);
        asn.assign_fixed(q_lookup, r, Fq::ONE);
        asn.assign_advice(a, r, a_val);
        asn.assign_advice(b, r, b_val);
        asn.assign_advice(c, r, c_val);
        asn.assign_advice(d, rows - 1 - r, a_val);
        let next = if r + 1 < rows {
            Cell {
                column: a,
                row: r + 1,
            }
        } else {
            asn.assign_instance(io, 0, c_val);
            Cell { column: io, row: 0 }
        };
        asn.copy(Cell { column: c, row: r }, next);
        a_val = c_val;
    }
    (cs, asn)
}

const THETA: u64 = 0x1234_5678_9abc_def1;
const BETA: u64 = 0x0fed_cba9_8765_4321;
const GAMMA: u64 = 0x2468_ace0_1357_9bdf;

/// Every column the identities name, over the rows of the domain.
struct Rows {
    chunks: usize,
    omega_pows: Vec<Fq>,
    sigma: Vec<Vec<Fq>>,
    lookup_a: Vec<Vec<Fq>>,
    lookup_s: Vec<Vec<Fq>>,
    /// In `grand_products` order.
    z: Vec<Vec<Fq>>,
    indicators: [Vec<Fq>; 3],
}

impl Rows {
    /// Build σ, `A′`/`S′` and every `Z` from the witness, the way the
    /// protocol defines them (not the way the prover computes them).
    fn build(cs: &ConstraintSystem<Fq>, asn: &Assignment<Fq>) -> Self {
        let (n, u) = (asn.n, asn.usable_rows);
        let domain = EvaluationDomain::<Fq>::new(asn.k, cs.max_degree());
        let omega_pows = poneglyph_plonkish::omega_powers(&domain);
        let (theta, beta, gamma) = (Fq::from_u64(THETA), Fq::from_u64(BETA), Fq::from_u64(GAMMA));
        let indicator = |rows: std::ops::Range<usize>| {
            let mut v = vec![Fq::ZERO; n];
            v[rows].fill(Fq::ONE);
            v
        };
        let mut rows = Rows {
            chunks: cs.permutation_chunks(),
            sigma: sigma_rows(cs, asn, &omega_pows),
            omega_pows,
            lookup_a: Vec::new(),
            lookup_s: Vec::new(),
            z: Vec::new(),
            indicators: [indicator(0..1), indicator(u..u + 1), indicator(0..u)],
        };
        for lk in &cs.lookups {
            let a = rows.eval(asn, &poneglyph_plonkish::compress(&lk.input, theta), n);
            let s = rows.eval(asn, &poneglyph_plonkish::compress(&lk.table, theta), n);
            let (a_perm, s_perm) = permuted(&a[..u], &s[..u], n);
            rows.lookup_a.push(a_perm);
            rows.lookup_s.push(s_perm);
        }
        let mut carry = Fq::ONE;
        for gp in grand_products(cs, theta, beta, gamma) {
            let num = rows.eval(asn, &gp.numerator, u);
            let mut den_inv = rows.eval(asn, &gp.denominator, u);
            assert_eq!(Fq::batch_invert(&mut den_inv), u, "non-zero denominators");
            let mut z = vec![Fq::ZERO; n];
            z[0] = if gp.carries_from.is_some() {
                carry
            } else {
                Fq::ONE
            };
            for r in 0..u {
                z[r + 1] = z[r] * num[r] * den_inv[r];
            }
            carry = z[u];
            rows.z.push(z);
        }
        rows
    }

    /// Evaluate an expression on the first `len` rows.
    fn eval(&self, asn: &Assignment<Fq>, expr: &Expression<Fq>, len: usize) -> Vec<Fq> {
        let chunks = self.chunks;
        let values = |c: Column| -> &[Fq] {
            match c.kind {
                ColumnKind::Fixed => &asn.fixed[c.index],
                ColumnKind::Advice => &asn.advice[c.index],
                ColumnKind::Instance => &asn.instance[c.index],
                ColumnKind::Sigma => &self.sigma[c.index],
                ColumnKind::LookupA => &self.lookup_a[c.index],
                ColumnKind::LookupS => &self.lookup_s[c.index],
                ColumnKind::PermZ => &self.z[c.index],
                ColumnKind::LookupZ => &self.z[chunks + c.index],
                ColumnKind::ShuffleZ => &self.z[chunks + self.lookup_a.len() + c.index],
                ColumnKind::L0 => &self.indicators[0],
                ColumnKind::LLast => &self.indicators[1],
                ColumnKind::LActive => &self.indicators[2],
                ColumnKind::HPiece => unreachable!("the quotient is not a leaf"),
            }
        };
        eval_strided(expr, &values, &self.omega_pows, 1, 0, len)
    }
}

/// σ from the copy constraints: cell `(column i, row r)` is labelled
/// `k_i·ωʳ`, and σ sends each cell to the next one of its equality class.
fn sigma_rows(cs: &ConstraintSystem<Fq>, asn: &Assignment<Fq>, omega_pows: &[Fq]) -> Vec<Vec<Fq>> {
    let n = asn.n;
    let slot = |c: Column| {
        let found = cs.permutation_columns.iter().position(|p| *p == c);
        found.expect("copied column is enabled for permutation")
    };
    let label = |cell: usize| coset_multiplier::<Fq>(cell / n) * omega_pows[cell % n];
    let mut parent: Vec<usize> = (0..cs.permutation_columns.len() * n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, b) in &asn.copies {
        let from = find(&mut parent, slot(a.column) * n + a.row);
        let to = find(&mut parent, slot(b.column) * n + b.row);
        parent[from] = to;
    }
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for cell in 0..parent.len() {
        members
            .entry(find(&mut parent, cell))
            .or_default()
            .push(cell);
    }
    let mut sigma = vec![vec![Fq::ZERO; n]; cs.permutation_columns.len()];
    for cells in members.values() {
        for (i, cell) in cells.iter().enumerate() {
            sigma[cell / n][cell % n] = label(cells[(i + 1) % cells.len()]);
        }
    }
    sigma
}

/// Paper Eq. 1: `A′` is the inputs sorted, and `S′` a permutation of the
/// table carrying each new value of `A′` beside its first occurrence.
fn permuted(a: &[Fq], s: &[Fq], n: usize) -> (Vec<Fq>, Vec<Fq>) {
    let key = |v: &Fq| {
        let mut r = v.to_repr();
        r.reverse();
        r
    };
    let mut a_perm = a.to_vec();
    a_perm.sort_unstable_by_key(key);
    let mut spare: BTreeMap<[u8; 32], (Fq, usize)> = BTreeMap::new();
    for v in s {
        spare.entry(key(v)).or_insert((*v, 0)).1 += 1;
    }
    let mut s_perm: Vec<Option<Fq>> = vec![None; a.len()];
    for i in 0..a.len() {
        if i == 0 || a_perm[i] != a_perm[i - 1] {
            let entry = spare.get_mut(&key(&a_perm[i])).expect("input in table");
            entry.1 = entry.1.checked_sub(1).expect("input in table");
            s_perm[i] = Some(a_perm[i]);
        }
    }
    let mut rest = spare
        .values()
        .flat_map(|(v, count)| std::iter::repeat_n(*v, *count));
    let mut s_perm: Vec<Fq> = s_perm
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| rest.next().expect("as many table rows as inputs")))
        .collect();
    a_perm.resize(n, Fq::ZERO);
    s_perm.resize(n, Fq::ZERO);
    (a_perm, s_perm)
}

fn list(cs: &ConstraintSystem<Fq>, asn: &Assignment<Fq>) -> Vec<Identity<Fq>> {
    identities(
        cs,
        asn.usable_rows,
        Fq::from_u64(THETA),
        Fq::from_u64(BETA),
        Fq::from_u64(GAMMA),
    )
    .collect()
}

/// The `(identity index, row)` pairs at which the list does not vanish.
fn violations(rows: &Rows, asn: &Assignment<Fq>, ids: &[Identity<Fq>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let values = rows.eval(asn, &id.expr, asn.n);
        out.extend(
            values
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_zero())
                .map(|(row, _)| (i, row)),
        );
    }
    out
}

#[test]
fn every_identity_vanishes_on_an_honest_witness_and_names_a_tampered_one() {
    for (name, cs, asn, _) in circuits() {
        mock_prove(&cs, &asn).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let rows = Rows::build(&cs, &asn);
        let ids = list(&cs, &asn);
        let bad = violations(&rows, &asn, &ids);
        assert!(
            bad.is_empty(),
            "{name}: {:?} is non-zero at row {}",
            ids[bad[0].0].origin,
            bad[0].1
        );

        // Tamper the first advice cell some gate constrains; the protocol
        // columns stay those of the honest witness.
        let (tampered, gate, poly, row) = (0..cs.num_advice)
            .find_map(|col| {
                let mut t = asn.clone();
                t.advice[col][0] += Fq::ONE;
                let errors = mock_prove(&cs, &t).err()?;
                errors.into_iter().find_map(|e| match e {
                    MockError::Gate { gate, poly, row } => Some((t.clone(), gate, poly, row)),
                    _ => None,
                })
            })
            .unwrap_or_else(|| panic!("{name}: no gate constrains row 0 of any advice column"));
        let blamed: Vec<Identity<Fq>> = ids
            .into_iter()
            .filter(|id| {
                matches!(id.origin, Origin::Gate { gate: g, poly: p }
                    if cs.gates[g].name == gate && p == poly)
            })
            .collect();
        let named = violations(&rows, &tampered, &blamed)
            .iter()
            .any(|(_, r)| *r == row);
        assert!(
            named,
            "{name}: mock_prove blames gate '{gate}' poly {poly} at row {row}, the list does not"
        );
    }
}

#[test]
fn open_schedule_opens_exactly_what_the_list_queries() {
    for (name, cs, asn, _) in circuits() {
        let pieces = cs.max_degree().next_power_of_two() - 1;
        let schedule = open_schedule(&cs, asn.usable_rows as i32, pieces);
        let opened: BTreeSet<Query> = schedule.iter().copied().collect();
        assert_eq!(opened.len(), schedule.len(), "{name}: duplicate claim");

        let mut queried = BTreeSet::new();
        for id in list(&cs, &asn) {
            id.expr.collect_queries(&mut queried);
        }
        // The verifier computes these itself; they are not committed.
        queried.retain(|q| {
            !matches!(
                q.column.kind,
                ColumnKind::Instance | ColumnKind::L0 | ColumnKind::LLast | ColumnKind::LActive
            )
        });
        queried.extend((0..pieces).map(|j| Query::new(ColumnKind::HPiece, j, 0)));
        assert_eq!(opened, queried, "{name}");
    }
}

#[test]
fn max_degree_read_off_the_list_is_the_recorded_one() {
    for (name, cs, _, recorded) in circuits() {
        assert_eq!(cs.max_degree(), recorded, "{name}");
    }
}
