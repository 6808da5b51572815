//! The correctness oracle: what every verified answer is compared with.
//!
//! Two references. `Oracle::reference` runs the product's own executor
//! over the benchmark's plaintext copy of the database, which checks the
//! prover, the wire and the verifier against the executor. `q1_by_hand`
//! shares nothing with the planner or the executor, which checks those too.

use crate::inputs::Query;
use crate::layers::{self, Catalog, Database, QueryResponse, Table};
use std::collections::BTreeMap;

pub struct Oracle {
    db: Database,
    /// Schemas and primary keys; appends do not change them.
    catalog: Catalog,
}

impl Oracle {
    /// `db` is the benchmark's own copy; the service holds another.
    pub fn new(db: Database) -> Self {
        let catalog = layers::tpch_catalog(&db);
        Self { db, catalog }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mirror an append the service acknowledged.
    pub fn append(&mut self, table: &str, rows: &[Vec<i64>]) {
        let t = self.db.tables.get_mut(table).expect("appended table");
        for row in rows {
            t.push_row(row);
        }
    }

    /// The answer the executor gives over the plaintext database.
    pub fn reference(&self, sql: &str) -> Result<Table, String> {
        let plan = layers::sql_parse_plan(&self.db, &self.catalog, sql)?;
        let trace = layers::sql_execute(&self.db, &plan)?;
        Ok(layers::executed_output(&trace).clone())
    }

    /// `Ok` only for a non-empty table that equals the reference cell by
    /// cell, and for Q1 also equals the straight-loop aggregate.
    pub fn check(&self, query: &Query, got: &Table) -> Result<(), String> {
        let expect = self.reference(&query.sql)?;
        if got.is_empty() {
            return Err("empty answer".into());
        }
        same_cells("executor", &expect.cols, &got.cols)?;
        if let Some(days) = query.q1_interval_days {
            let lineitem = self.db.table("lineitem").expect("lineitem");
            same_cells("straight loop", &q1_by_hand(lineitem, days), &got.cols)?;
        }
        Ok(())
    }
}

fn same_cells(reference: &str, expect: &[Vec<i64>], got: &[Vec<i64>]) -> Result<(), String> {
    if expect.len() != got.len() {
        return Err(format!(
            "{} columns, {reference} reference has {}",
            got.len(),
            expect.len()
        ));
    }
    for (c, (e, g)) in expect.iter().zip(got).enumerate() {
        if e.len() != g.len() {
            return Err(format!(
                "{} rows, {reference} reference has {}",
                g.len(),
                e.len()
            ));
        }
        if let Some(r) = (0..e.len()).find(|&r| e[r] != g[r]) {
            return Err(format!(
                "cell ({r}, {c}) is {}, {reference} reference says {}",
                g[r], e[r]
            ));
        }
    }
    Ok(())
}

/// 1998-12-01 in days since 1970-01-01: 28 years with 7 leap days reach
/// 1998-01-01, and December starts on day 334 of a common year.
const DEC_1_1998: i64 = 28 * 365 + 7 + 334;

/// TPC-H Q1 as one loop over `lineitem`, column-major like `Table::cols`:
/// rows shipped by the cutoff, grouped by (return flag, line status) in
/// ascending dictionary-id order, decimals kept as scaled integers and
/// averages floored, as the product defines them.
pub fn q1_by_hand(lineitem: &Table, interval_days: i64) -> Vec<Vec<i64>> {
    let col = |name: &str| &lineitem.cols[lineitem.schema.index_of(name).expect("lineitem column")];
    let (qty, price, disc, tax) = (
        col("l_quantity"),
        col("l_extendedprice"),
        col("l_discount"),
        col("l_tax"),
    );
    let (flag, status, shipdate) = (col("l_returnflag"), col("l_linestatus"), col("l_shipdate"));
    // Per group: Σqty, Σprice, Σprice·(100−disc), Σprice·(100−disc)·(100+tax), Σdisc, count.
    let mut groups: BTreeMap<(i64, i64), [i64; 6]> = BTreeMap::new();
    for r in 0..lineitem.len() {
        if shipdate[r] > DEC_1_1998 - interval_days {
            continue;
        }
        let g = groups.entry((flag[r], status[r])).or_default();
        let disc_price = price[r] * (100 - disc[r]);
        g[0] += qty[r];
        g[1] += price[r];
        g[2] += disc_price;
        g[3] += disc_price * (100 + tax[r]);
        g[4] += disc[r];
        g[5] += 1;
    }
    let mut cols = vec![Vec::new(); 10];
    for ((flag, status), [sum_qty, sum_price, sum_disc_price, sum_charge, sum_disc, count]) in
        groups
    {
        let row = [
            flag,
            status,
            sum_qty,
            sum_price,
            sum_disc_price,
            sum_charge,
            sum_qty / count,
            sum_price / count,
            sum_disc / count,
            count,
        ];
        for (c, v) in cols.iter_mut().zip(row) {
            c.push(v);
        }
    }
    cols
}

/// The verifier must accept `response` and reject both forgeries of it.
pub fn tamper_check(
    params: &layers::IpaParams,
    db: &Database,
    plan: &layers::Plan,
    response: &QueryResponse,
    pick: u64,
) -> Result<(), String> {
    let verifier = layers::core_verifier(params, db);
    layers::core_verify(&verifier, plan, response)
        .map_err(|e| format!("untampered response rejected: {e}"))?;
    let [cell, byte] = layers::forgeries(response, pick);
    if layers::core_verify(&verifier, plan, &cell).is_ok() {
        return Err("a flipped result cell was accepted".into());
    }
    if layers::core_verify(&verifier, plan, &byte).is_ok() {
        return Err("a flipped proof byte was accepted".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn straight_loop_agrees_with_the_executor_on_q1() {
        let oracle = Oracle::new(layers::tpch_generate(crate::workloads::SCALE));
        let lineitem = oracle.db().table("lineitem").unwrap();
        for days in [60, 90, 120, 2000] {
            let expect = oracle.reference(&inputs::q1(days).sql).unwrap();
            assert_eq!(q1_by_hand(lineitem, days), expect.cols, "{days} days");
        }
    }

    #[test]
    fn check_rejects_wrong_and_empty_answers() {
        let mut oracle = Oracle::new(layers::tpch_generate(crate::workloads::SCALE));
        let query = inputs::q1(90);
        let good = oracle.reference(&query.sql).unwrap();
        assert_eq!(oracle.check(&query, &good), Ok(()));

        let mut wrong = good.clone();
        wrong.cols[2][0] += 1;
        assert!(oracle
            .check(&query, &wrong)
            .unwrap_err()
            .contains("cell (0, 2)"));
        let mut short = good.clone();
        short.cols.iter_mut().for_each(|c| c.truncate(1));
        assert!(oracle.check(&query, &short).is_err());
        let none = Table::empty(good.schema.clone());
        assert_eq!(oracle.check(&query, &none), Err("empty answer".into()));

        // After an append the old answer is stale and the reference moves.
        let lineitem = oracle.db().table("lineitem").unwrap();
        let shipdate = &lineitem.cols[lineitem.schema.index_of("l_shipdate").unwrap()];
        let earliest = (0..lineitem.len()).min_by_key(|&r| shipdate[r]).unwrap();
        let row = lineitem.row(earliest);
        oracle.append("lineitem", &[row]);
        assert!(oracle.check(&query, &good).is_err());
        assert_eq!(
            oracle.check(&query, &oracle.reference(&query.sql).unwrap()),
            Ok(())
        );
    }
}
