//! Seed → inputs. The same seed gives the same SQL texts and the same
//! appended rows; nothing here depends on a product crate's generator, so
//! a change to the product cannot move the inputs.

use crate::layers::{self, Table};
use crate::oracle::Oracle;

/// SplitMix64.
pub struct InputRng(u64);

impl InputRng {
    /// Each `stream` of one seed is an independent sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// One SQL text, and for a Q1 text its `INTERVAL` in days, which the
/// straight-loop oracle needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    pub sql: String,
    pub q1_interval_days: Option<i64>,
}

fn replaced(sql: &str, from: &str, to: &str) -> String {
    assert!(
        sql.contains(from),
        "the SQL text no longer contains {from:?}"
    );
    sql.replace(from, to)
}

pub fn q1(interval_days: i64) -> Query {
    Query {
        sql: replaced(
            layers::Q1_SQL,
            "INTERVAL '90' DAY",
            &format!("INTERVAL '{interval_days}' DAY"),
        ),
        q1_interval_days: Some(interval_days),
    }
}

pub fn q18() -> Query {
    Query {
        sql: layers::Q18_SQL.to_string(),
        q1_interval_days: None,
    }
}

/// Every Q1 text with an interval of 60..=120 days, in seed order: 61
/// texts that differ in one literal, so each has its own plan fingerprint
/// and misses the proof cache and both key caches.
pub fn q1_texts(seed: u64) -> Vec<Query> {
    let mut texts: Vec<Query> = (60..=120).map(q1).collect();
    InputRng::new(seed, 1).shuffle(&mut texts);
    texts
}

/// Every Q5 text over a (region, one-year window starting in any month of
/// 1992..=1997) whose reference answer is non-empty, in seed order. The
/// generator places half the customers and suppliers in ASIA, so at small
/// scales only ASIA windows survive.
pub fn q5_texts(seed: u64, oracle: &Oracle) -> Result<Vec<Query>, String> {
    let mut texts = Vec::new();
    for region in layers::REGIONS {
        for year in 1992..=1997 {
            for month in 1..=12 {
                let sql = replaced(layers::Q5_SQL, "'ASIA'", &format!("'{region}'"));
                let sql = replaced(&sql, "'1994-01-01'", &format!("'{year}-{month:02}-01'"));
                let sql = replaced(
                    &sql,
                    "'1995-01-01'",
                    &format!("'{}-{month:02}-01'", year + 1),
                );
                if !oracle.reference(&sql)?.is_empty() {
                    texts.push(Query {
                        sql,
                        q1_interval_days: None,
                    });
                }
            }
        }
    }
    InputRng::new(seed, 5).shuffle(&mut texts);
    Ok(texts)
}

/// A new `lineitem` row: the keys of an existing row (so every join still
/// finds its partner) with freshly drawn quantity, price, discount, tax
/// and ship date, all inside the circuit's value domain.
pub fn lineitem_row(rng: &mut InputRng, lineitem: &Table) -> Vec<i64> {
    let col = |name: &str| lineitem.schema.index_of(name).expect("lineitem column");
    let mut row = lineitem.row((rng.next() % lineitem.len() as u64) as usize);
    let quantity = rng.range(1, 50);
    row[col("l_quantity")] = quantity;
    row[col("l_extendedprice")] = quantity * rng.range(90_000, 200_000);
    row[col("l_discount")] = rng.range(0, 10);
    row[col("l_tax")] = rng.range(0, 8);
    row[col("l_shipdate")] += rng.range(0, 30);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn q1_texts_are_deterministic_distinct_and_seed_dependent() {
        let a = q1_texts(7);
        assert_eq!(a, q1_texts(7));
        assert_ne!(a, q1_texts(8));
        assert_eq!(a.len(), 61);
        let distinct: HashSet<&str> = a.iter().map(|q| q.sql.as_str()).collect();
        assert_eq!(distinct.len(), a.len());
        assert!(a.iter().all(|q| q
            .sql
            .contains(&format!("INTERVAL '{}' DAY", q.q1_interval_days.unwrap()))));
    }

    #[test]
    fn q5_texts_are_deterministic_distinct_and_non_empty() {
        let oracle = Oracle::new(layers::tpch_generate(crate::workloads::SCALE));
        let a = q5_texts(7, &oracle).unwrap();
        assert_eq!(a, q5_texts(7, &oracle).unwrap());
        assert_ne!(a, q5_texts(8, &oracle).unwrap());
        assert!(a.len() >= 8, "only {} non-empty Q5 windows", a.len());
        let distinct: HashSet<&str> = a.iter().map(|q| q.sql.as_str()).collect();
        assert_eq!(distinct.len(), a.len());
        for q in &a {
            assert!(!oracle.reference(&q.sql).unwrap().is_empty());
        }
    }

    #[test]
    fn appended_rows_are_deterministic_and_in_domain() {
        let db = layers::tpch_generate(crate::workloads::SCALE);
        let lineitem = db.table("lineitem").unwrap();
        let draw = |seed| {
            let mut rng = InputRng::new(seed, 9);
            (0..50)
                .map(|_| lineitem_row(&mut rng, lineitem))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let rows = draw(3);
        assert!(rows.iter().flatten().all(|v| (0..1 << 56).contains(v)));
        assert!(rows.iter().all(|r| r.len() == lineitem.cols.len()));
        let distinct: HashSet<&Vec<i64>> = rows.iter().collect();
        assert_eq!(distinct.len(), rows.len());
    }
}
