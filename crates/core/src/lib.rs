//! # poneglyph-core
//!
//! The heart of the PoneglyphDB reproduction: the paper's custom gates
//! (§4 — range check designs A–D, sort, group-by, join, aggregation,
//! projection), their composition into full query circuits (§4.6), the
//! database commitment (§3.3), and the end-to-end prover/verifier API
//! (Figure 2).

#![warn(missing_docs)]

mod builder;
mod cache;
mod compiler;
mod db;
mod encode;
pub mod mutate;
mod session;
mod wire;

pub use cache::LruCache;
pub use compiler::{compile, CompiledQuery, GateSet};
pub use db::{
    check_query, database_shape, CommitmentRegistry, DatabaseCommitment, DbError, QueryResponse,
};
pub use encode::{decode, encode, encode_fq, MAX_VALUE, VALUE_BOUND, VALUE_BYTES};
pub use mutate::{apply_append, AppliedDelta, DeltaLog, MutationError, RowBatch};
pub use poneglyph_par::Parallelism;
pub use session::{ProverSession, SessionStats, VerifierSession, DEFAULT_KEY_CACHE_CAPACITY};
pub use wire::{
    column_type_byte, column_type_from_byte, read_schema, read_table, write_schema, write_table,
    RESPONSE_MAGIC, RESPONSE_WIRE_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_plonkish::mock_prove;
    use poneglyph_sql::{
        execute, AggFunc, Aggregate, CmpOp, ColumnType, Database, Plan, Predicate, ScalarExpr,
        Schema, Table,
    };
    use rand::SeedableRng;

    fn test_db() -> Database {
        let mut db = Database::new();
        let mut t = Table::empty(Schema::new(&[
            ("id", ColumnType::Int),
            ("grp", ColumnType::Int),
            ("val", ColumnType::Int),
        ]));
        for (id, grp, val) in [
            (1, 7, 10),
            (2, 8, 20),
            (3, 7, 30),
            (4, 8, 40),
            (5, 7, 50),
            (6, 9, 60),
        ] {
            t.push_row(&[id, grp, val]);
        }
        db.add_table("t", t);
        let mut d = Table::empty(Schema::new(&[
            ("gid", ColumnType::Int),
            ("tag", ColumnType::Int),
        ]));
        d.push_row(&[7, 700]);
        d.push_row(&[8, 800]);
        // note: no gid 9 — joins must prove non-membership for grp 9
        db.add_table("dim", d);
        db
    }

    fn scan(t: &str) -> Plan {
        Plan::Scan { table: t.into() }
    }

    #[test]
    fn filter_circuit_satisfies() {
        let db = test_db();
        let plan = Plan::Filter {
            input: Box::new(scan("t")),
            predicates: vec![
                Predicate::ColConst {
                    col: 2,
                    op: CmpOp::Ge,
                    value: 20,
                },
                Predicate::ColConst {
                    col: 2,
                    op: CmpOp::Lt,
                    value: 50,
                },
            ],
        };
        check_query(&db, &plan).expect("filter circuit");
    }

    #[test]
    fn project_circuit_satisfies() {
        let db = test_db();
        let plan = Plan::Project {
            input: Box::new(scan("t")),
            exprs: vec![
                (
                    "v2".into(),
                    ScalarExpr::Mul(Box::new(ScalarExpr::Col(2)), Box::new(ScalarExpr::Const(3))),
                ),
                (
                    "vdiv".into(),
                    ScalarExpr::Div(Box::new(ScalarExpr::Col(2)), Box::new(ScalarExpr::Const(7))),
                ),
                (
                    "vcase".into(),
                    ScalarExpr::CaseEq {
                        col: 1,
                        value: 7,
                        then: Box::new(ScalarExpr::Col(2)),
                        otherwise: Box::new(ScalarExpr::Const(0)),
                    },
                ),
            ],
        };
        check_query(&db, &plan).expect("project circuit");
    }

    #[test]
    fn sort_circuit_satisfies() {
        let db = test_db();
        let plan = Plan::Sort {
            input: Box::new(Plan::Filter {
                input: Box::new(scan("t")),
                predicates: vec![Predicate::ColConst {
                    col: 2,
                    op: CmpOp::Gt,
                    value: 15,
                }],
            }),
            keys: vec![(1, false), (2, true)],
        };
        check_query(&db, &plan).expect("sort circuit");
    }

    #[test]
    fn aggregate_circuit_satisfies() {
        let db = test_db();
        let plan = Plan::Aggregate {
            input: Box::new(scan("t")),
            group_by: vec![1],
            aggs: vec![
                (
                    "s".into(),
                    Aggregate {
                        func: AggFunc::Sum,
                        input: ScalarExpr::Col(2),
                    },
                ),
                (
                    "c".into(),
                    Aggregate {
                        func: AggFunc::Count,
                        input: ScalarExpr::Const(1),
                    },
                ),
                (
                    "mn".into(),
                    Aggregate {
                        func: AggFunc::Min,
                        input: ScalarExpr::Col(2),
                    },
                ),
                (
                    "mx".into(),
                    Aggregate {
                        func: AggFunc::Max,
                        input: ScalarExpr::Col(2),
                    },
                ),
                (
                    "av".into(),
                    Aggregate {
                        func: AggFunc::Avg,
                        input: ScalarExpr::Col(2),
                    },
                ),
            ],
        };
        check_query(&db, &plan).expect("aggregate circuit");
    }

    #[test]
    fn join_circuit_satisfies() {
        let db = test_db();
        // grp 9 rows have no dim match: exercises the completeness path.
        let plan = Plan::Join {
            left: Box::new(scan("t")),
            right: Box::new(scan("dim")),
            left_key: 1,
            right_key: 0,
        };
        check_query(&db, &plan).expect("join circuit");
    }

    #[test]
    fn full_pipeline_circuit_satisfies() {
        let db = test_db();
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(Plan::Aggregate {
                    input: Box::new(Plan::Join {
                        left: Box::new(Plan::Filter {
                            input: Box::new(scan("t")),
                            predicates: vec![Predicate::ColConst {
                                col: 2,
                                op: CmpOp::Le,
                                value: 50,
                            }],
                        }),
                        right: Box::new(scan("dim")),
                        left_key: 1,
                        right_key: 0,
                    }),
                    group_by: vec![4], // dim.tag
                    aggs: vec![(
                        "s".into(),
                        Aggregate {
                            func: AggFunc::Sum,
                            input: ScalarExpr::Col(2),
                        },
                    )],
                }),
                keys: vec![(1, true)],
            }),
            n: 1,
        };
        check_query(&db, &plan).expect("full pipeline");
    }

    #[test]
    fn end_to_end_prove_verify() {
        let db = test_db();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Filter {
                input: Box::new(scan("t")),
                predicates: vec![Predicate::ColConst {
                    col: 2,
                    op: CmpOp::Ge,
                    value: 20,
                }],
            }),
            group_by: vec![1],
            aggs: vec![(
                "s".into(),
                Aggregate {
                    func: AggFunc::Sum,
                    input: ScalarExpr::Col(2),
                },
            )],
        };
        let params = poneglyph_pcs::IpaParams::setup(11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let prover = ProverSession::new(params.clone(), db.clone());
        let response = prover.prove(&plan, &mut rng).expect("prove");
        let expected = execute(&db, &plan).unwrap().output;
        assert_eq!(response.result, expected);

        let verifier = VerifierSession::new(params, database_shape(&db));
        let verified = verifier.verify(&plan, &response).expect("verify");
        assert_eq!(verified, expected);

        // Tampered instance (forged result) must fail.
        let mut bad = response.clone();
        bad.instance[2][0] += poneglyph_arith::Fq::ONE;
        assert!(verifier.verify(&plan, &bad).is_err());

        // Tampered proof must fail.
        let mut bad = response.clone();
        bad.proof.evals[0] += poneglyph_arith::Fq::ONE;
        assert!(verifier.verify(&plan, &bad).is_err());

        // Repeat verification came from the cache: one compile, one keygen.
        let stats = verifier.stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.keygens, 1);
        assert_eq!(stats.key_cache_hits, 2);

        // Proving again re-keys and proves the same result.
        let again = prover.prove(&plan, &mut rng).expect("prove again");
        assert_eq!(again.result, expected);
    }

    #[test]
    fn dishonest_instance_is_caught_by_mock() {
        let db = test_db();
        let plan = Plan::Filter {
            input: Box::new(scan("t")),
            predicates: vec![Predicate::ColConst {
                col: 2,
                op: CmpOp::Lt,
                value: 15,
            }],
        };
        let trace = execute(&db, &plan).unwrap();
        let mut compiled = compile(&db, &plan, Some(&trace), GateSet::default()).expect("compile");
        // Flip an instance real bit: breaks the copy constraint to the
        // in-circuit real column.
        compiled.asn.instance[0][1] = poneglyph_arith::Fq::ONE - compiled.asn.instance[0][1];
        assert!(mock_prove(&compiled.cs, &compiled.asn).is_err());
    }

    #[test]
    fn commitment_and_registry() {
        let db = test_db();
        let params = poneglyph_pcs::IpaParams::setup(8);
        let c1 = DatabaseCommitment::commit(&params, &db);
        let c2 = DatabaseCommitment::commit(&params, &db);
        assert_eq!(c1.digest(), c2.digest());

        // Any change to the data changes the digest (binding).
        let mut db2 = test_db();
        db2.tables.get_mut("t").unwrap().cols[2][0] += 1;
        let c3 = DatabaseCommitment::commit(&params, &db2);
        assert_ne!(c1.digest(), c3.digest());

        let mut reg = CommitmentRegistry::new();
        reg.publish("hospital-2026-06", c1.digest()).unwrap();
        assert!(reg.publish("hospital-2026-06", c3.digest()).is_err());
        assert_eq!(reg.lookup("hospital-2026-06"), Some(c1.digest()));
    }

    #[test]
    fn five_sort_keys_are_a_compile_error() {
        let db = test_db();
        let plan = Plan::Sort {
            input: Box::new(scan("t")),
            keys: vec![(0, false), (1, false), (2, false), (1, true), (2, true)],
        };
        let trace = execute(&db, &plan).expect("the executor sorts by five keys");
        let err = compile(&db, &plan, Some(&trace), GateSet::default())
            .err()
            .expect("the composite key holds at most four attributes");
        assert!(err.contains("at most 4 attributes"), "{err}");
        assert!(compile(&database_shape(&db), &plan, None, GateSet::default()).is_err());
    }

    #[test]
    fn negative_intermediate_is_a_compile_error() {
        let db = test_db();
        // id − val < 0 on every row of `t`
        let plan = Plan::Project {
            input: Box::new(scan("t")),
            exprs: vec![(
                "d".into(),
                ScalarExpr::Sub(Box::new(ScalarExpr::Col(0)), Box::new(ScalarExpr::Col(2))),
            )],
        };
        let trace = execute(&db, &plan).expect("the executor computes negative values");
        let err = compile(&db, &plan, Some(&trace), GateSet::default())
            .err()
            .expect("the circuit's value domain has no negatives");
        assert!(err.contains("negative intermediate"), "{err}");
    }

    #[test]
    fn gate_set_breakdown_variants_compile() {
        let db = test_db();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Filter {
                input: Box::new(scan("t")),
                predicates: vec![Predicate::ColConst {
                    col: 2,
                    op: CmpOp::Ge,
                    value: 20,
                }],
            }),
            group_by: vec![1],
            aggs: vec![(
                "s".into(),
                Aggregate {
                    func: AggFunc::Sum,
                    input: ScalarExpr::Col(2),
                },
            )],
        };
        let trace = execute(&db, &plan).unwrap();
        for gates in [GateSet::none(), GateSet::default()] {
            let compiled = compile(&db, &plan, Some(&trace), gates).expect("compile");
            mock_prove(&compiled.cs, &compiled.asn).expect("variant satisfies");
        }
    }
}
