//! A ZKSQL-style baseline [Li et al., VLDB'23]: *interactive* per-operator
//! proving with boolean (bitwise) encodings.
//!
//! The two structural properties the paper attributes ZKSQL's performance
//! profile to are reproduced faithfully (§5.3):
//!
//! 1. **Interactivity** — the query is decomposed into per-operator
//!    sub-circuits; each is proven in its own round, with a fresh verifier
//!    challenge between rounds (designated verifier — the Fiat–Shamir
//!    transform does not apply, §6).
//! 2. **Boolean encodings** — comparisons decompose values into *bits*
//!    with boolean gates instead of bytes with lookup tables, multiplying
//!    the column count of every range check by 8.
//!
//! Unlike real ZKSQL, intermediate results are exposed to the designated
//! verifier rather than committed; the performance profile (what the
//! benchmark compares) is unaffected, and the simplification is documented
//! in DESIGN.md.

use poneglyph_arith::Fq;
use poneglyph_core::{compile, GateSet, Parallelism, QueryResponse};
use poneglyph_pcs::IpaParams;
use poneglyph_plonkish::{keygen_pk_with, prove_timed, verify};
use poneglyph_sql::{execute, Database, Plan, Table};
use rand::Rng;

/// One interactive round: an operator proof plus the verifier's challenge
/// that seeds the next round.
pub struct OperatorRound {
    /// Operator name (diagnostics).
    pub op: String,
    /// The operator's sub-proof.
    pub response: QueryResponse,
    /// The sub-plan proven in this round.
    pub plan: Plan,
    /// The scratch tables the sub-plan reads.
    pub inputs: Vec<(String, Table)>,
    /// The verifier's round challenge (interactivity).
    pub challenge: Fq,
    /// Name under which this round's output is registered for later rounds.
    pub output_name: String,
}

/// A full interactive session transcript.
pub struct InteractiveSession {
    /// Rounds, bottom-up over the plan.
    pub rounds: Vec<OperatorRound>,
    /// The final result.
    pub result: Table,
}

impl InteractiveSession {
    /// Total proof bytes across all rounds.
    pub fn total_proof_size(&self) -> usize {
        self.rounds.iter().map(|r| r.response.proof_size()).sum()
    }

    /// Number of prover/verifier message exchanges.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }
}

/// Decompose a plan bottom-up into single-operator sub-plans over
/// materialized scratch tables.
fn decompose(
    db: &Database,
    plan: &Plan,
    scratch: &mut Database,
    counter: &mut usize,
    out: &mut Vec<(String, Plan)>,
) -> Result<String, String> {
    // Materialize children first.
    let mut child_names = Vec::new();
    for child in plan.children() {
        let name = decompose(db, child, scratch, counter, out)?;
        child_names.push(name);
    }
    // Rewrite this node to scan the materialized children.
    let rewritten = match plan {
        Plan::Scan { table } => Plan::Scan {
            table: table.clone(),
        },
        Plan::Filter { predicates, .. } => Plan::Filter {
            input: Box::new(Plan::Scan {
                table: child_names[0].clone(),
            }),
            predicates: predicates.clone(),
        },
        Plan::Project { exprs, .. } => Plan::Project {
            input: Box::new(Plan::Scan {
                table: child_names[0].clone(),
            }),
            exprs: exprs.clone(),
        },
        Plan::Join {
            left_key,
            right_key,
            ..
        } => Plan::Join {
            left: Box::new(Plan::Scan {
                table: child_names[0].clone(),
            }),
            right: Box::new(Plan::Scan {
                table: child_names[1].clone(),
            }),
            left_key: *left_key,
            right_key: *right_key,
        },
        Plan::Aggregate { group_by, aggs, .. } => Plan::Aggregate {
            input: Box::new(Plan::Scan {
                table: child_names[0].clone(),
            }),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        Plan::Sort { keys, .. } => Plan::Sort {
            input: Box::new(Plan::Scan {
                table: child_names[0].clone(),
            }),
            keys: keys.clone(),
        },
        Plan::Limit { n, .. } => Plan::Limit {
            input: Box::new(Plan::Scan {
                table: child_names[0].clone(),
            }),
            n: *n,
        },
    };
    // Execute the rewritten node against scratch+base tables and register
    // its output as the next temp table.
    let mut combined = scratch.clone();
    for (name, t) in &db.tables {
        combined
            .tables
            .entry(name.clone())
            .or_insert_with(|| t.clone());
    }
    let output = execute(&combined, &rewritten)
        .map_err(|e| e.to_string())?
        .output;
    let name = format!("zk_tmp_{}", *counter);
    *counter += 1;
    scratch.add_table(&name, output);
    if !matches!(plan, Plan::Scan { .. }) {
        out.push((name.clone(), rewritten));
    } else {
        // base scans need no proof of their own; rename for chaining
        if let Plan::Scan { table } = plan {
            let t = db
                .table(table)
                .ok_or_else(|| format!("unknown table {table}"))?
                .clone();
            scratch.add_table(&name, t);
        }
    }
    Ok(name)
}

/// Run the interactive protocol: per-operator proofs with bitwise range
/// encodings, one verifier challenge per round.
pub fn prove_interactive(
    params: &IpaParams,
    db: &Database,
    plan: &Plan,
    rng: &mut impl Rng,
) -> Result<InteractiveSession, String> {
    let mut scratch = Database::new();
    scratch.dict = db.dict.clone();
    let mut counter = 0;
    let mut sub_plans = Vec::new();
    decompose(db, plan, &mut scratch, &mut counter, &mut sub_plans)?;

    let mut combined = scratch.clone();
    for (name, t) in &db.tables {
        combined
            .tables
            .entry(name.clone())
            .or_insert_with(|| t.clone());
    }

    let mut rounds = Vec::new();
    let mut result = Table::default();
    for (name, sub) in sub_plans {
        let trace = execute(&combined, &sub).map_err(|e| e.to_string())?;
        result = trace.output.clone();
        let gates = GateSet {
            bitwise_ranges: true,
            ..GateSet::default()
        };
        let compiled = compile(&combined, &sub, Some(&trace), gates)?;
        let k = compiled.asn.k;
        if k > params.k {
            return Err(format!(
                "operator circuit 2^{k} exceeds params 2^{}",
                params.k
            ));
        }
        let params_k = params.truncate(k);
        let pk = keygen_pk_with(&params_k, &compiled.cs, &compiled.asn, Parallelism::auto());
        let (proof, _) = prove_timed(&params_k, &pk, compiled.asn, rng, Parallelism::auto())
            .map_err(|e| e.to_string())?;
        // Interactive round: the (designated) verifier replies with a fresh
        // random challenge that seeds the next round.
        let challenge = poneglyph_arith::PrimeField::random(rng);
        let mut inputs = Vec::new();
        for child in sub.children() {
            if let Plan::Scan { table } = child {
                if let Some(t) = combined.table(table) {
                    inputs.push((table.clone(), t.clone()));
                }
            }
        }
        rounds.push(OperatorRound {
            op: sub.op_name().to_string(),
            response: QueryResponse {
                result: trace.output.clone(),
                instance: compiled.instance,
                proof,
                k,
            },
            plan: sub,
            inputs,
            challenge,
            output_name: name,
        });
    }
    Ok(InteractiveSession { rounds, result })
}

/// Verify every round of an interactive session (the designated verifier
/// re-derives each operator circuit and checks its proof and chaining).
pub fn verify_interactive(params: &IpaParams, session: &InteractiveSession) -> Result<(), String> {
    // Registry of intermediate outputs: later rounds must consume exactly
    // what earlier rounds produced (the chaining check ZKSQL performs with
    // intermediate commitments).
    let mut registry: std::collections::HashMap<&str, &Table> = std::collections::HashMap::new();
    for round in &session.rounds {
        for (name, table) in &round.inputs {
            if name.starts_with("zk_tmp_") {
                if let Some(expected) = registry.get(name.as_str()) {
                    if *expected != table {
                        return Err(format!(
                            "round '{}' breaks the operator chain on {name}",
                            round.op
                        ));
                    }
                }
            }
        }
        let mut shape = Database::new();
        for (name, t) in &round.inputs {
            shape.add_table(name, t.clone());
        }
        let gates = GateSet {
            bitwise_ranges: true,
            ..GateSet::default()
        };
        let compiled = compile(&shape, &round.plan, None, gates)?;
        if compiled.asn.k != round.response.k {
            return Err("circuit size mismatch".to_string());
        }
        let params_k = params.truncate(round.response.k);
        let pk = keygen_pk_with(&params_k, &compiled.cs, &compiled.asn, Parallelism::auto());
        verify(
            &params_k,
            &pk.vk,
            &round.response.instance,
            &round.response.proof,
        )
        .map_err(|e| format!("round '{}': {e}", round.op))?;
        registry.insert(&round.output_name, &round.response.result);
    }
    Ok(())
}
