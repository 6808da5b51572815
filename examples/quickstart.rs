//! Quickstart: commit to a private database, answer a SQL query with a
//! zero-knowledge proof, and verify it from public information only.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use poneglyphdb::prelude::*;
use poneglyphdb::sql::{ColumnType, Schema, Table};
use rand::SeedableRng;

fn main() {
    // The prover's private database: employee salaries.
    let mut db = Database::new();
    let mut employees = Table::empty(Schema::new(&[
        ("emp_id", ColumnType::Int),
        ("dept", ColumnType::Int),
        ("salary", ColumnType::Decimal),
    ]));
    for (id, dept, salary_cents) in [
        (1, 10, 520_000),
        (2, 10, 610_000),
        (3, 20, 470_000),
        (4, 20, 880_000),
        (5, 20, 730_000),
        (6, 30, 910_000),
    ] {
        employees.push_row(&[id, dept, salary_cents]);
    }
    db.add_table("employees", employees);

    // Public parameters: no trusted setup, derived from public randomness.
    let params = IpaParams::setup(10);

    // 1. The prover commits to the database; the digest goes to an
    //    immutable registry (the paper's blockchain).
    let commitment = DatabaseCommitment::commit(&params, &db);
    let mut registry = CommitmentRegistry::new();
    registry
        .publish("acme-hr-2026-06", commitment.digest())
        .expect("publish");

    // 2. A client asks: average salary per department (paper §2.1's
    //    motivating example) — without seeing any individual salary.
    let catalog = catalog_of(&db, &[("employees", "emp_id")]);
    let sql = "SELECT dept, AVG(salary) AS avg_salary, COUNT(*) AS headcount \
               FROM employees GROUP BY dept ORDER BY dept";
    let stmt = parse(sql).expect("parse");
    let mut dict = db.dict.clone();
    let plan = plan_query(&stmt, &catalog, &mut dict).expect("plan");

    // 3. The prover opens a long-lived session over its private database
    //    and answers with a non-interactive ZK proof (keygen + prove).
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let prover = ProverSession::new(params.clone(), db.clone());
    let response = prover.prove(&plan, &mut rng).expect("prove");
    println!(
        "proof: {} bytes for a 2^{} circuit",
        response.proof_size(),
        response.k
    );

    // 4. The verifier session re-derives the circuit from public
    //    information only (the query + table sizes), caches the verifying
    //    key, and checks the proof.
    let verifier = VerifierSession::new(params, database_shape(&db));
    let result = verifier.verify(&plan, &response).expect("verify");
    println!("verified result:");
    for r in 0..result.len() {
        let row = result.row(r);
        println!(
            "  dept {:>2}: avg salary ${:.2}, headcount {}",
            row[0],
            row[1] as f64 / 100.0,
            row[2]
        );
    }
}
