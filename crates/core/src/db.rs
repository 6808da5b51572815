//! The PoneglyphDB system API: database commitments (workflow step 2) and
//! the response and error types of query proving (steps 3–4) and
//! verification (step 5) — Figure 2 of the paper. The sessions run those
//! steps.

use crate::compiler::{compile, GateSet};
use crate::encode::encode_fq;
use poneglyph_arith::Fq;
use poneglyph_curve::PallasAffine;
use poneglyph_hash::Blake2b;
use poneglyph_par::Parallelism;
use poneglyph_pcs::IpaParams;
use poneglyph_plonkish::{mock_prove, Proof};
use poneglyph_sql::{execute, Database, Plan, Table};
use std::collections::BTreeMap;

/// A binding cryptographic commitment to a database state (paper §3.3):
/// one Pedersen vector commitment per column, plus a digest that is what
/// gets published to the immutable registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatabaseCommitment {
    /// Per table, per column commitments.
    pub columns: BTreeMap<String, Vec<PallasAffine>>,
    /// Row count per table (public).
    pub sizes: BTreeMap<String, usize>,
}

impl DatabaseCommitment {
    /// Commit to every column of every table (the cost reported in the
    /// paper's Table 3).
    pub fn commit(params: &IpaParams, db: &Database) -> Self {
        let mut columns = BTreeMap::new();
        let mut sizes = BTreeMap::new();
        for (name, table) in &db.tables {
            let mut comms = Vec::with_capacity(table.cols.len());
            for col in &table.cols {
                // Commit in chunks of the parameter capacity.
                let mut acc = poneglyph_curve::Pallas::identity();
                for chunk in col.chunks(params.n) {
                    let encoded: Vec<Fq> = chunk.iter().map(|v| encode_fq(*v)).collect();
                    acc = acc.add(&params.commit_with(&encoded, Fq::ZERO, Parallelism::auto()));
                }
                comms.push(acc.to_affine());
            }
            columns.insert(name.clone(), comms);
            sizes.insert(name.clone(), table.len());
        }
        Self { columns, sizes }
    }

    /// The 64-byte digest published to the registry.
    pub fn digest(&self) -> [u8; 64] {
        let mut h = Blake2b::new();
        for (name, comms) in &self.columns {
            h.update(name.as_bytes());
            for c in comms {
                h.update(&c.to_bytes());
            }
        }
        for (name, size) in &self.sizes {
            h.update(name.as_bytes());
            h.update(&(*size as u64).to_le_bytes());
        }
        h.finalize()
    }
}

/// An append-only, content-addressed bulletin board standing in for the
/// immutable public ledger (e.g. Ethereum) of §3.3: once published, a
/// commitment digest cannot be replaced.
#[derive(Default, Debug)]
pub struct CommitmentRegistry {
    entries: Vec<(String, [u8; 64])>,
}

impl CommitmentRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a digest under a label. Returns `Err` if the label is taken
    /// with a different digest (immutability).
    pub fn publish(&mut self, label: &str, digest: [u8; 64]) -> Result<(), String> {
        if let Some((_, existing)) = self.entries.iter().find(|(l, _)| l == label) {
            if *existing != digest {
                return Err(format!(
                    "label '{label}' already bound to a different digest"
                ));
            }
            return Ok(());
        }
        self.entries.push((label.to_string(), digest));
        Ok(())
    }

    /// Look up a published digest.
    pub fn lookup(&self, label: &str) -> Option<[u8; 64]> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| *d)
    }
}

/// The prover's answer to a query: the result, the public instance the
/// proof is bound to, and the proof itself.
///
/// Leaves the process via [`QueryResponse::to_bytes`] /
/// [`QueryResponse::from_bytes`] (the versioned wire format served by
/// `poneglyph-service`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResponse {
    /// The claimed query result.
    pub result: Table,
    /// The public instance (real bits + masked output columns).
    pub instance: Vec<Vec<Fq>>,
    /// The non-interactive proof.
    pub proof: Proof,
    /// log2 of the circuit size used.
    pub k: u32,
}

impl QueryResponse {
    /// Serialized proof size in bytes (Table 4 metric).
    pub fn proof_size(&self) -> usize {
        self.proof.size_in_bytes()
    }

    /// Approximate serialized size of the whole response, without
    /// allocating: the weight a byte-budgeted response cache charges for
    /// holding this entry.
    pub fn approx_bytes(&self) -> usize {
        let instance: usize = self.instance.iter().map(|col| 4 + col.len() * 32).sum();
        let result = self.result.len() * self.result.schema.width() * 8;
        64 + result + instance + self.proof_size()
    }
}

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum DbError {
    /// Planning/compilation failed.
    Compile(String),
    /// Execution failed.
    Execute(String),
    /// Constraints unsatisfied (circuit bug or bad witness).
    Constraint(String),
    /// Proving failed.
    Prove(String),
    /// Verification failed.
    Verify(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Compile(e) => write!(f, "compile: {e}"),
            DbError::Execute(e) => write!(f, "execute: {e}"),
            DbError::Constraint(e) => write!(f, "constraint: {e}"),
            DbError::Prove(e) => write!(f, "prove: {e}"),
            DbError::Verify(e) => write!(f, "verify: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Check a query circuit's constraints without proving (fast debugging).
pub fn check_query(db: &Database, plan: &Plan) -> Result<(), DbError> {
    let trace = execute(db, plan).map_err(|e| DbError::Execute(e.to_string()))?;
    let compiled = compile(db, plan, Some(&trace), GateSet::default()).map_err(DbError::Compile)?;
    mock_prove(&compiled.cs, &compiled.asn).map_err(|errs| {
        DbError::Constraint(
            errs.iter()
                .take(5)
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
    })
}

/// A shape-only copy of a database (correct schemas and row counts, zeroed
/// values) — everything the verifier needs to re-derive the circuit.
pub fn database_shape(db: &Database) -> Database {
    let mut shape = Database::new();
    shape.dict = db.dict.clone();
    for (name, t) in &db.tables {
        let mut zt = Table::empty(t.schema.clone());
        let zero = vec![0i64; t.schema.width()];
        for _ in 0..t.len() {
            zt.push_row(&zero);
        }
        shape.add_table(name, zt);
    }
    shape
}
