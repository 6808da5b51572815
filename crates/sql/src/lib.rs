//! # poneglyph-sql
//!
//! The SQL frontend for PoneglyphDB: a lexer, parser and planner for the
//! single-block SQL subset the paper evaluates (filters, PK–FK joins,
//! group-by with aggregation, having, order-by, limit, arithmetic, CASE,
//! EXTRACT(YEAR), date/interval literals), plus an in-memory executor whose
//! per-operator trace is the witness the circuit compiler consumes.
//!
//! All values are 64-bit integers, matching the paper's conversion of
//! floating-point data ("We converted all floating point operations to
//! 64-bit integer ones", §5.1): decimals are scaled by 100, dates are
//! days-since-epoch, strings are dictionary-encoded.

#![warn(missing_docs)]

mod executor;
mod lexer;
mod parser;
mod plan;
mod planner;
mod types;
mod wire;

pub use executor::{execute, ExecError, Executed};
pub use lexer::{lex, Token};
pub use parser::{parse, AstExpr, AstPredicate, ColRef, SelectItem, SelectStmt};
pub use plan::{
    epoch_days, year_of_epoch_days, AggFunc, Aggregate, CmpOp, Plan, Predicate, ScalarExpr,
};
pub use planner::{plan_query, Catalog};
pub use types::{ColumnType, Database, Schema, StringDict, Table, VALUE_BOUND};
pub use wire::{
    canonical_plan, canonical_plan_fingerprint, plan_fingerprint, plan_from_bytes, plan_to_bytes,
    write_string, ByteReader, WireError, PLAN_WIRE_VERSION,
};

/// Build a [`Catalog`] from a database plus primary-key annotations.
pub fn catalog_of(db: &Database, pks: &[(&str, &str)]) -> Catalog {
    let mut c = Catalog::default();
    for (name, table) in &db.tables {
        c.schemas.insert(name.clone(), table.schema.clone());
    }
    for (t, k) in pks {
        c.pks.insert(t.to_string(), k.to_string());
    }
    c
}
