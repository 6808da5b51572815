//! The incremental-commitment update engine: row appends against a
//! committed database.
//!
//! The paper commits to a database once (§3.3, one Pedersen vector
//! commitment per column) and everything downstream treats that state as
//! frozen — any change meant re-committing every column from scratch.
//! But Pedersen commitments are *additively homomorphic*: the full
//! commitment of a column is `Σᵢ enc(vᵢ)·G[i mod n]` (the chunked form of
//! [`DatabaseCommitment::commit`]), so appending `k` rows is one MSM over
//! exactly the `k` new terms per column:
//!
//! ```text
//! C' = C + Σ_{i = len..len+k} enc(vᵢ)·G[i mod n]
//! ```
//!
//! cost `O(k)` instead of `O(n)`. This module provides the pieces:
//!
//! * [`RowBatch`] — a validated batch of rows destined for one table;
//! * [`DatabaseCommitment::append_rows`] — the homomorphic column update,
//!   returning each column's *delta commitment* (the batch's
//!   mini-commitment: exactly the group element added to the column);
//! * [`DeltaLog`] — the ordered history of applied batches for one
//!   database lineage, each entry carrying its mini-commitment and the
//!   pre/post digests, so an auditor can replay `digest₀ → digest₁ → …`;
//! * [`apply_append`] — the orchestrator keeping a `Database`, its
//!   commitment and its log in lock-step (with a `debug_assert` that the
//!   homomorphic update equals a fresh [`DatabaseCommitment::commit`]).
//!
//! Everything here is prover-side state; the serving layer
//! (`poneglyph-service`) wraps it in epoch-managed registry swaps and
//! precise proof-cache invalidation.

use crate::db::DatabaseCommitment;
use crate::encode::{encode_fq, MAX_VALUE};
use poneglyph_curve::{msm_with, PallasAffine};
use poneglyph_par::Parallelism;
use poneglyph_pcs::IpaParams;
use poneglyph_sql::Database;

/// Why a mutation was rejected. Mutations validate *before* touching any
/// state: a returned error guarantees the database, commitment and log are
/// unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// The target table does not exist in the database.
    UnknownTable(String),
    /// A row's width does not match the table schema.
    WidthMismatch {
        /// The target table.
        table: String,
        /// The table's column count.
        expected: usize,
        /// The offending row's value count.
        got: usize,
    },
    /// A value is outside the provable range `[0, 2^56 − 1)`.
    ValueOutOfRange {
        /// The target table.
        table: String,
        /// The offending value.
        value: i64,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            MutationError::WidthMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "row width {got} does not match table '{table}' width {expected}"
            ),
            MutationError::ValueOutOfRange { table, value } => write!(
                f,
                "value {value} for table '{table}' outside the provable range [0, 2^56-1)"
            ),
        }
    }
}

impl std::error::Error for MutationError {}

/// A batch of rows to append to one table (row-major).
///
/// A batch is pure data until [`validated`](Self::validate) against a
/// concrete database; empty batches are legal and append nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowBatch {
    /// The target table name.
    pub table: String,
    /// The rows, row-major; every row must match the table's width.
    pub rows: Vec<Vec<i64>>,
}

impl RowBatch {
    /// Build a batch.
    pub fn new(table: impl Into<String>, rows: Vec<Vec<i64>>) -> Self {
        Self {
            table: table.into(),
            rows,
        }
    }

    /// Total number of cells in the batch.
    pub fn cells(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    /// Check each row against an explicit column count and the provable
    /// value range, without needing the database.
    pub fn validate_width(&self, width: usize) -> Result<(), MutationError> {
        validate_rows(&self.table, &self.rows, width)
    }

    /// Check the batch against a database: the table must exist, every row
    /// must match its width, and every value must be in the provable
    /// range.
    pub fn validate(&self, db: &Database) -> Result<(), MutationError> {
        let table = db
            .table(&self.table)
            .ok_or_else(|| MutationError::UnknownTable(self.table.clone()))?;
        self.validate_width(table.schema.width())
    }

    /// Validate and append the batch's rows to the database (values only —
    /// the commitment update is [`DatabaseCommitment::append_rows`]).
    pub fn apply(&self, db: &mut Database) -> Result<(), MutationError> {
        self.validate(db)?;
        let table = db
            .tables
            .get_mut(&self.table)
            .expect("validated table exists");
        for row in &self.rows {
            table.push_row(row);
        }
        Ok(())
    }
}

/// Check every row against a column count and the provable value range
/// (`[0, 2^56 − 1)`), borrowing the rows — the shared validation behind
/// [`RowBatch::validate_width`] and [`DatabaseCommitment::append_rows`].
pub fn validate_rows(table: &str, rows: &[Vec<i64>], width: usize) -> Result<(), MutationError> {
    for row in rows {
        if row.len() != width {
            return Err(MutationError::WidthMismatch {
                table: table.to_string(),
                expected: width,
                got: row.len(),
            });
        }
        for &v in row {
            if v < 0 || (v as u64) >= MAX_VALUE {
                return Err(MutationError::ValueOutOfRange {
                    table: table.to_string(),
                    value: v,
                });
            }
        }
    }
    Ok(())
}

impl DatabaseCommitment {
    /// Homomorphically fold a batch of appended rows into this commitment:
    /// one MSM over only the new rows' encoded cells per column, then the
    /// row count bump — cost `O(batch)` instead of the `O(table)` of a
    /// fresh [`commit`](Self::commit).
    ///
    /// New cells land at global indices `len..len+k`, so cell `i` pairs
    /// with generator `G[i mod n]` — exactly the generator a fresh
    /// chunked commit would assign it, which is what makes the result
    /// bit-identical to re-committing (asserted in debug builds by
    /// [`matches`](Self::matches) callers, proven by the equivalence
    /// tests).
    ///
    /// Returns each column's *delta commitment* — the group element added,
    /// i.e. the batch's mini-commitment recorded in the [`DeltaLog`].
    /// Errors leave the commitment untouched.
    pub fn append_rows(
        &mut self,
        params: &IpaParams,
        table: &str,
        rows: &[Vec<i64>],
    ) -> Result<Vec<PallasAffine>, MutationError> {
        let width = self
            .columns
            .get(table)
            .ok_or_else(|| MutationError::UnknownTable(table.to_string()))?
            .len();
        validate_rows(table, rows, width)?;
        let base = *self.sizes.get(table).expect("sizes mirror columns");

        // The positioned generators are shared by every column: cell r of
        // any column lands at global index base + r.
        let bases: Vec<PallasAffine> = (0..rows.len())
            .map(|r| params.g[(base + r) % params.n])
            .collect();
        let comms = self.columns.get_mut(table).expect("checked above");
        let mut deltas = Vec::with_capacity(width);
        for (j, comm) in comms.iter_mut().enumerate() {
            let scalars: Vec<_> = rows.iter().map(|row| encode_fq(row[j])).collect();
            let delta = msm_with(&scalars, &bases, Parallelism::auto());
            *comm = comm.to_projective().add(&delta).to_affine();
            deltas.push(delta.to_affine());
        }
        *self.sizes.get_mut(table).expect("sizes mirror columns") += rows.len();
        Ok(deltas)
    }

    /// True when this commitment equals a fresh [`commit`](Self::commit)
    /// of `db` — the homomorphic-append equivalence, checked via
    /// `debug_assert!` on every [`apply_append`] (an `O(n)` recompute, so
    /// debug builds only).
    pub fn matches(&self, params: &IpaParams, db: &Database) -> bool {
        *self == DatabaseCommitment::commit(params, db)
    }
}

/// One applied append batch: what changed, the mini-commitment of the
/// change, and the digest transition it caused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedDelta {
    /// Position in the log (0-based; the post-state's mutation epoch is
    /// `seq + 1`).
    pub seq: u64,
    /// The table appended to.
    pub table: String,
    /// Number of rows appended.
    pub rows: usize,
    /// Per-column delta commitments — the group elements homomorphically
    /// added to the column commitments (the batch's mini-commitment).
    pub delta_commitments: Vec<PallasAffine>,
    /// Digest of the database state before the append.
    pub pre_digest: [u8; 64],
    /// Digest after the append (what the registry now advertises).
    pub post_digest: [u8; 64],
}

/// How many [`AppliedDelta`] entries a [`DeltaLog`] retains in memory.
/// Older entries are dropped (counted, and the chain's resume digest
/// kept, so the epoch and chain invariant survive) — an always-appending
/// server must not grow its audit log without bound.
pub const DELTA_LOG_RETAIN: usize = 1024;

/// The ordered append history of one database lineage.
///
/// Each entry's `post_digest` is the next entry's `pre_digest`, so the log
/// is a verifiable chain from the originally published digest to the
/// currently served one; the number of batches ever applied is the
/// lineage's *mutation epoch*. Only the most recent [`DELTA_LOG_RETAIN`]
/// entries are kept in memory; [`dropped`](Self::dropped) counts the
/// truncated prefix (the epoch includes it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaLog {
    entries: Vec<AppliedDelta>,
    /// Entries truncated off the front of the retained window.
    dropped: u64,
    /// `post_digest` of the last truncated entry — where the retained
    /// chain resumes.
    resume_digest: Option<[u8; 64]>,
}

impl DeltaLog {
    /// An empty log (epoch 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of batches ever applied — the lineage's mutation epoch
    /// (including entries truncated out of the retained window).
    pub fn epoch(&self) -> u64 {
        self.dropped + self.entries.len() as u64
    }

    /// True when no batch has ever been applied.
    pub fn is_empty(&self) -> bool {
        self.epoch() == 0
    }

    /// The retained applied batches, oldest first.
    pub fn entries(&self) -> &[AppliedDelta] {
        &self.entries
    }

    /// How many old entries were truncated off the retained window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The digest the chain currently ends at, if any batch was applied.
    pub fn latest_digest(&self) -> Option<[u8; 64]> {
        self.entries
            .last()
            .map(|e| e.post_digest)
            .or(self.resume_digest)
    }

    /// Append an entry; enforces the chain invariant against the previous
    /// entry's post-digest and truncates beyond [`DELTA_LOG_RETAIN`].
    pub fn record(&mut self, delta: AppliedDelta) {
        if let Some(prev) = self.latest_digest() {
            assert_eq!(prev, delta.pre_digest, "delta log must chain digests");
        }
        assert_eq!(delta.seq, self.epoch(), "delta log sequence must be dense");
        self.entries.push(delta);
        if self.entries.len() > DELTA_LOG_RETAIN {
            let excess = self.entries.len() - DELTA_LOG_RETAIN;
            self.resume_digest = Some(self.entries[excess - 1].post_digest);
            self.entries.drain(..excess);
            self.dropped += excess as u64;
        }
    }
}

/// Apply one append batch to a `(database, commitment, log)` triple,
/// keeping all three in lock-step: validate, append the rows, fold the
/// homomorphic update, record the delta. Returns the applied entry.
///
/// In debug builds the updated commitment is asserted bit-identical to a
/// fresh [`DatabaseCommitment::commit`] of the mutated database.
pub fn apply_append(
    params: &IpaParams,
    db: &mut Database,
    commitment: &mut DatabaseCommitment,
    log: &mut DeltaLog,
    batch: &RowBatch,
) -> Result<AppliedDelta, MutationError> {
    batch.validate(db)?;
    let pre_digest = commitment.digest();
    batch.apply(db)?;
    let delta_commitments = commitment.append_rows(params, &batch.table, &batch.rows)?;
    let post_digest = commitment.digest();
    debug_assert!(
        commitment.matches(params, db),
        "homomorphic append must equal a fresh commit"
    );
    let delta = AppliedDelta {
        seq: log.epoch(),
        table: batch.table.clone(),
        rows: batch.rows.len(),
        delta_commitments,
        pre_digest,
        post_digest,
    };
    log.record(delta.clone());
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_sql::{ColumnType, Schema, Table};

    fn demo_db() -> Database {
        let mut db = Database::new();
        let mut t = Table::empty(Schema::new(&[
            ("id", ColumnType::Int),
            ("val", ColumnType::Int),
        ]));
        for (id, val) in [(1, 10), (2, 20), (3, 30)] {
            t.push_row(&[id, val]);
        }
        db.add_table("t", t);
        db
    }

    #[test]
    fn append_equals_fresh_commit() {
        let params = IpaParams::setup(6);
        let mut db = demo_db();
        let mut commitment = DatabaseCommitment::commit(&params, &db);
        let mut log = DeltaLog::new();
        let batch = RowBatch::new("t", vec![vec![4, 40], vec![5, 50]]);
        let pre = commitment.digest();
        let delta = apply_append(&params, &mut db, &mut commitment, &mut log, &batch)
            .expect("append applies");
        assert_eq!(delta.pre_digest, pre);
        assert_eq!(delta.post_digest, commitment.digest());
        assert_ne!(pre, delta.post_digest, "appending rows moves the digest");
        assert_eq!(commitment, DatabaseCommitment::commit(&params, &db));
        assert_eq!(db.table("t").unwrap().len(), 5);
        assert_eq!(log.epoch(), 1);
        assert_eq!(log.latest_digest(), Some(delta.post_digest));
    }

    #[test]
    fn empty_batch_is_identity() {
        let params = IpaParams::setup(6);
        let mut db = demo_db();
        let mut commitment = DatabaseCommitment::commit(&params, &db);
        let mut log = DeltaLog::new();
        let pre = commitment.digest();
        let delta = apply_append(
            &params,
            &mut db,
            &mut commitment,
            &mut log,
            &RowBatch::new("t", vec![]),
        )
        .expect("empty batch applies");
        assert_eq!(delta.post_digest, pre, "empty append keeps the digest");
        assert_eq!(log.epoch(), 1, "but is still a logged mutation");
    }

    #[test]
    fn errors_leave_state_untouched() {
        let params = IpaParams::setup(6);
        let mut db = demo_db();
        let mut commitment = DatabaseCommitment::commit(&params, &db);
        let mut log = DeltaLog::new();
        let pre = commitment.clone();

        let missing = RowBatch::new("nope", vec![vec![1, 2]]);
        assert_eq!(
            apply_append(&params, &mut db, &mut commitment, &mut log, &missing),
            Err(MutationError::UnknownTable("nope".into()))
        );
        let ragged = RowBatch::new("t", vec![vec![1, 2], vec![3]]);
        assert!(matches!(
            apply_append(&params, &mut db, &mut commitment, &mut log, &ragged),
            Err(MutationError::WidthMismatch { got: 1, .. })
        ));
        let negative = RowBatch::new("t", vec![vec![-5, 2]]);
        assert!(matches!(
            apply_append(&params, &mut db, &mut commitment, &mut log, &negative),
            Err(MutationError::ValueOutOfRange { value: -5, .. })
        ));

        assert_eq!(commitment, pre, "rejected batches change nothing");
        assert_eq!(db.table("t").unwrap().len(), 3);
        assert!(log.is_empty());
    }

    #[test]
    fn delta_log_truncates_but_keeps_epoch_and_chain() {
        let mut log = DeltaLog::new();
        let digest_for = |i: u64| {
            let mut d = [0u8; 64];
            d[..8].copy_from_slice(&i.to_le_bytes());
            d
        };
        let total = DELTA_LOG_RETAIN as u64 + 10;
        for i in 0..total {
            log.record(AppliedDelta {
                seq: i,
                table: "t".into(),
                rows: 1,
                delta_commitments: Vec::new(),
                pre_digest: digest_for(i),
                post_digest: digest_for(i + 1),
            });
        }
        assert_eq!(log.epoch(), total, "epoch counts truncated entries");
        assert_eq!(log.entries().len(), DELTA_LOG_RETAIN);
        assert_eq!(log.dropped(), 10);
        assert_eq!(log.latest_digest(), Some(digest_for(total)));
        assert_eq!(
            log.entries()[0].pre_digest,
            digest_for(10),
            "retained window resumes where the truncated prefix ended"
        );
        assert!(!log.is_empty());
    }

    #[test]
    fn chunk_crossing_append_matches() {
        // n = 4: the table grows from 3 rows across the 4-row chunk
        // boundary, so new cells straddle two generator chunks.
        let params = IpaParams::setup(2);
        let mut db = demo_db();
        let mut commitment = DatabaseCommitment::commit(&params, &db);
        let batch: Vec<Vec<i64>> = (0..6).map(|i| vec![10 + i, 100 + i]).collect();
        commitment
            .append_rows(&params, "t", &batch)
            .expect("append crosses the chunk boundary");
        for row in &batch {
            db.tables.get_mut("t").unwrap().push_row(row);
        }
        assert!(commitment.matches(&params, &db));
    }
}
