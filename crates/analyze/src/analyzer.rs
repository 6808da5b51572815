//! The static circuit-soundness analyzer.
//!
//! Operates on a [`ConstraintSystem`] — and, when available, the structural
//! half of an [`Assignment`] (fixed-column values and copy constraints, both
//! of which depend only on the query plan and public table sizes) — and
//! reports [`Finding`]s without running the prover. The mock prover only
//! validates *assigned* values against the constraints that exist; it cannot
//! see a constraint that is missing. This pass closes that gap: an advice
//! column no gate ever queries, a selector that is never set, a rotation
//! that reads the blinding region — all invisible to `mock_prove`, all
//! soundness or completeness bugs, all caught here.
//!
//! ## Detector catalog
//!
//! | class | severity | what it proves is absent |
//! |-------|----------|--------------------------|
//! | [`Detector::UnconstrainedAdvice`] | Deny | advice columns no active gate, lookup, shuffle or anchored copy chain touches — a prover can put anything there |
//! | [`Detector::DeadColumn`] | Warn/Deny | unused fixed columns (cost), unbound instance columns (ignored public input — Deny), dangling column indices (Deny) |
//! | [`Detector::DuplicateConstraint`] | Warn | structurally identical gate polynomials / lookups / shuffles (wasted quotient work, copy-paste smell) |
//! | [`Detector::DegreeBound`] | Warn/Deny | identity degrees (read off `plonkish::identities`, per gate poly / permutation chunk / lookup / shuffle) beyond the quotient extension the domain provides, or beyond the field's 2-adicity at the given `k` |
//! | [`Detector::RotationRange`] | Deny | queries whose rotation escapes the usable-row region into the blinding rows on some active row |
//! | [`Detector::TrivialGate`] | Deny | constraints that are identically zero on every usable row (a selector never set, a vacuous lookup) — they look like protection and prove nothing |
//! | [`Detector::LookupShape`] | Deny | arity mismatches, empty arguments, fixed tables that cover only the zero tuple, ungated inputs whose zero rows the table cannot absorb |
//!
//! Findings carry provenance (gate/argument subject, column, rotation,
//! example row) and can be waived per-subject through the
//! [`AnalyzerConfig`] allow-list — every waiver requires a written reason.

use poneglyph_arith::PrimeField;
use poneglyph_plonkish::{
    identities, Assignment, Cell, Column, ColumnKind, ConstraintSystem, Expression, Origin,
    BLINDING_ROWS,
};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// The detector classes of the analyzer (see the module docs for the
/// catalog).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Detector {
    /// Advice columns constrained by nothing.
    UnconstrainedAdvice,
    /// Dead fixed/instance columns and dangling column references.
    DeadColumn,
    /// Structurally identical constraints registered more than once.
    DuplicateConstraint,
    /// Constraint degrees vs the quotient argument's capacity.
    DegreeBound,
    /// Query rotations escaping the usable-row region.
    RotationRange,
    /// Identically-zero constraints that prove nothing.
    TrivialGate,
    /// Lookup/shuffle arity and table-coverage defects.
    LookupShape,
}

impl fmt::Display for Detector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Detector::UnconstrainedAdvice => "unconstrained-advice",
            Detector::DeadColumn => "dead-column",
            Detector::DuplicateConstraint => "duplicate-constraint",
            Detector::DegreeBound => "degree-bound",
            Detector::RotationRange => "rotation-range",
            Detector::TrivialGate => "trivial-gate",
            Detector::LookupShape => "lookup-shape",
        };
        f.write_str(s)
    }
}

/// How serious a finding is. `Deny` findings fail the `analyze` binary and
/// [`crate::verify_full`]; `Warn` findings are reported but do not fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Reported, but does not fail the build.
    Warn,
    /// A soundness- or correctness-critical defect: fails the build unless
    /// explicitly allow-listed with a reason.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One analyzer finding with provenance.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which detector fired.
    pub detector: Detector,
    /// Deny or Warn.
    pub severity: Severity,
    /// Canonical subject key, e.g. `advice[3]`, `gate[div@7]#0`,
    /// `lookup[u8@2]`, `shuffle[sort-perm@0]`, `system`. Allow-list entries
    /// match against this.
    pub subject: String,
    /// Human-readable description of the defect.
    pub detail: String,
    /// The column involved, when the finding is column-shaped.
    pub column: Option<Column>,
    /// The offending rotation, for rotation-range findings.
    pub rotation: Option<i32>,
    /// An example row demonstrating the defect, when one exists.
    pub row: Option<usize>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {}: {}",
            self.severity, self.detector, self.subject, self.detail
        )
    }
}

/// An allow-list entry: waives findings of one detector class whose subject
/// matches exactly, or by prefix when the pattern ends in `*`. The reason is
/// mandatory and is echoed in reports — an unexplained waiver is a review
/// failure, not a configuration.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// The detector class being waived.
    pub detector: Detector,
    /// Subject key or `prefix*` pattern.
    pub subject: String,
    /// Why this exception is sound (shown in reports).
    pub reason: String,
}

/// Warn when a single identity's degree exceeds this: the extension factor
/// the shipped TPC-H circuits already require.
const WARN_DEGREE: usize = 8;

/// Analyzer configuration: the allow-list.
#[derive(Clone, Debug, Default)]
pub struct AnalyzerConfig {
    /// Waived findings (see [`AllowEntry`]).
    pub allow: Vec<AllowEntry>,
}

impl AnalyzerConfig {
    /// An empty configuration (nothing waived).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an allow-list entry (builder style).
    pub fn allowing(
        mut self,
        detector: Detector,
        subject: impl Into<String>,
        reason: impl Into<String>,
    ) -> Self {
        self.allow.push(AllowEntry {
            detector,
            subject: subject.into(),
            reason: reason.into(),
        });
        self
    }

    fn allow_reason(&self, finding: &Finding) -> Option<&str> {
        self.allow
            .iter()
            .find(|e| {
                e.detector == finding.detector
                    && match e.subject.strip_suffix('*') {
                        Some(prefix) => finding.subject.starts_with(prefix),
                        None => e.subject == finding.subject,
                    }
            })
            .map(|e| e.reason.as_str())
    }
}

/// The analyzer's output: active findings plus waived ones (with the waiver
/// reason attached).
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Findings not covered by the allow-list, Deny first.
    pub findings: Vec<Finding>,
    /// Findings waived by the allow-list, with the entry's reason.
    pub allowed: Vec<(Finding, String)>,
}

impl AnalysisReport {
    /// Number of active Deny findings.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Number of active Warn findings.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// No active Deny findings (Warns may remain).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// No active findings at all.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Iterate findings of one detector class.
    pub fn of(&self, detector: Detector) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.detector == detector)
    }

    /// Whether any active finding of the class exists.
    pub fn has(&self, detector: Detector) -> bool {
        self.of(detector).next().is_some()
    }

    /// Render the report for terminals and logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        for (f, reason) in &self.allowed {
            out.push_str(&format!("[allowed] {f} (waiver: {reason})\n"));
        }
        if self.findings.is_empty() && self.allowed.is_empty() {
            out.push_str("clean: no findings\n");
        }
        out
    }
}

/// What the analyzer sees: the constraint system plus as much structural
/// context as the caller has. Fixed-column values and copy constraints are
/// *structure* in PoneglyphDB (they depend only on the plan and the public
/// table sizes — the verifier derives them independently), so circuit-level
/// callers should always supply them via [`CircuitView::with_assignment`];
/// the shape-only constructor exists for constraint-system-level tooling.
#[derive(Clone, Copy)]
pub struct CircuitView<'a, F: PrimeField> {
    /// The circuit shape under analysis.
    pub cs: &'a ConstraintSystem<F>,
    /// log2 of the row count, when known.
    pub k: Option<u32>,
    /// Fixed-column values (row-major per column), when known.
    pub fixed: Option<&'a [Vec<F>]>,
    /// Copy constraints, when known.
    pub copies: Option<&'a [(Cell, Cell)]>,
    /// The constraint degree the quotient domain was actually built for,
    /// when the caller wants it audited against the circuit's own needs.
    pub quotient_degree: Option<usize>,
}

impl<'a, F: PrimeField> CircuitView<'a, F> {
    /// Analyze the constraint system alone (weakest mode: row-level
    /// activity, rotation precision and table coverage are unavailable).
    pub fn shape(cs: &'a ConstraintSystem<F>) -> Self {
        Self {
            cs,
            k: None,
            fixed: None,
            copies: None,
            quotient_degree: None,
        }
    }

    /// Analyze with the structural half of an assignment: `k`, fixed
    /// columns and copy constraints. Advice and instance *values* are never
    /// read — a structure-mode (verifier-side) assignment is sufficient.
    pub fn with_assignment(cs: &'a ConstraintSystem<F>, asn: &'a Assignment<F>) -> Self {
        Self {
            cs,
            k: Some(asn.k),
            fixed: Some(&asn.fixed),
            copies: Some(&asn.copies),
            quotient_degree: None,
        }
    }

    /// Audit constraint degrees against an explicitly-provided quotient
    /// extension degree (builder style).
    pub fn with_quotient_degree(mut self, degree: usize) -> Self {
        self.quotient_degree = Some(degree);
        self
    }

    fn n(&self) -> Option<usize> {
        self.k.map(|k| 1usize << k)
    }

    fn usable_rows(&self) -> Option<usize> {
        self.n().map(|n| n.saturating_sub(BLINDING_ROWS + 1))
    }
}

// ---------------------------------------------------------------------------
// Fixed-skeleton evaluation
// ---------------------------------------------------------------------------

/// Abstract value of an expression at one row when only the fixed columns
/// are known: either an exact field element (constants and fixed queries
/// compose to one) or `Unknown` (some advice/instance query survives).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sk<F> {
    Known(F),
    Unknown,
}

impl<F: PrimeField> Sk<F> {
    fn zero() -> Self {
        Sk::Known(F::ZERO)
    }
    fn is_zero(&self) -> bool {
        matches!(self, Sk::Known(v) if v.is_zero())
    }
}

fn wrap_row(row: usize, rotation: i32, n: usize) -> usize {
    ((row as i64 + rotation as i64).rem_euclid(n as i64)) as usize
}

/// Evaluate the fixed skeleton of `e` at `row`: zero-products propagate
/// exactly (a cleared selector kills the whole term), so the result is
/// `Known(0)` precisely on the rows where the constraint is structurally
/// inert regardless of the witness.
fn skeleton<F: PrimeField>(e: &Expression<F>, fixed: &[Vec<F>], n: usize, row: usize) -> Sk<F> {
    match e {
        Expression::Constant(c) => Sk::Known(*c),
        // `X` itself: value varies per row and is never zero on the coset;
        // treating it as Unknown is sound (it can only over-approximate
        // activity, never hide it).
        Expression::Identity => Sk::Unknown,
        Expression::Var(q) => match q.column.kind {
            ColumnKind::Fixed => match fixed.get(q.column.index) {
                Some(col) => Sk::Known(col[wrap_row(row, q.rotation.0, n)]),
                // Dangling index: reported by the dead-column detector.
                None => Sk::Unknown,
            },
            _ => Sk::Unknown,
        },
        Expression::Negated(inner) => match skeleton(inner, fixed, n, row) {
            Sk::Known(v) => Sk::Known(F::ZERO - v),
            Sk::Unknown => Sk::Unknown,
        },
        Expression::Sum(a, b) => match (skeleton(a, fixed, n, row), skeleton(b, fixed, n, row)) {
            (Sk::Known(x), Sk::Known(y)) => Sk::Known(x + y),
            _ => Sk::Unknown,
        },
        Expression::Product(a, b) => {
            let sa = skeleton(a, fixed, n, row);
            if sa.is_zero() {
                return Sk::zero();
            }
            let sb = skeleton(b, fixed, n, row);
            if sb.is_zero() {
                return Sk::zero();
            }
            match (sa, sb) {
                (Sk::Known(x), Sk::Known(y)) => Sk::Known(x * y),
                _ => Sk::Unknown,
            }
        }
        Expression::Scaled(inner, s) => {
            if s.is_zero() {
                return Sk::zero();
            }
            match skeleton(inner, fixed, n, row) {
                Sk::Known(v) => Sk::Known(v * *s),
                Sk::Unknown => Sk::Unknown,
            }
        }
    }
}

/// Row-by-row skeleton scan of one expression over the usable region.
struct ExprScan<F> {
    /// Rows (in `[0, usable)`) where the expression is not structurally zero.
    active: usize,
    min_active: usize,
    max_active: usize,
    /// Exact per-row values when the expression is fixed-only.
    values: Option<Vec<F>>,
}

fn scan_expr<F: PrimeField>(
    e: &Expression<F>,
    fixed: &[Vec<F>],
    n: usize,
    usable: usize,
) -> ExprScan<F> {
    let mut active = 0usize;
    let mut min_active = usize::MAX;
    let mut max_active = 0usize;
    let mut values: Option<Vec<F>> = Some(Vec::with_capacity(usable));
    for row in 0..usable {
        let sk = skeleton(e, fixed, n, row);
        match sk {
            Sk::Known(v) => {
                if let Some(vals) = values.as_mut() {
                    vals.push(v);
                }
                if !v.is_zero() {
                    active += 1;
                    min_active = min_active.min(row);
                    max_active = max_active.max(row);
                }
            }
            Sk::Unknown => {
                values = None;
                active += 1;
                min_active = min_active.min(row);
                max_active = max_active.max(row);
            }
        }
    }
    ExprScan {
        active,
        min_active,
        max_active,
        values,
    }
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

struct Collector<'c> {
    config: &'c AnalyzerConfig,
    findings: Vec<Finding>,
    allowed: Vec<(Finding, String)>,
}

impl Collector<'_> {
    fn push(&mut self, finding: Finding) {
        match self.config.allow_reason(&finding) {
            Some(reason) => self.allowed.push((finding, reason.to_string())),
            None => self.findings.push(finding),
        }
    }

    fn report(
        &mut self,
        detector: Detector,
        severity: Severity,
        subject: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.push(Finding {
            detector,
            severity,
            subject: subject.into(),
            detail: detail.into(),
            column: None,
            rotation: None,
            row: None,
        });
    }
}

fn column_subject(c: Column) -> String {
    format!("{:?}[{}]", c.kind, c.index).to_lowercase()
}

/// Column-usage markers built up while walking every constraint.
struct Usage {
    fixed: Vec<bool>,
    advice: Vec<bool>,
    instance: Vec<bool>,
}

impl Usage {
    fn mark(&mut self, c: Column, out: &mut Collector<'_>, subject: &str) {
        // A circuit may only name its own three kinds of column.
        let slots: &mut [bool] = match c.kind {
            ColumnKind::Fixed => &mut self.fixed,
            ColumnKind::Advice => &mut self.advice,
            ColumnKind::Instance => &mut self.instance,
            _ => &mut [],
        };
        let allocated = slots.len();
        match slots.get_mut(c.index) {
            Some(s) => *s = true,
            None => out.push(Finding {
                detector: Detector::DeadColumn,
                severity: Severity::Deny,
                subject: subject.to_string(),
                detail: format!(
                    "query references nonexistent column {} (only {allocated} allocated)",
                    column_subject(c),
                ),
                column: Some(c),
                rotation: None,
                row: None,
            }),
        }
    }
}

/// Simple union-find over column ids for the copy-constraint graph.
struct ColumnSets {
    parent: Vec<usize>,
}

impl ColumnSets {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Run every detector over `view` and return the report. This is the main
/// entry point of the crate; [`crate::AnalyzeCircuit::analyze`] and
/// [`crate::verify_full`] are conveniences over it.
pub fn analyze<F: PrimeField>(
    view: &CircuitView<'_, F>,
    config: &AnalyzerConfig,
) -> AnalysisReport {
    let cs = view.cs;
    let mut out = Collector {
        config,
        findings: Vec::new(),
        allowed: Vec::new(),
    };
    let mut usage = Usage {
        fixed: vec![false; cs.num_fixed],
        advice: vec![false; cs.num_advice],
        instance: vec![false; cs.num_instance],
    };
    let skel = match (view.fixed, view.n(), view.usable_rows()) {
        (Some(fixed), Some(n), Some(usable)) if usable > 0 => Some((fixed, n, usable)),
        _ => None,
    };

    // One audit used for gate polys and lookup/shuffle member expressions:
    // marks column usage (only when the expression can be live), checks
    // rotations against the usable region, and returns liveness.
    let audit_expr = |e: &Expression<F>,
                      subject: &str,
                      out: &mut Collector<'_>,
                      usage: &mut Usage|
     -> Option<ExprScan<F>> {
        let mut queries = BTreeSet::new();
        e.collect_queries(&mut queries);
        match skel {
            Some((fixed, n, usable)) => {
                let scan = scan_expr(e, fixed, n, usable);
                if scan.active == 0 {
                    return Some(scan); // structurally dead: caller decides
                }
                for q in &queries {
                    usage.mark(q.column, out, subject);
                    if q.column.kind == ColumnKind::Fixed {
                        // Fixed cells beyond the usable region are part of
                        // the structure (zero unless written); rotations
                        // into them are deterministic, not junk reads.
                        continue;
                    }
                    let rot = q.rotation.0 as i64;
                    let escapes_high = rot > 0 && scan.max_active as i64 + rot >= usable as i64;
                    let escapes_low = rot < 0 && scan.min_active as i64 + rot < 0;
                    if escapes_high || escapes_low {
                        let row = if escapes_high {
                            scan.max_active
                        } else {
                            scan.min_active
                        };
                        out.push(Finding {
                            detector: Detector::RotationRange,
                            severity: Severity::Deny,
                            subject: subject.to_string(),
                            detail: format!(
                                "query of {} at rotation {} is live at row {row} and reads \
                                 outside the usable region [0, {usable}) — into the blinding \
                                 rows the prover fills with randomness",
                                column_subject(q.column),
                                rot,
                            ),
                            column: Some(q.column),
                            rotation: Some(q.rotation.0),
                            row: Some(row),
                        });
                    }
                }
                Some(scan)
            }
            None => {
                for q in &queries {
                    usage.mark(q.column, out, subject);
                    if q.column.kind != ColumnKind::Fixed
                        && q.rotation.0.unsigned_abs() as usize > BLINDING_ROWS
                    {
                        out.push(Finding {
                            detector: Detector::RotationRange,
                            severity: Severity::Warn,
                            subject: subject.to_string(),
                            detail: format!(
                                "rotation {} on {} spans more than the {BLINDING_ROWS} blinding \
                                 rows; without fixed-column values the analyzer cannot prove it \
                                 stays inside the usable region",
                                q.rotation.0,
                                column_subject(q.column),
                            ),
                            column: Some(q.column),
                            rotation: Some(q.rotation.0),
                            row: None,
                        });
                    }
                }
                None
            }
        }
    };

    // ---- gates -----------------------------------------------------------
    let mut poly_index: HashMap<String, String> = HashMap::new();
    for (gi, gate) in cs.gates.iter().enumerate() {
        if gate.polys.is_empty() {
            out.report(
                Detector::TrivialGate,
                Severity::Warn,
                format!("gate[{}@{gi}]", gate.name),
                "gate declares no constraint polynomials",
            );
        }
        for (pi, poly) in gate.polys.iter().enumerate() {
            let subject = format!("gate[{}@{gi}]#{pi}", gate.name);

            // Structurally constant constraints prove nothing about any
            // witness (and a nonzero constant is unsatisfiable outright).
            let mut queries = BTreeSet::new();
            poly.collect_queries(&mut queries);
            if queries.is_empty() && !matches!(poly, Expression::Identity) {
                out.report(
                    Detector::TrivialGate,
                    Severity::Deny,
                    subject.clone(),
                    "constraint queries no columns — it is a constant and proves nothing \
                     about the witness",
                );
                continue;
            }

            // Duplicate structural polys across the whole system.
            let key = format!("{poly:?}");
            match poly_index.get(&key) {
                Some(first) => out.report(
                    Detector::DuplicateConstraint,
                    Severity::Warn,
                    subject.clone(),
                    format!("structurally identical to {first}"),
                ),
                None => {
                    poly_index.insert(key, subject.clone());
                }
            }

            if let Some(scan) = audit_expr(poly, &subject, &mut out, &mut usage) {
                if scan.active == 0 {
                    out.report(
                        Detector::TrivialGate,
                        Severity::Deny,
                        subject.clone(),
                        "identically zero on every usable row (selector never set?) — the \
                         constraint exists in name only",
                    );
                }
            }
        }
    }

    // ---- lookups ---------------------------------------------------------
    let mut lookup_index: HashMap<String, String> = HashMap::new();
    for (li, lk) in cs.lookups.iter().enumerate() {
        let subject = format!("lookup[{}@{li}]", lk.name);
        if lk.input.is_empty() || lk.table.is_empty() {
            out.report(
                Detector::LookupShape,
                Severity::Deny,
                subject.clone(),
                "empty lookup argument",
            );
            continue;
        }
        if lk.input.len() != lk.table.len() {
            out.report(
                Detector::LookupShape,
                Severity::Deny,
                subject.clone(),
                format!(
                    "arity mismatch: {} input expressions vs {} table expressions",
                    lk.input.len(),
                    lk.table.len()
                ),
            );
            continue;
        }
        let key = format!("{:?}{:?}", lk.input, lk.table);
        match lookup_index.get(&key) {
            Some(first) => out.report(
                Detector::DuplicateConstraint,
                Severity::Warn,
                subject.clone(),
                format!("structurally identical to {first}"),
            ),
            None => {
                lookup_index.insert(key, subject.clone());
            }
        }
        let input_scans: Vec<_> = lk
            .input
            .iter()
            .map(|e| audit_expr(e, &subject, &mut out, &mut usage))
            .collect();
        let table_scans: Vec<_> = lk
            .table
            .iter()
            .map(|e| audit_expr(e, &subject, &mut out, &mut usage))
            .collect();

        if let Some((_, _, usable)) = skel {
            let input_dead = input_scans
                .iter()
                .all(|s| s.as_ref().map(|s| s.active == 0).unwrap_or(false));
            if input_dead {
                out.report(
                    Detector::TrivialGate,
                    Severity::Deny,
                    subject.clone(),
                    "every input expression is identically zero on the usable rows — the \
                     lookup constrains nothing",
                );
            }

            // Coverage audit, exact when the table side is fixed-only.
            let exact_table: Option<Vec<&Vec<F>>> = table_scans
                .iter()
                .map(|s| s.as_ref().and_then(|s| s.values.as_ref()))
                .collect();
            if let Some(cols) = exact_table {
                let mut tuples: BTreeSet<Vec<[u8; 32]>> = BTreeSet::new();
                for r in 0..usable {
                    tuples.insert(cols.iter().map(|c| c[r].to_repr()).collect());
                }
                let zero_tuple: Vec<[u8; 32]> = vec![F::ZERO.to_repr(); cols.len()];
                if tuples.len() == 1 && tuples.contains(&zero_tuple) {
                    out.report(
                        Detector::LookupShape,
                        Severity::Deny,
                        subject.clone(),
                        "the fixed table contains only the all-zero tuple — every \
                         nontrivial input row is unsatisfiable and every trivial one \
                         unconstrained",
                    );
                } else if !tuples.contains(&zero_tuple) {
                    // Rows outside the gated region produce the zero input
                    // tuple; the table must absorb it or honest proofs fail.
                    let some_zero_row = input_scans
                        .iter()
                        .any(|s| s.as_ref().map(|s| s.active < usable).unwrap_or(false));
                    if some_zero_row {
                        out.report(
                            Detector::LookupShape,
                            Severity::Deny,
                            subject.clone(),
                            "rows outside the gated region produce the all-zero input \
                             tuple, which the fixed table does not contain — honest \
                             witnesses cannot satisfy this lookup",
                        );
                    }
                }
            }
        }
    }

    // ---- shuffles --------------------------------------------------------
    let mut shuffle_index: HashMap<String, String> = HashMap::new();
    for (si, sh) in cs.shuffles.iter().enumerate() {
        let subject = format!("shuffle[{}@{si}]", sh.name);
        if sh.input.is_empty() || sh.target.is_empty() {
            out.report(
                Detector::LookupShape,
                Severity::Deny,
                subject.clone(),
                "empty shuffle argument",
            );
            continue;
        }
        if sh.input.len() != sh.target.len() {
            out.report(
                Detector::LookupShape,
                Severity::Deny,
                subject.clone(),
                format!(
                    "arity mismatch: {} input expressions vs {} target expressions",
                    sh.input.len(),
                    sh.target.len()
                ),
            );
            continue;
        }
        let key = format!("{:?}{:?}", sh.input, sh.target);
        match shuffle_index.get(&key) {
            Some(first) => out.report(
                Detector::DuplicateConstraint,
                Severity::Warn,
                subject.clone(),
                format!("structurally identical to {first}"),
            ),
            None => {
                shuffle_index.insert(key, subject.clone());
            }
        }
        let input_scans: Vec<_> = sh
            .input
            .iter()
            .map(|e| audit_expr(e, &subject, &mut out, &mut usage))
            .collect();
        let target_scans: Vec<_> = sh
            .target
            .iter()
            .map(|e| audit_expr(e, &subject, &mut out, &mut usage))
            .collect();
        if skel.is_some() {
            let dead = |scans: &[Option<ExprScan<F>>]| {
                scans
                    .iter()
                    .all(|s| s.as_ref().map(|s| s.active == 0).unwrap_or(false))
            };
            if dead(&input_scans) && dead(&target_scans) {
                out.report(
                    Detector::TrivialGate,
                    Severity::Deny,
                    subject.clone(),
                    "both sides are identically zero on the usable rows — the shuffle \
                     relates two empty multisets and constrains nothing",
                );
            }
        }
    }

    // ---- permutation & copy graph ---------------------------------------
    let col_id = |c: Column| -> usize {
        match c.kind {
            ColumnKind::Fixed => c.index,
            ColumnKind::Advice => cs.num_fixed + c.index,
            ColumnKind::Instance => cs.num_fixed + cs.num_advice + c.index,
            _ => usize::MAX,
        }
    };
    let total_cols = cs.num_fixed + cs.num_advice + cs.num_instance;
    for c in &cs.permutation_columns {
        let in_range = match c.kind {
            ColumnKind::Fixed => c.index < cs.num_fixed,
            ColumnKind::Advice => c.index < cs.num_advice,
            ColumnKind::Instance => c.index < cs.num_instance,
            _ => false,
        };
        if !in_range {
            out.push(Finding {
                detector: Detector::DeadColumn,
                severity: Severity::Deny,
                subject: "permutation".to_string(),
                detail: format!(
                    "permutation enables nonexistent column {}",
                    column_subject(*c)
                ),
                column: Some(*c),
                rotation: None,
                row: None,
            });
        }
    }
    let mut copied = vec![false; total_cols];
    let mut sets = ColumnSets::new(total_cols);
    if let Some(copies) = view.copies {
        for (a, b) in copies {
            let (ia, ib) = (col_id(a.column), col_id(b.column));
            if ia < total_cols && ib < total_cols {
                copied[ia] = true;
                copied[ib] = true;
                sets.union(ia, ib);
            }
        }
        for c in &cs.permutation_columns {
            let id = col_id(*c);
            if id < total_cols && !copied[id] {
                out.push(Finding {
                    detector: Detector::DeadColumn,
                    severity: Severity::Warn,
                    subject: column_subject(*c),
                    detail: "enabled for the copy permutation but never copied — it \
                             inflates the permutation argument for nothing"
                        .to_string(),
                    column: Some(*c),
                    rotation: None,
                    row: None,
                });
            }
        }
    }

    // A copy component is *anchored* if some member is a fixed or instance
    // column, or an advice column some live gate/lookup/shuffle queries.
    // Advice constrained only by copies inside an unanchored component can
    // hold any (consistent) junk.
    let mut anchored: HashMap<usize, bool> = HashMap::new();
    if view.copies.is_some() {
        for (id, &is_copied) in copied.iter().enumerate() {
            if !is_copied {
                continue;
            }
            let is_anchor = if id < cs.num_fixed {
                true
            } else if id < cs.num_fixed + cs.num_advice {
                usage.advice[id - cs.num_fixed]
            } else {
                true // instance: public values pin the component
            };
            let root = sets.find(id);
            *anchored.entry(root).or_insert(false) |= is_anchor;
        }
    }

    // ---- column-level verdicts ------------------------------------------
    for i in 0..cs.num_advice {
        if usage.advice[i] {
            continue;
        }
        let column = Column::advice(i);
        let id = col_id(column);
        let (detail, unconstrained) = if view.copies.is_some() {
            if copied[id] {
                let root = sets.find(id);
                if anchored.get(&root).copied().unwrap_or(false) {
                    continue; // pinned to an anchored component
                }
                (
                    "referenced only by copy constraints among columns that no gate, \
                     lookup or shuffle touches — the whole component is free junk"
                        .to_string(),
                    true,
                )
            } else {
                (
                    "referenced by no gate, lookup, shuffle, or copy constraint — the \
                     prover can assign it arbitrarily"
                        .to_string(),
                    true,
                )
            }
        } else if cs.permutation_columns.contains(&column) {
            // Shape-only mode: copies unknown, membership may anchor it.
            continue;
        } else {
            (
                "referenced by no gate, lookup, shuffle, or permutation column — the \
                 prover can assign it arbitrarily"
                    .to_string(),
                true,
            )
        };
        if unconstrained {
            out.push(Finding {
                detector: Detector::UnconstrainedAdvice,
                severity: Severity::Deny,
                subject: column_subject(column),
                detail,
                column: Some(column),
                rotation: None,
                row: None,
            });
        }
    }
    for i in 0..cs.num_fixed {
        if usage.fixed[i] {
            continue;
        }
        let column = Column::fixed(i);
        if cs.permutation_columns.contains(&column) || copied[col_id(column)] {
            continue;
        }
        out.push(Finding {
            detector: Detector::DeadColumn,
            severity: Severity::Warn,
            subject: column_subject(column),
            detail: "fixed column is never queried — dead structure that still costs a \
                     commitment and an opening"
                .to_string(),
            column: Some(column),
            rotation: None,
            row: None,
        });
    }
    for i in 0..cs.num_instance {
        if usage.instance[i] {
            continue;
        }
        let column = Column::instance(i);
        let bound_by_copy = view.copies.is_some() && copied[col_id(column)];
        let maybe_bound = view.copies.is_none() && cs.permutation_columns.contains(&column);
        if bound_by_copy || maybe_bound {
            continue;
        }
        out.push(Finding {
            detector: Detector::DeadColumn,
            severity: Severity::Deny,
            subject: column_subject(column),
            detail: "instance column is bound to nothing — the public input is advertised \
                     to the verifier but the proof does not depend on it"
                .to_string(),
            column: Some(column),
            rotation: None,
            row: None,
        });
    }

    // ---- degree audit --------------------------------------------------
    // Degrees are read off the protocol's own identity list, never
    // re-derived: one verdict per argument, on its highest-degree identity.
    let mut degrees: Vec<(Origin, usize)> = Vec::new();
    for id in identities(cs, 0, F::ONE, F::ONE, F::ONE) {
        match degrees.last_mut() {
            Some((origin, d)) if *origin == id.origin => *d = (*d).max(id.expr.degree()),
            _ => degrees.push((id.origin, id.expr.degree())),
        }
    }
    for (origin, degree) in degrees {
        let subject = match origin {
            Origin::Gate { gate, poly } => format!("gate[{}@{gate}]#{poly}", cs.gates[gate].name),
            Origin::Lookup(l) => format!("lookup[{}@{l}]", cs.lookups[l].name),
            Origin::Shuffle(s) => format!("shuffle[{}@{s}]", cs.shuffles[s].name),
            Origin::Permutation(j) => format!("permutation[chunk {j}]"),
        };
        if let Some(qd) = view.quotient_degree.filter(|qd| degree > *qd) {
            out.report(
                Detector::DegreeBound,
                Severity::Deny,
                subject.clone(),
                format!(
                    "identity degree {degree} exceeds the quotient extension degree {qd} the \
                     domain provides — the quotient polynomial cannot represent it"
                ),
            );
        }
        if degree > WARN_DEGREE {
            out.report(
                Detector::DegreeBound,
                Severity::Warn,
                subject,
                format!(
                    "identity degree {degree} exceeds the review threshold {WARN_DEGREE}; \
                     every unit of degree multiplies quotient FFT work"
                ),
            );
        }
    }
    let max_degree = cs.max_degree();
    if let Some(k) = view.k {
        let extended_bits = (max_degree.max(2) as u64)
            .next_power_of_two()
            .trailing_zeros();
        if k + extended_bits > F::TWO_ADICITY {
            out.report(
                Detector::DegreeBound,
                Severity::Deny,
                "system",
                format!(
                    "max constraint degree {max_degree} at k={k} needs an extended domain \
                     of 2^{} rows, beyond the field's 2-adicity of {}",
                    k + extended_bits,
                    F::TWO_ADICITY
                ),
            );
        }
    }

    // Deny findings first, then stable by subject for reproducible reports.
    out.findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.subject.cmp(&b.subject))
            .then_with(|| a.detail.cmp(&b.detail))
    });
    AnalysisReport {
        findings: out.findings,
        allowed: out.allowed,
    }
}
