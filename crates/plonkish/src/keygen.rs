//! Key generation: compiling a circuit shape + fixed content into proving
//! and verifying keys (paper workflow step 3, Figure 2).

use crate::circuit::{Assignment, ConstraintSystem};
use crate::identities::coset_multiplier;

use poneglyph_arith::{Fq, PrimeField};
use poneglyph_curve::PallasAffine;
use poneglyph_hash::Transcript;
use poneglyph_par::Parallelism;
use poneglyph_pcs::IpaParams;
use poneglyph_poly::{EvaluationDomain, Polynomial};

/// The verifier's key: the circuit shape plus commitments to everything
/// structural (fixed columns and the copy-constraint permutation).
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    /// The evaluation domain (size and extension factor).
    pub domain: EvaluationDomain<Fq>,
    /// The circuit shape.
    pub cs: ConstraintSystem<Fq>,
    /// Usable rows (the rest are boundary/blinding).
    pub usable_rows: usize,
    /// Commitments to the fixed columns.
    pub fixed_commitments: Vec<PallasAffine>,
    /// Commitments to the permutation polynomials σᵢ.
    pub sigma_commitments: Vec<PallasAffine>,
}

impl VerifyingKey {
    /// Bind this key into a transcript (both sides must call this first).
    pub fn absorb_into(&self, transcript: &mut Transcript) {
        transcript.absorb_u64(b"vk-k", self.domain.k as u64);
        transcript.absorb_bytes(b"vk-cs", &self.cs.digest());
        for c in &self.fixed_commitments {
            transcript.absorb_bytes(b"vk-fixed", &c.to_bytes());
        }
        for c in &self.sigma_commitments {
            transcript.absorb_bytes(b"vk-sigma", &c.to_bytes());
        }
    }

    /// Closed-form evaluation of the Lagrange basis polynomial `l_i` at `x`
    /// (assumes `x` outside the domain, which holds w.o.p. for challenges).
    pub fn lagrange_eval(&self, i: usize, x: Fq) -> Fq {
        let n = self.domain.n;
        let xn = x.pow(&[n as u64, 0, 0, 0]);
        let wi = self.domain.rotate_omega(i as i32);
        let num = (xn - Fq::ONE) * wi;
        let den = Fq::from_u64(n as u64) * (x - wi);
        num * den.invert().expect("challenge not in domain")
    }

    /// `l_active(x) = Σ_{i<usable} l_i(x) = 1 − Σ_{i≥usable} l_i(x)`.
    pub fn l_active_eval(&self, x: Fq) -> Fq {
        let mut acc = Fq::ONE;
        for i in self.usable_rows..self.domain.n {
            acc -= self.lagrange_eval(i, x);
        }
        acc
    }
}

/// The prover's key: everything in the verifying key plus the fixed and σ
/// columns in Lagrange and coefficient form. Extended-coset values are not
/// part of the key: [`prove_timed`](crate::prove_timed) derives them per
/// proof.
#[derive(Clone, Debug)]
pub struct ProvingKey {
    /// The embedded verifying key.
    pub vk: VerifyingKey,
    /// Fixed column polynomials (coefficient form).
    pub fixed_polys: Vec<Polynomial<Fq>>,
    /// Fixed column values (Lagrange form).
    pub fixed_values: Vec<Vec<Fq>>,
    /// Permutation σ values in Lagrange form (per permutation column).
    pub sigma_values: Vec<Vec<Fq>>,
    /// Permutation σ polynomials.
    pub sigma_polys: Vec<Polynomial<Fq>>,
}

/// Union-find over permutation cells.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// Process-wide instrumentation for key generation and prover stages:
/// read-only views over the [`poneglyph_obs`] global metrics registry, the
/// same series the serving layer exposes over `/metrics`
/// (`poneglyph_keygens_total{kind=...}` and
/// `poneglyph_span_nanos{span="prove.*"}`), aggregated across the whole
/// process.
///
/// Tests use the counters to assert *which* keygen path ran — e.g. that
/// the verifier never materializes prover-only tables (no [`keygen_pk_with`]
/// call) and that a prover keys once per proof. The
/// counters are monotonic and process-global; assert on deltas from a
/// single-test binary, not absolute values.
pub mod instrument {
    use poneglyph_obs as obs;

    const KEYGEN_HELP: &str = "Key generations by kind (pk = prover tables materialized)";

    fn keygen_counter(kind: &'static str) -> obs::Counter {
        obs::global().counter("poneglyph_keygens_total", &[("kind", kind)], KEYGEN_HELP)
    }

    /// Total nanoseconds every [`prove_timed`](crate::prove_timed) call in this
    /// process has spent in the *commit* stage (witness interpolation,
    /// lookup construction, grand products, and all pre-quotient
    /// commitments).
    pub fn commit_nanos() -> u64 {
        obs::span_histogram("prove.commit").sum()
    }

    /// Total nanoseconds spent in the *quotient* stage (coset extension,
    /// chunk-parallel constraint accumulation, vanishing division, and the
    /// quotient-piece commitments).
    pub fn quotient_nanos() -> u64 {
        obs::span_histogram("prove.quotient").sum()
    }

    /// Total nanoseconds spent in the *open* stage (schedule evaluations
    /// and the batched IPA openings).
    pub fn open_nanos() -> u64 {
        obs::span_histogram("prove.open").sum()
    }

    pub(crate) fn record_stages(commit: u64, quotient: u64, open: u64) {
        obs::record_span("prove.commit", commit);
        obs::record_span("prove.quotient", quotient);
        obs::record_span("prove.open", open);
    }

    /// Number of [`keygen_vk_with`](super::keygen_vk_with) calls so far (verifier-side
    /// key generations that skip the prover-only tables).
    pub fn vk_keygens() -> u64 {
        keygen_counter("vk").get()
    }

    /// Number of [`keygen_pk_with`](super::keygen_pk_with) calls so far — i.e. how
    /// many times the prover-only tables (σ/fixed values and polynomials)
    /// were retained for proving.
    pub fn pk_keygens() -> u64 {
        keygen_counter("pk").get()
    }

    pub(super) fn count_vk() {
        keygen_counter("vk").inc();
    }

    pub(super) fn count_pk() {
        keygen_counter("pk").inc();
    }
}

/// Everything both keys need: the domain, the fixed/σ polynomials in
/// coefficient and Lagrange form, and their commitments, gathered as a
/// full [`ProvingKey`]. [`keygen_vk_with`] keeps only its verifying key.
fn build_key(
    params: &IpaParams,
    cs: &ConstraintSystem<Fq>,
    asn: &Assignment<Fq>,
    par: Parallelism,
) -> ProvingKey {
    assert_eq!(
        params.k, asn.k,
        "parameter capacity 2^{} must match circuit size 2^{}",
        params.k, asn.k
    );
    let domain = EvaluationDomain::<Fq>::new(asn.k, cs.max_degree());
    let n = domain.n;
    let usable = asn.usable_rows;

    // Fixed columns.
    let fixed_values: Vec<Vec<Fq>> = asn.fixed.clone();
    let fixed_polys = crate::prover::to_coeff_all(&domain, &fixed_values, par);
    let fixed_commitments = crate::prover::commit_all(params, &fixed_polys, None, par);

    // Permutation: union-find over (perm-column, row) cells.
    let m = cs.permutation_columns.len();
    let col_slot = |col: &crate::expression::Column| -> Option<usize> {
        cs.permutation_columns.iter().position(|c| c == col)
    };
    let mut dsu = Dsu::new(m * n);
    for (a, b) in &asn.copies {
        let ca = col_slot(&a.column).unwrap_or_else(|| {
            panic!(
                "copy constraint uses column {:?} not enabled for permutation",
                a.column
            )
        });
        let cb = col_slot(&b.column).unwrap_or_else(|| {
            panic!(
                "copy constraint uses column {:?} not enabled for permutation",
                b.column
            )
        });
        dsu.union((ca * n + a.row) as u32, (cb * n + b.row) as u32);
    }
    // Build cycles: members of each class, in index order, map to the next.
    let mut class_members: std::collections::HashMap<u32, Vec<u32>> =
        std::collections::HashMap::new();
    for id in 0..(m * n) as u32 {
        let root = dsu.find(id);
        class_members.entry(root).or_default().push(id);
    }
    // σ starts as the identity permutation and each multi-member class
    // becomes one cycle.
    let omega_pows = crate::eval::omega_powers(&domain);
    let multipliers: Vec<Fq> = (0..m).map(coset_multiplier).collect();
    let mut sigma_values: Vec<Vec<Fq>> = (0..m)
        .map(|c| omega_pows.iter().map(|w| multipliers[c] * *w).collect())
        .collect();
    for members in class_members.values() {
        if members.len() < 2 {
            continue;
        }
        for (i, &cell) in members.iter().enumerate() {
            let next = members[(i + 1) % members.len()];
            let (c, r) = ((cell as usize) / n, (cell as usize) % n);
            let (nc, nr) = ((next as usize) / n, (next as usize) % n);
            sigma_values[c][r] = multipliers[nc] * omega_pows[nr];
        }
    }
    let sigma_polys = crate::prover::to_coeff_all(&domain, &sigma_values, par);
    let sigma_commitments = crate::prover::commit_all(params, &sigma_polys, None, par);

    ProvingKey {
        vk: VerifyingKey {
            domain,
            cs: cs.clone(),
            usable_rows: usable,
            fixed_commitments,
            sigma_commitments,
        },
        fixed_polys,
        fixed_values,
        sigma_values,
        sigma_polys,
    }
}

/// Generate only the verifying key from a circuit shape and a
/// representative assignment.
///
/// This is the verifier-side path: the fixed/σ polynomials are committed
/// and then *dropped* — the prover-only tables (retained Lagrange and
/// coefficient forms) are not kept, so a verifier re-deriving keys per
/// query holds a fraction of the memory of a full [`keygen_pk_with`]. The
/// key is identical at any thread budget.
pub fn keygen_vk_with(
    params: &IpaParams,
    cs: &ConstraintSystem<Fq>,
    asn: &Assignment<Fq>,
    par: Parallelism,
) -> VerifyingKey {
    instrument::count_vk();
    let _span = poneglyph_obs::span("keygen.vk");
    build_key(params, cs, asn, par).vk
}

/// Generate the full proving key (verifying key embedded) from a circuit
/// shape and a representative assignment (fixed columns and copy
/// constraints must be identical at proving time). The fixed/σ
/// interpolations and their commitments are computed on scoped workers;
/// the key is identical at any budget.
pub fn keygen_pk_with(
    params: &IpaParams,
    cs: &ConstraintSystem<Fq>,
    asn: &Assignment<Fq>,
    par: Parallelism,
) -> ProvingKey {
    instrument::count_pk();
    let _span = poneglyph_obs::span("keygen.pk");
    build_key(params, cs, asn, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Cell;
    use crate::expression::Column;

    #[test]
    fn sigma_is_identity_without_copies() {
        let params = IpaParams::setup(4);
        let mut cs = ConstraintSystem::<Fq>::new();
        let a = cs.advice_column();
        cs.enable_permutation(a);
        let asn = Assignment::new(&cs, 4);
        let pk = keygen_pk_with(&params, &cs, &asn, Parallelism::auto());
        let n = pk.vk.domain.n;
        for r in 0..n {
            assert_eq!(pk.sigma_values[0][r], pk.vk.domain.rotate_omega(r as i32));
        }
    }

    #[test]
    fn copies_create_cycles() {
        let params = IpaParams::setup(4);
        let mut cs = ConstraintSystem::<Fq>::new();
        let a = cs.advice_column();
        let b = cs.advice_column();
        cs.enable_permutation(a);
        cs.enable_permutation(b);
        let mut asn = Assignment::new(&cs, 4);
        asn.copy(Cell { column: a, row: 1 }, Cell { column: b, row: 2 });
        // duplicate copies must not split the cycle
        asn.copy(Cell { column: a, row: 1 }, Cell { column: b, row: 2 });
        let pk = keygen_pk_with(&params, &cs, &asn, Parallelism::auto());
        let k1: Fq = coset_multiplier(0);
        let k2: Fq = coset_multiplier(1);
        let w = pk.vk.domain.omega;
        // two-cycle: sigma(a,1) = (b,2), sigma(b,2) = (a,1)
        assert_eq!(pk.sigma_values[0][1], k2 * w.square());
        assert_eq!(pk.sigma_values[1][2], k1 * w);
        // untouched cell stays identity
        assert_eq!(pk.sigma_values[0][3], k1 * w * w * w);
    }

    #[test]
    fn lagrange_eval_matches_interpolation() {
        let params = IpaParams::setup(3);
        let mut cs = ConstraintSystem::<Fq>::new();
        cs.advice_column();
        let asn = Assignment::new(&cs, 3);
        let pk = keygen_pk_with(&params, &cs, &asn, Parallelism::auto());
        let domain = &pk.vk.domain;
        let x = Fq::from_u64(0xabcdef);
        for i in [0usize, 1, 5] {
            let mut values = vec![Fq::ZERO; domain.n];
            values[i] = Fq::ONE;
            let expect = domain.eval_lagrange(&values, x);
            assert_eq!(pk.vk.lagrange_eval(i, x), expect);
        }
        // l_active(x) is the sum of l_i for usable rows
        let mut values = vec![Fq::ZERO; domain.n];
        for v in values[..pk.vk.usable_rows].iter_mut() {
            *v = Fq::ONE;
        }
        assert_eq!(pk.vk.l_active_eval(x), domain.eval_lagrange(&values, x));
    }

    #[test]
    #[should_panic(expected = "not enabled for permutation")]
    fn copy_on_unregistered_column_panics() {
        let params = IpaParams::setup(3);
        let mut cs = ConstraintSystem::<Fq>::new();
        let a = cs.advice_column();
        let b = cs.advice_column();
        cs.enable_permutation(a);
        let mut asn = Assignment::new(&cs, 3);
        asn.copy(Cell { column: a, row: 0 }, Cell { column: b, row: 0 });
        keygen_pk_with(&params, &cs, &asn, Parallelism::auto());
    }

    #[test]
    fn column_helper() {
        assert_eq!(Column::fixed(3).index, 3);
    }

    #[test]
    fn keygen_vk_matches_embedded_vk() {
        let params = IpaParams::setup(4);
        let mut cs = ConstraintSystem::<Fq>::new();
        let a = cs.advice_column();
        let b = cs.advice_column();
        cs.enable_permutation(a);
        cs.enable_permutation(b);
        let f = cs.fixed_column();
        let mut asn = Assignment::new(&cs, 4);
        asn.assign_fixed(f, 0, Fq::from_u64(7));
        asn.copy(Cell { column: a, row: 1 }, Cell { column: b, row: 2 });
        let vk = keygen_vk_with(&params, &cs, &asn, Parallelism::auto());
        let pk = keygen_pk_with(&params, &cs, &asn, Parallelism::auto());
        assert_eq!(vk.fixed_commitments, pk.vk.fixed_commitments);
        assert_eq!(vk.sigma_commitments, pk.vk.sigma_commitments);
        assert_eq!(vk.usable_rows, pk.vk.usable_rows);
        assert_eq!(vk.domain.n, pk.vk.domain.n);
        assert_eq!(vk.cs.digest(), pk.vk.cs.digest());
    }

    #[test]
    fn instrument_counts_each_path() {
        // Counters are process-global and other tests in this binary run
        // concurrently, so assert monotonic growth, not exact deltas.
        let params = IpaParams::setup(3);
        let mut cs = ConstraintSystem::<Fq>::new();
        cs.advice_column();
        let asn = Assignment::new(&cs, 3);
        let (vk0, pk0) = (instrument::vk_keygens(), instrument::pk_keygens());
        let _vk = keygen_vk_with(&params, &cs, &asn, Parallelism::auto());
        assert!(instrument::vk_keygens() > vk0);
        let _pk = keygen_pk_with(&params, &cs, &asn, Parallelism::auto());
        assert!(instrument::pk_keygens() > pk0);
    }
}
