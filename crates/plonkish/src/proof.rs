//! The proof object and the shared opening schedule.
//!
//! The schedule is the single source of truth for *which* polynomial is
//! opened at *which* rotation, in *which* order — prover and verifier derive
//! it independently from the constraint system, so the evaluation vector in
//! the proof needs no per-entry framing.

use crate::circuit::ConstraintSystem;
use crate::expression::{Column, ColumnKind, Query};
use poneglyph_arith::{Fq, PrimeField};
use poneglyph_curve::PallasAffine;
use poneglyph_pcs::IpaProof;
use std::collections::BTreeSet;

/// The ordered list of `(polynomial, rotation)` opening claims: every
/// committed polynomial the identities query, then the `h_pieces` quotient
/// pieces. The order is the layout of [`Proof::evals`].
pub fn open_schedule(cs: &ConstraintSystem<Fq>, usable_rot: i32, h_pieces: usize) -> Vec<Query> {
    // Circuit columns: instance evaluations are recomputed by the verifier.
    let mut out: Vec<Query> = cs.collect_queries().into_iter().collect();
    out.retain(|q| q.column.kind != ColumnKind::Instance);
    let mut push = |kind, index, rotation| out.push(Query::new(kind, index, rotation));
    let chunks = cs.permutation_chunks();
    for i in 0..cs.permutation_columns.len() {
        push(ColumnKind::Sigma, i, 0);
    }
    for j in 0..chunks {
        push(ColumnKind::PermZ, j, 0);
        push(ColumnKind::PermZ, j, 1);
        if j + 1 < chunks {
            // linked into chunk j+1 at the boundary row
            push(ColumnKind::PermZ, j, usable_rot);
        }
    }
    for l in 0..cs.lookups.len() {
        push(ColumnKind::LookupA, l, 0);
        push(ColumnKind::LookupA, l, -1);
        push(ColumnKind::LookupS, l, 0);
        push(ColumnKind::LookupZ, l, 0);
        push(ColumnKind::LookupZ, l, 1);
    }
    for s in 0..cs.shuffles.len() {
        push(ColumnKind::ShuffleZ, s, 0);
        push(ColumnKind::ShuffleZ, s, 1);
    }
    for j in 0..h_pieces {
        push(ColumnKind::HPiece, j, 0);
    }
    out
}

/// The distinct rotations opened, ascending.
pub fn opening_rotations(schedule: &[Query]) -> Vec<i32> {
    let set: BTreeSet<i32> = schedule.iter().map(|q| q.rotation.0).collect();
    set.into_iter().collect()
}

/// The instance-column queries whose evaluations the verifier must compute
/// itself.
pub fn instance_queries(cs: &ConstraintSystem<Fq>) -> Vec<Query> {
    cs.collect_queries()
        .into_iter()
        .filter(|q| q.column.kind == ColumnKind::Instance)
        .collect()
}

/// A complete non-interactive PoneglyphDB/PLONK proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proof {
    /// Commitments to the advice columns.
    pub advice_commitments: Vec<PallasAffine>,
    /// Per lookup: commitments to (A′, S′).
    pub lookup_permuted: Vec<(PallasAffine, PallasAffine)>,
    /// Permutation grand-product commitments.
    pub perm_z: Vec<PallasAffine>,
    /// Lookup grand-product commitments.
    pub lookup_z: Vec<PallasAffine>,
    /// Shuffle grand-product commitments.
    pub shuffle_z: Vec<PallasAffine>,
    /// Quotient piece commitments.
    pub h_pieces: Vec<PallasAffine>,
    /// Claimed evaluations, in [`open_schedule`] order.
    pub evals: Vec<Fq>,
    /// One IPA opening per distinct rotation, in ascending rotation order.
    pub openings: Vec<IpaProof>,
}

impl Proof {
    /// Serialized size in bytes (the paper's Table 4 metric).
    pub fn size_in_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serialize.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let write_points = |out: &mut Vec<u8>, pts: &[PallasAffine]| {
            out.extend_from_slice(&(pts.len() as u32).to_le_bytes());
            for p in pts {
                out.extend_from_slice(&p.to_bytes());
            }
        };
        write_points(&mut out, &self.advice_commitments);
        let flat: Vec<PallasAffine> = self
            .lookup_permuted
            .iter()
            .flat_map(|(a, s)| [*a, *s])
            .collect();
        write_points(&mut out, &flat);
        write_points(&mut out, &self.perm_z);
        write_points(&mut out, &self.lookup_z);
        write_points(&mut out, &self.shuffle_z);
        write_points(&mut out, &self.h_pieces);
        out.extend_from_slice(&(self.evals.len() as u32).to_le_bytes());
        for e in &self.evals {
            out.extend_from_slice(&e.to_repr());
        }
        out.extend_from_slice(&(self.openings.len() as u32).to_le_bytes());
        for o in &self.openings {
            let b = o.to_bytes();
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(&b);
        }
        out
    }

    /// Deserialize; `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut off = 0usize;
        let read_u32 = |off: &mut usize| -> Option<u32> {
            let v = u32::from_le_bytes(bytes.get(*off..*off + 4)?.try_into().ok()?);
            *off += 4;
            Some(v)
        };
        let read_points = |off: &mut usize| -> Option<Vec<PallasAffine>> {
            let n = read_u32(off)? as usize;
            if n > 1 << 20 {
                return None;
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let p = PallasAffine::from_bytes(bytes.get(*off..*off + 64)?.try_into().ok()?)?;
                *off += 64;
                v.push(p);
            }
            Some(v)
        };
        let advice_commitments = read_points(&mut off)?;
        let flat = read_points(&mut off)?;
        if flat.len() % 2 != 0 {
            return None;
        }
        let lookup_permuted = flat.chunks(2).map(|c| (c[0], c[1])).collect();
        let perm_z = read_points(&mut off)?;
        let lookup_z = read_points(&mut off)?;
        let shuffle_z = read_points(&mut off)?;
        let h_pieces = read_points(&mut off)?;
        let ne = read_u32(&mut off)? as usize;
        if ne > 1 << 20 {
            return None;
        }
        let mut evals = Vec::with_capacity(ne);
        for _ in 0..ne {
            let e = Fq::from_repr(bytes.get(off..off + 32)?.try_into().ok()?)?;
            off += 32;
            evals.push(e);
        }
        let no = read_u32(&mut off)? as usize;
        if no > 64 {
            return None;
        }
        let mut openings = Vec::with_capacity(no);
        for _ in 0..no {
            let len = read_u32(&mut off)? as usize;
            let o = IpaProof::from_bytes(bytes.get(off..off + len)?)?;
            off += len;
            openings.push(o);
        }
        if off != bytes.len() {
            return None;
        }
        Some(Self {
            advice_commitments,
            lookup_permuted,
            perm_z,
            lookup_z,
            shuffle_z,
            h_pieces,
            evals,
            openings,
        })
    }
}

/// Convenience: the rotation queries of a schedule grouped per rotation, in
/// ascending rotation order, preserving schedule order within a group.
pub fn claims_by_rotation(schedule: &[Query]) -> Vec<(i32, Vec<Column>)> {
    let rotations = opening_rotations(schedule);
    rotations
        .into_iter()
        .map(|rot| {
            (
                rot,
                schedule
                    .iter()
                    .filter(|q| q.rotation.0 == rot)
                    .map(|q| q.column)
                    .collect(),
            )
        })
        .collect()
}

/// Look up the claimed evaluation for a `(polynomial, rotation)` pair.
pub fn eval_of(schedule: &[Query], evals: &[Fq], claim: Query) -> Option<Fq> {
    let i = schedule.iter().position(|q| *q == claim)?;
    Some(evals[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::Expression;

    fn sample_cs() -> ConstraintSystem<Fq> {
        let mut cs = ConstraintSystem::new();
        let q = cs.fixed_column();
        let a = cs.advice_column();
        let b = cs.advice_column();
        cs.create_gate(
            "g",
            vec![
                Expression::fixed(q.index)
                    * (Expression::advice(a.index) - Expression::advice(b.index)),
            ],
        );
        cs.enable_permutation(a);
        cs.add_lookup(
            "lk",
            vec![Expression::advice(b.index)],
            vec![Expression::fixed(q.index)],
        );
        cs
    }

    #[test]
    fn schedule_is_deterministic_and_covers_protocol() {
        let cs = sample_cs();
        let s1 = open_schedule(&cs, 100, 3);
        let s2 = open_schedule(&cs, 100, 3);
        assert_eq!(s1, s2);
        assert!(s1.contains(&Query::new(ColumnKind::PermZ, 0, 0)));
        assert!(s1.contains(&Query::new(ColumnKind::PermZ, 0, 1)));
        assert!(s1.contains(&Query::new(ColumnKind::LookupA, 0, -1)));
        assert!(s1.contains(&Query::new(ColumnKind::HPiece, 2, 0)));
        // single chunk → no linking rotation
        assert!(!s1.contains(&Query::new(ColumnKind::PermZ, 0, 100)));
        let rots = opening_rotations(&s1);
        assert_eq!(rots, vec![-1, 0, 1]);
    }

    #[test]
    fn claims_grouped_in_order() {
        let cs = sample_cs();
        let s = open_schedule(&cs, 100, 1);
        let groups = claims_by_rotation(&s);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, -1);
        assert_eq!(
            groups[0].1,
            vec![Query::new(ColumnKind::LookupA, 0, -1).column]
        );
    }
}
