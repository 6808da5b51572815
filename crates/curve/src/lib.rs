//! # poneglyph-curve
//!
//! The commitment group for PoneglyphDB: the **Pallas** curve
//! (`y² = x³ + 5` over the Pasta base field, prime order = the Pasta scalar
//! field), with Jacobian arithmetic, batch affine normalization, a parallel
//! Pippenger multi-scalar multiplication, and try-and-increment hash-to-curve
//! for deriving trust-free commitment generators (paper §3.2).

#![warn(missing_docs)]

mod msm;
mod pallas;

pub use msm::msm_with;
pub use pallas::{curve_b, hash_to_curve, Pallas, PallasAffine};
