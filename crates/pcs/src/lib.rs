//! # poneglyph-pcs
//!
//! The polynomial commitment scheme used by PoneglyphDB: Pedersen vector
//! commitments over Pallas with a Bootle-et-al./Halo **inner-product
//! argument** opening protocol (paper §3.2). Parameters are derived from
//! public randomness — no trusted setup — and their generation time is
//! what the paper reports in Table 2.

#![warn(missing_docs)]

mod ipa;
mod params;

pub use ipa::{open_with, verify, IpaAccumulator, IpaProof};
pub use params::IpaParams;
