//! # ft-core — the Pippenger–Lin fault-tolerant network 𝒩
//!
//! The paper's primary contribution (§4–§6 of *Fault-Tolerant
//! Circuit-Switching Networks*, SPAA 1992 / SIAM J. Disc. Math. 1994):
//! an explicit `(10⁻⁶, δ)`-nonblocking n-network of size
//! `O(n (log n)²)` and depth `O(log n)`, matching the §5 lower bound.
//!
//! The pipeline a user walks through:
//!
//! ```
//! use ft_core::{params::Params, network::FtNetwork, repair::Survivor};
//! use ft_core::{certify, routing};
//! use ft_failure::{FailureModel, FailureInstance};
//! use ft_graph::gen::rng;
//!
//! // 1. build 𝒩 (a reduced laptop-scale profile)
//! let ftn = FtNetwork::build(Params::reduced(1, 8, 4, 1.0));
//! // 2. strike it with random switch failures
//! let model = FailureModel::symmetric(1e-4);
//! let mut r = rng(1);
//! let inst = FailureInstance::sample(&model, &mut r, ftn.net().size());
//! // 3. repair: discard faulty internal vertices
//! let survivor = Survivor::new(&ftn, &inst);
//! // 4. certify the structural events of Lemmas 3–7
//! let cert = certify::certify_with_budget(&ftn, &inst, 0.1);
//! // 5. route greedily on the survivor
//! if cert.implies_nonblocking() {
//!     let mut router = routing::survivor_router(&survivor);
//!     let perm = routing::random_perm(&mut r, ftn.n());
//!     let (stats, _) = routing::route_permutation(&mut router, &ftn, &perm);
//!     assert!(stats.all_connected());
//! }
//! ```
//!
//! Modules:
//!
//! * [`params`] — the construction constants (ν, γ, width, degree) in
//!   `paper_exact` and `reduced` profiles;
//! * [`network`] — building 𝒩 (grids + truncated recursive middle);
//! * [`recursive`] — the un-truncated \[P82\] recursive network;
//! * [`access`] — access sets and majority-access (Lemmas 3, 6);
//! * [`repair`] — terminal-aware repair (§4);
//! * [`mod@certify`] — structural certification (Lemmas 3–7, Theorem 2);
//! * [`routing`] — greedy routing workloads on the survivor (§4);
//! * [`lowerbound`] — the §5 machinery (Lemmas 1–2, Theorem 1 audit);
//! * [`theory`] — every closed-form bound as an executable formula.

#![warn(missing_docs)]

pub mod access;
pub mod certify;
pub mod lowerbound;
pub mod network;
pub mod params;
pub mod recursive;
pub mod repair;
pub mod routing;
pub mod theory;
