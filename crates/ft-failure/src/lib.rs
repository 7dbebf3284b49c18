//! # ft-failure — the random switch failure model and reliability theory
//!
//! Implements §1/§3 of Pippenger & Lin: each switch of a network is
//! independently **open-failed** (probability ε₁, edge removed),
//! **closed-failed** (probability ε₂, endpoints contracted) or **normal**.
//! On top of the model sit:
//!
//! * [`instance`] — sampled failure instances (points of the event space
//!   Ω) with geometric-gap sampling for the tiny ε the paper uses;
//! * [`contraction`] — the closed-failure quotient graph and terminal
//!   *shorting* detection (Lemmas 2 and 7);
//! * [`incremental`] — O(1)-per-event maintenance of the §4 routable
//!   alive-mask under temporal fault/repair churn;
//! * [`reliability`] — two-terminal failure probabilities, exact (state
//!   enumeration) and Monte Carlo; the Wheatstone bridge amplifier;
//! * [`sp`] — series-parallel networks with the exact Moore–Shannon
//!   composition calculus;
//! * [`hammock`] — `(l, w)`-directed-grid hammocks (the paper's Fig. 4)
//!   with certified analytic failure bounds;
//! * [`onenet`] — explicit `(ε, ε′)-1-networks` (Proposition 1) of size
//!   `O((log 1/ε′)²)` and depth `O(log 1/ε′)`;
//! * [`edge_replace`] — the §3 edge-substitution transformation;
//! * [`montecarlo`] — Bernoulli estimators with Wilson intervals.

#![warn(missing_docs)]

pub mod contraction;
pub mod edge_replace;
pub mod hammock;
pub mod incremental;
pub mod instance;
pub mod mask;
pub mod model;
pub mod montecarlo;
pub mod onenet;
pub mod reliability;
pub mod sliced;
pub mod sp;

pub use hammock::Hammock;
pub use incremental::AliveTracker;
pub use instance::FailureInstance;
pub use mask::FailureMask;
pub use model::{FailureModel, SwitchState};
pub use montecarlo::Estimate;
pub use onenet::{construct_onenet, OneNet};
pub use reliability::{Connectivity, FailureProbs, TwoTerminal};
pub use sliced::{block_seed, SlicedFailureMask};
pub use sp::SpNetwork;
