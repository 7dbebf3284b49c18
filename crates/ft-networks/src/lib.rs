//! # ft-networks — classical circuit-switching networks and routing
//!
//! The §2 cast of Pippenger & Lin, built as staged link-graphs (vertices
//! are links, edges are single-pole single-throw switches):
//!
//! * [`mod@crossbar`] — the `n²`-switch trivial nonblocking network;
//! * [`clos`] — three-stage Clos `C(m, n, r)`: strictly nonblocking at
//!   `m ≥ 2n−1` (greedy-routable), rearrangeable at `m ≥ n`
//!   (Slepian–Duguid edge-colouring router);
//! * [`benes`] — the O(n log n) rearrangeable optimum with the looping
//!   algorithm;
//! * [`butterfly`] — the unique-path baseline;
//! * [`multibutterfly`] — splitter networks over sampled expanders
//!   (Upfal, Leighton–Maggs), the fault-tolerant routing tradition the
//!   paper builds on;
//! * [`grid`] — `(l, w)`-directed grids (the paper's Fig. 4);
//! * [`router`] — the greedy circuit-switching router of §4;
//! * [`verify`] — rearrangeability / strict-nonblocking /
//!   superconcentrator verification harnesses.

#![warn(missing_docs)]

pub mod benes;
pub mod butterfly;
pub mod clos;
pub mod crossbar;
pub mod grid;
pub mod multibutterfly;
pub mod router;
pub mod verify;

pub use benes::Benes;
pub use butterfly::Butterfly;
pub use clos::Clos;
pub use crossbar::{crossbar, crossbar_census};
pub use grid::DirectedGrid;
pub use multibutterfly::Multibutterfly;
pub use router::{CircuitRouter, MincostBatch, RouteError, SessionId};
