//! # ft-graph — directed-graph kernel for circuit-switching networks
//!
//! This crate is the substrate on which the entire reproduction of
//! Pippenger & Lin, *Fault-Tolerant Circuit-Switching Networks* (SPAA 1992
//! / SIAM J. Disc. Math. 1994) is built. The paper describes every network
//! as an acyclic directed graph whose **edges are switches** and whose
//! distinguished vertices are the input/output terminals; proofs reason
//! about undirected distances, vertex-disjoint paths (Menger), trees with
//! high-degree internal nodes, and staged (levelled) networks.
//!
//! Provided here:
//!
//! * [`Csr`] — compressed-sparse-row digraph, the one representation of
//!   a built network, and [`DiGraph`] — a free-standing growable
//!   multigraph (trees, quotients, test graphs) that freezes into it.
//! * [`StagedNetwork`] — a [`Csr`] with terminals and stage structure, the
//!   shape of every network in the paper (Beneš, Clos, grids, network 𝒩);
//!   [`StagedBuilder`] builds it from a flat edge list.
//! * [`traversal`] / [`distance`] — BFS machinery, directed and undirected
//!   (the paper's `dist` ignores edge direction), zone decompositions
//!   `B_h(v)` used by the Theorem 1 lower bound.
//! * [`maxflow`] — Dinic max-flow with vertex splitting, the engine for
//!   vertex-disjoint path questions; [`mincost`] — min-cost circuit
//!   placement on the live idle fabric (Dijkstra with potentials over the
//!   vertex split), the reroute planner; [`matching`] — Hopcroft–Karp;
//!   [`menger`] — disjoint-path helpers phrased for network verification.
//! * [`unionfind`] — quotient construction for *closed* switch failures
//!   (edge contraction).
//! * [`tree`] — tree/forest utilities for the Lemma 1/2 lower-bound
//!   machinery (stretch contraction, leaf analysis).
//! * [`gen`] — seeded random generators used by tests and experiments.

#![warn(missing_docs)]

pub mod csr;
pub mod digraph;
pub mod distance;
pub mod gen;
pub mod ids;
pub mod matching;
pub mod maxflow;
pub mod menger;
pub mod mincost;
pub mod paths;
pub mod sliced;
pub mod staged;
pub mod traversal;
pub mod tree;
pub mod unionfind;
pub mod workspace;

pub use csr::Csr;
pub use digraph::DiGraph;
pub use ids::{EdgeId, VertexId};
pub use maxflow::FlowWorkspace;
pub use mincost::MincostWorkspace;
pub use paths::Path;
pub use sliced::{sliced_reach_into, SlicedWorkspace, LANES};
pub use staged::{OutputReach, ReachColumn, StagedBuilder, StagedNetwork};
pub use unionfind::UnionFind;
pub use workspace::{KernelStats, RouteWorkspace, TraversalWorkspace};

/// Minimal read-only digraph interface implemented by both [`DiGraph`] and
/// [`Csr`], so traversal and flow algorithms are written once.
pub trait Digraph {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of edges.
    fn num_edges(&self) -> usize;
    /// `(tail, head)` of an edge.
    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId);
    /// Edges leaving `v`.
    fn out_edge_slice(&self, v: VertexId) -> &[EdgeId];
    /// Edges entering `v`.
    fn in_edge_slice(&self, v: VertexId) -> &[EdgeId];

    /// Heads of the edges leaving `v`, parallel to
    /// [`Self::out_edge_slice`], when the representation stores them
    /// (CSR does). Traversals use this to skip the per-edge `endpoints`
    /// lookup; builder graphs return `None` and fall back to
    /// [`Self::other_endpoint`].
    #[inline]
    fn out_head_slice(&self, _v: VertexId) -> Option<&[VertexId]> {
        None
    }

    /// Tails of the edges entering `v`, parallel to
    /// [`Self::in_edge_slice`], when the representation stores them.
    #[inline]
    fn in_tail_slice(&self, _v: VertexId) -> Option<&[VertexId]> {
        None
    }

    /// Whether every edge goes from a lower vertex id to a higher one,
    /// so ascending id order is a topological order. Every network a
    /// [`StagedBuilder`] builds is numbered this way (its stages take
    /// ascending id ranges; a [`StagedNetwork::mirror`] is not);
    /// [`sliced::sliced_reach_into`] then sweeps forward in one pass.
    /// The default answers `false`, which is always safe.
    #[inline]
    fn ids_ascend(&self) -> bool {
        false
    }

    /// Tail of `e`.
    #[inline]
    fn edge_tail(&self, e: EdgeId) -> VertexId {
        self.endpoints(e).0
    }

    /// Head of `e`.
    #[inline]
    fn edge_head(&self, e: EdgeId) -> VertexId {
        self.endpoints(e).1
    }

    /// The endpoint of `e` that is not `v` (for undirected walks); if `e`
    /// is a self-loop this returns `v` itself.
    #[inline]
    fn other_endpoint(&self, e: EdgeId, v: VertexId) -> VertexId {
        let (t, h) = self.endpoints(e);
        if t == v {
            h
        } else {
            t
        }
    }
}
