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
//! * [`Csr`] — compressed-sparse-row digraph, the one graph type: a
//!   built network, a tree, a quotient and a test graph are each a
//!   vertex count and an edge list in tail order ([`Csr::from_edges`]),
//!   so a vertex's out-edges are an id range.
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
//! * [`UnionFind`] — quotient construction for *closed* switch failures
//!   (edge contraction).
//! * [`tree`] — tree/forest utilities for the Lemma 1/2 lower-bound
//!   machinery (stretch contraction, leaf analysis).
//! * [`gen`] — seeded random generators used by tests and experiments.

#![warn(missing_docs)]

pub(crate) mod csr;
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
pub(crate) mod unionfind;
pub mod workspace;

pub use csr::Csr;
pub use ids::{EdgeId, VertexId};
pub use maxflow::FlowWorkspace;
pub use mincost::MincostWorkspace;
pub use sliced::LANES;
pub use staged::{OutputReach, StagedBuilder, StagedNetwork};
pub use unionfind::UnionFind;
pub use workspace::{KernelStats, RouteWorkspace, TraversalWorkspace};

/// A graph's vertex and edge counts, answered by a [`Csr`] and by a
/// [`StagedNetwork`] for its graph. Every kernel takes a [`Csr`].
pub trait Digraph {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of edges.
    fn num_edges(&self) -> usize;
}

/// The [`Digraph`] trait's counts and the adjacency of a free-standing
/// [`Csr`] built from an edge list, on the small cases every graph in
/// this crate must get right.
#[cfg(test)]
mod digraph {
    mod tests {
        use crate::ids::{e, v};
        use crate::{Csr, Digraph, VertexId};

        /// 0 -> 1 -> 3, 0 -> 2 -> 3.
        fn diamond() -> Csr {
            Csr::from_edges(
                4,
                vec![(v(0), v(1)), (v(0), v(2)), (v(1), v(3)), (v(2), v(3))],
            )
        }

        /// The trait's answers, read through a trait object so they are
        /// not the inherent methods of the same name.
        fn counts(g: &dyn Digraph) -> (usize, usize) {
            (g.num_vertices(), g.num_edges())
        }

        #[test]
        fn build_diamond() {
            let g = diamond();
            assert_eq!(counts(&g), (4, 4));
            assert_eq!(g.out_degree(v(0)), 2);
            assert_eq!(g.in_degree(v(3)), 2);
            assert_eq!(g.degree(v(1)), 2);
            assert_eq!(g.endpoints(e(0)), (v(0), v(1)));
            assert!(g.has_edge(v(0), v(2)));
            assert!(!g.has_edge(v(2), v(0)));
        }

        #[test]
        #[should_panic(expected = "is not below n")]
        fn edge_out_of_range_panics() {
            Csr::from_edges(1, vec![(v(0), v(1))]);
        }

        #[test]
        fn iterators_cover_everything() {
            let g = diamond();
            assert_eq!(g.vertices().count(), 4);
            assert_eq!(g.edges().count(), 4);
            let sum_out: usize = g.vertices().map(|u| g.out_degree(u)).sum();
            assert_eq!(sum_out, g.num_edges());
            let sum_in: usize = g.vertices().map(|u| g.in_degree(u)).sum();
            assert_eq!(sum_in, g.num_edges());
            let tails: Vec<VertexId> = g.edges().map(|(_, t, _)| t).collect();
            assert_eq!(tails, [v(0), v(0), v(1), v(2)]);
        }

        #[test]
        fn empty_graph() {
            let g = Csr::from_edges(0, vec![]);
            assert_eq!(counts(&g), (0, 0));
            assert_eq!(g.vertices().count(), 0);
            assert_eq!(g.edges().count(), 0);
        }
    }
}
