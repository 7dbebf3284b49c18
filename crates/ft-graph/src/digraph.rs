//! Growable directed multigraph.
//!
//! [`DiGraph`] is the free-standing graph that can grow one vertex or
//! edge at a time: trees and forests of the lower-bound machinery, random
//! test graphs, contraction quotients, survivor subgraphs. Staged networks
//! are *not* built in it — [`crate::StagedBuilder`] sorts a flat edge
//! list straight into a [`crate::Csr`]. The per-vertex `Vec`s here are
//! convenient but cache-hostile; freeze with [`crate::Csr::from_digraph`]
//! before traversing in a hot loop.
//!
//! Self-loops and parallel edges are permitted: the paper's model treats
//! each *switch* (edge) as an independently failing component, so two
//! parallel switches between the same pair of links are meaningful (they
//! fail independently).

use crate::ids::{EdgeId, VertexId};
use crate::Digraph;

/// A growable directed multigraph with O(1) vertex/edge insertion.
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    /// `edges[e] = (tail, head)`; edge `e` points tail → head.
    edges: Vec<(VertexId, VertexId)>,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity reserved for `n` vertices and
    /// `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        DiGraph {
            out_edges: Vec::with_capacity(n),
            in_edges: Vec::with_capacity(n),
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds an isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::from(self.out_edges.len());
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds `count` isolated vertices, returning the id of the first; the
    /// ids are contiguous `first..first+count`.
    pub fn add_vertices(&mut self, count: usize) -> VertexId {
        let first = VertexId::from(self.out_edges.len());
        self.out_edges
            .resize_with(self.out_edges.len() + count, Vec::new);
        self.in_edges
            .resize_with(self.in_edges.len() + count, Vec::new);
        first
    }

    /// Adds a directed edge (switch) `tail → head` and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, tail: VertexId, head: VertexId) -> EdgeId {
        assert!(
            tail.index() < self.out_edges.len() && head.index() < self.out_edges.len(),
            "edge endpoint out of range: {tail:?} -> {head:?} with {} vertices",
            self.out_edges.len()
        );
        let id = EdgeId::from(self.edges.len());
        self.edges.push((tail, head));
        self.out_edges[tail.index()].push(id);
        self.in_edges[head.index()].push(id);
        id
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_edges.len()
    }

    /// Number of edges (switches). The paper calls this the **size** of the
    /// network.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The `(tail, head)` pair of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    /// Tail (source endpoint) of edge `e`.
    #[inline]
    pub fn tail(&self, e: EdgeId) -> VertexId {
        self.edges[e.index()].0
    }

    /// Head (target endpoint) of edge `e`.
    #[inline]
    pub fn head(&self, e: EdgeId) -> VertexId {
        self.edges[e.index()].1
    }

    /// Out-edges of `v` in insertion order.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.out_edges[v.index()]
    }

    /// In-edges of `v` in insertion order.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.in_edges[v.index()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_edges[v.index()].len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges[v.index()].len()
    }

    /// Total degree (in + out) of `v`. In the paper's undirected distance
    /// arguments (§5) this is the degree that matters.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        (0..self.num_vertices()).map(VertexId::from)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(EdgeId::from)
    }

    /// Iterator over `(EdgeId, tail, head)` triples.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(t, h))| (EdgeId::from(i), t, h))
    }

    /// Returns `true` if there is at least one edge `tail → head`.
    pub fn has_edge(&self, tail: VertexId, head: VertexId) -> bool {
        self.out_edges[tail.index()]
            .iter()
            .any(|&e| self.head(e) == head)
    }
}

impl Digraph for DiGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        DiGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        DiGraph::num_edges(self)
    }

    #[inline]
    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        DiGraph::endpoints(self, e)
    }

    #[inline]
    fn out_edge_slice(&self, v: VertexId) -> &[EdgeId] {
        DiGraph::out_edges(self, v)
    }

    #[inline]
    fn in_edge_slice(&self, v: VertexId) -> &[EdgeId] {
        DiGraph::in_edges(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{e, v};

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::new();
        g.add_vertices(4);
        g.add_edge(v(0), v(1));
        g.add_edge(v(0), v(2));
        g.add_edge(v(1), v(3));
        g.add_edge(v(2), v(3));
        g
    }

    #[test]
    fn build_diamond() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(v(0)), 2);
        assert_eq!(g.in_degree(v(3)), 2);
        assert_eq!(g.degree(v(1)), 2);
        assert_eq!(g.endpoints(e(0)), (v(0), v(1)));
        assert!(g.has_edge(v(0), v(2)));
        assert!(!g.has_edge(v(2), v(0)));
    }

    #[test]
    fn add_vertices_contiguous() {
        let mut g = DiGraph::new();
        let first = g.add_vertices(5);
        assert_eq!(first, v(0));
        let next = g.add_vertices(3);
        assert_eq!(next, v(5));
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g = DiGraph::new();
        g.add_vertices(2);
        let e1 = g.add_edge(v(0), v(1));
        let e2 = g.add_edge(v(0), v(1));
        let e3 = g.add_edge(v(1), v(1));
        assert_ne!(e1, e2);
        assert_eq!(g.out_degree(v(0)), 2);
        assert_eq!(g.in_degree(v(1)), 3);
        assert_eq!(g.endpoints(e3), (v(1), v(1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_out_of_range_panics() {
        let mut g = DiGraph::new();
        g.add_vertex();
        g.add_edge(v(0), v(1));
    }

    #[test]
    fn iterators_cover_everything() {
        let g = diamond();
        assert_eq!(g.vertices().count(), 4);
        assert_eq!(g.edge_ids().count(), 4);
        let sum_out: usize = g.vertices().map(|u| g.out_degree(u)).sum();
        assert_eq!(sum_out, g.num_edges());
        let sum_in: usize = g.vertices().map(|u| g.in_degree(u)).sum();
        assert_eq!(sum_in, g.num_edges());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.vertices().count(), 0);
    }
}
