//! Undirected tree/forest utilities for the §5 lower-bound machinery.
//!
//! Lemma 1 speaks of trees "in which every internal node has degree at
//! least 3"; its proof first replaces each internal node of degree `d > 3`
//! by a small degree-3 tree. Lemma 2 builds a forest of path segments and
//! contracts every *stretch* (maximal chain of degree-2 vertices) to a
//! single edge. Both transformations live here; direction of edges is
//! ignored throughout (trees come from undirected reasoning).

use crate::ids::{EdgeId, VertexId};
use crate::traversal::{bfs, Direction};
use crate::Csr;

/// Undirected adjacency list: for each vertex, the incident `(edge, other
/// endpoint)` pairs (self-loops appear once).
pub fn undirected_adjacency(g: &Csr) -> Vec<Vec<(EdgeId, VertexId)>> {
    let mut adj = vec![Vec::new(); g.num_vertices()];
    for (e, t, h) in g.edges() {
        adj[t.index()].push((e, h));
        if t != h {
            adj[h.index()].push((e, t));
        }
    }
    adj
}

/// Degree-1 vertices (leaves of a tree/forest). Isolated vertices are not
/// leaves.
pub fn leaves(g: &Csr) -> Vec<VertexId> {
    g.vertices().filter(|&u| g.degree(u) == 1).collect()
}

/// Internal (non-leaf, non-isolated) vertices.
pub fn internal_nodes(g: &Csr) -> Vec<VertexId> {
    g.vertices().filter(|&u| g.degree(u) >= 2).collect()
}

/// Whether the graph, viewed undirected, is a forest (no cycles).
pub fn is_forest(g: &Csr) -> bool {
    // A graph is a forest iff m = n - (number of components).
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut components = 0usize;
    for u in g.vertices() {
        if !seen[u.index()] {
            components += 1;
            let b = bfs(g, &[u], Direction::Undirected, |_| true, |_| true);
            for &w in &b.order {
                seen[w.index()] = true;
            }
        }
    }
    g.num_edges() == n - components
}

/// Whether the graph, viewed undirected, is a single tree.
pub fn is_tree(g: &Csr) -> bool {
    if g.num_vertices() == 0 {
        return false;
    }
    let b = bfs(g, &[VertexId(0)], Direction::Undirected, |_| true, |_| true);
    b.order.len() == g.num_vertices() && g.num_edges() == g.num_vertices() - 1
}

/// Whether every internal node has degree ≥ 3 — Lemma 1's hypothesis.
pub fn min_internal_degree_3(g: &Csr) -> bool {
    g.vertices().all(|u| {
        let d = g.degree(u);
        d <= 1 || d >= 3
    })
}

/// The degree-reduction step of Lemma 1's proof: every internal node of
/// degree `d > 3` is replaced by a chain of `d − 2` new degree-3 nodes.
/// Returns the new tree, `origin`, mapping each new vertex to the
/// original vertex it came from (leaves map to themselves), and the
/// original edge each new edge copies ([`EdgeId::NONE`] for a chain
/// edge).
///
/// Edge-disjoint leaf paths found in the reduced tree map to edge-disjoint
/// paths of no greater length in the original (contract the chains back).
pub fn reduce_to_degree_3(g: &Csr) -> (Csr, Vec<VertexId>, Vec<EdgeId>) {
    let adj = undirected_adjacency(g);
    let mut edges = Vec::new();
    let mut origin: Vec<VertexId> = Vec::new();
    // chain_nodes[v] = the new vertices representing original v, in order;
    // incident edge k of v attaches to chain slot min(k, d-3)… we assign:
    // node 0 gets incident edges {0,1}, node i gets edge i+1, last node
    // gets the final two edges. Simpler: distribute so each chain node has
    // at most 3 total degree (2 from chain links at interior).
    let mut slot_of: Vec<Vec<u32>> = Vec::with_capacity(g.num_vertices());
    for u in g.vertices() {
        let d = adj[u.index()].len();
        let k = if d > 3 { d - 2 } else { 1 };
        let first = VertexId::from(origin.len());
        for i in 0..k {
            origin.push(u);
            if i > 0 {
                edges.push((
                    VertexId::from(first.index() + i - 1),
                    VertexId::from(first.index() + i),
                    EdgeId::NONE,
                ));
            }
        }
        // slot assignment: chain interior nodes take 1 external edge each,
        // the two end nodes take 2 each (k≥2 case); k==1 takes all.
        let mut slots = Vec::with_capacity(d);
        if k == 1 {
            slots.extend(std::iter::repeat_n(first.0, d));
        } else {
            slots.push(first.0);
            slots.push(first.0);
            for i in 1..k - 1 {
                slots.push(first.0 + i as u32);
            }
            slots.push(first.0 + (k - 1) as u32);
            slots.push(first.0 + (k - 1) as u32);
        }
        debug_assert_eq!(slots.len(), d);
        slot_of.push(slots);
    }
    // connect original edges: each edge appears in both endpoint adjacency
    // lists; attach by each endpoint's local incidence index.
    let mut local_index = vec![0usize; g.num_vertices()];
    let mut new_end: Vec<[u32; 2]> = vec![[u32::MAX; 2]; g.num_edges()];
    for u in g.vertices() {
        for &(e, _) in &adj[u.index()] {
            let li = local_index[u.index()];
            local_index[u.index()] += 1;
            let slot = slot_of[u.index()][li];
            let ends = &mut new_end[e.index()];
            if ends[0] == u32::MAX {
                ends[0] = slot;
            } else {
                ends[1] = slot;
            }
        }
    }
    edges.extend(
        new_end
            .iter()
            .enumerate()
            .map(|(e, ends)| (VertexId(ends[0]), VertexId(ends[1]), EdgeId::from(e))),
    );
    let (h, edge_origin) = Csr::from_tagged_edges(origin.len(), edges);
    (h, origin, edge_origin)
}

/// A contracted forest: stretches (maximal degree-2 chains) collapsed to
/// single edges.
#[derive(Clone, Debug)]
pub struct ContractedForest {
    /// The contracted graph; vertex ids index into `vertex_origin`.
    pub graph: Csr,
    /// For each contracted vertex, the original vertex it represents.
    pub vertex_origin: Vec<VertexId>,
    /// For each contracted edge, the original edges of its stretch, in
    /// order from the lower-id endpoint.
    pub edge_paths: Vec<Vec<EdgeId>>,
}

/// Contracts every stretch of the forest `g` (undirected view). Kept
/// vertices are exactly those with degree ≠ 2 (leaves, branch nodes,
/// isolated vertices).
///
/// # Panics
/// Panics if `g` is not a forest (a degree-2 cycle has no kept vertex).
pub fn contract_stretches(g: &Csr) -> ContractedForest {
    assert!(is_forest(g), "contract_stretches requires a forest");
    let adj = undirected_adjacency(g);
    let n = g.num_vertices();
    let mut new_id = vec![u32::MAX; n];
    let mut vertex_origin = Vec::new();
    for u in g.vertices() {
        if adj[u.index()].len() != 2 {
            new_id[u.index()] = vertex_origin.len() as u32;
            vertex_origin.push(u);
        }
    }
    let mut edges = Vec::new();
    let mut edge_paths = Vec::new();
    let mut used = vec![false; g.num_edges()];
    for u in g.vertices() {
        if new_id[u.index()] == u32::MAX {
            continue;
        }
        for &(e0, mut cur) in &adj[u.index()] {
            if used[e0.index()] {
                continue;
            }
            // walk the stretch starting along e0
            let mut stretch = vec![e0];
            used[e0.index()] = true;
            let mut prev_edge = e0;
            while new_id[cur.index()] == u32::MAX {
                // degree-2 vertex: take the other incident edge
                let &(enext, wnext) = adj[cur.index()]
                    .iter()
                    .find(|&&(e, _)| e != prev_edge)
                    .expect("degree-2 vertex must have a second edge");
                stretch.push(enext);
                used[enext.index()] = true;
                prev_edge = enext;
                cur = wnext;
            }
            edges.push((VertexId(new_id[u.index()]), VertexId(new_id[cur.index()])));
            edge_paths.push(stretch);
        }
    }
    ContractedForest {
        graph: Csr::from_edges(vertex_origin.len(), edges),
        vertex_origin,
        edge_paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_lemma1_tree, random_tree, rng};
    use crate::ids::v;

    #[test]
    fn leaves_and_internals() {
        // star with 3 leaves
        let g = Csr::from_edges(4, vec![(v(0), v(1)), (v(0), v(2)), (v(0), v(3))]);
        assert_eq!(leaves(&g), vec![v(1), v(2), v(3)]);
        assert_eq!(internal_nodes(&g), vec![v(0)]);
        assert!(is_tree(&g));
        assert!(is_forest(&g));
        assert!(min_internal_degree_3(&g));
    }

    #[test]
    fn path_fails_min_degree() {
        let g = Csr::from_edges(3, vec![(v(0), v(1)), (v(1), v(2))]);
        assert!(!min_internal_degree_3(&g));
        assert!(is_tree(&g));
    }

    #[test]
    fn forest_detection() {
        let mut edges = vec![(v(0), v(1)), (v(2), v(3))];
        let g = Csr::from_edges(4, edges.clone());
        assert!(is_forest(&g));
        assert!(!is_tree(&g), "two components");
        edges.insert(1, (v(1), v(0))); // parallel edge = undirected cycle
        assert!(!is_forest(&Csr::from_edges(4, edges)));
    }

    #[test]
    fn reduce_degree_3_star() {
        // star with 5 leaves: center degree 5 → chain of 3 new nodes
        let g = Csr::from_edges(6, (1..=5).map(|i| (v(0), v(i))).collect());
        let (h, origin, _) = reduce_to_degree_3(&g);
        assert!(min_internal_degree_3(&h));
        assert!(is_tree(&h));
        assert_eq!(leaves(&h).len(), 5);
        // every leaf's origin is an original leaf
        for leaf in leaves(&h) {
            assert_ne!(origin[leaf.index()], v(0));
        }
        // degrees all ≤ 3
        for u in h.vertices() {
            assert!(h.degree(u) <= 3);
        }
    }

    #[test]
    fn reduce_degree_3_on_random_lemma1_trees() {
        let mut r = rng(11);
        for _ in 0..10 {
            let g = random_lemma1_tree(&mut r, 30);
            let l = leaves(&g).len();
            let (h, origin, _) = reduce_to_degree_3(&g);
            assert!(is_tree(&h), "reduction preserves tree-ness");
            assert!(min_internal_degree_3(&h));
            assert_eq!(leaves(&h).len(), l, "leaf count preserved");
            for u in h.vertices() {
                assert!(h.degree(u) <= 3);
                assert!(origin[u.index()].index() < g.num_vertices());
            }
        }
    }

    #[test]
    fn contract_path_to_single_edge() {
        // path 0-1-2-3: ends kept, middle contracted
        let g = Csr::from_edges(4, vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(3))]);
        let c = contract_stretches(&g);
        assert_eq!(c.graph.num_vertices(), 2);
        assert_eq!(c.graph.num_edges(), 1);
        assert_eq!(c.edge_paths[0].len(), 3);
        assert_eq!(c.vertex_origin, vec![v(0), v(3)]);
    }

    #[test]
    fn contract_keeps_branch_nodes() {
        // Y with elongated arms: center 0; arms 0-1-2, 0-3, 0-4-5-6
        let arms = [(0, 1), (0, 3), (0, 4), (1, 2), (4, 5), (5, 6)];
        let g = Csr::from_edges(7, arms.map(|(t, h)| (v(t), v(h))).to_vec());
        let c = contract_stretches(&g);
        // kept: 0 (deg 3), 2, 3, 6 (leaves)
        assert_eq!(c.graph.num_vertices(), 4);
        assert_eq!(c.graph.num_edges(), 3);
        let total: usize = c.edge_paths.iter().map(|p| p.len()).sum();
        assert_eq!(total, g.num_edges(), "stretches partition the edges");
        assert!(min_internal_degree_3(&c.graph));
    }

    #[test]
    fn contract_random_trees_partitions_edges() {
        let mut r = rng(12);
        for _ in 0..10 {
            let g = random_tree(&mut r, 40);
            let c = contract_stretches(&g);
            let total: usize = c.edge_paths.iter().map(|p| p.len()).sum();
            assert_eq!(total, g.num_edges());
            assert!(is_forest(&c.graph));
            // contracted graph has no degree-2 vertices (except possibly
            // where two stretches meet a kept vertex — by construction none)
            for u in c.graph.vertices() {
                assert_ne!(c.graph.degree(u), 2, "degree-2 vertex survived");
            }
        }
    }

    #[test]
    fn contract_isolated_and_empty() {
        let g = Csr::from_edges(2, vec![]); // two isolated vertices
        let c = contract_stretches(&g);
        assert_eq!(c.graph.num_vertices(), 2);
        assert_eq!(c.graph.num_edges(), 0);
        let c = contract_stretches(&Csr::from_edges(0, vec![]));
        assert_eq!(c.graph.num_vertices(), 0);
    }
}
