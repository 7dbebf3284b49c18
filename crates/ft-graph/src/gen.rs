//! Seeded random generators for tests, property tests and experiments.
//!
//! Every experiment in the workspace is reproducible from a `u64` seed;
//! this module centralises RNG construction so all crates agree on the
//! generator (`SmallRng`, which on 64-bit targets is xoshiro256++ — fast
//! and statistically adequate for Monte Carlo, not for cryptography).

use crate::ids::VertexId;
use crate::Csr;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Canonical seeded RNG used across the workspace.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// A uniformly random permutation of `0..n`.
pub fn random_permutation(r: &mut SmallRng, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    p.shuffle(r);
    p
}

/// Random DAG on `n` vertices: each of the `m` edges goes from a lower to
/// a higher index, endpoints uniform, listed in tail order (drawn order
/// within a tail). Used by flow/traversal tests.
pub fn random_dag(r: &mut SmallRng, n: usize, m: usize) -> Csr {
    assert!(n >= 2, "need at least two vertices");
    let mut edges: Vec<_> = (0..m)
        .map(|_| {
            let a = r.random_range(0..n - 1);
            let b = r.random_range(a + 1..n);
            (VertexId::from(a), VertexId::from(b))
        })
        .collect();
    edges.sort_by_key(|&(t, _)| t);
    Csr::from_edges(n, edges)
}

/// An undirected tree on `n ≥ 1` vertices encoded as a digraph (edges point
/// parent → child; lower-bound code treats edges as undirected). Each new
/// vertex attaches to a uniformly random earlier vertex.
pub fn random_tree(r: &mut SmallRng, n: usize) -> Csr {
    let mut edges: Vec<_> = (1..n)
        .map(|i| (VertexId::from(r.random_range(0..i)), VertexId::from(i)))
        .collect();
    edges.sort_by_key(|&(t, _)| t);
    Csr::from_edges(n, edges)
}

/// Adds a child of `parent` to the tree whose edges are `edges`, in
/// which vertex 0 is the root and edge `k` enters vertex `k + 1`: the
/// child takes the next id.
fn add_child(edges: &mut Vec<(VertexId, VertexId)>, parent: VertexId) -> VertexId {
    let child = VertexId::from(edges.len() + 1);
    edges.push((parent, child));
    child
}

/// The tree on `edges.len() + 1` vertices whose edge `k` enters vertex
/// `k + 1`, its edges stably sorted into tail order: a parent's children
/// keep the order they were added in.
fn tree_csr(mut edges: Vec<(VertexId, VertexId)>) -> Csr {
    edges.sort_by_key(|&(t, _)| t);
    Csr::from_edges(edges.len() + 1, edges)
}

/// A random tree in which **every internal node has degree ≥ 3** — the
/// hypothesis of Lemma 1. Built by growing: start from a star with 3
/// leaves; repeatedly either attach 2 children to a random leaf (turning
/// it into a degree-3 internal node) or attach 1 child to a random
/// internal node (raising its degree). Returns the tree; leaves are the
/// degree-1 vertices.
pub fn random_lemma1_tree(r: &mut SmallRng, target_leaves: usize) -> Csr {
    assert!(target_leaves >= 3, "Lemma 1 trees need at least 3 leaves");
    let mut edges = Vec::new();
    let root = VertexId(0);
    let mut leaves: Vec<VertexId> = (0..3).map(|_| add_child(&mut edges, root)).collect();
    let mut internals: Vec<VertexId> = vec![root];
    while leaves.len() < target_leaves {
        // Attaching 2 children to a leaf keeps all internal degrees ≥ 3 and
        // nets +1 leaf; attaching 1 child to an internal node also nets +1.
        if r.random_bool(0.5) {
            let li = r.random_range(0..leaves.len());
            let leaf = leaves.swap_remove(li);
            internals.push(leaf);
            for _ in 0..2 {
                leaves.push(add_child(&mut edges, leaf));
            }
        } else {
            let p = internals[r.random_range(0..internals.len())];
            leaves.push(add_child(&mut edges, p));
        }
    }
    tree_csr(edges)
}

/// A caterpillar tree whose spine vertices each carry enough legs to have
/// degree ≥ 3 — a worst-case-ish shape for Lemma 1 (paths between leaves
/// on distant spine vertices are long).
pub fn caterpillar_tree(spine: usize, legs_per_vertex: usize) -> Csr {
    assert!(spine >= 1 && legs_per_vertex >= 1);
    let mut edges: Vec<_> = (1..spine)
        .map(|i| (VertexId::from(i - 1), VertexId::from(i)))
        .collect();
    let mut n = spine;
    for i in 0..spine {
        // endpoints of the spine have spine-degree 1, middles 2
        let spine_deg = if spine == 1 {
            0
        } else if i == 0 || i == spine - 1 {
            1
        } else {
            2
        };
        let need = (3usize.saturating_sub(spine_deg)).max(legs_per_vertex);
        edges.extend((n..n + need).map(|leaf| (VertexId::from(i), VertexId::from(leaf))));
        n += need;
    }
    tree_csr(edges)
}

/// Complete `d`-ary tree of the given height (height 0 = single vertex).
/// With `d ≥ 3` the root has degree d ≥ 3 and internal vertices degree
/// d+1 ≥ 4, satisfying Lemma 1's hypothesis.
pub fn complete_dary_tree(d: usize, height: usize) -> Csr {
    let mut edges = Vec::new();
    let mut frontier = vec![VertexId(0)];
    for _ in 0..height {
        let mut next = Vec::with_capacity(frontier.len() * d);
        for &p in &frontier {
            for _ in 0..d {
                next.push(add_child(&mut edges, p));
            }
        }
        frontier = next;
    }
    tree_csr(edges)
}

/// Random bipartite graph: `left × right` vertices, each left vertex gets
/// `degree` out-edges sampled without replacement (degree ≤ right).
/// Returns adjacency `adj[l] = sorted right-neighbours`.
pub fn random_bipartite_adjacency(
    r: &mut SmallRng,
    left: usize,
    right: usize,
    degree: usize,
) -> Vec<Vec<u32>> {
    assert!(degree <= right, "degree exceeds right side");
    let mut adj = Vec::with_capacity(left);
    let mut pool: Vec<u32> = (0..right as u32).collect();
    for _ in 0..left {
        // Read the sample from the returned slice, not a fixed end of
        // `pool` — upstream rand and the vendored shim place it at
        // opposite ends of the slice.
        let (sampled, _) = pool.partial_shuffle(r, degree);
        let mut nbrs: Vec<u32> = sampled.to_vec();
        nbrs.sort_unstable();
        adj.push(nbrs);
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs, Bfs, Direction};

    /// BFS ignoring direction from `source` with no filters.
    fn bfs_undirected(g: &Csr, source: VertexId) -> Bfs {
        bfs(g, &[source], Direction::Undirected, |_| true, |_| true)
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(42);
        let mut b = rng(42);
        for _ in 0..10 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn permutation_is_permutation() {
        let mut r = rng(1);
        let p = random_permutation(&mut r, 100);
        let mut seen = [false; 100];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
    }

    #[test]
    fn random_dag_is_acyclic() {
        let mut r = rng(2);
        for _ in 0..10 {
            let g = random_dag(&mut r, 20, 50);
            assert!(crate::traversal::is_acyclic(&g));
            assert_eq!(g.num_edges(), 50);
        }
    }

    #[test]
    fn random_tree_is_connected_tree() {
        let mut r = rng(3);
        for n in [1usize, 2, 5, 50] {
            let g = random_tree(&mut r, n);
            assert_eq!(g.num_edges(), n - 1.min(n));
            let b = bfs_undirected(&g, crate::ids::v(0));
            assert_eq!(b.order.len(), n, "connected");
        }
    }

    #[test]
    fn lemma1_tree_internal_degrees() {
        let mut r = rng(4);
        for target in [3usize, 8, 40, 200] {
            let g = random_lemma1_tree(&mut r, target);
            let leaves: Vec<_> = g.vertices().filter(|&u| g.degree(u) == 1).collect();
            assert!(leaves.len() >= target);
            for u in g.vertices() {
                let d = g.degree(u);
                assert!(d == 1 || d >= 3, "internal degree {d} at {u:?}");
            }
            // connected
            let b = bfs_undirected(&g, crate::ids::v(0));
            assert_eq!(b.order.len(), g.num_vertices());
        }
    }

    #[test]
    fn caterpillar_degrees() {
        let g = caterpillar_tree(5, 2);
        for u in g.vertices() {
            let d = g.degree(u);
            assert!(d == 1 || d >= 3);
        }
        let b = bfs_undirected(&g, crate::ids::v(0));
        assert_eq!(b.order.len(), g.num_vertices());
    }

    #[test]
    fn dary_tree_shape() {
        let g = complete_dary_tree(3, 3);
        assert_eq!(g.num_vertices(), 1 + 3 + 9 + 27);
        let leaves = g.vertices().filter(|&u| g.degree(u) == 1).count();
        assert_eq!(leaves, 27);
    }

    #[test]
    fn bipartite_degrees() {
        let mut r = rng(5);
        let adj = random_bipartite_adjacency(&mut r, 10, 20, 7);
        assert_eq!(adj.len(), 10);
        for nbrs in &adj {
            assert_eq!(nbrs.len(), 7);
            // distinct
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(nbrs.iter().all(|&x| x < 20));
        }
    }
}
