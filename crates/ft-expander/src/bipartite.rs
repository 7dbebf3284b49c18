//! Bipartite graphs with inlets and outlets.
//!
//! The §6 construction is glued together from `(c, c′, t)`-**expanding
//! graphs**: bipartite directed graphs on `t` inlets and `t` outlets in
//! which every set of `c` inlets is joined to at least `c′` outlets.
//! This module holds the representation shared by the random and explicit
//! constructions and the expansion verifiers.

/// A bipartite graph from `inlets` to `outlets`, stored as adjacency
/// lists (`adj[i]` = outlets of inlet `i`; parallel edges permitted).
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    outlets: usize,
    adj: Vec<Vec<u32>>,
}

impl BipartiteGraph {
    /// Creates a bipartite graph from adjacency lists.
    ///
    /// # Panics
    /// Panics if an adjacency entry exceeds `outlets`.
    pub fn new(adj: Vec<Vec<u32>>, outlets: usize) -> Self {
        for nbrs in &adj {
            for &o in nbrs {
                assert!((o as usize) < outlets, "outlet {o} out of range");
            }
        }
        BipartiteGraph { outlets, adj }
    }

    /// Number of inlets.
    pub fn num_inlets(&self) -> usize {
        self.adj.len()
    }

    /// Number of outlets.
    pub fn num_outlets(&self) -> usize {
        self.outlets
    }

    /// Number of edges (with multiplicity).
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Outlets adjacent to inlet `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.adj[i]
    }

    /// Out-degree of inlet `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// In-degrees of all outlets.
    pub fn outlet_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.outlets];
        for nbrs in &self.adj {
            for &o in nbrs {
                deg[o as usize] += 1;
            }
        }
        deg
    }

    /// Size of the neighbourhood `|Γ(S)|` of an inlet set (distinct
    /// outlets), using a scratch buffer to stay allocation-light.
    pub fn neighborhood_size(&self, inlet_set: &[usize], scratch: &mut Vec<bool>) -> usize {
        scratch.clear();
        scratch.resize(self.outlets, false);
        let mut count = 0usize;
        for &i in inlet_set {
            for &o in &self.adj[i] {
                if !scratch[o as usize] {
                    scratch[o as usize] = true;
                    count += 1;
                }
            }
        }
        count
    }

    /// The neighbourhood as a sorted outlet list.
    pub fn neighborhood(&self, inlet_set: &[usize]) -> Vec<u32> {
        let mut scratch = Vec::new();
        self.neighborhood_size(inlet_set, &mut scratch);
        scratch
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(o, _)| o as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k23() -> BipartiteGraph {
        // complete bipartite 2 inlets × 3 outlets
        BipartiteGraph::new(vec![vec![0, 1, 2], vec![0, 1, 2]], 3)
    }

    #[test]
    fn basic_shape() {
        let b = k23();
        assert_eq!(b.num_inlets(), 2);
        assert_eq!(b.num_outlets(), 3);
        assert_eq!(b.num_edges(), 6);
        assert_eq!(b.degree(0), 3);
        assert_eq!(b.outlet_degrees(), vec![2, 2, 2]);
    }

    #[test]
    fn neighborhoods() {
        let b = BipartiteGraph::new(vec![vec![0, 1], vec![1, 2], vec![2, 2]], 4);
        let mut scratch = Vec::new();
        assert_eq!(b.neighborhood_size(&[0], &mut scratch), 2);
        assert_eq!(b.neighborhood_size(&[0, 1], &mut scratch), 3);
        assert_eq!(
            b.neighborhood_size(&[2], &mut scratch),
            1,
            "parallel edges counted once"
        );
        assert_eq!(b.neighborhood(&[1, 2]), vec![1, 2]);
        assert_eq!(b.neighborhood_size(&[], &mut scratch), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_outlet() {
        BipartiteGraph::new(vec![vec![3]], 3);
    }
}
