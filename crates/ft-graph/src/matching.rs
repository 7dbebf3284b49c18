//! Hopcroft–Karp maximum bipartite matching.
//!
//! Used for (a) verifying the Hall/expansion condition of bipartite
//! expanding graphs (a `(c, c', t)`-expanding graph gives every `c`-subset
//! of inlets a large neighbourhood, certified through matchings), and
//! (b) the edge-colouring step of the looping algorithm on Beneš/Clos
//! networks. Runs in O(E·√V).

/// Result of a maximum matching computation on a bipartite graph with
/// `left` and `right` vertex sets.
#[derive(Clone, Debug)]
pub struct Matching {
    /// `pair_left[l]` = matched right vertex, or `u32::MAX`.
    pub pair_left: Vec<u32>,
    /// `pair_right[r]` = matched left vertex, or `u32::MAX`.
    pub pair_right: Vec<u32>,
    /// Number of matched pairs.
    pub size: usize,
}

const FREE: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// Reusable buffers for [`hopcroft_karp_into`]: the pair arrays plus the
/// layered-BFS scratch. One workspace serves instances of any size —
/// buffers are resized (never shrunk below capacity) per call, so
/// repeated matchings in expansion-verification loops allocate nothing
/// after the first.
#[derive(Clone, Debug, Default)]
pub struct MatchingWorkspace {
    /// `pair_left[l]` = matched right vertex, or `u32::MAX` — valid
    /// after [`hopcroft_karp_into`] returns.
    pub pair_left: Vec<u32>,
    /// `pair_right[r]` = matched left vertex, or `u32::MAX`.
    pub pair_right: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl MatchingWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Maximum matching in the bipartite graph `adj` where `adj[l]` lists the
/// right-neighbours of left vertex `l`, with `right_count` right vertices.
pub fn hopcroft_karp(adj: &[Vec<u32>], right_count: usize) -> Matching {
    let mut ws = MatchingWorkspace::new();
    let size = hopcroft_karp_into(adj, right_count, &mut ws);
    Matching {
        pair_left: ws.pair_left,
        pair_right: ws.pair_right,
        size,
    }
}

/// [`hopcroft_karp`] writing the pair arrays into a reusable
/// [`MatchingWorkspace`]; returns the matching size. Results are
/// identical to the allocating entry point.
pub fn hopcroft_karp_into(
    adj: &[Vec<u32>],
    right_count: usize,
    ws: &mut MatchingWorkspace,
) -> usize {
    let n = adj.len();
    ws.pair_left.clear();
    ws.pair_left.resize(n, FREE);
    ws.pair_right.clear();
    ws.pair_right.resize(right_count, FREE);
    ws.dist.clear();
    ws.dist.resize(n, INF);
    let pair_left = &mut ws.pair_left;
    let pair_right = &mut ws.pair_right;
    let dist = &mut ws.dist;
    let queue = &mut ws.queue;
    let mut size = 0usize;

    loop {
        // BFS from free left vertices to establish layer distances.
        queue.clear();
        for l in 0..n {
            if pair_left[l] == FREE {
                dist[l] = 0;
                queue.push(l as u32);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting = false;
        let mut head = 0;
        while head < queue.len() {
            let l = queue[head];
            head += 1;
            for &r in &adj[l as usize] {
                let l2 = pair_right[r as usize];
                if l2 == FREE {
                    found_augmenting = true;
                } else if dist[l2 as usize] == INF {
                    dist[l2 as usize] = dist[l as usize] + 1;
                    queue.push(l2);
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS augmentation along layered paths.
        fn try_augment(
            l: u32,
            adj: &[Vec<u32>],
            pair_left: &mut [u32],
            pair_right: &mut [u32],
            dist: &mut [u32],
        ) -> bool {
            for &r in &adj[l as usize] {
                let l2 = pair_right[r as usize];
                let ok = if l2 == FREE {
                    true
                } else if dist[l2 as usize] == dist[l as usize] + 1 {
                    try_augment(l2, adj, pair_left, pair_right, dist)
                } else {
                    false
                };
                if ok {
                    pair_left[l as usize] = r;
                    pair_right[r as usize] = l;
                    return true;
                }
            }
            dist[l as usize] = INF;
            false
        }
        for l in 0..n as u32 {
            if pair_left[l as usize] == FREE && try_augment(l, adj, pair_left, pair_right, dist) {
                size += 1;
            }
        }
    }

    size
}

/// Decomposes a `d`-regular bipartite multigraph (given as, for each left
/// vertex, exactly `d` right endpoints, repeats allowed) into `d` perfect
/// matchings — the edge-colouring used by the looping algorithm for
/// recursive Clos/Beneš route assignment. Returns `colors[l][k]` = right
/// endpoint matched to `l` in matching `k`.
///
/// Uses repeated Hopcroft–Karp peeling (a d-regular bipartite multigraph
/// always contains a perfect matching, by Hall).
///
/// # Panics
/// Panics if the graph is not `d`-regular on both sides.
pub fn regular_bipartite_edge_coloring(adj: &[Vec<u32>], right_count: usize) -> Vec<Vec<u32>> {
    let n = adj.len();
    if n == 0 {
        return Vec::new();
    }
    let d = adj[0].len();
    let mut right_deg = vec![0usize; right_count];
    for nbrs in adj {
        assert_eq!(nbrs.len(), d, "left side not regular");
        for &r in nbrs {
            right_deg[r as usize] += 1;
        }
    }
    assert!(
        right_deg.iter().all(|&x| x == d || x == 0),
        "right side not regular"
    );

    // remaining multiset of edges per left vertex
    let mut remaining: Vec<Vec<u32>> = adj.to_vec();
    let mut colors: Vec<Vec<u32>> = vec![Vec::with_capacity(d); n];
    let mut ws = MatchingWorkspace::new();
    for _round in 0..d {
        let simple: Vec<Vec<u32>> = remaining
            .iter()
            .map(|nbrs| {
                let mut s = nbrs.clone();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let size = hopcroft_karp_into(&simple, right_count, &mut ws);
        assert_eq!(
            size, n,
            "regular bipartite multigraph must have a perfect matching"
        );
        for l in 0..n {
            let r = ws.pair_left[l];
            colors[l].push(r);
            // remove one copy of (l, r)
            let pos = remaining[l]
                .iter()
                .position(|&x| x == r)
                .expect("matched edge must exist");
            remaining[l].swap_remove(pos);
        }
    }
    debug_assert!(remaining.iter().all(|v| v.is_empty()));
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_bipartite_adjacency, rng};
    use rand::Rng;

    #[test]
    fn perfect_matching_identity() {
        let adj: Vec<Vec<u32>> = (0..5).map(|i| vec![i]).collect();
        let m = hopcroft_karp(&adj, 5);
        assert_eq!(m.size, 5);
        for l in 0..5 {
            assert_eq!(m.pair_left[l], l as u32);
            assert_eq!(m.pair_right[l], l as u32);
        }
    }

    #[test]
    fn bottleneck_limits_matching() {
        // 3 left vertices all pointing at right vertex 0
        let adj = vec![vec![0], vec![0], vec![0]];
        let m = hopcroft_karp(&adj, 1);
        assert_eq!(m.size, 1);
    }

    #[test]
    fn augmenting_path_needed() {
        // l0: {r0}, l1: {r0, r1} — greedy could match l1-r0 first; HK must fix it
        let adj = vec![vec![0], vec![0, 1]];
        let m = hopcroft_karp(&adj, 2);
        assert_eq!(m.size, 2);
    }

    #[test]
    fn empty_graph() {
        let m = hopcroft_karp(&[], 0);
        assert_eq!(m.size, 0);
        let adj: Vec<Vec<u32>> = vec![vec![], vec![]];
        let m = hopcroft_karp(&adj, 3);
        assert_eq!(m.size, 0);
    }

    /// Matching size must equal max-flow on the same bipartite instance.
    #[test]
    fn matches_flow_on_random_instances() {
        let mut r = rng(0xBEEF);
        for _ in 0..25 {
            let left = r.random_range(1..15usize);
            let right = r.random_range(1..15usize);
            let deg = r.random_range(0..=right.min(6));
            let adj = random_bipartite_adjacency(&mut r, left, right, deg);
            let m = hopcroft_karp(&adj, right);
            // flow cross-check
            let mut f = crate::maxflow::FlowNetwork::new(left + right + 2);
            let s = (left + right) as u32;
            let t = s + 1;
            for (l, nbrs) in adj.iter().enumerate() {
                f.add_arc(s, l as u32, 1);
                for &rr in nbrs {
                    f.add_arc(l as u32, (left as u32) + rr, 1);
                }
            }
            for rr in 0..right {
                f.add_arc((left + rr) as u32, t, 1);
            }
            assert_eq!(m.size as u32, f.max_flow(s, t, None));
            // consistency of pair arrays
            for (l, nbrs) in adj.iter().enumerate() {
                let pr = m.pair_left[l];
                if pr != u32::MAX {
                    assert_eq!(m.pair_right[pr as usize], l as u32);
                    assert!(nbrs.contains(&pr));
                }
            }
        }
    }

    #[test]
    fn edge_coloring_splits_regular_graph() {
        // 2-regular: l0-{r0,r1}, l1-{r1,r0}
        let adj = vec![vec![0, 1], vec![1, 0]];
        let colors = regular_bipartite_edge_coloring(&adj, 2);
        assert_eq!(colors.len(), 2);
        for k in 0..2 {
            // each round is a perfect matching
            let mut used = [false; 2];
            for row in &colors {
                let r = row[k] as usize;
                assert!(!used[r]);
                used[r] = true;
            }
        }
    }

    #[test]
    fn edge_coloring_with_parallel_edges() {
        // 2-regular multigraph with a doubled edge: l0={r0,r0}, l1={r1,r1}
        let adj = vec![vec![0, 0], vec![1, 1]];
        let colors = regular_bipartite_edge_coloring(&adj, 2);
        assert_eq!(colors[0], vec![0, 0]);
        assert_eq!(colors[1], vec![1, 1]);
    }

    #[test]
    fn edge_coloring_random_regular() {
        // build a d-regular bipartite multigraph as union of d permutations
        let mut r = rng(0xC01);
        for _ in 0..10 {
            let n = r.random_range(2..12usize);
            let d = r.random_range(1..5usize);
            let mut adj = vec![Vec::with_capacity(d); n];
            for _ in 0..d {
                let p = crate::gen::random_permutation(&mut r, n);
                for (l, &rr) in p.iter().enumerate() {
                    adj[l].push(rr);
                }
            }
            let colors = regular_bipartite_edge_coloring(&adj, n);
            for k in 0..d {
                let mut used = vec![false; n];
                for row in &colors {
                    let rr = row[k] as usize;
                    assert!(!used[rr], "round {k} not a matching");
                    used[rr] = true;
                }
            }
        }
    }
}
