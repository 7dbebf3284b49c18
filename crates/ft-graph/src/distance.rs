//! Undirected distances and the zone decomposition of §5.
//!
//! The lower-bound proofs of the paper measure distance **ignoring edge
//! direction**: `dist(v₁, v₂)` is the length of the shortest undirected
//! path, and the distance from a vertex to an edge `e = (τ, η)` is
//! `min(dist(v, τ), dist(v, η)) + 1`. Around each *good* input the proof
//! of Theorem 1 partitions the nearby edges into **zones**
//! `B_h(v) = { e : dist(v, e) = h }` and argues every zone must carry
//! Ω(log n) switches, else open failures disconnect the input.

use crate::ids::{EdgeId, VertexId};
use crate::traversal::{bfs, Direction, UNREACHED};
use crate::Csr;

/// Undirected BFS distances from `v` (UNREACHED where disconnected).
pub fn undirected_distances(g: &Csr, v: VertexId) -> Vec<u32> {
    bfs(g, &[v], Direction::Undirected, |_| true, |_| true).dist
}

/// `dist(v, e)` as defined in §5: `min` over endpoints `+ 1`, or
/// `UNREACHED` if neither endpoint is reachable.
pub fn edge_distance(dist: &[u32], endpoints: (VertexId, VertexId)) -> u32 {
    let (t, h) = endpoints;
    let d = dist[t.index()].min(dist[h.index()]);
    if d == UNREACHED {
        UNREACHED
    } else {
        d + 1
    }
}

/// The zone decomposition `B_1(v), …, B_k(v)`: `zones[h-1]` lists the edges
/// at distance exactly `h` from `v` (1-based distance, as in the paper).
/// Edges farther than `max_h` are ignored.
pub fn edge_zones(g: &Csr, v: VertexId, max_h: u32) -> Vec<Vec<EdgeId>> {
    let dist = undirected_distances(g, v);
    let mut zones: Vec<Vec<EdgeId>> = vec![Vec::new(); max_h as usize];
    for e in 0..g.num_edges() {
        let e = EdgeId::from(e);
        let d = edge_distance(&dist, g.endpoints(e));
        if d != UNREACHED && d <= max_h {
            zones[(d - 1) as usize].push(e);
        }
    }
    zones
}

/// All edges within distance `max_h` of `v` — the set `B(v)` of Theorem 1.
pub fn edge_ball(g: &Csr, v: VertexId, max_h: u32) -> Vec<EdgeId> {
    let dist = undirected_distances(g, v);
    (0..g.num_edges())
        .map(EdgeId::from)
        .filter(|&e| {
            let d = edge_distance(&dist, g.endpoints(e));
            d != UNREACHED && d <= max_h
        })
        .collect()
}

/// For every vertex in `terminals`, the undirected distance to the nearest
/// *other* vertex of `terminals` (`UNREACHED` if none reachable).
///
/// Lemma 2 shows a (¼, ½)-superconcentrator must have ≥ n/2 inputs whose
/// nearest-other-input distance is ≥ (1/16)·log₂ n; this function is the
/// measurement behind that experiment. Runs one BFS per terminal.
pub fn nearest_other_terminal(g: &Csr, terminals: &[VertexId]) -> Vec<u32> {
    let mut is_terminal = vec![false; g.num_vertices()];
    for &t in terminals {
        is_terminal[t.index()] = true;
    }
    terminals
        .iter()
        .map(|&t| {
            let b = bfs(g, &[t], Direction::Undirected, |_| true, |_| true);
            let mut best = UNREACHED;
            for &u in &b.order {
                if u != t && is_terminal[u.index()] {
                    best = best.min(b.dist[u.index()]);
                }
            }
            best
        })
        .collect()
}

/// Counts the terminals whose nearest-other-terminal distance is at least
/// `threshold` — the paper's **good inputs** (Theorem 1 proof).
pub fn count_good_terminals(g: &Csr, terminals: &[VertexId], threshold: u32) -> usize {
    nearest_other_terminal(g, terminals)
        .iter()
        .filter(|&&d| d >= threshold)
        .count()
}

/// Undirected eccentricity of `v` restricted to reachable vertices.
pub fn eccentricity(g: &Csr, v: VertexId) -> u32 {
    undirected_distances(g, v)
        .into_iter()
        .filter(|&d| d != UNREACHED)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::v;

    /// Path 0 -> 1 -> 2 -> 3 (e0, e1, e3) with an extra branch 1 -> 4 (e2).
    const BRANCHED_PATH: [(VertexId, VertexId); 4] = [
        (VertexId(0), VertexId(1)),
        (VertexId(1), VertexId(2)),
        (VertexId(1), VertexId(4)),
        (VertexId(2), VertexId(3)),
    ];

    fn branched_path() -> Csr {
        Csr::from_edges(5, BRANCHED_PATH.to_vec())
    }

    #[test]
    fn undirected_distances_ignore_direction() {
        let g = branched_path();
        let d = undirected_distances(&g, v(3));
        assert_eq!(d, vec![3, 2, 1, 0, 3]);
    }

    #[test]
    fn edge_distance_definition() {
        let g = branched_path();
        let d = undirected_distances(&g, v(0));
        // e0 = (0,1): min(0,1)+1 = 1
        assert_eq!(edge_distance(&d, g.endpoints(crate::ids::e(0))), 1);
        // e1 = (1,2): min(1,2)+1 = 2
        assert_eq!(edge_distance(&d, g.endpoints(crate::ids::e(1))), 2);
        // e2 = (1,4): min(1,4)+1 = 2
        assert_eq!(edge_distance(&d, g.endpoints(crate::ids::e(2))), 2);
        // e3 = (2,3): min(2,3)+1 = 3
        assert_eq!(edge_distance(&d, g.endpoints(crate::ids::e(3))), 3);
    }

    #[test]
    fn zones_partition_the_ball() {
        let g = branched_path();
        let zones = edge_zones(&g, v(0), 3);
        assert_eq!(zones.len(), 3);
        assert_eq!(zones[0].len(), 1); // e0
        assert_eq!(zones[1].len(), 2); // e1, e2
        assert_eq!(zones[2].len(), 1); // e3
        let ball = edge_ball(&g, v(0), 2);
        assert_eq!(ball.len(), 3);
        // zones are disjoint and their union is the ball (for matching radius)
        let flat: usize = edge_zones(&g, v(0), 2).iter().map(|z| z.len()).sum();
        assert_eq!(flat, ball.len());
    }

    #[test]
    fn disconnected_edges_excluded() {
        let island = (v(5), v(6)); // disconnected component
        let g = Csr::from_edges(7, BRANCHED_PATH.into_iter().chain([island]).collect());
        let zones = edge_zones(&g, v(0), 10);
        let total: usize = zones.iter().map(|z| z.len()).sum();
        assert_eq!(total, 4, "the island edge is unreachable");
    }

    #[test]
    fn nearest_terminals_exact() {
        let g = branched_path();
        // dist(0,4) = 2 (0-1-4); dist(0,3) = 3; dist(3,4) = 3 (3-2-1-4)
        let d = nearest_other_terminal(&g, &[v(0), v(3), v(4)]);
        assert_eq!(d[0], 2);
        assert_eq!(d[1], 3);
        assert_eq!(d[2], 2);
        assert_eq!(count_good_terminals(&g, &[v(0), v(3), v(4)], 3), 1);
        assert_eq!(count_good_terminals(&g, &[v(0), v(3), v(4)], 2), 3);
    }

    #[test]
    fn eccentricity_of_path() {
        let g = branched_path();
        assert_eq!(eccentricity(&g, v(0)), 3);
        assert_eq!(eccentricity(&g, v(1)), 2);
        let lonely = Csr::from_edges(1, vec![]);
        assert_eq!(eccentricity(&lonely, v(0)), 0);
    }
}
