//! Min-cost circuit placement on the live idle fabric.
//!
//! The second flow kernel: where [`crate::maxflow`] answers *how many*
//! disjoint circuits exist, this module places one circuit at a time so
//! that it disturbs the fabric least — every switch vertex a circuit
//! occupies costs one unit. The post-storm mass reroute
//! (`ft-networks::CircuitRouter::mincost_place`) places a kill wave's
//! victims this way, one after another in kill order.
//!
//! The search runs on the vertex split of the fabric, read straight off
//! the [`Csr`] and an idle predicate — no network is built:
//!
//! * in-node `2v` → out-node `2v + 1`, cost 1, if `v` is idle;
//! * out-node `2u + 1` → in-node `2h`, cost 0, for each out-edge
//!   `u → h` in CSR order, if `h` is idle.
//!
//! A placed circuit leaves the idle set, so its split arcs and switch
//! arcs disappear together: the residual network of successive shortest
//! paths never carries a usable reverse arc, and each placement is one
//! plain Dijkstra on *reduced* costs `c(x, y) + π(x) − π(y)`. The
//! potentials `π` restart at zero with each wave
//! ([`MincostWorkspace::begin_wave`]; all costs are nonnegative) and
//! after every successful placement take `π(x) += min(d(x), d(t))`,
//! which keeps reduced costs nonnegative across placements **and across
//! changing source/sink pairs**. Heap pops run in `(reduced distance,
//! node id)` order and relaxations are strict `<` in edge order, so
//! plans are deterministic.
//!
//! Every node's potential gains `d(t)` except those the search settled
//! short of `t`, so the workspace keeps one potential *delta* per node,
//! stamped with its wave: a wave starts in O(1) and a placement costs
//! O(nodes it touches).

use crate::csr::Csr;
use crate::ids::VertexId;
use crate::workspace::KernelStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per split-node scratch; a field is live only under its stamp.
#[derive(Clone, Copy, Debug, Default)]
struct Node {
    /// Reduced distance from the source, valid iff `seen == search`.
    dist: i64,
    /// Potential minus the wave's common offset, valid iff
    /// `wave == MincostWorkspace::wave` (zero otherwise).
    pot: i64,
    seen: u32,
    done: u32,
    wave: u32,
    /// For an in-node `2h`: the vertex whose out-node last lowered it.
    parent: u32,
}

/// Reusable state of the min-cost placement planner: stamped per-node
/// distances, parents and potentials, the Dijkstra heap and the nodes
/// the last search settled. One workspace serves wave after wave; its
/// buffers grow to `2 × vertices` once and are then reused.
#[derive(Clone, Debug, Default)]
pub struct MincostWorkspace {
    nodes: Vec<Node>,
    search: u32,
    wave: u32,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    settled: Vec<u32>,
    stats: KernelStats,
}

impl MincostWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a placement wave: every potential restarts at zero. O(1)
    /// (O(nodes) once per 2³² waves, on stamp wrap-around).
    pub fn begin_wave(&mut self) {
        self.wave = self.wave.wrapping_add(1);
        if self.wave == 0 {
            self.nodes.iter_mut().for_each(|x| x.wave = 0);
            self.wave = 1;
        }
    }

    /// The accumulated [`KernelStats`] (only `mincost_pops` moves).
    #[inline]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    #[inline(always)]
    fn pot(&self, x: u32) -> i64 {
        let node = &self.nodes[x as usize];
        if node.wave == self.wave {
            node.pot
        } else {
            0
        }
    }

    /// Starts one search over `n` nodes: grows the buffers if needed and
    /// invalidates every distance stamp.
    fn begin_search(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, Node::default());
        }
        self.search = self.search.wrapping_add(1);
        if self.search == 0 {
            self.nodes
                .iter_mut()
                .for_each(|x| (x.seen, x.done) = (0, 0));
            self.search = 1;
        }
        self.heap.clear();
        self.settled.clear();
    }

    /// Offers distance `d` to node `y` (from vertex `parent` for an
    /// in-node): strict `<`, so the first relaxation at a distance wins.
    #[inline(always)]
    fn relax(&mut self, y: u32, d: i64, parent: u32) {
        let search = self.search;
        let node = &mut self.nodes[y as usize];
        if node.seen != search || d < node.dist {
            node.seen = search;
            node.dist = d;
            node.parent = parent;
            self.heap.push(Reverse((d, y)));
        }
    }
}

/// Places one cheapest circuit `source → target` over the vertices
/// `idle` admits and writes its vertex path (source first) to `path`.
/// Returns `false` — leaving `path` cleared and every potential as it
/// was — when no idle path exists.
///
/// Call [`MincostWorkspace::begin_wave`] when a wave starts. Within a
/// wave the caller must withdraw each placed path from `idle` before the
/// next call, and may change nothing else; the `(source, target)` pair
/// may change freely between calls. `source` and `target` must be idle
/// and distinct.
pub fn mincost_place_into(
    csr: &Csr,
    source: VertexId,
    target: VertexId,
    idle: impl Fn(VertexId) -> bool,
    ws: &mut MincostWorkspace,
    path: &mut Vec<VertexId>,
) -> bool {
    debug_assert!(idle(source) && idle(target) && source != target);
    path.clear();
    ws.begin_search(2 * csr.num_vertices());
    let (s, t) = (2 * source.0, 2 * target.0 + 1);
    ws.relax(s, 0, u32::MAX);
    let mut found = false;
    while let Some(Reverse((d, x))) = ws.heap.pop() {
        let search = ws.search;
        let node = &mut ws.nodes[x as usize];
        if node.done == search {
            continue;
        }
        node.done = search;
        ws.settled.push(x);
        ws.stats.mincost_pops += 1;
        if x == t {
            found = true;
            break;
        }
        // Reduced arc cost `c + π(x) − π(y)`: `base` is `d + π(x)`.
        let base = d + ws.pot(x);
        if x % 2 == 0 {
            // An in-node is entered only while its vertex is idle.
            let y = x + 1;
            debug_assert!(ws.nodes[y as usize].done != search);
            ws.relax(y, base + 1 - ws.pot(y), u32::MAX);
            continue;
        }
        let u = VertexId(x / 2);
        for &h in csr.out_heads(u) {
            let y = 2 * h.0;
            if !idle(h) || ws.nodes[y as usize].done == search {
                continue;
            }
            let nd = base - ws.pot(y);
            debug_assert!(
                nd >= ws.nodes[x as usize].dist,
                "reduced cost went negative"
            );
            ws.relax(y, nd, u.0);
        }
    }
    if !found {
        return false;
    }
    // π(x) += min(d(x), d(t)) for all x, less the common d(t): only the
    // settled nodes sit below d(t) (the heap pops in distance order).
    let (dt, wave) = (ws.nodes[t as usize].dist, ws.wave);
    for &x in &ws.settled {
        let node = &mut ws.nodes[x as usize];
        let pot = if node.wave == wave { node.pot } else { 0 };
        node.pot = pot + node.dist - dt;
        node.wave = wave;
    }
    let mut v = target;
    loop {
        path.push(v);
        if v == source {
            break;
        }
        v = VertexId(ws.nodes[2 * v.index()].parent);
    }
    path.reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs, Direction};

    /// The graph on `0..n` with `edges`, stably sorted by tail.
    fn csr(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut edges: Vec<_> = edges
            .iter()
            .map(|&(t, h)| (VertexId(t), VertexId(h)))
            .collect();
        edges.sort_by_key(|&(t, _)| t);
        Csr::from_edges(n, edges)
    }

    fn place(
        g: &Csr,
        idle: &mut [bool],
        s: u32,
        t: u32,
        ws: &mut MincostWorkspace,
    ) -> Option<Vec<u32>> {
        let mut path = Vec::new();
        let ok = mincost_place_into(
            g,
            VertexId(s),
            VertexId(t),
            |v| idle[v.index()],
            ws,
            &mut path,
        );
        for v in &path {
            idle[v.index()] = false;
        }
        ok.then(|| path.iter().map(|v| v.0).collect())
    }

    #[test]
    fn cheapest_path_wins_before_expensive_one() {
        // two vertex-disjoint 0→5 routes: 0→1→5 (3 vertices) and
        // 0→2→3→4→5 (5 vertices); the first placement takes the cheap
        // one, and with 0 and 5 released the second takes the other
        let g = csr(6, &[(0, 2), (2, 3), (3, 4), (4, 5), (0, 1), (1, 5)]);
        let mut idle = vec![true; 6];
        let mut ws = MincostWorkspace::new();
        ws.begin_wave();
        assert_eq!(place(&g, &mut idle, 0, 5, &mut ws), Some(vec![0, 1, 5]));
        idle[0] = true;
        idle[5] = true;
        assert_eq!(
            place(&g, &mut idle, 0, 5, &mut ws),
            Some(vec![0, 2, 3, 4, 5])
        );
        idle[0] = true;
        idle[5] = true;
        assert_eq!(place(&g, &mut idle, 0, 5, &mut ws), None);
    }

    #[test]
    fn changing_pairs_keep_potentials_valid() {
        // A random DAG planned one pair at a time, the way the router
        // places a wave: every placement is a cheapest idle path (a
        // shortest one by vertex count), whatever pairs came before —
        // the debug assertion on reduced costs checks the potentials.
        let mut r = crate::gen::rng(5);
        for _ in 0..40 {
            let g = crate::gen::random_dag(&mut r, 14, 40);
            let mut idle = vec![true; 14];
            let mut ws = MincostWorkspace::new();
            ws.begin_wave();
            for s in 0..7u32 {
                let t = 13 - s;
                if !idle[s as usize] || !idle[t as usize] {
                    continue;
                }
                let mask = idle.clone();
                let flood = bfs(
                    &g,
                    &[VertexId(s)],
                    Direction::Forward,
                    |_| true,
                    |v| mask[v.index()],
                );
                let want = flood
                    .reached(VertexId(t))
                    .then(|| flood.dist[t as usize] + 1);
                let got = place(&g, &mut idle, s, t, &mut ws).map(|p| p.len() as u32);
                assert_eq!(got, want, "pair {s} → {t}");
            }
        }
    }

    #[test]
    fn reset_reuses_allocation() {
        // a new wave restarts the potentials without touching the
        // buffers: the same wave replayed gives the same paths and pops
        let g = csr(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (1, 4),
                (2, 4),
                (3, 5),
                (4, 5),
            ],
        );
        let mut ws = MincostWorkspace::new();
        let mut runs = Vec::new();
        for _ in 0..3 {
            ws.begin_wave();
            let before = ws.stats().mincost_pops;
            let mut idle = vec![true; 6];
            let first = place(&g, &mut idle, 0, 3, &mut ws);
            let second = place(&g, &mut idle, 2, 5, &mut ws);
            runs.push((
                first,
                second,
                ws.stats().mincost_pops - before,
                ws.nodes.capacity(),
            ));
        }
        assert_eq!(
            (&runs[0].0, &runs[0].1),
            (&Some(vec![0, 1, 3]), &Some(vec![2, 4, 5]))
        );
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    }
}
