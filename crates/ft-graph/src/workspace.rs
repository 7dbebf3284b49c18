//! Reusable traversal workspace with epoch-based clearing.
//!
//! Monte Carlo experiments run the same traversal kernels millions of
//! times over one topology. Allocating `dist`/`parent`/`queue` vectors
//! per trial dominates small-graph trials and trashes the allocator on
//! big ones, and even a reused buffer pays an O(n) clear per trial if it
//! is reset with `fill`. [`TraversalWorkspace`] solves both: buffers are
//! allocated once and *logically* cleared by bumping an epoch counter —
//! an entry is valid only if its stamp equals the current epoch — so a
//! reset costs O(1) and a whole trial costs O(vertices touched).
//!
//! The workspace is shared by the `_into` entry points of
//! [`crate::traversal::bfs_into`], [`crate::maxflow`] (Dinic levels and
//! iterator state) and, through [`crate::maxflow::FlowWorkspace`], the
//! Menger helpers. One workspace may serve domains of different sizes
//! back to back (e.g. a graph with `n` vertices and its split flow
//! network with `2n + 2` nodes): `TraversalWorkspace::begin` grows the
//! buffers on demand and never shrinks them. The router's depth-first
//! descent ([`crate::traversal::route_into`]) needs only the touch
//! marks and its own stack: it runs on a [`RouteWorkspace`].

use crate::ids::{EdgeId, VertexId};
use crate::traversal::UNREACHED;
use crate::Csr;
use std::ops::Range;

/// Per-kernel work counters, accumulated by the traversal workspaces.
///
/// These are *deterministic* cost measures (they count algorithmic
/// steps, not wall-clock), so they can feed reproducible reports: the
/// same run always pops the same frontiers. Counters accumulate across
/// traversals until [`TraversalWorkspace::reset_stats`] /
/// [`crate::sliced::SlicedWorkspace::reset_stats`]; readers that want a
/// per-operation delta snapshot before and after.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Epoch-stamped workspace resets (`begin` calls): one per
    /// traversal started, the O(1)-clear discipline's unit of work.
    pub epoch_resets: u64,
    /// Vertices whose edge lists a point-to-point route search scanned
    /// — the dominant cost of a `connect` attempt. For the router's
    /// depth-first descent ([`crate::traversal::route_into`]) that is
    /// every vertex the descent entered short of the target; for the
    /// oracle flood ([`crate::traversal::bibfs_into`]) both floods, the
    /// frontier vertices tested for a cone hit and its greedy descent.
    /// The field keeps the name it had when the flood was the router's
    /// search: the out-of-tree benchmark package reads it.
    pub bibfs_pops: u64,
    /// Vertex visits of the 64-lane sliced reachability sweep that
    /// carried lanes: one per vertex reached in some lane on the
    /// ascending pass, one per worklist pop on the worklist (which pops
    /// a vertex again when new lanes reach it after its first pop). The
    /// two agree whenever every vertex's lanes arrive before it is
    /// first expanded, e.g. on a unit-staged network swept from stage 0.
    pub sliced_pops: u64,
    /// Lane bits the sliced sweep decided: the popcount of every
    /// reached word, summed over the vertices — equal on both paths.
    pub sliced_lane_decisions: u64,
    /// Split nodes the min-cost placement planner settled
    /// ([`crate::mincost::mincost_place_into`]): up to two per fabric
    /// vertex a placement search reached, its target included.
    pub mincost_pops: u64,
}

impl KernelStats {
    /// Folds another counter set into this one.
    #[inline]
    pub fn merge(&mut self, other: &KernelStats) {
        self.epoch_resets += other.epoch_resets;
        self.bibfs_pops += other.bibfs_pops;
        self.sliced_pops += other.sliced_pops;
        self.sliced_lane_decisions += other.sliced_lane_decisions;
        self.mincost_pops += other.mincost_pops;
    }
}

/// Epoch-stamped touch marks: entry `i` is marked iff
/// `stamp[i] == epoch`, so clearing every mark costs O(1).
#[derive(Clone, Debug, Default)]
pub(crate) struct Marks {
    epoch: u32,
    stamp: Vec<u32>,
}

impl Marks {
    /// Grows to `n` entries and clears every mark in O(1) (O(n) once
    /// per 2³² clears, on epoch wrap-around).
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline(always)]
    pub(crate) fn is_set(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    #[inline(always)]
    pub(crate) fn set(&mut self, i: usize) {
        self.stamp[i] = self.epoch;
    }
}

/// Reusable buffers for BFS-shaped traversals, cleared in O(touched).
///
/// After a traversal (`bfs_into` and friends) the workspace *is* the
/// result: query it with [`reached`](Self::reached),
/// [`dist`](Self::dist), [`parent_edge`](Self::parent_edge),
/// [`order`](Self::order) and [`path_to`](Self::path_to). The result
/// stays valid until the next traversal that borrows the workspace.
#[derive(Clone, Debug, Default)]
pub struct TraversalWorkspace {
    /// Entries touched in the current traversal.
    pub(crate) marks: Marks,
    /// BFS distance / Dinic level of each touched entry.
    pub(crate) dist: Vec<u32>,
    /// BFS parent edge bits / Dinic per-node arc cursor.
    pub(crate) parent: Vec<u32>,
    /// FIFO queue; after a traversal this is the discovery order.
    pub(crate) queue: Vec<VertexId>,
    /// Deterministic work counters (resets, flood pops).
    pub(crate) stats: KernelStats,
}

impl TraversalWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new traversal over a domain of `n` entries: grows the
    /// buffers if needed and invalidates every previous stamp in O(1).
    pub(crate) fn begin(&mut self, n: usize) {
        self.marks.begin(n);
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.parent.resize(n, 0);
        }
        self.stats.epoch_resets += 1;
        self.queue.clear();
    }

    /// The workspace's accumulated [`KernelStats`].
    #[inline]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Zeroes the accumulated [`KernelStats`].
    pub fn reset_stats(&mut self) {
        self.stats = KernelStats::default();
    }

    /// Records `v` as discovered over edge `e` at distance `dist`
    /// ([`EdgeId::NONE`] for a source) and appends it to the queue.
    #[inline(always)]
    pub(crate) fn discover(&mut self, v: VertexId, e: EdgeId, dist: u32) {
        self.marks.set(v.index());
        self.dist[v.index()] = dist;
        self.parent[v.index()] = e.0;
        self.queue.push(v);
    }

    /// Whether `v` was reached by the last traversal.
    #[inline]
    pub fn reached(&self, v: VertexId) -> bool {
        self.marks.is_set(v.index())
    }

    /// Distance of `v` from the sources of the last traversal, or
    /// `UNREACHED` (`u32::MAX`) if it was not reached.
    #[inline]
    pub fn dist(&self, v: VertexId) -> u32 {
        if self.marks.is_set(v.index()) {
            self.dist[v.index()]
        } else {
            UNREACHED
        }
    }

    /// Edge by which `v` was discovered (`EdgeId::NONE`, i.e. `u32::MAX`,
    /// for sources and unreached vertices).
    #[inline]
    pub fn parent_edge(&self, v: VertexId) -> EdgeId {
        if self.marks.is_set(v.index()) {
            EdgeId(self.parent[v.index()])
        } else {
            EdgeId::NONE
        }
    }

    /// Vertices reached by the last traversal, in discovery order.
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.queue
    }

    /// Number of vertices reached by the last traversal.
    #[inline]
    pub fn num_reached(&self) -> usize {
        self.queue.len()
    }

    /// How many reached vertices have ids in `range` — O(reached), not
    /// O(|range|), so counting boundary-stage access in a huge network
    /// costs only the vertices the walk actually touched.
    pub fn count_reached_in(&self, range: Range<u32>) -> usize {
        self.queue.iter().filter(|v| range.contains(&v.0)).count()
    }

    /// Reconstructs a path from some source of the last traversal to `v`
    /// (inclusive), following parent edges backwards. Returns `None` if
    /// `v` was not reached. `g` must be the graph the traversal ran on.
    pub fn path_to(&self, g: &Csr, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        loop {
            let e = self.parent_edge(cur);
            if e.is_none() {
                break;
            }
            cur = g.other_endpoint(e, cur);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Reusable state of the router's depth-first descent
/// ([`crate::traversal::route_into`]): touch marks, the descent's
/// stack and its work counters. The descent returns its path itself,
/// so unlike [`TraversalWorkspace`] it keeps no distances, parent
/// edges or discovery order.
#[derive(Clone, Debug, Default)]
pub struct RouteWorkspace {
    /// Vertices the current descent entered.
    pub(crate) marks: Marks,
    /// The path under construction, each vertex with the position of
    /// its next unscanned out-edge. Never deeper than the network has
    /// stages; on success it is the found path, short of its last two
    /// vertices.
    pub(crate) stack: Vec<(VertexId, u32)>,
    /// Deterministic work counters (resets, descent pops).
    pub(crate) stats: KernelStats,
}

impl RouteWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new descent over `n` vertices.
    pub(crate) fn begin(&mut self, n: usize) {
        self.marks.begin(n);
        self.stats.epoch_resets += 1;
        self.stack.clear();
    }

    /// Whether the last descent entered `v` (the target counts on
    /// success).
    #[inline]
    pub fn reached(&self, v: VertexId) -> bool {
        self.marks.is_set(v.index())
    }

    /// The workspace's accumulated [`KernelStats`].
    #[inline]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::v;
    use crate::traversal::{bfs_into, Direction};

    fn chain(n: usize) -> Csr {
        Csr::from_edges(n, (1..n as u32).map(|i| (v(i - 1), v(i))).collect())
    }

    #[test]
    fn epoch_reset_invalidates_previous_run() {
        let g = chain(4);
        let mut ws = TraversalWorkspace::new();
        bfs_into(&g, &[v(0)], Direction::Forward, |_| true, |_| true, &mut ws);
        assert!(ws.reached(v(3)));
        // second run from the far end: old reachability must be gone
        bfs_into(&g, &[v(3)], Direction::Forward, |_| true, |_| true, &mut ws);
        assert!(ws.reached(v(3)));
        assert!(!ws.reached(v(0)));
        assert_eq!(ws.dist(v(0)), UNREACHED);
        assert_eq!(ws.parent_edge(v(0)), EdgeId::NONE);
    }

    #[test]
    fn grows_across_domains() {
        let small = chain(3);
        let big = chain(50);
        let mut ws = TraversalWorkspace::new();
        bfs_into(
            &small,
            &[v(0)],
            Direction::Forward,
            |_| true,
            |_| true,
            &mut ws,
        );
        assert_eq!(ws.num_reached(), 3);
        bfs_into(
            &big,
            &[v(0)],
            Direction::Forward,
            |_| true,
            |_| true,
            &mut ws,
        );
        assert_eq!(ws.num_reached(), 50);
        assert_eq!(ws.dist(v(49)), 49);
    }

    #[test]
    fn count_reached_in_range() {
        let g = chain(10);
        let mut ws = TraversalWorkspace::new();
        bfs_into(&g, &[v(4)], Direction::Forward, |_| true, |_| true, &mut ws);
        assert_eq!(ws.count_reached_in(0..10), 6);
        assert_eq!(ws.count_reached_in(0..4), 0);
        assert_eq!(ws.count_reached_in(8..10), 2);
    }

    #[test]
    fn path_reconstruction() {
        let g = chain(5);
        let mut ws = TraversalWorkspace::new();
        bfs_into(&g, &[v(0)], Direction::Forward, |_| true, |_| true, &mut ws);
        let p = ws.path_to(&g, v(4)).unwrap();
        assert_eq!(p, vec![v(0), v(1), v(2), v(3), v(4)]);
        bfs_into(&g, &[v(2)], Direction::Forward, |_| true, |_| true, &mut ws);
        assert!(ws.path_to(&g, v(0)).is_none());
    }
}
