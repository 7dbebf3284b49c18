//! Lane-parallel (bit-sliced) reachability over one topology.
//!
//! Monte Carlo reliability experiments evaluate the *same* graph under
//! many independent failure instances. The scalar pipeline runs one
//! [`crate::traversal::bfs_into`] per instance; this module transposes
//! the problem: **64 instances ride in the 64 bits of a machine word**,
//! and one sweep answers reachability for all of them at once.
//!
//! Per vertex the workspace holds a single `u64` — bit *i* set means
//! "vertex reached in lane *i*" — and an edge contributes
//! `reached[tail] & edge_lanes(e) & vertex_lanes(head)` to its head:
//! propagation is pure AND/OR word algebra, so the per-edge cost is a
//! few ALU ops *for all 64 trials together* instead of a branchy
//! visit per trial. Lanes are fully independent; the result is the
//! per-lane reachable set a scalar BFS with that lane's filters would
//! compute (pinned by proptests in `ft-graph/tests/proptests.rs`).
//!
//! The sweep takes one of two paths; both compute the same words.
//!
//! * **Ascending pass** — a `Forward` sweep over a graph whose edges all
//!   go from a lower vertex id to a higher one
//!   ([`Csr::ids_ascend`]; every network a [`crate::StagedBuilder`]
//!   builds, since its stages take ascending id ranges). Ascending id
//!   order is then a topological order: the pass visits every vertex
//!   from the lowest source id upward once, and by then each
//!   in-neighbour has pushed its lanes, so the vertex's word is final —
//!   the stage-by-stage walk, with no queue. Cost: O(vertices from the
//!   lowest source up + out-edges of reached vertices), in one
//!   sequential scan.
//! * **Worklist fixpoint** — every other sweep: `Backward`,
//!   `Undirected` (the reliability shorting check), and graphs whose ids
//!   do not ascend (a graph with a falling edge). A vertex
//!   re-enters the FIFO when *new lanes* arrive. Cost: O(vertices
//!   touched × incident edges).
//!
//! Only *membership* is computed — there are no per-lane distances or
//! parent edges, because the Monte Carlo consumers (open/short verdicts,
//! pair blocking) need verdict bits only. Lanes that need a full
//! per-instance answer (an actual path, disjoint-path counts) fall back
//! to the scalar kernels on an unpacked instance
//! (`ft_failure::SlicedFailureMask::extract_lane_into`).
//!
//! Buffers are epoch-stamped exactly like
//! [`TraversalWorkspace`](crate::workspace::TraversalWorkspace): a
//! reset is O(1), and one workspace serves domains of different sizes
//! back to back. The worklist's gate cache and queue grow only when the
//! worklist runs.

use crate::ids::{EdgeId, VertexId};
use crate::traversal::{incident, Direction};
use crate::workspace::KernelStats;
use crate::Csr;

/// Number of Monte Carlo lanes carried per machine word.
pub const LANES: usize = 64;

/// Reusable buffers for lane-parallel reachability sweeps.
///
/// After [`sliced_reach_into`] the workspace *is* the result: query it
/// with [`reached_lanes`](Self::reached_lanes) /
/// [`reached`](Self::reached). The result stays valid until the next
/// sweep that borrows the workspace.
#[derive(Clone, Debug, Default)]
pub struct SlicedWorkspace {
    /// Current epoch; entry `i` of `reached`/`gate` is live iff the
    /// matching stamp equals it.
    epoch: u32,
    stamp: Vec<u32>,
    /// Per-vertex lane word: bit `i` set ⇔ reached in lane `i`.
    reached: Vec<u64>,
    /// Worklist only: cached `vertex_lanes` gate, computed once per
    /// touched vertex.
    gate_stamp: Vec<u32>,
    gate: Vec<u64>,
    /// Worklist only: in-queue stamp (equals `epoch` while the vertex
    /// waits in the worklist; demoted on pop so new lanes can re-enqueue
    /// it).
    inq: Vec<u32>,
    queue: Vec<VertexId>,
    /// Deterministic work counters (resets, reached-vertex visits, lane
    /// bits).
    stats: KernelStats,
}

impl SlicedWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new sweep over a domain of `n` vertices: grows the
    /// result buffers if needed and invalidates every previous stamp in
    /// O(1) (O(n) only on epoch wrap-around, once per 2³² sweeps).
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.reached.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.gate_stamp.fill(0);
            self.inq.fill(0);
            self.epoch = 1;
        }
        self.stats.epoch_resets += 1;
    }

    /// Readies the worklist's own buffers for a domain of `n` vertices.
    /// A stamp of 0 is never live (epochs start at 1), so grown entries
    /// are clear.
    fn begin_worklist(&mut self, n: usize) {
        if self.gate_stamp.len() < n {
            self.gate_stamp.resize(n, 0);
            self.gate.resize(n, 0);
            self.inq.resize(n, 0);
        }
        self.queue.clear();
    }

    /// The workspace's accumulated [`KernelStats`] (sweeps started,
    /// reached-vertex visits, lane bits decided).
    #[inline]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Zeroes the accumulated [`KernelStats`].
    pub fn reset_stats(&mut self) {
        self.stats = KernelStats::default();
    }

    /// Lane word of `v` after the last sweep: bit `i` set ⇔ `v` was
    /// reached in lane `i`.
    #[inline]
    pub fn reached_lanes(&self, v: VertexId) -> u64 {
        if self.stamp[v.index()] == self.epoch {
            self.reached[v.index()]
        } else {
            0
        }
    }

    /// Whether `v` was reached in lane `lane` by the last sweep.
    #[inline]
    pub fn reached(&self, v: VertexId, lane: usize) -> bool {
        debug_assert!(lane < LANES);
        (self.reached_lanes(v) >> lane) & 1 != 0
    }

    #[inline(always)]
    fn gate_of(&mut self, v: VertexId, vertex_lanes: &mut impl FnMut(VertexId) -> u64) -> u64 {
        let i = v.index();
        if self.gate_stamp[i] == self.epoch {
            self.gate[i]
        } else {
            let g = vertex_lanes(v);
            self.gate_stamp[i] = self.epoch;
            self.gate[i] = g;
            g
        }
    }

    /// Merges `add` lanes into `w`'s reached word, enqueueing `w` if it
    /// gained lanes and is not already waiting.
    #[inline(always)]
    fn absorb(&mut self, w: VertexId, add: u64) {
        let i = w.index();
        let cur = if self.stamp[i] == self.epoch {
            self.reached[i]
        } else {
            0
        };
        let new = add & !cur;
        if new == 0 {
            return;
        }
        self.stats.sliced_lane_decisions += u64::from(new.count_ones());
        self.stamp[i] = self.epoch;
        self.reached[i] = cur | new;
        if self.inq[i] != self.epoch {
            self.inq[i] = self.epoch;
            self.queue.push(w);
        }
    }
}

/// Lane-parallel reachability: computes, for each of the 64 lanes, the
/// set of vertices reachable from that lane's sources through edges and
/// vertices enabled in that lane.
///
/// * `sources` — `(vertex, lanes)` pairs: vertex `v` is a source in
///   exactly the lanes set in the word (different lanes may start from
///   different vertices — the pair-blocking estimator exploits this).
///   Sources are gated by `vertex_lanes` like everything else.
/// * `edge_lanes(e)` — lanes in which edge `e` is traversable (e.g. the
///   complement of the open-failure plane, or the closed plane alone
///   for shorting checks). Must be pure: it may be consulted several
///   times per edge, in an unspecified order.
/// * `vertex_lanes(v)` — lanes in which vertex `v` may be visited
///   (e.g. packed alive masks). Consulted **once** per touched vertex
///   per sweep, so it may be moderately expensive; it must still be
///   pure.
///
/// Direction semantics match [`crate::traversal::bfs_into`]:
/// `Forward` follows tail → head, `Backward` head → tail, `Undirected`
/// ignores orientation. The verdict for lane `i` equals the scalar
/// BFS reachable-set under filters `edge_ok = bit i of edge_lanes`,
/// `vertex_ok = bit i of vertex_lanes` — the transpose-equivalence
/// contract the proptests pin. Only membership is produced; no
/// distances, parents or discovery order.
///
/// The graph picks the path: a `Forward` sweep over a graph whose ids
/// ascend ([`Csr::ids_ascend`] — every network a
/// [`crate::StagedBuilder`] builds) takes the
/// one-pass ascending walk; every other sweep takes the worklist (see
/// the module doc). Results and [`KernelStats::sliced_lane_decisions`]
/// are the same on both.
pub fn sliced_reach_into(
    g: &Csr,
    sources: &[(VertexId, u64)],
    dir: Direction,
    edge_lanes: impl FnMut(EdgeId) -> u64,
    vertex_lanes: impl FnMut(VertexId) -> u64,
    ws: &mut SlicedWorkspace,
) {
    ws.begin(g.num_vertices());
    if dir == Direction::Forward && g.ids_ascend() {
        ascending_pass(g, sources, edge_lanes, vertex_lanes, ws);
    } else {
        worklist(g, sources, dir, edge_lanes, vertex_lanes, ws);
    }
}

/// The forward sweep over a graph whose ids ascend: one visit per vertex
/// from the lowest source id up. Lanes only travel up the ids, so when
/// the pass reaches `v` every in-neighbour has pushed its share and
/// `v`'s word is whole: `(source lanes | OR over in-edges (e, u) of
/// word(u) & edge_lanes(e)) & vertex_lanes(v)`. A vertex with lanes
/// then pushes its word along its out-edges.
fn ascending_pass(
    g: &Csr,
    sources: &[(VertexId, u64)],
    mut edge_lanes: impl FnMut(EdgeId) -> u64,
    mut vertex_lanes: impl FnMut(VertexId) -> u64,
    ws: &mut SlicedWorkspace,
) {
    let Some(lo) = sources
        .iter()
        .filter(|&&(_, lanes)| lanes != 0)
        .map(|&(s, _)| s.index())
        .min()
    else {
        return;
    };
    let n = g.num_vertices();
    // The pass decides every vertex from `lo` up; nothing below it is
    // reached, since no edge leads down.
    ws.stamp[lo..n].fill(ws.epoch);
    ws.reached[lo..n].fill(0);
    for &(s, lanes) in sources {
        ws.reached[s.index()] |= lanes;
    }
    let reached = &mut ws.reached;
    let (mut pops, mut decided) = (0, 0);
    for i in lo..n {
        let mut word = reached[i];
        if word == 0 {
            continue;
        }
        let v = VertexId::from(i);
        word &= vertex_lanes(v);
        reached[i] = word;
        if word == 0 {
            continue;
        }
        pops += 1;
        decided += u64::from(word.count_ones());
        for (e, &w) in g.out_edges(v).zip(g.out_heads(v)) {
            reached[w.index()] |= word & edge_lanes(e);
        }
    }
    ws.stats.sliced_pops += pops;
    ws.stats.sliced_lane_decisions += decided;
}

/// The general sweep: a FIFO worklist that re-enqueues a vertex whenever
/// new lanes reach it, until nothing changes.
fn worklist(
    g: &Csr,
    sources: &[(VertexId, u64)],
    dir: Direction,
    mut edge_lanes: impl FnMut(EdgeId) -> u64,
    mut vertex_lanes: impl FnMut(VertexId) -> u64,
    ws: &mut SlicedWorkspace,
) {
    ws.begin_worklist(g.num_vertices());
    for &(s, lanes) in sources {
        if lanes == 0 {
            continue;
        }
        let gate = ws.gate_of(s, &mut vertex_lanes);
        ws.absorb(s, lanes & gate);
    }
    let mut head = 0;
    while head < ws.queue.len() {
        let u = ws.queue[head];
        head += 1;
        ws.stats.sliced_pops += 1;
        // demote the in-queue stamp so late-arriving lanes re-enqueue
        ws.inq[u.index()] = ws.epoch.wrapping_sub(1);
        let ru = ws.reached[u.index()];
        incident(g, u, dir).for_each(|(e, w)| {
            let m = ru & edge_lanes(e);
            if m != 0 {
                let add = m & ws.gate_of(w, &mut vertex_lanes);
                if add != 0 {
                    ws.absorb(w, add);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{e, v};
    use crate::traversal::{bfs_into, Direction};
    use crate::TraversalWorkspace;

    fn diamond() -> Csr {
        Csr::from_edges(
            4,
            vec![(v(0), v(1)), (v(0), v(2)), (v(1), v(3)), (v(2), v(3))],
        )
    }

    /// Scalar reference for one lane.
    fn scalar_reach(
        g: &Csr,
        sources: &[(VertexId, u64)],
        dir: Direction,
        edge_lanes: impl Fn(EdgeId) -> u64,
        vertex_lanes: impl Fn(VertexId) -> u64,
        lane: usize,
    ) -> Vec<bool> {
        let srcs: Vec<VertexId> = sources
            .iter()
            .filter(|&&(_, l)| (l >> lane) & 1 != 0)
            .map(|&(s, _)| s)
            .collect();
        let mut ws = TraversalWorkspace::new();
        bfs_into(
            g,
            &srcs,
            dir,
            |e| (edge_lanes(e) >> lane) & 1 != 0,
            |u| (vertex_lanes(u) >> lane) & 1 != 0,
            &mut ws,
        );
        (0..g.num_vertices())
            .map(|u| ws.reached(v(u as u32)))
            .collect()
    }

    #[test]
    fn all_lanes_unfiltered_reach_everything() {
        let g = diamond();
        let mut ws = SlicedWorkspace::new();
        sliced_reach_into(
            &g,
            &[(v(0), !0)],
            Direction::Forward,
            |_| !0,
            |_| !0,
            &mut ws,
        );
        for u in 0..4 {
            assert_eq!(ws.reached_lanes(v(u)), !0, "vertex {u}");
        }
        assert!(ws.reached(v(3), 0) && ws.reached(v(3), 63));
    }

    #[test]
    fn per_lane_edge_filters_diverge() {
        let g = diamond();
        // lane 0: all edges; lane 1: top path only; lane 2: no edges
        let el = |x: EdgeId| -> u64 {
            let top = x == e(0) || x == e(2);
            1 | ((top as u64) << 1)
        };
        let mut ws = SlicedWorkspace::new();
        sliced_reach_into(
            &g,
            &[(v(0), 0b111)],
            Direction::Forward,
            el,
            |_| !0,
            &mut ws,
        );
        assert_eq!(ws.reached_lanes(v(0)), 0b111);
        assert_eq!(ws.reached_lanes(v(1)), 0b011);
        assert_eq!(ws.reached_lanes(v(2)), 0b001);
        assert_eq!(ws.reached_lanes(v(3)), 0b011);
        for lane in 0..3 {
            let want = scalar_reach(&g, &[(v(0), 0b111)], Direction::Forward, el, |_| !0, lane);
            for u in 0..4u32 {
                assert_eq!(
                    ws.reached(v(u), lane),
                    want[u as usize],
                    "lane {lane} v {u}"
                );
            }
        }
    }

    #[test]
    fn vertex_gates_and_per_lane_sources() {
        let g = diamond();
        // lane 0 starts at v0, lane 1 starts at v1; v2 is dead in lane 0
        let sources = [(v(0), 0b01), (v(1), 0b10)];
        let vl = |u: VertexId| -> u64 {
            if u == v(2) {
                0b10
            } else {
                !0
            }
        };
        let mut ws = SlicedWorkspace::new();
        sliced_reach_into(&g, &sources, Direction::Forward, |_| !0, vl, &mut ws);
        assert_eq!(ws.reached_lanes(v(0)), 0b01);
        assert_eq!(ws.reached_lanes(v(1)), 0b11);
        assert_eq!(ws.reached_lanes(v(2)), 0b00); // dead lane 0; unreachable lane 1
        assert_eq!(ws.reached_lanes(v(3)), 0b11);
        for lane in 0..2 {
            let want = scalar_reach(&g, &sources, Direction::Forward, |_| !0, vl, lane);
            for u in 0..4u32 {
                assert_eq!(
                    ws.reached(v(u), lane),
                    want[u as usize],
                    "lane {lane} v {u}"
                );
            }
        }
    }

    #[test]
    fn backward_and_undirected_match_scalar() {
        let g = diamond();
        let el = |x: EdgeId| -> u64 {
            if x == e(3) {
                0b01
            } else {
                !0
            }
        };
        for dir in [Direction::Backward, Direction::Undirected] {
            let mut ws = SlicedWorkspace::new();
            sliced_reach_into(&g, &[(v(3), 0b11)], dir, el, |_| !0, &mut ws);
            for lane in 0..2 {
                let want = scalar_reach(&g, &[(v(3), 0b11)], dir, el, |_| !0, lane);
                for u in 0..4u32 {
                    assert_eq!(
                        ws.reached(v(u), lane),
                        want[u as usize],
                        "{dir:?} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_reset_invalidates_previous_sweep() {
        let g = diamond();
        let mut ws = SlicedWorkspace::new();
        sliced_reach_into(
            &g,
            &[(v(0), !0)],
            Direction::Forward,
            |_| !0,
            |_| !0,
            &mut ws,
        );
        assert_eq!(ws.reached_lanes(v(3)), !0);
        sliced_reach_into(
            &g,
            &[(v(3), 1)],
            Direction::Forward,
            |_| !0,
            |_| !0,
            &mut ws,
        );
        assert_eq!(ws.reached_lanes(v(0)), 0);
        assert_eq!(ws.reached_lanes(v(3)), 1);
    }

    #[test]
    fn source_gated_by_vertex_lanes() {
        let g = diamond();
        let mut ws = SlicedWorkspace::new();
        sliced_reach_into(
            &g,
            &[(v(0), !0)],
            Direction::Forward,
            |_| !0,
            |u| if u == v(0) { 0 } else { !0 },
            &mut ws,
        );
        for u in 0..4 {
            assert_eq!(ws.reached_lanes(v(u)), 0, "vertex {u}");
        }
    }

    #[test]
    fn lanes_arriving_late_requeue_a_popped_vertex() {
        // path 0→1→2 plus a long detour 0→3→4→1 open only in lane 1:
        // vertex 1 is popped with lane 0 first, lane 1 arrives later and
        // must still propagate to 2.
        let c = Csr::from_edges(
            5,
            vec![
                (v(0), v(1)), // e0 lane 0 only
                (v(0), v(3)), // e1 lane 1 only
                (v(1), v(2)), // e2 both
                (v(3), v(4)), // e3 lane 1 only
                (v(4), v(1)), // e4 lane 1 only
            ],
        );
        let el = |x: EdgeId| -> u64 {
            match x.index() {
                0 => 0b01,
                2 => 0b11,
                _ => 0b10,
            }
        };
        let mut ws = SlicedWorkspace::new();
        sliced_reach_into(&c, &[(v(0), 0b11)], Direction::Forward, el, |_| !0, &mut ws);
        assert_eq!(ws.reached_lanes(v(1)), 0b11);
        assert_eq!(ws.reached_lanes(v(2)), 0b11);
        assert_eq!(ws.reached_lanes(v(4)), 0b10);
    }
}
