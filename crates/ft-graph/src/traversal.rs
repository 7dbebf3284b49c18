//! Breadth-first traversal, topological order and DAG depth.
//!
//! Algorithms run over a [`Csr`] and accept an *edge filter* so
//! the same code traverses a pristine network, a failure-stricken survivor
//! (open failures remove edges) or a repaired network (faulty vertices
//! removed) without materialising a new graph per Monte Carlo trial.

use crate::ids::{EdgeId, VertexId};
use crate::workspace::{RouteWorkspace, TraversalWorkspace};
use crate::Csr;
use std::collections::VecDeque;

/// Distance value meaning "unreached".
pub(crate) const UNREACHED: u32 = u32::MAX;

/// Result of a BFS sweep.
#[derive(Clone, Debug)]
pub struct Bfs {
    /// `dist[v]` = number of edges from the nearest source (`UNREACHED` if none).
    pub dist: Vec<u32>,
    /// `parent_edge[v]` = edge by which `v` was discovered (NONE for sources).
    pub parent_edge: Vec<EdgeId>,
    /// Vertices in discovery order.
    pub order: Vec<VertexId>,
}

impl Bfs {
    /// Whether `v` was reached.
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist[v.index()] != UNREACHED
    }

    /// Reconstructs a path from some source to `v` (inclusive), following
    /// parent edges backwards. Returns `None` if `v` was not reached.
    /// `g` must be the graph the BFS ran on.
    pub fn path_to(&self, g: &Csr, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while !self.parent_edge[cur.index()].is_none() {
            let e = self.parent_edge[cur.index()];
            cur = g.other_endpoint(e, cur);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Direction in which BFS follows edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges tail → head.
    Forward,
    /// Follow edges head → tail.
    Backward,
    /// Ignore orientation (the paper's `dist`, §5).
    Undirected,
}

/// The edges a search in direction `dir` follows at `u`, each with its
/// far end: the out-edges with their heads, then the in-edges with their
/// tails (for a self-loop either one is `u`). A forward search leaves
/// the in-lists unbuilt.
#[inline(always)]
pub(crate) fn incident(
    g: &Csr,
    u: VertexId,
    dir: Direction,
) -> impl Iterator<Item = (EdgeId, VertexId)> + '_ {
    let heads: &[VertexId] = match dir {
        Direction::Backward => &[],
        _ => g.out_heads(u),
    };
    let outs = g.out_edges(u).zip(heads.iter().copied());
    let (ins, tails): (&[EdgeId], &[VertexId]) = match dir {
        Direction::Forward => (&[], &[]),
        _ => (g.in_edges(u), g.in_tails(u)),
    };
    outs.chain(ins.iter().copied().zip(tails.iter().copied()))
}

/// BFS from `sources`, following edges per `dir`, visiting only edges for
/// which `edge_ok` holds and vertices for which `vertex_ok` holds.
/// Sources failing `vertex_ok` are skipped.
pub fn bfs(
    g: &Csr,
    sources: &[VertexId],
    dir: Direction,
    mut edge_ok: impl FnMut(EdgeId) -> bool,
    mut vertex_ok: impl FnMut(VertexId) -> bool,
) -> Bfs {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHED; n];
    let mut parent_edge = vec![EdgeId::NONE; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] == UNREACHED && vertex_ok(s) {
            dist[s.index()] = 0;
            order.push(s);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        incident(g, u, dir).for_each(|(e, w)| {
            if edge_ok(e) && dist[w.index()] == UNREACHED && vertex_ok(w) {
                dist[w.index()] = du + 1;
                parent_edge[w.index()] = e;
                order.push(w);
                queue.push_back(w);
            }
        });
    }
    Bfs {
        dist,
        parent_edge,
        order,
    }
}

/// Zero-allocation BFS into a reusable [`TraversalWorkspace`].
///
/// Semantically identical to [`bfs`] (same discovery order, distances
/// and parent edges — pinned by proptests) but borrows its buffers from
/// `ws` instead of allocating, and clears them in O(touched) via the
/// workspace epoch. Query the result through the workspace accessors
/// ([`TraversalWorkspace::reached`], [`TraversalWorkspace::dist`],
/// [`TraversalWorkspace::order`], [`TraversalWorkspace::path_to`]).
pub fn bfs_into(
    g: &Csr,
    sources: &[VertexId],
    dir: Direction,
    mut edge_ok: impl FnMut(EdgeId) -> bool,
    mut vertex_ok: impl FnMut(VertexId) -> bool,
    ws: &mut TraversalWorkspace,
) {
    ws.begin(g.num_vertices());
    for &s in sources {
        if !ws.marks.is_set(s.index()) && vertex_ok(s) {
            ws.discover(s, EdgeId::NONE, 0);
        }
    }
    let mut head = 0;
    while head < ws.queue.len() {
        let u = ws.queue[head];
        head += 1;
        let du = ws.dist[u.index()];
        incident(g, u, dir).for_each(|(e, w)| {
            if edge_ok(e) && !ws.marks.is_set(w.index()) && vertex_ok(w) {
                ws.discover(w, e, du + 1);
            }
        });
    }
}

/// Expands the forward frontier entries `range` of `fwd` one stage,
/// discovering every head that passes `ok`.
fn expand_forward_stage(
    g: &Csr,
    fwd: &mut TraversalWorkspace,
    range: std::ops::Range<usize>,
    mut ok: impl FnMut(VertexId) -> bool,
) {
    for qi in range {
        let u = fwd.queue[qi];
        let du = fwd.dist[u.index()];
        for (e, &w) in g.out_edges(u).zip(g.out_heads(u)) {
            if !fwd.marks.is_set(w.index()) && ok(w) {
                fwd.discover(w, e, du + 1);
            }
        }
    }
}

/// The first out-edge of `u`, in out-edge order, whose head lies in
/// `cone` (is touched there), with that head.
#[inline(always)]
fn first_cone_edge(g: &Csr, u: VertexId, cone: &TraversalWorkspace) -> Option<(EdgeId, VertexId)> {
    g.out_edges(u)
        .zip(g.out_heads(u))
        .find(|(_, w)| cone.marks.is_set(w.index()))
        .map(|(e, &w)| (e, w))
}

/// Expands the backward frontier entries `range` of `bwd` one level
/// (toward the inputs), marking every `ok` in-tail as reaching the
/// target. Only membership matters downstream; distances and parents
/// are still recorded for consistency.
fn expand_backward_level(
    g: &Csr,
    bwd: &mut TraversalWorkspace,
    range: std::ops::Range<usize>,
    mut ok: impl FnMut(VertexId) -> bool,
) {
    for qi in range {
        let u = bwd.queue[qi];
        let du = bwd.dist[u.index()];
        for (&e, &w) in g.in_edges(u).iter().zip(g.in_tails(u)) {
            if !bwd.marks.is_set(w.index()) && ok(w) {
                bwd.discover(w, e, du + 1);
            }
        }
    }
}

/// Bidirectional, stage-aware point-to-point search over a
/// **unit-staged** network (every edge joins adjacent stages — see
/// [`crate::StagedNetwork::is_unit_staged`]), meeting in the middle
/// instead of flooding the whole graph.
///
/// This was the router's search until [`route_into`] replaced it; it
/// now has no caller under `crates/*/src` and is kept as the oracle
/// `route_into` is checked against (`ft-networks/tests/route_oracle.rs`,
/// the proptests) and as a rung of the out-of-tree benchmark ladder —
/// a second, independently derived search that must agree on every
/// verdict and path.
///
/// Returns whether `target` is reachable from `source` through vertices
/// passing `vertex_ok`; on success the path is read from `fwd` with
/// [`TraversalWorkspace::path_to`].
///
/// # Exactness
///
/// The reachability verdict **and the reconstructed path** are
/// bit-identical to what a full forward [`bfs_into`] with the same
/// vertex filter (and no edge filter) produces — same parent edges,
/// same tie-breaks — so callers whose downstream behaviour depends on
/// the exact path (the deterministic simulation engine, whose event
/// fingerprints are pinned) can switch kernels without perturbing a
/// single event. The search floods forward from `source` and backward
/// from `target` until the forward frontier (stage `m − 1`) is adjacent
/// to the backward cone (stages `m..=sL`), then reads the path off the
/// cone without expanding anything further. Three facts make that the
/// BFS path:
///
/// 1. **Rank order is lexicographic order.** Call a path's *key* its
///    sequence of out-edge positions. A forward BFS discovers a stage
///    in the order (rank of the discoverer, position of the discovering
///    edge), so by induction over stages the queue order within a stage
///    is the lexicographic order of the vertices' smallest-key paths,
///    the parent chain of a vertex *is* its smallest-key path, and the
///    path BFS returns for `target` is the smallest-key `vertex_ok`
///    path from `source` to `target`. The unpruned forward flood of
///    Phase 1 produces the frontier in exactly that order.
/// 2. **Stage-completeness.** Unit staging means a vertex at stage `s`
///    can reach the stage-`sL` target only in exactly `sL − s` hops, so
///    once the backward cone has been expanded `j` levels it is
///    *complete* for every stage `≥ sL − j`: cone membership there *is*
///    target-reachability through `vertex_ok` vertices.
/// 3. **Min-rank hit, then greedy descent.** The smallest-key path
///    crosses the frontier stage at the lowest-ranked frontier vertex
///    that has a cone successor (a lower-ranked one would give a
///    smaller key; one without a cone successor cannot reach `target`),
///    and from there on each step takes the first out-edge whose head
///    is in the cone — any earlier edge leads out of the cone, any
///    later one has a larger key. Parallel edges fall out of the same
///    rule: the first edge position wins.
///
/// If no frontier vertex has a cone successor, no path crosses stage
/// `m` and the verdict is blocked, exactly when a full flood would not
/// reach `target`. Pinned by proptests against [`bfs`] and, on 𝒩
/// itself, by `ft-networks/tests/route_oracle.rs`.
///
/// # Work counter
///
/// [`crate::KernelStats::bibfs_pops`] counts the vertices whose edge
/// lists the search scanned: every vertex expanded in Phase 1 (both
/// directions), every frontier vertex tested in Phase 2 up to and
/// including the hit, and every descent vertex short of `target`.
///
/// # Backward budget
///
/// `max_backward_levels` caps how many levels the backward cone may
/// grow; `0` degrades to a forward flood up to the stage before the
/// target's, `u32::MAX` leaves the choice to Phase 1's "grow the
/// smaller frontier" rule. The cap **cannot affect the result** —
/// exactness holds for every budget, which the proptests sample —
/// only which side does the flooding.
///
/// `vertex_ok` must be a pure predicate: it is consulted in an
/// unspecified order and from both directions.
#[allow(clippy::too_many_arguments)] // flat kernel signature, hot path
pub fn bibfs_into(
    g: &Csr,
    source: VertexId,
    target: VertexId,
    stage_of: &[u32],
    max_backward_levels: u32,
    mut vertex_ok: impl FnMut(VertexId) -> bool,
    fwd: &mut TraversalWorkspace,
    bwd: &mut TraversalWorkspace,
) -> bool {
    let n = g.num_vertices();
    debug_assert_eq!(stage_of.len(), n);
    fwd.begin(n);
    bwd.begin(n);
    if !vertex_ok(source) || !vertex_ok(target) {
        return false;
    }
    fwd.discover(source, EdgeId::NONE, 0);
    if source == target {
        return true;
    }
    let (s0, sl) = (stage_of[source.index()], stage_of[target.index()]);
    if sl <= s0 {
        return false; // stages only increase along unit-staged edges
    }
    bwd.discover(target, EdgeId::NONE, 0);

    // Stages `meet..=sl` have a complete backward cone in `bwd`.
    let mut meet = sl;
    let mut fstage = s0; // stage of the current forward frontier
    let (mut fhead, mut bhead) = (0usize, 0usize);

    // Phase 1: grow whichever frontier is currently smaller until they
    // are adjacent (the backward one only while its budget lasts).
    while fstage + 1 < meet {
        let flen = fwd.queue.len() - fhead;
        let blen = bwd.queue.len() - bhead;
        let may_grow_bwd = sl - meet < max_backward_levels;
        if may_grow_bwd && blen <= flen {
            let end = bwd.queue.len();
            bwd.stats.bibfs_pops += (end - bhead) as u64;
            expand_backward_level(g, bwd, bhead..end, &mut vertex_ok);
            bhead = end;
            meet -= 1;
            if bwd.queue.len() == bhead {
                // No vertex at stage `meet` reaches the target, and any
                // source → target path must cross that stage.
                return false;
            }
        } else {
            let end = fwd.queue.len();
            fwd.stats.bibfs_pops += (end - fhead) as u64;
            expand_forward_stage(g, fwd, fhead..end, &mut vertex_ok);
            fhead = end;
            fstage += 1;
            if fwd.queue.len() == fhead {
                return false;
            }
        }
    }

    // Phase 2: the first frontier vertex, in queue order, with an edge
    // into the cone is on the BFS path; the rest of the path is the
    // greedy descent through the cone. Nothing else is expanded.
    let end = fwd.queue.len();
    for qi in fhead..end {
        let mut u = fwd.queue[qi];
        let Some(mut hit) = first_cone_edge(g, u, bwd) else {
            continue;
        };
        fwd.stats.bibfs_pops += (qi + 1 - fhead) as u64;
        loop {
            let (e, w) = hit;
            let dw = fwd.dist[u.index()] + 1;
            fwd.discover(w, e, dw);
            if w == target {
                return true;
            }
            fwd.stats.bibfs_pops += 1;
            u = w;
            hit = first_cone_edge(g, u, bwd)
                .expect("a cone vertex short of the target has a cone successor");
        }
    }
    fwd.stats.bibfs_pops += (end - fhead) as u64;
    false
}

/// Depth-first point-to-point route search over a **unit-staged**
/// network (see [`crate::StagedNetwork::is_unit_staged`]): one descent
/// in out-edge order that remembers its dead ends, so it costs about
/// one scanned vertex per stage where a flood costs whole stages. This
/// is the search under `CircuitRouter::connect`.
///
/// Returns whether `target` is reachable from `source` through vertices
/// passing `vertex_ok`; on success `path` holds the path, `source` to
/// `target` inclusive (it is cleared first). Afterwards
/// [`RouteWorkspace::reached`] tells which vertices the search entered.
///
/// # The descent
///
/// The current path lives on an explicit stack in `ws` (no recursion,
/// no per-call allocation). At the top vertex the descent resumes its
/// out-edge list where it left off, skips heads already touched in this
/// search and heads failing `vertex_ok`, marks the first remaining head
/// touched and steps onto it; with no head left it steps back. When the
/// target is found the stack *is* the circuit: its vertices, the vertex
/// being scanned and `target` are copied out in one pass.
/// It never enters the target's stage except at `target` itself: at the
/// stage before, only an edge into `target` is taken. A touched vertex
/// that is off the stack was entered earlier and left without reaching
/// `target`, and on a staged DAG what lies below a vertex does not
/// depend on how it was reached — so it is a proven dead end and is
/// never scanned twice. Each vertex is scanned **at most once**, and
/// the worst case (a blocked pair) is the forward flood's vertex set.
///
/// # Exactness
///
/// Verdict **and path** are bit-identical to a full forward
/// [`bfs_into`] with the same vertex filter and no edge filter — same
/// vertices, same tie-breaks — so the deterministic simulation's
/// pinned event fingerprints do not see which kernel ran. The argument
/// is the one [`bibfs_into`]'s rustdoc makes for the flood, with the
/// cone replaced by the truth it approximates:
///
/// 1. **The BFS path is the smallest-key path.** Call a path's *key*
///    its sequence of out-edge positions. A forward BFS discovers a
///    stage in the order (rank of the discoverer, position of the
///    discovering edge), so by induction over stages the parent chain
///    of a vertex is its lexicographically smallest-key path, and —
///    unit staging makes every `source → target` path equally long —
///    the path BFS returns for `target` is the smallest-key `vertex_ok`
///    path from `source` to `target`.
/// 2. **The first path a descent completes is the smallest-key path.**
///    The descent tries out-edges in position order and leaves an edge
///    only after everything below its head has been exhausted, so when
///    it takes position `p` at some vertex of the final path, no
///    `vertex_ok` path to `target` continues through a position `< p`
///    there. Skipping a touched head loses nothing (it is a dead end,
///    above). Parallel edges fall out of the same rule: the first edge
///    position wins.
///
/// If the stack empties, every `vertex_ok` vertex reachable from
/// `source` short of the target's stage has been scanned and none had
/// an edge into `target`: blocked, exactly when a full flood would not
/// reach it. `vertex_ok` may be any *sound* filter — callers that know
/// a static superset of "can reach `target`" (the router's
/// [`crate::OutputReach`] table) fold it in to skip structural dead
/// ends; exactness never depends on that, only the pop count does.
/// Pinned by proptests against [`bfs`] and, on 𝒩 itself, by
/// `ft-networks/tests/route_oracle.rs`.
///
/// # Work counter
///
/// [`crate::KernelStats::bibfs_pops`] grows by one per vertex whose
/// edge list the descent scanned: `source` and every vertex it stepped
/// onto short of `target`. An idle fabric costs one pop per path edge.
///
/// `vertex_ok` must be a pure predicate: it may be consulted more than
/// once for a vertex it rejects.
pub fn route_into(
    g: &Csr,
    source: VertexId,
    target: VertexId,
    stage_of: &[u32],
    mut vertex_ok: impl FnMut(VertexId) -> bool,
    ws: &mut RouteWorkspace,
    path: &mut Vec<VertexId>,
) -> bool {
    let n = g.num_vertices();
    debug_assert_eq!(stage_of.len(), n);
    ws.begin(n);
    path.clear();
    if !vertex_ok(source) || !vertex_ok(target) {
        return false;
    }
    ws.marks.set(source.index());
    if source == target {
        path.push(source);
        return true;
    }
    let (s0, sl) = (stage_of[source.index()], stage_of[target.index()]);
    if sl <= s0 {
        return false; // stages only increase along unit-staged edges
    }
    ws.stack.push((source, 0));
    let mut pops = 1u64;
    let mut found = false;
    'descent: while let Some((u, resume)) = ws.stack.pop() {
        let heads = g.out_heads(u);
        // From the stage before the target's, only `target` may be entered.
        let last_hop = stage_of[u.index()] + 1 == sl;
        for (i, &w) in heads.iter().enumerate().skip(resume as usize) {
            if last_hop {
                if w == target {
                    ws.marks.set(w.index());
                    path.extend(ws.stack.iter().map(|&(v, _)| v));
                    path.extend([u, target]);
                    found = true;
                    break 'descent;
                }
            } else if !ws.marks.is_set(w.index()) && vertex_ok(w) {
                // step onto `w`; `u` resumes after this edge if `w` fails
                ws.stack.push((u, i as u32 + 1));
                ws.marks.set(w.index());
                ws.stack.push((w, 0));
                pops += 1;
                break;
            }
        }
    }
    ws.stats.bibfs_pops += pops;
    found
}

/// BFS forward from a single source with no filters.
pub fn bfs_forward(g: &Csr, source: VertexId) -> Bfs {
    bfs(g, &[source], Direction::Forward, |_| true, |_| true)
}

/// Topological order of a DAG; `None` if the graph has a directed cycle.
pub fn topo_order(g: &Csr) -> Option<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut indeg: Vec<u32> = (0..n)
        .map(|v| g.in_edges(VertexId::from(v)).len() as u32)
        .collect();
    let mut queue: VecDeque<VertexId> = (0..n)
        .map(VertexId::from)
        .filter(|&v| indeg[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for e in g.out_edges(u) {
            let w = g.head(e);
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push_back(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Whether the digraph is acyclic. All networks in the paper are DAGs.
pub fn is_acyclic(g: &Csr) -> bool {
    topo_order(g).is_some()
}

/// Length (in edges) of the longest directed path in a DAG — the paper's
/// **depth** when measured from inputs to outputs.
///
/// # Panics
/// Panics if the graph has a directed cycle.
pub fn dag_depth(g: &Csr) -> u32 {
    let order = topo_order(g).expect("dag_depth requires an acyclic graph");
    let mut depth = vec![0u32; g.num_vertices()];
    let mut best = 0;
    for u in order {
        let du = depth[u.index()];
        best = best.max(du);
        for e in g.out_edges(u) {
            let w = g.head(e);
            depth[w.index()] = depth[w.index()].max(du + 1);
        }
    }
    best
}

/// Longest directed path from any vertex of `from` to any vertex of `to`
/// (in edges); `None` if no such path exists. This is the paper's depth
/// measure restricted to input→output paths.
pub fn dag_depth_between(g: &Csr, from: &[VertexId], to: &[VertexId]) -> Option<u32> {
    let order = topo_order(g).expect("dag_depth_between requires an acyclic graph");
    const MINF: i64 = i64::MIN;
    let mut depth = vec![MINF; g.num_vertices()];
    for &s in from {
        depth[s.index()] = 0;
    }
    for u in order {
        let du = depth[u.index()];
        if du == MINF {
            continue;
        }
        for e in g.out_edges(u) {
            let w = g.head(e);
            if depth[w.index()] < du + 1 {
                depth[w.index()] = du + 1;
            }
        }
    }
    to.iter()
        .map(|t| depth[t.index()])
        .filter(|&d| d != MINF)
        .max()
        .map(|d| d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{e, v};

    fn chain(n: usize) -> Csr {
        Csr::from_edges(n, (1..n as u32).map(|i| (v(i - 1), v(i))).collect())
    }

    #[test]
    fn bfs_chain_distances() {
        let g = chain(5);
        let b = bfs_forward(&g, v(0));
        assert_eq!(b.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(b.order.len(), 5);
        let p = b.path_to(&g, v(4)).unwrap();
        assert_eq!(p, vec![v(0), v(1), v(2), v(3), v(4)]);
    }

    #[test]
    fn bfs_backward_and_undirected() {
        let g = chain(4);
        let fwd = bfs(&g, &[v(3)], Direction::Forward, |_| true, |_| true);
        assert!(!fwd.reached(v(0)));
        let bwd = bfs(&g, &[v(3)], Direction::Backward, |_| true, |_| true);
        assert_eq!(bwd.dist[0], 3);
        let und = bfs(&g, &[v(1)], Direction::Undirected, |_| true, |_| true);
        assert_eq!(und.dist, vec![1, 0, 1, 2]);
    }

    #[test]
    fn bfs_edge_filter_blocks() {
        let g = chain(4);
        // block the middle edge e1 (v1 -> v2)
        let b = bfs(&g, &[v(0)], Direction::Forward, |x| x != e(1), |_| true);
        assert!(b.reached(v(1)));
        assert!(!b.reached(v(2)));
    }

    #[test]
    fn bfs_vertex_filter_blocks() {
        let g = chain(4);
        let b = bfs(&g, &[v(0)], Direction::Forward, |_| true, |x| x != v(2));
        assert!(b.reached(v(1)));
        assert!(!b.reached(v(2)));
        assert!(!b.reached(v(3)));
    }

    #[test]
    fn bfs_filtered_source() {
        let g = chain(3);
        let b = bfs(&g, &[v(0)], Direction::Forward, |_| true, |x| x != v(0));
        assert!(!b.reached(v(0)));
        assert!(b.order.is_empty());
    }

    #[test]
    fn multi_source_bfs() {
        let g = chain(6);
        let b = bfs(&g, &[v(0), v(4)], Direction::Forward, |_| true, |_| true);
        assert_eq!(b.dist[5], 1, "nearest source wins");
        assert_eq!(b.dist[3], 3);
    }

    #[test]
    fn topo_order_on_dag() {
        let g = Csr::from_edges(
            4,
            vec![(v(0), v(1)), (v(0), v(2)), (v(1), v(3)), (v(2), v(3))],
        );
        let order = topo_order(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, u) in order.iter().enumerate() {
                p[u.index()] = i;
            }
            p
        };
        for (_, t, h) in g.edges() {
            assert!(pos[t.index()] < pos[h.index()]);
        }
        assert!(is_acyclic(&g));
        assert_eq!(dag_depth(&g), 2);
    }

    #[test]
    fn cycle_detected() {
        let g = Csr::from_edges(3, vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(0))]);
        assert!(topo_order(&g).is_none());
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn depth_between_terminals() {
        // diamond with a long tail not between terminals
        let tail = [(v(3), v(4)), (v(4), v(5))]; // disconnected
        let g = Csr::from_edges(
            6,
            [(v(0), v(1)), (v(0), v(2)), (v(1), v(2))]
                .into_iter()
                .chain(tail)
                .collect(),
        );
        assert_eq!(dag_depth_between(&g, &[v(0)], &[v(2)]), Some(2));
        assert_eq!(dag_depth_between(&g, &[v(2)], &[v(0)]), None);
        assert_eq!(dag_depth_between(&g, &[v(0), v(3)], &[v(2), v(5)]), Some(2));
        assert_eq!(dag_depth(&g), 2);
    }

    #[test]
    fn bfs_into_matches_allocating_bfs() {
        let g = chain(6);
        let mut ws = TraversalWorkspace::new();
        for dir in [
            Direction::Forward,
            Direction::Backward,
            Direction::Undirected,
        ] {
            let a = bfs(&g, &[v(2), v(4)], dir, |x| x != e(1), |x| x != v(5));
            bfs_into(
                &g,
                &[v(2), v(4)],
                dir,
                |x| x != e(1),
                |x| x != v(5),
                &mut ws,
            );
            for u in 0..6 {
                assert_eq!(a.dist[u], ws.dist(v(u as u32)), "dir {dir:?} vertex {u}");
                assert_eq!(a.parent_edge[u], ws.parent_edge(v(u as u32)));
            }
            assert_eq!(a.order, ws.order());
        }
    }

    /// A unit-staged network with the given stage widths (ids run stage
    /// by stage) and `(tail, head)` switches, in edge-id order.
    fn staged(widths: &[usize], edges: &[(u32, u32)]) -> crate::StagedNetwork {
        let mut b = crate::staged::StagedBuilder::new();
        let ranges: Vec<_> = widths.iter().map(|&w| b.add_stage(w)).collect();
        for &(t, h) in edges {
            b.add_edge(v(t), v(h));
        }
        b.set_inputs(ranges[0].clone().map(v).collect());
        b.set_outputs(ranges[ranges.len() - 1].clone().map(v).collect());
        let net = b.finish();
        assert!(net.is_unit_staged());
        net
    }

    /// Runs `route_into` — bare, and pruned by the network's reach table
    /// as the router runs it — and `bibfs_into` under every budget in
    /// `budgets`; checks the verdict and the returned path (and, for the
    /// flood, parent edges and distances) against the full forward
    /// flood, and returns that flood's path.
    fn check_bibfs(
        net: &crate::StagedNetwork,
        (src, dst): (u32, u32),
        budgets: &[u32],
        ok: impl Fn(VertexId) -> bool,
    ) -> Option<Vec<VertexId>> {
        let csr = net.csr();
        let (mut rws, mut fwd, mut bwd) = (
            TraversalWorkspace::new(),
            TraversalWorkspace::new(),
            TraversalWorkspace::new(),
        );
        let mut descent = RouteWorkspace::new();
        bfs_into(csr, &[v(src)], Direction::Forward, |_| true, &ok, &mut rws);
        let want = rws.path_to(csr, v(dst));
        let tab = net.stage_table();
        let same_as_flood = |got: bool, fwd: &TraversalWorkspace, kernel: &str| {
            assert_eq!(got, want.is_some(), "{kernel}");
            if let Some(path) = &want {
                assert_eq!(fwd.path_to(csr, v(dst)).as_ref(), Some(path), "{kernel}");
                for &u in path {
                    assert_eq!(fwd.parent_edge(u), rws.parent_edge(u), "{kernel}");
                    assert_eq!(fwd.dist(u), rws.dist(u), "{kernel}");
                }
            }
        };
        let mut path = vec![v(u32::MAX)];
        let got = route_into(csr, v(src), v(dst), tab, &ok, &mut descent, &mut path);
        assert_eq!(got.then_some(&path), want.as_ref(), "descent");
        let (reach, col) = (net.output_reach(), net.output_reach().column(v(dst)));
        let pruned = |u| ok(u) && reach.reaches(u, col);
        let got = route_into(csr, v(src), v(dst), tab, pruned, &mut descent, &mut path);
        assert_eq!(got.then_some(&path), want.as_ref(), "pruned descent");
        for &budget in budgets {
            let got = bibfs_into(csr, v(src), v(dst), tab, budget, &ok, &mut fwd, &mut bwd);
            same_as_flood(got, &fwd, &format!("budget {budget}"));
        }
        want
    }

    const BUDGETS: [u32; 4] = [0, 1, 2, u32::MAX];

    #[test]
    fn bibfs_matches_bfs_on_small_staged_net() {
        // 3 stages, 2 wide, fully wired: plenty of equal-length paths,
        // so the tie-break rules are what is under test.
        let full = |a: [u32; 2], b: [u32; 2]| a.into_iter().flat_map(move |t| b.map(|h| (t, h)));
        let edges: Vec<_> = full([0, 1], [2, 3]).chain(full([2, 3], [4, 5])).collect();
        let net = staged(&[2, 2, 2], &edges);
        // every pair, under every single-vertex knockout of stage 1
        for knockout in [None, Some(v(2)), Some(v(3))] {
            for src in 0..2 {
                for dst in 4..6 {
                    check_bibfs(&net, (src, dst), &BUDGETS, |u| Some(u) != knockout);
                }
            }
        }
    }

    #[test]
    fn bibfs_hit_on_last_edge_of_last_frontier_vertex() {
        // Stage 1 = {2, 3, 4}, stage 2 = {5, 6, 7}; only 7 reaches the
        // target 8, and only the last out-edge of the last frontier
        // vertex (4) enters it.
        let edges = [
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (2, 5),
            (2, 6),
            (3, 5),
            (3, 6),
            (4, 5),
            (4, 6),
            (4, 7),
            (7, 8),
        ];
        let net = staged(&[2, 3, 3, 2], &edges);
        let path = check_bibfs(&net, (0, 8), &BUDGETS, |_| true);
        assert_eq!(path, Some(vec![v(0), v(4), v(7), v(8)]));
        // 9 is an output nothing feeds: the cone dies at once
        assert_eq!(check_bibfs(&net, (0, 9), &BUDGETS, |_| true), None);
    }

    #[test]
    fn bibfs_parallel_edges_first_edge_id_wins() {
        // e1 and e2 both join 1 → 2, e3 and e4 both join 2 → 3: whether
        // the scan or the descent crosses them, the lower id is the parent.
        let net = staged(&[1, 1, 1, 1], &[(0, 1), (1, 2), (1, 2), (2, 3), (2, 3)]);
        let csr = net.csr();
        let (mut fwd, mut bwd) = (TraversalWorkspace::new(), TraversalWorkspace::new());
        for budget in BUDGETS {
            let tab = net.stage_table();
            assert!(bibfs_into(
                csr,
                v(0),
                v(3),
                tab,
                budget,
                |_| true,
                &mut fwd,
                &mut bwd
            ));
            assert_eq!(fwd.parent_edge(v(2)), e(1), "budget {budget}");
            assert_eq!(fwd.parent_edge(v(3)), e(3), "budget {budget}");
        }
        check_bibfs(&net, (0, 3), &BUDGETS, |_| true);
    }

    #[test]
    fn bibfs_frontier_and_cone_disjoint_is_blocked() {
        // 0 → 2 → 4 and 3 → 5 → 6: both floods are non-empty at every
        // stage, but no frontier vertex has an edge into the cone.
        let net = staged(
            &[2, 2, 2, 2],
            &[(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)],
        );
        assert_eq!(check_bibfs(&net, (0, 7), &BUDGETS, |_| true), None);
        assert!(check_bibfs(&net, (1, 7), &BUDGETS, |_| true).is_some());
        // … and blocked by the filter alone
        assert_eq!(check_bibfs(&net, (1, 7), &BUDGETS, |u| u != v(5)), None);
    }

    #[test]
    fn bibfs_descent_skips_non_cone_successors() {
        // 1's successors are 2, 3, 4, 5 in edge order; 2 and 3 are dead
        // ends, 4 is filtered out, 5 is its only cone successor. Budget 0
        // floods forward to stage 2 and scans; larger budgets descend
        // from 1 past the three non-cone heads.
        let edges = [
            (0, 1),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (4, 6),
            (5, 6),
            (6, 7),
        ];
        let net = staged(&[1, 1, 4, 1, 1], &edges);
        let path = check_bibfs(&net, (0, 7), &[0, 1, 2, 3, u32::MAX], |u| u != v(4));
        assert_eq!(path, Some(vec![v(0), v(1), v(5), v(6), v(7)]));
    }

    #[test]
    fn bibfs_counts_scanned_vertices() {
        // Chain 0 → 1 → 2 → 3 → 4. Budget 0: three forward stages (3
        // pops), then the frontier vertex 3 is tested and hits (1 pop).
        // Uncapped: ties grow the cone, so backward pops 4, 3 and 2;
        // Phase 2 tests the frontier vertex 0 and descends over 1, 2
        // and 3 — seven in all.
        let net = staged(&[1, 1, 1, 1, 1], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        for (budget, pops) in [(0, 4), (u32::MAX, 7)] {
            let (mut fwd, mut bwd) = (TraversalWorkspace::new(), TraversalWorkspace::new());
            let tab = net.stage_table();
            assert!(bibfs_into(
                net.csr(),
                v(0),
                v(4),
                tab,
                budget,
                |_| true,
                &mut fwd,
                &mut bwd
            ));
            let total = fwd.stats().bibfs_pops + bwd.stats().bibfs_pops;
            assert_eq!(total, pops, "budget {budget}");
        }
    }

    #[test]
    fn route_counts_scanned_vertices_and_scans_each_once() {
        let pops = |net: &crate::StagedNetwork, dst: u32, ok: &dyn Fn(VertexId) -> bool| {
            let mut ws = RouteWorkspace::new();
            let (g, tab, mut path) = (net.csr(), net.stage_table(), Vec::new());
            let found = route_into(g, v(0), v(dst), tab, ok, &mut ws, &mut path);
            let touched = (0..g.num_vertices() as u32).filter(|&u| ws.reached(v(u)));
            (found, ws.stats().bibfs_pops, touched.count())
        };
        // Chain 0 → 1 → 2 → 3 → 4: one pop per path edge, target not scanned.
        let chain = staged(&[1, 1, 1, 1, 1], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(pops(&chain, 4, &|_| true), (true, 4, 5));
        // Stages {0} {1,2} {3,4} {5,6} {7,8}. 1 and 2 both lead to 3,
        // below which only the wrong output 7 lies; 2 → 4 → 6 → 8 is the
        // one path. The descent falls into 1, 3, 5 once, skips the touched
        // 3 at 2, and never enters 7, which shares the target's stage.
        let edges = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 5),
            (4, 6),
            (5, 7),
            (6, 7),
            (6, 8),
        ];
        let net = staged(&[1, 2, 2, 2, 2], &edges);
        assert_eq!(pops(&net, 8, &|_| true), (true, 7, 8));
        let path = check_bibfs(&net, (0, 8), &BUDGETS, |_| true);
        assert_eq!(path, Some(vec![v(0), v(2), v(4), v(6), v(8)]));
        // blocked: everything reachable short of the target's stage is
        // scanned, each vertex once
        assert_eq!(pops(&net, 8, &|u| u != v(6)), (false, 6, 6));
        // the reach table removes the structural dead ends 1, 3 and 5
        let (reach, col) = (net.output_reach(), net.output_reach().column(v(8)));
        assert_eq!(pops(&net, 8, &|u| reach.reaches(u, col)), (true, 4, 5));
    }

    #[test]
    fn bibfs_edge_cases() {
        // a 2-stage (adjacent source/target, `sl == s0 + 1`) network
        let net = staged(&[2, 2], &[(0, 2)]);
        // direct edge: found
        let path = check_bibfs(&net, (0, 2), &BUDGETS, |_| true);
        assert_eq!(path, Some(vec![v(0), v(2)]));
        // absent edge: blocked
        assert_eq!(check_bibfs(&net, (1, 3), &BUDGETS, |_| true), None);
        // busy source / busy target: blocked
        assert_eq!(check_bibfs(&net, (0, 2), &BUDGETS, |u| u != v(0)), None);
        assert_eq!(check_bibfs(&net, (0, 2), &BUDGETS, |u| u != v(2)), None);
        // source == target is trivially reachable
        assert_eq!(
            check_bibfs(&net, (0, 0), &BUDGETS, |_| true),
            Some(vec![v(0)])
        );
        // target at an earlier stage than the source: unreachable
        assert_eq!(check_bibfs(&net, (2, 0), &BUDGETS, |_| true), None);
    }

    #[test]
    fn works_on_csr_too() {
        let c = chain(5);
        let b = bfs_forward(&c, v(0));
        assert_eq!(b.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(dag_depth(&c), 4);
    }
}
