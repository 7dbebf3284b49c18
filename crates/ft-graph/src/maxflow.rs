//! Max-flow (Dinic) and vertex-disjoint path extraction.
//!
//! Vertex-disjoint paths are the currency of the paper: nonblocking,
//! rearrangeable and superconcentrator properties (§2) are all statements
//! about the existence of vertex-disjoint input→output path families, and
//! Menger's theorem (used in Lemma 3) converts their absence into vertex
//! cuts. We reduce vertex-disjointness to edge capacities by the standard
//! **vertex splitting** transform: each vertex `v` becomes `v_in → v_out`
//! with capacity 1, and each original edge `(u, w)` becomes
//! `u_out → w_in`.
//!
//! The kernel is Dinic's blocking-flow algorithm (O(E·√V) on unit
//! capacities), with a cheap early stop for `limit` queries ("are there
//! at least r disjoint paths?"). It runs to completion otherwise and
//! leaves a valid maximum-flow residual, from which min-cut extraction
//! and path decomposition read. `tests/kernel_equiv.rs` holds it to
//! independent witnesses: successive-shortest-path min-cost flow (a
//! test-only reference in `tests/common`) on the same instances,
//! Hopcroft–Karp on bipartite ones, and a flow-feasibility audit.

use crate::ids::{EdgeId, VertexId};
use crate::workspace::TraversalWorkspace;
use crate::Csr;
use std::collections::VecDeque;

/// A flow arc in the residual network.
#[derive(Clone, Debug)]
struct Arc {
    to: u32,
    /// Index of the reverse arc in `arcs`.
    rev: u32,
    cap: u32,
}

/// Max-flow problem builder/solver (Dinic).
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    first: Vec<Vec<u32>>, // arc indices per node
    arcs: Vec<Arc>,
}

impl FlowNetwork {
    /// Creates a flow network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            first: vec![Vec::new(); n],
            arcs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.first.len()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self) -> u32 {
        self.first.push(Vec::new());
        (self.first.len() - 1) as u32
    }

    /// Clears the network down to `n` isolated nodes while keeping every
    /// allocation (arc list and per-node adjacency capacity). Monte Carlo
    /// loops rebuild the same-shaped flow problem thousands of times;
    /// after the first trial a `reset` + rebuild allocates nothing.
    pub fn reset(&mut self, n: usize) {
        self.arcs.clear();
        if self.first.len() > n {
            self.first.truncate(n);
        }
        for f in &mut self.first {
            f.clear();
        }
        if self.first.len() < n {
            self.first.resize_with(n, Vec::new);
        }
    }

    /// Adds a directed arc `u → v` with capacity `cap`; returns the arc
    /// index (its residual twin is `index + 1`).
    pub fn add_arc(&mut self, u: u32, v: u32, cap: u32) -> u32 {
        let idx = self.arcs.len() as u32;
        let rev = idx + 1;
        self.arcs.push(Arc { to: v, rev, cap });
        self.arcs.push(Arc {
            to: u,
            rev: idx,
            cap: 0,
        });
        self.first[u as usize].push(idx);
        self.first[v as usize].push(rev);
        idx
    }

    /// Flow currently pushed through arc `idx` (i.e. residual capacity of
    /// its twin).
    pub fn flow_on(&self, idx: u32) -> u32 {
        self.arcs[self.arcs[idx as usize].rev as usize].cap
    }

    /// Computes the maximum `s → t` flow, optionally stopping once `limit`
    /// units have been pushed (useful for "are there at least r disjoint
    /// paths?" questions).
    pub fn max_flow(&mut self, s: u32, t: u32, limit: Option<u32>) -> u32 {
        let mut ws = TraversalWorkspace::new();
        self.max_flow_into(s, t, limit, &mut ws)
    }

    /// [`Self::max_flow`] borrowing Dinic's level and arc-cursor buffers
    /// from a reusable [`TraversalWorkspace`] (zero allocations once the
    /// workspace has grown to the node count). Results are identical.
    pub fn max_flow_into(
        &mut self,
        s: u32,
        t: u32,
        limit: Option<u32>,
        ws: &mut TraversalWorkspace,
    ) -> u32 {
        assert_ne!(s, t, "source equals sink");
        let n = self.num_nodes();
        let limit = limit.unwrap_or(u32::MAX);
        let mut flow = 0u32;
        // Borrow the workspace's buffers: `dist` is the level array,
        // `parent` the DFS arc cursor, `queue` the BFS queue. Dinic
        // phases touch nearly every node, so plain per-phase fills beat
        // the epoch trick here (one load per level check in the DFS
        // instead of stamp + level); zero allocation is preserved
        // because the buffers live in the reusable workspace.
        ws.begin(n);
        while flow < limit {
            // BFS: build level graph.
            ws.dist[..n].fill(u32::MAX);
            ws.dist[s as usize] = 0;
            ws.queue.clear();
            ws.queue.push(VertexId(s));
            let mut head = 0;
            while head < ws.queue.len() {
                let u = ws.queue[head].0;
                head += 1;
                let du = ws.dist[u as usize];
                for &ai in &self.first[u as usize] {
                    let a = &self.arcs[ai as usize];
                    if a.cap > 0 && ws.dist[a.to as usize] == u32::MAX {
                        ws.dist[a.to as usize] = du + 1;
                        ws.queue.push(VertexId(a.to));
                    }
                }
            }
            if ws.dist[t as usize] == u32::MAX {
                break;
            }
            // DFS blocking flow.
            ws.parent[..n].fill(0);
            loop {
                let pushed = self.dfs(s, t, limit - flow, ws);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
                if flow >= limit {
                    break;
                }
            }
        }
        flow
    }

    fn dfs(&mut self, u: u32, t: u32, up_to: u32, ws: &mut TraversalWorkspace) -> u32 {
        if u == t {
            return up_to;
        }
        while (ws.parent[u as usize] as usize) < self.first[u as usize].len() {
            let ai = self.first[u as usize][ws.parent[u as usize] as usize];
            let (to, cap) = {
                let a = &self.arcs[ai as usize];
                (a.to, a.cap)
            };
            if cap > 0 && ws.dist[to as usize] == ws.dist[u as usize] + 1 {
                let pushed = self.dfs(to, t, up_to.min(cap), ws);
                if pushed > 0 {
                    self.arcs[ai as usize].cap -= pushed;
                    let rev = self.arcs[ai as usize].rev;
                    self.arcs[rev as usize].cap += pushed;
                    return pushed;
                }
            }
            ws.parent[u as usize] += 1;
        }
        0
    }

    /// Nodes reachable from `s` in the residual graph — the source side of
    /// a minimum cut after [`Self::max_flow`] has run.
    pub fn min_cut_source_side(&self, s: u32) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes()];
        let mut q = VecDeque::new();
        seen[s as usize] = true;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &ai in &self.first[u as usize] {
                let a = &self.arcs[ai as usize];
                if a.cap > 0 && !seen[a.to as usize] {
                    seen[a.to as usize] = true;
                    q.push_back(a.to);
                }
            }
        }
        seen
    }
}

/// Result of a vertex-disjoint path computation.
#[derive(Clone, Debug)]
pub struct DisjointPaths {
    /// Number of vertex-disjoint paths found (the max-flow value).
    pub count: u32,
    /// The paths, each a sequence of original vertex ids from a source to
    /// a sink.
    pub paths: Vec<Vec<VertexId>>,
}

/// Options for [`vertex_disjoint_paths`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DisjointOptions {
    /// Stop as soon as this many paths are found.
    pub limit: Option<u32>,
    /// If `true`, only count the flow; skip path extraction.
    pub count_only: bool,
}

/// Reusable state for repeated vertex-disjoint-path queries: the flow
/// network (arc pool + adjacency), the Dinic traversal workspace and the
/// arc-index scratch tables. After the first call on a given graph shape,
/// [`vertex_disjoint_paths_into`] performs no heap allocation (path
/// extraction aside).
#[derive(Clone, Debug, Default)]
pub struct FlowWorkspace {
    fnet: FlowNetwork,
    ws: TraversalWorkspace,
    sink_arc: Vec<u32>,
    source_arc: Vec<u32>,
    graph_arc: Vec<u32>,
    next_vertex: Vec<VertexId>,
}

impl FlowWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Maximum family of vertex-disjoint directed paths from `sources` to
/// `sinks`, using only vertices with `vertex_ok` and edges with `edge_ok`.
///
/// Sources and sinks are themselves capacity-1 (each source starts at most
/// one path), matching the paper's definitions where paths must be
/// vertex-disjoint *including* endpoints. A vertex listed in both
/// `sources` and `sinks` yields a trivial length-0 path.
pub fn vertex_disjoint_paths(
    g: &Csr,
    sources: &[VertexId],
    sinks: &[VertexId],
    edge_ok: impl FnMut(EdgeId) -> bool,
    vertex_ok: impl FnMut(VertexId) -> bool,
    opts: DisjointOptions,
) -> DisjointPaths {
    let mut fw = FlowWorkspace::new();
    vertex_disjoint_paths_into(g, sources, sinks, edge_ok, vertex_ok, opts, &mut fw)
}

/// [`vertex_disjoint_paths`] borrowing all scratch state from a reusable
/// [`FlowWorkspace`] — the Monte Carlo hot path. Results are identical.
#[allow(clippy::too_many_arguments)]
pub fn vertex_disjoint_paths_into(
    g: &Csr,
    sources: &[VertexId],
    sinks: &[VertexId],
    mut edge_ok: impl FnMut(EdgeId) -> bool,
    mut vertex_ok: impl FnMut(VertexId) -> bool,
    opts: DisjointOptions,
    fw: &mut FlowWorkspace,
) -> DisjointPaths {
    let n = g.num_vertices();
    // Node layout: v_in = 2v, v_out = 2v+1, super-source = 2n, super-sink = 2n+1.
    let fnet = &mut fw.fnet;
    fnet.reset(2 * n + 2);
    let (ss, tt) = ((2 * n) as u32, (2 * n + 1) as u32);
    // split arcs enforce vertex capacity 1
    for vid in 0..n {
        let v = VertexId::from(vid);
        if vertex_ok(v) {
            fnet.add_arc(2 * vid as u32, 2 * vid as u32 + 1, 1);
        }
    }
    let sink_arc = &mut fw.sink_arc;
    sink_arc.clear();
    sink_arc.resize(n, u32::MAX);
    for &t in sinks {
        if sink_arc[t.index()] == u32::MAX {
            sink_arc[t.index()] = fnet.add_arc(2 * t.index() as u32 + 1, tt, 1);
        }
    }
    let source_arc = &mut fw.source_arc;
    source_arc.clear();
    source_arc.resize(n, u32::MAX);
    for &s in sources {
        if source_arc[s.index()] == u32::MAX {
            source_arc[s.index()] = fnet.add_arc(ss, 2 * s.index() as u32, 1);
        }
    }
    // graph arcs: u_out -> w_in
    let graph_arc = &mut fw.graph_arc;
    graph_arc.clear();
    graph_arc.resize(g.num_edges(), u32::MAX);
    for (eid, arc) in graph_arc.iter_mut().enumerate() {
        let e = EdgeId::from(eid);
        if !edge_ok(e) {
            continue;
        }
        let (t, h) = g.endpoints(e);
        *arc = fnet.add_arc(2 * t.index() as u32 + 1, 2 * h.index() as u32, 1);
    }

    let count = fnet.max_flow_into(ss, tt, opts.limit, &mut fw.ws);
    if opts.count_only {
        return DisjointPaths {
            count,
            paths: Vec::new(),
        };
    }

    // Extract paths by walking saturated graph arcs from each used source.
    // Unit vertex capacity ⇒ every vertex has at most one saturated
    // outgoing graph arc, so the walk is deterministic.
    let next_vertex = &mut fw.next_vertex;
    next_vertex.clear();
    next_vertex.resize(n, VertexId::NONE);
    for (eid, &ai) in graph_arc.iter().enumerate() {
        if ai != u32::MAX && fnet.flow_on(ai) > 0 {
            let (t, h) = g.endpoints(EdgeId::from(eid));
            debug_assert!(next_vertex[t.index()].is_none(), "vertex capacity violated");
            next_vertex[t.index()] = h;
        }
    }
    let mut paths = Vec::with_capacity(count as usize);
    for &s in sources {
        let sa = source_arc[s.index()];
        if sa == u32::MAX || fnet.flow_on(sa) == 0 {
            continue;
        }
        source_arc[s.index()] = u32::MAX; // don't start the same path twice
        let mut path = vec![s];
        let mut cur = s;
        loop {
            let sk = sink_arc[cur.index()];
            if sk != u32::MAX && fnet.flow_on(sk) > 0 {
                break; // the flow unit through `cur` terminates here
            }
            let nxt = next_vertex[cur.index()];
            assert!(
                !nxt.is_none() && path.len() <= n,
                "flow decomposition failed (non-DAG input?)"
            );
            next_vertex[cur.index()] = VertexId::NONE; // consume
            path.push(nxt);
            cur = nxt;
        }
        paths.push(path);
    }
    debug_assert_eq!(paths.len(), count as usize);
    DisjointPaths { count, paths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::v;

    #[test]
    fn simple_max_flow() {
        // classic 4-node example
        let mut f = FlowNetwork::new(4);
        f.add_arc(0, 1, 2);
        f.add_arc(0, 2, 1);
        f.add_arc(1, 2, 1);
        f.add_arc(1, 3, 1);
        f.add_arc(2, 3, 2);
        assert_eq!(f.max_flow(0, 3, None), 3);
    }

    #[test]
    fn max_flow_respects_limit() {
        let mut f = FlowNetwork::new(2);
        for _ in 0..5 {
            f.add_arc(0, 1, 1);
        }
        assert_eq!(f.max_flow(0, 1, Some(3)), 3);
    }

    #[test]
    fn min_cut_matches_flow() {
        let mut f = FlowNetwork::new(4);
        let a = f.add_arc(0, 1, 3);
        let b = f.add_arc(1, 2, 1);
        let c = f.add_arc(2, 3, 3);
        let flow = f.max_flow(0, 3, None);
        assert_eq!(flow, 1);
        let side = f.min_cut_source_side(0);
        assert!(side[0] && side[1] && !side[2] && !side[3]);
        assert_eq!(f.flow_on(a), 1);
        assert_eq!(f.flow_on(b), 1);
        assert_eq!(f.flow_on(c), 1);
    }

    fn diamond() -> Csr {
        Csr::from_edges(
            4,
            vec![(v(0), v(1)), (v(0), v(2)), (v(1), v(3)), (v(2), v(3))],
        )
    }

    #[test]
    fn disjoint_paths_diamond() {
        let g = diamond();
        // 0 and 3 are both terminals: one path 0..3, vertex-disjointness
        // allows only one since both paths share 0 and 3.
        let r = vertex_disjoint_paths(
            &g,
            &[v(0)],
            &[v(3)],
            |_| true,
            |_| true,
            DisjointOptions::default(),
        );
        assert_eq!(r.count, 1);
        assert_eq!(r.paths.len(), 1);
        let p = &r.paths[0];
        assert_eq!(p.first(), Some(&v(0)));
        assert_eq!(p.last(), Some(&v(3)));
    }

    #[test]
    fn disjoint_paths_parallel_chains() {
        // two disjoint chains: 0->2->4, 1->3->5
        let g = Csr::from_edges(
            6,
            vec![(v(0), v(2)), (v(1), v(3)), (v(2), v(4)), (v(3), v(5))],
        );
        let r = vertex_disjoint_paths(
            &g,
            &[v(0), v(1)],
            &[v(4), v(5)],
            |_| true,
            |_| true,
            DisjointOptions::default(),
        );
        assert_eq!(r.count, 2);
        assert_eq!(r.paths.len(), 2);
        // verify vertex-disjointness
        let mut seen = std::collections::HashSet::new();
        for p in &r.paths {
            for u in p {
                assert!(seen.insert(*u), "vertex {u:?} reused");
            }
        }
    }

    #[test]
    fn bottleneck_vertex_limits_count() {
        // 0 -> 2, 1 -> 2, 2 -> 3, 2 -> 4: all paths pass through 2
        let g = Csr::from_edges(
            5,
            vec![(v(0), v(2)), (v(1), v(2)), (v(2), v(3)), (v(2), v(4))],
        );
        let r = vertex_disjoint_paths(
            &g,
            &[v(0), v(1)],
            &[v(3), v(4)],
            |_| true,
            |_| true,
            DisjointOptions::default(),
        );
        assert_eq!(r.count, 1, "vertex 2 is a 1-cut");
    }

    #[test]
    fn filters_apply() {
        let g = diamond();
        // forbid vertex 1: path must go through 2
        let r = vertex_disjoint_paths(
            &g,
            &[v(0)],
            &[v(3)],
            |_| true,
            |x| x != v(1),
            DisjointOptions::default(),
        );
        assert_eq!(r.count, 1);
        assert!(r.paths[0].contains(&v(2)));
        // forbid both middle vertices: no path
        let r = vertex_disjoint_paths(
            &g,
            &[v(0)],
            &[v(3)],
            |_| true,
            |x| x != v(1) && x != v(2),
            DisjointOptions::default(),
        );
        assert_eq!(r.count, 0);
    }

    #[test]
    fn count_only_skips_paths() {
        let g = diamond();
        let r = vertex_disjoint_paths(
            &g,
            &[v(0)],
            &[v(3)],
            |_| true,
            |_| true,
            DisjointOptions {
                count_only: true,
                ..Default::default()
            },
        );
        assert_eq!(r.count, 1);
        assert!(r.paths.is_empty());
    }

    #[test]
    fn limit_stops_early() {
        let g = Csr::from_edges(8, (0..4).map(|i| (v(i), v(i + 4))).collect());
        let sources: Vec<_> = (0..4).map(v).collect();
        let sinks: Vec<_> = (4..8).map(v).collect();
        let r = vertex_disjoint_paths(
            &g,
            &sources,
            &sinks,
            |_| true,
            |_| true,
            DisjointOptions {
                limit: Some(2),
                count_only: true,
            },
        );
        assert_eq!(r.count, 2);
    }

    #[test]
    fn reset_reuses_network_allocation() {
        let mut f = FlowNetwork::new(4);
        f.add_arc(0, 1, 2);
        f.add_arc(1, 3, 2);
        assert_eq!(f.max_flow(0, 3, None), 2);
        // shrink to a fresh 2-node problem
        f.reset(2);
        assert_eq!(f.num_nodes(), 2);
        f.add_arc(0, 1, 5);
        assert_eq!(f.max_flow(0, 1, None), 5);
        // grow again
        f.reset(3);
        f.add_arc(0, 1, 1);
        f.add_arc(1, 2, 3);
        assert_eq!(f.max_flow(0, 2, None), 1);
    }

    #[test]
    fn workspace_reuse_matches_fresh_calls() {
        let g = diamond();
        let mut fw = FlowWorkspace::new();
        for (vetoed, expect) in [(None, 1u32), (Some(v(1)), 1), (Some(v(3)), 0)] {
            let fresh = vertex_disjoint_paths(
                &g,
                &[v(0)],
                &[v(3)],
                |_| true,
                |x| Some(x) != vetoed,
                DisjointOptions::default(),
            );
            let reused = vertex_disjoint_paths_into(
                &g,
                &[v(0)],
                &[v(3)],
                |_| true,
                |x| Some(x) != vetoed,
                DisjointOptions::default(),
                &mut fw,
            );
            assert_eq!(fresh.count, expect);
            assert_eq!(fresh.count, reused.count);
            assert_eq!(fresh.paths, reused.paths);
        }
    }

    #[test]
    fn source_equals_sink_trivial_path() {
        let g = Csr::from_edges(1, vec![]);
        let r = vertex_disjoint_paths(
            &g,
            &[v(0)],
            &[v(0)],
            |_| true,
            |_| true,
            DisjointOptions::default(),
        );
        assert_eq!(r.count, 1);
        assert_eq!(r.paths, vec![vec![v(0)]]);
    }
}
