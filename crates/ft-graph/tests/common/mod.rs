//! Test-only reference: successive-shortest-path min-cost flow with
//! Johnson potentials on an explicit residual network.
//!
//! `kernel_equiv.rs` holds Dinic to it, and `mincost_planner.rs` holds
//! the library's placement planner (`ft_graph::mincost`) to it: the
//! planner searches the live idle fabric, while [`snapshot`] builds the
//! vertex-split cost network of the fabric once per wave and
//! [`place_and_freeze`] augments one unit on it and freezes the path —
//! the planner's own definition, spelled out arc by arc.
//!
//! The solver is the classical successive-shortest-path algorithm:
//! repeatedly augment along a cheapest residual `s → t` path found by
//! Dijkstra on *reduced* costs `c(u,v) + π(u) − π(v)`. Potentials `π`
//! start at zero (all arc costs are required nonnegative) and are updated
//! after every search, which keeps reduced costs nonnegative across
//! augmentations **and across changing source/sink pairs** — the property
//! a placement wave's per-victim replanning relies on. Ties in the
//! Dijkstra heap break on node id, so plans are deterministic.

#![allow(dead_code)] // each test binary uses its own part

use ft_graph::{gen, Csr, EdgeId, StagedBuilder, StagedNetwork, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Unreachable marker for Dijkstra distances.
const INF: i64 = i64::MAX;

/// No-parent marker for augmenting-path extraction.
const NO_ARC: u32 = u32::MAX;

/// A residual arc with a cost per unit of flow.
#[derive(Clone, Debug)]
struct CostArc {
    to: u32,
    /// Index of the reverse arc in `arcs`.
    rev: u32,
    cap: u32,
    cost: i64,
}

/// Min-cost flow problem builder/solver (successive shortest paths).
///
/// Mirrors `ft_graph::maxflow::FlowNetwork`'s residual representation:
/// [`Self::add_arc`] stores the arc and its zero-capacity, negated-cost
/// twin at adjacent indices, and [`Self::reset`] rebuilds the same-shaped
/// problem without allocating.
#[derive(Clone, Debug, Default)]
pub struct CostFlowNetwork {
    first: Vec<Vec<u32>>, // arc indices per node
    arcs: Vec<CostArc>,
}

impl CostFlowNetwork {
    /// Creates a cost-flow network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        CostFlowNetwork {
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
    /// allocation.
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

    /// Adds a directed arc `u → v` with capacity `cap` and nonnegative
    /// per-unit cost; returns the arc index (its residual twin, with the
    /// negated cost, is `index + 1`).
    pub fn add_arc(&mut self, u: u32, v: u32, cap: u32, cost: i64) -> u32 {
        assert!(cost >= 0, "arc costs must be nonnegative, got {cost}");
        let idx = self.arcs.len() as u32;
        let rev = idx + 1;
        self.arcs.push(CostArc {
            to: v,
            rev,
            cap,
            cost,
        });
        self.arcs.push(CostArc {
            to: u,
            rev: idx,
            cap: 0,
            cost: -cost,
        });
        self.first[u as usize].push(idx);
        self.first[v as usize].push(rev);
        idx
    }

    /// Flow currently pushed through arc `idx` (residual capacity of its
    /// twin).
    pub fn flow_on(&self, idx: u32) -> u32 {
        self.arcs[self.arcs[idx as usize].rev as usize].cap
    }

    /// Freezes arc `idx`: zeroes the residual capacity of the arc *and*
    /// its twin, so no later augmentation can use it forward or rip its
    /// flow back out. [`place_and_freeze`] freezes every arc of a placed
    /// circuit to keep per-pair plans pairing-safe — successive
    /// single-commodity augmentations may otherwise repack earlier flow
    /// onto different terminal pairs.
    pub fn freeze_arc(&mut self, idx: u32) {
        let rev = self.arcs[idx as usize].rev as usize;
        self.arcs[idx as usize].cap = 0;
        self.arcs[rev].cap = 0;
    }

    /// The tail of arc `idx` (the twin's head).
    pub fn arc_from(&self, idx: u32) -> u32 {
        self.arcs[self.arcs[idx as usize].rev as usize].to
    }

    /// The head of arc `idx`.
    pub fn arc_to(&self, idx: u32) -> u32 {
        self.arcs[idx as usize].to
    }
}

/// Flow value and total cost returned by [`min_cost_flow_into`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinCostFlow {
    /// Units of flow pushed.
    pub flow: u32,
    /// Total cost of the flow (minimum over all flows of this value).
    pub value: i64,
}

/// Reusable buffers for the successive-shortest-path solver: node
/// potentials (persistent across augmentations within one
/// [`McfWorkspace::begin`] epoch), Dijkstra distances/parents/settled
/// flags and the priority queue.
#[derive(Clone, Debug, Default)]
pub struct McfWorkspace {
    pot: Vec<i64>,
    dist: Vec<i64>,
    parent: Vec<u32>,
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Nodes the last search settled, in pop order.
    pub settled: Vec<u32>,
}

impl McfWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a planning epoch on an `n`-node network: zeroes the
    /// potentials (valid because all arc costs are nonnegative) and
    /// sizes the scratch buffers. Call once per [`CostFlowNetwork`]
    /// build; successive [`augment_unit_into`] calls — even with
    /// different source/sink pairs — then keep the potentials valid.
    pub fn begin(&mut self, n: usize) {
        self.pot.clear();
        self.pot.resize(n, 0);
        self.dist.clear();
        self.dist.resize(n, INF);
        self.parent.clear();
        self.parent.resize(n, NO_ARC);
        self.done.clear();
        self.done.resize(n, false);
        self.heap.clear();
    }
}

/// One cheapest-path search: Dijkstra from `s` on reduced costs. Fills
/// `ws.dist`/`ws.parent` and returns `true` iff `t` was reached. Stops
/// as soon as `t` is settled (remaining labels stay unsettled, which the
/// potential update accounts for).
fn dijkstra(net: &CostFlowNetwork, s: u32, t: u32, ws: &mut McfWorkspace) -> bool {
    let n = net.num_nodes();
    ws.dist[..n].fill(INF);
    ws.done[..n].fill(false);
    ws.parent[..n].fill(NO_ARC);
    ws.heap.clear();
    ws.settled.clear();
    ws.dist[s as usize] = 0;
    ws.heap.push(Reverse((0, s)));
    while let Some(Reverse((d, u))) = ws.heap.pop() {
        if ws.done[u as usize] {
            continue;
        }
        ws.done[u as usize] = true;
        ws.settled.push(u);
        if u == t {
            return true;
        }
        for &ai in &net.first[u as usize] {
            let a = &net.arcs[ai as usize];
            if a.cap == 0 || ws.done[a.to as usize] {
                continue;
            }
            let rc = a.cost + ws.pot[u as usize] - ws.pot[a.to as usize];
            debug_assert!(rc >= 0, "reduced cost went negative");
            let nd = d + rc;
            if nd < ws.dist[a.to as usize] {
                ws.dist[a.to as usize] = nd;
                ws.parent[a.to as usize] = ai;
                ws.heap.push(Reverse((nd, a.to)));
            }
        }
    }
    false
}

/// Updates potentials after a successful search to `t`: `π(v) += min(d(v),
/// d(t))`, the standard rule that keeps every residual reduced cost
/// nonnegative after augmenting along the found path.
fn update_potentials(n: usize, t: u32, ws: &mut McfWorkspace) {
    let dt = ws.dist[t as usize];
    for v in 0..n {
        ws.pot[v] += ws.dist[v].min(dt);
    }
}

/// Pushes one cheapest augmenting unit `s → t` and returns its true
/// (unreduced) cost, or `None` when `t` is unreachable in the residual.
///
/// [`McfWorkspace::begin`] must have been called for this network build;
/// after that, calls may freely change `(s, t)` between augmentations —
/// the potential update keeps reduced costs valid — which is exactly the
/// shape of the router's per-victim storm replanning. The augmenting
/// path's arcs are left in `arcs_out` (in `s → t` order) so the caller
/// can read placements or [`CostFlowNetwork::freeze_arc`] them.
pub fn augment_unit_into(
    net: &mut CostFlowNetwork,
    s: u32,
    t: u32,
    ws: &mut McfWorkspace,
    arcs_out: &mut Vec<u32>,
) -> Option<i64> {
    assert_ne!(s, t, "source equals sink");
    let n = net.num_nodes();
    if !dijkstra(net, s, t, ws) {
        return None;
    }
    update_potentials(n, t, ws);
    arcs_out.clear();
    let mut cost = 0i64;
    let mut v = t;
    while v != s {
        let ai = ws.parent[v as usize];
        debug_assert_ne!(ai, NO_ARC);
        arcs_out.push(ai);
        cost += net.arcs[ai as usize].cost;
        v = net.arc_from(ai);
    }
    arcs_out.reverse();
    for &ai in arcs_out.iter() {
        let rev = net.arcs[ai as usize].rev as usize;
        net.arcs[ai as usize].cap -= 1;
        net.arcs[rev].cap += 1;
    }
    Some(cost)
}

/// Computes a minimum-cost `s → t` flow of value `min(max flow, limit)`
/// by successive shortest paths, borrowing all scratch state from a
/// reusable [`McfWorkspace`].
///
/// Because every augmentation follows a cheapest path under valid
/// potentials, each intermediate flow is minimum-cost for its value —
/// so with `limit = Some(k)` the result is the cheapest flow of value
/// `min(max flow, k)`, and with `None` the cheapest maximum flow.
pub fn min_cost_flow_into(
    net: &mut CostFlowNetwork,
    s: u32,
    t: u32,
    limit: Option<u32>,
    ws: &mut McfWorkspace,
) -> MinCostFlow {
    assert_ne!(s, t, "source equals sink");
    let n = net.num_nodes();
    ws.begin(n);
    let limit = limit.unwrap_or(u32::MAX);
    let mut out = MinCostFlow::default();
    let mut path = Vec::new();
    while out.flow < limit {
        // Unit-step augmentation: every instance in this workspace is
        // unit-capacity (vertex-split circuits), so bottleneck batching
        // would never push more than one unit anyway.
        match augment_unit_into(net, s, t, ws, &mut path) {
            Some(cost) => {
                out.flow += 1;
                out.value += cost;
            }
            None => break,
        }
    }
    out
}

/// Convenience wrapper allocating a fresh workspace.
pub fn min_cost_flow(net: &mut CostFlowNetwork, s: u32, t: u32, limit: Option<u32>) -> MinCostFlow {
    let mut ws = McfWorkspace::new();
    min_cost_flow_into(net, s, t, limit, &mut ws)
}

/// The vertex-split cost network of `g`'s idle fabric: node `2v` →
/// `2v + 1` with capacity 1 and cost 1 for every idle `v`, in vertex
/// order, then `2u + 1` → `2h` with capacity 1 and cost 0 for every
/// edge `u → h` between idle vertices, in edge order. `ws` starts its
/// epoch.
pub fn snapshot(g: &Csr, idle: &[bool], net: &mut CostFlowNetwork, ws: &mut McfWorkspace) {
    let n = g.num_vertices();
    net.reset(2 * n);
    for v in (0..n).filter(|&v| idle[v]) {
        net.add_arc(2 * v as u32, 2 * v as u32 + 1, 1, 1);
    }
    for e in 0..g.num_edges() {
        let (t, h) = g.endpoints(EdgeId::from(e));
        if idle[t.index()] && idle[h.index()] {
            net.add_arc(2 * t.0 + 1, 2 * h.0, 1, 0);
        }
    }
    ws.begin(2 * n);
}

/// One placement on a [`snapshot`]: augments a unit `2·input` →
/// `2·output + 1`, freezes every arc of it (split and switch arcs
/// alike), and returns its vertex path, or `None` if the pair is
/// blocked.
pub fn place_and_freeze(
    net: &mut CostFlowNetwork,
    ws: &mut McfWorkspace,
    input: u32,
    output: u32,
) -> Option<Vec<u32>> {
    let mut arcs = Vec::new();
    augment_unit_into(net, 2 * input, 2 * output + 1, ws, &mut arcs)?;
    let mut path = Vec::new();
    for &a in &arcs {
        let from = net.arc_from(a);
        if from.is_multiple_of(2) && net.arc_to(a) == from + 1 {
            path.push(from / 2);
        }
        net.freeze_arc(a);
    }
    Some(path)
}

/// A random unit-staged network with the given stage widths — each
/// adjacent-stage pair joined with probability 0.6, and by a parallel
/// switch (which stresses the tie-break rules) with probability 0.1 —
/// and a random idle mask keeping each vertex with probability `p_idle`.
pub fn random_unit_staged(seed: u64, widths: &[usize], p_idle: f64) -> (StagedNetwork, Vec<bool>) {
    use rand::Rng;
    let mut r = gen::rng(seed);
    let mut b = StagedBuilder::new();
    let ranges: Vec<_> = widths.iter().map(|&w| b.add_stage(w)).collect();
    for w in ranges.windows(2) {
        for t in w[0].clone() {
            for h in w[1].clone() {
                if r.random_bool(0.6) {
                    b.add_edge(VertexId(t), VertexId(h));
                }
                if r.random_bool(0.1) {
                    b.add_edge(VertexId(t), VertexId(h));
                }
            }
        }
    }
    b.set_inputs(ranges[0].clone().map(VertexId).collect());
    b.set_outputs(ranges[ranges.len() - 1].clone().map(VertexId).collect());
    let net = b.finish();
    assert!(net.is_unit_staged());
    let n = net.graph().num_vertices();
    let idle = (0..n).map(|_| r.random_bool(p_idle)).collect();
    (net, idle)
}
