//! Successive-shortest-path min-cost flow with Johnson potentials.
//!
//! The second flow kernel: where [`crate::maxflow`] answers *how many*
//! disjoint circuits exist, this module answers *which* assignment of
//! circuits disturbs the fabric least. The post-storm mass
//! reroute (`ft-networks::CircuitRouter`) phrases minimal-disruption
//! recovery as a min-cost flow — every switch occupied by a replacement
//! circuit costs one unit — and plans placements out-of-band on a
//! [`CostFlowNetwork`] before touching live router state.
//!
//! The solver is the classical successive-shortest-path algorithm:
//! repeatedly augment along a cheapest residual `s → t` path found by
//! Dijkstra on *reduced* costs `c(u,v) + π(u) − π(v)`. Potentials `π`
//! start at zero (all arc costs are required nonnegative) and are updated
//! after every search, which keeps reduced costs nonnegative across
//! augmentations **and across changing source/sink pairs** — the property
//! the router's per-victim batch replanning relies on. Ties in the
//! Dijkstra heap break on node id, so plans are deterministic.

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
/// Mirrors [`crate::maxflow::FlowNetwork`]'s residual representation:
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
    /// allocation (the batch-reroute planner rebuilds per storm).
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
    /// flow back out. The batch-reroute planner freezes the split arcs
    /// of every placed circuit to keep per-pair plans pairing-safe —
    /// successive single-commodity augmentations may otherwise repack
    /// earlier flow onto different terminal pairs.
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
    ws.dist[s as usize] = 0;
    ws.heap.push(Reverse((0, s)));
    while let Some(Reverse((d, u))) = ws.heap.pop() {
        if ws.done[u as usize] {
            continue;
        }
        ws.done[u as usize] = true;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheapest_path_wins_before_expensive_one() {
        // two disjoint s→t chains: cost 1 and cost 5, capacity 1 each
        let mut net = CostFlowNetwork::new(4);
        net.add_arc(0, 1, 1, 1);
        net.add_arc(1, 3, 1, 0);
        net.add_arc(0, 2, 1, 5);
        net.add_arc(2, 3, 1, 0);
        let r = min_cost_flow(&mut net, 0, 3, Some(1));
        assert_eq!(r, MinCostFlow { flow: 1, value: 1 });
        // second unit must take the expensive chain
        let mut net2 = CostFlowNetwork::new(4);
        net2.add_arc(0, 1, 1, 1);
        net2.add_arc(1, 3, 1, 0);
        net2.add_arc(0, 2, 1, 5);
        net2.add_arc(2, 3, 1, 0);
        let r = min_cost_flow(&mut net2, 0, 3, None);
        assert_eq!(r, MinCostFlow { flow: 2, value: 6 });
    }

    #[test]
    fn augmentation_reroutes_through_residual_arcs() {
        // Classic repacking instance: the greedy cheapest first path
        // (0→1→2→3, cost 2) blocks both remaining chains unless the
        // second augmentation undoes the middle arc via its residual.
        let mut net = CostFlowNetwork::new(4);
        net.add_arc(0, 1, 1, 1);
        net.add_arc(1, 2, 1, 0);
        net.add_arc(2, 3, 1, 1);
        net.add_arc(0, 2, 1, 2);
        net.add_arc(1, 3, 1, 2);
        let r = min_cost_flow(&mut net, 0, 3, None);
        assert_eq!(r.flow, 2);
        // optimum pairs 0→1→3 with 0→2→3: cost (1+2) + (2+1) = 6
        assert_eq!(r.value, 6);
    }

    #[test]
    fn freeze_arc_blocks_both_directions() {
        let mut net = CostFlowNetwork::new(3);
        let a = net.add_arc(0, 1, 1, 0);
        net.add_arc(1, 2, 1, 0);
        let mut ws = McfWorkspace::new();
        ws.begin(3);
        let mut path = Vec::new();
        assert!(augment_unit_into(&mut net, 0, 2, &mut ws, &mut path).is_some());
        assert_eq!(net.flow_on(a), 1);
        net.freeze_arc(a);
        // the unit through `a` can be neither extended nor ripped out
        assert!(augment_unit_into(&mut net, 0, 2, &mut ws, &mut path).is_none());
        assert!(augment_unit_into(&mut net, 1, 0, &mut ws, &mut path).is_none());
    }

    #[test]
    fn changing_pairs_keep_potentials_valid() {
        // a 2×2 bipartite instance planned one pair at a time, the way
        // the router replans a storm batch
        let mut net = CostFlowNetwork::new(4);
        net.add_arc(0, 2, 1, 1);
        net.add_arc(0, 3, 1, 3);
        net.add_arc(1, 2, 1, 2);
        net.add_arc(1, 3, 1, 1);
        let mut ws = McfWorkspace::new();
        ws.begin(4);
        let mut path = Vec::new();
        let c0 = augment_unit_into(&mut net, 0, 2, &mut ws, &mut path).unwrap();
        assert_eq!(c0, 1);
        assert_eq!(path.len(), 1);
        let c1 = augment_unit_into(&mut net, 1, 3, &mut ws, &mut path).unwrap();
        assert_eq!(c1, 1);
        // a third pair still routes over the remaining expensive arc,
        // with potentials carried over from the earlier pairs
        let c2 = augment_unit_into(&mut net, 0, 3, &mut ws, &mut path).unwrap();
        assert_eq!(c2, 3);
        // 0's arcs are now all saturated: no further unit can leave it
        assert!(augment_unit_into(&mut net, 0, 1, &mut ws, &mut path).is_none());
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut net = CostFlowNetwork::new(3);
        net.add_arc(0, 1, 2, 1);
        net.add_arc(1, 2, 2, 1);
        assert_eq!(
            min_cost_flow(&mut net, 0, 2, None),
            MinCostFlow { flow: 2, value: 4 }
        );
        net.reset(2);
        assert_eq!(net.num_nodes(), 2);
        net.add_arc(0, 1, 3, 2);
        assert_eq!(
            min_cost_flow(&mut net, 0, 1, None),
            MinCostFlow { flow: 3, value: 6 }
        );
    }

    #[test]
    fn arc_endpoint_accessors() {
        let mut net = CostFlowNetwork::new(3);
        let a = net.add_arc(1, 2, 1, 0);
        assert_eq!(net.arc_from(a), 1);
        assert_eq!(net.arc_to(a), 2);
        assert_eq!(net.add_node(), 3);
        assert_eq!(net.num_nodes(), 4);
    }
}
