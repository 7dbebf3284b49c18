//! Differential tests for the flow kernels.
//!
//! Dinic is held to a structurally different algorithm on every
//! instance: successive-shortest-path min-cost flow (all costs 0, so
//! only its value matters) on the same vertex-split staged instances and
//! on random capacitated ones, and Hopcroft–Karp on unit-capacity
//! bipartite instances. Agreement alone can hide a shared bug, so every
//! flow Dinic returns is also checked by an independent feasibility
//! audit (capacity, conservation, integrality) that never consults the
//! kernel's internals; and the min-cost kernel is held to brute-force
//! enumeration on small instances, plus the bound the reroute planner
//! relies on: a min-cost flow never costs more than the flow Dinic
//! happens to find at the same value. The min-cost kernel is the
//! test-only reference in `common`; its own unit tests close the file.
mod common;

use common::{augment_unit_into, min_cost_flow, CostFlowNetwork, McfWorkspace, MinCostFlow};
use ft_graph::gen;
use ft_graph::ids::{EdgeId, VertexId};
use ft_graph::matching::hopcroft_karp;
use ft_graph::maxflow::{vertex_disjoint_paths_into, DisjointOptions, FlowNetwork, FlowWorkspace};
use ft_graph::paths::are_vertex_disjoint;
use ft_graph::staged::{StagedBuilder, StagedNetwork};
use proptest::prelude::*;
use rand::Rng;

/// An arc as the test added it: `(u, v, cap, index)`. The feasibility
/// audit works off this record, never off kernel state.
type ArcRec = (u32, u32, u32, u32);

/// A random capacitated instance: node count, arc records, and the
/// network itself (plus parallel cost labels for the min-cost checks).
fn random_instance(
    r: &mut rand::rngs::SmallRng,
    max_n: usize,
    max_m: usize,
) -> (FlowNetwork, Vec<ArcRec>, u32, u32) {
    let n = r.random_range(2..=max_n);
    let m = r.random_range(0..=max_m);
    let mut net = FlowNetwork::new(n);
    let mut arcs = Vec::with_capacity(m);
    for _ in 0..m {
        let u = r.random_range(0..n) as u32;
        let mut v = r.random_range(0..n) as u32;
        if u == v {
            v = (v + 1) % n as u32;
        }
        let cap = r.random_range(1..=4u32);
        let idx = net.add_arc(u, v, cap);
        arcs.push((u, v, cap, idx));
    }
    let s = 0u32;
    let t = (n - 1) as u32;
    (net, arcs, s, t)
}

/// Independent audit of the flow a kernel left in `net`: every arc
/// within capacity, conservation at every interior node, and the net
/// outflow of `s` equal to both the claimed value and the net inflow of
/// `t`. Works purely from the arc records and `flow_on`.
fn audit_flow(net: &FlowNetwork, arcs: &[ArcRec], s: u32, t: u32, claimed: u64) {
    let n = net.num_nodes();
    let mut net_out = vec![0i64; n];
    for &(u, v, cap, idx) in arcs {
        let f = net.flow_on(idx);
        assert!(f <= cap, "arc {u}->{v}: flow {f} exceeds cap {cap}");
        net_out[u as usize] += f as i64;
        net_out[v as usize] -= f as i64;
    }
    for w in 0..n as u32 {
        if w == s || w == t {
            continue;
        }
        assert_eq!(net_out[w as usize], 0, "conservation violated at {w}");
    }
    assert_eq!(
        net_out[s as usize], claimed as i64,
        "source outflow != value"
    );
    assert_eq!(
        net_out[t as usize],
        -(claimed as i64),
        "sink inflow != value"
    );
}

/// A random staged network: `widths` gives the stage sizes, each
/// consecutive-stage switch present with probability 0.6.
fn random_staged(r: &mut rand::rngs::SmallRng, widths: &[usize]) -> StagedNetwork {
    let mut b = StagedBuilder::new();
    let ranges: Vec<_> = widths.iter().map(|&w| b.add_stage(w)).collect();
    for w in ranges.windows(2) {
        for t in w[0].clone() {
            for h in w[1].clone() {
                if r.random_bool(0.6) {
                    b.add_edge(VertexId(t), VertexId(h));
                }
            }
        }
    }
    b.set_inputs(ranges[0].clone().map(VertexId).collect());
    b.set_outputs(ranges[ranges.len() - 1].clone().map(VertexId).collect());
    b.finish()
}

/// Runs Dinic over a staged instance and returns (count, paths).
fn dinic_disjoint(
    net: &StagedNetwork,
    s: &[VertexId],
    t: &[VertexId],
    idle: &[bool],
    fw: &mut FlowWorkspace,
) -> (u32, Vec<Vec<VertexId>>) {
    let r = vertex_disjoint_paths_into(
        net.graph(),
        s,
        t,
        |_| true,
        |v| idle[v.index()],
        DisjointOptions::default(),
        fw,
    );
    (r.count, r.paths)
}

/// The same disjoint-path count by min-cost flow: the vertex-split
/// instance rebuilt here from the graph (`v_in = 2v`, `v_out = 2v + 1`,
/// unit arcs, every cost 0) and solved by successive shortest paths.
/// `s` and `t` must hold no repeats.
fn mincost_disjoint(net: &StagedNetwork, s: &[VertexId], t: &[VertexId], idle: &[bool]) -> u32 {
    let g = net.graph();
    let n = g.num_vertices();
    let (ss, tt) = (2 * n as u32, 2 * n as u32 + 1);
    let mut c = CostFlowNetwork::new(2 * n + 2);
    for v in (0..n).filter(|&v| idle[v]) {
        c.add_arc(2 * v as u32, 2 * v as u32 + 1, 1, 0);
    }
    for v in s {
        c.add_arc(ss, 2 * v.0, 1, 0);
    }
    for v in t {
        c.add_arc(2 * v.0 + 1, tt, 1, 0);
    }
    for e in 0..g.num_edges() {
        let (a, b) = g.endpoints(EdgeId::from(e));
        c.add_arc(2 * a.0 + 1, 2 * b.0, 1, 0);
    }
    min_cost_flow(&mut c, ss, tt, None).flow
}

proptest! {
    /// The headline differential: random staged networks × random idle
    /// masks × random source/sink cuts. Dinic and min-cost flow must
    /// return the same disjoint-path count, and Dinic's extracted paths
    /// must independently check out (disjoint, idle-respecting, real
    /// directed paths from a chosen source to a chosen sink).
    #[test]
    fn kernels_agree_on_staged_networks_under_idle_masks(
        seed in 0u64..2000,
        widths in proptest::collection::vec(1usize..6, 2..6),
    ) {
        let mut r = gen::rng(seed);
        let net = random_staged(&mut r, &widths);
        let n = net.graph().num_vertices();
        let idle: Vec<bool> = (0..n).map(|_| r.random_bool(0.75)).collect();
        // random source/sink cuts: shuffle and take a random prefix
        let mut src = net.inputs().to_vec();
        let mut dst = net.outputs().to_vec();
        use rand::seq::SliceRandom;
        src.shuffle(&mut r);
        dst.shuffle(&mut r);
        let s = &src[..r.random_range(1..=src.len())];
        let t = &dst[..r.random_range(1..=dst.len())];
        let mut fw = FlowWorkspace::new();
        let (count, paths) = dinic_disjoint(&net, s, t, &idle, &mut fw);
        let mc = mincost_disjoint(&net, s, t, &idle);
        prop_assert_eq!(count, mc, "Dinic {} != min-cost flow {}", count, mc);
        prop_assert_eq!(paths.len(), count as usize);
        prop_assert!(are_vertex_disjoint(paths.iter().map(|p| p.as_slice())));
        for p in &paths {
            prop_assert!(s.contains(&p[0]), "bad start");
            prop_assert!(t.contains(p.last().unwrap()), "bad end");
            for &v in p {
                prop_assert!(idle[v.index()], "path crosses busy vertex");
            }
            for w in p.windows(2) {
                prop_assert!(net.graph().has_edge(w[0], w[1]), "missing edge");
            }
        }
    }

    /// Unit-capacity bipartite instances admit a matching oracle:
    /// Hopcroft–Karp. On 2-stage networks under idle masks, matching
    /// size and Dinic's count must coincide.
    #[test]
    fn hopcroft_karp_agrees_on_bipartite_instances(
        seed in 0u64..2000,
        left in 1usize..7,
        right in 1usize..7,
    ) {
        let mut r = gen::rng(seed);
        let net = random_staged(&mut r, &[left, right]);
        let n = net.graph().num_vertices();
        let idle: Vec<bool> = (0..n).map(|_| r.random_bool(0.75)).collect();
        // the bipartite adjacency over idle vertices only
        let live_left: Vec<VertexId> =
            net.inputs().iter().copied().filter(|v| idle[v.index()]).collect();
        let live_right: Vec<VertexId> =
            net.outputs().iter().copied().filter(|v| idle[v.index()]).collect();
        let rpos = |v: VertexId| live_right.iter().position(|&x| x == v).map(|p| p as u32);
        let adj: Vec<Vec<u32>> = live_left
            .iter()
            .map(|&l| {
                net.graph()
                    .out_heads(l)
                    .iter()
                    .filter_map(|&h| rpos(h))
                    .collect()
            })
            .collect();
        let m = hopcroft_karp(&adj, live_right.len());
        let mut fw = FlowWorkspace::new();
        let (cd, _) = dinic_disjoint(&net, net.inputs(), net.outputs(), &idle, &mut fw);
        prop_assert_eq!(m.size as u32, cd, "matching != dinic");
    }

    /// On arbitrary-capacity random instances Dinic must leave a flow
    /// that survives the independent feasibility audit, and its value
    /// must equal min-cost flow's on the same arcs.
    #[test]
    fn both_kernels_leave_audited_maximum_flows(seed in 0u64..3000) {
        let mut r = gen::rng(seed);
        let (mut net, arcs, s, t) = random_instance(&mut r, 9, 24);
        let dinic = net.max_flow(s, t, None);
        audit_flow(&net, &arcs, s, t, dinic as u64);
        let mut cnet = CostFlowNetwork::new(net.num_nodes());
        for &(u, v, cap, _) in &arcs {
            cnet.add_arc(u, v, cap, 0);
        }
        prop_assert_eq!(dinic, min_cost_flow(&mut cnet, s, t, None).flow);
    }

    /// Min-cost flow vs brute force: on small instances, enumerate every
    /// integral flow assignment, find the true maximum value and the
    /// cheapest flow of that value, and demand the kernel match both —
    /// and that its residual passes the same feasibility audit.
    #[test]
    fn min_cost_flow_matches_brute_force(seed in 0u64..1500) {
        let mut r = gen::rng(seed);
        let n = r.random_range(2..=5usize);
        let m = r.random_range(0..=7usize);
        let mut net = CostFlowNetwork::new(n);
        let mut arcs: Vec<(u32, u32, u32, i64, u32)> = Vec::with_capacity(m);
        for _ in 0..m {
            let u = r.random_range(0..n) as u32;
            let mut v = r.random_range(0..n) as u32;
            if u == v {
                v = (v + 1) % n as u32;
            }
            let cap = r.random_range(1..=2u32);
            let cost = r.random_range(0..=4i64);
            let idx = net.add_arc(u, v, cap, cost);
            arcs.push((u, v, cap, cost, idx));
        }
        let (s, t) = (0u32, (n - 1) as u32);
        // brute force: every per-arc flow in 0..=cap, keep conserving
        // assignments, track (max value, min cost at max value)
        let mut best_value = 0i64;
        let mut best_cost = 0i64;
        let total: usize = arcs.iter().map(|a| a.2 as usize + 1).product();
        for code in 0..total {
            let mut rem = code;
            let mut net_out = vec![0i64; n];
            let mut cost = 0i64;
            for &(u, v, cap, c, _) in &arcs {
                let f = (rem % (cap as usize + 1)) as i64;
                rem /= cap as usize + 1;
                net_out[u as usize] += f;
                net_out[v as usize] -= f;
                cost += f * c;
            }
            if (0..n).any(|w| w != s as usize && w != t as usize && net_out[w] != 0) {
                continue;
            }
            let value = net_out[s as usize];
            if value > best_value || (value == best_value && cost < best_cost) {
                best_value = value;
                best_cost = cost;
            }
        }
        let got = min_cost_flow(&mut net, s, t, None);
        prop_assert_eq!(got.flow as i64, best_value, "flow value not maximum");
        prop_assert_eq!(got.value, best_cost, "cost not minimal");
        // independent audit of what the kernel left behind
        let mut net_out = vec![0i64; n];
        let mut cost = 0i64;
        for &(u, v, cap, c, idx) in &arcs {
            let f = net.flow_on(idx);
            prop_assert!(f <= cap);
            net_out[u as usize] += f as i64;
            net_out[v as usize] -= f as i64;
            cost += f as i64 * c;
        }
        for (w, &flux) in net_out.iter().enumerate() {
            if w != s as usize && w != t as usize {
                prop_assert_eq!(flux, 0);
            }
        }
        prop_assert_eq!(net_out[s as usize], got.flow as i64);
        prop_assert_eq!(cost, got.value);
    }

    /// The minimal-disruption bound the reroute planner rests on: under
    /// any nonnegative cost labelling, the min-cost kernel's flow at
    /// value F costs no more than the flow Dinic happens to find at the
    /// same value F. (The engine-level statement — mincost reroutes
    /// never move more circuits than greedy — is pinned in ft-sim; this
    /// is its kernel-level core.)
    #[test]
    fn mincost_never_costs_more_than_dinics_flow(seed in 0u64..1500) {
        let mut r = gen::rng(seed);
        let (mut fnet, arcs, s, t) = random_instance(&mut r, 8, 18);
        let costs: Vec<i64> = arcs.iter().map(|_| r.random_range(0..=5i64)).collect();
        let value = fnet.max_flow(s, t, None);
        let dinic_cost: i64 = arcs
            .iter()
            .zip(&costs)
            .map(|(&(_, _, _, idx), &c)| fnet.flow_on(idx) as i64 * c)
            .sum();
        let mut cnet = CostFlowNetwork::new(fnet.num_nodes());
        for (&(u, v, cap, _), &c) in arcs.iter().zip(&costs) {
            cnet.add_arc(u, v, cap, c);
        }
        let got = min_cost_flow(&mut cnet, s, t, None);
        prop_assert_eq!(got.flow, value, "kernels disagree on max-flow value");
        prop_assert!(
            got.value <= dinic_cost,
            "min-cost {} exceeds Dinic's incidental cost {}",
            got.value,
            dinic_cost
        );
    }
}

// The reference kernel's own unit tests.

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
