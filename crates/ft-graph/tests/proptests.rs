//! Property-based tests for the graph kernel invariants.

mod common;

use common::random_unit_staged;
use ft_graph::gen;
use ft_graph::ids::VertexId;
use ft_graph::matching::{hopcroft_karp, hopcroft_karp_into, MatchingWorkspace};
use ft_graph::maxflow::{
    vertex_disjoint_paths, vertex_disjoint_paths_into, DisjointOptions, FlowNetwork,
};
use ft_graph::menger::max_disjoint_paths;
use ft_graph::paths::are_vertex_disjoint;
use ft_graph::sliced::{sliced_reach_into, SlicedWorkspace, LANES};
use ft_graph::staged::StagedBuilder;
use ft_graph::traversal::{
    bfs, bfs_forward, bfs_into, bibfs_into, dag_depth, is_acyclic, route_into, topo_order,
    Direction,
};
use ft_graph::tree::{
    contract_stretches, is_forest, leaves, min_internal_degree_3, reduce_to_degree_3,
};
use ft_graph::{Csr, EdgeId, FlowWorkspace, RouteWorkspace, TraversalWorkspace};
use proptest::prelude::*;

/// Strategy: a random DAG described by (n, edge list of (a, b) with
/// a < b), the list stably sorted by tail.
fn dag_strategy() -> impl Strategy<Value = Csr> {
    (2usize..24).prop_flat_map(|n| {
        let edge = (0..n - 1).prop_flat_map(move |a| (Just(a), a + 1..n));
        proptest::collection::vec(edge, 0..80).prop_map(move |mut edges| {
            edges.sort_by_key(|&(a, _)| a);
            let edges = edges
                .into_iter()
                .map(|(a, b)| (VertexId::from(a), VertexId::from(b)));
            Csr::from_edges(n, edges.collect())
        })
    })
}

/// `c` with each vertex `u` renamed `perm[u]` for a seeded random
/// permutation, `perm`, and the old id of each new edge (the renamed
/// list is stably sorted by tail). Should the new ids still ascend along
/// every edge, `perm` is flipped (`u ↦ n − 1 − perm[u]`), which makes
/// every edge descend: a graph with an edge never keeps
/// [`Csr::ids_ascend`], so forward sweeps over it take the worklist.
fn relabelled(c: &Csr, seed: u64) -> (Csr, Vec<VertexId>, Vec<EdgeId>) {
    use rand::seq::SliceRandom;
    let n = c.num_vertices();
    let mut perm: Vec<VertexId> = (0..n).map(VertexId::from).collect();
    perm.shuffle(&mut gen::rng(seed));
    let build = |perm: &[VertexId]| {
        let mut edges: Vec<_> = c
            .edges()
            .map(|(e, t, h)| (perm[t.index()], perm[h.index()], e))
            .collect();
        edges.sort_by_key(|&(t, _, _)| t);
        let old = edges.iter().map(|&(_, _, e)| e).collect();
        (
            Csr::from_edges(n, edges.into_iter().map(|(t, h, _)| (t, h)).collect()),
            old,
        )
    };
    let (mut p, mut old) = build(&perm);
    if p.ids_ascend() {
        for u in &mut perm {
            *u = VertexId::from(n - 1 - u.index());
        }
        (p, old) = build(&perm);
    }
    assert!(c.num_edges() == 0 || !p.ids_ascend());
    (p, perm, old)
}

proptest! {
    #[test]
    fn dags_are_acyclic_and_topo_sorted(g in dag_strategy()) {
        prop_assert!(is_acyclic(&g));
        let order = topo_order(&g).unwrap();
        let mut pos = vec![0usize; g.num_vertices()];
        for (i, u) in order.iter().enumerate() {
            pos[u.index()] = i;
        }
        for (_, t, h) in g.edges() {
            prop_assert!(pos[t.index()] < pos[h.index()]);
        }
    }

    /// Every out-list and in-list against the brute-force oracle read
    /// off the edge list: the ids of the edges with that tail (head), in
    /// ascending order.
    #[test]
    fn csr_preserves_adjacency(c in dag_strategy()) {
        for u in c.vertices() {
            let by = |end: fn(&(EdgeId, VertexId, VertexId)) -> VertexId| -> Vec<EdgeId> {
                c.edges().filter(|edge| end(edge) == u).map(|(e, _, _)| e).collect()
            };
            prop_assert_eq!(c.out_edges(u).collect::<Vec<_>>(), by(|&(_, t, _)| t));
            prop_assert_eq!(c.in_edges(u), by(|&(_, _, h)| h));
        }
    }

    #[test]
    fn depth_is_max_bfs_layer_on_trees(seed in 0u64..500, n in 2usize..40) {
        // On a tree all root->leaf paths are unique, so DAG depth from the
        // root equals the max BFS distance.
        let mut r = gen::rng(seed);
        let g = gen::random_tree(&mut r, n);
        let b = bfs_forward(&g, VertexId(0));
        let max_d = b.dist.iter().filter(|&&d| d != u32::MAX).max().copied().unwrap();
        prop_assert_eq!(dag_depth(&g), max_d);
    }

    #[test]
    fn disjoint_paths_are_disjoint_and_count_matches(g in dag_strategy()) {
        let n = g.num_vertices();
        let sources: Vec<_> = (0..n / 2).map(VertexId::from).collect();
        let sinks: Vec<_> = (n / 2..n).map(VertexId::from).collect();
        let r = vertex_disjoint_paths(&g, &sources, &sinks, |_| true, |_| true,
            DisjointOptions::default());
        prop_assert_eq!(r.paths.len(), r.count as usize);
        prop_assert!(are_vertex_disjoint(r.paths.iter().map(|p| p.as_slice())));
        // every path is a real directed path from a source to a sink
        for p in &r.paths {
            prop_assert!(sources.contains(&p[0]));
            prop_assert!(sinks.contains(p.last().unwrap()));
            for w in p.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
        // count-only agrees
        prop_assert_eq!(max_disjoint_paths(&g, &sources, &sinks), r.count);
    }

    #[test]
    fn matching_equals_flow(seed in 0u64..500) {
        let mut r = gen::rng(seed);
        use rand::Rng;
        let left = r.random_range(1..12usize);
        let right = r.random_range(1..12usize);
        let deg = r.random_range(0..=right.min(5));
        let adj = gen::random_bipartite_adjacency(&mut r, left, right, deg);
        let m = hopcroft_karp(&adj, right);
        let mut f = FlowNetwork::new(left + right + 2);
        let s = (left + right) as u32;
        let t = s + 1;
        for (l, nbrs) in adj.iter().enumerate() {
            f.add_arc(s, l as u32, 1);
            for &rr in nbrs {
                f.add_arc(l as u32, left as u32 + rr, 1);
            }
        }
        for rr in 0..right {
            f.add_arc((left + rr) as u32, t, 1);
        }
        prop_assert_eq!(m.size as u32, f.max_flow(s, t, None));
    }

    #[test]
    fn lemma1_trees_survive_reduction(seed in 0u64..300, l in 3usize..60) {
        let mut r = gen::rng(seed);
        let g = gen::random_lemma1_tree(&mut r, l);
        prop_assert!(min_internal_degree_3(&g));
        let (h, origin, _) = reduce_to_degree_3(&g);
        prop_assert!(min_internal_degree_3(&h));
        prop_assert_eq!(leaves(&h).len(), leaves(&g).len());
        prop_assert_eq!(origin.len(), h.num_vertices());
        for u in h.vertices() {
            prop_assert!(h.degree(u) <= 3);
        }
    }

    #[test]
    fn stretch_contraction_partitions_edges(seed in 0u64..300, n in 1usize..50) {
        let mut r = gen::rng(seed);
        let g = gen::random_tree(&mut r, n);
        prop_assert!(is_forest(&g));
        let c = contract_stretches(&g);
        let total: usize = c.edge_paths.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, g.num_edges());
        prop_assert!(is_forest(&c.graph));
        // each stretch is a connected original path: consecutive edges share a vertex
        for stretch in &c.edge_paths {
            for w in stretch.windows(2) {
                let (a1, b1) = g.endpoints(w[0]);
                let (a2, b2) = g.endpoints(w[1]);
                prop_assert!(a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2);
            }
        }
    }

    #[test]
    fn bfs_into_matches_allocating_bfs(g in dag_strategy(), seed in 0u64..1000) {
        use rand::Rng;
        let mut r = gen::rng(seed);
        let n = g.num_vertices();
        let src = VertexId::from(r.random_range(0..n));
        let src2 = VertexId::from(r.random_range(0..n));
        let banned_v = VertexId::from(r.random_range(0..n));
        let banned_e = r.random_range(0..g.num_edges().max(1)) as u32;
        // ONE workspace reused across all six runs: equivalence must hold
        // regardless of what a previous traversal left in the buffers.
        let mut ws = TraversalWorkspace::new();
        for dir in [Direction::Forward, Direction::Backward, Direction::Undirected] {
            let reference = bfs(
                &g, &[src, src2], dir,
                |e| e.0 != banned_e,
                |v| v != banned_v,
            );
            // unfiltered run first to plant stale state in the workspace
            bfs_into(&g, &[src2], Direction::Forward, |_| true, |_| true, &mut ws);
            bfs_into(&g, &[src, src2], dir, |e| e.0 != banned_e, |v| v != banned_v, &mut ws);
            for u in 0..n {
                let u = VertexId::from(u);
                // the reference marks "unreached" and "no parent" with
                // sentinels where the workspace returns `None`
                let want_dist = reference.reached(u).then(|| reference.dist[u.index()]);
                let want_parent = Some(reference.parent_edge[u.index()]).filter(|e| !e.is_none());
                prop_assert_eq!(want_dist, ws.dist(u));
                prop_assert_eq!(want_parent, ws.parent_edge(u));
            }
            prop_assert_eq!(&reference.order, ws.order());
        }
    }

    #[test]
    fn disjoint_paths_into_matches_allocating(g in dag_strategy()) {
        let n = g.num_vertices();
        let sources: Vec<_> = (0..n / 2).map(VertexId::from).collect();
        let sinks: Vec<_> = (n / 2..n).map(VertexId::from).collect();
        let mut fw = FlowWorkspace::new();
        // repeated queries through one workspace, against fresh calls
        for banned in [None, Some(VertexId::from(n / 2))] {
            let fresh = vertex_disjoint_paths(&g, &sources, &sinks, |_| true,
                |v| Some(v) != banned, DisjointOptions::default());
            let reused = vertex_disjoint_paths_into(&g, &sources, &sinks, |_| true,
                |v| Some(v) != banned, DisjointOptions::default(), &mut fw);
            prop_assert_eq!(fresh.count, reused.count);
            prop_assert_eq!(&fresh.paths, &reused.paths);
        }
    }

    #[test]
    fn hopcroft_karp_into_matches_allocating(seed in 0u64..500) {
        let mut r = gen::rng(seed);
        use rand::Rng;
        let mut ws = MatchingWorkspace::new();
        for _ in 0..3 {
            let left = r.random_range(1..12usize);
            let right = r.random_range(1..12usize);
            let deg = r.random_range(0..=right.min(5));
            let adj = gen::random_bipartite_adjacency(&mut r, left, right, deg);
            let m = hopcroft_karp(&adj, right);
            let size = hopcroft_karp_into(&adj, right, &mut ws);
            prop_assert_eq!(m.size, size);
            prop_assert_eq!(&m.pair_left, &ws.pair_left);
            prop_assert_eq!(&m.pair_right, &ws.pair_right);
        }
    }

    #[test]
    fn min_cut_disconnects(g in dag_strategy()) {
        let n = g.num_vertices();
        let sources = [VertexId(0)];
        let sinks = [VertexId::from(n - 1)];
        let cut = ft_graph::menger::min_vertex_cut(&g, &sources, &sinks, |_| true);
        // removing the cut really disconnects source from sink
        let mask: std::collections::HashSet<_> = cut.iter().copied().collect();
        let b = ft_graph::traversal::bfs(
            &g,
            &sources,
            ft_graph::traversal::Direction::Forward,
            |_| true,
            |v| !mask.contains(&v),
        );
        prop_assert!(!b.reached(sinks[0]), "cut {:?} fails to disconnect", cut);
        // and the cut size matches Menger: max #internally-disjoint paths
        // (sources/sinks uncuttable here, so compare against flow where
        // only interior vertices are capacity-limited) — at minimum the
        // number of fully vertex-disjoint paths cannot exceed the cut size + 1
        let k = max_disjoint_paths(&g, &sources, &sinks);
        prop_assert!(k <= cut.len() as u32 + 1);
    }

    /// The lane-parallel reachability kernel must be the exact transpose
    /// of 64 scalar BFS runs: for every lane, membership under that
    /// lane's edge/vertex filter bits equals `bfs_into` under the same
    /// scalar filters — on every direction, with per-lane sources, and
    /// through a reused workspace.
    #[test]
    fn sliced_reach_matches_per_lane_bfs(c in dag_strategy(), seed in 0u64..1000) {
        use rand::Rng;
        let mut r = gen::rng(seed);
        let n = c.num_vertices();
        let m = c.num_edges();
        // random per-lane filters and sources, dense enough to differ
        let edge_words: Vec<u64> = (0..m).map(|_| r.random()).collect();
        let vertex_words: Vec<u64> = (0..n).map(|_| r.random()).collect();
        let s1 = VertexId::from(r.random_range(0..n));
        let s2 = VertexId::from(r.random_range(0..n));
        let sources = [(s1, r.random::<u64>()), (s2, r.random::<u64>())];
        let mut sws = SlicedWorkspace::new();
        let mut ws = TraversalWorkspace::new();
        for dir in [Direction::Forward, Direction::Backward, Direction::Undirected] {
            // stale-state run first: equivalence must survive reuse
            sliced_reach_into(&c, &[(s2, !0)], Direction::Forward, |_| !0, |_| !0, &mut sws);
            sliced_reach_into(
                &c, &sources, dir,
                |e| edge_words[e.index()],
                |v| vertex_words[v.index()],
                &mut sws,
            );
            for lane in 0..LANES {
                let srcs: Vec<VertexId> = sources.iter()
                    .filter(|&&(_, l)| (l >> lane) & 1 != 0)
                    .map(|&(s, _)| s)
                    .collect();
                bfs_into(
                    &c, &srcs, dir,
                    |e| (edge_words[e.index()] >> lane) & 1 != 0,
                    |v| (vertex_words[v.index()] >> lane) & 1 != 0,
                    &mut ws,
                );
                for u in 0..n {
                    let u = VertexId::from(u);
                    prop_assert_eq!(
                        sws.reached(u, lane), ws.reached(u),
                        "{:?} lane {} vertex {:?}", dir, lane, u
                    );
                }
            }
        }
    }

    /// Same transpose equivalence on the shape the Monte Carlo pipeline
    /// actually runs: staged networks under per-lane idle masks, sources
    /// at the input terminals.
    #[test]
    fn sliced_reach_matches_per_lane_bfs_on_staged_networks(
        seed in 0u64..1000,
        widths in proptest::collection::vec(1usize..6, 2..6),
    ) {
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
                }
            }
        }
        b.set_inputs(ranges[0].clone().map(VertexId).collect());
        b.set_outputs(ranges[ranges.len() - 1].clone().map(VertexId).collect());
        let net = b.finish();
        let csr = net.csr();
        let n = csr.num_vertices();
        // per-lane idle masks (biased alive, like repair masks at small ε)
        let idle_words: Vec<u64> = (0..n).map(|_| r.random::<u64>() | r.random::<u64>()).collect();
        let sources: Vec<(VertexId, u64)> =
            net.inputs().iter().map(|&s| (s, r.random())).collect();
        let mut sws = SlicedWorkspace::new();
        let mut ws = TraversalWorkspace::new();
        sliced_reach_into(
            csr, &sources, Direction::Forward,
            |_| !0,
            |v| idle_words[v.index()],
            &mut sws,
        );
        for lane in 0..LANES {
            let srcs: Vec<VertexId> = sources.iter()
                .filter(|&&(_, l)| (l >> lane) & 1 != 0)
                .map(|&(s, _)| s)
                .collect();
            bfs_into(
                csr, &srcs, Direction::Forward,
                |_| true,
                |v| (idle_words[v.index()] >> lane) & 1 != 0,
                &mut ws,
            );
            for &out in net.outputs() {
                prop_assert_eq!(
                    sws.reached(out, lane), ws.reached(out),
                    "lane {} output {:?}", lane, out
                );
            }
        }
    }

    /// Forward sweeps over an ascending-id graph take the one-pass
    /// walk; relabelling the same DAG by a random permutation forces
    /// the worklist. Both must equal per-lane `bfs_into` (through
    /// reused workspaces) and decide the same number of lane bits.
    #[test]
    fn sliced_worklist_and_ascending_pass_agree_on_relabelled_dags(
        c in dag_strategy(),
        seed in 0u64..1000,
    ) {
        use rand::Rng;
        prop_assert!(c.ids_ascend());
        let (p, perm, old) = relabelled(&c, seed);
        let mut r = gen::rng(seed ^ 0xA5C3);
        let n = c.num_vertices();
        let edge_words: Vec<u64> = (0..c.num_edges()).map(|_| r.random()).collect();
        let vertex_words: Vec<u64> = (0..n).map(|_| r.random()).collect();
        let mut moved_words = vec![0; n];
        for (&pu, &w) in perm.iter().zip(&vertex_words) {
            moved_words[pu.index()] = w;
        }
        let s1 = VertexId::from(r.random_range(0..n));
        let s2 = VertexId::from(r.random_range(0..n));
        let sources = [(s1, r.random::<u64>()), (s2, r.random::<u64>())];
        let moved_sources = sources.map(|(s, lanes)| (perm[s.index()], lanes));
        let (mut pass, mut work) = (SlicedWorkspace::new(), SlicedWorkspace::new());
        // stale-state runs first: equivalence must survive reuse
        sliced_reach_into(&c, &[(s2, !0)], Direction::Forward, |_| !0, |_| !0, &mut pass);
        sliced_reach_into(&p, &[(perm[s2.index()], !0)], Direction::Forward,
                          |_| !0, |_| !0, &mut work);
        pass.reset_stats();
        work.reset_stats();
        sliced_reach_into(&c, &sources, Direction::Forward,
                          |e| edge_words[e.index()], |v| vertex_words[v.index()], &mut pass);
        sliced_reach_into(&p, &moved_sources, Direction::Forward,
                          |e| edge_words[old[e.index()].index()], |v| moved_words[v.index()],
                          &mut work);
        prop_assert_eq!(
            pass.stats().sliced_lane_decisions,
            work.stats().sliced_lane_decisions
        );
        let mut ws = TraversalWorkspace::new();
        for lane in 0..LANES {
            let srcs: Vec<VertexId> = sources.iter()
                .filter(|&&(_, l)| (l >> lane) & 1 != 0)
                .map(|&(s, _)| s)
                .collect();
            bfs_into(
                &c, &srcs, Direction::Forward,
                |e| (edge_words[e.index()] >> lane) & 1 != 0,
                |v| (vertex_words[v.index()] >> lane) & 1 != 0,
                &mut ws,
            );
            for (u, &pu) in perm.iter().enumerate() {
                let want = ws.reached(VertexId::from(u));
                prop_assert_eq!(pass.reached(VertexId::from(u), lane), want,
                                "ascending pass, lane {} vertex {}", lane, u);
                prop_assert_eq!(work.reached(pu, lane), want,
                                "worklist, lane {} vertex {}", lane, u);
            }
        }
    }

    /// On a unit-staged network swept from stage 0 the worklist pops
    /// each reached vertex exactly once, so both paths report the same
    /// [`KernelStats`] — visits, lane bits and resets alike — and the
    /// same words.
    #[test]
    fn sliced_kernel_stats_agree_between_paths_on_unit_staged_networks(
        seed in 0u64..1000,
        widths in proptest::collection::vec(1usize..6, 2..7),
    ) {
        use rand::Rng;
        let (net, _) = random_unit_staged(seed, &widths, 1.0);
        let c = net.csr();
        prop_assert!(c.ids_ascend());
        let (p, perm, _) = relabelled(c, seed);
        let mut r = gen::rng(seed ^ 0x3C5A);
        let n = c.num_vertices();
        // biased alive, like repair masks at small ε
        let alive: Vec<u64> = (0..n).map(|_| r.random::<u64>() | r.random::<u64>()).collect();
        let mut moved_alive = vec![0; n];
        for (&pu, &w) in perm.iter().zip(&alive) {
            moved_alive[pu.index()] = w;
        }
        let sources: Vec<(VertexId, u64)> =
            net.inputs().iter().map(|&s| (s, r.random())).collect();
        let moved_sources: Vec<(VertexId, u64)> =
            sources.iter().map(|&(s, lanes)| (perm[s.index()], lanes)).collect();
        let (mut pass, mut work) = (SlicedWorkspace::new(), SlicedWorkspace::new());
        sliced_reach_into(c, &sources, Direction::Forward,
                          |_| !0, |v| alive[v.index()], &mut pass);
        sliced_reach_into(&p, &moved_sources, Direction::Forward,
                          |_| !0, |v| moved_alive[v.index()], &mut work);
        prop_assert_eq!(pass.stats(), work.stats());
        for (u, &pu) in perm.iter().enumerate() {
            prop_assert_eq!(pass.reached_lanes(VertexId::from(u)), work.reached_lanes(pu));
        }
    }

    /// The bidirectional stage-aware search must be *bit-identical* to a
    /// full forward BFS: same reachability verdict and the same path
    /// (same vertices, same tie-breaks) for every terminal pair, under
    /// arbitrary idle masks. The simulation engine's pinned event
    /// fingerprints rely on this equivalence.
    #[test]
    fn bibfs_matches_forward_bfs_exactly(
        seed in 0u64..1000,
        widths in proptest::collection::vec(1usize..6, 2..6),
    ) {
        let (net, idle) = random_unit_staged(seed, &widths, 0.8);
        let csr = net.csr();
        let stage_of = net.stage_table();
        let (mut reference, mut fwd, mut bwd) = (
            TraversalWorkspace::new(),
            TraversalWorkspace::new(),
            TraversalWorkspace::new(),
        );
        for &src in net.inputs() {
            for &dst in net.outputs() {
                if !idle[src.index()] || !idle[dst.index()] {
                    continue;
                }
                bfs_into(csr, &[src], Direction::Forward, |_| true,
                         |v| idle[v.index()], &mut reference);
                let want = reference.path_to(csr, dst);
                // exactness must hold under EVERY backward budget
                for budget in [0u32, 1, 2, u32::MAX] {
                    let got = bibfs_into(csr, src, dst, stage_of, budget,
                                         |v| idle[v.index()], &mut fwd, &mut bwd);
                    prop_assert_eq!(got, want.is_some());
                    if got {
                        prop_assert_eq!(fwd.path_to(csr, dst), want.clone());
                    }
                }
            }
        }
    }

    /// The router's depth-first descent returns the verdict and the
    /// path of a full forward BFS for every (input, output) pair under
    /// arbitrary idle masks — bare, and pruned by the output-reach
    /// table as `CircuitRouter::connect` runs it — and scans no vertex
    /// twice: pops ≤ vertices touched ≤ vertices.
    #[test]
    fn route_descent_matches_forward_bfs_and_scans_each_vertex_once(
        seed in 0u64..1000,
        widths in proptest::collection::vec(1usize..6, 2..7),
        idle_pct in 30u32..101,
    ) {
        let (net, idle) = random_unit_staged(seed, &widths, f64::from(idle_pct) / 100.0);
        let (csr, stage_of, reach) = (net.csr(), net.stage_table(), net.output_reach());
        let n = net.graph().num_vertices();
        let (mut reference, mut ws) = (TraversalWorkspace::new(), RouteWorkspace::new());
        let touched = |ws: &RouteWorkspace| net.graph().vertices().filter(|&v| ws.reached(v)).count();
        let mut path = Vec::new();
        for &src in net.inputs() {
            bfs_into(csr, &[src], Direction::Forward, |_| true,
                     |v| idle[v.index()], &mut reference);
            for &dst in net.outputs() {
                let want = reference.path_to(csr, dst);
                let col = reach.column(dst);
                let before = ws.stats().bibfs_pops;
                // bare
                let got = route_into(csr, src, dst, stage_of, |v| idle[v.index()], &mut ws, &mut path);
                prop_assert_eq!(got.then(|| path.clone()), want.clone());
                let bare = ws.stats().bibfs_pops - before;
                prop_assert!(bare as usize <= touched(&ws) && touched(&ws) <= n);
                // pruned by the reach table
                let got = route_into(csr, src, dst, stage_of,
                                     |v| idle[v.index()] && reach.reaches(v, col), &mut ws, &mut path);
                prop_assert_eq!(got.then(|| path.clone()), want);
                let pruned = ws.stats().bibfs_pops - before - bare;
                prop_assert!(pruned as usize <= touched(&ws) && pruned <= bare);
            }
        }
    }

    /// The output-reach table says `v` reaches an output exactly when an
    /// unfiltered backward BFS from that output reaches `v`.
    #[test]
    fn output_reach_equals_backward_cones(
        seed in 0u64..1000,
        widths in proptest::collection::vec(1usize..6, 2..7),
    ) {
        let (net, _) = random_unit_staged(seed, &widths, 1.0);
        let reach = net.output_reach();
        let mut ws = TraversalWorkspace::new();
        for &out in net.outputs() {
            bfs_into(net.csr(), &[out], Direction::Backward, |_| true, |_| true, &mut ws);
            let col = reach.column(out);
            for v in net.graph().vertices() {
                prop_assert_eq!(reach.reaches(v, col), ws.reached(v), "{:?} → {:?}", v, out);
            }
        }
    }
}
