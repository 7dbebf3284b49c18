//! Exactness and cost of the route search on the paper's 𝒩 itself (two
//! reduced profiles and the paper's own ν = 1 constants) and on a fabric
//! with more than 64 outputs: for every (input, output) pair, under
//! seeded busy sets combined with a §4 repair mask,
//!
//! * `route_into` — bare, and pruned by the network's output-reach table
//!   as the router runs it — and the flood `bibfs_into`, for every
//!   backward budget, return the verdict and the path of a full forward
//!   `bfs_into`, and `CircuitRouter::connect` commits that same path;
//! * on an idle healthy fabric the pruned descent scans exactly one
//!   vertex per path edge; per (ε, busy share) cell in which most pairs
//!   route it scans no more vertices in total than the flood it
//!   replaced, and in a mostly-blocked cell at most two per search more.
//!
//! `cargo test -p ft-networks --test route_oracle -- --nocapture` prints
//! the pops-per-search table (mean, max per cell and verdict).

use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_core::repair::Survivor;
use ft_failure::{FailureInstance, FailureModel};
use ft_graph::gen::rng;
use ft_graph::traversal::{bfs_into, bibfs_into, route_into, Direction};
use ft_graph::{Digraph, KernelStats, RouteWorkspace, StagedNetwork, TraversalWorkspace, VertexId};
use ft_networks::benes::Benes;
use ft_networks::CircuitRouter;
use rand::Rng;

/// Pops of the searches of one verdict within a cell: count, sum, max.
#[derive(Clone, Copy, Default)]
struct Pops {
    n: u64,
    sum: u64,
    max: u64,
}

impl Pops {
    fn add(&mut self, pops: u64) {
        self.n += 1;
        self.sum += pops;
        self.max = self.max.max(pops);
    }
}

impl std::fmt::Display for Pops {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mean = self.sum as f64 / self.n.max(1) as f64;
        write!(f, "{mean:.1}, {}", self.max)
    }
}

/// Runs `search` and returns its verdict with the pops it cost `ws`.
fn counted<W>(
    ws: &mut W,
    stats: fn(&W) -> KernelStats,
    search: impl FnOnce(&mut W) -> bool,
) -> (bool, u64) {
    let before = stats(ws).bibfs_pops;
    let got = search(ws);
    (got, stats(ws).bibfs_pops - before)
}

/// The sweep. `repair` is the §4 mask of a failure instance on `net`;
/// `budgets` are the backward budgets the flood is run under (its pops
/// are taken from the last one, which must be the uncapped search the
/// router used to run). Returns how many pairs were found and blocked.
fn check_all_pairs(
    label: &str,
    net: &StagedNetwork,
    repair: impl Fn(&FailureInstance) -> Vec<bool>,
    budgets: &[u32],
    seed: u64,
) -> (u64, u64) {
    assert_eq!(budgets.last(), Some(&u32::MAX));
    let (csr, tab, terminal) = (net.csr(), net.stage_table(), net.terminal_mask());
    let reach = net.output_reach();
    let mut r = rng(seed);
    let (mut reference, mut fwd, mut bwd) = (
        TraversalWorkspace::new(),
        TraversalWorkspace::new(),
        TraversalWorkspace::new(),
    );
    let (mut found, mut blocked) = (0u64, 0u64);
    let (mut descent_ws, mut path) = (RouteWorkspace::new(), Vec::new());
    for eps in [0.0, 0.02] {
        let inst = FailureInstance::sample(&FailureModel::symmetric(eps), &mut r, net.num_edges());
        let alive = repair(&inst);
        for busy_share in [0.0, 0.3, 0.5, 0.7, 0.85] {
            // usable = alive and not busy; terminals are never busy
            let usable: Vec<bool> = (0..net.num_vertices())
                .map(|i| alive[i] && (terminal[i] || !r.random_bool(busy_share)))
                .collect();
            let ok = |v: VertexId| usable[v.index()];
            let mut router = CircuitRouter::with_alive_mask(net, usable.clone());
            // [found, blocked] pops of the flood and of the pruned descent
            let (mut flood, mut descent) = ([Pops::default(); 2], [Pops::default(); 2]);
            for &src in net.inputs() {
                bfs_into(
                    csr,
                    &[src],
                    Direction::Forward,
                    |_| true,
                    ok,
                    &mut reference,
                );
                for &dst in net.outputs() {
                    let want = reference.path_to(csr, dst);
                    let verdict = usize::from(want.is_none());
                    let case = format!("{label} eps {eps} busy {busy_share} {src:?}→{dst:?}");

                    let mut flood_pops = 0;
                    for &budget in budgets {
                        bwd.reset_stats();
                        let (got, p) = counted(&mut fwd, TraversalWorkspace::stats, |fwd| {
                            bibfs_into(csr, src, dst, tab, budget, ok, fwd, &mut bwd)
                        });
                        assert_eq!(got, want.is_some(), "{case} budget {budget}");
                        if got {
                            assert_eq!(fwd.path_to(csr, dst), want, "{case} budget {budget}");
                        }
                        flood_pops = p + bwd.stats().bibfs_pops;
                    }
                    flood[verdict].add(flood_pops);

                    let (got, bare) = counted(&mut descent_ws, RouteWorkspace::stats, |ws| {
                        route_into(csr, src, dst, tab, ok, ws, &mut path)
                    });
                    assert_eq!(got.then(|| path.clone()), want, "{case} descent");
                    let col = reach.column(dst);
                    let (got, pruned) = counted(&mut descent_ws, RouteWorkspace::stats, |ws| {
                        let ok = |v| ok(v) && reach.reaches(v, col);
                        route_into(csr, src, dst, tab, ok, ws, &mut path)
                    });
                    assert_eq!(got.then(|| path.clone()), want, "{case} pruned descent");
                    assert!(
                        pruned <= bare,
                        "{case}: pruning cost pops, {bare} → {pruned}"
                    );
                    descent[verdict].add(pruned);

                    let before = router.kernel_stats().bibfs_pops;
                    match (router.connect(src, dst), &want) {
                        (Ok(id), Some(path)) => {
                            assert_eq!(router.session_path(id), Some(&path[..]), "{case}");
                            assert!(router.disconnect(id));
                            found += 1;
                        }
                        (Err(_), None) => blocked += 1,
                        (got, _) => panic!("{case}: router said {got:?}, oracle {want:?}"),
                    }
                    let spent = router.kernel_stats().bibfs_pops - before;
                    assert_eq!(spent, pruned, "{case}: connect is the pruned descent");
                }
            }
            for (verdict, name) in ["found", "blocked"].into_iter().enumerate() {
                let (f, d) = (flood[verdict], descent[verdict]);
                if f.n > 0 {
                    println!(
                        "{label} | {eps} | {busy_share} | {name} | {} | {f} | {d}",
                        f.n
                    );
                }
            }
            // Where most pairs route, the descent never scans more than the
            // flood did. A blocked pair is the descent's worst case — it
            // must exhaust the source's side, where the flood also looks
            // from the target and stops as soon as either side dies — so a
            // mostly-blocked cell may cost it more, by at most two scanned
            // vertices per search (measured worst: 1.6, `benes 7`).
            let total = |p: [Pops; 2]| p[0].sum + p[1].sum;
            let slack = if flood[0].n >= flood[1].n {
                0
            } else {
                2 * (flood[0].n + flood[1].n)
            };
            assert!(
                total(descent) <= total(flood) + slack,
                "{label} eps {eps} busy {busy_share}: descent {} pops, flood {} + {slack}",
                total(descent),
                total(flood)
            );
            if eps == 0.0 && busy_share == 0.0 {
                // idle and healthy: one scanned vertex per path edge
                let edges = net.num_stages() as u64 - 1;
                assert_eq!(
                    (descent[0].sum, descent[0].max),
                    (descent[0].n * edges, edges)
                );
            }
        }
    }
    (found, blocked)
}

fn check_ftn(label: &str, params: Params, seed: u64) -> (u64, u64) {
    let ftn = FtNetwork::build(params);
    let repair = |inst: &FailureInstance| Survivor::new(&ftn, inst).routable_alive();
    check_all_pairs(label, ftn.net(), repair, &[0, 1, 3, u32::MAX], seed)
}

// On the reduced profiles and on Beneš the sweep must see both verdicts,
// or it pins nothing.

#[test]
fn ftn_nu1_matches_full_forward_bfs() {
    let (found, blocked) = check_ftn("ftn 1 8 4 1.0", Params::reduced(1, 8, 4, 1.0), 1);
    assert!(found > 0 && blocked > 0, "found {found} blocked {blocked}");
}

#[test]
fn ftn_nu2_matches_full_forward_bfs() {
    let (found, blocked) = check_ftn("ftn 2 8 8 1.0", Params::reduced(2, 8, 8, 1.0), 2);
    assert!(found > 0 && blocked > 0, "found {found} blocked {blocked}");
}

/// The paper's own ν = 1 network (`ftn 1 64 10 34`, 360,448 switches):
/// at width 64 and degree 10 not one of the 16 pairs blocks, even with
/// 2 % of the switches failed and 85 % of the inner vertices busy.
#[test]
fn ftn_paper_exact_nu1_matches_full_forward_bfs() {
    let (found, blocked) = check_ftn("ftn 1 64 10 34", Params::paper_exact(1), 3);
    assert_eq!((found, blocked), (160, 0));
}

/// 128 outputs: two words per reach-table row. The §4 mask is the local
/// rule every fabric shares (terminal, or no incident switch failed).
#[test]
fn benes7_matches_full_forward_bfs_across_reach_words() {
    let net = Benes::new(7).net;
    assert_eq!(net.output_reach().words_per_vertex(), 2);
    let repair = |inst: &FailureInstance| -> Vec<bool> {
        let faulty = inst.faulty_vertices(net.graph());
        let terminal = net.terminal_mask();
        (0..faulty.len())
            .map(|i| terminal[i] || !faulty[i])
            .collect()
    };
    let (found, blocked) = check_all_pairs("benes 7", &net, repair, &[u32::MAX], 4);
    assert!(found > 0 && blocked > 0, "found {found} blocked {blocked}");
}
