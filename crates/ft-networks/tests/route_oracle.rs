//! Exactness of the route search on the paper's 𝒩 itself: for every
//! (input, output) pair, under seeded busy sets combined with a §4
//! repair mask, `bibfs_into` returns the verdict and the path of a full
//! forward `bfs_into` — for every backward budget — and
//! `CircuitRouter::connect` commits that same path.

use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_core::repair::Survivor;
use ft_failure::{FailureInstance, FailureModel};
use ft_graph::gen::rng;
use ft_graph::traversal::{bfs_into, bibfs_into, Direction};
use ft_graph::{Digraph, TraversalWorkspace};
use ft_networks::CircuitRouter;
use rand::Rng;

fn check_all_pairs(ftn: &FtNetwork, seed: u64) {
    let net = ftn.net();
    let (csr, tab, terminal) = (net.csr(), net.stage_table(), net.terminal_mask());
    let mut r = rng(seed);
    let (mut reference, mut fwd, mut bwd) = (
        TraversalWorkspace::new(),
        TraversalWorkspace::new(),
        TraversalWorkspace::new(),
    );
    let (mut found, mut blocked) = (0u32, 0u32);
    for eps in [0.0, 0.02] {
        let inst = FailureInstance::sample(&FailureModel::symmetric(eps), &mut r, net.num_edges());
        let alive = Survivor::new(ftn, &inst).routable_alive();
        for busy_share in [0.0, 0.3, 0.7] {
            // usable = alive and not busy; terminals are never busy
            let usable: Vec<bool> = (0..net.num_vertices())
                .map(|i| alive[i] && (terminal[i] || !r.random_bool(busy_share)))
                .collect();
            let ok = |v: ft_graph::VertexId| usable[v.index()];
            let mut router = CircuitRouter::with_alive_mask(net, usable.clone());
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
                    let case = format!("seed {seed} eps {eps} busy {busy_share} {src:?}→{dst:?}");
                    for budget in [0, 1, 3, u32::MAX] {
                        let got = bibfs_into(csr, src, dst, tab, budget, ok, &mut fwd, &mut bwd);
                        assert_eq!(got, want.is_some(), "{case} budget {budget}");
                        if got {
                            assert_eq!(fwd.path_to(csr, dst), want, "{case} budget {budget}");
                        }
                    }
                    match (router.connect(src, dst), &want) {
                        (Ok(id), Some(path)) => {
                            assert_eq!(router.session_path(id), Some(&path[..]), "{case}");
                            assert!(router.disconnect(id));
                            found += 1;
                        }
                        (Err(_), None) => blocked += 1,
                        (got, _) => panic!("{case}: router said {got:?}, oracle {want:?}"),
                    }
                }
            }
        }
    }
    // the sweep must see both verdicts, or it pins nothing
    assert!(found > 0 && blocked > 0, "found {found} blocked {blocked}");
}

#[test]
fn ftn_nu1_matches_full_forward_bfs() {
    check_all_pairs(&FtNetwork::build(Params::reduced(1, 8, 4, 1.0)), 1);
}

#[test]
fn ftn_nu2_matches_full_forward_bfs() {
    check_all_pairs(&FtNetwork::build(Params::reduced(2, 8, 8, 1.0)), 2);
}
