//! No hot path reads a network's in-lists, so a `Csr` sorts them only
//! on their first read (`Csr::in_lists_built`). These tests pin that
//! on fresh fabrics: the Monte Carlo blocking estimate, a simulated
//! seed with i.i.d. faults and a router connect leave the in-lists
//! unbuilt, and a backward search builds them. A change that puts an
//! in-list read on one of these paths fails here, and has to say why
//! that path now pays the sort.

use ft_failure::FailureModel;
use ft_graph::traversal::{bfs_into, Direction};
use ft_graph::TraversalWorkspace;
use ft_networks::CircuitRouter;
use ft_sim::{pair_blocking_estimate, run_seed, Fabric, FabricSpec, SimConfig};

fn built(fabric: &Fabric) -> bool {
    fabric.net().csr().in_lists_built()
}

#[test]
fn the_blocking_estimate_leaves_the_in_lists_unbuilt() {
    for fabric in [
        FabricSpec::Benes(4).build(),
        FabricSpec::Ftn(1, 8, 4, 1.0).build(),
    ] {
        assert!(!built(&fabric), "{} before", fabric.label());
        let est = pair_blocking_estimate(&fabric, &FailureModel::symmetric(0.02), 256, 3);
        assert_eq!(est.trials, 256);
        assert!(!built(&fabric), "{} after", fabric.label());
    }
}

#[test]
fn a_seed_with_iid_faults_leaves_the_in_lists_unbuilt() {
    let fabric = FabricSpec::Ftn(1, 8, 4, 1.0).build();
    let cfg = SimConfig {
        arrival_rate: 5.0,
        fault_rate: 0.01,
        mttr: 6.0,
        duration: 40.0,
        ..SimConfig::default()
    };
    let out = run_seed(&fabric, &cfg, 7);
    assert!(out.metrics.faults > 0 && out.metrics.connected > 0);
    assert!(!built(&fabric));
}

#[test]
fn a_connect_leaves_the_in_lists_unbuilt_and_a_backward_search_builds_them() {
    let fabric = FabricSpec::Ftn(1, 8, 4, 1.0).build();
    let net = fabric.net();
    let mut router = CircuitRouter::new(net);
    router
        .connect(net.inputs()[0], net.outputs()[1])
        .expect("a fault-free fabric routes");
    assert!(!built(&fabric));

    let mut ws = TraversalWorkspace::new();
    let target = [net.outputs()[1]];
    bfs_into(
        net.graph(),
        &target,
        Direction::Backward,
        |_| true,
        |_| true,
        &mut ws,
    );
    assert!(built(&fabric));
    assert!(ws.reached(net.inputs()[0]));
}
