//! End-to-end integration: build → fail → repair → certify → route,
//! across profiles, failure rates and seeds — the Theorem 2 pipeline.

use fault_tolerant_switching::core::certify::certify_with_budget;
use fault_tolerant_switching::core::network::FtNetwork;
use fault_tolerant_switching::core::params::Params;
use fault_tolerant_switching::core::repair::Survivor;
use fault_tolerant_switching::core::routing;
use fault_tolerant_switching::failure::{FailureInstance, FailureModel};
use fault_tolerant_switching::graph::gen::rng;
use fault_tolerant_switching::graph::menger::max_disjoint_paths;
use fault_tolerant_switching::graph::{Csr, Digraph};
use fault_tolerant_switching::networks::CircuitRouter;

fn profiles() -> Vec<Params> {
    vec![
        Params::reduced(1, 8, 8, 1.0),
        Params::reduced(2, 8, 8, 1.0),
        Params::reduced(1, 16, 10, 4.0),
    ]
}

#[test]
fn certified_survivors_route_every_permutation_request() {
    for p in profiles() {
        let ftn = FtNetwork::build(p);
        let model = FailureModel::symmetric(1e-3);
        let mut r = rng(0x5151);
        for trial in 0..15 {
            let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
            let cert = certify_with_budget(&ftn, &inst, 0.10);
            let survivor = Survivor::new(&ftn, &inst);
            assert!(survivor.invariant_holds(&inst));
            let mut router = routing::survivor_router(&survivor);
            let perm = routing::random_perm(&mut r, ftn.n());
            let (stats, sessions) = routing::route_permutation(&mut router, &ftn, &perm);
            if cert.implies_nonblocking() {
                assert!(
                    stats.all_connected(),
                    "certified survivor blocked (profile {p:?}, trial {trial}): {stats:?}"
                );
                assert!(routing::sessions_disjoint(&router, &sessions));
            }
        }
    }
}

#[test]
fn certified_survivors_never_block_under_churn() {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let model = FailureModel::symmetric(5e-4);
    let mut r = rng(0xC4C4);
    for _ in 0..10 {
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        if !certify_with_budget(&ftn, &inst, 0.10).implies_nonblocking() {
            continue;
        }
        let survivor = Survivor::new(&ftn, &inst);
        let mut router = routing::survivor_router(&survivor);
        let stats = routing::churn(&mut router, &ftn, 400, 0.6, &mut r);
        assert_eq!(stats.blocked, 0, "churn blocked on certified survivor");
    }
}

#[test]
fn survivor_remains_a_superconcentrator() {
    // an (ε, δ)-nonblocking network is an (ε, δ)-superconcentrator:
    // max vertex-disjoint input→output flow on the survivor stays n
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let model = FailureModel::symmetric(1e-3);
    let mut r = rng(0xABCD);
    let mut full_flow_count = 0;
    for _ in 0..10 {
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        let survivor = Survivor::new(&ftn, &inst);
        let alive = survivor.routable_alive();
        // materialise the survivor graph
        let g = ftn.net().graph();
        let kept = g
            .edges()
            .filter(|&(_, t, h)| alive[t.index()] && alive[h.index()]);
        let sg = Csr::from_edges(g.num_vertices(), kept.map(|(_, t, h)| (t, h)).collect());
        let flow = max_disjoint_paths(&sg, ftn.net().inputs(), ftn.net().outputs());
        if flow as usize == ftn.n() {
            full_flow_count += 1;
        }
    }
    assert!(
        full_flow_count >= 8,
        "superconcentrator property lost too often: {full_flow_count}/10"
    );
}

#[test]
fn fault_free_network_is_nonblocking_under_adversarial_churn() {
    // no failures: greedy routing must never block, whatever the
    // connect/disconnect sequence
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let mut r = rng(0xFEED);
    for round in 0..5 {
        let mut router = CircuitRouter::new(ftn.net());
        let stats = routing::churn(&mut router, &ftn, 1000, 0.7, &mut r);
        assert_eq!(stats.blocked, 0, "fault-free N blocked in round {round}");
    }
}

#[test]
fn wipeout_is_detected_not_masked() {
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let inst = FailureInstance::from_states(vec![
        fault_tolerant_switching::failure::SwitchState::Open;
        ftn.net().num_edges()
    ]);
    let cert = certify_with_budget(&ftn, &inst, 0.5);
    assert!(!cert.implies_nonblocking());
    let survivor = Survivor::new(&ftn, &inst);
    let mut router = routing::survivor_router(&survivor);
    let (stats, _) = routing::route_permutation(&mut router, &ftn, &[0, 1, 2, 3]);
    assert_eq!(stats.connected, 0);
}

#[test]
fn epsilon_monotonicity_of_routing_success() {
    // routing success must not increase with ε (statistically; wide
    // margins keep this deterministic at these sample sizes)
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let mut successes = Vec::new();
    for &eps in &[1e-4, 2e-2, 2e-1] {
        let model = FailureModel::symmetric(eps);
        let mut r = rng(0x1111);
        let mut ok = 0;
        for _ in 0..30 {
            let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
            let survivor = Survivor::new(&ftn, &inst);
            let mut router = routing::survivor_router(&survivor);
            let perm = routing::random_perm(&mut r, ftn.n());
            let (stats, _) = routing::route_permutation(&mut router, &ftn, &perm);
            if stats.all_connected() {
                ok += 1;
            }
        }
        successes.push(ok);
    }
    assert!(
        successes[0] >= successes[1] && successes[1] >= successes[2],
        "success not monotone in eps: {successes:?}"
    );
    assert_eq!(successes[0], 30, "eps=1e-4 should always route");
}

#[test]
fn deterministic_pipeline_for_fixed_seeds() {
    let p = Params::reduced(1, 8, 8, 1.0);
    let run = || {
        let ftn = FtNetwork::build(p);
        let model = FailureModel::symmetric(1e-3);
        let mut r = rng(7);
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        let survivor = Survivor::new(&ftn, &inst);
        let mut router = routing::survivor_router(&survivor);
        let perm = routing::random_perm(&mut r, ftn.n());
        let (stats, _) = routing::route_permutation(&mut router, &ftn, &perm);
        (survivor.discarded, stats.connected, stats.total_path_len)
    };
    assert_eq!(run(), run());
}
