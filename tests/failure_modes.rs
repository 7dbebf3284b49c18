//! Failure-mode integration tests: the nonblocking game invariant,
//! asymmetric failure models (open-only / closed-only), and graceful
//! behaviour at extreme failure rates.

use fault_tolerant_switching::core::certify::certify_with_budget;
use fault_tolerant_switching::core::network::FtNetwork;
use fault_tolerant_switching::core::params::Params;
use fault_tolerant_switching::core::repair::Survivor;
use fault_tolerant_switching::core::routing;
use fault_tolerant_switching::failure::contraction::find_shorted_pair;
use fault_tolerant_switching::failure::{FailureInstance, FailureModel};
use fault_tolerant_switching::graph::gen::rng;
use fault_tolerant_switching::graph::Digraph;
use fault_tolerant_switching::networks::{CircuitRouter, SessionId};
use rand::Rng;

/// Plays a random connect/disconnect game; after EVERY step asserts
/// the strict-nonblocking invariant: every idle (input, output) pair
/// admits an idle path (tested by an uncommitted probe connect).
fn nonblocking_game(ftn: &FtNetwork, mut router: CircuitRouter<'_>, steps: usize, seed: u64) {
    let n = ftn.n();
    let mut r = rng(seed);
    let mut live: Vec<SessionId> = Vec::new();
    for step in 0..steps {
        if live.is_empty() || r.random_bool(0.6) {
            let idle_in: Vec<usize> = (0..n).filter(|&j| router.is_idle(ftn.input(j))).collect();
            let idle_out: Vec<usize> = (0..n).filter(|&j| router.is_idle(ftn.output(j))).collect();
            if !idle_in.is_empty() && !idle_out.is_empty() {
                let i = idle_in[r.random_range(0..idle_in.len())];
                let o = idle_out[r.random_range(0..idle_out.len())];
                let id = router
                    .connect(ftn.input(i), ftn.output(o))
                    .unwrap_or_else(|e| panic!("blocked at step {step}: {e}"));
                live.push(id);
            }
        } else {
            let k = r.random_range(0..live.len());
            router.disconnect(live.swap_remove(k));
        }
        // the invariant: every idle pair connectable right now
        for i in 0..n {
            if !router.is_idle(ftn.input(i)) {
                continue;
            }
            for o in 0..n {
                if !router.is_idle(ftn.output(o)) {
                    continue;
                }
                let id = router
                    .connect(ftn.input(i), ftn.output(o))
                    .unwrap_or_else(|e| {
                        panic!("idle pair ({i},{o}) not connectable at step {step}: {e}")
                    });
                router.disconnect(id); // probe only
            }
        }
    }
}

#[test]
fn nonblocking_game_fault_free() {
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let router = CircuitRouter::new(ftn.net());
    nonblocking_game(&ftn, router, 120, 0xAA);
}

#[test]
fn nonblocking_game_on_certified_survivor() {
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let model = FailureModel::symmetric(1e-3);
    let mut r = rng(0xBB);
    let mut played = 0;
    for _ in 0..12 {
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        if !certify_with_budget(&ftn, &inst, 0.1).implies_nonblocking() {
            continue;
        }
        let survivor = Survivor::new(&ftn, &inst);
        let router = routing::survivor_router(&survivor);
        nonblocking_game(&ftn, router, 60, 0xCC);
        played += 1;
    }
    assert!(played >= 8, "too few certified instances: {played}/12");
}

#[test]
fn open_only_failures_never_short() {
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let model = FailureModel::new(0.3, 0.0); // open failures only
    let mut r = rng(0xDD);
    let mut terminals = ftn.net().inputs().to_vec();
    terminals.extend_from_slice(ftn.net().outputs());
    for _ in 0..50 {
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        assert!(find_shorted_pair(ftn.net().graph(), &inst, &terminals).is_none());
        let cert = certify_with_budget(&ftn, &inst, 1.0);
        assert!(cert.terminals_distinct);
    }
}

#[test]
fn closed_only_failures_short_at_high_rate_and_are_detected() {
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let model = FailureModel::new(0.0, 0.45);
    let mut r = rng(0xEE);
    let mut terminals = ftn.net().inputs().to_vec();
    terminals.extend_from_slice(ftn.net().outputs());
    let mut shorted = 0;
    for _ in 0..30 {
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        let pair = find_shorted_pair(ftn.net().graph(), &inst, &terminals);
        let cert = certify_with_budget(&ftn, &inst, 1.0);
        assert_eq!(pair.is_none(), cert.terminals_distinct);
        if pair.is_some() {
            shorted += 1;
        }
    }
    assert!(shorted >= 25, "only {shorted}/30 shorted at eps2 = 0.45");
}

#[test]
fn open_failures_dominate_routing_loss_closed_dominate_shorts() {
    // same total failure mass, split differently: open-only vs
    // closed-only; both kill routing similarly (repair discards both)
    // but only closed-only produces shorts
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let mut r = rng(0xFF);
    let mut terminals = ftn.net().inputs().to_vec();
    terminals.extend_from_slice(ftn.net().outputs());
    let mut shorts = [0usize; 2];
    for (k, model) in [FailureModel::new(0.2, 0.0), FailureModel::new(0.0, 0.2)]
        .into_iter()
        .enumerate()
    {
        for _ in 0..30 {
            let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
            if find_shorted_pair(ftn.net().graph(), &inst, &terminals).is_some() {
                shorts[k] += 1;
            }
        }
    }
    assert_eq!(shorts[0], 0, "open failures shorted terminals");
    assert!(shorts[1] > 0, "closed failures never shorted at 0.2");
}

#[test]
fn extreme_rates_degrade_gracefully() {
    // ε near the model boundary: nothing panics, certificates fail,
    // stats stay consistent
    let ftn = FtNetwork::build(Params::reduced(1, 8, 4, 1.0));
    let model = FailureModel::symmetric(0.49);
    let mut r = rng(0x99);
    let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
    let cert = certify_with_budget(&ftn, &inst, 0.5);
    assert!(!cert.implies_nonblocking());
    let survivor = Survivor::new(&ftn, &inst);
    assert!(survivor.invariant_holds(&inst));
    let mut router = routing::survivor_router(&survivor);
    let (stats, _) = routing::route_permutation(&mut router, &ftn, &[0, 1, 2, 3]);
    assert_eq!(stats.attempts, 4);
    assert_eq!(stats.connected + stats.blocked + stats.unavailable, 4);
}

#[test]
fn zero_rate_is_identity() {
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let model = FailureModel::perfect();
    let mut r = rng(0x11);
    let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
    let (open, closed, normal) = inst.counts();
    assert_eq!((open, closed), (0, 0));
    assert_eq!(normal, ftn.net().num_edges());
    let cert = certify_with_budget(&ftn, &inst, 0.0);
    assert!(cert.implies_nonblocking());
    assert_eq!(cert.discard_fraction, 0.0);
}
