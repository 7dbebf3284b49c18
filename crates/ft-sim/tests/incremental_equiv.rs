//! Incremental-vs-scratch equivalence under arbitrary interleavings.
//!
//! The PR-5 hot-loop overhaul replaced the per-event from-scratch
//! recomputation (full repair mask, whole-table session rescan, idle
//! and occupancy rebuilds) with O(1)/O(path) deltas: the
//! [`ft_failure::AliveTracker`] counts failed incident switches per
//! vertex, and the router's vertex → session index kills only the
//! crossing circuit. These tests pin the contract that made that legal:
//! after **any** interleaving of connect / disconnect / fault / repair,
//! on **every** fabric variant, the incremental state is bit-identical
//! to the scratch rebuild —
//!
//! * the alive mask of [`ft_sim::SwitchingCore`] equals
//!   `Fabric::alive_mask` of its cumulative instance;
//! * the core's router, driven by `SwitchingCore::{fail, repair}` — the
//!   very code `ftsim` and `ftserve` run on a fault — is observably
//!   identical (aliveness, idleness, session paths, killed ids *and
//!   their order*, slot reuse) to one driven by the wholesale
//!   `set_alive_mask` recompute;
//! * every stage holds exactly one busy vertex per live circuit — the
//!   invariant that lets the engine keep one occupancy count instead of
//!   one per stage.

use ft_failure::SwitchState;
use ft_graph::gen::rng;
use ft_graph::{Digraph, EdgeId};
use ft_networks::{CircuitRouter, SessionId};
use ft_sim::{CoreBuffers, Fabric, FabricSpec, SwitchingCore};
use proptest::prelude::*;
use rand::Rng;
use std::sync::OnceLock;

/// Every fabric variant, built once (𝒩 construction is expensive).
fn fabrics() -> &'static Vec<Fabric> {
    static FABRICS: OnceLock<Vec<Fabric>> = OnceLock::new();
    FABRICS.get_or_init(|| {
        vec![
            FabricSpec::Crossbar(4).build(),
            FabricSpec::ClosStrict(2, 3).build(),
            FabricSpec::ClosRearrangeable(2, 2).build(),
            FabricSpec::Benes(3).build(),
            FabricSpec::Multibutterfly(3, 2, 7).build(),
            FabricSpec::Ftn(1, 8, 4, 1.0).build(),
        ]
    })
}

/// Recounts per-stage occupancy from the live paths.
fn recount_busy(router: &CircuitRouter<'_>, live: &[SessionId], num_stages: usize) -> Vec<u64> {
    let net = router.network();
    let tab = net.stage_table();
    let mut busy = vec![0u64; num_stages];
    for &id in live {
        for &v in router.session_path(id).expect("live session has a path") {
            busy[tab[v.index()] as usize] += 1;
        }
    }
    busy
}

fn run_interleaving(fabric: &Fabric, seed: u64, steps: usize) {
    let net = fabric.net();
    let m = net.num_edges();
    let n = fabric.terminals();
    let num_stages = net.num_stages();
    let faults_ok = fabric.spec().fault_support().is_ok();

    // System under test: the switching core's incremental deltas.
    // Reference: wholesale mask.
    let mut core = SwitchingCore::new(fabric, CoreBuffers::default());
    let mut refr = CircuitRouter::new(net);

    let mut r = rng(seed);
    let mut live: Vec<SessionId> = Vec::new();
    let mut failed: Vec<EdgeId> = Vec::new();

    for step in 0..steps {
        match r.random_range(0..100u32) {
            0..=44 => {
                // connect a random pair; both routers must agree
                let (src, dst) = (r.random_range(0..n), r.random_range(0..n));
                let a = core.admit(src, dst);
                let b = refr.connect(net.inputs()[src], net.outputs()[dst]);
                prop_assert_eq!(&a, &b, "routing decisions diverged");
                live.extend(a.ok());
            }
            45..=69 => {
                // disconnect a random live session
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(r.random_range(0..live.len()));
                prop_assert!(core.release(id));
                prop_assert!(refr.disconnect(id));
            }
            70..=84 => {
                // fail a random healthy switch
                if !faults_ok || failed.len() == m {
                    continue;
                }
                let e = loop {
                    let e = EdgeId::from(r.random_range(0..m));
                    if core.instance().is_normal(e) {
                        break e;
                    }
                };
                let state = if r.random_bool(0.5) {
                    SwitchState::Open
                } else {
                    SwitchState::Closed
                };
                failed.push(e);
                let killed_inc = core
                    .fail(e, state)
                    .expect("the switch was healthy")
                    .to_vec();
                prop_assert!(core.fail(e, state).is_none(), "double fault");
                // reference: wholesale recompute
                let killed_ref = refr.set_alive_mask(&fabric.alive_mask(core.instance()));
                prop_assert_eq!(&killed_inc, &killed_ref, "killed ids or order diverged");
                live.retain(|id| !killed_inc.contains(id));
            }
            _ => {
                // repair a random failed switch
                if failed.is_empty() {
                    continue;
                }
                let e = failed.swap_remove(r.random_range(0..failed.len()));
                prop_assert!(core.repair(e));
                prop_assert!(!core.repair(e), "double repair");
                let killed_ref = refr.set_alive_mask(&fabric.alive_mask(core.instance()));
                prop_assert!(killed_ref.is_empty(), "repair can only grow the alive set");
            }
        }

        // ---- full state comparison, every step ----
        let scratch_alive = fabric.alive_mask(core.instance());
        prop_assert_eq!(core.failed(), failed.len());
        prop_assert_eq!(
            core.alive(),
            &scratch_alive[..],
            "tracker mask diverged at step {}",
            step
        );
        let inc = core.router();
        for v in net.graph().vertices() {
            prop_assert_eq!(inc.is_alive(v), refr.is_alive(v));
            prop_assert_eq!(inc.is_idle(v), refr.is_idle(v));
            prop_assert_eq!(inc.is_alive(v), scratch_alive[v.index()]);
            prop_assert_eq!(inc.session_through(v), refr.session_through(v));
        }
        prop_assert_eq!(inc.active_sessions(), refr.active_sessions());
        prop_assert_eq!(inc.session_slots(), refr.session_slots());
        for &id in &live {
            prop_assert_eq!(inc.session_path(id), refr.session_path(id));
        }
        prop_assert_eq!(
            recount_busy(inc, &live, num_stages),
            vec![live.len() as u64; num_stages],
            "a stage's occupancy differs from the live-circuit count at step {}",
            step
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary interleavings on every fabric variant: incremental
    /// alive / idle / occupancy / session state must equal the
    /// from-scratch rebuild at every step.
    #[test]
    fn incremental_state_equals_scratch_rebuild(
        seed in 0u64..100_000,
        steps in 40usize..120,
    ) {
        for fabric in fabrics() {
            run_interleaving(fabric, seed, steps);
        }
    }
}
