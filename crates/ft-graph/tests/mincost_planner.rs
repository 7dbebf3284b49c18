//! Differential test of the min-cost placement planner
//! (`ft_graph::mincost`) against the explicit successive-shortest-path
//! reference in `common`.
//!
//! The reference does what the planner's definition says: it builds the
//! vertex-split cost network of the idle fabric once per wave, augments
//! one unit per placement and freezes every arc of the placed path. The
//! planner searches the live idle mask instead and keeps its potentials
//! lazily. Over random unit-staged networks (parallel switches
//! included) under random idle masks, several waves of 1–8 placements
//! run through one reused planner workspace, and every placement must
//! agree: the same vertex path or the same `Blocked`, and the same
//! number of settled nodes.
//!
//! The reference also settles one kind of node the planner never sees:
//! the in-node of a vertex an earlier placement of the wave occupied,
//! still reachable through the snapshot's unfrozen switch arcs into it
//! but a dead end (its split arc is frozen). Such a node relaxes
//! nothing, so it cannot move a path; it is left out of the reference's
//! count.
//!
//! Only multi-placement waves exercise the potentials carried between
//! placements, and the storm workloads mostly kill one circuit per
//! wave, so this test is where a wrong potential update shows.
mod common;

use common::{place_and_freeze, random_unit_staged, snapshot, CostFlowNetwork, McfWorkspace};
use ft_graph::mincost::mincost_place_into;
use ft_graph::{gen, MincostWorkspace};
use proptest::prelude::*;
use rand::Rng;

/// How one placement request ended.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    Blocked,
    Placed(Vec<u32>),
}

/// What a run covered, so the coverage test can insist on every case.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    unavailable: u32,
    blocked: u32,
    placed: u32,
    /// Placements that followed an earlier one in the same wave.
    carried: u32,
    /// Reference pops of occupied in-nodes left out of its count.
    dead_ends: u64,
}

/// Runs `waves` placement waves on a random unit-staged network and
/// asserts planner == reference on every request.
fn run(seed: u64, widths: &[usize], waves: usize) -> Tally {
    let (net, mut idle) = random_unit_staged(seed, widths, 0.85);
    let g = net.graph();
    let mut r = gen::rng(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut ws = MincostWorkspace::new();
    let (mut rnet, mut rws) = (CostFlowNetwork::default(), McfWorkspace::new());
    let mut path = Vec::new();
    let mut tally = Tally::default();
    for wave in 0..waves {
        if wave > 0 {
            let p = r.random_range(0.6..1.0);
            idle = (0..g.num_vertices()).map(|_| r.random_bool(p)).collect();
        }
        snapshot(g, &idle, &mut rnet, &mut rws);
        ws.begin_wave();
        let mut placed_in_wave = 0;
        for _ in 0..r.random_range(1..=8) {
            let i = net.inputs()[r.random_range(0..net.inputs().len())];
            let o = net.outputs()[r.random_range(0..net.outputs().len())];
            if !idle[i.index()] || !idle[o.index()] {
                tally.unavailable += 1;
                continue;
            }
            let before = ws.stats().mincost_pops;
            let got = if mincost_place_into(g, i, o, |v| idle[v.index()], &mut ws, &mut path) {
                Outcome::Placed(path.iter().map(|v| v.0).collect())
            } else {
                Outcome::Blocked
            };
            let pops = ws.stats().mincost_pops - before;
            let want = match place_and_freeze(&mut rnet, &mut rws, i.0, o.0) {
                Some(p) => Outcome::Placed(p),
                None => Outcome::Blocked,
            };
            let dead = rws
                .settled
                .iter()
                .filter(|&&x| x % 2 == 0 && !idle[x as usize / 2]);
            let dead = dead.count() as u64;
            assert_eq!(got, want, "seed {seed} wave {wave}: {i:?} → {o:?}");
            assert_eq!(
                pops,
                rws.settled.len() as u64 - dead,
                "seed {seed} wave {wave}: settled nodes of {i:?} → {o:?}"
            );
            tally.dead_ends += dead;
            if let Outcome::Placed(p) = got {
                for v in p {
                    idle[v as usize] = false;
                }
                tally.placed += 1;
                tally.carried += u32::from(placed_in_wave > 0);
                placed_in_wave += 1;
            } else {
                tally.blocked += 1;
            }
        }
    }
    tally
}

proptest! {
    #[test]
    fn planner_matches_ssp_reference_wave_by_wave(
        seed in 0u64..4000,
        widths in proptest::collection::vec(1usize..7, 2..6),
    ) {
        run(seed, &widths, 4);
    }
}

/// The random cases above must actually reach every branch: busy
/// endpoints, blocked probes, placements on carried potentials, and
/// reference dead ends (the one place the two settled counts differ).
#[test]
fn differential_covers_busy_blocked_and_carried_placements() {
    let mut total = Tally::default();
    for seed in 0..300u64 {
        let widths = [2 + seed as usize % 4, 3, 4, 3, 2 + seed as usize % 3];
        let t = run(seed, &widths, 5);
        total.unavailable += t.unavailable;
        total.blocked += t.blocked;
        total.placed += t.placed;
        total.carried += t.carried;
        total.dead_ends += t.dead_ends;
    }
    let Tally {
        unavailable,
        blocked,
        placed,
        carried,
        dead_ends,
    } = total;
    assert!(
        unavailable > 100 && blocked > 100 && carried > 100,
        "{total:?}"
    );
    assert!(placed > carried && dead_ends > 0, "{total:?}");
}
