//! CI smoke: sliced-vs-scalar Monte Carlo cross-check.
//!
//! Runs the bit-sliced estimators and their scalar references at the
//! same trial budget and seed, on 1 and 4 threads, and demands **exact
//! estimate agreement** — the sparse-regime guarantee of the per-lane
//! seeding discipline (lane *i* of a block is bit-identical to the
//! *i*-th consecutive scalar sample from the block RNG), plus the
//! block-partition guarantee that thread counts never change results.
//! The last leg holds the one §4 repair every fabric takes against
//! `ft-core`'s `Survivor` on 𝒩. Exits nonzero (assert) on any mismatch.

use ft_core::repair::Survivor;
use ft_failure::montecarlo::{
    mc_event_probability_parallel, mc_sliced_event_probability_parallel, LaneVerdict, TrialScratch,
};
use ft_failure::reliability::{bridge, Connectivity};
use ft_failure::sliced::LANES;
use ft_failure::{block_seed, FailureInstance, FailureModel, SlicedFailureMask};
use ft_graph::ids::v;
use ft_graph::sliced::sliced_reach_into;
use ft_graph::traversal::{bfs_into, Direction};
use ft_graph::{DiGraph, Digraph};
use ft_sim::{pair_blocking_estimate, pair_blocking_estimate_scalar, Fabric};

/// Sliced blocks the `Survivor` oracle leg checks.
const ORACLE_BLOCKS: usize = 8;

/// Checks [`ORACLE_BLOCKS`] sliced blocks on 𝒩, dealt round-robin to
/// `threads` workers: per lane, `Fabric::alive_mask_into` and the lane
/// of `Fabric::alive_words_into` must both equal
/// `Survivor::routable_alive`. Returns the discarded vertices summed
/// over all lanes.
fn survivor_oracle_leg(fabric: &Fabric, model: &FailureModel, seed: u64, threads: usize) -> u64 {
    let Fabric::Ftn(ftn) = fabric else {
        panic!("the Survivor oracle is defined on 𝒩 only");
    };
    let m = fabric.net().num_edges();
    let check_blocks = |first: usize| -> u64 {
        let mut sliced = SlicedFailureMask::new();
        let mut lane_inst = FailureInstance::perfect(m);
        let (mut words, mut mask) = (Vec::new(), Vec::new());
        let mut discarded = 0;
        for b in (first..ORACLE_BLOCKS).step_by(threads) {
            let mut rng = ft_graph::gen::rng(block_seed(seed, b as u64));
            model.sample_sliced_into(&mut rng, m, &mut sliced);
            fabric.alive_words_into(&sliced, &mut words);
            for lane in 0..LANES {
                sliced.extract_lane_into(lane, lane_inst.mask_mut());
                let oracle = Survivor::new(ftn, &lane_inst).routable_alive();
                fabric.alive_mask_into(&lane_inst, &mut mask);
                assert_eq!(mask, oracle, "block {b} lane {lane}: scalar repair");
                assert!(
                    words
                        .iter()
                        .zip(&oracle)
                        .all(|(w, &a)| (w >> lane) & 1 == u64::from(a)),
                    "block {b} lane {lane}: sliced repair"
                );
                discarded += oracle.iter().filter(|&&a| !a).count() as u64;
            }
        }
        discarded
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || check_blocks(t)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle worker panicked"))
            .sum()
    })
}

fn main() {
    let trials = 20_070; // non-multiple of 64: exercises the scalar tail
    let seed = 17;
    let model = FailureModel::new(0.02, 0.01); // sparse regime: exact equality holds

    // 1. mc_failure_probs: sliced pipeline vs scalar reference
    let net = bridge();
    for conn in [Connectivity::Undirected, Connectivity::Directed] {
        let sliced = net.mc_failure_probs(&model, conn, trials, seed);
        let scalar = net.mc_failure_probs_scalar(&model, conn, trials, seed);
        assert_eq!(sliced, scalar, "mc_failure_probs {conn:?}");
        println!(
            "mc_failure_probs {conn:?}: p_open {:.6} p_short {:.6} (sliced == scalar)",
            sliced.0.p(),
            sliced.1.p()
        );
    }

    // 2. the generic driver: lane-deciding event vs all-lanes-undecided
    //    fallback, each on 1 and 4 threads — all four exactly equal
    let mut g = DiGraph::new();
    g.add_vertices(3);
    g.add_edge(v(0), v(1));
    g.add_edge(v(1), v(2));
    fn lane_event(g: &DiGraph, s: &SlicedFailureMask, scratch: &mut TrialScratch) -> LaneVerdict {
        sliced_reach_into(
            g,
            &[(v(0), !0)],
            Direction::Forward,
            |e| s.usable_word(e.index()),
            |_| !0,
            &mut scratch.sws,
        );
        LaneVerdict::all(scratch.sws.reached_lanes(v(2)))
    }
    fn scalar_event(g: &DiGraph, inst: &FailureInstance, scratch: &mut TrialScratch) -> bool {
        bfs_into(
            g,
            &[v(0)],
            Direction::Forward,
            |e| inst.is_usable(e),
            |_| true,
            &mut scratch.ws,
        );
        scratch.ws.reached(v(2))
    }
    let mut estimates = Vec::new();
    for threads in [1, 4] {
        estimates.push(mc_sliced_event_probability_parallel(
            &g,
            &model,
            trials,
            threads,
            seed,
            lane_event,
            scalar_event,
        ));
        estimates.push(mc_event_probability_parallel(
            &g,
            &model,
            trials,
            threads,
            seed,
            scalar_event,
        ));
    }
    for e in &estimates[1..] {
        assert_eq!(
            *e, estimates[0],
            "sliced/fallback x threads estimates diverged: {estimates:?}"
        );
    }
    println!(
        "mc_event chain: p {:.6} across sliced/fallback x 1/4 threads",
        estimates[0].p()
    );

    // 3. the ft-sim snapshot estimator
    for fabric in [Fabric::clos_strict(2, 3), Fabric::ftn_reduced(1, 8, 4, 1.0)] {
        let sliced = pair_blocking_estimate(&fabric, &model, trials, seed);
        let scalar = pair_blocking_estimate_scalar(&fabric, &model, trials, seed);
        assert_eq!(sliced, scalar, "pair_blocking {}", fabric.label());
        println!(
            "pair_blocking {}: p {:.6} (sliced == scalar)",
            fabric.label(),
            sliced.p()
        );
    }

    // 4. the Survivor oracle on 𝒩: the one §4 repair every fabric takes
    //    (scalar mask and every lane of the sliced words) against
    //    ft-core's two-step construction, blocks dealt to 1 and 4
    //    threads sharing one fabric
    let fabric = Fabric::ftn_reduced(1, 8, 4, 1.0);
    let discarded: Vec<u64> = [4, 1]
        .into_iter()
        .map(|threads| survivor_oracle_leg(&fabric, &model, seed, threads))
        .collect();
    assert_eq!(discarded[0], discarded[1], "oracle leg differs by threads");
    println!(
        "repair oracle {}: {ORACLE_BLOCKS} blocks x {LANES} lanes, {} vertex-lanes discarded (sliced == scalar == Survivor, 1 and 4 threads)",
        fabric.label(),
        discarded[0]
    );

    println!("mc_crosscheck: all sliced estimates exactly equal their scalar references");
}
