//! Transpose equivalence for the bit-sliced Monte Carlo path.
//!
//! A sliced 64-lane block is just 64 scalar trials stored column-wise.
//! These tests pin that claim end-to-end for every fabric family and
//! every ε regime the sampler distinguishes: unpack each lane of a
//! sliced block into a packed [`FailureInstance`], run the scalar §4
//! repair and scalar BFS on it, and demand the verdicts be
//! *bit-identical* to the lane-parallel sweep — alive masks, per-output
//! reachability, and the pair-blocking estimates built on top.

use ft_failure::sliced::LANES;
use ft_failure::{block_seed, FailureInstance, FailureModel, SlicedFailureMask};
use ft_graph::sliced::{sliced_reach_into, SlicedWorkspace};
use ft_graph::traversal::{bfs_into, Direction};
use ft_graph::{Digraph, TraversalWorkspace};
use ft_sim::{pair_blocking_estimate, pair_blocking_estimate_scalar, Fabric, FabricSpec};

fn families() -> Vec<Fabric> {
    vec![
        FabricSpec::ClosStrict(2, 3).build(),
        FabricSpec::ClosRearrangeable(2, 2).build(),
        FabricSpec::Benes(2).build(),
        FabricSpec::Multibutterfly(2, 2, 7).build(),
        FabricSpec::Ftn(1, 8, 4, 1.0).build(),
    ]
}

/// ε values straddling the sampler's regimes: deep sparse (almost
/// every gap is an alias-table tail), just under the dense cutoff for
/// the symmetric model (2ε = 0.1), and clearly dense (bit-sliced
/// comparator).
const EPSILONS: [f64; 3] = [1e-6, 0.05, 0.2];

#[test]
fn every_lane_matches_the_scalar_pipeline() {
    let mut sliced = SlicedFailureMask::new();
    let mut sws = SlicedWorkspace::new();
    let mut ws = TraversalWorkspace::new();
    for fabric in families() {
        let net = fabric.net();
        let csr = net.csr();
        let m = net.num_edges();
        for (i, &eps) in EPSILONS.iter().enumerate() {
            let model = FailureModel::symmetric(eps);
            let seed = block_seed(17, i as u64);
            let mut rng = ft_graph::gen::rng(seed);
            model.sample_sliced_into(&mut rng, m, &mut sliced);

            // lane-parallel side: §4 repair words + one sweep from input 0
            let mut alive_words = Vec::new();
            fabric.alive_words_into(&sliced, &mut alive_words);
            sliced_reach_into(
                csr,
                &[(net.inputs()[0], !0)],
                Direction::Forward,
                |_| !0,
                |v| alive_words[v.index()],
                &mut sws,
            );

            // scalar side, lane by lane
            let mut lane_inst = FailureInstance::perfect(m);
            let mut alive = Vec::new();
            for lane in 0..LANES {
                sliced.extract_lane_into(lane, &mut lane_inst);
                // switch states must be the lane's column of the planes
                for s in 0..m {
                    assert_eq!(
                        lane_inst.state(ft_graph::EdgeId::from(s)),
                        sliced.lane_state(s, lane),
                        "{} eps={eps} lane {lane} switch {s}",
                        fabric.label()
                    );
                }
                fabric.alive_mask_into(&lane_inst, &mut alive);
                for (v, &w) in alive_words.iter().enumerate() {
                    assert_eq!(
                        (w >> lane) & 1 != 0,
                        alive[v],
                        "{} eps={eps} lane {lane} vertex {v}: alive word disagrees",
                        fabric.label()
                    );
                }
                bfs_into(
                    csr,
                    &[net.inputs()[0]],
                    Direction::Forward,
                    |_| true,
                    |v| alive[v.index()],
                    &mut ws,
                );
                for &out in net.outputs() {
                    assert_eq!(
                        sws.reached(out, lane),
                        ws.reached(out),
                        "{} eps={eps} lane {lane} output {out:?}: verdict disagrees",
                        fabric.label()
                    );
                }
            }
        }
    }
}

/// Every fabric family numbers its stages in ascending id ranges with
/// every switch leading to a later stage, so the estimators' forward
/// sweeps take `sliced_reach_into`'s one-pass ascending walk instead of
/// silently falling back to the worklist.
#[test]
fn every_fabric_family_has_ascending_ids() {
    let mut fabrics = families();
    fabrics.push(FabricSpec::Crossbar(4).build());
    // paper-exact ν = 1: `Params::paper_exact(1)` is `Params::reduced(1, 64, 10, 34.0)`
    fabrics.push(FabricSpec::Ftn(1, 64, 10, 34.0).build());
    for fabric in fabrics {
        let net = fabric.net();
        assert!(net.csr().ids_ascend(), "{}", fabric.label());
        assert!(net.graph().ids_ascend(), "{}", fabric.label());
    }
}

/// Trial *t* is lane `t % 64` of block `t / 64` in both estimators, so
/// they see the same instances and must agree *exactly* — per fabric
/// family and in both sampler regimes, not just on average.
#[test]
fn pair_blocking_estimators_agree_exactly() {
    for model in [FailureModel::symmetric(0.01), FailureModel::symmetric(0.2)] {
        for fabric in families() {
            let sliced = pair_blocking_estimate(&fabric, &model, 330, 23);
            let scalar = pair_blocking_estimate_scalar(&fabric, &model, 330, 23);
            assert_eq!(sliced, scalar, "{model:?} {}", fabric.label());
        }
    }
}

/// The dense comparator's open/closed split must match the model's
/// conditional shares, lane-aggregated over a block.
#[test]
fn dense_block_respects_open_closed_shares() {
    let model = FailureModel::new(0.15, 0.05);
    let m = 4096;
    let mut sliced = SlicedFailureMask::new();
    let mut rng = ft_graph::gen::rng(91);
    model.sample_sliced_into(&mut rng, m, &mut sliced);
    let (mut open, mut closed) = (0u64, 0u64);
    for s in 0..m {
        open += sliced.open_word(s).count_ones() as u64;
        closed += sliced.closed_word(s).count_ones() as u64;
    }
    let trials = (m * LANES) as f64;
    let p_open = open as f64 / trials;
    let p_closed = closed as f64 / trials;
    assert!((p_open - 0.15).abs() < 0.005, "open share {p_open}");
    assert!((p_closed - 0.05).abs() < 0.005, "closed share {p_closed}");
    // and no switch is both open and closed in the same lane
    for s in 0..m {
        assert_eq!(sliced.open_word(s) & sliced.closed_word(s), 0);
    }
}
