//! `Survivor` as the oracle for the one §4 repair every fabric takes.
//!
//! 𝒩 takes the generic local predicate (terminal, or no incident
//! switch failed) like every other fabric. `ft_core`'s two-step
//! `Survivor` construction is the independent reference: on 𝒩 it must
//! equal [`Fabric::alive_mask`] for every sampled instance, and lane
//! *i* of [`Fabric::alive_words_into`] must equal it for every lane —
//! in the sparse and the dense sampler regime, and with the blocks
//! dealt to several threads sharing one fabric.

use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_core::repair::Survivor;
use ft_failure::sliced::LANES;
use ft_failure::{block_seed, FailureInstance, FailureModel, SlicedFailureMask};
use ft_graph::Digraph;
use ft_sim::{Fabric, FabricSpec};

/// `ftn NU WIDTH DEGREE 1.0` as the simulator builds it, beside the
/// `FtNetwork` the `Survivor` oracle reads, built again from the same
/// `Params`. The builder is deterministic, so the two graphs must be
/// equal.
fn ftn(nu: u32, width: usize, degree: usize) -> (Fabric, FtNetwork) {
    let fabric = FabricSpec::Ftn(nu, width, degree, 1.0).build();
    let layout = FtNetwork::build(Params::reduced(nu, width, degree, 1.0));
    let (a, b) = (fabric.net(), layout.net());
    assert!(
        a.csr().edges().eq(b.csr().edges())
            && (a.inputs(), a.outputs()) == (b.inputs(), b.outputs())
            && a.stage_table() == b.stage_table(),
        "ftn {nu} {width} {degree} 1.0: layout differs from the fabric"
    );
    (fabric, layout)
}

/// Checks every lane of one sampled block on 𝒩: [`Fabric::alive_mask`]
/// and the lane of [`Fabric::alive_words_into`] must both equal
/// `Survivor::routable_alive` on `ftn`, the fabric's layout. Returns
/// the discarded vertex-lanes.
fn check_block(fabric: &Fabric, ftn: &FtNetwork, sliced: &SlicedFailureMask, what: &str) -> u64 {
    let mut alive_words = Vec::new();
    fabric.alive_words_into(sliced, &mut alive_words);
    let mut lane_inst = FailureInstance::perfect(sliced.len());
    let mut discarded = 0;
    for lane in 0..LANES {
        sliced.extract_lane_into(lane, &mut lane_inst);
        let oracle = Survivor::new(ftn, &lane_inst).routable_alive();
        assert_eq!(
            fabric.alive_mask(&lane_inst),
            oracle,
            "{what} lane {lane}: scalar mask"
        );
        let from_words: Vec<bool> = alive_words.iter().map(|w| (w >> lane) & 1 != 0).collect();
        assert_eq!(
            from_words, oracle,
            "{what} lane {lane}: lane of the alive words"
        );
        discarded += oracle.iter().filter(|&&alive| !alive).count() as u64;
    }
    discarded
}

#[test]
fn ftn_repair_equals_the_survivor_oracle_in_every_lane() {
    let mut sliced = SlicedFailureMask::new();
    for (nu, width, degree) in [(1, 8, 4), (2, 8, 8)] {
        let (fabric, layout) = ftn(nu, width, degree);
        let m = fabric.net().num_edges();
        // symmetric ε: totals 0.002 and 0.04 are sparse, 0.4 is dense
        for (k, eps) in [1e-3, 0.02, 0.2].into_iter().enumerate() {
            let model = FailureModel::symmetric(eps);
            assert_eq!(model.total() >= FailureModel::DENSE_CUTOFF, eps == 0.2);
            let mut rng = ft_graph::gen::rng(block_seed(23, k as u64));
            model.sample_sliced_into(&mut rng, m, &mut sliced);
            assert!(
                sliced.iter_failed_switches().count() > 0,
                "nothing to repair"
            );
            check_block(&fabric, &layout, &sliced, &format!("nu={nu} eps={eps}"));
        }
    }
}

/// Sliced blocks the thread-count test checks.
const ORACLE_BLOCKS: usize = 8;

#[test]
fn survivor_oracle_holds_with_blocks_dealt_to_one_and_four_threads() {
    // one shared fabric, the blocks dealt round-robin to the workers
    let (fabric, layout) = &ftn(1, 8, 4);
    let model = FailureModel::new(0.02, 0.01);
    let m = fabric.net().num_edges();
    let discarded = [4, 1].map(|threads| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|first| {
                    scope.spawn(move || {
                        let mut sliced = SlicedFailureMask::new();
                        let mut discarded = 0;
                        for b in (first..ORACLE_BLOCKS).step_by(threads) {
                            let mut rng = ft_graph::gen::rng(block_seed(17, b as u64));
                            model.sample_sliced_into(&mut rng, m, &mut sliced);
                            discarded +=
                                check_block(fabric, layout, &sliced, &format!("block {b}"));
                        }
                        discarded
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("oracle worker panicked"))
                .sum::<u64>()
        })
    });
    assert_eq!(discarded[0], discarded[1], "oracle differs by threads");
    assert!(discarded[0] > 0, "nothing was discarded");
}
