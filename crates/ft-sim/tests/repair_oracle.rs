//! `Survivor` as the oracle for the one §4 repair every fabric takes.
//!
//! 𝒩 takes the generic local predicate (terminal, or no incident
//! switch failed) like every other fabric. `ft_core`'s two-step
//! `Survivor` construction is the independent reference: on 𝒩 it must
//! equal [`Fabric::alive_mask`] for every sampled instance, and lane
//! *i* of [`Fabric::alive_words_into`] must equal it for every lane —
//! in the sparse and the dense sampler regime.

use ft_core::repair::Survivor;
use ft_failure::sliced::LANES;
use ft_failure::{block_seed, FailureInstance, FailureModel, SlicedFailureMask};
use ft_graph::Digraph;
use ft_sim::Fabric;

#[test]
fn ftn_repair_equals_the_survivor_oracle_in_every_lane() {
    let mut sliced = SlicedFailureMask::new();
    let mut alive_words = Vec::new();
    for (nu, width, degree) in [(1, 8, 4), (2, 8, 8)] {
        let fabric = Fabric::ftn_reduced(nu, width, degree, 1.0);
        let Fabric::Ftn(ftn) = &fabric else {
            unreachable!("ftn_reduced builds 𝒩")
        };
        let m = fabric.net().num_edges();
        let mut lane_inst = FailureInstance::perfect(m);
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
            fabric.alive_words_into(&sliced, &mut alive_words);
            for lane in 0..LANES {
                sliced.extract_lane_into(lane, lane_inst.mask_mut());
                let oracle = Survivor::new(ftn, &lane_inst).routable_alive();
                assert_eq!(
                    fabric.alive_mask(&lane_inst),
                    oracle,
                    "nu={nu} eps={eps} lane {lane}: scalar mask"
                );
                let from_words: Vec<bool> =
                    alive_words.iter().map(|w| (w >> lane) & 1 != 0).collect();
                assert_eq!(
                    from_words, oracle,
                    "nu={nu} eps={eps} lane {lane}: lane of the alive words"
                );
            }
        }
    }
}
