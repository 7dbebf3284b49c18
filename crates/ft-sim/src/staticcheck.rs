//! Static Monte Carlo cross-checks for the temporal engine.
//!
//! The bridge between this crate's discrete-event results and the
//! snapshot machinery of `ft-failure`: with per-switch failure rate λ
//! and repair rate `1/mttr`, each switch is a two-state Markov chain
//! whose stationary unavailability is `u = λ·mttr / (1 + λ·mttr)`
//! ([`FailureModel::stationary`]), and by PASTA a Poisson arrival in
//! steady state observes an i.i.d. failure snapshot at that `u`. A
//! sparse-traffic simulation's arrival-observed blocking must therefore
//! match [`pair_blocking_estimate`] — a pure snapshot estimator with no
//! time axis — within Monte Carlo noise. `sim_validation.rs` pins this
//! for one scenario; the `ftexp` study runner emits the estimate as a
//! per-cell cross-validation column.

use crate::fabric::Fabric;
use ft_failure::sliced::LANES;
use ft_failure::{block_seed, Estimate, FailureInstance, FailureModel, SlicedFailureMask};
use ft_graph::sliced::{sliced_reach_into, SlicedWorkspace};
use ft_graph::traversal::{bfs_into, Direction};
use ft_graph::{Digraph, TraversalWorkspace, VertexId};
use rand::Rng;

/// Salt separating a block's terminal-pair draws from its failure
/// sampling, so the sliced driver (which draws all 64 pairs at once)
/// and the scalar reference (which draws one pair per trial) consume
/// identical pair streams.
const PAIR_STREAM_SALT: u64 = 0x517C_C1B7_2722_0A95;

/// Estimates the probability that a uniformly random terminal pair of
/// `fabric` has **no alive path** under an i.i.d. failure snapshot from
/// `model` repaired by the §4 vertex-discard discipline.
///
/// Bit-sliced: trials run in [`LANES`]-sized blocks under the
/// [`block_seed`] discipline. Each block samples one
/// [`SlicedFailureMask`], computes the per-vertex alive lane words
/// ([`Fabric::alive_words_into`] — lane-parallel on every fabric, 𝒩
/// included), draws the 64 terminal pairs from a salted side stream,
/// and answers all 64 blocking verdicts with **one** lane-parallel
/// sweep whose sources carry per-lane bits (lanes starting at the same
/// input share a source word). Every fabric's ids ascend along its
/// switches, so that sweep is [`sliced_reach_into`]'s one-pass
/// ascending walk, not its worklist. Sample → repair → reach reuse the
/// buffers of the first block, so the block loop allocates nothing
/// after it. The `trials % LANES` tail runs scalar. Deterministic per
/// `(fabric, model, trials, seed)`; [`pair_blocking_estimate_scalar`]
/// is the pinned reference, exactly equal in every regime, on shared
/// instances.
pub fn pair_blocking_estimate(
    fabric: &Fabric,
    model: &FailureModel,
    trials: u64,
    seed: u64,
) -> Estimate {
    let net = fabric.net();
    let csr = net.csr();
    let n = fabric.terminals();
    let m = net.num_edges();
    let blocks = trials / LANES as u64;
    let rem = trials % LANES as u64;
    let mut sliced = SlicedFailureMask::new();
    let mut sws = SlicedWorkspace::new();
    let mut alive = Vec::new();
    let mut sources: Vec<(VertexId, u64)> = Vec::with_capacity(LANES);
    let mut outs = [0usize; LANES];
    let mut successes = 0u64;
    for b in 0..blocks {
        let bs = block_seed(seed, b);
        let mut rng = ft_graph::gen::rng(bs);
        model.sample_sliced_into(&mut rng, m, &mut sliced);
        fabric.alive_words_into(&sliced, &mut alive);
        let mut pair_rng = ft_graph::gen::rng(bs ^ PAIR_STREAM_SALT);
        sources.clear();
        for (lane, out) in outs.iter_mut().enumerate() {
            let i = pair_rng.random_range(0..n);
            *out = pair_rng.random_range(0..n);
            let src = net.inputs()[i];
            match sources.iter_mut().find(|(v, _)| *v == src) {
                Some((_, lanes)) => *lanes |= 1 << lane,
                None => sources.push((src, 1 << lane)),
            }
        }
        sliced_reach_into(
            csr,
            &sources,
            Direction::Forward,
            |_| !0,
            |v| alive[v.index()],
            &mut sws,
        );
        for (lane, &o) in outs.iter().enumerate() {
            if (sws.reached_lanes(net.outputs()[o]) >> lane) & 1 == 0 {
                successes += 1;
            }
        }
    }
    if rem > 0 {
        successes += pair_blocking_block_scalar(fabric, model, rem, blocks, seed);
    }
    Estimate { successes, trials }
}

/// Scalar reference for [`pair_blocking_estimate`]: identical block
/// partition, seeding and pair-draw stream, but every trial — lane
/// `t % 64` of block `t / 64`, unpacked — is evaluated individually
/// (packed instance, `alive_mask_into`, scalar BFS). Exactly equal to
/// the sliced estimate in every regime, on shared instances — the
/// transpose-equivalence tests pin this per fabric family.
pub fn pair_blocking_estimate_scalar(
    fabric: &Fabric,
    model: &FailureModel,
    trials: u64,
    seed: u64,
) -> Estimate {
    let blocks = trials / LANES as u64;
    let rem = trials % LANES as u64;
    let mut successes = 0u64;
    for b in 0..blocks {
        successes += pair_blocking_block_scalar(fabric, model, LANES as u64, b, seed);
    }
    if rem > 0 {
        successes += pair_blocking_block_scalar(fabric, model, rem, blocks, seed);
    }
    Estimate { successes, trials }
}

/// Runs the first `count` trials (lanes) of block `block` scalar-side —
/// the shared remainder path of both drivers.
fn pair_blocking_block_scalar(
    fabric: &Fabric,
    model: &FailureModel,
    count: u64,
    block: u64,
    seed: u64,
) -> u64 {
    let net = fabric.net();
    let csr = net.csr();
    let n = fabric.terminals();
    let m = net.num_edges();
    let bs = block_seed(seed, block);
    let mut rng = ft_graph::gen::rng(bs);
    let mut sliced = SlicedFailureMask::new();
    model.sample_sliced_into(&mut rng, m, &mut sliced);
    let mut pair_rng = ft_graph::gen::rng(bs ^ PAIR_STREAM_SALT);
    let mut inst = FailureInstance::perfect(m);
    let mut ws = TraversalWorkspace::new();
    let mut alive = Vec::new();
    let mut successes = 0u64;
    for lane in 0..count as usize {
        sliced.extract_lane_into(lane, &mut inst);
        fabric.alive_mask_into(&inst, &mut alive);
        let i = pair_rng.random_range(0..n);
        let o = pair_rng.random_range(0..n);
        bfs_into(
            csr,
            &[net.inputs()[i]],
            Direction::Forward,
            |_| true,
            |v| alive[v.index()],
            &mut ws,
        );
        if !ws.reached(net.outputs()[o]) {
            successes += 1;
        }
    }
    successes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricSpec;

    #[test]
    fn perfect_model_never_blocks() {
        let fabric = FabricSpec::ClosStrict(2, 3).build();
        let est = pair_blocking_estimate(&fabric, &FailureModel::perfect(), 200, 1);
        assert_eq!(est.successes, 0);
        assert_eq!(est.trials, 200);
    }

    #[test]
    fn deterministic_per_seed_and_monotone_in_eps() {
        let fabric = FabricSpec::ClosStrict(2, 3).build();
        let lo = pair_blocking_estimate(&fabric, &FailureModel::symmetric(0.02), 4000, 9);
        let again = pair_blocking_estimate(&fabric, &FailureModel::symmetric(0.02), 4000, 9);
        assert_eq!(lo, again);
        let hi = pair_blocking_estimate(&fabric, &FailureModel::symmetric(0.10), 4000, 9);
        assert!(
            hi.p() > lo.p(),
            "blocking should grow with eps: {} vs {}",
            hi.p(),
            lo.p()
        );
    }

    #[test]
    fn sliced_equals_scalar_exactly() {
        // non-multiple-of-64 trial count exercises the scalar tail;
        // one sparse and one dense model; the ftn fabric takes the same
        // lane-parallel repair as the others (tests/repair_oracle.rs
        // pins it against `Survivor`)
        for model in [FailureModel::symmetric(0.01), FailureModel::symmetric(0.1)] {
            for fabric in [
                FabricSpec::ClosStrict(2, 3).build(),
                FabricSpec::Benes(2).build(),
                FabricSpec::Ftn(1, 8, 4, 1.0).build(),
            ] {
                let sliced = pair_blocking_estimate(&fabric, &model, 200, 5);
                let scalar = pair_blocking_estimate_scalar(&fabric, &model, 200, 5);
                assert_eq!(sliced, scalar, "{model:?} {}", fabric.label());
            }
        }
    }

    #[test]
    fn matches_the_stationary_model_hookup() {
        // The composition the study runner uses: λ, mttr → stationary
        // model → snapshot estimate. Smoke-level sanity only (the
        // quantitative sim-vs-static comparison lives in
        // tests/sim_validation.rs).
        let fabric = FabricSpec::ClosStrict(2, 3).build();
        let model = FailureModel::stationary(0.02, 5.0, 0.5);
        let est = pair_blocking_estimate(&fabric, &model, 8000, 42);
        assert!(est.p() > 0.02, "u ≈ 0.09 must yield visible blocking");
        assert!(est.p() < 0.5);
    }
}
