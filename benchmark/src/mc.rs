//! The `mc_*` workloads: `pair_blocking_estimate`, the bit-sliced
//! static Monte Carlo estimator the studies and `ftexp` cells call.
//! A rep is one call of [`BLOCKS_PER_CALL`] 64-lane blocks (see [`Reps`]
//! for what is reported from them). The success counts are
//! printed per call so two commits compare them exactly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ft_failure::sliced::LANES;
use ft_failure::{block_seed, FailureModel, SlicedFailureMask};
use ft_graph::sliced::{sliced_reach_into, SlicedWorkspace};
use ft_graph::traversal::Direction;
use ft_graph::{Digraph, VertexId};
use ft_sim::{pair_blocking_estimate, pair_blocking_estimate_scalar, Fabric, FabricSpec};

use crate::alloc::allocations;
use crate::opstream::SplitMix64;
use crate::report::Outcome;
use crate::reps::Reps;
use crate::spans::{SpanLog, NO_REQUEST, ROOT};
use crate::stats::median;
use crate::{setup_repeatedly, Layers, Run};

/// Blocks per estimate call (a rep).
const BLOCKS_PER_CALL: u64 = 32;
/// Blocks the traced run takes apart.
const LADDER_BLOCKS: u64 = 64;
/// Blocks compared against the scalar reference on every invocation.
const CHECK_BLOCKS: u64 = 8;

/// One `mc_*` workload.
pub struct McWorkload {
    /// Fabric spec in `network =` grammar.
    pub fabric: &'static str,
    /// Per-switch open and closed failure probability, each. Below
    /// `FailureModel::DENSE_CUTOFF` in total, so the sliced estimate
    /// must equal the scalar one exactly.
    pub eps: f64,
}

/// What `setup_s` covers: build the fabric and its CSR.
fn ready(spec: &str) -> Result<Fabric, String> {
    let fabric = FabricSpec::parse(spec)?.build();
    fabric.net().csr();
    Ok(fabric)
}

/// The `k`-th estimate seed of benchmark seed `seed`.
fn mc_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_shl(20).wrapping_add(k)
}

/// Sliced against scalar on the first [`CHECK_BLOCKS`] blocks.
fn check_against_scalar(fabric: &Fabric, model: &FailureModel, seed: u64) -> Vec<String> {
    let trials = CHECK_BLOCKS * LANES as u64;
    let sliced = pair_blocking_estimate(fabric, model, trials, seed);
    let scalar = pair_blocking_estimate_scalar(fabric, model, trials, seed);
    if sliced == scalar {
        Vec::new()
    } else {
        vec![format!(
            "sliced estimate {}/{} != scalar {}/{} on the first {CHECK_BLOCKS} blocks",
            sliced.successes, sliced.trials, scalar.successes, scalar.trials
        )]
    }
}

/// The untraced run: end-to-end metrics only.
pub fn run(w: &McWorkload, name: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let (setup_s, fabric) = setup_repeatedly(|| ready(w.fabric), |_| Ok(()))?;
    let model = FailureModel::symmetric(w.eps);
    // Also the warm-up.
    let failed_checks = check_against_scalar(&fabric, &model, mc_seed(seed, 0));

    let trials_per_call = BLOCKS_PER_CALL * LANES as u64;
    let mut reps = Reps::begin()?;
    let window = Instant::now();
    while window.elapsed() < Duration::from_secs(seconds) {
        let k = reps.len() as u64;
        let call_seed = mc_seed(seed, k);
        let start = Instant::now();
        let est = pair_blocking_estimate(&fabric, &model, trials_per_call, call_seed);
        let wall = start.elapsed();
        reps.push(est.trials as f64, wall, wall.as_secs_f64() * 1e6)?;
        println!(
            "estimate {name} seed={call_seed} blocked_pairs={} trials={}",
            est.successes, est.trials
        );
        println!(
            "rep {name} {k} trials_per_s={:.0}",
            est.trials as f64 / wall.as_secs_f64()
        );
    }
    let trials = reps.len() as u64 * trials_per_call;
    let (metrics, validity) = reps.finish(setup_s, 0.0)?;
    for check in &failed_checks {
        println!("check failed {name}: {check}");
    }
    Ok(Run {
        outcome: Outcome {
            correct: failed_checks.is_empty(),
            attempted: trials,
            failed: 0,
            metrics,
        },
        validity,
    })
}

/// The traced run: [`LADDER_BLOCKS`] blocks taken apart into the
/// three calls `pair_blocking_estimate` makes per block. The terminal
/// pairs come from the benchmark's own generator (the estimator's pair
/// stream is private to it), so the sweep sees the same kind of
/// sources, not the same ones.
pub fn ladder(
    w: &McWorkload,
    name: &str,
    seed: u64,
    log: &mut SpanLog,
) -> Result<(Outcome, Layers), String> {
    let mut out = Vec::new();
    let t = Instant::now();
    let fabric = FabricSpec::parse(w.fabric)?.build();
    out.push(("ft-core.build_ns", t.elapsed().as_nanos() as f64));
    let t = Instant::now();
    let net = fabric.net();
    let csr = net.csr();
    out.push(("ft-graph.csr_build_ns", t.elapsed().as_nanos() as f64));
    let model = FailureModel::symmetric(w.eps);
    let seed0 = mc_seed(seed, 0);
    let failed_checks = check_against_scalar(&fabric, &model, seed0);

    let rung = log.open("rung.blocks", ROOT);
    let (n, m) = (fabric.terminals(), net.num_edges());
    let mut sliced = SlicedFailureMask::new();
    let mut sws = SlicedWorkspace::new();
    let mut alive: Vec<u64> = Vec::new();
    let mut sources: Vec<(VertexId, u64)> = Vec::with_capacity(LANES);
    // Per-block times; the median block is reported, so a burst of
    // interference on a few blocks does not move the figure.
    let (mut sample_ns, mut alive_ns, mut reach_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed_lanes = 0u64;
    for b in 0..LADDER_BLOCKS {
        let bs = block_seed(seed0, b);
        let mut rng = ft_graph::gen::rng(bs);
        let ((), ns) = log.time("ft-failure.sample_sliced_into", rung, b + 1, || {
            model.sample_sliced_into(&mut rng, m, &mut sliced)
        });
        sample_ns.push(ns);
        failed_lanes += sliced
            .iter_failed_switches()
            .map(|s| u64::from(sliced.failed_word(s).count_ones()))
            .sum::<u64>();
        let ((), ns) = log.time("ft-sim.fabric.alive_words_into", rung, b + 1, || {
            fabric.alive_words_into(&sliced, &mut alive)
        });
        alive_ns.push(ns);
        let mut pairs = SplitMix64::new(bs);
        sources.clear();
        for lane in 0..LANES {
            let src = net.inputs()[pairs.below(n)];
            match sources.iter_mut().find(|(v, _)| *v == src) {
                Some((_, lanes)) => *lanes |= 1 << lane,
                None => sources.push((src, 1 << lane)),
            }
        }
        let ((), ns) = log.time("ft-graph.sliced_reach_into", rung, b + 1, || {
            sliced_reach_into(
                csr,
                &sources,
                Direction::Forward,
                |_| !0,
                |v| alive[v.index()],
                &mut sws,
            )
        });
        reach_ns.push(ns);
    }
    log.close(rung);
    let blocks = LADDER_BLOCKS as f64;
    out.push(("ft-failure.sample_sliced_ns_per_block", median(&sample_ns)));
    out.push((
        "ft-failure.failed_lanes_per_block",
        failed_lanes as f64 / blocks,
    ));
    out.push(("ft-sim.fabric.alive_words_ns_per_block", median(&alive_ns)));
    out.push(("ft-graph.sliced_reach_ns_per_block", median(&reach_ns)));
    out.push((
        "ft-graph.sliced_pops_per_block",
        sws.stats().sliced_pops as f64 / blocks,
    ));

    let trials = LADDER_BLOCKS * LANES as u64;
    let allocs = allocations();
    let (est, spanned_ns) = log.time("ft-sim.pair_blocking_estimate", ROOT, NO_REQUEST, || {
        pair_blocking_estimate(&fabric, &model, trials, seed0)
    });
    let allocs = allocations() - allocs;
    out.push(("ft-failure.allocs_per_block", allocs as f64 / blocks));
    out.push(("ft-failure.blocked_pair_share", est.p()));
    println!(
        "estimate {name} seed={seed0} blocked_pairs={} trials={}",
        est.successes, est.trials
    );
    // The same top rung with no span around it: what the ladder costs.
    let t = Instant::now();
    black_box(pair_blocking_estimate(&fabric, &model, trials, seed0));
    out.push((
        "ladder_overhead_ratio",
        spanned_ns / t.elapsed().as_nanos() as f64,
    ));

    let check_trials = CHECK_BLOCKS * LANES as u64;
    let t = Instant::now();
    black_box(pair_blocking_estimate(&fabric, &model, check_trials, seed0));
    let sliced_ns = t.elapsed().as_nanos() as f64;
    let (_, scalar_ns) = log.time(
        "ft-sim.pair_blocking_estimate_scalar",
        ROOT,
        NO_REQUEST,
        || {
            black_box(pair_blocking_estimate_scalar(
                &fabric,
                &model,
                check_trials,
                seed0,
            ))
        },
    );
    out.push(("ft-failure.sliced_over_scalar_ratio", scalar_ns / sliced_ns));

    for check in &failed_checks {
        println!("check failed {name}: {check}");
    }
    Ok((
        Outcome {
            correct: failed_checks.is_empty(),
            attempted: trials,
            failed: 0,
            metrics: Vec::new(),
        },
        out,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_equals_scalar_on_a_small_fabric() {
        let fabric = ready("benes 4").unwrap();
        let model = FailureModel::symmetric(0.02);
        assert_eq!(
            check_against_scalar(&fabric, &model, 9),
            Vec::<String>::new()
        );
    }
}
