//! Monte Carlo estimation with confidence intervals.
//!
//! Every probabilistic claim in the paper (Lemmas 3–7, Theorem 2's δ) is
//! reproduced by sampling failure instances. This module provides the
//! shared estimator: Bernoulli trials, Wilson score intervals (robust at
//! the extreme probabilities the paper lives at), and the bit-sliced
//! threaded drivers whose estimates do not depend on the thread count.

use crate::instance::FailureInstance;
use crate::model::FailureModel;
use crate::sliced::{block_seed, SlicedFailureMask, LANES};
use ft_graph::sliced::SlicedWorkspace;
use ft_graph::workspace::TraversalWorkspace;
use ft_graph::{Csr, FlowWorkspace, UnionFind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A binomial estimate: `successes` out of `trials`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Estimate {
    /// Number of trials where the event held.
    pub successes: u64,
    /// Total number of trials.
    pub trials: u64,
}

impl Estimate {
    /// Point estimate `successes / trials`.
    pub fn p(&self) -> f64 {
        if self.trials == 0 {
            return f64::NAN;
        }
        self.successes as f64 / self.trials as f64
    }

    /// Wilson score interval at `z` standard normal quantiles
    /// (z = 1.96 ≈ 95%). Well-behaved when `successes` is 0 or `trials`.
    pub fn wilson(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.p();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// 95% Wilson interval.
    pub fn wilson95(&self) -> (f64, f64) {
        self.wilson(1.959964)
    }

    /// Standard error of the point estimate.
    pub fn std_err(&self) -> f64 {
        let n = self.trials as f64;
        let p = self.p();
        (p * (1.0 - p) / n).sqrt()
    }

    /// Merges two independent estimates of the same quantity.
    pub fn merge(self, other: Estimate) -> Estimate {
        Estimate {
            successes: self.successes + other.successes,
            trials: self.trials + other.trials,
        }
    }
}

/// Runs `trials` Bernoulli trials of `event`, single-threaded and
/// deterministic in `seed`.
pub fn estimate_probability(
    trials: u64,
    seed: u64,
    mut event: impl FnMut(&mut SmallRng) -> bool,
) -> Estimate {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut successes = 0u64;
    for _ in 0..trials {
        if event(&mut rng) {
            successes += 1;
        }
    }
    Estimate { successes, trials }
}

/// Per-worker scratch state for zero-allocation trial loops: one
/// traversal workspace, one flow workspace and one union–find, each
/// reused (and cleared in O(touched) / O(n)) across every trial the
/// worker runs.
#[derive(Clone, Debug)]
pub struct TrialScratch {
    /// BFS/Dinic workspace, cleared per use via epochs.
    pub ws: TraversalWorkspace,
    /// Vertex-disjoint-path workspace (flow network + arc tables).
    pub fw: FlowWorkspace,
    /// Union–find over the vertices, for contraction/shorting events.
    pub uf: UnionFind,
    /// Lane-parallel reachability workspace, for 64-trial block events.
    pub sws: SlicedWorkspace,
}

impl TrialScratch {
    /// Scratch for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        TrialScratch {
            ws: TraversalWorkspace::new(),
            fw: FlowWorkspace::new(),
            uf: UnionFind::new(num_vertices),
            sws: SlicedWorkspace::new(),
        }
    }
}

/// Outcome of one lane-parallel event evaluation over a 64-trial block.
///
/// Bit *i* of `decided` says lane *i*'s verdict is final; for those
/// lanes bit *i* of `success` is the verdict. Undecided lanes are
/// unpacked into scalar [`FailureInstance`]s and replayed through the
/// scalar event — the *scalar-fallback contract* for lanes that need a
/// full per-instance answer (disjoint-path counts, path extraction).
/// `success` bits of undecided lanes are ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneVerdict {
    /// Lanes whose verdict is final.
    pub decided: u64,
    /// Per-lane verdicts (meaningful where `decided` is set).
    pub success: u64,
}

impl LaneVerdict {
    /// No lane decided: every trial of the block falls back to the
    /// scalar event.
    pub const UNDECIDED: LaneVerdict = LaneVerdict {
        decided: 0,
        success: 0,
    };

    /// Every lane decided with the given per-lane verdicts.
    pub fn all(success: u64) -> Self {
        LaneVerdict {
            decided: !0,
            success,
        }
    }
}

/// Bit-sliced threaded Monte Carlo: trials are grouped in blocks of
/// [`LANES`]; each block samples one [`SlicedFailureMask`] from its
/// [`block_seed`]-derived RNG and asks `lane_event` for all 64 verdicts
/// at once. Lanes the event leaves undecided are unpacked and replayed
/// through `scalar_event`; the trailing `trials % LANES` trials are the
/// first lanes of the next block, unpacked and run entirely scalar.
///
/// A block's outcome depends only on `(seed, block index)` — never on
/// which worker ran it — so the estimate is **byte-identical across
/// thread counts**.
pub fn mc_sliced_event_probability_parallel<FL, FS>(
    g: &Csr,
    model: &FailureModel,
    trials: u64,
    threads: usize,
    seed: u64,
    lane_event: FL,
    scalar_event: FS,
) -> Estimate
where
    FL: Fn(&Csr, &SlicedFailureMask, &mut TrialScratch) -> LaneVerdict + Sync,
    FS: Fn(&Csr, &FailureInstance, &mut TrialScratch) -> bool + Sync,
{
    let m = g.num_edges();
    let n = g.num_vertices();
    let threads = threads.max(1);
    let blocks = trials / LANES as u64;
    let rem = trials % LANES as u64;
    let lane_event = &lane_event;
    let scalar_event = &scalar_event;
    let mut successes = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let per = blocks / threads as u64;
        let extra = blocks % threads as u64;
        let mut next = 0u64;
        for t in 0..threads {
            let quota = per + ((t as u64) < extra) as u64;
            let range = next..next + quota;
            next += quota;
            handles.push(scope.spawn(move || {
                let mut sliced = SlicedFailureMask::new();
                let mut scratch = TrialScratch::new(n);
                let mut lane_inst = FailureInstance::perfect(m);
                let mut s = 0u64;
                for b in range {
                    let mut rng = SmallRng::seed_from_u64(block_seed(seed, b));
                    model.sample_sliced_into(&mut rng, m, &mut sliced);
                    let verdict = lane_event(g, &sliced, &mut scratch);
                    s += (verdict.success & verdict.decided).count_ones() as u64;
                    let mut undecided = !verdict.decided;
                    while undecided != 0 {
                        let lane = undecided.trailing_zeros() as usize;
                        undecided &= undecided - 1;
                        sliced.extract_lane_into(lane, lane_inst.mask_mut());
                        if scalar_event(g, &lane_inst, &mut scratch) {
                            s += 1;
                        }
                    }
                }
                s
            }));
        }
        for h in handles {
            successes += h.join().expect("monte carlo worker panicked");
        }
    });
    if rem > 0 {
        let mut rng = SmallRng::seed_from_u64(block_seed(seed, blocks));
        let mut sliced = SlicedFailureMask::new();
        model.sample_sliced_into(&mut rng, m, &mut sliced);
        let mut inst = FailureInstance::perfect(m);
        let mut scratch = TrialScratch::new(n);
        for lane in 0..rem as usize {
            sliced.extract_lane_into(lane, inst.mask_mut());
            if scalar_event(g, &inst, &mut scratch) {
                successes += 1;
            }
        }
    }
    Estimate { successes, trials }
}

/// Threaded Monte Carlo over failure instances of a fixed network:
/// **each worker owns one sliced mask and one scratch** for its whole
/// batch, so the per-trial cost is sampling (O(failures) at small ε)
/// plus whatever `event` touches — no allocation, no O(m) clearing.
///
/// `event(g, inst, scratch)` decides one trial. Trials are sampled in
/// [`LANES`]-sized blocks under the [`block_seed`] discipline and every
/// lane is unpacked for the scalar event (the all-lanes-undecided case
/// of [`mc_sliced_event_probability_parallel`]) — so the result is
/// deterministic in `seed` alone and **byte-identical across thread
/// counts**. Events that can decide whole blocks with word algebra
/// should call the sliced driver directly.
pub fn mc_event_probability_parallel<F>(
    g: &Csr,
    model: &FailureModel,
    trials: u64,
    threads: usize,
    seed: u64,
    event: F,
) -> Estimate
where
    F: Fn(&Csr, &FailureInstance, &mut TrialScratch) -> bool + Sync,
{
    mc_sliced_event_probability_parallel(
        g,
        model,
        trials,
        threads,
        seed,
        |_, _, _| LaneVerdict::UNDECIDED,
        event,
    )
}

/// Draws a Binomial(n, p) sample — convenience for calibration tests.
pub fn binomial_sample(rng: &mut SmallRng, n: u64, p: f64) -> u64 {
    let mut k = 0;
    for _ in 0..n {
        if rng.random::<f64>() < p {
            k += 1;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_estimate() {
        let e = Estimate {
            successes: 25,
            trials: 100,
        };
        assert!((e.p() - 0.25).abs() < 1e-12);
        assert!(e.std_err() > 0.0);
    }

    #[test]
    fn wilson_contains_point_estimate() {
        let e = Estimate {
            successes: 30,
            trials: 200,
        };
        let (lo, hi) = e.wilson95();
        assert!(lo < e.p() && e.p() < hi);
        assert!(lo > 0.0 && hi < 1.0);
    }

    #[test]
    fn wilson_extremes_are_sane() {
        let none = Estimate {
            successes: 0,
            trials: 100,
        };
        let (lo, hi) = none.wilson95();
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.1, "upper bound {hi}");
        let all = Estimate {
            successes: 100,
            trials: 100,
        };
        let (lo, hi) = all.wilson95();
        assert!(lo > 0.9);
        assert_eq!(hi, 1.0);
    }

    #[test]
    fn zero_trials() {
        let e = Estimate {
            successes: 0,
            trials: 0,
        };
        assert!(e.p().is_nan());
        assert_eq!(e.wilson95(), (0.0, 1.0));
    }

    #[test]
    fn estimator_converges() {
        let e = estimate_probability(100_000, 7, |rng| rng.random::<f64>() < 0.3);
        assert!((e.p() - 0.3).abs() < 0.01, "estimate {}", e.p());
        let (lo, hi) = e.wilson95();
        assert!(lo < 0.3 && 0.3 < hi);
    }

    #[test]
    fn estimator_deterministic() {
        let a = estimate_probability(1000, 5, |rng| rng.random::<f64>() < 0.5);
        let b = estimate_probability(1000, 5, |rng| rng.random::<f64>() < 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_owned_scratch_driver_converges() {
        use ft_graph::ids::v;
        use ft_graph::traversal::{bfs_into, Direction};
        // two-edge chain 0 -> 1 -> 2; P(0 reaches 2 through usable
        // switches) = (1 − ε₁)²
        let g = Csr::from_edges(3, vec![(v(0), v(1)), (v(1), v(2))]);
        let model = FailureModel::new(0.2, 0.1);
        let est = mc_event_probability_parallel(&g, &model, 40_000, 4, 21, |g, inst, scratch| {
            bfs_into(
                g,
                &[v(0)],
                Direction::Forward,
                |e| inst.is_usable(e),
                |_| true,
                &mut scratch.ws,
            );
            scratch.ws.reached(v(2))
        });
        assert_eq!(est.trials, 40_000);
        assert!((est.p() - 0.64).abs() < 0.01, "estimate {}", est.p());
    }

    #[test]
    fn sliced_fallback_and_thread_counts_agree_exactly() {
        use ft_graph::ids::v;
        use ft_graph::sliced::sliced_reach_into;
        use ft_graph::traversal::{bfs_into, Direction};
        // Trial t is lane t % 64 of block t / 64 on every path: a
        // lane-deciding event, the all-lanes-undecided worst case (every
        // trial through the scalar fallback), and every thread count
        // must produce the *same* estimate — 10_070 trials leaves a
        // 22-trial scalar tail.
        let g = Csr::from_edges(3, vec![(v(0), v(1)), (v(1), v(2))]);
        let model = FailureModel::new(0.02, 0.01);
        fn lane_event(g: &Csr, s: &SlicedFailureMask, scratch: &mut TrialScratch) -> LaneVerdict {
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
        fn scalar_event(g: &Csr, inst: &FailureInstance, scratch: &mut TrialScratch) -> bool {
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
        let sliced1 = mc_sliced_event_probability_parallel(
            &g,
            &model,
            10_070,
            1,
            9,
            lane_event,
            scalar_event,
        );
        let sliced4 = mc_sliced_event_probability_parallel(
            &g,
            &model,
            10_070,
            4,
            9,
            lane_event,
            scalar_event,
        );
        let fallback = mc_event_probability_parallel(&g, &model, 10_070, 3, 9, scalar_event);
        assert_eq!(
            sliced1, sliced4,
            "thread counts must not change the estimate"
        );
        assert_eq!(
            sliced1, fallback,
            "all-lanes-undecided fallback must equal the lane-deciding event"
        );
        // usable = not-open, so P = (1 − ε_open)² = 0.98²
        assert!(
            (sliced1.p() - 0.9604).abs() < 0.01,
            "estimate {}",
            sliced1.p()
        );
    }

    #[test]
    fn partially_decided_blocks_split_between_lane_and_scalar_paths() {
        use ft_graph::ids::v;
        use ft_graph::sliced::sliced_reach_into;
        use ft_graph::traversal::{bfs_into, Direction};
        // Even lanes answered by word algebra, odd lanes forced through
        // the scalar fallback: the mixed driver must equal the pure
        // fallback driver exactly. The chain 0 → 2 → 1 has a falling
        // edge, so the lane event's forward sweep takes the worklist.
        let g = Csr::from_edges(3, vec![(v(0), v(2)), (v(2), v(1))]);
        let model = FailureModel::new(0.03, 0.02);
        fn scalar_event(g: &Csr, inst: &FailureInstance, scratch: &mut TrialScratch) -> bool {
            bfs_into(
                g,
                &[v(0)],
                Direction::Forward,
                |e| inst.is_usable(e),
                |_| true,
                &mut scratch.ws,
            );
            scratch.ws.reached(v(1))
        }
        let mixed = mc_sliced_event_probability_parallel(
            &g,
            &model,
            4_096,
            2,
            31,
            |g, s, scratch| {
                sliced_reach_into(
                    g,
                    &[(v(0), !0)],
                    Direction::Forward,
                    |e| s.usable_word(e.index()),
                    |_| !0,
                    &mut scratch.sws,
                );
                LaneVerdict {
                    decided: 0x5555_5555_5555_5555,
                    success: scratch.sws.reached_lanes(v(1)),
                }
            },
            scalar_event,
        );
        let pure = mc_event_probability_parallel(&g, &model, 4_096, 2, 31, scalar_event);
        assert_eq!(mixed, pure);
    }

    #[test]
    fn merge_adds() {
        let a = Estimate {
            successes: 3,
            trials: 10,
        };
        let b = Estimate {
            successes: 7,
            trials: 20,
        };
        let m = a.merge(b);
        assert_eq!(m.successes, 10);
        assert_eq!(m.trials, 30);
    }

    #[test]
    fn binomial_sampler_mean() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut total = 0u64;
        for _ in 0..200 {
            total += binomial_sample(&mut rng, 100, 0.4);
        }
        let mean = total as f64 / 200.0;
        assert!((mean - 40.0).abs() < 2.0, "mean {mean}");
    }
}
