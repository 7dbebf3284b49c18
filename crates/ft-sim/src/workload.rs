//! Pluggable workload generators: who calls whom, how often, for how
//! long.
//!
//! Arrivals form a network-wide Poisson process (rate `arrival_rate`
//! calls per time unit), optionally modulated by an on/off burst phase
//! (a two-state MMPP). Each arrival draws a source/destination terminal
//! pair from a [`TrafficPattern`] and a holding time from a
//! [`HoldingTime`] distribution. All draws go through the single engine
//! RNG, in event order, so a seed pins the entire workload.

use rand::rngs::SmallRng;
use rand::Rng;

/// Draws an `Exp(mean)` holding/interarrival time. `1 - u` keeps the
/// argument of `ln` in `(0, 1]`, so the draw is finite and nonnegative.
pub fn exp_draw(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.random();
    -mean * (1.0 - u).ln()
}

/// Call holding-time distributions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HoldingTime {
    /// Exponential with the given mean — the classical telephone model
    /// (and the memoryless case Erlang B assumes… though Erlang B is in
    /// fact insensitive to the distribution beyond its mean).
    Exponential {
        /// Mean holding time.
        mean: f64,
    },
    /// Pareto (heavy-tailed) with `shape > 1` and the given mean:
    /// scale is derived as `mean · (shape − 1) / shape`.
    Pareto {
        /// Tail index α (must exceed 1 for a finite mean).
        shape: f64,
        /// Mean holding time.
        mean: f64,
    },
}

impl HoldingTime {
    /// Mean of the distribution.
    pub(crate) fn mean(&self) -> f64 {
        match *self {
            HoldingTime::Exponential { mean } | HoldingTime::Pareto { mean, .. } => mean,
        }
    }

    /// Samples one holding time.
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            HoldingTime::Exponential { mean } => exp_draw(rng, mean),
            HoldingTime::Pareto { shape, mean } => {
                let scale = mean * (shape - 1.0) / shape;
                let u: f64 = rng.random();
                // Inverse CDF; 1 - u in (0, 1] keeps the power finite.
                scale * (1.0 - u).powf(-1.0 / shape)
            }
        }
    }
}

/// Who calls whom.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Source and destination independently uniform over the terminals.
    Uniform,
    /// A fixed permutation π sampled once per seed: every call from
    /// input `i` targets output `π(i)` (`i` uniform). The paper's
    /// rearrangeable workload, served as churn.
    Permutation,
    /// Uniform sources; destinations hit the first
    /// `ceil(hot_fraction · n)` outputs with probability `p_hot`,
    /// uniform otherwise.
    Hotspot {
        /// Fraction of outputs forming the hot set, in `(0, 1]`.
        hot_fraction: f64,
        /// Probability an arrival targets the hot set.
        p_hot: f64,
    },
    /// Uniform pairs, but the Poisson arrival rate is modulated by an
    /// on/off phase process: `Exp(mean_off)` quiet phases at the base
    /// rate alternating with `Exp(mean_on)` bursts at `boost ×` the
    /// base rate.
    Bursty {
        /// Mean duration of a burst phase.
        mean_on: f64,
        /// Mean duration of a quiet phase.
        mean_off: f64,
        /// Arrival-rate multiplier during bursts (≥ 1).
        boost: f64,
    },
}

impl TrafficPattern {
    /// Draws a `(source index, destination index)` terminal pair for a
    /// network with `n` inputs and `n` outputs. `perm` is the per-seed
    /// permutation (used only by [`TrafficPattern::Permutation`]).
    pub fn sample_pair(&self, rng: &mut SmallRng, n: usize, perm: &[u32]) -> (usize, usize) {
        match *self {
            TrafficPattern::Uniform | TrafficPattern::Bursty { .. } => {
                (rng.random_range(0..n), rng.random_range(0..n))
            }
            TrafficPattern::Permutation => {
                let i = rng.random_range(0..n);
                (i, perm[i] as usize)
            }
            TrafficPattern::Hotspot {
                hot_fraction,
                p_hot,
            } => {
                let i = rng.random_range(0..n);
                let hot = ((hot_fraction * n as f64).ceil() as usize).clamp(1, n);
                let o = if rng.random::<f64>() < p_hot {
                    rng.random_range(0..hot)
                } else {
                    rng.random_range(0..n)
                };
                (i, o)
            }
        }
    }

    /// The burst parameters, if this pattern modulates the arrival rate.
    pub(crate) fn burst_params(&self) -> Option<(f64, f64, f64)> {
        match *self {
            TrafficPattern::Bursty {
                mean_on,
                mean_off,
                boost,
            } => Some((mean_on, mean_off, boost)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::rng;

    #[test]
    fn exp_draw_has_right_mean() {
        let mut r = rng(1);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| exp_draw(&mut r, 2.5)).sum();
        assert!((total / n as f64 - 2.5).abs() < 0.1);
    }

    #[test]
    fn holding_means_calibrate() {
        let mut r = rng(2);
        for dist in [
            HoldingTime::Exponential { mean: 1.5 },
            HoldingTime::Pareto {
                shape: 2.5,
                mean: 1.5,
            },
        ] {
            let n = 40_000;
            let total: f64 = (0..n).map(|_| dist.sample(&mut r)).sum();
            let mean = total / n as f64;
            assert!((mean - 1.5).abs() < 0.15, "{dist:?} mean {mean}");
            assert_eq!(dist.mean(), 1.5);
        }
    }

    #[test]
    fn pareto_is_heavier_tailed_than_exponential() {
        let mut r = rng(3);
        let exp = HoldingTime::Exponential { mean: 1.0 };
        let par = HoldingTime::Pareto {
            shape: 1.5,
            mean: 1.0,
        };
        let n = 50_000;
        let tail = |d: &HoldingTime, r: &mut _| (0..n).filter(|_| d.sample(r) > 8.0).count();
        let e_tail = tail(&exp, &mut r);
        let p_tail = tail(&par, &mut r);
        assert!(
            p_tail > 2 * e_tail,
            "exp tail {e_tail}, pareto tail {p_tail}"
        );
    }

    #[test]
    fn permutation_pattern_is_a_function() {
        let mut r = rng(4);
        let perm = vec![2u32, 0, 3, 1];
        for _ in 0..100 {
            let (i, o) = TrafficPattern::Permutation.sample_pair(&mut r, 4, &perm);
            assert_eq!(o, perm[i] as usize);
        }
    }

    #[test]
    fn hotspot_concentrates_destinations() {
        let mut r = rng(5);
        let pat = TrafficPattern::Hotspot {
            hot_fraction: 0.25,
            p_hot: 0.8,
        };
        let n = 8; // hot set = {0, 1}
        let hits = (0..10_000)
            .filter(|_| pat.sample_pair(&mut r, n, &[]).1 < 2)
            .count();
        // P(dst in hot set) = 0.8 + 0.2 * 2/8 = 0.85
        assert!((hits as f64 / 10_000.0 - 0.85).abs() < 0.02, "hits {hits}");
    }

    #[test]
    fn uniform_covers_all_pairs() {
        let mut r = rng(6);
        let mut seen = [[false; 3]; 3];
        for _ in 0..500 {
            let (i, o) = TrafficPattern::Uniform.sample_pair(&mut r, 3, &[]);
            seen[i][o] = true;
        }
        assert!(seen.iter().flatten().all(|&s| s));
    }
}
