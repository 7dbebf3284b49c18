//! Monte Carlo estimation with confidence intervals.
//!
//! Every probabilistic claim in the paper (Lemmas 3–7, Theorem 2's δ) is
//! reproduced by sampling failure instances. This module provides the
//! shared estimate: Bernoulli trials and Wilson score intervals (robust
//! at the extreme probabilities the paper lives at). The estimators
//! that fill one live with their events
//! ([`crate::reliability::TwoTerminal::mc_failure_probs`],
//! `ft_sim::pair_blocking_estimate`): each samples 64-trial blocks
//! seeded by [`crate::block_seed`] alone.

use rand::rngs::SmallRng;
use rand::SeedableRng;

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
    pub(crate) fn wilson(&self, z: f64) -> (f64, f64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn point_estimate() {
        let e = Estimate {
            successes: 25,
            trials: 100,
        };
        assert!((e.p() - 0.25).abs() < 1e-12);
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
    fn wilson95_known_answers() {
        // the 95 % score interval, z = 1.959964; a 90 % one (z = 1.645)
        // would read (0.113153, 0.196192) on 30/200
        for (successes, trials, want) in [
            (30, 200, (0.107135935335, 0.206055793333)),
            (1, 10, (0.017876212896, 0.404150029525)),
            (0, 100, (0.0, 0.036993498769)),
        ] {
            let (lo, hi) = Estimate { successes, trials }.wilson95();
            assert!((lo - want.0).abs() < 1e-9, "{successes}/{trials}: lo {lo}");
            assert!((hi - want.1).abs() < 1e-9, "{successes}/{trials}: hi {hi}");
        }
    }
}
