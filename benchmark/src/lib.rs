//! The repo benchmark: eight workloads over `ftserve`, `ftsim` and the
//! sliced Monte Carlo layer, measured from outside through public
//! functions only. See `benchmark/README.md` for what each metric and
//! workload is for.
//!
//! Two binaries share this library. `ftbench` makes the untraced run
//! that yields the end-to-end metrics. `ftbench-ladder` installs a
//! counting allocator and makes the traced run: it replays the start of
//! a workload rung by rung, from the innermost kernel outwards, with a
//! span around every call into a layer, and yields the per-layer
//! metrics. Tracing never touches the end-to-end numbers.

pub mod alloc;
pub mod bare;
pub mod cli;
pub mod mc;
pub mod opstream;
pub mod procstat;
pub mod report;
pub mod reps;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod tables;

use std::time::{Duration, Instant};

use report::Outcome;

/// Set-up is repeated at least this often in one run, and then until
/// [`SETUP_BUDGET`] is spent or [`MAX_SETUPS`] are done.
const MIN_SETUPS: usize = 15;
const MAX_SETUPS: usize = 5000;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// What the run-validity guard looks at.
#[derive(Clone, Copy, Debug)]
pub struct Validity {
    /// Share of reads in the measured window entered with fewer than
    /// the intended number of requests in flight (serve workloads).
    pub underfull_share: f64,
    /// How far the second-best rep's rate falls short of the best
    /// rep's, as a share of the best.
    pub runner_up_gap: f64,
    /// Largest relative distance of a rep's rate from the median rate:
    /// how rough the weather was. Printed, not judged — ISSUE 11's rule
    /// "invalid if any rep is 25 % off the median" was written for five
    /// 2 s reps and condemned all 60 serve runs and half the others of
    /// the baseline sets on this box.
    pub max_rep_deviation: f64,
    /// Reps measured.
    pub reps: usize,
}

impl Validity {
    /// A run is valid if the pipe stayed full (under-full at most 1 %
    /// of the window) and the reported best rep does not stand alone:
    /// the runner-up is within 25 % of it.
    pub fn is_valid(&self) -> bool {
        self.underfull_share <= 0.01 && self.runner_up_gap <= 0.25
    }
}

/// The per-layer metrics a traced run measured, by name.
pub type Layers = Vec<(&'static str, f64)>;

/// One untraced run of one workload.
pub struct Run {
    pub outcome: Outcome,
    pub validity: Validity,
}

/// Sets up repeatedly, tearing down all but the last; returns
/// `setup_s` and the last set-up, which the run then measures on.
/// Tear-down is not part of `setup_s`.
///
/// `setup_s` is the fastest repeat, as every figure is the best of its
/// reps ([`stats::best`]). Repeated set-ups in one process are, besides,
/// bimodal: building the 19 424-switch network took 0.67–0.72 ms or
/// 1.08–1.2 ms depending on whether the allocator served the large
/// buffers from its heap or mapped fresh pages, in streaks whose share
/// changed from run to run, so the median flipped between the modes
/// (0.76–1.23 ms over six runs) while the fastest repeat stayed at
/// 0.667–0.680 ms in five of the six.
pub fn setup_repeatedly<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let made = make()?;
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS && begun.elapsed() >= SETUP_BUDGET;
        if enough || times.len() >= MAX_SETUPS {
            let fastest = stats::best(&times, false);
            println!(
                "setup repeats={} fastest_s={fastest} median_s={}",
                times.len(),
                stats::median(&times)
            );
            return Ok((fastest, made));
        }
        tear_down(made)?;
    }
}

/// Every per-layer metric in table order: the measured ones with their
/// value, the rest 0 — a layer that is not on this workload's path did
/// no work on it.
pub fn per_layer_metrics(measured: &[(&'static str, f64)]) -> Vec<(String, f64)> {
    for (name, _) in measured {
        assert!(
            tables::PER_LAYER.iter().any(|m| m.name == *name),
            "per-layer metric {name} not in the tables"
        );
    }
    tables::PER_LAYER
        .iter()
        .map(|m| {
            let value = measured
                .iter()
                .find_map(|(n, v)| (*n == m.name).then_some(*v))
                .unwrap_or(0.0);
            (m.name.to_string(), value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_repeated_and_the_last_one_is_kept() {
        let mut made = 0u32;
        let mut torn = 0u32;
        let (setup_s, last) = setup_repeatedly(
            || {
                made += 1;
                Ok(made)
            },
            |_| {
                torn += 1;
                Ok(())
            },
        )
        .unwrap();
        assert!(setup_s >= 0.0);
        assert_eq!(last, made);
        assert_eq!(torn, made - 1);
        assert!(made as usize >= MIN_SETUPS);
    }
}
