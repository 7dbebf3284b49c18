//! The metrics pipeline: counters, occupancy integrals, per-stage
//! utilisation, time-series buckets, and the Erlang-B reference.
//!
//! Per-stage occupancy needs no per-stage state: every fabric runs
//! unit-staged from stage-0 inputs to last-stage outputs (the engine
//! asserts it per seed), so each circuit holds one vertex per stage and
//! every stage's busy count *is* the live-circuit count. `active_time`
//! and `occupancy_hist` give every stage's utilisation and occupancy
//! quantiles, bit for bit what per-stage counters would.
//!
//! Headline counters are gated on the scenario's warm-up time so
//! steady-state rates are not diluted by the empty-network transient;
//! time-series buckets always span the full run (the transient is
//! exactly what they are for).
//!
//! Distribution-shaped metrics (reroute latencies, setup cost, path
//! length, occupancy) are streamed into [`ft_obs::Hist`]
//! log-bucketed histograms instead of per-sample vectors: the per-seed
//! memory bound becomes O(occupied buckets) — a prerequisite for
//! 10⁷-event runs — and quantiles merge *exactly* across seeds by
//! summing bucket counts, so aggregate p50/p99/p999 are byte-identical
//! however the seeds were spread over worker threads.

use ft_obs::Hist;

/// Per-bucket time-series counts (buckets partition `[0, duration]`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Call arrivals in the bucket.
    pub offered: u64,
    /// Calls connected.
    pub connected: u64,
    /// Calls refused for lack of an idle path.
    pub blocked: u64,
    /// Live sessions killed by switch faults.
    pub dropped: u64,
}

/// Aggregated outcome of one simulated seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Call arrivals (post-warm-up).
    pub offered: u64,
    /// Calls connected.
    pub connected: u64,
    /// Calls refused because a terminal was busy with another circuit.
    pub rejected_busy: u64,
    /// Calls refused for lack of an idle path — *blocking* proper.
    pub blocked: u64,
    /// Calls that completed naturally (hangup).
    pub completed: u64,
    /// Live sessions killed because a fault discarded a vertex on
    /// their path.
    pub dropped: u64,
    /// Dropped sessions successfully re-routed before their hangup.
    pub rerouted: u64,
    /// Reroute operations *executed against the fabric* — the
    /// disruption axis. Under greedy rerouting every attempt counts,
    /// successful or not (a failed attempt still searched the live
    /// fabric); under min-cost kill-wave placement only committed
    /// placements count, because a failed probe changes nothing.
    /// Backoff retries and on-repair drains are greedy in both modes
    /// and count per attempt.
    pub moved: u64,
    /// Dropped sessions never re-established (lost for good).
    pub abandoned: u64,
    /// Total fault/repair events a rerouted call waited through before
    /// re-establishment (0 = rerouted within the killing fault event).
    pub reroute_latency_events: u64,
    /// Switch-fault events.
    pub faults: u64,
    /// Repair completions.
    pub repairs: u64,
    /// Fault *episodes*: storm/burst/adversary strike onsets. Under the
    /// i.i.d. process every fault opens its own episode, so
    /// `storms == faults` there.
    pub storms: u64,
    /// Killed calls shed by the admission ladder instead of queued for
    /// retry (each also counts in `abandoned`, preserving the
    /// `dropped == rerouted + abandoned` identity).
    pub shed: u64,
    /// ∫ dt over the measured window while the network was *degraded*:
    /// at least one switch failed or at least one killed call waiting.
    pub degraded_time: f64,
    /// Sum of completed degraded-interval lengths (recovery episodes
    /// whose falling edge landed in the measured window).
    pub recovery_sum: f64,
    /// Number of completed recovery episodes.
    pub recovery_count: u64,
    /// Longest completed recovery episode.
    pub recovery_max: f64,
    /// Reroute-latency distribution in churn epochs (fault/repair
    /// events waited), one sample per counted reroute; basis for
    /// p50/p99/p999. Epoch counts are small integers, so the
    /// log-bucketed quantiles are exact below 64.
    pub reroute_hist_events: Hist,
    /// Reroute-latency distribution in sim-time (kill → re-establish).
    pub reroute_hist_time: Hist,
    /// Setup-cost distribution: vertices the route search scanned
    /// (`KernelStats::bibfs_pops`) per arrival connect attempt — the deterministic search-effort analogue of
    /// setup latency (wall-clock would break byte-reproducibility).
    pub setup_cost_hist: Hist,
    /// Path-length distribution (switches) over established circuits.
    pub path_len_hist: Hist,
    /// Occupancy distribution: the live-circuit count — equal to the
    /// busy-vertex count of every stage — sampled at call arrival
    /// instants (PASTA: Poisson arrivals see time averages).
    pub occupancy_hist: Hist,
    /// Total switch count over established paths.
    pub total_path_len: u64,
    /// Longest established path (switches).
    pub max_path_len: u64,
    /// ∫ active-session count dt over the measured window — also each
    /// stage's ∫ busy-vertex count dt (see the module docs).
    pub active_time: f64,
    /// Length of the measured window (duration − warmup).
    pub measured_time: f64,
    /// Full-run time series.
    pub buckets: Vec<Bucket>,
}

impl Metrics {
    /// Fraction of offered calls refused for lack of an idle path.
    pub fn blocking_probability(&self) -> f64 {
        ratio(self.blocked, self.offered)
    }

    /// Fraction of offered calls refused because a terminal was busy.
    pub fn busy_rejection(&self) -> f64 {
        ratio(self.rejected_busy, self.offered)
    }

    /// Fraction of connected calls later killed by a fault and never
    /// re-established.
    pub fn drop_rate(&self) -> f64 {
        ratio(self.abandoned, self.connected)
    }

    /// Mean path length (switches) over established circuits.
    pub fn mean_path_len(&self) -> f64 {
        if self.connected == 0 {
            0.0
        } else {
            self.total_path_len as f64 / self.connected as f64
        }
    }

    /// Time-averaged number of active sessions (the carried load in
    /// erlangs).
    pub fn carried_erlangs(&self) -> f64 {
        if self.measured_time > 0.0 {
            self.active_time / self.measured_time
        } else {
            0.0
        }
    }

    /// Mean busy fraction of a stage of `stage_size` vertices: each
    /// stage carries one vertex of every live circuit.
    pub fn stage_utilisation(&self, stage_size: usize) -> f64 {
        if self.measured_time > 0.0 && stage_size > 0 {
            self.active_time / (self.measured_time * stage_size as f64)
        } else {
            0.0
        }
    }

    /// Mean fault/repair events waited by calls that were re-routed.
    pub fn mean_reroute_latency_events(&self) -> f64 {
        if self.rerouted == 0 {
            0.0
        } else {
            self.reroute_latency_events as f64 / self.rerouted as f64
        }
    }

    /// Mean length of a completed degraded interval — the expected
    /// sim-time from a fault episode's onset back to a fully healthy,
    /// no-calls-waiting network. 0 when no episode completed.
    pub fn time_to_recover_mean(&self) -> f64 {
        if self.recovery_count == 0 {
            0.0
        } else {
            self.recovery_sum / self.recovery_count as f64
        }
    }

    /// Killed calls per fault episode. 0 when no episode was observed.
    pub fn dropped_per_storm(&self) -> f64 {
        if self.storms == 0 {
            0.0
        } else {
            self.dropped as f64 / self.storms as f64
        }
    }

    /// Nearest-rank `p`-th percentile of reroute latency in churn
    /// epochs (fault/repair events waited). Exact for sample values
    /// below 64 (the practical range); 0 with no samples.
    pub fn reroute_latency_events_pct(&self, p: f64) -> u64 {
        self.reroute_hist_events.quantile(p) as u64
    }

    /// Nearest-rank `p`-th percentile of reroute latency in sim-time:
    /// the lower edge of the histogram bucket holding that rank (within
    /// 3.125% below the true sample). 0 with no samples.
    pub fn reroute_latency_time_pct(&self, p: f64) -> f64 {
        self.reroute_hist_time.quantile(p)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The Erlang-B blocking probability of an `m`-server loss system
/// offered `a` erlangs, by the standard recurrence
/// `B(a, k) = a·B(a, k−1) / (k + a·B(a, k−1))`, `B(a, 0) = 1`.
///
/// The low-load sanity reference: a fabric with `m` independent
/// circuits and Poisson arrivals cleared on blocking must reproduce
/// this curve, whatever the holding-time distribution (Erlang-B
/// insensitivity).
pub fn erlang_b(a: f64, m: u32) -> f64 {
    assert!(a >= 0.0, "offered load must be nonnegative");
    let mut b = 1.0;
    for k in 1..=m {
        b = a * b / (k as f64 + a * b);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_b_known_values() {
        // B(a, 0) = 1 for any load; B(0, m) = 0 for m >= 1
        assert_eq!(erlang_b(5.0, 0), 1.0);
        assert_eq!(erlang_b(0.0, 10), 0.0);
        // single server: B = a / (1 + a)
        assert!((erlang_b(1.0, 1) - 0.5).abs() < 1e-12);
        assert!((erlang_b(0.5, 1) - 1.0 / 3.0).abs() < 1e-12);
        // classical table value: B(10 erlangs, 10 servers) ≈ 0.2146
        assert!((erlang_b(10.0, 10) - 0.2146).abs() < 5e-4);
        // monotone in load, anti-monotone in servers
        assert!(erlang_b(2.0, 5) < erlang_b(4.0, 5));
        assert!(erlang_b(4.0, 8) < erlang_b(4.0, 5));
    }

    #[test]
    fn ratios_handle_empty_runs() {
        let m = Metrics::default();
        assert_eq!(m.blocking_probability(), 0.0);
        assert_eq!(m.busy_rejection(), 0.0);
        assert_eq!(m.drop_rate(), 0.0);
        assert_eq!(m.mean_path_len(), 0.0);
        assert_eq!(m.carried_erlangs(), 0.0);
        assert_eq!(m.mean_reroute_latency_events(), 0.0);
    }

    #[test]
    fn recovery_metrics() {
        let mut m = Metrics {
            dropped: 12,
            storms: 4,
            recovery_sum: 6.0,
            recovery_count: 3,
            recovery_max: 4.0,
            ..Metrics::default()
        };
        for s in [5, 1, 3, 2, 4] {
            m.reroute_hist_events.record(s as f64);
        }
        for s in [0.5, 0.1, 0.3, 0.2, 0.4] {
            m.reroute_hist_time.record(s);
        }
        assert!((m.time_to_recover_mean() - 2.0).abs() < 1e-12);
        assert!((m.dropped_per_storm() - 3.0).abs() < 1e-12);
        // nearest rank over 5 samples: p50 → rank 3, p99 → rank 5 —
        // exact, because the samples are small integers.
        assert_eq!(m.reroute_latency_events_pct(50.0), 3);
        assert_eq!(m.reroute_latency_events_pct(99.0), 5);
        // Continuous samples come back as their bucket's lower edge:
        // within 1/32 below the true nearest-rank sample.
        for (p, exact) in [(50.0, 0.3), (99.0, 0.5)] {
            let got = m.reroute_latency_time_pct(p);
            assert!(
                got <= exact && got >= exact * (1.0 - 1.0 / 32.0),
                "p{p}: {got}"
            );
        }
        // Powers of two are bucket edges, hence exact.
        assert_eq!(m.reroute_latency_time_pct(99.0), 0.5);
        // empty-sample / zero-count cases fall back to 0
        let z = Metrics::default();
        assert_eq!(z.time_to_recover_mean(), 0.0);
        assert_eq!(z.dropped_per_storm(), 0.0);
        assert_eq!(z.reroute_latency_events_pct(99.0), 0);
        assert_eq!(z.reroute_latency_time_pct(99.0), 0.0);
    }

    #[test]
    fn derived_rates() {
        let m = Metrics {
            offered: 100,
            connected: 80,
            blocked: 15,
            rejected_busy: 5,
            abandoned: 8,
            rerouted: 4,
            reroute_latency_events: 6,
            total_path_len: 240,
            active_time: 50.0,
            measured_time: 25.0,
            ..Metrics::default()
        };
        assert!((m.blocking_probability() - 0.15).abs() < 1e-12);
        assert!((m.busy_rejection() - 0.05).abs() < 1e-12);
        assert!((m.drop_rate() - 0.1).abs() < 1e-12);
        assert!((m.mean_path_len() - 3.0).abs() < 1e-12);
        assert!((m.carried_erlangs() - 2.0).abs() < 1e-12);
        assert!((m.stage_utilisation(4) - 0.5).abs() < 1e-12);
        assert!((m.mean_reroute_latency_events() - 1.5).abs() < 1e-12);
    }
}
