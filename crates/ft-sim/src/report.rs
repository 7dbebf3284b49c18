//! JSON reports: per-seed rows plus cross-seed aggregates.
//!
//! The report goes through [`ft_obs::JsonWriter`] and is deterministic:
//! fixed key order, Rust's shortest-round-trip float formatting, `\n`
//! separators — a fixed `(scenario, seeds)` pair renders a
//! byte-identical report on every run, which `tests/determinism.rs`
//! pins.

use crate::engine::SeedOutcome;
use crate::fabric::Fabric;
use crate::metrics::Metrics;
use crate::scenario::Scenario;
use ft_obs::{Hist, JsonWriter, Layout};

/// A finished sweep, ready to render.
#[derive(Clone, Debug)]
pub struct Report {
    /// The scenario that produced the sweep.
    pub(crate) scenario: Scenario,
    /// Fabric label (family and size actually built).
    pub(crate) fabric_label: String,
    /// Switch count of the fabric.
    pub(crate) fabric_switches: usize,
    /// Terminal count of the fabric.
    pub(crate) fabric_terminals: usize,
    /// Vertex count of each stage (utilisation denominators).
    pub(crate) stage_sizes: Vec<usize>,
    /// One outcome per seed, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

/// Mean, sample standard deviation and 95% CI half-width over `xs`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std: f64,
    /// Normal-approximation 95% half-width `1.96·std/√n`.
    pub ci95: f64,
}

/// Computes a [`Stat`] over an exact-sized iterator of samples.
pub fn stat(xs: impl Iterator<Item = f64> + Clone) -> Stat {
    let n = xs.clone().count();
    if n == 0 {
        return Stat {
            mean: 0.0,
            std: 0.0,
            ci95: 0.0,
        };
    }
    let mean = xs.clone().sum::<f64>() / n as f64;
    if n == 1 {
        return Stat {
            mean,
            std: 0.0,
            ci95: 0.0,
        };
    }
    let var = xs.map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    let std = var.sqrt();
    Stat {
        mean,
        std,
        ci95: 1.96 * std / (n as f64).sqrt(),
    }
}

/// Writes the `reroute_latency_quantiles` member: p50, p99 and p999 of
/// merged reroute-latency histograms, in events and in sim-time.
pub fn write_latency_quantiles(j: &mut JsonWriter, events: &Hist, time: &Hist) {
    j.key("reroute_latency_quantiles")
        .object(Layout::Inline)
        .field("events_p50", events.quantile(50.0) as u64)
        .field("events_p99", events.quantile(99.0) as u64)
        .field("events_p999", events.quantile(99.9) as u64)
        .field("time_p50", time.quantile(50.0))
        .field("time_p99", time.quantile(99.0))
        .field("time_p999", time.quantile(99.9))
        .end();
}

impl Report {
    /// Assembles a report from a scenario, the fabric it built and the
    /// seed outcomes. (The fabric is passed in rather than rebuilt from
    /// the spec — for 𝒩 a rebuild re-runs the whole expander
    /// construction.)
    pub fn new(scenario: Scenario, fabric: &Fabric, outcomes: Vec<SeedOutcome>) -> Report {
        let stage_sizes = (0..fabric.net().num_stages())
            .map(|s| {
                let r = fabric.net().stage_range(s);
                (r.end - r.start) as usize
            })
            .collect();
        Report {
            fabric_label: fabric.label(),
            fabric_switches: fabric.net().size(),
            fabric_terminals: fabric.terminals(),
            stage_sizes,
            scenario,
            outcomes,
        }
    }

    /// Renders the deterministic JSON document.
    pub fn to_json(&self) -> String {
        use Layout::{Block, Inline};
        let c = &self.scenario.config;
        let mut j = JsonWriter::new();
        j.object(Block)
            .key("scenario")
            .object(Block)
            .field("network", self.scenario.fabric.to_spec_string())
            .field("fabric", &self.fabric_label)
            .field("switches", self.fabric_switches)
            .field("terminals", self.fabric_terminals)
            .field("pattern", format!("{:?}", c.pattern))
            .field("holding", format!("{:?}", c.holding))
            .field("arrival_rate", c.arrival_rate)
            .field("offered_erlangs", c.arrival_rate * c.holding.mean())
            .field("fault_rate", c.fault_rate)
            .field("fault_open_share", c.fault_open_share)
            .field("mttr", c.mttr)
            .field("faults", c.faults.to_spec_string())
            .field("retry", c.retry.to_spec_string())
            .field("reroute", c.reroute.to_spec_string())
            .field("duration", c.duration)
            .field("warmup", c.warmup)
            .field("seed_base", self.scenario.seed_base)
            .field("seeds", self.scenario.seeds)
            .end()
            .key("per_seed")
            .array(Block);
        for o in &self.outcomes {
            let m = &o.metrics;
            j.object(Block);
            j.field("seed", o.seed);
            j.field("events", o.events);
            j.field("fingerprint", format!("{:#018x}", o.fingerprint));
            j.field("offered", m.offered);
            j.field("connected", m.connected);
            j.field("blocked", m.blocked);
            j.field("rejected_busy", m.rejected_busy);
            j.field("completed", m.completed);
            j.field("dropped", m.dropped);
            j.field("rerouted", m.rerouted);
            j.field("moved", m.moved);
            j.field("abandoned", m.abandoned);
            j.field("faults", m.faults);
            j.field("repairs", m.repairs);
            j.field("storms", m.storms);
            j.field("shed", m.shed);
            j.field("degraded_time", m.degraded_time);
            j.field("recovery_episodes", m.recovery_count);
            j.field("time_to_recover", m.time_to_recover_mean());
            j.field("dropped_per_storm", m.dropped_per_storm());
            j.field("blocking_probability", m.blocking_probability());
            j.field("busy_rejection", m.busy_rejection());
            j.field("drop_rate", m.drop_rate());
            j.field("mean_path_len", m.mean_path_len());
            j.field("max_path_len", m.max_path_len);
            j.field("carried_erlangs", m.carried_erlangs());
            j.field(
                "mean_reroute_latency_events",
                m.mean_reroute_latency_events(),
            );
            j.field(
                "reroute_latency_events_p50",
                m.reroute_latency_events_pct(50.0),
            );
            j.field(
                "reroute_latency_events_p99",
                m.reroute_latency_events_pct(99.0),
            );
            j.field("reroute_latency_time_p50", m.reroute_latency_time_pct(50.0));
            j.field("reroute_latency_time_p99", m.reroute_latency_time_pct(99.0));
            j.field(
                "reroute_latency_events_p999",
                m.reroute_latency_events_pct(99.9),
            );
            j.field(
                "reroute_latency_time_p999",
                m.reroute_latency_time_pct(99.9),
            );
            j.field("setup_cost_p50", m.setup_cost_hist.quantile(50.0));
            j.field("setup_cost_p99", m.setup_cost_hist.quantile(99.0));
            j.field("path_len_p50", m.path_len_hist.quantile(50.0));
            j.field("path_len_p99", m.path_len_hist.quantile(99.0));
            j.key("stage_utilisation").array(Inline);
            for &size in &self.stage_sizes {
                j.value(m.stage_utilisation(size));
            }
            j.end().key("stage_occupancy_p99").array(Inline);
            let occupancy_p99 = m.occupancy_hist.quantile(99.0);
            for _ in &self.stage_sizes {
                j.value(occupancy_p99);
            }
            j.end().key("buckets").array(Inline);
            for b in &m.buckets {
                j.object(Inline)
                    .field("offered", b.offered)
                    .field("connected", b.connected)
                    .field("blocked", b.blocked)
                    .field("dropped", b.dropped)
                    .end();
            }
            j.end().end();
        }
        j.end().key("aggregate").object(Block);
        for (name, metric) in [
            (
                "blocking_probability",
                Metrics::blocking_probability as fn(&_) -> _,
            ),
            ("busy_rejection", Metrics::busy_rejection),
            ("drop_rate", Metrics::drop_rate),
            ("carried_erlangs", Metrics::carried_erlangs),
            ("mean_path_len", Metrics::mean_path_len),
            ("time_to_recover", Metrics::time_to_recover_mean),
            ("dropped_per_storm", Metrics::dropped_per_storm),
        ] {
            let s = stat(self.outcomes.iter().map(|o| metric(&o.metrics)));
            j.key(name).object(Inline);
            j.field("mean", s.mean).field("std", s.std).end();
        }
        // Cross-seed latency quantiles from the *merged* histograms —
        // exact (not a mean of per-seed quantiles) and byte-identical
        // however the seeds were partitioned over workers.
        let (mut events, mut time) = (Hist::new(), Hist::new());
        for o in &self.outcomes {
            events.merge(&o.metrics.reroute_hist_events);
            time.merge(&o.metrics.reroute_hist_time);
        }
        write_latency_quantiles(&mut j, &events, &time);
        j.end().end();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep;

    fn tiny_report() -> Report {
        let scenario = Scenario::parse(
            "network = clos-strict 2 2\narrival_rate = 3\nduration = 20\nseeds = 2\nbuckets = 2\n",
        )
        .unwrap();
        let fabric = scenario.fabric.build();
        let outcomes = run_sweep(&fabric, &scenario.config, &scenario.seed_list(), 1);
        Report::new(scenario, &fabric, outcomes)
    }

    #[test]
    fn json_is_reproducible_and_wellformed() {
        let a = tiny_report().to_json();
        let b = tiny_report().to_json();
        assert_eq!(a, b);
        // cheap structural sanity without a JSON parser: balanced
        // braces/brackets outside of strings, expected keys present
        let depth = a.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        for key in [
            "\"scenario\"",
            "\"per_seed\"",
            "\"aggregate\"",
            "\"fingerprint\"",
            "\"blocking_probability\"",
            "\"stage_utilisation\"",
            "\"buckets\"",
            "\"faults\": \"iid\"",
            "\"retry\": \"on-repair\"",
            "\"reroute\": \"greedy\"",
            "\"moved\"",
            "\"storms\"",
            "\"degraded_time\"",
            "\"recovery_episodes\"",
            "\"time_to_recover\"",
            "\"dropped_per_storm\"",
            "\"reroute_latency_events_p99\"",
            "\"reroute_latency_time_p50\"",
            "\"reroute_latency_events_p999\"",
            "\"setup_cost_p50\"",
            "\"path_len_p99\"",
            "\"stage_occupancy_p99\"",
            "\"reroute_latency_quantiles\"",
        ] {
            assert!(a.contains(key), "missing {key} in\n{a}");
        }
        assert_eq!(a.matches("\"seed\":").count(), 2);
    }

    /// Known answer for the setup-cost quantiles, through the rendering
    /// path `ftsim` prints: on a fault-free, lightly loaded 𝒩 at ν = 1
    /// (paths of 5 vertices) nothing obstructs the route search, so every
    /// connect scans one vertex per switch of its path — 4 — and no call
    /// is blocked.
    #[test]
    fn setup_cost_of_an_unobstructed_connect_is_its_path_length() {
        let json = crate::run_scenario_text(
            "network = ftn 1 8 4 1.0\narrival_rate = 0.5\nholding = exp 0.2\n\
             fault_rate = 0\nduration = 400\nseeds = 2\nbuckets = 2\n",
        )
        .unwrap()
        .to_json();
        // whole lines: the per-bucket objects carry a "blocked" too
        for line in [
            "      \"blocked\": 0,\n",
            "      \"setup_cost_p50\": 4,\n",
            "      \"setup_cost_p99\": 4,\n",
            "      \"path_len_p50\": 4,\n",
        ] {
            assert_eq!(json.matches(line).count(), 2, "{line} per seed in\n{json}");
        }
    }

    #[test]
    fn stat_basics() {
        let s = stat([1.0, 3.0].into_iter());
        assert_eq!(s.mean, 2.0);
        assert!((s.std - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * s.std / 2.0f64.sqrt()).abs() < 1e-12);
        let zero = Stat {
            mean: 0.0,
            std: 0.0,
            ci95: 0.0,
        };
        assert_eq!(stat(std::iter::empty()), zero);
        let one = stat([5.0].into_iter());
        assert_eq!((one.mean, one.std, one.ci95), (5.0, 0.0, 0.0));
    }
}
