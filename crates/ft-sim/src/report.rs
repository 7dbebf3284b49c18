//! JSON reports: per-seed rows plus cross-seed aggregates.
//!
//! The writer is hand-rolled (no serde in the offline container) and
//! deterministic: fixed key order, Rust's shortest-round-trip float
//! formatting, `\n` separators — a fixed `(scenario, seeds)` pair
//! renders a byte-identical report on every run, which
//! `tests/determinism.rs` pins.

use crate::engine::SeedOutcome;
use crate::fabric::Fabric;
use crate::scenario::Scenario;
use ft_obs::json_str;

/// A finished sweep, ready to render.
#[derive(Clone, Debug)]
pub struct Report {
    /// The scenario that produced the sweep.
    pub scenario: Scenario,
    /// Fabric label (family and size actually built).
    pub fabric_label: String,
    /// Switch count of the fabric.
    pub fabric_switches: usize,
    /// Terminal count of the fabric.
    pub fabric_terminals: usize,
    /// Vertex count of each stage (utilisation denominators).
    pub stage_sizes: Vec<usize>,
    /// One outcome per seed, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

/// Mean and sample standard deviation of `xs`.
fn mean_std(xs: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = xs.clone().count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = xs.clone().sum::<f64>() / n as f64;
    if n == 1 {
        return (mean, 0.0);
    }
    let var = xs.map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    (mean, var.sqrt())
}

fn push_kv(out: &mut String, indent: &str, key: &str, value: &str, last: bool) {
    out.push_str(indent);
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
    out.push_str(value);
    if !last {
        out.push(',');
    }
    out.push('\n');
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

    /// Mean blocking probability across seeds.
    pub fn mean_blocking(&self) -> f64 {
        mean_std(
            self.outcomes
                .iter()
                .map(|o| o.metrics.blocking_probability()),
        )
        .0
    }

    /// Renders the deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let c = &self.scenario.config;
        out.push_str("{\n");
        out.push_str("  \"scenario\": {\n");
        push_kv(
            &mut out,
            "    ",
            "network",
            &json_str(&self.scenario.fabric.to_spec_string()),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "fabric",
            &json_str(&self.fabric_label),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "switches",
            &self.fabric_switches.to_string(),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "terminals",
            &self.fabric_terminals.to_string(),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "pattern",
            &json_str(&format!("{:?}", c.pattern)),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "holding",
            &json_str(&format!("{:?}", c.holding)),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "arrival_rate",
            &c.arrival_rate.to_string(),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "offered_erlangs",
            &(c.arrival_rate * c.holding.mean()).to_string(),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "fault_rate",
            &c.fault_rate.to_string(),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "fault_open_share",
            &c.fault_open_share.to_string(),
            false,
        );
        push_kv(&mut out, "    ", "mttr", &c.mttr.to_string(), false);
        push_kv(
            &mut out,
            "    ",
            "faults",
            &json_str(&c.faults.to_spec_string()),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "retry",
            &json_str(&c.retry.to_spec_string()),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "reroute",
            &json_str(c.reroute.to_spec_string()),
            false,
        );
        push_kv(&mut out, "    ", "duration", &c.duration.to_string(), false);
        push_kv(&mut out, "    ", "warmup", &c.warmup.to_string(), false);
        push_kv(
            &mut out,
            "    ",
            "seed_base",
            &self.scenario.seed_base.to_string(),
            false,
        );
        push_kv(
            &mut out,
            "    ",
            "seeds",
            &self.scenario.seeds.to_string(),
            true,
        );
        out.push_str("  },\n");

        out.push_str("  \"per_seed\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let m = &o.metrics;
            out.push_str("    {\n");
            push_kv(&mut out, "      ", "seed", &o.seed.to_string(), false);
            push_kv(&mut out, "      ", "events", &o.events.to_string(), false);
            push_kv(
                &mut out,
                "      ",
                "fingerprint",
                &json_str(&format!("{:#018x}", o.fingerprint)),
                false,
            );
            push_kv(&mut out, "      ", "offered", &m.offered.to_string(), false);
            push_kv(
                &mut out,
                "      ",
                "connected",
                &m.connected.to_string(),
                false,
            );
            push_kv(&mut out, "      ", "blocked", &m.blocked.to_string(), false);
            push_kv(
                &mut out,
                "      ",
                "rejected_busy",
                &m.rejected_busy.to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "completed",
                &m.completed.to_string(),
                false,
            );
            push_kv(&mut out, "      ", "dropped", &m.dropped.to_string(), false);
            push_kv(
                &mut out,
                "      ",
                "rerouted",
                &m.rerouted.to_string(),
                false,
            );
            push_kv(&mut out, "      ", "moved", &m.moved.to_string(), false);
            push_kv(
                &mut out,
                "      ",
                "abandoned",
                &m.abandoned.to_string(),
                false,
            );
            push_kv(&mut out, "      ", "faults", &m.faults.to_string(), false);
            push_kv(&mut out, "      ", "repairs", &m.repairs.to_string(), false);
            push_kv(&mut out, "      ", "storms", &m.storms.to_string(), false);
            push_kv(&mut out, "      ", "shed", &m.shed.to_string(), false);
            push_kv(
                &mut out,
                "      ",
                "degraded_time",
                &m.degraded_time.to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "recovery_episodes",
                &m.recovery_count.to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "time_to_recover",
                &m.time_to_recover_mean().to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "dropped_per_storm",
                &m.dropped_per_storm().to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "blocking_probability",
                &m.blocking_probability().to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "busy_rejection",
                &m.busy_rejection().to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "drop_rate",
                &m.drop_rate().to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "mean_path_len",
                &m.mean_path_len().to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "max_path_len",
                &m.max_path_len.to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "carried_erlangs",
                &m.carried_erlangs().to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "mean_reroute_latency_events",
                &m.mean_reroute_latency_events().to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "reroute_latency_events_p50",
                &m.reroute_latency_events_pct(50.0).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "reroute_latency_events_p99",
                &m.reroute_latency_events_pct(99.0).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "reroute_latency_time_p50",
                &m.reroute_latency_time_pct(50.0).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "reroute_latency_time_p99",
                &m.reroute_latency_time_pct(99.0).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "reroute_latency_events_p999",
                &m.reroute_latency_events_pct(99.9).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "reroute_latency_time_p999",
                &m.reroute_latency_time_pct(99.9).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "setup_cost_p50",
                &m.setup_cost_hist.quantile(50.0).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "setup_cost_p99",
                &m.setup_cost_hist.quantile(99.0).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "path_len_p50",
                &m.path_len_hist.quantile(50.0).to_string(),
                false,
            );
            push_kv(
                &mut out,
                "      ",
                "path_len_p99",
                &m.path_len_hist.quantile(99.0).to_string(),
                false,
            );
            let utilisation: Vec<String> = (0..m.stage_busy_time.len())
                .map(|s| m.stage_utilisation(s, self.stage_sizes[s]).to_string())
                .collect();
            push_kv(
                &mut out,
                "      ",
                "stage_utilisation",
                &format!("[{}]", utilisation.join(", ")),
                false,
            );
            let occupancy_p99: Vec<String> = m
                .stage_occupancy_hist
                .iter()
                .map(|h| h.quantile(99.0).to_string())
                .collect();
            push_kv(
                &mut out,
                "      ",
                "stage_occupancy_p99",
                &format!("[{}]", occupancy_p99.join(", ")),
                false,
            );
            let buckets: Vec<String> = m
                .buckets
                .iter()
                .map(|b| {
                    format!(
                        "{{\"offered\": {}, \"connected\": {}, \"blocked\": {}, \"dropped\": {}}}",
                        b.offered, b.connected, b.blocked, b.dropped
                    )
                })
                .collect();
            push_kv(
                &mut out,
                "      ",
                "buckets",
                &format!("[{}]", buckets.join(", ")),
                true,
            );
            out.push_str(if i + 1 == self.outcomes.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n");

        out.push_str("  \"aggregate\": {\n");
        let stats = [
            (
                "blocking_probability",
                mean_std(
                    self.outcomes
                        .iter()
                        .map(|o| o.metrics.blocking_probability()),
                ),
            ),
            (
                "busy_rejection",
                mean_std(self.outcomes.iter().map(|o| o.metrics.busy_rejection())),
            ),
            (
                "drop_rate",
                mean_std(self.outcomes.iter().map(|o| o.metrics.drop_rate())),
            ),
            (
                "carried_erlangs",
                mean_std(self.outcomes.iter().map(|o| o.metrics.carried_erlangs())),
            ),
            (
                "mean_path_len",
                mean_std(self.outcomes.iter().map(|o| o.metrics.mean_path_len())),
            ),
            (
                "time_to_recover",
                mean_std(
                    self.outcomes
                        .iter()
                        .map(|o| o.metrics.time_to_recover_mean()),
                ),
            ),
            (
                "dropped_per_storm",
                mean_std(self.outcomes.iter().map(|o| o.metrics.dropped_per_storm())),
            ),
        ];
        for (name, (mean, std)) in stats.iter() {
            push_kv(
                &mut out,
                "    ",
                name,
                &format!("{{\"mean\": {mean}, \"std\": {std}}}"),
                false,
            );
        }
        // Cross-seed latency quantiles from the *merged* histograms —
        // exact (not a mean of per-seed quantiles) and byte-identical
        // however the seeds were partitioned over workers.
        let mut events = ft_obs::Hist::new();
        let mut time = ft_obs::Hist::new();
        for o in &self.outcomes {
            events.merge(&o.metrics.reroute_hist_events);
            time.merge(&o.metrics.reroute_hist_time);
        }
        push_kv(
            &mut out,
            "    ",
            "reroute_latency_quantiles",
            &format!(
                "{{\"events_p50\": {}, \"events_p99\": {}, \"events_p999\": {}, \
                 \"time_p50\": {}, \"time_p99\": {}, \"time_p999\": {}}}",
                events.quantile(50.0) as u64,
                events.quantile(99.0) as u64,
                events.quantile(99.9) as u64,
                time.quantile(50.0),
                time.quantile(99.0),
                time.quantile(99.9),
            ),
            true,
        );
        out.push_str("  }\n");
        out.push_str("}\n");
        out
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
    fn string_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std([1.0, 3.0].into_iter());
        assert_eq!(m, 2.0);
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
        let (m, s) = mean_std(std::iter::empty());
        assert_eq!((m, s), (0.0, 0.0));
        let (m, s) = mean_std([5.0].into_iter());
        assert_eq!((m, s), (5.0, 0.0));
    }
}
