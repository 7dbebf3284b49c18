//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is [`benchmark_json`] written to a file; a unit test keeps the
//! two equal, so these tables are the only place a name is spelled.

use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds`; the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// A named set of inputs.
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers do the work, and what must not move it.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "serve_clos_pipelined",
        why: "ftserve on clos-strict 4 4, 16 requests in flight: routing is nearly free, so frontend threads, queue hop, framing and syscalls do the work; a router change must show nothing",
    },
    Workload {
        name: "serve_ftn_pipelined",
        why: "the same stream on ftn 2 8 8 1.0 (19 424 switches): adds a bibfs_into search to every circuit; the pair with serve_clos_pipelined separates wire from router",
    },
    Workload {
        name: "serve_ftn_storm",
        why: "serve_ftn_pipelined with hold 12 and seeded waves of 64 FAULTs then 64 REPAIRs (a quarter of all requests): alive tracker, kill wave and id maps do work; no connect may be blocked",
    },
    Workload {
        name: "sim_ftn_hotspot",
        why: "ftsim engine on ftn 2 8 8 1.0, hotspot traffic with iid faults on one SimWorkspace: the route search dominates, so this is the router-bound simulation",
    },
    Workload {
        name: "sim_clos_storm",
        why: "ftsim engine on clos-strict 4 4 with stage storms, the retry/shed ladder and reroute = mincost: event queue, draws, metrics and the min-cost planner do the work; routing is trivial",
    },
    Workload {
        name: "sim_clos_storm_traced",
        why: "sim_clos_storm through run_seed_obs with ft_obs::TraceBuf: same engine, observer on; a tracing-cost fix must move this one while sim_clos_storm stays put",
    },
    Workload {
        name: "mc_ftn_repair",
        why: "pair_blocking_estimate on ftn 2 8 8 1.0 at symmetric eps 0.02: the per-lane Survivor repair in Fabric::alive_words_into dominates each 64-lane block",
    },
    Workload {
        name: "mc_benes_sample",
        why: "pair_blocking_estimate on benes 10 at symmetric eps 0.02: the sliced failure sampler dominates each block and the repair is cheap; the mirror image of mc_ftn_repair",
    },
];

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may get worse before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_work",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "request_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// A metric of one layer, measured from outside by the traced run.
/// No bound: these explain an end-to-end move, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

pub const PER_LAYER: [PerLayer; 43] = [
    cost("ft-core.build_ns", "ns"),
    cost("ft-graph.csr_build_ns", "ns"),
    cost("ft-graph.bibfs_ns_per_search", "ns"),
    cost("ft-graph.bibfs_pops_per_search", "count"),
    cost("ft-networks.connect_ns_per_circuit", "ns"),
    cost("ft-failure.tracker_ns_per_fault", "ns"),
    cost("ft-networks.kill_ns_per_fault", "ns"),
    cost("ft-serve.engine.killed_per_fault", "count"),
    cost("ft-serve.engine.killed_share", "share"),
    cost("ft-serve.engine.job_ns_per_circuit", "ns"),
    cost("ft-serve.engine.self_ns_per_circuit", "ns"),
    cost("ft-serve.engine.job_lockstep_p50_us", "us"),
    cost("ft-serve.protocol.codec_ns_per_frame", "ns"),
    cost("ft-serve.server.frontend_ns_per_circuit", "ns"),
    cost("ft-serve.client.rtt_lockstep_p50_us", "us"),
    cost("ft-serve.client.rtt_lockstep_p99_us", "us"),
    cost("ft-serve.client.rtt_p99_us", "us"),
    cost("ft-serve.allocs_per_circuit", "count"),
    cost("ft-serve.engine.blocked_share", "share"),
    cost("ft-serve.server.shed_share", "share"),
    cost("ft-serve.engine.path_hops_p50", "count"),
    cost("ft-sim.engine.ns_per_event", "ns"),
    cost("ft-networks.replay_ns_per_event", "ns"),
    cost("ft-sim.engine.self_ns_per_event", "ns"),
    cost("ft-sim.events.queue_ns_per_event", "ns"),
    cost("ft-sim.workload.draw_ns_per_call", "ns"),
    cost("ft-sim.engine.mincost_extra_ns_per_event", "ns"),
    cost("ft-graph.bibfs_pops_per_call", "count"),
    cost("ft-sim.events_per_seed", "count"),
    cost("ft-sim.allocs_per_event", "count"),
    cost("ft-sim.failed_share", "share"),
    cost("ft-obs.trace_ns_per_event", "ns"),
    cost("ft-obs.trace_bytes_per_event", "count"),
    cost("ft-obs.hist_record_ns", "ns"),
    cost("ft-failure.sample_sliced_ns_per_block", "ns"),
    cost("ft-failure.failed_lanes_per_block", "count"),
    cost("ft-sim.fabric.alive_words_ns_per_block", "ns"),
    cost("ft-graph.sliced_reach_ns_per_block", "ns"),
    cost("ft-graph.sliced_pops_per_block", "count"),
    PerLayer {
        name: "ft-failure.sliced_over_scalar_ratio",
        unit: "ratio",
        higher_is_better: true,
    },
    cost("ft-failure.allocs_per_block", "count"),
    cost("ft-failure.blocked_pair_share", "share"),
    cost("ladder_overhead_ratio", "ratio"),
];

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_at_the_root_is_generated_from_these_tables() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
            assert_eq!(names.iter().filter(|m| m == &n).count(), 1, "{n} repeats");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
