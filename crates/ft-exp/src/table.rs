//! Deterministic JSON and CSV study tables.
//!
//! Both writers are hand-rolled (no serde in the offline container)
//! and byte-stable: fixed key/column order, Rust's shortest-round-trip
//! float formatting, `\n` separators. Aggregates are recomputed from
//! the per-seed scalar rows at render time, so a cache-warm rendering
//! is byte-identical to the cache-cold one — along with thread-count
//! independence, that is the contract `tests/determinism.rs` pins.
//!
//! The JSON deliberately echoes the run accounting *nowhere*: how many
//! cells came from the cache is a property of the run, not of the
//! study, and must not perturb the bytes. It goes to stderr instead
//! (see [`crate::runner::StudyResult::summary_line`]).

use crate::grid::GridSpec;
use crate::result::Stat;
use crate::runner::StudyResult;
use ft_obs::json_str;

fn stat_json(s: &Stat) -> String {
    format!(
        "{{\"mean\": {}, \"std\": {}, \"ci95\": {}}}",
        s.mean, s.std, s.ci95
    )
}

/// Renders the study as a deterministic JSON document.
pub fn to_json(spec: &GridSpec, result: &StudyResult) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\n  \"study\": {\n    \"sweeps\": [\n");
    for (i, sweep) in spec.sweeps.iter().enumerate() {
        let values: Vec<String> = sweep.values.iter().map(|v| json_str(v)).collect();
        out.push_str(&format!(
            "      {{\"key\": {}, \"values\": [{}]}}{}\n",
            json_str(&sweep.key),
            values.join(", "),
            if i + 1 == spec.sweeps.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "    ],\n    \"static_trials\": {},\n    \"cells\": {}\n  }},\n",
        spec.static_trials,
        result.cells.len()
    ));

    out.push_str("  \"cells\": [\n");
    for (i, report) in result.cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"cell\": {},\n", report.cell.index));
        let params: Vec<String> = report
            .cell
            .assignments
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        out.push_str(&format!("      \"params\": {{{}}},\n", params.join(", ")));
        match &report.data {
            Err(reason) => {
                out.push_str("      \"status\": \"skipped\",\n");
                out.push_str(&format!("      \"skip_reason\": {}\n", json_str(reason)));
            }
            Ok((data, _)) => {
                out.push_str("      \"status\": \"ok\",\n");
                out.push_str(&format!(
                    "      \"fabric\": {},\n      \"switches\": {},\n      \"terminals\": {},\n",
                    json_str(&data.fabric_label),
                    data.switches,
                    data.terminals
                ));
                out.push_str("      \"per_seed\": [\n");
                for (j, r) in data.seeds.iter().enumerate() {
                    out.push_str(&format!(
                        "        {{\"seed\": {}, \"events\": {}, \"fingerprint\": \"{:#018x}\", \
                         \"offered\": {}, \"connected\": {}, \"blocked\": {}, \
                         \"rejected_busy\": {}, \"dropped\": {}, \"rerouted\": {}, \
                         \"moved\": {}, \
                         \"abandoned\": {}, \"faults\": {}, \"repairs\": {}, \
                         \"storms\": {}, \"shed\": {}, \"degraded_time\": {}, \
                         \"time_to_recover\": {}, \"dropped_per_storm\": {}, \
                         \"blocking\": {}, \"busy_rejection\": {}, \"drop_rate\": {}, \
                         \"carried_erlangs\": {}, \"mean_path_len\": {}, \
                         \"mean_reroute_latency\": {}, \"util_max\": {}, \
                         \"reroute_latency_events_p50\": {}, \
                         \"reroute_latency_events_p99\": {}, \
                         \"reroute_latency_time_p50\": {}, \
                         \"reroute_latency_time_p99\": {}}}{}\n",
                        r.seed,
                        r.events,
                        r.fingerprint,
                        r.offered,
                        r.connected,
                        r.blocked,
                        r.rejected_busy,
                        r.dropped,
                        r.rerouted,
                        r.moved,
                        r.abandoned,
                        r.faults,
                        r.repairs,
                        r.storms,
                        r.shed,
                        r.degraded_time,
                        r.time_to_recover,
                        r.dropped_per_storm,
                        r.blocking,
                        r.busy_rejection,
                        r.drop_rate,
                        r.carried_erlangs,
                        r.mean_path_len,
                        r.mean_reroute_latency,
                        r.util_max,
                        r.reroute_hist_events.quantile(50.0) as u64,
                        r.reroute_hist_events.quantile(99.0) as u64,
                        r.reroute_hist_time.quantile(50.0),
                        r.reroute_hist_time.quantile(99.0),
                        if j + 1 == data.seeds.len() { "" } else { "," }
                    ));
                }
                out.push_str("      ],\n");
                let a = data.aggregate();
                let (ev_hist, time_hist) = data.merged_reroute_hists();
                out.push_str(&format!(
                    "      \"aggregate\": {{\"offered\": {}, \"blocking\": {}, \
                     \"busy_rejection\": {}, \"drop_rate\": {}, \"carried_erlangs\": {}, \
                     \"mean_path_len\": {}, \"reroute_latency\": {}, \"util_max\": {}, \
                     \"time_to_recover\": {}, \"dropped_per_storm\": {}, \
                     \"reroute_latency_quantiles\": {{\"events_p50\": {}, \
                     \"events_p99\": {}, \"events_p999\": {}, \"time_p50\": {}, \
                     \"time_p99\": {}, \"time_p999\": {}}}}}",
                    a.offered_total,
                    stat_json(&a.blocking),
                    stat_json(&a.busy_rejection),
                    stat_json(&a.drop_rate),
                    stat_json(&a.carried_erlangs),
                    stat_json(&a.mean_path_len),
                    stat_json(&a.reroute_latency),
                    stat_json(&a.util_max),
                    stat_json(&a.time_to_recover),
                    stat_json(&a.dropped_per_storm),
                    ev_hist.quantile(50.0) as u64,
                    ev_hist.quantile(99.0) as u64,
                    ev_hist.quantile(99.9) as u64,
                    time_hist.quantile(50.0),
                    time_hist.quantile(99.0),
                    time_hist.quantile(99.9),
                ));
                match data.static_est {
                    Some(est) => {
                        let (lo, hi) = est.wilson95();
                        out.push_str(&format!(
                            ",\n      \"static\": {{\"p\": {}, \"lo95\": {}, \"hi95\": {}, \
                             \"trials\": {}}}\n",
                            est.p(),
                            lo,
                            hi,
                            est.trials
                        ));
                    }
                    None => out.push('\n'),
                }
            }
        }
        out.push_str(if i + 1 == result.cells.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders the study as a deterministic CSV table: one row per cell,
/// one column per swept key, aggregate and cross-check columns after.
/// Skipped cells keep their parameter columns and carry the validator
/// message in the final `note` column.
pub fn to_csv(spec: &GridSpec, result: &StudyResult) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("cell");
    for sweep in &spec.sweeps {
        out.push(',');
        out.push_str(&csv_field(&sweep.key));
    }
    out.push_str(
        ",status,fabric,switches,terminals,seeds,offered,moved,blocking_mean,blocking_std,\
         blocking_ci95,busy_rejection_mean,drop_rate_mean,carried_erlangs_mean,\
         mean_path_len_mean,reroute_latency_mean,util_max_mean,time_to_recover_mean,\
         dropped_per_storm_mean,reroute_latency_events_p50,reroute_latency_events_p99,\
         reroute_latency_events_p999,reroute_latency_time_p50,reroute_latency_time_p99,\
         reroute_latency_time_p999,static_p,static_lo95,static_hi95,static_trials,note\n",
    );
    for report in &result.cells {
        out.push_str(&report.cell.index.to_string());
        for (_, value) in &report.cell.assignments {
            out.push(',');
            out.push_str(&csv_field(value));
        }
        match &report.data {
            Err(reason) => {
                out.push_str(",skipped");
                out.push_str(&",".repeat(27));
                out.push(',');
                out.push_str(&csv_field(reason));
            }
            Ok((data, _)) => {
                let a = data.aggregate();
                let (ev_hist, time_hist) = data.merged_reroute_hists();
                out.push_str(&format!(
                    ",ok,{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    csv_field(&data.fabric_label),
                    data.switches,
                    data.terminals,
                    data.seeds.len(),
                    a.offered_total,
                    data.seeds.iter().map(|r| r.moved).sum::<u64>(),
                    a.blocking.mean,
                    a.blocking.std,
                    a.blocking.ci95,
                    a.busy_rejection.mean,
                    a.drop_rate.mean,
                    a.carried_erlangs.mean,
                    a.mean_path_len.mean,
                    a.reroute_latency.mean,
                    a.util_max.mean,
                    a.time_to_recover.mean,
                    a.dropped_per_storm.mean,
                    ev_hist.quantile(50.0) as u64,
                    ev_hist.quantile(99.0) as u64,
                    ev_hist.quantile(99.9) as u64,
                    time_hist.quantile(50.0),
                    time_hist.quantile(99.0),
                    time_hist.quantile(99.9),
                ));
                match data.static_est {
                    Some(est) => {
                        let (lo, hi) = est.wilson95();
                        out.push_str(&format!(",{},{lo},{hi},{},", est.p(), est.trials));
                    }
                    None => out.push_str(",,,,,"),
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use crate::runner::{run_grid, RunOptions};

    fn study() -> (GridSpec, StudyResult) {
        let spec = GridSpec::parse(
            "mttr = 10\nduration = 25\nseeds = 2\nstatic_trials = 300\n\
             sweep network = clos-strict 2 2 | crossbar 4\nsweep fault_rate = 0, 0.004\n",
        )
        .unwrap();
        let result = run_grid(&spec, &RunOptions::default()).unwrap();
        (spec, result)
    }

    #[test]
    fn json_is_reproducible_and_balanced() {
        let (spec, result) = study();
        let a = to_json(&spec, &result);
        let (spec2, result2) = study();
        assert_eq!(a, to_json(&spec2, &result2));
        let depth = a.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON:\n{a}");
        for key in [
            "\"study\"",
            "\"sweeps\"",
            "\"cells\"",
            "\"params\"",
            "\"per_seed\"",
            "\"aggregate\"",
            "\"static\"",
            "\"skipped\"",
            "\"skip_reason\"",
            "\"reroute_latency_events_p50\"",
            "\"reroute_latency_quantiles\"",
            "\"moved\"",
        ] {
            assert!(a.contains(key), "missing {key} in\n{a}");
        }
    }

    #[test]
    fn csv_has_one_row_per_cell_and_stable_columns() {
        let (spec, result) = study();
        let csv = to_csv(&spec, &result);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4);
        assert!(lines[0].starts_with("cell,network,fault_rate,status,"));
        let cols = lines[0].split(',').count();
        // every data row has the same column count (quoted fields in
        // the note column contain no commas in this study)
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "row: {row}");
        }
        assert!(lines[4].contains("skipped"));
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
