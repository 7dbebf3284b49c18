//! Deterministic JSON and CSV study tables.
//!
//! The JSON goes through [`ft_obs::JsonWriter`] and the CSV follows one
//! column list (`COLUMNS`); both are byte-stable: fixed key/column
//! order, Rust's shortest-round-trip float formatting, `\n` separators.
//! Aggregates are recomputed from the per-seed scalar rows at render
//! time, so a cache-warm rendering is byte-identical to the cache-cold
//! one — along with thread-count independence, that is the contract
//! `tests/determinism.rs` pins.
//!
//! The JSON deliberately echoes the run accounting *nowhere*: how many
//! cells came from the cache is a property of the run, not of the
//! study, and must not perturb the bytes. It goes to stderr instead
//! (see [`crate::runner::StudyResult::summary_line`]).

use crate::grid::GridSpec;
use crate::runner::StudyResult;
use ft_obs::{JsonWriter, Layout};
use ft_sim::report::write_latency_quantiles;

/// Renders the study as a deterministic JSON document.
pub fn to_json(spec: &GridSpec, result: &StudyResult) -> String {
    use Layout::{Block, Inline};
    let mut j = JsonWriter::new();
    j.object(Block).key("study").object(Block);
    j.key("sweeps").array(Block);
    for sweep in &spec.sweeps {
        j.object(Inline).field("key", &sweep.key);
        j.key("values").array(Inline);
        for value in &sweep.values {
            j.value(value);
        }
        j.end().end();
    }
    j.end()
        .field("static_trials", spec.static_trials)
        .field("cells", result.cells.len())
        .end();
    j.key("cells").array(Block);
    for report in &result.cells {
        j.object(Block).field("cell", report.cell.index);
        j.key("params").object(Inline);
        for (key, value) in &report.cell.assignments {
            j.field(key, value);
        }
        j.end();
        let data = match &report.data {
            Ok((data, _)) => data,
            Err(reason) => {
                j.field("status", "skipped").field("skip_reason", reason);
                j.end();
                continue;
            }
        };
        j.field("status", "ok")
            .field("fabric", &data.fabric_label)
            .field("switches", data.switches)
            .field("terminals", data.terminals);
        j.key("per_seed").array(Block);
        for row in &data.seeds {
            j.object(Inline);
            row.write_json(&mut j);
            j.end();
        }
        let a = data.aggregate();
        j.end().key("aggregate").object(Inline);
        j.field("offered", a.offered_total);
        for (name, s) in [
            ("blocking", a.blocking),
            ("busy_rejection", a.busy_rejection),
            ("drop_rate", a.drop_rate),
            ("carried_erlangs", a.carried_erlangs),
            ("mean_path_len", a.mean_path_len),
            ("reroute_latency", a.reroute_latency),
            ("util_max", a.util_max),
            ("time_to_recover", a.time_to_recover),
            ("dropped_per_storm", a.dropped_per_storm),
        ] {
            j.key(name).object(Inline);
            j.field("mean", s.mean)
                .field("std", s.std)
                .field("ci95", s.ci95);
            j.end();
        }
        let (events, time) = data.merged_reroute_hists();
        write_latency_quantiles(&mut j, &events, &time);
        j.end();
        if let Some(est) = data.static_est {
            let (lo, hi) = est.wilson95();
            j.key("static").object(Inline);
            j.field("p", est.p()).field("lo95", lo).field("hi95", hi);
            j.field("trials", est.trials).end();
        }
        j.end();
    }
    j.end().end();
    j.finish()
}

/// The CSV columns after `cell` and the swept keys, in order.
const COLUMNS: &str = "status,fabric,switches,terminals,seeds,offered,moved,blocking_mean,\
    blocking_std,blocking_ci95,busy_rejection_mean,drop_rate_mean,carried_erlangs_mean,\
    mean_path_len_mean,reroute_latency_mean,util_max_mean,time_to_recover_mean,\
    dropped_per_storm_mean,reroute_latency_events_p50,reroute_latency_events_p99,\
    reroute_latency_events_p999,reroute_latency_time_p50,reroute_latency_time_p99,\
    reroute_latency_time_p999,static_p,static_lo95,static_hi95,static_trials,note";

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
    out.push(',');
    out.push_str(COLUMNS);
    out.push('\n');
    for report in &result.cells {
        out.push_str(&report.cell.index.to_string());
        for (_, value) in &report.cell.assignments {
            out.push(',');
            out.push_str(&csv_field(value));
        }
        match &report.data {
            Err(reason) => {
                // every column after `status` is empty but the note
                out.push_str(",skipped");
                out.push_str(&",".repeat(COLUMNS.split(',').count() - 1));
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
