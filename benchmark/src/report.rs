//! What one run of one workload reports, and the result line it
//! prints last: one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;

use crate::tables::unit_of;

/// The result of one run of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations the program was asked to do in the measured window
    /// (requests, offered calls, Monte Carlo trials).
    pub attempted: u64,
    /// Of those, the ones it did not answer as the inputs dictate.
    pub failed: u64,
    /// `(name, value)` in table order.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find_map(|(n, v)| (n == name).then_some(*v))
    }

    /// The result line. Values are printed with all their digits
    /// (`f64`'s shortest round-trip form).
    ///
    /// # Panics
    /// Panics on a metric missing from the tables or a non-finite
    /// value: both are bugs in the benchmark, not measurements.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is {value}");
            let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} not in the tables"));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`result_line`](Self::result_line)
    /// (the set runner reads its children's results back with this; it
    /// is not a general JSON parser).
    pub fn parse_result_line(line: &str) -> Option<Outcome> {
        let field = |key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let metrics_text = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in metrics_text.split("}, ") {
            let Some((name, rest)) = entry.trim_start_matches('"').split_once("\": {\"value\": ")
            else {
                continue;
            };
            let value = rest.split(',').next()?.parse().ok()?;
            metrics.push((name.to_string(), value));
        }
        Some(Outcome {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_has_the_contract_shape() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("work_per_s".into(), 24_817.360_123),
                ("setup_s".into(), 0.001_234_5),
                ("ft-graph.bibfs_ns_per_search".into(), 0.0),
            ],
        };
        let line = o.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"work_per_s\": {\"value\": 24817.360123, \"unit\": \"1/s\"}, "));
        assert!(line.ends_with("\"unit\": \"ns\"}}}"));
        assert_eq!(Outcome::parse_result_line(&line), Some(o));
    }

    #[test]
    fn junk_is_not_a_result() {
        assert_eq!(Outcome::parse_result_line("fingerprint x seed=1"), None);
    }
}
