//! First-divergence search between two NDJSON traces.
//!
//! Traces are compared line-by-line in order: the first index where the
//! two files disagree (or where one ends early) is *the* first diverging
//! event, because both files are written in the engine's deterministic
//! `(time, seq)` order. This turns a "fingerprints differ" CI failure
//! into an actionable event index plus the two conflicting lines.

/// Outcome of comparing two traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceDiff {
    /// Every line matched.
    Identical {
        /// Number of lines compared.
        lines: usize,
    },
    /// The traces disagree, first at line `index` (0-based).
    Divergence {
        /// The first differing line.
        index: usize,
        /// The left trace's line, or `None` if it ended first.
        left: Option<String>,
        /// The right trace's line, or `None` if it ended first.
        right: Option<String>,
    },
}

/// Locates the first line where two traces disagree.
pub fn first_divergence(a: &str, b: &str) -> TraceDiff {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut index = 0usize;
    loop {
        match (la.next(), lb.next()) {
            (None, None) => return TraceDiff::Identical { lines: index },
            (x, y) if x == y => index += 1,
            (x, y) => {
                return TraceDiff::Divergence {
                    index,
                    left: x.map(str::to_string),
                    right: y.map(str::to_string),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_traces_report_line_count() {
        let t =
            "{\"ev\":\"seed\",\"seed\":1}\n{\"t\":0.5,\"seq\":1,\"ev\":\"retry\",\"token\":0}\n";
        assert_eq!(first_divergence(t, t), TraceDiff::Identical { lines: 2 });
        assert_eq!(first_divergence("", ""), TraceDiff::Identical { lines: 0 });
    }

    #[test]
    fn divergence_reports_first_mismatching_line() {
        let a = "same\nleft\ntail\n";
        let b = "same\nright\ntail\n";
        assert_eq!(
            first_divergence(a, b),
            TraceDiff::Divergence {
                index: 1,
                left: Some("left".to_string()),
                right: Some("right".to_string()),
            }
        );
    }

    #[test]
    fn truncation_counts_as_divergence() {
        let a = "one\ntwo\n";
        let b = "one\n";
        assert_eq!(
            first_divergence(a, b),
            TraceDiff::Divergence {
                index: 1,
                left: Some("two".to_string()),
                right: None,
            }
        );
        // Symmetric case.
        assert_eq!(
            first_divergence(b, a),
            TraceDiff::Divergence {
                index: 1,
                left: None,
                right: Some("two".to_string()),
            }
        );
    }
}
