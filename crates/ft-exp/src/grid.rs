//! The `.ftexp` grid spec: a `.ftsim` scenario plus `sweep` directives.
//!
//! A grid spec is the `.ftsim` plain-text format (every `key = value`
//! directive of `ft_sim::scenario`, same defaults and validation)
//! extended with three grid-level directives:
//!
//! ```text
//! # base scenario — any .ftsim directive
//! arrival_rate = 6.0
//! duration     = 150
//! seeds        = 4
//!
//! # grid-level: static Monte Carlo cross-check per cell (0 = off)
//! static_trials = 20000
//!
//! # the swept axes (cartesian product, first axis outermost)
//! sweep network    = clos-strict 4 4 | benes 3 | multibutterfly 3 2 7
//! sweep fault_rate = 0.0005, 0.001, 0.002, 0.004, 0.008
//! ```
//!
//! Sweep value lists come in three shapes:
//!
//! * `|`-separated verbatim values — required for keys whose values
//!   contain spaces (`network`, `pattern`, `holding`), accepted for
//!   every key;
//! * `,`-separated scalars — the usual form for numeric keys;
//! * `range START STOP COUNT` / `logrange START STOP COUNT` — `COUNT`
//!   linearly (resp. geometrically) spaced values, endpoints included.
//!
//! Any scenario key except `threads` may be swept (`threads` must not
//! affect results, so a sweep over it would be vacuous by
//! construction). Each cell of the cartesian product is assembled by
//! overlaying its assignments on the base [`ScenarioBuilder`] — a cell
//! therefore obeys exactly the validator a hand-written scenario does,
//! and a cell whose combination is invalid (e.g. a two-stage fabric —
//! `crossbar N`, `benes 1` — with a positive `fault_rate`) becomes a
//! *skipped* cell with the validator's message rather than an error
//! for the whole study.

use ft_sim::{HoldingTime, Scenario, ScenarioBuilder, TrafficPattern, SCENARIO_KEYS};

/// One swept axis: a key and its ordered value list.
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep {
    /// The scenario key being swept.
    pub key: String,
    /// The values, in spec order (verbatim directive text per value).
    pub values: Vec<String>,
    /// Source line of the `sweep` directive (error attribution).
    pub line: usize,
}

/// A parsed grid spec: base scenario + swept axes + grid options.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// The base scenario every cell starts from.
    pub base: ScenarioBuilder,
    /// Swept axes in spec order; the first varies slowest.
    pub sweeps: Vec<Sweep>,
    /// Per-cell static Monte Carlo cross-check trials (0 = disabled).
    pub static_trials: u64,
}

/// One cell of the cartesian product.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Row-major index in the grid (first sweep outermost).
    pub index: usize,
    /// The `(key, value)` assignments of this cell, in sweep order.
    pub assignments: Vec<(String, String)>,
    /// The resolved scenario, or the validator's skip reason.
    pub scenario: Result<Scenario, String>,
    /// Content hash of the resolved cell (scenario + seed list +
    /// static trials); `None` for skipped cells.
    pub hash: Option<u64>,
}

impl GridSpec {
    /// Parses a grid spec. Diagnostics carry `line N:` prefixes, same
    /// as the scenario parser.
    pub fn parse(text: &str) -> Result<GridSpec, String> {
        let mut base = ScenarioBuilder::new();
        let mut sweeps: Vec<Sweep> = Vec::new();
        let mut static_trials = 0u64;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("line {}: {msg}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            if let Some(target) = key.strip_prefix("sweep ") {
                let target = target.trim();
                if !SCENARIO_KEYS.contains(&target) {
                    return Err(at(format!("cannot sweep unknown key `{target}`")));
                }
                if target == "threads" {
                    return Err(at(
                        "cannot sweep `threads`: worker counts never affect results".into(),
                    ));
                }
                if sweeps.iter().any(|s| s.key == target) {
                    return Err(at(format!("duplicate sweep over `{target}`")));
                }
                let values = parse_sweep_values(value).map_err(at)?;
                sweeps.push(Sweep {
                    key: target.to_string(),
                    values,
                    line: lineno + 1,
                });
            } else if key == "static_trials" {
                static_trials = value
                    .parse::<u64>()
                    .map_err(|_| at(format!("expected a nonnegative integer, got `{value}`")))?;
            } else {
                base.set(key, value, lineno + 1).map_err(at)?;
            }
        }
        if sweeps.is_empty() {
            return Err("grid must declare at least one `sweep` directive".into());
        }
        if !base.has_network() && !sweeps.iter().any(|s| s.key == "network") {
            return Err("grid must set `network = ...` in the base scenario or sweep it".into());
        }
        let spec = GridSpec {
            base,
            sweeps,
            static_trials,
        };
        // Surface per-value parse errors now, not at run time: every
        // value of every sweep must at least parse for its key.
        // Combination validity stays per-cell (an invalid combination
        // becomes a skipped cell).
        for sweep in &spec.sweeps {
            for v in &sweep.values {
                let mut probe = spec.base.clone();
                probe
                    .set(&sweep.key, v, sweep.line)
                    .map_err(|msg| format!("line {}: sweep value `{v}`: {msg}", sweep.line))?;
            }
        }
        Ok(spec)
    }

    /// Total number of cells (product of axis lengths).
    pub fn num_cells(&self) -> usize {
        self.sweeps.iter().map(|s| s.values.len()).product()
    }

    /// Expands the cartesian product into resolved cells, row-major
    /// with the first sweep outermost. Deterministic: cell `index` is a
    /// pure function of the spec text.
    pub fn cells(&self) -> Vec<Cell> {
        let total = self.num_cells();
        let mut cells = Vec::with_capacity(total);
        for index in 0..total {
            // decode the mixed-radix index, last axis fastest
            let mut rem = index;
            let mut choice = vec![0usize; self.sweeps.len()];
            for (axis, sweep) in self.sweeps.iter().enumerate().rev() {
                choice[axis] = rem % sweep.values.len();
                rem /= sweep.values.len();
            }
            let mut b = self.base.clone();
            let mut assignments = Vec::with_capacity(self.sweeps.len());
            let mut first_err: Option<String> = None;
            for (axis, sweep) in self.sweeps.iter().enumerate() {
                let value = &sweep.values[choice[axis]];
                assignments.push((sweep.key.clone(), value.clone()));
                if first_err.is_none() {
                    if let Err(msg) = b.set(&sweep.key, value, sweep.line) {
                        first_err = Some(format!("line {}: {msg}", sweep.line));
                    }
                }
            }
            let scenario = match first_err {
                Some(e) => Err(e),
                None => b.build(),
            };
            let hash = scenario
                .as_ref()
                .ok()
                .map(|s| cell_hash(s, self.static_trials));
            cells.push(Cell {
                index,
                assignments,
                scenario,
                hash,
            });
        }
        cells
    }
}

fn parse_sweep_values(value: &str) -> Result<Vec<String>, String> {
    let words: Vec<&str> = value.split_whitespace().collect();
    match words.as_slice() {
        ["range", start, stop, count] => spaced_values(start, stop, count, false),
        ["logrange", start, stop, count] => spaced_values(start, stop, count, true),
        _ => {
            let sep = if value.contains('|') { '|' } else { ',' };
            let vals: Vec<String> = value
                .split(sep)
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect();
            if vals.is_empty() {
                return Err("sweep needs at least one value".into());
            }
            Ok(vals)
        }
    }
}

fn spaced_values(start: &str, stop: &str, count: &str, log: bool) -> Result<Vec<String>, String> {
    let parse = |s: &str| {
        s.parse::<f64>()
            .map_err(|_| format!("expected a number, got `{s}`"))
    };
    let (a, b) = (parse(start)?, parse(stop)?);
    let n: usize = count
        .parse()
        .map_err(|_| format!("expected a count, got `{count}`"))?;
    if n < 2 {
        return Err("range needs COUNT >= 2".into());
    }
    if log && (a <= 0.0 || b <= 0.0) {
        return Err("logrange needs positive endpoints".into());
    }
    let vals = (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            let x = if log {
                a * (b / a).powf(t)
            } else {
                a + (b - a) * t
            };
            x.to_string()
        })
        .collect();
    Ok(vals)
}

/// Canonical text of a resolved cell — what the cell cache hashes. The
/// scenario is re-rendered from its *parsed* form (not the spec bytes),
/// so `0.5` and `.5` in the spec name the same cell; `threads` is
/// deliberately excluded because it must not affect results. Bumped to
/// `v2` when the `faults`/`retry` directives joined the scenario, and
/// to `v3` when the `reroute` planner did: anything that changes the
/// event stream must change the cell key.
pub fn canonical_cell_text(s: &Scenario, static_trials: u64) -> String {
    format!(
        "ftexp-cell v3\nnetwork = {}\npattern = {}\nholding = {}\narrival_rate = {}\n\
         fault_rate = {}\nfault_open_share = {}\nfaults = {}\nretry = {}\nreroute = {}\n\
         mttr = {}\nduration = {}\nwarmup = {}\nbuckets = {}\nseeds = {}\nseed_base = {}\n\
         static_trials = {}\n",
        s.fabric.to_spec_string(),
        pattern_spec(&s.config.pattern),
        holding_spec(&s.config.holding),
        s.config.arrival_rate,
        s.config.fault_rate,
        s.config.fault_open_share,
        s.config.faults.to_spec_string(),
        s.config.retry.to_spec_string(),
        s.config.reroute.to_spec_string(),
        s.config.mttr,
        s.config.duration,
        s.config.warmup,
        s.config.buckets,
        s.seeds,
        s.seed_base,
        static_trials,
    )
}

/// FNV-1a content hash of the canonical cell text: the cache key, and
/// the seed of the cell's static cross-check estimator.
pub fn cell_hash(s: &Scenario, static_trials: u64) -> u64 {
    ft_obs::fnv1a(canonical_cell_text(s, static_trials).as_bytes())
}

/// The directive spelling of a traffic pattern (inverse of the parser).
pub fn pattern_spec(p: &TrafficPattern) -> String {
    match p {
        TrafficPattern::Uniform => "uniform".into(),
        TrafficPattern::Permutation => "permutation".into(),
        TrafficPattern::Hotspot {
            hot_fraction,
            p_hot,
        } => format!("hotspot {hot_fraction} {p_hot}"),
        TrafficPattern::Bursty {
            mean_on,
            mean_off,
            boost,
        } => format!("bursty {mean_on} {mean_off} {boost}"),
    }
}

/// The directive spelling of a holding-time law (inverse of the parser).
pub fn holding_spec(h: &HoldingTime) -> String {
    match h {
        HoldingTime::Exponential { mean } => format!("exp {mean}"),
        HoldingTime::Pareto { shape, mean } => format!("pareto {shape} {mean}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: &str = "\
arrival_rate = 4
duration = 30
seeds = 2
static_trials = 1000
sweep network = clos-strict 2 2 | benes 2
sweep fault_rate = 0.001, 0.002, 0.004
";

    #[test]
    fn parses_and_expands_row_major() {
        let spec = GridSpec::parse(GRID).unwrap();
        assert_eq!(spec.static_trials, 1000);
        assert_eq!(spec.num_cells(), 6);
        let cells = spec.cells();
        assert_eq!(cells.len(), 6);
        // first sweep outermost: network varies slowest
        assert_eq!(cells[0].assignments[0].1, "clos-strict 2 2");
        assert_eq!(cells[0].assignments[1].1, "0.001");
        assert_eq!(cells[2].assignments[1].1, "0.004");
        assert_eq!(cells[3].assignments[0].1, "benes 2");
        assert_eq!(cells[3].assignments[1].1, "0.001");
        for c in &cells {
            assert!(c.scenario.is_ok(), "{:?}", c.scenario);
            assert!(c.hash.is_some());
        }
        // all hashes distinct
        let mut hashes: Vec<u64> = cells.iter().map(|c| c.hash.unwrap()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 6);
    }

    #[test]
    fn range_and_logrange_expand() {
        let vals = parse_sweep_values("range 0 1 5").unwrap();
        assert_eq!(vals, ["0", "0.25", "0.5", "0.75", "1"]);
        let vals = parse_sweep_values("logrange 0.001 0.1 3").unwrap();
        assert_eq!(vals.len(), 3);
        assert_eq!(vals[0], "0.001");
        assert_eq!(vals[2], "0.1");
        let mid: f64 = vals[1].parse().unwrap();
        assert!((mid - 0.01).abs() < 1e-12, "{mid}");
        assert!(parse_sweep_values("range 0 1 1").is_err());
        assert!(parse_sweep_values("logrange 0 1 3").is_err());
    }

    #[test]
    fn invalid_combinations_become_skipped_cells() {
        let spec = GridSpec::parse(
            "duration = 20\nsweep network = crossbar 4 | clos-strict 2 2\n\
             sweep fault_rate = 0, 0.01\n",
        )
        .unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        // crossbar at fault_rate 0 is fine; at 0.01 it must be skipped
        assert!(cells[0].scenario.is_ok());
        let err = cells[1].scenario.as_ref().unwrap_err();
        assert!(err.contains("crossbar"), "{err}");
        assert!(cells[1].hash.is_none());
        assert!(cells[2].scenario.is_ok() && cells[3].scenario.is_ok());
    }

    #[test]
    fn rejects_bad_sweeps() {
        for (text, frag) in [
            ("sweep bogus = 1, 2\n", "unknown key"),
            ("sweep threads = 1, 2\n", "cannot sweep `threads`"),
            (
                "network = benes 2\nsweep mttr = 1, 2\nsweep mttr = 3, 4\n",
                "duplicate sweep",
            ),
            ("network = benes 2\n", "at least one `sweep`"),
            (
                "network = benes 2\nsweep arrival_rate = 1, zap\n",
                "sweep value `zap`",
            ),
            (
                "duration = 20\nsweep fault_rate = 0, 0.01\n",
                "must set `network",
            ),
        ] {
            let err = GridSpec::parse(text).unwrap_err();
            assert!(err.contains(frag), "{text} -> {err}");
        }
    }

    #[test]
    fn hash_ignores_spelling_and_threads_but_not_values() {
        let a = Scenario::parse("network = benes 2\narrival_rate = 0.5\nthreads = 1\n").unwrap();
        let b = Scenario::parse("network = benes 2\narrival_rate = .5\nthreads = 8\n").unwrap();
        assert_eq!(cell_hash(&a, 100), cell_hash(&b, 100));
        assert_ne!(cell_hash(&a, 100), cell_hash(&a, 200));
        let c = Scenario::parse("network = benes 2\narrival_rate = 0.6\n").unwrap();
        assert_ne!(cell_hash(&a, 100), cell_hash(&c, 100));
        // the injector and retry ladder are part of the cell identity
        let d = Scenario::parse(
            "network = benes 2\narrival_rate = 0.5\nfaults = storm 0.05 1\nmttr = 5\n",
        )
        .unwrap();
        assert_ne!(cell_hash(&a, 100), cell_hash(&d, 100));
        let e = Scenario::parse(
            "network = benes 2\narrival_rate = 0.5\nretry = budget 2 backoff 0.5\n",
        )
        .unwrap();
        assert_ne!(cell_hash(&a, 100), cell_hash(&e, 100));
        // so is the reroute planner — and spelling out the greedy
        // default names the same cell as omitting it
        let f =
            Scenario::parse("network = benes 2\narrival_rate = 0.5\nreroute = mincost\n").unwrap();
        assert_ne!(cell_hash(&a, 100), cell_hash(&f, 100));
        let g =
            Scenario::parse("network = benes 2\narrival_rate = 0.5\nreroute = greedy\n").unwrap();
        assert_eq!(cell_hash(&a, 100), cell_hash(&g, 100));
    }

    #[test]
    fn spec_spellings_round_trip_through_the_parser() {
        let s = Scenario::parse(
            "network = benes 2\npattern = hotspot 0.25 0.8\nholding = pareto 2.5 1.5\n",
        )
        .unwrap();
        let text = format!(
            "network = benes 2\npattern = {}\nholding = {}\n",
            pattern_spec(&s.config.pattern),
            holding_spec(&s.config.holding)
        );
        let again = Scenario::parse(&text).unwrap();
        assert_eq!(s.config.pattern, again.config.pattern);
        assert_eq!(s.config.holding, again.config.holding);
    }
}
