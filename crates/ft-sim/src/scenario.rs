//! Plain-text scenario specs for the `ftsim` CLI.
//!
//! A scenario is a list of `key = value` lines; `#` starts a comment.
//! Example:
//!
//! ```text
//! # strict Clos under churn faults
//! network     = clos-strict 4 4
//! pattern     = uniform
//! arrival_rate = 6.0
//! holding     = exp 1.0
//! fault_rate  = 0.0005
//! fault_open_share = 0.5
//! mttr        = 20
//! duration    = 50
//! warmup      = 0
//! seeds       = 3
//! seed_base   = 1
//! buckets     = 5
//! threads     = 0
//! ```
//!
//! Recognised `network` families: `crossbar N`, `clos-strict N R`,
//! `clos-rearr N R`, `benes K`, `multibutterfly K D SEED`,
//! `ftn NU WIDTH DEGREE GAMMA`.
//! Recognised `pattern`s: `uniform`, `permutation`,
//! `hotspot FRAC P_HOT`, `bursty MEAN_ON MEAN_OFF BOOST`.
//! Recognised `holding`s: `exp MEAN`, `pareto SHAPE MEAN`.
//! Recognised `faults` processes: `iid` (the default, driven by
//! `fault_rate`), `storm RATE WINDOW [STAGE]`, `burst RATE SIZE WINDOW`,
//! `targeted RATE`.
//! Recognised `retry` policies: `on-repair` (the default),
//! `budget N backoff BASE [shed DEPTH]`.
//! Recognised `reroute` planners: `greedy` (the default),
//! `mincost`.
//! `threads = 0` means one worker per available core.
//!
//! Every diagnostic — malformed directive, unknown key, *and*
//! out-of-range value caught by validation — is reported as
//! `line N: <message>`, pointing at the directive that set the
//! offending value. The parser is built on [`ScenarioBuilder`], which
//! the `ftexp` grid runner reuses to overlay `sweep` assignments on a
//! base scenario; see `docs/SCENARIOS.md` for the full grammar.

use crate::engine::SimConfig;
use crate::fabric::Fabric;
use crate::inject::{FaultSpec, RerouteMode, RetryPolicy};
use crate::workload::{HoldingTime, TrafficPattern};
use ft_core::params::Params;
use ft_networks::{crossbar_census, Benes, Clos, Multibutterfly};
use std::ops::RangeInclusive;

/// Which fabric a scenario builds (kept symbolic so reports can echo it).
#[derive(Clone, Debug, PartialEq)]
pub enum FabricSpec {
    /// `crossbar N`
    Crossbar(usize),
    /// `clos-strict N R`
    ClosStrict(usize, usize),
    /// `clos-rearr N R`
    ClosRearrangeable(usize, usize),
    /// `benes K`
    Benes(u32),
    /// `multibutterfly K D SEED`
    Multibutterfly(u32, usize, u64),
    /// `ftn NU WIDTH DEGREE GAMMA`
    Ftn(u32, usize, usize, f64),
}

impl FabricSpec {
    /// Builds the fabric.
    pub fn build(&self) -> Fabric {
        match *self {
            FabricSpec::Crossbar(n) => Fabric::crossbar(n),
            FabricSpec::ClosStrict(n, r) => Fabric::clos_strict(n, r),
            FabricSpec::ClosRearrangeable(n, r) => Fabric::clos_rearrangeable(n, r),
            FabricSpec::Benes(k) => Fabric::benes(k),
            FabricSpec::Multibutterfly(k, d, seed) => Fabric::multibutterfly(k, d, seed),
            FabricSpec::Ftn(nu, w, d, g) => Fabric::ftn_reduced(nu, w, d, g),
        }
    }

    /// [`Fabric::supports_faults`] without building the fabric: false
    /// exactly on the two-stage specs — `crossbar N`, `benes 1` and
    /// `multibutterfly 1 D SEED` — whose switches join two terminals.
    pub(crate) fn supports_faults(&self) -> bool {
        !matches!(
            *self,
            FabricSpec::Crossbar(_) | FabricSpec::Benes(1) | FabricSpec::Multibutterfly(1, ..)
        )
    }

    /// `(vertices, switches)` of the fabric this spec builds, from its
    /// family's closed-form census (the one its builder allocates from),
    /// or `None` if a count overflows `usize`. Only for specs whose
    /// arguments `parse_network` has range-checked.
    fn census(&self) -> Option<(usize, usize)> {
        match *self {
            FabricSpec::Crossbar(n) => crossbar_census(n),
            FabricSpec::ClosStrict(n, r) => Clos::census(n.checked_mul(2)? - 1, n, r),
            FabricSpec::ClosRearrangeable(n, r) => Clos::census(n, n, r),
            FabricSpec::Benes(k) => Benes::census(k),
            FabricSpec::Multibutterfly(k, d, _) => Multibutterfly::census(k, d),
            FabricSpec::Ftn(nu, w, d, g) => Params::reduced(nu, w, d, g).checked_counts(),
        }
    }

    /// The spec as it appeared in the scenario text.
    pub fn to_spec_string(&self) -> String {
        match *self {
            FabricSpec::Crossbar(n) => format!("crossbar {n}"),
            FabricSpec::ClosStrict(n, r) => format!("clos-strict {n} {r}"),
            FabricSpec::ClosRearrangeable(n, r) => format!("clos-rearr {n} {r}"),
            FabricSpec::Benes(k) => format!("benes {k}"),
            FabricSpec::Multibutterfly(k, d, seed) => format!("multibutterfly {k} {d} {seed}"),
            FabricSpec::Ftn(nu, w, d, g) => format!("ftn {nu} {w} {d} {g}"),
        }
    }

    /// Parses a bare fabric spec (the value side of a `network =`
    /// directive, e.g. `clos-strict 4 4`) — the inverse of
    /// [`FabricSpec::to_spec_string`]. The `ftserve` reload request
    /// carries specs in this form.
    pub fn parse(spec: &str) -> Result<FabricSpec, String> {
        let words: Vec<&str> = spec.split_whitespace().collect();
        parse_network(&words)
    }
}

/// A parsed scenario: fabric, simulation parameters, seeds, threading.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Fabric to build.
    pub fabric: FabricSpec,
    /// Per-seed simulation parameters.
    pub config: SimConfig,
    /// Seeds to sweep: `seed_base .. seed_base + seeds`.
    pub seed_base: u64,
    /// Number of seeds.
    pub seeds: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
}

/// The directive keys a scenario recognises, in canonical order.
///
/// The `ftexp` grid parser checks `sweep` targets against this list (it
/// additionally refuses to sweep `threads`, which must not affect
/// results).
pub const SCENARIO_KEYS: &[&str] = &[
    "network",
    "pattern",
    "holding",
    "arrival_rate",
    "fault_rate",
    "fault_open_share",
    "mttr",
    "duration",
    "warmup",
    "buckets",
    "faults",
    "retry",
    "reroute",
    "seeds",
    "seed_base",
    "threads",
];

/// Incremental scenario assembly: one `set` call per directive, then
/// [`build`](ScenarioBuilder::build).
///
/// Both `Scenario::parse` and the `ftexp` grid expander funnel through
/// this type, so a sweep cell obeys exactly the same per-key grammar
/// and validation rules as a hand-written `.ftsim` file. The builder
/// remembers the source line of each assignment; `build` attributes
/// validation failures (out-of-range values, inconsistent
/// combinations) to the line that set the offending key.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    fabric: Option<FabricSpec>,
    config: SimConfig,
    seeds: u64,
    seed_base: u64,
    threads: usize,
    /// `lines[i]` = source line that last set `SCENARIO_KEYS[i]`.
    lines: [Option<usize>; SCENARIO_KEYS.len()],
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            fabric: None,
            config: SimConfig::default(),
            seeds: 1,
            seed_base: 1,
            threads: 0,
            lines: [None; SCENARIO_KEYS.len()],
        }
    }
}

impl ScenarioBuilder {
    /// A builder holding every default (no fabric yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one `key = value` directive read from source line
    /// `line` (1-based; used to attribute later validation errors).
    /// The returned message carries no line prefix — the caller owns
    /// presentation.
    pub fn set(&mut self, key: &str, value: &str, line: usize) -> Result<(), String> {
        let words: Vec<&str> = value.split_whitespace().collect();
        match key {
            "network" => self.fabric = Some(parse_network(&words)?),
            "pattern" => self.config.pattern = parse_pattern(&words)?,
            "holding" => self.config.holding = parse_holding(&words)?,
            "arrival_rate" => self.config.arrival_rate = parse_num(value)?,
            "fault_rate" => self.config.fault_rate = parse_num(value)?,
            "fault_open_share" => self.config.fault_open_share = parse_num(value)?,
            "mttr" => self.config.mttr = parse_num(value)?,
            "duration" => self.config.duration = parse_num(value)?,
            "warmup" => self.config.warmup = parse_num(value)?,
            "buckets" => self.config.buckets = parse_int(value)?,
            "faults" => self.config.faults = parse_faults(&words)?,
            "retry" => self.config.retry = parse_retry(&words)?,
            "reroute" => self.config.reroute = parse_reroute(&words)?,
            "seeds" => self.seeds = parse_int(value)? as u64,
            "seed_base" => self.seed_base = parse_int(value)? as u64,
            "threads" => self.threads = parse_int(value)?,
            other => return Err(format!("unknown key `{other}`")),
        }
        let idx = SCENARIO_KEYS.iter().position(|&k| k == key).unwrap();
        self.lines[idx] = Some(line);
        Ok(())
    }

    /// The source line that last set `key`, if any.
    fn line_of(&self, key: &str) -> Option<usize> {
        let idx = SCENARIO_KEYS.iter().position(|&k| k == key)?;
        self.lines[idx]
    }

    /// The worker-thread count currently assembled (0 = one per core).
    /// The `ftexp` CLI reads this as the spec-level default before its
    /// own `--threads` override applies.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a `network` directive has been applied. The `ftexp`
    /// grid parser uses this to reject specs that neither set nor
    /// sweep the network — otherwise every cell would fail `build` and
    /// the whole study would silently come out skipped.
    pub fn has_network(&self) -> bool {
        self.fabric.is_some()
    }

    /// Validates the assembled scenario and returns it. Errors are
    /// prefixed `line N:` when the offending key was set by a
    /// directive (defaults that fail in combination with one report
    /// the line of the directive they clash with).
    pub fn build(&self) -> Result<Scenario, String> {
        let fabric = self
            .fabric
            .clone()
            .ok_or("scenario must set `network = ...`")?;
        let scenario = Scenario {
            fabric,
            config: self.config.clone(),
            seed_base: self.seed_base,
            seeds: self.seeds,
            threads: self.threads,
        };
        if let Err((key, msg)) = scenario.validate() {
            return Err(match self.line_of(key) {
                Some(line) => format!("line {line}: {msg}"),
                None => msg,
            });
        }
        Ok(scenario)
    }
}

impl Scenario {
    /// Parses a scenario from text. Unknown keys, malformed values and
    /// inconsistent combinations are reported with line numbers.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut b = ScenarioBuilder::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("line {}: {msg}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected `key = value`, got `{line}`")))?;
            b.set(key.trim(), value.trim(), lineno + 1).map_err(at)?;
        }
        b.build()
    }

    /// The §2/§4 consistency rules every scenario must satisfy. On
    /// failure names the offending key (for line attribution) and the
    /// message.
    fn validate(&self) -> Result<(), (&'static str, String)> {
        let c = &self.config;
        if !(c.arrival_rate > 0.0 && c.arrival_rate.is_finite()) {
            return Err((
                "arrival_rate",
                format!("arrival_rate must be positive, got {}", c.arrival_rate),
            ));
        }
        if c.holding.mean() <= 0.0 || !c.holding.mean().is_finite() {
            return Err(("holding", "holding mean must be positive".into()));
        }
        if let HoldingTime::Pareto { shape, .. } = c.holding {
            if shape <= 1.0 {
                return Err((
                    "holding",
                    format!("pareto shape must exceed 1 for a finite mean, got {shape}"),
                ));
            }
        }
        if c.fault_rate < 0.0 {
            return Err(("fault_rate", "fault_rate must be nonnegative".into()));
        }
        if c.mttr < 0.0 {
            return Err(("mttr", "mttr must be nonnegative".into()));
        }
        if !(0.0..=1.0).contains(&c.fault_open_share) {
            return Err((
                "fault_open_share",
                format!(
                    "fault_open_share must be in [0, 1], got {}",
                    c.fault_open_share
                ),
            ));
        }
        if !(c.duration > 0.0 && c.duration.is_finite()) {
            return Err((
                "duration",
                format!("duration must be positive, got {}", c.duration),
            ));
        }
        if c.warmup < 0.0 || c.warmup >= c.duration {
            return Err((
                "warmup",
                format!(
                    "warmup must be in [0, duration), got {} of {}",
                    c.warmup, c.duration
                ),
            ));
        }
        if c.buckets == 0 {
            return Err(("buckets", "buckets must be at least 1".into()));
        }
        if self.seeds == 0 {
            return Err(("seeds", "seeds must be at least 1".into()));
        }
        if let TrafficPattern::Hotspot {
            hot_fraction,
            p_hot,
        } = c.pattern
        {
            let frac_ok = 0.0 < hot_fraction && hot_fraction <= 1.0;
            if !frac_ok || !(0.0..=1.0).contains(&p_hot) {
                return Err((
                    "pattern",
                    "hotspot needs 0 < FRAC <= 1 and 0 <= P_HOT <= 1".into(),
                ));
            }
        }
        if let TrafficPattern::Bursty {
            mean_on,
            mean_off,
            boost,
        } = c.pattern
        {
            if mean_on <= 0.0 || mean_off <= 0.0 || boost < 1.0 {
                return Err((
                    "pattern",
                    "bursty needs MEAN_ON, MEAN_OFF > 0 and BOOST >= 1".into(),
                ));
            }
        }
        match c.faults {
            FaultSpec::Iid => {}
            FaultSpec::Storm { rate, window, .. } => {
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(("faults", format!("storm rate must be positive, got {rate}")));
                }
                if window < 0.0 || !window.is_finite() {
                    return Err((
                        "faults",
                        format!("storm window must be nonnegative, got {window}"),
                    ));
                }
            }
            FaultSpec::Burst { rate, size, window } => {
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(("faults", format!("burst rate must be positive, got {rate}")));
                }
                if size == 0 {
                    return Err(("faults", "burst size must be at least 1".into()));
                }
                if window < 0.0 || !window.is_finite() {
                    return Err((
                        "faults",
                        format!("burst window must be nonnegative, got {window}"),
                    ));
                }
            }
            FaultSpec::Targeted { rate } => {
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err((
                        "faults",
                        format!("targeted rate must be positive, got {rate}"),
                    ));
                }
            }
        }
        if !c.faults.is_iid() && c.fault_rate > 0.0 {
            return Err((
                "faults",
                "fault_rate drives the i.i.d. process only; set fault_rate = 0 \
                 when a correlated injector supplies its own rate"
                    .into(),
            ));
        }
        if let RetryPolicy::Backoff { base, .. } = c.retry {
            if !(base > 0.0 && base.is_finite()) {
                return Err((
                    "retry",
                    format!("backoff base must be positive, got {base}"),
                ));
            }
        }
        if (c.fault_rate > 0.0 || !c.faults.is_iid()) && !self.fabric.supports_faults() {
            // Study tables carry the crossbar's message as a skip
            // reason, so its wording stays as it was.
            let msg = match self.fabric {
                FabricSpec::Crossbar(_) => "crossbar switches join two terminals: the \
                     vertex-discard repair discipline cannot express their failures — use \
                     a staged fabric (clos/benes/multibutterfly/ftn) or disable faults"
                    .into(),
                ref two_stage => format!(
                    "`{}` has two stages, so its switches join two terminals: the \
                     vertex-discard repair discipline cannot express their failures — use \
                     K >= 2 or disable faults",
                    two_stage.to_spec_string()
                ),
            };
            return Err(("network", msg));
        }
        Ok(())
    }

    /// The seed list the sweep runs.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds).map(|k| self.seed_base + k).collect()
    }
}

fn parse_num(s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .map_err(|_| format!("expected a number, got `{s}`"))
        .and_then(|x| {
            if x.is_finite() {
                Ok(x)
            } else {
                Err(format!("expected a finite number, got `{s}`"))
            }
        })
}

fn parse_int(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("expected a nonnegative integer, got `{s}`"))
}

fn parse_network(words: &[&str]) -> Result<FabricSpec, String> {
    let usage = "network = crossbar N | clos-strict N R | clos-rearr N R | benes K \
                 | multibutterfly K D SEED | ftn NU WIDTH DEGREE GAMMA";
    // An integer argument `name` of `family`, rejected outside `range`.
    let arg = |family: &str, name: &str, s: &str, range: RangeInclusive<usize>| {
        let x = parse_int(s)?;
        if range.contains(&x) {
            return Ok(x);
        }
        let accepted = match range.end() {
            &usize::MAX => format!("{name} ≥ {}", range.start()),
            end => format!("{name} in {}..={end}", range.start()),
        };
        Err(format!("`{family}` takes {accepted}, got {x}"))
    };
    const ANY: RangeInclusive<usize> = 1..=usize::MAX;
    let spec = match words {
        ["crossbar", n] => FabricSpec::Crossbar(arg("crossbar N", "N", n, ANY)?),
        ["clos-strict", n, r] => {
            let family = "clos-strict N R";
            FabricSpec::ClosStrict(arg(family, "N", n, ANY)?, arg(family, "R", r, ANY)?)
        }
        ["clos-rearr", n, r] => {
            let family = "clos-rearr N R";
            FabricSpec::ClosRearrangeable(arg(family, "N", n, ANY)?, arg(family, "R", r, ANY)?)
        }
        ["benes", k] => FabricSpec::Benes(arg("benes K", "K", k, 1..=16)? as u32),
        ["multibutterfly", k, d, seed] => {
            let family = "multibutterfly K D SEED";
            FabricSpec::Multibutterfly(
                arg(family, "K", k, 1..=16)? as u32,
                arg(family, "D", d, ANY)?,
                parse_int(seed)? as u64,
            )
        }
        ["ftn", nu, w, d, g] => {
            let family = "ftn NU WIDTH DEGREE GAMMA";
            let nu = arg(family, "NU", nu, 1..=8)? as u32;
            let w = arg(family, "WIDTH", w, 2..=usize::MAX)?;
            if w % 2 != 0 {
                return Err(format!("`{family}` takes an even WIDTH, got {w}"));
            }
            let d = arg(family, "DEGREE", d, ANY)?;
            // γ is the least γ ≥ 1 with 4^γ ≥ GAMMA·NU; Params allows γ ≤ 16
            let g = parse_num(g)?;
            if g * nu as f64 > 4f64.powi(16) {
                return Err(format!("`{family}` takes GAMMA·NU ≤ 4^16, got GAMMA = {g}"));
            }
            FabricSpec::Ftn(nu, w, d, g)
        }
        _ => {
            return Err(format!(
                "unrecognised network `{}`; {usage}",
                words.join(" ")
            ))
        }
    };
    let too_big = |count: String| {
        format!(
            "`{}` has {count}, but switch and vertex ids are u32: each count must stay below {}",
            spec.to_spec_string(),
            u32::MAX
        )
    };
    match spec.census() {
        Some((v, e)) if v.max(e) < u32::MAX as usize => Ok(spec),
        Some((v, e)) => Err(too_big(format!("{e} switches on {v} vertices"))),
        None => Err(too_big(
            "more switches or vertices than a usize counts".into(),
        )),
    }
}

fn parse_pattern(words: &[&str]) -> Result<TrafficPattern, String> {
    let usage =
        "pattern = uniform | permutation | hotspot FRAC P_HOT | bursty MEAN_ON MEAN_OFF BOOST";
    match words {
        ["uniform"] => Ok(TrafficPattern::Uniform),
        ["permutation"] => Ok(TrafficPattern::Permutation),
        ["hotspot", f, p] => Ok(TrafficPattern::Hotspot {
            hot_fraction: parse_num(f)?,
            p_hot: parse_num(p)?,
        }),
        ["bursty", on, off, boost] => Ok(TrafficPattern::Bursty {
            mean_on: parse_num(on)?,
            mean_off: parse_num(off)?,
            boost: parse_num(boost)?,
        }),
        _ => Err(format!(
            "unrecognised pattern `{}`; {usage}",
            words.join(" ")
        )),
    }
}

fn parse_faults(words: &[&str]) -> Result<FaultSpec, String> {
    let usage = "faults = iid | storm RATE WINDOW [STAGE] | burst RATE SIZE WINDOW | targeted RATE";
    match words {
        ["iid"] => Ok(FaultSpec::Iid),
        ["storm", rate, window] => Ok(FaultSpec::Storm {
            rate: parse_num(rate)?,
            window: parse_num(window)?,
            stage: None,
        }),
        ["storm", rate, window, stage] => Ok(FaultSpec::Storm {
            rate: parse_num(rate)?,
            window: parse_num(window)?,
            stage: Some(parse_int(stage)?),
        }),
        ["burst", rate, size, window] => Ok(FaultSpec::Burst {
            rate: parse_num(rate)?,
            size: parse_int(size)?,
            window: parse_num(window)?,
        }),
        ["targeted", rate] => Ok(FaultSpec::Targeted {
            rate: parse_num(rate)?,
        }),
        _ => Err(format!(
            "unrecognised faults `{}`; {usage}",
            words.join(" ")
        )),
    }
}

fn parse_retry(words: &[&str]) -> Result<RetryPolicy, String> {
    let usage = "retry = on-repair | budget N backoff BASE [shed DEPTH]";
    match words {
        ["on-repair"] => Ok(RetryPolicy::OnRepair),
        ["budget", n, "backoff", base] => Ok(RetryPolicy::Backoff {
            budget: parse_int(n)? as u32,
            base: parse_num(base)?,
            shed_depth: 0,
        }),
        ["budget", n, "backoff", base, "shed", depth] => Ok(RetryPolicy::Backoff {
            budget: parse_int(n)? as u32,
            base: parse_num(base)?,
            shed_depth: parse_int(depth)?,
        }),
        _ => Err(format!("unrecognised retry `{}`; {usage}", words.join(" "))),
    }
}

fn parse_reroute(words: &[&str]) -> Result<RerouteMode, String> {
    let usage = "reroute = greedy | mincost";
    match words {
        ["greedy"] => Ok(RerouteMode::Greedy),
        ["mincost"] => Ok(RerouteMode::Mincost),
        _ => Err(format!(
            "unrecognised reroute `{}`; {usage}",
            words.join(" ")
        )),
    }
}

fn parse_holding(words: &[&str]) -> Result<HoldingTime, String> {
    let usage = "holding = exp MEAN | pareto SHAPE MEAN";
    match words {
        ["exp", mean] => Ok(HoldingTime::Exponential {
            mean: parse_num(mean)?,
        }),
        ["pareto", shape, mean] => Ok(HoldingTime::Pareto {
            shape: parse_num(shape)?,
            mean: parse_num(mean)?,
        }),
        _ => Err(format!(
            "unrecognised holding `{}`; {usage}",
            words.join(" ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# comment line
network = clos-strict 2 3   # trailing comment
pattern = hotspot 0.25 0.8
holding = pareto 2.5 1.5
arrival_rate = 4
fault_rate = 0.001
mttr = 10
duration = 200
warmup = 20
seeds = 4
seed_base = 7
buckets = 8
threads = 2
";

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::parse(GOOD).unwrap();
        assert_eq!(s.fabric, FabricSpec::ClosStrict(2, 3));
        assert_eq!(
            s.config.pattern,
            TrafficPattern::Hotspot {
                hot_fraction: 0.25,
                p_hot: 0.8
            }
        );
        assert_eq!(
            s.config.holding,
            HoldingTime::Pareto {
                shape: 2.5,
                mean: 1.5
            }
        );
        assert_eq!(s.config.arrival_rate, 4.0);
        assert_eq!(s.config.warmup, 20.0);
        assert_eq!(s.seed_list(), vec![7, 8, 9, 10]);
        assert_eq!(s.threads, 2);
        assert_eq!(s.fabric.to_spec_string(), "clos-strict 2 3");
    }

    #[test]
    fn defaults_fill_in() {
        let s = Scenario::parse("network = benes 3\n").unwrap();
        assert_eq!(s.fabric, FabricSpec::Benes(3));
        assert_eq!(s.config.pattern, TrafficPattern::Uniform);
        assert_eq!(s.config.fault_rate, 0.0);
        assert_eq!(s.seeds, 1);
    }

    #[test]
    fn multibutterfly_specs_parse_and_build() {
        let s = Scenario::parse("network = multibutterfly 3 2 7\n").unwrap();
        assert_eq!(s.fabric, FabricSpec::Multibutterfly(3, 2, 7));
        assert_eq!(s.fabric.to_spec_string(), "multibutterfly 3 2 7");
        assert_eq!(s.fabric.build().terminals(), 8);
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        // malformed directive (no `=`)
        let err = Scenario::parse("network = clos-strict 2 2\nnot a directive\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("expected `key = value`"), "{err}");
        // unknown key
        let err = Scenario::parse("network = clos-strict 2 2\nbogus_key = 1\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("unknown key `bogus_key`"), "{err}");
        // malformed value
        let err = Scenario::parse("network = clos-strict 2 2\narrival_rate = fast\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("expected a number"), "{err}");
        let err = Scenario::parse("network = hypercube 4\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("unrecognised network"), "{err}");
        let err = Scenario::parse("pattern = uniform\n").unwrap_err();
        assert!(err.contains("must set `network"), "{err}");
    }

    #[test]
    fn validation_errors_point_at_the_offending_line() {
        // out-of-range value: the line of the value's own directive
        let err = Scenario::parse("network = clos-strict 2 2\n\narrival_rate = 0\n").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("arrival_rate must be positive"), "{err}");
        let err =
            Scenario::parse("fault_open_share = 1.5\nnetwork = clos-strict 2 2\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("fault_open_share"), "{err}");
        // inconsistent combination: attributed to the named key's line
        let err = Scenario::parse("network = clos-strict 2 2\nduration = 100\nwarmup = 100\n")
            .unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("warmup must be in [0, duration)"), "{err}");
        // crossbar + faults: attributed to the `network` line
        let err = Scenario::parse("fault_rate = 0.01\nnetwork = crossbar 4\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("crossbar"), "{err}");
        // so are faults on the other two-stage fabrics, whose spec the
        // message names
        for spec in ["benes 1", "multibutterfly 1 2 7"] {
            let text = format!("fault_rate = 0.01\nnetwork = {spec}\n");
            let err = Scenario::parse(&text).unwrap_err();
            assert!(err.starts_with("line 2:"), "{err}");
            assert!(err.contains(&format!("`{spec}` has two stages")), "{err}");
        }
        // the spec-level rule is the built fabric's
        for spec in [
            "crossbar 1",
            "crossbar 4",
            "clos-strict 1 1",
            "clos-rearr 2 3",
            "benes 1",
            "benes 2",
            "multibutterfly 1 2 7",
            "multibutterfly 2 2 7",
            "ftn 1 8 4 1.0",
        ] {
            let fs = FabricSpec::parse(spec).unwrap();
            assert_eq!(fs.supports_faults(), fs.build().supports_faults(), "{spec}");
        }
    }

    /// Every out-of-range argument, and every census past the `u32` ids,
    /// is a parse error naming the accepted range — attributed to the
    /// `network` line — where it used to be clamped or to panic in the
    /// builder (`ftn 1 3 4 1.0` and `ftn 1 8 0 1.0` in `Params::reduced`).
    #[test]
    fn bad_network_specs_are_refused_at_parse_time() {
        let cases = [
            ("crossbar 0", "`crossbar N` takes N ≥ 1, got 0"),
            ("clos-strict 0 4", "`clos-strict N R` takes N ≥ 1, got 0"),
            ("clos-strict 4 0", "`clos-strict N R` takes R ≥ 1, got 0"),
            ("clos-rearr 0 2", "`clos-rearr N R` takes N ≥ 1, got 0"),
            ("clos-rearr 2 0", "`clos-rearr N R` takes R ≥ 1, got 0"),
            ("benes 0", "`benes K` takes K in 1..=16, got 0"),
            ("benes 17", "`benes K` takes K in 1..=16, got 17"),
            ("multibutterfly 0 2 7", "takes K in 1..=16, got 0"),
            ("multibutterfly 17 2 7", "takes K in 1..=16, got 17"),
            ("multibutterfly 4 0 7", "takes D ≥ 1, got 0"),
            ("ftn 0 8 8 1.0", "takes NU in 1..=8, got 0"),
            ("ftn 9 8 8 1.0", "takes NU in 1..=8, got 9"),
            ("ftn 1 3 4 1.0", "takes an even WIDTH, got 3"),
            ("ftn 1 0 4 1.0", "takes WIDTH ≥ 2, got 0"),
            ("ftn 1 8 0 1.0", "takes DEGREE ≥ 1, got 0"),
            (
                "ftn 1 8 4 1e10",
                "takes GAMMA·NU ≤ 4^16, got GAMMA = 10000000000",
            ),
            // 65536² switches is 2³², one past the largest u32 id count
            (
                "crossbar 65536",
                "`crossbar 65536` has 4294967296 switches on 131072",
            ),
            ("clos-strict 40000 40000", "switches on"),
            ("ftn 8 1024 10 1.0", "switches on"),
            (
                "ftn 8 1000000000000 10 1.0",
                "more switches or vertices than a usize",
            ),
        ];
        for (spec, says) in cases {
            let err = Scenario::parse(&format!("seeds = 1\nnetwork = {spec}\n")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{spec}: {err}");
            assert!(err.contains(says), "{spec}: {err}");
            assert_eq!(
                FabricSpec::parse(spec).unwrap_err(),
                err["line 2: ".len()..]
            );
        }
        let census = "but switch and vertex ids are u32: each count must stay below 4294967295";
        assert!(FabricSpec::parse("crossbar 65536")
            .unwrap_err()
            .ends_with(census));
        // the edge of each range parses (nothing here is built)
        for spec in [
            "crossbar 1",
            "crossbar 65535",
            "clos-strict 1 1",
            "benes 1",
            "benes 16",
            "multibutterfly 16 1 7",
            "ftn 8 2 1 1.0",
            "ftn 1 2 1 -3",
        ] {
            assert!(FabricSpec::parse(spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn faults_and_retry_directives_parse() {
        let s = Scenario::parse("network = clos-strict 2 2\nfaults = storm 0.05 2.0 1\nmttr = 5\n")
            .unwrap();
        assert_eq!(
            s.config.faults,
            FaultSpec::Storm {
                rate: 0.05,
                window: 2.0,
                stage: Some(1)
            }
        );
        assert_eq!(s.config.faults.to_spec_string(), "storm 0.05 2 1");
        let s = Scenario::parse("network = clos-strict 2 2\nfaults = burst 0.1 3 1.5\nmttr = 5\n")
            .unwrap();
        assert_eq!(
            s.config.faults,
            FaultSpec::Burst {
                rate: 0.1,
                size: 3,
                window: 1.5
            }
        );
        let s = Scenario::parse("network = clos-strict 2 2\nfaults = targeted 0.02\nmttr = 5\n")
            .unwrap();
        assert_eq!(s.config.faults, FaultSpec::Targeted { rate: 0.02 });
        let s =
            Scenario::parse("network = clos-strict 2 2\nretry = budget 3 backoff 0.5 shed 64\n")
                .unwrap();
        assert_eq!(
            s.config.retry,
            RetryPolicy::Backoff {
                budget: 3,
                base: 0.5,
                shed_depth: 64
            }
        );
        let s = Scenario::parse("network = clos-strict 2 2\nretry = on-repair\n").unwrap();
        assert_eq!(s.config.retry, RetryPolicy::OnRepair);
    }

    #[test]
    fn reroute_directives_parse() {
        let s = Scenario::parse("network = clos-strict 2 2\nreroute = mincost\n").unwrap();
        assert_eq!(s.config.reroute, RerouteMode::Mincost);
        assert_eq!(s.config.reroute.to_spec_string(), "mincost");
        let s = Scenario::parse("network = clos-strict 2 2\nreroute = greedy\n").unwrap();
        assert_eq!(s.config.reroute, RerouteMode::Greedy);
        // omitted entirely: the greedy default
        let s = Scenario::parse("network = clos-strict 2 2\n").unwrap();
        assert_eq!(s.config.reroute, RerouteMode::Greedy);
    }

    #[test]
    fn malformed_reroute_directives_carry_line_numbers() {
        for text in [
            "network = clos-strict 2 2\nreroute = cheapest\n",
            "network = clos-strict 2 2\nreroute = mincost extra\n",
            "network = clos-strict 2 2\nreroute =\n",
        ] {
            let err = Scenario::parse(text).unwrap_err();
            assert!(err.starts_with("line 2:"), "{text} -> {err}");
            assert!(err.contains("unrecognised reroute"), "{text} -> {err}");
        }
    }

    #[test]
    fn malformed_faults_directives_carry_line_numbers() {
        for (text, needle) in [
            // unknown process
            (
                "network = clos-strict 2 2\nfaults = meteor 1\n",
                "unrecognised faults",
            ),
            // wrong arity
            (
                "network = clos-strict 2 2\nfaults = storm 0.05\n",
                "unrecognised faults",
            ),
            (
                "network = clos-strict 2 2\nfaults = targeted\n",
                "unrecognised faults",
            ),
            // non-numeric field
            (
                "network = clos-strict 2 2\nfaults = burst fast 3 1\n",
                "expected a number",
            ),
            (
                "network = clos-strict 2 2\nfaults = storm 0.05 2.0 mid\n",
                "expected a nonnegative integer",
            ),
        ] {
            let err = Scenario::parse(text).unwrap_err();
            assert!(err.starts_with("line 2:"), "{text} -> {err}");
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn malformed_retry_directives_carry_line_numbers() {
        for (text, needle) in [
            (
                "network = clos-strict 2 2\nretry = always\n",
                "unrecognised retry",
            ),
            (
                "network = clos-strict 2 2\nretry = budget 3\n",
                "unrecognised retry",
            ),
            (
                "network = clos-strict 2 2\nretry = budget 3 backoff 0.5 shed\n",
                "unrecognised retry",
            ),
            (
                "network = clos-strict 2 2\nretry = budget many backoff 0.5\n",
                "expected a nonnegative integer",
            ),
            (
                "network = clos-strict 2 2\nretry = budget 3 backoff slow\n",
                "expected a number",
            ),
        ] {
            let err = Scenario::parse(text).unwrap_err();
            assert!(err.starts_with("line 2:"), "{text} -> {err}");
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn faults_and_retry_validation_points_at_the_offending_line() {
        // zero storm rate
        let err = Scenario::parse("network = clos-strict 2 2\nfaults = storm 0 2.0\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("storm rate must be positive"), "{err}");
        // negative window
        let err =
            Scenario::parse("network = clos-strict 2 2\nfaults = storm 0.05 -1\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("storm window must be nonnegative"), "{err}");
        // zero burst size
        let err =
            Scenario::parse("network = clos-strict 2 2\nfaults = burst 0.1 0 1\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("burst size must be at least 1"), "{err}");
        // correlated injector + i.i.d. fault_rate clash
        let err = Scenario::parse(
            "network = clos-strict 2 2\nfault_rate = 0.01\nfaults = targeted 0.02\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("fault_rate drives the i.i.d."), "{err}");
        // zero backoff base
        let err =
            Scenario::parse("network = clos-strict 2 2\nretry = budget 3 backoff 0\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("backoff base must be positive"), "{err}");
        // crossbar + correlated faults: attributed to the network line
        let err = Scenario::parse("faults = storm 0.05 2\nnetwork = crossbar 4\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("crossbar"), "{err}");
        for spec in ["benes 1", "multibutterfly 1 2 7"] {
            let text = format!("faults = storm 0.05 2\nnetwork = {spec}\n");
            let err = Scenario::parse(&text).unwrap_err();
            assert!(err.starts_with("line 2:"), "{err}");
            assert!(err.contains(&format!("`{spec}` has two stages")), "{err}");
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let bad = [
            "network = clos-strict 2 2\narrival_rate = 0\n",
            "network = clos-strict 2 2\nholding = pareto 0.9 1\n",
            "network = clos-strict 2 2\nduration = 100\nwarmup = 100\n",
            "network = clos-strict 2 2\nseeds = 0\n",
            "network = clos-strict 2 2\nfault_open_share = 1.5\n",
            "network = crossbar 4\nfault_rate = 0.01\n",
            "network = clos-strict 2 2\npattern = bursty 1 1 0.5\n",
        ];
        for text in bad {
            assert!(Scenario::parse(text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn builder_overrides_compose_like_parsing() {
        // the grid-runner discipline: parse a base, overlay assignments
        let mut b = ScenarioBuilder::new();
        b.set("network", "clos-strict 2 2", 1).unwrap();
        b.set("arrival_rate", "2.0", 2).unwrap();
        b.set("arrival_rate", "8.0", 10).unwrap(); // override wins
        let s = b.build().unwrap();
        assert_eq!(s.config.arrival_rate, 8.0);
        // a bad override reports the override's line
        b.set("warmup", "500", 11).unwrap();
        let err = b.build().unwrap_err();
        assert!(err.starts_with("line 11:"), "{err}");
    }

    #[test]
    fn specs_build_their_fabrics() {
        for (text, terminals) in [
            ("network = crossbar 4\n", 4),
            ("network = clos-strict 2 3\n", 6),
            ("network = clos-rearr 2 2\n", 4),
            ("network = benes 2\n", 4),
            ("network = multibutterfly 2 2 1\n", 4),
        ] {
            let s = Scenario::parse(text).unwrap();
            assert_eq!(s.fabric.build().terminals(), terminals, "{text}");
        }
    }
}
