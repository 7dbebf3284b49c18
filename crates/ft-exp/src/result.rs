//! Per-cell results and cross-seed aggregation.
//!
//! A [`SeedRow`] is the flat scalar summary of one simulated seed —
//! exactly the fields the aggregate tables need, all of which
//! round-trip losslessly through the text cache (integers verbatim,
//! `f64` via shortest-round-trip formatting). Aggregates are always
//! recomputed from the seed rows at render time, so a cache-warm run
//! and a cache-cold run go through the identical arithmetic.
//!
//! The row's fields are listed once, in the `seed_row!` invocation
//! below; that list declares the struct and drives
//! [`SeedRow::from_outcome`], the cell cache's lines and field count and
//! the study table's per-seed object. A new per-seed metric is one row
//! there plus a bump of the cache `VERSION`.

use ft_failure::Estimate;
use ft_obs::{Hist, JsonWriter, Scalar};
use ft_sim::{stat, Fabric, Metrics, SeedOutcome, Stat};
use std::fmt::Display;
use std::str::FromStr;

/// How a [`SeedRow`] field of type `T` is written to the cell cache and
/// to the study table's per-seed object.
trait Codec<T> {
    /// The value of the field's `name = value` cache line.
    fn cache(v: &T) -> String;
    /// The inverse of `cache`; `None` if `s` is malformed.
    fn parse(s: &str) -> Option<T>;
    /// Writes the field's table member(s) under `key`.
    fn json(j: &mut JsonWriter, key: &str, v: &T);
}

/// A number as `{}` prints it, in the cache and in the table.
enum Plain {}

impl<T: Display + FromStr + Scalar> Codec<T> for Plain {
    fn cache(v: &T) -> String {
        v.to_string()
    }

    fn parse(s: &str) -> Option<T> {
        s.parse().ok()
    }

    fn json(j: &mut JsonWriter, key: &str, v: &T) {
        j.field(key, v);
    }
}

/// A 64-bit fingerprint: bare hex in the cache, a `0x` string in the
/// table.
enum Hex {}

impl Codec<u64> for Hex {
    fn cache(v: &u64) -> String {
        format!("{v:016x}")
    }

    fn parse(s: &str) -> Option<u64> {
        u64::from_str_radix(s, 16).ok()
    }

    fn json(j: &mut JsonWriter, key: &str, v: &u64) {
        j.field(key, format!("{v:#018x}"));
    }
}

/// A latency histogram: its compact encoding in the cache, its p50 and
/// p99 as `<key>_p50`/`<key>_p99` in the table — integers when
/// `EVENTS`, as latencies counted in fault/repair events are.
enum Quantiles<const EVENTS: bool> {}

impl<const EVENTS: bool> Codec<Hist> for Quantiles<EVENTS> {
    fn cache(v: &Hist) -> String {
        v.to_compact_string()
    }

    fn parse(s: &str) -> Option<Hist> {
        Hist::from_compact_str(s)
    }

    fn json(j: &mut JsonWriter, key: &str, v: &Hist) {
        for p in [50, 99] {
            let (key, q) = (format!("{key}_p{p}"), v.quantile(f64::from(p)));
            if EVENTS {
                j.field(&key, q as u64);
            } else {
                j.field(&key, q);
            }
        }
    }
}

/// Declares [`SeedRow`] from its field list. Each row gives the field's
/// docs, name and type, its `Codec`, the table key where it differs
/// from the name, and how the field is read off an engine outcome
/// (`out`, its metrics `m`, the `fabric`).
macro_rules! seed_row {
    (@key $name:ident) => {
        stringify!($name)
    };
    (@key $name:ident $key:literal) => {
        $key
    };
    (|$out:ident, $m:ident, $fabric:ident| $(
        $(#[$attr:meta])*
        $name:ident: $ty:ty as $codec:ty $(, $key:literal)? = $from:expr;
    )+) => {
        /// Flat scalar summary of one simulated seed.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub(crate) struct SeedRow {
            $($(#[$attr])* pub $name: $ty,)+
        }

        impl SeedRow {
            /// Field names in cache order; a row's lines start with the
            /// first.
            pub(crate) const NAMES: &[&str] = &[$(stringify!($name)),+];

            /// Flattens one engine outcome (the fabric supplies the stage
            /// sizes for utilisation denominators).
            pub(crate) fn from_outcome($out: &SeedOutcome, $fabric: &Fabric) -> SeedRow {
                let $m = &$out.metrics;
                SeedRow { $($name: $from),+ }
            }

            /// Calls `line(name, value)` for each field's cache line, in
            /// order.
            pub(crate) fn cache_lines(&self, mut line: impl FnMut(&str, &str)) {
                $(line(stringify!($name), &<$codec as Codec<$ty>>::cache(&self.$name));)+
            }

            /// Sets the field a cache line names; `None` for an unknown
            /// name or a malformed value.
            pub(crate) fn set(&mut self, name: &str, value: &str) -> Option<()> {
                match name {
                    $(stringify!($name) => self.$name = <$codec as Codec<$ty>>::parse(value)?,)+
                    _ => return None,
                }
                Some(())
            }

            /// Writes the row's members into the open per-seed object.
            pub(crate) fn write_json(&self, j: &mut JsonWriter) {
                $(<$codec as Codec<$ty>>::json(j, seed_row!(@key $name $($key)?), &self.$name);)+
            }
        }
    };
}

seed_row! {
    |out, m, fabric|
    /// The seed.
    seed: u64 as Plain = out.seed;
    /// Events processed.
    events: u64 as Plain = out.events;
    /// FNV fingerprint of the event stream (determinism witness).
    fingerprint: u64 as Hex = out.fingerprint;
    /// Call arrivals (post-warm-up).
    offered: u64 as Plain = m.offered;
    /// Calls connected.
    connected: u64 as Plain = m.connected;
    /// Calls refused for lack of an idle path.
    blocked: u64 as Plain = m.blocked;
    /// Calls refused because a terminal was busy.
    rejected_busy: u64 as Plain = m.rejected_busy;
    /// Live sessions killed by faults.
    dropped: u64 as Plain = m.dropped;
    /// Killed sessions re-routed before hangup.
    rerouted: u64 as Plain = m.rerouted;
    /// Executed reroute operations (greedy attempts, or mincost
    /// placements actually committed to the fabric).
    moved: u64 as Plain = m.moved;
    /// Killed sessions lost for good.
    abandoned: u64 as Plain = m.abandoned;
    /// Switch-fault events.
    faults: u64 as Plain = m.faults;
    /// Repair completions.
    repairs: u64 as Plain = m.repairs;
    /// Fault episodes (storm/burst/adversary onsets; == faults for
    /// i.i.d.).
    storms: u64 as Plain = m.storms;
    /// Killed calls shed by the admission ladder.
    shed: u64 as Plain = m.shed;
    /// Time spent degraded (failed switches or calls waiting).
    degraded_time: f64 as Plain = m.degraded_time;
    /// Mean completed degraded-interval length.
    time_to_recover: f64 as Plain = m.time_to_recover_mean();
    /// Killed calls per fault episode.
    dropped_per_storm: f64 as Plain = m.dropped_per_storm();
    /// Blocking probability.
    blocking: f64 as Plain = m.blocking_probability();
    /// Busy-rejection fraction.
    busy_rejection: f64 as Plain = m.busy_rejection();
    /// Drop rate (abandoned / connected).
    drop_rate: f64 as Plain = m.drop_rate();
    /// Carried load (erlangs).
    carried_erlangs: f64 as Plain = m.carried_erlangs();
    /// Mean established path length (switches).
    mean_path_len: f64 as Plain = m.mean_path_len();
    /// Mean fault/repair events waited by re-routed calls.
    mean_reroute_latency: f64 as Plain = m.mean_reroute_latency_events();
    /// Busiest stage's mean utilisation.
    util_max: f64 as Plain = busiest_stage(m, fabric);
    /// Reroute-latency distribution in fault/repair events (streaming
    /// log-bucketed histogram; merges exactly across seeds).
    reroute_hist_events: Hist as Quantiles<true>, "reroute_latency_events" =
        m.reroute_hist_events.clone();
    /// Reroute-latency distribution in sim-time units.
    reroute_hist_time: Hist as Quantiles<false>, "reroute_latency_time" =
        m.reroute_hist_time.clone();
}

/// The mean utilisation of the busiest stage.
fn busiest_stage(m: &Metrics, fabric: &Fabric) -> f64 {
    (0..fabric.net().num_stages())
        .map(|s| {
            let r = fabric.net().stage_range(s);
            m.stage_utilisation((r.end - r.start) as usize)
        })
        .fold(0.0f64, f64::max)
}

/// A completed (simulated or cache-loaded) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellData {
    /// Fabric label as built (family and size).
    pub(crate) fabric_label: String,
    /// Switch count of the fabric.
    pub(crate) switches: usize,
    /// Terminal count of the fabric.
    pub(crate) terminals: usize,
    /// One row per seed, in seed order.
    pub(crate) seeds: Vec<SeedRow>,
    /// Static pair-blocking cross-check at the stationary
    /// unavailability (present when the cell has faults *and* repair
    /// and the grid enabled `static_trials`).
    pub static_est: Option<Estimate>,
}

/// The aggregate statistics a cell contributes to the study tables.
#[derive(Clone, Copy, Debug)]
pub struct CellAggregate {
    /// Blocking probability across seeds.
    pub blocking: Stat,
    /// Busy-rejection fraction across seeds.
    pub busy_rejection: Stat,
    /// Drop rate across seeds.
    pub(crate) drop_rate: Stat,
    /// Carried erlangs across seeds.
    pub(crate) carried_erlangs: Stat,
    /// Mean path length across seeds.
    pub(crate) mean_path_len: Stat,
    /// Mean reroute latency (fault/repair events) across seeds.
    pub(crate) reroute_latency: Stat,
    /// Busiest-stage utilisation across seeds.
    pub(crate) util_max: Stat,
    /// Mean time-to-recover across seeds.
    pub(crate) time_to_recover: Stat,
    /// Dropped-per-storm across seeds.
    pub(crate) dropped_per_storm: Stat,
    /// Total offered calls across seeds.
    pub(crate) offered_total: u64,
}

impl CellData {
    /// Merges the per-seed reroute-latency histograms (events, time).
    /// Histogram merge is exact, so the resulting quantiles are the
    /// quantiles of the pooled sample regardless of seed partitioning.
    pub(crate) fn merged_reroute_hists(&self) -> (Hist, Hist) {
        let mut events = Hist::new();
        let mut time = Hist::new();
        for row in &self.seeds {
            events.merge(&row.reroute_hist_events);
            time.merge(&row.reroute_hist_time);
        }
        (events, time)
    }

    /// Aggregates the seed rows (recomputed at render time on both the
    /// cold and the warm path).
    pub fn aggregate(&self) -> CellAggregate {
        let f = |sel: fn(&SeedRow) -> f64| stat(self.seeds.iter().map(sel));
        CellAggregate {
            blocking: f(|r| r.blocking),
            busy_rejection: f(|r| r.busy_rejection),
            drop_rate: f(|r| r.drop_rate),
            carried_erlangs: f(|r| r.carried_erlangs),
            mean_path_len: f(|r| r.mean_path_len),
            reroute_latency: f(|r| r.mean_reroute_latency),
            util_max: f(|r| r.util_max),
            time_to_recover: f(|r| r.time_to_recover),
            dropped_per_storm: f(|r| r.dropped_per_storm),
            offered_total: self.seeds.iter().map(|r| r.offered).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::FabricSpec;

    #[test]
    fn seed_rows_flatten_outcomes() {
        let fabric = FabricSpec::ClosStrict(2, 2).build();
        let cfg = ft_sim::SimConfig {
            arrival_rate: 4.0,
            holding: ft_sim::HoldingTime::Exponential { mean: 1.0 },
            pattern: ft_sim::TrafficPattern::Uniform,
            fault_rate: 0.002,
            fault_open_share: 0.5,
            mttr: 10.0,
            duration: 50.0,
            warmup: 0.0,
            buckets: 1,
            ..ft_sim::SimConfig::default()
        };
        let out = ft_sim::run_seed(&fabric, &cfg, 3);
        let row = SeedRow::from_outcome(&out, &fabric);
        assert_eq!(row.seed, 3);
        assert_eq!(row.fingerprint, out.fingerprint);
        assert_eq!(row.blocking, out.metrics.blocking_probability());
        assert!(row.util_max > 0.0 && row.util_max <= 1.0);
    }
}
