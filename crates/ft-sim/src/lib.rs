//! # ft-sim — discrete-event traffic & fault-lifetime simulation
//!
//! The paper's headline claim is *operational*: an (ε, δ)-nonblocking
//! network keeps serving circuits **while switches fail and repairs
//! run**. The rest of the workspace evaluates static failure snapshots;
//! this crate adds the time axis. A deterministic discrete-event engine
//! drives a [`ft_networks::CircuitRouter`] through virtual time:
//!
//! * `events` ([`EventQueue`]) — the event queue: arrivals, hangups,
//!   switch faults, repair completions, burst toggles, totally ordered
//!   by `(time, seq)`;
//! * [`workload`] — Poisson arrivals (optionally burst-modulated) with
//!   exponential or heavy-tailed holding times under uniform,
//!   permutation, hotspot and bursty traffic patterns;
//! * `fabric` ([`Fabric`]) — the switch fabrics under test and the §4
//!   repair discipline that turns a cumulative failure instance into a
//!   router alive-mask;
//! * `inject` ([`FaultSpec`]) — pluggable fault processes behind one
//!   injector trait: the i.i.d. exponential baseline, stage-group
//!   storms, spatially correlated bursts, and a greedy targeted
//!   adversary, plus the [`RetryPolicy`] degradation ladder (retry
//!   budgets, exponential backoff, admission shedding);
//! * `core` ([`SwitchingCore`]) — the switching core both `ftsim` and
//!   `ftserve` drive: router, cumulative failure states, incremental
//!   repair mask and the fault → kill-wave → revive discipline, in one
//!   place;
//! * `engine` ([`run_seed`]) — the event loop: the circuits a fault
//!   kills trigger immediate re-routes; repairs retry the calls still
//!   waiting;
//! * `metrics` ([`Metrics`]) — blocking probability, drops, reroute
//!   latency, path lengths, per-stage utilisation, time buckets, and
//!   the Erlang-B reference for low-load sanity checks;
//! * `sweep` ([`run_sweep`]) — the multi-seed parallel driver (one
//!   workspace per worker, results independent of thread count);
//! * `scenario` ([`Scenario`]) / [`report`] — the plain-text spec the
//!   `ftsim` CLI parses and the byte-reproducible JSON report it emits;
//! * `staticcheck` ([`pair_blocking_estimate`]) — the PASTA
//!   cross-check: a snapshot Monte Carlo estimate at the stationary
//!   unavailability that temporal blocking must reproduce (and that
//!   `ftexp` studies report per cell);
//! * [`stream`] — deterministic workload-stream export (`ftsim
//!   --export-stream`): the connect/disconnect/fault/repair schedule
//!   of one seed rendered as replayable NDJSON for the `ftserve`
//!   replay client.
//!
//! **Determinism guarantee:** all randomness flows through one seeded
//! RNG in event order, event ties break by insertion sequence, and the
//! JSON writer is byte-stable — a fixed `(scenario, seed)` pair
//! reproduces the identical event stream (pinned by an FNV fingerprint)
//! and the identical report, across runs and thread counts.

#![warn(missing_docs)]

pub(crate) mod core;
pub(crate) mod engine;
pub(crate) mod events;
pub(crate) mod fabric;
pub(crate) mod inject;
pub(crate) mod metrics;
pub mod report;
pub(crate) mod scenario;
pub(crate) mod staticcheck;
pub mod stream;
pub(crate) mod sweep;
pub mod workload;

pub use core::{CoreBuffers, SwitchingCore};
pub use engine::{run_seed, run_seed_obs, run_seed_with, SeedOutcome, SimConfig, SimWorkspace};
pub use events::{EventKind, EventQueue};
pub use fabric::{Fabric, FabricSpec};
pub use inject::{FaultSpec, RerouteMode, RetryPolicy};
pub use metrics::{erlang_b, Metrics};
pub use report::{stat, Report, Stat};
pub use scenario::{Scenario, ScenarioBuilder, SCENARIO_KEYS};
pub use staticcheck::{pair_blocking_estimate, pair_blocking_estimate_scalar};
pub use stream::{export_stream, StreamKind};
pub use sweep::{run_sweep, run_sweep_traced, run_sweep_traced_to};
pub use workload::{HoldingTime, TrafficPattern};

/// Parses a scenario, runs its sweep and assembles the report — the
/// CLI's whole pipeline, reusable from tests and examples.
pub fn run_scenario_text(text: &str) -> Result<Report, String> {
    let scenario = Scenario::parse(text)?;
    let fabric = scenario.fabric.build();
    let outcomes = run_sweep(
        &fabric,
        &scenario.config,
        &scenario.seed_list(),
        scenario.threads,
    );
    Ok(Report::new(scenario, &fabric, outcomes))
}
