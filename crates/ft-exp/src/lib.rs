//! # ft-exp — declarative parameter-grid experiment runner (`ftexp`)
//!
//! `ft-sim` answers "what happens in *this* scenario"; this crate
//! answers the paper's actual questions — blocking and connectivity as
//! *functions* of failure probability ε, redundancy ν, load and fabric
//! choice — by running whole parameter grids as one declarative study:
//!
//! * `grid` ([`GridSpec`]) — the `.ftexp` spec: a base `.ftsim`
//!   scenario plus `sweep key = v1, v2, ...` / `range` / `logrange`
//!   axes, expanded to the cartesian product of scenario cells (invalid
//!   combinations become *skipped* cells, not study failures);
//! * `runner` ([`run_grid`]) — parallel cell execution on the
//!   one-workspace-per-worker discipline, with completed cells cached
//!   under a content hash of `(resolved scenario, seed set, static
//!   trials)` so interrupted or re-run studies only compute missing
//!   cells;
//! * [`cache`] — the self-describing flat-text cell store whose
//!   numbers round-trip exactly (warm runs render byte-identical
//!   reports);
//! * `result` — per-seed scalar rows and cross-seed mean/std/CI
//!   aggregation;
//! * `table` ([`to_json`], [`to_csv`]) — deterministic JSON and CSV
//!   study tables, including the per-cell static Monte Carlo
//!   cross-check ([`ft_sim::pair_blocking_estimate`]) at the stationary
//!   unavailability.
//!
//! Committed studies live under `studies/` (blocking vs ε across
//! fabrics; fault-tolerance overhead vs ν); the grammar reference is
//! `docs/SCENARIOS.md`.
//!
//! **Determinism guarantee:** for a fixed spec text, the JSON and CSV
//! tables are byte-identical across runs, across worker counts, and
//! across cache-cold vs cache-warm executions (`tests/determinism.rs`
//! pins all three).

#![warn(missing_docs)]

pub mod cache;
pub(crate) mod grid;
pub(crate) mod result;
pub(crate) mod runner;
pub(crate) mod table;

pub use grid::GridSpec;
pub use runner::{run_grid, RunOptions};
pub use table::{to_csv, to_json};
