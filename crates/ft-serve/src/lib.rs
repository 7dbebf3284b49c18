//! # ft-serve — a crash-tolerant online circuit-switching service
//!
//! The simulator (`ft-sim`) proves the paper's operational claim in
//! virtual time; this crate proves it *against a wall clock*: `ftserve`
//! is a long-running TCP service wrapping the incremental
//! [`ft_networks::CircuitRouter`] + §4 alive-tracker behind a
//! length-prefixed binary protocol, and it is built to degrade — never
//! wedge — while switches fail, clients flood, topologies swap, and
//! the process itself is `kill -9`'d:
//!
//! * [`protocol`] — the frame grammar: typed requests, typed error
//!   statuses (`Shed`, `DeadlineExpired`, `BadFrame`, …), resumable
//!   frame reads that tolerate slow-loris writers;
//! * [`engine`] — the single-writer engine thread: one total admission
//!   order over a bounded queue (the simulator's `(time, seq)`
//!   discipline, transplanted), per-request deadlines, generational
//!   topology reload with live-circuit migration, fault/repair
//!   injection with recovery-episode accounting;
//! * `server` ([`Server`]) — the thread-per-connection frontend and the
//!   backpressure boundary (queue-full connects shed at the frontend;
//!   the control plane always gets through);
//! * `snapshot` — crash-consistent counter snapshots (temp sibling +
//!   rename) that a restarted server resumes from;
//! * `client` ([`Client`]) — the blocking lockstep client the replay
//!   tool, tests and benches speak through.
//!
//! Two binaries ship with the crate: `ftserve` (the server, boot from
//! any `ftsim` scenario file) and `ftserve-replay` (replays an
//! `ftsim --export-stream` workload against a live server at a
//! wall-clock speed multiplier, with client-side exponential backoff).
//! `--deterministic` on both sides yields byte-identical final reports
//! across runs — the service-shaped version of the simulator's
//! determinism guarantee. See `docs/SERVICE.md` for the protocol
//! grammar and worked sessions.

#![warn(missing_docs)]

pub(crate) mod client;
pub mod engine;
pub mod protocol;
pub(crate) mod server;
pub(crate) mod snapshot;

pub use client::Client;
pub use engine::{EngineConfig, Job, SharedFlags};
pub use protocol::{Request, Response, Status};
pub use server::{Server, ServerConfig};
