//! Observability layer for the fault-tolerant switching stack.
//!
//! Five independent pieces, all bound by the repo's byte-reproducibility
//! contract:
//!
//! * **Tracing** — the [`Observer`] trait the simulation engine is
//!   generic over, the [`Noop`] zero-cost default, and the [`TraceBuf`]
//!   deterministic-NDJSON serializer behind `ftsim --trace FILE`; the
//!   `trace_diff` bin (built from [`first_divergence`]) locates the
//!   first diverging event between two trace files.
//! * **Serialization** — [`JsonWriter`], the one writer behind the
//!   `ftsim` and `ftserve` reports, the `ftexp` study tables and the
//!   replay streams; it shares the `json` module's byte-level number
//!   renderers with [`TraceBuf`].
//! * **Streaming histograms** — [`Hist`], a sparse log-bucketed
//!   histogram with an exact `u64`-count sorted-bucket merge, so
//!   p50/p99/p999 summaries are byte-identical however the sample
//!   stream was partitioned across seeds, threads, or cache runs.
//! * **Profiling** — [`Profiler`] wall-clock phase sections and the
//!   [`KvLine`] accounting-line formatter, rendered to stderr only so
//!   reports and study tables stay byte-stable.
//! * **Crash-consistent output** — [`write_atomic`] and its streaming
//!   form [`write_atomic_with`], the temp-sibling-then-rename
//!   discipline every persisted artifact (reports, CSV tables, traces,
//!   cache cells, server snapshots) goes through so an interrupted run
//!   never leaves a torn file under a final name.
//!
//! The crate is a dependency leaf (std only): `ft-sim`, `ft-exp`, and
//! the binaries layer it over the engine without cycles.

#![warn(missing_docs)]

pub(crate) mod atomicio;
pub(crate) mod diff;
pub(crate) mod event;
pub(crate) mod hist;
pub(crate) mod json;
pub mod profile;

pub use atomicio::{fnv1a, seal, unseal, write_atomic, write_atomic_with};
pub use diff::{first_divergence, TraceDiff};
pub use event::{Noop, Observer, TraceBuf, TraceEvent};
pub use hist::{bucket_index, bucket_lower_edge, Hist, NUM_BUCKETS};
pub use json::{Fixed, JsonWriter, Layout, Scalar};
pub use profile::{KvLine, Profiler};
