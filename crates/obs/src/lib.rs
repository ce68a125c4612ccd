//! # dana-obs — the observability layer
//!
//! Everything the system exposes about *itself* funnels through this
//! crate, in two halves:
//!
//! * a **metrics registry** ([`MetricsRegistry`]) of lock-cheap
//!   primitives — [`Counter`] and the log-bucketed [`Histogram`] with
//!   p50/p95/p99 readout — that the serving tier
//!   records into on the hot path and snapshots into a serializable
//!   [`StatsSnapshot`] for `SHOW STATS`;
//! * a **query-lifecycle trace** ([`QueryTrace`]) of named stage spans
//!   (parse → admission wait → lease → scan → engine → merge →
//!   materialize → reply) for `EXPLAIN ANALYZE` and `WITH (trace = on)`.
//!   The core composes it once, after the run, from what the run
//!   reported — so untraced queries pay nothing for it, and the embedded
//!   front door and the server worker emit structurally identical traces.

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry};
pub use metrics::{StatEntry, StatsSnapshot};
pub use trace::{QueryTrace, TraceSpan};

/// The subsystems `SHOW STATS ('<subsystem>')` can filter on. A name
/// outside this list is a typed query error at parse time.
pub const SUBSYSTEMS: &[&str] = &[
    "admission",
    "pool",
    "buffer",
    "sessions",
    "engine",
    "faults",
    "serving",
    "scan",
];
