//! Observability substrate for the iPlane Nano serving fleet.
//!
//! Everything a running `inano-serve` knows about itself funnels
//! through here: the unified [`MetricsRegistry`] (named counters,
//! gauges and log₂ [`LatencyHistogram`]s behind cheap atomic handles),
//! the mergeable [`MetricsDump`] snapshot it exports (counters and
//! histogram buckets sum, gauges take the max — exact, never an
//! average of percentiles), the
//! request-scoped [`TraceCtx`] that times a request through the
//! decode → queue → engine → encode stages, and the typed,
//! monotonically sequenced [`EventJournal`] (the causal timeline behind
//! the counters: swaps, resyncs, overload episodes, connection churn).
//! Nothing here opens a socket: a server's dump and journal leave the
//! process only over its own query socket, as `inano-net`'s `Metrics`
//! and `Events` frames.
//!
//! The crate is deliberately dependency-free (std only): it sits below
//! `inano-service` and `inano-net` in the workspace, so
//! anything it pulled in would be paid by every layer above it.

mod hist;
mod journal;
mod registry;
mod trace;

pub use hist::{bucket_of, quantile_from_counts, LatencyHistogram, BUCKETS};
pub use journal::{Event, EventJournal, EventKind, EventsPage};
pub use registry::{Counter, Gauge, Metric, MetricValue, MetricsDump, MetricsRegistry};
pub use trace::{TraceCtx, TraceTimings};
