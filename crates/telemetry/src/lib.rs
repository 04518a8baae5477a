//! # qurator-telemetry
//!
//! The observability substrate the paper's promise of *inspectable*
//! quality decisions rests on (§1: the scientist must be able to ask why
//! an item was classified the way it was; the Taverna deployment leans on
//! workflow provenance for exactly this). Three pillars:
//!
//! * [`span`] — hierarchical spans (view → wave → node → iteration
//!   invocation) with monotonic timestamps, parent links and key/value
//!   attributes. Spans are recorded into per-worker [`span::SpanRecorder`]s
//!   (no locks on the hot path) and merged into a [`span::SpanTrace`] when
//!   an enactment finishes;
//! * [`metrics`] — a process-wide registry of counters, gauges and
//!   fixed-bucket log₂-scale histograms backed by sharded atomics, so the
//!   enrichment hot path can record rates and latencies without
//!   serialising writers;
//! * [`ledger`] — the decision-provenance ledger: per data item, the
//!   evidence values fetched (Data Enrichment), the scores/classes
//!   assigned (Quality Assertions) and the actions taken, each linked to
//!   the span that produced it, queryable as `why(item) ->`
//!   [`ledger::DecisionTrace`].
//!
//! On top of the per-run pillars sits the continuous-observability layer
//! for long-lived engines (`qv serve`):
//!
//! * [`retain`] — bounded, tail-sampled retention of finished span trees
//!   in per-worker ring shards ([`retain::TraceRetainer`], configured by
//!   [`retain::TelemetryConfig`]);
//! * [`drift`] — sliding-window QA-classification distributions compared
//!   (L1 / χ²) against a reference window, with threshold-crossing
//!   events republished into the ledger;
//! * [`profile`] — a folded-stack (flamegraph) exporter over span
//!   traces;
//! * [`runid`] — the correlation spine: a [`runid::RunId`] minted per
//!   request/invocation and stamped onto spans, retained traces, ledger
//!   records and drift-crossing events;
//! * [`accesslog`] — a bounded, sharded structured access log (one JSON
//!   line per served request, each carrying its run id);
//! * [`slo`] — per-route latency/availability error budgets over a
//!   sliding window of the existing request metrics;
//! * [`stats`] — observed plan-node statistics (EXPLAIN ANALYZE):
//!   per-run [`stats::RunStats`] merged across workers plus persisted
//!   per-view [`stats::StatsProfile`] decayed aggregates that feed the
//!   plan pass pipeline's cost decisions;
//! * [`naming`] — the metric-name convention lint and committed
//!   allowlist enforced by `qv telemetry-check`.
//!
//! Exporters ([`export`]) cover a JSON-lines span log, Prometheus-style
//! text exposition and a human-readable trace renderer; [`schema`]
//! validates emitted artifacts in-tree (used by the CI smoke job), on top
//! of the dependency-free JSON parser in [`json`].
//!
//! The crate is intentionally dependency-free (std only) so every layer of
//! the stack — rdf, annotations, workflow, core, cli, bench — can link it
//! without cycles.

pub mod accesslog;
pub mod drift;
pub mod export;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod naming;
pub mod profile;
pub mod retain;
pub mod runid;
pub mod schema;
pub mod slo;
pub mod span;
pub mod stats;

pub use accesslog::{AccessLog, AccessRecord};
pub use drift::{DriftConfig, DriftEvent, DriftMonitor};
pub use ledger::{
    ActionRecord, AssertionRecord, DecisionLedger, DecisionTrace, EvidenceRecord, LedgerEvent,
    LedgerValue,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profile::Profile;
pub use retain::{KeepReason, RetainedTrace, TelemetryConfig, TraceMeta, TraceRetainer};
pub use runid::RunId;
pub use slo::{RouteSlo, SloConfig, SloTracker};
pub use span::{AttrValue, Span, SpanId, SpanKind, SpanRecorder, SpanTrace, TraceSession};
pub use stats::{NodeStats, RunStats, StatsCollector, StatsProfile};

/// The process-wide metrics registry (see [`metrics::global`]).
pub fn metrics() -> &'static MetricsRegistry {
    metrics::global()
}
