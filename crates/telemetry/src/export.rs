//! File-writing exporters: the thin glue between the in-memory telemetry
//! structures and the artifacts the CLI flags (`--trace-out`,
//! `--metrics-out`) surface.

use std::io::Write as _;
use std::path::Path;

use crate::accesslog::AccessLog;
use crate::metrics::MetricsRegistry;
use crate::span::SpanTrace;

/// Writes a span trace as JSON-lines to `path` (validated by
/// [`crate::schema::validate_trace_jsonl`]).
pub fn write_trace_jsonl(trace: &SpanTrace, path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(trace.to_jsonl().as_bytes())
}

/// Writes the registry's Prometheus-style exposition to `path`.
pub fn write_metrics_text(registry: &MetricsRegistry, path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(registry.render_prometheus().as_bytes())
}

/// Dumps an access log's in-memory ring (newest first) as JSON-lines to
/// `path` (validated by [`crate::schema::validate_access_log_jsonl`]).
/// The ring holds only the most recent records; the `--access-log` file
/// sink is the complete stream.
pub fn write_access_log_jsonl(log: &AccessLog, path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(log.recent_jsonl(usize::MAX).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, TraceSession};

    #[test]
    fn written_artifacts_pass_their_schema_checks() {
        let dir =
            std::env::temp_dir().join(format!("qurator-telemetry-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let session = TraceSession::new();
        let mut rec = session.recorder();
        let root = rec.start("view:v", SpanKind::View, None);
        rec.end(root);
        let trace = SpanTrace::from_spans(rec.finish());
        let trace_path = dir.join("trace.jsonl");
        write_trace_jsonl(&trace, &trace_path).unwrap();
        let contents = std::fs::read_to_string(&trace_path).unwrap();
        assert_eq!(crate::schema::validate_trace_jsonl(&contents).unwrap(), 1);

        let registry = MetricsRegistry::new();
        registry.counter("export.test").add(5);
        let metrics_path = dir.join("metrics.prom");
        write_metrics_text(&registry, &metrics_path).unwrap();
        let contents = std::fs::read_to_string(&metrics_path).unwrap();
        assert_eq!(crate::schema::validate_metrics_text(&contents).unwrap(), 1);

        let log = AccessLog::new(8);
        log.record(crate::accesslog::AccessRecord {
            seq: 0,
            ts_ms: 1,
            peer: "127.0.0.1:1".into(),
            route: "/run".into(),
            status: 200,
            bytes: 2,
            phases_ns: [1_000, 0, 2_000, 0, 0, 500],
            run_id: Some(crate::runid::RunId::from_u64(7)),
            shed: false,
            timeout: false,
        });
        let log_path = dir.join("access.jsonl");
        write_access_log_jsonl(&log, &log_path).unwrap();
        let contents = std::fs::read_to_string(&log_path).unwrap();
        assert_eq!(crate::schema::validate_access_log_jsonl(&contents).unwrap(), 1);

        std::fs::remove_dir_all(&dir).ok();
    }
}
