//! Hierarchical spans: the structural half of an enactment trace.
//!
//! A [`TraceSession`] hands out per-worker [`SpanRecorder`]s that append to
//! thread-local buffers — recording a span is two `Instant::now()` reads,
//! one atomic id allocation and a `Vec` push; no locks are shared between
//! workers. At the end of the traced activity the buffers are merged into
//! one [`SpanTrace`], which owns validation (well-formedness), rendering
//! and the JSON-lines export.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Opaque span identifier, unique within one [`TraceSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The level of a span in the enactment hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A whole view execution / enactment (the root).
    View,
    /// One wave (antichain) of the dependency graph.
    Wave,
    /// One processor node within a wave.
    Node,
    /// One implicit-iteration invocation of a node.
    Invocation,
    /// A named phase of the direct interpreter (annotation, enrichment, …).
    Phase,
    /// Anything else.
    Custom,
}

impl SpanKind {
    /// Stable lowercase name (used in exports and schema checks).
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::View => "view",
            SpanKind::Wave => "wave",
            SpanKind::Node => "node",
            SpanKind::Invocation => "invocation",
            SpanKind::Phase => "phase",
            SpanKind::Custom => "custom",
        }
    }

    /// Parses the stable name back (exports round-trip).
    pub fn parse(s: &str) -> Option<SpanKind> {
        Some(match s {
            "view" => SpanKind::View,
            "wave" => SpanKind::Wave,
            "node" => SpanKind::Node,
            "invocation" => SpanKind::Invocation,
            "phase" => SpanKind::Phase,
            "custom" => SpanKind::Custom,
            _ => return None,
        })
    }
}

/// A span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Text(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Text(s) => write!(f, "{s}"),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Text(s.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Text(s)
    }
}
impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}
impl From<usize> for AttrValue {
    fn from(i: usize) -> Self {
        AttrValue::Int(i as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(x: f64) -> Self {
        AttrValue::Float(x)
    }
}
impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

/// One recorded span. Timestamps are nanoseconds since the session epoch
/// (a shared monotonic `Instant`, valid across threads).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub kind: SpanKind,
    pub start_ns: u64,
    /// `None` while the span is still open; every span in a finished
    /// [`SpanTrace`] must be closed.
    pub end_ns: Option<u64>,
    /// Attribute keys are literals at every recording site, so a span
    /// kept for hundreds of runs stores them without allocating.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Duration, if closed.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Shared session state: the time epoch and the span-id allocator.
///
/// Cheap to share by reference into scoped worker threads; each worker
/// derives its own [`SpanRecorder`] so no recording synchronises on
/// anything but the id counter (one `fetch_add` per span).
#[derive(Debug, Clone)]
pub struct TraceSession {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
}

impl Default for TraceSession {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSession {
    /// Starts a session; the epoch is `now`.
    pub fn new() -> Self {
        TraceSession { epoch: Instant::now(), next_id: Arc::new(AtomicU64::new(1)) }
    }

    /// Nanoseconds since the session epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh per-worker recorder.
    pub fn recorder(&self) -> SpanRecorder {
        SpanRecorder { session: self.clone(), spans: Vec::new() }
    }
}

/// A per-worker span buffer. Owns its `Vec<Span>`; recording never blocks
/// on other workers.
#[derive(Debug)]
pub struct SpanRecorder {
    session: TraceSession,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// Opens a span and returns its id.
    pub fn start(
        &mut self,
        name: impl Into<String>,
        kind: SpanKind,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = SpanId(self.session.next_id.fetch_add(1, Ordering::Relaxed));
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            kind,
            start_ns: self.session.now_ns(),
            end_ns: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Closes a span (no-op for ids this recorder never opened).
    pub fn end(&mut self, id: SpanId) {
        let now = self.session.now_ns();
        // open spans cluster at the tail: scan backwards
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = Some(now);
        }
    }

    /// Attaches an attribute to a span owned by this recorder.
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.attrs.push((key, value.into()));
        }
    }

    /// Closes every still-open span owned by this recorder at `now` — the
    /// error-path companion to [`SpanRecorder::end`], so a trace cut short
    /// by a failure still validates and can be retained.
    pub fn end_open(&mut self) {
        let now = self.session.now_ns();
        for span in self.spans.iter_mut() {
            if span.end_ns.is_none() {
                span.end_ns = Some(now);
            }
        }
    }

    /// Like [`SpanRecorder::end_open`], but leaves `keep` open, so a root
    /// can record more children after the spans a failure abandoned.
    pub fn end_open_except(&mut self, keep: SpanId) {
        let now = self.session.now_ns();
        for span in self.spans.iter_mut() {
            if span.end_ns.is_none() && span.id != keep {
                span.end_ns = Some(now);
            }
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Consumes the recorder, yielding its raw spans for merging.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// A merged, finished trace: the span tree of one enactment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTrace {
    /// Spans ordered by id (allocation order — a deterministic total
    /// order that interleaves worker buffers consistently).
    spans: Vec<Span>,
}

impl SpanTrace {
    /// Builds a trace from merged recorder outputs. A finished trace is
    /// never extended and may be kept for hundreds of runs (the engine's
    /// run ring), so the span and attribute vectors drop their spare
    /// capacity here.
    pub fn from_spans(mut spans: Vec<Span>) -> Self {
        spans.sort_by_key(|s| s.id);
        spans.shrink_to_fit();
        for span in &mut spans {
            span.attrs.shrink_to_fit();
        }
        SpanTrace { spans }
    }

    /// All spans, ordered by id.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span with the given id.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.binary_search_by_key(&id, |s| s.id).ok().map(|i| &self.spans[i])
    }

    /// Spans without a parent (normally exactly one: the view span).
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Direct children of a span, sorted by (kind, name, id) so the order
    /// is independent of parallel completion order.
    pub fn children(&self, id: SpanId) -> Vec<&Span> {
        let mut out: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
        out.sort_by(|a, b| {
            a.kind.cmp(&b.kind).then_with(|| a.name.cmp(&b.name)).then(a.id.cmp(&b.id))
        });
        out
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Well-formedness: every span closed, `end >= start`, every parent
    /// exists, no span is its own ancestor, and every child's interval is
    /// contained in its parent's (worker merging must not corrupt the
    /// hierarchy).
    pub fn validate(&self) -> Result<(), String> {
        for span in &self.spans {
            let Some(end) = span.end_ns else {
                return Err(format!("span {} {:?} was never closed", span.id, span.name));
            };
            if end < span.start_ns {
                return Err(format!("span {} {:?} ends before it starts", span.id, span.name));
            }
            // walk up, detecting dangling parents and cycles
            let mut hops = 0usize;
            let mut current = span;
            while let Some(parent_id) = current.parent {
                let Some(parent) = self.span(parent_id) else {
                    return Err(format!(
                        "span {} {:?} has dangling parent {parent_id}",
                        span.id, span.name
                    ));
                };
                hops += 1;
                if hops > self.spans.len() {
                    return Err(format!("span {} {:?} is in a parent cycle", span.id, span.name));
                }
                current = parent;
            }
            if let Some(parent) = span.parent.and_then(|p| self.span(p)) {
                let parent_end = parent.end_ns.unwrap_or(u64::MAX);
                if span.start_ns < parent.start_ns || end > parent_end {
                    return Err(format!(
                        "span {} {:?} [{}..{}] escapes parent {} {:?} [{}..{}]",
                        span.id,
                        span.name,
                        span.start_ns,
                        end,
                        parent.id,
                        parent.name,
                        parent.start_ns,
                        parent_end
                    ));
                }
            }
        }
        Ok(())
    }

    /// Human-readable tree rendering (deterministic: children sorted by
    /// kind, then name).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut roots: Vec<&Span> = self.roots().collect();
        roots.sort_by(|a, b| a.name.cmp(&b.name).then(a.id.cmp(&b.id)));
        for root in roots {
            self.render_node(root, 0, &mut out);
        }
        let _ = write!(out, "{} span(s)", self.spans.len());
        out
    }

    fn render_node(&self, span: &Span, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let duration = span
            .duration_ns()
            .map(|ns| format!("{:.3}ms", ns as f64 / 1e6))
            .unwrap_or_else(|| "open".to_string());
        let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "{indent}[{}] {} ({duration}){}{}",
            span.kind.as_str(),
            span.name,
            if attrs.is_empty() { "" } else { " " },
            attrs.join(" ")
        );
        for child in self.children(span.id) {
            self.render_node(child, depth + 1, out);
        }
    }

    /// JSON-lines export: one span object per line, ordered by id. Format
    /// validated by [`crate::schema::validate_trace_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out, 0);
        out
    }

    /// Appends the JSON-lines export to `out`, adding `id_offset` to every
    /// span and parent id, so a document that concatenates several traces
    /// can keep its span ids unique.
    pub fn write_jsonl(&self, out: &mut String, id_offset: u64) {
        use crate::json::escape;
        use std::fmt::Write as _;
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.id.0 + id_offset,
                s.parent.map(|p| (p.0 + id_offset).to_string()).unwrap_or_else(|| "null".into()),
                escape(&s.name),
                s.kind.as_str(),
                s.start_ns,
                s.end_ns.map(|e| e.to_string()).unwrap_or_else(|| "null".into()),
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = match v {
                    AttrValue::Text(t) => write!(out, "\"{}\":\"{}\"", escape(k), escape(t)),
                    AttrValue::Int(n) => write!(out, "\"{}\":{n}", escape(k)),
                    AttrValue::Float(x) if x.is_finite() => write!(out, "\"{}\":{x}", escape(k)),
                    AttrValue::Float(_) => write!(out, "\"{}\":null", escape(k)),
                    AttrValue::Bool(b) => write!(out, "\"{}\":{b}", escape(k)),
                };
            }
            out.push_str("}}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_trace_is_well_formed() {
        let session = TraceSession::new();
        let mut rec = session.recorder();
        let root = rec.start("view:v", SpanKind::View, None);
        let wave = rec.start("wave:0", SpanKind::Wave, Some(root));
        let node = rec.start("node:n", SpanKind::Node, Some(wave));
        rec.attr(node, "invocations", 3usize);
        rec.end(node);
        rec.end(wave);
        rec.end(root);
        let trace = SpanTrace::from_spans(rec.finish());
        trace.validate().unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.roots().count(), 1);
        let node = trace.spans().iter().find(|s| s.name == "node:n").unwrap();
        assert_eq!(node.attr("invocations"), Some(&AttrValue::Int(3)));
        assert!(trace.render().contains("node:n"));
    }

    #[test]
    fn cross_thread_recorders_merge_without_corruption() {
        let session = TraceSession::new();
        let mut main = session.recorder();
        let root = main.start("view:v", SpanKind::View, None);
        let wave = main.start("wave:0", SpanKind::Wave, Some(root));
        let worker_spans: Vec<Vec<Span>> = std::thread::scope(|scope| {
            (0..4)
                .map(|i| {
                    let session = &session;
                    scope.spawn(move || {
                        let mut rec = session.recorder();
                        let node = rec.start(format!("node:n{i}"), SpanKind::Node, Some(wave));
                        for j in 0..3 {
                            let inv =
                                rec.start(format!("invoke:{j}"), SpanKind::Invocation, Some(node));
                            rec.end(inv);
                        }
                        rec.end(node);
                        rec.finish()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        main.end(wave);
        main.end(root);
        let mut spans = main.finish();
        for w in worker_spans {
            spans.extend(w);
        }
        let trace = SpanTrace::from_spans(spans);
        trace.validate().unwrap();
        assert_eq!(trace.len(), 2 + 4 * 4);
        // ids are unique
        let mut ids: Vec<u64> = trace.spans().iter().map(|s| s.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
        // children of the wave are the 4 nodes, in name order
        let children = trace.children(wave);
        let names: Vec<&str> = children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["node:n0", "node:n1", "node:n2", "node:n3"]);
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        // unclosed span
        let session = TraceSession::new();
        let mut rec = session.recorder();
        rec.start("open", SpanKind::Custom, None);
        let trace = SpanTrace::from_spans(rec.finish());
        assert!(trace.validate().unwrap_err().contains("never closed"));

        // dangling parent
        let trace = SpanTrace::from_spans(vec![Span {
            id: SpanId(2),
            parent: Some(SpanId(1)),
            name: "orphan".into(),
            kind: SpanKind::Node,
            start_ns: 0,
            end_ns: Some(1),
            attrs: vec![],
        }]);
        assert!(trace.validate().unwrap_err().contains("dangling parent"));

        // child escaping the parent interval
        let trace = SpanTrace::from_spans(vec![
            Span {
                id: SpanId(1),
                parent: None,
                name: "p".into(),
                kind: SpanKind::View,
                start_ns: 10,
                end_ns: Some(20),
                attrs: vec![],
            },
            Span {
                id: SpanId(2),
                parent: Some(SpanId(1)),
                name: "c".into(),
                kind: SpanKind::Node,
                start_ns: 5,
                end_ns: Some(15),
                attrs: vec![],
            },
        ]);
        assert!(trace.validate().unwrap_err().contains("escapes parent"));
    }

    #[test]
    fn end_open_closes_abandoned_spans() {
        let session = TraceSession::new();
        let mut rec = session.recorder();
        let root = rec.start("view:v", SpanKind::View, None);
        let phase = rec.start("phase:enrichment", SpanKind::Phase, Some(root));
        let _ = phase; // simulated failure: neither span is ended explicitly
        rec.end_open_except(root);
        let cleanup = rec.start("phase:release", SpanKind::Phase, Some(root));
        rec.end(cleanup);
        rec.end_open();
        let trace = SpanTrace::from_spans(rec.finish());
        trace.validate().unwrap();
        assert!(trace.spans().iter().all(|s| s.end_ns.is_some()));
        let end = |id| trace.span(id).unwrap().end_ns.unwrap();
        assert!(end(phase) <= trace.span(cleanup).unwrap().start_ns, "closed before the cleanup");
        assert!(end(root) >= end(cleanup));
    }

    #[test]
    fn jsonl_round_trips_through_the_schema_check() {
        let session = TraceSession::new();
        let mut rec = session.recorder();
        let root = rec.start("view \"quoted\"", SpanKind::View, None);
        rec.attr(root, "width", 2usize);
        rec.attr(root, "label", "a\nb");
        rec.end(root);
        let trace = SpanTrace::from_spans(rec.finish());
        let jsonl = trace.to_jsonl();
        let count = crate::schema::validate_trace_jsonl(&jsonl).unwrap();
        assert_eq!(count, 1);
    }
}
