//! The decision-provenance ledger: per data item, what evidence was
//! fetched (Data Enrichment), what score/class each Quality Assertion
//! assigned, and what action was taken — each optionally linked to the
//! span that produced it.
//!
//! Recording is gated on an `AtomicBool` (one relaxed load when
//! disabled), and [`DecisionLedger::record_traces_bulk`] takes the write
//! lock once per run, not once per item, so a ledger-enabled run stays
//! close to a disabled one.
//!
//! Every record carries the [`RunId`] of the run that produced it, so
//! [`DecisionLedger::for_run`] can slice the ledger by run — the piece
//! `GET /runs/<id>` serves. A long-lived engine bounds the item map via
//! [`DecisionLedger::set_trace_capacity`] (insertion-order eviction);
//! the CLI keeps it unbounded, as one run's items always fit.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use crate::runid::RunId;
use crate::span::SpanTrace;

/// A captured decision-record value.
///
/// Provenance capture sits on the per-request hot path of a serving
/// engine, so values are stored as captured — numbers raw, strings as
/// shared `Arc<str>` — and rendered to their display form only when a
/// reader asks (`qv explain`, `GET /runs/<id>`). The rendering matches
/// the engine's `EvidenceValue` display: numbers bare, text quoted,
/// symbols (classification labels) bare.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerValue {
    /// Numeric value, rendered bare (`0.9`).
    Num(f64),
    /// Free-text value, rendered quoted (`"P12345"`).
    Text(Arc<str>),
    /// Pre-rendered or symbol-like value (classification labels,
    /// condition results), rendered bare.
    Raw(Arc<str>),
    Bool(bool),
    Null,
}

impl fmt::Display for LedgerValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerValue::Num(n) => write!(f, "{n}"),
            LedgerValue::Text(s) => write!(f, "{s:?}"),
            LedgerValue::Raw(s) => write!(f, "{s}"),
            LedgerValue::Bool(b) => write!(f, "{b}"),
            LedgerValue::Null => write!(f, "null"),
        }
    }
}

impl From<&str> for LedgerValue {
    fn from(s: &str) -> Self {
        LedgerValue::Raw(Arc::from(s))
    }
}

impl From<String> for LedgerValue {
    fn from(s: String) -> Self {
        LedgerValue::Raw(Arc::from(s.as_str()))
    }
}

/// One evidence value fetched for an item during Data Enrichment.
///
/// Names that repeat across every item of a run (properties, sources,
/// group labels, conditions) are `Arc<str>` so a million-item ledger
/// shares one allocation per distinct name instead of one per record.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceRecord {
    /// Quality-evidence property name (e.g. `HitRatio`).
    pub property: Arc<str>,
    /// The captured value (see [`LedgerValue`]).
    pub value: LedgerValue,
    /// Annotation repository / source the value came from, if known.
    pub source: Option<Arc<str>>,
    /// Id of the span under which the fetch happened.
    pub span: Option<u64>,
}

/// One score or class a Quality Assertion assigned to an item.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionRecord {
    /// Assertion output property (e.g. `ScoreClass`).
    pub property: Arc<str>,
    /// The captured score/class value (see [`LedgerValue`]).
    pub value: LedgerValue,
    /// Name of the assertion that produced it, if known.
    pub assertion: Option<Arc<str>>,
    pub span: Option<u64>,
}

/// The action verdict for an item.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRecord {
    /// Action group label (e.g. `filter top k score`).
    pub group: Arc<str>,
    /// Outcome: `accepted`, `rejected` or `unknown`.
    pub outcome: Arc<str>,
    /// The condition expression that decided it, if known.
    pub condition: Option<Arc<str>>,
    pub span: Option<u64>,
}

/// Everything the ledger knows about one item — the answer to
/// `why(item)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionTrace {
    pub item: String,
    /// The run that (last) recorded into this trace.
    pub run_id: Option<RunId>,
    pub evidence: Vec<EvidenceRecord>,
    pub assertions: Vec<AssertionRecord>,
    pub actions: Vec<ActionRecord>,
}

impl DecisionTrace {
    /// An empty trace for `item`.
    pub fn new(item: impl Into<String>) -> Self {
        DecisionTrace { item: item.into(), ..Default::default() }
    }

    /// Human-readable rendering; with a [`SpanTrace`] the producing spans
    /// are named inline.
    pub fn render_with(&self, spans: Option<&SpanTrace>) -> String {
        use std::fmt::Write as _;
        let span_name = |id: Option<u64>| -> String {
            id.and_then(|id| spans.and_then(|t| t.span(crate::span::SpanId(id))))
                .map(|s| format!("  [span #{} {}]", s.id.0, s.name))
                .unwrap_or_default()
        };
        let mut out = String::new();
        let _ = writeln!(out, "item {}", self.item);
        let _ = writeln!(out, "  evidence:");
        if self.evidence.is_empty() {
            let _ = writeln!(out, "    (none recorded)");
        }
        for e in &self.evidence {
            let source = e.source.as_deref().map(|s| format!(" (from {s})")).unwrap_or_default();
            let _ =
                writeln!(out, "    {} = {}{}{}", e.property, e.value, source, span_name(e.span));
        }
        let _ = writeln!(out, "  assertions:");
        if self.assertions.is_empty() {
            let _ = writeln!(out, "    (none recorded)");
        }
        for a in &self.assertions {
            let by = a.assertion.as_deref().map(|s| format!(" (by {s})")).unwrap_or_default();
            let _ = writeln!(out, "    {} = {}{}{}", a.property, a.value, by, span_name(a.span));
        }
        let _ = writeln!(out, "  actions:");
        if self.actions.is_empty() {
            let _ = writeln!(out, "    (none recorded)");
        }
        for act in &self.actions {
            let cond =
                act.condition.as_deref().map(|c| format!(" (condition: {c})")).unwrap_or_default();
            let _ = writeln!(
                out,
                "    {} -> {}{}{}",
                act.group,
                act.outcome,
                cond,
                span_name(act.span)
            );
        }
        out
    }

    /// Single-object JSON rendering.
    pub fn to_json(&self) -> String {
        use crate::json::escape;
        use std::fmt::Write as _;
        let opt = |v: &Option<Arc<str>>| -> String {
            match v {
                Some(s) => format!("\"{}\"", escape(s)),
                None => "null".to_string(),
            }
        };
        let span = |s: &Option<u64>| -> String {
            s.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
        };
        let run = match self.run_id {
            Some(id) => format!("\"{id}\""),
            None => "null".to_string(),
        };
        let mut out = String::new();
        let _ =
            write!(out, "{{\"item\":\"{}\",\"run_id\":{},\"evidence\":[", escape(&self.item), run);
        for (i, e) in self.evidence.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"property\":\"{}\",\"value\":\"{}\",\"source\":{},\"span\":{}}}",
                escape(&e.property),
                escape(&e.value.to_string()),
                opt(&e.source),
                span(&e.span)
            );
        }
        let _ = write!(out, "],\"assertions\":[");
        for (i, a) in self.assertions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"property\":\"{}\",\"value\":\"{}\",\"assertion\":{},\"span\":{}}}",
                escape(&a.property),
                escape(&a.value.to_string()),
                opt(&a.assertion),
                span(&a.span)
            );
        }
        let _ = write!(out, "],\"actions\":[");
        for (i, act) in self.actions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"group\":\"{}\",\"outcome\":\"{}\",\"condition\":{},\"span\":{}}}",
                escape(&act.group),
                escape(&act.outcome),
                opt(&act.condition),
                span(&act.span)
            );
        }
        out.push_str("]}");
        out
    }
}

/// A run-level (not per-item) event worth remembering alongside the
/// decision traces — today: quality-drift threshold crossings republished
/// from [`crate::drift::DriftMonitor`]. Unlike per-item recording, events
/// are rare and not gated on the enabled flag.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// Event kind, e.g. `qa.drift.threshold`.
    pub kind: Arc<str>,
    /// What the event is about (the assertion name for drift events).
    pub subject: Arc<str>,
    /// Human-readable detail.
    pub detail: String,
    /// Source sequence number (the drift monitor's, for drift events).
    pub seq: u64,
    /// The run whose completion tripped the event, if known.
    pub run_id: Option<RunId>,
}

/// Item map plus insertion order, guarded by one lock so bounded
/// eviction stays consistent with the map.
#[derive(Default)]
struct TraceStore {
    map: HashMap<String, DecisionTrace>,
    /// Keys in insertion order (each key exactly once; merges into an
    /// existing trace do not re-add it).
    order: VecDeque<String>,
    /// Maximum items before insertion-order eviction; 0 = unbounded.
    capacity: usize,
}

impl TraceStore {
    /// Drops oldest items until one more insert fits the capacity.
    fn evict_for_insert(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
    }
}

/// The ledger itself: item IRI → [`DecisionTrace`], recording gated on an
/// atomic flag (disabled by default — zero overhead when off beyond one
/// relaxed load per bulk call).
#[derive(Default)]
pub struct DecisionLedger {
    enabled: AtomicBool,
    traces: RwLock<TraceStore>,
    events: RwLock<Vec<LedgerEvent>>,
}

impl DecisionLedger {
    /// A fresh, disabled ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Bounds the item map at `capacity` traces, evicting oldest-first
    /// once full (and immediately, if already over). `0` = unbounded
    /// (the default). A long-lived `qv serve` engine sets this so
    /// always-on provenance cannot grow without limit.
    pub fn set_trace_capacity(&self, capacity: usize) {
        let mut store = self.traces.write().unwrap();
        store.capacity = capacity;
        if capacity > 0 {
            while store.map.len() > capacity {
                match store.order.pop_front() {
                    Some(old) => {
                        store.map.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }

    /// Records complete traces for many items in one lock acquisition
    /// (one map operation per item) — the ledger's only write path. An
    /// existing trace for the same item is merged (records append) when
    /// the incoming trace belongs to the same run (or carries no run id),
    /// and *replaced* when a new run produced it: a run's bundle must
    /// never carry a previous run's decisions for the same item, and a
    /// long-lived serve engine re-running the same items must not
    /// accumulate records without bound.
    pub fn record_traces_bulk(&self, traces: Vec<DecisionTrace>) {
        if !self.enabled() || traces.is_empty() {
            return;
        }
        let mut store = self.traces.write().unwrap();
        store.map.reserve(traces.len());
        for trace in traces {
            if let Some(existing) = store.map.get_mut(&trace.item) {
                if trace.run_id.is_some() && existing.run_id != trace.run_id {
                    *existing = trace;
                } else {
                    if trace.run_id.is_some() {
                        existing.run_id = trace.run_id;
                    }
                    existing.evidence.extend(trace.evidence);
                    existing.assertions.extend(trace.assertions);
                    existing.actions.extend(trace.actions);
                }
                continue;
            }
            store.evict_for_insert();
            store.order.push_back(trace.item.clone());
            store.map.insert(trace.item.clone(), trace);
        }
    }

    /// Appends a run-level event (drift crossings etc.). Not gated on
    /// the enabled flag: events are rare and always worth keeping.
    /// Bounded (oldest dropped past 1024) so a long-lived serve engine
    /// can't grow it without limit.
    pub fn record_event(&self, event: LedgerEvent) {
        let mut events = self.events.write().unwrap();
        if events.len() >= 1024 {
            events.remove(0);
        }
        events.push(event);
    }

    /// All recorded run-level events, in recording order.
    pub fn events(&self) -> Vec<LedgerEvent> {
        self.events.read().unwrap().clone()
    }

    /// The run-level events stamped with a specific run.
    pub fn events_for_run(&self, run: RunId) -> Vec<LedgerEvent> {
        self.events.read().unwrap().iter().filter(|e| e.run_id == Some(run)).cloned().collect()
    }

    /// The decision trace for an exact item id.
    pub fn why(&self, item: &str) -> Option<DecisionTrace> {
        self.traces.read().unwrap().map.get(item).cloned()
    }

    /// Finds items whose id equals or ends with `needle` (so a user can
    /// say `explain P1` instead of the full LSID). Results are sorted.
    pub fn find(&self, needle: &str) -> Vec<DecisionTrace> {
        let store = self.traces.read().unwrap();
        let mut out: Vec<DecisionTrace> = store
            .map
            .values()
            .filter(|t| t.item == needle || t.item.ends_with(needle))
            .cloned()
            .collect();
        out.sort_by(|a, b| a.item.cmp(&b.item));
        out
    }

    /// The ledger slice a run produced: every decision trace stamped
    /// with `run`, sorted by item. This is what `GET /runs/<id>` serves.
    pub fn for_run(&self, run: RunId) -> Vec<DecisionTrace> {
        let store = self.traces.read().unwrap();
        let mut out: Vec<DecisionTrace> =
            store.map.values().filter(|t| t.run_id == Some(run)).cloned().collect();
        out.sort_by(|a, b| a.item.cmp(&b.item));
        out
    }

    /// All item ids with a trace, sorted.
    pub fn items(&self) -> Vec<String> {
        let mut out: Vec<String> = self.traces.read().unwrap().map.keys().cloned().collect();
        out.sort();
        out
    }

    /// Number of items traced.
    pub fn len(&self) -> usize {
        self.traces.read().unwrap().map.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all traces (recording flag and run-level events unchanged —
    /// a serve engine clears per-run provenance between submissions but
    /// keeps its drift history).
    pub fn clear(&self) {
        let mut store = self.traces.write().unwrap();
        store.map.clear();
        store.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITEM: &str = "urn:lsid:t:h:1";

    /// One item's trace carrying a single evidence record.
    fn sample_trace(item: &str, run: Option<RunId>) -> DecisionTrace {
        DecisionTrace {
            run_id: run,
            evidence: vec![EvidenceRecord {
                property: "HitRatio".into(),
                value: "0.9".into(),
                source: Some("PedroRepo".into()),
                span: Some(4),
            }],
            ..DecisionTrace::new(item)
        }
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let ledger = DecisionLedger::new();
        ledger.record_traces_bulk(vec![sample_trace(ITEM, None)]);
        assert!(ledger.is_empty());
        assert!(ledger.why(ITEM).is_none());
    }

    #[test]
    fn why_round_trip() {
        let ledger = DecisionLedger::new();
        ledger.set_enabled(true);
        let run = RunId::mint();
        ledger.record_traces_bulk(vec![DecisionTrace {
            assertions: vec![AssertionRecord {
                property: "ScoreClass".into(),
                value: "q:high".into(),
                assertion: Some("PIScore".into()),
                span: Some(7),
            }],
            actions: vec![ActionRecord {
                group: "filter top k score".into(),
                outcome: "accepted".into(),
                condition: Some("ScoreClass in q:high".into()),
                span: Some(9),
            }],
            ..sample_trace(ITEM, Some(run))
        }]);
        let trace = ledger.why(ITEM).unwrap();
        assert_eq!(trace.run_id, Some(run));
        assert_eq!(trace.evidence.len(), 1);
        assert_eq!(trace.assertions[0].value.to_string(), "q:high");
        assert_eq!(trace.actions[0].outcome.as_ref(), "accepted");
        let rendered = trace.render_with(None);
        assert!(rendered.contains("HitRatio = 0.9 (from PedroRepo)"));
        assert!(rendered.contains("ScoreClass = q:high (by PIScore)"));
        assert!(rendered.contains("filter top k score -> accepted"));
        // suffix find
        let found = ledger.find("h:1");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].item, ITEM);
        assert!(ledger.find("nope").is_empty());
    }

    #[test]
    fn json_rendering_parses() {
        let ledger = DecisionLedger::new();
        ledger.set_enabled(true);
        ledger.record_traces_bulk(vec![sample_trace(ITEM, Some(RunId::from_u64(0xFEED)))]);
        let json = ledger.why(ITEM).unwrap().to_json();
        let value = crate::json::parse(&json).unwrap();
        let obj = value.as_object().unwrap();
        assert_eq!(obj.get("item").and_then(|v| v.as_str()), Some(ITEM));
        assert_eq!(obj.get("run_id").and_then(|v| v.as_str()), Some("000000000000feed"));
        assert_eq!(obj.get("evidence").and_then(|v| v.as_array()).map(|a| a.len()), Some(1));
    }

    #[test]
    fn for_run_slices_the_ledger_by_run() {
        let ledger = DecisionLedger::new();
        ledger.set_enabled(true);
        let first = RunId::mint();
        let second = RunId::mint();
        ledger.record_traces_bulk(vec![sample_trace(ITEM, Some(first))]);
        ledger.record_traces_bulk(vec![DecisionTrace {
            run_id: Some(second),
            ..DecisionTrace::new("urn:lsid:t:h:2")
        }]);
        assert_eq!(ledger.for_run(first).len(), 1);
        assert_eq!(ledger.for_run(first)[0].item, ITEM);
        assert_eq!(ledger.for_run(second)[0].item, "urn:lsid:t:h:2");
        // the same run writing the item again merges its records …
        ledger.record_traces_bulk(vec![sample_trace(ITEM, Some(first))]);
        assert_eq!(ledger.why(ITEM).unwrap().evidence.len(), 2);
        // … while a new run replaces them and moves the item over
        ledger.record_traces_bulk(vec![sample_trace(ITEM, Some(second))]);
        assert!(ledger.for_run(first).is_empty());
        assert_eq!(ledger.for_run(second).len(), 2);
        assert_eq!(ledger.why(ITEM).unwrap().evidence.len(), 1);
        // events slice the same way
        ledger.record_event(LedgerEvent {
            kind: "qa.drift.threshold".into(),
            subject: "S".into(),
            detail: "drifted".into(),
            seq: 0,
            run_id: Some(second),
        });
        assert!(ledger.events_for_run(first).is_empty());
        assert_eq!(ledger.events_for_run(second).len(), 1);
    }

    #[test]
    fn bounded_capacity_evicts_oldest_items_first() {
        let ledger = DecisionLedger::new();
        ledger.set_enabled(true);
        ledger.set_trace_capacity(4);
        for i in 0..10 {
            ledger.record_traces_bulk(vec![DecisionTrace::new(format!("item:{i}"))]);
        }
        assert_eq!(ledger.len(), 4);
        assert_eq!(ledger.items(), vec!["item:6", "item:7", "item:8", "item:9"]);
        // merging into a survivor does not evict anything
        ledger.record_traces_bulk(vec![DecisionTrace::new("item:8")]);
        assert_eq!(ledger.len(), 4);
        // shrinking the capacity evicts immediately
        ledger.set_trace_capacity(2);
        assert_eq!(ledger.items(), vec!["item:8", "item:9"]);
    }
}
