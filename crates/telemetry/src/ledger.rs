//! Decision-provenance records: per data item, what evidence was fetched
//! (Data Enrichment), what score/class each Quality Assertion assigned,
//! and what action was taken — each optionally linked to the span that
//! produced it.
//!
//! A [`DecisionTrace`] is the answer to `why(item)`. The engine does not
//! store traces: each run keeps one columnar record of its consolidated
//! map and groups (`qurator::ledger`), and builds a run's traces from it
//! only when a reader asks (`qv explain`, `GET /runs/<id>`). Every trace
//! carries the [`RunId`] of the run that produced it.

use std::sync::Arc;

use crate::runid::RunId;
use crate::span::SpanTrace;

/// One evidence value fetched for an item during Data Enrichment.
///
/// Names that repeat across every item of a run (properties, sources,
/// group labels, conditions) are `Arc<str>`, shared by all of a run's
/// traces.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceRecord {
    /// Quality-evidence property name (e.g. `HitRatio`).
    pub property: Arc<str>,
    /// The value, rendered: numbers and labels bare, text quoted.
    pub value: String,
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
    /// The score or class, rendered as evidence values are.
    pub value: String,
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
    /// The run that produced this trace.
    pub run_id: Option<RunId>,
    pub evidence: Vec<EvidenceRecord>,
    pub assertions: Vec<AssertionRecord>,
    pub actions: Vec<ActionRecord>,
}

impl DecisionTrace {
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
                escape(&e.value),
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
                escape(&a.value),
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

#[cfg(test)]
mod tests {
    use super::*;

    const ITEM: &str = "urn:lsid:t:h:1";

    /// One item's trace carrying one record of each kind.
    fn sample_trace(run: Option<RunId>) -> DecisionTrace {
        DecisionTrace {
            run_id: run,
            evidence: vec![EvidenceRecord {
                property: "HitRatio".into(),
                value: "0.9".into(),
                source: Some("PedroRepo".into()),
                span: Some(4),
            }],
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
            item: ITEM.into(),
        }
    }

    #[test]
    fn text_rendering_names_every_record() {
        let rendered = sample_trace(None).render_with(None);
        assert!(rendered.contains("HitRatio = 0.9 (from PedroRepo)"));
        assert!(rendered.contains("ScoreClass = q:high (by PIScore)"));
        assert!(rendered.contains("filter top k score -> accepted"));
        let empty = DecisionTrace { item: ITEM.into(), ..Default::default() }.render_with(None);
        assert_eq!(empty.matches("(none recorded)").count(), 3);
    }

    #[test]
    fn json_rendering_parses() {
        let json = sample_trace(Some(RunId::from_u64(0xFEED))).to_json();
        let value = crate::json::parse(&json).unwrap();
        let obj = value.as_object().unwrap();
        assert_eq!(obj.get("item").and_then(|v| v.as_str()), Some(ITEM));
        assert_eq!(obj.get("run_id").and_then(|v| v.as_str()), Some("000000000000feed"));
        assert_eq!(obj.get("evidence").and_then(|v| v.as_array()).map(|a| a.len()), Some(1));
        assert_eq!(obj.get("actions").and_then(|v| v.as_array()).map(|a| a.len()), Some(1));
    }
}
