//! Folded-stack (flamegraph-compatible) export of span traces.
//!
//! A [`Profile`] folds one or more [`SpanTrace`]s into **stacks**: every
//! root-to-span name path (frames joined with `;`) with the *self* time
//! accumulated at that exact path, exported via [`Profile::to_folded`]
//! in the `frame;frame;frame value` format flamegraph tooling consumes
//! (value = self time in microseconds).
//!
//! Self time is the span's wallclock minus the sum of its direct
//! children's wallclocks (saturating: overlapping parallel children can
//! legitimately sum past the parent).
//!
//! Per-node figures come from [`crate::stats::NodeStats`], the one
//! per-node record; spans feed only this export and the trace exports.

use std::collections::BTreeMap;

use crate::span::{SpanId, SpanTrace};

/// Folded stacks accumulated from span traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    stacks: BTreeMap<String, u64>,
}

/// Frames may not contain the folded format's separators — `;` splits
/// frames and the last space splits the count off the stack.
fn frame(name: &str) -> String {
    name.replace([';', ' '], "_")
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one trace into the profile.
    pub fn add_trace(&mut self, trace: &SpanTrace) {
        // direct-children duration sums in one pass
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for span in trace.spans() {
            if let (Some(parent), Some(d)) = (span.parent, span.duration_ns()) {
                *child_ns.entry(parent).or_insert(0) += d;
            }
        }
        for span in trace.spans() {
            let total = span.duration_ns().unwrap_or(0);
            let self_ns = total.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            // root-to-span frame path
            let mut path = vec![frame(&span.name)];
            let mut cursor = span.parent;
            while let Some(id) = cursor {
                let Some(parent) = trace.span(id) else { break };
                path.push(frame(&parent.name));
                cursor = parent.parent;
            }
            path.reverse();
            *self.stacks.entry(path.join(";")).or_insert(0) += self_ns;
        }
    }

    /// Builds a profile from many traces.
    pub fn from_traces<'a>(traces: impl IntoIterator<Item = &'a SpanTrace>) -> Self {
        let mut profile = Profile::new();
        for trace in traces {
            profile.add_trace(trace);
        }
        profile
    }

    /// Folded-stack export: one `frame;frame;... value` line per distinct
    /// stack, value = accumulated self time in **microseconds**, sorted
    /// by stack so output is deterministic. Zero-self-time stacks are
    /// kept (a frame that only parents still shapes the flamegraph).
    pub fn to_folded(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (stack, self_ns) in &self.stacks {
            let _ = writeln!(out, "{stack} {}", self_ns / 1_000);
        }
        out
    }

    /// Parses a folded-stack document back into `stack -> value` — the
    /// round-trip check for [`Profile::to_folded`] and external tooling.
    pub fn parse_folded(input: &str) -> Result<BTreeMap<String, u64>, String> {
        let mut out = BTreeMap::new();
        for (lineno, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let n = lineno + 1;
            let (stack, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {n}: expected '<stack> <value>'"))?;
            if stack.is_empty() || stack.split(';').any(|f| f.is_empty()) {
                return Err(format!("line {n}: empty frame in stack {stack:?}"));
            }
            let value = value
                .parse::<u64>()
                .map_err(|_| format!("line {n}: value {value:?} is not a non-negative integer"))?;
            if out.insert(stack.to_string(), value).is_some() {
                return Err(format!("line {n}: duplicate stack {stack:?}"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanKind};

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: name.into(),
            kind: SpanKind::Custom,
            start_ns: start,
            end_ns: Some(end),
            attrs: vec![],
        }
    }

    fn sample_trace() -> SpanTrace {
        SpanTrace::from_spans(vec![
            span(1, None, "view:v", 0, 10_000_000),
            span(2, Some(1), "node:annotate", 1_000_000, 3_000_000),
            span(3, Some(1), "node:assert", 3_000_000, 9_000_000),
            span(4, Some(3), "invoke", 4_000_000, 5_000_000),
        ])
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let stacks =
            Profile::parse_folded(&Profile::from_traces([&sample_trace()]).to_folded()).unwrap();
        // view: 10ms total, children 2ms + 6ms -> 2ms self (values in µs)
        assert_eq!(stacks["view:v"], 2_000);
        // assert node: 6ms total, child 1ms -> 5ms self
        assert_eq!(stacks["view:v;node:assert"], 5_000);
        // leaves keep their full duration
        assert_eq!(stacks["view:v;node:annotate"], 2_000);
        assert_eq!(stacks["view:v;node:assert;invoke"], 1_000);
    }

    #[test]
    fn folded_output_round_trips_through_the_parser() {
        let mut profile = Profile::new();
        profile.add_trace(&sample_trace());
        profile.add_trace(&sample_trace()); // aggregation across traces
        let folded = profile.to_folded();
        let parsed = Profile::parse_folded(&folded).unwrap();
        assert_eq!(parsed.len(), 4);
        // 2 traces × 2ms self at the root, in µs
        assert_eq!(parsed["view:v"], 4_000);
        assert_eq!(parsed["view:v;node:assert"], 10_000);
        assert_eq!(parsed["view:v;node:assert;invoke"], 2_000);
        // every stack's frames chain from the root
        assert!(parsed.keys().all(|k| k.starts_with("view:v")));
    }

    #[test]
    fn frames_are_sanitised_for_the_folded_format() {
        let trace = SpanTrace::from_spans(vec![
            span(1, None, "view:v", 0, 2_000_000),
            span(2, Some(1), "act:filter top k;score", 0, 1_000_000),
        ]);
        let folded = Profile::from_traces([&trace]).to_folded();
        let parsed = Profile::parse_folded(&folded).unwrap();
        assert!(parsed.contains_key("view:v;act:filter_top_k_score"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Profile::parse_folded("no-value-here").is_err());
        assert!(Profile::parse_folded("a;b notanumber").is_err());
        assert!(Profile::parse_folded("a;;b 3").is_err());
        assert!(Profile::parse_folded("a;b 1\na;b 2").unwrap_err().contains("duplicate"));
    }
}
