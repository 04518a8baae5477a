//! EXPLAIN-style renderers for physical plans.
//!
//! [`render_text`] is deliberately deterministic — it prints what each
//! pass *did* (changed flag and notes) but never timings, so the output
//! is byte-stable across runs and suitable for golden-snapshot tests.
//! [`render_json`] carries the full plan including pass durations.
//!
//! [`render_analyze_text`] / [`render_analyze_json`] are the EXPLAIN
//! ANALYZE renderers: the plan tree annotated with the *observed*
//! per-node statistics of one run ([`RunStats`]), or of several merged.
//! With `timing: false` the text form omits run id and wall times,
//! making it byte-identical across backends and runs — the
//! `backend_equivalence`-style tests rely on this.

use crate::logical::{ActKind, Binding, CONSOLIDATE_NODE, ENRICH_NODE};
use crate::physical::PhysicalPlan;
use qurator_telemetry::json::escape;
use qurator_telemetry::stats::RunStats;
use std::fmt::Write as _;

/// Renders the EXPLAIN text for a physical plan. Byte-deterministic for
/// a given plan: pass durations are deliberately omitted (the JSON
/// rendering carries them).
pub fn render_text(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    let mode = if plan.optimized { "optimized" } else { "unoptimized" };
    let _ = writeln!(out, "plan for view {:?} ({mode})", plan.view);

    let _ = writeln!(out, "passes:");
    for pass in &plan.passes {
        let mark = if pass.changed { "*" } else { " " };
        let _ = writeln!(out, "  {mark} {}", pass.pass);
        for note in &pass.notes {
            let _ = writeln!(out, "      - {note}");
        }
    }

    let _ = writeln!(out, "schedule:");
    for (index, wave) in plan.waves.iter().enumerate() {
        let _ = writeln!(out, "  wave {index}: {}", wave.join(", "));
    }

    let _ = writeln!(out, "nodes:");
    for a in &plan.annotators {
        let lifetime = if a.persistent { "persistent" } else { "volatile" };
        let provides: Vec<&str> = a.provides.iter().map(|e| e.local_name()).collect();
        let _ = writeln!(
            out,
            "  Annotate {:?} [{}] -> repository {:?} ({lifetime}) provides {}",
            a.name,
            a.service_type.local_name(),
            a.repository,
            provides.join(", ")
        );
    }
    for group in &plan.enrich {
        let evidence: Vec<&str> = group.evidence.iter().map(|e| e.local_name()).collect();
        let _ = writeln!(out, "  Enrich <- {:?}: {}", group.repository, evidence.join(", "));
    }
    for assert in &plan.assertions {
        let _ = writeln!(
            out,
            "  Assert {:?} [{}] -> tag {} ({})",
            assert.node.name,
            assert.node.service_type.local_name(),
            assert.node.tag,
            assert.node.tag_kind.as_str()
        );
        for (variable, binding) in &assert.node.bindings {
            let source = match binding {
                Binding::Evidence(iri) => format!("evidence {}", iri.local_name()),
                Binding::Tag(tag) => format!("tag {tag}"),
            };
            let _ = writeln!(out, "      {variable} <- {source}");
        }
        if !assert.depends_on.is_empty() {
            let _ = writeln!(out, "      depends on: {}", assert.depends_on.join(", "));
        }
    }
    let _ = writeln!(out, "  Consolidate");
    for act in &plan.actions {
        let kind = match &act.kind {
            ActKind::Filter { .. } => "filter",
            ActKind::Split { .. } => "split",
        };
        let _ = writeln!(out, "  Act {:?} ({kind})", act.name);
        for (label, condition) in act.conditions() {
            let _ = writeln!(out, "      {label}: {condition}");
        }
    }
    out
}

/// Renders the machine-readable JSON for a physical plan (validated by
/// [`crate::schema::validate_plan_json`], the `qv plan-check` gate).
pub fn render_json(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"view\": \"{}\",", escape(&plan.view));
    let _ = writeln!(out, "  \"optimized\": {},", plan.optimized);

    out.push_str("  \"passes\": [");
    for (i, pass) in plan.passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let notes: Vec<String> = pass.notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
        let _ = write!(
            out,
            "\n    {{\"pass\": \"{}\", \"duration_us\": {}, \"changed\": {}, \"notes\": [{}]}}",
            escape(pass.pass),
            pass.duration_us,
            pass.changed,
            notes.join(", ")
        );
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"waves\": [");
    for (i, wave) in plan.waves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let names: Vec<String> = wave.iter().map(|n| format!("\"{}\"", escape(n))).collect();
        let _ = write!(out, "\n    [{}]", names.join(", "));
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"annotate\": [");
    for (i, a) in plan.annotators.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let provides: Vec<String> =
            a.provides.iter().map(|e| format!("\"{}\"", escape(e.as_str()))).collect();
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"service_type\": \"{}\", \"repository\": \"{}\", \"persistent\": {}, \"provides\": [{}]}}",
            escape(&a.name),
            escape(a.service_type.as_str()),
            escape(&a.repository),
            a.persistent,
            provides.join(", ")
        );
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"enrich\": [");
    for (i, g) in plan.enrich.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let evidence: Vec<String> =
            g.evidence.iter().map(|e| format!("\"{}\"", escape(e.as_str()))).collect();
        let _ = write!(
            out,
            "\n    {{\"repository\": \"{}\", \"evidence\": [{}]}}",
            escape(&g.repository),
            evidence.join(", ")
        );
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"assert\": [");
    for (i, a) in plan.assertions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let bindings: Vec<String> = a
            .node
            .bindings
            .iter()
            .map(|(variable, binding)| {
                let (kind, source) = match binding {
                    Binding::Evidence(iri) => ("evidence", iri.as_str().to_string()),
                    Binding::Tag(tag) => ("tag", tag.clone()),
                };
                format!(
                    "{{\"variable\": \"{}\", \"kind\": \"{kind}\", \"source\": \"{}\"}}",
                    escape(variable),
                    escape(&source)
                )
            })
            .collect();
        let depends: Vec<String> =
            a.depends_on.iter().map(|d| format!("\"{}\"", escape(d))).collect();
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"service_type\": \"{}\", \"tag\": \"{}\", \"tag_kind\": \"{}\", \"bindings\": [{}], \"depends_on\": [{}]}}",
            escape(&a.node.name),
            escape(a.node.service_type.as_str()),
            escape(&a.node.tag),
            a.node.tag_kind.as_str(),
            bindings.join(", "),
            depends.join(", ")
        );
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"act\": [");
    for (i, act) in plan.actions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let kind = match &act.kind {
            ActKind::Filter { .. } => "filter",
            ActKind::Split { .. } => "split",
        };
        let conditions: Vec<String> = act
            .conditions()
            .iter()
            .map(|(label, condition)| {
                format!(
                    "{{\"label\": \"{}\", \"condition\": \"{}\"}}",
                    escape(label),
                    escape(condition)
                )
            })
            .collect();
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"kind\": \"{kind}\", \"conditions\": [{}]}}",
            escape(&act.name),
            conditions.join(", ")
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Every plan node in process order with its analyze `kind` label (the
/// vocabulary [`qurator_telemetry::schema::validate_analyze_json`]
/// accepts).
fn analyze_nodes(plan: &PhysicalPlan) -> Vec<(&str, &'static str)> {
    let mut out: Vec<(&str, &'static str)> = Vec::new();
    for a in &plan.annotators {
        out.push((a.name.as_str(), "annotate"));
    }
    out.push((ENRICH_NODE, "enrich"));
    for a in &plan.assertions {
        out.push((a.node.name.as_str(), "assert"));
    }
    out.push((CONSOLIDATE_NODE, "consolidate"));
    for a in &plan.actions {
        out.push((a.name.as_str(), "act"));
    }
    out
}

/// Renders the EXPLAIN ANALYZE text: the node tree annotated with one
/// run's observed counters. Nodes that recorded nothing (today only the
/// consolidation step, which is uninstrumented by design so the
/// interpreter and the compiled engine stay comparable) are omitted.
/// With `timing: false` the output carries no run id and no durations —
/// byte-identical for equal runs on any backend.
pub fn render_analyze_text(plan: &PhysicalPlan, stats: &RunStats, timing: bool) -> String {
    let mut out = String::new();
    let mode = if plan.optimized { "optimized" } else { "unoptimized" };
    let _ = writeln!(out, "analyze for view {:?} ({mode})", plan.view);
    if timing {
        match &stats.run_id {
            Some(run) => {
                let _ = writeln!(out, "run: {run}");
            }
            None => {
                let _ = writeln!(out, "run: -");
            }
        }
        let _ = writeln!(out, "total self time: {:.1} us", stats.total_wall_ns() as f64 / 1000.0);
    }
    let _ = writeln!(out, "items: {}", stats.items);
    let _ = writeln!(out, "nodes:");
    for (name, kind) in analyze_nodes(plan) {
        let Some(n) = stats.node(name) else { continue };
        let _ = write!(
            out,
            "  {kind} {name:?}: calls {} | rows {} -> {} | evidence {} | hits {}",
            n.calls, n.rows_in, n.rows_out, n.evidence, n.hits
        );
        if timing {
            let _ = write!(out, " | self {:.1} us", n.wall_ns as f64 / 1000.0);
        }
        out.push('\n');
    }
    out
}

/// Renders the machine-readable EXPLAIN ANALYZE document (validated by
/// [`qurator_telemetry::schema::validate_analyze_json`]).
pub fn render_analyze_json(plan: &PhysicalPlan, stats: &RunStats) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"type\": \"analyze\",\n");
    let _ = writeln!(out, "  \"view\": \"{}\",", escape(&plan.view));
    let _ = writeln!(out, "  \"optimized\": {},", plan.optimized);
    match &stats.run_id {
        Some(run) => {
            let _ = writeln!(out, "  \"run_id\": \"{run}\",");
        }
        None => out.push_str("  \"run_id\": null,\n"),
    }
    let _ = writeln!(out, "  \"items\": {},", stats.items);
    out.push_str("  \"nodes\": [");
    let mut first = true;
    for (name, kind) in analyze_nodes(plan) {
        let Some(n) = stats.node(name) else { continue };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {{\"node\": \"{}\", \"kind\": \"{kind}\", \"calls\": {}, \"rows_in\": {}, \"rows_out\": {}, \"evidence\": {}, \"hits\": {}, \"wall_us\": {:.3}}}",
            escape(name),
            n.calls,
            n.rows_in,
            n.rows_out,
            n.evidence,
            n.hits,
            n.wall_ns as f64 / 1000.0
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{
        ActKind, ActNode, AnnotateNode, AssertNode, EnrichNode, LogicalNode, LogicalPlan, TagKind,
    };
    use crate::passes::lower;
    use crate::physical::PlanConfig;
    use qurator_rdf::term::Iri;

    fn sample() -> PhysicalPlan {
        let iri = |s: &str| Iri::new(format!("http://example.org/ont#{s}"));
        let logical = LogicalPlan {
            view: "sample".into(),
            nodes: vec![
                LogicalNode::Annotate(AnnotateNode {
                    name: "ann".into(),
                    service_type: iri("Imprint"),
                    repository: "cache".into(),
                    persistent: false,
                    provides: vec![iri("HitRatio")],
                }),
                LogicalNode::Enrich(EnrichNode {
                    fetches: vec![(iri("HitRatio"), "cache".into())],
                }),
                LogicalNode::Assert(AssertNode {
                    name: "qa".into(),
                    service_type: iri("Score"),
                    tag: "HR".into(),
                    tag_kind: TagKind::Score,
                    labels: Vec::new(),
                    bindings: vec![("h".into(), Binding::Evidence(iri("HitRatio")))],
                }),
                LogicalNode::Consolidate,
                LogicalNode::Act(ActNode {
                    name: "keep".into(),
                    kind: ActKind::Filter { condition: "HR > 0".into() },
                }),
            ],
        };
        lower(&logical, &PlanConfig::default()).unwrap()
    }

    #[test]
    fn text_is_duration_free_and_complete() {
        let text = render_text(&sample());
        assert!(text.contains("plan for view \"sample\" (optimized)"));
        assert!(text.contains("dead-node-elim"));
        assert!(text.contains("wave 0: ann"));
        assert!(text.contains("Enrich <- \"cache\": HitRatio"));
        assert!(text.contains("keep: HR > 0"));
        assert!(!text.contains("duration"), "text rendering must stay deterministic");
        assert!(!text.contains("_us"));
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        let json = render_json(&sample());
        let value = qurator_telemetry::json::parse(&json).expect("valid JSON");
        assert_eq!(value.get("view").and_then(|v| v.as_str()), Some("sample"));
        assert_eq!(value.get("optimized").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(value.get("waves").and_then(|v| v.as_array()).map(|w| w.len()), Some(5));
        let passes = value.get("passes").and_then(|v| v.as_array()).unwrap();
        assert!(passes.iter().all(|p| p.get("duration_us").and_then(|d| d.as_u64()).is_some()));
    }

    fn sample_stats() -> RunStats {
        use qurator_telemetry::stats::NodeStats;
        let mut stats =
            RunStats { view: "sample".into(), run_id: None, items: 4, ..Default::default() };
        let node = |rows_out, evidence, hits, wall_ns| NodeStats {
            calls: 1,
            rows_in: 4,
            rows_out,
            evidence,
            hits,
            wall_ns,
        };
        stats.nodes.insert("ann".into(), node(4, 4, 0, 1500));
        stats.nodes.insert(ENRICH_NODE.into(), node(4, 4, 4, 2500));
        stats.nodes.insert("qa".into(), node(4, 0, 4, 500));
        stats.nodes.insert("keep".into(), node(2, 0, 2, 700));
        stats
    }

    #[test]
    fn analyze_text_without_timing_is_duration_free() {
        let text = render_analyze_text(&sample(), &sample_stats(), false);
        assert!(text.contains("analyze for view \"sample\" (optimized)"));
        assert!(text.contains("items: 4"));
        assert!(text.contains("annotate \"ann\": calls 1 | rows 4 -> 4 | evidence 4 | hits 0"));
        assert!(text.contains("enrich \"DataEnrichment\""));
        assert!(text.contains("act \"keep\": calls 1 | rows 4 -> 2"));
        assert!(!text.contains("Consolidate"), "uninstrumented node is omitted");
        assert!(!text.contains(" us"), "timing=false output must be duration-free");
        assert!(!text.contains("run:"));

        let timed = render_analyze_text(&sample(), &sample_stats(), true);
        assert!(timed.contains("run: -"));
        assert!(timed.contains("total self time: 5.2 us"));
        assert!(timed.contains("self 1.5 us"));
    }

    #[test]
    fn analyze_json_passes_the_schema_validator() {
        let plan = sample();
        let json = render_analyze_json(&plan, &sample_stats());
        let nodes = qurator_telemetry::schema::validate_analyze_json(&json).expect("valid analyze");
        assert_eq!(nodes, 4, "ann, Enrich, qa, keep — consolidate omitted");
    }

    #[test]
    fn quotes_in_names_are_escaped() {
        let mut plan = sample();
        plan.view = "we\"ird".into();
        let json = render_json(&plan);
        assert!(qurator_telemetry::json::parse(&json).is_ok());
    }
}
