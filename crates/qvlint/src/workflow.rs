//! Analysis of compiled workflow graphs (§6.1 output).
//!
//! The compiler's own `Workflow::validate()` guarantees well-formedness
//! (ports exist, required inputs fed, acyclic); this pass re-checks the
//! graph-shape properties as diagnostics — so `qv check` reports them
//! alongside view-level findings instead of aborting — and adds the
//! observations validation does not make: nodes unreachable from any
//! workflow input, repositories written but never read, and unusually
//! wide execution waves (a parallelism hint for the wave scheduler).

use crate::{Diagnostic, Span};
use qurator_workflow::Workflow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Waves at least this wide earn a WF004 parallelism hint.
pub const WIDE_WAVE: usize = 8;

/// The pure graph-shape checks (WF001 cycles, WF002 unreachable nodes) —
/// the properties only the wired workflow can answer.
pub fn analyze_graph(workflow: &Workflow, spec_span: Option<Span>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // WF001 — dependency cycles. The topological order underpins every
    // other graph question, so a cycle short-circuits the pass.
    if let Err(e) = workflow.topological_order() {
        diags.push(
            Diagnostic::error("WF001", format!("workflow {:?}: {e}", workflow.name()))
                .at(spec_span)
                .help("break the dependency cycle between the listed processors"),
        );
        return diags;
    }

    // WF002 — unreachable nodes: no path from any workflow-input-fed node.
    let mut adjacency: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in workflow.dependency_edges() {
        adjacency.entry(from).or_default().push(to);
    }
    let mut reached: BTreeSet<&str> = BTreeSet::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    for (_, targets) in workflow.inputs() {
        for port in targets {
            if reached.insert(port.processor.as_str()) {
                queue.push_back(&port.processor);
            }
        }
    }
    while let Some(node) = queue.pop_front() {
        for next in adjacency.get(node).into_iter().flatten() {
            if reached.insert(next) {
                queue.push_back(next);
            }
        }
    }
    for node in workflow.nodes() {
        if !reached.contains(node) {
            diags.push(
                Diagnostic::warning(
                    "WF002",
                    format!("processor {node:?} is unreachable from any workflow input"),
                )
                .at(spec_span)
                .help("connect the processor to the data flow or remove it"),
            );
        }
    }

    diags
}

/// WF003 — repositories written but never read. An annotator that
/// fills a repository no enrichment step consults does work nobody
/// observes (within this view; persistent repositories may serve
/// later views, which is why this is a warning, not an error).
/// `writes`/`reads` pair a node name with a repository name.
pub fn write_only_repositories(
    writes: &[(String, String)],
    reads: &[(String, String)],
    spec_span: Option<Span>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let read: BTreeSet<&str> = reads.iter().map(|(_, r)| r.as_str()).collect();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for (node, repo) in writes {
        if !read.contains(repo.as_str()) && reported.insert(repo) {
            diags.push(
                Diagnostic::warning(
                    "WF003",
                    format!(
                        "repository {repo:?} is written (by {node:?}) but never read by this view"
                    ),
                )
                .at(spec_span)
                .help("point an assertion at the repository, or drop the annotator"),
            );
        }
    }
    diags
}

/// WF004 — wave-width hint: the §6.1 enactor runs each wave's nodes in
/// parallel, so a wave wider than the worker pool serializes.
pub fn wave_width_hint(waves: &[Vec<String>], spec_span: Option<Span>) -> Option<Diagnostic> {
    let (index, width) =
        waves.iter().enumerate().map(|(i, w)| (i, w.len())).max_by_key(|(_, w)| *w)?;
    if width < WIDE_WAVE {
        return None;
    }
    Some(
        Diagnostic::info(
            "WF004",
            format!(
                "wave {index} runs {width} processors in parallel; \
                 the enactor's thread pool may serialize it"
            ),
        )
        .at(spec_span),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_workflow::processor::FnProcessor;
    use qurator_workflow::{PortRef, Processor};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn node() -> Arc<dyn Processor> {
        Arc::new(
            FnProcessor::new("n", &[("in", 0)], &["out"], |_, _| {
                Ok(BTreeMap::from([("out".to_string(), qurator_workflow::data::Data::Null)]))
            })
            .with_optional(&["in"]),
        )
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn detects_cycles() {
        let mut w = Workflow::new("t");
        w.add("a", node()).unwrap();
        w.add("b", node()).unwrap();
        w.link("a", "out", "b", "in").unwrap();
        w.link("b", "out", "a", "in").unwrap();
        let diags = analyze_graph(&w, None);
        assert_eq!(codes(&diags), vec!["WF001"]);
    }

    #[test]
    fn detects_unreachable_nodes() {
        let mut w = Workflow::new("t");
        w.add("fed", node()).unwrap();
        w.add("downstream", node()).unwrap();
        w.add("orphan", node()).unwrap();
        w.link("fed", "out", "downstream", "in").unwrap();
        w.declare_input("x", PortRef::new("fed", "in")).unwrap();
        let diags = analyze_graph(&w, None);
        assert_eq!(codes(&diags), vec!["WF002"]);
        assert!(diags[0].message.contains("orphan"));
    }

    #[test]
    fn detects_write_only_repositories() {
        let writes = vec![("a".into(), "scratch".into()), ("a".into(), "cache".into())];
        let reads = vec![("de".into(), "cache".into())];
        let diags = write_only_repositories(&writes, &reads, None);
        assert_eq!(codes(&diags), vec!["WF003"]);
        assert!(diags[0].message.contains("scratch"));
    }

    #[test]
    fn wide_waves_get_a_hint() {
        let mut w = Workflow::new("t");
        w.add("src", node()).unwrap();
        w.declare_input("x", PortRef::new("src", "in")).unwrap();
        for i in 0..WIDE_WAVE {
            let name = format!("p{i}");
            w.add(name.clone(), node()).unwrap();
            w.link("src", "out", &name, "in").unwrap();
        }
        let hint = wave_width_hint(&w.waves().unwrap(), None).expect("a wide wave");
        assert_eq!(hint.code, "WF004");
        assert!(hint.message.contains(&WIDE_WAVE.to_string()));
    }

    #[test]
    fn clean_workflow_has_no_findings() {
        let mut w = Workflow::new("t");
        w.add("a", node()).unwrap();
        w.add("b", node()).unwrap();
        w.link("a", "out", "b", "in").unwrap();
        w.declare_input("x", PortRef::new("a", "in")).unwrap();
        assert!(analyze_graph(&w, None).is_empty());
        assert!(write_only_repositories(&[], &[], None).is_empty());
        assert!(wave_width_hint(&w.waves().unwrap(), None).is_none());
    }
}
