//! Analysis of quality-view plans (the typed IR of `qurator-plan`).
//!
//! The WF-series usage findings are computed here from plan nodes rather
//! than from the compiled workflow graph: the *logical* plan still lists
//! every declared annotator (the optimizer's dead-node elimination prunes
//! write-only volatile ones from the physical plan, which is exactly what
//! WF003 wants to warn about), and the *physical* plan carries the wave
//! schedule the compiled workflow follows, so the WF004 width hint
//! describes what will actually run. Graph-only checks (WF001/WF002) stay with
//! [`crate::workflow::analyze_graph`].

use crate::workflow::{wave_width_hint, write_only_repositories};
use crate::{Diagnostic, Span};
use qurator_plan::{LogicalPlan, PhysicalPlan, ENRICH_NODE};

/// Runs the plan pass: WF003 (write-only repositories) over the logical
/// plan's annotator/enrichment nodes, WF004 (wave width) over the
/// physical schedule. `spec_span` anchors findings to the view's source
/// position when it was parsed with spans.
pub fn analyze_plan(
    logical: &LogicalPlan,
    physical: &PhysicalPlan,
    spec_span: Option<Span>,
) -> Vec<Diagnostic> {
    let writes: Vec<(String, String)> =
        logical.annotators().map(|a| (a.name.clone(), a.repository.clone())).collect();
    let reads: Vec<(String, String)> = logical
        .enrich()
        .into_iter()
        .flat_map(|e| e.fetches.iter().map(|(_, repo)| (ENRICH_NODE.to_string(), repo.clone())))
        .collect();
    let mut diags = write_only_repositories(&writes, &reads, spec_span);
    diags.extend(wave_width_hint(&physical.waves, spec_span));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_plan::{
        ActKind, ActNode, AnnotateNode, EnrichNode, LogicalNode, PlanConfig, CONSOLIDATE_NODE,
    };
    use qurator_rdf::term::Iri;

    fn annotator(name: &str, repo: &str, provides: &[&str]) -> LogicalNode {
        LogicalNode::Annotate(AnnotateNode {
            name: name.into(),
            service_type: Iri::new("urn:svc"),
            repository: repo.into(),
            persistent: false,
            provides: provides.iter().map(|p| Iri::new(format!("urn:e:{p}"))).collect(),
        })
    }

    fn plan_pair(nodes: Vec<LogicalNode>) -> (LogicalPlan, PhysicalPlan) {
        let logical = LogicalPlan { view: "v".into(), nodes };
        let physical = qurator_plan::lower(&logical, &PlanConfig::default()).unwrap();
        (logical, physical)
    }

    #[test]
    fn write_only_repository_found_from_plan_nodes() {
        let (logical, physical) = plan_pair(vec![
            annotator("a", "scratch", &["x"]),
            LogicalNode::Enrich(EnrichNode::default()),
            LogicalNode::Consolidate,
            LogicalNode::Act(ActNode {
                name: "act".into(),
                kind: ActKind::Filter { condition: "1 > 0".into() },
            }),
        ]);
        let diags = analyze_plan(&logical, &physical, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "WF003");
        assert!(diags[0].message.contains("scratch"), "{}", diags[0].message);
        assert!(diags[0].message.contains("\"a\""), "{}", diags[0].message);
    }

    #[test]
    fn dead_node_elimination_does_not_hide_the_write_only_warning() {
        // the optimizer removes the volatile write-only annotator from the
        // physical plan; the warning must still fire (it comes from the
        // logical plan)
        let (logical, physical) = plan_pair(vec![
            annotator("a", "scratch", &["x"]),
            LogicalNode::Enrich(EnrichNode::default()),
            LogicalNode::Consolidate,
            LogicalNode::Act(ActNode {
                name: "act".into(),
                kind: ActKind::Filter { condition: "1 > 0".into() },
            }),
        ]);
        assert!(physical.annotators.is_empty(), "annotator should be eliminated");
        let codes: Vec<&str> =
            analyze_plan(&logical, &physical, None).iter().map(|d| d.code).collect::<Vec<_>>();
        assert_eq!(codes, vec!["WF003"]);
    }

    #[test]
    fn read_repository_is_not_reported() {
        let (logical, physical) = plan_pair(vec![
            annotator("a", "cache", &["x"]),
            LogicalNode::Enrich(EnrichNode {
                fetches: vec![(Iri::new("urn:e:x"), "cache".into())],
            }),
            LogicalNode::Consolidate,
        ]);
        assert!(analyze_plan(&logical, &physical, None).is_empty());
        assert!(physical.waves.iter().all(|w| w.len() < crate::workflow::WIDE_WAVE));
        assert_eq!(physical.waves.first().unwrap(), &vec!["a".to_string()]);
        assert!(physical.waves.iter().flatten().any(|n| n == CONSOLIDATE_NODE));
    }

    #[test]
    fn wide_plan_wave_gets_the_hint() {
        let mut nodes: Vec<LogicalNode> = (0..crate::workflow::WIDE_WAVE)
            .map(|i| annotator(&format!("a{i}"), "cache", &[]))
            .collect();
        nodes.push(LogicalNode::Enrich(EnrichNode {
            fetches: vec![(Iri::new("urn:e:x"), "cache".into())],
        }));
        nodes.push(LogicalNode::Consolidate);
        let (logical, physical) = plan_pair(nodes);
        let codes: Vec<&str> =
            analyze_plan(&logical, &physical, None).iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["WF004"]);
    }
}
