//! The quality-view compiler (§6.1).
//!
//! Compilation rules, as stated in the paper:
//!
//! 1. annotators are added first; their inputs are initially unbound and
//!    they only write to repositories;
//! 2. the compiler determines the association between each evidence type
//!    and the repository holding its value, and adds **one single** Data
//!    Enrichment operator configured with that association; a control link
//!    runs from each annotator to the DE;
//! 3. the DE output (an annotation map) feeds all QA processors through
//!    their common interface;
//! 4. a `ConsolidateAssertions` task merges the assertions into a
//!    consistent view;
//! 5. action processors are added last, fed by the consolidated map; their
//!    output ports become the workflow outputs bound back to the embedding
//!    workflow at deployment time.
//!
//! One extension beyond the paper's sketch: QAs may reference tags of
//! earlier QAs (`tag:HR_MC` — the §5.1 classifier consumes the score QA's
//! output). Such QAs are chained behind their producers; when a QA needs
//! tags from several producers, a dedicated consolidation node merges them
//! first.
//!
//! Since the plan-IR refactor this module is a thin façade: the spec →
//! plan lowering lives in [`crate::planner`], the plan → operator binding
//! and workflow wiring in [`crate::exec`]. `compile` here is the
//! composition of the two, kept as the stable entry point (its structural
//! tests below double as the Figure 6 contract for the whole pipeline).
//!
//! The compiled workflow is the §6 deployment artifact: [`crate::deploy`]
//! embeds it into a host workflow. [`enact`] runs it standalone — the
//! encode → enact → decode round trip the equivalence tests and the E5
//! bench compare with the interpreter.

use crate::engine::ActionOutcome;
use crate::operators::GroupResult;
use crate::spec::{ActionKind, QualityViewSpec};
use crate::validate::ValidatedView;
use crate::{convert, exec, planner, QuratorError, Result};
use qurator_annotations::RepositoryCatalog;
use qurator_ontology::IqModel;
use qurator_plan::PlanConfig;
use qurator_services::{DataSet, ServiceRegistry};
use qurator_workflow::{Context, Data, EnactmentReport, Enactor, Workflow};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Node name of the single Data-Enrichment operator.
pub const DATA_ENRICHMENT: &str = qurator_plan::ENRICH_NODE;
/// Node name of the final consolidation task.
pub const CONSOLIDATE: &str = qurator_plan::CONSOLIDATE_NODE;
/// Name of the workflow input carrying the data set.
pub const DATASET_INPUT: &str = exec::DATASET_INPUT;

/// Compiles a validated view into an executable workflow (optimizing
/// passes on).
pub fn compile(
    view: &ValidatedView,
    iq: &Arc<IqModel>,
    registry: &ServiceRegistry,
    catalog: &RepositoryCatalog,
) -> Result<Workflow> {
    compile_with(view, iq, registry, catalog, &PlanConfig::default())
}

/// Compiles through an explicit plan configuration (`optimize: false` for
/// the `--no-opt` baseline).
pub fn compile_with(
    view: &ValidatedView,
    iq: &Arc<IqModel>,
    registry: &ServiceRegistry,
    catalog: &RepositoryCatalog,
    config: &PlanConfig,
) -> Result<Workflow> {
    let plan = planner::physical_plan(view, iq, config)?;
    exec::bind(&plan, iq, registry, catalog)?.into_workflow(&plan)
}

/// Runs a compiled view over `dataset` on the wave-parallel enactor and
/// decodes the action outputs. Pure with respect to the engine: the
/// enactment leaves no record in its run ring (no span trace, stats or
/// decisions) and touches neither its stats profiles nor its execution
/// counters; the [`EnactmentReport`] is its only account. Callers that
/// want the operators' observed stats bind the plan themselves and drain
/// [`exec::BoundPlan::stats`].
pub fn enact(
    workflow: &Workflow,
    spec: &QualityViewSpec,
    dataset: &DataSet,
) -> Result<(ActionOutcome, EnactmentReport)> {
    let inputs = BTreeMap::from([(DATASET_INPUT.to_string(), convert::dataset_to_data(dataset))]);
    let report = Enactor::new().run(workflow, &inputs, &Context::new())?;
    let outcome = decode_outcome(spec, &report.outputs)?;
    Ok((outcome, report))
}

/// Decodes workflow outputs into an [`ActionOutcome`], preserving the
/// spec's action/group declaration order — the inverse of the output
/// ports [`exec::BoundPlan::into_workflow`] declares.
fn decode_outcome(
    spec: &QualityViewSpec,
    outputs: &BTreeMap<String, Data>,
) -> Result<ActionOutcome> {
    let mut expected: Vec<String> = Vec::new();
    for action in &spec.actions {
        match &action.kind {
            ActionKind::Filter { .. } => expected.push(action.name.clone()),
            ActionKind::Split { groups } => {
                for (group, _) in groups {
                    expected.push(format!("{}/{group}", action.name));
                }
                expected.push(format!("{}/default", action.name));
            }
        }
    }
    let mut result = Vec::with_capacity(expected.len());
    for name in expected {
        let data = outputs.get(&name).ok_or_else(|| {
            QuratorError::Execution(format!("workflow produced no output {name:?}"))
        })?;
        let dataset =
            convert::data_to_dataset(data.field("dataset").ok_or_else(|| {
                QuratorError::Execution(format!("group {name:?} lacks dataset"))
            })?)?;
        let map = convert::data_to_map(
            data.field("map")
                .ok_or_else(|| QuratorError::Execution(format!("group {name:?} lacks map")))?,
        )?;
        result.push(GroupResult { name, dataset, map });
    }
    Ok(ActionOutcome { groups: result })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use qurator_rdf::namespace::q;
    use qurator_services::stdlib::{
        FieldCaptureAnnotator, StatClassifierAssertion, ZScoreAssertion,
    };

    fn setup() -> (Arc<IqModel>, ServiceRegistry, RepositoryCatalog) {
        let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
        let registry = ServiceRegistry::new();
        registry
            .register_annotator(Arc::new(FieldCaptureAnnotator::new(
                q::iri("ImprintOutputAnnotation"),
                &[
                    ("hitRatio", q::iri("HitRatio")),
                    ("massCoverage", q::iri("MassCoverage")),
                    ("peptidesCount", q::iri("PeptidesCount")),
                ],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(ZScoreAssertion::new(
                q::iri("UniversalPIScore2"),
                &["coverage", "hitratio", "peptidescount"],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(ZScoreAssertion::new(
                q::iri("UniversalPIScore"),
                &["hitratio"],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(StatClassifierAssertion::new(
                q::iri("PIScoreClassifier"),
                "score",
                q::iri("PIScoreClassification"),
                (q::iri("low"), q::iri("mid"), q::iri("high")),
            )))
            .unwrap();
        let catalog = RepositoryCatalog::new(iq.clone());
        (iq, registry, catalog)
    }

    #[test]
    fn paper_view_compiles_with_figure6_structure() {
        let (iq, registry, catalog) = setup();
        let view = validate(&QualityViewSpec::paper_example(), &iq, &registry).unwrap();
        let wf = compile(&view, &iq, &registry, &catalog).unwrap();

        // nodes: 1 annotator + DE + 3 QAs + consolidate + 1 action
        assert_eq!(wf.len(), 7);
        assert!(wf.nodes().any(|n| n == "ImprintOutputAnnotator"));
        assert!(wf.nodes().any(|n| n == DATA_ENRICHMENT));
        assert!(wf.nodes().any(|n| n == CONSOLIDATE));

        // control link annotator -> DE (rule 2)
        assert!(wf
            .control_links()
            .iter()
            .any(|(a, b)| a == "ImprintOutputAnnotator" && b == DATA_ENRICHMENT));

        // DE feeds the two score QAs, the classifier chains behind HR_MC
        let de_feeds: Vec<&str> = wf
            .data_links()
            .iter()
            .filter(|l| l.from.processor == DATA_ENRICHMENT)
            .map(|l| l.to.processor.as_str())
            .collect();
        assert!(de_feeds.contains(&"HR_MC_score"));
        assert!(de_feeds.contains(&"HR_score"));
        assert!(!de_feeds.contains(&"PIScoreClassifier"));
        assert!(wf
            .data_links()
            .iter()
            .any(|l| l.from.processor == "HR_MC_score" && l.to.processor == "PIScoreClassifier"));

        // every QA feeds the consolidator, which feeds the action
        for qa in ["HR_MC_score", "HR_score", "PIScoreClassifier"] {
            assert!(wf
                .data_links()
                .iter()
                .any(|l| l.from.processor == qa && l.to.processor == CONSOLIDATE));
        }
        assert!(wf
            .data_links()
            .iter()
            .any(|l| l.from.processor == CONSOLIDATE && l.to.processor == "filter top k score"));

        // outputs: one group for the filter
        let outputs: Vec<&str> = wf.outputs().map(|(n, _)| n).collect();
        assert_eq!(outputs, vec!["filter top k score"]);

        // the view's cache belongs to the workflow's bind, not the catalog
        assert!(catalog.get("cache").is_none());
    }

    #[test]
    fn multi_tag_dependency_gets_a_merge_node() {
        let (mut_iq, registry, catalog) = setup();
        let mut iq = (*mut_iq).clone();
        iq.register_assertion_type("Combiner").unwrap();
        let iq = Arc::new(iq);
        registry
            .register_assertion(Arc::new(ZScoreAssertion::new(q::iri("Combiner"), &["a", "b"])))
            .unwrap();

        let mut spec = QualityViewSpec::paper_example();
        spec.assertions.push(crate::spec::AssertionDecl {
            service_name: "combined".into(),
            service_type: "q:Combiner".into(),
            tag_name: "COMBO".into(),
            tag_kind: crate::spec::TagKind::Score,
            tag_sem_type: None,
            repository_ref: "cache".into(),
            variables: vec![
                crate::spec::VarDecl::named("a", "tag:HR_MC"),
                crate::spec::VarDecl::named("b", "tag:HR"),
            ],
        });
        let view = validate(&spec, &iq, &registry).unwrap();
        let wf = compile(&view, &iq, &registry, &catalog).unwrap();
        assert!(wf.nodes().any(|n| n == "consolidate-for-combined"));
        assert!(wf.data_links().iter().any(
            |l| l.from.processor == "consolidate-for-combined" && l.to.processor == "combined"
        ));
    }

    #[test]
    fn splitter_outputs_one_port_per_group_plus_default() {
        let (iq, registry, catalog) = setup();
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Split {
            groups: vec![
                ("strong".into(), "ScoreClass in q:high".into()),
                ("weak".into(), "ScoreClass in q:low".into()),
            ],
        };
        let view = validate(&spec, &iq, &registry).unwrap();
        let wf = compile(&view, &iq, &registry, &catalog).unwrap();
        let mut outputs: Vec<&str> = wf.outputs().map(|(n, _)| n).collect();
        outputs.sort();
        assert_eq!(
            outputs,
            vec![
                "filter top k score/default",
                "filter top k score/strong",
                "filter top k score/weak"
            ]
        );
    }

    #[test]
    fn view_without_assertions_compiles() {
        let (iq, registry, catalog) = setup();
        let mut spec = QualityViewSpec::new("raw");
        spec.actions.push(crate::spec::ActionDecl {
            name: "keep".into(),
            kind: ActionKind::Filter { condition: "HitRatio > 0.5".into() },
        });
        let view = validate(&spec, &iq, &registry).unwrap();
        let wf = compile(&view, &iq, &registry, &catalog).unwrap();
        // DE -> consolidate -> action
        assert_eq!(wf.len(), 3);
    }
}
