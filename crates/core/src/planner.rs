//! Lowering validated view specs into the typed plan IR — the **single**
//! place where spec structure becomes plan nodes. Every consumer (the
//! direct interpreter, the workflow compiler, the static analyzer, the
//! `qv plan` renderer) starts from the plans built here.

use crate::spec::{ActionKind, TagKind};
use crate::validate::{BindingTarget, ValidatedView};
use crate::{QuratorError, Result};
use qurator_ontology::IqModel;
use qurator_plan::{
    ActKind, ActNode, AnnotateNode, AssertNode, Binding, EnrichNode, LogicalNode, LogicalPlan,
    PhysicalPlan, PlanConfig,
};

/// Lowers a validated view to its logical plan: one typed node per
/// operator, in process order, with evidence and variable signatures
/// resolved (the association the §6.1 compiler computes).
pub fn logical_plan(view: &ValidatedView, iq: &IqModel) -> LogicalPlan {
    let spec = &view.spec;
    let mut nodes =
        Vec::with_capacity(spec.annotators.len() + spec.assertions.len() + spec.actions.len() + 2);

    for (decl, service_type) in spec.annotators.iter().zip(&view.annotator_types) {
        nodes.push(LogicalNode::Annotate(AnnotateNode {
            name: decl.service_name.clone(),
            service_type: service_type.clone(),
            repository: decl.repository_ref.clone(),
            persistent: decl.persistent,
            provides: decl.variables.iter().filter_map(|v| iq.resolve(&v.evidence).ok()).collect(),
        }));
    }

    nodes.push(LogicalNode::Enrich(EnrichNode { fetches: view.enrichment_plan.clone() }));

    for (index, decl) in spec.assertions.iter().enumerate() {
        nodes.push(LogicalNode::Assert(AssertNode {
            name: decl.service_name.clone(),
            service_type: view.assertion_types[index].clone(),
            tag: decl.tag_name.clone(),
            tag_kind: match decl.tag_kind {
                TagKind::Score => qurator_plan::TagKind::Score,
                TagKind::Class => qurator_plan::TagKind::Class,
            },
            labels: match decl.tag_kind {
                TagKind::Score => Vec::new(),
                TagKind::Class => decl
                    .tag_sem_type
                    .as_deref()
                    .and_then(|sem| iq.resolve(sem).ok())
                    .map(|model| {
                        iq.classification_labels(&model)
                            .iter()
                            .map(|l| l.local_name().to_string())
                            .collect()
                    })
                    .unwrap_or_default(),
            },
            bindings: view.assertion_bindings[index]
                .iter()
                .map(|(variable, target)| {
                    let binding = match target {
                        BindingTarget::Evidence(e) => Binding::Evidence(e.clone()),
                        BindingTarget::Tag(t) => Binding::Tag(t.clone()),
                    };
                    (variable.clone(), binding)
                })
                .collect(),
        }));
    }

    nodes.push(LogicalNode::Consolidate);

    for action in &spec.actions {
        nodes.push(LogicalNode::Act(ActNode {
            name: action.name.clone(),
            kind: match &action.kind {
                ActionKind::Filter { condition } => {
                    ActKind::Filter { condition: condition.clone() }
                }
                ActionKind::Split { groups } => ActKind::Split { groups: groups.clone() },
            },
        }));
    }

    LogicalPlan { view: spec.name.clone(), nodes }
}

/// Lowers a validated view all the way to a physical plan through the
/// pass pipeline (`config.optimize` selects the `--no-opt` baseline).
pub fn physical_plan(
    view: &ValidatedView,
    iq: &IqModel,
    config: &PlanConfig,
) -> Result<PhysicalPlan> {
    qurator_plan::lower(&logical_plan(view, iq), config)
        .map_err(|e| QuratorError::Compile(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QualityViewSpec;
    use crate::validate::validate;
    use qurator_rdf::namespace::q;
    use qurator_services::stdlib::{
        FieldCaptureAnnotator, StatClassifierAssertion, ZScoreAssertion,
    };
    use qurator_services::ServiceRegistry;
    use std::sync::Arc;

    fn setup() -> (IqModel, ServiceRegistry) {
        let iq = IqModel::with_proteomics_extension().unwrap();
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
        (iq, registry)
    }

    #[test]
    fn paper_view_lowers_to_typed_nodes_in_process_order() {
        let (iq, registry) = setup();
        let view = validate(&QualityViewSpec::paper_example(), &iq, &registry).unwrap();
        let plan = logical_plan(&view, &iq);
        let names: Vec<&str> = plan.nodes.iter().map(|n| n.name()).collect();
        assert_eq!(
            names,
            vec![
                "ImprintOutputAnnotator",
                qurator_plan::ENRICH_NODE,
                "HR_MC_score",
                "HR_score",
                "PIScoreClassifier",
                qurator_plan::CONSOLIDATE_NODE,
                "filter top k score",
            ]
        );
        let annotator = plan.annotators().next().unwrap();
        assert_eq!(annotator.repository, "cache");
        assert!(!annotator.persistent);
        assert_eq!(annotator.provides.len(), 3);
        // the classifier's variable is typed as a tag binding
        let classifier = plan.assertions().nth(2).unwrap();
        assert_eq!(classifier.bindings, vec![("score".to_string(), Binding::Tag("HR_MC".into()))]);
        assert_eq!(classifier.tag_kind, qurator_plan::TagKind::Class);
        // the classification domain travels with the node for dataflow
        let mut labels = classifier.labels.clone();
        labels.sort();
        assert_eq!(labels, vec!["high", "low", "mid"]);
        let score = plan.assertions().next().unwrap();
        assert!(score.labels.is_empty(), "score assertions have no label domain");
    }

    #[test]
    fn paper_view_physical_plan_fuses_the_cache_fetches() {
        let (iq, registry) = setup();
        let view = validate(&QualityViewSpec::paper_example(), &iq, &registry).unwrap();
        let plan = physical_plan(&view, &iq, &PlanConfig::default()).unwrap();
        assert!(plan.optimized);
        // three evidence types, one repository -> one group
        assert_eq!(plan.enrich.len(), 1);
        assert_eq!(plan.enrich[0].repository, "cache");
        assert_eq!(plan.fetch_count(), 3);
        // the classifier chains behind its producing QA in a later wave
        let wave_of =
            |name: &str| plan.waves.iter().position(|w| w.iter().any(|n| n == name)).unwrap();
        assert!(wave_of("PIScoreClassifier") > wave_of("HR_MC_score"));
        assert_eq!(wave_of("HR_MC_score"), wave_of("HR_score"));

        let raw = physical_plan(&view, &iq, &PlanConfig { optimize: false }).unwrap();
        assert_eq!(raw.enrich, plan.enrich, "--no-opt groups fetches the same way");
    }
}
