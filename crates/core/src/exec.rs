//! Binding physical plans to executable operators — the **single** place
//! where plan nodes become processors. The engine's executor walks the
//! bound operators sequentially; [`BoundPlan::into_workflow`] wires the
//! same operators into the §6 deployment workflow (§6.1 rules 1–5) that
//! hosts embed and the wave-parallel enactor runs.

use crate::operators::{
    ActionProcessor, AnnotatorProcessor, AssertionProcessor, CompiledAction, ConsolidateProcessor,
    DataEnrichmentProcessor,
};
use crate::{QuratorError, Result};
use qurator_annotations::{AnnotationError, AnnotationRepository, RepositoryCatalog};
use qurator_ontology::IqModel;
use qurator_plan::{merge_node_name, ActKind, PhysicalPlan, CONSOLIDATE_NODE, ENRICH_NODE};
use qurator_services::{ServiceRegistry, VariableBindings};
use qurator_telemetry::stats::StatsCollector;
use qurator_workflow::{PortRef, Workflow};
use std::collections::HashMap;
use std::sync::Arc;

/// Name of the workflow input carrying the data set.
pub const DATASET_INPUT: &str = "dataset";

/// A physical plan bound to concrete services and repositories.
pub struct BoundPlan {
    /// Annotation operators, in plan order.
    pub annotators: Vec<(String, Arc<AnnotatorProcessor>)>,
    /// The single Data-Enrichment operator, configured with the plan's
    /// repository groups.
    pub enrichment: Arc<DataEnrichmentProcessor>,
    /// QA operators with their tag-dependency facts, in plan order.
    pub assertions: Vec<BoundAssert>,
    /// Action operators, in plan order.
    pub actions: Vec<(String, Arc<ActionProcessor>)>,
    /// The shared observed-statistics sink every operator above records
    /// into, whether the executor walks them or the enactor runs them as
    /// workflow processors. The executor drains it after each run for
    /// EXPLAIN ANALYZE.
    pub stats: Arc<StatsCollector>,
}

/// One bound Assert node.
pub struct BoundAssert {
    pub name: String,
    pub processor: Arc<AssertionProcessor>,
    /// Names of earlier Assert nodes whose tags this one consumes.
    pub depends_on: Vec<String>,
}

/// Binds a physical plan: resolves repositories by name (honouring the
/// plan's persistence facts), looks up services in the registry, and
/// instantiates one processor per plan node.
///
/// A name the catalog holds resolves to that repository. A missing name
/// the plan marks persistent is created in the catalog. A missing
/// volatile name gets one fresh memory repository owned by this bind:
/// every operator of the bind shares it, and it is dropped with them
/// (paper §4: a cache lives for one process execution). A persistent
/// store that cannot be opened is a [`QuratorError::Storage`] error.
pub fn bind(
    plan: &PhysicalPlan,
    iq: &Arc<IqModel>,
    registry: &ServiceRegistry,
    catalog: &RepositoryCatalog,
) -> Result<BoundPlan> {
    let stats = Arc::new(StatsCollector::new());
    let mut caches: HashMap<String, Arc<AnnotationRepository>> = HashMap::new();
    let mut resolve_repo = |name: &str| -> Result<Arc<AnnotationRepository>> {
        if let Some(repo) = catalog.get(name) {
            return Ok(repo);
        }
        if !plan.repository_persistent(name) {
            let cache = caches
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AnnotationRepository::new(name, false, iq.clone())));
            return Ok(cache.clone());
        }
        match catalog.create(name, true) {
            // another bind created it since the lookup above
            Err(AnnotationError::DuplicateRepository(_)) => catalog.require(name),
            created => created,
        }
        .map_err(|e| {
            let message = format!("cannot open repository {name:?}: {e}");
            match e {
                // the view named a repository no store may hold
                AnnotationError::InvalidRepositoryName { .. } => QuratorError::Execution(message),
                _ => QuratorError::Storage(message),
            }
        })
    };

    let mut annotators = Vec::with_capacity(plan.annotators.len());
    for node in &plan.annotators {
        let service = registry
            .annotator(&node.service_type)
            .map_err(|e| QuratorError::Compile(e.to_string()))?;
        let repo = resolve_repo(&node.repository)?;
        annotators.push((
            node.name.clone(),
            Arc::new(
                AnnotatorProcessor::new(node.name.clone(), service, repo).with_stats(stats.clone()),
            ),
        ));
    }

    let groups = plan
        .enrich
        .iter()
        .map(|group| Ok((resolve_repo(&group.repository)?, group.evidence.clone())))
        .collect::<Result<Vec<_>>>()?;
    let enrichment =
        Arc::new(DataEnrichmentProcessor::new(ENRICH_NODE, groups).with_stats(stats.clone()));

    let mut assertions = Vec::with_capacity(plan.assertions.len());
    for assert in &plan.assertions {
        let service = registry
            .assertion(&assert.node.service_type)
            .map_err(|e| QuratorError::Compile(e.to_string()))?;
        let mut bindings = VariableBindings::new();
        for (variable, binding) in &assert.node.bindings {
            bindings = match binding {
                qurator_plan::Binding::Evidence(e) => {
                    bindings.bind_evidence(variable.clone(), e.clone())
                }
                qurator_plan::Binding::Tag(t) => bindings.bind_tag(variable.clone(), t.clone()),
            };
        }
        assertions.push(BoundAssert {
            name: assert.node.name.clone(),
            processor: Arc::new(
                AssertionProcessor::new(
                    assert.node.name.clone(),
                    service,
                    bindings,
                    assert.node.tag.clone(),
                )
                .with_stats(stats.clone()),
            ),
            depends_on: assert.depends_on.clone(),
        });
    }

    let mut actions = Vec::with_capacity(plan.actions.len());
    for act in &plan.actions {
        let compiled = match &act.kind {
            ActKind::Filter { condition } => {
                CompiledAction::Filter { condition: condition.clone() }
            }
            ActKind::Split { groups } => CompiledAction::Split { groups: groups.clone() },
        };
        actions.push((
            act.name.clone(),
            Arc::new(
                ActionProcessor::new(act.name.clone(), compiled, iq.clone())
                    .with_stats(stats.clone()),
            ),
        ));
    }

    Ok(BoundPlan { annotators, enrichment, assertions, actions, stats })
}

impl BoundPlan {
    /// Wires the bound operators into a workflow for the wave-parallel
    /// enactor, following the §6.1 compilation rules: annotators first
    /// (control-linked to the single Data-Enrichment node), QAs chained
    /// by tag dependency (with a dedicated merge node when one QA needs
    /// several producers), a `ConsolidateAssertions` task, and action
    /// processors whose group ports become the workflow outputs.
    pub fn into_workflow(&self, plan: &PhysicalPlan) -> Result<Workflow> {
        let compile_err = |m: String| QuratorError::Compile(m);
        let mut workflow = Workflow::new(format!("qv:{}", plan.view));

        // rule 1: annotators first
        for (name, processor) in &self.annotators {
            workflow
                .add(name.clone(), processor.clone())
                .map_err(|e| compile_err(e.to_string()))?;
            workflow
                .declare_input(DATASET_INPUT, PortRef::new(name, "dataset"))
                .map_err(|e| compile_err(e.to_string()))?;
        }

        // rule 2: one DE, control-linked behind every annotator
        workflow
            .add(ENRICH_NODE, self.enrichment.clone())
            .map_err(|e| compile_err(e.to_string()))?;
        workflow
            .declare_input(DATASET_INPUT, PortRef::new(ENRICH_NODE, "dataset"))
            .map_err(|e| compile_err(e.to_string()))?;
        for (name, _) in &self.annotators {
            workflow.control_link(name, ENRICH_NODE).map_err(|e| compile_err(e.to_string()))?;
        }

        // rule 3 (+ tag-dependency chaining): QAs
        for assert in &self.assertions {
            workflow
                .add(assert.name.clone(), assert.processor.clone())
                .map_err(|e| compile_err(e.to_string()))?;
            match assert.depends_on.as_slice() {
                [] => {
                    workflow
                        .link(ENRICH_NODE, "map", &assert.name, "map")
                        .map_err(|e| compile_err(e.to_string()))?;
                }
                [producer] => {
                    workflow
                        .link(producer, "map", &assert.name, "map")
                        .map_err(|e| compile_err(e.to_string()))?;
                }
                producers => {
                    let merge_node = merge_node_name(&assert.name);
                    workflow
                        .add(
                            merge_node.clone(),
                            Arc::new(ConsolidateProcessor::new(
                                merge_node.clone(),
                                producers.len(),
                            )),
                        )
                        .map_err(|e| compile_err(e.to_string()))?;
                    for (slot, producer) in producers.iter().enumerate() {
                        workflow
                            .link(producer, "map", &merge_node, &format!("map{slot}"))
                            .map_err(|e| compile_err(e.to_string()))?;
                    }
                    workflow
                        .link(&merge_node, "map", &assert.name, "map")
                        .map_err(|e| compile_err(e.to_string()))?;
                }
            }
        }

        // rule 4: ConsolidateAssertions over every QA output (or the DE
        // map when the view declares no QAs)
        let consolidate_inputs = self.assertions.len().max(1);
        workflow
            .add(
                CONSOLIDATE_NODE,
                Arc::new(ConsolidateProcessor::new(CONSOLIDATE_NODE, consolidate_inputs)),
            )
            .map_err(|e| compile_err(e.to_string()))?;
        if self.assertions.is_empty() {
            workflow
                .link(ENRICH_NODE, "map", CONSOLIDATE_NODE, "map0")
                .map_err(|e| compile_err(e.to_string()))?;
        } else {
            for (slot, assert) in self.assertions.iter().enumerate() {
                workflow
                    .link(&assert.name, "map", CONSOLIDATE_NODE, &format!("map{slot}"))
                    .map_err(|e| compile_err(e.to_string()))?;
            }
        }

        // rule 5: actions
        for (name, processor) in &self.actions {
            let group_names = processor.group_names();
            workflow
                .add(name.clone(), processor.clone())
                .map_err(|e| compile_err(e.to_string()))?;
            workflow
                .declare_input(DATASET_INPUT, PortRef::new(name, "dataset"))
                .map_err(|e| compile_err(e.to_string()))?;
            workflow
                .link(CONSOLIDATE_NODE, "map", name, "map")
                .map_err(|e| compile_err(e.to_string()))?;
            for group in group_names {
                workflow
                    .declare_output(group.clone(), PortRef::new(name, group.clone()))
                    .map_err(|e| compile_err(e.to_string()))?;
            }
        }

        workflow
            .validate()
            .map_err(|e| compile_err(format!("compiled workflow is invalid: {e}")))?;
        Ok(workflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner;
    use crate::spec::QualityViewSpec;
    use crate::validate::validate;
    use qurator_plan::PlanConfig;
    use qurator_rdf::namespace::q;
    use qurator_rdf::term::Iri;
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

    /// A repository listed under several evidence IRIs must be answered
    /// by ONE grouped bulk access, not one per IRI — visible both in the
    /// plan (one group) and in the bound operator (one fetch group with
    /// the deduplicated types).
    #[test]
    fn same_repository_under_multiple_iris_binds_to_one_bulk_group() {
        let (iq, registry, catalog) = setup();
        let view = validate(&QualityViewSpec::paper_example(), &iq, &registry).unwrap();
        let plan = planner::physical_plan(&view, &iq, &PlanConfig::default()).unwrap();
        assert_eq!(plan.enrich.len(), 1, "three cache fetches group into one access");

        let bound = bind(&plan, &iq, &registry, &catalog).unwrap();
        let groups = bound.enrichment.fetch_groups();
        assert_eq!(groups.len(), 1, "one grouped enrich_bulk call: {groups:?}");
        assert_eq!(groups[0].0, "cache");
        let mut locals: Vec<&str> = groups[0].1.iter().map(|e| e.local_name()).collect();
        locals.sort_unstable();
        assert_eq!(locals, vec!["HitRatio", "MassCoverage", "PeptidesCount"]);
    }

    #[test]
    fn unoptimized_plan_still_groups_per_repository_at_bind_time() {
        // grouping is a lowering rule, so --no-opt plans one group per
        // repository too, and the operator runs exactly the plan's groups
        let (iq, registry, catalog) = setup();
        let view = validate(&QualityViewSpec::paper_example(), &iq, &registry).unwrap();
        for optimize in [true, false] {
            let plan = planner::physical_plan(&view, &iq, &PlanConfig { optimize }).unwrap();
            let bound = bind(&plan, &iq, &registry, &catalog).unwrap();
            let planned: Vec<(String, Vec<Iri>)> =
                plan.enrich.iter().map(|g| (g.repository.clone(), g.evidence.clone())).collect();
            assert_eq!(bound.enrichment.fetch_groups(), planned, "optimize: {optimize}");
            assert_eq!(planned.len(), 1);
        }
    }

    #[test]
    fn bound_workflow_matches_figure6_structure() {
        let (iq, registry, catalog) = setup();
        let view = validate(&QualityViewSpec::paper_example(), &iq, &registry).unwrap();
        let plan = planner::physical_plan(&view, &iq, &PlanConfig::default()).unwrap();
        let wf = bind(&plan, &iq, &registry, &catalog).unwrap().into_workflow(&plan).unwrap();
        assert_eq!(wf.len(), 7);
        assert!(wf.nodes().any(|n| n == ENRICH_NODE));
        assert!(wf.nodes().any(|n| n == CONSOLIDATE_NODE));
        // the workflow's own wave schedule agrees with the plan's
        let waves = wf.waves().unwrap();
        assert_eq!(waves, plan.waves);
    }
}
