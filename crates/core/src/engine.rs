//! The top-level quality engine: IQ model + service registry + repository
//! catalog + binding registry, with one executor.
//!
//! [`QualityEngine::execute_view`] interprets the abstract quality process
//! in-process (the "rapid prototyping" loop the paper motivates — edit
//! conditions, re-run, observe): validate, plan, bind, then walk the bound
//! plan node by node, recording spans and observed stats in-line. Each
//! run leaves one record in the engine's run ring ([`crate::ledger`]):
//! its span trace, its stats and, with provenance on, a columnar capture
//! of its consolidated map and groups, from which [`QualityEngine::why`]
//! and [`QualityEngine::ledger`] build decision traces when asked.
//! `execute_view_with` selects a [`qurator_plan::PlanConfig`] (the
//! unoptimized baseline) and `execute_view_run` takes a caller-minted
//! [`RunId`].
//!
//! [`QualityEngine::compile`] lowers the same plan into a workflow — the
//! paper's §6 deployment artifact for embedding into host workflows
//! ([`crate::deploy`]); [`crate::compile::enact`] runs it standalone.
//! [`QualityEngine::plan_with`] exposes the plan itself (the `qv plan`
//! EXPLAIN surface).

use crate::compile;
use crate::ledger::{Decisions, RunLedger, RunRecord};
use crate::operators::GroupResult;
use crate::spec::QualityViewSpec;
use crate::validate::{self, ValidatedView};
use crate::{exec, planner, QuratorError, Result};
use parking_lot::RwLock;
use qurator_annotations::catalog::check_repository_name;
use qurator_annotations::RepositoryCatalog;
use qurator_ontology::binding::BindingRegistry;
use qurator_ontology::IqModel;
use qurator_plan::{ActKind, LogicalPlan, PhysicalPlan, PlanConfig};
use qurator_rdf::namespace::q;
use qurator_services::stdlib::{FieldCaptureAnnotator, StatClassifierAssertion, ZScoreAssertion};
use qurator_services::{AnnotationService, AssertionService, DataSet, ServiceRegistry};
use qurator_telemetry::span::{SpanId, SpanKind, SpanRecorder, SpanTrace, TraceSession};
use qurator_telemetry::stats::RunStats;
use qurator_telemetry::{DecisionTrace, RunId, TelemetryConfig};
use qurator_workflow::Workflow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The result of executing a quality view over a data set: one group per
/// action output (a single group for filters; per-group + default for
/// splitters).
#[derive(Debug, Clone, PartialEq)]
pub struct ActionOutcome {
    pub groups: Vec<GroupResult>,
}

impl ActionOutcome {
    /// The group with the given name.
    pub fn group(&self, name: &str) -> Option<&GroupResult> {
        self.groups.iter().find(|g| g.name == name)
    }

    /// Names of all groups, in declaration order.
    pub fn group_names(&self) -> Vec<&str> {
        self.groups.iter().map(|g| g.name.as_str()).collect()
    }
}

/// The engine.
pub struct QualityEngine {
    iq: Arc<IqModel>,
    registry: Arc<ServiceRegistry>,
    catalog: Arc<RepositoryCatalog>,
    bindings: RwLock<BindingRegistry>,
    /// The ring of run records: traces, stats and decisions.
    ledger: RunLedger,
    /// Observed-statistics collection switch (on by default; the
    /// paired-delta bench flips it off to price collection itself).
    stats_enabled: AtomicBool,
}

impl QualityEngine {
    /// Builds an engine over an IQ model with empty registry and catalog.
    pub fn new(iq: IqModel) -> Self {
        let iq = Arc::new(iq);
        QualityEngine {
            catalog: Arc::new(RepositoryCatalog::new(iq.clone())),
            registry: Arc::new(ServiceRegistry::new()),
            bindings: RwLock::new(BindingRegistry::new()),
            ledger: RunLedger::default(),
            stats_enabled: AtomicBool::new(true),
            iq,
        }
    }

    /// An engine preloaded with the running example's semantic model and
    /// services: the Imprint output annotator, the two universal-score QAs
    /// and the §5.1 three-way classifier.
    pub fn with_proteomics_defaults() -> Result<Self> {
        let iq = IqModel::with_proteomics_extension()
            .map_err(|e| QuratorError::Validation(e.to_string()))?;
        let engine = Self::new(iq);
        engine.register_annotation_service(Arc::new(FieldCaptureAnnotator::new(
            q::iri("ImprintOutputAnnotation"),
            &[
                ("hitRatio", q::iri("HitRatio")),
                ("massCoverage", q::iri("MassCoverage")),
                ("peptidesCount", q::iri("PeptidesCount")),
            ],
        )))?;
        engine.register_assertion_service(Arc::new(ZScoreAssertion::new(
            q::iri("UniversalPIScore2"),
            &["coverage", "hitratio", "peptidescount"],
        )))?;
        engine.register_assertion_service(Arc::new(ZScoreAssertion::new(
            q::iri("UniversalPIScore"),
            &["hitratio"],
        )))?;
        engine.register_assertion_service(Arc::new(StatClassifierAssertion::new(
            q::iri("PIScoreClassifier"),
            "score",
            q::iri("PIScoreClassification"),
            (q::iri("low"), q::iri("mid"), q::iri("high")),
        )))?;
        Ok(engine)
    }

    /// The IQ model.
    pub fn iq(&self) -> &Arc<IqModel> {
        &self.iq
    }

    /// The service registry.
    pub fn registry(&self) -> &Arc<ServiceRegistry> {
        &self.registry
    }

    /// The repository catalog.
    pub fn catalog(&self) -> &Arc<RepositoryCatalog> {
        &self.catalog
    }

    /// Roots persistent repositories at `dir` and reopens every store
    /// already present there (one subdirectory per repository). Returns
    /// the names of the reopened repositories; fails fast when a store is
    /// locked by a live process or corrupt.
    pub fn set_store_root(&self, dir: impl Into<std::path::PathBuf>) -> Result<Vec<String>> {
        self.catalog.set_store_root(dir).map_err(|e| QuratorError::Execution(e.to_string()))
    }

    /// Group-commits every repository store (disk-backed repositories
    /// fsync their journal). Hosts call this before acknowledging a run
    /// so annotations survive a crash immediately after the response.
    pub fn flush_stores(&self) -> Result<()> {
        self.catalog.flush_all().map_err(|e| QuratorError::Storage(e.to_string()))
    }

    /// Switches observed-statistics collection on or off (on by default).
    pub fn set_stats_enabled(&self, on: bool) {
        self.stats_enabled.store(on, Ordering::Relaxed);
    }

    /// Whether observed-statistics collection is on.
    pub fn stats_enabled(&self) -> bool {
        self.stats_enabled.load(Ordering::Relaxed)
    }

    /// Observed statistics of the most recent run, if any were recorded.
    pub fn last_run_stats(&self) -> Option<RunStats> {
        self.ledger.last_stats()
    }

    /// Observed statistics of a specific run still in the bounded ring.
    pub fn run_stats(&self, run: RunId) -> Option<RunStats> {
        self.ledger.stats(run)
    }

    /// Projects the repository catalog to the facts the static analyzer
    /// consumes: name, persistence, and the evidence-type inventory of
    /// each bound store (drives the QV024 availability domain).
    pub fn catalog_facts(&self) -> qurator_qvlint::dataflow::CatalogFacts {
        let mut repositories = Vec::new();
        for name in self.catalog.names() {
            let Some(repo) = self.catalog.get(&name) else { continue };
            repositories.push(qurator_qvlint::dataflow::RepoFacts {
                name,
                persistent: repo.is_persistent(),
                provides: repo
                    .annotated_evidence_types()
                    .into_iter()
                    .map(|e| e.to_string())
                    .collect(),
            });
        }
        qurator_qvlint::dataflow::CatalogFacts { repositories }
    }

    /// Snapshot of the binding registry (concept → resource locator).
    pub fn bindings(&self) -> Vec<qurator_ontology::binding::Binding> {
        self.bindings.read().iter().collect()
    }

    /// The run ledger: the ring of recent run records that traces, run
    /// stats and decision provenance are read from. Decision capture is
    /// off by default; enable it with
    /// [`QualityEngine::set_provenance_enabled`] before an execution.
    pub fn ledger(&self) -> &RunLedger {
        &self.ledger
    }

    /// Turns decision-provenance recording on or off.
    pub fn set_provenance_enabled(&self, enabled: bool) {
        self.ledger.set_enabled(enabled);
    }

    /// The full decision trace for an item (exact id match) from the
    /// newest retained run that traced it: evidence fetched, quality tags
    /// assigned, actions taken.
    pub fn why(&self, item: &str) -> Option<DecisionTrace> {
        self.ledger.why(item)
    }

    /// Decision traces whose item id equals or ends with `needle`
    /// (convenient for short ids like `H3`).
    pub fn explain_item(&self, needle: &str) -> Vec<DecisionTrace> {
        self.ledger.find(needle)
    }

    /// The span trace of the most recent execution on this engine, if
    /// any. A host that runs views concurrently reads its own run's trace
    /// with `ledger().trace(run)` instead.
    pub fn last_trace(&self) -> Option<Arc<SpanTrace>> {
        self.ledger.last_trace()
    }

    /// Does nothing: the drift monitor it configured is gone, and
    /// [`TelemetryConfig`] has no settings left. Only the `e2e_layers/`
    /// benchmark harness still calls this; the next change to that
    /// benchmark removes the call and then this method.
    pub fn enable_observability(&self, _config: &TelemetryConfig) {}

    /// Registers an annotation service and binds its concept.
    pub fn register_annotation_service(&self, service: Arc<dyn AnnotationService>) -> Result<()> {
        let concept = service.service_type();
        self.registry
            .register_annotator(service)
            .map_err(|e| QuratorError::Validation(e.to_string()))?;
        self.bindings.write().bind_service(concept.clone(), format!("local:{concept}"));
        Ok(())
    }

    /// Registers an assertion service and binds its concept.
    pub fn register_assertion_service(&self, service: Arc<dyn AssertionService>) -> Result<()> {
        let concept = service.service_type();
        self.registry
            .register_assertion(service)
            .map_err(|e| QuratorError::Validation(e.to_string()))?;
        self.bindings.write().bind_service(concept.clone(), format!("local:{concept}"));
        Ok(())
    }

    /// Validates a spec against the IQ model and registry.
    pub fn validate(&self, spec: &QualityViewSpec) -> Result<ValidatedView> {
        let view = validate::validate(spec, &self.iq, &self.registry)?;
        // the binding step (§6): every abstract operator must have a
        // service binding before compilation can target an environment
        let bindings = self.bindings.read();
        for concept in view.annotator_types.iter().chain(&view.assertion_types) {
            bindings
                .service_locator(concept)
                .map_err(|e| QuratorError::Validation(e.to_string()))?;
        }
        Ok(view)
    }

    /// Compiles a spec into an executable quality workflow.
    pub fn compile(&self, spec: &QualityViewSpec) -> Result<Workflow> {
        self.compile_with(spec, &PlanConfig::default())
    }

    /// Compiles through an explicit plan configuration.
    pub fn compile_with(&self, spec: &QualityViewSpec, config: &PlanConfig) -> Result<Workflow> {
        let view = self.validate(spec)?;
        compile::compile_with(&view, &self.iq, &self.registry, &self.catalog, config)
    }

    /// The logical plan of a view: one typed node per operator, before
    /// any optimization.
    pub fn logical_plan(&self, spec: &QualityViewSpec) -> Result<LogicalPlan> {
        let view = self.validate(spec)?;
        Ok(planner::logical_plan(&view, &self.iq))
    }

    /// The optimized physical plan of a view — what the executor runs,
    /// what the compiled workflow wires, and what `qv plan` renders.
    pub fn plan(&self, spec: &QualityViewSpec) -> Result<PhysicalPlan> {
        self.plan_with(spec, &PlanConfig::default())
    }

    /// The physical plan under an explicit configuration
    /// (`optimize: false` yields the `--no-opt` baseline).
    pub fn plan_with(&self, spec: &QualityViewSpec, config: &PlanConfig) -> Result<PhysicalPlan> {
        let view = self.validate(spec)?;
        planner::physical_plan(&view, &self.iq, config)
    }

    /// Runs the full `qv check` analysis: every view-level lint pass, the
    /// binding layer, and — when the view is otherwise clean — the
    /// compiled-workflow pass. Unlike [`QualityEngine::validate`] this
    /// never fails early: all findings come back as diagnostics, and an
    /// empty error set means the view would validate, compile and deploy.
    /// Passing the parsed source `Element` anchors findings to
    /// line/column positions in the original document.
    pub fn check(
        &self,
        spec: &QualityViewSpec,
        source: Option<&qurator_xml::Element>,
    ) -> Vec<qurator_qvlint::Diagnostic> {
        use qurator_qvlint::Diagnostic;

        let report = crate::lint::analyze(spec, &self.iq, &self.registry, source);
        let mut diags = report.diagnostics;
        if let Some(view) = &report.resolved {
            {
                let bindings = self.bindings.read();
                for concept in view.annotator_types.iter().chain(&view.assertion_types) {
                    if let Err(e) = bindings.service_locator(concept) {
                        diags.push(
                            Diagnostic::error("QV009", e.to_string())
                                .at(source.and_then(|el| el.span()))
                                .help("bind a service locator for the concept before deployment"),
                        );
                    }
                }
            }
            // a persistent repository is opened by name, so its name must
            // be one a store may hold
            for (i, decl) in spec.annotators.iter().enumerate().filter(|(_, a)| a.persistent) {
                let Err(e) = check_repository_name(&decl.repository_ref, false) else { continue };
                let attr = source
                    .and_then(|el| el.children_named("Annotator").nth(i))
                    .and_then(|el| el.child("variables"))
                    .and_then(|vars| vars.attr_span("repositoryRef"));
                diags.push(
                    Diagnostic::error("QV027", e.to_string())
                        .at(attr.or_else(|| source.and_then(|el| el.span())))
                        .help("name the repository with one path segment, such as \"archive\""),
                );
            }
            if !qurator_qvlint::has_errors(&diags) {
                let started = std::time::Instant::now();
                let mark = diags.len();
                match compile::compile(view, &self.iq, &self.registry, &self.catalog) {
                    Err(e) => diags.push(
                        Diagnostic::error(
                            "WF005",
                            format!("view failed to compile into a workflow: {e}"),
                        )
                        .at(source.and_then(|el| el.span())),
                    ),
                    Ok(workflow) => {
                        let span = source.and_then(|el| el.span());
                        // graph-shape checks need the wired workflow …
                        diags.extend(qurator_qvlint::workflow::analyze_graph(&workflow, span));
                        // … while the usage findings (WF003/WF004) read
                        // the plan IR the workflow was lowered from
                        let logical = planner::logical_plan(view, &self.iq);
                        if let Ok(physical) =
                            planner::physical_plan(view, &self.iq, &PlanConfig::default())
                        {
                            diags.extend(qurator_qvlint::plan::analyze_plan(
                                &logical, &physical, span,
                            ));
                            // whole-plan dataflow: availability (QV024),
                            // path-lifted value domains (QV025/QV026),
                            // wave write conflicts (WF006)
                            let spans = crate::lint::span_index(source, spec, &self.iq);
                            diags.extend(qurator_qvlint::dataflow::analyze_dataflow(
                                &logical,
                                &physical,
                                &self.catalog_facts(),
                                &spans,
                            ));
                        }
                    }
                }
                qurator_qvlint::record_pass_telemetry(
                    "workflow",
                    started.elapsed(),
                    &diags[mark..],
                );
            }
        }
        qurator_qvlint::sort_diagnostics(&mut diags);
        diags
    }

    /// Direct interpretation of the quality process (§4's semantics
    /// without the workflow detour). Mints a fresh [`RunId`] for the
    /// execution; hosts that already minted one at their entry point
    /// (e.g. `qv serve` echoing `X-QV-Run-Id`) use
    /// [`QualityEngine::execute_view_run`] instead.
    pub fn execute_view(&self, spec: &QualityViewSpec, dataset: &DataSet) -> Result<ActionOutcome> {
        self.execute(spec, dataset, &PlanConfig::default(), RunId::mint())
    }

    /// Direct interpretation under an explicit plan configuration
    /// (`optimize: false` runs the `--no-opt` baseline plan).
    pub fn execute_view_with(
        &self,
        spec: &QualityViewSpec,
        dataset: &DataSet,
        config: &PlanConfig,
    ) -> Result<ActionOutcome> {
        self.execute(spec, dataset, config, RunId::mint())
    }

    /// Direct interpretation under a caller-minted run id: the run's
    /// record is keyed by `run`, and its root `view:` span and decision
    /// traces carry it.
    pub fn execute_view_run(
        &self,
        spec: &QualityViewSpec,
        dataset: &DataSet,
        run: RunId,
    ) -> Result<ActionOutcome> {
        self.execute(spec, dataset, &PlanConfig::default(), run)
    }

    /// The executor: validates the spec, lowers it to a physical plan,
    /// binds the plan to services and repositories, then walks the nodes
    /// in process order ([`QualityEngine::run_physical`]). Each plan node
    /// leaves a `node:<name>` span, so the interpreter's trace and the
    /// enactor's events for the compiled workflow name the same units of
    /// work.
    ///
    /// The trace is always finished: on an error the `view:` span is
    /// tagged with the error text, remaining open spans are closed at the
    /// failure instant, and the trace still lands in the run's record.
    fn execute(
        &self,
        spec: &QualityViewSpec,
        dataset: &DataSet,
        config: &PlanConfig,
        run: RunId,
    ) -> Result<ActionOutcome> {
        let view = self.validate(spec)?;
        let plan = planner::physical_plan(&view, &self.iq, config)?;
        qurator_telemetry::metrics()
            .counter_with("engine.execute.count", &[("path", "interpreted")])
            .inc();
        let bound = exec::bind(&plan, &self.iq, &self.registry, &self.catalog)?;
        bound.stats.set_enabled(self.stats_enabled());
        let session = TraceSession::new();
        let mut rec = session.recorder();
        let view_span = rec.start(format!("view:{}", plan.view), SpanKind::View, None);
        rec.attr(view_span, "path", "interpreted");
        rec.attr(view_span, "run_id", run.to_string());
        rec.attr(view_span, "items", dataset.len());
        rec.attr(view_span, "mode", if plan.optimized { "optimized" } else { "baseline" });

        let result = self.run_physical(&plan, &bound, dataset, &mut rec, view_span);
        let (result, decisions, rejected) = match result {
            Ok((groups, rejected, decisions)) => (Ok(groups), decisions.map(Arc::new), rejected),
            Err(e) => {
                rec.attr(view_span, "error", e.to_string());
                (Err(e), None, 0)
            }
        };
        rec.attr(view_span, "rejected", rejected as usize);
        // drain the stats before the release: long-lived allocations made
        // right after the caches are freed land in the freed heap,
        // fragment it and raise the peak RSS of later runs
        let stats = bound.stats.drain(&plan.view, Some(run), dataset.len() as u64);
        let stats = (!stats.nodes.is_empty()).then_some(stats);
        // on the error path, closes whichever node or phase span the
        // failure interrupted
        rec.end_open_except(view_span);
        // the bind owns the run's caches: freeing them is part of the run
        let release = rec.start("phase:release", SpanKind::Phase, Some(view_span));
        drop(bound);
        rec.end(release);
        rec.end_open();
        self.ledger.push(RunRecord {
            run_id: run,
            view: Arc::from(plan.view.as_str()),
            error: result.is_err(),
            rejected,
            trace: Arc::new(SpanTrace::from_spans(rec.finish())),
            stats,
            decisions,
        });
        result.map(|groups| ActionOutcome { groups })
    }

    /// The walker body: every node of the plan, in process order.
    /// Returns the action groups, how many items filter actions rejected,
    /// and the decision capture when provenance is on.
    fn run_physical(
        &self,
        plan: &PhysicalPlan,
        bound: &exec::BoundPlan,
        dataset: &DataSet,
        rec: &mut SpanRecorder,
        view_span: SpanId,
    ) -> Result<(Vec<GroupResult>, u64, Option<Decisions>)> {
        // Annotate nodes
        for (name, processor) in &bound.annotators {
            let span = rec.start(format!("node:{name}"), SpanKind::Node, Some(view_span));
            processor.annotate(dataset)?;
            rec.end(span);
        }

        // the Enrich node
        let enrich_span = rec.start(
            format!("node:{}", qurator_plan::ENRICH_NODE),
            SpanKind::Node,
            Some(view_span),
        );
        let mut map = bound.enrichment.enrich(dataset.items())?;
        rec.attr(enrich_span, "evidence_types", plan.fetch_count());
        rec.attr(enrich_span, "groups", plan.enrich.len());
        rec.end(enrich_span);

        // Assert nodes, in plan order (tags accumulate in the one map)
        let mut assert_spans: Vec<u64> = Vec::with_capacity(plan.assertions.len());
        for (assert, bound_assert) in plan.assertions.iter().zip(&bound.assertions) {
            let span =
                rec.start(format!("node:{}", bound_assert.name), SpanKind::Node, Some(view_span));
            rec.attr(span, "tag", assert.node.tag.as_str());
            bound_assert.processor.assert_quality(&mut map)?;
            rec.end(span);
            assert_spans.push(span.0);
        }

        // the Consolidate node is implicit here — the walker accumulates
        // into a single map — but it is recorded so the trace names the
        // same nodes as the compiled workflow
        let consolidate_span = rec.start(
            format!("node:{}", qurator_plan::CONSOLIDATE_NODE),
            SpanKind::Node,
            Some(view_span),
        );
        rec.attr(consolidate_span, "assertions", plan.assertions.len());
        rec.end(consolidate_span);

        // Act nodes (remembering each action's span and slice of the
        // group list so provenance can attribute memberships per action)
        let mut groups: Vec<GroupResult> = Vec::new();
        let mut acts: Vec<(u64, std::ops::Range<usize>)> = Vec::with_capacity(plan.actions.len());
        for (name, processor) in &bound.actions {
            let span = rec.start(format!("node:{name}"), SpanKind::Node, Some(view_span));
            let start = groups.len();
            groups.extend(processor.apply(dataset, &map)?);
            rec.attr(span, "groups", groups.len() - start);
            rec.end(span);
            acts.push((span.0, start..groups.len()));
        }

        // decision provenance: one columnar pass over the consolidated
        // map; traces are built from it only when a reader asks. The span
        // is recorded unconditionally — `qv explain --spans` and the
        // trace exports rely on the interpreter's trace shape
        // being identical across runs, whether or not the run captured
        // its decisions and whether or not any item survived an action;
        // the `recorded` attribute says which mode this run was in.
        let prov_span = rec.start("phase:provenance", SpanKind::Phase, Some(view_span));
        rec.attr(prov_span, "recorded", self.ledger.enabled());
        rec.attr(prov_span, "items", map.len());
        let decisions = self
            .ledger
            .enabled()
            .then(|| Decisions::capture(plan, &map, &groups, enrich_span.0, &assert_spans, &acts));
        rec.end(prov_span);

        // rejected tally for the run's record (a splitter's non-matches
        // land in its default group — an output, not a rejection)
        let mut rejected = 0u64;
        for (act, (_, range)) in plan.actions.iter().zip(&acts) {
            if matches!(act.kind, ActKind::Filter { .. }) {
                if let Some(group) = groups.get(range.start) {
                    rejected += dataset.len().saturating_sub(group.dataset.len()) as u64;
                }
            }
        }
        Ok((groups, rejected, decisions))
    }

    /// Does nothing. A run's cache repositories belong to its bind and are
    /// dropped when the run returns, so there is nothing to clear between
    /// runs. Only the `e2e_layers/` benchmark harness still calls this;
    /// the next change to that benchmark removes those calls and then this
    /// method.
    pub fn finish_execution(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::item_key;
    use crate::spec::{ActionDecl, ActionKind};
    use qurator_annotations::EvidenceValue;
    use qurator_rdf::term::Term;

    fn item(n: u32) -> Term {
        Term::iri(format!("urn:lsid:pedro.man.ac.uk:hit:H{n}"))
    }

    /// Imprint-shaped data: hitRatio/massCoverage/peptidesCount payloads.
    fn imprint_dataset() -> DataSet {
        let rows: [(u32, f64, f64, i64); 5] = [
            (1, 0.90, 45.0, 12),
            (2, 0.70, 30.0, 9),
            (3, 0.40, 22.0, 6),
            (4, 0.20, 10.0, 3),
            (5, 0.05, 4.0, 1),
        ];
        let mut ds = DataSet::new();
        for (i, hr, mc, pc) in rows {
            ds.push(
                item(i),
                [
                    ("hitRatio", EvidenceValue::from(hr)),
                    ("massCoverage", EvidenceValue::from(mc)),
                    ("peptidesCount", EvidenceValue::from(pc)),
                ],
            );
        }
        ds
    }

    #[test]
    fn paper_view_interpreted() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let spec = QualityViewSpec::paper_example();
        // the paper condition uses HR_MC > 20, but our z-score scale is
        // centred on 0; use the classifier alone
        let mut spec = spec;
        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass in q:high, q:mid and HR_MC > 0".into() };
        let outcome = engine.execute_view(&spec, &imprint_dataset()).unwrap();
        let kept = outcome.group("filter top k score").unwrap();
        assert!(!kept.dataset.is_empty());
        assert!(kept.dataset.len() < 5, "filtering must drop something");
        // survivors carry their tags in the restricted map
        let first = &kept.dataset.items()[0];
        assert!(kept.map.item(first).unwrap().tag("HR_MC").as_number().is_some());
    }

    #[test]
    fn compiled_path_agrees_with_interpreter() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass in q:high, q:mid and HR_MC > 0".into() };
        let dataset = imprint_dataset();
        let interpreted = engine.execute_view(&spec, &dataset).unwrap();
        let workflow = engine.compile(&spec).unwrap();
        let (compiled, report) = compile::enact(&workflow, &spec, &dataset).unwrap();
        assert_eq!(interpreted, compiled);
        assert!(report.events.len() >= 6);
    }

    #[test]
    fn splitter_outcome_groups() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Split {
            groups: vec![
                ("strong".into(), "ScoreClass in q:high".into()),
                ("weak".into(), "ScoreClass in q:low".into()),
            ],
        };
        let outcome = engine.execute_view(&spec, &imprint_dataset()).unwrap();
        assert_eq!(
            outcome.group_names(),
            vec![
                "filter top k score/strong",
                "filter top k score/weak",
                "filter top k score/default"
            ]
        );
        let total: usize = outcome.groups.iter().map(|g| g.dataset.len()).sum();
        // disjoint conditions here: groups + default cover the input
        assert_eq!(total, 5);
    }

    #[test]
    fn split_provenance_names_each_groups_own_condition() {
        // "not/strong" ends with "/strong": matching conditions by name
        // suffix would credit its members with the "strong" condition
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        engine.set_provenance_enabled(true);
        let conditions =
            [("strong", "ScoreClass in q:high"), ("not/strong", "ScoreClass in q:low")];
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Split {
            groups: conditions.iter().map(|&(g, c)| (g.into(), c.into())).collect(),
        };
        let outcome = engine.execute_view(&spec, &imprint_dataset()).unwrap();
        for (group, _) in conditions {
            let members = &outcome.group(&format!("filter top k score/{group}")).unwrap().dataset;
            assert!(!members.is_empty(), "{group} must have members for the check to bite");
        }
        for n in 1..=5 {
            let trace = engine.why(&format!("urn:lsid:pedro.man.ac.uk:hit:H{n}")).unwrap();
            assert!(!trace.actions.is_empty(), "H{n} lands in some group");
            for record in &trace.actions {
                let group = record.group.strip_prefix("filter top k score/").unwrap();
                let own = conditions.iter().find(|&&(g, _)| g == group).map(|&(_, c)| c);
                assert_eq!(record.condition.as_deref(), own, "H{n} in {group}");
            }
        }
    }

    #[test]
    fn unbound_concept_fails_validation() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        // a concept in the IQ model but with no service binding
        let mut iq = (**engine.iq()).clone();
        iq.register_assertion_type("Orphan").unwrap();
        let engine2 = QualityEngine::new(iq);
        let mut spec = QualityViewSpec::new("v");
        spec.assertions.push(crate::spec::AssertionDecl {
            service_name: "o".into(),
            service_type: "q:Orphan".into(),
            tag_name: "T".into(),
            tag_kind: crate::spec::TagKind::Score,
            tag_sem_type: None,
            repository_ref: "cache".into(),
            variables: vec![crate::spec::VarDecl::named("x", "q:HitRatio")],
        });
        spec.actions.push(crate::spec::ActionDecl {
            name: "a".into(),
            kind: ActionKind::Filter { condition: "T > 0".into() },
        });
        assert!(engine2.execute_view(&spec, &DataSet::new()).is_err());
    }

    #[test]
    fn check_runs_all_layers_on_the_paper_view() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let diags = engine.check(&QualityViewSpec::paper_example(), None);
        assert!(!qurator_qvlint::has_errors(&diags), "{diags:?}");
        // the only finding across lint + binding + workflow layers is the
        // paper view's dead HR tag
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["QV019"], "{diags:?}");
    }

    #[test]
    fn check_surfaces_missing_bindings_as_diagnostics() {
        let mut iq = (**QualityEngine::with_proteomics_defaults().unwrap().iq()).clone();
        iq.register_assertion_type("Orphan").unwrap();
        let engine = QualityEngine::new(iq);
        let mut spec = QualityViewSpec::new("v");
        spec.assertions.push(crate::spec::AssertionDecl {
            service_name: "o".into(),
            service_type: "q:Orphan".into(),
            tag_name: "T".into(),
            tag_kind: crate::spec::TagKind::Score,
            tag_sem_type: None,
            repository_ref: "cache".into(),
            variables: vec![crate::spec::VarDecl::named("x", "q:HitRatio")],
        });
        spec.actions.push(crate::spec::ActionDecl {
            name: "a".into(),
            kind: ActionKind::Filter { condition: "T > 0".into() },
        });
        let diags = engine.check(&spec, None);
        assert!(
            diags.iter().any(|d| d.code == "QV009"),
            "missing-service finding expected: {diags:?}"
        );
    }

    #[test]
    fn editing_conditions_between_runs_changes_outcome() {
        // the §4 point: actions are cheap to edit and re-run
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let dataset = imprint_dataset();
        let mut spec = QualityViewSpec::paper_example();

        spec.actions[0].kind = ActionKind::Filter { condition: "ScoreClass in q:high".into() };
        let strict = engine
            .execute_view(&spec, &dataset)
            .unwrap()
            .group("filter top k score")
            .unwrap()
            .dataset
            .len();

        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass in q:high, q:mid, q:low".into() };
        let lenient = engine
            .execute_view(&spec, &dataset)
            .unwrap()
            .group("filter top k score")
            .unwrap()
            .dataset
            .len();
        assert!(strict < lenient, "strict {strict} vs lenient {lenient}");
        assert_eq!(lenient, 5);
    }

    #[test]
    fn ledger_records_decision_provenance_on_interpreted_path() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        engine.set_provenance_enabled(true);
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass in q:high, q:mid and HR_MC > 0".into() };
        let outcome = engine.execute_view(&spec, &imprint_dataset()).unwrap();
        let kept = outcome.group("filter top k score").unwrap();

        for n in 1..=5 {
            let key = format!("urn:lsid:pedro.man.ac.uk:hit:H{n}");
            let trace = engine.why(&key).expect("trace for every input item");
            assert!(!trace.evidence.is_empty(), "evidence recorded for {key}");
            assert!(
                trace.evidence.iter().any(|e| e.property.as_ref() == "HitRatio"),
                "hit ratio evidence fetched for {key}"
            );
            assert!(
                trace.assertions.iter().any(|a| a.property.as_ref() == "ScoreClass"),
                "classifier tag recorded for {key}"
            );
            let accepted = kept.dataset.items().iter().any(|it| item_key(it) == key);
            let action = trace
                .actions
                .iter()
                .find(|a| a.group.as_ref() == "filter top k score")
                .expect("action recorded");
            assert_eq!(action.outcome.as_ref(), if accepted { "accepted" } else { "rejected" });
            assert!(action.condition.as_deref().unwrap().contains("ScoreClass"));
        }

        // short-suffix lookup resolves the same traces
        assert_eq!(engine.explain_item("H3").len(), 1);
        // the interpreter leaves a well-formed span trace behind
        let trace = engine.last_trace().expect("trace recorded");
        trace.validate().expect("interpreter span tree is well-formed");
        assert!(trace.roots().any(|s| s.name.starts_with("view:")));
        assert_eq!(release_spans(&trace).len(), 1, "the bind is freed inside the view span");
    }

    /// The `phase:release` children of the trace's view span.
    fn release_spans(trace: &SpanTrace) -> Vec<&qurator_telemetry::Span> {
        let root = trace.roots().next().expect("view span");
        trace.children(root.id).into_iter().filter(|s| s.name == "phase:release").collect()
    }

    #[test]
    fn provenance_span_is_recorded_even_without_ledger_or_survivors() {
        use qurator_telemetry::AttrValue;
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        // ledger disabled AND a condition no item satisfies: the
        // interpreted trace must still carry the phase:provenance span
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Filter { condition: "HR_MC > 1000000".into() };
        let outcome = engine.execute_view(&spec, &imprint_dataset()).unwrap();
        assert!(outcome.group("filter top k score").unwrap().dataset.is_empty());
        let trace = engine.last_trace().unwrap();
        trace.validate().unwrap();
        let prov = trace
            .spans()
            .iter()
            .find(|s| s.name == "phase:provenance")
            .expect("provenance span recorded with the ledger off");
        assert_eq!(prov.attr("recorded"), Some(&AttrValue::Bool(false)));

        // ledger on: same shape, and rejected-everywhere items still get
        // their action records
        engine.set_provenance_enabled(true);
        engine.execute_view(&spec, &imprint_dataset()).unwrap();
        let trace = engine.last_trace().unwrap();
        let prov = trace.spans().iter().find(|s| s.name == "phase:provenance").unwrap();
        assert_eq!(prov.attr("recorded"), Some(&AttrValue::Bool(true)));
        for n in 1..=5 {
            let why = engine.why(&format!("urn:lsid:pedro.man.ac.uk:hit:H{n}")).unwrap();
            assert!(
                why.actions.iter().any(|a| a.outcome.as_ref() == "rejected"),
                "item H{n} should carry a rejected action record"
            );
        }
    }

    #[test]
    fn budget_evicted_decisions_leave_a_run_its_stats() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        engine.set_provenance_enabled(true);
        engine.ledger().set_trace_capacity(5);
        let spec = QualityViewSpec::paper_example();
        let (first, second) = (RunId::mint(), RunId::mint());
        engine.execute_view_run(&spec, &imprint_dataset(), first).unwrap();
        assert_eq!(engine.ledger().record(first).unwrap().decision_traces().len(), 5);
        engine.execute_view_run(&spec, &imprint_dataset(), second).unwrap();
        assert!(
            engine.ledger().record(first).unwrap().decision_traces().is_empty(),
            "the budget holds one run"
        );
        assert_eq!(engine.run_stats(first).unwrap().run_id, Some(first));
        assert_eq!(engine.ledger().record(second).unwrap().decision_traces().len(), 5);
    }

    #[test]
    fn check_anchors_a_bad_persistent_repository_name_at_its_attribute() {
        let xml = include_str!("../../../samples/persistent_archive.xml")
            .replace("repositoryRef=\"archive\"", "repositoryRef=\"../escaped\"");
        let (spec, root) = crate::xmlio::parse_quality_view_with_source(&xml).unwrap();
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let diags = engine.check(&spec, Some(&root));
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["QV027"], "{diags:?}");
        let span = diags[0].span.expect("anchored");
        assert_eq!((span.line, span.col), (4, 31), "at the annotator's repositoryRef");
        // running the view is still refused, as the view's fault
        let err = engine.execute_view(&spec, &imprint_dataset()).unwrap_err();
        assert!(matches!(err, QuratorError::Execution(_)), "{err}");
    }

    #[test]
    fn rejecting_runs_are_always_retained() {
        // every run keeps its trace in its record, whether it rejected
        // anything or not
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Filter { condition: "ScoreClass in q:high".into() };
        let rejecting = RunId::mint();
        engine.execute_view_run(&spec, &imprint_dataset(), rejecting).unwrap();
        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass in q:high, q:mid, q:low".into() };
        let keeping = RunId::mint();
        engine.execute_view_run(&spec, &imprint_dataset(), keeping).unwrap();

        let kept = engine.ledger().record(rejecting).unwrap();
        assert!(kept.rejected > 0);
        assert!(!kept.error);
        assert_eq!(kept.view.as_ref(), "ispider-pmf-quality");
        kept.trace.validate().unwrap();
        assert_eq!(engine.ledger().record(keeping).unwrap().rejected, 0);
        assert!(Arc::ptr_eq(
            &engine.last_trace().unwrap(),
            &engine.ledger().trace(keeping).unwrap()
        ));
    }

    struct FailingAssertion;
    impl qurator_services::AssertionService for FailingAssertion {
        fn service_type(&self) -> qurator_rdf::term::Iri {
            q::iri("FailingQA")
        }
        fn expected_variables(&self) -> Vec<String> {
            vec!["x".into()]
        }
        fn assert_quality(
            &self,
            _map: &mut qurator_annotations::AnnotationMap,
            _bindings: &qurator_services::VariableBindings,
            _tag: &str,
        ) -> qurator_services::Result<()> {
            Err(qurator_services::ServiceError::Internal("injected failure".into()))
        }
    }

    #[test]
    fn failed_execution_leaves_a_closed_error_trace_and_is_retained() {
        let mut iq = IqModel::with_proteomics_extension().unwrap();
        iq.register_assertion_type("FailingQA").unwrap();
        let engine = QualityEngine::new(iq);
        engine.register_assertion_service(Arc::new(FailingAssertion)).unwrap();
        let mut spec = QualityViewSpec::new("doomed");
        spec.assertions.push(crate::spec::AssertionDecl {
            service_name: "failing".into(),
            service_type: "q:FailingQA".into(),
            tag_name: "T".into(),
            tag_kind: crate::spec::TagKind::Score,
            tag_sem_type: None,
            repository_ref: "cache".into(),
            variables: vec![crate::spec::VarDecl::named("x", "q:HitRatio")],
        });
        spec.actions.push(ActionDecl {
            name: "keep".into(),
            kind: ActionKind::Filter { condition: "T > 0".into() },
        });
        let run = RunId::mint();
        let err = engine.execute_view_run(&spec, &imprint_dataset(), run).unwrap_err();
        assert!(err.to_string().contains("injected failure"), "{err}");
        // the interrupted trace is closed, tagged, and kept in the run's
        // record
        let record = engine.ledger().record(run).expect("the failed run leaves a record");
        assert!(record.error);
        let trace = record.trace;
        trace.validate().expect("every span closed on the error path");
        let root = trace.roots().next().unwrap();
        assert!(root.attr("error").is_some(), "view span carries the error");
        // the failed node's span closes before the bind is released
        let release = release_spans(&trace);
        assert_eq!(release.len(), 1, "the failed run still frees its bind in a span");
        let failed = trace.spans().iter().find(|s| s.name == "node:failing").unwrap();
        assert!(failed.end_ns.unwrap() <= release[0].start_ns);
    }

    #[test]
    fn bindings_are_recorded() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let bindings = engine.bindings();
        assert_eq!(bindings.len(), 4); // 1 annotator + 3 QAs
        assert!(bindings
            .iter()
            .all(|b| b.resource.kind == qurator_ontology::binding::ResourceKind::Service));
    }
}
