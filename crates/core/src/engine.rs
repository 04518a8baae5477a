//! The top-level quality engine: IQ model + service registry + repository
//! catalog + binding registry, with one executor.
//!
//! [`QualityEngine::execute_view`] interprets the abstract quality process
//! in-process (the "rapid prototyping" loop the paper motivates — edit
//! conditions, re-run, observe): validate, plan, bind, then walk the bound
//! plan node by node, recording spans, observed stats and decision
//! provenance in-line. `execute_view_with` selects a
//! [`qurator_plan::PlanConfig`] (the unoptimized baseline) and
//! `execute_view_run` takes a caller-minted [`RunId`].
//!
//! [`QualityEngine::compile`] lowers the same plan into a workflow — the
//! paper's §6 deployment artifact for embedding into host workflows
//! ([`crate::deploy`]); [`crate::compile::enact`] runs it standalone.
//! [`QualityEngine::plan_with`] exposes the plan itself (the `qv plan`
//! EXPLAIN surface).

use crate::compile;
use crate::operators::GroupResult;
use crate::spec::QualityViewSpec;
use crate::validate::{self, ValidatedView};
use crate::{exec, planner, QuratorError, Result};
use parking_lot::RwLock;
use qurator_annotations::catalog::STATS_DIR;
use qurator_annotations::RepositoryCatalog;
use qurator_ontology::binding::BindingRegistry;
use qurator_ontology::IqModel;
use qurator_plan::{ActKind, LogicalPlan, PhysicalPlan, PlanConfig};
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;
use qurator_services::stdlib::{FieldCaptureAnnotator, StatClassifierAssertion, ZScoreAssertion};
use qurator_services::{AnnotationService, AssertionService, DataSet, ServiceRegistry};
use qurator_telemetry::span::{SpanId, SpanKind, SpanRecorder, SpanTrace, TraceSession};
use qurator_telemetry::stats::{profile_file_name, view_key, RunStats, StatsProfile};
use qurator_telemetry::{
    ActionRecord, AssertionRecord, DecisionLedger, DecisionTrace, EvidenceRecord, LedgerEvent,
    LedgerValue, RunId, TelemetryConfig, TraceMeta, TraceRetainer,
};
use qurator_workflow::Workflow;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How many recent per-run stats the engine keeps for `/runs/<id>` joins.
const RUN_STATS_CAPACITY: usize = 256;

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

/// Correlation context for one finished execution: the [`RunId`] minted
/// at the entry point (a served request, a CLI invocation) plus the
/// outcome facts the retainer's tail-sampling policy keys on. Built by
/// the executor once a run finishes and handed to the observability
/// sink so the retained trace, the ledger slice and any drift crossing
/// all reference the same id.
#[derive(Debug, Clone)]
struct RunContext {
    run_id: RunId,
    view: String,
    error: bool,
    rejected: u64,
}

/// The engine.
pub struct QualityEngine {
    iq: Arc<IqModel>,
    registry: Arc<ServiceRegistry>,
    catalog: Arc<RepositoryCatalog>,
    bindings: RwLock<BindingRegistry>,
    ledger: Arc<DecisionLedger>,
    last_trace: RwLock<Option<SpanTrace>>,
    /// Continuous-observability retention (None until
    /// [`QualityEngine::enable_observability`]).
    retainer: RwLock<Option<Arc<TraceRetainer>>>,
    /// This engine's cursor into the global drift monitor's event log.
    drift_cursor: RwLock<Option<u64>>,
    /// Observed-statistics collection switch (on by default; the
    /// paired-delta bench flips it off to price collection itself).
    stats_enabled: AtomicBool,
    /// Recent per-run observed statistics, newest last (bounded ring for
    /// `/runs/<id>` correlation joins).
    run_stats: RwLock<VecDeque<RunStats>>,
    /// Per-view decayed stats profiles, persisted under
    /// `<store root>/stats/` when a store root is set.
    stats_profiles: RwLock<BTreeMap<String, StatsProfile>>,
}

impl QualityEngine {
    /// Builds an engine over an IQ model with empty registry and catalog.
    pub fn new(iq: IqModel) -> Self {
        let iq = Arc::new(iq);
        QualityEngine {
            catalog: Arc::new(RepositoryCatalog::new(iq.clone())),
            registry: Arc::new(ServiceRegistry::new()),
            bindings: RwLock::new(BindingRegistry::new()),
            ledger: Arc::new(DecisionLedger::new()),
            last_trace: RwLock::new(None),
            retainer: RwLock::new(None),
            drift_cursor: RwLock::new(None),
            stats_enabled: AtomicBool::new(true),
            run_stats: RwLock::new(VecDeque::new()),
            stats_profiles: RwLock::new(BTreeMap::new()),
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
        self.run_stats.read().back().cloned()
    }

    /// Observed statistics of a specific run still in the bounded ring.
    pub fn run_stats(&self, run: RunId) -> Option<RunStats> {
        self.run_stats.read().iter().rev().find(|s| s.run_id == Some(run)).cloned()
    }

    /// The decayed stats profile of a view: the in-memory aggregate when
    /// this engine has executed the view, else (when a store root is set)
    /// whatever a previous process persisted under `<root>/stats/`.
    pub fn stats_profile(&self, view: &str) -> Option<StatsProfile> {
        if let Some(profile) = self.stats_profiles.read().get(view).cloned() {
            return Some(profile);
        }
        let root = self.catalog.store_root()?;
        StatsProfile::load(&root.join(STATS_DIR).join(profile_file_name(view))).ok()
    }

    /// Writes every in-memory stats profile under `dir` (one JSON file
    /// per view). Returns the paths written.
    pub fn save_stats_profiles(&self, dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>> {
        let mut written = Vec::new();
        for (view, profile) in self.stats_profiles.read().iter() {
            let path = dir.join(profile_file_name(view));
            profile.save(&path).map_err(|e| {
                QuratorError::Execution(format!("writing stats profile {}: {e}", path.display()))
            })?;
            written.push(path);
        }
        Ok(written)
    }

    /// Folds one run's drained statistics into the ring and the view's
    /// decayed profile (persisting the profile when a store root is set).
    fn note_run_stats(&self, stats: RunStats) {
        if stats.nodes.is_empty() {
            return;
        }
        {
            let mut profiles = self.stats_profiles.write();
            let profile = profiles.entry(stats.view.clone()).or_insert_with(|| {
                let key = view_key(&stats.view, stats.nodes.keys().map(|s| s.as_str()));
                // continue a persisted profile's decay across restarts
                // (but only when the node set still matches — an edited
                // view starts a fresh profile under its new key)
                self.catalog
                    .store_root()
                    .and_then(|root| {
                        StatsProfile::load(
                            &root.join(STATS_DIR).join(profile_file_name(&stats.view)),
                        )
                        .ok()
                    })
                    .filter(|persisted| persisted.key == key)
                    .unwrap_or_else(|| StatsProfile::new(stats.view.clone(), key))
            });
            profile.observe(&stats);
            if let Some(root) = self.catalog.store_root() {
                // best-effort persistence: a read-only store directory
                // must not fail the run itself
                let _ = profile.save(&root.join(STATS_DIR).join(profile_file_name(&stats.view)));
            }
        }
        let mut ring = self.run_stats.write();
        if ring.len() >= RUN_STATS_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(stats);
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

    /// The per-item decision-provenance ledger. Disabled by default;
    /// enable with [`QualityEngine::set_provenance_enabled`] before an
    /// execution to capture evidence/assertion/action records.
    pub fn ledger(&self) -> &Arc<DecisionLedger> {
        &self.ledger
    }

    /// Turns decision-provenance recording on or off.
    pub fn set_provenance_enabled(&self, enabled: bool) {
        self.ledger.set_enabled(enabled);
    }

    /// The full decision trace for an item (exact id match), if the
    /// ledger recorded one: evidence fetched, quality tags assigned,
    /// actions taken.
    pub fn why(&self, item: &str) -> Option<DecisionTrace> {
        self.ledger.why(item)
    }

    /// Decision traces whose item id equals or ends with `needle`
    /// (convenient for short ids like `H3`).
    pub fn explain_item(&self, needle: &str) -> Vec<DecisionTrace> {
        self.ledger.find(needle)
    }

    /// The span trace of the most recent execution on this engine, if
    /// any.
    pub fn last_trace(&self) -> Option<SpanTrace> {
        self.last_trace.read().clone()
    }

    /// Switches the engine into continuous-observability mode: every
    /// finished execution's trace is offered to a bounded, tail-sampled
    /// [`TraceRetainer`], and the process-global drift monitor is
    /// configured from `config.drift` (the QA operator path feeds it and
    /// threshold crossings are republished into this engine's ledger).
    /// Returns the retainer so hosts (`qv serve`) can export
    /// `/traces/recent`.
    pub fn enable_observability(&self, config: &TelemetryConfig) -> Arc<TraceRetainer> {
        let retainer = Arc::new(TraceRetainer::new(config));
        *self.retainer.write() = Some(retainer.clone());
        qurator_telemetry::drift::global().configure(config.drift.clone());
        retainer
    }

    /// The active trace retainer, if observability is enabled.
    pub fn retainer(&self) -> Option<Arc<TraceRetainer>> {
        self.retainer.read().clone()
    }

    /// Hands a finished trace to the retainer (when observability is
    /// on), republishes new drift crossings into the ledger, and stores
    /// the trace as `last_trace`. Everything downstream of here carries
    /// the context's run id.
    fn observe_trace(&self, trace: SpanTrace, ctx: RunContext) {
        if let Some(retainer) = self.retainer.read().clone() {
            retainer.offer(
                trace.clone(),
                TraceMeta {
                    view: ctx.view,
                    run_id: ctx.run_id,
                    error: ctx.error,
                    rejected: ctx.rejected,
                },
            );
        }
        self.publish_drift_events(ctx.run_id);
        *self.last_trace.write() = Some(trace);
    }

    /// Republishes drift threshold-crossings from the process-global
    /// monitor into this engine's ledger, stamped with the run that
    /// tripped them. Each engine keeps its own cursor: the monitor's
    /// event log has broadcast semantics, so several engines (or tests)
    /// consume it independently.
    fn publish_drift_events(&self, run: RunId) {
        let monitor = qurator_telemetry::drift::global();
        if !monitor.enabled() {
            return;
        }
        let mut cursor = self.drift_cursor.write();
        for event in monitor.events_since(*cursor) {
            *cursor = Some(event.seq);
            self.ledger.record_event(LedgerEvent {
                kind: Arc::from("qa.drift.threshold"),
                subject: Arc::from(event.assertion.as_str()),
                detail: format!(
                    "classification distribution drifted from reference: L1={:.3}, chi2={:.1}",
                    event.l1, event.chi2
                ),
                seq: event.seq,
                run_id: Some(run),
            });
        }
    }

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

    /// The physical plan lowered with the view's observed stats profile
    /// (when one exists — in memory or persisted under the store root):
    /// the `stats-profile` pass installs the decayed cardinalities as
    /// [`PhysicalPlan::observed_rows`], the cost-model input. Without a
    /// profile this is identical to [`QualityEngine::plan_with`].
    pub fn plan_with_stats(
        &self,
        spec: &QualityViewSpec,
        config: &PlanConfig,
    ) -> Result<PhysicalPlan> {
        let view = self.validate(spec)?;
        let logical = planner::logical_plan(&view, &self.iq);
        let profile = self.stats_profile(&spec.name);
        qurator_plan::lower_with_profile(&logical, config, profile.as_ref())
            .map_err(|e| QuratorError::Compile(e.to_string()))
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

    /// Direct interpretation under a caller-minted run id: the root
    /// `view:` span, the retained trace, the ledger's decision traces and
    /// any drift crossing this run trips all carry `run`.
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
    /// failure instant, and the trace still reaches the retainer (error
    /// traces are always kept) and `last_trace`.
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

        let result = self.run_physical(&plan, &bound, dataset, &mut rec, view_span, run);
        let (error, rejected) = match &result {
            Ok((_, rejected)) => (false, *rejected),
            Err(e) => {
                rec.attr(view_span, "error", e.to_string());
                (true, 0)
            }
        };
        rec.attr(view_span, "rejected", rejected as usize);
        // fold the stats before the release: long-lived allocations made
        // right after the caches are freed land in the freed heap,
        // fragment it and raise the peak RSS of later runs
        self.note_run_stats(bound.stats.drain(&plan.view, Some(run), dataset.len() as u64));
        // on the error path, closes whichever node or phase span the
        // failure interrupted
        rec.end_open_except(view_span);
        // the bind owns the run's caches: freeing them is part of the run
        let release = rec.start("phase:release", SpanKind::Phase, Some(view_span));
        drop(bound);
        rec.end(release);
        rec.end_open();
        let trace = SpanTrace::from_spans(rec.finish());
        self.observe_trace(
            trace,
            RunContext { run_id: run, view: plan.view.clone(), error, rejected },
        );
        result.map(|(groups, _)| ActionOutcome { groups })
    }

    /// The walker body: every node of the plan, in process order.
    /// Returns the action groups plus how many items filter actions
    /// rejected (a splitter's non-matches land in its default group — an
    /// output, not a rejection).
    fn run_physical(
        &self,
        plan: &PhysicalPlan,
        bound: &exec::BoundPlan,
        dataset: &DataSet,
        rec: &mut SpanRecorder,
        view_span: SpanId,
        run: RunId,
    ) -> Result<(Vec<GroupResult>, u64)> {
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
        let mut tag_meta: Vec<(&str, &str, u64)> = Vec::with_capacity(plan.assertions.len());
        for (assert, bound_assert) in plan.assertions.iter().zip(&bound.assertions) {
            let span =
                rec.start(format!("node:{}", bound_assert.name), SpanKind::Node, Some(view_span));
            rec.attr(span, "tag", assert.node.tag.as_str());
            bound_assert.processor.assert_quality(&mut map)?;
            rec.end(span);
            tag_meta.push((&assert.node.tag, &bound_assert.name, span.0));
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

        // Act nodes (remembering each action's slice of the group list
        // so provenance can attribute memberships per action)
        let mut groups: Vec<GroupResult> = Vec::new();
        let mut action_slices: Vec<(usize, usize)> = Vec::with_capacity(plan.actions.len());
        let mut action_spans: Vec<u64> = Vec::with_capacity(plan.actions.len());
        for (name, processor) in &bound.actions {
            let span = rec.start(format!("node:{name}"), SpanKind::Node, Some(view_span));
            let start = groups.len();
            groups.extend(processor.apply(dataset, &map)?);
            action_slices.push((start, groups.len()));
            rec.attr(span, "groups", groups.len() - start);
            rec.end(span);
            action_spans.push(span.0);
        }

        // decision provenance: one pass over the consolidated map, one
        // complete trace per item (no per-phase re-keying). The span is
        // recorded unconditionally — `qv explain --spans` and the
        // retained-trace exports rely on the interpreter's trace shape
        // being identical across runs, whether or not the ledger captured
        // records and whether or not any item survived an action; the
        // `recorded` attribute says which mode this run was in.
        let prov_span = rec.start("phase:provenance", SpanKind::Phase, Some(view_span));
        rec.attr(prov_span, "recorded", self.ledger.enabled());
        rec.attr(prov_span, "items", map.len());
        if self.ledger.enabled() {
            // intern every per-run-constant name once; per item only the
            // rendered values and the item key allocate
            let sources: BTreeMap<&str, (Arc<str>, Option<Arc<str>>)> = plan
                .enrich
                .iter()
                .flat_map(|group| {
                    group.evidence.iter().map(|e| {
                        (
                            e.local_name(),
                            (Arc::from(e.local_name()), Some(Arc::from(group.repository.as_str()))),
                        )
                    })
                })
                .collect();
            type InternedTag<'a> = (&'a str, Arc<str>, Option<Arc<str>>, u64);
            let tags: Vec<InternedTag> = tag_meta
                .iter()
                .map(|&(tag, service, span)| (tag, Arc::from(tag), Some(Arc::from(service)), span))
                .collect();
            let accepted: Arc<str> = Arc::from("accepted");
            let rejected: Arc<str> = Arc::from("rejected");
            enum ActionPlan {
                Filter { group: Arc<str>, condition: Option<Arc<str>>, members: usize, span: u64 },
                Split { targets: Vec<(Arc<str>, Option<Arc<str>>, usize)>, span: u64 },
            }
            // per-group membership sets, borrowed from the group datasets
            let memberships: Vec<HashSet<&Term>> =
                groups.iter().map(|g| g.dataset.items().iter().collect()).collect();
            let plans: Vec<ActionPlan> = plan
                .actions
                .iter()
                .zip(&action_slices)
                .zip(&action_spans)
                .map(|((act, &(start, end)), &span)| match &act.kind {
                    ActKind::Filter { condition } => ActionPlan::Filter {
                        group: Arc::from(act.name.as_str()),
                        condition: Some(Arc::from(condition.as_str())),
                        members: start,
                        span,
                    },
                    // the groups in start..end follow the plan's conditions
                    // in order; the trailing default group has none (group
                    // names may contain '/', so they cannot be matched)
                    ActKind::Split { groups: conditions } => ActionPlan::Split {
                        targets: (start..end)
                            .map(|i| {
                                let condition =
                                    conditions.get(i - start).map(|(_, c)| Arc::from(c.as_str()));
                                (Arc::from(groups[i].name.as_str()), condition, i)
                            })
                            .collect(),
                        span,
                    },
                })
                .collect();
            let mut batch = Vec::with_capacity(map.len());
            let mut interned: HashMap<&str, Arc<str>> = HashMap::new();
            for (term, row) in map.rows() {
                let mut trace = DecisionTrace::new(item_key(term));
                trace.run_id = Some(run);
                trace.evidence = row
                    .evidence_entries()
                    .map(|(property, value)| {
                        let (property, source) = sources
                            .get(property.local_name())
                            .cloned()
                            .unwrap_or_else(|| (Arc::from(property.local_name()), None));
                        EvidenceRecord {
                            property,
                            value: capture_value(&mut interned, value),
                            source,
                            span: Some(enrich_span.0),
                        }
                    })
                    .collect();
                trace.assertions = tags
                    .iter()
                    .filter_map(|(tag, property, assertion, span)| {
                        let value = row.tag_ref(tag).filter(|v| !v.is_null())?;
                        Some(AssertionRecord {
                            property: property.clone(),
                            value: capture_value(&mut interned, value),
                            assertion: assertion.clone(),
                            span: Some(*span),
                        })
                    })
                    .collect();
                for action_plan in &plans {
                    match action_plan {
                        ActionPlan::Filter { group, condition, members, span } => {
                            let is_member =
                                memberships.get(*members).is_some_and(|m| m.contains(term));
                            trace.actions.push(ActionRecord {
                                group: group.clone(),
                                outcome: if is_member {
                                    accepted.clone()
                                } else {
                                    rejected.clone()
                                },
                                condition: condition.clone(),
                                span: Some(*span),
                            });
                        }
                        ActionPlan::Split { targets, span } => {
                            for (group, condition, index) in targets {
                                if !memberships[*index].contains(term) {
                                    continue;
                                }
                                trace.actions.push(ActionRecord {
                                    group: group.clone(),
                                    outcome: accepted.clone(),
                                    condition: condition.clone(),
                                    span: Some(*span),
                                });
                            }
                        }
                    }
                }
                batch.push(trace);
            }
            self.ledger.record_traces_bulk(batch);
        }
        rec.end(prov_span);

        // rejected tally for the retainer's tail-sampling policy
        let mut rejected = 0u64;
        for (act, &(start, _)) in plan.actions.iter().zip(&action_slices) {
            if matches!(act.kind, ActKind::Filter { .. }) {
                if let Some(group) = groups.get(start) {
                    rejected += dataset.len().saturating_sub(group.dataset.len()) as u64;
                }
            }
        }
        Ok((groups, rejected))
    }

    /// Does nothing. A run's cache repositories belong to its bind and are
    /// dropped when the run returns, so there is nothing to clear between
    /// runs. Only the `e2e_layers/` benchmark harness still calls this;
    /// the next change to that benchmark removes those calls and then this
    /// method.
    pub fn finish_execution(&self) {}
}

/// Ledger key for an item: the bare IRI when the term is one, else its
/// display form.
fn item_key(term: &Term) -> String {
    term.as_iri().map(|i| i.as_str().to_string()).unwrap_or_else(|| term.to_string())
}

/// One string interned per distinct value per run — classification
/// labels and repeated text pay one allocation instead of one per
/// record.
fn intern<'a>(cache: &mut HashMap<&'a str, Arc<str>>, s: &'a str) -> Arc<str> {
    if let Some(shared) = cache.get(s) {
        return shared.clone();
    }
    let shared: Arc<str> = Arc::from(s);
    cache.insert(s, shared.clone());
    shared
}

/// Converts an [`EvidenceValue`] into its captured ledger form without
/// rendering it: numbers and booleans copy, strings intern through
/// `cache`. Provenance capture sits on the serve hot path, so this
/// keeps the formatting machinery out of it (see
/// [`qurator_telemetry::LedgerValue`]).
fn capture_value<'a>(
    cache: &mut HashMap<&'a str, Arc<str>>,
    value: &'a qurator_annotations::EvidenceValue,
) -> LedgerValue {
    use qurator_annotations::EvidenceValue;
    match value {
        EvidenceValue::Number(n) => LedgerValue::Num(*n),
        EvidenceValue::Text(s) => LedgerValue::Text(intern(cache, s)),
        EvidenceValue::Bool(b) => LedgerValue::Bool(*b),
        EvidenceValue::Class(c) => LedgerValue::Raw(intern(cache, c.local_name())),
        EvidenceValue::Null => LedgerValue::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ActionDecl, ActionKind};
    use qurator_annotations::EvidenceValue;

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
    fn rejecting_runs_are_always_retained() {
        use qurator_telemetry::KeepReason;
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let retainer = engine.enable_observability(&TelemetryConfig {
            sample_rate: 0.0,
            ..TelemetryConfig::default()
        });
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Filter { condition: "ScoreClass in q:high".into() };
        engine.execute_view(&spec, &imprint_dataset()).unwrap();
        assert_eq!(retainer.resident(), 1);
        let kept = &retainer.recent(1)[0];
        assert_eq!(kept.reason, KeepReason::Rejected);
        assert!(kept.rejected > 0);
        assert_eq!(kept.view, "ispider-pmf-quality");
        kept.trace.validate().unwrap();
        // a run that rejects nothing is dropped at sample_rate 0
        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass in q:high, q:mid, q:low".into() };
        engine.execute_view(&spec, &imprint_dataset()).unwrap();
        assert_eq!(retainer.resident(), 1);
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
        let retainer = engine.enable_observability(&TelemetryConfig {
            sample_rate: 0.0,
            ..TelemetryConfig::default()
        });
        let err = engine.execute_view(&spec, &imprint_dataset()).unwrap_err();
        assert!(err.to_string().contains("injected failure"), "{err}");
        // the interrupted trace is closed, tagged, and always retained
        let trace = engine.last_trace().expect("trace survives the failure");
        trace.validate().expect("every span closed on the error path");
        let root = trace.roots().next().unwrap();
        assert!(root.attr("error").is_some(), "view span carries the error");
        // the failed node's span closes before the bind is released
        let release = release_spans(&trace);
        assert_eq!(release.len(), 1, "the failed run still frees its bind in a span");
        let failed = trace.spans().iter().find(|s| s.name == "node:failing").unwrap();
        assert!(failed.end_ns.unwrap() <= release[0].start_ns);
        assert_eq!(retainer.resident(), 1);
        assert_eq!(retainer.recent(1)[0].reason, qurator_telemetry::KeepReason::Error);
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
