//! The abstract quality operators (§4.1) as workflow processors.
//!
//! * [`AnnotatorProcessor`] — the Annotation operator: computes evidence
//!   for the incoming data set and writes it to its repository; produces a
//!   completion token only (annotators "only write to a repository");
//! * [`DataEnrichmentProcessor`] — the single Data-Enrichment operator the
//!   compiler configures with an evidence-type → repository association;
//! * [`AssertionProcessor`] — a QA: augments the annotation map with a tag;
//! * [`ConsolidateProcessor`] — the `ConsolidateAssertions` task "added by
//!   the compiler to produce a consistent view of multiple assertions";
//! * [`ActionProcessor`] — condition/action pairs: filter and splitter.
//!   Conditions are re-parsed from source at execution time so users can
//!   edit them between runs without recompiling the view (§4).

use crate::convert;
use crate::{QuratorError, Result};
use parking_lot::Mutex;
use qurator_annotations::{AnnotationError, AnnotationMap, AnnotationRepository, EvidenceValue};
use qurator_expr::{Env, Expr, Value};
use qurator_ontology::IqModel;
use qurator_rdf::term::{Iri, Term};
use qurator_services::{
    AnnotationService, AssertionService, DataSet, ServiceError, VariableBindings,
};
use qurator_telemetry::stats::{NodeStats, StatsCollector};
use qurator_telemetry::{Counter, Histogram};
use qurator_workflow::{Context, Data, Processor, WorkflowError};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

type Inputs = BTreeMap<String, Data>;
type Outputs = BTreeMap<String, Data>;

fn enrich_op_items() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| qurator_telemetry::metrics().counter("enrich.op.items"))
}

fn enrich_op_latency() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("enrich.op.latency_ns"))
}

fn exec_err(processor: &str, message: impl Into<String>) -> WorkflowError {
    WorkflowError::Execution { processor: processor.to_string(), message: message.into() }
}

fn wf_result<T>(processor: &str, r: Result<T>) -> std::result::Result<T, WorkflowError> {
    r.map_err(|e| exec_err(processor, e.to_string()))
}

/// The Annotation operator.
pub struct AnnotatorProcessor {
    name: String,
    service: Arc<dyn AnnotationService>,
    repository: Arc<AnnotationRepository>,
    stats: Option<Arc<StatsCollector>>,
}

impl AnnotatorProcessor {
    /// Wraps an annotation service writing to a repository.
    pub fn new(
        name: impl Into<String>,
        service: Arc<dyn AnnotationService>,
        repository: Arc<AnnotationRepository>,
    ) -> Self {
        AnnotatorProcessor { name: name.into(), service, repository, stats: None }
    }

    /// Attaches the shared observed-statistics sink.
    pub fn with_stats(mut self, stats: Arc<StatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Runs the annotation directly (shared with the interpreter path):
    /// computes evidence for the data set, writes it to the repository,
    /// returns the number of annotations written.
    pub fn annotate(&self, dataset: &DataSet) -> Result<usize> {
        let started = Instant::now();
        let written = self.service.annotate(dataset, &self.repository).map_err(|e| match e {
            ServiceError::Annotation(AnnotationError::Rdf(_)) => {
                QuratorError::Storage(e.to_string())
            }
            _ => QuratorError::Execution(e.to_string()),
        })?;
        if let Some(stats) = &self.stats {
            stats.record(
                &self.name,
                NodeStats {
                    calls: 1,
                    rows_in: dataset.len() as u64,
                    rows_out: dataset.len() as u64,
                    evidence: written as u64,
                    hits: 0,
                    wall_ns: started.elapsed().as_nanos() as u64,
                },
            );
        }
        Ok(written)
    }
}

impl Processor for AnnotatorProcessor {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        vec![("dataset".to_string(), 0)]
    }

    fn output_ports(&self) -> Vec<String> {
        vec!["done".to_string()]
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let dataset_data =
            inputs.get("dataset").ok_or_else(|| exec_err(&self.name, "missing dataset"))?;
        let dataset = convert::data_to_dataset(dataset_data)
            .map_err(|e| exec_err(&self.name, e.to_string()))?;
        let written = wf_result(&self.name, self.annotate(&dataset))?;
        Ok(BTreeMap::from([("done".to_string(), Data::Number(written as f64))]))
    }
}

/// The Data-Enrichment operator.
pub struct DataEnrichmentProcessor {
    name: String,
    /// The compiler-computed association of §6.1, grouped by repository:
    /// each repository with the evidence types read from it, answered by
    /// one bulk lookup per group.
    groups: Vec<(Arc<AnnotationRepository>, Vec<Iri>)>,
    /// Fan enrichment out over scoped threads (repository groups × item
    /// chunks). On by default; disable for the E5 sequential ablation.
    parallel: bool,
    stats: Option<Arc<StatsCollector>>,
}

/// Floor on items per parallel enrichment chunk: below this a chunk is not
/// worth a thread, so small batches run on the calling thread.
const PARALLEL_CHUNK_MIN: usize = 4096;

impl DataEnrichmentProcessor {
    /// Builds the operator from its repository groups, run as given and
    /// merged in order (later groups win conflicting entries).
    pub fn new(
        name: impl Into<String>,
        groups: Vec<(Arc<AnnotationRepository>, Vec<Iri>)>,
    ) -> Self {
        DataEnrichmentProcessor { name: name.into(), groups, parallel: true, stats: None }
    }

    /// Switches parallel fan-out on or off.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches the shared observed-statistics sink.
    pub fn with_stats(mut self, stats: Arc<StatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The repository groups this operator answers with one bulk lookup
    /// each: `(repository name, evidence types)`, in run order.
    pub fn fetch_groups(&self) -> Vec<(String, Vec<Iri>)> {
        self.groups
            .iter()
            .map(|(repository, types)| (repository.name().to_string(), types.clone()))
            .collect()
    }

    /// Runs the enrichment directly (shared with the interpreter path).
    ///
    /// Each repository group is answered by one bulk lookup
    /// ([`AnnotationRepository::enrich_bulk`]: one read lock, one index
    /// scan) instead of a SPARQL query per `(item, type)` pair. With
    /// `parallel` on, repository groups and large item chunks run on scoped
    /// threads; results merge in deterministic plan order, so parallel and
    /// sequential runs produce identical maps.
    pub fn enrich(&self, items: &[Term]) -> Result<AnnotationMap> {
        let started = Instant::now();
        enrich_op_items().add(items.len() as u64);
        let map = self.enrich_inner(items)?;
        let wall_ns = started.elapsed().as_nanos() as u64;
        enrich_op_latency().record(wall_ns);
        if let Some(stats) = &self.stats {
            if stats.enabled() {
                // Observed evidence cardinality and per-item hit rate: one
                // pass over the enriched map (rows are item-count sized,
                // not evidence-count sized, so this stays cheap).
                let mut evidence = 0u64;
                let mut hits = 0u64;
                for item in map.items() {
                    let n = map.item(item).map_or(0, |row| row.evidence_entries().count());
                    if n > 0 {
                        hits += 1;
                    }
                    evidence += n as u64;
                }
                stats.record(
                    &self.name,
                    NodeStats {
                        calls: 1,
                        rows_in: items.len() as u64,
                        rows_out: map.len() as u64,
                        evidence,
                        hits,
                        wall_ns,
                    },
                );
            }
        }
        Ok(map)
    }

    fn enrich_inner(&self, items: &[Term]) -> Result<AnnotationMap> {
        let groups = &self.groups;
        let bulk = |repository: &AnnotationRepository, chunk: &[Term], types: &[Iri]| {
            repository.enrich_bulk(chunk, types).map_err(|e| QuratorError::Storage(e.to_string()))
        };

        // A single-repository plan (the common §6.1 outcome) is exactly one
        // bulk call: the returned map is already seeded with the item set,
        // so there is nothing to fan out or merge.
        if let [(repository, types)] = groups.as_slice() {
            return bulk(repository, items, types);
        }

        let mut combined = AnnotationMap::for_items(items.iter().cloned());
        let partials: Vec<Result<AnnotationMap>> = if self.parallel && groups.len() > 1 {
            // Multi-repository fan-out: every (repository group × item
            // chunk) pair becomes a scoped-thread job, so independent
            // stores are scanned concurrently.
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            let chunk_size = items.len().div_ceil(workers.max(1)).max(PARALLEL_CHUNK_MIN);
            let jobs: Vec<(&Arc<AnnotationRepository>, &[Iri], &[Term])> = groups
                .iter()
                .flat_map(|(repository, types)| {
                    items
                        .chunks(chunk_size.max(1))
                        .map(move |chunk| (repository, types.as_slice(), chunk))
                })
                .collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .map(|(repository, types, chunk)| {
                        scope.spawn(move || bulk(repository, chunk, types))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle.join().unwrap_or_else(|_| {
                            Err(QuratorError::Execution("enrichment worker panicked".to_string()))
                        })
                    })
                    .collect()
            })
        } else {
            groups.iter().map(|(repository, types)| bulk(repository, items, types)).collect()
        };

        // Merge in job order (= group order, then item order), keeping the
        // result byte-identical to a sequential per-pair enrichment.
        for partial in partials {
            combined.merge(&partial?);
        }
        Ok(combined)
    }
}

impl Processor for DataEnrichmentProcessor {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        vec![("dataset".to_string(), 0)]
    }

    fn output_ports(&self) -> Vec<String> {
        vec!["map".to_string()]
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let dataset_data =
            inputs.get("dataset").ok_or_else(|| exec_err(&self.name, "missing dataset"))?;
        let dataset = wf_result(&self.name, convert::data_to_dataset(dataset_data))?;
        let map = wf_result(&self.name, self.enrich(dataset.items()))?;
        Ok(BTreeMap::from([("map".to_string(), convert::map_to_data(&map))]))
    }
}

/// The Quality Assertion operator.
pub struct AssertionProcessor {
    name: String,
    service: Arc<dyn AssertionService>,
    bindings: VariableBindings,
    tag: String,
    stats: Option<Arc<StatsCollector>>,
}

impl AssertionProcessor {
    /// Wraps an assertion service with its variable bindings and tag name.
    pub fn new(
        name: impl Into<String>,
        service: Arc<dyn AssertionService>,
        bindings: VariableBindings,
        tag: impl Into<String>,
    ) -> Self {
        AssertionProcessor { name: name.into(), service, bindings, tag: tag.into(), stats: None }
    }

    /// Attaches the shared observed-statistics sink.
    pub fn with_stats(mut self, stats: Arc<StatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Runs the assertion directly (shared by the executor and the
    /// workflow processor, so classification counting covers both).
    pub fn assert_quality(&self, map: &mut AnnotationMap) -> Result<()> {
        let started = Instant::now();
        self.service
            .assert_quality(map, &self.bindings, &self.tag)
            .map_err(|e| QuratorError::Execution(e.to_string()))?;
        // Count what this pass assigned: per class label for
        // classifications, per tag for everything (numeric scores would
        // explode label cardinality if counted per value). Aggregated
        // locally first — one registry touch per label, not per item.
        let mut tagged = 0u64;
        let mut per_class: BTreeMap<String, u64> = BTreeMap::new();
        for item in map.items() {
            let row = map.item(item).expect("listed");
            match row.tag(&self.tag) {
                EvidenceValue::Null => {}
                EvidenceValue::Class(class) => {
                    tagged += 1;
                    *per_class.entry(class.local_name().to_string()).or_default() += 1;
                }
                _ => tagged += 1,
            }
        }
        let metrics = qurator_telemetry::metrics();
        if tagged > 0 {
            metrics.counter_with("qa.assert.count", &[("tag", &self.tag)]).add(tagged);
        }
        for (label, count) in &per_class {
            metrics.counter_with("qa.classify.count", &[("class", label)]).add(*count);
        }
        if let Some(stats) = &self.stats {
            stats.record(
                &self.name,
                NodeStats {
                    calls: 1,
                    rows_in: map.len() as u64,
                    rows_out: map.len() as u64,
                    evidence: 0,
                    hits: tagged,
                    wall_ns: started.elapsed().as_nanos() as u64,
                },
            );
        }
        Ok(())
    }
}

impl Processor for AssertionProcessor {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        vec![("map".to_string(), 0)]
    }

    fn output_ports(&self) -> Vec<String> {
        vec!["map".to_string()]
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let map_data = inputs.get("map").ok_or_else(|| exec_err(&self.name, "missing map"))?;
        let mut map = wf_result(&self.name, convert::data_to_map(map_data))?;
        wf_result(&self.name, self.assert_quality(&mut map))?;
        Ok(BTreeMap::from([("map".to_string(), convert::map_to_data(&map))]))
    }
}

/// The consolidation task: merges N annotation maps into one consistent
/// view (later inputs win conflicting entries; in a compiled view tags are
/// distinct so there are none).
pub struct ConsolidateProcessor {
    name: String,
    input_count: usize,
}

impl ConsolidateProcessor {
    /// Builds a consolidator with `input_count` map inputs
    /// (`map0 … map{n-1}`).
    pub fn new(name: impl Into<String>, input_count: usize) -> Self {
        ConsolidateProcessor { name: name.into(), input_count: input_count.max(1) }
    }
}

impl Processor for ConsolidateProcessor {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        (0..self.input_count).map(|i| (format!("map{i}"), 0)).collect()
    }

    fn output_ports(&self) -> Vec<String> {
        vec!["map".to_string()]
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let mut combined = AnnotationMap::new();
        for i in 0..self.input_count {
            let port = format!("map{i}");
            let map_data =
                inputs.get(&port).ok_or_else(|| exec_err(&self.name, format!("missing {port}")))?;
            let map = wf_result(&self.name, convert::data_to_map(map_data))?;
            combined.merge(&map);
        }
        Ok(BTreeMap::from([("map".to_string(), convert::map_to_data(&combined))]))
    }
}

/// A compiled action: filter or splitter with condition *source text*.
#[derive(Debug, Clone)]
pub enum CompiledAction {
    Filter { condition: String },
    Split { groups: Vec<(String, String)> },
}

/// One output group of an action execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Group name (the action name for filters, `action/group` for
    /// splitter groups, `action/default` for the §4.1 default group).
    pub name: String,
    /// Surviving data items (input order preserved).
    pub dataset: DataSet,
    /// The restriction of the annotation map to those items
    /// (`(D_i, Amap_i)` in §4.1).
    pub map: AnnotationMap,
}

/// The Actions operator.
pub struct ActionProcessor {
    action_name: String,
    action: CompiledAction,
    iq: Arc<IqModel>,
    /// Conditions are re-parsed per execution; this caches the parse of
    /// the *current* source only, preserving edit-between-runs semantics
    /// while avoiding a re-parse per item.
    parse_cache: Mutex<BTreeMap<String, Expr>>,
    stats: Option<Arc<StatsCollector>>,
}

impl ActionProcessor {
    /// Builds an action operator.
    pub fn new(action_name: impl Into<String>, action: CompiledAction, iq: Arc<IqModel>) -> Self {
        ActionProcessor {
            action_name: action_name.into(),
            action,
            iq,
            parse_cache: Mutex::new(BTreeMap::new()),
            stats: None,
        }
    }

    /// Attaches the shared observed-statistics sink.
    pub fn with_stats(mut self, stats: Arc<StatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The output group names this action produces, in port order.
    pub fn group_names(&self) -> Vec<String> {
        match &self.action {
            CompiledAction::Filter { .. } => vec![self.action_name.clone()],
            CompiledAction::Split { groups } => {
                let mut names: Vec<String> =
                    groups.iter().map(|(g, _)| format!("{}/{g}", self.action_name)).collect();
                names.push(format!("{}/default", self.action_name));
                names
            }
        }
    }

    fn condition(&self, source: &str) -> Result<Expr> {
        if let Some(found) = self.parse_cache.lock().get(source) {
            return Ok(found.clone());
        }
        let parsed = qurator_expr::parse(source)
            .map_err(|e| QuratorError::Execution(format!("condition {source:?}: {e}")))?;
        self.parse_cache.lock().insert(source.to_string(), parsed.clone());
        Ok(parsed)
    }

    /// Runs the action directly (shared with the interpreter path).
    pub fn apply(&self, dataset: &DataSet, map: &AnnotationMap) -> Result<Vec<GroupResult>> {
        let started = Instant::now();
        let conditions: Vec<(String, Expr)> = match &self.action {
            CompiledAction::Filter { condition } => {
                vec![(self.action_name.clone(), self.condition(condition)?)]
            }
            CompiledAction::Split { groups } => groups
                .iter()
                .map(|(group, condition)| {
                    Ok((format!("{}/{group}", self.action_name), self.condition(condition)?))
                })
                .collect::<Result<Vec<_>>>()?,
        };
        let is_split = matches!(self.action, CompiledAction::Split { .. });

        // constant conditions read nothing, so they need no per-item env
        let needs_env = conditions.iter().any(|(_, expr)| !expr.variables().is_empty());
        let mut memberships: Vec<Vec<Term>> = vec![Vec::new(); conditions.len()];
        let mut default_group: Vec<Term> = Vec::new();
        for item in dataset.items() {
            let env = if needs_env { build_env(&self.iq, map, item) } else { Env::new() };
            let mut matched_any = false;
            for (slot, (_, expr)) in conditions.iter().enumerate() {
                let accepted = expr.accepts(&env).map_err(|e| {
                    QuratorError::Execution(format!(
                        "evaluating action {:?}: {e}",
                        self.action_name
                    ))
                })?;
                if accepted {
                    memberships[slot].push(item.clone());
                    matched_any = true;
                }
            }
            if !matched_any {
                default_group.push(item.clone());
            }
        }

        let mut out = Vec::with_capacity(conditions.len() + 1);
        for ((name, _), members) in conditions.iter().zip(memberships) {
            out.push(GroupResult {
                name: name.clone(),
                dataset: dataset.restrict(&members),
                map: map.restrict(&members),
            });
        }
        if is_split {
            // §4.1: the k+1-th output is the default group.
            out.push(GroupResult {
                name: format!("{}/default", self.action_name),
                dataset: dataset.restrict(&default_group),
                map: map.restrict(&default_group),
            });
        }
        if let Some(stats) = &self.stats {
            stats.record(
                &self.action_name,
                NodeStats {
                    calls: 1,
                    rows_in: dataset.len() as u64,
                    rows_out: out.iter().map(|g| g.dataset.len() as u64).sum(),
                    evidence: 0,
                    // rows some condition accepted (for a filter, the
                    // default group holds exactly the rejected items)
                    hits: (dataset.len() - default_group.len()) as u64,
                    wall_ns: started.elapsed().as_nanos() as u64,
                },
            );
        }
        Ok(out)
    }
}

/// Builds the per-item evaluation environment: every QA tag under its tag
/// name, every evidence value under its evidence-type local name.
pub fn build_env(iq: &IqModel, map: &AnnotationMap, item: &Term) -> Env {
    let mut env = Env::new();
    if let Some(row) = map.item(item) {
        for (evidence_type, value) in row.evidence_entries() {
            env.bind(evidence_type.local_name(), evidence_to_value(iq, value));
        }
        for (tag, value) in row.tag_entries() {
            env.bind(tag, evidence_to_value(iq, value));
        }
    }
    env
}

/// Converts an annotation value into a condition-language value.
/// Classification labels become symbols in compact (`q:high`) form.
pub fn evidence_to_value(iq: &IqModel, value: &EvidenceValue) -> Value {
    match value {
        EvidenceValue::Number(n) => Value::Num(*n),
        EvidenceValue::Text(s) => Value::Str(s.clone()),
        EvidenceValue::Bool(b) => Value::Bool(*b),
        EvidenceValue::Class(iri) => Value::Symbol(iq.compact(iri)),
        EvidenceValue::Null => Value::Null,
    }
}

impl Processor for ActionProcessor {
    fn type_name(&self) -> &str {
        &self.action_name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        vec![("dataset".to_string(), 0), ("map".to_string(), 0)]
    }

    fn output_ports(&self) -> Vec<String> {
        self.group_names()
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let dataset_data =
            inputs.get("dataset").ok_or_else(|| exec_err(&self.action_name, "missing dataset"))?;
        let map_data =
            inputs.get("map").ok_or_else(|| exec_err(&self.action_name, "missing map"))?;
        let dataset = wf_result(&self.action_name, convert::data_to_dataset(dataset_data))?;
        let map = wf_result(&self.action_name, convert::data_to_map(map_data))?;
        let groups = wf_result(&self.action_name, self.apply(&dataset, &map))?;
        Ok(groups
            .into_iter()
            .map(|g| {
                (
                    g.name.clone(),
                    Data::record([
                        ("dataset", convert::dataset_to_data(&g.dataset)),
                        ("map", convert::map_to_data(&g.map)),
                    ]),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_rdf::namespace::q;
    use qurator_services::stdlib::{FieldCaptureAnnotator, ZScoreAssertion};

    fn iq() -> Arc<IqModel> {
        Arc::new(IqModel::with_proteomics_extension().unwrap())
    }

    fn item(n: u32) -> Term {
        Term::iri(format!("urn:lsid:t:h:{n}"))
    }

    fn sample_dataset() -> DataSet {
        let mut ds = DataSet::new();
        ds.push(item(1), [("hitRatio", 0.9.into()), ("massCoverage", 40.0.into())]);
        ds.push(item(2), [("hitRatio", 0.5.into()), ("massCoverage", 25.0.into())]);
        ds.push(item(3), [("hitRatio", 0.1.into()), ("massCoverage", 5.0.into())]);
        ds
    }

    #[test]
    fn annotator_then_enrichment_pipeline() {
        let iq = iq();
        let repo = Arc::new(AnnotationRepository::new("cache", false, iq.clone()));
        let annotator = AnnotatorProcessor::new(
            "ImprintOutputAnnotator",
            Arc::new(FieldCaptureAnnotator::new(
                q::iri("ImprintOutputAnnotation"),
                &[("hitRatio", q::iri("HitRatio")), ("massCoverage", q::iri("MassCoverage"))],
            )),
            repo.clone(),
        );
        let ds = sample_dataset();
        let inputs = BTreeMap::from([("dataset".to_string(), convert::dataset_to_data(&ds))]);
        let out = annotator.execute(&inputs, &Context::new()).unwrap();
        assert_eq!(out["done"], Data::Number(6.0));

        let de = DataEnrichmentProcessor::new(
            "DataEnrichment",
            vec![(repo, vec![q::iri("HitRatio"), q::iri("MassCoverage")])],
        );
        let out = de.execute(&inputs, &Context::new()).unwrap();
        let map = convert::data_to_map(&out["map"]).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(
            map.item(&item(1)).unwrap().evidence(&q::iri("HitRatio")),
            EvidenceValue::Number(0.9)
        );
    }

    #[test]
    fn grouped_bulk_enrich_equals_per_entry_merge() {
        // Two repositories with overlapping evidence types: repo_a holds
        // HitRatio for all items and MassCoverage for item 1; repo_b holds
        // MassCoverage for items 2,3 plus a *conflicting* HitRatio for
        // item 1 (the plan must keep later entries winning on merge).
        let iq = iq();
        let repo_a = Arc::new(AnnotationRepository::new("a", false, iq.clone()));
        let repo_b = Arc::new(AnnotationRepository::new("b", false, iq.clone()));
        for (i, v) in [(1u32, 0.9), (2, 0.5), (3, 0.1)] {
            repo_a.annotate(&item(i), &q::iri("HitRatio"), v.into()).unwrap();
        }
        repo_a.annotate(&item(1), &q::iri("MassCoverage"), 40.0.into()).unwrap();
        repo_b.annotate(&item(1), &q::iri("HitRatio"), 0.111.into()).unwrap();
        repo_b.annotate(&item(2), &q::iri("MassCoverage"), 25.0.into()).unwrap();
        repo_b.annotate(&item(3), &q::iri("MassCoverage"), 5.0.into()).unwrap();

        let plan = vec![
            (q::iri("HitRatio"), repo_a.clone()),
            (q::iri("MassCoverage"), repo_b.clone()),
            (q::iri("MassCoverage"), repo_a.clone()),
            (q::iri("HitRatio"), repo_b.clone()),
        ];
        let items: Vec<Term> = (1..=3u32).map(item).collect();

        // The pre-bulk composition: one per-pair enrich per plan entry,
        // merged in plan order.
        let mut per_entry = AnnotationMap::for_items(items.iter().cloned());
        for (evidence_type, repository) in &plan {
            let partial = repository.enrich(&items, std::slice::from_ref(evidence_type)).unwrap();
            per_entry.merge(&partial);
        }

        // The same entries grouped by repository in first-entry order, as
        // plan lowering groups them.
        let groups = vec![
            (repo_a, vec![q::iri("HitRatio"), q::iri("MassCoverage")]),
            (repo_b, vec![q::iri("MassCoverage"), q::iri("HitRatio")]),
        ];
        let parallel = DataEnrichmentProcessor::new("de", groups.clone()).enrich(&items).unwrap();
        let sequential =
            DataEnrichmentProcessor::new("de", groups).with_parallel(false).enrich(&items).unwrap();

        assert_eq!(parallel, per_entry);
        assert_eq!(sequential, per_entry);
        // The later plan entry's HitRatio (repo_b) must have won for item 1.
        assert_eq!(
            per_entry.item(&item(1)).unwrap().evidence(&q::iri("HitRatio")),
            EvidenceValue::Number(0.111)
        );
    }

    #[test]
    fn assertion_processor_tags() {
        let qa = AssertionProcessor::new(
            "HRscore",
            Arc::new(ZScoreAssertion::new(q::iri("UniversalPIScore"), &["hr"])),
            VariableBindings::new().bind_evidence("hr", q::iri("HitRatio")),
            "HR",
        );
        let mut map = AnnotationMap::new();
        for (i, v) in [(1u32, 0.1), (2, 0.5), (3, 0.9)] {
            map.set_evidence(&item(i), q::iri("HitRatio"), v.into());
        }
        let inputs = BTreeMap::from([("map".to_string(), convert::map_to_data(&map))]);
        let out = qa.execute(&inputs, &Context::new()).unwrap();
        let tagged = convert::data_to_map(&out["map"]).unwrap();
        assert!(tagged.item(&item(3)).unwrap().tag("HR").as_number().unwrap() > 0.0);
    }

    #[test]
    fn consolidate_merges() {
        let mut a = AnnotationMap::new();
        a.set_tag(&item(1), "HR", 1.0.into());
        let mut b = AnnotationMap::new();
        b.set_tag(&item(1), "MC", 2.0.into());
        let c = ConsolidateProcessor::new("ConsolidateAssertions", 2);
        let inputs = BTreeMap::from([
            ("map0".to_string(), convert::map_to_data(&a)),
            ("map1".to_string(), convert::map_to_data(&b)),
        ]);
        let out = c.execute(&inputs, &Context::new()).unwrap();
        let merged = convert::data_to_map(&out["map"]).unwrap();
        let row = merged.item(&item(1)).unwrap();
        assert_eq!(row.tag("HR"), EvidenceValue::Number(1.0));
        assert_eq!(row.tag("MC"), EvidenceValue::Number(2.0));
    }

    #[test]
    fn filter_action_keeps_matching_items() {
        let iq = iq();
        let action = ActionProcessor::new(
            "keep",
            CompiledAction::Filter {
                condition: "ScoreClass in q:high, q:mid and HitRatio > 0.2".into(),
            },
            iq.clone(),
        );
        let ds = sample_dataset();
        let mut map = AnnotationMap::new();
        for (i, class) in [(1u32, "high"), (2, "mid"), (3, "high")] {
            map.set_evidence(&item(i), q::iri("HitRatio"), ds.field(&item(i), "hitRatio"));
            map.set_tag(&item(i), "ScoreClass", EvidenceValue::Class(q::iri(class)));
        }
        let groups = action.apply(&ds, &map).unwrap();
        assert_eq!(groups.len(), 1);
        // item 3 has HitRatio 0.1 → dropped despite class high
        assert_eq!(groups[0].dataset.items(), &[item(1), item(2)]);
        assert_eq!(groups[0].map.len(), 2);
    }

    #[test]
    fn splitter_groups_cover_everything_with_default() {
        let iq = iq();
        let action = ActionProcessor::new(
            "triage",
            CompiledAction::Split {
                groups: vec![
                    ("strong".into(), "HitRatio >= 0.5".into()),
                    ("reviewable".into(), "MassCoverage > 20".into()),
                ],
            },
            iq,
        );
        let ds = sample_dataset();
        let mut map = AnnotationMap::new();
        for i in 1..=3u32 {
            map.set_evidence(&item(i), q::iri("HitRatio"), ds.field(&item(i), "hitRatio"));
            map.set_evidence(&item(i), q::iri("MassCoverage"), ds.field(&item(i), "massCoverage"));
        }
        let groups = action.apply(&ds, &map).unwrap();
        assert_eq!(groups.len(), 3);
        let by_name: BTreeMap<&str, &GroupResult> =
            groups.iter().map(|g| (g.name.as_str(), g)).collect();
        // items 1,2 are strong; 1,2 reviewable (overlap allowed, §4.1);
        // item 3 matches nothing → default
        assert_eq!(by_name["triage/strong"].dataset.items(), &[item(1), item(2)]);
        assert_eq!(by_name["triage/reviewable"].dataset.items(), &[item(1), item(2)]);
        assert_eq!(by_name["triage/default"].dataset.items(), &[item(3)]);
    }

    #[test]
    fn constant_split_conditions_sort_every_item() {
        let action = ActionProcessor::new(
            "triage",
            CompiledAction::Split {
                groups: vec![
                    ("all".into(), "true".into()),
                    ("none".into(), "1 > 2".into()),
                    ("some".into(), "HR > 0".into()),
                ],
            },
            iq(),
        );
        let ds = sample_dataset();
        let mut map = AnnotationMap::new();
        for (i, hr) in [(1u32, 1.0), (2, -1.0), (3, 0.5)] {
            map.set_tag(&item(i), "HR", hr.into());
        }
        let groups = action.apply(&ds, &map).unwrap();
        let by_name: BTreeMap<&str, &[Term]> =
            groups.iter().map(|g| (g.name.as_str(), g.dataset.items())).collect();
        assert_eq!(by_name["triage/all"], &[item(1), item(2), item(3)]);
        assert!(by_name["triage/none"].is_empty());
        assert_eq!(by_name["triage/some"], &[item(1), item(3)]);
        // every item matched `true`, so none falls through to the default
        assert!(by_name["triage/default"].is_empty());

        // constant conditions alone: no item reaches a true group but
        // every item reaches the default group
        let action = ActionProcessor::new(
            "never",
            CompiledAction::Split { groups: vec![("none".into(), "1 > 2".into())] },
            iq(),
        );
        let groups = action.apply(&ds, &map).unwrap();
        assert!(groups[0].dataset.is_empty());
        assert_eq!(groups[1].dataset.items(), ds.items());
    }

    #[test]
    fn missing_evidence_rejects_not_errors() {
        let action = ActionProcessor::new(
            "keep",
            CompiledAction::Filter { condition: "GhostEvidence > 1".into() },
            iq(),
        );
        let ds = sample_dataset();
        let map = AnnotationMap::for_items(ds.items().iter().cloned());
        let groups = action.apply(&ds, &map).unwrap();
        assert!(groups[0].dataset.is_empty());
    }

    #[test]
    fn bad_condition_source_is_reported() {
        let action =
            ActionProcessor::new("keep", CompiledAction::Filter { condition: "><><".into() }, iq());
        let ds = sample_dataset();
        let map = AnnotationMap::new();
        assert!(action.apply(&ds, &map).is_err());
    }

    #[test]
    fn env_binds_tags_and_evidence_locals() {
        let iq = iq();
        let mut map = AnnotationMap::new();
        map.set_evidence(&item(1), q::iri("MassCoverage"), 33.0.into());
        map.set_tag(&item(1), "ScoreClass", EvidenceValue::Class(q::iri("high")));
        let env = build_env(&iq, &map, &item(1));
        assert_eq!(env.lookup("MassCoverage"), Value::Num(33.0));
        assert_eq!(env.lookup("ScoreClass"), Value::Symbol("q:high".into()));
        assert_eq!(env.lookup("Absent"), Value::Null);
    }
}

/// Per-item explanation of an action decision — the observability the
/// paper's prototyping loop needs ("repeatedly observe the effect of
/// alternative criteria"). Produced by [`ActionProcessor::explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct ItemExplanation {
    /// The data item.
    pub item: Term,
    /// Per condition (group name for splitters, action name for filters):
    /// the evaluated outcome.
    pub outcomes: Vec<(String, ConditionOutcome)>,
    /// The variable environment the conditions saw (tags + evidence).
    pub environment: Env,
}

/// The three-valued outcome of one condition on one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionOutcome {
    Accepted,
    Rejected,
    /// The condition evaluated to Null (missing evidence) — rejected, but
    /// distinguishable from an explicit `false`.
    Unknown,
}

impl ActionProcessor {
    /// Evaluates the action's conditions per item *without* producing
    /// groups, returning a full explanation trace.
    pub fn explain(&self, dataset: &DataSet, map: &AnnotationMap) -> Result<Vec<ItemExplanation>> {
        let conditions: Vec<(String, Expr)> = match &self.action {
            CompiledAction::Filter { condition } => {
                vec![(self.action_name.clone(), self.condition(condition)?)]
            }
            CompiledAction::Split { groups } => groups
                .iter()
                .map(|(group, condition)| Ok((group.clone(), self.condition(condition)?)))
                .collect::<Result<Vec<_>>>()?,
        };
        let mut out = Vec::with_capacity(dataset.items().len());
        for item in dataset.items() {
            let env = build_env(&self.iq, map, item);
            let mut outcomes = Vec::with_capacity(conditions.len());
            for (name, expr) in &conditions {
                let value = expr.eval(&env).map_err(|e| {
                    QuratorError::Execution(format!("explaining {:?}: {e}", self.action_name))
                })?;
                let outcome = match value {
                    Value::Bool(true) => ConditionOutcome::Accepted,
                    Value::Null => ConditionOutcome::Unknown,
                    _ => ConditionOutcome::Rejected,
                };
                outcomes.push((name.clone(), outcome));
            }
            out.push(ItemExplanation { item: item.clone(), outcomes, environment: env });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use qurator_rdf::namespace::q;

    #[test]
    fn explanations_distinguish_rejected_from_unknown() {
        let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
        let action = ActionProcessor::new(
            "keep",
            CompiledAction::Filter { condition: "HR_MC > 10".into() },
            iq,
        );
        let a = Term::iri("urn:lsid:t:h:a");
        let b = Term::iri("urn:lsid:t:h:b");
        let c = Term::iri("urn:lsid:t:h:c");
        let mut dataset = DataSet::new();
        for item in [&a, &b, &c] {
            dataset.push((*item).clone(), [] as [(String, EvidenceValue); 0]);
        }
        let mut map = AnnotationMap::new();
        map.set_tag(&a, "HR_MC", 20.0.into());
        map.set_tag(&b, "HR_MC", 3.0.into());
        map.ensure_item(c.clone()); // no tag: Null outcome

        let explanations = action.explain(&dataset, &map).unwrap();
        assert_eq!(explanations.len(), 3);
        assert_eq!(explanations[0].outcomes[0].1, ConditionOutcome::Accepted);
        assert_eq!(explanations[1].outcomes[0].1, ConditionOutcome::Rejected);
        assert_eq!(explanations[2].outcomes[0].1, ConditionOutcome::Unknown);
        // the environment snapshot is available for display
        assert_eq!(explanations[0].environment.lookup("HR_MC"), Value::Num(20.0));
    }

    #[test]
    fn explanations_agree_with_apply() {
        let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
        let action = ActionProcessor::new(
            "triage",
            CompiledAction::Split {
                groups: vec![("hi".into(), "score > 1".into()), ("lo".into(), "score <= 1".into())],
            },
            iq,
        );
        let mut dataset = DataSet::new();
        let mut map = AnnotationMap::new();
        for i in 0..6u32 {
            let item = Term::iri(format!("urn:lsid:t:h:{i}"));
            dataset.push(item.clone(), [] as [(String, EvidenceValue); 0]);
            map.set_tag(&item, "score", (i as f64 / 2.0).into());
        }
        let groups = action.apply(&dataset, &map).unwrap();
        let explanations = action.explain(&dataset, &map).unwrap();
        let hi = groups.iter().find(|g| g.name == "triage/hi").unwrap();
        for explanation in &explanations {
            let accepted_hi = explanation
                .outcomes
                .iter()
                .any(|(n, o)| n == "hi" && *o == ConditionOutcome::Accepted);
            assert_eq!(hi.dataset.items().contains(&explanation.item), accepted_hi);
        }
        let _ = q::iri("HitRatio");
    }
}
