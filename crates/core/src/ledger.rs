//! The engine's per-run memory: one bounded ring of [`RunRecord`]s.
//!
//! A record holds what one finished run leaves behind: its span trace,
//! its observed plan-node statistics and, when decision provenance is
//! on, a columnar capture of its consolidated annotation map (paper
//! §4.1, `Amap : d ↦ {(e, v)}` plus the QA tags) and of the groups its
//! actions cut from it. Every answer about a run
//! reads its one record: [`RunLedger::record`] (`GET /runs/<id>`),
//! [`RunLedger::recent_jsonl`] (`GET /traces/recent`),
//! [`RunLedger::view_stats`] (`GET /stats/<view>`), and the decision
//! traces built when a reader asks, [`RunLedger::why`],
//! [`RunLedger::find`] (`qv explain`) and [`RunLedger::annotation_map`]
//! (`qv run --explain`).
//!
//! The ring has two bounds. It keeps at most [`RUN_CAPACITY`] records, so
//! a run's trace and stats live exactly as long as its record.
//! [`RunLedger::set_trace_capacity`] sets an item budget over the
//! decisions the records hold: past the budget the oldest records lose
//! their decisions but keep the rest, and the newest run is always kept
//! whole.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use qurator_annotations::{AnnotationMap, EvidenceValue};
use qurator_plan::{ActKind, PhysicalPlan};
use qurator_rdf::term::{Iri, Term};
use qurator_telemetry::json::escape;
use qurator_telemetry::span::SpanTrace;
use qurator_telemetry::{
    ActionRecord, AssertionRecord, DecisionTrace, EvidenceRecord, RunId, RunStats,
};

use crate::operators::GroupResult;

/// How many recent runs the ring keeps.
pub const RUN_CAPACITY: usize = 256;

/// What one finished run leaves behind. [`RunLedger::record`] and
/// [`RunLedger::recent`] hand out copies; the span trace and the
/// decisions are shared, not copied.
#[derive(Clone)]
pub struct RunRecord {
    pub run_id: RunId,
    /// The view the run executed.
    pub view: Arc<str>,
    /// Whether the run failed.
    pub error: bool,
    /// How many items the run's filter actions rejected.
    pub rejected: u64,
    /// The run's finished span trace. Its span ids are the ones the
    /// run's decision traces name.
    pub trace: Arc<SpanTrace>,
    /// Observed plan-node statistics; `None` when collection was off.
    pub stats: Option<RunStats>,
    /// `None` when provenance was off, the run failed, or the item budget
    /// evicted the decisions.
    pub(crate) decisions: Option<Arc<Decisions>>,
}

impl RunRecord {
    fn decision_items(&self) -> usize {
        self.decisions.as_ref().map_or(0, |d| d.items.len())
    }

    /// The run's decision traces, sorted by item. Empty when the record
    /// holds no decisions.
    pub fn decision_traces(&self) -> Vec<DecisionTrace> {
        self.decisions.as_ref().map_or_else(Vec::new, |d| d.traces(self.run_id))
    }

    /// The trace header fields that `GET /runs/<id>` and
    /// `GET /traces/recent` both render: `"view":…,"rejected":…,
    /// "error":…,"root_duration_ns":…`, the last the wallclock of the
    /// trace's root span.
    pub fn trace_header_fields(&self) -> String {
        let root_ns = self.trace.roots().filter_map(|s| s.duration_ns()).max().unwrap_or_default();
        format!(
            "\"view\":\"{}\",\"rejected\":{},\"error\":{},\"root_duration_ns\":{root_ns}",
            escape(&self.view),
            self.rejected,
            self.error,
        )
    }
}

/// One run's consolidated map and group memberships, stored by column,
/// with the names its decision traces repeat for every item.
pub(crate) struct Decisions {
    /// The items, in the consolidated map's key order.
    items: Vec<Term>,
    /// One column per evidence type present, in evidence-type order.
    evidence: Vec<(Iri, Column)>,
    /// One column per plan assertion, in plan order.
    tags: Vec<Column>,
    /// One entry per action output group, in plan order.
    groups: Vec<Membership>,
}

/// One evidence type's or tag's values, `None` where an item has none.
struct Column {
    /// The evidence property or the tag.
    name: Arc<str>,
    /// The repository the evidence came from, or the tag's assertion.
    by: Option<Arc<str>>,
    span: u64,
    values: Vec<Option<EvidenceValue>>,
}

/// One action output group, one bit per item.
struct Membership {
    group: Arc<str>,
    /// The group's condition (a splitter's default group has none).
    condition: Option<Arc<str>>,
    span: u64,
    /// A filter gives every item a verdict; a splitter records only the
    /// groups an item joined.
    filter: bool,
    members: Vec<u64>,
}

impl Decisions {
    /// Captures a finished run in one pass over the consolidated map.
    /// `assert_spans` holds the span of each plan assertion, and
    /// `actions` the span and the range of `groups` of each plan action.
    pub(crate) fn capture(
        plan: &PhysicalPlan,
        map: &AnnotationMap,
        groups: &[GroupResult],
        enrich_span: u64,
        assert_spans: &[u64],
        actions: &[(u64, Range<usize>)],
    ) -> Self {
        let n = map.len();
        let column = |name: &str, by: Option<&str>, span| Column {
            name: Arc::from(name),
            by: by.map(Arc::from),
            span,
            values: Vec::with_capacity(n),
        };
        // the last group that reads a type names its source
        let mut sources: BTreeMap<&str, &str> = BTreeMap::new();
        for group in &plan.enrich {
            for e in &group.evidence {
                sources.insert(e.local_name(), &group.repository);
            }
        }
        let mut items = Vec::with_capacity(n);
        let mut evidence: Vec<(Iri, Column)> = Vec::new();
        let mut tags: Vec<Column> = plan
            .assertions
            .iter()
            .zip(assert_spans)
            .map(|(a, &span)| column(&a.node.tag, Some(&a.node.name), span))
            .collect();
        for (i, (term, row)) in map.rows().enumerate() {
            items.push(term.clone());
            for (evidence_type, value) in row.evidence_entries() {
                let at =
                    evidence.iter().position(|(t, _)| t == evidence_type).unwrap_or_else(|| {
                        let name = evidence_type.local_name();
                        let by = sources.get(name).copied();
                        evidence.push((evidence_type.clone(), column(name, by, enrich_span)));
                        evidence.len() - 1
                    });
                let values = &mut evidence[at].1.values;
                values.resize(i, None);
                values.push(Some(value.clone()));
            }
            for tag in &mut tags {
                tag.values.push(row.tag_ref(&tag.name).filter(|v| !v.is_null()).cloned());
            }
        }
        for (_, column) in &mut evidence {
            column.values.resize(n, None);
        }
        evidence.sort_by(|a, b| a.0.cmp(&b.0));

        let mut memberships = Vec::with_capacity(groups.len());
        for (act, (span, range)) in plan.actions.iter().zip(actions) {
            // a splitter's groups follow its conditions in order, then its
            // default group (group names may contain '/', so they cannot
            // be matched)
            let conditions: Vec<&str> = match &act.kind {
                ActKind::Filter { condition } => vec![condition],
                ActKind::Split { groups } => groups.iter().map(|(_, c)| c.as_str()).collect(),
            };
            for (k, group) in groups[range.clone()].iter().enumerate() {
                let mut members = vec![0u64; n.div_ceil(64)];
                for item in group.dataset.items() {
                    if let Ok(i) = items.binary_search(item) {
                        members[i / 64] |= 1 << (i % 64);
                    }
                }
                memberships.push(Membership {
                    group: Arc::from(group.name.as_str()),
                    condition: conditions.get(k).map(|&c| Arc::from(c)),
                    span: *span,
                    filter: matches!(act.kind, ActKind::Filter { .. }),
                    members,
                });
            }
        }
        Decisions { items, evidence, tags, groups: memberships }
    }

    /// The decision trace of the item at `i`.
    fn trace(&self, run: RunId, i: usize) -> DecisionTrace {
        let evidence = self.evidence.iter().filter_map(|(_, c)| {
            Some(EvidenceRecord {
                property: c.name.clone(),
                value: c.values[i].as_ref()?.to_string(),
                source: c.by.clone(),
                span: Some(c.span),
            })
        });
        let assertions = self.tags.iter().filter_map(|c| {
            Some(AssertionRecord {
                property: c.name.clone(),
                value: c.values[i].as_ref()?.to_string(),
                assertion: c.by.clone(),
                span: Some(c.span),
            })
        });
        let actions = self.groups.iter().filter_map(|m| {
            let member = m.members[i / 64] >> (i % 64) & 1 == 1;
            (member || m.filter).then(|| ActionRecord {
                group: m.group.clone(),
                outcome: Arc::from(if member { "accepted" } else { "rejected" }),
                condition: m.condition.clone(),
                span: Some(m.span),
            })
        });
        DecisionTrace {
            item: item_key(&self.items[i]).into_owned(),
            run_id: Some(run),
            evidence: evidence.collect(),
            assertions: assertions.collect(),
            actions: actions.collect(),
        }
    }

    /// Every item's decision trace, sorted by item.
    fn traces(&self, run: RunId) -> Vec<DecisionTrace> {
        let mut out: Vec<DecisionTrace> =
            (0..self.items.len()).map(|i| self.trace(run, i)).collect();
        out.sort_by(|a, b| a.item.cmp(&b.item));
        out
    }

    /// The consolidated map the run's actions saw, rebuilt row by row.
    fn annotation_map(&self) -> AnnotationMap {
        let mut map = AnnotationMap::for_items(self.items.iter().cloned());
        for (i, item) in self.items.iter().enumerate() {
            let row = map.row_mut(item).expect("seeded by for_items");
            for (evidence_type, c) in &self.evidence {
                if let Some(value) = &c.values[i] {
                    row.insert_evidence(evidence_type.clone(), value.clone());
                }
            }
            for c in &self.tags {
                if let Some(value) = &c.values[i] {
                    map.set_tag(item, c.name.as_ref(), value.clone());
                }
            }
        }
        map
    }
}

/// Ledger key for an item: the bare IRI when the term is one, else its
/// display form.
pub(crate) fn item_key(term: &Term) -> Cow<'_, str> {
    match term.as_iri() {
        Some(iri) => Cow::Borrowed(iri.as_str()),
        None => Cow::Owned(term.to_string()),
    }
}

/// The records, oldest first, with the two bounds.
#[derive(Default)]
struct Ring {
    records: VecDeque<RunRecord>,
    /// Items whose decisions the ring holds.
    items: usize,
    /// The item budget; 0 = unbounded.
    budget: usize,
}

impl Ring {
    /// Drops the oldest records' decisions until the budget holds, never
    /// touching the newest record.
    fn enforce_budget(&mut self) {
        let Ring { records, items, budget } = self;
        let older = records.len().saturating_sub(1);
        for record in records.iter_mut().take(older) {
            if *budget == 0 || *items <= *budget {
                break;
            }
            *items -= record.decision_items();
            record.decisions = None;
        }
    }
}

/// The engine's run ledger: the ring of run records and the
/// decision-provenance switch.
#[derive(Default)]
pub struct RunLedger {
    enabled: AtomicBool,
    ring: RwLock<Ring>,
}

impl RunLedger {
    /// Turns decision capture on or off (off by default).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether runs capture their decisions.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the item budget over retained decisions, at once. `0` =
    /// unbounded, the default. A long-lived `qv serve` engine sets this
    /// so always-on provenance cannot grow without limit; the rest of a
    /// record stays for the last [`RUN_CAPACITY`] runs regardless.
    pub fn set_trace_capacity(&self, capacity: usize) {
        let mut ring = self.ring.write();
        ring.budget = capacity;
        ring.enforce_budget();
    }

    /// Appends a finished run's record, evicting as the bounds require.
    pub(crate) fn push(&self, record: RunRecord) {
        let mut ring = self.ring.write();
        if ring.records.len() >= RUN_CAPACITY {
            let oldest = ring.records.pop_front().expect("a full ring");
            ring.items -= oldest.decision_items();
        }
        ring.items += record.decision_items();
        ring.records.push_back(record);
        ring.enforce_budget();
    }

    /// Reads the newest record of `run` under the ring's lock.
    fn read_run<T>(&self, run: RunId, read: impl FnOnce(&RunRecord) -> T) -> Option<T> {
        self.ring.read().records.iter().rev().find(|r| r.run_id == run).map(read)
    }

    /// The record of a run still in the ring: everything `GET /runs/<id>`
    /// serves, from one lookup.
    pub fn record(&self, run: RunId) -> Option<RunRecord> {
        self.read_run(run, RunRecord::clone)
    }

    /// The newest `limit` records, newest first.
    pub fn recent(&self, limit: usize) -> Vec<RunRecord> {
        self.ring.read().records.iter().rev().take(limit).cloned().collect()
    }

    /// Observed statistics of the newest run that recorded any.
    pub fn last_stats(&self) -> Option<RunStats> {
        self.ring.read().records.iter().rev().find_map(|r| r.stats.clone())
    }

    /// Observed statistics of a run still in the ring.
    pub fn stats(&self, run: RunId) -> Option<RunStats> {
        self.read_run(run, |r| r.stats.clone()).flatten()
    }

    /// The observed statistics of every run of `view` still in the ring,
    /// merged with [`RunStats::merge`] (run id `None`); `None` when no
    /// such run recorded any. Merged under the ring's lock, so no record
    /// is copied.
    pub fn view_stats(&self, view: &str) -> Option<RunStats> {
        let ring = self.ring.read();
        let mut merged: Option<RunStats> = None;
        for stats in
            ring.records.iter().filter(|r| &*r.view == view).filter_map(|r| r.stats.as_ref())
        {
            merged
                .get_or_insert_with(|| RunStats { view: view.into(), ..RunStats::default() })
                .merge(stats);
        }
        merged
    }

    /// The span trace of the newest run.
    pub fn last_trace(&self) -> Option<Arc<SpanTrace>> {
        self.ring.read().records.back().map(|r| r.trace.clone())
    }

    /// The span trace of a run still in the ring.
    pub fn trace(&self, run: RunId) -> Option<Arc<SpanTrace>> {
        self.read_run(run, |r| r.trace.clone())
    }

    /// `GET /traces/recent`: the newest `limit` runs, newest first, each
    /// a `{"type":"trace",...}` header line followed by its span lines.
    /// Every trace numbers its spans from 1, so each trace's ids are
    /// offset past the previous trace's here, and the document keeps
    /// [`qurator_telemetry::schema::validate_trace_jsonl`]'s unique-id
    /// rule. `GET /runs/<id>` serves a run's own ids.
    pub fn recent_jsonl(&self, limit: usize) -> String {
        // headers and trace handles under the lock, span lines after it
        let traces: Vec<(String, Arc<SpanTrace>)> = self
            .ring
            .read()
            .records
            .iter()
            .rev()
            .take(limit)
            .map(|r| {
                let header = format!(
                    "{{\"type\":\"trace\",{},\"run_id\":\"{}\",\"spans\":{}}}",
                    r.trace_header_fields(),
                    r.run_id,
                    r.trace.len()
                );
                (header, r.trace.clone())
            })
            .collect();
        let mut out = String::new();
        let mut offset = 0;
        for (header, trace) in traces {
            out.push_str(&header);
            out.push('\n');
            trace.write_jsonl(&mut out, offset);
            // spans are ordered by id, so the last holds the largest
            offset += trace.spans().last().map_or(0, |s| s.id.0);
        }
        out
    }

    /// The retained decisions, newest run first.
    fn retained(&self) -> Vec<(RunId, Arc<Decisions>)> {
        let ring = self.ring.read();
        ring.records.iter().rev().filter_map(|r| Some((r.run_id, r.decisions.clone()?))).collect()
    }

    /// The decision trace of an exact item id, from the newest run that
    /// traced it.
    pub fn why(&self, item: &str) -> Option<DecisionTrace> {
        self.retained().iter().find_map(|(run, d)| {
            Some(d.trace(*run, d.items.iter().position(|t| item_key(t) == item)?))
        })
    }

    /// Traces of items whose id equals or ends with `needle` (so a user
    /// can say `explain P1` instead of the full LSID), each from the
    /// newest run that traced it. Sorted by item.
    pub fn find(&self, needle: &str) -> Vec<DecisionTrace> {
        let mut seen: HashSet<String> = HashSet::new();
        let mut out = Vec::new();
        for (run, d) in self.retained() {
            for (i, term) in d.items.iter().enumerate() {
                let key = item_key(term);
                if key.ends_with(needle) && seen.insert(key.into_owned()) {
                    out.push(d.trace(run, i));
                }
            }
        }
        out.sort_by(|a, b| a.item.cmp(&b.item));
        out
    }

    /// The consolidated map of a run whose decisions are retained.
    pub fn annotation_map(&self, run: RunId) -> Option<AnnotationMap> {
        Some(self.read_run(run, |r| r.decisions.clone())??.annotation_map())
    }

    /// All item ids with retained decisions, sorted.
    pub fn items(&self) -> Vec<String> {
        let retained = self.retained();
        let keys: BTreeSet<Cow<str>> =
            retained.iter().flat_map(|(_, d)| d.items.iter().map(item_key)).collect();
        keys.into_iter().map(Cow::into_owned).collect()
    }

    /// Number of distinct items with retained decisions.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// True when no decision is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_telemetry::schema::validate_trace_jsonl;
    use qurator_telemetry::span::{AttrValue, Span, SpanId, SpanKind};
    use qurator_telemetry::NodeStats;

    fn term(i: usize) -> Term {
        Term::iri(format!("urn:lsid:t:h:{i:04}"))
    }

    /// A finished two-span trace, its root stamped with the run as the
    /// engine stamps it. Built by hand: these tests read no clock.
    fn trace(run: RunId) -> Arc<SpanTrace> {
        let span = |id: u64, parent: Option<u64>, name: &str, kind| Span {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: name.into(),
            kind,
            start_ns: id,
            end_ns: Some(10 - id),
            attrs: Vec::new(),
        };
        let mut root = span(1, None, "view:v", SpanKind::View);
        root.attrs.push(("run_id", AttrValue::from(run.to_string())));
        Arc::new(SpanTrace::from_spans(vec![
            root,
            span(2, Some(1), "phase:release", SpanKind::Phase),
        ]))
    }

    /// A record holding only a trace.
    fn bare(run: RunId) -> RunRecord {
        RunRecord {
            run_id: run,
            view: "v".into(),
            error: false,
            rejected: 0,
            trace: trace(run),
            stats: None,
            decisions: None,
        }
    }

    /// A record whose decisions cover `items` bare items.
    fn record(run: u64, items: Range<usize>) -> RunRecord {
        let run_id = RunId::from_u64(run);
        let decisions = Decisions {
            items: items.map(term).collect(),
            evidence: Vec::new(),
            tags: Vec::new(),
            groups: Vec::new(),
        };
        RunRecord {
            stats: Some(RunStats { run_id: Some(run_id), ..RunStats::default() }),
            decisions: Some(Arc::new(decisions)),
            ..bare(run_id)
        }
    }

    fn records(ledger: &RunLedger) -> usize {
        ledger.ring.read().records.len()
    }

    /// The decision traces a run's record holds; empty when the run left
    /// the ring or holds none.
    fn decisions_of(ledger: &RunLedger, run: RunId) -> Vec<DecisionTrace> {
        ledger.record(run).map_or_else(Vec::new, |r| r.decision_traces())
    }

    const ITEM: &str = "urn:lsid:t:h:1";

    /// A one-item record carrying one evidence value, one tag and one
    /// filter verdict the item passed.
    fn sample_record(run: RunId) -> RunRecord {
        let column = |name: &str, by: &str, span, value| Column {
            name: name.into(),
            by: Some(by.into()),
            span,
            values: vec![Some(value)],
        };
        let decisions = Decisions {
            items: vec![Term::iri(ITEM)],
            evidence: vec![(
                Iri::new("urn:q:HitRatio"),
                column("HitRatio", "PedroRepo", 4, EvidenceValue::Number(0.9)),
            )],
            tags: vec![column(
                "ScoreClass",
                "PIScore",
                7,
                EvidenceValue::Class(Iri::new("urn:q#high")),
            )],
            groups: vec![Membership {
                group: "filter top k score".into(),
                condition: Some("ScoreClass in q:high".into()),
                span: 9,
                filter: true,
                members: vec![1],
            }],
        };
        RunRecord { decisions: Some(Arc::new(decisions)), ..bare(run) }
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        use crate::engine::QualityEngine;
        use crate::spec::QualityViewSpec;
        use qurator_services::DataSet;

        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        assert!(!engine.ledger().enabled(), "decision capture is off by default");
        let mut dataset = DataSet::new();
        for (n, hit_ratio) in [(1, 0.9), (2, 0.2)] {
            dataset.push(
                Term::iri(format!("urn:lsid:pedro.man.ac.uk:hit:H{n}")),
                [("hitRatio", EvidenceValue::from(hit_ratio))],
            );
        }
        let run = RunId::mint();
        engine.execute_view_run(&QualityViewSpec::paper_example(), &dataset, run).unwrap();
        assert!(engine.ledger().is_empty());
        assert!(engine.why("urn:lsid:pedro.man.ac.uk:hit:H1").is_none());
        assert!(engine.ledger().record(run).unwrap().decision_traces().is_empty());
        // the run still leaves its stats behind
        assert_eq!(engine.run_stats(run).unwrap().run_id, Some(run));
    }

    #[test]
    fn why_round_trip() {
        let ledger = RunLedger::default();
        let run = RunId::from_u64(0xFEED);
        ledger.push(sample_record(run));
        let trace = ledger.why(ITEM).unwrap();
        assert_eq!(trace.run_id, Some(run));
        assert_eq!(trace.evidence.len(), 1);
        assert_eq!(trace.assertions[0].value, "high");
        assert_eq!(trace.actions[0].outcome.as_ref(), "accepted");
        let rendered = trace.render_with(None);
        assert!(rendered.contains("HitRatio = 0.9 (from PedroRepo)"));
        assert!(rendered.contains("ScoreClass = high (by PIScore)"));
        assert!(rendered.contains("filter top k score -> accepted"));
        // suffix find
        let found = ledger.find("h:1");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].item, ITEM);
        assert!(ledger.find("nope").is_empty());
    }

    #[test]
    fn for_run_slices_the_ledger_by_run() {
        let ledger = RunLedger::default();
        let (first, second) = (RunId::from_u64(1), RunId::from_u64(2));
        ledger.push(sample_record(first));
        ledger.push(record(2, 7..8));
        assert_eq!(decisions_of(&ledger, first).len(), 1);
        assert_eq!(decisions_of(&ledger, first)[0].item, ITEM);
        assert!(ledger.record(RunId::from_u64(3)).is_none());
        // one lookup answers with the whole record
        let whole = ledger.record(second).unwrap();
        assert_eq!(whole.decision_traces()[0].item, "urn:lsid:t:h:0007");
        assert_eq!(whole.stats.as_ref().unwrap().run_id, Some(second));
        assert!(Arc::ptr_eq(&whole.trace, &ledger.trace(second).unwrap()));
    }

    #[test]
    fn view_stats_merges_that_views_runs_in_the_ring() {
        let ledger = RunLedger::default();
        let run_of = |run: u64, view: &str, rows: u64| {
            let run_id = RunId::from_u64(run);
            let mut stats = RunStats {
                view: view.into(),
                run_id: Some(run_id),
                items: rows,
                ..RunStats::default()
            };
            let keep =
                NodeStats { calls: 1, rows_in: rows, rows_out: rows / 2, ..NodeStats::default() };
            stats.nodes.insert("keep".into(), keep);
            RunRecord { view: view.into(), stats: Some(stats), ..bare(run_id) }
        };
        ledger.push(run_of(1, "a", 4));
        ledger.push(run_of(2, "b", 10));
        ledger.push(run_of(3, "a", 6));
        ledger.push(bare(RunId::from_u64(4)));
        let a = ledger.view_stats("a").unwrap();
        assert_eq!((a.view.as_str(), a.run_id, a.items), ("a", None, 10));
        let keep = a.node("keep").unwrap();
        assert_eq!((keep.calls, keep.rows_in, keep.rows_out), (2, 10, 5));
        assert_eq!(ledger.view_stats("b").unwrap().items, 10);
        assert!(ledger.view_stats("v").is_none(), "its one run recorded no stats");
        assert!(ledger.view_stats("nope").is_none());
    }

    #[test]
    fn recent_jsonl_offsets_span_ids_per_trace() {
        let ledger = RunLedger::default();
        for run in 1..=5 {
            ledger.push(record(run, 0..1));
        }
        let newest = RunId::from_u64(5);
        let jsonl = ledger.recent_jsonl(5);
        // 5 traces × 2 spans validate as one document: the export offsets
        // each trace's ids past the previous trace's
        assert_eq!(validate_trace_jsonl(&jsonl).unwrap(), 10);
        let first_header = jsonl.lines().next().unwrap();
        assert!(first_header.contains(&format!("\"run_id\":\"{newest}\"")), "newest first");
        assert!(first_header.contains("\"error\":false"), "{first_header}");
        // the records keep their own ids, which their decisions name
        assert_eq!(ledger.trace(RunId::from_u64(1)).unwrap().spans()[0].id, SpanId(1));
        assert_eq!(ledger.recent_jsonl(2).lines().filter(|l| l.contains("\"trace\"")).count(), 2);
    }

    #[test]
    fn bounded_capacity_evicts_oldest_items_first() {
        let ledger = RunLedger::default();
        ledger.set_trace_capacity(4);
        let one_item = |run: u64, item: u64| RunRecord {
            decisions: Some(Arc::new(Decisions {
                items: vec![Term::iri(format!("item:{item}"))],
                evidence: Vec::new(),
                tags: Vec::new(),
                groups: Vec::new(),
            })),
            ..bare(RunId::from_u64(run))
        };
        for i in 0..10 {
            ledger.push(one_item(i, i));
        }
        assert_eq!(ledger.len(), 4);
        assert_eq!(ledger.items(), vec!["item:6", "item:7", "item:8", "item:9"]);
        // a re-run of a retained item is a new run: it spends budget, so
        // the oldest run's decisions go
        ledger.push(one_item(10, 8));
        assert_eq!(ledger.items(), vec!["item:7", "item:8", "item:9"]);
        // shrinking the capacity evicts immediately
        ledger.set_trace_capacity(2);
        assert_eq!(ledger.items(), vec!["item:8", "item:9"]);
        assert_eq!(ledger.why("item:8").unwrap().run_id, Some(RunId::from_u64(10)));
    }

    #[test]
    fn a_rerun_keeps_the_earlier_runs_decisions() {
        let ledger = RunLedger::default();
        ledger.push(record(1, 0..3));
        ledger.push(record(2, 0..3));
        let first = decisions_of(&ledger, RunId::from_u64(1));
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|t| t.run_id == Some(RunId::from_u64(1))));
        // lookups by item answer from the newest run, and count items once
        assert_eq!(ledger.why("urn:lsid:t:h:0001").unwrap().run_id, Some(RunId::from_u64(2)));
        assert_eq!(ledger.find("h:0002").len(), 1);
        assert_eq!(ledger.len(), 3);
    }

    #[test]
    fn the_item_budget_evicts_decisions_but_keeps_stats() {
        let ledger = RunLedger::default();
        ledger.set_trace_capacity(4);
        ledger.push(record(1, 0..3));
        ledger.push(record(2, 3..6));
        let evicted = RunId::from_u64(1);
        assert!(
            decisions_of(&ledger, evicted).is_empty(),
            "over budget: the older run's decisions go"
        );
        assert_eq!(ledger.stats(evicted).unwrap().run_id, Some(evicted));
        assert_eq!(ledger.len(), 3);
        // the newest run is kept whole even when it alone exceeds the budget
        ledger.push(record(3, 0..10));
        assert_eq!(decisions_of(&ledger, RunId::from_u64(3)).len(), 10);
        assert!(decisions_of(&ledger, RunId::from_u64(2)).is_empty());
        assert_eq!(records(&ledger), 3);
        assert_eq!(ledger.last_stats().unwrap().run_id, Some(RunId::from_u64(3)));
        // shrinking the budget applies at once, still sparing the newest
        ledger.set_trace_capacity(1);
        assert_eq!(ledger.len(), 10);
    }

    #[test]
    fn the_ring_holds_at_most_run_capacity_records() {
        let ledger = RunLedger::default();
        for run in 0..RUN_CAPACITY as u64 + 10 {
            ledger.push(record(run, 0..1));
        }
        assert_eq!(records(&ledger), RUN_CAPACITY);
        assert!(ledger.stats(RunId::from_u64(9)).is_none());
        assert!(ledger.stats(RunId::from_u64(10)).is_some());
    }

    #[test]
    fn concurrent_pushes_respect_both_bounds() {
        const BUDGET: usize = 20;
        let ledger = RunLedger::default();
        ledger.set_trace_capacity(BUDGET);
        std::thread::scope(|scope| {
            for thread in 0..2u64 {
                let ledger = &ledger;
                scope.spawn(move || {
                    for i in 0..150u64 {
                        let size = 1 + (i % 7) as usize;
                        ledger.push(record(thread << 32 | i, 0..size));
                    }
                });
            }
        });
        let ring = ledger.ring.read();
        assert_eq!(ring.records.len(), RUN_CAPACITY);
        let held: usize = ring.records.iter().map(RunRecord::decision_items).sum();
        assert_eq!(held, ring.items, "the item count tracks the records");
        let newest = ring.records.back().unwrap().decision_items();
        assert!(held - newest <= BUDGET, "{held} items held, {newest} in the newest run");
        assert!(ring.records.iter().all(|r| r.stats.is_some()), "stats outlive decisions");
        // every record keeps the trace it was pushed with
        for r in &ring.records {
            let root = r.trace.roots().next().expect("root span");
            assert_eq!(root.attr("run_id"), Some(&AttrValue::from(r.run_id.to_string())));
        }
    }

    /// The export of `GET /traces/recent`, rendered while other threads
    /// push, is schema-valid at every snapshot: never a torn header or a
    /// span line of a half-pushed record.
    #[test]
    fn recent_jsonl_stays_schema_valid_under_concurrent_push() {
        const WRITERS: u64 = 2;
        const PUSHES: u64 = 100;
        let ledger = RunLedger::default();
        // the reader starts exporting when every writer is halfway, so
        // its snapshots race the second half of the pushes
        let halfway = std::sync::Barrier::new(WRITERS as usize + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                halfway.wait();
                loop {
                    let finished = done.load(Ordering::Relaxed);
                    let jsonl = ledger.recent_jsonl(32);
                    validate_trace_jsonl(&jsonl).expect("mid-flight export schema-valid");
                    if finished {
                        break;
                    }
                }
            });
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (ledger, halfway) = (&ledger, &halfway);
                    scope.spawn(move || {
                        for i in 0..PUSHES {
                            if i == PUSHES / 2 {
                                halfway.wait();
                            }
                            ledger.push(bare(RunId::from_u64((w << 32) | (i + 1))));
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().expect("writer thread");
            }
            done.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread");
        });
        let jsonl = ledger.recent_jsonl(usize::MAX);
        assert_eq!(validate_trace_jsonl(&jsonl).unwrap(), 2 * (WRITERS * PUSHES) as usize);
    }

    #[test]
    fn run_ids_are_retained_and_resolvable() {
        let ledger = RunLedger::default();
        let runs: Vec<RunId> = (1..=4).map(|n| RunId::from_u64(n << 40 | n)).collect();
        for (i, run) in runs.iter().enumerate() {
            ledger.push(RunRecord { view: format!("v{i}").into(), ..bare(*run) });
        }
        let found = ledger.record(runs[2]).expect("run 2 in the ring");
        assert_eq!(&*found.view, "v2");
        assert_eq!(found.run_id, runs[2]);
        assert!(ledger.record(RunId::from_u64(5 << 40 | 5)).is_none(), "never pushed");
        // the export header carries the id in its 16-hex rendering
        let jsonl = ledger.recent_jsonl(usize::MAX);
        for run in &runs {
            assert!(jsonl.contains(&format!("\"run_id\":\"{run}\"")), "{run} missing");
        }
    }

    /// While writers churn the ring past its capacity, each writer's
    /// newest run resolves at once; afterwards the ring holds exactly
    /// [`RUN_CAPACITY`] records, their run ids are unique and round-trip
    /// through their text form, and the export's span ids are unique
    /// across every trace.
    #[test]
    fn concurrent_pushes_stay_bounded_and_unique() {
        let ledger = RunLedger::default();
        let pinned = RunId::from_u64(u64::MAX);
        ledger.push(bare(pinned));
        std::thread::scope(|scope| {
            for w in 0..2u64 {
                let ledger = &ledger;
                scope.spawn(move || {
                    for i in 0..RUN_CAPACITY as u64 {
                        let run = RunId::from_u64((w << 32) | (i + 1));
                        ledger.push(bare(run));
                        let found = ledger.record(run).expect("a just-pushed run resolves");
                        assert_eq!(found.run_id, run);
                        assert!(Arc::ptr_eq(&found.trace, &ledger.trace(run).unwrap()));
                    }
                });
            }
        });
        assert!(ledger.record(pinned).is_none(), "the churn evicted the oldest run");
        let recent = ledger.recent(usize::MAX);
        assert_eq!(recent.len(), RUN_CAPACITY);
        let ids: HashSet<RunId> = recent.iter().map(|r| r.run_id).collect();
        assert_eq!(ids.len(), recent.len(), "duplicate run ids in the ring");
        for r in &recent {
            assert_eq!(RunId::parse(&r.run_id.to_string()), Some(r.run_id));
        }
        // the schema check rejects a repeated span id anywhere in the export
        let jsonl = ledger.recent_jsonl(usize::MAX);
        assert_eq!(validate_trace_jsonl(&jsonl).unwrap(), 2 * RUN_CAPACITY);
    }
}
