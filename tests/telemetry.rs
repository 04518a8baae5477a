//! Telemetry round-trip over the Figure 7 GO-term workflow (§6.3):
//! every quality decision the engine takes must be explainable after the
//! fact — `why(item)` returns a [`DecisionTrace`] whose accepted/rejected
//! verdicts agree exactly with the `ActionOutcome` the pipeline acted on,
//! and whose span links resolve inside the recorded span tree.

use qurator::prelude::*;
use qurator_proteomics::{World, WorldConfig};
use qurator_repro::ispider::{figure7_view, hits_to_dataset, FIGURE7_GROUP};
use qurator_repro::IspiderPipeline;
use qurator_telemetry::span::SpanId;
use std::collections::HashSet;

#[test]
fn why_round_trips_against_the_action_outcome() {
    let world = World::generate(&WorldConfig::paper_scale(42)).expect("testbed");
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    engine.set_provenance_enabled(true);

    let peak_list = &world.peak_lists()[0];
    let hits = world.imprint.search(peak_list);
    let dataset = hits_to_dataset(&peak_list.spot_id, &hits);
    assert!(!dataset.is_empty(), "spot produces hits");

    let spec = figure7_view();
    let outcome = engine.execute_view(&spec, &dataset).expect("quality view runs");
    let surviving = outcome.group(FIGURE7_GROUP).expect("filter group present");
    let survivors: HashSet<&str> = surviving
        .dataset
        .items()
        .iter()
        .filter_map(|item| item.as_iri().map(|iri| iri.as_str()))
        .collect();
    assert!(!survivors.is_empty(), "filter keeps the high class");
    assert!(survivors.len() < dataset.len(), "filter rejects something");

    let trace = engine.last_trace().expect("interpreter records a span trace");
    trace.validate().expect("well-formed span tree");
    let span_ids: HashSet<u64> = trace.spans().iter().map(|s| s.id.0).collect();

    for item in dataset.items() {
        let key = item.as_iri().expect("LSID item").as_str();
        let decision = engine.why(key).unwrap_or_else(|| panic!("no trace for {key}"));

        // evidence: the Imprint scores the view's enrichment fetched
        assert!(
            decision.evidence.iter().any(|e| e.property.as_ref() == "HitRatio"),
            "{key}: HitRatio evidence recorded"
        );
        // assertion: the avg+stddev classifier assigned a class
        let class = decision
            .assertions
            .iter()
            .find(|a| a.property.as_ref() == "ScoreClass")
            .unwrap_or_else(|| panic!("{key}: ScoreClass assertion recorded"));
        assert!(!class.value.to_string().is_empty());

        // action verdict agrees with the outcome the pipeline used
        let action = decision
            .actions
            .iter()
            .find(|a| a.group.as_ref() == FIGURE7_GROUP)
            .unwrap_or_else(|| panic!("{key}: action recorded for {FIGURE7_GROUP}"));
        let expected = if survivors.contains(key) { "accepted" } else { "rejected" };
        assert_eq!(action.outcome.as_ref(), expected, "{key}: ledger vs ActionOutcome");
        assert_eq!(action.condition.as_deref(), Some("ScoreClass in q:high"));

        // provenance links point into the recorded span tree
        for span in decision
            .evidence
            .iter()
            .filter_map(|e| e.span)
            .chain(decision.assertions.iter().filter_map(|a| a.span))
            .chain(decision.actions.iter().filter_map(|a| a.span))
        {
            assert!(span_ids.contains(&span), "{key}: span {span} resolves in the trace");
            assert!(trace.span(SpanId(span)).is_some());
        }
    }
}

#[test]
fn ledger_covers_the_whole_figure7_sample() {
    let world = World::generate(&WorldConfig::paper_scale(7)).expect("testbed");
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    engine.set_provenance_enabled(true);

    let pipeline = IspiderPipeline::new(&world, &engine);
    let filtered = pipeline.run_filtered(&figure7_view(), FIGURE7_GROUP).expect("filtered run");

    // every hit of every spot is accounted for in the ledger…
    let total_hits: usize =
        world.peak_lists().iter().map(|pl| world.imprint.search(pl).len()).sum();
    assert_eq!(engine.ledger().len(), total_hits, "one decision trace per hit");

    // …and the accepted count equals what the pipeline identified
    let accepted = engine
        .ledger()
        .items()
        .iter()
        .filter_map(|item| engine.why(item))
        .filter(|t| {
            t.actions
                .iter()
                .any(|a| a.group.as_ref() == FIGURE7_GROUP && a.outcome.as_ref() == "accepted")
        })
        .count();
    let identified: usize = filtered.spots.iter().map(|s| s.identified.len()).sum();
    assert_eq!(accepted, identified, "ledger verdicts vs pipeline output");

    // suffix lookup works for a surviving accession
    let accession =
        filtered.spots.iter().flat_map(|s| s.identified.iter()).next().expect("something survives");
    assert!(!engine.explain_item(accession).is_empty(), "explain_item finds {accession} by suffix");
}
