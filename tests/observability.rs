//! Observability integration: the run ring's trace export, exercised
//! through the engine on the Figure 7 workload (§6.3).
//!
//! * The JSON-lines export of the run ring (`/traces/recent`) must agree
//!   with the in-memory records trace by trace, stay schema-valid, and
//!   never produce torn records while enactments run in parallel.
//! * A run id keeps resolving to its own record while parallel
//!   enactments churn the ring past its capacity.

use std::collections::HashSet;

use qurator::ledger::RUN_CAPACITY;
use qurator::prelude::*;
use qurator_proteomics::{World, WorldConfig};
use qurator_rdf::term::Term;
use qurator_repro::ispider::{figure7_view, hits_to_dataset};
use qurator_telemetry::span::AttrValue;
use qurator_telemetry::{json, schema, RunId};

fn figure7_dataset(world: &World) -> DataSet {
    let peak_list = &world.peak_lists()[0];
    let hits = world.imprint.search(peak_list);
    let dataset = hits_to_dataset(&peak_list.spot_id, &hits);
    assert!(!dataset.is_empty(), "spot produces hits");
    dataset
}

#[test]
fn ring_export_agrees_with_memory_under_parallel_enactment() {
    let world = World::generate(&WorldConfig::paper_scale(7)).expect("testbed");
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");

    let spec = figure7_view();
    let dataset = figure7_dataset(&world);
    const WRITERS: usize = 4;
    const RUNS: usize = 8;

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            scope.spawn(|| {
                for _ in 0..RUNS {
                    engine.execute_view(&spec, &dataset).expect("parallel run");
                }
            });
        }
        // a concurrent reader snapshots the export mid-flight: whatever it
        // sees must already be schema-valid (no torn or half-written records)
        scope.spawn(|| {
            for _ in 0..24 {
                let jsonl = engine.ledger().recent_jsonl(usize::MAX);
                if !jsonl.is_empty() {
                    schema::validate_trace_jsonl(&jsonl).expect("mid-flight export is well-formed");
                }
                std::thread::yield_now();
            }
        });
    });

    // quiescent: the ring holds every run's record, newest first
    let records = engine.ledger().recent(usize::MAX);
    assert_eq!(records.len(), WRITERS * RUNS);

    // the export and the in-memory ring agree run by run: one header per
    // record, in ring order, followed by that record's spans by name
    let jsonl = engine.ledger().recent_jsonl(usize::MAX);
    let span_count = schema::validate_trace_jsonl(&jsonl).expect("final export is schema-valid");
    assert_eq!(span_count, records.iter().map(|r| r.trace.len()).sum::<usize>());
    let lines: Vec<json::Value> = jsonl.lines().map(|l| json::parse(l).unwrap()).collect();
    let mut at = 0;
    let mut exported_ids = HashSet::new();
    for record in &records {
        let header = &lines[at];
        assert_eq!(header.get("type").and_then(|v| v.as_str()), Some("trace"));
        let run = record.run_id.to_string();
        assert_eq!(header.get("run_id").and_then(|v| v.as_str()), Some(run.as_str()));
        assert_eq!(header.get("spans").and_then(|v| v.as_u64()), Some(record.trace.len() as u64));
        for (span, line) in record.trace.spans().iter().zip(&lines[at + 1..]) {
            assert_eq!(line.get("name").and_then(|v| v.as_str()), Some(span.name.as_str()));
            exported_ids.insert(line.get("id").and_then(|v| v.as_u64()).unwrap());
        }
        at += 1 + record.trace.len();
    }
    assert_eq!(at, lines.len(), "the export holds nothing but the ring's records");
    assert_eq!(exported_ids.len(), span_count, "span ids are unique across traces");
}

#[test]
fn find_run_resolves_while_writers_churn_the_rings() {
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let spec = QualityViewSpec::paper_example();
    let mut dataset = DataSet::new();
    for (n, hit_ratio) in [(1, 0.9), (2, 0.2)] {
        dataset.push(
            Term::iri(format!("urn:lsid:pedro.man.ac.uk:hit:H{n}")),
            [("hitRatio", EvidenceValue::from(hit_ratio))],
        );
    }

    // pin one run we will look up, then churn past the ring's capacity
    // from two threads so eviction runs concurrently with the lookups
    let pinned = RunId::mint();
    engine.execute_view_run(&spec, &dataset, pinned).expect("pinned run");
    assert_eq!(engine.ledger().record(pinned).expect("pinned run resolves").run_id, pinned);
    const RUNS_PER_WRITER: usize = RUN_CAPACITY / 2 + 1;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..RUNS_PER_WRITER {
                    let run = RunId::mint();
                    engine.execute_view_run(&spec, &dataset, run).expect("churn run");
                    // lookups interleaved with other threads' pushes never tear
                    let found = engine.ledger().record(run).expect("just-finished run resolves");
                    assert_eq!(found.run_id, run);
                    assert_eq!(&*found.view, spec.name);
                    let root = found.trace.roots().next().expect("root span");
                    assert_eq!(root.attr("run_id"), Some(&AttrValue::from(run.to_string())));
                }
            });
        }
    });
    assert!(engine.ledger().record(pinned).is_none(), "the churn evicted the pinned run");

    // the ring is full, its run ids are distinct, and each parses back to
    // itself: the correlation key round-trips
    let records = engine.ledger().recent(usize::MAX);
    assert_eq!(records.len(), RUN_CAPACITY);
    let ids: HashSet<RunId> = records.iter().map(|r| r.run_id).collect();
    assert_eq!(ids.len(), records.len(), "duplicate run ids in the ring");
    for r in &records {
        let text = r.run_id.to_string();
        assert_eq!(RunId::parse(&text), Some(r.run_id), "{text}");
    }
}
