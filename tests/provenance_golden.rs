//! Golden provenance snapshots: the `DecisionTrace::to_json` line of
//! every item a run traced is pinned byte for byte in
//! `tests/provenance_golden/`, one JSON line per item in
//! `RunRecord::decision_traces` order.
//! The run id is fixed, so the snapshots are stable across machines.
//! `crates/cli/tests/cli.rs` pins the `qv explain --spans` and
//! `qv run --explain` renderings from the same directory.
//!
//! When a provenance change is intentional, regenerate with
//!
//! ```text
//! UPDATE_PROVENANCE_GOLDEN=1 cargo test --test provenance_golden
//! ```

use qurator::prelude::*;
use qurator_rdf::term::{Iri, Term};
use qurator_telemetry::RunId;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_dir() -> PathBuf {
    root().join("tests/provenance_golden")
}

/// `samples/hits.tsv`, or `extra` synthetic rows after it (all numeric).
fn dataset(extra: usize) -> DataSet {
    let text = std::fs::read_to_string(root().join("samples/hits.tsv")).unwrap();
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines.next().unwrap().split('\t').collect();
    let mut rows: Vec<Vec<String>> =
        lines.map(|l| l.split('\t').map(str::to_string).collect()).collect();
    for i in 0..extra {
        rows.push(vec![
            format!("urn:lsid:golden:hit:G{i:02}"),
            format!("{}", (i % 7) as f64 / 8.0),
            format!("{}", 3 + (i * 5) % 40),
            format!("{}", 1 + i % 11),
        ]);
    }
    let mut ds = DataSet::new();
    for cells in rows {
        let fields: Vec<(String, EvidenceValue)> = header[1..]
            .iter()
            .zip(&cells[1..])
            .map(|(column, cell)| (column.to_string(), cell.parse::<f64>().unwrap().into()))
            .collect();
        ds.push(Term::Iri(Iri::new(&cells[0])), fields);
    }
    ds
}

fn render(view: &str, extra: usize, run: u64) -> String {
    let xml = std::fs::read_to_string(root().join("samples").join(view)).unwrap();
    let spec = qurator::xmlio::parse_quality_view(&xml).unwrap();
    let engine = QualityEngine::with_proteomics_defaults().unwrap();
    engine.set_provenance_enabled(true);
    let run = RunId::from_u64(run);
    engine.execute_view_run(&spec, &dataset(extra), run).unwrap();
    let traces = engine.ledger().record(run).expect("the run's record").decision_traces();
    assert_eq!(traces.len(), 4 + extra, "one trace per item");
    traces.iter().map(|t| t.to_json() + "\n").collect()
}

#[test]
fn decision_traces_match_their_snapshots() {
    let cases = [
        ("splitter_view.traces.jsonl", render("splitter_view.xml", 0, 0x5eed)),
        ("splitter_view.extra.traces.jsonl", render("splitter_view.xml", 12, 0x5eed_0001)),
        ("paper_view.extra.traces.jsonl", render("paper_view.xml", 12, 0x5eed_0002)),
    ];
    let mut mismatches = Vec::new();
    for (name, rendered) in cases {
        let path = golden_dir().join(name);
        if std::env::var_os("UPDATE_PROVENANCE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden_dir()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Err(_) => mismatches.push(format!("{name}: snapshot missing")),
            Ok(expected) if expected != rendered => mismatches
                .push(format!("{name} changed.\n--- expected\n{expected}\n--- actual\n{rendered}")),
            Ok(_) => {}
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n\n"));
}
