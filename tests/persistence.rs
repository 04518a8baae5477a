//! Persistence integration: Turtle round-trips of annotation
//! repositories, run-owned caches, and the warm-store execution path
//! (§4's persistent-annotation scenario).

use qurator::prelude::*;
use qurator::spec::{ActionDecl, ActionKind, AssertionDecl, TagKind, VarDecl};
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;
use std::sync::Arc;

fn item(n: u32) -> Term {
    Term::iri(format!("urn:lsid:uniprot.org:uniprot:P{n:05}"))
}

/// A view with no annotators: all evidence must come from the repository.
fn enrichment_only_view(repo: &str) -> QualityViewSpec {
    let mut spec = QualityViewSpec::new("warm");
    spec.assertions.push(AssertionDecl {
        service_name: "score".into(),
        service_type: "q:UniversalPIScore".into(),
        tag_name: "S".into(),
        tag_kind: TagKind::Score,
        tag_sem_type: None,
        repository_ref: repo.into(),
        variables: vec![VarDecl::named("hitratio", "q:HitRatio")],
    });
    spec.actions.push(ActionDecl {
        name: "keep".into(),
        kind: ActionKind::Filter { condition: "S > 0".into() },
    });
    spec
}

#[test]
fn turtle_snapshot_restores_execution_behaviour() {
    // engine A: populate a persistent repository and run
    let engine_a = QualityEngine::with_proteomics_defaults().expect("engine");
    let uniprot_a = engine_a.catalog().create("uniprot", true).expect("create");
    for i in 0..20u32 {
        uniprot_a
            .annotate(&item(i), &q::iri("HitRatio"), (i as f64 / 20.0).into())
            .expect("annotate");
    }
    let dataset = DataSet::from_items((0..20).map(item));
    let view = enrichment_only_view("uniprot");
    let outcome_a = engine_a.execute_view(&view, &dataset).expect("runs");

    // snapshot → engine B
    let turtle = uniprot_a.export_turtle();
    let engine_b = QualityEngine::with_proteomics_defaults().expect("engine");
    let uniprot_b = engine_b.catalog().create("uniprot", true).expect("create");
    uniprot_b.import_turtle(&turtle).expect("import");
    let outcome_b = engine_b.execute_view(&view, &dataset).expect("runs");

    assert_eq!(outcome_a, outcome_b);
    assert_eq!(uniprot_a.triple_count(), uniprot_b.triple_count());
}

#[test]
fn cache_clearing_isolates_executions() {
    // A run's cache belongs to that run: the catalog never holds it, and a
    // later run over other values for the same ids gets its solo answer.
    let hits = |rising: bool| {
        let mut ds = DataSet::new();
        for i in 0..5u32 {
            let quality = if rising { i } else { 4 - i } as f64;
            ds.push(
                item(i),
                [
                    ("hitRatio", EvidenceValue::from(0.2 * quality)),
                    ("massCoverage", EvidenceValue::from(8.0 * quality)),
                    ("peptidesCount", EvidenceValue::from(quality as i64)),
                ],
            );
        }
        ds
    };
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind =
        ActionKind::Filter { condition: "ScoreClass in q:high, q:mid and HR_MC > 0".into() };
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let first = engine.execute_view(&spec, &hits(true)).expect("runs");
    assert!(engine.catalog().get("cache").is_none(), "the run's cache outlived it");
    let second = engine.execute_view(&spec, &hits(false)).expect("runs");
    let solo = QualityEngine::with_proteomics_defaults()
        .expect("engine")
        .execute_view(&spec, &hits(false))
        .expect("runs");
    assert_eq!(second, solo);
    assert!(!second.groups[0].dataset.is_empty());
    assert_ne!(first.groups[0].dataset.items(), second.groups[0].dataset.items());
}

#[test]
fn stale_warm_store_yields_nulls_not_errors() {
    // items never annotated: enrichment yields nulls, the score QA tags
    // Null, the filter rejects — no failures anywhere
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    engine.catalog().create("uniprot", true).expect("create");
    let dataset = DataSet::from_items((100..105).map(item));
    let outcome = engine.execute_view(&enrichment_only_view("uniprot"), &dataset).expect("runs");
    assert!(outcome.groups[0].dataset.is_empty());
}

#[test]
fn concurrent_views_share_one_persistent_repository() {
    let engine = Arc::new(QualityEngine::with_proteomics_defaults().expect("engine"));
    let uniprot = engine.catalog().create("uniprot", true).expect("create");
    for i in 0..50u32 {
        uniprot.annotate(&item(i), &q::iri("HitRatio"), (i as f64).into()).expect("annotate");
    }
    let view = enrichment_only_view("uniprot");
    std::thread::scope(|scope| {
        for worker in 0..4u32 {
            let engine = engine.clone();
            let view = view.clone();
            scope.spawn(move || {
                let dataset = DataSet::from_items((worker * 10..worker * 10 + 10).map(item));
                let outcome = engine.execute_view(&view, &dataset).expect("runs");
                assert_eq!(outcome.groups.len(), 1);
            });
        }
    });
}

#[test]
fn unopenable_persistent_repository_is_an_execution_error() {
    // a regular file where the archive's store directory belongs
    let root = qurator_rdf::storage::test_support::TempDir::new("unopenable");
    std::fs::write(root.join("archive"), "not a store").expect("write");
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    engine.set_store_root(root.path()).expect("the scan skips regular files");
    let spec =
        qurator::xmlio::parse_quality_view(include_str!("../samples/persistent_archive.xml"))
            .expect("parses");
    let hits = DataSet::from_items((0..3).map(item));
    match engine.execute_view(&spec, &hits) {
        Err(QuratorError::Execution(message)) => {
            assert!(message.contains("\"archive\""), "{message}");
        }
        other => panic!("expected an execution error, got {other:?}"),
    }
    assert!(engine.catalog().get("archive").is_none());
}
