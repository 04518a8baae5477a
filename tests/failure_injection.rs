//! Failure injection across layers: malformed inputs and broken
//! configurations must produce diagnostics, not panics or silent
//! misbehaviour.

use qurator::prelude::*;
use qurator::spec::{ActionDecl, ActionKind, AssertionDecl, TagKind, VarDecl};
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;

fn engine() -> QualityEngine {
    QualityEngine::with_proteomics_defaults().expect("engine")
}

fn hits(n: usize) -> DataSet {
    let mut ds = DataSet::new();
    for i in 0..n {
        ds.push(
            Term::iri(format!("urn:lsid:t:h:{i}")),
            [
                ("hitRatio", EvidenceValue::from(0.1 * i as f64)),
                ("massCoverage", EvidenceValue::from(3.0 * i as f64)),
                ("peptidesCount", EvidenceValue::from(i as i64)),
            ],
        );
    }
    ds
}

#[test]
fn malformed_xml_views_are_rejected_with_positions() {
    for (xml, needle) in [
        ("<QualityView name='v'><Annotator/></QualityView>", "variables"),
        ("<QualityView name='v'><action name='a'><filter/></action></QualityView>", "condition"),
        ("<QualityView", "xml"),
        ("", "xml"),
        ("<QualityView name='v'><action name='a'><filter><condition>)</condition></filter></action></QualityView>", "syntax"),
    ] {
        let err = qurator::xmlio::parse_quality_view(xml)
            .map(|spec| engine().validate(&spec).map(|_| ()))
            .map_or_else(|e| e.to_string(), |r| r.map_or_else(|e| e.to_string(), |_| String::new()));
        assert!(
            err.to_lowercase().contains(&needle.to_lowercase()),
            "xml {xml:?} should mention {needle:?}, got {err:?}"
        );
    }
}

#[test]
fn unknown_evidence_and_services_fail_validation_not_execution() {
    let engine = engine();
    let mut spec = QualityViewSpec::paper_example();
    spec.assertions[0].variables[0] = VarDecl::named("coverage", "q:NotAnEvidenceType");
    let err = engine.execute_view(&spec, &hits(3)).unwrap_err();
    // validation failures now carry the full collect-all diagnostic list
    assert!(matches!(err, qurator::QuratorError::Diagnostics(_)), "{err}");
    assert!(err.to_string().contains("not a QualityEvidence"), "{err}");
}

#[test]
fn condition_referencing_future_tag_is_rejected() {
    let engine = engine();
    let mut spec = QualityViewSpec::paper_example();
    // move the classifier before its input score QA
    let classifier = spec.assertions.remove(2);
    spec.assertions.insert(0, classifier);
    let err = engine.validate(&spec).unwrap_err();
    assert!(err.to_string().contains("no earlier assertion"), "{err}");
}

#[test]
fn empty_dataset_flows_through_cleanly() {
    let engine = engine();
    let outcome = engine
        .execute_view(&QualityViewSpec::paper_example(), &DataSet::new())
        .expect("empty data is not an error");
    assert!(outcome.groups.iter().all(|g| g.dataset.is_empty()));
}

#[test]
fn single_item_collections_survive_degenerate_statistics() {
    // avg ± stddev over one element: stddev 0 → everything is "mid"
    let engine = engine();
    let outcome = engine.execute_view(&QualityViewSpec::paper_example(), &hits(1)).expect("runs");
    // condition requires HR_MC > 20; a lone z-score is 0 → rejected
    assert!(outcome.groups[0].dataset.is_empty());
}

#[test]
fn dataset_with_missing_fields_yields_null_tags_not_errors() {
    let engine = engine();
    let mut ds = DataSet::new();
    // one full row, one with only hitRatio
    ds.push(
        Term::iri("urn:lsid:t:h:full"),
        [
            ("hitRatio", EvidenceValue::from(0.9)),
            ("massCoverage", EvidenceValue::from(40.0)),
            ("peptidesCount", EvidenceValue::from(10i64)),
        ],
    );
    ds.push(Term::iri("urn:lsid:t:h:sparse"), [("hitRatio", EvidenceValue::from(0.9))]);
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind = ActionKind::Filter { condition: "ScoreClass in q:high, q:mid".into() };
    let outcome = engine.execute_view(&spec, &ds).expect("runs");
    let kept = &outcome.groups[0];
    // the sparse item's HR_MC is Null → its class is Null → filtered out
    assert_eq!(kept.dataset.items(), &[Term::iri("urn:lsid:t:h:full")]);
}

#[test]
fn duplicate_group_names_rejected() {
    let engine = engine();
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind = ActionKind::Split {
        groups: vec![("g".into(), "HR_MC > 0".into()), ("g".into(), "HR_MC < 0".into())],
    };
    assert!(engine.validate(&spec).is_err());
}

#[test]
fn repository_type_violation_surfaces_at_execution() {
    // an assertion service that tries to write its tag as *evidence* of a
    // non-evidence class would be refused by the repository; simulate by
    // annotating directly
    let engine = engine();
    let cache = engine.catalog().create("cache", false).expect("cache");
    let err = cache
        .annotate(&Term::iri("urn:lsid:t:h:1"), &q::iri("UniversalPIScore"), 1.0.into())
        .unwrap_err();
    assert!(err.to_string().contains("QualityEvidence"));
}

#[test]
fn division_by_zero_in_condition_is_reported() {
    let engine = engine();
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind = ActionKind::Filter { condition: "HR_MC / 0 > 1".into() };
    let err = engine.execute_view(&spec, &hits(3)).unwrap_err();
    assert!(err.to_string().contains("division"), "{err}");
}

#[test]
fn deep_chain_of_tag_dependencies_compiles_and_runs() {
    // stress the compiler's chaining logic: QA_i consumes tag of QA_{i-1}
    let engine = engine();
    let mut spec = QualityViewSpec::new("chain");
    spec.annotators = QualityViewSpec::paper_example().annotators;
    spec.assertions.push(AssertionDecl {
        service_name: "base".into(),
        service_type: "q:UniversalPIScore".into(),
        tag_name: "T0".into(),
        tag_kind: TagKind::Score,
        tag_sem_type: None,
        repository_ref: "cache".into(),
        variables: vec![VarDecl::named("hitratio", "q:HitRatio")],
    });
    for i in 1..6 {
        spec.assertions.push(AssertionDecl {
            service_name: format!("link{i}"),
            service_type: "q:UniversalPIScore".into(),
            tag_name: format!("T{i}"),
            tag_kind: TagKind::Score,
            tag_sem_type: None,
            repository_ref: "cache".into(),
            variables: vec![VarDecl::named("hitratio", format!("tag:T{}", i - 1))],
        });
    }
    spec.actions.push(ActionDecl {
        name: "keep".into(),
        kind: ActionKind::Filter { condition: "T5 > 0".into() },
    });
    // validator must pass; but the annotator provides MC/PC that nothing
    // consumes → trim its variables to hitRatio only
    spec.annotators[0].variables = vec![VarDecl::evidence("q:HitRatio")];

    let dataset = hits(6);
    let direct = engine.execute_view(&spec, &dataset).expect("interprets");
    let workflow = engine.compile(&spec).expect("compiles");
    let (compiled, _) = qurator::compile::enact(&workflow, &spec, &dataset).expect("enacts");
    assert_eq!(direct, compiled);
    assert!(!direct.groups[0].dataset.is_empty());
}
