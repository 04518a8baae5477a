//! Fidelity checks against specific sentences of the paper: the concrete
//! artifacts it prints (the §5.1 XML fragments, the §4.1 operator
//! semantics, the §6.1 compilation rules, Figure 2's annotation encoding)
//! must hold in this implementation.

use qurator::prelude::*;
use qurator::spec::ActionKind;
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;

#[test]
fn section_5_1_annotator_fragment_parses() {
    // near-verbatim from the paper (evidence names adapted to the IQ
    // model's registered types)
    let xml = r#"
      <QualityView name="fragment">
        <Annotator serviceName="ImprintOutputAnnotator"
                   serviceType="q:ImprintOutputAnnotation">
          <variables repositoryRef="cache" persistent="false">
            <var evidence="q:MassCoverage"/>
            <var evidence="q:HitRatio"/>
          </variables>
        </Annotator>
        <QualityAssertion serviceName="HR_MC_score" serviceType="q:UniversalPIScore2"
                          tagName="HR_MC" tagSynType="q:score">
          <variables repositoryRef="cache">
            <var variableName="coverage" evidence="q:MassCoverage"/>
            <var variableName="hitratio" evidence="q:HitRatio"/>
            <var variableName="peptidescount" evidence="q:PeptidesCount"/>
          </variables>
        </QualityAssertion>
        <action name="filter top k score">
          <filter>
            <condition>HR_MC &gt; 20</condition>
          </filter>
        </action>
      </QualityView>"#;
    let spec = qurator::xmlio::parse_quality_view(xml).expect("parses");
    assert_eq!(spec.annotators[0].repository_ref, "cache");
    assert!(!spec.annotators[0].persistent, "annotations valid for one execution");
    assert_eq!(spec.assertions[0].tag_name, "HR_MC");
}

#[test]
fn section_4_1_condition_examples_evaluate() {
    use qurator_expr::{parse, Env, Value};
    // "score < 3.2"
    let e = parse("score < 3.2").expect("parses");
    let mut env = Env::new();
    env.bind("score", Value::Num(2.0));
    assert!(e.accepts(&env).unwrap());
    // "PIScoreClassification IN { high, mid }"
    let e = parse("PIScoreClassification IN { 'high', 'mid' }").expect("parses");
    let mut env = Env::new();
    env.bind("PIScoreClassification", Value::symbol("q:mid"));
    assert!(e.accepts(&env).unwrap());
    env.bind("PIScoreClassification", Value::symbol("q:low"));
    assert!(!e.accepts(&env).unwrap());
}

#[test]
fn figure_2_annotation_encoding_matches() {
    // "P30089 is a Uniprot accession number, the LSID-wrapper of which is
    // the URN shown in the oval. The standard rdf:type property indicates
    // that this is an instance of Imprint Hit Entry. The data is annotated
    // with literal-encoded RDF values for quality evidence…"
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let cache = engine.catalog().create("cache", false).expect("cache");
    let p30089 = Term::iri("urn:lsid:uniprot.org:uniprot:P30089");
    cache.record_item_type(&p30089, &q::iri("ImprintHitEntry")).expect("typed");
    cache.annotate(&p30089, &q::iri("HitRatio"), 0.82.into()).expect("annotated");
    cache.annotate(&p30089, &q::iri("MassCoverage"), 31.into()).expect("annotated");

    // the annotation graph answers the paper's canonical SPARQL shape
    let rows = cache
        .query(
            r#"PREFIX q: <http://qurator.org/iq#>
               PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               SELECT ?v WHERE {
                 <urn:lsid:uniprot.org:uniprot:P30089> rdf:type q:ImprintHitEntry ;
                     q:contains-evidence ?e .
                 ?e rdf:type q:HitRatio ; q:value ?v .
               }"#,
        )
        .expect("queries");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("v").and_then(|t| t.as_literal()).and_then(|l| l.as_f64()), Some(0.82));
}

#[test]
fn section_6_1_compile_rules_hold() {
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let wf = engine.compile(&QualityViewSpec::paper_example()).expect("compiles");

    // "one single Data Enrichment (DE) operator"
    let de_nodes = wf.nodes().filter(|n| n.contains("DataEnrichment")).count();
    assert_eq!(de_nodes, 1);

    // "a control link is also installed from each of the annotators to the DE"
    assert!(wf
        .control_links()
        .iter()
        .any(|(a, b)| a == "ImprintOutputAnnotator" && b == "DataEnrichment"));

    // "the output from the DE … feeds all the QA processors" (modulo the
    // tag-chained classifier) and "data connectors are installed from each
    // of the QAs" to the consolidation task
    for qa in ["HR_MC_score", "HR_score", "PIScoreClassifier"] {
        assert!(wf
            .data_links()
            .iter()
            .any(|l| l.from.processor == qa && l.to.processor == "ConsolidateAssertions"));
    }

    // "the ConsolidateAssertions task is added by the compiler"
    assert!(wf.nodes().any(|n| n == "ConsolidateAssertions"));

    // annotators precede the DE, which precedes QAs, which precede actions
    let order = wf.topological_order().expect("acyclic");
    let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
    assert!(pos("ImprintOutputAnnotator") < pos("DataEnrichment"));
    assert!(pos("DataEnrichment") < pos("HR_MC_score"));
    assert!(pos("HR_MC_score") < pos("PIScoreClassifier"));
    assert!(pos("ConsolidateAssertions") < pos("filter top k score"));
}

#[test]
fn section_4_1_splitter_semantics() {
    // "The output consists of k+1 sets of pairs (D_i, Amap_i) … the
    // k+1-th output is a default group … groups D_1…D_k, not necessarily
    // disjoint"
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind = ActionKind::Split {
        groups: vec![
            ("positive".into(), "HR_MC > 0".into()),
            ("strong-or-positive".into(), "HR_MC > -1".into()),
        ],
    };
    let mut dataset = DataSet::new();
    for (i, hr) in [0.9, 0.7, 0.3, 0.1].iter().enumerate() {
        dataset.push(
            Term::iri(format!("urn:lsid:t:h:{i}")),
            [
                ("hitRatio", EvidenceValue::from(*hr)),
                ("massCoverage", EvidenceValue::from(*hr * 50.0)),
                ("peptidesCount", EvidenceValue::from((*hr * 10.0) as i64)),
            ],
        );
    }
    let outcome = engine.execute_view(&spec, &dataset).expect("runs");
    assert_eq!(outcome.groups.len(), 3, "k groups + default");
    let positive = outcome.group("filter top k score/positive").unwrap();
    let superset = outcome.group("filter top k score/strong-or-positive").unwrap();
    // overlap allowed: every positive item is also in the superset group
    for item in positive.dataset.items() {
        assert!(superset.dataset.items().contains(item));
    }
    // default holds exactly the items in no group
    let default = outcome.group("filter top k score/default").unwrap();
    for item in dataset.items() {
        let in_any =
            positive.dataset.items().contains(item) || superset.dataset.items().contains(item);
        assert_eq!(default.dataset.items().contains(item), !in_any);
    }
    // each group ships its restricted annotation map (D_i, Amap_i)
    for group in &outcome.groups {
        assert_eq!(group.map.len(), group.dataset.len());
    }
}

#[test]
fn run_time_model_views_apply_to_any_annotated_dataset() {
    // "a view is applicable to any data set for which evidence values are
    // available for the required evidence types" — run the same view over
    // two entirely different data domains
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let view = {
        let mut v = QualityViewSpec::paper_example();
        v.annotators.clear(); // enrichment-only
        v.actions[0].kind = ActionKind::Filter { condition: "HR_MC > 0".into() };
        v
    };
    let cache = engine.catalog().create("cache", false).expect("cache");
    for (domain, count) in [("proteins", 4u32), ("spectra", 3)] {
        for i in 0..count {
            let item = Term::iri(format!("urn:lsid:test:{domain}:{i}"));
            cache.annotate(&item, &q::iri("HitRatio"), (i as f64).into()).unwrap();
            cache.annotate(&item, &q::iri("MassCoverage"), (i as f64).into()).unwrap();
            cache.annotate(&item, &q::iri("PeptidesCount"), (i as f64).into()).unwrap();
        }
        let dataset = DataSet::from_items(
            (0..count).map(|i| Term::iri(format!("urn:lsid:test:{domain}:{i}"))),
        );
        let outcome = engine.execute_view(&view, &dataset).expect("runs");
        assert!(!outcome.groups[0].dataset.is_empty(), "domain {domain}");
    }
}
