//! Extending the framework with user-defined components — the paper's
//! central cost-effectiveness claim (§1: "domain experts can rapidly and
//! easily encode and test their own heuristic quality criteria").
//!
//! This example:
//! 1. registers a *new* evidence type (`q:LabReputation`) and a *new*
//!    assertion class (`q:WeightedLabScore`) in the IQ model;
//! 2. implements and registers a custom annotation service and a custom
//!    decision model;
//! 3. authors a quality view with a **splitter** action partitioning data
//!    into trusted / review / rejected groups;
//! 4. runs the view, then edits one condition on the fly and re-runs
//!    (the §4 condition-editing loop).
//!
//! ```sh
//! cargo run --example custom_quality_view
//! ```

use qurator::prelude::*;
use qurator_annotations::AnnotationRepository;
use qurator_ontology::IqModel;
use qurator_rdf::namespace::q;
use qurator_rdf::term::{Iri, Term};
use qurator_services::{AnnotationService, AssertionService, VariableBindings};
use std::sync::Arc;

/// A domain-specific annotation function: looks the originating lab up in
/// a reputation table (the paper's example of heuristic evidence —
/// "the reputation and track record of the originating lab … may be a
/// good discriminator for quality").
struct LabReputationAnnotator;

impl AnnotationService for LabReputationAnnotator {
    fn service_type(&self) -> Iri {
        q::iri("LabReputationAnnotation")
    }

    fn provides(&self) -> Vec<Iri> {
        vec![q::iri("LabReputation")]
    }

    fn annotate(
        &self,
        data: &DataSet,
        repository: &AnnotationRepository,
    ) -> qurator_services::Result<usize> {
        let mut written = 0;
        for item in data.items() {
            let lab = data.field(item, "lab");
            let reputation = match lab.as_text() {
                Some("aberdeen-mcb") => 0.95,
                Some("manchester-cs") => 0.85,
                Some("unknown-lab") => 0.30,
                _ => 0.50,
            };
            repository.annotate(item, &q::iri("LabReputation"), reputation.into())?;
            written += 1;
        }
        Ok(written)
    }
}

/// A custom decision model: reputation-weighted hit ratio.
struct WeightedLabScore;

impl AssertionService for WeightedLabScore {
    fn service_type(&self) -> Iri {
        q::iri("WeightedLabScore")
    }

    fn expected_variables(&self) -> Vec<String> {
        vec!["hr".into(), "rep".into()]
    }

    fn assert_quality(
        &self,
        map: &mut AnnotationMap,
        bindings: &VariableBindings,
        tag: &str,
    ) -> qurator_services::Result<()> {
        for item in map.items().to_vec() {
            let hr = bindings.value(map, &item, "hr").as_number();
            let rep = bindings.value(map, &item, "rep").as_number();
            let value = match (hr, rep) {
                (Some(hr), Some(rep)) => EvidenceValue::Number(100.0 * hr * rep),
                _ => EvidenceValue::Null,
            };
            map.set_tag(&item, tag, value);
        }
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- 1. extend the IQ model
    let mut iq = IqModel::with_proteomics_extension()?;
    iq.register_evidence_type("LabReputation", None)?;
    iq.register_annotation_function("LabReputationAnnotation")?;
    iq.register_assertion_type("WeightedLabScore")?;
    iq.assign_dimension("WeightedLabScore", &qurator_ontology::iq::vocab::reputation())?;
    iq.ontology().check_consistency()?;

    // -- 2. build an engine and register both stock and custom services
    let engine = QualityEngine::new(iq);
    engine.register_annotation_service(Arc::new(
        qurator_services::stdlib::FieldCaptureAnnotator::new(
            q::iri("ImprintOutputAnnotation"),
            &[("hitRatio", q::iri("HitRatio"))],
        ),
    ))?;
    engine.register_annotation_service(Arc::new(LabReputationAnnotator))?;
    engine.register_assertion_service(Arc::new(WeightedLabScore))?;

    // -- 3. the quality view, with a splitter
    let xml = r#"
      <QualityView name="lab-triage">
        <Annotator serviceName="imprint" serviceType="q:ImprintOutputAnnotation">
          <variables repositoryRef="cache" persistent="false">
            <var evidence="q:HitRatio"/>
          </variables>
        </Annotator>
        <Annotator serviceName="reputation" serviceType="q:LabReputationAnnotation">
          <variables repositoryRef="cache" persistent="false">
            <var evidence="q:LabReputation"/>
          </variables>
        </Annotator>
        <QualityAssertion serviceName="weighted" serviceType="q:WeightedLabScore"
                          tagName="WScore" tagSynType="q:score">
          <variables repositoryRef="cache">
            <var variableName="hr" evidence="q:HitRatio"/>
            <var variableName="rep" evidence="q:LabReputation"/>
          </variables>
        </QualityAssertion>
        <action name="triage">
          <splitter>
            <group name="trusted"><condition>WScore &gt;= 60</condition></group>
            <group name="review"><condition>WScore &gt;= 25 and WScore &lt; 60</condition></group>
          </splitter>
        </action>
      </QualityView>"#;
    let mut view = qurator::xmlio::parse_quality_view(xml)?;

    // -- 4. data from three labs
    let mut dataset = DataSet::new();
    let rows: [(&str, &str, f64); 6] = [
        ("H1", "aberdeen-mcb", 0.9),
        ("H2", "aberdeen-mcb", 0.4),
        ("H3", "manchester-cs", 0.8),
        ("H4", "unknown-lab", 0.95),
        ("H5", "unknown-lab", 0.5),
        ("H6", "somewhere-else", 0.6),
    ];
    for (id, lab, hr) in rows {
        dataset.push(
            Term::iri(format!("urn:lsid:example.org:hit:{id}")),
            [("hitRatio", EvidenceValue::from(hr)), ("lab", EvidenceValue::from(lab))],
        );
    }

    let outcome = engine.execute_view(&view, &dataset)?;
    println!("== triage with WScore thresholds 60 / 25 ==");
    for group in &outcome.groups {
        let ids: Vec<&str> = group
            .dataset
            .items()
            .iter()
            .filter_map(|i| i.as_iri().map(|iri| iri.local_name()))
            .collect();
        println!("{:<18} {:?}", group.name, ids);
    }
    let trusted_before = outcome.group("triage/trusted").unwrap().dataset.len();

    // -- 5. edit a condition and re-run (no recompilation, §4)
    if let qurator::spec::ActionKind::Split { groups } = &mut view.actions[0].kind {
        groups[0].1 = "WScore >= 40".to_string();
    }
    let outcome = engine.execute_view(&view, &dataset)?;
    let trusted_after = outcome.group("triage/trusted").unwrap().dataset.len();
    println!("\nafter lowering the trusted threshold to 40:");
    println!("trusted group grew from {trusted_before} to {trusted_after} items");

    assert!(trusted_after >= trusted_before);
    Ok(())
}
