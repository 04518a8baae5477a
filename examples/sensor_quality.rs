//! Quality views outside the life sciences: environmental sensor data.
//!
//! The paper argues the framework is domain-independent — views "can be
//! applied to any data set that can be annotated with the input evidence
//! types" (§4.1). This example builds an entirely fresh IQ extension for
//! a sensor-network domain (no proteomics anywhere): evidence types are
//! calibration age, reading variance and network packet loss; the QA is
//! the stock z-score over those; the splitter triages stations into
//! `usable`, `recalibrate` and a default quarantine group.
//!
//! ```sh
//! cargo run --example sensor_quality
//! ```

use qurator::prelude::*;
use qurator_annotations::AnnotationRepository;
use qurator_ontology::IqModel;
use qurator_rdf::namespace::q;
use qurator_rdf::term::{Iri, Term};
use qurator_services::{AnnotationService, DataSet as Ds};
use std::sync::Arc;

/// Synthetic telemetry for one weather station.
struct Station {
    id: &'static str,
    days_since_calibration: f64,
    reading_variance: f64,
    packet_loss: f64,
}

const FLEET: [Station; 8] = [
    Station {
        id: "WS-001",
        days_since_calibration: 12.0,
        reading_variance: 0.4,
        packet_loss: 0.01,
    },
    Station {
        id: "WS-002",
        days_since_calibration: 420.0,
        reading_variance: 0.5,
        packet_loss: 0.02,
    },
    Station {
        id: "WS-003",
        days_since_calibration: 30.0,
        reading_variance: 6.5,
        packet_loss: 0.00,
    },
    Station {
        id: "WS-004",
        days_since_calibration: 45.0,
        reading_variance: 0.7,
        packet_loss: 0.03,
    },
    Station {
        id: "WS-005",
        days_since_calibration: 700.0,
        reading_variance: 8.0,
        packet_loss: 0.40,
    },
    Station {
        id: "WS-006",
        days_since_calibration: 90.0,
        reading_variance: 1.1,
        packet_loss: 0.05,
    },
    Station {
        id: "WS-007",
        days_since_calibration: 15.0,
        reading_variance: 0.3,
        packet_loss: 0.02,
    },
    Station {
        id: "WS-008",
        days_since_calibration: 200.0,
        reading_variance: 2.0,
        packet_loss: 0.15,
    },
];

/// The domain annotation function: pulls telemetry fields into evidence.
struct TelemetryAnnotator;

impl AnnotationService for TelemetryAnnotator {
    fn service_type(&self) -> Iri {
        q::iri("SensorTelemetryAnnotation")
    }

    fn provides(&self) -> Vec<Iri> {
        vec![q::iri("CalibrationAge"), q::iri("ReadingVariance"), q::iri("PacketLoss")]
    }

    fn annotate(&self, data: &Ds, repo: &AnnotationRepository) -> qurator_services::Result<usize> {
        let mut written = 0;
        for item in data.items() {
            for (field, evidence) in [
                ("calibrationAge", q::iri("CalibrationAge")),
                ("readingVariance", q::iri("ReadingVariance")),
                ("packetLoss", q::iri("PacketLoss")),
            ] {
                let value = data.field(item, field);
                if !value.is_null() {
                    repo.annotate(item, &evidence, value)?;
                    written += 1;
                }
            }
        }
        Ok(written)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- a sensor-domain IQ model, built from the bare upper ontology
    let mut iq = IqModel::new();
    iq.register_evidence_type("CalibrationAge", None)?;
    iq.register_evidence_type("ReadingVariance", None)?;
    iq.register_evidence_type("PacketLoss", None)?;
    iq.register_data_entity_type("SensorStation")?;
    iq.register_annotation_function("SensorTelemetryAnnotation")?;
    iq.register_assertion_type("SensorHealthScore")?;
    iq.assign_dimension("SensorHealthScore", &qurator_ontology::iq::vocab::currency())?;
    iq.ontology().check_consistency()?;

    let engine = QualityEngine::new(iq);
    engine.register_annotation_service(Arc::new(TelemetryAnnotator))?;
    // the stock z-score QA reused verbatim in a new domain (component
    // reuse, the paper's claim (ii)/(iii))
    engine.register_assertion_service(Arc::new(qurator_services::stdlib::ZScoreAssertion::new(
        q::iri("SensorHealthScore"),
        &["age", "variance", "loss"],
    )))?;

    let view = qurator::xmlio::parse_quality_view(
        r#"
        <QualityView name="station-triage">
          <Annotator serviceName="telemetry" serviceType="q:SensorTelemetryAnnotation">
            <variables repositoryRef="cache" persistent="false">
              <var evidence="q:CalibrationAge"/>
              <var evidence="q:ReadingVariance"/>
              <var evidence="q:PacketLoss"/>
            </variables>
          </Annotator>
          <QualityAssertion serviceName="health" serviceType="q:SensorHealthScore"
                            tagName="Badness" tagSynType="q:score">
            <variables repositoryRef="cache">
              <var variableName="age" evidence="q:CalibrationAge"/>
              <var variableName="variance" evidence="q:ReadingVariance"/>
              <var variableName="loss" evidence="q:PacketLoss"/>
            </variables>
          </QualityAssertion>
          <action name="triage">
            <splitter>
              <group name="usable">
                <condition>Badness &lt; 0 and PacketLoss &lt; 0.1</condition>
              </group>
              <group name="recalibrate">
                <condition>Badness &gt;= 0 and CalibrationAge &gt; 180</condition>
              </group>
            </splitter>
          </action>
        </QualityView>"#,
    )?;

    let mut dataset = DataSet::new();
    for s in &FLEET {
        dataset.push(
            Term::iri(format!("urn:lsid:sensors.example.org:station:{}", s.id)),
            [
                ("calibrationAge", EvidenceValue::from(s.days_since_calibration)),
                ("readingVariance", EvidenceValue::from(s.reading_variance)),
                ("packetLoss", EvidenceValue::from(s.packet_loss)),
            ],
        );
    }

    let outcome = engine.execute_view(&view, &dataset)?;
    println!("== weather-station triage (z-score 'Badness': higher = worse) ==\n");
    for group in &outcome.groups {
        println!("{}", group.name);
        for item in group.dataset.items() {
            let row = group.map.item(item).expect("restricted");
            println!(
                "  {:<8} badness {:>6}  cal.age {:>5}  variance {:>4}  loss {:>5}",
                item.as_iri().unwrap().local_name(),
                row.tag("Badness")
                    .as_number()
                    .map(|b| format!("{b:+.2}"))
                    .unwrap_or_else(|| "-".into()),
                row.evidence(&q::iri("CalibrationAge")),
                row.evidence(&q::iri("ReadingVariance")),
                row.evidence(&q::iri("PacketLoss")),
            );
        }
    }

    let usable = outcome.group("triage/usable").unwrap().dataset.len();
    let quarantined = outcome.group("triage/default").unwrap().dataset.len();
    println!("\n{usable} usable, {quarantined} quarantined of {} stations", FLEET.len());
    assert!(usable >= 3, "healthy stations must survive");
    let recalibrate = outcome.group("triage/recalibrate").unwrap();
    assert!(
        recalibrate.dataset.items().iter().any(|i| i.as_iri().unwrap().local_name() == "WS-005"),
        "the worst, oldest station is flagged for recalibration"
    );
    Ok(())
}
