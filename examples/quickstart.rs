//! Quickstart: author a quality view in the paper's XML syntax, run it
//! over a small annotated data set, and watch the filter act.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use qurator::prelude::*;
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A quality engine preloaded with the running example's IQ model
    //    and services (Imprint annotator, universal-score QAs, classifier).
    let engine = QualityEngine::with_proteomics_defaults()?;

    // 2. The §5.1 quality view: capture Imprint evidence, compute the
    //    HR/MC score and the three-way classification, filter.
    let view = qurator::xmlio::parse_quality_view(
        r#"
        <QualityView name="quickstart">
          <Annotator serviceName="ImprintOutputAnnotator"
                     serviceType="q:ImprintOutputAnnotation">
            <variables repositoryRef="cache" persistent="false">
              <var evidence="q:HitRatio"/>
              <var evidence="q:MassCoverage"/>
              <var evidence="q:PeptidesCount"/>
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
          <QualityAssertion serviceName="classifier" serviceType="q:PIScoreClassifier"
                            tagName="ScoreClass" tagSynType="q:class"
                            tagSemType="q:PIScoreClassification">
            <variables repositoryRef="cache">
              <var variableName="score" evidence="tag:HR_MC"/>
            </variables>
          </QualityAssertion>
          <action name="keep acceptable">
            <filter>
              <condition>ScoreClass in q:high, q:mid and HR_MC &gt; 0</condition>
            </filter>
          </action>
        </QualityView>
        "#,
    )?;
    println!("== quality view '{}' parsed and validated ==", view.name);

    // 3. A data set shaped like Imprint output (protein hits + evidence).
    let rows: [(&str, f64, f64, i64); 6] = [
        ("P30089", 0.91, 48.0, 14),
        ("P30090", 0.72, 31.0, 10),
        ("P30091", 0.55, 26.0, 8),
        ("P30092", 0.31, 14.0, 5),
        ("P30093", 0.12, 6.0, 2),
        ("P30094", 0.05, 2.0, 1),
    ];
    let mut dataset = DataSet::new();
    for (accession, hit_ratio, mass_coverage, peptides) in rows {
        dataset.push(
            Term::iri(format!("urn:lsid:uniprot.org:uniprot:{accession}")),
            [
                ("hitRatio", EvidenceValue::from(hit_ratio)),
                ("massCoverage", EvidenceValue::from(mass_coverage)),
                ("peptidesCount", EvidenceValue::from(peptides)),
            ],
        );
    }

    // 4. Execute (direct interpretation) and inspect the outcome.
    let outcome = engine.execute_view(&view, &dataset)?;
    let kept = outcome.group("keep acceptable").expect("declared action");
    println!("input items: {}   surviving: {}", dataset.len(), kept.dataset.len());
    println!("\n{:<44} {:>8} {:>10}", "item", "HR_MC", "class");
    for item in kept.dataset.items() {
        let row = kept.map.item(item).expect("restricted map");
        let score =
            row.tag("HR_MC").as_number().map(|s| format!("{s:+.2}")).unwrap_or_else(|| "-".into());
        println!(
            "{:<44} {:>8} {:>10}",
            item.as_iri().map(|i| i.local_name().to_string()).unwrap_or_default(),
            score,
            row.tag("ScoreClass")
        );
    }

    // 5. The same view also compiles into a workflow (the §6 path).
    let workflow = engine.compile(&view)?;
    println!(
        "\ncompiled workflow: {} processors, {} data links, {} control links",
        workflow.nodes().count(),
        workflow.data_links().len(),
        workflow.control_links().len()
    );

    // sanity for `cargo test --examples`-style smoke runs
    assert!(kept.dataset.len() < dataset.len());
    // the view's cache belonged to each run and went with it
    assert!(engine.catalog().get("cache").is_none());
    let _ = q::iri("HitRatio");
    Ok(())
}
