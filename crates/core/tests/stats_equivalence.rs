//! Observed-statistics equivalence: the per-node counters EXPLAIN
//! ANALYZE reports must not depend on *how* the view ran. The compiled
//! workflow's operators record from the enactor's parallel workers into
//! one shared collector, so its sums must agree with the sequential
//! interpreter; and the counters must be
//! identical whether the persistent repository is the in-memory store or
//! the on-disk store (the analyze rendering is part of the
//! backend-equivalence contract).

use qurator::prelude::*;
use qurator::{compile, exec, planner};
use qurator_plan::render::render_analyze_text;
use qurator_plan::PlanConfig;
use qurator_rdf::storage::test_support::TempDir;
use qurator_rdf::term::Term;
use qurator_telemetry::stats::RunStats;
use qurator_telemetry::RunId;

const VIEW: &str = r#"
<QualityView name="stats-equiv">
  <Annotator serviceName="imprint" serviceType="q:ImprintOutputAnnotation">
    <variables repositoryRef="archive" persistent="true">
      <var evidence="q:HitRatio"/>
      <var evidence="q:MassCoverage"/>
      <var evidence="q:PeptidesCount"/>
    </variables>
  </Annotator>
  <QualityAssertion serviceName="score" serviceType="q:UniversalPIScore2"
                    tagName="HR_MC" tagSynType="q:score">
    <variables repositoryRef="archive">
      <var variableName="coverage" evidence="q:MassCoverage"/>
      <var variableName="hitratio" evidence="q:HitRatio"/>
      <var variableName="peptidescount" evidence="q:PeptidesCount"/>
    </variables>
  </QualityAssertion>
  <action name="keep">
    <filter><condition>HR_MC &gt; 0</condition></filter>
  </action>
</QualityView>"#;

fn dataset(rows: usize) -> DataSet {
    let mut ds = DataSet::new();
    for i in 0..rows {
        let item = Term::iri(format!("urn:lsid:t:stats:{i}"));
        let mut fields: Vec<(String, EvidenceValue)> = Vec::new();
        // every third item misses a field so hit rates are non-trivial
        if i % 3 != 0 {
            fields.push(("hitRatio".into(), (0.5 + (i % 5) as f64 / 10.0).into()));
        }
        fields.push(("massCoverage".into(), ((i % 40) as f64).into()));
        fields.push(("peptidesCount".into(), ((i % 9) as f64).into()));
        ds.push(item, fields);
    }
    ds
}

/// The timing-free projection of a run's counters: everything the
/// analyze surface reports except wall time.
fn counters(stats: &RunStats) -> Vec<(String, [u64; 5])> {
    stats
        .nodes
        .iter()
        .map(|(name, n)| (name.clone(), [n.calls, n.rows_in, n.rows_out, n.evidence, n.hits]))
        .collect()
}

#[test]
fn parallel_enactment_stats_agree_with_the_sequential_interpreter() {
    let spec = qurator::xmlio::parse_quality_view(VIEW).unwrap();
    let data = dataset(24);

    let interpreter = QualityEngine::with_proteomics_defaults().unwrap();
    interpreter.execute_view_run(&spec, &data, RunId::from_u64(1)).unwrap();
    let sequential = interpreter.last_run_stats().expect("interpreter stats");

    let compiled = QualityEngine::with_proteomics_defaults().unwrap();
    let view = compiled.validate(&spec).unwrap();
    let plan = planner::physical_plan(&view, compiled.iq(), &PlanConfig::default()).unwrap();
    let bound = exec::bind(&plan, compiled.iq(), compiled.registry(), compiled.catalog()).unwrap();
    let workflow = bound.into_workflow(&plan).unwrap();
    compile::enact(&workflow, &spec, &data).unwrap();
    let merged = bound.stats.drain(&plan.view, Some(RunId::from_u64(2)), data.len() as u64);

    assert_eq!(sequential.items, merged.items);
    assert_eq!(
        counters(&sequential),
        counters(&merged),
        "worker-merged stats diverged from the sequential interpreter"
    );
    // the comparison must not pass vacuously: real rows flowed
    assert!(sequential.nodes.values().any(|n| n.rows_out > 0), "{sequential:?}");
    assert!(sequential.nodes.values().any(|n| n.evidence > 0), "{sequential:?}");
}

#[test]
fn analyze_rendering_is_identical_across_backends() {
    let spec = qurator::xmlio::parse_quality_view(VIEW).unwrap();
    let data = dataset(18);
    let tmp = TempDir::new("stats-equiv-analyze");

    let memory = QualityEngine::with_proteomics_defaults().unwrap();
    let disk = QualityEngine::with_proteomics_defaults().unwrap();
    disk.set_store_root(tmp.path()).unwrap();

    let mut renderings = Vec::new();
    for engine in [&memory, &disk] {
        // round 2 re-annotates the items round 1 stored
        for round in 0..2u64 {
            engine.execute_view_run(&spec, &data, RunId::from_u64(round + 1)).unwrap();
            let plan = engine.plan_with(&spec, &PlanConfig::default()).unwrap();
            let stats = engine.last_run_stats().expect("run stats");
            renderings.push(render_analyze_text(&plan, &stats, false));
        }
    }
    let (memory_rounds, disk_rounds) = renderings.split_at(2);
    assert_eq!(memory_rounds, disk_rounds, "analyze output diverged across backends");
    // timing-free mode keeps the rendering byte-deterministic
    assert!(!memory_rounds[0].contains(" us"), "{}", memory_rounds[0]);
}
