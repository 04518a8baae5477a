//! End-to-end integration: the complete §6.3 experiment through every
//! layer — XML quality view, semantic validation, the interpreter and the
//! compiled workflow, workflow embedding, and the Figure 7 statistics.

use qurator::compile::enact;
use qurator::deploy::DeploymentPlan;
use qurator::prelude::*;
use qurator_proteomics::{World, WorldConfig};
use qurator_repro::ispider::{figure7_view, hits_to_dataset, FIGURE7_GROUP};
use qurator_repro::{significance_ranking, IspiderPipeline};
use qurator_workflow::PortRef;

fn world() -> World {
    World::generate(&WorldConfig::paper_scale(42)).expect("testbed")
}

#[test]
fn figure7_experiment_reproduces_paper_shape() {
    let world = world();
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let pipeline = IspiderPipeline::new(&world, &engine);

    let unfiltered = pipeline.run_unfiltered();
    let filtered = pipeline.run_filtered(&figure7_view(), FIGURE7_GROUP).expect("runs");

    // paper: 10 spots, ~500 GO-term occurrences before filtering
    assert_eq!(world.peak_lists().len(), 10);
    assert!(
        (300..800).contains(&unfiltered.total_go_occurrences()),
        "got {}",
        unfiltered.total_go_occurrences()
    );

    // filtering keeps a strict, non-empty subset
    assert!(filtered.total_go_occurrences() > 0);
    assert!(filtered.total_go_occurrences() < unfiltered.total_go_occurrences());

    // the quantitative claim behind the paper's qualitative one
    assert!(filtered.precision() > 2.0 * unfiltered.precision());
    assert!(filtered.recall() > 0.5, "filtering must not destroy recall");

    // Figure 7's point: the ranking is substantially reordered
    let (rows, stats) = significance_ranking(&unfiltered, &filtered);
    assert!(stats.rank_correlation < 0.8, "correlation {}", stats.rank_correlation);
    // rows are sorted by ratio descending
    assert!(rows.windows(2).all(|w| w[0].ratio >= w[1].ratio));
    // a term with low original frequency reaches the top region
    let top5_min_orig_rank = rows.iter().take(5).map(|r| r.original_rank).max().unwrap();
    assert!(
        top5_min_orig_rank > stats.terms / 4,
        "some top-significance term must come from deep in the original ranking"
    );
}

#[test]
fn interpreter_and_compiled_agree_on_real_spots() {
    let world = world();
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let view = figure7_view();

    for peak_list in world.peak_lists().iter().take(3) {
        let hits = world.imprint.search(peak_list);
        let dataset = hits_to_dataset(&peak_list.spot_id, &hits);

        let interpreted = engine.execute_view(&view, &dataset).expect("interprets");
        let workflow = engine.compile(&view).expect("compiles");
        let (compiled, _) = enact(&workflow, &view, &dataset).expect("enacts");
        assert_eq!(interpreted, compiled, "spot {}", peak_list.spot_id);
    }
}

#[test]
fn xml_roundtripped_view_behaves_identically() {
    let world = world();
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let view = figure7_view();
    let xml = qurator::xmlio::spec_to_xml(&view);
    let reparsed = qurator::xmlio::parse_quality_view(&xml).expect("parses");
    assert_eq!(view, reparsed);

    let peak_list = &world.peak_lists()[0];
    let dataset = hits_to_dataset(&peak_list.spot_id, &world.imprint.search(peak_list));
    let a = engine.execute_view(&view, &dataset).expect("runs");
    let b = engine.execute_view(&reparsed, &dataset).expect("runs");
    assert_eq!(a, b);
}

#[test]
fn embedded_workflow_matches_direct_pipeline() {
    use qurator_workflow::{Context, Data, Enactor};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let world = Arc::new(world());
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let quality = engine.compile(&figure7_view()).expect("compiles");

    let mut hosted = bench_host::build_host(world.clone());
    let plan = DeploymentPlan {
        prefix: "qv".into(),
        severed: (
            PortRef::new(bench_host::nodes::IMPRINT, "hits"),
            PortRef::new(bench_host::nodes::GOA, "hits"),
        ),
        input_adapter: ("adapt-in".into(), bench_host::input_adapter()),
        output_group: FIGURE7_GROUP.into(),
        output_adapter: ("adapt-out".into(), bench_host::output_adapter()),
    };
    plan.apply(&mut hosted, &quality).expect("embeds");

    let report = Enactor::new().run(&hosted, &BTreeMap::new(), &Context::new()).expect("enacts");
    let total: f64 =
        report.outputs["go_counts"].as_record().unwrap().values().filter_map(Data::as_number).sum();

    let engine2 = QualityEngine::with_proteomics_defaults().expect("engine");
    let direct = IspiderPipeline::new(&world, &engine2)
        .run_filtered(&figure7_view(), FIGURE7_GROUP)
        .expect("runs");
    assert_eq!(total as usize, direct.total_go_occurrences());
}

#[test]
fn different_seeds_preserve_the_shape() {
    for seed in [7u64, 99, 1234] {
        let world = World::generate(&WorldConfig::paper_scale(seed)).expect("testbed");
        let engine = QualityEngine::with_proteomics_defaults().expect("engine");
        let pipeline = IspiderPipeline::new(&world, &engine);
        let unfiltered = pipeline.run_unfiltered();
        let filtered = pipeline.run_filtered(&figure7_view(), FIGURE7_GROUP).expect("runs");
        assert!(
            filtered.precision() > unfiltered.precision(),
            "seed {seed}: {} !> {}",
            filtered.precision(),
            unfiltered.precision()
        );
        assert!(filtered.total_go_occurrences() < unfiltered.total_go_occurrences());
    }
}

/// Re-exports of the bench crate's host-workflow builders would create a
/// dev-dependency cycle, so the host workflow is duplicated here in its
/// minimal form.
mod bench_host {
    use qurator::convert;
    use qurator_proteomics::World;
    use qurator_repro::ispider::hits_to_dataset;
    use qurator_workflow::{Data, FnProcessor, PortRef, Processor, Workflow, WorkflowError};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    pub mod nodes {
        pub const PEDRO: &str = "PedroFetch";
        pub const IMPRINT: &str = "ImprintSearch";
        pub const GOA: &str = "GoaLookup";
        pub const AGGREGATE: &str = "AggregateTerms";
    }

    pub fn build_host(world: Arc<World>) -> Workflow {
        let mut wf = Workflow::new("ispider-analysis");
        let pedro_world = world.clone();
        let pedro = FnProcessor::new(nodes::PEDRO, &[], &["spots"], move |_, _| {
            let spots: Vec<Data> =
                pedro_world.peak_lists().iter().map(|pl| Data::Text(pl.spot_id.clone())).collect();
            Ok(BTreeMap::from([("spots".to_string(), Data::List(spots))]))
        });
        let imprint_world = world.clone();
        let imprint = FnProcessor::map1(nodes::IMPRINT, "spot", "hits", move |spot, _| {
            let spot_id = spot.as_text().expect("spot id");
            let peak_list =
                imprint_world.pedro.spot(&imprint_world.experiment, spot_id).map_err(|e| {
                    WorkflowError::Execution {
                        processor: nodes::IMPRINT.into(),
                        message: e.to_string(),
                    }
                })?;
            let hits = imprint_world.imprint.search(peak_list);
            Ok(convert::dataset_to_data(&hits_to_dataset(spot_id, &hits)))
        });
        let goa_world = world.clone();
        let goa = FnProcessor::map1(nodes::GOA, "hits", "terms", move |hits, _| {
            let dataset = convert::data_to_dataset(hits).map_err(|e| WorkflowError::Execution {
                processor: nodes::GOA.into(),
                message: e.to_string(),
            })?;
            let mut terms = Vec::new();
            for item in dataset.items() {
                if let Some(accession) = dataset.field(item, "accession").as_text() {
                    for association in goa_world.goa.lookup(accession) {
                        terms.push(Data::Text(association.term_id.clone()));
                    }
                }
            }
            Ok(Data::List(terms))
        });
        let aggregate =
            FnProcessor::new(nodes::AGGREGATE, &[("terms", 2)], &["go_counts"], |inputs, _| {
                let mut counts: BTreeMap<String, Data> = BTreeMap::new();
                fn walk(v: &Data, counts: &mut BTreeMap<String, Data>) {
                    match v {
                        Data::Text(term) => {
                            let slot = counts.entry(term.clone()).or_insert(Data::Number(0.0));
                            if let Data::Number(n) = slot {
                                *n += 1.0;
                            }
                        }
                        Data::List(items) => items.iter().for_each(|i| walk(i, counts)),
                        _ => {}
                    }
                }
                walk(inputs.get("terms").unwrap_or(&Data::Null), &mut counts);
                Ok(BTreeMap::from([("go_counts".to_string(), Data::Record(counts))]))
            });
        wf.add(nodes::PEDRO, Arc::new(pedro)).unwrap();
        wf.add(nodes::IMPRINT, Arc::new(imprint)).unwrap();
        wf.add(nodes::GOA, Arc::new(goa)).unwrap();
        wf.add(nodes::AGGREGATE, Arc::new(aggregate)).unwrap();
        wf.link(nodes::PEDRO, "spots", nodes::IMPRINT, "spot").unwrap();
        wf.link(nodes::IMPRINT, "hits", nodes::GOA, "hits").unwrap();
        wf.link(nodes::GOA, "terms", nodes::AGGREGATE, "terms").unwrap();
        wf.declare_output("go_counts", PortRef::new(nodes::AGGREGATE, "go_counts")).unwrap();
        wf
    }

    pub fn input_adapter() -> Arc<dyn Processor> {
        Arc::new(FnProcessor::map1("qv-dataset-in", "in", "out", |v, _| Ok(v.clone())))
    }

    pub fn output_adapter() -> Arc<dyn Processor> {
        Arc::new(FnProcessor::map1("qv-dataset-out", "in", "out", |v, _| {
            v.field("dataset").cloned().ok_or_else(|| WorkflowError::Execution {
                processor: "qv-dataset-out".into(),
                message: "expected an action group record".into(),
            })
        }))
    }
}

#[test]
fn multi_action_views_agree_across_paths() {
    use qurator::spec::{ActionDecl, ActionKind};
    use qurator_rdf::term::Term;
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind = ActionKind::Filter { condition: "HR_MC > 0".into() };
    spec.actions.push(ActionDecl {
        name: "triage".into(),
        kind: ActionKind::Split {
            groups: vec![
                ("hi".into(), "ScoreClass in q:high".into()),
                ("lo".into(), "ScoreClass in q:low".into()),
            ],
        },
    });
    let mut dataset = DataSet::new();
    for (i, hr) in [0.9f64, 0.6, 0.3, 0.1].iter().enumerate() {
        dataset.push(
            Term::iri(format!("urn:lsid:t:h:{i}")),
            [
                ("hitRatio", EvidenceValue::from(*hr)),
                ("massCoverage", EvidenceValue::from(hr * 50.0)),
                ("peptidesCount", EvidenceValue::from((hr * 10.0) as i64)),
            ],
        );
    }
    let interpreted = engine.execute_view(&spec, &dataset).expect("interprets");
    let workflow = engine.compile(&spec).expect("compiles");
    let (compiled, _) = enact(&workflow, &spec, &dataset).expect("enacts");
    assert_eq!(interpreted, compiled);
    assert_eq!(
        interpreted.group_names(),
        vec!["filter top k score", "triage/hi", "triage/lo", "triage/default"]
    );
}
