//! Run isolation: a view's cache repository belongs to one execution
//! (paper §4, "the scope of annotations is a single process execution").
//! Two concurrent `execute_view` calls on one engine, over the same item
//! ids with opposite quality gradients, must each return exactly the
//! groups that the same call returns when it runs alone.

use qurator::prelude::*;
use qurator_rdf::term::Term;

const PAPER_VIEW: &str = include_str!("../../../samples/paper_view.xml");
const ITEMS: usize = 3_000;
const ROUNDS: usize = 10;

/// `ITEMS` hits over one fixed id set. `rising` flips the quality
/// gradient, so every id carries opposite values in the two bodies.
fn hits(rising: bool) -> DataSet {
    let mut dataset = DataSet::new();
    for index in 0..ITEMS {
        let rank = if rising { index + 1 } else { ITEMS - index };
        let quality = rank as f64 / ITEMS as f64;
        dataset.push(
            Term::iri(format!("urn:lsid:t:isolation:H{index:05}")),
            [
                ("hitRatio", EvidenceValue::from(0.05 + 0.9 * quality)),
                ("massCoverage", EvidenceValue::from(50.0 * quality)),
                ("peptidesCount", EvidenceValue::from((1.0 + 14.0 * quality) as i64)),
            ],
        );
    }
    dataset
}

/// Group names with their members, in order.
fn membership(outcome: &ActionOutcome) -> Vec<(String, Vec<Term>)> {
    outcome.groups.iter().map(|g| (g.name.clone(), g.dataset.items().to_vec())).collect()
}

#[test]
fn concurrent_runs_over_the_same_ids_each_get_their_solo_answer() {
    let engine = QualityEngine::with_proteomics_defaults().unwrap();
    let spec = qurator::xmlio::parse_quality_view(PAPER_VIEW).unwrap();
    let bodies = [hits(false), hits(true)];
    let solo: Vec<_> =
        bodies.iter().map(|b| membership(&engine.execute_view(&spec, b).unwrap())).collect();
    assert_ne!(solo[0], solo[1], "opposite gradients must keep different items");

    let mut wrong_rounds = 0;
    for _ in 0..ROUNDS {
        let start = std::sync::Barrier::new(bodies.len());
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let runs: Vec<_> = bodies
                .iter()
                .map(|body| {
                    let (engine, spec, start) = (&engine, &spec, &start);
                    scope.spawn(move || {
                        start.wait();
                        membership(&engine.execute_view(spec, body).unwrap())
                    })
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        if concurrent != solo {
            wrong_rounds += 1;
        }
    }
    assert_eq!(wrong_rounds, 0, "{wrong_rounds} of {ROUNDS} rounds differ from the solo answers");
}
