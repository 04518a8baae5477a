//! Shared fixtures for the experiment harness and Criterion benches.
//!
//! Every table/figure regeneration binary (`src/bin/fig*.rs`,
//! `src/bin/qa_ablation.rs`) and every bench (`benches/*.rs`) builds its
//! workload through these helpers so parameters stay consistent with
//! DESIGN.md's experiment index.

use qurator::prelude::*;
use qurator_rdf::term::Term;

/// Builds an Imprint-shaped dataset of `n` synthetic hit entries with a
/// deterministic quality gradient plus pseudo-random jitter (no RNG state:
/// a simple LCG keyed by the index keeps benches reproducible).
pub fn synthetic_hits(n: usize) -> DataSet {
    let mut dataset = DataSet::new();
    for index in 0..n {
        let jitter = lcg(index as u64) % 1000;
        let quality = (n - index) as f64 / n as f64; // descending quality
        let hr = (0.05 + 0.9 * quality + jitter as f64 * 1e-5).min(1.0);
        let mc = 50.0 * quality + (jitter % 100) as f64 * 0.05;
        let pc = (1.0 + 14.0 * quality) as i64;
        dataset.push(
            Term::iri(format!("urn:lsid:bench:hit:H{index:06}")),
            [
                ("hitRatio", EvidenceValue::from(hr)),
                ("massCoverage", EvidenceValue::from(mc)),
                ("peptidesCount", EvidenceValue::from(pc)),
            ],
        );
    }
    dataset
}

/// The [`synthetic_hits`] workload rendered as the TSV wire format the
/// `POST /run/<view>` endpoint accepts — the serving benches submit the
/// same gradient the enactment benches measure locally.
pub fn synthetic_hits_tsv(n: usize) -> String {
    let mut out = String::from("id\thitRatio\tmassCoverage\tpeptidesCount\n");
    for index in 0..n {
        let jitter = lcg(index as u64) % 1000;
        let quality = (n - index) as f64 / n as f64;
        let hr = (0.05 + 0.9 * quality + jitter as f64 * 1e-5).min(1.0);
        let mc = 50.0 * quality + (jitter % 100) as f64 * 0.05;
        let pc = (1.0 + 14.0 * quality) as i64;
        out.push_str(&format!("urn:lsid:bench:hit:H{index:06}\t{hr}\t{mc}\t{pc}\n"));
    }
    out
}

/// Minimal multiplicative LCG for jitter.
pub fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407) >> 33
}

/// The §5.1 paper view with the classifier-based filter used across the
/// perf experiments.
pub fn bench_view() -> QualityViewSpec {
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind = qurator::spec::ActionKind::Filter {
        condition: "ScoreClass in q:high, q:mid and HR_MC > 0".to_string(),
    };
    spec
}

/// A view scaled to `annotators`/`assertions`/`actions` operator counts
/// (for the E4 compile-latency sweep). All QAs bind the same evidence so
/// the services resolve; extra IQ registrations are made on the engine's
/// model clone by `bench_engine`.
pub fn scaled_view(assertions: usize, actions: usize) -> QualityViewSpec {
    let mut spec = QualityViewSpec::new(format!("scaled-{assertions}-{actions}"));
    spec.annotators.push(qurator::spec::AnnotatorDecl {
        service_name: "imprint".into(),
        service_type: "q:ImprintOutputAnnotation".into(),
        repository_ref: "cache".into(),
        persistent: false,
        variables: vec![qurator::spec::VarDecl::evidence("q:HitRatio")],
    });
    for i in 0..assertions {
        spec.assertions.push(qurator::spec::AssertionDecl {
            service_name: format!("qa{i}"),
            service_type: "q:UniversalPIScore".into(),
            tag_name: format!("S{i}"),
            tag_kind: qurator::spec::TagKind::Score,
            tag_sem_type: None,
            repository_ref: "cache".into(),
            variables: vec![qurator::spec::VarDecl::named("hitratio", "q:HitRatio")],
        });
    }
    for i in 0..actions {
        spec.actions.push(qurator::spec::ActionDecl {
            name: format!("act{i}"),
            kind: qurator::spec::ActionKind::Filter {
                condition: format!("S{} > 0", i % assertions.max(1)),
            },
        });
    }
    spec
}

/// An engine able to validate [`scaled_view`]s of any size (the stock
/// proteomics engine already registers every service type they use —
/// multiple QAs may share one service type). Annotator capture is limited
/// to hitRatio to keep annotation work proportional only to data size.
pub fn bench_engine() -> QualityEngine {
    QualityEngine::with_proteomics_defaults().expect("stock engine")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_hits_gradient() {
        let ds = synthetic_hits(100);
        assert_eq!(ds.len(), 100);
        let first = ds.field(&ds.items()[0], "hitRatio").as_number().unwrap();
        let last = ds.field(&ds.items()[99], "hitRatio").as_number().unwrap();
        assert!(first > last);
    }

    #[test]
    fn bench_view_validates_and_runs() {
        let engine = bench_engine();
        let ds = synthetic_hits(50);
        let outcome = engine.execute_view(&bench_view(), &ds).unwrap();
        let kept = outcome.group("filter top k score").unwrap().dataset.len();
        assert!(kept > 0 && kept < 50);
    }

    #[test]
    fn scaled_views_validate() {
        let engine = bench_engine();
        for (qas, acts) in [(1, 1), (4, 2), (8, 8)] {
            let spec = scaled_view(qas, acts);
            engine.validate(&spec).unwrap_or_else(|e| panic!("{qas}/{acts}: {e}"));
        }
    }
}

pub mod host;
pub mod results;
