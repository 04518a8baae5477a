//! E1 — persistent vs on-the-fly annotations (paper §4): "although
//! annotations may in principle be generated on the fly, in some cases
//! this is neither necessary nor convenient … annotations are likely to be
//! long-lived and can be made persistent".
//!
//! Simulates an expensive external annotation source (per-item latency,
//! like consulting journal impact-factor tables) and compares executing a
//! quality process that recomputes annotations every run against one that
//! enriches from a warm persistent repository.

use bench::synthetic_hits;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qurator_annotations::AnnotationRepository;
use qurator_ontology::IqModel;
use qurator_rdf::namespace::q;
use qurator_services::stdlib::{DelayedAnnotator, FieldCaptureAnnotator};
use qurator_services::AnnotationService;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn annotator(delay_us: u64) -> Arc<dyn AnnotationService> {
    let inner = Arc::new(FieldCaptureAnnotator::new(
        q::iri("ImprintOutputAnnotation"),
        &[("hitRatio", q::iri("HitRatio")), ("massCoverage", q::iri("MassCoverage"))],
    ));
    if delay_us == 0 {
        inner
    } else {
        Arc::new(DelayedAnnotator::new(inner, Duration::from_micros(delay_us)))
    }
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("annotation_source");
    group.sample_size(10);
    let items = 200usize;
    let dataset = synthetic_hits(items);
    let item_terms: Vec<_> = dataset.items().to_vec();
    let evidence = [q::iri("HitRatio"), q::iri("MassCoverage")];
    let iq = Arc::new(IqModel::with_proteomics_extension().expect("iq"));

    for &delay_us in &[0u64, 50] {
        // cold: each run annotates into its own fresh cache, then enriches
        let service = annotator(delay_us);
        group.throughput(Throughput::Elements(items as u64));
        group.bench_with_input(BenchmarkId::new("on_the_fly", delay_us), &delay_us, |b, _| {
            b.iter(|| {
                let cache = AnnotationRepository::new("cache", false, iq.clone());
                service.annotate(&dataset, &cache).expect("annotates");
                black_box(cache.enrich(&item_terms, &evidence).expect("enrich"))
            })
        });

        // warm: persistent repository populated once, runs only enrich
        let warm_repo = AnnotationRepository::new("uniprot", true, iq.clone());
        annotator(delay_us).annotate(&dataset, &warm_repo).expect("one-off population");
        group.bench_with_input(BenchmarkId::new("persistent", delay_us), &delay_us, |b, _| {
            b.iter(|| black_box(warm_repo.enrich(&item_terms, &evidence).expect("enrich")))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(15);
    targets = bench_cold_vs_warm
}
criterion_main!(benches);
