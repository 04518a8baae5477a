//! E3b — bulk enrichment vs per-pair lookups (§5, §6.2).
//!
//! The Data-Enrichment operator needs one evidence value per
//! `(data item, evidence type)` pair. The paper-faithful baseline issues
//! one SPARQL query per pair (parse + plan + solve every time); this
//! bench compares it against the three batched paths this repo adds:
//!
//! * `per_pair_sparql`   — interpolated query text per pair (E3 baseline)
//! * `per_pair_prepared` — parse once, bind `(item, etype)` per pair
//! * `per_pair_direct`   — index walk per pair, no query machinery
//! * `bulk`              — one read lock + one contains-evidence index
//!   scan hash-joined against the item set (`enrich_bulk`)
//! * `processor_bulk`    — `DataEnrichmentProcessor` routing a
//!   single-repository plan to the same bulk path
//!
//! All five produce identical `AnnotationMap`s (asserted in
//! `qurator-annotations` property tests); only the cost differs. Per-pair
//! SPARQL is capped at 10⁴ items — at 10⁵ a single iteration takes
//! seconds, which is the point of the experiment.

use bench::synthetic_hits;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qurator::operators::DataEnrichmentProcessor;
use qurator_annotations::{AnnotationMap, AnnotationRepository, EvidenceValue};
use qurator_ontology::IqModel;
use qurator_rdf::namespace::q;
use qurator_rdf::term::{Iri, Term};
use qurator_services::DataSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn evidence_types() -> [Iri; 3] {
    [q::iri("HitRatio"), q::iri("MassCoverage"), q::iri("PeptidesCount")]
}

const FIELDS: [&str; 3] = ["hitRatio", "massCoverage", "peptidesCount"];

/// A repository holding the given `(dataset field, evidence type)` columns
/// for every item of `dataset`.
fn populated(
    dataset: &DataSet,
    fields: &[(&str, Iri)],
    iq: &Arc<IqModel>,
) -> Arc<AnnotationRepository> {
    let repo = AnnotationRepository::new("bench", false, iq.clone());
    for item in dataset.items() {
        for (field, evidence_type) in fields {
            repo.annotate(item, evidence_type, dataset.field(item, field)).expect("annotate");
        }
    }
    Arc::new(repo)
}

/// The per-pair composition `enrich` performs, parameterised by lookup.
fn per_pair(
    items: &[Term],
    types: &[Iri],
    mut lookup: impl FnMut(&Term, &Iri) -> EvidenceValue,
) -> AnnotationMap {
    let mut map = AnnotationMap::for_items(items.iter().cloned());
    for item in items {
        for evidence_type in types {
            match lookup(item, evidence_type) {
                EvidenceValue::Null => {}
                value => map.set_evidence(item, evidence_type.clone(), value),
            }
        }
    }
    map
}

fn bench_enrichment(c: &mut Criterion) {
    let iq = Arc::new(IqModel::with_proteomics_extension().expect("iq"));
    let types = evidence_types();
    let mut group = c.benchmark_group("enrichment");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));

    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let dataset = synthetic_hits(n);
        let fields: Vec<(&str, Iri)> = FIELDS.iter().copied().zip(types.iter().cloned()).collect();
        let repo = populated(&dataset, &fields, &iq);
        let items = dataset.items().to_vec();
        group.throughput(Throughput::Elements((n * types.len()) as u64));

        if n <= 10_000 {
            group.bench_with_input(BenchmarkId::new("per_pair_sparql", n), &n, |b, _| {
                b.iter(|| {
                    black_box(per_pair(&items, &types, |i, t| {
                        repo.lookup_sparql(i, t).expect("lookup")
                    }))
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("per_pair_prepared", n), &n, |b, _| {
            b.iter(|| {
                black_box(per_pair(&items, &types, |i, t| {
                    repo.lookup_prepared(i, t).expect("lookup")
                }))
            })
        });
        group.bench_with_input(BenchmarkId::new("per_pair_direct", n), &n, |b, _| {
            b.iter(|| black_box(per_pair(&items, &types, |i, t| repo.lookup_direct(i, t))))
        });
        group.bench_with_input(BenchmarkId::new("bulk", n), &n, |b, _| {
            b.iter(|| black_box(repo.enrich_bulk(&items, &types).expect("bulk")))
        });
        let processor = DataEnrichmentProcessor::new("de", vec![(repo.clone(), types.to_vec())]);
        group.bench_with_input(BenchmarkId::new("processor_bulk", n), &n, |b, _| {
            b.iter(|| black_box(processor.enrich(&items).expect("enrich")))
        });
    }
    group.finish();
}

/// A multi-repository plan: each evidence type lives in its *own*
/// repository (§5's federated e-Science scenario), so the processor runs
/// three bulk scans in plan order and merges them.
fn bench_multi_repo(c: &mut Criterion) {
    let iq = Arc::new(IqModel::with_proteomics_extension().expect("iq"));
    let types = evidence_types();
    let mut group = c.benchmark_group("enrichment_multi_repo");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));

    for &n in &[1_000usize, 10_000, 100_000] {
        let dataset = synthetic_hits(n);
        let items = dataset.items().to_vec();
        let plan: Vec<(Arc<AnnotationRepository>, Vec<Iri>)> = FIELDS
            .iter()
            .zip(types.iter())
            .map(|(field, t)| (populated(&dataset, &[(field, t.clone())], &iq), vec![t.clone()]))
            .collect();
        group.throughput(Throughput::Elements((n * types.len()) as u64));

        let sequential = DataEnrichmentProcessor::new("de", plan);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| black_box(sequential.enrich(&items).expect("enrich")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_enrichment, bench_multi_repo);
criterion_main!(benches);
