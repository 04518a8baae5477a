//! E5 — execution-path overheads (paper §6.2): what does routing the
//! quality process through the workflow engine cost versus direct
//! interpretation, and what does wave-parallel enactment buy?

use bench::{bench_engine, bench_view, synthetic_hits};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qurator::compile::{enact, DATASET_INPUT};
use qurator_workflow::{Context, Enactor};
use std::collections::BTreeMap;
use std::hint::black_box;

fn bench_interpret_vs_compiled(c: &mut Criterion) {
    let mut group = c.benchmark_group("execution_path");
    group.sample_size(20);
    for &items in &[50usize, 200] {
        let dataset = synthetic_hits(items);
        group.throughput(Throughput::Elements(items as u64));

        let engine = bench_engine();
        let spec = bench_view();
        group.bench_with_input(BenchmarkId::new("interpreter", items), &items, |b, _| {
            b.iter(|| {
                let out = engine.execute_view(black_box(&spec), &dataset).expect("runs");
                black_box(out)
            })
        });

        let engine = bench_engine();
        group.bench_with_input(BenchmarkId::new("compiled", items), &items, |b, _| {
            b.iter(|| {
                let workflow = engine.compile(black_box(&spec)).expect("compiles");
                let (out, _) = enact(&workflow, &spec, &dataset).expect("runs");
                black_box(out)
            })
        });
    }
    group.finish();
}

fn bench_parallel_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("enactor");
    group.sample_size(20);
    let engine = bench_engine();
    let spec = bench_view();
    let dataset = synthetic_hits(200);
    let workflow = engine.compile(&spec).expect("compiles");
    let inputs =
        BTreeMap::from([(DATASET_INPUT.to_string(), qurator::convert::dataset_to_data(&dataset))]);
    group.bench_function("wave_parallel", |b| {
        b.iter(|| {
            let r = Enactor::new().run(&workflow, &inputs, &Context::new()).expect("runs");
            black_box(r.outputs)
        })
    });
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let r = Enactor::sequential().run(&workflow, &inputs, &Context::new()).expect("runs");
            black_box(r.outputs)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(15);
    targets = bench_interpret_vs_compiled, bench_parallel_vs_sequential
}
criterion_main!(benches);
