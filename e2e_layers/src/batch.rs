//! The batch workloads: `execute_view` in-process over 20,000 seeded
//! hits, with `finish_execution()` between runs, as `qv run` does.
//!
//! `batch_paper_20k` runs the paper's view: annotate (memory-cache
//! writes) and act (`DataSet::restrict`) dominate. `batch_split_archive_20k`
//! runs a splitter with no annotator over a persistent disk archive that
//! set-up seeds, so annotate does no work and enrich reads the disk base
//! segment: a write-path change must leave it unchanged.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use qurator::engine::QualityEngine;
use qurator::prelude::*;
use qurator_plan::PlanConfig;
use qurator_rdf::namespace::q;

use crate::drive::{self, digest};
use crate::layers::{
    exponents, file_sizes, layer_metrics, parse_ms, profile, store_size_metrics, store_status,
    DriveTally, Replica,
};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::{rows, server, Config, Report, Workload};

/// Items per run.
pub const ITEMS: usize = 20_000;

/// Seconds one full-size run took on a 2-core x86-64 sandbox at the
/// commit that defined the benchmark; run counts derive from them.
fn run_seconds(workload: Workload) -> f64 {
    match workload {
        Workload::BatchSplitArchive => 1.15,
        _ => 1.0,
    }
}

pub fn run(config: &Config) -> Result<Report, String> {
    if config.trace {
        layers(config)
    } else {
        end_to_end(config)
    }
}

fn view_xml(workload: Workload) -> &'static str {
    match workload {
        Workload::BatchSplitArchive => crate::SPLIT_ARCHIVE_VIEW,
        _ => crate::PAPER_VIEW,
    }
}

/// Everything a run needs before its first execution: the engine, the
/// parsed and validated view and, for the archive workload, a disk
/// archive holding every item's `q:HitRatio`, seeded through public
/// `annotate`, `flush` and `checkpoint` calls and rooted at `store`.
fn setup(
    workload: Workload,
    dataset: &DataSet,
    store: Option<&Path>,
) -> Result<(QualityEngine, QualityViewSpec), String> {
    let engine = QualityEngine::with_proteomics_defaults().map_err(|e| e.to_string())?;
    let spec = qurator::xmlio::parse_quality_view(view_xml(workload)).map_err(|e| e.to_string())?;
    if let Some(dir) = store {
        engine.set_store_root(dir).map_err(|e| e.to_string())?;
        let archive = engine.catalog().create("archive", true).map_err(|e| e.to_string())?;
        let hit_ratio = q::iri("HitRatio");
        for item in dataset.items() {
            archive
                .annotate(item, &hit_ratio, dataset.field(item, "hitRatio"))
                .map_err(|e| e.to_string())?;
        }
        archive.flush().map_err(|e| e.to_string())?;
        archive.checkpoint().map_err(|e| e.to_string())?;
    }
    engine.validate(&spec).map_err(|e| e.to_string())?;
    Ok((engine, spec))
}

fn store_dir(config: &Config, name: &str) -> Result<Option<std::path::PathBuf>, String> {
    match config.workload {
        Workload::BatchSplitArchive => config.scratch(name).map(Some),
        _ => Ok(None),
    }
}

/// The digest of the unoptimized plan's groups: a second execution path
/// every measured run must agree with.
fn reference(
    engine: &QualityEngine,
    spec: &QualityViewSpec,
    dataset: &DataSet,
) -> Result<u64, String> {
    let outcome = engine
        .execute_view_with(spec, dataset, &PlanConfig { optimize: false })
        .map_err(|e| format!("reference run: {e}"))?;
    engine.finish_execution();
    let groups = outcome.groups;
    if groups.is_empty() || groups.iter().all(|g| g.dataset.is_empty()) {
        return Err("the reference run produced no group members".into());
    }
    Ok(digest(&groups))
}

/// One timed `execute_view` plus the cache clear that follows it; the
/// wall time (ms) covers `execute_view` only.
fn timed_run(
    engine: &QualityEngine,
    spec: &QualityViewSpec,
    dataset: &DataSet,
    expected: u64,
) -> (f64, Result<(), String>) {
    let started = Instant::now();
    let outcome = engine.execute_view(spec, dataset);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    engine.finish_execution();
    let checked = match outcome {
        Ok(o) if digest(&o.groups) == expected => Ok(()),
        Ok(_) => Err("execute_view groups differ from the unoptimized plan's".into()),
        Err(e) => Err(format!("execute_view: {e}")),
    };
    (wall_ms, checked)
}

fn end_to_end(config: &Config) -> Result<Report, String> {
    let workload = config.workload;
    let mut report = Report::new(workload);
    let n = config.items(ITEMS);
    let dataset = rows::dataset(&rows::gradient(config.seed, n));

    let timed_setup =
        |store: Option<&Path>| -> Result<(f64, (QualityEngine, QualityViewSpec)), String> {
            let started = Instant::now();
            let state = setup(workload, &dataset, store)?;
            Ok((started.elapsed().as_secs_f64(), state))
        };
    // Several set-ups, each from nothing, so their median is steady. The
    // archive's (~0.3 s of seeding) run first, each dropped before the
    // next so no second archive inflates the memory peak. The paper
    // view's lasts ~60 µs warm: back to back, all of them would share one
    // moment of the host's load, so they are spread between the runs
    // instead, where each starts cache-cold as a fresh `qv run` does.
    let split = workload == Workload::BatchSplitArchive;
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..if split { 5 } else { 1 } {
        drop(state.take());
        let (took, ready) = timed_setup(store_dir(config, "store")?.as_deref())?;
        setup_s.push(took);
        state = Some(ready);
    }
    let (engine, spec) = state.expect("at least one set-up");

    // the reference run doubles as the warm-up
    let expected = reference(&engine, &spec, &dataset)?;
    let runs = config.count(0.9, run_seconds(workload), 5);
    let mut walls = Vec::with_capacity(runs);
    for _ in 0..runs {
        if !split {
            setup_s.push(timed_setup(None)?.0);
        }
        let (wall, checked) = timed_run(&engine, &spec, &dataset, expected);
        walls.push(wall);
        report.check(checked);
    }

    report.metric("setup_s", median(&setup_s), "s");
    report.metric("items_per_s", n as f64 / (median(&walls) / 1e3), "items/s");
    report.metric("latency_p50_ms", median(&walls), "ms");
    // too few runs for a tail with ten samples beyond it: near the maximum
    report.metric("latency_p90_ms", quantile(&walls, 0.9), "ms");
    report.metric(
        "peak_rss_mib",
        server::peak_rss_mib("/proc/self/status").map_err(|e| e.to_string())?,
        "MiB",
    );
    report.metric("runs", runs as f64, "count");
    Ok(report)
}

fn layers(config: &Config) -> Result<Report, String> {
    let workload = config.workload;
    let mut report = Report::new(workload);
    let n = config.items(ITEMS);
    let full = rows::dataset(&rows::gradient(config.seed, n));
    report.metric("xmlio.parse_ms", parse_ms(view_xml(workload), 21)?, "ms");
    let store = store_dir(config, "store")?;
    let (engine, spec) = setup(workload, &full, store.as_deref())?;
    let expected = reference(&engine, &spec, &full)?;

    let replica = Replica { exec: &engine, drive: &engine, serving: false };
    let mut tracer = Tracer::default();
    let mut tally = DriveTally::default();
    let reps = config.count(0.4, run_seconds(workload), 3);
    let terms_before = drive::terms(&engine);
    let mut observe = |d: &drive::Drive, t: &Tracer, run: u64| tally.observe(d, t, run);
    let inputs = vec![&full; reps];
    let mut profiles = vec![profile(
        &replica,
        &spec,
        &inputs,
        Some(expected),
        &mut tracer,
        &mut report,
        &mut observe,
    )?];
    // each repetition is one execute_view and one drive
    let terms_per_run = (drive::terms(&engine) - terms_before) as f64 / (2 * reps) as f64;
    // two smaller sizes, a decade below in all, for the exponents
    for items in [(n as f64 / 10f64.sqrt()) as usize, n / 10] {
        let dataset = rows::dataset(&rows::gradient(config.seed, items.max(10)));
        let inputs = [&dataset; 3];
        profiles.push(profile(
            &replica,
            &spec,
            &inputs,
            None,
            &mut tracer,
            &mut report,
            &mut |_, _, _| {},
        )?);
    }

    layer_metrics(&mut report, &profiles[0]);
    // in-process, the traced run is the drive and tracing costs its spans
    report.metric("trace.overhead", profiles[0].span_overhead(), "fraction");
    exponents(&mut report, &profiles);
    tally.report(&mut report);
    report.metric("annotations.terms_per_run", terms_per_run, "count");
    let (compactions, journal_max) = store_status(&engine);
    report.metric("store.compactions", compactions as f64, "count");
    report.metric("store.journal_records_max", journal_max as f64, "count");
    let sizes = match &store {
        Some(dir) => file_sizes(dir)?,
        None => BTreeMap::new(),
    };
    store_size_metrics(&mut report, &sizes, n);
    report.metric("serve.wire_share", 0.0, "fraction");
    report.metric("serve.other_share", 0.0, "fraction");
    report.metric("serve.response_bytes", 0.0, "B");
    drop(engine);
    tracer
        .write_jsonl(&config.out.join(format!("{}.spans.jsonl", workload.name())))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}
