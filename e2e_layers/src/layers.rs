//! The traced run's machinery, shared by every workload: profile a set
//! of inputs by alternating untraced `execute_view` with the traced
//! operator drive, and turn the profiles into per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use qurator::engine::QualityEngine;
use qurator::prelude::*;

use crate::drive::{
    self, digest, ACT, ANNOTATE, ASSERT, BIND, DRIVE, ENRICH, FLUSH, PARTS, PLAN, VALIDATE,
};
use crate::spans::Tracer;
use crate::stats::{loglog_slope, median};
use crate::Report;

/// Median over runs of each span name's summed self time, in ms.
fn layer_ms(tracer: &Tracer, runs: &[u64], name: &str) -> f64 {
    let by_run = tracer.self_ns_by_run();
    let values: Vec<f64> = runs
        .iter()
        .map(|run| by_run.get(run).and_then(|m| m.get(name)).copied().unwrap_or(0) as f64 / 1e6)
        .collect();
    median(&values)
}

/// Median layer times of the drives at one input size, and of the
/// untraced `execute_view` calls beside them.
pub struct SizeProfile {
    pub items: usize,
    pub layer_ms: Vec<(&'static str, f64)>,
    /// Median over drives of Σ [`PARTS`].
    pub parts_ms: f64,
    pub execute_ms: f64,
}

impl SizeProfile {
    pub fn get(&self, name: &str) -> f64 {
        self.layer_ms.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v)
    }

    /// What `execute_view` spends beyond the calls the drive times:
    /// provenance, its own spans and stats bookkeeping. A difference of
    /// two medians, so it reads below zero when smaller than their noise.
    pub fn residual_ms(&self) -> f64 {
        self.execute_ms - self.parts_ms
    }

    /// The spans' own cost: the drive's time outside the calls it times,
    /// over those calls.
    pub fn span_overhead(&self) -> f64 {
        self.get(DRIVE) / self.parts_ms
    }
}

/// The span of an untraced `execute_view` call, in its own run.
pub const EXECUTE: &str = "engine.execute_view";

/// The engines a traced run profiles: `exec` runs untraced
/// `execute_view`, `drive` takes the operator drive. Batch runs use one
/// engine for both; the serve replicas use two that each see every
/// request, since a server's repositories carry state from one request
/// to the next.
pub struct Replica<'a> {
    pub exec: &'a QualityEngine,
    pub drive: &'a QualityEngine,
    /// Use the engines as `qv serve` does: group-commit the stores after
    /// every call (which is also what lets the journal compact) and keep
    /// the caches. Otherwise as `qv run` does: drop the caches after each
    /// run.
    pub serving: bool,
}

/// For each input, one untraced `execute_view` and one traced drive.
/// Both must produce the same groups, and the groups of equal inputs
/// must match `expected` when given. Returns the layer times at the
/// inputs' size.
pub fn profile(
    replica: &Replica,
    spec: &QualityViewSpec,
    datasets: &[&DataSet],
    expected: Option<u64>,
    tracer: &mut Tracer,
    report: &mut Report,
    per_drive: &mut dyn FnMut(&drive::Drive, &Tracer, u64),
) -> Result<SizeProfile, String> {
    let mut runs = Vec::with_capacity(datasets.len());
    let mut parts = Vec::with_capacity(datasets.len());
    let mut executes = Vec::with_capacity(datasets.len());
    for dataset in datasets {
        tracer.next_run();
        let span = tracer.start(EXECUTE, None);
        let outcome = replica.exec.execute_view(spec, dataset);
        let execute_ms = tracer.end(span).as_secs_f64() * 1e3;
        let flushed = if replica.serving {
            replica.exec.flush_stores()
        } else {
            replica.exec.finish_execution();
            Ok(())
        };
        // the drive group-commits the stores itself
        let drive = drive::drive(replica.drive, spec, dataset, tracer);
        if !replica.serving {
            replica.drive.finish_execution();
        }
        let run = tracer.spans().last().map_or(0, |s| s.run);
        let check = match (outcome, &drive, flushed) {
            (_, _, Err(e)) => Err(format!("flush_stores: {e}")),
            (Ok(o), Ok(d), Ok(())) => {
                let (a, b) = (digest(&o.groups), digest(&d.groups));
                if a == b && expected.is_none_or(|want| a == want) {
                    Ok(())
                } else {
                    Err(format!(
                        "{} items: execute_view and the operator drive disagree",
                        dataset.len()
                    ))
                }
            }
            (Err(e), _, _) => Err(format!("execute_view: {e}")),
            (_, Err(e), _) => Err(format!("operator drive: {e}")),
        };
        report.check(check);
        if let Ok(d) = &drive {
            per_drive(d, tracer, run);
            let by_run = tracer.self_ns_by_run();
            parts.push(PARTS.iter().filter_map(|p| by_run[&run].get(*p)).sum::<u64>() as f64 / 1e6);
            executes.push(execute_ms);
            runs.push(run);
        }
    }
    let names = [VALIDATE, PLAN, BIND, ANNOTATE, ENRICH, ASSERT, ACT, FLUSH, DRIVE];
    Ok(SizeProfile {
        items: datasets.first().map_or(0, |d| d.len()),
        layer_ms: names.iter().map(|n| (*n, layer_ms(tracer, &runs, n))).collect(),
        parts_ms: median(&parts),
        execute_ms: median(&executes),
    })
}

/// Scaling exponents of the operator layers and of the whole execution
/// over the profiled sizes.
pub fn exponents(report: &mut Report, sizes: &[SizeProfile]) {
    for name in [ANNOTATE, ENRICH, ASSERT, ACT] {
        let points: Vec<(f64, f64)> = sizes.iter().map(|s| (s.items as f64, s.get(name))).collect();
        report.metric(&format!("{name}.exponent"), loglog_slope(&points), "exponent");
    }
    let points: Vec<(f64, f64)> = sizes.iter().map(|s| (s.items as f64, s.execute_ms)).collect();
    report.metric("engine.execute.exponent", loglog_slope(&points), "exponent");
    let points: Vec<(f64, f64)> = sizes.iter().map(|s| (s.items as f64, s.residual_ms())).collect();
    report.metric("engine.residual.exponent", loglog_slope(&points), "exponent");
}

/// The per-layer metrics every traced run reports from its full-size
/// profile.
pub fn layer_metrics(report: &mut Report, full: &SizeProfile) {
    for (name, metric) in [
        (VALIDATE, "validate.validate_ms"),
        (PLAN, "planner.plan_ms"),
        (BIND, "exec.bind_ms"),
        (ANNOTATE, "operators.annotate_ms"),
        (ENRICH, "operators.enrich_ms"),
        (ASSERT, "operators.assert_ms"),
        (ACT, "operators.act_ms"),
        (FLUSH, "store.flush_ms"),
    ] {
        report.metric(metric, full.get(name), "ms");
    }
    report.metric(
        "operators.annotate_us_per_item",
        full.get(ANNOTATE) * 1e3 / full.items as f64,
        "us",
    );
    report.metric("engine.residual_ms", full.residual_ms(), "ms");
    report.metric("engine.execute_ms", full.execute_ms, "ms");
    report.metric("trace.span_overhead", full.span_overhead(), "fraction");
    // validate + plan + bind + Σ operators over the execute_view wall:
    // the drive accounts for the engine's time when this is near 1
    report.metric("trace.parts_share", full.parts_ms / full.execute_ms, "fraction");
}

/// Median `xmlio::parse_quality_view` time over `reps` parses, in ms.
pub fn parse_ms(xml: &str, reps: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        std::hint::black_box(qurator::xmlio::parse_quality_view(xml).map_err(|e| e.to_string())?);
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}

/// Evidence counts, their useful share, and the program's own stats
/// measured against the drive's spans.
#[derive(Debug, Default)]
pub struct DriveTally {
    pub written: Vec<f64>,
    pub read: Vec<f64>,
    pub gaps: Vec<f64>,
}

impl DriveTally {
    pub fn observe(&mut self, drive: &drive::Drive, tracer: &Tracer, run: u64) {
        self.written.push(drive.evidence_written as f64);
        self.read.push(drive.evidence_read as f64);
        let by_run = tracer.self_ns_by_run();
        let bench: u64 =
            [ANNOTATE, ENRICH, ASSERT, ACT].iter().filter_map(|n| by_run[&run].get(*n)).sum();
        if bench > 0 {
            self.gaps.push((bench as f64 - drive.stats_wall_ns as f64).abs() / bench as f64);
        }
    }

    pub fn report(&self, report: &mut Report) {
        let (written, read) = (median(&self.written), median(&self.read));
        report.metric("annotations.evidence_written", written, "count");
        report.metric("annotations.evidence_read", read, "count");
        // evidence written but never read is wasted work; a view that
        // writes nothing wastes nothing
        let useful = if written > 0.0 { read.min(written) / written } else { 1.0 };
        report.metric("annotations.useful_ratio", useful, "fraction");
        report.metric("trace.nodestats_gap", median(&self.gaps), "fraction");
    }
}

/// Bytes under a store directory, summed per file name (`dict.seg`,
/// `wal.log`, `base.seg`, …) across its repositories.
pub fn file_sizes(dir: &Path) -> Result<BTreeMap<String, u64>, String> {
    let mut sizes = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        if meta.is_dir() {
            for (name, len) in file_sizes(&entry.path())? {
                *sizes.entry(name).or_default() += len;
            }
        } else {
            *sizes.entry(entry.file_name().to_string_lossy().into_owned()).or_default() +=
                meta.len();
        }
    }
    Ok(sizes)
}

/// Store bytes per item held: in all and per segment kind.
pub fn store_size_metrics(report: &mut Report, sizes: &BTreeMap<String, u64>, items: usize) {
    let per = |b: u64| b as f64 / items.max(1) as f64;
    let file = |name: &str| sizes.get(name).copied().unwrap_or(0);
    report.metric("store.bytes_per_item", per(sizes.values().sum()), "B/item");
    report.metric("store.dict_bytes_per_item", per(file("dict.seg")), "B/item");
    report.metric("store.wal_bytes_per_item", per(file("wal.log")), "B/item");
    report.metric("store.base_bytes_per_item", per(file("base.seg")), "B/item");
}

/// Compactions and the deepest journal over every repository.
pub fn store_status(engine: &QualityEngine) -> (u64, usize) {
    let catalog = engine.catalog();
    catalog.names().iter().filter_map(|n| catalog.get(n)).fold((0, 0), |(c, j), repo| {
        let status = repo.storage_status();
        (c + status.compactions, j.max(status.journal_records))
    })
}
