//! The repository benchmark: four workloads of the Quality Views engine,
//! measured end to end as a user sees them, with a separate traced run
//! that splits the time across the engine's layers.
//!
//! Every layer is measured from outside: by timing calls into its public
//! functions, or through `qv serve`'s public endpoints.

mod batch;
mod drive;
mod http;
mod layers;
mod openloop;
mod rows;
mod serve;
mod server;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The views the workloads run, embedded so the benchmark's inputs are
/// its own (copies of `samples/` at the commit that added them, plus the
/// annotator-free splitter over a persistent archive).
pub const PAPER_VIEW: &str = include_str!("../views/paper_view.xml");
pub const ARCHIVE_VIEW: &str = include_str!("../views/persistent_archive.xml");
pub const SPLIT_ARCHIVE_VIEW: &str = include_str!("../views/split_archive.xml");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchPaper,
    BatchSplitArchive,
    ServePaper,
    ServeArchiveDisk,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchPaper,
        Workload::BatchSplitArchive,
        Workload::ServePaper,
        Workload::ServeArchiveDisk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchPaper => "batch_paper_20k",
            Workload::BatchSplitArchive => "batch_split_archive_20k",
            Workload::ServePaper => "serve_paper_200",
            Workload::ServeArchiveDisk => "serve_archive_disk",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one, measured with tracing off. Tail latencies are
/// printed but not published: a batch run of 20 executions has no
/// percentile with ten samples beyond it, and the archive's p90 rides on
/// which requests a compaction lands in.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run, named after the module they
/// time. Every workload reports every one. Times come from spans around
/// public calls, so a phase with no operators reads its near-zero
/// measured cost; a layer a workload never crosses reads 0 only in
/// non-time units (serve shares on batch workloads, store sizes in
/// memory). The residual's exponent is not published: the residual is a
/// difference of two timings and is often below their noise.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("xmlio.parse_ms", "ms"),
    ("validate.validate_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("exec.bind_ms", "ms"),
    ("operators.annotate_ms", "ms"),
    ("operators.annotate_us_per_item", "us"),
    ("operators.enrich_ms", "ms"),
    ("operators.assert_ms", "ms"),
    ("operators.act_ms", "ms"),
    ("engine.residual_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("operators.annotate.exponent", "exponent"),
    ("operators.enrich.exponent", "exponent"),
    ("operators.assert.exponent", "exponent"),
    ("operators.act.exponent", "exponent"),
    ("engine.execute.exponent", "exponent"),
    ("annotations.evidence_written", "count"),
    ("annotations.evidence_read", "count"),
    ("annotations.useful_ratio", "fraction"),
    ("annotations.terms_per_run", "count"),
    ("store.compactions", "count"),
    ("store.journal_records_max", "count"),
    ("store.bytes_per_item", "B/item"),
    ("store.dict_bytes_per_item", "B/item"),
    ("store.wal_bytes_per_item", "B/item"),
    ("store.base_bytes_per_item", "B/item"),
    ("serve.wire_share", "fraction"),
    ("serve.other_share", "fraction"),
    ("serve.response_bytes", "B"),
    ("trace.overhead", "fraction"),
    ("trace.nodestats_gap", "fraction"),
];

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured part should take at the commit that defined
    /// the benchmark; request and run counts are derived from it, so the
    /// work done is fixed for a given setting.
    pub seconds: f64,
    /// Run the traced, per-layer variant instead of the end-to-end one.
    pub trace: bool,
    /// Multiplies every item count; 1.0 is the benchmark, tests shrink it.
    pub scale: f64,
    /// The `qv` binary the serve workloads spawn.
    pub qv: PathBuf,
    /// Where traced runs write spans and layer files; scratch stores live
    /// in a subdirectory that is removed when the run ends.
    pub out: PathBuf,
}

impl Config {
    /// `n` items at this configuration's scale (at least 10).
    pub fn items(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(10)
    }

    /// A count of runs or requests that takes about `share` of the run
    /// time when one costs `unit_seconds`; never fewer than `min`.
    pub fn count(&self, share: f64, unit_seconds: f64, min: usize) -> usize {
        ((self.seconds * share / unit_seconds).round() as usize).max(min)
    }

    /// A fresh scratch directory under `out`.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.out.join(format!("scratch-{}", std::process::id())).join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and whether the program's outputs were right.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: &'static str,
    /// Operations whose output was checked (runs, requests, restarts).
    pub attempted: u64,
    /// The messages of operations that failed or returned a wrong result.
    pub failures: Vec<String>,
    /// Every metric measured, including layer detail beyond the
    /// published set.
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(workload: Workload) -> Report {
        Report { workload: workload.name(), ..Report::default() }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Counts one checked operation; `Err` records it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failures.push(message);
        }
    }

    /// `<workload> <metric> <value> <unit>`, one line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        out
    }

    /// The result object: the published metrics of the run's mode. Fails
    /// when one is missing or not finite — a harness bug, not a result.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let published: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(published.len());
        for (name, unit) in published {
            let metric = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))?;
            if !metric.value.is_finite() || metric.unit != *unit {
                return Err(format!(
                    "{}: metric {name} = {} {}",
                    self.workload, metric.value, metric.unit
                ));
            }
            metrics
                .push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", metric.value));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        ))
    }
}

/// Runs one workload. `Err` is a harness failure (a process would not
/// start, a file would not write); wrong program outputs are recorded in
/// the report instead.
pub fn run(config: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&config.out)
        .map_err(|e| format!("creating {}: {e}", config.out.display()))?;
    let report = match config.workload {
        Workload::BatchPaper | Workload::BatchSplitArchive => batch::run(config),
        Workload::ServePaper | Workload::ServeArchiveDisk => serve::run(config),
    };
    let scratch = config.out.join(format!("scratch-{}", std::process::id()));
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)
            .map_err(|e| format!("removing {}: {e}", scratch.display()))?;
    }
    report
}

/// Writes `<out>/<workload>.layers.json`: every metric of a traced run.
pub fn write_layers(config: &Config, report: &Report) -> Result<PathBuf, String> {
    let path = config.out.join(format!("{}.layers.json", report.workload));
    let mut body = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
        let _ = write!(
            body,
            "{sep}\n    \"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    let text = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"scale\": {},\n  \"metrics\": {{{body}\n  }}\n}}\n",
        report.workload, config.seed, config.scale
    );
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
