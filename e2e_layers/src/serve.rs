//! The serve workloads: a real `qv serve` child process driven over HTTP
//! by one load-generator process (at most two threads, two connections),
//! as a host workflow submits data and waits for the filtered result.
//!
//! `serve_paper_200` sends 200-row bodies of the paper's view: engine
//! work per request is small, so per-request costs show (HTTP framing
//! and writes, TSV parse, JSON, provenance). `serve_archive_disk` sends
//! 500-row bodies to a view that archives into a disk store, half of
//! them ids archived before, and waits for each durable acknowledgement:
//! the disk write path, WAL group commit and replace-on-reannotate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use qurator::engine::QualityEngine;
use qurator::prelude::*;
use qurator_telemetry::json;

use crate::http::{self, Client, Response};
use crate::layers::{self, DriveTally, Replica};
use crate::openloop::{self, Sample, Schedule};
use crate::rows::{self, Rng};
use crate::server::Server;
use crate::spans::Tracer;
use crate::stats::{median, quantile, tail_percentile};
use crate::{Config, Report, Workload};

/// Ids the paper workload's bodies draw from.
const POOL: usize = 10_000;
/// Distinct request bodies of the paper workload, sent round-robin.
const PAPER_BODIES: usize = 50;
/// The paper workload's fixed offered rate, requests per second.
const RATE: f64 = 20.0;
/// Seconds a request took at the commit that defined the benchmark, on a
/// 2-core x86-64 sandbox: the paper view's at saturation over two
/// connections, and the archive view's in a one-connection closed loop.
const PAPER_REQUEST_S: f64 = 0.028;
const ARCHIVE_REQUEST_S: f64 = 0.25;
/// Throw-away server spawns per probe point; set-up time is the median
/// over them and the measured server's own spawn.
const PROBES: usize = 8;
/// Every read waits at most this long; a slower response is a failure.
const TIMEOUT: Duration = Duration::from_secs(20);

pub fn run(config: &Config) -> Result<Report, String> {
    let fixture = Fixture::new(config)?;
    match (config.workload, config.trace) {
        (Workload::ServePaper, false) => paper_end_to_end(config, &fixture),
        (Workload::ServeArchiveDisk, false) => archive_end_to_end(config, &fixture),
        (_, true) => layers(config, &fixture),
        _ => unreachable!("serve::run takes serve workloads"),
    }
}

/// What a response must say: its input size and each group's size.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    input: u64,
    groups: Vec<(String, u64)>,
}

/// One request body with the in-process reference for it.
pub struct Body {
    tsv: Vec<u8>,
    dataset: DataSet,
    expected: Expected,
}

/// The view file `qv` serves, the request path, and a reference engine.
struct Fixture {
    view_path: PathBuf,
    xml: &'static str,
    spec: QualityViewSpec,
    path: String,
    reference: QualityEngine,
}

impl Fixture {
    fn new(config: &Config) -> Result<Fixture, String> {
        let xml = match config.workload {
            Workload::ServeArchiveDisk => crate::ARCHIVE_VIEW,
            _ => crate::PAPER_VIEW,
        };
        let dir = config.scratch("views")?;
        let view_path = dir.join("view.xml");
        std::fs::write(&view_path, xml).map_err(|e| format!("writing the view: {e}"))?;
        let spec = qurator::xmlio::parse_quality_view(xml).map_err(|e| e.to_string())?;
        let reference = QualityEngine::with_proteomics_defaults().map_err(|e| e.to_string())?;
        Ok(Fixture { view_path, xml, path: format!("/run/{}", spec.name), spec, reference })
    }

    /// A body for `hits`, with the groups the reference engine computes
    /// for it (outside any timed region).
    fn body(&self, hits: &[rows::Hit]) -> Result<Body, String> {
        let dataset = rows::dataset(hits);
        let outcome =
            self.reference.execute_view(&self.spec, &dataset).map_err(|e| e.to_string())?;
        self.reference.finish_execution();
        let groups =
            outcome.groups.iter().map(|g| (g.name.clone(), g.dataset.len() as u64)).collect();
        let expected = Expected { input: dataset.len() as u64, groups };
        Ok(Body { tsv: rows::tsv(hits).into_bytes(), dataset, expected })
    }

    fn args(&self, store: Option<&Path>, access_log: Option<&Path>) -> Vec<String> {
        let mut args = vec![self.view_path.display().to_string()];
        if let Some(store) = store {
            args.extend(["--store".to_string(), store.display().to_string()]);
        }
        if let Some(log) = access_log {
            args.extend(["--access-log".to_string(), log.display().to_string()]);
        }
        args
    }
}

/// The paper workload's bodies: `PAPER_BODIES` draws of distinct ids
/// from a pool of `POOL`.
fn paper_bodies(
    config: &Config,
    fixture: &Fixture,
    rows_per_body: usize,
    count: usize,
) -> Result<Vec<Body>, String> {
    let mut rng = Rng::new(config.seed ^ rows_per_body as u64);
    (0..count)
        .map(|_| {
            fixture.body(&rows::from_pool(
                config.seed,
                &rng.distinct(rows_per_body, POOL as u64),
                POOL,
            ))
        })
        .collect()
}

/// The archive workload's id sequence: each body half ids archived by
/// earlier bodies, half new ids, in shuffled order.
struct ArchiveSequence {
    rng: Rng,
    seed: u64,
    next_new: u64,
}

impl ArchiveSequence {
    fn new(seed: u64) -> ArchiveSequence {
        ArchiveSequence { rng: Rng::new(seed), seed, next_new: 0 }
    }

    fn hits(&mut self, rows: usize) -> Vec<rows::Hit> {
        let old = (rows / 2).min(self.next_new as usize);
        let mut ids = self.rng.distinct(old, self.next_new.max(1));
        ids.extend(self.next_new..self.next_new + (rows - old) as u64);
        self.next_new += (rows - old) as u64;
        for i in (1..ids.len()).rev() {
            ids.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        rows::from_pool(self.seed, &ids, POOL)
    }

    fn bodies(
        &mut self,
        fixture: &Fixture,
        rows: usize,
        count: usize,
    ) -> Result<Vec<Body>, String> {
        (0..count).map(|_| fixture.body(&self.hits(rows))).collect()
    }

    fn archived(&self) -> u64 {
        self.next_new
    }
}

/// What one request returned, as far as the measurements need it.
#[derive(Debug, Clone)]
struct Outcome {
    checked: Result<(), String>,
    run_id: Option<String>,
    bytes: usize,
}

fn check(response: &std::io::Result<Response>, expected: &Expected) -> Result<(), String> {
    let response = response.as_ref().map_err(|e| format!("request failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("status {}: {}", response.status, response.text()));
    }
    let doc = json::parse(&response.text()).map_err(|e| format!("response is not JSON: {e}"))?;
    let input = doc.get("input").and_then(|v| v.as_u64());
    let groups: Option<Vec<(String, u64)>> =
        doc.get("groups").and_then(|g| g.as_array()).map(|groups| {
            groups
                .iter()
                .map(|g| {
                    let name =
                        g.get("name").and_then(|v| v.as_str()).unwrap_or_default().to_string();
                    (name, g.get("count").and_then(|v| v.as_u64()).unwrap_or(u64::MAX))
                })
                .collect()
        });
    if input != Some(expected.input) || groups.as_ref() != Some(&expected.groups) {
        return Err(format!(
            "response input {input:?} groups {groups:?}; the in-process reference says {} {:?}",
            expected.input, expected.groups
        ));
    }
    Ok(())
}

/// Sends `bodies[i % len]` as request `i` on `connections` under
/// `schedule`. A connection that fails is replaced before its next
/// request.
fn load(
    addr: &str,
    path: &str,
    connections: usize,
    schedule: Schedule,
    count: usize,
    bodies: &[Body],
) -> Result<Vec<Sample<Outcome>>, String> {
    let mut clients = (0..connections)
        .map(|_| Client::connect(addr, TIMEOUT).map(Some))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    Ok(openloop::drive(&mut clients, schedule, count, |client, i| {
        let body = &bodies[i % bodies.len()];
        let response = match client {
            Some(c) => c.request("POST", path, &body.tsv),
            None => Client::connect(addr, TIMEOUT).and_then(|mut c| {
                let response = c.request("POST", path, &body.tsv);
                *client = Some(c);
                response
            }),
        };
        if response.is_err() {
            *client = None;
        }
        let checked = check(&response, &body.expected);
        let (run_id, bytes) = match &response {
            Ok(r) => (r.header("X-QV-Run-Id").map(str::to_string), r.body.len()),
            Err(_) => (None, 0),
        };
        Outcome { checked, run_id, bytes }
    }))
}

fn record(report: &mut Report, samples: &[Sample<Outcome>]) {
    for sample in samples {
        report.check(
            sample.outcome.checked.clone().map_err(|e| format!("request {}: {e}", sample.index)),
        );
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spawns `PROBES` throw-away servers one after another, each until
/// healthy and then stopped, and returns their spawn-to-healthy times in
/// seconds. Workloads probe between load phases, never during one, so
/// the probes neither perturb a measurement nor all share one moment of
/// the host's load.
fn probe_setups(
    config: &Config,
    report: &mut Report,
    args: &dyn Fn() -> Result<Vec<String>, String>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let (server, took) =
            Server::spawn(&config.qv, &args()?).map_err(|e| format!("qv serve: {e}"))?;
        times.push(took.as_secs_f64());
        stop(report, server)?;
    }
    Ok(times)
}

/// SIGTERM; a server that does not drain to exit 0 fails a check.
fn stop(report: &mut Report, server: Server) -> Result<(), String> {
    let status = server.terminate().map_err(|e| format!("stopping qv serve: {e}"))?;
    report.check(match status.success() {
        true => Ok(()),
        false => Err(format!("qv serve exited with {status} after SIGTERM")),
    });
    Ok(())
}

fn latency_metrics(report: &mut Report, latencies_ms: &[f64]) {
    report.metric("latency_p50_ms", median(latencies_ms), "ms");
    report.metric("latency_p90_ms", quantile(latencies_ms, 0.9), "ms");
    if let Some(tail) = tail_percentile(latencies_ms) {
        report.metric(&format!("latency_p{}_ms", tail.percentile), tail.value, "ms");
        report.metric("latency_tail_beyond", tail.beyond as f64, "count");
    }
}

/// Generator lateness and backlog of an open loop.
fn loadgen_metrics(report: &mut Report, samples: &[Sample<Outcome>]) {
    let late: Vec<f64> = samples.iter().filter_map(|s| s.late).map(ms).collect();
    report.metric("loadgen.late_ms_p90", quantile(&late, 0.9), "ms");
    let backlogged = samples.iter().filter(|s| s.late.is_none()).count();
    report.metric("loadgen.backlogged", backlogged as f64, "count");
}

fn paper_end_to_end(config: &Config, fixture: &Fixture) -> Result<Report, String> {
    let mut report = Report::new(config.workload);
    let rows = config.items(200);
    let bodies = paper_bodies(config, fixture, rows, PAPER_BODIES)?;
    let args = fixture.args(None, None);
    let (server, took) = Server::spawn(&config.qv, &args).map_err(|e| format!("qv serve: {e}"))?;
    let mut setup_s = vec![took.as_secs_f64()];
    let addr = server.addr().to_string();

    let warm = load(&addr, &fixture.path, 1, Schedule::Closed, 10, &bodies)?;
    record(&mut report, &warm);
    setup_s.extend(probe_setups(config, &mut report, &|| Ok(args.clone()))?);
    // latency at a fixed offered rate, timed from each request's due time
    let open_count = config.count(0.6, 1.0 / RATE, 40);
    let open = load(&addr, &fixture.path, 2, Schedule::Open { rate: RATE }, open_count, &bodies)?;
    record(&mut report, &open);
    setup_s.extend(probe_setups(config, &mut report, &|| Ok(args.clone()))?);
    // throughput at saturation: two connections, back to back
    let closed_count = config.count(0.3, PAPER_REQUEST_S, 20);
    let closed = load(&addr, &fixture.path, 2, Schedule::Closed, closed_count, &bodies)?;
    record(&mut report, &closed);
    let peak_rss = server.peak_rss_mib().map_err(|e| e.to_string())?;
    stop(&mut report, server)?;

    let wall = closed.iter().map(|s| s.done).max().unwrap_or_default();
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("items_per_s", (closed_count * rows) as f64 / wall.as_secs_f64(), "items/s");
    let latencies: Vec<f64> = open.iter().map(|s| ms(s.latency())).collect();
    latency_metrics(&mut report, &latencies);
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.metric("requests_per_s", closed_count as f64 / wall.as_secs_f64(), "1/s");
    loadgen_metrics(&mut report, &open);
    Ok(report)
}

/// Triples and terms per repository, from `GET /store`.
fn store_counts(addr: &str) -> Result<BTreeMap<String, (u64, u64)>, String> {
    let response = http::get(addr, "/store").map_err(|e| format!("GET /store: {e}"))?;
    let doc = json::parse(&response.text()).map_err(|e| format!("GET /store: {e}"))?;
    let repos =
        doc.get("repositories").and_then(|r| r.as_array()).ok_or("GET /store: no repositories")?;
    Ok(repos
        .iter()
        .map(|r| {
            let field = |k| r.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            let name = r.get("name").and_then(|v| v.as_str()).unwrap_or_default().to_string();
            (name, (field("triples"), field("terms")))
        })
        .collect())
}

/// SIGKILL, restart on the same store, and check that every repository
/// holds the triples it held before the kill. The sandbox keeps the page
/// cache across the kill, so this checks process-crash durability only,
/// not power loss. Returns the restart's spawn-to-healthy time in ms.
fn crash_and_recover(
    config: &Config,
    report: &mut Report,
    server: Server,
    args: &[String],
) -> Result<f64, String> {
    let before: BTreeMap<String, u64> =
        store_counts(server.addr())?.into_iter().map(|(k, (t, _))| (k, t)).collect();
    server.crash().map_err(|e| format!("killing qv serve: {e}"))?;
    let (restarted, took) =
        Server::spawn(&config.qv, args).map_err(|e| format!("restarting qv serve: {e}"))?;
    let after: BTreeMap<String, u64> =
        store_counts(restarted.addr())?.into_iter().map(|(k, (t, _))| (k, t)).collect();
    report.check(match before == after {
        true => Ok(()),
        false => Err(format!("triples before SIGKILL {before:?}, after restart {after:?}")),
    });
    stop(report, restarted)?;
    Ok(ms(took))
}

fn archive_end_to_end(config: &Config, fixture: &Fixture) -> Result<Report, String> {
    let mut report = Report::new(config.workload);
    let rows = config.items(500);
    let count = config.count(0.7, ARCHIVE_REQUEST_S, 10);
    let mut sequence = ArchiveSequence::new(config.seed);
    let warm = sequence.bodies(fixture, rows, 2)?;
    let bodies = sequence.bodies(fixture, rows, count)?;
    let store = config.scratch("store")?;
    let args = fixture.args(Some(&store), None);
    let (server, took) = Server::spawn(&config.qv, &args).map_err(|e| format!("qv serve: {e}"))?;
    let mut setup_s = vec![took.as_secs_f64()];
    let addr = server.addr().to_string();
    // probes start on an empty store of their own, as the measured server did
    let probe_args = || Ok(fixture.args(Some(&config.scratch("probe-store")?), None));

    record(&mut report, &load(&addr, &fixture.path, 1, Schedule::Closed, warm.len(), &warm)?);
    setup_s.extend(probe_setups(config, &mut report, &probe_args)?);
    let samples = load(&addr, &fixture.path, 1, Schedule::Closed, count, &bodies)?;
    record(&mut report, &samples);
    let peak_rss = server.peak_rss_mib().map_err(|e| e.to_string())?;
    setup_s.extend(probe_setups(config, &mut report, &probe_args)?);
    let store_bytes: u64 = layers::file_sizes(&store)?.values().sum();
    let recovery_ms = crash_and_recover(config, &mut report, server, &args)?;

    let wall = samples.iter().map(|s| s.done).max().unwrap_or_default();
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("items_per_s", (count * rows) as f64 / wall.as_secs_f64(), "items/s");
    let latencies: Vec<f64> = samples.iter().map(|s| ms(s.latency())).collect();
    latency_metrics(&mut report, &latencies);
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.metric(
        "store_bytes_per_item",
        store_bytes as f64 / sequence.archived() as f64,
        "B/item",
    );
    report.metric("store.recovery_ms", recovery_ms, "ms");
    Ok(report)
}

/// The traced run: an in-process replica of the server's engine profiles
/// the layers; a server with `--access-log` splits client latency into
/// server and wire time; an untraced server prices the access log.
fn layers(config: &Config, fixture: &Fixture) -> Result<Report, String> {
    let workload = config.workload;
    let archive = workload == Workload::ServeArchiveDisk;
    let mut report = Report::new(workload);
    report.metric("xmlio.parse_ms", layers::parse_ms(fixture.xml, 21)?, "ms");

    // the replica: two engines configured as `qv serve` configures its
    // own, one driven operator by operator and one running execute_view,
    // each fed the same request sequence; on the archive workload every
    // engine and server gets a store directory of its own
    let store_for = |name: &str| -> Result<Option<PathBuf>, String> {
        if archive {
            config.scratch(name).map(Some)
        } else {
            Ok(None)
        }
    };
    let (exec_store, drive_store) = (store_for("replica-exec")?, store_for("replica-drive")?);
    let exec_engine = serving_engine(exec_store.as_deref())?;
    let drive_engine = serving_engine(drive_store.as_deref())?;
    let replica = Replica { exec: &exec_engine, drive: &drive_engine, serving: true };

    // one request sequence for the replica and both servers: a warm-up,
    // then the measured load
    let rows = config.items(if archive { 500 } else { 200 });
    let schedule = if archive { Schedule::Closed } else { Schedule::Open { rate: RATE } };
    let connections = if archive { 1 } else { 2 };
    // the archive's first ~10 requests precede its first compaction and
    // run 3× faster: enough requests that the median lies past them, as
    // in the end-to-end run
    let count = if archive {
        config.count(0.35, ARCHIVE_REQUEST_S, 10)
    } else {
        config.count(0.3, 1.0 / RATE, 30)
    };
    let mut sequence = ArchiveSequence::new(config.seed);
    let (warm, bodies) = match archive {
        true => (sequence.bodies(fixture, rows, 2)?, sequence.bodies(fixture, rows, count)?),
        false => (
            paper_bodies(config, fixture, rows, 10)?,
            paper_bodies(config, fixture, rows, PAPER_BODIES)?,
        ),
    };
    let archived = sequence.archived() as usize;
    let datasets: Vec<&DataSet> = warm
        .iter()
        .chain((0..count).map(|i| &bodies[i % bodies.len()]))
        .map(|b| &b.dataset)
        .collect();

    let mut tracer = Tracer::default();
    let mut tally = DriveTally::default();
    let mut journal_max = 0usize;
    let terms_before = crate::drive::terms(&drive_engine);
    let mut observe = |d: &crate::drive::Drive, t: &Tracer, run: u64| {
        tally.observe(d, t, run);
        journal_max = journal_max.max(layers::store_status(&drive_engine).1);
    };
    let full = layers::profile(
        &replica,
        &fixture.spec,
        &datasets,
        None,
        &mut tracer,
        &mut report,
        &mut observe,
    )?;
    let terms_per_request =
        (crate::drive::terms(&drive_engine) - terms_before) as f64 / datasets.len() as f64;
    let mut profiles = vec![full];
    // one larger body each at √10× and 10× the size, for the exponents
    for scale in [10f64.sqrt(), 10.0] {
        let size = (rows as f64 * scale) as usize;
        let bodies = match archive {
            true => sequence.bodies(fixture, size, 1)?,
            false => paper_bodies(config, fixture, size, 1)?,
        };
        let datasets: Vec<&DataSet> = bodies.iter().map(|b| &b.dataset).collect();
        profiles.push(layers::profile(
            &replica,
            &fixture.spec,
            &datasets,
            None,
            &mut tracer,
            &mut report,
            &mut |_, _, _| {},
        )?);
    }
    layers::layer_metrics(&mut report, &profiles[0]);
    layers::exponents(&mut report, &profiles);
    tally.report(&mut report);
    report.metric("annotations.terms_per_run", terms_per_request, "count");
    let (compactions, _) = layers::store_status(&drive_engine);
    report.metric("store.compactions", compactions as f64, "count");
    report.metric("store.journal_records_max", journal_max as f64, "count");
    let engine_ms = profiles[0].execute_ms;
    drop((exec_engine, drive_engine));

    // the traced server: client timings joined to its access log
    let access_log = config.out.join(format!("{}.access.jsonl", workload.name()));
    if access_log.exists() {
        std::fs::remove_file(&access_log).map_err(|e| e.to_string())?;
    }
    // both servers get the same warm-up, then the same measured load
    type Served = (Server, Vec<Sample<Outcome>>, u64);
    let serve_load = |report: &mut Report, args: &[String]| -> Result<Served, String> {
        let (server, _) = Server::spawn(&config.qv, args).map_err(|e| format!("qv serve: {e}"))?;
        record(
            report,
            &load(server.addr(), &fixture.path, 1, Schedule::Closed, warm.len(), &warm)?,
        );
        let terms = |addr| store_counts(addr).map(|s| s.values().map(|(_, t)| t).sum::<u64>());
        let before = terms(server.addr())?;
        let samples = load(server.addr(), &fixture.path, connections, schedule, count, &bodies)?;
        record(report, &samples);
        let added = terms(server.addr())?.saturating_sub(before);
        Ok((server, samples, added))
    };
    let traced_store = store_for("traced-store")?;
    let traced_args = fixture.args(traced_store.as_deref(), Some(&access_log));
    let (server, traced, terms_served) = serve_load(&mut report, &traced_args)?;
    report.metric("serve.terms_per_request", terms_served as f64 / count as f64, "count");
    match &traced_store {
        Some(store) => {
            let sizes = layers::file_sizes(store)?;
            layers::store_size_metrics(&mut report, &sizes, archived);
            let recovery_ms = crash_and_recover(config, &mut report, server, &traced_args)?;
            report.metric("store.recovery_ms", recovery_ms, "ms");
        }
        None => {
            layers::store_size_metrics(&mut report, &BTreeMap::new(), 1);
            stop(&mut report, server)?;
        }
    }
    wire_metrics(&mut report, &traced, &access_log, engine_ms)?;

    // the untraced server, same load: what the access log costs
    let untraced_store = store_for("untraced-store")?;
    let untraced_args = fixture.args(untraced_store.as_deref(), None);
    let (server, untraced, _) = serve_load(&mut report, &untraced_args)?;
    stop(&mut report, server)?;
    let p50 =
        |s: &[Sample<Outcome>]| median(&s.iter().map(|s| ms(s.latency())).collect::<Vec<_>>());
    report.metric("trace.overhead", p50(&traced) / p50(&untraced) - 1.0, "fraction");
    if !archive {
        loadgen_metrics(&mut report, &traced);
    }
    tracer
        .write_jsonl(&config.out.join(format!("{}.spans.jsonl", workload.name())))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(report)
}

/// An engine configured as `qv serve` configures its own: observability
/// on, decision provenance on and bounded, persistent repositories under
/// `store`.
fn serving_engine(store: Option<&Path>) -> Result<QualityEngine, String> {
    let engine = QualityEngine::with_proteomics_defaults().map_err(|e| e.to_string())?;
    if let Some(dir) = store {
        engine.set_store_root(dir).map_err(|e| e.to_string())?;
    }
    engine.enable_observability(&qurator_telemetry::TelemetryConfig::default());
    engine.set_provenance_enabled(true);
    engine.ledger().set_trace_capacity(8192);
    Ok(engine)
}

/// Splits client latency by the server's own account of each request:
/// server time from the access log (joined on `X-QV-Run-Id`), wire time
/// as the client's service time minus it (request read, response write
/// including any delayed-ACK stall), and the server's time outside the
/// engine as server time minus the replica's `execute_view`.
fn wire_metrics(
    report: &mut Report,
    samples: &[Sample<Outcome>],
    log: &Path,
    engine_ms: f64,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(log).map_err(|e| format!("reading {}: {e}", log.display()))?;
    let mut server_us: BTreeMap<String, u64> = BTreeMap::new();
    for line in text.lines() {
        let record = json::parse(line).map_err(|e| format!("access log line {line:?}: {e}"))?;
        if let (Some(run), Some(us)) = (
            record.get("run_id").and_then(|v| v.as_str()),
            record.get("latency_us").and_then(|v| v.as_u64()),
        ) {
            server_us.insert(run.to_string(), us);
        }
    }
    let (mut server, mut wire, mut client, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for sample in samples {
        let Some(us) = sample.outcome.run_id.as_ref().and_then(|id| server_us.get(id)) else {
            continue;
        };
        let server_ms = *us as f64 / 1e3;
        server.push(server_ms);
        wire.push(ms(sample.service()) - server_ms);
        client.push(ms(sample.service()));
        bytes.push(sample.outcome.bytes as f64);
    }
    report.check(match server.len() == samples.len() {
        true => Ok(()),
        false => {
            Err(format!("{} of {} requests found in the access log", server.len(), samples.len()))
        }
    });
    let (server_p50, wire_p50, client_p50) = (median(&server), median(&wire), median(&client));
    report.metric("serve.server_ms_p50", server_p50, "ms");
    report.metric("serve.wire_ms_p50", wire_p50, "ms");
    report.metric("serve.wire_ms_p90", quantile(&wire, 0.9), "ms");
    report.metric("serve.other_ms", server_p50 - engine_ms, "ms");
    report.metric("serve.client_ms_p50", client_p50, "ms");
    report.metric("serve.wire_share", wire_p50 / client_p50, "fraction");
    report.metric("serve.other_share", (server_p50 - engine_ms) / client_p50, "fraction");
    report.metric("serve.response_bytes", median(&bytes), "B");
    Ok(())
}
