//! `qv serve` — a long-lived engine behind a minimal HTTP endpoint.
//!
//! The paper's deployment story (§7) is a *service*: quality views are
//! published once and exercised continuously as new submissions arrive.
//! This module gives the CLI that shape without pulling in an HTTP
//! framework: a hand-rolled `std::net::TcpListener` front-end speaking
//! just enough HTTP/1.1 for `curl`, the CI smoke job and the serving
//! load bench.
//!
//! Routes:
//!
//! | method | path             | body                                     |
//! |--------|------------------|------------------------------------------|
//! | GET    | `/`              | JSON index: views + endpoints            |
//! | GET    | `/healthz`       | `ok`                                     |
//! | GET    | `/metrics`       | Prometheus text exposition               |
//! | GET    | `/traces/recent` | JSON-lines of the newest runs' traces    |
//! | GET    | `/runs/<id>`     | correlation bundle for one run id        |
//! | GET    | `/log/recent`    | JSON-lines from the access-log ring      |
//! | GET    | `/slo`           | per-route error-budget status, JSON      |
//! | GET    | `/store`         | storage inventory + journal/compaction   |
//! | GET    | `/stats/<view>`  | merged stats of the view's runs in ring  |
//! | POST   | `/run/<view>`    | TSV submission in, group summary out     |
//!
//! ## Run correlation
//!
//! Every `POST /run/<view>` mints a [`RunId`] before the engine runs and
//! echoes it in the `X-QV-Run-Id` response header (and the JSON body).
//! The same id keys the run's record in the engine's run ring (its span
//! trace, observed plan-node stats and decisions, kept for the last 256
//! runs) and is stamped on the root span and the access-log line — so
//! `GET /runs/<id>` reassembles the whole story of one request from one
//! record after the fact, and an access-log line is enough to start the
//! chase.
//!
//! ## Concurrency model
//!
//! The accept loop used to handle requests serially on its own thread,
//! so one slow (or half-open) client stalled every other submission.
//! [`Server::run`] now runs a fixed pool instead:
//!
//! * the **accept thread** (the caller of `run`) accepts connections
//!   non-blockingly, polling the shutdown flag, and pushes each socket
//!   into a **bounded queue** (`Mutex<VecDeque>` + condvar,
//!   [`ServeConfig::queue_capacity`] deep, depth exported as the
//!   `serve.queue.depth` gauge);
//! * when the queue is full the connection is **shed** right there: the
//!   accept thread writes `503 Service Unavailable` with a
//!   `Retry-After` header and closes — load is refused visibly
//!   (`serve.shed.count`), never queued unboundedly or silently
//!   dropped;
//! * [`ServeConfig::workers`] **handler threads** pop connections and
//!   speak HTTP/1.1 keep-alive on them: up to
//!   [`ServeConfig::keep_alive_max`] requests per connection, a
//!   [`ServeConfig::read_timeout`] per read so an idle or stalled peer
//!   can hold a worker only briefly. A timeout mid-request is answered
//!   with `408 Request Timeout` (counted in `serve.read.timeout` — a
//!   slow-loris client is distinguishable from a malformed one); a
//!   timeout between requests just closes the idle connection.
//!
//! On SIGTERM the accept thread stops accepting, the workers finish
//! their in-flight request (keep-alive connections are told
//! `Connection: close`), and `run` returns `Ok(())` so the process
//! exits 0 — the CI `serve-smoke` drain contract.
//!
//! The request handler is a pure function ([`route`]) over a
//! [`ServeState`], so the routing table is unit-testable without
//! sockets; the connection layer above it owns framing, keep-alive and
//! error mapping (400 malformed / 408 timeout / 413 oversized / 503
//! shed).

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use qurator::ledger::RUN_CAPACITY;
use qurator::prelude::*;
use qurator::spec::ActionKind;
use qurator_telemetry::json::escape;
use qurator_telemetry::{AccessLog, AccessRecord, RunId, SloConfig, SloTracker};

use crate::tsv;

/// Tuning for the [`Server`] worker pool and HTTP connection handling.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Handler threads popping connections off the queue.
    pub workers: usize,
    /// Accepted-but-unhandled connections the queue holds before the
    /// accept thread sheds with 503.
    pub queue_capacity: usize,
    /// Requests served on one keep-alive connection before it is closed.
    pub keep_alive_max: usize,
    /// Per-read socket timeout: bounds how long a stalled client can
    /// hold a worker, and doubles as the keep-alive idle timeout.
    pub read_timeout: Duration,
    /// Seconds advertised in the `Retry-After` header of shed responses.
    pub retry_after_secs: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 16),
            queue_capacity: 64,
            keep_alive_max: 100,
            read_timeout: Duration::from_secs(5),
            retry_after_secs: 1,
        }
    }
}

/// Observability knobs for one serve instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// File the structured access log is appended to (`--access-log`);
    /// the in-memory ring at `GET /log/recent` is kept either way.
    pub access_log_path: Option<PathBuf>,
    /// Records the in-memory access-log ring retains.
    pub access_log_capacity: usize,
    /// Latency / availability objectives for `GET /slo` and the
    /// `slo.*` gauges.
    pub slo: SloConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { access_log_path: None, access_log_capacity: 1024, slo: SloConfig::default() }
    }
}

/// The serving ledger's item budget: past it the oldest runs lose their
/// decisions (but keep their stats), so a long-lived server does not
/// grow without bound as submissions stream in.
const SERVE_LEDGER_CAPACITY: usize = 8192;

/// Everything a request handler needs: the engine, the access log, the
/// SLO tracker and the views published at startup.
pub struct ServeState {
    engine: QualityEngine,
    access_log: Arc<AccessLog>,
    slo: SloTracker,
    views: BTreeMap<String, QualityViewSpec>,
}

impl ServeState {
    /// Publishes `views` on `engine`. Decision provenance is always on
    /// while serving — `GET /runs/<id>` serves each run's decisions from
    /// its record — but bounded to a budget of [`SERVE_LEDGER_CAPACITY`]
    /// items. Fails only when the `--access-log` sink cannot be opened.
    pub fn new(
        engine: QualityEngine,
        views: Vec<QualityViewSpec>,
        options: ServeOptions,
    ) -> Result<Self, String> {
        engine.set_provenance_enabled(true);
        engine.ledger().set_trace_capacity(SERVE_LEDGER_CAPACITY);
        let access_log = Arc::new(match &options.access_log_path {
            Some(path) => AccessLog::with_sink(options.access_log_capacity, path)
                .map_err(|e| format!("cannot open access log {}: {e}", path.display()))?,
            None => AccessLog::new(options.access_log_capacity),
        });
        let slo = SloTracker::new(options.slo);
        let views = views.into_iter().map(|v| (v.name.clone(), v)).collect();
        Ok(ServeState { engine, access_log, slo, views })
    }

    /// Names of the published views, sorted.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.keys().map(String::as_str).collect()
    }
}

/// Milliseconds since the Unix epoch, for access-log timestamps and SLO
/// window arithmetic.
fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_millis() as u64
}

/// A finished HTTP response, pre-framing.
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    /// `Retry-After` seconds, set on shed (503) responses.
    pub retry_after: Option<u32>,
    /// The run minted for this request, echoed as `X-QV-Run-Id` and
    /// copied into the access-log record.
    pub run_id: Option<RunId>,
}

impl Response {
    fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after: None,
            run_id: None,
        }
    }

    fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
            run_id: None,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        Response::json(status, format!("{{\"error\":\"{}\"}}", escape(message)))
    }

    /// The canned admission-control response: the queue is full, come
    /// back in `retry_after` seconds.
    pub fn shed(retry_after: u32) -> Self {
        let mut response =
            Response::error(503, "request queue is full; retry after the indicated delay");
        response.retry_after = Some(retry_after);
        response
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Clamps a request path to the closed set of metric/log route labels:
/// known endpoints keep their literal path, parameterised families
/// collapse to their prefix (`/run/<view>` → `/run`, `/runs/<id>` →
/// `/runs`), and anything else — including 404 probes — lands in
/// `"other"`, so a port scanner cannot mint unbounded label values in
/// the metrics registry.
pub fn route_label(path: &str) -> &'static str {
    match path {
        "/" => "/",
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/traces/recent" => "/traces/recent",
        "/log/recent" => "/log/recent",
        "/slo" => "/slo",
        "/store" => "/store",
        _ if path.starts_with("/run/") => "/run",
        _ if path.starts_with("/runs/") => "/runs",
        _ if path.starts_with("/stats/") => "/stats",
        _ => "other",
    }
}

/// Dispatches one request. Also records the `serve.requests{route,status}`
/// counter and the `serve.request.latency{route}` histogram (microseconds)
/// so the endpoint observes itself through the same registry it exports.
pub fn route(state: &ServeState, method: &str, target: &str, body: &str) -> Response {
    let started = Instant::now();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let response = route_inner(state, method, path, query, body);
    let label = route_label(path);
    let metrics = qurator_telemetry::metrics();
    metrics
        .counter_with(
            "serve.requests",
            &[("route", label), ("status", &response.status.to_string())],
        )
        .inc();
    metrics
        .histogram_with("serve.request.latency", &[("route", label)])
        .record(started.elapsed().as_micros() as u64);
    response
}

/// Parses a `limit=` query parameter with an explicit error channel: a
/// present-but-non-numeric value is a client mistake worth a 400, not a
/// silent fallback to the default.
fn parse_limit(query: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(raw) = query
        .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("limit=")).map(str::to_string))
    else {
        return Ok(default);
    };
    raw.parse::<usize>().map_err(|_| format!("limit {raw:?} is not a non-negative integer"))
}

fn route_inner(
    state: &ServeState,
    method: &str,
    path: &str,
    query: Option<&str>,
    body: &str,
) -> Response {
    match (method, path) {
        ("GET", "/") => Response::json(200, index_json(state)),
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => {
            // lazy SLO tick: budgets are recomputed whenever someone
            // scrapes, so the hot request path never pays for them
            state.slo.tick(qurator_telemetry::metrics(), now_ms());
            Response::text(200, qurator_telemetry::metrics().render_prometheus())
        }
        ("GET", "/traces/recent") => match parse_limit(query, 32) {
            Err(message) => Response::error(400, &message),
            Ok(limit) => Response {
                status: 200,
                content_type: "application/x-ndjson",
                body: state.engine.ledger().recent_jsonl(limit),
                retry_after: None,
                run_id: None,
            },
        },
        ("GET", "/log/recent") => match parse_limit(query, 32) {
            Err(message) => Response::error(400, &message),
            Ok(limit) => Response {
                status: 200,
                content_type: "application/x-ndjson",
                body: state.access_log.recent_jsonl(limit),
                retry_after: None,
                run_id: None,
            },
        },
        ("GET", "/slo") => {
            Response::json(200, state.slo.to_json(qurator_telemetry::metrics(), now_ms()))
        }
        ("GET", "/store") => Response::json(200, store_json(state)),
        ("GET", runs) if runs.starts_with("/runs/") => run_bundle(state, &runs["/runs/".len()..]),
        ("GET", stats) if stats.starts_with("/stats/") => {
            view_stats(state, &stats["/stats/".len()..])
        }
        ("POST", run) if run.starts_with("/run/") => run_view(state, &run["/run/".len()..], body),
        (
            _,
            "/" | "/healthz" | "/metrics" | "/traces/recent" | "/log/recent" | "/slo" | "/store",
        ) => Response::error(405, &format!("{method} not allowed here")),
        (_, run) if run.starts_with("/run/") => Response::error(405, "use POST with a TSV body"),
        (_, runs) if runs.starts_with("/runs/") => {
            Response::error(405, &format!("{method} not allowed here"))
        }
        (_, stats) if stats.starts_with("/stats/") => {
            Response::error(405, &format!("{method} not allowed here"))
        }
        _ => Response::error(404, &format!("no route for {path}")),
    }
}

/// `GET /runs/<id>`: the correlation bundle for one run, read from its
/// one record in the run ring — the span trace (with the run's own span
/// ids, which the decision traces name), the decision traces (built from
/// the record while the item budget keeps them), and the run's observed
/// plan-node statistics (`"stats"`, the EXPLAIN ANALYZE counters — the
/// bundle's one per-node section). 404 once the run has left the ring.
fn run_bundle(state: &ServeState, id: &str) -> Response {
    let Some(run) = RunId::parse(id) else {
        return Response::error(400, &format!("run id {id:?} is not 16 hex chars"));
    };
    let Some(record) = state.engine.ledger().record(run) else {
        return Response::error(
            404,
            &format!("run {run} is not among the last {RUN_CAPACITY} runs"),
        );
    };
    let jsonl = record.trace.to_jsonl();
    let spans: Vec<&str> = jsonl.lines().collect();
    let trace_json =
        format!("{{{},\"spans\":[{}]}}", record.trace_header_fields(), spans.join(","));
    let stats_json = match &record.stats {
        Some(stats) => stats.to_json(),
        None => "null".to_string(),
    };
    let ledger_json: Vec<String> = record.decision_traces().iter().map(|t| t.to_json()).collect();
    Response::json(
        200,
        format!(
            "{{\"run_id\":\"{run}\",\"trace\":{trace_json},\"ledger\":[{}],\"stats\":{stats_json}}}",
            ledger_json.join(",")
        ),
    )
}

fn index_json(state: &ServeState) -> String {
    let views: Vec<String> =
        state.view_names().iter().map(|v| format!("\"{}\"", escape(v))).collect();
    format!(
        "{{\"service\":\"qv serve\",\"views\":[{}],\"endpoints\":[\"GET /healthz\",\"GET /metrics\",\"GET /traces/recent\",\"GET /runs/<id>\",\"GET /log/recent\",\"GET /slo\",\"GET /store\",\"GET /stats/<view>\",\"POST /run/<view>\"]}}",
        views.join(",")
    )
}

/// `GET /stats/<view>`: the observed plan-node statistics of the view's
/// runs still in the run ring, merged as `qv profile` merges its runs (a
/// `run_stats` document whose `run_id` is null). 404 distinguishes an
/// unpublished view from a published view with no run in the ring.
fn view_stats(state: &ServeState, view: &str) -> Response {
    if !state.views.contains_key(view) {
        return Response::error(
            404,
            &format!("unknown view {view:?}; published: {}", state.view_names().join(", ")),
        );
    }
    match state.engine.ledger().view_stats(view) {
        Some(stats) => Response::json(200, stats.to_json()),
        None => Response::error(404, &format!("view {view:?} has no run in the ring")),
    }
}

/// `GET /store`: the storage inventory — which backend answers each
/// repository and how much it holds. The restart-survival CI job diffs
/// this across a SIGTERM to prove annotations persisted.
fn store_json(state: &ServeState) -> String {
    let catalog = state.engine.catalog();
    let root = match catalog.store_root() {
        Some(path) => format!("\"{}\"", escape(&path.display().to_string())),
        None => "null".to_string(),
    };
    let repos: Vec<String> = catalog
        .names()
        .iter()
        .filter_map(|name| {
            let repo = catalog.get(name)?;
            let status = repo.storage_status();
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            Some(format!(
                "{{\"name\":\"{}\",\"persistent\":{},\"backend\":\"{}\",\"triples\":{},\"terms\":{},\
                 \"journal_records\":{},\"base_triples\":{},\"dict_bytes\":{},\"compactions\":{},\
                 \"last_compaction_us\":{},\"last_compaction_folded\":{}}}",
                escape(name),
                repo.is_persistent(),
                status.backend,
                status.triples,
                status.terms,
                status.journal_records,
                status.base_triples,
                status.dict_bytes,
                status.compactions,
                opt(status.last_compaction_us),
                opt(status.last_compaction_folded),
            ))
        })
        .collect();
    format!("{{\"store_root\":{root},\"repositories\":[{}]}}", repos.join(","))
}

/// `POST /run/<view>`: parse the TSV body, mint a [`RunId`], enact the
/// view under it, summarise the resulting groups. Rejections (for filter
/// actions) are derived the same way the engine's run record counts
/// them: items in minus items out. The run id is echoed on every
/// response that reached the engine — including engine errors, whose
/// runs leave a record too.
fn run_view(state: &ServeState, view: &str, body: &str) -> Response {
    let Some(spec) = state.views.get(view) else {
        return Response::error(
            404,
            &format!("unknown view {view:?}; published: {}", state.view_names().join(", ")),
        );
    };
    let dataset = match tsv::read_dataset(body) {
        Ok(d) => d,
        Err(e) => return Response::error(400, &e),
    };
    let run = RunId::mint();
    let outcome = match state.engine.execute_view_run(spec, &dataset, run) {
        Ok(o) => o,
        Err(e) => {
            // a failing store is the server's fault; anything else is the
            // view's or the data's
            let status = if matches!(e, QuratorError::Storage(_)) { 500 } else { 400 };
            let mut response = Response::error(status, &e.to_string());
            response.run_id = Some(run);
            return response;
        }
    };
    // Durability barrier before acknowledging: disk-backed repositories
    // group-commit their journal here, so a crash right after this
    // response cannot lose the run's annotations.
    if let Err(e) = state.engine.flush_stores() {
        let mut response =
            Response::error(500, &format!("run executed but the store flush failed: {e}"));
        response.run_id = Some(run);
        return response;
    }
    let mut rejected = 0usize;
    for action in &spec.actions {
        if matches!(action.kind, ActionKind::Filter { .. }) {
            if let Some(group) = outcome.groups.iter().find(|g| g.name == action.name) {
                rejected += dataset.len().saturating_sub(group.dataset.len());
            }
        }
    }
    let groups: Vec<String> = outcome
        .groups
        .iter()
        .map(|g| {
            let items: Vec<String> = g
                .dataset
                .items()
                .iter()
                .map(|i| format!("\"{}\"", escape(&i.to_string())))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"count\":{},\"items\":[{}]}}",
                escape(&g.name),
                g.dataset.len(),
                items.join(",")
            )
        })
        .collect();
    let mut response = Response::json(
        200,
        format!(
            "{{\"view\":\"{}\",\"run_id\":\"{run}\",\"input\":{},\"rejected\":{},\"groups\":[{}]}}",
            escape(view),
            dataset.len(),
            rejected,
            groups.join(",")
        ),
    );
    response.run_id = Some(run);
    response
}

/// Upper bounds on what we will buffer from one request.
const MAX_HEAD_BYTES: usize = 64 * 1024;
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request plus the connection disposition it asked for.
struct Request {
    method: String,
    target: String,
    body: String,
    /// Client asked to close (or spoke HTTP/1.0 without keep-alive).
    close: bool,
}

/// Why reading a request off the connection failed, mapped to the HTTP
/// status the connection layer answers with before closing.
enum ReadError {
    /// Unparseable framing (bad request line, malformed or conflicting
    /// `Content-Length`, connection torn down mid-request) → 400.
    Malformed(String),
    /// The per-read socket timeout fired *mid-request* (bytes were
    /// already read) → 408; slow-loris, not malformed.
    Timeout,
    /// Head or declared body over the buffer bounds → 431 / 413.
    TooLarge(u16, &'static str),
    /// Framing we deliberately don't speak (chunked bodies) → 501.
    Unsupported(&'static str),
    /// The socket died (reset, broken pipe): nothing to answer.
    Io(String),
}

/// A connection with its carry-over read buffer: with keep-alive (and
/// pipelining) bytes past the current request's body belong to the next
/// request, so they stay buffered across [`Conn::read_request`] calls.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn { stream, buf: Vec::with_capacity(1024) }
    }

    /// Reads one request. `Ok(None)` means the peer closed (or sat idle
    /// past the read timeout) *between* requests — a clean keep-alive
    /// close, not an error.
    fn read_request(&mut self) -> Result<Option<Request>, ReadError> {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ReadError::TooLarge(431, "request head too large"));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => return Err(ReadError::Malformed("connection closed mid-request".into())),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) && self.buf.is_empty() => return Ok(None),
                Err(e) if is_timeout(&e) => return Err(ReadError::Timeout),
                Err(e) => return Err(ReadError::Io(e.to_string())),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or_default().to_string();
        let target = parts.next().unwrap_or_default().to_string();
        let version = parts.next().unwrap_or("HTTP/1.1");
        if method.is_empty() || !target.starts_with('/') {
            return Err(ReadError::Malformed(format!("malformed request line {request_line:?}")));
        }

        let mut content_length: Option<usize> = None;
        let mut close = version.eq_ignore_ascii_case("HTTP/1.0");
        for line in lines {
            let Some((key, value)) = line.split_once(':') else { continue };
            let key = key.trim();
            let value = value.trim();
            if key.eq_ignore_ascii_case("content-length") {
                // duplicate headers and folded `a, b` lists are accepted
                // only when every value agrees; anything non-numeric is a
                // hard 400 — silently reading 0 would drop the body
                for part in value.split(',') {
                    let part = part.trim();
                    if part.is_empty() || !part.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(ReadError::Malformed(format!(
                            "malformed Content-Length {part:?}"
                        )));
                    }
                    let parsed: usize = part
                        .parse()
                        .map_err(|_| ReadError::TooLarge(413, "Content-Length overflows usize"))?;
                    match content_length {
                        Some(previous) if previous != parsed => {
                            return Err(ReadError::Malformed(format!(
                                "conflicting Content-Length values {previous} and {parsed}"
                            )));
                        }
                        _ => content_length = Some(parsed),
                    }
                }
            } else if key.eq_ignore_ascii_case("transfer-encoding") {
                return Err(ReadError::Unsupported(
                    "chunked transfer encoding is not supported; send Content-Length",
                ));
            } else if key.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(ReadError::TooLarge(413, "body too large"));
        }

        self.buf.drain(..head_end + 4);
        while self.buf.len() < content_length {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ReadError::Malformed("connection closed mid-body".into())),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => return Err(ReadError::Timeout),
                Err(e) => return Err(ReadError::Io(e.to_string())),
            }
        }
        let rest = self.buf.split_off(content_length);
        let body = String::from_utf8_lossy(&self.buf).into_owned();
        self.buf = rest;
        Ok(Some(Request { method, target, body, close }))
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(stream: &mut TcpStream, response: &Response, close: bool) -> std::io::Result<()> {
    let retry_after = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let run_id = match response.run_id {
        Some(run) => format!("X-QV-Run-Id: {run}\r\n"),
        None => String::new(),
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}{}Connection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        retry_after,
        run_id,
        if close { "close" } else { "keep-alive" },
    )?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// `QV_SERVE_LOG=debug` turns on per-connection stderr diagnostics
/// (peer addresses of failed writes); off by default so the serving hot
/// path never formats strings.
fn debug_log_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("QV_SERVE_LOG").map(|v| v.eq_ignore_ascii_case("debug")).unwrap_or(false)
    })
}

/// Sends `response` and accounts for the outcome: broken-pipe writes are
/// counted (`serve.write_error`) and logged at debug level with the peer
/// address instead of vanishing. Returns whether the connection is still
/// usable.
fn send_response(stream: &mut TcpStream, response: &Response, close: bool) -> bool {
    match write_response(stream, response, close) {
        Ok(()) => !close,
        Err(e) => {
            qurator_telemetry::metrics().counter("serve.write_error").inc();
            if debug_log_enabled() {
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "<unknown>".into());
                eprintln!("qv serve: write to {peer} failed: {e}");
            }
            false
        }
    }
}

/// Counts a request that failed before routing (parse error, timeout) in
/// the same `serve.requests` family routed requests use, under the
/// pseudo-route `-`.
fn record_early(status: u16) {
    qurator_telemetry::metrics()
        .counter_with("serve.requests", &[("route", "-"), ("status", &status.to_string())])
        .inc();
}

/// Serves one connection: keep-alive request loop with per-read
/// timeouts, bounded request count, and error mapping.
fn handle_connection(
    state: &ServeState,
    config: &ServeConfig,
    stream: TcpStream,
    shutdown: &AtomicBool,
) {
    // accepted sockets may inherit the listener's non-blocking mode
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "-".into());
    let mut conn = Conn::new(stream);
    for served in 1..=config.keep_alive_max {
        if shutdown.load(Ordering::Relaxed) {
            // draining: no new requests on this connection
            return;
        }
        match conn.read_request() {
            Ok(None) => return, // idle or closed between requests
            Ok(Some(request)) => {
                let started = Instant::now();
                let response = route(state, &request.method, &request.target, &request.body);
                let path = request.target.split('?').next().unwrap_or(&request.target);
                state.access_log.record(AccessRecord {
                    seq: 0,
                    ts_ms: now_ms(),
                    peer: peer.clone(),
                    route: route_label(path).to_string(),
                    status: response.status,
                    bytes: response.body.len() as u64,
                    latency_us: started.elapsed().as_micros() as u64,
                    run_id: response.run_id,
                    shed: false,
                    timeout: false,
                });
                let close = request.close
                    || served == config.keep_alive_max
                    || shutdown.load(Ordering::Relaxed);
                if !send_response(&mut conn.stream, &response, close) {
                    return;
                }
            }
            Err(error) => {
                let response = match error {
                    ReadError::Malformed(message) => Response::error(400, &message),
                    ReadError::Timeout => {
                        qurator_telemetry::metrics().counter("serve.read.timeout").inc();
                        Response::error(408, "timed out reading the request")
                    }
                    ReadError::TooLarge(status, message) => Response::error(status, message),
                    ReadError::Unsupported(message) => Response::error(501, message),
                    ReadError::Io(message) => {
                        qurator_telemetry::metrics().counter("serve.read.error").inc();
                        if debug_log_enabled() {
                            eprintln!("qv serve: read failed: {message}");
                        }
                        return; // nothing to answer on a dead socket
                    }
                };
                record_early(response.status);
                state.access_log.record(AccessRecord {
                    seq: 0,
                    ts_ms: now_ms(),
                    peer: peer.clone(),
                    route: "-".to_string(),
                    status: response.status,
                    bytes: response.body.len() as u64,
                    latency_us: 0,
                    run_id: None,
                    shed: false,
                    timeout: response.status == 408,
                });
                send_response(&mut conn.stream, &response, true);
                return;
            }
        }
    }
}

/// The bounded hand-off between the accept thread and the workers.
/// `try_push` refuses (for shedding) instead of blocking; `pop` blocks
/// until a connection or shutdown-and-drained.
struct ConnQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
    depth: Arc<qurator_telemetry::Gauge>,
}

struct QueueInner {
    connections: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(QueueInner { connections: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            depth: qurator_telemetry::metrics().gauge("serve.queue.depth"),
        }
    }

    /// Queues an accepted connection, or hands it back when full.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed || inner.connections.len() >= self.capacity {
            return Err(stream);
        }
        inner.connections.push_back(stream);
        self.depth.set(inner.connections.len() as i64);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(stream) = inner.connections.pop_front() {
                self.depth.set(inner.connections.len() as i64);
                return Some(stream);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Stops the queue: workers drain what is already queued, then exit.
    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// The HTTP front-end. Binding to port 0 picks a free port (tests and
/// the CI smoke job read the real address back via
/// [`Server::local_addr`]).
pub struct Server {
    listener: TcpListener,
    state: ServeState,
    config: ServeConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, port 0 for ephemeral) with
    /// the given pool configuration.
    pub fn bind(addr: &str, state: ServeState, config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        Ok(Server { listener, state, config })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// The effective pool configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves until `shutdown` flips true (the signal handler's job),
    /// then drains: accepting stops, queued and in-flight requests
    /// finish, the workers join, and `run` returns cleanly.
    pub fn run(self, shutdown: &AtomicBool) -> Result<(), String> {
        let Server { listener, state, config } = self;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let queue = ConnQueue::new(config.queue_capacity);
        std::thread::scope(|scope| {
            for _ in 0..config.workers.max(1) {
                let (state, config, queue) = (&state, &config, &queue);
                scope.spawn(move || {
                    while let Some(stream) = queue.pop() {
                        handle_connection(state, config, stream, shutdown);
                    }
                });
            }
            let result = accept_loop(&listener, &queue, &config, &state, shutdown);
            queue.close();
            result
        })
    }
}

/// Accepts until shutdown; full-queue connections are shed with 503 +
/// `Retry-After` right here, so the accept thread never blocks on a
/// client and admission stays bounded.
fn accept_loop(
    listener: &TcpListener,
    queue: &ConnQueue,
    config: &ServeConfig,
    state: &ServeState,
    shutdown: &AtomicBool,
) -> Result<(), String> {
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                if let Err(mut refused) = queue.try_push(stream) {
                    qurator_telemetry::metrics().counter("serve.shed.count").inc();
                    record_early(503);
                    let response = Response::shed(config.retry_after_secs);
                    state.access_log.record(AccessRecord {
                        seq: 0,
                        ts_ms: now_ms(),
                        peer: peer.to_string(),
                        route: "-".to_string(),
                        status: response.status,
                        bytes: response.body.len() as u64,
                        latency_us: 0,
                        run_id: None,
                        shed: true,
                        timeout: false,
                    });
                    let _ = refused.set_nonblocking(false);
                    let _ = refused.set_write_timeout(Some(Duration::from_secs(1)));
                    send_response(&mut refused, &response, true);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_telemetry::json;

    const VIEW: &str = r#"
<QualityView name="serve-test">
  <Annotator serviceName="imprint" serviceType="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
      <var evidence="q:MassCoverage"/>
      <var evidence="q:PeptidesCount"/>
    </variables>
  </Annotator>
  <QualityAssertion serviceName="score" serviceType="q:UniversalPIScore2"
                    tagName="HR_MC" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="coverage" evidence="q:MassCoverage"/>
      <var variableName="hitratio" evidence="q:HitRatio"/>
      <var variableName="peptidescount" evidence="q:PeptidesCount"/>
    </variables>
  </QualityAssertion>
  <action name="keep">
    <filter><condition>HR_MC &gt; 0</condition></filter>
  </action>
</QualityView>"#;

    const DATA: &str = "id\thitRatio\tmassCoverage\tpeptidesCount\n\
urn:lsid:t:h:good\t0.9\t40\t12\n\
urn:lsid:t:h:bad\t0.1\t3\t1\n";

    fn state() -> ServeState {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let spec = qurator::xmlio::parse_quality_view(VIEW).unwrap();
        ServeState::new(engine, vec![spec], ServeOptions::default()).unwrap()
    }

    /// A server on an ephemeral port running on a background thread.
    fn spawn(config: ServeConfig) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let server = Server::bind("127.0.0.1:0", state(), config).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || server.run(&flag).unwrap());
        (addr, shutdown, thread)
    }

    /// One-shot exchange: write `payload`, read to EOF.
    fn request(addr: SocketAddr, payload: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(payload.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    /// Reads exactly one framed response off a keep-alive connection:
    /// `(status, headers, body)`.
    fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(pos) = find_head_end(&buf) {
                break pos;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed before a full response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                l.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            })
            .map(|(_, v)| v.trim().parse().unwrap())
            .unwrap();
        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-body");
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);
        (status, head, String::from_utf8(body).unwrap())
    }

    fn get(path: &str, close: bool) -> String {
        format!(
            "GET {path} HTTP/1.1\r\nHost: x\r\n{}\r\n",
            if close { "Connection: close\r\n" } else { "" }
        )
    }

    fn post_run(body: &str, close: bool) -> String {
        format!(
            "POST /run/serve-test HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n{}\r\n{body}",
            body.len(),
            if close { "Connection: close\r\n" } else { "" }
        )
    }

    #[test]
    fn healthz_and_index_respond() {
        let state = state();
        let r = route(&state, "GET", "/healthz", "");
        assert_eq!((r.status, r.body.as_str()), (200, "ok\n"));
        let r = route(&state, "GET", "/", "");
        let value = json::parse(&r.body).unwrap();
        let views = value.get("views").and_then(|v| v.as_array()).unwrap();
        assert_eq!(views[0].as_str(), Some("serve-test"));
    }

    #[test]
    fn unknown_routes_and_wrong_methods_are_rejected() {
        let state = state();
        assert_eq!(route(&state, "GET", "/nope", "").status, 404);
        assert_eq!(route(&state, "POST", "/metrics", "").status, 405);
        assert_eq!(route(&state, "GET", "/run/serve-test", "").status, 405);
        assert_eq!(route(&state, "POST", "/runs/0011223344556677", "").status, 405);
        assert_eq!(route(&state, "POST", "/run/missing", DATA).status, 404);
        assert_eq!(route(&state, "POST", "/run/serve-test", "not a tsv").status, 400);
    }

    #[test]
    fn store_endpoint_reports_backends() {
        let state = state();
        assert_eq!(route(&state, "POST", "/store", "").status, 405);

        // Before any run: no store root, no repositories yet.
        let r = route(&state, "GET", "/store", "");
        assert_eq!(r.status, 200, "{}", r.body);
        let value = json::parse(&r.body).unwrap();
        assert!(value.get("store_root").unwrap().is_null());
        assert_eq!(value.get("repositories").and_then(|v| v.as_array()).unwrap().len(), 0);

        // The view's cache belongs to the run and goes with it, so the
        // inventory stays empty after a run.
        assert_eq!(route(&state, "POST", "/run/serve-test", DATA).status, 200);
        let r = route(&state, "GET", "/store", "");
        let value = json::parse(&r.body).unwrap();
        assert_eq!(value.get("repositories").and_then(|v| v.as_array()).unwrap().len(), 0);
    }

    #[test]
    fn store_endpoint_reports_disk_backend_under_a_store_root() {
        let tmp = qurator_rdf::storage::test_support::TempDir::new("serve-store");
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        engine.set_store_root(tmp.path()).unwrap();
        let view = VIEW
            .replace(
                "repositoryRef=\"cache\" persistent=\"false\"",
                "repositoryRef=\"archive\" persistent=\"true\"",
            )
            .replace("repositoryRef=\"cache\"", "repositoryRef=\"archive\"");
        let spec = qurator::xmlio::parse_quality_view(&view).unwrap();
        let state = ServeState::new(engine, vec![spec], ServeOptions::default()).unwrap();

        // The run's annotations land on disk and are flushed before the
        // 200 is acknowledged.
        assert_eq!(route(&state, "POST", "/run/serve-test", DATA).status, 200);
        let r = route(&state, "GET", "/store", "");
        let value = json::parse(&r.body).unwrap();
        assert_eq!(
            value.get("store_root").and_then(|v| v.as_str()),
            Some(tmp.path().to_str().unwrap())
        );
        let repos = value.get("repositories").and_then(|v| v.as_array()).unwrap();
        let archive = repos
            .iter()
            .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("archive"))
            .expect("archive repository listed");
        assert_eq!(archive.get("backend").and_then(|v| v.as_str()), Some("disk"));
        assert_eq!(archive.get("persistent").and_then(|v| v.as_bool()), Some(true));
        assert!(archive.get("triples").and_then(|v| v.as_f64()).unwrap() > 0.0);
        // storage-layer facts: the run's writes are journaled (flushed,
        // not yet compacted) and the dictionary holds interned terms
        assert!(archive.get("journal_records").and_then(|v| v.as_u64()).unwrap() > 0);
        assert!(archive.get("dict_bytes").and_then(|v| v.as_u64()).unwrap() > 0);
        assert_eq!(archive.get("base_triples").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(archive.get("compactions").and_then(|v| v.as_u64()), Some(0));
        assert!(archive.get("last_compaction_us").unwrap().is_null());
    }

    /// `GET /stats/<view>` is the merge of that view's runs in the ring,
    /// and nothing else: each view's document equals the merge of its own
    /// runs' `/runs/<id>` stats.
    #[test]
    fn stats_endpoint_serves_the_observed_profile() {
        use qurator_telemetry::RunStats;
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let views = [VIEW.to_string(), VIEW.replace("name=\"serve-test\"", "name=\"other\"")];
        let specs = views.iter().map(|v| qurator::xmlio::parse_quality_view(v).unwrap()).collect();
        let state = ServeState::new(engine, specs, ServeOptions::default()).unwrap();
        assert_eq!(route(&state, "POST", "/stats/serve-test", "").status, 405);
        assert_eq!(route(&state, "GET", "/stats/missing", "").status, 404);
        // published but not run yet: a distinct 404
        let r = route(&state, "GET", "/stats/serve-test", "");
        assert_eq!(r.status, 404, "{}", r.body);
        assert!(r.body.contains("no run in the ring"), "{}", r.body);

        let mut runs: BTreeMap<&str, Vec<RunId>> = BTreeMap::new();
        for view in ["serve-test", "other", "serve-test"] {
            let r = route(&state, "POST", &format!("/run/{view}"), DATA);
            assert_eq!(r.status, 200, "{}", r.body);
            runs.entry(view).or_default().push(r.run_id.unwrap());
        }
        for (view, ids) in runs {
            let mut expected = RunStats { view: view.to_string(), ..RunStats::default() };
            for id in ids {
                // the bundle's last section is the run's `stats` document
                let bundle = route(&state, "GET", &format!("/runs/{id}"), "").body;
                let stats = bundle.split_once(",\"stats\":").unwrap().1.strip_suffix('}').unwrap();
                expected.merge(&RunStats::parse(stats).unwrap());
            }
            let r = route(&state, "GET", &format!("/stats/{view}"), "");
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(RunStats::parse(&r.body).unwrap(), expected, "{view}");
        }
    }

    #[test]
    fn run_bundle_joins_the_observed_stats() {
        let state = state();
        let r = route(&state, "POST", "/run/serve-test", DATA);
        assert_eq!(r.status, 200, "{}", r.body);
        let run = r.run_id.unwrap();
        let bundle = route(&state, "GET", &format!("/runs/{run}"), "");
        let value = json::parse(&bundle.body).unwrap();
        let stats = value.get("stats").expect("stats joined into the bundle");
        assert_eq!(stats.get("run_id").and_then(|v| v.as_str()), Some(run.to_string().as_str()));
        assert_eq!(stats.get("items").and_then(|v| v.as_u64()), Some(2));
        let nodes = stats.get("nodes").and_then(|v| v.as_object()).unwrap();
        assert!(!nodes.is_empty(), "{}", bundle.body);
        // `stats` is the bundle's one per-node section
        assert!(value.get("profile").is_none(), "{}", bundle.body);
    }

    /// An earlier run resolves at `/runs/<id>` after a later run of the
    /// same ids, with its own trace, decisions and stats (the core test
    /// `budget_evicted_decisions_leave_a_run_its_stats` covers a run whose
    /// decisions the item budget evicted).
    #[test]
    fn an_earlier_run_keeps_its_trace_ledger_and_stats() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let spec =
            qurator::xmlio::parse_quality_view(include_str!("../../../samples/splitter_view.xml"))
                .unwrap();
        let state = ServeState::new(engine, vec![spec], ServeOptions::default()).unwrap();
        let path = "/run/pmf-confidence-split";
        let first = route(&state, "POST", path, DATA).run_id.expect("first run id");
        assert_eq!(route(&state, "POST", path, DATA).status, 200);

        let bundle = route(&state, "GET", &format!("/runs/{first}"), "");
        assert_eq!(bundle.status, 200, "{}", bundle.body);
        let value = json::parse(&bundle.body).unwrap();
        let trace = value.get("trace").expect("trace section");
        let root = &trace.get("spans").and_then(|v| v.as_array()).unwrap()[0];
        let run_attr = root.get("attrs").and_then(|a| a.get("run_id")).and_then(|v| v.as_str());
        assert_eq!(run_attr, Some(first.to_string().as_str()), "{}", bundle.body);
        // a splitter rejects nothing: its non-matches form the default group
        assert_eq!(trace.get("rejected").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(trace.get("error").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(value.get("ledger").and_then(|v| v.as_array()).map(|l| l.len()), Some(2));
        let stats = value.get("stats").expect("stats section");
        assert_eq!(stats.get("run_id").and_then(|v| v.as_str()), Some(first.to_string().as_str()));
    }

    /// The span ids a bundle's decision traces name are ids of the
    /// bundle's own trace, on every run and not only the first.
    #[test]
    fn bundle_ledger_spans_point_into_its_trace() {
        let state = state();
        route(&state, "POST", "/run/serve-test", DATA);
        let second = route(&state, "POST", "/run/serve-test", DATA).run_id.unwrap();
        let bundle = route(&state, "GET", &format!("/runs/{second}"), "");
        let value = json::parse(&bundle.body).unwrap();
        let ids: std::collections::BTreeSet<u64> = value
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|s| s.get("id").and_then(|v| v.as_u64()).unwrap())
            .collect();
        let mut named = 0;
        for trace in value.get("ledger").and_then(|v| v.as_array()).unwrap() {
            for section in ["evidence", "assertions", "actions"] {
                for record in trace.get(section).and_then(|v| v.as_array()).unwrap() {
                    let span = record.get("span").and_then(|v| v.as_u64()).unwrap();
                    assert!(ids.contains(&span), "span {span} not in the trace {ids:?}");
                    named += 1;
                }
            }
        }
        assert!(named > 0, "{}", bundle.body);
    }

    /// Every run the ring holds answers with its trace: 300 posts from two
    /// threads, and the last 256 run ids all resolve with a non-null
    /// `trace`.
    #[test]
    fn the_last_256_runs_all_answer_with_a_trace() {
        let state = state();
        let runs = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..150 {
                        let run = route(&state, "POST", "/run/serve-test", DATA).run_id.unwrap();
                        runs.lock().unwrap().push(run);
                    }
                });
            }
        });
        let runs = runs.into_inner().unwrap();
        assert_eq!(runs.len(), 300);
        // the ring's order is push order, which the two threads interleave
        // freely; the newest 256 records are the ones it holds
        let held: Vec<RunId> = runs
            .iter()
            .copied()
            .filter(|run| state.engine.ledger().record(*run).is_some())
            .collect();
        assert_eq!(held.len(), RUN_CAPACITY);
        for run in held {
            let bundle = route(&state, "GET", &format!("/runs/{run}"), "");
            assert_eq!(bundle.status, 200, "{}", bundle.body);
            let value = json::parse(&bundle.body).unwrap();
            let spans = value.get("trace").and_then(|t| t.get("spans")).and_then(|v| v.as_array());
            assert!(spans.is_some_and(|s| !s.is_empty()), "{run}: {}", bundle.body);
        }
    }

    /// Re-posting the same body leaves the first run's bundle with its
    /// own decisions: one trace per item, each stamped with its run.
    #[test]
    fn a_reposted_run_keeps_its_own_ledger() {
        let state = state();
        let first = route(&state, "POST", "/run/serve-test", DATA).run_id.expect("first run id");
        let second = route(&state, "POST", "/run/serve-test", DATA).run_id.expect("second run id");
        for run in [first, second] {
            let bundle = route(&state, "GET", &format!("/runs/{run}"), "");
            assert_eq!(bundle.status, 200, "{}", bundle.body);
            let value = json::parse(&bundle.body).unwrap();
            let ledger = value.get("ledger").and_then(|v| v.as_array()).unwrap();
            assert_eq!(ledger.len(), 2, "one trace per item: {}", bundle.body);
            assert!(ledger.iter().all(|t| {
                t.get("run_id").and_then(|v| v.as_str()) == Some(run.to_string().as_str())
            }));
        }
    }

    /// Satellite regression: a scanner probing arbitrary paths must not
    /// mint one metric series per probe — every unknown path collapses
    /// into the single `route="other"` label.
    #[test]
    fn unknown_paths_share_one_metric_label() {
        assert_eq!(route_label("/admin/../etc/passwd"), "other");
        assert_eq!(route_label("/nope"), "other");
        assert_eq!(route_label("/run/any-view"), "/run");
        assert_eq!(route_label("/runs/0011223344556677"), "/runs");
        assert_eq!(route_label("/metrics"), "/metrics");

        let state = state();
        for path in ["/scan-a", "/scan-b", "/scan-c"] {
            assert_eq!(route(&state, "GET", path, "").status, 404);
        }
        let rendered = qurator_telemetry::metrics().render_prometheus();
        assert!(rendered.contains("serve.requests{route=\"other\",status=\"404\"}"), "{rendered}");
        for path in ["/scan-a", "/scan-b", "/scan-c"] {
            assert!(!rendered.contains(path), "probe path {path} leaked into metrics");
        }
    }

    /// Satellite regression: `?limit=` that does not parse is a 400 with
    /// a JSON error body, not a silent fall-back to the default.
    #[test]
    fn non_numeric_limit_is_a_400_json_error() {
        let state = state();
        for target in ["/traces/recent?limit=abc", "/log/recent?limit=-3"] {
            let r = route(&state, "GET", target, "");
            assert_eq!(r.status, 400, "{target}: {}", r.body);
            assert_eq!(r.content_type, "application/json");
            let value = json::parse(&r.body).unwrap();
            assert!(
                value.get("error").and_then(|v| v.as_str()).unwrap().contains("limit"),
                "{}",
                r.body
            );
        }
        // a well-formed limit still works
        assert_eq!(route(&state, "GET", "/traces/recent?limit=5", "").status, 200);
    }

    #[test]
    fn run_responses_carry_a_run_id_resolvable_at_runs() {
        let state = state();
        let r = route(&state, "POST", "/run/serve-test", DATA);
        assert_eq!(r.status, 200, "{}", r.body);
        let minted = r.run_id.expect("run id minted for a routed run");
        let value = json::parse(&r.body).unwrap();
        assert_eq!(value.get("run_id").and_then(|v| v.as_str()), Some(minted.to_string().as_str()));

        // the bundle endpoint reassembles the run: trace + ledger slice
        let bundle = route(&state, "GET", &format!("/runs/{minted}"), "");
        assert_eq!(bundle.status, 200, "{}", bundle.body);
        let value = json::parse(&bundle.body).unwrap();
        assert_eq!(value.get("run_id").and_then(|v| v.as_str()), Some(minted.to_string().as_str()));
        let ledger = value.get("ledger").and_then(|v| v.as_array()).unwrap();
        assert_eq!(ledger.len(), 2, "one decision trace per submitted item");
        assert!(ledger.iter().all(|t| {
            t.get("run_id").and_then(|v| v.as_str()) == Some(minted.to_string().as_str())
        }));
        // every run's trace lives in its record
        let trace = value.get("trace").unwrap();
        let spans = trace.get("spans").and_then(|v| v.as_array()).unwrap();
        assert!(!spans.is_empty());

        // malformed and unknown ids are told apart
        assert_eq!(route(&state, "GET", "/runs/not-hex", "").status, 400);
        assert_eq!(route(&state, "GET", "/runs/00000000deadbeef", "").status, 404);
    }

    #[test]
    fn slo_endpoint_reports_budgets_for_served_routes() {
        let state = state();
        assert_eq!(route(&state, "POST", "/run/serve-test", DATA).status, 200);
        let r = route(&state, "GET", "/slo", "");
        assert_eq!(r.status, 200);
        let value = json::parse(&r.body).unwrap();
        assert!(value.get("availability").and_then(|v| v.as_f64()).unwrap() > 0.9);
        let routes = value.get("routes").and_then(|v| v.as_array()).unwrap();
        assert!(
            routes.iter().any(|r| r.get("route").and_then(|v| v.as_str()) == Some("/run")),
            "{}",
            r.body
        );
    }

    #[test]
    fn run_endpoint_enacts_and_the_trace_lands_in_the_ring() {
        let state = state();
        let r = route(&state, "POST", "/run/serve-test", DATA);
        assert_eq!(r.status, 200, "{}", r.body);
        let value = json::parse(&r.body).unwrap();
        assert_eq!(value.get("input").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(value.get("rejected").and_then(|v| v.as_u64()), Some(1));
        let groups = value.get("groups").and_then(|v| v.as_array()).unwrap();
        assert_eq!(groups[0].get("name").and_then(|v| v.as_str()), Some("keep"));
        assert_eq!(groups[0].get("count").and_then(|v| v.as_u64()), Some(1));

        // the run's trace heads the recent-traces export
        let r = route(&state, "GET", "/traces/recent", "");
        assert_eq!(r.status, 200);
        assert!(qurator_telemetry::schema::validate_trace_jsonl(&r.body).unwrap() > 0);
        assert!(r.body.starts_with("{\"type\":\"trace\",\"view\":\"serve-test\""), "{}", r.body);
        assert!(r.body.contains("\"rejected\":1,\"error\":false"), "{}", r.body);

        // metrics include the serve-side series this request just recorded
        let r = route(&state, "GET", "/metrics", "");
        assert!(r.body.contains("serve.requests{route=\"/run\",status=\"200\"}"), "{}", r.body);
        assert!(qurator_telemetry::schema::validate_metrics_text(&r.body).unwrap() > 0);

        // the drift monitor is gone, and its endpoint with it
        assert_eq!(route(&state, "GET", "/drift", "").status, 404);
    }

    #[test]
    fn traces_recent_honours_the_limit_parameter() {
        let state = state();
        for _ in 0..3 {
            assert_eq!(route(&state, "POST", "/run/serve-test", DATA).status, 200);
        }
        let all = route(&state, "GET", "/traces/recent", "");
        let one = route(&state, "GET", "/traces/recent?limit=1", "");
        let headers =
            |body: &str| body.lines().filter(|l| l.contains("\"type\":\"trace\"")).count();
        assert!(headers(&all.body) >= 3, "{}", all.body);
        assert_eq!(headers(&one.body), 1);
    }

    #[test]
    fn server_speaks_http_over_a_real_socket() {
        let (addr, shutdown, thread) = spawn(ServeConfig::default());

        let health = request(addr, &get("/healthz", true));
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let run = request(addr, &post_run(DATA, true));
        assert!(run.starts_with("HTTP/1.1 200 OK\r\n"), "{run}");
        assert!(run.contains("\"rejected\":1"), "{run}");

        let bad = request(addr, "BROKEN\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_socket() {
        let (addr, shutdown, thread) = spawn(ServeConfig::default());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(get("/healthz", false).as_bytes()).unwrap();
        let (status, head, body) = read_response(&mut stream);
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(head.contains("Connection: keep-alive"), "{head}");

        // same socket, second request — including a POST with a body
        stream.write_all(post_run(DATA, false).as_bytes()).unwrap();
        let (status, _, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"rejected\":1"), "{body}");

        // Connection: close is honoured: response, then EOF
        stream.write_all(get("/healthz", true).as_bytes()).unwrap();
        let (status, head, _) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: close"), "{head}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "expected EOF after Connection: close");

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }

    #[test]
    fn run_id_header_and_access_log_flow_over_a_real_socket() {
        let (addr, shutdown, thread) = spawn(ServeConfig::default());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(post_run(DATA, false).as_bytes()).unwrap();
        let (status, head, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        let echoed = head
            .lines()
            .find_map(|l| l.strip_prefix("X-QV-Run-Id: "))
            .expect("run id header on POST /run responses")
            .trim()
            .to_string();
        assert!(qurator_telemetry::RunId::parse(&echoed).is_some(), "{echoed}");
        assert!(body.contains(&format!("\"run_id\":\"{echoed}\"")), "{body}");

        // the access log saw the request, tagged with the same run id,
        // and the ring endpoint serves schema-valid JSONL
        stream.write_all(get("/log/recent", true).as_bytes()).unwrap();
        let (status, _, log) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert!(qurator_telemetry::schema::validate_access_log_jsonl(&log).unwrap() >= 1, "{log}");
        let run_line = log
            .lines()
            .find(|l| l.contains(&format!("\"run_id\":\"{echoed}\"")))
            .expect("access-log line for the run");
        assert!(run_line.contains("\"route\":\"/run\""), "{run_line}");
        assert!(run_line.contains("\"status\":200"), "{run_line}");

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }

    #[test]
    fn keep_alive_request_cap_closes_the_connection() {
        let config = ServeConfig { keep_alive_max: 2, ..ServeConfig::default() };
        let (addr, shutdown, thread) = spawn(config);

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(get("/healthz", false).as_bytes()).unwrap();
        let (_, head, _) = read_response(&mut stream);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        stream.write_all(get("/healthz", false).as_bytes()).unwrap();
        let (_, head, _) = read_response(&mut stream);
        // the cap turns the final response into a close
        assert!(head.contains("Connection: close"), "{head}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }

    #[test]
    fn malformed_and_conflicting_content_length_get_400() {
        let (addr, shutdown, thread) = spawn(ServeConfig::default());

        // unparseable: previously read as 0, silently dropping the body
        let r = request(addr, "POST /run/serve-test HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 400"), "{r}");
        assert!(r.contains("malformed Content-Length"), "{r}");

        // two disagreeing values: request smuggling shape, hard reject
        let r = request(
            addr,
            "POST /run/serve-test HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 7\r\n\r\nabcdefg",
        );
        assert!(r.starts_with("HTTP/1.1 400"), "{r}");
        assert!(r.contains("conflicting Content-Length"), "{r}");

        // duplicates that agree are fine
        let body = DATA;
        let r = request(
            addr,
            &format!(
                "POST /run/serve-test HTTP/1.1\r\nContent-Length: {0}\r\nContent-Length: {0}\r\nConnection: close\r\n\r\n{1}",
                body.len(),
                body
            ),
        );
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");

        // chunked framing is refused, not misread
        let r = request(
            addr,
            "POST /run/serve-test HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        );
        assert!(r.starts_with("HTTP/1.1 501"), "{r}");

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }

    #[test]
    fn stalled_mid_request_client_gets_408() {
        let config =
            ServeConfig { read_timeout: Duration::from_millis(200), ..ServeConfig::default() };
        let (addr, shutdown, thread) = spawn(config);

        let mut stream = TcpStream::connect(addr).unwrap();
        // half a request line, then silence: a slow-loris shape
        stream.write_all(b"POST /run/serve-t").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }

    #[test]
    fn idle_keep_alive_connections_are_closed_quietly() {
        let config =
            ServeConfig { read_timeout: Duration::from_millis(200), ..ServeConfig::default() };
        let (addr, shutdown, thread) = spawn(config);

        // connect and send nothing: idle, not slow-loris — EOF, no 408
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert_eq!(out, "");

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }

    #[test]
    fn full_queue_sheds_with_503_and_retry_after() {
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            read_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        };
        let (addr, shutdown, thread) = spawn(config);

        // occupy the single worker with a stalled request …
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"POST /run/serve-t").unwrap();
        std::thread::sleep(Duration::from_millis(150));
        // … fill the queue with a second pending connection …
        let mut queued = TcpStream::connect(addr).unwrap();
        queued.write_all(b"GET /h").unwrap();
        std::thread::sleep(Duration::from_millis(150));
        // … and the third connection must be shed by the accept thread
        let mut shed = TcpStream::connect(addr).unwrap();
        let (status, head, body) = read_response(&mut shed);
        assert_eq!(status, 503, "{body}");
        assert!(head.contains("Retry-After: 1"), "{head}");

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }

    /// The tentpole regression test: one stalled client must not delay
    /// healthy clients, which previously queued behind it for the full
    /// read timeout.
    #[test]
    fn stalled_client_does_not_stall_healthy_clients() {
        let config = ServeConfig {
            workers: 4,
            read_timeout: Duration::from_secs(3),
            ..ServeConfig::default()
        };
        let stall_bound = Duration::from_secs(1); // << read_timeout
        let (addr, shutdown, thread) = spawn(config);

        // the stalled client connects first and holds its worker
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled
            .write_all(b"POST /run/serve-test HTTP/1.1\r\nContent-Length: 999\r\n\r\npartial")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));

        let started = Instant::now();
        let healthy: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let r = request(addr, &post_run(DATA, true));
                    assert!(r.starts_with("HTTP/1.1 200"), "{r}");
                })
            })
            .collect();
        for h in healthy {
            h.join().unwrap();
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < stall_bound,
            "healthy requests took {elapsed:?}, stalled behind the slow client"
        );

        // the stalled client is eventually told 408, not silently dropped
        let mut out = String::new();
        stalled.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");

        shutdown.store(true, Ordering::Relaxed);
        thread.join().unwrap();
    }
}
