//! Process-level lifecycle tests for `qv serve`: the real binary, real
//! sockets, real signals. The in-process HTTP tests live in
//! `src/serve.rs`; this file pins the contract CI's `serve-smoke` job
//! relies on — most importantly that SIGTERM *drains*: a request that is
//! mid-flight when the signal lands is answered before the process exits
//! 0.

#![cfg(unix)]

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn sample(path: &str) -> String {
    format!("{}/../../samples/{path}", env!("CARGO_MANIFEST_DIR"))
}

/// Starts `qv serve` on an ephemeral port, returning the child, the
/// bound address parsed from the startup banner, and the still-open
/// stdout reader (dropping it would break the server's shutdown print).
/// With `--store` the banner is two lines (store root, then listening),
/// so this scans until the `http://` line.
fn spawn_serve_view(
    view: &str,
    extra: &[&str],
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    spawn_serve_path(&sample(view), extra)
}

/// [`spawn_serve_view`] for a view file anywhere on disk.
fn spawn_serve_path(
    path: &str,
    extra: &[&str],
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qv"))
        .arg("serve")
        .arg(path)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn qv serve");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let addr = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("startup line") > 0, "EOF before banner");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split([' ', '/']).next().expect("address").to_string();
        }
    };
    (child, addr, reader)
}

fn spawn_serve(extra: &[&str]) -> (Child, String, BufReader<std::process::ChildStdout>) {
    spawn_serve_view("paper_view.xml", extra)
}

fn sigterm(child: &Child) {
    let status =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("run kill");
    assert!(status.success());
}

fn wait_exit(mut child: Child) -> bool {
    for _ in 0..100 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.success();
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = child.kill();
    panic!("qv serve did not exit within 10s of SIGTERM");
}

/// Reads one framed HTTP response; returns (full head, body).
fn read_response_full(stream: &mut TcpStream) -> (String, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "EOF before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let content_length: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "EOF mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    (head, String::from_utf8_lossy(&body).into_owned())
}

/// Reads one framed HTTP response; returns (status line, body).
fn read_response(stream: &mut TcpStream) -> (String, String) {
    let (head, body) = read_response_full(stream);
    (head.lines().next().unwrap_or_default().to_string(), body)
}

#[test]
fn keep_alive_then_clean_sigterm_exit() {
    let (child, addr, _stdout) = spawn_serve(&[]);

    // two requests on one keep-alive socket against the live binary
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for _ in 0..2 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut stream);
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
    }
    drop(stream);

    sigterm(&child);
    assert!(wait_exit(child), "expected exit 0 after SIGTERM");
}

#[test]
fn sigterm_drains_the_in_flight_request_before_exiting() {
    let (child, addr, _stdout) = spawn_serve(&["--read-timeout-ms", "10000"]);
    let tsv = std::fs::read(sample("hits.tsv")).expect("hits.tsv");

    // start a POST but hold back half the body: in flight, not complete
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "POST /run/ispider-pmf-quality HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        tsv.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(&tsv[..tsv.len() / 2]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200)); // worker is mid-read

    sigterm(&child);
    std::thread::sleep(Duration::from_millis(200)); // signal lands mid-flight

    // the drain contract: the held-back half still gets read, the
    // request is answered, and only then does the process exit 0
    stream.write_all(&tsv[tsv.len() / 2..]).unwrap();
    let (status, body) = read_response(&mut stream);
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains("\"groups\""), "{body}");

    assert!(wait_exit(child), "expected exit 0 after draining");
}

/// The acceptance pin for run correlation against the real binary: a
/// POSTed run's `X-QV-Run-Id` resolves at `GET /runs/<id>` to a bundle
/// whose trace spans and ledger records all carry that id, the access
/// log (ring and `--access-log` file sink) records the request under
/// the same id, and `GET /slo` reports budgets for the route.
#[test]
fn run_id_correlates_request_trace_ledger_and_access_log() {
    let log_path = std::env::temp_dir()
        .join(format!("qv-serve-lifecycle-access-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let (child, addr, _stdout) = spawn_serve(&[
        "--access-log",
        log_path.to_str().unwrap(),
        "--slo-p99-ms",
        "250",
        "--slo-availability",
        "0.999",
    ]);
    let tsv = std::fs::read_to_string(sample("hits.tsv")).expect("hits.tsv");

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let request = format!(
        "POST /run/ispider-pmf-quality HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{tsv}",
        tsv.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let (head, body) = read_response_full(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let run_id = head
        .lines()
        .find_map(|l| l.strip_prefix("X-QV-Run-Id: "))
        .expect("X-QV-Run-Id header on POST /run")
        .trim()
        .to_string();
    assert_eq!(run_id.len(), 16, "{run_id}");
    assert!(run_id.bytes().all(|b| b.is_ascii_hexdigit()), "{run_id}");
    assert!(body.contains(&format!("\"run_id\":\"{run_id}\"")), "{body}");

    // the bundle endpoint reassembles the run on the same socket
    stream.write_all(format!("GET /runs/{run_id} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
    let (head, bundle) = read_response_full(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}: {bundle}");
    let value = qurator_telemetry::json::parse(&bundle).expect("bundle parses");
    assert_eq!(value.get("run_id").and_then(|v| v.as_str()), Some(run_id.as_str()));
    // the run's trace: its root span carries the id as an attribute
    let spans = value
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(|s| s.as_array())
        .expect("the run's trace spans");
    assert!(
        spans.iter().any(|s| {
            s.get("attrs")
                .and_then(|a| a.get("run_id"))
                .and_then(|v| v.as_str())
                .is_some_and(|v| v == run_id)
        }),
        "{bundle}"
    );
    // every ledger record the run wrote carries the id
    let ledger = value.get("ledger").and_then(|v| v.as_array()).expect("ledger slice");
    assert!(!ledger.is_empty(), "{bundle}");
    assert!(ledger
        .iter()
        .all(|t| t.get("run_id").and_then(|v| v.as_str()) == Some(run_id.as_str())));

    // the access-log ring recorded the run under the same id
    stream.write_all(b"GET /log/recent HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (head, log) = read_response_full(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(qurator_telemetry::schema::validate_access_log_jsonl(&log).unwrap() >= 1, "{log}");
    assert!(log.contains(&format!("\"run_id\":\"{run_id}\"")), "{log}");

    // SLO budgets exist for the /run route
    stream.write_all(b"GET /slo HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let (head, slo) = read_response_full(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let value = qurator_telemetry::json::parse(&slo).expect("slo parses");
    let routes = value.get("routes").and_then(|v| v.as_array()).expect("routes");
    assert!(
        routes.iter().any(|r| r.get("route").and_then(|v| v.as_str()) == Some("/run")),
        "{slo}"
    );
    drop(stream);

    sigterm(&child);
    assert!(wait_exit(child), "expected exit 0 after SIGTERM");

    // the --access-log file sink holds the same schema-valid stream
    let sink = std::fs::read_to_string(&log_path).expect("access log file");
    assert!(qurator_telemetry::schema::validate_access_log_jsonl(&sink).unwrap() >= 1, "{sink}");
    assert!(sink.contains(&format!("\"run_id\":\"{run_id}\"")), "{sink}");
    let _ = std::fs::remove_file(&log_path);
}

/// One HTTP exchange against the live binary; returns (status line, body).
fn exchange(addr: &str, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    read_response(&mut stream)
}

fn post_archive_run(addr: &str) -> (String, String) {
    let tsv = std::fs::read_to_string(sample("hits.tsv")).expect("hits.tsv");
    exchange(
        addr,
        &format!(
            "POST /run/archived-hit-quality HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{tsv}",
            tsv.len()
        ),
    )
}

/// The archive repository's triple count as reported by `GET /store`.
fn archive_triples(addr: &str) -> f64 {
    let (status, body) =
        exchange(addr, "GET /store HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    assert!(status.contains("200"), "{status}: {body}");
    let value = qurator_telemetry::json::parse(&body).expect("store json");
    let repos = value.get("repositories").and_then(|v| v.as_array()).expect("repositories");
    let archive = repos
        .iter()
        .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("archive"))
        .unwrap_or_else(|| panic!("no archive repository in {body}"));
    assert_eq!(archive.get("backend").and_then(|v| v.as_str()), Some("disk"), "{body}");
    archive.get("triples").and_then(|v| v.as_f64()).expect("triples")
}

/// The tentpole acceptance pin: annotations written through `qv serve
/// --store` survive a SIGTERM restart — the reopened store serves the
/// same triples without re-running the view.
#[test]
fn annotations_survive_a_sigterm_restart() {
    let store = qurator_rdf::storage::test_support::TempDir::new("serve-restart");
    let store_dir = store.path().to_str().unwrap().to_string();

    let (child, addr, _stdout) =
        spawn_serve_view("persistent_archive.xml", &["--store", &store_dir]);
    let (status, body) = post_archive_run(&addr);
    assert!(status.contains("200"), "{status}: {body}");
    let triples = archive_triples(&addr);
    assert!(triples > 0.0, "run stored no annotations");
    sigterm(&child);
    assert!(wait_exit(child), "expected exit 0 after SIGTERM");

    // Restart over the same directory: the archive is reopened as-is.
    let (child, addr, _stdout) =
        spawn_serve_view("persistent_archive.xml", &["--store", &store_dir]);
    assert_eq!(archive_triples(&addr), triples, "annotations lost across restart");
    sigterm(&child);
    assert!(wait_exit(child));
}

/// Crash-safety: a run acknowledged with 200 is flushed before the ack,
/// so even SIGKILL — no drain, no Drop — loses nothing, and the stale
/// lock left behind by the dead process is stolen on restart.
#[test]
fn annotations_survive_a_hard_kill() {
    let store = qurator_rdf::storage::test_support::TempDir::new("serve-kill");
    let store_dir = store.path().to_str().unwrap().to_string();

    let (mut child, addr, _stdout) =
        spawn_serve_view("persistent_archive.xml", &["--store", &store_dir]);
    let (status, body) = post_archive_run(&addr);
    assert!(status.contains("200"), "{status}: {body}");
    let triples = archive_triples(&addr);
    assert!(triples > 0.0);
    let status =
        Command::new("kill").args(["-KILL", &child.id().to_string()]).status().expect("run kill");
    assert!(status.success());
    child.wait().expect("reap killed child");
    assert!(store.path().join("archive").join("LOCK").exists(), "SIGKILL skips Drop");

    let (child, addr, _stdout) =
        spawn_serve_view("persistent_archive.xml", &["--store", &store_dir]);
    assert_eq!(archive_triples(&addr), triples, "acknowledged annotations lost by SIGKILL");
    sigterm(&child);
    assert!(wait_exit(child));
}

/// Satellite regression: a second server on the same live store directory
/// must refuse to start (exit nonzero, "locked" on stderr) rather than
/// panic or silently serve an empty store.
#[test]
fn serve_fails_fast_on_a_locked_store() {
    let store = qurator_rdf::storage::test_support::TempDir::new("serve-locked");
    let store_dir = store.path().to_str().unwrap().to_string();

    let (child, addr, _stdout) =
        spawn_serve_view("persistent_archive.xml", &["--store", &store_dir]);
    // Materialize the archive on disk so the second server tries to open it.
    let (status, body) = post_archive_run(&addr);
    assert!(status.contains("200"), "{status}: {body}");

    let out = Command::new(env!("CARGO_BIN_EXE_qv"))
        .args(["serve", &sample("persistent_archive.xml")])
        .args(["--addr", "127.0.0.1:0", "--store", &store_dir])
        .output()
        .expect("run second qv serve");
    assert!(!out.status.success(), "second server must not start: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("locked"), "{stderr}");

    sigterm(&child);
    assert!(wait_exit(child));
}

/// Satellite regression: a corrupt store directory is a clear startup
/// error, not a panic and not an empty store shadowing the real one.
#[test]
fn serve_fails_fast_on_a_corrupt_store() {
    let store = qurator_rdf::storage::test_support::TempDir::new("serve-corrupt");
    let archive = store.path().join("archive");
    std::fs::create_dir_all(&archive).unwrap();
    std::fs::write(archive.join("base.seg"), b"this is not a qv segment file").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_qv"))
        .args(["serve", &sample("persistent_archive.xml")])
        .args(["--addr", "127.0.0.1:0", "--store", store.path().to_str().unwrap()])
        .output()
        .expect("run qv serve");
    assert!(!out.status.success(), "corrupt store must abort startup: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt store"), "{stderr}");
    assert!(stderr.contains("bad magic"), "{stderr}");
}

/// A persistent repository that cannot be opened fails its run with a
/// JSON 500: the store failed, not the request. `/slo` charges it to the
/// `/run` route's availability budget. The server's only worker survives
/// that and keeps answering.
#[test]
fn unopenable_repository_fails_the_run_not_the_worker() {
    let store = qurator_rdf::storage::test_support::TempDir::new("serve-unopenable");
    // a regular file where the archive's store directory belongs
    std::fs::write(store.path().join("archive"), "not a store").unwrap();
    let (child, addr, _stdout) = spawn_serve_view(
        "persistent_archive.xml",
        &["--store", store.path().to_str().unwrap(), "--workers", "1"],
    );
    let (status, body) = post_archive_run(&addr);
    let health = exchange(&addr, "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    let slo = exchange(&addr, "GET /slo HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    sigterm(&child);
    assert!(wait_exit(child), "expected exit 0 after SIGTERM");

    assert!(status.contains("500"), "{status}: {body}");
    let value = qurator_telemetry::json::parse(&body).expect("error json");
    let error = value.get("error").and_then(|v| v.as_str()).expect("error message");
    assert!(error.contains("\"archive\""), "{error}");
    assert!(health.0.contains("200"), "{health:?}");

    let value = qurator_telemetry::json::parse(&slo.1).expect("slo json");
    let routes = value.get("routes").and_then(|v| v.as_array()).expect("routes");
    let run = routes
        .iter()
        .find(|r| r.get("route").and_then(|v| v.as_str()) == Some("/run"))
        .unwrap_or_else(|| panic!("no /run route in {}", slo.1));
    let availability = run.get("availability").expect("availability objective");
    assert_eq!(availability.get("total").and_then(|v| v.as_u64()), Some(1), "{}", slo.1);
    assert_eq!(availability.get("bad").and_then(|v| v.as_u64()), Some(1), "{}", slo.1);
}

/// A view naming a repository no store may hold is the caller's error:
/// 400, even though the failure surfaces while opening the store.
#[test]
fn escaping_repository_name_is_a_bad_request() {
    let store = qurator_rdf::storage::test_support::TempDir::new("serve-escaped");
    let view = std::fs::read_to_string(sample("persistent_archive.xml"))
        .unwrap()
        .replace("repositoryRef=\"archive\"", "repositoryRef=\"../escaped\"");
    let view_path = store.path().join("escaped.xml");
    std::fs::write(&view_path, view).unwrap();
    let stores = store.path().join("stores");
    std::fs::create_dir(&stores).unwrap();
    let (child, addr, _stdout) = spawn_serve_path(
        view_path.to_str().unwrap(),
        &["--store", stores.to_str().unwrap(), "--workers", "1"],
    );
    let (status, body) = post_archive_run(&addr);
    sigterm(&child);
    assert!(wait_exit(child), "expected exit 0 after SIGTERM");

    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("../escaped"), "{body}");
}

/// `rows` hits over one fixed id set. `rising` flips the quality
/// gradient, so every id carries opposite values in the two bodies.
fn gradient_tsv(rows: usize, rising: bool) -> String {
    let mut tsv = String::from("id\thitRatio\tmassCoverage\tpeptidesCount\n");
    for index in 0..rows {
        let rank = if rising { index + 1 } else { rows - index };
        let quality = rank as f64 / rows as f64;
        tsv.push_str(&format!(
            "urn:lsid:t:isolation:H{index:05}\t{}\t{}\t{}\n",
            0.05 + 0.9 * quality,
            50.0 * quality,
            (1.0 + 14.0 * quality) as i64
        ));
    }
    tsv
}

/// POSTs `tsv` to the paper view; returns the response's groups.
fn paper_run_groups(addr: &str, tsv: &str) -> qurator_telemetry::json::Value {
    let (status, body) = exchange(
        addr,
        &format!(
            "POST /run/ispider-pmf-quality HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{tsv}",
            tsv.len()
        ),
    );
    assert!(status.contains("200"), "{status}: {body}");
    let value = qurator_telemetry::json::parse(&body).expect("run json");
    value.get("groups").cloned().expect("groups")
}

/// Run isolation through the real server: two workers run the same ids
/// with opposite quality gradients at once, and each response equals the
/// one that body gets alone.
#[test]
fn concurrent_runs_over_the_same_ids_each_get_their_solo_answer() {
    const ROWS: usize = 1_000;
    const ROUNDS: usize = 30;
    let (child, addr, _stdout) = spawn_serve(&["--workers", "2"]);
    let bodies = [gradient_tsv(ROWS, false), gradient_tsv(ROWS, true)];
    let solo: Vec<_> = bodies.iter().map(|tsv| paper_run_groups(&addr, tsv)).collect();
    let mut wrong_rounds = 0;
    for _ in 0..ROUNDS {
        let start = std::sync::Barrier::new(bodies.len());
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let runs: Vec<_> = bodies
                .iter()
                .map(|tsv| {
                    let (addr, start) = (&addr, &start);
                    scope.spawn(move || {
                        start.wait();
                        paper_run_groups(addr, tsv)
                    })
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        if concurrent != solo {
            wrong_rounds += 1;
        }
    }
    sigterm(&child);
    assert!(wait_exit(child), "expected exit 0 after SIGTERM");

    assert_ne!(solo[0], solo[1], "opposite gradients must keep different items");
    assert_eq!(wrong_rounds, 0, "{wrong_rounds} of {ROUNDS} rounds differ from the solo answers");
}

/// A view with no persistent repository leaves a store root as it found
/// it: a run's record stays in memory, and only repositories live under
/// the root.
#[test]
fn a_store_root_holds_only_repositories() {
    let store = qurator_rdf::storage::test_support::TempDir::new("serve-empty-root");
    let store_dir = store.path().to_str().unwrap().to_string();
    let run = Command::new(env!("CARGO_BIN_EXE_qv"))
        .args(["run", &sample("paper_view.xml"), "--data", &sample("hits.tsv")])
        .args(["--store", &store_dir])
        .output()
        .expect("run qv");
    assert!(run.status.success(), "{run:?}");

    let (child, addr, _stdout) = spawn_serve(&["--store", &store_dir]);
    let tsv = std::fs::read_to_string(sample("hits.tsv")).expect("hits.tsv");
    let (status, body) = exchange(
        &addr,
        &format!(
            "POST /run/ispider-pmf-quality HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{tsv}",
            tsv.len()
        ),
    );
    assert!(status.contains("200"), "{status}: {body}");
    sigterm(&child);
    assert!(wait_exit(child), "expected exit 0 after SIGTERM");

    let left: Vec<_> =
        std::fs::read_dir(store.path()).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(left.is_empty(), "the store root gained {left:?}");
}

#[test]
fn rejects_bad_serve_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_qv"))
        .args(["serve", &sample("paper_view.xml"), "--workers", "0"])
        .output()
        .expect("run qv");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers"), "{out:?}");
}
