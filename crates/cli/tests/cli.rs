//! End-to-end tests of the `qv` binary (spawned as a real process).

use std::io::Write as _;
use std::process::Command;

fn qv(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_qv")).args(args).output().expect("spawn qv");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qv-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const VIEW: &str = r#"
<QualityView name="cli-test">
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

#[test]
fn validate_accepts_good_view() {
    let view = write_temp("good.xml", VIEW);
    let (ok, stdout, stderr) = qv(&["validate", view.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("is valid"));
    assert!(stdout.contains("q:HitRatio"));
}

#[test]
fn validate_rejects_bad_view() {
    let view = write_temp("bad.xml", "<QualityView name='x'><junk/></QualityView>");
    let (ok, _, stderr) = qv(&["validate", view.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("junk"), "stderr: {stderr}");
}

#[test]
fn compile_prints_structure_and_dot() {
    let view = write_temp("good2.xml", VIEW);
    let (ok, stdout, _) = qv(&["compile", view.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("processors"));
    let (ok, dot, _) = qv(&["compile", view.to_str().unwrap(), "--dot"]);
    assert!(ok);
    assert!(dot.contains("digraph"));
    assert!(dot.contains("DataEnrichment"));
}

#[test]
fn run_filters_and_explains() {
    let view = write_temp("good3.xml", VIEW);
    let data = write_temp("hits.tsv", DATA);
    let (ok, stdout, stderr) =
        qv(&["run", view.to_str().unwrap(), "--data", data.to_str().unwrap(), "--explain"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("group \"keep\": 1 item(s)"), "{stdout}");
    assert!(stdout.contains("urn:lsid:t:h:good"));
    assert!(stdout.contains("keep:accept"));
    assert!(stdout.contains("keep:reject"));
}

/// A path under the repository root.
fn repo_path(path: &str) -> String {
    format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
}

/// The provenance renderings are pinned byte for byte (see
/// `tests/provenance_golden.rs` for the trace JSON of the same runs).
#[test]
fn provenance_renderings_match_their_snapshots() {
    let golden = |name: &str| {
        std::fs::read_to_string(repo_path(&format!("tests/provenance_golden/{name}"))).unwrap()
    };
    let (ok, stdout, stderr) = qv(&[
        "explain",
        &repo_path("samples/paper_view.xml"),
        "--data",
        &repo_path("samples/hits.tsv"),
        "--item",
        "P30089",
        "--spans",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout, golden("paper_view.explain.spans.txt"));

    let (ok, stdout, stderr) = qv(&[
        "run",
        &repo_path("samples/splitter_view.xml"),
        "--data",
        &repo_path("samples/hits.tsv"),
        "--explain",
    ]);
    assert!(ok, "stderr: {stderr}");
    let without_run_id: String =
        stdout.lines().filter(|l| !l.starts_with("run id: ")).map(|l| format!("{l}\n")).collect();
    assert_eq!(without_run_id, golden("splitter_view.run.explain.txt"));
}

/// `qv run --explain` explains the run it made: the view runs once, so
/// the store matches a plain `qv run`.
#[test]
fn run_explain_runs_the_view_once() {
    let root = std::env::temp_dir().join(format!("qv-cli-explain-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut sizes = Vec::new();
    for (dir, explain) in [("plain", false), ("explain", true)] {
        let store = root.join(dir);
        let mut args = vec![
            "run".to_string(),
            repo_path("samples/persistent_archive.xml"),
            "--data".into(),
            repo_path("samples/hits.tsv"),
            "--store".into(),
            store.to_str().unwrap().into(),
        ];
        if explain {
            args.push("--explain".into());
        }
        let (ok, stdout, stderr) = qv(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(ok, "stderr: {stderr}");
        assert_eq!(stdout.contains("== per-item explanations =="), explain);
        let size = |file: &str| std::fs::metadata(store.join("archive").join(file)).unwrap().len();
        sizes.push((size("wal.log"), size("dict.seg")));
        assert!(!store.join("stats").exists(), "a run wrote stats under the store root");
    }
    assert_eq!(sizes[0], sizes[1], "(wal.log, dict.seg) bytes without and with --explain");
    let _ = std::fs::remove_dir_all(&root);
}

/// A persistent repository name no store may hold is reported at its
/// attribute, as QV027, instead of as a failed compilation.
#[test]
fn check_reports_an_escaping_repository_name_at_its_attribute() {
    let xml = std::fs::read_to_string(repo_path("samples/persistent_archive.xml"))
        .unwrap()
        .replace("repositoryRef=\"archive\"", "repositoryRef=\"../escaped\"");
    let view = write_temp("escaped.xml", &xml);
    let (ok, stdout, _) = qv(&["check", view.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("error[QV027]"), "{stdout}");
    assert!(stdout.contains("escaped.xml:4:31"), "{stdout}");
    assert!(!stdout.contains("WF005"), "{stdout}");
}

#[test]
fn fmt_is_canonical() {
    let view = write_temp("good4.xml", VIEW);
    let (ok, once, _) = qv(&["fmt", view.to_str().unwrap()]);
    assert!(ok);
    let reformatted = write_temp("good4b.xml", &once);
    let (ok, twice, _) = qv(&["fmt", reformatted.to_str().unwrap()]);
    assert!(ok);
    assert_eq!(once, twice);
}

#[test]
fn library_lists_and_searches() {
    // build a catalog via the library API to guarantee a valid document
    let mut library = qurator::library::ViewLibrary::new();
    library
        .publish(
            qurator::spec::QualityViewSpec::paper_example(),
            qurator::library::ViewMetadata {
                author: "tester".into(),
                description: "the paper's running example".into(),
                keywords: vec!["accuracy".into()],
            },
        )
        .unwrap();
    let catalog = write_temp("catalog.xml", &library.to_xml());
    let (ok, stdout, _) = qv(&["library", catalog.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("1 view(s)"));
    assert!(stdout.contains("ispider-pmf-quality"));
    let (ok, stdout, _) = qv(&["library", catalog.to_str().unwrap(), "--search", "nothing-here"]);
    assert!(ok);
    assert!(stdout.contains("0 view(s)"));
}

#[test]
fn profile_prints_the_merged_node_tree_and_round_trips_folded_stacks() {
    let view = write_temp("prof.xml", VIEW);
    let data = write_temp("prof.tsv", DATA);
    let folded = write_temp("prof.folded", "");
    let (ok, stdout, stderr) = qv(&[
        "profile",
        view.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--runs",
        "3",
        "--folded",
        folded.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("analyze for view \"cli-test\""), "{stdout}");
    // one tree for all three runs: every node counts three calls and the
    // rows of all three runs (two items each)
    assert!(stdout.contains("items: 6"), "{stdout}");
    let nodes: Vec<&str> = stdout.lines().filter(|l| l.contains(": calls ")).collect();
    assert!(nodes.len() >= 3, "{stdout}");
    assert!(nodes.iter().all(|l| l.contains(": calls 3 | rows 6 -> ")), "{stdout}");
    assert!(stdout.contains("wall time: 3 run(s) in "), "{stdout}");
    // the folded export parses back and every stack roots at the view span
    let parsed =
        qurator_telemetry::Profile::parse_folded(&std::fs::read_to_string(&folded).unwrap())
            .unwrap();
    assert!(!parsed.is_empty());
    assert!(parsed.keys().all(|stack| stack.starts_with("view:cli-test")), "{parsed:?}");
}

#[test]
fn run_profile_out_writes_parseable_stacks() {
    let view = write_temp("runprof.xml", VIEW);
    let data = write_temp("runprof.tsv", DATA);
    let out = write_temp("runprof.folded", "");
    let (ok, stdout, stderr) = qv(&[
        "run",
        view.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--profile-out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("profile:"), "{stdout}");
    let parsed =
        qurator_telemetry::Profile::parse_folded(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(!parsed.is_empty());
}

/// Full service lifecycle against the real binary: start `qv serve` on an
/// ephemeral port, exercise every endpoint over TCP, then SIGTERM it and
/// require a clean (status 0) shutdown.
#[cfg(unix)]
#[test]
fn serve_answers_http_and_shuts_down_cleanly_on_sigterm() {
    use std::io::{BufRead as _, BufReader, Read as _};
    use std::net::TcpStream;
    use std::process::Stdio;

    let view = write_temp("serve.xml", VIEW);
    let mut child = Command::new(env!("CARGO_BIN_EXE_qv"))
        .args(["serve", view.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qv serve");

    // the first stdout line announces the resolved address
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let request = |payload: String| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        std::io::Write::write_all(&mut stream, payload.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    };
    let body_of = |response: &str| -> String {
        response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default()
    };

    let health = request("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".into());
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert_eq!(body_of(&health), "ok\n");

    let run = request(format!(
        "POST /run/cli-test HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        DATA.len(),
        DATA
    ));
    assert!(run.starts_with("HTTP/1.1 200 OK"), "{run}");
    assert!(run.contains("\"rejected\":1"), "{run}");

    let metrics = body_of(&request("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n".into()));
    assert!(qurator_telemetry::schema::validate_metrics_text(&metrics).unwrap() > 0, "{metrics}");

    let traces = body_of(&request("GET /traces/recent HTTP/1.1\r\nHost: x\r\n\r\n".into()));
    assert!(qurator_telemetry::schema::validate_trace_jsonl(&traces).unwrap() > 0, "{traces}");

    let drift = request("GET /drift HTTP/1.1\r\nHost: x\r\n\r\n".into());
    assert!(drift.starts_with("HTTP/1.1 404 Not Found"), "{drift}");

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = child.wait().expect("wait for qv serve");
    assert!(status.success(), "serve exited {status:?} after SIGTERM");
}

/// `qv load` streams a Turtle file into an on-disk store that the
/// storage layer can reopen; a second load into the same directory is
/// refused rather than silently merged.
#[test]
fn load_builds_a_reopenable_store() {
    let turtle = "\
@prefix ex: <http://example.org/> .\n\
ex:a ex:p ex:b .\n\
ex:a ex:p \"dup\" .\n\
ex:a ex:p \"dup\" .\n\
ex:b ex:q 42 .\n";
    let ttl = write_temp("load.ttl", turtle);
    let store = std::env::temp_dir().join(format!("qv-cli-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let store_dir = store.to_str().unwrap();

    let (ok, stdout, stderr) = qv(&["load", ttl.to_str().unwrap(), "--store", store_dir]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("4 triple(s) read, 3 stored (1 duplicate(s) dropped)"), "{stdout}");
    assert!(stdout.contains("repository \"archive\""), "{stdout}");

    // The store reopens with exactly the loaded triples.
    {
        use qurator_rdf::storage::{DiskBackend, Storage as _};
        let backend = DiskBackend::open(store.join("archive")).expect("reopen loaded store");
        assert_eq!(backend.len(), 3);
    }

    // Refused: the target repository already holds data.
    let (ok, _, stderr) = qv(&["load", ttl.to_str().unwrap(), "--store", store_dir]);
    assert!(!ok);
    assert!(stderr.contains("already exists"), "{stderr}");

    // Flag validation: --store is mandatory, --repo must be a plain name.
    let (ok, _, stderr) = qv(&["load", ttl.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("--store"), "{stderr}");
    // `stats` is where older store roots keep stats profiles
    for repo in ["../evil", "stats"] {
        let (ok, _, stderr) =
            qv(&["load", ttl.to_str().unwrap(), "--store", store_dir, "--repo", repo]);
        assert!(!ok);
        assert!(stderr.contains("is not a valid repository name"), "{stderr}");
    }

    let _ = std::fs::remove_dir_all(&store);
}

/// A flag a subcommand does not read fails the command with the usage
/// string, so a script still passing a removed flag learns of it.
#[test]
fn unknown_and_removed_flags_fail_loudly() {
    let out = write_temp("refused-flag.json", "");
    std::fs::remove_file(&out).unwrap();
    let trace = write_temp("empty-trace.jsonl", "");
    let view = repo_path("samples/paper_view.xml");
    let data = repo_path("samples/hits.tsv");
    let out = out.to_str().unwrap();
    for (args, flag) in [
        (vec!["run", &view, "--data", &data, "--stats-out", out], "run flag \"--stats-out\""),
        (vec!["run", &view, "--data", &data, "--stats-outt", out, "--bogus"], "--stats-outt"),
        (
            vec!["telemetry-check", trace.to_str().unwrap(), "--stats-profile", out],
            "--stats-profile",
        ),
        (vec!["serve", &view, "--addr", "127.0.0.1:0", "--drift-window", "50"], "--drift-window"),
        (vec!["compile", &view, "--dott"], "compile flag \"--dott\""),
    ] {
        let (ok, _, stderr) = qv(&args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stderr.contains(flag) && stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new(out).exists(), "a refused run wrote {out}");
}

#[test]
fn usage_on_bad_invocations() {
    let (ok, _, stderr) = qv(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, stderr) = qv(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, stdout, _) = qv(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage"));
}
