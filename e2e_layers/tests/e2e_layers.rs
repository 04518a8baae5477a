//! Every workload at small scale through the library entry point, in
//! both modes, against the contract `BENCHMARK.json` states.
//!
//! The serve workloads need a `qv` binary: `$QV` when set, else one
//! found in this package's or the repository's target directory, else
//! one built into the repository's target directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use e2e_layers::{Config, Workload, END_TO_END, PER_LAYER};
use qurator_telemetry::json::{self, Value};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("entry without {key}"))
}

fn qv() -> PathBuf {
    if let Some(path) = std::env::var_os("QV") {
        return PathBuf::from(path);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from);
    let dirs = [
        target,
        Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("target")),
        Some(repo_root().join("target")),
    ];
    for dir in dirs.iter().flatten() {
        for profile in ["release", "debug"] {
            let candidate = dir.join(profile).join("qv");
            if candidate.is_file() {
                return candidate;
            }
        }
    }
    let target = repo_root().join("target");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--offline", "-p", "qurator-cli", "--manifest-path"])
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building qv failed");
    target.join("debug").join("qv")
}

#[test]
fn benchmark_json_lists_what_the_benchmark_measures() {
    let doc = benchmark_json();
    let valid = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let workloads: Vec<&str> =
        entries(&doc, "workloads").iter().map(|w| field(w, "name")).collect();
    let mine: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, mine);
    assert!((2..=8).contains(&workloads.len()));

    let published = |key: &str| -> Vec<(String, String)> {
        entries(&doc, key)
            .iter()
            .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
            .collect()
    };
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    let end_to_end = published("end_to_end");
    let per_layer = published("per_layer");
    assert_eq!(end_to_end, as_owned(&END_TO_END));
    assert_eq!(per_layer, as_owned(&PER_LAYER));
    assert!((1..=16).contains(&end_to_end.len()) && (1..=128).contains(&per_layer.len()));
    for name in workloads
        .iter()
        .copied()
        .chain(end_to_end.iter().chain(&per_layer).map(|(n, _)| n.as_str()))
    {
        assert!(valid(name), "invalid name {name:?}");
    }
    let setup = entries(&doc, "end_to_end")
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!((field(setup, "unit"), field(setup, "better")), ("s", "lower"));
    for metric in entries(&doc, "end_to_end") {
        let bound = metric.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", field(metric, "name"));
    }
}

fn run_small(workload: Workload, trace: bool) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let config = Config { workload, seed: 2, seconds: 0.5, trace, scale: 0.02, qv: qv(), out };
    let report = e2e_layers::run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(
        report.failures,
        Vec::<String>::new(),
        "{}: failed_share must be 0",
        workload.name()
    );
    assert!(report.attempted > 0);
    // every published metric of the mode is there, finite, in its unit
    let result = report.result_json(trace).unwrap_or_else(|e| panic!("{e}"));
    let doc = json::parse(&result).expect("the result line is JSON");
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
    let published = if trace { PER_LAYER.as_slice() } else { END_TO_END.as_slice() };
    let metrics = doc.get("metrics").and_then(Value::as_object).expect("metrics");
    assert_eq!(metrics.len(), published.len());
    if trace {
        let spans = config.out.join(format!("{}.spans.jsonl", workload.name()));
        let text = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        assert!(text.lines().all(|l| json::parse(l).is_ok()));
        assert!(text.contains("\"operators.act\""));
    }
    assert!(
        !config.out.join(format!("scratch-{}", std::process::id())).exists(),
        "the run removed its scratch stores"
    );
}

#[test]
fn batch_paper_runs_clean() {
    run_small(Workload::BatchPaper, false);
    run_small(Workload::BatchPaper, true);
}

#[test]
fn batch_split_archive_runs_clean() {
    run_small(Workload::BatchSplitArchive, false);
    run_small(Workload::BatchSplitArchive, true);
}

#[test]
fn serve_paper_runs_clean() {
    run_small(Workload::ServePaper, false);
    run_small(Workload::ServePaper, true);
}

#[test]
fn serve_archive_disk_runs_clean() {
    run_small(Workload::ServeArchiveDisk, false);
    run_small(Workload::ServeArchiveDisk, true);
}
