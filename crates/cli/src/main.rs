//! `qv` — the Quality Views command line.
//!
//! ```text
//! qv validate <view.xml>                         check a view against the stock IQ model
//! qv check    <view.xml|query.rq>                static analysis with source-span
//!             [--format text|json]               diagnostics (lint + bindings +
//!             [--deny warnings]                  compiled workflow + whole-plan
//!             [--fix [--dry-run]]                dataflow; SPARQL for .rq; --fix
//!                                                applies machine-applicable
//!                                                suggestions, --dry-run diffs them
//! qv compile  <view.xml> [--dot]                 show the compiled workflow (§6.1)
//! qv plan     <view.xml> [--no-opt]              EXPLAIN: the physical plan both
//!             [--format text|json]               executors run (passes, waves, nodes)
//! qv plan-check <plan.json>                      validate an exported plan rendering
//! qv fmt      <view.xml>                         canonical pretty-print
//! qv run      <view.xml> --data <hits.tsv>       execute over a TSV data set
//!             [--group NAME] [--explain]
//!             [--analyze [--format text|json]]    EXPLAIN ANALYZE: per-node
//!             [--store DIR]                      observed statistics; --store
//!             [--trace-out FILE] [--metrics-out FILE]  roots persistent repositories
//!             [--profile-out FILE]
//! qv explain  <view.xml> --data <hits.tsv>       decision provenance for one item:
//!             --item <id-or-suffix>              evidence fetched, tags assigned,
//!             [--spans]                          actions taken (`why(item)`)
//! qv profile  <view.xml> --data <hits.tsv>       EXPLAIN ANALYZE summed over N
//!             [--runs N] [--folded out.txt]      runs, plus their wall time;
//!                                                folded stacks for flamegraph
//!                                                tools
//! qv load     <triples.ttl> --store <dir>        stream a Turtle file into an
//!             [--repo NAME]                      on-disk annotation store without
//!                                                materializing the graph in RAM
//! qv serve    <view.xml>... --addr HOST:PORT     long-lived engine over HTTP:
//!             [--store <dir>]                    GET /healthz /metrics /slo
//!             [--workers N] [--queue N]          GET /traces/recent /log/recent
//!             [--keep-alive-max N]               GET /runs/<id> (one run's record:
//!             [--read-timeout-ms N]              trace, decisions, stats; the
//!             [--access-log FILE]                last 256 runs)
//!             [--slo-p99-ms N]                   GET /store (storage inventory)
//!             [--slo-availability F]             POST /run/<view> with a TSV body
//!                                                (worker pool + bounded queue;
//!                                                full queue -> 503 + Retry-After;
//!                                                every run echoes X-QV-Run-Id;
//!                                                GET /stats/<view> merges the
//!                                                view's runs in the ring; with
//!                                                --store, persistent repos
//!                                                survive restarts and crashes)
//! qv bench-check <BENCH_*.json|dir|--all>        validate bench result artifacts
//!                                                (a directory checks every
//!                                                BENCH_*.json inside it)
//! qv telemetry-check <trace.jsonl> [metrics.txt] validate exported telemetry files
//!             [--access-log access.jsonl]        (metrics are also linted against
//!             [--analyze analyze.json]           the metric-name convention and
//!                                                the committed allowlist)
//! qv library  <catalog.xml> [--search TEXT]      browse a shared view catalog (§7 iv)
//! ```
//!
//! The TSV data format: a header row starting with `id`, one data row per
//! item. Numeric-looking cells become numbers, everything else text:
//!
//! ```text
//! id\thitRatio\tmassCoverage\tpeptidesCount
//! urn:lsid:uniprot.org:uniprot:P30089\t0.82\t31\t9
//! ```

mod serve;
mod tsv;

use qurator::library::ViewLibrary;
use qurator::operators::ConditionOutcome;
use qurator::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("qv: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "validate" => cmd_validate(args.get(1).ok_or_else(usage)?),
        "check" => cmd_check(args),
        "compile" => cmd_compile(args),
        "plan" => cmd_plan(args),
        "plan-check" => cmd_plan_check(args.get(1).ok_or_else(usage)?),
        "fmt" => cmd_fmt(args.get(1).ok_or_else(usage)?),
        "run" => cmd_run(args),
        "load" => cmd_load(args),
        "explain" => cmd_explain(args),
        "profile" => cmd_profile(args),
        "serve" => cmd_serve(args),
        "telemetry-check" => cmd_telemetry_check(args),
        "bench-check" => cmd_bench_check(args),
        "library" => cmd_library(args),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  qv validate <view.xml>\n  qv check <view.xml|query.rq> [--format text|json] [--deny warnings] [--fix [--dry-run]]\n  qv compile <view.xml> [--dot]\n  qv plan <view.xml> [--no-opt] [--format text|json]\n  qv plan-check <plan.json>\n  qv fmt <view.xml>\n  qv run <view.xml> --data <hits.tsv> [--group NAME] [--explain] [--analyze [--format text|json]] [--store DIR] [--trace-out FILE] [--metrics-out FILE] [--profile-out FILE]\n  qv load <triples.ttl> --store <dir> [--repo NAME]\n  qv explain <view.xml> --data <hits.tsv> --item <id-or-suffix> [--spans]\n  qv profile <view.xml> --data <hits.tsv> [--runs N] [--folded out.txt]\n  qv serve <view.xml>... --addr HOST:PORT [--store DIR] [--workers N] [--queue N] [--keep-alive-max N] [--read-timeout-ms N] [--access-log FILE] [--slo-p99-ms N] [--slo-availability F]\n  qv telemetry-check <trace.jsonl> [metrics.txt] [--access-log access.jsonl] [--analyze analyze.json]\n  qv bench-check <BENCH_*.json|dir|--all>\n  qv library <catalog.xml> [--search TEXT]"
        .to_string()
}

/// Refuses any `--flag` in `args` that is not among the subcommand's
/// `known` flags, so a misspelt or removed flag fails instead of being
/// ignored.
fn check_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    match args.iter().skip(1).find(|a| a.starts_with("--") && !known.contains(&a.as_str())) {
        Some(flag) => Err(format!("unknown {} flag {flag:?}\n{}", args[0], usage())),
        None => Ok(()),
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
}

fn load_view(path: &str) -> Result<QualityViewSpec, String> {
    qurator::xmlio::parse_quality_view(&read_file(path)?).map_err(|e| e.to_string())
}

fn stock_engine() -> Result<QualityEngine, String> {
    QualityEngine::with_proteomics_defaults().map_err(|e| e.to_string())
}

fn cmd_validate(path: &str) -> Result<(), String> {
    let spec = load_view(path)?;
    let engine = stock_engine()?;
    let view = engine.validate(&spec).map_err(|e| e.to_string())?;
    println!("view {:?} is valid", spec.name);
    println!("  annotators: {}", spec.annotators.len());
    println!("  assertions: {} (tags: {})", spec.assertions.len(), spec.tag_names().join(", "));
    println!("  actions:    {}", spec.actions.len());
    println!("  enrichment plan:");
    for (evidence, repo) in &view.enrichment_plan {
        println!("    {} <- repository {:?}", engine.iq().compact(evidence), repo);
    }
    Ok(())
}

/// `qv check`: collect-all static analysis. Unlike `qv validate` (which
/// stops at the first problem and ignores warnings) this runs every
/// QV/WF pass, renders each finding with its source position, and exits
/// non-zero when errors — or, under `--deny warnings`, warnings — are
/// present. `.rq`/`.sparql` files get the SQ passes instead.
///
/// `--fix` applies every machine-applicable suggestion in place and
/// re-lints until no more apply (the fixer is convergent); with
/// `--dry-run` it prints the unified diff instead of writing, and exits
/// non-zero when fixes would apply — the `cargo fmt --check` shape CI
/// uses to keep shipped views fix-clean.
fn cmd_check(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--format", "--deny", "--fix", "--dry-run"])?;
    let path = args.get(1).filter(|a| !a.starts_with("--")).ok_or_else(usage)?;
    let format = flag_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("unknown --format {format:?} (expected text or json)"));
    }
    let deny_warnings = match flag_value(args, "--deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => return Err(format!("unknown --deny {other:?} (expected warnings)")),
    };
    let fix = args.contains(&"--fix".into());
    let dry_run = args.contains(&"--dry-run".into());
    if dry_run && !fix {
        return Err("--dry-run requires --fix".to_string());
    }

    let source = read_file(path)?;
    let sparql = path.ends_with(".rq") || path.ends_with(".sparql");
    if fix && sparql {
        return Err("--fix applies to quality views, not SPARQL queries".to_string());
    }
    let check_view = |text: &str| -> Result<Vec<qurator_qvlint::Diagnostic>, String> {
        let (spec, root) =
            qurator::xmlio::parse_quality_view_with_source(text).map_err(|e| e.to_string())?;
        Ok(stock_engine()?.check(&spec, Some(&root)))
    };

    if fix {
        // apply → re-lint → apply … until converged (deleting one dead
        // group can expose another fix, and spans shift between rounds)
        let mut fixed = source.clone();
        let mut applied = Vec::new();
        for _ in 0..8 {
            let diags = check_view(&fixed)?;
            let report = qurator_qvlint::fix::apply_machine_fixes(&fixed, &diags);
            if !report.changed() {
                break;
            }
            applied.extend(report.applied);
            fixed = report.fixed;
        }
        if dry_run {
            if fixed == source {
                println!("{path}: no machine-applicable fixes");
                return Ok(());
            }
            print!("{}", qurator_qvlint::fix::unified_diff(&source, &fixed, path));
            return Err(format!(
                "{path}: {} machine-applicable fix{} would apply (run `qv check --fix` to \
                 write them)",
                applied.len(),
                if applied.len() == 1 { "" } else { "es" },
            ));
        }
        if fixed != source {
            std::fs::write(path, &fixed).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            for f in &applied {
                println!("fixed [{}] at {}:{}:{} — {}", f.code, path, f.line, f.col, f.message);
            }
        }
        let diags = check_view(&fixed)?;
        match format {
            "json" => print!("{}", qurator_qvlint::render::render_json(&diags, path)),
            _ => print!("{}", qurator_qvlint::render::render_text(&diags, path, &fixed)),
        }
        let warnings = diags.iter().any(|d| d.severity == qurator_qvlint::Severity::Warning);
        if qurator_qvlint::has_errors(&diags) || (deny_warnings && warnings) {
            return Err(format!("{path}: {}", qurator_qvlint::summary(&diags)));
        }
        return Ok(());
    }

    let diags =
        if sparql { qurator_qvlint::sparql::analyze_sparql(&source) } else { check_view(&source)? };

    match format {
        "json" => print!("{}", qurator_qvlint::render::render_json(&diags, path)),
        _ => print!("{}", qurator_qvlint::render::render_text(&diags, path, &source)),
    }

    let warnings = diags.iter().any(|d| d.severity == qurator_qvlint::Severity::Warning);
    if qurator_qvlint::has_errors(&diags) || (deny_warnings && warnings) {
        return Err(format!("{path}: {}", qurator_qvlint::summary(&diags)));
    }
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--dot"])?;
    let spec = load_view(args.get(1).ok_or_else(usage)?)?;
    let engine = stock_engine()?;
    let workflow = engine.compile(&spec).map_err(|e| e.to_string())?;
    if args.contains(&"--dot".into()) {
        print!("{}", workflow.to_dot());
        return Ok(());
    }
    println!("compiled workflow {:?}", workflow.name());
    println!(
        "  {} processors, {} data links, {} control links",
        workflow.len(),
        workflow.data_links().len(),
        workflow.control_links().len()
    );
    println!("  topological order: {:?}", workflow.topological_order().map_err(|e| e.to_string())?);
    println!("  outputs: {:?}", workflow.outputs().map(|(n, _)| n).collect::<Vec<_>>());
    Ok(())
}

/// `qv plan`: the EXPLAIN surface — render the physical plan a view
/// lowers to, with the pass pipeline's reports, the wave schedule and
/// each node's configuration. `--no-opt` shows the unoptimized baseline.
fn cmd_plan(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--no-opt", "--format"])?;
    let path = args.get(1).filter(|a| !a.starts_with("--")).ok_or_else(usage)?;
    let format = flag_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("unknown --format {format:?} (expected text or json)"));
    }
    let config = qurator_plan::PlanConfig { optimize: !args.contains(&"--no-opt".into()) };
    let spec = load_view(path)?;
    let engine = stock_engine()?;
    let plan = engine.plan_with(&spec, &config).map_err(|e| e.to_string())?;
    match format {
        "json" => println!("{}", qurator_plan::render::render_json(&plan)),
        _ => print!("{}", qurator_plan::render::render_text(&plan)),
    }
    Ok(())
}

/// `qv plan-check`: validate a `qv plan --format json` export against the
/// in-tree plan schema (the CI gate for golden plan renderings).
fn cmd_plan_check(path: &str) -> Result<(), String> {
    let nodes = qurator_plan::schema::validate_plan_json(&read_file(path)?)
        .map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: ok ({nodes} node(s))");
    Ok(())
}

fn cmd_fmt(path: &str) -> Result<(), String> {
    let spec = load_view(path)?;
    print!("{}", qurator::xmlio::spec_to_xml(&spec));
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// The flags [`write_telemetry`] reads.
const TELEMETRY_FLAGS: [&str; 3] = ["--trace-out", "--metrics-out", "--profile-out"];

fn cmd_run(args: &[String]) -> Result<(), String> {
    let known = ["--data", "--group", "--explain", "--analyze", "--format", "--store"];
    check_flags(args, &[&known[..], &TELEMETRY_FLAGS].concat())?;
    let view_path = args.get(1).ok_or_else(usage)?;
    let data_path = flag_value(args, "--data").ok_or_else(usage)?;
    let explain = args.contains(&"--explain".into());
    let analyze = args.contains(&"--analyze".into());
    let format = flag_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(format!("unknown --format {format:?} (expected text or json)"));
    }
    if format == "json" && !analyze {
        return Err("--format applies to the --analyze rendering (add --analyze)".into());
    }

    let spec = load_view(view_path)?;
    let dataset = tsv::read_dataset(&read_file(data_path)?)?;
    let engine = stock_engine()?;
    if let Some(dir) = flag_value(args, "--store") {
        engine.set_store_root(dir).map_err(|e| e.to_string())?;
    }
    // `--explain` reads the run's consolidated map back from its record
    engine.set_provenance_enabled(explain);
    let plan = analyze
        .then(|| engine.plan_with(&spec, &qurator_plan::PlanConfig::default()))
        .transpose()
        .map_err(|e| e.to_string())?;
    let run = qurator_telemetry::RunId::mint();
    let outcome = engine.execute_view_run(&spec, &dataset, run).map_err(|e| e.to_string())?;

    // `--analyze --format json` is the machine surface: stdout carries
    // the analyze document alone, so it can be piped straight into
    // `qv telemetry-check --analyze`
    if format == "text" {
        println!("run id: {run}");
        println!("input items: {}", dataset.len());
        for group in &outcome.groups {
            println!("\ngroup {:?}: {} item(s)", group.name, group.dataset.len());
            for item in group.dataset.items() {
                let tags: Vec<String> = group
                    .map
                    .item(item)
                    .map(|row| row.tag_entries().map(|(t, v)| format!("{t}={v}")).collect())
                    .unwrap_or_default();
                println!("  {}  [{}]", item, tags.join(", "));
            }
        }
    }

    if let Some(plan) = &plan {
        let stats = engine.last_run_stats().ok_or("no run statistics were recorded")?;
        match format {
            "json" => println!("{}", qurator_plan::render::render_analyze_json(plan, &stats)),
            _ => print!("\n{}", qurator_plan::render::render_analyze_text(plan, &stats, true)),
        }
    }

    if explain {
        println!("\n== per-item explanations ==");
        // the run's record holds the consolidated map its actions saw,
        // rejected rows included
        let map = engine.ledger().annotation_map(run).ok_or("the run kept no decisions")?;
        let requested = flag_value(args, "--group");
        for action in &spec.actions {
            if let Some(name) = requested {
                if action.name != name {
                    continue;
                }
            }
            let compiled = match &action.kind {
                qurator::spec::ActionKind::Filter { condition } => {
                    qurator::operators::CompiledAction::Filter { condition: condition.clone() }
                }
                qurator::spec::ActionKind::Split { groups } => {
                    qurator::operators::CompiledAction::Split { groups: groups.clone() }
                }
            };
            let processor = qurator::operators::ActionProcessor::new(
                action.name.clone(),
                compiled,
                engine.iq().clone(),
            );
            for explanation in processor.explain(&dataset, &map).map_err(|e| e.to_string())? {
                let outcomes: Vec<String> = explanation
                    .outcomes
                    .iter()
                    .map(|(name, outcome)| {
                        format!(
                            "{name}:{}",
                            match outcome {
                                ConditionOutcome::Accepted => "accept",
                                ConditionOutcome::Rejected => "reject",
                                ConditionOutcome::Unknown => "null",
                            }
                        )
                    })
                    .collect();
                println!("  {}  {}", explanation.item, outcomes.join(" "));
            }
        }
    }
    write_telemetry(args, &engine, run)?;
    Ok(())
}

/// Handles `--trace-out` / `--metrics-out` / `--profile-out` after the
/// execution `run`.
fn write_telemetry(
    args: &[String],
    engine: &QualityEngine,
    run: qurator_telemetry::RunId,
) -> Result<(), String> {
    let trace = || engine.ledger().trace(run).ok_or("no span trace was recorded");
    if let Some(path) = flag_value(args, "--trace-out") {
        let trace = trace()?;
        qurator_telemetry::export::write_trace_jsonl(&trace, std::path::Path::new(path))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("\ntrace: {} span(s) -> {path}", trace.len());
    }
    if let Some(path) = flag_value(args, "--metrics-out") {
        qurator_telemetry::export::write_metrics_text(
            qurator_telemetry::metrics(),
            std::path::Path::new(path),
        )
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("metrics -> {path}");
    }
    if let Some(path) = flag_value(args, "--profile-out") {
        let trace = trace()?;
        std::fs::write(path, qurator_telemetry::Profile::from_traces([&*trace]).to_folded())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("profile: folded stacks -> {path}");
    }
    Ok(())
}

/// `qv profile`: enact the view N times and render the merged
/// [`qurator_telemetry::RunStats`] of all runs as the EXPLAIN ANALYZE
/// tree, plus the runs' wall time (which also covers work outside plan
/// nodes); `--folded` exports the runs' span traces as
/// flamegraph-compatible folded stacks.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--data", "--runs", "--folded"])?;
    let view_path = args.get(1).filter(|a| !a.starts_with("--")).ok_or_else(usage)?;
    let data_path = flag_value(args, "--data").ok_or_else(usage)?;
    let runs: u32 = match flag_value(args, "--runs") {
        None => 1,
        Some(n) => n.parse().map_err(|_| format!("--runs {n:?} is not a number"))?,
    };
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }

    let spec = load_view(view_path)?;
    let dataset = tsv::read_dataset(&read_file(data_path)?)?;
    let engine = stock_engine()?;
    // one invocation = one run id, stamped on every iteration
    let run = qurator_telemetry::RunId::mint();
    let mut folded = qurator_telemetry::Profile::new();
    let mut merged = qurator_telemetry::RunStats { run_id: Some(run), ..Default::default() };
    let mut wall = std::time::Duration::ZERO;
    for _ in 0..runs {
        let started = std::time::Instant::now();
        engine.execute_view_run(&spec, &dataset, run).map_err(|e| e.to_string())?;
        wall += started.elapsed();
        let stats = engine.last_run_stats().ok_or("no run statistics were recorded")?;
        merged.merge(&stats);
        folded.add_trace(&*engine.ledger().trace(run).ok_or("no span trace was recorded")?);
    }
    let plan =
        engine.plan_with(&spec, &qurator_plan::PlanConfig::default()).map_err(|e| e.to_string())?;
    print!("{}", qurator_plan::render::render_analyze_text(&plan, &merged, true));
    let wall_ns = wall.as_nanos() as u64;
    println!(
        "wall time: {runs} run(s) in {:.1} us ({:.1} us outside plan nodes)",
        wall_ns as f64 / 1000.0,
        wall_ns.saturating_sub(merged.total_wall_ns()) as f64 / 1000.0
    );
    if let Some(path) = flag_value(args, "--folded") {
        std::fs::write(path, folded.to_folded())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("folded stacks -> {path}");
    }
    Ok(())
}

/// `qv load`: bulk-load a Turtle file into an on-disk annotation store.
/// The loader streams — dictionary + sorted runs on disk — so ingest is
/// bounded-memory regardless of the input size; `qv serve --store`
/// reopens the result as the repository named by `--repo`.
fn cmd_load(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--store", "--repo"])?;
    let data_path = args.get(1).filter(|a| !a.starts_with("--")).ok_or_else(usage)?;
    let store_dir = flag_value(args, "--store").ok_or("load needs --store <dir>")?;
    let repo = flag_value(args, "--repo").unwrap_or("archive");
    qurator_annotations::catalog::check_repository_name(repo, true)
        .map_err(|_| format!("--repo {repo:?} is not a valid repository name"))?;

    let text = read_file(data_path)?;
    let target = std::path::Path::new(store_dir).join(repo);
    let started = std::time::Instant::now();
    let stats = qurator_rdf::storage::BulkLoader::new(&target)
        .load_turtle(&text)
        .map_err(|e| format!("loading {data_path:?} into {}: {e}", target.display()))?;
    let elapsed = started.elapsed();
    let secs = elapsed.as_secs_f64();
    println!("loaded {data_path:?} into {} (repository {repo:?})", target.display());
    println!(
        "  {} triple(s) read, {} stored ({} duplicate(s) dropped)",
        stats.triples_read,
        stats.triples_stored,
        stats.triples_read - stats.triples_stored
    );
    println!("  {} term(s) interned, {} sorted run(s) merged", stats.terms, stats.runs);
    println!(
        "  {:.3}s ({:.0} triples/s)",
        secs,
        if secs > 0.0 { stats.triples_read as f64 / secs } else { 0.0 }
    );
    Ok(())
}

/// The SIGTERM/SIGINT flag `qv serve`'s accept loop polls.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Registers the handler via raw libc `signal(2)` — storing to an atomic
/// is async-signal-safe, and the FFI declaration keeps the CLI free of a
/// signal-handling dependency.
#[cfg(unix)]
fn install_shutdown_handler() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal);
        signal(SIGINT, on_shutdown_signal);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

/// `qv serve`: publish one or more views behind the HTTP endpoint and
/// serve until SIGTERM/SIGINT.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--addr",
            "--store",
            "--workers",
            "--queue",
            "--keep-alive-max",
            "--read-timeout-ms",
            "--access-log",
            "--slo-p99-ms",
            "--slo-availability",
        ],
    )?;
    let mut pool = serve::ServeConfig::default();
    let mut options = serve::ServeOptions::default();
    let mut view_paths: Vec<&str> = Vec::new();
    let mut addr = "127.0.0.1:7878";
    let mut store_dir: Option<&str> = None;
    let mut i = 1;
    while i < args.len() {
        let flag_arg = |name: &str| -> Result<&str, String> {
            args.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
        };
        match args[i].as_str() {
            "--addr" => {
                addr = flag_arg("--addr")?;
                i += 2;
            }
            "--store" => {
                store_dir = Some(flag_arg("--store")?);
                i += 2;
            }
            "--workers" => {
                let v = flag_arg("--workers")?;
                pool.workers = v.parse().map_err(|_| format!("--workers {v:?} is not a number"))?;
                if pool.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
                i += 2;
            }
            "--queue" => {
                let v = flag_arg("--queue")?;
                pool.queue_capacity =
                    v.parse().map_err(|_| format!("--queue {v:?} is not a number"))?;
                i += 2;
            }
            "--keep-alive-max" => {
                let v = flag_arg("--keep-alive-max")?;
                pool.keep_alive_max =
                    v.parse().map_err(|_| format!("--keep-alive-max {v:?} is not a number"))?;
                if pool.keep_alive_max == 0 {
                    return Err("--keep-alive-max must be at least 1".into());
                }
                i += 2;
            }
            "--read-timeout-ms" => {
                let v = flag_arg("--read-timeout-ms")?;
                let ms: u64 =
                    v.parse().map_err(|_| format!("--read-timeout-ms {v:?} is not a number"))?;
                if ms == 0 {
                    return Err("--read-timeout-ms must be at least 1".into());
                }
                pool.read_timeout = std::time::Duration::from_millis(ms);
                i += 2;
            }
            "--access-log" => {
                options.access_log_path = Some(flag_arg("--access-log")?.into());
                i += 2;
            }
            "--slo-p99-ms" => {
                let v = flag_arg("--slo-p99-ms")?;
                let ms: u64 =
                    v.parse().map_err(|_| format!("--slo-p99-ms {v:?} is not a number"))?;
                if ms == 0 {
                    return Err("--slo-p99-ms must be at least 1".into());
                }
                options.slo.p99_target_us = ms.saturating_mul(1000);
                i += 2;
            }
            "--slo-availability" => {
                let v = flag_arg("--slo-availability")?;
                let objective: f64 =
                    v.parse().map_err(|_| format!("--slo-availability {v:?} is not a number"))?;
                if !(0.0..1.0).contains(&objective) {
                    return Err("--slo-availability must be in [0, 1)".into());
                }
                options.slo.availability = objective;
                i += 2;
            }
            path => {
                view_paths.push(path);
                i += 1;
            }
        }
    }
    if view_paths.is_empty() {
        return Err(format!("serve needs at least one view\n{}", usage()));
    }

    let engine = stock_engine()?;
    // Fail fast — before binding the socket — when the store directory is
    // locked by another process or holds a corrupt store: a server that
    // silently started empty would shadow the persisted annotations.
    if let Some(dir) = store_dir {
        let reopened = engine.set_store_root(dir).map_err(|e| e.to_string())?;
        match reopened.len() {
            0 => println!("qv serve: store root {dir} (no existing repositories)"),
            _ => println!("qv serve: store root {dir} (reopened: {})", reopened.join(", ")),
        }
    }
    let mut views = Vec::new();
    for path in view_paths {
        let spec = load_view(path)?;
        engine.validate(&spec).map_err(|e| format!("{path}: {e}"))?;
        views.push(spec);
    }
    let state = serve::ServeState::new(engine, views, options)?;
    let names = state.view_names().join(", ");
    let server = serve::Server::bind(addr, state, pool)?;
    let local = server.local_addr()?;
    let pool = server.config();
    println!(
        "qv serve: listening on http://{local} (views: {names}; {} worker(s), queue {})",
        pool.workers, pool.queue_capacity
    );
    install_shutdown_handler();
    server.run(&SHUTDOWN)?;
    println!("qv serve: shutdown signal received, drained in-flight requests, exiting");
    Ok(())
}

/// `qv bench-check`: validate `BENCH_*.json` artifacts (as written by
/// the `bench` crate's experiment binaries) against the in-tree schema.
/// Accepts a single file, a directory (every `BENCH_*.json` inside it),
/// or `--all` (the current directory) — the CI gate over the whole
/// artifact set.
fn cmd_bench_check(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--all"])?;
    let target = args.get(1).ok_or_else(usage)?;
    let dir = if target == "--all" {
        std::path::PathBuf::from(".")
    } else {
        let path = std::path::PathBuf::from(target);
        if !path.is_dir() {
            return check_bench_file(&path);
        }
        path
    };
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no BENCH_*.json artifacts under {}", dir.display()));
    }
    for path in &paths {
        check_bench_file(path)?;
    }
    println!("{} artifact(s) ok", paths.len());
    Ok(())
}

fn check_bench_file(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let samples = qurator_telemetry::schema::validate_bench_json(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}: ok ({samples} sample(s))", path.display());
    Ok(())
}

/// `qv explain`: run the view with the decision ledger enabled and print
/// the provenance trace (evidence, assertions, actions) for one item.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    check_flags(args, &[&["--data", "--item", "--spans"][..], &TELEMETRY_FLAGS].concat())?;
    let view_path = args.get(1).ok_or_else(usage)?;
    let data_path = flag_value(args, "--data").ok_or_else(usage)?;
    let needle = flag_value(args, "--item").ok_or_else(usage)?;
    let show_spans = args.contains(&"--spans".into());

    let spec = load_view(view_path)?;
    let dataset = tsv::read_dataset(&read_file(data_path)?)?;
    let engine = stock_engine()?;
    engine.set_provenance_enabled(true);
    let run = qurator_telemetry::RunId::mint();
    engine.execute_view_run(&spec, &dataset, run).map_err(|e| e.to_string())?;

    let traces = engine.explain_item(needle);
    if traces.is_empty() {
        return Err(format!(
            "no decision trace for {needle:?}; known items: {}",
            engine.ledger().items().join(", ")
        ));
    }
    let span_trace = engine.ledger().trace(run);
    for trace in &traces {
        print!("{}", trace.render_with(if show_spans { span_trace.as_deref() } else { None }));
    }
    write_telemetry(args, &engine, run)?;
    Ok(())
}

/// `qv telemetry-check`: validate an exported trace (and optionally a
/// metrics dump and/or an access log) against the in-tree schemas. A
/// metrics dump is additionally linted against the metric-name
/// convention and the committed allowlist
/// (`qurator_telemetry::naming::ALLOWLIST`).
fn cmd_telemetry_check(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--access-log", "--analyze"])?;
    let trace_path = args.get(1).ok_or_else(usage)?;
    let spans = qurator_telemetry::schema::validate_trace_jsonl(&read_file(trace_path)?)
        .map_err(|e| format!("{trace_path}: {e}"))?;
    println!("{trace_path}: ok ({spans} span(s))");
    if let Some(metrics_path) = args.get(2).filter(|a| !a.starts_with("--")) {
        let text = read_file(metrics_path)?;
        let series = qurator_telemetry::schema::validate_metrics_text(&text)
            .map_err(|e| format!("{metrics_path}: {e}"))?;
        println!("{metrics_path}: ok ({series} series)");
        let names = qurator_telemetry::naming::lint_metrics_text(&text)
            .map_err(|violations| format!("{metrics_path}:\n  {}", violations.join("\n  ")))?;
        println!("{metrics_path}: naming ok ({names} metric name(s) against the allowlist)");
    }
    if let Some(log_path) = flag_value(args, "--access-log") {
        let records = qurator_telemetry::schema::validate_access_log_jsonl(&read_file(log_path)?)
            .map_err(|e| format!("{log_path}: {e}"))?;
        println!("{log_path}: ok ({records} record(s))");
    }
    if let Some(path) = flag_value(args, "--analyze") {
        let nodes = qurator_telemetry::schema::validate_analyze_json(&read_file(path)?)
            .map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok ({nodes} analyzed node(s))");
    }
    Ok(())
}

fn cmd_library(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--search"])?;
    let path = args.get(1).ok_or_else(usage)?;
    let library = ViewLibrary::from_xml(&read_file(path)?).map_err(|e| e.to_string())?;
    let entries: Vec<_> = match flag_value(args, "--search") {
        Some(text) => library.search(text),
        None => library.iter().collect(),
    };
    println!("{} view(s)", entries.len());
    for entry in entries {
        println!(
            "\n{}  (by {})\n  {}\n  evidence: {} | tags: {} | keywords: {}",
            entry.spec.name,
            entry.metadata.author,
            entry.metadata.description,
            entry.spec.referenced_evidence().join(", "),
            entry.spec.tag_names().join(", "),
            entry.metadata.keywords.join(", "),
        );
    }
    Ok(())
}

#[cfg(test)]
mod check_tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("qv-cli-check-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run(args: &[&str]) -> Result<(), String> {
        dispatch(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// A view with no findings at all: the one tag is read by the action.
    const CLEAN_VIEW: &str = r#"<QualityView name="mini">
  <Annotator serviceName="imprint" serviceType="q:ImprintOutputAnnotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:HitRatio"/>
    </variables>
  </Annotator>
  <QualityAssertion serviceName="hr" serviceType="q:UniversalPIScore"
                    tagName="HR" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="hitratio" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <action name="keep">
    <filter><condition>HR &gt; 0</condition></filter>
  </action>
</QualityView>
"#;

    #[test]
    fn clean_view_passes_even_with_deny_warnings() {
        let path = write_temp("clean.qv", CLEAN_VIEW);
        run(&["check", &path]).unwrap();
        run(&["check", &path, "--deny", "warnings"]).unwrap();
        run(&["check", &path, "--format", "json"]).unwrap();
    }

    #[test]
    fn unsatisfiable_condition_fails_the_check() {
        let broken = CLEAN_VIEW.replace("HR &gt; 0", "HR &gt; 5 and HR &lt; 2");
        let path = write_temp("unsat.qv", &broken);
        let e = run(&["check", &path]).unwrap_err();
        assert!(e.contains("1 error"), "{e}");
    }

    #[test]
    fn warnings_gate_only_under_deny() {
        // an extra unused tag: QV019 warning, no errors
        let warned = CLEAN_VIEW.replace(
            "<action name=\"keep\">",
            r#"<QualityAssertion serviceName="hr2" serviceType="q:UniversalPIScore"
                    tagName="HR2" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="hitratio" evidence="q:HitRatio"/>
    </variables>
  </QualityAssertion>
  <action name="keep">"#,
        );
        let path = write_temp("warned.qv", &warned);
        run(&["check", &path]).unwrap();
        let e = run(&["check", &path, "--deny", "warnings"]).unwrap_err();
        assert!(e.contains("warning"), "{e}");
    }

    #[test]
    fn sparql_files_get_the_sq_passes() {
        let path = write_temp(
            "enrich.rq",
            "PREFIX q: <http://x#>\nSELECT ?s ?typo WHERE { ?s q:p ?v . }\n",
        );
        let e = run(&["check", &path]).unwrap_err();
        assert!(e.contains("1 error"), "{e}");
        let clean =
            write_temp("clean.rq", "PREFIX q: <http://x#>\nSELECT ?s ?v WHERE { ?s q:p ?v . }\n");
        run(&["check", &clean]).unwrap();
    }

    #[test]
    fn bad_flags_are_rejected() {
        let path = write_temp("flags.qv", CLEAN_VIEW);
        assert!(run(&["check", &path, "--format", "yaml"]).is_err());
        assert!(run(&["check", &path, "--deny", "everything"]).is_err());
    }

    #[test]
    fn plan_renders_text_and_json() {
        let path = write_temp("plan.qv", CLEAN_VIEW);
        run(&["plan", &path]).unwrap();
        run(&["plan", &path, "--no-opt"]).unwrap();
        run(&["plan", &path, "--format", "json"]).unwrap();
        assert!(run(&["plan", &path, "--format", "yaml"]).is_err());
        assert!(run(&["plan"]).is_err());
    }

    /// CLEAN_VIEW with a dead splitter branch: the classifier's domain is
    /// {low, mid, high}, so the second group can never match (QV025).
    fn dead_branch_view() -> String {
        CLEAN_VIEW.replace(
            r#"  <action name="keep">
    <filter><condition>HR &gt; 0</condition></filter>
  </action>"#,
            r#"  <QualityAssertion serviceName="score" serviceType="q:UniversalPIScore2"
                    tagName="HR_MC" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="coverage" evidence="q:MassCoverage"/>
      <var variableName="hitratio" evidence="q:HitRatio"/>
      <var variableName="peptidescount" evidence="q:PeptidesCount"/>
    </variables>
  </QualityAssertion>
  <QualityAssertion serviceName="classify" serviceType="q:PIScoreClassifier"
                    tagName="ScoreClass" tagSynType="q:class"
                    tagSemType="q:PIScoreClassification">
    <variables repositoryRef="cache">
      <var variableName="score" evidence="tag:HR_MC"/>
    </variables>
  </QualityAssertion>
  <action name="route">
    <splitter>
      <group name="live"><condition>HR &gt; 0 and ScoreClass in q:high</condition></group>
      <group name="dead"><condition>not (ScoreClass in q:low, q:mid, q:high)</condition></group>
    </splitter>
  </action>"#,
        ).replace(
            "      <var evidence=\"q:HitRatio\"/>",
            "      <var evidence=\"q:HitRatio\"/>\n      <var evidence=\"q:MassCoverage\"/>\n      <var evidence=\"q:PeptidesCount\"/>",
        )
    }

    #[test]
    fn fix_applies_machine_applicable_suggestions_in_place() {
        let path = write_temp("fixable.qv", &dead_branch_view());
        // the dead branch is only a warning, so plain check passes …
        run(&["check", &path]).unwrap();
        // … but --deny warnings rejects it until --fix removes it
        assert!(run(&["check", &path, "--deny", "warnings"]).is_err());
        run(&["check", &path, "--fix"]).unwrap();
        let fixed = std::fs::read_to_string(&path).unwrap();
        assert!(!fixed.contains("name=\"dead\""), "dead group survived --fix:\n{fixed}");
        assert!(fixed.contains("name=\"live\""), "--fix deleted the live group:\n{fixed}");
        run(&["check", &path, "--deny", "warnings"]).unwrap();
    }

    #[test]
    fn fix_dry_run_reports_without_writing() {
        let before = dead_branch_view();
        let path = write_temp("dryrun.qv", &before);
        // dry-run exits nonzero when fixes would apply, and leaves the file alone
        assert!(run(&["check", &path, "--fix", "--dry-run"]).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        // a clean view sails through
        let clean = write_temp("dryrun-clean.qv", CLEAN_VIEW);
        run(&["check", &clean, "--fix", "--dry-run"]).unwrap();
    }

    #[test]
    fn fix_flags_are_validated() {
        let path = write_temp("fixflags.qv", CLEAN_VIEW);
        // --dry-run without --fix is meaningless
        assert!(run(&["check", &path, "--dry-run"]).is_err());
        // --fix is a view-language feature, not a SPARQL one
        let rq = write_temp("fixflags.rq", "SELECT ?s WHERE { ?s ?p ?o . }\n");
        assert!(run(&["check", &rq, "--fix"]).is_err());
    }

    #[test]
    fn run_analyze_renders_observed_stats() {
        let view = write_temp("analyze.qv", CLEAN_VIEW);
        let data = write_temp("analyze.tsv", "id\thitRatio\nurn:a\t0.9\nurn:b\t0.1\n");
        run(&["run", &view, "--data", &data, "--analyze"]).unwrap();
        run(&["run", &view, "--data", &data, "--analyze", "--format", "json"]).unwrap();
        // --format gates the analyze rendering, not the run itself
        assert!(run(&["run", &view, "--data", &data, "--format", "json"]).is_err());
        assert!(run(&["run", &view, "--data", &data, "--analyze", "--format", "yaml"]).is_err());
    }

    #[test]
    fn bench_check_accepts_a_directory_of_artifacts() {
        let artifact = r#"{"name":"demo","git_rev":"abc123","config":{"items":"4"},
            "samples":3,"median_ms":1.0,"p95_ms":2.0,"metrics":{"overhead_pct":1.5}}"#;
        let dir = std::env::temp_dir().join("qv-cli-bench-check-dir");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_demo.json"), artifact).unwrap();
        std::fs::write(dir.join("not-a-bench.json"), "{}").unwrap();
        let dir_arg = dir.to_string_lossy().into_owned();
        run(&["bench-check", &dir_arg]).unwrap();
        // a single file still works, and a broken artifact fails the sweep
        let single = dir.join("BENCH_demo.json").to_string_lossy().into_owned();
        run(&["bench-check", &single]).unwrap();
        std::fs::write(dir.join("BENCH_broken.json"), "{}").unwrap();
        assert!(run(&["bench-check", &dir_arg]).is_err());
        std::fs::remove_file(dir.join("BENCH_broken.json")).unwrap();
        // an artifact-free directory is an error, not a silent pass
        let empty = std::env::temp_dir().join("qv-cli-bench-check-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run(&["bench-check", &empty.to_string_lossy()]).is_err());
    }

    #[test]
    fn telemetry_check_lints_metric_names() {
        let trace = write_temp("lint-trace.jsonl", "");
        let good = write_temp("lint-good.txt", "serve.requests{route=\"/run\"} 3\n");
        run(&["telemetry-check", &trace, &good]).unwrap();
        let bad = write_temp("lint-bad.txt", "rogue_metric_total 1\n");
        let e = run(&["telemetry-check", &trace, &bad]).unwrap_err();
        assert!(e.contains("allowlist"), "{e}");
    }

    #[test]
    fn plan_check_validates_a_json_export() {
        let view_path = write_temp("export.qv", CLEAN_VIEW);
        let spec = load_view(&view_path).unwrap();
        let plan = stock_engine().unwrap().plan(&spec).unwrap();
        let json_path = write_temp("plan.json", &qurator_plan::render::render_json(&plan));
        run(&["plan-check", &json_path]).unwrap();
        let bad = write_temp("bad-plan.json", "{}");
        assert!(run(&["plan-check", &bad]).is_err());
    }
}
