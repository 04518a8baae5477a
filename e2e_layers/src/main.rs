//! `e2e_layers`: runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! e2e_layers --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--qv PATH] [--out DIR]
//! e2e_layers --all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints `<workload> <metric> <value> <unit>` per metric, then as the
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! published metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). A traced run also writes `<out>/<workload>.spans.jsonl`
//! and `<out>/<workload>.layers.json`. `qv` and the output directory
//! default to this binary's directory. `--all` runs every workload in a
//! child process of its own, so memory peaks and caches stay apart.
//! Exits non-zero only when the harness itself fails; wrong program
//! output is reported as `"correct": false`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use e2e_layers::{Config, Workload};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("e2e_layers: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let bin_dir = exe.parent().ok_or("this binary has no directory")?.to_path_buf();
    let mut config = Config {
        workload: Workload::BatchPaper,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        qv: bin_dir.join("qv"),
        out: bin_dir.join("e2e_layers-out"),
    };
    let mut workload = None;
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--all" => {
                all = true;
                i += 1;
                continue;
            }
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                config.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !config.seconds.is_finite() || config.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--qv" => config.qv = PathBuf::from(value()?),
            "--out" => config.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }

    if all {
        for w in Workload::ALL {
            let status = Command::new(&exe)
                .args(args.iter().filter(|a| *a != "--all"))
                .args(["--workload", w.name()])
                .status()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            if !status.success() {
                return Err(format!("{} exited with {status}", w.name()));
            }
        }
        return Ok(());
    }
    config.workload = workload.ok_or("name a --workload or pass --all")?;
    if !config.qv.is_file() {
        return Err(format!(
            "{} is missing; build it with `cargo build --release -p qurator-cli`",
            config.qv.display()
        ));
    }

    let report = e2e_layers::run(&config)?;
    print!("{}", report.lines());
    for failure in &report.failures {
        eprintln!("{}: FAILED {failure}", report.workload);
    }
    if config.trace {
        let path = e2e_layers::write_layers(&config, &report)?;
        eprintln!("{}: layers -> {}", report.workload, path.display());
    }
    println!("{}", report.result_json(config.trace)?);
    Ok(())
}
