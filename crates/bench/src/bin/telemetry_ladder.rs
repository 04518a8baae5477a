//! The telemetry cost ladder: what each telemetry layer adds to a
//! quality-view run, priced one layer at a time against an A/A noise
//! floor.
//!
//! Every step has its own engine and adds one layer to the step before
//! it:
//!
//! 1. `baseline` — stats off, ledger off;
//! 2. `+ stats` — the per-node `NodeStats` counters (`qv run`'s default);
//! 3. `+ ledger` — per-run decision capture under `qv serve`'s item
//!    budget;
//! 4. `+ correlation` — a caller-minted `RunId` and one access-log
//!    record per request: `qv serve`'s configuration.
//!
//! Every step keeps each run's span trace in its record in the engine's
//! run ring, so trace retention is part of the baseline.
//!
//! A second `baseline` engine forms an A/A pair: the spread of its
//! paired deltas is the noise floor a step's delta must clear before it
//! means anything. Each round times every engine once, rotating the
//! order so no step always runs first; a step's figure is the median
//! and quartiles of its per-round delta against the previous step. The
//! ledger step also reports the `phase:provenance` span's share of the
//! run, read from the run's own trace. The stated bound for each layer
//! is 5%; it is printed and recorded, not enforced.
//!
//! Workload: the paper view, annotator kept, over `synthetic_hits`
//! bodies of `rows` rows (default 200, `serve_paper_200`'s body size);
//! 20000 gives the batch shape. A sample is the median time of enough
//! back-to-back requests to cover ~3,200 items (16 at 200 rows): the
//! median discounts a request that a preemption slowed, which on a
//! shared host only ever adds time.
//!
//! ```sh
//! cargo run --release -p bench --bin telemetry_ladder [rows]
//! ```

use std::time::Instant;

use bench::results::{quantile, BenchResult};
use bench::{bench_view, synthetic_hits};
use qurator::prelude::*;
use qurator_telemetry::{AccessLog, AccessRecord, RunId};

const ROUNDS: usize = 21;
const ITEMS_PER_SAMPLE: usize = 3_200;
/// Mirrors `SERVE_LEDGER_CAPACITY` in `qv serve`: the ledger's item budget.
const LEDGER_CAPACITY: usize = 8192;
/// Mirrors the default `--access-log` ring capacity of `qv serve`.
const ACCESS_LOG_CAPACITY: usize = 1024;
const BOUND_PCT: f64 = 5.0;

struct Step {
    name: &'static str,
    key: &'static str,
    engine: QualityEngine,
    correlated: bool,
    samples: Vec<f64>,
}

impl Step {
    fn new(name: &'static str, key: &'static str) -> Self {
        let engine = QualityEngine::with_proteomics_defaults().expect("engine");
        engine.set_stats_enabled(false);
        Step { name, key, engine, correlated: false, samples: Vec::new() }
    }
}

/// `[q1, median, q3]` of `samples`.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| quantile(samples, q))
}

/// Quartiles of the per-round `(variant - base) / base`, in percent.
fn paired_delta_pct(base: &[f64], variant: &[f64]) -> [f64; 3] {
    let deltas: Vec<f64> = base
        .iter()
        .zip(variant)
        .filter(|(b, _)| **b > 0.0)
        .map(|(b, v)| (v - b) / b * 100.0)
        .collect();
    quartiles(&deltas)
}

fn main() {
    let rows: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let requests = (ITEMS_PER_SAMPLE / rows).max(1);
    let dataset = synthetic_hits(rows);
    let spec = bench_view();
    let access_log = AccessLog::new(ACCESS_LOG_CAPACITY);

    let mut steps = vec![
        Step::new("baseline", "baseline"),
        Step::new("baseline (A/A)", "aa"),
        Step::new("+ stats", "stats"),
        Step::new("+ ledger", "ledger"),
        Step::new("+ correlation", "correlation"),
    ];
    for step in &mut steps[2..] {
        step.engine.set_stats_enabled(true);
    }
    for step in &mut steps[3..] {
        step.engine.set_provenance_enabled(true);
        step.engine.ledger().set_trace_capacity(LEDGER_CAPACITY);
    }
    steps[4].correlated = true;

    let sample = |step: &Step| -> f64 {
        let mut request_ms = Vec::with_capacity(requests);
        for _ in 0..requests {
            let start = Instant::now();
            if step.correlated {
                let run = RunId::mint();
                std::hint::black_box(
                    step.engine.execute_view_run(&spec, &dataset, run).expect("correlated run"),
                );
                access_log.record(AccessRecord {
                    seq: 0,
                    ts_ms: 0,
                    peer: "bench".into(),
                    route: "/run".into(),
                    status: 200,
                    bytes: 0,
                    latency_us: 0,
                    run_id: Some(run),
                    shed: false,
                    timeout: false,
                });
            } else {
                std::hint::black_box(step.engine.execute_view(&spec, &dataset).expect("run"));
            }
            request_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        quantile(&request_ms, 0.5)
    };
    // warm-up: condition compiler, annotation caches, the run rings
    for step in &steps {
        sample(step);
    }

    let mut provenance_share = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        for offset in 0..steps.len() {
            let index = (round + offset) % steps.len();
            let ms = sample(&steps[index]);
            steps[index].samples.push(ms);
            if index == 3 {
                // the ledger step: provenance recording has its own span,
                // so its share of the run is exact within the run
                let trace = steps[index].engine.last_trace().expect("run records a trace");
                let view_ns =
                    trace.roots().next().and_then(|s| s.duration_ns()).expect("view span");
                let prov_ns = trace
                    .spans()
                    .iter()
                    .find(|s| s.name == "phase:provenance")
                    .and_then(|s| s.duration_ns())
                    .expect("closed provenance span");
                provenance_share.push(prov_ns as f64 / (view_ns - prov_ns) as f64 * 100.0);
            }
        }
    }

    // what each layer must have recorded
    let stats = steps[2].engine.last_run_stats().expect("stats step records stats");
    assert_eq!(stats.items, rows as u64, "stats cover every item");
    assert!(stats.nodes.values().any(|s| s.rows_out > 0), "no rows counted: {stats:?}");
    for step in &steps[3..] {
        assert_eq!(
            step.engine.ledger().len(),
            rows,
            "{}: the newest run keeps every item's decisions",
            step.name
        );
    }
    for step in &steps {
        assert!(step.engine.last_trace().is_some(), "{}: the ring keeps traces", step.name);
    }
    let correlated_requests = ((ROUNDS + 1) * requests) as u64;
    assert_eq!(access_log.recorded(), correlated_requests, "one access record per request");

    let [aa_q1, aa_med, aa_q3] = paired_delta_pct(&steps[0].samples, &steps[1].samples);
    let [share_q1, share_med, share_q3] = quartiles(&provenance_share);

    println!("== telemetry cost ladder: paper view, {rows}-row bodies ==\n");
    println!("rounds: {ROUNDS} | requests per sample: {requests} | bound per layer: {BOUND_PCT}%");
    println!("A/A floor: {aa_med:+.2}% (q1 {aa_q1:+.2}%, q3 {aa_q3:+.2}%)\n");
    println!(
        "{:20} {:>10}  {:>28}  {:>24}",
        "step", "request ms", "delta vs previous step", "A/A q1..q3"
    );
    let mut result = BenchResult::new("telemetry_ladder")
        .config("rows", rows)
        .config("rounds", ROUNDS)
        .config("requests_per_sample", requests)
        .config("ledger_capacity", LEDGER_CAPACITY)
        .config("workload", "paper view with annotator, synthetic_hits bodies")
        .metric("bound_pct", BOUND_PCT)
        .metric("aa_delta_pct", aa_med)
        .metric("aa_delta_q1_pct", aa_q1)
        .metric("aa_delta_q3_pct", aa_q3);
    println!("{:20} {:>10.3}", steps[0].name, quantile(&steps[0].samples, 0.5));
    result = result.metric("baseline_median_ms", quantile(&steps[0].samples, 0.5));
    let mut previous = &steps[0];
    for step in &steps[2..] {
        let [q1, med, q3] = paired_delta_pct(&previous.samples, &step.samples);
        let median_ms = quantile(&step.samples, 0.5);
        println!(
            "{:20} {median_ms:>10.3}  {med:>+8.2}% (q1 {q1:+.2}%, q3 {q3:+.2}%)  {aa_q1:>+9.2}%..{aa_q3:+.2}%",
            step.name
        );
        result = result
            .metric(format!("{}_median_ms", step.key), median_ms)
            .metric(format!("{}_delta_pct", step.key), med)
            .metric(format!("{}_delta_q1_pct", step.key), q1)
            .metric(format!("{}_delta_q3_pct", step.key), q3);
        previous = step;
    }
    let [total_q1, total_med, total_q3] = paired_delta_pct(&steps[0].samples, &steps[4].samples);
    println!(
        "\nall layers (serve configuration vs baseline): {total_med:+.2}% (q1 {total_q1:+.2}%, q3 {total_q3:+.2}%)"
    );
    println!(
        "ledger step, phase:provenance share of the run: {share_med:.2}% (q1 {share_q1:.2}%, q3 {share_q3:.2}%)"
    );
    println!(
        "ledger: {} item(s) (budget {LEDGER_CAPACITY}) | access log: {} record(s)",
        steps[4].engine.ledger().len(),
        access_log.recorded(),
    );

    let result = result
        .metric("total_delta_pct", total_med)
        .metric("total_delta_q1_pct", total_q1)
        .metric("total_delta_q3_pct", total_q3)
        .metric("ledger_provenance_share_pct", share_med)
        .metric("ledger_provenance_share_q1_pct", share_q1)
        .metric("ledger_provenance_share_q3_pct", share_q3)
        .metric("access_log_records", access_log.recorded() as f64)
        .samples_ms(steps[4].samples.clone());
    let path = result.write().expect("bench artifact");
    println!("-> {}", path.display());
}
