//! Experiment P1 — cost/benefit of the plan optimizer on the Figure 7
//! workload.
//!
//! Runs the §6.3 quality view (Imprint annotation → enrichment →
//! HR_MC score + classifier → top-k filter) over every protein spot of
//! the paper-scale testbed twice through the sequential interpreter:
//!
//! * `optimized` — the default pass pipeline (dead-node elimination,
//!   repository-access fusion, cache routing, action short-circuiting);
//! * `baseline`  — `--no-opt`: lowering plus wave scheduling only.
//!
//! Both runs must produce identical survivor sets (the optimizer is
//! outcome-preserving by construction; the equivalence property test
//! checks this exhaustively, this bench re-asserts it on real data).
//! Also reports planning-only latency and the per-pass
//! `plan.pass.duration_us` breakdown. Writes `BENCH_plan_opt.json`.
//!
//! ```sh
//! cargo run --release -p bench --bin plan_opt [seed]
//! ```

use bench::results::{measure_ms, BenchResult};
use qurator::prelude::*;
use qurator_plan::PlanConfig;
use qurator_proteomics::{World, WorldConfig};
use qurator_repro::ispider::{figure7_view, hits_to_dataset, FIGURE7_GROUP};

const ITERS: usize = 7;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let world = World::generate(&WorldConfig::paper_scale(seed)).expect("testbed");
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let spec = figure7_view();

    let datasets: Vec<_> = world
        .peak_lists()
        .iter()
        .map(|pl| hits_to_dataset(&pl.spot_id, &world.imprint.search(pl)))
        .collect();
    let items: usize = datasets.iter().map(|d| d.items().len()).sum();

    let optimized_cfg = PlanConfig::default();
    let baseline_cfg = PlanConfig { optimize: false };
    let survivors = |config: &PlanConfig| -> usize {
        datasets
            .iter()
            .map(|dataset| {
                let outcome = engine.execute_view_with(&spec, dataset, config).expect("view runs");
                outcome.group(FIGURE7_GROUP).map_or(0, |g| g.dataset.items().len())
            })
            .sum()
    };

    // warm-up + outcome-preservation check
    let survivors_opt = survivors(&optimized_cfg);
    let survivors_base = survivors(&baseline_cfg);
    assert_eq!(
        survivors_opt, survivors_base,
        "optimizer changed the view outcome — plans are not equivalent"
    );

    // interleave the variants so machine drift hits both sample sets
    let mut optimized = Vec::with_capacity(ITERS);
    let mut baseline = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        baseline.extend(measure_ms(1, || {
            std::hint::black_box(survivors(&baseline_cfg));
        }));
        optimized.extend(measure_ms(1, || {
            std::hint::black_box(survivors(&optimized_cfg));
        }));
    }

    // planning-only latency and the per-pass breakdown
    let plan_samples = measure_ms(ITERS, || {
        std::hint::black_box(engine.plan(&spec).expect("plan"));
    });
    let plan = engine.plan(&spec).expect("plan");
    let plan_base = engine.plan_with(&spec, &baseline_cfg).expect("baseline plan");

    let med = |s: &[f64]| bench::results::quantile(s, 0.5);
    let speedup = med(&baseline) / med(&optimized).max(1e-9);

    println!("== plan optimizer on the Figure 7 workload (seed {seed}) ==\n");
    println!("spots: {}  items: {items}", datasets.len());
    println!("survivors (both modes): {survivors_opt}");
    println!(
        "enrichment: {} fetch(es) in {} group(s) optimized vs {} group(s) baseline",
        plan.fetch_count(),
        plan.enrich.len(),
        plan_base.enrich.len()
    );
    println!(
        "execute: optimized median {:.2} ms | baseline median {:.2} ms | speedup {speedup:.2}x",
        med(&optimized),
        med(&baseline)
    );
    println!("plan-only median: {:.3} ms  (passes below)", med(&plan_samples));
    for pass in &plan.passes {
        println!(
            "  {:<22} {:>6} us{}{}",
            pass.pass,
            pass.duration_us,
            if pass.changed { "  *" } else { "" },
            if pass.notes.is_empty() {
                String::new()
            } else {
                format!("  ({})", pass.notes.join("; "))
            }
        );
    }

    let mut result = BenchResult::new("plan_opt")
        .config("seed", seed)
        .config("spots", datasets.len())
        .config("items", items)
        .config("iters", ITERS)
        .metric("survivors", survivors_opt as f64)
        .metric("optimized_median_ms", med(&optimized))
        .metric("baseline_median_ms", med(&baseline))
        .metric("speedup", speedup)
        .metric("plan_median_ms", med(&plan_samples))
        .metric("enrich_groups_optimized", plan.enrich.len() as f64)
        .metric("enrich_groups_baseline", plan_base.enrich.len() as f64)
        .samples_ms(optimized);
    for pass in &plan.passes {
        result =
            result.metric(format!("plan.pass.{}.duration_us", pass.pass), pass.duration_us as f64);
    }
    let path = result.write().expect("bench artifact");
    println!("\n-> {}", path.display());
}
