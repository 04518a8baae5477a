//! Experiment P1 — cost/benefit of the plan optimizer on the Figure 7
//! workload.
//!
//! Runs two views over every protein spot of the paper-scale testbed
//! through the sequential interpreter, each in both plan modes:
//!
//! * `paper` — the §6.3 quality view (Imprint annotation → enrichment →
//!   HR_MC score + classifier → top-k filter). Nothing in it is dead, so
//!   both modes run the same plan and the speedup reads noise;
//! * `dead_writer` — the same view plus a second Imprint annotator that
//!   writes a volatile `scratch` repository nothing reads: the shape
//!   `dead-node-elim` removes.
//!
//! The modes are `optimized` — the default pipeline (`dead-node-elim`,
//! `wave-schedule`) — and `baseline` — `--no-opt`: wave scheduling only.
//! Both group enrichment by repository, since that is lowering, not a
//! pass.
//!
//! Per view, both modes must produce identical survivor sets (the
//! optimizer is outcome-preserving by construction; the equivalence
//! property test checks this exhaustively, this bench re-asserts it on
//! real data). Reports each view's medians, speedup and the number of
//! annotators `dead-node-elim` removed, plus planning-only latency and
//! the per-pass `PassReport::duration_us` breakdown. Writes
//! `BENCH_plan_opt.json`.
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

/// [`figure7_view`] plus an annotator whose volatile repository no
/// assertion reads.
fn dead_writer_view() -> QualityViewSpec {
    let mut spec = figure7_view();
    spec.annotators.push(AnnotatorDecl {
        service_name: "scratch-writer".into(),
        service_type: "q:ImprintOutputAnnotation".into(),
        repository_ref: "scratch".into(),
        persistent: false,
        variables: vec![VarDecl::evidence("q:HitRatio")],
    });
    spec
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let world = World::generate(&WorldConfig::paper_scale(seed)).expect("testbed");
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");

    let datasets: Vec<_> = world
        .peak_lists()
        .iter()
        .map(|pl| hits_to_dataset(&pl.spot_id, &world.imprint.search(pl)))
        .collect();
    let items: usize = datasets.iter().map(|d| d.items().len()).sum();

    let optimized_cfg = PlanConfig::default();
    let baseline_cfg = PlanConfig { optimize: false };
    let survivors = |spec: &QualityViewSpec, config: &PlanConfig| -> usize {
        datasets
            .iter()
            .map(|dataset| {
                let outcome = engine.execute_view_with(spec, dataset, config).expect("view runs");
                outcome.group(FIGURE7_GROUP).map_or(0, |g| g.dataset.items().len())
            })
            .sum()
    };
    let med = |s: &[f64]| bench::results::quantile(s, 0.5);

    println!("== plan optimizer on the Figure 7 workload (seed {seed}) ==\n");
    println!("spots: {}  items: {items}", datasets.len());

    let mut result = BenchResult::new("plan_opt")
        .config("seed", seed)
        .config("spots", datasets.len())
        .config("items", items)
        .config("iters", ITERS);
    for (label, spec) in [("paper", figure7_view()), ("dead_writer", dead_writer_view())] {
        // warm-up + outcome-preservation check
        let survivors_opt = survivors(&spec, &optimized_cfg);
        assert_eq!(
            survivors_opt,
            survivors(&spec, &baseline_cfg),
            "{label}: optimizer changed the view outcome — plans are not equivalent"
        );

        // interleave the modes so machine drift hits both sample sets
        let mut optimized = Vec::with_capacity(ITERS);
        let mut baseline = Vec::with_capacity(ITERS);
        for _ in 0..ITERS {
            baseline.extend(measure_ms(1, || {
                std::hint::black_box(survivors(&spec, &baseline_cfg));
            }));
            optimized.extend(measure_ms(1, || {
                std::hint::black_box(survivors(&spec, &optimized_cfg));
            }));
        }

        let plan = engine.plan(&spec).expect("plan");
        let plan_base = engine.plan_with(&spec, &baseline_cfg).expect("baseline plan");
        assert_eq!(plan.enrich, plan_base.enrich, "{label}: both modes group enrichment alike");
        let eliminated = plan_base.annotators.len() - plan.annotators.len();
        let speedup = med(&baseline) / med(&optimized).max(1e-9);

        println!(
            "\n[{label}] survivors (both modes): {survivors_opt}; annotators: {} optimized vs {} \
             baseline ({eliminated} eliminated); enrichment: {} fetch(es) in {} group(s)",
            plan.annotators.len(),
            plan_base.annotators.len(),
            plan.fetch_count(),
            plan.enrich.len()
        );
        println!(
            "[{label}] execute: optimized median {:.2} ms | baseline median {:.2} ms | \
             speedup {speedup:.2}x",
            med(&optimized),
            med(&baseline)
        );

        result = result
            .metric(format!("{label}.optimized_median_ms"), med(&optimized))
            .metric(format!("{label}.baseline_median_ms"), med(&baseline))
            .metric(format!("{label}.speedup"), speedup)
            .metric(format!("{label}.annotators_eliminated"), eliminated as f64);
        if label == "paper" {
            result = result
                .metric("survivors", survivors_opt as f64)
                .metric("enrich_groups", plan.enrich.len() as f64)
                .samples_ms(optimized);
        }
    }

    // planning-only latency and the per-pass breakdown, on the view
    // where a pass fires
    let spec = dead_writer_view();
    let plan_samples = measure_ms(ITERS, || {
        std::hint::black_box(engine.plan(&spec).expect("plan"));
    });
    result = result.metric("plan_median_ms", med(&plan_samples));
    println!("\nplan-only median: {:.3} ms  (dead_writer passes below)", med(&plan_samples));
    for pass in &engine.plan(&spec).expect("plan").passes {
        result =
            result.metric(format!("plan.pass.{}.duration_us", pass.pass), pass.duration_us as f64);
        println!(
            "  {:<16} {:>6} us{}{}",
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

    let path = result.write().expect("bench artifact");
    println!("\n-> {}", path.display());
}
