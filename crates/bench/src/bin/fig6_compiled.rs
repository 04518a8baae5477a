//! Experiment F6 — regenerates Figure 6: the §5.1 quality view compiled
//! into a quality workflow (box a) and embedded into the ISPIDER host
//! workflow between protein identification and GO retrieval (box b).
//!
//! ```sh
//! cargo run -p bench --bin fig6_compiled [seed]
//! ```

use bench::host::{self, build_host, nodes};
use qurator::deploy::DeploymentPlan;
use qurator::prelude::*;
use qurator_proteomics::{World, WorldConfig};
use qurator_repro::ispider::{figure7_view, FIGURE7_GROUP};
use qurator_workflow::{Context, Data, Enactor, PortRef};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let view = figure7_view();

    // ---- box (a): the compiled quality workflow
    let quality = engine.compile(&view).expect("compiles");
    println!("== Figure 6 (a): compiled quality workflow ==\n");
    println!("{}", quality.to_dot());

    // ---- box (b): embedded into the host experiment workflow
    let world = Arc::new(World::generate(&WorldConfig::paper_scale(seed)).expect("testbed"));
    let mut hosted = build_host(world.clone());
    let plan = DeploymentPlan {
        prefix: "qv".into(),
        severed: (PortRef::new(nodes::IMPRINT, "hits"), PortRef::new(nodes::GOA, "hits")),
        input_adapter: ("adapt-in".into(), host::input_adapter()),
        output_group: FIGURE7_GROUP.into(),
        output_adapter: ("adapt-out".into(), host::output_adapter()),
    };
    plan.apply(&mut hosted, &quality).expect("embedding");
    println!("== Figure 6 (b): embedded quality workflow ==\n");
    println!("{}", hosted.to_dot());

    // ---- run both variants and compare volumes
    let baseline = Enactor::new()
        .run(&build_host(world.clone()), &BTreeMap::new(), &Context::new())
        .expect("baseline run");
    let report =
        Enactor::new().run(&hosted, &BTreeMap::new(), &Context::new()).expect("embedded run");

    let count = |outputs: &BTreeMap<String, Data>| -> f64 {
        outputs["go_counts"]
            .as_record()
            .map(|r| r.values().filter_map(Data::as_number).sum())
            .unwrap_or(0.0)
    };
    println!("== effect of inserting the quality process (cf. §6.3) ==");
    println!("GO-term occurrences without quality view: {}", count(&baseline.outputs));
    println!("GO-term occurrences with    quality view: {}", count(&report.outputs));
    println!("\nembedded enactment trace:");
    print!("{}", report.render_trace());
}
