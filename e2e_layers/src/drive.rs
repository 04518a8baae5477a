//! The traced operator drive: the public calls `execute_view` makes, made
//! one at a time from outside with a span around each.
//!
//! `QualityEngine::execute_view` validates, plans, binds and then runs
//! the bound operators in process order (`run_physical`). The drive makes
//! exactly those calls, so the difference between an untimed
//! `execute_view` and the sum of the drive's spans is the engine's own
//! residual: provenance, its spans and its stats bookkeeping.

use qurator::engine::QualityEngine;
use qurator::operators::GroupResult;
use qurator::prelude::*;
use qurator::{exec, planner};
use qurator_plan::PlanConfig;

use crate::spans::Tracer;

/// Span names, one per layer boundary the drive crosses.
pub const DRIVE: &str = "engine.drive";
pub const VALIDATE: &str = "validate.validate";
pub const PLAN: &str = "planner.plan";
pub const BIND: &str = "exec.bind";
pub const ANNOTATE: &str = "operators.annotate";
pub const ENRICH: &str = "operators.enrich";
pub const ASSERT: &str = "operators.assert";
pub const ACT: &str = "operators.act";
pub const FLUSH: &str = "store.flush";

/// Everything `execute_view` does that the drive times separately.
pub const PARTS: [&str; 7] = [VALIDATE, PLAN, BIND, ANNOTATE, ENRICH, ASSERT, ACT];

/// What one drive produced besides its spans.
#[derive(Debug)]
pub struct Drive {
    pub groups: Vec<GroupResult>,
    /// Annotations the annotators reported writing.
    pub evidence_written: usize,
    /// Evidence entries in the enriched annotation map.
    pub evidence_read: usize,
    /// Σ `wall_ns` the operators recorded in the program's own stats.
    pub stats_wall_ns: u64,
}

/// Drives `spec` over `dataset` under a new tracer run, then group-commits
/// the stores (`flush_stores`, as `qv serve` does before acknowledging).
pub fn drive(
    engine: &QualityEngine,
    spec: &QualityViewSpec,
    dataset: &DataSet,
    tracer: &mut Tracer,
) -> Result<Drive, String> {
    let err = |e: QuratorError| e.to_string();
    tracer.next_run();
    let root_id = tracer.start(DRIVE, None);
    let root = Some(root_id);
    let view = tracer.time(VALIDATE, root, || engine.validate(spec)).map_err(err)?;
    let plan = tracer
        .time(PLAN, root, || planner::physical_plan(&view, engine.iq(), &PlanConfig::default()))
        .map_err(err)?;
    let bound = tracer
        .time(BIND, root, || exec::bind(&plan, engine.iq(), engine.registry(), engine.catalog()))
        .map_err(err)?;
    bound.stats.set_enabled(engine.stats_enabled());

    // one span per phase, around the walker's loop over that phase's
    // operators: a view without annotators still crosses the phase
    let evidence_written = tracer
        .time(ANNOTATE, root, || {
            bound.annotators.iter().map(|(_, a)| a.annotate(dataset)).sum::<Result<usize, _>>()
        })
        .map_err(err)?;
    let mut map =
        tracer.time(ENRICH, root, || bound.enrichment.enrich(dataset.items())).map_err(err)?;
    tracer
        .time(ASSERT, root, || {
            bound.assertions.iter().try_for_each(|a| a.processor.assert_quality(&mut map))
        })
        .map_err(err)?;
    let groups = tracer
        .time(ACT, root, || {
            let mut groups = Vec::new();
            for (_, action) in &bound.actions {
                groups.extend(action.apply(dataset, &map)?);
            }
            Ok(groups)
        })
        .map_err(err)?;
    let stats = bound.stats.drain(&plan.view, None, dataset.len() as u64);
    tracer.time(FLUSH, root, || engine.flush_stores()).map_err(err)?;
    tracer.end(root_id);

    let evidence_read = map.rows().map(|(_, row)| row.evidence_entries().count()).sum();
    Ok(Drive { groups, evidence_written, evidence_read, stats_wall_ns: stats.total_wall_ns() })
}

/// Order-sensitive FNV-1a digest of group names and memberships: equal
/// digests mean the same items landed in the same groups.
pub fn digest(groups: &[GroupResult]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes.iter().chain(&[0xff]) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for group in groups {
        feed(group.name.as_bytes());
        for item in group.dataset.items() {
            feed(item.to_string().as_bytes());
        }
    }
    hash
}

/// Terms interned across every repository the engine holds.
pub fn terms(engine: &QualityEngine) -> usize {
    let catalog = engine.catalog();
    catalog.names().iter().filter_map(|name| catalog.get(name)).map(|r| r.term_count()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_matches_execute_view_and_spans_every_layer() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let spec = qurator::xmlio::parse_quality_view(crate::PAPER_VIEW).unwrap();
        let dataset = crate::rows::dataset(&crate::rows::gradient(1, 300));
        let expected = digest(&engine.execute_view(&spec, &dataset).unwrap().groups);
        engine.finish_execution();

        let mut tracer = Tracer::default();
        let drive = drive(&engine, &spec, &dataset, &mut tracer).unwrap();
        assert_eq!(digest(&drive.groups), expected);
        assert_eq!(drive.evidence_written, 900, "three evidence types per item");
        assert_eq!(drive.evidence_read, 900);
        assert!(drive.stats_wall_ns > 0);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name.as_str()).collect();
        for layer in PARTS.iter().chain(&[DRIVE, FLUSH]) {
            assert_eq!(names.iter().filter(|n| *n == layer).count(), 1, "{layer} in {names:?}");
        }
    }

    #[test]
    fn a_view_without_annotators_still_crosses_the_annotate_phase() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let dataset = crate::rows::dataset(&crate::rows::gradient(1, 50));
        let archive = engine.catalog().create("archive", true).unwrap();
        for item in dataset.items() {
            let value = dataset.field(item, "hitRatio");
            archive.annotate(item, &qurator_rdf::namespace::q::iri("HitRatio"), value).unwrap();
        }
        let spec = qurator::xmlio::parse_quality_view(crate::SPLIT_ARCHIVE_VIEW).unwrap();
        let mut tracer = Tracer::default();
        let drive = drive(&engine, &spec, &dataset, &mut tracer).unwrap();
        assert_eq!((drive.evidence_written, drive.evidence_read), (0, 50));
        assert_eq!(drive.groups.len(), 3, "strong, weak and the default group");
        assert!(tracer.spans().iter().any(|s| s.name == ANNOTATE));
    }

    #[test]
    fn digest_sees_membership_and_order() {
        let engine = QualityEngine::with_proteomics_defaults().unwrap();
        let spec = qurator::xmlio::parse_quality_view(crate::PAPER_VIEW).unwrap();
        let run = |seed| {
            let dataset = crate::rows::dataset(&crate::rows::gradient(seed, 100));
            let groups = engine.execute_view(&spec, &dataset).unwrap().groups;
            engine.finish_execution();
            digest(&groups)
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1), "a shuffled input keeps its order in the groups");
    }
}
