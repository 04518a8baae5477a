//! Lowering plus the pass pipeline: [`lower`] turns a [`LogicalPlan`]
//! into a [`PhysicalPlan`].
//!
//! Lowering itself groups the Enrich node's fetches by repository, in
//! both modes: one access per repository, its evidence types
//! deduplicated in first-fetch order, so each repository is read with
//! one bulk call. Then the passes run:
//!
//! | pass             | effect                                            |
//! |------------------|---------------------------------------------------|
//! | `dead-node-elim` | drop volatile annotators nobody reads (skipped    |
//! |                  | under `--no-opt`)                                 |
//! | `wave-schedule`  | antichain schedule for the parallel enactor       |
//!
//! Every pass is semantics-preserving: an optimized and an unoptimized
//! plan produce identical action outcomes and decision ledgers (enforced
//! by the interpreter ≡ compiled ≡ optimized property test in the
//! umbrella crate). Notably, dead-node elimination only removes
//! *annotators* whose repository no enrichment access reads and whose
//! annotations are volatile — dead *assertions* stay, because their tags
//! are visible in the output group maps.
//!
//! Pass timings are recorded both on the plan (the [`PassReport`] list)
//! and in the global metrics registry (`plan.pass.duration_us`
//! histogram, `plan.pass.runs{pass}` counters).

use crate::logical::{Binding, LogicalPlan, CONSOLIDATE_NODE, ENRICH_NODE};
use crate::physical::{EnrichGroup, PassReport, PhysicalAssert, PhysicalPlan, PlanConfig};
use crate::{PlanError, Result};
use qurator_rdf::term::Iri;
use std::time::Instant;

/// Lowers a logical plan to a physical plan, running `dead-node-elim`
/// unless `config.optimize` is off (wave scheduling always runs — it is
/// required output, not an optimization).
pub fn lower(logical: &LogicalPlan, config: &PlanConfig) -> Result<PhysicalPlan> {
    let mut plan = PhysicalPlan {
        view: logical.view.clone(),
        optimized: config.optimize,
        annotators: logical.annotators().cloned().collect(),
        persistence: logical.repository_persistence(),
        enrich: group_fetches(logical.enrich().map_or(&[], |e| &e.fetches)),
        assertions: resolve_dependencies(logical)?,
        actions: logical.actions().cloned().collect(),
        waves: Vec::new(),
        passes: Vec::new(),
    };

    if config.optimize {
        run_pass(&mut plan, "dead-node-elim", dead_node_elim);
    }
    run_pass(&mut plan, "wave-schedule", wave_schedule);
    Ok(plan)
}

/// Groups fetches by repository *name* in first-fetch order and
/// deduplicates evidence types within each group, so a repository
/// listed under several evidence IRIs is answered by one bulk lookup.
/// Order preservation keeps merge semantics (later fetches win
/// conflicts) identical to one read per fetch — validation guarantees
/// each evidence type appears at most once, so grouping by repository
/// never reorders a conflicting write.
fn group_fetches(fetches: &[(Iri, String)]) -> Vec<EnrichGroup> {
    let mut groups: Vec<EnrichGroup> = Vec::new();
    for (evidence, repository) in fetches {
        match groups.iter_mut().find(|g| g.repository == *repository) {
            Some(group) if group.evidence.contains(evidence) => {}
            Some(group) => group.evidence.push(evidence.clone()),
            None => groups.push(EnrichGroup {
                repository: repository.clone(),
                evidence: vec![evidence.clone()],
            }),
        }
    }
    groups
}

/// Resolves each assertion's tag bindings to the producing assert nodes
/// (declaration order; validation guarantees producers precede readers).
fn resolve_dependencies(logical: &LogicalPlan) -> Result<Vec<PhysicalAssert>> {
    let mut out: Vec<PhysicalAssert> = Vec::new();
    let mut producers: Vec<(&str, &str)> = Vec::new(); // tag → node name
    for node in logical.assertions() {
        let mut depends_on: Vec<String> = Vec::new();
        for (_, binding) in &node.bindings {
            if let Binding::Tag(tag) = binding {
                let producer = producers
                    .iter()
                    .rev() // later declarations with the same tag win
                    .find(|(t, _)| t == tag)
                    .map(|(_, name)| name.to_string())
                    .ok_or_else(|| {
                        PlanError(format!("tag {tag:?} of node {:?} has no producer", node.name))
                    })?;
                if !depends_on.contains(&producer) {
                    depends_on.push(producer);
                }
            }
        }
        producers.push((&node.tag, &node.name));
        out.push(PhysicalAssert { node: node.clone(), depends_on });
    }
    Ok(out)
}

/// Runs one pass, timing it and recording its report + metrics.
fn run_pass(
    plan: &mut PhysicalPlan,
    name: &'static str,
    pass: impl FnOnce(&mut PhysicalPlan) -> PassOutcome,
) {
    let started = Instant::now();
    let outcome = pass(plan);
    let duration_us = started.elapsed().as_micros() as u64;
    let metrics = qurator_telemetry::metrics();
    metrics.histogram("plan.pass.duration_us").record(duration_us);
    metrics.counter_with("plan.pass.runs", &[("pass", name)]).inc();
    plan.passes.push(PassReport {
        pass: name,
        duration_us,
        changed: outcome.changed,
        notes: outcome.notes,
    });
}

struct PassOutcome {
    changed: bool,
    notes: Vec<String>,
}

/// dead-node-elim: an annotator writing a repository that no enrichment
/// access reads does work nobody in this view observes; when its
/// annotations are also volatile (non-persistent), nobody *outside* the
/// view can observe them either, so the node is removed outright.
/// Persistent writers are kept — later executions may enrich from them.
fn dead_node_elim(plan: &mut PhysicalPlan) -> PassOutcome {
    let mut notes = Vec::new();
    plan.annotators.retain(|a| {
        let read = plan.enrich.iter().any(|g| g.repository == a.repository);
        if read || a.persistent {
            true
        } else {
            notes.push(format!(
                "removed annotator {:?}: repository {:?} is volatile and never read",
                a.name, a.repository
            ));
            false
        }
    });
    PassOutcome { changed: !notes.is_empty(), notes }
}

/// wave-schedule: antichains in dependency order — annotators first (the
/// Enrich node waits on their control links), then Enrich, then assert
/// nodes level by tag dependency, then Consolidate, then every action.
fn wave_schedule(plan: &mut PhysicalPlan) -> PassOutcome {
    let mut waves: Vec<Vec<String>> = Vec::new();
    if !plan.annotators.is_empty() {
        waves.push(plan.annotators.iter().map(|a| a.name.clone()).collect());
    }
    waves.push(vec![ENRICH_NODE.to_string()]);

    // assertion levels: 0 = fed by Enrich alone, else 1 + max(producers)
    let mut levels: Vec<(usize, &PhysicalAssert)> = Vec::new();
    for assert in &plan.assertions {
        let level = assert
            .depends_on
            .iter()
            .filter_map(|dep| levels.iter().find(|(_, a)| a.node.name == *dep).map(|(l, _)| l + 1))
            .max()
            .unwrap_or(0);
        levels.push((level, assert));
    }
    let max_level = levels.iter().map(|(l, _)| *l).max();
    if let Some(max_level) = max_level {
        for level in 0..=max_level {
            waves.push(
                levels
                    .iter()
                    .filter(|(l, _)| *l == level)
                    .map(|(_, a)| a.node.name.clone())
                    .collect(),
            );
        }
    }
    waves.push(vec![CONSOLIDATE_NODE.to_string()]);
    if !plan.actions.is_empty() {
        waves.push(plan.actions.iter().map(|a| a.name.clone()).collect());
    }
    plan.waves = waves;
    PassOutcome { changed: true, notes: vec![format!("{} wave(s)", plan.waves.len())] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{
        ActKind, ActNode, AnnotateNode, AssertNode, EnrichNode, LogicalNode, TagKind,
    };
    use qurator_rdf::term::Iri;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://example.org/ont#{s}"))
    }

    fn annotate(name: &str, repo: &str, persistent: bool, provides: &[&str]) -> LogicalNode {
        LogicalNode::Annotate(AnnotateNode {
            name: name.into(),
            service_type: iri("A"),
            repository: repo.into(),
            persistent,
            provides: provides.iter().map(|p| iri(p)).collect(),
        })
    }

    fn assert_node(name: &str, tag: &str, bindings: Vec<(&str, Binding)>) -> LogicalNode {
        LogicalNode::Assert(AssertNode {
            name: name.into(),
            service_type: iri("QA"),
            tag: tag.into(),
            tag_kind: TagKind::Score,
            labels: Vec::new(),
            bindings: bindings.into_iter().map(|(v, b)| (v.to_string(), b)).collect(),
        })
    }

    fn base_plan() -> LogicalPlan {
        LogicalPlan {
            view: "t".into(),
            nodes: vec![
                annotate("ann", "cache", false, &["X", "Y"]),
                LogicalNode::Enrich(EnrichNode {
                    fetches: vec![(iri("X"), "cache".into()), (iri("Y"), "cache".into())],
                }),
                assert_node("qa1", "T1", vec![("x", Binding::Evidence(iri("X")))]),
                assert_node("qa2", "T2", vec![("t", Binding::Tag("T1".into()))]),
                LogicalNode::Consolidate,
                LogicalNode::Act(ActNode {
                    name: "keep".into(),
                    kind: ActKind::Filter { condition: "T2 > 0".into() },
                }),
            ],
        }
    }

    #[test]
    fn fusion_groups_same_repository_under_one_access() {
        let plan = lower(&base_plan(), &PlanConfig::default()).unwrap();
        assert_eq!(
            plan.enrich.len(),
            1,
            "two fetches from one repository group: {:?}",
            plan.enrich
        );
        assert_eq!(plan.enrich[0].evidence, vec![iri("X"), iri("Y")]);
        assert_eq!(plan.fetch_count(), 2);
    }

    #[test]
    fn no_opt_groups_like_the_optimized_plan() {
        let optimized = lower(&base_plan(), &PlanConfig::default()).unwrap();
        let plan = lower(&base_plan(), &PlanConfig { optimize: false }).unwrap();
        assert_eq!(plan.enrich, optimized.enrich, "grouping is lowering, not a pass");
        assert_eq!(plan.passes.iter().map(|p| p.pass).collect::<Vec<_>>(), vec!["wave-schedule"]);
        assert_eq!(
            optimized.passes.iter().map(|p| p.pass).collect::<Vec<_>>(),
            vec!["dead-node-elim", "wave-schedule"]
        );
    }

    #[test]
    fn fusion_preserves_first_fetch_repository_order() {
        let mut logical = base_plan();
        logical.nodes[1] = LogicalNode::Enrich(EnrichNode {
            fetches: vec![
                (iri("X"), "beta".into()),
                (iri("Y"), "alpha".into()),
                (iri("Z"), "beta".into()),
            ],
        });
        let plan = lower(&logical, &PlanConfig::default()).unwrap();
        let repos: Vec<&str> = plan.enrich.iter().map(|g| g.repository.as_str()).collect();
        assert_eq!(repos, vec!["beta", "alpha"]);
        assert_eq!(plan.enrich[0].evidence, vec![iri("X"), iri("Z")]);
    }

    #[test]
    fn volatile_unread_annotators_are_eliminated_persistent_kept() {
        let mut logical = base_plan();
        logical.nodes.insert(1, annotate("scratch", "tmp", false, &["Z"]));
        logical.nodes.insert(2, annotate("archive", "vault", true, &["W"]));
        let plan = lower(&logical, &PlanConfig::default()).unwrap();
        let names: Vec<&str> = plan.annotators.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["ann", "archive"], "volatile unread writer dropped");
        // persistence facts survive elimination
        assert!(!plan.repository_persistent("tmp"));
        assert!(plan.repository_persistent("vault"));
        let elim = plan.passes.iter().find(|p| p.pass == "dead-node-elim").unwrap();
        assert!(elim.changed);
        assert!(elim.notes[0].contains("scratch"));
        // the unoptimized plan keeps the dead node
        let raw = lower(&logical, &PlanConfig { optimize: false }).unwrap();
        assert_eq!(raw.annotators.len(), 3);
    }

    #[test]
    fn wave_schedule_levels_tag_dependencies() {
        let plan = lower(&base_plan(), &PlanConfig::default()).unwrap();
        assert_eq!(
            plan.waves,
            vec![
                vec!["ann".to_string()],
                vec![ENRICH_NODE.to_string()],
                vec!["qa1".to_string()],
                vec!["qa2".to_string()],
                vec![CONSOLIDATE_NODE.to_string()],
                vec!["keep".to_string()],
            ]
        );
        assert_eq!(plan.assertions[1].depends_on, vec!["qa1".to_string()]);
    }

    #[test]
    fn missing_tag_producer_is_a_plan_error() {
        let mut logical = base_plan();
        logical.nodes[2] = assert_node("qa1", "T1", vec![("t", Binding::Tag("Ghost".into()))]);
        assert!(lower(&logical, &PlanConfig::default()).is_err());
    }
}
