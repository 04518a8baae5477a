//! The optimizing pass pipeline: [`lower`] turns a [`LogicalPlan`] into
//! a [`PhysicalPlan`] through five explicit passes.
//!
//! | pass                   | effect                                           |
//! |------------------------|--------------------------------------------------|
//! | `dead-node-elim`       | drop volatile annotators nobody reads            |
//! | `enrich-fusion`        | one repository access per repository, not per    |
//! |                        | evidence type (deduplicated, order-preserving)   |
//! | `cache-routing`        | mark accesses served by in-view annotations      |
//! |                        | (read only by EXPLAIN: the executor still reads  |
//! |                        | the store; acting on it is a ROADMAP.md item)    |
//! | `action-short-circuit` | constant-fold variable-free action conditions    |
//! | `wave-schedule`        | antichain schedule for the parallel enactor      |
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
use crate::physical::{
    EnrichGroup, PassReport, PhysicalAct, PhysicalAssert, PhysicalPlan, PlanConfig, ShortCircuit,
};
use crate::{PlanError, Result};
use qurator_telemetry::stats::StatsProfile;
use std::time::Instant;

/// Lowers a logical plan to a physical plan, running the optimizing
/// passes unless `config.optimize` is off (wave scheduling always runs —
/// it is required output, not an optimization).
pub fn lower(logical: &LogicalPlan, config: &PlanConfig) -> Result<PhysicalPlan> {
    lower_with_profile(logical, config, None)
}

/// Like [`lower`], but additionally consults a persisted observed-stats
/// profile (decayed per-node aggregates from previous runs of the same
/// view, see [`StatsProfile`]). When a profile is supplied, a
/// `stats-profile` pass runs after the optimizing passes and installs
/// the observed output cardinalities on
/// [`PhysicalPlan::observed_rows`] — the hook through which the cost
/// model reads real cardinalities instead of guessing. With `None` this
/// is exactly [`lower`], byte-for-byte.
pub fn lower_with_profile(
    logical: &LogicalPlan,
    config: &PlanConfig,
    profile: Option<&StatsProfile>,
) -> Result<PhysicalPlan> {
    let enrich = logical.enrich().cloned().unwrap_or_default();
    let mut plan = PhysicalPlan {
        view: logical.view.clone(),
        optimized: config.optimize,
        annotators: logical.annotators().cloned().collect(),
        persistence: logical.repository_persistence(),
        // unoptimized baseline: one access per fetch entry, in order
        enrich: enrich
            .fetches
            .iter()
            .map(|(evidence, repository)| EnrichGroup {
                repository: repository.clone(),
                evidence: vec![evidence.clone()],
                cache_local: false,
            })
            .collect(),
        assertions: resolve_dependencies(logical)?,
        actions: logical
            .actions()
            .map(|node| PhysicalAct {
                short_circuit: vec![None; node.conditions().len()],
                node: node.clone(),
            })
            .collect(),
        waves: Vec::new(),
        passes: Vec::new(),
        observed_rows: Vec::new(),
    };

    if config.optimize {
        run_pass(&mut plan, "dead-node-elim", dead_node_elim);
        run_pass(&mut plan, "enrich-fusion", enrich_fusion);
        run_pass(&mut plan, "cache-routing", cache_routing);
        run_pass(&mut plan, "action-short-circuit", action_short_circuit);
    }
    if let Some(profile) = profile {
        run_pass(&mut plan, "stats-profile", |plan| stats_profile(plan, profile));
    }
    run_pass(&mut plan, "wave-schedule", wave_schedule);
    Ok(plan)
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

/// enrich-fusion: group accesses by repository *name* in first-fetch
/// order and deduplicate evidence types within each group, so a
/// repository listed under several evidence IRIs is answered by one
/// grouped bulk lookup. Order preservation keeps merge semantics (later
/// fetches win conflicts) identical to the unfused plan — validation
/// guarantees each evidence type appears at most once, so regrouping by
/// repository never reorders a conflicting write.
fn enrich_fusion(plan: &mut PhysicalPlan) -> PassOutcome {
    let before = plan.enrich.len();
    let mut fused: Vec<EnrichGroup> = Vec::new();
    for access in plan.enrich.drain(..) {
        match fused.iter_mut().find(|g| g.repository == access.repository) {
            Some(group) => {
                for evidence in access.evidence {
                    if !group.evidence.contains(&evidence) {
                        group.evidence.push(evidence);
                    }
                }
            }
            None => fused.push(access),
        }
    }
    let after = fused.len();
    plan.enrich = fused;
    PassOutcome {
        changed: after != before,
        notes: if before == after {
            Vec::new()
        } else {
            vec![format!("{before} repository access(es) fused into {after} group(s)")]
        },
    }
}

/// cache-routing: an access whose repository is written by a surviving
/// annotator in this plan is served entirely by annotations computed
/// earlier in the same execution — the executor can treat it as a local
/// cache read (and the EXPLAIN output says so).
fn cache_routing(plan: &mut PhysicalPlan) -> PassOutcome {
    let mut notes = Vec::new();
    for group in &mut plan.enrich {
        let local = plan.annotators.iter().any(|a| a.repository == group.repository);
        if local && !group.cache_local {
            group.cache_local = true;
            notes.push(format!(
                "repository {:?} is served by in-view annotations",
                group.repository
            ));
        }
    }
    PassOutcome { changed: !notes.is_empty(), notes }
}

/// action-short-circuit: a condition that references no variables has
/// the same outcome for every item; fold it at plan time so the executor
/// skips per-item environment construction and evaluation. Conditions
/// that fail to parse or evaluate are left alone — the executor reports
/// those errors with full context.
fn action_short_circuit(plan: &mut PhysicalPlan) -> PassOutcome {
    let mut notes = Vec::new();
    let empty = qurator_expr::Env::new();
    for act in &mut plan.actions {
        let conditions = act.node.conditions();
        for (slot, (label, source)) in conditions.iter().enumerate() {
            let Ok(expr) = qurator_expr::parse(source) else { continue };
            if !expr.variables().is_empty() {
                continue;
            }
            let Ok(value) = expr.eval(&empty) else { continue };
            let verdict = if value.as_accepted() {
                ShortCircuit::AlwaysAccept
            } else {
                ShortCircuit::AlwaysReject
            };
            act.short_circuit[slot] = Some(verdict);
            notes.push(format!(
                "condition {source:?} of {label:?} always {}",
                match verdict {
                    ShortCircuit::AlwaysAccept => "accepts",
                    ShortCircuit::AlwaysReject => "rejects",
                }
            ));
        }
    }
    PassOutcome { changed: !notes.is_empty(), notes }
}

/// stats-profile: copy the decayed observed output cardinalities of
/// previous runs onto the plan, in process order, for nodes the profile
/// has seen. Purely informational today (EXPLAIN shows the figures);
/// the cost model reads `observed_rows` when it needs real
/// cardinalities.
fn stats_profile(plan: &mut PhysicalPlan, profile: &StatsProfile) -> PassOutcome {
    let names: Vec<String> = plan.process_order().iter().map(|s| s.to_string()).collect();
    let mut notes =
        vec![format!("profile: {} run(s) observed, alpha {}", profile.runs, profile.alpha)];
    for name in names {
        let Some(node) = profile.node(&name) else { continue };
        let rows = node.rows_out.round() as u64;
        notes.push(format!("{name}: ~{rows} rows out, ~{} evidence", node.evidence.round() as u64));
        plan.observed_rows.push((name, rows));
    }
    PassOutcome { changed: !plan.observed_rows.is_empty(), notes }
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
        waves.push(plan.actions.iter().map(|a| a.node.name.clone()).collect());
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
        assert_eq!(plan.enrich.len(), 1, "two fetches from one repository fuse: {:?}", plan.enrich);
        assert_eq!(plan.enrich[0].evidence, vec![iri("X"), iri("Y")]);
        assert!(plan.enrich[0].cache_local, "written by the in-plan annotator");
        assert_eq!(plan.fetch_count(), 2);
    }

    #[test]
    fn no_opt_keeps_one_access_per_fetch() {
        let plan = lower(&base_plan(), &PlanConfig { optimize: false }).unwrap();
        assert_eq!(plan.enrich.len(), 2);
        assert!(plan.enrich.iter().all(|g| !g.cache_local));
        assert_eq!(plan.passes.iter().map(|p| p.pass).collect::<Vec<_>>(), vec!["wave-schedule"]);
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
    fn constant_conditions_short_circuit() {
        let mut logical = base_plan();
        logical.nodes.push(LogicalNode::Act(ActNode {
            name: "triage".into(),
            kind: ActKind::Split {
                groups: vec![
                    ("all".into(), "true".into()),
                    ("none".into(), "1 > 2".into()),
                    ("some".into(), "T1 > 0".into()),
                ],
            },
        }));
        let plan = lower(&logical, &PlanConfig::default()).unwrap();
        assert_eq!(plan.actions[1].short_circuit.len(), 3);
        assert_eq!(plan.actions[1].short_circuit[0], Some(ShortCircuit::AlwaysAccept));
        assert_eq!(plan.actions[1].short_circuit[1], Some(ShortCircuit::AlwaysReject));
        assert_eq!(plan.actions[1].short_circuit[2], None);
        // the variable-bearing filter is untouched
        assert_eq!(plan.actions[0].short_circuit, vec![None]);
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
    fn stats_profile_installs_observed_rows() {
        use qurator_telemetry::stats::{view_key, NodeStats, RunStats, StatsProfile};

        let logical = base_plan();
        let baseline = lower(&logical, &PlanConfig::default()).unwrap();
        assert!(baseline.observed_rows.is_empty(), "no profile, no observed figures");

        let mut run = RunStats { view: "t".into(), run_id: None, items: 5, ..Default::default() };
        run.nodes.insert(
            "qa1".into(),
            NodeStats { calls: 1, rows_in: 5, rows_out: 5, evidence: 0, hits: 5, wall_ns: 10 },
        );
        run.nodes.insert(
            "keep".into(),
            NodeStats { calls: 1, rows_in: 5, rows_out: 3, evidence: 0, hits: 3, wall_ns: 10 },
        );
        let node_names = baseline.process_order();
        let mut profile = StatsProfile::new("t", view_key("t", node_names.iter().copied()));
        profile.observe(&run);

        let plan = lower_with_profile(&logical, &PlanConfig::default(), Some(&profile)).unwrap();
        assert_eq!(plan.observed_rows("qa1"), Some(5));
        assert_eq!(plan.observed_rows("keep"), Some(3));
        assert_eq!(plan.observed_rows("ann"), None, "profile never saw it");
        let pass = plan.passes.iter().find(|p| p.pass == "stats-profile").unwrap();
        assert!(pass.changed);
        assert!(pass.notes[0].contains("1 run(s) observed"));
        // the profile pass never perturbs anything the executors consume
        assert_eq!(plan.waves, baseline.waves);
        assert_eq!(plan.enrich, baseline.enrich);
        assert_eq!(plan.actions, baseline.actions);
    }

    #[test]
    fn missing_tag_producer_is_a_plan_error() {
        let mut logical = base_plan();
        logical.nodes[2] = assert_node("qa1", "T1", vec![("t", Binding::Tag("Ghost".into()))]);
        assert!(lower(&logical, &PlanConfig::default()).is_err());
    }
}
