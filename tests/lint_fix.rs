//! Properties behind `qv check --fix`: applying machine-applicable
//! suggestions must *converge* (a fixed view re-lints with no
//! machine-applicable suggestions left) and must *preserve semantics*
//! for dead-code deletions (every group the fixer removes was provably
//! empty, and the surviving groups keep exactly the same members and
//! `why(item)` decision ledgers).
//!
//! Views are generated over the stock proteomics vocabulary like
//! `lint_property.rs`, then deliberately seeded with the faults the
//! fixer repairs: a splitter group that is dead under the upstream
//! classification domain (QV025), a foreign label in an `in` list
//! (QV021) and a cross-repository `repositoryRef` (QV024).

use proptest::prelude::*;
use qurator::prelude::*;
use qurator::spec::{ActionDecl, ActionKind, AnnotatorDecl, AssertionDecl, TagKind, VarDecl};
use qurator::xmlio;
use qurator_qvlint::{fix::apply_machine_fixes, Applicability};
use qurator_rdf::lsid::LsidAuthority;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

fn dataset() -> &'static DataSet {
    static DATA: OnceLock<DataSet> = OnceLock::new();
    DATA.get_or_init(|| {
        let authority = LsidAuthority::new("example.org", "hit");
        let mut ds = DataSet::new();
        for i in 0..16i64 {
            let item = authority.term(format!("P{i:02}"));
            ds.push(
                item,
                [
                    ("hitRatio", EvidenceValue::from(0.05 * i as f64)),
                    ("massCoverage", EvidenceValue::from(0.9 - 0.04 * i as f64)),
                    ("peptidesCount", EvidenceValue::from(3 + (i * 7) % 11)),
                ],
            );
        }
        ds
    })
}

fn engine() -> QualityEngine {
    QualityEngine::with_proteomics_defaults().expect("stock engine")
}

const OPS: [&str; 4] = [">", ">=", "<", "<="];
const LABELS: [&str; 3] = ["q:low", "q:mid", "q:high"];

fn numeric_clause(tag: &str, op: u8, threshold: i8) -> String {
    format!("{tag} {} {}", OPS[op as usize % OPS.len()], f64::from(threshold) / 8.0)
}

fn class_clause(mask: u8) -> String {
    let mask = if mask.is_multiple_of(8) { 1 } else { mask % 8 };
    let chosen: Vec<&str> =
        LABELS.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, l)| *l).collect();
    format!("ScoreClass in {}", chosen.join(", "))
}

/// The full HR_MC → ScoreClass chain with a splitter over the produced
/// tags. `seed_dead` appends a group that can never match under the
/// classifier's label domain; `seed_foreign` poisons the first class
/// clause with a label outside the model; `seed_cross_repo` points the
/// HR assertion at a repository no annotator writes.
fn build_view(
    groups: Vec<String>,
    seed_dead: bool,
    seed_foreign: bool,
    seed_cross_repo: bool,
) -> QualityViewSpec {
    let mut groups = groups;
    if seed_foreign {
        if let Some(g) = groups.iter_mut().find(|g| g.contains("ScoreClass in")) {
            g.push_str(", q:banana");
        }
    }
    if seed_dead {
        groups.push("not (ScoreClass in q:low, q:mid, q:high)".to_string());
    }
    QualityViewSpec {
        name: "generated".into(),
        annotators: vec![AnnotatorDecl {
            service_name: "imprint".into(),
            service_type: "q:ImprintOutputAnnotation".into(),
            repository_ref: "cache".into(),
            persistent: false,
            variables: vec![
                VarDecl::evidence("q:HitRatio"),
                VarDecl::evidence("q:MassCoverage"),
                VarDecl::evidence("q:PeptidesCount"),
            ],
        }],
        assertions: vec![
            AssertionDecl {
                service_name: "hr".into(),
                service_type: "q:UniversalPIScore".into(),
                tag_name: "HR".into(),
                tag_kind: TagKind::Score,
                tag_sem_type: None,
                repository_ref: if seed_cross_repo { "archive".into() } else { "cache".into() },
                variables: vec![VarDecl::named("hitratio", "q:HitRatio")],
            },
            AssertionDecl {
                service_name: "score".into(),
                service_type: "q:UniversalPIScore2".into(),
                tag_name: "HR_MC".into(),
                tag_kind: TagKind::Score,
                tag_sem_type: None,
                repository_ref: "cache".into(),
                variables: vec![
                    VarDecl::named("coverage", "q:MassCoverage"),
                    VarDecl::named("hitratio", "q:HitRatio"),
                    VarDecl::named("peptidescount", "q:PeptidesCount"),
                ],
            },
            AssertionDecl {
                service_name: "classify".into(),
                service_type: "q:PIScoreClassifier".into(),
                tag_name: "ScoreClass".into(),
                tag_kind: TagKind::Class,
                tag_sem_type: Some("q:PIScoreClassification".into()),
                repository_ref: "cache".into(),
                variables: vec![VarDecl::named("score", "tag:HR_MC")],
            },
        ],
        actions: vec![ActionDecl {
            name: "act".into(),
            kind: ActionKind::Split {
                groups: groups.into_iter().enumerate().map(|(i, c)| (format!("g{i}"), c)).collect(),
            },
        }],
    }
}

/// The `qv check --fix` loop over in-memory source: check, apply every
/// machine-applicable suggestion, re-parse, repeat until a fixed point.
/// Returns the fixed source and the number of rounds that changed it.
fn fix_to_fixpoint(source: String) -> Result<(String, usize), String> {
    let mut source = source;
    for rounds in 0..8 {
        let root = qurator_xml::parse(&source).map_err(|e| format!("fix broke the XML: {e}"))?;
        let spec = xmlio::element_to_spec(&root).map_err(|e| format!("fix broke the spec: {e}"))?;
        let diags = engine().check(&spec, Some(&root));
        let report = apply_machine_fixes(&source, &diags);
        if !report.changed() {
            return Ok((source, rounds));
        }
        source = report.fixed;
    }
    Err("fix loop did not converge within 8 rounds".into())
}

fn machine_applicable_count(source: &str) -> usize {
    let root = qurator_xml::parse(source).expect("fixed source parses");
    let spec = xmlio::element_to_spec(&root).expect("fixed source is a view");
    engine()
        .check(&spec, Some(&root))
        .iter()
        .filter(|d| {
            d.suggestion
                .as_ref()
                .is_some_and(|s| s.applicability == Applicability::MachineApplicable)
        })
        .count()
}

/// group name → sorted member items, from a fresh interpreted run.
fn outcome_groups(spec: &QualityViewSpec) -> BTreeMap<String, BTreeSet<String>> {
    let engine = engine();
    let outcome = engine.execute_view(spec, dataset()).expect("view enacts");
    outcome
        .groups
        .iter()
        .map(|g| (g.name.clone(), g.dataset.items().iter().map(|t| t.to_string()).collect()))
        .collect()
}

/// item → sorted (group, outcome, condition) action records plus the
/// evidence/assertion projections, from a provenance-enabled run.
type LedgerProjection = BTreeMap<String, (Vec<(String, String)>, Vec<(String, String, String)>)>;

fn ledger_projection(
    spec: &QualityViewSpec,
    keep_group: impl Fn(&str) -> bool,
) -> LedgerProjection {
    let engine = engine();
    engine.set_provenance_enabled(true);
    engine.execute_view(spec, dataset()).expect("view enacts");
    let mut out = BTreeMap::new();
    for item in engine.ledger().items() {
        let trace = engine.why(&item).expect("ledger listed the item");
        let mut facts: Vec<(String, String)> = trace
            .evidence
            .iter()
            .map(|e| (e.property.to_string(), e.value.to_string()))
            .chain(trace.assertions.iter().map(|a| (a.property.to_string(), a.value.to_string())))
            .collect();
        facts.sort();
        let mut actions: Vec<(String, String, String)> = trace
            .actions
            .iter()
            .filter(|a| keep_group(&a.group))
            .map(|a| {
                (
                    a.group.to_string(),
                    a.outcome.to_string(),
                    a.condition.as_deref().unwrap_or_default().to_string(),
                )
            })
            .collect();
        actions.sort();
        out.insert(item, (facts, actions));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// `--fix` converges: after the apply/re-lint loop reaches a fixed
    /// point, the view carries no machine-applicable suggestion, and the
    /// result still parses as a quality view.
    #[test]
    fn machine_fixes_converge(
        ops in proptest::array::uniform2(0u8..4),
        thresholds in proptest::array::uniform2(-20i8..20),
        label_mask in 0u8..8,
        seed_dead in any::<bool>(),
        seed_foreign in any::<bool>(),
        seed_cross_repo in any::<bool>(),
    ) {
        let groups = vec![
            numeric_clause("HR", ops[0], thresholds[0]),
            numeric_clause("HR_MC", ops[1], thresholds[1]),
            class_clause(label_mask),
        ];
        let spec = build_view(groups, seed_dead, seed_foreign, seed_cross_repo);
        let source = qurator_xml::write_document(&xmlio::spec_to_element(&spec));

        let result = fix_to_fixpoint(source);
        prop_assert!(result.is_ok(), "convergence failure: {}", result.unwrap_err());
        let (fixed, rounds) = result.unwrap();
        prop_assert_eq!(
            machine_applicable_count(&fixed),
            0,
            "fixed view still carries machine-applicable suggestions:\n{}",
            fixed
        );
        // every seeded fault is mechanical, so seeding must cause work
        if seed_dead || seed_foreign || seed_cross_repo {
            prop_assert!(rounds > 0, "seeded faults produced no fixes:\n{}", fixed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Dead-code deletions preserve semantics: the removed groups were
    /// empty on real data, surviving groups keep the same members, and
    /// the per-item `why(item)` ledgers agree once the deleted groups'
    /// records are set aside.
    #[test]
    fn dead_group_fixes_preserve_semantics(
        ops in proptest::array::uniform2(0u8..4),
        thresholds in proptest::array::uniform2(-20i8..20),
        label_mask in 0u8..8,
    ) {
        let groups = vec![
            numeric_clause("HR", ops[0], thresholds[0]),
            numeric_clause("HR_MC", ops[1], thresholds[1]),
            class_clause(label_mask),
        ];
        let spec = build_view(groups, true, false, false);
        let diags = engine().check(&spec, None);
        if qurator_qvlint::has_errors(&diags) {
            continue; // rejected views are lint_property's concern
        }
        let source = qurator_xml::write_document(&xmlio::spec_to_element(&spec));
        let result = fix_to_fixpoint(source);
        prop_assert!(result.is_ok(), "convergence failure: {}", result.unwrap_err());
        let (fixed, rounds) = result.unwrap();
        prop_assert!(rounds > 0, "the seeded dead group was not fixed");
        let fixed_spec =
            xmlio::element_to_spec(&qurator_xml::parse(&fixed).expect("fixed source parses"))
                .expect("fixed source is a view");

        let before = outcome_groups(&spec);
        let after = outcome_groups(&fixed_spec);
        let kept: BTreeSet<&String> = after.keys().collect();
        for (group, members) in &before {
            if kept.contains(group) {
                prop_assert_eq!(
                    members,
                    &after[group],
                    "surviving group {} changed membership", group
                );
            } else {
                prop_assert!(
                    members.is_empty(),
                    "fixer deleted group {} which held {} item(s)", group, members.len()
                );
            }
        }
        prop_assert!(
            kept.iter().all(|g| before.contains_key(g.as_str())),
            "fixer invented a group"
        );

        let keep = |g: &str| after.contains_key(g);
        let before_ledger = ledger_projection(&spec, keep);
        let after_ledger = ledger_projection(&fixed_spec, keep);
        prop_assert_eq!(before_ledger, after_ledger, "why(item) ledgers diverged");
    }
}

// ---------------------------------------------------------------------------
// Deterministic output (the byte-stability regression gate)
// ---------------------------------------------------------------------------

/// `qv check --format json` must be byte-stable run to run, and the
/// diagnostic order must follow (line, col, code) so downstream diffs
/// of CI output never churn.
#[test]
fn json_output_is_byte_stable_and_ordered() {
    let source =
        std::fs::read_to_string("tests/lint_corpus/dataflow_multi.qv").expect("corpus fixture");
    let render = || {
        let root = qurator_xml::parse(&source).expect("fixture parses");
        let spec = xmlio::element_to_spec(&root).expect("fixture is a view");
        let diags = engine().check(&spec, Some(&root));
        (qurator_qvlint::render::render_json(&diags, "dataflow_multi.qv"), diags)
    };
    let (first, diags) = render();
    let (second, _) = render();
    assert_eq!(first, second, "render_json is not byte-stable across runs");
    assert!(diags.len() >= 4, "fixture should produce several findings");
    let keys: Vec<(u32, u32, &str)> = diags
        .iter()
        .map(|d| {
            let s = d.span.map(|s| (s.line, s.col)).unwrap_or((u32::MAX, u32::MAX));
            (s.0, s.1, d.code)
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics are not ordered by (line, col, code)");
}
