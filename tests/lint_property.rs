//! The soundness property behind the `qv check` CI gate: any view the
//! analyzer accepts (zero error-severity diagnostics from the full
//! lint + bindings + workflow pipeline) must also compile into a
//! workflow and enact end-to-end without an execution failure. In other
//! words, `qv check` is allowed to be strict, but a green check must
//! never be followed by a red run.
//!
//! Views are generated over the stock proteomics vocabulary: a random
//! subset of the three assertion chains (HR, HR_MC, ScoreClass), random
//! comparison operators and thresholds, and a random filter-or-splitter
//! action over the produced tags. The generator is *mostly* correct by
//! construction, but splitter-group interplay, threshold choices and
//! tag usage still exercise the QV019/QV022/QV023 analyses; any case
//! the analyzer rejects is skipped, and the rejection itself is
//! asserted to carry error diagnostics (never an empty verdict).

use proptest::prelude::*;
use qurator::prelude::*;
use qurator::spec::{ActionDecl, ActionKind, AnnotatorDecl, AssertionDecl, TagKind, VarDecl};
use qurator_qvlint::Severity;
use qurator_rdf::lsid::LsidAuthority;
use std::sync::OnceLock;

/// A small synthetic Imprint result set: enough spread in the evidence
/// values that z-scores land on both sides of every threshold.
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

/// A single comparison over a numeric tag. Thresholds are centred on 0
/// because the stock assertions emit z-scores.
fn numeric_clause(tag: &str, op: u8, threshold: i8) -> String {
    format!("{tag} {} {}", OPS[op as usize % OPS.len()], f64::from(threshold) / 8.0)
}

/// A membership test over the classification tag; `mask` selects a
/// non-empty subset of the model's labels.
fn class_clause(mask: u8) -> String {
    let mask = if mask.is_multiple_of(8) { 1 } else { mask % 8 };
    let chosen: Vec<&str> =
        LABELS.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, l)| *l).collect();
    format!("ScoreClass in {}", chosen.join(", "))
}

struct Shape {
    use_score2: bool,
    use_classifier: bool,
}

/// Builds a coherent view for the chosen shape: the annotator provides
/// exactly the evidence the assertions consume, and the condition reads
/// every produced tag (so the generator never trips the dead-evidence
/// and dead-tag analyses by accident — those have their own corpus
/// fixtures).
fn build_view(shape: &Shape, conditions: Vec<String>, split: bool) -> QualityViewSpec {
    let mut evidence = vec![VarDecl::evidence("q:HitRatio")];
    let mut assertions = vec![AssertionDecl {
        service_name: "hr".into(),
        service_type: "q:UniversalPIScore".into(),
        tag_name: "HR".into(),
        tag_kind: TagKind::Score,
        tag_sem_type: None,
        repository_ref: "cache".into(),
        variables: vec![VarDecl::named("hitratio", "q:HitRatio")],
    }];
    if shape.use_score2 {
        evidence.push(VarDecl::evidence("q:MassCoverage"));
        evidence.push(VarDecl::evidence("q:PeptidesCount"));
        assertions.push(AssertionDecl {
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
        });
        if shape.use_classifier {
            assertions.push(AssertionDecl {
                service_name: "classify".into(),
                service_type: "q:PIScoreClassifier".into(),
                tag_name: "ScoreClass".into(),
                tag_kind: TagKind::Class,
                tag_sem_type: Some("q:PIScoreClassification".into()),
                repository_ref: "cache".into(),
                variables: vec![VarDecl::named("score", "tag:HR_MC")],
            });
        }
    }
    let kind = if split && conditions.len() >= 2 {
        ActionKind::Split {
            groups: conditions.into_iter().enumerate().map(|(i, c)| (format!("g{i}"), c)).collect(),
        }
    } else {
        ActionKind::Filter { condition: conditions.join(" and ") }
    };
    QualityViewSpec {
        name: "generated".into(),
        annotators: vec![AnnotatorDecl {
            service_name: "imprint".into(),
            service_type: "q:ImprintOutputAnnotation".into(),
            repository_ref: "cache".into(),
            persistent: false,
            variables: evidence,
        }],
        assertions,
        actions: vec![ActionDecl { name: "act".into(), kind }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Accepted views compile and enact; rejected views always explain
    /// themselves with at least one error diagnostic.
    #[test]
    fn checked_views_enact_without_execution_errors(
        use_score2 in any::<bool>(),
        use_classifier in any::<bool>(),
        split in any::<bool>(),
        ops in proptest::array::uniform3(0u8..4),
        thresholds in proptest::array::uniform3(-20i8..20),
        label_mask in 0u8..8,
    ) {
        let shape = Shape { use_score2, use_classifier };
        let mut conditions = vec![numeric_clause("HR", ops[0], thresholds[0])];
        if shape.use_score2 {
            conditions.push(numeric_clause("HR_MC", ops[1], thresholds[1]));
            if shape.use_classifier {
                conditions.push(class_clause(label_mask));
            }
        }
        // A second clause over an existing tag makes splitter groups
        // genuinely different and occasionally subsumed/equivalent.
        conditions.push(numeric_clause("HR", ops[2], thresholds[2]));
        let spec = build_view(&shape, conditions, split);

        let engine = engine();
        let diags = engine.check(&spec, None);
        if qurator_qvlint::has_errors(&diags) {
            // Rejections must be explained: at least one error diagnostic
            // with a registered code.
            prop_assert!(
                diags.iter().any(|d| d.severity == Severity::Error),
                "has_errors with no error diagnostic: {diags:?}"
            );
        } else {
            // The property: a green check means the view compiles …
            let workflow = engine.compile(&spec);
            prop_assert!(workflow.is_ok(), "accepted view failed to compile: {workflow:?}");
            // … and enacts with no execution (or any other) failure.
            let outcome = engine.execute_view(&spec, dataset());
            prop_assert!(outcome.is_ok(), "accepted view failed to enact: {:?}", outcome.err());
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-equivalence property (the optimizer-soundness gate)
// ---------------------------------------------------------------------------

/// A span-free, order-insensitive projection of one item's decision
/// trace: evidence (property, value, source), assertions (tag, value,
/// producing service) and actions (group, outcome, condition). Span ids
/// differ between runs by construction, so they are dropped; everything
/// else must agree.
type TraceProjection = (
    Vec<(String, String, Option<String>)>,
    Vec<(String, String, Option<String>)>,
    Vec<(String, String, Option<String>)>,
);

fn project_ledger(engine: &QualityEngine) -> std::collections::BTreeMap<String, TraceProjection> {
    engine
        .ledger()
        .items()
        .into_iter()
        .map(|item| {
            let trace = engine.why(&item).expect("ledger listed the item");
            let mut evidence: Vec<_> = trace
                .evidence
                .iter()
                .map(|e| {
                    (
                        e.property.to_string(),
                        e.value.to_string(),
                        e.source.as_ref().map(|s| s.to_string()),
                    )
                })
                .collect();
            evidence.sort();
            let mut assertions: Vec<_> = trace
                .assertions
                .iter()
                .map(|a| {
                    (
                        a.property.to_string(),
                        a.value.to_string(),
                        a.assertion.as_ref().map(|s| s.to_string()),
                    )
                })
                .collect();
            assertions.sort();
            let mut actions: Vec<_> = trace
                .actions
                .iter()
                .map(|a| {
                    (
                        a.group.to_string(),
                        a.outcome.to_string(),
                        a.condition.as_ref().map(|c| c.to_string()),
                    )
                })
                .collect();
            actions.sort();
            (item, (evidence, assertions, actions))
        })
        .collect()
}

/// Runs the direct interpreter on a fresh engine under `config`, with the
/// decision ledger on.
fn run_interpreted(
    spec: &QualityViewSpec,
    config: &qurator_plan::PlanConfig,
) -> (qurator::engine::ActionOutcome, std::collections::BTreeMap<String, TraceProjection>) {
    let engine = engine();
    engine.set_provenance_enabled(true);
    let outcome = engine.execute_view_with(spec, dataset(), config).expect("accepted view runs");
    let ledger = project_ledger(&engine);
    (outcome, ledger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// For every view the analyzer accepts, three executions must agree:
    /// the interpreter over the optimized plan, the interpreter over the
    /// `--no-opt` baseline plan, and the compiled workflow on the
    /// wave-parallel enactor. All three agree on the [`ActionOutcome`]
    /// (groups, members, maps); the two interpreter runs also agree on
    /// the per-item `why(item)` decision ledgers, evidence sources
    /// included.
    #[test]
    fn optimized_baseline_and_compiled_executions_agree(
        use_score2 in any::<bool>(),
        use_classifier in any::<bool>(),
        split in any::<bool>(),
        ops in proptest::array::uniform3(0u8..4),
        thresholds in proptest::array::uniform3(-20i8..20),
        label_mask in 0u8..8,
    ) {
        let shape = Shape { use_score2, use_classifier };
        let mut conditions = vec![numeric_clause("HR", ops[0], thresholds[0])];
        if shape.use_score2 {
            conditions.push(numeric_clause("HR_MC", ops[1], thresholds[1]));
            if shape.use_classifier {
                conditions.push(class_clause(label_mask));
            }
        }
        conditions.push(numeric_clause("HR", ops[2], thresholds[2]));
        let spec = build_view(&shape, conditions, split);

        if qurator_qvlint::has_errors(&engine().check(&spec, None)) {
            continue; // rejected views are covered by the property above
        }

        let optimize = qurator_plan::PlanConfig { optimize: true };
        let baseline = qurator_plan::PlanConfig { optimize: false };

        // interpreter, optimized plan vs --no-opt baseline: everything
        // must match, including evidence sources
        let (opt_outcome, opt_ledger) = run_interpreted(&spec, &optimize);
        let (raw_outcome, raw_ledger) = run_interpreted(&spec, &baseline);
        prop_assert_eq!(&opt_outcome, &raw_outcome, "optimizer changed the outcome");
        prop_assert_eq!(&opt_ledger, &raw_ledger, "optimizer changed the decision ledger");

        // the compiled workflow, enacted wave-parallel: same outcome
        let compiled_engine = engine();
        let workflow = compiled_engine.compile(&spec).expect("accepted view compiles");
        let (compiled_outcome, _report) =
            qurator::compile::enact(&workflow, &spec, dataset()).expect("accepted view enacts");
        prop_assert_eq!(&opt_outcome, &compiled_outcome, "paths disagree on the outcome");
    }
}
