//! Collect-all static analysis of quality-view specs (the QV0xx passes).
//!
//! [`analyze`] runs every check the old fail-fast validator performed plus
//! the view-level lints that need whole-spec context (dead evidence, dead
//! tags, shadowing, label misuse, unsatisfiable and subsumed conditions),
//! and returns *all* findings as [`Diagnostic`]s instead of stopping at
//! the first. When the spec was parsed from XML, passing the source
//! [`Element`] anchors each finding to a line/column in the document.
//!
//! `validate()` is a thin adapter over this module: it succeeds exactly
//! when no error-severity diagnostic is produced, and its `ValidatedView`
//! is assembled from the same resolution state the passes build.

use crate::spec::*;
use crate::validate::{BindingTarget, ValidatedView};
use qurator_expr::{check, BinaryOp, Expr, ExprType, TypeEnv, Value};
use qurator_ontology::IqModel;
use qurator_plan::{merge_node_name, CONSOLIDATE_NODE, ENRICH_NODE};
use qurator_qvlint::{intervals, Diagnostic, Span};
use qurator_rdf::term::Iri;
use qurator_services::ServiceRegistry;
use qurator_xml::Element;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The outcome of a full analysis run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Every finding, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// The resolved view — present exactly when no finding is an error.
    pub resolved: Option<ValidatedView>,
}

impl LintReport {
    /// True when any finding is an error.
    pub fn has_errors(&self) -> bool {
        qurator_qvlint::has_errors(&self.diagnostics)
    }
}

/// Source-position lookup over the parsed XML document. Every accessor
/// degrades to `None` when the spec was built programmatically.
struct Spans<'a> {
    root: Option<&'a Element>,
}

impl<'a> Spans<'a> {
    fn root_span(&self) -> Option<Span> {
        self.root.and_then(|r| r.span())
    }

    fn root_attr(&self, attr: &str) -> Option<Span> {
        self.root.and_then(|r| r.attr_span(attr)).or_else(|| self.root_span())
    }

    fn annotator(&self, i: usize) -> Option<&'a Element> {
        self.root?.children_named("Annotator").nth(i)
    }

    fn assertion(&self, i: usize) -> Option<&'a Element> {
        self.root?.children_named("QualityAssertion").nth(i)
    }

    fn action(&self, i: usize) -> Option<&'a Element> {
        self.root?.children_named("action").nth(i)
    }

    fn attr_of(el: Option<&Element>, attr: &str) -> Option<Span> {
        el.and_then(|e| e.attr_span(attr).or_else(|| e.span()))
    }

    fn annotator_attr(&self, i: usize, attr: &str) -> Option<Span> {
        Self::attr_of(self.annotator(i), attr)
    }

    fn assertion_attr(&self, i: usize, attr: &str) -> Option<Span> {
        Self::attr_of(self.assertion(i), attr)
    }

    fn action_attr(&self, i: usize, attr: &str) -> Option<Span> {
        Self::attr_of(self.action(i), attr)
    }

    fn var(el: Option<&Element>, j: usize) -> Option<Span> {
        let var = el?.child("variables")?.children_named("var").nth(j)?;
        var.attr_span("evidence").or_else(|| var.span())
    }

    fn annotator_var(&self, i: usize, j: usize) -> Option<Span> {
        Self::var(self.annotator(i), j).or_else(|| self.annotator(i).and_then(|e| e.span()))
    }

    fn assertion_var(&self, i: usize, j: usize) -> Option<Span> {
        Self::var(self.assertion(i), j).or_else(|| self.assertion(i).and_then(|e| e.span()))
    }

    /// The condition text of a filter action.
    fn filter_condition(&self, i: usize) -> Option<Span> {
        let condition = self.action(i)?.child("filter")?.child("condition")?;
        condition.text_span().or_else(|| condition.span())
    }

    fn group(&self, i: usize, g: usize) -> Option<&'a Element> {
        self.action(i)?.child("splitter")?.children_named("group").nth(g)
    }

    fn group_attr(&self, i: usize, g: usize, attr: &str) -> Option<Span> {
        Self::attr_of(self.group(i, g), attr)
    }

    /// The condition text of a splitter group.
    fn group_condition(&self, i: usize, g: usize) -> Option<Span> {
        let condition = self.group(i, g)?.child("condition")?;
        condition.text_span().or_else(|| condition.span())
    }
}

/// The local name of a symbol (`q:high` → `high`), matching the
/// evaluator's `symbol_text_eq` semantics.
fn local(symbol: &str) -> &str {
    symbol.rsplit(':').next().unwrap_or(symbol)
}

/// Harvests the spans the whole-plan dataflow pass needs, keyed the way
/// the plan IR names things. Every lookup degrades gracefully when the
/// spec was built programmatically (empty index → spanless findings, no
/// machine fixes).
pub(crate) fn span_index(
    source: Option<&Element>,
    spec: &QualityViewSpec,
    iq: &IqModel,
) -> qurator_qvlint::dataflow::SpanIndex {
    use qurator_qvlint::dataflow::{ConditionSpans, FetchSite};
    let mut index = qurator_qvlint::dataflow::SpanIndex::default();
    let Some(root) = source else { return index };
    index.root = root.span();

    for (decl, el) in spec.annotators.iter().zip(root.children_named("Annotator")) {
        if let Some(span) = el.span() {
            index.annotators.entry(decl.service_name.clone()).or_insert(span);
        }
    }

    for (decl, el) in spec.assertions.iter().zip(root.children_named("QualityAssertion")) {
        let Some(variables) = el.child("variables") else { continue };
        let repo = match variables.attr("repositoryRef") {
            Some(r) => r.to_string(),
            None => continue,
        };
        let repo_span = variables.attr_span("repositoryRef");
        for (var, vel) in decl.variables.iter().zip(variables.children_named("var")) {
            if var.evidence.starts_with("tag:") {
                continue;
            }
            let Ok(evidence) = iq.resolve(&var.evidence) else { continue };
            index.fetches.entry((evidence.to_string(), repo.clone())).or_insert(FetchSite {
                site: vel.attr_span("evidence").or_else(|| vel.span()),
                repository_attr: repo_span,
            });
        }
    }

    for (decl, el) in spec.actions.iter().zip(root.children_named("action")) {
        match &decl.kind {
            ActionKind::Filter { .. } => {
                let condition = el.child("filter").and_then(|f| f.child("condition"));
                index.conditions.insert(
                    (decl.name.clone(), decl.name.clone()),
                    ConditionSpans {
                        condition: condition.and_then(|c| c.text_span().or_else(|| c.span())),
                        element: None,
                    },
                );
            }
            ActionKind::Split { groups } => {
                let elements: Vec<&Element> = el
                    .child("splitter")
                    .map(|s| s.children_named("group").collect())
                    .unwrap_or_default();
                for ((group, _), gel) in groups.iter().zip(elements) {
                    let condition = gel.child("condition");
                    index.conditions.insert(
                        (decl.name.clone(), group.clone()),
                        ConditionSpans {
                            condition: condition.and_then(|c| c.text_span().or_else(|| c.span())),
                            element: gel.span(),
                        },
                    );
                }
            }
        }
    }
    index
}

/// Collects `(variable, symbol)` pairs where a classification tag is
/// compared against a label outside its model (QV021).
fn collect_label_misuse(
    expr: &Expr,
    models: &BTreeMap<String, Vec<String>>,
    out: &mut Vec<(String, String)>,
) {
    let check_pair = |a: &Expr, b: &Expr, out: &mut Vec<(String, String)>| {
        if let (Expr::Var(var), Expr::Const(Value::Symbol(s) | Value::Str(s))) = (a, b) {
            if let Some(labels) = models.get(var) {
                if !labels.iter().any(|l| l == local(s)) {
                    out.push((var.clone(), s.clone()));
                }
            }
        }
    };
    match expr {
        Expr::In(target, items) => {
            for item in items {
                check_pair(target, item, out);
                collect_label_misuse(item, models, out);
            }
            collect_label_misuse(target, models, out);
        }
        Expr::Binary(op, a, b) => {
            if matches!(op, BinaryOp::Eq | BinaryOp::Ne) {
                check_pair(a, b, out);
                check_pair(b, a, out);
            }
            collect_label_misuse(a, models, out);
            collect_label_misuse(b, models, out);
        }
        Expr::Unary(_, a) => collect_label_misuse(a, models, out),
        Expr::Const(_) | Expr::Var(_) => {}
    }
}

/// Rebuilds the expression with foreign labels dropped from `in` lists
/// over classified tags. Returns `None` when the prune would empty a
/// list, when nothing changed, or when misuse survives outside prunable
/// positions (`=`/`!=` comparisons) — those need a human.
fn prune_foreign_labels(expr: &Expr, models: &BTreeMap<String, Vec<String>>) -> Option<Expr> {
    fn walk(e: &Expr, models: &BTreeMap<String, Vec<String>>) -> Option<Expr> {
        match e {
            Expr::In(lhs, items) => {
                if let Expr::Var(var) = &**lhs {
                    if let Some(labels) = models.get(var) {
                        let kept: Vec<Expr> = items
                            .iter()
                            .filter(|item| match item {
                                Expr::Const(Value::Symbol(s) | Value::Str(s)) => {
                                    labels.iter().any(|l| l == local(s))
                                }
                                _ => true,
                            })
                            .cloned()
                            .collect();
                        if kept.is_empty() {
                            return None;
                        }
                        return Some(Expr::In(lhs.clone(), kept));
                    }
                }
                Some(e.clone())
            }
            Expr::Unary(op, a) => Some(Expr::Unary(*op, Box::new(walk(a, models)?))),
            Expr::Binary(op, a, b) => {
                Some(Expr::Binary(*op, Box::new(walk(a, models)?), Box::new(walk(b, models)?)))
            }
            Expr::Const(_) | Expr::Var(_) => Some(e.clone()),
        }
    }
    let pruned = walk(expr, models)?;
    let mut left_over = Vec::new();
    collect_label_misuse(&pruned, models, &mut left_over);
    (left_over.is_empty() && pruned != *expr).then_some(pruned)
}

/// Escapes a replacement expression for splicing into XML character
/// data (`qv check --fix` patches source text, not the DOM).
fn xml_escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            c => out.push(c),
        }
    }
    out
}

/// QV028: every plan node is keyed by its name (its statistics record,
/// its span and its workflow processor), so annotator and assertion
/// `serviceName`s, action names and the names the compiler reserves must
/// be pairwise distinct. Each clash is anchored at the later name; two
/// actions sharing a name are QV014's.
fn duplicate_node_names(spec: &QualityViewSpec, spans: &Spans, d: &mut Vec<Diagnostic>) {
    let mut reserved: BTreeMap<String, String> = BTreeMap::from([
        (ENRICH_NODE.to_string(), "the Data Enrichment node".to_string()),
        (CONSOLIDATE_NODE.to_string(), "the consolidation node".to_string()),
    ]);
    for qa in &spec.assertions {
        reserved.insert(
            merge_node_name(&qa.service_name),
            format!("the merge node of assertion {:?}", qa.service_name),
        );
    }
    let declared = spec
        .annotators
        .iter()
        .enumerate()
        .map(|(i, a)| {
            ("annotator", a.service_name.as_str(), spans.annotator_attr(i, "serviceName"))
        })
        .chain(spec.assertions.iter().enumerate().map(|(i, qa)| {
            ("assertion", qa.service_name.as_str(), spans.assertion_attr(i, "serviceName"))
        }))
        .chain(
            spec.actions
                .iter()
                .enumerate()
                .map(|(i, a)| ("action", a.name.as_str(), spans.action_attr(i, "name"))),
        );
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for (kind, name, span) in declared {
        let clash = if let Some(what) = reserved.get(name) {
            Some(format!("{kind} {name:?} takes the name the compiler gives {what}"))
        } else if kind == "action" && seen.contains(&("action", name)) {
            None // QV014's
        } else {
            seen.iter()
                .find(|(_, n)| *n == name)
                .map(|(earlier, _)| format!("{kind} {name:?} has the name of an earlier {earlier}"))
        };
        seen.push((kind, name));
        if let Some(message) = clash {
            d.push(Diagnostic::error("QV028", message).at(span).help(
                "give each annotator, assertion and action its own name: a run keeps one \
                 record per plan node, under its name",
            ));
        }
    }
}

/// Runs every view-level pass over the spec and collects all findings.
pub fn analyze(
    spec: &QualityViewSpec,
    iq: &IqModel,
    registry: &ServiceRegistry,
    source: Option<&Element>,
) -> LintReport {
    let spans = Spans { root: source };
    let mut d: Vec<Diagnostic> = Vec::new();

    // ---- pass: view shape + repository flags --------------------------
    let started = Instant::now();
    let mark = d.len();
    if spec.name.trim().is_empty() {
        d.push(
            Diagnostic::error("QV001", "quality view has an empty name")
                .at(spans.root_attr("name"))
                .help("give the view a non-empty name attribute"),
        );
    }
    if spec.actions.is_empty() {
        d.push(
            Diagnostic::error(
                "QV002",
                format!(
                    "view {:?} declares no actions — it would have no observable effect",
                    spec.name
                ),
            )
            .at(spans.root_span())
            .help("add an <action> with a <filter> or <splitter>"),
        );
    }
    let mut persistence: BTreeMap<&str, bool> = BTreeMap::new();
    for (i, a) in spec.annotators.iter().enumerate() {
        if let Some(previous) = persistence.insert(&a.repository_ref, a.persistent) {
            if previous != a.persistent {
                d.push(
                    Diagnostic::error(
                        "QV003",
                        format!(
                            "repository {:?} declared both persistent and non-persistent",
                            a.repository_ref
                        ),
                    )
                    .at(spans.annotator(i).and_then(|e| e.span()))
                    .help("use one persistence flag per repository"),
                );
            }
        }
    }
    duplicate_node_names(spec, &spans, &mut d);
    qurator_qvlint::record_pass_telemetry("view", started.elapsed(), &d[mark..]);

    // ---- pass: annotators ---------------------------------------------
    let started = Instant::now();
    let mark = d.len();
    let mut annotator_types: Vec<Iri> = Vec::new();
    // (evidence, annotator index, variable index) for span-accurate QV017
    let mut provided_evidence: Vec<(Iri, usize, usize)> = Vec::new();
    let mut provider_repo: BTreeMap<Iri, String> = BTreeMap::new();
    for (i, a) in spec.annotators.iter().enumerate() {
        let service = match iq.resolve(&a.service_type) {
            Err(e) => {
                d.push(
                    Diagnostic::error("QV004", format!("annotator {:?}: {e}", a.service_name))
                        .at(spans.annotator_attr(i, "serviceType")),
                );
                None
            }
            Ok(service_type) if !iq.is_annotation_function(&service_type) => {
                d.push(
                    Diagnostic::error(
                        "QV004",
                        format!(
                            "annotator {:?}: <{service_type}> is not an AnnotationFunction class",
                            a.service_name
                        ),
                    )
                    .at(spans.annotator_attr(i, "serviceType"))
                    .help("serviceType must name a q:AnnotationFunction subclass"),
                );
                None
            }
            Ok(service_type) => {
                let service = match registry.annotator(&service_type) {
                    Err(e) => {
                        d.push(
                            Diagnostic::error(
                                "QV009",
                                format!("annotator {:?}: {e}", a.service_name),
                            )
                            .at(spans.annotator_attr(i, "serviceType"))
                            .help("register an implementation for the concept"),
                        );
                        None
                    }
                    Ok(s) => Some(s),
                };
                annotator_types.push(service_type);
                service
            }
        };
        for (j, v) in a.variables.iter().enumerate() {
            let v_span = spans.annotator_var(i, j);
            if v.tag_reference().is_some() {
                d.push(
                    Diagnostic::error(
                        "QV008",
                        format!("annotator {:?} cannot declare tag references", a.service_name),
                    )
                    .at(v_span)
                    .help("annotators provide evidence; tags exist only after assertions"),
                );
                continue;
            }
            match iq.resolve(&v.evidence) {
                Err(e) => d.push(
                    Diagnostic::error("QV006", format!("annotator {:?}: {e}", a.service_name))
                        .at(v_span),
                ),
                Ok(evidence) if !iq.is_evidence_type(&evidence) => d.push(
                    Diagnostic::error(
                        "QV006",
                        format!(
                            "annotator {:?}: <{evidence}> is not a QualityEvidence class",
                            a.service_name
                        ),
                    )
                    .at(v_span)
                    .help("evidence must name a q:QualityEvidence subclass"),
                ),
                Ok(evidence) => {
                    if let Some(service) = &service {
                        if !service.provides().contains(&evidence) {
                            d.push(
                                Diagnostic::error(
                                    "QV007",
                                    format!(
                                        "annotator {:?}: bound service does not provide \
                                         <{evidence}>",
                                        a.service_name
                                    ),
                                )
                                .at(v_span),
                            );
                        }
                    }
                    provider_repo.insert(evidence.clone(), a.repository_ref.clone());
                    provided_evidence.push((evidence, i, j));
                }
            }
        }
    }
    qurator_qvlint::record_pass_telemetry("annotators", started.elapsed(), &d[mark..]);

    // ---- pass: assertions ---------------------------------------------
    let started = Instant::now();
    let mark = d.len();
    let mut assertion_types: Vec<Iri> = Vec::new();
    let mut assertion_bindings: Vec<Vec<(String, BindingTarget)>> = Vec::new();
    let mut enrichment_plan: Vec<(Iri, String)> = Vec::new();
    let mut known_tags: Vec<(String, usize)> = Vec::new();
    // tags consumed by later assertions or action conditions (QV019)
    let mut tags_read: BTreeSet<String> = BTreeSet::new();
    // classification tag -> its model's label local names (QV021)
    let mut class_models: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut type_env = TypeEnv::new().strict();

    for (qi, qa) in spec.assertions.iter().enumerate() {
        let service = match iq.resolve(&qa.service_type) {
            Err(e) => {
                d.push(
                    Diagnostic::error("QV005", format!("assertion {:?}: {e}", qa.service_name))
                        .at(spans.assertion_attr(qi, "serviceType")),
                );
                None
            }
            Ok(service_type) if !iq.is_assertion_type(&service_type) => {
                d.push(
                    Diagnostic::error(
                        "QV005",
                        format!(
                            "assertion {:?}: <{service_type}> is not a QualityAssertion class",
                            qa.service_name
                        ),
                    )
                    .at(spans.assertion_attr(qi, "serviceType"))
                    .help("serviceType must name a q:QualityAssertion subclass"),
                );
                None
            }
            Ok(service_type) => {
                let service = match registry.assertion(&service_type) {
                    Err(e) => {
                        d.push(
                            Diagnostic::error(
                                "QV009",
                                format!("assertion {:?}: {e}", qa.service_name),
                            )
                            .at(spans.assertion_attr(qi, "serviceType"))
                            .help("register an implementation for the concept"),
                        );
                        None
                    }
                    Ok(s) => Some(s),
                };
                assertion_types.push(service_type);
                service
            }
        };

        let duplicate_tag = known_tags.iter().any(|(t, _)| t == &qa.tag_name);
        if duplicate_tag {
            d.push(
                Diagnostic::error("QV010", format!("duplicate tag name {:?}", qa.tag_name))
                    .at(spans.assertion_attr(qi, "tagName")),
            );
        }

        if qa.tag_kind == TagKind::Class {
            match qa.tag_sem_type.as_deref() {
                None => d.push(
                    Diagnostic::error(
                        "QV011",
                        format!(
                            "assertion {:?} produces a class but declares no tagSemType",
                            qa.service_name
                        ),
                    )
                    .at(spans.assertion_attr(qi, "tagSynType"))
                    .help("declare tagSemType naming a q:ClassificationModel subclass"),
                ),
                Some(sem) => match iq.resolve(sem) {
                    Err(e) => d.push(
                        Diagnostic::error("QV011", format!("assertion {:?}: {e}", qa.service_name))
                            .at(spans.assertion_attr(qi, "tagSemType")),
                    ),
                    Ok(model) => {
                        let labels = iq.classification_labels(&model);
                        if labels.is_empty() {
                            d.push(
                                Diagnostic::error(
                                    "QV011",
                                    format!(
                                        "assertion {:?}: <{model}> is not a ClassificationModel \
                                         with labels",
                                        qa.service_name
                                    ),
                                )
                                .at(spans.assertion_attr(qi, "tagSemType")),
                            );
                        } else {
                            class_models.insert(
                                qa.tag_name.clone(),
                                labels.iter().map(|l| l.local_name().to_string()).collect(),
                            );
                        }
                    }
                },
            }
        }

        let mut bindings: Vec<(String, BindingTarget)> = Vec::new();
        let mut bound: Vec<&str> = Vec::new();
        for (j, v) in qa.variables.iter().enumerate() {
            let variable = v.effective_name();
            let v_span = spans.assertion_var(qi, j);
            if bound.contains(&variable) {
                d.push(
                    Diagnostic::warning(
                        "QV020",
                        format!(
                            "assertion {:?}: variable {variable:?} is declared twice; the later \
                             binding shadows the earlier one",
                            qa.service_name
                        ),
                    )
                    .at(v_span),
                );
            }
            bound.push(variable);
            if let Some(tag) = v.tag_reference() {
                if !known_tags.iter().any(|(t, _)| t == tag) {
                    d.push(
                        Diagnostic::error(
                            "QV012",
                            format!(
                                "assertion {:?}: variable {variable:?} references tag {tag:?}, \
                                 which no earlier assertion produces",
                                qa.service_name
                            ),
                        )
                        .at(v_span)
                        .help("tags are visible only to assertions declared after them"),
                    );
                } else {
                    tags_read.insert(tag.to_string());
                    bindings.push((variable.to_string(), BindingTarget::Tag(tag.to_string())));
                }
            } else {
                match iq.resolve(&v.evidence) {
                    Err(e) => d.push(
                        Diagnostic::error("QV006", format!("assertion {:?}: {e}", qa.service_name))
                            .at(v_span),
                    ),
                    Ok(evidence) if !iq.is_evidence_type(&evidence) => d.push(
                        Diagnostic::error(
                            "QV006",
                            format!(
                                "assertion {:?}: <{evidence}> is not a QualityEvidence class",
                                qa.service_name
                            ),
                        )
                        .at(v_span),
                    ),
                    Ok(evidence) => {
                        if !enrichment_plan
                            .iter()
                            .any(|(e, r)| *e == evidence && *r == qa.repository_ref)
                        {
                            enrichment_plan.push((evidence.clone(), qa.repository_ref.clone()));
                        }
                        bindings.push((variable.to_string(), BindingTarget::Evidence(evidence)));
                    }
                }
            }
        }

        if let Some(service) = &service {
            for expected in service.expected_variables() {
                if !bound.contains(&expected.as_str()) {
                    d.push(
                        Diagnostic::error(
                            "QV013",
                            format!(
                                "assertion {:?}: service expects variable {expected:?}, not bound \
                                 (bound: {bound:?})",
                                qa.service_name
                            ),
                        )
                        .at(spans.assertion(qi).and_then(|e| e.span()))
                        .help("add a <var> declaration for the expected variable"),
                    );
                }
            }
        }

        type_env.declare(
            qa.tag_name.clone(),
            match qa.tag_kind {
                TagKind::Score => ExprType::Number,
                TagKind::Class => ExprType::Symbol,
            },
        );
        if !duplicate_tag {
            known_tags.push((qa.tag_name.clone(), qi));
        }
        assertion_bindings.push(bindings);
    }

    // Evidence types become visible to conditions under their local names
    // — declared after the tags, exactly as the evaluator resolves them,
    // which is also why a tag sharing an evidence local name is shadowed.
    let evidence_root = qurator_ontology::iq::vocab::quality_evidence();
    let mut evidence_locals: BTreeMap<String, Iri> = BTreeMap::new();
    for class in iq.ontology().subclasses_of(&evidence_root) {
        if class != evidence_root {
            if let Some((tag, qi)) = known_tags.iter().find(|(t, _)| *t == class.local_name()) {
                d.push(
                    Diagnostic::warning(
                        "QV020",
                        format!(
                            "tag {tag:?} shares its name with evidence type <{class}>; \
                             conditions referring to {tag:?} read the evidence value, not the tag"
                        ),
                    )
                    .at(spans.assertion_attr(*qi, "tagName"))
                    .help("rename the tag so the condition namespace stays unambiguous"),
                );
            }
            type_env.declare(class.local_name().to_string(), ExprType::Unknown);
            evidence_locals.insert(class.local_name().to_string(), class);
        }
    }
    qurator_qvlint::record_pass_telemetry("assertions", started.elapsed(), &d[mark..]);

    // ---- pass: actions -------------------------------------------------
    let started = Instant::now();
    let mark = d.len();
    let default_repository = spec
        .referenced_repositories()
        .first()
        .map(|r| r.to_string())
        .unwrap_or_else(|| "cache".to_string());
    let mut action_names: Vec<&str> = Vec::new();
    for (ai, action) in spec.actions.iter().enumerate() {
        if action_names.contains(&action.name.as_str()) {
            d.push(
                Diagnostic::error("QV014", format!("duplicate action name {:?}", action.name))
                    .at(spans.action_attr(ai, "name")),
            );
        }
        action_names.push(&action.name);

        // (group name, condition text, condition span, group-name span)
        type ConditionRow<'a> = (Option<&'a str>, &'a str, Option<Span>, Option<Span>);
        let conditions: Vec<ConditionRow> = match &action.kind {
            ActionKind::Filter { condition } => {
                vec![(None, condition.as_str(), spans.filter_condition(ai), None)]
            }
            ActionKind::Split { groups } => {
                let mut group_names: Vec<&str> = Vec::new();
                for (gi, (group, _)) in groups.iter().enumerate() {
                    if group == "default" {
                        d.push(
                            Diagnostic::error(
                                "QV014",
                                format!(
                                    "action {:?}: group name \"default\" is reserved for the \
                                         implicit k+1-th output (§4.1)",
                                    action.name
                                ),
                            )
                            .at(spans.group_attr(ai, gi, "name")),
                        );
                    } else if group_names.contains(&group.as_str()) {
                        d.push(
                            Diagnostic::error(
                                "QV014",
                                format!("action {:?}: duplicate group {group:?}", action.name),
                            )
                            .at(spans.group_attr(ai, gi, "name")),
                        );
                    }
                    group_names.push(group);
                }
                groups
                    .iter()
                    .enumerate()
                    .map(|(gi, (group, condition))| {
                        (
                            Some(group.as_str()),
                            condition.as_str(),
                            spans.group_condition(ai, gi),
                            spans.group_attr(ai, gi, "name"),
                        )
                    })
                    .collect()
            }
        };

        // parse + typecheck + per-condition analyses
        let mut parsed: Vec<(Option<&str>, Expr, Option<Span>)> = Vec::new();
        for (group, condition, c_span, _) in &conditions {
            let expr = match qurator_expr::parse(condition) {
                Err(e) => {
                    d.push(
                        Diagnostic::error(
                            "QV015",
                            format!("action {:?}: {e} (in {condition:?})", action.name),
                        )
                        .at(*c_span),
                    );
                    continue;
                }
                Ok(expr) => expr,
            };
            if let Err(e) = check(&expr, &type_env) {
                d.push(
                    Diagnostic::error(
                        "QV016",
                        format!("action {:?}: {e} (in {condition:?})", action.name),
                    )
                    .at(*c_span)
                    .help("conditions may use QA tags and evidence local names"),
                );
                continue;
            }
            // condition-only evidence joins the enrichment plan, fetched
            // from its provider's repository (or the view default)
            for variable in expr.variables() {
                if known_tags.iter().any(|(t, _)| *t == variable) {
                    tags_read.insert(variable.clone());
                    continue;
                }
                if let Some(evidence) = evidence_locals.get(&variable) {
                    if !enrichment_plan.iter().any(|(e, _)| e == evidence) {
                        let repo = provider_repo
                            .get(evidence)
                            .cloned()
                            .unwrap_or_else(|| default_repository.clone());
                        enrichment_plan.push((evidence.clone(), repo));
                    }
                }
            }
            // QV021 — labels outside the tag's classification model. When
            // every misuse sits in an `in` list that stays non-empty after
            // dropping the foreign labels, the pruned condition is a
            // machine-applicable replacement for the whole text run.
            let mut misuse: Vec<(String, String)> = Vec::new();
            collect_label_misuse(&expr, &class_models, &mut misuse);
            let mut fix = (!misuse.is_empty())
                .then(|| prune_foreign_labels(&expr, &class_models))
                .flatten()
                .zip(c_span.filter(|s| s.byte_range().is_some()));
            for (var, symbol) in misuse {
                let labels = class_models.get(&var).cloned().unwrap_or_default();
                let mut diag = Diagnostic::error(
                    "QV021",
                    format!(
                        "action {:?}: label {symbol:?} is not in the classification model \
                         of tag {var:?}",
                        action.name
                    ),
                )
                .at(*c_span)
                .help(format!("valid labels: {labels:?}"));
                if let Some((pruned, span)) = fix.take() {
                    let replacement = pruned.to_source();
                    diag = diag.suggest(
                        format!("drop the foreign label(s): {replacement}"),
                        span,
                        xml_escape_text(&replacement),
                        qurator_qvlint::Applicability::MachineApplicable,
                    );
                }
                d.push(diag);
            }
            // QV022 — the condition can never hold
            if intervals::definitely_unsat(&expr) {
                d.push(
                    Diagnostic::error(
                        "QV022",
                        format!(
                            "action {:?}: condition {condition:?} is unsatisfiable — it can \
                             never accept an item",
                            action.name
                        ),
                    )
                    .at(*c_span)
                    .help("the predicate's ranges/label sets have an empty intersection"),
                );
            }
            parsed.push((*group, expr, *c_span));
        }

        // QV023 — a splitter group whose condition implies another group's
        // adds no discrimination (items join every matching group).
        for x in 0..parsed.len() {
            for y in (x + 1)..parsed.len() {
                let (Some(ga), ea, sa) = (&parsed[x].0, &parsed[x].1, parsed[x].2) else {
                    continue;
                };
                let (Some(gb), eb, _) = (&parsed[y].0, &parsed[y].1, parsed[y].2) else {
                    continue;
                };
                let a_implies_b = intervals::implies(ea, eb);
                let b_implies_a = intervals::implies(eb, ea);
                let message = if a_implies_b && b_implies_a {
                    format!(
                        "action {:?}: groups {ga:?} and {gb:?} accept exactly the same items",
                        action.name
                    )
                } else if a_implies_b {
                    format!(
                        "action {:?}: group {ga:?} is subsumed by group {gb:?} — every item it \
                         accepts also joins {gb:?}",
                        action.name
                    )
                } else if b_implies_a {
                    format!(
                        "action {:?}: group {gb:?} is subsumed by group {ga:?} — every item it \
                         accepts also joins {ga:?}",
                        action.name
                    )
                } else {
                    continue;
                };
                d.push(
                    Diagnostic::warning("QV023", message)
                        .at(sa)
                        .help("tighten one of the conditions, or merge the groups"),
                );
            }
        }
    }
    qurator_qvlint::record_pass_telemetry("actions", started.elapsed(), &d[mark..]);

    // ---- pass: dataflow (dead evidence / dead tags) ---------------------
    let started = Instant::now();
    let mark = d.len();
    // QV017 — an annotator that computes evidence nobody reads is dead
    // weight in every execution of the view.
    for (evidence, i, j) in &provided_evidence {
        if !enrichment_plan.iter().any(|(e, _)| e == evidence) {
            d.push(
                Diagnostic::error(
                    "QV017",
                    format!(
                        "evidence <{evidence}> is provided by an annotator but consumed by no \
                         assertion"
                    ),
                )
                .at(spans.annotator_var(*i, *j))
                .help("bind the evidence in an assertion or condition, or drop the annotator"),
            );
        }
    }
    // QV018 — evidence fetched from a repository this view itself creates
    // as non-persistent, with no annotator filling it: the lookup can only
    // come back empty.
    let provided: BTreeSet<&Iri> = provided_evidence.iter().map(|(e, _, _)| e).collect();
    for (evidence, repo) in &enrichment_plan {
        if provided.contains(evidence) {
            continue;
        }
        if persistence.get(repo.as_str()) == Some(&false) {
            d.push(
                Diagnostic::warning(
                    "QV018",
                    format!(
                        "evidence <{evidence}> is consumed from repository {repo:?}, which this \
                         view declares non-persistent, but no annotator provides it"
                    ),
                )
                .at(spans.root_span())
                .help("add an annotator for the evidence, or mark the repository persistent"),
            );
        }
    }
    // QV019 — a tag no action condition or later assertion ever reads.
    for (tag, qi) in &known_tags {
        if !tags_read.contains(tag) {
            d.push(
                Diagnostic::warning(
                    "QV019",
                    format!(
                        "tag {tag:?} is produced by assertion {:?} but read by no action or \
                         later assertion",
                        spec.assertions[*qi].service_name
                    ),
                )
                .at(spans.assertion_attr(*qi, "tagName"))
                .help("use the tag in a condition, reference it as tag:…, or drop the assertion"),
            );
        }
    }
    qurator_qvlint::record_pass_telemetry("dataflow", started.elapsed(), &d[mark..]);

    qurator_qvlint::sort_diagnostics(&mut d);
    let resolved = (!qurator_qvlint::has_errors(&d)
        && annotator_types.len() == spec.annotators.len()
        && assertion_types.len() == spec.assertions.len())
    .then(|| ValidatedView {
        spec: spec.clone(),
        annotator_types,
        assertion_types,
        enrichment_plan,
        assertion_bindings,
    });
    LintReport { diagnostics: d, resolved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_rdf::namespace::q;
    use qurator_services::stdlib::{
        FieldCaptureAnnotator, StatClassifierAssertion, ZScoreAssertion,
    };
    use std::sync::Arc;

    fn setup() -> (IqModel, ServiceRegistry) {
        let iq = IqModel::with_proteomics_extension().unwrap();
        let registry = ServiceRegistry::new();
        registry
            .register_annotator(Arc::new(FieldCaptureAnnotator::new(
                q::iri("ImprintOutputAnnotation"),
                &[
                    ("hitRatio", q::iri("HitRatio")),
                    ("massCoverage", q::iri("MassCoverage")),
                    ("peptidesCount", q::iri("PeptidesCount")),
                ],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(ZScoreAssertion::new(
                q::iri("UniversalPIScore2"),
                &["coverage", "hitratio", "peptidescount"],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(ZScoreAssertion::new(
                q::iri("UniversalPIScore"),
                &["hitratio"],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(StatClassifierAssertion::new(
                q::iri("PIScoreClassifier"),
                "score",
                q::iri("PIScoreClassification"),
                (q::iri("low"), q::iri("mid"), q::iri("high")),
            )))
            .unwrap();
        (iq, registry)
    }

    fn run(spec: &QualityViewSpec) -> LintReport {
        let (iq, registry) = setup();
        analyze(spec, &iq, &registry, None)
    }

    fn codes(report: &LintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn paper_example_is_clean_except_the_unused_hr_tag() {
        let report = run(&QualityViewSpec::paper_example());
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert!(report.resolved.is_some());
        // HR is produced by HR_score but never read — the one finding
        assert_eq!(codes(&report), vec!["QV019"]);
        assert!(report.diagnostics[0].message.contains("\"HR\""));
    }

    #[test]
    fn resolution_matches_the_validator() {
        let report = run(&QualityViewSpec::paper_example());
        let view = report.resolved.unwrap();
        assert_eq!(view.enrichment_plan.len(), 3);
        assert!(view.enrichment_plan.iter().all(|(_, repo)| repo == "cache"));
        assert_eq!(
            view.assertion_bindings[2],
            vec![("score".to_string(), BindingTarget::Tag("HR_MC".into()))]
        );
    }

    #[test]
    fn collects_every_fault_in_one_pass() {
        let mut spec = QualityViewSpec::paper_example();
        // fault 1: non-evidence concept on the annotator
        spec.annotators[0].variables[0].evidence = "q:UniversalPIScore".into();
        // fault 2: duplicate tag
        spec.assertions[1].tag_name = "HR_MC".into();
        // fault 3: type error in the condition
        spec.actions[0].kind = ActionKind::Filter { condition: "ScoreClass > 3".into() };
        let report = run(&spec);
        let got = codes(&report);
        for expected in ["QV006", "QV010", "QV016"] {
            assert!(got.contains(&expected), "missing {expected} in {got:?}");
        }
        assert!(report.resolved.is_none());
    }

    #[test]
    fn unsatisfiable_condition_is_an_error() {
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Filter { condition: "HR_MC > 20 and HR_MC < 10".into() };
        let report = run(&spec);
        assert!(codes(&report).contains(&"QV022"), "{:?}", report.diagnostics);
    }

    #[test]
    fn subsumed_splitter_group_is_warned() {
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Split {
            groups: vec![
                ("strict".into(), "HR_MC > 20".into()),
                ("loose".into(), "HR_MC > 10".into()),
            ],
        };
        let report = run(&spec);
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        let qv023 = report.diagnostics.iter().find(|d| d.code == "QV023").unwrap();
        assert!(qv023.message.contains("\"strict\" is subsumed by group \"loose\""));
    }

    #[test]
    fn equivalent_groups_are_called_out() {
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Split {
            groups: vec![
                ("a".into(), "HR_MC > 20".into()),
                ("b".into(), "not (HR_MC <= 20)".into()),
            ],
        };
        let report = run(&spec);
        let qv023 = report.diagnostics.iter().find(|d| d.code == "QV023").unwrap();
        assert!(qv023.message.contains("exactly the same items"));
    }

    #[test]
    fn label_outside_classification_model_is_an_error() {
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass in q:high, q:banana".into() };
        let report = run(&spec);
        let qv021 = report.diagnostics.iter().find(|d| d.code == "QV021").unwrap();
        assert!(qv021.message.contains("banana"));
        assert!(qv021.help.as_deref().unwrap().contains("high"));
    }

    #[test]
    fn equality_against_foreign_label_is_flagged_too() {
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind =
            ActionKind::Filter { condition: "ScoreClass = q:banana or HR_MC > 0".into() };
        let report = run(&spec);
        assert!(codes(&report).contains(&"QV021"), "{:?}", report.diagnostics);
    }

    #[test]
    fn duplicate_qa_variable_is_shadowing() {
        let mut spec = QualityViewSpec::paper_example();
        spec.assertions[1].variables.push(VarDecl::named("hitratio", "q:MassCoverage"));
        let report = run(&spec);
        let qv020 = report.diagnostics.iter().find(|d| d.code == "QV020").unwrap();
        assert!(qv020.message.contains("hitratio"));
    }

    #[test]
    fn consumed_but_never_annotated_from_fresh_repository_warns() {
        let mut spec = QualityViewSpec::paper_example();
        // q:Masses is consumed from the non-persistent cache but no
        // annotator provides it
        spec.assertions[1].variables.push(VarDecl::named("extra", "q:Masses"));
        let report = run(&spec);
        let qv018 = report.diagnostics.iter().find(|d| d.code == "QV018").unwrap();
        assert!(qv018.message.contains("Masses"));
        // pre-existing persistent repositories stay silent
        let mut spec2 = QualityViewSpec::paper_example();
        spec2.annotators.clear();
        let report2 = run(&spec2);
        assert!(
            !report2.diagnostics.iter().any(|d| d.code == "QV018"),
            "{:?}",
            report2.diagnostics
        );
    }

    #[test]
    fn spans_resolve_into_the_source_document() {
        let (iq, registry) = setup();
        let xml = crate::xmlio::tests::PAPER_VIEW_XML;
        let root = qurator_xml::parse(xml).unwrap();
        let spec = crate::xmlio::element_to_spec(&root).unwrap();
        let report = analyze(&spec, &iq, &registry, Some(&root));
        let qv019 = report.diagnostics.iter().find(|d| d.code == "QV019").unwrap();
        let span = qv019.span.expect("span from source");
        // the span must point at the HR tagName attribute value
        let line = xml.lines().nth(span.line as usize - 1).unwrap();
        assert!(
            line[span.col as usize - 1..].starts_with("HR\""),
            "span {span} points at {line:?}"
        );
    }
}
