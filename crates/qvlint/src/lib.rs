//! # qurator-qvlint
//!
//! Static analysis for the Quality Views framework (reproduction of
//! *Quality Views*, VLDB 2006). The paper's cost-effectiveness argument
//! (§6.1) rests on users being told about unknown concepts, unbound
//! variables and ill-typed conditions *before* a view is compiled and
//! deployed into the host workflow; this crate is that analysis layer,
//! grown from a fail-fast validator into a collect-all diagnostics engine.
//!
//! The crate supplies the *framework* and the spec-independent passes:
//!
//! * [`Diagnostic`] — one finding: a stable code (`QV0xx` view-level,
//!   `WF0xx` workflow-level, `SQ0xx` SPARQL-level), a [`Severity`], a
//!   human message, labeled source [`Span`]s and an optional fix
//!   suggestion;
//! * [`render`] — rustc-style text rendering with source snippets, plus a
//!   machine-readable JSON form;
//! * [`intervals`] — interval/set analysis over condition predicates
//!   (unsatisfiability, implication between splitter groups);
//! * [`workflow`] — analysis of compiled workflow graphs (cycles,
//!   unreachable nodes, repository write/read mismatches, wave-width
//!   hints);
//! * [`plan`] — the WF003/WF004 usage findings rebased onto the typed
//!   plan IR (`qurator-plan`) that the executor and compiler consume;
//! * [`sparql`] — analysis of SPARQL query text (syntax, unbound
//!   projected variables, cartesian-product joins, unknown prefixes).
//!
//! The view-level passes (QV0xx) live in `qurator::lint`, next to the
//! spec model they analyze; they produce the same [`Diagnostic`] values.

pub mod dataflow;
pub mod fix;
pub mod intervals;
pub mod plan;
pub mod render;
pub mod sparql;
pub mod workflow;

pub use qurator_xml::Span;

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The view/query is wrong and must not be deployed.
    Error,
    /// Probably a mistake; deployment would still behave deterministically.
    Warning,
    /// A hint (e.g. a performance observation), never a gate.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// How confident the analyzer is that a suggested replacement is the
/// right fix — the same ladder rustc uses. Only `MachineApplicable`
/// suggestions are applied by `qv check --fix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// The fix is definitely correct; applying it cannot change the
    /// meaning of the view beyond removing the flagged defect.
    MachineApplicable,
    /// The fix is probably what the author meant, but a human should
    /// confirm (e.g. deleting one of two same-wave duplicate writers).
    MaybeIncorrect,
    /// The replacement contains placeholders the author must fill in.
    HasPlaceholders,
}

impl fmt::Display for Applicability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Applicability::MachineApplicable => "machine-applicable",
            Applicability::MaybeIncorrect => "maybe-incorrect",
            Applicability::HasPlaceholders => "has-placeholders",
        })
    }
}

/// A structured, machine-readable fix attached to a diagnostic.
///
/// `span` must carry a byte extent (see [`Span::byte_range`]) for the
/// fix to be appliable; the patcher replaces those bytes with
/// `replacement` (empty string = deletion). `message` is the
/// human-facing "help: …" line shown by the renderers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// What the fix does, e.g. `replace the condition with "…"`.
    pub message: String,
    /// The source region to replace. Needs a byte extent to be
    /// machine-appliable.
    pub span: Span,
    /// Replacement source text (already XML-escaped when it lands in
    /// character data). Empty means "delete the region".
    pub replacement: String,
    /// Whether `--fix` may apply this without a human in the loop.
    pub applicability: Applicability,
}

/// A secondary source label attached to a diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Where (1-based line/col), when the source was parsed with spans.
    pub span: Option<Span>,
    /// What this place contributes to the finding.
    pub message: String,
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`QV017`, `WF001`, `SQ003`, …). Codes are append-only:
    /// meanings never change across releases, so CI configs can allow-list
    /// them.
    pub code: &'static str,
    /// Error / warning / info.
    pub severity: Severity,
    /// One-line human message.
    pub message: String,
    /// The primary source position, when known.
    pub span: Option<Span>,
    /// Secondary labels (other places involved in the finding).
    pub labels: Vec<Label>,
    /// A fix suggestion.
    pub help: Option<String>,
    /// A structured fix, when the repair is mechanical.
    pub suggestion: Option<Suggestion>,
}

impl Diagnostic {
    fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        debug_assert!(codes::describe(code).is_some(), "unregistered diagnostic code {code}");
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span: None,
            labels: Vec::new(),
            help: None,
            suggestion: None,
        }
    }

    /// An error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Error, message)
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Warning, message)
    }

    /// An info-severity diagnostic.
    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Info, message)
    }

    /// Sets the primary span (no-op on `None`, so span plumbing stays
    /// optional end to end).
    pub fn at(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Adds a secondary label.
    pub fn label(mut self, span: Option<Span>, message: impl Into<String>) -> Self {
        self.labels.push(Label { span, message: message.into() });
        self
    }

    /// Attaches a fix suggestion.
    pub fn help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Attaches a structured fix.
    pub fn suggest(
        mut self,
        message: impl Into<String>,
        span: Span,
        replacement: impl Into<String>,
        applicability: Applicability,
    ) -> Self {
        self.suggestion = Some(Suggestion {
            message: message.into(),
            span,
            replacement: replacement.into(),
            applicability,
        });
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = self.span {
            write!(f, " (at {span})")?;
        }
        Ok(())
    }
}

/// True when any diagnostic is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Orders diagnostics for stable presentation: by source position
/// (spanless findings last), then code, then severity. Keying on the
/// code before the severity keeps `qv check --format json` byte-stable
/// across runs and analyzer-pass reorderings.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| {
        let (line, col) = match d.span {
            Some(s) => (s.line, s.col),
            None => (u32::MAX, u32::MAX),
        };
        (line, col, d.code, d.severity, d.message.clone())
    });
}

/// "3 errors, 1 warning" — for the renderer footer and CLI exit message.
pub fn summary(diags: &[Diagnostic]) -> String {
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    let (e, w, i) = (count(Severity::Error), count(Severity::Warning), count(Severity::Info));
    let mut parts = Vec::new();
    let plural = |n: usize, word: &str| format!("{n} {word}{}", if n == 1 { "" } else { "s" });
    if e > 0 {
        parts.push(plural(e, "error"));
    }
    if w > 0 {
        parts.push(plural(w, "warning"));
    }
    if i > 0 {
        parts.push(plural(i, "hint"));
    }
    if parts.is_empty() {
        "no findings".to_string()
    } else {
        parts.join(", ")
    }
}

/// Records lint-run telemetry: one `lint.pass.duration_us` histogram
/// sample, a `lint.pass.runs{pass=…}` counter tick, and one
/// `lint.diagnostics{code=…}` tick per finding.
pub fn record_pass_telemetry(pass: &str, duration: std::time::Duration, diags: &[Diagnostic]) {
    let metrics = qurator_telemetry::metrics();
    metrics.histogram("lint.pass.duration_us").record(duration.as_micros() as u64);
    metrics.counter_with("lint.pass.runs", &[("pass", pass)]).add(1);
    for d in diags {
        metrics.counter_with("lint.diagnostics", &[("code", d.code)]).add(1);
    }
}

/// The stable diagnostic-code registry.
pub mod codes {
    /// All codes with their one-line descriptions, in code order. The
    /// table is the source of truth for DESIGN.md §7 and the JSON
    /// renderer's `description` field.
    pub const ALL: &[(&str, &str)] = &[
        ("QV001", "quality view has an empty name"),
        ("QV002", "view declares no actions"),
        ("QV003", "repository declared both persistent and non-persistent"),
        ("QV004", "annotator service type is unknown or not an AnnotationFunction"),
        ("QV005", "assertion service type is unknown or not a QualityAssertion"),
        ("QV006", "variable references an unknown or non-evidence concept"),
        ("QV007", "bound annotation service does not provide the declared evidence"),
        ("QV008", "annotator declares a tag reference"),
        ("QV009", "no service registered or bound for the concept"),
        ("QV010", "duplicate quality-assertion tag name"),
        ("QV011", "classification QA without a usable tagSemType model"),
        ("QV012", "variable references a tag no earlier assertion produces"),
        ("QV013", "service-expected variable is not bound"),
        ("QV014", "duplicate or reserved action/group name"),
        ("QV015", "condition syntax error"),
        ("QV016", "condition type error"),
        ("QV017", "evidence provided by an annotator but consumed by no assertion"),
        ("QV018", "evidence consumed but never annotated, from a non-persistent repository"),
        ("QV019", "tag is produced but never read by any action or later assertion"),
        ("QV020", "name shadowing between tags, evidence types or variables"),
        ("QV021", "condition references a label outside the tag's classification model"),
        ("QV022", "condition is unsatisfiable — the action can never accept an item"),
        ("QV023", "splitter group condition subsumed by another group"),
        ("QV024", "evidence fetched from a repository that cannot provide it"),
        (
            "QV025",
            "branch is dead: condition unsatisfiable given the upstream classification domain",
        ),
        (
            "QV026",
            "branch shadowed: condition subsumed by a sibling under the classification domain",
        ),
        ("QV027", "persistent repository name cannot name a store directory"),
        ("WF001", "compiled workflow contains a dependency cycle"),
        ("WF002", "workflow node is unreachable from any workflow input"),
        ("WF003", "repository is written but never read within the view"),
        ("WF004", "wide execution wave (parallelism hint)"),
        ("WF005", "view failed to compile into a workflow"),
        ("WF006", "two nodes in the same execution wave write the same evidence to one repository"),
        ("SQ001", "SPARQL syntax error"),
        ("SQ002", "projected variable is not bound by the query pattern"),
        ("SQ003", "query pattern forms a cartesian product"),
        ("SQ004", "unknown namespace prefix"),
    ];

    /// The description of a code, when registered.
    pub fn describe(code: &str) -> Option<&'static str> {
        ALL.iter().find(|(c, _)| *c == code).map(|(_, d)| *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_display() {
        let d = Diagnostic::error("QV015", "action \"x\": syntax error")
            .at(Some(Span::new(4, 7)))
            .label(Some(Span::new(2, 1)), "declared here")
            .help("check the condition grammar");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.to_string(), "error[QV015]: action \"x\": syntax error (at 4:7)");
        assert_eq!(d.labels.len(), 1);
    }

    #[test]
    fn codes_are_unique_and_described() {
        let mut seen = std::collections::BTreeSet::new();
        for (code, description) in codes::ALL {
            assert!(seen.insert(*code), "duplicate code {code}");
            assert!(!description.is_empty());
        }
        assert!(codes::describe("QV017").is_some());
        assert!(codes::describe("XX999").is_none());
    }

    #[test]
    fn suggestion_builder() {
        let d = Diagnostic::warning("QV025", "group \"dead\" can never match")
            .at(Some(Span::new(8, 3)))
            .suggest(
                "delete the dead group",
                Span::with_extent(8, 3, 120, 64),
                "",
                Applicability::MachineApplicable,
            );
        let s = d.suggestion.as_ref().unwrap();
        assert_eq!(s.applicability, Applicability::MachineApplicable);
        assert_eq!(s.span.byte_range(), Some(120..184));
        assert!(s.replacement.is_empty());
        assert_eq!(Applicability::MaybeIncorrect.to_string(), "maybe-incorrect");
    }

    #[test]
    fn sorting_keys_on_code_before_severity() {
        // same position: the code decides, not the severity
        let mut diags = vec![
            Diagnostic::error("QV022", "b").at(Some(Span::new(3, 1))),
            Diagnostic::warning("QV019", "a").at(Some(Span::new(3, 1))),
        ];
        sort_diagnostics(&mut diags);
        assert_eq!(diags[0].code, "QV019");
        assert_eq!(diags[1].code, "QV022");
    }

    #[test]
    fn sorting_and_summary() {
        let mut diags = vec![
            Diagnostic::warning("QV019", "b").at(None),
            Diagnostic::error("QV015", "a").at(Some(Span::new(9, 1))),
            Diagnostic::error("QV001", "c").at(Some(Span::new(1, 1))),
        ];
        sort_diagnostics(&mut diags);
        assert_eq!(diags[0].code, "QV001");
        assert_eq!(diags[1].code, "QV015");
        assert_eq!(diags[2].code, "QV019", "spanless findings sort last");
        assert!(has_errors(&diags));
        assert_eq!(summary(&diags), "2 errors, 1 warning");
        assert_eq!(summary(&[]), "no findings");
    }
}
