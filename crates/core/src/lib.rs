//! # qurator
//!
//! **Quality views**: a Rust reproduction of the Qurator framework from
//! *Quality Views: Capturing and Exploiting the User Perspective on Data
//! Quality* (Missier, Embury, Greenwood, Preece, Jin — VLDB 2006).
//!
//! A quality view is a declarative, user-authored specification of
//! personal data-acceptability criteria: which evidence to collect, which
//! quality assertions (scores/classifications) to compute over it, and
//! which condition/action pairs (filters, splitters) to apply. Views are
//! validated against a semantic IQ model, compiled into executable
//! workflows, and embedded into host data-processing workflows.
//!
//! ## Module map
//!
//! * [`spec`] — the abstract QV model (§4/§5.1): annotator, QA and action
//!   declarations with variable bindings;
//! * [`xmlio`] — the concrete XML syntax of §5.1 (parse + serialize);
//! * [`validate`] — semantic validation against the IQ model, service
//!   registry and condition type checker;
//! * [`convert`] — encodings of data sets and annotation maps onto the
//!   workflow data model;
//! * [`operators`] — the abstract quality operators (Annotation, Data
//!   Enrichment, Quality Assertion, Consolidate, Actions) as workflow
//!   processors;
//! * [`planner`] — lowering of validated specs into the typed plan IR of
//!   the `qurator-plan` crate (logical nodes, optimizing passes, waves);
//! * [`exec`] — binding physical plans to live services/repositories and
//!   wiring them into workflows;
//! * [`compile`] — the QV compiler implementing the §6.1 rules (now a
//!   thin composition of [`planner`] and [`exec`]);
//! * [`deploy`] — deployment descriptors for embedding compiled views
//!   into host workflows (§6.2);
//! * [`engine`] — [`engine::QualityEngine`], the top-level API bundling
//!   IQ model, service registry and repository catalog, with the one
//!   executor (a direct plan interpreter) and the compile-to-workflow
//!   entry point;
//! * [`library`] — a shareable catalog of community views (paper §7
//!   future work (iv)).
//!
//! ## Quickstart
//!
//! ```
//! use qurator::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. semantic setup (the proteomics extension of the running example)
//! let engine = QualityEngine::with_proteomics_defaults().unwrap();
//!
//! // 2. a quality view in the paper's XML syntax
//! let spec = qurator::xmlio::parse_quality_view(r#"
//!   <QualityView name="hr-filter">
//!     <QualityAssertion serviceName="score" serviceType="q:UniversalPIScore"
//!                       tagName="HR" tagSynType="q:score">
//!       <variables repositoryRef="cache">
//!         <var variableName="hitratio" evidence="q:HitRatio"/>
//!       </variables>
//!     </QualityAssertion>
//!     <action name="keep strong hits">
//!       <filter><condition>HR &gt; 0</condition></filter>
//!     </action>
//!   </QualityView>
//! "#).unwrap();
//!
//! // 3. data + pre-existing annotations, in a cache registered up front:
//! //    a registered cache stays the caller's, so runs read it as-is
//! let mut dataset = DataSet::new();
//! let cache = engine.catalog().create("cache", false).unwrap();
//! for (i, hr) in [0.9, 0.1, 0.7].iter().enumerate() {
//!     let item = qurator_rdf::term::Term::iri(format!("urn:lsid:t:hit:{i}"));
//!     dataset.push(item.clone(), [] as [(String, qurator_annotations::EvidenceValue); 0]);
//!     cache.annotate(&item, &qurator_rdf::namespace::q::iri("HitRatio"), (*hr).into()).unwrap();
//! }
//!
//! // 4. validate + execute
//! let outcome = engine.execute_view(&spec, &dataset).unwrap();
//! let kept = outcome.group("keep strong hits").unwrap();
//! assert_eq!(kept.dataset.len(), 2); // z-scores of 0.9 and 0.7 are > 0
//! ```

pub mod compile;
pub mod convert;
pub mod deploy;
pub mod engine;
pub mod exec;
pub mod ledger;
pub mod library;
pub mod lint;
pub mod operators;
pub mod planner;
pub mod spec;
pub mod validate;
pub mod xmlio;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::engine::{ActionOutcome, QualityEngine};
    pub use crate::spec::{
        ActionDecl, ActionKind, AnnotatorDecl, AssertionDecl, QualityViewSpec, TagKind, VarDecl,
    };
    pub use crate::QuratorError;
    pub use qurator_annotations::{AnnotationMap, EvidenceValue};
    pub use qurator_services::DataSet;
}

/// Errors from the quality-view layer.
#[derive(Debug, Clone)]
pub enum QuratorError {
    /// XML-level failure while reading a QV document.
    Xml(String),
    /// The document is well-formed XML but not a valid QV spec.
    Spec(String),
    /// Semantic validation failed (unknown concepts, unbound variables,
    /// ill-typed conditions, missing services…).
    Validation(String),
    /// Compilation to a workflow failed.
    Compile(String),
    /// Execution failed.
    Execution(String),
    /// A repository store failed (cannot be opened, read, written or
    /// flushed): the server's fault, not the view's or the data's.
    Storage(String),
    /// Semantic validation failed, with the full collect-all diagnostic
    /// list (every error, not just the first; warnings ride along).
    Diagnostics(Vec<qurator_qvlint::Diagnostic>),
}

impl QuratorError {
    /// The diagnostics attached to this error, when it carries any.
    pub fn diagnostics(&self) -> &[qurator_qvlint::Diagnostic] {
        match self {
            QuratorError::Diagnostics(d) => d,
            _ => &[],
        }
    }
}

impl std::fmt::Display for QuratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuratorError::Xml(m) => write!(f, "quality-view XML error: {m}"),
            QuratorError::Spec(m) => write!(f, "quality-view spec error: {m}"),
            QuratorError::Validation(m) => write!(f, "quality-view validation error: {m}"),
            QuratorError::Compile(m) => write!(f, "quality-view compilation error: {m}"),
            QuratorError::Execution(m) => write!(f, "quality-view execution error: {m}"),
            QuratorError::Storage(m) => write!(f, "quality-view storage error: {m}"),
            QuratorError::Diagnostics(diags) => {
                let errors: Vec<&str> = diags
                    .iter()
                    .filter(|d| d.severity == qurator_qvlint::Severity::Error)
                    .map(|d| d.message.as_str())
                    .collect();
                write!(f, "quality-view validation error: {}", errors.join("; "))
            }
        }
    }
}

impl std::error::Error for QuratorError {}

impl From<qurator_xml::XmlError> for QuratorError {
    fn from(e: qurator_xml::XmlError) -> Self {
        QuratorError::Xml(e.to_string())
    }
}

impl From<qurator_services::ServiceError> for QuratorError {
    fn from(e: qurator_services::ServiceError) -> Self {
        QuratorError::Execution(e.to_string())
    }
}

impl From<qurator_annotations::AnnotationError> for QuratorError {
    fn from(e: qurator_annotations::AnnotationError) -> Self {
        QuratorError::Execution(e.to_string())
    }
}

impl From<qurator_workflow::WorkflowError> for QuratorError {
    fn from(e: qurator_workflow::WorkflowError) -> Self {
        QuratorError::Execution(e.to_string())
    }
}

impl From<qurator_plan::PlanError> for QuratorError {
    fn from(e: qurator_plan::PlanError) -> Self {
        QuratorError::Compile(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QuratorError>;
