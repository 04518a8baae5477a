//! # qurator-plan
//!
//! The typed plan IR for quality views: one declarative description of
//! the abstract quality process (§4: Annotation → Data Enrichment →
//! Quality Assertion → Consolidate → Action) that every consumer shares.
//!
//! * [`LogicalPlan`] — the faithful, unoptimized lowering of a validated
//!   view spec: typed `Annotate` / `Enrich` / `Assert` / `Consolidate` /
//!   `Act` nodes with resolved evidence and variable signatures;
//! * [`passes::lower`] — lowering (one Enrich access per repository)
//!   plus an explicit pass pipeline (dead-node elimination, wave
//!   scheduling) producing a [`PhysicalPlan`];
//! * [`render`] — EXPLAIN-style text and JSON renderers;
//! * [`schema`] — a validator for the JSON rendering (the
//!   `qv plan-check` gate).
//!
//! The crate is deliberately declarative: it knows evidence types,
//! repository *names*, service-type IRIs and condition source text, but
//! never touches services, repositories or workflow processors. Binding
//! a physical plan to executable operators is the embedder's job (in
//! this workspace: `qurator::exec`), which is what lets the direct
//! interpreter, the compiled wave engine and the static analyzer consume
//! the same plan without dependency cycles.

pub mod logical;
pub mod passes;
pub mod physical;
pub mod render;
pub mod schema;

pub use logical::{
    ActKind, ActNode, AnnotateNode, AssertNode, Binding, EnrichNode, LogicalNode, LogicalPlan,
    TagKind, CONSOLIDATE_NODE, ENRICH_NODE,
};
pub use passes::lower;
pub use physical::{EnrichGroup, PassReport, PhysicalAssert, PhysicalPlan, PlanConfig};

/// Errors from plan lowering (a malformed logical plan — e.g. a tag
/// binding with no producing assertion — that validation should have
/// rejected upstream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan error: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PlanError>;
