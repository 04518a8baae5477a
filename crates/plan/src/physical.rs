//! The physical plan: what the executors actually run, produced from a
//! [`LogicalPlan`](crate::LogicalPlan) by the pass pipeline in
//! [`crate::passes`].

use crate::logical::{ActNode, AnnotateNode, AssertNode, CONSOLIDATE_NODE, ENRICH_NODE};
use qurator_rdf::term::Iri;

/// Knobs for the pass pipeline. `optimize: false` skips
/// `dead-node-elim`, the one pass that changes what runs — the
/// `qv plan --no-opt` baseline. Enrich grouping is a lowering rule, not
/// a pass, so both modes read each repository with one bulk call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    pub optimize: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig { optimize: true }
    }
}

/// One repository access of the Enrich node: every evidence type served
/// by `repository`, deduplicated, in first-fetch order. Lowering builds
/// one group per repository in both modes, and the executor answers
/// each group with a single bulk lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnrichGroup {
    pub repository: String,
    pub evidence: Vec<Iri>,
}

/// An Assert node plus its scheduling facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalAssert {
    pub node: AssertNode,
    /// Names of earlier Assert nodes whose tags this one consumes
    /// (drives both workflow chaining and wave placement).
    pub depends_on: Vec<String>,
}

/// Provenance of one optimization pass over the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    pub pass: &'static str,
    pub duration_us: u64,
    pub changed: bool,
    pub notes: Vec<String>,
}

/// The physical plan the engine's executor walks phase by phase and the
/// workflow compiler lowers onto the wave-parallel enactment engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// View name.
    pub view: String,
    /// Whether `dead-node-elim` ran (false under `--no-opt`).
    pub optimized: bool,
    /// Surviving Annotate nodes, in declaration order.
    pub annotators: Vec<AnnotateNode>,
    /// Repository persistence facts from *all* annotators (including
    /// eliminated ones — resolving a repository must not change meaning
    /// because an optimizer dropped its writer).
    pub persistence: Vec<(String, bool)>,
    /// Repository accesses of the single Enrich node, one per repository.
    pub enrich: Vec<EnrichGroup>,
    /// Assert nodes with dependency facts, in declaration order.
    pub assertions: Vec<PhysicalAssert>,
    /// Act nodes, in declaration order.
    pub actions: Vec<ActNode>,
    /// The wave schedule: antichains of node names in execution order.
    pub waves: Vec<Vec<String>>,
    /// What each pass did, in pipeline order.
    pub passes: Vec<PassReport>,
    /// Observed per-node output cardinalities (rounded decayed averages)
    /// installed by the `stats-profile` pass when a persisted
    /// [`qurator_telemetry::stats::StatsProfile`] is handed to
    /// [`crate::passes::lower_with_profile`] — the cost-model input.
    /// Empty when no profile was supplied.
    pub observed_rows: Vec<(String, u64)>,
}

impl PhysicalPlan {
    /// Total number of `(evidence, repository)` pairs the Enrich node
    /// reads (one bulk call per group).
    pub fn fetch_count(&self) -> usize {
        self.enrich.iter().map(|g| g.evidence.len()).sum()
    }

    /// Every node name in schedule order (flattened waves).
    pub fn node_names(&self) -> Vec<&str> {
        self.waves.iter().flatten().map(String::as_str).collect()
    }

    /// The names of all nodes the plan executes, in process order —
    /// annotators, the Enrich node, assertions, the consolidation step,
    /// actions. (The schedule groups the same names into waves.)
    pub fn process_order(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.annotators.iter().map(|a| a.name.as_str()).collect();
        out.push(ENRICH_NODE);
        out.extend(self.assertions.iter().map(|a| a.node.name.as_str()));
        out.push(CONSOLIDATE_NODE);
        out.extend(self.actions.iter().map(|a| a.name.as_str()));
        out
    }

    /// Declared persistence of a repository (false when no annotator in
    /// the view writes it — matching the pre-plan executors' default).
    pub fn repository_persistent(&self, name: &str) -> bool {
        self.persistence.iter().find(|(r, _)| r == name).map(|(_, p)| *p).unwrap_or(false)
    }

    /// The observed output cardinality of a node, when the plan was
    /// lowered with a stats profile.
    pub fn observed_rows(&self, node: &str) -> Option<u64> {
        self.observed_rows.iter().find(|(n, _)| n == node).map(|(_, rows)| *rows)
    }
}
