//! The logical plan: a typed, declarative statement of what a quality
//! view computes, lowered 1:1 from the validated spec.
//!
//! Node taxonomy (mirrors the §4.1 operator set):
//!
//! | node          | meaning                                              |
//! |---------------|------------------------------------------------------|
//! | `Annotate`    | compute evidence, write it to a repository           |
//! | `Enrich`      | fetch evidence values (type → repository association)|
//! | `Assert`      | compute one quality tag from bound variables         |
//! | `Consolidate` | merge assertion outputs into one consistent map      |
//! | `Act`         | filter / split on tag and evidence conditions        |
//!
//! The logical plan keeps the spec's declaration order and performs no
//! optimization — it is the single source the pass pipeline, the static
//! analyzer and the EXPLAIN renderer all start from.

use qurator_rdf::term::Iri;

/// Node name of the single Data-Enrichment operator (stable across the
/// plan, the compiled workflow and telemetry span names).
pub const ENRICH_NODE: &str = "DataEnrichment";
/// Node name of the final consolidation task.
pub const CONSOLIDATE_NODE: &str = "ConsolidateAssertions";

/// Node name of the task that merges the maps of an assertion reading
/// tags from more than one producer.
pub fn merge_node_name(assertion: &str) -> String {
    format!("consolidate-for-{assertion}")
}

/// Whether an assertion emits a numeric score or a classification label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagKind {
    Score,
    Class,
}

impl TagKind {
    /// Stable lowercase name (used in the JSON rendering).
    pub fn as_str(self) -> &'static str {
        match self {
            TagKind::Score => "score",
            TagKind::Class => "class",
        }
    }
}

/// Where an assertion variable gets its value: a fetched evidence type,
/// or an earlier assertion's tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    Evidence(Iri),
    Tag(String),
}

/// An Annotation node: one annotator writing evidence into a repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotateNode {
    /// Node name (the view's local service name).
    pub name: String,
    /// The `q:AnnotationFunction` subclass bound at validation.
    pub service_type: Iri,
    /// Repository written.
    pub repository: String,
    /// Whether those annotations outlive one process execution.
    pub persistent: bool,
    /// Evidence types this annotator provides values for.
    pub provides: Vec<Iri>,
}

/// The single Data-Enrichment node: the §6.1 evidence-type → repository
/// association, in validation order (merge order is semantic: later
/// fetches win conflicting values).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnrichNode {
    pub fetches: Vec<(Iri, String)>,
}

/// A Quality-Assertion node: one tag computed from typed bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertNode {
    /// Node name (the view's local service name).
    pub name: String,
    /// The `q:QualityAssertion` subclass bound at validation.
    pub service_type: Iri,
    /// Tag variable this assertion writes.
    pub tag: String,
    /// Score vs classification output.
    pub tag_kind: TagKind,
    /// For classification assertions: the local names of the bound
    /// `q:ClassificationModel`'s labels, in model order. This is the
    /// value domain of the tag — the dataflow analyzer conjoins it onto
    /// downstream action conditions (QV025/QV026). Empty for scores or
    /// when the model could not be resolved.
    pub labels: Vec<String>,
    /// variable name → typed source, in declaration order.
    pub bindings: Vec<(String, Binding)>,
}

/// What an Act node does with items satisfying its condition(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActKind {
    Filter { condition: String },
    Split { groups: Vec<(String, String)> },
}

/// An Action node: a condition/action pair over the consolidated map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActNode {
    pub name: String,
    pub kind: ActKind,
}

impl ActNode {
    /// `(group label, condition source)` pairs, one per condition the
    /// action evaluates. Filters use the action name as the label.
    pub fn conditions(&self) -> Vec<(&str, &str)> {
        match &self.kind {
            ActKind::Filter { condition } => vec![(self.name.as_str(), condition.as_str())],
            ActKind::Split { groups } => {
                groups.iter().map(|(g, c)| (g.as_str(), c.as_str())).collect()
            }
        }
    }
}

/// One node of the logical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalNode {
    Annotate(AnnotateNode),
    Enrich(EnrichNode),
    Assert(AssertNode),
    /// The consolidation step the §6.1 compiler inserts; carried
    /// explicitly so the plan's node list is the complete process graph.
    Consolidate,
    Act(ActNode),
}

impl LogicalNode {
    /// The node's graph name (stable across plan, workflow and spans).
    pub fn name(&self) -> &str {
        match self {
            LogicalNode::Annotate(a) => &a.name,
            LogicalNode::Enrich(_) => ENRICH_NODE,
            LogicalNode::Assert(a) => &a.name,
            LogicalNode::Consolidate => CONSOLIDATE_NODE,
            LogicalNode::Act(a) => &a.name,
        }
    }
}

/// The logical plan: the view's nodes in process order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogicalPlan {
    /// View name.
    pub view: String,
    /// Annotate* → Enrich → Assert* → Consolidate → Act*.
    pub nodes: Vec<LogicalNode>,
}

impl LogicalPlan {
    /// All Annotate nodes, in declaration order.
    pub fn annotators(&self) -> impl Iterator<Item = &AnnotateNode> {
        self.nodes.iter().filter_map(|n| match n {
            LogicalNode::Annotate(a) => Some(a),
            _ => None,
        })
    }

    /// The Enrich node (every complete plan has exactly one).
    pub fn enrich(&self) -> Option<&EnrichNode> {
        self.nodes.iter().find_map(|n| match n {
            LogicalNode::Enrich(e) => Some(e),
            _ => None,
        })
    }

    /// All Assert nodes, in declaration order.
    pub fn assertions(&self) -> impl Iterator<Item = &AssertNode> {
        self.nodes.iter().filter_map(|n| match n {
            LogicalNode::Assert(a) => Some(a),
            _ => None,
        })
    }

    /// All Act nodes, in declaration order.
    pub fn actions(&self) -> impl Iterator<Item = &ActNode> {
        self.nodes.iter().filter_map(|n| match n {
            LogicalNode::Act(a) => Some(a),
            _ => None,
        })
    }

    /// Repository persistence facts: every repository an Annotate node
    /// writes, with its declared persistence (used when the embedder
    /// resolves repository names that only assertions mention — those
    /// default to volatile, exactly like the pre-plan executors did).
    pub fn repository_persistence(&self) -> Vec<(String, bool)> {
        let mut out: Vec<(String, bool)> = Vec::new();
        for a in self.annotators() {
            match out.iter_mut().find(|(name, _)| *name == a.repository) {
                Some((_, persistent)) => *persistent = a.persistent,
                None => out.push((a.repository.clone(), a.persistent)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Iri {
        Iri::new(format!("http://example.org/ont#{s}"))
    }

    #[test]
    fn node_names_are_stable() {
        let plan = LogicalPlan {
            view: "t".into(),
            nodes: vec![
                LogicalNode::Annotate(AnnotateNode {
                    name: "ann".into(),
                    service_type: iri("A"),
                    repository: "cache".into(),
                    persistent: false,
                    provides: vec![iri("X")],
                }),
                LogicalNode::Enrich(EnrichNode { fetches: vec![(iri("X"), "cache".into())] }),
                LogicalNode::Consolidate,
                LogicalNode::Act(ActNode {
                    name: "keep".into(),
                    kind: ActKind::Filter { condition: "X > 0".into() },
                }),
            ],
        };
        let names: Vec<&str> = plan.nodes.iter().map(|n| n.name()).collect();
        assert_eq!(names, vec!["ann", ENRICH_NODE, CONSOLIDATE_NODE, "keep"]);
        assert_eq!(plan.annotators().count(), 1);
        assert_eq!(plan.enrich().unwrap().fetches.len(), 1);
        assert_eq!(plan.repository_persistence(), vec![("cache".to_string(), false)]);
    }

    #[test]
    fn act_conditions_label_filters_and_groups() {
        let filter =
            ActNode { name: "keep".into(), kind: ActKind::Filter { condition: "x".into() } };
        assert_eq!(filter.conditions(), vec![("keep", "x")]);
        let split = ActNode {
            name: "triage".into(),
            kind: ActKind::Split {
                groups: vec![("hi".into(), "a".into()), ("lo".into(), "b".into())],
            },
        };
        assert_eq!(split.conditions(), vec![("hi", "a"), ("lo", "b")]);
    }
}
