//! Schema validation for the `qv plan --format json` rendering — the
//! machine-checkable contract behind the `qv plan-check` CI gate.

use qurator_telemetry::json::{parse, Value};

/// Validates one `qv plan --format json` document. Returns the number of
/// plan nodes on success, or a description of the first violation.
pub fn validate_plan_json(text: &str) -> Result<usize, String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let obj = doc.as_object().ok_or("top level must be an object")?;

    require_str(&doc, "view")?;
    require_bool(&doc, "optimized")?;
    for key in ["passes", "waves", "annotate", "enrich", "assert", "act"] {
        if !obj.contains_key(key) {
            return Err(format!("missing required key {key:?}"));
        }
    }

    let passes = require_array(&doc, "passes")?;
    if passes.is_empty() {
        return Err("passes must not be empty (wave-schedule always runs)".into());
    }
    for (i, pass) in passes.iter().enumerate() {
        require_str(pass, "pass").map_err(|e| format!("passes[{i}]: {e}"))?;
        require_u64(pass, "duration_us").map_err(|e| format!("passes[{i}]: {e}"))?;
        require_bool(pass, "changed").map_err(|e| format!("passes[{i}]: {e}"))?;
        let notes = require_array(pass, "notes").map_err(|e| format!("passes[{i}]: {e}"))?;
        if notes.iter().any(|n| n.as_str().is_none()) {
            return Err(format!("passes[{i}]: notes must be strings"));
        }
    }

    let waves = require_array(&doc, "waves")?;
    if waves.is_empty() {
        return Err("waves must not be empty".into());
    }
    let mut scheduled = 0usize;
    for (i, wave) in waves.iter().enumerate() {
        let names = wave.as_array().ok_or(format!("waves[{i}] must be an array"))?;
        if names.is_empty() {
            return Err(format!("waves[{i}] is empty"));
        }
        if names.iter().any(|n| n.as_str().is_none()) {
            return Err(format!("waves[{i}]: node names must be strings"));
        }
        scheduled += names.len();
    }

    let mut nodes = 0usize;
    for (i, a) in require_array(&doc, "annotate")?.iter().enumerate() {
        require_str(a, "name").map_err(|e| format!("annotate[{i}]: {e}"))?;
        require_str(a, "service_type").map_err(|e| format!("annotate[{i}]: {e}"))?;
        require_str(a, "repository").map_err(|e| format!("annotate[{i}]: {e}"))?;
        require_bool(a, "persistent").map_err(|e| format!("annotate[{i}]: {e}"))?;
        require_array(a, "provides").map_err(|e| format!("annotate[{i}]: {e}"))?;
        nodes += 1;
    }
    for (i, g) in require_array(&doc, "enrich")?.iter().enumerate() {
        require_str(g, "repository").map_err(|e| format!("enrich[{i}]: {e}"))?;
        let evidence = require_array(g, "evidence").map_err(|e| format!("enrich[{i}]: {e}"))?;
        if evidence.is_empty() {
            return Err(format!("enrich[{i}]: evidence must not be empty"));
        }
    }
    for (i, a) in require_array(&doc, "assert")?.iter().enumerate() {
        require_str(a, "name").map_err(|e| format!("assert[{i}]: {e}"))?;
        require_str(a, "tag").map_err(|e| format!("assert[{i}]: {e}"))?;
        let kind = require_str(a, "tag_kind").map_err(|e| format!("assert[{i}]: {e}"))?;
        if kind != "score" && kind != "class" {
            return Err(format!(
                "assert[{i}]: tag_kind must be \"score\" or \"class\", got {kind:?}"
            ));
        }
        for (j, b) in require_array(a, "bindings")
            .map_err(|e| format!("assert[{i}]: {e}"))?
            .iter()
            .enumerate()
        {
            require_str(b, "variable").map_err(|e| format!("assert[{i}].bindings[{j}]: {e}"))?;
            let kind =
                require_str(b, "kind").map_err(|e| format!("assert[{i}].bindings[{j}]: {e}"))?;
            if kind != "evidence" && kind != "tag" {
                return Err(format!(
                    "assert[{i}].bindings[{j}]: kind must be \"evidence\" or \"tag\""
                ));
            }
            require_str(b, "source").map_err(|e| format!("assert[{i}].bindings[{j}]: {e}"))?;
        }
        require_array(a, "depends_on").map_err(|e| format!("assert[{i}]: {e}"))?;
        nodes += 1;
    }
    for (i, act) in require_array(&doc, "act")?.iter().enumerate() {
        require_str(act, "name").map_err(|e| format!("act[{i}]: {e}"))?;
        let kind = require_str(act, "kind").map_err(|e| format!("act[{i}]: {e}"))?;
        if kind != "filter" && kind != "split" {
            return Err(format!("act[{i}]: kind must be \"filter\" or \"split\", got {kind:?}"));
        }
        let conditions = require_array(act, "conditions").map_err(|e| format!("act[{i}]: {e}"))?;
        if conditions.is_empty() {
            return Err(format!("act[{i}]: conditions must not be empty"));
        }
        for (j, c) in conditions.iter().enumerate() {
            require_str(c, "label").map_err(|e| format!("act[{i}].conditions[{j}]: {e}"))?;
            require_str(c, "condition").map_err(|e| format!("act[{i}].conditions[{j}]: {e}"))?;
        }
        nodes += 1;
    }

    // + Enrich + Consolidate: every plan schedules both exactly once
    if scheduled != nodes + 2 {
        return Err(format!(
            "schedule covers {scheduled} node(s) but the plan defines {} (+ Enrich + Consolidate)",
            nodes
        ));
    }
    Ok(nodes + 2)
}

fn require_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key).and_then(|v| v.as_array()).ok_or(format!("{key:?} must be an array"))
}

fn require_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(|v| v.as_str()).ok_or(format!("{key:?} must be a string"))
}

fn require_bool(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key).and_then(|v| v.as_bool()).ok_or(format!("{key:?} must be a boolean"))
}

fn require_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(|v| v.as_u64()).ok_or(format!("{key:?} must be a non-negative integer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{
        ActKind, ActNode, AnnotateNode, AssertNode, Binding, EnrichNode, LogicalNode, LogicalPlan,
        TagKind,
    };
    use crate::passes::lower;
    use crate::physical::PlanConfig;
    use crate::render::render_json;
    use qurator_rdf::term::Iri;

    fn rendered() -> String {
        let iri = |s: &str| Iri::new(format!("http://example.org/ont#{s}"));
        let logical = LogicalPlan {
            view: "sample".into(),
            nodes: vec![
                LogicalNode::Annotate(AnnotateNode {
                    name: "ann".into(),
                    service_type: iri("Imprint"),
                    repository: "cache".into(),
                    persistent: false,
                    provides: vec![iri("HitRatio")],
                }),
                LogicalNode::Enrich(EnrichNode {
                    fetches: vec![(iri("HitRatio"), "cache".into())],
                }),
                LogicalNode::Assert(AssertNode {
                    name: "qa".into(),
                    service_type: iri("Score"),
                    tag: "HR".into(),
                    tag_kind: TagKind::Score,
                    labels: Vec::new(),
                    bindings: vec![("h".into(), Binding::Evidence(iri("HitRatio")))],
                }),
                LogicalNode::Consolidate,
                LogicalNode::Act(ActNode {
                    name: "keep".into(),
                    kind: ActKind::Filter { condition: "HR > 0".into() },
                }),
            ],
        };
        render_json(&lower(&logical, &PlanConfig::default()).unwrap())
    }

    #[test]
    fn rendered_plans_validate() {
        let count = validate_plan_json(&rendered()).expect("schema-valid");
        assert_eq!(count, 5); // ann + Enrich + qa + Consolidate + keep
    }

    #[test]
    fn mutations_are_rejected() {
        let good = rendered();
        for (needle, replacement) in [
            ("\"optimized\": true", "\"optimized\": \"yes\""),
            ("\"tag_kind\": \"score\"", "\"tag_kind\": \"scored\""),
            ("\"kind\": \"filter\"", "\"kind\": \"filters\""),
            ("\"waves\": [", "\"tides\": ["),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "mutation {needle:?} did not apply");
            assert!(validate_plan_json(&bad).is_err(), "accepted mutated {needle:?}");
        }
        assert!(validate_plan_json("not json").is_err());
        assert!(validate_plan_json("[]").is_err());
    }
}
