//! Metric-name convention lint.
//!
//! Every metric this workspace registers follows
//! `<subsystem>.<noun>.<verb|unit>` — two to three dots, lowercase
//! `snake_case` segments (`store.wal.fsync_ns`, `plan.pass.duration_us`).
//! [`ALLOWLIST`] is the committed registry of names; a metric that is not
//! listed here fails `qv telemetry-check`, so new instrumentation cannot
//! silently drift from the scheme. A handful of pre-convention names are
//! [`GRANDFATHERED`] — allowed to keep their historical shape but closed
//! to imitation.

use std::collections::BTreeSet;

/// Every metric name the workspace may register, sorted. Add new metrics
/// here (and keep them convention-clean) before registering them.
pub const ALLOWLIST: &[&str] = &[
    "annotations.write.count",
    "enact.node.duration_ns",
    "enact.wave.width",
    "engine.execute.count",
    "enrich.bulk.calls",
    "enrich.bulk.dense",
    "enrich.bulk.latency_ns",
    "enrich.bulk.rows",
    "enrich.bulk.sparse",
    "enrich.lookup.count",
    "enrich.lookup.latency_ns",
    "enrich.op.items",
    "enrich.op.latency_ns",
    "lint.diagnostics",
    "lint.pass.duration_us",
    "lint.pass.runs",
    "plan.pass.duration_us",
    "plan.pass.runs",
    "qa.assert.count",
    "qa.classify.count",
    "serve.accesslog.sink_error",
    "serve.queue.depth",
    "serve.read.error",
    "serve.read.timeout",
    "serve.request.latency",
    "serve.requests",
    "serve.shed.count",
    "serve.write_error",
    "slo.budget.remaining",
    "slo.burn.rate",
    "sparql.query.count",
    "sparql.query.latency_ns",
    "sparql.result.rows",
    "store.base.triples",
    "store.compact.count",
    "store.compact.duration_us",
    "store.compact.folded",
    "store.dict.bytes",
    "store.dict.terms",
    "store.wal.append_ns",
    "store.wal.batch_records",
    "store.wal.fsync_ns",
];

/// Pre-convention names (fewer than three segments) that predate the
/// lint. Closed set: do not add to it — rename instead.
pub const GRANDFATHERED: &[&str] = &["lint.diagnostics", "serve.requests", "serve.write_error"];

/// Suffixes the Prometheus exposition appends to a histogram's base name.
const HISTOGRAM_SUFFIXES: &[&str] = &["_bucket", "_count", "_sum", "_p50", "_p95"];

/// Strips `{labels}` and histogram exposition suffixes from a rendered
/// series name, yielding the registered base name.
pub fn base_name(series: &str) -> &str {
    let name = series.split('{').next().unwrap_or(series);
    for suffix in HISTOGRAM_SUFFIXES {
        if let Some(stripped) = name.strip_suffix(suffix) {
            // Only strip when what remains is itself a plausible metric
            // name (so a counter literally named `foo.bar_count` — none
            // exist — would still lint against its full name).
            if stripped.contains('.') {
                return stripped;
            }
        }
    }
    name
}

/// Structural convention check: 3–4 lowercase snake_case segments.
pub fn convention_ok(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    if !(3..=4).contains(&segments.len()) {
        return false;
    }
    segments.iter().all(|seg| {
        let mut chars = seg.chars();
        matches!(chars.next(), Some('a'..='z'))
            && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// Checks one registered base name against convention + allowlist.
pub fn check_name(name: &str) -> Result<(), String> {
    if !ALLOWLIST.contains(&name) {
        return Err(format!(
            "metric {name:?} is not in the committed allowlist (telemetry::naming::ALLOWLIST)"
        ));
    }
    if !convention_ok(name) && !GRANDFATHERED.contains(&name) {
        return Err(format!(
            "metric {name:?} violates the <subsystem>.<noun>.<verb|unit> convention and is not grandfathered"
        ));
    }
    Ok(())
}

/// Lints a Prometheus-style metrics exposition: every series' base name
/// must pass [`check_name`]. Returns the number of distinct base names
/// checked, or every violation found.
pub fn lint_metrics_text(input: &str) -> Result<usize, Vec<String>> {
    let mut names = BTreeSet::new();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, _value)) = line.rsplit_once(' ') else { continue };
        names.insert(base_name(series).to_string());
    }
    let errors: Vec<String> = names.iter().filter_map(|name| check_name(name).err()).collect();
    if errors.is_empty() {
        Ok(names.len())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_is_sorted_and_unique() {
        let mut sorted = ALLOWLIST.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, ALLOWLIST, "keep ALLOWLIST sorted and duplicate-free");
    }

    #[test]
    fn every_allowlisted_name_is_convention_clean_or_grandfathered() {
        for name in ALLOWLIST {
            assert!(
                convention_ok(name) || GRANDFATHERED.contains(name),
                "{name} violates the naming convention without being grandfathered"
            );
        }
        for name in GRANDFATHERED {
            assert!(ALLOWLIST.contains(name), "{name} grandfathered but not allowlisted");
            assert!(!convention_ok(name), "{name} is convention-clean; drop it from GRANDFATHERED");
        }
    }

    #[test]
    fn base_name_strips_labels_and_histogram_suffixes() {
        assert_eq!(base_name("serve.requests{route=\"/run\",status=\"200\"}"), "serve.requests");
        assert_eq!(base_name("store.wal.fsync_ns_bucket{le=\"1024\"}"), "store.wal.fsync_ns");
        assert_eq!(base_name("store.wal.fsync_ns_p95"), "store.wal.fsync_ns");
        assert_eq!(base_name("enrich.lookup.count"), "enrich.lookup.count");
    }

    #[test]
    fn check_name_rejects_unknown_and_malformed() {
        assert!(check_name("store.wal.fsync_ns").is_ok());
        assert!(check_name("serve.requests").is_ok()); // grandfathered
        assert!(check_name("totally.new.metric").unwrap_err().contains("allowlist"));
        assert!(check_name("Bad.Name.Case").is_err());
    }

    #[test]
    fn lint_walks_an_exposition() {
        let good = "# comment\nenrich.op.items 5\nserve.requests{route=\"/run\"} 2\nplan.pass.duration_us_p50 10\n";
        assert_eq!(lint_metrics_text(good), Ok(3));
        let bad = "rogue.metric 1\n";
        let errs = lint_metrics_text(bad).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("rogue.metric"));
    }
}
