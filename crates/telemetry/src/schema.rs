//! In-tree schema checks for the telemetry artifacts the CLI emits.
//! The CI smoke job runs the Fig. 1 workflow with `--trace-out` /
//! `--metrics-out` and feeds the files through these validators, so the
//! export format can't silently drift.

use crate::accesslog::PHASES;
use crate::json::{parse, Value};

/// Validates a span JSON-lines document (as produced by
/// [`crate::span::SpanTrace::to_jsonl`]). Returns the number of span
/// lines on success.
///
/// Checks per line: valid JSON object; `type == "span"`; `id` a positive
/// integer, unique across the file; `parent` null or a previously-unseen
/// ok id (forward references allowed — parents may merge after
/// children); `name` a string; `kind` one of the known kinds;
/// `start_ns`/`end_ns` integers with `end_ns >= start_ns` (end may not
/// be null: exported traces are finished); `attrs` an object.
/// Whole-file check: every non-null parent id must exist in the file.
///
/// Lines with `type == "trace"` — the per-run header lines of
/// `GET /traces/recent` (`qurator::ledger::RunLedger::recent_jsonl`) —
/// are validated for shape (string `view`, 16-hex-char `run_id`, integer
/// `rejected`/`root_duration_ns`/`spans`, boolean `error`) but not
/// counted in the returned span total.
pub fn validate_trace_jsonl(input: &str) -> Result<usize, String> {
    let mut ids = std::collections::BTreeSet::new();
    let mut parents: Vec<(usize, u64)> = Vec::new();
    let mut count = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        let value = parse(line).map_err(|e| format!("line {n}: invalid JSON: {e}"))?;
        let obj = value.as_object().ok_or_else(|| format!("line {n}: not an object"))?;
        let kind_of = |key: &str| -> Result<&Value, String> {
            obj.get(key).ok_or_else(|| format!("line {n}: missing key {key:?}"))
        };
        match kind_of("type")?.as_str() {
            Some("span") => {}
            // per-run header lines (`GET /traces/recent`): validated for
            // shape, not counted as spans
            Some("trace") => {
                if kind_of("view")?.as_str().is_none() {
                    return Err(format!("line {n}: trace view must be a string"));
                }
                let run = kind_of("run_id")?
                    .as_str()
                    .ok_or_else(|| format!("line {n}: trace run_id must be a string"))?;
                if crate::runid::RunId::parse(run).is_none() {
                    return Err(format!("line {n}: run_id {run:?} is not 16 hex chars"));
                }
                for key in ["rejected", "root_duration_ns", "spans"] {
                    kind_of(key)?
                        .as_u64()
                        .ok_or_else(|| format!("line {n}: trace {key} must be an integer"))?;
                }
                if kind_of("error")?.as_bool().is_none() {
                    return Err(format!("line {n}: trace error must be a boolean"));
                }
                continue;
            }
            _ => return Err(format!("line {n}: type is not \"span\" or \"trace\"")),
        }
        let id = kind_of("id")?
            .as_u64()
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("line {n}: id must be a positive integer"))?;
        if !ids.insert(id) {
            return Err(format!("line {n}: duplicate span id {id}"));
        }
        match kind_of("parent")? {
            Value::Null => {}
            v => {
                let p = v
                    .as_u64()
                    .ok_or_else(|| format!("line {n}: parent must be null or an integer"))?;
                parents.push((n, p));
            }
        }
        if kind_of("name")?.as_str().is_none() {
            return Err(format!("line {n}: name must be a string"));
        }
        let kind =
            kind_of("kind")?.as_str().ok_or_else(|| format!("line {n}: kind must be a string"))?;
        if crate::span::SpanKind::parse(kind).is_none() {
            return Err(format!("line {n}: unknown span kind {kind:?}"));
        }
        let start = kind_of("start_ns")?
            .as_u64()
            .ok_or_else(|| format!("line {n}: start_ns must be an integer"))?;
        let end = kind_of("end_ns")?
            .as_u64()
            .ok_or_else(|| format!("line {n}: end_ns must be an integer (span not closed?)"))?;
        if end < start {
            return Err(format!("line {n}: end_ns < start_ns"));
        }
        if kind_of("attrs")?.as_object().is_none() {
            return Err(format!("line {n}: attrs must be an object"));
        }
        count += 1;
    }
    for (n, p) in parents {
        if !ids.contains(&p) {
            return Err(format!("line {n}: parent {p} does not exist in the trace"));
        }
    }
    Ok(count)
}

/// Validates a structured-access-log JSON-lines document (as produced by
/// [`crate::accesslog::AccessLog::recent_jsonl`] or the `--access-log`
/// file sink). Returns the number of records on success.
///
/// Checks per line: valid JSON object; `type == "access"`; `seq`,
/// `ts_ms`, `status`, `bytes` and `latency_us` non-negative integers
/// with `status` a plausible HTTP code; `phases_ns` an object holding
/// exactly the six [`crate::accesslog::PHASES`] as non-negative integers
/// that sum to `latency_us` within 1 µs; `peer` and `route` strings;
/// `run_id` null or a 16-hex-char string; `shed` and `timeout`
/// booleans; `seq` unique across the file.
pub fn validate_access_log_jsonl(input: &str) -> Result<usize, String> {
    let mut seqs = std::collections::BTreeSet::new();
    let mut count = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        let value = parse(line).map_err(|e| format!("line {n}: invalid JSON: {e}"))?;
        let obj = value.as_object().ok_or_else(|| format!("line {n}: not an object"))?;
        let field = |key: &str| -> Result<&Value, String> {
            obj.get(key).ok_or_else(|| format!("line {n}: missing key {key:?}"))
        };
        if field("type")?.as_str() != Some("access") {
            return Err(format!("line {n}: type is not \"access\""));
        }
        let seq =
            field("seq")?.as_u64().ok_or_else(|| format!("line {n}: seq must be an integer"))?;
        if !seqs.insert(seq) {
            return Err(format!("line {n}: duplicate access-log seq {seq}"));
        }
        for key in ["ts_ms", "bytes"] {
            field(key)?.as_u64().ok_or_else(|| format!("line {n}: {key} must be an integer"))?;
        }
        let latency_us = field("latency_us")?
            .as_u64()
            .ok_or_else(|| format!("line {n}: latency_us must be an integer"))?;
        let phases = field("phases_ns")?
            .as_object()
            .ok_or_else(|| format!("line {n}: phases_ns must be an object"))?;
        if let Some(unknown) = phases.keys().find(|k| !PHASES.contains(&k.as_str())) {
            return Err(format!("line {n}: unknown phase {unknown:?} in phases_ns"));
        }
        let mut sum_ns = 0u64;
        for phase in PHASES {
            sum_ns += phases
                .get(phase)
                .ok_or_else(|| format!("line {n}: phases_ns is missing {phase:?}"))?
                .as_u64()
                .ok_or_else(|| {
                    format!("line {n}: phases_ns.{phase} must be a non-negative integer")
                })?;
        }
        if sum_ns.abs_diff(latency_us.saturating_mul(1_000)) > 1_000 {
            return Err(format!(
                "line {n}: phases_ns sum to {sum_ns} ns, not latency_us {latency_us} within 1 µs"
            ));
        }
        let status = field("status")?
            .as_u64()
            .ok_or_else(|| format!("line {n}: status must be an integer"))?;
        if !(100..=599).contains(&status) {
            return Err(format!("line {n}: implausible HTTP status {status}"));
        }
        for key in ["peer", "route"] {
            if field(key)?.as_str().is_none() {
                return Err(format!("line {n}: {key} must be a string"));
            }
        }
        match field("run_id")? {
            Value::Null => {}
            v => {
                let run = v
                    .as_str()
                    .ok_or_else(|| format!("line {n}: run_id must be null or a string"))?;
                if crate::runid::RunId::parse(run).is_none() {
                    return Err(format!("line {n}: run_id {run:?} is not 16 hex chars"));
                }
            }
        }
        for key in ["shed", "timeout"] {
            if field(key)?.as_bool().is_none() {
                return Err(format!("line {n}: {key} must be a boolean"));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// Validates a Prometheus-style text exposition (as produced by
/// [`crate::metrics::MetricsRegistry::render_prometheus`]). Returns the
/// number of sample lines on success.
///
/// Checks per line: `name[{label="value",…}] number`, metric names
/// matching `[a-zA-Z_:][a-zA-Z0-9_:.]*`, no duplicate series.
pub fn validate_metrics_text(input: &str) -> Result<usize, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut count = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: expected '<series> <value>'"))?;
        let series = series.trim();
        value
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("line {n}: sample value {value:?} is not a number"))?;
        let name = match series.split_once('{') {
            Some((name, rest)) => {
                if !rest.ends_with('}') {
                    return Err(format!("line {n}: unterminated label set"));
                }
                validate_labels(&rest[..rest.len() - 1]).map_err(|e| format!("line {n}: {e}"))?;
                name
            }
            None => series,
        };
        if name.is_empty()
            || !name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':' || c == '.')
        {
            return Err(format!("line {n}: invalid metric name {name:?}"));
        }
        if !seen.insert(series.to_string()) {
            return Err(format!("line {n}: duplicate series {series:?}"));
        }
        count += 1;
    }
    Ok(count)
}

/// Validates a `label="value"` comma-separated list.
fn validate_labels(labels: &str) -> Result<(), String> {
    // split on commas that are not inside a quoted value
    let mut rest = labels;
    while !rest.is_empty() {
        let (key, after_eq) =
            rest.split_once('=').ok_or_else(|| format!("label pair missing '=' in {rest:?}"))?;
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("invalid label name {key:?}"));
        }
        let after_quote =
            after_eq.strip_prefix('"').ok_or_else(|| format!("label {key:?} value not quoted"))?;
        // find the closing quote, honouring backslash escapes
        let mut end = None;
        let bytes = after_quote.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let end = end.ok_or_else(|| format!("label {key:?} value unterminated"))?;
        rest = &after_quote[end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("unexpected characters after label {key:?}"));
        }
    }
    Ok(())
}

/// Validates a `BENCH_<name>.json` artifact (as written by the `bench`
/// crate's `BenchResult::write`). Returns the recorded sample count on
/// success.
///
/// Checks: valid JSON object; `name` and `git_rev` non-empty strings;
/// `config` an object with string values; `samples` a non-negative
/// integer; `median_ms` and `p95_ms` numbers with `p95_ms >= median_ms`
/// when samples were recorded; `metrics` an object with numeric (or
/// null, for non-finite) values.
pub fn validate_bench_json(input: &str) -> Result<usize, String> {
    let value = parse(input).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = value.as_object().ok_or("bench artifact is not a JSON object")?;
    let field = |key: &str| -> Result<&Value, String> {
        obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
    };
    for key in ["name", "git_rev"] {
        match field(key)?.as_str() {
            Some(s) if !s.is_empty() => {}
            _ => return Err(format!("{key} must be a non-empty string")),
        }
    }
    let config = field("config")?.as_object().ok_or("config must be an object")?;
    for (key, value) in config {
        if value.as_str().is_none() {
            return Err(format!("config.{key} must be a string"));
        }
    }
    let samples =
        field("samples")?.as_u64().ok_or("samples must be a non-negative integer")? as usize;
    let median = field("median_ms")?.as_f64().ok_or("median_ms must be a number")?;
    let p95 = field("p95_ms")?.as_f64().ok_or("p95_ms must be a number")?;
    if samples > 0 && (median < 0.0 || p95 < median) {
        return Err(format!("implausible quantiles: median_ms {median}, p95_ms {p95}"));
    }
    let metrics = field("metrics")?.as_object().ok_or("metrics must be an object")?;
    for (key, value) in metrics {
        if value.as_f64().is_none() && !matches!(value, Value::Null) {
            return Err(format!("metrics.{key} must be a number"));
        }
    }
    Ok(samples)
}

/// Validates an EXPLAIN ANALYZE JSON document (as produced by
/// `qurator_plan::render::render_analyze_json`). Returns the number of
/// annotated plan nodes on success.
///
/// Checks: valid JSON object; `type == "analyze"`; `view` a string;
/// `optimized` a boolean; `run_id` null or 16 hex chars; `items` a
/// non-negative integer; `nodes` a non-empty array of objects each
/// carrying a unique string `node`, a known `kind`, integer `calls` /
/// `rows_in` / `rows_out` / `evidence` / `hits` counters and a numeric
/// `wall_us`.
pub fn validate_analyze_json(input: &str) -> Result<usize, String> {
    let value = parse(input.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = value.as_object().ok_or("analyze document is not a JSON object")?;
    let field = |key: &str| -> Result<&Value, String> {
        obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
    };
    if field("type")?.as_str() != Some("analyze") {
        return Err("type is not \"analyze\"".into());
    }
    if field("view")?.as_str().is_none() {
        return Err("view must be a string".into());
    }
    if field("optimized")?.as_bool().is_none() {
        return Err("optimized must be a boolean".into());
    }
    match field("run_id")? {
        Value::Null => {}
        v => {
            let run = v.as_str().ok_or("run_id must be null or a string")?;
            if crate::runid::RunId::parse(run).is_none() {
                return Err(format!("run_id {run:?} is not 16 hex chars"));
            }
        }
    }
    field("items")?.as_u64().ok_or("items must be a non-negative integer")?;
    let nodes = field("nodes")?.as_array().ok_or("nodes must be an array")?;
    if nodes.is_empty() {
        return Err("nodes must not be empty".into());
    }
    let mut names = std::collections::BTreeSet::new();
    for (i, node) in nodes.iter().enumerate() {
        let obj = node.as_object().ok_or_else(|| format!("nodes[{i}] is not an object"))?;
        let node_field = |key: &str| -> Result<&Value, String> {
            obj.get(key).ok_or_else(|| format!("nodes[{i}] missing key {key:?}"))
        };
        let name = node_field("node")?
            .as_str()
            .ok_or_else(|| format!("nodes[{i}].node must be a string"))?;
        if !names.insert(name.to_string()) {
            return Err(format!("duplicate node {name:?}"));
        }
        let kind = node_field("kind")?
            .as_str()
            .ok_or_else(|| format!("nodes[{i}].kind must be a string"))?;
        if !matches!(kind, "annotate" | "enrich" | "assert" | "consolidate" | "act") {
            return Err(format!("nodes[{i}]: unknown node kind {kind:?}"));
        }
        for key in ["calls", "rows_in", "rows_out", "evidence", "hits"] {
            node_field(key)?
                .as_u64()
                .ok_or_else(|| format!("nodes[{i}].{key} must be a non-negative integer"))?;
        }
        node_field("wall_us")?
            .as_f64()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("nodes[{i}].wall_us must be a non-negative number"))?;
    }
    Ok(nodes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_trace_lines() {
        let jsonl = concat!(
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"view:v\",\"kind\":\"view\",\"start_ns\":0,\"end_ns\":10,\"attrs\":{}}\n",
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"wave:0\",\"kind\":\"wave\",\"start_ns\":1,\"end_ns\":9,\"attrs\":{\"width\":2}}\n",
        );
        assert_eq!(validate_trace_jsonl(jsonl).unwrap(), 2);
    }

    #[test]
    fn validates_bench_artifacts() {
        let ok = r#"{"name":"serve_load","git_rev":"abc123","config":{"clients":"8"},
            "samples":3,"median_ms":2,"p95_ms":3,"metrics":{"rps":120.5,"nan":null}}"#;
        assert_eq!(validate_bench_json(ok).unwrap(), 3);

        assert!(validate_bench_json("{}").unwrap_err().contains("missing key"));
        let noname = ok.replace("\"serve_load\"", "\"\"");
        assert!(validate_bench_json(&noname).unwrap_err().contains("non-empty string"));
        let backwards = ok.replace("\"p95_ms\":3", "\"p95_ms\":1");
        assert!(validate_bench_json(&backwards).unwrap_err().contains("implausible"));
        let badmetric = ok.replace("120.5", "\"fast\"");
        assert!(validate_bench_json(&badmetric).unwrap_err().contains("must be a number"));
        assert!(validate_bench_json("not json").unwrap_err().contains("invalid JSON"));
    }

    #[test]
    fn rejects_bad_trace_lines() {
        let dup = concat!(
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"a\",\"kind\":\"view\",\"start_ns\":0,\"end_ns\":1,\"attrs\":{}}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"b\",\"kind\":\"view\",\"start_ns\":0,\"end_ns\":1,\"attrs\":{}}\n",
        );
        assert!(validate_trace_jsonl(dup).unwrap_err().contains("duplicate span id"));

        let orphan =
            "{\"type\":\"span\",\"id\":2,\"parent\":9,\"name\":\"c\",\"kind\":\"node\",\"start_ns\":0,\"end_ns\":1,\"attrs\":{}}\n";
        assert!(validate_trace_jsonl(orphan).unwrap_err().contains("does not exist"));

        let open =
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"d\",\"kind\":\"node\",\"start_ns\":5,\"end_ns\":null,\"attrs\":{}}\n";
        assert!(validate_trace_jsonl(open).unwrap_err().contains("end_ns"));

        let backwards =
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"e\",\"kind\":\"node\",\"start_ns\":5,\"end_ns\":3,\"attrs\":{}}\n";
        assert!(validate_trace_jsonl(backwards).unwrap_err().contains("end_ns < start_ns"));

        let badkind =
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"f\",\"kind\":\"galaxy\",\"start_ns\":0,\"end_ns\":1,\"attrs\":{}}\n";
        assert!(validate_trace_jsonl(badkind).unwrap_err().contains("unknown span kind"));
    }

    #[test]
    fn accepts_and_checks_trace_header_lines() {
        let header = "{\"type\":\"trace\",\"view\":\"fig1\",\"run_id\":\"00000000deadbeef\",\"rejected\":1,\"error\":false,\"root_duration_ns\":42,\"spans\":1}";
        let ok = format!(
            "{header}\n{}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"view:fig1\",\"kind\":\"view\",\"start_ns\":0,\"end_ns\":42,\"attrs\":{}}"
        );
        assert_eq!(validate_trace_jsonl(&ok).unwrap(), 1);

        // every header key is required, with its type
        for (key, value) in [
            ("view", "\"fig1\""),
            ("run_id", "\"00000000deadbeef\""),
            ("rejected", "1"),
            ("error", "false"),
            ("root_duration_ns", "42"),
            ("spans", "1"),
        ] {
            let member = format!("\"{key}\":{value}");
            let missing = header.replace(&format!(",{member}"), "");
            assert_ne!(missing, header, "{key}");
            let err = validate_trace_jsonl(&missing).unwrap_err();
            assert!(err.contains(&format!("missing key \"{key}\"")), "{key}: {err}");
            let mistyped = header.replace(&member, &format!("\"{key}\":[]"));
            let err = validate_trace_jsonl(&mistyped).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }

        let bad_run = header.replace("00000000deadbeef", "xyz");
        assert!(validate_trace_jsonl(&bad_run).unwrap_err().contains("16 hex"));
    }

    #[test]
    fn accepts_and_rejects_access_log_lines() {
        let ok = concat!(
            "{\"type\":\"access\",\"seq\":0,\"ts_ms\":1700000000000,\"peer\":\"127.0.0.1:9\",\"route\":\"/run\",\"status\":200,\"bytes\":120,\"latency_us\":900,\"phases_ns\":{\"read\":100000,\"parse\":50000,\"execute\":600000,\"flush\":20000,\"serialize\":30000,\"write\":100400},\"run_id\":\"00000000deadbeef\",\"shed\":false,\"timeout\":false}\n",
            "{\"type\":\"access\",\"seq\":1,\"ts_ms\":1700000000001,\"peer\":\"-\",\"route\":\"-\",\"status\":503,\"bytes\":0,\"latency_us\":0,\"phases_ns\":{\"read\":0,\"parse\":0,\"execute\":0,\"flush\":0,\"serialize\":0,\"write\":800},\"run_id\":null,\"shed\":true,\"timeout\":false}\n",
        );
        assert_eq!(validate_access_log_jsonl(ok).unwrap(), 2);

        let dup = ok.replace("\"seq\":1", "\"seq\":0");
        assert!(validate_access_log_jsonl(&dup).unwrap_err().contains("duplicate"));
        let bad_status = ok.replace("\"status\":200", "\"status\":9000");
        assert!(validate_access_log_jsonl(&bad_status).unwrap_err().contains("implausible"));
        let bad_run = ok.replace("00000000deadbeef", "nope");
        assert!(validate_access_log_jsonl(&bad_run).unwrap_err().contains("16 hex"));
        let bad_type = ok.replace("\"type\":\"access\"", "\"type\":\"span\"");
        assert!(validate_access_log_jsonl(&bad_type).unwrap_err().contains("access"));
    }

    #[test]
    fn access_log_phases_are_required_and_sum_to_the_latency() {
        let line = |latency_us: u64, phases: &str| {
            format!(
                "{{\"type\":\"access\",\"seq\":0,\"ts_ms\":1,\"peer\":\"-\",\"route\":\"/run\",\"status\":200,\"bytes\":2,\"latency_us\":{latency_us},\"phases_ns\":{phases},\"run_id\":null,\"shed\":false,\"timeout\":false}}\n"
            )
        };
        // 4,000 ns in all, optionally without one phase
        let phases = |without: Option<&str>| {
            let members: Vec<String> = PHASES
                .iter()
                .zip([1_000, 0, 2_500, 0, 0, 500])
                .filter(|(phase, _)| Some(**phase) != without)
                .map(|(phase, ns)| format!("\"{phase}\":{ns}"))
                .collect();
            format!("{{{}}}", members.join(","))
        };
        let all = phases(None);
        assert_eq!(validate_access_log_jsonl(&line(4, &all)).unwrap(), 1);
        // within 1 µs either way
        assert_eq!(validate_access_log_jsonl(&line(3, &all)).unwrap(), 1);
        assert_eq!(validate_access_log_jsonl(&line(5, &all)).unwrap(), 1);

        // a missing phase
        for phase in PHASES {
            let err = validate_access_log_jsonl(&line(4, &phases(Some(phase)))).unwrap_err();
            assert!(err.contains(&format!("phases_ns is missing \"{phase}\"")), "{err}");
        }
        let no_phases = line(4, "null").replace(",\"phases_ns\":null", "");
        let err = validate_access_log_jsonl(&no_phases).unwrap_err();
        assert!(err.contains("missing key \"phases_ns\""), "{err}");
        let unknown = all.replace("\"flush\"", "\"fsync\"");
        let err = validate_access_log_jsonl(&line(4, &unknown)).unwrap_err();
        assert!(err.contains("unknown phase \"fsync\""), "{err}");
        let negative = all.replace("\"write\":500", "\"write\":-500");
        let err = validate_access_log_jsonl(&line(3, &negative)).unwrap_err();
        assert!(err.contains("phases_ns.write must be a non-negative integer"), "{err}");

        // a sum that disagrees with latency_us by more than 1 µs
        let err = validate_access_log_jsonl(&line(6, &all)).unwrap_err();
        assert!(err.contains("phases_ns sum to 4000 ns, not latency_us 6"), "{err}");
        let err = validate_access_log_jsonl(&line(2, &all)).unwrap_err();
        assert!(err.contains("not latency_us 2"), "{err}");
    }

    #[test]
    fn accepts_valid_metrics_text() {
        let text = "enrich.bulk.sparse 120\nlint.diagnostics{code=\"QV017\"} 7\nsparql.query.latency_ns_p95 2047\n";
        assert_eq!(validate_metrics_text(text).unwrap(), 3);
    }

    #[test]
    fn rejects_bad_metrics_text() {
        assert!(validate_metrics_text("not a number line\n").is_err());
        assert!(validate_metrics_text("9bad.name 1\n").is_err());
        assert!(validate_metrics_text("dup 1\ndup 2\n").unwrap_err().contains("duplicate"));
        assert!(validate_metrics_text("m{class=unquoted} 1\n").is_err());
        assert!(validate_metrics_text("m{class=\"open} 1\n").is_err());
    }

    #[test]
    fn accepts_and_rejects_analyze_json() {
        let ok = concat!(
            "{\"type\":\"analyze\",\"view\":\"fig1\",\"optimized\":true,\"run_id\":\"00000000deadbeef\",\"items\":5,",
            "\"nodes\":[",
            "{\"node\":\"ann\",\"kind\":\"annotate\",\"calls\":1,\"rows_in\":5,\"rows_out\":5,\"evidence\":5,\"hits\":5,\"wall_us\":12.5},",
            "{\"node\":\"Enrich\",\"kind\":\"enrich\",\"calls\":1,\"rows_in\":5,\"rows_out\":5,\"evidence\":15,\"hits\":5,\"wall_us\":88}",
            "]}"
        );
        assert_eq!(validate_analyze_json(ok).unwrap(), 2);

        let no_run = ok.replace("\"00000000deadbeef\"", "null");
        assert_eq!(validate_analyze_json(&no_run).unwrap(), 2);
        let bad_kind = ok.replace("\"enrich\"", "\"teleport\"");
        assert!(validate_analyze_json(&bad_kind).unwrap_err().contains("unknown node kind"));
        let dup = ok.replace("\"Enrich\"", "\"ann\"");
        assert!(validate_analyze_json(&dup).unwrap_err().contains("duplicate node"));
        let neg = ok.replace("\"wall_us\":88", "\"wall_us\":-1");
        assert!(validate_analyze_json(&neg).unwrap_err().contains("wall_us"));
        assert!(validate_analyze_json("{}").unwrap_err().contains("missing key"));
    }

    #[test]
    fn registry_output_passes_validation() {
        let registry = crate::metrics::MetricsRegistry::new();
        registry.counter_with("serve.requests", &[("route", "q:\"odd\"")]).inc();
        registry.histogram("store.wal.fsync_ns").record(100);
        registry.gauge("serve.queue.depth").set(4);
        let text = registry.render_prometheus();
        // counter + gauge + histogram (1 non-empty bucket + +Inf + count/sum/p50/p95)
        assert_eq!(validate_metrics_text(&text).unwrap(), 8);
        assert!(text.contains("store.wal.fsync_ns_bucket{le=\"127\"} 1"));
        assert!(text.contains("store.wal.fsync_ns_bucket{le=\"+Inf\"} 1"));
    }
}
