//! Observed plan-node statistics — the EXPLAIN ANALYZE substrate.
//!
//! Every execution of a quality view records, per plan node, what the
//! operators actually saw: rows in/out, observed evidence cardinality,
//! per-item hit counts and wall time. Three types carry the data:
//!
//! * [`NodeStats`] — one node's observed counters for one run (summed
//!   across calls, so a node invoked once per worker merges like the
//!   span tree: counts add, wall time adds);
//! * [`RunStats`] — the per-run roll-up: every node keyed by plan-node
//!   name, plus the input cardinality. Produced by draining a
//!   [`StatsCollector`];
//! * [`StatsProfile`] — the persisted per-view aggregate: an
//!   exponentially-decayed average of each node's counters across runs,
//!   keyed by a stable view hash. This is what the plan pass pipeline
//!   reads back (`qurator_plan::passes::lower_with_profile`) so later
//!   optimizer decisions can consult real cardinalities instead of
//!   guessing — the cost-model hook.
//!
//! The collector is shared by *both* execution paths: the interpreter
//! and the compiled workflow wrap the same operator processors, which
//! record into the collector inside their shared methods. Recording is a
//! handful of integer adds under a short mutex hold (node counts are
//! small: one touch per node per run, not per item), cheap enough to
//! leave on permanently (the `+ stats` step of
//! `BENCH_telemetry_ladder.json` prices it).

use crate::json::{escape, parse, Value};
use crate::runid::RunId;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Default decay factor for [`StatsProfile`] averages: each new run
/// contributes 30%, history 70% (`avg' = α·new + (1−α)·avg`).
pub const DEFAULT_DECAY: f64 = 0.3;

/// One plan node's observed counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Operator invocations folded into this record (parallel workers
    /// merge by summing, like span-tree merge).
    pub calls: u64,
    /// Data items entering the node.
    pub rows_in: u64,
    /// Data items leaving the node (sum of group sizes for actions).
    pub rows_out: u64,
    /// Evidence values observed (annotations written for annotators,
    /// evidence entries fetched for enrichment).
    pub evidence: u64,
    /// Items the node "hit": rows with ≥1 evidence value for enrichment,
    /// rows tagged for assertions, rows accepted for actions.
    pub hits: u64,
    /// Wall time spent inside the operator, summed across calls.
    pub wall_ns: u64,
}

impl NodeStats {
    /// Folds another sample into this one (all counters sum).
    pub fn merge(&mut self, other: &NodeStats) {
        self.calls += other.calls;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.evidence += other.evidence;
        self.hits += other.hits;
        self.wall_ns += other.wall_ns;
    }
}

/// The per-run statistics roll-up: one [`NodeStats`] per plan node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// View name the run executed.
    pub view: String,
    /// The run id, when the host minted one.
    pub run_id: Option<RunId>,
    /// Input data-set cardinality.
    pub items: u64,
    /// Observed counters keyed by plan-node name.
    pub nodes: BTreeMap<String, NodeStats>,
}

impl RunStats {
    /// The stats of one node, if it recorded any.
    pub fn node(&self, name: &str) -> Option<&NodeStats> {
        self.nodes.get(name)
    }

    /// Merges another run's counters into this one: node counters and
    /// the input cardinality add, so `qv profile --runs N` reports the
    /// sum of its N runs.
    pub fn merge(&mut self, other: &RunStats) {
        self.items += other.items;
        for (name, stats) in &other.nodes {
            self.nodes.entry(name.clone()).or_default().merge(stats);
        }
    }

    /// Total wall nanoseconds across all nodes.
    pub fn total_wall_ns(&self) -> u64 {
        self.nodes.values().map(|n| n.wall_ns).sum()
    }

    /// Serialises to one JSON object (the `/runs/<id>` join format).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"type\":\"run_stats\"");
        out.push_str(&format!(",\"view\":\"{}\"", escape(&self.view)));
        match self.run_id {
            Some(run) => out.push_str(&format!(",\"run_id\":\"{run}\"")),
            None => out.push_str(",\"run_id\":null"),
        }
        out.push_str(&format!(",\"items\":{}", self.items));
        out.push_str(",\"nodes\":{");
        let mut first = true;
        for (name, n) in &self.nodes {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"rows_in\":{},\"rows_out\":{},\"evidence\":{},\"hits\":{},\"wall_ns\":{}}}",
                escape(name), n.calls, n.rows_in, n.rows_out, n.evidence, n.hits, n.wall_ns
            ));
        }
        out.push_str("}}");
        out
    }

    /// Parses the [`Self::to_json`] format back.
    pub fn parse(input: &str) -> Result<RunStats, String> {
        let value = parse(input)?;
        let obj = value.as_object().ok_or("run stats must be a JSON object")?;
        if value.get("type").and_then(|v| v.as_str()) != Some("run_stats") {
            return Err("type is not \"run_stats\"".into());
        }
        let view =
            obj.get("view").and_then(|v| v.as_str()).ok_or("view must be a string")?.to_string();
        let run_id = match obj.get("run_id") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_str().and_then(RunId::parse).ok_or("run_id must be null or 16 hex chars")?,
            ),
        };
        let items = obj.get("items").and_then(|v| v.as_u64()).ok_or("items must be an integer")?;
        let mut nodes = BTreeMap::new();
        let node_obj =
            obj.get("nodes").and_then(|v| v.as_object()).ok_or("nodes must be an object")?;
        for (name, v) in node_obj {
            nodes.insert(name.clone(), parse_node_counters(v)?);
        }
        Ok(RunStats { view, run_id, items, nodes })
    }
}

fn parse_node_counters(v: &Value) -> Result<NodeStats, String> {
    let obj = v.as_object().ok_or("node stats must be an object")?;
    let int = |key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("node counter {key:?} must be a non-negative integer"))
    };
    Ok(NodeStats {
        calls: int("calls")?,
        rows_in: int("rows_in")?,
        rows_out: int("rows_out")?,
        evidence: int("evidence")?,
        hits: int("hits")?,
        wall_ns: int("wall_ns")?,
    })
}

/// The thread-safe recording sink the operator processors write into.
///
/// One collector is created per bound plan; processors hold clones of the
/// `Arc` and record once per invocation. Parallel enactment workers
/// record concurrently; their samples merge by summation, so parallel
/// and sequential executions of the same plan over the same data produce
/// identical row counts.
#[derive(Debug, Default)]
pub struct StatsCollector {
    enabled: AtomicBool,
    nodes: Mutex<BTreeMap<String, NodeStats>>,
}

impl StatsCollector {
    /// A fresh, enabled collector.
    pub fn new() -> Self {
        StatsCollector { enabled: AtomicBool::new(true), nodes: Mutex::new(BTreeMap::new()) }
    }

    /// Whether recording is on (processors check this before counting, so
    /// a disabled collector costs one relaxed load per node call).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Folds one operator invocation's sample into the node's counters.
    pub fn record(&self, node: &str, sample: NodeStats) {
        if !self.enabled() {
            return;
        }
        let mut nodes = self.nodes.lock().unwrap_or_else(|p| p.into_inner());
        match nodes.get_mut(node) {
            Some(existing) => existing.merge(&sample),
            None => {
                nodes.insert(node.to_string(), sample);
            }
        }
    }

    /// Takes everything recorded so far as a [`RunStats`] and resets the
    /// collector for the next run (a compiled workflow reuses its bound
    /// operators, and so this collector, across enactments).
    pub fn drain(&self, view: &str, run_id: Option<RunId>, items: u64) -> RunStats {
        let nodes = std::mem::take(&mut *self.nodes.lock().unwrap_or_else(|p| p.into_inner()));
        RunStats { view: view.to_string(), run_id, items, nodes }
    }
}

/// A stable hash of a view's statistical identity: the view name plus
/// its plan-node names, FNV-1a folded. Profiles are keyed by this so a
/// structurally-edited view (nodes added/removed/renamed) starts a fresh
/// profile instead of decaying against stale shapes.
pub fn view_key<'a>(view: &str, node_names: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    fold(view.as_bytes());
    for name in node_names {
        fold(&[0x1f]); // unit separator: ("ab","c") ≠ ("a","bc")
        fold(name.as_bytes());
    }
    hash
}

/// One node's exponentially-decayed averages in a [`StatsProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeProfile {
    pub calls: f64,
    pub rows_in: f64,
    pub rows_out: f64,
    pub evidence: f64,
    pub hits: f64,
    pub wall_ns: f64,
}

impl NodeProfile {
    fn observe(&mut self, sample: &NodeStats, alpha: f64, first: bool) {
        let ema = |avg: &mut f64, new: u64| {
            let new = new as f64;
            *avg = if first { new } else { alpha * new + (1.0 - alpha) * *avg };
        };
        ema(&mut self.calls, sample.calls);
        ema(&mut self.rows_in, sample.rows_in);
        ema(&mut self.rows_out, sample.rows_out);
        ema(&mut self.evidence, sample.evidence);
        ema(&mut self.hits, sample.hits);
        ema(&mut self.wall_ns, sample.wall_ns);
    }
}

/// The persisted per-view statistics profile: exponentially-decayed
/// per-node aggregates across runs, keyed by [`view_key`].
///
/// Written under `<store>/stats/<view>.json` (or `--stats-out`) and
/// loadable by the plan pass pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsProfile {
    /// View name.
    pub view: String,
    /// Stable view-shape hash ([`view_key`]).
    pub key: u64,
    /// Runs folded into the averages.
    pub runs: u64,
    /// Decay factor α.
    pub alpha: f64,
    /// Decayed per-node averages.
    pub nodes: BTreeMap<String, NodeProfile>,
}

impl StatsProfile {
    /// An empty profile for a view shape.
    pub fn new(view: impl Into<String>, key: u64) -> Self {
        StatsProfile {
            view: view.into(),
            key,
            runs: 0,
            alpha: DEFAULT_DECAY,
            nodes: BTreeMap::new(),
        }
    }

    /// Folds one run into the decayed averages.
    pub fn observe(&mut self, run: &RunStats) {
        let first = self.runs == 0;
        self.runs += 1;
        for (name, sample) in &run.nodes {
            self.nodes.entry(name.clone()).or_default().observe(sample, self.alpha, first);
        }
    }

    /// One node's decayed averages.
    pub fn node(&self, name: &str) -> Option<&NodeProfile> {
        self.nodes.get(name)
    }

    /// Serialises to one JSON object. The key is rendered as a hex
    /// string — JSON numbers are doubles and cannot carry a u64 exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"type\":\"stats_profile\"");
        out.push_str(&format!(",\"view\":\"{}\"", escape(&self.view)));
        out.push_str(&format!(",\"key\":\"{:016x}\"", self.key));
        out.push_str(&format!(",\"runs\":{}", self.runs));
        out.push_str(&format!(",\"alpha\":{}", self.alpha));
        out.push_str(",\"nodes\":{");
        let mut first = true;
        for (name, n) in &self.nodes {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"rows_in\":{},\"rows_out\":{},\"evidence\":{},\"hits\":{},\"wall_ns\":{}}}",
                escape(name),
                fmt(n.calls),
                fmt(n.rows_in),
                fmt(n.rows_out),
                fmt(n.evidence),
                fmt(n.hits),
                fmt(n.wall_ns)
            ));
        }
        out.push_str("}}\n");
        out
    }

    /// Parses the [`Self::to_json`] format back.
    pub fn parse(input: &str) -> Result<StatsProfile, String> {
        let value = parse(input.trim())?;
        let obj = value.as_object().ok_or("stats profile must be a JSON object")?;
        if value.get("type").and_then(|v| v.as_str()) != Some("stats_profile") {
            return Err("type is not \"stats_profile\"".into());
        }
        let view =
            obj.get("view").and_then(|v| v.as_str()).ok_or("view must be a string")?.to_string();
        let key = obj
            .get("key")
            .and_then(|v| v.as_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("key must be a hex string")?;
        let runs = obj.get("runs").and_then(|v| v.as_u64()).ok_or("runs must be an integer")?;
        let alpha = obj.get("alpha").and_then(|v| v.as_f64()).ok_or("alpha must be a number")?;
        if !(0.0..=1.0).contains(&alpha) {
            return Err(format!("alpha {alpha} outside [0, 1]"));
        }
        let mut nodes = BTreeMap::new();
        let node_obj =
            obj.get("nodes").and_then(|v| v.as_object()).ok_or("nodes must be an object")?;
        for (name, v) in node_obj {
            let n = v.as_object().ok_or("node profile must be an object")?;
            let num = |key: &str| -> Result<f64, String> {
                n.get(key)
                    .and_then(|v| v.as_f64())
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| format!("node average {key:?} must be a non-negative number"))
            };
            nodes.insert(
                name.clone(),
                NodeProfile {
                    calls: num("calls")?,
                    rows_in: num("rows_in")?,
                    rows_out: num("rows_out")?,
                    evidence: num("evidence")?,
                    hits: num("hits")?,
                    wall_ns: num("wall_ns")?,
                },
            );
        }
        Ok(StatsProfile { view, key, runs, alpha, nodes })
    }

    /// Writes the profile to `path` (parent directories created).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Loads a profile from `path`.
    pub fn load(path: &Path) -> Result<StatsProfile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The profile file name for a view under a stats directory:
/// non-alphanumeric view-name characters are flattened so arbitrary view
/// names cannot escape the directory.
pub fn profile_file_name(view: &str) -> String {
    let safe: String = view
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("{safe}.json")
}

/// JSON-safe float (finite values only reach here, but stay defensive).
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: u64) -> NodeStats {
        NodeStats {
            calls: 1,
            rows_in: rows,
            rows_out: rows,
            evidence: rows * 3,
            hits: rows,
            wall_ns: 1000,
        }
    }

    #[test]
    fn collector_merges_concurrent_samples_by_summation() {
        let collector = std::sync::Arc::new(StatsCollector::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = collector.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        c.record("Enrich", sample(5));
                    }
                });
            }
        });
        let run = collector.drain("v", None, 5);
        let n = run.node("Enrich").unwrap();
        assert_eq!(n.calls, 200);
        assert_eq!(n.rows_in, 1000);
        assert_eq!(n.evidence, 3000);
        // drained: next run starts clean
        assert!(collector.drain("v", None, 5).nodes.is_empty());
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let collector = StatsCollector::new();
        collector.set_enabled(false);
        collector.record("x", sample(9));
        assert!(collector.drain("v", None, 0).nodes.is_empty());
    }

    #[test]
    fn run_stats_round_trip_json() {
        let mut run = RunStats {
            view: "fig1".into(),
            run_id: RunId::parse("00000000deadbeef"),
            items: 5,
            nodes: BTreeMap::new(),
        };
        run.nodes.insert("Enrich".into(), sample(5));
        run.nodes.insert(
            "keep".into(),
            NodeStats { calls: 1, rows_in: 5, rows_out: 3, evidence: 0, hits: 3, wall_ns: 42 },
        );
        let parsed = RunStats::parse(&run.to_json()).unwrap();
        assert_eq!(parsed, run);

        let no_run = RunStats { run_id: None, ..run };
        assert_eq!(RunStats::parse(&no_run.to_json()).unwrap().run_id, None);
    }

    #[test]
    fn profile_decay_math() {
        let mut profile = StatsProfile::new("v", 7);
        let mut run = RunStats::default();
        run.nodes.insert("n".into(), sample(10));
        profile.observe(&run);
        // first run seeds the average exactly
        assert_eq!(profile.node("n").unwrap().rows_in, 10.0);

        let mut run2 = RunStats::default();
        run2.nodes.insert("n".into(), sample(20));
        profile.observe(&run2);
        // α·20 + (1−α)·10 with α = 0.3
        let expect = 0.3 * 20.0 + 0.7 * 10.0;
        assert!((profile.node("n").unwrap().rows_in - expect).abs() < 1e-9);
        assert_eq!(profile.runs, 2);
    }

    #[test]
    fn profile_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("qv-stats-{}", std::process::id()));
        let mut profile = StatsProfile::new("my view!", view_key("my view!", ["a", "b"]));
        let mut run = RunStats::default();
        run.nodes.insert("a".into(), sample(3));
        profile.observe(&run);
        let path = dir.join(profile_file_name("my view!"));
        profile.save(&path).unwrap();
        let loaded = StatsProfile::load(&path).unwrap();
        assert_eq!(loaded, profile);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn view_key_is_shape_sensitive() {
        assert_eq!(view_key("v", ["a", "b"]), view_key("v", ["a", "b"]));
        assert_ne!(view_key("v", ["a", "b"]), view_key("v", ["a"]));
        assert_ne!(view_key("v", ["a", "b"]), view_key("w", ["a", "b"]));
        assert_ne!(view_key("v", ["ab", "c"]), view_key("v", ["a", "bc"]));
    }

    #[test]
    fn parse_rejects_malformed_profiles() {
        assert!(StatsProfile::parse("{}").is_err());
        assert!(StatsProfile::parse("{\"type\":\"stats_profile\",\"view\":\"v\",\"key\":\"zz\",\"runs\":0,\"alpha\":0.3,\"nodes\":{}}").is_err());
        let bad_alpha = "{\"type\":\"stats_profile\",\"view\":\"v\",\"key\":\"1f\",\"runs\":0,\"alpha\":7,\"nodes\":{}}";
        assert!(StatsProfile::parse(bad_alpha).unwrap_err().contains("alpha"));
    }
}
