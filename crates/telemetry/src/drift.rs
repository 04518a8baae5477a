//! Quality-drift monitors: sliding-window distributions of QA
//! classification outcomes, compared against a reference window.
//!
//! The paper's Figure 7 experiment is a drift study in miniature — the
//! proportion of hits each score class receives shifts as the underlying
//! data does, and the user's acceptability criteria are exactly a
//! function of that distribution. The monitor watches the per-assertion
//! class counts the QA operators already aggregate, folds them into a
//! **current window** of fixed size, and when the window fills compares
//! it against the **reference window** (the first completed window, or
//! one pinned via [`DriftMonitor::set_reference`]):
//!
//! * **L1 / total-variation distance** `0.5 · Σ_c |p_ref(c) − p_cur(c)|`
//!   over the union of classes — in `[0, 1]`, threshold-friendly;
//! * **χ² statistic** `Σ_c (n_cur(c) − e(c))² / e(c)` with expected
//!   counts `e(c) = p_ref(c) · n_cur`, floored at 0.5 so classes absent
//!   from the reference don't divide by zero.
//!
//! Each comparison sets the `qa.drift.distance{assertion}` gauge (L1 in
//! permille) and, when L1 crosses the configured threshold, appends a
//! [`DriftEvent`] to a bounded in-monitor log that engines poll with
//! [`DriftMonitor::events_since`] and republish into their decision
//! ledger. The monitor is process-global (like the metrics registry) and
//! disabled by default: one relaxed atomic load when off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Drift-monitor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Observations (classified items) per window.
    pub window: u64,
    /// L1 distance in `[0, 1]` at or above which a window counts as
    /// drifted and a [`DriftEvent`] is emitted.
    pub threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { window: 256, threshold: 0.2 }
    }
}

/// Configuration for a long-lived engine's continuous observability
/// (`QualityEngine::enable_observability`): drift detection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Drift-monitor configuration.
    pub drift: DriftConfig,
}

/// One threshold crossing: the current window's distribution moved at
/// least `threshold` (L1) away from the reference.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// Monotone sequence number across all assertions.
    pub seq: u64,
    /// The assertion whose class distribution drifted.
    pub assertion: String,
    /// L1 / total-variation distance, `[0, 1]`.
    pub l1: f64,
    /// χ² statistic of the current window against reference proportions.
    pub chi2: f64,
    /// Reference-window class counts.
    pub reference: BTreeMap<String, u64>,
    /// Current-window class counts at the time of the crossing.
    pub current: BTreeMap<String, u64>,
}

#[derive(Debug, Default, Clone)]
struct AssertionWindows {
    reference: BTreeMap<String, u64>,
    reference_total: u64,
    current: BTreeMap<String, u64>,
    current_total: u64,
    last_l1: Option<f64>,
    last_chi2: Option<f64>,
    windows_compared: u64,
}

/// A point-in-time view of one assertion's monitor state.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSnapshot {
    pub assertion: String,
    pub reference: BTreeMap<String, u64>,
    pub current: BTreeMap<String, u64>,
    pub last_l1: Option<f64>,
    pub last_chi2: Option<f64>,
    pub windows_compared: u64,
}

/// L1 / total-variation distance between two count distributions.
pub fn l1_distance(reference: &BTreeMap<String, u64>, current: &BTreeMap<String, u64>) -> f64 {
    let ref_total: u64 = reference.values().sum();
    let cur_total: u64 = current.values().sum();
    if ref_total == 0 || cur_total == 0 {
        return 0.0;
    }
    let mut classes: std::collections::BTreeSet<&str> =
        reference.keys().map(String::as_str).collect();
    classes.extend(current.keys().map(String::as_str));
    let mut sum = 0.0;
    for class in classes {
        let p_ref = *reference.get(class).unwrap_or(&0) as f64 / ref_total as f64;
        let p_cur = *current.get(class).unwrap_or(&0) as f64 / cur_total as f64;
        sum += (p_ref - p_cur).abs();
    }
    0.5 * sum
}

/// χ² statistic of `current` against the proportions of `reference`.
/// Expected counts are floored at 0.5 (classes unseen in the reference
/// would otherwise divide by zero).
pub fn chi2_statistic(reference: &BTreeMap<String, u64>, current: &BTreeMap<String, u64>) -> f64 {
    let ref_total: u64 = reference.values().sum();
    let cur_total: u64 = current.values().sum();
    if ref_total == 0 || cur_total == 0 {
        return 0.0;
    }
    let mut classes: std::collections::BTreeSet<&str> =
        reference.keys().map(String::as_str).collect();
    classes.extend(current.keys().map(String::as_str));
    let mut sum = 0.0;
    for class in classes {
        let p_ref = *reference.get(class).unwrap_or(&0) as f64 / ref_total as f64;
        let observed = *current.get(class).unwrap_or(&0) as f64;
        let expected = (p_ref * cur_total as f64).max(0.5);
        sum += (observed - expected).powi(2) / expected;
    }
    sum
}

/// Maximum drift events the monitor retains (older ones are dropped —
/// engines republish crossings into their ledger promptly).
const EVENT_CAPACITY: usize = 256;

/// The process-global drift monitor. See the module docs for the model.
#[derive(Default)]
pub struct DriftMonitor {
    enabled: AtomicBool,
    config: RwLock<DriftConfig>,
    windows: Mutex<BTreeMap<String, AssertionWindows>>,
    events: Mutex<Vec<DriftEvent>>,
    next_seq: AtomicU64,
}

impl DriftMonitor {
    /// A fresh, disabled monitor (tests; production uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables the monitor with the given configuration.
    pub fn configure(&self, config: DriftConfig) {
        *self.config.write().unwrap() = config;
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns observation on or off (configuration retained).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the monitor is observing.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Folds one batch of per-class counts for `assertion` into the
    /// current window; compares windows as they fill. The QA operator
    /// path calls this once per (node, batch) with counts it already
    /// aggregated — no per-item cost.
    pub fn observe_bulk<S: AsRef<str>>(&self, assertion: &str, counts: &[(S, u64)]) {
        if !self.enabled() || counts.is_empty() {
            return;
        }
        let config = self.config.read().unwrap().clone();
        let mut windows = self.windows.lock().unwrap();
        let state = windows.entry(assertion.to_string()).or_default();
        for (class, n) in counts {
            *state.current.entry(class.as_ref().to_string()).or_insert(0) += n;
            state.current_total += n;
        }
        while state.current_total >= config.window {
            if state.reference_total == 0 {
                // first completed window becomes the reference
                state.reference = std::mem::take(&mut state.current);
                state.reference_total = state.current_total;
                state.current_total = 0;
                continue;
            }
            let l1 = l1_distance(&state.reference, &state.current);
            let chi2 = chi2_statistic(&state.reference, &state.current);
            state.last_l1 = Some(l1);
            state.last_chi2 = Some(chi2);
            state.windows_compared += 1;
            crate::metrics::global()
                .gauge_with("qa.drift.distance", &[("assertion", assertion)])
                .set((l1 * 1000.0).round() as i64);
            crate::metrics::global()
                .counter_with("qa.drift.windows", &[("assertion", assertion)])
                .inc();
            if l1 >= config.threshold {
                let event = DriftEvent {
                    seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
                    assertion: assertion.to_string(),
                    l1,
                    chi2,
                    reference: state.reference.clone(),
                    current: state.current.clone(),
                };
                crate::metrics::global()
                    .counter_with("qa.drift.crossings", &[("assertion", assertion)])
                    .inc();
                let mut events = self.events.lock().unwrap();
                if events.len() >= EVENT_CAPACITY {
                    events.remove(0);
                }
                events.push(event);
            }
            state.current.clear();
            state.current_total = 0;
        }
    }

    /// Pins the reference window for `assertion` to the given counts
    /// (instead of the first completed window).
    pub fn set_reference<S: AsRef<str>>(&self, assertion: &str, counts: &[(S, u64)]) {
        let mut windows = self.windows.lock().unwrap();
        let state = windows.entry(assertion.to_string()).or_default();
        state.reference = counts.iter().map(|(c, n)| (c.as_ref().to_string(), *n)).collect();
        state.reference_total = state.reference.values().sum();
    }

    /// Threshold-crossing events with `seq > after`, oldest first.
    /// Broadcast semantics: events are not consumed, so several engines
    /// (each tracking its own cursor) can republish independently.
    pub fn events_since(&self, after: Option<u64>) -> Vec<DriftEvent> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| after.is_none_or(|a| e.seq > a))
            .cloned()
            .collect()
    }

    /// Per-assertion monitor snapshots, sorted by assertion.
    pub fn snapshot(&self) -> Vec<DriftSnapshot> {
        self.windows
            .lock()
            .unwrap()
            .iter()
            .map(|(assertion, s)| DriftSnapshot {
                assertion: assertion.clone(),
                reference: s.reference.clone(),
                current: s.current.clone(),
                last_l1: s.last_l1,
                last_chi2: s.last_chi2,
                windows_compared: s.windows_compared,
            })
            .collect()
    }

    /// JSON document for the `/drift` endpoint.
    pub fn to_json(&self) -> String {
        use crate::json::escape;
        use std::fmt::Write as _;
        let config = self.config.read().unwrap().clone();
        let counts_json = |counts: &BTreeMap<String, u64>| -> String {
            let inner: Vec<String> =
                counts.iter().map(|(c, n)| format!("\"{}\":{n}", escape(c))).collect();
            format!("{{{}}}", inner.join(","))
        };
        let opt = |v: Option<f64>| -> String {
            match v {
                Some(x) if x.is_finite() => format!("{x:.6}"),
                _ => "null".into(),
            }
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"enabled\":{},\"window\":{},\"threshold\":{},\"assertions\":[",
            self.enabled(),
            config.window,
            config.threshold
        );
        for (i, s) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"assertion\":\"{}\",\"windows_compared\":{},\"last_l1\":{},\"last_chi2\":{},\"reference\":{},\"current\":{}}}",
                escape(&s.assertion),
                s.windows_compared,
                opt(s.last_l1),
                opt(s.last_chi2),
                counts_json(&s.reference),
                counts_json(&s.current),
            );
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events_since(None).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"assertion\":\"{}\",\"l1\":{:.6},\"chi2\":{:.6},\"reference\":{},\"current\":{}}}",
                e.seq,
                escape(&e.assertion),
                e.l1,
                e.chi2,
                counts_json(&e.reference),
                counts_json(&e.current),
            );
        }
        out.push_str("]}");
        out
    }

    /// Drops all windows and events (enabled flag and config unchanged).
    pub fn reset(&self) {
        self.windows.lock().unwrap().clear();
        self.events.lock().unwrap().clear();
    }
}

static GLOBAL: OnceLock<DriftMonitor> = OnceLock::new();

/// The process-global monitor the QA operator path observes into.
pub fn global() -> &'static DriftMonitor {
    GLOBAL.get_or_init(DriftMonitor::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(c, n)| (c.to_string(), *n)).collect()
    }

    #[test]
    fn distances_behave() {
        let a = counts(&[("q:high", 50), ("q:low", 50)]);
        let b = counts(&[("q:high", 50), ("q:low", 50)]);
        assert_eq!(l1_distance(&a, &b), 0.0);
        let c = counts(&[("q:high", 100)]);
        // half the mass moved from q:low to q:high
        assert!((l1_distance(&a, &c) - 0.5).abs() < 1e-9);
        let d = counts(&[("q:other", 100)]);
        // disjoint supports: maximal distance
        assert!((l1_distance(&a, &d) - 1.0).abs() < 1e-9);
        assert!(chi2_statistic(&a, &c) > 0.0);
        assert_eq!(chi2_statistic(&a, &b), 0.0);
    }

    #[test]
    fn disabled_monitor_ignores_observations() {
        let monitor = DriftMonitor::new();
        monitor.observe_bulk("PIScore", &[("q:high", 10u64)]);
        assert!(monitor.snapshot().is_empty());
    }

    #[test]
    fn first_window_becomes_reference_and_shift_crosses_threshold() {
        let monitor = DriftMonitor::new();
        monitor.configure(DriftConfig { window: 100, threshold: 0.2 });
        // window 1: balanced mix -> becomes the reference
        monitor.observe_bulk("PIScore", &[("q:high", 50u64), ("q:low", 50)]);
        assert!(monitor.events_since(None).is_empty());
        let snap = &monitor.snapshot()[0];
        assert_eq!(snap.reference, counts(&[("q:high", 50), ("q:low", 50)]));
        // window 2: everything q:low -> L1 = 0.5 >= 0.2, event emitted
        monitor.observe_bulk("PIScore", &[("q:low", 100u64)]);
        let events = monitor.events_since(None);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].assertion, "PIScore");
        assert!((events[0].l1 - 0.5).abs() < 1e-9);
        assert!(events[0].chi2 > 0.0);
        // window 3: back to the reference mix -> no new event
        monitor.observe_bulk("PIScore", &[("q:high", 50u64), ("q:low", 50)]);
        assert_eq!(monitor.events_since(None).len(), 1);
        // cursor semantics
        assert!(monitor.events_since(Some(events[0].seq)).is_empty());
    }

    #[test]
    fn small_batches_accumulate_into_windows() {
        let monitor = DriftMonitor::new();
        monitor.configure(DriftConfig { window: 10, threshold: 0.3 });
        for _ in 0..10 {
            monitor.observe_bulk("A", &[("x", 1u64)]); // reference: all x
        }
        for _ in 0..10 {
            monitor.observe_bulk("A", &[("y", 1u64)]); // drifted: all y
        }
        let events = monitor.events_since(None);
        assert_eq!(events.len(), 1);
        assert!((events[0].l1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pinned_reference_is_used() {
        let monitor = DriftMonitor::new();
        monitor.configure(DriftConfig { window: 4, threshold: 0.4 });
        monitor.set_reference("B", &[("x", 100u64)]);
        monitor.observe_bulk("B", &[("y", 4u64)]);
        let events = monitor.events_since(None);
        assert_eq!(events.len(), 1);
        assert!((events[0].l1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn json_parses_and_reflects_state() {
        let monitor = DriftMonitor::new();
        monitor.configure(DriftConfig { window: 4, threshold: 0.1 });
        monitor.observe_bulk("PIScore", &[("q:high", 4u64)]);
        monitor.observe_bulk("PIScore", &[("q:low", 4u64)]);
        let json = monitor.to_json();
        let value = crate::json::parse(&json).unwrap();
        assert_eq!(value.get("enabled").and_then(|v| v.as_bool()), Some(true));
        let assertions = value.get("assertions").and_then(|v| v.as_array()).unwrap();
        assert_eq!(assertions.len(), 1);
        assert_eq!(assertions[0].get("assertion").and_then(|v| v.as_str()), Some("PIScore"));
        let events = value.get("events").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("l1").and_then(|v| v.as_f64()), Some(1.0));
    }
}
