//! Process-wide metrics: counters, gauges and log₂-bucket histograms
//! behind sharded atomics.
//!
//! Hot-path writes touch one cache-line-padded `AtomicU64` chosen by a
//! thread-local shard index, so concurrent workers don't contend on a
//! single line. Instrument lookup goes through a `RwLock<BTreeMap>` once
//! per call site (call sites cache the returned `Arc` in a `OnceLock`),
//! and [`MetricsRegistry::reset`] zeroes values *in place* rather than
//! clearing the map, so cached handles never go stale.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

pub(crate) const SHARDS: usize = 8;

/// One cache line per shard so increments from different threads don't
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

pub(crate) fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-value-wins gauge (signed).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket `i` holds values whose log₂ is
/// `i-1` (bucket 0 holds zero), i.e. upper bounds 0, 1, 2, 4, 8, …
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log₂-scale histogram. Bucket boundaries are powers of
/// two, which is plenty for latencies and row counts while keeping the
/// record path branch-free (one `leading_zeros`).
pub struct Histogram {
    // [shard][bucket]
    buckets: [[AtomicU64; HISTOGRAM_BUCKETS]; SHARDS],
    sum: [PaddedU64; SHARDS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            sum: Default::default(),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`, so
/// bucket `i >= 1` covers `[2^(i-1), 2^i - 1]` (bucket 1 is exactly
/// `{1}`, bucket 2 is `{2, 3}`, …).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        let shard = shard_index();
        self.buckets[shard][bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum[shard].0.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        let mut total = 0u64;
        for shard in &self.buckets {
            for b in shard {
                total += b.load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    /// Per-bucket counts merged across shards.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for shard in &self.buckets {
            for (i, b) in shard.iter().enumerate() {
                out[i] += b.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Approximate quantile (upper bound of the bucket containing the
    /// q-th observation). `q` in [0, 1].
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    fn reset(&self) {
        for shard in &self.buckets {
            for b in shard {
                b.store(0, Ordering::Relaxed);
            }
        }
        for s in &self.sum {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Instrument key: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    fn render(&self) -> String {
        self.render_suffixed("", None)
    }

    /// Renders `<name><suffix>{labels...,extra}`, merging an extra label
    /// (e.g. `le` for histogram buckets) into the instrument's own label
    /// set.
    fn render_suffixed(&self, suffix: &str, extra: Option<(&str, &str)>) -> String {
        let escape = |v: &str| v.replace('\\', "\\\\").replace('"', "\\\"");
        let mut labels: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))).collect();
        if let Some((k, v)) = extra {
            labels.push(format!("{k}=\"{}\"", escape(v)));
        }
        if labels.is_empty() {
            format!("{}{}", self.name, suffix)
        } else {
            format!("{}{}{{{}}}", self.name, suffix, labels.join(","))
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A snapshot row, as exposed by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    /// (count, sum, p50, p95)
    Histogram {
        count: u64,
        sum: u64,
        p50: u64,
        p95: u64,
    },
}

/// The registry: name+labels → instrument. Get-or-create; instruments
/// live for the process lifetime.
#[derive(Default)]
pub struct MetricsRegistry {
    instruments: RwLock<BTreeMap<MetricKey, Instrument>>,
}

impl MetricsRegistry {
    /// Creates an empty registry (tests; production uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create a counter with no labels.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get-or-create a counter with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        if let Some(Instrument::Counter(c)) = self.instruments.read().unwrap().get(&key) {
            return c.clone();
        }
        let mut map = self.instruments.write().unwrap();
        match map.entry(key).or_insert_with(|| Instrument::Counter(Arc::new(Counter::default()))) {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get-or-create a gauge with no labels.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Get-or-create a gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        if let Some(Instrument::Gauge(g)) = self.instruments.read().unwrap().get(&key) {
            return g.clone();
        }
        let mut map = self.instruments.write().unwrap();
        match map.entry(key).or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default()))) {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get-or-create a histogram with no labels.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Get-or-create a histogram with labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        if let Some(Instrument::Histogram(h)) = self.instruments.read().unwrap().get(&key) {
            return h.clone();
        }
        let mut map = self.instruments.write().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::default())))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// A deterministic (name-ordered) snapshot of every instrument.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let map = self.instruments.read().unwrap();
        map.iter()
            .map(|(key, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.value()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.value()),
                    Instrument::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        p50: h.quantile(0.50),
                        p95: h.quantile(0.95),
                    },
                };
                (key.render(), value)
            })
            .collect()
    }

    /// Prometheus-style text exposition. Histograms are exposed as one
    /// cumulative `<name>_bucket{le="..."}` series per label set (bucket
    /// counts merged across the internal write shards *before* rendering,
    /// so a series is monotone regardless of which threads recorded into
    /// it), followed by `<name>_count`, `<name>_sum`, `<name>_p50`,
    /// `<name>_p95`. Only non-empty buckets are emitted, plus the
    /// mandatory `le="+Inf"` terminator.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let map = self.instruments.read().unwrap();
        for (key, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{} {}", key.render(), c.value());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", key.render(), g.value());
                }
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let le = bucket_upper_bound(i).to_string();
                        let _ = writeln!(
                            out,
                            "{} {cumulative}",
                            key.render_suffixed("_bucket", Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {cumulative}",
                        key.render_suffixed("_bucket", Some(("le", "+Inf")))
                    );
                    let _ = writeln!(out, "{} {}", key.render_suffixed("_count", None), h.count());
                    let _ = writeln!(out, "{} {}", key.render_suffixed("_sum", None), h.sum());
                    let _ =
                        writeln!(out, "{} {}", key.render_suffixed("_p50", None), h.quantile(0.50));
                    let _ =
                        writeln!(out, "{} {}", key.render_suffixed("_p95", None), h.quantile(0.95));
                }
            }
        }
        out
    }

    /// Zeroes every instrument **in place**. Never removes map entries, so
    /// `Arc` handles cached at call sites (e.g. in `OnceLock` statics)
    /// keep pointing at the live instrument.
    pub fn reset(&self) {
        let map = self.instruments.read().unwrap();
        for inst in map.values() {
            match inst {
                Instrument::Counter(c) => c.reset(),
                Instrument::Gauge(g) => g.reset(),
                Instrument::Histogram(h) => h.reset(),
            }
        }
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry used by all instrumented call sites.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("test.ops");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 8000);
        // same key returns the same instrument
        assert_eq!(registry.counter("test.ops").value(), 8000);
    }

    #[test]
    fn labeled_counters_are_distinct_and_sorted() {
        let registry = MetricsRegistry::new();
        registry.counter_with("serve.requests", &[("route", "/run")]).add(1);
        registry.counter_with("serve.requests", &[("route", "/metrics")]).add(3);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["serve.requests{route=\"/metrics\"}", "serve.requests{route=\"/run\"}"]
        );
        assert_eq!(snapshot[0].1, MetricValue::Counter(3));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // bucket 0 = {0}, bucket i >= 1 = [2^(i-1), 2^i - 1]
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(9), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(2047), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(11), 2047);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // every value lands in a bucket whose bound contains it
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1 << 20, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "value {v} above bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "value {v} not above bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn histogram_quantiles_track_bucket_bounds() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("test.latency");
        for _ in 0..90 {
            h.record(3);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 3 + 10 * 1000);
        // p50 falls in the bucket holding 3
        assert_eq!(h.quantile(0.50), bucket_upper_bound(bucket_index(3)));
        // p95 falls in the bucket holding 1000
        assert_eq!(h.quantile(0.95), bucket_upper_bound(bucket_index(1000)));
        assert_eq!(h.quantile(1.0), bucket_upper_bound(bucket_index(1000)));
    }

    #[test]
    fn histogram_buckets_merge_across_shards_into_one_monotone_series() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram_with("serve.request.latency", &[("route", "/metrics")]);
        // Record from more threads than there are shards so every shard's
        // per-bucket array is populated; a per-shard renderer would emit
        // duplicate (and individually partial) `_bucket` series.
        std::thread::scope(|scope| {
            for t in 0..(SHARDS + 2) {
                let h = h.clone();
                scope.spawn(move || {
                    for v in [1u64, 3, 100, 5000] {
                        h.record(v + t as u64 % 2);
                    }
                });
            }
        });
        let text = registry.render_prometheus();
        crate::schema::validate_metrics_text(&text).unwrap();
        // exactly one series per le value for this label set...
        let bucket_lines: Vec<(&str, u64)> = text
            .lines()
            .filter(|l| l.starts_with("serve.request.latency_bucket{"))
            .map(|l| {
                let (series, value) = l.rsplit_once(' ').unwrap();
                (series, value.parse::<u64>().unwrap())
            })
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        for (series, _) in &bucket_lines {
            assert!(series.contains("route=\"/metrics\""), "bucket series lost its labels");
            assert!(seen.insert(*series), "duplicate bucket series {series}");
        }
        // ...and the cumulative counts are monotone, ending at the total.
        let values: Vec<u64> = bucket_lines.iter().map(|(_, v)| *v).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "bucket series not monotone: {values:?}");
        assert_eq!(*values.last().unwrap(), h.count());
        assert_eq!(h.count(), (SHARDS as u64 + 2) * 4);
    }

    #[test]
    fn reset_preserves_cached_handles() {
        let registry = MetricsRegistry::new();
        let cached = registry.counter("test.cached");
        cached.add(7);
        registry.reset();
        assert_eq!(cached.value(), 0);
        cached.add(2);
        // the registry still sees the same instrument
        assert_eq!(registry.counter("test.cached").value(), 2);
        let rendered = registry.render_prometheus();
        assert!(rendered.contains("test.cached 2"));
    }
}
