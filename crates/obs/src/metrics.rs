//! Metrics registry: named counters, gauges and log₂-bucket histograms
//! with lock-free atomic recording and a deterministic text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of
//! an `Arc`'d atomic cell: registration takes a registry lock once, the
//! hot recording path is a single relaxed atomic op. Series are keyed
//! by name plus a sorted label set (tenant, shard, endpoint, …), and
//! [`Registry::render`] emits a Prometheus-style text page whose line
//! order is a pure function of the registered series — byte-identical
//! across runs for the same registration and recording history.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ histogram buckets: one per bit of a `u64`, so every
/// sample has a bucket and the top bucket saturates at `u64::MAX`.
pub const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable up/down gauge handle (saturating at zero on decrement).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A free-standing gauge not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract 1, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-bucket latency/size histogram handle.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` (zero samples clamp to
/// bucket 0), matching the broker's original hand-rolled digest so
/// quantile numbers are comparable across releases. Recording is one
/// relaxed `fetch_add` per sample (plus count and sum).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Index of the log₂ bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    63 - (v.max(1).leading_zeros() as usize)
}

/// Inclusive upper bound of bucket `i`: `2^(i+1) - 1`, saturating at
/// `u64::MAX` for the top bucket.
fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// A free-standing histogram not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 < q <= 1.0`). Returns 0 for an empty histogram. The answer
    /// is an inclusive bucket upper bound (`2^(i+1) - 1`), the same
    /// convention as the broker's original digest.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// Per-bucket sample counts (not cumulative), for exposition.
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

/// A metric series key: metric name plus a label set sorted by label
/// key. Ordering on this type defines the exposition line order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        Self {
            name: name.to_owned(),
            labels,
        }
    }
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render `name{k="v",...}` with an optional extra trailing label
/// (used for histogram `le` bounds) and an optional name suffix.
fn render_series(
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) -> String {
    let mut out = String::new();
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
    }
    out
}

/// A registry of named metric series.
///
/// Registration (`counter`/`gauge`/`histogram`) is get-or-create: the
/// first call for a (name, labels) pair allocates the series, later
/// calls return a clone of the same handle, so callers may re-register
/// on the hot path without double counting (though caching the handle
/// is cheaper). All maps are `BTreeMap`s, so iteration — and therefore
/// [`render`](Self::render) output — is deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<SeriesKey, Counter>>,
    gauges: Mutex<BTreeMap<SeriesKey, Gauge>>,
    histograms: Mutex<BTreeMap<SeriesKey, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name` with no labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get or create the counter `name` with the given labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(SeriesKey::new(name, labels)).or_default().clone()
    }

    /// Get or create the gauge `name` with no labels.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get or create the gauge `name` with the given labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(SeriesKey::new(name, labels)).or_default().clone()
    }

    /// Get or create the histogram `name` with no labels.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Get or create the histogram `name` with the given labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(SeriesKey::new(name, labels)).or_default().clone()
    }

    /// Look up an existing counter without registering it.
    pub fn lookup_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&SeriesKey::new(name, labels)).cloned()
    }

    /// Look up an existing gauge without registering it.
    pub fn lookup_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<Gauge> {
        let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&SeriesKey::new(name, labels)).cloned()
    }

    /// Render the full registry as deterministic Prometheus-style text.
    ///
    /// Counters and gauges emit one `name{labels} value` line each.
    /// Histograms emit cumulative `name_bucket{...,le="UB"}` lines for
    /// every non-empty bucket, a `name_bucket{...,le="+Inf"}` total,
    /// and `name_count` / `name_sum` lines. Lines are sorted by metric
    /// kind section (counters, gauges, histograms) then series key, so
    /// the page is byte-identical for identical registry state.
    pub fn render(&self) -> String {
        let mut out = String::new();
        {
            let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            for (key, c) in map.iter() {
                out.push_str(&render_series(&key.name, "", &key.labels, None));
                out.push(' ');
                out.push_str(&c.get().to_string());
                out.push('\n');
            }
        }
        {
            let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
            for (key, g) in map.iter() {
                out.push_str(&render_series(&key.name, "", &key.labels, None));
                out.push(' ');
                out.push_str(&g.get().to_string());
                out.push('\n');
            }
        }
        {
            let map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            for (key, h) in map.iter() {
                let counts = h.bucket_counts();
                let mut cum = 0u64;
                for (i, &c) in counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cum += c;
                    let le = bucket_upper_bound(i).to_string();
                    out.push_str(&render_series(
                        &key.name,
                        "_bucket",
                        &key.labels,
                        Some(("le", &le)),
                    ));
                    out.push(' ');
                    out.push_str(&cum.to_string());
                    out.push('\n');
                }
                out.push_str(&render_series(
                    &key.name,
                    "_bucket",
                    &key.labels,
                    Some(("le", "+Inf")),
                ));
                out.push(' ');
                out.push_str(&cum.to_string());
                out.push('\n');
                out.push_str(&render_series(&key.name, "_count", &key.labels, None));
                out.push(' ');
                out.push_str(&h.count().to_string());
                out.push('\n');
                out.push_str(&render_series(&key.name, "_sum", &key.labels, None));
                out.push(' ');
                out.push_str(&h.sum().to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// One parsed exposition line: metric name, sorted labels, value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Metric (series) name, including any `_bucket`/`_count` suffix.
    pub name: String,
    /// Label pairs in the order they appeared on the line.
    pub labels: Vec<(String, String)>,
    /// The sample value. All values this crate renders are unsigned
    /// integers; unparseable values are skipped by the parser.
    pub value: u64,
}

/// Parse text produced by [`Registry::render`] back into samples.
///
/// Intended for dashboards and smoke tests pulling the op-4 metrics
/// blob off the wire; lines that do not scan (wrong shape, non-integer
/// value) are skipped rather than failing the whole page.
pub fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(space) = line.rfind(' ') else {
            continue;
        };
        let (series, value) = line.split_at(space);
        let Ok(value) = value.trim().parse::<u64>() else {
            continue;
        };
        let (name, labels) = match series.find('{') {
            None => (series.to_owned(), Vec::new()),
            Some(brace) => {
                let name = series[..brace].to_owned();
                let Some(inner) = series[brace + 1..].strip_suffix('}') else {
                    continue;
                };
                let mut labels = Vec::new();
                let mut rest = inner;
                let mut ok = true;
                while !rest.is_empty() {
                    let Some(eq) = rest.find("=\"") else {
                        ok = false;
                        break;
                    };
                    let key = rest[..eq].to_owned();
                    let mut val = String::new();
                    let mut chars = rest[eq + 2..].char_indices();
                    let mut end = None;
                    while let Some((i, c)) = chars.next() {
                        match c {
                            '\\' => {
                                if let Some((_, esc)) = chars.next() {
                                    val.push(match esc {
                                        'n' => '\n',
                                        other => other,
                                    });
                                }
                            }
                            '"' => {
                                end = Some(eq + 2 + i + 1);
                                break;
                            }
                            _ => val.push(c),
                        }
                    }
                    let Some(end) = end else {
                        ok = false;
                        break;
                    };
                    labels.push((key, val));
                    rest = rest[end..].strip_prefix(',').unwrap_or(&rest[end..]);
                }
                if !ok {
                    continue;
                }
                (name, labels)
            }
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("requests");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same underlying cell.
        assert_eq!(r.counter("requests").get(), 5);

        let g = r.gauge_with("depth", &[("lane", "a")]);
        g.set(3);
        g.inc();
        g.dec();
        g.dec();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 0, "gauge saturates at zero");
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn histogram_single_sample() {
        let h = Histogram::new();
        h.record(100);
        // 100 lands in bucket 6 ([64, 128)); every quantile is its
        // upper bound 127.
        assert_eq!(h.quantile(0.01), 127);
        assert_eq!(h.quantile(0.5), 127);
        assert_eq!(h.quantile(1.0), 127);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 100);
    }

    #[test]
    fn histogram_zero_sample_clamps_to_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), 1, "bucket 0 upper bound is 1");
    }

    #[test]
    fn histogram_saturating_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_p99_at_least_p50() {
        let h = Histogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p99 >= p50, "p99 {p99} must be >= p50 {p50}");
        assert!((255..=1023).contains(&p50), "p50 {p50} in a mid bucket");
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mk = || {
            let r = Registry::new();
            r.counter_with("zeta", &[("t", "b")]).add(2);
            r.counter_with("alpha", &[]).add(1);
            r.counter_with("zeta", &[("t", "a")]).add(3);
            r.gauge("depth").set(7);
            let h = r.histogram_with("lat", &[("ep", "x")]);
            h.record(5);
            h.record(900);
            r.render()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "render must be byte-identical across runs");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines[0], "alpha 1");
        assert_eq!(lines[1], "zeta{t=\"a\"} 3");
        assert_eq!(lines[2], "zeta{t=\"b\"} 2");
        assert_eq!(lines[3], "depth 7");
        assert!(lines[4].starts_with("lat_bucket{ep=\"x\",le=\"7\"} 1"));
        assert!(a.contains("lat_count{ep=\"x\"} 2"));
        assert!(a.contains("lat_sum{ep=\"x\"} 905"));
        assert!(a.contains("lat_bucket{ep=\"x\",le=\"+Inf\"} 2"));
    }

    #[test]
    fn parse_round_trips_render() {
        let r = Registry::new();
        r.counter_with("reqs", &[("tenant", "t-1"), ("ep", "inproc")])
            .add(42);
        r.gauge("lanes").set(3);
        r.histogram("lat").record(77);
        let text = r.render();
        let samples = parse_exposition(&text);
        let reqs = samples
            .iter()
            .find(|s| s.name == "reqs")
            .expect("reqs sample");
        assert_eq!(reqs.value, 42);
        assert_eq!(
            reqs.labels,
            vec![
                ("ep".to_owned(), "inproc".to_owned()),
                ("tenant".to_owned(), "t-1".to_owned())
            ]
        );
        assert!(samples.iter().any(|s| s.name == "lanes" && s.value == 3));
        assert!(samples
            .iter()
            .any(|s| s.name == "lat_count" && s.value == 1));
        assert!(samples.iter().any(|s| s.name == "lat_sum" && s.value == 77));
    }

    #[test]
    fn parse_handles_escaped_label_values() {
        let r = Registry::new();
        r.counter_with("odd", &[("v", "a\"b\\c\nd")]).add(9);
        let text = r.render();
        let samples = parse_exposition(&text);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].labels[0].1, "a\"b\\c\nd");
        assert_eq!(samples[0].value, 9);
    }

    #[test]
    fn concurrent_recording_totals_add_up() {
        let r = std::sync::Arc::new(Registry::new());
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let r = r.clone();
                s.spawn(move || {
                    let c = r.counter("hits");
                    let h = r.histogram("lat");
                    for i in 0..per {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(r.counter("hits").get(), threads * per);
        assert_eq!(r.histogram("lat").count(), threads * per);
    }
}
