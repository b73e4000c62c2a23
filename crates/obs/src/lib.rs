//! # aion-obs — runtime observability for the Aion reproduction
//!
//! A dependency-light metrics layer: every subsystem registers named
//! counters, gauges, and fixed-bucket latency histograms against the
//! registry of the instance it belongs to (an `Aion`, a server, a
//! replayer), and [`Registry::snapshot`] reads that instance's counts
//! (`Aion::metrics()`). An instance's registry is [`Registry::scoped`]:
//! each of its metrics also records into the process-wide metric of the
//! same name, which the process-wide surfaces (the server's
//! `Request::Metrics`, the bench harness sidecars, `aion-fsck --metrics`)
//! read through [`snapshot`].
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths are lock-free.** A handle (`Arc<Counter>` etc.) is
//!    fetched once at subsystem construction; recording is a relaxed
//!    atomic op, and one more for the process-wide total of an instance's
//!    metric. The registry mutex is only taken at registration and
//!    snapshot time.
//! 2. **No dependencies.** `std` only — usable from every crate in the
//!    workspace without widening the build graph.
//! 3. **No panics.** The registry is subject to the same panic-freedom
//!    lint gate as the storage crates.
//!
//! Histograms use fixed exponential buckets (doubling from 256 ns to
//! ~17 s) which is plenty of resolution for p50/p95/p99 over I/O and
//! query latencies; values are raw `u64`s so the same type also records
//! non-temporal distributions (e.g. `expand` fan-out).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use lock::{Mutex, Rank};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Default, Debug)]
pub struct Counter {
    value: AtomicU64,
    /// The process-wide counter of the same name, for an instance's
    /// counter.
    total: Option<Arc<Counter>>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if let Some(total) = &self.total {
            total.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Default, Debug)]
pub struct Gauge {
    value: AtomicI64,
    /// The process-wide gauge of the same name, for an instance's gauge.
    total: Option<Arc<Gauge>>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        if let Some(total) = &self.total {
            total.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        if let Some(total) = &self.total {
            total.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `i` covers values `≤ 256 << i`
/// (nanoseconds for timers); the last bucket is the overflow catch-all.
pub const BUCKETS: usize = 27;

/// Upper bound of bucket `i` (inclusive); the final bucket is unbounded.
fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        256u64 << i
    }
}

fn bucket_index(value: u64) -> usize {
    let mut i = 0;
    while i + 1 < BUCKETS && value > bucket_bound(i) {
        i += 1;
    }
    i
}

/// A fixed-bucket distribution with lock-free recording. The count is
/// the buckets' sum, so an observation costs two atomic adds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// The process-wide histogram of the same name, for an instance's
    /// histogram.
    total: Option<Arc<Histogram>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            total: None,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        let bucket = bucket_index(value);
        for h in std::iter::once(self).chain(self.total.as_deref()) {
            h.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket containing the `q`-th observation, 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Starts a scope timer that records elapsed nanoseconds on drop.
    pub fn start_timer(self: &Arc<Self>) -> TimerGuard {
        TimerGuard {
            hist: self.clone(),
            start: Instant::now(),
        }
    }
}

/// Records elapsed wall-clock nanoseconds into its histogram on drop.
pub struct TimerGuard {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(nanos);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

/// A named-metric registry: the process-wide one behind the free
/// functions [`counter`], [`gauge`], [`histogram`] and [`snapshot`], or
/// one instance's ([`Registry::scoped`]).
pub struct Registry {
    inner: Mutex<RegistryInner>,
    /// The process-wide registry, which an instance's metrics also record
    /// into.
    feeds: Option<&'static Registry>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            inner: Mutex::new(Rank::Registry, RegistryInner::default()),
            feeds: None,
        }
    }
}

/// Finds `name` in `list`, or registers a new metric there made by `new`.
fn find_or_insert<T>(
    list: &mut Vec<(String, Arc<T>)>,
    name: &str,
    new: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some((_, v)) = list.iter().find(|(n, _)| n == name) {
        return v.clone();
    }
    let v = Arc::new(new());
    list.push((name.to_string(), v.clone()));
    v
}

impl Registry {
    /// An empty registry that records into nothing else: what it counts,
    /// only its own snapshot shows.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// An empty registry for one instance. Each metric it hands out also
    /// records into the process-wide metric of the same name, so
    /// [`snapshot`] keeps the process's totals.
    pub fn scoped() -> Registry {
        Registry {
            feeds: Some(global()),
            ..Registry::default()
        }
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        // The process-wide metric is resolved first: both registries'
        // locks have one rank.
        let total = self.feeds.map(|g| g.counter(name));
        find_or_insert(&mut self.inner.lock().counters, name, || Counter {
            total,
            ..Counter::default()
        })
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let total = self.feeds.map(|g| g.gauge(name));
        find_or_insert(&mut self.inner.lock().gauges, name, || Gauge {
            total,
            ..Gauge::default()
        })
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let total = self.feeds.map(|g| g.histogram(name));
        find_or_insert(&mut self.inner.lock().histograms, name, || Histogram {
            total,
            ..Histogram::default()
        })
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, i64)> = inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<HistogramSnapshot> = inner
            .histograms
            .iter()
            .map(|(n, h)| HistogramSnapshot {
                name: n.clone(),
                count: h.count(),
                sum: h.sum(),
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            })
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide counter named `name`.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// The process-wide gauge named `name`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// The process-wide histogram named `name`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Snapshots the process-wide registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// One histogram, summarized.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HistogramSnapshot {
    /// Registered name (dotted scopes, e.g. `query.exec.latency`).
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observed values (nanoseconds for timers).
    pub sum: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// A point-in-time copy of a registry, sorted by metric name.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram summary named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Prometheus-style text exposition. Dotted metric names become
    /// underscore-separated with an `aion_` prefix; histograms expose
    /// `_count`, `_sum`, and quantile-labelled summary samples.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            out.push_str(&format!(
                "# TYPE {n} summary\n\
                 {n}{{quantile=\"0.5\"}} {}\n\
                 {n}{{quantile=\"0.95\"}} {}\n\
                 {n}{{quantile=\"0.99\"}} {}\n\
                 {n}_sum {}\n\
                 {n}_count {}\n",
                h.p50, h.p95, h.p99, h.sum, h.count
            ));
        }
        out
    }

    /// JSON exposition (hand-rolled; names are dotted as registered).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_json_map(&mut out, self.counters.iter().map(|(n, v)| (n, *v as i64)));
        out.push_str("},\n  \"gauges\": {");
        push_json_map(&mut out, self.gauges.iter().map(|(n, v)| (n, *v)));
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                json_string(&h.name),
                h.count,
                h.sum,
                h.p50,
                h.p95,
                h.p99
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_json_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, i64)>) {
    let mut any = false;
    for (i, (n, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {v}", json_string(n)));
        any = true;
    }
    if any {
        out.push_str("\n  ");
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sanitizes a dotted metric name into a Prometheus identifier.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("aion_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let r = Registry::new();
        r.counter("a.hits").inc();
        r.counter("a.hits").add(2);
        r.gauge("a.depth").set(-4);
        let s = r.snapshot();
        assert_eq!(s.counter("a.hits"), Some(3));
        assert_eq!(s.gauge("a.depth"), Some(-4));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for _ in 0..90 {
            h.record(1_000); // ≤ 1024 bucket
        }
        for _ in 0..10 {
            h.record(1_000_000); // ≤ bucket bound 1_048_576
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 1_000 + 10 * 1_000_000);
        assert_eq!(h.quantile(0.5), 1024);
        assert!(h.quantile(0.99) >= 1_000_000);
        // Empty histogram quantiles are 0.
        assert_eq!(r.histogram("other").quantile(0.5), 0);
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("t");
        {
            let _g = h.start_timer();
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() > 0);
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_cover_u64() {
        let mut prev = 0;
        for i in 0..BUCKETS {
            assert!(bucket_bound(i) > prev || bucket_bound(i) == u64::MAX);
            prev = bucket_bound(i);
        }
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn snapshot_sorted_and_expositions_well_formed() {
        let r = Registry::new();
        r.counter("z.last").inc();
        r.counter("a.first").inc();
        r.histogram("mid.lat").record(5);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counters[1].0, "z.last");
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE aion_a_first counter"));
        assert!(prom.contains("aion_mid_lat_count 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
            assert!(parts.next().is_some());
        }
        let json = s.to_json();
        assert!(json.contains("\"a.first\": 1"));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn global_registry_is_shared() {
        counter("obs.test.global").add(5);
        assert!(snapshot().counter("obs.test.global").unwrap_or(0) >= 5);
    }

    #[test]
    fn a_scoped_registry_counts_its_own_and_feeds_the_process_total() {
        let (a, b) = (Registry::scoped(), Registry::scoped());
        let total = counter("obs.test.scoped");
        let before = total.get();
        a.counter("obs.test.scoped").add(2);
        b.counter("obs.test.scoped").add(3);
        a.gauge("obs.test.scoped_gauge").set(7);
        a.histogram("obs.test.scoped_lat").record(1_000);
        assert_eq!(a.snapshot().counter("obs.test.scoped"), Some(2));
        assert_eq!(b.snapshot().counter("obs.test.scoped"), Some(3));
        assert!(total.get() >= before + 5);
        assert_eq!(gauge("obs.test.scoped_gauge").get(), 7);
        assert!(histogram("obs.test.scoped_lat").count() >= 1);
        // A detached registry feeds nothing.
        Registry::new().counter("obs.test.detached").add(4);
        assert_eq!(snapshot().counter("obs.test.detached"), None);
    }
}
