//! Thread-safe metrics registry for the host-domain (wall-clock) edges.

use crate::hist::{log2_bucket, Hist64, NUM_BUCKETS};
use crate::json::json_escape;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying atomic; recording is one relaxed
/// `fetch_add`, safe from any worker thread.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (lock-free max).
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A thread-safe log2 histogram with the same bucket layout as
/// [`Hist64`]; all updates are relaxed atomics (per-bucket counts and
/// count; the sum saturates at `u64::MAX` like [`Hist64`]'s; min/max are
/// tracked with `fetch_min`/`fetch_max`).
#[derive(Debug)]
pub struct AtomicHist {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHist {
    fn default() -> Self {
        AtomicHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHist {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(value);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn add_sum(&self, value: u64) {
        let add = |s: u64| Some(s.saturating_add(value));
        // `add` never returns `None`, so the update cannot fail.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Point-in-time copy as a plain [`Hist64`].
    pub fn snapshot(&self) -> Hist64 {
        Hist64::from_parts(
            self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, Arc<AtomicHist>>>,
}

/// An `Arc`-shareable, thread-safe registry of named counters, gauges,
/// and histograms.
///
/// Handles are resolved once (a mutex-guarded map lookup) and then
/// recorded through lock-free; clone the registry to share it across
/// threads or layers. [`MetricsRegistry::snapshot`] freezes everything
/// into a [`MetricsSnapshot`] whose JSON form is stable (sorted names),
/// so two snapshots with the same values serialize identically.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Resolves (creating on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Resolves (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHist> {
        let mut map = self
            .inner
            .hists
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Folds a plain [`Hist64`] (e.g. a merged simulator profile) into
    /// the registry histogram named `name`.
    pub fn merge_hist(&self, name: &str, hist: &Hist64) {
        let h = self.histogram(name);
        for i in 0..NUM_BUCKETS {
            let n = hist.bucket(i);
            if n > 0 {
                h.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        h.count.fetch_add(hist.count(), Ordering::Relaxed);
        h.add_sum(hist.sum());
        if let Some(min) = hist.min() {
            h.min.fetch_min(min, Ordering::Relaxed);
        }
        if let Some(max) = hist.max() {
            h.max.fetch_max(max, Ordering::Relaxed);
        }
    }

    /// Freezes every metric into a point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let hists = self
            .inner
            .hists
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            hists,
        }
    }
}

/// A frozen view of a [`MetricsRegistry`] with a stable serialized form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram copies by name.
    pub hists: BTreeMap<String, Hist64>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as one stable JSON object: names sorted
    /// (`BTreeMap` order), nested under `"counters"`, `"gauges"`, and
    /// `"histograms"`, with a `"schema"` identifier for downstream
    /// tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"rcoal-metrics/v1\"");
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(k)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(k)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, v)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), v.to_json()));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x.count");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x.count").get(), 5, "same name, same counter");
        let g = reg.gauge("x.depth");
        g.set(7);
        g.raise_to(3);
        assert_eq!(g.get(), 7, "raise_to never lowers");
        g.raise_to(11);
        assert_eq!(reg.gauge("x.depth").get(), 11);
    }

    #[test]
    fn histogram_snapshot_matches_recordings() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        h.record(0);
        h.record(100);
        h.record(u64::MAX);
        let s = reg.snapshot().hists["lat"].clone();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), u64::MAX, "saturates like Hist64");
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(u64::MAX));
        assert_eq!(s.bucket(0), 1);
        assert_eq!(s.bucket(64), 1);
    }

    #[test]
    fn snapshot_json_matches_a_plain_histogram_of_the_same_observations() {
        let atomic = AtomicHist::default();
        let mut plain = Hist64::new();
        assert_eq!(atomic.snapshot(), plain, "empty");
        assert_eq!(atomic.snapshot().to_json(), plain.to_json(), "empty");
        for v in [0u64, 1, 3, 3, 100, 4096, 70_000, u64::MAX / 4] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
        assert_eq!(atomic.snapshot().to_json(), plain.to_json());
    }

    #[test]
    fn merge_hist_folds_plain_histograms() {
        let reg = MetricsRegistry::new();
        let mut plain = Hist64::new();
        plain.record(5);
        plain.record(5);
        plain.record(1000);
        reg.merge_hist("sim.lat", &plain);
        reg.merge_hist("sim.lat", &plain);
        let s = reg.snapshot().hists["sim.lat"].clone();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum(), 2020);
        assert_eq!(s.min(), Some(5));
        assert_eq!(s.max(), Some(1000));
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let h = reg.histogram("h");
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(reg.snapshot().hists["h"].count(), 8000);
    }

    #[test]
    fn snapshot_json_is_stable_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta").add(1);
        reg.counter("alpha").add(2);
        reg.gauge("mid").set(3);
        let a = reg.snapshot().to_json();
        let b = reg.snapshot().to_json();
        assert_eq!(a, b, "same values serialize identically");
        let alpha = a.find("\"alpha\"").unwrap();
        let zeta = a.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "names are sorted");
        assert!(a.starts_with("{\"schema\":\"rcoal-metrics/v1\""));
        assert!(a.contains("\"histograms\":{}"));
    }

    #[test]
    fn clones_share_the_registry() {
        let reg = MetricsRegistry::new();
        let other = reg.clone();
        other.counter("shared").add(9);
        assert_eq!(reg.snapshot().counters["shared"], 9);
    }
}
