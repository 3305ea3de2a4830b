//! The typed metrics registry: counters and log2-bucketed histograms.
//!
//! Components register their metrics once at construction time (the only
//! allocations) and record through integer handles in the hot loop — an
//! index into a flat `Vec`, no hashing, no allocation, no locks (each
//! simulation is single-threaded). [`MetricsRegistry::snapshot`] freezes
//! the registry into a deterministic, name-sorted [`MetricsSnapshot`]
//! that serializes to the `results/metrics/*.json` files.
//!
//! Determinism contract: a snapshot contains nothing environmental — no
//! wall-clock times, no addresses, no thread ids — so for a fixed seed
//! the serialized JSON is bit-identical run-to-run and across
//! `TWIG_NUM_THREADS` settings.

use twig_serde::{Deserialize, Serialize};

use crate::ExportError;

/// Metrics snapshot format version; bump when the schema changes.
///
/// Still 1: the v1.1 percentile summaries (`p50`/`p90`/`p99` per
/// histogram) and the v1.2 tail percentile (`p999`) are strictly
/// additive — v1.0/v1.1 snapshots parse and validate unchanged, with
/// absent percentiles reading as 0.
pub const METRICS_VERSION: u32 = 1;

/// Handle to a registered counter (index into the registry; `Copy` so
/// components can store it in hot-loop state).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(u32);

/// Handle to a registered histogram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HistId(u32);

/// A fixed-size log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 counts zero-valued samples; bucket `k` (1..=64) counts
/// samples with `2^(k-1) <= v < 2^k`. Recording is branch-light integer
/// arithmetic on a flat array — no allocation ever.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hist64 {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist64 {
    fn default() -> Self {
        Hist64 {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index a value lands in (0 for 0, else `floor(log2(v)) + 1`).
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Hist64 {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist64::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `value` with weight `n`: the same state as `n` calls of
    /// [`record`](Self::record) (the simulator's idle-cycle leap records
    /// a span of unchanged occupancy this way).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(value.wrapping_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The approximate `num/den`-quantile: the upper bound of the log2
    /// bucket the quantile's rank lands in, clamped to the observed
    /// `[min, max]` range (0 when empty). Deterministic integer math —
    /// the error is at most one bucket width (a factor of 2).
    pub fn percentile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * num).div_ceil(den).max(1);
        let mut cumulative = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                let hi = if i == 0 {
                    0
                } else if i == 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Freezes into the serializable form (non-empty buckets only).
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, &count)| BucketCount {
                lo: if i == 0 { 0 } else { 1u64 << (i - 1) },
                hi: if i == 0 {
                    0
                } else if i == 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                },
                count,
            })
            .collect();
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.percentile(50, 100),
            p90: self.percentile(90, 100),
            p99: self.percentile(99, 100),
            p999: self.percentile(999, 1000),
            buckets,
        }
    }
}

/// One named counter value in a snapshot.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Dotted metric name (`component.metric`).
    pub name: String,
    /// The counter's value.
    pub value: u64,
}

/// One log2 bucket of a [`HistogramSnapshot`]: `lo <= v <= hi`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BucketCount {
    /// Smallest value in the bucket.
    pub lo: u64,
    /// Largest value in the bucket (inclusive).
    pub hi: u64,
    /// Samples that landed here.
    pub count: u64,
}

/// A frozen histogram: summary statistics plus non-empty log2 buckets.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct HistogramSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (wrapping).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Approximate median ([`Hist64::percentile`]; 0 when empty).
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Approximate 99.9th percentile (v1.2; the request-latency tail the
    /// fleet report tracks).
    pub p999: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<BucketCount>,
}

// Hand-written (instead of derived) so v1.0/v1.1 snapshots — written
// before the additive v1.1 percentile fields and the v1.2 `p999` existed
// — still parse: absent percentiles read as 0 rather than erroring.
impl Deserialize for HistogramSnapshot {
    fn from_value(value: &twig_serde::Value) -> Result<Self, String> {
        let obj = value
            .as_object()
            .ok_or_else(|| format!("expected object for HistogramSnapshot, got {value:?}"))?;
        let optional_u64 = |key: &str| -> Result<u64, String> {
            match obj.iter().find(|(k, _)| k == key) {
                Some((_, v)) => {
                    u64::from_value(v).map_err(|e| format!("HistogramSnapshot.{key}: {e}"))
                }
                None => Ok(0),
            }
        };
        Ok(HistogramSnapshot {
            name: twig_serde::__field(obj, "name", "HistogramSnapshot")?,
            count: twig_serde::__field(obj, "count", "HistogramSnapshot")?,
            sum: twig_serde::__field(obj, "sum", "HistogramSnapshot")?,
            min: twig_serde::__field(obj, "min", "HistogramSnapshot")?,
            max: twig_serde::__field(obj, "max", "HistogramSnapshot")?,
            p50: optional_u64("p50")?,
            p90: optional_u64("p90")?,
            p99: optional_u64("p99")?,
            p999: optional_u64("p999")?,
            buckets: twig_serde::__field(obj, "buckets", "HistogramSnapshot")?,
        })
    }
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The registry components record into.
///
/// Registration (by name) happens at construction; the hot loop only
/// touches flat vectors through [`CounterId`]/[`HistId`]. Registering an
/// existing name returns the existing handle, so independent components
/// may share a metric deliberately.
#[derive(Clone, Default, Debug)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Hist64)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter. Not for the hot loop.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i as u32);
        }
        self.counters.push((name.to_string(), 0));
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Registers (or finds) a histogram. Not for the hot loop.
    pub fn histogram(&mut self, name: &str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| n == name) {
            return HistId(i as u32);
        }
        self.hists.push((name.to_string(), Hist64::new()));
        HistId((self.hists.len() - 1) as u32)
    }

    /// Adds `by` to a counter (hot-loop safe: one indexed add).
    ///
    /// Saturates at `u64::MAX` instead of wrapping: in pathological
    /// billion-instruction runs a pinned counter is a visible ceiling,
    /// while a silently wrapped one reads as a plausible small number.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        let slot = &mut self.counters[id.0 as usize].1;
        *slot = slot.saturating_add(by);
    }

    /// Overwrites a counter (for end-of-run mirrors of externally
    /// accumulated statistics).
    #[inline]
    pub fn set(&mut self, id: CounterId, value: u64) {
        self.counters[id.0 as usize].1 = value;
    }

    /// Registers `name` if needed and overwrites it with `value` — the
    /// snapshot-time bridge for stats kept in plain struct fields.
    pub fn set_by_name(&mut self, name: &str, value: u64) {
        let id = self.counter(name);
        self.set(id, value);
    }

    /// Records one histogram sample (hot-loop safe).
    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        self.hists[id.0 as usize].1.record(value);
    }

    /// Records one histogram sample `n` times ([`Hist64::record_n`]).
    #[inline]
    pub fn record_n(&mut self, id: HistId, value: u64, n: u64) {
        self.hists[id.0 as usize].1.record_n(value, n);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].1
    }

    /// Freezes the registry into its deterministic serialized form:
    /// entries sorted by name, ties impossible (names are unique).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterEntry> = self
            .counters
            .iter()
            .map(|(name, value)| CounterEntry {
                name: name.clone(),
                value: *value,
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .hists
            .iter()
            .map(|(name, hist)| hist.snapshot(name))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            version: METRICS_VERSION,
            counters,
            histograms,
        }
    }
}

/// A frozen, deterministic view of a [`MetricsRegistry`] — the payload
/// of `results/metrics/<app>_<config>.json`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Format version ([`METRICS_VERSION`]).
    pub version: u32,
    /// All counters, name-sorted.
    pub counters: Vec<CounterEntry>,
    /// All histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot (current version, no metrics).
    pub fn empty() -> Self {
        MetricsSnapshot {
            version: METRICS_VERSION,
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an [`ExportError`] if the document cannot be serialized.
    pub fn to_json(&self) -> Result<String, ExportError> {
        twig_serde_json::to_string_pretty(self)
            .map_err(|e| ExportError::new("metrics snapshot", e.to_string()))
    }

    /// Parses a snapshot back from JSON.
    ///
    /// # Errors
    ///
    /// Returns an [`ExportError`] describing the malformed document.
    pub fn from_json(text: &str) -> Result<Self, ExportError> {
        twig_serde_json::from_str(text)
            .map_err(|e| ExportError::new("metrics snapshot", e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_snapshot_covers_samples() {
        let mut h = Hist64::new();
        for v in [0u64, 1, 3, 3, 100, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot("test");
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        let total: u64 = snap.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 6);
        // The two 3s share the [2,3] bucket.
        let b = snap.buckets.iter().find(|b| b.lo == 2).unwrap();
        assert_eq!((b.hi, b.count), (3, 2));
        // The top bucket is closed at u64::MAX.
        assert_eq!(snap.buckets.last().unwrap().hi, u64::MAX);
    }

    #[test]
    fn record_n_equals_n_single_records() {
        // Large values make the `sum` wrap; n = 0 must leave min/max alone.
        let cases = [
            (0u64, 5u64),
            (7, 0),
            (3, 1),
            (1 << 62, 9),
            (u64::MAX, 3),
            (100, 1000),
        ];
        let mut weighted = Hist64::new();
        let mut single = Hist64::new();
        for (value, n) in cases {
            weighted.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
            assert_eq!(weighted, single, "after record_n({value}, {n})");
        }
        let exact: u128 = cases
            .iter()
            .map(|&(v, n)| u128::from(v) * u128::from(n))
            .sum();
        assert!(
            exact > u128::from(u64::MAX),
            "the cases must make the sum wrap"
        );
        assert_eq!(u128::from(weighted.sum()), exact % (1u128 << 64));

        let mut reg = MetricsRegistry::new();
        let id = reg.histogram("h");
        reg.record_n(id, 1 << 63, 3);
        let mut expected = Hist64::new();
        for _ in 0..3 {
            expected.record(1 << 63);
        }
        assert_eq!(reg.snapshot().histograms[0], expected.snapshot("h"));
    }

    #[test]
    fn empty_histogram_has_zero_min() {
        let snap = Hist64::new().snapshot("empty");
        assert_eq!((snap.count, snap.min, snap.max), (0, 0, 0));
        assert!(snap.buckets.is_empty());
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        reg.inc(a, 2);
        reg.inc(b, 3);
        assert_eq!(reg.counter_value(a), 5);
        assert_eq!(reg.histogram("h"), reg.histogram("h"));
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("near-max");
        reg.inc(c, u64::MAX - 1);
        reg.inc(c, 5);
        assert_eq!(reg.counter_value(c), u64::MAX, "overflow must pin, not wrap");
        reg.inc(c, 1);
        assert_eq!(reg.counter_value(c), u64::MAX, "saturated counters stay pinned");
    }

    #[test]
    fn snapshot_is_name_sorted_and_round_trips() {
        let mut reg = MetricsRegistry::new();
        let z = reg.counter("zeta");
        let a = reg.counter("alpha");
        let h = reg.histogram("mid");
        reg.inc(z, 9);
        reg.inc(a, 1);
        reg.record(h, 42);
        reg.set_by_name("mu", 7);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mu", "zeta"]);
        assert_eq!(snap.counter("zeta"), Some(9));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.histogram("mid").unwrap().count, 1);

        let json = snap.to_json().unwrap();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Determinism: serialization is a pure function of the content.
        assert_eq!(json, back.to_json().unwrap());
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let mut h = Hist64::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let snap = h.snapshot("lat");
        // p50/p90 land in the [8,15] bucket of the 10s; p99/p99.9 in the
        // 1000s' bucket, clamped to the observed max.
        assert_eq!(snap.p50, 15);
        assert_eq!(snap.p90, 15);
        assert_eq!(snap.p99, 1000);
        assert_eq!(snap.p999, 1000);
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 1000);
        // A constant distribution reports the constant everywhere.
        let mut c = Hist64::new();
        c.record(7);
        let snap = c.snapshot("const");
        assert_eq!((snap.p50, snap.p90, snap.p99, snap.p999), (7, 7, 7, 7));
        // Empty histogram: all zero.
        let snap = Hist64::new().snapshot("empty");
        assert_eq!((snap.p50, snap.p90, snap.p99, snap.p999), (0, 0, 0, 0));
        // p99.9 separates a 1-in-1000 tail that p99 smears over: 999
        // fast samples (7 = its bucket's upper bound, so the report is
        // exact) and huge outliers.
        let mut t = Hist64::new();
        for _ in 0..999 {
            t.record(7);
        }
        t.record(1 << 40);
        let snap = t.snapshot("tail");
        assert_eq!(snap.p99, 7);
        assert_eq!(snap.p999, 7, "one outlier in 1000 sits above the 99.9th rank");
        t.record(1 << 40);
        let snap = t.snapshot("tail2");
        assert_eq!(snap.p999, 1 << 40, "two outliers in 1001 cross the 99.9th rank");
    }

    #[test]
    fn v1_0_snapshots_without_percentiles_still_parse() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        reg.record(h, 42);
        let json = reg.snapshot().to_json().unwrap();
        // Strip the v1.1/v1.2 percentile fields to reconstruct a v1.0
        // document.
        let stripped: String = json
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                !(t.starts_with("\"p50\"")
                    || t.starts_with("\"p90\"")
                    || t.starts_with("\"p99\"")
                    || t.starts_with("\"p999\""))
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(stripped, json);
        let back = MetricsSnapshot::from_json(&stripped).unwrap();
        assert_eq!(back.histogram("lat").unwrap().count, 1);
        // Absent percentiles read as 0.
        assert_eq!(back.histogram("lat").unwrap().p50, 0);
        assert_eq!(back.histogram("lat").unwrap().p999, 0);
        // A v1.1 document (has p50/p90/p99, lacks only p999) also parses.
        let v1_1: String = json
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"p999\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(v1_1, json);
        let back = MetricsSnapshot::from_json(&v1_1).unwrap();
        assert_ne!(back.histogram("lat").unwrap().p50, 0);
        assert_eq!(back.histogram("lat").unwrap().p999, 0);
    }
}
