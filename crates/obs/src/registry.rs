//! Typed metrics registry with static keys.
//!
//! Metrics are registered once (usually at `Recorder` construction) and
//! updated through copyable integer ids, so the hot path never hashes or
//! allocates a `String`. Export walks the metric tables into a
//! `BTreeMap`-backed [`Json`] object, which keeps the rendered bytes
//! stable regardless of registration order.
//!
//! All accumulation is integer-only; floating point appears only in
//! derived ratios computed at export time (see [`crate::frac`]), so
//! replays cannot diverge through float summation order.

use crate::json::Json;
use std::collections::BTreeMap;

/// Handle to a registered monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (a point-in-time level, may go down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered log2-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// A power-of-two bucketed histogram over `u64` observations.
///
/// Bucket 0 holds exactly the value 0; bucket `i >= 1` holds the range
/// `[2^(i-1), 2^i - 1]`. 65 buckets cover the full `u64` domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Hist { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Smallest value that lands in bucket `i` (saturating at the top).
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            let shift = u32::try_from(i - 1).unwrap_or(64);
            1u64.checked_shl(shift).unwrap_or(u64::MAX)
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        if let Some(b) = self.buckets.get_mut(Self::bucket_index(v)) {
            *b += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Occupancy of bucket `i` (0 for out-of-range indices).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Export as `{count, sum, max, buckets: [[lo, n], ...]}` with only
    /// the non-empty buckets listed.
    pub fn export(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                Json::Arr(vec![Json::Num(Self::bucket_lo(i) as f64), Json::Num(*n as f64)])
            })
            .collect();
        crate::json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            ("max", Json::Num(self.max as f64)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// The metric tables. Ids index into the vectors, so updates are a bounds
/// check plus an integer store.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, i64)>,
    hists: Vec<(&'static str, Log2Hist)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter under a static key.
    pub fn register_counter(&mut self, key: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(k, _)| *k == key) {
            return CounterId(i);
        }
        self.counters.push((key, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register (or look up) a gauge under a static key.
    pub fn register_gauge(&mut self, key: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(k, _)| *k == key) {
            return GaugeId(i);
        }
        self.gauges.push((key, 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Register (or look up) a histogram under a static key.
    pub fn register_hist(&mut self, key: &'static str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(k, _)| *k == key) {
            return HistId(i);
        }
        self.hists.push((key, Log2Hist::new()));
        HistId(self.hists.len() - 1)
    }

    /// Add `delta` to a counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        if let Some((_, v)) = self.counters.get_mut(id.0) {
            *v = v.saturating_add(delta);
        }
    }

    /// Overwrite a counter with an externally accumulated total (used to
    /// mirror `CacheStats`-style structs into the registry).
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        if let Some((_, v)) = self.counters.get_mut(id.0) {
            *v = value;
        }
    }

    /// Current value of a counter (0 for a foreign id).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters.get(id.0).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Set a gauge to a level.
    pub fn set_gauge(&mut self, id: GaugeId, value: i64) {
        if let Some((_, v)) = self.gauges.get_mut(id.0) {
            *v = value;
        }
    }

    /// Current value of a gauge (0 for a foreign id).
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges.get(id.0).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Record an observation into a histogram.
    pub fn observe(&mut self, id: HistId, v: u64) {
        if let Some((_, h)) = self.hists.get_mut(id.0) {
            h.observe(v);
        }
    }

    /// Read access to a histogram.
    pub fn hist(&self, id: HistId) -> Option<&Log2Hist> {
        self.hists.get(id.0).map(|(_, h)| h)
    }

    /// Export every metric as `{counters: {...}, gauges: {...},
    /// hists: {...}}`, keys sorted by the `BTreeMap`.
    pub fn export(&self) -> Json {
        let counters: BTreeMap<String, Json> =
            self.counters.iter().map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64))).collect();
        let gauges: BTreeMap<String, Json> =
            self.gauges.iter().map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64))).collect();
        let hists: BTreeMap<String, Json> =
            self.hists.iter().map(|(k, h)| ((*k).to_string(), h.export())).collect();
        crate::json::obj(vec![
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("hists", Json::Obj(hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_boundaries_are_exact() {
        // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i - 1].
        assert_eq!(Log2Hist::bucket_index(0), 0);
        assert_eq!(Log2Hist::bucket_index(1), 1);
        assert_eq!(Log2Hist::bucket_index(2), 2);
        assert_eq!(Log2Hist::bucket_index(3), 2);
        assert_eq!(Log2Hist::bucket_index(4), 3);
        assert_eq!(Log2Hist::bucket_index(7), 3);
        assert_eq!(Log2Hist::bucket_index(8), 4);
        for k in 0..63u32 {
            let v = 1u64 << k;
            assert_eq!(Log2Hist::bucket_index(v), k as usize + 1, "2^{k}");
            // Top of the same bucket: 2^(k+1) - 1.
            assert_eq!(Log2Hist::bucket_index((v << 1) - 1), k as usize + 1, "2^{}-1", k + 1);
        }
        assert_eq!(Log2Hist::bucket_index(u64::MAX), 64);
        assert_eq!(Log2Hist::bucket_lo(0), 0);
        assert_eq!(Log2Hist::bucket_lo(1), 1);
        assert_eq!(Log2Hist::bucket_lo(4), 8);
        assert_eq!(Log2Hist::bucket_lo(64), 1u64 << 63);
    }

    #[test]
    fn hist_accumulates_and_exports_nonzero_buckets_only() {
        let mut h = Log2Hist::new();
        for v in [0u64, 1, 3, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket(0), 1); // the zero
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 3, 3
        assert_eq!(h.bucket(10), 1); // 1000 in [512, 1023]
        let doc = h.export();
        let buckets = doc.get("buckets").and_then(Json::as_arr).expect("buckets");
        assert_eq!(buckets.len(), 4, "only non-empty buckets exported");
    }

    #[test]
    fn registry_ids_are_stable_and_dedup_by_key() {
        let mut r = Registry::new();
        let a = r.register_counter("x.a");
        let b = r.register_counter("x.b");
        let a2 = r.register_counter("x.a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        r.add(a, 2);
        r.add(a, 3);
        r.set_counter(b, 7);
        assert_eq!(r.counter(a), 5);
        assert_eq!(r.counter(b), 7);
        let g = r.register_gauge("g.level");
        r.set_gauge(g, -4);
        assert_eq!(r.gauge(g), -4);
    }

    #[test]
    fn export_orders_keys_lexicographically() {
        let mut r = Registry::new();
        r.register_counter("z.last");
        r.register_counter("a.first");
        let doc = r.export();
        let text = doc.render();
        let a = text.find("a.first").expect("a.first");
        let z = text.find("z.last").expect("z.last");
        assert!(a < z, "BTreeMap export must sort keys");
    }
}
