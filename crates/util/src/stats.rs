//! Streaming statistics for simulation measurements.
//!
//! The evaluation reports mean response times and latency percentiles:
//! [`StreamingStats`] keeps a running mean in O(1) memory, [`Histogram`]
//! uses logarithmic buckets (HdrHistogram-style) for percentile queries.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

/// Welford's online mean accumulator.
#[derive(Debug, Clone, Default)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
}

impl StreamingStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        StreamingStats::default()
    }

    /// Add one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }
}

/// Log-bucketed histogram for latency percentiles.
///
/// Values are bucketed with ~4.2 % relative resolution (16 sub-buckets per
/// power of two), covering `1..2^40` ns — sub-nanosecond to ~18 minutes.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: vec![0; (40 << SUB_BITS) as usize], count: 0, max: 0 }
    }

    #[inline]
    fn index(value: u64) -> usize {
        let v = value.max(1);
        let exp = 63 - v.leading_zeros() as u64; // floor(log2 v)
        let sub = if exp >= SUB_BITS as u64 {
            (v >> (exp - SUB_BITS as u64)) & (SUB - 1)
        } else {
            (v << (SUB_BITS as u64 - exp)) & (SUB - 1)
        };
        (((exp << SUB_BITS) | sub) as usize).min((40 << SUB_BITS) as usize - 1)
    }

    /// Representative (upper-bound) value of bucket `i`.
    fn bucket_value(i: usize) -> u64 {
        let exp = (i as u64) >> SUB_BITS;
        let sub = (i as u64) & (SUB - 1);
        if exp >= SUB_BITS as u64 {
            ((SUB + sub) << (exp - SUB_BITS as u64))
                .saturating_add((1 << (exp.saturating_sub(SUB_BITS as u64))) - 1)
        } else {
            (SUB + sub) >> (SUB_BITS as u64 - exp)
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (`0.0..=1.0`), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(Self::bucket_value(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_mean_var() {
        let mut s = StreamingStats::new();
        assert_eq!((s.count(), s.mean()), (0, 0.0));
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_roughly_correct() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((4500..=5600).contains(&p50), "p50={p50}");
        assert!((9300..=10_000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), Some(10_000));
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        h.record(0); // clamps to bucket for 1
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(0)); // min(max)=0
    }

    #[test]
    fn histogram_huge_values_clamped() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        // Values beyond the bucket range land in the final bucket; the
        // quantile is a lower bound but must stay within the covered range.
        let q = h.quantile(0.5).unwrap();
        assert!(q >= 1u64 << 39, "q={q}");
    }
}
