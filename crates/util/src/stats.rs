//! Streaming statistics for simulation measurements.
//!
//! The evaluation reports averages (response time), ratios (hit ratio,
//! metadata-I/O fraction) and, for analysis, latency distributions. All
//! accumulators here are streaming/O(1)-memory except [`Histogram`], which
//! uses logarithmic buckets (HdrHistogram-style) for percentile queries.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use serde::{Deserialize, Serialize};

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl StreamingStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Log-bucketed histogram for latency percentiles.
///
/// Values are bucketed with ~4.2 % relative resolution (16 sub-buckets per
/// power of two), covering `1..2^40` ns — sub-nanosecond to ~18 minutes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
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
        Histogram { buckets: vec![0; (40 << SUB_BITS) as usize], count: 0, sum: 0, max: 0 }
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
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
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

    /// Merge another histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_mean_var() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn streaming_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = StreamingStats::new();
        xs.iter().for_each(|&x| all.record(x));
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        xs[..300].iter().for_each(|&x| a.record(x));
        xs[300..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 5.0);
        let empty = StreamingStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
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
        assert!((h.mean() - 5000.5).abs() < 1.0);
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
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100 {
            a.record(v);
        }
        for v in 901..=1000 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let p50 = a.quantile(0.5).unwrap();
        assert!(p50 <= 110, "p50={p50}");
        assert!(a.quantile(0.9).unwrap() >= 900);
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
