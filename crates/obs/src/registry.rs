//! [`Log2Hist`], the power-of-two histogram behind every distribution
//! `kdd-obs` exports: request latencies, compression ratios, per-stage
//! times and the SSD wear histogram.
//!
//! All accumulation is integer-only; floating point appears only in
//! derived ratios computed at export time (see [`crate::frac`]), so
//! replays cannot diverge through float summation order.

use crate::json::Json;

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
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Smallest value that lands in bucket `i` (saturating at the top).
    fn bucket_lo(i: usize) -> u64 {
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
}
