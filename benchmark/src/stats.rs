//! Medians and quartiles over a handful of repetitions, and counter
//! arithmetic.

use kdd_cache::stats::CacheStats;

/// Combine two `CacheStats` field by field (`a - b` for the difference over
/// an interval, `a + b` to sum runs). The struct is exhaustively listed, so
/// a counter added to it upstream fails to compile here instead of being
/// silently dropped.
#[must_use]
pub fn zip_cache_stats(a: &CacheStats, b: &CacheStats, f: impl Fn(u64, u64) -> u64) -> CacheStats {
    CacheStats {
        read_hits: f(a.read_hits, b.read_hits),
        read_misses: f(a.read_misses, b.read_misses),
        write_hits: f(a.write_hits, b.write_hits),
        write_misses: f(a.write_misses, b.write_misses),
        ssd_data_writes: f(a.ssd_data_writes, b.ssd_data_writes),
        ssd_delta_writes: f(a.ssd_delta_writes, b.ssd_delta_writes),
        ssd_meta_writes: f(a.ssd_meta_writes, b.ssd_meta_writes),
        ssd_reads: f(a.ssd_reads, b.ssd_reads),
        raid_reads: f(a.raid_reads, b.raid_reads),
        raid_writes: f(a.raid_writes, b.raid_writes),
        evictions: f(a.evictions, b.evictions),
        parity_updates: f(a.parity_updates, b.parity_updates),
        cleanings: f(a.cleanings, b.cleanings),
        faults_observed: f(a.faults_observed, b.faults_observed),
        fault_retries: f(a.fault_retries, b.fault_retries),
        fault_fallbacks: f(a.fault_fallbacks, b.fault_fallbacks),
        torn_pages_detected: f(a.torn_pages_detected, b.torn_pages_detected),
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of integer samples.
#[must_use]
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Lower quartile of a few integer samples: the value at rank `n / 4` of
/// the sorted list (the minimum under four samples); 0 when empty.
#[must_use]
pub fn lower_quartile_u64(values: &[u64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    v.get(v.len() / 4).copied().unwrap_or(0) as f64
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method); `None` under two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Python clamps the index first and derives the weight from the
        // clamped index, so the weight can fall outside 0..4 (it then
        // extrapolates); signed arithmetic keeps that exact.
        let j = ((i * (ld + 1)) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the spread
/// the driver compares against a metric's bound. 0 under two values.
#[must_use]
pub fn iqr_frac(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The `q`-quantile (nearest rank) of integer samples; 0 when empty.
#[must_use]
pub fn quantile_u64(values: &[u64], q: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    let idx = ((v.len() as f64 * q) as usize).min(v.len().saturating_sub(1));
    v.get(idx).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((iqr_frac(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
        assert_eq!(quantile_u64(&[5, 1, 9, 3], 0.5), 5);
        assert_eq!(quantile_u64(&[], 0.99), 0);
        assert_eq!(lower_quartile_u64(&[9, 3, 7]), 3.0);
        assert_eq!(lower_quartile_u64(&[9, 3, 7, 5, 8, 1, 2]), 2.0);
        assert_eq!(lower_quartile_u64(&[]), 0.0);
    }
}
