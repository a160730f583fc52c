//! Cumulative statistics the experiments report.
//!
//! Figures 5/7 plot hit ratios; Figures 6/8/11 plot SSD write traffic;
//! Figure 4 plots the metadata fraction of that traffic. All are derived
//! from [`CacheStats`], which policies update once per access from the
//! [`AccessOutcome`].

use crate::effects::{AccessOutcome, Effects};
pub use kdd_obs::CacheStats;

/// Fold one access outcome into the counters.
pub fn record(stats: &mut CacheStats, is_read: bool, outcome: &AccessOutcome) {
    match (is_read, outcome.hit) {
        (true, true) => stats.read_hits += 1,
        (true, false) => stats.read_misses += 1,
        (false, true) => stats.write_hits += 1,
        (false, false) => stats.write_misses += 1,
    }
    *stats += outcome.total();
}

/// Fold counted device operations into the traffic counters.
impl std::ops::AddAssign<Effects> for CacheStats {
    fn add_assign(&mut self, fx: Effects) {
        self.ssd_data_writes += fx.ssd_data_writes as u64;
        self.ssd_delta_writes += fx.ssd_delta_writes as u64;
        self.ssd_meta_writes += fx.ssd_meta_writes as u64;
        self.ssd_reads += fx.ssd_reads as u64;
        self.raid_reads += fx.raid_reads as u64;
        self.raid_writes += fx.raid_writes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::Effects;

    #[test]
    fn records_hit_miss_matrix() {
        let mut s = CacheStats::default();
        record(&mut s, true, &AccessOutcome::new(true, Effects::default()));
        record(&mut s, true, &AccessOutcome::new(false, Effects::default()));
        record(&mut s, false, &AccessOutcome::new(true, Effects::default()));
        record(&mut s, false, &AccessOutcome::new(false, Effects::default()));
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.write_hits, 1);
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.requests(), 4);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert!((s.read_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn traffic_accumulates_foreground_and_background() {
        let mut s = CacheStats::default();
        let mut o = AccessOutcome::new(false, Effects { ssd_data_writes: 1, ..Default::default() });
        o.background = Effects { ssd_meta_writes: 2, ssd_delta_writes: 3, ..Default::default() };
        record(&mut s, false, &o);
        assert_eq!(s.ssd_writes_pages(), 6);
        assert_eq!(s.ssd_write_bytes(4096).as_u64(), 6 * 4096);
        assert!((s.metadata_fraction() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.read_hit_ratio(), 0.0);
        assert_eq!(s.metadata_fraction(), 0.0);
        assert_eq!(s.ssd_writes_pages(), 0);
    }
}
