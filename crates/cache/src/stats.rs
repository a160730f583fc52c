//! Cumulative statistics the experiments report.
//!
//! Figures 5/7 plot hit ratios; Figures 6/8/11 plot SSD write traffic;
//! Figure 4 plots the metadata fraction of that traffic. All are derived
//! from [`CacheStats`], which policies update once per access from the
//! [`AccessOutcome`].

use crate::effects::{AccessOutcome, Effects};
use kdd_obs::frac;
use kdd_util::units::ByteSize;
use serde::{Deserialize, Serialize};

/// Cumulative counters for one policy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read requests that hit.
    pub read_hits: u64,
    /// Read requests that missed.
    pub read_misses: u64,
    /// Write requests that hit.
    pub write_hits: u64,
    /// Write requests that missed.
    pub write_misses: u64,
    /// SSD data pages written (fills, allocations, updates, versions).
    pub ssd_data_writes: u64,
    /// SSD delta pages written (KDD).
    pub ssd_delta_writes: u64,
    /// SSD metadata pages written.
    pub ssd_meta_writes: u64,
    /// SSD pages read.
    pub ssd_reads: u64,
    /// RAID member pages read.
    pub raid_reads: u64,
    /// RAID member pages written.
    pub raid_writes: u64,
    /// Pages evicted from the cache.
    pub evictions: u64,
    /// Background parity updates performed (rows repaired).
    pub parity_updates: u64,
    /// Cleaning passes run.
    pub cleanings: u64,
    /// Device faults observed by the engine (failed reads/writes of any
    /// kind, before retry or fallback).
    pub faults_observed: u64,
    /// Operations retried after a transient device fault.
    pub fault_retries: u64,
    /// Requests served by falling back to pass-through RAID after a
    /// persistent SSD fault.
    pub fault_fallbacks: u64,
    /// Torn/corrupt metadata log pages detected (and healed from the
    /// NVRAM in-flight copy) during power-failure recovery.
    pub torn_pages_detected: u64,
}

impl CacheStats {
    /// Fold one access outcome into the counters.
    pub fn record(&mut self, is_read: bool, outcome: &AccessOutcome) {
        match (is_read, outcome.hit) {
            (true, true) => self.read_hits += 1,
            (true, false) => self.read_misses += 1,
            (false, true) => self.write_hits += 1,
            (false, false) => self.write_misses += 1,
        }
        *self += outcome.total();
    }

    /// All requests seen.
    pub fn requests(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Overall cache hit ratio (reads + writes), as Figures 5/7 plot.
    /// Routed through [`kdd_obs::frac`] so the empty case is 0.0 uniformly.
    pub fn hit_ratio(&self) -> f64 {
        frac(self.read_hits + self.write_hits, self.requests())
    }

    /// Read-only hit ratio.
    pub fn read_hit_ratio(&self) -> f64 {
        frac(self.read_hits, self.read_hits + self.read_misses)
    }

    /// Total SSD pages written.
    pub fn ssd_writes_pages(&self) -> u64 {
        self.ssd_data_writes + self.ssd_delta_writes + self.ssd_meta_writes
    }

    /// Total SSD bytes written — the write-traffic metric of Figures 6/8/11.
    pub fn ssd_write_bytes(&self, page_size: u32) -> ByteSize {
        ByteSize(self.ssd_writes_pages() * page_size as u64)
    }

    /// Metadata share of SSD write traffic — the Figure 4 metric.
    pub fn metadata_fraction(&self) -> f64 {
        frac(self.ssd_meta_writes, self.ssd_writes_pages())
    }

    /// Export the counters for the observability recorder. `kdd-obs`
    /// sits below this crate in the dependency graph, so the totals cross
    /// over through its mirror struct; the accessors above stay the thin
    /// views experiments already use.
    pub fn counters(&self) -> kdd_obs::CacheCounters {
        kdd_obs::CacheCounters {
            read_hits: self.read_hits,
            read_misses: self.read_misses,
            write_hits: self.write_hits,
            write_misses: self.write_misses,
            ssd_data_writes: self.ssd_data_writes,
            ssd_delta_writes: self.ssd_delta_writes,
            ssd_meta_writes: self.ssd_meta_writes,
            ssd_reads: self.ssd_reads,
            raid_reads: self.raid_reads,
            raid_writes: self.raid_writes,
            evictions: self.evictions,
            parity_updates: self.parity_updates,
            cleanings: self.cleanings,
            faults_observed: self.faults_observed,
            fault_retries: self.fault_retries,
            fault_fallbacks: self.fault_fallbacks,
            torn_pages_detected: self.torn_pages_detected,
        }
    }
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
        s.record(true, &AccessOutcome::new(true, Effects::default()));
        s.record(true, &AccessOutcome::new(false, Effects::default()));
        s.record(false, &AccessOutcome::new(true, Effects::default()));
        s.record(false, &AccessOutcome::new(false, Effects::default()));
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
        s.record(false, &o);
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

    #[test]
    fn counters_mirror_every_field() {
        let s = CacheStats {
            read_hits: 1,
            read_misses: 2,
            write_hits: 3,
            write_misses: 4,
            ssd_data_writes: 5,
            ssd_delta_writes: 6,
            ssd_meta_writes: 7,
            ssd_reads: 8,
            raid_reads: 9,
            raid_writes: 10,
            evictions: 11,
            parity_updates: 12,
            cleanings: 13,
            faults_observed: 14,
            fault_retries: 15,
            fault_fallbacks: 16,
            torn_pages_detected: 17,
        };
        let c = s.counters();
        assert_eq!(c.requests(), s.requests());
        assert_eq!(c.hits(), s.read_hits + s.write_hits);
        assert_eq!(c.ssd_writes_pages(), s.ssd_writes_pages());
        assert_eq!(c.torn_pages_detected, 17);
        assert_eq!(c.fault_fallbacks, 16);
    }
}
