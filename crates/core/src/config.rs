//! KDD configuration knobs: what both §III copies run. The designs
//! `KddPolicy` alone can measure against the paper's are
//! [`crate::KddVariant`]s.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use kdd_cache::setassoc::CacheGeometry;

/// Tunables for a KDD cache instance.
#[derive(Debug, Clone, Copy)]
pub struct KddConfig {
    /// Cache shape (slots, associativity, page size).
    pub geometry: CacheGeometry,
    /// Fraction of cache slots occupied by *old* + *delta* pages that
    /// wakes the cleaning thread (§III-D: "when the total size of the
    /// old/delta pages exceeds a certain threshold").
    pub clean_threshold: f64,
    /// Metadata partition size as a fraction of the SSD's page count
    /// (Figure 4 sweeps 0.39 %–0.98 %; the paper settles on 0.59 %).
    pub meta_partition_frac: f64,
}

impl KddConfig {
    /// Paper defaults for a given cache geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        KddConfig { geometry, clean_threshold: 0.90, meta_partition_frac: 0.0059 }
    }

    /// Metadata partition size in pages (at least 2).
    pub fn meta_partition_pages(&self) -> u64 {
        ((self.geometry.total_pages as f64 * self.meta_partition_frac) as u64).max(2)
    }

    /// Cleaning trigger expressed in slots.
    pub fn clean_trigger_slots(&self) -> u64 {
        ((self.geometry.total_pages as f64 * self.clean_threshold) as u64).max(4)
    }

    /// Pinned (*old* + *delta*) slots at which space pressure starts to
    /// build, ¾ of the trigger: from here on every write hit first squeezes
    /// fragmentation out of the DEZ (cheap, and it keeps the delta path).
    pub fn compact_pressure_slots(&self) -> u64 {
        (3 * self.clean_trigger_slots()).div_ceil(4)
    }

    /// Where a triggered cleaning stops, ⅞ of the trigger: just under it,
    /// so only the longest-stale rows are reclaimed and recently written
    /// hot pages keep their deltas.
    pub fn clean_low_water_slots(&self) -> u64 {
        self.clean_trigger_slots() * 7 / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let g = CacheGeometry { total_pages: 262_144, ways: 64, page_size: 4096 };
        let c = KddConfig::new(g);
        assert!((c.meta_partition_frac - 0.0059).abs() < 1e-12);
        // 0.59% of 262144 pages ≈ 1546 pages.
        assert_eq!(c.meta_partition_pages(), 1546);
        assert_eq!(c.clean_trigger_slots(), 235_929);
    }

    #[test]
    fn tiny_caches_get_floors() {
        let g = CacheGeometry { total_pages: 16, ways: 4, page_size: 4096 };
        let c = KddConfig::new(g);
        assert_eq!(c.meta_partition_pages(), 2);
        assert!(c.clean_trigger_slots() >= 4);
    }
}
