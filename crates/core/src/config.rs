//! KDD configuration knobs.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use kdd_cache::setassoc::CacheGeometry;
use serde::{Deserialize, Serialize};

/// Tunables for a KDD cache instance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
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
    /// NVRAM staging-buffer capacity in bytes (one flash page by default).
    pub staging_bytes: u32,
    /// Map pages of the same parity stripe to the same cache set (§III-B's
    /// spatial-locality optimisation). Ablation: off → per-page hashing.
    ///
    /// `KddPolicy` ablation; `KddEngine` accepts only the default.
    pub stripe_aligned_sets: bool,
    /// Batch metadata entries in NVRAM before committing page-sized
    /// batches (§III-B's motivation for the circular log). Ablation: off →
    /// every mapping change writes its own metadata page.
    ///
    /// `KddPolicy` ablation; `KddEngine` accepts only the default.
    pub nvram_batching: bool,
    /// After a parity update, combine old+delta into a fresh *clean* page
    /// (§III-D's first reclamation scheme) instead of simply reclaiming
    /// (the second scheme, the paper's choice).
    ///
    /// `KddPolicy` ablation; `KddEngine` accepts only the default.
    pub reclaim_as_clean: bool,
    /// `Some(f)`: statically reserve fraction `f` of the cache for the
    /// Delta Zone instead of mixing DAZ/DEZ pages dynamically in each set
    /// — the design alternative §III-B rejects ("it is hard to determine
    /// the appropriate size of these zones").
    ///
    /// `KddPolicy` ablation; `KddEngine` accepts only the default.
    pub fixed_dez_fraction: Option<f64>,
    /// LARC-style lazy admission (§V-C: selective-allocation policies
    /// "are complementary to our KDD"): a missed page is only cached on
    /// its *second* miss within the ghost window, filtering one-hit
    /// wonders out of the allocation writes. Extension knob, off by
    /// default to match the paper.
    ///
    /// `KddPolicy` ablation; `KddEngine` accepts only the default.
    pub lazy_admission: bool,
}

impl KddConfig {
    /// Paper defaults for a given cache geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        KddConfig {
            geometry,
            clean_threshold: 0.90,
            meta_partition_frac: 0.0059,
            staging_bytes: geometry.page_size,
            stripe_aligned_sets: true,
            nvram_batching: true,
            reclaim_as_clean: false,
            fixed_dez_fraction: None,
            lazy_admission: false,
        }
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
        assert_eq!(c.staging_bytes, 4096);
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
