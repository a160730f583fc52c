//! Write-around caching (WA).
//!
//! Writes bypass the SSD entirely (invalidating any cached copy to keep
//! the cache coherent); only read misses allocate. This gives the fewest
//! SSD writes of any policy (Figures 6/8/11's lower envelope) at the cost
//! of no write acceleration at all.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use crate::effects::{AccessOutcome, Effects};
use crate::policies::{CachePolicy, RaidModel};
use crate::setassoc::{CacheGeometry, InsertOutcome, PageState, SetAssocCache};
use crate::stats::{record, CacheStats};
use kdd_trace::record::Op;

/// Read-allocate cache; writes go around it.
#[derive(Debug, Clone)]
pub struct WriteAround {
    cache: SetAssocCache,
    raid: RaidModel,
    stats: CacheStats,
}

impl WriteAround {
    /// Build over `geometry` with stripe-aligned set grouping.
    pub fn new(geometry: CacheGeometry, raid: RaidModel) -> Self {
        let grouping = raid.set_grouping();
        WriteAround {
            cache: SetAssocCache::new_grouped(geometry, grouping),
            raid,
            stats: CacheStats::default(),
        }
    }
}

impl CachePolicy for WriteAround {
    fn name(&self) -> String {
        "WA".to_string()
    }

    fn access(&mut self, op: Op, lba: u64) -> AccessOutcome {
        let mut fx = Effects::default();
        let hit = match (op, self.cache.lookup(lba)) {
            (Op::Read, Some(slot)) => {
                self.cache.touch(slot);
                fx += Effects::ssd_read();
                true
            }
            (Op::Read, None) => {
                fx += self.raid.read_effects();
                match self.cache.insert(lba, PageState::Clean, |s| s == PageState::Clean) {
                    InsertOutcome::Evicted { .. } => self.stats.evictions += 1,
                    InsertOutcome::Inserted { .. } => {}
                    // Impossible while every resident page is Clean; if the
                    // accounting ever breaks, degrade to a no-fill miss.
                    InsertOutcome::NoRoom => debug_assert!(false, "WA pages are always evictable"),
                }
                fx.ssd_data_writes += 1;
                false
            }
            (Op::Write, cached) => {
                // The write bypasses the cache; a cached copy would go
                // stale, so invalidate it (no SSD traffic — just a trim).
                if let Some(slot) = cached {
                    self.cache.free_slot(slot);
                    self.stats.evictions += 1;
                }
                fx += self.raid.small_write_effects();
                false // writes never count as cache hits in WA
            }
        };
        let outcome = AccessOutcome::new(hit, fx);
        record(&mut self.stats, op == Op::Read, &outcome);
        outcome
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn flush(&mut self) -> Effects {
        Effects::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wa(pages: u64) -> WriteAround {
        WriteAround::new(
            CacheGeometry { total_pages: pages, ways: 8.min(pages as u32), page_size: 4096 },
            RaidModel::paper_default(100_000),
        )
    }

    #[test]
    fn writes_never_allocate() {
        let mut p = wa(64);
        for lba in 0..20 {
            let w = p.access(Op::Write, lba);
            assert!(!w.hit);
            assert_eq!(w.foreground.ssd_data_writes, 0, "write must bypass SSD");
        }
        assert_eq!(p.stats().ssd_writes_pages(), 0);
    }

    #[test]
    fn write_invalidates_cached_copy() {
        let mut p = wa(64);
        p.access(Op::Read, 3); // fills
        let h = p.access(Op::Read, 3);
        assert!(h.hit);
        p.access(Op::Write, 3); // invalidates
        let m = p.access(Op::Read, 3);
        assert!(!m.hit, "stale copy must have been dropped");
    }

    #[test]
    fn only_read_misses_write_ssd() {
        let mut p = wa(64);
        p.access(Op::Read, 1);
        p.access(Op::Read, 2);
        p.access(Op::Read, 1); // hit
        p.access(Op::Write, 9);
        assert_eq!(p.stats().ssd_writes_pages(), 2, "two read fills only");
    }
}
