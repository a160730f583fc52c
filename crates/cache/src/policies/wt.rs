//! Write-through caching (WT).
//!
//! The production-default policy the paper compares against (§II-B):
//! every write goes to both the cache and the RAID (with its full parity
//! update), so an SSD failure loses nothing — but every small write still
//! pays the parity penalty, and every write is an SSD program.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use crate::effects::{AccessOutcome, Effects};
use crate::policies::{CachePolicy, RaidModel};
use crate::setassoc::{CacheGeometry, InsertOutcome, PageState, SetAssocCache};
use crate::stats::{record, CacheStats};
use kdd_trace::record::Op;

/// Write-allocate, write-through SSD cache.
#[derive(Debug, Clone)]
pub struct WriteThrough {
    cache: SetAssocCache,
    raid: RaidModel,
    stats: CacheStats,
}

impl WriteThrough {
    /// Build over `geometry`, grouped by the RAID's stripe size so all
    /// policies share identical set placement.
    pub fn new(geometry: CacheGeometry, raid: RaidModel) -> Self {
        let grouping = raid.set_grouping();
        WriteThrough {
            cache: SetAssocCache::new_grouped(geometry, grouping),
            raid,
            stats: CacheStats::default(),
        }
    }

    fn fill(&mut self, lba: u64, fx: &mut Effects) {
        match self.cache.insert(lba, PageState::Clean, |s| s == PageState::Clean) {
            InsertOutcome::Inserted { .. } => {}
            InsertOutcome::Evicted { .. } => self.stats.evictions += 1,
            // Impossible while every resident page is Clean; if the
            // accounting ever breaks, degrade to a no-fill miss.
            InsertOutcome::NoRoom => debug_assert!(false, "WT pages are always evictable"),
        }
        fx.ssd_data_writes += 1;
    }
}

impl CachePolicy for WriteThrough {
    fn name(&self) -> String {
        "WT".to_string()
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
                self.fill(lba, &mut fx);
                false
            }
            (Op::Write, Some(slot)) => {
                self.cache.touch(slot);
                fx.ssd_data_writes += 1; // in-place update of the cached copy
                fx += self.raid.small_write_effects();
                true
            }
            (Op::Write, None) => {
                self.fill(lba, &mut fx);
                fx += self.raid.small_write_effects();
                false
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
        Effects::default() // nothing buffered: all writes already on RAID
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wt(pages: u64) -> WriteThrough {
        WriteThrough::new(
            CacheGeometry { total_pages: pages, ways: 8.min(pages as u32), page_size: 4096 },
            RaidModel::paper_default(100_000),
        )
    }

    #[test]
    fn read_miss_fills_then_hits() {
        let mut p = wt(64);
        let m = p.access(Op::Read, 10);
        assert!(!m.hit);
        assert_eq!(m.foreground.raid_reads, 1);
        assert_eq!(m.foreground.ssd_data_writes, 1, "read fill");
        let h = p.access(Op::Read, 10);
        assert!(h.hit);
        assert_eq!(h.foreground.ssd_reads, 1);
        assert_eq!(h.foreground.raid_reads, 0);
    }

    #[test]
    fn every_write_pays_parity() {
        let mut p = wt(64);
        let w1 = p.access(Op::Write, 5);
        assert!(!w1.hit);
        assert_eq!(w1.foreground.raid_writes, 2);
        let w2 = p.access(Op::Write, 5);
        assert!(w2.hit, "second write hits");
        assert_eq!(w2.foreground.raid_writes, 2, "but still updates parity");
        assert_eq!(w2.foreground.ssd_data_writes, 1, "and rewrites the SSD copy");
    }

    #[test]
    fn eviction_under_pressure() {
        let mut p = wt(8);
        for lba in 0..1000 {
            p.access(Op::Read, lba);
        }
        assert!(p.stats().evictions > 0);
        assert_eq!(p.stats().read_misses, 1000);
    }

    #[test]
    fn flush_is_noop() {
        let mut p = wt(8);
        p.access(Op::Write, 1);
        assert_eq!(p.flush(), Effects::default());
    }
}
