//! LeavO (Lee, Oh & Lee, SAC'15) — the prior delayed-parity baseline.
//!
//! LeavO also writes data to RAID without a parity update on write hits,
//! but instead of a compressed delta it keeps **both whole versions** of
//! the page in the SSD: the old copy (needed to repair parity later) and
//! the new copy. The paper's critique, which this implementation
//! reproduces faithfully (§II-B):
//!
//! * redundant versions consume cache space → lower hit ratios;
//! * the mapping metadata must be persisted to the SSD on every change,
//!   and entries are appended *uncoalesced* → extra metadata pages;
//! * together these make LeavO write **more** to the SSD than plain
//!   write-through, wearing the cache faster.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use crate::effects::{AccessOutcome, Effects};
use crate::nvbuf::MetadataBuffer;
use crate::policies::{CachePolicy, PendingRows, RaidModel};
use crate::setassoc::{CacheGeometry, InsertOutcome, PageState, SetAssocCache};
use crate::stats::{record, CacheStats};
use kdd_trace::record::Op;
use kdd_util::hash::FastMap;

/// Fraction of cache slots occupied by pinned version pages that triggers
/// the cleaning thread. Parity maintenance is lazy — it runs on space
/// pressure and idle periods — so pinned versions are allowed to dominate
/// the cache (matches KDD's default so the comparison isolates *what* is
/// pinned, not how much).
const CLEAN_THRESHOLD: f64 = 0.90;

/// The LeavO policy.
#[derive(Debug, Clone)]
pub struct LeavO {
    cache: SetAssocCache,
    raid: RaidModel,
    meta: MetadataBuffer,
    pending: PendingRows,
    /// lba → slot holding its retained old version.
    old_versions: FastMap<u64, u32>,
    /// Pages of the row `clean_all` is repairing, reused across rows.
    scratch_lbas: Vec<u64>,
    stats: CacheStats,
    clean_trigger_slots: u64,
}

impl LeavO {
    /// Build over `geometry` with stripe-aligned set grouping.
    pub fn new(geometry: CacheGeometry, raid: RaidModel) -> Self {
        let grouping = raid.set_grouping();
        let clean_trigger_slots = ((geometry.total_pages as f64 * CLEAN_THRESHOLD) as u64).max(4);
        LeavO {
            cache: SetAssocCache::new_grouped(geometry, grouping),
            raid,
            meta: MetadataBuffer::new(geometry.page_size),
            pending: PendingRows::default(),
            old_versions: FastMap::default(),
            scratch_lbas: Vec::new(),
            stats: CacheStats::default(),
            clean_trigger_slots,
        }
    }

    fn push_meta(&mut self, fx: &mut Effects) {
        fx.ssd_meta_writes += self.meta.push();
    }

    /// Repair all pending rows, oldest first, freeing old versions and
    /// unpinning the current copies. Returns the work performed.
    fn clean_all(&mut self) -> Effects {
        let mut fx = Effects::default();
        let mut lbas = std::mem::take(&mut self.scratch_lbas);
        while let Some(row) = self.pending.oldest_row() {
            // Reconstruct-write only if *every* data page of the row is in
            // cache with current content.
            let reconstruct = self.raid.row_lpns(row).all(|l| self.cache.lookup(l).is_some());
            fx += self.raid.parity_update_effects(reconstruct);
            self.stats.parity_updates += 1;
            self.pending.take_row_into(row, &mut lbas);
            for &lba in &lbas {
                if let Some(old_slot) = self.old_versions.remove(&lba) {
                    self.cache.free_slot(old_slot);
                    self.push_meta(&mut fx);
                }
                if let Some(slot) = self.cache.lookup(lba) {
                    if self.cache.state(slot) == PageState::Dirty {
                        self.cache.set_state(slot, PageState::Clean);
                    }
                }
            }
        }
        self.scratch_lbas = lbas;
        self.stats.cleanings += 1;
        fx
    }

    fn maybe_clean(&mut self, bg: &mut Effects) {
        // Each pending page pins two slots (old + current).
        if self.pending.pending_pages() * 2 >= self.clean_trigger_slots {
            *bg += self.clean_all();
        }
    }

    /// Insert with cleaning fallback; returns false if the page had to
    /// bypass the cache entirely.
    fn insert_or_bypass(
        &mut self,
        lba: u64,
        state: PageState,
        fx: &mut Effects,
        bg: &mut Effects,
    ) -> bool {
        for attempt in 0..2 {
            match self.cache.insert(lba, state, |s| s == PageState::Clean) {
                InsertOutcome::Inserted { .. } => return true,
                InsertOutcome::Evicted { .. } => {
                    self.stats.evictions += 1;
                    self.push_meta(fx);
                    return true;
                }
                InsertOutcome::NoRoom => {
                    if attempt == 0 {
                        *bg += self.clean_all();
                    } else {
                        // Undo the speculative insert attempt state.
                        return false;
                    }
                }
            }
        }
        false
    }
}

impl CachePolicy for LeavO {
    fn name(&self) -> String {
        "LeavO".to_string()
    }

    fn access(&mut self, op: Op, lba: u64) -> AccessOutcome {
        let mut fx = Effects::default();
        let mut bg = Effects::default();
        let hit = match (op, self.cache.lookup(lba)) {
            (Op::Read, Some(slot)) => {
                self.cache.touch(slot);
                fx += Effects::ssd_read();
                true
            }
            (Op::Read, None) => {
                fx += self.raid.read_effects();
                if self.insert_or_bypass(lba, PageState::Clean, &mut fx, &mut bg) {
                    fx.ssd_data_writes += 1;
                    self.push_meta(&mut fx);
                }
                false
            }
            (Op::Write, Some(slot)) => {
                let row = self.raid.row_of(lba);
                if self.pending.contains(row, lba) {
                    // Old version already retained: overwrite the current
                    // copy in place.
                    self.cache.touch(slot);
                    fx.ssd_data_writes += 1;
                    fx += self.raid.data_write_effects();
                    self.push_meta(&mut fx);
                } else {
                    // First delayed write since the last parity update: the
                    // old copy stays on flash (no I/O), the new version is
                    // programmed to a fresh slot. We model this as: the
                    // mapped slot stays "current" (pinned Dirty until the
                    // parity repair) and an extra unmapped slot is consumed
                    // to represent the retained old version — the slot
                    // count and the SSD traffic are exactly LeavO's.
                    match self.cache.alloc_delta_slot() {
                        Some(extra) => {
                            self.cache.set_state(extra, PageState::OldVersion);
                            self.old_versions.insert(lba, extra);
                            self.cache.touch(slot);
                            self.cache.set_state(slot, PageState::Dirty);
                            fx.ssd_data_writes += 1; // program the new version
                            fx += self.raid.data_write_effects();
                            self.pending.add(row, lba, || 0); // LeavO never asks by set
                            self.push_meta(&mut fx);
                        }
                        None => {
                            // No room to retain a version: degrade to a
                            // write-through update for this request.
                            self.cache.touch(slot);
                            fx.ssd_data_writes += 1;
                            fx += self.raid.small_write_effects();
                            self.push_meta(&mut fx);
                        }
                    }
                    self.maybe_clean(&mut bg);
                }
                true
            }
            (Op::Write, None) => {
                // Conventional write miss: cache it and update parity.
                if self.insert_or_bypass(lba, PageState::Clean, &mut fx, &mut bg) {
                    fx.ssd_data_writes += 1;
                    self.push_meta(&mut fx);
                }
                fx += self.raid.small_write_effects();
                false
            }
        };
        let mut outcome = AccessOutcome::new(hit, fx);
        outcome.background = bg;
        record(&mut self.stats, op == Op::Read, &outcome);
        outcome
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn idle_tick(&mut self) -> Effects {
        let fx = self.clean_all();
        self.stats += fx;
        fx
    }

    fn flush(&mut self) -> Effects {
        let mut fx = self.clean_all();
        fx.ssd_meta_writes += self.meta.flush();
        // Account traffic without counting a request.
        self.stats += fx;
        fx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leavo(pages: u64) -> LeavO {
        LeavO::new(
            CacheGeometry { total_pages: pages, ways: 8.min(pages as u32), page_size: 4096 },
            RaidModel::paper_default(100_000),
        )
    }

    #[test]
    fn write_hit_skips_parity_but_keeps_two_versions() {
        let mut p = leavo(64);
        p.access(Op::Write, 5); // miss: conventional parity write
        let w = p.access(Op::Write, 5); // hit: delayed parity
        assert!(w.hit);
        assert_eq!(w.foreground.raid_writes, 1, "data only, no parity");
        assert_eq!(w.foreground.raid_reads, 0);
        assert_eq!(w.foreground.ssd_data_writes, 1, "new version programmed");
        // Two slots consumed for this lba now.
        assert_eq!(p.cache.count_state(PageState::OldVersion), 1);
        assert_eq!(p.cache.count_state(PageState::Dirty), 1);
        assert_eq!(p.pending.pending_pages(), 1);
    }

    #[test]
    fn repeated_write_hits_reuse_old_version() {
        let mut p = leavo(64);
        p.access(Op::Write, 5);
        p.access(Op::Write, 5);
        p.access(Op::Write, 5);
        p.access(Op::Write, 5);
        assert_eq!(p.cache.count_state(PageState::OldVersion), 1, "only one old version kept");
        assert_eq!(p.pending.pending_pages(), 1);
    }

    #[test]
    fn flush_repairs_parity_and_unpins() {
        let mut p = leavo(64);
        p.access(Op::Write, 5);
        p.access(Op::Write, 5);
        let fx = p.flush();
        assert!(fx.raid_writes >= 1, "parity repaired");
        assert_eq!(p.pending.pending_pages(), 0);
        assert_eq!(p.cache.count_state(PageState::OldVersion), 0);
        assert_eq!(p.cache.count_state(PageState::Dirty), 0);
        assert!(p.stats().parity_updates >= 1);
    }

    #[test]
    fn metadata_persisted_per_update() {
        let mut p = leavo(4096);
        // Enough distinct fills to overflow the 170-entry buffer.
        for lba in 0..200 {
            p.access(Op::Read, lba);
        }
        p.flush();
        assert!(p.stats().ssd_meta_writes >= 1, "metadata pages must be written");
    }

    #[test]
    fn writes_more_than_wt_under_rewrites() {
        // The paper's core critique: LeavO's SSD traffic exceeds WT's.
        use crate::policies::WriteThrough;
        let geom = CacheGeometry { total_pages: 256, ways: 8, page_size: 4096 };
        let raid = RaidModel::paper_default(100_000);
        let mut lv = LeavO::new(geom, raid);
        let mut wt = WriteThrough::new(geom, raid);
        // Read-heavy with a working set bigger than the cache, plus
        // rewrites: LeavO's version pages shrink its effective size.
        for round in 0..4 {
            for lba in 0..512u64 {
                lv.access(Op::Read, lba);
                wt.access(Op::Read, lba);
                if lba % 3 == round % 3 {
                    lv.access(Op::Write, lba);
                    wt.access(Op::Write, lba);
                }
            }
        }
        lv.flush();
        wt.flush();
        assert!(
            lv.stats().ssd_writes_pages() > wt.stats().ssd_writes_pages(),
            "LeavO {} should exceed WT {}",
            lv.stats().ssd_writes_pages(),
            wt.stats().ssd_writes_pages()
        );
        assert!(
            lv.stats().hit_ratio() <= wt.stats().hit_ratio() + 0.02,
            "LeavO hit {} vs WT {}",
            lv.stats().hit_ratio(),
            wt.stats().hit_ratio()
        );
    }

    #[test]
    fn cleaning_triggered_by_threshold() {
        let mut p = leavo(64); // trigger at 20% of 64 ≈ 12 slots ≈ 6 pending
        for lba in 0..32u64 {
            p.access(Op::Write, lba);
            p.access(Op::Write, lba); // make it pending
        }
        assert!(p.stats().cleanings > 0, "threshold cleaning never fired");
        // Pending set must stay bounded.
        assert!(p.pending.pending_pages() * 2 < 64);
    }
}
