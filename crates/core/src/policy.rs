//! KDD as a [`CachePolicy`]: the trace-driven accounting implementation
//! used by the simulation experiments (Figures 4–8).
//!
//! The full §III algorithm, state machine and all:
//!
//! * **DAZ/DEZ dynamic zoning** — data pages hash into cache sets
//!   (stripe-aligned); DEZ pages are allocated on demand from the set with
//!   the fewest delta pages, so the split adapts to the workload;
//! * **write hits** — the data goes to RAID *without* a parity update; the
//!   compressed delta (size drawn from the configured
//!   [`DeltaSizeModel`]) is staged in NVRAM, coalescing per page, and
//!   committed compactly into one DEZ page when the staging buffer fills;
//! * **metadata** — mapping changes feed the circular persistent log
//!   ([`MetaLog`]); write hits log nothing until their delta commits;
//! * **cleaning** — threshold-triggered: each stale row is repaired by
//!   reconstruct-write when every data page of the row is cached, else by
//!   read-modify-write on the stale parity, after which *old* pages are
//!   reclaimed and their deltas invalidated (the paper's "second scheme",
//!   §III-D);
//! * **eviction** — only *clean* pages are evictable; *old* and *delta*
//!   pages leave only through the cleaner.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::cleaner::{self, CleanerIo, Done, Refs, Zones};
use crate::config::KddConfig;
use crate::dez::{DeltaLoc, DeltaRef};
use crate::metalog::{Commits, KeyEntry, MetaLog, PartitionTooSmall};
use crate::staging::StagingBuffer;
use kdd_cache::effects::{AccessOutcome, Effects};
use kdd_cache::nvbuf::ENTRY_BYTES;
use kdd_cache::policies::{set_of_row, CachePolicy, RaidModel};
use kdd_cache::setassoc::{PageState, SetAssocCache};
use kdd_cache::stats::{record, CacheStats};
use kdd_delta::model::DeltaSizeModel;
use kdd_trace::record::Op;
use kdd_util::lru::GhostList;
use std::convert::Infallible;

/// Metadata pages a log operation lent.
///
/// # Panics
/// When the log is wedged. The counting model has no error channel, and a
/// sweep point whose partition cannot hold the simulated cache's mappings
/// must stop rather than report an under-counted figure.
#[expect(clippy::panic, reason = "simulation model, not an I/O path; see above")]
fn meta_pages(commits: Result<Commits<'_, KeyEntry>, PartitionTooSmall>) -> u32 {
    match commits {
        Ok(batches) => batches.len() as u32,
        Err(e) => panic!("{e}"),
    }
}

/// The design a [`KddPolicy`] runs: the paper's, or one alternative the
/// ablation studies measure it against. [`crate::KddEngine`] runs the
/// paper's alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KddVariant {
    /// The paper's design (§III).
    Paper,
    /// Pages hash into cache sets one by one instead of by parity stripe
    /// (§III-B's spatial-locality mapping, switched off).
    PageHashedSets,
    /// Every mapping change writes its own metadata page instead of
    /// batching entries in NVRAM (§III-B's motivation for the circular
    /// log).
    UnbatchedMetadata,
    /// After a parity update, combine old + delta into a fresh *clean*
    /// page (§III-D's first reclamation scheme) instead of freeing it (the
    /// second, the paper's choice).
    ReclaimAsClean,
    /// Statically reserve this fraction of the cache for the Delta Zone
    /// instead of mixing DAZ/DEZ pages in each set — the alternative
    /// §III-B rejects ("it is hard to determine the appropriate size of
    /// these zones").
    FixedDez(f64),
    /// LARC-style lazy admission (§V-C calls selective allocation
    /// "complementary to our KDD"): a missed page is cached only on its
    /// second miss within the ghost window, filtering one-hit wonders out
    /// of the allocation writes.
    LazyAdmission,
}

/// The KDD cache-management policy (accounting mode).
///
/// # Examples
///
/// ```
/// use kdd_cache::policies::{CachePolicy, RaidModel};
/// use kdd_cache::setassoc::CacheGeometry;
/// use kdd_core::{KddConfig, KddPolicy};
/// use kdd_delta::model::FixedDeltaModel;
/// use kdd_trace::Op;
///
/// let geometry = CacheGeometry { total_pages: 128, ways: 16, page_size: 4096 };
/// let raid = RaidModel::paper_default(100_000);
/// let mut kdd = KddPolicy::new(
///     KddConfig::new(geometry),
///     raid,
///     Box::new(FixedDeltaModel::new(0.25)),
/// );
///
/// kdd.access(Op::Write, 7);                 // miss: conventional parity write
/// let hit = kdd.access(Op::Write, 7);       // hit: the KDD delta path
/// assert!(hit.hit);
/// assert_eq!(hit.foreground.raid_writes, 1, "data only — no parity I/O");
/// assert_eq!(hit.foreground.ssd_data_writes, 0, "delta staged in NVRAM");
/// kdd.flush();                              // cleaner repairs stale parity
/// ```
pub struct KddPolicy {
    /// The directory, DEZ index, pending rows, counters and configuration.
    pub(crate) z: Zones,
    variant: KddVariant,
    model: Box<dyn DeltaSizeModel>,
    staging: StagingBuffer<u32>,
    metalog: MetaLog<KeyEntry>,
    /// LARC-style ghost list (lazy admission extension).
    ghost: Option<GhostList>,
    /// Fixed-partition mode: the partition's free DEZ ids, the most
    /// recently freed last. The ids are the slots just above the DAZ
    /// directory's.
    fixed_dez_ids: Vec<u32>,
}

impl KddPolicy {
    /// Build the paper's KDD cache with the given delta-compressibility
    /// model.
    pub fn new(config: KddConfig, raid: RaidModel, model: Box<dyn DeltaSizeModel>) -> Self {
        Self::with_variant(config, raid, model, KddVariant::Paper)
    }

    /// Build a KDD cache that runs `variant`.
    pub fn with_variant(
        config: KddConfig,
        raid: RaidModel,
        model: Box<dyn DeltaSizeModel>,
        variant: KddVariant,
    ) -> Self {
        let grouping = if variant == KddVariant::PageHashedSets {
            kdd_cache::setassoc::SetGrouping::Pages(1)
        } else {
            raid.set_grouping()
        };
        let page_size = config.geometry.page_size;
        assert!(page_size <= u32::from(u16::MAX), "a delta's length must fit 16 bits");
        let epp = (page_size / ENTRY_BYTES).max(1) as usize;
        // Fixed DEZ partitioning shrinks the directory to the DAZ share
        // and puts the reserved slots in a simple pool.
        let mut geometry = config.geometry;
        let mut fixed_dez_ids = Vec::new();
        if let KddVariant::FixedDez(f) = variant {
            assert!((0.0..1.0).contains(&f), "DEZ fraction must be in [0,1)");
            let fixed_dez = (geometry.total_pages as f64 * f) as u64;
            geometry.total_pages = (geometry.total_pages - fixed_dez).max(1);
            let ids = geometry.total_pages..geometry.total_pages + fixed_dez;
            fixed_dez_ids = ids.rev().map(|id| id as u32).collect();
        }
        KddPolicy {
            z: Zones::new(config, raid.layout, SetAssocCache::new_grouped(geometry, grouping)),
            variant,
            model,
            staging: StagingBuffer::new(page_size),
            metalog: MetaLog::new(config.meta_partition_pages(), epp),
            ghost: (variant == KddVariant::LazyAdmission)
                .then(|| GhostList::new(config.geometry.total_pages as usize)),
            fixed_dez_ids,
        }
    }

    /// Pages currently in the *old* state.
    pub fn old_pages(&self) -> u64 {
        self.z.cache.count_state(PageState::Old) as u64
    }

    /// DEZ pages currently allocated.
    pub fn delta_pages(&self) -> u64 {
        self.z.dez.len()
    }

    /// The array's cost model, over the zones' layout.
    fn raid(&self) -> RaidModel {
        RaidModel { layout: self.z.layout }
    }

    /// Whether `lba`'s delta is committed to a DEZ page.
    fn in_dez(&self, lba: u64) -> bool {
        matches!(self.z.dez.loc(lba), Some(DeltaLoc::Dez(_)))
    }

    // ---- metadata ---------------------------------------------------------

    /// Log `lba`'s mapping, or its tombstone.
    fn log(&mut self, lba: u64, tombstone: bool, fx: &mut Effects) {
        fx.ssd_meta_writes += meta_pages(self.metalog.push(KeyEntry { key: lba, tombstone }));
        if self.variant == KddVariant::UnbatchedMetadata {
            fx.ssd_meta_writes += meta_pages(self.metalog.flush());
        }
    }

    // ---- delta plumbing ----------------------------------------------------

    /// Cache a missed page clean unless admission or a pinned set turns it
    /// away.
    fn fill_clean(&mut self, lba: u64, fx: &mut Effects, bg: &mut Effects) {
        if self.admit(lba) {
            if let Ok(Some(_)) = cleaner::insert_clean_or_bypass(self, lba, fx, bg) {
                fx.ssd_data_writes += 1;
                self.log(lba, false, fx);
            }
        }
    }

    /// Lazy-admission filter (LARC extension): a missed page is admitted
    /// only on its second miss within the ghost window. Always admits
    /// when the extension is off (the paper's configuration).
    fn admit(&mut self, lba: u64) -> bool {
        let Some(g) = &mut self.ghost else { return true };
        // The second miss admits; the first is only remembered.
        g.remove(lba) || {
            g.insert(lba);
            false
        }
    }
}

impl CleanerIo for KddPolicy {
    type Cost = Effects;
    type Error = Infallible;
    /// Sizes only: the whole one-page staging buffer fits one DEZ page.
    const DEZ_PAGE_OVERHEAD: (u32, u32) = (0, 0);

    fn zones(&mut self) -> &mut Zones {
        &mut self.z
    }

    /// Counted: the row's pages read from SSD to reconstruct (one parallel
    /// round), else each committed delta's DEZ read; every delta is
    /// decompressed.
    fn repair(
        &mut self,
        _row: u64,
        lbas: &[u64],
        reconstruct: bool,
        fx: &mut Effects,
    ) -> Done<Self> {
        if reconstruct {
            fx.ssd_reads += self.z.layout.row_width() as u32;
            fx.ssd_read_rounds += 1;
        } else {
            fx.ssd_reads += lbas.iter().filter(|&&lba| self.in_dez(lba)).count() as u32;
        }
        *fx += self.raid().parity_update_effects(reconstruct);
        fx.decompressions += lbas.len() as u32;
        Ok(())
    }

    /// The paper's second scheme frees the page; the first
    /// ([`KddVariant::ReclaimAsClean`]) combines old + delta and rewrites
    /// it clean, an extra SSD program per victim that keeps the page's
    /// delta path.
    fn reclaim(&mut self, lba: u64, slot: u32, fx: &mut Effects) -> Done<Self> {
        cleaner::invalidate_delta(self, lba)?;
        if self.variant == KddVariant::ReclaimAsClean {
            self.z.cache.set_state(slot, PageState::Clean);
            fx.ssd_data_writes += 1;
            self.log(lba, false, fx);
        } else {
            self.z.cache.free_slot(slot);
            self.log(lba, true, fx);
        }
        Ok(())
    }

    fn staged(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.staging.snapshot().map(|(lba, &len)| (lba, len))
    }

    fn unstage(&mut self, lba: u64) {
        self.staging.remove(lba);
    }

    /// The fixed partition's last freed id, else a free slot from the set
    /// with the fewest DEZ pages (compacting first if that frees one), else
    /// the slot of the evicted [`SetAssocCache::dez_victim`].
    fn alloc_dez_slot(&mut self, fx: &mut Effects) -> Result<Option<u32>, Infallible> {
        if matches!(self.variant, KddVariant::FixedDez(_)) {
            if self.fixed_dez_ids.is_empty() {
                cleaner::compact(self, fx)?; // try to reclaim partition slots
            }
            // None: the static partition is full — that's the point.
            return Ok(self.fixed_dez_ids.pop());
        }
        if let Some(slot) = self.z.cache.alloc_delta_slot() {
            return Ok(Some(slot));
        }
        cleaner::compact(self, fx)?;
        if let Some(slot) = self.z.cache.alloc_delta_slot() {
            return Ok(Some(slot));
        }
        // No free slot anywhere: evict a clean page to make room.
        let Some((slot, lba)) = self.z.cache.dez_victim() else { return Ok(None) };
        self.z.cache.free_slot(slot);
        self.z.stats.evictions += 1;
        self.log(lba, true, fx);
        Ok(self.z.cache.alloc_delta_slot())
    }

    fn free_dez_slot(&mut self, slot: u32) -> Done<Self> {
        if matches!(self.variant, KddVariant::FixedDez(_)) {
            self.fixed_dez_ids.push(slot);
        } else {
            self.z.cache.free_slot(slot);
        }
        Ok(())
    }

    /// Counted: one page written, after one read of each DEZ page its
    /// deltas lie in — a merge's two victims; none for staged deltas.
    fn write_dez_page(&mut self, _slot: u32, refs: &Refs, fx: &mut Effects) -> Done<Self> {
        let mut from = None;
        for &(lba, _) in refs {
            // A merge's deltas come page by page.
            if let Some(DeltaLoc::Dez(r)) = self.z.dez.loc(lba) {
                fx.ssd_reads += u32::from(from.replace(r.slot) != Some(r.slot));
            }
        }
        fx.ssd_delta_writes += 1;
        Ok(())
    }

    /// Mapping entries for the affected old pages are logged only now
    /// (§III-C): the `(lba_dez, off, len)` tuple is finally known.
    fn log_commit(&mut self, refs: &Refs, fx: &mut Effects) -> Done<Self> {
        for &(lba, _) in refs {
            self.log(lba, false, fx);
        }
        Ok(())
    }

    fn log_delta(&mut self, lba: u64, _r: DeltaRef, fx: &mut Effects) -> Done<Self> {
        self.log(lba, false, fx);
        Ok(())
    }

    fn log_evicted(&mut self, lba: u64, _slot: u32, fx: &mut Effects) -> Done<Self> {
        self.log(lba, true, fx);
        Ok(())
    }
}

impl CachePolicy for KddPolicy {
    fn name(&self) -> String {
        format!("KDD-{}%", (self.model.mean_ratio() * 100.0).round() as u32)
    }

    fn access(&mut self, op: Op, lba: u64) -> AccessOutcome {
        let mut fx = Effects::default();
        let mut bg = Effects::default();
        let page_size = self.z.config.geometry.page_size;
        let hit = match (op, self.z.cache.lookup(lba)) {
            (Op::Read, Some(slot)) => {
                self.z.cache.touch(slot);
                match self.z.cache.state(slot) {
                    PageState::Old => {
                        // Combine old data + latest delta, fetched in one
                        // round over distinct channels; a delta still in
                        // NVRAM costs no flash read.
                        fx.ssd_reads += 1 + u32::from(self.in_dez(lba));
                        fx.ssd_read_rounds += 1;
                        fx.decompressions += 1;
                    }
                    _ => fx += Effects::ssd_read(),
                }
                true
            }
            (Op::Read, None) => {
                fx += self.raid().read_effects();
                self.fill_clean(lba, &mut fx, &mut bg);
                false
            }
            (Op::Write, Some(slot)) => {
                // THE KDD WRITE HIT: data to RAID without parity update;
                // compressed delta staged in NVRAM.
                self.z.cache.touch(slot);
                if self.z.cache.state(slot) == PageState::Clean {
                    self.z.cache.set_state(slot, PageState::Old);
                }
                let size = self.model.delta_size(page_size);
                fx.compressions += 1;
                let Ok(()) = cleaner::invalidate_delta(self, lba);
                if !self.staging.fits(lba, &size) {
                    let Ok(()) = cleaner::commit_staging(self, &mut fx);
                }
                if self.staging.fits(lba, &size) {
                    self.staging.insert(lba, size);
                    self.z.dez.restage(lba, true);
                    fx += self.raid().data_write_effects();
                    let row = self.raid().row_of(lba);
                    self.z.pending.add(row, lba, || set_of_row(&self.z.cache, &self.z.layout, row));
                } else {
                    // Could not commit (cache fully pinned even after
                    // cleaning): degrade this request to write-through —
                    // full parity write, refresh the cached copy, no
                    // pending delta.
                    if let Some(slot) = self.z.cache.lookup(lba) {
                        self.z.cache.set_state(slot, PageState::Clean);
                    }
                    self.z.pending.remove(self.raid().row_of(lba), lba);
                    fx.ssd_data_writes += 1;
                    fx += self.raid().small_write_effects();
                }
                let Ok(()) = cleaner::maybe_clean(self, &mut bg);
                true
            }
            (Op::Write, None) => {
                // Conventional write miss: cache in DAZ, parity updated
                // the normal way (§III-A).
                self.fill_clean(lba, &mut fx, &mut bg);
                fx += self.raid().small_write_effects();
                false
            }
        };
        let mut outcome = AccessOutcome::new(hit, fx);
        outcome.background = bg;
        record(&mut self.z.stats, op == Op::Read, &outcome);
        outcome
    }

    fn stats(&self) -> &CacheStats {
        &self.z.stats
    }

    fn idle_tick(&mut self) -> Effects {
        // A bounded batch of oldest-stale rows per idle period: repeated
        // idleness drains the backlog without a latency cliff when load
        // resumes.
        let mut fx = Effects::default();
        for _ in 0..16 {
            let Some(row) = self.z.pending.oldest_row() else { break };
            let Ok(()) = cleaner::clean_row(self, row, &mut fx);
        }
        if self.z.pending.pending_rows() == 0 {
            let Ok(()) = cleaner::commit_staging(self, &mut fx);
        }
        self.z.stats.cleanings += 1;
        self.z.stats += fx;
        fx
    }

    fn flush(&mut self) -> Effects {
        let mut fx = Effects::default();
        let Ok(()) = cleaner::clean_oldest(self, None, &mut fx);
        // Anything still staged gets committed, then the metadata buffer
        // itself is flushed.
        let Ok(()) = cleaner::commit_staging(self, &mut fx);
        fx.ssd_meta_writes += meta_pages(self.metalog.flush());
        self.z.stats += fx;
        fx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdd_cache::setassoc::CacheGeometry;
    use kdd_delta::model::{FixedDeltaModel, GaussianDeltaModel};

    fn kdd(pages: u64, ratio: f64) -> KddPolicy {
        let g = CacheGeometry { total_pages: pages, ways: 8.min(pages as u32), page_size: 4096 };
        KddPolicy::new(
            KddConfig::new(g),
            RaidModel::paper_default(100_000),
            Box::new(FixedDeltaModel::new(ratio)),
        )
    }

    #[test]
    fn compaction_victims_match_stable_sort_over_many_merges() {
        // Skewed rewrites over a working set larger than the cache, with
        // Gaussian delta sizes: DEZ pages decay unevenly and
        // pressure-driven compaction keeps merging them.
        let g = CacheGeometry { total_pages: 256, ways: 8, page_size: 4096 };
        let mut p = KddPolicy::new(
            KddConfig::new(g),
            RaidModel::paper_default(100_000),
            Box::new(GaussianDeltaModel::new(0.25, 7)),
        );
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..8_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = x >> 33;
            let lba = if r % 4 == 0 { (r >> 2) % 2048 } else { (r >> 2) % 160 };
            p.access(Op::Write, lba);
        }
        // The victims of every merge are held to the stable sort by
        // `plan_merge`'s own tests; here, that the bound changes no decision:
        // 999 merges, as with a scan on every loop entry.
        let crate::MergeBound { entries, skips, merges, .. } = p.z.dez.bound();
        assert_eq!(merges, 999, "the bound must not change which merges run");
        // Each skip was checked against the scan it replaced (the debug
        // assertion in `plan_merge`); most entries must be skips.
        assert!(skips * 10 >= entries * 7, "bound skipped {skips} of {entries} scans — under 70 %");
    }

    /// Fixed-partition DEZ ids come back last-freed first and stay inside
    /// the partition, the slots just above the DAZ directory's: alloc/free
    /// cycles totalling ten times the partition never issue a live id
    /// twice, and a full partition issues none.
    #[test]
    fn fixed_dez_ids_are_recycled_inside_the_partition() {
        let g = CacheGeometry { total_pages: 128, ways: 8, page_size: 4096 };
        let model = Box::new(FixedDeltaModel::new(0.25));
        let raid = RaidModel::paper_default(100_000);
        let mut p =
            KddPolicy::with_variant(KddConfig::new(g), raid, model, KddVariant::FixedDez(0.10));
        let partition = 116u32..128; // 12 reserved slots above 116 DAZ slots
        let mut fx = Effects::default();
        let (mut live, mut issued) = (Vec::new(), 0);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        while issued < 10 * partition.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if live.len() == partition.len() {
                assert_eq!(p.alloc_dez_slot(&mut fx), Ok(None), "the partition is full");
            }
            if live.is_empty() || (live.len() < partition.len() && (x >> 40) % 3 != 0) {
                let id = p.alloc_dez_slot(&mut fx).unwrap().expect("a free id");
                assert!(partition.contains(&id), "id {id} outside the partition");
                assert!(!live.contains(&id), "id {id} issued while live");
                live.push(id);
                issued += 1;
            } else {
                let freed = live.swap_remove((x >> 33) as usize % live.len());
                p.free_dez_slot(freed);
                assert_eq!(p.alloc_dez_slot(&mut fx), Ok(Some(freed)), "last freed, first issued");
                p.free_dez_slot(freed);
            }
        }
    }

    /// The engine's live-byte recount, on the counting copy: seeded random
    /// read/write mixes with Gaussian delta sizes, under the paper's
    /// design, a fixed DEZ partition and reclaim-as-clean. After
    /// every access the index recounts (each DEZ page's live bytes are the
    /// sizes of the deltas located in it, the total their sum) and locates
    /// a delta for exactly the old pages; `flush` empties the index.
    #[test]
    fn dez_live_counters_match_recount_under_random_mixes() {
        let g = CacheGeometry { total_pages: 128, ways: 8, page_size: 4096 };
        let variants = [KddVariant::Paper, KddVariant::FixedDez(0.10), KddVariant::ReclaimAsClean];
        for (variant, seed) in variants.into_iter().zip(1u64..) {
            let model = Box::new(GaussianDeltaModel::new(0.25, seed));
            let raid = RaidModel::paper_default(100_000);
            let mut p = KddPolicy::with_variant(KddConfig::new(g), raid, model, variant);
            let (mut merged, mut pages_peak) = (0, 0);
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for step in 0..6_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = x >> 33;
                let lba = if r % 4 == 0 { (r >> 2) % 1024 } else { (r >> 2) % 96 };
                let op = if r % 5 == 0 { Op::Read } else { Op::Write };
                p.access(op, lba);
                assert!(p.z.dez.recount(), "seed {seed} step {step}");
                assert_eq!(p.z.dez.locs().count() as u64, p.old_pages(), "seed {seed} step {step}");
                pages_peak = pages_peak.max(p.delta_pages());
                merged = p.z.dez.bound().merges;
            }
            assert!(
                pages_peak >= 4 && merged > 0,
                "seed {seed}: {pages_peak} pages, {merged} merges"
            );
            p.flush();
            assert!(p.z.dez.recount());
            assert_eq!((p.delta_pages(), p.z.dez.live_total()), (0, 0), "seed {seed}");
        }
    }

    #[test]
    fn write_hit_skips_parity_and_ssd_data_write() {
        let mut p = kdd(64, 0.25);
        p.access(Op::Write, 5); // miss: conventional
        let w = p.access(Op::Write, 5); // hit: the KDD path
        assert!(w.hit);
        assert_eq!(w.foreground.raid_writes, 1, "data only");
        assert_eq!(w.foreground.raid_reads, 0, "no parity read");
        assert_eq!(w.foreground.ssd_data_writes, 0, "no page program on write hit");
        assert_eq!(w.foreground.compressions, 1);
        assert_eq!(p.old_pages(), 1);
    }

    #[test]
    fn staging_commits_one_dez_page_per_fill() {
        let mut p = kdd(256, 0.25); // 1024-byte deltas, 4 per page
                                    // Warm 8 pages then rewrite them: 8 deltas = 2 DEZ commits.
        for lba in 0..8 {
            p.access(Op::Write, lba);
        }
        let mut delta_writes = 0;
        for lba in 0..8 {
            let w = p.access(Op::Write, lba);
            delta_writes += w.total().ssd_delta_writes;
        }
        // Four 1 KiB deltas fill the 4 KiB staging buffer exactly; the
        // fifth insert forces the one commit, the remaining four stay
        // staged in NVRAM.
        assert_eq!(delta_writes, 1, "one packed DEZ commit");
        assert_eq!(p.delta_pages(), 1);
        assert_eq!(p.staging.len(), 4, "rest still staged");
    }

    #[test]
    fn delta_coalescing_keeps_newest_only() {
        let mut p = kdd(256, 0.12);
        p.access(Op::Write, 7);
        for _ in 0..50 {
            p.access(Op::Write, 7);
        }
        // 12% deltas: 8 fit a page, but coalescing means the staging
        // buffer never fills from one hot page.
        assert_eq!(p.delta_pages(), 0, "coalesced rewrites must not commit");
        assert_eq!(p.old_pages(), 1);
    }

    #[test]
    fn read_hit_on_old_reads_data_plus_delta() {
        let mut p = kdd(256, 0.5); // big deltas: 2 per page
        p.access(Op::Write, 1);
        p.access(Op::Write, 2);
        p.access(Op::Write, 1); // delta staged
        let r = p.access(Op::Read, 1);
        assert!(r.hit);
        assert_eq!(r.foreground.ssd_reads, 1, "delta still in NVRAM");
        assert_eq!(r.foreground.decompressions, 1);
        // Push the delta into DEZ, then read again.
        p.access(Op::Write, 2);
        p.access(Op::Write, 3);
        p.access(Op::Write, 3); // hit → stages; buffer (2×2048) overflows → commit
        let r2 = p.access(Op::Read, 1);
        assert_eq!(r2.foreground.ssd_reads, 2, "data + DEZ delta");
        assert_eq!(r2.foreground.ssd_read_rounds, 1, "fetched in parallel");
    }

    #[test]
    fn cleaning_reclaims_old_and_delta_pages() {
        // One 64-way set so every page is cacheable; explicit threshold
        // of 30% = 19 slots so the hot set crosses it.
        let g = CacheGeometry { total_pages: 64, ways: 64, page_size: 4096 };
        let mut cfg = KddConfig::new(g);
        cfg.clean_threshold = 0.30;
        let mut p = KddPolicy::new(
            cfg,
            RaidModel::paper_default(100_000),
            Box::new(FixedDeltaModel::new(0.25)),
        );
        for lba in 0..32u64 {
            p.access(Op::Write, lba);
        }
        for lba in 0..32u64 {
            p.access(Op::Write, lba); // hits: old pages + deltas accumulate
        }
        assert!(p.stats().cleanings > 0, "threshold cleaning never fired");
        assert!(p.old_pages() + p.delta_pages() <= 20, "cleaner must bound pinned pages");
        assert!(p.stats().parity_updates > 0);
    }

    #[test]
    fn flush_drains_everything() {
        let mut p = kdd(256, 0.25);
        for lba in 0..16 {
            p.access(Op::Write, lba);
            p.access(Op::Write, lba);
        }
        p.flush();
        assert_eq!(p.old_pages(), 0);
        assert_eq!(p.delta_pages(), 0);
        assert!(p.staging.is_empty());
    }

    #[test]
    fn metadata_fraction_is_small() {
        let g = CacheGeometry { total_pages: 4096, ways: 64, page_size: 4096 };
        let mut p = KddPolicy::new(
            KddConfig::new(g),
            RaidModel::paper_default(1_000_000),
            Box::new(GaussianDeltaModel::new(0.25, 1)),
        );
        let mut rng_state = 12345u64;
        for i in 0..60_000u64 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lba = (rng_state >> 33) % 8192;
            let op = if i % 3 == 0 { Op::Read } else { Op::Write };
            p.access(op, lba);
        }
        p.flush();
        let frac = p.stats().metadata_fraction();
        assert!(frac < 0.05, "metadata fraction too high: {frac}");
        assert!(p.stats().ssd_meta_writes > 0);
    }

    #[test]
    fn traffic_scales_with_content_locality() {
        // KDD-12% must write less to the SSD than KDD-50% on the same
        // workload — the Figure 6 ordering.
        let run = |ratio: f64| {
            let mut p = kdd(512, ratio);
            let mut x = 9u64;
            for _ in 0..40_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lba = (x >> 40) % 1024;
                p.access(Op::Write, lba);
            }
            p.flush();
            p.stats().ssd_writes_pages()
        };
        let t12 = run(0.12);
        let t25 = run(0.25);
        let t50 = run(0.50);
        assert!(t12 < t25, "KDD-12 {t12} !< KDD-25 {t25}");
        assert!(t25 < t50, "KDD-25 {t25} !< KDD-50 {t50}");
    }

    #[test]
    fn beats_write_through_on_write_hits() {
        use kdd_cache::policies::WriteThrough;
        let g = CacheGeometry { total_pages: 512, ways: 8, page_size: 4096 };
        let raid = RaidModel::paper_default(100_000);
        let mut kddp =
            KddPolicy::new(KddConfig::new(g), raid, Box::new(FixedDeltaModel::new(0.25)));
        let mut wt = WriteThrough::new(g, raid);
        let mut x = 77u64;
        for _ in 0..30_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lba = (x >> 40) % 600;
            kddp.access(Op::Write, lba);
            wt.access(Op::Write, lba);
        }
        kddp.flush();
        wt.flush();
        let k = kddp.stats().ssd_writes_pages();
        let w = wt.stats().ssd_writes_pages();
        assert!(k < w, "KDD {k} must write less than WT {w}");
        // And hit ratio is close to (slightly below) WT's.
        assert!(kddp.stats().hit_ratio() <= wt.stats().hit_ratio() + 0.02);
        assert!(kddp.stats().hit_ratio() > wt.stats().hit_ratio() - 0.25);
    }

    #[test]
    fn lazy_admission_filters_one_hit_wonders() {
        let g = CacheGeometry { total_pages: 256, ways: 64, page_size: 4096 };
        let raid = RaidModel::paper_default(1_000_000);
        let model = Box::new(FixedDeltaModel::new(0.25));
        let mut lazy =
            KddPolicy::with_variant(KddConfig::new(g), raid, model, KddVariant::LazyAdmission);
        let mut eager = kdd(256, 0.25);
        // A scan of one-hit wonders plus a small hot set accessed twice.
        for i in 0..4000u64 {
            let scan = 1000 + i; // never repeats
            lazy.access(Op::Read, scan);
            eager.access(Op::Read, scan);
            let hot = i % 16;
            lazy.access(Op::Write, hot);
            eager.access(Op::Write, hot);
        }
        lazy.flush();
        eager.flush();
        // The scan never pollutes the lazy cache: far fewer fill writes.
        assert!(
            lazy.stats().ssd_data_writes * 2 < eager.stats().ssd_data_writes,
            "lazy {} vs eager {}",
            lazy.stats().ssd_data_writes,
            eager.stats().ssd_data_writes
        );
        // And the hot set still hits.
        assert!(lazy.stats().write_hits > 3000, "hot set lost: {}", lazy.stats().write_hits);
    }

    #[test]
    fn idle_tick_drains_pending_in_batches() {
        let g = CacheGeometry { total_pages: 256, ways: 64, page_size: 4096 };
        let mut p = KddPolicy::new(
            KddConfig::new(g),
            RaidModel::paper_default(1_000_000),
            Box::new(FixedDeltaModel::new(0.12)),
        );
        // Spread writes over many rows so pending_rows >> one idle batch.
        for i in 0..120u64 {
            let lba = i * 64; // distinct stripes → distinct rows
            p.access(Op::Write, lba);
            p.access(Op::Write, lba);
        }
        let before = p.z.pending.pending_rows();
        assert!(before > 32, "need a backlog, got {before}");
        let fx = p.idle_tick();
        let after = p.z.pending.pending_rows();
        assert_eq!(before - after, 16, "one bounded batch per idle period");
        assert!(fx.raid_writes >= 16, "parity repaired for the batch");
        // Enough idle periods drain everything.
        for _ in 0..20 {
            p.idle_tick();
        }
        assert_eq!(p.z.pending.pending_rows(), 0);
        assert_eq!(p.old_pages(), 0);
    }

    /// A delta's length in a `DeltaRef` is 16-bit, and a delta can be a
    /// whole page long.
    #[test]
    #[should_panic(expected = "16 bits")]
    fn pages_whose_deltas_overflow_a_delta_ref_are_refused() {
        let g = CacheGeometry { total_pages: 64, ways: 8, page_size: 1 << 16 };
        let model = Box::new(FixedDeltaModel::new(0.25));
        KddPolicy::new(KddConfig::new(g), RaidModel::paper_default(100_000), model);
    }

    #[test]
    fn name_reflects_locality_level() {
        assert_eq!(kdd(64, 0.12).name(), "KDD-12%");
        assert_eq!(kdd(64, 0.25).name(), "KDD-25%");
        assert_eq!(kdd(64, 0.5).name(), "KDD-50%");
    }
}
