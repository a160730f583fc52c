//! §III-C's commit and §III-D's background work, written once for both
//! copies: the commit of the staged deltas, the cleaning governor, row
//! cleaning (parity repair, then reclaim), the NoRoom reclaim around a
//! clean fill, DEZ compaction and delta invalidation. Each copy
//! implements [`CleanerIo`] with its own I/O — counted [`Effects`] in
//! `KddPolicy`, device calls and simulated time in `KddEngine` — and keeps
//! its own order of device operations, costs and log entries inside each
//! call.
//!
//! [`Effects`]: kdd_cache::effects::Effects

// Bounds-audited: a DEZ page's offsets and lengths fit its 16-bit size.
#![allow(clippy::cast_possible_truncation)]

use crate::config::KddConfig;
use crate::dez::{DeltaRef, DezIndex};
use kdd_cache::policies::{set_of_row, PendingRows};
use kdd_cache::setassoc::{InsertOutcome, PageState, SetAssocCache};
use kdd_cache::stats::CacheStats;
use kdd_raid::layout::Layout;

/// The state both copies keep alike.
pub(crate) struct Zones {
    pub(crate) config: KddConfig,
    pub(crate) layout: Layout,
    /// The DAZ/DEZ slot directory.
    pub(crate) cache: SetAssocCache,
    /// Each old page's delta location, and the DEZ pages holding them.
    pub(crate) dez: DezIndex,
    pub(crate) pending: PendingRows,
    pub(crate) stats: CacheStats,
    /// Reused: a cleaned row's pages, and the deltas a commit or a merge
    /// places.
    pub(crate) lbas: Vec<u64>,
    pub(crate) refs: Refs,
}

/// Deltas and where they lie.
pub(crate) type Refs = Vec<(u64, DeltaRef)>;

impl Zones {
    pub(crate) fn new(config: KddConfig, layout: Layout, cache: SetAssocCache) -> Self {
        let dez = DezIndex::new(config.geometry.total_pages);
        let (pending, stats) = (PendingRows::default(), CacheStats::default());
        Zones { config, layout, cache, dez, pending, stats, lbas: Vec::new(), refs: Vec::new() }
    }

    /// Slots only the cleaner can release: the old pages and the DEZ pages.
    /// The governor reads this count.
    pub(crate) fn pinned(&self) -> u64 {
        self.cache.count_state(PageState::Old) as u64 + self.dez.len()
    }
}

/// What a step of the background work returns.
pub(crate) type Done<B> = Result<(), <B as CleanerIo>::Error>;

/// One copy's I/O under the shared background work.
pub(crate) trait CleanerIo: Sized {
    /// What the work costs: counted effects, or simulated time.
    type Cost;
    type Error;
    /// A DEZ page's directory bytes: per page, per delta.
    const DEZ_PAGE_OVERHEAD: (u32, u32);

    fn zones(&mut self) -> &mut Zones;
    /// Whether `row`'s parity lags its data. The counting model keeps no
    /// parity, so there a pending row always does.
    fn is_stale(&self, _row: u64) -> bool {
        true
    }
    /// Bring `row`'s parity up to date: from every page of the row, all
    /// cached (`reconstruct`), or by folding the deltas of `lbas`.
    fn repair(
        &mut self,
        row: u64,
        lbas: &[u64],
        reconstruct: bool,
        c: &mut Self::Cost,
    ) -> Done<Self>;
    /// Drop the old page `lba` at `slot` and its delta; a failure before
    /// the delta is released changes nothing.
    fn reclaim(&mut self, lba: u64, slot: u32, c: &mut Self::Cost) -> Done<Self>;
    /// The staged deltas' lbas and lengths, oldest first.
    fn staged(&self) -> impl Iterator<Item = (u64, u32)> + '_;
    /// Drop the staged copy of an invalidated delta.
    fn unstage(&mut self, lba: u64);
    /// Drop the staged copies of the deltas a page committed, the oldest.
    fn unstage_committed(&mut self, refs: &Refs) {
        refs.iter().for_each(|&(lba, _)| self.unstage(lba));
    }
    /// A staged delta fits no DEZ page beside the directory: none commits.
    fn oversized_delta(&self) -> Done<Self> {
        Ok(())
    }
    /// A slot for a new DEZ page, or `None` when the cache is pinned full.
    fn alloc_dez_slot(&mut self, c: &mut Self::Cost) -> Result<Option<u32>, Self::Error>;
    /// Free the slot of a DEZ page that left the index.
    fn free_dez_slot(&mut self, slot: u32) -> Done<Self>;
    /// Write DEZ page `slot`: each ref's delta, read from where it lies now.
    fn write_dez_page(&mut self, slot: u32, refs: &Refs, c: &mut Self::Cost) -> Done<Self>;
    /// Log where a committed page's deltas lie, as one group.
    fn log_commit(&mut self, refs: &Refs, c: &mut Self::Cost) -> Done<Self>;
    /// Log that `lba`'s delta now lies at `r`.
    fn log_delta(&mut self, lba: u64, r: DeltaRef, c: &mut Self::Cost) -> Done<Self>;
    /// Log that the clean page `lba` was evicted from `slot`.
    fn log_evicted(&mut self, lba: u64, slot: u32, c: &mut Self::Cost) -> Done<Self>;
}

/// §III-C's commit: pack the staged deltas, oldest first, into as many DEZ
/// pages as their directories need. A page is indexed with no live bytes,
/// written, and its mappings logged — only now is each `(lba_dez, off,
/// len)` known — before any staged copy is dropped, so a crash mid-commit
/// loses no delta; a failed write or log leaves the staged copies current.
/// A cache pinned full keeps the rest staged.
pub(crate) fn commit_staging<B: CleanerIo>(b: &mut B, c: &mut B::Cost) -> Done<B> {
    let page_size = b.zones().config.geometry.page_size;
    let (per_page, per_delta) = B::DEZ_PAGE_OVERHEAD;
    while b.staged().next().is_some() {
        let mut used = per_page;
        let count = b
            .staged()
            .take_while(|&(_, len)| {
                used += per_delta + len;
                used <= page_size
            })
            .count();
        if count == 0 {
            return b.oversized_delta();
        }
        let Some(slot) = b.alloc_dez_slot(c)? else { return Ok(()) };
        // Taken only now: the allocation may compact, which borrows it too.
        let mut refs = std::mem::take(&mut b.zones().refs);
        refs.clear();
        let sized = |(lba, len)| (lba, DeltaRef { slot, off: 0, len: len as u16 });
        refs.extend(b.staged().take(count).map(sized));
        lay_out::<B>(slot, &mut refs);
        let listed = b.zones().dez.list(slot, refs.iter().map(|&(lba, _)| lba));
        if let Err(e) = b.write_dez_page(slot, &refs, c).and_then(|()| b.log_commit(&refs, c)) {
            let z = b.zones();
            z.dez.unlist(listed);
            z.cache.free_slot(slot);
            return Err(e);
        }
        b.unstage_committed(&refs);
        let z = b.zones();
        z.dez.go_live(listed, &refs);
        z.refs = refs;
    }
    Ok(())
}

/// Point each of `refs` into page `slot`, packed in order after the page
/// directory, each keeping its length.
fn lay_out<B: CleanerIo>(slot: u32, refs: &mut Refs) {
    let (per_page, per_delta) = B::DEZ_PAGE_OVERHEAD;
    let mut off = per_page + per_delta * refs.len() as u32;
    for (_, r) in refs.iter_mut() {
        *r = DeltaRef { slot, off: off as u16, len: r.len };
        off += u32::from(r.len);
    }
}

/// The governor, after every write hit: as pinned slots pass the pressure
/// mark squeeze the DEZ, then past the trigger clean down to low water.
pub(crate) fn maybe_clean<B: CleanerIo>(b: &mut B, c: &mut B::Cost) -> Done<B> {
    let p = b.zones();
    if p.pinned() >= p.config.compact_pressure_slots() {
        compact(b, c)?;
    }
    let p = b.zones();
    if p.pinned() >= p.config.clean_trigger_slots() {
        let low = p.config.clean_low_water_slots();
        clean_oldest(b, Some(low), c)?;
    }
    Ok(())
}

/// Clean the least recently written rows first — §III-D's cold victims,
/// so hot pages keep their delta path — until pinned slots are down to
/// `low`, or every row (`None`). A failed row is pending again, now as the
/// youngest.
pub(crate) fn clean_oldest<B: CleanerIo>(b: &mut B, low: Option<u64>, c: &mut B::Cost) -> Done<B> {
    while low.is_none_or(|low| b.zones().pinned() > low) {
        let Some(row) = b.zones().pending.oldest_row() else { break };
        clean_row(b, row, c)?;
    }
    b.zones().stats.cleanings += 1;
    Ok(())
}

/// Repair `row`'s parity while it is stale — reconstruct-write when every
/// page of the row is cached, else read-modify-write — then reclaim its
/// old pages (§III-D's second scheme). A row pending with current parity
/// is reclaim-only. When a step fails, the pages whose delta is still
/// indexed stay pending.
pub(crate) fn clean_row<B: CleanerIo>(b: &mut B, row: u64, c: &mut B::Cost) -> Done<B> {
    let p = b.zones();
    let mut lbas = std::mem::take(&mut p.lbas);
    p.pending.take_row_into(row, &mut lbas);
    let done = repair_and_reclaim(b, row, &lbas, c);
    let p = b.zones();
    if done.is_err() {
        for &lba in lbas.iter().filter(|&&lba| p.dez.loc(lba).is_some()) {
            p.pending.add(row, lba, || set_of_row(&p.cache, &p.layout, row));
        }
    }
    p.lbas = lbas;
    done
}

fn repair_and_reclaim<B: CleanerIo>(b: &mut B, row: u64, lbas: &[u64], c: &mut B::Cost) -> Done<B> {
    if !lbas.is_empty() && b.is_stale(row) {
        let p = b.zones();
        let reconstruct = p.layout.row_lpns(row).all(|l| p.cache.lookup(l).is_some());
        b.repair(row, lbas, reconstruct, c)?;
        b.zones().stats.parity_updates += 1;
    }
    for &lba in lbas {
        let cache = &b.zones().cache;
        match cache.lookup(lba).filter(|&slot| cache.state(slot) == PageState::Old) {
            Some(slot) => b.reclaim(lba, slot, c)?,
            None => invalidate_delta(b, lba)?,
        }
    }
    Ok(())
}

/// Insert `lba` as a clean page, evicting only clean pages (the victim's
/// log entry costs `fg`). A set pinned full is unpinned one pending row at
/// a time (the cleaning costs `bg`, and counts no cleaning pass) until the
/// insert fits. The slot, or `None` when the set holds no pending row: the
/// fill is bypassed.
pub(crate) fn insert_clean_or_bypass<B: CleanerIo>(
    b: &mut B,
    lba: u64,
    fg: &mut B::Cost,
    bg: &mut B::Cost,
) -> Result<Option<u32>, B::Error> {
    loop {
        let p = b.zones();
        match p.cache.insert(lba, PageState::Clean, |s| s == PageState::Clean) {
            InsertOutcome::Inserted { slot } => return Ok(Some(slot)),
            InsertOutcome::Evicted { slot, victim_lba, .. } => {
                p.stats.evictions += 1;
                // A failed fill leaves the slot free, not mapping `lba` to
                // the victim's bytes.
                b.log_evicted(victim_lba, slot, fg)
                    .inspect_err(|_| b.zones().cache.free_slot(slot))?;
                return Ok(Some(slot));
            }
            InsertOutcome::NoRoom => {
                let set = p.cache.set_of_lba(lba);
                let row = p.pending.first_row_in_set(set, |r| set_of_row(&p.cache, &p.layout, r));
                let Some(row) = row else { return Ok(None) };
                clean_row(b, row, bg)?;
            }
        }
    }
}

/// Log-structured DEZ compaction, pressure driven: while the index plans a
/// merge, repack the destination's then the source's live deltas into the
/// destination, free the source and re-log the moved deltas by lba.
pub(crate) fn compact<B: CleanerIo>(b: &mut B, c: &mut B::Cost) -> Done<B> {
    loop {
        let p = b.zones();
        let Some(merge) = p.dez.next_merge(p.config.geometry.page_size, B::DEZ_PAGE_OVERHEAD)
        else {
            return Ok(());
        };
        debug_assert!(p.dez.recount(), "DEZ live-byte counters drifted");
        let mut moved = std::mem::take(&mut p.refs);
        moved.clear();
        moved.extend(p.dez.deltas(merge.dst).chain(p.dez.deltas(merge.src)));
        lay_out::<B>(merge.dst, &mut moved);
        // Nothing volatile moves until the merged page is written, so a
        // failed write leaves the index pointing at the two intact pages.
        b.write_dez_page(merge.dst, &moved, c)?;
        moved.sort_unstable_by_key(|&(lba, _)| lba);
        b.zones().dez.replace_merged(&merge, &moved);
        b.free_dez_slot(merge.src)?;
        for &(lba, r) in &moved {
            b.log_delta(lba, r, c)?;
        }
        b.zones().refs = moved;
    }
}

/// Invalidate `lba`'s delta: drop a staged copy, free a DEZ page it empties.
pub(crate) fn invalidate_delta<B: CleanerIo>(b: &mut B, lba: u64) -> Done<B> {
    let released = b.zones().dez.restage(lba, false);
    if released.staged {
        b.unstage(lba);
    }
    released.emptied.map_or(Ok(()), |slot| b.free_dez_slot(slot))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::indexing_slicing)]
    use super::*;
    use crate::dez::DeltaLoc;
    use kdd_cache::setassoc::{CacheGeometry, SetGrouping};
    use kdd_raid::layout::RaidLevel;
    use std::collections::BTreeSet;

    /// A hook the fake was called through, in call order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        Repair(u64, bool),
        Reclaim(u64),
        Unstage(u64),
        FreeDez(u32),
        Wrote(u32, Vec<u64>),
        Committed(Vec<u64>),
        Logged(u64),
        Evicted(u64),
    }

    /// A backend without devices: each hook records itself and touches
    /// only the shared state. Parity is stale except on `current` rows;
    /// reclaiming `fails`, or writing its delta, fails before anything
    /// moves. `staged` is the staging buffer: lbas and lengths, oldest
    /// first.
    struct Fake {
        z: Zones,
        current: BTreeSet<u64>,
        fails: Option<u64>,
        staged: Vec<(u64, u32)>,
        calls: Vec<Call>,
    }

    impl CleanerIo for Fake {
        type Cost = u32;
        type Error = u64;
        const DEZ_PAGE_OVERHEAD: (u32, u32) = (0, 0);

        fn zones(&mut self) -> &mut Zones {
            &mut self.z
        }

        fn is_stale(&self, row: u64) -> bool {
            !self.current.contains(&row)
        }

        fn repair(&mut self, row: u64, _: &[u64], reconstruct: bool, c: &mut u32) -> Done<Self> {
            *c += 1;
            self.calls.push(Call::Repair(row, reconstruct));
            Ok(())
        }

        fn reclaim(&mut self, lba: u64, slot: u32, c: &mut u32) -> Done<Self> {
            if self.fails == Some(lba) {
                return Err(lba);
            }
            *c += 1;
            self.calls.push(Call::Reclaim(lba));
            self.z.cache.free_slot(slot);
            invalidate_delta(self, lba)
        }

        fn staged(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
            self.staged.iter().copied()
        }

        fn unstage(&mut self, lba: u64) {
            self.staged.retain(|&(l, _)| l != lba);
            self.calls.push(Call::Unstage(lba));
        }

        fn alloc_dez_slot(&mut self, _: &mut u32) -> Result<Option<u32>, u64> {
            Ok(self.z.cache.alloc_delta_slot())
        }

        fn free_dez_slot(&mut self, slot: u32) -> Done<Self> {
            self.calls.push(Call::FreeDez(slot));
            self.z.cache.free_slot(slot);
            Ok(())
        }

        fn write_dez_page(&mut self, slot: u32, refs: &Refs, c: &mut u32) -> Done<Self> {
            let lbas: Vec<u64> = refs.iter().map(|&(lba, _)| lba).collect();
            if let Some(lba) = self.fails.filter(|lba| lbas.contains(lba)) {
                return Err(lba);
            }
            *c += 1;
            self.calls.push(Call::Wrote(slot, lbas));
            Ok(())
        }

        fn log_commit(&mut self, refs: &Refs, c: &mut u32) -> Done<Self> {
            *c += 1;
            self.calls.push(Call::Committed(refs.iter().map(|&(lba, _)| lba).collect()));
            Ok(())
        }

        fn log_delta(&mut self, lba: u64, _: DeltaRef, c: &mut u32) -> Done<Self> {
            *c += 1;
            self.calls.push(Call::Logged(lba));
            Ok(())
        }

        fn log_evicted(&mut self, lba: u64, _: u32, c: &mut u32) -> Done<Self> {
            *c += 1;
            self.calls.push(Call::Evicted(lba));
            Ok(())
        }
    }

    /// 64 slots in 8 ways over RAID-5 × 5 with 4-page chunks: row `r` of
    /// stripe `s` holds lbas `16 s + r % 4 + {0, 4, 8, 12}`. The cleaning
    /// trigger is 16 slots, compaction pressure 12, low water 14.
    fn fake() -> Fake {
        let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 32);
        let geometry = CacheGeometry { total_pages: 64, ways: 8, page_size: 4096 };
        let config = KddConfig { clean_threshold: 0.25, ..KddConfig::new(geometry) };
        let cache = SetAssocCache::new_grouped(geometry, SetGrouping::parity_rows(&layout));
        let z = Zones::new(config, layout, cache);
        Fake { z, current: BTreeSet::new(), fails: None, staged: Vec::new(), calls: Vec::new() }
    }

    impl Fake {
        /// A write hit: `lba` cached old with a staged delta, its row
        /// pending.
        fn write_hit(&mut self, lba: u64) {
            let z = &mut self.z;
            assert!(matches!(
                z.cache.insert(lba, PageState::Old, |_| false),
                InsertOutcome::Inserted { .. }
            ));
            z.dez.restage(lba, true);
            let row = z.layout.row_of(lba);
            z.pending.add(row, lba, || set_of_row(&z.cache, &z.layout, row));
        }

        /// A committed DEZ page holding a `len`-byte delta of each of
        /// `lbas`; its slot.
        fn dez_page(&mut self, lbas: &[u64], len: u16) -> u32 {
            let z = &mut self.z;
            let slot = z.cache.alloc_delta_slot().expect("a free slot");
            let refs: Refs = (0u16..)
                .zip(lbas)
                .map(|(i, &lba)| (lba, DeltaRef { slot, off: i * len, len }))
                .collect();
            for &lba in lbas {
                z.dez.restage(lba, true);
            }
            let listed = z.dez.list(slot, lbas.iter().copied());
            z.dez.go_live(listed, &refs);
            slot
        }
    }

    #[test]
    fn governor_cleans_oldest_rows_first_and_stops_at_low_water() {
        let mut f = fake();
        // 16 old pages, each alone in its row, written in this order.
        let lbas: Vec<u64> = (0..4).flat_map(|s| (0..4).map(move |r| 16 * s + r)).collect();
        for &lba in &lbas {
            f.write_hit(lba);
        }
        assert_eq!(f.z.pinned(), 16);
        let mut cost = 0;
        maybe_clean(&mut f, &mut cost).unwrap();
        // Just the two oldest rows, down to low water; no DEZ page to merge.
        let want = lbas[..2].iter().flat_map(|&lba| {
            [Call::Repair(f.z.layout.row_of(lba), false), Call::Reclaim(lba), Call::Unstage(lba)]
        });
        assert_eq!(f.calls, want.collect::<Vec<_>>());
        assert_eq!((f.z.pinned(), f.z.config.clean_low_water_slots()), (14, 14));
        assert_eq!((f.z.stats.cleanings, f.z.stats.parity_updates, cost), (1, 2, 4));
        // Under the trigger the governor does nothing.
        f.calls.clear();
        maybe_clean(&mut f, &mut cost).unwrap();
        assert!(f.calls.is_empty());
        // Cleaning every row takes the rest, oldest first.
        clean_oldest(&mut f, None, &mut cost).unwrap();
        let cleaned: Vec<u64> = f
            .calls
            .iter()
            .filter_map(|c| if let Call::Reclaim(l) = c { Some(*l) } else { None })
            .collect();
        assert_eq!(cleaned, lbas[2..]);
        assert_eq!((f.z.pinned(), f.z.pending.pending_rows(), f.z.stats.cleanings), (0, 0, 2));
    }

    #[test]
    fn row_plan_repairs_only_stale_rows_and_reconstructs_only_whole_ones() {
        let mut f = fake();
        let row: Vec<u64> = f.z.layout.row_lpns(0).collect();
        // A whole row cached: reconstruct-write.
        for &lba in &row[1..] {
            f.z.cache.insert(lba, PageState::Clean, |_| false);
        }
        f.write_hit(row[0]);
        clean_row(&mut f, 0, &mut 0).unwrap();
        let reclaim = |lba| [Call::Reclaim(lba), Call::Unstage(lba)];
        let mut want = vec![Call::Repair(0, true)];
        want.extend(reclaim(row[0]));
        assert_eq!(f.calls, want);
        // Part of it: read-modify-write.
        f.calls.clear();
        f.write_hit(row[0]);
        f.z.cache.free_slot(f.z.cache.lookup(row[1]).unwrap());
        clean_row(&mut f, 0, &mut 0).unwrap();
        assert_eq!(f.calls[0], Call::Repair(0, false));
        // Pending with current parity: reclaim-only.
        f.calls.clear();
        f.write_hit(row[0]);
        f.current.insert(0);
        clean_row(&mut f, 0, &mut 0).unwrap();
        assert_eq!(f.calls, reclaim(row[0]));
        assert_eq!(f.z.stats.parity_updates, 2);
        // A row that is not pending costs nothing.
        f.calls.clear();
        clean_row(&mut f, 0, &mut 0).unwrap();
        assert!(f.calls.is_empty());
    }

    #[test]
    fn failed_reclaim_leaves_the_unreclaimed_pages_pending() {
        let mut f = fake();
        let row: Vec<u64> = f.z.layout.row_lpns(5).collect();
        for &lba in &row[..3] {
            f.write_hit(lba);
        }
        f.fails = Some(row[1]);
        assert_eq!(clean_row(&mut f, 5, &mut 0), Err(row[1]));
        assert_eq!(f.z.stats.parity_updates, 1, "the repair went through");
        assert!(!f.z.pending.contains(5, row[0]), "reclaimed");
        assert!(f.z.pending.contains(5, row[1]) && f.z.pending.contains(5, row[2]));
        // Now reclaim-only: the retry repairs nothing.
        f.fails = None;
        f.current.insert(5);
        f.calls.clear();
        clean_row(&mut f, 5, &mut 0).unwrap();
        let want = [row[1], row[2]].map(|l| [Call::Reclaim(l), Call::Unstage(l)]).concat();
        assert_eq!(f.calls, want);
        assert_eq!(f.z.pending.pending_rows(), 0);
    }

    #[test]
    fn noroom_reclaim_bypasses_a_set_without_pending_rows() {
        let mut f = fake();
        let set = f.z.cache.set_of_lba(0);
        let in_set: Vec<u64> = (0..).filter(|&l| f.z.cache.set_of_lba(l) == set).take(9).collect();
        // The set full of old pages no row claims: nothing to clean.
        for &lba in &in_set[..8] {
            f.z.cache.insert(lba, PageState::Old, |_| false);
        }
        let (mut fg, mut bg) = (0, 0);
        assert_eq!(insert_clean_or_bypass(&mut f, in_set[8], &mut fg, &mut bg), Ok(None));
        assert!(f.calls.is_empty() && f.z.cache.lookup(in_set[8]).is_none());
        // One of them pending: its row is cleaned, then the page fits.
        let pending = in_set[3];
        f.z.dez.restage(pending, true);
        let row = f.z.layout.row_of(pending);
        f.z.pending.add(row, pending, || set);
        let slot = insert_clean_or_bypass(&mut f, in_set[8], &mut fg, &mut bg).unwrap();
        assert_eq!(f.z.cache.lookup(in_set[8]), slot);
        // (The set holds the whole row: reconstruct-write.)
        assert_eq!(
            f.calls,
            [Call::Repair(row, true), Call::Reclaim(pending), Call::Unstage(pending)]
        );
        assert_eq!((fg, bg, f.z.stats.cleanings), (0, 2, 0));
        // A set with a clean page evicts it instead, logged in the foreground.
        f.calls.clear();
        f.z.cache.free_slot(f.z.cache.lookup(in_set[8]).unwrap());
        f.z.cache.insert(in_set[8], PageState::Clean, |_| false);
        let next = (in_set[8] + 1..).find(|&l| f.z.cache.set_of_lba(l) == set).unwrap();
        assert!(insert_clean_or_bypass(&mut f, next, &mut fg, &mut bg).unwrap().is_some());
        assert_eq!(f.calls, [Call::Evicted(in_set[8])]);
        assert_eq!((fg, f.z.stats.evictions), (1, 1));
    }

    #[test]
    fn commit_packs_oldest_first_and_keeps_staged_what_it_cannot_write() {
        let mut f = fake();
        for lba in 0..5 {
            f.write_hit(lba);
        }
        // 4 096-byte pages: the oldest delta alone, then the next two.
        f.staged = vec![(0, 3000), (1, 2000), (2, 1000)];
        let mut cost = 0;
        commit_staging(&mut f, &mut cost).unwrap();
        let [first, second] = [0, 1].map(|lba| match f.z.dez.loc(lba) {
            Some(DeltaLoc::Dez(r)) => r.slot,
            loc => panic!("lba {lba} at {loc:?}"),
        });
        let want = [
            Call::Wrote(first, vec![0]),
            Call::Committed(vec![0]),
            Call::Unstage(0),
            Call::Wrote(second, vec![1, 2]),
            Call::Committed(vec![1, 2]),
            Call::Unstage(1),
            Call::Unstage(2),
        ];
        assert_eq!(f.calls, want);
        let dez = |off, len| Some(DeltaLoc::Dez(DeltaRef { slot: second, off, len }));
        assert_eq!((f.z.dez.loc(1), f.z.dez.loc(2)), (dez(0, 2000), dez(2000, 1000)));
        assert!(f.staged.is_empty() && f.z.dez.recount());
        assert_eq!((f.z.dez.len(), cost), (2, 4));
        // A failed write frees its slot and leaves the delta staged.
        f.calls.clear();
        f.staged = vec![(3, 500)];
        f.fails = Some(3);
        let free = f.z.cache.free_slots();
        assert_eq!(commit_staging(&mut f, &mut cost), Err(3));
        assert_eq!((f.z.cache.free_slots(), f.z.dez.len()), (free, 2));
        assert_eq!((f.z.dez.loc(3), f.staged.len()), (Some(DeltaLoc::Staged), 1));
        f.fails = None;
        commit_staging(&mut f, &mut cost).unwrap();
        assert_eq!((f.z.dez.len(), f.calls.len()), (3, 3));
        // A delta no page holds stays staged.
        f.calls.clear();
        f.staged = vec![(4, 5000)];
        commit_staging(&mut f, &mut cost).unwrap();
        assert!(f.calls.is_empty() && f.staged.len() == 1);
    }

    #[test]
    fn compaction_relogs_by_lba_and_stops_when_nothing_merges() {
        let mut f = fake();
        // Five nearly empty pages: the two emptiest merge (ties to the
        // lower slot), then the merged page with the next emptiest, and
        // three pages are too few.
        let pages =
            [(vec![9, 3], 100), (vec![7], 60), (vec![5, 1], 300), (vec![2], 60), (vec![8], 90)];
        let slots: Vec<u32> = pages.iter().map(|(lbas, len)| f.dez_page(lbas, *len)).collect();
        let mut cost = 0;
        compact(&mut f, &mut cost).unwrap();
        let want = [
            Call::Wrote(slots[1], vec![7, 2]),
            Call::FreeDez(slots[3]),
            Call::Logged(2),
            Call::Logged(7),
            Call::Wrote(slots[4], vec![8, 2, 7]),
            Call::FreeDez(slots[1]),
            Call::Logged(2),
            Call::Logged(7),
            Call::Logged(8),
        ];
        assert_eq!(f.calls, want);
        assert_eq!((f.z.dez.len(), cost), (3, 7));
        assert_eq!(f.z.dez.next_merge(4096, Fake::DEZ_PAGE_OVERHEAD), None);
        assert!(f.z.dez.recount());
        let at = |lba| f.z.dez.loc(lba);
        let dez = |off| Some(DeltaLoc::Dez(DeltaRef { slot: slots[4], off, len: 60 }));
        assert_eq!((at(2), at(7)), (dez(90), dez(150)), "packed destination first");
    }
}
