//! The cache-policy trait and its baseline implementations.
//!
//! Each policy is an accounting machine over the shared
//! [`SetAssocCache`] directory: it tracks
//! exactly which pages are cached in which state, and reports the device
//! operations each request implies. The RAID side is costed through
//! [`RaidModel`], which knows the array geometry (so a "small write" costs
//! 2 reads + 2 writes on RAID-5, 3 + 3 on RAID-6).

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

mod leavo;
mod nossd;
mod wa;
mod wt;

pub use leavo::LeavO;
pub use nossd::Nossd;
pub use wa::WriteAround;
pub use wt::WriteThrough;

use crate::effects::{AccessOutcome, Effects};
use crate::setassoc::{SetAssocCache, SetGrouping};
use crate::stats::CacheStats;
use kdd_raid::layout::{Layout, RaidLevel};
use kdd_trace::record::{Op, Trace};
use kdd_util::hash::FastMap;
use kdd_util::sorted::{SortedSet, SpareVecs};
use std::collections::hash_map::Entry;

/// A caching policy in front of parity RAID.
pub trait CachePolicy {
    /// Policy name as it appears in the figures (e.g. "WT", "KDD-25%").
    fn name(&self) -> String;

    /// Process one page-granular request.
    fn access(&mut self, op: Op, lba: u64) -> AccessOutcome;

    /// Cumulative statistics.
    fn stats(&self) -> &CacheStats;

    /// Flush buffered state (metadata buffers, pending parity updates) —
    /// end of run or an explicit idle period. Returns the work performed.
    fn flush(&mut self) -> Effects;

    /// The system has been idle for a while: §III-D wakes the cleaning
    /// thread on idleness as well as on thresholds. Policies with delayed
    /// parity do a bounded batch of repairs; others no-op. Returns the
    /// background work performed.
    fn idle_tick(&mut self) -> Effects {
        Effects::default()
    }

    /// Drive a whole trace through the policy (requests expanded to
    /// page granularity), flushing at the end.
    fn run_trace(&mut self, trace: &Trace) {
        for r in &trace.records {
            for lba in r.pages() {
                self.access(r.op, lba);
            }
        }
        self.flush();
    }
}

/// RAID-side cost model shared by the policies.
#[derive(Debug, Clone, Copy)]
pub struct RaidModel {
    /// Array geometry.
    pub layout: Layout,
}

impl RaidModel {
    /// A 5-disk RAID-5 with 64 KiB chunks over 4 KiB pages — the paper's
    /// prototype configuration (§IV-B1) — sized to cover `data_pages`.
    pub fn paper_default(data_pages: u64) -> Self {
        let chunk_pages = 16; // 64 KiB / 4 KiB
        let data_disks = 4u64;
        let disk_pages = (data_pages.div_ceil(data_disks).div_ceil(chunk_pages) + 1) * chunk_pages;
        RaidModel { layout: Layout::new(RaidLevel::Raid5, 5, chunk_pages, disk_pages) }
    }

    /// Parity units per stripe (1 for RAID-5, 2 for RAID-6).
    pub fn parity_count(&self) -> u32 {
        self.layout.level.parity_count() as u32
    }

    /// Effects of reading one page from the array.
    pub fn read_effects(&self) -> Effects {
        Effects { raid_reads: 1, raid_rounds: 1, ..Default::default() }
    }

    /// Effects of a conventional small write (data + full parity update),
    /// choosing read-modify-write or reconstruct-write by read count, as
    /// the array itself does.
    pub fn small_write_effects(&self) -> Effects {
        let pc = self.parity_count();
        let rmw_reads = 1 + pc; // old data + old parity unit(s)
        let recon_reads = self.layout.data_disks() as u32 - 1;
        let reads = rmw_reads.min(recon_reads);
        Effects {
            raid_reads: reads,
            raid_writes: 1 + pc,
            raid_rounds: 2, // read round then write round
            ..Default::default()
        }
    }

    /// Effects of `write_no_parity_update`: one member write.
    pub fn data_write_effects(&self) -> Effects {
        Effects { raid_writes: 1, raid_rounds: 1, ..Default::default() }
    }

    /// Effects of repairing one stale row: reconstruct-write (all data in
    /// cache → just write parity) or read-modify-write (read stale parity,
    /// fold deltas, write).
    pub fn parity_update_effects(&self, reconstruct: bool) -> Effects {
        let pc = self.parity_count();
        if reconstruct {
            Effects { raid_writes: pc, raid_rounds: 1, ..Default::default() }
        } else {
            Effects { raid_reads: pc, raid_writes: pc, raid_rounds: 2, ..Default::default() }
        }
    }

    /// Parity row of a page.
    pub fn row_of(&self, lba: u64) -> u64 {
        self.layout.row_of(lba % self.layout.capacity_pages())
    }

    /// The cache-set grouping §III-B prescribes: co-locate the pages the
    /// cleaner reclaims together (one parity row per group).
    pub fn set_grouping(&self) -> SetGrouping {
        SetGrouping::parity_rows(&self.layout)
    }

    /// The logical pages a row protects.
    pub fn row_lpns(&self, row: u64) -> impl ExactSizeIterator<Item = u64> {
        self.layout.row_lpns(row)
    }
}

/// The cache set KDD records a pending row under: the set of the row's
/// first page. With [`SetGrouping::ParityRow`] that is every member's
/// set; under the set-mapping ablations it stays the one set whose
/// NoRoom reclaims this row.
pub fn set_of_row(cache: &SetAssocCache, layout: &Layout, row: u64) -> usize {
    cache.set_of_lba(layout.row_first_lpn(row))
}

/// Tracks which rows have pending (delayed) parity and which pages of
/// each row are involved — shared by LeavO and KDD. Rows are kept in
/// least-recently-*written* order so the cleaner works coldest-first
/// (§III-D's premise that "the victim pages are commonly cold"): every
/// write to a row refreshes its position.
#[derive(Debug, Clone, Default)]
pub struct PendingRows {
    rows: FastMap<u64, PendingRow>,
    /// Pending rows per cache set (indexed by set, grown on demand), so a
    /// full set that pins no row is answered without a scan.
    rows_in_set: Vec<u32>,
    /// Queue of (row, generation); entries whose generation is not the
    /// row's current one (superseded, or the row is gone) are skipped
    /// lazily by `oldest_row` and swept by `add` once they outnumber the
    /// pending rows, so the queue's length tracks the rows pending, not
    /// the writes served.
    order: std::collections::VecDeque<(u64, u64)>,
    gen: u64,
    pages: u64,
    /// Emptied page sets of dropped rows, which every row's set grows into.
    spare: SpareVecs,
}

/// One pending row: its pending pages in ascending lba order, the cache
/// set a full-set reclaim finds it under (fixed when the row is created)
/// and the generation of its latest write (generations are never reused,
/// so a row dropped and re-added cannot revive an old `order` entry).
#[derive(Debug, Clone)]
struct PendingRow {
    set: usize,
    gen: u64,
    lbas: SortedSet,
}

/// Superseded `order` entries tolerated on top of one per pending row
/// before `add` sweeps them.
const ORDER_SLACK: usize = 64;

impl PendingRows {
    /// Record that `lba` (in `row`) has a pending parity update; refreshes
    /// the row's recency either way. `set_of_row` names the cache set
    /// [`first_row_in_set`](Self::first_row_in_set) will find the row
    /// under; it is called only when the row is not pending yet.
    pub fn add(&mut self, row: u64, lba: u64, set_of_row: impl FnOnce() -> usize) {
        let entry = match self.rows.entry(row) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let set = set_of_row();
                if set >= self.rows_in_set.len() {
                    self.rows_in_set.resize(set + 1, 0);
                }
                if let Some(n) = self.rows_in_set.get_mut(set) {
                    *n += 1;
                }
                v.insert(PendingRow { set, gen: 0, lbas: SortedSet::default() })
            }
        };
        if entry.lbas.insert(&mut self.spare, lba) {
            self.pages += 1;
        }
        self.gen += 1;
        entry.gen = self.gen;
        if self.order.len() > 2 * self.rows.len() + ORDER_SLACK {
            // Generations only grow, so an entry that is superseded now
            // stays superseded: sweeping it never changes what
            // `oldest_row` returns. At most one entry per row survives, so
            // the sweep runs once per `rows.len() + ORDER_SLACK` adds.
            let rows = &self.rows;
            self.order.retain(|&(row, gen)| rows.get(&row).is_some_and(|r| r.gen == gen));
        }
        self.order.push_back((row, self.gen));
    }

    /// The least-recently-written pending row, if any.
    pub fn oldest_row(&mut self) -> Option<u64> {
        while let Some(&(row, gen)) = self.order.front() {
            if self.rows.get(&row).is_some_and(|r| r.gen == gen) {
                return Some(row);
            }
            self.order.pop_front(); // superseded or already taken
        }
        None
    }

    /// Whether any page of `row` is pending.
    pub fn contains_row(&self, row: u64) -> bool {
        self.rows.contains_key(&row)
    }

    /// Whether `lba` specifically is pending.
    pub fn contains(&self, row: u64, lba: u64) -> bool {
        self.rows.get(&row).is_some_and(|r| r.lbas.contains(lba))
    }

    /// Remove one page from a row's pending set (e.g. it degraded to a
    /// write-through update); drops the row when it empties.
    pub fn remove(&mut self, row: u64, lba: u64) -> bool {
        let Some(entry) = self.rows.get_mut(&row) else { return false };
        let removed = entry.lbas.remove(lba);
        if removed {
            self.pages -= 1;
            if entry.lbas.is_empty() {
                self.take_row_into(row, &mut Vec::new()); // no page left to collect
            }
        }
        removed
    }

    /// Remove a whole row: `lbas` is replaced by its pending pages in
    /// ascending order, the order the cleaner reclaims them in. The emptied
    /// set is kept for `add`.
    pub fn take_row_into(&mut self, row: u64, lbas: &mut Vec<u64>) {
        lbas.clear();
        let Some(entry) = self.rows.remove(&row) else { return };
        if let Some(n) = self.rows_in_set.get_mut(entry.set) {
            *n -= 1;
        }
        self.pages -= entry.lbas.len() as u64;
        lbas.extend_from_slice(&entry.lbas);
        self.spare.give(entry.lbas);
    }

    /// Number of distinct pending pages.
    pub fn pending_pages(&self) -> u64 {
        self.pages
    }

    /// Number of pending rows.
    pub fn pending_rows(&self) -> usize {
        self.rows.len()
    }

    /// The row a NoRoom reclaim of cache set `set` cleans: the first pending
    /// row recorded under it, in the map's iteration order (deterministic
    /// for a given history, but *not* oldest-first). A set with no pending
    /// row — the common case when a full set holds only DEZ pages — costs
    /// one counter read. `set_of_row` is the directory's current mapping,
    /// which debug builds hold the recorded sets to.
    pub fn first_row_in_set(&self, set: usize, set_of_row: impl Fn(u64) -> usize) -> Option<u64> {
        let row = match self.rows_in_set.get(set) {
            None | Some(0) => None,
            Some(_) => self.rows.iter().find(|(_, r)| r.set == set).map(|(&row, _)| row),
        };
        debug_assert_eq!(
            row,
            self.rows.keys().copied().find(|&r| set_of_row(r) == set),
            "recorded row sets drifted from the directory's mapping"
        );
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `take_row_into` into a dirty vector: it must replace the contents.
    fn take(p: &mut PendingRows, row: u64) -> Vec<u64> {
        let mut lbas = vec![u64::MAX];
        p.take_row_into(row, &mut lbas);
        lbas
    }

    /// Emptied row sets go back on the free list, and a row's set that
    /// grows takes a spare with room for it: nothing is allocated while
    /// such a spare waits, so per capacity, spares plus live sets never
    /// exceed the peak number of live sets. Rows of up to 12 pages grow
    /// their sets from 4 keys to 8 and 16.
    #[test]
    fn emptied_row_sets_are_reused() {
        const CAPS: [usize; 3] = [4, 8, 16];
        // Capacities of the allocated live sets and of the spares.
        let live = |p: &PendingRows| -> Vec<usize> {
            p.rows.values().map(|r| r.lbas.capacity()).filter(|&c| c > 0).collect()
        };
        let spares = |p: &PendingRows| -> Vec<usize> { p.spare.capacities().collect() };
        let count = |sets: &[usize], cap| sets.iter().filter(|&&c| c == cap).count();
        let mut p = PendingRows::default();
        let (mut lbas, mut peak) = (Vec::new(), [0; 3]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            let (live0, spare0) = (live(&p), spares(&p));
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (row, lba) = ((x >> 33) % 12, (x >> 40) % 12);
            match (x >> 50) % 8 {
                0 => p.take_row_into(row, &mut lbas),
                1 | 2 => {
                    p.remove(row, row * 16 + lba);
                }
                _ => p.add(row, row * 16 + lba, || 0),
            }
            let (live1, spare1) = (live(&p), spares(&p));
            assert!(live1.iter().chain(&spare1).all(|c| CAPS.contains(c)));
            let room = |live: &[usize], spare: &[usize]| live.iter().chain(spare).sum::<usize>();
            if room(&live1, &spare1) > room(&live0, &spare0) {
                let need = p.rows.get(&row).map_or(0, |r| r.lbas.len());
                assert!(
                    spare0.iter().all(|&c| c < need),
                    "allocated room for {need} pages while {spare0:?} were spare"
                );
            }
            for (cap, peak) in CAPS.into_iter().zip(&mut peak) {
                *peak = (*peak).max(count(&live1, cap));
                let sets = count(&live1, cap) + count(&spare1, cap);
                assert!(sets <= *peak, "more {cap}-key sets than were ever live");
            }
        }
        assert!(peak[2] > 0, "some set grew twice");
        assert!(!spares(&p).is_empty(), "emptied sets are kept for the next row");
    }

    #[test]
    fn paper_default_is_5disk_raid5() {
        let m = RaidModel::paper_default(1_000_000);
        assert_eq!(m.layout.disks, 5);
        assert_eq!(m.layout.level, RaidLevel::Raid5);
        assert!(m.layout.capacity_pages() >= 1_000_000);
    }

    #[test]
    fn small_write_is_2r2w_on_raid5() {
        let m = RaidModel::paper_default(10_000);
        let e = m.small_write_effects();
        assert_eq!(e.raid_reads, 2);
        assert_eq!(e.raid_writes, 2);
        assert_eq!(e.raid_rounds, 2);
    }

    #[test]
    fn small_write_reconstruct_wins_on_3_disks() {
        let m = RaidModel { layout: Layout::new(RaidLevel::Raid5, 3, 16, 160) };
        let e = m.small_write_effects();
        assert_eq!(e.raid_reads, 1, "3-disk RAID5 should reconstruct");
        assert_eq!(e.raid_writes, 2);
    }

    #[test]
    fn parity_update_costs() {
        let m = RaidModel::paper_default(10_000);
        let recon = m.parity_update_effects(true);
        assert_eq!(recon.raid_reads, 0);
        assert_eq!(recon.raid_writes, 1);
        let rmw = m.parity_update_effects(false);
        assert_eq!(rmw.raid_reads, 1);
        assert_eq!(rmw.raid_writes, 1);
    }

    #[test]
    fn pending_rows_bookkeeping() {
        let mut p = PendingRows::default();
        p.add(3, 100, || 0);
        p.add(3, 101, || 0);
        p.add(3, 100, || 0); // duplicate
        p.add(9, 7, || 0);
        assert_eq!(p.pending_pages(), 3);
        assert_eq!(p.pending_rows(), 2);
        assert!(p.contains_row(3));
        assert!(p.contains(3, 101));
        assert!(!p.contains(3, 999));
        assert_eq!(take(&mut p, 3), vec![100, 101]);
        assert_eq!(p.pending_pages(), 1);
        assert!(take(&mut p, 3).is_empty());
    }

    #[test]
    fn dropped_row_leaves_no_state_and_no_live_queue_entry() {
        let mut p = PendingRows::default();
        p.add(1, 10, || 0);
        p.add(2, 20, || 0);
        // `remove` of a row's last page drops the row like `take_row_into` does.
        assert!(p.remove(1, 10));
        assert_eq!(p.oldest_row(), Some(2), "row 1's queue entry died with it");
        // Re-added, row 1 is the *youngest*: its old entry must not revive.
        p.add(1, 11, || 0);
        assert_eq!(p.order.iter().filter(|&&(row, _)| row == 1).count(), 1);
        assert_eq!(p.oldest_row(), Some(2));
        assert_eq!(take(&mut p, 2), vec![20]);
        assert_eq!(p.oldest_row(), Some(1));
        assert_eq!(take(&mut p, 1), vec![11]);
        assert_eq!(p.oldest_row(), None);
        // Nothing per-row is left behind by either way out.
        assert!(p.rows.is_empty() && p.order.is_empty());
        assert_eq!((p.pending_pages(), p.rows_in_set.iter().sum::<u32>()), (0, 0));
    }

    #[test]
    fn order_queue_is_bounded_and_keeps_lrw_order() {
        let mut p = PendingRows::default();
        // Reference model: rows in least-recently-written order.
        let mut model: Vec<u64> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..100_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let row = (x >> 33) % 8;
            p.add(row, row * 100 + i % 4, || 0);
            model.retain(|&r| r != row);
            model.push(row);
            assert!(p.order.len() <= 2 * 8 + ORDER_SLACK + 1, "order grew to {}", p.order.len());
            if i % 1000 == 999 {
                // Drain oldest-first now and then, as the cleaner does.
                for _ in 0..(x >> 40) % 9 {
                    assert_eq!(p.oldest_row(), model.first().copied());
                    if let Some(row) = p.oldest_row() {
                        take(&mut p, row);
                        model.remove(0);
                    }
                }
            }
        }
        while let Some(row) = p.oldest_row() {
            assert_eq!(row, model.remove(0));
            take(&mut p, row);
        }
        assert!(model.is_empty());
        assert_eq!(p.pending_rows(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Against a naive row → (set, pages) model under random `add` /
        /// `remove` / `take_row_into`: the NoRoom query returns a row the
        /// model records under that set (that it is the map's first is the
        /// query's own debug assertion), the per-set counts equal a
        /// recount, and a count is zero exactly when the query is `None`.
        #[test]
        fn first_row_in_set_matches_naive_model(
            ops in proptest::collection::vec((0u8..4, 0u64..12, 0u64..3), 0..200),
        ) {
            const SETS: usize = 4;
            let mut p = PendingRows::default();
            let mut model: std::collections::BTreeMap<u64, (usize, Vec<u64>)> = Default::default();
            // A row's set is decided when it is created — here by the op
            // index, so the same row id lands in different sets over time.
            for (i, &(op, row, page)) in ops.iter().enumerate() {
                let lba = row * 8 + page;
                match op {
                    0 | 1 => {
                        p.add(row, lba, || i % SETS);
                        let (_, lbas) = model.entry(row).or_insert((i % SETS, Vec::new()));
                        if !lbas.contains(&lba) {
                            lbas.push(lba);
                        }
                    }
                    2 => {
                        let had = model.get(&row).is_some_and(|(_, l)| l.contains(&lba));
                        proptest::prop_assert_eq!(p.remove(row, lba), had);
                        if had {
                            model.get_mut(&row).unwrap().1.retain(|&l| l != lba);
                            model.retain(|_, (_, l)| !l.is_empty());
                        }
                    }
                    _ => {
                        let got = take(&mut p, row);
                        let mut want = model.remove(&row).map(|(_, l)| l).unwrap_or_default();
                        want.sort_unstable();
                        proptest::prop_assert_eq!(got, want);
                    }
                }
                proptest::prop_assert_eq!(p.pending_rows(), model.len());
                for set in 0..SETS + 1 {
                    let in_set: Vec<u64> = model.iter().filter(|(_, m)| m.0 == set).map(|(&r, _)| r).collect();
                    let got = p.first_row_in_set(set, |r| model.get(&r).map_or(SETS, |m| m.0));
                    proptest::prop_assert!(got.map_or(in_set.is_empty(), |r| in_set.contains(&r)));
                    let count = p.rows_in_set.get(set).copied().unwrap_or(0);
                    proptest::prop_assert_eq!(count as usize, in_set.len());
                }
            }
        }
    }
}
