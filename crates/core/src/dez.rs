//! The Delta Zone index (§III-B/C) under both §III copies: where each
//! *old* page's current delta lives (staged in NVRAM, or a DEZ page, offset
//! and length), which deltas each DEZ page holds, their live bytes and what
//! compaction knows about its next victim scan. Packing a page, a merge's
//! I/O and freeing a slot stay with each copy.
//!
//! Every order the index shows is a key order, whatever its history: pages
//! by slot, each page's deltas by lba. So compaction's victims (the two
//! emptiest pages, ties to the lower slot), the re-log order of a merged
//! page and recovery's walk are the same in both copies.

// Slots index `at` and `at` indexes `pages` by construction; slots and
// positions fit `u32`. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::{Merge, MergeBound};
use kdd_util::hash::FastMap;
use kdd_util::sorted::{SortedSet, SpareVecs};

/// Where a committed delta lives inside the DEZ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRef {
    /// DEZ cache slot.
    pub slot: u32,
    /// Byte offset within the DEZ page.
    pub off: u16,
    /// Compressed length in bytes.
    pub len: u16,
}

/// Where a page's current delta lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeltaLoc {
    /// Still in the NVRAM staging buffer.
    Staged,
    /// Committed to a DEZ page.
    Dez(DeltaRef),
}

// Every old page holds one map entry of an lba and this: a wider location
// grows them all.
const _: () = assert!(std::mem::size_of::<DeltaLoc>() == 12);

/// What [`DezIndex::restage`] dropped: a staged delta, whose copy the
/// caller drops, or the last delta of a DEZ page, which left the index with
/// it ("the DEZ page cannot be freed until the valid count reaches zero"):
/// the caller frees `emptied`.
pub(crate) struct Released {
    pub(crate) staged: bool,
    pub(crate) emptied: Option<u32>,
}

/// One DEZ page: the pages whose current delta it holds.
#[derive(Debug)]
struct DezPage {
    slot: u32,
    /// Compressed bytes of the deltas in `lbas` that are live (see
    /// [`DezIndex::recount`]).
    live: u32,
    /// Never empty: a page leaves the index with its last delta.
    lbas: SortedSet,
}

/// `DezIndex::at` of a slot holding no indexed page.
const ABSENT: u32 = u32::MAX;

/// A page [`DezIndex::list`]ed whose deltas are not live yet, with the
/// bound as it stood before.
#[must_use = "the bound stays \"unknown\" until the page goes live"]
pub(crate) struct Listed {
    slot: u32,
    bound: MergeBound,
}

/// Each delta's location; DEZ slot → the page's deltas and live bytes,
/// their total, the merge bound, and the emptied delta sets every page's
/// set grows into.
///
/// The pages sit packed in one array, so the merge scan walks only pages;
/// `at` finds a slot's page in O(1). A removal moves the last page into
/// the hole, which no order the index shows depends on.
#[derive(Debug, Default)]
pub(crate) struct DezIndex {
    /// lba → its delta's location; exactly the pages with a delta.
    locs: FastMap<u64, DeltaLoc>,
    /// Slot → its page's position in `pages`, or [`ABSENT`].
    at: Vec<u32>,
    pages: Vec<DezPage>,
    live_total: u64,
    /// "Unknown" while a fresh page is logged and after recovery.
    bound: MergeBound,
    spare: SpareVecs,
}

impl DezIndex {
    /// An empty index with room for the pages of `slots` slots.
    pub(crate) fn new(slots: u64) -> Self {
        DezIndex { at: vec![ABSENT; slots as usize], ..DezIndex::default() }
    }

    /// DEZ pages indexed.
    pub(crate) fn len(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Where `lba`'s current delta lives, if it has one.
    pub(crate) fn loc(&self, lba: u64) -> Option<DeltaLoc> {
        self.locs.get(&lba).copied()
    }

    fn page(&self, slot: u32) -> Option<&DezPage> {
        let &i = self.at.get(slot as usize)?;
        self.pages.get(i as usize)
    }

    fn page_mut(&mut self, slot: u32) -> Option<&mut DezPage> {
        let &i = self.at.get(slot as usize)?;
        self.pages.get_mut(i as usize)
    }

    /// Page `slot`, indexed empty if it was not, and the free list its
    /// set grows into.
    fn page_or_insert(&mut self, slot: u32) -> (&mut DezPage, &mut SpareVecs) {
        let at = slot as usize;
        if at >= self.at.len() {
            self.at.resize(at + 1, ABSENT);
        }
        if self.at[at] == ABSENT {
            self.at[at] = self.pages.len() as u32;
            self.pages.push(DezPage { slot, live: 0, lbas: SortedSet::default() });
        }
        (&mut self.pages[self.at[at] as usize], &mut self.spare)
    }

    /// Take page `slot` out of the index.
    fn remove_page(&mut self, slot: u32) -> Option<DezPage> {
        let i = std::mem::replace(self.at.get_mut(slot as usize)?, ABSENT);
        if i == ABSENT {
            return None;
        }
        let page = self.pages.swap_remove(i as usize);
        if let Some(moved) = self.pages.get(i as usize) {
            self.at[moved.slot as usize] = i;
        }
        Some(page)
    }

    /// Slots of the indexed pages, ascending.
    pub(crate) fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..).zip(&self.at).filter(|&(_, &i)| i != ABSENT).map(|(slot, _)| slot)
    }

    /// The pages whose delta `slot` holds, ascending.
    pub(crate) fn lbas(&self, slot: u32) -> impl Iterator<Item = u64> + '_ {
        self.page(slot).into_iter().flat_map(|page| page.lbas.iter().copied())
    }

    /// The deltas page `slot` holds, ascending by lba, with where each lies.
    pub(crate) fn deltas(&self, slot: u32) -> impl Iterator<Item = (u64, DeltaRef)> + '_ {
        self.lbas(slot).filter_map(|lba| match self.locs.get(&lba) {
            Some(&DeltaLoc::Dez(r)) => Some((lba, r)),
            _ => None,
        })
    }

    /// Recovery: `lba`'s delta, live, was committed at `r`; the page is
    /// indexed at its first delta.
    pub(crate) fn add(&mut self, lba: u64, r: DeltaRef) {
        self.locs.insert(lba, DeltaLoc::Dez(r));
        let (page, spare) = self.page_or_insert(r.slot);
        page.lbas.insert(spare, lba);
        page.live += u32::from(r.len);
        self.live_total += u64::from(r.len);
    }

    /// `lba`'s current delta is now the one staged (`staged`), or it has
    /// none: drop where its delta was, releasing a committed one from its
    /// DEZ page.
    pub(crate) fn restage(&mut self, lba: u64, staged: bool) -> Released {
        let was =
            if staged { self.locs.insert(lba, DeltaLoc::Staged) } else { self.locs.remove(&lba) };
        let mut out = Released { staged: was == Some(DeltaLoc::Staged), emptied: None };
        let Some(DeltaLoc::Dez(r)) = was else { return out };
        // A missing page or delta is an accounting bug; skip the release
        // (the location is already gone) rather than panic mid-write.
        let Some(page) = self.page_mut(r.slot).filter(|page| page.lbas.contains(lba)) else {
            debug_assert!(false, "DEZ index lost a delta");
            return out;
        };
        page.lbas.remove(lba);
        page.live -= u32::from(r.len);
        let (emptied, live) = (page.lbas.is_empty(), page.live);
        self.live_total -= u64::from(r.len);
        if !emptied {
            self.bound.lower(live);
        } else if let Some(page) = self.remove_page(r.slot) {
            self.spare.give(page.lbas);
            out.emptied = Some(r.slot);
        }
        out
    }

    /// Index page `slot` holding the deltas of `lbas`, none live yet: the
    /// caller writes the page and logs their mappings first. Until
    /// [`go_live`](Self::go_live) the bound is "unknown", so an error on the
    /// way cannot leave a bound that overlooks the page.
    pub(crate) fn list(&mut self, slot: u32, lbas: impl IntoIterator<Item = u64>) -> Listed {
        let (page, spare) = self.page_or_insert(slot);
        debug_assert!(page.lbas.is_empty(), "DEZ slot listed twice");
        for lba in lbas {
            page.lbas.insert(spare, lba);
        }
        let bound = self.bound;
        self.bound = bound.unknown();
        Listed { slot, bound }
    }

    /// A listed page that could not be written or logged leaves the index
    /// (the caller frees its slot); the bound is as before the listing.
    pub(crate) fn unlist(&mut self, listed: Listed) {
        if let Some(page) = self.remove_page(listed.slot) {
            self.spare.give(page.lbas);
        }
        self.bound = listed.bound;
    }

    /// The listed page's deltas went live at `refs`, one per listed lba:
    /// their locations turn to the page.
    pub(crate) fn go_live(&mut self, listed: Listed, refs: &[(u64, DeltaRef)]) {
        let Listed { slot, mut bound } = listed;
        let mut live = 0u32;
        for &(lba, r) in refs {
            self.locs.insert(lba, DeltaLoc::Dez(r));
            live += u32::from(r.len);
        }
        if let Some(page) = self.page_mut(slot) {
            page.live = live;
            self.live_total += u64::from(live);
        }
        bound.lower(live);
        self.bound = bound;
    }

    /// The next compaction turn [`plan_merge`](crate::plan_merge) finds
    /// over every page, for pages of `page_bytes` with a merged page's
    /// `overhead`.
    pub(crate) fn next_merge(&mut self, page_bytes: u32, overhead: (u32, u32)) -> Option<Merge> {
        crate::plan_merge(
            self.len(),
            self.live_total,
            page_bytes,
            overhead,
            &mut self.bound,
            self.pages.iter().map(|page| (page.slot, page.live, page.lbas.len())),
        )
    }

    /// Carry out `merge` by replacing both pages with a fresh destination
    /// page of the `moved` deltas, whose locations turn to it.
    pub(crate) fn replace_merged(&mut self, merge: &Merge, moved: &[(u64, DeltaRef)]) {
        if let Some(src) = self.remove_page(merge.src) {
            self.spare.give(src.lbas);
        }
        let (page, spare) = self.page_or_insert(merge.dst);
        page.lbas.clear();
        page.live = 0;
        for &(lba, r) in moved {
            page.lbas.insert(spare, lba);
            page.live += u32::from(r.len);
        }
        let live = page.live;
        for &(lba, r) in moved {
            self.locs.insert(lba, DeltaLoc::Dez(r));
        }
        self.live_total = self.live_total - u64::from(merge.live) + u64::from(live);
        self.bound.merged(live, merge.rest);
    }

    /// Forget every delta and page (the SSD holding them is gone, or
    /// recovery rebuilds them), keeping the free list.
    pub(crate) fn clear(&mut self) {
        self.locs.clear();
        for page in self.pages.drain(..) {
            self.spare.give(page.lbas);
        }
        self.at.fill(ABSENT);
        self.live_total = 0;
        self.bound = MergeBound::default();
    }

    /// The slow definition the running counters must equal: every page's
    /// live bytes are the lengths of the deltas it lists whose location is
    /// that page, the total is their sum, and every committed location is
    /// listed by its page. Debug assertions and tests only.
    pub(crate) fn recount(&self) -> bool {
        let mut total = 0u64;
        for page in &self.pages {
            let live_len = |lba| match self.locs.get(lba) {
                Some(DeltaLoc::Dez(r)) if r.slot == page.slot => u32::from(r.len),
                _ => 0,
            };
            let live: u32 = page.lbas.iter().map(live_len).sum();
            if live != page.live {
                return false;
            }
            total += u64::from(live);
        }
        let listed = |(&lba, loc): (&u64, &DeltaLoc)| match loc {
            DeltaLoc::Dez(r) => self.page(r.slot).is_some_and(|page| page.lbas.contains(lba)),
            DeltaLoc::Staged => true,
        };
        total == self.live_total && self.locs.iter().all(listed)
    }

    /// Every page's delta location.
    #[cfg(test)]
    pub(crate) fn locs(&self) -> impl Iterator<Item = (u64, DeltaLoc)> + '_ {
        self.locs.iter().map(|(&lba, &loc)| (lba, loc))
    }

    /// What compaction can prove about its next victim scan.
    #[cfg(test)]
    pub(crate) fn bound(&self) -> MergeBound {
        self.bound
    }

    /// Sum of every page's live bytes.
    #[cfg(test)]
    pub(crate) fn live_total(&self) -> u64 {
        self.live_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdd_cache::policies::PendingRows;
    use proptest::prop_assert_eq;
    use proptest::test_runner::TestCaseError;
    use std::collections::{BTreeMap, BTreeSet};

    const PAGE: u32 = 4096;

    /// The index as plain maps: slot → lba → where the page's live delta
    /// lies, and the lbas whose delta is staged.
    #[derive(Default)]
    struct Model {
        pages: BTreeMap<u32, BTreeMap<u64, DeltaRef>>,
        staged: BTreeSet<u64>,
    }

    impl Model {
        fn loc(&self, lba: u64) -> Option<DeltaLoc> {
            if self.staged.contains(&lba) {
                return Some(DeltaLoc::Staged);
            }
            self.pages.values().find_map(|d| d.get(&lba)).map(|&r| DeltaLoc::Dez(r))
        }

        /// Drop `lba`'s delta; whether it was staged, and the slot of the
        /// page that emptied.
        fn release(&mut self, lba: u64) -> (bool, Option<u32>) {
            if self.staged.remove(&lba) {
                return (true, None);
            }
            let Some((&slot, deltas)) = self.pages.iter_mut().find(|(_, d)| d.contains_key(&lba))
            else {
                return (false, None);
            };
            deltas.remove(&lba);
            if !deltas.is_empty() {
                return (false, None);
            }
            self.pages.remove(&slot);
            (false, Some(slot))
        }
    }

    /// Invalidate (`staged` false) or re-stage `lba`'s delta, in both: the
    /// index reports a staged delta and an emptied page as the model does.
    fn restage(
        dez: &mut DezIndex,
        model: &mut Model,
        lba: u64,
        staged: bool,
    ) -> Result<(), TestCaseError> {
        let want = model.release(lba);
        if staged {
            model.staged.insert(lba);
        }
        let got = dez.restage(lba, staged);
        prop_assert_eq!((got.staged, got.emptied), want, "lba {}", lba);
        Ok(())
    }

    /// `deltas` of `(lba, len)` packed into page `slot` in order.
    fn packed(slot: u32, deltas: impl IntoIterator<Item = (u64, u16)>) -> Vec<(u64, DeltaRef)> {
        let mut off = 0;
        let pack = |(lba, len)| {
            let r = DeltaRef { slot, off, len };
            off += len;
            (lba, r)
        };
        deltas.into_iter().map(pack).collect()
    }

    /// The merge the model plans: the two smallest pages by (live bytes,
    /// slot), under pressure and if one page holds both.
    fn model_merge(model: &Model, (per_page, per_delta): (u32, u32)) -> Option<(u32, u32)> {
        let live = |d: &BTreeMap<u64, DeltaRef>| d.values().map(|r| u32::from(r.len)).sum::<u32>();
        let mut pages: Vec<(u32, u32, u32)> =
            model.pages.iter().map(|(&slot, d)| (live(d), slot, d.len() as u32)).collect();
        pages.sort_unstable();
        let total: u32 = pages.iter().map(|&(live, ..)| live).sum();
        let pressed = pages.len() >= 4 && total * 100 < pages.len() as u32 * PAGE * 85;
        match pages[..] {
            [(la, a, na), (lb, b, nb), ..]
                if pressed && per_page + (na + nb) * per_delta + la + lb <= PAGE =>
            {
                Some((a, b))
            }
            _ => None,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `DezIndex` and `PendingRows` against `BTreeMap`/`BTreeSet`
        /// models under random re-stages, invalidations, committed pages,
        /// merges, recovery rebuilds and row adds, removals and takes:
        /// every lba's location equals the model's, an invalidation reports
        /// an emptied page exactly when the model's empties, slots come out
        /// ascending, each page's deltas and each taken row ascending, all
        /// equal to the model; the index recounts; and compaction merges
        /// the two smallest pages by (live bytes, slot). Delta sizes are
        /// multiples of 256 bytes, so pages often tie.
        #[test]
        fn dez_index_and_pending_rows_follow_key_order(
            ops in proptest::collection::vec((0u8..11, 0u32..24, 0u64..48, 1u16..8), 0..300),
        ) {
            // Slots from 16 up grow the slot table.
            let mut dez = DezIndex::new(16);
            let mut model = Model::default();
            let mut rows = PendingRows::default();
            let mut row_model: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
            let mut taken = Vec::new();
            for (op, slot, lba, size) in ops {
                let len = size * 256;
                let row = u64::from(slot % 6);
                match op {
                    // A write hit stages a delta; cleaning invalidates one.
                    0 | 1 => restage(&mut dez, &mut model, lba, true)?,
                    2 => restage(&mut dez, &mut model, lba, false)?,
                    // A commit: 1–4 staged deltas listed in a fresh page,
                    // logged, then live.
                    3 if !model.pages.contains_key(&slot) => {
                        let lbas: BTreeSet<u64> =
                            (0..u64::from(size % 4) + 1).map(|k| (lba + 7 * k) % 48).collect();
                        for &l in &lbas {
                            restage(&mut dez, &mut model, l, true)?;
                        }
                        let refs = packed(slot, lbas.iter().rev().map(|&l| (l, len)));
                        let listed = dez.list(slot, lbas.iter().copied());
                        for &l in &lbas {
                            prop_assert_eq!(dez.loc(l), Some(DeltaLoc::Staged), "listed lba {}", l);
                        }
                        dez.go_live(listed, &refs);
                        model.staged.retain(|l| !lbas.contains(l));
                        model.pages.insert(slot, refs.into_iter().collect());
                    }
                    // A compaction turn with either copy's page overhead:
                    // both pages' deltas repacked into the destination.
                    4 | 5 => {
                        let overhead = if op == 4 { (0, 0) } else { (2, 12) };
                        let merge = dez.next_merge(PAGE, overhead);
                        prop_assert_eq!(merge.map(|m| (m.dst, m.src)), model_merge(&model, overhead));
                        let Some(merge) = merge else { continue };
                        let src = model.pages.remove(&merge.src).unwrap_or_default();
                        let dst = model.pages.remove(&merge.dst).unwrap_or_default();
                        let deltas = dst.iter().chain(&src).map(|(&l, r)| (l, r.len));
                        let mut moved = packed(merge.dst, deltas);
                        moved.sort_unstable_by_key(|&(l, _)| l);
                        dez.replace_merged(&merge, &moved);
                        model.pages.insert(merge.dst, moved.into_iter().collect());
                    }
                    // Recovery: the committed locations re-added one by one
                    // in any order, then the staged ones re-staged.
                    10 => {
                        let committed: Vec<(u64, DeltaRef)> = model
                            .pages
                            .values()
                            .flat_map(|d| d.iter().map(|(&l, &r)| (l, r)))
                            .collect();
                        dez.clear();
                        for &(l, r) in committed.iter().rev() {
                            dez.add(l, r);
                        }
                        for &l in &model.staged {
                            let got = dez.restage(l, true);
                            prop_assert_eq!((got.staged, got.emptied), (false, None));
                        }
                    }
                    6 | 7 => {
                        rows.add(row, lba, || 0);
                        row_model.entry(row).or_default().insert(lba);
                    }
                    8 => {
                        let had = row_model.get_mut(&row).is_some_and(|r| r.remove(&lba));
                        row_model.retain(|_, r| !r.is_empty());
                        prop_assert_eq!(rows.remove(row, lba), had);
                    }
                    _ => {
                        rows.take_row_into(row, &mut taken);
                        let want = row_model.remove(&row).unwrap_or_default();
                        prop_assert_eq!(&taken, &want.into_iter().collect::<Vec<_>>());
                    }
                }
                for l in 0..48 {
                    prop_assert_eq!(dez.loc(l), model.loc(l), "lba {}", l);
                }
                let slots: Vec<u32> = model.pages.keys().copied().collect();
                prop_assert_eq!(dez.slots().collect::<Vec<_>>(), slots);
                for (&slot, deltas) in &model.pages {
                    prop_assert_eq!(
                        dez.lbas(slot).collect::<Vec<_>>(),
                        deltas.keys().copied().collect::<Vec<_>>()
                    );
                }
                proptest::prop_assert!(dez.recount());
                prop_assert_eq!(dez.len(), model.pages.len() as u64);
                prop_assert_eq!(rows.pending_rows(), row_model.len());
            }
        }
    }
}
