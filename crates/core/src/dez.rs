//! The Delta Zone index (§III-B/C) under both §III copies: which deltas
//! each DEZ page still holds, their live bytes, and what compaction knows
//! about its next victim scan.
//!
//! One definition each of adding a delta, releasing one (and the page with
//! its last), planning the next merge and recounting the live bytes. How a
//! page is filled, how a merge is executed and how a slot is freed stay
//! with each copy.
//!
//! Every order the index shows is a key order, whatever its history: pages
//! by slot, each page's deltas by lba. So compaction's victims (the two
//! emptiest pages, ties to the lower slot), the re-log order of a merged
//! page and recovery's walk are the same in both copies.

// Slots index `at` and `at` indexes `pages` by construction; slots and
// positions fit `u32`. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::{Merge, MergeBound};
use kdd_util::sorted::{SortedSet, SpareVecs};

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

/// DEZ slot → the page's deltas and live bytes, their total, the merge
/// bound, and the emptied delta sets every page's set grows into.
///
/// The pages sit packed in one array, so the merge scan walks only pages;
/// `at` finds a slot's page in O(1). A removal moves the last page into
/// the hole, which no order the index shows depends on.
#[derive(Debug, Default)]
pub(crate) struct DezIndex {
    /// Slot → its page's position in `pages`, or [`ABSENT`].
    at: Vec<u32>,
    pages: Vec<DezPage>,
    live_total: u64,
    /// "Unknown" while the engine logs a fresh page and after recovery.
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

    /// `lba`'s live delta of `len` bytes is in page `slot`; the page is
    /// indexed at its first delta.
    pub(crate) fn add(&mut self, slot: u32, lba: u64, len: u32) {
        let (page, spare) = self.page_or_insert(slot);
        page.lbas.insert(spare, lba);
        page.live += len;
        self.live_total += u64::from(len);
    }

    /// Page `slot`, filled with [`add`](Self::add), is complete.
    pub(crate) fn seal(&mut self, slot: u32) {
        if let Some(page) = self.page(slot) {
            self.bound.lower(page.live);
        }
    }

    /// Index page `slot` holding the deltas of `lbas`, none live yet: the
    /// engine logs their mappings first. Until [`go_live`](Self::go_live)
    /// the bound is "unknown", so an error on the way cannot leave a bound
    /// that overlooks the page.
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

    /// The deltas of a listed page went live: `live` bytes of them.
    pub(crate) fn go_live(&mut self, listed: Listed, live: u32) {
        let Listed { slot, mut bound } = listed;
        if let Some(page) = self.page_mut(slot) {
            page.live = live;
            self.live_total += u64::from(live);
        }
        bound.lower(live);
        self.bound = bound;
    }

    /// `lba`'s delta of `len` bytes in page `slot` is no longer live.
    /// Whether that emptied the page: "the DEZ page cannot be freed until
    /// the valid count reaches zero", and then it leaves the index, its set
    /// goes to the free list and the caller frees the slot.
    pub(crate) fn release(&mut self, slot: u32, lba: u64, len: u32) -> bool {
        // A missing page or delta is an accounting bug; skip the release
        // (the mapping is already gone) rather than panic mid-write.
        let Some(page) = self.page_mut(slot) else {
            debug_assert!(false, "DEZ index lost a page");
            return false;
        };
        if !page.lbas.remove(lba) {
            debug_assert!(false, "DEZ page lost a delta");
            return false;
        }
        page.live -= len;
        let (emptied, live) = (page.lbas.is_empty(), page.live);
        self.live_total -= u64::from(len);
        if !emptied {
            self.bound.lower(live);
            return false;
        }
        if let Some(page) = self.remove_page(slot) {
            self.spare.give(page.lbas);
        }
        true
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

    /// Carry out `merge` in place: move the source page's deltas into the
    /// destination, telling `moved` each one in ascending order, and drop
    /// the source. The destination's deltas, ascending, for re-logging.
    pub(crate) fn drain_merge(
        &mut self,
        merge: &Merge,
        mut moved: impl FnMut(u64),
    ) -> Option<impl Iterator<Item = u64> + '_> {
        // Both keys were just sampled from the index, so the lookups hold
        // unless it is corrupt.
        if self.page(merge.dst).is_none() {
            debug_assert!(false, "DEZ index corrupt: dst page vanished");
            return None;
        }
        let Some(src) = self.remove_page(merge.src) else {
            debug_assert!(false, "DEZ index corrupt: src page vanished");
            return None;
        };
        let (dst, spare) = self.page_or_insert(merge.dst);
        for &lba in src.lbas.iter() {
            dst.lbas.insert(spare, lba);
            moved(lba);
        }
        dst.live += src.live;
        let live = dst.live;
        spare.give(src.lbas);
        self.bound.merged(live, merge.rest);
        Some(self.lbas(merge.dst))
    }

    /// Carry out `merge` by replacing both pages with a fresh destination
    /// page of the `moved` deltas, `(lba, len)` each.
    pub(crate) fn replace_merged(
        &mut self,
        merge: &Merge,
        moved: impl Iterator<Item = (u64, u32)>,
    ) {
        if let Some(src) = self.remove_page(merge.src) {
            self.spare.give(src.lbas);
        }
        let (page, spare) = self.page_or_insert(merge.dst);
        page.lbas.clear();
        page.live = 0;
        for (lba, len) in moved {
            page.lbas.insert(spare, lba);
            page.live += len;
        }
        let live = page.live;
        self.live_total = self.live_total - u64::from(merge.live) + u64::from(live);
        self.bound.merged(live, merge.rest);
    }

    /// Forget every page (the SSD holding them is gone, or recovery
    /// rebuilds them), keeping the free list.
    pub(crate) fn clear(&mut self) {
        for page in self.pages.drain(..) {
            self.spare.give(page.lbas);
        }
        self.at.fill(ABSENT);
        self.live_total = 0;
        self.bound = MergeBound::default();
    }

    /// The slow definition the running counters must equal: every page's
    /// live bytes are what `live_len(slot, lba)` credits the deltas it
    /// lists with (the bytes of those its copy still places in it), and the
    /// total is their sum. Debug assertions and tests only.
    pub(crate) fn recount(&self, live_len: impl Fn(u32, u64) -> u32) -> bool {
        let mut total = 0u64;
        for page in &self.pages {
            let live: u32 = page.lbas.iter().map(|&lba| live_len(page.slot, lba)).sum();
            if live != page.live {
                return false;
            }
            total += u64::from(live);
        }
        total == self.live_total
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

    /// Slot → lba → bytes of the live deltas the page holds.
    type Model = BTreeMap<u32, BTreeMap<u64, u32>>;

    /// Release `lba`'s delta from whichever page holds it, in both.
    fn release(dez: &mut DezIndex, model: &mut Model, lba: u64) -> Result<(), TestCaseError> {
        let Some((&slot, deltas)) = model.iter_mut().find(|(_, d)| d.contains_key(&lba)) else {
            return Ok(());
        };
        let len = deltas.remove(&lba).unwrap_or(0);
        let emptied = deltas.is_empty();
        if emptied {
            model.remove(&slot);
        }
        prop_assert_eq!(dez.release(slot, lba, len), emptied);
        Ok(())
    }

    /// The merge the model plans: the two smallest pages by (live bytes,
    /// slot), under pressure and if one page holds both.
    fn model_merge(model: &Model, (per_page, per_delta): (u32, u32)) -> Option<(u32, u32)> {
        let mut pages: Vec<(u32, u32, u32)> =
            model.iter().map(|(&slot, d)| (d.values().sum(), slot, d.len() as u32)).collect();
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
        /// models under random adds, releases, listed pages, merges in
        /// either copy's style and row adds, removals and takes: slots come
        /// out ascending, each page's deltas and each taken row ascending,
        /// all equal to the model; the live bytes recount; and compaction
        /// merges the two smallest pages by (live bytes, slot). Delta sizes
        /// are multiples of 256 bytes, so pages often tie.
        #[test]
        fn dez_index_and_pending_rows_follow_key_order(
            ops in proptest::collection::vec((0u8..10, 0u32..24, 0u64..48, 1u32..8), 0..300),
        ) {
            // Slots from 16 up grow the slot table.
            let mut dez = DezIndex::new(16);
            let mut model = Model::new();
            let mut rows = PendingRows::default();
            let mut row_model: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
            let mut taken = Vec::new();
            for (op, slot, lba, size) in ops {
                let len = size * 256;
                let row = u64::from(slot % 6);
                match op {
                    // The counting copy's commit: one delta at a time.
                    0 | 1 => {
                        release(&mut dez, &mut model, lba)?;
                        dez.add(slot, lba, len);
                        dez.seal(slot);
                        model.entry(slot).or_default().insert(lba, len);
                    }
                    2 => release(&mut dez, &mut model, lba)?,
                    // The engine's commit: a page of 1–4 deltas listed,
                    // then live.
                    3 if !model.contains_key(&slot) => {
                        let deltas: BTreeMap<u64, u32> =
                            (0..u64::from(size % 4) + 1).map(|k| ((lba + 7 * k) % 48, len)).collect();
                        for &l in deltas.keys() {
                            release(&mut dez, &mut model, l)?;
                        }
                        let listed = dez.list(slot, deltas.keys().rev().copied());
                        dez.go_live(listed, deltas.values().sum());
                        model.insert(slot, deltas);
                    }
                    // A compaction turn, carried out as the counting copy
                    // (in place) or the engine (a fresh destination) does.
                    4 | 5 => {
                        let overhead = if op == 4 { (0, 0) } else { (2, 12) };
                        let merge = dez.next_merge(PAGE, overhead);
                        prop_assert_eq!(merge.map(|m| (m.dst, m.src)), model_merge(&model, overhead));
                        let Some(merge) = merge else { continue };
                        let src = model.remove(&merge.src).unwrap_or_default();
                        if op == 4 {
                            let mut moved = Vec::new();
                            let merged: Vec<u64> = dez
                                .drain_merge(&merge, |l| moved.push(l))
                                .map(Iterator::collect)
                                .unwrap_or_default();
                            prop_assert_eq!(moved, src.keys().copied().collect::<Vec<_>>());
                            let dst = model.entry(merge.dst).or_default();
                            dst.extend(src);
                            prop_assert_eq!(merged, dst.keys().copied().collect::<Vec<_>>());
                        } else {
                            let dst = model.entry(merge.dst).or_default();
                            // Packed as the engine packs: the destination's
                            // deltas, then the source's.
                            let moved: Vec<(u64, u32)> =
                                dst.iter().chain(&src).map(|(&l, &n)| (l, n)).collect();
                            dez.replace_merged(&merge, moved.into_iter());
                            dst.extend(src);
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
                prop_assert_eq!(dez.slots().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
                for (&slot, deltas) in &model {
                    prop_assert_eq!(
                        dez.lbas(slot).collect::<Vec<_>>(),
                        deltas.keys().copied().collect::<Vec<_>>()
                    );
                }
                let live_len = |slot, lba| model.get(&slot).and_then(|d| d.get(&lba)).copied();
                proptest::prop_assert!(dez.recount(|slot, lba| live_len(slot, lba).unwrap_or(0)));
                prop_assert_eq!(dez.len(), model.len() as u64);
                prop_assert_eq!(rows.pending_rows(), row_model.len());
            }
        }
    }
}
