//! The Delta Zone index (§III-B/C) under both §III copies: which deltas
//! each DEZ page still holds, their live bytes, and what compaction knows
//! about its next victim scan.
//!
//! One definition each of adding a delta, releasing one (and the page with
//! its last), planning the next merge and recounting the live bytes. How a
//! page is filled, how a merge is executed and how a slot is freed stay
//! with each copy: their histories decide hash order, and so DEZ packing
//! and log order (ROADMAP item 2c).

use crate::{Merge, MergeBound};
use kdd_util::hash::{FastMap, RecycledSet, SpareSets};

/// One DEZ page: the pages whose current delta it holds.
#[derive(Debug, Default)]
struct DezPage {
    lbas: RecycledSet,
    /// Compressed bytes of the deltas in `lbas` that are live (see
    /// [`DezIndex::recount`]).
    live: u32,
}

/// A page [`DezIndex::list`]ed whose deltas are not live yet, with the
/// bound as it stood before.
#[must_use = "the bound stays \"unknown\" until the page goes live"]
pub(crate) struct Listed {
    slot: u32,
    bound: MergeBound,
}

/// DEZ slot → the page's deltas and live bytes, their total, the merge
/// bound, and the emptied delta sets every page's set grows into.
#[derive(Debug, Default)]
pub(crate) struct DezIndex {
    pages: FastMap<u32, DezPage>,
    live_total: u64,
    /// "Unknown" while the engine logs a fresh page and after recovery.
    bound: MergeBound,
    spare: SpareSets,
}

impl DezIndex {
    /// An empty index on this one's free list: what recovery rebuilds into.
    pub(crate) fn emptied(self) -> Self {
        DezIndex { spare: self.spare, ..DezIndex::default() }
    }

    /// DEZ pages indexed.
    pub(crate) fn len(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Slots of the indexed pages, in index order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages.keys().copied()
    }

    /// The pages whose delta `slot` holds, in its set's order.
    pub(crate) fn lbas(&self, slot: u32) -> impl Iterator<Item = u64> + '_ {
        self.pages.get(&slot).into_iter().flat_map(|page| page.lbas.iter().copied())
    }

    /// `lba`'s live delta of `len` bytes is in page `slot`; the page is
    /// indexed at its first delta.
    pub(crate) fn add(&mut self, slot: u32, lba: u64, len: u32) {
        let page = self.pages.entry(slot).or_default();
        page.lbas.insert(&mut self.spare, lba);
        page.live += len;
        self.live_total += u64::from(len);
    }

    /// Page `slot`, filled with [`add`](Self::add), is complete.
    pub(crate) fn seal(&mut self, slot: u32) {
        if let Some(page) = self.pages.get(&slot) {
            self.bound.lower(page.live);
        }
    }

    /// Index page `slot` holding the deltas of `lbas`, none live yet: the
    /// engine logs their mappings first. Until [`go_live`](Self::go_live)
    /// the bound is "unknown", so an error on the way cannot leave a bound
    /// that overlooks the page.
    pub(crate) fn list(&mut self, slot: u32, lbas: impl IntoIterator<Item = u64>) -> Listed {
        let mut page = DezPage::default();
        page.lbas.extend(&mut self.spare, lbas);
        self.pages.insert(slot, page);
        let bound = self.bound;
        self.bound = bound.unknown();
        Listed { slot, bound }
    }

    /// The deltas of a listed page went live: `live` bytes of them.
    pub(crate) fn go_live(&mut self, listed: Listed, live: u32) {
        let Listed { slot, mut bound } = listed;
        if let Some(page) = self.pages.get_mut(&slot) {
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
        let Some(page) = self.pages.get_mut(&slot) else {
            debug_assert!(false, "DEZ index lost a page");
            return false;
        };
        if !page.lbas.remove(&lba) {
            debug_assert!(false, "DEZ page lost a delta");
            return false;
        }
        page.live -= len;
        self.live_total -= u64::from(len);
        if !page.lbas.is_empty() {
            self.bound.lower(page.live);
            return false;
        }
        if let Some(page) = self.pages.remove(&slot) {
            self.spare.give(page.lbas);
        }
        true
    }

    /// The next compaction turn [`plan_merge`](crate::plan_merge) finds
    /// over every page, in index order, for pages of `page_bytes` with a
    /// merged page's `overhead`.
    pub(crate) fn next_merge(&mut self, page_bytes: u32, overhead: (u32, u32)) -> Option<Merge> {
        crate::plan_merge(
            self.len(),
            self.live_total,
            page_bytes,
            overhead,
            &mut self.bound,
            self.pages.iter().map(|(&slot, page)| (slot, page.live, page.lbas.len())),
        )
    }

    /// Carry out `merge` in place: move the source page's deltas into the
    /// destination in the source's order, telling `moved` each one, and
    /// drop the source. The destination's deltas, for re-logging.
    pub(crate) fn drain_merge(
        &mut self,
        merge: &Merge,
        mut moved: impl FnMut(u64),
    ) -> Option<impl Iterator<Item = u64> + '_> {
        // Both keys were just sampled from the index, so the lookups hold
        // unless it is corrupt.
        if !self.pages.contains_key(&merge.dst) {
            debug_assert!(false, "DEZ index corrupt: dst page vanished");
            return None;
        }
        let Some(mut src) = self.pages.remove(&merge.src) else {
            debug_assert!(false, "DEZ index corrupt: src page vanished");
            return None;
        };
        let dst = self.pages.get_mut(&merge.dst)?;
        for lba in src.lbas.drain() {
            dst.lbas.insert(&mut self.spare, lba);
            moved(lba);
        }
        dst.live += src.live;
        self.bound.merged(dst.live, merge.rest);
        self.spare.give(src.lbas);
        Some(dst.lbas.iter().copied())
    }

    /// Carry out `merge` by replacing both pages with a fresh destination
    /// page of the `moved` deltas, `(lba, len)` each, inserted in order.
    pub(crate) fn replace_merged(
        &mut self,
        merge: &Merge,
        moved: impl Iterator<Item = (u64, u32)>,
    ) {
        let mut page = DezPage::default();
        for (lba, len) in moved {
            page.lbas.insert(&mut self.spare, lba);
            page.live += len;
        }
        self.live_total = self.live_total - u64::from(merge.live) + u64::from(page.live);
        self.bound.merged(page.live, merge.rest);
        let replaced = [self.pages.insert(merge.dst, page), self.pages.remove(&merge.src)];
        for old in replaced.into_iter().flatten() {
            self.spare.give(old.lbas);
        }
    }

    /// Forget every page (the SSD holding them is gone), keeping the free
    /// list.
    pub(crate) fn clear(&mut self) {
        self.pages.clear();
        self.live_total = 0;
        self.bound = MergeBound::default();
    }

    /// The slow definition the running counters must equal: every page's
    /// live bytes are what `live_len(slot, lba)` credits the deltas it
    /// lists with (the bytes of those its copy still places in it), and the
    /// total is their sum. Debug assertions and tests only.
    pub(crate) fn recount(&self, live_len: impl Fn(u32, u64) -> u32) -> bool {
        let mut total = 0u64;
        for (&slot, page) in &self.pages {
            let live: u32 = page.lbas.iter().map(|&lba| live_len(slot, lba)).sum();
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
