//! The N-way set-associative cache directory all policies share.
//!
//! §III-B: "KDD adopts the N-way set-associative method to organize the
//! SSD cache. The cache space is divided into many cache sets, each
//! containing a fixed number of pages." Pages carry a state (*free*,
//! *clean*, *old*, *delta*, plus *dirty*/*old-version* for LeavO);
//! per-set recency is tracked with an intrusive LRU.
//!
//! **Who can be evicted.** §III-D: "only clean pages" may be replaced;
//! *old* and DEZ pages stay until the cleaner releases them. The directory
//! holds that rule in one place: the pinned states ([`PageState::Old`],
//! [`PageState::Delta`], [`PageState::OldVersion`]) are never eviction
//! candidates, whatever the caller's predicate says, and
//! [`SetAssocCache::insert`]'s `evictable` chooses among the *unpinned*
//! pages (`Clean`, `Dirty`) only. The predicate still matters there: LeavO
//! keeps its pinned current copy as `Dirty` and evicts with `s == Clean`,
//! so the candidates are the unpinned pages the predicate accepts.
//! Because a pinned page can never be the victim, it holds no place in its
//! set's recency list — the eviction walk would only step over it (on a
//! 64-way KDD set, over the 30–40 *old*/*delta* pages that sink to the LRU
//! end) — just a recency stamp, the tick of its last `insert`/`touch`. The
//! list links the unpinned pages in stamp order; a page that becomes
//! pinned leaves it, and one the cleaner releases (`Old → Clean`) re-enters
//! at the rank its stamp gives it, exactly where a list of every page
//! would have kept it.
//!
//! Set placement groups pages of the same parity stripe into the same set
//! (hashed), so the cleaner can reclaim them together; DEZ pages are
//! *unmapped* slots allocated "from the cache set which has the least
//! number of DEZ pages" so they spread evenly.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd_raid::layout::Layout;
use kdd_util::hash::{mix64, FastMap};
use kdd_util::lru::LruList;
use serde::{Deserialize, Serialize};

/// State of one cache page slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PageState {
    /// Unoccupied.
    Free,
    /// Valid copy of RAID data (parity consistent).
    Clean,
    /// Stale copy: the RAID holds newer data whose parity is pending; the
    /// delta to the current version lives in DEZ/NVRAM (KDD).
    Old,
    /// A compacted page of deltas (KDD's DEZ).
    Delta,
    /// Newer than RAID: LeavO's pinned current copy.
    Dirty,
    /// LeavO's retained second version of an updated page.
    OldVersion,
}

/// Number of [`PageState`] variants (size of the per-state slot counters).
const PAGE_STATES: usize = PageState::OldVersion as usize + 1;

/// Whether pages in `state` sit in their set's recency list: the unpinned
/// states, the only ones an insert may evict.
fn listed(state: PageState) -> bool {
    matches!(state, PageState::Clean | PageState::Dirty)
}

/// How LBAs map to cache sets.
///
/// §III-B: "DAZ pages in the same parity stripe are mapped to the same
/// cache set, and thus they can be reclaimed together during cache
/// cleaning." The reclaim unit of the cleaner is the *parity row* (the
/// page-granular stripe slice), so [`SetGrouping::ParityRow`] co-locates
/// exactly the pages that are freed together while spreading unrelated
/// rows across sets. [`SetGrouping::Pages`] is plain block-range hashing
/// (1 = per-page) for the set-mapping ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SetGrouping {
    /// `lba / n` shares a set.
    Pages(u64),
    /// Members of the same parity row share a set.
    ParityRow {
        /// Pages per chunk (stripe unit).
        chunk_pages: u64,
        /// Data disks per stripe.
        data_disks: u64,
    },
}

impl SetGrouping {
    /// The grouping §III-B prescribes over `layout`: one parity row a group.
    pub fn parity_rows(layout: &Layout) -> Self {
        SetGrouping::ParityRow {
            chunk_pages: layout.chunk_pages,
            data_disks: layout.data_disks() as u64,
        }
    }

    /// The grouping key for an LBA (hashed to pick the set).
    #[inline]
    pub fn key(&self, lba: u64) -> u64 {
        match *self {
            SetGrouping::Pages(n) => lba / n.max(1),
            SetGrouping::ParityRow { chunk_pages, data_disks } => {
                let stripe = lba / (chunk_pages * data_disks);
                stripe * chunk_pages + lba % chunk_pages
            }
        }
    }
}

/// Cache shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total page slots.
    pub total_pages: u64,
    /// Slots per set.
    pub ways: u32,
    /// Page size in bytes.
    pub page_size: u32,
}

impl CacheGeometry {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.total_pages / self.ways as u64).max(1) as usize
    }
}

/// Result of inserting a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Inserted into a free slot.
    Inserted {
        /// The slot used.
        slot: u32,
    },
    /// Inserted after evicting a page.
    Evicted {
        /// The slot used.
        slot: u32,
        /// Tag (LBA) of the evicted page.
        victim_lba: u64,
        /// State the victim was in.
        victim_state: PageState,
    },
    /// No free slot and nothing evictable in the set — the caller must
    /// bypass the cache or trigger cleaning.
    NoRoom,
}

const TAG_NONE: u64 = u64::MAX;

/// The shared cache directory.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: usize,
    /// Per-slot tag (LBA) — `TAG_NONE` for free/unmapped (delta) slots.
    tags: Vec<u64>,
    states: Vec<PageState>,
    /// Per-set LRU over the *local* indices of the unpinned (`Clean`,
    /// `Dirty`) slots, in `stamps` order.
    lru: Vec<LruList>,
    /// Per-slot recency: the `tick` of the slot's last occupy/touch. The
    /// only recency a pinned slot keeps.
    stamps: Vec<u64>,
    tick: u64,
    /// LBA → global slot.
    map: FastMap<u64, u32>,
    /// Per-set free-slot counts.
    free_per_set: Vec<u32>,
    /// Per-set delta (DEZ) page counts.
    delta_per_set: Vec<u32>,
    /// Slots in each state across the whole cache, indexed by
    /// `PageState as usize`; always sums to `slots()`.
    state_counts: [usize; PAGE_STATES],
    /// Set-placement grouping.
    grouping: SetGrouping,
}

impl SetAssocCache {
    /// Build an empty cache with the given set-placement grouping.
    pub fn new_grouped(geometry: CacheGeometry, grouping: SetGrouping) -> Self {
        let sets = geometry.sets();
        let slots = sets * geometry.ways as usize;
        let mut state_counts = [0; PAGE_STATES];
        state_counts[PageState::Free as usize] = slots;
        SetAssocCache {
            geometry,
            sets,
            tags: vec![TAG_NONE; slots],
            states: vec![PageState::Free; slots],
            lru: (0..sets).map(|_| LruList::with_capacity(geometry.ways as usize)).collect(),
            stamps: vec![0; slots],
            tick: 0,
            map: FastMap::default(),
            free_per_set: vec![geometry.ways; sets],
            delta_per_set: vec![0; sets],
            state_counts,
            grouping,
        }
    }

    /// Build with simple page-range grouping (`group_pages` consecutive
    /// pages share a set; 1 = per-page hashing).
    pub fn new(geometry: CacheGeometry, group_pages: u64) -> Self {
        Self::new_grouped(geometry, SetGrouping::Pages(group_pages))
    }

    /// The cache shape.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total slots (sets × ways).
    pub fn slots(&self) -> usize {
        self.tags.len()
    }

    /// Set an LBA maps to.
    #[inline]
    pub fn set_of_lba(&self, lba: u64) -> usize {
        (mix64(self.grouping.key(lba)) % self.sets as u64) as usize
    }

    /// Set that owns a slot.
    #[inline]
    pub fn set_of_slot(&self, slot: u32) -> usize {
        slot as usize / self.geometry.ways as usize
    }

    #[inline]
    fn local(&self, slot: u32) -> usize {
        slot as usize % self.geometry.ways as usize
    }

    #[inline]
    fn global(&self, set: usize, local: usize) -> u32 {
        (set * self.geometry.ways as usize + local) as u32
    }

    /// Slot holding `lba`, if cached (does not touch recency).
    pub fn lookup(&self, lba: u64) -> Option<u32> {
        self.map.get(&lba).copied()
    }

    /// State of a slot.
    pub fn state(&self, slot: u32) -> PageState {
        self.states[slot as usize]
    }

    /// Tag (LBA) of a slot; `None` for unmapped slots.
    pub fn tag(&self, slot: u32) -> Option<u64> {
        let t = self.tags[slot as usize];
        (t != TAG_NONE).then_some(t)
    }

    /// Change a slot's state (keeps mapping and recency).
    pub fn set_state(&mut self, slot: u32, state: PageState) {
        debug_assert_ne!(state, PageState::Free, "use free_slot to free");
        debug_assert_ne!(self.states[slot as usize], PageState::Free, "slot not allocated");
        self.assign_state(slot, state);
    }

    /// The one place a slot's state is written: keeps the per-set free and
    /// delta counts, the whole-cache per-state counts and the set's recency
    /// list (unpinned slots only) in step with `states`.
    fn assign_state(&mut self, slot: u32, state: PageState) {
        let set = self.set_of_slot(slot);
        let old = std::mem::replace(&mut self.states[slot as usize], state);
        self.state_counts[old as usize] -= 1;
        self.state_counts[state as usize] += 1;
        match old {
            PageState::Free => self.free_per_set[set] -= 1,
            PageState::Delta => self.delta_per_set[set] -= 1,
            _ => {}
        }
        match state {
            PageState::Free => self.free_per_set[set] += 1,
            PageState::Delta => self.delta_per_set[set] += 1,
            _ => {}
        }
        match (listed(old), listed(state)) {
            (true, false) => {
                let local = self.local(slot);
                self.lru[set].remove(local);
            }
            (false, true) => self.link_by_stamp(set, slot),
            _ => {}
        }
    }

    /// Link a slot that just became unpinned where its stamp ranks it.
    fn link_by_stamp(&mut self, set: usize, slot: u32) {
        let local = self.local(slot);
        let base = set * self.geometry.ways as usize;
        let stamp = self.stamps[slot as usize];
        let list = &mut self.lru[set];
        // A fresh insert is the newest page of its set; a released one is
        // usually among the coldest, so look for its place from the LRU end.
        let newer = match list.front() {
            Some(mru) if self.stamps[base + mru] > stamp => {
                list.iter_lru().find(|&l| self.stamps[base + l] > stamp)
            }
            _ => None,
        };
        match newer {
            Some(newer) => list.insert_older(local, newer),
            None => list.push_front(local),
        }
    }

    /// Give a slot the newest stamp.
    fn stamp(&mut self, slot: u32) {
        self.tick += 1;
        self.stamps[slot as usize] = self.tick;
    }

    /// Mark a slot most-recently-used.
    pub fn touch(&mut self, slot: u32) {
        self.stamp(slot);
        if listed(self.states[slot as usize]) {
            let set = self.set_of_slot(slot);
            let local = self.local(slot);
            self.lru[set].touch(local);
        }
    }

    /// Remove a slot's LBA mapping while keeping it occupied (LeavO turns
    /// the current copy into a retained *old version* this way; the new
    /// version is then inserted under the same LBA elsewhere). Returns the
    /// detached LBA.
    ///
    /// # Panics
    /// Panics if the slot is unmapped.
    pub fn detach(&mut self, slot: u32) -> u64 {
        let tag = self.tags[slot as usize];
        assert_ne!(tag, TAG_NONE, "slot {slot} has no mapping to detach");
        self.map.remove(&tag);
        self.tags[slot as usize] = TAG_NONE;
        tag
    }

    /// Release a slot back to *free* (removing mapping and recency).
    pub fn free_slot(&mut self, slot: u32) {
        debug_assert_ne!(self.states[slot as usize], PageState::Free);
        let tag = self.tags[slot as usize];
        if tag != TAG_NONE {
            self.map.remove(&tag);
            self.tags[slot as usize] = TAG_NONE;
        }
        self.assign_state(slot, PageState::Free);
    }

    /// Insert `lba` into its set with the given state, evicting the LRU
    /// *unpinned* page whose state satisfies `evictable` if the set is full
    /// (pinned pages are never candidates — see the module docs).
    ///
    /// # Panics
    /// Panics if `lba` is already cached.
    pub fn insert(
        &mut self,
        lba: u64,
        state: PageState,
        evictable: impl Fn(PageState) -> bool,
    ) -> InsertOutcome {
        let set = self.set_of_lba(lba);
        // Fast path: a free slot. If the free count and the scan ever
        // disagree (an accounting bug), fall through to eviction rather
        // than panicking mid-insert.
        if self.free_per_set[set] > 0 {
            if let Some(slot) = self.find_free_in_set(set) {
                let fresh = self.occupy(slot, lba, state);
                assert!(fresh, "lba {lba} already cached");
                return InsertOutcome::Inserted { slot };
            }
            debug_assert!(false, "free count said so");
        }
        // Evict the LRU page with an evictable state: the list's first
        // node for the clean-only policies, LeavO steps over its `Dirty`
        // current copies.
        let victim_local = self.lru[set].iter_lru().find(|&l| {
            let s = self.states[self.global(set, l) as usize];
            evictable(s)
        });
        let Some(local) = victim_local else {
            return InsertOutcome::NoRoom;
        };
        let slot = self.global(set, local);
        let victim_lba = self.tags[slot as usize];
        let victim_state = self.states[slot as usize];
        self.free_slot(slot);
        let fresh = self.occupy(slot, lba, state);
        assert!(fresh, "lba {lba} already cached");
        InsertOutcome::Evicted { slot, victim_lba, victim_state }
    }

    /// Allocate an *unmapped* slot (a DEZ page) in the set that currently
    /// holds the fewest delta pages, if any set has a free slot.
    pub fn alloc_delta_slot(&mut self) -> Option<u32> {
        let set = (0..self.sets)
            .filter(|&s| self.free_per_set[s] > 0)
            .min_by_key(|&s| self.delta_per_set[s])?;
        // The filter above guarantees a free slot; if the accounting is
        // broken, report exhaustion instead of panicking.
        let slot = self.find_free_in_set(set)?;
        self.stamp(slot);
        self.assign_state(slot, PageState::Delta);
        Some(slot)
    }

    /// Recovery-path insert: place `lba` at a *specific* slot (the slot
    /// recorded in the persistent metadata log). The slot must be free.
    ///
    /// # Panics
    /// Panics if the slot is occupied or the LBA already mapped.
    pub fn insert_at(&mut self, slot: u32, lba: u64, state: PageState) {
        assert_eq!(self.states[slot as usize], PageState::Free, "slot {slot} occupied");
        let fresh = self.occupy(slot, lba, state);
        assert!(fresh, "lba {lba} already mapped");
    }

    /// Recovery-path DEZ placement: mark a *specific* free slot as a delta
    /// page.
    ///
    /// # Panics
    /// Panics if the slot is occupied.
    pub fn occupy_delta_at(&mut self, slot: u32) {
        assert_eq!(self.states[slot as usize], PageState::Free, "slot {slot} occupied");
        self.stamp(slot);
        self.assign_state(slot, PageState::Delta);
    }

    fn find_free_in_set(&self, set: usize) -> Option<u32> {
        let base = set * self.geometry.ways as usize;
        (0..self.geometry.ways as usize)
            .map(|l| (base + l) as u32)
            .find(|&s| self.states[s as usize] == PageState::Free)
    }

    /// Map `lba` to the free `slot` as the newest page of its set. False
    /// if `lba` was mapped already (the callers' panic).
    fn occupy(&mut self, slot: u32, lba: u64, state: PageState) -> bool {
        debug_assert_eq!(self.states[slot as usize], PageState::Free);
        debug_assert_ne!(state, PageState::Free);
        self.tags[slot as usize] = lba;
        self.stamp(slot);
        self.assign_state(slot, state);
        self.map.insert(lba, slot).is_none()
    }

    /// Slots in a given state across the whole cache (a running counter,
    /// O(1)).
    pub fn count_state(&self, state: PageState) -> usize {
        self.state_counts[state as usize]
    }

    /// Iterate `(slot, lba, state)` over all occupied, mapped slots.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (u32, u64, PageState)> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|&(_i, &t)| t != TAG_NONE)
            .map(|(i, &t)| (i as u32, t, self.states[i]))
    }

    /// The page a DEZ allocation evicts when no slot is free (§III-D: clean
    /// pages are always sacrificeable — the data is on RAID): the first
    /// *Clean* page in slot order, not the coldest, so the lowest sets are
    /// the ones that fill up with DEZ pages. `(slot, lba)`.
    pub fn dez_victim(&self) -> Option<(u32, u64)> {
        self.iter_mapped()
            .find(|&(_, _, s)| s == PageState::Clean)
            .map(|(slot, lba, _)| (slot, lba))
    }

    /// Free slots remaining (whole cache).
    pub fn free_slots(&self) -> u64 {
        self.free_per_set.iter().map(|&f| f as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(pages: u64, ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry { total_pages: pages, ways, page_size: 4096 }, 1)
    }

    /// The full-list directory the differential test holds the stamp-ordered
    /// one to.
    mod reference {
        #![allow(dead_code)]
        use super::super::{
            CacheGeometry, InsertOutcome, PageState, SetGrouping, PAGE_STATES, TAG_NONE,
        };
        use kdd_util::hash::{mix64, FastMap};
        use kdd_util::lru::LruList;

        /// The directory as it stood before pinned pages left the recency list
        /// (PR 18), verbatim but for the four fields the test reads: every
        /// occupied slot linked, the eviction walk stepping over whatever the
        /// predicate refuses.
        #[derive(Debug, Clone)]
        pub struct SetAssocCache {
            geometry: CacheGeometry,
            sets: usize,
            /// Per-slot tag (LBA) — `TAG_NONE` for free/unmapped (delta) slots.
            tags: Vec<u64>,
            pub(super) states: Vec<PageState>,
            /// Per-set LRU over *local* slot indices.
            pub(super) lru: Vec<LruList>,
            /// LBA → global slot.
            map: FastMap<u64, u32>,
            /// Per-set free-slot counts.
            pub(super) free_per_set: Vec<u32>,
            /// Per-set delta (DEZ) page counts.
            pub(super) delta_per_set: Vec<u32>,
            /// Slots in each state across the whole cache, indexed by
            /// `PageState as usize`; always sums to `slots()`.
            state_counts: [usize; PAGE_STATES],
            /// Set-placement grouping.
            grouping: SetGrouping,
        }

        impl SetAssocCache {
            /// Build an empty cache with the given set-placement grouping.
            pub fn new_grouped(geometry: CacheGeometry, grouping: SetGrouping) -> Self {
                let sets = geometry.sets();
                let slots = sets * geometry.ways as usize;
                let mut state_counts = [0; PAGE_STATES];
                state_counts[PageState::Free as usize] = slots;
                SetAssocCache {
                    geometry,
                    sets,
                    tags: vec![TAG_NONE; slots],
                    states: vec![PageState::Free; slots],
                    lru: (0..sets)
                        .map(|_| LruList::with_capacity(geometry.ways as usize))
                        .collect(),
                    map: FastMap::default(),
                    free_per_set: vec![geometry.ways; sets],
                    delta_per_set: vec![0; sets],
                    state_counts,
                    grouping,
                }
            }

            /// Build with simple page-range grouping (`group_pages` consecutive
            /// pages share a set; 1 = per-page hashing).
            pub fn new(geometry: CacheGeometry, group_pages: u64) -> Self {
                Self::new_grouped(geometry, SetGrouping::Pages(group_pages))
            }

            /// The cache shape.
            pub fn geometry(&self) -> &CacheGeometry {
                &self.geometry
            }

            /// Number of sets.
            pub fn sets(&self) -> usize {
                self.sets
            }

            /// Total slots (sets × ways).
            pub fn slots(&self) -> usize {
                self.tags.len()
            }

            /// Set an LBA maps to.
            #[inline]
            pub fn set_of_lba(&self, lba: u64) -> usize {
                (mix64(self.grouping.key(lba)) % self.sets as u64) as usize
            }

            /// Set that owns a slot.
            #[inline]
            pub fn set_of_slot(&self, slot: u32) -> usize {
                slot as usize / self.geometry.ways as usize
            }

            #[inline]
            fn local(&self, slot: u32) -> usize {
                slot as usize % self.geometry.ways as usize
            }

            #[inline]
            fn global(&self, set: usize, local: usize) -> u32 {
                (set * self.geometry.ways as usize + local) as u32
            }

            /// Slot holding `lba`, if cached (does not touch recency).
            pub fn lookup(&self, lba: u64) -> Option<u32> {
                self.map.get(&lba).copied()
            }

            /// State of a slot.
            pub fn state(&self, slot: u32) -> PageState {
                self.states[slot as usize]
            }

            /// Tag (LBA) of a slot; `None` for unmapped slots.
            pub fn tag(&self, slot: u32) -> Option<u64> {
                let t = self.tags[slot as usize];
                (t != TAG_NONE).then_some(t)
            }

            /// Change a slot's state (keeps mapping and recency).
            pub fn set_state(&mut self, slot: u32, state: PageState) {
                debug_assert_ne!(state, PageState::Free, "use free_slot to free");
                debug_assert_ne!(self.states[slot as usize], PageState::Free, "slot not allocated");
                self.assign_state(slot, state);
            }

            /// The one place a slot's state is written: keeps the per-set free and
            /// delta counts and the whole-cache per-state counts in step with
            /// `states`.
            fn assign_state(&mut self, slot: u32, state: PageState) {
                let set = self.set_of_slot(slot);
                let old = std::mem::replace(&mut self.states[slot as usize], state);
                self.state_counts[old as usize] -= 1;
                self.state_counts[state as usize] += 1;
                match old {
                    PageState::Free => self.free_per_set[set] -= 1,
                    PageState::Delta => self.delta_per_set[set] -= 1,
                    _ => {}
                }
                match state {
                    PageState::Free => self.free_per_set[set] += 1,
                    PageState::Delta => self.delta_per_set[set] += 1,
                    _ => {}
                }
            }

            /// Mark a slot most-recently-used.
            pub fn touch(&mut self, slot: u32) {
                let set = self.set_of_slot(slot);
                let local = self.local(slot);
                self.lru[set].touch(local);
            }

            /// Remove a slot's LBA mapping while keeping it occupied (LeavO turns
            /// the current copy into a retained *old version* this way; the new
            /// version is then inserted under the same LBA elsewhere). Returns the
            /// detached LBA.
            ///
            /// # Panics
            /// Panics if the slot is unmapped.
            pub fn detach(&mut self, slot: u32) -> u64 {
                let tag = self.tags[slot as usize];
                assert_ne!(tag, TAG_NONE, "slot {slot} has no mapping to detach");
                self.map.remove(&tag);
                self.tags[slot as usize] = TAG_NONE;
                tag
            }

            /// Release a slot back to *free* (removing mapping and recency).
            pub fn free_slot(&mut self, slot: u32) {
                let set = self.set_of_slot(slot);
                let local = self.local(slot);
                debug_assert_ne!(self.states[slot as usize], PageState::Free);
                let tag = self.tags[slot as usize];
                if tag != TAG_NONE {
                    self.map.remove(&tag);
                    self.tags[slot as usize] = TAG_NONE;
                }
                self.assign_state(slot, PageState::Free);
                self.lru[set].remove(local);
            }

            /// Insert `lba` into its set with the given state, evicting the LRU
            /// page whose state satisfies `evictable` if the set is full.
            ///
            /// # Panics
            /// Panics if `lba` is already cached.
            pub fn insert(
                &mut self,
                lba: u64,
                state: PageState,
                evictable: impl Fn(PageState) -> bool,
            ) -> InsertOutcome {
                assert!(!self.map.contains_key(&lba), "lba {lba} already cached");
                let set = self.set_of_lba(lba);
                // Fast path: a free slot. If the free count and the scan ever
                // disagree (an accounting bug), fall through to eviction rather
                // than panicking mid-insert.
                if self.free_per_set[set] > 0 {
                    if let Some(slot) = self.find_free_in_set(set) {
                        self.occupy(set, slot, lba, state);
                        return InsertOutcome::Inserted { slot };
                    }
                    debug_assert!(false, "free count said so");
                }
                // Evict the LRU page with an evictable state.
                let victim_local = self.lru[set].iter_lru().find(|&l| {
                    let s = self.states[self.global(set, l) as usize];
                    evictable(s)
                });
                let Some(local) = victim_local else {
                    return InsertOutcome::NoRoom;
                };
                let slot = self.global(set, local);
                let victim_lba = self.tags[slot as usize];
                let victim_state = self.states[slot as usize];
                self.free_slot(slot);
                self.occupy(set, slot, lba, state);
                InsertOutcome::Evicted { slot, victim_lba, victim_state }
            }

            /// Allocate an *unmapped* slot (a DEZ page) in the set that currently
            /// holds the fewest delta pages, if any set has a free slot.
            pub fn alloc_delta_slot(&mut self) -> Option<u32> {
                let set = (0..self.sets)
                    .filter(|&s| self.free_per_set[s] > 0)
                    .min_by_key(|&s| self.delta_per_set[s])?;
                // The filter above guarantees a free slot; if the accounting is
                // broken, report exhaustion instead of panicking.
                let slot = self.find_free_in_set(set)?;
                let local = self.local(slot);
                self.assign_state(slot, PageState::Delta);
                self.lru[set].push_front(local);
                Some(slot)
            }

            /// Recovery-path insert: place `lba` at a *specific* slot (the slot
            /// recorded in the persistent metadata log). The slot must be free.
            ///
            /// # Panics
            /// Panics if the slot is occupied or the LBA already mapped.
            pub fn insert_at(&mut self, slot: u32, lba: u64, state: PageState) {
                assert_eq!(self.states[slot as usize], PageState::Free, "slot {slot} occupied");
                assert!(!self.map.contains_key(&lba), "lba {lba} already mapped");
                let set = self.set_of_slot(slot);
                self.occupy(set, slot, lba, state);
            }

            /// Recovery-path DEZ placement: mark a *specific* free slot as a delta
            /// page.
            ///
            /// # Panics
            /// Panics if the slot is occupied.
            pub fn occupy_delta_at(&mut self, slot: u32) {
                assert_eq!(self.states[slot as usize], PageState::Free, "slot {slot} occupied");
                let set = self.set_of_slot(slot);
                let local = self.local(slot);
                self.assign_state(slot, PageState::Delta);
                self.lru[set].push_front(local);
            }

            fn find_free_in_set(&self, set: usize) -> Option<u32> {
                let base = set * self.geometry.ways as usize;
                (0..self.geometry.ways as usize)
                    .map(|l| (base + l) as u32)
                    .find(|&s| self.states[s as usize] == PageState::Free)
            }

            fn occupy(&mut self, set: usize, slot: u32, lba: u64, state: PageState) {
                debug_assert_eq!(self.states[slot as usize], PageState::Free);
                debug_assert_ne!(state, PageState::Free);
                self.tags[slot as usize] = lba;
                self.assign_state(slot, state);
                self.map.insert(lba, slot);
                let local = self.local(slot);
                self.lru[set].push_front(local);
            }

            /// Slots in a given state across the whole cache (a running counter,
            /// O(1)).
            pub fn count_state(&self, state: PageState) -> usize {
                self.state_counts[state as usize]
            }

            /// Iterate `(slot, lba, state)` over all occupied, mapped slots.
            pub fn iter_mapped(&self) -> impl Iterator<Item = (u32, u64, PageState)> + '_ {
                self.tags
                    .iter()
                    .enumerate()
                    .filter(|&(_i, &t)| t != TAG_NONE)
                    .map(|(i, &t)| (i as u32, t, self.states[i]))
            }

            /// Free slots remaining (whole cache).
            pub fn free_slots(&self) -> u64 {
                self.free_per_set.iter().map(|&f| f as u64).sum()
            }
        }
    }

    /// Every state a script may put a slot in.
    const OCCUPIED: [PageState; 5] = [
        PageState::Clean,
        PageState::Old,
        PageState::Delta,
        PageState::Dirty,
        PageState::OldVersion,
    ];

    /// Drive one seeded script of every mutating call through the
    /// directory and the full-list reference. The reference knows nothing
    /// of pinning, so it gets the rule spelled out in its predicate
    /// (`listed(s) && evictable(s)`); everything observable must then be
    /// equal after every step, and the new list must be the reference's
    /// with the pinned pages struck out.
    fn assert_directories_agree(ways: u32, sets: u64, seed: u64, steps: usize) {
        let g = CacheGeometry { total_pages: sets * ways as u64, ways, page_size: 4096 };
        let mut new = SetAssocCache::new(g, 1);
        let mut old = reference::SetAssocCache::new(g, 1);
        let slots = new.slots() as u64;
        let lbas = slots * 2;
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rand = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % n
        };
        for step in 0..steps {
            let slot = rand(slots) as u32;
            let lba = rand(lbas);
            let state = OCCUPIED[rand(5) as usize];
            let occupied = new.state(slot) != PageState::Free;
            let what = match rand(16) {
                0..=6 if new.lookup(lba).is_none() => {
                    let pred: fn(PageState) -> bool = match rand(3) {
                        0 => |s| s == PageState::Clean,
                        1 => |s| matches!(s, PageState::Clean | PageState::Dirty),
                        _ => |_| true,
                    };
                    let mapped = [PageState::Clean, PageState::Dirty, PageState::Old];
                    let state = mapped[rand(3) as usize];
                    let got = new.insert(lba, state, pred);
                    assert_eq!(
                        got,
                        old.insert(lba, state, |s| listed(s) && pred(s)),
                        "step {step}"
                    );
                    format!("insert {lba} {state:?} -> {got:?}")
                }
                7..=9 if occupied => {
                    new.touch(slot);
                    old.touch(slot);
                    format!("touch {slot}")
                }
                10..=12 if occupied => {
                    new.set_state(slot, state);
                    old.set_state(slot, state);
                    format!("set_state {slot} {state:?}")
                }
                13 if occupied => {
                    new.free_slot(slot);
                    old.free_slot(slot);
                    format!("free_slot {slot}")
                }
                14 if occupied && new.tag(slot).is_some() => {
                    assert_eq!(new.detach(slot), old.detach(slot), "step {step}");
                    format!("detach {slot}")
                }
                14 | 15 if !occupied && rand(2) == 0 => {
                    if new.lookup(lba).is_none() {
                        new.insert_at(slot, lba, state);
                        old.insert_at(slot, lba, state);
                    } else {
                        new.occupy_delta_at(slot);
                        old.occupy_delta_at(slot);
                    }
                    format!("recovery placement at {slot}")
                }
                _ => {
                    let got = new.alloc_delta_slot();
                    assert_eq!(got, old.alloc_delta_slot(), "step {step}");
                    format!("alloc_delta_slot -> {got:?}")
                }
            };
            let at = format!("ways {ways} seed {seed} step {step}: {what}");
            for l in 0..lbas {
                assert_eq!(new.lookup(l), old.lookup(l), "{at}: lookup {l}");
            }
            for s in 0..slots as u32 {
                assert_eq!(
                    (new.state(s), new.tag(s)),
                    (old.state(s), old.tag(s)),
                    "{at}: slot {s}"
                );
            }
            for s in OCCUPIED.into_iter().chain([PageState::Free]) {
                assert_eq!(new.count_state(s), old.count_state(s), "{at}: count {s:?}");
            }
            assert_eq!(new.free_per_set, old.free_per_set, "{at}");
            assert_eq!(new.delta_per_set, old.delta_per_set, "{at}");
            for set in 0..new.sets() {
                let unpinned: Vec<usize> = old.lru[set]
                    .iter_lru()
                    .filter(|&l| listed(old.states[set * ways as usize + l]))
                    .collect();
                assert_eq!(
                    new.lru[set].iter_lru().collect::<Vec<_>>(),
                    unpinned,
                    "{at}: set {set}"
                );
            }
        }
    }

    #[test]
    fn stamp_ordered_directory_matches_the_full_list_directory() {
        for seed in 0..24 {
            assert_directories_agree(1, 3, seed, 300);
            assert_directories_agree(4, 2, seed, 600);
        }
        for seed in 0..6 {
            assert_directories_agree(64, 2, seed, 2500);
        }
    }

    #[test]
    fn released_page_returns_at_its_old_rank() {
        // Clean → Old → Clean (the `reclaim_as_clean` and degrade paths):
        // the page comes back between its neighbours in recency, not at
        // either end.
        let mut c = cache(4, 4);
        for lba in 0..4 {
            c.insert(lba, PageState::Clean, |_| true);
        }
        let s1 = c.lookup(1).unwrap();
        c.set_state(s1, PageState::Old);
        c.set_state(s1, PageState::Clean);
        let evict = |c: &mut SetAssocCache, lba| match c
            .insert(lba, PageState::Clean, |s| s == PageState::Clean)
        {
            InsertOutcome::Evicted { victim_lba, .. } => victim_lba,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(evict(&mut c, 10), 0);
        assert_eq!(evict(&mut c, 11), 1, "released page kept its rank");
        assert_eq!(evict(&mut c, 12), 2);
        // A touch while pinned counts: the page returns as the newest.
        let s3 = c.lookup(3).unwrap();
        c.set_state(s3, PageState::Old);
        c.touch(s3);
        c.set_state(s3, PageState::Clean);
        assert_eq!(evict(&mut c, 13), 10);
        assert_eq!(evict(&mut c, 14), 11);
        assert_eq!(evict(&mut c, 15), 12);
        assert_eq!(evict(&mut c, 16), 3);
    }

    #[test]
    fn pinned_pages_are_not_candidates_whatever_the_predicate_says() {
        let mut c = cache(3, 3);
        c.insert(0, PageState::Old, |_| true);
        c.alloc_delta_slot().unwrap();
        c.insert(1, PageState::Dirty, |_| true);
        assert_eq!(c.insert(2, PageState::Clean, |s| s == PageState::Clean), InsertOutcome::NoRoom);
        match c.insert(2, PageState::Clean, |_| true) {
            InsertOutcome::Evicted { victim_lba, victim_state, .. } => {
                assert_eq!((victim_lba, victim_state), (1, PageState::Dirty));
            }
            other => panic!("unexpected {other:?}"),
        }
        let s2 = c.lookup(2).unwrap();
        c.set_state(s2, PageState::Old);
        assert_eq!(c.insert(3, PageState::Clean, |_| true), InsertOutcome::NoRoom);
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = cache(64, 8);
        match c.insert(42, PageState::Clean, |_| true) {
            InsertOutcome::Inserted { slot } => {
                assert_eq!(c.lookup(42), Some(slot));
                assert_eq!(c.state(slot), PageState::Clean);
                assert_eq!(c.tag(slot), Some(42));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.count_state(PageState::Clean), 1);
    }

    #[test]
    fn lru_eviction_order_within_set() {
        let mut c = cache(4, 4); // one set of 4 ways
                                 // All lbas map to set 0.
        for lba in 0..4 {
            c.insert(lba, PageState::Clean, |_| true);
        }
        // Touch 0 so 1 becomes LRU.
        let s0 = c.lookup(0).unwrap();
        c.touch(s0);
        match c.insert(100, PageState::Clean, |s| s == PageState::Clean) {
            InsertOutcome::Evicted { victim_lba, .. } => assert_eq!(victim_lba, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.lookup(1), None);
        assert!(c.lookup(0).is_some());
    }

    #[test]
    fn non_evictable_states_are_skipped() {
        let mut c = cache(2, 2);
        c.insert(0, PageState::Old, |_| true);
        c.insert(1, PageState::Clean, |_| true);
        // Only Clean evictable: victim must be 1 even though 0 is LRU.
        match c.insert(2, PageState::Clean, |s| s == PageState::Clean) {
            InsertOutcome::Evicted { victim_lba, victim_state, .. } => {
                assert_eq!(victim_lba, 1);
                assert_eq!(victim_state, PageState::Clean);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Now the set holds Old + Clean(2); nothing evictable if only
        // OldVersion allowed.
        assert_eq!(
            c.insert(3, PageState::Clean, |s| s == PageState::OldVersion),
            InsertOutcome::NoRoom
        );
    }

    #[test]
    fn free_slot_recycles() {
        let mut c = cache(2, 2);
        c.insert(0, PageState::Clean, |_| true);
        let s = c.lookup(0).unwrap();
        c.free_slot(s);
        assert_eq!(c.lookup(0), None);
        assert_eq!(c.count_state(PageState::Free), 2);
        assert_eq!(c.free_slots(), 2);
        c.insert(5, PageState::Clean, |_| true);
        assert!(c.lookup(5).is_some());
    }

    #[test]
    fn delta_slots_spread_evenly() {
        let mut c = cache(64, 8); // 8 sets
        let mut per_set = vec![0u32; c.sets()];
        for _ in 0..32 {
            let slot = c.alloc_delta_slot().unwrap();
            per_set[c.set_of_slot(slot)] += 1;
        }
        let max = *per_set.iter().max().unwrap();
        let min = *per_set.iter().min().unwrap();
        assert!(max - min <= 1, "delta pages unbalanced: {per_set:?}");
        assert_eq!(c.count_state(PageState::Delta), 32);
    }

    #[test]
    fn delta_alloc_exhausts_gracefully() {
        let mut c = cache(4, 2);
        for _ in 0..4 {
            assert!(c.alloc_delta_slot().is_some());
        }
        assert!(c.alloc_delta_slot().is_none());
    }

    #[test]
    fn state_transitions_update_delta_counts() {
        let mut c = cache(8, 8);
        c.insert(1, PageState::Clean, |_| true);
        let s = c.lookup(1).unwrap();
        c.set_state(s, PageState::Old);
        assert_eq!(c.state(s), PageState::Old);
        assert_eq!(c.count_state(PageState::Old), 1);
        // Old → freed.
        c.free_slot(s);
        assert_eq!(c.count_state(PageState::Old), 0);
    }

    #[test]
    fn grouping_maps_rows_together() {
        let g = CacheGeometry { total_pages: 1024, ways: 16, page_size: 4096 };
        let c = SetAssocCache::new(g, 64); // 64-page stripes share a set
        for stripe in 0..8u64 {
            let base = stripe * 64;
            let set = c.set_of_lba(base);
            for off in 0..64 {
                assert_eq!(c.set_of_lba(base + off), set, "stripe {stripe} off {off}");
            }
        }
    }

    #[test]
    fn iter_mapped_reports_contents() {
        let mut c = cache(8, 8);
        c.insert(3, PageState::Clean, |_| true);
        c.insert(9, PageState::Old, |_| true);
        c.alloc_delta_slot(); // unmapped, must not appear
        let mut v: Vec<(u64, PageState)> = c.iter_mapped().map(|(_, l, s)| (l, s)).collect();
        v.sort();
        assert_eq!(v, vec![(3, PageState::Clean), (9, PageState::Old)]);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = cache(8, 8);
        c.insert(1, PageState::Clean, |_| true);
        c.insert(1, PageState::Clean, |_| true);
    }
}
