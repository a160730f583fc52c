//! KDD — Keeping Data and Deltas in an endurable SSD cache.
//!
//! The primary contribution of the reproduced paper (ICPP 2016): an SSD
//! cache-management scheme for parity-based RAID that removes the small
//! write penalty on write hits (data is dispatched to RAID without a
//! parity update; stale parity is repaired by a background cleaner) while
//! extending SSD lifetime (only the compressed XOR *delta* of the old and
//! new page versions is written to flash, packed compactly into Delta
//! Zone pages).
//!
//! §III exists twice here, and the two copies share what this list says —
//! no more:
//!
//! * [`policy::KddPolicy`] — the *accounting* implementation driving the
//!   trace simulations (Figures 4–8): exact cache state, counted I/O;
//! * [`engine::KddEngine`] — the *prototype-style* implementation
//!   operating on real bytes against a real [`kdd_raid::RaidArray`] and
//!   [`kdd_blockdev::SsdDevice`], with genuine XOR deltas, compression,
//!   a serialised metadata log, and full §III-E failure recovery (power
//!   loss, SSD loss, HDD loss).
//!
//! **One definition, used by both:** the DEZ index (`dez::DezIndex`):
//! each old page's delta location, its invalidate/re-stage, commit (`list`
//! → log → `go_live`) and merge calls, each page's deltas by lba with their
//! live bytes, and the compaction bound; the compaction planner
//! (`plan_merge`, here); and §III-D's background work (`cleaner`) over the
//! state both keep alike (`cleaner::Zones`): the governor, oldest-first
//! cleaning (every pass, bounded or over every row), a row's plan (repair
//! while stale — reconstruct-write iff the whole row is cached — then
//! reclaim, re-pending what a failed step left), the NoRoom reclaim around
//! a clean fill (which counts no cleaning pass), compaction and
//! invalidation. Beneath them: [`kdd_cache::policies::PendingRows`], the
//! directory ([`kdd_cache::setassoc::SetAssocCache`]), [`MetaLog`],
//! [`StagingBuffer`].
//!
//! **Still per copy:** the I/O under `cleaner::CleanerIo`, with the DEZ
//! page format (`MERGE_OVERHEAD`); the write paths; the commit; and
//! `alloc_dez_slot`. Where the copies part is checked, not listed: the
//! test module `differential.rs` replays traces through both and names
//! each parting.
//!
//! Supporting machinery: [`metalog`] (the circular persistent metadata
//! log), [`staging`] (the NVRAM delta staging buffer), [`config`].

#![warn(missing_docs)]
// No unwinding outside tests: the I/O path fails through typed errors,
// never mid-stripe (DESIGN.md "Static analysis & invariants").
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod cleaner;
pub mod config;
mod dez;
pub mod engine;
pub mod metalog;
pub mod policy;
pub mod staging;

pub use config::KddConfig;
pub use engine::{KddEngine, WriteRequest};
pub use metalog::{CommitBatch, Commits, KeyEntry, LogEntry, MetaLog, PartitionTooSmall};
pub use policy::{KddPolicy, KddVariant};
pub use staging::{DeltaPayload, StagingBuffer};

/// What [`two_smallest_by_key`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TwoSmallest<T, K> {
    /// `(smallest, runner-up)`: elements 0 and 1 of a stable sort by key.
    pair: (T, T),
    /// Keys of elements 2 and 3 of that sort, `None` past the end.
    rest: [Option<K>; 2],
}

/// The two items with the smallest keys, ties going to the item met first
/// — exactly elements 0 and 1 of a stable `sort_by_key` over the same
/// sequence, in one pass and no allocation — together with the keys of the
/// next two. DEZ compaction picks its merge victims with it in both
/// implementations; the two further keys are what [`MergeBound::merged`]
/// needs to stay exact across a merge.
fn two_smallest_by_key<T: Copy, K: Ord + Copy>(
    items: impl Iterator<Item = T>,
    key: impl Fn(&T) -> K,
) -> Option<TwoSmallest<T, K>> {
    // The four smallest so far, in stable-sort order.
    let mut top: [Option<(K, T)>; 4] = [None; 4];
    for item in items {
        let mut carry = (key(&item), item);
        if matches!(top, [.., Some((fourth, _))] if carry.0 >= fourth) {
            continue; // the usual case: not among the four
        }
        // In front of the first kept item with a larger key, which moves
        // back one place together with everything behind it.
        let mut shifting = false;
        for kept in &mut top {
            match kept {
                Some(kept) if shifting || carry.0 < kept.0 => {
                    std::mem::swap(kept, &mut carry);
                    shifting = true;
                }
                Some(_) => {}
                None => {
                    *kept = Some(carry);
                    break;
                }
            }
        }
    }
    let [first, second, third, fourth] = top;
    let rest = [third, fourth].map(|kept| kept.map(|(key, _)| key));
    Some(TwoSmallest { pair: (first?.1, second?.1), rest })
}

/// What DEZ compaction knows about its next victim scan without running
/// it: `min` is a lower bound on every DEZ page's live bytes, `pair` on the
/// live bytes of any two pages together. While `pair` alone overflows a
/// page no merge fits and the scan — a pass over every DEZ page that would
/// only re-prove it — is skipped. `0, 0` ("unknown", the `Default`) never
/// skips. The bounds are exact after a scan, and every event that can
/// lower the true values lowers them in O(1); a page that disappears only
/// raises the true values, so it is ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MergeBound {
    min: u32,
    pair: u32,
    /// Times [`plan_merge`] got past the pressure test, how many of those
    /// the bound answered without a scan, and merges planned.
    pub(crate) entries: u32,
    pub(crate) skips: u32,
    pub(crate) merges: u32,
}

impl MergeBound {
    /// Whether no two pages fit in `page_bytes` once a merged page's
    /// `overhead` bytes are counted (the engine's page header and two
    /// directory records; nothing in the counting model).
    fn rules_out_merge(self, overhead: u32, page_bytes: u32) -> bool {
        self.pair.saturating_add(overhead) > page_bytes
    }

    /// The same counters with the bound back at "unknown".
    pub(crate) fn unknown(self) -> Self {
        MergeBound { min: 0, pair: 0, ..self }
    }

    /// A page now holds `live` bytes: it is new, or some of its deltas were
    /// invalidated. Any pair it forms is at least `live` plus the old `min`.
    pub(crate) fn lower(&mut self, live: u32) {
        self.pair = self.pair.min(live.saturating_add(self.min));
        self.min = self.min.min(live);
    }

    /// A scan found `smallest` and `runner_up` and they do not merge.
    fn scanned(&mut self, smallest: u32, runner_up: u32) {
        (self.min, self.pair) = (smallest, smallest.saturating_add(runner_up));
    }

    /// The two pages of a [`Merge`] became one of `merged` bytes; `rest` is
    /// the plan's. The new two smallest are among those three, so the
    /// bound stays exact.
    pub(crate) fn merged(&mut self, merged: u32, rest: [Option<u32>; 2]) {
        let [third, fourth] = rest.map(|key| key.unwrap_or(u32::MAX));
        let min = merged.min(third);
        let second = merged.max(third).min(fourth);
        (self.min, self.pair) = (min, min.saturating_add(second));
    }
}

/// One turn of DEZ compaction, as [`plan_merge`] decided it: repack the
/// live deltas of page `src` into page `dst` and free `src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Merge {
    /// The emptiest page and the runner-up, by live bytes, then slot.
    pub(crate) dst: u32,
    pub(crate) src: u32,
    /// Live bytes and live deltas of the two together.
    pub(crate) live: u32,
    pub(crate) deltas: usize,
    /// For [`MergeBound::merged`], once the merge has happened.
    pub(crate) rest: [Option<u32>; 2],
}

/// The head of the compaction loop (§III-C's log-structured DEZ, pressure
/// driven), shared by both implementations: with at least four pages
/// (`n_pages`) holding `live_total` bytes at under 85 % utilisation, the
/// two emptiest of `pages` — `(slot, live bytes, live deltas)` each, in any
/// order, ties going to the lower slot — if one page holds both.
/// A merged page costs `overhead.0` bytes plus `overhead.1` per delta on
/// top of the payloads: nothing in the counting model, a 2-byte header and
/// 12-byte directory records in the engine. `bound` skips the scan while it
/// proves nothing merges, and learns from every scan that runs.
pub(crate) fn plan_merge(
    n_pages: u64,
    live_total: u64,
    page_bytes: u32,
    overhead: (u32, u32),
    bound: &mut MergeBound,
    pages: impl Iterator<Item = (u32, u32, usize)> + Clone,
) -> Option<Merge> {
    if n_pages < 4 || live_total * 100 >= n_pages * u64::from(page_bytes) * 85 {
        return None;
    }
    let (per_page, per_delta) = overhead;
    let scan = || two_smallest_by_key(pages.clone(), |&(slot, live, _)| (live, slot));
    let fits = |found: &TwoSmallest<(u32, u32, usize), (u32, u32)>| {
        let ((_, db, dn), (_, sb, sn)) = found.pair;
        let records = (dn + sn) as u64 * u64::from(per_delta);
        u64::from(per_page) + records + u64::from(db) + u64::from(sb) <= u64::from(page_bytes)
    };
    bound.entries += 1;
    // The bound knows payload bytes only; a merged page also holds at least
    // one delta of each source — so the skip is sound, and conservative.
    if bound.rules_out_merge(per_page + 2 * per_delta, page_bytes) {
        bound.skips += 1;
        debug_assert!(
            !scan().is_some_and(|found| fits(&found)),
            "bound skipped a scan that merges"
        );
        return None;
    }
    let found = scan()?;
    let TwoSmallest { pair: ((dst, db, dn), (src, sb, sn)), rest } = found;
    if !fits(&found) {
        bound.scanned(db, sb);
        return None; // nothing merges; utilisation is as good as it gets
    }
    bound.merges += 1;
    let rest = rest.map(|key| key.map(|(live, _)| live));
    Some(Merge { dst, src, live: db + sb, deltas: dn + sn, rest })
}

// A sharded engine will run both implementations N-way, one per thread,
// so their state must stay `Send`: an `Rc` (or anything else that is not)
// anywhere inside fails the build here with E0277.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<KddEngine>();
    assert_send::<KddPolicy>();
};

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    #![allow(clippy::indexing_slicing, clippy::cast_possible_truncation)]
    use super::*;

    const PAGE: u32 = 48;
    /// The counting model's overhead and (scaled to `PAGE`) the engine's.
    const OVERHEADS: [(u32, u32); 2] = [(0, 0), (2, 4)];

    /// `plan_merge` over a plain list of `(live bytes, deltas)` pages,
    /// keyed by position, with the pressure inputs recounted.
    fn plan(pages: &[(u32, usize)], overhead: (u32, u32), bound: &mut MergeBound) -> Option<Merge> {
        let live_total = pages.iter().map(|&(b, _)| u64::from(b)).sum();
        let keyed = pages.iter().enumerate().map(|(i, &(b, n))| (i as u32, b, n));
        plan_merge(pages.len() as u64, live_total, PAGE, overhead, bound, keyed)
    }

    #[test]
    fn plan_merge_pressure_and_fit_edges() {
        for overhead @ (per_page, per_delta) in OVERHEADS {
            let plan = |pages: &[(u32, usize)]| plan(pages, overhead, &mut MergeBound::default());
            // Two one-delta pages that fill a merged page to the byte, met
            // behind two larger ones: they merge, the earlier one first.
            let half = (PAGE - per_page - 2 * per_delta) / 2;
            let exact = [(30, 1), (half, 1), (31, 1), (half, 1)];
            let merge = plan(&exact).expect("an exact fit merges");
            assert_eq!((merge.dst, merge.src, merge.live, merge.deltas), (1, 3, 2 * half, 2));
            assert_eq!(merge.rest, [Some(30), Some(31)]);
            // One byte, or (where records cost anything) one delta, too many.
            assert_eq!(plan(&[(30, 1), (half + 1, 1), (31, 1), (half, 1)]), None);
            assert_eq!(plan(&[(30, 1), (half, 2), (31, 1), (half, 1)]).is_some(), per_delta == 0);
            // Fewer than four pages never compact, however empty.
            assert_eq!(plan(&[(1, 1), (1, 1), (1, 1)]), None);
            // 85 % utilisation is "full enough", to the byte: 816 of 20 × 48
            // bytes is on the line, 815 is under it.
            let mut pages = vec![(0, 1); 3];
            pages.extend([(PAGE, 1); 17]);
            assert_eq!(plan(&pages), None);
            pages[3].0 -= 1;
            assert!(plan(&pages).is_some());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `MergeBound` and `plan_merge` against a recount over a plain
        /// list of pages under random adds, shrinks, removals and
        /// compaction turns, with either overhead: the bound is never above
        /// the true values, exact right after a scan or a merge, and so
        /// never rules out a merge that fits; the plan is the first two
        /// pages of a stable sort by live bytes exactly when the list is
        /// under pressure and one page holds them both.
        #[test]
        fn merge_bound_never_exceeds_a_recount(
            ops in proptest::collection::vec((0u8..8, 0usize..64, 0u32..40), 1..120),
            engine_overhead in 0usize..2,
        ) {
            let overhead @ (per_page, per_delta) = OVERHEADS[engine_overhead];
            let needs = |live: u32, deltas: usize| per_page + deltas as u32 * per_delta + live;
            let mut pages: Vec<(u32, usize)> = Vec::new();
            let mut bound = MergeBound::default();
            for (op, at, bytes) in ops {
                let mut exact = false;
                match op {
                    0..=2 => {
                        pages.push((bytes, 1));
                        bound.lower(bytes);
                    }
                    3 | 4 if !pages.is_empty() => {
                        let at = at % pages.len();
                        let page = &mut pages[at];
                        page.0 = page.0.min(bytes);
                        bound.lower(page.0);
                    }
                    5 if !pages.is_empty() => {
                        pages.swap_remove(at % pages.len());
                    }
                    _ => {
                        // One turn of `cleaner::compact`'s loop.
                        let mut sorted: Vec<usize> = (0..pages.len()).collect();
                        sorted.sort_by_key(|&i| pages[i].0);
                        let live_total: u32 = pages.iter().map(|&(b, _)| b).sum();
                        let pressed = pages.len() >= 4
                            && live_total * 100 < pages.len() as u32 * PAGE * 85;
                        let want = match sorted[..] {
                            [dst, src, ..] if pressed => {
                                let (live, deltas) =
                                    (pages[dst].0 + pages[src].0, pages[dst].1 + pages[src].1);
                                (needs(live, deltas) <= PAGE).then_some((dst, src, live, deltas))
                            }
                            _ => None,
                        };
                        let before = bound;
                        let got = plan(&pages, overhead, &mut bound);
                        let got_fields =
                            got.map(|m| (m.dst as usize, m.src as usize, m.live, m.deltas));
                        proptest::prop_assert_eq!(got_fields, want);
                        proptest::prop_assert_eq!(bound.entries - before.entries, u32::from(pressed));
                        proptest::prop_assert_eq!(bound.merges - before.merges, u32::from(got.is_some()));
                        exact = pressed && bound.skips == before.skips;
                        if let Some(Merge { dst, src, live, deltas, rest }) = got {
                            pages[dst as usize] = (live, deltas);
                            pages.swap_remove(src as usize);
                            bound.merged(live, rest);
                        }
                    }
                }
                let mut sorted: Vec<u32> = pages.iter().map(|&(b, _)| b).collect();
                sorted.sort_unstable();
                if let [smallest, runner_up, ..] = sorted[..] {
                    let pair = smallest + runner_up;
                    proptest::prop_assert!(bound.min <= smallest && bound.pair <= pair);
                    if exact {
                        proptest::prop_assert_eq!((bound.min, bound.pair), (smallest, pair));
                    }
                    proptest::prop_assert!(!bound.rules_out_merge(0, PAGE) || pair > PAGE);
                    proptest::prop_assert!(!bound.rules_out_merge(2, PAGE) || pair + 2 > PAGE);
                }
            }
        }
    }
}
