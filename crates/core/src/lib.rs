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
//! Two implementations share the same algorithmic core:
//!
//! * [`policy::KddPolicy`] — the *accounting* implementation driving the
//!   trace simulations (Figures 4–8): exact cache state, counted I/O;
//! * [`engine::KddEngine`] — the *prototype-style* implementation
//!   operating on real bytes against a real [`kdd_raid::RaidArray`] and
//!   [`kdd_blockdev::SsdDevice`], with genuine XOR deltas, compression,
//!   a serialised metadata log, and full §III-E failure recovery (power
//!   loss, SSD loss, HDD loss).
//!
//! Supporting machinery: [`metalog`] (the circular persistent metadata
//! log), [`staging`] (the NVRAM delta staging buffer), [`config`].

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod metalog;
pub mod policy;
pub mod staging;

pub use config::KddConfig;
pub use engine::{KddEngine, WriteRequest};
pub use metalog::{CommitBatch, KeyEntry, LogEntry, MetaLog, PartitionTooSmall};
pub use policy::KddPolicy;
pub use staging::{DeltaPayload, StagingBuffer};

/// What [`two_smallest_by_key`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TwoSmallest<T> {
    /// `(smallest, runner-up)`: elements 0 and 1 of a stable sort by key.
    pub(crate) pair: (T, T),
    /// Keys of elements 2 and 3 of that sort, `None` past the end.
    pub(crate) rest: [Option<u32>; 2],
}

/// The two items with the smallest keys, ties going to the item met first
/// — exactly elements 0 and 1 of a stable `sort_by_key` over the same
/// sequence, in one pass and no allocation — together with the keys of the
/// next two. DEZ compaction picks its merge victims with it in both
/// implementations; the two further keys are what [`MergeBound::merged`]
/// needs to stay exact across a merge.
pub(crate) fn two_smallest_by_key<T: Copy>(
    items: impl Iterator<Item = T>,
    key: impl Fn(&T) -> u32,
) -> Option<TwoSmallest<T>> {
    // The four smallest so far, in stable-sort order.
    let mut top: [Option<(u32, T)>; 4] = [None; 4];
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
}

impl MergeBound {
    /// Whether no two pages fit in `page_bytes` once a merged page's
    /// `overhead` bytes are counted (the engine's page header and two
    /// directory records; nothing in the counting model).
    pub(crate) fn rules_out_merge(self, overhead: u32, page_bytes: u32) -> bool {
        self.pair.saturating_add(overhead) > page_bytes
    }

    /// A page now holds `live` bytes: it is new, or some of its deltas were
    /// invalidated. Any pair it forms is at least `live` plus the old `min`.
    pub(crate) fn lower(&mut self, live: u32) {
        self.pair = self.pair.min(live.saturating_add(self.min));
        self.min = self.min.min(live);
    }

    /// A scan found `smallest` and `runner_up` and they do not merge.
    pub(crate) fn scanned(&mut self, smallest: u32, runner_up: u32) {
        *self = MergeBound { min: smallest, pair: smallest.saturating_add(runner_up) };
    }

    /// The scan's two smallest pages became one of `merged` bytes; `rest`
    /// are the keys [`two_smallest_by_key`] reported behind them. The new
    /// two smallest are among those three, so the bound stays exact.
    pub(crate) fn merged(&mut self, merged: u32, rest: [Option<u32>; 2]) {
        let [third, fourth] = rest.map(|key| key.unwrap_or(u32::MAX));
        let min = merged.min(third);
        let second = merged.max(third).min(fourth);
        *self = MergeBound { min, pair: min.saturating_add(second) };
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::indexing_slicing)]
    use super::*;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `MergeBound` against a recount over a plain list of page sizes
        /// under random adds, shrinks, removals and compaction scans: never
        /// above the true values, exact right after a scan or a merge, and
        /// so never ruling out a merge that fits — a pair that fills the
        /// page to the byte included.
        #[test]
        fn merge_bound_never_exceeds_a_recount(
            ops in proptest::collection::vec((0u8..8, 0usize..64, 0u32..40), 1..120),
        ) {
            const PAGE: u32 = 48;
            let mut pages: Vec<u32> = Vec::new();
            let mut bound = MergeBound::default();
            for (op, at, bytes) in ops {
                let mut exact = false;
                match op {
                    0..=2 => {
                        pages.push(bytes);
                        bound.lower(bytes);
                    }
                    3 | 4 if !pages.is_empty() => {
                        let at = at % pages.len();
                        let page = &mut pages[at];
                        *page = (*page).min(bytes);
                        bound.lower(*page);
                    }
                    5 if !pages.is_empty() => {
                        pages.swap_remove(at % pages.len());
                    }
                    _ => {
                        // One turn of `compact_dez`'s loop.
                        let scan = two_smallest_by_key(pages.iter().copied().enumerate(), |&(_, b)| b);
                        if let Some(TwoSmallest { pair: ((dst, db), (src, sb)), rest }) = scan {
                            exact = true;
                            if db + sb > PAGE {
                                bound.scanned(db, sb);
                            } else {
                                pages[dst] = db + sb;
                                pages.swap_remove(src);
                                bound.merged(db + sb, rest);
                            }
                        }
                    }
                }
                let mut sorted = pages.clone();
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
