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

/// The two items with the smallest keys, `(smallest, runner-up)`, ties
/// going to the item met first — exactly elements 0 and 1 of a stable
/// `sort_by_key` over the same sequence, in one pass and no allocation.
/// DEZ compaction picks its merge victims with it in both implementations.
pub(crate) fn two_smallest_by_key<T: Copy>(
    items: impl Iterator<Item = T>,
    key: impl Fn(&T) -> u32,
) -> Option<(T, T)> {
    let mut best: Option<T> = None;
    let mut second: Option<T> = None;
    for item in items {
        match best {
            Some(b) if key(&item) >= key(&b) => {
                if second.is_none_or(|s| key(&item) < key(&s)) {
                    second = Some(item);
                }
            }
            _ => {
                second = best;
                best = Some(item);
            }
        }
    }
    best.zip(second)
}
