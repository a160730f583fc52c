//! The circular persistent metadata log (§III-B/C).
//!
//! "KDD organizes the metadata partition on SSD as a circular persistent
//! log. Two counters are maintained to indicate the head and the tail of
//! the log space. New mapping entries are first accumulated in a metadata
//! buffer [in NVRAM]. When there are enough entries in the buffer to fill
//! a page, they are written to the tail of the log... KDD reclaims
//! metadata pages from the head of the log... Valid mapping entries in the
//! candidate page are reinserted to the metadata buffer."
//!
//! This module implements that machinery generically over the entry type:
//! the trace-driven simulator logs bare keys, the prototype engine logs
//! full serialisable mapping entries. The garbage-collection cost this log
//! produces — live entries from reclaimed head pages being rewritten at
//! the tail — is exactly what Figure 4 sweeps against the partition size.
//!
//! Entry coalescing happens in the NVRAM buffer ("an entry in the metadata
//! buffer can be overwritten by a new entry having the same `lba_daz`
//! value", §III-C) and implicitly in the log itself: only the newest entry
//! per key is *valid*; GC drops the rest. A tombstone (an entry whose
//! `state` is *free*, written when a DAZ page is reclaimed) is valid until
//! it reaches the head, at which point it can be dropped entirely — there
//! is no older entry left for it to shadow.
//!
//! Validity is tracked by **position**. Every entry that enters the buffer
//! takes the next absolute position (a count of buffer appends since the
//! log was created); the buffer is a FIFO whose front sits at
//! `buffer_base`, a page cut moves the first *n* buffered entries — and
//! their positions — into a page that remembers where it starts, and one
//! map holds `key → position of the newest entry`. An entry is *buffered*
//! iff its position is `>= buffer_base` (coalescing overwrites it in
//! place, position unchanged) and a logged entry is *valid* iff the map
//! still names its position — so a cut, and a batch that is drained but
//! not yet appended while GC makes room for it, need no bookkeeping at all.

// Indexing and narrowing casts here are audited: a position minus
// `buffer_base` (or a page's `start`) is an offset into that in-memory
// buffer (page). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd_util::hash::FastMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// An entry the log can store.
pub trait LogEntry: Clone {
    /// The key entries coalesce on (the DAZ page's RAID address).
    fn key(&self) -> u64;

    /// Whether this entry marks the key as freed (a tombstone).
    fn is_tombstone(&self) -> bool;
}

/// Minimal entry for the accounting simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyEntry {
    /// Coalescing key.
    pub key: u64,
    /// Free-marker flag.
    pub tombstone: bool,
}

impl LogEntry for KeyEntry {
    fn key(&self) -> u64 {
        self.key
    }

    fn is_tombstone(&self) -> bool {
        self.tombstone
    }
}

/// The log wedged: every page the collector reclaims is still fully live,
/// so cutting pages frees no room. The metadata partition is too small for
/// the live mapping set and must grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionTooSmall {
    /// Size of the partition that could not hold the mappings.
    pub partition_pages: u64,
}

impl std::fmt::Display for PartitionTooSmall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "metadata partition of {} pages is too small for the live mapping set \
             (GC cannot make progress); grow the partition",
            self.partition_pages
        )
    }
}

impl std::error::Error for PartitionTooSmall {}

/// The page commits one call produced, lent from a vector the log keeps:
/// dropping it, consumed or not, leaves that vector empty for the next call.
pub type Commits<'a, E> = std::vec::Drain<'a, CommitBatch<E>>;

/// A page's worth of entries committed to flash: the caller must write it
/// at partition-relative page index `slot`.
#[derive(Debug, Clone)]
pub struct CommitBatch<E> {
    /// Page index within the metadata partition (`seq % partition_pages`).
    pub slot: u64,
    /// Monotonic page sequence number.
    pub seq: u64,
    /// The entries to serialise into the page. They exist once: the log's
    /// own page and the in-flight redo copy share them with this batch.
    pub entries: Arc<[E]>,
}

#[derive(Debug, Clone)]
struct MetaPage<E> {
    seq: u64,
    /// Position of `entries[0]`; `entries[i]` sits at `start + i`.
    start: u64,
    entries: Arc<[E]>,
}

/// A reclaimed head page's slice that nothing else holds, for the next full
/// cut to write over instead of allocating one. A clone starts without it.
#[derive(Debug)]
struct SparePage<E>(Option<Arc<[E]>>);

impl<E> Clone for SparePage<E> {
    fn clone(&self) -> Self {
        SparePage(None)
    }
}

/// The circular log with its NVRAM staging buffer.
///
/// # Examples
///
/// ```
/// use kdd_core::metalog::{KeyEntry, MetaLog};
///
/// let mut log = MetaLog::new(8, 4); // 8-page partition, 4 entries/page
/// for lba in 0..4u64 {
///     let commits = log.push(KeyEntry { key: lba, tombstone: false }).unwrap();
///     if lba == 3 {
///         assert_eq!(commits.len(), 1, "page filled and committed");
///     }
/// }
/// // Crash recovery: replay yields exactly the live mappings.
/// assert_eq!(log.recover_live().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct MetaLog<E: LogEntry> {
    partition_pages: u64,
    entries_per_page: usize,
    head: u64,
    tail: u64,
    /// Buffered entries, oldest first; `buffer[i]` sits at position
    /// `buffer_base + i`.
    buffer: VecDeque<E>,
    /// Position of the buffer's front: the entries cut into pages so far.
    buffer_base: u64,
    pages: VecDeque<MetaPage<E>>,
    /// Key → position of its newest entry (buffered or logged).
    latest: FastMap<u64, u64>,
    entries_pushed: u64,
    /// When enabled, committed-but-unconfirmed batches are retained (an
    /// NVRAM-resident redo list) so recovery can tolerate a torn or lost
    /// tail page: the caller confirms each batch once the flash write
    /// completed.
    track_inflight: bool,
    inflight: Vec<CommitBatch<E>>,
    /// The current call's page commits; empty between calls.
    commits: Vec<CommitBatch<E>>,
    spare: SparePage<E>,
}

impl<E: LogEntry> MetaLog<E> {
    /// Create a log over `partition_pages` flash pages, packing
    /// `entries_per_page` entries per page.
    ///
    /// # Panics
    /// Panics unless the partition holds at least 2 pages (one to write,
    /// one to reclaim) and pages hold at least one entry.
    pub fn new(partition_pages: u64, entries_per_page: usize) -> Self {
        assert!(partition_pages >= 2, "metadata partition needs >= 2 pages");
        assert!(entries_per_page >= 1);
        MetaLog {
            partition_pages,
            entries_per_page,
            head: 0,
            tail: 0,
            buffer: VecDeque::new(),
            buffer_base: 0,
            pages: VecDeque::new(),
            latest: FastMap::default(),
            entries_pushed: 0,
            track_inflight: false,
            inflight: Vec::new(),
            commits: Vec::new(),
            spare: SparePage(None),
        }
    }

    /// Keep an NVRAM-resident copy of every [`CommitBatch`] until the
    /// caller [`MetaLog::confirm`]s that the flash write completed. A crash
    /// between commit and confirm then leaves the batch recoverable even if
    /// the flash page is torn, corrupt, or was never written at all.
    pub fn enable_inflight_tracking(&mut self) {
        self.track_inflight = true;
    }

    /// Confirm that the page with sequence number `seq` is durably on
    /// flash; drops its in-flight copy.
    pub fn confirm(&mut self, seq: u64) {
        self.inflight.retain(|b| b.seq != seq);
    }

    /// Committed batches not yet confirmed durable, oldest first. Recovery
    /// consults this to decide whether a bad flash page is a tolerable torn
    /// tail (redo from here) or real corruption (hard error).
    pub fn unconfirmed(&self) -> &[CommitBatch<E>] {
        &self.inflight
    }

    /// Pages in the partition.
    pub fn partition_pages(&self) -> u64 {
        self.partition_pages
    }

    /// Entries per page.
    pub fn entries_per_page(&self) -> usize {
        self.entries_per_page
    }

    /// Log pages currently in use.
    pub fn used_pages(&self) -> u64 {
        self.tail - self.head
    }

    /// Entries pushed by the caller (excludes GC reinsertions).
    pub fn entries_pushed(&self) -> u64 {
        self.entries_pushed
    }

    /// Entries currently staged in the NVRAM buffer.
    pub fn buffered_entries(&self) -> usize {
        self.buffer.len()
    }

    /// NVRAM head/tail counters (what §III-E1 restores after power loss).
    /// Both start at 0 and step once per page, so the tail is also the
    /// count of pages ever written.
    pub fn counters(&self) -> (u64, u64) {
        (self.head, self.tail)
    }

    /// Append an entry; lends the page commits (possibly several, when
    /// GC reinsertion cascades) the caller must persist, or returns
    /// [`PartitionTooSmall`] when the log cannot make room for them.
    pub fn push(&mut self, entry: E) -> Result<Commits<'_, E>, PartitionTooSmall> {
        self.entries_pushed += 1;
        self.buffer_insert(entry);
        self.drain_full_pages()?;
        Ok(self.commits.drain(..))
    }

    /// Append a group of entries as one **group commit**.
    ///
    /// All entries enter the NVRAM buffer before any full page is cut, so
    /// same-key entries within the group coalesce to a single buffered
    /// entry even when an intermediate page boundary would have forced the
    /// older copy out under entry-at-a-time [`MetaLog::push`] — a group
    /// can therefore produce *fewer* metadata page writes than the same
    /// entries pushed individually, never more. Lends every page commit
    /// produced; the NVRAM inflight/confirm protocol is unchanged (each
    /// lent batch is tracked until [`MetaLog::confirm`], and the
    /// entries themselves are NVRAM-durable in the buffer from the moment
    /// this returns, exactly as with `push`).
    pub fn push_group(
        &mut self,
        entries: impl IntoIterator<Item = E>,
    ) -> Result<Commits<'_, E>, PartitionTooSmall> {
        for e in entries {
            self.entries_pushed += 1;
            self.buffer_insert(e);
        }
        self.drain_full_pages()?;
        Ok(self.commits.drain(..))
    }

    /// Force-commit the buffer (shutdown / checkpoint).
    pub fn flush(&mut self) -> Result<Commits<'_, E>, PartitionTooSmall> {
        self.drain_full_pages()?;
        if !self.buffer.is_empty() {
            self.cut_page(self.buffer.len());
        }
        Ok(self.commits.drain(..))
    }

    /// The newest valid entry for `key`, if any (buffered or logged).
    pub fn latest_entry(&self, key: u64) -> Option<&E> {
        let at = *self.latest.get(&key)?;
        match at.checked_sub(self.buffer_base) {
            Some(i) => self.buffer.get(i as usize),
            None => {
                // Pages hold consecutive position ranges, oldest first.
                let older = self.pages.partition_point(|p| p.start <= at);
                let page = self.pages.get(older.checked_sub(1)?)?;
                page.entries.get((at - page.start) as usize)
            }
        }
    }

    /// The NVRAM buffer's entries in insertion order — applied *after* a
    /// flash replay during power-failure recovery (buffered entries are
    /// newer than anything on flash).
    pub fn buffered_snapshot(&self) -> Vec<E> {
        self.buffer.iter().cloned().collect()
    }

    /// Replay the log (head→tail) plus the NVRAM buffer into the set of
    /// live mappings — the §III-E1 power-failure recovery scan. Tombstoned
    /// keys are excluded.
    pub fn recover_live(&self) -> Vec<E> {
        let mut live: FastMap<u64, &E> = FastMap::default();
        let logged = self.pages.iter().flat_map(|page| page.entries.iter());
        for e in logged.chain(&self.buffer) {
            if e.is_tombstone() {
                live.remove(&e.key());
            } else {
                live.insert(e.key(), e);
            }
        }
        live.into_values().cloned().collect()
    }

    // ---- internals -------------------------------------------------------

    fn buffer_insert(&mut self, entry: E) {
        let end = self.buffer_base + self.buffer.len() as u64;
        let at = self.latest.entry(entry.key()).or_insert(end);
        if (self.buffer_base..end).contains(at) {
            // Coalesce: newest entry overwrites the buffered one.
            self.buffer[(*at - self.buffer_base) as usize] = entry;
        } else {
            *at = end;
            self.buffer.push_back(entry);
        }
    }

    /// Move the `n` oldest buffered entries into a new log page.
    fn cut_page(&mut self, n: usize) {
        let start = self.buffer_base;
        // (An exact-length iterator: a new slice is allocated once.)
        let entries =
            self.refill_spare(n).unwrap_or_else(|| self.buffer.iter().take(n).cloned().collect());
        self.buffer.drain(..n);
        self.buffer_base += n as u64;
        self.append_page(start, entries);
    }

    /// The spare page refilled with the `n` oldest buffered entries, when
    /// they fill a page and nothing else holds the spare.
    fn refill_spare(&mut self, n: usize) -> Option<Arc<[E]>> {
        let mut page = self.spare.0.take_if(|_| n == self.entries_per_page)?;
        let slots = Arc::get_mut(&mut page)?;
        slots.iter_mut().zip(&self.buffer).for_each(|(slot, e)| slot.clone_from(e));
        Some(page)
    }

    /// Cut full pages until less than a page is buffered. Each cut may
    /// reclaim a head page and put its live entries back in the buffer; a
    /// drain still going after four laps of the partition is reclaiming
    /// nothing but live pages and never will finish; the pages it cut go
    /// with its error.
    fn drain_full_pages(&mut self) -> Result<(), PartitionTooSmall> {
        let mut cuts = 0u64;
        while self.buffer.len() >= self.entries_per_page {
            cuts += 1;
            if cuts > self.partition_pages * 4 + 8 {
                self.commits.clear();
                return Err(PartitionTooSmall { partition_pages: self.partition_pages });
            }
            self.cut_page(self.entries_per_page);
        }
        Ok(())
    }

    fn append_page(&mut self, start: u64, entries: Arc<[E]>) {
        // Make room first (may reinsert live head entries into the buffer).
        while self.used_pages() >= self.partition_pages {
            if !self.reclaim_head() {
                break;
            }
        }
        let seq = self.tail;
        self.tail += 1;
        self.pages.push_back(MetaPage { seq, start, entries: Arc::clone(&entries) });
        let batch = CommitBatch { slot: seq % self.partition_pages, seq, entries };
        if self.track_inflight {
            // Batches GC'd past the head can no longer matter to recovery.
            self.inflight.retain(|b| b.seq >= self.head);
            self.inflight.push(CommitBatch { entries: Arc::clone(&batch.entries), ..batch });
        }
        self.commits.push(batch);
    }

    /// Oldest-first GC: drop dead entries, reinsert live ones. Returns
    /// `false` when there is no head page to reclaim (an accounting bug:
    /// `used_pages()` is counter-derived, so disagreeing with the deque
    /// must stop the caller's loop rather than spin or panic).
    fn reclaim_head(&mut self) -> bool {
        let Some(page) = self.pages.pop_front() else {
            debug_assert!(false, "used_pages > 0 but page deque empty");
            return false;
        };
        debug_assert_eq!(page.seq, self.head);
        self.head += 1;
        for (at, e) in (page.start..).zip(page.entries.iter().cloned()) {
            let key = e.key();
            if self.latest.get(&key) == Some(&at) {
                if e.is_tombstone() {
                    // Nothing older left to shadow: drop entirely.
                    self.latest.remove(&key);
                } else {
                    self.buffer_insert(e);
                }
            }
            // Otherwise a newer entry exists elsewhere: dead, drop.
        }
        // A full page's slice that no batch or in-flight copy still holds
        // is kept for the next full cut.
        let mut entries = page.entries;
        if entries.len() == self.entries_per_page && Arc::get_mut(&mut entries).is_some() {
            self.spare = SparePage(Some(entries));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> KeyEntry {
        KeyEntry { key: k, tombstone: false }
    }

    fn tomb(k: u64) -> KeyEntry {
        KeyEntry { key: k, tombstone: true }
    }

    /// The log this module held before positions replaced the buffer index
    /// and the `Latest` markers: the reference the differential test below
    /// holds the rewrite to, call for call.
    mod reference {
        #![allow(dead_code)]
        use super::super::{CommitBatch, LogEntry, PartitionTooSmall};
        use kdd_util::hash::FastMap;
        use std::collections::VecDeque;

        #[derive(Debug, Clone)]
        struct MetaPage<E> {
            seq: u64,
            entries: Vec<E>,
        }

        /// Where a key's newest entry lives.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Latest {
            /// Still in the NVRAM buffer.
            Buffered,
            /// In the log page with this sequence number.
            Page(u64),
        }

        /// The two-map log as it stood before positions (PR 18), verbatim.
        #[derive(Debug, Clone)]
        pub struct MetaLog<E: LogEntry> {
            partition_pages: u64,
            entries_per_page: usize,
            head: u64,
            tail: u64,
            /// Buffered entries in insertion order (holes from coalescing).
            buffer: Vec<Option<E>>,
            buffer_live: usize,
            buffer_index: FastMap<u64, usize>,
            pages: VecDeque<MetaPage<E>>,
            latest: FastMap<u64, Latest>,
            entries_pushed: u64,
            /// When enabled, committed-but-unconfirmed batches are retained (an
            /// NVRAM-resident redo list) so recovery can tolerate a torn or lost
            /// tail page: the caller confirms each batch once the flash write
            /// completed.
            track_inflight: bool,
            inflight: Vec<CommitBatch<E>>,
        }

        impl<E: LogEntry> MetaLog<E> {
            /// Create a log over `partition_pages` flash pages, packing
            /// `entries_per_page` entries per page.
            ///
            /// # Panics
            /// Panics unless the partition holds at least 2 pages (one to write,
            /// one to reclaim) and pages hold at least one entry.
            pub fn new(partition_pages: u64, entries_per_page: usize) -> Self {
                assert!(partition_pages >= 2, "metadata partition needs >= 2 pages");
                assert!(entries_per_page >= 1);
                MetaLog {
                    partition_pages,
                    entries_per_page,
                    head: 0,
                    tail: 0,
                    buffer: Vec::new(),
                    buffer_live: 0,
                    buffer_index: FastMap::default(),
                    pages: VecDeque::new(),
                    latest: FastMap::default(),
                    entries_pushed: 0,
                    track_inflight: false,
                    inflight: Vec::new(),
                }
            }

            /// Keep an NVRAM-resident copy of every [`CommitBatch`] until the
            /// caller [`MetaLog::confirm`]s that the flash write completed. A crash
            /// between commit and confirm then leaves the batch recoverable even if
            /// the flash page is torn, corrupt, or was never written at all.
            pub fn enable_inflight_tracking(&mut self) {
                self.track_inflight = true;
            }

            /// Confirm that the page with sequence number `seq` is durably on
            /// flash; drops its in-flight copy.
            pub fn confirm(&mut self, seq: u64) {
                self.inflight.retain(|b| b.seq != seq);
            }

            /// Committed batches not yet confirmed durable, oldest first. Recovery
            /// consults this to decide whether a bad flash page is a tolerable torn
            /// tail (redo from here) or real corruption (hard error).
            pub fn unconfirmed(&self) -> &[CommitBatch<E>] {
                &self.inflight
            }

            /// Pages in the partition.
            pub fn partition_pages(&self) -> u64 {
                self.partition_pages
            }

            /// Entries per page.
            pub fn entries_per_page(&self) -> usize {
                self.entries_per_page
            }

            /// Log pages currently in use.
            pub fn used_pages(&self) -> u64 {
                self.tail - self.head
            }

            /// Entries pushed by the caller (excludes GC reinsertions).
            pub fn entries_pushed(&self) -> u64 {
                self.entries_pushed
            }

            /// Entries currently staged in the NVRAM buffer.
            pub fn buffered_entries(&self) -> usize {
                self.buffer_live
            }

            /// NVRAM head/tail counters (what §III-E1 restores after power loss).
            pub fn counters(&self) -> (u64, u64) {
                (self.head, self.tail)
            }

            /// Append an entry; returns the page commits (possibly several, when
            /// GC reinsertion cascades) the caller must persist, or
            /// [`PartitionTooSmall`] when the log cannot make room for them.
            pub fn push(&mut self, entry: E) -> Result<Vec<CommitBatch<E>>, PartitionTooSmall> {
                self.entries_pushed += 1;
                self.buffer_insert(entry);
                let mut out = Vec::new();
                self.drain_full_pages(&mut out)?;
                Ok(out)
            }

            /// Append a group of entries as one **group commit**.
            ///
            /// All entries enter the NVRAM buffer before any full page is cut, so
            /// same-key entries within the group coalesce to a single buffered
            /// entry even when an intermediate page boundary would have forced the
            /// older copy out under entry-at-a-time [`MetaLog::push`] — a group
            /// can therefore produce *fewer* metadata page writes than the same
            /// entries pushed individually, never more. Returns every page commit
            /// produced; the NVRAM inflight/confirm protocol is unchanged (each
            /// returned batch is tracked until [`MetaLog::confirm`], and the
            /// entries themselves are NVRAM-durable in the buffer from the moment
            /// this returns, exactly as with `push`).
            pub fn push_group(
                &mut self,
                entries: impl IntoIterator<Item = E>,
            ) -> Result<Vec<CommitBatch<E>>, PartitionTooSmall> {
                for e in entries {
                    self.entries_pushed += 1;
                    self.buffer_insert(e);
                }
                let mut out = Vec::new();
                self.drain_full_pages(&mut out)?;
                Ok(out)
            }

            /// Force-commit the buffer (shutdown / checkpoint).
            pub fn flush(&mut self) -> Result<Vec<CommitBatch<E>>, PartitionTooSmall> {
                let mut out = Vec::new();
                self.drain_full_pages(&mut out)?;
                if self.buffer_live > 0 {
                    let batch: Vec<E> = self.take_buffer_entries(self.buffer_live);
                    self.append_page(batch, &mut out);
                }
                Ok(out)
            }

            /// The newest valid entry for `key`, if any (buffered or logged).
            pub fn latest_entry(&self, key: u64) -> Option<&E> {
                match self.latest.get(&key)? {
                    Latest::Buffered => {
                        let idx = *self.buffer_index.get(&key)?;
                        self.buffer[idx].as_ref()
                    }
                    Latest::Page(seq) => {
                        let page = self.pages.iter().find(|p| p.seq == *seq)?;
                        page.entries.iter().rev().find(|e| e.key() == key)
                    }
                }
            }

            /// The NVRAM buffer's entries in insertion order — applied *after* a
            /// flash replay during power-failure recovery (buffered entries are
            /// newer than anything on flash).
            pub fn buffered_snapshot(&self) -> Vec<E> {
                self.buffer.iter().flatten().cloned().collect()
            }

            /// Replay the log (head→tail) plus the NVRAM buffer into the set of
            /// live mappings — the §III-E1 power-failure recovery scan. Tombstoned
            /// keys are excluded.
            pub fn recover_live(&self) -> Vec<E> {
                let mut live: FastMap<u64, E> = FastMap::default();
                for page in &self.pages {
                    for e in &page.entries {
                        if e.is_tombstone() {
                            live.remove(&e.key());
                        } else {
                            live.insert(e.key(), e.clone());
                        }
                    }
                }
                for e in self.buffer.iter().flatten() {
                    if e.is_tombstone() {
                        live.remove(&e.key());
                    } else {
                        live.insert(e.key(), e.clone());
                    }
                }
                live.into_values().collect()
            }

            // ---- internals -------------------------------------------------------

            fn buffer_insert(&mut self, entry: E) {
                let key = entry.key();
                if let Some(&idx) = self.buffer_index.get(&key) {
                    // Coalesce: newest entry overwrites the buffered one.
                    if self.buffer[idx].is_some() {
                        self.buffer[idx] = Some(entry);
                        self.latest.insert(key, Latest::Buffered);
                        return;
                    }
                }
                self.buffer_index.insert(key, self.buffer.len());
                self.buffer.push(Some(entry));
                self.buffer_live += 1;
                self.latest.insert(key, Latest::Buffered);
            }

            fn take_buffer_entries(&mut self, n: usize) -> Vec<E> {
                let mut out = Vec::with_capacity(n);
                let mut kept = Vec::with_capacity(self.buffer.len());
                for slot in self.buffer.drain(..) {
                    match slot {
                        Some(e) if out.len() < n => out.push(e),
                        other => kept.push(other),
                    }
                }
                // Compact: drop holes, rebuild the index.
                self.buffer = kept.into_iter().flatten().map(Some).collect();
                self.buffer_index.clear();
                for (i, e) in self.buffer.iter().enumerate() {
                    // The rebuild above leaves no holes, so every slot is Some.
                    if let Some(e) = e.as_ref() {
                        self.buffer_index.insert(e.key(), i);
                    }
                }
                self.buffer_live = self.buffer.len();
                out
            }

            /// Cut full pages until less than a page is buffered. Each cut may
            /// reclaim a head page and put its live entries back in the buffer; a
            /// drain still going after four laps of the partition is reclaiming
            /// nothing but live pages and never will finish.
            fn drain_full_pages(
                &mut self,
                out: &mut Vec<CommitBatch<E>>,
            ) -> Result<(), PartitionTooSmall> {
                let mut cuts = 0u64;
                while self.buffer_live >= self.entries_per_page {
                    cuts += 1;
                    if cuts > self.partition_pages * 4 + 8 {
                        return Err(PartitionTooSmall { partition_pages: self.partition_pages });
                    }
                    let batch = self.take_buffer_entries(self.entries_per_page);
                    self.append_page(batch, out);
                }
                Ok(())
            }

            fn append_page(&mut self, entries: Vec<E>, out: &mut Vec<CommitBatch<E>>) {
                // Make room first (may reinsert live head entries into the buffer).
                while self.used_pages() >= self.partition_pages {
                    if !self.reclaim_head() {
                        break;
                    }
                }
                let seq = self.tail;
                self.tail += 1;
                for e in &entries {
                    self.latest.insert(e.key(), Latest::Page(seq));
                }
                self.pages.push_back(MetaPage { seq, entries: entries.clone() });
                let batch =
                    CommitBatch { slot: seq % self.partition_pages, seq, entries: entries.into() };
                if self.track_inflight {
                    // Batches GC'd past the head can no longer matter to recovery.
                    self.inflight.retain(|b| b.seq >= self.head);
                    self.inflight.push(batch.clone());
                }
                out.push(batch);
            }

            /// Oldest-first GC: drop dead entries, reinsert live ones. Returns
            /// `false` when there is no head page to reclaim (an accounting bug:
            /// `used_pages()` is counter-derived, so disagreeing with the deque
            /// must stop the caller's loop rather than spin or panic).
            fn reclaim_head(&mut self) -> bool {
                let Some(page) = self.pages.pop_front() else {
                    debug_assert!(false, "used_pages > 0 but page deque empty");
                    return false;
                };
                debug_assert_eq!(page.seq, self.head);
                self.head += 1;
                for e in page.entries {
                    let key = e.key();
                    if self.latest.get(&key) == Some(&Latest::Page(page.seq)) {
                        if e.is_tombstone() {
                            // Nothing older left to shadow: drop entirely.
                            self.latest.remove(&key);
                        } else {
                            self.buffer_insert(e);
                        }
                    }
                    // Otherwise a newer entry exists elsewhere: dead, drop.
                }
                true
            }
        }
    }

    type Stream = Result<Vec<(u64, u64, Vec<KeyEntry>)>, PartitionTooSmall>;

    /// `CommitBatch` has no `PartialEq`: compare batches as tuples.
    fn tuples(batches: &[CommitBatch<KeyEntry>]) -> Vec<(u64, u64, Vec<KeyEntry>)> {
        batches.iter().map(|b| (b.slot, b.seq, b.entries.to_vec())).collect()
    }

    fn commits<I>(r: Result<I, PartitionTooSmall>) -> Stream
    where
        I: IntoIterator<Item = CommitBatch<KeyEntry>>,
    {
        r.map(|batches| batches.into_iter().map(|b| (b.slot, b.seq, b.entries.to_vec())).collect())
    }

    /// One scripted call against both logs.
    #[derive(Debug, Clone)]
    enum Call {
        Push(KeyEntry),
        Group(Vec<KeyEntry>),
        Flush,
        /// Confirm the n-th unconfirmed batch (mod their number).
        Confirm(usize),
    }

    /// Run `script` through the position-keyed log and the two-map
    /// reference, comparing everything either exposes after every call.
    fn assert_logs_agree(partition: u64, epp: usize, inflight: bool, script: &[Call]) {
        let mut log = MetaLog::new(partition, epp);
        let mut old = reference::MetaLog::new(partition, epp);
        if inflight {
            log.enable_inflight_tracking();
            old.enable_inflight_tracking();
        }
        let sorted = |mut live: Vec<KeyEntry>| {
            live.sort_unstable_by_key(|e| (e.key, e.tombstone));
            live
        };
        for (i, call) in script.iter().enumerate() {
            let (got, want) = match call {
                Call::Push(e) => (commits(log.push(*e)), commits(old.push(*e))),
                Call::Group(g) => {
                    (commits(log.push_group(g.clone())), commits(old.push_group(g.clone())))
                }
                Call::Flush => (commits(log.flush()), commits(old.flush())),
                Call::Confirm(n) => {
                    if let Some(b) = old.unconfirmed().get(n % old.unconfirmed().len().max(1)) {
                        let seq = b.seq;
                        log.confirm(seq);
                        old.confirm(seq);
                    }
                    (Ok(Vec::new()), Ok(Vec::new()))
                }
            };
            assert_eq!(got, want, "call {i} {call:?}: commit streams differ");
            assert_eq!(log.buffered_snapshot(), old.buffered_snapshot(), "call {i} {call:?}");
            assert_eq!(sorted(log.recover_live()), sorted(old.recover_live()), "call {i} {call:?}");
            assert_eq!(log.counters(), old.counters(), "call {i}");
            assert_eq!(log.entries_pushed(), old.entries_pushed(), "call {i}");
            assert_eq!(log.buffered_entries(), old.buffered_entries(), "call {i}");
            assert_eq!(tuples(log.unconfirmed()), tuples(old.unconfirmed()), "call {i}");
            for k in 0..KEYS {
                assert_eq!(log.latest_entry(k), old.latest_entry(k), "call {i}: key {k}");
            }
        }
    }

    /// Keys the differential scripts draw from.
    const KEYS: u64 = 14;

    #[test]
    fn head_reclaim_sees_a_drained_batch_that_is_not_a_page_yet() {
        // Two pages of two: [a b] [c d], then a' and e fill the buffer. The
        // cut drains [a' e] and only then reclaims the head to make room,
        // so while `a` and `b` are judged, a' is neither buffered nor
        // logged: `a` must die to it, `b` must go back in the buffer alone.
        let script: Vec<Call> = [0, 1, 2, 3, 0, 4, 1, 5, 0].map(|k| Call::Push(key(k))).into();
        assert_logs_agree(2, 2, true, &script);
        let mut log = MetaLog::new(2, 2);
        for k in [0, 1, 2, 3, 0] {
            log.push(key(k)).unwrap();
        }
        let cut: Vec<_> = log.push(key(4)).unwrap().collect();
        assert_eq!(cut.len(), 1);
        assert_eq!(cut[0].entries[..], [key(0), key(4)]);
        assert_eq!(log.counters().0, 1, "one head page reclaimed");
        assert_eq!(log.buffered_snapshot(), vec![key(1)], "only b survives the head page");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The position-keyed log against the two-map log it replaced:
        /// same commit stream (`slot`, `seq`, entries), buffer, live set,
        /// counters and in-flight list after every call, and
        /// `PartitionTooSmall` from the same call, on partitions small
        /// enough that nearly every cut reclaims a head page first.
        #[test]
        fn position_keyed_log_matches_the_two_map_log(
            partition in 2u64..=8,
            epp in 1usize..=4,
            inflight in 0u8..2,
            live_keys in 1u64..=KEYS,
            raw in proptest::collection::vec((0u8..16, 0u64..KEYS, 0u8..10, 1usize..7), 1..300),
        ) {
            let entry = |k: u64, tombstone: bool| KeyEntry { key: k % live_keys, tombstone };
            let script: Vec<Call> = raw
                .iter()
                .map(|&(op, k, t, n)| (op, k, t < 3, n))
                .map(|(op, k, tombstone, n)| match op {
                    0 => Call::Flush,
                    1 | 2 => Call::Confirm(n),
                    3 | 4 => Call::Group(
                        (0..n as u64).map(|j| entry(k + j * 5, tombstone && j % 2 == 0)).collect(),
                    ),
                    _ => Call::Push(entry(k, tombstone)),
                })
                .collect();
            assert_logs_agree(partition, epp, inflight == 1, &script);
        }
    }

    #[test]
    fn commits_when_page_fills() {
        let mut log = MetaLog::new(8, 4);
        for k in 1..=3 {
            assert_eq!(log.push(key(k)).unwrap().len(), 0);
        }
        let commits: Vec<_> = log.push(key(4)).unwrap().collect();
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].entries.len(), 4);
        assert_eq!(commits[0].slot, 0);
        assert_eq!(log.counters().1, 1, "one page written");
        assert_eq!(log.used_pages(), 1);
    }

    #[test]
    fn coalescing_in_buffer() {
        let mut log = MetaLog::new(8, 4);
        for _ in 0..100 {
            assert_eq!(log.push(key(7)).unwrap().len(), 0, "same key must coalesce");
        }
        assert_eq!(log.buffered_entries(), 1);
        let commits: Vec<_> = log.flush().unwrap().collect();
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].entries.len(), 1);
    }

    #[test]
    fn wraparound_slots_are_circular() {
        let mut log = MetaLog::new(2, 2);
        let mut slots = Vec::new();
        for i in 0..20 {
            for k in [i * 2, i * 2 + 1] {
                slots.extend(log.push(tomb(k)).unwrap().map(|c| c.slot));
            }
        }
        assert!(slots.iter().all(|&s| s < 2));
        assert!(slots.windows(2).any(|w| w[0] != w[1]), "slots must alternate");
    }

    #[test]
    fn gc_reinserts_live_entries() {
        // Partition of 5 pages × 2 entries = 10 live entries max.
        let mut log = MetaLog::new(5, 2);
        // Write 3 pages worth of distinct keys, then push the log past the
        // partition boundary so GC must reclaim heads whose entries (still
        // newest for their keys) get reinserted and rewritten.
        for k in 0..6 {
            log.push(key(k)).unwrap();
        }
        for k in 0..6 {
            log.push(key(k)).unwrap(); // rewrite: newer copies further down the log
        }
        assert!(log.used_pages() <= 5);
        let before = log.counters().1;
        log.push(key(100)).unwrap();
        log.push(key(101)).unwrap();
        assert!(log.counters().1 > before);
        assert!(log.counters().0 > 0, "GC reclaimed a head page");
        // Every key still recoverable.
        let mut live: Vec<u64> = log.recover_live().iter().map(|e| e.key).collect();
        live.sort_unstable();
        assert_eq!(live, vec![0, 1, 2, 3, 4, 5, 100, 101]);
    }

    #[test]
    fn tombstones_dropped_at_head() {
        let mut log = MetaLog::new(2, 2);
        log.push(key(1)).unwrap();
        log.push(tomb(1)).unwrap();
        // key(1)'s alloc entry then its tombstone: after enough churn the
        // tombstone reaches the head and disappears.
        for k in 10..30 {
            log.push(tomb(k)).unwrap();
        }
        let live = log.recover_live();
        assert!(live.is_empty(), "tombstoned keys must not recover: {live:?}");
    }

    #[test]
    fn smaller_partition_writes_more_pages() {
        // The Figure 4 effect in miniature: same workload, smaller
        // partition → more GC → more metadata pages written.
        let run = |partition: u64| {
            let mut log = MetaLog::new(partition, 4);
            // 16 hot keys churned repeatedly + a stream of cold keys.
            for i in 0..2000u64 {
                log.push(key(i % 16)).unwrap();
                if i % 3 == 0 {
                    log.push(key(1000 + i)).unwrap();
                }
                if i % 3 == 1 && i > 3 {
                    log.push(tomb(1000 + i - 1)).unwrap();
                }
            }
            log.flush().unwrap();
            log.counters().1
        };
        let small = run(8);
        let big = run(256);
        assert!(small > big, "small partition {small} must write more than big {big}");
    }

    #[test]
    fn recovery_matches_latest_state() {
        let mut log = MetaLog::new(16, 4);
        for k in 0..40 {
            log.push(key(k)).unwrap();
        }
        for k in 0..20 {
            log.push(tomb(k)).unwrap();
        }
        log.push(key(5)).unwrap(); // resurrect 5
        let mut live: Vec<u64> = log.recover_live().iter().map(|e| e.key).collect();
        live.sort_unstable();
        let expect: Vec<u64> = std::iter::once(5).chain(20..40).collect();
        assert_eq!(live, expect);
    }

    #[test]
    fn latest_entry_tracks_buffer_and_pages() {
        let mut log = MetaLog::new(8, 2);
        log.push(key(9)).unwrap();
        assert!(!log.latest_entry(9).unwrap().tombstone);
        log.push(key(10)).unwrap(); // forces commit of the pair
        assert_eq!(log.used_pages(), 1);
        assert_eq!(log.latest_entry(9).unwrap().key, 9);
        log.push(tomb(9)).unwrap();
        assert!(log.latest_entry(9).unwrap().tombstone);
        assert!(log.latest_entry(999).is_none());
    }

    #[test]
    fn counters_advance_monotonically() {
        let mut log = MetaLog::new(2, 1);
        for k in 0..10 {
            log.push(tomb(k)).unwrap();
        }
        let (head, tail) = log.counters();
        assert!(tail >= head);
        assert!(tail - head <= 2);
        assert_eq!(tail, 10, "one page per entry");
    }

    #[test]
    fn inflight_disabled_by_default() {
        let mut log = MetaLog::new(8, 2);
        log.push(key(1)).unwrap();
        log.push(key(2)).unwrap(); // commits a page
        assert!(log.unconfirmed().is_empty());
    }

    #[test]
    fn inflight_tracks_until_confirmed() {
        let mut log = MetaLog::new(8, 2);
        log.enable_inflight_tracking();
        log.push(key(1)).unwrap();
        let commits: Vec<_> = log.push(key(2)).unwrap().collect();
        assert_eq!(commits.len(), 1);
        assert_eq!(log.unconfirmed().len(), 1);
        assert_eq!(log.unconfirmed()[0].seq, commits[0].seq);
        log.confirm(commits[0].seq);
        assert!(log.unconfirmed().is_empty());
        // Confirming an unknown seq is a no-op.
        log.confirm(999);
    }

    #[test]
    fn inflight_entries_dropped_once_gc_passes_them() {
        let mut log = MetaLog::new(2, 1);
        log.enable_inflight_tracking();
        for k in 0..10 {
            log.push(tomb(k)).unwrap(); // never confirmed
        }
        let (head, _) = log.counters();
        assert!(log.unconfirmed().iter().all(|b| b.seq >= head));
        assert!(log.unconfirmed().len() as u64 <= log.partition_pages() + 1);
    }

    #[test]
    fn group_commit_coalesces_within_group() {
        // 4 distinct keys rewritten 8× each, pushed as one group: the
        // buffer coalesces them to 4 entries → one page, no matter how the
        // rewrites interleave. Entry-at-a-time push over a 2-entry page
        // would have cut pages mid-stream and rewritten the keys.
        let mut grouped = MetaLog::new(8, 4);
        let entries: Vec<KeyEntry> = (0..32).map(|i| key(i % 4)).collect();
        let commits: Vec<_> = grouped.push_group(entries.clone()).unwrap().collect();
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].entries.len(), 4);
        let mut single = MetaLog::new(8, 4);
        let mut single_pages = 0;
        for e in entries {
            single_pages += single.push(e).unwrap().len();
        }
        single.flush().unwrap();
        assert!(
            grouped.counters().1 <= single_pages as u64 + 1,
            "group commit must never write more pages"
        );
        assert_eq!(grouped.entries_pushed(), 32);
    }

    #[test]
    fn group_commit_spans_multiple_pages() {
        let mut log = MetaLog::new(8, 2);
        log.enable_inflight_tracking();
        let commits: Vec<_> = log.push_group((0..7).map(key)).unwrap().collect();
        assert_eq!(commits.len(), 3, "7 distinct entries over 2/page cut 3 pages");
        assert_eq!(log.buffered_entries(), 1);
        assert_eq!(log.unconfirmed().len(), 3, "every group page is inflight-tracked");
        for c in &commits {
            log.confirm(c.seq);
        }
        assert!(log.unconfirmed().is_empty());
        let mut live: Vec<u64> = log.recover_live().iter().map(|e| e.key).collect();
        live.sort_unstable();
        assert_eq!(live, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_group_is_a_noop() {
        let mut log = MetaLog::new(8, 2);
        assert_eq!(log.push_group(std::iter::empty::<KeyEntry>()).unwrap().len(), 0);
        assert_eq!(log.entries_pushed(), 0);
        assert_eq!(log.buffered_entries(), 0);
    }

    #[test]
    fn livelocked_partition_is_an_error() {
        // 2-page partition, 1 entry/page, 4 permanently-live keys: GC can
        // never make room.
        let mut log = MetaLog::new(2, 1);
        let wedged = (0..100u64).find_map(|i| log.push(key(i % 4)).err());
        assert_eq!(wedged, Some(PartitionTooSmall { partition_pages: 2 }));
        assert!(wedged.unwrap().to_string().contains("too small"));
    }

    /// A reclaimed full head page that nothing holds is written over by
    /// the next full cut; a held page or a partial one is never kept.
    #[test]
    fn reclaimed_head_page_is_reused_only_when_unheld() {
        let mut log = MetaLog::new(2, 2);
        log.enable_inflight_tracking();
        let mut cut = |keys: &[u64], flush: bool| {
            let group = log.push_group(keys.iter().map(|&k| tomb(k))).unwrap().collect();
            let batches: Vec<_> = if flush { log.flush().unwrap().collect() } else { group };
            for b in &batches {
                log.confirm(b.seq);
            }
            let spare = log.spare.0.as_ref().map(|p| Arc::as_ptr(p).cast::<KeyEntry>());
            (batches.into_iter().next(), spare)
        };
        let at = |b: &Option<CommitBatch<KeyEntry>>| b.as_ref().map(|b| b.entries.as_ptr());
        let a = at(&cut(&[0, 1], false).0);
        let (b, _) = cut(&[2, 3], false);
        let (_, spare) = cut(&[4, 5], false);
        assert_eq!(spare, a, "unheld page A kept once reclaimed");
        let (d, spare) = cut(&[6, 7], false);
        assert_eq!(at(&d), a, "the next full cut writes over A");
        assert_eq!(spare, None, "page B is still held");
        drop(d);
        let (_, spare) = cut(&[8], true);
        assert!(spare.is_some(), "page C kept");
        let (_, spare) = cut(&[9, 10], false);
        assert_eq!(spare, a, "page D, A's slice, kept again");
        let (_, spare) = cut(&[11, 12], false);
        assert_eq!(spare, None, "the partial page E is dropped");
        assert_eq!(b.map(|b| b.entries.to_vec()), Some(vec![tomb(2), tomb(3)]));
    }

    /// The pages a failed call cut go with its error: a later call lends
    /// exactly the pages it cut itself, whose sequence numbers are the tail
    /// counter's advance over that call.
    #[test]
    fn failed_call_leaves_no_batch_for_the_next_one() {
        let mut log = MetaLog::new(2, 1);
        let wedged = (0..100u64).find_map(|i| log.push(key(i % 4)).err());
        assert!(wedged.is_some() && log.commits.is_empty());
        let mut lent = 0;
        for k in 0..4 {
            let (_, tail) = log.counters();
            let seqs: Vec<u64> = match log.push(tomb(k)) {
                Ok(commits) => commits.map(|b| b.seq).collect(),
                Err(_) => continue,
            };
            assert_eq!(seqs, (tail..log.counters().1).collect::<Vec<u64>>(), "tombstone {k}");
            lent += seqs.len();
        }
        assert!(lent > 0, "the tombstones never unwedged the log");
    }
}
