//! The NVRAM delta staging buffer (§III-B/C).
//!
//! "When a write request hits on a clean page in DAZ, the page state will
//! be changed to old and the delta is stored in a small staging buffer
//! which is managed in a FIFO manner. When the buffer is full, multiple
//! deltas are compacted into one page and committed to a DEZ page."
//!
//! Coalescing: "only the newest version of delta for one DAZ page is
//! maintained in the staging buffer" — a rewrite replaces the buffered
//! delta in place.
//!
//! The buffer is generic over the delta payload: the accounting simulator
//! stages only sizes, the prototype engine stages real compressed bytes.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd_util::hash::FastMap;
use kdd_util::pool::DEFAULT_POOL_CAP;

/// A payload with a known staged size.
pub trait DeltaPayload {
    /// Bytes this delta occupies in the staging buffer / DEZ page.
    fn nbytes(&self) -> u32;
}

impl DeltaPayload for u32 {
    fn nbytes(&self) -> u32 {
        *self
    }
}

impl DeltaPayload for Vec<u8> {
    fn nbytes(&self) -> u32 {
        self.len() as u32
    }
}

/// FIFO staging buffer with per-key coalescing and a byte budget.
#[derive(Debug, Clone)]
pub struct StagingBuffer<P> {
    capacity_bytes: u32,
    used_bytes: u32,
    /// FIFO of (key, payload); holes (None) left by coalescing/removal
    /// are squeezed out once they outnumber the live entries, and dropped
    /// with the last one, so `fifo.len() <= 2 * index.len() + HOLE_SLACK`
    /// at all times and an empty buffer holds no holes.
    fifo: Vec<Option<(u64, P)>>,
    index: FastMap<u64, usize>,
}

/// Holes tolerated on top of one per live entry before `remove` compacts
/// the FIFO: large enough that a fill-then-commit cycle of a few dozen
/// deltas compacts at most once, small enough that `snapshot` walks at
/// most this many dead slots more than live ones.
const HOLE_SLACK: usize = 16;

impl<P: DeltaPayload> StagingBuffer<P> {
    /// A buffer holding up to `capacity_bytes` of compressed deltas
    /// (one flash page in the paper).
    pub fn new(capacity_bytes: u32) -> Self {
        assert!(capacity_bytes > 0);
        StagingBuffer { capacity_bytes, used_bytes: 0, fifo: Vec::new(), index: FastMap::default() }
    }

    /// Byte budget.
    pub fn capacity_bytes(&self) -> u32 {
        self.capacity_bytes
    }

    /// Bytes currently staged.
    pub fn used_bytes(&self) -> u32 {
        self.used_bytes
    }

    /// Number of staged deltas.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether a delta for `key` is staged.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Staged payload for `key`.
    pub fn get(&self, key: u64) -> Option<&P> {
        let idx = *self.index.get(&key)?;
        self.fifo[idx].as_ref().map(|(_, p)| p)
    }

    /// Whether `payload` would fit right now (after coalescing away any
    /// existing delta for `key`).
    pub fn fits(&self, key: u64, payload: &P) -> bool {
        let freed = self.get(key).map_or(0, |p| p.nbytes());
        self.used_bytes - freed + payload.nbytes() <= self.capacity_bytes
    }

    /// Stage a delta; a previous delta for the same key is replaced
    /// (write coalescing) and handed back.
    ///
    /// # Panics
    /// Panics if the payload does not fit — callers must
    /// [`StagingBuffer::fits`]-check and drain first, or the payload alone
    /// exceeds the buffer.
    pub fn insert(&mut self, key: u64, payload: P) -> Option<P> {
        assert!(payload.nbytes() <= self.capacity_bytes, "delta larger than the staging buffer");
        let replaced = self.remove(key);
        assert!(
            self.used_bytes + payload.nbytes() <= self.capacity_bytes,
            "staging buffer overflow: drain before inserting"
        );
        self.used_bytes += payload.nbytes();
        self.index.insert(key, self.fifo.len());
        self.fifo.push(Some((key, payload)));
        replaced
    }

    /// Drop the staged delta for `key` (invalidation), returning it.
    pub fn remove(&mut self, key: u64) -> Option<P> {
        let idx = self.index.remove(&key)?;
        let (_, payload) = self.fifo[idx].take()?;
        self.used_bytes -= payload.nbytes();
        if self.index.is_empty() {
            // The last delta left: every slot is a hole.
            self.fifo.clear();
        } else if self.fifo.len() >= 2 * self.index.len() + HOLE_SLACK {
            self.squeeze_holes();
        }
        Some(payload)
    }

    /// Drop every hole, keeping FIFO order. Runs after at least
    /// `fifo.len() / 2` removals since the last run, so removal stays
    /// amortised O(1) and the FIFO's length tracks the live entries, not
    /// the number of deltas ever staged.
    fn squeeze_holes(&mut self) {
        self.fifo.retain(Option::is_some);
        for (idx, (key, _)) in self.fifo.iter().flatten().enumerate() {
            self.index.insert(*key, idx);
        }
    }

    /// Iterate the staged `(key, payload)` pairs in FIFO order without
    /// draining (power-failure recovery reads the surviving NVRAM state).
    pub fn snapshot(&self) -> impl Iterator<Item = (u64, &P)> + '_ {
        self.fifo.iter().flatten().map(|(k, p)| (*k, p))
    }

    /// Drain every staged delta in FIFO order — the commit that packs them
    /// into one DEZ page. The buffer is empty as soon as this returns, even
    /// if the iterator is dropped unconsumed.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, P)> + '_ {
        self.index.clear();
        self.used_bytes = 0;
        self.fifo.drain(..).flatten()
    }
}

/// Bounded free list of the buffers real delta payloads live in. A write hit
/// pops one (room for the codec's worst case), compresses into it and stages
/// it; whoever takes a payload out of the [`StagingBuffer`] pushes it back.
/// A buffer with less room — the exact-size copies NVRAM restores after a
/// power cycle — is dropped, so a recycled buffer never has to grow.
#[derive(Debug)]
pub struct PayloadPool {
    capacity: usize,
    free: Vec<Vec<u8>>,
    acquired: u64,
    recycled: u64,
}

impl PayloadPool {
    /// A pool of buffers with room for `capacity` bytes each.
    pub fn new(capacity: usize) -> Self {
        PayloadPool { capacity, free: Vec::new(), acquired: 0, recycled: 0 }
    }

    /// A buffer to compress into, recycled — as its last user left it — when
    /// one is waiting.
    pub fn acquire(&mut self) -> Vec<u8> {
        self.acquired += 1;
        let recycled = self.free.pop().inspect(|_| self.recycled += 1);
        recycled.unwrap_or_else(|| Vec::with_capacity(self.capacity))
    }

    /// Take back the payloads that left the staging buffer.
    pub fn release(&mut self, payloads: impl IntoIterator<Item = Vec<u8>>) {
        for buf in payloads {
            if buf.capacity() >= self.capacity && self.free.len() < DEFAULT_POOL_CAP {
                self.free.push(buf);
            }
        }
    }

    /// Buffers currently waiting on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// `(total acquires, acquires served from the free list)`, as
    /// [`kdd_util::PagePool::stats`].
    pub fn stats(&self) -> (u64, u64) {
        (self.acquired, self.recycled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s: StagingBuffer<u32> = StagingBuffer::new(4096);
        s.insert(1, 100);
        s.insert(2, 200);
        assert_eq!(s.len(), 2);
        assert_eq!(s.used_bytes(), 300);
        assert_eq!(s.get(1), Some(&100));
        assert_eq!(s.remove(1), Some(100));
        assert_eq!(s.used_bytes(), 200);
        assert!(!s.contains(1));
    }

    #[test]
    fn coalescing_replaces_in_place() {
        let mut s: StagingBuffer<u32> = StagingBuffer::new(1000);
        assert_eq!(s.insert(7, 400), None);
        assert_eq!(s.insert(7, 600), Some(400), "the newer delta replaces, the older comes back");
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 600);
        assert_eq!(s.get(7), Some(&600));
    }

    #[test]
    fn payload_pool_recycles_roomy_buffers_only() {
        let mut pool = PayloadPool::new(9);
        let mut buf = pool.acquire();
        assert!(buf.capacity() >= 9 && buf.is_empty());
        buf.extend_from_slice(b"delta");
        // An exact-size copy has no room for the next delta: dropped.
        pool.release([buf.clone(), buf]);
        assert_eq!(pool.free_len(), 1);
        assert_eq!(pool.acquire().capacity(), 9);
        assert_eq!(pool.stats(), (2, 1));
        // Bounded: what the free list cannot hold is dropped too.
        pool.release((0..2 * DEFAULT_POOL_CAP).map(|_| Vec::with_capacity(9)));
        assert_eq!(pool.free_len(), DEFAULT_POOL_CAP);
    }

    #[test]
    fn fits_accounts_for_coalescing() {
        let mut s: StagingBuffer<u32> = StagingBuffer::new(1000);
        s.insert(1, 900);
        assert!(!s.fits(2, &200));
        assert!(s.fits(1, &1000), "replacing key 1 frees its 900 bytes");
    }

    #[test]
    fn drain_preserves_fifo_order() {
        let mut s: StagingBuffer<u32> = StagingBuffer::new(4096);
        s.insert(3, 10);
        s.insert(1, 20);
        s.insert(2, 30);
        s.remove(1);
        s.insert(4, 40);
        let drained: Vec<(u64, u32)> = s.drain().collect();
        let keys: Vec<u64> = drained.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 2, 4]);
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn drain_dropped_unconsumed_still_empties_the_buffer() {
        let mut s: StagingBuffer<Vec<u8>> = StagingBuffer::new(4096);
        s.insert(3, vec![1; 10]);
        s.insert(1, vec![2; 20]);
        s.remove(3);
        s.insert(2, vec![3; 30]);
        drop(s.drain());
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(s.snapshot().count(), 0);
        assert!(s.get(1).is_none() && s.get(2).is_none());
        s.insert(2, vec![4; 40]);
        assert_eq!(s.get(2).map(Vec::len), Some(40), "a key staged afterwards is found");
        assert_eq!(s.snapshot().map(|(k, _)| k).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn real_byte_payloads() {
        let mut s: StagingBuffer<Vec<u8>> = StagingBuffer::new(100);
        s.insert(1, vec![0xAA; 60]);
        assert!(!s.fits(2, &vec![0; 50]));
        assert!(s.fits(2, &vec![0; 40]));
        s.insert(2, vec![0xBB; 40]);
        assert_eq!(s.used_bytes(), 100);
        assert_eq!(s.get(1).unwrap().len(), 60);
    }

    #[test]
    fn backing_store_tracks_live_entries_not_history() {
        // The engine's pattern: every write hit inserts, every commit
        // removes one by one — never `drain`.
        let mut s: StagingBuffer<u32> = StagingBuffer::new(4096);
        for i in 0..100_000u64 {
            s.insert(i % 8, 100);
            if i % 3 == 0 {
                s.remove((i / 3) % 8);
            }
            assert!(s.len() <= 8);
            assert!(s.fifo.len() <= 2 * 8 + HOLE_SLACK, "fifo grew to {}", s.fifo.len());
        }
        // A long-lived front entry must not shelter the holes behind it.
        let mut s: StagingBuffer<Vec<u8>> = StagingBuffer::new(4096);
        s.insert(0, vec![1; 8]);
        for i in 0..100_000u64 {
            s.insert(1 + i % 7, vec![2; 8]);
            assert!(s.fifo.len() <= 2 * 8 + HOLE_SLACK, "fifo grew to {}", s.fifo.len());
        }
        assert_eq!(s.snapshot().next().map(|(k, _)| k), Some(0));
        // Removing the last delta leaves no hole behind.
        for key in 0..8 {
            s.remove(key);
        }
        assert!(s.is_empty() && s.fifo.is_empty(), "{} holes left", s.fifo.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Hole reclamation is invisible: `get`, `snapshot` and `drain`
        /// agree with a plain ordered-`Vec` model under random
        /// insert / coalesce / remove sequences.
        #[test]
        fn order_matches_vec_model(
            script in proptest::collection::vec((0u64..24, 0u32..3), 1..600),
        ) {
            let mut s: StagingBuffer<u32> = StagingBuffer::new(u32::MAX);
            let mut model: Vec<(u64, u32)> = Vec::new();
            for (step, &(key, action)) in script.iter().enumerate() {
                model.retain(|&(k, _)| k != key);
                if action == 0 {
                    s.remove(key);
                } else {
                    // Re-inserting a staged key coalesces: newest copy, at the back.
                    s.insert(key, step as u32);
                    model.push((key, step as u32));
                }
                let got: Vec<(u64, u32)> = s.snapshot().map(|(k, p)| (k, *p)).collect();
                proptest::prop_assert_eq!(&got, &model);
                let newest = model.last().filter(|e| e.0 == key).map(|e| &e.1);
                proptest::prop_assert_eq!(s.get(key), newest);
                proptest::prop_assert_eq!(s.used_bytes(), model.iter().map(|e| e.1).sum::<u32>());
            }
            proptest::prop_assert_eq!(s.drain().collect::<Vec<_>>(), model);
            proptest::prop_assert!(s.is_empty() && s.fifo.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut s: StagingBuffer<u32> = StagingBuffer::new(100);
        s.insert(1, 80);
        s.insert(2, 80);
    }

    #[test]
    #[should_panic(expected = "larger than the staging buffer")]
    fn oversized_payload_panics() {
        let mut s: StagingBuffer<u32> = StagingBuffer::new(100);
        s.insert(1, 101);
    }
}
