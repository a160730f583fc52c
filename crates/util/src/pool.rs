//! A free-list pool of page-sized buffers.
//!
//! The hot paths of the engine, RAID array, and cache move whole pages
//! around constantly: parity folds, delta computation, eviction write-back,
//! recovery. Allocating a fresh `vec![0u8; page_size]` for each of those is
//! the single largest per-op cost after the kernels themselves. [`PagePool`]
//! keeps returned buffers on a bounded free list so steady-state operation
//! recycles the same few pages instead of round-tripping the allocator.
//!
//! Design constraints, in priority order:
//!
//! * **Determinism** — the pool affects *where* bytes live, never *what*
//!   they are: [`PagePool::acquire`] always returns an all-zero page
//!   ([`PagePool::acquire_scratch`] skips the fill for callers that
//!   overwrite the whole page before reading any of it), and a cloned pool
//!   starts with an empty free list so clones share no state.
//! * **No `unsafe`** — recycled pages are zeroed with `fill(0)`; there is
//!   no uninitialised memory anywhere.
//! * **Bounded** — the free list is capped; beyond the cap, released pages
//!   are simply dropped.

/// Default maximum number of pages kept on the free list. One RAID row plus
/// parity scratch for the widest supported layout fits comfortably.
pub const DEFAULT_POOL_CAP: usize = 64;

/// A bounded free list of `Box<[u8]>` page buffers of one fixed size.
#[derive(Debug)]
pub struct PagePool {
    page_size: usize,
    cap: usize,
    free: Vec<Box<[u8]>>,
    acquired: u64,
    recycled: u64,
}

impl PagePool {
    /// A pool of `page_size`-byte buffers with the default free-list cap.
    pub fn new(page_size: usize) -> Self {
        Self::with_capacity(page_size, DEFAULT_POOL_CAP)
    }

    /// A pool keeping at most `cap` free buffers.
    pub fn with_capacity(page_size: usize, cap: usize) -> Self {
        assert!(page_size > 0, "page_size must be non-zero");
        PagePool { page_size, cap, free: Vec::new(), acquired: 0, recycled: 0 }
    }

    /// The fixed buffer size this pool hands out.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Take a zeroed page buffer, recycling a released one when available.
    pub fn acquire(&mut self) -> Box<[u8]> {
        self.acquired += 1;
        match self.free.pop() {
            Some(mut page) => {
                self.recycled += 1;
                page.fill(0);
                page
            }
            None => vec![0u8; self.page_size].into_boxed_slice(),
        }
    }

    /// Take a page buffer the caller is about to overwrite completely. Its
    /// contents are unspecified — whatever the last user left, zeros when
    /// fresh — so nothing that is read before being written may depend on
    /// them; in exchange a recycled page is not zero-filled first.
    pub fn acquire_scratch(&mut self) -> Box<[u8]> {
        self.acquired += 1;
        match self.free.pop() {
            Some(page) => {
                self.recycled += 1;
                page
            }
            None => vec![0u8; self.page_size].into_boxed_slice(),
        }
    }

    /// Take a page buffer initialised to a copy of `data`.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the pool's page size.
    pub fn acquire_from(&mut self, data: &[u8]) -> Box<[u8]> {
        assert_eq!(data.len(), self.page_size, "acquire_from size mismatch");
        self.acquired += 1;
        match self.free.pop() {
            Some(mut page) => {
                self.recycled += 1;
                page.copy_from_slice(data);
                page
            }
            None => data.to_vec().into_boxed_slice(),
        }
    }

    /// Return a buffer to the free list. Wrong-sized buffers and overflow
    /// beyond the cap are dropped silently — release never fails.
    pub fn release(&mut self, page: Box<[u8]>) {
        if page.len() == self.page_size && self.free.len() < self.cap {
            self.free.push(page);
        }
    }

    /// Buffers currently waiting on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// `(total acquires, acquires served from the free list)` — for
    /// diagnostics and the recycling tests.
    pub fn stats(&self) -> (u64, u64) {
        (self.acquired, self.recycled)
    }
}

/// Clones share the page size and cap but **not** the free list or
/// counters: buffer reuse order in one clone must never depend on activity
/// in another (determinism across e.g. a cloned engine).
impl Clone for PagePool {
    fn clone(&self) -> Self {
        PagePool::with_capacity(self.page_size, self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_zeroed_after_dirty_release() {
        let mut pool = PagePool::new(64);
        let mut page = pool.acquire();
        page.fill(0xAB);
        pool.release(page);
        let page = pool.acquire();
        assert!(page.iter().all(|&b| b == 0), "recycled page leaked stale bytes");
        assert_eq!(pool.stats(), (2, 1));
    }

    #[test]
    fn acquire_scratch_recycles_without_zeroing() {
        let mut pool = PagePool::new(8);
        assert!(pool.acquire_scratch().iter().all(|&b| b == 0), "a fresh page is zeroed");
        let mut page = pool.acquire();
        page.fill(0xAB);
        pool.release(page);
        assert_eq!(&pool.acquire_scratch()[..], &[0xAB; 8], "recycled as it was left");
        assert_eq!(pool.stats(), (3, 1));
    }

    #[test]
    fn acquire_from_copies() {
        let mut pool = PagePool::new(4);
        let mut page = pool.acquire();
        page.fill(0xEE);
        pool.release(page);
        let page = pool.acquire_from(&[1, 2, 3, 4]);
        assert_eq!(&page[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn cap_bounds_free_list_and_wrong_size_dropped() {
        let mut pool = PagePool::with_capacity(8, 2);
        for _ in 0..5 {
            let page = pool.acquire();
            pool.release(page);
        }
        pool.release(vec![0u8; 8].into_boxed_slice());
        pool.release(vec![0u8; 8].into_boxed_slice());
        pool.release(vec![0u8; 8].into_boxed_slice());
        assert_eq!(pool.free_len(), 2);
        pool.release(vec![0u8; 7].into_boxed_slice()); // wrong size: dropped
        assert_eq!(pool.free_len(), 2);
    }

    #[test]
    fn clone_starts_empty() {
        let mut pool = PagePool::new(16);
        let page = pool.acquire();
        pool.release(page);
        assert_eq!(pool.free_len(), 1);
        let clone = pool.clone();
        assert_eq!(clone.free_len(), 0);
        assert_eq!(clone.stats(), (0, 0));
        assert_eq!(clone.page_size(), 16);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn acquire_from_wrong_size_panics() {
        let mut pool = PagePool::new(16);
        let _ = pool.acquire_from(&[0u8; 8]);
    }
}
