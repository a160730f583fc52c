//! Counting global allocator: the source of `allocs_per_op`,
//! `alloc_bytes_per_op` and `peak_heap_mb`.
//!
//! Counts what the program *asks* the allocator for (calls, requested
//! bytes, live bytes and their high-water mark), so the numbers depend on
//! the code and its inputs only — unlike RSS they repeat exactly.
//!
//! The counters are thread-local cells rather than shared atomics: the
//! benchmark runs everything on one thread, so nothing is lost, and
//! `cargo test` (which runs tests on parallel threads) cannot disturb a
//! test that compares counts. Memory freed on another thread than the one
//! that allocated it would skew `live`; the benchmark never does that.
//!
//! This file holds the only `unsafe` in the repository; it is confined to
//! the benchmark package.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and `Cell<u64>` (no destructor): accessing
    // these never allocates and never registers a TLS destructor, so the
    // allocator cannot recurse into itself.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note_alloc(size: usize) {
    let size = size as u64;
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size));
    let live = LIVE.with(|c| {
        let v = c.get() + size;
        c.set(v);
        v
    });
    PEAK.with(|c| {
        if live > c.get() {
            c.set(live);
        }
    });
}

#[inline]
fn note_free(size: usize) {
    LIVE.with(|c| c.set(c.get().saturating_sub(size as u64)));
}

/// `System`, with every request counted on the calling thread.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the call only
// touches `Cell<u64>` thread-locals, never the returned memory, and never
// allocates (see the note on the thread-locals above).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    // Forwarded (not left to the default `alloc` + memset) so `vec![0; n]`
    // keeps the speed it has in the measured program outside the benchmark.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`; this allocator hands out `System` memory only.
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as `dealloc` for `ptr`/`layout`; `new_size`
        // is the caller's, passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The calling thread's counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// High-water mark of `live` since the last [`reset_peak`].
    pub peak: u64,
}

impl AllocSnapshot {
    /// Calls and bytes since `earlier` (live/peak are not differences and
    /// are left at this snapshot's values).
    #[must_use]
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            live: self.live,
            peak: self.peak,
        }
    }
}

/// Read the calling thread's counters.
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        live: LIVE.with(Cell::get),
        peak: PEAK.with(Cell::get),
    }
}

/// Restart the high-water mark from the current live size.
pub fn reset_peak() {
    let live = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_bytes_live_and_peak() {
        reset_peak();
        let a = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1000);
        let b = snapshot();
        assert_eq!(b.since(&a).calls, 1);
        assert_eq!(b.since(&a).bytes, 1000);
        assert_eq!(b.live - a.live, 1000);
        drop(v);
        let c = snapshot();
        assert_eq!(c.live, a.live);
        assert!(c.peak >= a.live + 1000, "the high-water mark outlives the free");
        reset_peak();
        assert_eq!(snapshot().peak, snapshot().live);
    }

    #[test]
    fn realloc_counts_the_new_size_and_keeps_live_exact() {
        let a = snapshot();
        let mut v: Vec<u8> = Vec::with_capacity(16);
        v.extend_from_slice(&[1u8; 16]);
        v.reserve_exact(48); // grows 16 -> 64 through realloc
        let b = snapshot();
        assert_eq!(b.since(&a).calls, 2);
        assert_eq!(b.since(&a).bytes, 16 + 64);
        assert_eq!(b.live - a.live, 64);
    }

    #[test]
    fn zeroed_allocations_are_counted_and_zero() {
        let a = snapshot();
        let v = vec![0u8; 4096];
        let b = snapshot();
        assert_eq!(b.since(&a).calls, 1);
        assert_eq!(b.since(&a).bytes, 4096);
        assert!(v.iter().all(|&x| x == 0));
    }
}
