//! NVRAM-backed metadata buffer of the LeavO baseline.
//!
//! §IV-A1: "For fair comparisons, the NVRAM buffer is employed in all of
//! the algorithms." Mapping entries accumulate in NVRAM; when a page's
//! worth is buffered, the batch is committed to flash as one metadata-page
//! write. LeavO appends entries uncoalesced; KDD's coalescing buffer
//! (a newer entry for the same DAZ page overwrites the buffered one,
//! §III-C) is `kdd_core::MetaLog`.

use serde::{Deserialize, Serialize};

/// Bytes per persistent mapping entry on flash: two 4-byte LBAs, a 1-byte
/// state and the 3-byte `(off, len)` tuple (§III-C). The paper's 24-byte
/// figure additionally counts 12 bytes of *in-memory* list pointers, which
/// never reach the SSD.
pub const ENTRY_BYTES: u32 = 12;

/// An NVRAM metadata buffer committing page-sized batches to flash.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetadataBuffer {
    entries_per_page: u32,
    buffered: u32,
}

impl MetadataBuffer {
    /// Create a buffer batching entries into `page_size`-byte pages.
    pub fn new(page_size: u32) -> Self {
        MetadataBuffer { entries_per_page: (page_size / ENTRY_BYTES).max(1), buffered: 0 }
    }

    /// Entries that fit one metadata page.
    pub fn entries_per_page(&self) -> u32 {
        self.entries_per_page
    }

    /// Entries currently buffered.
    pub fn buffered_entries(&self) -> u32 {
        self.buffered
    }

    /// Record one mapping update; returns the number of metadata pages
    /// flushed to flash as a result (0 or 1).
    pub fn push(&mut self) -> u32 {
        self.buffered += 1;
        if self.buffered >= self.entries_per_page {
            self.flush()
        } else {
            0
        }
    }

    /// Force-commit whatever is buffered (e.g. at shutdown); returns pages
    /// written.
    pub fn flush(&mut self) -> u32 {
        let n = self.buffered;
        if n == 0 {
            return 0;
        }
        let pages = n.div_ceil(self.entries_per_page);
        self.buffered = 0;
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appending_buffer_flushes_per_page() {
        let mut b = MetadataBuffer::new(4096);
        let epp = b.entries_per_page();
        assert_eq!(epp, 341);
        let mut pages = 0;
        for _ in 0..epp * 3 {
            pages += b.push();
        }
        assert_eq!(pages, 3);
    }

    #[test]
    fn tiny_pages_still_hold_one_entry() {
        let mut b = MetadataBuffer::new(8);
        assert_eq!(b.entries_per_page(), 1);
        assert_eq!(b.push(), 1);
    }
}
