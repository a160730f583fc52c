//! The uniform trace format every parser and generator produces.
//!
//! "The simulator first converts raw traces into a uniform format and then
//! processes trace requests one by one according to the timestamp of each
//! request" (§IV-A1). Addresses are page-granular (4 KiB by default) —
//! multi-page requests carry a length and the consumer expands them.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

use kdd_util::units::SimTime;

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read request.
    Read,
    /// Write request.
    Write,
}

/// One block-level request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time relative to trace start.
    pub time: SimTime,
    /// Read or write.
    pub op: Op,
    /// First page touched.
    pub lba: u64,
    /// Pages touched (>= 1).
    pub len: u32,
}

impl TraceRecord {
    /// The pages this request touches.
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.lba..self.lba + self.len as u64
    }
}

/// An in-memory trace: records sorted by arrival time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The requests, in time order.
    pub records: Vec<TraceRecord>,
    /// Page size the LBAs are expressed in.
    pub page_size: u32,
}

impl Trace {
    /// Create an empty trace with the given page size.
    pub fn new(page_size: u32) -> Self {
        Trace { records: Vec::new(), page_size }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Trace duration (arrival of the last request).
    pub fn duration(&self) -> SimTime {
        self.records.last().map_or(SimTime::ZERO, |r| r.time)
    }

    /// Largest page number touched plus one (address-space size).
    pub fn address_space_pages(&self) -> u64 {
        self.records.iter().map(|r| r.lba + r.len as u64).max().unwrap_or(0)
    }

    /// Ensure time-ordering (parsers call this defensively).
    pub fn sort_by_time(&mut self) {
        self.records.sort_by_key(|r| r.time);
    }

    /// Keep only the first `n` requests (for scaled-down experiments).
    pub fn truncate(&mut self, n: usize) {
        self.records.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_expand_length() {
        let r = TraceRecord { time: SimTime::ZERO, op: Op::Write, lba: 10, len: 3 };
        assert_eq!(r.pages().collect::<Vec<_>>(), vec![10, 11, 12]);
    }

    #[test]
    fn trace_helpers() {
        let mut t = Trace::new(4096);
        assert!(t.is_empty());
        t.records.push(TraceRecord {
            time: SimTime::from_millis(5),
            op: Op::Read,
            lba: 100,
            len: 2,
        });
        t.records.push(TraceRecord {
            time: SimTime::from_millis(2),
            op: Op::Write,
            lba: 7,
            len: 1,
        });
        t.sort_by_time();
        assert_eq!(t.records[0].lba, 7);
        assert_eq!(t.duration(), SimTime::from_millis(5));
        assert_eq!(t.address_space_pages(), 102);
        assert_eq!(t.len(), 2);
        t.truncate(1);
        assert_eq!(t.len(), 1);
    }
}
