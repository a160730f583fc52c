//! Device-operation accounting for one cache access.
//!
//! A policy returns, for every request, the set of device operations that
//! request implies. The trace-driven experiments sum them into traffic
//! counters; the timing simulator converts them into service times. The
//! split between `foreground` (on the request's critical path) and
//! `background` (cleaning/flushing that proceeds asynchronously) matters
//! only for latency: background work still counts as SSD wear.

use std::ops::AddAssign;

/// Counted device operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// SSD page reads.
    pub ssd_reads: u32,
    /// Serialised SSD read rounds: reads that can use distinct channels in
    /// parallel count as one round (KDD reads data + delta concurrently,
    /// §IV-B2).
    pub ssd_read_rounds: u32,
    /// SSD full-page data writes (read fills, write allocations, in-place
    /// updates, LeavO new versions).
    pub ssd_data_writes: u32,
    /// SSD delta-page writes (KDD's compacted DEZ commits).
    pub ssd_delta_writes: u32,
    /// SSD metadata-page writes (persistent mapping log).
    pub ssd_meta_writes: u32,
    /// RAID member-disk page reads (data or parity).
    pub raid_reads: u32,
    /// RAID member-disk page writes (data or parity).
    pub raid_writes: u32,
    /// Serialised RAID rounds: a read-modify-write is 2 rounds (read old
    /// data+parity in parallel, then write data+parity in parallel).
    pub raid_rounds: u32,
    /// Delta compressions performed (CPU cost).
    pub compressions: u32,
    /// Delta decompressions performed (CPU cost).
    pub decompressions: u32,
}

impl Effects {
    /// Total SSD page writes of any kind.
    pub fn ssd_writes(&self) -> u32 {
        self.ssd_data_writes + self.ssd_delta_writes + self.ssd_meta_writes
    }

    /// One plain SSD read.
    pub fn ssd_read() -> Effects {
        Effects { ssd_reads: 1, ssd_read_rounds: 1, ..Default::default() }
    }

    /// One plain SSD data-page write.
    pub fn ssd_write() -> Effects {
        Effects { ssd_data_writes: 1, ..Default::default() }
    }
}

impl AddAssign for Effects {
    fn add_assign(&mut self, rhs: Effects) {
        self.ssd_reads += rhs.ssd_reads;
        self.ssd_read_rounds += rhs.ssd_read_rounds;
        self.ssd_data_writes += rhs.ssd_data_writes;
        self.ssd_delta_writes += rhs.ssd_delta_writes;
        self.ssd_meta_writes += rhs.ssd_meta_writes;
        self.raid_reads += rhs.raid_reads;
        self.raid_writes += rhs.raid_writes;
        self.raid_rounds += rhs.raid_rounds;
        self.compressions += rhs.compressions;
        self.decompressions += rhs.decompressions;
    }
}

/// What one request produced: whether it hit, plus foreground and
/// background operation sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the request hit in the cache.
    pub hit: bool,
    /// Operations on the request's critical path.
    pub foreground: Effects,
    /// Deferred operations (cleaning, flushes) attributable to this
    /// request but off the critical path.
    pub background: Effects,
}

impl AccessOutcome {
    /// A pure hit/miss marker with the given foreground effects.
    pub fn new(hit: bool, foreground: Effects) -> Self {
        AccessOutcome { hit, foreground, background: Effects::default() }
    }

    /// Total effects regardless of criticality (for traffic accounting).
    pub fn total(&self) -> Effects {
        let mut t = self.foreground;
        t += self.background;
        t
    }

    /// Convert this outcome into an observability completion record so
    /// every policy (via the sim drivers) feeds the same span stream the
    /// engine does. The hit class here is the coarse four-way split;
    /// KDD's engine refines write hits into delta/through itself.
    pub fn to_obs(
        &self,
        is_read: bool,
        lba: u64,
        service: kdd_util::SimTime,
    ) -> kdd_obs::Completion {
        use kdd_obs::{HitClass, ReqKind};
        let kind = if is_read { ReqKind::Read } else { ReqKind::Write };
        let class = match (is_read, self.hit) {
            (true, true) => HitClass::ReadHit,
            (true, false) => HitClass::ReadMiss,
            (false, true) => HitClass::WriteHit,
            (false, false) => HitClass::WriteMiss,
        };
        let t = self.total();
        let mut c = kdd_obs::Completion::new(kind, lba, class, service);
        c.ssd_reads = t.ssd_reads;
        c.ssd_writes = t.ssd_writes();
        c.raid_reads = t.raid_reads;
        c.raid_writes = t.raid_writes;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_fields() {
        let mut a = Effects::ssd_read();
        a += Effects::ssd_write();
        a += Effects { raid_reads: 2, raid_writes: 2, raid_rounds: 2, ..Default::default() };
        assert_eq!(a.ssd_reads, 1);
        assert_eq!(a.ssd_data_writes, 1);
        assert_eq!(a.raid_reads, 2);
        assert_eq!(a.ssd_writes(), 1);
    }

    #[test]
    fn outcome_total_merges() {
        let mut o = AccessOutcome::new(true, Effects::ssd_read());
        o.background = Effects { ssd_meta_writes: 3, ..Default::default() };
        let t = o.total();
        assert_eq!(t.ssd_reads, 1);
        assert_eq!(t.ssd_meta_writes, 3);
        assert_eq!(t.ssd_writes(), 3);
    }
}
