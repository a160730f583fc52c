//! The foreground service-time model.
//!
//! The response a client sees is dominated by which devices sit on the
//! critical path:
//!
//! * a **RAID round** is a batch of member-disk operations that proceed in
//!   parallel (the two reads of a read-modify-write are one round; the two
//!   writes are a second) — each round costs one random disk access,
//!   ~12.7 ms at 7200 RPM;
//! * **SSD reads** on the critical path cost ~70 µs per round (reads in
//!   the same round use different channels — KDD fetches data + delta
//!   concurrently, §IV-B2);
//! * **SSD writes** overlap disk I/O when any RAID round is present
//!   (0.9 ms ≪ 12.7 ms), so they only appear in the response when the
//!   request touches no disk (pure cache write);
//! * delta compression/decompression cost tens of microseconds (§IV-B2).

use kdd_blockdev::flash::FlashTimings;
use kdd_blockdev::hdd::HddModel;
use kdd_cache::effects::Effects;
use kdd_delta::codec;
use kdd_obs::{Stage, StageTimes};
use kdd_util::units::SimTime;

/// Per-operation service times.
#[derive(Debug, Clone, Copy)]
pub struct ServiceModel {
    /// One random member-disk access (seek + rotation + transfer).
    pub hdd_op: SimTime,
    /// One SSD read round (sense + transfer).
    pub ssd_read: SimTime,
    /// One SSD page program.
    pub ssd_write: SimTime,
    /// One delta compression.
    pub compress: SimTime,
    /// One delta decompression + combine.
    pub decompress: SimTime,
}

impl ServiceModel {
    /// The paper's testbed: 7200 RPM disks, MLC SSD, lzo-class codec.
    pub fn paper_default() -> Self {
        let mut hdd = HddModel::enterprise_7200rpm(1 << 28, 4096);
        // Mean random access: average seek + half rotation + one page.
        let hdd_op = hdd.access(1 << 27);
        let flash = FlashTimings::mlc_default();
        ServiceModel {
            hdd_op,
            ssd_read: flash.read_page + flash.xfer_page,
            ssd_write: flash.program_page + flash.xfer_page,
            compress: codec::ENCODE_TIME,
            decompress: codec::DECODE_TIME,
        }
    }

    /// The cost terms of one request's effects, each with the stage it is
    /// charged to. SSD programs overlap a (much slower) disk round, so
    /// they cost time only when the request touches no disk.
    fn terms(&self, is_read: bool, fx: &Effects) -> [(Stage, SimTime); 4] {
        let device = if fx.raid_rounds > 0 {
            let raid = if is_read { Stage::RaidRead } else { Stage::RaidWrite };
            (raid, self.hdd_op * u64::from(fx.raid_rounds))
        } else {
            (Stage::SsdWrite, self.ssd_write * u64::from(fx.ssd_writes()))
        };
        [
            (Stage::DeltaEncode, self.compress * u64::from(fx.compressions)),
            (Stage::DeltaDecode, self.decompress * u64::from(fx.decompressions)),
            (Stage::SsdRead, self.ssd_read * u64::from(fx.ssd_read_rounds)),
            device,
        ]
    }

    /// Foreground response time of one request's effects: the sum of
    /// its cost terms.
    pub fn response_time(&self, fx: &Effects) -> SimTime {
        self.terms(false, fx).iter().map(|&(_, t)| t).sum()
    }

    /// Stage attribution of [`Self::response_time`]: the same cost
    /// terms, charged to the `kdd-obs/v2` stage taxonomy, so the
    /// counting-model simulators emit the same span breakdowns the
    /// engine does. The returned breakdown sums to *exactly*
    /// `response_time(fx)` — the queueing delay a driver adds on top is
    /// the only unattributed remainder, which is what keeps the
    /// conservation invariant (stage sum ≤ span duration) intact.
    pub fn stage_times(&self, is_read: bool, fx: &Effects) -> StageTimes {
        let mut st = StageTimes::new();
        for (stage, t) in self.terms(is_read, fx) {
            st.add(stage, t);
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx() -> Effects {
        Effects::default()
    }

    #[test]
    fn paper_defaults_are_sane() {
        let m = ServiceModel::paper_default();
        assert!(m.hdd_op > SimTime::from_millis(5), "disk op {}", m.hdd_op);
        assert!(m.hdd_op < SimTime::from_millis(30));
        assert!(m.ssd_read < SimTime::from_micros(200));
        assert!(m.ssd_write > m.ssd_read);
    }

    #[test]
    fn small_write_costs_two_disk_rounds() {
        let m = ServiceModel::paper_default();
        let small_write = Effects { raid_reads: 2, raid_writes: 2, raid_rounds: 2, ..fx() };
        let t = m.response_time(&small_write);
        assert_eq!(t, m.hdd_op * 2);
        let data_only = Effects { raid_writes: 1, raid_rounds: 1, ..fx() };
        assert_eq!(m.response_time(&data_only), m.hdd_op);
    }

    #[test]
    fn cache_hit_is_microseconds() {
        let m = ServiceModel::paper_default();
        let read_hit = Effects { ssd_reads: 1, ssd_read_rounds: 1, ..fx() };
        assert!(m.response_time(&read_hit) < SimTime::from_millis(1));
        // KDD old-page hit: 2 reads in 1 round + decompress.
        let old_hit = Effects { ssd_reads: 2, ssd_read_rounds: 1, decompressions: 1, ..fx() };
        let t = m.response_time(&old_hit);
        assert!(t < SimTime::from_millis(1), "delta combine must stay cheap: {t}");
    }

    #[test]
    fn ssd_writes_overlap_disk_io() {
        let m = ServiceModel::paper_default();
        let wt_write =
            Effects { ssd_data_writes: 1, raid_reads: 2, raid_writes: 2, raid_rounds: 2, ..fx() };
        let no_ssd = Effects { raid_reads: 2, raid_writes: 2, raid_rounds: 2, ..fx() };
        assert_eq!(m.response_time(&wt_write), m.response_time(&no_ssd));
        // But a pure cache write does pay the program time.
        let pure = Effects { ssd_data_writes: 1, ..fx() };
        assert_eq!(m.response_time(&pure), m.ssd_write);
    }

    /// Both read one list of cost terms, so the stage breakdown sums to
    /// the response time, on disk and off it.
    #[test]
    fn stage_times_sum_to_the_response_time() {
        let m = ServiceModel::paper_default();
        for effects in [
            Effects { ssd_data_writes: 1, raid_reads: 2, raid_writes: 2, raid_rounds: 2, ..fx() },
            Effects { ssd_reads: 2, ssd_read_rounds: 1, decompressions: 1, ..fx() },
            Effects { ssd_delta_writes: 1, ssd_read_rounds: 1, compressions: 1, ..fx() },
            fx(),
        ] {
            for is_read in [false, true] {
                let st = m.stage_times(is_read, &effects);
                assert_eq!(st.total_ns(), m.response_time(&effects).as_nanos(), "{effects:?}");
            }
        }
    }
}
