//! Discrete-event open-loop replay: per-member-disk FIFO queues with
//! head-position-aware service times.
//!
//! The algebraic replayer ([`crate::openloop`]) treats the array as `k`
//! interchangeable servers with a fixed random-access cost. This module
//! refines both approximations:
//!
//! * each member disk is its own FIFO queue, and a request's member
//!   operations go to the *actual* disks its LBA and parity placement
//!   imply (via [`Layout`]);
//! * service times come from the mechanical [`HddModel`], so they depend
//!   on the seek distance from wherever the head last landed — sequential
//!   runs are cheap, cross-platter jumps are not.
//!
//! A request proceeds in rounds (the read round of a read-modify-write,
//! then the write round on the same member pages); a round completes when
//! its last member operation finishes, upon which the next round is
//! enqueued. SSD and CPU time are added at completion (the flash is two
//! orders of magnitude faster than the disks and never queues here), and
//! only `outcome.foreground` is replayed: `outcome.background` (cleaner
//! I/O) is not queued on the member disks, exactly as in [`crate::openloop`].
//!
//! Live state follows the queue depth, not the trace length. An in-flight
//! request holds one 24-byte `Slot`: the one `disk_page` its data, P and Q
//! share, a wrapping `credit` that folds its arrival and SSD/CPU time into
//! one word, and its member ids as `u16`s. Slots sit in fixed chunks of
//! 1 024 that never move, so the table grows without copying, and a
//! finished slot waits on a free list threaded through the slot itself.
//! Each queued member op is a 4-byte slot id in its disk's FIFO: at most
//! 40 bytes per in-flight request with every table's growth slack counted,
//! which a test holds on a Fin1 backlog of 24 007 requests. Slots are
//! recycled when their response is recorded, and the event heap holds at
//! most one completion per disk. Once the slot table and FIFOs have grown
//! to the peak backlog a request allocates nothing, and its address is
//! decoded once.

// Indexing here is bounds-audited: slot ids come from the slot table's own
// length, member ids from `Layout::locate`. Every narrowing is a `try_from`.
#![allow(clippy::indexing_slicing)]

use crate::service::ServiceModel;
use kdd_blockdev::hdd::HddModel;
use kdd_cache::effects::Effects;
use kdd_cache::policies::CachePolicy;
use kdd_raid::layout::Layout;
use kdd_trace::record::Trace;
use kdd_util::stats::{Histogram, StreamingStats};
use kdd_util::units::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A P or Q member a request does not touch. [`Layout::new`] keeps every
/// real member id below it.
const ABSENT: u16 = u16::MAX;
const _: () = assert!(Layout::MAX_DISKS == ABSENT as usize);

/// One in-flight request across its rounds: both rounds of a
/// read-modify-write touch the same members at the same `disk_page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// The data page's offset on its disk; P and Q of its row sit at the
    /// same offset on theirs. A free slot keeps the next free slot's id
    /// here (see [`SlotTable`]).
    disk_page: u64,
    /// `ssd_cpu − arrival` in nanoseconds, wrapping: the flash + CPU time
    /// added once all disk rounds are done, less the arrival time. See
    /// [`Slot::response`].
    credit: u64,
    /// Data, P and Q member disks; a member the request skips is [`ABSENT`],
    /// and only trailing members are ever absent.
    members: [u16; 3],
    /// Rounds still to run, the current one included.
    rounds_left: u8,
    /// Member ops of the current round still outstanding.
    outstanding: u8,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Slot {
    /// A slot no request holds yet.
    const VACANT: Slot =
        Slot { disk_page: 0, credit: 0, members: [ABSENT; 3], rounds_left: 0, outstanding: 0 };

    /// The member disks each round touches: data, then P and Q if present.
    fn disks(&self) -> impl Iterator<Item = usize> {
        self.members.into_iter().take_while(|&m| m != ABSENT).map(usize::from)
    }

    /// This slot for a request arriving at `arrival` that spends `ssd_cpu`
    /// on flash and CPU.
    fn timed(self, arrival: SimTime, ssd_cpu: SimTime) -> Slot {
        Slot { credit: ssd_cpu.as_nanos().wrapping_sub(arrival.as_nanos()), ..self }
    }

    /// The response time of a request whose last round completes at
    /// `completion`: `completion + ssd_cpu − arrival`. The wrapping sum
    /// is that integer exactly, because a request never completes before
    /// it arrives, so the true value lies in `0..2^64`.
    fn response(&self, completion: SimTime) -> SimTime {
        SimTime::from_nanos(completion.as_nanos().wrapping_add(self.credit))
    }
}

/// Slots per chunk of the [`SlotTable`].
const CHUNK: usize = 1024;

/// Request slots, indexed by `u32` id: id `i` lives at offset
/// `i % CHUNK` of chunk `i / CHUNK`. Chunks are fixed arrays that never
/// move, so growing the table allocates one chunk and copies nothing.
/// Finished slots form a LIFO free list threaded through their
/// `disk_page`, so a slot is reused before the table grows, most recently
/// freed first.
#[derive(Default)]
struct SlotTable {
    chunks: Vec<Box<[Slot; CHUNK]>>,
    /// Slots ever handed out: a slot is added only when none is free, so
    /// this is the peak number of requests in flight at once.
    len: usize,
    /// The most recently freed slot.
    free: Option<u32>,
}

impl SlotTable {
    /// Hold `slot` in a free slot if any, else in a new one; `None` once
    /// ids run past `u32::MAX`.
    fn admit(&mut self, slot: Slot) -> Option<u32> {
        if let Some(id) = self.free {
            // A free slot's link is a `u32` id or `u64::MAX`, the list's end.
            self.free = u32::try_from(std::mem::replace(&mut self[id], slot).disk_page).ok();
            return Some(id);
        }
        let id = u32::try_from(self.len).ok()?;
        if self.len % CHUNK == 0 {
            self.chunks.push(Box::new([Slot::VACANT; CHUNK]));
        }
        self.len += 1;
        self[id] = slot;
        Some(id)
    }

    /// Put slot `id`, whose request has finished, at the head of the free
    /// list.
    fn release(&mut self, id: u32) {
        let next = self.free.map_or(u64::MAX, u64::from);
        self[id].disk_page = next;
        self.free = Some(id);
    }
}

impl std::ops::Index<u32> for SlotTable {
    type Output = Slot;

    fn index(&self, id: u32) -> &Slot {
        let id = id as usize;
        &self.chunks[id / CHUNK][id % CHUNK]
    }
}

impl std::ops::IndexMut<u32> for SlotTable {
    fn index_mut(&mut self, id: u32) -> &mut Slot {
        let id = id as usize;
        &mut self.chunks[id / CHUNK][id % CHUNK]
    }
}

/// A member disk: FIFO of slot ids + mechanical model.
struct DiskSim {
    model: HddModel,
    /// Requests with an op queued here, oldest first. An op's page is its
    /// slot's `disk_page`, read when the op reaches the head.
    queue: VecDeque<u32>,
    busy_until: SimTime,
    /// The request whose op is under the head.
    current: Option<u32>,
}

impl DiskSim {
    fn new(capacity_pages: u64, page_size: u32) -> Self {
        DiskSim {
            model: HddModel::enterprise_7200rpm(capacity_pages, page_size),
            queue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            current: None,
        }
    }

    /// Put request `id`'s op on `disk_page` under the head at `at`; returns
    /// its completion time.
    fn begin(&mut self, at: SimTime, id: u32, disk_page: u64) -> SimTime {
        self.busy_until = at + self.model.access(disk_page, 1);
        self.current = Some(id);
        self.busy_until
    }

    /// Enqueue request `id`'s op; if idle, start it and return its
    /// completion time.
    fn push(&mut self, now: SimTime, id: u32, disk_page: u64) -> Option<SimTime> {
        if self.current.is_none() {
            return Some(self.begin(now.max(self.busy_until), id, disk_page));
        }
        self.queue.push_back(id);
        None
    }

    /// The current op finished (`None` if the disk was idle); start the next
    /// one if any, at its slot's `disk_page`, and return the finished
    /// request's id and the next op's completion time.
    fn complete(&mut self, now: SimTime, slots: &SlotTable) -> Option<(u32, Option<SimTime>)> {
        let done = self.current.take()?;
        let next = self.queue.pop_front().map(|id| self.begin(now, id, slots[id].disk_page));
        Some((done, next))
    }
}

/// Results of a DES replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesReport {
    /// Policy display name.
    pub policy: String,
    /// Requests replayed.
    pub requests: u64,
    /// Mean response time.
    pub mean_response: SimTime,
    /// 99th percentile response time.
    pub p99: SimTime,
    /// Cache hit ratio over the run.
    pub hit_ratio: f64,
    /// Mean member-disk queue depth sampled at arrivals.
    pub mean_queue_depth: f64,
}

/// `disk` as a [`Slot`] member id; `None` only for a layout with more than
/// [`Layout::MAX_DISKS`] members, which [`Layout::new`] refuses.
fn member_id(disk: usize) -> Option<u16> {
    let id = u16::try_from(disk).ok().filter(|&id| id != ABSENT);
    debug_assert!(id.is_some(), "member {disk} past Layout::MAX_DISKS");
    id
}

/// Derive the member-disk operations a request's foreground effects imply
/// (`None`: it touches no disk), as a slot with zero arrival and SSD/CPU
/// time. `capacity` is `layout.capacity_pages()`. The mapping follows the
/// array's actual behaviour for the patterns the policies emit: a plain read
/// touches the page's disk; a small write reads the page's disk + its parity
/// disk(s), then writes them; a `write_no_parity_update` writes only the
/// page's disk. P and Q of a row sit at the data page's own `disk_page`, so
/// one `locate` places all three.
fn phases_for(layout: &Layout, capacity: u64, lba: u64, fx: &Effects) -> Option<Slot> {
    if fx.raid_rounds == 0 {
        return None;
    }
    let loc = layout.locate(if lba >= capacity { lba % capacity } else { lba });
    let mut slot = Slot {
        disk_page: loc.disk_page,
        credit: 0,
        members: [member_id(loc.disk)?, ABSENT, ABSENT],
        rounds_left: 1,
        outstanding: 0,
    };
    if fx.raid_rounds >= 2 {
        // Read-modify-write: read round then write round on the same set.
        slot.rounds_left = 2;
        let members = fx.raid_reads.max(fx.raid_writes);
        let p = if members >= 2 { layout.parity_disk(loc.stripe) } else { None };
        let q = if members >= 3 { layout.q_disk(loc.stripe) } else { None };
        for (member, disk) in slot.members[1..].iter_mut().zip([p, q].into_iter().flatten()) {
            *member = member_id(disk)?;
        }
    }
    Some(slot)
}

/// Member disks, in-flight requests, pending completions and response times.
struct Replayer {
    disks: Vec<DiskSim>,
    /// In-flight requests' slots, and the finished ones awaiting reuse.
    slots: SlotTable,
    /// Disk completions as (time, seq, disk): at most one per disk, since a
    /// disk's next op starts only when its current one completes.
    events: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
    stats: StreamingStats,
    hist: Histogram,
}

impl Replayer {
    fn new(layout: &Layout, page_size: u32) -> Self {
        Replayer {
            disks: (0..layout.disks).map(|_| DiskSim::new(layout.disk_pages, page_size)).collect(),
            slots: SlotTable::default(),
            events: BinaryHeap::with_capacity(layout.disks),
            seq: 0,
            stats: StreamingStats::new(),
            hist: Histogram::new(),
        }
    }

    fn record(&mut self, resp: SimTime) {
        self.stats.record(resp.as_nanos() as f64);
        self.hist.record(resp.as_nanos());
    }

    /// Admit request `slot`, which arrives at `arrival` and spends `ssd_cpu`
    /// on flash and CPU, reusing a finished slot if any. A request past
    /// `u32::MAX` live slots (beyond 96 GiB of them) has no id; it is served
    /// as if it touched no disk.
    fn start(&mut self, arrival: SimTime, ssd_cpu: SimTime, slot: Slot) {
        let Some(id) = self.slots.admit(slot.timed(arrival, ssd_cpu)) else {
            debug_assert!(false, "more than u32::MAX requests in flight");
            return self.record(ssd_cpu);
        };
        self.start_round(arrival, id);
    }

    /// Enqueue the member ops of request `id`'s current round.
    fn start_round(&mut self, now: SimTime, id: u32) {
        let slot = self.slots[id];
        let mut outstanding = 0;
        for disk in slot.disks() {
            outstanding += 1;
            if let Some(done_at) = self.disks[disk].push(now, id, slot.disk_page) {
                self.seq += 1;
                self.events.push(Reverse((done_at, self.seq, disk)));
            }
        }
        self.slots[id].outstanding = outstanding;
    }

    /// Process disk completions due by `t`, in `(time, seq, disk)` order.
    fn drain_until(&mut self, t: SimTime) {
        while let Some(&Reverse((when, _, disk))) = self.events.peek() {
            if when > t {
                break;
            }
            self.events.pop();
            let Some((id, next)) = self.disks[disk].complete(when, &self.slots) else {
                debug_assert!(false, "completion event for idle disk {disk}");
                continue;
            };
            if let Some(done_at) = next {
                self.seq += 1;
                self.events.push(Reverse((done_at, self.seq, disk)));
            }
            let r = &mut self.slots[id];
            r.outstanding -= 1;
            if r.outstanding > 0 {
                continue;
            }
            r.rounds_left -= 1;
            if r.rounds_left > 0 {
                self.start_round(when, id);
            } else {
                let resp = r.response(when);
                self.record(resp);
                self.slots.release(id);
            }
        }
    }

    /// Replay `trace` to its last completion; returns the member-disk queue
    /// depth sampled at each arrival.
    fn replay(
        &mut self,
        policy: &mut dyn CachePolicy,
        trace: &Trace,
        layout: &Layout,
        model: &ServiceModel,
    ) -> StreamingStats {
        let mut depth = StreamingStats::new();
        let capacity = layout.capacity_pages();

        // Arrivals are processed in trace order against the advancing clock.
        for rec in &trace.records {
            self.drain_until(rec.time);
            let queued = self.disks.iter().map(|d| d.queue.len() + d.current.is_some() as usize);
            depth.record(queued.sum::<usize>() as f64);
            for lba in rec.pages() {
                let fx = policy.access(rec.op, lba).foreground;
                let ssd_fx = Effects { raid_rounds: 0, raid_reads: 0, raid_writes: 0, ..fx };
                let ssd_cpu = model.response_time(&ssd_fx);
                match phases_for(layout, capacity, lba, &fx) {
                    Some(slot) => self.start(rec.time, ssd_cpu, slot),
                    // Pure cache operation: completes without touching disks.
                    None => self.record(ssd_cpu),
                }
            }
        }
        self.drain_until(SimTime::MAX);
        policy.flush();
        depth
    }
}

/// Replay a trace with the discrete-event device model.
pub fn replay_des(
    policy: &mut dyn CachePolicy,
    trace: &Trace,
    layout: &Layout,
    model: &ServiceModel,
) -> DesReport {
    let mut sim = Replayer::new(layout, trace.page_size);
    let depth = sim.replay(policy, trace, layout, model);
    #[expect(clippy::cast_possible_truncation, reason = "a mean of u64 nanoseconds fits a u64")]
    let mean_ns = sim.stats.mean() as u64;
    DesReport {
        policy: policy.name(),
        requests: sim.stats.count(),
        mean_response: SimTime::from_nanos(mean_ns),
        p99: SimTime::from_nanos(sim.hist.quantile(0.99).unwrap_or(0)),
        hit_ratio: policy.stats().hit_ratio(),
        mean_queue_depth: depth.mean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_policy, PolicyKind};
    use crate::openloop::replay_open_loop;
    use kdd_cache::policies::RaidModel;
    use kdd_cache::setassoc::CacheGeometry;
    use kdd_raid::layout::RaidLevel;
    use kdd_trace::record::{Op, TraceRecord};
    use kdd_trace::synth::PaperTrace;

    fn geometry(cache_pages: u64) -> CacheGeometry {
        CacheGeometry {
            total_pages: cache_pages,
            ways: u32::try_from(cache_pages).map_or(64, |pages| pages.min(64)),
            page_size: 4096,
        }
    }

    fn run(kind: PolicyKind, trace: &Trace, cache_pages: u64) -> DesReport {
        let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
        let mut p = build_policy(kind, geometry(cache_pages), raid, 3);
        replay_des(p.as_mut(), trace, &raid.layout, &ServiceModel::paper_default())
    }

    #[test]
    fn sparse_writes_cost_two_sequential_rounds() {
        let mut t = Trace::new(4096);
        for i in 0..8u64 {
            t.records.push(TraceRecord {
                time: SimTime::from_secs(i),
                op: Op::Write,
                lba: i * 64,
                len: 1,
            });
        }
        let r = run(PolicyKind::Nossd, &t, 64);
        assert_eq!(r.requests, 8);
        // Two mechanical accesses back to back: 8–50 ms.
        assert!(r.mean_response > SimTime::from_millis(8), "{}", r.mean_response);
        assert!(r.mean_response < SimTime::from_millis(60), "{}", r.mean_response);
    }

    #[test]
    fn bursts_build_real_queues() {
        let mut t = Trace::new(4096);
        for i in 0..100u64 {
            t.records.push(TraceRecord { time: SimTime::ZERO, op: Op::Write, lba: i * 64, len: 1 });
        }
        let r = run(PolicyKind::Nossd, &t, 64);
        assert!(r.p99 > SimTime::from_millis(100), "no queueing visible: {}", r.p99);
        assert!(r.mean_queue_depth >= 0.0);
    }

    #[test]
    fn des_and_algebraic_models_agree_on_ranking() {
        let trace = PaperTrace::Fin1.generate_scaled(2000, 17);
        let cache = 4096u64;
        let mut des = Vec::new();
        let mut alg = Vec::new();
        for kind in [PolicyKind::Nossd, PolicyKind::Wt, PolicyKind::Kdd(0.25)] {
            des.push(run(kind, &trace, cache).mean_response);
            let g = CacheGeometry { total_pages: cache, ways: 64, page_size: 4096 };
            let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
            let mut p = build_policy(kind, g, raid, 3);
            alg.push(
                replay_open_loop(p.as_mut(), &trace, &ServiceModel::paper_default(), 5, 1)
                    .mean_response,
            );
        }
        // Same ordering: KDD < WT < Nossd under both models.
        assert!(des[2] < des[1] && des[1] < des[0], "DES ranking broken: {des:?}");
        assert!(alg[2] < alg[1] && alg[1] < alg[0], "algebraic ranking broken: {alg:?}");
    }

    #[test]
    fn sequential_locality_is_cheaper_under_des() {
        // The mechanical model rewards short seeks: a sequential read scan
        // must beat a scattered one.
        let make = |stride: u64| {
            let mut t = Trace::new(4096);
            for i in 0..200u64 {
                t.records.push(TraceRecord {
                    time: SimTime::from_millis(i * 40),
                    op: Op::Read,
                    lba: (i * stride) % 60_000,
                    len: 1,
                });
            }
            t
        };
        let seq = run(PolicyKind::Nossd, &make(1), 64);
        let scattered = run(PolicyKind::Nossd, &make(7919), 64);
        assert!(
            seq.mean_response < scattered.mean_response,
            "sequential {} should beat scattered {}",
            seq.mean_response,
            scattered.mean_response
        );
    }

    fn raid6(data_pages: u64) -> RaidModel {
        let disk_pages = (data_pages.div_ceil(4).div_ceil(16) + 1) * 16;
        RaidModel { layout: Layout::new(RaidLevel::Raid6, 6, 16, disk_pages) }
    }

    /// Replay `trace` through the rewrite and the reference with
    /// identically built policies; every report field and the policies'
    /// counters must agree exactly.
    fn assert_matches_reference(kind: PolicyKind, trace: &Trace, raid: RaidModel, what: &str) {
        let model = ServiceModel::paper_default();
        let mut p_new = build_policy(kind, geometry(4096), raid, 3);
        let mut p_ref = build_policy(kind, geometry(4096), raid, 3);
        let new = replay_des(p_new.as_mut(), trace, &raid.layout, &model);
        let old = reference::replay_des(p_ref.as_mut(), trace, &raid.layout, &model);
        let what = format!("{what} / {}", kind.name());
        assert_eq!(new.policy, old.policy, "{what}");
        assert_eq!(new.requests, old.requests, "{what}");
        assert_eq!(new.mean_response, old.mean_response, "{what}");
        assert_eq!(new.p99, old.p99, "{what}");
        assert_eq!(new.hit_ratio.to_bits(), old.hit_ratio.to_bits(), "{what}");
        assert_eq!(new.mean_queue_depth.to_bits(), old.mean_queue_depth.to_bits(), "{what}");
        assert_eq!(p_new.stats(), p_ref.stats(), "{what}");
        assert!(new.requests > 0, "{what}: empty replay proves nothing");
    }

    #[test]
    fn rewrite_matches_reference_on_paper_traces_raid5_and_raid6() {
        for paper in PaperTrace::ALL {
            let trace = paper.generate_scaled(2000, 17);
            let pages = trace.address_space_pages().max(1024);
            for kind in PolicyKind::latency_set() {
                let name = format!("{paper:?}");
                assert_matches_reference(kind, &trace, RaidModel::paper_default(pages), &name);
                assert_matches_reference(kind, &trace, raid6(pages), &format!("{name} RAID-6"));
            }
        }
    }

    #[test]
    fn rewrite_matches_reference_on_bursts_and_multi_page_records() {
        // One timestamp for every record: completions tie on time and only
        // `seq` orders them.
        let mut burst = Trace::new(4096);
        // Multi-page records, some wrapping past the array's capacity.
        let mut wide = Trace::new(4096);
        for i in 0..300u64 {
            let op = if i % 3 == 0 { Op::Read } else { Op::Write };
            burst.records.push(TraceRecord { time: SimTime::ZERO, op, lba: i * 37 % 2048, len: 1 });
            wide.records.push(TraceRecord {
                time: SimTime::from_millis(i * 7),
                op,
                lba: i * 1031 % 9000,
                len: 1 + (i % 5) as u32,
            });
        }
        for kind in PolicyKind::latency_set() {
            for (trace, what) in [(&burst, "burst"), (&wide, "len > 1")] {
                assert_matches_reference(kind, trace, RaidModel::paper_default(1024), what);
                assert_matches_reference(kind, trace, raid6(1024), &format!("{what} RAID-6"));
            }
        }
    }

    #[test]
    fn rewrite_matches_reference_when_completions_tie() {
        // Four lbas on three disks whose two rows sit half a stroke apart:
        // service times repeat exactly, so disks complete at the same
        // nanosecond all the time, and the order those completions are
        // processed in (`seq`) decides which request queues first on a
        // shared disk. Paper-sized arrays almost never tie.
        let raid = RaidModel { layout: Layout::new(RaidLevel::Raid5, 3, 1, 2) };
        let mut state = 18;
        for case in 0..400 {
            let mut burst = Trace::new(4096);
            for _ in 0..4 + case % 12 {
                let r = kdd_util::rng::splitmix64(&mut state);
                let op = if r % 3 == 0 { Op::Read } else { Op::Write };
                burst.records.push(TraceRecord {
                    time: SimTime::ZERO,
                    op,
                    lba: (r >> 8) % 4,
                    len: 1,
                });
            }
            assert_matches_reference(PolicyKind::Nossd, &burst, raid, &format!("ties {case}"));
        }
    }

    #[test]
    fn inline_targets_equal_the_three_separate_decodes() {
        let layouts = [
            Layout::new(RaidLevel::Raid0, 4, 4, 4 * 6),
            Layout::new(RaidLevel::Raid5, 5, 4, 4 * 6),
            Layout::new(RaidLevel::Raid5, 3, 16, 16 * 3),
            Layout::new(RaidLevel::Raid6, 6, 4, 4 * 7),
            Layout::new(RaidLevel::Raid6, 4, 2, 2 * 5),
        ];
        for layout in &layouts {
            let capacity = layout.capacity_pages();
            // (rounds, reads, writes): everything the policies emit — plain
            // read, lone data write, RAID-5/6 read-modify-write and
            // reconstruct-write shapes, the cache-only request — and more.
            for (rounds, reads, writes) in (0..=2u32)
                .flat_map(|r| (0..=4u32).flat_map(move |rd| (0..=3u32).map(move |w| (r, rd, w))))
            {
                let fx = Effects {
                    raid_rounds: rounds,
                    raid_reads: reads,
                    raid_writes: writes,
                    ..Effects::default()
                };
                // Past the end too: lbas wrap modulo the capacity.
                for lba in 0..capacity + 5 {
                    let Some(got) = phases_for(layout, capacity, lba, &fx) else {
                        assert_eq!(rounds, 0, "{layout:?} lba {lba} {fx:?}");
                        continue;
                    };
                    let (loc, row) = (layout.locate(lba % capacity), layout.row_of(lba % capacity));
                    let decoded = [
                        Some((loc.disk, loc.disk_page)),
                        layout.parity_location(row),
                        layout.q_location(row),
                    ];
                    let members = if rounds >= 2 { reads.max(writes).max(1) } else { 1 };
                    let want: Vec<_> =
                        decoded.into_iter().take(members as usize).flatten().collect();
                    let targets: Vec<_> = got.disks().map(|d| (d, got.disk_page)).collect();
                    assert_eq!(targets, want, "{layout:?} {lba} {fx:?}");
                    let absent = &got.members[targets.len()..];
                    assert!(absent.iter().all(|&m| m == ABSENT), "{layout:?} {lba} {fx:?}");
                    assert_eq!(u32::from(got.rounds_left), rounds, "{layout:?} {lba} {fx:?}");
                }
            }
        }
    }

    /// A small write on the default array: read round + write round on the
    /// data and parity disks.
    fn small_write(layout: &Layout, lba: u64) -> Slot {
        let fx = Effects { raid_reads: 2, raid_writes: 2, raid_rounds: 2, ..Effects::default() };
        phases_for(layout, layout.capacity_pages(), lba, &fx).expect("touches disks")
    }

    impl SlotTable {
        /// Slots on the free list, walked from its head.
        fn free_len(&self) -> usize {
            std::iter::successors(self.free, |&id| u32::try_from(self[id].disk_page).ok()).count()
        }
    }

    #[test]
    fn slots_are_recycled_so_live_state_follows_queue_depth() {
        let layout = RaidModel::paper_default(8192).layout;

        // Spaced wider than a service time: one request in flight, one slot.
        let mut sim = Replayer::new(&layout, 4096);
        for i in 0..50u64 {
            let now = SimTime::from_secs(i);
            sim.drain_until(now);
            sim.start(now, SimTime::ZERO, small_write(&layout, i * 64));
            assert_eq!(sim.slots.len, 1, "request {i} must reuse the finished slot");
        }
        sim.drain_until(SimTime::MAX);
        assert_eq!(sim.stats.count(), 50);

        // The 100-write burst: at most 100 live slots, and once they have
        // finished a second burst reuses them before the table grows.
        let mut sim = Replayer::new(&layout, 4096);
        for round in 0..2u64 {
            let now = SimTime::from_secs(round * 3600);
            sim.drain_until(now);
            assert_eq!(sim.slots.free_len(), sim.slots.len, "burst {round}: all slots returned");
            for i in 0..100u64 {
                sim.start(now, SimTime::ZERO, small_write(&layout, i * 64));
            }
            assert_eq!(sim.slots.len, 100, "burst {round}");
            assert!(sim.events.len() <= layout.disks, "one pending completion per disk");
        }
        sim.drain_until(SimTime::MAX);
        assert_eq!(sim.stats.count(), 200);
        assert_eq!(sim.slots.free_len(), 100);
    }

    #[test]
    fn completion_for_an_idle_disk_is_not_a_panic() {
        let (mut disk, slots) = (DiskSim::new(1024, 4096), SlotTable::default());
        assert!(disk.complete(SimTime::ZERO, &slots).is_none());
        let done_at = disk.push(SimTime::ZERO, 0, 7).expect("idle");
        assert_eq!(disk.complete(done_at, &slots), Some((0, None)), "one op in service");
        assert!(disk.complete(done_at, &slots).is_none(), "a duplicate completion finds nothing");
    }

    #[test]
    fn the_widest_layout_keeps_every_member_id_below_absent() {
        // RAID-5 over 65 535 one-page members: row 0's parity sits on the
        // last member, whose id is the largest a slot can hold.
        let layout = Layout::new(RaidLevel::Raid5, Layout::MAX_DISKS, 1, 1);
        let slot = small_write(&layout, 0);
        assert_eq!(slot.members, [0, ABSENT - 1, ABSENT]);
        assert_eq!(member_id(Layout::MAX_DISKS - 1), Some(ABSENT - 1));
    }

    #[test]
    fn fin1_backlog_costs_at_most_40_bytes_per_request_in_flight() {
        // Fin1 ÷ 100 (the benchmark's sweep input at seed 42) leaves the
        // array unstable under Nossd, so the backlog, not the cache, sizes
        // the replayer: tens of thousands of requests are in flight at once.
        let spec = PaperTrace::Fin1.spec().scaled(100);
        let trace = spec.generate(42);
        let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
        let mut policy =
            build_policy(PolicyKind::Nossd, geometry(spec.unique_total / 10), raid, 42);
        let mut sim = Replayer::new(&raid.layout, trace.page_size);
        sim.replay(policy.as_mut(), &trace, &raid.layout, &ServiceModel::paper_default());

        // A slot is added only when none is free, so the table's length is
        // the peak number of requests in flight.
        let (peak, slots) = (sim.slots.len, &sim.slots.chunks);
        let chunk_bytes = size_of::<[Slot; CHUNK]>() * slots.len()
            + size_of::<Box<[Slot; CHUNK]>>() * slots.capacity();
        let fifo_bytes =
            size_of::<u32>() * sim.disks.iter().map(|d| d.queue.capacity()).sum::<usize>();
        let kept = chunk_bytes + fifo_bytes;
        assert!(peak > 10_000, "only {peak} requests in flight: the backlog did not build");
        assert!(kept <= 40 * peak, "{kept} B kept for {peak} in flight: {} B each", kept / peak);
    }

    #[test]
    fn credit_gives_completion_plus_ssd_cpu_minus_arrival() {
        let slot = small_write(&RaidModel::paper_default(8192).layout, 0);
        let cases = [
            // Arrival 0: the credit is the SSD/CPU time itself.
            (SimTime::ZERO, SimTime::from_micros(90), SimTime::from_millis(12)),
            // Arrival past the SSD/CPU time: the credit wraps below zero.
            (SimTime::from_secs(3), SimTime::from_micros(90), SimTime::from_secs(4)),
            // No SSD/CPU time at all.
            (SimTime::from_secs(3), SimTime::ZERO, SimTime::from_secs(3)),
            // A large arrival time, completing near the top of the clock.
            (
                SimTime::from_nanos(u64::MAX - 10_000_000),
                SimTime::from_nanos(1),
                SimTime::from_nanos(u64::MAX - 1),
            ),
        ];
        for (arrival, ssd_cpu, completion) in cases {
            let timed = slot.timed(arrival, ssd_cpu);
            assert_eq!(timed.credit, ssd_cpu.as_nanos().wrapping_sub(arrival.as_nanos()));
            assert_eq!(
                timed.response(completion),
                completion - arrival + ssd_cpu,
                "arrival {arrival}, ssd_cpu {ssd_cpu}, completion {completion}"
            );
            assert_eq!(timed.response(arrival), ssd_cpu, "no disk time: the response is ssd_cpu");
        }
    }

    #[test]
    fn slot_table_matches_a_vec_and_a_lifo_free_list() {
        // Seeded admit/finish histories that climb past three chunk
        // boundaries (ids 1023/1024, 2047/2048, 3071/3072), drain, then
        // churn, checked against a plain model at every step: the id handed
        // out, the length and the chunk count, and the contents of the
        // newest live slot (of every live slot each 97th step, or while
        // fewer than 64 are live).
        for seed in 0..4u64 {
            let mut state = seed;
            let mut table = SlotTable::default();
            let mut model_slots: Vec<Slot> = Vec::new();
            let mut model_free: Vec<u32> = Vec::new();
            let mut live: Vec<u32> = Vec::new();
            let mut peak = 0;
            for step in 0..30_000u32 {
                let r = kdd_util::rng::splitmix64(&mut state);
                // Admit three in four steps for the first third, then one
                // in four, then one in two.
                let admit_per_4 = if step < 10_000 {
                    3
                } else if step < 20_000 {
                    1
                } else {
                    2
                };
                if live.is_empty() || r % 4 < admit_per_4 {
                    let b = r.to_le_bytes();
                    let slot = Slot {
                        disk_page: r >> 20,
                        credit: r.rotate_left(17),
                        members: [u16::from(b[1] % 7), ABSENT, ABSENT],
                        rounds_left: b[2] % 3,
                        outstanding: b[3] % 4,
                    };
                    let (chunks_before, freed_waiting) =
                        (table.chunks.len(), !model_free.is_empty());
                    let want = model_free.pop().unwrap_or_else(|| {
                        model_slots.push(slot);
                        u32::try_from(model_slots.len() - 1).expect("small")
                    });
                    model_slots[want as usize] = slot;
                    let got = table.admit(slot).expect("ids left");
                    assert_eq!(got, want, "seed {seed} step {step}: id handed out");
                    if freed_waiting {
                        assert_eq!(table.chunks.len(), chunks_before, "seed {seed} step {step}");
                    }
                    live.push(got);
                } else {
                    let at = usize::try_from(r >> 40).expect("fits") % live.len();
                    let id = live.swap_remove(at);
                    table.release(id);
                    model_free.push(id);
                }
                peak = peak.max(live.len());
                assert_eq!(table.len, peak, "seed {seed} step {step}: length is the peak live");
                assert_eq!(table.len, model_slots.len(), "seed {seed} step {step}");
                assert_eq!(table.chunks.len(), table.len.div_ceil(CHUNK), "seed {seed} {step}");
                if step % 97 == 0 || live.len() < 64 {
                    for &id in &live {
                        assert_eq!(table[id], model_slots[id as usize], "seed {seed} slot {id}");
                    }
                } else if let Some(&id) = live.last() {
                    assert_eq!(table[id], model_slots[id as usize], "seed {seed} slot {id}");
                }
            }
            assert!(peak > 3 * CHUNK, "seed {seed}: peak {peak} stops short of a third boundary");
            assert_eq!(table.free_len(), model_free.len(), "seed {seed}");
        }
    }

    /// The replayer as it stood before the inline-state rewrite, verbatim:
    /// per-request `VecDeque<Vec<..>>` phases, one `ReqState` per trace
    /// request, three address decodes. The differential tests below hold
    /// the rewrite to it bit for bit.
    #[expect(clippy::cast_possible_truncation, reason = "kept as it was written")]
    mod reference {
        use super::super::DesReport;
        use crate::service::ServiceModel;
        use kdd_blockdev::hdd::HddModel;
        use kdd_cache::effects::Effects;
        use kdd_cache::policies::CachePolicy;
        use kdd_raid::layout::Layout;
        use kdd_trace::record::Trace;
        use kdd_util::stats::{Histogram, StreamingStats};
        use kdd_util::units::SimTime;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, VecDeque};

        /// One member-disk operation of one request phase.
        #[derive(Debug, Clone, Copy)]
        struct MemberOp {
            req: usize,
            disk_page: u64,
        }

        /// A member disk: FIFO queue + mechanical model.
        struct DiskSim {
            model: HddModel,
            queue: VecDeque<MemberOp>,
            busy_until: SimTime,
            current: Option<MemberOp>,
        }

        impl DiskSim {
            fn new(capacity_pages: u64, page_size: u32) -> Self {
                DiskSim {
                    model: HddModel::enterprise_7200rpm(capacity_pages, page_size),
                    queue: VecDeque::new(),
                    busy_until: SimTime::ZERO,
                    current: None,
                }
            }

            /// Enqueue an op; if idle, start it and return its completion time.
            fn push(&mut self, now: SimTime, op: MemberOp) -> Option<SimTime> {
                if self.current.is_none() {
                    let service = self.model.access(op.disk_page, 1);
                    self.busy_until = now.max(self.busy_until) + service;
                    self.current = Some(op);
                    Some(self.busy_until)
                } else {
                    self.queue.push_back(op);
                    None
                }
            }

            /// The current op finished; start the next one if any. Returns the
            /// finished op and, when another was started, its completion time.
            fn complete(&mut self, now: SimTime) -> (MemberOp, Option<SimTime>) {
                let done = self.current.take().expect("completion without an op");
                let next = self.queue.pop_front().map(|op| {
                    let service = self.model.access(op.disk_page, 1);
                    self.busy_until = now + service;
                    self.current = Some(op);
                    self.busy_until
                });
                (done, next)
            }
        }

        /// Per-request state across phases.
        struct ReqState {
            arrival: SimTime,
            /// Remaining member ops in the current phase.
            outstanding: u32,
            /// Phases still to run after the current one: lists of (disk, page).
            phases: VecDeque<Vec<(usize, u64)>>,
            /// Flash + CPU time added once all disk phases are done.
            ssd_cpu: SimTime,
            done: bool,
        }

        /// Derive the member-disk operations a request's foreground effects imply.
        ///
        /// The mapping follows the array's actual behaviour for the patterns the
        /// policies emit: a plain read touches the page's disk; a small write
        /// reads the page's disk + its parity disk(s), then writes them; a
        /// `write_no_parity_update` writes only the page's disk.
        fn phases_for(layout: &Layout, lba: u64, fx: &Effects) -> VecDeque<Vec<(usize, u64)>> {
            let mut phases = VecDeque::new();
            if fx.raid_rounds == 0 {
                return phases;
            }
            let lba = lba % layout.capacity_pages();
            let loc = layout.locate(lba);
            let row = layout.row_of(lba);
            let parity = layout.parity_location(row);
            let q = layout.q_location(row);
            let mut targets: Vec<(usize, u64)> = vec![(loc.disk, loc.disk_page)];
            if fx.raid_reads >= 2 || fx.raid_writes >= 2 {
                if let Some((pd, pp)) = parity {
                    targets.push((pd, pp));
                }
                if fx.raid_reads >= 3 || fx.raid_writes >= 3 {
                    if let Some((qd, qp)) = q {
                        targets.push((qd, qp));
                    }
                }
            }
            if fx.raid_rounds >= 2 {
                // Read-modify-write: read round then write round on the same set.
                phases.push_back(targets.clone());
                phases.push_back(targets);
            } else {
                // Single round: either a plain read or a lone data write.
                phases.push_back(vec![(loc.disk, loc.disk_page)]);
            }
            phases
        }

        /// Replay a trace with the discrete-event device model.
        pub(super) fn replay_des(
            policy: &mut dyn CachePolicy,
            trace: &Trace,
            layout: &Layout,
            model: &ServiceModel,
        ) -> DesReport {
            let page_size = trace.page_size;
            let mut disks: Vec<DiskSim> =
                (0..layout.disks).map(|_| DiskSim::new(layout.disk_pages, page_size)).collect();
            let mut reqs: Vec<ReqState> = Vec::new();
            let mut stats = StreamingStats::new();
            let mut hist = Histogram::new();
            let mut depth = StreamingStats::new();

            // Event queue: (time, seq, disk) — disk completions only; arrivals are
            // processed in trace order against the advancing clock.
            let mut events: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
            let mut seq = 0u64;

            let finish_phase_op = |reqs: &mut Vec<ReqState>,
                                   disks: &mut Vec<DiskSim>,
                                   events: &mut BinaryHeap<Reverse<(SimTime, u64, usize)>>,
                                   seq: &mut u64,
                                   stats: &mut StreamingStats,
                                   hist: &mut Histogram,
                                   now: SimTime,
                                   op: MemberOp| {
                let r = &mut reqs[op.req];
                r.outstanding -= 1;
                if r.outstanding > 0 {
                    return;
                }
                if let Some(next) = r.phases.pop_front() {
                    r.outstanding = next.len() as u32;
                    for (disk, page) in next {
                        if let Some(done_at) =
                            disks[disk].push(now, MemberOp { req: op.req, disk_page: page })
                        {
                            *seq += 1;
                            events.push(Reverse((done_at, *seq, disk)));
                        }
                    }
                } else if !r.done {
                    r.done = true;
                    let resp = now + r.ssd_cpu - r.arrival;
                    stats.record(resp.as_nanos() as f64);
                    hist.record(resp.as_nanos());
                }
            };

            let drain_until = |reqs: &mut Vec<ReqState>,
                               disks: &mut Vec<DiskSim>,
                               events: &mut BinaryHeap<Reverse<(SimTime, u64, usize)>>,
                               seq: &mut u64,
                               stats: &mut StreamingStats,
                               hist: &mut Histogram,
                               t: SimTime| {
                while let Some(&Reverse((when, _, disk))) = events.peek() {
                    if when > t {
                        break;
                    }
                    events.pop();
                    let (op, _next_started) = {
                        let d = &mut disks[disk];
                        let (op, next) = d.complete(when);
                        if let Some(done_at) = next {
                            *seq += 1;
                            events.push(Reverse((done_at, *seq, disk)));
                        }
                        (op, ())
                    };
                    finish_phase_op(reqs, disks, events, seq, stats, hist, when, op);
                }
            };

            for rec in &trace.records {
                let arrival = rec.time;
                drain_until(
                    &mut reqs,
                    &mut disks,
                    &mut events,
                    &mut seq,
                    &mut stats,
                    &mut hist,
                    arrival,
                );
                depth.record(
                    disks
                        .iter()
                        .map(|d| d.queue.len() + d.current.is_some() as usize)
                        .sum::<usize>() as f64,
                );
                for lba in rec.pages() {
                    let outcome = policy.access(rec.op, lba);
                    let fx = outcome.foreground;
                    let ssd_cpu = model.response_time(&Effects {
                        raid_rounds: 0,
                        raid_reads: 0,
                        raid_writes: 0,
                        ..fx
                    });
                    let phases = phases_for(layout, lba, &fx);
                    let id = reqs.len();
                    let mut state =
                        ReqState { arrival, outstanding: 0, phases, ssd_cpu, done: false };
                    if let Some(first) = state.phases.pop_front() {
                        state.outstanding = first.len() as u32;
                        reqs.push(state);
                        for (disk, page) in first {
                            if let Some(done_at) =
                                disks[disk].push(arrival, MemberOp { req: id, disk_page: page })
                            {
                                seq += 1;
                                events.push(Reverse((done_at, seq, disk)));
                            }
                        }
                    } else {
                        // Pure cache operation: completes without touching disks.
                        let resp = ssd_cpu;
                        stats.record(resp.as_nanos() as f64);
                        hist.record(resp.as_nanos());
                        state.done = true;
                        reqs.push(state);
                    }
                }
            }
            drain_until(
                &mut reqs,
                &mut disks,
                &mut events,
                &mut seq,
                &mut stats,
                &mut hist,
                SimTime::MAX,
            );
            policy.flush();

            DesReport {
                policy: policy.name(),
                requests: stats.count(),
                mean_response: SimTime::from_nanos(stats.mean() as u64),
                p99: SimTime::from_nanos(hist.quantile(0.99).unwrap_or(0)),
                hit_ratio: policy.stats().hit_ratio(),
                mean_queue_depth: depth.mean(),
            }
        }
    }
}
