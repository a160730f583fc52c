//! Open-loop trace replay — the Figure 9 experiment.
//!
//! "In open-loop model, I/Os are issued according to the request time"
//! (§IV-B1, the RAIDmeter methodology). Each trace record is injected at
//! its timestamp; its disk rounds queue on the shared member-disk service
//! center, so bursts congest exactly as on a real array; the response time
//! is queueing delay plus service.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use crate::queue::MultiServer;
use crate::service::ServiceModel;
use kdd_cache::policies::CachePolicy;
use kdd_obs::{Recorder, Sample, Stage};
use kdd_trace::record::{Op, Trace};
use kdd_util::stats::{Histogram, StreamingStats};
use kdd_util::units::SimTime;

/// One timeseries sample drawn from a policy's cumulative counters. The
/// trace drivers have no device gauges (those belong to the engine), so
/// only the cache-counter half of the sample is populated.
fn policy_sample(policy: &dyn CachePolicy, at: SimTime) -> Sample {
    Sample { at, cache: *policy.stats(), ..Sample::default() }
}

/// Export the recorder's snapshot after a policy-level (counting) run:
/// the closing sample is drawn from the policy's cumulative counters
/// and the wear histogram is empty — the counting models have no flash
/// to sample. Returns `None` for a disabled recorder.
pub fn obs_snapshot_policy(policy: &dyn CachePolicy, recorder: &Recorder) -> Option<kdd_obs::Json> {
    recorder.export(&policy_sample(policy, recorder.now()), &kdd_obs::Log2Hist::new())
}

/// The member-disk service center and the response-time statistics of
/// one counting run: the per-request step the open- and closed-loop
/// drivers share.
pub(crate) struct RequestServer {
    raid: MultiServer,
    stats: StreamingStats,
    hist: Histogram,
}

impl RequestServer {
    pub(crate) fn new(disks: usize) -> Self {
        RequestServer {
            raid: MultiServer::new(disks),
            stats: StreamingStats::new(),
            hist: Histogram::new(),
        }
    }

    /// Earliest time any member disk is free.
    pub(crate) fn next_free(&self) -> SimTime {
        self.raid.next_free()
    }

    /// Serve one page request issued at `at` and return its completion
    /// time. Disk rounds queue on the shared array; SSD/CPU time is added
    /// on top (the SSD is never the bottleneck here). The response time is
    /// recorded, and an enabled `recorder` gets the request's span.
    pub(crate) fn serve(
        &mut self,
        policy: &mut dyn CachePolicy,
        model: &ServiceModel,
        recorder: &Recorder,
        op: Op,
        lba: u64,
        at: SimTime,
    ) -> SimTime {
        let outcome = policy.access(op, lba);
        let fx = outcome.foreground;
        let disk_rounds = fx.raid_rounds;
        let ssd_fx =
            kdd_cache::effects::Effects { raid_rounds: 0, raid_reads: 0, raid_writes: 0, ..fx };
        let ssd_cpu = model.response_time(&ssd_fx);
        let done = if disk_rounds > 0 {
            self.raid.serve_rounds(at, model.hdd_op, disk_rounds) + ssd_cpu
        } else {
            at + ssd_cpu
        };
        let resp = done - at;
        self.stats.record(resp.as_nanos() as f64);
        self.hist.record(resp.as_nanos());
        if recorder.is_enabled() {
            let is_read = op == Op::Read;
            let mut c = outcome.to_obs(is_read, lba, resp);
            // Attribute exactly what was charged: the SSD/CPU terms plus
            // the member-disk service held on the queue; the queueing
            // delay stays unattributed (conservation).
            c.stages = model.stage_times(is_read, &ssd_fx);
            if disk_rounds > 0 {
                let raid_stage = if is_read { Stage::RaidRead } else { Stage::RaidWrite };
                c.stages.add(raid_stage, model.hdd_op * u64::from(disk_rounds));
            }
            if recorder.record_at(c, at, done) {
                recorder.push_sample(policy_sample(policy, recorder.now()));
            }
        }
        done
    }

    /// Requests served so far.
    pub(crate) fn requests(&self) -> u64 {
        self.stats.count()
    }

    /// Mean response time.
    pub(crate) fn mean_response(&self) -> SimTime {
        SimTime::from_nanos(self.stats.mean() as u64)
    }

    /// Response-time quantile `q` (zero before the first request).
    pub(crate) fn quantile(&self, q: f64) -> SimTime {
        SimTime::from_nanos(self.hist.quantile(q).unwrap_or(0))
    }
}

/// Latency results of one replay.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Policy display name.
    pub policy: String,
    /// Requests replayed.
    pub requests: u64,
    /// Mean response time.
    pub mean_response: SimTime,
    /// Median response time.
    pub p50: SimTime,
    /// 99th percentile response time.
    pub p99: SimTime,
    /// Cache hit ratio over the run.
    pub hit_ratio: f64,
}

/// Replay a trace against `policy`, with `disks` member-disk servers.
///
/// Time is rescaled so the offered load stays the same shape but the run
/// completes regardless of trace duration: requests keep their relative
/// spacing. `speedup` divides inter-arrival gaps (1 = as recorded).
pub fn replay_open_loop(
    policy: &mut dyn CachePolicy,
    trace: &Trace,
    model: &ServiceModel,
    disks: usize,
    speedup: u64,
) -> OpenLoopReport {
    replay_open_loop_observed(policy, trace, model, disks, speedup, &Recorder::disabled())
}

/// [`replay_open_loop`] with an observability recorder: every request
/// becomes a lifecycle span stamped with its arrival/completion times,
/// and periodic samples are drawn on the simulated clock. A disabled
/// recorder reduces this to the plain replay.
pub fn replay_open_loop_observed(
    policy: &mut dyn CachePolicy,
    trace: &Trace,
    model: &ServiceModel,
    disks: usize,
    speedup: u64,
    recorder: &Recorder,
) -> OpenLoopReport {
    let mut server = RequestServer::new(disks);
    let speedup = speedup.max(1);
    // §III-D: the cleaning thread also wakes when the system has been
    // idle for a period. Two quiet seconds count as idle — short enough to
    // exploit real lulls, long enough that Poisson gaps at the traces'
    // 13–160 IOPS don't constantly drain the delta zone (which would cost
    // the pinned-page hits the paper observes).
    let idle_threshold = SimTime::from_secs(2);
    let mut prev_arrival = SimTime::ZERO;
    for r in &trace.records {
        let arrival = r.time / speedup;
        if arrival.saturating_sub(prev_arrival.max(server.next_free())) > idle_threshold {
            policy.idle_tick(); // background work during the idle gap
        }
        prev_arrival = arrival;
        for lba in r.pages() {
            server.serve(policy, model, recorder, r.op, lba, arrival);
        }
    }
    policy.flush(); // background work; not part of response time
    OpenLoopReport {
        policy: policy.name(),
        requests: server.requests(),
        mean_response: server.mean_response(),
        p50: server.quantile(0.5),
        p99: server.quantile(0.99),
        hit_ratio: policy.stats().hit_ratio(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_policy, PolicyKind};
    use kdd_cache::policies::RaidModel;
    use kdd_cache::setassoc::CacheGeometry;
    use kdd_trace::record::{Op, TraceRecord};
    use kdd_trace::synth::PaperTrace;

    fn replay(kind: PolicyKind, trace: &Trace, cache_pages: u64) -> OpenLoopReport {
        let g = CacheGeometry {
            total_pages: cache_pages,
            ways: 64.min(cache_pages as u32),
            page_size: 4096,
        };
        let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
        let mut p = build_policy(kind, g, raid, 3);
        let model = ServiceModel::paper_default();
        replay_open_loop(p.as_mut(), trace, &model, 5, 1)
    }

    #[test]
    fn sparse_trace_has_no_queueing() {
        // One request per second: response == service.
        let mut t = Trace::new(4096);
        for i in 0..10u64 {
            t.records.push(TraceRecord {
                time: SimTime::from_secs(i),
                op: Op::Write,
                lba: i * 64,
                len: 1,
            });
        }
        let r = replay(PolicyKind::Nossd, &t, 16);
        let model = ServiceModel::paper_default();
        assert_eq!(r.requests, 10);
        assert_eq!(r.mean_response, model.hdd_op * 2, "small write = 2 rounds");
    }

    #[test]
    fn burst_queues_on_the_array() {
        // 50 simultaneous writes on a 5-disk array must queue.
        let mut t = Trace::new(4096);
        for i in 0..50u64 {
            t.records.push(TraceRecord { time: SimTime::ZERO, op: Op::Write, lba: i * 64, len: 1 });
        }
        let r = replay(PolicyKind::Nossd, &t, 16);
        let model = ServiceModel::paper_default();
        assert!(r.p99 > model.hdd_op * 10, "p99 {} shows no queueing", r.p99);
        assert!(r.mean_response > r.p50 / 2);
    }

    #[test]
    fn engine_batched_replay_matches_serial_replay() {
        use crate::replay::replay_engine;
        use kdd_blockdev::ssd::SsdDevice;
        use kdd_core::{KddConfig, KddEngine};
        use kdd_raid::array::RaidArray;
        use kdd_raid::layout::{Layout, RaidLevel};
        use std::collections::BTreeMap;

        let build = || {
            let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 64);
            let raid = RaidArray::new(layout, 4096);
            let ssd = SsdDevice::with_logical_capacity((256 + 64) * 4096, 4096, 0.1);
            let g = CacheGeometry { total_pages: 256, ways: 8, page_size: 4096 };
            KddEngine::new(KddConfig::new(g), ssd, raid).unwrap()
        };
        let trace = PaperTrace::Fin1.generate_scaled(300, 9);

        let mut batched = build();
        let report = replay_engine(&mut batched, &trace, 9).unwrap();
        assert_eq!(report.read_mismatches, 0);
        assert!(report.write_batches > 0);
        assert!(report.ops > 0);

        // Serial reference: identical trace and content sequence, one
        // engine.write per page — the pre-batching replay shape.
        let mut serial = build();
        let capacity = serial.raid().capacity_pages();
        let mut mutator = kdd_delta::content::PageMutator::new(4096, 0.15, 64, 9 ^ 0x9e37);
        let mut versions: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for rec in &trace.records {
            for page in rec.pages() {
                let lba = page % capacity;
                match rec.op {
                    Op::Read => {
                        serial.read(lba).unwrap();
                    }
                    Op::Write => {
                        let next = match versions.get(&lba) {
                            Some(prev) => mutator.mutate(prev),
                            None => mutator.initial_page(),
                        };
                        serial.write(lba, &next).unwrap();
                        versions.insert(lba, next);
                    }
                }
            }
        }
        assert!(!versions.is_empty());
        for (lba, expect) in &versions {
            let (a, _) = batched.read(*lba).unwrap();
            let (b, _) = serial.read(*lba).unwrap();
            assert_eq!(&a, expect, "batched replay diverged at lba {lba}");
            assert_eq!(&b, expect, "serial replay diverged at lba {lba}");
        }
        assert!(
            batched.stats().ssd_meta_writes <= serial.stats().ssd_meta_writes,
            "group commit must never write more meta pages: {} vs {}",
            batched.stats().ssd_meta_writes,
            serial.stats().ssd_meta_writes
        );
    }

    #[test]
    fn kdd_beats_nossd_and_wt_on_write_heavy_trace() {
        let trace = PaperTrace::Fin1.generate_scaled(2000, 11);
        let cache = 4096;
        let nossd = replay(PolicyKind::Nossd, &trace, cache);
        let wt = replay(PolicyKind::Wt, &trace, cache);
        let kdd = replay(PolicyKind::Kdd(0.25), &trace, cache);
        assert!(
            kdd.mean_response < nossd.mean_response,
            "KDD {} !< Nossd {}",
            kdd.mean_response,
            nossd.mean_response
        );
        assert!(
            kdd.mean_response < wt.mean_response,
            "KDD {} !< WT {}",
            kdd.mean_response,
            wt.mean_response
        );
    }

    #[test]
    fn observed_replay_conserves_stage_time() {
        use kdd_obs::{Json, RecorderConfig};

        let trace = PaperTrace::Fin1.generate_scaled(800, 11);
        let g = CacheGeometry { total_pages: 256, ways: 16, page_size: 4096 };
        let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
        let mut p = build_policy(PolicyKind::Kdd(0.25), g, raid, 11);
        let model = ServiceModel::paper_default();
        let rec = Recorder::new(RecorderConfig {
            sample_interval: SimTime::from_secs(1),
            ring_capacity: 256,
        });
        replay_open_loop_observed(p.as_mut(), &trace, &model, 5, 1, &rec);
        let doc = obs_snapshot_policy(p.as_ref(), &rec).expect("recorder enabled");

        let events = doc
            .get("spans")
            .and_then(|s| s.get("events"))
            .and_then(Json::as_arr)
            .expect("spans.events");
        assert!(!events.is_empty(), "observed replay recorded no spans");
        let mut attributed = 0u64;
        for e in events {
            let ns = |key: &str| e.get(key).and_then(Json::as_f64).expect(key).max(0.0) as u64;
            let dur = ns("exit_ns").saturating_sub(ns("enter_ns"));
            let sum: u64 = e.get("stages").map_or(0, |stages| {
                Stage::ALL
                    .iter()
                    .filter_map(|s| stages.get(s.as_str()))
                    .filter_map(Json::as_f64)
                    .map(|v| v.max(0.0) as u64)
                    .sum()
            });
            assert!(sum <= dur, "span attributes {sum} ns but served in {dur} ns");
            attributed += sum;
        }
        assert!(attributed > 0, "counting-model attribution is inert");
    }

    #[test]
    fn enabled_recorder_does_not_perturb_the_simulation() {
        use crate::closedloop::run_closed_loop;
        use kdd_obs::RecorderConfig;
        use kdd_trace::fio::{FioConfig, FioWorkload};

        let g = CacheGeometry { total_pages: 256, ways: 16, page_size: 4096 };
        let model = ServiceModel::paper_default();
        let recorder = || {
            Recorder::new(RecorderConfig {
                sample_interval: SimTime::from_secs(1),
                ring_capacity: 64,
            })
        };

        let trace = PaperTrace::Fin1.generate_scaled(800, 11);
        let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
        let mut plain = build_policy(PolicyKind::Kdd(0.25), g, raid, 11);
        let mut observed = build_policy(PolicyKind::Kdd(0.25), g, raid, 11);
        let a = replay_open_loop(plain.as_mut(), &trace, &model, 5, 1);
        let b = replay_open_loop_observed(observed.as_mut(), &trace, &model, 5, 1, &recorder());
        assert_eq!(
            (a.requests, a.mean_response, a.p50, a.p99, a.hit_ratio),
            (b.requests, b.mean_response, b.p50, b.p99, b.hit_ratio)
        );
        assert_eq!(plain.stats(), observed.stats());

        let cfg = FioConfig::paper(0.25).scaled(4096);
        let raid = RaidModel::paper_default(cfg.wss_pages.max(1024));
        let mut plain = build_policy(PolicyKind::Kdd(0.25), g, raid, 5);
        let mut observed = build_policy(PolicyKind::Kdd(0.25), g, raid, 5);
        let a = run_closed_loop(
            plain.as_mut(),
            &mut FioWorkload::new(cfg, 99),
            &model,
            5,
            &Recorder::disabled(),
        );
        let b = run_closed_loop(
            observed.as_mut(),
            &mut FioWorkload::new(cfg, 99),
            &model,
            5,
            &recorder(),
        );
        assert_eq!(
            (a.requests, a.mean_response, a.p99, a.makespan, a.ssd_write_bytes, a.stats),
            (b.requests, b.mean_response, b.p99, b.makespan, b.ssd_write_bytes, b.stats)
        );
    }

    #[test]
    fn read_heavy_trace_rewards_caching() {
        let trace = PaperTrace::Fin2.generate_scaled(2000, 13);
        let nossd = replay(PolicyKind::Nossd, &trace, 8192);
        let wt = replay(PolicyKind::Wt, &trace, 8192);
        assert!(
            wt.mean_response < nossd.mean_response,
            "WT {} should beat Nossd {} on a read-heavy trace",
            wt.mean_response,
            nossd.mean_response
        );
        assert!(wt.hit_ratio > 0.2);
    }
}
