//! Closed-loop FIO-style load — the Figures 10/11 experiment.
//!
//! "In closed-loop model, requests are generated back to back with a
//! limited request queue (i.e. equal to the number of request threads)"
//! (§IV-B1). N virtual threads each keep exactly one request outstanding;
//! a thread's next request is issued the instant its previous one
//! completes. Disk rounds contend on the shared member-disk center, which
//! is what pushes latencies to the ~100 ms the paper tunes for.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use crate::openloop::RequestServer;
use crate::service::ServiceModel;
use kdd_cache::policies::CachePolicy;
use kdd_cache::stats::CacheStats;
use kdd_obs::Recorder;
use kdd_trace::fio::FioWorkload;
use kdd_util::units::{ByteSize, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Results of one closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// Policy display name.
    pub policy: String,
    /// Requests completed.
    pub requests: u64,
    /// Mean response time (the Figure 10 metric).
    pub mean_response: SimTime,
    /// 99th percentile response time.
    pub p99: SimTime,
    /// Total virtual run time.
    pub makespan: SimTime,
    /// SSD bytes written (the Figure 11 metric).
    pub ssd_write_bytes: ByteSize,
    /// Cache hit ratio.
    pub hit_ratio: f64,
    /// Final cache statistics.
    pub stats: CacheStats,
}

/// Run the FIO-style closed loop: `workload.config().threads` virtual
/// threads, one outstanding request each, until the volume target is met.
/// An enabled `recorder` gets spans stamped with issue/completion virtual
/// times and periodic samples on the simulated clock.
pub fn run_closed_loop(
    policy: &mut dyn CachePolicy,
    workload: &mut FioWorkload,
    model: &ServiceModel,
    disks: usize,
    recorder: &Recorder,
) -> ClosedLoopReport {
    let threads = workload.config().threads.max(1);
    let page_size = 4096u32;
    let mut server = RequestServer::new(disks);
    // Each heap entry: the time a thread becomes ready to issue.
    let mut ready: BinaryHeap<Reverse<SimTime>> =
        (0..threads).map(|_| Reverse(SimTime::ZERO)).collect();
    let mut makespan = SimTime::ZERO;
    while let Some(Reverse(now)) = ready.pop() {
        let Some((op, lba)) = workload.next_request() else {
            makespan = makespan.max(now);
            continue; // thread retires
        };
        let done = server.serve(policy, model, recorder, op, lba, now);
        makespan = makespan.max(done);
        ready.push(Reverse(done));
    }
    policy.flush();
    ClosedLoopReport {
        policy: policy.name(),
        requests: server.requests(),
        mean_response: server.mean_response(),
        p99: server.quantile(0.99),
        makespan,
        ssd_write_bytes: policy.stats().ssd_write_bytes(page_size),
        hit_ratio: policy.stats().hit_ratio(),
        stats: *policy.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_policy, PolicyKind};
    use kdd_cache::policies::RaidModel;
    use kdd_cache::setassoc::CacheGeometry;
    use kdd_trace::fio::FioConfig;

    fn run(kind: PolicyKind, read_rate: f64, scale: u64) -> ClosedLoopReport {
        let cfg = FioConfig::paper(read_rate).scaled(scale);
        // Cache smaller than the working set, like the paper (1 GB cache,
        // 1.6 GB WSS): cache = WSS * 0.625.
        let cache_pages = (cfg.wss_pages * 5 / 8).max(64);
        let g = CacheGeometry {
            total_pages: cache_pages,
            ways: 64.min(cache_pages as u32),
            page_size: 4096,
        };
        let raid = RaidModel::paper_default(cfg.wss_pages.max(1024));
        let mut p = build_policy(kind, g, raid, 5);
        let mut w = FioWorkload::new(cfg, 99);
        run_closed_loop(
            p.as_mut(),
            &mut w,
            &ServiceModel::paper_default(),
            5,
            &Recorder::disabled(),
        )
    }

    #[test]
    fn completes_the_configured_volume() {
        let r = run(PolicyKind::Wt, 0.5, 8192);
        let cfg = FioConfig::paper(0.5).scaled(8192);
        assert_eq!(r.requests, cfg.total_pages);
        assert!(r.makespan > SimTime::ZERO);
    }

    #[test]
    fn contention_raises_latency_above_service_time() {
        let r = run(PolicyKind::Nossd, 0.0, 8192);
        let m = ServiceModel::paper_default();
        // 16 threads on 5 disks: mean response must exceed raw service.
        assert!(r.mean_response > m.hdd_op * 2, "no contention visible: {}", r.mean_response);
    }

    #[test]
    fn kdd_cuts_latency_versus_nossd_and_wt() {
        let nossd = run(PolicyKind::Nossd, 0.25, 2048);
        let wt = run(PolicyKind::Wt, 0.25, 2048);
        let kdd = run(PolicyKind::Kdd(0.25), 0.25, 2048);
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
    fn wa_writes_least_to_ssd() {
        let wa = run(PolicyKind::Wa, 0.25, 2048);
        let wt = run(PolicyKind::Wt, 0.25, 2048);
        let lv = run(PolicyKind::LeavO, 0.25, 2048);
        let kdd = run(PolicyKind::Kdd(0.25), 0.25, 2048);
        assert!(wa.ssd_write_bytes < kdd.ssd_write_bytes);
        assert!(
            kdd.ssd_write_bytes < wt.ssd_write_bytes,
            "KDD {} !< WT {}",
            kdd.ssd_write_bytes,
            wt.ssd_write_bytes
        );
        assert!(
            wt.ssd_write_bytes < lv.ssd_write_bytes,
            "WT {} !< LeavO {}",
            wt.ssd_write_bytes,
            lv.ssd_write_bytes
        );
    }

    #[test]
    fn engine_closed_loop_preserves_content_and_batches() {
        use crate::replay::{EngineDriver, EngineReplayReport};
        use kdd_blockdev::ssd::SsdDevice;
        use kdd_core::{KddConfig, KddEngine};
        use kdd_raid::array::RaidArray;
        use kdd_raid::layout::{Layout, RaidLevel};
        use kdd_trace::record::Op;

        let build = || {
            let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 64);
            let raid = RaidArray::new(layout, 4096);
            let ssd = SsdDevice::with_logical_capacity((256 + 64) * 4096, 4096, 0.1);
            let g =
                kdd_cache::setassoc::CacheGeometry { total_pages: 256, ways: 8, page_size: 4096 };
            KddEngine::new(KddConfig::new(g), ssd, raid).unwrap()
        };
        let mut cfg = FioConfig::paper(0.3).scaled(2048);
        cfg.wss_pages = 200;

        // The FIO load through a bounded submission queue: writes queue up
        // to `queue_depth` and go out as one group commit; a read drains
        // the queue first (the driver's barrier). A rewrite landing in the
        // same group as its predecessor must still read back correctly.
        let run = |engine: &mut KddEngine, queue_depth: usize| -> EngineReplayReport {
            let mut w = FioWorkload::new(cfg, 7);
            let mut driver = EngineDriver::new(engine, 7);
            let mut queued = 0;
            while let Some((op, lba)) = w.next_request() {
                match op {
                    Op::Read => {
                        driver.read(lba).unwrap();
                        queued = 0;
                    }
                    Op::Write => {
                        driver.write(lba);
                        queued += 1;
                        if queued >= queue_depth {
                            driver.submit().unwrap();
                            queued = 0;
                        }
                    }
                }
            }
            driver.finish().unwrap()
        };

        let mut deep = build();
        let r = run(&mut deep, 32);
        assert_eq!(r.ops, cfg.total_pages);
        assert_eq!(r.read_mismatches, 0, "read-after-write content must hold across batching");
        assert!(r.write_batches > 0);
        assert!(r.waf >= 1.0);

        // Depth-1 submits every write as its own group: same request count,
        // at least as many metadata page writes as the deep queue.
        let mut shallow = build();
        let r1 = run(&mut shallow, 1);
        assert_eq!(r1.ops, cfg.total_pages);
        assert_eq!(r1.read_mismatches, 0);
        assert!(r1.write_batches >= r.write_batches);
        assert!(
            deep.stats().ssd_meta_writes <= shallow.stats().ssd_meta_writes,
            "group commit must never write more meta pages: deep {} vs shallow {}",
            deep.stats().ssd_meta_writes,
            shallow.stats().ssd_meta_writes
        );
    }

    #[test]
    fn higher_read_rate_narrows_wa_gap() {
        let kdd0 = run(PolicyKind::Kdd(0.25), 0.0, 2048);
        let kdd75 = run(PolicyKind::Kdd(0.25), 0.75, 2048);
        let wa0 = run(PolicyKind::Wa, 0.0, 2048);
        let wa75 = run(PolicyKind::Wa, 0.75, 2048);
        let gap0 =
            kdd0.ssd_write_bytes.as_u64() as f64 / wa0.ssd_write_bytes.as_u64().max(1) as f64;
        let gap75 =
            kdd75.ssd_write_bytes.as_u64() as f64 / wa75.ssd_write_bytes.as_u64().max(1) as f64;
        assert!(gap75 < gap0, "gap must narrow with read rate: {gap0} vs {gap75}");
    }
}
