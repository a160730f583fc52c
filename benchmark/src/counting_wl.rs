//! `policy_sweep_counting`: the figure-producing path, with no bytes.
//!
//! `PolicyKind::latency_set()` (Nossd, WA, WT, LeavO, KDD-25 %) × the four
//! paper traces, each through `replay_open_loop` and `replay_des`, with a
//! cache of a tenth of the trace's footprint — what `kdd-bench` runs for
//! Figure 9 and the DES validation study. It exercises `sim`, the `cache`
//! policies and `core::KddPolicy`, and never touches `KddEngine`, a
//! `RaidArray`, `blockdev` or the codec.
//!
//! Each replay call is one timed segment. Caches start empty, as in the
//! figures: the replay functions take a whole trace, so there is no
//! warm-up to cut off, and set-up is trace generation and policy
//! construction only.

use std::time::Instant;

use kdd_cache::policies::RaidModel;
use kdd_cache::stats::CacheStats;
use kdd_cache::CacheGeometry;
use kdd_sim::{build_policy, replay_des, replay_open_loop, PolicyKind, ServiceModel};
use kdd_trace::record::Trace;
use kdd_trace::synth::PaperTrace;

use crate::alloc;
use crate::calib::Calibrator;
use crate::inputs::PAGE;
use crate::spans::{SpanLog, NONE};
use crate::spec::Profile;
use crate::stats::zip_cache_stats;
use crate::timing::{HostTimes, Segments};

/// Divisor of the Table I counts at each profile.
#[must_use]
pub fn scale(profile: Profile) -> u64 {
    match profile {
        Profile::Full => 100,
        Profile::Smoke => 1000,
    }
}

/// Position of the KDD policy in [`PolicyKind::latency_set`].
const KDD: usize = 4;

/// Per-policy sums over the four traces (open-loop replays).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicySums {
    /// Display name (`Nossd`, `WA`, `WT`, `LeavO`, `KDD-25%`).
    pub name: String,
    /// Requests replayed.
    pub requests: u64,
    /// Σ mean response × requests, ns.
    pub resp_sum_ns: f64,
    /// Worst per-trace p99, ns.
    pub p99_ns: u64,
    /// Policy counters summed over the traces.
    pub stats: CacheStats,
    /// Worst per-trace DES p99, ns.
    pub des_p99_ns: u64,
    /// Σ DES mean response × requests, ns.
    pub des_resp_sum_ns: f64,
    /// Σ DES mean queue depth × requests.
    pub des_depth_sum: f64,
}

/// What one repetition counted; identical across repetitions of one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Det {
    /// Trace records replayed over all segments (both paths).
    pub records: u64,
    /// Per-policy sums, in `latency_set` order.
    pub policies: Vec<PolicySums>,
    /// Allocation calls inside timed segments.
    pub allocs: u64,
    /// Bytes requested inside timed segments.
    pub alloc_bytes: u64,
    /// High-water mark of live heap bytes over the repetition.
    pub peak_bytes: u64,
    /// Records whose replay was checked.
    pub attempted: u64,
    /// Records of replays that failed a check.
    pub failed: u64,
    /// Digest of the generated traces.
    pub input_digest: u64,
}

impl Det {
    /// The KDD policy's sums.
    #[must_use]
    pub fn kdd(&self) -> &PolicySums {
        &self.policies[KDD]
    }
}

/// One repetition's result.
#[derive(Debug)]
pub struct Rep {
    /// Set-up (trace generation + policy construction) and the replay
    /// calls — open-loop and DES alternate — on the host clock.
    pub host: HostTimes,
    /// Counts and simulated times.
    pub det: Det,
    /// Host ns spent generating traces.
    pub gen_ns: u64,
    /// Records generated.
    pub gen_records: u64,
    /// Spans of a traced repetition.
    pub log: Option<SpanLog>,
}

fn geometry(cache_pages: u64) -> CacheGeometry {
    let total_pages = cache_pages.max(64);
    CacheGeometry { total_pages, ways: 64, page_size: PAGE as u32 }
}

fn trace_digest(t: &Trace, mut h: u64) -> u64 {
    for r in &t.records {
        let mut s =
            h ^ r.lba.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ r.time.as_nanos().rotate_left(17);
        s ^= u64::from(r.len) << 1 | u64::from(r.op == kdd_trace::Op::Read);
        h = kdd_util::rng::splitmix64(&mut s);
    }
    h
}

/// Generate the four traces and the policy geometry for each.
#[must_use]
pub fn inputs(profile: Profile, seed: u64) -> Vec<(Trace, CacheGeometry, RaidModel)> {
    PaperTrace::ALL
        .iter()
        .map(|pt| {
            let spec = pt.spec().scaled(scale(profile));
            let trace = spec.generate(seed);
            let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
            (trace, geometry(spec.unique_total / 10), raid)
        })
        .collect()
}

/// Run one repetition on the inputs of `seed`.
#[must_use]
pub fn run_rep(profile: Profile, seed: u64, traced: bool, cal: &mut Calibrator) -> Rep {
    cal.reset();
    alloc::reset_peak();
    let live0 = alloc::snapshot().live;
    let mut log = traced.then(SpanLog::new);

    let mut segs = Segments::default();
    let (inputs, t0, t1) = segs.setup(cal, || inputs(profile, seed));
    let gen_ns = t1.duration_since(t0).as_nanos() as u64;
    let mut build_ns = 0u64;
    let gen_records: u64 = inputs.iter().map(|(t, _, _)| t.len() as u64).sum();

    let kinds = PolicyKind::latency_set();
    let model = ServiceModel::paper_default();
    let mut det = Det {
        policies: kinds
            .iter()
            .map(|k| PolicySums { name: k.name(), ..PolicySums::default() })
            .collect(),
        ..Det::default()
    };

    let mut digest = 0x7472_6163_6573_u64;
    for (trace, g, raid) in &inputs {
        digest = trace_digest(trace, digest);
        let pages: u64 = trace.records.iter().map(|r| u64::from(r.len)).sum();
        for (k, &kind) in kinds.iter().enumerate() {
            let t0 = Instant::now();
            let mut p_open = build_policy(kind, *g, *raid, seed);
            let mut p_des = build_policy(kind, *g, *raid, seed);
            build_ns += t0.elapsed().as_nanos() as u64;

            let (open, t0, t1) = segs.run(cal, || {
                replay_open_loop(p_open.as_mut(), trace, &model, raid.layout.disks, 1)
            });
            let (des, t2, t3) =
                segs.run(cal, || replay_des(p_des.as_mut(), trace, &raid.layout, &model));
            if let Some(log) = &mut log {
                log.leaf(NONE, NONE, "sim.replay_open_loop", "sim", t0, t1);
                log.leaf(NONE, NONE, "sim.replay_des", "sim", t2, t3);
            }

            det.records += 2 * trace.len() as u64;
            det.attempted += 2 * trace.len() as u64;
            let stats = *p_open.stats();
            let open_ok = open.requests == pages
                && stats.requests() == pages
                && (open.hit_ratio - stats.hit_ratio()).abs() < 1e-12
                && open.mean_response.as_nanos() > 0
                && (kind != PolicyKind::Nossd || stats.hit_ratio() == 0.0);
            let des_ok = des.requests == pages && p_des.stats().requests() == pages;
            det.failed += trace.len() as u64 * (u64::from(!open_ok) + u64::from(!des_ok));

            let s = &mut det.policies[k];
            s.requests += open.requests;
            s.resp_sum_ns += open.mean_response.as_nanos() as f64 * open.requests as f64;
            s.p99_ns = s.p99_ns.max(open.p99.as_nanos());
            s.des_p99_ns = s.des_p99_ns.max(des.p99.as_nanos());
            s.des_resp_sum_ns += des.mean_response.as_nanos() as f64 * des.requests as f64;
            s.des_depth_sum += des.mean_queue_depth * des.requests as f64;
            s.stats = zip_cache_stats(&s.stats, &stats, |a, b| a + b);
        }
    }
    det.allocs = segs.alloc_calls;
    det.alloc_bytes = segs.alloc_bytes;
    det.peak_bytes = alloc::snapshot().peak.saturating_sub(live0);
    det.input_digest = digest;
    // Set-up is almost all trace generation; building a policy takes
    // microseconds, forty times.
    let drift = cal.drift(0..cal.kept());
    segs.setup_unbracketed(build_ns, drift);
    Rep { host: segs.finish(drift), det, gen_ns, gen_records, log }
}

/// Host ns per trace record of `CachePolicy::run_trace` for each policy of
/// the latency set, over the four traces (fresh policies, empty caches).
#[must_use]
pub fn policy_access_ns(profile: Profile, seed: u64, log: &mut SpanLog) -> Vec<(String, f64)> {
    let inputs = inputs(profile, seed);
    PolicyKind::latency_set()
        .into_iter()
        .map(|kind| {
            let (mut ns, mut records) = (0u64, 0u64);
            for (trace, g, raid) in &inputs {
                let mut p = build_policy(kind, *g, *raid, seed);
                let t0 = Instant::now();
                p.run_trace(trace);
                let t1 = Instant::now();
                std::hint::black_box(p.stats());
                ns += t1.duration_since(t0).as_nanos() as u64;
                records += trace.len() as u64;
                log.leaf(NONE, NONE, "probe.policy_run_trace", "cache", t0, t1);
            }
            (kind.name(), ns as f64 / records.max(1) as f64)
        })
        .collect()
}
