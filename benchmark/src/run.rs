//! Running workloads and folding repetitions into metrics.
//!
//! Protocol: every repetition of a workload runs on a fresh system with
//! identical inputs. Repetitions of different workloads are interleaved
//! round-robin, so a burst of noise on the machine is shared, not owned by
//! one workload. Host times are first divided by the drift the
//! calibrator's reference work showed beside them ([`crate::calib`]), then
//! folded over repetitions, set-up and throughput alike: per segment
//! (segment `i` does the same work in every repetition), taking each
//! segment's lower quartile and summing. Noise only ever adds time,
//! so the lower quartile sits closer to the code's own cost than the
//! median, and unlike the minimum it does not keep falling as repetitions
//! are added; on five-minute series of identical replays it was the
//! steadiest of the estimators tried (quartile spread between 15-second
//! groups 4–5 %, against 5–8 % for the per-segment median and 10–17 % for
//! anything computed from raw times). Simulated times and counts must be
//! identical across repetitions; the run aborts if they are not.

use std::collections::BTreeMap;
use std::time::Instant;

use kdd_obs::Stage;

use crate::calib::Calibrator;
use crate::counting_wl;
use crate::engine_wl::{self, EngineSpec, Traced};
use crate::probes::{self, ProbeOut};
use crate::spec::{Profile, END_TO_END, EST_SHARES, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_frac, lower_quartile_u64, median, quantile_u64};
use crate::timing::{timer_pair_ns, HostTimes};

/// Untraced repetitions a workload gets at least.
pub const MIN_REPS: usize = 3;

/// The end-to-end values that repeat exactly for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fixed {
    /// Operations in the timed region.
    pub ops: u64,
    /// Heap allocations per operation inside the timed region.
    pub allocs_per_op: f64,
    /// Heap bytes requested per operation inside the timed region.
    pub alloc_bytes_per_op: f64,
    /// High-water mark of live heap, MB (10^6 bytes).
    pub peak_heap_mb: f64,
    /// Mean simulated response time, µs.
    pub sim_mean_us: f64,
    /// Cache hits / requests.
    pub hit_ratio: f64,
    /// SSD pages written per user page written.
    pub ssd_bytes_per_user_byte: f64,
    /// Member-disk page I/Os per operation.
    pub hdd_ios_per_op: f64,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
}

/// One repetition as its workload produced it.
#[derive(Debug)]
pub enum Detail {
    /// An engine workload.
    Engine(Box<engine_wl::Rep>),
    /// The counting workload.
    Counting(Box<counting_wl::Rep>),
}

/// One repetition, with the end-to-end values every workload shares.
#[derive(Debug)]
pub struct RepResult {
    /// Exactly repeating values.
    pub fixed: Fixed,
    /// The workload's own result.
    pub detail: Detail,
}

impl RepResult {
    /// Set-up and timed segments on the host clock.
    #[must_use]
    pub fn host(&self) -> &HostTimes {
        match &self.detail {
            Detail::Engine(r) => &r.host,
            Detail::Counting(r) => &r.host,
        }
    }

    fn rate(&self, segs: &[u64]) -> f64 {
        self.fixed.ops as f64 * 1e9 / segs.iter().sum::<u64>().max(1) as f64
    }

    /// Operations per second of this repetition alone, at the reference
    /// machine speed.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.rate(&self.host().segs)
    }

    /// Operations per second of this repetition alone, as measured.
    #[must_use]
    pub fn raw_ops_per_s(&self) -> f64 {
        self.rate(&self.host().segs_raw)
    }

    fn same_counts(&self, other: &RepResult) -> bool {
        let detail = match (&self.detail, &other.detail) {
            (Detail::Engine(a), Detail::Engine(b)) => a.det == b.det,
            (Detail::Counting(a), Detail::Counting(b)) => a.det == b.det,
            _ => false,
        };
        let (a, b) = (self.host(), other.host());
        detail
            && self.fixed == other.fixed
            && a.segs.len() == b.segs.len()
            && a.setup.len() == b.setup.len()
    }
}

impl Fixed {
    fn of_engine(d: &engine_wl::Det) -> Fixed {
        let ops = d.ops.max(1) as f64;
        Fixed {
            ops: d.ops,
            allocs_per_op: d.allocs as f64 / ops,
            alloc_bytes_per_op: d.alloc_bytes as f64 / ops,
            peak_heap_mb: d.peak_bytes as f64 / 1e6,
            sim_mean_us: d.sim_sum_ns as f64 / ops / 1e3,
            hit_ratio: d.stats.hit_ratio(),
            ssd_bytes_per_user_byte: d.stats.ssd_writes_pages() as f64
                / d.user_write_pages.max(1) as f64,
            hdd_ios_per_op: (d.disk_reads + d.disk_writes) as f64 / ops,
            attempted: d.attempted,
            failed: d.failed,
            input_digest: d.input_digest,
        }
    }

    /// The simulated metrics are the KDD policy's, request-weighted over
    /// the four traces; the host-side ones cover the whole sweep.
    fn of_counting(d: &counting_wl::Det) -> Fixed {
        let k = d.kdd();
        let records = d.records.max(1) as f64;
        let requests = k.requests.max(1) as f64;
        Fixed {
            ops: d.records,
            allocs_per_op: d.allocs as f64 / records,
            alloc_bytes_per_op: d.alloc_bytes as f64 / records,
            peak_heap_mb: d.peak_bytes as f64 / 1e6,
            sim_mean_us: k.resp_sum_ns / requests / 1e3,
            hit_ratio: k.stats.hit_ratio(),
            ssd_bytes_per_user_byte: k.stats.ssd_writes_pages() as f64
                / (k.stats.write_hits + k.stats.write_misses).max(1) as f64,
            hdd_ios_per_op: (k.stats.raid_reads + k.stats.raid_writes) as f64 / requests,
            attempted: d.attempted,
            failed: d.failed,
            input_digest: d.input_digest,
        }
    }
}

/// How a workload is run.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// Through `KddEngine`.
    Engine(EngineSpec),
    /// Through the counting policies and the sim runners.
    Counting(Profile),
}

impl Runner {
    /// The runner of a workload by name.
    #[must_use]
    pub fn by_name(name: &str, profile: Profile) -> Option<Runner> {
        if name == "policy_sweep_counting" {
            return Some(Runner::Counting(profile));
        }
        EngineSpec::by_name(name, profile).map(Runner::Engine)
    }

    /// Run one repetition.
    #[must_use]
    pub fn rep(&self, seed: u64, traced: bool, cal: &mut Calibrator) -> RepResult {
        match self {
            Runner::Engine(spec) => {
                let r = engine_wl::run_rep(spec, seed, traced, cal);
                RepResult { fixed: Fixed::of_engine(&r.det), detail: Detail::Engine(Box::new(r)) }
            }
            Runner::Counting(profile) => {
                let r = counting_wl::run_rep(*profile, seed, traced, cal);
                RepResult {
                    fixed: Fixed::of_counting(&r.det),
                    detail: Detail::Counting(Box::new(r)),
                }
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Quartile spread over repetitions as a share of the median; `None`
    /// for values that repeat exactly.
    pub spread: Option<f64>,
    /// The end-to-end bound, if it has one.
    pub bound: Option<f64>,
    /// False when the value's own uncertainty — the spread of single
    /// repetitions over the square root of their number, about what a
    /// median of that many carries — exceeds the bound: two such values
    /// cannot be told apart at the bound's resolution.
    pub resolved: bool,
    /// For a ratio: what it is a ratio of, with both values.
    pub base: Option<String>,
}

/// Everything reported for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Untraced repetitions folded in.
    pub reps: usize,
    /// End-to-end metrics, in `END_TO_END` order.
    pub end_to_end: Vec<Metric>,
    /// Operations whose output was checked, over all repetitions.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Median drift of the repetitions' calibration ticks (1 = the
    /// reference machine speed; larger = this machine ran slower).
    pub drift: f64,
    /// `replay_ops_per_s` as measured, before drift normalisation.
    pub raw_ops_per_s: f64,
    /// `setup_s` as measured, before drift normalisation.
    pub raw_setup_s: f64,
    /// Per-layer metrics of the traced run, in `PER_LAYER` order.
    pub per_layer: Option<Vec<Metric>>,
    /// The traced run's spans, rendered.
    pub trace_file: Option<String>,
}

impl WorkloadReport {
    /// Failed operations over attempted ones; must be 0.
    #[must_use]
    pub fn failed_ops_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Fold untraced repetitions into the end-to-end metrics.
///
/// # Panics
/// Panics when two repetitions disagree on a count or a simulated time:
/// the system is meant to be deterministic, and nothing measured on a
/// non-repeating run can be compared with anything.
#[must_use]
pub fn end_to_end(name: &'static str, reps: &[RepResult]) -> WorkloadReport {
    let first = reps.first().expect("at least one repetition");
    for (i, r) in reps.iter().enumerate().skip(1) {
        assert!(
            first.same_counts(r),
            "{name}: repetition {i} disagrees with repetition 0 on counts or simulated time:\n{:?}\nvs\n{:?}",
            r.fixed,
            first.fixed
        );
    }
    // Segment `i` does the same work in every repetition: its lower
    // quartile over the repetitions, summed over the segments.
    let steady_ns = |of: fn(&HostTimes) -> &Vec<u64>| -> f64 {
        (0..of(first.host()).len())
            .map(|i| lower_quartile_u64(&reps.iter().map(|r| of(r.host())[i]).collect::<Vec<_>>()))
            .sum()
    };
    let (timed_ns, setup_ns) = (steady_ns(|h| &h.segs), steady_ns(|h| &h.setup));
    let secs = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
    let per_rep_rate: Vec<f64> = reps.iter().map(RepResult::ops_per_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| secs(&r.host().setup)).collect();
    let drift = median(&reps.iter().map(|r| r.host().drift).collect::<Vec<_>>());
    let raw_rate = median(&reps.iter().map(RepResult::raw_ops_per_s).collect::<Vec<_>>());
    let raw_setup = median(&reps.iter().map(|r| secs(&r.host().setup_raw)).collect::<Vec<_>>());
    let f = &first.fixed;
    // (value, quartile spread over repetitions, what it was before normalisation)
    let value = |metric: &str| match metric {
        "setup_s" => (
            setup_ns / 1e9,
            Some(iqr_frac(&setups)),
            Some(format!("as measured {raw_setup:.4} s at drift {drift:.3}")),
        ),
        "replay_ops_per_s" => (
            f.ops as f64 * 1e9 / timed_ns.max(1.0),
            Some(iqr_frac(&per_rep_rate)),
            Some(format!("as measured {raw_rate:.0} 1/s at drift {drift:.3}")),
        ),
        "allocs_per_op" => (f.allocs_per_op, None, None),
        "alloc_bytes_per_op" => (f.alloc_bytes_per_op, None, None),
        "peak_heap_mb" => (f.peak_heap_mb, None, None),
        "sim_mean_response_us" => (f.sim_mean_us, None, None),
        "hit_ratio" => (f.hit_ratio, None, None),
        "ssd_bytes_per_user_byte" => (f.ssd_bytes_per_user_byte, None, None),
        "hdd_ios_per_op" => (f.hdd_ios_per_op, None, None),
        other => unreachable!("END_TO_END names a metric `{other}` that nothing computes"),
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let (value, spread, base) = value(m.name);
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                spread,
                bound: Some(m.bound),
                resolved: spread.is_none_or(|s| s / (reps.len() as f64).sqrt() <= m.bound),
                base,
            }
        })
        .collect();
    WorkloadReport {
        name,
        reps: reps.len(),
        end_to_end,
        attempted: reps.iter().map(|r| r.fixed.attempted).sum(),
        failed: reps.iter().map(|r| r.fixed.failed).sum(),
        input_digest: f.input_digest,
        drift,
        raw_ops_per_s: raw_rate,
        raw_setup_s: raw_setup,
        per_layer: None,
        trace_file: None,
    }
}

/// What the traced run adds to a workload's report.
#[derive(Default)]
struct LayerValues {
    values: BTreeMap<String, f64>,
    bases: BTreeMap<String, String>,
}

impl LayerValues {
    /// Set a per-layer metric. A name `PER_LAYER` does not list would be
    /// dropped from the report without a trace, so it is a bug here.
    fn set(&mut self, name: &str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "`{name}` is not in PER_LAYER");
        self.values.insert(name.to_string(), v);
    }

    fn base(&mut self, name: &str, text: String) {
        self.bases.insert(name.to_string(), text);
    }
}

/// Run the traced repetition (and, for an engine workload, the layer
/// probes) and fold it into `report`.
pub fn add_traced_run(
    report: &mut WorkloadReport,
    runner: &Runner,
    seed: u64,
    untraced: &[RepResult],
    cal: &mut Calibrator,
) {
    let traced = runner.rep(seed, true, cal);
    let untraced_rate = median(&untraced.iter().map(RepResult::ops_per_s).collect::<Vec<_>>());
    let mut lv = LayerValues::default();
    // One traced repetition against the median of the untraced ones: when
    // the recorder costs less than that repetition's noise the difference
    // comes out below zero, which reads as "no overhead seen", 0.
    lv.set(
        "obs.recorder_overhead_frac",
        (1.0 - traced.ops_per_s() / untraced_rate.max(1e-9)).max(0.0),
    );
    lv.base(
        "obs.recorder_overhead_frac",
        format!("1 - {:.0} traced / {:.0} untraced ops/s", traced.ops_per_s(), untraced_rate),
    );
    lv.set("harness.timer_pair_ns", timer_pair_ns());
    lv.set(
        "harness.rep_iqr_frac",
        iqr_frac(&untraced.iter().map(RepResult::ops_per_s).collect::<Vec<_>>()),
    );
    lv.set("harness.drift", report.drift);
    lv.set("harness.raw_replay_ops_per_s", report.raw_ops_per_s);
    lv.set("harness.raw_setup_s", report.raw_setup_s);
    // Shares are of the traced replay's own wall time, as measured: the
    // probes that price the layers are raw host times too.
    let timed_ns = traced.host().segs_raw.iter().sum::<u64>().max(1) as f64;
    let log = match (traced.detail, runner) {
        (Detail::Engine(rep), Runner::Engine(spec)) => {
            let engine_wl::Rep { det, traced, .. } = *rep;
            let mut tr = traced.expect("a traced repetition carries its trace");
            let probe =
                probes::run(spec, seed, &tr.lbas, &tr.pairs, tr.ssd_mapped_pages, &mut tr.log);
            engine_layers(&mut lv, &det, &tr, &probe, timed_ns);
            tr.log
        }
        (Detail::Counting(rep), Runner::Counting(p)) => {
            let mut rep = *rep;
            let mut log = rep.log.take().expect("a traced repetition carries its trace");
            let access = counting_wl::policy_access_ns(*p, seed, &mut log);
            counting_layers(&mut lv, &rep, &access, timed_ns);
            log
        }
        _ => unreachable!("a runner returns its own kind of repetition"),
    };
    let unattributed =
        1.0 - EST_SHARES.iter().map(|&n| lv.values.get(n).copied().unwrap_or(0.0)).sum::<f64>();
    lv.set("harness.unattributed_share", unattributed);
    report.per_layer = Some(
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                unit,
                value: lv.values.get(name).copied().unwrap_or(0.0),
                spread: None,
                bound: None,
                resolved: true,
                base: lv.bases.get(name).cloned(),
            })
            .collect(),
    );
    report.trace_file = Some(log.render(report.name, seed));
}

fn engine_layers(
    lv: &mut LayerValues,
    det: &engine_wl::Det,
    tr: &Traced,
    p: &ProbeOut,
    timed_ns: f64,
) {
    let s = &det.stats;
    let ops = det.ops.max(1) as f64;
    let kop = ops / 1e3;
    let frac = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;

    lv.set("trace.generate_records_per_s", tr.gen_records as f64 * 1e9 / tr.gen_ns.max(1) as f64);
    lv.set("delta.content_gen_ns_per_page", tr.content_ns as f64 / tr.content_pages.max(1) as f64);
    lv.set("delta.xor_ns_per_page", p.xor_ns);
    lv.set("delta.compress_ns_per_page", p.compress_ns);
    lv.set("delta.decompress_ns_per_page", p.decompress_ns);
    lv.set("delta.compressed_bytes_mean", p.compressed_bytes_mean);
    lv.set("delta.codec_frac.raw", p.codec_frac[0]);
    lv.set("delta.codec_frac.zero_rle", p.codec_frac[1]);
    lv.set("delta.codec_frac.lz", p.codec_frac[2]);

    lv.set("cache.read_hit_ratio", frac(s.read_hits, s.read_hits + s.read_misses));
    lv.set("cache.write_hit_ratio", frac(s.write_hits, s.write_hits + s.write_misses));
    lv.set("cache.evictions_per_kop", s.evictions as f64 / kop);
    lv.set("cache.lookup_ns", p.cache_lookup_ns);
    lv.set("cache.insert_ns", p.cache_insert_ns);

    lv.set("core.read_calls", tr.read_ns.len() as f64);
    lv.set("core.read_host_p50_us", us(quantile_u64(&tr.read_ns, 0.50)));
    lv.set("core.read_host_p99_us", us(quantile_u64(&tr.read_ns, 0.99)));
    lv.set("core.read_host_share", tr.read_ns.iter().sum::<u64>() as f64 / timed_ns);
    lv.set("core.write_batch_calls", tr.write_batch_calls as f64);
    lv.set("core.write_page_host_p50_us", us(quantile_u64(&tr.write_page_ns, 0.50)));
    lv.set("core.write_page_host_p99_us", us(quantile_u64(&tr.write_page_ns, 0.99)));
    lv.set("core.write_host_share", tr.write_ns_total as f64 / timed_ns);
    lv.set("core.clean_host_ms", ms(tr.call_ns.get("core.clean").copied().unwrap_or(0)));
    lv.set("core.flush_host_ms", ms(tr.call_ns.get("core.flush").copied().unwrap_or(0)));
    lv.set("core.cleanings", s.cleanings as f64);
    lv.set("core.parity_updates_per_kop", s.parity_updates as f64 / kop);
    lv.set("core.pending_rows_peak", tr.pending_rows_peak as f64);
    lv.set("core.staged_deltas_peak", tr.staged_deltas_peak as f64);
    lv.set("core.ssd_data_pages_per_kop", s.ssd_data_writes as f64 / kop);
    lv.set("core.ssd_delta_pages_per_kop", s.ssd_delta_writes as f64 / kop);
    lv.set("core.ssd_meta_pages_per_kop", s.ssd_meta_writes as f64 / kop);
    lv.set("core.metalog_push_ns", p.metalog_push_ns);
    lv.set("core.staging_insert_ns", p.staging_insert_ns);
    lv.set(
        "core.power_cycle_host_ms",
        ms(tr.call_ns.get("core.power_cycle").copied().unwrap_or(0)),
    );
    lv.set(
        "core.hdd_recovery_host_ms",
        ms(tr.call_ns.get("core.recover_from_hdd_failure").copied().unwrap_or(0)),
    );
    lv.set("core.sim_p99_us", us(det.sim_p99_ns));
    lv.set("core.sim_p999_us", us(det.sim_p999_ns));
    lv.base("core.sim_p999_us", format!("of {} responses", s.requests()));
    let sim_total = tr.stage_sum_ns.iter().sum::<u64>().max(1) as f64;
    for stage in Stage::ALL {
        let ns = tr.stage_sum_ns.get(stage.index()).copied().unwrap_or(0);
        lv.set(&format!("core.sim_share.{}", stage.as_str()), ns as f64 / sim_total);
    }

    lv.set("raid.disk_reads_per_op", det.disk_reads as f64 / ops);
    lv.set("raid.disk_writes_per_op", det.disk_writes as f64 / ops);
    lv.set("raid.stale_rows_peak", tr.stale_rows_peak as f64);
    lv.set("raid.read_page_ns", p.raid_read_ns);
    lv.set("raid.write_page_ns", p.raid_write_ns);
    lv.set("raid.write_no_parity_ns", p.raid_write_no_parity_ns);
    lv.set("raid.parity_update_rmw_ns", p.raid_parity_rmw_ns);
    lv.set("raid.degraded_read_ns", p.raid_degraded_read_ns);
    lv.set("raid.rebuild_ns_per_row", p.raid_rebuild_ns_per_row);
    lv.set("raid.gf256_mul2_ns_per_page", p.gf256_mul2_ns);

    lv.set("blockdev.ssd_host_pages_per_kop", det.ssd_host_bytes as f64 / 4096.0 / kop);
    lv.set("blockdev.waf", det.ssd_nand_bytes as f64 / det.ssd_host_bytes.max(1) as f64);
    lv.set("blockdev.erases_per_kop", det.erases as f64 / kop);
    lv.set("blockdev.max_erase_count", f64::from(det.max_erase));
    lv.set("blockdev.ssd_write_ns", p.ssd_write_ns);
    lv.set("blockdev.ssd_read_ns", p.ssd_read_ns);

    // Estimated shares of the replay's host time: probe ns per call times
    // the calls the counters say the replay made.
    let misses = (s.read_misses + s.write_misses) as f64;
    let decodes = tr.stage_count.get(Stage::DeltaDecode.index()).copied().unwrap_or(0) as f64;
    let delta = s.write_hits as f64 * (p.xor_ns + p.compress_ns) + decodes * p.decompress_ns;
    let cache = s.requests() as f64 * p.cache_lookup_ns + misses * p.cache_insert_ns;
    // One log entry per fill, eviction and committed delta (an estimate:
    // the engine exposes no entry counter).
    let log_entries = misses + s.evictions as f64 + s.write_hits as f64;
    let core = log_entries * p.metalog_push_ns + s.write_hits as f64 * p.staging_insert_ns;
    let raid = s.read_misses as f64 * p.raid_read_ns
        + s.write_misses as f64 * p.raid_write_ns
        + s.write_hits as f64 * p.raid_write_no_parity_ns
        + s.parity_updates as f64 * p.raid_parity_rmw_ns;
    let ssd = s.ssd_writes_pages() as f64 * p.ssd_write_ns + s.ssd_reads as f64 * p.ssd_read_ns;
    lv.set("delta.est_share", delta / timed_ns);
    lv.set("cache.est_share", cache / timed_ns);
    lv.set("core.est_share_metalog_staging", core / timed_ns);
    lv.set("raid.est_share", raid / timed_ns);
    lv.set("blockdev.est_share", ssd / timed_ns);
    lv.set("obs.spans_dropped", tr.ring_dropped as f64);
}

fn counting_layers(
    lv: &mut LayerValues,
    rep: &counting_wl::Rep,
    access: &[(String, f64)],
    timed_ns: f64,
) {
    let (det, segs) = (&rep.det, &rep.host.segs_raw);
    lv.set("trace.generate_records_per_s", rep.gen_records as f64 * 1e9 / rep.gen_ns.max(1) as f64);
    let k = det.kdd();
    let s = &k.stats;
    let frac = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    lv.set("cache.read_hit_ratio", frac(s.read_hits, s.read_hits + s.read_misses));
    lv.set("cache.write_hit_ratio", frac(s.write_hits, s.write_hits + s.write_misses));
    lv.set("cache.evictions_per_kop", s.evictions as f64 * 1e3 / k.requests.max(1) as f64);
    lv.set("core.cleanings", s.cleanings as f64);
    lv.set("core.parity_updates_per_kop", s.parity_updates as f64 * 1e3 / k.requests.max(1) as f64);
    let kreq = k.requests.max(1) as f64 / 1e3;
    lv.set("core.ssd_data_pages_per_kop", s.ssd_data_writes as f64 / kreq);
    lv.set("core.ssd_delta_pages_per_kop", s.ssd_delta_writes as f64 / kreq);
    lv.set("core.ssd_meta_pages_per_kop", s.ssd_meta_writes as f64 / kreq);
    lv.set("raid.disk_reads_per_op", frac(s.raid_reads, k.requests));
    lv.set("raid.disk_writes_per_op", frac(s.raid_writes, k.requests));

    // Segments alternate open-loop, DES; each path replays half the records.
    let open_ns: u64 = segs.iter().step_by(2).sum();
    let des_ns: u64 = segs.iter().skip(1).step_by(2).sum();
    let half = det.records as f64 / 2.0;
    lv.set("sim.open_loop_records_per_s", half * 1e9 / open_ns.max(1) as f64);
    lv.set("sim.des_records_per_s", half * 1e9 / des_ns.max(1) as f64);
    lv.set("sim.des_mean_queue_depth", k.des_depth_sum / k.requests.max(1) as f64);

    let by_name = |n: &str| det.policies.iter().find(|p| p.name == n);
    let mean_us = |p: &counting_wl::PolicySums| p.resp_sum_ns / p.requests.max(1) as f64 / 1e3;
    let mut ratio = |name: &'static str, base: &str, pages: bool| {
        let Some(b) = by_name(base) else { return };
        let (kv, bv, what) = if pages {
            (s.ssd_writes_pages() as f64, b.stats.ssd_writes_pages() as f64, "SSD pages written")
        } else {
            (mean_us(k), mean_us(b), "mean response us")
        };
        lv.set(name, kv / bv.max(1e-9));
        lv.base(name, format!("{what}: {} {kv:.1} / {base} {bv:.1}", k.name));
    };
    ratio("sim.kdd_response_vs_nossd", "Nossd", false);
    ratio("sim.kdd_response_vs_wt", "WT", false);
    ratio("sim.kdd_ssd_writes_vs_wt", "WT", true);
    ratio("sim.kdd_ssd_writes_vs_leavo", "LeavO", true);
    lv.set("sim.kdd_p99_us", k.p99_ns as f64 / 1e3);
    lv.set("sim.kdd_des_p99_us", k.des_p99_ns as f64 / 1e3);
    lv.base("sim.kdd_p99_us", format!("worst of four traces, {} responses in all", k.requests));

    // Each path replays every trace once per policy, so a policy's access
    // cost is paid 2 x (records per policy) times in the timed region.
    let per_policy = half / det.policies.len().max(1) as f64;
    let mut baseline_ns = 0.0;
    for (name, ns) in access {
        let metric = match name.as_str() {
            "Nossd" => "cache.policy_access_ns.nossd",
            "WA" => "cache.policy_access_ns.wa",
            "WT" => "cache.policy_access_ns.wt",
            "LeavO" => "cache.policy_access_ns.leavo",
            _ => "core.policy_access_ns.kdd",
        };
        lv.set(metric, *ns);
        if metric.starts_with("cache.") {
            baseline_ns += ns * per_policy * 2.0;
        }
    }
    lv.set("cache.est_share", baseline_ns / timed_ns);
}

/// Options of one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run this workload only; all of them when `None`.
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement per workload.
    pub seconds: f64,
    /// Add the traced run and report per-layer metrics.
    pub trace: bool,
    /// Workload sizes.
    pub profile: Profile,
}

/// Run the selected workloads and return their reports, in `WORKLOADS`
/// order.
///
/// # Errors
/// Returns the offending name when `--workload` names no workload.
pub fn run(opts: &Options) -> Result<Vec<WorkloadReport>, String> {
    let selected: Vec<(&'static str, Runner)> = WORKLOADS
        .iter()
        .filter(|w| opts.workload.as_deref().is_none_or(|n| n == w.name))
        .filter_map(|w| Runner::by_name(w.name, opts.profile).map(|r| (w.name, r)))
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "unknown workload `{}`; known: {}",
            opts.workload.as_deref().unwrap_or(""),
            WORKLOADS.map(|w| w.name).join(", ")
        ));
    }
    // A traced invocation spends half its budget on untraced repetitions
    // (the traced run's overhead is measured against them) and the rest on
    // the traced repetition and the probes.
    let (min_reps, share) = if opts.trace { (2, 0.5) } else { (MIN_REPS, 1.0) };
    let budget = opts.seconds * share * selected.len() as f64;
    let mut cal = Calibrator::new();
    let start = Instant::now();
    let mut reps: Vec<Vec<RepResult>> = selected.iter().map(|_| Vec::new()).collect();
    let mut round = 0;
    while round < min_reps || start.elapsed().as_secs_f64() < budget {
        for ((_, runner), out) in selected.iter().zip(&mut reps) {
            out.push(runner.rep(opts.seed, false, &mut cal));
        }
        round += 1;
    }
    let mut reports = Vec::with_capacity(selected.len());
    for ((name, runner), reps) in selected.iter().zip(&reps) {
        let mut report = end_to_end(name, reps);
        if opts.trace {
            add_traced_run(&mut report, runner, opts.seed, reps, &mut cal);
        }
        reports.push(report);
    }
    Ok(reports)
}
