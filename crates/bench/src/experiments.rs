//! The experiments: every table and figure of the paper, plus the
//! ablations DESIGN.md calls out. [`EXPERIMENTS`] names each one once and
//! maps it to the sweep that computes it; a [`Runner`] runs each sweep at
//! most once, so Figures 5/6, 7/8 and 10/11 + Table II each share one.
//! Every (workload, cache size, policy) cell of a sweep is independent
//! and runs in order.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::report::Row;
use kdd_cache::policies::{CachePolicy, RaidModel};
use kdd_cache::setassoc::CacheGeometry;
use kdd_core::{KddConfig, KddPolicy, KddVariant};
use kdd_delta::model::GaussianDeltaModel;
use kdd_obs::Recorder;
use kdd_raid::layout::{Layout, RaidLevel};
use kdd_sim::closedloop::run_closed_loop;
use kdd_sim::factory::{build_policy, PolicyKind};
use kdd_sim::openloop::replay_open_loop;
use kdd_sim::service::ServiceModel;
use kdd_trace::fio::{FioConfig, FioWorkload};
use kdd_trace::record::Trace;
use kdd_trace::stats::TraceStats;
use kdd_trace::synth::PaperTrace;

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Divides the Table I trace sizes and the FIO volume.
    pub scale: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig { scale: 100, seed: 42 }
    }
}

/// One table or figure: its name, the sweep that computes it, and which
/// of the sweep's outputs it prints.
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` takes and every row carries.
    pub name: &'static str,
    sweep: Sweep,
    part: usize,
}

const fn exp(name: &'static str, sweep: Sweep, part: usize) -> Experiment {
    Experiment { name, sweep, part }
}

/// Every experiment, in the order `repro all` prints them.
pub static EXPERIMENTS: [Experiment; 17] = [
    exp("table1", Sweep::TraceStats, 0),
    exp("fig4", Sweep::MetadataPartition, 0),
    exp("fig5", Sweep::HitAndTraffic(&PaperTrace::WRITE_DOMINANT), 0),
    exp("fig6", Sweep::HitAndTraffic(&PaperTrace::WRITE_DOMINANT), 1),
    exp("fig7", Sweep::HitAndTraffic(&PaperTrace::READ_DOMINANT), 0),
    exp("fig8", Sweep::HitAndTraffic(&PaperTrace::READ_DOMINANT), 1),
    exp("fig9", Sweep::OpenLoopLatency, 0),
    exp("fig10", Sweep::Fio, 0),
    exp("fig11", Sweep::Fio, 1),
    exp("table2", Sweep::Fio, 2),
    // Dynamic DAZ/DEZ mixing (the paper's design) vs static partitions at
    // 10 % and 30 % DEZ reservations (§III-B's rejected alternative).
    exp(
        "ablation_zoning",
        Sweep::Ablation(&[
            ("dynamic", KddVariant::Paper),
            ("fixed-10%", KddVariant::FixedDez(0.10)),
            ("fixed-30%", KddVariant::FixedDez(0.30)),
        ]),
        0,
    ),
    // §III-D's two reclamation schemes: simple reclaim (the paper's
    // choice) vs re-materialising cleaned pages as clean copies.
    exp(
        "ablation_reclaim",
        Sweep::Ablation(&[
            ("simple-reclaim", KddVariant::Paper),
            ("reclaim-as-clean", KddVariant::ReclaimAsClean),
        ]),
        0,
    ),
    // NVRAM metadata batching (the circular-log design) vs a metadata page
    // write per mapping change (§III-B's motivation).
    exp(
        "ablation_metalog",
        Sweep::Ablation(&[
            ("nvram-batched", KddVariant::Paper),
            ("unbatched", KddVariant::UnbatchedMetadata),
        ]),
        0,
    ),
    // Stripe-aligned cache-set placement vs per-page hashing (§III-B's
    // spatial-locality mapping).
    exp(
        "ablation_setmap",
        Sweep::Ablation(&[
            ("stripe-aligned", KddVariant::Paper),
            ("page-hashed", KddVariant::PageHashedSets),
        ]),
        0,
    ),
    // Extension study: LARC-style lazy admission on top of KDD (§V-C calls
    // the selective-allocation family "complementary to our KDD").
    exp(
        "ablation_admission",
        Sweep::Ablation(&[
            ("always-admit", KddVariant::Paper),
            ("lazy-admit", KddVariant::LazyAdmission),
        ]),
        0,
    ),
    exp("ablation_raid6", Sweep::RaidLevels, 0),
    exp("ablation_desmodel", Sweep::DesModel, 0),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// What computes an experiment's rows; one sweep may feed several
/// experiments, one output each.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sweep {
    TraceStats,
    MetadataPartition,
    /// Hit ratio, then SSD write traffic, over cache sizes on these traces.
    HitAndTraffic(&'static [PaperTrace]),
    OpenLoopLatency,
    /// Latency, SSD write traffic, then Table II's verdicts.
    Fio,
    /// KDD-25 % under each labelled variant.
    Ablation(&'static [(&'static str, KddVariant)]),
    RaidLevels,
    DesModel,
}

impl Sweep {
    fn run(self, cfg: &ExpConfig) -> Vec<Vec<Row>> {
        match self {
            Sweep::TraceStats => vec![trace_stats(cfg)],
            Sweep::MetadataPartition => vec![metadata_partition(cfg)],
            Sweep::HitAndTraffic(traces) => hit_and_traffic(traces, cfg),
            Sweep::OpenLoopLatency => vec![open_loop_latency(cfg)],
            Sweep::Fio => fio(cfg),
            Sweep::Ablation(variants) => vec![ablation(variants, cfg)],
            Sweep::RaidLevels => vec![raid_levels(cfg)],
            Sweep::DesModel => vec![des_model(cfg)],
        }
    }
}

/// Runs experiments, each sweep at most once.
#[derive(Debug)]
pub struct Runner {
    cfg: ExpConfig,
    done: Vec<(Sweep, Vec<Vec<Row>>)>,
}

impl Runner {
    /// A runner with no sweep run yet.
    pub fn new(cfg: ExpConfig) -> Self {
        Runner { cfg, done: Vec::new() }
    }

    /// `experiment`'s rows, from its sweep's earlier run if there was one.
    pub fn rows(&mut self, experiment: &Experiment) -> Vec<Row> {
        let i = match self.done.iter().position(|(sweep, _)| *sweep == experiment.sweep) {
            Some(i) => i,
            None => {
                self.done.push((experiment.sweep, experiment.sweep.run(&self.cfg)));
                self.done.len() - 1
            }
        };
        let mut rows = self.done[i].1[experiment.part].clone();
        for row in &mut rows {
            row.experiment = experiment.name.to_string();
        }
        rows
    }
}

/// Cache sizes swept in Figures 5–8, as fractions of a trace's unique
/// pages (the paper's x-axes span roughly this range of its traces).
const CACHE_FRACTIONS: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];

fn geometry(cache_pages: u64) -> CacheGeometry {
    CacheGeometry {
        total_pages: cache_pages.max(64),
        ways: 64.min(cache_pages.max(64) as u32),
        page_size: 4096,
    }
}

fn gen(pt: PaperTrace, cfg: &ExpConfig) -> Trace {
    pt.generate_scaled(cfg.scale, cfg.seed)
}

fn raid_for(trace: &Trace) -> RaidModel {
    RaidModel::paper_default(trace.address_space_pages().max(1024))
}

/// The cache Figure 9 and the ablations use: 15 % of a trace's unique
/// pages.
fn cache_pages_15(trace: &Trace) -> u64 {
    (TraceStats::compute(trace).unique_total * 15 / 100).max(256)
}

fn by_workload_then_policy(rows: &mut [Row]) {
    rows.sort_by_key(|a| (a.workload.clone(), a.policy.clone()));
}

/// Table I: characteristics of the (regenerated) traces.
fn trace_stats(cfg: &ExpConfig) -> Vec<Row> {
    PaperTrace::ALL
        .iter()
        .map(|&pt| {
            let s = TraceStats::compute(&gen(pt, cfg));
            Row::new(
                pt.name(),
                "scale",
                cfg.scale as f64,
                "-",
                vec![
                    ("unique_total_k", s.unique_total as f64 / 1000.0),
                    ("unique_read_k", s.unique_read as f64 / 1000.0),
                    ("unique_write_k", s.unique_write as f64 / 1000.0),
                    ("read_req_k", s.read_requests as f64 / 1000.0),
                    ("write_req_k", s.write_requests as f64 / 1000.0),
                    ("read_ratio", s.read_ratio()),
                ],
            )
        })
        .collect()
}

/// Figure 4: metadata I/O share of SSD write traffic vs the metadata
/// partition size (0.39 %–0.98 % of the SSD), per trace and cache size.
fn metadata_partition(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for pt in PaperTrace::ALL {
        let trace = gen(pt, cfg);
        let stats = TraceStats::compute(&trace);
        for cache_frac in [0.10f64, 0.20] {
            let cache_pages = ((stats.unique_total as f64 * cache_frac) as u64).max(256);
            for part_frac in [0.0039f64, 0.0059, 0.0078, 0.0098] {
                let config = KddConfig {
                    meta_partition_frac: part_frac,
                    ..KddConfig::new(geometry(cache_pages))
                };
                let model = Box::new(GaussianDeltaModel::new(0.25, cfg.seed));
                let mut p = KddPolicy::new(config, raid_for(&trace), model);
                p.run_trace(&trace);
                rows.push(Row::new(
                    pt.name(),
                    "partition_pct",
                    part_frac * 100.0,
                    &format!("cache={:.3}k", cache_pages as f64 / 1000.0),
                    vec![
                        ("metadata_pct", p.stats().metadata_fraction() * 100.0),
                        ("meta_pages", p.stats().ssd_meta_writes as f64),
                    ],
                ));
            }
        }
    }
    // Already in (workload, cache size, partition) order; a sort by label
    // would put `cache=12.753k` before `cache=6.376k`.
    rows
}

/// Figures 5/7 (hit ratios) and 6/8 (SSD write traffic) over the cache
/// sizes, on the write-dominant or the read-dominant traces.
fn hit_and_traffic(traces: &[PaperTrace], cfg: &ExpConfig) -> Vec<Vec<Row>> {
    let (mut hit, mut traffic) = (Vec::new(), Vec::new());
    for &pt in traces {
        let trace = gen(pt, cfg);
        let stats = TraceStats::compute(&trace);
        for cache_frac in CACHE_FRACTIONS {
            let cache_pages = ((stats.unique_total as f64 * cache_frac) as u64).max(256);
            for kind in PolicyKind::figure_set() {
                let mut p = build_policy(kind, geometry(cache_pages), raid_for(&trace), cfg.seed);
                p.run_trace(&trace);
                let s = p.stats();
                let x = cache_pages as f64 / 1000.0;
                // WA caches no writes: the paper omits it from the hit-ratio plots.
                if kind != PolicyKind::Wa {
                    let hit_pct = s.hit_ratio() * 100.0;
                    hit.push(Row::new(
                        pt.name(),
                        "cache_kpages",
                        x,
                        &kind.name(),
                        vec![("hit_pct", hit_pct)],
                    ));
                }
                let mib = s.ssd_write_bytes(4096).as_u64() as f64 / (1 << 20) as f64;
                traffic.push(Row::new(
                    pt.name(),
                    "cache_kpages",
                    x,
                    &kind.name(),
                    vec![("ssd_write_mib", mib)],
                ));
            }
        }
    }
    let key = |r: &Row| (r.workload.clone(), r.policy.clone(), (r.x * 1e6) as i64);
    hit.sort_by_key(key);
    traffic.sort_by_key(key);
    vec![hit, traffic]
}

/// Figure 9: average response time, open-loop trace replay.
fn open_loop_latency(cfg: &ExpConfig) -> Vec<Row> {
    let model = ServiceModel::paper_default();
    let mut rows = Vec::new();
    for pt in PaperTrace::ALL {
        let trace = gen(pt, cfg);
        let cache_pages = cache_pages_15(&trace);
        for kind in PolicyKind::latency_set() {
            let mut p = build_policy(kind, geometry(cache_pages), raid_for(&trace), cfg.seed);
            let r = replay_open_loop(p.as_mut(), &trace, &model, 5, 1);
            rows.push(Row::new(
                pt.name(),
                "cache_kpages",
                cache_pages as f64 / 1000.0,
                &kind.name(),
                vec![
                    ("mean_resp_ms", r.mean_response.as_nanos() as f64 / 1e6),
                    ("p99_resp_ms", r.p99.as_nanos() as f64 / 1e6),
                    ("hit_pct", r.hit_ratio * 100.0),
                ],
            ));
        }
    }
    by_workload_then_policy(&mut rows);
    rows
}

/// The paper's FIO read-rate sweep (0 %–75 %).
const FIO_READ_RATES: [f64; 4] = [0.0, 0.25, 0.50, 0.75];

/// Figure 10 (average response time) and Figure 11 (SSD write traffic)
/// under FIO at 0–75 % read rates, then Table II: the qualitative policy
/// comparison at the 25 % read rate (1.0 = Low latency / Good endurance,
/// 0.0 = High latency / Bad endurance).
fn fio(cfg: &ExpConfig) -> Vec<Vec<Row>> {
    let model = ServiceModel::paper_default();
    let mut sweep = Vec::new();
    // Paper: 1 GiB cache under a 1.6 GiB working set.
    let g = geometry(((1u64 << 30) / 4096 / cfg.scale).max(64));
    for rate in FIO_READ_RATES {
        let fio = FioConfig::paper(rate).scaled(cfg.scale);
        let raid = RaidModel::paper_default(fio.wss_pages.max(1024));
        for kind in PolicyKind::latency_set() {
            let mut p = build_policy(kind, g, raid, cfg.seed);
            let mut w = FioWorkload::new(fio, cfg.seed + 1);
            let r = run_closed_loop(p.as_mut(), &mut w, &model, 5, &Recorder::disabled());
            let ms = r.mean_response.as_nanos() as f64 / 1e6;
            let mib = r.ssd_write_bytes.as_u64() as f64 / (1 << 20) as f64;
            sweep.push((rate, kind, ms, mib));
        }
    }
    let row = |rate: f64, kind: PolicyKind, metrics| {
        Row::new("fio-zipf", "read_rate", rate, &kind.name(), metrics)
    };
    let by_policy_then_rate = |rows: &mut Vec<Row>| {
        rows.sort_by_key(|a| (a.policy.clone(), (a.x * 100.0) as i64));
    };
    let mut latency: Vec<Row> = sweep
        .iter()
        .map(|&(rate, kind, ms, _)| row(rate, kind, vec![("mean_resp_ms", ms)]))
        .collect();
    by_policy_then_rate(&mut latency);
    let mut traffic: Vec<Row> = sweep
        .iter()
        .filter(|(_, kind, _, _)| *kind != PolicyKind::Nossd)
        .map(|&(rate, kind, _, mib)| row(rate, kind, vec![("ssd_write_mib", mib)]))
        .collect();
    by_policy_then_rate(&mut traffic);
    let at = |kind: PolicyKind| -> (f64, f64) {
        sweep
            .iter()
            .find(|(r, k, _, _)| *r == 0.25 && *k == kind)
            .map(|&(_, _, ms, mib)| (ms, mib))
            .expect("sweep covers 0.25")
    };
    let (nossd_ms, _) = at(PolicyKind::Nossd);
    let (_, wt_mib) = at(PolicyKind::Wt);
    let verdicts = [PolicyKind::Wt, PolicyKind::Wa, PolicyKind::LeavO, PolicyKind::Kdd(0.25)]
        .into_iter()
        .map(|kind| {
            let (ms, mib) = at(kind);
            let low_latency = ms < 0.8 * nossd_ms;
            let good_endurance = mib < 0.7 * wt_mib;
            Row::new(
                "fio-zipf@25%read",
                "read_rate",
                0.25,
                &kind.name(),
                vec![
                    ("mean_resp_ms", ms),
                    ("ssd_write_mib", mib),
                    ("low_latency", low_latency as u8 as f64),
                    ("good_endurance", good_endurance as u8 as f64),
                ],
            )
        })
        .collect();
    vec![latency, traffic, verdicts]
}

/// KDD-25 % under each labelled variant on Fin1 and Web0.
fn ablation(variants: &[(&'static str, KddVariant)], cfg: &ExpConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for pt in [PaperTrace::Fin1, PaperTrace::Web0] {
        let trace = gen(pt, cfg);
        let cache_pages = cache_pages_15(&trace);
        for &(label, variant) in variants {
            let model = Box::new(GaussianDeltaModel::new(0.25, cfg.seed));
            let config = KddConfig::new(geometry(cache_pages));
            let mut p = KddPolicy::with_variant(config, raid_for(&trace), model, variant);
            p.run_trace(&trace);
            let s = p.stats();
            let raid_reads_per_update = if s.parity_updates == 0 {
                0.0
            } else {
                // Isolate the cleaner's reads: read misses cost 1 member read
                // each and write misses 2 (the RMW pair); what remains is the
                // parity-repair traffic. 0 ≈ reconstruct-write from cache,
                // 1 ≈ read-modify-write of the stale parity.
                let foreground = s.read_misses + 2 * s.write_misses;
                (s.raid_reads.saturating_sub(foreground)) as f64 / s.parity_updates as f64
            };
            rows.push(Row::new(
                pt.name(),
                "cache_kpages",
                cache_pages as f64 / 1000.0,
                label,
                vec![
                    ("hit_pct", s.hit_ratio() * 100.0),
                    ("ssd_write_mib", s.ssd_write_bytes(4096).as_u64() as f64 / (1 << 20) as f64),
                    ("metadata_pct", s.metadata_fraction() * 100.0),
                    ("raid_rd_per_upd", raid_reads_per_update),
                ],
            ));
        }
    }
    by_workload_then_policy(&mut rows);
    rows
}

/// Extension study: the small-write penalty doubles from RAID-5 to
/// RAID-6 (2r+2w → 3r+3w), so KDD's delayed parity buys more. The paper
/// covers RAID-5/6 in the design (§III-A) but evaluates RAID-5 only.
fn raid_levels(cfg: &ExpConfig) -> Vec<Row> {
    let model = ServiceModel::paper_default();
    let trace = gen(PaperTrace::Fin1, cfg);
    let g = geometry(cache_pages_15(&trace));
    // Same data capacity, one extra parity disk for RAID-6.
    let (chunk_pages, data_disks) = (16u64, 4u64);
    let disk_pages =
        (trace.address_space_pages().max(1024).div_ceil(data_disks).div_ceil(chunk_pages) + 1)
            * chunk_pages;
    let mut rows = Vec::new();
    for (level, disks) in [(RaidLevel::Raid5, 5usize), (RaidLevel::Raid6, 6usize)] {
        let raid = RaidModel { layout: Layout::new(level, disks, chunk_pages, disk_pages) };
        for kind in [PolicyKind::Nossd, PolicyKind::Wt, PolicyKind::Kdd(0.25)] {
            let mut p = build_policy(kind, g, raid, cfg.seed);
            let r = replay_open_loop(p.as_mut(), &trace, &model, disks, 1);
            let s = p.stats();
            let disk_ios = (s.raid_reads + s.raid_writes) as f64 / s.requests().max(1) as f64;
            rows.push(Row::new(
                &format!("Fin1/{level:?}"),
                "disks",
                disks as f64,
                &kind.name(),
                vec![
                    ("mean_resp_ms", r.mean_response.as_nanos() as f64 / 1e6),
                    ("disk_ios_per_req", disk_ios),
                    ("hit_pct", r.hit_ratio * 100.0),
                ],
            ));
        }
    }
    by_workload_then_policy(&mut rows);
    rows
}

/// Model-validation study: the algebraic queueing replayer (used for
/// Figure 9) against the discrete-event replayer with per-disk queues and
/// mechanical seek times. Rankings must agree; absolute numbers differ.
fn des_model(cfg: &ExpConfig) -> Vec<Row> {
    let model = ServiceModel::paper_default();
    let mut rows = Vec::new();
    for pt in [PaperTrace::Fin1, PaperTrace::Fin2] {
        let trace = gen(pt, cfg);
        let cache_pages = cache_pages_15(&trace);
        let (g, raid) = (geometry(cache_pages), raid_for(&trace));
        let layout = raid.layout;
        for kind in PolicyKind::latency_set() {
            let mut p1 = build_policy(kind, g, raid, cfg.seed);
            let alg = replay_open_loop(p1.as_mut(), &trace, &model, layout.disks, 1);
            let mut p2 = build_policy(kind, g, raid, cfg.seed);
            let des = kdd_sim::des::replay_des(p2.as_mut(), &trace, &layout, &model);
            rows.push(Row::new(
                pt.name(),
                "cache_kpages",
                cache_pages as f64 / 1000.0,
                &kind.name(),
                vec![
                    ("algebraic_ms", alg.mean_response.as_nanos() as f64 / 1e6),
                    ("des_ms", des.mean_response.as_nanos() as f64 / 1e6),
                    ("des_p99_ms", des.p99.as_nanos() as f64 / 1e6),
                    ("des_queue_depth", des.mean_queue_depth),
                ],
            ));
        }
    }
    by_workload_then_policy(&mut rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig { scale: 2000, seed: 42 }
    }

    fn run(name: &str, cfg: &ExpConfig) -> Vec<Row> {
        Runner::new(*cfg).rows(find(name).expect("a known experiment"))
    }

    #[test]
    fn table1_reports_all_traces() {
        let rows = run("table1", &tiny());
        assert_eq!(rows.len(), 4);
        let fin1 = rows.iter().find(|r| r.workload == "Fin1").unwrap();
        assert!((fin1.metric("read_ratio").unwrap() - 0.19).abs() < 0.02);
    }

    #[test]
    fn fig4_metadata_shrinks_with_partition() {
        let rows = run("fig4", &tiny());
        // For each (workload, cache) group the metadata share must not
        // grow as the partition grows.
        for wl in ["Fin1", "Fin2", "Hm0", "Web0"] {
            let mut group: Vec<&Row> = rows.iter().filter(|r| r.workload == wl).collect();
            group.sort_by_key(|a| (a.policy.clone(), (a.x * 100.0) as i64));
            for pair in group.windows(2) {
                if pair[0].policy == pair[1].policy {
                    let m0 = pair[0].metric("metadata_pct").unwrap();
                    let m1 = pair[1].metric("metadata_pct").unwrap();
                    assert!(m1 <= m0 + 0.5, "{wl}/{}: {m0} -> {m1}", pair[0].policy);
                }
            }
        }
    }

    #[test]
    fn fig6_traffic_ordering_holds() {
        // Needs real cache pressure: at very small scales the floor cache
        // of 256 pages swallows the whole working set.
        let cfg = ExpConfig { scale: 500, seed: 42 };
        let rows = run("fig6", &cfg);
        // At the largest cache, on each write-dominant trace:
        // LeavO > WT > KDD-50 > KDD-25 > KDD-12 > WA.
        for wl in ["Fin1", "Hm0"] {
            let max_x = rows
                .iter()
                .filter(|r| r.workload == wl)
                .map(|r| (r.x * 1000.0) as i64)
                .max()
                .unwrap();
            let get = |p: &str| {
                rows.iter()
                    .find(|r| r.workload == wl && r.policy == p && ((r.x * 1000.0) as i64) == max_x)
                    .and_then(|r| r.metric("ssd_write_mib"))
                    .unwrap()
            };
            // WT / KDD-50 / LeavO cluster within a few percent (KDD-50's
            // savings are marginal; see EXPERIMENTS.md): require the
            // ordering up to a few percent tolerance, strict for the rest.
            assert!(
                get("LeavO") > get("WT") * 0.98,
                "{wl}: LeavO {} vs WT {}",
                get("LeavO"),
                get("WT")
            );
            assert!(
                get("WT") > get("KDD-50%") * 0.95,
                "{wl}: WT {} vs KDD-50 {}",
                get("WT"),
                get("KDD-50%")
            );
            assert!(get("KDD-50%") > get("KDD-25%"), "{wl}");
            assert!(get("KDD-25%") > get("KDD-12%"), "{wl}");
            assert!(get("KDD-12%") > get("WA"), "{wl}");
        }
    }

    #[test]
    fn fig10_kdd_beats_nossd_everywhere() {
        let rows = run("fig10", &ExpConfig { scale: 4096, seed: 7 });
        for rate in FIO_READ_RATES {
            let get = |p: &str| {
                rows.iter()
                    .find(|r| r.policy == p && (r.x - rate).abs() < 1e-9)
                    .and_then(|r| r.metric("mean_resp_ms"))
                    .unwrap()
            };
            assert!(get("KDD-25%") < get("Nossd"), "rate {rate}");
            assert!(get("KDD-25%") < get("WT"), "rate {rate}");
        }
    }

    #[test]
    fn ablations_produce_contrasts() {
        let cfg = tiny();
        let metalog = run("ablation_metalog", &cfg);
        for wl in ["Fin1", "Web0"] {
            let get = |v: &str, m: &str| {
                metalog
                    .iter()
                    .find(|r| r.workload == wl && r.policy == v)
                    .and_then(|r| r.metric(m))
                    .unwrap()
            };
            assert!(
                get("unbatched", "metadata_pct") > get("nvram-batched", "metadata_pct"),
                "{wl}: batching must cut metadata traffic"
            );
        }
        let zoning = run("ablation_zoning", &cfg);
        assert_eq!(zoning.len(), 6);
        let reclaim = run("ablation_reclaim", &cfg);
        assert_eq!(reclaim.len(), 4);
    }

    #[test]
    fn des_and_algebraic_rank_policies_identically() {
        let rows = run("ablation_desmodel", &ExpConfig { scale: 2000, seed: 42 });
        for wl in ["Fin1", "Fin2"] {
            let mut alg: Vec<(String, f64)> = rows
                .iter()
                .filter(|r| r.workload == wl)
                .map(|r| (r.policy.clone(), r.metric("algebraic_ms").unwrap()))
                .collect();
            let mut des: Vec<(String, f64)> = rows
                .iter()
                .filter(|r| r.workload == wl)
                .map(|r| (r.policy.clone(), r.metric("des_ms").unwrap()))
                .collect();
            alg.sort_by(|a, b| a.1.total_cmp(&b.1));
            des.sort_by(|a, b| a.1.total_cmp(&b.1));
            let a_names: Vec<&String> = alg.iter().map(|(n, _)| n).collect();
            let d_names: Vec<&String> = des.iter().map(|(n, _)| n).collect();
            // The cheapest and most expensive policies must agree; middle
            // ranks may swap within noise.
            assert_eq!(a_names[0], d_names[0], "{wl}: fastest policy disagrees");
            assert_eq!(a_names.last(), d_names.last(), "{wl}: slowest policy disagrees");
        }
    }

    #[test]
    fn raid6_widens_kdds_member_io_advantage() {
        let rows = run("ablation_raid6", &tiny());
        let get = |wl: &str, p: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == wl && r.policy == p)
                .and_then(|r| r.metric(m))
                .unwrap()
        };
        // Latency: KDD beats WT on both levels.
        assert!(
            get("Fin1/Raid5", "KDD-25%", "mean_resp_ms") < get("Fin1/Raid5", "WT", "mean_resp_ms")
        );
        assert!(
            get("Fin1/Raid6", "KDD-25%", "mean_resp_ms") < get("Fin1/Raid6", "WT", "mean_resp_ms")
        );
        // Member I/O: the small-write tax WT pays grows with the parity
        // count (2r+2w → 3r+3w), while KDD's write-hit cost stays one
        // member write — so the saved I/Os per request must grow.
        let save5 = get("Fin1/Raid5", "WT", "disk_ios_per_req")
            - get("Fin1/Raid5", "KDD-25%", "disk_ios_per_req");
        let save6 = get("Fin1/Raid6", "WT", "disk_ios_per_req")
            - get("Fin1/Raid6", "KDD-25%", "disk_ios_per_req");
        assert!(save5 > 0.0, "no RAID-5 saving: {save5}");
        assert!(save6 > save5, "RAID-6 must widen the saving: {save5} vs {save6}");
    }
}
