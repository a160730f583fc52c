//! The experiments: one function per table/figure, plus the ablations
//! DESIGN.md calls out. All sweeps are data-parallel (rayon) since every
//! (workload, cache size, policy) cell is independent.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::report::Row;
use kdd_cache::policies::{CachePolicy, RaidModel};
use kdd_cache::setassoc::CacheGeometry;
use kdd_core::{KddConfig, KddPolicy};
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
use rayon::prelude::*;

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

/// Build a KDD policy with a tweaked configuration (ablations).
fn kdd_with(
    g: CacheGeometry,
    raid: RaidModel,
    ratio: f64,
    seed: u64,
    tweak: impl FnOnce(&mut KddConfig),
) -> KddPolicy {
    let mut config = KddConfig::new(g);
    tweak(&mut config);
    KddPolicy::new(config, raid, Box::new(GaussianDeltaModel::new(ratio, seed)))
}

// ---------------------------------------------------------------- Table I

/// Table I: characteristics of the (regenerated) traces.
pub fn table1(cfg: &ExpConfig) -> Vec<Row> {
    PaperTrace::ALL
        .par_iter()
        .map(|&pt| {
            let t = gen(pt, cfg);
            let s = TraceStats::compute(&t);
            Row::new(
                "table1",
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

// ---------------------------------------------------------------- Figure 4

/// Figure 4: metadata I/O share of SSD write traffic vs the metadata
/// partition size (0.39 %–0.98 % of the SSD), per trace and cache size.
pub fn fig4(cfg: &ExpConfig) -> Vec<Row> {
    let partitions = [0.0039f64, 0.0059, 0.0078, 0.0098];
    let cache_fracs = [0.10f64, 0.20];
    let mut cells: Vec<(PaperTrace, f64, f64)> = Vec::new();
    for &pt in &PaperTrace::ALL {
        for &cf in &cache_fracs {
            for &pf in &partitions {
                cells.push((pt, cf, pf));
            }
        }
    }
    let mut rows: Vec<Row> = cells
        .par_iter()
        .map(|&(pt, cache_frac, part_frac)| {
            let trace = gen(pt, cfg);
            let stats = TraceStats::compute(&trace);
            let cache_pages = ((stats.unique_total as f64 * cache_frac) as u64).max(256);
            let g = geometry(cache_pages);
            let raid = raid_for(&trace);
            let mut p = kdd_with(g, raid, 0.25, cfg.seed, |c| c.meta_partition_frac = part_frac);
            p.run_trace(&trace);
            Row::new(
                "fig4",
                pt.name(),
                "partition_pct",
                part_frac * 100.0,
                &format!("cache={}k", cache_pages / 1000),
                vec![
                    ("metadata_pct", p.stats().metadata_fraction() * 100.0),
                    ("meta_pages", p.stats().ssd_meta_writes as f64),
                ],
            )
        })
        .collect();
    rows.sort_by_key(|a| (a.workload.clone(), a.policy.clone()));
    rows
}

// ------------------------------------------------------------ Figures 5–8

fn hit_and_traffic(
    experiment_hit: &str,
    experiment_traffic: &str,
    traces: &[PaperTrace],
    cfg: &ExpConfig,
) -> (Vec<Row>, Vec<Row>) {
    let kinds = PolicyKind::figure_set();
    let mut cells: Vec<(PaperTrace, f64, PolicyKind)> = Vec::new();
    for &pt in traces {
        for &cf in &CACHE_FRACTIONS {
            for &k in &kinds {
                cells.push((pt, cf, k));
            }
        }
    }
    let results: Vec<(PaperTrace, f64, PolicyKind, f64, f64, u64)> = cells
        .par_iter()
        .map(|&(pt, cache_frac, kind)| {
            let trace = gen(pt, cfg);
            let stats = TraceStats::compute(&trace);
            let cache_pages = ((stats.unique_total as f64 * cache_frac) as u64).max(256);
            let g = geometry(cache_pages);
            let raid = raid_for(&trace);
            let mut p = build_policy(kind, g, raid, cfg.seed);
            p.run_trace(&trace);
            let s = p.stats();
            (
                pt,
                cache_frac,
                kind,
                s.hit_ratio(),
                s.ssd_write_bytes(4096).as_u64() as f64 / (1 << 20) as f64,
                cache_pages,
            )
        })
        .collect();
    let mut hit = Vec::new();
    let mut traffic = Vec::new();
    for (pt, _cf, kind, hr, mib, cache_pages) in results {
        let x = cache_pages as f64 / 1000.0;
        // WA caches no writes: the paper omits it from the hit-ratio plots.
        if kind != PolicyKind::Wa {
            hit.push(Row::new(
                experiment_hit,
                pt.name(),
                "cache_kpages",
                x,
                &kind.name(),
                vec![("hit_pct", hr * 100.0)],
            ));
        }
        traffic.push(Row::new(
            experiment_traffic,
            pt.name(),
            "cache_kpages",
            x,
            &kind.name(),
            vec![("ssd_write_mib", mib)],
        ));
    }
    let key = |r: &Row| (r.workload.clone(), r.policy.clone(), (r.x * 1e6) as i64);
    hit.sort_by_key(key);
    traffic.sort_by_key(key);
    (hit, traffic)
}

/// Figure 5: hit ratios, write-dominant traces (Fin1, Hm0).
pub fn fig5(cfg: &ExpConfig) -> Vec<Row> {
    hit_and_traffic("fig5", "fig6", &PaperTrace::WRITE_DOMINANT, cfg).0
}

/// Figure 6: SSD write traffic, write-dominant traces.
pub fn fig6(cfg: &ExpConfig) -> Vec<Row> {
    hit_and_traffic("fig5", "fig6", &PaperTrace::WRITE_DOMINANT, cfg).1
}

/// Figure 7: hit ratios, read-dominant traces (Fin2, Web0).
pub fn fig7(cfg: &ExpConfig) -> Vec<Row> {
    hit_and_traffic("fig7", "fig8", &PaperTrace::READ_DOMINANT, cfg).0
}

/// Figure 8: SSD write traffic, read-dominant traces.
pub fn fig8(cfg: &ExpConfig) -> Vec<Row> {
    hit_and_traffic("fig7", "fig8", &PaperTrace::READ_DOMINANT, cfg).1
}

// ---------------------------------------------------------------- Figure 9

/// Figure 9: average response time, open-loop trace replay.
pub fn fig9(cfg: &ExpConfig) -> Vec<Row> {
    let model = ServiceModel::paper_default();
    let cells: Vec<(PaperTrace, PolicyKind)> = PaperTrace::ALL
        .iter()
        .flat_map(|&pt| PolicyKind::latency_set().into_iter().map(move |k| (pt, k)))
        .collect();
    let mut rows: Vec<Row> = cells
        .par_iter()
        .map(|&(pt, kind)| {
            let trace = gen(pt, cfg);
            let stats = TraceStats::compute(&trace);
            let cache_pages = (stats.unique_total * 15 / 100).max(256);
            let g = geometry(cache_pages);
            let raid = raid_for(&trace);
            let mut p = build_policy(kind, g, raid, cfg.seed);
            let r = replay_open_loop(p.as_mut(), &trace, &model, 5, 1);
            Row::new(
                "fig9",
                pt.name(),
                "cache_kpages",
                cache_pages as f64 / 1000.0,
                &kind.name(),
                vec![
                    ("mean_resp_ms", r.mean_response.as_nanos() as f64 / 1e6),
                    ("p99_resp_ms", r.p99.as_nanos() as f64 / 1e6),
                    ("hit_pct", r.hit_ratio * 100.0),
                ],
            )
        })
        .collect();
    rows.sort_by_key(|a| (a.workload.clone(), a.policy.clone()));
    rows
}

// ----------------------------------------------------------- Figures 10–11

/// The paper's FIO read-rate sweep (0 %–75 %).
const FIO_READ_RATES: [f64; 4] = [0.0, 0.25, 0.50, 0.75];

fn fio_sweep(cfg: &ExpConfig) -> Vec<(f64, PolicyKind, f64, f64)> {
    let model = ServiceModel::paper_default();
    let cells: Vec<(f64, PolicyKind)> = FIO_READ_RATES
        .iter()
        .flat_map(|&r| PolicyKind::latency_set().into_iter().map(move |k| (r, k)))
        .collect();
    cells
        .par_iter()
        .map(|&(rate, kind)| {
            let fio = FioConfig::paper(rate).scaled(cfg.scale);
            // Paper: 1 GiB cache under a 1.6 GiB working set.
            let cache_pages = ((1u64 << 30) / 4096 / cfg.scale).max(64);
            let g = geometry(cache_pages);
            let raid = RaidModel::paper_default(fio.wss_pages.max(1024));
            let mut p = build_policy(kind, g, raid, cfg.seed);
            let mut w = FioWorkload::new(fio, cfg.seed + 1);
            let r = run_closed_loop(p.as_mut(), &mut w, &model, 5, &Recorder::disabled());
            (
                rate,
                kind,
                r.mean_response.as_nanos() as f64 / 1e6,
                r.ssd_write_bytes.as_u64() as f64 / (1 << 20) as f64,
            )
        })
        .collect()
}

/// Figure 10: average response time under FIO at 0–75 % read rates.
pub fn fig10(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows: Vec<Row> = fio_sweep(cfg)
        .into_iter()
        .map(|(rate, kind, ms, _)| {
            Row::new(
                "fig10",
                "fio-zipf",
                "read_rate",
                rate,
                &kind.name(),
                vec![("mean_resp_ms", ms)],
            )
        })
        .collect();
    rows.sort_by_key(|a| (a.policy.clone(), (a.x * 100.0) as i64));
    rows
}

/// Figure 11: SSD write traffic under FIO at 0–75 % read rates.
pub fn fig11(cfg: &ExpConfig) -> Vec<Row> {
    let mut rows: Vec<Row> = fio_sweep(cfg)
        .into_iter()
        .filter(|(_, kind, _, _)| *kind != PolicyKind::Nossd)
        .map(|(rate, kind, _, mib)| {
            Row::new(
                "fig11",
                "fio-zipf",
                "read_rate",
                rate,
                &kind.name(),
                vec![("ssd_write_mib", mib)],
            )
        })
        .collect();
    rows.sort_by_key(|a| (a.policy.clone(), (a.x * 100.0) as i64));
    rows
}

// ---------------------------------------------------------------- Table II

/// Table II: qualitative policy comparison, derived from the measured
/// Figure 10/11 numbers at the 25 % read rate (1.0 = Low latency / Good
/// endurance, 0.0 = High latency / Bad endurance).
pub fn table2(cfg: &ExpConfig) -> Vec<Row> {
    let sweep = fio_sweep(cfg);
    let at = |kind: PolicyKind| -> (f64, f64) {
        sweep
            .iter()
            .find(|(r, k, _, _)| *r == 0.25 && *k == kind)
            .map(|&(_, _, ms, mib)| (ms, mib))
            .expect("sweep covers 0.25")
    };
    let (nossd_ms, _) = at(PolicyKind::Nossd);
    let (_, wt_mib) = at(PolicyKind::Wt);
    [PolicyKind::Wt, PolicyKind::Wa, PolicyKind::LeavO, PolicyKind::Kdd(0.25)]
        .into_iter()
        .map(|kind| {
            let (ms, mib) = at(kind);
            let low_latency = ms < 0.8 * nossd_ms;
            let good_endurance = mib < 0.7 * wt_mib;
            Row::new(
                "table2",
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
        .collect()
}

// --------------------------------------------------------------- Ablations

struct AblationPoint {
    variant: String,
    hit_pct: f64,
    ssd_write_mib: f64,
    metadata_pct: f64,
    raid_reads_per_update: f64,
}

fn ablation_run(
    trace: &Trace,
    cache_pages: u64,
    variant: &str,
    tweak: impl FnOnce(&mut KddConfig),
    seed: u64,
) -> AblationPoint {
    let g = geometry(cache_pages);
    let raid = raid_for(trace);
    let mut p = kdd_with(g, raid, 0.25, seed, tweak);
    p.run_trace(trace);
    let s = p.stats();
    AblationPoint {
        variant: variant.to_string(),
        hit_pct: s.hit_ratio() * 100.0,
        ssd_write_mib: s.ssd_write_bytes(4096).as_u64() as f64 / (1 << 20) as f64,
        metadata_pct: s.metadata_fraction() * 100.0,
        raid_reads_per_update: if s.parity_updates == 0 {
            0.0
        } else {
            // Isolate the cleaner's reads: read misses cost 1 member read
            // each and write misses 2 (the RMW pair); what remains is the
            // parity-repair traffic. 0 ≈ reconstruct-write from cache,
            // 1 ≈ read-modify-write of the stale parity.
            let foreground = s.read_misses + 2 * s.write_misses;
            (s.raid_reads.saturating_sub(foreground)) as f64 / s.parity_updates as f64
        },
    }
}

/// One named configuration tweak in an ablation sweep.
type Variant = (&'static str, Box<dyn Fn(&mut KddConfig) + Sync + Send>);

fn ablation(cfg: &ExpConfig, name: &str, variants: Vec<Variant>) -> Vec<Row> {
    let traces = [PaperTrace::Fin1, PaperTrace::Web0];
    let cells: Vec<(PaperTrace, usize)> =
        traces.iter().flat_map(|&pt| (0..variants.len()).map(move |i| (pt, i))).collect();
    let mut rows: Vec<Row> = cells
        .par_iter()
        .map(|&(pt, vi)| {
            let trace = gen(pt, cfg);
            let stats = TraceStats::compute(&trace);
            let cache_pages = (stats.unique_total * 15 / 100).max(256);
            let point =
                ablation_run(&trace, cache_pages, variants[vi].0, &variants[vi].1, cfg.seed);
            Row::new(
                name,
                pt.name(),
                "cache_kpages",
                cache_pages as f64 / 1000.0,
                &point.variant,
                vec![
                    ("hit_pct", point.hit_pct),
                    ("ssd_write_mib", point.ssd_write_mib),
                    ("metadata_pct", point.metadata_pct),
                    ("raid_rd_per_upd", point.raid_reads_per_update),
                ],
            )
        })
        .collect();
    rows.sort_by_key(|a| (a.workload.clone(), a.policy.clone()));
    rows
}

/// Ablation: dynamic DAZ/DEZ mixing (the paper's design) vs static
/// partitions at 10 % and 30 % DEZ reservations (§III-B's rejected
/// alternative).
pub fn ablation_zoning(cfg: &ExpConfig) -> Vec<Row> {
    ablation(
        cfg,
        "ablation_zoning",
        vec![
            ("dynamic", Box::new(|_c: &mut KddConfig| {})),
            ("fixed-10%", Box::new(|c: &mut KddConfig| c.fixed_dez_fraction = Some(0.10))),
            ("fixed-30%", Box::new(|c: &mut KddConfig| c.fixed_dez_fraction = Some(0.30))),
        ],
    )
}

/// Ablation: §III-D's two reclamation schemes — simple reclaim (paper's
/// choice) vs re-materialising cleaned pages as clean copies.
pub fn ablation_reclaim(cfg: &ExpConfig) -> Vec<Row> {
    ablation(
        cfg,
        "ablation_reclaim",
        vec![
            ("simple-reclaim", Box::new(|_c: &mut KddConfig| {})),
            ("reclaim-as-clean", Box::new(|c: &mut KddConfig| c.reclaim_as_clean = true)),
        ],
    )
}

/// Ablation: NVRAM metadata batching (the circular-log design) vs a
/// metadata page write per mapping change (§III-B's motivation).
pub fn ablation_metalog(cfg: &ExpConfig) -> Vec<Row> {
    ablation(
        cfg,
        "ablation_metalog",
        vec![
            ("nvram-batched", Box::new(|_c: &mut KddConfig| {})),
            ("unbatched", Box::new(|c: &mut KddConfig| c.nvram_batching = false)),
        ],
    )
}

/// Extension study: LARC-style lazy admission on top of KDD (§V-C calls
/// the selective-allocation family "complementary to our KDD").
pub fn ablation_admission(cfg: &ExpConfig) -> Vec<Row> {
    ablation(
        cfg,
        "ablation_admission",
        vec![
            ("always-admit", Box::new(|_c: &mut KddConfig| {})),
            ("lazy-admit", Box::new(|c: &mut KddConfig| c.lazy_admission = true)),
        ],
    )
}

/// Ablation: stripe-aligned cache-set placement vs per-page hashing
/// (§III-B's spatial-locality mapping).
pub fn ablation_setmap(cfg: &ExpConfig) -> Vec<Row> {
    ablation(
        cfg,
        "ablation_setmap",
        vec![
            ("stripe-aligned", Box::new(|_c: &mut KddConfig| {})),
            ("page-hashed", Box::new(|c: &mut KddConfig| c.stripe_aligned_sets = false)),
        ],
    )
}

/// Extension study: the small-write penalty doubles from RAID-5 to
/// RAID-6 (2r+2w → 3r+3w), so KDD's delayed parity buys more. The paper
/// covers RAID-5/6 in the design (§III-A) but evaluates RAID-5 only.
pub fn ablation_raid6(cfg: &ExpConfig) -> Vec<Row> {
    let model = ServiceModel::paper_default();
    let levels = [(RaidLevel::Raid5, 5usize), (RaidLevel::Raid6, 6usize)];
    let kinds = [PolicyKind::Nossd, PolicyKind::Wt, PolicyKind::Kdd(0.25)];
    let cells: Vec<((RaidLevel, usize), PolicyKind)> =
        levels.iter().flat_map(|&lv| kinds.iter().map(move |&k| (lv, k))).collect();
    let mut rows: Vec<Row> = cells
        .par_iter()
        .map(|&((level, disks), kind)| {
            let trace = gen(PaperTrace::Fin1, cfg);
            let stats = TraceStats::compute(&trace);
            let cache_pages = (stats.unique_total * 15 / 100).max(256);
            let g = geometry(cache_pages);
            // Same data capacity, one extra parity disk for RAID-6.
            let chunk_pages = 16u64;
            let data_disks = 4u64;
            let disk_pages =
                (trace.address_space_pages().max(1024).div_ceil(data_disks).div_ceil(chunk_pages)
                    + 1)
                    * chunk_pages;
            let raid = RaidModel { layout: Layout::new(level, disks, chunk_pages, disk_pages) };
            let mut p = build_policy(kind, g, raid, cfg.seed);
            let r = replay_open_loop(p.as_mut(), &trace, &model, disks, 1);
            let s = p.stats();
            let disk_ios = (s.raid_reads + s.raid_writes) as f64 / s.requests().max(1) as f64;
            Row::new(
                "ablation_raid6",
                &format!("Fin1/{level:?}"),
                "disks",
                disks as f64,
                &kind.name(),
                vec![
                    ("mean_resp_ms", r.mean_response.as_nanos() as f64 / 1e6),
                    ("disk_ios_per_req", disk_ios),
                    ("hit_pct", r.hit_ratio * 100.0),
                ],
            )
        })
        .collect();
    rows.sort_by_key(|a| (a.workload.clone(), a.policy.clone()));
    rows
}

/// Model-validation study: the algebraic queueing replayer (used for
/// Figure 9) against the discrete-event replayer with per-disk queues and
/// mechanical seek times. Rankings must agree; absolute numbers differ.
pub fn ablation_desmodel(cfg: &ExpConfig) -> Vec<Row> {
    let model = ServiceModel::paper_default();
    let kinds = PolicyKind::latency_set();
    let cells: Vec<(PaperTrace, PolicyKind)> = [PaperTrace::Fin1, PaperTrace::Fin2]
        .iter()
        .flat_map(|&pt| kinds.iter().map(move |&k| (pt, k)))
        .collect();
    let mut rows: Vec<Row> = cells
        .par_iter()
        .map(|&(pt, kind)| {
            let trace = gen(pt, cfg);
            let stats = TraceStats::compute(&trace);
            let cache_pages = (stats.unique_total * 15 / 100).max(256);
            let g = geometry(cache_pages);
            let raid = raid_for(&trace);
            let layout = raid.layout;
            let mut p1 = build_policy(kind, g, raid, cfg.seed);
            let alg = replay_open_loop(p1.as_mut(), &trace, &model, layout.disks, 1);
            let mut p2 = build_policy(kind, g, raid, cfg.seed);
            let des = kdd_sim::des::replay_des(p2.as_mut(), &trace, &layout, &model);
            Row::new(
                "ablation_desmodel",
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
            )
        })
        .collect();
    rows.sort_by_key(|a| (a.workload.clone(), a.policy.clone()));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig { scale: 2000, seed: 42 }
    }

    #[test]
    fn table1_reports_all_traces() {
        let rows = table1(&tiny());
        assert_eq!(rows.len(), 4);
        let fin1 = rows.iter().find(|r| r.workload == "Fin1").unwrap();
        assert!((fin1.metric("read_ratio").unwrap() - 0.19).abs() < 0.02);
    }

    #[test]
    fn fig4_metadata_shrinks_with_partition() {
        let rows = fig4(&tiny());
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
        let rows = fig6(&cfg);
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
        let rows = fig10(&ExpConfig { scale: 4096, seed: 7 });
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
        let metalog = ablation_metalog(&cfg);
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
        let zoning = ablation_zoning(&cfg);
        assert_eq!(zoning.len(), 6);
        let reclaim = ablation_reclaim(&cfg);
        assert_eq!(reclaim.len(), 4);
    }

    #[test]
    fn des_and_algebraic_rank_policies_identically() {
        let rows = ablation_desmodel(&ExpConfig { scale: 2000, seed: 42 });
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
        let rows = ablation_raid6(&tiny());
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
