//! Policy conformance: property-style tests that every caching policy
//! obeys the invariants the paper's comparison relies on, across random
//! workloads.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd::prelude::*;
use kdd::util::rng::seeded_rng;
use proptest::prelude::*;
use rand::RngExt;

const PAGE: u32 = 4096;

fn all_kinds() -> Vec<PolicyKind> {
    std::iter::once(PolicyKind::Nossd).chain(PolicyKind::figure_set()).collect()
}

fn run_workload(
    kind: PolicyKind,
    seed: u64,
    requests: u32,
    space: u64,
    write_frac: f64,
) -> CacheStats {
    let geometry = CacheGeometry { total_pages: 256, ways: 16, page_size: PAGE };
    let raid = RaidModel::paper_default(space.max(1024));
    let mut p = build_policy(kind, geometry, raid, seed);
    let mut rng = seeded_rng(seed);
    let zipf = kdd::util::sampler::Zipf::new(space, 0.9);
    for _ in 0..requests {
        let lba = zipf.sample(&mut rng) - 1;
        let op = if rng.random::<f64>() < write_frac { Op::Write } else { Op::Read };
        p.access(op, lba);
    }
    p.flush();
    *p.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Request accounting always balances: hits + misses == requests.
    #[test]
    fn accounting_balances(seed in 0u64..1000, write_frac in 0.0f64..1.0) {
        for kind in all_kinds() {
            let s = run_workload(kind, seed, 600, 512, write_frac);
            prop_assert_eq!(s.requests(), 600, "{}", kind.name());
            prop_assert!(s.hit_ratio() >= 0.0 && s.hit_ratio() <= 1.0);
        }
    }

    /// Nossd never touches the SSD; WA writes it only on read misses.
    #[test]
    fn bypass_policies_respect_bypass(seed in 0u64..1000) {
        let nossd = run_workload(PolicyKind::Nossd, seed, 500, 512, 0.5);
        prop_assert_eq!(nossd.ssd_writes_pages(), 0);
        prop_assert_eq!(nossd.ssd_reads, 0);
        let wa = run_workload(PolicyKind::Wa, seed, 500, 512, 0.5);
        prop_assert_eq!(wa.ssd_writes_pages(), wa.read_misses);
    }

    /// On write-heavy workloads with reuse, the paper's traffic ordering
    /// holds: WA ≤ KDD-12 ≤ KDD-25 ≤ KDD-50 ≤ WT ≤ LeavO.
    #[test]
    fn traffic_ordering_on_write_heavy(seed in 0u64..200) {
        // Working set well beyond the 256-page cache, like the paper's
        // traces vs their cache sweep; reuse still strong (zipf 0.9).
        let space = 1200u64;
        let reqs = 4000;
        let mix = 0.65; // enough reads that fills expose LeavO's capacity cost
        let wa = run_workload(PolicyKind::Wa, seed, reqs, space, mix).ssd_writes_pages();
        let k12 = run_workload(PolicyKind::Kdd(0.12), seed, reqs, space, mix).ssd_writes_pages();
        let k25 = run_workload(PolicyKind::Kdd(0.25), seed, reqs, space, mix).ssd_writes_pages();
        let k50 = run_workload(PolicyKind::Kdd(0.50), seed, reqs, space, mix).ssd_writes_pages();
        let wt = run_workload(PolicyKind::Wt, seed, reqs, space, mix).ssd_writes_pages();
        let lv = run_workload(PolicyKind::LeavO, seed, reqs, space, mix).ssd_writes_pages();
        prop_assert!(wa <= k12, "WA {} > KDD-12 {}", wa, k12);
        prop_assert!(k12 <= k25, "KDD-12 {} > KDD-25 {}", k12, k25);
        prop_assert!(k25 <= k50, "KDD-25 {} > KDD-50 {}", k25, k50);
        // At 50% delta ratio the savings are marginal (half-page deltas +
        // reclaim-induced refills), so allow noise around WT; medium and
        // high locality must undercut it cleanly.
        prop_assert!((k50 as f64) < wt as f64 * 1.05, "KDD-50 {} >> WT {}", k50, wt);
        prop_assert!(k25 < wt, "KDD-25 {} >= WT {}", k25, wt);
        prop_assert!(lv as f64 > wt as f64 * 0.98, "LeavO {} should not undercut WT {}", lv, wt);
    }

    /// KDD's foreground write path never performs a parity round on a
    /// hit, and WT always does.
    #[test]
    fn parity_rounds_per_policy(seed in 0u64..1000) {
        let geometry = CacheGeometry { total_pages: 128, ways: 16, page_size: PAGE };
        let raid = RaidModel::paper_default(4096);
        let mut kdd = build_policy(PolicyKind::Kdd(0.25), geometry, raid, seed);
        let mut wt = build_policy(PolicyKind::Wt, geometry, raid, seed);
        kdd.access(Op::Write, 7);
        wt.access(Op::Write, 7);
        let k = kdd.access(Op::Write, 7);
        let w = wt.access(Op::Write, 7);
        prop_assert!(k.hit && w.hit);
        prop_assert_eq!(k.foreground.raid_rounds, 1, "KDD hit: data write only");
        prop_assert_eq!(k.foreground.raid_reads, 0);
        prop_assert_eq!(w.foreground.raid_rounds, 2, "WT hit: full small write");
        prop_assert_eq!(w.foreground.raid_reads, 2);
    }

    /// Metadata traffic only exists for the persistent policies, and for
    /// KDD it stays a small fraction (the Figure 4 property).
    #[test]
    fn metadata_fraction_bounded(seed in 0u64..100) {
        let wt = run_workload(PolicyKind::Wt, seed, 2000, 2048, 0.5);
        prop_assert_eq!(wt.ssd_meta_writes, 0, "WT persists nothing");
        let kdd = run_workload(PolicyKind::Kdd(0.25), seed, 2000, 2048, 0.5);
        let lv = run_workload(PolicyKind::LeavO, seed, 2000, 2048, 0.5);
        prop_assert!(kdd.metadata_fraction() < 0.10, "KDD metadata {}", kdd.metadata_fraction());
        // LeavO's uncoalesced appends cost at least as much metadata.
        prop_assert!(lv.ssd_meta_writes >= kdd.ssd_meta_writes,
            "LeavO meta {} < KDD meta {}", lv.ssd_meta_writes, kdd.ssd_meta_writes);
    }
}

#[test]
fn hit_ratio_monotone_in_cache_size_for_every_policy() {
    // Bigger caches must not hit less (same workload, LRU stack property
    // holds approximately for set-associative caches with many sets).
    for kind in [PolicyKind::Wt, PolicyKind::Wa, PolicyKind::LeavO, PolicyKind::Kdd(0.25)] {
        let mut prev = -1.0f64;
        for cache_pages in [128u64, 512, 2048] {
            let geometry = CacheGeometry { total_pages: cache_pages, ways: 16, page_size: PAGE };
            let raid = RaidModel::paper_default(8192);
            let mut p = build_policy(kind, geometry, raid, 5);
            let mut rng = seeded_rng(5);
            let zipf = kdd::util::sampler::Zipf::new(4096, 0.9);
            for _ in 0..20_000 {
                let lba = zipf.sample(&mut rng) - 1;
                let op = if rng.random::<f64>() < 0.5 { Op::Write } else { Op::Read };
                p.access(op, lba);
            }
            p.flush();
            let hr = p.stats().hit_ratio();
            assert!(
                hr >= prev - 0.03,
                "{}: hit ratio fell from {prev} to {hr} at {cache_pages} pages",
                kind.name()
            );
            prev = hr;
        }
    }
}

#[test]
fn stats_severity_of_leavo_space_overhead() {
    // LeavO pins two slots per updated page; with the same geometry its
    // resident working set must be smaller than KDD's (which pins one
    // page plus a fraction of a delta page).
    let geometry = CacheGeometry { total_pages: 256, ways: 16, page_size: PAGE };
    let raid = RaidModel::paper_default(4096);
    let mut lv = build_policy(PolicyKind::LeavO, geometry, raid, 9);
    let mut kdd = build_policy(PolicyKind::Kdd(0.12), geometry, raid, 9);
    let mut rng = seeded_rng(9);
    let zipf = kdd::util::sampler::Zipf::new(600, 1.0);
    for _ in 0..30_000 {
        let lba = zipf.sample(&mut rng) - 1;
        lv.access(Op::Write, lba);
        kdd.access(Op::Write, lba);
    }
    // Steady state under pure-write pressure: LeavO's retained pages give
    // it decent hits but cost full-page programs + uncoalesced metadata;
    // KDD spends a fraction of the SSD writes for a hit ratio in the same
    // neighbourhood.
    assert!(
        kdd.stats().ssd_writes_pages() * 4 < lv.stats().ssd_writes_pages() * 3,
        "KDD-12 {} should write at least 25% less than LeavO {}",
        kdd.stats().ssd_writes_pages(),
        lv.stats().ssd_writes_pages()
    );
    // Under *pure-write* stress KDD's simple-reclaim cleaning (§III-D
    // scheme 2) periodically drops hot pages that LeavO retains, so LeavO
    // can out-hit KDD here — the paper's "victim pages are commonly cold"
    // premise needs reads in the mix (see the Fin1 integration test,
    // where KDD-12 out-hits LeavO). Keep a sanity band only.
    assert!(
        kdd.stats().hit_ratio() >= lv.stats().hit_ratio() - 0.20,
        "KDD {} vs LeavO {} hit ratio out of band",
        kdd.stats().hit_ratio(),
        lv.stats().hit_ratio()
    );
}

// ---- degraded-mode data conformance ------------------------------------

/// A minimal *data-carrying* version of each baseline's read/write path
/// (the accounting policies above never hold bytes). Just enough to check
/// the property the paper's comparison assumes: with one member disk
/// failed, every policy still returns the latest acknowledged data for
/// every LBA, cached or not.
mod degraded {
    use super::PAGE;
    use kdd::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Clone, Copy, Debug)]
    enum Baseline {
        Nossd,
        Wt,
        Wa,
        LeavO,
    }

    struct DataPath {
        kind: Baseline,
        ssd: SsdDevice,
        raid: RaidArray,
        map: BTreeMap<u64, u64>, // lba -> ssd lpn (latest version)
        next_lpn: u64,
        dirty: BTreeSet<u64>,
    }

    impl DataPath {
        fn new(kind: Baseline) -> Self {
            let layout = Layout::new(RaidLevel::Raid5, 5, 8, 8 * 16);
            Self {
                kind,
                ssd: SsdDevice::with_logical_capacity(4096 * PAGE as u64, PAGE, 0.07),
                raid: RaidArray::new(layout, PAGE),
                map: BTreeMap::new(),
                next_lpn: 0,
                dirty: BTreeSet::new(),
            }
        }

        fn alloc(&mut self) -> u64 {
            let lpn = self.next_lpn;
            self.next_lpn += 1;
            lpn
        }

        fn write(&mut self, lba: u64, data: &[u8]) {
            match self.kind {
                Baseline::Nossd => {
                    self.raid.write_page(lba, data).unwrap();
                }
                Baseline::Wt => {
                    // Through to RAID *and* cached.
                    self.raid.write_page(lba, data).unwrap();
                    let lpn = self.map.get(&lba).copied().unwrap_or_else(|| {
                        let l = self.alloc();
                        self.map.insert(lba, l);
                        l
                    });
                    self.ssd.write_page(lpn, data).unwrap();
                }
                Baseline::Wa => {
                    // Write-around: RAID only, and any cached copy is stale.
                    self.raid.write_page(lba, data).unwrap();
                    if let Some(lpn) = self.map.remove(&lba) {
                        self.ssd.trim_page(lpn).unwrap();
                    }
                }
                Baseline::LeavO => {
                    // Leave-old: append the new version at a fresh lpn, keep
                    // the old version resident; RAID is only updated lazily.
                    let lpn = self.alloc();
                    self.map.insert(lba, lpn);
                    self.ssd.write_page(lpn, data).unwrap();
                    self.dirty.insert(lba);
                }
            }
        }

        fn read(&mut self, lba: u64) -> Vec<u8> {
            let mut buf = vec![0u8; PAGE as usize];
            match self.map.get(&lba) {
                Some(&lpn) => self.ssd.read_page(lpn, &mut buf).map(|_| ()).unwrap(),
                None => self.raid.read_page(lba, &mut buf).map(|_| ()).unwrap(),
            }
            buf
        }

        /// Destage dirty pages so a *member* failure cannot meet stale
        /// parity (LeavO's recovery obligation).
        fn sync(&mut self) {
            for lba in std::mem::take(&mut self.dirty) {
                let lpn = self.map[&lba];
                let mut buf = vec![0u8; PAGE as usize];
                self.ssd.read_page(lpn, &mut buf).unwrap();
                self.raid.write_page(lba, &buf).unwrap();
            }
        }
    }

    /// One HDD failed → every baseline still serves the latest data for
    /// every LBA, cached and uncached, via SSD hit or degraded
    /// reconstruction.
    #[test]
    fn every_baseline_serves_correct_data_with_one_hdd_failed() {
        for kind in [Baseline::Nossd, Baseline::Wt, Baseline::Wa, Baseline::LeavO] {
            for failed_disk in 0..5usize {
                let mut path = DataPath::new(kind);
                let mut reference: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
                let mut rng = kdd::util::rng::seeded_rng(42 + failed_disk as u64);
                use rand::RngExt;
                for i in 0..200u64 {
                    let lba = rng.random_range(0..48u64);
                    let mut page = vec![0u8; PAGE as usize];
                    page[..8].copy_from_slice(&(i << 8 | lba).to_le_bytes());
                    page[8..16].copy_from_slice(&rng.random::<u64>().to_le_bytes());
                    path.write(lba, &page);
                    reference.insert(lba, page);
                }
                path.sync();
                path.raid.fail_disk(failed_disk);
                for (lba, want) in &reference {
                    let got = path.read(*lba);
                    assert_eq!(
                        &got, want,
                        "baseline {kind:?} lba {lba} wrong with disk {failed_disk} failed"
                    );
                }
            }
        }
    }

    /// The real KDD engine under a *dropped* member disk (injected fault,
    /// not a polite API call): after the §III-E2 recovery procedure every
    /// LBA — cached, delta-compressed, or uncached — reads back exactly.
    #[test]
    fn kdd_engine_serves_correct_data_with_one_hdd_failed() {
        for failed_disk in 0..5u32 {
            let layout = Layout::new(RaidLevel::Raid5, 5, 8, 8 * 16);
            let raid = RaidArray::new(layout, PAGE);
            let cache_pages = 64u64;
            let ssd =
                SsdDevice::with_logical_capacity((cache_pages + 64) * PAGE as u64, PAGE, 0.07);
            let geometry = CacheGeometry { total_pages: cache_pages, ways: 8, page_size: PAGE };
            let mut engine = KddEngine::new(KddConfig::new(geometry), ssd, raid).expect("engine");
            let injector = FaultInjector::new(
                FaultPlan::new().drop_device(150, FaultDomain::Disk(failed_disk)),
            );
            engine.attach_fault_injector(injector);

            let mut reference: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            let mut rng = kdd::util::rng::seeded_rng(1000 + failed_disk as u64);
            use rand::RngExt;
            for i in 0..250u64 {
                let lba = rng.random_range(0..48u64);
                let mut page = match reference.get(&lba) {
                    Some(v) => v.clone(),
                    None => vec![0u8; PAGE as usize],
                };
                let off = (rng.random::<u64>() as usize) % (PAGE as usize - 16);
                page[off..off + 8].copy_from_slice(&i.to_le_bytes());
                engine.write(lba, &page).expect("write survives member drop");
                reference.insert(lba, page);
            }
            let failed = engine.raid().failed_disks();
            assert_eq!(failed, vec![failed_disk as usize], "injector dropped the member");
            engine.recover_from_hdd_failure(failed_disk as usize).expect("hdd recovery");
            for (lba, want) in &reference {
                let (got, _) = engine.read(*lba).expect("degraded read");
                assert_eq!(&got, want, "kdd lba {lba} wrong with disk {failed_disk} failed");
            }
        }
    }
}
