//! Cross-crate integration tests: the whole stack — trace generation,
//! policies, the KDD engine, the RAID, the SSD — exercised together.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd::delta::content::PageMutator;
use kdd::prelude::*;

const PAGE: u32 = 4096;

fn build_engine(cache_pages: u64) -> KddEngine {
    let layout = Layout::new(RaidLevel::Raid5, 5, 16, 16 * 128);
    let raid = RaidArray::new(layout, PAGE);
    let ssd = SsdDevice::with_logical_capacity((cache_pages + 64) * PAGE as u64, PAGE, 0.07);
    let geometry = CacheGeometry {
        total_pages: cache_pages,
        ways: 16.min(cache_pages as u32),
        page_size: PAGE,
    };
    KddEngine::new(KddConfig::new(geometry), ssd, raid).expect("engine")
}

#[test]
fn engine_and_raid_agree_after_heavy_churn() {
    let mut engine = build_engine(256);
    let mut mutator = PageMutator::new(PAGE as usize, 0.15, 64, 21);
    let mut versions: Vec<Vec<u8>> = (0..200u64).map(|_| mutator.initial_page()).collect();
    for (lba, v) in versions.iter().enumerate() {
        engine.write(lba as u64, v).unwrap();
    }
    for round in 0..3 {
        for lba in 0..200u64 {
            if (lba + round) % 3 == 0 {
                let next = mutator.mutate(&versions[lba as usize]);
                engine.write(lba, &next).unwrap();
                versions[lba as usize] = next;
            }
        }
    }
    // Through the cache: every page current.
    for (lba, v) in versions.iter().enumerate() {
        let (data, _) = engine.read(lba as u64).unwrap();
        assert_eq!(&data, v, "cache view of {lba}");
    }
    // Settle parity, then look underneath: RAID holds the same bytes and
    // every parity row verifies.
    engine.flush().unwrap();
    assert_eq!(engine.raid().stale_row_count(), 0);
    let mut buf = vec![0u8; PAGE as usize];
    for (lba, v) in versions.iter().enumerate() {
        engine.raid_mut().read_page(lba as u64, &mut buf).unwrap();
        assert_eq!(&buf, v, "raid view of {lba}");
    }
    for row in 0..40 {
        assert!(engine.raid_mut().verify_row(row).unwrap(), "row {row}");
    }
}

#[test]
fn policies_rank_consistently_on_a_paper_trace() {
    // Figures 5/6 ordering on a regenerated Fin1: hit ratio WT ≥ KDD ≥
    // LeavO; SSD traffic LeavO > WT > KDD-50 > KDD-25 > KDD-12 > WA.
    let trace = PaperTrace::Fin1.generate_scaled(1000, 3);
    let stats = TraceStats::compute(&trace);
    let cache_pages = stats.unique_total / 5;
    let geometry = CacheGeometry {
        total_pages: cache_pages,
        ways: 64.min(cache_pages as u32),
        page_size: PAGE,
    };
    let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));

    let mut results = std::collections::BTreeMap::new();
    for kind in PolicyKind::figure_set() {
        let mut p = build_policy(kind, geometry, raid, 11);
        p.run_trace(&trace);
        results.insert(kind.name(), (p.stats().hit_ratio(), p.stats().ssd_writes_pages()));
    }
    let hit = |n: &str| results[n].0;
    let wr = |n: &str| results[n].1;

    // KDD's hit ratio sits near WT's: below it when version space costs
    // bite, occasionally above it when pinned dirty pages pay off (the
    // paper sees both — Fig 5 vs Fig 7's Web0 discussion).
    assert!(
        (hit("WT") - hit("KDD-12%")).abs() < 0.10,
        "WT {} vs KDD-12 {}",
        hit("WT"),
        hit("KDD-12%")
    );
    assert!(hit("KDD-12%") >= hit("KDD-50%"), "locality ordering broken");
    // Stronger content locality pushes KDD decisively past LeavO (Fig 5);
    // at 50% ratio the two sit close together.
    assert!(hit("KDD-12%") > hit("LeavO"), "KDD-12 {} vs LeavO {}", hit("KDD-12%"), hit("LeavO"));
    assert!(
        hit("KDD-50%") >= hit("LeavO") - 0.06,
        "KDD-50 {} vs LeavO {}",
        hit("KDD-50%"),
        hit("LeavO")
    );

    assert!(wr("LeavO") > wr("WT"), "LeavO {} !> WT {}", wr("LeavO"), wr("WT"));
    assert!(wr("WT") > wr("KDD-50%"), "WT {} !> KDD-50 {}", wr("WT"), wr("KDD-50%"));
    assert!(wr("KDD-50%") > wr("KDD-25%"));
    assert!(wr("KDD-25%") > wr("KDD-12%"));
    assert!(wr("KDD-12%") > wr("WA"), "write-dominant: WA still least");
}

#[test]
fn trace_parsers_feed_the_simulator() {
    // SPC text → trace → policy, end to end.
    let spc_text = "\
0,0,4096,w,0.000
0,8,4096,w,0.001
0,0,4096,w,0.002
0,16,8192,r,0.003
0,0,4096,r,0.004
";
    let trace = kdd::trace::spc::parse(std::io::Cursor::new(spc_text), PAGE).unwrap();
    assert_eq!(trace.len(), 5);
    let geometry = CacheGeometry { total_pages: 64, ways: 8, page_size: PAGE };
    let raid = RaidModel::paper_default(1024);
    let mut p = build_policy(PolicyKind::Kdd(0.25), geometry, raid, 1);
    p.run_trace(&trace);
    let s = p.stats();
    assert_eq!(s.requests(), 6, "8KiB read spans two pages");
    assert_eq!(s.write_hits, 1, "rewrite of page 0");
    assert_eq!(s.read_hits, 1, "read of cached page 0");
}

#[test]
fn open_and_closed_loop_agree_on_policy_ranking() {
    let model = ServiceModel::paper_default();
    // Closed loop, write-only.
    let mut ranking = Vec::new();
    for kind in [PolicyKind::Nossd, PolicyKind::Wt, PolicyKind::Kdd(0.25)] {
        let cfg = FioConfig::paper(0.0).scaled(4096);
        let cache_pages = cfg.wss_pages * 5 / 8;
        let geometry = CacheGeometry {
            total_pages: cache_pages,
            ways: 16.min(cache_pages as u32),
            page_size: PAGE,
        };
        let raid = RaidModel::paper_default(cfg.wss_pages);
        let mut p = build_policy(kind, geometry, raid, 5);
        let mut w = FioWorkload::new(cfg, 17);
        let r = run_closed_loop(p.as_mut(), &mut w, &model, 5, &Recorder::disabled());
        ranking.push((kind.name(), r.mean_response));
    }
    // KDD < WT <= Nossd on pure writes.
    assert!(ranking[2].1 < ranking[1].1, "KDD !< WT: {ranking:?}");
    assert!(ranking[1].1 <= ranking[0].1 + SimTime::from_millis(2), "WT ≫ Nossd: {ranking:?}");
}

#[test]
fn ssd_wear_reflects_policy_choice_end_to_end() {
    // Run real bytes through the engine twice: once with high content
    // locality, once rewriting whole pages. The flash must age faster in
    // the second case.
    let run = |change: f64| {
        let mut engine = build_engine(256);
        let mut m = PageMutator::new(PAGE as usize, change, 128, 5);
        // 8 LBAs per 64-page stripe group so every hot page stays
        // cacheable (16 sets x 16 ways; worst case two groups share a set).
        let lbas: Vec<u64> = (0..64u64).map(|i| (i / 8) * 64 + i % 8).collect();
        let mut vs: std::collections::BTreeMap<u64, Vec<u8>> =
            lbas.iter().map(|&l| (l, m.initial_page())).collect();
        for &lba in &lbas {
            engine.write(lba, &vs[&lba]).unwrap();
        }
        for _ in 0..4 {
            for &lba in &lbas {
                let next = m.mutate(&vs[&lba]);
                engine.write(lba, &next).unwrap();
                vs.insert(lba, next);
            }
        }
        engine.flush().unwrap();
        engine.ssd().endurance().host_written_bytes
    };
    let local = run(0.08);
    let global = run(0.95);
    assert!(
        local * 2 < global,
        "high locality must at least halve SSD writes: {local} vs {global}"
    );
}
