//! Device-level conservation (ROADMAP item 1, step 0).
//!
//! `CacheStats` is the engine's own account of the device I/O it issued; the
//! devices keep theirs (`SsdDevice::endurance`, `RaidArray::stats`). The
//! benchmark's `ssd_bytes_per_user_byte` and `hdd_ios_per_op` are read from
//! those sums, so the two accounts must agree page for page:
//!
//! * SSD: host pages written to the device = data + delta + metadata pages
//!   the engine booked;
//! * disks: Σ member reads / writes = `raid_reads` / `raid_writes`, rebuild
//!   and resync traffic included.
//!
//! Checked after replays in normal mode, after `recover_from_hdd_failure`
//! and after `power_cycle` (which starts a fresh `CacheStats` over devices
//! that keep counting, hence the [`Books`] baseline), and after requests the
//! engine retried: member I/O counts whether or not the call that issued it
//! succeeded. The Fin2 case is also
//! the regression test for a power cut that finds a DEZ slot released by
//! re-staged deltas and already refilled with a clean page.

use kdd::prelude::*;

const PAGE: u32 = 4096;
const CACHE_PAGES: u64 = 256;

/// An engine over `disks` members; the SSD keeps 25 % over-provisioning so
/// the FTL never gives out (a fallback to a spare device would restart the
/// device's counters — `fault_fallbacks` is asserted zero).
fn build_engine(level: RaidLevel, disks: usize) -> KddEngine {
    let raid = RaidArray::new(Layout::new(level, disks, 16, 16 * 64), PAGE);
    let ssd = SsdDevice::with_logical_capacity((CACHE_PAGES + 64) * u64::from(PAGE), PAGE, 0.25);
    let geometry = CacheGeometry { total_pages: CACHE_PAGES, ways: 16, page_size: PAGE };
    KddEngine::new(KddConfig::new(geometry), ssd, raid).expect("engine")
}

/// A Zipf read/write mix over a working set that fits the cache.
fn zipf_trace(seed: u64) -> Trace {
    let cfg = FioConfig {
        wss_pages: CACHE_PAGES * 3 / 4,
        zipf_alpha: 1.0001,
        read_rate: 0.4,
        total_pages: 6000,
        threads: 16,
    };
    let mut src = FioWorkload::new(cfg, seed);
    let mut trace = Trace::new(PAGE);
    while let Some((op, lba)) = src.next_request() {
        trace.records.push(TraceRecord { time: SimTime::ZERO, op, lba, len: 1 });
    }
    trace
}

/// Device counters at the moment a `CacheStats` started from zero.
#[derive(Clone, Copy, Default)]
struct Books {
    ssd_pages: u64,
    disk_reads: u64,
    disk_writes: u64,
}

impl Books {
    fn of_devices(engine: &KddEngine) -> Books {
        let disks = engine.raid().totals();
        Books {
            ssd_pages: engine.ssd().endurance().host_written_bytes / u64::from(PAGE),
            disk_reads: disks.reads,
            disk_writes: disks.writes,
        }
    }

    /// Both identities, over everything since `self` was taken.
    fn assert_balanced(self, engine: &KddEngine, when: &str) {
        let now = Books::of_devices(engine);
        let s = engine.stats();
        assert_eq!(s.fault_fallbacks, 0, "{when}: the SSD gave out");
        assert_eq!(
            now.ssd_pages - self.ssd_pages,
            s.ssd_writes_pages(),
            "{when}: SSD host pages vs data {} + delta {} + meta {}",
            s.ssd_data_writes,
            s.ssd_delta_writes,
            s.ssd_meta_writes
        );
        assert_eq!(now.disk_reads - self.disk_reads, s.raid_reads, "{when}: member reads");
        assert_eq!(now.disk_writes - self.disk_writes, s.raid_writes, "{when}: member writes");
    }
}

/// One more pass of `trace`. Every pass brings its own content tracker, so
/// after the first one "unwritten" pages hold an earlier pass's bytes and
/// `read_mismatches` means nothing here; the data path has its own tests.
fn replay(engine: &mut KddEngine, trace: &Trace, seed: u64) {
    kdd::sim::replay_engine(engine, trace, seed).expect("replay");
}

/// Normal mode → member failure and rebuild → more traffic → power cycle →
/// more traffic, with both identities checked at every stop.
fn conservation_through_every_mode(level: RaidLevel, disks: usize, trace: &Trace, seed: u64) {
    let mut engine = build_engine(level, disks);
    let books = Books::default();
    replay(&mut engine, trace, seed);
    books.assert_balanced(&engine, "replay");
    engine.flush().expect("flush");
    books.assert_balanced(&engine, "flush");

    replay(&mut engine, trace, seed + 1);
    assert!(engine.pending_row_count() > 0, "recovery should have parity to update first");
    engine.recover_from_hdd_failure(1).expect("hdd recovery");
    books.assert_balanced(&engine, "recover_from_hdd_failure");
    replay(&mut engine, trace, seed + 2);
    books.assert_balanced(&engine, "replay after rebuild");

    // A power cycle starts a new `CacheStats`; the devices carry on.
    let books = Books::of_devices(&engine);
    let mut engine = engine.power_cycle().expect("power cycle");
    books.assert_balanced(&engine, "power_cycle");
    replay(&mut engine, trace, seed + 3);
    engine.flush().expect("flush");
    books.assert_balanced(&engine, "replay after power cycle");
    assert!(engine.stats().ssd_delta_writes > 0 && engine.stats().ssd_meta_writes > 0);
}

#[test]
fn fin1_conserves_device_io() {
    let trace = PaperTrace::Fin1.generate_scaled(100, 5);
    conservation_through_every_mode(RaidLevel::Raid5, 5, &trace, 5);
}

#[test]
fn fin2_conserves_device_io() {
    let trace = PaperTrace::Fin2.generate_scaled(100, 6);
    conservation_through_every_mode(RaidLevel::Raid5, 5, &trace, 6);
}

#[test]
fn zipf_mix_on_raid6_conserves_device_io() {
    conservation_through_every_mode(RaidLevel::Raid6, 6, &zipf_trace(7), 7);
}

/// The `fin1_write_heavy` configuration of `benchmark/src/engine_wl.rs`
/// (RAID-5 × 5 over 65 536 pages, a 2 048-page 64-way cache on an SSD with
/// 25 % over-provisioning, Fin1 ÷ 50) at seed 42, every counter pinned.
/// The orders that decide these counts are key orders (DEZ pages by slot,
/// a page's deltas and a row's pending pages by lba), so an engine
/// refactor that moves any of this changed a decision, not a container.
#[test]
fn fin1_benchmark_configuration_counts_are_pinned() {
    const CACHE: u64 = 2048;
    let raid = RaidArray::new(Layout::new(RaidLevel::Raid5, 5, 16, 65_536 / 4), PAGE);
    let ssd = SsdDevice::with_logical_capacity((CACHE + 64) * u64::from(PAGE), PAGE, 0.25);
    let geometry = CacheGeometry { total_pages: CACHE, ways: 64, page_size: PAGE };
    let mut engine = KddEngine::new(KddConfig::new(geometry), ssd, raid).expect("engine");
    let trace = PaperTrace::Fin1.generate_scaled(50, 42);
    // SSD (host, NAND) pages written by the end of each pass.
    let mut wear = Vec::new();
    for pass in 0..3 {
        replay(&mut engine, &trace, 42 + pass);
        let end = engine.ssd().endurance();
        wear.push([end.host_written_bytes, end.nand_written_bytes].map(|b| b / u64::from(PAGE)));
    }
    assert_eq!(wear, [[109_137, 246_003], [216_191, 493_208], [322_593, 739_322]]);
    engine.flush().expect("flush");
    let expected = CacheStats {
        read_hits: 44_040,
        read_misses: 36_300,
        write_hits: 173_524,
        write_misses: 164_156,
        ssd_data_writes: 173_550,
        ssd_delta_writes: 144_294,
        ssd_meta_writes: 4_755,
        ssd_reads: 44_040,
        raid_reads: 397_350,
        raid_writes: 523_643,
        evictions: 149_968,
        parity_updates: 16_258,
        cleanings: 1,
        ..CacheStats::default()
    };
    assert_eq!(*engine.stats(), expected);
}

/// A transient member fault fails one array call part-way and the engine
/// retries the request. The failed attempt's member I/O happened and was
/// booked by the array, so `CacheStats` must count it too: one fault in
/// each of 280 placements (every 7th device op from 10 to 399, on each
/// member), 120 single-page writes each.
#[test]
fn retried_requests_conserve_device_io() {
    let data: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    let mut unbalanced = Vec::new();
    let mut placements = 0;
    for at in (10..400).step_by(7) {
        for d in 0..5 {
            placements += 1;
            let mut engine = build_engine(RaidLevel::Raid5, 5);
            let inj = FaultInjector::new(FaultPlan::new().transient(at, FaultDomain::Disk(d)));
            engine.attach_fault_injector(inj.clone());
            for i in 0..120u64 {
                engine.write((13 * i) % 500, &data).expect("a transient fault is retried");
            }
            assert_eq!(inj.counters().transient, 1, "disk {d} at op {at}: the fault fired");
            let (now, s) = (Books::of_devices(&engine), engine.stats());
            assert_eq!(now.ssd_pages, s.ssd_writes_pages(), "disk {d} at op {at}: SSD pages");
            if (now.disk_reads, now.disk_writes) != (s.raid_reads, s.raid_writes) {
                unbalanced.push((
                    d,
                    at,
                    now.disk_reads,
                    now.disk_writes,
                    s.raid_reads,
                    s.raid_writes,
                ));
            }
        }
    }
    assert!(
        unbalanced.is_empty(),
        "{} of {placements} placements leave the members' reads/writes apart from \
         raid_reads/raid_writes, as (disk, op, member reads, member writes, raid_reads, \
         raid_writes): {unbalanced:?}",
        unbalanced.len()
    );
}
