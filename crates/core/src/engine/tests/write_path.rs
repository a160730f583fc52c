//! Write-path contracts: a wrong-sized payload or an address past the array
//! is an error, and the buffer a delta is compressed into always finds its
//! way back to the free list.

use super::*;

fn noise(rng: &mut impl rand::Rng) -> Vec<u8> {
    (0..PS).map(|_| rng.random()).collect()
}

/// Every payload buffer ever allocated is either staged or on the free
/// list: whoever takes one out of the staging buffer recycles it. (The
/// scripts below stage fewer deltas than the free list's bound.)
fn assert_conserved(e: &KddEngine, after: &str) {
    let (acquired, recycled) = e.payload_buffer_stats();
    let held = (e.payloads.free_len() + e.staged_deltas()) as u64;
    assert_eq!(acquired - recycled, held, "{after}: a payload buffer was dropped, not recycled");
}

fn staged(e: &KddEngine) -> usize {
    e.z.dez.locs().filter(|&(_, loc)| loc == DeltaLoc::Staged).count()
}

/// A scripted mix that leaves through every exit a payload has; once the
/// pool is warm none of them draws a fresh buffer.
#[test]
fn steady_state_draws_no_fresh_payload_buffer() {
    let mut e = pressure_engine();
    let mut rng = seeded_rng(22);
    let mut c = StageTimes::new();
    let lbas: Vec<u64> = (0..96u64).map(|i| (i / 8) * 16 + i % 8).collect();
    let mut versions = FastMap::default();
    let populate = |e: &mut KddEngine, versions: &mut FastMap<u64, Vec<u8>>| {
        for &lba in &lbas {
            e.write(lba, &page(lba)).unwrap();
            versions.insert(lba, page(lba));
        }
    };
    let rewrite = |e: &mut KddEngine, versions: &mut FastMap<u64, Vec<u8>>, lba: u64, tag: u8| {
        let next = nudged_page(&versions[&lba], tag);
        e.write(lba, &next).unwrap();
        versions.insert(lba, next);
    };
    populate(&mut e, &mut versions);
    // Warm-up: as many small deltas as the staging buffer takes, through
    // commits and merges — the most buffers the script ever has in flight.
    assert!(nudge_randomly(&mut e, &lbas, &mut versions, &mut rng, 600) > 0, "no merge");
    assert_conserved(&e, "warm-up");
    let allocated = |e: &KddEngine| e.payload_buffer_stats().0 - e.payload_buffer_stats().1;
    let warm = allocated(&e);
    assert!(warm > 0 && warm < kdd_util::pool::DEFAULT_POOL_CAP as u64);

    // Commit to one DEZ page, then to two (the directory spills).
    cleaner::commit_staging(&mut e, &mut c).unwrap();
    for (i, &lba) in lbas.iter().take(4).enumerate() {
        rewrite(&mut e, &mut versions, lba, i as u8);
    }
    let before = e.stats().ssd_delta_writes;
    cleaner::commit_staging(&mut e, &mut c).unwrap();
    assert_eq!(e.stats().ssd_delta_writes, before + 1);
    while e.staging.used_bytes() + 12 * e.staged_deltas() as u32 <= PS {
        let lba = lbas[rng.random_range(0..lbas.len())];
        rewrite(&mut e, &mut versions, lba, rng.random());
    }
    let before = e.stats().ssd_delta_writes;
    cleaner::commit_staging(&mut e, &mut c).unwrap();
    assert_eq!(e.stats().ssd_delta_writes, before + 2, "the directory must spill a second page");
    assert_conserved(&e, "commits");

    // Coalescing rewrite of a staged delta.
    rewrite(&mut e, &mut versions, lbas[0], 1);
    let before = e.staged_deltas();
    assert_eq!(e.z.dez.loc(lbas[0]), Some(DeltaLoc::Staged));
    rewrite(&mut e, &mut versions, lbas[0], 2);
    assert_eq!(e.staged_deltas(), before);
    assert_conserved(&e, "coalescing");

    // Incompressible rewrites fall through — of a page with a staged delta
    // (invalidated on the way), with a committed one, and of a clean page.
    let committed = |(lba, loc)| matches!(loc, DeltaLoc::Dez(_)).then_some(lba);
    let committed = e.z.dez.locs().find_map(committed).expect("a committed delta");
    e.read(200).unwrap();
    for lba in [lbas[0], committed, 200] {
        let page = noise(&mut rng);
        let served = e.write_served(lba, &page).unwrap();
        assert_eq!(served.class, HitClass::WriteHitThrough, "lba {lba}");
        versions.insert(lba, page);
    }
    assert_conserved(&e, "fall-through");

    // RMW repair of a row partly cached, reconstruct-write of one cached
    // whole; both reclaim a staged delta.
    let row = e.raid().layout().row_of(lbas[2]);
    rewrite(&mut e, &mut versions, lbas[2], 3);
    let reads = e.stats().raid_reads;
    cleaner::clean_row(&mut e, row, &mut c).unwrap();
    assert!(e.stats().raid_reads > reads, "a partly cached row is repaired by RMW");
    let whole: Vec<u64> = e.raid().layout().row_lpns(100).collect();
    for &lba in &whole {
        e.write(lba, &page(lba)).unwrap();
        versions.insert(lba, page(lba));
    }
    rewrite(&mut e, &mut versions, whole[1], 4);
    let (reads, updates) = (e.stats().raid_reads, e.stats().parity_updates);
    cleaner::clean_row(&mut e, 100, &mut c).unwrap();
    assert_eq!((e.stats().raid_reads, e.stats().parity_updates), (reads, updates + 1));
    assert_conserved(&e, "row repairs");

    // A cleaning pass invalidates staged and committed deltas alike.
    for &lba in lbas.iter().skip(8).take(8) {
        rewrite(&mut e, &mut versions, lba, 5);
    }
    let dez = e.z.dez.locs().count() - staged(&e);
    assert!(staged(&e) > 0 && dez > 0, "{} staged, {dez} committed", staged(&e));
    e.clean(&mut SimTime::default()).unwrap();
    assert!(e.z.dez.locs().next().is_none() && e.staged_deltas() == 0);
    assert_conserved(&e, "cleaning");

    // And again from the top, merges included.
    populate(&mut e, &mut versions);
    assert!(nudge_randomly(&mut e, &lbas, &mut versions, &mut rng, 600) > 0, "no merge");
    assert_conserved(&e, "second round");
    assert_eq!(allocated(&e), warm, "steady state drew a fresh payload buffer");
    for (lba, version) in &versions {
        assert_eq!(&e.read(*lba).unwrap().0, version, "lba {lba}");
    }
}

/// With the cache full, the commit a write hit forces evicts the first clean
/// page in slot order — the page being written, still clean while its first
/// delta is prepared. The write ends as a miss and the delta's buffer must
/// come back all the same.
#[test]
fn payload_of_an_evicted_write_target_is_recycled() {
    let mut e = engine(8);
    let lbas: Vec<u64> = (0..8).collect();
    for &lba in &lbas {
        e.write(lba, &page(lba)).unwrap();
    }
    let mut evicted = 0;
    for round in 0..4u8 {
        for &lba in &lbas {
            let cached = e.z.cache.lookup(lba).is_some();
            let misses = e.stats().write_misses;
            e.write(lba, &similar_page(&page(lba), round)).unwrap();
            evicted += usize::from(cached && e.stats().write_misses > misses);
            assert_conserved(&e, "a write");
        }
    }
    assert!(evicted > 0, "no write hit lost its own page to the commit it forced");
}

/// Payloads that come back from NVRAM after a power cut may be exact-size
/// copies. They are dropped when they leave the staging buffer, never
/// recycled into a buffer `compress_into` would have to grow: when a write
/// hit coalesces over one, when one is committed, and when a row recovery
/// resynced is reclaimed.
#[test]
fn recovered_payloads_are_dropped_not_recycled() {
    // Three staged deltas, in rows 0–2, recovered from the NVRAM image as
    // a restore hands it back: exact-size payloads. A member of those rows
    // dead on the cut keeps recovery from resyncing them.
    let recovered = |dead_member: bool| {
        let mut e = engine(64);
        let mut versions = FastMap::default();
        for lba in 0..3u64 {
            e.write(lba, &page(lba)).unwrap();
            let next = nudged_page(&page(lba), lba as u8);
            e.write(lba, &next).unwrap();
            versions.insert(lba, next);
        }
        assert_eq!(e.staged_deltas(), 3);
        if dead_member {
            let disk = e.raid().layout().locate(4).disk;
            e.raid_mut().fail_disk(disk);
        }
        e.staging = e.staging.clone();
        let e = e.power_cycle().expect("recovery");
        assert_eq!((e.staged_deltas(), e.payload_buffer_stats()), (3, (0, 0)));
        (e, versions)
    };
    // A resynced row is reclaimed before the write: its payload is dropped
    // and the write misses.
    let (mut e, versions) = recovered(false);
    let served = e.write_served(0, &nudged_page(&versions[&0], 0x77)).unwrap();
    assert_eq!(served.class, HitClass::WriteMiss);
    assert_eq!(
        (e.staged_deltas(), e.payloads.free_len()),
        (2, 0),
        "a reclaimed payload was recycled"
    );
    // A stale row's page takes the delta path: coalesce over a recovered
    // payload, then commit the rest.
    let (mut e, mut versions) = recovered(true);
    let next = nudged_page(&versions[&0], 0x77);
    assert_eq!(e.write_served(0, &next).unwrap().class, HitClass::WriteHitDelta);
    versions.insert(0, next);
    assert_eq!(e.payloads.free_len(), 0, "the recovered predecessor was recycled");
    cleaner::commit_staging(&mut e, &mut StageTimes::new()).unwrap();
    assert_eq!(e.staged_deltas(), 0);
    assert_eq!((e.payloads.free_len(), e.payload_buffer_stats()), (1, (1, 0)));
    for lba in 0..3u64 {
        let next = nudged_page(&versions[&lba], 0x55);
        e.write(lba, &next).unwrap();
        assert_eq!(e.read(lba).unwrap().0, next);
    }
    assert_conserved(&e, "writes after recovery");
}

/// Losing the SSD loses the staged deltas with the rest of the cache (the
/// RAID already holds their data); their buffers go back to the free list.
#[test]
fn ssd_loss_recycles_staged_payloads() {
    let mut e = engine(64);
    let mut versions = FastMap::default();
    for lba in (0..5u64).map(|i| 16 * i) {
        e.write(lba, &page(lba)).unwrap();
        let next = nudged_page(&page(lba), 1 + lba as u8);
        e.write(lba, &next).unwrap();
        versions.insert(lba, next);
    }
    assert_eq!(e.staged_deltas(), 5);
    assert_conserved(&e, "staging");
    e.recover_from_ssd_failure().unwrap();
    assert_eq!((e.staged_deltas(), e.payloads.free_len()), (0, 5));
    assert_conserved(&e, "SSD loss");
    for (lba, version) in &versions {
        assert_eq!(&e.read(*lba).unwrap().0, version, "lba {lba}");
    }
}

/// `write_batch` lends its completion times from a buffer it refills: each
/// slice holds exactly its own batch's times, whatever the previous call
/// left there — a longer batch, or a batch that failed part way. The twin
/// submits an empty batch before each one, so its buffer's history
/// differs while its simulated state does not.
#[test]
fn lent_batch_times_carry_no_stale_entries() {
    let (mut e, mut twin) = (engine(64), engine(64));
    let pages: Vec<Vec<u8>> = (0..16).map(page).collect();
    let bad = vec![0u8; PS as usize - 1];
    let reqs = |lbas: std::ops::Range<usize>| -> Vec<WriteRequest<'_>> {
        lbas.map(|i| WriteRequest { lba: i as u64, data: &pages[i] }).collect()
    };
    let mut wrong = reqs(11..13);
    wrong[1].data = &bad;
    for (n, batch) in [reqs(0..8), reqs(8..11), wrong, reqs(13..15)].iter().enumerate() {
        assert!(twin.write_batch(&[]).unwrap().is_empty(), "batch {n}: the empty batch");
        let expect = twin.write_batch(batch).map(<[SimTime]>::to_vec);
        let got = e.write_batch(batch).map(<[SimTime]>::to_vec);
        if n == 2 {
            assert!(matches!(got, Err(EngineError::Layout(_))), "batch {n}: {got:?}");
            assert!(matches!(expect, Err(EngineError::Layout(_))), "twin batch {n}");
            continue;
        }
        let (got, expect) = (got.unwrap(), expect.unwrap());
        assert_eq!(got.len(), batch.len(), "batch {n}: {got:?}");
        assert_eq!(got, expect, "batch {n}");
    }
    assert_eq!(e.stats(), twin.stats());
}

/// Aim 3: bad input never panics the I/O path. A payload that is not one
/// page, or a request for a page past the array, is refused before any
/// counter, staged delta or log entry moves, in both modes and anywhere in
/// a batch.
#[test]
fn wrong_sized_payload_is_an_error_and_moves_nothing() {
    let mut e = engine(64);
    let p0 = page(1);
    e.write(10, &p0).unwrap();
    e.write(10, &similar_page(&p0, 1)).unwrap();
    let snapshot = |e: &KddEngine| {
        let staging = &e.staging;
        let log = (e.metalog.counters(), e.metalog.buffered_entries(), e.metalog.entries_pushed());
        (*e.stats(), staging.len(), staging.used_bytes(), log, e.payload_buffer_stats())
    };
    let before = snapshot(&e);
    let long = vec![7u8; PS as usize + 1];
    for bad in [&p0[..PS as usize - 1], &long[..], &[][..]] {
        for lba in [10, 11] {
            assert!(
                matches!(e.write(lba, bad), Err(EngineError::Layout(_))),
                "{} bytes",
                bad.len()
            );
        }
        assert_eq!(snapshot(&e), before, "{} bytes", bad.len());
    }
    let cap = e.raid().capacity_pages();
    for lba in [cap, cap + 7, u64::MAX] {
        assert!(matches!(e.write(lba, &p0), Err(EngineError::Layout(_))), "write {lba}");
        assert!(matches!(e.read(lba), Err(EngineError::Layout(_))), "read {lba}");
        assert_eq!(snapshot(&e), before, "page {lba}");
    }
    // Mid-batch: the prefix is served and flushed, the rest not attempted.
    let p1 = page(2);
    let batch = [
        WriteRequest { lba: 20, data: &p1 },
        WriteRequest { lba: 21, data: &long },
        WriteRequest { lba: 22, data: &p1 },
    ];
    assert!(matches!(e.write_batch(&batch), Err(EngineError::Layout(_))));
    assert_eq!(e.stats().write_misses, before.0.write_misses + 1);
    assert!(e.z.cache.lookup(20).is_some() && e.z.cache.lookup(22).is_none());
    assert!(!e.meta_defer && e.meta_pending.is_empty(), "the group flush must still run");
    let batch = [
        WriteRequest { lba: 30, data: &p1 },
        WriteRequest { lba: cap, data: &p1 },
        WriteRequest { lba: 31, data: &p1 },
    ];
    assert!(matches!(e.write_batch(&batch), Err(EngineError::Layout(_))));
    assert_eq!(e.stats().write_misses, before.0.write_misses + 2);
    assert!(e.z.cache.lookup(30).is_some() && e.z.cache.lookup(31).is_none());
    assert!(!e.meta_defer && e.meta_pending.is_empty(), "the group flush must still run");
    // A valid write goes through afterwards, in pass-through mode too.
    let p2 = similar_page(&p0, 2);
    e.write(10, &p2).unwrap();
    assert_eq!(e.read(10).unwrap().0, p2);
    e.mode = EngineMode::PassThrough;
    let before = snapshot(&e);
    assert!(matches!(e.write(10, &long), Err(EngineError::Layout(_))));
    assert!(matches!(e.write(cap, &p0), Err(EngineError::Layout(_))));
    assert!(matches!(e.read(cap), Err(EngineError::Layout(_))));
    assert_eq!(snapshot(&e), before);
    e.write(10, &p0).unwrap();
    assert_eq!(e.read(10).unwrap().0, p0);
}
