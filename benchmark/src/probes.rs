//! Layer probes: after a traced replay, drive each lower layer's public
//! functions directly with the workload's own inputs (its page-address
//! sequence and pairs of successive page versions) and time them.
//!
//! A probe's ns per call, multiplied by how often the replay made that
//! call (from the engine's public counters), estimates the layer's share
//! of the replay's host time. The estimates are coarse — a standalone
//! device is warmer in the CPU caches than one buried in the engine — and
//! what they leave unexplained is reported as
//! `harness.unattributed_share`, not hidden.

use std::hint::black_box;
use std::time::Instant;

use kdd_cache::setassoc::{InsertOutcome, PageState, SetAssocCache, SetGrouping};
use kdd_core::{KeyEntry, MetaLog, StagingBuffer};
use kdd_delta::codec::{codec_of, decompress, Compressor, DeltaCodec};
use kdd_delta::xor::{xor_pages, xor_pages_into};
use kdd_raid::{gf256, RaidArray};

use crate::engine_wl::EngineSpec;
use crate::inputs::{ContentGen, ContentMix, PAGE};
use crate::spans::{SpanLog, NONE};

/// Host ns per call of each probed function, and the codec's output mix.
#[derive(Debug, Clone, Default)]
pub struct ProbeOut {
    /// `xor_pages_into` per page.
    pub xor_ns: f64,
    /// `Compressor::compress` per delta.
    pub compress_ns: f64,
    /// `decompress` per delta.
    pub decompress_ns: f64,
    /// Mean compressed size of a delta, bytes.
    pub compressed_bytes_mean: f64,
    /// Share of deltas stored raw / zero-RLE / LZ.
    pub codec_frac: [f64; 3],
    /// `SetAssocCache::lookup` + `touch`.
    pub cache_lookup_ns: f64,
    /// `SetAssocCache::insert` (with eviction once the set is full).
    pub cache_insert_ns: f64,
    /// `MetaLog::push_group` per entry.
    pub metalog_push_ns: f64,
    /// `StagingBuffer::insert` (with the drain it forces when full).
    pub staging_insert_ns: f64,
    /// `RaidArray::read_page`.
    pub raid_read_ns: f64,
    /// `RaidArray::write_page` (full parity update).
    pub raid_write_ns: f64,
    /// `RaidArray::write_no_parity_update`.
    pub raid_write_no_parity_ns: f64,
    /// `RaidArray::parity_update_rmw` of one delta.
    pub raid_parity_rmw_ns: f64,
    /// `RaidArray::read_page` of a page on a failed member.
    pub raid_degraded_read_ns: f64,
    /// `RaidArray::rebuild` per row.
    pub raid_rebuild_ns_per_row: f64,
    /// `gf256::mul2_slice_into` per page.
    pub gf256_mul2_ns: f64,
    /// `SsdDevice::write_page` on a full device.
    pub ssd_write_ns: f64,
    /// `SsdDevice::read_page`.
    pub ssd_read_ns: f64,
}

/// Shortest time a probe loop runs, so one scheduler hiccup cannot own it.
const MIN_PROBE_NS: u64 = 8_000_000;

/// Run `pass` (which performs `calls` calls) until [`MIN_PROBE_NS`] have
/// passed, at least twice; returns ns per call and logs one span.
fn per_call(
    log: &mut SpanLog,
    name: &'static str,
    layer: &'static str,
    calls: usize,
    mut pass: impl FnMut(),
) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes < 2 || (t0.elapsed().as_nanos() as u64) < MIN_PROBE_NS {
        pass();
        passes += 1;
    }
    let t1 = Instant::now();
    log.leaf(NONE, NONE, name, layer, t0, t1);
    t1.duration_since(t0).as_nanos() as f64 / (passes as f64 * calls as f64)
}

/// Time `f` once and log it as a span; returns ns.
fn once(log: &mut SpanLog, name: &'static str, layer: &'static str, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    let t1 = Instant::now();
    log.leaf(NONE, NONE, name, layer, t0, t1);
    t1.duration_since(t0).as_nanos() as f64
}

/// Run every probe for `spec` on the inputs a traced replay kept.
#[must_use]
pub fn run(
    spec: &EngineSpec,
    seed: u64,
    lbas: &[u64],
    pairs: &[(Vec<u8>, Vec<u8>)],
    ssd_mapped_pages: u64,
    log: &mut SpanLog,
) -> ProbeOut {
    let mut out = ProbeOut::default();
    delta_probes(pairs, log, &mut out);
    cache_probes(spec, lbas, log, &mut out);
    core_probes(lbas, pairs, log, &mut out);
    // Page contents for the device probes: a small seeded pool.
    let mut content = ContentGen::new(ContentMix::Sparse, seed);
    let pool: Vec<Vec<u8>> = (0..64).map(|_| content.next(None)).collect();
    raid_probes(spec, lbas, &pool, log, &mut out);
    ssd_probes(spec, lbas, ssd_mapped_pages, &pool, log, &mut out);
    out
}

fn delta_probes(pairs: &[(Vec<u8>, Vec<u8>)], log: &mut SpanLog, out: &mut ProbeOut) {
    if pairs.is_empty() {
        return;
    }
    let n = pairs.len();
    let mut buf = vec![0u8; PAGE];
    out.xor_ns = per_call(log, "probe.xor_pages_into", "delta", n, || {
        for (old, new) in pairs {
            xor_pages_into(black_box(&mut buf), black_box(old), black_box(new));
        }
    });
    let deltas: Vec<Vec<u8>> = pairs.iter().map(|(old, new)| xor_pages(old, new)).collect();
    let mut codec = Compressor::new();
    let compressed: Vec<Vec<u8>> = deltas.iter().map(|d| codec.compress(d)).collect();
    out.compress_ns = per_call(log, "probe.compress", "delta", n, || {
        for d in &deltas {
            black_box(codec.compress(black_box(d)));
        }
    });
    out.decompress_ns = per_call(log, "probe.decompress", "delta", n, || {
        for c in &compressed {
            black_box(decompress(black_box(c)).ok());
        }
    });
    out.compressed_bytes_mean = compressed.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    for c in &compressed {
        let slot = match codec_of(c) {
            Some(DeltaCodec::Raw) | None => 0,
            Some(DeltaCodec::ZeroRle) => 1,
            Some(DeltaCodec::Lz) => 2,
        };
        out.codec_frac[slot] += 1.0 / n as f64;
    }
}

fn cache_probes(spec: &EngineSpec, lbas: &[u64], log: &mut SpanLog, out: &mut ProbeOut) {
    if lbas.is_empty() {
        return;
    }
    let layout = spec.layout();
    let grouping = SetGrouping::ParityRow {
        chunk_pages: layout.chunk_pages,
        data_disks: layout.data_disks() as u64,
    };
    // Pass A fills the directory the way the engine does (look up, insert
    // on a miss); pass B repeats the sequence on the warm directory, where
    // nearly every access is a lookup + touch. B prices a lookup; A minus
    // its lookups prices an insert.
    let mut cache = SetAssocCache::new_grouped(spec.geometry(), grouping);
    let mut inserts = 0usize;
    let a_ns = once(log, "probe.cache_fill", "cache", || {
        for &lba in lbas {
            match cache.lookup(lba) {
                Some(slot) => cache.touch(slot),
                None => {
                    let r = cache.insert(lba, PageState::Clean, |s| s == PageState::Clean);
                    inserts += usize::from(r != InsertOutcome::NoRoom);
                }
            }
        }
    });
    out.cache_lookup_ns = per_call(log, "probe.cache_lookup", "cache", lbas.len(), || {
        for &lba in lbas {
            if let Some(slot) = cache.lookup(black_box(lba)) {
                cache.touch(slot);
            }
        }
    });
    let lookups_ns = out.cache_lookup_ns * lbas.len() as f64;
    out.cache_insert_ns = ((a_ns - lookups_ns) / inserts.max(1) as f64).max(0.0);
}

fn core_probes(lbas: &[u64], pairs: &[(Vec<u8>, Vec<u8>)], log: &mut SpanLog, out: &mut ProbeOut) {
    if lbas.is_empty() {
        return;
    }
    // Entries per 4 KiB metadata page (14-byte header, 22-byte entries) and
    // a partition large enough for the 4096 keys the probe keeps live.
    let mut metalog: MetaLog<KeyEntry> = MetaLog::new(64, (PAGE - 14) / 22);
    out.metalog_push_ns = per_call(log, "probe.metalog_push_group", "core", lbas.len(), || {
        for group in lbas.chunks(16) {
            let entries = group.iter().map(|&l| KeyEntry { key: l % 4096, tombstone: false });
            black_box(metalog.push_group(entries));
        }
    });
    if pairs.is_empty() {
        return;
    }
    let mut codec = Compressor::new();
    let payloads: Vec<Vec<u8>> = pairs
        .iter()
        .map(|(old, new)| codec.compress(&xor_pages(old, new)))
        .filter(|c| c.len() < PAGE)
        .collect();
    let mut staging: StagingBuffer<Vec<u8>> = StagingBuffer::new(PAGE as u32);
    let (mut ns, mut calls) = (0u64, 0u64);
    let t_span = Instant::now();
    while ns < MIN_PROBE_NS && !payloads.is_empty() {
        // The engine hands the buffer an owned payload; copying it is
        // set-up, not the insert.
        let mut owned: Vec<(u64, Vec<u8>)> =
            payloads.iter().enumerate().map(|(i, p)| (lbas[i % lbas.len()], p.clone())).collect();
        let t0 = Instant::now();
        for (lba, payload) in owned.drain(..) {
            if !staging.fits(lba, &payload) {
                black_box(staging.drain());
            }
            staging.insert(lba, payload);
        }
        ns += t0.elapsed().as_nanos() as u64;
        calls += payloads.len() as u64;
    }
    log.leaf(NONE, NONE, "probe.staging_insert", "core", t_span, Instant::now());
    out.staging_insert_ns = ns as f64 / calls.max(1) as f64;
}

fn raid_probes(
    spec: &EngineSpec,
    lbas: &[u64],
    pool: &[Vec<u8>],
    log: &mut SpanLog,
    out: &mut ProbeOut,
) {
    let layout = spec.layout();
    let page = |lba: u64, shift: u64| pool[((lba + shift) % pool.len() as u64) as usize].as_slice();
    // Distinct pages of the sequence, at most one per parity row, so the
    // no-parity / parity-update pair below repairs each row exactly once.
    let mut rows = std::collections::BTreeSet::new();
    let targets: Vec<u64> =
        lbas.iter().copied().filter(|&l| rows.insert(layout.row_of(l))).take(2048).collect();
    if targets.is_empty() {
        return;
    }
    let mut array = RaidArray::new(layout, PAGE as u32);
    for &l in &targets {
        array.write_page(l, page(l, 0)).expect("probe array is healthy");
    }
    let n = targets.len();
    let mut buf = vec![0u8; PAGE];
    out.raid_read_ns = per_call(log, "probe.raid_read_page", "raid", n, || {
        for &l in &targets {
            black_box(array.read_page(l, &mut buf).is_ok());
        }
    });

    // Degraded reads and the rebuild run on a copy with one member failed.
    let failed_disk = 1;
    let mut degraded = array.clone();
    degraded.fail_disk(failed_disk);
    let on_failed: Vec<u64> =
        targets.iter().copied().filter(|&l| layout.locate(l).disk == failed_disk).collect();
    out.raid_degraded_read_ns =
        per_call(log, "probe.raid_degraded_read", "raid", on_failed.len(), || {
            for &l in &on_failed {
                black_box(degraded.read_page(l, &mut buf).is_ok());
            }
        });
    let rebuild_ns = once(log, "probe.raid_rebuild", "raid", || {
        black_box(degraded.rebuild().is_ok());
    });
    out.raid_rebuild_ns_per_row = rebuild_ns / layout.rows() as f64;

    let mut shift = 0u64;
    out.raid_write_ns = per_call(log, "probe.raid_write_page", "raid", n, || {
        shift += 1;
        for &l in &targets {
            black_box(array.write_page(l, page(l, shift)).is_ok());
        }
    });

    // KDD's pair: data without parity, then the parity repair from the
    // delta. Timed as two blocks per pass.
    let (mut np_ns, mut rmw_ns, mut passes) = (0u64, 0u64, 0u64);
    let t_span = Instant::now();
    while np_ns + rmw_ns < 2 * MIN_PROBE_NS {
        let deltas: Vec<Vec<u8>> =
            targets.iter().map(|&l| xor_pages(page(l, shift), page(l, shift + 1))).collect();
        shift += 1;
        let t0 = Instant::now();
        for &l in &targets {
            black_box(array.write_no_parity_update(l, page(l, shift)).is_ok());
        }
        let t1 = Instant::now();
        for (&l, delta) in targets.iter().zip(&deltas) {
            let loc = layout.locate(l);
            black_box(array.parity_update_rmw(loc.row, &[(loc.data_index, delta)]).is_ok());
        }
        let t2 = Instant::now();
        np_ns += t1.duration_since(t0).as_nanos() as u64;
        rmw_ns += t2.duration_since(t1).as_nanos() as u64;
        passes += 1;
    }
    log.leaf(NONE, NONE, "probe.raid_no_parity_then_rmw", "raid", t_span, Instant::now());
    out.raid_write_no_parity_ns = np_ns as f64 / (passes * n as u64) as f64;
    out.raid_parity_rmw_ns = rmw_ns as f64 / (passes * n as u64) as f64;

    let (mut p, mut q) = (vec![0u8; PAGE], vec![0u8; PAGE]);
    out.gf256_mul2_ns = per_call(log, "probe.gf256_mul2", "raid", pool.len(), || {
        for src in pool {
            gf256::mul2_slice_into(
                black_box(&mut p),
                black_box(&mut q),
                black_box(src),
                gf256::pow_g(3),
            );
        }
    });
}

fn ssd_probes(
    spec: &EngineSpec,
    lbas: &[u64],
    mapped: u64,
    pool: &[Vec<u8>],
    log: &mut SpanLog,
    out: &mut ProbeOut,
) {
    if lbas.is_empty() || mapped == 0 {
        return;
    }
    // Fill the device to the level the engine left its own at, by writing
    // the workload's address sequence folded onto that many pages: like
    // the engine's traffic it overwrites while it fills, so the collector
    // has invalid pages to reclaim.
    let mut ssd = spec.ssd();
    let seq: Vec<u64> = lbas.iter().take(16_384).map(|&l| l % mapped).collect();
    let page = |lpn: u64, turn: usize| pool[(lpn as usize + turn) % pool.len()].as_slice();
    if seq.iter().any(|&lpn| ssd.write_page(lpn, page(lpn, 0)).is_err()) {
        return; // the device refused the fill: nothing comparable to time
    }
    let mut turn = 0usize;
    let mut refused = false;
    let write_ns = per_call(log, "probe.ssd_write_page", "blockdev", seq.len(), || {
        turn += 1;
        for &lpn in &seq {
            refused |= ssd.write_page(lpn, page(lpn, turn)).is_err();
        }
    });
    if refused {
        return; // a failed device answers in no time: not a write cost
    }
    out.ssd_write_ns = write_ns;
    let mut buf = vec![0u8; PAGE];
    out.ssd_read_ns = per_call(log, "probe.ssd_read_page", "blockdev", seq.len(), || {
        for &lpn in &seq {
            black_box(ssd.read_page(lpn, &mut buf).is_ok());
        }
    });
}
