//! `perfbench` — self-timed hot-path kernel harness.
//!
//! Measures the raw kernels (GF(2^8) bulk multiply, XOR delta, delta
//! codec) in ns/iter and MB/s and merges the results into
//! `BENCH_kernels.json` (schema: PERF.md "Harnesses, gate and file schema"), so the
//! committed file preserves the before/after trajectory across
//! optimisation PRs; it finishes in seconds, so CI runs it on every push
//! (`--smoke`). It also regenerates the committed `OBS_engine.json`
//! observability snapshot. End-to-end replay throughput is not measured
//! here: that is `benchmark/`'s job (`replay_ops_per_s`, with spread).
//!
//! ```text
//! perfbench                         # full run, label "current"
//! perfbench --label after           # record under a named run
//! perfbench --smoke                 # fast CI variant (same schema)
//! perfbench --validate              # check committed files only
//! perfbench --gate                  # re-timed kernels vs committed baseline
//! ```
//!
//! `--gate` re-times the kernels (minimum of five 5 ms rounds per entry)
//! and compares each entry against the **last committed run** in
//! `BENCH_kernels.json`. Ratios are normalised by the pass's host drift
//! (the median of all its raw ratios), and a kernel more than 30% slower
//! after normalisation in each of up to three passes fails the gate.
//!
//! Determinism note: page contents are fully seeded; only the timings
//! vary run to run (host timing is this binary's job, so it opts out of
//! the `clippy.toml` wall-clock ban).

// kdd-lint: allow-file(layering) -- `raid5_write_page_rmw_4k` and `raid6_rebuild_row_*` time `RaidArray::write_page` and `RaidArray::rebuild` themselves, on throwaway arrays of their own: there is no engine whose accounting or crash ordering the raw calls could bypass.
// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
#![allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::time::Instant;

use kdd_bench::perfjson::{self, obj, Json};
use kdd_blockdev::SsdDevice;
use kdd_cache::setassoc::{InsertOutcome, PageState, SetAssocCache};
use kdd_cache::CacheGeometry;
use kdd_core::{KddConfig, KddEngine, KeyEntry, MetaLog};
use kdd_delta::codec::{compress, decompress, xor_decoded_into, Compressor};
use kdd_delta::content::PageMutator;
use kdd_delta::xor::{is_all_zero, xor2_into, xor_into, xor_pages, xor_pages_into, zero_fraction};
use kdd_obs::{Recorder, RecorderConfig};
use kdd_raid::{gf256, Layout, RaidArray, RaidLevel};
use kdd_sim::replay_engine;
use kdd_trace::synth::PaperTrace;
use kdd_util::hash::crc32;
use kdd_util::units::SimTime;

const PAGE: usize = 4096;
const KERNELS_FILE: &str = "BENCH_kernels.json";
const OBS_FILE: &str = "OBS_engine.json";

struct Opts {
    label: String,
    smoke: bool,
    validate: bool,
    gate: bool,
    out_dir: String,
}

fn usage() -> ! {
    eprintln!("usage: perfbench [--label NAME] [--smoke] [--validate] [--gate] [--out-dir DIR]");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        label: "current".to_string(),
        smoke: false,
        validate: false,
        gate: false,
        out_dir: ".".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--label" => opts.label = it.next().unwrap_or_else(|| usage()),
            "--smoke" => opts.smoke = true,
            "--validate" => opts.validate = true,
            "--gate" => opts.gate = true,
            "--out-dir" => opts.out_dir = it.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    opts
}

/// Time `f` with auto-calibrated batching: estimate the per-iter cost,
/// size batches to ~`round_ns` of wall time, run `rounds` batches, and
/// report the *minimum* batch mean (least-noise estimator on a shared
/// machine). Returns ns/iter.
fn time_ns(rounds: usize, round_ns: u64, mut f: impl FnMut()) -> f64 {
    // Warm up + estimate.
    let probe = 8;
    let t0 = Instant::now();
    for _ in 0..probe {
        f();
    }
    let est = (t0.elapsed().as_nanos() as u64 / probe as u64).max(1);
    let iters = (round_ns / est).clamp(8, 4_000_000) as usize;
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = t.elapsed().as_nanos() as f64 / iters as f64;
        if per < best {
            best = per;
        }
    }
    best
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e9 / 1e6
}

/// All-zero page: the degenerate rewrite (page unchanged → delta is zero).
fn class_page_zero() -> Vec<u8> {
    vec![0u8; PAGE]
}

/// Text-like page: repeated log-style records with incrementing decimal
/// fields — zero-free and highly LZ-compressible (hot-metadata class).
fn class_page_text() -> Vec<u8> {
    let mut page = Vec::with_capacity(PAGE + 64);
    let mut n = 0u32;
    while page.len() < PAGE {
        let line = format!(
            "req={n:06} op=write lat_us={:04} path=/vol0/seg{:03}/blk ",
            (n * 37) % 1000,
            n % 128
        );
        page.extend_from_slice(line.as_bytes());
        n += 1;
    }
    page.truncate(PAGE);
    page
}

/// Incompressible page: xorshift-mixed bytes — no zero runs, no repeats.
fn class_page_incompressible() -> Vec<u8> {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    (0..PAGE)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

/// Deltas as the engine's write hits produce them: the replay driver's
/// `PageMutator(4096, 0.15, 64)` against a cached base 4–8 rewrites old.
/// About a third of such a delta is zero — under the probe's 0.75 cut for
/// the near-all-zero class, so its 4-grams are sampled: fresh bytes between
/// zero runs do not repeat and `compress` runs the RLE pass alone. (A delta
/// one mutation old, like `compress_4k_delta`'s, is 90 % zero and is never
/// sampled.) With `text_edit` the newest rewrite also re-encodes one
/// 16-byte field in every record of half the page (the benchmark's `Mixed`
/// recipe): that half is periodic, the samples see it, and both passes
/// still run. Sixteen pages in rotation, so the timing is not one page's
/// branch history replayed.
fn aged_deltas(text_edit: bool) -> Vec<Vec<u8>> {
    (0..16u64)
        .map(|k| {
            let mut mutator = PageMutator::new(PAGE, 0.15, 64, 14 + k);
            let base = mutator.initial_page();
            let mut cur = mutator.mutate(&base);
            for _ in 1..4 + k % 5 {
                cur = mutator.mutate(&cur);
            }
            if text_edit {
                let mut field = [0u8; 16];
                field[..8]
                    .copy_from_slice(&(k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
                field[8..]
                    .copy_from_slice(&(k + 17).wrapping_mul(0xc2b2_ae3d_27d4_eb4f).to_le_bytes());
                let half = (k % 2) as usize * (PAGE / 2);
                for (i, b) in cur[half..half + PAGE / 2].iter_mut().enumerate() {
                    *b ^= field[i % 16] | 1; // never zero: the field did change
                }
            }
            let delta = xor_pages(&base, &cur);
            let zf = zero_fraction(&delta);
            assert!(zf > 1.0 / 16.0 && zf < 0.75, "aged delta {k} leaves the sampled class: {zf}");
            delta
        })
        .collect()
}

fn kernel_entry(name: &str, bytes: usize, ns: f64) -> Json {
    obj(vec![
        ("name", Json::Str(name.to_string())),
        ("ns_per_iter", Json::Num((ns * 1000.0).round() / 1000.0)),
        ("mb_per_s", Json::Num(mb_per_s(bytes, ns).round())),
    ])
}

/// `(rounds, ns per round)` handed to [`time_ns`] for every kernel entry.
type Rounds = (usize, u64);
const FULL_ROUNDS: Rounds = (5, 20_000_000);
const SMOKE_ROUNDS: Rounds = (2, 2_000_000);
/// The gate fails CI, so its minimum has to survive a busy host: with
/// five rounds of 5 ms one quiet round per entry is enough (≈ 0.5 s in
/// all).
const GATE_ROUNDS: Rounds = (5, 5_000_000);

fn bench_kernels((rounds, round_ns): Rounds) -> Vec<Json> {
    let mut entries = Vec::new();

    // Deterministic page contents shared by all kernel benches.
    let data: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    let mut mutator = PageMutator::new(PAGE, 0.10, 64, 7);
    let p0 = mutator.initial_page();
    let p1 = mutator.mutate(&p0);
    let delta = xor_pages(&p0, &p1);
    let compressed = compress(&delta);

    // GF(2^8) bulk multiply: 0x1d = g^8 (a RAID-6 coefficient on the
    // doubling-chain fast path) and g^1 = 2 (the first Q-parity term).
    let mut dst = vec![0u8; PAGE];
    let ns = time_ns(rounds, round_ns, || {
        gf256::mul_slice_into(black_box(&mut dst), black_box(&data), 0x1d);
    });
    entries.push(kernel_entry("gf256_mul_slice_4k", PAGE, ns));
    eprintln!("  gf256_mul_slice_4k       {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    let ns = time_ns(rounds, round_ns, || {
        gf256::mul_slice_into(black_box(&mut dst), black_box(&data), 0x02);
    });
    entries.push(kernel_entry("gf256_mul_slice_4k_c2", PAGE, ns));
    eprintln!("  gf256_mul_slice_4k_c2    {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // A coefficient outside the g^0..g^15 whitelist exercises the
    // split-nibble table fallback (cold reconstruction path).
    let ns = time_ns(rounds, round_ns, || {
        gf256::mul_slice_into(black_box(&mut dst), black_box(&data), 0xb7);
    });
    entries.push(kernel_entry("gf256_mul_slice_4k_cold", PAGE, ns));
    eprintln!("  gf256_mul_slice_4k_cold  {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // Fused P+Q update: one source pass feeding both parities — the
    // RAID-6 RMW/reconstruct inner loop.
    let mut qdst = vec![0u8; PAGE];
    let ns = time_ns(rounds, round_ns, || {
        gf256::mul2_slice_into(black_box(&mut dst), black_box(&mut qdst), black_box(&data), 0x1d);
    });
    entries.push(kernel_entry("gf256_mul2_slice_4k", PAGE, ns));
    eprintln!("  gf256_mul2_slice_4k      {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // XOR delta kernels.
    let mut buf = p0.clone();
    let ns = time_ns(rounds, round_ns, || {
        xor_into(black_box(&mut buf), black_box(&p1));
    });
    entries.push(kernel_entry("xor_into_4k", PAGE, ns));
    eprintln!("  xor_into_4k              {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    let ns = time_ns(rounds, round_ns, || {
        black_box(xor_pages(black_box(&p0), black_box(&p1)));
    });
    entries.push(kernel_entry("xor_pages_4k", PAGE, ns));
    eprintln!("  xor_pages_4k             {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    let mut out = vec![0u8; PAGE];
    let ns = time_ns(rounds, round_ns, || {
        xor_pages_into(black_box(&mut out), black_box(&p0), black_box(&p1));
    });
    entries.push(kernel_entry("xor_pages_into_4k", PAGE, ns));
    eprintln!("  xor_pages_into_4k        {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    let mut acc2 = p0.clone();
    let ns = time_ns(rounds, round_ns, || {
        xor2_into(black_box(&mut acc2), black_box(&mut out), black_box(&p1));
    });
    entries.push(kernel_entry("xor2_into_4k", PAGE, ns));
    eprintln!("  xor2_into_4k             {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    let ns = time_ns(rounds, round_ns, || {
        black_box(zero_fraction(black_box(&delta)));
    });
    entries.push(kernel_entry("zero_fraction_4k", PAGE, ns));
    eprintln!("  zero_fraction_4k         {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    let zeros = vec![0u8; PAGE];
    let ns = time_ns(rounds, round_ns, || {
        black_box(is_all_zero(black_box(&zeros)));
    });
    entries.push(kernel_entry("is_all_zero_4k", PAGE, ns));
    eprintln!("  is_all_zero_4k           {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // Delta codec round trip, measured through the persistent Compressor
    // (the engine's hot-path entry point, scratch reused across calls).
    let mut comp = Compressor::new();
    let ns = time_ns(rounds, round_ns, || {
        black_box(comp.compress(black_box(&delta)));
    });
    entries.push(kernel_entry("compress_4k_delta", PAGE, ns));
    eprintln!("  compress_4k_delta        {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // Ratio-stratified codec benches: the match finder behaves very
    // differently per content class, so each class is tracked as its own
    // trajectory entry (all-zero, text-like/compressible, incompressible).
    for (name, page) in [
        ("compress_4k_zero", class_page_zero()),
        ("compress_4k_text", class_page_text()),
        ("compress_4k_incompressible", class_page_incompressible()),
    ] {
        let ns = time_ns(rounds, round_ns, || {
            black_box(comp.compress(black_box(&page)));
        });
        entries.push(kernel_entry(name, PAGE, ns));
        eprintln!("  {name:<24} {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));
    }

    let ns = time_ns(rounds, round_ns, || {
        black_box(decompress(black_box(&compressed)).ok());
    });
    entries.push(kernel_entry("decompress_4k_delta", PAGE, ns));
    eprintln!("  decompress_4k_delta      {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // The codec path the engine actually runs (see `aged_deltas`), and the
    // class of it on which both passes still race.
    let aged = aged_deltas(false);
    let mut turn = 0;
    for (name, deltas) in
        [("compress_4k_aged_delta", &aged), ("compress_4k_aged_text_delta", &aged_deltas(true))]
    {
        let ns = time_ns(rounds, round_ns, || {
            black_box(comp.compress(black_box(&deltas[turn % deltas.len()])));
            turn += 1;
        });
        entries.push(kernel_entry(name, PAGE, ns));
        eprintln!("  {name:<27} {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));
    }

    // The same deltas the way the engine compresses them, into a reused
    // buffer: what `compress_4k_aged_delta` adds is the exact-size copy.
    let mut out = Vec::with_capacity(PAGE + 1);
    let ns = time_ns(rounds, round_ns, || {
        comp.compress_into(black_box(&aged[turn % aged.len()]), &mut out);
        black_box(&out);
        turn += 1;
    });
    entries.push(kernel_entry("compress_into_4k_aged_delta", PAGE, ns));
    eprintln!("  compress_into_4k_aged_delta {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    let aged_compressed: Vec<Vec<u8>> = aged.iter().map(|d| comp.compress(d)).collect();
    let ns = time_ns(rounds, round_ns, || {
        black_box(decompress(black_box(&aged_compressed[turn % aged.len()])).ok());
        turn += 1;
    });
    entries.push(kernel_entry("decompress_4k_aged_delta", PAGE, ns));
    eprintln!("  decompress_4k_aged_delta {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // The read hit's combine on an *old* page: the same deltas folded into
    // a page straight from their compressed form.
    let mut scratch = Vec::new();
    let ns = time_ns(rounds, round_ns, || {
        let comp = black_box(&aged_compressed[turn % aged.len()]);
        black_box(xor_decoded_into(comp, black_box(&mut buf), &mut scratch).is_ok());
        turn += 1;
    });
    entries.push(kernel_entry("xor_decoded_into_4k_aged_delta", PAGE, ns));
    eprintln!("  xor_decoded_into_4k_aged {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // What every metadata-log page pays on commit and on the recovery scan.
    let ns = time_ns(rounds, round_ns, || {
        black_box(crc32(black_box(&p0)));
    });
    entries.push(kernel_entry("crc32_4k", PAGE, ns));
    eprintln!("  crc32_4k                 {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // What every engine-backed run pays per page before it replays
    // anything (`delta.content_gen_ns_per_page`): a first-write page, and a
    // rewrite in the replay driver's shape — over a ring of pages, each
    // replaced by its successor, so it is not one hot page's lines.
    let mut content = PageMutator::new(PAGE, 0.15, 64, 24);
    let ns = time_ns(rounds, round_ns, || {
        black_box(content.initial_page());
    });
    entries.push(kernel_entry("content_initial_page_4k", PAGE, ns));
    eprintln!("  content_initial_page_4k  {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    let mut ring: Vec<Vec<u8>> = (0..16).map(|_| content.initial_page()).collect();
    let ns = time_ns(rounds, round_ns, || {
        let i = turn % ring.len();
        ring[i] = black_box(content.mutate(&ring[i]));
        turn += 1;
    });
    entries.push(kernel_entry("content_mutate_4k", PAGE, ns));
    eprintln!("  content_mutate_4k        {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // The conventional small write (`P ^= D_old ^ D_new`) on a healthy
    // RAID-5×5, rotating over 64 rows so parity and data pages change.
    let mut array = RaidArray::new(Layout::new(RaidLevel::Raid5, 5, 16, 16 * 64), PAGE as u32);
    let lpns: Vec<u64> = (0..64).map(|row| row * 4 + row % 4).collect();
    for &lpn in &lpns {
        array.write_page(lpn, &p0).expect("healthy array");
    }
    let ns = time_ns(rounds, round_ns, || {
        let page = if turn / lpns.len() % 2 == 0 { &p1 } else { &p0 };
        black_box(array.write_page(lpns[turn % lpns.len()], black_box(page)).is_ok());
        turn += 1;
    });
    entries.push(kernel_entry("raid5_write_page_rmw_4k", PAGE, ns));
    eprintln!("  raid5_write_page_rmw_4k  {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // One member of a RAID-6×6 failed and rebuilt, per row: over an array
    // nobody wrote (every row blank — its six member ops are booked and no
    // byte moves) and over a full one (four survivor pages folded, one
    // page written). MB/s counts the page the row restores.
    for (name, written) in [("raid6_rebuild_row_blank", false), ("raid6_rebuild_row_written", true)]
    {
        let layout = Layout::new(RaidLevel::Raid6, 6, 16, 16 * 16);
        let mut array = RaidArray::new(layout, PAGE as u32);
        if written {
            for lpn in 0..layout.capacity_pages() {
                let page = if lpn % 2 == 0 { &p0 } else { &p1 };
                array.write_page(lpn, page).expect("healthy array");
            }
        }
        let per_rebuild = time_ns(rounds, round_ns, || {
            array.fail_disk(1);
            black_box(array.rebuild().is_ok());
        });
        let ns = per_rebuild / layout.rows() as f64;
        entries.push(kernel_entry(name, PAGE, ns));
        eprintln!("  {name:<24} {ns:9.1} ns/row   {:8.0} MB/s", mb_per_s(PAGE, ns));
    }

    // A clean fill into a full 64-way set of a KDD cache under pressure:
    // in every set 16 DEZ and 16 *old* pages are the oldest, 32 clean pages
    // the newest, and each insert evicts the coldest clean one. MB/s
    // counts the page the fill stands for.
    const SETS: usize = 16;
    let mut dir = SetAssocCache::new(
        CacheGeometry { total_pages: SETS as u64 * 64, ways: 64, page_size: PAGE as u32 },
        1,
    );
    for _ in 0..SETS * 16 {
        dir.alloc_delta_slot().expect("empty directory");
    }
    let mut old_in_set = [0u32; SETS];
    let mut next_lba = 0u64;
    while dir.free_slots() > 0 {
        let outcome = dir.insert(next_lba, PageState::Clean, |s| s == PageState::Clean);
        next_lba += 1;
        if let InsertOutcome::Inserted { slot } = outcome {
            let old = &mut old_in_set[dir.set_of_slot(slot)];
            if *old < 16 {
                *old += 1;
                dir.set_state(slot, PageState::Old);
            }
        }
    }
    assert_eq!(dir.count_state(PageState::Old) + dir.count_state(PageState::Delta), SETS * 32);
    let ns = time_ns(rounds, round_ns, || {
        black_box(dir.insert(black_box(next_lba), PageState::Clean, |s| s == PageState::Clean));
        next_lba += 1;
    });
    entries.push(kernel_entry("setassoc_insert_evict_half_pinned", PAGE, ns));
    eprintln!("  setassoc_insert_evict_hp {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(PAGE, ns));

    // The counting model's log traffic on a partition small enough that
    // every cut reclaims a head page first: 8 pages of 186 entries
    // (4 KiB / 22 B), 600 live keys rewritten in a scattered order, one in
    // eight pushes a tombstone. MB/s counts the 22-byte entry.
    let mut log: MetaLog<KeyEntry> = MetaLog::new(8, 186);
    let mut pushed = 0u64;
    let ns = time_ns(rounds, round_ns, || {
        let entry =
            KeyEntry { key: pushed.wrapping_mul(0x9e37_79b9) % 600, tombstone: pushed % 8 == 7 };
        black_box(log.push(black_box(entry)).is_ok());
        pushed += 1;
    });
    entries.push(kernel_entry("metalog_push_wrap", 22, ns));
    eprintln!("  metalog_push_wrap        {ns:9.1} ns/iter  {:8.0} MB/s", mb_per_s(22, ns));

    entries
}

/// Build the reference engine of the observability snapshot (same shape
/// as `examples/endurance_audit.rs`): RAID-5 over 5 disks with a 512-page
/// delta cache.
fn build_engine() -> KddEngine {
    let layout = Layout::new(RaidLevel::Raid5, 5, 16, 16 * 128);
    let raid = RaidArray::new(layout, PAGE as u32);
    let ssd = SsdDevice::with_logical_capacity((512 + 64) * PAGE as u64, PAGE as u32, 0.07);
    let geometry = CacheGeometry { total_pages: 512, ways: 64, page_size: PAGE as u32 };
    match KddEngine::new(KddConfig::new(geometry), ssd, raid) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("engine construction failed: {e:?}");
            std::process::exit(1);
        }
    }
}

/// Emit the committed observability snapshot: a fixed seeded Fin1 replay
/// with an enabled recorder. Every stamp in the document is *simulated*
/// time, so the file is byte-identical on any machine — it is committed
/// at the repo root next to `BENCH_kernels.json` and checked by
/// `--validate`.
fn emit_obs_snapshot(path: &str) {
    let trace = PaperTrace::Fin1.generate_scaled(800, 42);
    let mut engine = build_engine();
    engine.attach_recorder(Recorder::new(RecorderConfig {
        sample_interval: SimTime::from_secs(1),
        ring_capacity: 256,
    }));
    let ops = match replay_engine(&mut engine, &trace, 42) {
        Ok(report) => report.ops,
        Err(e) => {
            eprintln!("obs snapshot replay error: {e}");
            std::process::exit(1);
        }
    };
    let mut t = SimTime::ZERO;
    if engine.clean(&mut t).is_err() || engine.flush().is_err() {
        eprintln!("obs snapshot cleanup error");
        std::process::exit(1);
    }
    let Some(doc) = engine.obs_snapshot() else {
        eprintln!("obs snapshot: recorder unexpectedly disabled");
        std::process::exit(1);
    };
    let problems = kdd_obs::validate_snapshot(&doc);
    if !problems.is_empty() {
        eprintln!("refusing to write invalid {path}:");
        for p in &problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, doc.render()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path} ({ops} ops captured)");
}

fn load_doc(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    match perfjson::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("warning: {path} is not valid JSON ({e}); starting fresh");
            None
        }
    }
}

fn write_kernels_doc(path: &str, label: &str, mode: &str, entries: Vec<Json>) {
    let run = obj(vec![
        ("label", Json::Str(label.to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("entries", Json::Arr(entries)),
    ]);
    let doc = perfjson::merge_run(load_doc(path), "kernels", PAGE as u32, run);
    let problems = perfjson::validate(&doc, "kernels");
    if !problems.is_empty() {
        eprintln!("refusing to write invalid {path}:");
        for p in &problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, doc.render()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path} (run label {label:?})");
}

fn validate_files(out_dir: &str) -> ! {
    let mut failed = false;
    let kpath = format!("{out_dir}/{KERNELS_FILE}");
    match load_doc(&kpath) {
        None => {
            eprintln!("{kpath}: missing or unparseable");
            failed = true;
        }
        Some(doc) => {
            let problems = perfjson::validate(&doc, "kernels");
            if problems.is_empty() {
                let runs = doc.get("runs").and_then(Json::as_arr).map_or(0, <[Json]>::len);
                eprintln!("{kpath}: ok ({runs} runs)");
            } else {
                failed = true;
                for p in &problems {
                    eprintln!("{kpath}: {p}");
                }
            }
        }
    }
    let opath = format!("{out_dir}/{OBS_FILE}");
    match load_doc(&opath) {
        None => {
            eprintln!("{opath}: missing or unparseable");
            failed = true;
        }
        Some(doc) => {
            let problems = kdd_obs::validate_snapshot(&doc);
            if problems.is_empty() {
                let samples = doc.get("timeseries").and_then(Json::as_arr).map_or(0, <[Json]>::len);
                eprintln!("{opath}: ok ({samples} samples)");
            } else {
                failed = true;
                for p in &problems {
                    eprintln!("{opath}: {p}");
                }
            }
        }
    }
    std::process::exit(i32::from(failed));
}

/// Entries of the most recent run recorded in a BENCH document.
fn last_run_entries(doc: &Json) -> Option<&[Json]> {
    doc.get("runs")?.as_arr()?.last()?.get("entries")?.as_arr()
}

/// Pull `(name, metric)` pairs out of a run's entry list.
fn run_metrics(entries: &[Json], metric: &str) -> Vec<(String, f64)> {
    entries
        .iter()
        .filter_map(|e| Some((e.get("name")?.as_str()?.to_string(), e.get(metric)?.as_f64()?)))
        .collect()
}

/// A memory-bound kernel whose timing is bimodal on a shared host (see
/// [`gate_pass`]): its own ratio is printed beside the drift estimate, and
/// it is never failed.
const GATE_REFERENCE: &str = "xor_into_4k";
/// A kernel more than 30% slower than baseline (normalized) fails.
const GATE_THRESHOLD: f64 = 1.30;

/// Whole re-measurements `--gate` allows itself before failing. A shared
/// host slows down for longer than any one entry's rounds, and then the
/// reference and the kernel it normalises are timed under different
/// conditions. A kernel that really regressed is slow against the
/// reference of every pass, so an entry is judged by its best pass.
const GATE_PASSES: usize = 3;

/// One kernel's timing in one gate pass.
struct GateRow {
    name: String,
    base_ns: f64,
    cur_ns: f64,
    /// `cur_ns / base_ns` with the pass's host drift divided out.
    norm: f64,
}

/// `--gate`: re-time the kernels ([`GATE_ROUNDS`]) and fail if any
/// regressed more than [`GATE_THRESHOLD`] against the last committed run,
/// after normalising out the host drift ([`gate_pass`]), in each of up to
/// [`GATE_PASSES`] passes.
fn run_gate(out_dir: &str) -> ! {
    let kpath = format!("{out_dir}/{KERNELS_FILE}");
    let Some(kdoc) = load_doc(&kpath) else {
        eprintln!("gate: {kpath} missing; nothing to compare against");
        std::process::exit(1);
    };
    let baseline = last_run_entries(&kdoc).map_or_else(Vec::new, |e| run_metrics(e, "ns_per_iter"));
    if baseline.is_empty() {
        eprintln!("gate: {kpath} has no recorded runs");
        std::process::exit(1);
    }
    eprintln!("perfbench: gate — kernels vs committed baseline ...");
    let mut best: Vec<GateRow> = Vec::new();
    for pass in 1..=GATE_PASSES {
        for row in gate_pass(&run_metrics(&bench_kernels(GATE_ROUNDS), "ns_per_iter"), &baseline) {
            match best.iter_mut().find(|b| b.name == row.name) {
                Some(b) if b.norm <= row.norm => {}
                Some(b) => *b = row,
                None => best.push(row),
            }
        }
        let over = best.iter().filter(|b| b.norm > GATE_THRESHOLD).count();
        if over == 0 || pass == GATE_PASSES {
            break;
        }
        eprintln!("gate: {over} over threshold after pass {pass} — re-measuring");
    }
    let mut failed = false;
    for GateRow { name, base_ns: base, cur_ns: cur, norm } in &best {
        let verdict = if name == GATE_REFERENCE {
            "ref"
        } else if *norm > GATE_THRESHOLD {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        eprintln!(
            "  {name:<26} {base:9.1} -> {cur:9.1} ns/iter  raw {:+6.1}%  norm {:+6.1}%  {verdict}",
            (cur / base - 1.0) * 100.0,
            (norm - 1.0) * 100.0
        );
    }
    if failed {
        eprintln!(
            "gate: FAIL — kernel regression beyond {:.0}% after host normalisation",
            (GATE_THRESHOLD - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("gate: ok");
    std::process::exit(0);
}

/// Normalise one pass of timings by that pass's host drift: the median of
/// its raw `cur / base` ratios, [`GATE_REFERENCE`] included. A slower host
/// moves every ratio and a regression moves a few, while any one kernel —
/// the reference reads 46–52 ns in [`GATE_ROUNDS`] and 56–78 ns in the
/// [`FULL_ROUNDS`] a label is recorded with — can sit off on its own.
/// Kernels without a baseline are reported and take no part.
fn gate_pass(current: &[(String, f64)], baseline: &[(String, f64)]) -> Vec<GateRow> {
    let mut rows = Vec::new();
    for (name, cur) in current {
        match baseline.iter().find(|(n, _)| n == name) {
            Some(&(_, base)) if base > 0.0 => {
                rows.push(GateRow {
                    name: name.clone(),
                    base_ns: base,
                    cur_ns: *cur,
                    norm: cur / base,
                });
            }
            Some(_) => {}
            None => eprintln!("  {name:<26} (new kernel; no baseline)"),
        }
    }
    let mut raw: Vec<f64> = rows.iter().map(|r| r.norm).collect();
    raw.sort_by(f64::total_cmp);
    let drift = match raw.len() {
        0 => 1.0,
        n => (raw[(n - 1) / 2] + raw[n / 2]) / 2.0,
    };
    let reference = rows.iter().find(|r| r.name == GATE_REFERENCE).map_or(f64::NAN, |r| r.norm);
    eprintln!(
        "gate: host drift x{drift:.3} (median of {} raw ratios; {GATE_REFERENCE} alone x{reference:.3})",
        raw.len()
    );
    for row in &mut rows {
        row.norm /= drift;
    }
    rows
}

fn main() {
    let opts = parse_opts();
    if opts.validate {
        validate_files(&opts.out_dir);
    }
    if opts.gate {
        run_gate(&opts.out_dir);
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir);
        std::process::exit(1);
    }
    let mode = if opts.smoke { "smoke" } else { "full" };
    eprintln!("perfbench: kernels ({mode}) ...");
    let kernel_entries = bench_kernels(if opts.smoke { SMOKE_ROUNDS } else { FULL_ROUNDS });
    let kpath = format!("{}/{KERNELS_FILE}", opts.out_dir);
    write_kernels_doc(&kpath, &opts.label, mode, kernel_entries);
    eprintln!("perfbench: obs snapshot ...");
    emit_obs_snapshot(&format!("{}/{OBS_FILE}", opts.out_dir));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One gate pass over kernels `k0..`, baseline 100 ns each, re-timed at
    /// `100 * ratios[i]`; returns the names the pass puts over threshold.
    fn over_threshold(reference: f64, ratios: &[f64]) -> Vec<String> {
        let mut baseline = vec![(GATE_REFERENCE.to_string(), 50.0)];
        let mut current = vec![(GATE_REFERENCE.to_string(), 50.0 * reference)];
        for (i, ratio) in ratios.iter().enumerate() {
            baseline.push((format!("k{i}"), 100.0));
            current.push((format!("k{i}"), 100.0 * ratio));
        }
        current.push(("k_new".to_string(), 1e9)); // no baseline: takes no part
        let rows = gate_pass(&current, &baseline);
        assert_eq!(rows.len(), ratios.len() + 1);
        rows.into_iter().filter(|r| r.norm > GATE_THRESHOLD).map(|r| r.name).collect()
    }

    #[test]
    fn gate_drift_is_the_median_ratio_not_one_kernel() {
        // The whole host 40 % slower: nothing regressed.
        assert!(over_threshold(1.4, &[1.4; 8]).is_empty());
        // One kernel 60 % slower among unchanged ones: that one fails.
        let mut ratios = [1.0; 8];
        ratios[3] = 1.6;
        assert_eq!(over_threshold(1.0, &ratios), ["k3"]);
        // The reference alone reads fast (5 ms rounds against a label's
        // 20 ms rounds): dividing by it put every other kernel at +43 %.
        assert!(over_threshold(0.7, &[1.0; 8]).is_empty());
    }
}
