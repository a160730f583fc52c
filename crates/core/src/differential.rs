//! The two copies of §III side by side: [`KddPolicy`], which Figures 4–8
//! come from, and [`KddEngine`], which every crash test, `OBS_engine.json`
//! and the `benchmark/` numbers come from. Both are built from one
//! [`KddConfig`] and one [`Layout`] and fed every page op of a trace: the
//! engine single `read`/`write` calls with page contents from a
//! [`PageMutator`] (as the engine replay makes them), the policy the same
//! ops with each write hit's delta size replayed from the engine's exact
//! compressed length. After every op the copies' [`CacheStats`] and the
//! state they share in [`Zones`] are compared.
//!
//! This is a ratchet, not an equality test: each rig pins the first op at
//! which the copies part and the [`Divergence`] that explains it, apart
//! from that the first op at which `ssd_reads` parts, and both copies'
//! end-of-trace totals. Mirroring a rule in one copy, or fixing a bug,
//! moves a pin later and the totals with it; a parting that no named rule
//! explains fails with the op and both copies' counters.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use crate::cleaner::Zones;
use crate::{KddConfig, KddEngine, KddPolicy};
use kdd_blockdev::ssd::SsdDevice;
use kdd_cache::policies::{CachePolicy, RaidModel};
use kdd_cache::setassoc::{CacheGeometry, PageState};
use kdd_cache::stats::CacheStats;
use kdd_delta::content::PageMutator;
use kdd_delta::model::DeltaSizeModel;
use kdd_raid::array::RaidArray;
use kdd_raid::layout::{Layout, RaidLevel};
use kdd_trace::record::Op;
use kdd_trace::synth::PaperTrace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const PAGE: u32 = 4096;

/// Where the copies part, one rule each. A parting is named by the first
/// rule, in this order, whose condition held at the op where it happened.
///
/// The pins below, over single `write`s and exact delta lengths on RAID-5 ×
/// 5 with 16-page chunks, with both copies' counters at the end of the
/// trace (engine / policy; no flush), all asserted by the rig's test:
///
/// | rig (seed) | page ops | first op apart (engine delta) | `ssd_reads` apart | hit ratio | DEZ page writes | parity updates | `ssd_reads` |
/// |---|---|---|---|---|---|---|---|
/// | Fin1 ÷ 100, 256 pages × 16-way (5) | 69 670 | 128 (4 086 B) | 18 | 0.366 / 0.397 | 17 423 / 21 702 | 2 489 / 1 224 | 4 976 / 22 112 |
/// | Fin2 ÷ 100, same rig (6) | 44 790 | 86 (4 097 B) | 59 | 0.498 / 0.518 | 3 544 / 3 855 | 376 / 232 | 18 274 / 37 109 |
/// | Hm0 ÷ 100, same rig (7) | 88 720 | 11 (4 097 B) | 14 | 0.448 / 0.475 | 22 275 / 28 653 | 3 833 / 1 655 | 11 151 / 37 806 |
/// | Web0 ÷ 100, same rig (8) | 77 610 | 16 (4 097 B) | 49 | 0.321 / 0.344 | 14 920 / 16 913 | 823 / 1 018 | 6 968 / 19 177 |
/// | Fin1 ÷ 50, 2 048 pages × 64-way (42) | 139 340 | 40 (4 097 B) | 33 | 0.537 / 0.566 | 49 844 / 63 166 | 5 168 / 1 601 | 15 244 / 61 245 |
///
/// Every first parting is [`Divergence::IncompressibleDelta`]: a page's
/// delta against its cached old version grows with each rewrite until it
/// no longer fits. The policy stages the 4 086-B delta; a 4 097-B one (the
/// codec's raw form) fits no staging buffer, so the policy commits its
/// buffer before it writes through, where the engine writes through at
/// once. `ssd_meta_writes` and `cleanings` never part first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Divergence {
    /// The engine writes a hit through at once when its delta cannot share
    /// a DEZ page with a 2-byte page header and a 12-byte directory record;
    /// the policy stages any delta its staging buffer holds, committing the
    /// buffer first when it must, and writes through only one it never can.
    IncompressibleDelta,
    /// A write-through on a stale row is the array's reconstruct-write in
    /// the engine (3r+2w on RAID-5 × 5); the policy charges
    /// `small_write_effects`, a read-modify-write (2r+2w).
    StaleRowWriteThrough,
    /// On a write hit that cannot stage its delta, the engine detaches the
    /// page, writes through, reclaims, refills and cleans the row (or, when
    /// the commit evicted the page itself, finishes as a write miss); the
    /// policy sets the page `Clean` and charges one write-through.
    WriteHitFallback,
    /// The engine cleans a pending row before a write miss to it; the
    /// policy charges `small_write_effects` only.
    WriteMissCleansRow,
    /// The engine's commit spills into more DEZ pages than the policy's
    /// one: its `DEZ_PAGE_OVERHEAD` is a 2-byte header and a 12-byte
    /// record per delta, the policy's none.
    CommitSpill,
    /// With no slot free, the policy's `alloc_dez_slot` compacts the DEZ
    /// before it evicts a clean page; the engine evicts at once.
    AllocCompactsFirst,
    /// A NoRoom reclaim cleans its set's first row in the pending map's
    /// hash order, not the oldest. Both copies do so, but a map with the
    /// same rows and another history can iterate them in another order.
    NoRoomHashOrder,
    /// `ssd_reads` counts read hits in the engine and flash pages read in
    /// the policy: base plus DEZ page on an `Old` hit, and the cleaner's
    /// reconstruct, DEZ and merge reads. It has its own pin.
    SsdReadsMeaning,
}

/// One copy's compared state after an op, `ssd_reads` aside.
#[derive(Debug, PartialEq, Eq)]
struct View {
    stats: CacheStats,
    pending_rows: usize,
    oldest_row: Option<u64>,
    /// Slots per state: free, clean, old, delta.
    states: [usize; 4],
    dez_pages: u64,
    /// `MergeBound`: loop entries, scans skipped, merges planned.
    merges: [u32; 3],
}

impl View {
    fn of(z: &mut Zones) -> View {
        let states = [PageState::Free, PageState::Clean, PageState::Old, PageState::Delta]
            .map(|s| z.cache.count_state(s));
        let bound = z.dez.bound();
        View {
            stats: CacheStats { ssd_reads: 0, ..z.stats },
            pending_rows: z.pending.pending_rows(),
            oldest_row: z.pending.oldest_row(),
            states,
            dez_pages: z.dez.len(),
            merges: [bound.entries, bound.skips, bound.merges],
        }
    }
}

/// What one copy met at an op, read before it and from its counters after.
#[derive(Debug, Clone, Copy)]
struct Seen {
    /// The page was cached.
    hit: bool,
    /// Its row had pending pages.
    row_pending: bool,
    /// Its set held no free and no clean slot: a fill there is NoRoom.
    set_full: bool,
    /// No slot was free anywhere: a DEZ allocation must evict or compact.
    no_free_slot: bool,
    /// The op counted as a write hit.
    write_hit: bool,
    /// A write hit that wrote its page through to the array and the SSD.
    through: bool,
    /// DEZ pages a commit wrote during the op, and merges planned.
    committed: u64,
    merges: u32,
}

impl Seen {
    fn before(z: &Zones, lba: u64) -> Seen {
        // A set's slots are contiguous.
        let ways = z.config.geometry.ways;
        let first = z.cache.set_of_lba(lba) as u32 * ways;
        let set_full = (first..first + ways)
            .all(|slot| !matches!(z.cache.state(slot), PageState::Free | PageState::Clean));
        Seen {
            hit: z.cache.lookup(lba).is_some(),
            row_pending: z.pending.contains_row(z.layout.row_of(lba)),
            set_full,
            no_free_slot: z.cache.free_slots() == 0,
            write_hit: false,
            through: false,
            committed: 0,
            merges: 0,
        }
    }

    /// Complete with what the op changed since `was`.
    fn after(mut self, was: &View, now: &View) -> Seen {
        let (a, b) = (&was.stats, &now.stats);
        self.write_hit = b.write_hits > a.write_hits;
        self.through = self.write_hit && b.ssd_data_writes > a.ssd_data_writes;
        self.merges = now.merges[2] - was.merges[2];
        // A merge writes one DEZ page.
        self.committed = b.ssd_delta_writes - a.ssd_delta_writes - u64::from(self.merges);
        self
    }
}

impl Divergence {
    /// The rule that explains a parting at an op, from what the engine
    /// (`e`) and the policy (`p`) met there. `comp_len` is the engine's
    /// delta on a write hit; `stale` whether the op's row had stale parity.
    fn name(write: bool, comp_len: Option<usize>, stale: bool, e: Seen, p: Seen) -> Option<Self> {
        let incompressible = comp_len.is_some_and(|len| len + 14 > PAGE as usize);
        let commit = e.committed > 0 || p.committed > 0;
        let rules = [
            // The policy staged the delta, or committed its buffer first.
            (
                Divergence::IncompressibleDelta,
                incompressible && (!p.through || p.committed > e.committed),
            ),
            (Divergence::StaleRowWriteThrough, e.through && p.through && stale),
            (
                Divergence::WriteHitFallback,
                write && e.hit && p.hit && (e.through || p.through || !e.write_hit),
            ),
            (Divergence::WriteMissCleansRow, write && !e.hit && e.row_pending),
            (Divergence::CommitSpill, e.committed > p.committed),
            (
                Divergence::AllocCompactsFirst,
                commit && (e.no_free_slot || p.no_free_slot) && e.merges != p.merges,
            ),
            (Divergence::NoRoomHashOrder, !(e.hit && p.hit) && (e.set_full || p.set_full)),
        ];
        rules.into_iter().find_map(|(rule, held)| held.then_some(rule))
    }
}

/// A delta-size model that answers with the engine's last compressed
/// length: the op's own while the copies agree on which ops hit.
struct Replayed(Arc<AtomicU32>);

impl DeltaSizeModel for Replayed {
    fn delta_size(&mut self, _page_size: u32) -> u32 {
        self.0.load(Ordering::Relaxed)
    }

    fn mean_ratio(&self) -> f64 {
        0.25
    }
}

/// A trace and the cache it replays through.
struct Rig {
    trace: PaperTrace,
    scale: u64,
    seed: u64,
    cache_pages: u64,
    ways: u32,
    disk_pages: u64,
}

/// What a replay found: the first op (1-based) where the copies part and
/// its rule, the first where `ssd_reads` parts, and the engine's and the
/// policy's [`Totals`] at the end.
#[derive(Default)]
struct Parting {
    apart: Option<(u64, Divergence)>,
    ssd_reads_apart: Option<(u64, Divergence)>,
    totals: [Totals; 2],
}

/// One copy's end-of-trace columns of the [`Divergence`] table: hit ratio
/// (as printed), DEZ page writes, parity updates, `ssd_reads`.
type Totals = (String, u64, u64, u64);

fn totals(s: &CacheStats) -> Totals {
    (format!("{:.3}", s.hit_ratio()), s.ssd_delta_writes, s.parity_updates, s.ssd_reads)
}

fn replay(rig: &Rig) -> Parting {
    let layout = Layout::new(RaidLevel::Raid5, 5, 16, rig.disk_pages);
    let geometry = CacheGeometry { total_pages: rig.cache_pages, ways: rig.ways, page_size: PAGE };
    let config = KddConfig::new(geometry);
    let ssd_bytes = (rig.cache_pages + 64) * u64::from(PAGE);
    let ssd = SsdDevice::with_logical_capacity(ssd_bytes, PAGE, 0.25);
    let mut engine = KddEngine::new(config, ssd, RaidArray::new(layout, PAGE)).unwrap();
    let delta_len = Arc::new(AtomicU32::new(PAGE / 4));
    let model = Box::new(Replayed(Arc::clone(&delta_len)));
    let mut policy = KddPolicy::new(config, RaidModel { layout }, model);

    let trace = rig.trace.generate_scaled(rig.scale, rig.seed);
    let capacity = layout.capacity_pages();
    let mut mutator = PageMutator::new(PAGE as usize, 0.15, 64, rig.seed ^ 0x9e37);
    let mut versions: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut parting = Parting::default();
    let mut views = (View::of(&mut engine.z), View::of(&mut policy.z));
    let mut op = 0;
    for rec in &trace.records {
        for page in rec.pages() {
            op += 1;
            let lba = page % capacity;
            let comparing = parting.apart.is_none();
            let seen = comparing.then(|| {
                let stale = engine.raid().is_stale(layout.row_of(lba));
                (Seen::before(&engine.z, lba), Seen::before(&policy.z, lba), stale)
            });
            let comp_len = match rec.op {
                Op::Read => {
                    engine.read(lba).unwrap();
                    None
                }
                Op::Write => {
                    let next = match versions.get(&lba) {
                        Some(prev) => mutator.mutate(prev),
                        None => mutator.initial_page(),
                    };
                    let len = engine.write_served(lba, &next).unwrap().comp_len;
                    versions.insert(lba, next);
                    if len > 0 {
                        delta_len.store(len as u32, Ordering::Relaxed);
                    }
                    (len > 0).then_some(len)
                }
            };
            policy.access(rec.op, lba);
            let (es, ps) = (&engine.z.stats, &policy.z.stats);
            if parting.ssd_reads_apart.is_none() && es.ssd_reads != ps.ssd_reads {
                // The engine counts one per read hit.
                assert_eq!(
                    es.ssd_reads, es.read_hits,
                    "{:?} op {op}: ssd_reads part and no rule explains it\nengine {es:#?}\n\
                     policy {ps:#?}",
                    rig.trace
                );
                parting.ssd_reads_apart = Some((op, Divergence::SsdReadsMeaning));
            }
            let Some((e, p, stale)) = seen else { continue };
            let now = (View::of(&mut engine.z), View::of(&mut policy.z));
            if now.0 != now.1 {
                let (e, p) = (e.after(&views.0, &now.0), p.after(&views.1, &now.1));
                let write = rec.op == Op::Write;
                let Some(rule) = Divergence::name(write, comp_len, stale, e, p) else {
                    panic!(
                        "{:?} op {op} ({:?} lba {lba}): the copies part and no rule explains \
                         it\nengine {:#?}\npolicy {:#?}\nseen: engine {e:?}, policy {p:?}, \
                         engine delta {comp_len:?}",
                        rig.trace, rec.op, now.0, now.1
                    );
                };
                parting.apart = Some((op, rule));
                println!(
                    "{:?} ÷{}: op {op} ({:?} lba {lba}, engine delta {comp_len:?} B) parts as \
                     {rule:?}",
                    rig.trace, rig.scale, rec.op
                );
            }
            views = now;
        }
    }
    println!(
        "{:?} ÷{} (seed {}), {op} page ops: apart at {:?}, ssd_reads apart at op {:?}",
        rig.trace, rig.scale, rig.seed, parting.apart, parting.ssd_reads_apart
    );
    parting.totals = [totals(&engine.z.stats), totals(&policy.z.stats)];
    for (who, (hit_ratio, dez, parity, reads)) in ["engine", "policy"].iter().zip(&parting.totals) {
        println!(
            "  {who:6} hit ratio {hit_ratio}, DEZ page writes {dez}, parity updates {parity}, \
             ssd_reads {reads}"
        );
    }
    parting
}

/// The repro-scale rig: a 256-page 16-way cache over 1 024 pages a member.
fn repro_rig(trace: PaperTrace, seed: u64) -> Rig {
    Rig { trace, scale: 100, seed, cache_pages: 256, ways: 16, disk_pages: 16 * 64 }
}

/// A copy's [`Totals`] as the table prints them.
type Want = (&'static str, u64, u64, u64);

/// Replay `rig` and hold it to its pins and the engine's and the policy's
/// totals.
fn ratchet(rig: Rig, apart: (u64, Divergence), ssd_reads_apart: u64, totals: [Want; 2]) {
    let parting = replay(&rig);
    assert_eq!(parting.apart, Some(apart), "{:?}: where the copies part moved", rig.trace);
    assert_eq!(
        parting.ssd_reads_apart,
        Some((ssd_reads_apart, Divergence::SsdReadsMeaning)),
        "{:?}: where ssd_reads parts moved",
        rig.trace
    );
    let got =
        parting.totals.each_ref().map(|(h, dez, parity, reads)| (&**h, *dez, *parity, *reads));
    assert_eq!(got, totals, "{:?}: the end-of-trace totals (engine, policy) moved", rig.trace);
}

#[test]
fn fin1_repro_scale() {
    let totals = [("0.366", 17_423, 2_489, 4_976), ("0.397", 21_702, 1_224, 22_112)];
    ratchet(repro_rig(PaperTrace::Fin1, 5), (128, Divergence::IncompressibleDelta), 18, totals);
}

#[test]
fn fin2_repro_scale() {
    let totals = [("0.498", 3_544, 376, 18_274), ("0.518", 3_855, 232, 37_109)];
    ratchet(repro_rig(PaperTrace::Fin2, 6), (86, Divergence::IncompressibleDelta), 59, totals);
}

#[test]
fn hm0_repro_scale() {
    let totals = [("0.448", 22_275, 3_833, 11_151), ("0.475", 28_653, 1_655, 37_806)];
    ratchet(repro_rig(PaperTrace::Hm0, 7), (11, Divergence::IncompressibleDelta), 14, totals);
}

#[test]
fn web0_repro_scale() {
    let totals = [("0.321", 14_920, 823, 6_968), ("0.344", 16_913, 1_018, 19_177)];
    ratchet(repro_rig(PaperTrace::Web0, 8), (16, Divergence::IncompressibleDelta), 49, totals);
}

/// The benchmark's `fin1_write_heavy` rig: a 2 048-page 64-way cache over
/// 16 384 pages a member, Fin1 ÷ 50.
#[test]
fn fin1_benchmark_rig() {
    let rig = Rig {
        trace: PaperTrace::Fin1,
        scale: 50,
        seed: 42,
        cache_pages: 2048,
        ways: 64,
        disk_pages: 65_536 / 4,
    };
    let totals = [("0.537", 49_844, 5_168, 15_244), ("0.566", 63_166, 1_601, 61_245)];
    ratchet(rig, (40, Divergence::IncompressibleDelta), 33, totals);
}
