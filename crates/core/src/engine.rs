//! The prototype-style KDD engine: real bytes, real devices, real
//! recovery.
//!
//! Where [`crate::policy::KddPolicy`] *counts* I/O for the trace
//! simulations, `KddEngine` *performs* it, playing the role of the
//! paper's kernel prototype (Linux MD + EnhanceIO, §IV-B1):
//!
//! * data lives on a [`RaidArray`] of in-memory member disks;
//! * the cache lives on an [`SsdDevice`] with a page-mapped FTL, so every
//!   write ages real wear counters;
//! * write hits compute a genuine XOR delta against the cached page,
//!   compress it with [`kdd_delta::codec`], stage it in NVRAM and pack it
//!   into DEZ pages behind an `(lba, off, len)` directory;
//! * the metadata log serialises real entries into the metadata partition
//!   at the front of the SSD (Figure 2's layout), and power-failure
//!   recovery *re-reads those pages from flash* to rebuild the primary
//!   map (§III-E1);
//! * SSD failure recovers by RAID resync; HDD failure by
//!   parity-update-then-rebuild (§III-E2).
//!
//! Operations return the simulated device time they consumed (flash times
//! from the FTL model; member-disk operations charged a flat 8 ms random
//! access — the engine measures correctness and relative cost, the
//! discrete-event simulator in `kdd-sim` owns precise timing).

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::cleaner::{self, CleanerIo, Done, Refs, Zones};
use crate::config::KddConfig;
use crate::dez::DeltaLoc;
use crate::metalog::{CommitBatch, LogEntry, MetaLog, PartitionTooSmall};
use crate::staging::{PayloadPool, StagingBuffer};
use kdd_blockdev::error::{DevError, FaultDomain};
use kdd_blockdev::fault::FaultInjector;
use kdd_blockdev::ssd::SsdDevice;
use kdd_cache::policies::{set_of_row, PendingRows};
use kdd_cache::setassoc::{PageState, SetAssocCache, SetGrouping};
use kdd_cache::stats::CacheStats;
use kdd_delta::codec;
use kdd_delta::xor::xor_pages_into;
use kdd_obs::{Completion, HitClass, Recorder, ReqKind, Sample, Stage, StageTimes};
use kdd_raid::array::{RaidArray, RaidCost, RaidError};
use kdd_util::hash::{crc32_update, FastMap};
use kdd_util::units::SimTime;
use kdd_util::PagePool;

pub use crate::dez::DeltaRef;

/// Flat service time charged per member-disk operation.
const DISK_OP: SimTime = SimTime(8_000_000);

/// Engine-level errors.
#[derive(Debug)]
pub enum EngineError {
    /// SSD-side failure.
    Dev(DevError),
    /// RAID-side failure.
    Raid(RaidError),
    /// Delta decode failure (corrupt DEZ page).
    Codec(codec::CompressError),
    /// Layout problem (SSD too small, corrupt metadata page).
    Layout(String),
    /// Internal bookkeeping contradicted itself (a bug, surfaced as an
    /// error instead of a panic so the engine can fail one request and
    /// keep serving the rest of the array).
    Inconsistent(&'static str),
}

impl From<DevError> for EngineError {
    fn from(e: DevError) -> Self {
        EngineError::Dev(e)
    }
}

impl From<RaidError> for EngineError {
    fn from(e: RaidError) -> Self {
        EngineError::Raid(e)
    }
}

impl From<codec::CompressError> for EngineError {
    fn from(e: codec::CompressError) -> Self {
        EngineError::Codec(e)
    }
}

impl From<PartitionTooSmall> for EngineError {
    fn from(e: PartitionTooSmall) -> Self {
        EngineError::Layout(e.to_string())
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Dev(e) => write!(f, "ssd: {e}"),
            EngineError::Raid(e) => write!(f, "raid: {e}"),
            EngineError::Codec(e) => write!(f, "delta codec: {e}"),
            EngineError::Layout(s) => write!(f, "layout: {s}"),
            EngineError::Inconsistent(s) => write!(f, "internal inconsistency: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Entry state on flash (Figure 3's `state` field, persisted subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Data cached, parity consistent.
    Clean,
    /// Data cached with a pending delta.
    Old,
    /// Mapping removed (tombstone).
    Free,
}

/// One persistent mapping entry (Figure 3's fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MapEntry {
    /// RAID address of the cached page (`lba_raid`, the coalescing key).
    lba_raid: u64,
    /// Cache slot (`lba_daz` analogue) holding the data.
    slot: u32,
    /// Recorded page state.
    state: EntryState,
    /// `(lba_dez, off, len)` for *old* pages whose delta is committed.
    dez: Option<DeltaRef>,
}

impl LogEntry for MapEntry {
    fn key(&self) -> u64 {
        self.lba_raid
    }

    fn is_tombstone(&self) -> bool {
        self.state == EntryState::Free
    }
}

/// Serialised entry size on flash.
const ENTRY_BYTES: usize = 22;

/// Metadata page header: `[count: u16][seq: u64][crc: u32]`. The CRC
/// covers the whole page except its own field, so a torn or corrupt log
/// page is detected during the recovery scan rather than silently decoded.
const META_HDR: usize = 14;

/// The largest page whose DEZ directory can address every byte: a delta's
/// `off` and `len` are `u16`s ([`DeltaRef`] and the page's directory).
const DEZ_MAX_PAGE: usize = 1 << 16;

/// CRC-32 of a metadata page, skipping the CRC field itself.
fn meta_page_crc(page: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &page[..10]), &page[META_HDR..])
}

/// Fold logged `entries`, oldest first, into the mapping they describe: a
/// tombstone removes its key, anything else (re)places it.
fn replay(map: &mut FastMap<u64, MapEntry>, entries: Vec<MapEntry>) {
    for e in entries {
        if e.is_tombstone() {
            map.remove(&e.key());
        } else {
            map.insert(e.key(), e);
        }
    }
}

/// How the engine is currently serving I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Caching through the SSD (the normal KDD path).
    Normal,
    /// The SSD suffered a persistent fault and has no working replacement:
    /// requests pass straight through to the RAID array.
    PassThrough,
}

impl MapEntry {
    fn encode(self) -> [u8; ENTRY_BYTES] {
        let mut b = [0u8; ENTRY_BYTES];
        b[..8].copy_from_slice(&self.lba_raid.to_le_bytes());
        b[8..12].copy_from_slice(&self.slot.to_le_bytes());
        b[12] = match self.state {
            EntryState::Clean => 1,
            EntryState::Old => 2,
            EntryState::Free => 3,
        };
        if let Some(d) = self.dez {
            b[13] = 1;
            b[14..18].copy_from_slice(&d.slot.to_le_bytes());
            b[18..20].copy_from_slice(&d.off.to_le_bytes());
            b[20..22].copy_from_slice(&d.len.to_le_bytes());
        }
        b
    }

    fn decode(b: &[u8]) -> Option<MapEntry> {
        if b.len() < ENTRY_BYTES {
            return None;
        }
        let lba_raid = le_u64(b, 0)?;
        let slot = le_u32(b, 8)?;
        let state = match b.get(12)? {
            1 => EntryState::Clean,
            2 => EntryState::Old,
            3 => EntryState::Free,
            _ => return None,
        };
        let dez = if *b.get(13)? == 1 {
            Some(DeltaRef { slot: le_u32(b, 14)?, off: le_u16(b, 18)?, len: le_u16(b, 20)? })
        } else {
            None
        };
        Some(MapEntry { lba_raid, slot, state, dez })
    }
}

/// Panic-free little-endian field readers for on-flash structures: a short
/// or misaligned page yields `None` (treated as corruption by callers)
/// instead of an indexing panic on the recovery path.
fn le_u64(b: &[u8], at: usize) -> Option<u64> {
    b.get(at..at.checked_add(8)?).and_then(|s| <[u8; 8]>::try_from(s).ok()).map(u64::from_le_bytes)
}

fn le_u32(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at.checked_add(4)?).and_then(|s| <[u8; 4]>::try_from(s).ok()).map(u32::from_le_bytes)
}

fn le_u16(b: &[u8], at: usize) -> Option<u16> {
    b.get(at..at.checked_add(2)?).and_then(|s| <[u8; 2]>::try_from(s).ok()).map(u16::from_le_bytes)
}

/// Vectors the commit, compaction and cleaning paths borrow
/// (`mem::take`, fill, put back empty) instead of allocating per call.
#[derive(Default)]
struct Scratch {
    entries: Vec<MapEntry>,
    /// Pooled pages: a row's current data, and `(data index, delta)` pairs.
    row_pages: Vec<Box<[u8]>>,
    deltas: Vec<(usize, Box<[u8]>)>,
}

/// One logical page write inside a batched submission
/// ([`KddEngine::write_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct WriteRequest<'a> {
    /// Target RAID address.
    pub lba: u64,
    /// Page-sized payload.
    pub data: &'a [u8],
}

/// The prototype-style engine.
pub struct KddEngine {
    /// The directory, DEZ index, pending rows, counters and configuration.
    pub(crate) z: Zones,
    ssd: SsdDevice,
    raid: RaidArray,
    /// The NVRAM staging buffer: with the metadata log's buffer and
    /// head/tail counters, what [`KddEngine::power_cycle`] carries over.
    staging: StagingBuffer<Vec<u8>>,
    metalog: MetaLog<MapEntry>,
    meta_pages: u64,
    injector: Option<FaultInjector>,
    mode: EngineMode,
    pool: PagePool,
    recorder: Recorder,
    last_class: HitClass,
    /// The compressed delta length of the last write, if it was a hit.
    pub(crate) last_comp_len: usize,
    /// Persistent delta compressor: the match-finder scratch is reused
    /// across write hits, and the compressed payload lands in a buffer of
    /// `payloads`, so the compress path allocates nothing.
    codec: codec::Compressor,
    payloads: PayloadPool,
    scratch: Scratch,
    /// Where an LZ-coded delta is decoded before it is folded into a page
    /// ([`codec::xor_decoded_into`]); reused across requests.
    decode_scratch: Vec<u8>,
    /// While true (inside [`KddEngine::write_batch`]), metalog page
    /// commits accumulate in `meta_pending` instead of being persisted
    /// per-entry; the NVRAM inflight copies keep them crash-safe until
    /// the group flush confirms them.
    meta_defer: bool,
    meta_pending: Vec<CommitBatch<MapEntry>>,
    /// The completion times [`KddEngine::write_batch`] lends out.
    batch_times: Vec<SimTime>,
    /// Stage-time accumulator for the request currently being dispatched
    /// (`kdd-obs/v2` latency attribution). Reset at the start of every
    /// dispatch attempt so retries report only the acknowledged attempt,
    /// keeping the conservation invariant (stage sum ≤ service time);
    /// background work (cleaner, flush, recovery) swaps it out and
    /// reports through its own span.
    cur_stages: StageTimes,
}

impl KddEngine {
    /// Build an engine: the SSD's first `meta_partition_pages` form the
    /// metadata partition, the rest back the cache slots (Figure 2).
    pub fn new(config: KddConfig, ssd: SsdDevice, raid: RaidArray) -> Result<Self, EngineError> {
        let geometry = config.geometry;
        let ps = geometry.page_size as usize;
        if ps < META_HDR + ENTRY_BYTES {
            return Err(EngineError::Layout(format!(
                "{ps}-byte pages are too small for the metadata log: a log page is a \
                 {META_HDR}-byte header plus at least one {ENTRY_BYTES}-byte mapping entry"
            )));
        }
        if ps > DEZ_MAX_PAGE {
            return Err(EngineError::Layout(format!(
                "{ps}-byte pages are too large for the DEZ: a delta's offset and length in \
                 a DEZ page are 16-bit, so pages hold at most {DEZ_MAX_PAGE} bytes"
            )));
        }
        if geometry.ways == 0 || u64::from(geometry.ways) > geometry.total_pages {
            return Err(EngineError::Layout(format!(
                "{} ways cannot divide a cache of {} pages into sets",
                geometry.ways, geometry.total_pages
            )));
        }
        // The directory rounds to whole sets, so it can hold fewer slots
        // than `total_pages` — never more.
        let meta_pages = config.meta_partition_pages();
        let slots = geometry.sets() as u64 * u64::from(geometry.ways);
        if meta_pages + slots > ssd.capacity_pages() {
            return Err(EngineError::Layout(format!(
                "SSD has {} pages; need {} (meta {meta_pages} + cache {slots})",
                ssd.capacity_pages(),
                meta_pages + slots
            )));
        }
        if geometry.page_size != ssd.page_size() || geometry.page_size != raid.page_size() {
            return Err(EngineError::Layout("page sizes must match across devices".into()));
        }
        let staging = StagingBuffer::new(geometry.page_size);
        let cache = Self::empty_cache(&config, &raid);
        Ok(Self::assemble(config, ssd, raid, cache, staging, Self::empty_metalog(&config)))
    }

    /// An empty directory whose sets follow `raid`'s parity rows (§III-B).
    fn empty_cache(config: &KddConfig, raid: &RaidArray) -> SetAssocCache {
        SetAssocCache::new_grouped(config.geometry, SetGrouping::parity_rows(raid.layout()))
    }

    /// An empty metadata log over `config`'s partition. Unconfirmed commits
    /// stay in NVRAM so recovery can redo a torn tail page instead of
    /// failing on it.
    fn empty_metalog(config: &KddConfig) -> MetaLog<MapEntry> {
        let entries_per_page = (config.geometry.page_size as usize - META_HDR) / ENTRY_BYTES;
        let mut metalog = MetaLog::new(config.meta_partition_pages(), entries_per_page);
        metalog.enable_inflight_tracking();
        metalog
    }

    /// The one place an engine is put together: around the given devices,
    /// directory, NVRAM and log, every volatile structure starts empty.
    fn assemble(
        config: KddConfig,
        ssd: SsdDevice,
        raid: RaidArray,
        cache: SetAssocCache,
        staging: StagingBuffer<Vec<u8>>,
        metalog: MetaLog<MapEntry>,
    ) -> Self {
        let ps = config.geometry.page_size as usize;
        KddEngine {
            z: Zones::new(config, *raid.layout(), cache),
            staging,
            metalog,
            meta_pages: config.meta_partition_pages(),
            injector: None,
            mode: EngineMode::Normal,
            pool: PagePool::new(ps),
            recorder: Recorder::disabled(),
            last_class: HitClass::ReadMiss,
            last_comp_len: 0,
            codec: codec::Compressor::new(),
            payloads: PayloadPool::new(ps + 1),
            scratch: Scratch::default(),
            decode_scratch: Vec::new(),
            meta_defer: false,
            meta_pending: Vec::new(),
            batch_times: Vec::new(),
            cur_stages: StageTimes::new(),
            ssd,
            raid,
        }
    }

    /// Route every SSD and RAID-member I/O through `injector`, and let the
    /// engine consult it for retry/fallback decisions.
    pub fn attach_fault_injector(&mut self, injector: FaultInjector) {
        self.ssd.attach_injector(injector.clone());
        self.raid.attach_injector(injector.clone());
        self.injector = Some(injector);
    }

    /// Attach an observability recorder. Every acknowledged request is
    /// recorded as a lifecycle span; periodic samples are drawn on the
    /// recorder's simulated-time clock. The default recorder is the
    /// disabled no-op, which the request path skips with one branch.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The attached recorder handle (disabled unless
    /// [`KddEngine::attach_recorder`] was called).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Export the full `kdd-obs/v2` snapshot: totals, per-stage latency
    /// attribution, timeseries, wear histogram and the span ring. `None`
    /// when no recorder is attached.
    pub fn obs_snapshot(&self) -> Option<kdd_obs::Json> {
        let mut wear = kdd_obs::Log2Hist::new();
        for e in self.ssd.erase_counts() {
            wear.observe(u64::from(e));
        }
        let fin = self.sample_now();
        self.recorder.export(&fin, &wear)
    }

    /// Draw one gauge sample from current engine state at the recorder's
    /// simulated clock.
    fn sample_now(&self) -> Sample {
        let end = self.ssd.endurance();
        let (head, tail) = self.metalog.counters();
        Sample {
            at: self.recorder.now(),
            cache: self.z.stats,
            host_written_bytes: end.host_written_bytes,
            nand_written_bytes: end.nand_written_bytes,
            erases: end.erases,
            max_erase: u64::from(end.max_erase_count),
            stale_rows: self.raid.stale_row_count() as u64,
            backlog_rows: self.z.pending.pending_rows() as u64,
            staged_deltas: self.staging.len() as u64,
            metalog_pages_used: tail.saturating_sub(head),
            metalog_pages_total: self.meta_pages,
        }
    }

    /// Finish one acknowledged request: build the completion from the
    /// stats delta, feed the span ring, and draw a sample if one is due.
    fn observe(&mut self, kind: ReqKind, lba: u64, before: &CacheStats, service: SimTime) {
        let class = if self.mode == EngineMode::PassThrough {
            HitClass::PassThrough
        } else {
            self.last_class
        };
        let after = self.z.stats;
        let stages = std::mem::take(&mut self.cur_stages);
        self.observe_span(kind, lba, before, &after, class, self.last_comp_len, service, stages);
    }

    /// Charge `dt` of simulated time to both the caller's clock and the
    /// in-flight span's stage breakdown — the one call every costed
    /// dispatch site makes, so the conservation invariant (stage sum ≤
    /// service time) holds by construction.
    #[inline]
    fn charge_stage(&mut self, stage: Stage, dt: SimTime, t: &mut SimTime) {
        *t += dt;
        self.cur_stages.add(stage, dt);
    }

    /// Run background work (cleaner pass, group-commit flush, failure
    /// recovery) against its own stage accumulator, isolated from any
    /// in-flight request's, and record it — failed or not — as a
    /// first-class span of `stage` on the ring.
    fn background(
        &mut self,
        stage: Stage,
        t: &mut SimTime,
        work: impl FnOnce(&mut Self, &mut SimTime) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let saved = std::mem::take(&mut self.cur_stages);
        let t0 = *t;
        let result = work(self, t);
        let used = std::mem::replace(&mut self.cur_stages, saved);
        let dur = t.saturating_sub(t0);
        if (dur != SimTime::ZERO || !used.is_zero())
            && self.recorder.record_background(stage, dur, used)
        {
            let s = self.sample_now();
            self.recorder.push_sample(s);
        }
        result
    }

    /// Span emission with explicit before/after stats: batched submissions
    /// snapshot both at dispatch time and emit all spans after the group
    /// flush, so each span's counter deltas cover exactly its own request.
    #[allow(clippy::too_many_arguments)]
    fn observe_span(
        &mut self,
        kind: ReqKind,
        lba: u64,
        before: &CacheStats,
        after: &CacheStats,
        class: HitClass,
        comp_len: usize,
        service: SimTime,
        stages: StageTimes,
    ) {
        let d32 = |now: u64, was: u64| u32::try_from(now.saturating_sub(was)).unwrap_or(u32::MAX);
        let mut c = Completion::new(kind, lba, class, service);
        c.stages = stages;
        c.ssd_reads = d32(after.ssd_reads, before.ssd_reads);
        c.ssd_writes = d32(after.ssd_writes_pages(), before.ssd_writes_pages());
        c.raid_reads = d32(after.raid_reads, before.raid_reads);
        c.raid_writes = d32(after.raid_writes, before.raid_writes);
        c.faults = d32(after.faults_observed, before.faults_observed);
        c.retries = d32(after.fault_retries, before.fault_retries);
        if kind == ReqKind::Write {
            c.comp_milli = (comp_len * 1000 / self.page_size()) as u32;
        }
        if self.recorder.record(c) {
            let s = self.sample_now();
            self.recorder.push_sample(s);
        }
    }

    /// Current serving mode (normal caching vs. pass-through after a
    /// persistent SSD fault).
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Cumulative cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.z.stats
    }

    /// The SSD backing the cache (endurance inspection).
    pub fn ssd(&self) -> &SsdDevice {
        &self.ssd
    }

    /// The RAID array underneath (stale-row inspection).
    pub fn raid(&self) -> &RaidArray {
        &self.raid
    }

    /// Mutable RAID access for fault injection in tests and examples.
    pub fn raid_mut(&mut self) -> &mut RaidArray {
        &mut self.raid
    }

    /// Rows with delayed parity.
    pub fn pending_row_count(&self) -> usize {
        self.z.pending.pending_rows()
    }

    /// Deltas currently staged in NVRAM.
    pub fn staged_deltas(&self) -> usize {
        self.staging.len()
    }

    /// `(acquired, recycled)` of the delta payload buffers: the difference
    /// is the buffers ever allocated, constant once the engine is warm.
    pub fn payload_buffer_stats(&self) -> (u64, u64) {
        self.payloads.stats()
    }

    /// Cache-page size in bytes (every request payload must match it).
    pub fn page_size(&self) -> usize {
        self.z.config.geometry.page_size as usize
    }

    #[inline]
    fn slot_lpn(&self, slot: u32) -> u64 {
        self.meta_pages + slot as u64
    }

    // ---- metadata persistence -------------------------------------------

    fn persist_batches(
        &mut self,
        batches: impl IntoIterator<Item = CommitBatch<MapEntry>>,
        t: &mut SimTime,
    ) -> Result<(), EngineError> {
        for batch in batches {
            let mut page = self.pool.acquire();
            page[..2].copy_from_slice(&(batch.entries.len() as u16).to_le_bytes());
            page[2..10].copy_from_slice(&batch.seq.to_le_bytes());
            for (i, e) in batch.entries.iter().enumerate() {
                let off = META_HDR + i * ENTRY_BYTES;
                page[off..off + ENTRY_BYTES].copy_from_slice(&e.encode());
            }
            let crc = meta_page_crc(&page);
            page[10..14].copy_from_slice(&crc.to_le_bytes());
            let dt = self.ssd.write_page(batch.slot, &page)?;
            self.charge_stage(Stage::MetalogCommit, dt, t);
            self.pool.release(page);
            self.z.stats.ssd_meta_writes += 1;
            // Only now is the page durable; recovery no longer needs the
            // NVRAM in-flight copy.
            self.metalog.confirm(batch.seq);
        }
        Ok(())
    }

    /// Persist the page commits parked in `meta_pending` now, or leave them
    /// for the group flush while a batched submission is in flight.
    /// Deferred batches stay crash-safe: their entries live in the
    /// metalog's NVRAM buffer/inflight list until
    /// [`KddEngine::flush_group`] confirms the flash writes.
    fn queue_batches(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        if self.meta_defer {
            return Ok(());
        }
        self.flush_group(t)
    }

    /// Write every parked metalog page to flash — the group-commit flush
    /// ending a batched submission, or at once outside one.
    /// The parking buffer is drained in place and kept, capacity and all.
    fn flush_group(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        let mut pending = std::mem::take(&mut self.meta_pending);
        let done = self.persist_batches(pending.drain(..), t);
        self.meta_pending = pending;
        done
    }

    fn log_entry(&mut self, e: MapEntry, t: &mut SimTime) -> Result<(), EngineError> {
        self.meta_pending.extend(self.metalog.push(e)?);
        self.queue_batches(t)
    }

    /// Log the tombstone of `lba`'s mapping to `slot`.
    fn log_free(&mut self, lba: u64, slot: u32, t: &mut SimTime) -> Result<(), EngineError> {
        self.log_entry(MapEntry { lba_raid: lba, slot, state: EntryState::Free, dez: None }, t)
    }

    /// The mapping of the *old* page `lba` whose delta was committed at `r`.
    fn old_entry(&self, lba: u64, r: DeltaRef) -> Result<MapEntry, EngineError> {
        let slot =
            self.z.cache.lookup(lba).ok_or(EngineError::Inconsistent("old page must be cached"))?;
        Ok(MapEntry { lba_raid: lba, slot, state: EntryState::Old, dez: Some(r) })
    }

    // ---- delta plumbing ---------------------------------------------------

    /// Run `f` over `lba`'s compressed delta where it lies — the NVRAM
    /// staging buffer, or its DEZ page lent by the SSD (one flash read) —
    /// together with the engine's decode scratch.
    fn with_delta<R>(
        &mut self,
        lba: u64,
        t: &mut SimTime,
        f: impl FnOnce(&[u8], &mut Vec<u8>) -> R,
    ) -> Result<R, EngineError> {
        match self.z.dez.loc(lba) {
            Some(DeltaLoc::Staged) => {
                let staged = self.staging.get(lba);
                let comp = staged.ok_or(EngineError::Inconsistent("staged delta index broken"))?;
                Ok(f(comp, &mut self.decode_scratch))
            }
            Some(DeltaLoc::Dez(r)) => {
                let lpn = self.slot_lpn(r.slot);
                let (page, dt) = self.ssd.page(lpn)?;
                let comp = page
                    .get(r.off as usize..r.off as usize + r.len as usize)
                    .ok_or(EngineError::Inconsistent("delta reference outside its DEZ page"))?;
                let out = f(comp, &mut self.decode_scratch);
                self.charge_stage(Stage::SsdRead, dt, t);
                Ok(out)
            }
            None => Err(EngineError::Inconsistent("old page has no delta")),
        }
    }

    /// XOR `lba`'s delta into `page`, straight from its compressed form.
    fn fold_delta(
        &mut self,
        lba: u64,
        page: &mut [u8],
        t: &mut SimTime,
    ) -> Result<(), EngineError> {
        self.with_delta(lba, t, |comp, scratch| codec::xor_decoded_into(comp, page, scratch))??;
        Ok(())
    }

    /// Current content of a cached page: for *old* pages, base ⊕ delta —
    /// §III-A's read-hit combine. `copy` makes the base the caller's own.
    fn read_cached<B: AsMut<[u8]>>(
        &mut self,
        lba: u64,
        slot: u32,
        t: &mut SimTime,
        copy: impl FnOnce(&[u8]) -> B,
    ) -> Result<B, EngineError> {
        let lpn = self.slot_lpn(slot);
        let (base, dt) = self.ssd.page(lpn)?;
        let mut data = copy(base);
        self.charge_stage(Stage::SsdRead, dt, t);
        if self.z.cache.state(slot) == PageState::Old {
            self.fold_delta(lba, data.as_mut(), t)?;
            // "it takes only tens of microseconds to decompress the delta
            // and combine it with the data" (§IV-B2).
            self.charge_stage(Stage::DeltaDecode, codec::DECODE_TIME, t);
        }
        Ok(data)
    }

    /// [`KddEngine::read_cached`] into a page of the pool.
    fn read_cached_pooled(
        &mut self,
        lba: u64,
        slot: u32,
        t: &mut SimTime,
    ) -> Result<Box<[u8]>, EngineError> {
        let mut page = self.pool.acquire_scratch();
        self.read_cached(lba, slot, t, |base| {
            page.copy_from_slice(base);
            page
        })
    }

    // ---- public I/O -------------------------------------------------------

    /// The device fault underlying an engine error, if any.
    fn fault_dev(e: &EngineError) -> Option<&DevError> {
        match e {
            EngineError::Dev(d) => Some(d),
            EngineError::Raid(RaidError::Dev(d)) => Some(d),
            _ => None,
        }
    }

    /// Fall back after a persistent SSD fault: resync the RAID (member
    /// data is always current — RPO 0), swap in a spare, and if the
    /// injector says even the spare is dead, serve pass-through from RAID.
    fn ssd_fault_fallback(&mut self) -> Result<(), EngineError> {
        self.recover_from_ssd_failure()?;
        let dead = self.injector.as_ref().is_some_and(|inj| inj.is_dead(FaultDomain::Ssd));
        if dead {
            self.mode = EngineMode::PassThrough;
        }
        self.z.stats.fault_fallbacks += 1;
        Ok(())
    }

    /// Whether `e` warrants one retry (a transient device fault). Power
    /// loss is never retried: the machine is notionally off.
    fn retryable(e: &EngineError) -> bool {
        Self::fault_dev(e).is_some_and(|d| d.is_transient())
    }

    /// Whether `e` is a persistent SSD-side fault that the engine should
    /// survive by falling back to pass-through RAID.
    fn ssd_persistent(e: &EngineError) -> bool {
        matches!(
            Self::fault_dev(e),
            Some(DevError::Failed { device: FaultDomain::Ssd, transient: false })
        )
    }

    /// Whether `e` is a member-disk death. One retry suffices: the array
    /// folds injector-declared drops into its failure state on entry and
    /// the retried operation runs degraded (RAID-5/6 reconstruction).
    fn disk_persistent(e: &EngineError) -> bool {
        matches!(
            Self::fault_dev(e),
            Some(DevError::Failed { device: FaultDomain::Disk(_), transient: false })
        ) || matches!(e, EngineError::Raid(RaidError::DiskFailed { .. }))
    }

    /// Read one page: `(data, simulated service time)`.
    ///
    /// Fault policy: a transient device fault is retried once; a
    /// persistent SSD fault triggers [`KddEngine::recover_from_ssd_failure`]
    /// and, when no working spare exists, pass-through mode. Power loss is
    /// surfaced unchanged — only [`KddEngine::power_cycle`] recovers it.
    pub fn read(&mut self, lba: u64) -> Result<(Vec<u8>, SimTime), EngineError> {
        let before = self.recorder.is_enabled().then_some(self.z.stats);
        let result = self.read_dispatch(lba);
        if let (Some(before), Ok((_, t))) = (before, &result) {
            self.observe(ReqKind::Read, lba, &before, *t);
        }
        result
    }

    fn read_dispatch(&mut self, lba: u64) -> Result<(Vec<u8>, SimTime), EngineError> {
        self.check_lba(lba)?;
        self.dispatch(|e| e.read_inner(lba), |e| e.raid_read(lba))
    }

    /// Request addresses arrive from outside the program: one past the
    /// array is refused here, before anything moves.
    fn check_lba(&self, lba: u64) -> Result<(), EngineError> {
        let pages = self.raid.capacity_pages();
        if lba >= pages {
            return Err(EngineError::Layout(format!("page {lba} of a {pages}-page array")));
        }
        Ok(())
    }

    /// The fault ladder every request climbs: `pass` straight to the array
    /// in pass-through mode, else `attempt` through the cache — retried
    /// once after a transient fault or a member death, and after a
    /// persistent SSD fault once more through whatever the fallback left.
    fn dispatch<R>(
        &mut self,
        attempt: impl Fn(&mut Self) -> Result<R, EngineError>,
        pass: impl Fn(&mut Self) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        if self.mode == EngineMode::PassThrough {
            return pass(self);
        }
        let e = match attempt(self) {
            Ok(out) => return Ok(out),
            Err(e) => e,
        };
        self.z.stats.faults_observed += 1;
        if Self::retryable(&e) || Self::disk_persistent(&e) {
            self.z.stats.fault_retries += 1;
            attempt(self)
        } else if Self::ssd_persistent(&e) {
            self.ssd_fault_fallback()?;
            if self.mode == EngineMode::PassThrough {
                pass(self)
            } else {
                attempt(self)
            }
        } else {
            Err(e)
        }
    }

    /// Write one page; returns the simulated service time. Same fault
    /// policy as [`KddEngine::read`].
    pub fn write(&mut self, lba: u64, data: &[u8]) -> Result<SimTime, EngineError> {
        let before = self.recorder.is_enabled().then_some(self.z.stats);
        let result = self.write_dispatch(lba, data);
        if let (Some(before), Ok(t)) = (before, &result) {
            self.observe(ReqKind::Write, lba, &before, *t);
        }
        result
    }

    /// Submit a vector of writes as one **group commit**: every request
    /// runs the normal write path (delta staging, fault retry policy, and
    /// NVRAM durability are identical to [`KddEngine::write`]), but metalog
    /// page persistence is deferred and flushed once at the end of the
    /// batch, so one flash write can cover mapping updates from many
    /// requests. Returns the per-request simulated service times; the
    /// group flush's cost is charged to the final request (it is the
    /// batch's "fsync"). The slice is lent from a buffer the engine refills
    /// on every call, so a batch costs no allocation; it is valid until the
    /// next `&mut` call on the engine.
    ///
    /// Crash safety is unchanged: entries are NVRAM-durable from the
    /// moment their request is acknowledged (metalog buffer + inflight
    /// redo list), so a power cut mid-batch loses nothing acknowledged —
    /// recovery heals unwritten or torn pages from the inflight copies.
    /// On error the group flush still runs for the already-dispatched
    /// prefix before the error is surfaced; requests after the failing one
    /// are not attempted.
    pub fn write_batch(&mut self, reqs: &[WriteRequest<'_>]) -> Result<&[SimTime], EngineError> {
        struct PendingSpan {
            lba: u64,
            before: CacheStats,
            after: CacheStats,
            class: HitClass,
            comp_len: usize,
            stages: StageTimes,
        }
        let observing = self.recorder.is_enabled();
        self.batch_times.clear();
        let mut spans: Vec<PendingSpan> =
            Vec::with_capacity(if observing { reqs.len() } else { 0 });
        self.meta_defer = true;
        let mut failure = None;
        for r in reqs {
            let before = self.z.stats;
            match self.write_dispatch(r.lba, r.data) {
                Ok(t) => {
                    self.batch_times.push(t);
                    if observing {
                        let class = if self.mode == EngineMode::PassThrough {
                            HitClass::PassThrough
                        } else {
                            self.last_class
                        };
                        spans.push(PendingSpan {
                            lba: r.lba,
                            before,
                            after: self.z.stats,
                            class,
                            comp_len: self.last_comp_len,
                            stages: std::mem::take(&mut self.cur_stages),
                        });
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.meta_defer = false;
        let mut tg = SimTime::ZERO;
        self.cur_stages = StageTimes::new();
        let flush = self.flush_group(&mut tg);
        let flush_stages = std::mem::take(&mut self.cur_stages);
        if let Some(e) = failure {
            // The dispatch failure is the actionable error; a flush failure
            // here is a second symptom of the same fault (the pages stay on
            // the inflight redo list either way).
            return Err(e);
        }
        flush?;
        if let Some(last) = self.batch_times.last_mut() {
            *last += tg;
        }
        if let Some(last) = spans.last_mut() {
            // The group flush's meta writes belong to the batch; fold them
            // (counters and stage times alike) into the final request's
            // span, whose service time already carries the flush cost.
            last.after = self.z.stats;
            last.stages.merge(&flush_stages);
        }
        // Spans are emitted through `&mut self`: the times step out meanwhile.
        let times = std::mem::take(&mut self.batch_times);
        for (s, t) in spans.iter().zip(times.iter()) {
            let (before, after) = (s.before, s.after);
            self.observe_span(
                ReqKind::Write,
                s.lba,
                &before,
                &after,
                s.class,
                s.comp_len,
                *t,
                s.stages,
            );
        }
        self.batch_times = times;
        Ok(&self.batch_times)
    }

    fn write_dispatch(&mut self, lba: u64, data: &[u8]) -> Result<SimTime, EngineError> {
        let ps = self.page_size();
        if data.len() != ps {
            return Err(EngineError::Layout(format!("{}-byte write, {ps}-byte pages", data.len())));
        }
        self.check_lba(lba)?;
        self.dispatch(|e| e.write_inner(lba, data), |e| e.raid_write(lba, data))
    }

    /// Pass-through read straight from the RAID array.
    fn raid_read(&mut self, lba: u64) -> Result<(Vec<u8>, SimTime), EngineError> {
        self.cur_stages = StageTimes::new();
        let mut t = SimTime::ZERO;
        let buf = self.read_array(lba, &mut t)?;
        self.bump(true, false);
        Ok((buf, t))
    }

    /// One page from the array, costed, in a buffer that is the read's
    /// return value.
    fn read_array(&mut self, lba: u64, t: &mut SimTime) -> Result<Vec<u8>, EngineError> {
        let mut buf = vec![0u8; self.page_size()];
        let cost = self.raid_call(|raid| raid.read_page(lba, &mut buf))?;
        self.charge_stage(Stage::RaidRead, DISK_OP * cost.reads.max(1), t);
        Ok(buf)
    }

    /// Pass-through write straight to the RAID array (full parity update).
    fn raid_write(&mut self, lba: u64, data: &[u8]) -> Result<SimTime, EngineError> {
        self.cur_stages = StageTimes::new();
        let mut t = SimTime::ZERO;
        let cost = self.raid_call(|raid| raid.write_page(lba, data))?;
        self.bump(false, false);
        self.charge_stage(Stage::RaidWrite, DISK_OP * 2 * cost.writes.max(1), &mut t);
        Ok(t)
    }

    fn read_inner(&mut self, lba: u64) -> Result<(Vec<u8>, SimTime), EngineError> {
        self.cur_stages = StageTimes::new();
        let mut t = SimTime::ZERO;
        let (hit, data) = match self.z.cache.lookup(lba) {
            Some(slot) => {
                self.z.cache.touch(slot);
                self.z.stats.ssd_reads += 1;
                (true, self.read_cached(lba, slot, &mut t, |base| base.to_vec())?)
            }
            None => {
                let buf = self.read_array(lba, &mut t)?;
                self.fill_clean(lba, &buf, &mut t)?;
                (false, buf)
            }
        };
        self.bump(true, hit);
        Ok((data, t))
    }

    fn write_inner(&mut self, lba: u64, data: &[u8]) -> Result<SimTime, EngineError> {
        self.cur_stages = StageTimes::new();
        let mut t = SimTime::ZERO;
        self.last_comp_len = 0;
        let row = self.raid.layout().row_of(lba);
        if self.z.pending.contains_row(row) && !self.raid.is_stale(row) {
            // Pending with current parity (recovery resynced it, or a
            // reclaim failed part-way): reclaimed before a new delta joins,
            // as folding its deltas into that parity would corrupt it.
            cleaner::clean_row(self, row, &mut t)?;
        }
        let hit = match self.z.cache.lookup(lba) {
            Some(slot) => {
                // THE KDD WRITE HIT: delta to NVRAM, data to RAID without
                // a parity update.
                self.last_class = HitClass::WriteHit;
                self.z.cache.touch(slot);
                let mut delta = self.pool.acquire_scratch();
                let lpn = self.slot_lpn(slot);
                let (base, dt) = self.ssd.page(lpn)?;
                xor_pages_into(&mut delta, base, data); // base ⊕ new
                self.charge_stage(Stage::SsdRead, dt, &mut t);
                let mut comp = self.payloads.acquire();
                self.codec.compress_into(&delta, &mut comp);
                self.last_comp_len = comp.len();
                self.pool.release(delta);
                self.charge_stage(Stage::DeltaEncode, codec::ENCODE_TIME, &mut t);
                // A delta must fit a DEZ page alongside its directory
                // record; pages that XOR-compress worse than that are
                // treated as incompressible (full write-through below).
                let compressible = comp.len() + 14 <= self.page_size()
                    && comp.len() as u32 <= self.staging.capacity_bytes();
                if compressible && !self.staging.fits(lba, &comp) {
                    cleaner::commit_staging(self, &mut t)?;
                }
                // Committing the staged deltas may allocate DEZ pages by
                // evicting *clean* cache pages — and this page is still
                // clean while its first delta is only being prepared, so
                // the victim can be the very page being written. The delta
                // path needs the cached base (reads combine base ⊕ delta),
                // so when the base is gone, finish as a conventional miss.
                let Some(slot) = self.z.cache.lookup(lba) else {
                    self.payloads.release(Some(comp));
                    self.write_conventional_miss(lba, data, &mut t)?;
                    self.bump(false, false);
                    return Ok(t);
                };
                // The delta path needs the target member alive: the data
                // half of "data + delta" lives on exactly that disk. When
                // it is dead (or dies mid-dispatch), fall through to the
                // conventional write, whose reconstruct-write stores the
                // data in the surviving members' parity.
                let dispatched = if compressible && self.staging.fits(lba, &comp) {
                    // Dispatch the data to the member disk *before*
                    // touching any NVRAM/volatile state: if the write is
                    // cut short, the previous delta still matches the
                    // previous member content and recovery stays
                    // consistent.
                    match self.raid_call(|raid| raid.write_no_parity_update(lba, data)) {
                        Ok(cost) => {
                            self.last_class = HitClass::WriteHitDelta;
                            self.charge_stage(Stage::RaidWrite, DISK_OP * cost.writes, &mut t);
                            if self.z.cache.state(slot) == PageState::Clean {
                                self.z.cache.set_state(slot, PageState::Old);
                            }
                            // Insert the new delta (coalescing replaces the
                            // staged one in place) before releasing any
                            // committed copy, so at every instant one valid
                            // delta exists.
                            let released = self.z.dez.restage(lba, true);
                            let staged = std::mem::take(&mut comp);
                            self.payloads.release(self.staging.insert(lba, staged));
                            released.emptied.map_or(Ok(()), |slot| self.free_dez_slot(slot))?;
                            let (cache, layout) = (&self.z.cache, self.raid.layout());
                            self.z.pending.add(row, lba, || set_of_row(cache, layout, row));
                            true
                        }
                        Err(RaidError::DiskFailed { .. })
                        | Err(RaidError::Dev(DevError::Failed { transient: false, .. })) => false,
                        Err(e) => return Err(e.into()),
                    }
                } else {
                    false
                };
                if !dispatched {
                    // Incompressible delta or fully pinned cache: write
                    // through, this page no longer pending. On a stale row
                    // the array reconstructs parity from current member
                    // data, absorbing every pending delta of the row, so
                    // `clean_row` afterwards only reclaims.
                    self.payloads.release(Some(comp));
                    self.z.pending.remove(row, lba);
                    let cost = self.raid_call(|raid| raid.write_page(lba, data))?;
                    self.last_class = HitClass::WriteHitThrough;
                    self.charge_stage(Stage::RaidWrite, DISK_OP * 2 * cost.writes.max(1), &mut t);
                    // Reclaim the old mapping and its flash copies, then
                    // re-insert the new version clean. A crash in between
                    // leaves the lba uncached with the data already safe
                    // on RAID.
                    self.reclaim(lba, slot, &mut t)?;
                    self.fill_clean(lba, data, &mut t)?;
                    cleaner::clean_row(self, row, &mut t)?;
                }
                cleaner::maybe_clean(self, &mut t)?;
                true
            }
            None => {
                self.write_conventional_miss(lba, data, &mut t)?;
                false
            }
        };
        self.bump(false, hit);
        Ok(t)
    }

    /// Conventional write miss (§III-A): cache in DAZ, write to RAID with
    /// the normal parity update. If this row has delayed parity, the
    /// array's write would reconstruct it from current member data and
    /// silently absorb the pending deltas — repair and reclaim the row
    /// *first* so the pending bookkeeping cannot double-apply them later.
    fn write_conventional_miss(
        &mut self,
        lba: u64,
        data: &[u8],
        t: &mut SimTime,
    ) -> Result<(), EngineError> {
        let row = self.raid.layout().row_of(lba);
        cleaner::clean_row(self, row, t)?;
        self.raid_call(|raid| raid.write_page(lba, data))?;
        // Read round + write round.
        self.charge_stage(Stage::RaidWrite, DISK_OP * 2, t);
        self.fill_clean(lba, data, t)
    }

    /// Cache `data` as the clean page `lba`, unless its set is pinned full.
    fn fill_clean(&mut self, lba: u64, data: &[u8], t: &mut SimTime) -> Result<(), EngineError> {
        // One clock: a NoRoom reclaim is charged to the request as well.
        let mut bg = SimTime::ZERO;
        let slot = cleaner::insert_clean_or_bypass(self, lba, t, &mut bg);
        *t += bg;
        let Some(slot) = slot? else { return Ok(()) };
        // A page that did not reach flash must not stay mapped.
        let dt = self.ssd.write_page(self.slot_lpn(slot), data).inspect_err(|_| {
            self.z.cache.free_slot(slot);
        })?;
        self.charge_stage(Stage::SsdWrite, dt, t);
        self.z.stats.ssd_data_writes += 1;
        self.log_entry(MapEntry { lba_raid: lba, slot, state: EntryState::Clean, dez: None }, t)
    }

    fn bump(&mut self, is_read: bool, hit: bool) {
        match (is_read, hit) {
            (true, true) => {
                self.z.stats.read_hits += 1;
                self.last_class = HitClass::ReadHit;
            }
            (true, false) => {
                self.z.stats.read_misses += 1;
                self.last_class = HitClass::ReadMiss;
            }
            // Write hits refine themselves into delta/through inside
            // `write_inner`; don't clobber that here.
            (false, true) => self.z.stats.write_hits += 1,
            (false, false) => {
                self.z.stats.write_misses += 1;
                self.last_class = HitClass::WriteMiss;
            }
        }
    }

    /// Run one array call and charge `raid_reads`/`raid_writes` with what
    /// the array's ledger gained over it — on an error exit too, as a
    /// failed attempt's SSD I/O is counted. Returns that gain.
    fn raid_call(
        &mut self,
        call: impl FnOnce(&mut RaidArray) -> Result<(), RaidError>,
    ) -> Result<RaidCost, RaidError> {
        let start = self.raid.totals();
        let out = call(&mut self.raid);
        let gained = self.raid.cost_since(start);
        self.z.stats.raid_reads += gained.reads;
        self.z.stats.raid_writes += gained.writes;
        out.map(|()| gained)
    }

    /// The cleaning pass (§III-D): repair every stale row (reconstruct-
    /// write when the whole row is cached, read-modify-write otherwise),
    /// then reclaim *old* pages and invalidate their deltas. Recorded as
    /// a first-class background span (`cleaner_pass`) with its own stage
    /// breakdown, isolated from any in-flight request's accumulator.
    pub fn clean(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        self.background(Stage::CleanerPass, t, |e, t| cleaner::clean_oldest(e, None, t))
    }

    /// Flush everything: clean all rows, commit staged deltas, flush the
    /// metadata buffer to flash. The cleaning pass records its own
    /// background span; the staging + metalog tail is recorded as a
    /// `group_commit_flush` background span.
    pub fn flush(&mut self) -> Result<SimTime, EngineError> {
        let mut t = SimTime::ZERO;
        self.clean(&mut t)?;
        self.background(Stage::GroupCommitFlush, &mut t, Self::flush_tail)?;
        Ok(t)
    }

    fn flush_tail(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        cleaner::commit_staging(self, t)?;
        self.meta_pending.extend(self.metalog.flush()?);
        self.queue_batches(t)
    }

    // ---- failure handling (§III-E) ----------------------------------------

    /// Simulate a power failure and recover (§III-E1): every volatile
    /// structure is discarded; the primary map is rebuilt by replaying the
    /// metadata-log pages *read back from flash* between the NVRAM head
    /// and tail counters, then patched with the NVRAM metadata buffer and
    /// the NVRAM staging buffer.
    pub fn power_cycle(mut self) -> Result<KddEngine, EngineError> {
        // Power is back: clear any injected power-loss state first, or the
        // recovery reads below would fail too.
        if let Some(inj) = &self.injector {
            inj.restore_power();
        }
        let config = self.z.config;
        let meta_pages = self.meta_pages;
        let ps = config.geometry.page_size as usize;
        let epp = (ps - META_HDR) / ENTRY_BYTES;

        // 1. Flash replay between the NVRAM-preserved counters. A page
        //    that is torn, corrupt, or missing is tolerated — and redone
        //    from the NVRAM in-flight copy — exactly when its commit was
        //    never confirmed durable; anything else is real corruption.
        let (head, tail) = self.metalog.counters();
        let inflight: FastMap<u64, CommitBatch<MapEntry>> =
            self.metalog.unconfirmed().iter().map(|b| (b.seq, b.clone())).collect();
        let mut torn_detected = 0u64;
        let mut heal: Vec<CommitBatch<MapEntry>> = Vec::new();
        let mut recovered: FastMap<u64, MapEntry> = FastMap::default();
        for seq in head..tail {
            let slot = seq % meta_pages;
            let mut page = vec![0u8; ps];
            let valid = match self.ssd.read_page(slot, &mut page) {
                // A page too short for its header is as torn as a bad CRC.
                Ok(_) => match (le_u16(&page, 0), le_u64(&page, 2), le_u32(&page, 10)) {
                    (Some(count), Some(page_seq), Some(crc)) => {
                        count as usize <= epp && page_seq == seq && crc == meta_page_crc(&page)
                    }
                    _ => false,
                },
                // The tail page of an unconfirmed commit may never have
                // been written at all.
                Err(DevError::Unmapped { .. }) => false,
                Err(e) => return Err(e.into()),
            };
            let entries: Vec<MapEntry> = if valid {
                let count = le_u16(&page, 0).map_or(0, |c| c as usize);
                (0..count)
                    .map(|i| {
                        let off = META_HDR + i * ENTRY_BYTES;
                        MapEntry::decode(&page[off..off + ENTRY_BYTES])
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| EngineError::Layout("corrupt metadata entry".into()))?
            } else if let Some(batch) = inflight.get(&seq) {
                torn_detected += 1;
                heal.push(batch.clone());
                batch.entries.to_vec()
            } else {
                return Err(EngineError::Layout(format!(
                    "metadata page {slot} (seq {seq}) torn or corrupt with no in-flight copy"
                )));
            };
            replay(&mut recovered, entries);
        }
        // Redo the torn/lost pages from NVRAM so the flash log is whole
        // again before normal operation resumes.
        if !heal.is_empty() {
            let mut t = SimTime::ZERO;
            self.persist_batches(heal, &mut t)?;
        }
        // 2. Apply the NVRAM metadata buffer (newer than anything logged).
        replay(&mut recovered, self.metalog.buffered_snapshot());

        // 3. Rebuild the directory, DEZ accounting and pending rows.
        let layout = self.raid.layout();
        let mut cache = Self::empty_cache(&config, &self.raid);
        let mut dez = std::mem::take(&mut self.z.dez);
        dez.clear();
        let mut pending_rows = PendingRows::default();
        for e in recovered.values() {
            match e.state {
                EntryState::Clean => cache.insert_at(e.slot, e.lba_raid, PageState::Clean),
                EntryState::Old => {
                    cache.insert_at(e.slot, e.lba_raid, PageState::Old);
                    let row = layout.row_of(e.lba_raid);
                    pending_rows.add(row, e.lba_raid, || set_of_row(&cache, layout, row));
                    if let Some(r) = e.dez {
                        dez.add(e.lba_raid, r);
                    }
                }
                EntryState::Free => {}
            }
        }
        // 4. Deltas still in the NVRAM staging buffer supersede DEZ copies
        //    and imply the page is old with pending parity.
        let staged: Vec<u64> = self.staging.snapshot().map(|(l, _)| l).collect();
        for lba in staged {
            let Some(slot) = cache.lookup(lba) else {
                // The mapping was tombstoned (an incompressible
                // write-through or reclaim crashed between its log entry
                // and the NVRAM cleanup): RAID already holds the current
                // data, so the orphan delta is dead — drop it.
                self.staging.remove(lba);
                continue;
            };
            // A DEZ page whose every delta is re-staged had been released
            // before the cut (its slot may hold a clean page by now) while
            // the log still carries the superseded references until the
            // next commit: it leaves the index here.
            dez.restage(lba, true);
            if cache.state(slot) != PageState::Old {
                cache.set_state(slot, PageState::Old);
            }
            let row = layout.row_of(lba);
            pending_rows.add(row, lba, || set_of_row(&cache, layout, row));
        }
        for slot in dez.slots() {
            cache.occupy_delta_at(slot);
        }

        // Around the devices, NVRAM and log that survived and the directory
        // just recovered; only what recovery computed differs from new.
        let mut engine =
            Self::assemble(config, self.ssd, self.raid, cache, self.staging, self.metalog);
        engine.z.dez = dez;
        engine.z.pending = pending_rows;
        engine.z.stats.torn_pages_detected = torn_detected;
        engine.injector = self.injector;
        engine.mode = self.mode;
        engine.recorder = self.recorder;
        engine.resync_interrupted_rows()?;
        Ok(engine)
    }

    /// Last step of power-failure recovery: rows whose parity update was
    /// in flight when power failed are re-synchronised (§III-E1: "the
    /// parity of these rows is re-synchronized"). The crash may have
    /// interrupted a member write after its delta staging (or vice versa),
    /// so the cache view — which is what was acknowledged — is first
    /// written back to the members; the resync then recomputes parity over
    /// that. This also restores the delta-RMW invariant that a cached base
    /// equals the member content at the last parity sync.
    /// If the array is *also* degraded (a member died before the cut),
    /// rows with a data member on the dead disk cannot be written back or
    /// resynced here; they stay stale — their acknowledged data lives in
    /// the cache (base ⊕ delta), the array refuses unsafe degraded reads
    /// of stale rows, and the next clean/rebuild repairs them via
    /// delta-RMW.
    fn resync_interrupted_rows(&mut self) -> Result<(), EngineError> {
        let stale: Vec<u64> = self.raid.stale_rows().collect();
        let failed = self.raid.failed_disks();
        let mut resyncable: Vec<u64> = Vec::new();
        // Recovery time is not attributed to any request.
        let mut t = SimTime::ZERO;
        for &row in &stale {
            let layout = *self.raid.layout();
            let alive = |lba: &u64| !failed.contains(&layout.locate(*lba).disk);
            if layout.row_lpns(row).all(|lba| alive(&lba)) {
                resyncable.push(row);
            }
            for lba in layout.row_lpns(row).filter(alive) {
                let Some(slot) = self.z.cache.lookup(lba) else { continue };
                let data = self.read_cached_pooled(lba, slot, &mut t)?;
                self.raid_call(|raid| raid.write_no_parity_update(lba, &data))?;
                self.pool.release(data);
            }
        }
        if !resyncable.is_empty() {
            self.raid_call(|raid| raid.resync(Some(&resyncable)))?;
        }
        self.cur_stages = StageTimes::new();
        Ok(())
    }

    /// SSD failure (§III-E2): the cache is lost; the RAID re-synchronises
    /// stale parity by reconstruct-write (data blocks were always
    /// dispatched to RAID), and a fresh SSD comes up empty. No data loss:
    /// RPO 0.
    pub fn recover_from_ssd_failure(&mut self) -> Result<SimTime, EngineError> {
        let mut t = SimTime::ZERO;
        self.background(Stage::RaidReconstruct, &mut t, Self::rebuild_after_ssd_loss)?;
        Ok(t)
    }

    fn rebuild_after_ssd_loss(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        self.ssd.fail();
        let cost = self.raid_call(|raid| raid.resync(None))?;
        self.charge_stage(Stage::RaidReconstruct, DISK_OP * (cost.reads + cost.writes), t);
        self.ssd.replace();
        self.z.cache = Self::empty_cache(&self.z.config, &self.raid);
        self.payloads.release(self.staging.drain().map(|(_, payload)| payload));
        self.metalog = Self::empty_metalog(&self.z.config);
        // Any pages parked by an in-flight batch belonged to the lost
        // cache's log; the fresh SSD starts from an empty mapping.
        self.meta_pending.clear();
        self.z.dez.clear();
        self.z.pending = PendingRows::default();
        Ok(())
    }

    /// HDD failure (§III-E2): "KDD first updates all parity blocks using
    /// the parity_update interface and then triggers the rebuilding
    /// process at the RAID layer."
    pub fn recover_from_hdd_failure(&mut self, disk: usize) -> Result<SimTime, EngineError> {
        let mut t = SimTime::ZERO;
        self.raid.fail_disk(disk);
        self.clean(&mut t)?;
        self.background(Stage::RaidReconstruct, &mut t, Self::rebuild_failed_disk)?;
        Ok(t)
    }

    fn rebuild_failed_disk(&mut self, t: &mut SimTime) -> Result<(), EngineError> {
        let cost = self.raid_call(RaidArray::rebuild)?;
        let dt = DISK_OP * ((cost.reads + cost.writes) / self.raid.layout().disks as u64).max(1);
        self.charge_stage(Stage::RaidReconstruct, dt, t);
        Ok(())
    }
}

impl CleanerIo for KddEngine {
    type Cost = SimTime;
    type Error = EngineError;
    /// A `[count: u16]` header, and an `(lba: u64, off: u16, len: u16)`
    /// directory record per delta.
    const DEZ_PAGE_OVERHEAD: (u32, u32) = (2, 12);

    fn zones(&mut self) -> &mut Zones {
        &mut self.z
    }

    fn is_stale(&self, row: u64) -> bool {
        self.raid.is_stale(row)
    }

    fn repair(&mut self, row: u64, lbas: &[u64], reconstruct: bool, t: &mut SimTime) -> Done<Self> {
        let ops = if reconstruct {
            // From the cached current versions.
            let mut datas = std::mem::take(&mut self.scratch.row_pages);
            for l in self.raid.layout().row_lpns(row) {
                let slot =
                    self.z.cache.lookup(l).ok_or(EngineError::Inconsistent("row uncached"))?;
                datas.push(self.read_cached_pooled(l, slot, t)?);
            }
            let cost = self.raid_call(|raid| raid.parity_update_with_data(row, &datas))?;
            for page in datas.drain(..) {
                self.pool.release(page);
            }
            self.scratch.row_pages = datas;
            cost.writes
        } else {
            // Fold each pending page's decompressed delta.
            let mut deltas = std::mem::take(&mut self.scratch.deltas);
            for &lba in lbas {
                let mut full = self.pool.acquire();
                self.fold_delta(lba, &mut full, t)?;
                deltas.push((self.raid.layout().locate(lba).data_index, full));
            }
            let cost = self.raid_call(|raid| match raid.parity_update_rmw(row, &deltas) {
                // The parity member of this row is dead, so there is
                // nothing to fold deltas into. Resync instead: it
                // recomputes from the live data members (all current —
                // the deltas' data halves were dispatched at write
                // time), skips the dead disk, and clears the stale
                // mark so a later rebuild can re-derive the parity.
                Err(RaidError::DiskFailed { .. }) => raid.resync(Some(&[row])),
                done => done,
            })?;
            for (_, full) in deltas.drain(..) {
                self.pool.release(full);
            }
            self.scratch.deltas = deltas;
            cost.reads + cost.writes
        };
        self.charge_stage(Stage::ParityRmw, DISK_OP * ops, t);
        Ok(())
    }

    /// The tombstone is logged before anything is trimmed, so a crash in
    /// between can only leak flash pages — recovery never maps a reclaimed
    /// one — and the slot is freed before any trim, so a failed trim leaves
    /// nothing cached.
    fn reclaim(&mut self, lba: u64, slot: u32, t: &mut SimTime) -> Done<Self> {
        self.log_free(lba, slot, t)?;
        self.z.cache.free_slot(slot);
        cleaner::invalidate_delta(self, lba)?;
        Ok(self.ssd.trim_page(self.slot_lpn(slot))?)
    }

    /// Committed from the payloads still in NVRAM.
    fn staged(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.staging.snapshot().map(|(lba, payload)| (lba, payload.len() as u32))
    }

    fn unstage(&mut self, lba: u64) {
        self.payloads.release(self.staging.remove(lba));
    }

    /// A write hit stages only a delta that fits a page beside its record.
    fn oversized_delta(&self) -> Done<Self> {
        Err(EngineError::Inconsistent("one delta must always fit a DEZ page"))
    }

    /// A free one from the set with the fewest DEZ pages, else the slot of
    /// the evicted [`SetAssocCache::dez_victim`].
    fn alloc_dez_slot(&mut self, t: &mut SimTime) -> Result<Option<u32>, EngineError> {
        if let Some(slot) = self.z.cache.alloc_delta_slot() {
            return Ok(Some(slot));
        }
        let Some((slot, lba)) = self.z.cache.dez_victim() else { return Ok(None) };
        self.reclaim(lba, slot, t)?; // clean: it has no delta to drop
        self.z.stats.evictions += 1;
        Ok(self.z.cache.alloc_delta_slot())
    }

    /// The slot is freed first, so a failed trim cannot leave it pinned
    /// with no page.
    fn free_dez_slot(&mut self, slot: u32) -> Done<Self> {
        self.z.cache.free_slot(slot);
        Ok(self.ssd.trim_page(self.slot_lpn(slot))?)
    }

    /// The page is a `[count: u16]` header, the `(lba, off, len)`
    /// directory, then the compressed payloads; each delta is copied once
    /// from NVRAM or the DEZ page it lies in.
    fn write_dez_page(&mut self, slot: u32, refs: &Refs, t: &mut SimTime) -> Done<Self> {
        let mut page = self.pool.acquire();
        page[..2].copy_from_slice(&(refs.len() as u16).to_le_bytes());
        for (dir, &(lba, r)) in page[2..].chunks_exact_mut(12).zip(refs) {
            dir[..8].copy_from_slice(&lba.to_le_bytes());
            dir[8..10].copy_from_slice(&r.off.to_le_bytes());
            dir[10..].copy_from_slice(&r.len.to_le_bytes());
        }
        for &(lba, r) in refs {
            let at = &mut page[r.off as usize..][..r.len as usize];
            self.with_delta(lba, t, |comp, _| at.copy_from_slice(comp))?;
        }
        let written = self.ssd.write_page(self.slot_lpn(slot), &page);
        self.pool.release(page);
        self.charge_stage(Stage::StagingCommit, written?, t);
        self.z.stats.ssd_delta_writes += 1;
        Ok(())
    }

    /// One metalog group, so recovery replays the page's mappings together.
    fn log_commit(&mut self, refs: &Refs, t: &mut SimTime) -> Done<Self> {
        let mut entries = std::mem::take(&mut self.scratch.entries);
        for &(lba, r) in refs {
            entries.push(self.old_entry(lba, r)?);
        }
        self.meta_pending.extend(self.metalog.push_group(entries.drain(..))?);
        self.scratch.entries = entries;
        self.queue_batches(t)
    }

    fn log_delta(&mut self, lba: u64, r: DeltaRef, t: &mut SimTime) -> Done<Self> {
        let entry = self.old_entry(lba, r)?;
        self.log_entry(entry, t)
    }

    fn log_evicted(&mut self, lba: u64, slot: u32, t: &mut SimTime) -> Done<Self> {
        self.log_free(lba, slot, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{two_smallest_by_key, MergeBound, TwoSmallest};
    use kdd_cache::setassoc::CacheGeometry;
    use kdd_raid::layout::{Layout, RaidLevel};
    use kdd_util::rng::seeded_rng;
    use rand::RngExt;

    mod write_path;

    const PS: u32 = 512;

    fn engine(cache_pages: u64) -> KddEngine {
        let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 32);
        let raid = RaidArray::new(layout, PS);
        let ssd = SsdDevice::with_logical_capacity((cache_pages + 64) * PS as u64, PS, 0.1);
        let g = CacheGeometry {
            total_pages: cache_pages,
            ways: 8.min(cache_pages as u32),
            page_size: PS,
        };
        KddEngine::new(KddConfig::new(g), ssd, raid).unwrap()
    }

    /// A 128-slot engine for the tests that pin most of the cache. Small
    /// pages (512 B) shrink the metadata partition floor, so it gets a
    /// roomier one: ~100 live mappings need 5 pages at 22 entries/page,
    /// and 8 % of 128 slots is 10.
    fn pressure_engine() -> KddEngine {
        let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 32);
        let raid = RaidArray::new(layout, PS);
        let ssd = SsdDevice::with_logical_capacity((128 + 64) * PS as u64, PS, 0.1);
        let g = CacheGeometry { total_pages: 128, ways: 8, page_size: PS };
        let mut cfg = KddConfig::new(g);
        cfg.meta_partition_frac = 0.08;
        KddEngine::new(cfg, ssd, raid).unwrap()
    }

    /// Which DEZ page holds each page's delta. A write to one page can
    /// move another page's delta between DEZ pages only through a merge
    /// (commits move deltas from staging, cleaning drops them).
    fn dez_slots(e: &KddEngine) -> FastMap<u64, u32> {
        let slot = |(lba, loc)| match loc {
            DeltaLoc::Dez(r) => Some((lba, r.slot)),
            DeltaLoc::Staged => None,
        };
        e.z.dez.locs().filter_map(slot).collect()
    }

    fn page(tag: u64) -> Vec<u8> {
        (0..PS as usize).map(|i| (tag as u8) ^ (i as u8).wrapping_mul(13)).collect()
    }

    fn similar_page(base: &[u8], tag: u8) -> Vec<u8> {
        // Change ~10% of bytes, clustered.
        let mut p = base.to_vec();
        for i in 0..PS as usize / 10 {
            p[(i * 7) % PS as usize] = tag ^ i as u8;
        }
        p
    }

    fn nudged_page(base: &[u8], tag: u8) -> Vec<u8> {
        // Eight clustered bytes: a delta of a few dozen bytes, so a DEZ
        // page holds many and loses them one at a time.
        let mut p = base.to_vec();
        let at = tag as usize % (PS as usize - 8);
        p[at..at + 8].fill(tag);
        p
    }

    #[test]
    fn write_read_roundtrip_with_deltas() {
        let mut e = engine(64);
        let p0 = page(1);
        e.write(10, &p0).unwrap(); // miss
        let p1 = similar_page(&p0, 0xAA);
        e.write(10, &p1).unwrap(); // hit → delta path
        let (got, _) = e.read(10).unwrap();
        assert_eq!(got, p1, "old ⊕ delta must equal the latest version");
        // A third version (delta coalescing).
        let p2 = similar_page(&p1, 0xBB);
        e.write(10, &p2).unwrap();
        let (got2, _) = e.read(10).unwrap();
        assert_eq!(got2, p2);
        assert_eq!(e.staged_deltas(), 1, "one coalesced delta");
    }

    #[test]
    fn write_hit_leaves_parity_stale_until_clean() {
        let mut e = engine(64);
        let p0 = page(2);
        e.write(0, &p0).unwrap();
        let row = e.raid().layout().row_of(0);
        assert!(!e.raid().is_stale(row));
        e.write(0, &similar_page(&p0, 1)).unwrap();
        assert!(e.raid().is_stale(row), "parity must be delayed");
        let mut t = SimTime::ZERO;
        e.clean(&mut t).unwrap();
        assert!(!e.raid().is_stale(row));
        assert_eq!(e.pending_row_count(), 0);
        // And the raid content is the latest version.
        let mut buf = vec![0u8; PS as usize];
        e.raid_mut().read_page(0, &mut buf).unwrap();
        assert_eq!(buf, similar_page(&page(2), 1));
    }

    /// A pass over every row starts with the oldest, whatever order the
    /// pending rows map iterates in: when that first repair fails, the
    /// pass stops and the oldest row is pending again, behind the rest.
    #[test]
    fn clean_takes_the_oldest_row_first() {
        use kdd_blockdev::fault::FaultPlan;
        let mut e = engine(64);
        // Six rows with one page each, made pending in this order.
        let lbas = [19u64, 2, 33, 0, 17, 35];
        for &lba in &lbas {
            e.write(lba, &page(lba)).unwrap();
        }
        for &lba in &lbas {
            e.write(lba, &nudged_page(&page(lba), 7)).unwrap();
        }
        let rows: Vec<u64> = lbas.iter().map(|&lba| e.raid().layout().row_of(lba)).collect();
        e.attach_fault_injector(FaultInjector::new(
            FaultPlan::new().transient(0, FaultDomain::Unknown),
        ));
        assert!(e.clean(&mut SimTime::default()).is_err());
        let mut pending = e.z.pending.clone();
        let mut order = Vec::new();
        while let Some(row) = pending.oldest_row() {
            pending.take_row_into(row, &mut Vec::new());
            order.push(row);
        }
        let mut want = rows[1..].to_vec();
        want.push(rows[0]);
        assert_eq!(order, want, "the oldest row's repair failed, so only it moved");
    }

    #[test]
    fn dez_commit_and_read_back() {
        let mut e = engine(256);
        // Fill many pages and rewrite them until the staging buffer
        // (512B) commits DEZ pages.
        // 8 LBAs per 16-page stripe group so no 8-way set overflows.
        let lbas: Vec<u64> = (0..24u64).map(|i| (i / 8) * 16 + i % 8).collect();
        let mut versions = FastMap::default();
        for &lba in &lbas {
            let p = page(lba);
            e.write(lba, &p).unwrap();
            versions.insert(lba, p);
        }
        for &lba in &lbas {
            let next = similar_page(&versions[&lba], (lba as u8).wrapping_mul(37) | 1);
            e.write(lba, &next).unwrap();
            versions.insert(lba, next);
        }
        assert!(e.stats().ssd_delta_writes > 0, "staging must have committed");
        for &lba in &lbas {
            let (got, _) = e.read(lba).unwrap();
            assert_eq!(got, versions[&lba], "lba {lba}");
        }
    }

    #[test]
    fn power_failure_recovers_exact_state() {
        let mut e = engine(128);
        let mut rng = seeded_rng(42);
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        for _ in 0..600 {
            // 8 LBAs per stripe group so the 8-way sets can hold them all.
            let i = rng.random_range(0..40u64);
            let lba = (i / 8) * 16 + i % 8;
            if rng.random_bool(0.6) {
                let next = match versions.get(&lba) {
                    Some(v) => similar_page(v, rng.random()),
                    None => page(lba),
                };
                e.write(lba, &next).unwrap();
                versions.insert(lba, next);
            } else {
                let (got, _) = e.read(lba).unwrap();
                if let Some(v) = versions.get(&lba) {
                    assert_eq!(&got, v);
                }
            }
        }
        let hits_before = e.stats().read_hits + e.stats().write_hits;
        assert!(hits_before > 0);
        // Pull the plug.
        let mut e2 = e.power_cycle().expect("recovery");
        for (lba, v) in &versions {
            let (got, _) = e2.read(*lba).unwrap();
            assert_eq!(&got, v, "lba {lba} wrong after power cycle");
        }
        // The recovered cache must be warm: the verification reads above
        // should mostly hit.
        assert!(
            e2.stats().read_hits > e2.stats().read_misses,
            "cache came back cold: {} hits vs {} misses",
            e2.stats().read_hits,
            e2.stats().read_misses
        );
    }

    #[test]
    fn ssd_failure_recovers_with_rpo_zero() {
        let mut e = engine(64);
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        for lba in 0..8u64 {
            let p = page(lba);
            e.write(lba, &p).unwrap();
            let p2 = similar_page(&p, 3);
            e.write(lba, &p2).unwrap(); // leaves stale parity
            versions.insert(lba, p2);
        }
        assert!(e.raid().stale_row_count() > 0, "writes must have left stale parity");
        e.recover_from_ssd_failure().unwrap();
        assert_eq!(e.raid().stale_row_count(), 0, "resync must repair parity");
        // All data still present and correct (served from RAID now).
        for (lba, v) in &versions {
            let (got, _) = e.read(*lba).unwrap();
            assert_eq!(&got, v, "lba {lba} lost after SSD failure");
        }
        // And redundancy is real again: degrade a disk and re-check.
        e.raid_mut().fail_disk(2);
        for (lba, v) in versions.iter().take(8) {
            let mut buf = vec![0u8; PS as usize];
            e.raid_mut().read_page(*lba, &mut buf).unwrap();
            assert_eq!(&buf, v, "degraded read of {lba}");
        }
    }

    #[test]
    fn hdd_failure_parity_update_then_rebuild() {
        let mut e = engine(64);
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        for lba in 0..32u64 {
            let p = page(lba ^ 7);
            e.write(lba, &p).unwrap();
            let p2 = similar_page(&p, 9);
            e.write(lba, &p2).unwrap();
            versions.insert(lba, p2);
        }
        assert!(e.raid().stale_row_count() > 0);
        e.recover_from_hdd_failure(1).unwrap();
        assert!(e.raid().failed_disks().is_empty());
        assert_eq!(e.raid().stale_row_count(), 0);
        for (lba, v) in &versions {
            let mut buf = vec![0u8; PS as usize];
            e.raid_mut().read_page(*lba, &mut buf).unwrap();
            assert_eq!(&buf, v, "lba {lba} wrong after rebuild");
        }
    }

    /// A rebuild interrupted by one transient read fault must leave the
    /// array degraded — still reconstructing every page — not report a
    /// half-written replacement as healthy; the retry then completes.
    #[test]
    fn interrupted_hdd_recovery_keeps_serving_and_retries() {
        use kdd_blockdev::fault::FaultPlan;
        let mut e = engine(64);
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        for lba in 0..96u64 {
            let p = page(lba ^ 5);
            e.write(lba, &p).unwrap();
            versions.insert(lba, p);
        }
        // Parity is brought up to date first, so the recovery below goes
        // straight to the rebuild and the fault lands in its first rows.
        let mut t = SimTime::ZERO;
        e.clean(&mut t).unwrap();
        e.attach_fault_injector(FaultInjector::new(
            FaultPlan::new().transient(7, FaultDomain::Disk(0)),
        ));
        assert!(e.recover_from_hdd_failure(2).is_err());
        assert_eq!(e.raid().failed_disks(), vec![2], "the array must stay degraded");
        let mut buf = vec![0u8; PS as usize];
        for (lba, v) in &versions {
            e.raid_mut().read_page(*lba, &mut buf).unwrap();
            assert_eq!(&buf, v, "lba {lba} after the interrupted rebuild");
        }
        e.recover_from_hdd_failure(2).unwrap();
        assert!(e.raid().failed_disks().is_empty());
        for (lba, v) in &versions {
            e.raid_mut().read_page(*lba, &mut buf).unwrap();
            assert_eq!(&buf, v, "lba {lba} after the retried rebuild");
            assert_eq!(&e.read(*lba).unwrap().0, v, "lba {lba} through the engine");
        }
    }

    /// `n` small rewrites of random pages of `lbas`; returns how many
    /// deltas a write to *another* page moved between DEZ pages, i.e. how
    /// many a merge moved.
    fn nudge_randomly(
        e: &mut KddEngine,
        lbas: &[u64],
        versions: &mut FastMap<u64, Vec<u8>>,
        rng: &mut impl rand::Rng,
        n: usize,
    ) -> usize {
        let mut merged_deltas = 0;
        let mut before = dez_slots(e);
        for _ in 0..n {
            let lba = lbas[rng.random_range(0..lbas.len())];
            let next = nudged_page(&versions[&lba], rng.random());
            e.write(lba, &next).unwrap();
            versions.insert(lba, next);
            let after = dez_slots(e);
            merged_deltas += before
                .iter()
                .filter(|&(l, slot)| *l != lba && after.get(l).is_some_and(|now| now != slot))
                .count();
            before = after;
        }
        merged_deltas
    }

    /// The compaction bound is volatile: recovery rebuilds the DEZ index
    /// from the log, so the rebuilt engine must start from "unknown", scan
    /// again, and go on merging.
    #[test]
    fn compaction_bound_is_unknown_after_a_power_cycle() {
        let mut e = pressure_engine();
        let lbas: Vec<u64> = (0..96u64).map(|i| (i / 8) * 16 + i % 8).collect();
        let mut versions = FastMap::default();
        for &lba in &lbas {
            let p = page(lba);
            e.write(lba, &p).unwrap();
            versions.insert(lba, p);
        }
        let mut rng = seeded_rng(14);
        assert!(nudge_randomly(&mut e, &lbas, &mut versions, &mut rng, 600) > 0);
        assert_ne!(e.z.dez.bound(), MergeBound::default(), "compaction left no bound behind");
        let mut e = e.power_cycle().expect("recovery");
        assert_eq!(e.z.dez.bound(), MergeBound::default());
        assert!(e.z.dez.len() >= 4, "recovery lost the DEZ pages compaction works on");
        // Every skip from here on is checked against the scan it replaces
        // by the debug assertion in `plan_merge`.
        assert!(nudge_randomly(&mut e, &lbas, &mut versions, &mut rng, 600) > 0);
        assert!(e.z.dez.recount());
        for &lba in &lbas {
            let (got, _) = e.read(lba).unwrap();
            assert_eq!(got, versions[&lba], "lba {lba} corrupted");
        }
    }

    #[test]
    fn dez_compaction_preserves_deltas_under_pressure() {
        // Many hot pages rewritten in random order with deltas of a few
        // dozen bytes: a DEZ page holds many and loses them one at a time,
        // so pages decay to half-empty instead of being freed whole; once
        // pinned pages push past 3/4 of the cleaning trigger the compactor
        // must merge them without corrupting any delta.
        let mut e = pressure_engine();
        let lbas: Vec<u64> = (0..96u64).map(|i| (i / 8) * 16 + i % 8).collect();
        let mut versions = FastMap::default();
        for &lba in &lbas {
            let p = page(lba);
            e.write(lba, &p).unwrap();
            versions.insert(lba, p);
        }
        let mut rng = seeded_rng(14);
        let merged_deltas = nudge_randomly(&mut e, &lbas, &mut versions, &mut rng, 600);
        assert!(merged_deltas > 0, "the write pattern never made compaction merge a page");
        // Every page must still combine to its latest version.
        for &lba in &lbas {
            let (got, _) = e.read(lba).unwrap();
            assert_eq!(got, versions[&lba], "lba {lba} corrupted");
        }
        // DEZ footprint must stay bounded relative to its live bytes.
        let dez_pages = e.z.cache.count_state(PageState::Delta);
        assert!(dez_pages <= 96, "DEZ blew up: {dez_pages} pages");
    }

    /// One transient SSD fault at each op index from 20 to 3 999 of a
    /// write-heavy run under pressure — on a DEZ page write, its log page,
    /// an emptied page's trim or a cleaned row's reclaim among the rest —
    /// leaves no DEZ slot and no old page behind once `flush` has cleaned
    /// every row: each `Delta` slot belongs to an indexed page, so the
    /// governor's pinned count is the directory's, and a reclaim that
    /// failed part-way left its unreclaimed pages pending.
    #[test]
    fn transient_ssd_faults_leak_no_dez_slot() {
        use kdd_blockdev::fault::FaultPlan;
        let lbas: Vec<u64> = (0..96u64).map(|i| (i / 8) * 16 + i % 8).collect();
        for at in 20..4000 {
            let mut e = pressure_engine();
            e.attach_fault_injector(FaultInjector::new(
                FaultPlan::new().transient(at, FaultDomain::Ssd),
            ));
            let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
            for &lba in &lbas {
                e.write(lba, &page(lba)).unwrap();
                versions.insert(lba, page(lba));
            }
            for round in 0..4u8 {
                for (i, &lba) in lbas.iter().enumerate() {
                    let next = nudged_page(&versions[&lba], round.wrapping_mul(97) ^ i as u8);
                    e.write(lba, &next).unwrap();
                    versions.insert(lba, next);
                }
            }
            let pinned =
                e.z.cache.count_state(PageState::Old) + e.z.cache.count_state(PageState::Delta);
            assert_eq!(e.z.pinned(), pinned as u64, "fault at op {at}");
            e.flush().or_else(|_| e.flush()).unwrap();
            assert_eq!(e.z.cache.count_state(PageState::Delta), 0, "fault at op {at}");
            for (_, lba, state) in e.z.cache.iter_mapped() {
                let row = e.raid.layout().row_of(lba);
                let pending = e.z.pending.contains(row, lba);
                assert!(state != PageState::Old || pending, "fault at op {at}: lba {lba}");
            }
            for &lba in &lbas {
                assert_eq!(e.read(lba).unwrap().0, versions[&lba], "fault at op {at}: lba {lba}");
            }
        }
    }

    /// Recovery resyncs a stale row's parity over its cached current data
    /// and leaves the row pending with its old bases and deltas: a later
    /// write must not fold those deltas into parity that holds them
    /// already, so the row is reclaimed first and parity stays the XOR of
    /// the data — which a member loss reads back.
    #[test]
    fn resynced_pending_row_keeps_its_parity() {
        let mut e = engine(64);
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        for lba in [0u64, 4] {
            e.write(lba, &page(lba)).unwrap();
        }
        for lba in [0u64, 4] {
            let next = similar_page(&page(lba), 1);
            e.write(lba, &next).unwrap();
            versions.insert(lba, next);
        }
        let row = e.raid().layout().row_of(0);
        assert_eq!(row, e.raid().layout().row_of(4));
        let mut e = e.power_cycle().expect("recovery");
        assert!(e.z.pending.contains_row(row) && !e.raid().is_stale(row));
        let next = similar_page(&versions[&0], 2);
        e.write(0, &next).unwrap();
        versions.insert(0, next);
        e.clean(&mut SimTime::default()).unwrap();
        assert_eq!(e.raid_mut().verify_row(row), Ok(true));
        let disk = e.raid().layout().locate(0).disk;
        e.raid_mut().fail_disk(disk);
        let mut buf = vec![0u8; PS as usize];
        for (lba, v) in &versions {
            assert_eq!(&e.read(*lba).unwrap().0, v, "lba {lba}");
            e.raid_mut().read_page(*lba, &mut buf).unwrap();
            assert_eq!(&buf, v, "lba {lba} from the array");
        }
    }

    /// The DEZ index recounts after every operation of seeded random mixes,
    /// recovery paths included.
    #[test]
    fn dez_live_counters_match_recount_under_random_mixes() {
        for seed in [3u64, 11, 42] {
            let mut e = pressure_engine();
            let mut rng = seeded_rng(seed);
            let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
            // Small rewrites: DEZ pages decay one delta at a time into the
            // half-empty pages compaction merges.
            let next_version = |versions: &mut FastMap<u64, Vec<u8>>, lba: u64, tag: u8| {
                let next = match versions.get(&lba) {
                    Some(prev) => nudged_page(prev, tag),
                    None => nudged_page(&page(lba), tag),
                };
                versions.insert(lba, next.clone());
                next
            };
            let (mut dez_pages_peak, mut live_peak) = (0u64, 0u64);
            for step in 0..6000u32 {
                // 8 LBAs per 16-page stripe group, 104 in all: the hot set
                // fits the 8-way sets and pins most of the cache.
                let i = rng.random_range(0..104u64);
                let lba = (i / 8) * 16 + i % 8;
                match rng.random_range(0..1000u32) {
                    0..=599 => {
                        let data = next_version(&mut versions, lba, rng.random());
                        e.write(lba, &data).unwrap();
                    }
                    600..=749 => {
                        let pages: Vec<(u64, Vec<u8>)> = (0..rng.random_range(1..6u64))
                            .map(|k| {
                                let j = (i + k * 7) % 104;
                                let l = (j / 8) * 16 + j % 8;
                                (l, next_version(&mut versions, l, rng.random()))
                            })
                            .collect();
                        let reqs: Vec<WriteRequest<'_>> =
                            pages.iter().map(|(l, d)| WriteRequest { lba: *l, data: d }).collect();
                        e.write_batch(&reqs).unwrap();
                    }
                    750..=989 => {
                        // Reads stray outside the hot set to force fills
                        // into pinned sets (the NoRoom path).
                        let lba = if rng.random_bool(0.2) { lba + 8 } else { lba };
                        let (got, _) = e.read(lba).unwrap();
                        if let Some(v) = versions.get(&lba) {
                            assert_eq!(&got, v, "seed {seed} step {step} lba {lba}");
                        }
                    }
                    990 | 991 => {
                        let mut t = SimTime::ZERO;
                        e.clean(&mut t).unwrap();
                    }
                    992 | 993 => {
                        e.flush().unwrap();
                    }
                    994..=998 => e = e.power_cycle().expect("recovery"),
                    _ => {
                        e.recover_from_ssd_failure().unwrap();
                    }
                }
                assert!(e.z.dez.recount(), "seed {seed} step {step}");
                dez_pages_peak = dez_pages_peak.max(e.z.dez.len());
                live_peak = live_peak.max(e.z.dez.live_total());
            }
            assert!(dez_pages_peak >= 4 && live_peak > 0, "mix never exercised the DEZ");
        }
    }

    /// Two engines fed one seeded mix, `copied` with an empty-plan injector
    /// attached, which draws an outcome for every store op and must change
    /// nothing else (the name predates the single lend path). Reads
    /// must return the same bytes in the same simulated time and every
    /// counter must agree — and the mix must have reached each combine
    /// site: reads of staged and of DEZ-resident deltas, DEZ compaction,
    /// and both cleaner repairs.
    #[test]
    fn lent_and_copied_page_paths_agree() {
        let (mut lent, mut copied) = (pressure_engine(), pressure_engine());
        let injector = FaultInjector::none();
        copied.attach_fault_injector(injector.clone());
        // Eight pages per 16-page stripe group (one 8-way set each): whole
        // parity rows {r, r+4, r+8, r+12} in the first six groups, so the
        // cleaner can reconstruct-write them; half rows in the others.
        let lbas: Vec<u64> = (0..96u64)
            .map(|i| {
                let (group, k) = (i / 8, i % 8);
                group * 16 + if group < 6 { k % 4 * 4 + k / 4 } else { k }
            })
            .collect();
        let mut versions: FastMap<u64, Vec<u8>> = FastMap::default();
        let mut rng = seeded_rng(17);
        let (mut staged_reads, mut dez_reads, mut merged) = (0, 0, 0);
        let (mut rows_rebuilt, mut rows_folded) = (0, 0);
        for step in 0..4000u32 {
            let lba = lbas[rng.random_range(0..lbas.len())];
            // Long stretches of traffic build the DEZ pressure compaction
            // needs; a clean or a power cut ends each.
            match (step % 1000, rng.random_range(0..10u32)) {
                (0..=997, 0..=5) => {
                    let next = match versions.get(&lba) {
                        Some(prev) => nudged_page(prev, rng.random()),
                        None => page(lba),
                    };
                    let before = dez_slots(&lent);
                    let t = lent.write(lba, &next).unwrap();
                    assert_eq!(copied.write(lba, &next).unwrap(), t, "step {step}: write {lba}");
                    versions.insert(lba, next);
                    let after = dez_slots(&lent);
                    merged += before
                        .iter()
                        .filter(|&(l, s)| *l != lba && after.get(l).is_some_and(|now| now != s))
                        .count();
                }
                (0..=997, _) => {
                    match lent.z.dez.loc(lba) {
                        Some(DeltaLoc::Staged) => staged_reads += 1,
                        Some(DeltaLoc::Dez(_)) => dez_reads += 1,
                        None => {}
                    }
                    let got = lent.read(lba).unwrap();
                    assert_eq!(copied.read(lba).unwrap(), got, "step {step}: read {lba}");
                    if let Some(v) = versions.get(&lba) {
                        assert_eq!(&got.0, v, "step {step}: lba {lba}");
                    }
                }
                (998, _) => {
                    // The rows the pass takes, oldest first.
                    let mut pending = lent.z.pending.clone();
                    while let Some(row) = pending.oldest_row() {
                        pending.take_row_into(row, &mut Vec::new());
                        let mut lpns = lent.raid.layout().row_lpns(row);
                        if lpns.all(|l| lent.z.cache.lookup(l).is_some()) {
                            rows_rebuilt += 1;
                        } else {
                            rows_folded += 1;
                        }
                    }
                    let (mut ta, mut tb) = (SimTime::ZERO, SimTime::ZERO);
                    lent.clean(&mut ta).unwrap();
                    copied.clean(&mut tb).unwrap();
                    assert_eq!(ta, tb, "step {step}: clean");
                }
                _ => {
                    lent = lent.power_cycle().expect("recovery");
                    copied = copied.power_cycle().expect("recovery");
                }
            }
            assert_eq!(lent.stats(), copied.stats(), "step {step}");
        }
        assert!(
            staged_reads > 20 && dez_reads > 20,
            "{staged_reads} staged, {dez_reads} DEZ reads"
        );
        assert!(merged > 0, "compaction never merged a page");
        assert!(
            rows_rebuilt > 0 && rows_folded > 0,
            "{rows_rebuilt} rebuilt, {rows_folded} folded"
        );
        assert_eq!(lent.flush().unwrap(), copied.flush().unwrap());
        assert_eq!(lent.stats(), copied.stats());
        let disk_counters = |e: &KddEngine| -> Vec<(u64, u64)> {
            e.raid().stats().iter().map(|s| (s.reads, s.writes)).collect()
        };
        assert_eq!(disk_counters(&lent), disk_counters(&copied));
        let (wear_a, wear_b) = (lent.ssd().endurance(), copied.ssd().endurance());
        assert_eq!(wear_a.nand_written_bytes, wear_b.nand_written_bytes);
        assert_eq!(wear_a.erases, wear_b.erases);
        for row in 0..lent.raid().layout().rows() {
            assert_eq!(lent.raid_mut().verify_row(row), Ok(true), "row {row}");
            assert_eq!(copied.raid_mut().verify_row(row), Ok(true), "row {row}");
        }
        let (mut a, mut b) = (vec![0u8; PS as usize], vec![0u8; PS as usize]);
        for lpn in 0..lent.raid().capacity_pages() {
            lent.raid_mut().read_page(lpn, &mut a).unwrap();
            copied.raid_mut().read_page(lpn, &mut b).unwrap();
            assert_eq!(a, b, "member content of lpn {lpn}");
            if let Some(v) = versions.get(&lpn) {
                assert_eq!(&a, v, "lpn {lpn} on the array");
            }
        }
        assert!(injector.op_count() > 0 && injector.counters().injected == 0);
    }

    /// A metadata partition the live mapping set outgrows fails the
    /// request with an error; geometry that can never work is refused at
    /// construction.
    #[test]
    fn metadata_partition_too_small_is_an_error_not_a_panic() {
        // 256 slots over the 2-page floor: 2 × 22 entries.
        let mut e = engine(256);
        let wedged = (0..200u64).find_map(|i| e.write((i / 8) * 16 + i % 8, &page(i)).err());
        match wedged {
            Some(EngineError::Layout(why)) => assert!(why.contains("too small"), "{why}"),
            other => panic!("expected a layout error, got {other:?}"),
        }
        // A 32-byte page holds the 14-byte log header and no entry.
        let raid = RaidArray::new(Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8), 32);
        let ssd = SsdDevice::with_logical_capacity(128 * 32, 32, 0.1);
        let g = CacheGeometry { total_pages: 16, ways: 4, page_size: 32 };
        assert!(matches!(
            KddEngine::new(KddConfig::new(g), ssd, raid),
            Err(EngineError::Layout(_))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The one-pass victim choice equals elements 0 and 1 of the
        /// stable sort it replaced, on the same sequence, duplicate keys
        /// included — and the two keys it reports behind them are those of
        /// elements 2 and 3.
        #[test]
        fn two_smallest_matches_stable_sort(
            keys in proptest::collection::vec(0u32..5, 0..40),
        ) {
            let items: Vec<(usize, u32)> = keys.iter().copied().enumerate().collect();
            let mut sorted = items.clone();
            sorted.sort_by_key(|&(_, k)| k);
            let key_at = |i: usize| sorted.get(i).map(|&(_, k)| k);
            let expect = (sorted.len() >= 2)
                .then(|| TwoSmallest { pair: (sorted[0], sorted[1]), rest: [key_at(2), key_at(3)] });
            let got = two_smallest_by_key(items.iter().copied(), |&(_, k)| k);
            proptest::prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn endurance_counters_age_with_traffic() {
        let mut e = engine(64);
        for lba in 0..32u64 {
            e.write(lba, &page(lba)).unwrap();
        }
        let rep = e.ssd().endurance();
        assert!(rep.host_written_bytes > 0);
        assert!(rep.waf() >= 1.0);
    }

    #[test]
    fn too_small_ssd_rejected() {
        let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8);
        let raid = RaidArray::new(layout, PS);
        let ssd = SsdDevice::with_logical_capacity(16 * PS as u64, PS, 0.1);
        // Ask for a cache far larger than any geometry the tiny request
        // could have produced.
        let g = CacheGeometry { total_pages: 10_000_000, ways: 8, page_size: PS };
        assert!(matches!(
            KddEngine::new(KddConfig::new(g), ssd, raid),
            Err(EngineError::Layout(_))
        ));
    }

    /// A directory needs at least one whole set, and every slot it has
    /// must exist on the SSD; a last partial set is simply not used.
    #[test]
    fn impossible_geometry_rejected() {
        let build = |total_pages: u64, ways: u32, ssd_pages: u64| {
            let raid = RaidArray::new(Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8), PS);
            let ssd = SsdDevice::with_logical_capacity(ssd_pages * PS as u64, PS, 0.1);
            let g = CacheGeometry { total_pages, ways, page_size: PS };
            KddEngine::new(KddConfig::new(g), ssd, raid)
        };
        assert!(matches!(build(64, 0, 128), Err(EngineError::Layout(_))), "no ways");
        assert!(matches!(build(16, 64, 128), Err(EngineError::Layout(_))), "ways > pages");
        for (total_pages, ways) in [(100, 8), (200, 50), (64, 64)] {
            let e = build(total_pages, ways, 256).expect("a partial last set is fine");
            assert!(e.z.cache.slots() as u64 <= total_pages);
        }
        // DEZ offsets and lengths are 16-bit: 64 KiB pages are the largest.
        let build_paged = |page_size: u32| {
            let raid = RaidArray::new(Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8), page_size);
            let ssd = SsdDevice::with_logical_capacity(256 * u64::from(page_size), page_size, 0.1);
            let g = CacheGeometry { total_pages: 64, ways: 8, page_size };
            KddEngine::new(KddConfig::new(g), ssd, raid)
        };
        assert!(build_paged(65_536).is_ok(), "64 KiB pages");
        match build_paged(131_072) {
            Err(EngineError::Layout(msg)) => assert!(msg.contains("16-bit"), "{msg}"),
            other => panic!("128 KiB pages accepted: {:?}", other.err()),
        }
        // The capacity check counts the 57 × 64 slots the directory has.
        let e = build(3700, 64, 1).expect("3648 slots and the log fit the smallest SSD");
        assert!(e.ssd().capacity_pages() < e.meta_pages + 3700, "total_pages alone must not");
    }

    #[test]
    fn cleaning_threshold_bounds_pinned_pages() {
        let mut e = engine(64); // trigger ≈ 12 slots
        for round in 0..4u8 {
            for lba in 0..40u64 {
                let base = match e.read(lba) {
                    Ok((d, _)) => d,
                    Err(_) => page(lba),
                };
                e.write(lba, &similar_page(&base, round)).unwrap();
            }
        }
        let pinned =
            e.z.cache.count_state(PageState::Old) + e.z.cache.count_state(PageState::Delta);
        let trigger = KddConfig::new(CacheGeometry { total_pages: 64, ways: 8, page_size: PS })
            .clean_trigger_slots() as usize;
        assert!(pinned <= trigger, "pinned pages unbounded: {pinned} > {trigger}");
        assert!(e.stats().parity_updates > 0);
    }
}
