//! Page-mapped flash translation layer with greedy GC and wear accounting.
//!
//! The paper's endurance argument is stated in *bytes written to the SSD*;
//! the FTL turns those bytes into erase cycles (including the write
//! amplification of garbage collection) so the repository can report real
//! lifetime numbers: a cache policy that writes 5.1× less data makes the
//! device last ~5.1× longer at equal write amplification (§IV-A3).
//!
//! Design: logical pages map to physical pages; writes go to per-channel
//! open blocks (round-robin for channel parallelism); when free blocks run
//! low a greedy collector victimises the block with the fewest valid pages,
//! relocates them, and erases it. Per-block erase counts model wear, and a
//! block past its rated P/E cycles is retired.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::error::{DevError, FaultDomain};
use crate::flash::{FlashGeometry, FlashTimings};
use kdd_util::units::SimTime;
use serde::{Deserialize, Serialize};

const UNMAPPED: u64 = u64::MAX;

/// What one host operation cost the flash array (for the timing layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlashOpCost {
    /// Channel the final page landed on / was read from.
    pub channel: u32,
    /// NAND pages programmed (1 host page + GC relocations).
    pub pages_programmed: u64,
    /// NAND pages read (GC relocations).
    pub pages_read: u64,
    /// Blocks erased.
    pub erases: u64,
}

impl FlashOpCost {
    /// Total device-busy time implied by this op, assuming the GC work is
    /// serialised on the op's channel (a pessimistic but simple bound; the
    /// discrete-event simulator can overlap channels instead).
    pub fn service_time(&self, t: &FlashTimings) -> SimTime {
        t.xfer_page * (self.pages_programmed + self.pages_read)
            + t.program_page * self.pages_programmed
            + t.read_page * self.pages_read
            + t.erase_block * self.erases
    }
}

/// Cumulative endurance statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EnduranceReport {
    /// Bytes the host wrote to the device.
    pub host_written_bytes: u64,
    /// Bytes physically programmed to NAND (host + GC relocation).
    pub nand_written_bytes: u64,
    /// Total block erasures.
    pub erases: u64,
    /// Mean erase count over all blocks.
    pub mean_erase_count: f64,
    /// Maximum erase count over all blocks.
    pub max_erase_count: u32,
    /// Rated P/E cycles per block.
    pub rated_pe_cycles: u32,
    /// Fraction of rated life consumed (mean erase / rated).
    pub life_used: f64,
}

impl EnduranceReport {
    /// Write amplification factor (NAND bytes / host bytes); 1.0 if no
    /// host writes yet.
    pub fn waf(&self) -> f64 {
        if self.host_written_bytes == 0 {
            1.0
        } else {
            self.nand_written_bytes as f64 / self.host_written_bytes as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Free,
    Open,
    Full,
    Retired,
}

#[derive(Debug, Clone)]
struct Block {
    state: BlockState,
    valid: u32,
    write_ptr: u32,
    erase_count: u32,
}

/// Page-mapped FTL over a [`FlashGeometry`].
#[derive(Debug, Clone)]
pub struct Ftl {
    geometry: FlashGeometry,
    timings: FlashTimings,
    /// Logical capacity exposed to the host (after over-provisioning).
    logical_pages: u64,
    map: Vec<u64>,
    rmap: Vec<u64>,
    blocks: Vec<Block>,
    /// Open block per channel, or UNMAPPED.
    open_blocks: Vec<u64>,
    free_blocks: u64,
    gc_threshold: u64,
    host_pages_written: u64,
    nand_pages_written: u64,
    erases: u64,
}

impl Ftl {
    /// Build an FTL with the given over-provisioning fraction (e.g. 0.07).
    ///
    /// # Panics
    /// Panics if `op_fraction` is not in `[0.02, 0.5]` — below ~2 % the
    /// greedy collector livelocks, above 50 % is outside any real device.
    pub fn new(geometry: FlashGeometry, timings: FlashTimings, op_fraction: f64) -> Self {
        assert!((0.02..=0.5).contains(&op_fraction), "unrealistic over-provisioning");
        let physical = geometry.total_pages();
        let logical_pages = ((physical as f64) * (1.0 - op_fraction)) as u64;
        let total_blocks = geometry.total_blocks() as usize;
        let gc_threshold = (geometry.channels as u64 + 2).min(geometry.total_blocks() / 4).max(2);
        Ftl {
            geometry,
            timings,
            logical_pages,
            map: vec![UNMAPPED; logical_pages as usize],
            rmap: vec![UNMAPPED; physical as usize],
            blocks: vec![
                Block { state: BlockState::Free, valid: 0, write_ptr: 0, erase_count: 0 };
                total_blocks
            ],
            open_blocks: vec![UNMAPPED; geometry.channels as usize],
            free_blocks: total_blocks as u64,
            gc_threshold,
            host_pages_written: 0,
            nand_pages_written: 0,
            erases: 0,
        }
    }

    /// Logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// The device geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The device timings.
    pub fn timings(&self) -> &FlashTimings {
        &self.timings
    }

    #[inline]
    fn block_of_ppn(&self, ppn: u64) -> u64 {
        ppn / self.geometry.pages_per_block as u64
    }

    fn check_lpn(&self, lpn: u64) -> Result<(), DevError> {
        if lpn >= self.logical_pages {
            Err(DevError::OutOfRange { lpn, capacity: self.logical_pages })
        } else {
            Ok(())
        }
    }

    /// Translate a logical page for reading; returns the channel it lives
    /// on, or `Unmapped` if never written.
    pub fn read(&self, lpn: u64) -> Result<FlashOpCost, DevError> {
        self.check_lpn(lpn)?;
        let ppn = self.map[lpn as usize];
        if ppn == UNMAPPED {
            return Err(DevError::Unmapped { lpn });
        }
        Ok(FlashOpCost {
            channel: self.geometry.channel_of_block(self.block_of_ppn(ppn)),
            pages_read: 1,
            ..Default::default()
        })
    }

    /// Whether a logical page is currently mapped.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        lpn < self.logical_pages && self.map[lpn as usize] != UNMAPPED
    }

    /// Write (or overwrite) a logical page; returns the cost including any
    /// garbage collection it triggered.
    pub fn write(&mut self, lpn: u64) -> Result<FlashOpCost, DevError> {
        self.check_lpn(lpn)?;
        let mut cost = FlashOpCost::default();
        // Invalidate the old copy first: its space becomes reclaimable.
        let old = self.map[lpn as usize];
        if old != UNMAPPED {
            self.invalidate_ppn(old);
        }
        let ppn = self.allocate_page(lpn, &mut cost)?;
        self.map[lpn as usize] = ppn;
        self.rmap[ppn as usize] = lpn;
        cost.pages_programmed += 1;
        cost.channel = self.geometry.channel_of_block(self.block_of_ppn(ppn));
        self.host_pages_written = self.host_pages_written.saturating_add(1);
        self.nand_pages_written = self.nand_pages_written.saturating_add(1);
        Ok(cost)
    }

    /// Discard a logical page (cache eviction); frees its flash space
    /// without any NAND write.
    pub fn trim(&mut self, lpn: u64) -> Result<(), DevError> {
        self.check_lpn(lpn)?;
        let ppn = self.map[lpn as usize];
        if ppn != UNMAPPED {
            self.invalidate_ppn(ppn);
            self.map[lpn as usize] = UNMAPPED;
        }
        Ok(())
    }

    fn invalidate_ppn(&mut self, ppn: u64) {
        let b = self.block_of_ppn(ppn) as usize;
        debug_assert!(self.blocks[b].valid > 0);
        self.blocks[b].valid -= 1;
        self.rmap[ppn as usize] = UNMAPPED;
    }

    /// Allocate one physical page, running GC if free space is low.
    fn allocate_page(&mut self, _for_lpn: u64, cost: &mut FlashOpCost) -> Result<u64, DevError> {
        if self.free_blocks <= self.gc_threshold {
            self.collect(cost)?;
        }
        // Round-robin over channels: pick the channel whose open block has
        // the lowest fill (spreads programs across channels).
        let ppb = self.geometry.pages_per_block as u64;
        for attempt in 0..2 {
            let mut best: Option<(usize, u32)> = None;
            for (ch, &ob) in self.open_blocks.iter().enumerate() {
                if ob != UNMAPPED {
                    let wp = self.blocks[ob as usize].write_ptr;
                    if best.is_none_or(|(_, bwp)| wp < bwp) {
                        best = Some((ch, wp));
                    }
                }
            }
            if let Some((ch, _)) = best {
                let ob = self.open_blocks[ch];
                let blk = &mut self.blocks[ob as usize];
                let ppn = ob * ppb + blk.write_ptr as u64;
                blk.write_ptr += 1;
                blk.valid += 1;
                if blk.write_ptr == self.geometry.pages_per_block {
                    blk.state = BlockState::Full;
                    self.open_blocks[ch] = UNMAPPED;
                }
                return Ok(ppn);
            }
            // No open block anywhere: open one per channel from the free list.
            if attempt == 0 {
                self.open_channel_blocks()?;
            }
        }
        Err(DevError::failed(FaultDomain::Ssd))
    }

    /// Open a free block on every channel that lacks one.
    fn open_channel_blocks(&mut self) -> Result<(), DevError> {
        let channels = self.geometry.channels as usize;
        for ch in 0..channels {
            if self.open_blocks[ch] != UNMAPPED {
                continue;
            }
            // Wear-levelling flavour: among free blocks on this channel,
            // choose the one with the lowest erase count.
            let mut chosen: Option<(u64, u32)> = None;
            for b in 0..self.blocks.len() as u64 {
                if self.geometry.channel_of_block(b) as usize == ch
                    && self.blocks[b as usize].state == BlockState::Free
                {
                    let ec = self.blocks[b as usize].erase_count;
                    if chosen.is_none_or(|(_, best)| ec < best) {
                        chosen = Some((b, ec));
                    }
                }
            }
            if let Some((b, _)) = chosen {
                self.blocks[b as usize].state = BlockState::Open;
                self.blocks[b as usize].write_ptr = 0;
                self.open_blocks[ch] = b;
                self.free_blocks -= 1;
            }
        }
        if self.open_blocks.iter().all(|&b| b == UNMAPPED) {
            return Err(DevError::failed(FaultDomain::Ssd));
        }
        Ok(())
    }

    /// Greedy garbage collection: victimise full blocks with the fewest
    /// valid pages until the free pool is above threshold.
    fn collect(&mut self, cost: &mut FlashOpCost) -> Result<(), DevError> {
        let ppb = self.geometry.pages_per_block as u64;
        let mut guard = 0;
        while self.free_blocks <= self.gc_threshold {
            guard += 1;
            if guard > self.blocks.len() * 2 {
                return Err(DevError::failed(FaultDomain::Ssd)); // no reclaimable space
            }
            let mut victim: Option<(u64, u32)> = None;
            for b in 0..self.blocks.len() as u64 {
                let blk = &self.blocks[b as usize];
                if blk.state == BlockState::Full && victim.is_none_or(|(_, v)| blk.valid < v) {
                    victim = Some((b, blk.valid));
                }
            }
            let Some((vb, valid)) = victim else {
                return Err(DevError::failed(FaultDomain::Ssd));
            };
            // Relocate valid pages.
            if valid > 0 {
                let mut moved = 0;
                for p in 0..ppb {
                    let ppn = vb * ppb + p;
                    let lpn = self.rmap[ppn as usize];
                    if lpn != UNMAPPED {
                        // GC read + program.
                        cost.pages_read += 1;
                        // Mark the source invalid before reallocating so the
                        // victim's valid count drains.
                        self.invalidate_ppn(ppn);
                        let new_ppn = self.allocate_page_for_gc(vb)?;
                        self.map[lpn as usize] = new_ppn;
                        self.rmap[new_ppn as usize] = lpn;
                        cost.pages_programmed += 1;
                        self.nand_pages_written = self.nand_pages_written.saturating_add(1);
                        moved += 1;
                    }
                }
                debug_assert_eq!(moved, valid);
            }
            // Erase the victim.
            let blk = &mut self.blocks[vb as usize];
            blk.erase_count = blk.erase_count.saturating_add(1);
            blk.write_ptr = 0;
            blk.valid = 0;
            self.erases = self.erases.saturating_add(1);
            cost.erases = cost.erases.saturating_add(1);
            if blk.erase_count >= self.timings.rated_pe_cycles {
                blk.state = BlockState::Retired;
                // Retired blocks never return to the pool; if everything is
                // retired the device is worn out.
                if self.blocks.iter().all(|b| b.state == BlockState::Retired) {
                    return Err(DevError::WornOut { block: vb });
                }
            } else {
                blk.state = BlockState::Free;
                self.free_blocks += 1;
            }
        }
        Ok(())
    }

    /// Allocation for GC relocation: must not recurse into GC, and must not
    /// target the victim block.
    fn allocate_page_for_gc(&mut self, victim: u64) -> Result<u64, DevError> {
        let ppb = self.geometry.pages_per_block as u64;
        loop {
            // Prefer any open block with room.
            if let Some(ch) = (0..self.open_blocks.len()).find(|&ch| {
                let ob = self.open_blocks[ch];
                ob != UNMAPPED && ob != victim
            }) {
                let ob = self.open_blocks[ch];
                let blk = &mut self.blocks[ob as usize];
                let ppn = ob * ppb + blk.write_ptr as u64;
                blk.write_ptr += 1;
                blk.valid += 1;
                if blk.write_ptr == self.geometry.pages_per_block {
                    blk.state = BlockState::Full;
                    self.open_blocks[ch] = UNMAPPED;
                }
                return Ok(ppn);
            }
            self.open_channel_blocks()?;
        }
    }

    /// Per-block erase counts, in physical block order (feeds the
    /// observability wear histogram without exposing `Block`).
    pub fn erase_counts(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.iter().map(|b| b.erase_count)
    }

    /// Endurance snapshot.
    pub fn endurance(&self) -> EnduranceReport {
        let page_bytes = self.geometry.page_size as u64;
        let n = self.blocks.len() as f64;
        let mean = self.blocks.iter().map(|b| b.erase_count as f64).sum::<f64>() / n;
        let max = self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0);
        EnduranceReport {
            host_written_bytes: self.host_pages_written * page_bytes,
            nand_written_bytes: self.nand_pages_written * page_bytes,
            erases: self.erases,
            mean_erase_count: mean,
            max_erase_count: max,
            rated_pe_cycles: self.timings.rated_pe_cycles,
            life_used: mean / self.timings.rated_pe_cycles as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ftl() -> Ftl {
        let g = FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            blocks_per_die: 32,
            pages_per_block: 16,
            page_size: 4096,
        };
        Ftl::new(g, FlashTimings::mlc_default(), 0.25)
    }

    #[test]
    fn logical_capacity_respects_op() {
        let f = small_ftl();
        // 64 blocks * 16 pages = 1024 physical; 25% OP => 768 logical.
        assert_eq!(f.logical_pages(), 768);
    }

    #[test]
    fn write_then_read_maps() {
        let mut f = small_ftl();
        assert!(matches!(f.read(5), Err(DevError::Unmapped { .. })));
        let c = f.write(5).unwrap();
        assert_eq!(c.pages_programmed, 1);
        assert!(f.is_mapped(5));
        let r = f.read(5).unwrap();
        assert_eq!(r.pages_read, 1);
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let mut f = small_ftl();
        f.write(1).unwrap();
        f.write(1).unwrap();
        let rep = f.endurance();
        assert_eq!(rep.host_written_bytes, 2 * 4096);
        // Exactly one page valid for lpn 1.
        let total_valid: u32 = f.blocks.iter().map(|b| b.valid).sum();
        assert_eq!(total_valid, 1);
    }

    #[test]
    fn trim_frees_space_without_writes() {
        let mut f = small_ftl();
        f.write(2).unwrap();
        let before = f.endurance().nand_written_bytes;
        f.trim(2).unwrap();
        assert!(!f.is_mapped(2));
        assert_eq!(f.endurance().nand_written_bytes, before);
        assert!(matches!(f.read(2), Err(DevError::Unmapped { .. })));
    }

    #[test]
    fn sequential_fill_has_waf_one() {
        let mut f = small_ftl();
        for lpn in 0..f.logical_pages() {
            f.write(lpn).unwrap();
        }
        let rep = f.endurance();
        assert!(rep.waf() < 1.01, "sequential fill WAF {}", rep.waf());
    }

    #[test]
    fn overwrite_churn_triggers_gc_and_waf() {
        let mut f = small_ftl();
        // Fill the device, then overwrite hot pages far beyond capacity.
        for lpn in 0..f.logical_pages() {
            f.write(lpn).unwrap();
        }
        for i in 0..(f.logical_pages() * 6) {
            f.write(i % f.logical_pages()).unwrap();
        }
        let rep = f.endurance();
        assert!(rep.erases > 0, "GC never ran");
        assert!(rep.waf() >= 1.0);
        assert!(rep.waf() < 3.0, "WAF blew up: {}", rep.waf());
        // Every logical page still readable.
        for lpn in 0..f.logical_pages() {
            f.read(lpn).unwrap();
        }
    }

    #[test]
    fn gc_preserves_mapping_integrity() {
        let mut f = small_ftl();
        for round in 0..8u64 {
            for lpn in 0..f.logical_pages() {
                if (lpn + round) % 3 != 0 {
                    f.write(lpn).unwrap();
                }
            }
        }
        // rmap/map must agree everywhere.
        for lpn in 0..f.logical_pages() {
            let ppn = f.map[lpn as usize];
            if ppn != UNMAPPED {
                assert_eq!(f.rmap[ppn as usize], lpn, "rmap broken at lpn {lpn}");
            }
        }
        // Per-block valid counts must match the rmap.
        for (b, blk) in f.blocks.iter().enumerate() {
            let counted = (0..f.geometry.pages_per_block as u64)
                .filter(|&p| f.rmap[b * 16 + p as usize] != UNMAPPED)
                .count() as u32;
            assert_eq!(blk.valid, counted, "valid count wrong in block {b}");
        }
    }

    #[test]
    fn wear_levelling_bounds_skew() {
        let mut f = small_ftl();
        for i in 0..f.logical_pages() * 20 {
            f.write(i % 64).unwrap(); // tiny hot set
        }
        let rep = f.endurance();
        assert!(
            rep.max_erase_count as f64 <= (rep.mean_erase_count + 1.0) * 8.0 + 4.0,
            "wear skew too large: max {} mean {}",
            rep.max_erase_count,
            rep.mean_erase_count
        );
    }

    /// Fills the device, then overwrites every third page until a write
    /// relocates live pages (GC ran and its victim still held valid data)
    /// or the device gives up; returns whether a relocation happened.
    fn churn_until_relocation(f: &mut Ftl) -> bool {
        for lpn in 0..f.logical_pages() {
            f.write(lpn).unwrap();
        }
        for i in 0..f.logical_pages() * 8 {
            match f.write((i * 3) % f.logical_pages()) {
                Ok(cost) if cost.pages_read > 0 => return true,
                Ok(_) => {}
                Err(_) => return false,
            }
        }
        false
    }

    /// The endurance counters saturate instead of wrapping (or panicking:
    /// tests run with overflow checks on).
    #[test]
    fn erase_counts_saturate() {
        let mut f = small_ftl();
        for blk in &mut f.blocks {
            blk.erase_count = u32::MAX;
        }
        f.erases = u64::MAX;
        // A victim erased at `u32::MAX` is past any rating, so it retires,
        // and the device may wear out before anything is relocated.
        churn_until_relocation(&mut f);
        assert!(f.blocks.iter().any(|b| b.state == BlockState::Retired), "GC never erased");
        assert!(f.erase_counts().all(|ec| ec == u32::MAX));
        assert_eq!(f.erases, u64::MAX);
    }

    #[test]
    fn page_counters_saturate() {
        let mut f = small_ftl();
        f.host_pages_written = u64::MAX;
        f.nand_pages_written = u64::MAX;
        assert!(churn_until_relocation(&mut f), "GC never relocated a page");
        assert_eq!(f.host_pages_written, u64::MAX);
        assert_eq!(f.nand_pages_written, u64::MAX);
    }

    #[test]
    fn out_of_range_lpn() {
        let mut f = small_ftl();
        let lp = f.logical_pages();
        assert!(matches!(f.write(lp), Err(DevError::OutOfRange { .. })));
        assert!(matches!(f.read(lp), Err(DevError::OutOfRange { .. })));
    }

    #[test]
    fn op_cost_service_time_positive() {
        let mut f = small_ftl();
        let c = f.write(0).unwrap();
        let t = c.service_time(f.timings());
        assert!(t >= SimTime::from_micros(900), "program too fast: {t}");
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn silly_op_fraction_rejected() {
        let g = FlashGeometry::fit_capacity(1 << 24, 4096);
        let _ = Ftl::new(g, FlashTimings::mlc_default(), 0.001);
    }
}
