//! NAND flash geometry and raw operation timings.
//!
//! Flash is read/programmed in pages and erased in blocks (64–128 pages);
//! blocks sustain a finite number of erasures (§II-A). Geometry matters to
//! the reproduction for two reasons: the FTL's write amplification depends
//! on block size and over-provisioning, and the SSD's channel count gives
//! the internal parallelism KDD exploits to read data+delta concurrently
//! (§IV-B2).

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd_util::units::SimTime;
use serde::{Deserialize, Serialize};

/// Physical layout of a NAND flash device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashGeometry {
    /// Independent channels (command parallelism).
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// Erase blocks per die.
    pub blocks_per_die: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_size: u32,
}

impl FlashGeometry {
    /// Geometry sized to hold at least `capacity_bytes` of physical flash,
    /// shaped like a small commodity MLC cache device (8 channels,
    /// 128-page blocks, 4 KiB pages).
    pub fn fit_capacity(capacity_bytes: u64, page_size: u32) -> Self {
        let channels = 8u32;
        let dies_per_channel = 1u32;
        let pages_per_block = 128u32;
        let block_bytes = pages_per_block as u64 * page_size as u64;
        let blocks_needed = capacity_bytes.div_ceil(block_bytes);
        let blocks_per_die =
            (blocks_needed.div_ceil(channels as u64 * dies_per_channel as u64)).max(4) as u32;
        FlashGeometry { channels, dies_per_channel, blocks_per_die, pages_per_block, page_size }
    }

    /// Total erase blocks.
    pub fn total_blocks(&self) -> u64 {
        self.channels as u64 * self.dies_per_channel as u64 * self.blocks_per_die as u64
    }

    /// Total physical pages.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Total physical bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Channel that owns physical block `block` (blocks are striped
    /// round-robin across channels so sequential allocation spreads load).
    pub fn channel_of_block(&self, block: u64) -> u32 {
        (block % self.channels as u64) as u32
    }
}

/// Raw NAND operation latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashTimings {
    /// Page read (cell sense) time.
    pub read_page: SimTime,
    /// Page program time.
    pub program_page: SimTime,
    /// Block erase time.
    pub erase_block: SimTime,
    /// Bus transfer time for one page over its channel.
    pub xfer_page: SimTime,
    /// Rated program/erase cycles per block before wear-out.
    pub rated_pe_cycles: u32,
}

impl FlashTimings {
    /// Typical MLC NAND (the paper's endurance discussion assumes MLC with
    /// 5 000–10 000 cycles; we default to the midpoint).
    pub fn mlc_default() -> Self {
        FlashTimings {
            read_page: SimTime::from_micros(50),
            program_page: SimTime::from_micros(900),
            erase_block: SimTime::from_micros(3_500),
            xfer_page: SimTime::from_micros(20),
            rated_pe_cycles: 7_500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_capacity_covers_request() {
        for gib in [1u64, 4, 120] {
            let bytes = gib * 1024 * 1024 * 1024;
            let g = FlashGeometry::fit_capacity(bytes, 4096);
            assert!(g.capacity_bytes() >= bytes, "{gib}GiB: got {}", g.capacity_bytes());
            // No more than one block of slack per die.
            let slack = g.capacity_bytes() - bytes;
            let max_slack =
                g.channels as u64 * g.dies_per_channel as u64 * g.pages_per_block as u64 * 4096;
            assert!(slack <= max_slack, "slack {slack} > {max_slack}");
        }
    }

    #[test]
    fn geometry_arithmetic() {
        let g = FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 10,
            pages_per_block: 64,
            page_size: 4096,
        };
        assert_eq!(g.total_blocks(), 40);
        assert_eq!(g.total_pages(), 2560);
        assert_eq!(g.capacity_bytes(), 2560 * 4096);
    }

    #[test]
    fn channels_cover_blocks() {
        let g = FlashGeometry::fit_capacity(1 << 30, 4096);
        let mut seen = vec![false; g.channels as usize];
        for b in 0..g.channels as u64 * 2 {
            seen[g.channel_of_block(b) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
