//! Stripe geometry: mapping logical pages to (disk, disk-page) plus parity
//! placement.
//!
//! RAID-5 uses the *left-symmetric* layout (the Linux MD default the
//! paper's prototype runs on): parity rotates from the last disk toward
//! the first as the stripe number grows, and data units start on the disk
//! after the parity disk. RAID-6 places Q on the disk after P.
//!
//! Parity is page-granular: a **parity row** is one page on the parity
//! disk protecting the same-offset page of every data chunk in its stripe.
//! The row is the unit KDD tracks staleness at and the unit
//! `parity_update` repairs; `stripe` (the chunk-granular group) is what
//! the cache uses for set placement ("DAZ pages in the same parity stripe
//! are mapped to the same cache set", §III-B).

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

/// RAID level of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidLevel {
    /// Single rotating parity (left-symmetric).
    Raid5,
    /// P + Q (Reed–Solomon) rotating parity.
    Raid6,
}

impl RaidLevel {
    /// Number of parity units per stripe.
    pub fn parity_count(self) -> usize {
        match self {
            RaidLevel::Raid5 => 1,
            RaidLevel::Raid6 => 2,
        }
    }
}

/// Where a logical page lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLocation {
    /// Disk index within the array.
    pub disk: usize,
    /// Page offset within that disk.
    pub disk_page: u64,
    /// Chunk-granular stripe number.
    pub stripe: u64,
    /// Index of this page's data unit within its stripe (0-based).
    pub data_index: usize,
    /// Page-granular parity row this page belongs to.
    pub row: u64,
}

/// Immutable array geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// RAID level.
    pub level: RaidLevel,
    /// Total member disks.
    pub disks: usize,
    /// Pages per chunk (stripe unit). 64 KiB chunk / 4 KiB pages = 16.
    pub chunk_pages: u64,
    /// Capacity of each member disk, in pages (multiple of `chunk_pages`).
    pub disk_pages: u64,
}

impl Layout {
    /// Most member disks a layout may have: every member id fits a `u16`
    /// below `u16::MAX`, which the discrete-event replayer keeps as "no
    /// such member".
    pub const MAX_DISKS: usize = 65_535;

    /// Create a layout; validates the shape.
    ///
    /// # Panics
    /// Panics if there are too few disks for the level or more than
    /// [`Layout::MAX_DISKS`], `chunk_pages` is zero, or `disk_pages` is not
    /// a multiple of `chunk_pages`.
    pub fn new(level: RaidLevel, disks: usize, chunk_pages: u64, disk_pages: u64) -> Self {
        let min_disks = 2 + level.parity_count();
        assert!(disks >= min_disks, "{level:?} needs at least {min_disks} disks");
        assert!(disks <= Self::MAX_DISKS, "at most {} member disks", Self::MAX_DISKS);
        assert!(chunk_pages > 0, "chunk must hold at least one page");
        assert!(disk_pages > 0 && disk_pages % chunk_pages == 0, "disk size must be whole chunks");
        Layout { level, disks, chunk_pages, disk_pages }
    }

    /// Data units per stripe.
    pub fn data_disks(&self) -> usize {
        self.disks - self.level.parity_count()
    }

    /// Logical data pages the array exposes.
    pub fn capacity_pages(&self) -> u64 {
        self.disk_pages / self.chunk_pages * self.chunk_pages * self.data_disks() as u64
    }

    /// Number of stripes.
    pub fn stripes(&self) -> u64 {
        self.disk_pages / self.chunk_pages
    }

    /// Number of parity rows (pages per stripe × stripes).
    pub fn rows(&self) -> u64 {
        self.stripes() * self.chunk_pages
    }

    /// Pages of logical data protected by one parity row.
    pub fn row_width(&self) -> usize {
        self.data_disks()
    }

    /// Parity (P) disk of a stripe, left-symmetric: parity walks backwards
    /// from the last disk.
    pub fn parity_disk(&self, stripe: u64) -> usize {
        ((self.disks as u64 - 1) - (stripe % self.disks as u64)) as usize
    }

    /// Q-parity disk of a stripe; `None` unless RAID-6.
    pub fn q_disk(&self, stripe: u64) -> Option<usize> {
        match self.level {
            RaidLevel::Raid6 => Some((self.parity_disk(stripe) + 1) % self.disks),
            RaidLevel::Raid5 => None,
        }
    }

    /// Disk holding data unit `d` of `stripe`: data units start on the disk
    /// after the last parity unit.
    pub fn data_disk(&self, stripe: u64, d: usize) -> usize {
        debug_assert!(d < self.data_disks());
        (self.parity_disk(stripe) + self.level.parity_count() + d) % self.disks
    }

    /// Locate a logical page.
    ///
    /// # Panics
    /// Panics if `lpn` is beyond [`Layout::capacity_pages`].
    pub fn locate(&self, lpn: u64) -> PageLocation {
        assert!(lpn < self.capacity_pages(), "lpn {lpn} beyond capacity");
        let chunk = lpn / self.chunk_pages;
        let offset = lpn % self.chunk_pages;
        let dd = self.data_disks() as u64;
        let stripe = chunk / dd;
        let data_index = (chunk % dd) as usize;
        let disk = self.data_disk(stripe, data_index);
        PageLocation {
            disk,
            disk_page: stripe * self.chunk_pages + offset,
            stripe,
            data_index,
            row: stripe * self.chunk_pages + offset,
        }
    }

    /// Chunk-granular stripe of a logical page.
    fn stripe_of(&self, lpn: u64) -> u64 {
        lpn / (self.chunk_pages * self.data_disks() as u64)
    }

    /// Parity row of a logical page.
    pub fn row_of(&self, lpn: u64) -> u64 {
        let stripe = self.stripe_of(lpn);
        stripe * self.chunk_pages + lpn % self.chunk_pages
    }

    /// Stripe that owns a parity row.
    pub fn stripe_of_row(&self, row: u64) -> u64 {
        row / self.chunk_pages
    }

    /// The logical pages protected by parity row `row`, in data-index
    /// order: one chunk apart, from [`Layout::row_first_lpn`] on.
    pub fn row_lpns(&self, row: u64) -> impl ExactSizeIterator<Item = u64> {
        let (first, chunk) = (self.row_first_lpn(row), self.chunk_pages);
        (0..self.data_disks()).map(move |d| first + d as u64 * chunk)
    }

    /// First logical page of parity row `row`, for scans that only need the
    /// row's cache set.
    pub fn row_first_lpn(&self, row: u64) -> u64 {
        let stripe = row / self.chunk_pages;
        let offset = row % self.chunk_pages;
        stripe * self.data_disks() as u64 * self.chunk_pages + offset
    }

    /// Disk page where parity row `row` stores P.
    pub fn parity_location(&self, row: u64) -> (usize, u64) {
        let stripe = row / self.chunk_pages;
        let offset = row % self.chunk_pages;
        (self.parity_disk(stripe), stripe * self.chunk_pages + offset)
    }

    /// Disk page where parity row `row` stores Q.
    pub fn q_location(&self, row: u64) -> Option<(usize, u64)> {
        let stripe = row / self.chunk_pages;
        let offset = row % self.chunk_pages;
        self.q_disk(stripe).map(|d| (d, stripe * self.chunk_pages + offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l5() -> Layout {
        Layout::new(RaidLevel::Raid5, 5, 16, 16 * 64)
    }

    #[test]
    fn capacity_excludes_parity() {
        let l = l5();
        assert_eq!(l.data_disks(), 4);
        assert_eq!(l.capacity_pages(), 64 * 16 * 4);
        let l6 = Layout::new(RaidLevel::Raid6, 6, 16, 16 * 8);
        assert_eq!(l6.data_disks(), 4);
    }

    #[test]
    fn parity_rotates_left_symmetric() {
        let l = l5();
        let ps: Vec<usize> = (0..5).map(|s| l.parity_disk(s)).collect();
        assert_eq!(ps, vec![4, 3, 2, 1, 0]);
        assert_eq!(l.parity_disk(5), 4); // wraps
    }

    #[test]
    fn data_never_lands_on_parity() {
        let l = l5();
        for stripe in 0..20 {
            let p = l.parity_disk(stripe);
            for d in 0..l.data_disks() {
                assert_ne!(l.data_disk(stripe, d), p, "stripe {stripe} unit {d}");
            }
        }
        let l6 = Layout::new(RaidLevel::Raid6, 6, 8, 8 * 10);
        for stripe in 0..20 {
            let p = l6.parity_disk(stripe);
            let q = l6.q_disk(stripe).unwrap();
            assert_ne!(p, q);
            for d in 0..l6.data_disks() {
                let dd = l6.data_disk(stripe, d);
                assert_ne!(dd, p);
                assert_ne!(dd, q);
            }
        }
    }

    #[test]
    fn locate_is_injective_per_disk() {
        let l = l5();
        let mut seen = std::collections::BTreeSet::new();
        for lpn in 0..l.capacity_pages() {
            let loc = l.locate(lpn);
            assert!(loc.disk < l.disks);
            assert!(loc.disk_page < l.disk_pages);
            assert!(seen.insert((loc.disk, loc.disk_page)), "collision at lpn {lpn}");
        }
    }

    #[test]
    fn row_lpns_roundtrip() {
        for l in [l5(), Layout::new(RaidLevel::Raid6, 6, 8, 8 * 10)] {
            for row in 0..l.rows() {
                let lpns: Vec<u64> = l.row_lpns(row).collect();
                assert_eq!(l.row_lpns(row).len(), l.row_width());
                assert_eq!(lpns.first(), Some(&l.row_first_lpn(row)));
                for &lpn in &lpns {
                    assert_eq!(l.row_of(lpn), row, "lpn {lpn} row mismatch");
                }
                // All pages of a row share the stripe.
                let s = l.stripe_of_row(row);
                for &lpn in &lpns {
                    assert_eq!(l.stripe_of(lpn), s);
                }
            }
        }
    }

    #[test]
    fn row_members_on_distinct_disks() {
        let l = l5();
        for row in 0..64 {
            let mut disks: Vec<usize> = l.row_lpns(row).map(|p| l.locate(p).disk).collect();
            disks.push(l.parity_location(row).0);
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(disks.len(), l.data_disks() + 1, "row {row} shares a disk");
        }
    }

    #[test]
    fn sequential_chunks_stripe_across_disks() {
        let l = l5();
        // First 4 chunks of stripe 0 must land on 4 different disks.
        let disks: Vec<usize> = (0..4).map(|c| l.locate(c * 16).disk).collect();
        let mut sorted = disks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "chunks not spread: {disks:?}");
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn locate_out_of_range_panics() {
        let l = l5();
        l.locate(l.capacity_pages());
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_few_disks_rejected() {
        Layout::new(RaidLevel::Raid6, 3, 8, 64);
    }

    #[test]
    #[should_panic(expected = "at most 65535 member disks")]
    fn more_members_than_a_u16_id_holds_rejected() {
        assert_eq!(Layout::new(RaidLevel::Raid5, Layout::MAX_DISKS, 1, 1).disks, 65_535);
        Layout::new(RaidLevel::Raid5, Layout::MAX_DISKS + 1, 1, 1);
    }
}
