//! The SSD cache device: FTL + content store + timing.
//!
//! [`SsdDevice`] is what the cache layer writes to. It combines:
//!
//! * the [`Ftl`] for wear/write-amplification accounting and channel
//!   placement,
//! * a sparse [`MemStore`] holding actual page contents (keyed by logical
//!   page, since the FTL hides physical placement), and
//! * [`FlashTimings`] to produce per-operation service times.
//!
//! Sub-page writes (KDD's compacted delta pages are still whole-page
//! programs; the *metadata* log writes whole pages too) are charged a full
//! page program, as on real flash.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::error::{DevError, FaultDomain};
use crate::fault::FaultInjector;
use crate::flash::{FlashGeometry, FlashTimings};
use crate::ftl::{EnduranceReport, Ftl};
use crate::store::MemStore;
use kdd_util::units::SimTime;

/// An SSD with contents, wear accounting and service times.
///
/// # Examples
///
/// ```
/// use kdd_blockdev::SsdDevice;
///
/// let mut ssd = SsdDevice::with_logical_capacity(1 << 20, 4096, 0.07);
/// let page = vec![0xAB; 4096];
/// let t = ssd.write_page(3, &page).unwrap();
/// assert!(t.as_micros() >= 900, "MLC program time");
///
/// let mut buf = vec![0u8; 4096];
/// ssd.read_page(3, &mut buf).unwrap();
/// assert_eq!(buf, page);
/// assert_eq!(ssd.endurance().host_written_bytes, 4096);
/// ```
#[derive(Debug, Clone)]
pub struct SsdDevice {
    ftl: Ftl,
    /// The over-provisioning fraction the device was built with; a
    /// replacement is built from it, not from the rounded logical size.
    op_fraction: f64,
    store: MemStore,
}

impl SsdDevice {
    /// Create an SSD exposing at least `logical_bytes` of logical space.
    ///
    /// Physical capacity is sized up so that after over-provisioning
    /// (`op_fraction`) the logical space fits.
    pub fn with_logical_capacity(logical_bytes: u64, page_size: u32, op_fraction: f64) -> Self {
        let physical = (logical_bytes as f64 / (1.0 - op_fraction)).ceil() as u64;
        let geometry = FlashGeometry::fit_capacity(physical, page_size);
        let ftl = Ftl::new(geometry, FlashTimings::mlc_default(), op_fraction);
        let store = MemStore::new(ftl.logical_pages(), page_size);
        SsdDevice { ftl, op_fraction, store }
    }

    /// Create from explicit geometry/timings.
    pub fn new(geometry: FlashGeometry, timings: FlashTimings, op_fraction: f64) -> Self {
        let ftl = Ftl::new(geometry, timings, op_fraction);
        let store = MemStore::new(ftl.logical_pages(), geometry.page_size);
        SsdDevice { ftl, op_fraction, store }
    }

    /// Logical pages available to the cache layer.
    pub fn capacity_pages(&self) -> u64 {
        self.ftl.logical_pages()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.store.page_size()
    }

    /// Route every page I/O through `injector` as [`FaultDomain::Ssd`].
    pub fn attach_injector(&mut self, injector: FaultInjector) {
        self.store.attach_injector(injector, FaultDomain::Ssd);
    }

    /// Read a logical page; returns its service time.
    pub fn read_page(&self, lpn: u64, buf: &mut [u8]) -> Result<SimTime, DevError> {
        if self.store.is_failed() {
            return Err(DevError::failed(FaultDomain::Ssd));
        }
        let cost = self.ftl.read(lpn)?;
        self.store.read_page(lpn, buf)?;
        Ok(cost.service_time(self.ftl.timings()))
    }

    /// Lend a logical page for reading, with its service time: the same
    /// device operation as [`SsdDevice::read_page`] without the copy (see
    /// [`MemStore::page`] for when a private copy is lent instead).
    pub fn page(&mut self, lpn: u64) -> Result<(&[u8], SimTime), DevError> {
        if self.store.is_failed() {
            return Err(DevError::failed(FaultDomain::Ssd));
        }
        let time = self.ftl.read(lpn)?.service_time(self.ftl.timings());
        Ok((self.store.page(lpn)?, time))
    }

    /// Write a logical page; returns its service time (including any GC).
    pub fn write_page(&mut self, lpn: u64, data: &[u8]) -> Result<SimTime, DevError> {
        if self.store.is_failed() {
            return Err(DevError::failed(FaultDomain::Ssd));
        }
        let cost = self.ftl.write(lpn)?;
        self.store.write_page(lpn, data)?;
        Ok(cost.service_time(self.ftl.timings()))
    }

    /// Discard a logical page (cache eviction) — free for the flash.
    pub fn trim_page(&mut self, lpn: u64) -> Result<(), DevError> {
        if self.store.is_failed() {
            return Err(DevError::failed(FaultDomain::Ssd));
        }
        self.ftl.trim(lpn)?;
        self.store.trim_page(lpn)
    }

    /// Whether a logical page currently holds data.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        !self.store.is_failed() && self.ftl.is_mapped(lpn)
    }

    /// Inject an SSD failure: contents lost, all I/O errors until replaced.
    pub fn fail(&mut self) {
        self.store.fail();
    }

    /// Whether the device is failed.
    pub fn is_failed(&self) -> bool {
        self.store.is_failed()
    }

    /// Swap in a fresh replacement device of identical shape (see
    /// [`MemStore::replace`] for what the injector makes of it).
    pub fn replace(&mut self) {
        self.ftl = Ftl::new(*self.ftl.geometry(), *self.ftl.timings(), self.op_fraction);
        self.store.replace();
    }

    /// Endurance snapshot (wear, WAF, projected lifetime).
    pub fn endurance(&self) -> EnduranceReport {
        self.ftl.endurance()
    }

    /// Per-block erase counts (observability wear histogram).
    pub fn erase_counts(&self) -> impl Iterator<Item = u32> + '_ {
        self.ftl.erase_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ssd() -> SsdDevice {
        // ~8 MiB logical.
        SsdDevice::with_logical_capacity(8 << 20, 4096, 0.1)
    }

    #[test]
    fn logical_capacity_at_least_requested() {
        let d = small_ssd();
        assert!(d.capacity_pages() * 4096 >= 8 << 20);
    }

    #[test]
    fn rw_roundtrip_with_times() {
        let mut d = small_ssd();
        let data = vec![0x42u8; 4096];
        let tw = d.write_page(10, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        let tr = d.read_page(10, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert!(tw > tr, "program {tw} should cost more than read {tr}");
    }

    #[test]
    fn failure_and_replacement() {
        let mut d = small_ssd();
        d.write_page(0, &vec![9u8; 4096]).unwrap();
        d.fail();
        assert!(d.is_failed());
        let mut buf = vec![0u8; 4096];
        assert_eq!(d.read_page(0, &mut buf), Err(DevError::failed(FaultDomain::Ssd)));
        d.replace();
        assert!(!d.is_failed());
        assert!(!d.is_mapped(0), "replacement must be empty");
        assert_eq!(d.endurance().host_written_bytes, 0, "fresh wear counters");
    }

    /// A spare is exactly as large as the device it replaces. Recomputing
    /// the OP fraction from the truncated logical size lost a page on 22
    /// of these geometries (8 × 71 × 128 at OP 0.2: 58 163 → 58 162).
    #[test]
    fn replacement_keeps_the_logical_size() {
        let timings = FlashTimings::mlc_default();
        let mut short = Vec::new();
        for blocks_per_die in 4..400 {
            let geometry = FlashGeometry {
                channels: 8,
                dies_per_channel: 1,
                blocks_per_die,
                pages_per_block: 128,
                page_size: 512,
            };
            for op in [0.05, 0.07, 0.1, 0.2, 0.25, 0.3] {
                let mut d = SsdDevice::new(geometry, timings, op);
                let before = d.capacity_pages();
                d.fail();
                d.replace();
                if d.capacity_pages() != before {
                    short.push((blocks_per_die, op, before, d.capacity_pages()));
                }
            }
        }
        assert!(short.is_empty(), "{} spares changed size: {short:?}", short.len());
    }

    #[test]
    fn trim_unmaps() {
        let mut d = small_ssd();
        d.write_page(3, &vec![1u8; 4096]).unwrap();
        assert!(d.is_mapped(3));
        d.trim_page(3).unwrap();
        assert!(!d.is_mapped(3));
    }

    #[test]
    fn endurance_tracks_traffic() {
        let mut d = small_ssd();
        let data = vec![7u8; 4096];
        for i in 0..100 {
            d.write_page(i % 10, &data).unwrap();
        }
        let rep = d.endurance();
        assert_eq!(rep.host_written_bytes, 100 * 4096);
        assert!(rep.waf() >= 1.0);
    }
}
