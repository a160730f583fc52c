//! Mechanical-disk service-time model.
//!
//! A small-write to parity RAID costs four disk I/Os, each paying seek +
//! rotational latency; that ~10 ms per op versus ~0.1 ms for the SSD is
//! the entire performance story of Figures 9–11. The model here follows
//! the classic Ruemmler & Wilkes decomposition:
//!
//! * **seek** — `a + b*sqrt(d)` for short seeks, linear for long ones,
//!   where `d` is the cylinder distance;
//! * **rotation** — uniform in `[0, full revolution)` approximated by its
//!   mean for analytic determinism, or sampled when a RNG is supplied;
//! * **transfer** — bytes / media rate.
//!
//! Defaults approximate the paper's 7200 RPM 1 TB drives.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use kdd_util::units::SimTime;

/// Service-time model for one hard disk drive.
#[derive(Debug, Clone)]
pub struct HddModel {
    /// Capacity in pages (used to map LPN to cylinder).
    pub capacity_pages: u64,
    /// Page size in bytes.
    pub page_size: u32,
    /// Number of cylinders the LPN space is spread over.
    pub cylinders: u64,
    /// Track-to-track seek time.
    pub seek_min: SimTime,
    /// Average seek time (1/3 full stroke by convention).
    pub seek_avg: SimTime,
    /// Full-stroke seek time.
    pub seek_max: SimTime,
    /// Time for one full platter revolution (8.33 ms at 7200 RPM).
    pub revolution: SimTime,
    /// Sustained media transfer rate in bytes/second.
    pub transfer_rate: u64,
    /// Head position after the last operation (cylinder).
    last_cylinder: u64,
}

impl HddModel {
    /// A 7200 RPM, 1 TB enterprise drive like the paper's testbed disks.
    pub fn enterprise_7200rpm(capacity_pages: u64, page_size: u32) -> Self {
        HddModel {
            capacity_pages,
            page_size,
            cylinders: 200_000,
            seek_min: SimTime::from_micros(500),
            seek_avg: SimTime::from_micros(8_500),
            seek_max: SimTime::from_micros(16_000),
            revolution: SimTime::from_micros(8_333),
            transfer_rate: 150 * 1024 * 1024,
            last_cylinder: 0,
        }
    }

    #[inline]
    fn cylinder_of(&self, lpn: u64) -> u64 {
        if self.capacity_pages == 0 {
            return 0;
        }
        (lpn.min(self.capacity_pages - 1)) * self.cylinders / self.capacity_pages
    }

    /// Seek time for a cylinder distance `d` (Ruemmler–Wilkes shape).
    fn seek_time(&self, d: u64) -> SimTime {
        if d == 0 {
            return SimTime::ZERO;
        }
        let frac = d as f64 / self.cylinders.max(1) as f64;
        // Square-root region up to 1/3 stroke, then linear to seek_max.
        let t = if frac < 1.0 / 3.0 {
            let x = (frac * 3.0).sqrt();
            self.seek_min.as_nanos() as f64
                + (self.seek_avg.as_nanos() - self.seek_min.as_nanos()) as f64 * x
        } else {
            let x = (frac - 1.0 / 3.0) / (2.0 / 3.0);
            self.seek_avg.as_nanos() as f64
                + (self.seek_max.as_nanos() - self.seek_avg.as_nanos()) as f64 * x
        };
        SimTime::from_nanos(t as u64)
    }

    /// Mean rotational latency (half a revolution).
    fn rotational_latency(&self) -> SimTime {
        self.revolution / 2
    }

    /// Transfer time for `bytes`.
    fn transfer_time(&self, bytes: u64) -> SimTime {
        SimTime::from_nanos(bytes.saturating_mul(1_000_000_000) / self.transfer_rate.max(1))
    }

    /// Service time for an access of `len_pages` pages starting at `lpn`,
    /// advancing the head. Reads and writes cost the same mechanically.
    pub fn access(&mut self, lpn: u64, len_pages: u64) -> SimTime {
        let cyl = self.cylinder_of(lpn);
        let dist = cyl.abs_diff(self.last_cylinder);
        self.last_cylinder = cyl;
        let bytes = len_pages * self.page_size as u64;
        self.seek_time(dist) + self.rotational_latency() + self.transfer_time(bytes)
    }

    /// Service time for a sequential continuation (no seek, no rotation):
    /// the stream case used for rebuild/resync estimates.
    pub fn sequential(&self, len_pages: u64) -> SimTime {
        self.transfer_time(len_pages * self.page_size as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> HddModel {
        HddModel::enterprise_7200rpm(1024 * 1024, 4096)
    }

    #[test]
    fn random_access_costs_milliseconds() {
        let mut m = model();
        let t = m.access(900_000, 1);
        // Seek (ms-scale) + ~4.2ms rotation + tiny transfer.
        assert!(t >= SimTime::from_millis(4), "too fast: {t}");
        assert!(t <= SimTime::from_millis(25), "too slow: {t}");
    }

    #[test]
    fn same_cylinder_access_skips_seek() {
        let mut m = model();
        m.access(500_000, 1);
        let near = m.access(500_000, 1);
        let mut m2 = model();
        m2.access(500_000, 1);
        let far = m2.access(0, 1);
        assert!(near < far, "near {near} should beat far {far}");
    }

    #[test]
    fn seek_monotone_in_distance() {
        let m = model();
        let mut prev = SimTime::ZERO;
        for d in [0u64, 10, 1000, 50_000, 100_000, 199_999] {
            let t = m.seek_time(d);
            assert!(t >= prev, "seek({d}) = {t} < {prev}");
            prev = t;
        }
        assert!(m.seek_time(m.cylinders) <= m.seek_max + SimTime::from_micros(1));
    }

    #[test]
    fn sequential_faster_than_random() {
        let mut m = model();
        let rand = m.access(700_000, 64);
        let seq = m.sequential(64);
        assert!(seq < rand / 2, "seq {seq} vs rand {rand}");
    }

    #[test]
    fn transfer_scales_with_length() {
        let m = model();
        let t1 = m.sequential(1);
        let t64 = m.sequential(64);
        assert!(t64 > t1 * 32, "transfer not scaling: {t1} vs {t64}");
    }
}
