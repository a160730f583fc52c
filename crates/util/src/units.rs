//! Simulated-time and byte-size newtypes.
//!
//! All timing in the workspace is virtual: devices report service times in
//! nanoseconds and the discrete-event engine advances a [`SimTime`] clock.
//! Using a newtype (instead of bare `u64`) keeps nanoseconds from being
//! confused with microsecond trace timestamps or byte counts.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
const GIB: u64 = 1024 * MIB;

/// Virtual time in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as the initial "next event" placeholder.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from a floating-point number of seconds (trace timestamps).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s * 1e9).round().max(0.0) as u64)
    }

    /// Nanoseconds since time zero.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since time zero (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since time zero (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as floating point.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; useful for "time until" computations.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// A byte count with human-readable formatting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Construct from raw bytes.
    #[inline]
    pub const fn bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Construct from kibibytes.
    #[inline]
    pub const fn kib(k: u64) -> Self {
        ByteSize(k * KIB)
    }

    /// Construct from mebibytes.
    #[inline]
    pub const fn mib(m: u64) -> Self {
        ByteSize(m * MIB)
    }

    /// Construct from gibibytes.
    #[inline]
    pub const fn gib(g: u64) -> Self {
        ByteSize(g * GIB)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Number of whole pages of `page_size` bytes this size covers.
    #[inline]
    pub const fn pages(self, page_size: u64) -> u64 {
        self.0 / page_size
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2}GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2}MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2}KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{}B", b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_millis(), 500);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!((a + b).as_micros(), 14);
        assert_eq!((a - b).as_micros(), 6);
        assert_eq!((a * 3).as_micros(), 30);
        assert_eq!((a / 2).as_micros(), 5);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn simtime_display_units() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000s");
    }

    #[test]
    fn bytesize_display_and_pages() {
        assert_eq!(format!("{}", ByteSize::bytes(100)), "100B");
        assert_eq!(format!("{}", ByteSize::kib(4)), "4.00KiB");
        assert_eq!(format!("{}", ByteSize::gib(1)), "1.00GiB");
        assert_eq!(ByteSize::mib(1).pages(4096), 256);
    }

    #[test]
    fn simtime_negative_f64_clamps() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }
}
