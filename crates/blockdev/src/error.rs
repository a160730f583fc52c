//! Device-level error type and fault-domain identifiers.

use std::fmt;

/// Which physical device an error or injected fault belongs to.
///
/// Carried inside [`DevError::Failed`] so callers can tell a dying cache SSD
/// (recoverable by falling back to pass-through RAID, §III-E2) from a dying
/// array member (recoverable by degraded reads + rebuild, §III-E3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// Not attributed to a specific device (legacy / wildcard in fault plans).
    Unknown,
    /// The cache SSD.
    Ssd,
    /// RAID member disk by index.
    Disk(u32),
}

impl fmt::Display for FaultDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultDomain::Unknown => write!(f, "device"),
            FaultDomain::Ssd => write!(f, "ssd"),
            FaultDomain::Disk(d) => write!(f, "disk{d}"),
        }
    }
}

/// Errors surfaced by the device substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevError {
    /// Access past the end of the device.
    OutOfRange {
        /// Offending logical page number.
        lpn: u64,
        /// Device capacity in pages.
        capacity: u64,
    },
    /// The device failed (fault injection, wear-out, or resource exhaustion).
    Failed {
        /// Which device failed.
        device: FaultDomain,
        /// `true` for a one-shot fault where retrying the same operation may
        /// succeed; `false` when the device is gone until replaced.
        transient: bool,
    },
    /// Power was lost: every device stops serving until power is restored.
    PowerLoss,
    /// A flash block exceeded its rated program/erase cycles.
    WornOut {
        /// Physical block that wore out.
        block: u64,
    },
    /// Read of a logical page that was never written (strict mode).
    Unmapped {
        /// Offending logical page number.
        lpn: u64,
    },
    /// A page read or write with a buffer that is not one page long.
    WrongSize {
        /// Length of the caller's buffer.
        len: usize,
        /// The device's page size.
        page_size: u32,
    },
}

impl DevError {
    /// Permanent failure of `device`.
    pub fn failed(device: FaultDomain) -> Self {
        DevError::Failed { device, transient: false }
    }

    /// Transient (retryable) failure of `device`.
    pub fn transient(device: FaultDomain) -> Self {
        DevError::Failed { device, transient: true }
    }

    /// Whether retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, DevError::Failed { transient: true, .. })
    }
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::OutOfRange { lpn, capacity } => {
                write!(f, "page {lpn} out of range (capacity {capacity} pages)")
            }
            DevError::Failed { device, transient: true } => {
                write!(f, "{device} failed (transient fault, retry may succeed)")
            }
            DevError::Failed { device, transient: false } => {
                write!(f, "{device} failed (permanent, needs replacement)")
            }
            DevError::PowerLoss => write!(f, "power loss: all devices stopped"),
            DevError::WornOut { block } => write!(f, "flash block {block} worn out"),
            DevError::Unmapped { lpn } => write!(f, "page {lpn} unmapped"),
            DevError::WrongSize { len, page_size } => {
                write!(f, "{len}-byte buffer for a {page_size}-byte page")
            }
        }
    }
}

impl std::error::Error for DevError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(DevError::OutOfRange { lpn: 9, capacity: 4 }.to_string().contains("out of range"));
        assert!(DevError::WornOut { block: 3 }.to_string().contains("worn out"));
        assert!(DevError::Unmapped { lpn: 1 }.to_string().contains("unmapped"));
        assert!(DevError::PowerLoss.to_string().contains("power loss"));
        let short = DevError::WrongSize { len: 100, page_size: 4096 };
        assert!(short.to_string().contains("100-byte buffer"));
    }

    #[test]
    fn failed_carries_device_and_persistence() {
        let t = DevError::transient(FaultDomain::Disk(3));
        assert!(t.is_transient());
        assert!(t.to_string().contains("disk3"));
        assert!(t.to_string().contains("transient"));

        let p = DevError::failed(FaultDomain::Ssd);
        assert!(!p.is_transient());
        assert!(p.to_string().contains("ssd"));
        assert!(p.to_string().contains("permanent"));

        assert!(!DevError::PowerLoss.is_transient());
        assert!(!DevError::Unmapped { lpn: 0 }.is_transient());
    }

    #[test]
    fn fault_domain_display() {
        assert_eq!(FaultDomain::Ssd.to_string(), "ssd");
        assert_eq!(FaultDomain::Disk(7).to_string(), "disk7");
        assert_eq!(FaultDomain::Unknown.to_string(), "device");
    }
}
