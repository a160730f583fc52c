//! Block-device substrate for the KDD reproduction.
//!
//! The paper's testbed is 15 × 1 TB 7200 RPM disks plus a 120 GB SSD
//! (§IV-B1). We rebuild both ends in software:
//!
//! * [`store`] — sparse in-memory page stores holding actual page contents
//!   (used by the prototype-style engine and by RAID correctness tests);
//! * [`hdd`] — a mechanical-disk service-time model (seek + rotation +
//!   transfer) parameterised like a 7200 RPM enterprise drive;
//! * [`flash`] + [`ftl`] — NAND geometry/timing and a page-mapped FTL with
//!   greedy garbage collection and per-block erase-count (wear) accounting,
//!   which is what turns "bytes written to the SSD" into the paper's
//!   *lifetime* claim (§IV-A3: "extending the lifetime of SSD by up to
//!   5.1×");
//! * [`ssd`] — an SSD device combining the FTL with channel-parallel
//!   timing.
//!
//! The battery-backed RAM the paper assumes for KDD's staging buffer,
//! metadata buffer and log head/tail counters (§III-B) is no device here:
//! the engine keeps that state in its own fields and carries it across a
//! power cycle.

#![warn(missing_docs)]
// No unwinding outside tests: the I/O path fails through typed errors,
// never mid-stripe (DESIGN.md "Static analysis & invariants").
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod error;
pub mod fault;
pub mod flash;
pub mod ftl;
pub mod hdd;
pub mod ssd;
pub mod store;

pub use error::{DevError, FaultDomain};
pub use fault::{
    FaultCounters, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSpec, IoDir, IoOutcome,
};
pub use flash::{FlashGeometry, FlashTimings};
pub use ftl::{EnduranceReport, Ftl};
pub use hdd::HddModel;
pub use ssd::SsdDevice;
pub use store::MemStore;
