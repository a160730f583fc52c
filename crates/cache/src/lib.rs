//! SSD-cache framework and baseline policies.
//!
//! This crate is the cache *simulator* of §IV-A: a set-associative,
//! LRU-managed SSD cache in front of parity RAID, with each caching policy
//! implemented as a separate module:
//!
//! * [`policies::Nossd`] — no cache, every request goes to RAID;
//! * [`policies::WriteThrough`] — write-allocate, write-through (WT);
//! * [`policies::WriteAround`] — allocate on read miss only (WA);
//! * [`policies::WriteBack`] — write-back (evaluated for completeness; the
//!   paper excludes it because it loses data on SSD failure);
//! * [`policies::LeavO`] — the SAC'15 baseline keeping old + new versions
//!   of updated pages to delay parity updates.
//!
//! KDD itself implements the same [`CachePolicy`] trait from `kdd-core`.
//!
//! Policies are *accounting machines*: they track cache state exactly but
//! move no data; every access returns the device operations it implies
//! ([`Effects`]), which the statistics layer turns into hit ratios and SSD
//! write traffic (Figures 5–8) and the timing simulator turns into
//! response times (Figures 9–11).

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

pub mod effects;
pub mod nvbuf;
pub mod policies;
pub mod setassoc;
pub mod stats;

pub use effects::{AccessOutcome, Effects};
pub use nvbuf::MetadataBuffer;
pub use policies::{CachePolicy, RaidModel};
pub use setassoc::{CacheGeometry, InsertOutcome, PageState, SetAssocCache};
pub use stats::CacheStats;
