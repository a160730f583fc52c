//! RAID substrate for the KDD reproduction.
//!
//! Parity-based RAID is the storage system KDD accelerates; its *small
//! write problem* — each in-place update costing two reads and two writes
//! (§I) — is what the whole paper is about. This crate provides:
//!
//! * [`gf256`] — the Galois-field arithmetic behind RAID-6's Q parity;
//! * [`layout`] — left-symmetric striping, parity placement, and the
//!   parity-row geometry KDD's cleaner operates on;
//! * [`array`](mod@array) — a content-holding RAID-5/6 array with conventional
//!   reads/writes, degraded operation, rebuild, resync, **and** the two
//!   interfaces the paper adds for delayed parity maintenance:
//!   `write_no_parity_update` and `parity_update` (both reconstruct-write
//!   and read-modify-write forms), with stale-row tracking.
//!
//! Every member-disk I/O is booked once, in the array's per-member
//! [`DiskStats`] ledger; the array operations return no counts of their
//! own. A caller reads what the ledger gained over a call as a [`RaidCost`]
//! (member reads and writes, [`RaidArray::cost_since`]) and charges
//! simulated service time from it without re-deriving RAID mechanics.

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

pub mod array;
pub mod gf256;
pub mod layout;

pub use array::{DiskStats, RaidArray, RaidCost, RaidError};
pub use layout::{Layout, PageLocation, RaidLevel};
