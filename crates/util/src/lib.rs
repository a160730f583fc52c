//! Shared utilities for the KDD reproduction.
//!
//! This crate holds the small, dependency-light building blocks every other
//! crate in the workspace leans on:
//!
//! * [`stats`] — a streaming mean and latency histograms;
//! * [`sampler`] — Zipf and (clamped) Gaussian samplers implemented from the
//!   formulas the paper cites, so the statistical models are auditable;
//! * [`lru`] — an intrusive, slab-backed LRU list used by the set-associative
//!   cache;
//! * [`hash`] — a fast 64-bit mixing hash used to map LBAs to cache sets;
//! * [`sorted`] — small ascending sets of `u64` keys and the free list of
//!   emptied vectors they grow into;
//! * [`pool`] — a bounded free list of page buffers so hot paths recycle
//!   pages instead of allocating per operation;
//! * [`rng`] — deterministic RNG construction helpers;
//! * [`units`] — simulated-time and byte-size newtypes.

#![warn(missing_docs)]

pub mod hash;
pub mod lru;
pub mod pool;
pub mod rng;
pub mod sampler;
pub mod sorted;
pub mod stats;
pub mod units;

pub use hash::mix64;
pub use pool::PagePool;
pub use rng::seeded_rng;
pub use sampler::{ClampedGaussian, Gaussian, Zipf};
pub use stats::{Histogram, StreamingStats};
pub use units::{ByteSize, SimTime, KIB, MIB};
