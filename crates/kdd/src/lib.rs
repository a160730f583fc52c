//! # KDD — an endurable SSD cache for parity RAID
//!
//! A full Rust reproduction of *"Improving RAID Performance Using an
//! Endurable SSD Cache"* (ICPP 2016). KDD ("Keeping Data and Deltas")
//! attacks two problems at once:
//!
//! 1. **The small-write problem.** Every in-place update to RAID-5 costs
//!    two reads and two writes (old data + old parity in, new data + new
//!    parity out). On a write *hit*, KDD ships the data to the array with
//!    [`write_no_parity_update`](kdd_raid::RaidArray::write_no_parity_update)
//!    — one disk write — and repairs the parity later in a background
//!    cleaner.
//! 2. **SSD wear.** Caches absorb far more writes than their backing
//!    stores and wear out MLC flash in months. Instead of rewriting the
//!    whole 4 KiB page (write-through) or keeping a second full copy
//!    (LeavO), KDD stores only the *compressed XOR delta* of the old and
//!    new versions, packed many-to-a-page into its Delta Zone.
//!
//! ## Crate map
//!
//! | Re-export | Crate | What it is |
//! |---|---|---|
//! | [`policy`], [`engine`] | `kdd-core` | the KDD algorithm: accounting & real-byte forms |
//! | [`cache`] | `kdd-cache` | cache framework + WT/WA/LeavO baselines |
//! | [`raid`] | `kdd-raid` | RAID-5/6 with delayed-parity interfaces |
//! | [`blockdev`] | `kdd-blockdev` | HDD model, NAND/FTL SSD with wear, fault injection |
//! | [`delta`] | `kdd-delta` | XOR deltas, the compressor, content generators |
//! | [`trace`] | `kdd-trace` | trace parsers + the paper's workloads |
//! | [`sim`] | `kdd-sim` | open/closed-loop timing simulation |
//! | [`obs`] | `kdd-obs` | deterministic metrics, spans, snapshots |
//! | [`util`] | `kdd-util` | stats, samplers, LRU, hashing |
//!
//! ## Quickstart
//!
//! ```
//! use kdd::prelude::*;
//!
//! // A 5-disk RAID-5 with a KDD-managed SSD cache, all in memory.
//! let layout = Layout::new(RaidLevel::Raid5, 5, 16, 16 * 64);
//! let raid = RaidArray::new(layout, 4096);
//! let cache_pages = 128;
//! let ssd = SsdDevice::with_logical_capacity((cache_pages + 32) * 4096, 4096, 0.07);
//! let geometry = CacheGeometry { total_pages: cache_pages, ways: 8, page_size: 4096 };
//! let mut engine = KddEngine::new(KddConfig::new(geometry), ssd, raid).unwrap();
//!
//! // Write a page twice: the second write takes the delta path.
//! let v1 = vec![7u8; 4096];
//! engine.write(42, &v1).unwrap();
//! let mut v2 = v1.clone();
//! v2[100..132].fill(9); // a small update — high content locality
//! engine.write(42, &v2).unwrap();
//!
//! let (data, _t) = engine.read(42).unwrap();
//! assert_eq!(data, v2);
//! assert!(engine.raid().stale_row_count() > 0, "parity is delayed");
//! engine.flush().unwrap();
//! assert_eq!(engine.raid().stale_row_count(), 0, "cleaner repaired it");
//! ```

pub use kdd_blockdev as blockdev;
pub use kdd_cache as cache;
pub use kdd_core as core;
pub use kdd_delta as delta;
pub use kdd_obs as obs;
pub use kdd_raid as raid;
pub use kdd_sim as sim;
pub use kdd_trace as trace;
pub use kdd_util as util;

pub use kdd_core::{engine, policy};

/// The names most programs need.
pub mod prelude {
    pub use kdd_blockdev::{
        FaultDomain, FaultInjector, FaultKind, FaultPlan, FlashGeometry, FlashTimings, HddModel,
        SsdDevice,
    };
    pub use kdd_cache::policies::{CachePolicy, RaidModel};
    pub use kdd_cache::setassoc::CacheGeometry;
    pub use kdd_cache::stats::CacheStats;
    pub use kdd_core::engine::{EngineMode, KddEngine, WriteRequest};
    pub use kdd_core::{KddConfig, KddPolicy};
    pub use kdd_delta::model::{DeltaSizeModel, FixedDeltaModel, GaussianDeltaModel};
    pub use kdd_obs::{Recorder, RecorderConfig};
    pub use kdd_raid::{Layout, RaidArray, RaidLevel};
    pub use kdd_sim::{build_policy, replay_open_loop, run_closed_loop, PolicyKind, ServiceModel};
    pub use kdd_trace::fio::{FioConfig, FioWorkload};
    pub use kdd_trace::synth::PaperTrace;
    pub use kdd_trace::{Op, Trace, TraceRecord, TraceStats};
    pub use kdd_util::units::{ByteSize, SimTime};
}
