//! The pipeline-stage taxonomy and per-request stage-time accumulator.
//!
//! A request's service time is opaque in `kdd-obs/v1`: one number, no
//! attribution. The [`Stage`] taxonomy names every place simulated time
//! is spent — cache lookup, delta codec, staging/NVRAM, metadata-log
//! commit, RAID member-disk traffic, parity maintenance, cleaner and
//! group-commit work — and [`StageTimes`] accumulates nanoseconds per
//! stage as child spans of the request that spent them. The conservation
//! invariant (enforced in tests): the sum of a span's stage times never
//! exceeds its service time. An engine span's stages sum to its service
//! time exactly — the engine's `StageTimes` is its clock, and a request's
//! service time is their total; the counting runners leave queueing delay
//! unattributed, so there the sum is at most the service time.
//!
//! Accumulation is integer-only and the accumulator is a flat
//! `Copy` array, so instrumenting a hot path costs a bounds-checked add
//! and no allocation.

use crate::json::Json;
use kdd_util::SimTime;
use std::collections::BTreeMap;

/// Where simulated time is spent while serving requests.
///
/// Foreground stages are charged as child spans of the request that
/// incurred them; [`Stage::CleanerPass`] and [`Stage::GroupCommitFlush`]
/// also name first-class *background* spans (work done outside any one
/// request: explicit cleaner passes, deferred metalog group flushes,
/// recovery). [`Stage::as_str`] names are part of the `kdd-obs/v2`
/// schema, pinned by the committed `OBS_engine.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Cache index probe. Charged zero simulated time by the current
    /// cost model; reserved so the schema already names it.
    CacheLookup,
    /// XOR-delta compression of a write hit (CPU cost).
    DeltaEncode,
    /// Delta decompression + combine on a cached-read hit (CPU cost).
    DeltaDecode,
    /// SSD page reads (cache data, DEZ pages, metadata).
    SsdRead,
    /// SSD page writes filling or evicting cache data pages.
    SsdWrite,
    /// Packing staged deltas into DEZ pages and persisting them.
    StagingCommit,
    /// Metadata-log page persistence (mapping commits).
    MetalogCommit,
    /// RAID member-disk reads on the miss / pass-through path.
    RaidRead,
    /// RAID member-disk data writes (write-through, delta write-back).
    RaidWrite,
    /// Parity maintenance for stale rows (RMW or full-row rewrite).
    ParityRmw,
    /// Degraded-mode reconstruction, resync and rebuild traffic.
    RaidReconstruct,
    /// A cleaner pass over the stale-parity backlog (background span).
    CleanerPass,
    /// A deferred metalog group-commit flush (background span).
    GroupCommitFlush,
}

impl Stage {
    /// Every stage, in export order.
    pub const ALL: [Stage; 13] = [
        Stage::CacheLookup,
        Stage::DeltaEncode,
        Stage::DeltaDecode,
        Stage::SsdRead,
        Stage::SsdWrite,
        Stage::StagingCommit,
        Stage::MetalogCommit,
        Stage::RaidRead,
        Stage::RaidWrite,
        Stage::ParityRmw,
        Stage::RaidReconstruct,
        Stage::CleanerPass,
        Stage::GroupCommitFlush,
    ];

    /// Number of stages (the length of [`Stage::ALL`]).
    pub const COUNT: usize = Stage::ALL.len();

    /// Stable snake_case name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::CacheLookup => "cache_lookup",
            Stage::DeltaEncode => "delta_encode",
            Stage::DeltaDecode => "delta_decode",
            Stage::SsdRead => "ssd_read",
            Stage::SsdWrite => "ssd_write",
            Stage::StagingCommit => "staging_commit",
            Stage::MetalogCommit => "metalog_commit",
            Stage::RaidRead => "raid_read",
            Stage::RaidWrite => "raid_write",
            Stage::ParityRmw => "parity_rmw",
            Stage::RaidReconstruct => "raid_reconstruct",
            Stage::CleanerPass => "cleaner_pass",
            Stage::GroupCommitFlush => "group_commit_flush",
        }
    }

    /// Dense index into per-stage tables (position in [`Stage::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Stage::CacheLookup => 0,
            Stage::DeltaEncode => 1,
            Stage::DeltaDecode => 2,
            Stage::SsdRead => 3,
            Stage::SsdWrite => 4,
            Stage::StagingCommit => 5,
            Stage::MetalogCommit => 6,
            Stage::RaidRead => 7,
            Stage::RaidWrite => 8,
            Stage::ParityRmw => 9,
            Stage::RaidReconstruct => 10,
            Stage::CleanerPass => 11,
            Stage::GroupCommitFlush => 12,
        }
    }
}

/// Per-span stage-time accumulator: nanoseconds spent in each [`Stage`].
///
/// `Copy` and allocation-free so it can ride inside
/// [`crate::Completion`] through the span ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTimes {
    ns: [u64; Stage::COUNT],
}

impl Default for StageTimes {
    fn default() -> Self {
        Self::new()
    }
}

impl StageTimes {
    /// An all-zero accumulator.
    pub fn new() -> Self {
        StageTimes { ns: [0; Stage::COUNT] }
    }

    /// Charge `dt` of simulated time to `stage`.
    pub fn add(&mut self, stage: Stage, dt: SimTime) {
        if let Some(slot) = self.ns.get_mut(stage.index()) {
            *slot = slot.saturating_add(dt.as_nanos());
        }
    }

    /// Nanoseconds charged to `stage` so far.
    pub fn get(&self, stage: Stage) -> u64 {
        self.ns.get(stage.index()).copied().unwrap_or(0)
    }

    /// Saturating sum of all stage charges, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |acc, v| acc.saturating_add(*v))
    }

    /// True when no stage has been charged.
    pub fn is_zero(&self) -> bool {
        self.ns.iter().all(|v| *v == 0)
    }

    /// Fold every charge in `other` into `self`.
    pub fn merge(&mut self, other: &StageTimes) {
        for stage in Stage::ALL {
            let dt = other.get(stage);
            if dt > 0 {
                if let Some(slot) = self.ns.get_mut(stage.index()) {
                    *slot = slot.saturating_add(dt);
                }
            }
        }
    }

    /// Iterate the stages with a non-zero charge, in [`Stage::ALL`] order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL.into_iter().filter_map(|s| {
            let ns = self.get(s);
            (ns > 0).then_some((s, ns))
        })
    }

    /// Export as `{stage_name: ns, ...}` with only non-zero stages listed.
    pub fn export(&self) -> Json {
        let map: BTreeMap<String, Json> = self
            .iter_nonzero()
            .map(|(s, ns)| (s.as_str().to_string(), Json::Num(ns as f64)))
            .collect();
        Json::Obj(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_all_order() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i, "{:?} index must match its ALL position", s);
            assert!(seen.insert(s.as_str()), "duplicate stage name {:?}", s.as_str());
        }
        assert_eq!(seen.len(), Stage::COUNT);
    }

    #[test]
    fn accumulator_adds_merges_and_exports_nonzero_only() {
        let mut a = StageTimes::new();
        assert!(a.is_zero());
        a.add(Stage::DeltaEncode, SimTime::from_micros(30));
        a.add(Stage::DeltaEncode, SimTime::from_micros(30));
        a.add(Stage::RaidWrite, SimTime::from_micros(16));
        let mut b = StageTimes::new();
        b.add(Stage::RaidWrite, SimTime::from_micros(4));
        b.add(Stage::MetalogCommit, SimTime::from_micros(1));
        a.merge(&b);
        assert_eq!(a.get(Stage::DeltaEncode), 60_000);
        assert_eq!(a.get(Stage::RaidWrite), 20_000);
        assert_eq!(a.get(Stage::MetalogCommit), 1_000);
        assert_eq!(a.total_ns(), 81_000);
        let doc = a.export();
        assert_eq!(doc.get("delta_encode").and_then(Json::as_f64), Some(60_000.0));
        assert!(doc.get("cache_lookup").is_none(), "zero stages are not exported");
    }
}
