//! Uniform policy construction for experiment sweeps.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use kdd_cache::policies::{CachePolicy, LeavO, Nossd, RaidModel, WriteAround, WriteThrough};
use kdd_cache::setassoc::CacheGeometry;
use kdd_core::{KddConfig, KddPolicy};
use kdd_delta::model::GaussianDeltaModel;
use serde::{Deserialize, Serialize};

/// The policies the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// RAID with no cache.
    Nossd,
    /// Write-through.
    Wt,
    /// Write-around.
    Wa,
    /// The SAC'15 delayed-parity baseline.
    LeavO,
    /// KDD at a mean delta-compression ratio (0.50 / 0.25 / 0.12 in the
    /// paper).
    Kdd(f64),
}

impl PolicyKind {
    /// The set Figures 5–8 compare, at the paper's three locality levels.
    pub fn figure_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Wt,
            PolicyKind::Wa,
            PolicyKind::LeavO,
            PolicyKind::Kdd(0.50),
            PolicyKind::Kdd(0.25),
            PolicyKind::Kdd(0.12),
        ]
    }

    /// The set Figures 9–11 compare (KDD at medium locality, §IV-B1).
    pub fn latency_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Nossd,
            PolicyKind::Wa,
            PolicyKind::Wt,
            PolicyKind::LeavO,
            PolicyKind::Kdd(0.25),
        ]
    }

    /// Display name matching the figures.
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Nossd => "Nossd".into(),
            PolicyKind::Wt => "WT".into(),
            PolicyKind::Wa => "WA".into(),
            PolicyKind::LeavO => "LeavO".into(),
            PolicyKind::Kdd(r) => format!("KDD-{}%", (r * 100.0).round() as u32),
        }
    }
}

/// Build a policy instance over the given cache geometry and RAID model.
///
/// `seed` feeds KDD's Gaussian compressibility sampler; the other policies
/// are deterministic.
pub fn build_policy(
    kind: PolicyKind,
    geometry: CacheGeometry,
    raid: RaidModel,
    seed: u64,
) -> Box<dyn CachePolicy> {
    match kind {
        PolicyKind::Nossd => Box::new(Nossd::new(raid)),
        PolicyKind::Wt => Box::new(WriteThrough::new(geometry, raid)),
        PolicyKind::Wa => Box::new(WriteAround::new(geometry, raid)),
        PolicyKind::LeavO => Box::new(LeavO::new(geometry, raid)),
        PolicyKind::Kdd(ratio) => Box::new(KddPolicy::new(
            KddConfig::new(geometry),
            raid,
            Box::new(GaussianDeltaModel::new(ratio, seed)),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdd_trace::record::Op;

    #[test]
    fn all_kinds_construct_and_run() {
        let g = CacheGeometry { total_pages: 128, ways: 8, page_size: 4096 };
        let raid = RaidModel::paper_default(100_000);
        for kind in std::iter::once(PolicyKind::Nossd).chain(PolicyKind::figure_set()) {
            let mut p = build_policy(kind, g, raid, 7);
            assert_eq!(p.name(), kind.name());
            for lba in 0..64 {
                p.access(Op::Write, lba);
                p.access(Op::Read, lba);
            }
            p.flush();
            assert_eq!(p.stats().requests(), 128, "{}", kind.name());
        }
    }

    #[test]
    fn names_match_figures() {
        assert_eq!(PolicyKind::Kdd(0.12).name(), "KDD-12%");
        assert_eq!(PolicyKind::Wt.name(), "WT");
        assert_eq!(PolicyKind::latency_set().len(), 5);
        assert_eq!(PolicyKind::figure_set().len(), 6);
    }
}
