//! The no-cache baseline ("Nossd" in Figure 9/10): every request goes
//! straight to the RAID array.

use crate::effects::{AccessOutcome, Effects};
use crate::policies::{CachePolicy, RaidModel};
use crate::stats::{record, CacheStats};
use kdd_trace::record::Op;

/// RAID with no SSD cache at all.
#[derive(Debug, Clone)]
pub struct Nossd {
    raid: RaidModel,
    stats: CacheStats,
}

impl Nossd {
    /// Create the baseline over the given array geometry.
    pub fn new(raid: RaidModel) -> Self {
        Nossd { raid, stats: CacheStats::default() }
    }
}

impl CachePolicy for Nossd {
    fn name(&self) -> String {
        "Nossd".to_string()
    }

    fn access(&mut self, op: Op, _lba: u64) -> AccessOutcome {
        let fx = match op {
            Op::Read => self.raid.read_effects(),
            Op::Write => self.raid.small_write_effects(),
        };
        let outcome = AccessOutcome::new(false, fx);
        record(&mut self.stats, op == Op::Read, &outcome);
        outcome
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn flush(&mut self) -> Effects {
        Effects::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_hits_never_touches_ssd() {
        let mut p = Nossd::new(RaidModel::paper_default(1000));
        let r = p.access(Op::Read, 5);
        assert!(!r.hit);
        assert_eq!(r.foreground.ssd_reads, 0);
        assert_eq!(r.foreground.raid_reads, 1);
        let w = p.access(Op::Write, 5);
        assert_eq!(w.foreground.raid_reads, 2);
        assert_eq!(w.foreground.raid_writes, 2);
        assert_eq!(p.stats().hit_ratio(), 0.0);
        assert_eq!(p.stats().ssd_writes_pages(), 0);
    }
}
