//! Drift calibration: a fixed piece of memory-bound work, timed next to
//! every measured interval, so host times can be stated at a reference
//! machine speed.
//!
//! Why: on a shared box the same replay runs 1.0× to 1.9× as long
//! depending on what the neighbours do to the memory system, and that
//! state drifts over minutes — no statistic taken inside one run removes
//! it (a five-minute series of identical Fin2 replays showed a 35 %
//! quartile spread between 15-second groups and +37 % from its first half
//! to its second, whatever the estimator). A compute-bound loop does not
//! see it (±3 %); a loop that XORs and copies random 4 KiB pages of a
//! 64 MiB pool sees it almost exactly as the engine does (correlation
//! 0.89 with the replay time at group level). Dividing a measured interval
//! by the drift the reference work shows at the same moment takes most of
//! the machine's state out: with a tick on either side of every chunk,
//! such series spread 4–5 % between groups and move 1–4 % between halves.
//! What is left: under heavy disturbance (drift ≈ 1.5) the engine suffers
//! a little more than this loop does, and normalised values read 5–8 % low.
//!
//! The reference work is part of the benchmark, not of the program under
//! test, so a change to the program cannot move it. The raw host values
//! are reported beside the normalised ones.

use std::time::Instant;

use crate::stats::median_u64;

/// Bytes of the page pool the reference work walks: several times the L2,
/// like the engine's own footprint.
pub const POOL_BYTES: usize = 64 << 20;
const PAGE: usize = 4096;
/// Random page XOR + copy steps per tick (0.4–0.8 ms).
pub const TICK_STEPS: usize = 512;
/// A tick's nominal duration, ns. Normalised host times are what this
/// machine would have measured had every tick taken this long; the value
/// only sets the scale. (About what a tick takes between chunks of a
/// replay on the 2-core 2.1 GHz sandbox this was written on, when the
/// neighbours are quiet.)
pub const NOMINAL_TICK_NS: f64 = 600_000.0;

/// The reference work and the ticks of the current repetition.
#[derive(Debug)]
pub struct Calibrator {
    pool: Vec<u8>,
    acc: Vec<u8>,
    state: u64,
    ticks: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Allocate and touch the pool, and run a few ticks to warm it.
    #[must_use]
    pub fn new() -> Self {
        let mut c = Calibrator {
            pool: (0..POOL_BYTES).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect(),
            acc: vec![0u8; PAGE],
            state: 0x2545_f491_4f6c_dd1d,
            ticks: Vec::with_capacity(1024),
        };
        for _ in 0..8 {
            c.tick();
        }
        c.ticks.clear();
        c
    }

    /// Do the reference work once; returns its duration in ns and keeps it
    /// for [`Calibrator::drift`]. Allocates nothing.
    pub fn tick(&mut self) -> u64 {
        let pages = POOL_BYTES / PAGE;
        let t0 = Instant::now();
        for _ in 0..TICK_STEPS {
            // xorshift64: the page choice must not depend on the program
            // under test, only on how many ticks ran before.
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let from = (self.state as usize % pages) * PAGE;
            let to = ((self.state >> 32) as usize % pages) * PAGE;
            for (a, s) in self.acc.iter_mut().zip(&self.pool[from..from + PAGE]) {
                *a ^= *s;
            }
            self.pool[to..to + PAGE].copy_from_slice(&self.acc);
        }
        std::hint::black_box(&self.acc);
        let ns = t0.elapsed().as_nanos() as u64;
        if self.ticks.len() < self.ticks.capacity() {
            self.ticks.push(ns);
        }
        ns
    }

    /// Forget the kept ticks (start of a repetition).
    pub fn reset(&mut self) {
        self.ticks.clear();
    }

    /// Ticks kept since the last reset.
    #[must_use]
    pub fn kept(&self) -> usize {
        self.ticks.len()
    }

    /// Median drift (tick duration over the nominal one) of the kept ticks
    /// in `range`; 1 when there are none.
    #[must_use]
    pub fn drift(&self, range: std::ops::Range<usize>) -> f64 {
        match self.ticks.get(range) {
            Some(t) if !t.is_empty() => median_u64(t) / NOMINAL_TICK_NS,
            _ => 1.0,
        }
    }
}

/// The drift two ticks bracket: their mean over the nominal tick.
#[must_use]
pub fn bracket(before_ns: u64, after_ns: u64) -> f64 {
    (before_ns + after_ns) as f64 / 2.0 / NOMINAL_TICK_NS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc;

    #[test]
    fn ticks_are_kept_allocation_free_and_reset() {
        let mut c = Calibrator::new();
        assert_eq!(c.kept(), 0);
        let a0 = alloc::snapshot();
        let t = c.tick();
        c.tick();
        assert_eq!(alloc::snapshot().since(&a0).calls, 0, "a tick must not allocate");
        assert!(t > 0);
        assert_eq!(c.kept(), 2);
        assert!(c.drift(0..2) > 0.0);
        assert_eq!(c.drift(5..9), 1.0);
        let nominal = NOMINAL_TICK_NS as u64;
        assert!((bracket(nominal, nominal) - 1.0).abs() < 1e-12);
        assert!((bracket(nominal, 3 * nominal) - 2.0).abs() < 1e-12);
        c.reset();
        assert_eq!(c.kept(), 0);
        assert_eq!(c.drift(0..0), 1.0);
    }
}
