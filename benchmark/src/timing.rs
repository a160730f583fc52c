//! Timed segments: the one place a host-time measurement is taken.

use std::time::Instant;

use crate::alloc;
use crate::calib::{bracket, Calibrator};

/// The segments of one repetition — the timed ones and those of set-up —
/// with the allocations made inside the timed ones.
///
/// Set-up is measured exactly as the timed region is: in segments that do
/// identical work in every repetition, each bracketed by two calibration
/// ticks. (Normalised as one interval by the repetition's median drift and
/// folded as a median over repetitions, `setup_s` moved 20 % between two
/// sets of ten runs on a busy afternoon while `replay_ops_per_s`, measured
/// this way, moved 2 %.)
#[derive(Debug, Default)]
pub struct Segments {
    /// Host ns of each timed segment as measured, in order.
    pub raw_ns: Vec<u64>,
    /// The same at the reference machine speed: divided by the drift the
    /// calibrator's ticks before and after the segment bracket.
    pub ns: Vec<u64>,
    /// Host ns of each set-up segment as measured, in order.
    pub setup_raw_ns: Vec<u64>,
    /// The same at the reference machine speed.
    pub setup_ns: Vec<u64>,
    /// Allocation calls inside the timed segments.
    pub alloc_calls: u64,
    /// Bytes requested inside the timed segments.
    pub alloc_bytes: u64,
}

/// The host-time side of one repetition, in the shape every workload
/// shares.
#[derive(Debug, Clone, Default)]
pub struct HostTimes {
    /// Host ns of each set-up segment at the reference machine speed.
    pub setup: Vec<u64>,
    /// Host ns of each set-up segment as measured.
    pub setup_raw: Vec<u64>,
    /// Host ns of each timed segment at the reference machine speed.
    pub segs: Vec<u64>,
    /// Host ns of each timed segment as measured.
    pub segs_raw: Vec<u64>,
    /// Median drift of the repetition's calibration ticks.
    pub drift: f64,
}

/// Run `f` between two calibration ticks; returns its result, its host ns
/// as measured and at the reference machine speed, and the instants that
/// bracket it.
fn bracketed<T>(cal: &mut Calibrator, f: impl FnOnce() -> T) -> (T, u64, u64, Instant, Instant) {
    let before = cal.tick();
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let after = cal.tick();
    let raw = t1.duration_since(t0).as_nanos() as u64;
    (out, raw, (raw as f64 / bracket(before, after)) as u64, t0, t1)
}

impl Segments {
    /// Close the repetition, whose ticks showed a median `drift`.
    #[must_use]
    pub fn finish(self, drift: f64) -> HostTimes {
        HostTimes {
            setup: self.setup_ns,
            setup_raw: self.setup_raw_ns,
            segs: self.ns,
            segs_raw: self.raw_ns,
            drift,
        }
    }

    /// Run `f` as one timed segment; returns its result with the instants
    /// that bracket it (for the caller's span). The allocation snapshots
    /// sit inside the ticks and the segment is recorded after the second
    /// one, so the harness's own book-keeping is never counted.
    pub fn run<T>(&mut self, cal: &mut Calibrator, f: impl FnOnce() -> T) -> (T, Instant, Instant) {
        let ((out, d), raw, ns, t0, t1) = bracketed(cal, || {
            let a0 = alloc::snapshot();
            let out = f();
            (out, alloc::snapshot().since(&a0))
        });
        self.alloc_calls += d.calls;
        self.alloc_bytes += d.bytes;
        self.raw_ns.push(raw);
        self.ns.push(ns);
        (out, t0, t1)
    }

    /// Run `f` as one segment of set-up.
    pub fn setup<T>(
        &mut self,
        cal: &mut Calibrator,
        f: impl FnOnce() -> T,
    ) -> (T, Instant, Instant) {
        let (out, raw, ns, t0, t1) = bracketed(cal, f);
        self.setup_raw_ns.push(raw);
        self.setup_ns.push(ns);
        (out, t0, t1)
    }

    /// Add `raw_ns` of set-up that ran in pieces too small to bracket
    /// (microseconds against a tick's half millisecond), under `drift`.
    pub fn setup_unbracketed(&mut self, raw_ns: u64, drift: f64) {
        self.setup_raw_ns.push(raw_ns);
        self.setup_ns.push((raw_ns as f64 / drift) as u64);
    }
}

/// Cost of one `Instant::now()` pair, ns (the harness's own overhead per
/// timed call).
#[must_use]
pub fn timer_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        let b = Instant::now();
        acc += b.duration_since(a).as_nanos();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_counts_exactly_what_its_body_allocates() {
        let mut cal = Calibrator::new();
        let mut segs = Segments::default();
        // The harness's own timed-region work: pushes into pre-sized
        // buffers. It must cost no allocation at all.
        let mut out: Vec<u64> = Vec::with_capacity(64);
        segs.run(&mut cal, || (0..64).for_each(|i| out.push(i)));
        assert_eq!((segs.alloc_calls, segs.alloc_bytes), (0, 0));
        // A body that allocates is charged exactly its requests, whatever
        // ran before it.
        for round in 1..=2u64 {
            segs.run(&mut cal, || {
                std::hint::black_box(vec![0u8; 100]).len() + Box::new(7u64).to_string().len()
            });
            assert_eq!(segs.alloc_calls, round * 3, "vec, box, string");
        }
        assert_eq!(segs.ns.len(), 3);
        assert_eq!(segs.raw_ns.len(), 3);
        assert!(segs.ns.iter().all(|&n| n > 0));
        // Set-up segments are kept apart and charge no allocations.
        segs.setup(&mut cal, || std::hint::black_box(vec![0u8; 100]).len());
        segs.setup_unbracketed(1_000, 2.0);
        assert_eq!(segs.alloc_calls, 6);
        let host = segs.finish(1.0);
        assert_eq!((host.segs.len(), host.setup.len(), host.setup_raw.len()), (3, 2, 2));
        assert_eq!((host.setup_raw[1], host.setup[1]), (1_000, 500));
    }
}
