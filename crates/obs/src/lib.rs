//! `kdd-obs` — deterministic observability for the KDD reproduction.
//!
//! The paper's claims are quantitative (SSD write traffic saved, erase
//! cycles avoided, stale-parity cleaning kept off the critical path), so
//! the stack needs a single place where those numbers are collected and
//! exported. This crate provides these pieces:
//!
//! * [`recorder`] — the [`Recorder`] handle, which exports the snapshot's
//!   `totals` straight from the final [`Sample`]'s fields and its own
//!   counters, naming each metric once; [`Json`] objects are
//!   `BTreeMap`-backed, so the rendered key order is byte-stable;
//! * [`hist`] — the [`Log2Hist`] power-of-two histogram;
//! * [`ring`] — structured I/O lifecycle spans ([`Completion`] →
//!   [`SpanEvent`]) and first-class background spans captured into a
//!   bounded [`SpanRing`];
//! * [`stage`] — the [`Stage`] taxonomy and the [`StageTimes`]
//!   accumulator attributing each span's service time to child stages
//!   (latency attribution, `kdd-obs/v2`);
//! * [`snapshot`] — periodic [`Sample`]s keyed on *simulated* time and
//!   the versioned snapshot document, validated by [`validate_snapshot`];
//! * [`trace`] — a deterministic Chrome trace-event / Perfetto exporter
//!   over the span ring ([`trace_events`]).
//!
//! Everything funnels through a cloneable [`Recorder`] handle that
//! defaults to a no-op sink: when disabled, each call is one branch on an
//! `Option`, so instrumented hot paths keep their perf trajectory.
//!
//! Determinism rules: the recorder never reads a wall clock — all
//! timestamps are simulated time supplied by the caller, and the root
//! `clippy.toml` bans `Instant::now`/`SystemTime::now` — and all
//! accumulation is integer-only, with floats derived once at export via
//! [`frac`]. Two seeded replays therefore produce byte-identical
//! snapshots, which the tier-1 `OBS_engine.json` pin checks.

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

pub mod hist;
pub mod json;
pub mod recorder;
pub mod ring;
pub mod snapshot;
pub mod stage;
pub mod trace;

pub use hist::Log2Hist;
pub use json::Json;
pub use recorder::{Recorder, RecorderConfig};
pub use ring::{BackgroundSpan, Completion, HitClass, ReqKind, SpanBody, SpanEvent, SpanRing};
pub use snapshot::{validate_snapshot, CacheStats, Sample};
pub use stage::{Stage, StageTimes};
pub use trace::trace_events;

/// Schema identifier stamped into every snapshot document.
pub const SCHEMA: &str = "kdd-obs/v2";

/// The one place ratio math lives: `num / den`, returning 0.0 uniformly
/// when the denominator is zero. `CacheStats::hit_ratio`,
/// `metadata_fraction`, WAF and occupancy all route through here.
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frac_returns_zero_on_empty_denominator() {
        assert_eq!(frac(0, 0), 0.0);
        assert_eq!(frac(5, 0), 0.0);
        assert_eq!(frac(1, 2), 0.5);
        assert_eq!(frac(3, 3), 1.0);
    }
}
