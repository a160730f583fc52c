//! The repository's benchmark: four seeded workloads, end-to-end metrics
//! on the host and the simulated clock, and a traced run that divides host
//! time among the layers. See `README.md` beside this package.

// The harness measures: float conversions of counts and durations are its
// business, and indexes come from lengths it computed itself.
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss, clippy::cast_sign_loss)]
#![warn(missing_docs)]

pub mod alloc;
pub mod calib;
pub mod counting_wl;
pub mod engine_wl;
pub mod inputs;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod timing;
