//! Benchmark harness regenerating every table and figure of the paper.
//!
//! [`experiments::EXPERIMENTS`] names every evaluation artifact of the
//! ICPP'16 KDD paper, and a [`experiments::Runner`] computes each one's
//! uniform [`report::Row`]s; the `repro` binary prints them as tables (and
//! optionally JSON).
//!
//! Scale: `scale` divides the Table I trace sizes (and the FIO volume).
//! `scale = 1` is the paper's full workload (millions of requests);
//! the default for the binary is 100, which runs in seconds and
//! preserves every qualitative relationship.

pub mod experiments;
pub mod perfjson;
pub mod report;

pub use experiments::{ExpConfig, Runner, EXPERIMENTS};
pub use report::{print_rows, rows_to_json, Row};
