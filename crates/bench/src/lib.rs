//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each `figN`/`tableN` function reproduces one evaluation artifact of
//! the ICPP'16 KDD paper and returns uniform [`report::Row`]s; the
//! `repro` binary prints them as tables (and optionally JSON).
//!
//! Scale: `scale` divides the Table I trace sizes (and the FIO volume).
//! `scale = 1` is the paper's full workload (millions of requests);
//! the default for the binary is 100, which runs in seconds and
//! preserves every qualitative relationship.

pub mod experiments;
pub mod perfjson;
pub mod report;

pub use experiments::*;
pub use report::{print_rows, rows_to_json, Row};
