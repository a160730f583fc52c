//! Periodic samples and the versioned `kdd-obs` snapshot schema.
//!
//! A [`Sample`] is an all-integer point-in-time reading of the stack —
//! cache traffic, SSD endurance, stale-parity backlog, metadata-log
//! occupancy — keyed on *simulated* time so seeded replays produce
//! byte-identical timeseries. Derived ratios (write
//! amplification, hit ratio, occupancy) are computed only at export via
//! [`crate::frac`], never accumulated in floating point.

use crate::frac;
use crate::json::{obj, Json};
use kdd_util::{ByteSize, SimTime};

/// Cumulative counters for one cache run: every policy's and the engine's
/// account of its requests and device I/O. `kdd-cache` re-exports it as
/// `kdd_cache::stats::CacheStats` and folds each access into it there;
/// it lives here so a [`Sample`] carries it as it is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read requests that hit.
    pub read_hits: u64,
    /// Read requests that missed.
    pub read_misses: u64,
    /// Write requests that hit.
    pub write_hits: u64,
    /// Write requests that missed.
    pub write_misses: u64,
    /// SSD data pages written (fills, allocations, updates, versions).
    pub ssd_data_writes: u64,
    /// SSD delta pages written (KDD).
    pub ssd_delta_writes: u64,
    /// SSD metadata pages written.
    pub ssd_meta_writes: u64,
    /// SSD pages read.
    pub ssd_reads: u64,
    /// RAID member pages read.
    pub raid_reads: u64,
    /// RAID member pages written.
    pub raid_writes: u64,
    /// Pages evicted from the cache.
    pub evictions: u64,
    /// Background parity updates performed (rows repaired).
    pub parity_updates: u64,
    /// Cleaning passes run.
    pub cleanings: u64,
    /// Device faults observed by the engine (failed reads/writes of any
    /// kind, before retry or fallback).
    pub faults_observed: u64,
    /// Operations retried after a transient device fault.
    pub fault_retries: u64,
    /// Requests served by falling back to pass-through RAID after a
    /// persistent SSD fault.
    pub fault_fallbacks: u64,
    /// Torn/corrupt metadata log pages detected (and healed from the
    /// NVRAM in-flight copy) during power-failure recovery.
    pub torn_pages_detected: u64,
}

impl CacheStats {
    /// All requests seen.
    pub fn requests(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Overall cache hit ratio (reads + writes), as Figures 5/7 plot.
    pub fn hit_ratio(&self) -> f64 {
        frac(self.read_hits + self.write_hits, self.requests())
    }

    /// Read-only hit ratio.
    pub fn read_hit_ratio(&self) -> f64 {
        frac(self.read_hits, self.read_hits + self.read_misses)
    }

    /// Total SSD pages written.
    pub fn ssd_writes_pages(&self) -> u64 {
        self.ssd_data_writes + self.ssd_delta_writes + self.ssd_meta_writes
    }

    /// Total SSD bytes written — the write-traffic metric of Figures 6/8/11.
    pub fn ssd_write_bytes(&self, page_size: u32) -> ByteSize {
        ByteSize(self.ssd_writes_pages() * page_size as u64)
    }

    /// Metadata share of SSD write traffic — the Figure 4 metric.
    pub fn metadata_fraction(&self) -> f64 {
        frac(self.ssd_meta_writes, self.ssd_writes_pages())
    }
}

/// One point on the snapshot timeseries. Every field is an integer read
/// from the stack at a simulated-time instant; ratios are derived at
/// export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Simulated time of the reading.
    pub at: SimTime,
    /// Cache traffic totals at this instant.
    pub cache: CacheStats,
    /// Host bytes written to the SSD so far.
    pub host_written_bytes: u64,
    /// NAND bytes physically written (≥ host bytes; WAF numerator).
    pub nand_written_bytes: u64,
    /// Total block erases performed by the FTL.
    pub erases: u64,
    /// Largest per-block erase count (wear ceiling).
    pub max_erase: u64,
    /// RAID rows whose parity is currently stale.
    pub stale_rows: u64,
    /// Rows queued for the cleaner (the stale-parity backlog).
    pub backlog_rows: u64,
    /// Compressed deltas staged in NVRAM awaiting commit.
    pub staged_deltas: u64,
    /// Metadata-log pages currently occupied.
    pub metalog_pages_used: u64,
    /// Metadata-log capacity in pages.
    pub metalog_pages_total: u64,
}

impl Sample {
    /// Export as a flat JSON object with derived ratios attached.
    pub fn export(&self) -> Json {
        let c = &self.cache;
        obj(vec![
            ("at_ns", Json::Num(self.at.as_nanos() as f64)),
            ("requests", Json::Num(c.requests() as f64)),
            ("read_hits", Json::Num(c.read_hits as f64)),
            ("read_misses", Json::Num(c.read_misses as f64)),
            ("write_hits", Json::Num(c.write_hits as f64)),
            ("write_misses", Json::Num(c.write_misses as f64)),
            ("hit_ratio", Json::Num(c.hit_ratio())),
            ("ssd_reads", Json::Num(c.ssd_reads as f64)),
            ("ssd_data_writes", Json::Num(c.ssd_data_writes as f64)),
            ("ssd_delta_writes", Json::Num(c.ssd_delta_writes as f64)),
            ("ssd_meta_writes", Json::Num(c.ssd_meta_writes as f64)),
            ("metadata_fraction", Json::Num(c.metadata_fraction())),
            ("raid_reads", Json::Num(c.raid_reads as f64)),
            ("raid_writes", Json::Num(c.raid_writes as f64)),
            ("host_written_bytes", Json::Num(self.host_written_bytes as f64)),
            ("nand_written_bytes", Json::Num(self.nand_written_bytes as f64)),
            ("waf", Json::Num(frac(self.nand_written_bytes, self.host_written_bytes))),
            ("erases", Json::Num(self.erases as f64)),
            ("max_erase", Json::Num(self.max_erase as f64)),
            ("stale_rows", Json::Num(self.stale_rows as f64)),
            ("backlog_rows", Json::Num(self.backlog_rows as f64)),
            ("staged_deltas", Json::Num(self.staged_deltas as f64)),
            ("metalog_pages_used", Json::Num(self.metalog_pages_used as f64)),
            ("metalog_pages_total", Json::Num(self.metalog_pages_total as f64)),
            (
                "metalog_occupancy",
                Json::Num(frac(self.metalog_pages_used, self.metalog_pages_total)),
            ),
        ])
    }
}

/// Top-level keys every snapshot must carry.
const REQUIRED_KEYS: &[&str] = &["schema", "totals", "timeseries", "wear", "spans", "stages"];

/// Validate a `kdd-obs` snapshot document: schema stamp, required
/// top-level keys, metric tables under `totals`, per-stage tables, and a
/// non-empty timeseries. Returns a list of problems (empty = valid).
///
/// Only [`crate::SCHEMA`] is accepted. Any other schema stamp returns a
/// single "schema version mismatch" diagnostic naming the found and the
/// accepted version — not a misleading field-by-field failure list for a
/// document we never understood in the first place.
pub fn validate_snapshot(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(crate::SCHEMA) {
        return vec![format!(
            "schema version mismatch: found {schema:?}, the accepted version is {:?}",
            crate::SCHEMA
        )];
    }
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            problems.push(format!("{key}: missing"));
        }
    }
    if let Some(Json::Obj(stages)) = doc.get("stages") {
        for (name, hist) in stages {
            for field in ["count", "sum", "max", "buckets"] {
                if hist.get(field).is_none() {
                    problems.push(format!("stages.{name}.{field}: missing"));
                }
            }
        }
    } else if doc.get("stages").is_some() {
        problems.push("stages: not an object".to_string());
    }
    if let Some(totals) = doc.get("totals") {
        for table in ["counters", "gauges", "hists", "derived"] {
            if totals.get(table).is_none() {
                problems.push(format!("totals.{table}: missing"));
            }
        }
    }
    match doc.get("timeseries").and_then(Json::as_arr) {
        Some([]) => problems.push("timeseries: empty".to_string()),
        Some(_) => {}
        None => {
            if doc.get("timeseries").is_some() {
                problems.push("timeseries: not an array".to_string());
            }
        }
    }
    if let Some(spans) = doc.get("spans") {
        for key in ["pushed", "dropped", "events"] {
            if spans.get(key).is_none() {
                problems.push(format!("spans.{key}: missing"));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios_handle_zero_denominators() {
        let s = Sample::default();
        let doc = s.export();
        assert_eq!(doc.get("hit_ratio").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("waf").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("metadata_fraction").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("metalog_occupancy").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn validator_flags_missing_keys() {
        let text = format!(r#"{{"schema": "{}", "totals": {{}}}}"#, crate::SCHEMA);
        let doc = crate::json::parse(&text).expect("parse");
        let problems = validate_snapshot(&doc);
        assert!(problems.iter().any(|p| p.contains("timeseries: missing")));
        assert!(problems.iter().any(|p| p.contains("wear: missing")));
        assert!(problems.iter().any(|p| p.contains("spans: missing")));
        assert!(problems.iter().any(|p| p.contains("stages: missing")));
        assert!(problems.iter().any(|p| p.contains("totals.counters")));
    }

    #[test]
    fn unknown_schema_yields_one_named_version_mismatch() {
        // The retired v1 stamp is as foreign as a made-up one.
        for schema in ["bogus/v0", "kdd-obs/v1"] {
            let text = format!(r#"{{"schema": "{schema}", "totals": {{}}}}"#);
            let problems = validate_snapshot(&crate::json::parse(&text).expect("parse"));
            assert_eq!(problems.len(), 1, "no field-list noise for a foreign document");
            let p = problems.first().expect("one problem");
            assert!(p.contains("schema version mismatch"), "got: {p}");
            assert!(p.contains(schema) && p.contains(crate::SCHEMA), "got: {p}");
        }
    }
}
