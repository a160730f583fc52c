//! Output: the metric lines, `results.json`, the driver's result line, and
//! the comparison of two result files.

use std::fmt::Write as _;

use kdd_obs::Json;

use crate::run::{Metric, WorkloadReport};
use crate::spec::{Clock, END_TO_END, FAILED_OPS_FRAC};

/// Schema tag of `results.json`.
pub const SCHEMA: &str = "kdd-benchmark/v1";

/// Smallest set-up difference, in seconds, that counts as a difference:
/// below it the timer and the allocator decide, not the code.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// `workload metric value unit` lines for one workload, end-to-end metrics
/// first. Host-time values carry their quartile spread; a ratio carries
/// its base.
#[must_use]
pub fn text(r: &WorkloadReport) -> String {
    let mut out = String::new();
    let mut line = |m: &Metric| {
        let _ = write!(out, "{} {} {} {}", r.name, m.name, m.value, m.unit);
        if let Some(s) = m.spread {
            let _ = write!(out, "  # quartile spread {:.2}% over {} reps", s * 100.0, r.reps);
            if !m.resolved {
                out.push_str(", UNRESOLVED (spread / sqrt(reps) exceeds the bound)");
            }
        }
        if let Some(b) = &m.base {
            let _ = write!(out, "  # {b}");
        }
        out.push('\n');
    };
    r.end_to_end.iter().for_each(&mut line);
    if let Some(layers) = &r.per_layer {
        layers.iter().for_each(&mut line);
    }
    let _ = writeln!(
        out,
        "{} {FAILED_OPS_FRAC} {} ratio  # {} failed of {} checked",
        r.name,
        r.failed_ops_frac(),
        r.failed,
        r.attempted
    );
    out
}

fn metric_json(m: &Metric) -> String {
    let mut s = format!("{{\"value\":{},\"unit\":\"{}\"", num(m.value), m.unit);
    if let Some(b) = m.bound {
        let _ = write!(s, ",\"bound\":{}", num(b));
    }
    if let Some(sp) = m.spread {
        let _ = write!(s, ",\"spread\":{},\"unresolved\":{}", num(sp), !m.resolved);
    }
    if let Some(b) = &m.base {
        let _ = write!(s, ",\"base\":\"{}\"", b.replace('"', "'"));
    }
    s.push('}');
    s
}

/// A float with all its digits; JSON has no NaN or infinity, so those
/// (which no metric should produce) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(ms: &[Metric], indent: &str) -> String {
    let rows: Vec<String> =
        ms.iter().map(|m| format!("{indent}\"{}\": {}", m.name, metric_json(m))).collect();
    rows.join(",\n")
}

/// The `results.json` document for a set of reports.
#[must_use]
pub fn results_json(reports: &[WorkloadReport], seed: u64, seconds: f64, smoke: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"profile\": \"{}\",\n  \"workloads\": {{",
        num(seconds),
        if smoke { "smoke" } else { "full" }
    );
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", r.name);
        let _ = writeln!(
            out,
            "      \"reps\": {},\n      \"drift\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \"{FAILED_OPS_FRAC}\": {},\n      \"input_digest\": \"{:016x}\",",
            r.reps,
            num(r.drift),
            r.attempted,
            r.failed,
            num(r.failed_ops_frac()),
            r.input_digest
        );
        let _ = write!(
            out,
            "      \"end_to_end\": {{\n{}\n      }}",
            metrics_json(&r.end_to_end, "        ")
        );
        if let Some(layers) = &r.per_layer {
            let _ = write!(
                out,
                ",\n      \"per_layer\": {{\n{}\n      }}",
                metrics_json(layers, "        ")
            );
        }
        let _ = writeln!(out, "\n    }}{}", if i + 1 < reports.len() { "," } else { "" });
    }
    out.push_str("  }\n}\n");
    out
}

/// The one-line result the driver reads: the end-to-end metrics of an
/// untraced invocation, the per-layer metrics of a traced one.
#[must_use]
pub fn driver_line(r: &WorkloadReport) -> String {
    let metrics = r.per_layer.as_ref().unwrap_or(&r.end_to_end);
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        rows.join(", ")
    )
}

/// Compare two `results.json` documents of the same seed: one row per
/// workload × end-to-end metric with both values. Host-time metrics must
/// agree within their bound (set-up also within [`SETUP_FLOOR_S`]);
/// simulated times and counts must be identical; nothing may be
/// `unresolved`. Returns the table and whether the two runs agree.
///
/// # Errors
/// Returns a message when a document does not parse or lacks a workload or
/// metric the other has.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = kdd_obs::json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = kdd_obs::json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    if a.get("seed") != b.get("seed") || a.get("profile") != b.get("profile") {
        return Err("the two runs differ in seed or profile; only like runs compare".to_string());
    }
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(m)) => Ok(m.clone()),
        _ => Err("no `workloads` object".to_string()),
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:<24} {:>16} {:>16} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "first", "second", "diff", "spread", "bound"
    );
    let mut agree = true;
    for (name, ra) in &wa {
        let rb = wb.get(name).ok_or_else(|| format!("second file lacks workload {name}"))?;
        for m in &END_TO_END {
            let field = |r: &Json, key: &str| {
                r.get("end_to_end").and_then(|e| e.get(m.name)).and_then(|x| x.get(key)).cloned()
            };
            let value = |r: &Json| {
                field(r, "value")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("{name}: no value for {}", m.name))
            };
            let (va, vb) = (value(ra)?, value(rb)?);
            let spread = |r: &Json| field(r, "spread").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let spread = spread(ra).max(spread(rb));
            let unresolved = |r: &Json| matches!(field(r, "unresolved"), Some(Json::Bool(true)));
            let diff = (va - vb).abs() / va.abs().min(vb.abs()).max(1e-300);
            let ok = match m.clock {
                Clock::Host => {
                    let floor = m.name == "setup_s" && (va - vb).abs() <= SETUP_FLOOR_S;
                    (diff <= m.bound || floor) && !unresolved(ra) && !unresolved(rb)
                }
                Clock::Sim | Clock::Count => va == vb,
            };
            agree &= ok;
            let _ = writeln!(
                out,
                "{name:<24} {:<24} {va:>16.6} {vb:>16.6} {:>8.3}% {:>7.3}% {:>7.3}%  {}",
                m.name,
                diff * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if failed(ra) != 0.0 || failed(rb) != 0.0 {
            agree = false;
            let _ =
                writeln!(out, "{name:<24} failed operations: {} and {}", failed(ra), failed(rb));
        }
    }
    Ok((out, agree))
}
