//! Uniform experiment rows and table rendering.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

use kdd_obs::json::write_str;
use std::fmt::Write as _;

/// One data point of one figure/table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id, the name it has in [`crate::experiments::EXPERIMENTS`].
    pub experiment: String,
    /// Workload name ("Fin1", "fio", ...).
    pub workload: String,
    /// Meaning of `x` ("cache_kpages", "read_rate", "partition_pct", ...).
    pub x_label: String,
    /// Sweep coordinate.
    pub x: f64,
    /// Policy / variant name.
    pub policy: String,
    /// Named metrics for this point.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// Construct a row; the experiment that runs it names it.
    pub fn new(
        workload: &str,
        x_label: &str,
        x: f64,
        policy: &str,
        metrics: Vec<(&str, f64)>,
    ) -> Row {
        Row {
            experiment: String::new(),
            workload: workload.into(),
            x_label: x_label.into(),
            x,
            policy: policy.into(),
            metrics: metrics.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Fetch a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// A number as JSON: the shortest text that reads back to the same
/// `f64`, always with a fraction or exponent (`100.0`, `9.93`,
/// `0.19219176115975312`); non-finite values have no JSON form and
/// become `null`.
#[expect(clippy::let_underscore_must_use, reason = "fmt::Write into a String cannot fail")]
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

#[expect(clippy::let_underscore_must_use, reason = "fmt::Write into a String cannot fail")]
fn write_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "    \"{key}\": ");
    write_str(out, value);
    out.push_str(",\n");
}

/// Render rows as a pretty-printed JSON array (2-space indent, no
/// trailing newline), one object per row with its fields in declaration
/// order and `metrics` as `[name, value]` pairs — the layout of the
/// committed `results/repro_scale100.json`.
pub fn rows_to_json(rows: &[Row]) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("  {\n");
        write_str_field(&mut out, "experiment", &r.experiment);
        write_str_field(&mut out, "workload", &r.workload);
        write_str_field(&mut out, "x_label", &r.x_label);
        out.push_str("    \"x\": ");
        write_f64(&mut out, r.x);
        out.push_str(",\n");
        write_str_field(&mut out, "policy", &r.policy);
        out.push_str("    \"metrics\": [");
        for (j, (name, value)) in r.metrics.iter().enumerate() {
            out.push_str(if j == 0 { "\n" } else { ",\n" });
            out.push_str("      [\n        ");
            write_str(&mut out, name);
            out.push_str(",\n        ");
            write_f64(&mut out, *value);
            out.push_str("\n      ]");
        }
        out.push_str(if r.metrics.is_empty() { "]\n" } else { "\n    ]\n" });
        out.push_str(if i + 1 < rows.len() { "  },\n" } else { "  }\n" });
    }
    out.push(']');
    out
}

/// Render rows as aligned text tables, grouped by (experiment, workload).
pub fn print_rows(rows: &[Row]) {
    let mut i = 0;
    while i < rows.len() {
        let exp = &rows[i].experiment;
        let wl = &rows[i].workload;
        let group_end = rows[i..]
            .iter()
            .position(|r| &r.experiment != exp || &r.workload != wl)
            .map(|p| i + p)
            .unwrap_or(rows.len());
        let group = &rows[i..group_end];
        println!("\n== {} / {} ==", exp, wl);
        // Header from the first row's metrics.
        print!("{:<10} {:>12}", "policy", group[0].x_label);
        for (k, _) in &group[0].metrics {
            print!(" {:>16}", k);
        }
        println!();
        for r in group {
            print!("{:<10} {:>12.4}", r.policy, r.x);
            for (_, v) in &r.metrics {
                print!(" {:>16.4}", v);
            }
            println!();
        }
        i = group_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lookup() {
        let r = Row::new("Fin1", "cache", 1.0, "WT", vec![("hit", 0.5), ("mib", 12.0)]);
        assert_eq!(r.metric("hit"), Some(0.5));
        assert_eq!(r.metric("nope"), None);
    }

    #[test]
    fn printing_does_not_panic() {
        let rows = vec![
            Row::new("Fin1", "cache", 1.0, "WT", vec![("hit", 0.5)]),
            Row::new("Fin1", "cache", 2.0, "WT", vec![("hit", 0.6)]),
            Row::new("Hm0", "cache", 1.0, "KDD-25%", vec![("hit", 0.4)]),
        ];
        print_rows(&rows);
    }
}
