//! Thresholded snapshot differ: the obs analogue of `perfbench --gate`.
//!
//! [`diff_snapshots`] compares two `kdd-obs` snapshot documents —
//! counter totals, derived ratios, per-stage time totals and the wear
//! histogram — and flags any drift beyond a threshold. CI runs it
//! (`kddtool obs-diff`) between the committed `OBS_engine.json` and a
//! freshly regenerated one: because every stamp in a snapshot is
//! simulated time, the regeneration is byte-identical unless engine
//! behaviour actually changed, so any reported drift is a real
//! behavioural regression (or an intentional change that should come
//! with a regenerated baseline).
//!
//! Counters, stage totals and wear are integer totals compared by
//! *relative* drift; derived ratios (hit ratio, WAF, occupancy) are
//! already normalised and compared by *absolute* delta against the same
//! threshold.

use crate::json::Json;

/// Knobs for [`diff_snapshots`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Maximum tolerated drift: relative (fraction of the baseline) for
    /// integer totals, absolute for derived ratios.
    pub threshold: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        // Tight by design: snapshots are deterministic, so any drift is a
        // code-behaviour change. 1% absorbs only trivial recounts.
        DiffOptions { threshold: 0.01 }
    }
}

/// One compared value.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted path of the value (e.g. `stages.parity_rmw.total_ns`).
    pub key: String,
    /// Value in the baseline document.
    pub base: f64,
    /// Value in the candidate document.
    pub cur: f64,
    /// Measured drift (relative or absolute depending on the table).
    pub drift: f64,
    /// True when `drift` exceeds the threshold.
    pub breach: bool,
}

/// The full comparison result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Every value compared, in deterministic key order.
    pub entries: Vec<DiffEntry>,
    /// Structural problems: schema mismatches, keys present on only one
    /// side. Any problem fails the diff.
    pub problems: Vec<String>,
    /// The threshold the entries were judged against.
    pub threshold: f64,
}

impl DiffReport {
    /// True when nothing breached and the documents are structurally
    /// comparable.
    pub fn ok(&self) -> bool {
        self.problems.is_empty() && self.entries.iter().all(|e| !e.breach)
    }

    /// Entries that exceeded the threshold.
    fn breaches(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(|e| e.breach)
    }

    /// Human-readable report: every problem, every drifted entry, and a
    /// verdict line mirroring `perfbench --gate`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.problems {
            out.push_str(&format!("  problem: {p}\n"));
        }
        for e in &self.entries {
            if e.drift == 0.0 && !e.breach {
                continue;
            }
            let verdict = if e.breach { "FAIL" } else { "ok" };
            out.push_str(&format!(
                "  {:<44} {:>14} -> {:>14}  drift {:+8.3}%  {verdict}\n",
                e.key,
                trim_num(e.base),
                trim_num(e.cur),
                e.drift * 100.0
            ));
        }
        let breaches = self.breaches().count();
        if self.ok() {
            out.push_str(&format!(
                "obs-diff: ok — {} values within ±{:.1}% of baseline\n",
                self.entries.len(),
                self.threshold * 100.0
            ));
        } else {
            out.push_str(&format!(
                "obs-diff: FAIL — {} problem(s), {breaches} value(s) beyond ±{:.1}%\n",
                self.problems.len(),
                self.threshold * 100.0
            ));
        }
        out
    }
}

fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        // Exact by the range check above.
        #[allow(clippy::cast_possible_truncation)]
        let i = v as i64;
        format!("{i}")
    } else {
        format!("{v:.4}")
    }
}

/// Collect the numeric leaves of an object as sorted `(key, value)`
/// pairs (`BTreeMap` iteration keeps this deterministic).
fn numeric_leaves(node: &Json) -> Vec<(String, f64)> {
    match node {
        Json::Obj(map) => {
            map.iter().filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n))).collect()
        }
        _ => Vec::new(),
    }
}

/// Compare one table of numeric leaves. `relative` selects relative
/// (integer totals) vs absolute (ratios) drift.
fn diff_table(
    prefix: &str,
    base: Option<&Json>,
    cur: Option<&Json>,
    relative: bool,
    opts: &DiffOptions,
    report: &mut DiffReport,
) {
    let (base, cur) = match (base, cur) {
        (Some(b), Some(c)) => (b, c),
        (None, None) => return,
        (Some(_), None) => {
            report.problems.push(format!("{prefix}: missing from candidate document"));
            return;
        }
        (None, Some(_)) => {
            report.problems.push(format!("{prefix}: missing from baseline document"));
            return;
        }
    };
    let bleaves = numeric_leaves(base);
    let cleaves = numeric_leaves(cur);
    let lookup = |leaves: &[(String, f64)], key: &str| {
        leaves.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    };
    for (key, bval) in &bleaves {
        let Some(cval) = lookup(&cleaves, key) else {
            report.problems.push(format!("{prefix}.{key}: missing from candidate document"));
            continue;
        };
        let drift = if relative {
            if *bval == 0.0 {
                if cval == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (cval - bval) / bval
            }
        } else {
            cval - bval
        };
        report.entries.push(DiffEntry {
            key: format!("{prefix}.{key}"),
            base: *bval,
            cur: cval,
            drift,
            breach: drift.abs() > opts.threshold,
        });
    }
    for (key, _) in &cleaves {
        if lookup(&bleaves, key).is_none() {
            report.problems.push(format!("{prefix}.{key}: missing from baseline document"));
        }
    }
}

/// The per-stage table exports full histograms; gate on each stage's
/// total simulated time (`sum`) — the "where the microseconds go" number.
fn stage_totals(doc: &Json) -> Option<Json> {
    let stages = doc.get("stages")?;
    let Json::Obj(map) = stages else { return None };
    let totals: std::collections::BTreeMap<String, Json> = map
        .iter()
        .filter_map(|(name, hist)| {
            hist.get("sum")
                .and_then(Json::as_f64)
                .map(|s| (format!("{name}.total_ns"), Json::Num(s)))
        })
        .collect();
    Some(Json::Obj(totals))
}

/// Compare two snapshot documents. `base` is the committed reference,
/// `cur` the regenerated candidate. Byte-identical documents always
/// produce an empty, passing report.
pub fn diff_snapshots(base: &Json, cur: &Json, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport { threshold: opts.threshold, ..DiffReport::default() };
    let schema = |d: &Json| d.get("schema").and_then(Json::as_str).map(str::to_string);
    match (schema(base), schema(cur)) {
        (Some(a), Some(b)) if a == b => {}
        (a, b) => report.problems.push(format!("schema mismatch: baseline {a:?}, candidate {b:?}")),
    }
    diff_table(
        "counters",
        base.get("totals").and_then(|t| t.get("counters")),
        cur.get("totals").and_then(|t| t.get("counters")),
        true,
        opts,
        &mut report,
    );
    diff_table(
        "derived",
        base.get("totals").and_then(|t| t.get("derived")),
        cur.get("totals").and_then(|t| t.get("derived")),
        false,
        opts,
        &mut report,
    );
    diff_table(
        "stages",
        stage_totals(base).as_ref(),
        stage_totals(cur).as_ref(),
        true,
        opts,
        &mut report,
    );
    let wear_tot = |d: &Json| {
        d.get("wear").map(|w| {
            let pick = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            Json::Obj(
                [("count", pick("count")), ("max", pick("max")), ("sum", pick("sum"))]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            )
        })
    };
    diff_table("wear", wear_tot(base).as_ref(), wear_tot(cur).as_ref(), true, opts, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, RecorderConfig};
    use crate::registry::Log2Hist;
    use crate::ring::{Completion, HitClass, ReqKind};
    use crate::snapshot::Sample;
    use crate::stage::Stage;
    use kdd_util::SimTime;

    fn snapshot() -> Json {
        let r = Recorder::new(RecorderConfig::default());
        let mut c = Completion::new(ReqKind::Write, 7, HitClass::WriteHitDelta, SimTime(46_000));
        c.stages.add(Stage::DeltaEncode, SimTime(30_000));
        c.stages.add(Stage::RaidWrite, SimTime(16_000));
        r.record(c);
        let fin = Sample {
            at: r.now(),
            host_written_bytes: 4096,
            nand_written_bytes: 8192,
            ..Sample::default()
        };
        r.export(&fin, &Log2Hist::new()).expect("enabled")
    }

    #[test]
    fn identical_documents_pass_with_no_findings() {
        let a = snapshot();
        let b = crate::json::parse(&a.render()).expect("reparse");
        let report = diff_snapshots(&a, &b, &DiffOptions::default());
        assert!(report.ok(), "unexpected findings: {}", report.render());
        assert!(report.breaches().next().is_none());
        assert!(report.render().contains("obs-diff: ok"));
    }

    #[test]
    fn perturbed_stage_total_breaches_the_gate() {
        let a = snapshot();
        let text = a.render();
        // Inflate delta_encode's total well beyond the threshold (the
        // stage table renders "sum": 30000 once: in stages.delta_encode).
        let b =
            crate::json::parse(&text.replace("\"sum\": 30000", "\"sum\": 60000")).expect("parse");
        let report = diff_snapshots(&a, &b, &DiffOptions::default());
        assert!(!report.ok());
        let breach = report.breaches().find(|e| e.key == "stages.delta_encode.total_ns");
        let breach = breach.expect("stage total breach");
        assert_eq!(breach.base, 30_000.0);
        assert_eq!(breach.cur, 60_000.0);
        assert!(report.render().contains("obs-diff: FAIL"));
    }

    #[test]
    fn drift_within_threshold_passes_and_zero_baselines_flag_new_traffic() {
        let a = snapshot();
        let text = a.render();
        // cache.read_hits is 0 in both; make the candidate non-zero.
        let b =
            crate::json::parse(&text.replace("\"cache.read_hits\": 0", "\"cache.read_hits\": 5"))
                .expect("parse");
        let report = diff_snapshots(&a, &b, &DiffOptions { threshold: 0.5 });
        let e =
            report.entries.iter().find(|e| e.key == "counters.cache.read_hits").expect("compared");
        assert!(e.breach, "0 -> 5 must breach any finite threshold");
    }

    #[test]
    fn structural_divergence_is_a_problem_not_a_panic() {
        let a = snapshot();
        let b = crate::json::parse(r#"{"schema": "kdd-obs/v1", "totals": {"counters": {}}}"#)
            .expect("parse");
        let report = diff_snapshots(&a, &b, &DiffOptions::default());
        assert!(!report.ok());
        assert!(report.problems.iter().any(|p| p.contains("schema mismatch")));
        assert!(report.problems.iter().any(|p| p.contains("missing from candidate")));
    }
}
