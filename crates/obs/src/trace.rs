//! Chrome trace-event export: render a snapshot's span ring as a
//! Perfetto-loadable timeline.
//!
//! [`trace_events`] turns the `spans.events` of a `kdd-obs` snapshot
//! into the [Trace Event Format] consumed by `chrome://tracing` and
//! [Perfetto]: complete (`"ph": "X"`) slices with microsecond `ts`/`dur`,
//! one thread track for host requests and one for background work. Each
//! span's stage breakdown is laid out as child slices packed from the
//! parent's start — the conservation invariant (stage sum ≤ service)
//! guarantees they fit inside the parent, so the viewer nests them.
//!
//! The export is a pure function of the snapshot document: events are
//! ordered per track by timestamp (ties broken by ring order), and all
//! numbers derive from the integer nanosecond stamps, so the rendered
//! bytes are deterministic.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use crate::json::{obj, Json};
use std::collections::BTreeMap;

/// Track (thread) id for host-request spans.
const TID_REQUESTS: u64 = 1;
/// Track (thread) id for background spans (cleaner, flush, recovery).
const TID_BACKGROUND: u64 = 2;
/// Process id stamped on every event (one simulated engine).
const PID: u64 = 1;

/// One slice before JSON rendering, keyed for deterministic ordering.
struct Slice {
    tid: u64,
    ts_ns: u64,
    dur_ns: u64,
    name: String,
    cat: String,
    args: Vec<(String, Json)>,
}

fn num(v: &Json, key: &str) -> Option<u64> {
    let n = v.get(key)?.as_f64()?;
    if n.is_finite() && n >= 0.0 {
        // Stamps originate from u64 nanoseconds; this inverts the export cast.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(n as u64)
    } else {
        None
    }
}

/// Convert integer nanoseconds to the trace format's microsecond floats.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

fn metadata(name: &str, tid: Option<u64>, value: &str) -> Json {
    let mut pairs = vec![
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::Num(PID as f64)),
        ("name", Json::Str(name.to_string())),
        ("args", obj(vec![("name", Json::Str(value.to_string()))])),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid", Json::Num(tid as f64)));
    }
    obj(pairs)
}

fn slice_to_json(s: &Slice) -> Json {
    let mut args: BTreeMap<String, Json> = s.args.iter().cloned().collect();
    args.insert("dur_ns".to_string(), Json::Num(s.dur_ns as f64));
    obj(vec![
        ("ph", Json::Str("X".to_string())),
        ("name", Json::Str(s.name.clone())),
        ("cat", Json::Str(s.cat.clone())),
        ("ts", us(s.ts_ns)),
        ("dur", us(s.dur_ns)),
        ("pid", Json::Num(PID as f64)),
        ("tid", Json::Num(s.tid as f64)),
        ("args", Json::Obj(args)),
    ])
}

/// Expand one exported span event into its parent slice plus child stage
/// slices packed sequentially from the parent's start.
fn expand_event(event: &Json, out: &mut Vec<Slice>) -> Result<(), String> {
    let enter = num(event, "enter_ns").ok_or("span event missing enter_ns")?;
    let exit = num(event, "exit_ns").ok_or("span event missing exit_ns")?;
    let kind = event.get("kind").and_then(Json::as_str).ok_or("span event missing kind")?;
    let class = event.get("class").and_then(Json::as_str).ok_or("span event missing class")?;
    let seq = num(event, "seq").unwrap_or(0);
    let tid = if kind == "background" { TID_BACKGROUND } else { TID_REQUESTS };
    let dur = exit.saturating_sub(enter);

    let mut args: Vec<(String, Json)> = vec![("seq".to_string(), Json::Num(seq as f64))];
    for key in ["lba", "ssd_reads", "ssd_writes", "raid_reads", "raid_writes", "comp_milli"] {
        if let Some(v) = num(event, key) {
            if key == "lba" || v > 0 {
                args.push((key.to_string(), Json::Num(v as f64)));
            }
        }
    }
    out.push(Slice {
        tid,
        ts_ns: enter,
        dur_ns: dur,
        name: format!("{kind}:{class}"),
        cat: kind.to_string(),
        args,
    });

    // Child stage slices: the exported breakdown is `{stage: ns}` in
    // BTreeMap (name) order; pack them back-to-back from the parent's
    // start. Conservation (sum ≤ service) keeps them inside the parent.
    if let Some(Json::Obj(stages)) = event.get("stages") {
        let mut cursor = enter;
        for (stage, v) in stages {
            let Some(ns) = v.as_f64().filter(|n| n.is_finite() && *n > 0.0) else { continue };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let ns = ns as u64;
            out.push(Slice {
                tid,
                ts_ns: cursor,
                dur_ns: ns,
                name: stage.clone(),
                cat: "stage".to_string(),
                args: vec![("seq".to_string(), Json::Num(seq as f64))],
            });
            cursor = cursor.saturating_add(ns);
        }
        if cursor.saturating_sub(enter) > dur {
            return Err(format!(
                "span seq {seq}: stage breakdown ({} ns) exceeds service ({dur} ns)",
                cursor.saturating_sub(enter)
            ));
        }
    }
    Ok(())
}

/// Render a snapshot document's span ring as a Chrome trace-event JSON
/// document (`{"displayTimeUnit": "ms", "traceEvents": [...]}`).
///
/// Events are grouped per track and sorted by timestamp (stable on ring
/// order), so `ts` is monotonically non-decreasing within each `tid` —
/// the property the proptest in `tests/observability.rs` pins. Returns
/// `Err` when the document has no span events or an event violates the
/// stage-time conservation invariant.
pub fn trace_events(doc: &Json) -> Result<Json, String> {
    let events = doc
        .get("spans")
        .and_then(|s| s.get("events"))
        .and_then(Json::as_arr)
        .ok_or("document has no spans.events array")?;
    if events.is_empty() {
        return Err("spans.events is empty: nothing to trace".to_string());
    }
    let mut slices = Vec::new();
    for event in events {
        expand_event(event, &mut slices)?;
    }
    // Stable sort by (track, timestamp): per-track monotonic ts, ring
    // order preserved on ties.
    slices.sort_by_key(|s| (s.tid, s.ts_ns));

    let mut out = vec![
        metadata("process_name", None, "kdd engine (simulated time)"),
        metadata("thread_name", Some(TID_REQUESTS), "requests"),
        metadata("thread_name", Some(TID_BACKGROUND), "background"),
    ];
    out.extend(slices.iter().map(slice_to_json));
    Ok(obj(vec![("displayTimeUnit", Json::Str("ms".to_string())), ("traceEvents", Json::Arr(out))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Log2Hist;
    use crate::recorder::{Recorder, RecorderConfig};
    use crate::ring::{Completion, HitClass, ReqKind};
    use crate::snapshot::Sample;
    use crate::stage::{Stage, StageTimes};
    use kdd_util::SimTime;

    fn snapshot_with_traffic() -> Json {
        let r = Recorder::new(RecorderConfig::default());
        let mut c = Completion::new(ReqKind::Write, 7, HitClass::WriteHitDelta, SimTime(46_000));
        c.stages.add(Stage::DeltaEncode, SimTime(30_000));
        c.stages.add(Stage::RaidWrite, SimTime(16_000));
        r.record(c);
        let mut bg = StageTimes::new();
        bg.add(Stage::ParityRmw, SimTime(24_000));
        r.record_background(Stage::CleanerPass, SimTime(24_000), bg);
        r.export(&Sample { at: r.now(), ..Sample::default() }, &Log2Hist::new())
            .expect("enabled recorder")
    }

    #[test]
    fn trace_nests_stage_slices_inside_parents_per_track() {
        let doc = snapshot_with_traffic();
        let trace = trace_events(&doc).expect("trace");
        let events = trace.get("traceEvents").and_then(Json::as_arr).expect("events");
        // 3 metadata + 2 parents + 3 stage children.
        assert_eq!(events.len(), 8);
        let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for e in events {
            if e.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            let tid = e.get("tid").and_then(Json::as_f64).expect("tid");
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let tid = tid as u64;
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
            assert!(ts >= prev, "ts must be non-decreasing per track");
        }
        // The request parent and its first child share a start; the child
        // slices cover delta_encode then raid_write in name order.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("stage"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["delta_encode", "raid_write", "parity_rmw"]);
    }

    #[test]
    fn trace_rejects_conservation_violations() {
        let mut doc = snapshot_with_traffic();
        // Corrupt the first event's breakdown so stages exceed service.
        let text = doc.render().replace("\"delta_encode\": 30000", "\"delta_encode\": 99999999");
        doc = crate::json::parse(&text).expect("parse");
        let err = trace_events(&doc).expect_err("must reject");
        assert!(err.contains("exceeds service"), "got: {err}");
    }

    #[test]
    fn trace_requires_span_events() {
        let doc = crate::json::parse(r#"{"spans": {"events": []}}"#).expect("parse");
        assert!(trace_events(&doc).is_err());
    }
}
