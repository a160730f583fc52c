//! Integration tests for the deterministic observability layer.
//!
//! These exercise the full stack through the `kdd` umbrella crate: an
//! engine with an attached [`Recorder`] must produce `kdd-obs/v2`
//! snapshots that validate, reflect real cleaner/backlog dynamics,
//! carry per-stage latency attribution that obeys the conservation
//! invariant (a span's stage breakdown never exceeds its service
//! time), render to Perfetto-loadable trace-event JSON, and stay
//! byte-identical across independent runs of the same seed.

use kdd::obs::{trace_events, validate_snapshot, Json, Stage};
use kdd::prelude::*;
use proptest::prelude::*;

const PAGE: u32 = 4096;

/// Build the standard test engine: 5-disk RAID-5, 256-page cache.
fn build_engine() -> KddEngine {
    let layout = Layout::new(RaidLevel::Raid5, 5, 16, 16 * 64);
    let raid = RaidArray::new(layout, PAGE);
    let cache_pages = 256u64;
    let ssd = SsdDevice::with_logical_capacity((cache_pages + 64) * u64::from(PAGE), PAGE, 0.07);
    let geometry = CacheGeometry { total_pages: cache_pages, ways: 16, page_size: PAGE };
    KddEngine::new(KddConfig::new(geometry), ssd, raid).expect("engine")
}

/// Drive a seeded paper workload through the engine. `scale` divides
/// the paper's request counts (20 ≈ 350k fin1 requests exercises the
/// cleaner under real pressure; 200–400 keeps property tests quick
/// while still covering every dispatch path).
fn drive(engine: &mut KddEngine, workload: PaperTrace, scale: u64, seed: u64) {
    let trace = workload.generate_scaled(scale, seed);
    let report = kdd::sim::replay_engine(engine, &trace, seed).expect("replay");
    assert_eq!(report.read_mismatches, 0, "a read returned stale content");
}

fn observed_workload_run(workload: PaperTrace, scale: u64, seed: u64) -> Json {
    let mut engine = build_engine();
    engine.attach_recorder(Recorder::new(RecorderConfig {
        sample_interval: SimTime::from_secs(1),
        ring_capacity: 64,
    }));
    drive(&mut engine, workload, scale, seed);
    engine.flush().expect("flush");
    engine.obs_snapshot().expect("recorder enabled")
}

fn observed_run(seed: u64) -> Json {
    observed_workload_run(PaperTrace::Fin1, 20, seed)
}

fn gauge(doc: &Json, key: &str) -> f64 {
    doc.get("totals")
        .and_then(|t| t.get("gauges"))
        .and_then(|g| g.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn span_events(doc: &Json) -> &[Json] {
    doc.get("spans").and_then(|s| s.get("events")).and_then(Json::as_arr).expect("spans.events")
}

/// Sum of a span event's per-stage nanoseconds (the `stages` object).
fn stage_sum_ns(event: &Json) -> u64 {
    let Some(stages) = event.get("stages") else { return 0 };
    Stage::ALL
        .iter()
        .filter_map(|s| stages.get(s.as_str()))
        .map(|v| {
            let ns = v.as_f64().expect("stage value");
            assert!(ns.is_finite() && ns >= 0.0, "negative/NaN stage time");
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let ns = ns as u64;
            ns
        })
        .sum()
}

#[test]
fn snapshot_validates_and_covers_the_lifecycle() {
    let doc = observed_run(42);
    let problems = validate_snapshot(&doc);
    assert!(problems.is_empty(), "snapshot invalid: {problems:?}");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(kdd::obs::SCHEMA),
        "engine must export the current schema"
    );

    let counter = |key: &str| {
        doc.get("totals")
            .and_then(|t| t.get("counters"))
            .and_then(|c| c.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    assert!(counter("obs.requests") > 0.0, "no requests observed");
    assert!(counter("cache.write_hits") > 0.0, "no write hits — delta path untested");
    assert!(counter("ssd.delta_writes") > 0.0, "no DEZ delta writes recorded");
    assert!(counter("cleaner.parity_updates") > 0.0, "cleaner never repaired parity");

    // Span ring captured real completions, including delta-path classes.
    let events = span_events(&doc);
    assert!(!events.is_empty(), "span ring is empty");
    let classes: Vec<&str> =
        events.iter().filter_map(|e| e.get("class").and_then(Json::as_str)).collect();
    assert!(
        classes.iter().any(|c| c.starts_with("write_hit") || *c == "write_miss"),
        "no write completions in span ring: {classes:?}"
    );
    for e in events {
        let enter = e.get("enter_ns").and_then(Json::as_f64).expect("enter_ns");
        let exit = e.get("exit_ns").and_then(Json::as_f64).expect("exit_ns");
        assert!(exit >= enter, "span exits before it enters");
    }

    // The v2 stage table names every Stage (zero-traffic stages included)
    // and attributes real time to the delta and RAID paths.
    let stages = doc.get("stages").expect("v2 snapshot must carry a stages table");
    let stage_sum = |name: &str| {
        stages.get(name).and_then(|h| h.get("sum")).and_then(Json::as_f64).unwrap_or(f64::NAN)
    };
    for stage in Stage::ALL {
        assert!(
            stage_sum(stage.as_str()).is_finite(),
            "stage `{}` missing from stages table",
            stage.as_str()
        );
    }
    assert!(stage_sum("delta_encode") > 0.0, "no time attributed to delta encoding");
    assert!(stage_sum("raid_write") > 0.0, "no time attributed to RAID writes");
    assert!(stage_sum("cleaner_pass") > 0.0, "no background cleaner time attributed");
}

#[test]
fn cleaner_backlog_gauge_returns_to_zero_after_flush() {
    let mut engine = build_engine();
    engine.attach_recorder(Recorder::new(RecorderConfig {
        sample_interval: SimTime::from_secs(1),
        ring_capacity: 64,
    }));
    drive(&mut engine, PaperTrace::Fin1, 20, 7);

    // Mid-run the delayed-parity design must have left work behind.
    let mid = engine.obs_snapshot().expect("snapshot");
    assert!(
        gauge(&mid, "cleaner.backlog_rows") > 0.0,
        "no stale-parity backlog accumulated — write_no_parity_update path inactive"
    );
    assert!(gauge(&mid, "raid.stale_rows") > 0.0);

    engine.flush().expect("flush");
    let done = engine.obs_snapshot().expect("snapshot");
    assert_eq!(gauge(&done, "cleaner.backlog_rows"), 0.0, "backlog not drained by flush");
    assert_eq!(gauge(&done, "raid.stale_rows"), 0.0, "stale parity survived flush");
    assert_eq!(gauge(&done, "nvram.staged_deltas"), 0.0, "staging survived flush");
}

#[test]
fn seeded_replays_render_byte_identical_snapshots() {
    let docs = (observed_run(42), observed_run(42));
    let (a, b) = (docs.0.render(), docs.1.render());
    assert_eq!(a, b, "same seed produced different obs snapshots");

    // The determinism guarantee covers the stage breakdowns specifically:
    // both the aggregate stage table and every per-span attribution.
    assert_eq!(
        docs.0.get("stages").expect("stages").render(),
        docs.1.get("stages").expect("stages").render(),
        "stage tables diverged between identical seeds"
    );
    assert!(
        span_events(&docs.0).iter().any(|e| stage_sum_ns(e) > 0),
        "no span carries a stage breakdown — attribution inert"
    );

    let c = observed_run(43).render();
    assert_ne!(a, c, "different seeds produced identical snapshots");
}

/// Stage-time conservation: for every span the engine emits — request
/// or background — the sum of its per-stage nanoseconds never exceeds
/// the span's wall (simulated) duration. Checked across all four paper
/// workloads so every dispatch path (delta hits, misses, cleaner,
/// group flush) is covered.
#[test]
fn stage_times_are_conserved_across_all_paper_traces() {
    for workload in [PaperTrace::Fin1, PaperTrace::Fin2, PaperTrace::Hm0, PaperTrace::Web0] {
        let doc = observed_workload_run(workload, 200, 42);
        let mut attributed = 0u64;
        for e in span_events(&doc) {
            let enter = e.get("enter_ns").and_then(Json::as_f64).expect("enter_ns");
            let exit = e.get("exit_ns").and_then(Json::as_f64).expect("exit_ns");
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let dur = (exit - enter).max(0.0) as u64;
            let sum = stage_sum_ns(e);
            assert!(
                sum <= dur,
                "{workload:?}: span at lba {} attributes {sum} ns across stages \
                 but served in {dur} ns",
                e.get("lba").and_then(Json::as_f64).unwrap_or(f64::NAN),
            );
            attributed += sum;
        }
        assert!(attributed > 0, "{workload:?}: no stage time attributed at all");

        // The exporter enforces the same invariant internally; a
        // conserving snapshot must therefore always render to a trace.
        trace_events(&doc).unwrap_or_else(|e| panic!("{workload:?}: trace export failed: {e}"));
    }
}

/// Key set of one `totals` table.
fn totals_keys(doc: &Json, table: &str) -> Vec<String> {
    let Some(Json::Obj(map)) = doc.get("totals").and_then(|t| t.get(table)) else {
        panic!("totals.{table} is not an object");
    };
    map.keys().cloned().collect()
}

/// The byte pin covers the engine's snapshot only; the counting models
/// export through the same recorder and must name the same metrics.
#[test]
fn counting_path_exports_the_committed_metric_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBS_engine.json");
    let text = std::fs::read_to_string(path).expect("read the committed OBS_engine.json");
    let committed = kdd::obs::json::parse(&text).expect("committed snapshot parses");

    let trace = PaperTrace::Fin1.generate_scaled(800, 11);
    let geometry = CacheGeometry { total_pages: 256, ways: 16, page_size: PAGE };
    let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
    let mut policy = build_policy(PolicyKind::Kdd(0.25), geometry, raid, 11);
    let recorder =
        Recorder::new(RecorderConfig { sample_interval: SimTime::from_secs(1), ring_capacity: 64 });
    let model = ServiceModel::paper_default();
    kdd::sim::replay_open_loop_observed(policy.as_mut(), &trace, &model, 5, 1, &recorder);
    let doc = kdd::sim::obs_snapshot_policy(policy.as_ref(), &recorder).expect("recorder enabled");

    for table in ["counters", "gauges", "hists", "derived"] {
        assert_eq!(totals_keys(&doc, table), totals_keys(&committed, table), "totals.{table}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The Chrome trace-event export is well-formed for any seed and
    /// workload: the rendered document re-parses as JSON, and within
    /// each track (`tid`) the slice timestamps are monotonically
    /// non-decreasing — the property Perfetto's importer relies on.
    #[test]
    fn trace_export_is_valid_json_with_monotonic_ts(seed in 0u64..500, which in 0usize..4) {
        let workload = match which % 4 {
            0 => PaperTrace::Fin1,
            1 => PaperTrace::Fin2,
            2 => PaperTrace::Hm0,
            _ => PaperTrace::Web0,
        };
        let doc = observed_workload_run(workload, 400, seed);
        let trace = trace_events(&doc).expect("trace export");

        let rendered = trace.render();
        let reparsed = kdd::obs::json::parse(&rendered).expect("export is not valid JSON");

        let events = reparsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        prop_assert!(!events.is_empty(), "empty trace");

        let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for e in events {
            if e.get("ph").and_then(Json::as_str) != Some("X") {
                continue; // metadata records carry no timestamp ordering
            }
            let tid = e.get("tid").and_then(Json::as_f64).expect("tid");
            prop_assert!(tid >= 0.0 && tid.fract() == 0.0, "non-integral tid {tid}");
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let tid = tid as u64;
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
            prop_assert!(ts >= 0.0 && dur >= 0.0, "negative ts/dur");
            let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
            prop_assert!(
                ts >= prev,
                "track {tid}: ts regressed from {prev} to {ts}"
            );
        }
    }
}
