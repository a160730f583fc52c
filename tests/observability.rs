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

/// A page of `lba` at `version`: a fixed base with one 64-byte run that
/// moves with the version, so every rewrite is a small, compressible
/// delta.
fn versioned_page(lba: u64, version: u8) -> Vec<u8> {
    #[allow(clippy::cast_possible_truncation)]
    let mut page: Vec<u8> =
        (0..PAGE as usize).map(|i| (lba as u8) ^ (i as u8).wrapping_mul(31)).collect();
    let at = usize::from(version) * 64 % (PAGE as usize - 64);
    page.get_mut(at..at + 64).expect("inside the page").fill(version);
    page
}

/// A recorded run across every span the engine emits: two retried
/// transient faults (SSD and member), a group-committed batch, an explicit
/// cleaning pass, a member drop rebuilt by `recover_from_hdd_failure`, a
/// power cycle and a final flush. Each span's stages sum to its service
/// time exactly — request and background spans alike — and the rendered
/// snapshot is pinned by digest.
#[test]
fn every_span_attributes_its_whole_service_time() {
    let mut engine = build_engine();
    let plan = FaultPlan::new()
        .transient(400, FaultDomain::Ssd)
        .transient(900, FaultDomain::Disk(1))
        .drop_device(2500, FaultDomain::Disk(2));
    let injector = FaultInjector::new(plan);
    engine.attach_fault_injector(injector.clone());
    engine.attach_recorder(Recorder::new(RecorderConfig {
        sample_interval: SimTime::from_millis(200),
        ring_capacity: 8192,
    }));
    let mut model: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
    let lba_of = |i: u64| (i * 37) % 640;
    for round in 0..6u8 {
        for i in 0..160u64 {
            let lba = lba_of(i + u64::from(round) * 11);
            let page = versioned_page(lba, round.wrapping_mul(7).wrapping_add(1));
            engine.write(lba, &page).expect("write");
            model.insert(lba, page);
            if i % 3 == 0 {
                let probe = lba_of(i / 2);
                let (data, _) = engine.read(probe).expect("read");
                if let Some(want) = model.get(&probe) {
                    assert_eq!(&data, want, "lba {probe}");
                }
            }
        }
        if round == 2 {
            let pages: Vec<(u64, Vec<u8>)> =
                (0..24u64).map(|i| (lba_of(i * 5), versioned_page(lba_of(i * 5), 200))).collect();
            let reqs: Vec<WriteRequest<'_>> =
                pages.iter().map(|(lba, data)| WriteRequest { lba: *lba, data }).collect();
            engine.write_batch(&reqs).expect("batch");
            model.extend(pages);
            let mut t = SimTime::ZERO;
            engine.clean(&mut t).expect("clean");
        }
    }
    assert!(engine.stats().fault_retries >= 2, "both transient faults are retried");
    let failed = engine.raid().failed_disks();
    assert_eq!(failed, vec![2], "the dropped member");
    engine.recover_from_hdd_failure(2).expect("rebuild");
    let mut engine = engine.power_cycle().expect("power cycle");
    for (i, (&lba, page)) in model.iter().enumerate().take(64) {
        if i % 2 == 0 {
            let next = versioned_page(lba, 250);
            engine.write(lba, &next).expect("write after recovery");
        } else {
            assert_eq!(&engine.read(lba).expect("read after recovery").0, page, "lba {lba}");
        }
    }
    engine.flush().expect("flush");
    let c = injector.counters();
    assert_eq!((c.transient, c.device_drops), (2, 1), "every planned fault fired");

    let doc = engine.obs_snapshot().expect("recorder attached");
    let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).expect(key);
    let events = span_events(&doc);
    let mut kinds = std::collections::BTreeSet::new();
    for e in events {
        let service = num(e, "service_ns");
        assert_eq!(num(e, "exit_ns") - num(e, "enter_ns"), service);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let service = service as u64;
        assert_eq!(stage_sum_ns(e), service, "span {e:?}");
        kinds.insert(e.get("class").and_then(Json::as_str).expect("class").to_string());
    }
    let counter = |key: &str| {
        let counters = doc.get("totals").and_then(|t| t.get("counters"));
        counters.and_then(|c| c.get(key)).and_then(Json::as_f64).expect(key)
    };
    #[allow(clippy::cast_precision_loss)]
    let spans = events.len() as f64;
    assert_eq!(spans, counter("obs.requests") + counter("obs.background_spans"), "ring kept all");
    for class in ["cleaner_pass", "group_commit_flush", "raid_reconstruct", "write_hit_delta"] {
        assert!(kinds.contains(class), "no {class} span in {kinds:?}");
    }

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in doc.render().as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    assert_eq!(h, 0x6c24_0fc1_10e2_751c, "rendered snapshot moved: {h:#018x}");
}
