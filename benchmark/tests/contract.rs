//! The benchmark's promises, checked on the smoke profile: names agree
//! with `BENCHMARK.json`, one seed gives one set of inputs, counts and
//! simulated times, another seed gives other inputs, the smoke variant
//! reports every metric of the full run, and outputs are checked.

use std::collections::BTreeSet;
use std::process::Command;

use kdd_benchmark::calib::Calibrator;
use kdd_benchmark::report;
use kdd_benchmark::run::{self, Options, Runner};
use kdd_benchmark::spec::{Profile, END_TO_END, EST_SHARES, PER_LAYER, WORKLOADS};
use kdd_obs::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    kdd_obs::json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("every entry has a name").to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn names_are_well_formed_unique_and_equal_to_benchmark_json() {
    let doc = benchmark_json();
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(&doc, "end_to_end"), e2e);
    assert_eq!(names(&doc, "per_layer"), layers);
    assert_eq!(names(&doc, "workloads"), workloads);
    let all: Vec<&String> = e2e.iter().chain(&layers).chain(&workloads).collect();
    assert!(all.iter().all(|n| well_formed(n)), "a name breaks [A-Za-z0-9_.-]+");
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used twice");

    // Units, directions and bounds travel with the names.
    let entries = doc.get("end_to_end").and_then(Json::as_arr).expect("list");
    for (entry, m) in entries.iter().zip(&END_TO_END) {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
        let better = if m.higher_is_better { "higher" } else { "lower" };
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better), "{}", m.name);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let entries = doc.get("per_layer").and_then(Json::as_arr).expect("list");
    for (entry, m) in entries.iter().zip(&PER_LAYER) {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.1), "{}", m.0);
        let better = if m.2 { "higher" } else { "lower" };
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better), "{}", m.0);
    }
    for (entry, w) in
        doc.get("workloads").and_then(Json::as_arr).expect("list").iter().zip(&WORKLOADS)
    {
        assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert_eq!(doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
}

#[test]
fn one_seed_one_result_another_seed_other_inputs() {
    let mut cal = Calibrator::new();
    for w in &WORKLOADS {
        let runner = Runner::by_name(w.name, Profile::Smoke).expect("every workload has a runner");
        let a = runner.rep(11, false, &mut cal);
        let b = runner.rep(11, false, &mut cal);
        let c = runner.rep(12, false, &mut cal);
        // `end_to_end` panics if counts or simulated times differ at all.
        let report = run::end_to_end(w.name, &[a, b]);
        assert_eq!(report.failed, 0, "{}: outputs must check out", w.name);
        assert!(report.attempted > 0);
        assert_ne!(
            report.input_digest, c.fixed.input_digest,
            "{}: the seed must reach the inputs",
            w.name
        );
        for m in &report.end_to_end {
            assert!(m.value.is_finite() && m.value > 0.0, "{} {} = {}", w.name, m.name, m.value);
        }
    }
}

#[test]
fn smoke_with_trace_reports_every_metric_and_the_shares_sum_to_one() {
    let opts =
        Options { workload: None, seed: 5, seconds: 0.01, trace: true, profile: Profile::Smoke };
    let reports = run::run(&opts).expect("all workloads run");
    assert_eq!(reports.iter().map(|r| r.name).collect::<Vec<_>>(), WORKLOADS.map(|w| w.name));
    for r in &reports {
        assert_eq!(r.failed, 0, "{}", r.name);
        let e2e: Vec<&str> = r.end_to_end.iter().map(|m| m.name).collect();
        assert_eq!(e2e, END_TO_END.map(|m| m.name));
        let layers = r.per_layer.as_ref().expect("traced run");
        assert_eq!(layers.iter().map(|m| m.name).collect::<Vec<_>>(), PER_LAYER.map(|m| m.0));
        // Every per-layer metric is a count, a time or a share: never below
        // zero, and a wrapped counter difference (≈ 2^64) is not a value.
        for m in layers {
            assert!((0.0..1e15).contains(&m.value), "{} {} = {}", r.name, m.name, m.value);
        }
        let get = |n: &str| layers.iter().find(|m| m.name == n).map(|m| m.value).expect("listed");
        let shares: f64 = EST_SHARES.iter().map(|n| get(n)).sum();
        assert!((shares + get("harness.unattributed_share") - 1.0).abs() < 1e-9, "{}", r.name);
        let trace = r.trace_file.as_ref().expect("traced run writes spans");
        let doc = kdd_obs::json::parse(trace).expect("span file is JSON");
        assert!(doc.get("spans").and_then(Json::as_arr).is_some_and(|s| !s.is_empty()));
    }
    // Every engine layer shows up on an engine workload, every sim metric on
    // the counting one.
    let value = |w: &str, n: &str| {
        let r = reports.iter().find(|r| r.name == w).expect("ran");
        r.per_layer.as_ref().expect("traced").iter().find(|m| m.name == n).expect("listed").value
    };
    for n in [
        "delta.compress_ns_per_page",
        "cache.lookup_ns",
        "core.read_host_p50_us",
        "raid.read_page_ns",
        "blockdev.ssd_write_ns",
        "core.hdd_recovery_host_ms",
    ] {
        assert!(value("zipf_fit_raid6_faults", n) > 0.0, "{n}");
    }
    for n in [
        "sim.open_loop_records_per_s",
        "sim.des_records_per_s",
        "core.policy_access_ns.kdd",
        "sim.kdd_response_vs_wt",
    ] {
        assert!(value("policy_sweep_counting", n) > 0.0, "{n}");
        assert_eq!(value("fin1_write_heavy", n), 0.0, "{n} is not an engine metric");
    }

    // Two result files of the same run agree; a moved count does not. (Two
    // smoke repetitions are too few to resolve a host time; that flag is
    // not what is tested here.)
    let mut reports = reports;
    reports.iter_mut().flat_map(|r| &mut r.end_to_end).for_each(|m| m.resolved = true);
    let doc = report::results_json(&reports, 5, 0.01, true);
    let (_, agree) = report::compare(&doc, &doc).expect("parses");
    assert!(agree);
    let mut moved = reports.clone();
    moved[0].end_to_end.iter_mut().find(|m| m.name == "hit_ratio").expect("listed").value *= 1.001;
    let (table, agree) =
        report::compare(&doc, &report::results_json(&moved, 5, 0.01, true)).expect("parses");
    assert!(!agree && table.contains("DISAGREE"));
}

#[test]
fn command_line_prints_one_json_result_with_exactly_the_contract_keys() {
    let out_dir = std::env::temp_dir().join(format!("kdd-benchmark-test-{}", std::process::id()));
    let run = |trace: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_kdd-benchmark"))
            .args(["--workload", "fin2_read_heavy", "--seed", "9", "--seconds", "0.01", "--smoke"])
            .args(["--trace", trace, "--out-dir"])
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        kdd_obs::json::parse(stdout.lines().last().expect("a last line"))
            .expect("last line is JSON")
    };
    for (trace, expected) in
        [("0", END_TO_END.map(|m| m.name).to_vec()), ("1", PER_LAYER.map(|m| m.0).to_vec())]
    {
        let doc = run(trace);
        let Json::Obj(top) = &doc else { panic!("result is an object") };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(doc.get("attempted").and_then(Json::as_f64).is_some_and(|a| a >= 1.0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics is an object") };
        let got: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(got, expected.iter().copied().collect::<BTreeSet<_>>(), "--trace {trace}");
        assert!(metrics.values().all(|m| m.get("value").is_some() && m.get("unit").is_some()));
    }
    assert!(out_dir.join("results.json").exists());
    assert!(out_dir.join("trace_fin2_read_heavy.json").exists());
    std::fs::remove_dir_all(&out_dir).ok();

    let bad = Command::new(env!("CARGO_BIN_EXE_kdd-benchmark"))
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("binary runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty(), "no result on a usage error");
}
