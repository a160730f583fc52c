//! Fixture-corpus tests for the kdd-lint engine: every rule is pinned to
//! exact rule IDs and `file:line` spans on known-bad samples, and to *zero*
//! findings on known-good samples, including waiver-comment handling.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

use xtask::{lint_source, Rule};

fn fixture(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Run a fixture as `crate_name` and return `(rule, line)` pairs, sorted.
fn findings(crate_name: &str, name: &str) -> Vec<(Rule, usize)> {
    let src = fixture(name);
    let report = lint_source(crate_name, name, &src);
    let mut v: Vec<(Rule, usize)> = report.violations.iter().map(|f| (f.rule, f.line)).collect();
    v.sort_by_key(|(r, l)| (*l, *r));
    v
}

#[test]
fn no_panic_bad_pins_every_site() {
    let got = findings("core", "no_panic_bad.rs");
    assert_eq!(
        got,
        vec![
            (Rule::NoPanic, 5),  // unwrap
            (Rule::NoPanic, 6),  // expect
            (Rule::NoPanic, 14), // unreachable!
            (Rule::NoPanic, 19), // todo!
            (Rule::NoPanic, 23), // panic!
        ]
    );
}

#[test]
fn no_panic_bad_reports_rule_id_and_span() {
    let src = fixture("no_panic_bad.rs");
    let report = lint_source("core", "no_panic_bad.rs", &src);
    let first = report.violations.first().expect("has violations");
    assert_eq!(first.rule.code(), "KDD001");
    assert_eq!(first.rule.name(), "no-panic");
    assert_eq!(format!("{first}").split(' ').next(), Some("no_panic_bad.rs:5:"));
}

#[test]
fn no_panic_good_is_clean_and_honours_waiver() {
    let src = fixture("no_panic_good.rs");
    let report = lint_source("core", "no_panic_good.rs", &src);
    assert_eq!(report.violations, vec![], "good fixture must be clean");
    assert_eq!(report.waivers.len(), 2, "both spellings honoured");
    let w = &report.waivers[0];
    assert_eq!(w.rule, Rule::NoPanic);
    assert_eq!(w.line, 36);
    assert!(w.reason.contains("caller checked"));
    let w = &report.waivers[1];
    assert_eq!((w.rule, w.line), (Rule::NoPanic, 41));
    assert!(w.reason.contains("the shorthand form"));
}

#[test]
fn no_panic_only_guards_protected_crates() {
    let src = fixture("no_panic_bad.rs");
    let report = lint_source("bench", "no_panic_bad.rs", &src);
    assert_eq!(report.violations, vec![], "bench may panic");
}

#[test]
fn layering_bad_pins_every_raw_write() {
    let got = findings("sim", "layering_bad.rs");
    assert_eq!(
        got,
        vec![
            (Rule::Layering, 5), // write_page
            (Rule::Layering, 6), // trim_page
            (Rule::Layering, 7), // write_no_parity_update
            (Rule::Layering, 8), // resync
        ]
    );
}

#[test]
fn layering_allows_core_internals() {
    let src = fixture("layering_bad.rs");
    let report = lint_source("core", "layering_bad.rs", &src);
    assert!(
        report.violations.iter().all(|v| v.rule != Rule::Layering),
        "core may touch the substrate"
    );
}

#[test]
fn waiver_bad_reports_malformed_and_uncovered() {
    let got = findings("core", "waiver_bad.rs");
    assert_eq!(
        got,
        vec![
            (Rule::Waiver, 4),   // allow(no-panic) with no reason
            (Rule::NoPanic, 5),  // ...so the unwrap still fires
            (Rule::Waiver, 9),   // allow(no-such-rule)
            (Rule::NoPanic, 10), // ...so the unwrap still fires
            (Rule::NoPanic, 15), // layering waiver does not cover panic!
            (Rule::Waiver, 19),  // allow(indexing-slicing): KDD005 is retired
            (Rule::Waiver, 21),  // kdd-waiver(KDD008): retired too
        ]
    );
}

#[test]
fn error_discard_bad_pins_every_site() {
    let got = findings("core", "error_discard_bad.rs");
    assert_eq!(
        got,
        vec![
            (Rule::ErrorDiscard, 16), // let _ = engine.flush()
            (Rule::ErrorDiscard, 17), // engine.sync().ok()
            (Rule::ErrorDiscard, 18), // std::fs::remove_dir_all(..).ok()
        ]
    );
    let src = fixture("error_discard_bad.rs");
    let report = lint_source("core", "error_discard_bad.rs", &src);
    let first = report.violations.first().expect("has violations");
    assert_eq!(first.rule.code(), "KDD009");
    assert_eq!(first.rule.name(), "error-discard");
    assert!(
        first.message.contains("Engine::flush"),
        "message names the resolved API: {}",
        first.message
    );
}

#[test]
fn error_discard_good_is_clean_and_honours_waiver() {
    let src = fixture("error_discard_good.rs");
    let report = lint_source("core", "error_discard_good.rs", &src);
    assert_eq!(report.violations, vec![], "handled/logged/waived discards are clean");
    assert_eq!(report.waivers.len(), 1, "one waiver honoured");
    assert_eq!(report.waivers[0].rule, Rule::ErrorDiscard);
    assert!(report.waivers[0].reason.contains("best-effort cleanup"));
}

#[test]
fn counter_arith_bad_pins_every_site() {
    let got = findings("blockdev", "counter_arith_bad.rs");
    assert_eq!(
        got,
        vec![
            (Rule::CounterArithmetic, 11), // erase_count += 1
            (Rule::CounterArithmetic, 14), // waf_milli = waf_milli + amplified
            (Rule::CounterArithmetic, 17), // erase_count as u32
            (Rule::CounterArithmetic, 20), // waf_milli as f32
            (Rule::CounterArithmetic, 23), // stale_rows += ...
        ]
    );
    let src = fixture("counter_arith_bad.rs");
    let report = lint_source("blockdev", "counter_arith_bad.rs", &src);
    let first = report.violations.first().expect("has violations");
    assert_eq!(first.rule.code(), "KDD010");
    assert_eq!(first.rule.name(), "counter-arithmetic");
}

#[test]
fn counter_arith_good_is_clean_and_honours_waiver() {
    let src = fixture("counter_arith_good.rs");
    let report = lint_source("blockdev", "counter_arith_good.rs", &src);
    assert_eq!(report.violations, vec![], "checked/saturating/widening forms are clean");
    assert_eq!(report.waivers.len(), 1, "one waiver honoured");
    assert_eq!(report.waivers[0].rule, Rule::CounterArithmetic);
    assert!(report.waivers[0].reason.contains("rated_pe_cycles"));
}

#[test]
fn counter_arith_only_guards_counter_crates() {
    let src = fixture("counter_arith_bad.rs");
    let report = lint_source("sim", "counter_arith_bad.rs", &src);
    assert_eq!(report.violations, vec![], "sim counters are simulation outputs");
}

#[test]
fn layering_indirect_bad_pins_reachability_chain() {
    let got = findings("sim", "layering_indirect_bad.rs");
    assert_eq!(
        got,
        vec![
            (Rule::Layering, 4),  // scrub_disk -> wipe_rows (indirect)
            (Rule::Layering, 8),  // wipe_rows -> wipe_one (indirect)
            (Rule::Layering, 12), // a.write_page (direct)
        ]
    );
    let src = fixture("layering_indirect_bad.rs");
    let report = lint_source("sim", "layering_indirect_bad.rs", &src);
    let indirect = report.violations.iter().find(|v| v.line == 4).expect("indirect hit");
    assert!(
        indirect.message.contains("wipe_rows") && indirect.message.contains("write_page"),
        "witness chain names the path: {}",
        indirect.message
    );
}

#[test]
fn layering_indirect_good_engine_chain_is_clean() {
    let got = findings("sim", "layering_indirect_good.rs");
    assert_eq!(got, vec![], "engine-API chains are sanctioned");
}

#[test]
fn obs_schema_drift_is_flagged_both_directions() {
    use xtask::{check_obs_schema, ObsNames, RegisteredName};
    let doc_text = r#"{
        "schema": "kdd-obs/v2",
        "totals": {
            "counters": {"cache.read_hits": 1},
            "gauges": {},
            "hists": {},
            "derived": {}
        },
        "stages": {
            "delta_encode": {"count": 1, "sum": 30000, "max": 30000, "buckets": [[16384, 1]]}
        },
        "timeseries": [{"t": 0}],
        "wear": {},
        "spans": {"pushed": 1, "dropped": 0, "events": [{"class": "hit_clean"}]}
    }"#;
    let doc = kdd_obs::json::parse(doc_text).expect("doc parses");
    let reg = |name: &str, line: usize| RegisteredName {
        name: name.to_string(),
        file: "crates/obs/src/recorder.rs".to_string(),
        line,
    };
    let base_names = || {
        let mut names = ObsNames::default();
        names.counters.push(reg("cache.read_hits", 80));
        names.span_classes.push("hit_clean".to_string());
        names.span_classes.push("delta_encode".to_string());
        names.stages.push("delta_encode".to_string());
        names
    };

    // Case 1: registered in code but absent from the committed snapshot —
    // pinned to the registration's file:line.
    let mut names = base_names();
    names.counters.push(reg("cache.phantom_hits", 81));
    let found = check_obs_schema(&names, &doc, "OBS_engine.json");
    assert_eq!(found.len(), 1, "exactly the drifted metric: {found:?}");
    assert_eq!(found[0].rule.code(), "KDD011");
    assert_eq!(found[0].rule.name(), "obs-schema");
    assert_eq!(found[0].file, "crates/obs/src/recorder.rs");
    assert_eq!(found[0].line, 81);
    assert!(found[0].message.contains("cache.phantom_hits"));

    // Case 2: exported in the snapshot but no longer registered anywhere.
    let mut names = base_names();
    names.counters.clear();
    let found = check_obs_schema(&names, &doc, "OBS_engine.json");
    assert_eq!(found.len(), 1, "stale export flagged: {found:?}");
    assert_eq!(found[0].rule, Rule::ObsSchema);
    assert_eq!(found[0].file, "OBS_engine.json");
    assert!(found[0].message.contains("cache.read_hits"));

    // Case 3: an exported span class no `as_str` declares.
    let mut names = base_names();
    names.span_classes.retain(|c| c != "hit_clean");
    let found = check_obs_schema(&names, &doc, "OBS_engine.json");
    assert_eq!(found.len(), 1, "undeclared span class flagged: {found:?}");
    assert!(found[0].message.contains("hit_clean"));

    // Case 4: stage taxonomy drift, both directions at once — a declared
    // stage missing from the table AND a table key no Stage declares.
    let mut names = base_names();
    names.stages = vec!["parity_rmw".to_string()];
    names.span_classes.push("parity_rmw".to_string());
    let found = check_obs_schema(&names, &doc, "OBS_engine.json");
    assert_eq!(found.len(), 2, "both stage directions flagged: {found:?}");
    assert!(found.iter().any(|v| v.message.contains("`parity_rmw` is declared")));
    assert!(found.iter().any(|v| v.message.contains("`delta_encode` appears")));

    // Case 5: a committed baseline still on the previous schema version
    // must be called out (and the v2-only checks are skipped, not failed).
    let v1 = kdd_obs::json::parse(&doc_text.replace("kdd-obs/v2", "kdd-obs/v1")).expect("v1 doc");
    let found = check_obs_schema(&base_names(), &v1, "OBS_engine.json");
    assert_eq!(found.len(), 1, "stale schema flagged once: {found:?}");
    assert!(found[0].message.contains("regenerate"), "{}", found[0].message);

    // Agreement in both directions is clean.
    assert_eq!(check_obs_schema(&base_names(), &doc, "OBS_engine.json"), vec![]);
}

#[test]
fn json_report_is_stable_and_machine_readable() {
    let src = fixture("error_discard_bad.rs");
    let report = lint_source("core", "error_discard_bad.rs", &src);
    let rendered = report.render_json();
    let doc = kdd_obs::json::parse(&rendered).expect("report JSON parses");
    assert_eq!(doc.get("schema").and_then(kdd_obs::Json::as_str), Some("kdd-lint/v1"));
    let violations = doc.get("violations").and_then(kdd_obs::Json::as_arr).expect("array");
    assert_eq!(violations.len(), 3);
    let first = &violations[0];
    assert_eq!(first.get("rule").and_then(kdd_obs::Json::as_str), Some("KDD009"));
    assert_eq!(first.get("file").and_then(kdd_obs::Json::as_str), Some("error_discard_bad.rs"));
    assert_eq!(first.get("line").and_then(kdd_obs::Json::as_f64), Some(16.0));
}

#[test]
fn rule_codes_are_stable() {
    for (rule, code, name) in [
        (Rule::Waiver, "KDD000", "waiver"),
        (Rule::NoPanic, "KDD001", "no-panic"),
        (Rule::Layering, "KDD002", "layering"),
        (Rule::ErrorDiscard, "KDD009", "error-discard"),
        (Rule::CounterArithmetic, "KDD010", "counter-arithmetic"),
        (Rule::ObsSchema, "KDD011", "obs-schema"),
    ] {
        assert_eq!(rule.code(), code);
        assert_eq!(rule.name(), name);
        assert_eq!(Rule::parse(code), Some(rule), "parse by code");
        assert_eq!(Rule::parse(name), Some(rule), "parse by name");
    }
    assert_eq!(Rule::parse("no-such-rule"), None);
}

#[test]
fn whole_workspace_is_clean() {
    // The acceptance gate: the shipped tree lints clean under every rule
    // (every honoured waiver carries a written reason by construction of
    // the waiver parser).
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let report = xtask::lint_workspace(std::path::Path::new(root)).expect("workspace walk");
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(rendered, Vec::<String>::new(), "workspace must lint clean");
}
