//! Perfbench trajectory documents.
//!
//! The JSON emitter/parser itself moved to [`kdd_obs::json`] so the
//! observability snapshots and the BENCH_*.json trajectory files share
//! one deterministic renderer; this module keeps the perfbench schema:
//! the `kdd-perfbench/v1` stamp, document validation, and run merging.
//! See PERF.md "Harnesses, gate and file schema" for the schema.

pub use kdd_obs::json::{obj, parse, Json};

/// Schema identifier stamped into every perfbench file.
pub const SCHEMA: &str = "kdd-perfbench/v1";

/// Validate a perfbench trajectory document: schema stamp, `kind`, and at
/// least one run whose entries all carry a `name` plus finite numeric
/// metrics. Returns a list of problems (empty = valid).
pub fn validate(doc: &Json, expect_kind: &str) -> Vec<String> {
    let mut problems = Vec::new();
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        other => problems.push(format!("schema: expected {SCHEMA:?}, got {other:?}")),
    }
    match doc.get("kind").and_then(Json::as_str) {
        Some(k) if k == expect_kind => {}
        other => problems.push(format!("kind: expected {expect_kind:?}, got {other:?}")),
    }
    let Some(runs) = doc.get("runs").and_then(Json::as_arr) else {
        problems.push("runs: missing or not an array".to_string());
        return problems;
    };
    if runs.is_empty() {
        problems.push("runs: empty".to_string());
    }
    for (i, run) in runs.iter().enumerate() {
        if run.get("label").and_then(Json::as_str).is_none() {
            problems.push(format!("runs[{i}].label: missing"));
        }
        let Some(entries) = run.get("entries").and_then(Json::as_arr) else {
            problems.push(format!("runs[{i}].entries: missing or not an array"));
            continue;
        };
        if entries.is_empty() {
            problems.push(format!("runs[{i}].entries: empty"));
        }
        for (j, e) in entries.iter().enumerate() {
            if e.get("name").and_then(Json::as_str).is_none() {
                problems.push(format!("runs[{i}].entries[{j}].name: missing"));
            }
            let Json::Obj(fields) = e else {
                problems.push(format!("runs[{i}].entries[{j}]: not an object"));
                continue;
            };
            let mut metrics = 0;
            for (k, v) in fields {
                if k == "name" {
                    continue;
                }
                match v.as_f64() {
                    Some(n) if n.is_finite() => metrics += 1,
                    _ => problems.push(format!("runs[{i}].entries[{j}].{k}: not a finite number")),
                }
            }
            if metrics == 0 {
                problems.push(format!("runs[{i}].entries[{j}]: no numeric metrics"));
            }
        }
    }
    problems
}

/// Merge `run` into `doc`'s `runs` array, replacing any run with the same
/// label. Creates the document scaffolding if `doc` is `None`.
pub fn merge_run(doc: Option<Json>, kind: &str, page_size: u32, run: Json) -> Json {
    let mut doc = match doc {
        Some(d @ Json::Obj(_)) => d,
        _ => obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("kind", Json::Str(kind.to_string())),
            ("page_size", Json::Num(f64::from(page_size))),
            ("runs", Json::Arr(Vec::new())),
        ]),
    };
    let label = run.get("label").and_then(Json::as_str).unwrap_or("current").to_string();
    if let Json::Obj(map) = &mut doc {
        let runs = map.entry("runs".to_string()).or_insert_with(|| Json::Arr(Vec::new()));
        if let Some(list) = runs.as_arr_mut() {
            list.retain(|r| r.get("label").and_then(Json::as_str) != Some(label.as_str()));
            list.push(run);
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_render_and_parse() {
        let doc = obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("kind", Json::Str("kernels".to_string())),
            ("page_size", Json::Num(4096.0)),
            (
                "runs",
                Json::Arr(vec![obj(vec![
                    ("label", Json::Str("before".to_string())),
                    (
                        "entries",
                        Json::Arr(vec![obj(vec![
                            ("name", Json::Str("xor_4k".to_string())),
                            ("ns_per_iter", Json::Num(161.25)),
                            ("mb_per_s", Json::Num(25403.0)),
                        ])]),
                    ),
                ])]),
            ),
        ]);
        let text = doc.render();
        let back = parse(&text).expect("parse");
        assert_eq!(back, doc);
        assert!(validate(&back, "kernels").is_empty(), "{:?}", validate(&back, "kernels"));
    }

    #[test]
    fn validate_catches_problems() {
        let doc = parse(r#"{"schema":"nope","kind":"kernels","runs":[]}"#).expect("parse");
        let probs = validate(&doc, "engine");
        assert!(probs.iter().any(|p| p.contains("schema")));
        assert!(probs.iter().any(|p| p.contains("kind")));
        assert!(probs.iter().any(|p| p.contains("empty")));
    }

    #[test]
    fn merge_replaces_same_label() {
        let run_a =
            obj(vec![("label", Json::Str("before".to_string())), ("entries", Json::Arr(vec![]))]);
        let run_b = obj(vec![
            ("label", Json::Str("before".to_string())),
            (
                "entries",
                Json::Arr(vec![obj(vec![
                    ("name", Json::Str("x".to_string())),
                    ("v", Json::Num(1.0)),
                ])]),
            ),
        ]);
        let doc = merge_run(None, "kernels", 4096, run_a);
        let doc = merge_run(Some(doc), "kernels", 4096, run_b);
        let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!(runs.len(), 1);
        let first = runs.first().expect("one run");
        assert_eq!(first.get("entries").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    }
}
