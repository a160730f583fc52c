//! The committed artefacts are what the binaries print today, byte for
//! byte: `results/repro_scale100.{txt,json}` (every table and figure) and
//! `OBS_engine.json` (the engine's observability snapshot). The crate
//! `clippy.toml` files keep every ban of the root one.

use std::path::{Path, PathBuf};
use std::process::Command;

fn committed(file: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{name}-{}", std::process::id()))
}

/// Equal bytes, or the first line that differs (the files run to 200 KB).
fn assert_same(what: &str, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let (got, want) = (String::from_utf8_lossy(got), String::from_utf8_lossy(want));
    let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    let line = line.unwrap_or(got.lines().count().min(want.lines().count()));
    panic!(
        "{what} differs from the committed file at line {}:\n  got  {:?}\n  want {:?}",
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line)
    );
}

/// `repro all --scale 100 --seed 42`, text and JSON. (It keeps the name it
/// had when it compared the four table1 rows alone — a subset of this.)
#[test]
fn table1_json_parses_and_matches_the_committed_rows() {
    let out = scratch("repro-all.json");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "100", "--seed", "42", "--json"])
        .arg(&out)
        .output()
        .expect("run repro");
    assert!(run.status.success(), "repro failed: {}", String::from_utf8_lossy(&run.stderr));
    let json = std::fs::read_to_string(&out).expect("read repro output");
    if let Err(e) = std::fs::remove_file(&out) {
        eprintln!("tempfile cleanup failed ({}): {e}", out.display());
    }
    kdd_obs::json::parse(&json).expect("repro --json output is not JSON");
    assert_same("repro's text output", &run.stdout, &committed("results/repro_scale100.txt"));
    assert_same("repro --json", json.as_bytes(), &committed("results/repro_scale100.json"));
}

/// Within one block (experiment, workload) of the committed rows, each
/// row's (policy, x) names it alone: a label that rounds two cache sizes
/// to one value would make the rows impossible to tell apart.
#[test]
fn committed_rows_are_unique_within_each_block() {
    use kdd_obs::Json;
    let text = String::from_utf8(committed("results/repro_scale100.json")).expect("UTF-8");
    let rows = kdd_obs::json::parse(&text).expect("repro_scale100.json parses");
    let mut seen = std::collections::BTreeSet::new();
    for row in rows.as_arr().expect("an array of rows") {
        let field = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
        let x = row.get("x").and_then(Json::as_f64).expect("a numeric x");
        let key = (field("experiment"), field("workload"), field("policy"), x.to_bits());
        assert!(seen.insert(key.clone()), "two rows share {key:?} (x = {x})");
    }
}

/// `repro` at a tiny scale, seed 42; its stdout.
fn repro_tiny(args: &[&str]) -> String {
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--scale", "2000", "--seed", "42"])
        .output()
        .expect("run repro");
    assert!(run.status.success(), "repro {args:?}: {}", String::from_utf8_lossy(&run.stderr));
    String::from_utf8(run.stdout).expect("repro prints UTF-8")
}

/// The `== experiment / workload ==` blocks of `text` that belong to `name`.
fn blocks_of(text: &str, name: &str) -> String {
    let header = format!("{name} / ");
    text.split("\n== ")
        .skip(1)
        .filter(|b| b.starts_with(&header))
        .map(|b| format!("\n== {b}"))
        .collect()
}

/// Experiments that share a sweep still print alone: `repro <name>` prints
/// exactly the blocks `repro all` prints for `name`, for every name.
#[test]
fn each_experiment_alone_prints_its_rows_of_all() {
    let all = repro_tiny(&["all"]);
    for experiment in &kdd_bench::EXPERIMENTS {
        let alone = repro_tiny(&[experiment.name]);
        assert!(!alone.is_empty(), "{} printed nothing", experiment.name);
        assert_eq!(alone, blocks_of(&all, experiment.name), "{}", experiment.name);
    }
}

/// The whole command line is checked before any experiment runs: each bad
/// one exits with code 2 and the usage text, having printed no row.
#[test]
fn bad_command_lines_are_usage_errors() {
    let bad: [&[&str]; 6] = [
        &["fig5", "bogus"],
        &["fig5", "--seed", "x"],
        &["fig5", "--json"],
        &["fig5", "--scale", "0"],
        &["--seed", "7"],
        &[],
    ];
    for args in bad {
        let run = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty() && !stderr.contains("running"), "{args:?} ran: {stderr}");
    }
}

#[test]
fn perfbench_smoke_snapshot_is_byte_identical_to_the_committed_one() {
    let dir = scratch("perfbench-smoke");
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--out-dir"])
        .arg(&dir)
        .output()
        .expect("run perfbench");
    assert!(run.status.success(), "perfbench failed: {}", String::from_utf8_lossy(&run.stderr));
    let snapshot = std::fs::read(dir.join("OBS_engine.json")).expect("read the smoke snapshot");
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("tempdir cleanup failed ({}): {e}", dir.display());
    }
    assert_same("perfbench --smoke's OBS_engine.json", &snapshot, &committed("OBS_engine.json"));
}

/// The committed snapshot is a valid document stamped with the schema the
/// workspace exports, so the byte pin above compares like with like.
#[test]
fn committed_obs_snapshot_validates_at_the_current_schema() {
    let text = String::from_utf8(committed("OBS_engine.json")).expect("OBS_engine.json is UTF-8");
    let doc = kdd_obs::json::parse(&text).expect("OBS_engine.json parses");
    assert_eq!(kdd_obs::validate_snapshot(&doc), Vec::<String>::new());
    assert_eq!(doc.get("schema").and_then(kdd_obs::Json::as_str), Some(kdd_obs::SCHEMA));
}

/// Clippy reads only the nearest `clippy.toml`, so each crate file that
/// adds the layering ban must also repeat every ban of the root file.
#[test]
fn crate_clippy_tomls_repeat_every_root_ban() {
    let bans = |file: &str| -> Vec<String> {
        let text = String::from_utf8(committed(file)).expect("clippy.toml is UTF-8");
        text.split("path = \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .map(String::from)
            .collect()
    };
    let root = bans("clippy.toml");
    assert!(!root.is_empty(), "the root clippy.toml bans nothing");
    for krate in ["sim", "cli", "bench"] {
        let file = format!("crates/{krate}/clippy.toml");
        let own = bans(&file);
        let missing: Vec<_> = root.iter().filter(|ban| !own.contains(ban)).collect();
        assert!(missing.is_empty(), "{file} lacks the root bans {missing:?}");
    }
}
