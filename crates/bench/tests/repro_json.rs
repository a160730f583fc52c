//! `repro --json` writes real JSON, in the layout of the committed
//! `results/repro_scale100.json`.

use kdd_obs::json::{parse, Json};
use std::path::Path;
use std::process::Command;

#[test]
fn table1_json_parses_and_matches_the_committed_rows() {
    let out = std::env::temp_dir().join(format!("repro-table1-{}.json", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--scale", "100", "--seed", "42", "--json"])
        .arg(&out)
        .output()
        .expect("run repro");
    assert!(run.status.success(), "repro failed: {}", String::from_utf8_lossy(&run.stderr));
    let text = std::fs::read_to_string(&out).expect("read repro output");
    if let Err(e) = std::fs::remove_file(&out) {
        eprintln!("tempfile cleanup failed ({}): {e}", out.display());
    }
    let rows = parse(&text).expect("repro --json output is not JSON");

    let committed_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/repro_scale100.json");
    let committed = std::fs::read_to_string(&committed_path).expect("read committed results");
    let committed = parse(&committed).expect("committed results are not JSON");
    let table1: Vec<Json> = committed
        .as_arr()
        .expect("committed results are an array")
        .iter()
        .filter(|row| row.get("experiment").and_then(Json::as_str) == Some("table1"))
        .cloned()
        .collect();
    assert_eq!(table1.len(), 4, "one table1 row per paper trace");
    assert_eq!(rows, Json::Arr(table1));
}
