//! `kddtool` run as a process: `report` and `trace` read the committed
//! `OBS_engine.json`, a snapshot of another schema version is refused
//! with exit 1 and no panic, a reader that closes stdout early ends the
//! run quietly, and a trace file that cannot be written is an error.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn committed_snapshot() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../OBS_engine.json")
}

fn kddtool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kddtool")).args(args).output().expect("run kddtool")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn report_and_trace_read_the_committed_snapshot() {
    let path = committed_snapshot();
    let path = path.to_str().expect("UTF-8 path");

    let report = kddtool(&["report", path]);
    assert!(report.status.success(), "{}", stderr(&report));
    let text = String::from_utf8(report.stdout).expect("UTF-8 report");
    assert!(text.starts_with(&format!("{} snapshot\n", kdd_obs::SCHEMA)), "{text}");
    assert!(text.contains("where the microseconds go"), "{text}");

    let trace = kddtool(&["trace", path]);
    assert!(trace.status.success(), "{}", stderr(&trace));
    // More than a pipe buffer holds, which the closed-pipe test below
    // relies on.
    assert!(trace.stdout.len() > 1 << 16, "{} bytes", trace.stdout.len());
    let doc = kdd_obs::json::parse(std::str::from_utf8(&trace.stdout).expect("UTF-8 trace"))
        .expect("trace output parses");
    let events = doc.get("traceEvents").and_then(kdd_obs::Json::as_arr);
    assert!(events.is_some_and(|e| !e.is_empty()), "no trace events");
}

#[test]
fn a_snapshot_of_another_schema_version_is_refused_without_a_panic() {
    let text = std::fs::read_to_string(committed_snapshot()).expect("read OBS_engine.json");
    let stamp = format!("\"schema\": \"{}\"", kdd_obs::SCHEMA);
    assert!(text.contains(&stamp), "OBS_engine.json lacks {stamp}");
    let dir = std::env::temp_dir().join(format!("kddtool-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tempdir");
    let path = dir.join("v1.json");
    std::fs::write(&path, text.replacen(&stamp, "\"schema\": \"kdd-obs/v1\"", 1))
        .expect("write the v1 document");

    for cmd in ["report", "trace"] {
        let out = kddtool(&[cmd, path.to_str().expect("UTF-8 path")]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {err}");
        assert!(err.contains("schema version mismatch"), "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd}: {err}");
        assert!(out.stdout.is_empty(), "{cmd} printed before refusing");
    }
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("tempdir cleanup failed ({}): {e}", dir.display());
    }
}

/// `kddtool trace x.json | head -c 100`: the reader closes the pipe
/// before the writer is done. `trace` prints more than a pipe holds, so
/// its write always meets the closed pipe; `report` and `sim` write
/// after the read end is gone in practice.
#[test]
fn a_reader_closing_stdout_early_ends_the_run_quietly() {
    let path = committed_snapshot();
    let path = path.to_str().expect("UTF-8 path");
    for args in [
        &["trace", path][..],
        &["report", path],
        &["sim", "--workload", "fin1", "--scale", "2000", "--policy", "all"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_kddtool"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn kddtool");
        drop(child.stdout.take());
        let mut err = String::new();
        child.stderr.take().expect("piped stderr").read_to_string(&mut err).expect("read stderr");
        let status = child.wait().expect("wait for kddtool");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(status.success(), "{args:?}: {status}: {err}");
    }
}

/// A trace small enough to sit in the writer's buffer still reaches the
/// device before `gen-trace` reports it written: on a full device it
/// fails, naming the path.
#[cfg(target_os = "linux")]
#[test]
fn gen_trace_to_a_full_device_fails() {
    let args = ["gen-trace", "--workload", "fin2", "--scale", "20000", "--out", "/dev/full"];
    let out = kddtool(&args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("/dev/full: "), "{err}");
}
