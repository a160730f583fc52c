//! Workspace automation entry point: `cargo run -p xtask -- lint`.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::lint_workspace;

const USAGE: &str = "\
xtask — KDD workspace automation

USAGE:
    cargo run -p xtask -- lint [--root <path>] [--quiet] [--json | --github]

COMMANDS:
    lint    Run kdd-lint over every crate's src/ tree. Exits 1 on any
            violation; honoured waivers (with written reasons) are listed
            but do not fail the run.

OPTIONS:
    --root <path>   Workspace root (default: nearest ancestor with Cargo.toml)
    --quiet         Suppress the honoured-waiver listing
    --json          Emit the kdd-lint/v1 machine-readable report on stdout
    --github        Emit findings in the problem-matcher format CI turns
                    into GitHub annotations (kdd-lint[RULE] file:line: msg)
";

/// Output mode for the findings listing.
#[derive(PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

fn find_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(r) = explicit {
        return Some(r);
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd != "lint" {
        eprintln!("unknown command `{cmd}`\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut root = None;
    let mut quiet = false;
    let mut format = Format::Text;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quiet" => quiet = true,
            "--json" => format = Format::Json,
            "--github" => format = Format::Github,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = find_root(root) else {
        eprintln!("could not locate the workspace root (run from inside the repo)");
        return ExitCode::from(2);
    };

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kdd-lint: I/O error walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if format == Format::Json {
        // Machine-readable mode: the report alone on stdout, same exit code.
        println!("{}", report.render_json());
        return if report.violations.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if !quiet && !report.waivers.is_empty() {
        eprintln!("kdd-lint: {} waiver(s) in effect:", report.waivers.len());
        for w in &report.waivers {
            eprintln!("  {}:{}: {} waived -- {}", w.file, w.line, w.rule.code(), w.reason);
        }
    }

    if report.violations.is_empty() {
        eprintln!("kdd-lint: clean ({} waivers honoured)", report.waivers.len());
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            match format {
                // One line per finding in the shape the committed
                // problem matcher (.github/kdd-lint-problem-matcher.json)
                // parses into file-anchored GitHub annotations.
                Format::Github => {
                    println!("kdd-lint[{}] {}:{}: {}", v.rule.code(), v.file, v.line, v.message)
                }
                _ => println!("{v}"),
            }
        }
        eprintln!("kdd-lint: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}
