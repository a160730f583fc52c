//! `kdd-benchmark`: run the workloads, print every metric, check outputs.
//!
//! ```text
//! kdd-benchmark --seed 42                      all workloads, interleaved
//! kdd-benchmark --seed 42 --trace              ... plus the traced run
//! kdd-benchmark --smoke                        seconds-long variant, same schema
//! kdd-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                              one workload; the last line of
//!                                              stdout is the driver's JSON
//! kdd-benchmark --compare A.json B.json        do two result files agree?
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use kdd_benchmark::report;
use kdd_benchmark::run::{self, Options};
use kdd_benchmark::spec::Profile;

const USAGE: &str = "usage: kdd-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--out-dir DIR] | --compare A.json B.json";

struct Cli {
    opts: Options,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Options {
            workload: None,
            seed: 42,
            seconds: 25.0,
            trace: false,
            profile: Profile::Full,
        },
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => cli.opts.workload = Some(value("a name")?),
            "--seed" => {
                cli.opts.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                cli.opts.seconds = s;
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.opts.profile = Profile::Smoke,
            "--out-dir" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--compare" => {
                cli.compare =
                    Some((PathBuf::from(value("two files")?), PathBuf::from(value("two files")?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (table, agree) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    println!("{}", if agree { "the two runs agree" } else { "the two runs DISAGREE" });
    Ok(agree)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &cli.compare {
        return compare(a, b);
    }
    let smoke = cli.opts.profile == Profile::Smoke;
    let reports = run::run(&cli.opts)?;
    for r in &reports {
        print!("{}", report::text(r));
        if let Some(trace) = &r.trace_file {
            write_file(&cli.out_dir, &format!("trace_{}.json", r.name), trace)?;
        }
    }
    let doc = report::results_json(&reports, cli.opts.seed, cli.opts.seconds, smoke);
    write_file(&cli.out_dir, "results.json", &doc)?;
    // With one workload selected, the last line is the driver's.
    if let (Some(_), [only]) = (&cli.opts.workload, reports.as_slice()) {
        println!("{}", report::driver_line(only));
    }
    Ok(reports.iter().all(|r| r.failed == 0))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("kdd-benchmark: failed operations or disagreeing runs; see above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("kdd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
