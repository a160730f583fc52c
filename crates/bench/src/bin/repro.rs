//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro all                         # everything, default scale (100)
//! repro fig6 fig9 --scale 50        # selected experiments, bigger run
//! repro table1 --json out.json      # machine-readable rows
//! ```
//!
//! Scale divides the Table I workload sizes (and the FIO volume);
//! `--scale 1` is the paper's full workload. The whole command line is
//! checked before any experiment runs; a bad one exits with code 2.

use kdd_bench::experiments::{find, Experiment};
use kdd_bench::{print_rows, rows_to_json, ExpConfig, Runner, EXPERIMENTS};

struct Args {
    experiments: Vec<&'static Experiment>,
    cfg: ExpConfig,
    json_path: Option<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { experiments: Vec::new(), cfg: ExpConfig::default(), json_path: None };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                parsed.cfg.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .ok_or("--scale needs a positive integer")?
            }
            "--seed" => {
                parsed.cfg.seed =
                    it.next().and_then(|v| v.parse().ok()).ok_or("--seed needs an integer")?
            }
            "--json" => parsed.json_path = Some(it.next().ok_or("--json needs a file path")?),
            "all" => parsed.experiments.extend(&EXPERIMENTS),
            name => parsed
                .experiments
                .push(find(name).ok_or_else(|| format!("unknown experiment {name:?}"))?),
        }
    }
    if parsed.experiments.is_empty() {
        return Err("name at least one experiment".into());
    }
    Ok(parsed)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("error: {e}");
        eprintln!("usage: repro <all|{}>... [--scale N] [--seed N] [--json FILE]", names.join("|"));
        std::process::exit(2);
    });
    let cfg = args.cfg;
    let mut runner = Runner::new(cfg);
    let mut all_rows = Vec::new();
    for experiment in args.experiments {
        eprintln!("running {} (scale 1/{}) ...", experiment.name, cfg.scale);
        #[expect(
            clippy::disallowed_methods,
            reason = "the per-experiment wall time on stderr is host timing"
        )]
        let t0 = std::time::Instant::now();
        let rows = runner.rows(experiment);
        eprintln!("  {} rows in {:.1}s", rows.len(), t0.elapsed().as_secs_f64());
        print_rows(&rows);
        all_rows.extend(rows);
    }
    if let Some(path) = args.json_path {
        if let Err(e) = std::fs::write(&path, rows_to_json(&all_rows)) {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} rows to {path}", all_rows.len());
    }
}
