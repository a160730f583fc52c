//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro all                         # everything, default scale (100)
//! repro fig6 fig9 --scale 50        # selected experiments, bigger run
//! repro table1 --json out.json      # machine-readable rows
//! ```
//!
//! Scale divides the Table I workload sizes (and the FIO volume);
//! `--scale 1` is the paper's full workload.

// The per-experiment wall time on stderr is host timing, so this binary
// opts out of the `clippy.toml` wall-clock ban.
#![allow(clippy::disallowed_methods)]

use kdd_bench::{
    ablation_admission, ablation_desmodel, ablation_metalog, ablation_raid6, ablation_reclaim,
    ablation_setmap, ablation_zoning, fig10, fig11, fig4, fig5, fig6, fig7, fig8, fig9, print_rows,
    rows_to_json, table1, table2, ExpConfig, Row,
};

const ALL: [&str; 17] = [
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table2",
    "ablation_zoning",
    "ablation_reclaim",
    "ablation_metalog",
    "ablation_setmap",
    "ablation_admission",
    "ablation_raid6",
    "ablation_desmodel",
];

fn run(name: &str, cfg: &ExpConfig) -> Vec<Row> {
    match name {
        "table1" => table1(cfg),
        "table2" => table2(cfg),
        "fig4" => fig4(cfg),
        "fig5" => fig5(cfg),
        "fig6" => fig6(cfg),
        "fig7" => fig7(cfg),
        "fig8" => fig8(cfg),
        "fig9" => fig9(cfg),
        "fig10" => fig10(cfg),
        "fig11" => fig11(cfg),
        "ablation_zoning" => ablation_zoning(cfg),
        "ablation_reclaim" => ablation_reclaim(cfg),
        "ablation_metalog" => ablation_metalog(cfg),
        "ablation_setmap" => ablation_setmap(cfg),
        "ablation_admission" => ablation_admission(cfg),
        "ablation_raid6" => ablation_raid6(cfg),
        "ablation_desmodel" => ablation_desmodel(cfg),
        other => {
            eprintln!("unknown experiment {other:?}; known: all {ALL:?}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut cfg = ExpConfig::default();
    let mut json_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                cfg.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scale needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                cfg.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(42);
            }
            "--json" => json_path = it.next(),
            "all" => experiments.extend(ALL.iter().map(|s| s.to_string())),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        eprintln!("usage: repro <all|{}> [--scale N] [--seed N] [--json FILE]", ALL.join("|"));
        std::process::exit(2);
    }

    let mut all_rows = Vec::new();
    for name in &experiments {
        eprintln!("running {name} (scale 1/{}) ...", cfg.scale);
        let t0 = std::time::Instant::now();
        let rows = run(name, &cfg);
        eprintln!("  {} rows in {:.1}s", rows.len(), t0.elapsed().as_secs_f64());
        print_rows(&rows);
        all_rows.extend(rows);
    }
    if let Some(path) = json_path {
        std::fs::write(&path, rows_to_json(&all_rows)).expect("write json");
        eprintln!("wrote {} rows to {path}", all_rows.len());
    }
}
