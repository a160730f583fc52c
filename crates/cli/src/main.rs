//! `kddtool` — command-line workbench for the KDD stack.
//!
//! ```text
//! kddtool gen-trace --workload fin1 --scale 200 --format spc --out fin1.spc
//! kddtool stats --format spc fin1.spc
//! kddtool sim --workload fin1 --scale 200 --policy kdd-25 --cache-frac 0.15
//! kddtool replay --workload hm0 --scale 200 --policy all
//! kddtool fio --read-rate 0.25 --scale 1024 --policy all
//! kddtool faults --plan "ssd@120:transient,disk1@50:drop,any@900:power"
//! ```

mod cmd;

use std::io::{self, ErrorKind, Write};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        exit(2);
    };
    let opts = cmd::Opts::parse(rest).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage();
        exit(2);
    });
    let mut out = std::io::stdout().lock();
    let result = match cmd.as_str() {
        "gen-trace" => cmd::gen_trace(&opts),
        "stats" => cmd::stats(&opts, &mut out),
        "sim" => cmd::sim(&opts, &mut out),
        "replay" => cmd::replay(&opts, &mut out),
        "fio" => cmd::fio(&opts, &mut out),
        "faults" => cmd::faults(&opts, &mut out),
        "report" => cmd::report(&opts, &mut out),
        "trace" => cmd::trace(&opts, &mut out),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            exit(2);
        }
    };
    let flushed = out.flush();
    let Err(e) = result.and(flushed.map_err(Into::into)) else { return };
    // The reader closed its end (`kddtool report x.json | head`): it has
    // what it wanted, so this is a quiet, successful end.
    let closed = e.downcast_ref::<io::Error>().is_some_and(|e| e.kind() == ErrorKind::BrokenPipe);
    if !closed {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "kddtool — KDD endurable-SSD-cache workbench

commands:
  gen-trace   generate a synthetic paper trace and write it to disk
              --workload fin1|fin2|hm0|web0  --scale N (at least 1)
              --format spc|msr  --out FILE
  stats       Table-I statistics of a trace file
              --format spc|msr  <FILE>  [--json]
  sim         trace-driven cache simulation (hit ratio, SSD traffic)
              --workload ...|--in FILE --format ...  --scale N
              --policy {policies}
              --cache-frac F in (0, 1] (of unique pages; default 0.15)
  replay      open-loop latency replay (Figure 9 style)
              same selectors as sim
              --obs FILE write a kdd-obs snapshot (single --policy only;
              --ring-capacity N --sample-interval-ms N tune the recorder)
  fio         closed-loop Zipf load (Figures 10/11 style)
              --read-rate F in [0, 1]  --scale N  --policy ...
              --obs FILE as in replay
  faults      fault-injection drill on the full engine (RPO-0 check)
              --plan \"ssd@120:transient,disk1@50:drop,any@900:power\"
              or --ops N --faults K for a seeded random plan
  report      render a kdd-obs observability snapshot
              <FILE.json> to read a saved snapshot, or
              --workload ... --scale N to drive a fresh observed run
              [--json] for the raw document
              --ring-capacity N --sample-interval-ms N tune the recorder
  trace       export a snapshot's span ring as Chrome trace-event JSON
              (Perfetto-loadable); same inputs as report, --out FILE

common:       --seed N (default 42)",
        policies = cmd::POLICY_NAMES
    );
}
