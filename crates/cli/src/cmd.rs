//! `kddtool` subcommand implementations.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use kdd_cache::policies::{CachePolicy, RaidModel};
use kdd_cache::setassoc::CacheGeometry;
use kdd_sim::closedloop::run_closed_loop;
use kdd_sim::factory::{build_policy, PolicyKind};
use kdd_sim::openloop::{obs_snapshot_policy, replay_open_loop_observed};
use kdd_sim::service::ServiceModel;
use kdd_trace::fio::{FioConfig, FioWorkload};
use kdd_trace::record::Trace;
use kdd_trace::stats::TraceStats;
use kdd_trace::synth::PaperTrace;
use kdd_trace::{msr, spc, writer};
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// The `--policy` values [`Opts::policies`] resolves, as the usage text
/// lists them.
pub const POLICY_NAMES: &str = "nossd|wt|wa|leavo|kdd-50|kdd-25|kdd-12|all";

/// Parsed flags and positional arguments.
#[derive(Debug, Default)]
pub struct Opts {
    pub workload: Option<String>,
    pub input: Option<String>,
    pub out: Option<String>,
    pub format: Option<String>,
    pub policy: Option<String>,
    pub scale: u64,
    pub seed: u64,
    pub cache_frac: f64,
    pub read_rate: f64,
    pub plan: Option<String>,
    pub ops: u64,
    pub n_faults: usize,
    pub json: bool,
    /// Span-ring capacity for observed runs (`--ring-capacity`).
    pub ring_capacity: Option<usize>,
    /// Sampling interval for observed runs in simulated milliseconds
    /// (`--sample-interval-ms`).
    pub sample_interval_ms: Option<u64>,
    /// Drift threshold for `obs-diff` (`--threshold`, default 0.01).
    pub threshold: Option<f64>,
    /// Write a `kdd-obs` snapshot of the (single-policy) sim run to this
    /// file (`--obs FILE` on `replay`/`fio`).
    pub obs: Option<String>,
    pub positional: Vec<String>,
}

impl Opts {
    /// Parse `--flag value` pairs plus positionals.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            scale: 100,
            seed: 42,
            cache_frac: 0.15,
            read_rate: 0.25,
            ops: 1500,
            n_faults: 8,
            ..Default::default()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next().cloned().ok_or_else(|| format!("--{name} needs a value"))
            };
            match a.as_str() {
                "--workload" => o.workload = Some(take("workload")?),
                "--in" => o.input = Some(take("in")?),
                "--out" => o.out = Some(take("out")?),
                "--format" => o.format = Some(take("format")?),
                "--policy" => o.policy = Some(take("policy")?),
                "--scale" => {
                    o.scale = take("scale")?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                    if o.scale == 0 {
                        return Err("--scale must be at least 1".into());
                    }
                }
                "--seed" => {
                    o.seed = take("seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?
                }
                "--cache-frac" => {
                    o.cache_frac = take("cache-frac")?
                        .parse()
                        .map_err(|e| format!("bad --cache-frac: {e}"))?;
                    // Written so that NaN fails it too.
                    if !(o.cache_frac > 0.0 && o.cache_frac <= 1.0) {
                        return Err("--cache-frac must be in (0, 1]".into());
                    }
                }
                "--read-rate" => {
                    o.read_rate =
                        take("read-rate")?.parse().map_err(|e| format!("bad --read-rate: {e}"))?;
                    if !(0.0..=1.0).contains(&o.read_rate) {
                        return Err("--read-rate must be in [0, 1]".into());
                    }
                }
                "--json" => o.json = true,
                "--ring-capacity" => {
                    let v: usize = take("ring-capacity")?
                        .parse()
                        .map_err(|e| format!("bad --ring-capacity: {e}"))?;
                    if v == 0 {
                        return Err("--ring-capacity must be at least 1".into());
                    }
                    o.ring_capacity = Some(v);
                }
                "--sample-interval-ms" => {
                    let v: u64 = take("sample-interval-ms")?
                        .parse()
                        .map_err(|e| format!("bad --sample-interval-ms: {e}"))?;
                    if v == 0 {
                        return Err("--sample-interval-ms must be at least 1".into());
                    }
                    o.sample_interval_ms = Some(v);
                }
                "--threshold" => {
                    let v: f64 =
                        take("threshold")?.parse().map_err(|e| format!("bad --threshold: {e}"))?;
                    if !(v.is_finite() && v >= 0.0) {
                        return Err("--threshold must be a non-negative number".into());
                    }
                    o.threshold = Some(v);
                }
                "--obs" => o.obs = Some(take("obs")?),
                "--plan" => o.plan = Some(take("plan")?),
                "--ops" => o.ops = take("ops")?.parse().map_err(|e| format!("bad --ops: {e}"))?,
                "--faults" => {
                    o.n_faults =
                        take("faults")?.parse().map_err(|e| format!("bad --faults: {e}"))?
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                positional => o.positional.push(positional.to_string()),
            }
        }
        Ok(o)
    }

    fn paper_trace(&self) -> Result<PaperTrace, String> {
        match self.workload.as_deref() {
            Some("fin1") | Some("Fin1") => Ok(PaperTrace::Fin1),
            Some("fin2") | Some("Fin2") => Ok(PaperTrace::Fin2),
            Some("hm0") | Some("Hm0") => Ok(PaperTrace::Hm0),
            Some("web0") | Some("Web0") => Ok(PaperTrace::Web0),
            Some(other) => Err(format!("unknown workload {other:?} (fin1|fin2|hm0|web0)")),
            None => Err("--workload required".into()),
        }
    }

    fn load_trace(&self) -> Result<Trace, String> {
        if let Some(path) = &self.input {
            let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let r = BufReader::new(f);
            match self.format.as_deref() {
                Some("spc") | None => spc::parse(r, 4096).map_err(|e| e.to_string()),
                Some("msr") => msr::parse(r, 4096, None).map_err(|e| e.to_string()),
                Some(other) => Err(format!("unknown format {other:?} (spc|msr)")),
            }
        } else {
            Ok(self.paper_trace()?.generate_scaled(self.scale, self.seed))
        }
    }

    fn policies(&self) -> Result<Vec<PolicyKind>, String> {
        match self.policy.as_deref().unwrap_or("all") {
            "all" => {
                Ok(std::iter::once(PolicyKind::Nossd).chain(PolicyKind::figure_set()).collect())
            }
            "nossd" => Ok(vec![PolicyKind::Nossd]),
            "wt" => Ok(vec![PolicyKind::Wt]),
            "wa" => Ok(vec![PolicyKind::Wa]),
            "leavo" => Ok(vec![PolicyKind::LeavO]),
            "kdd-50" => Ok(vec![PolicyKind::Kdd(0.50)]),
            "kdd-25" => Ok(vec![PolicyKind::Kdd(0.25)]),
            "kdd-12" => Ok(vec![PolicyKind::Kdd(0.12)]),
            other => Err(format!("unknown policy {other:?} ({POLICY_NAMES})")),
        }
    }
}

fn geometry_for(trace: &Trace, frac: f64) -> (CacheGeometry, RaidModel) {
    let stats = TraceStats::compute(trace);
    let cache_pages = ((stats.unique_total as f64 * frac) as u64).max(256);
    let g = CacheGeometry {
        total_pages: cache_pages,
        ways: 64.min(cache_pages as u32),
        page_size: 4096,
    };
    let raid = RaidModel::paper_default(trace.address_space_pages().max(1024));
    (g, raid)
}

/// `gen-trace`: synthesise a paper trace and write it out.
pub fn gen_trace(o: &Opts) -> Result<(), String> {
    let pt = o.paper_trace()?;
    let trace = pt.generate_scaled(o.scale, o.seed);
    let path = o.out.as_deref().ok_or("--out required")?;
    let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = BufWriter::new(f);
    match o.format.as_deref().unwrap_or("spc") {
        "spc" => writer::write_spc(&trace, &mut w).map_err(|e| e.to_string())?,
        "msr" => writer::write_msr(&trace, &mut w).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown format {other:?} (spc|msr)")),
    }
    eprintln!(
        "wrote {} requests ({}) to {path}",
        trace.len(),
        TraceStats::compute(&trace).table_row(pt.name()).trim()
    );
    Ok(())
}

/// `stats`: Table-I statistics of a trace.
pub fn stats(o: &Opts) -> Result<(), String> {
    let mut o2 = Opts { input: o.input.clone(), format: o.format.clone(), ..Opts::default() };
    if o2.input.is_none() {
        o2.input = o.positional.first().cloned();
    }
    if o2.input.is_none() {
        // No file: fall back to a synthetic workload.
        o2.workload = o.workload.clone();
    }
    let label = o2.input.clone().or(o.workload.clone()).unwrap_or_else(|| "trace".into());
    let o_load = Opts { scale: o.scale, seed: o.seed, ..o2 };
    let trace = o_load.load_trace()?;
    if o.json {
        print!("{}", TraceStats::compute(&trace).export(&label).render());
        return Ok(());
    }
    println!("{}", TraceStats::table_header());
    println!("{}", TraceStats::compute(&trace).table_row(&label));
    println!(
        "duration: {}   address space: {} pages",
        trace.duration(),
        trace.address_space_pages()
    );
    Ok(())
}

/// `sim`: counting simulation — hit ratio, SSD traffic, metadata share.
pub fn sim(o: &Opts) -> Result<(), String> {
    let trace = o.load_trace()?;
    let (g, raid) = geometry_for(&trace, o.cache_frac);
    println!("cache: {} pages ({} sets x {} ways)", g.total_pages, g.sets(), g.ways);
    println!(
        "{:<9} {:>8} {:>14} {:>10} {:>12} {:>12}",
        "policy", "hit%", "ssd writes", "meta%", "raid reads", "raid writes"
    );
    for kind in o.policies()? {
        let mut p = build_policy(kind, g, raid, o.seed);
        p.run_trace(&trace);
        let s = p.stats();
        println!(
            "{:<9} {:>7.1}% {:>14} {:>9.2}% {:>12} {:>12}",
            p.name(),
            s.hit_ratio() * 100.0,
            format!("{}", s.ssd_write_bytes(4096)),
            s.metadata_fraction() * 100.0,
            s.raid_reads,
            s.raid_writes
        );
    }
    Ok(())
}

/// The recorder of a `replay`/`fio` run: enabled behind `--obs FILE`
/// (honouring `--ring-capacity`/`--sample-interval-ms`), the no-op sink
/// otherwise. One snapshot file describes one run, so a multi-policy
/// sweep is rejected up front.
fn obs_recorder(o: &Opts) -> Result<kdd_obs::Recorder, String> {
    use kdd_obs::{Recorder, RecorderConfig};
    use kdd_util::units::SimTime;
    if o.obs.is_none() {
        return Ok(Recorder::disabled());
    }
    if o.policies()?.len() != 1 {
        return Err("--obs records a single run: pick one policy with --policy".into());
    }
    Ok(Recorder::new(RecorderConfig {
        sample_interval: SimTime::from_millis(o.sample_interval_ms.unwrap_or(1000)),
        ring_capacity: o.ring_capacity.unwrap_or(128),
    }))
}

/// Export the recorder's snapshot over the finished policy and write it.
fn write_policy_snapshot(
    policy: &dyn CachePolicy,
    recorder: &kdd_obs::Recorder,
    path: &str,
) -> Result<(), String> {
    let doc = obs_snapshot_policy(policy, recorder)
        .ok_or_else(|| "recorder unexpectedly disabled".to_string())?;
    std::fs::write(path, doc.render()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {} snapshot to {path}", kdd_obs::SCHEMA);
    Ok(())
}

/// `replay`: open-loop latency (Figure 9 style).
pub fn replay(o: &Opts) -> Result<(), String> {
    let trace = o.load_trace()?;
    let (g, raid) = geometry_for(&trace, o.cache_frac);
    let model = ServiceModel::paper_default();
    let recorder = obs_recorder(o)?;
    println!("{:<9} {:>8} {:>12} {:>12} {:>12}", "policy", "hit%", "mean resp", "p50", "p99");
    for kind in o.policies()? {
        let mut p = build_policy(kind, g, raid, o.seed);
        let r = replay_open_loop_observed(p.as_mut(), &trace, &model, 5, 1, &recorder);
        println!(
            "{:<9} {:>7.1}% {:>12} {:>12} {:>12}",
            r.policy,
            r.hit_ratio * 100.0,
            format!("{}", r.mean_response),
            format!("{}", r.p50),
            format!("{}", r.p99)
        );
        if let Some(path) = &o.obs {
            write_policy_snapshot(p.as_ref(), &recorder, path)?;
        }
    }
    Ok(())
}

/// `fio`: closed-loop Zipf load (Figures 10/11 style).
pub fn fio(o: &Opts) -> Result<(), String> {
    let cfg = FioConfig::paper(o.read_rate).scaled(o.scale);
    let cache_pages = ((1u64 << 30) / 4096 / o.scale).max(64);
    let g = CacheGeometry {
        total_pages: cache_pages,
        ways: 64.min(cache_pages as u32),
        page_size: 4096,
    };
    let raid = RaidModel::paper_default(cfg.wss_pages.max(1024));
    let model = ServiceModel::paper_default();
    println!(
        "read rate {:.0}%, WSS {} pages, volume {} pages, cache {} pages, {} threads",
        o.read_rate * 100.0,
        cfg.wss_pages,
        cfg.total_pages,
        cache_pages,
        cfg.threads
    );
    let recorder = obs_recorder(o)?;
    println!(
        "{:<9} {:>8} {:>12} {:>12} {:>14}",
        "policy", "hit%", "mean resp", "p99", "ssd writes"
    );
    for kind in o.policies()? {
        let mut p = build_policy(kind, g, raid, o.seed);
        let mut w = FioWorkload::new(cfg, o.seed + 1);
        let r = run_closed_loop(p.as_mut(), &mut w, &model, 5, &recorder);
        println!(
            "{:<9} {:>7.1}% {:>12} {:>12} {:>14}",
            r.policy,
            r.hit_ratio * 100.0,
            format!("{}", r.mean_response),
            format!("{}", r.p99),
            format!("{}", r.ssd_write_bytes)
        );
        if let Some(path) = &o.obs {
            write_policy_snapshot(p.as_ref(), &recorder, path)?;
        }
    }
    Ok(())
}

/// `faults`: run the full engine under an injected fault plan and report
/// what fired, how the engine degraded, and whether RPO 0 held.
pub fn faults(o: &Opts) -> Result<(), String> {
    use kdd_blockdev::fault::{FaultInjector, FaultPlan};
    use kdd_blockdev::SsdDevice;
    use kdd_core::engine::{EngineMode, KddEngine};
    use kdd_core::KddConfig;
    use kdd_delta::content::PageMutator;
    use kdd_raid::{Layout, RaidArray, RaidLevel};
    use std::collections::BTreeMap;

    const PAGE: u32 = 4096;
    const DISKS: u32 = 5;
    let plan = match &o.plan {
        Some(s) => FaultPlan::parse(s)?,
        None => FaultPlan::randomized(o.seed, o.ops * 4, DISKS, o.n_faults),
    };
    println!(
        "fault plan: {} scheduled faults over a {}-op workload (seed {})",
        plan.specs.len(),
        o.ops,
        o.seed
    );

    let cache_pages = 256u64;
    let layout = Layout::new(RaidLevel::Raid5, DISKS as usize, 16, 16 * 64);
    let raid = RaidArray::new(layout, PAGE);
    let ssd = SsdDevice::with_logical_capacity((cache_pages + 64) * PAGE as u64, PAGE, 0.07);
    let g = CacheGeometry { total_pages: cache_pages, ways: 16, page_size: PAGE };
    let mut engine = KddEngine::new(KddConfig::new(g), ssd, raid).map_err(|e| e.to_string())?;
    let injector = FaultInjector::new(plan);
    engine.attach_fault_injector(injector.clone());

    let working_set = 192u64;
    let mut mutator = PageMutator::new(PAGE as usize, 0.15, 64, o.seed);
    // BTreeMap: the verification sweep iterates this, and its order
    // must not vary run-to-run (RandomState would reorder the output).
    let mut acked: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut errors = 0u64;
    let mut recoveries = 0u64;
    let mut unacked: Option<u64> = None;
    for i in 0..o.ops {
        let lba = (i.wrapping_mul(31) + i / 7) % working_set;
        let next = match acked.get(&lba) {
            Some(v) => mutator.mutate(v),
            None => mutator.initial_page(),
        };
        match engine.write(lba, &next) {
            Ok(_) => {
                acked.insert(lba, next);
                unacked = None;
            }
            Err(e) => {
                errors += 1;
                unacked = Some(lba);
                if injector.power_lost() {
                    println!("op {i}: power lost mid-write ({e}); running §III-E1 recovery");
                    engine = engine.power_cycle().map_err(|e| format!("recovery failed: {e}"))?;
                    recoveries += 1;
                } else {
                    println!("op {i}: write to lba {lba} failed: {e}");
                }
            }
        }
    }
    // Flush failures under injected faults are real outcomes, not noise:
    // surface them and fail the run after the RPO diagnostics print.
    let flush_err = engine.flush().err();
    if let Some(e) = &flush_err {
        eprintln!("final flush failed: {e}");
    }

    // RPO check: every acknowledged write must read back intact. The one
    // write that was in flight at a cut is exempt (it was never acked).
    let mut lost = 0u64;
    for (lba, want) in &acked {
        match engine.read(*lba) {
            Ok((data, _)) if &data == want => {}
            _ if Some(*lba) == unacked => {}
            Ok(_) => {
                lost += 1;
                println!("DATA LOSS: lba {lba} reads back wrong");
            }
            Err(e) => {
                lost += 1;
                println!("DATA LOSS: lba {lba} unreadable: {e}");
            }
        }
    }

    let c = injector.counters();
    println!("\ninjected faults ({} total):", c.injected);
    for ev in injector.events() {
        println!("  op {:>6}  {:?} {:?}: {:?}", ev.op, ev.device, ev.dir, ev.kind);
    }
    println!(
        "\nengine: {} observed, {} retried, {} fallbacks, {} torn pages healed, {} power recoveries",
        engine.stats().faults_observed,
        engine.stats().fault_retries,
        engine.stats().fault_fallbacks,
        engine.stats().torn_pages_detected,
        recoveries,
    );
    if engine.mode() == EngineMode::PassThrough {
        println!("engine is in pass-through mode (SSD and spare both dead)");
    }
    println!(
        "workload: {} writes acked, {} errors surfaced, stale rows now {}",
        acked.len(),
        errors,
        engine.raid().stale_row_count()
    );
    if lost > 0 {
        return Err(format!("{lost} acknowledged writes lost"));
    }
    if let Some(e) = flush_err {
        return Err(format!("final flush failed: {e}"));
    }
    println!("RPO 0 verified: no acknowledged write lost");
    Ok(())
}

/// Drive the full engine over a seeded paper workload with an enabled
/// observability recorder, returning the exported `kdd-obs/v2` snapshot.
/// `--ring-capacity` and `--sample-interval-ms` tune the recorder.
fn run_observed_engine(o: &Opts) -> Result<kdd_obs::Json, String> {
    use kdd_blockdev::SsdDevice;
    use kdd_core::{KddConfig, KddEngine};
    use kdd_obs::{Recorder, RecorderConfig};
    use kdd_raid::{Layout, RaidArray, RaidLevel};
    use kdd_util::units::SimTime;

    const PAGE: u32 = 4096;
    let pt = if o.workload.is_some() { o.paper_trace()? } else { PaperTrace::Fin1 };
    let trace = pt.generate_scaled(o.scale.max(50), o.seed);

    let cache_pages = 256u64;
    let layout = Layout::new(RaidLevel::Raid5, 5, 16, 16 * 64);
    let raid = RaidArray::new(layout, PAGE);
    let ssd = SsdDevice::with_logical_capacity((cache_pages + 64) * PAGE as u64, PAGE, 0.07);
    let g = CacheGeometry { total_pages: cache_pages, ways: 16, page_size: PAGE };
    let mut engine = KddEngine::new(KddConfig::new(g), ssd, raid).map_err(|e| e.to_string())?;
    engine.attach_recorder(Recorder::new(RecorderConfig {
        sample_interval: SimTime::from_millis(o.sample_interval_ms.unwrap_or(1000)),
        ring_capacity: o.ring_capacity.unwrap_or(128),
    }));

    let replay =
        kdd_sim::replay_engine(&mut engine, &trace, o.seed).map_err(|e| format!("replay: {e}"))?;
    if replay.read_mismatches > 0 {
        return Err(format!("{} reads returned stale content", replay.read_mismatches));
    }
    engine.flush().map_err(|e| format!("flush: {e}"))?;
    engine.obs_snapshot().ok_or_else(|| "recorder unexpectedly disabled".to_string())
}

/// Load a snapshot document from `--in`/positional, or drive a fresh
/// observed engine run, then validate it.
fn load_snapshot(o: &Opts) -> Result<kdd_obs::Json, String> {
    use kdd_obs::{json, validate_snapshot};
    let doc = match o.input.clone().or_else(|| o.positional.first().cloned()) {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => run_observed_engine(o)?,
    };
    let problems = validate_snapshot(&doc);
    if !problems.is_empty() {
        return Err(format!("invalid kdd-obs snapshot: {}", problems.join("; ")));
    }
    Ok(doc)
}

/// `report`: render a `kdd-obs` observability snapshot —
/// either from a saved JSON file, or by driving a fresh observed run.
pub fn report(o: &Opts) -> Result<(), String> {
    let doc = load_snapshot(o)?;
    if o.json {
        print!("{}", doc.render());
        return Ok(());
    }
    render_report(&doc);
    Ok(())
}

/// `trace`: export a snapshot's span ring as a Chrome trace-event /
/// Perfetto-loadable JSON timeline.
pub fn trace(o: &Opts) -> Result<(), String> {
    let doc = load_snapshot(o)?;
    let trace = kdd_obs::trace_events(&doc)?;
    let rendered = trace.render();
    match o.out.as_deref() {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            let n = trace.get("traceEvents").and_then(kdd_obs::Json::as_arr).map_or(0, <[_]>::len);
            eprintln!("wrote {n} trace events to {path} (load in ui.perfetto.dev)");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// `obs-diff`: thresholded comparison of two snapshot documents — the
/// obs analogue of `perfbench --gate`. Exits non-zero on any breach or
/// structural mismatch.
pub fn obs_diff(o: &Opts) -> Result<(), String> {
    use kdd_obs::{diff_snapshots, json, DiffOptions};
    let (base_path, cur_path) = match o.positional.as_slice() {
        [a, b] => (a, b),
        _ => return Err("obs-diff needs exactly two snapshot files: <baseline> <candidate>".into()),
    };
    let load = |path: &str| -> Result<kdd_obs::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let base = load(base_path)?;
    let cur = load(cur_path)?;
    let mut opts = DiffOptions::default();
    if let Some(t) = o.threshold {
        opts.threshold = t;
    }
    let report = diff_snapshots(&base, &cur, &opts);
    print!("{}", report.render());
    if report.ok() {
        Ok(())
    } else {
        Err(format!("{cur_path} drifted from {base_path}"))
    }
}

/// Human-readable view of a validated snapshot document.
fn render_report(doc: &kdd_obs::Json) {
    use kdd_obs::Json;
    let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    let totals = doc.get("totals");
    let table = |name: &str| totals.and_then(|t| t.get(name));
    let counter = |key: &str| num(table("counters").and_then(|c| c.get(key)));
    let derived = |key: &str| num(table("derived").and_then(|d| d.get(key)));

    println!("{} snapshot", doc.get("schema").and_then(Json::as_str).unwrap_or("kdd-obs"));
    println!(
        "requests: {:.0}  hit ratio {:.1}%  (read hit {:.1}%)",
        counter("obs.requests"),
        derived("cache.hit_ratio") * 100.0,
        derived("cache.read_hit_ratio") * 100.0
    );
    println!(
        "ssd writes: {:.0} data + {:.0} delta + {:.0} meta pages  (meta {:.1}%, WAF {:.2})",
        counter("ssd.data_writes"),
        counter("ssd.delta_writes"),
        counter("ssd.meta_writes"),
        derived("cache.metadata_fraction") * 100.0,
        derived("ssd.waf")
    );
    println!(
        "raid: {:.0} member reads, {:.0} member writes; cleaner: {:.0} cleanings, {:.0} parity updates",
        counter("raid.reads"),
        counter("raid.writes"),
        counter("cleaner.cleanings"),
        counter("cleaner.parity_updates")
    );
    if let Some(Json::Obj(gauges)) = table("gauges") {
        let g = |k: &str| gauges.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "now: backlog {:.0} rows, stale {:.0} rows, staged {:.0} deltas, metalog {:.0}/{:.0} pages ({:.1}%)",
            g("cleaner.backlog_rows"),
            g("raid.stale_rows"),
            g("nvram.staged_deltas"),
            g("metalog.pages_used"),
            g("metalog.pages_total"),
            derived("metalog.occupancy") * 100.0
        );
    }

    // "Where the microseconds go": per-stage simulated-time totals from
    // the v2 latency-attribution table, largest first.
    if let Some(Json::Obj(stages)) = doc.get("stages") {
        let mut rows: Vec<(&str, f64, f64)> = stages
            .iter()
            .map(|(name, h)| (name.as_str(), num(h.get("sum")), num(h.get("count"))))
            .filter(|&(_, sum, count)| sum > 0.0 || count > 0.0)
            .collect();
        let total: f64 = rows.iter().map(|&(_, sum, _)| sum).sum();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if !rows.is_empty() {
            println!("\nwhere the microseconds go ({:.0} us attributed):", total / 1e3);
            println!("{:>20} {:>12} {:>10} {:>7}", "stage", "total(us)", "spans", "share");
            for (name, sum, count) in rows {
                println!(
                    "{name:>20} {:>12.0} {count:>10.0} {:>6.1}%",
                    sum / 1e3,
                    if total > 0.0 { sum / total * 100.0 } else { 0.0 }
                );
            }
        }
    }

    if let Some(ts) = doc.get("timeseries").and_then(Json::as_arr) {
        println!("\ntimeseries ({} samples):", ts.len());
        println!(
            "{:>8} {:>9} {:>10} {:>8} {:>7} {:>7} {:>9}",
            "t(s)", "requests", "ssd_wr", "backlog", "stale", "staged", "metalog%"
        );
        // Show at most 12 rows: the head and the tail of the series.
        let n = ts.len();
        let shown: Vec<usize> =
            if n <= 12 { (0..n).collect() } else { (0..6).chain(n - 6..n).collect() };
        let mut last = None;
        for &i in &shown {
            if let Some(prev) = last {
                if i > prev + 1 {
                    println!("{:>8}", "...");
                }
            }
            last = Some(i);
            let Some(s) = ts.get(i) else { continue };
            let f = |k: &str| num(s.get(k));
            let ssd_wr = f("ssd_data_writes") + f("ssd_delta_writes") + f("ssd_meta_writes");
            println!(
                "{:>8.1} {:>9.0} {:>10.0} {:>8.0} {:>7.0} {:>7.0} {:>8.1}%",
                f("at_ns") / 1e9,
                f("requests"),
                ssd_wr,
                f("backlog_rows"),
                f("stale_rows"),
                f("staged_deltas"),
                f("metalog_occupancy") * 100.0
            );
        }
    }

    if let Some(wear) = doc.get("wear") {
        println!(
            "\nwear: {:.0} blocks, max erase {:.0}",
            num(wear.get("count")),
            num(wear.get("max"))
        );
        if let Some(buckets) = wear.get("buckets").and_then(Json::as_arr) {
            for b in buckets {
                if let Some([lo, n]) = b.as_arr().map(|a| [num(a.first()), num(a.get(1))]) {
                    println!("  >= {lo:>6.0} erases: {n:.0} blocks");
                }
            }
        }
    }

    if let Some(spans) = doc.get("spans") {
        let pushed = num(spans.get("pushed"));
        let dropped = num(spans.get("dropped"));
        println!("\nspans: {pushed:.0} recorded, {dropped:.0} dropped by the ring");
        if dropped > 0.0 {
            let cap = num(spans.get("capacity"));
            println!(
                "WARNING: span ring overflowed — {dropped:.0} of {pushed:.0} spans were \
                 dropped (ring capacity {cap:.0}); rerun with a larger --ring-capacity to \
                 keep them"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_flags_and_positionals() {
        let o = Opts::parse(&s(&[
            "--workload",
            "fin1",
            "--scale",
            "500",
            "--policy",
            "kdd-25",
            "file.spc",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("fin1"));
        assert_eq!(o.scale, 500);
        assert_eq!(o.positional, vec!["file.spc"]);
        assert_eq!(o.policies().unwrap(), vec![PolicyKind::Kdd(0.25)]);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(Opts::parse(&s(&["--bogus", "1"])).is_err());
        assert!(Opts::parse(&s(&["--scale"])).is_err());
        assert!(Opts::parse(&s(&["--scale", "x"])).is_err());
    }

    /// Numbers the library calls below would otherwise `assert!` on
    /// (`--scale 0`, `--read-rate 2`) or silently clamp (`--cache-frac 0`).
    #[test]
    fn out_of_range_numbers_are_usage_errors() {
        for (flag, bad, good) in [
            ("--scale", &["0", "-1"][..], &["1", "4096"][..]),
            ("--read-rate", &["2", "-0.1", "nan", "inf"], &["0", "0.25", "1"]),
            ("--cache-frac", &["0", "-1", "1.5", "nan", "inf"], &["0.01", "1"]),
        ] {
            for value in bad {
                let err = Opts::parse(&s(&[flag, value])).unwrap_err();
                assert!(err.contains(flag), "{flag} {value}: {err}");
            }
            for value in good {
                assert!(Opts::parse(&s(&[flag, value])).is_ok(), "{flag} {value}");
            }
        }
    }

    #[test]
    fn workload_names_resolve() {
        for (name, pt) in [
            ("fin1", PaperTrace::Fin1),
            ("fin2", PaperTrace::Fin2),
            ("hm0", PaperTrace::Hm0),
            ("web0", PaperTrace::Web0),
        ] {
            let o = Opts::parse(&s(&["--workload", name])).unwrap();
            assert_eq!(o.paper_trace().unwrap(), pt);
        }
        let o = Opts::parse(&s(&["--workload", "zzz"])).unwrap();
        assert!(o.paper_trace().is_err());
    }

    #[test]
    fn policy_names_resolve() {
        let resolve = |name: &str| Opts::parse(&s(&["--policy", name])).unwrap().policies();
        for name in POLICY_NAMES.split('|') {
            assert!(resolve(name).is_ok_and(|kinds| !kinds.is_empty()), "{name}");
        }
        let mut all = vec![PolicyKind::Nossd];
        all.extend(PolicyKind::figure_set());
        assert_eq!(resolve("all").unwrap(), all);
        assert!(resolve("wb").is_err());
        assert!(resolve("zzz").is_err());
    }

    #[test]
    fn gen_stats_sim_roundtrip_via_tempfile() {
        let dir = std::env::temp_dir().join(format!("kddtool-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.spc");
        let o = Opts::parse(&s(&[
            "--workload",
            "fin2",
            "--scale",
            "4000",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        gen_trace(&o).unwrap();
        let o2 = Opts::parse(&s(&["--format", "spc", "--in", path.to_str().unwrap()])).unwrap();
        stats(&o2).unwrap();
        let o3 = Opts::parse(&s(&[
            "--in",
            path.to_str().unwrap(),
            "--policy",
            "kdd-25",
            "--cache-frac",
            "0.2",
        ]))
        .unwrap();
        sim(&o3).unwrap();
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            eprintln!("tempdir cleanup failed ({}): {e}", dir.display());
        }
    }

    #[test]
    fn replay_smoke() {
        let o = Opts::parse(&s(&["--workload", "hm0", "--scale", "4000", "--policy", "kdd-12"]))
            .unwrap();
        replay(&o).unwrap();
    }

    #[test]
    fn fio_smoke() {
        let o =
            Opts::parse(&s(&["--read-rate", "0.5", "--scale", "8192", "--policy", "wt"])).unwrap();
        fio(&o).unwrap();
    }
}
