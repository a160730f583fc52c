//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root carries
//! the same lists; `tests/contract.rs` checks that the two agree.

/// Which clock (or none) a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of this machine: what the simulator costs its users.
    Host,
    /// Simulated device time: the paper's result.
    Sim,
    /// A count made by the program; repeats exactly for one seed.
    Count,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which clock it is read from.
    pub clock: Clock,
    /// Direction of "better".
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload.
///
/// Bounds: for a count or a simulated time, at least three times the
/// widest quartile spread seen over ten runs of ten seeds on any workload
/// (README, "Measured spreads"; `allocs_per_op` reaches only twice) — they
/// repeat exactly for one seed, but the driver compares runs of different
/// seeds, so that spread is what the workload sizes leave. For the two host
/// times the spread is the machine's noise left after drift normalisation,
/// up to 15 % on a busy afternoon, and the bound is the contract's ceiling.
/// `failed_ops_frac` is printed and stored beside these but is not listed:
/// it must be 0, and the contract wants listed metrics never to be 0 — it
/// travels as `failed`/`attempted`.
/// Response-time percentiles are per-layer metrics (`core.sim_p99_us`,
/// `core.sim_p999_us`, `sim.kdd_p99_us`, `sim.kdd_des_p99_us`), not
/// end-to-end ones: simulated times are sums of a few fixed device costs,
/// so a percentile is a step function of the inputs (the engine's p99 is
/// the same value for every seed, the sim runners' p99 moves in 4 %
/// histogram steps) and cannot carry a bound.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "replay_ops_per_s",
        unit: "1/s",
        clock: Clock::Host,
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "1/op",
        clock: Clock::Count,
        higher_is_better: false,
        bound: 0.18,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B/op",
        clock: Clock::Count,
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        clock: Clock::Count,
        higher_is_better: false,
        bound: 0.03,
    },
    EndToEnd {
        name: "sim_mean_response_us",
        unit: "us",
        clock: Clock::Sim,
        higher_is_better: false,
        bound: 0.08,
    },
    EndToEnd {
        name: "hit_ratio",
        unit: "ratio",
        clock: Clock::Count,
        higher_is_better: true,
        bound: 0.04,
    },
    EndToEnd {
        name: "ssd_bytes_per_user_byte",
        unit: "B/B",
        clock: Clock::Count,
        higher_is_better: false,
        bound: 0.04,
    },
    EndToEnd {
        name: "hdd_ios_per_op",
        unit: "1/op",
        clock: Clock::Count,
        higher_is_better: false,
        bound: 0.04,
    },
];

/// Name of the correctness figure printed beside the end-to-end metrics.
pub const FAILED_OPS_FRAC: &str = "failed_ops_frac";

/// One per-layer metric: name, unit, higher-is-better.
pub type PerLayer = (&'static str, &'static str, bool);

/// The per-layer metrics of the traced run, in report order. A workload
/// that does not exercise a layer reports that layer's metrics as 0.
pub const PER_LAYER: [PerLayer; 93] = [
    // trace
    ("trace.generate_records_per_s", "1/s", true),
    // delta
    ("delta.content_gen_ns_per_page", "ns", false),
    ("delta.xor_ns_per_page", "ns", false),
    ("delta.compress_ns_per_page", "ns", false),
    ("delta.decompress_ns_per_page", "ns", false),
    ("delta.compressed_bytes_mean", "B", false),
    ("delta.codec_frac.raw", "ratio", false),
    ("delta.codec_frac.zero_rle", "ratio", true),
    ("delta.codec_frac.lz", "ratio", true),
    ("delta.est_share", "ratio", false),
    // cache
    ("cache.read_hit_ratio", "ratio", true),
    ("cache.write_hit_ratio", "ratio", true),
    ("cache.evictions_per_kop", "1/kop", false),
    ("cache.lookup_ns", "ns", false),
    ("cache.insert_ns", "ns", false),
    ("cache.est_share", "ratio", false),
    ("cache.policy_access_ns.nossd", "ns", false),
    ("cache.policy_access_ns.wa", "ns", false),
    ("cache.policy_access_ns.wt", "ns", false),
    ("cache.policy_access_ns.leavo", "ns", false),
    // core
    ("core.read_calls", "count", false),
    ("core.read_host_p50_us", "us", false),
    ("core.read_host_p99_us", "us", false),
    ("core.read_host_share", "ratio", false),
    ("core.write_batch_calls", "count", false),
    ("core.write_page_host_p50_us", "us", false),
    ("core.write_page_host_p99_us", "us", false),
    ("core.write_host_share", "ratio", false),
    ("core.clean_host_ms", "ms", false),
    ("core.flush_host_ms", "ms", false),
    ("core.cleanings", "count", false),
    ("core.parity_updates_per_kop", "1/kop", false),
    ("core.pending_rows_peak", "count", false),
    ("core.staged_deltas_peak", "count", false),
    ("core.ssd_data_pages_per_kop", "1/kop", false),
    ("core.ssd_delta_pages_per_kop", "1/kop", false),
    ("core.ssd_meta_pages_per_kop", "1/kop", false),
    ("core.metalog_push_ns", "ns", false),
    ("core.staging_insert_ns", "ns", false),
    ("core.est_share_metalog_staging", "ratio", false),
    ("core.power_cycle_host_ms", "ms", false),
    ("core.hdd_recovery_host_ms", "ms", false),
    ("core.sim_share.cache_lookup", "ratio", false),
    ("core.sim_share.delta_encode", "ratio", false),
    ("core.sim_share.delta_decode", "ratio", false),
    ("core.sim_share.ssd_read", "ratio", false),
    ("core.sim_share.ssd_write", "ratio", false),
    ("core.sim_share.staging_commit", "ratio", false),
    ("core.sim_share.metalog_commit", "ratio", false),
    ("core.sim_share.raid_read", "ratio", false),
    ("core.sim_share.raid_write", "ratio", false),
    ("core.sim_share.parity_rmw", "ratio", false),
    ("core.sim_share.raid_reconstruct", "ratio", false),
    ("core.sim_share.cleaner_pass", "ratio", false),
    ("core.sim_share.group_commit_flush", "ratio", false),
    ("core.policy_access_ns.kdd", "ns", false),
    ("core.sim_p99_us", "us", false),
    ("core.sim_p999_us", "us", false),
    // raid
    ("raid.disk_reads_per_op", "1/op", false),
    ("raid.disk_writes_per_op", "1/op", false),
    ("raid.stale_rows_peak", "count", false),
    ("raid.read_page_ns", "ns", false),
    ("raid.write_page_ns", "ns", false),
    ("raid.write_no_parity_ns", "ns", false),
    ("raid.parity_update_rmw_ns", "ns", false),
    ("raid.degraded_read_ns", "ns", false),
    ("raid.rebuild_ns_per_row", "ns", false),
    ("raid.gf256_mul2_ns_per_page", "ns", false),
    ("raid.est_share", "ratio", false),
    // blockdev
    ("blockdev.ssd_host_pages_per_kop", "1/kop", false),
    ("blockdev.waf", "ratio", false),
    ("blockdev.erases_per_kop", "1/kop", false),
    ("blockdev.max_erase_count", "count", false),
    ("blockdev.ssd_write_ns", "ns", false),
    ("blockdev.ssd_read_ns", "ns", false),
    ("blockdev.est_share", "ratio", false),
    // sim
    ("sim.open_loop_records_per_s", "1/s", true),
    ("sim.des_records_per_s", "1/s", true),
    ("sim.des_mean_queue_depth", "count", false),
    ("sim.kdd_response_vs_nossd", "ratio", false),
    ("sim.kdd_response_vs_wt", "ratio", false),
    ("sim.kdd_ssd_writes_vs_wt", "ratio", false),
    ("sim.kdd_ssd_writes_vs_leavo", "ratio", false),
    ("sim.kdd_p99_us", "us", false),
    ("sim.kdd_des_p99_us", "us", false),
    // obs
    ("obs.recorder_overhead_frac", "ratio", false),
    ("obs.spans_dropped", "count", false),
    // harness
    ("harness.unattributed_share", "ratio", false),
    ("harness.timer_pair_ns", "ns", false),
    ("harness.rep_iqr_frac", "ratio", false),
    ("harness.drift", "ratio", false),
    ("harness.raw_replay_ops_per_s", "1/s", true),
    ("harness.raw_setup_s", "s", false),
];

/// The per-layer estimates of a layer's share of host time per operation;
/// with `harness.unattributed_share` they sum to 1.
pub const EST_SHARES: [&str; 5] = [
    "delta.est_share",
    "cache.est_share",
    "core.est_share_metalog_staging",
    "raid.est_share",
    "blockdev.est_share",
];

/// One workload: name and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line on why it is in the set.
    pub why: &'static str,
}

/// The workloads, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fin1_write_heavy",
        why: "Fin1 trace, 81% writes, working set 9.7x the cache: the paper's headline case; core write path and RAID RMW do the work",
    },
    Workload {
        name: "fin2_read_heavy",
        why: "Fin2 trace, 80% reads: cache lookup, SSD read and raid::read_page dominate; a write-path change must show no change here",
    },
    Workload {
        name: "zipf_fit_raid6_faults",
        why: "Zipf working set that fits the cache on RAID-6, mixed content, member failure, rebuild and power cycle: FTL GC, gf256 and recovery",
    },
    Workload {
        name: "policy_sweep_counting",
        why: "five policies x four traces through replay_open_loop and replay_des: sim, cache policies and KddPolicy, no engine and no bytes",
    },
];

/// Workload sizes. `Full` is what `BENCHMARK.json` measures; `Smoke` runs
/// the same code over a fraction of the input, in seconds, for CI and for
/// the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The sizes the benchmark is defined on.
    Full,
    /// A small fraction of them; same metrics, same schema.
    Smoke,
}
