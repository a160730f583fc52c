//! The [`Recorder`] handle: the one type the rest of the stack talks to.
//!
//! A recorder is either *disabled* — the default, a `None` inside, so
//! every call is a branch and an immediate return — or *enabled*, a
//! shared handle (`Arc<Mutex<..>>`, mirroring `FaultInjector`) over the
//! metrics registry, span ring, per-stage latency histograms and sample
//! timeseries. The mutex is poison-recovering: observability must never
//! take down an I/O path.
//!
//! All time here is *simulated* time supplied by the instrumented
//! component; the recorder never reads a clock itself (`clippy.toml`
//! bans wall-clock reads).

use crate::frac;
use crate::json::{obj, Json};
use crate::registry::{CounterId, GaugeId, HistId, Log2Hist, Registry};
use crate::ring::{BackgroundSpan, Completion, ReqKind, SpanBody, SpanEvent, SpanRing};
use crate::snapshot::{CacheCounters, Sample};
use crate::stage::{Stage, StageTimes};
use kdd_util::SimTime;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Configuration for an enabled recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Simulated-time spacing between periodic samples.
    pub sample_interval: SimTime,
    /// Capacity of the span ring buffer.
    pub ring_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig { sample_interval: SimTime::from_micros(250_000), ring_capacity: 256 }
    }
}

/// Pre-registered ids for every metric the stack emits, so hot-path
/// updates are index stores with no key lookup.
#[derive(Debug, Clone, Copy)]
struct Ids {
    // Counters mirrored from CacheStats.
    read_hits: CounterId,
    read_misses: CounterId,
    write_hits: CounterId,
    write_misses: CounterId,
    evictions: CounterId,
    cleanings: CounterId,
    parity_updates: CounterId,
    ssd_reads: CounterId,
    ssd_data_writes: CounterId,
    ssd_delta_writes: CounterId,
    ssd_meta_writes: CounterId,
    raid_reads: CounterId,
    raid_writes: CounterId,
    faults_observed: CounterId,
    fault_retries: CounterId,
    fault_fallbacks: CounterId,
    torn_pages: CounterId,
    // Recorder-owned counters.
    requests: CounterId,
    background_spans: CounterId,
    // Gauges refreshed from the latest sample.
    backlog_rows: GaugeId,
    stale_rows: GaugeId,
    staged_deltas: GaugeId,
    metalog_pages_used: GaugeId,
    metalog_pages_total: GaugeId,
    erases: GaugeId,
    max_erase: GaugeId,
    host_written_bytes: GaugeId,
    nand_written_bytes: GaugeId,
    // Histograms.
    lat_read_ns: HistId,
    lat_write_ns: HistId,
    comp_milli: HistId,
}

impl Ids {
    fn register(r: &mut Registry) -> Ids {
        Ids {
            read_hits: r.register_counter("cache.read_hits"),
            read_misses: r.register_counter("cache.read_misses"),
            write_hits: r.register_counter("cache.write_hits"),
            write_misses: r.register_counter("cache.write_misses"),
            evictions: r.register_counter("cache.evictions"),
            cleanings: r.register_counter("cleaner.cleanings"),
            parity_updates: r.register_counter("cleaner.parity_updates"),
            ssd_reads: r.register_counter("ssd.reads"),
            ssd_data_writes: r.register_counter("ssd.data_writes"),
            ssd_delta_writes: r.register_counter("ssd.delta_writes"),
            ssd_meta_writes: r.register_counter("ssd.meta_writes"),
            raid_reads: r.register_counter("raid.reads"),
            raid_writes: r.register_counter("raid.writes"),
            faults_observed: r.register_counter("faults.observed"),
            fault_retries: r.register_counter("faults.retries"),
            fault_fallbacks: r.register_counter("faults.fallbacks"),
            torn_pages: r.register_counter("recovery.torn_pages"),
            requests: r.register_counter("obs.requests"),
            background_spans: r.register_counter("obs.background_spans"),
            backlog_rows: r.register_gauge("cleaner.backlog_rows"),
            stale_rows: r.register_gauge("raid.stale_rows"),
            staged_deltas: r.register_gauge("nvram.staged_deltas"),
            metalog_pages_used: r.register_gauge("metalog.pages_used"),
            metalog_pages_total: r.register_gauge("metalog.pages_total"),
            erases: r.register_gauge("ssd.erases"),
            max_erase: r.register_gauge("ssd.max_erase"),
            host_written_bytes: r.register_gauge("ssd.host_written_bytes"),
            nand_written_bytes: r.register_gauge("ssd.nand_written_bytes"),
            lat_read_ns: r.register_hist("lat.read_ns"),
            lat_write_ns: r.register_hist("lat.write_ns"),
            comp_milli: r.register_hist("delta.comp_milli"),
        }
    }
}

#[derive(Debug)]
struct ObsCore {
    registry: Registry,
    ids: Ids,
    ring: SpanRing,
    /// Per-stage latency histograms indexed by [`Stage::index`]: one
    /// observation per span that charged the stage, in nanoseconds.
    stage_hists: Vec<Log2Hist>,
    samples: Vec<Sample>,
    interval: SimTime,
    now: SimTime,
    next_sample: SimTime,
    seq: u64,
}

impl ObsCore {
    fn observe_stages(&mut self, stages: &StageTimes) {
        for (stage, ns) in stages.iter_nonzero() {
            if let Some(h) = self.stage_hists.get_mut(stage.index()) {
                h.observe(ns);
            }
        }
    }

    fn note(&mut self, c: Completion, enter: SimTime, exit: SimTime) -> bool {
        self.seq += 1;
        self.registry.add(self.ids.requests, 1);
        match c.kind {
            ReqKind::Read => self.registry.observe(self.ids.lat_read_ns, c.service.as_nanos()),
            ReqKind::Write => self.registry.observe(self.ids.lat_write_ns, c.service.as_nanos()),
        }
        if c.comp_milli > 0 {
            self.registry.observe(self.ids.comp_milli, u64::from(c.comp_milli));
        }
        self.observe_stages(&c.stages);
        self.ring.push(SpanEvent { seq: self.seq, enter, exit, body: SpanBody::Request(c) });
        self.now >= self.next_sample
    }

    fn note_background(&mut self, b: BackgroundSpan, enter: SimTime, exit: SimTime) -> bool {
        self.seq += 1;
        self.registry.add(self.ids.background_spans, 1);
        // The wrapper itself is an observation of its own stage; the
        // inner breakdown lands in the per-stage histograms too.
        if let Some(h) = self.stage_hists.get_mut(b.stage.index()) {
            h.observe(b.service.as_nanos());
        }
        self.observe_stages(&b.stages);
        self.ring.push(SpanEvent { seq: self.seq, enter, exit, body: SpanBody::Background(b) });
        self.now >= self.next_sample
    }

    fn sync_cache(&mut self, c: &CacheCounters) {
        let ids = self.ids;
        let r = &mut self.registry;
        r.set_counter(ids.read_hits, c.read_hits);
        r.set_counter(ids.read_misses, c.read_misses);
        r.set_counter(ids.write_hits, c.write_hits);
        r.set_counter(ids.write_misses, c.write_misses);
        r.set_counter(ids.evictions, c.evictions);
        r.set_counter(ids.cleanings, c.cleanings);
        r.set_counter(ids.parity_updates, c.parity_updates);
        r.set_counter(ids.ssd_reads, c.ssd_reads);
        r.set_counter(ids.ssd_data_writes, c.ssd_data_writes);
        r.set_counter(ids.ssd_delta_writes, c.ssd_delta_writes);
        r.set_counter(ids.ssd_meta_writes, c.ssd_meta_writes);
        r.set_counter(ids.raid_reads, c.raid_reads);
        r.set_counter(ids.raid_writes, c.raid_writes);
        r.set_counter(ids.faults_observed, c.faults_observed);
        r.set_counter(ids.fault_retries, c.fault_retries);
        r.set_counter(ids.fault_fallbacks, c.fault_fallbacks);
        r.set_counter(ids.torn_pages, c.torn_pages_detected);
    }

    fn refresh_gauges(&mut self, s: &Sample) {
        let to_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let ids = self.ids;
        let r = &mut self.registry;
        r.set_gauge(ids.backlog_rows, to_i64(s.backlog_rows));
        r.set_gauge(ids.stale_rows, to_i64(s.stale_rows));
        r.set_gauge(ids.staged_deltas, to_i64(s.staged_deltas));
        r.set_gauge(ids.metalog_pages_used, to_i64(s.metalog_pages_used));
        r.set_gauge(ids.metalog_pages_total, to_i64(s.metalog_pages_total));
        r.set_gauge(ids.erases, to_i64(s.erases));
        r.set_gauge(ids.max_erase, to_i64(s.max_erase));
        r.set_gauge(ids.host_written_bytes, to_i64(s.host_written_bytes));
        r.set_gauge(ids.nand_written_bytes, to_i64(s.nand_written_bytes));
    }

    fn derived(&self, fin: &Sample) -> Json {
        let c = &fin.cache;
        obj(vec![
            ("cache.hit_ratio", Json::Num(frac(c.hits(), c.requests()))),
            ("cache.read_hit_ratio", Json::Num(frac(c.read_hits, c.read_hits + c.read_misses))),
            ("cache.metadata_fraction", Json::Num(frac(c.ssd_meta_writes, c.ssd_writes_pages()))),
            ("ssd.waf", Json::Num(frac(fin.nand_written_bytes, fin.host_written_bytes))),
            ("metalog.occupancy", Json::Num(frac(fin.metalog_pages_used, fin.metalog_pages_total))),
        ])
    }

    /// Export the per-stage table: every declared stage (stable schema),
    /// each as its `Log2Hist` `{count, sum, max, buckets}` where `sum` is
    /// total simulated nanoseconds charged to the stage.
    fn export_stages(&self) -> Json {
        let map: BTreeMap<String, Json> = Stage::ALL
            .into_iter()
            .map(|s| {
                let hist = self.stage_hists.get(s.index()).cloned().unwrap_or_default().export();
                (s.as_str().to_string(), hist)
            })
            .collect();
        Json::Obj(map)
    }
}

/// Cloneable handle to the observability sink. The default is disabled:
/// every method returns immediately after one `Option` branch, which is
/// what keeps the no-op overhead inside the perf budget.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<ObsCore>>>,
}

impl Recorder {
    /// The no-op recorder.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder with the given sampling/ring configuration.
    pub fn new(config: RecorderConfig) -> Recorder {
        let interval = SimTime(config.sample_interval.0.max(1));
        let mut registry = Registry::new();
        let ids = Ids::register(&mut registry);
        let core = ObsCore {
            registry,
            ids,
            ring: SpanRing::new(config.ring_capacity),
            stage_hists: vec![Log2Hist::new(); Stage::COUNT],
            samples: Vec::new(),
            interval,
            now: SimTime::ZERO,
            next_sample: interval,
            seq: 0,
        };
        Recorder { inner: Some(Arc::new(Mutex::new(core))) }
    }

    /// True when events are actually being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock<'a>(core: &'a Arc<Mutex<ObsCore>>) -> std::sync::MutexGuard<'a, ObsCore> {
        core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a completion using the recorder's internal simulated clock:
    /// the request enters at the current clock and exits `service` later.
    /// Returns true when a periodic sample is due (call
    /// [`Recorder::push_sample`] with a fresh [`Sample`]).
    pub fn record(&self, c: Completion) -> bool {
        let Some(core) = &self.inner else { return false };
        let mut g = Self::lock(core);
        let enter = g.now;
        let exit = SimTime(enter.0.saturating_add(c.service.0));
        g.now = exit;
        g.note(c, enter, exit)
    }

    /// Record a completion with caller-supplied enter/exit stamps (the
    /// simulator drivers own their own clocks). The recorder clock only
    /// moves forward. Returns true when a periodic sample is due.
    pub fn record_at(&self, c: Completion, enter: SimTime, exit: SimTime) -> bool {
        let Some(core) = &self.inner else { return false };
        let mut g = Self::lock(core);
        g.now = SimTime(g.now.0.max(exit.0));
        g.note(c, enter, exit)
    }

    /// Record a background span (cleaner pass, group-commit flush,
    /// recovery) of duration `service` starting at the recorder's current
    /// clock, with `stages` attributing the work inside it. Advances the
    /// internal clock like [`Recorder::record`]. Returns true when a
    /// periodic sample is due.
    pub fn record_background(&self, stage: Stage, service: SimTime, stages: StageTimes) -> bool {
        let Some(core) = &self.inner else { return false };
        let mut g = Self::lock(core);
        let enter = g.now;
        let exit = SimTime(enter.0.saturating_add(service.0));
        g.now = exit;
        g.note_background(BackgroundSpan { stage, service, stages }, enter, exit)
    }

    /// Append a timeseries sample and schedule the next one.
    pub fn push_sample(&self, s: Sample) {
        let Some(core) = &self.inner else { return };
        let mut g = Self::lock(core);
        g.now = SimTime(g.now.0.max(s.at.0));
        g.samples.push(s);
        g.next_sample = SimTime(g.now.0.saturating_add(g.interval.0));
    }

    /// True when the simulated clock has passed the next sample point.
    pub fn sample_due(&self) -> bool {
        let Some(core) = &self.inner else { return false };
        let g = Self::lock(core);
        g.now >= g.next_sample
    }

    /// Current simulated time as seen by the recorder.
    pub fn now(&self) -> SimTime {
        let Some(core) = &self.inner else { return SimTime::ZERO };
        Self::lock(core).now
    }

    /// Mirror the cache-layer counter totals into the registry.
    pub fn sync_cache(&self, c: &CacheCounters) {
        let Some(core) = &self.inner else { return };
        Self::lock(core).sync_cache(c);
    }

    /// Export the full `kdd-obs/v2` snapshot. `fin` is the final sample
    /// (always appended to the timeseries and used to refresh gauges and
    /// derived ratios); `wear` is the per-block erase-count histogram.
    /// Returns `None` on a disabled recorder. Idempotent: exporting twice
    /// with the same `fin` yields byte-identical documents.
    pub fn export(&self, fin: &Sample, wear: &Log2Hist) -> Option<Json> {
        let core = self.inner.as_ref()?;
        let mut g = Self::lock(core);
        g.sync_cache(&fin.cache);
        g.refresh_gauges(fin);
        let mut totals = g.registry.export();
        if let Json::Obj(map) = &mut totals {
            map.insert("derived".to_string(), g.derived(fin));
        }
        let mut timeseries: Vec<Json> = g.samples.iter().map(Sample::export).collect();
        timeseries.push(fin.export());
        Some(obj(vec![
            ("schema", Json::Str(crate::SCHEMA.to_string())),
            ("totals", totals),
            ("stages", g.export_stages()),
            ("timeseries", Json::Arr(timeseries)),
            ("wear", wear.export()),
            ("spans", g.ring.export()),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::HitClass;
    use crate::snapshot::validate_snapshot;

    fn completion(lba: u64, service: SimTime) -> Completion {
        Completion::new(ReqKind::Write, lba, HitClass::WriteHitDelta, service)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(!r.record(completion(1, SimTime(100))));
        assert!(!r.record_background(Stage::CleanerPass, SimTime(50), StageTimes::new()));
        assert!(!r.sample_due());
        assert!(r.export(&Sample::default(), &Log2Hist::new()).is_none());
    }

    #[test]
    fn internal_clock_advances_and_samples_come_due() {
        let cfg = RecorderConfig { sample_interval: SimTime::from_micros(10), ring_capacity: 16 };
        let r = Recorder::new(cfg);
        // 9 µs of traffic: not due yet.
        assert!(!r.record(completion(0, SimTime::from_micros(9))));
        // Crossing 10 µs: due.
        assert!(r.record(completion(1, SimTime::from_micros(2))));
        let s = Sample { at: r.now(), ..Sample::default() };
        r.push_sample(s);
        assert!(!r.sample_due(), "push_sample reschedules");
    }

    #[test]
    fn export_is_idempotent_and_valid() {
        let r = Recorder::new(RecorderConfig::default());
        r.record(completion(3, SimTime::from_micros(50)));
        let fin = Sample {
            at: r.now(),
            cache: CacheCounters { write_hits: 1, ..CacheCounters::default() },
            host_written_bytes: 4096,
            nand_written_bytes: 8192,
            ..Sample::default()
        };
        let mut wear = Log2Hist::new();
        wear.observe(3);
        let a = r.export(&fin, &wear).expect("enabled").render();
        let b = r.export(&fin, &wear).expect("enabled").render();
        assert_eq!(a, b, "export must not mutate recorder state");
        let doc = crate::json::parse(&a).expect("parse");
        assert_eq!(validate_snapshot(&doc), Vec::<String>::new());
        let derived = doc.get("totals").and_then(|t| t.get("derived")).expect("derived");
        assert_eq!(derived.get("ssd.waf").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn stage_charges_land_in_the_stage_table_and_span() {
        let r = Recorder::new(RecorderConfig::default());
        let mut c = completion(9, SimTime::from_micros(46));
        c.stages.add(Stage::DeltaEncode, SimTime::from_micros(30));
        c.stages.add(Stage::RaidWrite, SimTime::from_micros(16));
        r.record(c);
        let mut bg = StageTimes::new();
        bg.add(Stage::ParityRmw, SimTime::from_micros(24));
        r.record_background(Stage::CleanerPass, SimTime::from_micros(24), bg);
        let doc = r.export(&Sample { at: r.now(), ..Sample::default() }, &Log2Hist::new());
        let doc = doc.expect("enabled");
        let stages = doc.get("stages").expect("stages table");
        let sum = |name: &str| {
            stages.get(name).and_then(|h| h.get("sum")).and_then(Json::as_f64).unwrap_or(-1.0)
        };
        assert_eq!(sum("delta_encode"), 30_000.0);
        assert_eq!(sum("raid_write"), 16_000.0);
        assert_eq!(sum("parity_rmw"), 24_000.0);
        assert_eq!(sum("cleaner_pass"), 24_000.0);
        assert_eq!(sum("cache_lookup"), 0.0, "declared stages export even when idle");
        // The background span rides the same ring with the stage name as
        // its class, and the request span carries its stage breakdown.
        let events = doc.get("spans").and_then(|s| s.get("events")).and_then(Json::as_arr);
        let events = events.expect("events");
        assert_eq!(events.len(), 2);
        let req = events.first().expect("request span");
        assert_eq!(
            req.get("stages").and_then(|s| s.get("delta_encode")).and_then(Json::as_f64),
            Some(30_000.0)
        );
        let bg = events.get(1).expect("background span");
        assert_eq!(bg.get("kind").and_then(Json::as_str), Some("background"));
        assert_eq!(bg.get("class").and_then(Json::as_str), Some("cleaner_pass"));
        // Counter split: one request, one background span.
        let counters = doc.get("totals").and_then(|t| t.get("counters")).expect("counters");
        assert_eq!(counters.get("obs.requests").and_then(Json::as_f64), Some(1.0));
        assert_eq!(counters.get("obs.background_spans").and_then(Json::as_f64), Some(1.0));
    }
}
