//! The [`Recorder`] handle: the one type the rest of the stack talks to.
//!
//! A recorder is either *disabled* — the default, a `None` inside, so
//! every call is a branch and an immediate return — or *enabled*, a
//! shared handle (`Arc<Mutex<..>>`, mirroring `FaultInjector`) over the
//! span ring, the recorder's own counters and latency histograms, and the
//! sample timeseries. The mutex is poison-recovering: observability must never
//! take down an I/O path.
//!
//! All time here is *simulated* time supplied by the instrumented
//! component; the recorder never reads a clock itself (`clippy.toml`
//! bans wall-clock reads).

use crate::frac;
use crate::hist::Log2Hist;
use crate::json::{obj, Json};
use crate::ring::{BackgroundSpan, Completion, ReqKind, SpanBody, SpanEvent, SpanRing};
use crate::snapshot::Sample;
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

#[derive(Debug)]
struct ObsCore {
    ring: SpanRing,
    requests: u64,
    background_spans: u64,
    lat_read_ns: Log2Hist,
    lat_write_ns: Log2Hist,
    comp_milli: Log2Hist,
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
        self.requests += 1;
        match c.kind {
            ReqKind::Read => self.lat_read_ns.observe(c.service.as_nanos()),
            ReqKind::Write => self.lat_write_ns.observe(c.service.as_nanos()),
        }
        if c.comp_milli > 0 {
            self.comp_milli.observe(u64::from(c.comp_milli));
        }
        self.observe_stages(&c.stages);
        self.ring.push(SpanEvent { seq: self.seq, enter, exit, body: SpanBody::Request(c) });
        self.now >= self.next_sample
    }

    fn note_background(&mut self, b: BackgroundSpan, enter: SimTime, exit: SimTime) -> bool {
        self.seq += 1;
        self.background_spans += 1;
        // The wrapper itself is an observation of its own stage; the
        // inner breakdown lands in the per-stage histograms too.
        if let Some(h) = self.stage_hists.get_mut(b.stage.index()) {
            h.observe(b.service.as_nanos());
        }
        self.observe_stages(&b.stages);
        self.ring.push(SpanEvent { seq: self.seq, enter, exit, body: SpanBody::Background(b) });
        self.now >= self.next_sample
    }

    /// The `totals` table. Cache counters, gauges and derived ratios are
    /// read from the final sample; this function is the one place each
    /// metric is named.
    fn totals(&self, fin: &Sample) -> Json {
        let c = &fin.cache;
        let n = |v: u64| Json::Num(v as f64);
        let counters = obj(vec![
            ("cache.read_hits", n(c.read_hits)),
            ("cache.read_misses", n(c.read_misses)),
            ("cache.write_hits", n(c.write_hits)),
            ("cache.write_misses", n(c.write_misses)),
            ("cache.evictions", n(c.evictions)),
            ("cleaner.cleanings", n(c.cleanings)),
            ("cleaner.parity_updates", n(c.parity_updates)),
            ("ssd.reads", n(c.ssd_reads)),
            ("ssd.data_writes", n(c.ssd_data_writes)),
            ("ssd.delta_writes", n(c.ssd_delta_writes)),
            ("ssd.meta_writes", n(c.ssd_meta_writes)),
            ("raid.reads", n(c.raid_reads)),
            ("raid.writes", n(c.raid_writes)),
            ("faults.observed", n(c.faults_observed)),
            ("faults.retries", n(c.fault_retries)),
            ("faults.fallbacks", n(c.fault_fallbacks)),
            ("recovery.torn_pages", n(c.torn_pages_detected)),
            ("obs.requests", n(self.requests)),
            ("obs.background_spans", n(self.background_spans)),
        ]);
        let gauges = obj(vec![
            ("cleaner.backlog_rows", n(fin.backlog_rows)),
            ("raid.stale_rows", n(fin.stale_rows)),
            ("nvram.staged_deltas", n(fin.staged_deltas)),
            ("metalog.pages_used", n(fin.metalog_pages_used)),
            ("metalog.pages_total", n(fin.metalog_pages_total)),
            ("ssd.erases", n(fin.erases)),
            ("ssd.max_erase", n(fin.max_erase)),
            ("ssd.host_written_bytes", n(fin.host_written_bytes)),
            ("ssd.nand_written_bytes", n(fin.nand_written_bytes)),
        ]);
        let hists = obj(vec![
            ("lat.read_ns", self.lat_read_ns.export()),
            ("lat.write_ns", self.lat_write_ns.export()),
            ("delta.comp_milli", self.comp_milli.export()),
        ]);
        let derived = obj(vec![
            ("cache.hit_ratio", Json::Num(c.hit_ratio())),
            ("cache.read_hit_ratio", Json::Num(c.read_hit_ratio())),
            ("cache.metadata_fraction", Json::Num(c.metadata_fraction())),
            ("ssd.waf", Json::Num(frac(fin.nand_written_bytes, fin.host_written_bytes))),
            ("metalog.occupancy", Json::Num(frac(fin.metalog_pages_used, fin.metalog_pages_total))),
        ]);
        obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("hists", hists),
            ("derived", derived),
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
        let core = ObsCore {
            ring: SpanRing::new(config.ring_capacity),
            requests: 0,
            background_spans: 0,
            lat_read_ns: Log2Hist::new(),
            lat_write_ns: Log2Hist::new(),
            comp_milli: Log2Hist::new(),
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

    /// Current simulated time as seen by the recorder.
    pub fn now(&self) -> SimTime {
        let Some(core) = &self.inner else { return SimTime::ZERO };
        Self::lock(core).now
    }

    /// Export the full `kdd-obs/v2` snapshot. `fin` is the final sample
    /// (always appended to the timeseries, and the source of the cache
    /// counters, gauges and derived ratios in `totals`); `wear` is the per-block erase-count histogram.
    /// Returns `None` on a disabled recorder. Idempotent: exporting twice
    /// with the same `fin` yields byte-identical documents.
    pub fn export(&self, fin: &Sample, wear: &Log2Hist) -> Option<Json> {
        let core = self.inner.as_ref()?;
        let g = Self::lock(core);
        let mut timeseries: Vec<Json> = g.samples.iter().map(Sample::export).collect();
        timeseries.push(fin.export());
        Some(obj(vec![
            ("schema", Json::Str(crate::SCHEMA.to_string())),
            ("totals", g.totals(fin)),
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
    use crate::snapshot::{validate_snapshot, CacheStats};

    fn completion(lba: u64, service: SimTime) -> Completion {
        Completion::new(ReqKind::Write, lba, HitClass::WriteHitDelta, service)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(!r.record(completion(1, SimTime(100))));
        assert!(!r.record_background(Stage::CleanerPass, SimTime(50), StageTimes::new()));
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
        assert!(!r.record(completion(2, SimTime(1))), "push_sample reschedules");
    }

    #[test]
    fn export_is_idempotent_and_valid() {
        let r = Recorder::new(RecorderConfig::default());
        r.record(completion(3, SimTime::from_micros(50)));
        let fin = Sample {
            at: r.now(),
            cache: CacheStats { write_hits: 1, ..CacheStats::default() },
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
