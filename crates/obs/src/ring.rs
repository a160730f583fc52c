//! I/O lifecycle spans and the bounded ring buffer that captures them.
//!
//! Each engine/simulator request produces one [`Completion`]; the
//! recorder stamps it with simulated-time enter/exit and a sequence
//! number to form a [`SpanEvent`]. Background work that belongs to no
//! single request — cleaner passes, deferred metalog group flushes,
//! recovery — is captured as first-class [`BackgroundSpan`]s on the same
//! ring. Events land in a fixed-capacity [`SpanRing`] — the newest N
//! survive, and the number of overwritten events is reported so a
//! truncated trace is never mistaken for a complete one.

use crate::json::{obj, Json};
use crate::stage::{Stage, StageTimes};
use kdd_util::SimTime;

/// Direction of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A host read.
    Read,
    /// A host write.
    Write,
}

impl ReqKind {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            ReqKind::Read => "read",
            ReqKind::Write => "write",
        }
    }
}

/// How the cache serviced a request — the KDD hit classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitClass {
    /// Read served from the SSD cache.
    ReadHit,
    /// Read missed the cache and went to the RAID array.
    ReadMiss,
    /// Write hit the cache (class not further refined).
    WriteHit,
    /// Write hit stored as a compressed XOR delta (DEZ page), parity left
    /// stale for the cleaner — the paper's §III-C fast path.
    WriteHitDelta,
    /// Write hit that fell back to a full write-through (incompressible
    /// delta or staging full).
    WriteHitThrough,
    /// Write missed the cache.
    WriteMiss,
    /// Request bypassed the cache entirely (degraded pass-through mode).
    PassThrough,
}

impl HitClass {
    /// Stable snake_case name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            HitClass::ReadHit => "read_hit",
            HitClass::ReadMiss => "read_miss",
            HitClass::WriteHit => "write_hit",
            HitClass::WriteHitDelta => "write_hit_delta",
            HitClass::WriteHitThrough => "write_hit_through",
            HitClass::WriteMiss => "write_miss",
            HitClass::PassThrough => "pass_through",
        }
    }
}

/// Everything observed about one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Read or write.
    pub kind: ReqKind,
    /// Logical block address of the request.
    pub lba: u64,
    /// Hit classification.
    pub class: HitClass,
    /// Simulated service time.
    pub service: SimTime,
    /// SSD page reads performed on behalf of this request.
    pub ssd_reads: u32,
    /// SSD page writes (data + delta + metadata) for this request.
    pub ssd_writes: u32,
    /// RAID member-disk reads for this request.
    pub raid_reads: u32,
    /// RAID member-disk writes for this request.
    pub raid_writes: u32,
    /// Delta-compression ratio in milli-units (compressed size × 1000 /
    /// page size); 0 when no delta was produced.
    pub comp_milli: u32,
    /// Faults observed while serving this request.
    pub faults: u32,
    /// Retries performed while serving this request.
    pub retries: u32,
    /// Per-stage attribution of the service time (child spans). The sum
    /// never exceeds `service` — the conservation invariant.
    pub stages: StageTimes,
}

impl Completion {
    /// A zeroed completion for `kind`/`lba`/`class`/`service`; callers
    /// fill in the traffic, fault and stage fields they know.
    pub fn new(kind: ReqKind, lba: u64, class: HitClass, service: SimTime) -> Self {
        Completion {
            kind,
            lba,
            class,
            service,
            ssd_reads: 0,
            ssd_writes: 0,
            raid_reads: 0,
            raid_writes: 0,
            comp_milli: 0,
            faults: 0,
            retries: 0,
            stages: StageTimes::new(),
        }
    }
}

/// One unit of background work (no owning request): a cleaner pass, a
/// deferred group-commit flush, a recovery action. The `stage` names the
/// wrapper; `stages` attributes the time spent inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundSpan {
    /// The background stage this span represents.
    pub stage: Stage,
    /// Simulated duration of the pass.
    pub service: SimTime,
    /// Per-stage attribution of the work done inside the pass.
    pub stages: StageTimes,
}

/// What a span on the ring describes: a host request or background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanBody {
    /// A completed host request.
    Request(Completion),
    /// A completed background pass.
    Background(BackgroundSpan),
}

/// A span stamped with its position in the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// 1-based event sequence number (requests and background spans share
    /// one sequence).
    pub seq: u64,
    /// Simulated time the work started.
    pub enter: SimTime,
    /// Simulated time the work completed.
    pub exit: SimTime,
    /// What the span describes.
    pub body: SpanBody,
}

impl SpanEvent {
    /// The request completion, when this span is one.
    pub fn completion(&self) -> Option<&Completion> {
        match &self.body {
            SpanBody::Request(c) => Some(c),
            SpanBody::Background(_) => None,
        }
    }

    /// Export as a flat JSON object. Requests carry the full traffic
    /// breakdown; background spans carry `kind: "background"` and use the
    /// stage name as their class.
    pub fn export(&self) -> Json {
        match &self.body {
            SpanBody::Request(c) => obj(vec![
                ("seq", Json::Num(self.seq as f64)),
                ("enter_ns", Json::Num(self.enter.as_nanos() as f64)),
                ("exit_ns", Json::Num(self.exit.as_nanos() as f64)),
                ("kind", Json::Str(c.kind.as_str().to_string())),
                ("lba", Json::Num(c.lba as f64)),
                ("class", Json::Str(c.class.as_str().to_string())),
                ("service_ns", Json::Num(c.service.as_nanos() as f64)),
                ("ssd_reads", Json::Num(f64::from(c.ssd_reads))),
                ("ssd_writes", Json::Num(f64::from(c.ssd_writes))),
                ("raid_reads", Json::Num(f64::from(c.raid_reads))),
                ("raid_writes", Json::Num(f64::from(c.raid_writes))),
                ("comp_milli", Json::Num(f64::from(c.comp_milli))),
                ("faults", Json::Num(f64::from(c.faults))),
                ("retries", Json::Num(f64::from(c.retries))),
                ("stages", c.stages.export()),
            ]),
            SpanBody::Background(b) => obj(vec![
                ("seq", Json::Num(self.seq as f64)),
                ("enter_ns", Json::Num(self.enter.as_nanos() as f64)),
                ("exit_ns", Json::Num(self.exit.as_nanos() as f64)),
                ("kind", Json::Str("background".to_string())),
                ("class", Json::Str(b.stage.as_str().to_string())),
                ("service_ns", Json::Num(b.service.as_nanos() as f64)),
                ("stages", b.stages.export()),
            ]),
        }
    }
}

/// Fixed-capacity ring of the most recent [`SpanEvent`]s.
#[derive(Debug, Clone)]
pub struct SpanRing {
    events: Vec<SpanEvent>,
    cap: usize,
    next: usize,
    pushed: u64,
}

impl SpanRing {
    /// A ring holding at most `cap` events (minimum 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        SpanRing { events: Vec::with_capacity(cap), cap, next: 0, pushed: 0 }
    }

    /// Append an event, overwriting the oldest once full.
    pub fn push(&mut self, e: SpanEvent) {
        if self.events.len() < self.cap {
            self.events.push(e);
        } else if let Some(slot) = self.events.get_mut(self.next) {
            *slot = e;
        }
        self.next = (self.next + 1) % self.cap;
        self.pushed += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever pushed, including overwritten ones.
    #[cfg(test)]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.pushed.saturating_sub(self.events.len() as u64)
    }

    /// Ring capacity (events retained once full).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Iterate the retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanEvent> {
        let split = if self.events.len() < self.cap { 0 } else { self.next };
        let (tail, head) = (
            self.events.get(split..).unwrap_or_default(),
            self.events.get(..split).unwrap_or_default(),
        );
        tail.iter().chain(head.iter())
    }

    /// Export as `{pushed, dropped, capacity, events: [...]}`.
    pub fn export(&self) -> Json {
        obj(vec![
            ("pushed", Json::Num(self.pushed as f64)),
            ("dropped", Json::Num(self.dropped() as f64)),
            ("capacity", Json::Num(self.cap as f64)),
            ("events", Json::Arr(self.iter().map(SpanEvent::export).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> SpanEvent {
        SpanEvent {
            seq,
            enter: SimTime(seq * 10),
            exit: SimTime(seq * 10 + 5),
            body: SpanBody::Request(Completion::new(
                ReqKind::Read,
                seq,
                HitClass::ReadHit,
                SimTime(5),
            )),
        }
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_drops() {
        let mut r = SpanRing::new(4);
        for s in 1..=10u64 {
            r.push(ev(s));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.dropped(), 6);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest-first, newest retained");
    }

    #[test]
    fn ring_below_capacity_drops_nothing() {
        let mut r = SpanRing::new(8);
        for s in 1..=3u64 {
            r.push(ev(s));
        }
        assert_eq!(r.dropped(), 0);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = SpanRing::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn background_spans_export_stage_name_as_class() {
        let mut stages = StageTimes::new();
        stages.add(Stage::ParityRmw, SimTime::from_micros(40));
        let e = SpanEvent {
            seq: 7,
            enter: SimTime(100),
            exit: SimTime(40_100),
            body: SpanBody::Background(BackgroundSpan {
                stage: Stage::CleanerPass,
                service: SimTime(40_000),
                stages,
            }),
        };
        let doc = e.export();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("background"));
        assert_eq!(doc.get("class").and_then(Json::as_str), Some("cleaner_pass"));
        assert_eq!(
            doc.get("stages").and_then(|s| s.get("parity_rmw")).and_then(Json::as_f64),
            Some(40_000.0)
        );
        assert!(doc.get("lba").is_none(), "background spans have no request fields");
    }
}
