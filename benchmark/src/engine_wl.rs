//! The three engine workloads: a seeded request stream replayed through
//! `KddEngine` on real bytes, with every output checked.
//!
//! One call of [`run_rep`] is one repetition on a fresh engine:
//!
//! 1. set-up (host time → `setup_s`): generate the stream, build devices
//!    and engine (one segment), replay the first fifth of the requests as
//!    warm-up (one segment per chunk);
//! 2. timed region: the remaining requests in chunks of
//!    [`RECORDS_PER_CHUNK`]; page contents for a chunk are generated before
//!    its timer starts (a segment of set-up), reads are checked after it
//!    stops; the final `clean` + `flush` are timed segments too, and on the
//!    fault workload so are `recover_from_hdd_failure` (member failure +
//!    parity update + rebuild) and `power_cycle`;
//! 3. checking (not timed): `power_cycle` where it was not part of the
//!    scenario, a read-back of every acknowledged page, `verify_row` over
//!    every row.
//!
//! All counters are differences from the end of warm-up to the end of the
//! timed region.

use std::collections::BTreeMap;
use std::time::Instant;

use kdd_blockdev::ftl::EnduranceReport;
use kdd_blockdev::SsdDevice;
use kdd_cache::stats::CacheStats;
use kdd_cache::CacheGeometry;
use kdd_core::{KddConfig, KddEngine, WriteRequest};
use kdd_delta::xor::is_all_zero;
use kdd_obs::{Recorder, RecorderConfig, Stage};
use kdd_raid::{Layout, RaidArray, RaidLevel};
use kdd_trace::synth::PaperTrace;
use kdd_util::units::SimTime;

use crate::alloc;
use crate::calib::Calibrator;
use crate::inputs::{paper_stream, zipf_stream, ContentGen, ContentMix, Request, Stream, PAGE};
use crate::spans::{CounterSample, SpanLog, NONE};
use crate::spec::Profile;
use crate::stats::zip_cache_stats;
use crate::timing::{HostTimes, Segments};

/// Logical pages of the array under every engine workload.
pub const ARRAY_PAGES: u64 = 65_536;
/// Pages per RAID chunk (64 KiB).
pub const CHUNK_PAGES: u64 = 16;
/// Cache associativity.
pub const WAYS: u32 = 64;
/// Requests per timed chunk.
pub const RECORDS_PER_CHUNK: usize = 2048;
/// `(old, new)` page pairs kept from a traced replay for the delta probes.
pub const PAIR_CAP: usize = 2048;
/// Span-ring capacity of the recorder attached in a traced replay.
pub const RING_CAPACITY: usize = 4096;

/// Where a workload's requests come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// One of the paper's traces at `1/scale`.
    Paper {
        /// Which trace.
        trace: PaperTrace,
        /// Divisor of the Table I counts.
        scale: u64,
    },
    /// Zipf(1.0001) over `wss` pages, half reads, writes batched 16 deep.
    Zipf {
        /// Working-set size in pages.
        wss: u64,
        /// Page operations.
        ops: u64,
    },
}

/// One engine workload.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// RAID level of the array.
    pub level: RaidLevel,
    /// Member disks.
    pub disks: usize,
    /// Cache size in pages.
    pub cache_pages: u64,
    /// Over-provisioning of the SSD (spare share of its physical pages).
    pub ssd_op: f64,
    /// Request source.
    pub source: Source,
    /// Content model of rewrites.
    pub mix: ContentMix,
    /// Fail a member at 60 % of the requests and rebuild it.
    pub faults: bool,
}

impl EngineSpec {
    /// The spec of a workload by name, at a profile's sizes.
    #[must_use]
    pub fn by_name(name: &str, profile: Profile) -> Option<EngineSpec> {
        let smoke = profile == Profile::Smoke;
        // 10 % of Fin1's 19.9k pages, 13 % of Fin2's 16.2k pages. (The
        // engine allocates in bursts: some chunks of 2 048 requests make
        // ten times the allocations of others. With a 4 096-page cache the
        // bursts differ so much from seed to seed that allocations per
        // operation spread 19 % on Fin1 and 12 % on Fin2; with 2 048 pages,
        // 6 % and 4 %.)
        //
        // Over-provisioning: the SSD is cache + 64 pages, which
        // `with_logical_capacity` rounds to blocks of 128 pages, and the
        // FTL's collector wants `channels + 2` = 10 blocks free. The trace
        // workloads fill the cache, so the engine maps every page it owns:
        // at the 7 % the CLI uses such a device has nothing left to reclaim,
        // reports a persistent fault, and the engine swaps in an empty
        // spare (13 to 17 times per replay of Fin1 with a 4 096-page cache).
        // 25 % (32 blocks for 16.5 blocks' worth of pages) leaves the
        // collector room whatever the workload does. The Zipf workload maps
        // only its 3 072-page working set of a 4 160-page device, so it
        // runs at 7 % — a collector always short of space (WAF ≈ 4.7) is
        // what it is there to exercise. [`run_rep`] counts any swap as a
        // failure.
        let raid5 = |trace, scale: u64, cache_pages: u64| EngineSpec {
            level: RaidLevel::Raid5,
            disks: 5,
            cache_pages: if smoke { cache_pages / 8 } else { cache_pages },
            ssd_op: 0.25,
            source: Source::Paper { trace, scale: if smoke { scale * 8 } else { scale } },
            mix: ContentMix::Sparse,
            faults: false,
        };
        match name {
            "fin1_write_heavy" => Some(raid5(PaperTrace::Fin1, 50, 2048)),
            "fin2_read_heavy" => Some(raid5(PaperTrace::Fin2, 25, 2048)),
            "zipf_fit_raid6_faults" => Some(EngineSpec {
                level: RaidLevel::Raid6,
                disks: 6,
                cache_pages: if smoke { 512 } else { 4096 },
                ssd_op: 0.07,
                source: if smoke {
                    Source::Zipf { wss: 384, ops: 15_000 }
                } else {
                    Source::Zipf { wss: 3072, ops: 120_000 }
                },
                mix: ContentMix::Mixed,
                faults: true,
            }),
            _ => None,
        }
    }

    /// The array geometry.
    #[must_use]
    pub fn layout(&self) -> Layout {
        let data_disks = (self.disks - self.level.parity_count()) as u64;
        Layout::new(self.level, self.disks, CHUNK_PAGES, ARRAY_PAGES / data_disks)
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry { total_pages: self.cache_pages, ways: WAYS, page_size: PAGE as u32 }
    }

    /// A fresh SSD of the size the engine is given.
    #[must_use]
    pub fn ssd(&self) -> SsdDevice {
        let bytes = (self.cache_pages + 64) * PAGE as u64;
        SsdDevice::with_logical_capacity(bytes, PAGE as u32, self.ssd_op)
    }

    /// The request stream for a seed.
    #[must_use]
    pub fn stream(&self, seed: u64) -> Stream {
        match self.source {
            Source::Paper { trace, scale } => paper_stream(trace, scale, seed, ARRAY_PAGES),
            Source::Zipf { wss, ops } => zipf_stream(wss, ops, 0.5, 16, seed),
        }
    }

    fn engine(&self) -> KddEngine {
        let raid = RaidArray::new(self.layout(), PAGE as u32);
        KddEngine::new(KddConfig::new(self.geometry()), self.ssd(), raid)
            .expect("benchmark geometry is valid by construction")
    }
}

/// Public counters read from the engine at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    stats: CacheStats,
    disk_reads: u64,
    disk_writes: u64,
    end: EnduranceReport,
}

impl Counters {
    fn read(engine: &KddEngine) -> Counters {
        let disks = engine.raid().stats();
        Counters {
            stats: *engine.stats(),
            disk_reads: disks.iter().map(|d| d.reads).sum(),
            disk_writes: disks.iter().map(|d| d.writes).sum(),
            end: engine.ssd().endurance(),
        }
    }
}

/// What a repetition counted between the end of warm-up and the end of the
/// timed region, plus its simulated response times. Everything here must be
/// identical across repetitions of one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Det {
    /// Page operations in the timed region.
    pub ops: u64,
    /// Page writes among them.
    pub user_write_pages: u64,
    /// Sum of simulated response times, ns.
    pub sim_sum_ns: u64,
    /// 99th percentile of simulated response times, ns.
    pub sim_p99_ns: u64,
    /// 99.9th percentile, ns (the highest percentile with well over ten
    /// samples beyond it at these sizes).
    pub sim_p999_ns: u64,
    /// `CacheStats` difference over the timed region.
    pub stats: CacheStats,
    /// Member-disk page reads.
    pub disk_reads: u64,
    /// Member-disk page writes.
    pub disk_writes: u64,
    /// Bytes the engine wrote to the SSD.
    pub ssd_host_bytes: u64,
    /// Bytes the FTL programmed to NAND.
    pub ssd_nand_bytes: u64,
    /// Block erasures.
    pub erases: u64,
    /// Highest erase count of any block at the end.
    pub max_erase: u32,
    /// Allocation calls inside timed segments.
    pub allocs: u64,
    /// Bytes requested inside timed segments.
    pub alloc_bytes: u64,
    /// High-water mark of live heap bytes over the repetition.
    pub peak_bytes: u64,
    /// Operations whose output was checked (replay + read-back + rows).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Digest of the generated request stream.
    pub input_digest: u64,
}

/// Host-time detail only a traced repetition collects.
#[derive(Debug, Default)]
pub struct Traced {
    /// The span log.
    pub log: SpanLog,
    /// Host ns of each `read` call in the timed region.
    pub read_ns: Vec<u64>,
    /// Host ns per page of each `write_batch` call in the timed region.
    pub write_page_ns: Vec<u64>,
    /// `write_batch` calls in the timed region.
    pub write_batch_calls: u64,
    /// Host ns of all `write_batch` calls in the timed region.
    pub write_ns_total: u64,
    /// Host ns of each engine call that is a segment of its own, by span
    /// name (`core.clean`, `core.flush`, `core.power_cycle`,
    /// `core.recover_from_hdd_failure`).
    pub call_ns: BTreeMap<&'static str, u64>,
    /// Most rows with delayed parity seen after any call.
    pub pending_rows_peak: u64,
    /// Most staged deltas seen after any call.
    pub staged_deltas_peak: u64,
    /// Most stale rows seen after any call.
    pub stale_rows_peak: u64,
    /// Simulated ns attributed to each `kdd_obs::Stage`, in `Stage::ALL` order.
    pub stage_sum_ns: Vec<u64>,
    /// Spans charged to each stage, same order.
    pub stage_count: Vec<u64>,
    /// Spans the recorder's ring overwrote.
    pub ring_dropped: u64,
    /// Logical SSD pages mapped at the end of the timed region.
    pub ssd_mapped_pages: u64,
    /// Host ns spent generating the stream, and its request count.
    pub gen_ns: u64,
    /// Requests generated.
    pub gen_records: u64,
    /// Host ns spent generating page contents, and the pages generated.
    pub content_ns: u64,
    /// Pages generated.
    pub content_pages: u64,
    /// Page addresses of the timed region, in order.
    pub lbas: Vec<u64>,
    /// `(previous version, new version)` of rewrites, up to [`PAIR_CAP`].
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
}

/// One repetition's result.
#[derive(Debug)]
pub struct Rep {
    /// Set-up (stream + contents + construction + warm-up) and the timed
    /// segments, on the host clock.
    pub host: HostTimes,
    /// Counts and simulated times.
    pub det: Det,
    /// Present on a traced repetition.
    pub traced: Option<Traced>,
}

/// What a read is expected to return.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Never written: zeros.
    Unwritten,
    /// The version store's page.
    Store,
    /// A payload written earlier in the same chunk.
    Payload(u32),
}

/// One chunk, prepared outside the timed region.
struct Prepared {
    /// `(request index, request)` in order.
    reqs: Vec<(u32, Request)>,
    /// Address of each read and what it should see, in read order.
    reads: Vec<(u64, Expect)>,
    /// Address and payload of each page write, in write order.
    wlbas: Vec<u64>,
    payloads: Vec<Vec<u8>>,
}

/// Outputs of one executed chunk.
struct Executed {
    /// Page returned by each read (empty on error).
    got: Vec<Vec<u8>>,
    /// Simulated ns of each successful page operation.
    times: Vec<u64>,
    /// Page operations that returned an error.
    errors: u64,
    /// First payload index of each failed write batch, with its length.
    failed_writes: Vec<(u32, u32)>,
}

struct Replay<'a> {
    cal: &'a mut Calibrator,
    stream: &'a Stream,
    engine: KddEngine,
    store: Vec<Option<Vec<u8>>>,
    content: ContentGen,
    segs: Segments,
    sim_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    timed_ops: u64,
    timed_write_pages: u64,
    traced: Option<Traced>,
}

impl Replay<'_> {
    /// Build the chunk's operations and write payloads from the current
    /// version store: a segment of set-up.
    fn prepare(&mut self, range: std::ops::Range<usize>) -> Prepared {
        let Replay { cal, segs, stream, store, content, traced, .. } = self;
        let (p, t0, t1) = segs.setup(cal, || {
            let n = range.len();
            let mut p = Prepared {
                reqs: Vec::with_capacity(n),
                reads: Vec::with_capacity(n),
                wlbas: Vec::new(),
                payloads: Vec::new(),
            };
            // Latest payload of a page written earlier in this chunk.
            let mut in_chunk: BTreeMap<u64, u32> = BTreeMap::new();
            for i in range {
                let r = stream.requests[i];
                p.reqs.push((i as u32, r));
                for &lba in stream.pages(&r) {
                    let earlier = in_chunk.get(&lba).copied();
                    if r.is_read {
                        let expect = match earlier {
                            Some(idx) => Expect::Payload(idx),
                            None if store[lba as usize].is_some() => Expect::Store,
                            None => Expect::Unwritten,
                        };
                        p.reads.push((lba, expect));
                    } else {
                        let prev = match earlier {
                            Some(idx) => Some(p.payloads[idx as usize].as_slice()),
                            None => store[lba as usize].as_deref(),
                        };
                        let next = content.next(prev);
                        in_chunk.insert(lba, p.payloads.len() as u32);
                        p.wlbas.push(lba);
                        p.payloads.push(next);
                    }
                }
            }
            p
        });
        if let Some(tr) = traced {
            tr.content_ns += t1.duration_since(t0).as_nanos() as u64;
            tr.content_pages += p.payloads.len() as u64;
            tr.log.leaf(NONE, NONE, "delta.content_gen", "delta", t0, t1);
        }
        p
    }

    /// Issue the chunk's requests, as a timed segment or (warm-up) as one
    /// of set-up. It pushes into pre-sized buffers only, so its own
    /// allocations are zero.
    fn execute(&mut self, p: &Prepared, timed: bool) -> Executed {
        let reqs: Vec<WriteRequest<'_>> = p
            .wlbas
            .iter()
            .zip(&p.payloads)
            .map(|(&lba, data)| WriteRequest { lba, data })
            .collect();
        let mut out = Executed {
            got: Vec::with_capacity(p.reads.len()),
            times: Vec::with_capacity(p.reads.len() + p.wlbas.len()),
            errors: 0,
            failed_writes: Vec::with_capacity(p.reqs.len()),
        };
        let chunk_span = self.traced.as_mut().map_or(NONE, |tr| tr.log.open());
        let Replay { cal, engine, traced, stream, segs, .. } = self;
        let mut body = || {
            let mut w = 0usize;
            for &(idx, r) in &p.reqs {
                let c0 = traced.is_some().then(Instant::now);
                if r.is_read {
                    match engine.read(stream.lbas[r.first as usize]) {
                        Ok((data, t)) => {
                            out.got.push(data);
                            out.times.push(t.as_nanos());
                        }
                        Err(_) => {
                            out.got.push(Vec::new());
                            out.errors += 1;
                        }
                    }
                } else {
                    let len = r.len as usize;
                    match engine.write_batch(&reqs[w..w + len]) {
                        Ok(ts) => out.times.extend(ts.iter().map(|t| t.as_nanos())),
                        Err(_) => {
                            out.errors += u64::from(r.len);
                            out.failed_writes.push((w as u32, r.len));
                        }
                    }
                    w += len;
                }
                if let (Some(c0), Some(tr)) = (c0, traced.as_mut()) {
                    tr.after_call(engine, chunk_span, idx, r, c0, timed);
                }
            }
        };
        let ((), t0, t1) =
            if timed { segs.run(cal, &mut body) } else { segs.setup(cal, &mut body) };
        if let Some(tr) = traced {
            tr.log.close(chunk_span, NONE, NONE, "harness.chunk", "harness", t0, t1);
            let c = Counters::read(engine);
            tr.log.sample(CounterSample {
                at_ns: 0,
                requests: c.stats.requests(),
                hits: c.stats.read_hits + c.stats.write_hits,
                ssd_pages: c.stats.ssd_writes_pages(),
                disk_ios: c.disk_reads + c.disk_writes,
                pending_rows: engine.pending_row_count() as u64,
                staged_deltas: engine.staged_deltas() as u64,
            });
        }
        out
    }

    /// Check the chunk's reads and fold its acknowledged writes into the
    /// version store. Not timed.
    fn settle(&mut self, p: Prepared, out: Executed, timed: bool) {
        let ops = (p.reads.len() + p.wlbas.len()) as u64;
        self.attempted += ops;
        self.failed += out.errors;
        for (got, &(lba, expect)) in out.got.iter().zip(&p.reads) {
            if got.is_empty() {
                continue; // already counted as an error
            }
            let ok = match expect {
                Expect::Unwritten => is_all_zero(got),
                Expect::Payload(idx) => got == &p.payloads[idx as usize],
                Expect::Store => Some(got.as_slice()) == self.store[lba as usize].as_deref(),
            };
            if !ok {
                self.failed += 1;
            }
        }
        if timed {
            self.timed_ops += ops;
            self.timed_write_pages += p.wlbas.len() as u64;
            self.sim_ns.extend_from_slice(&out.times);
            if let Some(tr) = &mut self.traced {
                for &(_, r) in &p.reqs {
                    tr.lbas.extend_from_slice(self.stream.pages(&r));
                }
            }
        }
        let lost = |i: usize| {
            out.failed_writes.iter().any(|&(first, len)| (first..first + len).contains(&(i as u32)))
        };
        for (i, (lba, payload)) in p.wlbas.iter().zip(p.payloads).enumerate() {
            if lost(i) {
                continue;
            }
            let slot = &mut self.store[*lba as usize];
            if let (Some(tr), Some(old)) = (self.traced.as_mut(), slot.as_ref()) {
                if timed && tr.pairs.len() < PAIR_CAP {
                    tr.pairs.push((old.clone(), payload.clone()));
                }
            }
            *slot = Some(payload);
        }
    }

    /// Replay `range` in chunks.
    fn replay(&mut self, range: std::ops::Range<usize>, timed: bool) {
        let mut at = range.start;
        while at < range.end {
            let end = (at + RECORDS_PER_CHUNK).min(range.end);
            let p = self.prepare(at..end);
            let out = self.execute(&p, timed);
            self.settle(p, out, timed);
            at = end;
        }
    }

    /// Run one engine call as a timed segment of its own. A failure counts
    /// as one failed operation.
    fn segment<T, E>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut KddEngine) -> Result<T, E>,
    ) {
        self.attempted += 1;
        let engine = &mut self.engine;
        let (result, t0, t1) = self.segs.run(self.cal, || f(engine));
        if result.is_err() {
            self.failed += 1;
        }
        if let Some(tr) = &mut self.traced {
            tr.log.leaf(NONE, NONE, name, layer, t0, t1);
            tr.call_ns.insert(name, t1.duration_since(t0).as_nanos() as u64);
        }
    }
}

impl Traced {
    /// Book-keeping after one engine call of a traced replay: its span, its
    /// host time, and the gauges' high-water marks.
    fn after_call(
        &mut self,
        engine: &KddEngine,
        chunk_span: u32,
        idx: u32,
        r: Request,
        c0: Instant,
        timed: bool,
    ) {
        let c1 = Instant::now();
        let ns = c1.duration_since(c0).as_nanos() as u64;
        let name = if r.is_read { "core.read" } else { "core.write_batch" };
        self.log.leaf(chunk_span, idx, name, "core", c0, c1);
        if timed {
            if r.is_read {
                self.read_ns.push(ns);
            } else {
                self.write_page_ns.push(ns / u64::from(r.len));
                self.write_batch_calls += 1;
                self.write_ns_total += ns;
            }
        }
        self.pending_rows_peak = self.pending_rows_peak.max(engine.pending_row_count() as u64);
        self.staged_deltas_peak = self.staged_deltas_peak.max(engine.staged_deltas() as u64);
        self.stale_rows_peak = self.stale_rows_peak.max(engine.raid().stale_row_count() as u64);
    }
}

/// Run one repetition of `spec` on the inputs of `seed`.
#[must_use]
pub fn run_rep(spec: &EngineSpec, seed: u64, traced: bool, cal: &mut Calibrator) -> Rep {
    cal.reset();
    alloc::reset_peak();
    let live0 = alloc::snapshot().live;

    // ---- set-up ---------------------------------------------------------
    let mut segs = Segments::default();
    let ((stream, engine, store, gen_ns), _, _) = segs.setup(cal, || {
        let t_gen = Instant::now();
        let stream = spec.stream(seed);
        let gen_ns = t_gen.elapsed().as_nanos() as u64;
        let mut engine = spec.engine();
        if traced {
            engine.attach_recorder(Recorder::new(RecorderConfig {
                sample_interval: SimTime::from_secs(60),
                ring_capacity: RING_CAPACITY,
            }));
        }
        let store: Vec<Option<Vec<u8>>> = vec![None; ARRAY_PAGES as usize];
        (stream, engine, store, gen_ns)
    });

    let n = stream.requests.len();
    let warm = n / 5;
    let mut rp = Replay {
        cal,
        stream: &stream,
        engine,
        store,
        content: ContentGen::new(spec.mix, seed),
        segs,
        sim_ns: Vec::with_capacity(stream.lbas.len()),
        attempted: 0,
        failed: 0,
        timed_ops: 0,
        timed_write_pages: 0,
        traced: traced.then(|| Traced {
            gen_ns,
            gen_records: n as u64,
            lbas: Vec::with_capacity(stream.lbas.len()),
            ..Traced::default()
        }),
    };
    rp.replay(0..warm, false);
    let base = Counters::read(&rp.engine);

    // ---- timed region ---------------------------------------------------
    if spec.faults {
        // Disk 1 holds data and, on rotating stripes, P and Q. The member
        // fails and is rebuilt in one step, as §III-E2 prescribes (parity
        // of every stale row is updated first, then the array rebuilds):
        // between a member failure and that repair the engine is inside
        // the paper's window of vulnerability and refuses requests that
        // touch a stale row, so no request is issued there.
        let disk = 1;
        let fail_at = n * 6 / 10;
        rp.replay(warm..fail_at, true);
        rp.segment("core.recover_from_hdd_failure", "core", |e| e.recover_from_hdd_failure(disk));
        rp.replay(fail_at..n, true);
    } else {
        rp.replay(warm..n, true);
    }
    rp.segment("core.clean", "core", |e| {
        let mut t = SimTime::ZERO;
        e.clean(&mut t)
    });
    rp.segment("core.flush", "core", KddEngine::flush);
    let end = Counters::read(&rp.engine);
    if let Some(tr) = &mut rp.traced {
        read_stage_table(&rp.engine, tr);
        let ssd = rp.engine.ssd();
        tr.ssd_mapped_pages =
            (0..ssd.capacity_pages()).filter(|&l| ssd.is_mapped(l)).count() as u64;
    }

    // ---- power cycle: timed on the fault workload, a check elsewhere ----
    let Replay {
        cal,
        engine,
        store,
        mut segs,
        mut traced,
        mut attempted,
        mut failed,
        mut sim_ns,
        timed_ops,
        timed_write_pages,
        ..
    } = rp;
    // No SSD fault is injected, so a fallback means the device gave out
    // under the workload and the engine went on with an empty spare:
    // every count after that describes another system (and the counter
    // differences below would run backwards, hence `saturating_sub`).
    attempted += 1;
    failed += end.stats.fault_fallbacks;
    attempted += 1; // the power cycle
    let (cycled, t0, t1) = if spec.faults {
        segs.run(cal, || engine.power_cycle())
    } else {
        let t0 = Instant::now();
        let cycled = engine.power_cycle();
        (cycled, t0, Instant::now())
    };
    if let Some(tr) = &mut traced {
        tr.call_ns.insert("core.power_cycle", t1.duration_since(t0).as_nanos() as u64);
        tr.log.leaf(NONE, NONE, "core.power_cycle", "core", t0, t1);
    }
    let peak_bytes = alloc::snapshot().peak.saturating_sub(live0);

    // ---- checking (not timed) -------------------------------------------
    match cycled {
        Err(_) => {
            // Nothing can be read back: every acknowledged page is missing.
            let pages = store.iter().flatten().count() as u64;
            attempted += pages;
            failed += pages + 1;
        }
        Ok(mut engine) => {
            for (lba, page) in store.iter().enumerate() {
                let Some(page) = page else { continue };
                attempted += 1;
                match engine.read(lba as u64) {
                    Ok((data, _)) if &data == page => {}
                    _ => failed += 1,
                }
            }
            for row in 0..spec.layout().rows() {
                attempted += 1;
                if !matches!(engine.raid_mut().verify_row(row), Ok(true)) {
                    failed += 1;
                }
            }
        }
    }

    // ---- fold -----------------------------------------------------------
    let sim_sum_ns = sim_ns.iter().sum();
    sim_ns.sort_unstable();
    let det = Det {
        ops: timed_ops,
        user_write_pages: timed_write_pages,
        sim_sum_ns,
        sim_p99_ns: sim_ns.get(sim_ns.len() * 99 / 100).copied().unwrap_or(0),
        sim_p999_ns: sim_ns.get(sim_ns.len() * 999 / 1000).copied().unwrap_or(0),
        stats: zip_cache_stats(&end.stats, &base.stats, u64::saturating_sub),
        disk_reads: end.disk_reads.saturating_sub(base.disk_reads),
        disk_writes: end.disk_writes.saturating_sub(base.disk_writes),
        ssd_host_bytes: end.end.host_written_bytes.saturating_sub(base.end.host_written_bytes),
        ssd_nand_bytes: end.end.nand_written_bytes.saturating_sub(base.end.nand_written_bytes),
        erases: end.end.erases.saturating_sub(base.end.erases),
        max_erase: end.end.max_erase_count,
        allocs: segs.alloc_calls,
        alloc_bytes: segs.alloc_bytes,
        peak_bytes,
        attempted,
        failed,
        input_digest: stream.digest(),
    };
    Rep { host: segs.finish(cal.drift(0..cal.kept())), det, traced }
}

/// Pull the simulated-time stage table and the ring's drop count out of
/// the recorder's snapshot.
fn read_stage_table(engine: &KddEngine, tr: &mut Traced) {
    let Some(doc) = engine.obs_snapshot() else { return };
    let num = |j: Option<&kdd_obs::Json>| j.and_then(kdd_obs::Json::as_f64).unwrap_or(0.0) as u64;
    for stage in Stage::ALL {
        let entry = doc.get("stages").and_then(|s| s.get(stage.as_str()));
        tr.stage_sum_ns.push(num(entry.and_then(|e| e.get("sum"))));
        tr.stage_count.push(num(entry.and_then(|e| e.get("count"))));
    }
    tr.ring_dropped = num(doc.get("spans").and_then(|s| s.get("dropped")));
}
