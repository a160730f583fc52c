//! Content-tracking replay of the real-byte [`KddEngine`].
//!
//! Every harness that pushes a workload through the engine — `perfbench`'s
//! observability snapshot, `kddtool report`, the observability tests —
//! needs the same three things: write contents that are *mutations* of the
//! page's previous version (so the delta path is exercised), writes
//! submitted as group commits through [`KddEngine::write_batch`], and
//! reads checked against the last acknowledged version. `EngineDriver`
//! (crate-private) owns that loop; [`replay_engine`] feeds it a trace, one
//! group commit per write record.

use kdd_core::engine::{EngineError, KddEngine, WriteRequest};
use kdd_delta::content::PageMutator;
use kdd_trace::record::{Op, Trace};
use kdd_util::units::SimTime;
use std::collections::BTreeMap;

/// Results of one engine-backed replay ([`replay_engine`]).
#[derive(Debug, Clone)]
pub struct EngineReplayReport {
    /// Page operations issued (reads + writes).
    pub ops: u64,
    /// Group commits submitted through [`KddEngine::write_batch`].
    pub write_batches: u64,
    /// Summed simulated device time across all operations.
    pub device_time: SimTime,
    /// Reads whose content disagreed with the last version written. Always
    /// zero on a healthy engine; surfaced as data so callers can assert.
    pub read_mismatches: u64,
    /// Cache hit ratio over the run.
    pub hit_ratio: f64,
    /// SSD write amplification at the end of the run.
    pub waf: f64,
}

/// Drives page reads and writes into an engine while tracking content.
///
/// Writes queue in a pending group until [`submit`](Self::submit) hands
/// them to [`KddEngine::write_batch`] as one group commit; a read is a
/// barrier (the pending group is submitted first, preserving
/// read-after-write ordering) and is verified against the last
/// acknowledged version of its page. Addresses wrap at the array capacity.
pub(crate) struct EngineDriver<'e> {
    engine: &'e mut KddEngine,
    capacity: u64,
    mutator: PageMutator,
    /// Last acknowledged content per page.
    versions: BTreeMap<u64, Vec<u8>>,
    /// Queued, not yet acknowledged writes, in submission order.
    pending: Vec<(u64, Vec<u8>)>,
    ops: u64,
    write_batches: u64,
    read_mismatches: u64,
    device_time: SimTime,
}

impl<'e> EngineDriver<'e> {
    /// A driver over `engine` whose content stream is seeded by `seed`.
    pub(crate) fn new(engine: &'e mut KddEngine, seed: u64) -> Self {
        let capacity = engine.raid().capacity_pages();
        let mutator = PageMutator::new(engine.page_size(), 0.15, 64, seed ^ 0x9e37);
        EngineDriver {
            engine,
            capacity,
            mutator,
            versions: BTreeMap::new(),
            pending: Vec::new(),
            ops: 0,
            write_batches: 0,
            read_mismatches: 0,
            device_time: SimTime::ZERO,
        }
    }

    /// Queue a write of `page`: a seeded mutation of the newest version of
    /// the page — the one still pending if the page was rewritten inside
    /// this group (in-order dispatch persists exactly that), else the last
    /// acknowledged one.
    pub(crate) fn write(&mut self, page: u64) {
        let lba = page % self.capacity;
        let prev = self
            .pending
            .iter()
            .rev()
            .find(|(l, _)| *l == lba)
            .map(|(_, data)| data)
            .or_else(|| self.versions.get(&lba));
        let next = match prev {
            Some(prev) => self.mutator.mutate(prev),
            None => self.mutator.initial_page(),
        };
        self.pending.push((lba, next));
    }

    /// Submit the pending group as one group commit; on success its
    /// contents become the acknowledged versions.
    pub(crate) fn submit(&mut self) -> Result<(), EngineError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let reqs: Vec<WriteRequest<'_>> =
            self.pending.iter().map(|(lba, data)| WriteRequest { lba: *lba, data }).collect();
        for t in self.engine.write_batch(&reqs)? {
            self.device_time += *t;
        }
        self.write_batches += 1;
        self.ops += self.pending.len() as u64;
        self.versions.extend(self.pending.drain(..));
        Ok(())
    }

    /// Read `page` after submitting anything pending, and check it against
    /// the last acknowledged version (all zeros if never written).
    pub(crate) fn read(&mut self, page: u64) -> Result<(), EngineError> {
        self.submit()?;
        let lba = page % self.capacity;
        let (data, t) = self.engine.read(lba)?;
        self.device_time += t;
        self.ops += 1;
        let intact = match self.versions.get(&lba) {
            Some(expect) => *expect == data,
            None => data.iter().all(|&b| b == 0),
        };
        if !intact {
            self.read_mismatches += 1;
        }
        Ok(())
    }

    /// Submit anything still pending and report the run.
    pub(crate) fn finish(mut self) -> Result<EngineReplayReport, EngineError> {
        self.submit()?;
        Ok(EngineReplayReport {
            ops: self.ops,
            write_batches: self.write_batches,
            device_time: self.device_time,
            read_mismatches: self.read_mismatches,
            hit_ratio: self.engine.stats().hit_ratio(),
            waf: self.engine.ssd().endurance().waf(),
        })
    }
}

/// Replay a trace against the real-byte [`KddEngine`], submitting each
/// write record's pages as **one group commit** via
/// [`KddEngine::write_batch`] (one metalog flush covers the whole record,
/// mirroring how the kernel module would plug a multi-page bio into the
/// staging area).
///
/// Rewrites are seeded mutations of the previous content ([`PageMutator`])
/// so the delta-compression path is exercised; every read is verified
/// against the last version written to that address.
///
/// # Errors
/// Propagates any [`EngineError`] from the engine's read or write path.
pub fn replay_engine(
    engine: &mut KddEngine,
    trace: &Trace,
    seed: u64,
) -> Result<EngineReplayReport, EngineError> {
    let mut driver = EngineDriver::new(engine, seed);
    for rec in &trace.records {
        match rec.op {
            Op::Read => {
                for page in rec.pages() {
                    driver.read(page)?;
                }
            }
            Op::Write => {
                for page in rec.pages() {
                    driver.write(page);
                }
                driver.submit()?;
            }
        }
    }
    driver.finish()
}
