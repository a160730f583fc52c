//! Sparse in-memory page stores.
//!
//! A 5-disk RAID over 1 TB drives cannot be materialised as flat buffers;
//! [`MemStore`] keeps only pages that were ever written in a hash map and
//! reads unwritten pages as zeros — exactly what a fresh disk returns.
//!
//! "Unwritten" is a property callers may rely on, not only a saving of
//! this module: [`MemStore::is_resident`] is `false` exactly for the pages
//! that read as zeros *because nothing is stored* (never written, trimmed,
//! or on a replaced device), so a reader that would only XOR such a page
//! into something — the RAID reconstruction solver — can account the read
//! and skip the bytes. A page that was written with zeros is resident and
//! is read like any other.
//!
//! Page bytes live in a slab carved `SLAB_PAGES` (16) pages to a chunk; a
//! trimmed page's slot is handed to the next page that becomes resident.
//! A store whose pages come and go (the SSD cache) stops calling the
//! allocator once warm, one that only grows (a RAID member) calls it once
//! per chunk, and no slab outgrows the most pages ever resident at once by
//! a whole chunk.

use crate::error::{DevError, FaultDomain};
use crate::fault::{apply_read_outcome, apply_write_outcome, FaultInjector, IoDir, IoOutcome};
use kdd_util::hash::FastMap;

/// Pages per slab chunk.
const SLAB_PAGES: usize = 16;

/// Page slots carved from fixed-size chunks, with a free list of the slots
/// whose pages were trimmed. Slot `s` is page `s % SLAB_PAGES` of chunk
/// `s / SLAB_PAGES`.
#[derive(Debug, Clone)]
struct Slab {
    page_size: usize,
    chunks: Vec<Box<[u8]>>,
    /// Slots ever handed out: each is resident or on `free`.
    carved: u32,
    /// Slots of trimmed pages. Their old contents never show: a reused slot
    /// is overwritten whole or zeroed first.
    free: Vec<u32>,
}

// Every slot below `carved` lies inside `chunks`.
#[allow(clippy::indexing_slicing)]
impl Slab {
    fn new(page_size: usize) -> Self {
        Slab { page_size, chunks: Vec::new(), carved: 0, free: Vec::new() }
    }

    /// A slot for a page becoming resident: a freed one when there is one
    /// (zeroed first when `zero`), else the next never-used one, which is
    /// zero already.
    fn carve(&mut self, zero: bool) -> u32 {
        if let Some(slot) = self.free.pop() {
            if zero {
                self.page_mut(slot).fill(0);
            }
            return slot;
        }
        if self.carved as usize == self.chunks.len() * SLAB_PAGES {
            self.chunks.push(vec![0u8; SLAB_PAGES * self.page_size].into_boxed_slice());
        }
        self.carved += 1;
        self.carved - 1
    }

    fn page(&self, slot: u32) -> &[u8] {
        let at = slot as usize % SLAB_PAGES * self.page_size;
        &self.chunks[slot as usize / SLAB_PAGES][at..at + self.page_size]
    }

    fn page_mut(&mut self, slot: u32) -> &mut [u8] {
        let at = slot as usize % SLAB_PAGES * self.page_size;
        &mut self.chunks[slot as usize / SLAB_PAGES][at..at + self.page_size]
    }
}

/// Page-granular storage of actual contents.
pub trait PageStore {
    /// Page size in bytes.
    fn page_size(&self) -> u32;

    /// Capacity in pages.
    fn capacity_pages(&self) -> u64;

    /// Read page `lpn` into `buf` (`buf.len() == page_size`).
    fn read_page(&self, lpn: u64, buf: &mut [u8]) -> Result<(), DevError>;

    /// Write `data` (`data.len() == page_size`) to page `lpn`.
    fn write_page(&mut self, lpn: u64, data: &[u8]) -> Result<(), DevError>;

    /// Discard page `lpn` (it reads back as zeros).
    fn trim_page(&mut self, lpn: u64) -> Result<(), DevError>;
}

/// Sparse in-memory page store; unwritten pages read as zeros.
#[derive(Debug, Clone)]
pub struct MemStore {
    page_size: u32,
    capacity_pages: u64,
    /// Each resident page's slot in `slab`.
    pages: FastMap<u64, u32>,
    slab: Slab,
    failed: bool,
    injector: Option<FaultInjector>,
    domain: FaultDomain,
    /// What [`MemStore::page`] lends when it cannot lend a resident page:
    /// zeros for an unwritten one, a private copy under fault injection.
    /// Sized on first use.
    scratch: Vec<u8>,
}

impl MemStore {
    /// Create a store of `capacity_pages` pages of `page_size` bytes.
    pub fn new(capacity_pages: u64, page_size: u32) -> Self {
        assert!(page_size > 0 && capacity_pages > 0);
        MemStore {
            page_size,
            capacity_pages,
            pages: FastMap::default(),
            slab: Slab::new(page_size as usize),
            failed: false,
            injector: None,
            domain: FaultDomain::Unknown,
            scratch: Vec::new(),
        }
    }

    /// Route every I/O through `injector`, identifying this store as `domain`.
    pub fn attach_injector(&mut self, injector: FaultInjector, domain: FaultDomain) {
        self.injector = Some(injector);
        self.domain = domain;
    }

    /// The fault domain this store reports itself as.
    pub fn domain(&self) -> FaultDomain {
        self.domain
    }

    fn intercept(&self, dir: IoDir) -> IoOutcome {
        match &self.injector {
            Some(inj) => inj.begin_io(self.domain, dir),
            None => IoOutcome::Proceed,
        }
    }

    /// Inject a permanent device failure: all subsequent I/O errors.
    pub fn fail(&mut self) {
        self.failed = true;
        self.drop_pages(); // a failed disk's contents are gone
    }

    /// Whether the device has been failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Replace a failed device with a fresh (zeroed) one of the same shape.
    pub fn replace(&mut self) {
        self.failed = false;
        self.drop_pages();
    }

    /// Forget every page, resident or freed, and the slab holding them.
    fn drop_pages(&mut self) {
        self.pages.clear();
        self.slab = Slab::new(self.page_size as usize);
    }

    /// Number of pages that have ever been written (resident set).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// `lpn`'s slot, carving one if the page is not resident (see
    /// [`Slab::carve`] for `zero`).
    fn resident_slot(&mut self, lpn: u64, zero: bool) -> u32 {
        *self.pages.entry(lpn).or_insert_with(|| self.slab.carve(zero))
    }

    /// Whether page `lpn` holds stored bytes. `false` means it reads as
    /// zeros because it was never written (or was trimmed, or the device
    /// was failed or replaced since) — not merely that it contains zeros.
    pub fn is_resident(&self, lpn: u64) -> bool {
        self.pages.contains_key(&lpn)
    }

    /// Lend page `lpn` for reading (an unwritten page reads as zeros).
    ///
    /// Without a [`FaultInjector`] the resident page itself is lent and
    /// nothing is copied. With one attached the call is
    /// [`PageStore::read_page`] into a private buffer, so corruption and
    /// failure outcomes, the device's op order and the injector's
    /// `op_count` are exactly those of the copying read.
    pub fn page(&mut self, lpn: u64) -> Result<&[u8], DevError> {
        if self.injector.is_none() {
            self.check(lpn)?;
            return Ok(match self.pages.get(&lpn) {
                Some(&slot) => self.slab.page(slot),
                None => {
                    self.scratch.clear();
                    self.scratch.resize(self.page_size as usize, 0);
                    &self.scratch
                }
            });
        }
        let mut buf = std::mem::take(&mut self.scratch);
        buf.resize(self.page_size as usize, 0);
        let read = self.read_page(lpn, &mut buf);
        self.scratch = buf;
        read.map(|()| self.scratch.as_slice())
    }

    /// Read-modify-write page `lpn` through `f`, in place when the page is
    /// resident (an unwritten page starts as zeros and becomes resident).
    ///
    /// The same rule as [`MemStore::page`]: with a [`FaultInjector`]
    /// attached this is [`PageStore::read_page`], `f` on a private buffer,
    /// then [`PageStore::write_page`] — two device ops that can fail, tear
    /// or corrupt as before.
    pub fn update_page<R>(
        &mut self,
        lpn: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, DevError> {
        if self.injector.is_none() {
            self.check(lpn)?;
            let slot = self.resident_slot(lpn, true);
            return Ok(f(self.slab.page_mut(slot)));
        }
        let mut buf = std::mem::take(&mut self.scratch);
        buf.resize(self.page_size as usize, 0);
        let done = self.read_page(lpn, &mut buf).and_then(|()| {
            let out = f(&mut buf);
            self.write_page(lpn, &buf).map(|()| out)
        });
        self.scratch = buf;
        done
    }

    fn check(&self, lpn: u64) -> Result<(), DevError> {
        if self.failed {
            return Err(DevError::failed(self.domain));
        }
        if lpn >= self.capacity_pages {
            return Err(DevError::OutOfRange { lpn, capacity: self.capacity_pages });
        }
        Ok(())
    }
}

impl PageStore for MemStore {
    fn page_size(&self) -> u32 {
        self.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    fn read_page(&self, lpn: u64, buf: &mut [u8]) -> Result<(), DevError> {
        self.check(lpn)?;
        assert_eq!(buf.len(), self.page_size as usize, "buffer/page size mismatch");
        let outcome = self.intercept(IoDir::Read);
        match self.pages.get(&lpn) {
            Some(&slot) => buf.copy_from_slice(self.slab.page(slot)),
            None => buf.fill(0),
        }
        apply_read_outcome(outcome, buf)
    }

    fn write_page(&mut self, lpn: u64, data: &[u8]) -> Result<(), DevError> {
        self.check(lpn)?;
        assert_eq!(data.len(), self.page_size as usize, "buffer/page size mismatch");
        if self.injector.is_none() {
            // Fast path: without an injector no write can be torn or failed,
            // so the previous-content snapshot is unnecessary and the page
            // is overwritten in place.
            let slot = self.resident_slot(lpn, false);
            self.slab.page_mut(slot).copy_from_slice(data);
            return Ok(());
        }
        let outcome = self.intercept(IoDir::Write);
        // Torn-write emulation needs the pre-image; this
        // runs only under fault injection, never on the hot path.
        let mut previous = vec![0u8; self.page_size as usize];
        if let Some(&slot) = self.pages.get(&lpn) {
            previous.copy_from_slice(self.slab.page(slot));
        }
        let mangled = apply_write_outcome(outcome, data, &previous)?;
        let slot = self.resident_slot(lpn, false);
        self.slab.page_mut(slot).copy_from_slice(mangled.as_deref().unwrap_or(data));
        Ok(())
    }

    fn trim_page(&mut self, lpn: u64) -> Result<(), DevError> {
        self.check(lpn)?;
        if let IoOutcome::Fail(e) = self.intercept(IoDir::Write) {
            return Err(e);
        }
        if let Some(slot) = self.pages.remove(&lpn) {
            self.slab.free.push(slot);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pages_read_zero() {
        let s = MemStore::new(16, 512);
        let mut buf = vec![0xffu8; 512];
        s.read_page(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = MemStore::new(16, 512);
        let data = vec![0xabu8; 512];
        s.write_page(7, &data).unwrap();
        let mut buf = vec![0u8; 512];
        s.read_page(7, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn trim_restores_zero() {
        let mut s = MemStore::new(4, 64);
        s.write_page(0, &[1u8; 64]).unwrap();
        s.trim_page(0).unwrap();
        let mut buf = vec![9u8; 64];
        s.read_page(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn recycled_page_never_shows_stale_bytes() {
        let mut s = MemStore::new(4, 64);
        let mut buf = vec![0u8; 64];
        // Trim parks the buffer; every way a page becomes resident again
        // must hide what it held.
        for round in 0..3u8 {
            s.write_page(0, &[0xA0 | round; 64]).unwrap();
            assert!(s.is_resident(0));
            s.trim_page(0).unwrap();
            assert!(!s.is_resident(0));
            assert_eq!(s.resident_pages(), 0);
            s.read_page(0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0), "a trimmed page reads zeros");
            assert!(s.page(0).unwrap().iter().all(|&b| b == 0));
            // A read-modify-write of another page starts from zeros ...
            let seen = s.update_page(1, |p| p.to_vec()).unwrap();
            assert!(seen.iter().all(|&b| b == 0), "round {round}: update saw stale bytes");
            s.read_page(1, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0));
            s.trim_page(1).unwrap();
            // ... and a rewrite is the new bytes only.
            s.write_page(2, &[round; 64]).unwrap();
            s.read_page(2, &mut buf).unwrap();
            assert_eq!(buf, [round; 64]);
            s.trim_page(2).unwrap();
        }
        // A failed or replaced device keeps nothing, parked or not.
        s.write_page(3, &[0xEE; 64]).unwrap();
        s.trim_page(3).unwrap();
        s.fail();
        s.replace();
        assert_eq!(s.update_page(3, |p| p.to_vec()).unwrap(), vec![0u8; 64]);
        assert!(s.is_resident(3) && !s.is_resident(0));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = MemStore::new(4, 64);
        let mut buf = vec![0u8; 64];
        assert!(matches!(s.read_page(4, &mut buf), Err(DevError::OutOfRange { .. })));
        assert!(matches!(s.write_page(100, &buf), Err(DevError::OutOfRange { .. })));
    }

    #[test]
    fn failure_injection() {
        let mut s = MemStore::new(4, 64);
        s.write_page(1, &[5u8; 64]).unwrap();
        s.fail();
        assert!(s.is_failed());
        let mut buf = vec![0u8; 64];
        assert_eq!(s.read_page(1, &mut buf), Err(DevError::failed(FaultDomain::Unknown)));
        assert_eq!(s.write_page(1, &buf), Err(DevError::failed(FaultDomain::Unknown)));
        s.replace();
        assert!(!s.is_failed());
        s.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "replacement disk must be empty");
    }

    #[test]
    fn injector_gates_io() {
        use crate::fault::FaultPlan;
        // op 0: transient write failure; op 2: torn write keeping 2 new bytes.
        let inj =
            FaultInjector::new(FaultPlan::new().transient(0, FaultDomain::Disk(1)).torn_write(
                2,
                FaultDomain::Disk(1),
                2,
            ));
        let mut s = MemStore::new(8, 4);
        s.attach_injector(inj.clone(), FaultDomain::Disk(1));
        assert_eq!(s.domain(), FaultDomain::Disk(1));

        let err = s.write_page(0, &[7u8; 4]).unwrap_err();
        assert!(err.is_transient());
        s.write_page(0, &[1, 2, 3, 4]).unwrap(); // op 1: proceeds
        s.write_page(0, &[9, 9, 9, 9]).unwrap(); // op 2: torn after 2 bytes

        let mut buf = [0u8; 4];
        s.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [9, 9, 3, 4], "torn write keeps the old suffix");
        assert_eq!(inj.counters().torn_writes, 1);
        assert_eq!(inj.op_count(), 4);
    }

    /// `page` and `update_page` against `read_page` / `write_page` on a
    /// twin store, one call at a time; `injected` runs the borrowed side
    /// behind an empty-plan injector (the copying path).
    fn borrowed_access_matches_copying(injected: bool) {
        let mut lent = MemStore::new(8, 16);
        let mut copied = MemStore::new(8, 16);
        let injector = FaultInjector::none();
        if injected {
            lent.attach_injector(injector.clone(), FaultDomain::Unknown);
        }
        let fold = |page: &mut [u8], tag: u8| {
            for (b, i) in page.iter_mut().zip(0u8..) {
                *b ^= tag.wrapping_add(i);
            }
        };
        let check = |lent: &mut MemStore, copied: &MemStore, lpn: u64| {
            let mut buf = [0u8; 16];
            let expect = copied.read_page(lpn, &mut buf).map(|()| buf.to_vec());
            assert_eq!(lent.page(lpn).map(<[u8]>::to_vec), expect, "page {lpn}");
        };
        let mut buf = [0u8; 16];
        // Unwritten, then updated from zeros, then updated while resident.
        check(&mut lent, &copied, 3);
        for tag in [0x11, 0x5A] {
            assert_eq!(lent.update_page(3, |p| fold(p, tag)), Ok(()));
            copied.read_page(3, &mut buf).unwrap();
            fold(&mut buf, tag);
            copied.write_page(3, &buf).unwrap();
            check(&mut lent, &copied, 3);
        }
        assert_eq!(lent.resident_pages(), copied.resident_pages());
        // Written by the copying call, lent back; a neighbour stays zero.
        lent.write_page(5, &[7u8; 16]).unwrap();
        copied.write_page(5, &[7u8; 16]).unwrap();
        check(&mut lent, &copied, 5);
        check(&mut lent, &copied, 4);
        // Trimmed: zeros again, and an update re-materialises it.
        lent.trim_page(3).unwrap();
        copied.trim_page(3).unwrap();
        check(&mut lent, &copied, 3);
        assert_eq!(lent.update_page(3, |p| p.fill(9)), Ok(()));
        copied.write_page(3, &[9u8; 16]).unwrap();
        check(&mut lent, &copied, 3);
        // Out of range and failed devices refuse both forms, untouched.
        check(&mut lent, &copied, 8);
        assert!(matches!(lent.update_page(8, |_| ()), Err(DevError::OutOfRange { .. })));
        lent.fail();
        copied.fail();
        check(&mut lent, &copied, 5);
        assert_eq!(lent.update_page(5, |_| ()), Err(DevError::failed(lent.domain())));
        // One device op per lend, two per update — or none at all.
        assert_eq!(injector.op_count(), if injected { 15 } else { 0 });
    }

    #[test]
    fn borrowed_access_matches_copying_in_place() {
        borrowed_access_matches_copying(false);
    }

    #[test]
    fn borrowed_access_matches_copying_under_an_injector() {
        borrowed_access_matches_copying(true);
    }

    #[test]
    fn borrowed_access_sees_injected_faults() {
        use crate::fault::FaultPlan;
        // op 1: corrupt read; op 3 (the write half of an update): torn
        // after 2 bytes; op 4: transient failure of an update's read.
        let plan = FaultPlan::new()
            .corrupt(1, FaultDomain::Disk(1), 0, 1)
            .torn_write(3, FaultDomain::Disk(1), 2)
            .transient(4, FaultDomain::Disk(1));
        let mut s = MemStore::new(8, 4);
        s.attach_injector(FaultInjector::new(plan), FaultDomain::Disk(1));
        s.write_page(0, &[1, 2, 3, 4]).unwrap(); // op 0
        assert_eq!(s.page(0).unwrap(), [!1, 2, 3, 4], "the lent copy is corrupted");
        s.update_page(0, |p| p.fill(9)).unwrap(); // ops 2 and 3
        assert!(s.update_page(0, |p| p.fill(7)).unwrap_err().is_transient());
        assert_eq!(s.page(0).unwrap(), [9, 9, 3, 4], "torn update keeps the old suffix");
    }

    /// Chunks `s`'s slab has carved.
    fn slab_chunks(s: &MemStore) -> usize {
        s.slab.chunks.len()
    }

    /// Cycling `k` pages through write/trim rounds reuses their slots: the
    /// slab never carves more than the `⌈k/16⌉` chunks one round needs.
    #[test]
    fn slab_stays_bounded_under_churn() {
        for k in [1u64, 15, 16, 17, 40] {
            let mut s = MemStore::new(64, 8);
            for round in 0..50u8 {
                let lpns = (0..k).map(|i| (u64::from(round) * 5 + i) % 64);
                for lpn in lpns.clone() {
                    if lpn % 2 == 0 {
                        s.write_page(lpn, &[round; 8]).unwrap();
                    } else {
                        s.update_page(lpn, |p| p.fill(round)).unwrap();
                    }
                }
                assert_eq!(s.resident_pages() as u64, k);
                for lpn in lpns {
                    s.trim_page(lpn).unwrap();
                }
                let chunks = slab_chunks(&s) as u64;
                assert!(chunks <= k.div_ceil(SLAB_PAGES as u64), "k {k} round {round}: {chunks}");
            }
        }
    }

    /// One step of [`store_matches_a_map_model`].
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Write(u64, u8),
        Update(u64, u8),
        Page(u64),
        Read(u64),
        Trim(u64),
        Fail,
        Replace,
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Two pages past the end, so out-of-range refusals come up too.
        let lpn = || 0u64..MODEL_PAGES + 2;
        prop_oneof![
            6 => (lpn(), any::<u8>()).prop_map(|(l, b)| Op::Write(l, b)),
            6 => (lpn(), any::<u8>()).prop_map(|(l, b)| Op::Update(l, b)),
            3 => lpn().prop_map(Op::Page),
            3 => lpn().prop_map(Op::Read),
            6 => lpn().prop_map(Op::Trim),
            1 => Just(Op::Fail),
            1 => Just(Op::Replace),
        ]
    }

    const MODEL_PAGES: u64 = 40;
    const MODEL_PS: u32 = 8;

    /// `ops` against a `BTreeMap` of the resident pages: every result,
    /// every page's contents, `is_resident` and `resident_pages` agree
    /// after each step.
    fn check_against_model(ops: &[Op], injected: bool) {
        use std::collections::BTreeMap;
        let mut s = MemStore::new(MODEL_PAGES, MODEL_PS);
        if injected {
            s.attach_injector(FaultInjector::none(), FaultDomain::Disk(2));
        }
        let domain = s.domain();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut failed = false;
        let zeros = vec![0u8; MODEL_PS as usize];
        let pattern =
            |b: u8| -> Vec<u8> { (0u8..).take(MODEL_PS as usize).map(|i| b ^ i).collect() };
        for (step, &op) in ops.iter().enumerate() {
            let refusal = |lpn: u64| {
                if failed {
                    Err(DevError::failed(domain))
                } else if lpn >= MODEL_PAGES {
                    Err(DevError::OutOfRange { lpn, capacity: MODEL_PAGES })
                } else {
                    Ok(())
                }
            };
            let current = |model: &BTreeMap<u64, Vec<u8>>, lpn| {
                model.get(&lpn).cloned().unwrap_or_else(|| zeros.clone())
            };
            match op {
                Op::Write(lpn, b) => {
                    let expect = refusal(lpn);
                    assert_eq!(s.write_page(lpn, &pattern(b)), expect, "step {step}: {op:?}");
                    if expect.is_ok() {
                        model.insert(lpn, pattern(b));
                    }
                }
                Op::Update(lpn, b) => {
                    let expect = refusal(lpn).map(|()| current(&model, lpn));
                    let got = s.update_page(lpn, |p| {
                        let seen = p.to_vec();
                        p.iter_mut().zip(pattern(b)).for_each(|(x, y)| *x ^= y);
                        seen
                    });
                    assert_eq!(got, expect, "step {step}: {op:?}");
                    if let Ok(mut page) = expect {
                        page.iter_mut().zip(pattern(b)).for_each(|(x, y)| *x ^= y);
                        model.insert(lpn, page);
                    }
                }
                Op::Page(lpn) => {
                    let expect = refusal(lpn).map(|()| current(&model, lpn));
                    assert_eq!(s.page(lpn).map(<[u8]>::to_vec), expect, "step {step}: {op:?}");
                }
                Op::Read(lpn) => {
                    let mut buf = vec![0xA5u8; MODEL_PS as usize];
                    let expect = refusal(lpn).map(|()| current(&model, lpn));
                    let got = s.read_page(lpn, &mut buf).map(|()| buf);
                    assert_eq!(got, expect, "step {step}: {op:?}");
                }
                Op::Trim(lpn) => {
                    let expect = refusal(lpn);
                    assert_eq!(s.trim_page(lpn), expect, "step {step}: {op:?}");
                    model.remove(&lpn);
                }
                Op::Fail => {
                    s.fail();
                    (failed, model) = (true, BTreeMap::new());
                }
                Op::Replace => {
                    s.replace();
                    (failed, model) = (false, BTreeMap::new());
                }
            }
            assert_eq!(s.resident_pages(), model.len(), "step {step}: {op:?}");
            let mut buf = vec![0u8; MODEL_PS as usize];
            for lpn in 0..MODEL_PAGES {
                assert_eq!(s.is_resident(lpn), model.contains_key(&lpn), "step {step} lpn {lpn}");
                if !failed {
                    s.read_page(lpn, &mut buf).unwrap();
                    assert_eq!(buf, current(&model, lpn), "step {step} lpn {lpn}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn store_matches_a_map_model(ops in proptest::collection::vec(op(), 1..300)) {
            check_against_model(&ops, false);
        }

        #[test]
        fn store_matches_a_map_model_under_an_injector(
            ops in proptest::collection::vec(op(), 1..300),
        ) {
            check_against_model(&ops, true);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_buffer_size_panics() {
        let s = MemStore::new(4, 64);
        let mut buf = vec![0u8; 32];
        #[expect(clippy::let_underscore_must_use, reason = "the call panics before it returns")]
        let _ = s.read_page(0, &mut buf);
    }
}
