//! Sparse in-memory page stores.
//!
//! A 5-disk RAID over 1 TB drives cannot be materialised as flat buffers;
//! [`MemStore`] keeps only pages that were ever written in a hash map and
//! reads unwritten pages as zeros — exactly what a fresh disk returns.
//!
//! "Unwritten" is a property callers may rely on, not only a saving of
//! this module: [`MemStore::lend`] answers `None` exactly for a page that
//! reads as zeros *because nothing is stored* (never written, trimmed, or
//! on a replaced device) and whose read the injector let proceed, so a
//! reader that would only XOR such a page into something — the RAID
//! reconstruction solver — can account the read and skip the bytes. A
//! page that was written with zeros is resident and is read like any other.
//!
//! Every op draws one [`IoOutcome`] ([`IoOutcome::Proceed`] without a
//! [`FaultInjector`]), applied in place on the page: a torn write copies its
//! valid prefix, a corruption flips bytes after the copy. A private copy is
//! made only where the medium must not change: a corrupted lend, or an
//! update whose write fails or tears.
//!
//! Page bytes live in a slab carved `SLAB_PAGES` (16) pages to a chunk; a
//! trimmed page's slot is handed to the next page that becomes resident.
//! A store whose pages come and go (the SSD cache) stops calling the
//! allocator once warm, one that only grows (a RAID member) calls it once
//! per chunk, and no slab outgrows the most pages ever resident at once by
//! a whole chunk.

use crate::error::{DevError, FaultDomain};
use crate::fault::{
    apply_read_outcome, apply_write_outcome, corrupt, FaultInjector, IoDir, IoOutcome,
};
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
    /// The private copy of a page an op must not lend or fold in place:
    /// zeros [`MemStore::page`] lends for an unwritten page, a corrupted
    /// read, an update whose write fails or tears. Sized on first use.
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

    /// Issue one op on page `lpn`: refused if the device is failed or `lpn`
    /// is out of range, else it draws its outcome. A failed op is the error.
    pub fn issue(&self, lpn: u64, dir: IoDir) -> Result<IoOutcome, DevError> {
        self.check(lpn)?;
        match self.intercept(dir) {
            IoOutcome::Fail(e) => Err(e),
            outcome => Ok(outcome),
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

    /// Fail the device if the injector has declared its domain dead (an
    /// injected drop or persistent fault).
    pub fn absorb_faults(&mut self) {
        if !self.failed && self.injector.as_ref().is_some_and(|inj| inj.is_dead(self.domain)) {
            self.fail();
        }
    }

    /// Replace a failed device with a fresh (zeroed) one of the same shape.
    /// The injector hears of it: a drop is cured by the spare, a persistent
    /// fault is not and fails it again at the next [`MemStore::absorb_faults`].
    pub fn replace(&mut self) {
        self.failed = false;
        self.drop_pages();
        if let Some(inj) = &self.injector {
            inj.on_replace(self.domain);
        }
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

    /// Copy page `lpn`, or zeros if it is unwritten, into the scratch page.
    fn copy_out(&mut self, lpn: u64) -> &mut [u8] {
        self.scratch.resize(self.page_size as usize, 0);
        match self.pages.get(&lpn) {
            Some(&slot) => self.scratch.copy_from_slice(self.slab.page(slot)),
            None => self.scratch.fill(0),
        }
        &mut self.scratch
    }

    /// Lend page `lpn` for reading: one read op, nothing copied unless the
    /// read is corrupted (then a corrupted private copy is lent). `None`
    /// means the page is unwritten and the read went through: it reads as
    /// zeros, which a caller that only XORs it into something may skip.
    pub fn lend(&mut self, lpn: u64) -> Result<Option<&[u8]>, DevError> {
        self.lend_or_zeros(lpn, false)
    }

    /// [`MemStore::lend`], an unwritten page lent as zeros.
    pub fn page(&mut self, lpn: u64) -> Result<&[u8], DevError> {
        Ok(self.lend_or_zeros(lpn, true)?.unwrap_or_default())
    }

    fn lend_or_zeros(&mut self, lpn: u64, zeros: bool) -> Result<Option<&[u8]>, DevError> {
        let outcome = self.issue(lpn, IoDir::Read)?;
        let corrupted = matches!(outcome, IoOutcome::Corrupt { .. });
        Ok(match self.pages.get(&lpn) {
            Some(&slot) if !corrupted => Some(self.slab.page(slot)),
            None if !corrupted && !zeros => None,
            _ => {
                let page = self.copy_out(lpn);
                corrupt(&outcome, page);
                Some(page)
            }
        })
    }

    /// Read-modify-write page `lpn` through `f`: a read, then a write, in
    /// place unless the write fails or tears (an unwritten page starts as
    /// zeros and becomes resident). `f` sees what the read returned.
    pub fn update_page<R>(
        &mut self,
        lpn: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, DevError> {
        let read = self.issue(lpn, IoDir::Read)?;
        let write = self.issue(lpn, IoDir::Write);
        self.update_issued(lpn, &read, write, f)
    }

    /// [`MemStore::update_page`] once its `read` and its `write` have been
    /// issued ([`MemStore::issue`]).
    pub fn update_issued<R>(
        &mut self,
        lpn: u64,
        read: &IoOutcome,
        write: Result<IoOutcome, DevError>,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, DevError> {
        let page = match write {
            Ok(IoOutcome::Proceed | IoOutcome::Corrupt { .. }) => {
                let slot = self.resident_slot(lpn, true);
                self.slab.page_mut(slot)
            }
            _ => self.copy_out(lpn),
        };
        corrupt(read, page);
        let out = f(page);
        let outcome = write?;
        let slot = self.resident_slot(lpn, true);
        match outcome {
            IoOutcome::Torn { .. } => {
                apply_write_outcome(outcome, &self.scratch, self.slab.page_mut(slot))?;
            }
            // `f` folded in place: only a corruption is left to apply.
            _ => corrupt(&outcome, self.slab.page_mut(slot)),
        }
        Ok(out)
    }

    /// Write zeros to page `lpn`. An unwritten page reads as zeros already,
    /// so it stays unwritten unless the write is corrupted.
    pub fn write_zeros(&mut self, lpn: u64) -> Result<(), DevError> {
        let outcome = self.issue(lpn, IoDir::Write)?;
        if self.is_resident(lpn) || matches!(outcome, IoOutcome::Corrupt { .. }) {
            self.update_issued(lpn, &IoOutcome::Proceed, Ok(outcome), |page| page.fill(0))?;
        }
        Ok(())
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

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Refuse a buffer that is not one page long, before any op is issued.
    pub fn check_len(&self, len: usize) -> Result<(), DevError> {
        if len == self.page_size as usize {
            Ok(())
        } else {
            Err(DevError::WrongSize { len, page_size: self.page_size })
        }
    }

    /// Read page `lpn` into `buf` (`buf.len() == page_size`).
    pub fn read_page(&self, lpn: u64, buf: &mut [u8]) -> Result<(), DevError> {
        self.check_len(buf.len())?;
        self.check(lpn)?;
        let outcome = self.intercept(IoDir::Read);
        match self.pages.get(&lpn) {
            Some(&slot) => buf.copy_from_slice(self.slab.page(slot)),
            None => buf.fill(0),
        }
        apply_read_outcome(outcome, buf)
    }

    /// Write `data` (`data.len() == page_size`) to page `lpn`.
    pub fn write_page(&mut self, lpn: u64, data: &[u8]) -> Result<(), DevError> {
        self.check_len(data.len())?;
        let outcome = self.issue(lpn, IoDir::Write)?;
        // A torn write keeps the old suffix: zeros on an unwritten page.
        let slot = self.resident_slot(lpn, matches!(outcome, IoOutcome::Torn { .. }));
        apply_write_outcome(outcome, data, self.slab.page_mut(slot))
    }

    /// Discard page `lpn` (it reads back as zeros).
    pub fn trim_page(&mut self, lpn: u64) -> Result<(), DevError> {
        self.issue(lpn, IoDir::Write)?;
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
    /// behind an empty-plan injector, which must change nothing but the
    /// op count.
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
        Zeros(u64),
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
            2 => lpn().prop_map(Op::Zeros),
            3 => lpn().prop_map(Op::Page),
            3 => lpn().prop_map(Op::Read),
            6 => lpn().prop_map(Op::Trim),
            1 => Just(Op::Fail),
            1 => Just(Op::Replace),
        ]
    }

    /// Up to a dozen transient, torn and corrupt faults on the model
    /// store's domain, armed over the first few hundred ops.
    fn fault_plan() -> impl proptest::strategy::Strategy<Value = crate::fault::FaultPlan> {
        use crate::fault::FaultPlan;
        use proptest::prelude::*;
        let spec = (0u64..400, 0u8..3, 0..=MODEL_PS, 1..=MODEL_PS);
        proptest::collection::vec(spec, 0..12).prop_map(|specs| {
            specs.into_iter().fold(FaultPlan::new(), |plan, (at, kind, x, len)| match kind {
                0 => plan.transient(at, MODEL_DOMAIN),
                1 => plan.torn_write(at, MODEL_DOMAIN, x),
                _ => plan.corrupt(at, MODEL_DOMAIN, x, len),
            })
        })
    }

    const MODEL_PAGES: u64 = 40;
    const MODEL_PS: u32 = 8;
    const MODEL_DOMAIN: FaultDomain = FaultDomain::Disk(2);

    /// Page `lpn`'s stored bytes, read without issuing an op.
    fn stored(s: &MemStore, lpn: u64) -> Vec<u8> {
        let zeros = || vec![0; s.page_size as usize];
        s.pages.get(&lpn).map_or_else(zeros, |&slot| s.slab.page(slot).to_vec())
    }

    /// `ops` against a `BTreeMap` of the resident pages, behind an injector
    /// running `plan` if there is one: every result, every page's contents,
    /// `is_resident` and `resident_pages` agree after each step. The model
    /// folds in each fault the step's op drew, from the injector's events.
    fn check_against_model(ops: &[Op], plan: Option<crate::fault::FaultPlan>) {
        use crate::fault::{FaultEvent, FaultKind};
        use std::collections::BTreeMap;
        let mut s = MemStore::new(MODEL_PAGES, MODEL_PS);
        let injector = plan.map(FaultInjector::new);
        if let Some(inj) = &injector {
            s.attach_injector(inj.clone(), MODEL_DOMAIN);
        }
        let domain = s.domain();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut failed = false;
        let zeros = vec![0u8; MODEL_PS as usize];
        let pattern =
            |b: u8| -> Vec<u8> { (0u8..).take(MODEL_PS as usize).map(|i| b ^ i).collect() };
        let flip = |mut page: Vec<u8>, offset: u32, len: u32| {
            page.iter_mut().skip(offset as usize).take(len as usize).for_each(|b| *b ^= 0xFF);
            page
        };
        // What a read of `page` returns under `fault`.
        let seen = |fault: Option<FaultKind>, page: Vec<u8>| match fault {
            Some(FaultKind::TransientIo) => Err(DevError::transient(domain)),
            Some(FaultKind::CorruptPage { offset, len }) => Ok(flip(page, offset, len)),
            _ => Ok(page),
        };
        // What the medium holds once `new` is written over `old` under `fault`.
        let landed = |fault: Option<FaultKind>, new: Vec<u8>, mut old: Vec<u8>| match fault {
            Some(FaultKind::TransientIo) => Err(DevError::transient(domain)),
            Some(FaultKind::TornWrite { valid_bytes }) => {
                old.iter_mut().zip(new).take(valid_bytes as usize).for_each(|(o, n)| *o = n);
                Ok(old)
            }
            Some(FaultKind::CorruptPage { offset, len }) => Ok(flip(new, offset, len)),
            _ => Ok(new),
        };
        let mut drawn = 0;
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
            // The fault this step's op of direction `dir` drew, if any;
            // asked once the op has run.
            let events = || injector.as_ref().map(FaultInjector::events).unwrap_or_default();
            let fault = |dir: IoDir| {
                events().into_iter().skip(drawn).find(|e: &FaultEvent| e.dir == dir).map(|e| e.kind)
            };
            match op {
                Op::Write(lpn, b) => {
                    let got = s.write_page(lpn, &pattern(b));
                    let expect = refusal(lpn).and_then(|()| {
                        landed(fault(IoDir::Write), pattern(b), current(&model, lpn))
                    });
                    assert_eq!(got, expect.clone().map(drop), "step {step}: {op:?}");
                    if let Ok(page) = expect {
                        model.insert(lpn, page);
                    }
                }
                Op::Update(lpn, b) => {
                    let got = s.update_page(lpn, |p| {
                        let seen = p.to_vec();
                        p.iter_mut().zip(pattern(b)).for_each(|(x, y)| *x ^= y);
                        seen
                    });
                    let read =
                        refusal(lpn).and_then(|()| seen(fault(IoDir::Read), current(&model, lpn)));
                    let write = read.clone().and_then(|mut page| {
                        page.iter_mut().zip(pattern(b)).for_each(|(x, y)| *x ^= y);
                        landed(fault(IoDir::Write), page, current(&model, lpn))
                    });
                    assert_eq!(got, write.clone().and(read), "step {step}: {op:?}");
                    if let Ok(page) = write {
                        model.insert(lpn, page);
                    }
                }
                Op::Zeros(lpn) => {
                    let got = s.write_zeros(lpn);
                    let fault = fault(IoDir::Write);
                    let expect = refusal(lpn)
                        .and_then(|()| landed(fault, zeros.clone(), current(&model, lpn)));
                    assert_eq!(got, expect.clone().map(drop), "step {step}: {op:?}");
                    // An unwritten page stays so unless the write is corrupted.
                    let corrupted = matches!(fault, Some(FaultKind::CorruptPage { .. }));
                    if let Some(page) =
                        expect.ok().filter(|_| corrupted || model.contains_key(&lpn))
                    {
                        model.insert(lpn, page);
                    }
                }
                Op::Page(lpn) => {
                    let got = s.page(lpn).map(<[u8]>::to_vec);
                    let expect =
                        refusal(lpn).and_then(|()| seen(fault(IoDir::Read), current(&model, lpn)));
                    assert_eq!(got, expect, "step {step}: {op:?}");
                }
                Op::Read(lpn) => {
                    let mut buf = vec![0xA5u8; MODEL_PS as usize];
                    let got = s.read_page(lpn, &mut buf).map(|()| buf);
                    let expect =
                        refusal(lpn).and_then(|()| seen(fault(IoDir::Read), current(&model, lpn)));
                    assert_eq!(got, expect, "step {step}: {op:?}");
                }
                Op::Trim(lpn) => {
                    let got = s.trim_page(lpn);
                    // Only a failure stops a trim.
                    let expect = refusal(lpn).and_then(|()| seen(fault(IoDir::Write), Vec::new()));
                    assert_eq!(got, expect.clone().map(drop), "step {step}: {op:?}");
                    if expect.is_ok() {
                        model.remove(&lpn);
                    }
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
            drawn = events().len();
            assert_eq!(s.resident_pages(), model.len(), "step {step}: {op:?}");
            for lpn in 0..MODEL_PAGES {
                assert_eq!(s.is_resident(lpn), model.contains_key(&lpn), "step {step} lpn {lpn}");
                assert_eq!(stored(&s, lpn), current(&model, lpn), "step {step} lpn {lpn}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn store_matches_a_map_model(ops in proptest::collection::vec(op(), 1..300)) {
            check_against_model(&ops, None);
        }

        #[test]
        fn store_matches_a_map_model_under_an_injector(
            ops in proptest::collection::vec(op(), 1..300),
            plan in fault_plan(),
        ) {
            check_against_model(&ops, Some(plan));
        }
    }

    #[test]
    fn wrong_buffer_size_is_refused() {
        let mut s = MemStore::new(4, 64);
        let short = DevError::WrongSize { len: 32, page_size: 64 };
        assert_eq!(s.read_page(0, &mut [0u8; 32]), Err(short.clone()));
        assert_eq!(s.write_page(0, &[7u8; 32]), Err(short));
        assert!(!s.is_resident(0), "nothing was written");
    }
}
