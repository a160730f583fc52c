//! The RAID array: parity maintenance, degraded operation, rebuild, and
//! the two extra interfaces KDD needs.
//!
//! Beyond a textbook RAID-0/5/6, this array implements the paper's §III-A
//! additions:
//!
//! * [`RaidArray::write_no_parity_update`] — dispatch data to the member
//!   disk *without* touching parity, marking the parity row stale;
//! * [`RaidArray::parity_update_with_data`] — reconstruct-write repair:
//!   the caller (KDD's cleaner) supplies every data page of the row from
//!   cache, so the repair costs zero disk reads;
//! * [`RaidArray::parity_update_rmw`] — read-modify-write repair: read the
//!   stale parity and XOR it with the accumulated deltas (`P' = P ⊕ Δ`;
//!   for Q, `Q' = Q ⊕ g^d·Δ_d`);
//! * [`RaidArray::resync`] — full re-synchronisation from data disks, the
//!   recovery path after an SSD-cache failure (§III-E2).
//!
//! Degraded reads on a *stale* row refuse to reconstruct
//! ([`RaidError::StaleParity`]): that is precisely the window of
//! vulnerability the paper says LeavO leaves open and KDD closes by
//! updating parity before rebuild.
//!
//! Reconstruction (degraded reads and [`RaidArray::rebuild`]) honours the
//! members' sparseness. A member page [`MemStore::lend`] reports
//! *unwritten* — it reads as zeros because nothing is stored — contributes
//! nothing to an XOR or GF(2^8) sum: its read is booked in [`RaidCost`]
//! and [`DiskStats`] like any other, and no byte is touched. A row none of
//! whose surviving members folded any bytes solves to zeros for every
//! lost member, which is what the replacement already reads there: such a
//! row costs the accounting of its member I/Os and nothing else.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::gf256;
use crate::layout::{Layout, RaidLevel};
use kdd_blockdev::error::{DevError, FaultDomain};
use kdd_blockdev::fault::{FaultInjector, IoDir};
use kdd_blockdev::store::{MemStore, PageStore};
use kdd_delta::{xor_into, xor_pages_into};
use kdd_util::hash::FastSet;
use kdd_util::PagePool;
use serde::{Deserialize, Serialize};

/// Direction of one member-disk operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Disk read.
    Read,
    /// Disk write.
    Write,
}

/// One physical I/O issued to a member disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskOp {
    /// Member-disk index.
    pub disk: usize,
    /// Page offset on that disk.
    pub disk_page: u64,
    /// Read or write.
    pub kind: IoKind,
}

/// Operations a [`DiskOps`] list holds without allocating: a RAID-6
/// small write issues six, so every per-request cost fits.
const INLINE_OPS: usize = 8;

/// A list of [`DiskOp`]s in issue order, read as a slice. The first eight
/// (`INLINE_OPS`) live in the value itself; a longer list (resync,
/// rebuild) moves to the heap.
#[derive(Clone)]
pub struct DiskOps {
    inline: [DiskOp; INLINE_OPS],
    /// Ops held in `inline`; unused once `spill` has taken over.
    len: usize,
    spill: Vec<DiskOp>,
}

impl Default for DiskOps {
    fn default() -> Self {
        let unused = DiskOp { disk: 0, disk_page: 0, kind: IoKind::Read };
        DiskOps { inline: [unused; INLINE_OPS], len: 0, spill: Vec::new() }
    }
}

impl DiskOps {
    /// Make room for `additional` more ops at once (a rebuild knows its
    /// count up front) instead of by doubling.
    fn reserve(&mut self, additional: usize) {
        self.spill.reserve(self.len + additional);
    }

    fn push(&mut self, op: DiskOp) {
        if !self.spill.is_empty() {
            self.spill.push(op);
        } else if self.len < INLINE_OPS {
            self.inline[self.len] = op;
            self.len += 1;
        } else {
            self.spill.reserve(2 * INLINE_OPS);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(op);
        }
    }
}

impl std::ops::Deref for DiskOps {
    type Target = [DiskOp];

    fn deref(&self) -> &[DiskOp] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl std::fmt::Debug for DiskOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for DiskOps {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

/// The member-disk operations one array request generated — the input to
/// the timing layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RaidCost {
    /// Operations in issue order.
    pub ops: DiskOps,
}

impl RaidCost {
    fn push(&mut self, disk: usize, disk_page: u64, kind: IoKind) {
        self.ops.push(DiskOp { disk, disk_page, kind });
    }

    /// Number of member reads.
    pub fn reads(&self) -> usize {
        self.ops.iter().filter(|o| o.kind == IoKind::Read).count()
    }

    /// Number of member writes.
    pub fn writes(&self) -> usize {
        self.ops.iter().filter(|o| o.kind == IoKind::Write).count()
    }

    /// Merge another cost into this one.
    pub fn merge(&mut self, other: RaidCost) {
        for &op in other.ops.iter() {
            self.ops.push(op);
        }
    }
}

/// Array-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaidError {
    /// Underlying device error.
    Dev(DevError),
    /// More member failures than the level tolerates.
    TooManyFailures,
    /// A degraded read hit a row whose parity is stale — the paper's
    /// window of vulnerability (data are unrecoverable until overwritten).
    StaleParity {
        /// The stale parity row.
        row: u64,
    },
    /// Operation requires a live disk that is failed.
    DiskFailed {
        /// The failed member.
        disk: usize,
    },
    /// Caller passed malformed arguments.
    BadArg(&'static str),
    /// Internal bookkeeping contradicted itself (a bug, surfaced as an
    /// error instead of a panic so a storage daemon can fail the request
    /// and keep serving other stripes).
    Inconsistent(&'static str),
}

impl From<DevError> for RaidError {
    fn from(e: DevError) -> Self {
        RaidError::Dev(e)
    }
}

impl std::fmt::Display for RaidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaidError::Dev(e) => write!(f, "device error: {e}"),
            RaidError::TooManyFailures => write!(f, "too many member failures"),
            RaidError::StaleParity { row } => {
                write!(f, "degraded read on stale parity row {row}: data loss window")
            }
            RaidError::DiskFailed { disk } => write!(f, "member disk {disk} is failed"),
            RaidError::BadArg(s) => write!(f, "bad argument: {s}"),
            RaidError::Inconsistent(s) => write!(f, "internal inconsistency: {s}"),
        }
    }
}

impl std::error::Error for RaidError {}

/// Per-disk I/O counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DiskStats {
    /// Pages read.
    pub reads: u64,
    /// Pages written.
    pub writes: u64,
}

/// A parity-protected disk array holding real page contents.
///
/// # Examples
///
/// The KDD write path: dispatch data without a parity update, then repair
/// the stale row with the accumulated delta.
///
/// ```
/// use kdd_raid::{Layout, RaidArray, RaidLevel};
/// use kdd_delta::xor_pages;
///
/// let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8);
/// let mut array = RaidArray::new(layout, 512);
///
/// let v0 = vec![1u8; 512];
/// let v1 = vec![2u8; 512];
/// array.write_page(0, &v0).unwrap();                 // conventional small write
/// array.write_no_parity_update(0, &v1).unwrap();     // KDD: one member write
/// let row = array.layout().row_of(0);
/// assert!(array.is_stale(row));
///
/// let delta = xor_pages(&v0, &v1);
/// array.parity_update_rmw(row, &[(0, &delta)]).unwrap();
/// assert!(array.verify_row(row).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct RaidArray {
    layout: Layout,
    page_size: u32,
    disks: Vec<MemStore>,
    stale_rows: FastSet<u64>,
    stats: Vec<DiskStats>,
    pool: PagePool,
}

impl RaidArray {
    /// Build an array of `layout.disks` fresh member disks.
    pub fn new(layout: Layout, page_size: u32) -> Self {
        let disks =
            (0..layout.disks).map(|_| MemStore::new(layout.disk_pages, page_size)).collect();
        RaidArray {
            layout,
            page_size,
            disks,
            stale_rows: FastSet::default(),
            stats: vec![DiskStats::default(); layout.disks],
            pool: PagePool::new(page_size as usize),
        }
    }

    /// Route every member-disk I/O through `injector`, member `i` reporting
    /// itself as [`FaultDomain::Disk`]`(i)`.
    pub fn attach_injector(&mut self, injector: FaultInjector) {
        for (i, disk) in self.disks.iter_mut().enumerate() {
            disk.attach_injector(injector.clone(), FaultDomain::Disk(i as u32));
        }
    }

    /// The array geometry.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.layout.capacity_pages()
    }

    /// Per-disk I/O counters.
    pub fn stats(&self) -> &[DiskStats] {
        &self.stats
    }

    /// Rows currently carrying stale parity.
    pub fn stale_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.stale_rows.iter().copied()
    }

    /// Number of stale parity rows.
    pub fn stale_row_count(&self) -> usize {
        self.stale_rows.len()
    }

    /// Whether `row` has stale parity.
    pub fn is_stale(&self, row: u64) -> bool {
        self.stale_rows.contains(&row)
    }

    /// Indexes of currently-failed members.
    pub fn failed_disks(&self) -> Vec<usize> {
        (0..self.disks.len()).filter(|&d| self.disks[d].is_failed()).collect()
    }

    /// Fold injector-declared member deaths into the array's failure state
    /// (so the degraded paths take over), then refuse more failures than
    /// the level tolerates. Called at every public entry point.
    fn check_failures(&mut self) -> Result<(), RaidError> {
        self.disks.iter_mut().for_each(MemStore::absorb_faults);
        let failed = self.disks.iter().filter(|d| d.is_failed()).count();
        if failed > self.layout.level.parity_count() {
            Err(RaidError::TooManyFailures)
        } else {
            Ok(())
        }
    }

    // ---- raw member access with accounting -----------------------------

    /// Count one completed member operation.
    fn account(&mut self, disk: usize, disk_page: u64, kind: IoKind, cost: &mut RaidCost) {
        match kind {
            IoKind::Read => self.stats[disk].reads += 1,
            IoKind::Write => self.stats[disk].writes += 1,
        }
        cost.push(disk, disk_page, kind);
    }

    fn disk_read(
        &mut self,
        disk: usize,
        disk_page: u64,
        buf: &mut [u8],
        cost: &mut RaidCost,
    ) -> Result<(), RaidError> {
        self.disks[disk].read_page(disk_page, buf)?;
        self.account(disk, disk_page, IoKind::Read, cost);
        Ok(())
    }

    fn disk_write(
        &mut self,
        disk: usize,
        disk_page: u64,
        data: &[u8],
        cost: &mut RaidCost,
    ) -> Result<(), RaidError> {
        self.disks[disk].write_page(disk_page, data)?;
        self.account(disk, disk_page, IoKind::Write, cost);
        Ok(())
    }

    /// [`RaidArray::disk_read`] without the copy: the member lends the page,
    /// `None` for an unwritten one that reads as zeros ([`MemStore::lend`]).
    fn disk_page(
        &mut self,
        disk: usize,
        disk_page: u64,
        cost: &mut RaidCost,
    ) -> Result<Option<&[u8]>, RaidError> {
        let page = self.disks[disk].lend(disk_page)?;
        self.stats[disk].reads += 1;
        cost.push(disk, disk_page, IoKind::Read);
        Ok(page)
    }

    /// Read-modify-write one member page through `f` — a read then a write
    /// of that member, in place when it can be ([`MemStore::update_page`]).
    fn disk_update(
        &mut self,
        disk: usize,
        disk_page: u64,
        cost: &mut RaidCost,
        f: impl FnOnce(&mut [u8]),
    ) -> Result<(), RaidError> {
        self.disks[disk].update_page(disk_page, f)?;
        self.account(disk, disk_page, IoKind::Read, cost);
        self.account(disk, disk_page, IoKind::Write, cost);
        Ok(())
    }

    /// Read-modify-write a row's P and Q pages through one fused `f(p, q)`,
    /// each folded where it lies unless its write fails or tears
    /// ([`MemStore::update_issued`]). The ops are issued as four separate
    /// ones would be — read P, read Q, write P, write Q, the order a fault
    /// plan indexes — each booked once it completes; a failure ends them.
    fn disk_update_pq(
        &mut self,
        (pd, pp): (usize, u64),
        (qd, qp): (usize, u64),
        cost: &mut RaidCost,
        f: impl FnOnce(&mut [u8], &mut [u8]),
    ) -> Result<(), RaidError> {
        if pd == qd {
            return Err(RaidError::Inconsistent("P and Q of a row share a member"));
        }
        let p_read = self.disks[pd].issue(pp, IoDir::Read)?;
        self.account(pd, pp, IoKind::Read, cost);
        let q_read = self.disks[qd].issue(qp, IoDir::Read)?;
        self.account(qd, qp, IoKind::Read, cost);
        let p_write = Ok(self.disks[pd].issue(pp, IoDir::Write)?);
        let q_write = self.disks[qd].issue(qp, IoDir::Write);
        let (low, high) = self.disks.split_at_mut(pd.max(qd));
        let (p_disk, q_disk) =
            if pd < qd { (&mut low[pd], &mut high[0]) } else { (&mut high[0], &mut low[qd]) };
        let q_landed = p_disk.update_issued(pp, &p_read, p_write, |p| {
            q_disk.update_issued(qp, &q_read, q_write, |q| f(p, q))
        })?;
        self.account(pd, pp, IoKind::Write, cost);
        q_landed?;
        self.account(qd, qp, IoKind::Write, cost);
        Ok(())
    }

    // ---- reads ----------------------------------------------------------

    /// Read a logical page, reconstructing from redundancy if its member
    /// disk is failed.
    pub fn read_page(&mut self, lpn: u64, buf: &mut [u8]) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        let loc = self.layout.locate(lpn);
        let mut cost = RaidCost::default();
        if !self.disks[loc.disk].is_failed() {
            match self.disk_read(loc.disk, loc.disk_page, buf, &mut cost) {
                Ok(()) => return Ok(cost),
                // The member died under this very read (injected drop or
                // persistent fault): absorb the failure and reconstruct
                // below, as a real array would.
                Err(RaidError::Dev(e))
                    if matches!(e, DevError::Failed { .. }) && !e.is_transient() =>
                {
                    self.check_failures()?;
                    if !self.disks[loc.disk].is_failed() {
                        return Err(RaidError::Dev(e));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Degraded: reconstruct this page.
        if self.layout.level == RaidLevel::Raid0 {
            return Err(RaidError::TooManyFailures);
        }
        if self.is_stale(loc.row) {
            return Err(RaidError::StaleParity { row: loc.row });
        }
        if buf.len() != self.page_size as usize {
            return Err(RaidError::BadArg("buffer must be one page"));
        }
        let failed = self.failed_disks();
        let missing = self.missing_members(loc.row, &failed)?;
        // The solver leaves each lost member in the buffer of its slot:
        // the wanted page is solved straight into the caller's.
        let wanted = missing
            .iter()
            .position(|m| m.is_some_and(|(m, _)| m == RowMember::Data(loc.data_index)))
            .ok_or(RaidError::TooManyFailures)?;
        let mut other = self.pool.acquire_scratch();
        let out = if wanted == 0 { [&mut *buf, &mut *other] } else { [&mut *other, &mut *buf] };
        let blank = self.solve_missing(loc.row, missing, out, &mut cost)?;
        self.pool.release(other);
        if blank {
            buf.fill(0);
        }
        Ok(cost)
    }

    // ---- full-parity writes (the conventional path) ---------------------

    /// Write a logical page with a full parity update (read-modify-write
    /// or reconstruct-write, whichever needs fewer reads) — the paper's
    /// "small write" the cache is trying to avoid.
    pub fn write_page(&mut self, lpn: u64, data: &[u8]) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        if data.len() != self.page_size as usize {
            return Err(RaidError::BadArg("data must be one page"));
        }
        let loc = self.layout.locate(lpn);
        let mut cost = RaidCost::default();

        if self.layout.level == RaidLevel::Raid0 {
            self.disk_write(loc.disk, loc.disk_page, data, &mut cost)?;
            return Ok(cost);
        }

        let target_failed = self.disks[loc.disk].is_failed();
        let dd = self.layout.data_disks();
        let others = move || (0..dd).filter(move |&d| d != loc.data_index);
        let others_alive = others().all(|d| {
            let disk = self.layout.data_disk(loc.stripe, d);
            !self.disks[disk].is_failed()
        });
        let p_loc = self.layout.parity_location(loc.row);
        let q_loc = self.layout.q_location(loc.row);
        let p_alive = p_loc.is_some_and(|(d, _)| !self.disks[d].is_failed());
        let q_alive = q_loc.is_some_and(|(d, _)| !self.disks[d].is_failed());

        // RMW needs the target's old data and the old parity; reconstruct
        // needs every *other* data page. Pick what is possible, then what
        // is cheaper (fewer reads).
        let rmw_possible =
            !target_failed && !self.is_stale(loc.row) && (p_alive || q_loc.is_none());
        let recon_possible = others_alive;
        let rmw_reads = 1 + p_alive as usize + q_alive as usize;
        let recon_reads = dd - 1;

        let use_rmw = match (rmw_possible, recon_possible) {
            (true, true) => rmw_reads <= recon_reads,
            (true, false) => true,
            (false, true) => false,
            (false, false) => return Err(RaidError::TooManyFailures),
        };

        // Crash window: from here until the final member write the row's
        // data and parity may disagree. Mark it stale up front so a power
        // loss mid-sequence leaves a mark recovery can resync from; the
        // mark is cleared once the row is consistent again.
        self.stale_rows.insert(loc.row);

        if use_rmw {
            // `P ^= D_old ^ D_new`: the delta is formed from the lent old
            // page in one pass and folded into the parity page(s) where
            // they lie. The pooled buffer is dropped on the (cold) error
            // paths.
            let mut delta = self.pool.acquire_scratch();
            match self.disk_page(loc.disk, loc.disk_page, &mut cost)? {
                Some(old) => xor_pages_into(&mut delta, old, data),
                None => delta.copy_from_slice(data),
            }
            let g = gf256::pow_g(loc.data_index);
            match (p_loc.filter(|_| p_alive), q_loc.filter(|_| q_alive)) {
                (Some(p), Some(q)) => self.disk_update_pq(p, q, &mut cost, |p, q| {
                    gf256::mul2_slice_into(p, q, &delta, g);
                })?,
                (Some((pd, pp)), None) => {
                    self.disk_update(pd, pp, &mut cost, |p| xor_into(p, &delta))?;
                }
                (None, Some((qd, qp))) => self.disk_update(qd, qp, &mut cost, |q| {
                    gf256::mul_slice_into(q, &delta, g);
                })?,
                (None, None) => {}
            }
            self.pool.release(delta);
        } else {
            // Reconstruct-write: fold every other written data page, lent
            // by its member, into the new data.
            let mut p = self.pool.acquire_from(data);
            let mut q = self.pool.acquire();
            if q_loc.is_some() {
                gf256::mul_slice_into(&mut q, data, gf256::pow_g(loc.data_index));
            }
            for d in others() {
                let disk = self.layout.data_disk(loc.stripe, d);
                // Same offset across the row.
                let Some(page) = self.disk_page(disk, loc.disk_page, &mut cost)? else { continue };
                if q_loc.is_some() {
                    // One pass per member page: P ⊕= D, Q ⊕= g^d·D.
                    gf256::mul2_slice_into(&mut p, &mut q, page, gf256::pow_g(d));
                } else {
                    xor_into(&mut p, page);
                }
            }
            if let Some((pd, pp)) = p_loc {
                if !self.disks[pd].is_failed() {
                    self.disk_write(pd, pp, &p, &mut cost)?;
                }
            }
            if let Some((qd, qp)) = q_loc {
                if !self.disks[qd].is_failed() {
                    self.disk_write(qd, qp, &q, &mut cost)?;
                }
            }
            self.pool.release(p);
            self.pool.release(q);
        }

        if !target_failed {
            self.disk_write(loc.disk, loc.disk_page, data, &mut cost)?;
        }
        // Every write completed: data and parity agree again. (RMW was only
        // chosen on a previously-clean row; reconstruct-write recomputes
        // parity from all members, repairing any prior staleness too.)
        self.stale_rows.remove(&loc.row);
        Ok(cost)
    }

    // ---- KDD interfaces --------------------------------------------------

    /// Write data *without* updating parity (§III-A): one member write;
    /// the row is marked stale until a `parity_update` repairs it.
    pub fn write_no_parity_update(&mut self, lpn: u64, data: &[u8]) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        if data.len() != self.page_size as usize {
            return Err(RaidError::BadArg("data must be one page"));
        }
        let loc = self.layout.locate(lpn);
        if self.disks[loc.disk].is_failed() {
            return Err(RaidError::DiskFailed { disk: loc.disk });
        }
        let mut cost = RaidCost::default();
        self.disk_write(loc.disk, loc.disk_page, data, &mut cost)?;
        if self.layout.level != RaidLevel::Raid0 {
            self.stale_rows.insert(loc.row);
        }
        Ok(cost)
    }

    /// Repair a stale row by reconstruct-write: the caller supplies every
    /// data page of the row (KDD has them all in cache), so no member
    /// reads are needed — only the parity write(s).
    pub fn parity_update_with_data(
        &mut self,
        row: u64,
        data: &[impl AsRef<[u8]>],
    ) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        if data.len() != self.layout.row_width() {
            return Err(RaidError::BadArg("need every data page of the row"));
        }
        let ps = self.page_size as usize;
        if data.iter().any(|d| d.as_ref().len() != ps) {
            return Err(RaidError::BadArg("data pages must be page-sized"));
        }
        let mut cost = RaidCost::default();
        let q_target = self.layout.q_location(row).filter(|&(qd, _)| !self.disks[qd].is_failed());
        let mut p = self.pool.acquire();
        let mut q = self.pool.acquire();
        for (d, page) in data.iter().enumerate() {
            if q_target.is_some() {
                // One pass per member: P ⊕= D, Q ⊕= g^d·D.
                gf256::mul2_slice_into(&mut p, &mut q, page.as_ref(), gf256::pow_g(d));
            } else {
                xor_into(&mut p, page.as_ref());
            }
        }
        if let Some((pd, pp)) = self.layout.parity_location(row) {
            if !self.disks[pd].is_failed() {
                self.disk_write(pd, pp, &p, &mut cost)?;
            }
        }
        if let Some((qd, qp)) = q_target {
            self.disk_write(qd, qp, &q, &mut cost)?;
        }
        self.pool.release(p);
        self.pool.release(q);
        self.stale_rows.remove(&row);
        Ok(cost)
    }

    /// Repair a stale row by read-modify-write: read the stale parity and
    /// fold in the accumulated per-member deltas (each delta is the XOR of
    /// the member's pre-stale content with its current content).
    pub fn parity_update_rmw(
        &mut self,
        row: u64,
        deltas: &[(usize, impl AsRef<[u8]>)],
    ) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        let ps = self.page_size as usize;
        if deltas.iter().any(|(d, buf)| *d >= self.layout.row_width() || buf.as_ref().len() != ps) {
            return Err(RaidError::BadArg("delta index or size out of range"));
        }
        let mut cost = RaidCost::default();
        let p_target = self.layout.parity_location(row);
        let q_target = self.layout.q_location(row);
        if let Some((pd, _)) = p_target {
            if self.disks[pd].is_failed() {
                return Err(RaidError::DiskFailed { disk: pd });
            }
        }
        match (p_target, q_target) {
            (Some(p), Some(q)) if !self.disks[q.0].is_failed() => {
                // Fused P+Q fold: every delta goes into both parities in
                // one pass; each device still sees [read, write].
                self.disk_update_pq(p, q, &mut cost, |p, q| {
                    for (d, delta) in deltas {
                        gf256::mul2_slice_into(p, q, delta.as_ref(), gf256::pow_g(*d));
                    }
                })?;
            }
            _ => {
                if let Some((pd, pp)) = p_target {
                    self.disk_update(pd, pp, &mut cost, |p| {
                        for (_, delta) in deltas {
                            xor_into(p, delta.as_ref());
                        }
                    })?;
                }
                if let Some((qd, _)) = q_target {
                    // Matches the pre-fusion behaviour: a failed Q disk
                    // errors only after the P parity has been written.
                    return Err(RaidError::DiskFailed { disk: qd });
                }
            }
        }
        self.stale_rows.remove(&row);
        Ok(cost)
    }

    /// Re-synchronise rows by reading the data members and recomputing
    /// parity — the recovery path after losing the SSD cache (§III-E2).
    /// With `rows = None` every stale row is repaired.
    pub fn resync(&mut self, rows: Option<&[u64]>) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        let targets: Vec<u64> = match rows {
            Some(r) => r.to_vec(),
            None => self.stale_rows.iter().copied().collect(),
        };
        let mut cost = RaidCost::default();
        let mut pages: Vec<Box<[u8]>> = Vec::with_capacity(self.layout.row_width());
        for row in targets {
            for lpn in self.layout.row_lpns(row) {
                let loc = self.layout.locate(lpn);
                if self.disks[loc.disk].is_failed() {
                    return Err(RaidError::DiskFailed { disk: loc.disk });
                }
                let mut buf = self.pool.acquire_scratch();
                self.disk_read(loc.disk, loc.disk_page, &mut buf, &mut cost)?;
                pages.push(buf);
            }
            let sub = self.parity_update_with_data(row, &pages)?;
            for page in pages.drain(..) {
                self.pool.release(page);
            }
            cost.merge(sub);
        }
        Ok(cost)
    }

    // ---- failure handling ------------------------------------------------

    /// Fail a member disk (fault injection).
    pub fn fail_disk(&mut self, disk: usize) {
        self.disks[disk].fail();
    }

    /// Rebuild every failed member onto a fresh replacement.
    ///
    /// Requires no stale rows: KDD's failure handling updates all parity
    /// *before* triggering rebuild (§III-E2). Errors with
    /// [`RaidError::StaleParity`] otherwise.
    ///
    /// A rebuild that fails part-way leaves the members failed, as they
    /// were: the array stays degraded and keeps reconstructing reads, and
    /// a retry starts again from row 0.
    pub fn rebuild(&mut self) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        if let Some(&row) = self.stale_rows.iter().next() {
            return Err(RaidError::StaleParity { row });
        }
        let failed = self.failed_disks();
        if failed.is_empty() {
            return Ok(RaidCost::default());
        }
        for &d in &failed {
            self.disks[d].replace();
        }
        let rebuilt = self.rebuild_rows(&failed);
        if rebuilt.is_err() {
            // A half-written replacement must not pass for a member: the
            // rows not reached yet would read back as zeros.
            for &d in &failed {
                self.disks[d].fail();
            }
        }
        rebuilt
    }

    /// Reconstruct every row's share of the (just replaced) `failed`
    /// members from the survivors.
    fn rebuild_rows(&mut self, failed: &[usize]) -> Result<RaidCost, RaidError> {
        let rows = self.layout.rows();
        let mut cost = RaidCost::default();
        // A row's ops: a read per surviving data member, a parity read per
        // lost one, a write per lost member.
        cost.ops.reserve(rows as usize * (self.layout.data_disks() + failed.len()));
        let mut first = self.pool.acquire_scratch();
        let mut second = self.pool.acquire_scratch();
        for row in 0..rows {
            let dp = self.row_disk_page(row);
            let missing = self.missing_members(row, failed)?;
            let blank = self.solve_missing(row, missing, [&mut first, &mut second], &mut cost)?;
            for (lost, content) in missing.iter().zip([&first, &second]) {
                let Some((_, disk)) = *lost else { continue };
                if blank {
                    // Zeros, which the fresh replacement already reads:
                    // the write is issued and stores bytes only if corrupted.
                    self.disks[disk].write_zeros(dp)?;
                    self.account(disk, dp, IoKind::Write, &mut cost);
                } else {
                    self.disk_write(disk, dp, content, &mut cost)?;
                }
            }
        }
        self.pool.release(first);
        self.pool.release(second);
        Ok(cost)
    }

    fn row_disk_page(&self, row: u64) -> u64 {
        let stripe = self.layout.stripe_of_row(row);
        stripe * self.layout.chunk_pages + row % self.layout.chunk_pages
    }

    // ---- reconstruction core ----------------------------------------------

    /// The members of `row` that live on the `excluded` disks, each with
    /// its disk, in the order they are solved and written back: data by
    /// index, then P, then Q.
    fn missing_members(&self, row: u64, excluded: &[usize]) -> Result<Missing, RaidError> {
        let stripe = self.layout.stripe_of_row(row);
        let data = (0..self.layout.data_disks())
            .map(|d| (RowMember::Data(d), Some(self.layout.data_disk(stripe, d))));
        let parity = [
            (RowMember::P, self.layout.parity_disk(stripe)),
            (RowMember::Q, self.layout.q_disk(stripe)),
        ];
        let mut lost = data
            .chain(parity)
            .filter_map(|(m, disk)| disk.filter(|d| excluded.contains(d)).map(|disk| (m, disk)));
        let missing = [lost.next(), lost.next()];
        match lost.next() {
            // RAID-6 solves two erasures, no level more.
            Some(_) => Err(RaidError::TooManyFailures),
            None => Ok(missing),
        }
    }

    /// Solve `row` for its `missing` members from the surviving ones,
    /// leaving member `i` in `out[i]`. Handles every single- and
    /// double-erasure case RAID-6 tolerates.
    ///
    /// The survivors are read in a fixed order — data by index, then P,
    /// then Q, each only if the solution needs it — and folded one at a
    /// time into two running sums held in `out`: `a`, the plain XOR, and
    /// `b`, the `g^d`-weighted one. A survivor lent as unwritten
    /// ([`RaidArray::disk_page`]) would fold zeros: its read is booked and
    /// nothing else.
    ///
    /// Returns `true`, with `out` untouched, for a *blank* row: no survivor
    /// folded any bytes, so every missing member is zeros.
    fn solve_missing(
        &mut self,
        row: u64,
        missing: Missing,
        [first, second]: [&mut [u8]; 2],
        cost: &mut RaidCost,
    ) -> Result<bool, RaidError> {
        let stripe = self.layout.stripe_of_row(row);
        let dp = self.row_disk_page(row);
        let lost = |m: RowMember| missing.iter().flatten().any(|&(lost, _)| lost == m);
        let mut lost_data = missing.iter().flatten().filter_map(|&(m, _)| match m {
            RowMember::Data(d) => Some(d),
            _ => None,
        });
        let (x, y) = (lost_data.next(), lost_data.next());
        let (p_lost, q_lost) = (lost(RowMember::P), lost(RowMember::Q));
        let p_loc = self.layout.parity_location(row).filter(|_| !p_lost);
        let q_loc = self.layout.q_location(row).filter(|_| !q_lost);
        // Lost data is solved from P when there is one, from Q otherwise,
        // from both when two pages are gone; lost parity is recomputed.
        let (read_p, read_q) = match (x, y, p_loc, q_loc) {
            (None, ..) => (None, None),
            (Some(_), None, Some(p), _) => (Some(p), None),
            (Some(_), None, None, Some(q)) => (None, Some(q)),
            (Some(_), Some(_), Some(p), Some(q)) => (Some(p), Some(q)),
            _ => return Err(RaidError::TooManyFailures),
        };
        let (sum_a, sum_b) = (p_lost || read_p.is_some(), q_lost || read_q.is_some());
        if !sum_a && !sum_b {
            return Ok(false); // nothing is missing
        }
        // `b` ends up holding the first missing member when that is data
        // solved through Q, or Q itself; `a` in every other case.
        let b_first = read_q.is_some() || matches!(missing[0], Some((RowMember::Q, _)));
        let (a, b) = if b_first { (second, first) } else { (first, second) };

        let layout = self.layout;
        let survivors = (0..layout.data_disks())
            .filter(|&d| Some(d) != x && Some(d) != y)
            .map(|d| (RowMember::Data(d), layout.data_disk(stripe, d), dp))
            .chain(read_p.map(|(pd, pp)| (RowMember::P, pd, pp)))
            .chain(read_q.map(|(qd, qp)| (RowMember::Q, qd, qp)));
        let mut blank = true;
        for (member, disk, disk_page) in survivors {
            let Some(page) = self.disk_page(disk, disk_page, cost)? else { continue };
            if std::mem::take(&mut blank) {
                // The first bytes folded: the sums start from zeros.
                if sum_a {
                    a.fill(0);
                }
                if sum_b {
                    b.fill(0);
                }
            }
            match (member, sum_a, sum_b) {
                // One pass per member page: a ⊕= D, b ⊕= g^d·D.
                (RowMember::Data(d), true, true) => {
                    gf256::mul2_slice_into(a, b, page, gf256::pow_g(d));
                }
                (RowMember::Data(_), true, false) | (RowMember::P, ..) => xor_into(a, page),
                (RowMember::Data(d), ..) => gf256::mul_slice_into(b, page, gf256::pow_g(d)),
                (RowMember::Q, ..) => xor_into(b, page),
            }
        }
        if blank {
            return Ok(true);
        }

        // a = P ⊕ Σ D_d and b = Q ⊕ Σ g^d·D_d over the surviving d, for
        // whichever of P and Q was read.
        match (x, y, read_p.is_some()) {
            (Some(x), Some(y), _) => {
                // a = D_x ⊕ D_y, b = g^x·D_x ⊕ g^y·D_y, so
                // D_x = (b ⊕ g^y·a) / (g^x ⊕ g^y); D_y = a ⊕ D_x
                let (gx, gy) = (gf256::pow_g(x), gf256::pow_g(y));
                gf256::mul_slice_into(b, a, gy);
                gf256::scale_slice(b, gf256::inv(gx ^ gy));
                xor_into(a, b);
            }
            (Some(x), None, true) => {
                // D_x = a; a lost Q still lacks its term: Q = b ⊕ g^x·D_x
                if q_lost {
                    gf256::mul_slice_into(b, a, gf256::pow_g(x));
                }
            }
            (Some(x), None, false) => {
                // D_x = b / g^x; a lost P still lacks it: P = a ⊕ D_x
                gf256::scale_slice(b, gf256::inv(gf256::pow_g(x)));
                if p_lost {
                    xor_into(a, b);
                }
            }
            // Only parity is lost: the sums over all data are P and Q.
            (None, ..) => {}
        }
        Ok(false)
    }

    /// Verify parity consistency of one row (tests/diagnostics). Stale
    /// rows are expected to fail verification.
    pub fn verify_row(&mut self, row: u64) -> Result<bool, RaidError> {
        let mut p = self.pool.acquire();
        let mut q = self.pool.acquire();
        let mut buf = self.pool.acquire_scratch();
        let mut cost = RaidCost::default();
        for (d, lpn) in self.layout.row_lpns(row).enumerate() {
            let loc = self.layout.locate(lpn);
            self.disk_read(loc.disk, loc.disk_page, &mut buf, &mut cost)?;
            gf256::mul2_slice_into(&mut p, &mut q, &buf, gf256::pow_g(d));
        }
        // A mismatch short-circuits exactly as before (the Q parity is not
        // read when P already disagrees); `ok` just routes both exits
        // through the buffer release below.
        let mut ok = true;
        if let Some((pd, pp)) = self.layout.parity_location(row) {
            self.disk_read(pd, pp, &mut buf, &mut cost)?;
            ok = buf == p;
        }
        if ok {
            if let Some((qd, qp)) = self.layout.q_location(row) {
                self.disk_read(qd, qp, &mut buf, &mut cost)?;
                ok = buf == q;
            }
        }
        self.pool.release(p);
        self.pool.release(q);
        self.pool.release(buf);
        Ok(ok)
    }
}

/// Identifies one member of a parity row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowMember {
    Data(usize),
    P,
    Q,
}

/// The members of one row lost with their disks (at most two can be
/// solved for), each with the disk it lives on.
type Missing = [Option<(RowMember, usize)>; 2];

#[cfg(test)]
mod tests {
    use super::*;

    fn page(tag: u8, ps: usize) -> Vec<u8> {
        (0..ps).map(|i| tag ^ (i as u8).wrapping_mul(31)).collect()
    }

    fn r5() -> RaidArray {
        RaidArray::new(Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8), 256)
    }

    fn r6() -> RaidArray {
        RaidArray::new(Layout::new(RaidLevel::Raid6, 6, 4, 4 * 8), 256)
    }

    #[test]
    fn write_read_roundtrip_r5() {
        let mut a = r5();
        let ps = 256;
        for lpn in 0..a.capacity_pages() {
            a.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        let mut buf = vec![0u8; ps];
        for lpn in 0..a.capacity_pages() {
            a.read_page(lpn, &mut buf).unwrap();
            assert_eq!(buf, page(lpn as u8, ps), "lpn {lpn}");
        }
        for row in 0..a.layout().rows() {
            assert!(a.verify_row(row).unwrap(), "row {row} parity broken");
        }
    }

    #[test]
    fn small_write_costs_four_ios_r5() {
        let mut a = r5();
        let ps = 256;
        a.write_page(0, &page(1, ps)).unwrap();
        // Second write to the same page: genuine small write.
        let cost = a.write_page(0, &page(2, ps)).unwrap();
        // RMW on 5-disk RAID5: read old data + old parity, write data +
        // parity — but reconstruct (3 reads) may win only for 3 disks, so
        // here expect exactly 2+2.
        assert_eq!(cost.reads(), 2, "ops: {:?}", cost.ops);
        assert_eq!(cost.writes(), 2);
    }

    #[test]
    fn small_write_costs_six_ios_r6() {
        let mut a = r6();
        let ps = 256;
        a.write_page(0, &page(1, ps)).unwrap();
        let cost = a.write_page(0, &page(2, ps)).unwrap();
        assert_eq!(cost.reads(), 3);
        assert_eq!(cost.writes(), 3);
    }

    #[test]
    fn degraded_read_reconstructs_r5() {
        let mut a = r5();
        let ps = 256;
        for lpn in 0..a.capacity_pages() {
            a.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        a.fail_disk(2);
        let mut buf = vec![0u8; ps];
        for lpn in 0..a.capacity_pages() {
            a.read_page(lpn, &mut buf).unwrap();
            assert_eq!(buf, page(lpn as u8, ps), "degraded lpn {lpn}");
        }
    }

    #[test]
    fn degraded_read_all_double_failures_r6() {
        let ps = 256;
        for f1 in 0..6 {
            for f2 in (f1 + 1)..6 {
                let mut a = r6();
                for lpn in 0..a.capacity_pages() {
                    a.write_page(lpn, &page((lpn as u8).wrapping_add(7), ps)).unwrap();
                }
                a.fail_disk(f1);
                a.fail_disk(f2);
                let mut buf = vec![0u8; ps];
                for lpn in 0..a.capacity_pages() {
                    a.read_page(lpn, &mut buf)
                        .unwrap_or_else(|e| panic!("fail {f1},{f2} lpn {lpn}: {e}"));
                    assert_eq!(
                        buf,
                        page((lpn as u8).wrapping_add(7), ps),
                        "fail {f1},{f2} lpn {lpn}"
                    );
                }
            }
        }
    }

    #[test]
    fn raid5_two_failures_rejected() {
        let mut a = r5();
        a.fail_disk(0);
        a.fail_disk(1);
        let mut buf = vec![0u8; 256];
        assert_eq!(a.read_page(0, &mut buf).unwrap_err(), RaidError::TooManyFailures);
    }

    #[test]
    fn write_no_parity_update_marks_stale() {
        let mut a = r5();
        let ps = 256;
        a.write_page(0, &page(1, ps)).unwrap();
        let row = a.layout().row_of(0);
        assert!(a.verify_row(row).unwrap());
        let cost = a.write_no_parity_update(0, &page(2, ps)).unwrap();
        assert_eq!(cost.reads(), 0);
        assert_eq!(cost.writes(), 1, "exactly one member write");
        assert!(a.is_stale(row));
        assert!(!a.verify_row(row).unwrap(), "parity must now be stale");
        // Data itself is current.
        let mut buf = vec![0u8; ps];
        a.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, page(2, ps));
    }

    #[test]
    fn parity_update_with_data_repairs() {
        let mut a = r5();
        let ps = 256;
        let row = a.layout().row_of(0);
        let lpns: Vec<u64> = a.layout().row_lpns(row).collect();
        for (i, &lpn) in lpns.iter().enumerate() {
            a.write_page(lpn, &page(i as u8, ps)).unwrap();
        }
        a.write_no_parity_update(lpns[1], &page(0xEE, ps)).unwrap();
        assert!(a.is_stale(row));
        // Cleaner supplies all four data pages (as KDD's cache would).
        let d0 = page(0, ps);
        let d1 = page(0xEE, ps);
        let d2 = page(2, ps);
        let d3 = page(3, ps);
        let cost = a.parity_update_with_data(row, &[&d0, &d1, &d2, &d3]).unwrap();
        assert_eq!(cost.reads(), 0, "reconstruct-write repair reads nothing");
        assert_eq!(cost.writes(), 1);
        assert!(!a.is_stale(row));
        assert!(a.verify_row(row).unwrap());
    }

    #[test]
    fn parity_update_rmw_repairs() {
        let mut a = r5();
        let ps = 256;
        let row = a.layout().row_of(0);
        let lpns: Vec<u64> = a.layout().row_lpns(row).collect();
        for (i, &lpn) in lpns.iter().enumerate() {
            a.write_page(lpn, &page(i as u8, ps)).unwrap();
        }
        let old = page(1, ps);
        let new = page(0x5A, ps);
        a.write_no_parity_update(lpns[1], &new).unwrap();
        let mut delta = old.clone();
        xor_into(&mut delta, &new);
        let cost = a.parity_update_rmw(row, &[(1, &delta)]).unwrap();
        assert_eq!(cost.reads(), 1, "RMW repair reads only parity");
        assert_eq!(cost.writes(), 1);
        assert!(a.verify_row(row).unwrap());
    }

    #[test]
    fn parity_update_rmw_repairs_q_too() {
        let mut a = r6();
        let ps = 256;
        let row = a.layout().row_of(0);
        let lpns: Vec<u64> = a.layout().row_lpns(row).collect();
        for (i, &lpn) in lpns.iter().enumerate() {
            a.write_page(lpn, &page(i as u8, ps)).unwrap();
        }
        let old = page(2, ps);
        let new = page(0x77, ps);
        a.write_no_parity_update(lpns[2], &new).unwrap();
        let mut delta = old.clone();
        xor_into(&mut delta, &new);
        a.parity_update_rmw(row, &[(2, &delta)]).unwrap();
        assert!(a.verify_row(row).unwrap(), "P and Q must both be repaired");
    }

    #[test]
    fn resync_repairs_all_stale_rows() {
        let mut a = r5();
        let ps = 256;
        for lpn in 0..a.capacity_pages() {
            a.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        for lpn in [0u64, 5, 9, 20] {
            a.write_no_parity_update(lpn, &page(0xAB, ps)).unwrap();
        }
        assert!(a.stale_row_count() > 0);
        a.resync(None).unwrap();
        assert_eq!(a.stale_row_count(), 0);
        for row in 0..a.layout().rows() {
            assert!(a.verify_row(row).unwrap(), "row {row}");
        }
    }

    #[test]
    fn degraded_read_on_stale_row_is_data_loss_window() {
        let mut a = r5();
        let ps = 256;
        for lpn in 0..8 {
            a.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        a.write_no_parity_update(0, &page(0xCC, ps)).unwrap();
        let row = a.layout().row_of(0);
        // Fail a *different* disk in the same row: reconstruction would
        // use the stale parity and return garbage — the array refuses.
        let victim_lpn = a.layout().row_lpns(row).nth(1).unwrap();
        let victim_disk = a.layout().locate(victim_lpn).disk;
        a.fail_disk(victim_disk);
        let mut buf = vec![0u8; ps];
        assert_eq!(a.read_page(victim_lpn, &mut buf).unwrap_err(), RaidError::StaleParity { row });
    }

    #[test]
    fn rebuild_requires_clean_parity_then_restores() {
        let mut a = r5();
        let ps = 256;
        for lpn in 0..a.capacity_pages() {
            a.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        a.write_no_parity_update(3, &page(0xDD, ps)).unwrap();
        a.fail_disk(1);
        assert!(matches!(a.rebuild(), Err(RaidError::StaleParity { .. })));
        // KDD's §III-E2 sequence: parity_update first, then rebuild.
        let row = a.layout().row_of(3);
        let lpns: Vec<u64> = a.layout().row_lpns(row).collect();
        let datas: Vec<Vec<u8>> =
            lpns.iter().map(|&l| if l == 3 { page(0xDD, ps) } else { page(l as u8, ps) }).collect();
        let refs: Vec<&[u8]> = datas.iter().map(|d| d.as_slice()).collect();
        a.parity_update_with_data(row, &refs).unwrap();
        a.rebuild().unwrap();
        assert!(a.failed_disks().is_empty());
        let mut buf = vec![0u8; ps];
        for lpn in 0..a.capacity_pages() {
            a.read_page(lpn, &mut buf).unwrap();
            let expect = if lpn == 3 { page(0xDD, ps) } else { page(lpn as u8, ps) };
            assert_eq!(buf, expect, "lpn {lpn} after rebuild");
        }
        for row in 0..a.layout().rows() {
            assert!(a.verify_row(row).unwrap());
        }
    }

    #[test]
    fn rebuild_r6_after_double_failure() {
        let mut a = r6();
        let ps = 256;
        for lpn in 0..a.capacity_pages() {
            a.write_page(lpn, &page(lpn as u8 ^ 0x3C, ps)).unwrap();
        }
        a.fail_disk(0);
        a.fail_disk(3);
        a.rebuild().unwrap();
        let mut buf = vec![0u8; ps];
        for lpn in 0..a.capacity_pages() {
            a.read_page(lpn, &mut buf).unwrap();
            assert_eq!(buf, page(lpn as u8 ^ 0x3C, ps));
        }
        for row in 0..a.layout().rows() {
            assert!(a.verify_row(row).unwrap());
        }
    }

    #[test]
    fn raid0_has_no_parity_overhead() {
        let mut a = RaidArray::new(Layout::new(RaidLevel::Raid0, 4, 4, 16), 256);
        let cost = a.write_page(0, &page(1, 256)).unwrap();
        assert_eq!(cost.reads(), 0);
        assert_eq!(cost.writes(), 1);
        assert_eq!(a.stale_row_count(), 0);
    }

    #[test]
    fn degraded_write_target_failed_updates_parity() {
        let mut a = r5();
        let ps = 256;
        for lpn in 0..a.capacity_pages() {
            a.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        let loc = a.layout().locate(7);
        a.fail_disk(loc.disk);
        // Write to the failed member: parity must absorb the new data.
        a.write_page(7, &page(0x99, ps)).unwrap();
        let mut buf = vec![0u8; ps];
        a.read_page(7, &mut buf).unwrap(); // degraded read
        assert_eq!(buf, page(0x99, ps));
        // And after rebuild the data is physically there.
        a.rebuild().unwrap();
        a.read_page(7, &mut buf).unwrap();
        assert_eq!(buf, page(0x99, ps));
    }

    #[test]
    fn injected_drop_degrades_then_rebuilds() {
        use kdd_blockdev::fault::FaultPlan;
        let mut a = r5();
        let ps = 256;
        for lpn in 0..a.capacity_pages() {
            a.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        let inj = FaultInjector::new(FaultPlan::new().drop_device(0, FaultDomain::Disk(2)));
        a.attach_injector(inj.clone());

        // The very next op aimed at disk 2 kills it; the array absorbs the
        // failure and reconstructs from redundancy.
        let mut buf = vec![0u8; ps];
        for lpn in 0..a.capacity_pages() {
            a.read_page(lpn, &mut buf).unwrap();
            assert_eq!(buf, page(lpn as u8, ps), "lpn {lpn}");
        }
        assert_eq!(a.failed_disks(), vec![2]);
        assert_eq!(inj.counters().device_drops, 1);

        a.rebuild().unwrap();
        assert!(a.failed_disks().is_empty());
        assert!(!inj.is_dead(FaultDomain::Disk(2)));
        for lpn in 0..a.capacity_pages() {
            a.read_page(lpn, &mut buf).unwrap();
            assert_eq!(buf, page(lpn as u8, ps));
        }
    }

    #[test]
    fn power_loss_mid_write_leaves_row_stale_for_resync() {
        use kdd_blockdev::fault::FaultPlan;
        let mut a = r5();
        let ps = 256;
        for lpn in 0..a.capacity_pages() {
            a.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        // An RMW small write issues read(data), read(P), write(P),
        // write(data). Cut power at the parity write: data and parity
        // now disagree and the op never completed.
        let inj = FaultInjector::new(FaultPlan::new().power_loss(2));
        a.attach_injector(inj.clone());
        let err = a.write_page(0, &page(0xEE, ps)).unwrap_err();
        assert_eq!(err, RaidError::Dev(DevError::PowerLoss));
        let row = a.layout().row_of(0);
        assert!(a.is_stale(row), "interrupted write must leave a stale mark");

        // "Reboot": power returns, recovery resyncs the marked row.
        inj.restore_power();
        a.resync(Some(&[row])).unwrap();
        assert!(a.verify_row(row).unwrap());
        let mut buf = vec![0u8; ps];
        a.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, page(0, ps), "old data still intact (write never acked)");
    }

    /// One seeded mix of every array operation through two arrays of the
    /// same shape: `lent` has no injector, `copied` an empty-plan one that
    /// draws an outcome for every member op (the names predate the single
    /// lend-and-skip path both now take). Every result (cost op list or error), every byte read, every
    /// member's counters and every row's parity must agree.
    fn lent_and_copied_paths_agree(mut lent: RaidArray, failed: Option<usize>) {
        let ps = lent.page_size() as usize;
        let mut copied = lent.clone();
        let injector = FaultInjector::none();
        copied.attach_injector(injector.clone());
        if let Some(disk) = failed {
            lent.fail_disk(disk);
            copied.fail_disk(disk);
        }
        let layout = *lent.layout();
        let mut current: Vec<Vec<u8>> = vec![vec![0u8; ps]; layout.capacity_pages() as usize];
        let mut x = 0x5eed_u64;
        let mut next = |bound: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        let (mut rmw, mut reconstruct, mut repaired) = (0, 0, 0);
        for step in 0..3000 {
            let lpn = next(layout.capacity_pages());
            let data = page(next(256) as u8, ps);
            match next(10) {
                0..=3 => {
                    let (a, b) = (lent.write_page(lpn, &data), copied.write_page(lpn, &data));
                    assert_eq!(a, b, "step {step}: write_page({lpn})");
                    if let Ok(cost) = a {
                        current[lpn as usize] = data;
                        match cost.reads() {
                            n if n == cost.writes() => rmw += 1,
                            _ => reconstruct += 1,
                        }
                    }
                }
                4 | 5 => {
                    // KDD's pair: data without parity, then the repair
                    // from the delta.
                    let a = lent.write_no_parity_update(lpn, &data);
                    assert_eq!(a, copied.write_no_parity_update(lpn, &data), "step {step}");
                    if a.is_err() {
                        continue;
                    }
                    let mut delta = current[lpn as usize].clone();
                    xor_into(&mut delta, &data);
                    current[lpn as usize] = data;
                    let loc = layout.locate(lpn);
                    let a = lent.parity_update_rmw(loc.row, &[(loc.data_index, &delta)]);
                    let b = copied.parity_update_rmw(loc.row, &[(loc.data_index, &delta)]);
                    assert_eq!(a, b, "step {step}: parity_update_rmw(row {})", loc.row);
                    repaired += usize::from(a.is_ok());
                }
                6 => {
                    let row = layout.row_of(lpn);
                    let datas: Vec<&[u8]> =
                        layout.row_lpns(row).map(|l| &current[l as usize][..]).collect();
                    let a = lent.parity_update_with_data(row, &datas);
                    assert_eq!(a, copied.parity_update_with_data(row, &datas), "step {step}");
                }
                _ => {
                    let (mut got_a, mut got_b) = (vec![0u8; ps], vec![0u8; ps]);
                    let a = lent.read_page(lpn, &mut got_a);
                    assert_eq!(a, copied.read_page(lpn, &mut got_b), "step {step}");
                    assert_eq!(got_a, got_b, "step {step}: read_page({lpn})");
                    if a.is_ok() {
                        assert_eq!(got_a, current[lpn as usize], "step {step}: lpn {lpn}");
                    }
                }
            }
        }
        assert!(rmw > 100 || failed.is_some(), "the mix made {rmw} read-modify-writes");
        assert!(reconstruct > 0 || failed.is_none(), "no degraded reconstruct-write ran");
        assert!(repaired > 100, "only {repaired} delta repairs ran");
        let counters = |a: &RaidArray| -> Vec<(u64, u64)> {
            a.stats().iter().map(|s| (s.reads, s.writes)).collect()
        };
        assert_eq!(counters(&lent), counters(&copied));
        assert_eq!(lent.stale_row_count(), copied.stale_row_count());
        assert!(injector.op_count() > 0 && injector.counters().injected == 0);
        if failed.is_none() {
            for row in 0..layout.rows() {
                let consistent = !lent.is_stale(row);
                assert_eq!(lent.verify_row(row), Ok(consistent), "row {row}");
                assert_eq!(copied.verify_row(row), Ok(consistent), "row {row}");
            }
        }
    }

    #[test]
    fn lent_and_copied_paths_agree_r5() {
        lent_and_copied_paths_agree(r5(), None);
    }

    #[test]
    fn lent_and_copied_paths_agree_r6() {
        lent_and_copied_paths_agree(r6(), None);
    }

    #[test]
    fn lent_and_copied_paths_agree_degraded() {
        lent_and_copied_paths_agree(r5(), Some(1));
        lent_and_copied_paths_agree(r6(), Some(4));
    }

    /// The fused P+Q update issues its ops as four separate ones would be —
    /// read P, read Q, write P, write Q — and a transient, torn or corrupt
    /// fault on each of them in turn stops it, books its ops and leaves P,
    /// Q and the data exactly as that sequence does: a RAID-6 small write
    /// (data read first, data write last) and a delta repair.
    #[test]
    fn fused_pq_update_keeps_its_op_order_under_faults() {
        use kdd_blockdev::fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
        let ps = 256;
        let mut base = r6();
        let layout = *base.layout();
        let row = layout.row_of(0);
        for lpn in layout.row_lpns(row) {
            base.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        let (pd, pp) = layout.parity_location(row).unwrap();
        let (qd, qp) = layout.q_location(row).unwrap();
        let data = layout.locate(0);
        let new = page(0x5A, ps);
        let mut delta = page(0, ps);
        xor_into(&mut delta, &new);
        // A member page, read once the op count has been checked.
        let stored = |a: &RaidArray, disk: usize, p: u64| {
            let mut buf = vec![0u8; ps];
            a.disks[disk].read_page(p, &mut buf).unwrap();
            buf
        };
        let stats = |a: &RaidArray| -> Vec<(u64, u64)> {
            a.stats().iter().map(|s| (s.reads, s.writes)).collect()
        };
        let flip = |mut v: Vec<u8>| {
            v[3..73].iter_mut().for_each(|b| *b ^= 0xFF);
            v
        };
        let torn = |new: Vec<u8>, mut old: Vec<u8>| {
            old[..100].copy_from_slice(&new[..100]);
            old
        };
        for repair in [false, true] {
            let mut start = base.clone();
            if repair {
                start.write_no_parity_update(0, &new).unwrap();
            }
            let call = |a: &mut RaidArray| {
                if repair {
                    a.parity_update_rmw(row, &[(data.data_index, &delta)])
                } else {
                    a.write_page(0, &new)
                }
            };
            let mut done = start.clone();
            let want = call(&mut done).unwrap();
            let (p_old, q_old) = (stored(&start, pd, pp), stored(&start, qd, qp));
            let (p_new, q_new) = (stored(&done, pd, pp), stored(&done, qd, qp));
            assert!(p_new != p_old && q_new != q_old);
            let booked = |ops: &[DiskOp]| {
                let mut s = stats(&start);
                for op in ops {
                    match op.kind {
                        IoKind::Read => s[op.disk].0 += 1,
                        IoKind::Write => s[op.disk].1 += 1,
                    }
                }
                s
            };
            assert_eq!(booked(&want.ops), stats(&done));

            // A zero-length corruption on every op records the order and
            // changes no byte.
            let mut a = start.clone();
            let every_op = (0..want.ops.len() as u64)
                .fold(FaultPlan::new(), |plan, at| plan.corrupt(at, FaultDomain::Unknown, 0, 0));
            let inj = FaultInjector::new(every_op);
            a.attach_injector(inj.clone());
            assert_eq!(call(&mut a), Ok(want.clone()));
            let order: Vec<(FaultDomain, IoDir)> =
                inj.events().iter().map(|e| (e.device, e.dir)).collect();
            let (p_dev, q_dev) = (FaultDomain::Disk(pd as u32), FaultDomain::Disk(qd as u32));
            let first = usize::from(!repair);
            assert_eq!(
                order[first..first + 4],
                [
                    (p_dev, IoDir::Read),
                    (q_dev, IoDir::Read),
                    (p_dev, IoDir::Write),
                    (q_dev, IoDir::Write)
                ]
            );
            let from_cost = want.ops.iter().map(|op| {
                let dir = if op.kind == IoKind::Read { IoDir::Read } else { IoDir::Write };
                (FaultDomain::Disk(op.disk as u32), dir)
            });
            assert_eq!(
                order,
                from_cost.collect::<Vec<_>>(),
                "the cost lists the ops in issue order"
            );
            assert_eq!(members(&a), members(&done));

            for k in 0..4 {
                let at = first + k;
                let (device, dir) = order[at];
                let on_p = device == p_dev;
                let mut kinds =
                    vec![FaultKind::TransientIo, FaultKind::CorruptPage { offset: 3, len: 70 }];
                if dir == IoDir::Write {
                    kinds.push(FaultKind::TornWrite { valid_bytes: 100 });
                }
                for kind in kinds {
                    let what = format!("repair {repair}: {kind:?} on op {at} ({device:?} {dir:?})");
                    let spec = FaultSpec { at_op: at as u64, device, dir: Some(dir), kind };
                    let inj = FaultInjector::new(FaultPlan { specs: vec![spec] });
                    let mut a = start.clone();
                    a.attach_injector(inj.clone());
                    let got = call(&mut a);
                    assert_eq!(
                        inj.events(),
                        [FaultEvent { op: at as u64, device, dir, kind }],
                        "{what}"
                    );
                    let failed = kind == FaultKind::TransientIo;
                    let ops = if failed { at + 1 } else { want.ops.len() };
                    assert_eq!(inj.op_count(), ops as u64, "{what}");
                    if failed {
                        assert_eq!(got, Err(RaidError::Dev(DevError::transient(device))), "{what}");
                        assert_eq!(stats(&a), booked(&want.ops[..at]), "{what}");
                    } else {
                        assert_eq!(got, Ok(want.clone()), "{what}");
                        assert_eq!(stats(&a), stats(&done), "{what}");
                    }
                    // Only a failed write of Q leaves P written.
                    let mangle = |new: Vec<u8>, old: Vec<u8>, this: bool| match kind {
                        FaultKind::TransientIo if k != 3 || this => old,
                        FaultKind::CorruptPage { .. } if this => flip(new),
                        FaultKind::TornWrite { .. } if this => torn(new, old),
                        _ => new,
                    };
                    let p_want = mangle(p_new.clone(), p_old.clone(), on_p);
                    let q_want = mangle(q_new.clone(), q_old.clone(), !on_p);
                    assert_eq!(stored(&a, pd, pp), p_want, "{what}: P");
                    assert_eq!(stored(&a, qd, qp), q_want, "{what}: Q");
                    let data_want = if failed && !repair { page(0, ps) } else { new.clone() };
                    assert_eq!(stored(&a, data.disk, data.disk_page), data_want, "{what}: data");
                }
            }
        }
    }

    // ---- the sparse-aware solver against the copying one ------------------

    /// How much of an array the differential runs write before failing
    /// members.
    #[derive(Debug, Clone, Copy)]
    enum Fill {
        Empty,
        /// About 15 % of the pages, scattered.
        Sparse,
        /// One data member of every row, a different one row by row.
        OnePerRow,
        Full,
    }

    /// Write `fill`'s pages through `write_page` (so parity is consistent)
    /// and return what every logical page now reads as.
    fn filled(a: &mut RaidArray, fill: Fill) -> Vec<Vec<u8>> {
        let ps = a.page_size() as usize;
        let layout = *a.layout();
        let mut x = 0x2545_f491_u64;
        let mut model = vec![vec![0u8; ps]; layout.capacity_pages() as usize];
        for lpn in 0..layout.capacity_pages() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let row = layout.row_of(lpn);
            let write = match fill {
                Fill::Empty => false,
                Fill::Sparse => (x >> 33) % 100 < 15,
                Fill::OnePerRow => {
                    layout.row_lpns(row).nth(row as usize % layout.row_width()) == Some(lpn)
                }
                Fill::Full => true,
            };
            if write {
                model[lpn as usize] = page((x >> 40) as u8, ps);
                a.write_page(lpn, &model[lpn as usize]).unwrap();
            }
        }
        model
    }

    /// Every page of every member, and the members' counters.
    fn members(a: &RaidArray) -> (Vec<Vec<u8>>, Vec<(u64, u64)>) {
        let mut buf = vec![0u8; a.page_size() as usize];
        let pages = a
            .disks
            .iter()
            .flat_map(|d| (0..a.layout.disk_pages).map(move |p| (d, p)))
            .map(|(d, p)| {
                d.read_page(p, &mut buf).unwrap();
                buf.clone()
            })
            .collect();
        (pages, a.stats().iter().map(|s| (s.reads, s.writes)).collect())
    }

    /// Fail `failed` on three copies of `base` — the solver, the reference
    /// solver, and the solver behind an empty-plan injector (every op drawn,
    /// every shortcut still taken) — then read every page degraded and
    /// rebuild: each call's op list, every byte read, every member's
    /// counters and contents must agree, parity must verify, and the sparse
    /// rebuild must have materialised only the rows that hold something.
    fn solver_matches_reference(base: &RaidArray, model: &[Vec<u8>], failed: &[usize]) {
        let ps = base.page_size() as usize;
        let layout = *base.layout();
        let what = format!("{:?} failed {failed:?}", layout.level);
        let written_rows = (0..layout.rows())
            .filter(|&row| {
                (0..layout.disks).any(|d| !failed.contains(&d) && base.disks[d].is_resident(row))
            })
            .count();
        let mut new = base.clone();
        let mut old = base.clone();
        let mut copied = base.clone();
        let injector = FaultInjector::new(kdd_blockdev::fault::FaultPlan::new());
        copied.attach_injector(injector.clone());
        for &d in failed {
            new.fail_disk(d);
            old.fail_disk(d);
            copied.fail_disk(d);
        }

        let (mut got, mut want, mut lent) = (vec![0xAAu8; ps], vec![0xBBu8; ps], vec![0xCCu8; ps]);
        for lpn in 0..layout.capacity_pages() {
            let cost = new.read_page(lpn, &mut got);
            assert_eq!(cost, old.reference_read_page(lpn, &mut want), "{what}: read_page({lpn})");
            assert_eq!(cost, copied.read_page(lpn, &mut lent), "{what}: copied read_page({lpn})");
            assert!(cost.is_ok(), "{what}: read_page({lpn}) = {cost:?}");
            assert_eq!(got, model[lpn as usize], "{what}: lpn {lpn}");
            assert_eq!((&want, &lent), (&got, &got), "{what}: lpn {lpn}");
        }

        let cost = new.rebuild();
        assert!(cost.is_ok(), "{what}: rebuild = {cost:?}");
        assert_eq!(cost, old.reference_rebuild(), "{what}: rebuild ops");
        assert_eq!(cost, copied.rebuild(), "{what}: copied rebuild ops");
        let ops = cost.unwrap().ops.len();
        assert_eq!(ops, layout.rows() as usize * (layout.data_disks() + failed.len()), "{what}");
        assert!(injector.op_count() as usize >= ops && injector.counters().injected == 0);

        assert_eq!(members(&new), members(&old), "{what}: members after rebuild");
        assert_eq!(members(&new), members(&copied), "{what}: copied members after rebuild");
        for row in 0..layout.rows() {
            assert_eq!(new.verify_row(row), Ok(true), "{what}: row {row}");
        }
        for lpn in 0..layout.capacity_pages() {
            new.read_page(lpn, &mut got).unwrap();
            assert_eq!(got, model[lpn as usize], "{what}: lpn {lpn} after rebuild");
        }
        for &d in failed {
            assert_eq!(new.disks[d].resident_pages(), written_rows, "{what}: disk {d}");
            assert_eq!(old.disks[d].resident_pages(), layout.rows() as usize);
            assert_eq!(copied.disks[d].resident_pages(), written_rows, "{what}: copied disk {d}");
        }
    }

    const FILLS: [Fill; 4] = [Fill::Empty, Fill::Sparse, Fill::OnePerRow, Fill::Full];

    #[test]
    fn solver_matches_reference_single_failure() {
        // Eight stripes: every member holds data, P and (RAID-6) Q of
        // different stripes, so each failure meets each kind of row.
        for fill in FILLS {
            for make in [r5, r6] {
                let mut base = make();
                let model = filled(&mut base, fill);
                for d in 0..base.layout().disks {
                    solver_matches_reference(&base, &model, &[d]);
                }
            }
        }
    }

    #[test]
    fn solver_matches_reference_double_failure() {
        let layout = *r6().layout();
        // Which two members of a row a pair of disks takes out.
        let mut kinds = std::collections::BTreeSet::new();
        for fill in FILLS {
            let mut base = r6();
            let model = filled(&mut base, fill);
            for f1 in 0..layout.disks {
                for f2 in f1 + 1..layout.disks {
                    solver_matches_reference(&base, &model, &[f1, f2]);
                    for row in 0..layout.rows() {
                        let missing = base.missing_members(row, &[f1, f2]).unwrap();
                        kinds.insert(missing.map(|m| match m.unwrap().0 {
                            RowMember::Data(_) => 'D',
                            RowMember::P => 'P',
                            RowMember::Q => 'Q',
                        }));
                    }
                }
            }
        }
        let all = [['D', 'D'], ['D', 'P'], ['D', 'Q'], ['P', 'Q']];
        assert_eq!(kinds.into_iter().collect::<Vec<_>>(), all);
    }

    /// Real faults — a corrupted survivor read, a transient error, a
    /// second member dropping out mid-sequence, a corrupted read, a torn
    /// write and a corrupted write of a blank row inside the rebuild — hit
    /// the solver and the reference at the same device ops with the same
    /// outcomes, and leave the same bytes and the same op count behind.
    #[test]
    fn solver_matches_reference_under_injected_faults() {
        use kdd_blockdev::fault::{FaultKind, FaultPlan, FaultSpec};
        let ps = 256;
        let mut base = r6();
        filled(&mut base, Fill::Sparse);
        let reads = base.capacity_pages();
        let blank_write = FaultSpec {
            at_op: 290,
            device: FaultDomain::Disk(4),
            dir: Some(IoDir::Write),
            kind: FaultKind::CorruptPage { offset: 8, len: 8 },
        };
        let plan = || {
            let mut plan = FaultPlan::new()
                .corrupt(3, FaultDomain::Disk(0), 5, 9)
                .transient(40, FaultDomain::Disk(2))
                .drop_device(150, FaultDomain::Disk(4))
                .corrupt(250, FaultDomain::Disk(3), 0, 16)
                .torn_write(300, FaultDomain::Disk(1), 100);
            plan.specs.push(blank_write);
            plan
        };
        let (mut new, mut old) = (base.clone(), base.clone());
        let (inj_new, inj_old) = (FaultInjector::new(plan()), FaultInjector::new(plan()));
        new.attach_injector(inj_new.clone());
        old.attach_injector(inj_old.clone());
        new.fail_disk(1);
        old.fail_disk(1);
        let (mut got, mut want) = (vec![0u8; ps], vec![0u8; ps]);
        let mut errors = 0;
        for lpn in 0..reads {
            let cost = new.read_page(lpn, &mut got);
            assert_eq!(cost, old.reference_read_page(lpn, &mut want), "read_page({lpn})");
            errors += usize::from(cost.is_err());
            if cost.is_ok() {
                assert_eq!(got, want, "lpn {lpn}");
            }
            assert_eq!(inj_new.op_count(), inj_old.op_count(), "after read_page({lpn})");
        }
        // The transient fault fails one read; member 4 drops out under a
        // survivor read of another, which fails too (the next one absorbs
        // the drop and solves for two).
        assert_eq!(errors, 2);
        assert_eq!(new.failed_disks(), vec![1, 4]);
        assert!(inj_new.op_count() < 250, "the last two faults belong to the rebuild");
        let cost = new.rebuild();
        assert_eq!(cost, old.reference_rebuild());
        assert!(cost.is_ok(), "rebuild = {cost:?}");
        assert_eq!(inj_new.events(), inj_old.events());
        assert_eq!(inj_new.events().len(), 6, "every planned fault fired");
        assert_eq!(inj_new.op_count(), inj_old.op_count());
        assert_eq!(members(&new), members(&old));
        // The corrupted write landed on a row no survivor had written: the
        // replacement stores the mangled zeros there.
        let mut mangled = vec![0u8; ps];
        mangled[8..16].fill(0xFF);
        let mut buf = vec![0u8; ps];
        let rows: Vec<u64> = (0..base.layout().rows())
            .filter(|&row| {
                new.disks[4].read_page(new.row_disk_page(row), &mut buf).unwrap();
                buf == mangled
            })
            .collect();
        let blank = |row: u64| {
            [0, 2, 3, 5].iter().all(|&d| !base.disks[d].is_resident(base.row_disk_page(row)))
        };
        assert!(rows.len() == 1 && blank(rows[0]), "mangled rows {rows:?}");
    }

    /// §III-E2's rebuild must not half-finish silently: an error part-way
    /// leaves the array degraded (reads keep reconstructing), and the
    /// retry rebuilds every row.
    #[test]
    fn interrupted_rebuild_stays_degraded_and_retries_from_row_zero() {
        use kdd_blockdev::fault::FaultPlan;
        let ps = 256;
        let mut a = r5();
        let model = filled(&mut a, Fill::Full);
        a.fail_disk(2);
        // One transient read fault on a survivor, a few rows in.
        a.attach_injector(FaultInjector::new(FaultPlan::new().transient(7, FaultDomain::Disk(0))));
        let err = a.rebuild().unwrap_err();
        assert!(matches!(&err, RaidError::Dev(e) if e.is_transient()), "{err:?}");
        assert_eq!(a.failed_disks(), vec![2], "a half-written replacement is not a member");
        let mut buf = vec![0u8; ps];
        for lpn in 0..a.capacity_pages() {
            a.read_page(lpn, &mut buf).unwrap();
            assert_eq!(buf, model[lpn as usize], "degraded lpn {lpn} after the failed rebuild");
        }
        let cost = a.rebuild().unwrap();
        assert_eq!(cost.ops.len(), a.layout().rows() as usize * 5, "the retry covers every row");
        assert!(a.failed_disks().is_empty());
        for lpn in 0..a.capacity_pages() {
            a.read_page(lpn, &mut buf).unwrap();
            assert_eq!(buf, model[lpn as usize], "lpn {lpn} after the retry");
        }
        for row in 0..a.layout().rows() {
            assert_eq!(a.verify_row(row), Ok(true), "row {row}");
        }
    }

    #[test]
    fn degraded_read_rejects_a_wrong_sized_buffer() {
        let mut a = r5();
        a.fail_disk(a.layout().locate(0).disk);
        let mut short = vec![0u8; 100];
        assert!(matches!(a.read_page(0, &mut short), Err(RaidError::BadArg(_))));
    }

    #[test]
    fn cost_op_list_spills_past_its_inline_capacity() {
        let mut cost = RaidCost::default();
        for n in 0..2 * INLINE_OPS {
            cost.push(n, n as u64, if n % 2 == 0 { IoKind::Read } else { IoKind::Write });
            assert_eq!(cost.ops.len(), n + 1);
            assert!(cost.ops.iter().enumerate().all(|(i, op)| op.disk == i));
        }
        assert_eq!((cost.reads(), cost.writes()), (INLINE_OPS, INLINE_OPS));
        let mut merged = RaidCost::default();
        merged.push(99, 0, IoKind::Read);
        merged.merge(cost.clone());
        assert_eq!(merged.ops.len(), 2 * INLINE_OPS + 1);
        assert_eq!(merged.ops[1..], cost.ops[..]);
    }

    #[test]
    fn stats_account_member_ios() {
        let mut a = r5();
        let before: u64 = a.stats().iter().map(|s| s.writes).sum();
        a.write_page(0, &page(1, 256)).unwrap();
        let after: u64 = a.stats().iter().map(|s| s.writes).sum();
        assert!(after > before);
    }

    /// The reconstruction core as it stood before it learnt that members
    /// are sparse: every survivor copied into a fresh page, every row
    /// solved over whatever was read (zeros included) and written out.
    /// Kept as the differential reference for the accumulating solver —
    /// same reads in the same order, same bytes — not as a second path.
    mod reference {
        use super::super::*;

        impl RaidArray {
            /// [`RaidArray::read_page`] as it was.
            pub(in super::super) fn reference_read_page(
                &mut self,
                lpn: u64,
                buf: &mut [u8],
            ) -> Result<RaidCost, RaidError> {
                self.check_failures()?;
                let loc = self.layout.locate(lpn);
                let mut cost = RaidCost::default();
                if !self.disks[loc.disk].is_failed() {
                    match self.disk_read(loc.disk, loc.disk_page, buf, &mut cost) {
                        Ok(()) => return Ok(cost),
                        Err(RaidError::Dev(e))
                            if matches!(e, DevError::Failed { .. }) && !e.is_transient() =>
                        {
                            self.check_failures()?;
                            if !self.disks[loc.disk].is_failed() {
                                return Err(RaidError::Dev(e));
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
                if self.layout.level == RaidLevel::Raid0 {
                    return Err(RaidError::TooManyFailures);
                }
                if self.is_stale(loc.row) {
                    return Err(RaidError::StaleParity { row: loc.row });
                }
                let failed = self.failed_disks();
                let solved = self.reference_solve_missing(loc.row, &failed, &mut cost)?;
                let (_, content) = solved
                    .into_iter()
                    .find(|(m, _)| *m == RowMember::Data(loc.data_index))
                    .ok_or(RaidError::TooManyFailures)?;
                buf.copy_from_slice(&content);
                Ok(cost)
            }

            /// [`RaidArray::rebuild`] as it was: every row solved and written,
            /// the replacements healthy from the start (so without the re-fail
            /// on an error exit).
            pub(in super::super) fn reference_rebuild(&mut self) -> Result<RaidCost, RaidError> {
                self.check_failures()?;
                if let Some(&row) = self.stale_rows.iter().next() {
                    return Err(RaidError::StaleParity { row });
                }
                let failed = self.failed_disks();
                if failed.is_empty() {
                    return Ok(RaidCost::default());
                }
                for &d in &failed {
                    self.disks[d].replace();
                }
                let mut cost = RaidCost::default();
                // Reconstruct row by row; the replacement disks are zero-filled so
                // we re-derive their content from the survivors.
                for row in 0..self.layout.rows() {
                    let solved = self.reference_solve_missing(row, &failed, &mut cost)?;
                    let stripe = self.layout.stripe_of_row(row);
                    let dp = self.row_disk_page(row);
                    for (member, content) in solved {
                        let disk = match member {
                            RowMember::Data(d) => self.layout.data_disk(stripe, d),
                            RowMember::P => self.layout.parity_disk(stripe).ok_or(
                                RaidError::Inconsistent("P member solved on parity-less layout"),
                            )?,
                            RowMember::Q => self.layout.q_disk(stripe).ok_or(
                                RaidError::Inconsistent("Q member solved on non-RAID-6 layout"),
                            )?,
                        };
                        self.disk_write(disk, dp, &content, &mut cost)?;
                    }
                }
                Ok(cost)
            }

            /// Solve for the contents of every row member whose disk is in
            /// `excluded`, reading only surviving members. Handles every single-
            /// and double-erasure case RAID-6 tolerates.
            fn reference_solve_missing(
                &mut self,
                row: u64,
                excluded: &[usize],
                cost: &mut RaidCost,
            ) -> Result<Vec<(RowMember, Vec<u8>)>, RaidError> {
                let ps = self.page_size as usize;
                let stripe = self.layout.stripe_of_row(row);
                let dp = self.row_disk_page(row);
                let dd = self.layout.data_disks();
                let is_excluded = |disk: usize| excluded.contains(&disk);

                let missing_data: Vec<usize> =
                    (0..dd).filter(|&d| is_excluded(self.layout.data_disk(stripe, d))).collect();
                let p_disk = self.layout.parity_disk(stripe);
                let q_disk = self.layout.q_disk(stripe);
                let p_missing = p_disk.is_some_and(is_excluded);
                let q_missing = q_disk.is_some_and(is_excluded);
                if missing_data.is_empty() && !p_missing && !q_missing {
                    return Ok(Vec::new());
                }

                // Read every surviving data member once.
                let mut data: Vec<Option<Vec<u8>>> = vec![None; dd];
                #[allow(clippy::needless_range_loop)]
                for d in 0..dd {
                    if !missing_data.contains(&d) {
                        let disk = self.layout.data_disk(stripe, d);
                        let mut buf = vec![0u8; ps];
                        self.disk_read(disk, dp, &mut buf, cost)?;
                        data[d] = Some(buf);
                    }
                }
                let read_parity = |this: &mut Self,
                                   loc: Option<(usize, u64)>,
                                   cost: &mut RaidCost|
                 -> Result<Vec<u8>, RaidError> {
                    let (pd, pp) = loc.ok_or(RaidError::TooManyFailures)?;
                    let mut buf = vec![0u8; ps];
                    this.disk_read(pd, pp, &mut buf, cost)?;
                    Ok(buf)
                };

                // Recover missing data members first.
                match missing_data.len() {
                    0 => {}
                    1 => {
                        let x = missing_data[0];
                        if !p_missing && p_disk.is_some() {
                            // D_x = P ⊕ Σ_{d≠x} D_d
                            let mut out =
                                read_parity(self, self.layout.parity_location(row), cost)?;
                            for (_d, page) in data.iter().enumerate().filter(|(d, _)| *d != x) {
                                let page = page
                                    .as_ref()
                                    .ok_or(RaidError::Inconsistent("survivor page not read"))?;
                                xor_into(&mut out, page);
                            }
                            data[x] = Some(out);
                        } else if !q_missing && q_disk.is_some() {
                            // D_x = (Q ⊕ Σ_{d≠x} g^d·D_d) / g^x
                            let mut acc = read_parity(self, self.layout.q_location(row), cost)?;
                            for (d, page) in data.iter().enumerate().filter(|(d, _)| *d != x) {
                                let page = page
                                    .as_ref()
                                    .ok_or(RaidError::Inconsistent("survivor page not read"))?;
                                gf256::mul_slice_into(&mut acc, page, gf256::pow_g(d));
                            }
                            let mut out = vec![0u8; ps];
                            gf256::mul_slice_into(&mut out, &acc, gf256::inv(gf256::pow_g(x)));
                            data[x] = Some(out);
                        } else {
                            return Err(RaidError::TooManyFailures);
                        }
                    }
                    2 => {
                        if p_missing || q_missing {
                            return Err(RaidError::TooManyFailures);
                        }
                        let (x, y) = (missing_data[0], missing_data[1]);
                        // a = P ⊕ Σ survivors = D_x ⊕ D_y
                        // b = Q ⊕ Σ g^d survivors = g^x·D_x ⊕ g^y·D_y
                        let mut a = read_parity(self, self.layout.parity_location(row), cost)?;
                        let mut b = read_parity(self, self.layout.q_location(row), cost)?;
                        for (d, page) in data.iter().enumerate().filter(|(d, _)| *d != x && *d != y)
                        {
                            let page = page
                                .as_ref()
                                .ok_or(RaidError::Inconsistent("survivor page not read"))?;
                            gf256::mul2_slice_into(&mut a, &mut b, page, gf256::pow_g(d));
                        }
                        // D_x = (b ⊕ g^y·a) / (g^x ⊕ g^y); D_y = a ⊕ D_x
                        let gx = gf256::pow_g(x);
                        let gy = gf256::pow_g(y);
                        let mut num = b;
                        gf256::mul_slice_into(&mut num, &a, gy);
                        let mut dx = vec![0u8; ps];
                        gf256::mul_slice_into(&mut dx, &num, gf256::inv(gx ^ gy));
                        let mut dy = a;
                        xor_into(&mut dy, &dx);
                        data[x] = Some(dx);
                        data[y] = Some(dy);
                    }
                    _ => return Err(RaidError::TooManyFailures),
                }

                // With all data known, recompute any missing parity.
                let mut out = Vec::new();
                for d in missing_data {
                    let page = data
                        .get(d)
                        .and_then(|p| p.clone())
                        .ok_or(RaidError::Inconsistent("solver left a data member unsolved"))?;
                    out.push((RowMember::Data(d), page));
                }
                if p_missing {
                    let mut p = vec![0u8; ps];
                    for page in data.iter().flatten() {
                        xor_into(&mut p, page);
                    }
                    out.push((RowMember::P, p));
                }
                if q_missing {
                    let mut q = vec![0u8; ps];
                    for (d, page) in data.iter().enumerate() {
                        let page = page
                            .as_ref()
                            .ok_or(RaidError::Inconsistent("solver left a data member unsolved"))?;
                        gf256::mul_slice_into(&mut q, page, gf256::pow_g(d));
                    }
                    out.push((RowMember::Q, q));
                }
                Ok(out)
            }
        }
    }
}
