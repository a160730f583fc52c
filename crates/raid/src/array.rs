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

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::gf256;
use crate::layout::{Layout, RaidLevel};
use kdd_blockdev::error::{DevError, FaultDomain};
use kdd_blockdev::fault::FaultInjector;
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

/// A list of [`DiskOp`]s in issue order, read as a slice. The first
/// [`INLINE_OPS`] live in the value itself; a longer list (resync,
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
    injector: Option<FaultInjector>,
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
            injector: None,
            pool: PagePool::new(page_size as usize),
        }
    }

    /// Route every member-disk I/O through `injector`, member `i` reporting
    /// itself as [`FaultDomain::Disk`]`(i)`.
    pub fn attach_injector(&mut self, injector: FaultInjector) {
        for (i, disk) in self.disks.iter_mut().enumerate() {
            // kdd-waiver(KDD006): one-time attach; FaultInjector is an Arc handle, clone is a refcount bump.
            disk.attach_injector(injector.clone(), FaultDomain::Disk(i as u32));
        }
        self.injector = Some(injector);
    }

    /// Fold injector-declared device drops into the array's failure state so
    /// subsequent operations take the degraded paths. Called at every public
    /// entry point; cheap when no injector is attached.
    fn absorb_faults(&mut self) {
        // kdd-waiver(KDD006): FaultInjector is an Arc handle; clone is a refcount bump, not a page copy.
        let Some(inj) = self.injector.clone() else { return };
        for d in 0..self.disks.len() {
            if !self.disks[d].is_failed() && inj.is_dead(FaultDomain::Disk(d as u32)) {
                self.disks[d].fail();
            }
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

    fn check_failures(&mut self) -> Result<(), RaidError> {
        self.absorb_faults();
        let failed = self.failed_disks().len();
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

    /// [`RaidArray::disk_read`] without the copy: the member lends the page
    /// ([`MemStore::page`]).
    fn disk_page(
        &mut self,
        disk: usize,
        disk_page: u64,
        cost: &mut RaidCost,
    ) -> Result<&[u8], RaidError> {
        let page = self.disks[disk].page(disk_page)?;
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

    /// Read-modify-write a row's P and Q pages through one fused `f(p, q)`:
    /// read P, read Q, write P, write Q. With a fault injector attached the
    /// four ops run in exactly that order on pooled copies — fault plans
    /// index the global op sequence — otherwise both pages are folded where
    /// they lie.
    fn disk_update_pq(
        &mut self,
        (pd, pp): (usize, u64),
        (qd, qp): (usize, u64),
        cost: &mut RaidCost,
        f: impl FnOnce(&mut [u8], &mut [u8]),
    ) -> Result<(), RaidError> {
        if self.injector.is_some() {
            let mut p = self.pool.acquire_scratch();
            self.disk_read(pd, pp, &mut p, cost)?;
            let mut q = self.pool.acquire_scratch();
            self.disk_read(qd, qp, &mut q, cost)?;
            f(&mut p, &mut q);
            self.disk_write(pd, pp, &p, cost)?;
            self.disk_write(qd, qp, &q, cost)?;
            self.pool.release(p);
            self.pool.release(q);
            return Ok(());
        }
        if pd == qd {
            return Err(RaidError::Inconsistent("P and Q of a row share a member"));
        }
        let (low, high) = self.disks.split_at_mut(pd.max(qd));
        let (p_disk, q_disk) =
            if pd < qd { (&mut low[pd], &mut high[0]) } else { (&mut high[0], &mut low[qd]) };
        p_disk.update_page(pp, |p| q_disk.update_page(qp, |q| f(p, q)))??;
        for kind in [IoKind::Read, IoKind::Write] {
            self.account(pd, pp, kind, cost);
            self.account(qd, qp, kind, cost);
        }
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
        let failed = self.failed_disks();
        let solved = self.solve_missing(loc.row, &failed, &mut cost)?;
        let (_, content) = solved
            .into_iter()
            .find(|(m, _)| *m == RowMember::Data(loc.data_index))
            .ok_or(RaidError::TooManyFailures)?;
        buf.copy_from_slice(&content);
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
            let old = self.disk_page(loc.disk, loc.disk_page, &mut cost)?;
            xor_pages_into(&mut delta, old, data);
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
            // Reconstruct-write: fold every other data page, lent by its
            // member, into the new data.
            let mut p = self.pool.acquire_from(data);
            let mut q = self.pool.acquire();
            if q_loc.is_some() {
                gf256::mul_slice_into(&mut q, data, gf256::pow_g(loc.data_index));
            }
            for d in others() {
                let disk = self.layout.data_disk(loc.stripe, d);
                // Same offset across the row.
                let page = self.disk_page(disk, loc.disk_page, &mut cost)?;
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
        data: &[&[u8]],
    ) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        if data.len() != self.layout.row_width() {
            return Err(RaidError::BadArg("need every data page of the row"));
        }
        let ps = self.page_size as usize;
        if data.iter().any(|d| d.len() != ps) {
            return Err(RaidError::BadArg("data pages must be page-sized"));
        }
        let mut cost = RaidCost::default();
        let q_target = self.layout.q_location(row).filter(|&(qd, _)| !self.disks[qd].is_failed());
        let mut p = self.pool.acquire();
        let mut q = self.pool.acquire();
        for (d, page) in data.iter().enumerate() {
            if q_target.is_some() {
                // One pass per member: P ⊕= D, Q ⊕= g^d·D.
                gf256::mul2_slice_into(&mut p, &mut q, page, gf256::pow_g(d));
            } else {
                xor_into(&mut p, page);
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
        deltas: &[(usize, &[u8])],
    ) -> Result<RaidCost, RaidError> {
        self.check_failures()?;
        let ps = self.page_size as usize;
        if deltas.iter().any(|(d, buf)| *d >= self.layout.row_width() || buf.len() != ps) {
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
                        gf256::mul2_slice_into(p, q, delta, gf256::pow_g(*d));
                    }
                })?;
            }
            _ => {
                if let Some((pd, pp)) = p_target {
                    self.disk_update(pd, pp, &mut cost, |p| {
                        for (_, delta) in deltas {
                            xor_into(p, delta);
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
            // kdd-waiver(KDD006): row-id list copied once per resync call, not per page.
            Some(r) => r.to_vec(),
            None => self.stale_rows.iter().copied().collect(),
        };
        let mut cost = RaidCost::default();
        for row in targets {
            let lpns = self.layout.row_lpns(row);
            let mut pages: Vec<Box<[u8]>> = Vec::with_capacity(lpns.len());
            for &lpn in &lpns {
                let loc = self.layout.locate(lpn);
                if self.disks[loc.disk].is_failed() {
                    return Err(RaidError::DiskFailed { disk: loc.disk });
                }
                let mut buf = self.pool.acquire_scratch();
                self.disk_read(loc.disk, loc.disk_page, &mut buf, &mut cost)?;
                pages.push(buf);
            }
            let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_ref()).collect();
            let sub = self.parity_update_with_data(row, &refs)?;
            drop(refs);
            for page in pages {
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
            if let Some(inj) = &self.injector {
                // A drop is cured by the replacement; a persistent fault
                // immediately re-fails the new disk on its next absorb.
                inj.on_replace(FaultDomain::Disk(d as u32));
            }
        }
        let mut cost = RaidCost::default();
        // Reconstruct row by row; the replacement disks are zero-filled so
        // we re-derive their content from the survivors.
        for row in 0..self.layout.rows() {
            let solved = self.solve_missing(row, &failed, &mut cost)?;
            let stripe = self.layout.stripe_of_row(row);
            let dp = self.row_disk_page(row);
            for (member, content) in solved {
                let disk =
                    match member {
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

    fn row_disk_page(&self, row: u64) -> u64 {
        let stripe = self.layout.stripe_of_row(row);
        stripe * self.layout.chunk_pages + row % self.layout.chunk_pages
    }

    // ---- reconstruction core ----------------------------------------------

    /// Solve for the contents of every row member whose disk is in
    /// `excluded`, reading only surviving members. Handles every single-
    /// and double-erasure case RAID-6 tolerates.
    fn solve_missing(
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
                // kdd-waiver(KDD006): degraded-mode reconstruction; survivor pages outlive the solver.
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
            // kdd-waiver(KDD006): degraded-mode reconstruction; the parity page is returned by value.
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
                    let mut out = read_parity(self, self.layout.parity_location(row), cost)?;
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
                    // kdd-waiver(KDD006): degraded-mode reconstruction; the solved page is handed back by value.
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
                for (d, page) in data.iter().enumerate().filter(|(d, _)| *d != x && *d != y) {
                    let page =
                        page.as_ref().ok_or(RaidError::Inconsistent("survivor page not read"))?;
                    gf256::mul2_slice_into(&mut a, &mut b, page, gf256::pow_g(d));
                }
                // D_x = (b ⊕ g^y·a) / (g^x ⊕ g^y); D_y = a ⊕ D_x
                let gx = gf256::pow_g(x);
                let gy = gf256::pow_g(y);
                let mut num = b;
                gf256::mul_slice_into(&mut num, &a, gy);
                // kdd-waiver(KDD006): degraded-mode reconstruction; the solved page is handed back by value.
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
                // kdd-waiver(KDD006): degraded-mode reconstruction; the recovered page is returned by value.
                .and_then(|p| p.clone())
                .ok_or(RaidError::Inconsistent("solver left a data member unsolved"))?;
            out.push((RowMember::Data(d), page));
        }
        if p_missing {
            // kdd-waiver(KDD006): degraded-mode reconstruction; the rebuilt parity is returned by value.
            let mut p = vec![0u8; ps];
            for page in data.iter().flatten() {
                xor_into(&mut p, page);
            }
            out.push((RowMember::P, p));
        }
        if q_missing {
            // kdd-waiver(KDD006): degraded-mode reconstruction; the rebuilt parity is returned by value.
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

    /// Verify parity consistency of one row (tests/diagnostics). Stale
    /// rows are expected to fail verification.
    pub fn verify_row(&mut self, row: u64) -> Result<bool, RaidError> {
        let lpns = self.layout.row_lpns(row);
        let mut p = self.pool.acquire();
        let mut q = self.pool.acquire();
        let mut buf = self.pool.acquire_scratch();
        let mut cost = RaidCost::default();
        for (d, &lpn) in lpns.iter().enumerate() {
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
        let lpns = a.layout().row_lpns(row);
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
        let lpns = a.layout().row_lpns(row);
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
        let lpns = a.layout().row_lpns(row);
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
        let victim_lpn = a.layout().row_lpns(row)[1];
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
        let lpns = a.layout().row_lpns(row);
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
    /// same shape: `lent` folds pages where they lie, `copied` has an
    /// empty-plan injector attached and so takes the pooled-copy paths.
    /// Every result (cost op list or error), every byte read, every
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
                        layout.row_lpns(row).iter().map(|&l| &current[l as usize][..]).collect();
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
}
