//! The RAID array: parity maintenance, degraded operation, rebuild, and
//! the two extra interfaces KDD needs.
//!
//! Beyond a textbook RAID-5/6, this array implements the paper's §III-A
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
//! The parity equation is coded once per direction. *One row solve*
//! computes parity from data — the members on failed disks for degraded
//! reads and [`RaidArray::rebuild`], P and Q for every other caller — over
//! data pages the caller supplies or the members lend; one write-back
//! stores what it solved. *One delta fold* folds `D_old ⊕ D_new` into
//! parity where it lies. Every member read lends ([`MemStore::lend`]);
//! only `read_page` copies, once, into its caller's buffer.
//!
//! The row solve honours the members' sparseness. A page lent as
//! *unwritten* — it reads as zeros because nothing is stored — is booked
//! in [`DiskStats`] like any other read and folds nothing. A row that
//! folded no bytes solves to zeros, stored through
//! [`MemStore::write_zeros`]: such a row costs the accounting of its
//! member I/Os and nothing else.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::gf256;
use crate::layout::Layout;
use kdd_blockdev::error::{DevError, FaultDomain};
use kdd_blockdev::fault::{FaultInjector, IoDir};
use kdd_blockdev::store::MemStore;
use kdd_delta::{xor_into, xor_pages_into};
use kdd_util::hash::FastSet;
use kdd_util::PagePool;

/// Member-disk I/O counts: the [`DiskStats`] ledger summed over the members
/// ([`RaidArray::totals`]), or what it gained over a call
/// ([`RaidArray::cost_since`]) — the input to the timing layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaidCost {
    /// Member reads.
    pub reads: u64,
    /// Member writes.
    pub writes: u64,
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
#[derive(Debug, Clone, Copy, Default)]
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

    /// The member I/O ledger: each member's completed reads and writes.
    pub fn stats(&self) -> &[DiskStats] {
        &self.stats
    }

    /// The ledger summed over the members: every member op booked since
    /// the array was built.
    pub fn totals(&self) -> RaidCost {
        RaidCost {
            reads: self.stats.iter().map(|s| s.reads).sum(),
            writes: self.stats.iter().map(|s| s.writes).sum(),
        }
    }

    /// What the ledger gained since `start`, an earlier
    /// [`RaidArray::totals`].
    pub fn cost_since(&self, start: RaidCost) -> RaidCost {
        let now = self.totals();
        RaidCost { reads: now.reads - start.reads, writes: now.writes - start.writes }
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

    /// Book one completed member operation in the ledger.
    fn account(&mut self, disk: usize, dir: IoDir) {
        match dir {
            IoDir::Read => self.stats[disk].reads += 1,
            IoDir::Write => self.stats[disk].writes += 1,
        }
    }

    fn disk_write(&mut self, disk: usize, disk_page: u64, data: &[u8]) -> Result<(), RaidError> {
        self.disks[disk].write_page(disk_page, data)?;
        self.account(disk, IoDir::Write);
        Ok(())
    }

    /// Read one member page as the member lends it, `None` for an unwritten
    /// one that reads as zeros ([`MemStore::lend`]).
    fn disk_page(&mut self, disk: usize, disk_page: u64) -> Result<Option<&[u8]>, RaidError> {
        let page = self.disks[disk].lend(disk_page)?;
        // Booked by hand: `page` borrows `disks`, so `account` cannot run.
        self.stats[disk].reads += 1;
        Ok(page)
    }

    /// Read-modify-write one member page through `f` — a read then a write
    /// of that member, in place when it can be ([`MemStore::update_page`]).
    fn disk_update(
        &mut self,
        disk: usize,
        disk_page: u64,
        f: impl FnOnce(&mut [u8]),
    ) -> Result<(), RaidError> {
        self.disks[disk].update_page(disk_page, f)?;
        self.account(disk, IoDir::Read);
        self.account(disk, IoDir::Write);
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
        f: impl FnOnce(&mut [u8], &mut [u8]),
    ) -> Result<(), RaidError> {
        if pd == qd {
            return Err(RaidError::Inconsistent("P and Q of a row share a member"));
        }
        let p_read = self.disks[pd].issue(pp, IoDir::Read)?;
        self.account(pd, IoDir::Read);
        let q_read = self.disks[qd].issue(qp, IoDir::Read)?;
        self.account(qd, IoDir::Read);
        let p_write = Ok(self.disks[pd].issue(pp, IoDir::Write)?);
        let q_write = self.disks[qd].issue(qp, IoDir::Write);
        let (low, high) = self.disks.split_at_mut(pd.max(qd));
        let (p_disk, q_disk) =
            if pd < qd { (&mut low[pd], &mut high[0]) } else { (&mut high[0], &mut low[qd]) };
        let q_landed = p_disk.update_issued(pp, &p_read, p_write, |p| {
            q_disk.update_issued(qp, &q_read, q_write, |q| f(p, q))
        })?;
        self.account(pd, IoDir::Write);
        q_landed?;
        self.account(qd, IoDir::Write);
        Ok(())
    }

    /// Fold per-member `deltas` — `(d, D_old ⊕ D_new)` — into the parity
    /// where it lies, on whichever of `p` and `q` is given: `P ⊕= Δ`,
    /// `Q ⊕= g^d·Δ`, P and Q in one fused pass. The one place a delta
    /// meets parity.
    fn fold_deltas(
        &mut self,
        p: Option<(usize, u64)>,
        q: Option<(usize, u64)>,
        deltas: &[(usize, impl AsRef<[u8]>)],
    ) -> Result<(), RaidError> {
        let deltas = || deltas.iter().map(|(d, delta)| (gf256::pow_g(*d), delta.as_ref()));
        match (p, q) {
            (Some(p), Some(q)) => self.disk_update_pq(p, q, |p, q| {
                deltas().for_each(|(g, delta)| gf256::mul2_slice_into(p, q, delta, g));
            }),
            (Some((pd, pp)), None) => {
                self.disk_update(pd, pp, |p| deltas().for_each(|(_, delta)| xor_into(p, delta)))
            }
            (None, Some((qd, qp))) => self.disk_update(qd, qp, |q| {
                deltas().for_each(|(g, delta)| gf256::mul_slice_into(q, delta, g));
            }),
            (None, None) => Ok(()),
        }
    }

    // ---- reads ----------------------------------------------------------

    /// Read a logical page, reconstructing from redundancy if its member
    /// disk is failed.
    pub fn read_page(&mut self, lpn: u64, buf: &mut [u8]) -> Result<(), RaidError> {
        self.check_failures()?;
        if buf.len() != self.page_size as usize {
            return Err(RaidError::BadArg("buffer must be one page"));
        }
        let loc = self.layout.locate(lpn);
        if !self.disks[loc.disk].is_failed() {
            match self.disk_page(loc.disk, loc.disk_page) {
                Ok(page) => {
                    match page {
                        Some(page) => buf.copy_from_slice(page),
                        None => buf.fill(0),
                    }
                    return Ok(());
                }
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
        if self.is_stale(loc.row) {
            return Err(RaidError::StaleParity { row: loc.row });
        }
        let missing = self.missing_members(loc.row, &self.failed_disks())?;
        // The solver leaves each lost member in the buffer of its slot:
        // the wanted page is solved straight into the caller's.
        let wanted = missing
            .iter()
            .position(|m| m.is_some_and(|(m, _)| m == RowMember::Data(loc.data_index)))
            .ok_or(RaidError::TooManyFailures)?;
        let mut other = self.pool.acquire_scratch();
        let out = if wanted == 0 { [&mut *buf, &mut *other] } else { [&mut *other, &mut *buf] };
        let blank = self.solve_missing(loc.row, missing, |_| None, out)?;
        self.pool.release(other);
        if blank {
            buf.fill(0);
        }
        Ok(())
    }

    // ---- full-parity writes (the conventional path) ---------------------

    /// Write a logical page with a full parity update (read-modify-write
    /// or reconstruct-write, whichever needs fewer reads) — the paper's
    /// "small write" the cache is trying to avoid.
    pub fn write_page(&mut self, lpn: u64, data: &[u8]) -> Result<(), RaidError> {
        self.check_failures()?;
        if data.len() != self.page_size as usize {
            return Err(RaidError::BadArg("data must be one page"));
        }
        let loc = self.layout.locate(lpn);
        let failed = |disk: usize| self.disks[disk].is_failed();
        let target_failed = failed(loc.disk);
        let dd = self.layout.data_disks();
        let others_alive = (0..dd)
            .filter(|&d| d != loc.data_index)
            .all(|d| !failed(self.layout.data_disk(loc.stripe, d)));
        let q_loc = self.layout.q_location(loc.row);
        let live = |at: Option<(usize, u64)>| at.filter(|&(disk, _)| !failed(disk));
        let (p, q) = (live(Some(self.layout.parity_location(loc.row))), live(q_loc));

        // RMW needs the target's old data and the old parity; reconstruct
        // needs every *other* data page. Pick what is possible, then what
        // is cheaper (fewer reads).
        let rmw_possible =
            !target_failed && !self.is_stale(loc.row) && (p.is_some() || q_loc.is_none());
        if !rmw_possible && !others_alive {
            return Err(RaidError::TooManyFailures);
        }
        let rmw_reads = 1 + p.is_some() as usize + q.is_some() as usize;
        // Reconstruct-write reads the `dd - 1` other data pages.
        let use_rmw = rmw_possible && (!others_alive || rmw_reads < dd);

        // Crash window: from here until the final member write the row's
        // data and parity may disagree. Mark it stale up front so a power
        // loss mid-sequence leaves a mark recovery can resync from; the
        // mark is cleared once the row is consistent again.
        self.stale_rows.insert(loc.row);

        if use_rmw {
            // `P ^= D_old ^ D_new` on the live parity: the delta is formed
            // from the lent old page in one pass. The pooled buffer is
            // dropped on the (cold) error paths.
            let mut delta = self.pool.acquire_scratch();
            match self.disk_page(loc.disk, loc.disk_page)? {
                Some(old) => xor_pages_into(&mut delta, old, data),
                None => delta.copy_from_slice(data),
            }
            self.fold_deltas(p, q, &[(loc.data_index, &*delta)])?;
            self.pool.release(delta);
        } else {
            // Reconstruct-write: parity solved from the new page and every
            // other data page, lent by its member.
            let parity = self.parity_members(loc.row);
            self.solve_and_store(loc.row, parity, |d| (d == loc.data_index).then_some(data))?;
        }

        if !target_failed {
            self.disk_write(loc.disk, loc.disk_page, data)?;
        }
        // Every write completed: data and parity agree again. (RMW was only
        // chosen on a previously-clean row; reconstruct-write recomputes
        // parity from all members, repairing any prior staleness too.)
        self.stale_rows.remove(&loc.row);
        Ok(())
    }

    // ---- KDD interfaces --------------------------------------------------

    /// Write data *without* updating parity (§III-A): one member write;
    /// the row is marked stale until a `parity_update` repairs it.
    pub fn write_no_parity_update(&mut self, lpn: u64, data: &[u8]) -> Result<(), RaidError> {
        self.check_failures()?;
        if data.len() != self.page_size as usize {
            return Err(RaidError::BadArg("data must be one page"));
        }
        let loc = self.layout.locate(lpn);
        if self.disks[loc.disk].is_failed() {
            return Err(RaidError::DiskFailed { disk: loc.disk });
        }
        self.disk_write(loc.disk, loc.disk_page, data)?;
        self.stale_rows.insert(loc.row);
        Ok(())
    }

    /// Repair a stale row by reconstruct-write: the caller supplies every
    /// data page of the row (KDD has them all in cache), so no member
    /// reads are needed — only the parity write(s).
    pub fn parity_update_with_data(
        &mut self,
        row: u64,
        data: &[impl AsRef<[u8]>],
    ) -> Result<(), RaidError> {
        self.check_failures()?;
        if data.len() != self.layout.row_width() {
            return Err(RaidError::BadArg("need every data page of the row"));
        }
        if data.iter().any(|d| d.as_ref().len() != self.page_size as usize) {
            return Err(RaidError::BadArg("data pages must be page-sized"));
        }
        self.solve_and_store(row, self.parity_members(row), |d| data.get(d).map(AsRef::as_ref))?;
        self.stale_rows.remove(&row);
        Ok(())
    }

    /// Repair a stale row by read-modify-write: read the stale parity and
    /// fold in the accumulated per-member deltas (each delta is the XOR of
    /// the member's pre-stale content with its current content).
    pub fn parity_update_rmw(
        &mut self,
        row: u64,
        deltas: &[(usize, impl AsRef<[u8]>)],
    ) -> Result<(), RaidError> {
        self.check_failures()?;
        let ps = self.page_size as usize;
        if deltas.iter().any(|(d, buf)| *d >= self.layout.row_width() || buf.as_ref().len() != ps) {
            return Err(RaidError::BadArg("delta index or size out of range"));
        }
        let (p, q) = (self.layout.parity_location(row), self.layout.q_location(row));
        // A dead parity member has nothing to fold into: refuse before
        // touching the other one.
        if let Some(&(disk, _)) =
            std::iter::once(&p).chain(&q).find(|(d, _)| self.disks[*d].is_failed())
        {
            return Err(RaidError::DiskFailed { disk });
        }
        self.fold_deltas(Some(p), q, deltas)?;
        self.stale_rows.remove(&row);
        Ok(())
    }

    /// Re-synchronise rows by reading the data members and recomputing
    /// parity — the recovery path after losing the SSD cache (§III-E2).
    /// With `rows = None` every stale row is repaired. A row whose data
    /// members are all unwritten gets zeros through
    /// [`MemStore::write_zeros`], as a rebuild stores them.
    pub fn resync(&mut self, rows: Option<&[u64]>) -> Result<(), RaidError> {
        self.check_failures()?;
        let targets =
            rows.map_or_else(|| self.stale_rows.iter().copied().collect(), <[u64]>::to_vec);
        for row in targets {
            self.solve_and_store(row, self.parity_members(row), |_| None)?;
            self.stale_rows.remove(&row);
        }
        Ok(())
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
    pub fn rebuild(&mut self) -> Result<(), RaidError> {
        self.check_failures()?;
        if let Some(&row) = self.stale_rows.iter().next() {
            return Err(RaidError::StaleParity { row });
        }
        let failed = self.failed_disks();
        if failed.is_empty() {
            return Ok(());
        }
        for &d in &failed {
            self.disks[d].replace();
        }
        // Every row's share of the replacements, solved from the survivors.
        let rebuilt = (0..self.layout.rows()).try_for_each(|row| {
            let missing = self.missing_members(row, &failed)?;
            self.solve_and_store(row, missing, |_| None)
        });
        if rebuilt.is_err() {
            // A half-written replacement must not pass for a member: the
            // rows not reached yet would read back as zeros.
            for &d in &failed {
                self.disks[d].fail();
            }
        }
        rebuilt
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
            (RowMember::P, Some(self.layout.parity_disk(stripe))),
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

    /// `row`'s parity members, P then Q, each with its disk: what a parity
    /// computation solves for.
    fn parity_members(&self, row: u64) -> Missing {
        let (pd, _) = self.layout.parity_location(row);
        let q = self.layout.q_location(row);
        [Some((RowMember::P, pd)), q.map(|(qd, _)| (RowMember::Q, qd))]
    }

    /// Solve `row` for its `missing` members ([`RaidArray::solve_missing`])
    /// and write each to its member unless that member is failed: the one
    /// write-back, a blank row's zeros through [`MemStore::write_zeros`].
    fn solve_and_store<'s>(
        &mut self,
        row: u64,
        missing: Missing,
        supplied: impl Fn(usize) -> Option<&'s [u8]>,
    ) -> Result<(), RaidError> {
        let mut solved = [self.pool.acquire_scratch(), self.pool.acquire_scratch()];
        let blank =
            self.solve_missing(row, missing, supplied, solved.each_mut().map(|b| &mut **b))?;
        let dp = self.row_disk_page(row);
        for (lost, content) in missing.iter().zip(&solved) {
            let Some((_, disk)) = lost.filter(|m| !self.disks[m.1].is_failed()) else { continue };
            if blank {
                self.disks[disk].write_zeros(dp)?;
                self.account(disk, IoDir::Write);
            } else {
                self.disk_write(disk, dp, content)?;
            }
        }
        solved.into_iter().for_each(|b| self.pool.release(b));
        Ok(())
    }

    /// Solve `row` for its `missing` members from the others, leaving
    /// member `i` in `out[i]`: the one place parity is computed from data.
    /// Handles every single- and double-erasure case RAID-6 tolerates, and
    /// P and Q from the data.
    ///
    /// The other members are taken in a fixed order — data by index, then
    /// P, then Q, each only if the solution needs it — and folded one at a
    /// time into two running sums held in `out`: `a`, the plain XOR, and
    /// `b`, the `g^d`-weighted one. Data member `d` is `supplied(d)` where
    /// the caller gives it, and read otherwise: refused with
    /// [`RaidError::DiskFailed`] on a failed member, lent by a live one. A
    /// member lent as unwritten ([`RaidArray::disk_page`]) would fold
    /// zeros: its read is booked and nothing else.
    ///
    /// Returns `true`, with `out` untouched, for a *blank* row: nothing
    /// folded any bytes, so every missing member is zeros.
    fn solve_missing<'s>(
        &mut self,
        row: u64,
        missing: Missing,
        supplied: impl Fn(usize) -> Option<&'s [u8]>,
        [first, second]: [&mut [u8]; 2],
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
        let p_loc = (!p_lost).then(|| self.layout.parity_location(row));
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
            let given = if let RowMember::Data(d) = member { supplied(d) } else { None };
            let page = match given {
                Some(page) => Some(page),
                None if self.disks[disk].is_failed() => return Err(RaidError::DiskFailed { disk }),
                None => self.disk_page(disk, disk_page)?,
            };
            let Some(page) = page else { continue };
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

    /// Verify parity consistency of one row (tests/diagnostics): P and Q
    /// solved from the data, against the lent ones. Stale rows are expected
    /// to fail verification.
    pub fn verify_row(&mut self, row: u64) -> Result<bool, RaidError> {
        let parity = self.parity_members(row);
        // Zeroed: a blank row leaves them so.
        let mut solved = [self.pool.acquire(), self.pool.acquire()];
        self.solve_missing(row, parity, |_| None, solved.each_mut().map(|b| &mut **b))?;
        let dp = self.row_disk_page(row);
        // A mismatch short-circuits: Q is not read when P already disagrees.
        let (mut members, mut ok) = (parity.iter().flatten().zip(&solved), true);
        while let Some((&(_, disk), want)) = members.next().filter(|_| ok) {
            let page = self.disk_page(disk, dp)?;
            ok = page.map_or_else(|| want.iter().all(|&b| b == 0), |page| page == &want[..]);
        }
        solved.into_iter().for_each(|b| self.pool.release(b));
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
/// solved for), each with the disk it lives on; a `None` only follows
/// the members.
type Missing = [Option<(RowMember, usize)>; 2];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RaidLevel;
    use kdd_blockdev::fault::FaultPlan;

    fn page(tag: u8, ps: usize) -> Vec<u8> {
        (0..ps).map(|i| tag ^ (i as u8).wrapping_mul(31)).collect()
    }

    fn r5() -> RaidArray {
        RaidArray::new(Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8), 256)
    }

    fn r6() -> RaidArray {
        RaidArray::new(Layout::new(RaidLevel::Raid6, 6, 4, 4 * 8), 256)
    }

    /// `call`'s result, with what the member ledger gained over it.
    fn costed<T>(a: &mut RaidArray, call: impl FnOnce(&mut RaidArray) -> T) -> (T, RaidCost) {
        let start = a.totals();
        let out = call(a);
        (out, a.cost_since(start))
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
        let (done, cost) = costed(&mut a, |a| a.write_page(0, &page(2, ps)));
        done.unwrap();
        // RMW on 5-disk RAID5: read old data + old parity, write data +
        // parity — but reconstruct (3 reads) may win only for 3 disks, so
        // here expect exactly 2+2.
        assert_eq!(cost.reads, 2, "{cost:?}");
        assert_eq!(cost.writes, 2);
    }

    #[test]
    fn small_write_costs_six_ios_r6() {
        let mut a = r6();
        let ps = 256;
        a.write_page(0, &page(1, ps)).unwrap();
        let (done, cost) = costed(&mut a, |a| a.write_page(0, &page(2, ps)));
        done.unwrap();
        assert_eq!(cost.reads, 3);
        assert_eq!(cost.writes, 3);
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
        let (done, cost) = costed(&mut a, |a| a.write_no_parity_update(0, &page(2, ps)));
        done.unwrap();
        assert_eq!(cost.reads, 0);
        assert_eq!(cost.writes, 1, "exactly one member write");
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
        let (done, cost) =
            costed(&mut a, |a| a.parity_update_with_data(row, &[&d0, &d1, &d2, &d3]));
        done.unwrap();
        assert_eq!(cost.reads, 0, "reconstruct-write repair reads nothing");
        assert_eq!(cost.writes, 1);
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
        let (done, cost) = costed(&mut a, |a| a.parity_update_rmw(row, &[(1, &delta)]));
        done.unwrap();
        assert_eq!(cost.reads, 1, "RMW repair reads only parity");
        assert_eq!(cost.writes, 1);
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

    /// RAID-6 with the row's Q member dead: a delta repair is refused
    /// before P is touched, so the failed call books no member op and P
    /// keeps its bytes. The resync the engine falls back to then repairs P
    /// from the row's data.
    #[test]
    fn rmw_with_dead_q_leaves_p_alone_and_resync_repairs_it() {
        let mut a = r6();
        let ps = 256;
        let row = a.layout().row_of(0);
        let lpns: Vec<u64> = a.layout().row_lpns(row).collect();
        for (i, &lpn) in lpns.iter().enumerate() {
            a.write_page(lpn, &page(i as u8, ps)).unwrap();
        }
        let new = page(0x77, ps);
        a.write_no_parity_update(lpns[2], &new).unwrap();
        let mut delta = page(2, ps);
        xor_into(&mut delta, &new);
        let (pd, pp) = a.layout().parity_location(row);
        let (qd, _) = a.layout().q_location(row).unwrap();
        a.fail_disk(qd);
        let stored_p = |a: &RaidArray| {
            let mut buf = vec![0u8; ps];
            a.disks[pd].read_page(pp, &mut buf).unwrap();
            buf
        };
        let p_before = stored_p(&a);
        let (got, gained) = costed(&mut a, |a| a.parity_update_rmw(row, &[(2, &delta)]));
        assert!(matches!(got, Err(RaidError::DiskFailed { disk }) if disk == qd), "{got:?}");
        assert_eq!((gained.reads, gained.writes), (0, 0), "the refused repair issued member ops");
        assert_eq!(stored_p(&a), p_before, "P changed");
        assert!(a.is_stale(row));
        a.resync(Some(&[row])).unwrap();
        assert!(!a.is_stale(row));
        let mut want = vec![0u8; ps];
        for (i, &lpn) in lpns.iter().enumerate() {
            xor_into(&mut want, &if lpn == lpns[2] { new.clone() } else { page(i as u8, ps) });
        }
        assert_ne!(p_before, want);
        assert_eq!(stored_p(&a), want, "resync must repair P");
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

    /// Each member's ledger entry, as `(reads, writes)`.
    fn ledger(a: &RaidArray) -> Vec<(u64, u64)> {
        a.stats().iter().map(|s| (s.reads, s.writes)).collect()
    }

    /// One member op as a fault injector sees it.
    type Op = (FaultDomain, IoDir);

    /// The most ops one [`traced`] call may issue (a rebuild of the test
    /// arrays issues at most 192).
    const TRACED_OPS: u64 = 256;

    /// Run `call` on `a` behind an injector that corrupts zero bytes of
    /// every op: no byte read or stored changes, and each op the call
    /// issues is recorded, in issue order.
    fn traced<T>(a: &mut RaidArray, call: impl FnOnce(&mut RaidArray) -> T) -> (T, Vec<Op>) {
        let every_op = (0..TRACED_OPS)
            .fold(FaultPlan::new(), |plan, at| plan.corrupt(at, FaultDomain::Unknown, 0, 0));
        let inj = FaultInjector::new(every_op);
        a.attach_injector(inj.clone());
        let out = call(a);
        assert!(inj.op_count() < TRACED_OPS, "{} ops outran the trace", inj.op_count());
        (out, inj.events().iter().map(|e| (e.device, e.dir)).collect())
    }

    /// `start` with one booking per op of `ops`.
    fn booked(mut start: Vec<(u64, u64)>, ops: &[Op]) -> Vec<(u64, u64)> {
        for &(device, dir) in ops {
            let FaultDomain::Disk(d) = device else { panic!("{device:?} is not a member") };
            match dir {
                IoDir::Read => start[d as usize].0 += 1,
                IoDir::Write => start[d as usize].1 += 1,
            }
        }
        start
    }

    /// Run `call` on every array, the last one [`traced`]: each must
    /// return the same, hold the same ledger after it, and the traced op
    /// stream must book exactly what the last ledger gained.
    fn agree<T: PartialEq + std::fmt::Debug>(
        arrays: &mut [RaidArray],
        what: &str,
        call: impl Fn(&mut RaidArray) -> T,
    ) -> T {
        let (last, rest) = arrays.split_last_mut().expect("an array to trace");
        let before = ledger(last);
        let (out, ops) = traced(last, &call);
        assert_eq!(booked(before, &ops), ledger(last), "{what}: the op stream vs the ledger");
        for a in rest {
            assert_eq!(call(a), out, "{what}");
            assert_eq!(ledger(a), ledger(last), "{what}: ledger");
        }
        out
    }

    /// One seeded mix of every array operation through three arrays of the
    /// same shape: `lent` has no injector, `copied` an empty-plan one that
    /// draws an outcome for every member op (the names predate the single
    /// lend-and-skip path both now take), and the third is [`traced`].
    /// Every result, every byte read, every member's
    /// ledger after every call, the traced op stream and every row's parity
    /// must agree.
    fn lent_and_copied_paths_agree(lent: RaidArray, failed: Option<usize>) {
        let ps = lent.page_size() as usize;
        let mut arrays = [lent.clone(), lent.clone(), lent];
        let injector = FaultInjector::none();
        arrays[1].attach_injector(injector.clone());
        if let Some(disk) = failed {
            arrays.iter_mut().for_each(|a| a.fail_disk(disk));
        }
        let layout = *arrays[0].layout();
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
                    let what = format!("step {step}: write_page({lpn})");
                    let (a, cost) =
                        agree(&mut arrays, &what, |a| costed(a, |a| a.write_page(lpn, &data)));
                    if a.is_ok() {
                        current[lpn as usize] = data;
                        match cost.reads {
                            n if n == cost.writes => rmw += 1,
                            _ => reconstruct += 1,
                        }
                    }
                }
                4 | 5 => {
                    // KDD's pair: data without parity, then the repair
                    // from the delta.
                    let what = format!("step {step}: write_no_parity_update({lpn})");
                    if agree(&mut arrays, &what, |a| a.write_no_parity_update(lpn, &data)).is_err()
                    {
                        continue;
                    }
                    let mut delta = current[lpn as usize].clone();
                    xor_into(&mut delta, &data);
                    current[lpn as usize] = data;
                    let loc = layout.locate(lpn);
                    let what = format!("step {step}: parity_update_rmw(row {})", loc.row);
                    let a = agree(&mut arrays, &what, |a| {
                        a.parity_update_rmw(loc.row, &[(loc.data_index, &delta)])
                    });
                    repaired += usize::from(a.is_ok());
                }
                6 => {
                    let row = layout.row_of(lpn);
                    let datas: Vec<&[u8]> =
                        layout.row_lpns(row).map(|l| &current[l as usize][..]).collect();
                    let what = format!("step {step}: parity_update_with_data(row {row})");
                    if agree(&mut arrays, &what, |a| a.parity_update_with_data(row, &datas)).is_ok()
                    {
                        assert!(!arrays[0].is_stale(row), "{what}");
                    }
                }
                _ => {
                    let what = format!("step {step}: read_page({lpn})");
                    let (a, got) = agree(&mut arrays, &what, |a| {
                        let mut got = vec![0u8; ps];
                        (a.read_page(lpn, &mut got), got)
                    });
                    if a.is_ok() {
                        assert_eq!(got, current[lpn as usize], "{what}");
                    }
                }
            }
        }
        assert!(rmw > 100 || failed.is_some(), "the mix made {rmw} read-modify-writes");
        assert!(reconstruct > 0 || failed.is_none(), "no degraded reconstruct-write ran");
        assert!(repaired > 100, "only {repaired} delta repairs ran");
        assert!(arrays.iter().all(|a| a.stale_row_count() == arrays[0].stale_row_count()));
        assert!(injector.op_count() > 0 && injector.counters().injected == 0);
        if failed.is_none() {
            for row in 0..layout.rows() {
                let consistent = !arrays[0].is_stale(row);
                for a in &mut arrays {
                    assert_eq!(a.verify_row(row), Ok(consistent), "row {row}");
                }
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
        use kdd_blockdev::fault::{FaultEvent, FaultKind, FaultSpec};
        let ps = 256;
        let mut base = r6();
        let layout = *base.layout();
        let row = layout.row_of(0);
        for lpn in layout.row_lpns(row) {
            base.write_page(lpn, &page(lpn as u8, ps)).unwrap();
        }
        let (pd, pp) = layout.parity_location(row);
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
            let (result, want) = costed(&mut done, call);
            result.unwrap();
            let (p_old, q_old) = (stored(&start, pd, pp), stored(&start, qd, qp));
            let (p_new, q_new) = (stored(&done, pd, pp), stored(&done, qd, qp));
            assert!(p_new != p_old && q_new != q_old);

            // The issue order, which changes no byte and books, op by op,
            // what the ledger gained.
            let mut a = start.clone();
            let (got, order) = traced(&mut a, call);
            assert_eq!(got, Ok(()));
            assert_eq!(order.len() as u64, want.reads + want.writes);
            assert_eq!(booked(ledger(&start), &order), ledger(&done));
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
                    let ops = if failed { at + 1 } else { order.len() };
                    assert_eq!(inj.op_count(), ops as u64, "{what}");
                    if failed {
                        assert_eq!(got, Err(RaidError::Dev(DevError::transient(device))), "{what}");
                        assert_eq!(ledger(&a), booked(ledger(&start), &order[..at]), "{what}");
                    } else {
                        assert_eq!(got, Ok(()), "{what}");
                        assert_eq!(ledger(&a), ledger(&done), "{what}");
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

    /// `ops` as words in issue order: `r` or `w`, then the member.
    fn stream(ops: &[Op]) -> String {
        let word = |&(device, dir): &Op| match (device, dir) {
            (FaultDomain::Disk(d), IoDir::Read) => format!("r{d}"),
            (FaultDomain::Disk(d), IoDir::Write) => format!("w{d}"),
            _ => panic!("{device:?} is not a member"),
        };
        ops.iter().map(word).collect::<Vec<_>>().join(" ")
    }

    /// FNV-1a over every byte the live members read back, in member order.
    fn fingerprint(a: &RaidArray) -> u64 {
        let mut buf = vec![0u8; a.page_size() as usize];
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for disk in a.disks.iter().filter(|d| !d.is_failed()) {
            for p in 0..a.layout.disk_pages {
                disk.read_page(p, &mut buf).unwrap();
                h = buf.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
            }
        }
        h
    }

    /// A parity path to pin: its name, what it needs done first, and the
    /// call, whose result comes back as its `Debug` text.
    type PinnedPath = (&'static str, fn(&mut RaidArray), fn(&mut RaidArray) -> String);

    /// Row 0's data page `d`, and a new version of it.
    fn row0(a: &RaidArray, d: usize) -> (u64, Vec<u8>) {
        let lpn = a.layout().row_lpns(0).nth(d).unwrap();
        (lpn, page(0xA0 ^ d as u8, a.page_size() as usize))
    }

    /// The new version of row 0's page `d` written without parity.
    fn stale_row0(a: &mut RaidArray, d: usize) {
        let (lpn, new) = row0(a, d);
        a.write_no_parity_update(lpn, &new).unwrap();
    }

    /// The delta [`stale_row0`] leaves on row 0's page `d`, with `d`.
    fn delta_row0(a: &RaidArray, d: usize) -> (usize, Vec<u8>) {
        let (lpn, mut delta) = row0(a, d);
        xor_into(&mut delta, &page(lpn as u8, a.page_size() as usize));
        (d, delta)
    }

    const PINNED_PATHS: [PinnedPath; 11] = [
        (
            "write_page rmw",
            |_| {},
            |a| {
                let (lpn, new) = row0(a, 0);
                format!("{:?}", a.write_page(lpn, &new))
            },
        ),
        (
            "write_page reconstruct",
            |a| stale_row0(a, 1),
            |a| {
                let (lpn, new) = row0(a, 0);
                format!("{:?}", a.write_page(lpn, &new))
            },
        ),
        (
            "write_page target failed",
            |a| a.fail_disk(a.layout().locate(0).disk),
            |a| {
                let (lpn, new) = row0(a, 0);
                format!("{:?}", a.write_page(lpn, &new))
            },
        ),
        (
            "write_page P failed",
            |a| a.fail_disk(a.layout().parity_location(0).0),
            |a| {
                let (lpn, new) = row0(a, 0);
                format!("{:?}", a.write_page(lpn, &new))
            },
        ),
        (
            "parity_update_rmw",
            |a| [0, 2].into_iter().for_each(|d| stale_row0(a, d)),
            |a| {
                let deltas = [delta_row0(a, 0), delta_row0(a, 2)];
                format!("{:?}", a.parity_update_rmw(0, &deltas))
            },
        ),
        (
            "parity_update_with_data",
            |a| stale_row0(a, 1),
            |a| {
                let data: Vec<Vec<u8>> = (0..a.layout().row_width())
                    .map(|d| {
                        if d == 1 {
                            row0(a, 1).1
                        } else {
                            page(row0(a, d).0 as u8, a.page_size() as usize)
                        }
                    })
                    .collect();
                format!("{:?}", a.parity_update_with_data(0, &data))
            },
        ),
        (
            "resync, then a blank row",
            |a| stale_row0(a, 1),
            |a| {
                let blank = a.layout().rows() - 1;
                format!("{:?}", a.resync(Some(&[0, blank])))
            },
        ),
        ("resync(None)", |a| stale_row0(a, 3), |a| format!("{:?}", a.resync(None))),
        ("verify_row, P matching", |_| {}, |a| format!("{:?}", a.verify_row(0))),
        ("verify_row, P not matching", |a| stale_row0(a, 2), |a| format!("{:?}", a.verify_row(0))),
        (
            "rebuild",
            |a| {
                a.fail_disk(1);
                if a.layout().level == RaidLevel::Raid6 {
                    a.fail_disk(4);
                }
            },
            |a| format!("{:?}", a.rebuild()),
        ),
    ];

    /// Every parity path's member ops, op by op, after the call's result
    /// and a [`fingerprint`] of what the members then read back:
    /// fault plans, the power-loss sweeps and the seeded-replay digest
    /// index these ops, so a change to the paths must keep each stream.
    /// One page to a chunk, so each row has its own parity placement, and
    /// the last row is never written.
    #[test]
    fn parity_paths_keep_their_op_streams() {
        let ps = 256;
        let r5 = RaidArray::new(Layout::new(RaidLevel::Raid5, 5, 1, 5), ps);
        let r6 = RaidArray::new(Layout::new(RaidLevel::Raid6, 6, 1, 6), ps);
        for (mut base, pins) in [(r5, R5_OP_STREAMS), (r6, R6_OP_STREAMS)] {
            let layout = *base.layout();
            let blank = layout.rows() - 1;
            for lpn in (0..layout.capacity_pages()).filter(|&l| layout.row_of(l) != blank) {
                base.write_page(lpn, &page(lpn as u8, ps as usize)).unwrap();
            }
            for ((name, setup, call), pin) in PINNED_PATHS.iter().zip(pins) {
                let mut a = base.clone();
                setup(&mut a);
                let (result, ops) = traced(&mut a, call);
                let got = format!("{result} {:016x}: {}", fingerprint(&a), stream(&ops));
                assert_eq!(got, pin, "{:?} {name}", layout.level);
            }
        }
    }

    /// One pin per [`PINNED_PATHS`] entry, in its order.
    const R5_OP_STREAMS: [&str; 11] = [
        "Ok(()) 9e0389483ec0eb25: r0 r4 w4 w0",
        "Ok(()) f6c6cc43c6bca325: r1 r2 r3 w4 w0",
        "Ok(()) bc5711fec8630025: r1 r2 r3 w4",
        "Ok(()) de16bf20db974e25: r0 w0",
        "Ok(()) b747bcb2f34e1525: r4 w4",
        "Ok(()) 68e6cd38a6fdbf25: w4",
        "Ok(()) 68e6cd38a6fdbf25: r0 r1 r2 r3 w4 r1 r2 r3 r4 w0",
        "Ok(()) 1ade110daacdad25: r0 r1 r2 r3 w4",
        "Ok(true) a33bf3fe24cc0725: r0 r1 r2 r3 r4",
        "Ok(false) f2f3f28856743125: r0 r1 r2 r3 r4",
        "Ok(()) a33bf3fe24cc0725: r0 r2 r3 r4 w1 r4 r0 r2 r3 w1 r3 r4 r0 r2 w1 r2 r3 r4 r0 w1 r2 r3 r4 r0 w1",
    ];
    const R6_OP_STREAMS: [&str; 11] = [
        "Ok(()) b808d521ac33ba85: r1 r5 r0 w5 w0 w1",
        "Ok(()) 18bd3173aedd14c5: r2 r3 r4 w5 w0 w1",
        "Ok(()) 110e39ac62255785: r2 r3 r4 w5 w0",
        "Ok(()) 5b7981913b45bbc5: r2 r3 r4 w0 w1",
        "Ok(()) f1a58ba749ad7045: r5 r0 w5 w0",
        "Ok(()) e0c17e24dd664045: w5 w0",
        "Ok(()) e0c17e24dd664045: r1 r2 r3 r4 w5 w0 r2 r3 r4 r5 w0 w1",
        "Ok(()) d00c94fe6f7bcc05: r1 r2 r3 r4 w5 w0",
        "Ok(true) 52cf44f8b700d585: r1 r2 r3 r4 r5 r0",
        "Ok(false) 1d5b4307b8a0ff85: r1 r2 r3 r4 r5",
        "Ok(()) 52cf44f8b700d585: r2 r3 r5 r0 w1 w4 r0 r2 r3 r5 w1 w4 r5 r0 r2 r3 w1 w4 r5 r0 r2 r3 w4 w1 r3 r5 r0 r2 w4 w1 r2 r3 r5 r0 w4 w1",
    ];

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

    /// Every page of every member, and the members' ledger.
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
        (pages, ledger(a))
    }

    /// Fail `failed` on four copies of `base` — the solver, the reference
    /// solver, the solver behind an empty-plan injector (every op drawn,
    /// every shortcut still taken) and the solver [`traced`] — then read
    /// every page degraded and rebuild: each call's result and ledger
    /// gain ([`costed`]), the op streams
    /// of the traced solver and the traced reference, every byte read, and
    /// every member's ledger and contents must agree, parity must verify,
    /// and the sparse rebuild must have materialised only the rows that
    /// hold something.
    fn solver_matches_reference(base: &RaidArray, model: &[Vec<u8>], failed: &[usize]) {
        let ps = base.page_size() as usize;
        let layout = *base.layout();
        let what = format!("{:?} failed {failed:?}", layout.level);
        let written_rows = (0..layout.rows())
            .filter(|&row| {
                (0..layout.disks).any(|d| !failed.contains(&d) && base.disks[d].is_resident(row))
            })
            .count();
        let [mut new, mut old, mut copied, mut tracked] = [0; 4].map(|_| base.clone());
        let injector = FaultInjector::new(FaultPlan::new());
        copied.attach_injector(injector.clone());
        for &d in failed {
            for a in [&mut new, &mut old, &mut copied, &mut tracked] {
                a.fail_disk(d);
            }
        }

        let mut bufs = [0xAAu8, 0xBB, 0xCC, 0xDD].map(|b| vec![b; ps]);
        for lpn in 0..layout.capacity_pages() {
            let [got, want, lent, seen] = &mut bufs;
            let cost = costed(&mut new, |a| a.read_page(lpn, got));
            let (reference, old_ops) =
                traced(&mut old, |a| costed(a, |a| a.reference_read_page(lpn, want)));
            let (tracked_cost, new_ops) =
                traced(&mut tracked, |a| costed(a, |a| a.read_page(lpn, seen)));
            let copied_cost = costed(&mut copied, |a| a.read_page(lpn, lent));
            assert_eq!(cost, reference, "{what}: read_page({lpn})");
            assert_eq!(cost, copied_cost, "{what}: copied read_page({lpn})");
            assert_eq!(cost, tracked_cost, "{what}: traced read_page({lpn})");
            assert_eq!(new_ops, old_ops, "{what}: read_page({lpn}) op stream");
            assert!(cost.0.is_ok(), "{what}: read_page({lpn}) = {cost:?}");
            assert_eq!(*got, model[lpn as usize], "{what}: lpn {lpn}");
            assert!(bufs.iter().all(|b| *b == bufs[0]), "{what}: lpn {lpn}");
        }

        let rebuilt = costed(&mut new, RaidArray::rebuild);
        let (reference, old_ops) = traced(&mut old, |a| costed(a, RaidArray::reference_rebuild));
        let (tracked_cost, new_ops) = traced(&mut tracked, |a| costed(a, RaidArray::rebuild));
        let copied_cost = costed(&mut copied, RaidArray::rebuild);
        assert_eq!(rebuilt, reference, "{what}: rebuild counts");
        assert_eq!(rebuilt, copied_cost, "{what}: copied rebuild counts");
        assert_eq!(rebuilt, tracked_cost, "{what}: traced rebuild counts");
        assert_eq!(new_ops, old_ops, "{what}: rebuild op stream");
        let (done, cost) = rebuilt;
        assert!(done.is_ok(), "{what}: rebuild = {done:?}");
        let ops = cost.reads + cost.writes;
        assert_eq!(ops, layout.rows() * (layout.data_disks() + failed.len()) as u64, "{what}");
        assert!(injector.op_count() >= ops && injector.counters().injected == 0);

        for a in [&old, &copied, &tracked] {
            assert_eq!(members(&new), members(a), "{what}: members after rebuild");
        }
        for row in 0..layout.rows() {
            assert_eq!(new.verify_row(row), Ok(true), "{what}: row {row}");
        }
        let got = &mut bufs[0];
        for lpn in 0..layout.capacity_pages() {
            new.read_page(lpn, got).unwrap();
            assert_eq!(*got, model[lpn as usize], "{what}: lpn {lpn} after rebuild");
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
    /// outcomes, and leave the same bytes, op count and ledger behind. (No
    /// [`traced`] stream here: a fault planned on every op would move the
    /// planned ones, so the fired events pin the op order instead.)
    #[test]
    fn solver_matches_reference_under_injected_faults() {
        use kdd_blockdev::fault::{FaultKind, FaultSpec};
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
            assert_eq!(ledger(&new), ledger(&old), "after read_page({lpn})");
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
        let (done, cost) = costed(&mut a, RaidArray::rebuild);
        done.unwrap();
        let ops = cost.reads + cost.writes;
        assert_eq!(ops, a.layout().rows() * 5, "the retry covers every row");
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
    fn healthy_read_rejects_a_wrong_sized_buffer() {
        let mut a = r5();
        a.write_page(0, &page(1, 256)).unwrap();
        let mut short = vec![0u8; 100];
        assert!(matches!(a.read_page(0, &mut short), Err(RaidError::BadArg(_))));
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
            /// A member read copied into `buf`, as every read once was.
            fn disk_read(
                &mut self,
                disk: usize,
                disk_page: u64,
                buf: &mut [u8],
            ) -> Result<(), RaidError> {
                self.disks[disk].read_page(disk_page, buf)?;
                self.account(disk, IoDir::Read);
                Ok(())
            }

            /// [`RaidArray::read_page`] as it was.
            pub(in super::super) fn reference_read_page(
                &mut self,
                lpn: u64,
                buf: &mut [u8],
            ) -> Result<(), RaidError> {
                self.check_failures()?;
                let loc = self.layout.locate(lpn);
                if !self.disks[loc.disk].is_failed() {
                    match self.disk_read(loc.disk, loc.disk_page, buf) {
                        Ok(()) => return Ok(()),
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
                if self.is_stale(loc.row) {
                    return Err(RaidError::StaleParity { row: loc.row });
                }
                let failed = self.failed_disks();
                let solved = self.reference_solve_missing(loc.row, &failed)?;
                let (_, content) = solved
                    .into_iter()
                    .find(|(m, _)| *m == RowMember::Data(loc.data_index))
                    .ok_or(RaidError::TooManyFailures)?;
                buf.copy_from_slice(&content);
                Ok(())
            }

            /// [`RaidArray::rebuild`] as it was: every row solved and written,
            /// the replacements healthy from the start (so without the re-fail
            /// on an error exit).
            pub(in super::super) fn reference_rebuild(&mut self) -> Result<(), RaidError> {
                self.check_failures()?;
                if let Some(&row) = self.stale_rows.iter().next() {
                    return Err(RaidError::StaleParity { row });
                }
                let failed = self.failed_disks();
                if failed.is_empty() {
                    return Ok(());
                }
                for &d in &failed {
                    self.disks[d].replace();
                }
                // Reconstruct row by row; the replacement disks are zero-filled so
                // we re-derive their content from the survivors.
                for row in 0..self.layout.rows() {
                    let solved = self.reference_solve_missing(row, &failed)?;
                    let stripe = self.layout.stripe_of_row(row);
                    let dp = self.row_disk_page(row);
                    for (member, content) in solved {
                        let disk = match member {
                            RowMember::Data(d) => self.layout.data_disk(stripe, d),
                            RowMember::P => self.layout.parity_disk(stripe),
                            RowMember::Q => self.layout.q_disk(stripe).ok_or(
                                RaidError::Inconsistent("Q member solved on non-RAID-6 layout"),
                            )?,
                        };
                        self.disk_write(disk, dp, &content)?;
                    }
                }
                Ok(())
            }

            /// Solve for the contents of every row member whose disk is in
            /// `excluded`, reading only surviving members. Handles every single-
            /// and double-erasure case RAID-6 tolerates.
            fn reference_solve_missing(
                &mut self,
                row: u64,
                excluded: &[usize],
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
                let p_missing = is_excluded(p_disk);
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
                        self.disk_read(disk, dp, &mut buf)?;
                        data[d] = Some(buf);
                    }
                }
                let read_parity =
                    |this: &mut Self, loc: Option<(usize, u64)>| -> Result<Vec<u8>, RaidError> {
                        let (pd, pp) = loc.ok_or(RaidError::TooManyFailures)?;
                        let mut buf = vec![0u8; ps];
                        this.disk_read(pd, pp, &mut buf)?;
                        Ok(buf)
                    };

                // Recover missing data members first.
                match missing_data.len() {
                    0 => {}
                    1 => {
                        let x = missing_data[0];
                        if !p_missing {
                            // D_x = P ⊕ Σ_{d≠x} D_d
                            let mut out =
                                read_parity(self, Some(self.layout.parity_location(row)))?;
                            for (_d, page) in data.iter().enumerate().filter(|(d, _)| *d != x) {
                                let page = page
                                    .as_ref()
                                    .ok_or(RaidError::Inconsistent("survivor page not read"))?;
                                xor_into(&mut out, page);
                            }
                            data[x] = Some(out);
                        } else if !q_missing && q_disk.is_some() {
                            // D_x = (Q ⊕ Σ_{d≠x} g^d·D_d) / g^x
                            let mut acc = read_parity(self, self.layout.q_location(row))?;
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
                        let mut a = read_parity(self, Some(self.layout.parity_location(row)))?;
                        let mut b = read_parity(self, self.layout.q_location(row))?;
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
