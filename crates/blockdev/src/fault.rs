//! Deterministic fault injection for every device in the stack.
//!
//! The paper's reliability story (§III-E) is about behaviour *during*
//! faults: power loss mid-metadata-batch, a cache SSD wearing out or dying,
//! a RAID member disk dropping out. This module provides a seedable,
//! replayable way to trigger exactly those events:
//!
//! * a [`FaultPlan`] is a list of [`FaultSpec`]s — "at global device-op
//!   index `N`, device `D` suffers fault `K`" — built by hand, parsed from a
//!   compact string (`kddtool faults --plan ...`), or generated from a seed;
//! * a [`FaultInjector`] owns the plan at runtime. Every wrapped device
//!   calls [`FaultInjector::begin_io`] before touching its backing store;
//!   the injector counts the op, fires any due spec, and tells the device
//!   to proceed, fail, tear the write, or corrupt the payload.
//!
//! The injector is shared (`Arc<Mutex<_>>`) between the SSD, every RAID
//! member and the engine, so one plan describes correlated faults across
//! the whole array, and the global op counter gives an exhaustive
//! crash-at-every-op sweep a deterministic clock to key off.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::error::{DevError, FaultDomain};
use kdd_util::rng::splitmix64;
use std::sync::{Arc, Mutex};

/// Direction of the intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    /// Page read.
    Read,
    /// Page write (or trim).
    Write,
}

/// What kind of fault a spec injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail this single operation; the device stays healthy.
    TransientIo,
    /// The device fails permanently: this and all later ops error, and a
    /// replacement does **not** help (no spare — exercises pass-through
    /// fallback). Clear with [`FaultInjector::revive`].
    PersistentIo,
    /// The device drops out with its contents: this and all later ops error
    /// until the device is replaced/rebuilt (a spare exists).
    DeviceDrop,
    /// A write persists only its first `valid_bytes` bytes; the rest of the
    /// page keeps its previous contents (torn page).
    TornWrite {
        /// Bytes of the new payload that reach the medium.
        valid_bytes: u32,
    },
    /// `len` bytes starting at `offset` are bit-flipped in the payload
    /// (write) or the returned data (read).
    CorruptPage {
        /// First corrupted byte offset within the page.
        offset: u32,
        /// Number of corrupted bytes.
        len: u32,
    },
    /// Global power loss: the op does not complete and every device errors
    /// with [`DevError::PowerLoss`] until [`FaultInjector::restore_power`].
    PowerLoss,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Global device-op index at which the fault fires.
    pub at_op: u64,
    /// Target device; [`FaultDomain::Unknown`] matches any device.
    pub device: FaultDomain,
    /// Restrict to one direction (`None` matches reads and writes).
    pub dir: Option<IoDir>,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A fault that actually fired, for reporting and determinism checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global op index at which it fired.
    pub op: u64,
    /// Device the intercepted op targeted.
    pub device: FaultDomain,
    /// Direction of the intercepted op.
    pub dir: IoDir,
    /// The injected fault.
    pub kind: FaultKind,
}

/// Tallies of injected faults, mirrored into `CacheStats` by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total faults fired.
    pub injected: u64,
    /// Transient single-op failures.
    pub transient: u64,
    /// Persistent failures (no spare).
    pub persistent: u64,
    /// Device drops (spare available).
    pub device_drops: u64,
    /// Torn writes.
    pub torn_writes: u64,
    /// Corrupted pages.
    pub corrupted: u64,
    /// Power losses.
    pub power_losses: u64,
}

/// A deterministic, replayable schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults (order irrelevant; matched by `at_op`).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Empty plan: the injector only counts ops.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a transient (single-op) failure.
    pub fn transient(mut self, at_op: u64, device: FaultDomain) -> Self {
        self.specs.push(FaultSpec { at_op, device, dir: None, kind: FaultKind::TransientIo });
        self
    }

    /// Add a persistent, non-replaceable failure.
    pub fn persistent(mut self, at_op: u64, device: FaultDomain) -> Self {
        self.specs.push(FaultSpec { at_op, device, dir: None, kind: FaultKind::PersistentIo });
        self
    }

    /// Add a device drop (contents lost, spare available).
    pub fn drop_device(mut self, at_op: u64, device: FaultDomain) -> Self {
        self.specs.push(FaultSpec { at_op, device, dir: None, kind: FaultKind::DeviceDrop });
        self
    }

    /// Add a torn write persisting only `valid_bytes` of the payload.
    pub fn torn_write(mut self, at_op: u64, device: FaultDomain, valid_bytes: u32) -> Self {
        self.specs.push(FaultSpec {
            at_op,
            device,
            dir: Some(IoDir::Write),
            kind: FaultKind::TornWrite { valid_bytes },
        });
        self
    }

    /// Add a payload corruption of `len` bytes at `offset`.
    pub fn corrupt(mut self, at_op: u64, device: FaultDomain, offset: u32, len: u32) -> Self {
        self.specs.push(FaultSpec {
            at_op,
            device,
            dir: None,
            kind: FaultKind::CorruptPage { offset, len },
        });
        self
    }

    /// Add a global power loss at `at_op`.
    pub fn power_loss(mut self, at_op: u64) -> Self {
        self.specs.push(FaultSpec {
            at_op,
            device: FaultDomain::Unknown,
            dir: None,
            kind: FaultKind::PowerLoss,
        });
        self
    }

    /// Generate `n_faults` pseudo-random transient/corrupt faults over the
    /// first `ops` device operations of an array with `disks` members.
    ///
    /// Only *survivable* kinds are drawn (transient I/O errors and read
    /// corruptions on member disks), so a randomized soak stays comparable
    /// run to run; drops and power losses are scheduled explicitly.
    pub fn randomized(seed: u64, ops: u64, disks: u32, n_faults: usize) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut plan = FaultPlan::new();
        for _ in 0..n_faults {
            let at_op = splitmix64(&mut state) % ops.max(1);
            let device = match splitmix64(&mut state) % (disks as u64 + 1) {
                0 => FaultDomain::Ssd,
                d => FaultDomain::Disk((d - 1) as u32),
            };
            plan = plan.transient(at_op, device);
        }
        plan.specs.sort_by_key(|s| s.at_op);
        plan
    }

    /// Parse a compact plan string: comma-separated `device@op:kind` clauses.
    ///
    /// Devices: `ssd`, `disk<N>`, `any`. Kinds: `transient`,
    /// `persistent`, `drop`, `torn=<valid_bytes>`, `corrupt=<offset>+<len>`,
    /// `power`. Example: `ssd@120:transient,disk1@50:drop,any@200:power`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (dev_s, rest) = clause
                .split_once('@')
                .ok_or_else(|| format!("`{clause}`: expected device@op:kind"))?;
            let (op_s, kind_s) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{clause}`: expected device@op:kind"))?;
            let at_op: u64 =
                op_s.parse().map_err(|_| format!("`{clause}`: bad op index `{op_s}`"))?;
            let device = match dev_s {
                "ssd" => FaultDomain::Ssd,
                "any" => FaultDomain::Unknown,
                d => match d.strip_prefix("disk").and_then(|n| n.parse::<u32>().ok()) {
                    Some(n) => FaultDomain::Disk(n),
                    None => return Err(format!("`{clause}`: unknown device `{dev_s}`")),
                },
            };
            plan = match kind_s {
                "transient" => plan.transient(at_op, device),
                "persistent" => plan.persistent(at_op, device),
                "drop" => plan.drop_device(at_op, device),
                "power" => plan.power_loss(at_op),
                k => {
                    if let Some(v) = k.strip_prefix("torn=") {
                        let valid = v
                            .parse()
                            .map_err(|_| format!("`{clause}`: bad torn byte count `{v}`"))?;
                        plan.torn_write(at_op, device, valid)
                    } else if let Some(v) = k.strip_prefix("corrupt=") {
                        let (off_s, len_s) = v
                            .split_once('+')
                            .ok_or_else(|| format!("`{clause}`: corrupt wants offset+len"))?;
                        let off = off_s
                            .parse()
                            .map_err(|_| format!("`{clause}`: bad offset `{off_s}`"))?;
                        let len = len_s
                            .parse()
                            .map_err(|_| format!("`{clause}`: bad length `{len_s}`"))?;
                        plan.corrupt(at_op, device, off, len)
                    } else {
                        return Err(format!("`{clause}`: unknown fault kind `{kind_s}`"));
                    }
                }
            };
        }
        Ok(plan)
    }
}

/// What the device must do with the intercepted operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOutcome {
    /// Perform the operation normally.
    Proceed,
    /// Fail with the given error; the medium is untouched.
    Fail(DevError),
    /// Persist only the first `valid_bytes` bytes of the payload.
    Torn {
        /// Bytes of the new payload that reach the medium.
        valid_bytes: usize,
    },
    /// Bit-flip `len` bytes at `offset` in the payload / returned data.
    Corrupt {
        /// First corrupted byte.
        offset: usize,
        /// Corrupted byte count.
        len: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadKind {
    /// Cleared when the device is replaced/rebuilt.
    Replaceable,
    /// Survives replacement; cleared only by `revive`.
    Permanent,
}

#[derive(Debug, Default)]
struct InjectorState {
    op: u64,
    specs: Vec<FaultSpec>,
    dead: Vec<(FaultDomain, DeadKind)>,
    power_lost: bool,
    events: Vec<FaultEvent>,
    counters: FaultCounters,
}

impl InjectorState {
    fn dead_kind(&self, device: FaultDomain) -> Option<DeadKind> {
        self.dead.iter().find(|(d, _)| *d == device).map(|(_, k)| *k)
    }
}

/// Shared runtime fault injector. Cheap to clone (all clones share state).
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Arc<Mutex<InjectorState>>,
}

impl FaultInjector {
    /// Injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let inner = InjectorState { specs: plan.specs, ..InjectorState::default() };
        FaultInjector { inner: Arc::new(Mutex::new(inner)) }
    }

    /// Injector with no faults (pure op counter).
    pub fn none() -> Self {
        FaultInjector::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Intercept one device operation. Called by every wrapped device
    /// immediately before touching its backing store.
    pub fn begin_io(&self, device: FaultDomain, dir: IoDir) -> IoOutcome {
        let mut st = self.lock();
        let op = st.op;
        st.op += 1;

        if st.power_lost {
            return IoOutcome::Fail(DevError::PowerLoss);
        }
        if st.dead_kind(device).is_some() {
            return IoOutcome::Fail(DevError::failed(device));
        }

        // A spec arms at `at_op` and fires on the first matching op at or
        // after it (the exact op index may belong to another device).
        let idx = st.specs.iter().position(|s| {
            s.at_op <= op
                && (s.device == FaultDomain::Unknown || s.device == device)
                && (s.dir.is_none() || s.dir == Some(dir))
        });
        let Some(idx) = idx else { return IoOutcome::Proceed };
        let spec = st.specs.swap_remove(idx);
        st.events.push(FaultEvent { op, device, dir, kind: spec.kind });
        st.counters.injected += 1;

        match spec.kind {
            FaultKind::TransientIo => {
                st.counters.transient += 1;
                IoOutcome::Fail(DevError::transient(device))
            }
            FaultKind::PersistentIo => {
                st.counters.persistent += 1;
                st.dead.push((device, DeadKind::Permanent));
                IoOutcome::Fail(DevError::failed(device))
            }
            FaultKind::DeviceDrop => {
                st.counters.device_drops += 1;
                st.dead.push((device, DeadKind::Replaceable));
                IoOutcome::Fail(DevError::failed(device))
            }
            FaultKind::TornWrite { valid_bytes } => {
                st.counters.torn_writes += 1;
                IoOutcome::Torn { valid_bytes: valid_bytes as usize }
            }
            FaultKind::CorruptPage { offset, len } => {
                st.counters.corrupted += 1;
                IoOutcome::Corrupt { offset: offset as usize, len: len as usize }
            }
            FaultKind::PowerLoss => {
                st.counters.power_losses += 1;
                st.power_lost = true;
                IoOutcome::Fail(DevError::PowerLoss)
            }
        }
    }

    /// Whether power is currently lost.
    pub fn power_lost(&self) -> bool {
        self.lock().power_lost
    }

    /// Restore power after a [`FaultKind::PowerLoss`] (the "reboot" step of a
    /// recovery test). Dead devices stay dead; later specs stay armed.
    pub fn restore_power(&self) {
        self.lock().power_lost = false;
    }

    /// Whether `device` is currently dead (persistent fault or drop).
    pub fn is_dead(&self, device: FaultDomain) -> bool {
        self.lock().dead_kind(device).is_some()
    }

    /// Notify the injector that `device` was physically replaced/rebuilt.
    /// Clears a [`FaultKind::DeviceDrop`]; a [`FaultKind::PersistentIo`]
    /// stays in force (there is no working spare).
    pub fn on_replace(&self, device: FaultDomain) {
        self.lock().dead.retain(|(d, k)| *d != device || *k == DeadKind::Permanent);
    }

    /// Forcibly clear any dead mark on `device` (tests / drills only).
    pub fn revive(&self, device: FaultDomain) {
        self.lock().dead.retain(|(d, _)| *d != device);
    }

    /// Global device-op count so far (the sweep clock).
    pub fn op_count(&self) -> u64 {
        self.lock().op
    }

    /// Every fault fired so far, in firing order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.lock().events.clone()
    }

    /// Snapshot of the fault tallies.
    pub fn counters(&self) -> FaultCounters {
        self.lock().counters
    }
}

/// Land a write of `data` on `page`, the medium's current bytes, in place:
/// a torn write replaces only the valid prefix, a corrupted one is flipped
/// after the copy, a failed one leaves `page` untouched and is the error.
pub fn apply_write_outcome(
    outcome: IoOutcome,
    data: &[u8],
    page: &mut [u8],
) -> Result<(), DevError> {
    let cut = match outcome {
        IoOutcome::Fail(e) => return Err(e),
        IoOutcome::Torn { valid_bytes } => valid_bytes.min(data.len()),
        _ => data.len(),
    };
    page[..cut].copy_from_slice(&data[..cut]);
    corrupt(&outcome, page);
    Ok(())
}

/// Apply an [`IoOutcome`] to a freshly-read buffer (corruption only).
pub fn apply_read_outcome(outcome: IoOutcome, buf: &mut [u8]) -> Result<(), DevError> {
    if let IoOutcome::Fail(e) = outcome {
        return Err(e);
    }
    corrupt(&outcome, buf);
    Ok(())
}

/// Flip the bytes an [`IoOutcome::Corrupt`] names; any other outcome
/// leaves `buf` alone.
pub(crate) fn corrupt(outcome: &IoOutcome, buf: &mut [u8]) {
    if let IoOutcome::Corrupt { offset, len } = *outcome {
        let start = offset.min(buf.len());
        let end = offset.saturating_add(len).min(buf.len());
        for b in &mut buf[start..end] {
            *b ^= 0xFF;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_counted_and_faults_fire_once() {
        let inj = FaultInjector::new(FaultPlan::new().transient(2, FaultDomain::Ssd));
        assert_eq!(inj.begin_io(FaultDomain::Ssd, IoDir::Read), IoOutcome::Proceed);
        assert_eq!(inj.begin_io(FaultDomain::Ssd, IoDir::Write), IoOutcome::Proceed);
        assert_eq!(
            inj.begin_io(FaultDomain::Ssd, IoDir::Read),
            IoOutcome::Fail(DevError::transient(FaultDomain::Ssd))
        );
        // One-shot: the very next op proceeds.
        assert_eq!(inj.begin_io(FaultDomain::Ssd, IoDir::Read), IoOutcome::Proceed);
        assert_eq!(inj.op_count(), 4);
        assert_eq!(inj.counters().transient, 1);
        assert_eq!(inj.events().len(), 1);
    }

    #[test]
    fn armed_spec_waits_for_its_device() {
        let inj = FaultInjector::new(FaultPlan::new().transient(0, FaultDomain::Disk(2)));
        // Op 0 goes elsewhere: the spec stays armed rather than expiring.
        assert_eq!(inj.begin_io(FaultDomain::Ssd, IoDir::Read), IoOutcome::Proceed);
        assert_eq!(
            inj.begin_io(FaultDomain::Disk(2), IoDir::Read),
            IoOutcome::Fail(DevError::transient(FaultDomain::Disk(2)))
        );
        assert_eq!(inj.counters().injected, 1);
    }

    #[test]
    fn persistent_faults_survive_replacement_drops_do_not() {
        let inj = FaultInjector::new(
            FaultPlan::new().persistent(0, FaultDomain::Ssd).drop_device(1, FaultDomain::Disk(0)),
        );
        assert!(matches!(inj.begin_io(FaultDomain::Ssd, IoDir::Write), IoOutcome::Fail(_)));
        assert!(matches!(inj.begin_io(FaultDomain::Disk(0), IoDir::Write), IoOutcome::Fail(_)));
        assert!(inj.is_dead(FaultDomain::Ssd));
        assert!(inj.is_dead(FaultDomain::Disk(0)));

        inj.on_replace(FaultDomain::Ssd);
        inj.on_replace(FaultDomain::Disk(0));
        assert!(inj.is_dead(FaultDomain::Ssd), "no spare for a persistent fault");
        assert!(!inj.is_dead(FaultDomain::Disk(0)), "drop cleared by rebuild");

        inj.revive(FaultDomain::Ssd);
        assert!(!inj.is_dead(FaultDomain::Ssd));
    }

    #[test]
    fn power_loss_stops_everything_until_restored() {
        let inj = FaultInjector::new(FaultPlan::new().power_loss(1));
        assert_eq!(inj.begin_io(FaultDomain::Disk(1), IoDir::Write), IoOutcome::Proceed);
        assert_eq!(
            inj.begin_io(FaultDomain::Ssd, IoDir::Write),
            IoOutcome::Fail(DevError::PowerLoss)
        );
        assert_eq!(
            inj.begin_io(FaultDomain::Disk(0), IoDir::Read),
            IoOutcome::Fail(DevError::PowerLoss)
        );
        assert!(inj.power_lost());
        inj.restore_power();
        assert_eq!(inj.begin_io(FaultDomain::Disk(0), IoDir::Read), IoOutcome::Proceed);
    }

    #[test]
    fn torn_write_keeps_old_suffix() {
        let out = IoOutcome::Torn { valid_bytes: 3 };
        let mut page = [1, 2, 3, 4, 5, 6];
        apply_write_outcome(out, &[9, 9, 9, 9, 9, 9], &mut page).unwrap();
        assert_eq!(page, [9, 9, 9, 4, 5, 6]);
    }

    #[test]
    fn corrupt_flips_requested_range() {
        let mut page = [7u8; 4];
        apply_write_outcome(IoOutcome::Corrupt { offset: 1, len: 2 }, &[0, 0, 0, 0], &mut page)
            .unwrap();
        assert_eq!(page, [0, 0xFF, 0xFF, 0]);

        let mut buf = [0u8; 4];
        apply_read_outcome(IoOutcome::Corrupt { offset: 2, len: 10 }, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0xFF, 0xFF]);
    }

    #[test]
    fn randomized_plans_are_reproducible() {
        let a = FaultPlan::randomized(42, 1000, 5, 8);
        let b = FaultPlan::randomized(42, 1000, 5, 8);
        let c = FaultPlan::randomized(43, 1000, 5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.specs.len(), 8);
    }

    #[test]
    fn plan_parsing_roundtrip() {
        let plan =
            FaultPlan::parse("ssd@120:transient, disk1@50:drop, any@200:power, disk0@7:torn=100")
                .unwrap();
        assert_eq!(plan.specs.len(), 4);
        assert_eq!(
            plan.specs[0],
            FaultSpec {
                at_op: 120,
                device: FaultDomain::Ssd,
                dir: None,
                kind: FaultKind::TransientIo
            }
        );
        assert_eq!(plan.specs[1].device, FaultDomain::Disk(1));
        assert_eq!(plan.specs[2].kind, FaultKind::PowerLoss);
        assert_eq!(plan.specs[3].kind, FaultKind::TornWrite { valid_bytes: 100 });

        assert!(FaultPlan::parse("ssd@x:transient").is_err());
        assert!(FaultPlan::parse("floppy@1:transient").is_err());
        assert!(FaultPlan::parse("ssd@1:explode").is_err());
        assert!(
            FaultPlan::parse("disk0@3:corrupt=16+32").unwrap().specs[0].kind
                == FaultKind::CorruptPage { offset: 16, len: 32 }
        );
    }

    /// No device in the stack models NVRAM I/O, so a fault there would
    /// never fire: a plan naming it is refused, not silently inert.
    #[test]
    fn a_plan_naming_nvram_is_refused() {
        let err = FaultPlan::parse("nvram@5:transient").unwrap_err();
        assert!(err.contains("unknown device `nvram`"), "{err}");
    }
}
