//! Model-based property tests: the circular metadata log against a plain
//! `BTreeMap` reference, under arbitrary insert/tombstone interleavings
//! and partition sizes.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

use kdd_core::metalog::{KeyEntry, LogEntry, MetaLog};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u64),
    Del(u64),
    Flush,
}

fn ops(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..keys).prop_map(Op::Put),
        2 => (0..keys).prop_map(Op::Del),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// recover_live() always equals the reference map, regardless of how
    /// GC shuffled entries between pages.
    #[test]
    fn log_matches_hashmap_model(
        partition in 4u64..32,
        epp in 1usize..8,
        script in proptest::collection::vec(ops(24), 1..200),
    ) {
        // Keep the live set well under partition capacity to avoid the
        // (detected) livelock regime.
        let keys = ((partition * epp as u64) / 2).clamp(1, 24);
        let mut log = MetaLog::new(partition, epp);
        let mut model: BTreeMap<u64, bool> = BTreeMap::new();
        for op in &script {
            match op {
                Op::Put(k) => {
                    let k = k % keys;
                    log.push(KeyEntry { key: k, tombstone: false }).unwrap();
                    model.insert(k, true);
                }
                Op::Del(k) => {
                    let k = k % keys;
                    log.push(KeyEntry { key: k, tombstone: true }).unwrap();
                    model.remove(&k);
                }
                Op::Flush => {
                    log.flush().unwrap();
                }
            }
            prop_assert!(log.used_pages() <= log.partition_pages());
        }
        let mut live: Vec<u64> = log.recover_live().iter().map(|e| e.key()).collect();
        live.sort_unstable();
        let mut expect: Vec<u64> = model.keys().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(live, expect);
    }

    /// A page's entries are shared by the log's own page, the in-flight
    /// redo copy and the batch handed to the caller. Reclaiming the page —
    /// GC puts its live entries back in the buffer, where newer ones
    /// overwrite them, and a later cut may write over the reclaimed slice
    /// once nothing holds it — must leave a batch the caller still holds as
    /// it was cut. Every batch is confirmed, as the engine does once it is
    /// on flash; a seeded subset is held and the rest dropped, so held and
    /// recycled pages interleave.
    #[test]
    fn held_batch_is_unaffected_by_reclaim_of_its_page(
        partition in 4u64..12,
        epp in 1usize..6,
        script in proptest::collection::vec(ops(16), 1..300),
        hold in any::<u64>(),
    ) {
        let keys = ((partition * epp as u64) / 2).clamp(1, 16);
        let mut log = MetaLog::new(partition, epp);
        log.enable_inflight_tracking();
        let mut held = Vec::new();
        let mut lent = 0u32;
        for op in &script {
            let batches: Vec<_> = match op {
                Op::Put(k) => log.push(KeyEntry { key: k % keys, tombstone: false }).unwrap().collect(),
                Op::Del(k) => log.push(KeyEntry { key: k % keys, tombstone: true }).unwrap().collect(),
                Op::Flush => log.flush().unwrap().collect(),
            };
            for batch in batches {
                log.confirm(batch.seq);
                lent += 1;
                if hold.rotate_left(lent) & 1 == 1 {
                    let as_cut = batch.entries.to_vec();
                    held.push((batch, as_cut));
                }
            }
            let (head, _) = log.counters();
            for (batch, as_cut) in &held {
                prop_assert_eq!(&batch.entries[..], &as_cut[..], "seq {} (head {})", batch.seq, head);
            }
        }
    }

    /// `latest_entry` always reflects the newest push for each key.
    #[test]
    fn latest_entry_is_newest(
        script in proptest::collection::vec(ops(12), 1..120),
    ) {
        let mut log = MetaLog::new(16, 4);
        let mut model: BTreeMap<u64, bool> = BTreeMap::new(); // key -> tombstoned?
        for op in &script {
            match op {
                Op::Put(k) => {
                    log.push(KeyEntry { key: *k, tombstone: false }).unwrap();
                    model.insert(*k, false);
                }
                Op::Del(k) => {
                    log.push(KeyEntry { key: *k, tombstone: true }).unwrap();
                    model.insert(*k, true);
                }
                Op::Flush => {
                    log.flush().unwrap();
                }
            }
        }
        for (k, tombstoned) in model {
            match log.latest_entry(k) {
                Some(e) => prop_assert_eq!(e.tombstone, tombstoned, "key {}", k),
                // A tombstone may have been GC-dropped entirely — that is
                // equivalent to "no entry".
                None => prop_assert!(tombstoned, "live key {} lost", k),
            }
        }
    }

    /// Counters are monotone and usage is bounded; commits land on
    /// partition-relative slots.
    #[test]
    fn invariants_hold_under_churn(
        partition in 2u64..16,
        keys in 1u64..8,
        n in 1usize..300,
    ) {
        let mut log = MetaLog::new(partition, 2);
        let mut last_tail = 0;
        for i in 0..n {
            let k = (i as u64) % keys;
            // Alternate put/delete so the live set stays tiny (no
            // livelock even for 2-page partitions).
            let tomb = i % 2 == 1;
            for c in log.push(KeyEntry { key: k, tombstone: tomb }).unwrap() {
                prop_assert!(c.slot < partition);
                prop_assert!(c.seq >= last_tail);
                last_tail = c.seq;
                prop_assert!(!c.entries.is_empty());
            }
            let (head, tail) = log.counters();
            prop_assert!(head <= tail);
            prop_assert!(tail - head <= partition);
        }
    }
}

/// Torn-tail recovery across wraparound: simulate the flash partition as a
/// slot map that only holds batches the writer got to persist; the
/// youngest (unconfirmed) batches may be torn away or half-written.
/// Replaying flash + the NVRAM in-flight copies must reconstruct exactly
/// the reference map — every batch lands whole or not at all.
mod torn_tail {
    use super::*;
    use kdd_core::metalog::CommitBatch;

    fn recover(
        log: &MetaLog<KeyEntry>,
        flash: &BTreeMap<u64, (u64, Vec<KeyEntry>)>,
        partition: u64,
    ) -> Result<Vec<u64>, String> {
        let (head, tail) = log.counters();
        let mut state: BTreeMap<u64, bool> = BTreeMap::new();
        for seq in head..tail {
            let slot = seq % partition;
            // A flash page is valid for this window position only if it
            // carries the expected sequence number (our stand-in for the
            // real CRC + seq check in the engine's recovery).
            let entries = match flash.get(&slot) {
                Some((s, e)) if *s == seq => e.clone(),
                _ => {
                    let healed = log.unconfirmed().iter().find(|b| b.seq == seq);
                    match healed {
                        Some(b) => b.entries.to_vec(),
                        None => return Err(format!("seq {seq} torn with no in-flight copy")),
                    }
                }
            };
            for e in entries {
                state.insert(e.key, e.tombstone);
            }
        }
        // NVRAM survives power loss: the buffer (which includes live
        // entries GC pushed back) is newer than anything on flash.
        for e in log.buffered_snapshot() {
            state.insert(e.key, e.tombstone);
        }
        let mut live: Vec<u64> =
            state.into_iter().filter_map(|(k, tomb)| (!tomb).then_some(k)).collect();
        live.sort_unstable();
        Ok(live)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn torn_tail_recovers_from_inflight_copies(
            partition in 4u64..20,
            epp in 1usize..6,
            script in proptest::collection::vec(super::ops(16), 1..220),
            unconfirmed_tail in 0usize..3,
            tear in 0u8..2,
        ) {
            let keys = ((partition * epp as u64) / 2).clamp(1, 16);
            let mut log = MetaLog::new(partition, epp);
            log.enable_inflight_tracking();
            let mut model: BTreeMap<u64, bool> = BTreeMap::new();
            let mut produced: Vec<CommitBatch<KeyEntry>> = Vec::new();
            let drive = |log: &mut MetaLog<KeyEntry>, op: &Op, model: &mut BTreeMap<u64, bool>| {
                let commits = match op {
                    Op::Put(k) => {
                        let k = k % keys;
                        model.insert(k, true);
                        log.push(KeyEntry { key: k, tombstone: false })
                    }
                    Op::Del(k) => {
                        let k = k % keys;
                        model.remove(&(k));
                        log.push(KeyEntry { key: k, tombstone: true })
                    }
                    Op::Flush => log.flush(),
                };
                commits.unwrap().collect::<Vec<_>>()
            };
            for op in &script {
                produced.extend(drive(&mut log, op, &mut model));
            }
            // Make sure buffered entries are on their way to flash too.
            produced.extend(log.flush().unwrap());

            // "Persist" batches in order. The last `unconfirmed_tail`
            // batches never get confirmed; if `tear` is set, the very last
            // of those never reaches flash at all (torn page).
            let confirm_upto = produced.len().saturating_sub(unconfirmed_tail);
            let mut flash: BTreeMap<u64, (u64, Vec<KeyEntry>)> = BTreeMap::new();
            for (i, batch) in produced.iter().enumerate() {
                let torn = tear == 1 && unconfirmed_tail > 0 && i == produced.len() - 1;
                if !torn {
                    flash.insert(batch.slot, (batch.seq, batch.entries.to_vec()));
                }
                if i < confirm_upto {
                    log.confirm(batch.seq);
                }
            }

            // Everything in the recovery window that is missing from flash
            // must be healable from the NVRAM in-flight list.
            let live = recover(&log, &flash, partition);
            prop_assert!(live.is_ok(), "{}", live.unwrap_err());
            let mut expect: Vec<u64> = model.keys().copied().collect();
            expect.sort_unstable();
            prop_assert_eq!(live.unwrap(), expect);

            // And the in-flight list never retains confirmed batches.
            for b in log.unconfirmed() {
                prop_assert!(
                    produced[confirm_upto..].iter().any(|p| p.seq == b.seq),
                    "confirmed batch seq {} still in-flight", b.seq
                );
            }
        }
    }
}
