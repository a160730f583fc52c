//! Property tests: the RAID array against a flat-array reference model,
//! under random operation sequences including delayed parity, failures
//! and rebuilds.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd_raid::array::{RaidArray, RaidError};
use kdd_raid::layout::{Layout, RaidLevel};
use proptest::prelude::*;

const PS: usize = 128;

#[derive(Debug, Clone)]
enum Action {
    Write(u64, u8),
    WriteNoParity(u64, u8),
    Read(u64),
    CleanRow(u64),
    Resync,
}

fn action_strategy(capacity: u64) -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..capacity, any::<u8>()).prop_map(|(l, t)| Action::Write(l, t)),
        (0..capacity, any::<u8>()).prop_map(|(l, t)| Action::WriteNoParity(l, t)),
        (0..capacity).prop_map(Action::Read),
        (0..capacity).prop_map(Action::CleanRow),
        Just(Action::Resync),
    ]
}

fn page(tag: u8) -> Vec<u8> {
    (0..PS).map(|i| tag ^ (i as u8).wrapping_mul(29)).collect()
}

fn check_against_model(
    level: RaidLevel,
    disks: usize,
    actions: &[Action],
) -> Result<(), TestCaseError> {
    let layout = Layout::new(level, disks, 4, 4 * 8);
    let mut array = RaidArray::new(layout, PS as u32);
    let capacity = array.capacity_pages();
    let mut model: Vec<Option<u8>> = vec![None; capacity as usize];
    let mut buf = vec![0u8; PS];

    for a in actions {
        match a {
            Action::Write(lba, tag) => {
                let lba = lba % capacity;
                array.write_page(lba, &page(*tag)).unwrap();
                model[lba as usize] = Some(*tag);
            }
            Action::WriteNoParity(lba, tag) => {
                let lba = lba % capacity;
                array.write_no_parity_update(lba, &page(*tag)).unwrap();
                model[lba as usize] = Some(*tag);
            }
            Action::Read(lba) => {
                let lba = lba % capacity;
                array.read_page(lba, &mut buf).unwrap();
                let expect = model[lba as usize].map(page).unwrap_or_else(|| vec![0u8; PS]);
                prop_assert_eq!(&buf, &expect, "read {} diverged from model", lba);
            }
            Action::CleanRow(lba) => {
                let row = array.layout().row_of(lba % capacity);
                if array.is_stale(row) {
                    array.resync(Some(&[row])).unwrap();
                    prop_assert!(!array.is_stale(row));
                }
            }
            Action::Resync => {
                array.resync(None).unwrap();
                prop_assert_eq!(array.stale_row_count(), 0);
            }
        }
    }

    // Final: resync everything, then survive any single failure with
    // contents intact.
    array.resync(None).unwrap();
    for victim in 0..disks {
        let mut degraded = array.clone();
        degraded.fail_disk(victim);
        for (lba, m) in model.iter().enumerate() {
            degraded.read_page(lba as u64, &mut buf).unwrap();
            let expect = m.map(page).unwrap_or_else(|| vec![0u8; PS]);
            prop_assert_eq!(&buf, &expect, "degraded({}) read {} wrong", victim, lba);
        }
        degraded.rebuild().unwrap();
        for row in 0..degraded.layout().rows() {
            prop_assert!(degraded.verify_row(row).unwrap(), "row {row} after rebuild");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn raid5_matches_model(actions in proptest::collection::vec(action_strategy(512), 1..60)) {
        check_against_model(RaidLevel::Raid5, 4, &actions)?;
    }

    #[test]
    fn raid6_matches_model(actions in proptest::collection::vec(action_strategy(512), 1..40)) {
        check_against_model(RaidLevel::Raid6, 5, &actions)?;
    }

    /// RAID-6 tolerates any double failure after resync.
    #[test]
    fn raid6_survives_double_failures(
        writes in proptest::collection::vec((0u64..256, any::<u8>()), 1..30),
        f1 in 0usize..5,
        f2 in 0usize..5,
    ) {
        prop_assume!(f1 != f2);
        let layout = Layout::new(RaidLevel::Raid6, 5, 4, 4 * 8);
        let mut array = RaidArray::new(layout, PS as u32);
        let cap = array.capacity_pages();
        let mut model: Vec<Option<u8>> = vec![None; cap as usize];
        for (lba, tag) in &writes {
            let lba = lba % cap;
            array.write_page(lba, &page(*tag)).unwrap();
            model[lba as usize] = Some(*tag);
        }
        array.fail_disk(f1);
        array.fail_disk(f2);
        let mut buf = vec![0u8; PS];
        for (lba, m) in model.iter().enumerate() {
            array.read_page(lba as u64, &mut buf).unwrap();
            let expect = m.map(page).unwrap_or_else(|| vec![0u8; PS]);
            prop_assert_eq!(&buf, &expect);
        }
    }

    /// A degraded read on a stale row is always refused, never silently
    /// wrong (the §I data-loss window made visible).
    #[test]
    fn stale_degraded_reads_always_refused(lba in 0u64..128, tag in any::<u8>()) {
        let layout = Layout::new(RaidLevel::Raid5, 5, 4, 4 * 8);
        let mut array = RaidArray::new(layout, PS as u32);
        let lba = lba % array.capacity_pages();
        array.write_page(lba, &page(tag)).unwrap();
        array.write_no_parity_update(lba, &page(tag ^ 0xFF)).unwrap();
        let row = array.layout().row_of(lba);
        // Fail a different member of the same row.
        let peer = array.layout().row_lpns(row).into_iter().find(|&l| l != lba).unwrap();
        let peer_disk = array.layout().locate(peer).disk;
        array.fail_disk(peer_disk);
        let mut buf = vec![0u8; PS];
        prop_assert_eq!(
            array.read_page(peer, &mut buf).unwrap_err(),
            RaidError::StaleParity { row }
        );
    }
}
