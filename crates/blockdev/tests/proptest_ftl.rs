//! Model-based property tests: the FTL against a reference map, under
//! arbitrary write/trim/read interleavings — mapping integrity must
//! survive any garbage-collection schedule.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use kdd_blockdev::error::DevError;
use kdd_blockdev::flash::{FlashGeometry, FlashTimings};
use kdd_blockdev::ftl::Ftl;
use kdd_blockdev::ssd::SsdDevice;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Trim(u64),
    Read(u64),
}

fn ops(lpns: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..lpns).prop_map(Op::Write),
        1 => (0..lpns).prop_map(Op::Trim),
        2 => (0..lpns).prop_map(Op::Read),
    ]
}

fn small_geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 2,
        dies_per_channel: 1,
        blocks_per_die: 24,
        pages_per_block: 8,
        page_size: 512,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mapped-ness always matches the model; reads of mapped pages never
    /// fail; WAF ≥ 1 whenever anything was written.
    #[test]
    fn ftl_matches_model(script in proptest::collection::vec(ops(256), 1..400)) {
        let mut ftl = Ftl::new(small_geometry(), FlashTimings::mlc_default(), 0.25);
        let lpns = ftl.logical_pages();
        let mut model: BTreeMap<u64, ()> = BTreeMap::new();
        for op in &script {
            match op {
                Op::Write(l) => {
                    let l = l % lpns;
                    ftl.write(l).unwrap();
                    model.insert(l, ());
                }
                Op::Trim(l) => {
                    let l = l % lpns;
                    ftl.trim(l).unwrap();
                    model.remove(&l);
                }
                Op::Read(l) => {
                    let l = l % lpns;
                    match ftl.read(l) {
                        Ok(_) => prop_assert!(model.contains_key(&l), "read of unmapped {l} succeeded"),
                        Err(DevError::Unmapped { .. }) => prop_assert!(!model.contains_key(&l)),
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
                    }
                }
            }
        }
        for l in 0..lpns {
            prop_assert_eq!(ftl.is_mapped(l), model.contains_key(&l), "lpn {}", l);
        }
        let rep = ftl.endurance();
        if rep.host_written_bytes > 0 {
            prop_assert!(rep.waf() >= 1.0);
        }
        prop_assert!(rep.nand_written_bytes >= rep.host_written_bytes);
    }

    /// The SSD device layer preserves content through arbitrary GC churn.
    #[test]
    fn ssd_content_survives_gc(script in proptest::collection::vec(ops(64), 1..250)) {
        let mut ssd = SsdDevice::new(small_geometry(), FlashTimings::mlc_default(), 0.25);
        let lpns = ssd.capacity_pages().min(64);
        let ps = ssd.page_size() as usize;
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut stamp = 0u8;
        for op in &script {
            match op {
                Op::Write(l) => {
                    let l = l % lpns;
                    stamp = stamp.wrapping_add(1);
                    let data: Vec<u8> = (0..ps).map(|i| stamp ^ (i as u8)).collect();
                    ssd.write_page(l, &data).unwrap();
                    model.insert(l, data);
                }
                Op::Trim(l) => {
                    let l = l % lpns;
                    ssd.trim_page(l).unwrap();
                    model.remove(&l);
                }
                Op::Read(l) => {
                    let l = l % lpns;
                    if let Some(expect) = model.get(&l) {
                        let mut buf = vec![0u8; ps];
                        ssd.read_page(l, &mut buf).unwrap();
                        prop_assert_eq!(&buf, expect, "content of {} diverged", l);
                    }
                }
            }
        }
        // Final sweep: every mapped page readable and correct.
        let mut buf = vec![0u8; ps];
        for (l, expect) in &model {
            ssd.read_page(*l, &mut buf).unwrap();
            prop_assert_eq!(&buf, expect);
        }
    }

    /// Wear stays bounded and balanced relative to traffic.
    #[test]
    fn wear_accounting_consistent(overwrites in 1u64..2000) {
        let mut ftl = Ftl::new(small_geometry(), FlashTimings::mlc_default(), 0.25);
        let hot = 16u64;
        for i in 0..overwrites {
            ftl.write(i % hot).unwrap();
        }
        let rep = ftl.endurance();
        prop_assert_eq!(rep.host_written_bytes, overwrites * 512);
        // Erases * block size can never exceed NAND bytes written plus one
        // spare block cycle per block.
        let block_bytes = 8 * 512u64;
        prop_assert!(rep.erases * block_bytes <= rep.nand_written_bytes + 48 * block_bytes);
        prop_assert!(rep.life_used >= 0.0 && rep.life_used < 1.0);
    }
}
