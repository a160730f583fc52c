//! Property tests: the SPC/MSR writers and parsers round-trip arbitrary
//! traces, and the parsers never panic on hostile input.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

use kdd_trace::record::{Op, Trace, TraceRecord};
use kdd_trace::{msr, spc, writer};
use kdd_util::units::SimTime;
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    (0u64..1 << 30, 1u32..16, any::<bool>(), 0u64..1 << 40).prop_map(|(lba, len, read, ns)| {
        TraceRecord {
            time: SimTime::from_nanos(ns / 100 * 100), // MSR tick granularity
            op: if read { Op::Read } else { Op::Write },
            lba,
            len,
        }
    })
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(record_strategy(), 0..60).prop_map(|mut records| {
        records.sort_by_key(|r| r.time);
        Trace { records, page_size: 4096 }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spc_write_parse_roundtrip(trace in trace_strategy()) {
        let mut buf = Vec::new();
        writer::write_spc(&trace, &mut buf).unwrap();
        let parsed = spc::parse(std::io::Cursor::new(&buf), 4096).unwrap();
        prop_assert_eq!(parsed.len(), trace.len());
        for (a, b) in trace.records.iter().zip(&parsed.records) {
            prop_assert_eq!(a.op, b.op);
            prop_assert_eq!(a.lba, b.lba);
            prop_assert_eq!(a.len, b.len);
            // SPC carries seconds with 6 decimals: microsecond precision.
            prop_assert!(a.time.as_nanos().abs_diff(b.time.as_nanos()) <= 1_000);
        }
    }

    #[test]
    fn msr_write_parse_roundtrip(trace in trace_strategy()) {
        let mut buf = Vec::new();
        writer::write_msr(&trace, &mut buf).unwrap();
        let parsed = msr::parse(std::io::Cursor::new(&buf), 4096, None).unwrap();
        prop_assert_eq!(parsed.len(), trace.len());
        for (a, b) in trace.records.iter().zip(&parsed.records) {
            prop_assert_eq!(a.op, b.op);
            prop_assert_eq!(a.lba, b.lba);
            prop_assert_eq!(a.len, b.len);
            // The parser rebases to the first record's tick; relative
            // times survive at 100ns resolution.
            let base_a = trace.records[0].time;
            let base_b = parsed.records[0].time;
            let rel_a = a.time.saturating_sub(base_a).as_nanos();
            let rel_b = b.time.saturating_sub(base_b).as_nanos();
            prop_assert!(rel_a.abs_diff(rel_b) <= 100);
        }
    }

    /// Arbitrary garbage never panics the parsers — it errors or parses.
    #[test]
    fn parsers_are_total(junk in proptest::collection::vec(any::<u8>(), 0..500)) {
        #[expect(clippy::let_underscore_must_use, reason = "an error is as good as a parse here")]
        let _ = spc::parse(std::io::Cursor::new(&junk), 4096);
        #[expect(clippy::let_underscore_must_use, reason = "an error is as good as a parse here")]
        let _ = msr::parse(std::io::Cursor::new(&junk), 4096, None);
    }

    /// Structured-but-wrong lines produce errors with line numbers.
    #[test]
    fn bad_lines_report_position(good_lines in 0usize..5) {
        let mut text = String::new();
        for i in 0..good_lines {
            text.push_str(&format!("0,{},4096,w,{}.0\n", i * 8, i));
        }
        text.push_str("0,NOT_A_NUMBER,4096,w,9.0\n");
        let err = spc::parse(std::io::Cursor::new(text.as_bytes()), 4096).unwrap_err();
        prop_assert_eq!(err.line, good_lines + 1);
    }
}
