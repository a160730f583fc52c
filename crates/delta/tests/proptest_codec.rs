//! Property tests: the delta codec must round-trip *anything*, and the
//! XOR algebra must hold for arbitrary page pairs.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd_delta::codec::{compress, decompress, decompress_into, Compressor};
use kdd_delta::content::PageMutator;
use kdd_delta::xor::{xor_into, xor_pages};
use proptest::prelude::*;

proptest! {
    /// compress ∘ decompress == identity for arbitrary bytes.
    #[test]
    fn codec_roundtrips_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    /// Compressed size is never more than input + 1 (the raw fallback).
    #[test]
    fn codec_never_expands_beyond_header(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert!(compress(&data).len() <= data.len() + 1);
    }

    /// Sparse data (mostly zeros) compresses substantially.
    #[test]
    fn sparse_data_compresses(
        positions in proptest::collection::vec(0usize..4096, 0..100),
        values in proptest::collection::vec(1u8..=255, 100),
    ) {
        let mut page = vec![0u8; 4096];
        for (i, &pos) in positions.iter().enumerate() {
            page[pos] = values[i % values.len()];
        }
        let c = compress(&page);
        // ≤100 scattered non-zero bytes: must compress below 20% + slack.
        prop_assert!(c.len() < 900, "sparse page compressed to {}", c.len());
        prop_assert_eq!(decompress(&c).unwrap(), page);
    }

    /// XOR is an involution: (a ⊕ b) ⊕ b == a, and order does not matter.
    #[test]
    fn xor_algebra(
        a in proptest::collection::vec(any::<u8>(), 1..2048),
        b_seed in any::<u64>(),
    ) {
        let b: Vec<u8> = a.iter().enumerate()
            .map(|(i, &x)| x ^ (b_seed.wrapping_mul(i as u64 + 1) >> 32) as u8)
            .collect();
        let d1 = xor_pages(&a, &b);
        let d2 = xor_pages(&b, &a);
        prop_assert_eq!(&d1, &d2, "xor is symmetric");
        let mut back = b.clone();
        xor_into(&mut back, &d1);
        prop_assert_eq!(back, a);
    }

    /// The full KDD data path: old ⊕ new → compress → decompress → apply
    /// recovers new exactly, for arbitrary version pairs.
    #[test]
    fn delta_pipeline_recovers_new_version(
        old in proptest::collection::vec(any::<u8>(), 512),
        flips in proptest::collection::vec((0usize..512, any::<u8>()), 0..64),
    ) {
        let mut new = old.clone();
        for (pos, val) in flips {
            new[pos] = val;
        }
        let delta = xor_pages(&old, &new);
        let stored = compress(&delta);
        let recovered_delta = decompress(&stored).unwrap();
        let mut rebuilt = old.clone();
        xor_into(&mut rebuilt, &recovered_delta);
        prop_assert_eq!(rebuilt, new);
    }

    /// Adversarial input for the hash-chain finder: pages stitched from
    /// short repeated motifs at varying periods, including periods below
    /// MIN_MATCH (overlapping matches, where a match's source extends into
    /// the region being produced) and hash-collision-prone step patterns.
    #[test]
    fn match_finder_roundtrips_adversarial_overlap(
        motif in proptest::collection::vec(any::<u8>(), 1..9),
        reps in 1usize..1500,
        prefix in proptest::collection::vec(any::<u8>(), 0..32),
        suffix in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut page = prefix;
        for _ in 0..reps {
            page.extend_from_slice(&motif);
            if page.len() >= 6000 {
                break;
            }
        }
        page.extend_from_slice(&suffix);
        let c = compress(&page);
        prop_assert!(c.len() <= page.len() + 1);
        prop_assert_eq!(decompress(&c).unwrap(), page);
    }

    /// Trace-derived shape: XOR deltas of clustered seeded mutations (the
    /// exact page class the engine's write-hit path feeds the codec).
    #[test]
    fn match_finder_roundtrips_trace_derived_deltas(
        seed in any::<u64>(),
        change in 1u32..60,
        run_len in 1usize..256,
        versions in 1usize..5,
    ) {
        let mut m = PageMutator::new(4096, f64::from(change) / 100.0, run_len, seed);
        let mut prev = m.initial_page();
        for _ in 0..versions {
            let next = m.mutate(&prev);
            let delta = xor_pages(&prev, &next);
            let c = compress(&delta);
            prop_assert!(c.len() <= delta.len() + 1);
            prop_assert_eq!(decompress(&c).unwrap(), delta);
            prev = next;
        }
    }

    /// `decompress_into` replaces whatever the buffer held — including the
    /// longer output of the previous call — and agrees with `decompress`.
    #[test]
    fn decompress_into_replaces_buffer_contents(
        pages in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 0..4096), 1..6),
    ) {
        let mut buf = vec![0xAA; 17];
        for page in &pages {
            let c = compress(page);
            decompress_into(&c, &mut buf).unwrap();
            prop_assert_eq!(&buf, page);
            prop_assert_eq!(decompress(&c).unwrap(), page.clone());
        }
    }

    /// A reused [`Compressor`] (the engine's per-instance scratch state)
    /// produces byte-identical output to a fresh one on every page of a
    /// random mixed sequence — scratch reuse must not leak state.
    #[test]
    fn compressor_reuse_matches_fresh_on_random_sequence(
        pages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..4096), 1..6),
    ) {
        let mut shared = Compressor::new();
        for page in &pages {
            let reused = shared.compress(page);
            prop_assert_eq!(&reused, &compress(page), "reuse diverged");
            prop_assert_eq!(decompress(&reused).unwrap(), page.clone());
        }
    }
}

/// Inputs on both sides of 64 KiB, where the match finder switches from
/// `u16` to `u32` table positions: one `Compressor` taken back and forth
/// across the switch round-trips them all and never expands.
#[test]
fn codec_roundtrips_across_the_index_width_switch() {
    let mut m = PageMutator::new(4096, 0.15, 64, 14);
    let mut data = Vec::new();
    while data.len() < 70_000 {
        let base = m.initial_page();
        let mut cur = m.mutate(&base);
        for _ in 0..data.len() / 4096 % 6 {
            cur = m.mutate(&cur);
        }
        data.extend_from_slice(&xor_pages(&base, &cur));
    }
    let mut comp = Compressor::new();
    for len in [65_534, 4096, 65_535, 65_536, 4096, 70_000] {
        let c = comp.compress(&data[..len]);
        assert!(c.len() <= len + 1, "{len} bytes expanded to {}", c.len());
        assert_eq!(c, compress(&data[..len]), "{len} bytes: scratch reuse changed the output");
        assert!(decompress(&c).unwrap() == data[..len], "{len} bytes: roundtrip failed");
    }
}
