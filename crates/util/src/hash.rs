//! Fast, non-cryptographic 64-bit hashing.
//!
//! The cache maps logical block addresses to cache sets with a cheap mixing
//! hash (the paper: "DAZ pages are located in cache sets via hash
//! functions"). SipHash would dominate the simulator profile, so we use the
//! finalizer from MurmurHash3 (`fmix64`), which has full avalanche behaviour
//! and costs a handful of ALU ops.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

/// MurmurHash3 `fmix64` finalizer: a bijective mix with full avalanche.
///
/// Because it is bijective, distinct LBAs never collide before the modulo
/// by the set count, which keeps set occupancy balanced for both sequential
/// and strided workloads.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Combine two 64-bit values into one hash (used for (disk, lba) keys).
#[inline]
pub fn mix64_pair(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b).rotate_left(32))
}

/// A `std::hash::Hasher` wrapper around [`mix64`] for integer-keyed maps.
///
/// Only suitable for keys that feed at most 16 bytes; it folds everything
/// into a single u64 with multiply-rotate steps (FxHash-style) and applies
/// the fmix64 finalizer at the end.
#[derive(Default, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
#[derive(Default, Clone, Copy)]
pub struct FastHasherBuilder;

impl std::hash::BuildHasher for FastHasherBuilder {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// A `HashMap` keyed with the fast hasher; the workhorse map of the caches.
#[allow(clippy::disallowed_types, reason = "a fixed hasher iterates in the same order every run")]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastHasherBuilder>;

/// A `HashSet` using the fast hasher.
#[allow(clippy::disallowed_types, reason = "a fixed hasher iterates in the same order every run")]
pub type FastSet<K> = std::collections::HashSet<K, FastHasherBuilder>;

/// The reflected IEEE 802.3 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC32_TABLES[k][b]` is the register after byte
/// `b` followed by `k` zero bytes, so eight input bytes fold in with eight
/// independent lookups instead of 64 dependent shift-and-mask steps.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0u32;
    while b < 256 {
        let mut r = b;
        let mut bit = 0;
        while bit < 8 {
            r = (r >> 1) ^ (CRC32_POLY & (r & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b as usize] = r;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Fold `data` into a CRC-32 (IEEE 802.3) running state.
///
/// `state` is the raw (pre-inverted) register; start from `!0` and finish
/// with a final inversion, or use [`crc32`] for the one-shot form. The
/// incremental form lets the metadata log checksum a page header and body
/// that are not contiguous in memory.
#[inline]
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// The bit-at-a-time definition [`crc32_update`] is held to.
#[cfg(test)]
fn crc32_update_bitwise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state ^= b as u32;
        for _ in 0..8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (CRC32_POLY & mask);
        }
    }
    state
}

/// One-shot CRC-32 (IEEE 802.3) of `data`.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn mix64_is_bijective_on_sample() {
        // Bijectivity can't be tested exhaustively; check no collisions on a
        // dense range, which is the pattern cache-set indexing sees.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn mix64_avalanche() {
        // Flipping one input bit should flip ~half the output bits.
        let base = mix64(0xdead_beef);
        for bit in 0..64 {
            let flipped = mix64(0xdead_beef ^ (1u64 << bit));
            let dist = (base ^ flipped).count_ones();
            assert!((12..=52).contains(&dist), "poor avalanche at bit {bit}: {dist}");
        }
    }

    #[test]
    fn pair_hash_differs_by_order() {
        assert_ne!(mix64_pair(1, 2), mix64_pair(2, 1));
    }

    #[test]
    fn fast_map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, i * 3);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE 802.3 test vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental form must agree with the one-shot form over a split.
        let data = b"keeping data and deltas";
        let split = crc32_update(crc32_update(!0, &data[..7]), &data[7..]);
        assert_eq!(!split, crc32(data));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The table-driven CRC equals the bitwise definition from any
        /// starting register, and folding a buffer in two pieces at any
        /// split point equals folding it whole.
        #[test]
        fn crc32_tables_match_bitwise_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=8192),
            start in proptest::prelude::any::<u32>(),
        ) {
            let whole = crc32_update_bitwise(start, &data);
            proptest::prop_assert_eq!(crc32_update(start, &data), whole);
            for split in 0..=data.len() {
                let (a, b) = data.split_at(split);
                proptest::prop_assert_eq!(crc32_update(crc32_update(start, a), b), whole);
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let page = vec![0x5Au8; 512];
        let good = crc32(&page);
        for byte in [0usize, 100, 511] {
            let mut bad = page.clone();
            bad[byte] ^= 1;
            assert_ne!(crc32(&bad), good, "flip at byte {byte} undetected");
        }
    }

    #[test]
    fn hasher_distributes_sequential_keys() {
        let b = FastHasherBuilder;
        let mut buckets = [0u32; 16];
        for i in 0..16_000u64 {
            let mut h = b.build_hasher();
            h.write_u64(i);
            buckets[(h.finish() % 16) as usize] += 1;
        }
        for &c in &buckets {
            assert!((800..1200).contains(&c), "skewed bucket: {c}");
        }
    }
}
