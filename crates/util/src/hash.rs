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

/// Entries a table of `buckets` buckets holds with no tombstone (hashbrown's
/// `bucket_mask_to_capacity`).
fn full_cap(buckets: usize) -> usize {
    if buckets < 8 {
        buckets.saturating_sub(1)
    } else {
        buckets / 8 * 7
    }
}

/// Buckets std allocates to hold `capacity` entries (hashbrown's
/// `capacity_to_buckets`); `with_capacity(full_cap(b))` allocates `b`.
fn cap_to_buckets(capacity: usize) -> usize {
    if capacity < 4 {
        4
    } else if capacity < 8 {
        8
    } else {
        (capacity * 8 / 7).next_power_of_two()
    }
}

/// A [`FastSet<u64>`] that grows through a [`SpareSets`] free list,
/// iterating under any history exactly as a plain std set with that history
/// would.
///
/// It records its bucket count: once removals leave tombstones,
/// `capacity()` no longer tells it. Reads go through `Deref`; inserts go
/// through [`insert`](Self::insert) and [`extend`](Self::extend), which
/// take the free list. There is no `DerefMut`, so no insert can grow the
/// set behind the free list and leave the count stale. A clone keeps the
/// count: std's clone copies the layout.
#[derive(Debug, Clone, Default)]
pub struct RecycledSet {
    set: FastSet<u64>,
    /// 0 until the first insert allocates.
    buckets: usize,
}

impl std::ops::Deref for RecycledSet {
    type Target = FastSet<u64>;
    fn deref(&self) -> &FastSet<u64> {
        &self.set
    }
}

impl RecycledSet {
    /// The bucket count std would have given this set (0 before its first
    /// insert).
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Insert `key`, growing through `spare` where std's insert would grow;
    /// whether it was new.
    pub fn insert(&mut self, spare: &mut SpareSets, key: u64) -> bool {
        // std's insert reserves room for one key before it looks the key
        // up, so it grows a full set even for a present key.
        spare.reserve(self, 1);
        self.set.insert(key)
    }

    /// Insert every key, reserving up front as std's `extend` does: the
    /// iterator's lower size hint on an empty set, half of it otherwise.
    pub fn extend(&mut self, spare: &mut SpareSets, keys: impl IntoIterator<Item = u64>) {
        let keys = keys.into_iter();
        let hint = keys.size_hint().0;
        spare.reserve(self, if self.set.is_empty() { hint } else { hint.div_ceil(2) });
        for key in keys {
            self.insert(spare, key);
        }
    }

    /// Remove `key`; whether it was present.
    pub fn remove(&mut self, key: &u64) -> bool {
        self.set.remove(key)
    }

    /// Take every key, in iteration order, keeping the buckets.
    pub fn drain(&mut self) -> std::collections::hash_set::Drain<'_, u64> {
        self.set.drain()
    }

    /// Drop every key, keeping the buckets.
    pub fn clear(&mut self) {
        self.set.clear();
    }
}

/// Emptied sets of every bucket count, and the growth step of each
/// [`RecycledSet`] that draws on them.
///
/// A set's layout depends on its bucket count and on its history since it
/// was last resized. When std resizes, it places the old set's keys into
/// fresh buckets in the old set's iteration order. So when a set must
/// grow, the free list does the same: it picks the bucket count std would
/// pick, takes an emptied set of that count (or allocates one only when
/// none waits), refills it in the old set's iteration order and keeps the
/// old set. The result is laid out exactly as std's own resize would lay it
/// out. A rehash in place (tombstones taking up half the room) keeps the
/// buckets and is left to std.
#[derive(Debug, Default)]
pub struct SpareSets {
    /// `free[n]`: emptied sets of `1 << n` buckets.
    free: Vec<Vec<FastSet<u64>>>,
}

impl SpareSets {
    /// Keep `set`'s buckets, emptied, for a later growth step to that size.
    pub fn give(&mut self, set: RecycledSet) {
        let RecycledSet { mut set, buckets } = set;
        // `drain`, not `clear`: std's `clear` keeps the tombstones of a set
        // whose keys were all removed already.
        drop(set.drain());
        self.keep(set, buckets);
    }

    /// Sets of `buckets` buckets waiting.
    pub fn spares(&self, buckets: usize) -> usize {
        self.free.get(buckets.trailing_zeros() as usize).map_or(0, Vec::len)
    }

    /// Sets waiting, of any size.
    pub fn len(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// Whether no set is waiting.
    pub fn is_empty(&self) -> bool {
        self.free.iter().all(Vec::is_empty)
    }

    /// Keep an emptied, tombstone-free set of `buckets` buckets.
    fn keep(&mut self, set: FastSet<u64>, buckets: usize) {
        if buckets == 0 {
            return; // never allocated
        }
        let n = buckets.trailing_zeros() as usize;
        if self.free.len() <= n {
            self.free.resize_with(n + 1, Vec::new);
        }
        self.free[n].push(set);
    }

    /// std's `reserve(additional)` on `t`, with any resize done here.
    fn reserve(&mut self, t: &mut RecycledSet, additional: usize) {
        let (len, full) = (t.set.len(), full_cap(t.buckets));
        if additional > t.set.capacity() - len && len + additional > full / 2 {
            let buckets = cap_to_buckets((len + additional).max(full + 1));
            let mut grown = self
                .free
                .get_mut(buckets.trailing_zeros() as usize)
                .and_then(Vec::pop)
                .unwrap_or_else(|| {
                    FastSet::with_capacity_and_hasher(full_cap(buckets), FastHasherBuilder)
                });
            debug_assert_eq!(grown.capacity(), full_cap(buckets), "std's sizing rules moved");
            grown.extend(t.set.drain());
            let old = std::mem::replace(&mut t.set, grown);
            self.keep(old, std::mem::replace(&mut t.buckets, buckets));
        }
        // What is left is std's own: nothing, or a rehash in place.
        t.set.reserve(additional);
    }
}

/// Clones start with an empty free list, as [`PagePool`](crate::PagePool)
/// clones do: reuse in one never depends on activity in another.
impl Clone for SpareSets {
    fn clone(&self) -> Self {
        SpareSets::default()
    }
}

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
    fn fast_map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, i * 3);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
    }

    /// The std (hashbrown) rules `SpareSets` reproduces. If a toolchain
    /// changes them, this fails first, by name, rather than the figure pins.
    #[test]
    fn std_growth_rules_are_the_ones_spare_tables_encodes() {
        // Successive inserts walk the full capacities of 4, 8, 16, ... buckets.
        let mut set = FastSet::<u64>::default();
        let mut caps = Vec::new();
        for key in 0..113 {
            set.insert(key);
            if caps.last() != Some(&set.capacity()) {
                caps.push(set.capacity());
            }
        }
        assert_eq!(caps, [3, 7, 14, 28, 56, 112, 224]);
        let buckets: Vec<usize> = (2..9).map(|n| 1 << n).collect();
        assert_eq!(caps, buckets.iter().map(|&b| full_cap(b)).collect::<Vec<_>>());
        for &b in &buckets {
            let table = FastSet::<u64>::with_capacity_and_hasher(full_cap(b), FastHasherBuilder);
            assert_eq!(table.capacity(), full_cap(b), "with_capacity(full_cap({b}))");
        }
        for c in 1..=224 {
            let table = FastSet::<u64>::with_capacity_and_hasher(c, FastHasherBuilder);
            assert_eq!(table.capacity(), full_cap(cap_to_buckets(c)), "with_capacity({c})");
        }

        // An insert reserves room before it looks its key up: a full table
        // grows even when the key is present.
        let mut set = FastSet::<u64>::default();
        set.extend([1, 2, 3]);
        assert_eq!(set.capacity(), 3);
        set.insert(2);
        assert_eq!(set.capacity(), 7, "insert of a present key at full capacity");

        // Churn a 32-bucket set at 13 keys until tombstones take up all
        // spare room: 14 keys fit in half of `full_cap(32)`, so the next
        // insert rehashes in place (capacity 28) instead of growing (56).
        let mut set = FastSet::with_capacity_and_hasher(full_cap(32), FastHasherBuilder);
        let mut keys: std::collections::VecDeque<u64> = (1000..1028).collect();
        set.extend(keys.iter().copied());
        for key in keys.drain(..15) {
            set.remove(&key);
        }
        let mut next = 1028;
        while set.capacity() > set.len() {
            assert!(next < 2000, "no tombstone build-up");
            if let Some(old) = keys.pop_front() {
                set.remove(&old);
            }
            set.insert(next);
            keys.push_back(next);
            next += 1;
        }
        assert_eq!((set.len(), set.capacity()), (13, 13));

        // `clear` keeps the tombstones of a set whose keys are all
        // removed; `drain` drops them, so `SpareSets::give` drains.
        let mut emptied = set.clone();
        for key in &keys {
            emptied.remove(key);
        }
        let mut cleared = emptied.clone();
        cleared.clear();
        assert!(cleared.capacity() < full_cap(32), "clear of an emptied table");
        drop(emptied.drain());
        assert_eq!(emptied.capacity(), full_cap(32), "drain");

        set.insert(next);
        assert_eq!(set.capacity(), 28, "rehash in place, not a resize");
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
