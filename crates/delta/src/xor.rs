//! Word-wide XOR primitives.
//!
//! XOR is the hot loop of the whole system: it computes deltas, applies
//! deltas, and updates RAID parity. All routines process 8 bytes per step
//! on the aligned body of the buffers; the compiler auto-vectorises the
//! `u64` loop to SIMD on x86-64.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

/// Load a native-endian word from a `chunks_exact(8)` chunk without an
/// indexing or `try_into` panic path: `zip` bounds both sides.
#[inline]
fn ne_word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    for (d, s) in w.iter_mut().zip(chunk) {
        *d = *s;
    }
    u64::from_ne_bytes(w)
}

/// XOR `src` into `dst` in place (`dst[i] ^= src[i]`).
///
/// # Panics
/// Panics if lengths differ.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor operands must have equal length");
    // Split both buffers into u64-aligned middles; head/tail byte-wise.
    let n = dst.len();
    let body = n / 8 * 8;
    let (dst_body, dst_tail) = dst.split_at_mut(body);
    let (src_body, src_tail) = src.split_at(body);
    for (d, s) in dst_body.chunks_exact_mut(8).zip(src_body.chunks_exact(8)) {
        let x = ne_word(d) ^ ne_word(s);
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= s;
    }
}

/// XOR two pages into a caller-provided buffer (`out[i] = old[i] ^ new[i]`)
/// without allocating — the zero-alloc twin of [`xor_pages`].
///
/// # Panics
/// Panics if lengths differ.
pub fn xor_pages_into(out: &mut [u8], old: &[u8], new: &[u8]) {
    assert_eq!(out.len(), old.len(), "xor operands must have equal length");
    assert_eq!(out.len(), new.len(), "xor operands must have equal length");
    let body = out.len() / 8 * 8;
    let (out_body, out_tail) = out.split_at_mut(body);
    let (old_body, old_tail) = old.split_at(body);
    let (new_body, new_tail) = new.split_at(body);
    for ((o, a), b) in
        out_body.chunks_exact_mut(8).zip(old_body.chunks_exact(8)).zip(new_body.chunks_exact(8))
    {
        let x = ne_word(a) ^ ne_word(b);
        o.copy_from_slice(&x.to_ne_bytes());
    }
    for ((o, a), b) in out_tail.iter_mut().zip(old_tail).zip(new_tail) {
        *o = a ^ b;
    }
}

/// XOR two pages into a fresh buffer (the delta of `old` and `new`).
///
/// # Panics
/// Panics if lengths differ.
pub fn xor_pages(old: &[u8], new: &[u8]) -> Vec<u8> {
    let mut out = old.to_vec();
    xor_into(&mut out, new);
    out
}

/// Fraction of bytes in `buf` that are zero — a cheap proxy for how well an
/// XOR delta will compress (used by tests and diagnostics).
///
/// Zero bytes are counted eight at a time with the SWAR zero-byte detect
/// (`(w - LO) & !w & HI` sets each byte's high bit iff the byte is zero).
pub fn zero_fraction(buf: &[u8]) -> f64 {
    if buf.is_empty() {
        return 1.0;
    }
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let body = buf.len() / 8 * 8;
    let (head, tail) = buf.split_at(body);
    let mut zeros: u64 = 0;
    for c in head.chunks_exact(8) {
        let w = ne_word(c);
        zeros += u64::from((w.wrapping_sub(LO) & !w & HI).count_ones());
    }
    zeros += tail.iter().filter(|&&b| b == 0).count() as u64;
    zeros as f64 / buf.len() as f64
}

/// True if every byte of `buf` is zero (word-wide scan).
pub fn is_all_zero(buf: &[u8]) -> bool {
    let body = buf.len() / 8 * 8;
    let (head, tail) = buf.split_at(body);
    head.chunks_exact(8).all(|c| ne_word(c) == 0) && tail.iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_roundtrip() {
        let old: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let new: Vec<u8> = (0..4096).map(|i| (i % 193) as u8).collect();
        let delta = xor_pages(&old, &new);
        // old ^ delta == new
        let mut rebuilt = old.clone();
        xor_into(&mut rebuilt, &delta);
        assert_eq!(rebuilt, new);
        // new ^ delta == old
        let mut back = new.clone();
        xor_into(&mut back, &delta);
        assert_eq!(back, old);
    }

    #[test]
    fn xor_identical_pages_is_zero() {
        let page = vec![0xabu8; 4096];
        let delta = xor_pages(&page, &page);
        assert!(is_all_zero(&delta));
        assert_eq!(zero_fraction(&delta), 1.0);
    }

    #[test]
    fn xor_unaligned_length() {
        let a: Vec<u8> = (0..13).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..13).map(|i| (i * 7) as u8).collect();
        let d = xor_pages(&a, &b);
        for i in 0..13 {
            assert_eq!(d[i], a[i] ^ b[i]);
        }
    }

    #[test]
    fn zero_fraction_counts() {
        assert_eq!(zero_fraction(&[]), 1.0);
        assert_eq!(zero_fraction(&[0, 0, 1, 1]), 0.5);
        assert!(!is_all_zero(&[0, 0, 0, 9]));
        assert!(is_all_zero(&[0u8; 17]));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut a = [0u8; 4];
        xor_into(&mut a, &[0u8; 5]);
    }

    #[test]
    fn xor_pages_into_matches_alloc_version() {
        for len in [0usize, 1, 9, 13, 4096] {
            let old: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let new: Vec<u8> = (0..len).map(|i| (i % 193) as u8).collect();
            let mut out = vec![0xEEu8; len];
            xor_pages_into(&mut out, &old, &new);
            assert_eq!(out, xor_pages(&old, &new), "len={len}");
        }
    }

    #[test]
    fn zero_fraction_word_scan_matches_bytewise() {
        for len in [0usize, 1, 7, 8, 9, 31, 4096] {
            let buf: Vec<u8> =
                (0..len).map(|i| if i % 3 == 0 { 0 } else { (i * 17 + 1) as u8 }).collect();
            let expect = if len == 0 {
                1.0
            } else {
                buf.iter().filter(|&&b| b == 0).count() as f64 / len as f64
            };
            assert_eq!(zero_fraction(&buf), expect, "len={len}");
        }
        // 0x80 must not trip the SWAR zero detect.
        assert_eq!(zero_fraction(&[0x80u8; 16]), 0.0);
        assert_eq!(zero_fraction(&[0x01u8; 16]), 0.0);
    }
}
