//! GF(2^8) arithmetic for RAID-6 Q parity.
//!
//! RAID-6 computes `Q = Σ g^i · D_i` over the Galois field GF(2^8) with
//! the standard polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11D) and
//! generator `g = 2` — the same field as the Linux kernel raid6 engine.
//! Log/exp tables make scalar multiplication a pair of lookups; the bulk
//! kernels ([`mul_slice_into`], [`mul2_slice_into`]) run word-at-a-time:
//!
//! * The sixteen coefficients `g^0..g^15` that real arrays use (Q parity
//!   for up to 16 data members) get const-specialised SWAR chains — a
//!   multiply-by-2 on eight packed bytes is three ANDs, a shift and a
//!   conditional XOR of the reduction polynomial, and `c·x` unrolls into
//!   at most eight such doublings selected by the bits of `c` at compile
//!   time. The per-word loop autovectorises cleanly (one wide load, no
//!   lane shuffles); see DESIGN.md "Hot paths & allocation discipline".
//! * Any other coefficient (degraded-mode reconstruction constants like
//!   `(g^x ⊕ g^y)^-1`) falls back to split-nibble tables: two 16-entry
//!   tables built once per call, `c·s = LO[s & 0xF] ⊕ HI[s >> 4]`, still
//!   processed over `u64` words.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::sync::OnceLock;

const POLY: u32 = 0x11D;

/// Per-byte masks for the packed multiply-by-2: low 7 bits, the high
/// (carry) bit, and the reduction polynomial replicated into each lane.
const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HI1: u64 = 0x8080_8080_8080_8080;
const P1D: u64 = 0x1d1d_1d1d_1d1d_1d1d;

struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u32 = 1;
        #[allow(clippy::needless_range_loop)]
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        // Duplicate so mul can skip the mod-255 on index sums.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Multiply two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics on zero (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no inverse in GF(2^8)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Divide `a` by `b`.
///
/// # Panics
/// Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// `g^k` for the generator g = 2.
#[inline]
pub fn pow_g(k: usize) -> u8 {
    tables().exp[k % 255]
}

/// Multiply eight packed field elements by 2 (g). Per byte:
/// `2·x = (x << 1) ⊕ (0x1D if x ≥ 0x80)`. The mask of per-byte 0xFF for
/// every lane whose high bit is set is `(hi << 1) − (hi >> 7)` with the
/// cross-byte borrows cancelling exactly because every lane subtracts
/// what its neighbour lends.
#[inline(always)]
fn mul2_word(w: u64) -> u64 {
    let hi = w & HI1;
    ((w & LO7) << 1) ^ (((hi << 1).wrapping_sub(hi >> 7)) & P1D)
}

/// Scalar `c·s` by the doubling chain — the byte-tail companion of the
/// word kernels (identical operation order, no table dependence).
#[inline(always)]
fn mul_byte_chain(c: u8, s: u8) -> u8 {
    let mut b = s;
    let mut acc = 0u8;
    for k in 0..8 {
        if c >> k & 1 != 0 {
            acc ^= b;
        }
        b = (b << 1) ^ (if b & 0x80 != 0 { 0x1D } else { 0 });
    }
    acc
}

/// `dst ^= C·src`, eight bytes per step. `C` is a compile-time constant,
/// so the doubling chain below collapses to straight-line code of depth
/// `bit-length(C)` with no per-iteration branches, which the loop
/// vectoriser turns into clean stride-1 SIMD. `inline(never)` pins one
/// isolated, predictably-vectorised copy per coefficient (inlining into
/// larger bodies was observed to break autovectorisation).
#[inline(never)]
fn chain_const_pw<const C: u8>(src: &[u8], dst: &mut [u8]) {
    let n = src.len().min(dst.len());
    let (dh, dt) = dst[..n].split_at_mut(n - n % 8);
    let (sh, st) = src[..n].split_at(n - n % 8);
    let mut t = [0u8; 8];
    for (dc, sc) in dh.chunks_exact_mut(8).zip(sh.chunks_exact(8)) {
        t.copy_from_slice(sc);
        let mut b = u64::from_ne_bytes(t);
        let mut acc = if C & 1 != 0 { b } else { 0 };
        if C >> 1 != 0 {
            b = mul2_word(b);
            if C >> 1 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 2 != 0 {
            b = mul2_word(b);
            if C >> 2 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 3 != 0 {
            b = mul2_word(b);
            if C >> 3 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 4 != 0 {
            b = mul2_word(b);
            if C >> 4 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 5 != 0 {
            b = mul2_word(b);
            if C >> 5 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 6 != 0 {
            b = mul2_word(b);
            if C >> 6 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 7 != 0 {
            b = mul2_word(b);
            if C >> 7 & 1 != 0 {
                acc ^= b;
            }
        }
        t.copy_from_slice(dc);
        let d = u64::from_ne_bytes(t);
        dc.copy_from_slice(&(d ^ acc).to_ne_bytes());
    }
    for (d, &s) in dt.iter_mut().zip(st) {
        *d ^= mul_byte_chain(C, s);
    }
}

/// Fused variant: `p ^= src` and `q ^= C·src` in one pass over `src` —
/// the P+Q stripe update reads each data/delta page once instead of
/// twice. Same chain shape as [`chain_const_pw`].
#[inline(never)]
fn chain2_const_pw<const C: u8>(src: &[u8], p: &mut [u8], q: &mut [u8]) {
    let n = src.len().min(p.len()).min(q.len());
    let (ph, pt) = p[..n].split_at_mut(n - n % 8);
    let (qh, qt) = q[..n].split_at_mut(n - n % 8);
    let (sh, st) = src[..n].split_at(n - n % 8);
    let mut t = [0u8; 8];
    for ((pc, qc), sc) in ph.chunks_exact_mut(8).zip(qh.chunks_exact_mut(8)).zip(sh.chunks_exact(8))
    {
        t.copy_from_slice(sc);
        let s = u64::from_ne_bytes(t);
        let mut b = s;
        let mut acc = if C & 1 != 0 { b } else { 0 };
        if C >> 1 != 0 {
            b = mul2_word(b);
            if C >> 1 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 2 != 0 {
            b = mul2_word(b);
            if C >> 2 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 3 != 0 {
            b = mul2_word(b);
            if C >> 3 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 4 != 0 {
            b = mul2_word(b);
            if C >> 4 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 5 != 0 {
            b = mul2_word(b);
            if C >> 5 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 6 != 0 {
            b = mul2_word(b);
            if C >> 6 & 1 != 0 {
                acc ^= b;
            }
        }
        if C >> 7 != 0 {
            b = mul2_word(b);
            if C >> 7 & 1 != 0 {
                acc ^= b;
            }
        }
        t.copy_from_slice(pc);
        pc.copy_from_slice(&(u64::from_ne_bytes(t) ^ s).to_ne_bytes());
        t.copy_from_slice(qc);
        qc.copy_from_slice(&(u64::from_ne_bytes(t) ^ acc).to_ne_bytes());
    }
    for ((pd, qd), &s) in pt.iter_mut().zip(qt).zip(st) {
        *pd ^= s;
        *qd ^= mul_byte_chain(C, s);
    }
}

/// Build the split-nibble tables for `c`:
/// `c·s = LO[s & 0xF] ⊕ HI[s >> 4]` by linearity over GF(2).
#[inline]
fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for n in 1..16u8 {
        lo[n as usize] = mul(c, n);
        hi[n as usize] = mul(c, n << 4);
    }
    (lo, hi)
}

/// Generic-coefficient fallback: split-nibble lookups over `u64` words.
#[inline(never)]
fn nibble_slice_into(dst: &mut [u8], src: &[u8], c: u8) {
    let (lo, hi) = nibble_tables(c);
    let n = dst.len().min(src.len());
    let (dh, dt) = dst[..n].split_at_mut(n - n % 8);
    let (sh, st) = src[..n].split_at(n - n % 8);
    let mut sb = [0u8; 8];
    let mut ab = [0u8; 8];
    for (dc, sc) in dh.chunks_exact_mut(8).zip(sh.chunks_exact(8)) {
        sb.copy_from_slice(sc);
        for (a, &s) in ab.iter_mut().zip(&sb) {
            *a = lo[(s & 0xF) as usize] ^ hi[(s >> 4) as usize];
        }
        sb.copy_from_slice(dc);
        let d = u64::from_ne_bytes(sb) ^ u64::from_ne_bytes(ab);
        dc.copy_from_slice(&d.to_ne_bytes());
    }
    for (d, &s) in dt.iter_mut().zip(st) {
        *d ^= lo[(s & 0xF) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// Fused generic-coefficient fallback: `p ^= src`, `q ^= c·src`.
#[inline(never)]
fn nibble2_slice_into(p: &mut [u8], q: &mut [u8], src: &[u8], c: u8) {
    let (lo, hi) = nibble_tables(c);
    let n = src.len().min(p.len()).min(q.len());
    let (ph, pt) = p[..n].split_at_mut(n - n % 8);
    let (qh, qt) = q[..n].split_at_mut(n - n % 8);
    let (sh, st) = src[..n].split_at(n - n % 8);
    let mut sb = [0u8; 8];
    let mut ab = [0u8; 8];
    let mut tb = [0u8; 8];
    for ((pc, qc), sc) in ph.chunks_exact_mut(8).zip(qh.chunks_exact_mut(8)).zip(sh.chunks_exact(8))
    {
        sb.copy_from_slice(sc);
        for (a, &s) in ab.iter_mut().zip(&sb) {
            *a = lo[(s & 0xF) as usize] ^ hi[(s >> 4) as usize];
        }
        tb.copy_from_slice(pc);
        let p = u64::from_ne_bytes(tb) ^ u64::from_ne_bytes(sb);
        pc.copy_from_slice(&p.to_ne_bytes());
        tb.copy_from_slice(qc);
        let q = u64::from_ne_bytes(tb) ^ u64::from_ne_bytes(ab);
        qc.copy_from_slice(&q.to_ne_bytes());
    }
    for ((pd, qd), &s) in pt.iter_mut().zip(qt).zip(st) {
        *pd ^= s;
        *qd ^= lo[(s & 0xF) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// Dispatch `$c` to the const-specialised kernel for the sixteen
/// coefficients a ≤16-member Q parity can use (`g^0..g^15`), or to the
/// split-nibble fallback for everything else.
macro_rules! dispatch_coeff {
    ($c:expr, $kernel:ident ! ($($arg:expr),*), $fallback:expr) => {
        match $c {
            0x01 => $kernel::<0x01>($($arg),*),
            0x02 => $kernel::<0x02>($($arg),*),
            0x04 => $kernel::<0x04>($($arg),*),
            0x08 => $kernel::<0x08>($($arg),*),
            0x10 => $kernel::<0x10>($($arg),*),
            0x20 => $kernel::<0x20>($($arg),*),
            0x40 => $kernel::<0x40>($($arg),*),
            0x80 => $kernel::<0x80>($($arg),*),
            0x1D => $kernel::<0x1D>($($arg),*),
            0x3A => $kernel::<0x3A>($($arg),*),
            0x74 => $kernel::<0x74>($($arg),*),
            0xE8 => $kernel::<0xE8>($($arg),*),
            0xCD => $kernel::<0xCD>($($arg),*),
            0x87 => $kernel::<0x87>($($arg),*),
            0x13 => $kernel::<0x13>($($arg),*),
            0x26 => $kernel::<0x26>($($arg),*),
            _ => $fallback,
        }
    };
}

/// `dst[i] ^= c · src[i]` — the bulk Q-parity kernel.
///
/// # Panics
/// Panics if lengths differ.
pub fn mul_slice_into(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len());
    if c == 0 {
        return;
    }
    dispatch_coeff!(c, chain_const_pw!(src, dst), nibble_slice_into(dst, src, c));
}

/// `dst[i] = c · dst[i]` — the division that ends a reconstruction through
/// Q (`c` is an inverse, so never one of the specialised coefficients).
pub(crate) fn scale_slice(dst: &mut [u8], c: u8) {
    let (lo, hi) = nibble_tables(c);
    for d in dst {
        *d = lo[(*d & 0xF) as usize] ^ hi[(*d >> 4) as usize];
    }
}

/// Fused P+Q accumulate: `p[i] ^= src[i]` and `q[i] ^= c · src[i]` in a
/// single pass over `src` — the RAID-6 stripe update and
/// `parity_update_rmw` read each page once instead of twice.
///
/// # Panics
/// Panics if lengths differ.
pub fn mul2_slice_into(p: &mut [u8], q: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(p.len(), src.len());
    assert_eq!(q.len(), src.len());
    if c == 0 {
        // Q untouched; P still accumulates.
        chain_const_pw::<0x01>(src, p);
        return;
    }
    dispatch_coeff!(c, chain2_const_pw!(src, p, q), nibble2_slice_into(p, q, src, c));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_sampled() {
        for a in [1u8, 2, 3, 0x53, 0xCA, 0xFF] {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, inv(a)), 1, "a * a^-1 for {a:#x}");
            assert_eq!(div(a, a), 1);
        }
        assert_eq!(mul(0, 0x37), 0);
        assert_eq!(mul(0x37, 0), 0);
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        let vals = [0u8, 1, 2, 7, 0x80, 0x1D, 0xFE];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(mul(a, b), mul(b, a));
                for &c in &vals {
                    assert_eq!(mul(a, mul(b, c)), mul(mul(a, b), c));
                }
            }
        }
    }

    #[test]
    fn distributes_over_xor() {
        let vals = [1u8, 2, 9, 0x53, 0xAA];
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
                }
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // g = 2 must generate all 255 non-zero elements.
        let mut seen = [false; 256];
        for k in 0..255 {
            let v = pow_g(k);
            assert!(!seen[v as usize], "g^{k} repeats");
            seen[v as usize] = true;
        }
        assert!(!seen[0]);
        assert_eq!(pow_g(0), 1);
        assert_eq!(pow_g(255), 1); // wraps
    }

    #[test]
    fn known_products_match_kernel_field() {
        // Spot values for the 0x11D field.
        assert_eq!(mul(2, 0x80), 0x1D);
        assert_eq!(mul(2, 2), 4);
        assert_eq!(pow_g(8), 0x1D);
    }

    #[test]
    fn mul_slice_matches_scalar() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 0x1D, 0xFF] {
            let mut dst = vec![0xA5u8; 256];
            let mut expect = dst.clone();
            mul_slice_into(&mut dst, &src, c);
            for (e, s) in expect.iter_mut().zip(&src) {
                *e ^= mul(c, *s);
            }
            assert_eq!(dst, expect, "c = {c:#x}");
        }
    }

    #[test]
    fn scale_slice_matches_scalar() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 0x1D, 0x8E, 0xFF] {
            let mut dst = src.clone();
            scale_slice(&mut dst, c);
            assert!(dst.iter().zip(&src).all(|(&d, &s)| d == mul(c, s)), "c = {c:#x}");
        }
    }

    #[test]
    fn mul2_slice_matches_two_single_passes() {
        let src: Vec<u8> = (0..=255u8).rev().collect();
        for c in [0u8, 1, 2, 0x1D, 0x26, 0x9C, 0xFF] {
            let mut p = vec![0x5Au8; 256];
            let mut q = vec![0xC3u8; 256];
            let mut pe = p.clone();
            let mut qe = q.clone();
            mul2_slice_into(&mut p, &mut q, &src, c);
            for (e, s) in pe.iter_mut().zip(&src) {
                *e ^= s;
            }
            mul_slice_into(&mut qe, &src, c);
            assert_eq!(p, pe, "P at c = {c:#x}");
            assert_eq!(q, qe, "Q at c = {c:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn zero_inverse_panics() {
        inv(0);
    }
}
