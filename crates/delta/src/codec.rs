//! A fast byte-oriented compressor specialised for XOR deltas.
//!
//! The paper's prototype compresses deltas with **lzo** "due to its superior
//! performance" (§IV-B1). We cannot ship lzo, so this module provides an
//! equivalent-speed codec built from two passes that match the structure of
//! XOR deltas:
//!
//! * **Zero-RLE** — an XOR delta of two similar pages is mostly `0x00`
//!   (only 5–20 % of bits change per write), so run-length encoding of zero
//!   bytes alone already reaches the paper's 12–50 % ratios; the scan is
//!   single-pass and word-wise (`trailing_zeros` locates run ends);
//! * **LZ** — an LZ77 with a hash-chain match finder (4-byte hash heads,
//!   per-position chain links, bounded probe depth) and 16-bit offsets
//!   catches repeated non-zero patterns (e.g. a record rewritten with a
//!   shifted field).
//!
//! Because compression runs on *every* write hit, the entry point is a
//! stateful [`Compressor`] that owns all match-finder scratch (head table +
//! chain links + candidate output buffers) so steady-state compression
//! into a caller's buffer ([`Compressor::compress_into`]) allocates nothing,
//! and [`Compressor::compress`] only the buffer it returns. The tables hold
//! `u16` positions for anything below 64 KiB — 16 KiB + 8 KiB for a 4 KiB
//! page, resident in L1d next to the page — and are reset by refilling the
//! head table at the start of each pass. (They used to be a 64 KiB
//! epoch-stamped `u64` head table plus `u32` links, which spared the refill
//! and overflowed L1d instead; DESIGN.md "Hot paths" has the before/after.)
//! A sampled **compressibility probe** routes each page before any full pass
//! runs: near-all-zero pages take the RLE pass alone, zero-free pages with
//! repeating 4-grams take the LZ pass alone, zero-free pages without
//! repetition are stored raw immediately. In between sit the engine's own
//! deltas — taken against a cached base several rewrites old, so about a
//! third of their bytes are zero and the rest are fresh: their sampled
//! 4-grams do not repeat, LZ has nothing to match, and they take the RLE
//! pass alone too. Only a page with zero runs *and* sampled repetition (a
//! periodic edit) runs both passes and keeps the smaller output.
//!
//! The output format is unchanged from the original two-pass codec: a
//! one-byte header records which representation was chosen and the worst
//! case output is `input + 1` bytes. [`compress`] remains as a stateless
//! convenience wrapper (it builds a throwaway [`Compressor`]).

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use kdd_util::units::SimTime;

/// CPU time of one delta compression on the paper's testbed, which the
/// simulators charge per write hit (§IV-B2: "tens of microseconds").
pub const ENCODE_TIME: SimTime = SimTime::from_micros(30);

/// CPU time of decompressing one delta and combining it with its base
/// page (§IV-B2).
pub const DECODE_TIME: SimTime = SimTime::from_micros(20);

/// Which representation a compressed buffer uses (the header byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaCodec {
    /// Verbatim copy (incompressible input).
    Raw = 0,
    /// Zero run-length encoding.
    ZeroRle = 1,
    /// LZ77 with hash-chain match finder, 16-bit window.
    Lz = 2,
}

/// Errors surfaced when decoding a compressed delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The buffer is empty or its header byte is unknown.
    BadHeader,
    /// The token stream ended mid-token.
    Truncated,
    /// A match referenced data before the start of the output.
    BadMatchOffset,
    /// The stream does not decode to exactly the length of the page it
    /// was to be folded into.
    WrongLength,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::BadHeader => write!(f, "unknown or missing codec header"),
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::BadMatchOffset => write!(f, "LZ match offset out of range"),
            CompressError::WrongLength => write!(f, "decoded length differs from the page's"),
        }
    }
}

impl std::error::Error for CompressError {}

// ---- Zero-RLE ----------------------------------------------------------
//
// Token stream:
//   control byte 0x00..=0x7F : literal run of (c + 1) bytes follows
//   control byte 0x80..=0xFF : run of (c - 0x7F) zero bytes (1..=128)
// Long runs are emitted as multiple tokens (a 4 KiB all-zero page costs
// 32 control bytes).

/// Load 8 little-endian bytes at `pos` (caller guarantees `pos + 8 <= len`).
#[inline]
fn le_word_at(data: &[u8], pos: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&data[pos..pos + 8]);
    u64::from_le_bytes(w)
}

/// Length of the run of `0x00` bytes starting at `start`, scanned a word at
/// a time; the first non-zero byte is located with `trailing_zeros` on the
/// little-endian word, so memory order maps to bit order.
#[inline]
fn zero_run_len(data: &[u8], start: usize) -> usize {
    let mut i = start;
    while i + 8 <= data.len() {
        let w = le_word_at(data, i);
        if w != 0 {
            return i + (w.trailing_zeros() / 8) as usize - start;
        }
        i += 8;
    }
    while i < data.len() && data[i] == 0 {
        i += 1;
    }
    i - start
}

/// Index of the first `0x00` at or after `start` (`data.len()` if none),
/// the complement of [`zero_run_len`]: zero-free words are skipped with the
/// SWAR has-zero-byte test, whose lowest set bit marks the first zero byte.
/// Kept out of line: inlined beside the two `zero_run_len` loops of
/// [`zero_rle_compress`] it costs the run scan of an all-zero page a quarter
/// of its speed, and the literal scan gains nothing from it (PERF.md, PR 21).
#[inline(never)]
fn next_zero(data: &[u8], start: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut i = start;
    while i + 8 <= data.len() {
        let w = le_word_at(data, i);
        let z = w.wrapping_sub(LO) & !w & HI;
        if z != 0 {
            return i + (z.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < data.len() && data[i] != 0 {
        i += 1;
    }
    i
}

/// Literal tokens for `data[from..to]`, at most 128 bytes each (both token
/// streams spell a literal run the same way).
#[inline]
fn flush_literals(out: &mut Vec<u8>, data: &[u8], from: usize, to: usize) {
    let mut lit = &data[from..to];
    while !lit.is_empty() {
        let n = lit.len().min(128);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lit[..n]);
        lit = &lit[n..];
    }
}

#[inline]
fn emit_zero_run(out: &mut Vec<u8>, mut run: usize) {
    while run > 0 {
        let n = run.min(128);
        out.push(0x7F + n as u8);
        run -= n;
    }
}

fn zero_rle_compress(data: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < data.len() {
        if data[i] == 0 {
            let run = zero_run_len(data, i);
            i += run;
            emit_zero_run(out, run);
        } else {
            let start = i;
            // A literal run ends at the next *profitable* zero run: a single
            // zero inside literals is cheaper left as a literal byte than as
            // a token boundary (1 control byte either way, but splitting the
            // literal adds a control byte). The run length is hoisted so each
            // byte is scanned exactly once — the terminating zero run is
            // carried into `pending` instead of being re-scanned.
            let mut pending = 0;
            loop {
                i = next_zero(data, i);
                if i == data.len() {
                    break;
                }
                let run = zero_run_len(data, i);
                if run >= 2 || i + run == data.len() {
                    pending = run;
                    break;
                }
                i += run; // lone interior zero stays in the literal
            }
            flush_literals(out, data, start, i);
            i += pending;
            emit_zero_run(out, pending);
        }
    }
}

fn zero_rle_decompress(mut s: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
    while let Some((&c, rest)) = s.split_first() {
        s = rest;
        if c >= 0x80 {
            let n = (c - 0x7F) as usize;
            out.resize(out.len() + n, 0);
        } else {
            let n = c as usize + 1;
            if s.len() < n {
                return Err(CompressError::Truncated);
            }
            out.extend_from_slice(&s[..n]);
            s = &s[n..];
        }
    }
    Ok(())
}

// ---- LZ77 ---------------------------------------------------------------
//
// Token stream:
//   control byte c, bit7 clear : literal run of (c + 1) bytes follows
//   control byte c, bit7 set   : match of length ((c & 0x7F) + MIN_MATCH),
//                                followed by u16-le distance (1..=65535)
//                                back from the current output position.

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7F + MIN_MATCH;
const HASH_BITS: u32 = 13;
/// How many chain candidates the finder examines per position. Depth 16 is
/// the classic fast-level trade-off: nearly all of the ratio of an unbounded
/// search at a small fraction of the probes.
const CHAIN_DEPTH: usize = 16;
/// A match at least this long is accepted without walking further chain
/// candidates (a longer match could save at most a few control bytes).
const GOOD_LEN: usize = 32;
/// Inputs shorter than this skip the probe and run both passes (sampling a
/// few hundred bytes is not cheaper than just compressing them).
const PROBE_MIN: usize = 1024;

/// Load 4 little-endian bytes at `pos` (caller guarantees `pos + 4 <= len`).
#[inline]
fn le_u32_at(data: &[u8], pos: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&data[pos..pos + 4]);
    u32::from_le_bytes(w)
}

/// Bucket of a 4-gram already loaded as one little-endian word.
#[inline]
fn lz_hash(gram: u32) -> usize {
    (gram.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Extend a match whose first `MIN_MATCH` bytes the caller has already
/// verified, eight bytes at a time: XOR the two windows and locate the first
/// differing byte with `trailing_zeros`.
#[inline]
fn match_len(data: &[u8], cand: usize, pos: usize, max_len: usize) -> usize {
    let mut len = MIN_MATCH;
    while len + 8 <= max_len {
        let x = le_word_at(data, cand + len) ^ le_word_at(data, pos + len);
        if x != 0 {
            return len + (x.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max_len && data[cand + len] == data[pos + len] {
        len += 1;
    }
    len
}

// ---- Compressibility probe ----------------------------------------------

/// Which passes the sampled probe decided to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Zero runs and sampled repetition (or an input too short to probe):
    /// run both passes, keep the smaller.
    Both,
    /// Near-all-zero page, or zero runs between bytes that do not repeat:
    /// the RLE pass alone.
    RleOnly,
    /// Zero-free page with repeating 4-grams: only LZ can win.
    LzOnly,
    /// Zero-free page without sampled repetition: store raw immediately.
    Raw,
}

/// Do at least two of `samples` strided 4-grams repeat an earlier sample?
/// The last gram of each bucket is remembered in a direct-mapped table of
/// `2 * samples` slots (at most 256), and a repeat counts only when the slot
/// holds the very same 4-gram. `zero_grams` says whether all-zero grams are
/// samples like any other or are passed over.
fn sampled_grams_repeat(data: &[u8], samples: usize, zero_grams: bool) -> bool {
    let stride = (data.len() - 4) / (samples - 1);
    let shift = 32 - (2 * samples).trailing_zeros();
    let mut seen = [0u64; 256];
    let mut repeats = 0;
    for j in 0..samples {
        let gram = le_u32_at(data, j * stride);
        if gram == 0 && !zero_grams {
            continue;
        }
        // The stamp tells a remembered zero gram from an empty slot.
        let stamped = u64::from(gram) | 1 << 32;
        let slot = &mut seen[(gram.wrapping_mul(0x9E37_79B1) >> shift) as usize];
        if *slot == stamped {
            repeats += 1;
        } else {
            *slot = stamped;
        }
    }
    repeats >= 2
}

/// Compressibility probe: the exact SWAR [`crate::xor::zero_fraction`]
/// (one word-wise pass, ~35 GB/s — noise next to the passes it gates)
/// classifies the zero mass, and below the near-all-zero class strided
/// 4-grams are sampled for repetition ([`sampled_grams_repeat`]).
fn probe(data: &[u8]) -> Route {
    if data.len() < PROBE_MIN {
        return Route::Both;
    }
    let zf = crate::xor::zero_fraction(data);
    if zf >= 0.75 {
        // XOR deltas of similar pages live here (80–95 % zero). RLE is
        // within a few control bytes of anything LZ could do on this class,
        // at a fraction of the match-finder's scan cost.
        Route::RleOnly
    } else if zf > 1.0 / 16.0 {
        // Zero runs plus something: fresh bytes (a content-locality delta
        // against an aged base — LZ has nothing to match and loses to RLE
        // on every zero run) or a periodic edit, which the samples see. The
        // zero runs themselves would repeat on every page and are skipped.
        // A missed repetition costs bytes, never correctness: the page
        // keeps its RLE encoding, which was a candidate anyway.
        if sampled_grams_repeat(data, 128, false) {
            Route::Both
        } else {
            Route::RleOnly
        }
    } else if sampled_grams_repeat(data, 32, true) {
        // Essentially zero-free: RLE degenerates to a literal copy, so the
        // only question is whether LZ can find matches — the few zero runs
        // such a page has included.
        Route::LzOnly
    } else {
        Route::Raw
    }
}

// ---- Match finder --------------------------------------------------------

/// Index type of the match-finder tables. Pages (and anything else below
/// 64 KiB) are indexed with `u16`, so head table and chain links together
/// stay L1-resident.
trait TablePos: Copy {
    /// Narrow a position (the caller picked a width that holds it).
    fn narrow(pos: usize) -> Self;
    fn widen(self) -> usize;
}

impl TablePos for u16 {
    #[inline]
    fn narrow(pos: usize) -> Self {
        pos as u16
    }
    #[inline]
    fn widen(self) -> usize {
        usize::from(self)
    }
}

impl TablePos for u32 {
    #[inline]
    fn narrow(pos: usize) -> Self {
        pos as u32
    }
    #[inline]
    fn widen(self) -> usize {
        self as usize
    }
}

/// Hash-chain scratch of one index width.
///
/// "No position" is the input length `n`, not a fixed all-ones value: it
/// compares above every real position, and it is itself a valid index into
/// `chain`, whose slot `n` links to `n` again. A walk can therefore ask
/// "does the newest candidate have a predecessor?" with one load and no
/// branch on whether there is a candidate at all.
struct MatchFinder<P> {
    /// `hash -> newest position` of this pass; refilled with `n` at the
    /// start of every pass.
    head: Vec<P>,
    /// `position -> previous position with the same hash` at insert time,
    /// plus the sentinel slot `n`. Never cleared: a pass only follows links
    /// it wrote itself, because every walk starts at a `head` entry of the
    /// same pass.
    chain: Vec<P>,
}

impl<P: TablePos> MatchFinder<P> {
    /// Hash-chain LZ77: each position is linked to the previous position
    /// with the same 4-byte hash, and the finder walks up to [`CHAIN_DEPTH`]
    /// candidates keeping the longest match (first match wins ties, i.e. the
    /// shortest distance).
    fn lz_compress(&mut self, data: &[u8], out: &mut Vec<u8>) {
        let n = data.len();
        let none = P::narrow(n);
        // Refill (and, for the wide tables' first pass, allocate).
        self.head.clear();
        self.head.resize(1 << HASH_BITS, none);
        if self.chain.len() <= n {
            self.chain.resize(n + 1, none);
        }
        // Slicing to the exact lengths lets the optimiser drop the bounds
        // checks on `head[hash]` and `chain[i]` inside the loop.
        let head = &mut self.head[..1 << HASH_BITS];
        let chain = &mut self.chain[..=n];
        chain[n] = none;
        let mut i = 0;
        let mut lit_start = 0;
        while i + MIN_MATCH <= n {
            let gram = le_u32_at(data, i);
            let h = lz_hash(gram);
            let newest = head[h];
            chain[i] = newest;
            head[h] = P::narrow(i);
            // Most positions of a delta are fresh bytes whose bucket is
            // empty or holds one colliding position, and whether it does is
            // a coin flip the branch predictor loses (~40 cycles each, more
            // than the rest of the position costs). So the walk is entered
            // only when it can find something — the newest candidate carries
            // the same 4-gram, or has a predecessor that might — and that
            // test reads through "no position" without branching on it: the
            // clamped probe then compares position `i - 1` (equal only
            // inside a byte run, where entering the walk is harmless) and
            // `chain[n]` has no predecessor.
            let mut c = newest.widen();
            if le_u32_at(data, c.min(i.saturating_sub(1))) != gram && chain[c].widen() >= c {
                i += 1;
                continue;
            }
            let max_len = (n - i).min(MAX_MATCH);
            let mut best_len = 0;
            let mut best_dist = 0;
            // Links strictly decrease, so `c < limit` ends the walk on "no
            // position" and makes termination independent of scratch
            // contents; the distance test is the format's 16-bit offset.
            let mut limit = i;
            let mut depth = CHAIN_DEPTH;
            while c < limit && i - c <= u16::MAX as usize {
                // Cheap rejection: a candidate can only improve on the
                // current best if it matches at the first yet-unmatched byte.
                if le_u32_at(data, c) == gram && data[c + best_len] == data[i + best_len] {
                    let len = match_len(data, c, i, max_len);
                    if len > best_len {
                        best_len = len;
                        best_dist = i - c;
                        if len >= max_len || len >= GOOD_LEN {
                            break;
                        }
                    }
                }
                depth -= 1;
                if depth == 0 {
                    break;
                }
                limit = c;
                c = chain[c].widen();
            }
            if best_len >= MIN_MATCH {
                flush_literals(out, data, lit_start, i);
                out.push(0x80 | (best_len - MIN_MATCH) as u8);
                out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                // Seed the tables inside the match (every other position —
                // the classic fast-level stride) so later data can still
                // reference it at half the insert cost.
                let end = i + best_len;
                i += 1;
                while i < end && i + MIN_MATCH <= n {
                    let h = lz_hash(le_u32_at(data, i));
                    chain[i] = head[h];
                    head[h] = P::narrow(i);
                    i += 2;
                }
                i = end;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(out, data, lit_start, n);
    }
}

// ---- Compressor ----------------------------------------------------------

/// Stateful compressor owning all match-finder scratch, so steady-state
/// [`Compressor::compress_into`] allocates nothing and
/// [`Compressor::compress`] exactly once (the returned buffer).
///
/// The scratch for a 4 KiB page is a 16 KiB head table plus 8 KiB of chain
/// links (`u16` positions), small enough to stay in L1d next to the page
/// itself. The head table is refilled at the start of each LZ pass (16 KiB,
/// ~0.2 µs) and a pass follows no link it did not write, so the output for
/// a given input is byte-identical no matter what was compressed before.
/// Inputs of 64 KiB and more run the same routine over `u32` positions in a
/// second pair of tables, allocated when such an input first arrives.
pub struct Compressor {
    narrow: MatchFinder<u16>,
    wide: MatchFinder<u32>,
    /// Where [`Compressor::compress`] encodes before it copies out.
    out_buf: Vec<u8>,
    /// The race's LZ candidate.
    lz_buf: Vec<u8>,
}

impl Compressor {
    /// Construct a compressor with empty scratch; tables grow on first use
    /// and are reused for the lifetime of the value.
    #[must_use]
    pub fn new() -> Self {
        Compressor {
            narrow: MatchFinder {
                // One-time scratch construction; every
                // subsequent compress() reuses these buffers allocation-free
                // (the fill value is irrelevant: each pass refills the table).
                head: vec![u16::MAX; 1 << HASH_BITS],
                chain: Vec::new(),
            },
            wide: MatchFinder { head: Vec::new(), chain: Vec::new() },
            out_buf: Vec::new(),
            lz_buf: Vec::new(),
        }
    }

    /// Compress a delta, choosing the smallest of {raw, zero-RLE, LZ}.
    /// Output format and worst case (`data.len() + 1` bytes) are identical
    /// to the stateless [`compress`]. The returned buffer is exact-size: it
    /// lives on wherever the caller keeps it.
    pub fn compress(&mut self, data: &[u8]) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.out_buf);
        self.compress_into(data, &mut buf);
        let out = Vec::from(buf.as_slice());
        self.out_buf = buf;
        out
    }

    /// [`Compressor::compress`] into `out`, replacing its contents and
    /// reusing its capacity: with `data.len() + 1` bytes of it, a page whose
    /// zero-RLE or LZ encoding does not expand allocates nothing.
    pub fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        out.clear();
        match probe(data) {
            Route::Raw => {}
            Route::LzOnly => {
                out.push(DeltaCodec::Lz as u8);
                self.lz_compress(data, out);
            }
            route => {
                out.push(DeltaCodec::ZeroRle as u8);
                zero_rle_compress(data, out);
                if route == Route::Both {
                    let mut lz = std::mem::take(&mut self.lz_buf);
                    lz.clear();
                    lz.push(DeltaCodec::Lz as u8);
                    self.lz_compress(data, &mut lz);
                    // RLE keeps a tie.
                    if lz.len() < out.len() {
                        out.clear();
                        out.extend_from_slice(&lz);
                    }
                    self.lz_buf = lz;
                }
            }
        }
        // Never expand: anything longer than the input is stored raw, as is
        // a page the probe routed past both encoders.
        if out.is_empty() || out.len() > data.len() {
            out.clear();
            out.push(DeltaCodec::Raw as u8);
            out.extend_from_slice(data);
        }
    }

    /// Run the LZ pass with the narrowest index type that holds
    /// `data.len()`, the finder's "no position". Kept out of line so that
    /// [`Compressor::compress_into`] on the RLE-only route does not carry the
    /// match finder's registers and spills (≈ 8 % of an aged delta).
    #[inline(never)]
    fn lz_compress(&mut self, data: &[u8], out: &mut Vec<u8>) {
        if data.len() <= usize::from(u16::MAX) {
            self.narrow.lz_compress(data, out);
        } else {
            self.wide.lz_compress(data, out);
        }
    }
}

impl Default for Compressor {
    fn default() -> Self {
        Compressor::new()
    }
}

fn lz_decompress(mut s: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
    while let Some((&c, rest)) = s.split_first() {
        s = rest;
        if c & 0x80 == 0 {
            let n = c as usize + 1;
            if s.len() < n {
                return Err(CompressError::Truncated);
            }
            out.extend_from_slice(&s[..n]);
            s = &s[n..];
        } else {
            let len = (c & 0x7F) as usize + MIN_MATCH;
            if s.len() < 2 {
                return Err(CompressError::Truncated);
            }
            let dist = u16::from_le_bytes([s[0], s[1]]) as usize;
            s = &s[2..];
            if dist == 0 || dist > out.len() {
                return Err(CompressError::BadMatchOffset);
            }
            let start = out.len() - dist;
            // Overlapping copies are legal: `dist < len` repeats the last
            // `dist` bytes. Everything appended so far is whole periods, so
            // each round can copy all of it again and the chunks double.
            let mut copied = 0;
            while copied < len {
                let chunk = (len - copied).min(dist + copied);
                out.extend_from_within(start..start + chunk);
                copied += chunk;
            }
        }
    }
    Ok(())
}

// ---- Public API ---------------------------------------------------------

/// Compress a delta, choosing the smallest of {raw, zero-RLE, LZ}.
///
/// Worst case the output is `data.len() + 1` bytes (raw + header).
///
/// This is the stateless convenience entry point; hot paths should hold a
/// [`Compressor`] and call [`Compressor::compress`] to reuse the
/// match-finder scratch across calls. Both produce identical bytes.
///
/// # Examples
///
/// ```
/// use kdd_delta::codec::{compress, decompress};
///
/// // An XOR delta of two similar pages: mostly zeros.
/// let mut delta = vec![0u8; 4096];
/// delta[100..140].fill(0x5A);
/// let packed = compress(&delta);
/// assert!(packed.len() < 100);
/// assert_eq!(decompress(&packed).unwrap(), delta);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    Compressor::new().compress(data)
}

/// Decompress a buffer produced by [`compress`].
///
/// Without a size hint the output is pre-sized to four times the payload;
/// callers that know the decoded size (the engine always does: one page)
/// should use [`decompress_into`] with a buffer of that capacity.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::with_capacity(data.len().saturating_sub(1) * 4);
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// Decompress a buffer produced by [`compress`] into `out`, replacing its
/// contents and reusing its capacity. On error `out` holds a decoded prefix.
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
    out.clear();
    let (&header, payload) = data.split_first().ok_or(CompressError::BadHeader)?;
    match header {
        h if h == DeltaCodec::Raw as u8 => out.extend_from_slice(payload),
        h if h == DeltaCodec::ZeroRle as u8 => zero_rle_decompress(payload, out)?,
        h if h == DeltaCodec::Lz as u8 => lz_decompress(payload, out)?,
        _ => return Err(CompressError::BadHeader),
    }
    Ok(())
}

/// XOR the delta encoded in `data` into `dst` without materialising it:
/// `dst` ends up as if [`decompress_into`] had been followed by
/// [`crate::xor::xor_into`] — the read hit's "decompress, XOR" (§III-A) in
/// one pass over the page. Zero runs are skipped, zero-RLE literals and raw
/// payloads are XORed in from where they lie; only an LZ stream, whose
/// matches refer back into the decoded delta, is decoded first, into
/// `scratch` (reused across calls, contents irrelevant).
///
/// Errors rather than panics on any stream that does not decode to exactly
/// `dst.len()` bytes; `dst` may then be partly folded.
pub fn xor_decoded_into(
    data: &[u8],
    dst: &mut [u8],
    scratch: &mut Vec<u8>,
) -> Result<(), CompressError> {
    let (&header, payload) = data.split_first().ok_or(CompressError::BadHeader)?;
    match header {
        h if h == DeltaCodec::Raw as u8 => xor_checked(dst, payload),
        h if h == DeltaCodec::ZeroRle as u8 => zero_rle_xor(payload, dst),
        h if h == DeltaCodec::Lz as u8 => {
            scratch.clear();
            lz_decompress(payload, scratch)?;
            xor_checked(dst, scratch)
        }
        _ => Err(CompressError::BadHeader),
    }
}

fn xor_checked(dst: &mut [u8], delta: &[u8]) -> Result<(), CompressError> {
    if delta.len() != dst.len() {
        return Err(CompressError::WrongLength);
    }
    crate::xor::xor_into(dst, delta);
    Ok(())
}

/// [`zero_rle_decompress`] with the output XORed into `dst` instead of
/// appended: a zero-run token only advances the position.
fn zero_rle_xor(mut s: &[u8], dst: &mut [u8]) -> Result<(), CompressError> {
    let mut rest = dst;
    while let Some((&c, tail)) = s.split_first() {
        s = tail;
        let n = if c >= 0x80 { (c - 0x7F) as usize } else { c as usize + 1 };
        if n > rest.len() {
            return Err(CompressError::WrongLength);
        }
        let (run, after) = rest.split_at_mut(n);
        rest = after;
        if c < 0x80 {
            if s.len() < n {
                return Err(CompressError::Truncated);
            }
            let (lit, tail) = s.split_at(n);
            s = tail;
            crate::xor::xor_into(run, lit);
        }
    }
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CompressError::WrongLength)
    }
}

/// Which codec a compressed buffer used (diagnostics / ablation).
pub fn codec_of(data: &[u8]) -> Option<DeltaCodec> {
    match data.first()? {
        0 => Some(DeltaCodec::Raw),
        1 => Some(DeltaCodec::ZeroRle),
        2 => Some(DeltaCodec::Lz),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::PageMutator;
    use crate::xor::xor_pages;
    use kdd_util::rng::splitmix64;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "roundtrip failed");
        c.len()
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(&[]), 1);
    }

    #[test]
    fn all_zero_page_compresses_hard() {
        let n = roundtrip(&vec![0u8; 4096]);
        assert!(n <= 40, "all-zero 4K page compressed to {n} bytes");
    }

    #[test]
    fn sparse_delta_hits_paper_ratios() {
        // 10% of bytes non-zero, scattered in clusters: the "medium content
        // locality" regime. Expect a ratio well under 25%.
        let mut page = vec![0u8; 4096];
        let mut x = 12345u64;
        for c in 0..40 {
            for k in 0..10 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                page[c * 100 + k] = (x >> 33) as u8 | 1;
            }
        }
        let n = roundtrip(&page);
        assert!(n < 1024, "sparse delta compressed to {n} (>25%)");
    }

    #[test]
    fn incompressible_costs_one_byte() {
        let mut x = 99u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let n = roundtrip(&data);
        assert!(n <= 4097, "raw fallback exceeded input+1: {n}");
    }

    #[test]
    fn repeated_pattern_uses_lz() {
        let pattern = b"transaction-row-0042;";
        let mut data = Vec::new();
        while data.len() < 4000 {
            data.extend_from_slice(pattern);
        }
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() / 4, "LZ should crush repetition: {}", c.len());
        assert_eq!(codec_of(&c), Some(DeltaCodec::Lz));
    }

    #[test]
    fn single_bytes_and_boundaries() {
        roundtrip(&[0]);
        roundtrip(&[7]);
        roundtrip(&[0, 7]);
        roundtrip(&[7, 0]);
        roundtrip(&[1u8; 128]); // literal-run boundary
        roundtrip(&[1u8; 129]);
        roundtrip(&[0u8; 128]); // zero-run boundary
        roundtrip(&[0u8; 129]);
    }

    #[test]
    fn isolated_zeros_stay_in_literals() {
        // "a0b0c0..." — single zeros should not explode token count.
        let data: Vec<u8> =
            (0..256).map(|i| if i % 2 == 0 { (i % 250) as u8 + 1 } else { 0 }).collect();
        let n = roundtrip(&data);
        assert!(n <= data.len() + 1 + data.len() / 64, "token overhead too big: {n}");
    }

    #[test]
    fn truncated_streams_error() {
        let c = compress(&[9u8; 100]);
        for cut in 1..c.len().min(8) {
            let r = decompress(&c[..c.len() - cut]);
            // Either an error, or (if the cut happened to land on a token
            // boundary) a shorter output — never a panic and never equal.
            if let Ok(out) = r {
                assert_ne!(out.len(), 100);
            }
        }
        assert_eq!(decompress(&[]).unwrap_err(), CompressError::BadHeader);
        assert_eq!(decompress(&[0xEE]).unwrap_err(), CompressError::BadHeader);
    }

    #[test]
    fn bad_lz_offset_rejected() {
        // Hand-craft: header Lz, match token with dist 5 but empty output.
        let bad = [2u8, 0x80, 5, 0];
        assert_eq!(decompress(&bad).unwrap_err(), CompressError::BadMatchOffset);
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // 1-byte period pattern forces overlapping copies in LZ.
        let data = vec![0x55u8; 1000];
        roundtrip(&data);
    }

    #[test]
    fn compressor_reuse_is_deterministic() {
        // Scratch reuse must leave output a pure function of the input:
        // interleaving unrelated pages through one Compressor has to
        // produce byte-identical results to fresh compressors.
        let mut shared = Compressor::new();
        let pages: Vec<Vec<u8>> = vec![
            vec![0u8; 4096],
            (0..4096).map(|i| (i % 251) as u8).collect(),
            (0..4096).map(|i| u8::from(i % 7 == 0) * 0x33).collect(),
            b"transaction-row-0042;".repeat(200),
            (0..1500).map(|i| ((i * 2654435761u64) >> 24) as u8).collect(),
        ];
        for round in 0..3 {
            for page in &pages {
                let reused = shared.compress(page);
                let fresh = Compressor::new().compress(page);
                assert_eq!(reused, fresh, "round {round}: reuse changed output");
                assert_eq!(decompress(&reused).unwrap(), *page);
            }
        }
    }

    #[test]
    fn single_pass_rle_matches_bytewise_reference() {
        // Reference encoder: naive per-byte scan with the same token rules
        // (zero runs ≥ 2, or a terminal run of any length, become tokens).
        fn reference_rle(data: &[u8], out: &mut Vec<u8>) {
            let mut i = 0;
            while i < data.len() {
                if data[i] == 0 {
                    // At a token boundary every zero run becomes a token,
                    // whatever its length (only *interior* single zeros stay
                    // inside a literal run).
                    let zstart = i;
                    while i < data.len() && data[i] == 0 {
                        i += 1;
                    }
                    emit_zero_run(out, i - zstart);
                    continue;
                }
                let start = i;
                while i < data.len() {
                    if data[i] == 0 {
                        let mut j = i;
                        while j < data.len() && data[j] == 0 {
                            j += 1;
                        }
                        if j - i >= 2 || j == data.len() {
                            break;
                        }
                        i = j;
                    } else {
                        i += 1;
                    }
                }
                let mut lit = &data[start..i];
                while !lit.is_empty() {
                    let n = lit.len().min(128);
                    out.push((n - 1) as u8);
                    out.extend_from_slice(&lit[..n]);
                    lit = &lit[n..];
                }
                let zstart = i;
                while i < data.len() && data[i] == 0 {
                    i += 1;
                }
                emit_zero_run(out, i - zstart);
            }
        }
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![5],
            vec![5, 0],
            vec![0, 5],
            vec![1, 0, 2, 0, 0, 3],
            vec![0u8; 300],
            vec![9u8; 300],
            (0..1024).map(|i| if i % 3 == 0 { 0 } else { (i % 200) as u8 + 1 }).collect(),
            (0..1024).map(|i| u8::from(i % 150 > 120) * 7).collect(),
        ];
        for data in &cases {
            let mut fast = Vec::new();
            zero_rle_compress(data, &mut fast);
            let mut slow = Vec::new();
            reference_rle(data, &mut slow);
            assert_eq!(fast, slow, "single-pass RLE diverged on {} bytes", data.len());
            let mut back = Vec::new();
            zero_rle_decompress(&fast, &mut back).unwrap();
            assert_eq!(back, *data);
        }
    }

    #[test]
    fn probe_routes_match_content_classes() {
        let zeros = vec![0u8; 4096];
        assert_eq!(probe(&zeros), Route::RleOnly);
        let text = b"req=000001 op=write path=/vol0/seg001/blk ".repeat(100);
        assert_eq!(probe(&text), Route::LzOnly);
        let noise = noise_page(4096, 0x9e37_79b9_7f4a_7c15);
        assert_eq!(probe(&noise), Route::Raw);
        assert!(probe(&noise[..512]) == Route::Both, "short inputs skip the probe");
    }
    /// The LZ pass as it stood before the tables moved into L1 (64 KiB
    /// epoch-stamped `u64` head table, `u32` links, byte-zipped hash), kept
    /// verbatim: its token stream *is* the on-flash format, so the live
    /// finder is held to it byte for byte.
    struct ReferenceFinder {
        head: Vec<u64>,
        chain: Vec<u32>,
        epoch: u32,
    }

    fn reference_lz_hash(bytes: &[u8]) -> usize {
        let mut w = [0u8; 4];
        for (d, s) in w.iter_mut().zip(bytes) {
            *d = *s;
        }
        let v = u32::from_le_bytes(w);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    impl ReferenceFinder {
        fn new() -> Self {
            ReferenceFinder { head: vec![0u64; 1 << HASH_BITS], chain: Vec::new(), epoch: 0 }
        }

        fn bump_epoch(&mut self) {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                self.head.fill(0);
                self.epoch = 1;
            }
        }

        fn lz_compress(&mut self, data: &[u8], out: &mut Vec<u8>) {
            self.bump_epoch();
            if self.chain.len() < data.len() {
                self.chain.resize(data.len(), 0);
            }
            let ep = u64::from(self.epoch) << 32;
            let live = |entry: u64| -> Option<usize> {
                (entry & !0xFFFF_FFFF == ep).then_some((entry & 0xFFFF_FFFF) as usize)
            };
            let mut i = 0;
            let mut lit_start = 0;
            while i + MIN_MATCH <= data.len() {
                let h = reference_lz_hash(&data[i..]);
                let max_len = (data.len() - i).min(MAX_MATCH);
                let mut best_len = 0;
                let mut best_dist = 0;
                let mut cand = live(self.head[h]);
                let mut depth = CHAIN_DEPTH;
                while let Some(c) = cand {
                    if i - c > u16::MAX as usize {
                        break;
                    }
                    if best_len < max_len
                        && data[c + best_len] == data[i + best_len]
                        && data[c..c + MIN_MATCH] == data[i..i + MIN_MATCH]
                    {
                        let len = match_len(data, c, i, max_len);
                        if len > best_len {
                            best_len = len;
                            best_dist = i - c;
                            if len >= max_len || len >= GOOD_LEN {
                                break;
                            }
                        }
                    }
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    let prev = self.chain[c];
                    cand = (prev != u32::MAX && (prev as usize) < c).then_some(prev as usize);
                }
                self.chain[i] = live(self.head[h]).map_or(u32::MAX, |p| p as u32);
                self.head[h] = ep | i as u64;
                if best_len >= MIN_MATCH {
                    flush_literals(out, data, lit_start, i);
                    out.push(0x80 | (best_len - MIN_MATCH) as u8);
                    out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                    let end = i + best_len;
                    i += 1;
                    while i < end && i + MIN_MATCH <= data.len() {
                        let h = reference_lz_hash(&data[i..]);
                        self.chain[i] = live(self.head[h]).map_or(u32::MAX, |p| p as u32);
                        self.head[h] = ep | i as u64;
                        i += 2;
                    }
                    i = end;
                    lit_start = i;
                } else {
                    i += 1;
                }
            }
            flush_literals(out, data, lit_start, data.len());
        }
    }

    /// Both finders, each with the scratch it has accumulated so far.
    struct Differential {
        live: Compressor,
        reference: ReferenceFinder,
    }

    impl Differential {
        fn new() -> Self {
            Differential { live: Compressor::new(), reference: ReferenceFinder::new() }
        }

        /// LZ token streams of both finders for `data`; they must be equal
        /// whether or not LZ would win the selection.
        fn streams(&mut self, data: &[u8]) -> (Vec<u8>, Vec<u8>) {
            let (mut new, mut old) = (Vec::new(), Vec::new());
            self.live.lz_compress(data, &mut new);
            self.reference.lz_compress(data, &mut old);
            (new, old)
        }
    }

    /// A delta against a base `age` rewrites old: what the engine's write
    /// hits compress (its cached base is several versions behind).
    fn aged_delta(m: &mut PageMutator, age: usize) -> Vec<u8> {
        let base = m.initial_page();
        let mut cur = m.mutate(&base);
        for _ in 1..age {
            cur = m.mutate(&cur);
        }
        xor_pages(&base, &cur)
    }

    fn text_page(len: usize, mut n: u32) -> Vec<u8> {
        let mut page = Vec::with_capacity(len + 64);
        while page.len() < len {
            let line = format!(
                "req={n:06} op=write lat_us={:04} path=/vol0/seg{:03}/blk ",
                n * 37 % 1000,
                n % 128
            );
            page.extend_from_slice(line.as_bytes());
            n += 1;
        }
        page.truncate(len);
        page
    }

    fn noise_page(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Arbitrary bytes over alphabets from one symbol (all collisions,
        /// all matches) to 256 (no matches).
        #[test]
        fn lz_stream_matches_reference_on_arbitrary_bytes(
            raw in proptest::collection::vec(any::<u8>(), 0..8192),
            alphabet in 1u16..=256,
        ) {
            let data: Vec<u8> = raw.iter().map(|&b| (u16::from(b) % alphabet) as u8).collect();
            let (new, old) = Differential::new().streams(&data);
            prop_assert_eq!(new, old);
        }

        /// Aged deltas, several in a row through the same scratch.
        #[test]
        fn lz_stream_matches_reference_on_aged_deltas(
            seed in any::<u64>(),
            change in 1u32..60,
            run_len in 1usize..256,
            ages in proptest::collection::vec(1usize..=12, 1..4),
        ) {
            let mut m = PageMutator::new(4096, f64::from(change) / 100.0, run_len, seed);
            let mut both = Differential::new();
            for age in ages {
                let (new, old) = both.streams(&aged_delta(&mut m, age));
                prop_assert_eq!(new, old, "age {}", age);
            }
        }

        /// The adversarial motif pages of `tests/proptest_codec.rs`: short
        /// periods, overlapping matches, collision-prone step patterns.
        #[test]
        fn lz_stream_matches_reference_on_motif_pages(
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
            let (new, old) = Differential::new().streams(&page);
            prop_assert_eq!(new, old);
        }
    }

    /// `xor_decoded_into` against the two steps it fuses, on `page` as the
    /// delta and a seeded base; then every truncation of the stream and
    /// every other `dst` length must be an `Err`.
    fn check_fused_fold(page: &[u8], codec: DeltaCodec, scratch: &mut Vec<u8>) {
        let comp = compress(page);
        assert_eq!(codec_of(&comp), Some(codec));
        let base = noise_page(page.len(), 0xba5e);
        let mut expect = base.clone();
        crate::xor::xor_into(&mut expect, &decompress(&comp).unwrap());
        let mut got = base.clone();
        xor_decoded_into(&comp, &mut got, scratch).unwrap();
        assert!(got == expect, "{codec:?}: fused fold differs from decompress + xor");
        for cut in 0..comp.len() {
            let mut dst = base.clone();
            assert!(
                xor_decoded_into(&comp[..cut], &mut dst, scratch).is_err(),
                "{codec:?}: stream cut to {cut} of {} bytes was accepted",
                comp.len()
            );
        }
        for len in [0, 1, page.len() - 1, page.len() + 1, 2 * page.len()] {
            let mut dst = vec![0x5A; len];
            assert!(
                xor_decoded_into(&comp, &mut dst, scratch).is_err(),
                "{codec:?}: a {len}-byte page was accepted for a {}-byte delta",
                page.len()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// One page per codec and case — fresh aged deltas (zero-RLE, and
        /// LZ where it wins), periodic text (LZ) and noise (raw) — through
        /// one scratch, as the engine uses it.
        #[test]
        fn xor_decoded_into_matches_decompress_then_xor(
            seed in any::<u64>(),
            change in 1u32..60,
            run_len in 1usize..256,
            age in 1usize..=12,
        ) {
            let mut scratch = Vec::new();
            let mut m = PageMutator::new(4096, f64::from(change) / 100.0, run_len, seed);
            let delta = aged_delta(&mut m, age);
            let codec = codec_of(&compress(&delta)).unwrap();
            check_fused_fold(&delta, codec, &mut scratch);
            check_fused_fold(&aged_delta(&mut m, 1), DeltaCodec::ZeroRle, &mut scratch);
            check_fused_fold(&text_page(4096, seed as u32 % 9973), DeltaCodec::Lz, &mut scratch);
            check_fused_fold(&noise_page(4096, seed), DeltaCodec::Raw, &mut scratch);
        }
    }

    #[test]
    fn xor_decoded_into_rejects_bad_headers() {
        let mut dst = [0u8; 4];
        let mut scratch = Vec::new();
        for bad in [&[][..], &[0xEE, 1, 2, 3, 4]] {
            assert_eq!(
                xor_decoded_into(bad, &mut dst, &mut scratch).unwrap_err(),
                CompressError::BadHeader
            );
        }
    }

    #[test]
    fn lz_stream_matches_reference_across_the_index_width_switch() {
        // 65 535 is the last length indexed with u16; a window-sized
        // distance (65 535) is only reachable above it.
        let mut both = Differential::new();
        let mut m = PageMutator::new(4096, 0.15, 64, 14);
        let mut deltas = Vec::new();
        while deltas.len() < 70_000 {
            deltas.extend_from_slice(&aged_delta(&mut m, 1 + deltas.len() / 4096 % 8));
        }
        let mut far = noise_page(70_000, 5);
        far.copy_within(0..300, 65_535); // a match at exactly the window's reach
        far.copy_within(300..600, 65_536 + 300); // and one just past it
        let mut comp = Compressor::new();
        for len in [65_534, 65_535, 65_536, 70_000] {
            for (what, data) in [
                ("deltas", &deltas),
                ("text", &text_page(70_000, 7)),
                ("far", &far),
                ("zeros", &vec![0u8; 70_000]),
            ] {
                let (new, old) = both.streams(&data[..len]);
                assert!(new == old, "{what} at {len} bytes: LZ stream diverged");
                let mut back = Vec::new();
                lz_decompress(&new, &mut back).unwrap();
                assert!(back == data[..len], "{what} at {len} bytes: roundtrip failed");
                check_routed(&mut comp, &data[..len]);
            }
        }
        // Back to a page: the narrow tables are untouched by the wide passes.
        let page = aged_delta(&mut m, 6);
        let (new, old) = both.streams(&page);
        assert_eq!(new, old);
    }

    /// 256 seeded pages: 64 each of aged deltas, one-rewrite deltas, text
    /// and noise (the route that races both passes is held to `best_of_all`
    /// further down instead). The digest covers every byte
    /// `compress` returns for them, i.e. what the engine would put on flash:
    /// a codec change that moves it changes the format (or the selection)
    /// and must say so.
    #[test]
    fn golden_digest_pins_the_on_flash_bytes() {
        let mut corpus: Vec<(Route, Vec<u8>)> = Vec::new();
        for k in 0..64u32 {
            let mut m = PageMutator::new(4096, 0.15, 64, 0x14_0000 + u64::from(k));
            corpus.push((Route::RleOnly, aged_delta(&mut m, 4 + k as usize % 5)));
            corpus.push((Route::RleOnly, aged_delta(&mut m, 1)));
            corpus.push((Route::LzOnly, text_page(4096, k * 1009)));
            corpus.push((Route::Raw, noise_page(4096, 0x9e37_79b9_7f4a_7c15 ^ u64::from(k) << 8)));
        }
        let mut comp = Compressor::new();
        let mut digest = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a 64
        let mut codecs = [0usize; 3];
        for (route, page) in &corpus {
            assert_eq!(probe(page), *route);
            let out = comp.compress(page);
            codecs[out[0] as usize] += 1;
            for &b in (out.len() as u32).to_le_bytes().iter().chain(&out) {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(decompress(&out).unwrap(), *page);
        }
        assert_eq!(codecs, [64, 128, 64], "raw / zero-RLE / LZ pages");
        assert_eq!(digest, 0x9e5e_cb31_37fd_d864, "on-flash bytes moved");
    }

    // ---- Routing contract -------------------------------------------------
    //
    // What the probe may and may not do, stated against a model instead of
    // a copy of an earlier `compress`: it may save passes, it may not cost a
    // byte where content locality holds, and a wrong guess may only ever
    // leave a page in its RLE encoding.

    /// The model: run every encoder and keep the smallest (RLE on a tie,
    /// raw only when both would expand).
    fn best_of_all(page: &[u8]) -> Vec<u8> {
        let mut rle = vec![DeltaCodec::ZeroRle as u8];
        zero_rle_compress(page, &mut rle);
        let mut lz = vec![DeltaCodec::Lz as u8];
        Compressor::new().lz_compress(page, &mut lz);
        let best = if rle.len() <= lz.len() { rle } else { lz };
        if best.len() > page.len() {
            [&[DeltaCodec::Raw as u8], page].concat()
        } else {
            best
        }
    }

    /// Compress `page` and check everything the routing owes any input:
    /// both decoders give the page back, and outside the zero-free class
    /// (≤ 1/16 zero, where raw or LZ alone is the older shortcut) the output
    /// is no larger than RLE alone — raw if RLE would expand — makes it.
    /// And `compress_into` is `compress`: whatever `out` held and however
    /// much room it had, it ends up with the bytes both `compress`es return.
    fn check_routed(comp: &mut Compressor, page: &[u8]) -> Vec<u8> {
        let out = comp.compress(page);
        assert!(out == compress(page), "stateless compress differs");
        assert!(out.capacity() == out.len(), "compress must return an exact-size buffer");
        let dirty = |capacity: usize| {
            let mut buf = Vec::with_capacity(capacity);
            buf.extend_from_slice(&noise_page(capacity.min(97), 0xd127));
            buf
        };
        for mut into in [Vec::new(), dirty(page.len() + 1), dirty(3 * page.len() + 64), dirty(3)] {
            comp.compress_into(page, &mut into);
            assert!(into == out, "compress_into differs from compress");
        }
        assert!(decompress(&out).unwrap() == page, "roundtrip failed");
        let base = noise_page(page.len(), 0xba5e);
        let mut folded = base.clone();
        xor_decoded_into(&out, &mut folded, &mut Vec::new()).unwrap();
        crate::xor::xor_into(&mut folded, &base);
        assert!(folded == page, "fused fold differs from the page");
        let mut rle = vec![DeltaCodec::ZeroRle as u8];
        zero_rle_compress(page, &mut rle);
        let rle_candidate = rle.len().min(page.len() + 1);
        if page.len() < PROBE_MIN || crate::xor::zero_fraction(page) > 1.0 / 16.0 {
            assert!(out.len() <= rle_candidate, "{} > RLE's {rle_candidate}", out.len());
        }
        assert!(out.len() <= page.len() + 1);
        out
    }

    /// The race's tie-break is on flash: where both encodings come out
    /// equally long, the page keeps its RLE one.
    #[test]
    fn race_keeps_rle_on_a_tie() {
        let mut ties = 0;
        for repeat in 4..16 {
            // Distinct literals, a zero run that costs LZ three bytes more
            // than RLE, then a `repeat`-byte copy only LZ can use.
            let mut page: Vec<u8> = (1..=20).collect();
            page.extend_from_slice(&[0; 10]);
            page.extend(101..=110);
            page.extend_from_within(2..2 + repeat);
            page.extend(121..=130);
            let mut rle = vec![DeltaCodec::ZeroRle as u8];
            zero_rle_compress(&page, &mut rle);
            let mut lz = vec![DeltaCodec::Lz as u8];
            Compressor::new().lz_compress(&page, &mut lz);
            let out = check_routed(&mut Compressor::new(), &page);
            assert!(out == best_of_all(&page), "{repeat}-byte repeat: not the smallest");
            if rle.len() == lz.len() && rle.len() <= page.len() {
                ties += 1;
                assert!(out == rle, "{repeat}-byte repeat: the tie went to LZ");
            }
        }
        assert!(ties > 0, "no input tied");
    }

    /// The benchmark's `Mixed` content recipe (`benchmark/src/inputs.rs`):
    /// half sparse mutations, a quarter text-field edits, 15 %
    /// incompressible rewrites, 10 % identical ones.
    struct MixedContent {
        m: PageMutator,
        state: u64,
    }

    impl MixedContent {
        fn next(&mut self, prev: &[u8]) -> Vec<u8> {
            match splitmix64(&mut self.state) % 100 {
                0..50 => self.m.mutate(prev),
                50..75 => self.text_edit(prev),
                75..90 => noise_page(prev.len(), splitmix64(&mut self.state)),
                _ => prev.to_vec(),
            }
        }

        /// One 16-byte field rewritten in every record of half the page:
        /// the delta is periodic and never zero over that half.
        fn text_edit(&mut self, prev: &[u8]) -> Vec<u8> {
            let mut next = prev.to_vec();
            let half = prev.len() / 2;
            let start = (splitmix64(&mut self.state) % 2) as usize * half;
            let mut mask = [0u8; 16];
            mask[..8].copy_from_slice(&splitmix64(&mut self.state).to_le_bytes());
            mask[8..].copy_from_slice(&splitmix64(&mut self.state).to_le_bytes());
            for (i, b) in next[start..start + half].iter_mut().enumerate() {
                *b ^= mask[i % 16] | 1;
            }
            next
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Content-locality deltas of every age the engine keeps a base
        /// for: routing must not cost one byte (nor change one).
        #[test]
        fn routed_output_is_the_smallest_on_aged_deltas(
            seed in any::<u64>(),
            change in 1u32..60,
            run_len in 1usize..256,
            ages in proptest::collection::vec(1usize..=12, 1..4),
        ) {
            let mut m = PageMutator::new(4096, f64::from(change) / 100.0, run_len, seed);
            let mut comp = Compressor::new();
            for age in ages {
                let delta = aged_delta(&mut m, age);
                let out = check_routed(&mut comp, &delta);
                // (≤ 1/16 zero is the older zero-free class, whose raw
                // shortcut forgoes what RLE could shave off such a page.)
                if crate::xor::zero_fraction(&delta) > 1.0 / 16.0 {
                    prop_assert!(out == best_of_all(&delta), "age {}: not the smallest", age);
                }
            }
        }

        /// A text-field edit on top of an aged base — the one class where
        /// the race survives: the samples must see the period. (The older
        /// the base, the less of the page is zero; an edit that drops under
        /// 1/16 is in the zero-free class, which this probe does not decide.)
        #[test]
        fn text_edits_over_aged_bases_still_race(
            seed in any::<u64>(),
            age in 0usize..=8,
        ) {
            let mut mix = MixedContent { m: PageMutator::new(4096, 0.15, 64, seed), state: seed };
            let base = mix.m.initial_page();
            let mut cur = base.clone();
            for _ in 0..age {
                cur = mix.m.mutate(&cur);
            }
            let delta = xor_pages(&base, &mix.text_edit(&cur));
            let out = check_routed(&mut Compressor::new(), &delta);
            if crate::xor::zero_fraction(&delta) > 1.0 / 16.0 {
                prop_assert_eq!(probe(&delta), Route::Both, "age {}", age);
                prop_assert!(out == best_of_all(&delta), "age {}: not the smallest", age);
            }
        }

        /// Motif pages, noise and arbitrary bytes over alphabets from one
        /// symbol to 256 (`alphabet` 2–16 lands in the mid-zero class).
        #[test]
        fn routing_contract_holds_on_arbitrary_pages(
            raw in proptest::collection::vec(any::<u8>(), 0..8192),
            alphabet in 1u16..=256,
            motif in proptest::collection::vec(any::<u8>(), 1..9),
            seed in any::<u64>(),
        ) {
            let mut comp = Compressor::new();
            let data: Vec<u8> = raw.iter().map(|&b| (u16::from(b) % alphabet) as u8).collect();
            check_routed(&mut comp, &data);
            check_routed(&mut comp, &motif.repeat(4096 / motif.len()));
            check_routed(&mut comp, &noise_page(4096, seed));
        }
    }

    /// The benchmark's mixed workload as the engine sees it — every rewrite
    /// compressed against a base 1–12 versions old: what the sampled probe
    /// misses (a period the 128 samples did not hit twice) must stay a
    /// rounding error of the bytes written.
    #[test]
    fn routing_costs_under_half_a_percent_on_the_mixed_recipe() {
        let mut mix = MixedContent { m: PageMutator::new(4096, 0.15, 64, 21), state: 21 };
        let mut comp = Compressor::new();
        let (mut routed, mut smallest, mut raced) = (0usize, 0usize, 0usize);
        for _ in 0..256 {
            let base = mix.m.initial_page();
            let mut cur = base.clone();
            for _ in 0..1 + splitmix64(&mut mix.state) % 12 {
                cur = mix.next(&cur);
                let delta = xor_pages(&base, &cur);
                raced += usize::from(probe(&delta) == Route::Both);
                routed += check_routed(&mut comp, &delta).len();
                smallest += best_of_all(&delta).len();
            }
        }
        assert!(raced > 100, "only {raced} deltas raced: the recipe lost its text edits");
        assert!(routed >= smallest);
        assert!(
            (routed - smallest) * 200 <= smallest,
            "routing cost {} of {smallest} bytes",
            routed - smallest
        );
    }

    /// Fresh bytes between zero runs must never look periodic: a verified
    /// repeat among 128 random 4-grams is a 2⁻³² event per pair, and two are
    /// needed. (A probe that counted table-slot hits, or sampled the zero
    /// runs themselves, would send every one of these pages to the race.)
    #[test]
    fn random_grams_never_trip_the_repeat_test() {
        let mut state = 0x5eed_u64;
        for k in 0..2048u64 {
            let mut page = noise_page(4096, splitmix64(&mut state));
            // Zero 10–70 % of it in runs of 8–263 bytes.
            let zeroed = 410 + (splitmix64(&mut state) % 2458) as usize;
            let mut done = 0;
            while done < zeroed {
                let len = 8 + (splitmix64(&mut state) % 256) as usize;
                let at = (splitmix64(&mut state) % (4096 - len as u64)) as usize;
                page[at..at + len].fill(0);
                done += len;
            }
            let zf = crate::xor::zero_fraction(&page);
            if zf > 1.0 / 16.0 && zf < 0.75 {
                assert_eq!(probe(&page), Route::RleOnly, "page {k}, {zf:.2} zero");
            }
        }
    }
}
