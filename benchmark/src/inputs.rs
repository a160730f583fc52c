//! Seeded inputs: request streams and page contents.
//!
//! Everything here is a pure function of the seed. The program under test
//! receives only what these functions produce — plain page reads and write
//! batches — never the seed itself.

use kdd_delta::content::PageMutator;
use kdd_trace::fio::{FioConfig, FioWorkload};
use kdd_trace::synth::PaperTrace;
use kdd_trace::Op;
use kdd_util::rng::{derive_seed, splitmix64};

/// Page size every workload uses.
pub const PAGE: usize = 4096;

/// One request: a page read, or a batch of page writes submitted as one
/// `write_batch`. `first..first + len` indexes [`Stream::lbas`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Read (always one page) or write batch.
    pub is_read: bool,
    /// First page of the request in [`Stream::lbas`].
    pub first: u32,
    /// Pages in the request.
    pub len: u32,
}

/// A request stream over a flat page list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stream {
    /// Requests in issue order.
    pub requests: Vec<Request>,
    /// Page addresses, request after request.
    pub lbas: Vec<u64>,
}

impl Stream {
    /// The pages of one request.
    #[must_use]
    pub fn pages(&self, r: &Request) -> &[u64] {
        &self.lbas[r.first as usize..(r.first + r.len) as usize]
    }

    fn push(&mut self, is_read: bool, pages: impl Iterator<Item = u64>) {
        let first = self.lbas.len() as u32;
        self.lbas.extend(pages);
        let len = self.lbas.len() as u32 - first;
        self.requests.push(Request { is_read, first, len });
    }

    /// Order-sensitive digest of the stream (tests compare inputs by it).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0x6b64_645f_6265_6e63_u64;
        for r in &self.requests {
            h = fold(h, u64::from(r.is_read) << 32 | u64::from(r.len));
        }
        for &l in &self.lbas {
            h = fold(h, l);
        }
        h
    }
}

fn fold(h: u64, x: u64) -> u64 {
    let mut s = h ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// One of the paper's traces at `1/scale`, in trace order: a read record
/// becomes one read per page, a write record one write batch. Addresses
/// wrap at the array's capacity.
#[must_use]
pub fn paper_stream(trace: PaperTrace, scale: u64, seed: u64, capacity: u64) -> Stream {
    let t = trace.generate_scaled(scale, seed);
    let mut s = Stream::default();
    for rec in &t.records {
        match rec.op {
            Op::Read => {
                for page in rec.pages() {
                    s.push(true, std::iter::once(page % capacity));
                }
            }
            Op::Write => s.push(false, rec.pages().map(|p| p % capacity)),
        }
    }
    s
}

/// A closed-loop Zipf source (the paper's FIO set-up) flattened into a
/// stream: consecutive writes are batched up to `queue_depth`, and a read
/// is a barrier that closes the open batch.
#[must_use]
pub fn zipf_stream(
    wss_pages: u64,
    page_ops: u64,
    read_rate: f64,
    queue_depth: usize,
    seed: u64,
) -> Stream {
    let cfg = FioConfig {
        wss_pages,
        zipf_alpha: 1.0001,
        read_rate,
        total_pages: page_ops,
        threads: queue_depth as u32,
    };
    let mut src = FioWorkload::new(cfg, seed);
    let mut s = Stream::default();
    let mut batch: Vec<u64> = Vec::with_capacity(queue_depth);
    while let Some((op, lba)) = src.next_request() {
        match op {
            Op::Write => {
                batch.push(lba);
                if batch.len() == queue_depth {
                    s.push(false, batch.drain(..));
                }
            }
            Op::Read => {
                if !batch.is_empty() {
                    s.push(false, batch.drain(..));
                }
                s.push(true, std::iter::once(lba));
            }
        }
    }
    if !batch.is_empty() {
        s.push(false, batch.drain(..));
    }
    s
}

/// How successive versions of a page relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentMix {
    /// Every rewrite mutates ~15 % of the previous version in 64-byte runs
    /// (the paper's content-locality assumption).
    Sparse,
    /// 50 % sparse mutations, 25 % text-field edits (one 16-byte field
    /// rewritten in every record of half the page), 15 % incompressible
    /// full rewrites, 10 % identical rewrites.
    Mixed,
}

/// Seeded page-content generator.
#[derive(Debug)]
pub struct ContentGen {
    mutator: PageMutator,
    state: u64,
    mix: ContentMix,
}

impl ContentGen {
    /// A generator for one run of one workload.
    #[must_use]
    pub fn new(mix: ContentMix, seed: u64) -> Self {
        ContentGen {
            mutator: PageMutator::new(PAGE, 0.15, 64, derive_seed(seed, "bench-content")),
            state: derive_seed(seed, "bench-content-mix"),
            mix,
        }
    }

    /// The next version of a page: a fresh page when `prev` is `None`.
    pub fn next(&mut self, prev: Option<&[u8]>) -> Vec<u8> {
        let Some(prev) = prev else { return self.mutator.initial_page() };
        if self.mix == ContentMix::Sparse {
            return self.mutator.mutate(prev);
        }
        match splitmix64(&mut self.state) % 100 {
            0..50 => self.mutator.mutate(prev),
            50..75 => self.text_edit(prev),
            75..90 => self.incompressible(),
            _ => prev.to_vec(),
        }
    }

    /// Rewrite the same 16-byte field in every record of one half of the
    /// page (as a re-encoded fixed-width column would be): the delta is
    /// dense over that half and periodic — under the codec's 75 %-zero
    /// cut-off for the RLE-only route, so the LZ pass runs and wins.
    fn text_edit(&mut self, prev: &[u8]) -> Vec<u8> {
        let mut next = prev.to_vec();
        let half = PAGE / 2;
        let start = (splitmix64(&mut self.state) % 2) as usize * half;
        let mut mask = [0u8; 16];
        mask[..8].copy_from_slice(&splitmix64(&mut self.state).to_le_bytes());
        mask[8..].copy_from_slice(&splitmix64(&mut self.state).to_le_bytes());
        for (i, b) in next[start..start + half].iter_mut().enumerate() {
            *b ^= mask[i % 16] | 1; // never a zero byte: the field did change
        }
        next
    }

    fn incompressible(&mut self) -> Vec<u8> {
        let mut page = vec![0u8; PAGE];
        for w in page.chunks_exact_mut(8) {
            w.copy_from_slice(&splitmix64(&mut self.state).to_le_bytes());
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a = paper_stream(PaperTrace::Fin1, 2000, 42, 65_536);
        let b = paper_stream(PaperTrace::Fin1, 2000, 42, 65_536);
        let c = paper_stream(PaperTrace::Fin1, 2000, 43, 65_536);
        assert_eq!(a, b);
        assert_ne!(a.digest(), c.digest());
        let z1 = zipf_stream(512, 5_000, 0.5, 16, 7);
        let z2 = zipf_stream(512, 5_000, 0.5, 16, 7);
        let z3 = zipf_stream(512, 5_000, 0.5, 16, 8);
        assert_eq!(z1.digest(), z2.digest());
        assert_ne!(z1.digest(), z3.digest());
    }

    #[test]
    fn zipf_stream_batches_writes_and_reads_are_barriers() {
        let s = zipf_stream(512, 5_000, 0.5, 16, 7);
        assert_eq!(s.lbas.len(), 5_000);
        assert_eq!(s.requests.iter().map(|r| u64::from(r.len)).sum::<u64>(), 5_000);
        assert!(s
            .requests
            .iter()
            .all(|r| r.len >= 1 && (r.len <= 16) && (!r.is_read || r.len == 1)));
        // Two write batches are adjacent only when the first one was full.
        for w in s.requests.windows(2) {
            if !w[0].is_read && !w[1].is_read {
                assert_eq!(w[0].len, 16);
            }
        }
        assert!(s.lbas.iter().all(|&l| l < 512));
    }

    #[test]
    fn content_repeats_per_seed_and_mixed_covers_every_class() {
        let mut a = ContentGen::new(ContentMix::Mixed, 3);
        let mut b = ContentGen::new(ContentMix::Mixed, 3);
        let p0 = a.next(None);
        assert_eq!(p0, b.next(None));
        let (mut same, mut sparse, mut dense) = (0, 0, 0);
        let mut prev = p0;
        for _ in 0..400 {
            let n = a.next(Some(&prev));
            assert_eq!(n, b.next(Some(&prev)));
            assert_eq!(n.len(), PAGE);
            let diff = PageMutator::diff_fraction(&prev, &n);
            if diff == 0.0 {
                same += 1;
            } else if diff < 0.35 {
                sparse += 1;
            } else {
                dense += 1;
            }
            prev = n;
        }
        assert!(same > 10 && sparse > 120 && dense > 80, "{same} {sparse} {dense}");
    }
}
