//! Synthetic regenerators of the paper's four traces.
//!
//! The UMass and MSR trace files cannot ship with this repository, so we
//! regenerate workloads that match everything Table I reports about them:
//! unique pages touched (total / by reads / by writes), request counts,
//! and read ratio — with Zipf-skewed popularity for temporal locality and
//! clustered page allocation for spatial locality.
//!
//! Mechanism: reads draw from a read population, writes from a write
//! population, with the two populations overlapping by exactly
//! `unique_read + unique_write − unique_total` pages. A stream touches a
//! *new* page with probability `remaining_new / remaining_requests`
//! (forced when they become equal), which lands the unique-page counts
//! exactly; re-references pick an already-touched page with Zipf(rank)
//! popularity. New pages are allocated in sequential clusters of 8 whose
//! cluster order is a pseudo-random permutation — sequential runs exist
//! (spatial locality) but the address space is covered irregularly.

// Indexing and narrowing casts here are bounds-audited (offsets from
// length-checked parses; sizes bounded by construction). See DESIGN.md
// "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::record::{Op, Trace, TraceRecord};
use kdd_util::rng::{derive_seed, seeded_rng};
use kdd_util::sampler::Zipf;
use kdd_util::units::SimTime;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Pages allocated consecutively per "extent" (spatial locality knob).
const CLUSTER_PAGES: u64 = 8;

/// Everything needed to regenerate one trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Human-readable name (e.g. "Fin1").
    pub name: &'static str,
    /// Unique pages read at least once.
    pub unique_read: u64,
    /// Unique pages written at least once.
    pub unique_write: u64,
    /// Unique pages touched at all (≤ read + write; the difference is the
    /// read/write overlap).
    pub unique_total: u64,
    /// Total read requests.
    pub read_requests: u64,
    /// Total write requests.
    pub write_requests: u64,
    /// Zipf exponent for read re-references.
    pub read_theta: f64,
    /// Zipf exponent for write re-references.
    pub write_theta: f64,
    /// Mean arrival rate (requests/second) for timestamp synthesis.
    pub mean_iops: f64,
}

impl SynthSpec {
    /// Scale all counts down by `factor` (≥ 1), keeping ratios.
    pub fn scaled(&self, factor: u64) -> SynthSpec {
        assert!(factor >= 1);
        let f = |x: u64| (x / factor).max(1);
        let mut s = self.clone();
        s.unique_read = f(self.unique_read);
        s.unique_write = f(self.unique_write);
        s.unique_total = f(self.unique_total)
            .max(s.unique_read.max(s.unique_write))
            .min(s.unique_read + s.unique_write);
        s.read_requests = f(self.read_requests).max(s.unique_read);
        s.write_requests = f(self.write_requests).max(s.unique_write);
        s
    }

    /// Read fraction of all requests.
    pub fn read_ratio(&self) -> f64 {
        self.read_requests as f64 / (self.read_requests + self.write_requests) as f64
    }

    /// Generate the trace.
    ///
    /// # Panics
    /// Panics if the spec is inconsistent (unique counts exceeding request
    /// counts or total outside the overlap bounds).
    pub fn generate(&self, seed: u64) -> Trace {
        assert!(self.unique_read <= self.read_requests, "more unique reads than reads");
        assert!(self.unique_write <= self.write_requests, "more unique writes than writes");
        assert!(self.unique_total <= self.unique_read + self.unique_write);
        assert!(self.unique_total >= self.unique_read.max(self.unique_write));

        let overlap = self.unique_read + self.unique_write - self.unique_total;
        let mut rng = seeded_rng(derive_seed(seed, self.name));

        // Address mapping: shared ranks [0, overlap), read-only follows,
        // then write-only; rank → page via clustered permutation.
        let read_pop = RankMapper::new(self.unique_read, self.unique_total);
        let write_pop = RankMapper::with_offset(
            overlap,
            self.unique_read,
            self.unique_write,
            self.unique_total,
        );

        let mut read_stream = Stream::new(self.unique_read, self.read_requests, self.read_theta);
        let mut write_stream =
            Stream::new(self.unique_write, self.write_requests, self.write_theta);

        let total = self.read_requests + self.write_requests;
        let mut trace = Trace::new(4096);
        trace.records.reserve(total as usize);
        let mut remaining_reads = self.read_requests;
        let mut remaining_writes = self.write_requests;
        let mut now_ns: u64 = 0;
        let mean_gap_ns = (1e9 / self.mean_iops.max(1.0)) as u64;

        for _ in 0..total {
            let is_read = if remaining_reads == 0 {
                false
            } else if remaining_writes == 0 {
                true
            } else {
                (rng.random_range(0..remaining_reads + remaining_writes)) < remaining_reads
            };
            let (stream, pop) = if is_read {
                remaining_reads -= 1;
                (&mut read_stream, &read_pop)
            } else {
                remaining_writes -= 1;
                (&mut write_stream, &write_pop)
            };
            let rank = stream.next_rank(&mut rng);
            let lba = pop.page_of(rank);
            // Exponential interarrival.
            let u: f64 = rng.random::<f64>().max(1e-12);
            now_ns += ((-u.ln()) * mean_gap_ns as f64) as u64;
            trace.records.push(TraceRecord {
                time: SimTime::from_nanos(now_ns),
                op: if is_read { Op::Read } else { Op::Write },
                lba,
                len: 1,
            });
        }
        trace
    }
}

/// Maps popularity ranks of one stream to page numbers, clustering
/// consecutive ranks into sequential extents scattered over the space.
struct RankMapper {
    /// rank < overlap_len maps into the shared region directly; the rest
    /// is offset into this stream's private region.
    overlap_len: u64,
    private_base: u64,
    clusters: u64,
    stride: u64,
    total_pages: u64,
}

impl RankMapper {
    /// Reads: ranks [0, unique_read) = shared ∪ read-only = first
    /// `unique_read` ids.
    fn new(unique: u64, total: u64) -> Self {
        let full = total / CLUSTER_PAGES;
        RankMapper {
            overlap_len: unique,
            private_base: 0,
            clusters: full,
            stride: Self::coprime_stride(full.max(1)),
            total_pages: total,
        }
    }

    /// Writes: ranks [0, overlap) map to shared ids [0, overlap); ranks
    /// beyond map to write-only ids starting at `unique_read`.
    fn with_offset(overlap: u64, read_unique: u64, _unique: u64, total: u64) -> Self {
        let full = total / CLUSTER_PAGES;
        RankMapper {
            overlap_len: overlap,
            private_base: read_unique,
            clusters: full,
            stride: Self::coprime_stride(full.max(1)),
            total_pages: total,
        }
    }

    fn coprime_stride(n: u64) -> u64 {
        // Odd constant near the golden ratio of n, adjusted until coprime.
        let mut s = ((n as f64 * 0.6180339887) as u64) | 1;
        fn gcd(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        while gcd(s.max(1), n) != 1 {
            s += 2;
        }
        s.max(1)
    }

    /// Page number for popularity rank `r` (0-based). The map is a
    /// bijection on `[0, total_pages)`: full clusters are permuted among
    /// themselves by a coprime stride, the partial tail stays in place.
    fn page_of(&self, r: u64) -> u64 {
        let id = if r < self.overlap_len { r } else { self.private_base + (r - self.overlap_len) };
        debug_assert!(id < self.total_pages);
        let cluster = id / CLUSTER_PAGES;
        let within = id % CLUSTER_PAGES;
        if cluster < self.clusters {
            let scattered = (cluster.wrapping_mul(self.stride)) % self.clusters;
            scattered * CLUSTER_PAGES + within
        } else {
            id
        }
    }
}

/// One request stream (reads or writes) hitting exact unique counts.
struct Stream {
    unique_target: u64,
    touched: u64,
    remaining_requests: u64,
    theta: f64,
    zipf: Option<Zipf>,
    zipf_size: u64,
}

impl Stream {
    fn new(unique_target: u64, requests: u64, theta: f64) -> Self {
        Stream {
            unique_target,
            touched: 0,
            remaining_requests: requests,
            theta,
            zipf: None,
            zipf_size: 0,
        }
    }

    fn next_rank<R: Rng>(&mut self, rng: &mut R) -> u64 {
        debug_assert!(self.remaining_requests > 0);
        let remaining_new = self.unique_target - self.touched;
        let take_new = remaining_new > 0
            && (self.touched == 0
                || remaining_new >= self.remaining_requests
                || rng.random_range(0..self.remaining_requests) < remaining_new);
        self.remaining_requests -= 1;
        if take_new {
            let rank = self.touched;
            self.touched += 1;
            rank
        } else {
            // Re-reference: Zipf over the touched set. Rebuild the sampler
            // lazily when the set has grown enough to matter (>25%).
            if self.zipf.is_none() || self.zipf_size * 5 < self.touched * 4 {
                self.zipf = Some(Zipf::new(self.touched.max(1), self.theta));
                self.zipf_size = self.touched.max(1);
            }
            let z = self.zipf.as_ref().unwrap().sample(rng) - 1;
            z.min(self.touched - 1)
        }
    }
}

/// The four traces of Table I, at full published scale.
///
/// # Examples
///
/// ```
/// use kdd_trace::synth::PaperTrace;
/// use kdd_trace::stats::TraceStats;
///
/// // Fin1 at 1/1000 scale: same shape, a few thousand requests.
/// let trace = PaperTrace::Fin1.generate_scaled(1000, 42);
/// let stats = TraceStats::compute(&trace);
/// assert_eq!(stats.unique_total, 993);            // 993k / 1000
/// assert!((stats.read_ratio() - 0.19).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PaperTrace {
    /// OLTP financial trace 1 — write-dominant (read ratio 0.19).
    Fin1,
    /// OLTP financial trace 2 — read-dominant (read ratio 0.80).
    Fin2,
    /// MSR-Cambridge hm volume 0 — write-dominant (read ratio 0.33).
    Hm0,
    /// MSR-Cambridge web volume 0 — read-dominant (read ratio 0.59).
    Web0,
}

impl PaperTrace {
    /// All four traces in the paper's order.
    pub const ALL: [PaperTrace; 4] =
        [PaperTrace::Fin1, PaperTrace::Fin2, PaperTrace::Hm0, PaperTrace::Web0];

    /// The write-dominant pair (Figures 5–6).
    pub const WRITE_DOMINANT: [PaperTrace; 2] = [PaperTrace::Fin1, PaperTrace::Hm0];

    /// The read-dominant pair (Figures 7–8).
    pub const READ_DOMINANT: [PaperTrace; 2] = [PaperTrace::Fin2, PaperTrace::Web0];

    /// Table I row for this trace (counts in pages/requests, not
    /// thousands).
    pub fn spec(self) -> SynthSpec {
        match self {
            PaperTrace::Fin1 => SynthSpec {
                name: "Fin1",
                unique_read: 331_000,
                unique_write: 966_000,
                unique_total: 993_000,
                read_requests: 1_339_000,
                write_requests: 5_628_000,
                read_theta: 0.90,
                write_theta: 0.95,
                mean_iops: 160.0,
            },
            PaperTrace::Fin2 => SynthSpec {
                name: "Fin2",
                unique_read: 271_000,
                unique_write: 212_000,
                unique_total: 405_000,
                read_requests: 3_562_000,
                write_requests: 917_000,
                read_theta: 0.95,
                write_theta: 0.90,
                mean_iops: 125.0,
            },
            PaperTrace::Hm0 => SynthSpec {
                name: "Hm0",
                unique_read: 488_000,
                unique_write: 428_000,
                unique_total: 609_000,
                read_requests: 2_880_000,
                write_requests: 5_992_000,
                read_theta: 0.85,
                write_theta: 0.95,
                mean_iops: 15.0,
            },
            PaperTrace::Web0 => SynthSpec {
                name: "Web0",
                // Web0's writes have much stronger temporal locality than
                // its reads (§IV-A3's explanation of Figure 7).
                unique_read: 1_884_000,
                unique_write: 182_000,
                unique_total: 1_913_000,
                read_requests: 4_575_000,
                write_requests: 3_186_000,
                read_theta: 0.70,
                write_theta: 1.25,
                mean_iops: 13.0,
            },
        }
    }

    /// Trace name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Generate at reduced scale (`scale` divides all Table I counts).
    pub fn generate_scaled(self, scale: u64, seed: u64) -> Trace {
        self.spec().scaled(scale).generate(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn scaled_fin1_matches_table1_shape() {
        let spec = PaperTrace::Fin1.spec().scaled(100);
        let t = spec.generate(42);
        let s = TraceStats::compute(&t);
        assert_eq!(s.read_requests, spec.read_requests);
        assert_eq!(s.write_requests, spec.write_requests);
        assert_eq!(s.unique_read, spec.unique_read, "unique read pages must match exactly");
        assert_eq!(s.unique_write, spec.unique_write);
        assert_eq!(s.unique_total, spec.unique_total);
        assert!((s.read_ratio() - 0.19).abs() < 0.01, "read ratio {}", s.read_ratio());
    }

    #[test]
    fn all_traces_generate_consistently() {
        for pt in PaperTrace::ALL {
            let spec = pt.spec().scaled(400);
            let t = spec.generate(7);
            let s = TraceStats::compute(&t);
            assert_eq!(s.unique_total, spec.unique_total, "{}", pt.name());
            assert_eq!(s.unique_read, spec.unique_read, "{}", pt.name());
            assert_eq!(s.unique_write, spec.unique_write, "{}", pt.name());
            assert!((s.read_ratio() - pt.spec().read_ratio()).abs() < 0.02, "{}", pt.name());
        }
    }

    #[test]
    fn timestamps_monotone() {
        let t = PaperTrace::Fin2.generate_scaled(500, 3);
        for w in t.records.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(t.duration() > SimTime::ZERO);
    }

    #[test]
    fn reuse_is_skewed() {
        // The most popular pages should absorb a disproportionate share of
        // re-references — otherwise there is no cacheable locality.
        let t = PaperTrace::Fin1.generate_scaled(200, 9);
        let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for r in &t.records {
            *counts.entry(r.lba).or_default() += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().sum();
        let top1pct: u64 = freqs[..freqs.len() / 100 + 1].iter().sum();
        assert!(
            top1pct as f64 / total as f64 > 0.05,
            "top 1% of pages got only {:.1}% of accesses",
            100.0 * top1pct as f64 / total as f64
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PaperTrace::Hm0.generate_scaled(800, 5);
        let b = PaperTrace::Hm0.generate_scaled(800, 5);
        assert_eq!(a.records, b.records);
        let c = PaperTrace::Hm0.generate_scaled(800, 6);
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let full = PaperTrace::Web0.spec();
        let s = full.scaled(50);
        assert!((s.read_ratio() - full.read_ratio()).abs() < 0.01);
        assert!(s.unique_total <= s.unique_read + s.unique_write);
        assert!(s.unique_total >= s.unique_read.max(s.unique_write));
    }

    #[test]
    fn sequential_clusters_exist() {
        // Spatial locality: some touched pages must be adjacent.
        let t = PaperTrace::Fin1.generate_scaled(500, 11);
        let mut pages: Vec<u64> = t.records.iter().map(|r| r.lba).collect();
        pages.sort_unstable();
        pages.dedup();
        let adjacent = pages.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            adjacent as f64 / pages.len() as f64 > 0.3,
            "almost no sequential clustering: {adjacent}/{}",
            pages.len()
        );
    }
}
