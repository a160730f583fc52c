//! FIO-equivalent closed-loop workload generator.
//!
//! §IV-B3: "we use FIO 2.2.10 ... to generate synthetic workloads with the
//! zipf distribution ... Zipfian write pattern of α=1.0001. The benchmark
//! reads/writes a total of 4GB data with 4KB block size. The number of
//! threads is set to 16 ... The working set size for this workload is
//! 1.6GB, larger than the SSD cache size."
//!
//! Closed-loop means there are no arrival timestamps: each of the N
//! threads issues its next request the moment the previous one completes.
//! [`FioWorkload`] is therefore a request *source*, not a timed trace; the
//! closed-loop simulator pulls from it.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use crate::record::Op;
use kdd_util::rng::seeded_rng;
use kdd_util::sampler::Zipf;
use rand::rngs::StdRng;
use rand::RngExt;

/// Configuration mirroring the paper's FIO invocation.
#[derive(Debug, Clone, Copy)]
pub struct FioConfig {
    /// Working-set size in pages (1.6 GiB / 4 KiB = 409 600 in the paper).
    pub wss_pages: u64,
    /// Zipf exponent (1.0001 in the paper).
    pub zipf_alpha: f64,
    /// Fraction of requests that are reads (0.0, 0.25, 0.50, 0.75 swept).
    pub read_rate: f64,
    /// Total data moved, in pages (4 GiB / 4 KiB = 1 048 576).
    pub total_pages: u64,
    /// Concurrent request threads (16 in the paper).
    pub threads: u32,
}

impl FioConfig {
    /// The paper's exact configuration at a given read rate.
    pub fn paper(read_rate: f64) -> Self {
        FioConfig {
            wss_pages: (16u64 << 30) / 10 / 4096, // 1.6 GiB
            zipf_alpha: 1.0001,
            read_rate,
            total_pages: (4u64 << 30) / 4096, // 4 GiB
            threads: 16,
        }
    }

    /// Scale the working set and total volume down by `factor`.
    pub fn scaled(mut self, factor: u64) -> Self {
        self.wss_pages = (self.wss_pages / factor).max(64);
        self.total_pages = (self.total_pages / factor).max(64);
        self
    }
}

/// The request source: thread-agnostic, pull-based.
#[derive(Debug)]
pub struct FioWorkload {
    config: FioConfig,
    zipf: Zipf,
    issued: u64,
    rng: StdRng,
    stride: u64,
}

impl FioWorkload {
    /// Create the generator.
    ///
    /// # Panics
    /// Panics if `read_rate` is outside `[0, 1]` or the working set is
    /// empty.
    pub fn new(config: FioConfig, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&config.read_rate));
        assert!(config.wss_pages > 0 && config.total_pages > 0);
        let stride = Self::coprime_stride(config.wss_pages);
        FioWorkload {
            zipf: Zipf::new(config.wss_pages, config.zipf_alpha),
            config,
            issued: 0,
            rng: seeded_rng(seed),
            stride,
        }
    }

    fn coprime_stride(n: u64) -> u64 {
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

    /// The configuration in force.
    pub fn config(&self) -> &FioConfig {
        &self.config
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Whether the configured volume has been issued.
    pub fn done(&self) -> bool {
        self.issued >= self.config.total_pages
    }

    /// Draw the next request, or `None` once the volume target is met.
    /// Popularity ranks are scattered over the working set so the hot set
    /// is not physically contiguous.
    pub fn next_request(&mut self) -> Option<(Op, u64)> {
        if self.done() {
            return None;
        }
        self.issued += 1;
        let op =
            if self.rng.random::<f64>() < self.config.read_rate { Op::Read } else { Op::Write };
        let rank = self.zipf.sample(&mut self.rng) - 1;
        let lba = rank.wrapping_mul(self.stride) % self.config.wss_pages;
        Some((op, lba))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_total_volume() {
        let mut w = FioWorkload::new(FioConfig::paper(0.5).scaled(4096), 1);
        let mut n = 0;
        while w.next_request().is_some() {
            n += 1;
        }
        assert_eq!(n, w.config().total_pages);
        assert!(w.done());
        assert!(w.next_request().is_none());
    }

    #[test]
    fn read_rate_honoured() {
        for rate in [0.0, 0.25, 0.5, 0.75] {
            let mut w = FioWorkload::new(FioConfig::paper(rate).scaled(1024), 2);
            let mut reads = 0u64;
            let mut total = 0u64;
            while let Some((op, _)) = w.next_request() {
                total += 1;
                reads += (op == Op::Read) as u64;
            }
            let measured = reads as f64 / total as f64;
            assert!((measured - rate).abs() < 0.03, "rate {rate} measured {measured}");
        }
    }

    #[test]
    fn addresses_within_wss() {
        let mut w = FioWorkload::new(FioConfig::paper(0.25).scaled(2048), 3);
        while let Some((_, lba)) = w.next_request() {
            assert!(lba < w.config().wss_pages);
        }
    }

    #[test]
    fn zipf_concentrates_accesses() {
        let mut w = FioWorkload::new(FioConfig::paper(0.0).scaled(1024), 4);
        let mut counts = std::collections::BTreeMap::new();
        while let Some((_, lba)) = w.next_request() {
            *counts.entry(lba).or_insert(0u64) += 1;
        }
        let max = *counts.values().max().unwrap();
        let total: u64 = counts.values().sum();
        // α≈1 over a small population: the hottest page gets a clearly
        // outsized share.
        assert!(max as f64 / total as f64 > 0.01, "no skew: {max}/{total}");
    }

    #[test]
    fn working_set_bounded_but_covered() {
        let cfg = FioConfig::paper(0.5).scaled(8192);
        let mut w = FioWorkload::new(cfg, 5);
        let mut seen = std::collections::BTreeSet::new();
        while let Some((_, lba)) = w.next_request() {
            seen.insert(lba);
        }
        assert!(seen.len() as u64 <= cfg.wss_pages);
        assert!(seen.len() as u64 > cfg.wss_pages / 4, "WSS badly under-covered");
    }

    #[test]
    fn paper_numbers() {
        let cfg = FioConfig::paper(0.75);
        assert_eq!(cfg.wss_pages, 419_430); // 1.6 GiB of 4 KiB pages
        assert_eq!(cfg.total_pages, 1_048_576);
        assert_eq!(cfg.threads, 16);
    }
}
