//! Delta-size models for the trace-driven simulator.
//!
//! Block traces carry no page contents, so the simulator cannot compress
//! anything. The paper's solution (§IV-A2): "we assume the delta
//! compression ratio values follow Gaussian distribution with an average
//! equaling 50%, 25%, and 12% (denoted by KDD-x%), representing workloads
//! with low, medium, and high level of content locality."
//!
//! [`DeltaSizeModel`] abstracts over that Gaussian model, a fixed-ratio
//! model (for deterministic tests), and — in the prototype engine — real
//! measured sizes.

// Narrowing casts here are bounded by construction (page sizes, slot
// counts). See DESIGN.md "Static analysis & invariants".
#![allow(clippy::cast_possible_truncation)]

use kdd_util::rng::seeded_rng;
use kdd_util::sampler::ClampedGaussian;
use rand::rngs::StdRng;

/// Produces the compressed size (in bytes) of the delta generated by one
/// write hit on a page of `page_size` bytes.
pub trait DeltaSizeModel: Send {
    /// Sample the compressed delta size for one write.
    fn delta_size(&mut self, page_size: u32) -> u32;

    /// The model's mean compression ratio (for reporting).
    fn mean_ratio(&self) -> f64;
}

/// The paper's Gaussian compressibility model.
#[derive(Debug)]
pub struct GaussianDeltaModel {
    dist: ClampedGaussian,
    mean: f64,
    rng: StdRng,
}

impl GaussianDeltaModel {
    /// Model with mean ratio `mean` (e.g. 0.50, 0.25, 0.12) and the
    /// conventional `stddev = mean/4`.
    pub fn new(mean: f64, seed: u64) -> Self {
        assert!(mean > 0.0 && mean <= 1.0, "ratio must be in (0,1]");
        GaussianDeltaModel {
            dist: ClampedGaussian::compress_ratio(mean),
            mean,
            rng: seeded_rng(seed),
        }
    }
}

impl DeltaSizeModel for GaussianDeltaModel {
    fn delta_size(&mut self, page_size: u32) -> u32 {
        let ratio = self.dist.sample(&mut self.rng);
        ((page_size as f64 * ratio).round() as u32).clamp(1, page_size)
    }

    fn mean_ratio(&self) -> f64 {
        self.mean
    }
}

/// Deterministic fixed-ratio model (tests and ablations).
#[derive(Debug, Clone)]
pub struct FixedDeltaModel {
    ratio: f64,
}

impl FixedDeltaModel {
    /// Every delta is exactly `ratio * page_size` bytes.
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0);
        FixedDeltaModel { ratio }
    }
}

impl DeltaSizeModel for FixedDeltaModel {
    fn delta_size(&mut self, page_size: u32) -> u32 {
        ((page_size as f64 * self.ratio).round() as u32).clamp(1, page_size)
    }

    fn mean_ratio(&self) -> f64 {
        self.ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_mean_tracks_parameter() {
        for mean in [0.50, 0.25, 0.12] {
            let mut m = GaussianDeltaModel::new(mean, 5);
            let n = 20_000;
            let total: u64 = (0..n).map(|_| m.delta_size(4096) as u64).sum();
            let measured = total as f64 / n as f64 / 4096.0;
            assert!((measured - mean).abs() < 0.02, "mean {mean} measured {measured}");
            assert_eq!(m.mean_ratio(), mean);
        }
    }

    #[test]
    fn sizes_always_in_bounds() {
        let mut m = GaussianDeltaModel::new(0.12, 6);
        for _ in 0..10_000 {
            let s = m.delta_size(4096);
            assert!((1..=4096).contains(&s));
        }
    }

    #[test]
    fn fixed_model_is_exact() {
        let mut m = FixedDeltaModel::new(0.25);
        assert_eq!(m.delta_size(4096), 1024);
        assert_eq!(m.delta_size(4096), 1024);
        assert_eq!(m.mean_ratio(), 0.25);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = GaussianDeltaModel::new(0.25, 99);
        let mut b = GaussianDeltaModel::new(0.25, 99);
        for _ in 0..100 {
            assert_eq!(a.delta_size(4096), b.delta_size(4096));
        }
    }
}
