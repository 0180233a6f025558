//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the workspace (trace synthesis, query
//! arrivals, service demands) draws from [`SimRng`], a small xoshiro256**
//! generator seeded through SplitMix64. Keeping the generator in-house —
//! rather than depending on `rand`'s default generators — guarantees that
//! every experiment in the repository reproduces bit-for-bit from a single
//! `u64` seed, across platforms and dependency upgrades.
//!
//! The distribution repertoire is exactly what the paper's workloads
//! need:
//!
//! * uniform `f64` / ranges,
//! * normal (Box–Muller, with spare caching),
//! * **lognormal parameterized by its mean** — the paper refines 5-minute
//!   datacenter samples into 5-second samples "with a lognormal random
//!   number generator whose mean is the same as the collected value"
//!   (§V-B, citing Benson et al.),
//! * Poisson (query arrivals), exponential (inter-arrival gaps).
//!
//! # Example
//!
//! ```
//! use cavm_trace::SimRng;
//!
//! let mut a = SimRng::new(7);
//! let mut b = SimRng::new(7);
//! // Identical seeds replay identical streams, across every
//! // distribution.
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
//! // The mean-parameterized lognormal stays positive (it refines
//! // coarse datacenter samples into fine ones, §V-B).
//! let sample = a.lognormal_mean_cv(2.0, 0.5);
//! assert!(sample > 0.0);
//! ```

use crate::TraceError;
use serde::{Deserialize, Serialize};

/// SplitMix64 step: the recommended seeding engine for xoshiro.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256** PRNG with the distributions used across the
/// workspace.
///
/// # Example
///
/// ```
/// use cavm_trace::SimRng;
///
/// let mut a = SimRng::new(1234);
/// let mut b = SimRng::new(1234);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully reproducible
///
/// let mut rng = SimRng::new(7);
/// let x = rng.lognormal_mean_cv(2.0, 0.4);
/// assert!(x > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent child generator for a named sub-stream.
    ///
    /// Forking decorrelates the consumption patterns of different model
    /// components: e.g. each VM's trace generator forks from the scenario
    /// seed with the VM index, so adding a VM never perturbs the traces of
    /// the others.
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the current state with the stream id through SplitMix64.
        let mut sm = self
            .s
            .iter()
            .fold(stream.wrapping_mul(0xA24B_AED4_963E_E407), |acc, &w| {
                acc.rotate_left(23) ^ w
            });
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        let n = n as u64;
        // Widening-multiply rejection sampling (unbiased).
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller (caches the paired output).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 so ln(u) is finite.
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let v = self.f64();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or non-finite.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std.is_finite() && std >= 0.0, "bad std {std}");
        mean + std * self.standard_normal()
    }

    /// Lognormal draw parameterized by **mean** and coefficient of
    /// variation.
    ///
    /// If `X = exp(N(μ, σ²))` then `E[X] = exp(μ + σ²/2)` and
    /// `CV² = exp(σ²) − 1`; solving gives `σ² = ln(1 + CV²)` and
    /// `μ = ln(mean) − σ²/2`. This is the paper's trace-refinement
    /// primitive: 5-minute means expanded into bursty 5-second samples
    /// with the mean preserved in expectation.
    ///
    /// A `mean` of zero (idle interval) deterministically returns 0, and
    /// `cv == 0` returns `mean` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `mean < 0` or `cv < 0` or either is non-finite.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        assert!(mean.is_finite() && mean >= 0.0, "bad lognormal mean {mean}");
        assert!(cv.is_finite() && cv >= 0.0, "bad lognormal cv {cv}");
        if mean == 0.0 {
            return 0.0;
        }
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.standard_normal()).exp()
    }

    /// Exponential draw with the given rate (mean `1/rate`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] unless `rate > 0` and
    /// finite.
    pub fn exponential(&mut self, rate: f64) -> crate::Result<f64> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(TraceError::InvalidParameter("exponential rate must be > 0"));
        }
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        Ok(-u.ln() / rate)
    }

    /// Poisson draw with the given mean.
    ///
    /// Uses Knuth's product method for small means and a clamped normal
    /// approximation for `lambda > 30` (ample for per-tick query counts).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] for negative or non-finite
    /// `lambda`.
    pub fn poisson(&mut self, lambda: f64) -> crate::Result<u64> {
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(TraceError::InvalidParameter("poisson mean must be >= 0"));
        }
        if lambda == 0.0 {
            return Ok(0);
        }
        if lambda > 30.0 {
            let draw = self.normal(lambda, lambda.sqrt());
            return Ok(draw.round().max(0.0) as u64);
        }
        let limit = (-lambda).exp();
        let mut product = self.f64();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= self.f64();
        }
        Ok(count)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let root = SimRng::new(42);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let mut c1_again = root.fork(0);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = SimRng::new(6);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = SimRng::new(11);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.below(5)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(21);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_mean_is_preserved() {
        let mut rng = SimRng::new(31);
        let n = 200_000;
        let target_mean = 2.5;
        let cv = 0.6;
        let mean = (0..n)
            .map(|_| rng.lognormal_mean_cv(target_mean, cv))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - target_mean).abs() / target_mean < 0.02,
            "lognormal mean {mean} vs target {target_mean}"
        );
    }

    #[test]
    fn lognormal_cv_is_preserved() {
        let mut rng = SimRng::new(32);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(1.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 0.5).abs() < 0.02, "cv {cv}");
    }

    #[test]
    fn lognormal_edge_cases() {
        let mut rng = SimRng::new(33);
        assert_eq!(rng.lognormal_mean_cv(0.0, 0.5), 0.0);
        assert_eq!(rng.lognormal_mean_cv(3.0, 0.0), 3.0);
        for _ in 0..1000 {
            assert!(rng.lognormal_mean_cv(1.0, 2.0) > 0.0);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(41);
        let n = 100_000;
        let mut acc = 0.0;
        for _ in 0..n {
            acc += rng.exponential(4.0).unwrap();
        }
        let mean = acc / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!(rng.exponential(0.0).is_err());
        assert!(rng.exponential(-1.0).is_err());
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut rng = SimRng::new(51);
        for &lambda in &[0.5, 3.0, 12.0, 80.0] {
            let n = 40_000;
            let mut acc = 0u64;
            for _ in 0..n {
                acc += rng.poisson(lambda).unwrap();
            }
            let mean = acc as f64 / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.05,
                "poisson mean {mean} vs lambda {lambda}"
            );
        }
        assert_eq!(rng.poisson(0.0).unwrap(), 0);
        assert!(rng.poisson(-1.0).is_err());
        assert!(rng.poisson(f64::NAN).is_err());
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = SimRng::new(61);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the identity permutation (astronomically unlikely)"
        );
    }
}
