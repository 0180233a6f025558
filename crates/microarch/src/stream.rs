//! Synthetic memory reference streams.
//!
//! A [`StreamProfile`] abstracts a workload's memory behaviour into the
//! parameters that determine shared-cache interference. References come
//! in two kinds:
//!
//! * **strided** (probability `stride_fraction`): continue the current
//!   sequential run in 8-byte steps (one new cache line every eight
//!   references), staying inside the region of the last jump;
//! * **jumps**: pick a locality tier — a *hot* set sized to live in the
//!   L1, a *warm* set sized to live in the L2, or the *cold* remainder
//!   of the working set — and land uniformly inside it.
//!
//! The three-tier shape is what the paper's Table I numbers imply for
//! web search: most references hit L1, most L1 misses hit L2 (miss rate
//! ≈ 11%), yet the total footprint dwarfs every cache level, so the L2
//! content turns over constantly and a co-runner cannot make it much
//! worse. Presets are calibrated qualitatively from the CloudSuite
//! characterization (Ferdman et al., ASPLOS 2012) and PARSEC studies.

use crate::MicroarchError;
use cavm_trace::SimRng;

/// A synthetic workload's memory personality.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProfile {
    /// Display name.
    pub name: String,
    /// Total touched memory in bytes (hot + warm + cold regions).
    pub working_set_bytes: u64,
    /// Bytes of the L1-resident hot tier.
    pub hot_set_bytes: u64,
    /// Bytes of the L2-resident warm tier.
    pub warm_set_bytes: u64,
    /// Probability that a *jump* targets the hot tier.
    pub hot_fraction: f64,
    /// Probability that a *jump* targets the warm tier (the remainder
    /// goes to the cold tier).
    pub warm_fraction: f64,
    /// Probability that a reference continues the current sequential
    /// run instead of jumping.
    pub stride_fraction: f64,
    /// Memory references per 1000 instructions.
    pub refs_per_kilo_instr: f64,
    /// Cycles per instruction with a perfect cache.
    pub base_cpi: f64,
}

impl StreamProfile {
    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`MicroarchError::InvalidParameter`] for inconsistent
    /// parameters.
    pub fn validate(&self) -> crate::Result<()> {
        if self.working_set_bytes == 0 || self.hot_set_bytes == 0 {
            return Err(MicroarchError::InvalidParameter("regions must be non-zero"));
        }
        if self.hot_set_bytes + self.warm_set_bytes > self.working_set_bytes {
            return Err(MicroarchError::InvalidParameter(
                "hot + warm tiers cannot exceed the working set",
            ));
        }
        let fractions_ok = (0.0..=1.0).contains(&self.hot_fraction)
            && (0.0..=1.0).contains(&self.warm_fraction)
            && (0.0..=1.0).contains(&self.stride_fraction)
            && self.hot_fraction + self.warm_fraction <= 1.0;
        if !fractions_ok {
            return Err(MicroarchError::InvalidParameter(
                "tier fractions must lie in [0, 1] and sum to at most 1",
            ));
        }
        if !(self.refs_per_kilo_instr > 0.0 && self.refs_per_kilo_instr.is_finite()) {
            return Err(MicroarchError::InvalidParameter(
                "memory intensity must be > 0",
            ));
        }
        if !(self.base_cpi > 0.0 && self.base_cpi.is_finite()) {
            return Err(MicroarchError::InvalidParameter("base cpi must be > 0"));
        }
        Ok(())
    }

    /// CloudSuite web search (Nutch ISN): a footprint far beyond any
    /// on-chip cache, yet high L1/L2 hit rates on its hot index
    /// structures — the paper's primary workload (Table I: IPC ≈ 0.75,
    /// L2 MPKI ≈ 2.4, L2 miss rate ≈ 11%).
    pub fn web_search() -> Self {
        Self {
            name: "websearch".into(),
            working_set_bytes: 256 * 1024 * 1024,
            hot_set_bytes: 32 * 1024,
            warm_set_bytes: 224 * 1024,
            hot_fraction: 0.82,
            warm_fraction: 0.162,
            stride_fraction: 0.30,
            refs_per_kilo_instr: 220.0,
            base_cpi: 0.60,
        }
    }

    /// PARSEC Blackscholes: tiny working set, compute bound.
    pub fn blackscholes() -> Self {
        Self {
            name: "blackscholes".into(),
            working_set_bytes: 2 * 1024 * 1024,
            hot_set_bytes: 32 * 1024,
            warm_set_bytes: 192 * 1024,
            hot_fraction: 0.75,
            warm_fraction: 0.22,
            stride_fraction: 0.70,
            refs_per_kilo_instr: 150.0,
            base_cpi: 0.70,
        }
    }

    /// PARSEC Swaptions: small working set, compute bound.
    pub fn swaptions() -> Self {
        Self {
            name: "swaptions".into(),
            working_set_bytes: 1024 * 1024,
            hot_set_bytes: 32 * 1024,
            warm_set_bytes: 128 * 1024,
            hot_fraction: 0.8,
            warm_fraction: 0.18,
            stride_fraction: 0.5,
            refs_per_kilo_instr: 120.0,
            base_cpi: 0.65,
        }
    }

    /// PARSEC Facesim: mid-size working set, streaming passes.
    pub fn facesim() -> Self {
        Self {
            name: "facesim".into(),
            working_set_bytes: 48 * 1024 * 1024,
            hot_set_bytes: 32 * 1024,
            warm_set_bytes: 256 * 1024,
            hot_fraction: 0.72,
            warm_fraction: 0.22,
            stride_fraction: 0.6,
            refs_per_kilo_instr: 220.0,
            base_cpi: 0.8,
        }
    }

    /// PARSEC Canneal: large working set, pointer-chasing random
    /// accesses — the most cache-hungry PARSEC member.
    pub fn canneal() -> Self {
        Self {
            name: "canneal".into(),
            working_set_bytes: 192 * 1024 * 1024,
            hot_set_bytes: 32 * 1024,
            warm_set_bytes: 256 * 1024,
            hot_fraction: 0.66,
            warm_fraction: 0.24,
            stride_fraction: 0.08,
            refs_per_kilo_instr: 280.0,
            base_cpi: 0.85,
        }
    }

    /// A deliberately cache-*resident* workload — its whole footprint
    /// fits the shared L3 (though not the private L2) — used as the
    /// contrast case: co-location with a cache-hungry neighbour evicts
    /// its L3-resident set and hurts it.
    pub fn cache_resident() -> Self {
        Self {
            name: "cache-resident".into(),
            working_set_bytes: 3 * 1024 * 1024,
            hot_set_bytes: 32 * 1024,
            warm_set_bytes: 448 * 1024,
            hot_fraction: 0.45,
            warm_fraction: 0.25,
            stride_fraction: 0.3,
            refs_per_kilo_instr: 250.0,
            base_cpi: 0.6,
        }
    }

    /// The paper's Table I co-runner set.
    pub fn parsec_corunners() -> Vec<StreamProfile> {
        vec![
            Self::blackscholes(),
            Self::swaptions(),
            Self::facesim(),
            Self::canneal(),
        ]
    }
}

/// Locality tier of the last jump; strided runs stay inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Hot,
    Warm,
    Cold,
}

/// Stateful address generator for one workload.
#[derive(Debug, Clone)]
pub struct AddressStream {
    profile: StreamProfile,
    /// Base offset so two streams never alias (distinct address
    /// spaces).
    base: u64,
    cursor: u64,
    tier: Tier,
    rng: SimRng,
}

impl AddressStream {
    /// Creates a stream over the profile's address space, offset by
    /// `base` (use distinct bases for co-located workloads).
    ///
    /// # Errors
    ///
    /// Propagates profile validation errors.
    pub fn new(profile: StreamProfile, base: u64, seed: u64) -> crate::Result<Self> {
        profile.validate()?;
        Ok(Self {
            profile,
            base,
            cursor: base,
            tier: Tier::Hot,
            rng: SimRng::new(seed),
        })
    }

    /// The profile.
    pub fn profile(&self) -> &StreamProfile {
        &self.profile
    }

    /// Region bounds `[lo, hi)` of a tier.
    fn tier_bounds(&self, tier: Tier) -> (u64, u64) {
        let p = &self.profile;
        match tier {
            Tier::Hot => (self.base, self.base + p.hot_set_bytes),
            Tier::Warm => (
                self.base + p.hot_set_bytes,
                self.base + p.hot_set_bytes + p.warm_set_bytes,
            ),
            Tier::Cold => {
                let lo = self.base + p.hot_set_bytes + p.warm_set_bytes;
                let hi = self.base + p.working_set_bytes;
                if lo >= hi {
                    // Degenerate: no cold tier; fall back to warm.
                    self.tier_bounds(Tier::Warm)
                } else {
                    (lo, hi)
                }
            }
        }
    }

    /// Produces the next reference address.
    pub fn next_address(&mut self) -> u64 {
        let p = &self.profile;
        if self.rng.f64() < p.stride_fraction {
            // Continue the sequential run in 8-byte steps (one new
            // cache line per eight references), wrapping within the
            // current tier.
            let (lo, hi) = self.tier_bounds(self.tier);
            self.cursor += 8;
            if self.cursor >= hi {
                self.cursor = lo;
            }
            self.cursor
        } else {
            let t = self.rng.f64();
            let tier = if t < p.hot_fraction {
                Tier::Hot
            } else if t < p.hot_fraction + p.warm_fraction {
                Tier::Warm
            } else {
                Tier::Cold
            };
            self.tier = tier;
            let (lo, hi) = self.tier_bounds(tier);
            self.cursor = lo + self.rng.next_u64() % (hi - lo).max(8);
            self.cursor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for p in [
            StreamProfile::web_search(),
            StreamProfile::blackscholes(),
            StreamProfile::swaptions(),
            StreamProfile::facesim(),
            StreamProfile::canneal(),
            StreamProfile::cache_resident(),
        ] {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
        assert_eq!(StreamProfile::parsec_corunners().len(), 4);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let mut p = StreamProfile::blackscholes();
        p.working_set_bytes = 0;
        assert!(p.validate().is_err());
        let mut p = StreamProfile::blackscholes();
        p.hot_set_bytes = p.working_set_bytes;
        p.warm_set_bytes = 1;
        assert!(p.validate().is_err());
        let mut p = StreamProfile::blackscholes();
        p.hot_fraction = 0.8;
        p.warm_fraction = 0.3;
        assert!(p.validate().is_err());
        let mut p = StreamProfile::blackscholes();
        p.stride_fraction = -0.1;
        assert!(p.validate().is_err());
        let mut p = StreamProfile::blackscholes();
        p.refs_per_kilo_instr = 0.0;
        assert!(p.validate().is_err());
        let mut p = StreamProfile::blackscholes();
        p.base_cpi = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn addresses_stay_in_the_window() {
        let base = 1 << 40;
        let p = StreamProfile::facesim();
        let ws = p.working_set_bytes;
        let mut s = AddressStream::new(p, base, 7).unwrap();
        for _ in 0..50_000 {
            let a = s.next_address();
            assert!(
                a >= base && a < base + ws + 64,
                "address {a:#x} out of window"
            );
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = AddressStream::new(StreamProfile::canneal(), 0, 3).unwrap();
        let mut b = AddressStream::new(StreamProfile::canneal(), 0, 3).unwrap();
        for _ in 0..1000 {
            assert_eq!(a.next_address(), b.next_address());
        }
    }

    #[test]
    fn distinct_bases_do_not_alias() {
        let mut a = AddressStream::new(StreamProfile::blackscholes(), 0, 3).unwrap();
        let base_b = 1 << 42;
        let mut b = AddressStream::new(StreamProfile::blackscholes(), base_b, 3).unwrap();
        for _ in 0..1000 {
            assert!(a.next_address() < base_b);
            assert!(b.next_address() >= base_b);
        }
    }

    #[test]
    fn stride_advances_by_eight_bytes() {
        let mut p = StreamProfile::blackscholes();
        p.stride_fraction = 1.0;
        let mut s = AddressStream::new(p, 0, 5).unwrap();
        let first = s.next_address();
        let second = s.next_address();
        assert_eq!(second, first + 8);
    }

    #[test]
    fn hot_tier_dominates_when_configured() {
        let mut p = StreamProfile::web_search();
        p.stride_fraction = 0.0;
        let hot_limit = p.hot_set_bytes;
        let hot_fraction = p.hot_fraction;
        let mut s = AddressStream::new(p, 0, 11).unwrap();
        let n = 100_000;
        let hot_hits = (0..n).filter(|_| s.next_address() < hot_limit).count();
        let measured = hot_hits as f64 / n as f64;
        assert!(
            (measured - hot_fraction).abs() < 0.01,
            "hot fraction {measured} vs configured {hot_fraction}"
        );
    }
}
