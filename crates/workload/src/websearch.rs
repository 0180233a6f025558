//! Web-search cluster demand model (paper Setup-1).
//!
//! A CloudSuite-style web-search cluster is a front-end plus several
//! index-serving nodes (ISNs). Every query fans out to *all* ISNs; each
//! ISN scans its shard of the index and the front-end replies only after
//! the **last** ISN answers. Consequences the paper leans on:
//!
//! * per-ISN CPU demand tracks the client population closely (Fig 1) —
//!   *intra-cluster correlation*;
//! * shards are not perfectly balanced, so one ISN of a cluster runs
//!   hotter than its sibling (the over/under-utilization visible in
//!   Fig 4(a));
//! * response time is governed by the slowest ISN.
//!
//! [`WebSearchCluster`] captures the demand side of that model: per-query
//! CPU demand per ISN (a static shard share × a lognormal per-query
//! jitter) under a Poisson arrival process driven by a client waveform.
//! The queueing side (what response times result) lives in
//! `cavm-cluster`, which consumes the samplers defined here.

use crate::WorkloadError;
use cavm_trace::{SimRng, TimeSeries};
use serde::{Deserialize, Serialize};

/// Parameters of a web-search cluster's demand model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebSearchClusterConfig {
    /// Number of index-serving nodes (each one is a VM).
    pub isns: usize,
    /// Mean per-client think time between queries, seconds. The cluster
    /// arrival rate is `clients / think_time_s`.
    pub think_time_s: f64,
    /// Mean CPU demand one query imposes on one (balanced) ISN,
    /// core-seconds, at the machine's maximum frequency.
    pub base_demand_core_s: f64,
    /// Coefficient of variation of the per-query demand jitter
    /// (lognormal, mean 1): queries matching many documents cost more.
    pub demand_cv: f64,
    /// Relative shard weights, one per ISN; normalized to mean 1 at
    /// construction. Unequal weights model imbalanced index shards.
    pub isn_shares: Vec<f64>,
    /// CPU demand of the front-end gather/merge step per query,
    /// core-seconds (small; the paper notes the front-end utilization is
    /// "quite low compared to ISNs").
    pub frontend_demand_core_s: f64,
}

impl Default for WebSearchClusterConfig {
    /// Calibration reproducing Setup-1's mechanism: with 300 clients
    /// and 10 s think time the cluster offers 30 queries/s; the hot ISN
    /// then demands ≈ 4.2 cores at the wave peak — *briefly* exceeding a
    /// 4-core partition ("needs more than 4 cores", Fig 4(a)) without
    /// driving the queue into divergence — while a whole cluster peaks
    /// near 0.81 of an 8-core server.
    fn default() -> Self {
        Self {
            isns: 2,
            think_time_s: 10.0,
            base_demand_core_s: 0.1067,
            demand_cv: 0.3,
            isn_shares: vec![1.25, 0.75],
            frontend_demand_core_s: 0.005,
        }
    }
}

/// A validated web-search cluster demand model.
///
/// # Example
///
/// ```
/// use cavm_workload::websearch::WebSearchCluster;
///
/// # fn main() -> Result<(), cavm_workload::WorkloadError> {
/// let cluster = WebSearchCluster::paper_setup1()?;
/// // 300 clients → 30 queries/s; the hot ISN needs > 4 cores.
/// assert!((cluster.arrival_rate(300.0) - 30.0).abs() < 1e-9);
/// assert!(cluster.expected_isn_load(300.0, 0) > 4.0);
/// assert!(cluster.expected_isn_load(300.0, 1) < 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WebSearchCluster {
    config: WebSearchClusterConfig,
}

impl WebSearchCluster {
    /// Validates a configuration and normalizes the shard shares to
    /// mean 1.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when any count, time
    /// or demand is non-positive, the share vector length disagrees with
    /// `isns`, or any share is non-positive.
    pub fn new(mut config: WebSearchClusterConfig) -> crate::Result<Self> {
        if config.isns == 0 {
            return Err(WorkloadError::InvalidParameter(
                "cluster needs at least one ISN",
            ));
        }
        if !(config.think_time_s.is_finite() && config.think_time_s > 0.0) {
            return Err(WorkloadError::InvalidParameter("think time must be > 0"));
        }
        if !(config.base_demand_core_s.is_finite() && config.base_demand_core_s > 0.0) {
            return Err(WorkloadError::InvalidParameter("base demand must be > 0"));
        }
        if !(config.demand_cv.is_finite() && config.demand_cv >= 0.0) {
            return Err(WorkloadError::InvalidParameter("demand cv must be >= 0"));
        }
        if !(config.frontend_demand_core_s.is_finite() && config.frontend_demand_core_s >= 0.0) {
            return Err(WorkloadError::InvalidParameter(
                "frontend demand must be >= 0",
            ));
        }
        if config.isn_shares.len() != config.isns {
            return Err(WorkloadError::InvalidParameter(
                "one shard share per ISN required",
            ));
        }
        if config
            .isn_shares
            .iter()
            .any(|&s| !(s.is_finite() && s > 0.0))
        {
            return Err(WorkloadError::InvalidParameter("shard shares must be > 0"));
        }
        let mean: f64 = config.isn_shares.iter().sum::<f64>() / config.isn_shares.len() as f64;
        for s in &mut config.isn_shares {
            *s /= mean;
        }
        Ok(Self { config })
    }

    /// The paper's Setup-1 calibration (see
    /// [`WebSearchClusterConfig::default`]).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches [`Self::new`].
    pub fn paper_setup1() -> crate::Result<Self> {
        Self::new(WebSearchClusterConfig::default())
    }

    /// The validated configuration (shares normalized to mean 1).
    pub fn config(&self) -> &WebSearchClusterConfig {
        &self.config
    }

    /// Number of ISNs.
    pub fn isns(&self) -> usize {
        self.config.isns
    }

    /// Cluster query arrival rate for a client population, queries/s.
    pub fn arrival_rate(&self, clients: f64) -> f64 {
        clients.max(0.0) / self.config.think_time_s
    }

    /// Mean CPU demand of one query on the given ISN, core-seconds.
    ///
    /// # Panics
    ///
    /// Panics if `isn` is out of range.
    pub fn expected_isn_demand(&self, isn: usize) -> f64 {
        self.config.base_demand_core_s * self.config.isn_shares[isn]
    }

    /// Expected offered load on an ISN for a client population, in
    /// cores: `arrival_rate × per-query demand`.
    ///
    /// # Panics
    ///
    /// Panics if `isn` is out of range.
    pub fn expected_isn_load(&self, clients: f64, isn: usize) -> f64 {
        self.arrival_rate(clients) * self.expected_isn_demand(isn)
    }

    /// Draws the per-ISN CPU demands of a single query, core-seconds.
    /// Index `i` of the result is the demand on ISN `i`.
    pub fn sample_query_demands(&self, rng: &mut SimRng) -> Vec<f64> {
        (0..self.config.isns)
            .map(|i| {
                let jitter = rng.lognormal_mean_cv(1.0, self.config.demand_cv);
                self.expected_isn_demand(i) * jitter
            })
            .collect()
    }

    /// Stochastic per-ISN utilization traces (cores): per sample window,
    /// a Poisson number of queries arrives and each contributes a
    /// jittered demand. This is what a 1 s `xenstat` monitor would record
    /// on an uncapped VM (Fig 1's wiggly lines).
    ///
    /// # Errors
    ///
    /// Propagates series-construction errors.
    pub fn utilization_traces(
        &self,
        clients: &TimeSeries,
        rng: &mut SimRng,
    ) -> crate::Result<Vec<TimeSeries>> {
        let dt = clients.dt();
        let n = clients.len();
        let mut per_isn: Vec<Vec<f64>> = vec![Vec::with_capacity(n); self.config.isns];
        for &c in clients.values() {
            let lambda = self.arrival_rate(c) * dt;
            let queries = rng.poisson(lambda).map_err(WorkloadError::Trace)?;
            let mut totals = vec![0.0; self.config.isns];
            for _ in 0..queries {
                for (i, total) in totals.iter_mut().enumerate() {
                    let jitter = rng.lognormal_mean_cv(1.0, self.config.demand_cv);
                    *total += self.expected_isn_demand(i) * jitter;
                }
            }
            for (i, total) in totals.into_iter().enumerate() {
                per_isn[i].push(total / dt);
            }
        }
        per_isn
            .into_iter()
            .map(|v| Ok(TimeSeries::new(dt, v)?))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::ClientWave;

    #[test]
    fn validation_rejects_bad_configs() {
        let base = WebSearchClusterConfig::default();
        let bad = |f: fn(&mut WebSearchClusterConfig)| {
            let mut c = base.clone();
            f(&mut c);
            WebSearchCluster::new(c)
        };
        assert!(bad(|c| c.isns = 0).is_err());
        assert!(bad(|c| c.think_time_s = 0.0).is_err());
        assert!(bad(|c| c.base_demand_core_s = -1.0).is_err());
        assert!(bad(|c| c.demand_cv = -0.1).is_err());
        assert!(bad(|c| c.frontend_demand_core_s = -0.1).is_err());
        assert!(bad(|c| c.isn_shares = vec![1.0]).is_err());
        assert!(bad(|c| c.isn_shares = vec![1.0, 0.0]).is_err());
    }

    #[test]
    fn shares_are_normalized_to_mean_one() {
        let cfg = WebSearchClusterConfig {
            isn_shares: vec![2.6, 1.4],
            ..Default::default()
        };
        let cluster = WebSearchCluster::new(cfg).unwrap();
        let shares = &cluster.config().isn_shares;
        assert!((shares.iter().sum::<f64>() - 2.0).abs() < 1e-12);
        assert!((shares[0] - 1.3).abs() < 1e-12);
    }

    #[test]
    fn arrival_rate_clamps_negative_clients() {
        let c = WebSearchCluster::paper_setup1().unwrap();
        assert_eq!(c.arrival_rate(-5.0), 0.0);
    }

    #[test]
    fn expected_load_scales_linearly_with_clients() {
        let c = WebSearchCluster::paper_setup1().unwrap();
        let at_150 = c.expected_isn_load(150.0, 0);
        let at_300 = c.expected_isn_load(300.0, 0);
        assert!((at_300 - 2.0 * at_150).abs() < 1e-9);
    }

    #[test]
    fn setup1_calibration_saturates_a_4_core_partition() {
        let c = WebSearchCluster::paper_setup1().unwrap();
        // Hot ISN just above 4 cores at peak (brief partition overload),
        // cold well below; cluster total near 0.81 × 8 cores.
        let hot = c.expected_isn_load(300.0, 0);
        let cold = c.expected_isn_load(300.0, 1);
        assert!(hot > 4.0 && hot < 4.5, "hot {hot}");
        assert!(cold < 4.0, "cold {cold}");
        let total = hot + cold;
        assert!(
            (total / 8.0 - 0.81).abs() < 0.02,
            "cluster peak {}",
            total / 8.0
        );
    }

    #[test]
    fn stochastic_trace_mean_matches_offered_load() {
        let c = WebSearchCluster::paper_setup1().unwrap();
        let clients = TimeSeries::constant(1.0, 2_000, 300.0).unwrap();
        let mut rng = SimRng::new(11);
        let traces = c.utilization_traces(&clients, &mut rng).unwrap();
        for (i, t) in traces.iter().enumerate() {
            let expected = c.expected_isn_load(300.0, i);
            let got = t.mean();
            assert!(
                (got - expected).abs() / expected < 0.05,
                "isn {i}: mean {got} vs expected {expected}"
            );
        }
    }

    #[test]
    fn query_demand_sampler_is_positive_with_correct_mean() {
        let c = WebSearchCluster::paper_setup1().unwrap();
        let mut rng = SimRng::new(13);
        let mut sums = vec![0.0; c.isns()];
        let n = 20_000;
        for _ in 0..n {
            for (i, d) in c.sample_query_demands(&mut rng).into_iter().enumerate() {
                assert!(d > 0.0);
                sums[i] += d;
            }
        }
        for (i, sum) in sums.iter().enumerate() {
            let mean = sum / n as f64;
            let expected = c.expected_isn_demand(i);
            assert!(
                (mean - expected).abs() / expected < 0.03,
                "isn {i}: {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn intra_cluster_correlation_is_high() {
        // The substrate must exhibit the paper's Fig 1 phenomenon: two
        // ISNs of one cluster are strongly correlated through the shared
        // client signal.
        let c = WebSearchCluster::paper_setup1().unwrap();
        let wave = ClientWave::sine(0.0, 300.0, 600.0).unwrap();
        let clients = wave.sample(1.0, 1800).unwrap();
        let mut rng = SimRng::new(17);
        let traces = c.utilization_traces(&clients, &mut rng).unwrap();
        let (a, b) = (traces[0].values(), traces[1].values());
        let ma = traces[0].mean();
        let mb = traces[1].mean();
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for i in 0..a.len() {
            cov += (a[i] - ma) * (b[i] - mb);
            va += (a[i] - ma).powi(2);
            vb += (b[i] - mb).powi(2);
        }
        let pearson = cov / (va.sqrt() * vb.sqrt());
        assert!(pearson > 0.8, "intra-cluster Pearson correlation {pearson}");
    }
}
