//! The paper's Setup-1 scenario, pre-wired (Figs 4 and 5).
//!
//! Two web-search clusters of two ISNs each on two 8-core servers; the
//! client population of Cluster1 follows a sine wave and Cluster2 a
//! cosine wave, both 0–300. Three placements are compared:
//!
//! * **Segregated** — each ISN pinned to 4 dedicated cores (Fig 4(a));
//! * **Shared-UnCorr** — cluster-mates (highly *correlated* VMs) share
//!   one server's 8-core pool (Fig 4(b));
//! * **Shared-Corr** — VMs from *different* clusters (anti-phased, hence
//!   uncorrelated) share a pool, pairing each cluster's hot shard with
//!   the other's cold shard (Fig 4(c)).
//!
//! The frequency scale models the Opteron ladder of the testbed:
//! `1.0` ≡ 2.1 GHz, `1.9/2.1 ≈ 0.905` ≡ 1.9 GHz.

use crate::sim::{
    ArrivalModel, ClusterSim, ClusterSimConfig, ClusterSimResult, ServerSpec, VmAssignment,
};
use crate::ClusterError;
use cavm_trace::percentile;
use cavm_workload::{ClientWave, WebSearchCluster};

/// The three VM placements of Fig 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup1Placement {
    /// Fig 4(a): every ISN on 4 dedicated cores.
    Segregated,
    /// Fig 4(b): cluster-mates share a server pool (correlation-blind).
    SharedUncorrelated,
    /// Fig 4(c): cross-cluster pairs share a server pool
    /// (correlation-aware).
    SharedCorrelated,
}

impl Setup1Placement {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Setup1Placement::Segregated => "Segregated",
            Setup1Placement::SharedUncorrelated => "Shared-UnCorr",
            Setup1Placement::SharedCorrelated => "Shared-Corr",
        }
    }
}

/// Scenario parameters with paper-matching defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup1Config {
    /// Execution-rate multiplier: 1.0 ≡ 2.1 GHz, `1.9/2.1` ≡ 1.9 GHz.
    pub frequency_scale: f64,
    /// Simulated seconds (default: one full client-wave period).
    pub duration_s: f64,
    /// Utilization sampling interval (paper: 1 s).
    pub sample_dt_s: f64,
    /// Warm-up cut for response-time statistics.
    pub warmup_s: f64,
    /// Peak client population (paper: 300).
    pub clients_max: f64,
    /// Client-wave period in seconds.
    pub wave_period_s: f64,
    /// Emulate Faban's closed-loop clients (each waits for its response
    /// before thinking again) instead of open-loop Poisson arrivals.
    /// Closed-loop self-throttles during overload, as the real testbed
    /// did; open-loop stresses saturation harder.
    pub closed_loop: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Setup1Config {
    fn default() -> Self {
        Self {
            frequency_scale: 1.0,
            duration_s: 1200.0,
            sample_dt_s: 1.0,
            warmup_s: 60.0,
            clients_max: 300.0,
            wave_period_s: 1200.0,
            closed_loop: false,
            seed: 2013,
        }
    }
}

/// Output of one Setup-1 run.
#[derive(Debug, Clone, PartialEq)]
pub struct Setup1Outcome {
    /// Which placement ran.
    pub placement: Setup1Placement,
    /// Raw simulation result (per-VM traces, responses, counters).
    pub result: ClusterSimResult,
    /// 90th-percentile response time per cluster, seconds (Fig 5).
    pub p90_response: Vec<f64>,
    /// Peak aggregate utilization per server, fraction of cores (the
    /// 0.88 / 0.6 numbers discussed around Fig 4).
    pub peak_server_util: Vec<f64>,
}

/// Builds the `ClusterSimConfig` for a placement (exposed so ablations
/// can tweak it before running).
///
/// # Errors
///
/// Propagates workload validation errors.
pub fn setup1_sim_config(
    placement: Setup1Placement,
    config: &Setup1Config,
) -> crate::Result<ClusterSimConfig> {
    let cluster1 = WebSearchCluster::paper_setup1().map_err(ClusterError::Workload)?;
    let cluster2 = cluster1.clone();
    let wave1 = ClientWave::sine(0.0, config.clients_max, config.wave_period_s)
        .map_err(ClusterError::Workload)?;
    let wave2 = ClientWave::cosine(0.0, config.clients_max, config.wave_period_s)
        .map_err(ClusterError::Workload)?;

    let a = |cluster: usize, isn: usize, server: usize, dedicated: Option<usize>| VmAssignment {
        cluster,
        isn,
        server,
        dedicated_cores: dedicated,
    };
    let assignments = match placement {
        Setup1Placement::Segregated => vec![
            a(0, 0, 0, Some(4)),
            a(0, 1, 0, Some(4)),
            a(1, 0, 1, Some(4)),
            a(1, 1, 1, Some(4)),
        ],
        Setup1Placement::SharedUncorrelated => {
            vec![
                a(0, 0, 0, None),
                a(0, 1, 0, None),
                a(1, 0, 1, None),
                a(1, 1, 1, None),
            ]
        }
        // Hot shard of one cluster with the cold shard of the other:
        // anti-phased waves and complementary shard weights.
        Setup1Placement::SharedCorrelated => {
            vec![
                a(0, 0, 0, None),
                a(1, 1, 0, None),
                a(0, 1, 1, None),
                a(1, 0, 1, None),
            ]
        }
    };

    Ok(ClusterSimConfig {
        servers: vec![
            ServerSpec::new(8, config.frequency_scale),
            ServerSpec::new(8, config.frequency_scale),
        ],
        clusters: vec![cluster1, cluster2],
        waves: vec![wave1, wave2],
        assignments,
        duration_s: config.duration_s,
        sample_dt_s: config.sample_dt_s,
        warmup_s: config.warmup_s,
        arrival_model: if config.closed_loop {
            ArrivalModel::Closed
        } else {
            ArrivalModel::Open
        },
        seed: config.seed,
    })
}

/// Runs one placement and summarizes it.
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn run_setup1(
    placement: Setup1Placement,
    config: &Setup1Config,
) -> crate::Result<Setup1Outcome> {
    let sim_config = setup1_sim_config(placement, config)?;
    let result = ClusterSim::new(sim_config)?.run()?;
    let p90_response = (0..result.response_times.len())
        .map(|c| {
            if result.response_times[c].is_empty() {
                Ok(0.0)
            } else {
                Ok(percentile(&result.response_times[c], 90.0).map_err(ClusterError::Trace)?)
            }
        })
        .collect::<crate::Result<Vec<f64>>>()?;
    let peak_server_util = (0..result.server_utilization.len())
        .map(|s| result.peak_server_utilization(s))
        .collect::<crate::Result<Vec<f64>>>()?;
    Ok(Setup1Outcome {
        placement,
        result,
        p90_response,
        peak_server_util,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Setup1Config {
        // Shorter run for unit tests; the bench binaries run the full
        // period.
        Setup1Config {
            duration_s: 600.0,
            wave_period_s: 600.0,
            ..Setup1Config::default()
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Setup1Placement::Segregated.label(), "Segregated");
        assert_eq!(Setup1Placement::SharedUncorrelated.label(), "Shared-UnCorr");
        assert_eq!(Setup1Placement::SharedCorrelated.label(), "Shared-Corr");
    }

    #[test]
    fn all_placements_run_and_complete_queries() {
        for p in [
            Setup1Placement::Segregated,
            Setup1Placement::SharedUncorrelated,
            Setup1Placement::SharedCorrelated,
        ] {
            let out = run_setup1(p, &quick()).unwrap();
            assert_eq!(out.p90_response.len(), 2);
            assert!(out.p90_response.iter().all(|&t| t > 0.0), "{p:?}");
            assert!(out.result.queries_issued.iter().sum::<usize>() > 1000);
        }
    }

    #[test]
    fn fig5_ordering_shared_beats_segregated() {
        let seg = run_setup1(Setup1Placement::Segregated, &quick()).unwrap();
        let unc = run_setup1(Setup1Placement::SharedUncorrelated, &quick()).unwrap();
        for c in 0..2 {
            assert!(
                unc.p90_response[c] < seg.p90_response[c],
                "cluster {c}: shared {} !< segregated {}",
                unc.p90_response[c],
                seg.p90_response[c]
            );
        }
    }

    #[test]
    fn fig4_peak_utilization_drops_with_correlation_awareness() {
        let unc = run_setup1(Setup1Placement::SharedUncorrelated, &quick()).unwrap();
        let cor = run_setup1(Setup1Placement::SharedCorrelated, &quick()).unwrap();
        let unc_peak = unc.peak_server_util.iter().copied().fold(0.0, f64::max);
        let cor_peak = cor.peak_server_util.iter().copied().fold(0.0, f64::max);
        assert!(
            cor_peak < unc_peak,
            "corr-aware peak {cor_peak} !< corr-blind peak {unc_peak}"
        );
    }

    #[test]
    fn downclocked_corr_close_to_fullspeed_uncorr() {
        // The paper's punchline: Shared-Corr at 1.9 GHz ≈ Shared-UnCorr
        // at 2.1 GHz (0.160 vs 0.155 s), i.e. the correlation gain pays
        // for the frequency drop.
        let unc = run_setup1(Setup1Placement::SharedUncorrelated, &quick()).unwrap();
        let low = Setup1Config {
            frequency_scale: 1.9 / 2.1,
            ..quick()
        };
        let cor_low = run_setup1(Setup1Placement::SharedCorrelated, &low).unwrap();
        for c in 0..2 {
            assert!(
                cor_low.p90_response[c] < unc.p90_response[c] * 1.35,
                "cluster {c}: downclocked corr {} vs fullspeed uncorr {}",
                cor_low.p90_response[c],
                unc.p90_response[c]
            );
        }
    }
}
