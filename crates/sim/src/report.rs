//! Simulation reports: the quantities Table II and Fig 6 print.

use cavm_power::EnergyMeter;

/// Per-period bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRecord {
    /// Period index.
    pub period: usize,
    /// Active (non-empty) servers this period.
    pub servers_used: usize,
    /// Worst per-server violation ratio this period (over-utilized
    /// samples / period samples).
    pub max_violation_ratio: f64,
    /// VMs whose server changed relative to the previous period.
    pub migrations: usize,
    /// Number of PCP clusters this period (`None` for non-PCP
    /// policies). The paper reports 22 of 24 periods collapsing to one
    /// cluster.
    pub pcp_clusters: Option<usize>,
}

/// Per-server-class aggregates of a scenario run — how each slice of a
/// heterogeneous fleet contributed. A uniform scenario reports exactly
/// one breakdown whose totals equal the report's.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassBreakdown {
    /// Class display name (from the fleet configuration).
    pub name: String,
    /// Cores per server of this class.
    pub cores: f64,
    /// Servers the fleet provides in this class.
    pub servers_available: usize,
    /// Maximum servers of this class active in any period.
    pub peak_servers_used: usize,
    /// Energy integrated over this class's active servers.
    pub energy: EnergyMeter,
    /// Over-utilized (server, sample) instances on this class.
    pub violation_instances: usize,
    /// VM migrations whose *destination* server belongs to this class.
    pub migrations_in: usize,
    /// GHz value of each level of this class's *own* DVFS ladder — the
    /// axis of [`ClassBreakdown::freq_histogram`]. Unlike the
    /// report-wide union axis, a mixed-ladder fleet reads naturally
    /// here: every column is a level this class can actually run at.
    pub freq_levels_ghz: Vec<f64>,
    /// Per-class Fig 6 histogram: active (server, sample) instances of
    /// this class spent at each ladder level, summed over the class's
    /// servers. Total mass equals the class's share of the report-wide
    /// histogram mass.
    pub freq_histogram: Vec<u64>,
}

impl ClassBreakdown {
    /// Fraction of this class's active samples spent at each of its
    /// ladder levels, or `None` if the class was never active.
    pub fn freq_distribution(&self) -> Option<Vec<f64>> {
        let total: u64 = self.freq_histogram.iter().sum();
        if total == 0 {
            return None;
        }
        Some(
            self.freq_histogram
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect(),
        )
    }
}

/// The report's violation headline from its period records, in
/// percent: the worst and the mean per-period violation ratio.
pub(crate) fn violation_percents(periods: &[PeriodRecord]) -> (f64, f64) {
    let ratios = || periods.iter().map(|p| p.max_violation_ratio);
    let max = ratios().fold(0.0, f64::max);
    let mean = if periods.is_empty() {
        0.0
    } else {
        ratios().sum::<f64>() / periods.len() as f64
    };
    (max * 100.0, mean * 100.0)
}

/// Aggregated outcome of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Policy display name.
    pub policy: String,
    /// Whether dynamic DVFS was active.
    pub dynamic_dvfs: bool,
    /// Total energy over the run (normalize against a baseline's meter
    /// for Table II's "normalized power").
    pub energy: EnergyMeter,
    /// The paper's QoS metric: max over periods (and servers) of the
    /// per-period over-utilization ratio, in percent.
    pub max_violation_percent: f64,
    /// Mean over periods of the per-period worst violation ratio, in
    /// percent.
    pub mean_violation_percent: f64,
    /// Total over-utilized (server, sample) instances.
    pub violation_instances: usize,
    /// Per-period records.
    pub periods: Vec<PeriodRecord>,
    /// Per-server-class breakdowns, in fleet class order.
    pub classes: Vec<ClassBreakdown>,
    /// Frequency usage histogram: `freq_histogram[server][level]` =
    /// samples spent at that level of the fleet-wide frequency list
    /// (Fig 6). Servers that were never active have all-zero rows.
    pub freq_histogram: Vec<Vec<u64>>,
    /// GHz value of each histogram column: the sorted union of every
    /// class ladder's levels (a uniform fleet's own ladder,
    /// unchanged).
    pub freq_levels_ghz: Vec<f64>,
    /// VMs admitted through the incremental single-VM placement path
    /// (mid-period arrivals in an online run). Always 0 for a batch
    /// replay, where every VM exists from t = 0 and placement happens
    /// only at period boundaries.
    pub online_admissions: usize,
    /// Off-cycle re-packs fired by a fragmentation
    /// [`RepackTrigger`](crate::RepackTrigger) or a
    /// [`QosGuard`](crate::QosGuard). Always 0 under the default
    /// periodic schedule.
    pub offcycle_repacks: usize,
    /// Events a bounded [`Buffered`](crate::sink::Buffered) sink
    /// adapter dropped on queue overflow during the run. Always 0 when
    /// the stream was consumed unbuffered — the controller itself
    /// never drops events; only the adapter's bounded queue can.
    pub sink_dropped_events: u64,
    /// [`VmEvent::ServerFail`](crate::VmEvent) events processed over
    /// the session. Always 0 for a fault-free run.
    pub server_failures: usize,
    /// VMs moved onto an outliving server by emergency evacuations.
    /// Evacuees that had to wait in the deferred queue count as
    /// [`SimReport::online_admissions`] once they land instead.
    pub evacuations: usize,
    /// High-water mark of the degraded-mode deferred-admission queue.
    pub deferred_peak: usize,
}

impl SimReport {
    /// Fraction of samples a server spent at each level, or `None` for
    /// a never-active server.
    pub fn freq_distribution(&self, server: usize) -> Option<Vec<f64>> {
        let row = self.freq_histogram.get(server)?;
        let total: u64 = row.iter().sum();
        if total == 0 {
            return None;
        }
        Some(row.iter().map(|&c| c as f64 / total as f64).collect())
    }

    /// Maximum number of servers used in any period.
    pub fn peak_servers_used(&self) -> usize {
        self.periods
            .iter()
            .map(|p| p.servers_used)
            .max()
            .unwrap_or(0)
    }

    /// Total migrations across all period boundaries.
    pub fn total_migrations(&self) -> usize {
        self.periods.iter().map(|p| p.migrations).sum()
    }

    /// Number of periods in which PCP found a single cluster (the
    /// degeneration the paper reports); `None` for non-PCP runs.
    pub fn pcp_single_cluster_periods(&self) -> Option<usize> {
        let counts: Vec<usize> = self.periods.iter().filter_map(|p| p.pcp_clusters).collect();
        if counts.is_empty() {
            None
        } else {
            Some(counts.iter().filter(|&&c| c == 1).count())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            policy: "BFD".into(),
            dynamic_dvfs: false,
            energy: EnergyMeter::new(),
            max_violation_percent: 10.0,
            mean_violation_percent: 2.0,
            violation_instances: 5,
            periods: vec![
                PeriodRecord {
                    period: 0,
                    servers_used: 3,
                    max_violation_ratio: 0.1,
                    migrations: 0,
                    pcp_clusters: Some(1),
                },
                PeriodRecord {
                    period: 1,
                    servers_used: 5,
                    max_violation_ratio: 0.0,
                    migrations: 2,
                    pcp_clusters: Some(3),
                },
            ],
            classes: vec![ClassBreakdown {
                name: "uniform".into(),
                cores: 8.0,
                servers_available: 20,
                peak_servers_used: 5,
                energy: EnergyMeter::new(),
                violation_instances: 5,
                migrations_in: 2,
                freq_levels_ghz: vec![2.0, 2.3],
                freq_histogram: vec![10, 30],
            }],
            freq_histogram: vec![vec![10, 30], vec![0, 0]],
            freq_levels_ghz: vec![2.0, 2.3],
            online_admissions: 0,
            offcycle_repacks: 0,
            sink_dropped_events: 0,
            server_failures: 0,
            evacuations: 0,
            deferred_peak: 0,
        }
    }

    #[test]
    fn freq_distribution_normalizes() {
        let r = report();
        let d = r.freq_distribution(0).unwrap();
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
        assert_eq!(r.freq_distribution(1), None, "inactive server");
        assert_eq!(r.freq_distribution(9), None, "unknown server");
    }

    #[test]
    fn class_freq_distribution_normalizes() {
        let r = report();
        let d = r.classes[0].freq_distribution().unwrap();
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
        let mut idle = r.classes[0].clone();
        idle.freq_histogram = vec![0, 0];
        assert_eq!(idle.freq_distribution(), None);
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.peak_servers_used(), 5);
        assert_eq!(r.total_migrations(), 2);
        assert_eq!(r.pcp_single_cluster_periods(), Some(1));
        let mut no_pcp = r;
        for p in &mut no_pcp.periods {
            p.pcp_clusters = None;
        }
        assert_eq!(no_pcp.pcp_single_cluster_periods(), None);
    }
}
