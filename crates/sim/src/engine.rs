//! The batch replay driver — a thin convenience wrapper over the
//! online [`DatacenterController`].
//!
//! [`Scenario::run`] expresses the paper's closed-world replay in
//! lifecycle terms: every VM arrives at t = 0 with its full trace (or
//! per the scenario's [`Lifecycle`] when one is configured), the
//! controller ticks through the horizon, and a [`ReportSink`] collects
//! the terminal [`SimReport`]. The period-by-period semantics (Fig 2's
//! UPDATE/ALLOCATE at every t_period, per-class Eqn (4) frequency
//! planning, violation and energy accounting) live in
//! [`crate::controller`]; driven without a lifecycle this path is
//! bit-identical to the historical batch engine, which the
//! `fleet_regression` golden tests pin.
//!
//! [`Lifecycle`]: cavm_workload::lifecycle::Lifecycle

use crate::config::Scenario;
#[cfg(doc)]
use crate::config::ScenarioBuilder;
use crate::controller::{DatacenterController, MetricSink, ReportSink, VmEvent};
use crate::report::SimReport;
use crate::service::ScheduleLowering;
use crate::SimError;
use cavm_workload::faults::{FaultEntry, FaultKind};
use cavm_workload::lifecycle::LifecycleEntry;
use std::collections::BTreeSet;

impl Scenario {
    /// Opens an online [`DatacenterController`] with this scenario's
    /// knobs (fleet, policy, DVFS mode, period, reference, defaults).
    /// [`Scenario::run`] is exactly this controller driven by the
    /// scenario's lifecycle (or the all-at-t0 default).
    ///
    /// # Errors
    ///
    /// None in practice: [`ScenarioBuilder::build`] ran the
    /// controller's own validation on this very config, so a
    /// `Scenario` that exists can always open its controller. The
    /// `Result` is [`DatacenterController::new`]'s.
    pub fn controller(&self) -> crate::Result<DatacenterController> {
        DatacenterController::new(self.config.clone())
    }

    /// Runs the scenario to completion. Deterministic: identical
    /// scenarios produce identical reports.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InsufficientServers`] when a placement needs
    /// more servers than the fleet provides, and propagates
    /// trace/power/core errors.
    pub fn run(&self) -> crate::Result<SimReport> {
        let mut sink = ReportSink::new();
        self.run_with_sink(&mut sink)?;
        sink.into_report()
            .ok_or(SimError::InvalidParameter("scenario produced no report"))
    }

    /// Runs the scenario while streaming every period, migration,
    /// violation, admission and the terminal report through `sink`.
    ///
    /// # Errors
    ///
    /// As [`Scenario::run`].
    pub fn run_with_sink(&self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let mut controller = self.controller()?;

        // The event schedule: the configured lifecycle, or the
        // closed-world default (everything at t = 0, nothing departs).
        let closed_world: Vec<LifecycleEntry>;
        let entries: &[LifecycleEntry] = match &self.lifecycle {
            Some(lifecycle) => lifecycle.entries(),
            None => {
                closed_world = (0..self.fleet.len())
                    .map(|id| LifecycleEntry {
                        id,
                        arrival_sample: 0,
                        departure_sample: None,
                    })
                    .collect();
                &closed_world
            }
        };
        let mut faults = self
            .faults
            .as_ref()
            .map_or(&[][..], |p| p.entries())
            .iter()
            .peekable();
        // Servers currently down, as the engine has applied them. The
        // plan may legitimately schedule overlapping transitions (a
        // correlated outage over an independent failure); this set
        // keeps the injection idempotent. Transitions aimed at servers
        // the controller has not provisioned yet are skipped — a rack
        // that never powered on cannot fail.
        let mut down: BTreeSet<usize> = BTreeSet::new();

        // Per-sample delivery order: recoveries first (capacity returns
        // before this sample's churn), then the lowering's departures
        // and arrivals, failures, and finally the tick.
        let mut sample = 0usize;
        let mut sample_open = false;
        for event in ScheduleLowering::new(&self.fleet, entries, self.config.period_samples)? {
            let event = event?;
            if !sample_open {
                sample_open = true;
                while let Some(fault) =
                    faults.next_if(|f| f.sample == sample && f.kind == FaultKind::Recover)
                {
                    if down.remove(&fault.server) {
                        let server = fault.server;
                        controller.apply(VmEvent::ServerRecover { server }, sink)?;
                    }
                }
            }
            if matches!(event, VmEvent::Tick) {
                while let Some(&FaultEntry { kind, server, .. }) =
                    faults.next_if(|f| f.sample == sample)
                {
                    match kind {
                        FaultKind::Fail => {
                            if !down.contains(&server)
                                && server < controller.placement().server_count()
                            {
                                controller.apply(VmEvent::ServerFail { server }, sink)?;
                                down.insert(server);
                            }
                        }
                        // A same-sample Recover after a Fail (builder
                        // plans rank recoveries first, but hand-built
                        // plans may not) still applies.
                        FaultKind::Recover => {
                            if down.remove(&server) {
                                controller.apply(VmEvent::ServerRecover { server }, sink)?;
                            }
                        }
                    }
                }
                sample += 1;
                sample_open = false;
            }
            controller.apply(event, sink)?;
        }
        controller.finish(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Policy;
    use crate::ScenarioBuilder;
    use cavm_core::dvfs::DvfsMode;
    use cavm_core::fleet::{ServerClass, ServerFleet};
    use cavm_power::LinearPowerModel;
    use cavm_workload::datacenter::DatacenterTraceBuilder;

    fn fleet(vms: usize, hours: f64, seed: u64) -> cavm_workload::datacenter::VmFleet {
        DatacenterTraceBuilder::new(vms)
            .groups((vms / 3).max(1))
            .seed(seed)
            .duration_hours(hours)
            .build()
            .unwrap()
    }

    fn run(policy: Policy, mode: DvfsMode) -> SimReport {
        ScenarioBuilder::new(fleet(9, 4.0, 5))
            .servers(12)
            .policy(policy)
            .dvfs_mode(mode)
            .build()
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn run_is_deterministic() {
        let a = run(Policy::Bfd, DvfsMode::Static);
        let b = run(Policy::Bfd, DvfsMode::Static);
        assert_eq!(a, b);
    }

    #[test]
    fn all_policies_complete() {
        for policy in [
            Policy::Bfd,
            Policy::Ffd,
            Policy::Pcp {
                envelope_percentile: 90.0,
                affinity_threshold: 0.2,
            },
            Policy::Proposed(Default::default()),
        ] {
            let r = run(policy, DvfsMode::Static);
            assert_eq!(r.policy, policy.name());
            assert!(r.energy.joules() > 0.0, "{}", r.policy);
            assert_eq!(r.periods.len(), 4, "{}", r.policy);
            assert!((0.0..=100.0).contains(&r.max_violation_percent));
            assert!(r.mean_violation_percent <= r.max_violation_percent + 1e-9);
            assert_eq!(
                r.online_admissions, 0,
                "{}: batch runs never admit",
                r.policy
            );
        }
    }

    #[test]
    fn uniform_breakdown_matches_totals() {
        let r = run(Policy::Proposed(Default::default()), DvfsMode::Static);
        assert_eq!(r.classes.len(), 1);
        let c = &r.classes[0];
        assert_eq!(c.name, "uniform");
        assert_eq!(c.cores, 8.0);
        assert_eq!(c.servers_available, 12);
        assert_eq!(c.peak_servers_used, r.peak_servers_used());
        assert_eq!(c.energy, r.energy);
        assert_eq!(c.violation_instances, r.violation_instances);
        assert_eq!(c.migrations_in, r.total_migrations());
        // The one class's own histogram carries the whole union mass.
        assert_eq!(c.freq_levels_ghz, r.freq_levels_ghz);
        let class_mass: u64 = c.freq_histogram.iter().sum();
        let union_mass: u64 = r.freq_histogram.iter().flatten().sum();
        assert_eq!(class_mass, union_mass);
    }

    #[test]
    fn dynamic_mode_runs_and_flags_report() {
        let r = run(
            Policy::Bfd,
            DvfsMode::Dynamic {
                interval_samples: 12,
            },
        );
        assert!(r.dynamic_dvfs);
        let s = run(Policy::Bfd, DvfsMode::Static);
        assert!(!s.dynamic_dvfs);
    }

    #[test]
    fn proposed_uses_no_more_energy_than_bfd_static() {
        // The headline Table II(a) direction.
        let bfd = run(Policy::Bfd, DvfsMode::Static);
        let prop = run(Policy::Proposed(Default::default()), DvfsMode::Static);
        let ratio = prop.energy.normalized_to(&bfd.energy).unwrap();
        assert!(ratio <= 1.02, "proposed/bfd energy ratio {ratio}");
    }

    #[test]
    fn frequency_histogram_accounts_every_active_sample() {
        let r = run(Policy::Bfd, DvfsMode::Static);
        let total: u64 = r.freq_histogram.iter().flatten().sum();
        let expected: u64 = r
            .periods
            .iter()
            .map(|p| (p.servers_used * 720) as u64)
            .sum();
        assert_eq!(total, expected);
        assert_eq!(r.freq_levels_ghz, vec![2.0, 2.3]);
        // Per-class histograms carry the same mass, split by class.
        let class_total: u64 = r.classes.iter().flat_map(|c| c.freq_histogram.iter()).sum();
        assert_eq!(class_total, total);
    }

    #[test]
    fn pcp_reports_cluster_counts() {
        let r = run(
            Policy::Pcp {
                envelope_percentile: 90.0,
                affinity_threshold: 0.15,
            },
            DvfsMode::Static,
        );
        for p in &r.periods {
            assert!(p.pcp_clusters.is_some());
        }
        assert!(r.pcp_single_cluster_periods().is_some());
    }

    #[test]
    fn insufficient_servers_is_detected() {
        let err = ScenarioBuilder::new(fleet(12, 2.0, 3))
            .servers(1)
            .cores_per_server(2)
            .default_demand(2.0)
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::InsufficientServers { .. }));
    }

    #[test]
    fn migrations_are_counted_between_periods() {
        let r = run(Policy::Proposed(Default::default()), DvfsMode::Static);
        assert_eq!(
            r.periods[0].migrations, 0,
            "first period has no predecessor"
        );
        // Subsequent periods may migrate; totals must be consistent.
        assert_eq!(
            r.total_migrations(),
            r.periods.iter().map(|p| p.migrations).sum::<usize>()
        );
    }

    #[test]
    fn first_period_uses_default_demand() {
        // With an absurd default demand every VM gets its own server in
        // period 0.
        let r = ScenarioBuilder::new(fleet(4, 2.0, 7))
            .servers(8)
            .default_demand(7.9)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.periods[0].servers_used, 4);
        // Later periods use observed (much smaller) demands.
        assert!(r.periods[1].servers_used < 4);
    }

    #[test]
    fn streamed_metrics_agree_with_the_report() {
        let scenario = ScenarioBuilder::new(fleet(9, 4.0, 5))
            .servers(12)
            .policy(Policy::Proposed(Default::default()))
            .build()
            .unwrap();
        let mut sink = ReportSink::new();
        scenario.run_with_sink(&mut sink).unwrap();
        let streamed_periods = sink.periods().to_vec();
        let streamed_migrations = sink.migrations();
        let streamed_violations = sink.violations();
        let report = sink.into_report().unwrap();
        assert_eq!(streamed_periods, report.periods);
        assert_eq!(streamed_migrations, report.total_migrations());
        assert_eq!(streamed_violations, report.violation_instances);
    }

    #[test]
    fn heterogeneous_scenario_reports_per_class_breakdowns() {
        let xeon = LinearPowerModel::xeon_e5410;
        let hetero = ServerFleet::new(vec![
            ServerClass::new("quad", 8, 4.0, xeon().scaled(0.6).unwrap()).unwrap(),
            ServerClass::new("octo", 6, 8.0, xeon()).unwrap(),
            ServerClass::new("hexadeca", 2, 16.0, xeon().scaled(1.9).unwrap()).unwrap(),
        ])
        .unwrap();
        for policy in [
            Policy::Bfd,
            Policy::Ffd,
            Policy::Pcp {
                envelope_percentile: 90.0,
                affinity_threshold: 0.2,
            },
            Policy::Proposed(Default::default()),
            Policy::SuperVm {
                min_pair_cost: 1.25,
            },
        ] {
            let r = ScenarioBuilder::new(fleet(9, 2.0, 5))
                .server_fleet(hetero.clone())
                .policy(policy)
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(r.classes.len(), 3, "{}", r.policy);
            // The 16-core boxes fill first, so they must be active.
            assert!(r.classes[2].peak_servers_used >= 1, "{}", r.policy);
            // Per-class totals reassemble the run totals.
            let class_joules: f64 = r.classes.iter().map(|c| c.energy.joules()).sum();
            assert!(
                (class_joules - r.energy.joules()).abs() < 1e-6,
                "{}: class energies {} vs total {}",
                r.policy,
                class_joules,
                r.energy.joules()
            );
            let class_violations: usize = r.classes.iter().map(|c| c.violation_instances).sum();
            assert_eq!(class_violations, r.violation_instances, "{}", r.policy);
            let class_migrations: usize = r.classes.iter().map(|c| c.migrations_in).sum();
            assert_eq!(class_migrations, r.total_migrations(), "{}", r.policy);
            // The histogram axis is the union ladder (one per class
            // here, all sharing 2.0/2.3 GHz).
            assert_eq!(r.freq_levels_ghz, vec![2.0, 2.3], "{}", r.policy);
            // Per-class histogram masses reassemble the union mass.
            let union_mass: u64 = r.freq_histogram.iter().flatten().sum();
            let class_mass: u64 = r.classes.iter().flat_map(|c| c.freq_histogram.iter()).sum();
            assert_eq!(class_mass, union_mass, "{}", r.policy);
        }
    }
}
