//! Declarative experiment grids: every evaluation in this workspace is
//! a cross-product of the same few axes, so build the grid once and
//! let one runner walk it.
//!
//! A [`SweepGrid`] is the cross-product of
//!
//! * **workloads** — a [`WorkloadCase`] per scenario input (closed
//!   fleet, open lifecycle, or anything behind the
//!   [`TraceDataset`] surface),
//! * **fault cases** — optional [`FaultPlan`]s,
//! * **server counts**,
//! * **policies**,
//! * **re-pack [`Schedule`]s** (trigger + optional QoS guard +
//!   optional adaptive-slack bound), and
//! * **DVFS modes**,
//!
//! and [`SweepGrid::run`] replays every cell through
//! [`ScenarioBuilder`], yielding one labelled [`SweepRow`] per cell in
//! a documented deterministic order (workload-major, then faults,
//! servers, policy, schedule, DVFS-minor). The `online`, `faults` and
//! `trace` sections of `cavm-exp` are thin formatters over these rows.
//!
//! # Example
//!
//! ```
//! use cavm_bench::sweep::{Schedule, SweepGrid, WorkloadCase};
//! use cavm_sim::Policy;
//! use cavm_workload::DatacenterTraceBuilder;
//!
//! # fn main() -> Result<(), cavm_sim::SimError> {
//! let fleet = DatacenterTraceBuilder::new(6).seed(1).duration_hours(1.0).build()?;
//! let rows = SweepGrid::over(vec![WorkloadCase::closed("tiny", fleet)])
//!     .servers(vec![6])
//!     .policies(vec![Policy::Bfd, Policy::Proposed(Default::default())])
//!     .period_samples(360)
//!     .run()?;
//! assert_eq!(rows.len(), 2);
//! assert!(rows[1].report.energy.joules() <= rows[0].report.energy.joules() * 1.5);
//! # Ok(())
//! # }
//! ```

use cavm_core::dvfs::DvfsMode;
use cavm_sim::{
    OvercommitConfig, Policy, QosGuard, RepackTrigger, ScenarioBuilder, SimError, SimReport,
};
use cavm_workload::datacenter::VmFleet;
use cavm_workload::dataset::{assemble, TraceDataset};
use cavm_workload::faults::FaultPlan;
use cavm_workload::lifecycle::Lifecycle;

/// One re-pack schedule: a trigger plus the optional QoS guard and
/// adaptive-slack bound composed onto it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Stable display name (used in reports and artifacts).
    pub name: &'static str,
    /// When the live placement is re-packed.
    pub trigger: RepackTrigger,
    /// QoS guard composed onto the trigger, if any.
    pub guard: Option<QosGuard>,
    /// Adaptive-slack upper bound, if the slack controller is on.
    pub slack_max: Option<u32>,
    /// Deliberate correlation-gap overcommit margins, if on (requires
    /// a guard).
    pub overcommit: Option<OvercommitConfig>,
}

impl Schedule {
    /// The paper's periodic-only re-pack clock.
    pub fn periodic() -> Self {
        Schedule {
            name: "periodic",
            trigger: RepackTrigger::Periodic,
            guard: None,
            slack_max: None,
            overcommit: None,
        }
    }

    /// The five canonical schedules of the adaptive-consolidation
    /// comparison: `periodic`, `fragmentation`, `guarded`
    /// (fragmentation + QoS guard), `hybrid`, and `hybrid-adaptive`
    /// (hybrid + the `SlackController` walking slack up to
    /// `slack_max`).
    pub fn standard(slack: u32, guard: QosGuard, slack_max: u32) -> [Schedule; 5] {
        [
            Schedule::periodic(),
            Schedule {
                name: "fragmentation",
                trigger: RepackTrigger::Fragmentation { slack },
                guard: None,
                slack_max: None,
                overcommit: None,
            },
            Schedule {
                name: "guarded",
                trigger: RepackTrigger::Fragmentation { slack },
                guard: Some(guard),
                slack_max: None,
                overcommit: None,
            },
            Schedule {
                name: "hybrid",
                trigger: RepackTrigger::Hybrid { slack },
                guard: None,
                slack_max: None,
                overcommit: None,
            },
            Schedule {
                name: "hybrid-adaptive",
                trigger: RepackTrigger::Hybrid { slack },
                guard: None,
                slack_max: Some(slack_max),
                overcommit: None,
            },
        ]
    }

    /// The guarded hybrid clock the fault-tolerance experiments run
    /// under: hybrid trigger, QoS guard on, adaptive slack bounded.
    pub fn guarded_hybrid(slack: u32, guard: QosGuard, slack_max: u32) -> Self {
        Schedule {
            name: "guarded-hybrid",
            trigger: RepackTrigger::Hybrid { slack },
            guard: Some(guard),
            slack_max: Some(slack_max),
            overcommit: None,
        }
    }

    /// The guarded fragmentation clock with deliberate
    /// correlation-gap overcommit on top: servers admit past plain
    /// capacity by an adaptive per-class margin when the Eqn (2) pair
    /// costs say the peaks anti-align, with the QoS guard as the
    /// reactive backstop.
    pub fn guarded_overcommit(slack: u32, guard: QosGuard, margin: f64, max_margin: f64) -> Self {
        Schedule {
            name: "guarded-overcommit",
            trigger: RepackTrigger::Fragmentation { slack },
            guard: Some(guard),
            slack_max: None,
            overcommit: Some(OvercommitConfig { margin, max_margin }),
        }
    }

    /// Composes this schedule onto a scenario builder.
    pub fn apply(&self, builder: ScenarioBuilder) -> ScenarioBuilder {
        let mut builder = builder.repack_trigger(self.trigger);
        if let Some(guard) = self.guard {
            builder = builder.qos_guard(guard);
        }
        if let Some(max) = self.slack_max {
            builder = builder.adaptive_slack_max(max);
        }
        if let Some(oc) = self.overcommit {
            builder = builder.overcommit(oc.margin, oc.max_margin);
        }
        builder
    }
}

/// One workload axis entry: a fleet plus (for open systems) its
/// arrival/departure schedule.
#[derive(Debug, Clone)]
pub struct WorkloadCase {
    /// Stable display name (used in reports and artifacts).
    pub name: String,
    /// The VM demand traces.
    pub fleet: VmFleet,
    /// The lease schedule; `None` replays the closed-world batch
    /// setting.
    pub lifecycle: Option<Lifecycle>,
}

impl WorkloadCase {
    /// Closed-world batch case: every VM exists for the whole horizon.
    pub fn closed(name: impl Into<String>, fleet: VmFleet) -> Self {
        WorkloadCase {
            name: name.into(),
            fleet,
            lifecycle: None,
        }
    }

    /// Open-system case: VMs lease in and out per `lifecycle`.
    pub fn open(name: impl Into<String>, fleet: VmFleet, lifecycle: Lifecycle) -> Self {
        WorkloadCase {
            name: name.into(),
            fleet,
            lifecycle: Some(lifecycle),
        }
    }

    /// Drains any [`TraceDataset`] — a real-trace reader or a
    /// synthetic generator — into an open-system case.
    pub fn dataset<D>(name: impl Into<String>, dataset: &mut D) -> Result<Self, SimError>
    where
        D: TraceDataset + ?Sized,
    {
        let (fleet, lifecycle) = assemble(dataset)?;
        Ok(WorkloadCase::open(name, fleet, lifecycle))
    }
}

/// One fault axis entry.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// Stable display name (used in reports and artifacts).
    pub name: String,
    /// The failure schedule; `None` runs fault-free.
    pub plan: Option<FaultPlan>,
}

impl FaultCase {
    /// The fault-free case.
    pub fn none() -> Self {
        FaultCase {
            name: "fault-free".into(),
            plan: None,
        }
    }

    /// A named failure schedule.
    pub fn plan(name: impl Into<String>, plan: FaultPlan) -> Self {
        FaultCase {
            name: name.into(),
            plan: Some(plan),
        }
    }
}

/// The coordinates of one grid cell, handed to the per-cell callback
/// of [`SweepGrid::run_with`] alongside its finished report.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell<'a> {
    /// Workload axis entry.
    pub workload: &'a WorkloadCase,
    /// Fault axis entry.
    pub faults: &'a FaultCase,
    /// Server-count axis entry.
    pub servers: usize,
    /// Policy axis entry.
    pub policy: &'a Policy,
    /// Schedule axis entry.
    pub schedule: &'a Schedule,
    /// DVFS axis entry.
    pub dvfs: DvfsMode,
}

/// One finished grid cell: its axis labels plus the run's report.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// [`WorkloadCase::name`] of the cell.
    pub workload: String,
    /// [`FaultCase::name`] of the cell.
    pub fault_case: String,
    /// Server count of the cell.
    pub servers: usize,
    /// [`Policy::name`] of the cell.
    pub policy: &'static str,
    /// [`Schedule::name`] of the cell.
    pub schedule: &'static str,
    /// The run's aggregated outcome.
    pub report: SimReport,
}

/// A declarative experiment grid; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct SweepGrid {
    workloads: Vec<WorkloadCase>,
    faults: Vec<FaultCase>,
    servers: Vec<usize>,
    policies: Vec<Policy>,
    schedules: Vec<Schedule>,
    dvfs: Vec<DvfsMode>,
    period_samples: Option<usize>,
}

impl SweepGrid {
    /// Starts a grid over the given workloads. Every other axis
    /// defaults to a singleton: fault-free, 20 servers, BFD, the
    /// periodic schedule, static DVFS.
    pub fn over(workloads: Vec<WorkloadCase>) -> Self {
        SweepGrid {
            workloads,
            faults: vec![FaultCase::none()],
            servers: vec![20],
            policies: vec![Policy::Bfd],
            schedules: vec![Schedule::periodic()],
            dvfs: vec![DvfsMode::Static],
            period_samples: None,
        }
    }

    /// Fault axis.
    pub fn faults(mut self, faults: Vec<FaultCase>) -> Self {
        self.faults = faults;
        self
    }

    /// Server-count axis.
    pub fn servers(mut self, servers: Vec<usize>) -> Self {
        self.servers = servers;
        self
    }

    /// Policy axis.
    pub fn policies(mut self, policies: Vec<Policy>) -> Self {
        self.policies = policies;
        self
    }

    /// Schedule axis.
    pub fn schedules(mut self, schedules: Vec<Schedule>) -> Self {
        self.schedules = schedules;
        self
    }

    /// DVFS axis.
    pub fn dvfs(mut self, dvfs: Vec<DvfsMode>) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Overrides the placement period for every cell (default: the
    /// scenario builder's paper-canonical 720 samples).
    pub fn period_samples(mut self, samples: usize) -> Self {
        self.period_samples = Some(samples);
        self
    }

    /// Number of cells the grid will run.
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.faults.len()
            * self.servers.len()
            * self.policies.len()
            * self.schedules.len()
            * self.dvfs.len()
    }

    /// `true` when some axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every cell, returning one labelled row per cell.
    pub fn run(&self) -> Result<Vec<SweepRow>, SimError> {
        self.run_with(|_, _| {})
    }

    /// Runs every cell, invoking `each` with the cell's coordinates
    /// and report as it completes (progress printing, per-cell
    /// asserts). Iteration order is workload-major: workloads, then
    /// faults, servers, policies, schedules, DVFS-minor.
    pub fn run_with<F>(&self, mut each: F) -> Result<Vec<SweepRow>, SimError>
    where
        F: FnMut(&SweepCell<'_>, &SimReport),
    {
        let mut rows = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for faults in &self.faults {
                for &servers in &self.servers {
                    for policy in &self.policies {
                        for schedule in &self.schedules {
                            for &dvfs in &self.dvfs {
                                let cell = SweepCell {
                                    workload,
                                    faults,
                                    servers,
                                    policy,
                                    schedule,
                                    dvfs,
                                };
                                let report = self.run_cell(&cell)?;
                                each(&cell, &report);
                                rows.push(SweepRow {
                                    workload: workload.name.clone(),
                                    fault_case: faults.name.clone(),
                                    servers,
                                    policy: policy.name(),
                                    schedule: schedule.name,
                                    report,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(rows)
    }

    fn run_cell(&self, cell: &SweepCell<'_>) -> Result<SimReport, SimError> {
        let mut builder = ScenarioBuilder::new(cell.workload.fleet.clone())
            .servers(cell.servers)
            .policy(*cell.policy)
            .dvfs_mode(cell.dvfs);
        if let Some(lifecycle) = &cell.workload.lifecycle {
            builder = builder.lifecycle(lifecycle.clone());
        }
        builder = cell.schedule.apply(builder);
        if let Some(plan) = &cell.faults.plan {
            builder = builder.faults(plan.clone());
        }
        if let Some(period) = self.period_samples {
            builder = builder.period_samples(period);
        }
        builder.build()?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavm_workload::lifecycle::{ArrivalProcess, LifecycleBuilder, LifetimeModel};
    use cavm_workload::DatacenterTraceBuilder;

    fn fleet(vms: usize) -> VmFleet {
        DatacenterTraceBuilder::new(vms)
            .groups(2)
            .seed(5)
            .duration_hours(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_rows_match_hand_rolled_loops_exactly() {
        let fleet = fleet(6);
        let horizon = fleet.vms()[0].fine.len();
        let lifecycle = LifecycleBuilder::new(6, horizon)
            .seed(5)
            .arrivals(ArrivalProcess::Poisson {
                mean_gap_samples: 60.0,
            })
            .lifetimes(LifetimeModel::Uniform {
                min_samples: 120,
                max_samples: 480,
            })
            .build()
            .unwrap();
        let policies = [Policy::Bfd, Policy::Proposed(Default::default())];
        let schedule = Schedule::standard(
            1,
            QosGuard {
                violation_ratio: 0.08,
            },
            4,
        )[2];

        // The hand-rolled loop every exp binary used to carry.
        let expected: Vec<SimReport> = policies
            .iter()
            .map(|&policy| {
                schedule
                    .apply(
                        ScenarioBuilder::new(fleet.clone())
                            .servers(6)
                            .policy(policy)
                            .dvfs_mode(DvfsMode::Static)
                            .lifecycle(lifecycle.clone())
                            .period_samples(360),
                    )
                    .build()
                    .unwrap()
                    .run()
                    .unwrap()
            })
            .collect();

        let mut seen = 0;
        let rows = SweepGrid::over(vec![WorkloadCase::open("churn", fleet, lifecycle)])
            .servers(vec![6])
            .policies(policies.to_vec())
            .schedules(vec![schedule])
            .period_samples(360)
            .run_with(|cell, report| {
                assert_eq!(cell.schedule.name, "guarded");
                assert!(report.energy.joules() > 0.0);
                seen += 1;
            })
            .unwrap();
        assert_eq!(seen, 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].policy, "BFD");
        assert_eq!(rows[1].policy, "Proposed");
        for (row, expected) in rows.iter().zip(&expected) {
            assert_eq!(&row.report, expected, "grid must reproduce the loop");
        }
    }

    #[test]
    fn axis_order_is_policy_major_over_schedules() {
        let rows = SweepGrid::over(vec![WorkloadCase::closed("batch", fleet(4))])
            .servers(vec![4])
            .policies(vec![Policy::Bfd, Policy::Ffd])
            .schedules(vec![
                Schedule::periodic(),
                Schedule {
                    name: "hybrid",
                    trigger: RepackTrigger::Hybrid { slack: 1 },
                    guard: None,
                    slack_max: None,
                    overcommit: None,
                },
            ])
            .period_samples(360)
            .run()
            .unwrap();
        let order: Vec<(&str, &str)> = rows.iter().map(|r| (r.policy, r.schedule)).collect();
        assert_eq!(
            order,
            [
                ("BFD", "periodic"),
                ("BFD", "hybrid"),
                ("FFD", "periodic"),
                ("FFD", "hybrid"),
            ]
        );
    }

    #[test]
    fn empty_axis_runs_nothing() {
        let grid = SweepGrid::over(vec![]).policies(vec![Policy::Bfd]);
        assert!(grid.is_empty());
        assert!(grid.run().unwrap().is_empty());
    }
}
