//! Session configuration ([`Policy`], [`ControllerConfig`] and its
//! validator) and the scenario description and builder around it.

#[cfg(doc)]
use crate::controller::DatacenterController;
use crate::feedback::{OvercommitConfig, QosGuard, RepackTrigger};
#[cfg(doc)]
use crate::feedback::{OvercommitController, SlackController};
use crate::SimError;
use cavm_core::alloc::proposed::{ProposedConfig, ProposedPolicy};
use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_trace::Reference;
use cavm_workload::datacenter::VmFleet;
use cavm_workload::faults::FaultPlan;
use cavm_workload::lifecycle::Lifecycle;

/// Which placement policy drives the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Best-Fit-Decreasing (the Table II baseline and normalization
    /// reference).
    Bfd,
    /// First-Fit-Decreasing.
    Ffd,
    /// Peak Clustering-based Placement (Verma et al. \[6\]); re-clustered
    /// every period from the previous period's traces.
    Pcp {
        /// Envelope threshold percentile (Verma's off-peak value; the
        /// paper's experiments use the 90th).
        envelope_percentile: f64,
        /// Minimum envelope containment for two VMs to join a cluster.
        affinity_threshold: f64,
    },
    /// The paper's correlation-aware heuristic plus Eqn (4) frequency
    /// scaling.
    Proposed(ProposedConfig),
    /// Joint-VM sizing (Meng et al. \[7\]): un-correlated VMs fused into
    /// super-VMs once per period, then packed with BFD. Fused pairs get
    /// a joint size below their peak sum, so the placement overcommits
    /// relative to coincident peaks; frequency stays worst-case (the
    /// scheme has no per-server correlation model to discount with).
    SuperVm {
        /// Minimum pair cost (Eqn 1) for fusing two VMs.
        min_pair_cost: f64,
    },
}

impl Policy {
    /// Stable display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Bfd => "BFD",
            Policy::Ffd => "FFD",
            Policy::Pcp { .. } => "PCP",
            Policy::Proposed(_) => "Proposed",
            Policy::SuperVm { .. } => "SuperVM",
        }
    }

    /// Whether this policy may discount the frequency by the server
    /// cost (Eqn 4). Only the proposed policy has the correlation
    /// knowledge to do so safely.
    pub fn correlation_aware_frequency(&self) -> bool {
        matches!(self, Policy::Proposed(_))
    }
}

/// Static configuration of a controller session — the scenario knobs
/// minus the trace fleet (traces arrive with the VMs).
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// The server fleet to place onto. Must be bounded.
    pub server_fleet: ServerFleet,
    /// Placement policy (periodic re-packs *and* the incremental
    /// admission rule).
    pub policy: Policy,
    /// When the live placement is re-packed (default:
    /// [`RepackTrigger::Periodic`], the paper's fixed schedule).
    pub repack_trigger: RepackTrigger,
    /// The QoS dimension of the re-pack schedule: fire an off-cycle
    /// re-pack when the observed worst per-server violation ratio of
    /// the running period exceeds the guard's threshold, and
    /// force-repack overcommitted servers at placement-keeping period
    /// boundaries. `None` (the default) disables both checks.
    pub qos_guard: Option<QosGuard>,
    /// Upper bound for the adaptive fragmentation slack: when set, a
    /// [`SlackController`] walks the slack between the trigger's
    /// configured value and this bound from each fired re-pack's
    /// realized servers-freed-per-migration gain. Requires a trigger
    /// with a fragmentation dimension; `None` keeps the slack static.
    pub adaptive_slack_max: Option<u32>,
    /// Deliberate correlation-gap overcommit: when set, admission and
    /// re-packs accept predicted per-VM sums up to `capacity × (1 +
    /// margin)` on servers whose Eqn (1) coincident estimate stays
    /// within plain capacity, with a per-class
    /// [`OvercommitController`] walking the live margin from observed
    /// violation ratios. Requires a configured [`qos_guard`] (the
    /// reactive backstop); suspended in degraded mode. `None` (the
    /// default) keeps every margin at zero — bit-identical to the
    /// margin-free controller.
    ///
    /// [`qos_guard`]: ControllerConfig::qos_guard
    pub overcommit: Option<OvercommitConfig>,
    /// Static or dynamic frequency scaling.
    pub dvfs_mode: DvfsMode,
    /// Samples per placement period.
    pub period_samples: usize,
    /// Reference utilization for provisioning.
    pub reference: Reference,
    /// Relative headroom of the dynamic governor.
    pub dynamic_headroom: f64,
    /// Demand assumed for a VM before its first observed period — also
    /// the provisioning used to admit a brand-new arrival.
    pub default_demand: f64,
    /// Monitoring sample interval, seconds (the energy-integration dt).
    pub sample_dt_s: f64,
    /// Capacity of the degraded-mode deferred-admission queue: how
    /// many live-but-unplaceable VMs the controller will hold and
    /// retry (each tick, at every recovery and at period boundaries)
    /// after server failures shrink the fleet. An event that would
    /// overflow the queue is rejected atomically with
    /// [`SimError::DeferredQueueFull`]. Must be at least 1.
    pub max_deferred: usize,
}

impl ControllerConfig {
    /// Whether anything in this session reads a pair cost out of the
    /// period `M_cost`: the proposed policy (the Eqn 2/3 candidate
    /// scans and the Eqn 4 frequency), SuperVM's joint sizing, and —
    /// under any policy — the correlation-gap margin of deliberate
    /// overcommit. BFD, FFD and PCP without overcommit pack by demand
    /// and envelopes alone, so their sessions skip the fill at the
    /// period close and keep the empty, all-neutral matrix.
    pub(crate) fn reads_pair_costs(&self) -> bool {
        matches!(self.policy, Policy::Proposed(_) | Policy::SuperVm { .. })
            || self.overcommit.is_some()
    }

    /// The one owner of every knob rule: [`DatacenterController::new`]
    /// and [`ScenarioBuilder::build`](crate::ScenarioBuilder::build)
    /// both call it, so neither accepts what the other rejects.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        if self.server_fleet.total_slots().is_none() {
            return Err(SimError::InvalidParameter(
                "controller fleets must be bounded (no UNBOUNDED classes)",
            ));
        }
        if self.period_samples == 0 {
            return Err(SimError::InvalidParameter(
                "period must be at least one sample",
            ));
        }
        if self.repack_trigger.slack() == Some(0) {
            // Slack 0 would fire on every armed tick regardless of
            // fragmentation — a busy-loop, not a trigger.
            return Err(SimError::InvalidParameter(
                "fragmentation slack must be at least one server",
            ));
        }
        if let Some(guard) = self.qos_guard {
            if !(guard.violation_ratio.is_finite()
                && guard.violation_ratio > 0.0
                && guard.violation_ratio <= 1.0)
            {
                return Err(SimError::InvalidParameter(
                    "qos guard violation ratio must lie in (0, 1]",
                ));
            }
        }
        if let Some(max) = self.adaptive_slack_max {
            match self.repack_trigger.slack() {
                None => {
                    return Err(SimError::InvalidParameter(
                        "adaptive slack requires a trigger with a fragmentation dimension",
                    ))
                }
                Some(slack) if max < slack => {
                    return Err(SimError::InvalidParameter(
                        "adaptive slack bound must be at least the trigger's slack",
                    ))
                }
                Some(_) => {}
            }
        }
        if let Some(oc) = self.overcommit {
            if self.qos_guard.is_none() {
                return Err(SimError::InvalidParameter(
                    "deliberate overcommit requires a qos guard as its reactive backstop",
                ));
            }
            if !(oc.max_margin.is_finite() && oc.max_margin > 0.0 && oc.max_margin <= 1.0) {
                return Err(SimError::InvalidParameter(
                    "overcommit max margin must lie in (0, 1]",
                ));
            }
            if !(oc.margin.is_finite() && oc.margin >= 0.0 && oc.margin <= oc.max_margin) {
                return Err(SimError::InvalidParameter(
                    "overcommit margin must lie in [0, max_margin]",
                ));
            }
        }
        if !(self.dynamic_headroom.is_finite() && self.dynamic_headroom >= 0.0) {
            return Err(SimError::InvalidParameter("dynamic headroom must be >= 0"));
        }
        if !(self.default_demand.is_finite() && self.default_demand > 0.0) {
            return Err(SimError::InvalidParameter("default demand must be > 0"));
        }
        if !(self.sample_dt_s.is_finite() && self.sample_dt_s > 0.0) {
            return Err(SimError::InvalidParameter(
                "sample interval must be finite and > 0",
            ));
        }
        if self.max_deferred == 0 {
            return Err(SimError::InvalidParameter(
                "deferred-admission queue needs at least one slot",
            ));
        }
        if let Policy::Proposed(config) = self.policy {
            // Surface a bad tuning at session construction, not at the
            // first period boundary (or, worse, silently at an
            // incremental admit).
            ProposedPolicy::new(config).map_err(SimError::Core)?;
        }
        if let Policy::Pcp {
            envelope_percentile,
            affinity_threshold,
        } = self.policy
        {
            if !(0.0 < envelope_percentile && envelope_percentile < 100.0) {
                return Err(SimError::InvalidParameter(
                    "pcp envelope percentile must lie in (0, 100)",
                ));
            }
            if !(0.0..=1.0).contains(&affinity_threshold) {
                return Err(SimError::InvalidParameter(
                    "pcp affinity threshold must lie in [0, 1]",
                ));
            }
        }
        if let Policy::SuperVm { min_pair_cost } = self.policy {
            if !min_pair_cost.is_finite() {
                return Err(SimError::InvalidParameter(
                    "super-vm pair-cost threshold must be finite",
                ));
            }
        }
        if let DvfsMode::Dynamic { interval_samples } = self.dvfs_mode {
            if interval_samples == 0 {
                return Err(SimError::InvalidParameter(
                    "dynamic interval must be >= 1 sample",
                ));
            }
        }
        Ok(())
    }
}

/// A fully-specified, validated simulation scenario: a
/// [`ControllerConfig`] plus the inputs it is run over — the trace
/// fleet and the optional arrival/departure and fault schedules.
///
/// Build with [`ScenarioBuilder`]; run with [`Scenario::run`].
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) fleet: VmFleet,
    pub(crate) config: ControllerConfig,
    pub(crate) lifecycle: Option<Lifecycle>,
    pub(crate) faults: Option<FaultPlan>,
}

impl Scenario {
    /// The session knobs (server fleet, policy, re-pack schedule, DVFS
    /// mode, period, reference, defaults), as validated by
    /// [`ScenarioBuilder::build`].
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Samples per placement period.
    pub fn period_samples(&self) -> usize {
        self.config.period_samples
    }

    /// The arrival/departure schedule, or `None` for the closed-world
    /// batch replay.
    pub fn lifecycle(&self) -> Option<&Lifecycle> {
        self.lifecycle.as_ref()
    }

    /// The server fault schedule, or `None` for a fault-free replay.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// An owned copy of [`Scenario::config`] — what
    /// [`Scenario::controller`] opens a session with. Useful to seed a
    /// [`SessionHost`](crate::service::SessionHost) with many
    /// identically-configured (or per-tenant varied) sessions.
    pub fn controller_config(&self) -> ControllerConfig {
        self.config.clone()
    }
}

/// Cores of every server in a [`ScenarioBuilder`]'s uniform fleet
/// (the paper's 8-core Xeon E5410 hosts).
const CORES_PER_SERVER: f64 = 8.0;

/// Relative headroom of the dynamic governor of a built scenario
/// (0.25).
const DYNAMIC_HEADROOM: f64 = 0.25;

/// Demand a built scenario assumes for a VM before its first observed
/// period, cores (2.0) — also the provisioning used to admit a
/// brand-new arrival.
const DEFAULT_DEMAND: f64 = 2.0;

/// Capacity of a built scenario's degraded-mode deferred-admission
/// queue (1024 VMs).
const MAX_DEFERRED: usize = 1024;

/// Builder with the paper's Setup-2 defaults: 20 Xeon-E5410-like servers
/// of 8 cores, 1-hour placement periods over 5-second samples (720
/// samples per period), peak-reference provisioning, static DVFS.
///
/// [`ScenarioBuilder::servers`] sizes a one-class fleet of 8-core
/// Xeon E5410 servers at [`ScenarioBuilder::build`];
/// [`ScenarioBuilder::server_fleet`] supplies a heterogeneous fleet
/// directly and overrides it. The dynamic governor's headroom (0.25),
/// the demand assumed before a VM's first observed period (2.0 cores)
/// and the deferred-admission queue (1024 VMs) are fixed; a
/// [`ControllerConfig`] literal sets them for a
/// [`DatacenterController`] directly.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    fleet: VmFleet,
    server_count: usize,
    server_fleet: Option<ServerFleet>,
    policy: Policy,
    repack_trigger: RepackTrigger,
    qos_guard: Option<QosGuard>,
    adaptive_slack_max: Option<u32>,
    overcommit: Option<OvercommitConfig>,
    dvfs_mode: DvfsMode,
    period_samples: usize,
    reference: Reference,
    lifecycle: Option<Lifecycle>,
    faults: Option<FaultPlan>,
}

impl ScenarioBuilder {
    /// Starts a builder around a trace fleet.
    pub fn new(fleet: VmFleet) -> Self {
        Self {
            fleet,
            server_count: 20,
            server_fleet: None,
            policy: Policy::Bfd,
            repack_trigger: RepackTrigger::Periodic,
            qos_guard: None,
            adaptive_slack_max: None,
            overcommit: None,
            dvfs_mode: DvfsMode::Static,
            period_samples: 720,
            reference: Reference::Peak,
            lifecycle: None,
            faults: None,
        }
    }

    /// Number of available servers (paper: 20). Ignored when
    /// [`ScenarioBuilder::server_fleet`] is set.
    pub fn servers(mut self, count: usize) -> Self {
        self.server_count = count;
        self
    }

    /// Replays against an explicit (possibly heterogeneous) server
    /// fleet, overriding [`ScenarioBuilder::servers`]. Every class must
    /// be bounded.
    pub fn server_fleet(mut self, fleet: ServerFleet) -> Self {
        self.server_fleet = Some(fleet);
        self
    }

    /// Placement policy (default: BFD).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// When the live placement is re-packed (default:
    /// [`RepackTrigger::Periodic`], the paper's fixed schedule — the
    /// fragmentation variants additionally consolidate off-cycle when
    /// departures leave the fleet fragmented).
    pub fn repack_trigger(mut self, trigger: RepackTrigger) -> Self {
        self.repack_trigger = trigger;
        self
    }

    /// Composes a [`QosGuard`] onto the re-pack schedule (default:
    /// none): an off-cycle full re-pack fires when a period's observed
    /// worst per-server violation ratio exceeds the guard's threshold,
    /// and placement-keeping boundaries force-repack servers whose
    /// refreshed predicted load exceeds capacity. This is what lets a
    /// pure [`RepackTrigger::Fragmentation`] schedule keep its energy
    /// win without the unbounded violation drift.
    pub fn qos_guard(mut self, guard: QosGuard) -> Self {
        self.qos_guard = Some(guard);
        self
    }

    /// Enables adaptive fragmentation slack (default: static): the
    /// controller walks the slack between the trigger's configured
    /// value and `max` from each fired re-pack's realized
    /// servers-freed-per-migration gain (see
    /// [`SlackController`]). Requires a
    /// trigger with a fragmentation dimension.
    pub fn adaptive_slack_max(mut self, max: u32) -> Self {
        self.adaptive_slack_max = Some(max);
        self
    }

    /// Enables deliberate correlation-gap overcommit (default: off):
    /// admission and re-packs accept predicted per-VM sums up to
    /// `capacity x (1 + margin)` on servers whose Eqn (1) coincident
    /// estimate stays within plain capacity, with a per-class
    /// [`OvercommitController`] walking
    /// the live margin between 0 and `max_margin` from observed
    /// violation ratios. Requires [`ScenarioBuilder::qos_guard`] (the
    /// reactive backstop); `margin` must lie in `[0, max_margin]` and
    /// `max_margin` in `(0, 1]`.
    pub fn overcommit(mut self, margin: f64, max_margin: f64) -> Self {
        self.overcommit = Some(OvercommitConfig { margin, max_margin });
        self
    }

    /// Static or dynamic frequency scaling (default: static).
    pub fn dvfs_mode(mut self, mode: DvfsMode) -> Self {
        self.dvfs_mode = mode;
        self
    }

    /// Samples per placement period (default 720 = 1 h of 5 s samples).
    pub fn period_samples(mut self, samples: usize) -> Self {
        self.period_samples = samples;
        self
    }

    /// Reference utilization for provisioning (default: peak, as in the
    /// paper's Setup-2).
    pub fn reference(mut self, reference: Reference) -> Self {
        self.reference = reference;
        self
    }

    /// Drives the run from an arrival/departure schedule instead of
    /// the closed-world default: each scheduled VM arrives (and is
    /// admitted online, mid-period arrivals incrementally) at its
    /// arrival sample and departs at its departure sample; fleet VMs
    /// absent from the schedule never run. The schedule's horizon must
    /// equal the fleet's fine trace length.
    pub fn lifecycle(mut self, lifecycle: Lifecycle) -> Self {
        self.lifecycle = Some(lifecycle);
        self
    }

    /// Injects a server fault schedule (default: none): each planned
    /// transition becomes a `ServerFail`/`ServerRecover` event in the
    /// replay stream, interleaved with the lifecycle at its sample.
    /// Transitions aimed at servers the run never provisions are
    /// skipped; re-failing an already-failed server (e.g. a correlated
    /// outage overlapping an independent failure) is idempotent.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Validates and freezes the scenario.
    ///
    /// The knobs are checked by the controller's own validation (the
    /// one [`DatacenterController::new`] runs), so the two entry
    /// points reject the same configurations with the same errors;
    /// what is checked here is only what a controller never sees — the
    /// trace fleet and the schedules.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an empty fleet,
    /// zero servers, a period longer than the traces, mismatched
    /// trace lengths, a lifecycle that does not match the fleet, or
    /// out-of-range tuning values (a bad [`ProposedConfig`] surfaces
    /// as [`SimError::Core`]); [`SimError::NonMonotoneClock`] /
    /// [`SimError::UnknownServer`] for a fault plan with a backwards
    /// clock or a target outside the server fleet.
    pub fn build(self) -> crate::Result<Scenario> {
        let Some(first) = self.fleet.vms().first() else {
            return Err(SimError::InvalidParameter("fleet must not be empty"));
        };
        let server_fleet = match self.server_fleet {
            Some(fleet) => fleet,
            None => {
                if self.server_count == 0 {
                    return Err(SimError::InvalidParameter("need at least one server"));
                }
                ServerFleet::uniform(
                    self.server_count,
                    CORES_PER_SERVER,
                    LinearPowerModel::xeon_e5410(),
                )
                .map_err(SimError::Core)?
            }
        };
        let config = ControllerConfig {
            server_fleet,
            policy: self.policy,
            repack_trigger: self.repack_trigger,
            qos_guard: self.qos_guard,
            adaptive_slack_max: self.adaptive_slack_max,
            overcommit: self.overcommit,
            dvfs_mode: self.dvfs_mode,
            period_samples: self.period_samples,
            reference: self.reference,
            dynamic_headroom: DYNAMIC_HEADROOM,
            default_demand: DEFAULT_DEMAND,
            sample_dt_s: first.fine.dt(),
            max_deferred: MAX_DEFERRED,
        };
        config.validate()?;
        let len = first.fine.len();
        if len < config.period_samples {
            return Err(SimError::InvalidParameter("traces shorter than one period"));
        }
        for vm in self.fleet.vms() {
            if vm.fine.len() != len {
                return Err(SimError::InvalidParameter(
                    "all fine traces must have equal length",
                ));
            }
        }
        if let Some(lifecycle) = &self.lifecycle {
            if lifecycle.horizon_samples() != len {
                return Err(SimError::InvalidParameter(
                    "lifecycle horizon must equal the fine trace length",
                ));
            }
            for entry in lifecycle.entries() {
                if entry.id >= self.fleet.len() {
                    return Err(SimError::InvalidParameter(
                        "lifecycle references a vm outside the fleet",
                    ));
                }
            }
        }
        if let Some(plan) = &self.faults {
            // Hand-built plans may carry a backwards clock or aim past
            // the fleet; builder-made ones never do. Out-of-horizon
            // samples are harmless (the replay never reaches them).
            let mut previous = 0usize;
            for entry in plan.entries() {
                if entry.sample < previous {
                    return Err(SimError::NonMonotoneClock {
                        sample: entry.sample,
                        previous,
                    });
                }
                previous = entry.sample;
            }
            let servers = config
                .server_fleet
                .total_slots()
                .expect("validation rejects unbounded fleets");
            if let Some(max) = plan.max_server() {
                if max >= servers {
                    return Err(SimError::UnknownServer {
                        server: max,
                        servers,
                    });
                }
            }
        }
        Ok(Scenario {
            fleet: self.fleet,
            config,
            lifecycle: self.lifecycle,
            faults: self.faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavm_workload::datacenter::DatacenterTraceBuilder;

    fn fleet() -> VmFleet {
        DatacenterTraceBuilder::new(4)
            .groups(2)
            .seed(9)
            .duration_hours(2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn policy_names_and_awareness() {
        assert_eq!(Policy::Bfd.name(), "BFD");
        assert_eq!(Policy::Ffd.name(), "FFD");
        assert_eq!(
            Policy::Pcp {
                envelope_percentile: 90.0,
                affinity_threshold: 0.2
            }
            .name(),
            "PCP"
        );
        assert_eq!(Policy::Proposed(Default::default()).name(), "Proposed");
        assert!(Policy::Proposed(Default::default()).correlation_aware_frequency());
        assert!(!Policy::Bfd.correlation_aware_frequency());
        assert!(!Policy::Pcp {
            envelope_percentile: 90.0,
            affinity_threshold: 0.2
        }
        .correlation_aware_frequency());
    }

    #[test]
    fn who_reads_the_pair_costs() {
        let pcp = Policy::Pcp {
            envelope_percentile: 90.0,
            affinity_threshold: 0.2,
        };
        let super_vm = Policy::SuperVm {
            min_pair_cost: 1.25,
        };
        let proposed = Policy::Proposed(Default::default());
        for (policy, plain) in [
            (Policy::Bfd, false),
            (Policy::Ffd, false),
            (pcp, false),
            (super_vm, true),
            (proposed, true),
        ] {
            let guarded = ScenarioBuilder::new(fleet())
                .policy(policy)
                .qos_guard(QosGuard {
                    violation_ratio: 0.05,
                });
            let name = policy.name();
            assert_eq!(
                guarded.clone().build().unwrap().config().reads_pair_costs(),
                plain,
                "{name} without overcommit"
            );
            // The correlation-gap margin reads Eqn (2) under any policy.
            let overcommitted = guarded.overcommit(0.1, 0.25).build().unwrap();
            assert!(
                overcommitted.config().reads_pair_costs(),
                "{name} with overcommit"
            );
        }
    }

    #[test]
    fn builder_validates() {
        assert!(ScenarioBuilder::new(fleet()).build().is_ok());
        assert!(ScenarioBuilder::new(fleet()).servers(0).build().is_err());
        assert!(ScenarioBuilder::new(fleet())
            .period_samples(0)
            .build()
            .is_err());
        // 2 h of 5 s samples = 1440 < one 2000-sample period.
        assert!(ScenarioBuilder::new(fleet())
            .period_samples(2000)
            .build()
            .is_err());
        assert!(ScenarioBuilder::new(fleet())
            .policy(Policy::Pcp {
                envelope_percentile: 0.0,
                affinity_threshold: 0.2
            })
            .build()
            .is_err());
        assert!(ScenarioBuilder::new(fleet())
            .policy(Policy::Pcp {
                envelope_percentile: 90.0,
                affinity_threshold: 2.0
            })
            .build()
            .is_err());
        assert!(ScenarioBuilder::new(fleet())
            .dvfs_mode(DvfsMode::Dynamic {
                interval_samples: 0
            })
            .build()
            .is_err());
        // Overcommit needs the guard backstop and in-range margins.
        assert!(ScenarioBuilder::new(fleet())
            .overcommit(0.1, 0.25)
            .build()
            .is_err());
        assert!(ScenarioBuilder::new(fleet())
            .qos_guard(QosGuard {
                violation_ratio: 0.05
            })
            .overcommit(0.1, 0.25)
            .build()
            .is_ok());
        assert!(ScenarioBuilder::new(fleet())
            .qos_guard(QosGuard {
                violation_ratio: 0.05
            })
            .overcommit(0.3, 0.25)
            .build()
            .is_err());
        assert!(ScenarioBuilder::new(fleet())
            .qos_guard(QosGuard {
                violation_ratio: 0.05
            })
            .overcommit(0.0, 0.0)
            .build()
            .is_err());
        // A bad proposed-policy tuning is rejected here, not at `run()`.
        let defaults = ProposedConfig::default();
        for bad in [
            ProposedConfig {
                alpha: 2.0,
                ..defaults
            },
            ProposedConfig {
                max_rounds: 0,
                ..defaults
            },
            ProposedConfig {
                th_floor: defaults.th_init + 0.1,
                ..defaults
            },
        ] {
            assert!(matches!(
                ScenarioBuilder::new(fleet())
                    .policy(Policy::Proposed(bad))
                    .build(),
                Err(SimError::Core(cavm_core::CoreError::InvalidParameter(_)))
            ));
        }
    }

    #[test]
    fn builder_passes_settings_through() {
        let s = ScenarioBuilder::new(fleet())
            .servers(5)
            .policy(Policy::Ffd)
            .period_samples(360)
            .build()
            .unwrap();
        assert_eq!(s.config().policy.name(), "FFD");
        assert_eq!(s.period_samples(), 360);
        assert_eq!(s.config().server_fleet.len(), 1);
        assert_eq!(s.config().server_fleet.total_slots(), Some(5));
        assert_eq!(s.config().server_fleet.class(0).unwrap().cores(), 8.0);
    }

    #[test]
    fn builder_accepts_explicit_fleet_and_rejects_unbounded() {
        use cavm_core::fleet::{ServerClass, ServerFleet, UNBOUNDED};
        let hetero = ServerFleet::new(vec![
            ServerClass::new("small", 8, 4.0, LinearPowerModel::xeon_e5410()).unwrap(),
            ServerClass::new("big", 2, 16.0, LinearPowerModel::xeon_e5410()).unwrap(),
        ])
        .unwrap();
        let s = ScenarioBuilder::new(fleet())
            .server_fleet(hetero.clone())
            .build()
            .unwrap();
        assert_eq!(s.config().server_fleet, hetero);
        let unbounded = ServerFleet::new(vec![ServerClass::new(
            "open",
            UNBOUNDED,
            8.0,
            LinearPowerModel::xeon_e5410(),
        )
        .unwrap()])
        .unwrap();
        assert!(ScenarioBuilder::new(fleet())
            .server_fleet(unbounded)
            .build()
            .is_err());
    }
}
