//! # cavm — Correlation-Aware VM Allocation for Energy-Efficient Datacenters
//!
//! A from-scratch Rust reproduction of Kim, Ruggiero, Atienza &
//! Lederberger, *"Correlation-Aware Virtual Machine Allocation for
//! Energy-Efficient Datacenters"*, DATE 2013.
//!
//! This facade crate re-exports the Setup-2 pipeline — everything but
//! the Setup-1 simulators (`cavm-cluster`, Figs 1/4/5; `cavm-microarch`,
//! Table I), which only the `cavm-bench` experiments use:
//!
//! * [`trace`] — time-series substrate (sampled signals, streaming stats,
//!   envelopes, deterministic RNG).
//! * [`workload`] — workload generators (client waveforms, web-search
//!   clusters, datacenter trace synthesis, trace readers, lifecycles,
//!   fault plans).
//! * [`power`] — DVFS ladders, power models, energy metering.
//! * [`core`] — the paper's contribution: the correlation cost metric
//!   (Eqn 1), cost matrix, server cost (Eqn 2), the UPDATE/ALLOCATE
//!   placement heuristic (Fig 2), baselines (FFD, BFD, PCP, SuperVM)
//!   and the frequency decision (Eqn 4).
//! * [`sim`] — the online datacenter controller (event-driven VM
//!   lifecycle, incremental admissions, streaming metric sinks) and
//!   the batch trace-driven simulator built on it (paper Setup-2:
//!   Table II, Fig 6).
//!
//! # Quickstart
//!
//! ```
//! use cavm::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Synthesize a tiny datacenter of 8 VMs in 2 correlated groups
//! // (4 hours of traces keep the doctest fast).
//! let fleet = DatacenterTraceBuilder::new(8)
//!     .groups(2)
//!     .seed(7)
//!     .duration_hours(4.0)
//!     .build()?;
//!
//! // Score pairwise correlation with the paper's cost metric (Eqn 1).
//! let traces = fleet.traces();
//! let matrix = CostMatrix::from_traces(&traces, Reference::Peak)?;
//!
//! // Place the VMs on a heterogeneous fleet: a few dense 16-core
//! // boxes in front of the paper's 8-core Xeons.
//! let servers = ServerFleet::new(vec![
//!     ServerClass::new("octo", 20, 8.0, LinearPowerModel::xeon_e5410())?,
//!     ServerClass::new(
//!         "hexadeca",
//!         4,
//!         16.0,
//!         LinearPowerModel::xeon_e5410().scaled(1.85)?,
//!     )?,
//! ])?;
//! let vms = VmDescriptor::from_traces(&traces, Reference::Peak)?;
//! let placement = ProposedPolicy::default().place(&vms, &matrix, &servers)?;
//! assert!(placement.server_count() >= 1);
//!
//! // Pick each server's frequency by Eqn (4), on its own class ladder.
//! let planner = FleetFrequencyPlanner::new(&servers);
//! for (s, members) in placement.servers().iter().enumerate() {
//!     let class = placement.class_of(s).unwrap();
//!     let demand: f64 = members.iter().map(|&id| vms[id].demand).sum();
//!     let cost = server_cost_of(members, &vms, &matrix);
//!     let f = planner.static_level_correlation_aware(class, demand, cost.max(1.0))?;
//!     assert!(f >= servers.class(class).unwrap().ladder().min());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use cavm_core as core;
pub use cavm_power as power;
pub use cavm_sim as sim;
pub use cavm_trace as trace;
pub use cavm_workload as workload;

/// The most commonly used items across the workspace, in one import.
pub mod prelude {
    pub use cavm_core::{
        alloc::{
            AllocationPolicy, BfdPolicy, FfdPolicy, PcpPolicy, Placement, ProposedPolicy,
            SuperVmPolicy, VmDescriptor,
        },
        corr::{cost_of_traces, CostMatrix, CostMetric, PearsonStream},
        dvfs::{DvfsMode, FleetFrequencyPlanner, FrequencyPlanner},
        fleet::{ServerClass, ServerFleet, ServerHealth},
        predict::{EwmaPredictor, LastValuePredictor, MovingAveragePredictor, Predictor},
        servercost::{server_cost, server_cost_of},
    };
    pub use cavm_power::{DvfsLadder, EnergyMeter, Frequency, LinearPowerModel, PowerModel};
    pub use cavm_sim::{
        Buffered, ClassBreakdown, ControllerConfig, DatacenterController, MergedReport, MetricSink,
        NullSink, PeriodRecord, Policy, QosGuard, RepackEvent, RepackReason, RepackTrigger,
        ReportSink, Scenario, ScenarioBuilder, ServiceReport, SessionEvent, SessionHost, SimReport,
        SinkEvent, SlackController, Threaded, ViolationEvent, VmEvent, WhatIf, WhatIfDelta,
    };
    pub use cavm_trace::{Envelope, Reference, SimRng, TimeSeries};
    pub use cavm_workload::{
        clients::ClientWave,
        datacenter::{DailyArchetype, DatacenterTraceBuilder, VmFleet},
        dataset::{
            assemble, AzureTraceReader, DemandModel, HuaweiTraceReader, SyntheticApp,
            SyntheticTrace, SyntheticTraceBuilder, TraceDataset, TraceRecord,
        },
        faults::{FaultEntry, FaultKind, FaultModel, FaultPlan, FaultPlanBuilder},
        lifecycle::{ArrivalProcess, Lifecycle, LifecycleBuilder, LifecycleEntry, LifetimeModel},
        websearch::WebSearchCluster,
    };
}
