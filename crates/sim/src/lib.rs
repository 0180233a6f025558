//! Online datacenter allocation controller and trace-driven simulator
//! (paper Setup-2).
//!
//! The crate's centre is the **event-driven controller**,
//! [`DatacenterController`]: a long-running allocation session over a
//! [`ServerFleet`] — the paper's uniform rack or a heterogeneous mix
//! of classes ([`ScenarioBuilder::server_fleet`]) — driven by
//! [`VmEvent`]s (`Arrive` / `Depart` / `Tick`). Placement re-runs
//! every `t_period` (the paper uses 1 hour) with *predicted* demands —
//! or adaptively: a [`RepackTrigger`] with a fragmentation slack fires
//! **off-cycle re-packs** when departures leave the fleet fragmented
//! (live Eqn 3 bound ≥ `slack` below the active server count), a
//! [`QosGuard`] composes a violation-triggered re-pack (plus a
//! boundary capacity check) onto any schedule so drifting predictions
//! cannot overcommit kept servers indefinitely, and a
//! [`SlackController`] adapts the slack between bounds from each
//! re-pack's realized servers-freed-per-migration gain. VMs
//! arriving **mid-period** are admitted through the incremental
//! single-VM placement ([`AllocationPolicy::place_one`]) without a
//! re-pack, biased by their remaining *lease* away from servers about
//! to drain, and progress streams through a [`MetricSink`]
//! (`on_period`, `on_repack`, `on_migration`, `on_violation`,
//! `on_class_energy`, …) instead of only a terminal report — wrap an
//! expensive sink in [`sink::Buffered`] to batch delivery behind a
//! bounded queue that can never stall the replay loop, or in
//! [`sink::Threaded`] to consume those batches on a dedicated worker
//! thread with identical semantics.
//!
//! Above the single session sits the **service layer**: the controller
//! is cheaply `Clone`-able (registered traces are shared, and the
//! period matrix is sized by the population, not by every id ever
//! seen), so [`DatacenterController::fork`] and the
//! [`WhatIf`] API answer "what if I re-packed now?" against a copy of
//! live state without perturbing it, and [`service::SessionHost`]
//! hosts many independent sessions at once, replaying an interleaved
//! event schedule on a worker pool with bit-identical results at any
//! pool size.
//! Accounting matches Table II exactly:
//!
//! * **Placement** — any [`Policy`]: BFD, FFD, PCP (re-clustered each
//!   period from the previous period's envelopes), SuperVM, or the
//!   paper's correlation-aware heuristic; all place onto the fleet,
//!   opening servers largest-class-first.
//! * **Frequency** — static per period (Eqn 4 for the proposed policy,
//!   the worst-case level for correlation-blind baselines) or dynamic
//!   re-evaluation every k samples from the measured recent peak
//!   (Table II(b)); always on the hosting server's own class ladder
//!   and capacity.
//! * **Violations** — a sample is over-utilized when a server's
//!   aggregate demand exceeds its frequency-scaled class capacity; the
//!   report carries the paper's metric, the maximum per-period ratio
//!   of over-utilized instances.
//! * **Power** — each class's [`PowerModel`] integrated over its active
//!   servers' utilization; inactive servers are off. Table II's
//!   "normalized power" is
//!   `report.energy.normalized_to(&baseline.energy)`, and
//!   [`SimReport::classes`] breaks energy/violations/migrations (and a
//!   per-class Fig 6 histogram) down per class.
//!
//! The paper's closed-world **batch replay is a convenience wrapper**:
//! [`Scenario::run`] drives the controller with every VM arriving at
//! t = 0 (or per an explicit [`ScenarioBuilder::lifecycle`] schedule —
//! Poisson arrivals, bounded leases, diurnal churn) and a
//! [`ReportSink`] collects the terminal [`SimReport`]. Without a
//! lifecycle this path is bit-identical to the historical batch
//! engine, pinned by the `fleet_regression` golden tests and the
//! batch≡online equivalence property tests.
//!
//! [`AllocationPolicy::place_one`]: cavm_core::alloc::AllocationPolicy::place_one
//! [`PowerModel`]: cavm_power::PowerModel
//! [`ServerFleet`]: cavm_core::fleet::ServerFleet
//!
//! # Example: batch replay
//!
//! ```
//! use cavm_sim::{Policy, ScenarioBuilder};
//! use cavm_workload::datacenter::DatacenterTraceBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fleet = DatacenterTraceBuilder::new(10)
//!     .groups(3)
//!     .seed(1)
//!     .duration_hours(4.0)
//!     .build()?;
//! let report = ScenarioBuilder::new(fleet)
//!     .servers(10)
//!     .policy(Policy::Proposed(Default::default()))
//!     .build()?
//!     .run()?;
//! assert!(report.energy.joules() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Example: online churn
//!
//! ```
//! use cavm_sim::{Policy, ReportSink, ScenarioBuilder};
//! use cavm_workload::datacenter::DatacenterTraceBuilder;
//! use cavm_workload::lifecycle::{ArrivalProcess, LifecycleBuilder, LifetimeModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fleet = DatacenterTraceBuilder::new(8)
//!     .groups(2)
//!     .seed(3)
//!     .duration_hours(4.0)
//!     .build()?;
//! let horizon = 4 * 720;
//! let lifecycle = LifecycleBuilder::new(8, horizon)
//!     .seed(3)
//!     .arrivals(ArrivalProcess::Poisson { mean_gap_samples: 120.0 })
//!     .lifetimes(LifetimeModel::Exponential { mean_samples: 1440.0 })
//!     .build()?;
//! let mut sink = ReportSink::new();
//! ScenarioBuilder::new(fleet)
//!     .servers(10)
//!     .lifecycle(lifecycle)
//!     .build()?
//!     .run_with_sink(&mut sink)?;
//! let report = sink.into_report().expect("summary fired");
//! assert!(report.energy.joules() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod config;
pub mod controller;
mod engine;
mod error;
mod event;
mod feedback;
pub mod report;
pub mod service;
pub mod sink;

pub use cells::ShardedController;
pub use config::{Policy, Scenario, ScenarioBuilder};
pub use controller::{
    ControllerConfig, DatacenterController, MetricSink, NullSink, OvercommitConfig,
    OvercommitController, QosGuard, RepackEvent, RepackReason, RepackTrigger, ReportSink,
    SlackController, ViolationEvent, VmEvent, WhatIf, WhatIfDelta,
};
pub use error::SimError;
pub use report::{ClassBreakdown, PeriodRecord, SimReport};
pub use service::{MergedReport, ServiceReport, SessionEvent, SessionHost};
pub use sink::{Buffered, SinkEvent, Threaded};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
