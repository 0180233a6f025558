//! # cavm-core — the paper's contribution
//!
//! Correlation-aware VM allocation and frequency scaling, implemented
//! directly from Kim et al., *"Correlation-Aware Virtual Machine
//! Allocation for Energy-Efficient Datacenters"*, DATE 2013:
//!
//! | Paper element | Module |
//! |---|---|
//! | Cost function, Eqn (1): `Cost(i,j) = (û_i + û_j) / û(i+j)` | [`corr::cost`] |
//! | Pearson's correlation (the rejected alternative, §IV-A) | [`corr::pearson`] |
//! | Pairwise cost matrix `M_cost` | [`corr::matrix`] |
//! | Server cost, Eqn (2): utilization-weighted average pair cost | [`servercost`] |
//! | Workload prediction (last-value et al.) | [`predict`] |
//! | Server-count estimate, Eqn (3), and the UPDATE/ALLOCATE heuristic (Fig 2) | [`alloc::proposed`] |
//! | Baselines: FFD, BFD, PCP (Verma et al. \[6\]) | [`alloc`] |
//! | Frequency decision, Eqn (4), static and dynamic | [`dvfs`] |
//! | Heterogeneous server fleets (beyond the paper's uniform testbed) | [`fleet`] |
//!
//! The paper's testbed is uniform, so its equations take one scalar
//! capacity. This crate generalizes every layer to a [`fleet::ServerFleet`]
//! — an ordered set of server classes with their own core counts, power
//! models and DVFS ladders — and recovers the paper exactly through the
//! degenerate one-class fleet
//! ([`alloc::AllocationPolicy::place_uniform`]).
//!
//! The cost function deliberately replaces Pearson's correlation: it can
//! be updated in O(1) per utilization sample (no per-interval batch
//! recomputation, no sample storage) and it measures exactly the
//! quantity the allocator cares about — how much lower the *aggregate*
//! peak of two co-located VMs is than the sum of their individual peaks.
//! `Cost = 1` means the peaks coincide (fully correlated); `Cost = 2`
//! means perfect peak complementarity.
//!
//! # Example: the full paper pipeline on synthetic traces
//!
//! ```
//! use cavm_core::alloc::{AllocationPolicy, ProposedPolicy, VmDescriptor};
//! use cavm_core::corr::CostMatrix;
//! use cavm_core::dvfs::FleetFrequencyPlanner;
//! use cavm_core::fleet::ServerFleet;
//! use cavm_core::servercost::server_cost_of;
//! use cavm_power::LinearPowerModel;
//! use cavm_trace::{Reference, TimeSeries};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two anti-correlated VMs and one flat VM.
//! let a = TimeSeries::new(1.0, vec![4.0, 1.0, 4.0, 1.0])?;
//! let b = TimeSeries::new(1.0, vec![1.0, 4.0, 1.0, 4.0])?;
//! let c = TimeSeries::new(1.0, vec![2.0, 2.0, 2.0, 2.0])?;
//! let traces = [&a, &b, &c];
//!
//! let matrix = CostMatrix::from_traces(&traces, Reference::Peak)?;
//! // a and b never peak together: cost (4+4)/5 = 1.6.
//! assert!((matrix.cost(0, 1).unwrap() - 1.6).abs() < 1e-12);
//!
//! // The paper's uniform testbed is the one-class degenerate fleet.
//! let fleet = ServerFleet::uniform(20, 8.0, LinearPowerModel::xeon_e5410())?;
//! let vms = VmDescriptor::from_traces(&traces, Reference::Peak)?;
//! let placement = ProposedPolicy::default().place(&vms, &matrix, &fleet)?;
//! assert_eq!(placement.server_count(), 2);
//!
//! // Eqn (4): the correlation-aware frequency for the first server,
//! // evaluated against its own class's capacity and ladder.
//! let planner = FleetFrequencyPlanner::new(&fleet);
//! let members = placement.server(0).unwrap();
//! let class = placement.class_of(0).unwrap();
//! let demand: f64 = members.iter().map(|&id| vms[id].demand).sum();
//! let cost = server_cost_of(members, &vms, &matrix);
//! let f = planner.static_level_correlation_aware(class, demand, cost)?;
//! assert!(f <= fleet.class(class).unwrap().ladder().max());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod corr;
pub mod dvfs;
mod error;
pub mod fleet;
pub mod predict;
pub mod servercost;

pub use error::CoreError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
