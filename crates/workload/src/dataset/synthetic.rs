//! Synthetic scenario generators behind the [`TraceDataset`] surface.
//!
//! Where [`DatacenterTraceBuilder`](crate::DatacenterTraceBuilder)
//! synthesizes a *closed* fleet (every VM exists for the whole day),
//! [`SyntheticTrace`] generates an *open* scenario in the style of
//! dslab-faas' `synthetic_trace`: a list of application classes, each
//! with its own arrival process, lease-duration model, and demand
//! model, composed over the workspace's deterministic
//! [`SimRng`](cavm_trace::SimRng). The result streams through the
//! same [`TraceDataset`] trait as the real-trace readers, so a
//! generated scenario and an ingested CSV are interchangeable
//! downstream: [`assemble`](crate::dataset::assemble) lowers either
//! into the `(VmFleet, Lifecycle)` pair a scenario replays.
//!
//! # Example
//!
//! ```
//! use cavm_workload::dataset::{assemble, DemandModel, SyntheticApp, SyntheticTraceBuilder};
//! use cavm_workload::{ArrivalProcess, LifetimeModel};
//!
//! # fn main() -> Result<(), cavm_workload::WorkloadError> {
//! let mut dataset = SyntheticTraceBuilder::new(720)
//!     .seed(42)
//!     .app(SyntheticApp {
//!         name: "web".into(),
//!         vm_count: 6,
//!         arrivals: ArrivalProcess::Poisson { mean_gap_samples: 40.0 },
//!         lifetimes: LifetimeModel::Uniform { min_samples: 120, max_samples: 480 },
//!         demand: DemandModel::Uniform { lo: 0.5, hi: 2.0 },
//!     })
//!     .build()?;
//! let (fleet, lifecycle) = assemble(&mut dataset)?;
//! assert_eq!(fleet.len(), lifecycle.len());
//! # Ok(())
//! # }
//! ```

use super::{TraceDataset, TraceRecord};
use crate::datacenter::DailyArchetype;
use crate::lifecycle::{ArrivalProcess, LifecycleBuilder, LifetimeModel};
use crate::WorkloadError;
use cavm_trace::SimRng;
use std::collections::VecDeque;

/// How an application class's VMs consume CPU while leased.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandModel {
    /// Every VM of the class runs flat at `cores`.
    Constant {
        /// Demand level, cores.
        cores: f64,
    },
    /// Each VM draws one flat level uniformly from `[lo, hi]` at
    /// arrival (request-sizing style, the shape of the Huawei logs).
    Uniform {
        /// Smallest level, cores.
        lo: f64,
        /// Largest level, cores.
        hi: f64,
    },
    /// Demand follows a daily-profile [`DailyArchetype`] mean with
    /// per-sample lognormal refinement of coefficient-of-variation
    /// `cv` — the paper's trace-refinement primitive (readings style,
    /// the shape of the Azure traces).
    Archetype {
        /// Daily mean-utilization profile.
        archetype: DailyArchetype,
        /// Per-sample lognormal coefficient of variation (0 = the
        /// smooth profile itself).
        cv: f64,
    },
}

impl DemandModel {
    fn validate(&self) -> crate::Result<()> {
        match *self {
            DemandModel::Constant { cores } => {
                if !(cores.is_finite() && cores >= 0.0) {
                    return Err(WorkloadError::InvalidParameter(
                        "constant demand must be finite and >= 0",
                    ));
                }
            }
            DemandModel::Uniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi) {
                    return Err(WorkloadError::InvalidParameter(
                        "uniform demand range must be 0 <= lo <= hi",
                    ));
                }
            }
            DemandModel::Archetype { archetype, cv } => {
                archetype.validate()?;
                if !(cv.is_finite() && cv >= 0.0) {
                    return Err(WorkloadError::InvalidParameter(
                        "demand cv must be finite and >= 0",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One application class of a synthetic scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticApp {
    /// Class name; VM names are derived as `"<name>-<id>"`.
    pub name: String,
    /// Number of VMs the class tries to schedule (arrivals falling
    /// past the horizon are dropped, as in [`LifecycleBuilder`]).
    pub vm_count: usize,
    /// When the class's VMs arrive.
    pub arrivals: ArrivalProcess,
    /// How long they stay.
    pub lifetimes: LifetimeModel,
    /// What they consume while live.
    pub demand: DemandModel,
}

/// Builder for [`SyntheticTrace`] scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTraceBuilder {
    horizon_samples: usize,
    sample_dt_s: f64,
    seed: u64,
    apps: Vec<SyntheticApp>,
}

impl SyntheticTraceBuilder {
    /// Starts a scenario over `horizon_samples` samples (5 s default
    /// grid).
    pub fn new(horizon_samples: usize) -> Self {
        SyntheticTraceBuilder {
            horizon_samples,
            sample_dt_s: 5.0,
            seed: 0,
            apps: Vec::new(),
        }
    }

    /// Seconds between samples (default 5).
    pub fn sample_dt_s(mut self, dt: f64) -> Self {
        self.sample_dt_s = dt;
        self
    }

    /// Master seed; every draw is deterministic given it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds an application class.
    pub fn app(mut self, app: SyntheticApp) -> Self {
        self.apps.push(app);
        self
    }

    /// Generates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a zero horizon,
    /// non-positive sample interval, no apps, an app with zero VMs, or
    /// out-of-range demand parameters, and propagates lifecycle/RNG
    /// errors.
    pub fn build(&self) -> crate::Result<SyntheticTrace> {
        if self.horizon_samples == 0 {
            return Err(WorkloadError::InvalidParameter(
                "scenario horizon must be at least one sample",
            ));
        }
        if !(self.sample_dt_s.is_finite() && self.sample_dt_s > 0.0) {
            return Err(WorkloadError::InvalidParameter(
                "sample interval must be positive and finite",
            ));
        }
        if self.apps.is_empty() {
            return Err(WorkloadError::InvalidParameter(
                "scenario needs at least one app",
            ));
        }

        let root = SimRng::new(self.seed);
        // (arrival, app index, per-app id) sorts records into the
        // arrival order assemble() requires.
        let mut keyed: Vec<(usize, usize, usize, TraceRecord)> = Vec::new();
        for (a, app) in self.apps.iter().enumerate() {
            if app.vm_count == 0 {
                return Err(WorkloadError::InvalidParameter(
                    "app must schedule at least one VM",
                ));
            }
            app.demand.validate()?;
            let schedule_seed = root.fork(1 + a as u64).next_u64();
            let schedule = LifecycleBuilder::new(app.vm_count, self.horizon_samples)
                .seed(schedule_seed)
                .sample_dt_s(self.sample_dt_s)
                .arrivals(app.arrivals)
                .lifetimes(app.lifetimes)
                .build()?;
            for entry in schedule.entries() {
                let end = entry.departure_sample.unwrap_or(self.horizon_samples);
                let window = end - entry.arrival_sample;
                let mut vrng = root.fork(10_000 + (a as u64) * 100_000 + entry.id as u64);
                let demand =
                    self.draw_demand(&app.demand, entry.arrival_sample, window, &mut vrng)?;
                keyed.push((
                    entry.arrival_sample,
                    a,
                    entry.id,
                    TraceRecord {
                        name: format!("{}-{:03}", app.name, entry.id),
                        group: a,
                        arrival_sample: entry.arrival_sample,
                        lease_samples: entry.departure_sample.map(|d| d - entry.arrival_sample),
                        demand,
                    },
                ));
            }
        }
        keyed.sort_by_key(|&(arrival, app, id, _)| (arrival, app, id));
        Ok(SyntheticTrace {
            sample_dt_s: self.sample_dt_s,
            horizon_samples: self.horizon_samples,
            records: keyed.into_iter().map(|(_, _, _, r)| r).collect(),
        })
    }

    fn draw_demand(
        &self,
        model: &DemandModel,
        arrival: usize,
        window: usize,
        vrng: &mut SimRng,
    ) -> crate::Result<Vec<f64>> {
        Ok(match *model {
            DemandModel::Constant { cores } => vec![cores; window],
            DemandModel::Uniform { lo, hi } => vec![vrng.range_f64(lo, hi); window],
            DemandModel::Archetype { archetype, cv } => {
                let burst_hours = match archetype {
                    DailyArchetype::Bursty { bursts_per_day, .. } => {
                        let k = vrng.poisson(bursts_per_day).map_err(WorkloadError::Trace)?;
                        (0..k).map(|_| vrng.range_f64(0.0, 24.0)).collect()
                    }
                    _ => Vec::new(),
                };
                (0..window)
                    .map(|offset| {
                        let t_s = (arrival + offset) as f64 * self.sample_dt_s;
                        let hour = (t_s / 3600.0) % 24.0;
                        let mean = archetype.mean_at(hour, &burst_hours);
                        vrng.lognormal_mean_cv(mean, cv)
                    })
                    .collect()
            }
        })
    }
}

/// A generated open scenario, streamed record by record.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTrace {
    sample_dt_s: f64,
    horizon_samples: usize,
    records: VecDeque<TraceRecord>,
}

impl TraceDataset for SyntheticTrace {
    fn sample_dt_s(&self) -> f64 {
        self.sample_dt_s
    }

    fn horizon_samples(&self) -> usize {
        self.horizon_samples
    }

    fn next_record(&mut self) -> Option<crate::Result<TraceRecord>> {
        self.records.pop_front().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::super::assemble;
    use super::*;

    fn web_app() -> SyntheticApp {
        SyntheticApp {
            name: "web".into(),
            vm_count: 6,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_samples: 40.0,
            },
            lifetimes: LifetimeModel::Uniform {
                min_samples: 120,
                max_samples: 480,
            },
            demand: DemandModel::Archetype {
                archetype: DailyArchetype::Diurnal {
                    base: 0.3,
                    peak: 1.8,
                    peak_hour: 12.0,
                    width_h: 3.0,
                },
                cv: 0.25,
            },
        }
    }

    #[test]
    fn generates_deterministic_arrival_ordered_records() {
        let build = || {
            SyntheticTraceBuilder::new(720)
                .seed(7)
                .app(web_app())
                .app(SyntheticApp {
                    name: "batch".into(),
                    vm_count: 3,
                    arrivals: ArrivalProcess::AtStart,
                    lifetimes: LifetimeModel::Fixed { samples: 240 },
                    demand: DemandModel::Constant { cores: 1.5 },
                })
                .build()
                .unwrap()
        };
        let mut a = build();
        let b = build();
        assert_eq!(a, b);
        let mut previous = 0;
        let mut names = Vec::new();
        while let Some(r) = a.next_record() {
            let r = r.unwrap();
            assert!(r.arrival_sample >= previous);
            previous = r.arrival_sample;
            names.push(r.name);
        }
        // Batch VMs arrive at sample 0, ahead of most web leases.
        assert!(names.iter().any(|n| n.starts_with("batch-")));
        assert!(names.iter().any(|n| n.starts_with("web-")));
    }

    #[test]
    fn assembles_through_the_dataset_surface() {
        let mut ds = SyntheticTraceBuilder::new(720)
            .seed(7)
            .app(web_app())
            .build()
            .unwrap();
        let (fleet, lifecycle) = assemble(&mut ds).unwrap();
        assert_eq!(fleet.len(), lifecycle.len());
        assert_eq!(fleet.vms()[0].fine.len(), 720);
        assert!(lifecycle.max_concurrent() >= 1);
    }

    #[test]
    fn uniform_demand_is_flat_per_vm() {
        let mut ds = SyntheticTraceBuilder::new(240)
            .seed(3)
            .app(SyntheticApp {
                name: "db".into(),
                vm_count: 4,
                arrivals: ArrivalProcess::AtStart,
                lifetimes: LifetimeModel::Unbounded,
                demand: DemandModel::Uniform { lo: 0.5, hi: 2.0 },
            })
            .build()
            .unwrap();
        while let Some(r) = ds.next_record() {
            let r = r.unwrap();
            let level = r.demand[0];
            assert!((0.5..=2.0).contains(&level));
            assert!(r.demand.iter().all(|&v| v == level));
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(SyntheticTraceBuilder::new(0)
            .app(web_app())
            .build()
            .is_err());
        assert!(SyntheticTraceBuilder::new(100).build().is_err());
        let mut zero_vms = web_app();
        zero_vms.vm_count = 0;
        assert!(SyntheticTraceBuilder::new(100)
            .app(zero_vms)
            .build()
            .is_err());
        let mut bad_demand = web_app();
        bad_demand.demand = DemandModel::Uniform { lo: 2.0, hi: 1.0 };
        assert!(SyntheticTraceBuilder::new(100)
            .app(bad_demand)
            .build()
            .is_err());
        let mut nan_demand = web_app();
        nan_demand.demand = DemandModel::Constant { cores: f64::NAN };
        assert!(SyntheticTraceBuilder::new(100)
            .app(nan_demand)
            .build()
            .is_err());
    }
}
