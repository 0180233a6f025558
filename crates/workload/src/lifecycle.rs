//! VM lifecycle schedules — when each VM of a fleet arrives and
//! departs.
//!
//! The paper's Setup-2 (and the batch simulator built from it) is a
//! *closed* system: every VM exists for the whole horizon. Real
//! datacenters are open — leases start and end continuously (cf.
//! Quang-Hung et al., *Energy-Aware Lease Scheduling*) — and the online
//! controller consumes exactly that: a [`Lifecycle`] maps each VM id of
//! a trace fleet to an arrival sample and an optional departure sample
//! on the fine (5 s) grid.
//!
//! [`LifecycleBuilder`] synthesizes schedules deterministically from a
//! seed: Poisson or diurnally-modulated arrival processes, bounded
//! lifetimes (fixed / uniform / exponential), or the degenerate
//! everything-at-t-0 schedule that reproduces the batch semantics.
//! Trace-driven schedules (e.g. replayed from a real cluster log) enter
//! through [`Lifecycle::from_entries`].
//!
//! # Example
//!
//! A day of 5-second samples with leases arriving by a Poisson process
//! and holding exponentially-distributed lifetimes — identical seeds
//! reproduce identical schedules:
//!
//! ```
//! use cavm_workload::lifecycle::{ArrivalProcess, LifecycleBuilder, LifetimeModel};
//!
//! # fn main() -> Result<(), cavm_workload::WorkloadError> {
//! let horizon = 24 * 720; // 24 h of 5 s samples
//! let build = || {
//!     LifecycleBuilder::new(16, horizon)
//!         .seed(42)
//!         .arrivals(ArrivalProcess::Poisson {
//!             mean_gap_samples: 400.0,
//!         })
//!         .lifetimes(LifetimeModel::Exponential {
//!             mean_samples: 2000.0,
//!         })
//!         .build()
//! };
//! let schedule = build()?;
//! assert_eq!(schedule, build()?, "seeded schedules are deterministic");
//! assert!(schedule.len() <= 16);
//! assert!(schedule.max_concurrent() >= 1);
//! // Every entry lives inside the horizon, departures after arrivals.
//! for entry in schedule.entries() {
//!     assert!(entry.arrival_sample < horizon);
//!     if let Some(d) = entry.departure_sample {
//!         assert!(d > entry.arrival_sample);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use crate::WorkloadError;
use cavm_trace::SimRng;

/// One VM's lease window on the fine sample grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEntry {
    /// VM id (index into the trace fleet the schedule accompanies).
    pub id: usize,
    /// Fine sample index at which the VM arrives (inclusive).
    pub arrival_sample: usize,
    /// Fine sample index at which the VM departs (exclusive), or
    /// `None` when it stays to the end of the horizon.
    pub departure_sample: Option<usize>,
}

impl LifecycleEntry {
    /// Whether the VM is live at `sample`.
    pub fn live_at(&self, sample: usize) -> bool {
        sample >= self.arrival_sample && self.departure_sample.is_none_or(|d| sample < d)
    }
}

/// A validated arrival/departure schedule over a fixed horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifecycle {
    entries: Vec<LifecycleEntry>,
    horizon_samples: usize,
}

impl Lifecycle {
    /// Wraps explicit entries (trace-driven schedules). Entries are
    /// kept in `(arrival, id)` order.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a zero horizon,
    /// duplicate ids, an arrival at or past the horizon, or a
    /// departure at or before its arrival.
    pub fn from_entries(
        mut entries: Vec<LifecycleEntry>,
        horizon_samples: usize,
    ) -> crate::Result<Self> {
        if horizon_samples == 0 {
            return Err(WorkloadError::InvalidParameter(
                "lifecycle horizon must be at least one sample",
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for e in &entries {
            if !seen.insert(e.id) {
                return Err(WorkloadError::InvalidParameter(
                    "duplicate vm id in lifecycle",
                ));
            }
            if e.arrival_sample >= horizon_samples {
                return Err(WorkloadError::InvalidParameter(
                    "lifecycle arrival past the horizon",
                ));
            }
            if let Some(d) = e.departure_sample {
                if d <= e.arrival_sample {
                    return Err(WorkloadError::InvalidParameter(
                        "lifecycle departure must follow its arrival",
                    ));
                }
            }
        }
        entries.sort_by_key(|e| (e.arrival_sample, e.id));
        Ok(Self {
            entries,
            horizon_samples,
        })
    }

    /// The batch-equivalent schedule: every VM of `vm_count` arrives at
    /// sample 0 and never departs.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a zero horizon.
    pub fn all_at_start(vm_count: usize, horizon_samples: usize) -> crate::Result<Self> {
        Self::from_entries(
            (0..vm_count)
                .map(|id| LifecycleEntry {
                    id,
                    arrival_sample: 0,
                    departure_sample: None,
                })
                .collect(),
            horizon_samples,
        )
    }

    /// The entries, sorted by `(arrival, id)`.
    pub fn entries(&self) -> &[LifecycleEntry] {
        &self.entries
    }

    /// The schedule's horizon in fine samples.
    pub fn horizon_samples(&self) -> usize {
        self.horizon_samples
    }

    /// Number of scheduled VMs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no VM is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of VMs live at `sample`.
    pub fn live_count_at(&self, sample: usize) -> usize {
        self.entries.iter().filter(|e| e.live_at(sample)).count()
    }

    /// The peak number of simultaneously live VMs over the horizon —
    /// the capacity a server fleet must actually cover under churn.
    pub fn max_concurrent(&self) -> usize {
        // Sweep the arrival/departure breakpoints.
        let mut events: Vec<(usize, i64)> = Vec::with_capacity(self.entries.len() * 2);
        for e in &self.entries {
            events.push((e.arrival_sample, 1));
            if let Some(d) = e.departure_sample {
                events.push((d, -1));
            }
        }
        events.sort_by_key(|&(s, delta)| (s, delta));
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, delta) in events {
            live += delta;
            peak = peak.max(live);
        }
        peak.max(0) as usize
    }

    /// Whether every VM arrives at sample 0 and never departs — the
    /// schedule whose online replay is provably identical to the batch
    /// engine.
    pub fn is_batch_equivalent(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.arrival_sample == 0 && e.departure_sample.is_none())
    }
}

/// How arrival instants are drawn over the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Every VM arrives at sample 0 (the closed-world batch setting).
    AtStart,
    /// Homogeneous Poisson process: i.i.d. exponential inter-arrival
    /// gaps with the given mean, in fine samples. VMs whose arrival
    /// falls past the horizon are dropped from the schedule.
    Poisson {
        /// Mean gap between consecutive arrivals, in fine samples.
        mean_gap_samples: f64,
    },
    /// Inhomogeneous Poisson process with a diurnal rate (thinning):
    /// the base rate `1 / mean_gap_samples` is scaled up to
    /// `1 + amplitude` in a Gaussian bump around `peak_hour`
    /// (circular in the 24 h day).
    Diurnal {
        /// Mean gap at the *base* rate, in fine samples.
        mean_gap_samples: f64,
        /// Hour of day (0–24) of the arrival rush.
        peak_hour: f64,
        /// Gaussian width of the rush, hours.
        width_h: f64,
        /// Peak rate multiplier above base (0 = homogeneous).
        amplitude: f64,
    },
}

/// How long an arrived VM stays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifetimeModel {
    /// Leases never end within the horizon.
    Unbounded,
    /// Every lease lasts exactly this many fine samples.
    Fixed {
        /// Lease length, fine samples.
        samples: usize,
    },
    /// Lease lengths uniform in `[min_samples, max_samples]`.
    Uniform {
        /// Shortest lease, fine samples.
        min_samples: usize,
        /// Longest lease, fine samples.
        max_samples: usize,
    },
    /// Exponentially distributed lease lengths.
    Exponential {
        /// Mean lease length, fine samples.
        mean_samples: f64,
    },
}

/// Deterministic lifecycle synthesis over a fleet of `vm_count` VMs.
///
/// # Example
///
/// ```
/// use cavm_workload::lifecycle::{ArrivalProcess, LifecycleBuilder, LifetimeModel};
///
/// # fn main() -> Result<(), cavm_workload::WorkloadError> {
/// // 24 h of 5 s samples; VMs trickle in every ~20 min and stay ~8 h.
/// let lifecycle = LifecycleBuilder::new(40, 24 * 720)
///     .seed(7)
///     .arrivals(ArrivalProcess::Poisson { mean_gap_samples: 240.0 })
///     .lifetimes(LifetimeModel::Exponential { mean_samples: 8.0 * 720.0 })
///     .sample_dt_s(5.0)
///     .build()?;
/// assert!(lifecycle.max_concurrent() <= lifecycle.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleBuilder {
    vm_count: usize,
    horizon_samples: usize,
    sample_dt_s: f64,
    seed: u64,
    arrivals: ArrivalProcess,
    lifetimes: LifetimeModel,
}

impl LifecycleBuilder {
    /// Starts a builder for `vm_count` VMs over `horizon_samples` fine
    /// samples, defaulting to the closed-world schedule (all at start,
    /// unbounded) on a 5 s grid.
    pub fn new(vm_count: usize, horizon_samples: usize) -> Self {
        Self {
            vm_count,
            horizon_samples,
            sample_dt_s: 5.0,
            seed: 0,
            arrivals: ArrivalProcess::AtStart,
            lifetimes: LifetimeModel::Unbounded,
        }
    }

    /// RNG seed; identical settings and seed give identical schedules.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fine sample interval in seconds (default 5; only the diurnal
    /// arrival process consults it, to convert samples to hours).
    pub fn sample_dt_s(mut self, dt: f64) -> Self {
        self.sample_dt_s = dt;
        self
    }

    /// The arrival process (default: all at start).
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// The lifetime model (default: unbounded).
    pub fn lifetimes(mut self, lifetimes: LifetimeModel) -> Self {
        self.lifetimes = lifetimes;
        self
    }

    /// Synthesizes the schedule. VM ids are assigned in arrival order
    /// (`0..vm_count`); VMs whose drawn arrival falls past the horizon
    /// are dropped, so the result may hold fewer than `vm_count`
    /// entries.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a zero VM count
    /// or horizon, non-positive gaps/means/ranges, or an out-of-range
    /// diurnal shape.
    pub fn build(&self) -> crate::Result<Lifecycle> {
        if self.vm_count == 0 {
            return Err(WorkloadError::InvalidParameter(
                "lifecycle needs at least one VM",
            ));
        }
        if self.horizon_samples == 0 {
            return Err(WorkloadError::InvalidParameter(
                "lifecycle horizon must be at least one sample",
            ));
        }
        if !(self.sample_dt_s > 0.0 && self.sample_dt_s.is_finite()) {
            return Err(WorkloadError::InvalidParameter(
                "sample interval must be finite and > 0",
            ));
        }
        self.validate_processes()?;
        let mut rng = SimRng::new(self.seed);
        let mut entries = Vec::with_capacity(self.vm_count);
        let mut clock = 0.0f64;
        for id in 0..self.vm_count {
            let arrival = match self.arrivals {
                ArrivalProcess::AtStart => 0,
                ArrivalProcess::Poisson { mean_gap_samples } => {
                    if id > 0 {
                        clock += rng
                            .exponential(1.0 / mean_gap_samples)
                            .map_err(WorkloadError::Trace)?;
                    }
                    clock.round() as usize
                }
                ArrivalProcess::Diurnal {
                    mean_gap_samples,
                    peak_hour,
                    width_h,
                    amplitude,
                } => {
                    if id > 0 {
                        // Thinning: draw at the peak rate, accept with
                        // probability rate(t) / peak_rate.
                        let peak_gap = mean_gap_samples / (1.0 + amplitude);
                        loop {
                            clock += rng
                                .exponential(1.0 / peak_gap)
                                .map_err(WorkloadError::Trace)?;
                            if clock >= self.horizon_samples as f64 {
                                break;
                            }
                            let hour = (clock * self.sample_dt_s / 3600.0) % 24.0;
                            let mut d = (hour - peak_hour).abs();
                            d = d.min(24.0 - d);
                            let rate = 1.0 + amplitude * (-0.5 * (d / width_h).powi(2)).exp();
                            if rng.f64() < rate / (1.0 + amplitude) {
                                break;
                            }
                        }
                    }
                    clock.round() as usize
                }
            };
            if arrival >= self.horizon_samples {
                // This and (for monotone processes) all later arrivals
                // fall past the horizon.
                break;
            }
            let lifetime = match self.lifetimes {
                LifetimeModel::Unbounded => None,
                LifetimeModel::Fixed { samples } => Some(samples),
                LifetimeModel::Uniform {
                    min_samples,
                    max_samples,
                } => Some(
                    rng.range_f64(min_samples as f64, max_samples as f64 + 1.0)
                        .floor() as usize,
                ),
                LifetimeModel::Exponential { mean_samples } => Some(
                    rng.exponential(1.0 / mean_samples)
                        .map_err(WorkloadError::Trace)?
                        .round() as usize,
                ),
            };
            // A lifetime that overflows the sample index departs no
            // sooner than the horizon: never, within it.
            let departure_sample = lifetime.and_then(|life| {
                let d = arrival.checked_add(life.max(1))?;
                (d < self.horizon_samples).then_some(d)
            });
            entries.push(LifecycleEntry {
                id,
                arrival_sample: arrival,
                departure_sample,
            });
        }
        Lifecycle::from_entries(entries, self.horizon_samples)
    }

    fn validate_processes(&self) -> crate::Result<()> {
        match self.arrivals {
            ArrivalProcess::AtStart => {}
            ArrivalProcess::Poisson { mean_gap_samples } => {
                if !(mean_gap_samples > 0.0 && mean_gap_samples.is_finite()) {
                    return Err(WorkloadError::InvalidParameter(
                        "poisson mean gap must be finite and > 0",
                    ));
                }
            }
            ArrivalProcess::Diurnal {
                mean_gap_samples,
                peak_hour,
                width_h,
                amplitude,
            } => {
                if !(mean_gap_samples > 0.0 && mean_gap_samples.is_finite()) {
                    return Err(WorkloadError::InvalidParameter(
                        "diurnal mean gap must be finite and > 0",
                    ));
                }
                let width_ok = width_h.is_finite() && width_h > 0.0;
                let amplitude_ok = amplitude.is_finite() && amplitude >= 0.0;
                if !(0.0..24.0).contains(&peak_hour) || !width_ok || !amplitude_ok {
                    return Err(WorkloadError::InvalidParameter(
                        "diurnal shape out of range",
                    ));
                }
            }
        }
        match self.lifetimes {
            LifetimeModel::Unbounded => {}
            LifetimeModel::Fixed { samples } => {
                if samples == 0 {
                    return Err(WorkloadError::InvalidParameter(
                        "fixed lifetime must be at least one sample",
                    ));
                }
            }
            LifetimeModel::Uniform {
                min_samples,
                max_samples,
            } => {
                if min_samples == 0 || max_samples < min_samples {
                    return Err(WorkloadError::InvalidParameter(
                        "uniform lifetime range must be 1 <= min <= max",
                    ));
                }
            }
            LifetimeModel::Exponential { mean_samples } => {
                if !(mean_samples > 0.0 && mean_samples.is_finite()) {
                    return Err(WorkloadError::InvalidParameter(
                        "exponential lifetime mean must be finite and > 0",
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_entries_validates() {
        let e = |id, a, d| LifecycleEntry {
            id,
            arrival_sample: a,
            departure_sample: d,
        };
        assert!(Lifecycle::from_entries(vec![], 0).is_err());
        assert!(Lifecycle::from_entries(vec![e(0, 0, None), e(0, 1, None)], 10).is_err());
        assert!(Lifecycle::from_entries(vec![e(0, 10, None)], 10).is_err());
        assert!(Lifecycle::from_entries(vec![e(0, 5, Some(5))], 10).is_err());
        let lc = Lifecycle::from_entries(vec![e(1, 4, Some(8)), e(0, 2, None)], 10).unwrap();
        // Sorted by arrival.
        assert_eq!(lc.entries()[0].id, 0);
        assert_eq!(lc.len(), 2);
        assert!(!lc.is_empty());
        assert_eq!(lc.horizon_samples(), 10);
    }

    #[test]
    fn live_accounting() {
        let lc = Lifecycle::from_entries(
            vec![
                LifecycleEntry {
                    id: 0,
                    arrival_sample: 0,
                    departure_sample: Some(6),
                },
                LifecycleEntry {
                    id: 1,
                    arrival_sample: 4,
                    departure_sample: None,
                },
            ],
            12,
        )
        .unwrap();
        assert_eq!(lc.live_count_at(0), 1);
        assert_eq!(lc.live_count_at(5), 2);
        assert_eq!(lc.live_count_at(6), 1);
        assert_eq!(lc.max_concurrent(), 2);
        assert!(!lc.is_batch_equivalent());
    }

    #[test]
    fn all_at_start_is_batch_equivalent() {
        let lc = Lifecycle::all_at_start(5, 100).unwrap();
        assert_eq!(lc.len(), 5);
        assert!(lc.is_batch_equivalent());
        assert_eq!(lc.max_concurrent(), 5);
        let built = LifecycleBuilder::new(5, 100).build().unwrap();
        assert_eq!(built, lc);
    }

    #[test]
    fn builder_validates() {
        assert!(LifecycleBuilder::new(0, 100).build().is_err());
        assert!(LifecycleBuilder::new(4, 0).build().is_err());
        assert!(LifecycleBuilder::new(4, 100)
            .sample_dt_s(0.0)
            .build()
            .is_err());
        assert!(LifecycleBuilder::new(4, 100)
            .arrivals(ArrivalProcess::Poisson {
                mean_gap_samples: 0.0
            })
            .build()
            .is_err());
        assert!(LifecycleBuilder::new(4, 100)
            .arrivals(ArrivalProcess::Diurnal {
                mean_gap_samples: 10.0,
                peak_hour: 25.0,
                width_h: 2.0,
                amplitude: 1.0
            })
            .build()
            .is_err());
        assert!(LifecycleBuilder::new(4, 100)
            .lifetimes(LifetimeModel::Fixed { samples: 0 })
            .build()
            .is_err());
        assert!(LifecycleBuilder::new(4, 100)
            .lifetimes(LifetimeModel::Uniform {
                min_samples: 5,
                max_samples: 2
            })
            .build()
            .is_err());
        assert!(LifecycleBuilder::new(4, 100)
            .lifetimes(LifetimeModel::Exponential { mean_samples: 0.0 })
            .build()
            .is_err());
    }

    #[test]
    fn overlong_lifetimes_never_depart_within_the_horizon() {
        // Each model draws a lifetime whose departure index overflows
        // `usize` for any VM arriving after sample 0.
        for lifetimes in [
            LifetimeModel::Fixed {
                samples: usize::MAX,
            },
            LifetimeModel::Exponential {
                mean_samples: 1e300,
            },
            LifetimeModel::Uniform {
                min_samples: usize::MAX - 1,
                max_samples: usize::MAX,
            },
        ] {
            let lc = LifecycleBuilder::new(4, 100)
                .seed(3)
                .arrivals(ArrivalProcess::Poisson {
                    mean_gap_samples: 10.0,
                })
                .lifetimes(lifetimes)
                .build()
                .unwrap();
            assert!(lc.entries().iter().any(|e| e.arrival_sample > 0));
            assert!(lc.entries().iter().all(|e| e.departure_sample.is_none()));
        }
    }

    #[test]
    fn zero_length_lease_draws_are_clamped_to_one_sample() {
        // An exponential lifetime with a tiny mean rounds almost every
        // draw to 0; the builder must clamp each lease to at least one
        // sample so no departure lands at (or before) its arrival.
        let lc = LifecycleBuilder::new(50, 2000)
            .seed(23)
            .arrivals(ArrivalProcess::Poisson {
                mean_gap_samples: 10.0,
            })
            .lifetimes(LifetimeModel::Exponential { mean_samples: 1e-6 })
            .build()
            .unwrap();
        assert!(!lc.is_empty());
        for e in lc.entries() {
            let d = e.departure_sample.expect("tiny leases all end in-horizon");
            assert!(
                d > e.arrival_sample,
                "vm {} departs at {} on/before its arrival {}",
                e.id,
                d,
                e.arrival_sample
            );
            assert_eq!(d, e.arrival_sample + 1, "clamped to exactly one sample");
            // A one-sample lease is live for exactly its arrival tick.
            assert!(e.live_at(e.arrival_sample));
            assert!(!e.live_at(d));
        }
        // Uniform leases degenerate to the same clamp at min == max == 1.
        let lc = LifecycleBuilder::new(5, 100)
            .lifetimes(LifetimeModel::Uniform {
                min_samples: 1,
                max_samples: 1,
            })
            .build()
            .unwrap();
        for e in lc.entries() {
            assert_eq!(e.departure_sample, Some(e.arrival_sample + 1));
        }
    }

    #[test]
    fn max_concurrent_saturates_and_handles_back_to_back_leases() {
        let e = |id, a, d| LifecycleEntry {
            id,
            arrival_sample: a,
            departure_sample: d,
        };
        // Total overlap: the sweep saturates at the fleet size.
        let lc = Lifecycle::from_entries((0..7).map(|id| e(id, 3, Some(40 + id))).collect(), 100)
            .unwrap();
        assert_eq!(lc.max_concurrent(), 7);
        assert_eq!(lc.max_concurrent(), lc.len());
        // Back-to-back handover at the same sample: the departure's -1
        // sorts before the arrival's +1, so the peak is 1, not 2 —
        // matching the replay engine, which applies departures before
        // arrivals at each sample.
        let lc = Lifecycle::from_entries(vec![e(0, 0, Some(10)), e(1, 10, None)], 100).unwrap();
        assert_eq!(lc.max_concurrent(), 1);
        assert_eq!(lc.live_count_at(10), 1);
        // Chains of handovers stay flat too.
        let lc = Lifecycle::from_entries(
            (0..5)
                .map(|id| e(id, id * 10, Some((id + 1) * 10)))
                .collect(),
            100,
        )
        .unwrap();
        assert_eq!(lc.max_concurrent(), 1);
    }

    #[test]
    fn departures_on_period_boundaries_are_exclusive() {
        // A departure scheduled exactly at a period boundary (sample
        // 720 on the paper's 1-hour grid) ends the lease *before* that
        // sample is replayed: live_at is half-open at the departure.
        let entry = LifecycleEntry {
            id: 0,
            arrival_sample: 0,
            departure_sample: Some(720),
        };
        assert!(entry.live_at(719));
        assert!(!entry.live_at(720));
        // A departure exactly at the horizon is valid (the lease fills
        // the run) — the builder only drops departures *past* it.
        let lc = Lifecycle::from_entries(vec![entry], 720).unwrap();
        assert_eq!(lc.live_count_at(719), 1);
        // Builder-side: a fixed lifetime landing exactly on the
        // horizon is recorded as an in-horizon departure only when it
        // is strictly inside it.
        let lc = LifecycleBuilder::new(1, 720)
            .lifetimes(LifetimeModel::Fixed { samples: 720 })
            .build()
            .unwrap();
        assert_eq!(
            lc.entries()[0].departure_sample,
            None,
            "a lease spanning the whole horizon never departs within it"
        );
        let lc = LifecycleBuilder::new(1, 721)
            .lifetimes(LifetimeModel::Fixed { samples: 720 })
            .build()
            .unwrap();
        assert_eq!(lc.entries()[0].departure_sample, Some(720));
    }

    #[test]
    fn poisson_schedules_are_deterministic_and_ordered() {
        let build = || {
            LifecycleBuilder::new(30, 17280)
                .seed(11)
                .arrivals(ArrivalProcess::Poisson {
                    mean_gap_samples: 300.0,
                })
                .lifetimes(LifetimeModel::Uniform {
                    min_samples: 720,
                    max_samples: 4320,
                })
                .build()
                .unwrap()
        };
        let a = build();
        assert_eq!(a, build());
        // Arrivals are non-decreasing and within the horizon; every
        // departure follows its arrival.
        let mut prev = 0;
        for e in a.entries() {
            assert!(e.arrival_sample >= prev);
            assert!(e.arrival_sample < 17280);
            prev = e.arrival_sample;
            if let Some(d) = e.departure_sample {
                assert!(d > e.arrival_sample && d < 17280);
            }
        }
        // Churn really happens: someone arrives after t = 0.
        assert!(a.entries().iter().any(|e| e.arrival_sample > 0));
        assert!(a.max_concurrent() < a.len());
    }

    #[test]
    fn diurnal_arrivals_cluster_around_the_peak() {
        let lc = LifecycleBuilder::new(200, 24 * 720)
            .seed(3)
            .arrivals(ArrivalProcess::Diurnal {
                mean_gap_samples: 200.0,
                peak_hour: 12.0,
                width_h: 3.0,
                amplitude: 4.0,
            })
            .build()
            .unwrap();
        // Count arrivals near the peak (9h–15h) vs the night (21h–3h).
        let hour_of = |s: usize| (s as f64 * 5.0 / 3600.0) % 24.0;
        let near = lc
            .entries()
            .iter()
            .filter(|e| (9.0..15.0).contains(&hour_of(e.arrival_sample)))
            .count();
        let night = lc
            .entries()
            .iter()
            .filter(|e| {
                let h = hour_of(e.arrival_sample);
                !(3.0..21.0).contains(&h)
            })
            .count();
        assert!(
            near > night,
            "diurnal process should rush the peak ({near} near vs {night} night)"
        );
    }
}
