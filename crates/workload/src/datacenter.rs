//! Datacenter utilization-trace synthesis (paper Setup-2).
//!
//! The paper's large-scale evaluation uses one day of per-VM CPU
//! utilization from a production datacenter: 5-minute samples, refined to
//! 5-second samples "with a lognormal random number generator whose mean
//! is the same as the collected value for the corresponding 5-minute
//! sample" (citing Benson et al. for the lognormality of datacenter
//! traffic). The original traces are proprietary (Credit Suisse), so this
//! module synthesizes statistically equivalent ones:
//!
//! * each **group** of VMs (a service / cluster) follows a shared daily
//!   [`DailyArchetype`] — diurnal bumps, flat lines, bursty services, or
//!   abrupt surges. Sharing the profile is what creates the high
//!   *intra-cluster correlation* the paper exploits;
//! * each VM scales its group profile (siblings of one service are
//!   near-identical in size) and adds idiosyncratic smooth noise (AR(1)
//!   on the 5-minute grid);
//! * the 5-minute means are then refined to 5-second samples with the
//!   paper's own lognormal procedure, modulated by two-state **Markov
//!   burst chains** (multi-minute durations), with 60% of burst
//!   states *synchronized* within a group — group-mates
//!   surge together, which is what makes correlation-blind co-location
//!   dangerous.
//!
//! The result intentionally has the property that makes the PCP baseline
//! degenerate in the paper ("PCP classifies VMs into only 1 cluster
//! during most of the time periods"): burst activity scatters every
//! VM's 90th-percentile envelope across the whole hour, so envelopes
//! always overlap.

use crate::WorkloadError;
use cavm_trace::{SimRng, TimeSeries};

/// Shape of a group's daily 5-minute mean-utilization profile.
///
/// Utilization values are in units of physical cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DailyArchetype {
    /// A smooth diurnal bump: `base` outside working hours, rising to
    /// `peak` around `peak_hour` with Gaussian width `width_h` hours
    /// (circular in the 24 h day).
    Diurnal {
        /// Off-hours level, cores.
        base: f64,
        /// Peak level, cores.
        peak: f64,
        /// Hour of the day (0–24) of the peak.
        peak_hour: f64,
        /// Gaussian width of the bump, hours.
        width_h: f64,
    },
    /// A constant level (idle background services).
    Flat {
        /// Constant level, cores.
        level: f64,
    },
    /// `base` plus several short bumps at random hours (batch jobs).
    Bursty {
        /// Background level, cores.
        base: f64,
        /// Additional height of each burst, cores.
        burst_height: f64,
        /// Expected number of bursts per day.
        bursts_per_day: f64,
    },
    /// A step function: `base`, jumping abruptly to `surge_level` during
    /// `[start_hour, start_hour + duration_h)`. Abrupt steps are what
    /// defeat the last-value predictor and cause the violations of
    /// Table II.
    Surge {
        /// Pre/post-surge level, cores.
        base: f64,
        /// Level during the surge, cores.
        surge_level: f64,
        /// Hour the surge starts.
        start_hour: f64,
        /// Surge duration in hours.
        duration_h: f64,
    },
}

impl DailyArchetype {
    /// Mean utilization (cores) of this archetype at `hour ∈ [0, 24)`,
    /// with bursts materialized at `burst_hours`. Shared with the
    /// `dataset::SyntheticTrace` demand models.
    pub(crate) fn mean_at(&self, hour: f64, burst_hours: &[f64]) -> f64 {
        match *self {
            DailyArchetype::Diurnal {
                base,
                peak,
                peak_hour,
                width_h,
            } => {
                // Circular distance within the 24 h day.
                let mut d = (hour - peak_hour).abs();
                d = d.min(24.0 - d);
                base + (peak - base) * (-0.5 * (d / width_h).powi(2)).exp()
            }
            DailyArchetype::Flat { level } => level,
            DailyArchetype::Bursty {
                base, burst_height, ..
            } => {
                let mut v = base;
                for &b in burst_hours {
                    let mut d = (hour - b).abs();
                    d = d.min(24.0 - d);
                    // Each burst is a narrow bump (~20 minutes wide).
                    v += burst_height * (-0.5 * (d / 0.33f64).powi(2)).exp();
                }
                v
            }
            DailyArchetype::Surge {
                base,
                surge_level,
                start_hour,
                duration_h,
            } => {
                if hour >= start_hour && hour < start_hour + duration_h {
                    surge_level
                } else {
                    base
                }
            }
        }
    }

    /// Validates the archetype's numeric ranges.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        let ok = match *self {
            DailyArchetype::Diurnal {
                base,
                peak,
                peak_hour,
                width_h,
            } => base >= 0.0 && peak >= base && (0.0..24.0).contains(&peak_hour) && width_h > 0.0,
            DailyArchetype::Flat { level } => level >= 0.0,
            DailyArchetype::Bursty {
                base,
                burst_height,
                bursts_per_day,
            } => base >= 0.0 && burst_height >= 0.0 && bursts_per_day >= 0.0,
            DailyArchetype::Surge {
                base,
                surge_level,
                start_hour,
                duration_h,
            } => {
                base >= 0.0
                    && surge_level >= 0.0
                    && (0.0..24.0).contains(&start_hour)
                    && duration_h > 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(WorkloadError::InvalidParameter(
                "archetype parameters out of range",
            ))
        }
    }
}

/// One synthesized VM: its coarse (5-minute) and fine (5-second) demand
/// traces, in cores.
#[derive(Debug, Clone, PartialEq)]
pub struct VmTrace {
    /// Stable identifier (index in the fleet at generation time).
    pub id: usize,
    /// Human-readable name, e.g. `"vm07"`.
    pub name: String,
    /// Index of the correlated group (service) this VM belongs to.
    pub group: usize,
    /// 5-minute mean samples.
    pub coarse: TimeSeries,
    /// Lognormal-refined fine samples.
    pub fine: TimeSeries,
}

/// A set of synthesized VM traces.
#[derive(Debug, Clone, PartialEq)]
pub struct VmFleet {
    vms: Vec<VmTrace>,
    groups: usize,
}

impl VmFleet {
    /// Builds a fleet directly from per-VM traces (the
    /// [`dataset`](crate::dataset) ingestion path; synthetic fleets
    /// come from [`DatacenterTraceBuilder`]).
    ///
    /// Ids are reassigned to positional order — the replay engine
    /// indexes fleets positionally — and every trace must share one
    /// fine sampling grid. The group count is inferred from the
    /// largest group index present.
    pub fn from_traces(mut vms: Vec<VmTrace>) -> crate::Result<VmFleet> {
        let first = vms.first().ok_or(WorkloadError::InvalidParameter(
            "fleet needs at least one VM",
        ))?;
        let (len, dt) = (first.fine.len(), first.fine.dt());
        if vms.iter().any(|v| v.fine.len() != len || v.fine.dt() != dt) {
            return Err(WorkloadError::InvalidParameter(
                "all fleet traces must share one fine sampling grid",
            ));
        }
        let groups = vms.iter().map(|v| v.group + 1).max().unwrap_or(1);
        for (id, vm) in vms.iter_mut().enumerate() {
            vm.id = id;
        }
        Ok(VmFleet { vms, groups })
    }

    /// The VMs, in id order.
    pub fn vms(&self) -> &[VmTrace] {
        &self.vms
    }

    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// `true` when the fleet holds no VMs.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Number of correlated groups the fleet was generated with.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Fine-grained traces, in VM order.
    pub fn traces(&self) -> Vec<&TimeSeries> {
        self.vms.iter().map(|v| &v.fine).collect()
    }

    /// The paper keeps only the busiest VMs: "we selected the top 40 VMs
    /// in terms of CPU utilization". Returns a new fleet with the `n`
    /// VMs of largest mean fine utilization (ids preserved), in
    /// descending order of mean utilization.
    pub fn select_top(&self, n: usize) -> VmFleet {
        let mut order: Vec<usize> = (0..self.vms.len()).collect();
        order.sort_by(|&a, &b| {
            self.vms[b]
                .fine
                .mean()
                .partial_cmp(&self.vms[a].fine.mean())
                .expect("finite means")
        });
        let vms = order
            .into_iter()
            .take(n)
            .map(|i| self.vms[i].clone())
            .collect();
        VmFleet {
            vms,
            groups: self.groups,
        }
    }
}

/// Coarse sampling interval of every synthesized trace, seconds: the
/// paper's 5-minute production samples.
const COARSE_DT_S: f64 = 300.0;

/// Fine sampling interval, seconds: the paper's 5-second refinement.
const FINE_DT_S: f64 = 5.0;

/// Fine samples per coarse sample (60).
const REFINE_FACTOR: usize = (COARSE_DT_S / FINE_DT_S) as usize;

/// Coefficient of variation of the lognormal refinement (0.15). The
/// sustained Markov bursts carry most of the fine-grained variability,
/// so the i.i.d. lognormal on top of them stays narrow.
const REFINE_CV: f64 = 0.15;

/// Probability that a VM's burst state in a given 5 s slot is *shared*
/// with its group (0.6). Shared bursts are what make naive co-location
/// of group-mates violate capacity together.
const GROUP_SPIKE_SYNC: f64 = 0.6;

/// Relative height of sustained bursts (0.5: a bursting VM runs 50%
/// above its smoothed level). Bursts follow a two-state Markov chain so
/// that over-utilization episodes last minutes, as in real traces,
/// instead of isolated 5 s samples.
const BURST_AMPLITUDE: f64 = 0.5;

/// Stationary fraction of time spent bursting (0.15).
const BURST_ON_FRACTION: f64 = 0.15;

/// Mean burst duration in fine samples (36 = 3 min of 5 s samples).
const BURST_DURATION_SAMPLES: usize = 36;

/// Amplitude of per-VM smooth idiosyncratic noise on the coarse grid
/// (0.10 = ±10%).
const IDIO_NOISE: f64 = 0.10;

/// Per-VM utilization cap in cores: a VM cannot use more cores than
/// the paper's 8-core host exposes, so no coarse or fine sample of a
/// synthesized trace exceeds it.
pub const VM_CAP_CORES: f64 = 8.0;

/// Builder for synthetic datacenter fleets.
///
/// Every trace is 5-minute means refined to 5-second samples, capped at
/// [`VM_CAP_CORES`]; the VM count, group count, seed, duration, per-VM
/// scale range and idle fraction are the settable inputs.
///
/// [`build`](Self::build) fills the VMs on every core, each thread a
/// contiguous chunk of ids. Its output does not depend on the core
/// count: each VM draws from its own stream forked from the seed, and
/// the group profiles and shared burst chains are drawn before any VM
/// starts.
///
/// # Example
///
/// ```
/// use cavm_workload::datacenter::DatacenterTraceBuilder;
///
/// # fn main() -> Result<(), cavm_workload::WorkloadError> {
/// let fleet = DatacenterTraceBuilder::new(12)
///     .groups(3)
///     .seed(42)
///     .duration_hours(24.0)
///     .build()?;
/// assert_eq!(fleet.len(), 12);
/// // 24 h of 5 s samples.
/// assert_eq!(fleet.traces()[0].len(), 24 * 720);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterTraceBuilder {
    vm_count: usize,
    groups: usize,
    seed: u64,
    duration_hours: f64,
    vm_scale_range: (f64, f64),
    idle_fraction: f64,
}

impl DatacenterTraceBuilder {
    /// Starts a builder for `vm_count` VMs with the paper-flavoured
    /// defaults: 24 h, 8 correlated groups, per-VM scales 0.6–1.6, no
    /// idle VMs.
    pub fn new(vm_count: usize) -> Self {
        Self {
            vm_count,
            groups: 8,
            seed: 0,
            duration_hours: 24.0,
            vm_scale_range: (0.6, 1.6),
            idle_fraction: 0.0,
        }
    }

    /// Number of correlated groups (services). VMs are dealt to groups
    /// round-robin. Clamped to at least 1 and at most the VM count at
    /// build time.
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// RNG seed; every build with the same parameters and seed yields
    /// identical traces.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trace duration in hours (default 24).
    pub fn duration_hours(mut self, hours: f64) -> Self {
        self.duration_hours = hours;
        self
    }

    /// Range of per-VM scale factors applied to the group profile
    /// (default 0.6–1.6: group members are siblings, not clones).
    pub fn vm_scale_range(mut self, lo: f64, hi: f64) -> Self {
        self.vm_scale_range = (lo, hi);
        self
    }

    /// Fraction of VMs that are severely under-utilized background noise
    /// (default 0.0). Set this above zero and use
    /// [`VmFleet::select_top`] to reproduce the paper's "top 40 VMs"
    /// selection from a larger population.
    pub fn idle_fraction(mut self, fraction: f64) -> Self {
        self.idle_fraction = fraction;
        self
    }

    /// Fills `chain` with a two-state Markov burst chain with stationary
    /// on-fraction [`BURST_ON_FRACTION`] and mean burst duration
    /// [`BURST_DURATION_SAMPLES`], one state per slot.
    fn burst_chain(chain: &mut [bool], rng: &mut SimRng) {
        let p_on = BURST_ON_FRACTION;
        let exit = 1.0 / BURST_DURATION_SAMPLES as f64;
        // Stationarity: p_on · exit = (1 - p_on) · enter.
        let enter = p_on * exit / (1.0 - p_on);
        let mut state = rng.bernoulli(p_on);
        for slot in chain {
            *slot = state;
            state = if state {
                !rng.bernoulli(exit)
            } else {
                rng.bernoulli(enter)
            };
        }
    }

    fn default_palette(rng: &mut SimRng) -> Vec<DailyArchetype> {
        vec![
            DailyArchetype::Diurnal {
                base: 0.4,
                peak: 2.6,
                peak_hour: 10.0 + rng.range_f64(-1.0, 1.0),
                width_h: 3.0,
            },
            DailyArchetype::Diurnal {
                base: 0.5,
                peak: 2.2,
                peak_hour: 14.5 + rng.range_f64(-1.0, 1.0),
                width_h: 2.5,
            },
            DailyArchetype::Surge {
                base: 0.7,
                surge_level: 1.7,
                start_hour: 8.0 + rng.range_f64(0.0, 4.0),
                duration_h: 2.0,
            },
            DailyArchetype::Bursty {
                base: 0.7,
                burst_height: 0.9,
                bursts_per_day: 5.0,
            },
            DailyArchetype::Diurnal {
                base: 0.4,
                peak: 2.4,
                peak_hour: 20.0 + rng.range_f64(-1.5, 1.5),
                width_h: 3.5,
            },
            DailyArchetype::Surge {
                base: 0.6,
                surge_level: 1.5,
                start_hour: 15.0 + rng.range_f64(0.0, 3.0),
                duration_h: 1.5,
            },
            DailyArchetype::Flat { level: 1.1 },
            DailyArchetype::Bursty {
                base: 0.5,
                burst_height: 1.1,
                bursts_per_day: 3.0,
            },
        ]
    }

    /// Synthesizes the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for inconsistent
    /// builder settings (zero VMs, a duration that is not positive,
    /// shorter than one 5-minute sample or too long for its 5-second
    /// grid to fit in memory, bad ranges) and propagates trace errors.
    pub fn build(&self) -> crate::Result<VmFleet> {
        self.build_threads(default_threads())
    }

    /// [`build`](Self::build) with the per-VM fill spread over at most
    /// `threads` threads (the calling thread among them), as given.
    fn build_threads(&self, threads: usize) -> crate::Result<VmFleet> {
        if self.vm_count == 0 {
            return Err(WorkloadError::InvalidParameter(
                "fleet needs at least one VM",
            ));
        }
        if !(self.duration_hours > 0.0 && self.duration_hours.is_finite()) {
            return Err(WorkloadError::InvalidParameter("duration must be > 0"));
        }
        if !(0.0..=1.0).contains(&self.idle_fraction) {
            return Err(WorkloadError::InvalidParameter(
                "idle fraction must be in [0, 1]",
            ));
        }
        let (scale_lo, scale_hi) = self.vm_scale_range;
        if !(scale_lo > 0.0 && scale_hi >= scale_lo) {
            return Err(WorkloadError::InvalidParameter(
                "vm scale range must be 0 < lo <= hi",
            ));
        }

        let groups = self.groups.clamp(1, self.vm_count);
        let mut root = SimRng::new(self.seed);
        let palette = Self::default_palette(&mut root);

        // Saturates for absurd durations; the checked product below
        // then refuses them before anything is allocated.
        let coarse_samples = (self.duration_hours * 3600.0 / COARSE_DT_S).round() as usize;
        if coarse_samples == 0 {
            return Err(WorkloadError::InvalidParameter(
                "duration shorter than one coarse sample",
            ));
        }
        let fine_samples = coarse_samples
            .checked_mul(REFINE_FACTOR)
            .filter(|&n| n <= isize::MAX as usize / std::mem::size_of::<f64>())
            .ok_or(WorkloadError::InvalidParameter(
                "duration too long for its fine sample grid",
            ))?;

        // Per-group: archetype, burst times, a common size scale (the
        // VMs of one service are siblings — near-identical nodes behind
        // the same load balancer), and the *shared* fine burst chains.
        let mut group_archetype = Vec::with_capacity(groups);
        let mut group_bursts: Vec<Vec<f64>> = Vec::with_capacity(groups);
        let mut group_scale: Vec<f64> = Vec::with_capacity(groups);
        let mut group_rngs: Vec<SimRng> = Vec::with_capacity(groups);
        for g in 0..groups {
            let arch = palette[g % palette.len()];
            let mut grng = root.fork(1000 + g as u64);
            let bursts = match arch {
                DailyArchetype::Bursty { bursts_per_day, .. } => {
                    let k = grng.poisson(bursts_per_day).map_err(WorkloadError::Trace)?;
                    (0..k).map(|_| grng.range_f64(0.0, 24.0)).collect()
                }
                _ => Vec::new(),
            };
            group_archetype.push(arch);
            group_bursts.push(bursts);
            group_scale.push(grng.range_f64(scale_lo, scale_hi));
            group_rngs.push(grng);
        }

        // Pre-draw the shared (group-level) burst chains per fine slot.
        let mut group_bursts_fine: Vec<Vec<bool>> = Vec::with_capacity(groups);
        for grng in group_rngs.iter_mut() {
            let mut chain = vec![false; fine_samples];
            Self::burst_chain(&mut chain, grng);
            group_bursts_fine.push(chain);
        }
        // Burst factors are normalized so the per-slot mean stays 1 and
        // the paper's "lognormal with matching mean" property holds.
        let burst_norm = 1.0 + BURST_AMPLITUDE * BURST_ON_FRACTION;
        let noise = RefineNoise::new();

        // One VM's traces, from its own forked stream alone: no VM
        // reads another's draws, so the fill may run on any thread.
        let fill_vm =
            |id: usize, coarse: &mut Vec<f64>, fine: &mut Vec<f64>, own_bursts: &mut [bool]| {
                let group = id % groups;
                let mut vrng = root.fork(2_000_000 + id as u64);
                let idle = vrng.f64() < self.idle_fraction;
                let scale = if idle {
                    vrng.range_f64(0.01, 0.08)
                } else {
                    // Sibling nodes of one service are near-identical in
                    // size: group scale ± 10%.
                    group_scale[group] * vrng.range_f64(0.9, 1.1)
                };

                // Coarse profile: group archetype × VM scale × AR(1) noise.
                let mut ar = 0.0;
                for s in 0..coarse_samples {
                    let hour = (s as f64 * COARSE_DT_S / 3600.0) % 24.0;
                    let base = group_archetype[group].mean_at(hour, &group_bursts[group]);
                    ar = 0.8 * ar + 0.2 * vrng.normal(0.0, IDIO_NOISE);
                    let v = (base * scale * (1.0 + ar)).clamp(0.0, VM_CAP_CORES);
                    coarse.push(v);
                }

                // Fine refinement: sustained Markov bursts (shared with the
                // group with probability `GROUP_SPIKE_SYNC`, so group-mates
                // surge together) modulated by an i.i.d. lognormal whose
                // mean matches the coarse sample — the paper's refinement
                // with realistic multi-minute burst durations.
                Self::burst_chain(own_bursts, &mut vrng);
                for (s, &mean) in coarse.iter().enumerate() {
                    for sub in 0..REFINE_FACTOR {
                        let slot = s * REFINE_FACTOR + sub;
                        let bursting = if vrng.bernoulli(GROUP_SPIKE_SYNC) {
                            group_bursts_fine[group][slot]
                        } else {
                            own_bursts[slot]
                        };
                        let burst_factor = if bursting {
                            (1.0 + BURST_AMPLITUDE) / burst_norm
                        } else {
                            1.0 / burst_norm
                        };
                        fine.push((mean * burst_factor * noise.draw(&mut vrng)).min(VM_CAP_CORES));
                    }
                }
            };

        // Every buffer is allocated here, at its final size, so the
        // traces live in the calling thread's heap; workers only fill.
        // Each takes a contiguous chunk of ids and one own-burst scratch.
        let mut buffers: Vec<(Vec<f64>, Vec<f64>)> = (0..self.vm_count)
            .map(|_| {
                (
                    Vec::with_capacity(coarse_samples),
                    Vec::with_capacity(fine_samples),
                )
            })
            .collect();
        let chunk = self.vm_count.div_ceil(threads.clamp(1, self.vm_count));
        let mut scratch: Vec<Vec<bool>> = (0..self.vm_count.div_ceil(chunk))
            .map(|_| vec![false; fine_samples])
            .collect();
        std::thread::scope(|scope| {
            let fill_vm = &fill_vm;
            let mut jobs = buffers.chunks_mut(chunk).zip(&mut scratch).enumerate().map(
                |(k, (part, own_bursts))| {
                    move || {
                        for (i, (coarse, fine)) in part.iter_mut().enumerate() {
                            fill_vm(k * chunk + i, coarse, fine, own_bursts);
                        }
                    }
                },
            );
            let first = jobs.next();
            for job in jobs {
                scope.spawn(job);
            }
            if let Some(mut job) = first {
                job();
            }
        });

        let mut vms = Vec::with_capacity(self.vm_count);
        for (id, (coarse, fine)) in buffers.into_iter().enumerate() {
            vms.push(VmTrace {
                id,
                name: format!("vm{id:03}"),
                group: id % groups,
                coarse: TimeSeries::new(COARSE_DT_S, coarse)?,
                fine: TimeSeries::new(FINE_DT_S, fine)?,
            });
        }
        Ok(VmFleet { vms, groups })
    }
}

/// `SimRng::lognormal_mean_cv(1.0, REFINE_CV)` with its constants
/// computed once: the same float operations in the same order, so each
/// draw is bit-identical to the per-call form.
struct RefineNoise {
    mu: f64,
    sigma: f64,
}

impl RefineNoise {
    fn new() -> Self {
        let sigma2 = (1.0 + REFINE_CV * REFINE_CV).ln();
        RefineNoise {
            mu: 1.0f64.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    fn draw(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
}

/// Threads [`DatacenterTraceBuilder::build`] spreads its VMs over: the
/// host's cores. `available_parallelism` is a syscall and a
/// multi-session host builds one fleet per session, so it is resolved
/// once.
fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(seed: u64) -> VmFleet {
        DatacenterTraceBuilder::new(12)
            .groups(3)
            .seed(seed)
            .duration_hours(4.0)
            .build()
            .unwrap()
    }

    #[test]
    fn build_validates_parameters() {
        assert!(DatacenterTraceBuilder::new(0).build().is_err());
        assert!(DatacenterTraceBuilder::new(2)
            .duration_hours(0.0)
            .build()
            .is_err());
        // Shorter than one 5-minute sample.
        assert!(DatacenterTraceBuilder::new(2)
            .duration_hours(0.01)
            .build()
            .is_err());
        assert!(DatacenterTraceBuilder::new(2)
            .vm_scale_range(0.0, 1.0)
            .build()
            .is_err());
        assert!(DatacenterTraceBuilder::new(2)
            .idle_fraction(2.0)
            .build()
            .is_err());
    }

    #[test]
    fn build_is_deterministic() {
        let a = small_fleet(7);
        let b = small_fleet(7);
        assert_eq!(a, b);
        let c = small_fleet(8);
        assert_ne!(a, c);
    }

    #[test]
    fn dimensions_are_consistent() {
        let fleet = small_fleet(1);
        assert_eq!(fleet.len(), 12);
        assert_eq!(fleet.groups(), 3);
        for vm in fleet.vms() {
            assert_eq!(vm.coarse.len(), 4 * 12); // 4 h of 5-min samples
            assert_eq!(vm.fine.len(), 4 * 720); // 4 h of 5-s samples
            assert_eq!(vm.fine.len(), vm.coarse.len() * 60);
        }
    }

    #[test]
    fn traces_are_nonnegative_and_capped() {
        // Scales this large push the group profiles past the cap, so
        // the cap binds.
        let fleet = DatacenterTraceBuilder::new(6)
            .seed(3)
            .duration_hours(6.0)
            .vm_scale_range(3.0, 6.0)
            .build()
            .unwrap();
        for vm in fleet.vms() {
            assert!(vm.fine.min() >= 0.0);
            assert!(vm.fine.peak() <= VM_CAP_CORES);
            assert!(vm.coarse.peak() <= VM_CAP_CORES);
        }
        assert!(fleet.vms().iter().any(|vm| vm.fine.peak() == VM_CAP_CORES));
    }

    #[test]
    fn refinement_preserves_coarse_means() {
        let fleet = DatacenterTraceBuilder::new(4)
            .groups(2)
            .seed(11)
            .duration_hours(24.0)
            .build()
            .unwrap();
        for vm in fleet.vms() {
            // Compare means over the whole day; lognormal refinement is
            // mean-preserving in expectation.
            let coarse_mean = vm.coarse.mean();
            let fine_mean = vm.fine.mean();
            assert!(
                (fine_mean - coarse_mean).abs() / coarse_mean.max(0.05) < 0.1,
                "vm {}: coarse {coarse_mean} vs fine {fine_mean}",
                vm.id
            );
        }
    }

    #[test]
    fn group_members_are_correlated_on_coarse_grid() {
        let fleet = DatacenterTraceBuilder::new(8)
            .groups(4)
            .seed(21)
            .duration_hours(24.0)
            .build()
            .unwrap();
        // VMs 0 and 4 share group 0; 1 and 5 share group 1; etc.
        for g in 0..4 {
            let a = &fleet.vms()[g].coarse;
            let b = &fleet.vms()[g + 4].coarse;
            assert_eq!(fleet.vms()[g].group, fleet.vms()[g + 4].group);
            let pearson = pearson(a.values(), b.values());
            assert!(pearson > 0.6, "group {g} coarse correlation {pearson}");
        }
    }

    #[test]
    fn select_top_keeps_busiest() {
        let fleet = DatacenterTraceBuilder::new(30)
            .groups(5)
            .seed(33)
            .duration_hours(2.0)
            .idle_fraction(0.5)
            .build()
            .unwrap();
        let top = fleet.select_top(10);
        assert_eq!(top.len(), 10);
        let min_top = top
            .vms()
            .iter()
            .map(|v| v.fine.mean())
            .fold(f64::INFINITY, f64::min);
        // Every non-selected VM has mean <= the smallest selected mean.
        let selected: std::collections::HashSet<usize> = top.vms().iter().map(|v| v.id).collect();
        for vm in fleet.vms() {
            if !selected.contains(&vm.id) {
                assert!(vm.fine.mean() <= min_top + 1e-12);
            }
        }
        // Oversized request returns everything.
        assert_eq!(fleet.select_top(100).len(), 30);
    }

    #[test]
    fn surge_archetype_is_a_step() {
        let arch = DailyArchetype::Surge {
            base: 0.5,
            surge_level: 3.0,
            start_hour: 10.0,
            duration_h: 2.0,
        };
        assert_eq!(arch.mean_at(9.9, &[]), 0.5);
        assert_eq!(arch.mean_at(10.0, &[]), 3.0);
        assert_eq!(arch.mean_at(11.9, &[]), 3.0);
        assert_eq!(arch.mean_at(12.0, &[]), 0.5);
    }

    #[test]
    fn diurnal_peaks_at_peak_hour_circularly() {
        let arch = DailyArchetype::Diurnal {
            base: 0.2,
            peak: 2.0,
            peak_hour: 23.0,
            width_h: 2.0,
        };
        let at_peak = arch.mean_at(23.0, &[]);
        assert!((at_peak - 2.0).abs() < 1e-9);
        // 0.5 h after midnight is 1.5 h from the peak, circularly.
        let wrapped = arch.mean_at(0.5, &[]);
        let direct = arch.mean_at(21.5, &[]);
        assert!((wrapped - direct).abs() < 1e-9);
    }

    /// FNV-1a (64-bit) over the bit patterns of every coarse sample,
    /// then every fine sample, of every VM in id order.
    fn fleet_digest(fleet: &VmFleet) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for vm in fleet.vms() {
            for &x in vm.coarse.values().iter().chain(vm.fine.values()) {
                for byte in x.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn traces_match_their_pinned_digests() {
        // One session of the benchmark's `service-day` and a 96-VM
        // default fleet. Any change to the draws, their order or the
        // float operations on them moves these digests.
        let session = DatacenterTraceBuilder::new(16)
            .groups(4)
            .seed(2013)
            .duration_hours(24.0)
            .vm_scale_range(0.35, 1.05)
            .build()
            .unwrap();
        let fleet96 = DatacenterTraceBuilder::new(96).seed(7).build().unwrap();
        assert_eq!(fleet_digest(&session), 0x7400_1200_aacc_d981);
        assert_eq!(fleet_digest(&fleet96), 0x0135_02b8_bc47_51fb);
    }

    #[test]
    fn fill_is_thread_count_independent() {
        for builder in [
            DatacenterTraceBuilder::new(16)
                .groups(4)
                .seed(2013)
                .duration_hours(6.0)
                .vm_scale_range(0.35, 1.05),
            DatacenterTraceBuilder::new(13)
                .groups(5)
                .seed(9)
                .duration_hours(3.0)
                .idle_fraction(0.3),
        ] {
            let want = builder.build().unwrap();
            for threads in [1, 2, 3, 16, builder.vm_count + 3] {
                assert_eq!(
                    builder.build_threads(threads).unwrap(),
                    want,
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn refine_noise_matches_lognormal_mean_cv_bitwise() {
        let noise = RefineNoise::new();
        let mut a = SimRng::new(0x5eed);
        let mut b = SimRng::new(0x5eed);
        for _ in 0..100_000 {
            assert_eq!(
                noise.draw(&mut a).to_bits(),
                b.lognormal_mean_cv(1.0, REFINE_CV).to_bits()
            );
        }
    }

    #[test]
    fn absurd_durations_are_refused_before_allocating() {
        // 1e300 h saturates the coarse count; 1e18 h overflows the
        // fine count. Either would otherwise reach the allocator.
        for hours in [1e300, 1e18] {
            assert!(matches!(
                DatacenterTraceBuilder::new(2).duration_hours(hours).build(),
                Err(WorkloadError::InvalidParameter(_))
            ));
        }
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for i in 0..a.len() {
            cov += (a[i] - ma) * (b[i] - mb);
            va += (a[i] - ma).powi(2);
            vb += (b[i] - mb).powi(2);
        }
        cov / (va.sqrt() * vb.sqrt())
    }
}
