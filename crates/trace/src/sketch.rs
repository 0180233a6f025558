//! Constant-size per-VM demand sketches for cell routing.
//!
//! The placement-cell layer (see `cavm-core::cells`) needs to decide
//! *which cell* an arriving VM belongs to without touching any dense
//! pair structure — a router that is O(cells) per arrival, not O(n).
//! [`MomentSketch`] is the summary that makes this possible: running
//! moments (count / mean / M2 à la Welford), the observed peak, and a
//! small **phase envelope** — mean demand per coarse time-of-day
//! bucket — that captures *when* a VM is busy. Two VMs whose phase
//! envelopes peak in the same buckets are correlated in exactly the
//! sense of the paper's Eqn (1) cost (their peaks coincide), so a
//! router can steer an arrival toward the cell whose aggregate
//! envelope it complements, approximating the correlation-aware
//! objective at a fraction of the dense matrix's cost.
//!
//! The sketch mirrors the [`Reference`] machinery of the exact path:
//! [`MomentSketch::reference`] answers "peak" exactly and "N-th
//! percentile" through a Gaussian moment approximation — cheap,
//! constant-memory, and honest about being an estimate (the dense
//! per-cell `CostMatrix` machinery still owns the exact Eqn (1)/(2)
//! numbers *within* a cell).
//!
//! # Example
//!
//! ```
//! use cavm_trace::{MomentSketch, Reference, TimeSeries};
//!
//! # fn main() -> Result<(), cavm_trace::TraceError> {
//! // A VM busy in the first half of its day.
//! let trace = TimeSeries::from_fn(5.0, 800, |i| if i < 400 { 4.0 } else { 1.0 })?;
//! let sketch = MomentSketch::from_series(&trace, 0, 100)?;
//! assert_eq!(sketch.reference(Reference::Peak), 4.0);
//! let profile = sketch.phase_profile();
//! assert!(profile[0] > profile[7], "busy early, quiet late");
//! # Ok(())
//! # }
//! ```

use crate::{Reference, TimeSeries, TraceError};

/// Number of phase-envelope buckets a sketch folds time into.
///
/// Eight buckets over a diurnal horizon give 3-hour resolution — coarse
/// enough to stay O(1) per sample, fine enough to separate
/// morning-peaking from evening-peaking tenants (the correlation
/// structure the datacenter workload generators synthesize).
pub const PHASE_BUCKETS: usize = 8;

/// Constant-size demand summary: running moments, peak, and a
/// [`PHASE_BUCKETS`]-bucket phase envelope. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentSketch {
    /// Samples per phase bucket (the bucket of sample `s` is
    /// `(s / phase_samples) % PHASE_BUCKETS`).
    phase_samples: usize,
    count: u64,
    mean: f64,
    /// Welford's sum of squared deviations.
    m2: f64,
    peak: f64,
    /// Per-bucket demand sums.
    phase_sum: [f64; PHASE_BUCKETS],
    /// Per-bucket sample counts.
    phase_count: [u64; PHASE_BUCKETS],
}

impl MomentSketch {
    /// Creates an empty sketch whose phase buckets are
    /// `phase_samples` samples wide.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] for zero
    /// `phase_samples`.
    pub fn new(phase_samples: usize) -> crate::Result<Self> {
        if phase_samples == 0 {
            return Err(TraceError::InvalidParameter(
                "sketch phase bucket must be at least one sample",
            ));
        }
        Ok(Self {
            phase_samples,
            count: 0,
            mean: 0.0,
            m2: 0.0,
            peak: f64::NEG_INFINITY,
            phase_sum: [0.0; PHASE_BUCKETS],
            phase_count: [0; PHASE_BUCKETS],
        })
    }

    /// Sketches a whole series whose sample 0 sits at global sample
    /// index `start_sample` (phase buckets are keyed by *global* time,
    /// so two VMs arriving at different instants still compare on the
    /// same clock).
    ///
    /// # Errors
    ///
    /// Propagates [`MomentSketch::new`] validation.
    pub fn from_series(
        series: &TimeSeries,
        start_sample: usize,
        phase_samples: usize,
    ) -> crate::Result<Self> {
        let mut sketch = Self::new(phase_samples)?;
        for (i, &v) in series.values().iter().enumerate() {
            sketch.push(start_sample + i, v);
        }
        Ok(sketch)
    }

    /// Feeds one demand sample observed at global sample index
    /// `sample`.
    pub fn push(&mut self, sample: usize, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        if value > self.peak {
            self.peak = value;
        }
        let bucket = (sample / self.phase_samples) % PHASE_BUCKETS;
        self.phase_sum[bucket] += value;
        self.phase_count[bucket] += 1;
    }

    /// Samples per phase bucket.
    pub fn phase_samples(&self) -> usize {
        self.phase_samples
    }

    /// Samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean, or 0 before any sample.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Observed peak, or 0 before any sample.
    pub fn peak(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.peak
        }
    }

    /// Unbiased sample variance, or 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Reference utilization û under the sketch: exact for
    /// [`Reference::Peak`], a Gaussian moment estimate
    /// `mean + z_p·σ` (clamped to the observed peak) for
    /// [`Reference::Percentile`] — the constant-memory stand-in for
    /// the exact order statistic the dense path computes.
    pub fn reference(&self, reference: Reference) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        match reference {
            Reference::Peak => self.peak,
            Reference::Percentile(p) => {
                let z = normal_quantile((p / 100.0).clamp(1e-6, 1.0 - 1e-6));
                (self.mean + z * self.variance().sqrt()).min(self.peak)
            }
        }
    }

    /// Mean demand per phase bucket (0 for never-observed buckets) —
    /// the envelope the cell router matches arrivals against.
    pub fn phase_profile(&self) -> [f64; PHASE_BUCKETS] {
        let mut profile = [0.0; PHASE_BUCKETS];
        for (b, slot) in profile.iter_mut().enumerate() {
            if self.phase_count[b] > 0 {
                *slot = self.phase_sum[b] / self.phase_count[b] as f64;
            }
        }
        profile
    }
}

/// A whole series' peak and [`PHASE_BUCKETS`]-bucket phase profile —
/// what [`MomentSketch::from_series`] followed by
/// `reference(Reference::Peak)` and [`MomentSketch::phase_profile`]
/// answer, bit for bit, without the running moments the peak never
/// reads. One pass: each run of samples that shares a bucket is summed
/// in sample order into that bucket, as the sketch's per-sample pushes
/// sum it. An empty series reads 0 and an all-zero profile, like an
/// empty sketch.
///
/// # Errors
///
/// Returns [`TraceError::InvalidParameter`] for zero `phase_samples`,
/// as [`MomentSketch::new`] does.
///
/// # Example
///
/// ```
/// use cavm_trace::{peak_and_profile, MomentSketch, Reference, TimeSeries};
///
/// # fn main() -> Result<(), cavm_trace::TraceError> {
/// let trace = TimeSeries::from_fn(5.0, 800, |i| if i < 400 { 4.0 } else { 1.0 })?;
/// let (peak, profile) = peak_and_profile(&trace, 30, 100)?;
/// let sketch = MomentSketch::from_series(&trace, 30, 100)?;
/// assert_eq!(peak, sketch.reference(Reference::Peak));
/// assert_eq!(profile, sketch.phase_profile());
/// # Ok(())
/// # }
/// ```
pub fn peak_and_profile(
    series: &TimeSeries,
    start_sample: usize,
    phase_samples: usize,
) -> crate::Result<(f64, [f64; PHASE_BUCKETS])> {
    MomentSketch::new(phase_samples)?; // the same validation
    let mut rest = series.values();
    if rest.is_empty() {
        return Ok((0.0, [0.0; PHASE_BUCKETS]));
    }
    let mut peak = f64::NEG_INFINITY;
    let mut sum = [0.0; PHASE_BUCKETS];
    let mut count = [0u64; PHASE_BUCKETS];
    let mut bucket = (start_sample / phase_samples) % PHASE_BUCKETS;
    let mut run_len = phase_samples - start_sample % phase_samples;
    while !rest.is_empty() {
        let (run, tail) = rest.split_at(run_len.min(rest.len()));
        let mut acc = sum[bucket];
        for &v in run {
            if v > peak {
                peak = v;
            }
            acc += v;
        }
        sum[bucket] = acc;
        count[bucket] += run.len() as u64;
        rest = tail;
        bucket = (bucket + 1) % PHASE_BUCKETS;
        run_len = phase_samples;
    }
    let mut profile = [0.0; PHASE_BUCKETS];
    for (b, slot) in profile.iter_mut().enumerate() {
        if count[b] > 0 {
            *slot = sum[b] / count[b] as f64;
        }
    }
    Ok((peak, profile))
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 — far below the sketch's own estimation
/// error).
fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn validation_and_empty_defaults() {
        assert!(MomentSketch::new(0).is_err());
        let s = MomentSketch::new(10).unwrap();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.reference(Reference::Peak), 0.0);
        assert_eq!(s.phase_profile(), [0.0; PHASE_BUCKETS]);
    }

    #[test]
    fn moments_match_batch_statistics() {
        let mut rng = SimRng::new(11);
        let values: Vec<f64> = (0..5000).map(|_| rng.lognormal_mean_cv(2.0, 0.5)).collect();
        let series = TimeSeries::new(5.0, values.clone()).unwrap();
        let sketch = MomentSketch::from_series(&series, 0, 625).unwrap();
        assert_eq!(sketch.count(), 5000);
        assert!((sketch.mean() - series.mean()).abs() < 1e-9);
        assert_eq!(sketch.peak(), series.peak());
        let mean = series.mean();
        let var: f64 =
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((sketch.variance() - var).abs() / var < 1e-9);
    }

    #[test]
    fn percentile_reference_approximates_the_exact_order_statistic() {
        let mut rng = SimRng::new(5);
        let values: Vec<f64> = (0..20_000).map(|_| 2.0 + rng.normal(0.0, 0.4)).collect();
        let series = TimeSeries::new(5.0, values).unwrap();
        let sketch = MomentSketch::from_series(&series, 0, 2500).unwrap();
        let exact = series.percentile(95.0).unwrap();
        let approx = sketch.reference(Reference::Percentile(95.0));
        // Gaussian data: the moment estimate should land within a few
        // percent of the exact P95.
        assert!(
            (approx - exact).abs() / exact < 0.05,
            "approx {approx} vs exact {exact}"
        );
        assert!(approx <= sketch.peak());
    }

    #[test]
    fn phase_profile_separates_busy_buckets() {
        // 80 samples per bucket; busy during buckets 2 and 3 only.
        let series = TimeSeries::from_fn(5.0, 640, |i| {
            let bucket = i / 80;
            if bucket == 2 || bucket == 3 {
                6.0
            } else {
                0.5
            }
        })
        .unwrap();
        let sketch = MomentSketch::from_series(&series, 0, 80).unwrap();
        let profile = sketch.phase_profile();
        assert!((profile[2] - 6.0).abs() < 1e-12);
        assert!((profile[3] - 6.0).abs() < 1e-12);
        assert!((profile[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arrival_offset_keys_buckets_by_global_time() {
        let series = TimeSeries::constant(5.0, 80, 3.0).unwrap();
        // Arriving 160 samples into the day lands entirely in bucket 2.
        let sketch = MomentSketch::from_series(&series, 160, 80).unwrap();
        let profile = sketch.phase_profile();
        assert!((profile[2] - 3.0).abs() < 1e-12);
        assert_eq!(profile[0], 0.0);
    }

    #[test]
    fn normal_quantile_hits_known_points() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.95) - 1.644854).abs() < 1e-4);
        assert!((normal_quantile(0.05) + 1.644854).abs() < 1e-4);
        assert!((normal_quantile(0.001) + 3.090232).abs() < 1e-4);
    }
}
