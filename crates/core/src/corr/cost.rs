//! The paper's correlation cost function (Eqn 1).
//!
//! For two VMs *i*, *j* with reference utilizations û (peak or N-th
//! percentile):
//!
//! ```text
//!                û(VMi) + û(VMj)
//! Cost_vm_ij = ───────────────────
//!                 û(VMi + VMj)
//! ```
//!
//! The numerator is the worst-case aggregate peak (peaks coinciding);
//! the denominator is the *actual* aggregate peak when the VMs are
//! co-located. **Higher cost ⇒ lower correlation** ⇒ better co-location
//! candidates. Under peak reference the value lies in `[1, 2]`:
//! `max(a+b) ≤ max(a)+max(b)` gives the lower bound and
//! `max(a+b) ≥ max(max(a), max(b))` the upper.

use crate::CoreError;
use cavm_trace::{P2Quantile, Reference, StreamingPeak, TimeSeries};

/// When the aggregate reference utilization is below this, both signals
/// are considered idle and the cost defaults to the uncorrelated maximum.
const IDLE_EPS: f64 = 1e-12;

/// Streaming reference-utilization tracker: a running peak or a P²
/// percentile estimator, depending on the [`Reference`].
#[derive(Debug, Clone)]
enum RefTracker {
    Peak(StreamingPeak),
    Percentile(P2Quantile),
}

impl RefTracker {
    fn new(reference: Reference) -> crate::Result<Self> {
        match reference {
            Reference::Peak => Ok(RefTracker::Peak(StreamingPeak::new())),
            Reference::Percentile(p) => {
                if !(0.0..=100.0).contains(&p) || p == 0.0 || p == 100.0 {
                    return Err(CoreError::InvalidParameter(
                        "streaming percentile reference must lie in (0, 100)",
                    ));
                }
                Ok(RefTracker::Percentile(
                    P2Quantile::new(p / 100.0).map_err(CoreError::Trace)?,
                ))
            }
        }
    }

    fn push(&mut self, x: f64) {
        match self {
            RefTracker::Peak(t) => t.push(x),
            RefTracker::Percentile(t) => t.push(x),
        }
    }

    fn value(&self) -> Option<f64> {
        match self {
            RefTracker::Peak(t) => {
                if t.count() == 0 {
                    None
                } else {
                    Some(t.peak())
                }
            }
            RefTracker::Percentile(t) => t.estimate(),
        }
    }
}

/// Streaming evaluator of the pairwise cost function.
///
/// Feed one `(u_i, u_j)` utilization sample pair per monitoring tick;
/// each update is O(1) in time and memory, which is precisely the
/// advantage the paper claims over Pearson's correlation: "we can update
/// the values at each sampling period ... saving memory space to store
/// all samples as well as evenly distributing computational effort".
///
/// # Example
///
/// ```
/// use cavm_core::corr::CostMetric;
/// use cavm_trace::Reference;
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let mut m = CostMetric::new(Reference::Peak)?;
/// // Perfectly complementary signals.
/// for (a, b) in [(4.0, 0.0), (0.0, 4.0), (4.0, 0.0), (0.0, 4.0)] {
///     m.push(a, b);
/// }
/// assert_eq!(m.cost(), Some(2.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CostMetric {
    reference: Reference,
    a: RefTracker,
    b: RefTracker,
    sum: RefTracker,
    count: u64,
}

impl CostMetric {
    /// Creates a metric under the given reference utilization.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a percentile reference
    /// outside `(0, 100)`.
    pub fn new(reference: Reference) -> crate::Result<Self> {
        Ok(Self {
            reference,
            a: RefTracker::new(reference)?,
            b: RefTracker::new(reference)?,
            sum: RefTracker::new(reference)?,
            count: 0,
        })
    }

    /// The reference this metric tracks.
    pub fn reference(&self) -> Reference {
        self.reference
    }

    /// Number of sample pairs seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one simultaneous utilization sample pair. O(1).
    pub fn push(&mut self, u_a: f64, u_b: f64) {
        self.a.push(u_a);
        self.b.push(u_b);
        self.sum.push(u_a + u_b);
        self.count += 1;
    }

    /// Current cost value, or `None` before any sample.
    ///
    /// When both signals are idle (aggregate reference ≈ 0) the cost
    /// defaults to 2.0 — idle VMs impose no aggregation penalty, which
    /// is exactly what "uncorrelated" means to the allocator.
    ///
    /// Under [`Reference::Peak`] the value is guaranteed in `[1, 2]`.
    /// Percentile references may rarely dip below 1 (percentiles are not
    /// subadditive); values are reported unclamped.
    pub fn cost(&self) -> Option<f64> {
        let (a, b, sum) = (self.a.value()?, self.b.value()?, self.sum.value()?);
        Some(combine_cost(a, b, sum))
    }

    /// Forgets all samples (keeps the reference). Used by per-period
    /// windowed correlation tracking.
    ///
    /// # Panics
    ///
    /// Never panics: reconstructing the trackers for a valid reference
    /// cannot fail.
    pub fn reset(&mut self) {
        *self = CostMetric::new(self.reference).expect("reference already validated");
    }
}

/// Combines the three reference utilizations into the Eqn (1) ratio.
pub(crate) fn combine_cost(u_a: f64, u_b: f64, u_sum: f64) -> f64 {
    if u_sum.abs() < IDLE_EPS {
        2.0
    } else {
        (u_a + u_b) / u_sum
    }
}

/// Batch evaluation of Eqn (1) on two complete traces (exact
/// percentiles, no streaming approximation).
///
/// # Errors
///
/// Returns trace errors for empty/mismatched traces or invalid
/// percentiles.
///
/// # Example
///
/// ```
/// use cavm_core::corr::cost_of_traces;
/// use cavm_trace::{Reference, TimeSeries};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = TimeSeries::new(1.0, vec![4.0, 1.0])?;
/// let b = TimeSeries::new(1.0, vec![4.0, 1.0])?;
/// // Identical signals peak together: no aggregation benefit.
/// assert_eq!(cost_of_traces(&a, &b, Reference::Peak)?, 1.0);
/// # Ok(())
/// # }
/// ```
pub fn cost_of_traces(a: &TimeSeries, b: &TimeSeries, reference: Reference) -> crate::Result<f64> {
    let u_a = reference.of_series(a)?;
    let u_b = reference.of_series(b)?;
    let sum = TimeSeries::sum_of(&[a, b])?;
    let u_sum = reference.of_series(&sum)?;
    Ok(combine_cost(u_a, u_b, u_sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(v: &[f64]) -> TimeSeries {
        TimeSeries::new(1.0, v.to_vec()).unwrap()
    }

    #[test]
    fn identical_signals_cost_one() {
        let a = series(&[1.0, 5.0, 2.0]);
        let c = cost_of_traces(&a, &a, Reference::Peak).unwrap();
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complementary_signals_cost_two() {
        let a = series(&[3.0, 0.0, 3.0, 0.0]);
        let b = series(&[0.0, 3.0, 0.0, 3.0]);
        let c = cost_of_traces(&a, &b, Reference::Peak).unwrap();
        assert!((c - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_between_one_and_two() {
        let a = series(&[4.0, 2.0, 0.0]);
        let b = series(&[0.0, 2.0, 4.0]);
        // sum = [4, 4, 4]; cost = 8/4 = 2 (peaks never add up).
        assert!((cost_of_traces(&a, &b, Reference::Peak).unwrap() - 2.0).abs() < 1e-12);
        let c = series(&[2.0, 4.0, 2.0]);
        let d = series(&[0.0, 2.0, 4.0]);
        // sum = [2, 6, 6]; cost = 8/6 ≈ 1.333.
        assert!((cost_of_traces(&c, &d, Reference::Peak).unwrap() - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn cost_is_symmetric() {
        let a = series(&[1.0, 3.0, 2.0, 5.0]);
        let b = series(&[2.0, 1.0, 4.0, 1.0]);
        let ab = cost_of_traces(&a, &b, Reference::Peak).unwrap();
        let ba = cost_of_traces(&b, &a, Reference::Peak).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let a = series(&[4.0, 0.0, 2.0]);
        let b = series(&[0.0, 4.0]);
        assert!(cost_of_traces(&a, &b, Reference::Peak).is_err());
    }

    #[test]
    fn idle_pair_defaults_to_two() {
        let z = series(&[0.0, 0.0, 0.0]);
        assert_eq!(cost_of_traces(&z, &z, Reference::Peak).unwrap(), 2.0);
    }

    #[test]
    fn percentile_reference_works() {
        let a = series(&(0..100).map(|i| (i % 10) as f64).collect::<Vec<_>>());
        let b = series(&(0..100).map(|i| ((i + 5) % 10) as f64).collect::<Vec<_>>());
        let c = cost_of_traces(&a, &b, Reference::Percentile(90.0)).unwrap();
        assert!(c > 1.0, "anti-phased signals should have cost > 1, got {c}");
    }

    #[test]
    fn streaming_matches_batch_for_peak() {
        let a = series(&[1.0, 4.0, 2.0, 0.5, 3.0]);
        let b = series(&[2.0, 0.5, 3.0, 4.0, 1.0]);
        let batch = cost_of_traces(&a, &b, Reference::Peak).unwrap();
        let mut m = CostMetric::new(Reference::Peak).unwrap();
        for (x, y) in a.values().iter().zip(b.values()) {
            m.push(*x, *y);
        }
        assert!((m.cost().unwrap() - batch).abs() < 1e-12);
        assert_eq!(m.count(), 5);
    }

    #[test]
    fn streaming_approximates_batch_for_percentile() {
        let mut rng = cavm_trace::SimRng::new(5);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(2.0, 0.5)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(1.5, 0.5)).collect();
        let a = series(&xs);
        let b = series(&ys);
        let batch = cost_of_traces(&a, &b, Reference::Percentile(95.0)).unwrap();
        let mut m = CostMetric::new(Reference::Percentile(95.0)).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            m.push(*x, *y);
        }
        let streamed = m.cost().unwrap();
        assert!(
            (streamed - batch).abs() / batch < 0.05,
            "streamed {streamed} vs batch {batch}"
        );
    }

    #[test]
    fn cost_before_samples_is_none() {
        let m = CostMetric::new(Reference::Peak).unwrap();
        assert_eq!(m.cost(), None);
        assert_eq!(m.reference(), Reference::Peak);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = CostMetric::new(Reference::Peak).unwrap();
        m.push(1.0, 2.0);
        assert!(m.cost().is_some());
        m.reset();
        assert_eq!(m.cost(), None);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn invalid_percentile_reference_rejected() {
        assert!(CostMetric::new(Reference::Percentile(0.0)).is_err());
        assert!(CostMetric::new(Reference::Percentile(100.0)).is_err());
        assert!(CostMetric::new(Reference::Percentile(-3.0)).is_err());
        assert!(CostMetric::new(Reference::Percentile(101.0)).is_err());
    }

    #[test]
    fn peak_cost_bounds_hold_on_random_signals() {
        let mut rng = cavm_trace::SimRng::new(9);
        for _ in 0..50 {
            let xs: Vec<f64> = (0..64).map(|_| rng.range_f64(0.0, 10.0)).collect();
            let ys: Vec<f64> = (0..64).map(|_| rng.range_f64(0.0, 10.0)).collect();
            let c = cost_of_traces(&series(&xs), &series(&ys), Reference::Peak).unwrap();
            assert!((1.0..=2.0 + 1e-12).contains(&c), "cost {c} out of [1,2]");
        }
    }
}
