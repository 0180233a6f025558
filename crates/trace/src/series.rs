//! Fixed-interval time series.
//!
//! [`TimeSeries`] is the universal carrier of sampled signals in the
//! workspace: per-VM CPU demand (in units of physical cores), client
//! counts, server power draw, aggregate utilization, and so on.
//!
//! The representation is deliberately simple — a sampling interval plus a
//! dense `Vec<f64>` — because the paper's algorithms only ever consume
//! equally-spaced samples (5 s fine-grained samples, 5 min coarse samples,
//! 1 s testbed monitor samples).
//!
//! The samples are immutable once constructed, so the buffer is shared:
//! cloning a [`TimeSeries`] is O(1) and the clone aliases the original's
//! samples. Every transforming method returns a new series over a new
//! buffer.

use crate::{stats, Reference, TraceError};
use std::sync::Arc;

/// A finite, equally-spaced sampled signal.
///
/// Invariants (enforced at construction):
///
/// * the sampling interval is finite and strictly positive;
/// * every sample is finite (no NaN / ±inf).
///
/// `Clone` is O(1): clones share one immutable sample buffer (equality
/// is still by value).
///
/// # Example
///
/// ```
/// use cavm_trace::TimeSeries;
///
/// # fn main() -> Result<(), cavm_trace::TraceError> {
/// let s = TimeSeries::new(5.0, vec![1.0, 2.0, 3.0, 2.0])?;
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.duration(), 20.0);
/// assert_eq!(s.peak(), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    dt: f64,
    /// Shared, never mutated after construction. (`Arc<Vec<_>>` rather
    /// than `Arc<[_]>`: construction adopts the caller's vector instead
    /// of copying it.)
    values: Arc<Vec<f64>>,
}

impl TimeSeries {
    /// Creates a series from raw samples taken every `dt` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidInterval`] if `dt` is not finite and
    /// positive, and [`TraceError::NonFiniteSample`] if any sample is NaN
    /// or infinite.
    pub fn new(dt: f64, values: Vec<f64>) -> crate::Result<Self> {
        if !dt.is_finite() || dt <= 0.0 {
            return Err(TraceError::InvalidInterval(dt));
        }
        for (index, &value) in values.iter().enumerate() {
            if !value.is_finite() {
                return Err(TraceError::NonFiniteSample { index, value });
            }
        }
        Ok(Self {
            dt,
            values: Arc::new(values),
        })
    }

    /// Creates a series of `n` samples by evaluating `f` at indices
    /// `0..n`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimeSeries::new`].
    pub fn from_fn<F>(dt: f64, n: usize, f: F) -> crate::Result<Self>
    where
        F: FnMut(usize) -> f64,
    {
        Self::new(dt, (0..n).map(f).collect())
    }

    /// Creates a constant series.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimeSeries::new`].
    pub fn constant(dt: f64, n: usize, value: f64) -> crate::Result<Self> {
        Self::new(dt, vec![value; n])
    }

    /// The sampling interval in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total covered duration in seconds (`len * dt`).
    pub fn duration(&self) -> f64 {
        self.values.len() as f64 * self.dt
    }

    /// Borrow the raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<f64> {
        self.values.get(index).copied()
    }

    /// Iterate over `(time_seconds, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as f64 * self.dt, v))
    }

    /// Largest sample, or 0.0 for an empty series.
    ///
    /// Empty series are treated as an idle signal; this keeps aggregate
    /// computations total. Use [`TimeSeries::is_empty`] to distinguish.
    pub fn peak(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Smallest sample, or 0.0 for an empty series.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Arithmetic mean, or 0.0 for an empty series.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Exact percentile of the sample distribution (linear interpolation).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyInput`] on an empty series and
    /// [`TraceError::InvalidPercentile`] if `p ∉ [0, 100]`.
    pub fn percentile(&self, p: f64) -> crate::Result<f64> {
        stats::percentile(&self.values, p)
    }

    /// The reference utilization û of the paper: peak or N-th percentile.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyInput`] on an empty series.
    pub fn reference(&self, reference: Reference) -> crate::Result<f64> {
        reference.of_series(self)
    }

    /// Element-wise sum of several equally-sampled series.
    ///
    /// This is the aggregation `VMi + VMj` in the denominator of the
    /// paper's cost function (Eqn 1): the co-located demand signal.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyInput`] when `series` is empty, and
    /// length/interval mismatch errors when operands disagree.
    pub fn sum_of(series: &[&TimeSeries]) -> crate::Result<TimeSeries> {
        let first = series.first().ok_or(TraceError::EmptyInput)?;
        let mut acc = vec![0.0; first.len()];
        for s in series {
            if s.len() != first.len() {
                return Err(TraceError::LengthMismatch {
                    left: first.len(),
                    right: s.len(),
                });
            }
            if s.dt() != first.dt() {
                return Err(TraceError::IntervalMismatch {
                    left: first.dt(),
                    right: s.dt(),
                });
            }
            for (a, v) in acc.iter_mut().zip(s.values()) {
                *a += v;
            }
        }
        TimeSeries::new(first.dt(), acc)
    }

    /// Returns a new series with every sample transformed by `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NonFiniteSample`] if `f` produces a
    /// non-finite value.
    pub fn map<F>(&self, mut f: F) -> crate::Result<TimeSeries>
    where
        F: FnMut(f64) -> f64,
    {
        TimeSeries::new(self.dt, self.values.iter().map(|&v| f(v)).collect())
    }

    /// Returns the series scaled by a finite factor.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NonFiniteSample`] if scaling produces a
    /// non-finite value (e.g. a non-finite `factor`).
    pub fn scale(&self, factor: f64) -> crate::Result<TimeSeries> {
        self.map(|v| v * factor)
    }

    /// Extracts samples `[start, end)` as a new series with the same
    /// sampling interval.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] when the range is
    /// ill-formed or out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> crate::Result<TimeSeries> {
        if start > end || end > self.values.len() {
            return Err(TraceError::InvalidParameter("slice range out of bounds"));
        }
        Ok(TimeSeries {
            dt: self.dt,
            values: Arc::new(self.values[start..end].to_vec()),
        })
    }

    /// Coarsens the series by averaging consecutive groups of `factor`
    /// samples. A trailing partial group is averaged over its actual
    /// length.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] when `factor == 0`.
    pub fn coarsen_mean(&self, factor: usize) -> crate::Result<TimeSeries> {
        if factor == 0 {
            return Err(TraceError::InvalidParameter("coarsen factor must be >= 1"));
        }
        let values = self
            .values
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        TimeSeries::new(self.dt * factor as f64, values)
    }

    /// Splits the series into consecutive windows of `window` samples.
    /// The last window may be shorter.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] when `window == 0`.
    pub fn windows(&self, window: usize) -> crate::Result<Vec<TimeSeries>> {
        if window == 0 {
            return Err(TraceError::InvalidParameter("window must be >= 1"));
        }
        self.values
            .chunks(window)
            .map(|c| TimeSeries::new(self.dt, c.to_vec()))
            .collect()
    }

    /// Summary statistics of the sample distribution.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyInput`] on an empty series.
    pub fn summary(&self) -> crate::Result<crate::Summary> {
        crate::Summary::of(&self.values)
    }
}

impl AsRef<[f64]> for TimeSeries {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> TimeSeries {
        TimeSeries::new(1.0, values.to_vec()).unwrap()
    }

    #[test]
    fn construction_validates_interval() {
        assert!(matches!(
            TimeSeries::new(0.0, vec![1.0]),
            Err(TraceError::InvalidInterval(_))
        ));
        assert!(matches!(
            TimeSeries::new(-5.0, vec![1.0]),
            Err(TraceError::InvalidInterval(_))
        ));
        assert!(matches!(
            TimeSeries::new(f64::NAN, vec![1.0]),
            Err(TraceError::InvalidInterval(_))
        ));
    }

    #[test]
    fn construction_rejects_non_finite_samples() {
        let err = TimeSeries::new(1.0, vec![1.0, f64::NAN]).unwrap_err();
        assert!(matches!(err, TraceError::NonFiniteSample { index: 1, .. }));
        let err = TimeSeries::new(1.0, vec![f64::INFINITY]).unwrap_err();
        assert!(matches!(err, TraceError::NonFiniteSample { index: 0, .. }));
    }

    #[test]
    fn empty_series_has_zero_statistics() {
        let e = TimeSeries::new(1.0, vec![]).unwrap();
        assert!(e.is_empty());
        assert_eq!(e.peak(), 0.0);
        assert_eq!(e.min(), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.duration(), 0.0);
        assert!(e.percentile(50.0).is_err());
    }

    #[test]
    fn basic_statistics() {
        let t = s(&[1.0, 4.0, 2.0, 3.0]);
        assert_eq!(t.peak(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.duration(), 4.0);
    }

    #[test]
    fn negative_samples_are_allowed_and_peak_reflects_them() {
        let t = s(&[-3.0, -1.0, -2.0]);
        assert_eq!(t.min(), -3.0);
        // peak() is the max sample; for all-negative signals it is the
        // largest (least negative) one.
        assert_eq!(t.peak(), -1.0);
    }

    #[test]
    fn sum_of_adds_elementwise() {
        let a = s(&[1.0, 2.0, 3.0]);
        let b = s(&[0.5, 0.5, 0.5]);
        let sum = TimeSeries::sum_of(&[&a, &b]).unwrap();
        assert_eq!(sum.values(), &[1.5, 2.5, 3.5]);
        assert_eq!(sum.dt(), 1.0);
    }

    #[test]
    fn sum_of_validates_operands() {
        let a = s(&[1.0, 2.0]);
        let b = s(&[1.0]);
        assert!(matches!(
            TimeSeries::sum_of(&[&a, &b]),
            Err(TraceError::LengthMismatch { .. })
        ));
        let c = TimeSeries::new(2.0, vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            TimeSeries::sum_of(&[&a, &c]),
            Err(TraceError::IntervalMismatch { .. })
        ));
        assert!(matches!(
            TimeSeries::sum_of(&[]),
            Err(TraceError::EmptyInput)
        ));
    }

    #[test]
    fn subadditivity_of_peak() {
        // peak(a + b) <= peak(a) + peak(b): the fact the whole paper
        // rests on.
        let a = s(&[1.0, 5.0, 2.0, 0.0]);
        let b = s(&[4.0, 0.0, 1.0, 3.0]);
        let sum = TimeSeries::sum_of(&[&a, &b]).unwrap();
        assert!(sum.peak() <= a.peak() + b.peak());
        assert!(sum.peak() >= a.peak().max(b.peak()));
    }

    #[test]
    fn coarsen_mean_and_max() {
        let t = s(&[1.0, 3.0, 2.0, 6.0, 5.0]);
        let m = t.coarsen_mean(2).unwrap();
        assert_eq!(m.values(), &[2.0, 4.0, 5.0]);
        assert_eq!(m.dt(), 2.0);
        assert!(t.coarsen_mean(0).is_err());
    }

    #[test]
    fn slice_and_windows() {
        let t = s(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mid = t.slice(1, 4).unwrap();
        assert_eq!(mid.values(), &[1.0, 2.0, 3.0]);
        assert!(t.slice(4, 2).is_err());
        assert!(t.slice(0, 9).is_err());

        let w = t.windows(2).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w[2].values(), &[4.0]);
        assert!(t.windows(0).is_err());
    }

    #[test]
    fn map_and_scale() {
        let t = s(&[1.0, -2.0, 3.0]);
        assert_eq!(t.scale(2.0).unwrap().values(), &[2.0, -4.0, 6.0]);
        assert!(t.scale(f64::INFINITY).is_err());
        assert_eq!(t.map(|v| v + 1.0).unwrap().values(), &[2.0, -1.0, 4.0]);
    }

    #[test]
    fn iter_yields_timestamps() {
        let t = TimeSeries::new(5.0, vec![10.0, 20.0]).unwrap();
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(0.0, 10.0), (5.0, 20.0)]);
    }

    #[test]
    fn from_fn_and_constant() {
        let t = TimeSeries::from_fn(1.0, 4, |i| i as f64).unwrap();
        assert_eq!(t.values(), &[0.0, 1.0, 2.0, 3.0]);
        let c = TimeSeries::constant(1.0, 3, 7.5).unwrap();
        assert_eq!(c.values(), &[7.5, 7.5, 7.5]);
    }

    #[test]
    fn clones_share_their_samples() {
        let a = s(&[1.0, 2.0, 3.0]);
        let b = a.clone();
        assert_eq!(a.values().as_ptr(), b.values().as_ptr());
        assert_eq!(a, b);
        // Equality stays by value: a separately built series is equal
        // without aliasing.
        let c = s(&[1.0, 2.0, 3.0]);
        assert_ne!(a.values().as_ptr(), c.values().as_ptr());
        assert_eq!(a, c);
    }
}
