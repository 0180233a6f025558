//! Batch statistics: percentiles, Welford accumulators, summaries and the
//! paper's *reference utilization* û.
//!
//! The paper provisions each VM by a **reference utilization** û(VM) that
//! is "either the peak or the N-th percentile value depending on QoS
//! requirement" (§IV-A). [`Reference`] encodes exactly that choice and is
//! threaded through every allocation policy in `cavm-core`.

use crate::{TimeSeries, TraceError};
use serde::{Deserialize, Serialize};

/// Exact percentile with linear interpolation between closest ranks.
///
/// Follows the common "linear" convention (NumPy default): for `n`
/// samples the percentile `p` sits at virtual rank `p/100 * (n-1)` of the
/// sorted data, interpolating between neighbours.
///
/// O(n): one copy of the samples and one selection, never a sort — the
/// lower neighbour is selected into place and the upper one is the
/// minimum of what the selection left to its right. The value is the
/// one a full sort would give, bit for bit (zeros ordered by sign,
/// `-0.0` first).
///
/// # Errors
///
/// Returns [`TraceError::EmptyInput`] for an empty slice,
/// [`TraceError::InvalidPercentile`] when `p ∉ [0, 100]`, and
/// [`TraceError::NonFiniteSample`] naming the first NaN or infinite
/// sample.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), cavm_trace::TraceError> {
/// let median = cavm_trace::percentile(&[1.0, 3.0, 2.0, 4.0], 50.0)?;
/// assert_eq!(median, 2.5);
/// # Ok(())
/// # }
/// ```
pub fn percentile(values: &[f64], p: f64) -> crate::Result<f64> {
    if values.is_empty() {
        return Err(TraceError::EmptyInput);
    }
    if !(0.0..=100.0).contains(&p) || p.is_nan() {
        return Err(TraceError::InvalidPercentile(p));
    }
    let mut scratch = finite_copy(values)?;
    let (lo, hi, w) = closest_ranks(scratch.len(), p);
    let (_, &mut below, right) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return Ok(below);
    }
    // Nothing right of the selected rank is smaller than it, so the
    // next order statistic is the smallest sample there.
    let above = right
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(below);
    Ok(interpolate(below, above, w))
}

/// Copies `values`, refusing the first sample that is NaN or infinite:
/// what is left has a total order.
fn finite_copy(values: &[f64]) -> crate::Result<Vec<f64>> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(TraceError::NonFiniteSample {
            index,
            value: values[index],
        }),
        None => Ok(values.to_vec()),
    }
}

/// Where percentile `p` sits among `len ≥ 1` sorted samples: the two
/// closest ranks and the weight of the upper one.
fn closest_ranks(len: usize, p: f64) -> (usize, usize, f64) {
    let rank = p / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// Linear interpolation between two neighbouring order statistics.
fn interpolate(below: f64, above: f64, w: f64) -> f64 {
    below * (1.0 - w) + above * w
}

/// Percentile of an already-sorted slice, for callers that need the
/// sorted run anyway ([`Summary::of`], the streaming estimators'
/// warm-up). `sorted` must be non-empty and ascending.
pub(crate) fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let (lo, hi, w) = closest_ranks(sorted.len(), p);
    if lo == hi {
        sorted[lo]
    } else {
        interpolate(sorted[lo], sorted[hi], w)
    }
}

/// The reference utilization û of the paper: peak or N-th percentile.
///
/// The paper's cost function (Eqn 1), server-count estimate (Eqn 3) and
/// frequency decision (Eqn 4) are all expressed in terms of û; switching
/// between `Peak` and `Percentile(N)` trades provisioning headroom against
/// consolidation density.
///
/// # Example
///
/// ```
/// use cavm_trace::Reference;
///
/// # fn main() -> Result<(), cavm_trace::TraceError> {
/// let demand = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.0];
/// assert_eq!(Reference::Peak.of(&demand)?, 8.0);
/// // The 90th percentile shaves the rare spike.
/// assert!(Reference::Percentile(90.0).of(&demand)? < 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Reference {
    /// Worst-case provisioning: û = max sample.
    Peak,
    /// Off-peak provisioning: û = the given percentile (e.g. 90, 95, 99).
    Percentile(f64),
}

impl Reference {
    /// Evaluates û over a raw slice of samples.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyInput`] for an empty slice and
    /// [`TraceError::InvalidPercentile`] for an out-of-range percentile.
    pub fn of(&self, values: &[f64]) -> crate::Result<f64> {
        match self {
            Reference::Peak => {
                if values.is_empty() {
                    Err(TraceError::EmptyInput)
                } else {
                    Ok(values.iter().copied().fold(f64::NEG_INFINITY, f64::max))
                }
            }
            Reference::Percentile(p) => percentile(values, *p),
        }
    }

    /// Evaluates û over a [`TimeSeries`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reference::of`].
    pub fn of_series(&self, series: &TimeSeries) -> crate::Result<f64> {
        self.of(series.values())
    }
}

impl Default for Reference {
    /// The paper's Setup-2 provisions by the (predicted) peak.
    fn default() -> Self {
        Reference::Peak
    }
}

/// Numerically-stable streaming mean/variance accumulator (Welford).
///
/// # Example
///
/// ```
/// use cavm_trace::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples seen so far (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`; 0.0 when fewer than 1 sample).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Five-number-plus summary of a sample distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 90th percentile — the paper's favourite off-peak reference.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes the summary of a non-empty slice.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyInput`] when `values` is empty and
    /// [`TraceError::NonFiniteSample`] naming the first NaN or infinite
    /// sample.
    pub fn of(values: &[f64]) -> crate::Result<Summary> {
        if values.is_empty() {
            return Err(TraceError::EmptyInput);
        }
        let mut sorted = finite_copy(values)?;
        sorted.sort_unstable_by(f64::total_cmp);
        let mut w = Welford::new();
        for &v in values {
            w.push(v);
        }
        Ok(Summary {
            count: values.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: w.mean(),
            std: w.population_std(),
            median: percentile_of_sorted(&sorted, 50.0),
            p90: percentile_of_sorted(&sorted, 90.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            p99: percentile_of_sorted(&sorted, 99.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints_are_min_and_max() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&v, 100.0).unwrap(), 5.0);
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 25.0).unwrap(), 2.5);
        assert_eq!(percentile(&v, 50.0).unwrap(), 5.0);
        assert_eq!(percentile(&v, 75.0).unwrap(), 7.5);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[42.0], 13.7).unwrap(), 42.0);
    }

    #[test]
    fn percentile_rejects_bad_inputs() {
        assert!(matches!(percentile(&[], 50.0), Err(TraceError::EmptyInput)));
        assert!(matches!(
            percentile(&[1.0], -0.1),
            Err(TraceError::InvalidPercentile(_))
        ));
        assert!(matches!(
            percentile(&[1.0], 100.1),
            Err(TraceError::InvalidPercentile(_))
        ));
        assert!(matches!(
            percentile(&[1.0], f64::NAN),
            Err(TraceError::InvalidPercentile(_))
        ));
    }

    #[test]
    fn percentile_names_the_first_non_finite_sample() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for index in [0, 3, 6] {
                let mut v = [4.0, 1.0, 3.0, 2.0, 6.0, 5.0, 0.5];
                v[index] = bad;
                for p in [0.0, 50.0, 90.0, 100.0] {
                    match percentile(&v, p) {
                        Err(TraceError::NonFiniteSample { index: at, value }) => {
                            assert_eq!(at, index);
                            assert_eq!(value.to_bits(), bad.to_bits());
                        }
                        other => panic!("{bad} at {index}, p{p}: {other:?}"),
                    }
                }
                assert!(matches!(
                    Reference::Percentile(95.0).of(&v),
                    Err(TraceError::NonFiniteSample { .. })
                ));
                assert!(matches!(
                    Summary::of(&v),
                    Err(TraceError::NonFiniteSample { index: at, .. }) if at == index
                ));
            }
        }
        // Two offenders: the first one is reported.
        let v = [1.0, f64::NAN, 2.0, f64::INFINITY];
        assert!(matches!(
            percentile(&v, 50.0),
            Err(TraceError::NonFiniteSample { index: 1, .. })
        ));
    }

    #[test]
    fn percentile_selection_matches_a_full_sort() {
        // Every rank of a small window with ties, both neighbours of
        // each interpolation included.
        let v = [3.0, 1.0, 2.0, 3.0, 0.0, 1.0, 3.0, 9.0, -4.0, 1.0];
        let mut sorted = v.to_vec();
        sorted.sort_by(f64::total_cmp);
        for tenth in 0..=1000 {
            let p = tenth as f64 / 10.0;
            assert_eq!(
                percentile(&v, p).unwrap().to_bits(),
                percentile_of_sorted(&sorted, p).to_bits(),
                "p{p}"
            );
        }
    }

    #[test]
    fn reference_peak_vs_percentile() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(Reference::Peak.of(&v).unwrap(), 99.0);
        let p90 = Reference::Percentile(90.0).of(&v).unwrap();
        assert!(p90 < 99.0 && p90 > 85.0);
    }

    #[test]
    fn reference_default_is_peak() {
        assert_eq!(Reference::default(), Reference::Peak);
    }

    #[test]
    fn welford_matches_naive() {
        let v = [1.5, 2.5, 3.5, 4.5, 10.0, -2.0];
        let mut w = Welford::new();
        for &x in &v {
            w.push(x);
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.population_variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), v.len() as u64);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);

        let mut w1 = Welford::new();
        w1.push(7.0);
        assert_eq!(w1.mean(), 7.0);
        assert_eq!(w1.population_variance(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let (a, b) = ([1.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0]);
        let mut all = Welford::new();
        for &x in a.iter().chain(b.iter()) {
            all.push(x);
        }
        let mut wa = Welford::new();
        let mut wb = Welford::new();
        for &x in &a {
            wa.push(x);
        }
        for &x in &b {
            wb.push(x);
        }
        wa.merge(&wb);
        assert!((wa.mean() - all.mean()).abs() < 1e-12);
        assert!((wa.population_variance() - all.population_variance()).abs() < 1e-12);

        // Merging with empty is a no-op either way round.
        let mut we = Welford::new();
        we.merge(&wa);
        assert_eq!(we.mean(), wa.mean());
        let snapshot = wa;
        wa.merge(&Welford::new());
        assert_eq!(wa, snapshot);
    }

    #[test]
    fn summary_fields_are_ordered() {
        let v: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.7).sin() * 3.0 + 5.0)
            .collect();
        let s = Summary::of(&v).unwrap();
        assert!(s.min <= s.median);
        assert!(s.median <= s.p90);
        assert!(s.p90 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
        assert_eq!(s.count, 1000);
        assert!(matches!(Summary::of(&[]), Err(TraceError::EmptyInput)));
    }
}
