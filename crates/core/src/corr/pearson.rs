//! Pearson product-moment correlation — the baseline metric the paper
//! argues against (§IV-A).
//!
//! Kept for three reasons: (1) the `corr_throughput` bench quantifies the
//! paper's computational argument, (2) the ablation experiment swaps it
//! into the proposed allocator to show the placement-quality difference,
//! and (3) several related works (\[8\]) use it, so a faithful baseline
//! needs it.
//!
//! [`PearsonStream`] accumulates the five running sums (n, Σx, Σy, Σx²,
//! Σy², Σxy), so it is *also* O(1) per sample — the paper's efficiency
//! complaint concerns the textbook two-pass formulation, which needs the
//! interval means first. We implement both: the streaming form here and
//! the two-pass form in [`pearson_of_traces`] (used as ground truth in
//! tests and as the "end-of-interval batch" cost model in benches).

use cavm_trace::{TimeSeries, TraceError};

/// Streaming Pearson correlation accumulator.
///
/// # Example
///
/// ```
/// use cavm_core::corr::PearsonStream;
///
/// let mut p = PearsonStream::new();
/// for (x, y) in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)] {
///     p.push(x, y);
/// }
/// assert!((p.correlation().unwrap() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PearsonStream {
    n: u64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
}

impl PearsonStream {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one `(x, y)` sample pair. O(1).
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.syy += y * y;
        self.sxy += x * y;
    }

    /// Number of sample pairs seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current correlation in `[-1, 1]`, or `None` with fewer than two
    /// samples or when either signal has zero variance.
    pub fn correlation(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let cov = self.sxy - self.sx * self.sy / n;
        let vx = self.sxx - self.sx * self.sx / n;
        let vy = self.syy - self.sy * self.sy / n;
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        Some((cov / (vx * vy).sqrt()).clamp(-1.0, 1.0))
    }

    /// Forgets all samples.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Two-pass (textbook) Pearson correlation of two equally-sampled
/// traces — the formulation whose end-of-interval cost concentration the
/// paper criticizes.
///
/// # Errors
///
/// Returns [`TraceError::LengthMismatch`] / [`TraceError::EmptyInput`]
/// for malformed inputs. Zero-variance inputs yield an
/// [`TraceError::InvalidParameter`]-flavoured error via `None`
/// semantics: the function returns `Ok(None)` in that case.
pub fn pearson_of_traces(
    a: &TimeSeries,
    b: &TimeSeries,
) -> std::result::Result<Option<f64>, TraceError> {
    if a.len() != b.len() {
        return Err(TraceError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(TraceError::EmptyInput);
    }
    // First pass: means.
    let ma = a.mean();
    let mb = b.mean();
    // Second pass: central moments.
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.values().iter().zip(b.values()) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va <= 0.0 || vb <= 0.0 {
        return Ok(None);
    }
    Ok(Some((cov / (va * vb).sqrt()).clamp(-1.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(v: &[f64]) -> TimeSeries {
        TimeSeries::new(1.0, v.to_vec()).unwrap()
    }

    #[test]
    fn perfect_positive_and_negative() {
        let x = series(&[1.0, 2.0, 3.0, 4.0]);
        let y = series(&[2.0, 4.0, 6.0, 8.0]);
        assert!((pearson_of_traces(&x, &y).unwrap().unwrap() - 1.0).abs() < 1e-12);
        let z = series(&[8.0, 6.0, 4.0, 2.0]);
        assert!((pearson_of_traces(&x, &z).unwrap().unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_yields_none() {
        let x = series(&[1.0, 2.0, 3.0]);
        let flat = series(&[5.0, 5.0, 5.0]);
        assert_eq!(pearson_of_traces(&x, &flat).unwrap(), None);
        let mut p = PearsonStream::new();
        for &v in x.values() {
            p.push(v, 5.0);
        }
        assert_eq!(p.correlation(), None);
    }

    #[test]
    fn errors_on_malformed_input() {
        let x = series(&[1.0, 2.0]);
        let y = series(&[1.0]);
        assert!(pearson_of_traces(&x, &y).is_err());
        let e = series(&[]);
        assert!(pearson_of_traces(&e, &e).is_err());
    }

    #[test]
    fn streaming_matches_two_pass() {
        let mut rng = cavm_trace::SimRng::new(77);
        let xs: Vec<f64> = (0..500).map(|_| rng.range_f64(0.0, 10.0)).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 0.5 * x + rng.normal(0.0, 1.0)).collect();
        let a = series(&xs);
        let b = series(&ys);
        let batch = pearson_of_traces(&a, &b).unwrap().unwrap();
        let mut p = PearsonStream::new();
        for (x, y) in xs.iter().zip(&ys) {
            p.push(*x, *y);
        }
        let streamed = p.correlation().unwrap();
        assert!((streamed - batch).abs() < 1e-9, "{streamed} vs {batch}");
        assert_eq!(p.count(), 500);
    }

    #[test]
    fn fewer_than_two_samples_is_none() {
        let mut p = PearsonStream::new();
        assert_eq!(p.correlation(), None);
        p.push(1.0, 1.0);
        assert_eq!(p.correlation(), None);
    }

    #[test]
    fn reset_clears() {
        let mut p = PearsonStream::new();
        p.push(1.0, 2.0);
        p.push(2.0, 1.0);
        assert!(p.correlation().is_some());
        p.reset();
        assert_eq!(p.count(), 0);
        assert_eq!(p.correlation(), None);
    }

    #[test]
    fn correlated_signals_score_high() {
        // Sanity on the paper's Fig 1 phenomenon: two signals driven by
        // the same client wave correlate strongly.
        let n = 600;
        let base: Vec<f64> = (0..n)
            .map(|i| 150.0 + 150.0 * (i as f64 / 100.0).sin())
            .collect();
        let mut rng = cavm_trace::SimRng::new(3);
        let a: Vec<f64> = base
            .iter()
            .map(|&b| 1.3 * b + rng.normal(0.0, 10.0))
            .collect();
        let b: Vec<f64> = base
            .iter()
            .map(|&b| 0.7 * b + rng.normal(0.0, 10.0))
            .collect();
        let r = pearson_of_traces(&series(&a), &series(&b))
            .unwrap()
            .unwrap();
        assert!(r > 0.9, "correlation {r}");
    }
}
