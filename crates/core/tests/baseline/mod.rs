//! The seed per-pair `M_cost` implementation, retained verbatim as the
//! semantic reference.
//!
//! [`PairwiseCostMatrix`] stores one boxed-enum [`CostMetric`] per VM
//! pair — an array-of-structs layout whose per-sample enum dispatch and
//! ~640-byte pair footprint made the fleet-wide UPDATE tick
//! cache-hostile. It was replaced by the struct-of-arrays
//! [`CostMatrix`](cavm_core::corr::CostMatrix) kernel, but stays
//! in-tree, test-only, because the equivalence property tests pin the
//! optimized kernel to this implementation bit-for-bit.
//!
//! Do not grow this module; new functionality belongs in
//! `cavm_core::corr::matrix`.

use cavm_core::corr::CostMetric;
use cavm_core::CoreError;
use cavm_trace::Reference;

/// Per-pair streaming cost matrix (the seed implementation).
#[derive(Debug, Clone)]
pub struct PairwiseCostMatrix {
    n: usize,
    reference: Reference,
    /// Upper-triangle metrics, row-major: pair (i, j) with i < j lives
    /// at `i*(2n-i-1)/2 + (j-i-1)`.
    metrics: Vec<CostMetric>,
}

impl PairwiseCostMatrix {
    /// Creates an empty matrix over `n` VMs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `n == 0` or the
    /// reference percentile is out of range.
    pub fn new(n: usize, reference: Reference) -> cavm_core::Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        }
        let pairs = n * (n - 1) / 2;
        let mut metrics = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            metrics.push(CostMetric::new(reference)?);
        }
        Ok(Self {
            n,
            reference,
            metrics,
        })
    }

    /// Number of VMs tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `false` by construction; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The reference utilization the matrix tracks.
    pub fn reference(&self) -> Reference {
        self.reference
    }

    fn pair_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// Feeds one monitoring tick (`O(n²)` enum-dispatched updates).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SampleCountMismatch`] when
    /// `utils.len() != n`.
    pub fn push_sample(&mut self, utils: &[f64]) -> cavm_core::Result<()> {
        if utils.len() != self.n {
            return Err(CoreError::SampleCountMismatch {
                got: utils.len(),
                expected: self.n,
            });
        }
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let idx = self.pair_index(i, j);
                self.metrics[idx].push(utils[i], utils[j]);
            }
        }
        Ok(())
    }

    /// The cost of pair `(i, j)`, or `None` before any sample (and
    /// `Some(1.0)` on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics when `i` or `j` is out of range.
    pub fn cost(&self, i: usize, j: usize) -> Option<f64> {
        assert!(
            i < self.n && j < self.n,
            "pair ({i},{j}) outside {}-vm matrix",
            self.n
        );
        if i == j {
            return Some(1.0);
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.metrics[self.pair_index(lo, hi)].cost()
    }

    /// The cost of pair `(i, j)` with the neutral default 1.5 for
    /// not-yet-observed pairs.
    pub fn cost_or_neutral(&self, i: usize, j: usize) -> f64 {
        self.cost(i, j).unwrap_or(1.5)
    }

    /// Number of sample ticks observed.
    pub fn samples(&self) -> u64 {
        self.metrics.first().map_or(0, |m| m.count())
    }

    /// Forgets all samples (keeps dimensions and reference).
    pub fn reset(&mut self) {
        for m in &mut self.metrics {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_still_behaves_like_the_seed() {
        let mut m = PairwiseCostMatrix::new(3, Reference::Peak).unwrap();
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.reference(), Reference::Peak);
        assert_eq!(m.cost(0, 1), None);
        assert_eq!(m.cost_or_neutral(0, 1), 1.5);
        m.push_sample(&[4.0, 0.0, 2.0]).unwrap();
        m.push_sample(&[0.0, 4.0, 2.0]).unwrap();
        assert_eq!(m.cost(0, 1), Some(2.0));
        assert_eq!(m.cost(1, 0), Some(2.0));
        assert_eq!(m.cost(2, 2), Some(1.0));
        assert_eq!(m.samples(), 2);
        assert!(m.push_sample(&[1.0]).is_err());
        m.reset();
        assert_eq!(m.samples(), 0);
        assert!(PairwiseCostMatrix::new(0, Reference::Peak).is_err());
    }
}
