//! Constant-memory streaming statistics.
//!
//! The paper's key argument for its cost function (§IV-A) is that it "can
//! update the values at each sampling period", saving the memory to store
//! all samples and spreading the computation evenly over time. The
//! streaming estimators here make that operational:
//!
//! * [`StreamingPeak`] — running maximum (û under [`Reference::Peak`]).
//! * [`P2Quantile`] — the P² algorithm of Jain & Chlamtac: a five-marker
//!   streaming quantile estimator (û under [`Reference::Percentile`]).
//!
//! [`Reference::Peak`]: crate::Reference::Peak
//! [`Reference::Percentile`]: crate::Reference::Percentile

use crate::TraceError;

/// Running maximum of a sample stream.
///
/// # Example
///
/// ```
/// use cavm_trace::StreamingPeak;
///
/// let mut peak = StreamingPeak::new();
/// for x in [0.3, 1.8, 0.9] {
///     peak.push(x);
/// }
/// assert_eq!(peak.peak(), 1.8);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingPeak {
    peak: f64,
    count: u64,
}

impl StreamingPeak {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self {
            peak: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        self.peak = self.peak.max(x);
        self.count += 1;
    }

    /// Current maximum; 0.0 before any sample (idle signal convention).
    pub fn peak(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.peak
        }
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Forgets everything.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

/// P² (P-square) streaming quantile estimator (Jain & Chlamtac, 1985).
///
/// Tracks a single quantile with five markers and O(1) work per sample —
/// the standard answer to "percentile without storing the samples",
/// which is exactly the constraint the paper motivates its cost function
/// with.
///
/// Accuracy is typically within a fraction of a percent of the exact
/// percentile for smooth distributions; the property tests in this module
/// pin the error envelope.
///
/// # Example
///
/// ```
/// use cavm_trace::P2Quantile;
///
/// # fn main() -> Result<(), cavm_trace::TraceError> {
/// let mut q = P2Quantile::new(0.90)?;
/// for i in 0..10_000 {
///     q.push((i % 100) as f64);
/// }
/// let est = q.estimate().unwrap();
/// assert!((est - 89.0).abs() < 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights q_1..q_5.
    q: [f64; 5],
    /// Marker positions n_1..n_5 (1-based as in the original paper).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    /// Number of samples seen.
    count: u64,
    /// First five samples, buffered until initialization.
    init: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for quantile `p ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] unless `0 < p < 1`.
    pub fn new(p: f64) -> crate::Result<Self> {
        if !(p > 0.0 && p < 1.0) {
            return Err(TraceError::InvalidParameter(
                "P2 quantile must lie in (0, 1)",
            ));
        }
        Ok(Self {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            init: Vec::with_capacity(5),
        })
    }

    /// The tracked quantile, in `(0, 1)`.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.init.len() < 5 {
            self.init.push(x);
            if self.init.len() == 5 {
                self.init
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                for (qi, &v) in self.q.iter_mut().zip(self.init.iter()) {
                    *qi = v;
                }
            }
            return;
        }

        // 1. Find the cell k containing x and update extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x < self.q[1] {
            0
        } else if x < self.q[2] {
            1
        } else if x < self.q[3] {
            2
        } else if x <= self.q[4] {
            3
        } else {
            self.q[4] = x;
            3
        };

        // 2. Increment positions of markers above the cell.
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // 3. Adjust interior markers if they drifted off their desired
        //    positions by one or more.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < candidate && candidate < self.q[i + 1] {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current estimate, or `None` before any sample arrived.
    ///
    /// With fewer than five samples the exact sample quantile of the
    /// buffered values is returned.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.init.len() < 5 {
            let mut sorted = self.init.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            return Some(crate::stats::percentile_of_sorted(&sorted, self.p * 100.0));
        }
        Some(self.q[2])
    }
}

/// Shared per-tick bookkeeping for a *bank* of P² estimators that all
/// receive exactly one sample per tick (e.g. every pair slot of a cost
/// matrix).
///
/// The P² algorithm keeps three kinds of state per estimator: marker
/// heights `q`, marker positions `n`, and *desired* positions `np`.
/// When every estimator in a bank sees the same number of samples, the
/// desired positions and the sample count are identical across the
/// bank — only `q` and the interior of `n` are data-dependent. Hoisting
/// the shared part into one clock shrinks per-stream state from the
/// ~200 bytes of [`P2Quantile`] to the 64 bytes of [`P2Cell`] and
/// removes all per-sample branching on initialization bookkeeping.
///
/// Protocol: call [`P2Clock::tick`] once per sampling instant, then
/// [`P2Cell::push`] every cell with that tick's sample.
#[derive(Debug, Clone)]
pub struct P2Clock {
    p: f64,
    count: u64,
    /// Desired marker positions (valid once `count >= 5`).
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
}

impl P2Clock {
    /// Creates a clock for quantile `p ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] unless `0 < p < 1`.
    pub fn new(p: f64) -> crate::Result<Self> {
        if !(p > 0.0 && p < 1.0) {
            return Err(TraceError::InvalidParameter(
                "P2 quantile must lie in (0, 1)",
            ));
        }
        Ok(Self {
            p,
            count: 0,
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
        })
    }

    /// The tracked quantile, in `(0, 1)`.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Number of ticks seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Advances the clock by one sampling instant. Must be called
    /// exactly once per tick, *before* pushing that tick's samples into
    /// the cells.
    pub fn tick(&mut self) {
        self.count += 1;
        // P² only advances desired positions after the five-sample
        // initialization phase — mirroring `P2Quantile::push`.
        if self.count > 5 {
            for i in 0..5 {
                self.np[i] += self.dn[i];
            }
        }
    }

    /// Forgets all ticks (keeps the quantile).
    pub fn reset(&mut self) {
        *self = Self::new(self.p).expect("quantile already validated");
    }
}

/// Compact per-stream P² state driven by a shared [`P2Clock`]:
/// five marker heights plus the three *interior* marker positions
/// (`n[0] ≡ 1` and `n[4] ≡ count` are implied by the clock).
///
/// Produces bit-identical estimates to a standalone [`P2Quantile`] fed
/// the same sample sequence — the property tests in this module and the
/// cost-matrix equivalence suite pin that.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct P2Cell {
    /// Marker heights `q_1..q_5`; doubles as the init buffer while the
    /// clock counts the first five ticks.
    q: [f64; 5],
    /// Interior marker positions `n_2..n_4` (1-based as in the paper).
    n: [f64; 3],
}

impl Default for P2Cell {
    fn default() -> Self {
        Self::new()
    }
}

impl P2Cell {
    /// Creates an empty cell.
    pub fn new() -> Self {
        Self {
            q: [0.0; 5],
            n: [2.0, 3.0, 4.0],
        }
    }

    /// Feeds the sample for the clock's current tick. The clock must
    /// already have been advanced with [`P2Clock::tick`] for this
    /// instant.
    pub fn push(&mut self, x: f64, clock: &P2Clock) {
        let count = clock.count;
        debug_assert!(count > 0, "tick the clock before pushing");
        if count <= 5 {
            self.q[(count - 1) as usize] = x;
            if count == 5 {
                self.q
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            }
            return;
        }

        // Reconstruct the full 5-marker position vector; the clock has
        // already advanced np for this tick. The arithmetic below
        // produces bit-identical markers to `P2Quantile::push`; steps 1
        // and 2 are phrased as arithmetic selects instead of the
        // classic branch ladder so the hot matrix-tick loop does not
        // stall on data-dependent branches.
        let q = &mut self.q;
        let mut n = [1.0, self.n[0], self.n[1], self.n[2], (count - 1) as f64];
        let np = &clock.np;

        // 1. Find the cell k containing x and update extreme markers.
        //    The marker heights are non-decreasing (initial sort plus
        //    the neighbor guards of step 3 preserve it), so the cell
        //    index is the count of interior markers at or below x —
        //    three flag additions instead of a five-way ladder. The
        //    extreme updates compile to conditional moves.
        q[0] = if x < q[0] { x } else { q[0] };
        q[4] = if x > q[4] { x } else { q[4] };
        let k = usize::from(x >= q[1]) + usize::from(x >= q[2]) + usize::from(x >= q[3]);

        // 2. Increment positions of markers above the cell. k ≤ 3, so
        //    n[4] always advances; the interior flags add 0.0 or 1.0
        //    (exact for the positive finite positions).
        n[1] += f64::from(u8::from(k < 1));
        n[2] += f64::from(u8::from(k < 2));
        n[3] += f64::from(u8::from(k < 3));
        n[4] += 1.0;

        // 3. Adjust interior markers that drifted off their desired
        //    positions by one or more.
        for i in 1..4 {
            let d = np[i] - n[i];
            if (d >= 1.0 && n[i + 1] - n[i] > 1.0) || (d <= -1.0 && n[i - 1] - n[i] < -1.0) {
                let d = d.signum();
                let candidate = Self::parabolic(q, &n, i, d);
                q[i] = if q[i - 1] < candidate && candidate < q[i + 1] {
                    candidate
                } else {
                    Self::linear(q, &n, i, d)
                };
                n[i] += d;
            }
        }

        self.n = [n[1], n[2], n[3]];
    }

    fn parabolic(q: &[f64; 5], n: &[f64; 5], i: usize, d: f64) -> f64 {
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(q: &[f64; 5], n: &[f64; 5], i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// Current estimate under the given clock, or `None` before any
    /// tick. With fewer than five ticks the exact sample quantile of
    /// the buffered values is returned (matching [`P2Quantile`]).
    pub fn estimate(&self, clock: &P2Clock) -> Option<f64> {
        if clock.count == 0 {
            return None;
        }
        if clock.count < 5 {
            let mut sorted = self.q[..clock.count as usize].to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            return Some(crate::stats::percentile_of_sorted(&sorted, clock.p * 100.0));
        }
        Some(self.q[2])
    }

    /// Forgets all samples.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn streaming_peak_tracks_max() {
        let mut p = StreamingPeak::new();
        assert_eq!(p.peak(), 0.0);
        p.push(-5.0);
        assert_eq!(p.peak(), -5.0);
        p.push(3.0);
        p.push(1.0);
        assert_eq!(p.peak(), 3.0);
        assert_eq!(p.count(), 3);
        p.reset();
        assert_eq!(p.peak(), 0.0);
        assert_eq!(p.count(), 0);
    }

    #[test]
    fn p2_rejects_degenerate_quantiles() {
        assert!(P2Quantile::new(0.0).is_err());
        assert!(P2Quantile::new(1.0).is_err());
        assert!(P2Quantile::new(-0.3).is_err());
        assert!(P2Quantile::new(0.5).is_ok());
    }

    #[test]
    fn p2_exact_below_five_samples() {
        let mut q = P2Quantile::new(0.5).unwrap();
        assert_eq!(q.estimate(), None);
        q.push(3.0);
        assert_eq!(q.estimate(), Some(3.0));
        q.push(1.0);
        // Median of {1, 3} with linear interpolation.
        assert_eq!(q.estimate(), Some(2.0));
    }

    #[test]
    fn p2_close_to_exact_on_uniform() {
        let mut rng = SimRng::new(7);
        let mut q = P2Quantile::new(0.9).unwrap();
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let x = rng.f64();
            q.push(x);
            all.push(x);
        }
        let exact = crate::percentile(&all, 90.0).unwrap();
        let est = q.estimate().unwrap();
        assert!(
            (est - exact).abs() < 0.01,
            "P² estimate {est} too far from exact {exact}"
        );
    }

    #[test]
    fn p2_close_to_exact_on_lognormal() {
        let mut rng = SimRng::new(99);
        let mut q = P2Quantile::new(0.95).unwrap();
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let x = rng.lognormal_mean_cv(2.0, 0.5);
            q.push(x);
            all.push(x);
        }
        let exact = crate::percentile(&all, 95.0).unwrap();
        let est = q.estimate().unwrap();
        assert!(
            (est - exact).abs() / exact < 0.05,
            "P² estimate {est} too far from exact {exact}"
        );
    }

    #[test]
    fn p2_monotone_input() {
        let mut q = P2Quantile::new(0.9).unwrap();
        for i in 0..1000 {
            q.push(i as f64);
        }
        let est = q.estimate().unwrap();
        assert!((est - 900.0).abs() < 30.0, "estimate {est}");
        assert_eq!(q.count(), 1000);
        assert_eq!(q.quantile(), 0.9);
    }

    #[test]
    fn p2_cell_bit_identical_to_p2_quantile() {
        for (seed, p) in [(1u64, 0.5), (7, 0.9), (13, 0.95), (99, 0.05)] {
            let mut rng = SimRng::new(seed);
            let mut reference = P2Quantile::new(p).unwrap();
            let mut clock = P2Clock::new(p).unwrap();
            let mut cell = P2Cell::new();
            assert_eq!(cell.estimate(&clock), None);
            for i in 0..5_000 {
                let x = rng.lognormal_mean_cv(2.0, 0.8);
                reference.push(x);
                clock.tick();
                cell.push(x, &clock);
                let a = reference.estimate().unwrap();
                let b = cell.estimate(&clock).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "diverged at sample {i} (p={p})");
            }
            assert_eq!(clock.count(), 5_000);
            assert_eq!(clock.quantile(), p);
        }
    }

    #[test]
    fn p2_clock_validates_and_resets() {
        assert!(P2Clock::new(0.0).is_err());
        assert!(P2Clock::new(1.0).is_err());
        let mut clock = P2Clock::new(0.9).unwrap();
        let mut cell = P2Cell::new();
        clock.tick();
        cell.push(3.0, &clock);
        assert_eq!(cell.estimate(&clock), Some(3.0));
        clock.reset();
        cell.reset();
        assert_eq!(clock.count(), 0);
        assert_eq!(cell.estimate(&clock), None);
    }
}
