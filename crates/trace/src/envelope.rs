//! Verma-style binary envelopes.
//!
//! The PCP baseline of the paper (Verma et al., USENIX 2009, reference
//! \[6\]) clusters VMs by their **envelopes**: a VM's envelope is "a binary
//! sequence where the value becomes '1' when CPU utilization is higher
//! than the off-peak value, otherwise '0'" (paper §II). Two VMs whose
//! envelopes overlap peak together and must not be co-located; VMs in
//! different clusters peak at different times and may share a server with
//! off-peak provisioning plus a shared peak buffer.
//!
//! [`Envelope`] materializes that binary sequence and offers the overlap
//! metrics the clustering step needs.
//!
//! **Layout.** The sequence is packed 64 samples to a `u64` word, with
//! the active count cached beside it: PCP compares every pair of a
//! period's envelopes at every re-pack, and on packed words an overlap
//! is `popcount(a & b)` over 12 words for a 720-sample period, where
//! one `bool` per sample took three passes over 720 bytes.

use crate::{Reference, TimeSeries, TraceError};
use serde::{Deserialize, Serialize};

/// A binary peak-activity sequence derived from a utilization trace.
///
/// # Example
///
/// ```
/// use cavm_trace::{Envelope, Reference, TimeSeries};
///
/// # fn main() -> Result<(), cavm_trace::TraceError> {
/// let trace = TimeSeries::new(1.0, vec![0.1, 0.9, 0.95, 0.2, 0.85])?;
/// // Samples at or above the 60th percentile count as "peaking".
/// let env = Envelope::from_series(&trace, Reference::Percentile(60.0))?;
/// assert_eq!(env.active_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// Sample `k` is bit `k % 64` of `words[k / 64]`. The bits of the
    /// last word past `len` are zero, so they never count and derived
    /// equality is equality of the sequences.
    words: Vec<u64>,
    /// Number of samples covered.
    len: usize,
    /// Cached popcount of `words`: every overlap metric divides by it.
    active: usize,
}

impl Envelope {
    /// Builds an envelope by thresholding a trace at its own reference
    /// value (`u(t) ≥ û` ⇒ active).
    ///
    /// With [`Reference::Peak`] only the exact peak samples are active;
    /// the useful settings are off-peak percentiles (the paper uses the
    /// 90th).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyInput`] on an empty trace and percentile
    /// errors from the reference evaluation.
    pub fn from_series(series: &TimeSeries, reference: Reference) -> crate::Result<Self> {
        let threshold = reference.of_series(series)?;
        Ok(Self::from_threshold(series, threshold))
    }

    /// Builds an envelope by thresholding at an absolute utilization
    /// value.
    pub fn from_threshold(series: &TimeSeries, threshold: f64) -> Self {
        Self::pack(series.values().iter().map(|&v| v >= threshold))
    }

    /// Builds an envelope from raw bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Self::pack(bits.into_iter())
    }

    /// Packs the bits, 64 to a word.
    fn pack(bits: impl ExactSizeIterator<Item = bool>) -> Self {
        let len = bits.len();
        let mut words = vec![0u64; len.div_ceil(64)];
        let mut active = 0;
        for (k, bit) in bits.enumerate() {
            if bit {
                words[k / 64] |= 1 << (k % 64);
                active += 1;
            }
        }
        Self { words, len, active }
    }

    /// Number of samples covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the envelope covers no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of active ('1') samples.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Number of samples where both envelopes are active.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] when lengths differ.
    pub fn overlap_count(&self, other: &Envelope) -> crate::Result<usize> {
        if self.len() != other.len() {
            return Err(TraceError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum())
    }

    /// Overlap normalized by the smaller active count: 1.0 means the
    /// smaller envelope's peaks are entirely contained in the other's.
    /// Returns 0.0 when either envelope has no active samples (no peaks
    /// cannot collide).
    ///
    /// This is the clustering affinity used by the PCP baseline: two VMs
    /// with high containment peak together.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] when lengths differ.
    pub fn containment(&self, other: &Envelope) -> crate::Result<f64> {
        let overlap = self.overlap_count(other)?;
        let denom = self.active_count().min(other.active_count());
        if denom == 0 {
            Ok(0.0)
        } else {
            Ok(overlap as f64 / denom as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        TimeSeries::new(1.0, values.to_vec()).unwrap()
    }

    #[test]
    fn threshold_envelope() {
        let t = series(&[0.1, 0.5, 0.9, 0.5, 0.1]);
        let e = Envelope::from_threshold(&t, 0.5);
        assert_eq!(e, Envelope::from_bits(vec![false, true, true, true, false]));
        assert_eq!(e.active_count(), 3);
        assert_eq!(e.len(), 5);
    }

    #[test]
    fn reference_envelope_peak_marks_only_peaks() {
        let t = series(&[0.2, 0.8, 0.8, 0.1]);
        let e = Envelope::from_series(&t, Reference::Peak).unwrap();
        assert_eq!(e, Envelope::from_bits(vec![false, true, true, false]));
    }

    #[test]
    fn empty_envelope() {
        let e = Envelope::from_bits(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.active_count(), 0);
        let t = TimeSeries::new(1.0, vec![]).unwrap();
        assert!(Envelope::from_series(&t, Reference::Percentile(90.0)).is_err());
    }

    #[test]
    fn overlap_and_jaccard() {
        let a = Envelope::from_bits(vec![true, true, false, false]);
        let b = Envelope::from_bits(vec![false, true, true, false]);
        let overlap = a.overlap_count(&b).unwrap();
        assert_eq!(overlap, 1);
        // Jaccard |A∩B| / |A∪B| from the counts: 1 / (2 + 2 - 1).
        let union = a.active_count() + b.active_count() - overlap;
        assert!((overlap as f64 / union as f64 - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.containment(&b).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disjoint_envelopes() {
        let a = Envelope::from_bits(vec![true, false, true, false]);
        let b = Envelope::from_bits(vec![false, true, false, true]);
        assert_eq!(a.overlap_count(&b).unwrap(), 0);
        assert_eq!(a.containment(&b).unwrap(), 0.0);
    }

    #[test]
    fn all_inactive_has_zero_affinity() {
        let a = Envelope::from_bits(vec![false, false]);
        let b = Envelope::from_bits(vec![false, false]);
        assert_eq!(a.overlap_count(&b).unwrap(), 0);
        assert_eq!(a.containment(&b).unwrap(), 0.0);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let a = Envelope::from_bits(vec![true]);
        let b = Envelope::from_bits(vec![true, false]);
        assert!(matches!(
            a.overlap_count(&b),
            Err(TraceError::LengthMismatch { .. })
        ));
        assert!(matches!(
            a.containment(&b),
            Err(TraceError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn containment_is_symmetric() {
        let a = Envelope::from_bits(vec![true, true, true, false]);
        let b = Envelope::from_bits(vec![true, false, false, false]);
        assert_eq!(a.containment(&b).unwrap(), b.containment(&a).unwrap());
    }
}
