//! Client-population drive signals.
//!
//! Setup-1 of the paper emulates clients with Faban and "varied the
//! number of clients from 0∼300 with the form of sine and cosine waves
//! for Cluster1 and Cluster2, respectively". [`ClientWave`] reproduces
//! those signals (plus a few extra shapes useful for ablations) as
//! deterministic [`TimeSeries`].

use crate::WorkloadError;
use cavm_trace::TimeSeries;
use serde::{Deserialize, Serialize};

/// Periodic waveform shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaveShape {
    /// `mid + amp·sin(2πt/T)` — Cluster1's drive in the paper.
    Sine,
    /// `mid + amp·cos(2πt/T)` — Cluster2's drive in the paper.
    Cosine,
    /// Square wave between min and max (duty cycle 50%).
    Square,
    /// Symmetric triangle wave between min and max.
    Triangle,
}

/// A periodic client-count signal between a floor and a ceiling.
///
/// # Example
///
/// ```
/// use cavm_workload::clients::ClientWave;
///
/// # fn main() -> Result<(), cavm_workload::WorkloadError> {
/// let sine = ClientWave::sine(0.0, 300.0, 1200.0)?;
/// let cosine = ClientWave::cosine(0.0, 300.0, 1200.0)?;
/// // The two drives are 90° out of phase: when one peaks the other is
/// // at its midpoint.
/// assert!((sine.value_at(300.0) - 300.0).abs() < 1e-9);
/// assert!((cosine.value_at(0.0) - 300.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientWave {
    shape: WaveShape,
    min: f64,
    max: f64,
    period_s: f64,
    phase_rad: f64,
}

impl ClientWave {
    /// Creates a wave with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when `min > max`,
    /// bounds are non-finite, or the period is not positive.
    pub fn new(shape: WaveShape, min: f64, max: f64, period_s: f64) -> crate::Result<Self> {
        if !(min.is_finite() && max.is_finite() && min <= max) {
            return Err(WorkloadError::InvalidParameter(
                "wave bounds must be finite, min <= max",
            ));
        }
        if !(period_s.is_finite() && period_s > 0.0) {
            return Err(WorkloadError::InvalidParameter("wave period must be > 0"));
        }
        Ok(Self {
            shape,
            min,
            max,
            period_s,
            phase_rad: 0.0,
        })
    }

    /// Sine wave between `min` and `max` (paper's Cluster1 drive).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClientWave::new`].
    pub fn sine(min: f64, max: f64, period_s: f64) -> crate::Result<Self> {
        Self::new(WaveShape::Sine, min, max, period_s)
    }

    /// Cosine wave between `min` and `max` (paper's Cluster2 drive).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClientWave::new`].
    pub fn cosine(min: f64, max: f64, period_s: f64) -> crate::Result<Self> {
        Self::new(WaveShape::Cosine, min, max, period_s)
    }

    /// The waveform shape.
    pub fn shape(&self) -> WaveShape {
        self.shape
    }

    /// Floor of the signal.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Ceiling of the signal.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Period in seconds.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Instantaneous client count at time `t` seconds.
    pub fn value_at(&self, t: f64) -> f64 {
        let mid = (self.min + self.max) / 2.0;
        let amp = (self.max - self.min) / 2.0;
        let theta = 2.0 * std::f64::consts::PI * t / self.period_s + self.phase_rad;
        match self.shape {
            WaveShape::Sine => mid + amp * theta.sin(),
            WaveShape::Cosine => mid + amp * theta.cos(),
            WaveShape::Square => {
                if theta.sin() >= 0.0 {
                    self.max
                } else {
                    self.min
                }
            }
            WaveShape::Triangle => {
                // Triangle from the phase within the period, peak at T/2.
                let frac = (theta / (2.0 * std::f64::consts::PI)).rem_euclid(1.0);
                let tri = if frac < 0.5 {
                    2.0 * frac
                } else {
                    2.0 * (1.0 - frac)
                };
                self.min + (self.max - self.min) * tri
            }
        }
    }

    /// Samples `n` points every `dt` seconds, deterministically.
    ///
    /// # Errors
    ///
    /// Propagates series-construction errors (invalid `dt`).
    pub fn sample(&self, dt: f64, n: usize) -> crate::Result<TimeSeries> {
        Ok(TimeSeries::from_fn(dt, n, |i| {
            self.value_at(i as f64 * dt)
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(ClientWave::sine(10.0, 5.0, 100.0).is_err());
        assert!(ClientWave::sine(0.0, 10.0, 0.0).is_err());
        assert!(ClientWave::sine(f64::NAN, 10.0, 100.0).is_err());
        assert!(ClientWave::sine(0.0, 10.0, -5.0).is_err());
    }

    #[test]
    fn sine_hits_extremes_and_midpoint() {
        let w = ClientWave::sine(0.0, 300.0, 1200.0).unwrap();
        assert!((w.value_at(0.0) - 150.0).abs() < 1e-9);
        assert!((w.value_at(300.0) - 300.0).abs() < 1e-9);
        assert!((w.value_at(900.0) - 0.0).abs() < 1e-9);
        assert_eq!(w.shape(), WaveShape::Sine);
        assert_eq!((w.min(), w.max(), w.period_s()), (0.0, 300.0, 1200.0));
    }

    #[test]
    fn cosine_is_sine_shifted_by_quarter_period() {
        let s = ClientWave::sine(0.0, 300.0, 1200.0).unwrap();
        let c = ClientWave::cosine(0.0, 300.0, 1200.0).unwrap();
        for &t in &[0.0, 123.0, 599.0, 1111.0] {
            assert!((c.value_at(t) - s.value_at(t + 300.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn square_and_triangle_stay_in_bounds() {
        for shape in [WaveShape::Square, WaveShape::Triangle] {
            let w = ClientWave::new(shape, 1.0, 9.0, 60.0).unwrap();
            for i in 0..600 {
                let v = w.value_at(i as f64 * 0.25);
                assert!((1.0..=9.0).contains(&v), "{shape:?} out of bounds: {v}");
            }
        }
    }

    #[test]
    fn triangle_peaks_mid_period() {
        let w = ClientWave::new(WaveShape::Triangle, 0.0, 10.0, 100.0).unwrap();
        assert!((w.value_at(0.0) - 0.0).abs() < 1e-9);
        assert!((w.value_at(50.0) - 10.0).abs() < 1e-9);
        assert!((w.value_at(25.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sample_is_periodic() {
        let w = ClientWave::sine(0.0, 100.0, 50.0).unwrap();
        let t = w.sample(1.0, 100).unwrap();
        for i in 0..50 {
            assert!((t.values()[i] - t.values()[i + 50]).abs() < 1e-9);
        }
    }
}
