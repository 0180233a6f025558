//! Energy accounting.
//!
//! Table II of the paper reports *normalized power*: the total energy a
//! policy consumes over the 24-hour trace divided by the BFD baseline's.
//! [`EnergyMeter`] integrates instantaneous power over sampled intervals
//! and exposes the totals that normalization needs.
//!
//! # Example
//!
//! The Table II quantity end to end — integrate two policies' draw,
//! then normalize one against the other:
//!
//! ```
//! use cavm_power::EnergyMeter;
//!
//! let mut bfd = EnergyMeter::new();
//! let mut proposed = EnergyMeter::new();
//! for _sample in 0..720 {
//!     bfd.add(400.0, 5.0); // three busy servers
//!     proposed.add(320.0, 5.0); // two, slightly hotter
//! }
//! let normalized = proposed.normalized_to(&bfd).expect("baseline > 0");
//! assert!((normalized - 0.8).abs() < 1e-12);
//! assert_eq!(bfd.seconds(), 3600.0);
//! ```

use serde::{Deserialize, Serialize};

/// Accumulates energy (the time integral of power) over a simulation.
///
/// # Example
///
/// ```
/// use cavm_power::EnergyMeter;
///
/// let mut meter = EnergyMeter::new();
/// meter.add(250.0, 5.0); // 250 W for 5 s
/// meter.add(100.0, 5.0);
/// assert_eq!(meter.joules(), 1750.0);
/// assert_eq!(meter.seconds(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    joules: f64,
    seconds: f64,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `watts` of draw sustained for `dt_seconds`.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite inputs — callers feed simulator
    /// output, so a bad value is a bug upstream, not recoverable input.
    pub fn add(&mut self, watts: f64, dt_seconds: f64) {
        assert!(watts.is_finite() && watts >= 0.0, "bad power {watts} W");
        assert!(
            dt_seconds.is_finite() && dt_seconds >= 0.0,
            "bad dt {dt_seconds} s"
        );
        self.joules += watts * dt_seconds;
        self.seconds += dt_seconds;
    }

    /// Merges another meter's accumulation into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.joules += other.joules;
        self.seconds += other.seconds;
    }

    /// Total accumulated energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total accumulated energy in kilowatt-hours.
    pub fn kilowatt_hours(&self) -> f64 {
        self.joules / 3.6e6
    }

    /// Total covered time in seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// This meter's energy as a fraction of `baseline`'s (the Table II
    /// "normalized power"), or `None` when the baseline accumulated
    /// nothing.
    pub fn normalized_to(&self, baseline: &EnergyMeter) -> Option<f64> {
        if baseline.joules == 0.0 {
            None
        } else {
            Some(self.joules / baseline.joules)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_converts() {
        let mut m = EnergyMeter::new();
        assert_eq!(m.joules(), 0.0);
        m.add(100.0, 36.0);
        assert_eq!(m.joules(), 3600.0);
        assert!((m.kilowatt_hours() - 0.001).abs() < 1e-12);
        assert_eq!(m.seconds(), 36.0);
    }

    #[test]
    fn meter_merge() {
        let mut a = EnergyMeter::new();
        a.add(10.0, 1.0);
        let mut b = EnergyMeter::new();
        b.add(20.0, 2.0);
        a.merge(&b);
        assert_eq!(a.joules(), 50.0);
        assert_eq!(a.seconds(), 3.0);
    }

    #[test]
    fn normalization() {
        let mut a = EnergyMeter::new();
        a.add(50.0, 10.0);
        let mut b = EnergyMeter::new();
        b.add(100.0, 10.0);
        assert_eq!(a.normalized_to(&b), Some(0.5));
        assert_eq!(a.normalized_to(&EnergyMeter::new()), None);
    }

    #[test]
    #[should_panic(expected = "bad power")]
    fn meter_rejects_negative_power() {
        EnergyMeter::new().add(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "bad dt")]
    fn meter_rejects_negative_dt() {
        EnergyMeter::new().add(1.0, -1.0);
    }
}
