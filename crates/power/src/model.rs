//! Server power models.
//!
//! The paper's Setup-2 "used the power model proposed in \[13\]" (Pedram et
//! al., *Power and performance modeling in a virtualized server system*),
//! which expresses server power as an affine function of CPU utilization
//! with frequency-dependent coefficients. [`LinearPowerModel`] is exactly
//! that shape: per frequency level, an idle wattage and a busy wattage,
//! interpolated linearly in utilization.
//!
//! Utilization here is the fraction `u ∈ [0, 1]` of the server's
//! capacity **at the given frequency** that is busy. Energy comparisons
//! in Table II only depend on power *ratios*, so absolute calibration is
//! not critical — the presets use plausible published figures for the two
//! testbed machines.

use crate::{DvfsLadder, Frequency, PowerError};
use serde::{Deserialize, Serialize};

/// Instantaneous server power as a function of utilization and frequency.
///
/// Implementors must be monotone: more utilization or a higher frequency
/// never consumes less power. The property tests in `cavm-power` pin this
/// for the provided models.
pub trait PowerModel {
    /// Power draw in watts at utilization `u ∈ [0, 1]` and frequency `f`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidUtilization`] when `u ∉ [0, 1]` and
    /// [`PowerError::UnknownLevel`] when `f` is not a level this model
    /// knows.
    fn power(&self, u: f64, f: Frequency) -> crate::Result<f64>;

    /// Power draw of a powered-off (or deep-sleep) server in watts.
    /// Defaults to zero — the consolidation literature and the paper
    /// count switched-off servers as free.
    fn off_power(&self) -> f64 {
        0.0
    }

    /// The frequency ladder this model is calibrated for.
    fn ladder(&self) -> &DvfsLadder;
}

/// Per-level idle/busy wattage pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelPower {
    /// Level frequency.
    pub frequency: Frequency,
    /// Watts drawn at `u = 0` (idle at this level).
    pub idle_watts: f64,
    /// Watts drawn at `u = 1` (fully busy at this level).
    pub busy_watts: f64,
}

/// Affine-in-utilization power model with per-frequency calibration
/// points (the Pedram et al. form used by the paper).
///
/// # Example
///
/// ```
/// use cavm_power::{Frequency, LinearPowerModel, PowerModel};
///
/// # fn main() -> Result<(), cavm_power::PowerError> {
/// let model = LinearPowerModel::xeon_e5410();
/// let f_low = Frequency::from_ghz(2.0);
/// let idle = model.power(0.0, f_low)?;
/// let busy = model.power(1.0, f_low)?;
/// let half = model.power(0.5, f_low)?;
/// assert!((half - (idle + busy) / 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearPowerModel {
    ladder: DvfsLadder,
    /// Aligned with `ladder.levels()`.
    points: Vec<LevelPower>,
}

impl LinearPowerModel {
    /// Builds a model from calibration points (one per level, any order).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::EmptyLadder`] with no points,
    /// [`PowerError::InvalidParameter`] if wattages are negative,
    /// non-finite, busy < idle, or power is not monotone in frequency.
    pub fn new(mut points: Vec<LevelPower>) -> crate::Result<Self> {
        if points.is_empty() {
            return Err(PowerError::EmptyLadder);
        }
        for p in &points {
            let ok = p.idle_watts.is_finite()
                && p.busy_watts.is_finite()
                && p.idle_watts >= 0.0
                && p.busy_watts >= p.idle_watts;
            if !ok {
                return Err(PowerError::InvalidParameter(
                    "level power points require 0 <= idle <= busy, finite",
                ));
            }
        }
        points.sort_by(|a, b| {
            a.frequency
                .partial_cmp(&b.frequency)
                .expect("finite frequencies")
        });
        for pair in points.windows(2) {
            if pair[0].frequency == pair[1].frequency {
                return Err(PowerError::InvalidParameter("duplicate frequency level"));
            }
            if pair[0].idle_watts > pair[1].idle_watts || pair[0].busy_watts > pair[1].busy_watts {
                return Err(PowerError::InvalidParameter(
                    "power must be monotone non-decreasing in frequency",
                ));
            }
        }
        let ladder = DvfsLadder::new(points.iter().map(|p| p.frequency).collect())?;
        Ok(Self { ladder, points })
    }

    /// Preset for the Intel Xeon E5410 server of Setup-2 (2.0/2.3 GHz).
    ///
    /// Idle/busy figures follow typical published SPECpower-era numbers
    /// for dual-socket Harpertown boxes (the top level pays the higher
    /// core voltage across the whole envelope); only ratios matter for
    /// the normalized Table II comparison.
    pub fn xeon_e5410() -> Self {
        Self::new(vec![
            LevelPower {
                frequency: Frequency::from_ghz(2.0),
                idle_watts: 160.0,
                busy_watts: 250.0,
            },
            LevelPower {
                frequency: Frequency::from_ghz(2.3),
                idle_watts: 190.0,
                busy_watts: 300.0,
            },
        ])
        .expect("static preset is valid")
    }

    /// Preset for the AMD Opteron 6174 (DELL R815) server of Setup-1
    /// (1.9/2.1 GHz).
    pub fn opteron_6174() -> Self {
        Self::new(vec![
            LevelPower {
                frequency: Frequency::from_ghz(1.9),
                idle_watts: 210.0,
                busy_watts: 330.0,
            },
            LevelPower {
                frequency: Frequency::from_ghz(2.1),
                idle_watts: 225.0,
                busy_watts: 375.0,
            },
        ])
        .expect("static preset is valid")
    }

    /// Calibration points, ascending by frequency.
    pub fn points(&self) -> &[LevelPower] {
        &self.points
    }

    /// A copy with every idle/busy wattage multiplied by `factor` — a
    /// quick way to derive plausible models for bigger or smaller boxes
    /// of the same generation (e.g. a dual-board 16-core sibling at
    /// `factor = 2.0`) when building heterogeneous fleets.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for a non-finite or
    /// non-positive factor.
    pub fn scaled(&self, factor: f64) -> crate::Result<Self> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(PowerError::InvalidParameter(
                "power scale factor must be finite and > 0",
            ));
        }
        Self::new(
            self.points
                .iter()
                .map(|p| LevelPower {
                    frequency: p.frequency,
                    idle_watts: p.idle_watts * factor,
                    busy_watts: p.busy_watts * factor,
                })
                .collect(),
        )
    }
}

impl PowerModel for LinearPowerModel {
    fn power(&self, u: f64, f: Frequency) -> crate::Result<f64> {
        if !(0.0..=1.0).contains(&u) || u.is_nan() {
            return Err(PowerError::InvalidUtilization(u));
        }
        let point = self
            .points
            .iter()
            .find(|p| p.frequency == f)
            .ok_or(PowerError::UnknownLevel(f))?;
        Ok(point.idle_watts + (point.busy_watts - point.idle_watts) * u)
    }

    fn ladder(&self) -> &DvfsLadder {
        &self.ladder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_interpolates() {
        let m = LinearPowerModel::xeon_e5410();
        let f = Frequency::from_ghz(2.3);
        assert_eq!(m.power(0.0, f).unwrap(), 190.0);
        assert_eq!(m.power(1.0, f).unwrap(), 300.0);
        assert!((m.power(0.25, f).unwrap() - (190.0 + 0.25 * 110.0)).abs() < 1e-9);
    }

    #[test]
    fn linear_model_validates_inputs() {
        let m = LinearPowerModel::xeon_e5410();
        let f = Frequency::from_ghz(2.3);
        assert!(matches!(
            m.power(-0.1, f),
            Err(PowerError::InvalidUtilization(_))
        ));
        assert!(matches!(
            m.power(1.1, f),
            Err(PowerError::InvalidUtilization(_))
        ));
        assert!(matches!(
            m.power(f64::NAN, f),
            Err(PowerError::InvalidUtilization(_))
        ));
        assert!(matches!(
            m.power(0.5, Frequency::from_ghz(3.0)),
            Err(PowerError::UnknownLevel(_))
        ));
    }

    #[test]
    fn linear_model_rejects_bad_points() {
        // busy < idle
        assert!(LinearPowerModel::new(vec![LevelPower {
            frequency: Frequency::from_ghz(1.0),
            idle_watts: 100.0,
            busy_watts: 50.0,
        }])
        .is_err());
        // duplicate level
        assert!(LinearPowerModel::new(vec![
            LevelPower {
                frequency: Frequency::from_ghz(1.0),
                idle_watts: 10.0,
                busy_watts: 20.0
            },
            LevelPower {
                frequency: Frequency::from_ghz(1.0),
                idle_watts: 11.0,
                busy_watts: 21.0
            },
        ])
        .is_err());
        // power decreasing in frequency
        assert!(LinearPowerModel::new(vec![
            LevelPower {
                frequency: Frequency::from_ghz(1.0),
                idle_watts: 50.0,
                busy_watts: 100.0
            },
            LevelPower {
                frequency: Frequency::from_ghz(2.0),
                idle_watts: 40.0,
                busy_watts: 90.0
            },
        ])
        .is_err());
        // empty
        assert!(matches!(
            LinearPowerModel::new(vec![]),
            Err(PowerError::EmptyLadder)
        ));
    }

    #[test]
    fn linear_model_monotone_in_frequency() {
        let m = LinearPowerModel::xeon_e5410();
        for &u in &[0.0, 0.3, 0.7, 1.0] {
            let lo = m.power(u, Frequency::from_ghz(2.0)).unwrap();
            let hi = m.power(u, Frequency::from_ghz(2.3)).unwrap();
            assert!(lo < hi, "u={u}: {lo} !< {hi}");
        }
    }

    #[test]
    fn scaled_model_multiplies_wattages() {
        let m = LinearPowerModel::xeon_e5410();
        let double = m.scaled(2.0).unwrap();
        let f = Frequency::from_ghz(2.0);
        assert_eq!(
            double.power(0.0, f).unwrap(),
            2.0 * m.power(0.0, f).unwrap()
        );
        assert_eq!(
            double.power(1.0, f).unwrap(),
            2.0 * m.power(1.0, f).unwrap()
        );
        assert_eq!(double.ladder(), m.ladder());
        assert!(m.scaled(0.0).is_err());
        assert!(m.scaled(f64::NAN).is_err());
    }

    #[test]
    fn presets_expose_ladders() {
        assert_eq!(LinearPowerModel::xeon_e5410().ladder().len(), 2);
        assert_eq!(LinearPowerModel::opteron_6174().ladder().len(), 2);
        assert_eq!(LinearPowerModel::xeon_e5410().points().len(), 2);
        assert_eq!(LinearPowerModel::xeon_e5410().off_power(), 0.0);
    }

    #[test]
    fn models_are_object_safe() {
        let models: Vec<Box<dyn PowerModel>> = vec![
            Box::new(LinearPowerModel::xeon_e5410()),
            Box::new(LinearPowerModel::opteron_6174()),
        ];
        for m in &models {
            let p = m.power(0.5, m.ladder().max()).unwrap();
            assert!(p > 0.0);
        }
    }
}
