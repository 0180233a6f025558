//! Discrete DVFS frequency ladders.
//!
//! Real servers expose a small set of voltage/frequency operating points;
//! both of the paper's testbeds expose exactly two. The frequency decided
//! by Eqn (4) is continuous, so the runtime must **snap up** to the
//! next-higher available level — rounding down would violate the
//! capacity the equation guarantees.

use crate::PowerError;

/// A CPU core frequency, stored in GHz.
///
/// A thin newtype so frequencies cannot be confused with utilizations or
/// scaling fractions in APIs.
///
/// # Example
///
/// ```
/// use cavm_power::Frequency;
///
/// let f = Frequency::from_ghz(2.3);
/// assert_eq!(f.as_ghz(), 2.3);
/// assert_eq!(f.to_string(), "2.30 GHz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not finite and positive — construction from a
    /// constant is a programming decision, not runtime input.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency {ghz} GHz");
        Self(ghz)
    }

    /// The frequency in GHz.
    pub fn as_ghz(&self) -> f64 {
        self.0
    }

    /// `self / other`, the dimensionless scaling factor between two
    /// frequencies.
    pub fn ratio_to(&self, other: Frequency) -> f64 {
        self.0 / other.0
    }
}

impl std::fmt::Display for Frequency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} GHz", self.0)
    }
}

/// An ascending set of discrete frequency levels.
///
/// # Example
///
/// ```
/// use cavm_power::{DvfsLadder, Frequency};
///
/// # fn main() -> Result<(), cavm_power::PowerError> {
/// let ladder = DvfsLadder::new(vec![
///     Frequency::from_ghz(2.3),
///     Frequency::from_ghz(2.0),
/// ])?;
/// assert_eq!(ladder.min().as_ghz(), 2.0);
/// assert_eq!(ladder.max().as_ghz(), 2.3);
/// // Requests above the top level saturate at the top level.
/// assert_eq!(ladder.snap_up(Frequency::from_ghz(9.9)), ladder.max());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsLadder {
    /// Ascending, deduplicated levels.
    levels: Vec<Frequency>,
}

impl DvfsLadder {
    /// Builds a ladder from levels in any order; duplicates are merged.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::EmptyLadder`] when no level is given.
    pub fn new(mut levels: Vec<Frequency>) -> crate::Result<Self> {
        if levels.is_empty() {
            return Err(PowerError::EmptyLadder);
        }
        levels.sort_by(|a, b| a.partial_cmp(b).expect("finite frequencies"));
        levels.dedup();
        Ok(Self { levels })
    }

    /// The Intel Xeon E5410 ladder of the paper's Setup-2: 2.0 / 2.3 GHz.
    pub fn xeon_e5410() -> Self {
        Self::new(vec![Frequency::from_ghz(2.0), Frequency::from_ghz(2.3)])
            .expect("static ladder is non-empty")
    }

    /// The AMD Opteron 6174 ladder of the paper's Setup-1: 1.9 / 2.1 GHz.
    pub fn opteron_6174() -> Self {
        Self::new(vec![Frequency::from_ghz(1.9), Frequency::from_ghz(2.1)])
            .expect("static ladder is non-empty")
    }

    /// Ascending levels.
    pub fn levels(&self) -> &[Frequency] {
        &self.levels
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `false` by construction (a ladder always has a level); provided
    /// for API completeness.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Lowest level.
    pub fn min(&self) -> Frequency {
        self.levels[0]
    }

    /// Highest level.
    pub fn max(&self) -> Frequency {
        self.levels[self.levels.len() - 1]
    }

    /// Index of an exact level, or `None`.
    pub fn index_of(&self, f: Frequency) -> Option<usize> {
        self.levels.iter().position(|&l| l == f)
    }

    /// Level at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<Frequency> {
        self.levels.get(index).copied()
    }

    /// Lowest level ≥ `required`; saturates at the top level when the
    /// request exceeds it (the caller must then accept reduced headroom —
    /// this mirrors a real governor pegged at `fmax`).
    pub fn snap_up(&self, required: Frequency) -> Frequency {
        for &level in &self.levels {
            if level >= required {
                return level;
            }
        }
        self.max()
    }

    /// Snap-up from a fraction of the maximum frequency: the form Eqn (4)
    /// produces (`f_i / f_max`). Fractions ≤ 0 yield the bottom level.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for non-finite fractions.
    pub fn snap_up_fraction(&self, fraction: f64) -> crate::Result<Frequency> {
        if !fraction.is_finite() {
            return Err(PowerError::InvalidParameter(
                "frequency fraction must be finite",
            ));
        }
        if fraction <= 0.0 {
            return Ok(self.min());
        }
        let required = self.max().as_ghz() * fraction;
        Ok(self.snap_up(Frequency::from_ghz(required.max(f64::MIN_POSITIVE))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn frequency_rejects_zero() {
        Frequency::from_ghz(0.0);
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn frequency_rejects_nan() {
        Frequency::from_ghz(f64::NAN);
    }

    #[test]
    fn frequency_conversions_and_ratio() {
        let f = Frequency::from_ghz(2.3);
        assert_eq!(f.as_ghz(), 2.3);
        let g = Frequency::from_ghz(2.0);
        assert!((g.ratio_to(f) - 2.0 / 2.3).abs() < 1e-12);
        assert_eq!(format!("{f}"), "2.30 GHz");
    }

    #[test]
    fn ladder_sorts_and_dedups() {
        let l = DvfsLadder::new(vec![
            Frequency::from_ghz(2.0),
            Frequency::from_ghz(1.0),
            Frequency::from_ghz(2.0),
        ])
        .unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l.min().as_ghz(), 1.0);
        assert_eq!(l.max().as_ghz(), 2.0);
        assert!(!l.is_empty());
        assert!(matches!(
            DvfsLadder::new(vec![]),
            Err(PowerError::EmptyLadder)
        ));
    }

    #[test]
    fn snap_up_selects_lowest_sufficient_level() {
        let l = DvfsLadder::new(vec![
            Frequency::from_ghz(1.0),
            Frequency::from_ghz(1.5),
            Frequency::from_ghz(2.0),
        ])
        .unwrap();
        assert_eq!(l.snap_up(Frequency::from_ghz(0.3)).as_ghz(), 1.0);
        assert_eq!(l.snap_up(Frequency::from_ghz(1.0)).as_ghz(), 1.0);
        assert_eq!(l.snap_up(Frequency::from_ghz(1.01)).as_ghz(), 1.5);
        assert_eq!(l.snap_up(Frequency::from_ghz(1.7)).as_ghz(), 2.0);
        assert_eq!(l.snap_up(Frequency::from_ghz(5.0)).as_ghz(), 2.0);
    }

    #[test]
    fn snap_up_fraction_handles_edges() {
        let l = DvfsLadder::xeon_e5410();
        assert_eq!(l.snap_up_fraction(0.0).unwrap(), l.min());
        assert_eq!(l.snap_up_fraction(-3.0).unwrap(), l.min());
        assert_eq!(l.snap_up_fraction(0.5).unwrap().as_ghz(), 2.0);
        // 2.0/2.3 ≈ 0.8696: anything above needs the top level.
        assert_eq!(l.snap_up_fraction(0.88).unwrap().as_ghz(), 2.3);
        assert_eq!(l.snap_up_fraction(1.0).unwrap().as_ghz(), 2.3);
        assert_eq!(l.snap_up_fraction(1.5).unwrap().as_ghz(), 2.3);
        assert!(l.snap_up_fraction(f64::NAN).is_err());
    }

    #[test]
    fn presets_match_paper() {
        let xeon = DvfsLadder::xeon_e5410();
        assert_eq!(xeon.levels().len(), 2);
        assert_eq!(xeon.min().as_ghz(), 2.0);
        assert_eq!(xeon.max().as_ghz(), 2.3);
        let opteron = DvfsLadder::opteron_6174();
        assert_eq!(opteron.min().as_ghz(), 1.9);
        assert_eq!(opteron.max().as_ghz(), 2.1);
    }

    #[test]
    fn index_and_get() {
        let l = DvfsLadder::xeon_e5410();
        assert_eq!(l.index_of(Frequency::from_ghz(2.0)), Some(0));
        assert_eq!(l.index_of(Frequency::from_ghz(2.3)), Some(1));
        assert_eq!(l.index_of(Frequency::from_ghz(2.1)), None);
        assert_eq!(l.get(1).unwrap().as_ghz(), 2.3);
        assert_eq!(l.get(2), None);
    }
}
