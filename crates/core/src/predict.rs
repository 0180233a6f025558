//! Per-VM workload predictors.
//!
//! The UPDATE phase predicts each VM's next-period reference utilization
//! û from history (Fig 2, line 5). Setup-2 "performed VM placement every
//! 1 hour ... with predictions of upcoming workloads using a last-value
//! predictor"; the paper attributes the residual QoS violations of *all*
//! policies to the mis-predictions of exactly this step, so the
//! predictor is a first-class, swappable component here
//! ([`Predictor`]), with the paper's [`LastValuePredictor`] as the
//! default and moving-average / EWMA alternatives for the ablation
//! experiment.

use crate::CoreError;
use std::collections::VecDeque;

/// Predicts the next-period reference utilization of each VM from the
/// per-period values observed so far.
///
/// Implementations are deterministic state machines: `observe` feeds the
/// measured û of a completed period, `predict` returns the estimate for
/// the upcoming one (or `None` before any observation — callers fall
/// back to a provisioning default).
pub trait Predictor {
    /// Feeds the measured per-period û of VM `vm`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVm`] for an out-of-range VM id.
    fn observe(&mut self, vm: usize, value: f64) -> crate::Result<()>;

    /// Predicted û of VM `vm` for the next period, or `None` before the
    /// first observation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVm`] for an out-of-range VM id.
    fn predict(&self, vm: usize) -> crate::Result<Option<f64>>;

    /// Number of VMs tracked.
    fn vm_count(&self) -> usize;
}

/// The paper's predictor: next period = last observed period.
///
/// # Example
///
/// ```
/// use cavm_core::predict::{LastValuePredictor, Predictor};
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let mut p = LastValuePredictor::new(2);
/// assert_eq!(p.predict(0)?, None);
/// p.observe(0, 3.5)?;
/// p.observe(0, 2.0)?;
/// assert_eq!(p.predict(0)?, Some(2.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LastValuePredictor {
    last: Vec<Option<f64>>,
}

impl LastValuePredictor {
    /// Creates a predictor for `vm_count` VMs.
    pub fn new(vm_count: usize) -> Self {
        Self {
            last: vec![None; vm_count],
        }
    }
}

impl Predictor for LastValuePredictor {
    fn observe(&mut self, vm: usize, value: f64) -> crate::Result<()> {
        let known = self.last.len();
        let slot = self
            .last
            .get_mut(vm)
            .ok_or(CoreError::UnknownVm { id: vm, known })?;
        *slot = Some(value);
        Ok(())
    }

    fn predict(&self, vm: usize) -> crate::Result<Option<f64>> {
        self.last.get(vm).copied().ok_or(CoreError::UnknownVm {
            id: vm,
            known: self.last.len(),
        })
    }

    fn vm_count(&self) -> usize {
        self.last.len()
    }
}

/// Mean of the last `window` observed periods.
#[derive(Debug, Clone, PartialEq)]
pub struct MovingAveragePredictor {
    window: usize,
    history: Vec<VecDeque<f64>>,
}

impl MovingAveragePredictor {
    /// Creates a predictor averaging the last `window` periods.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `window == 0`.
    pub fn new(vm_count: usize, window: usize) -> crate::Result<Self> {
        if window == 0 {
            return Err(CoreError::InvalidParameter(
                "moving average window must be >= 1",
            ));
        }
        Ok(Self {
            window,
            history: vec![VecDeque::new(); vm_count],
        })
    }
}

impl Predictor for MovingAveragePredictor {
    fn observe(&mut self, vm: usize, value: f64) -> crate::Result<()> {
        let known = self.history.len();
        let h = self
            .history
            .get_mut(vm)
            .ok_or(CoreError::UnknownVm { id: vm, known })?;
        h.push_back(value);
        if h.len() > self.window {
            h.pop_front();
        }
        Ok(())
    }

    fn predict(&self, vm: usize) -> crate::Result<Option<f64>> {
        let h = self.history.get(vm).ok_or(CoreError::UnknownVm {
            id: vm,
            known: self.history.len(),
        })?;
        if h.is_empty() {
            Ok(None)
        } else {
            Ok(Some(h.iter().sum::<f64>() / h.len() as f64))
        }
    }

    fn vm_count(&self) -> usize {
        self.history.len()
    }
}

/// Exponentially-weighted moving average of observed periods.
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaPredictor {
    alpha: f64,
    state: Vec<Option<f64>>,
}

impl EwmaPredictor {
    /// Creates an EWMA predictor with smoothing `alpha ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for out-of-range `alpha`.
    pub fn new(vm_count: usize, alpha: f64) -> crate::Result<Self> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(CoreError::InvalidParameter("ewma alpha must lie in (0, 1]"));
        }
        Ok(Self {
            alpha,
            state: vec![None; vm_count],
        })
    }
}

impl Predictor for EwmaPredictor {
    fn observe(&mut self, vm: usize, value: f64) -> crate::Result<()> {
        let known = self.state.len();
        let slot = self
            .state
            .get_mut(vm)
            .ok_or(CoreError::UnknownVm { id: vm, known })?;
        *slot = Some(match *slot {
            None => value,
            Some(prev) => self.alpha * value + (1.0 - self.alpha) * prev,
        });
        Ok(())
    }

    fn predict(&self, vm: usize) -> crate::Result<Option<f64>> {
        self.state.get(vm).copied().ok_or(CoreError::UnknownVm {
            id: vm,
            known: self.state.len(),
        })
    }

    fn vm_count(&self) -> usize {
        self.state.len()
    }
}

/// Tracks how well a predictor did: per-period relative errors and the
/// under-prediction rate (under-predictions are the dangerous direction —
/// they cause the capacity violations of Table II).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictionScore {
    errors: Vec<f64>,
    under: usize,
}

impl PredictionScore {
    /// Creates an empty score.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one (predicted, actual) pair.
    pub fn record(&mut self, predicted: f64, actual: f64) {
        let scale = actual.abs().max(1e-9);
        self.errors.push((predicted - actual).abs() / scale);
        if predicted < actual {
            self.under += 1;
        }
    }

    /// Mean absolute relative error, or 0.0 with no records.
    pub fn mean_relative_error(&self) -> f64 {
        if self.errors.is_empty() {
            0.0
        } else {
            self.errors.iter().sum::<f64>() / self.errors.len() as f64
        }
    }

    /// Fraction of records where the prediction was below the actual.
    pub fn under_prediction_rate(&self) -> f64 {
        if self.errors.is_empty() {
            0.0
        } else {
            self.under as f64 / self.errors.len() as f64
        }
    }

    /// Number of records.
    pub fn count(&self) -> usize {
        self.errors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_tracks_latest() {
        let mut p = LastValuePredictor::new(2);
        assert_eq!(p.predict(1).unwrap(), None);
        p.observe(1, 5.0).unwrap();
        p.observe(1, 7.0).unwrap();
        assert_eq!(p.predict(1).unwrap(), Some(7.0));
        assert_eq!(p.predict(0).unwrap(), None);
        assert_eq!(p.vm_count(), 2);
    }

    #[test]
    fn out_of_range_vm_errors() {
        let mut p = LastValuePredictor::new(1);
        assert!(matches!(
            p.observe(5, 1.0),
            Err(CoreError::UnknownVm { id: 5, known: 1 })
        ));
        assert!(p.predict(5).is_err());
        let mut ma = MovingAveragePredictor::new(1, 2).unwrap();
        assert!(ma.observe(9, 1.0).is_err());
        assert!(ma.predict(9).is_err());
        let mut ew = EwmaPredictor::new(1, 0.5).unwrap();
        assert!(ew.observe(9, 1.0).is_err());
        assert!(ew.predict(9).is_err());
    }

    #[test]
    fn moving_average_windows() {
        let mut p = MovingAveragePredictor::new(1, 3).unwrap();
        assert_eq!(p.predict(0).unwrap(), None);
        for v in [3.0, 6.0, 9.0, 12.0] {
            p.observe(0, v).unwrap();
        }
        // Last three: (6+9+12)/3 = 9.
        assert_eq!(p.predict(0).unwrap(), Some(9.0));
        assert!(MovingAveragePredictor::new(1, 0).is_err());
        assert_eq!(p.vm_count(), 1);
    }

    #[test]
    fn ewma_blends() {
        let mut p = EwmaPredictor::new(1, 0.5).unwrap();
        p.observe(0, 4.0).unwrap();
        p.observe(0, 8.0).unwrap();
        assert_eq!(p.predict(0).unwrap(), Some(6.0));
        assert!(EwmaPredictor::new(1, 0.0).is_err());
        assert!(EwmaPredictor::new(1, 1.2).is_err());
        assert_eq!(p.vm_count(), 1);
    }

    #[test]
    fn last_value_is_ewma_with_alpha_one() {
        let mut lv = LastValuePredictor::new(1);
        let mut ew = EwmaPredictor::new(1, 1.0).unwrap();
        for v in [2.0, 9.0, 4.5] {
            lv.observe(0, v).unwrap();
            ew.observe(0, v).unwrap();
            assert_eq!(lv.predict(0).unwrap(), ew.predict(0).unwrap());
        }
    }

    #[test]
    fn prediction_score_statistics() {
        let mut s = PredictionScore::new();
        assert_eq!(s.mean_relative_error(), 0.0);
        assert_eq!(s.under_prediction_rate(), 0.0);
        s.record(1.0, 2.0); // under by 50%
        s.record(3.0, 2.0); // over by 50%
        assert_eq!(s.count(), 2);
        assert!((s.mean_relative_error() - 0.5).abs() < 1e-12);
        assert_eq!(s.under_prediction_rate(), 0.5);
    }

    #[test]
    fn predictors_are_object_safe() {
        let mut predictors: Vec<Box<dyn Predictor>> = vec![
            Box::new(LastValuePredictor::new(1)),
            Box::new(MovingAveragePredictor::new(1, 2).unwrap()),
            Box::new(EwmaPredictor::new(1, 0.3).unwrap()),
        ];
        for p in predictors.iter_mut() {
            p.observe(0, 1.0).unwrap();
            assert_eq!(p.predict(0).unwrap(), Some(1.0));
        }
    }
}
