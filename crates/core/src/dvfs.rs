//! Frequency-level decision (paper §IV-C, Eqn 4).
//!
//! Once VMs are placed, each server picks an operating frequency:
//!
//! ```text
//! f_i = (1 / Cost_server_i) · (Σ_j û(VM_ij) / N_core) · f_max     (Eqn 4)
//! ```
//!
//! The second factor is the worst-case requirement — enough speed to
//! serve all co-located peaks *coinciding*. The `1/Cost_server` factor
//! is the correlation discount: Fig 3 shows the achievable slowdown
//! `Σ û / û(aggregate)` is lower-bounded (approximately linearly) by the
//! pairwise server cost, so dividing by it is "aggressive-yet-safe".
//! Correlation-blind baselines must keep the worst-case level
//! ([`FrequencyPlanner::static_level_worst_case`]).
//!
//! The continuous `f_i` is snapped **up** to the server's discrete DVFS
//! ladder. For the dynamic variant (Table II(b)) all policies periodically
//! re-plan from the measured recent aggregate peak
//! ([`FrequencyPlanner::dynamic_level`]); the paper re-evaluates every 12
//! five-second samples (1 minute) to limit level oscillation.

use crate::fleet::ServerFleet;
use crate::CoreError;
use cavm_power::{DvfsLadder, Frequency};
use serde::{Deserialize, Serialize};

/// Static (per placement period) vs dynamic (periodic re-evaluation)
/// frequency scaling — Table II (a) vs (b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DvfsMode {
    /// One frequency decision per placement period (Table II(a)).
    Static,
    /// Re-plan every `interval_samples` monitoring samples from measured
    /// utilization (Table II(b); the paper uses 12 × 5 s = 1 min).
    Dynamic {
        /// Monitoring samples between re-evaluations.
        interval_samples: usize,
    },
}

/// Plans per-server frequency levels on a discrete ladder.
///
/// # Example
///
/// ```
/// use cavm_core::dvfs::FrequencyPlanner;
/// use cavm_power::DvfsLadder;
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let planner = FrequencyPlanner::new(DvfsLadder::xeon_e5410());
/// // 7.6 of 8 cores needed if peaks coincide: must run at 2.3 GHz...
/// let worst = planner.static_level_worst_case(7.6, 8.0)?;
/// assert_eq!(worst.as_ghz(), 2.3);
/// // ...but a server cost of 1.3 discounts the requirement to 2.0 GHz.
/// let aware = planner.static_level_correlation_aware(7.6, 8.0, 1.3)?;
/// assert_eq!(aware.as_ghz(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyPlanner {
    ladder: DvfsLadder,
}

impl FrequencyPlanner {
    /// Creates a planner over the given ladder.
    pub fn new(ladder: DvfsLadder) -> Self {
        Self { ladder }
    }

    /// The underlying ladder.
    pub fn ladder(&self) -> &DvfsLadder {
        &self.ladder
    }

    fn validate(demand: f64, capacity: f64) -> crate::Result<()> {
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(CoreError::InvalidParameter(
                "capacity must be finite and > 0",
            ));
        }
        if !(demand.is_finite() && demand >= 0.0) {
            return Err(CoreError::InvalidParameter(
                "demand must be finite and >= 0",
            ));
        }
        Ok(())
    }

    /// Worst-case static level: enough for all reference peaks to
    /// coincide (`fraction = Σû / capacity`). What a correlation-blind
    /// policy must choose.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for malformed inputs.
    pub fn static_level_worst_case(
        &self,
        total_demand: f64,
        capacity: f64,
    ) -> crate::Result<Frequency> {
        Self::validate(total_demand, capacity)?;
        Ok(self.ladder.snap_up_fraction(total_demand / capacity)?)
    }

    /// Eqn (4): the correlation-aware static level,
    /// `fraction = (Σû / capacity) / Cost_server`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for malformed inputs or a
    /// server cost below 1 (Eqn 2 cannot produce one under peak
    /// reference; a smaller value indicates an upstream bug).
    pub fn static_level_correlation_aware(
        &self,
        total_demand: f64,
        capacity: f64,
        server_cost: f64,
    ) -> crate::Result<Frequency> {
        Self::validate(total_demand, capacity)?;
        if !(server_cost.is_finite() && server_cost >= 1.0 - 1e-9) {
            return Err(CoreError::InvalidParameter("server cost must be >= 1"));
        }
        let fraction = total_demand / capacity / server_cost;
        Ok(self.ladder.snap_up_fraction(fraction)?)
    }

    /// Dynamic re-plan from the measured aggregate utilization peak of
    /// the recent window, with a relative safety `headroom` (e.g. 0.1 =
    /// plan for 110% of the observed peak).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for malformed inputs or
    /// negative headroom.
    pub fn dynamic_level(
        &self,
        recent_peak_demand: f64,
        capacity: f64,
        headroom: f64,
    ) -> crate::Result<Frequency> {
        Self::validate(recent_peak_demand, capacity)?;
        if !(headroom.is_finite() && headroom >= 0.0) {
            return Err(CoreError::InvalidParameter(
                "headroom must be finite and >= 0",
            ));
        }
        let fraction = recent_peak_demand * (1.0 + headroom) / capacity;
        Ok(self.ladder.snap_up_fraction(fraction)?)
    }
}

/// Per-class frequency planning over a heterogeneous [`ServerFleet`]:
/// one [`FrequencyPlanner`] per server class, each bound to its class's
/// DVFS ladder *and* core capacity, so Eqn (4) evaluates against the
/// right `N_core` for whichever class hosts the server.
///
/// # Example
///
/// ```
/// use cavm_core::dvfs::FleetFrequencyPlanner;
/// use cavm_core::fleet::{ServerClass, ServerFleet};
/// use cavm_power::LinearPowerModel;
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let xeon = LinearPowerModel::xeon_e5410();
/// let fleet = ServerFleet::new(vec![
///     ServerClass::new("small", 8, 4.0, xeon.clone())?,
///     ServerClass::new("big", 2, 16.0, xeon.scaled(2.0).expect("factor > 0"))?,
/// ])?;
/// let planner = FleetFrequencyPlanner::new(&fleet);
/// // The same 3.5-core demand saturates a small box but idles a big one.
/// assert_eq!(planner.static_level_worst_case(0, 3.5)?.as_ghz(), 2.3);
/// assert_eq!(planner.static_level_worst_case(1, 3.5)?.as_ghz(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFrequencyPlanner {
    /// One planner per fleet class, in class order.
    planners: Vec<FrequencyPlanner>,
    /// Core capacity per fleet class, in class order.
    cores: Vec<f64>,
}

impl FleetFrequencyPlanner {
    /// Builds per-class planners from the fleet's class ladders.
    pub fn new(fleet: &ServerFleet) -> Self {
        Self {
            planners: fleet
                .classes()
                .iter()
                .map(|c| FrequencyPlanner::new(c.ladder().clone()))
                .collect(),
            cores: fleet.classes().iter().map(|c| c.cores()).collect(),
        }
    }

    /// Number of classes planned for.
    pub fn len(&self) -> usize {
        self.planners.len()
    }

    /// `false` by construction (fleets are non-empty).
    pub fn is_empty(&self) -> bool {
        self.planners.is_empty()
    }

    fn lookup(&self, class: usize) -> crate::Result<(&FrequencyPlanner, f64)> {
        match (self.planners.get(class), self.cores.get(class)) {
            (Some(p), Some(&c)) => Ok((p, c)),
            _ => Err(CoreError::InvalidParameter(
                "unknown server class for frequency planning",
            )),
        }
    }

    /// [`FrequencyPlanner::static_level_worst_case`] against the class's
    /// own capacity and ladder.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown class or
    /// malformed demand.
    pub fn static_level_worst_case(
        &self,
        class: usize,
        total_demand: f64,
    ) -> crate::Result<Frequency> {
        let (planner, cores) = self.lookup(class)?;
        planner.static_level_worst_case(total_demand, cores)
    }

    /// Eqn (4) against the class's own capacity and ladder.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown class,
    /// malformed demand, or a server cost below 1.
    pub fn static_level_correlation_aware(
        &self,
        class: usize,
        total_demand: f64,
        server_cost: f64,
    ) -> crate::Result<Frequency> {
        let (planner, cores) = self.lookup(class)?;
        planner.static_level_correlation_aware(total_demand, cores, server_cost)
    }

    /// [`FrequencyPlanner::dynamic_level`] against the class's own
    /// capacity and ladder.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown class or
    /// malformed inputs.
    pub fn dynamic_level(
        &self,
        class: usize,
        recent_peak_demand: f64,
        headroom: f64,
    ) -> crate::Result<Frequency> {
        let (planner, cores) = self.lookup(class)?;
        planner.dynamic_level(recent_peak_demand, cores, headroom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ServerClass;
    use cavm_power::LinearPowerModel;

    fn planner() -> FrequencyPlanner {
        FrequencyPlanner::new(DvfsLadder::xeon_e5410())
    }

    #[test]
    fn worst_case_levels() {
        let p = planner();
        // 2.0/2.3 ≈ 0.8696 is the threshold fraction.
        assert_eq!(p.static_level_worst_case(6.9, 8.0).unwrap().as_ghz(), 2.0);
        assert_eq!(p.static_level_worst_case(7.2, 8.0).unwrap().as_ghz(), 2.3);
        assert_eq!(p.static_level_worst_case(0.0, 8.0).unwrap().as_ghz(), 2.0);
        // Demand beyond capacity saturates at f_max.
        assert_eq!(p.static_level_worst_case(20.0, 8.0).unwrap().as_ghz(), 2.3);
    }

    #[test]
    fn correlation_discount_lowers_the_level() {
        let p = planner();
        let worst = p.static_level_worst_case(7.6, 8.0).unwrap();
        let aware = p.static_level_correlation_aware(7.6, 8.0, 1.3).unwrap();
        assert!(aware < worst);
        // Cost 1.0 (fully correlated) gives exactly the worst case.
        let same = p.static_level_correlation_aware(7.6, 8.0, 1.0).unwrap();
        assert_eq!(same, worst);
    }

    #[test]
    fn eqn4_fraction_matches_hand_computation() {
        // f = (1/1.5)·(6/8)·f_max = 0.5·f_max = 1.15 GHz → snaps to 2.0.
        let p = planner();
        let f = p.static_level_correlation_aware(6.0, 8.0, 1.5).unwrap();
        assert_eq!(f.as_ghz(), 2.0);
    }

    #[test]
    fn dynamic_level_tracks_recent_peak() {
        let p = planner();
        assert_eq!(p.dynamic_level(5.0, 8.0, 0.1).unwrap().as_ghz(), 2.0);
        assert_eq!(p.dynamic_level(7.5, 8.0, 0.1).unwrap().as_ghz(), 2.3);
        assert_eq!(p.dynamic_level(0.0, 8.0, 0.0).unwrap().as_ghz(), 2.0);
    }

    #[test]
    fn input_validation() {
        let p = planner();
        assert!(p.static_level_worst_case(-1.0, 8.0).is_err());
        assert!(p.static_level_worst_case(1.0, 0.0).is_err());
        assert!(p.static_level_correlation_aware(1.0, 8.0, 0.5).is_err());
        assert!(p
            .static_level_correlation_aware(1.0, 8.0, f64::NAN)
            .is_err());
        assert!(p.dynamic_level(1.0, 8.0, -0.5).is_err());
        assert!(p.dynamic_level(f64::NAN, 8.0, 0.0).is_err());
        assert_eq!(p.ladder().len(), 2);
    }

    #[test]
    fn fleet_planner_is_per_class() {
        let xeon = LinearPowerModel::xeon_e5410();
        let opteron = LinearPowerModel::opteron_6174();
        let fleet = ServerFleet::new(vec![
            ServerClass::new("xeon", 4, 8.0, xeon).unwrap(),
            ServerClass::new("opteron", 4, 12.0, opteron).unwrap(),
        ])
        .unwrap();
        let fp = FleetFrequencyPlanner::new(&fleet);
        assert_eq!(fp.len(), 2);
        assert!(!fp.is_empty());
        // Each class snaps on its own ladder.
        assert_eq!(fp.static_level_worst_case(0, 8.0).unwrap().as_ghz(), 2.3);
        assert_eq!(fp.static_level_worst_case(1, 12.0).unwrap().as_ghz(), 2.1);
        // Capacity is per class: 7 cores is >86.96% of 8 but <87% of 12.
        assert_eq!(fp.static_level_worst_case(0, 7.2).unwrap().as_ghz(), 2.3);
        assert_eq!(fp.static_level_worst_case(1, 7.2).unwrap().as_ghz(), 1.9);
        // Eqn (4) and the dynamic governor go through the same lookup.
        let aware = fp.static_level_correlation_aware(0, 7.2, 1.3).unwrap();
        assert!(aware < fp.static_level_worst_case(0, 7.2).unwrap());
        assert_eq!(fp.dynamic_level(1, 6.0, 0.1).unwrap().as_ghz(), 1.9);
        // Unknown classes error instead of panicking.
        assert!(fp.static_level_worst_case(9, 1.0).is_err());
        assert!(fp.static_level_correlation_aware(9, 1.0, 1.0).is_err());
        assert!(fp.dynamic_level(9, 1.0, 0.0).is_err());
    }

    #[test]
    fn modes_compare() {
        assert_ne!(
            DvfsMode::Static,
            DvfsMode::Dynamic {
                interval_samples: 12
            }
        );
    }
}
