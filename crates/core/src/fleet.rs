//! Heterogeneous server fleets.
//!
//! The paper evaluates on a uniform testbed (20 identical Xeon E5410
//! boxes), but real datacenters mix server generations: hosts differ in
//! core count, power curve and DVFS ladder. [`ServerFleet`] makes that
//! mix a first-class input to every allocation policy: an ordered
//! collection of [`ServerClass`]es, each contributing `count` identical
//! servers of `cores` capacity with their own calibrated
//! [`LinearPowerModel`] and [`DvfsLadder`].
//!
//! Policies consume the fleet through a [`FleetCursor`], which hands out
//! server instances in the fleet's **fill order**: classes sorted
//! largest-capacity-first (ties broken by busy-watts-per-core at the top
//! level — the more energy-efficient class first, then declaration
//! order). Opening the roomiest servers first keeps the Eqn (3) server
//! estimate tight and lets the Eqn (2) cost aggregates see the largest
//! candidate sets; it also makes the degenerate one-class fleet behave
//! *exactly* like the historical scalar-capacity API, which the
//! regression suite pins bit-identically.
//!
//! # Example
//!
//! ```
//! use cavm_core::fleet::{ServerClass, ServerFleet};
//! use cavm_power::LinearPowerModel;
//!
//! # fn main() -> Result<(), cavm_core::CoreError> {
//! let big = LinearPowerModel::xeon_e5410().scaled(2.0).expect("factor > 0");
//! let fleet = ServerFleet::new(vec![
//!     ServerClass::new("E5410", 20, 8.0, LinearPowerModel::xeon_e5410())?,
//!     ServerClass::new("2×E5410", 4, 16.0, big)?,
//! ])?;
//! // Fill order opens the 16-core boxes first.
//! assert_eq!(fleet.fill_order(), &[1, 0]);
//! assert_eq!(fleet.total_slots(), Some(24));
//! # Ok(())
//! # }
//! ```

use crate::CoreError;
use cavm_power::{DvfsLadder, LinearPowerModel, PowerModel};
use serde::{Deserialize, Serialize};

/// Class count meaning "as many servers as the packing needs" — the
/// unbounded bin supply of the classical heuristics. [`ServerFleet`]s
/// given to the simulator must be bounded; unbounded classes exist for
/// pure placement studies (and power the scalar-capacity compatibility
/// path, [`crate::alloc::AllocationPolicy::place_uniform`]).
pub const UNBOUNDED: usize = usize::MAX;

/// Operational health of one provisioned server slot.
///
/// The fleet description ([`ServerClass`]/[`ServerFleet`]) is static
/// hardware inventory; health is the *runtime* dimension a controller
/// layers on top of it: a `Failed` server keeps its slot (its class
/// capacity stays consumed — the hardware exists, it just cannot host
/// anything) but must never be targeted by placement. The online
/// admission path enforces this structurally: an
/// [`OpenServer`](crate::alloc::OpenServer) view carries its server's
/// health and every `place_one` rule skips unhealthy candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerHealth {
    /// The server is operational and may host VMs.
    #[default]
    Healthy,
    /// The server has failed: resident VMs must evacuate and no
    /// admission or re-pack may target it until it recovers.
    Failed,
}

impl ServerHealth {
    /// Whether this is [`ServerHealth::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, Self::Failed)
    }

    /// Whether this is [`ServerHealth::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, Self::Healthy)
    }
}

/// One homogeneous slice of the fleet: `count` identical servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerClass {
    name: String,
    count: usize,
    cores: f64,
    power_model: LinearPowerModel,
    dvfs_ladder: DvfsLadder,
}

impl ServerClass {
    /// Creates a class of `count` servers with `cores` CPU capacity
    /// each, powered per `power_model` (whose calibrated ladder becomes
    /// the class's DVFS ladder).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for zero `count` or a
    /// non-finite/non-positive `cores`.
    pub fn new(
        name: &str,
        count: usize,
        cores: f64,
        power_model: LinearPowerModel,
    ) -> crate::Result<Self> {
        if count == 0 {
            return Err(CoreError::InvalidParameter(
                "server class needs at least one server",
            ));
        }
        if !(cores.is_finite() && cores > 0.0) {
            return Err(CoreError::InvalidParameter(
                "server class cores must be finite and > 0",
            ));
        }
        let dvfs_ladder = power_model.ladder().clone();
        Ok(Self {
            name: name.to_string(),
            count,
            cores,
            power_model,
            dvfs_ladder,
        })
    }

    /// Display name (e.g. `"E5410"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of servers of this class ([`UNBOUNDED`] = no limit).
    pub fn count(&self) -> usize {
        self.count
    }

    /// CPU capacity per server, in cores.
    pub fn cores(&self) -> f64 {
        self.cores
    }

    /// The class's power model.
    pub fn power_model(&self) -> &LinearPowerModel {
        &self.power_model
    }

    /// The class's DVFS ladder (the power model's calibration ladder).
    pub fn ladder(&self) -> &DvfsLadder {
        &self.dvfs_ladder
    }

    /// Busy watts per core at the top frequency level — the
    /// energy-efficiency figure the fill order breaks capacity ties by
    /// (lower = more efficient = filled earlier).
    pub fn busy_watts_per_core(&self) -> f64 {
        let top = self
            .power_model
            .points()
            .last()
            .expect("power model has at least one level");
        top.busy_watts / self.cores
    }
}

/// An ordered collection of [`ServerClass`]es — the capacity input of
/// every [`crate::alloc::AllocationPolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerFleet {
    classes: Vec<ServerClass>,
    /// Class indices in fill order (largest capacity first).
    fill: Vec<usize>,
}

impl ServerFleet {
    /// Builds a fleet from classes (declaration order is preserved in
    /// [`ServerFleet::classes`]; the fill order is derived).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty class list.
    pub fn new(classes: Vec<ServerClass>) -> crate::Result<Self> {
        if classes.is_empty() {
            return Err(CoreError::InvalidParameter(
                "fleet needs at least one server class",
            ));
        }
        let mut fill: Vec<usize> = (0..classes.len()).collect();
        fill.sort_by(|&a, &b| {
            classes[b]
                .cores
                .partial_cmp(&classes[a].cores)
                .expect("finite core counts")
                .then_with(|| {
                    classes[a]
                        .busy_watts_per_core()
                        .partial_cmp(&classes[b].busy_watts_per_core())
                        .expect("finite wattages")
                })
                .then_with(|| a.cmp(&b))
        });
        Ok(Self { classes, fill })
    }

    /// A one-class fleet of `count` identical servers — the paper's
    /// uniform testbed as a degenerate [`ServerFleet`].
    ///
    /// # Errors
    ///
    /// Propagates [`ServerClass::new`] validation.
    pub fn uniform(count: usize, cores: f64, power_model: LinearPowerModel) -> crate::Result<Self> {
        Self::new(vec![ServerClass::new(
            "uniform",
            count,
            cores,
            power_model,
        )?])
    }

    /// A one-class fleet with an [`UNBOUNDED`] server supply — the
    /// classical bin-packing setting of the scalar-capacity API. Uses
    /// the Xeon E5410 power preset (allocation itself only reads
    /// `cores`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-finite or
    /// non-positive capacity.
    pub fn unbounded(cores: f64) -> crate::Result<Self> {
        Self::uniform(UNBOUNDED, cores, LinearPowerModel::xeon_e5410())
    }

    /// The canonical 3-class heterogeneous demo fleet: legacy 4-core
    /// boxes, the paper's 8-core Xeon E5410s, and dense 16-core
    /// machines, with wattages scaled to the board size (per-core
    /// efficiency improves with density, so the fill order — largest
    /// first — is also the efficient order). Shared by the
    /// `cavm-exp hetero` experiment, the heterogeneous benches and the
    /// acceptance tests so they all pin the *same* scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when any count is zero.
    pub fn mixed_4_8_16(quad: usize, octo: usize, hexadeca: usize) -> crate::Result<Self> {
        let xeon = LinearPowerModel::xeon_e5410();
        Self::new(vec![
            ServerClass::new(
                "quad-legacy",
                quad,
                4.0,
                xeon.scaled(0.62).expect("factor > 0"),
            )?,
            ServerClass::new("octo-E5410", octo, 8.0, xeon.clone())?,
            ServerClass::new(
                "hexadeca-dense",
                hexadeca,
                16.0,
                xeon.scaled(1.85).expect("factor > 0"),
            )?,
        ])
    }

    /// The classes, in declaration order.
    pub fn classes(&self) -> &[ServerClass] {
        &self.classes
    }

    /// Class at `index`, or `None` past the end.
    pub fn class(&self, index: usize) -> Option<&ServerClass> {
        self.classes.get(index)
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `false` by construction; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Class indices in fill order: descending capacity, ties broken by
    /// ascending busy-watts-per-core, then declaration order.
    pub fn fill_order(&self) -> &[usize] {
        &self.fill
    }

    /// Total number of servers, or `None` when any class is
    /// [`UNBOUNDED`].
    pub fn total_slots(&self) -> Option<usize> {
        self.classes
            .iter()
            .try_fold(0usize, |acc, c| match c.count {
                UNBOUNDED => None,
                n => acc.checked_add(n),
            })
    }

    /// Total core capacity, or `None` when any class is [`UNBOUNDED`].
    pub fn total_cores(&self) -> Option<f64> {
        self.classes
            .iter()
            .try_fold(0.0f64, |acc, c| match c.count {
                UNBOUNDED => None,
                n => Some(acc + n as f64 * c.cores),
            })
    }

    /// Eqn (3) generalized to a heterogeneous fleet: the length of the
    /// shortest fill-order prefix whose cumulative capacity covers
    /// `total_demand` — on a one-class fleet this reproduces
    /// `⌈Σû / N_core⌉`
    /// ([`estimate_server_count`](crate::alloc::proposed::estimate_server_count),
    /// up to float round-off at exact-fit boundaries).
    ///
    /// Because the fill order opens the roomiest servers first, no
    /// placement that keeps every server within its own class capacity
    /// can use fewer servers, so the estimate is a *lower bound* for
    /// all capacity-respecting policies (a single VM larger than every
    /// class breaks that premise — it overcommits its lone server by
    /// construction). Returns 0 for non-positive demand and saturates
    /// at [`ServerFleet::total_slots`] when even the whole fleet cannot
    /// cover the demand.
    ///
    /// # Example
    ///
    /// ```
    /// use cavm_core::fleet::{ServerClass, ServerFleet};
    /// use cavm_power::LinearPowerModel;
    ///
    /// # fn main() -> Result<(), cavm_core::CoreError> {
    /// let xeon = LinearPowerModel::xeon_e5410();
    /// let fleet = ServerFleet::new(vec![
    ///     ServerClass::new("small", 10, 4.0, xeon.clone())?,
    ///     ServerClass::new("big", 1, 16.0, xeon.scaled(2.0).expect("factor > 0"))?,
    /// ])?;
    /// // 22 cores of demand: the 16-core box plus two 4-core boxes.
    /// assert_eq!(fleet.estimate_server_count(22.0), 3);
    /// assert_eq!(fleet.estimate_server_count(16.0), 1);
    /// assert_eq!(fleet.estimate_server_count(0.0), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn estimate_server_count(&self, total_demand: f64) -> usize {
        // NaN and non-positive demands need no servers.
        if total_demand.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return 0;
        }
        // An infinite demand saturates (no finite prefix covers it);
        // without this, an UNBOUNDED class would loop forever below.
        if !total_demand.is_finite() {
            return self.total_slots().unwrap_or(usize::MAX);
        }
        let mut opened = 0usize;
        let mut capacity = 0.0f64;
        for &class_idx in &self.fill {
            let class = &self.classes[class_idx];
            if class.count == UNBOUNDED {
                // Infinite supply of this class covers any remainder.
                while capacity + crate::alloc::FIT_EPS < total_demand {
                    capacity += class.cores;
                    opened += 1;
                }
                return opened.max(1);
            }
            for _ in 0..class.count {
                if capacity + crate::alloc::FIT_EPS >= total_demand {
                    return opened.max(1);
                }
                capacity += class.cores;
                opened += 1;
            }
        }
        opened.max(1)
    }
}

/// Hands out server instances in the fleet's fill order; allocation
/// policies open a new server by taking the cursor's next slot.
#[derive(Debug, Clone)]
pub struct FleetCursor<'a> {
    fleet: &'a ServerFleet,
    /// Position within `fleet.fill_order()`.
    pos: usize,
    /// Servers already opened within the current fill-order class.
    opened_in_class: usize,
    opened: usize,
}

impl<'a> FleetCursor<'a> {
    /// A cursor at the start of the fill order.
    pub fn new(fleet: &'a ServerFleet) -> Self {
        Self {
            fleet,
            pos: 0,
            opened_in_class: 0,
            opened: 0,
        }
    }

    /// Opens the next server, returning `(class index, cores)`, or
    /// `None` when every slot of every class is open.
    pub fn open_next(&mut self) -> Option<(usize, f64)> {
        while self.pos < self.fleet.fill.len() {
            let class_idx = self.fleet.fill[self.pos];
            let class = &self.fleet.classes[class_idx];
            if self.opened_in_class < class.count {
                self.opened_in_class += 1;
                self.opened += 1;
                return Some((class_idx, class.cores));
            }
            self.pos += 1;
            self.opened_in_class = 0;
        }
        None
    }

    /// Servers opened so far.
    pub fn opened(&self) -> usize {
        self.opened
    }

    /// The exhaustion error for this cursor's fleet with `unallocated`
    /// VMs still waiting.
    pub fn exhausted(&self, unallocated: usize) -> CoreError {
        CoreError::FleetExhausted {
            slots: self.fleet.total_slots().unwrap_or(usize::MAX),
            unallocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xeon() -> LinearPowerModel {
        LinearPowerModel::xeon_e5410()
    }

    #[test]
    fn class_validation() {
        assert!(ServerClass::new("x", 0, 8.0, xeon()).is_err());
        assert!(ServerClass::new("x", 1, 0.0, xeon()).is_err());
        assert!(ServerClass::new("x", 1, f64::NAN, xeon()).is_err());
        let c = ServerClass::new("E5410", 20, 8.0, xeon()).unwrap();
        assert_eq!(c.name(), "E5410");
        assert_eq!(c.count(), 20);
        assert_eq!(c.cores(), 8.0);
        assert_eq!(c.ladder(), c.power_model().ladder());
        assert!((c.busy_watts_per_core() - 300.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn fleet_validation_and_accessors() {
        assert!(ServerFleet::new(vec![]).is_err());
        assert!(ServerFleet::unbounded(-1.0).is_err());
        let fleet = ServerFleet::uniform(20, 8.0, xeon()).unwrap();
        assert!(!fleet.is_empty());
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.total_slots(), Some(20));
        assert_eq!(fleet.total_cores(), Some(160.0));
        assert_eq!(fleet.class(0).unwrap().cores(), 8.0);
        assert!(fleet.class(1).is_none());
        let unbounded = ServerFleet::unbounded(8.0).unwrap();
        assert_eq!(unbounded.total_slots(), None);
        assert_eq!(unbounded.total_cores(), None);
    }

    #[test]
    fn fill_order_prefers_capacity_then_efficiency() {
        let small = ServerClass::new("small", 4, 4.0, xeon()).unwrap();
        let big = ServerClass::new("big", 2, 16.0, xeon().scaled(2.0).unwrap()).unwrap();
        let mid_hungry =
            ServerClass::new("mid-hungry", 3, 8.0, xeon().scaled(1.4).unwrap()).unwrap();
        let mid_frugal = ServerClass::new("mid-frugal", 3, 8.0, xeon()).unwrap();
        let fleet =
            ServerFleet::new(vec![small, mid_hungry.clone(), big, mid_frugal.clone()]).unwrap();
        // 16-core first, then the two 8-core classes by efficiency
        // (frugal before hungry), then 4-core.
        assert_eq!(fleet.fill_order(), &[2, 3, 1, 0]);
        assert!(mid_frugal.busy_watts_per_core() < mid_hungry.busy_watts_per_core());
    }

    #[test]
    fn mixed_preset_fills_dense_first() {
        let fleet = ServerFleet::mixed_4_8_16(24, 16, 4).unwrap();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.fill_order(), &[2, 1, 0]);
        assert_eq!(fleet.total_slots(), Some(44));
        let cores: Vec<f64> = fleet.classes().iter().map(ServerClass::cores).collect();
        assert_eq!(cores, vec![4.0, 8.0, 16.0]);
        // Per-core efficiency improves with density.
        let eff: Vec<f64> = fleet
            .classes()
            .iter()
            .map(ServerClass::busy_watts_per_core)
            .collect();
        assert!(eff[0] > eff[1] && eff[1] > eff[2]);
        assert!(ServerFleet::mixed_4_8_16(0, 1, 1).is_err());
    }

    #[test]
    fn cursor_walks_fill_order_and_exhausts() {
        let fleet = ServerFleet::new(vec![
            ServerClass::new("small", 2, 4.0, xeon()).unwrap(),
            ServerClass::new("big", 1, 16.0, xeon().scaled(2.0).unwrap()).unwrap(),
        ])
        .unwrap();
        let mut cursor = FleetCursor::new(&fleet);
        assert_eq!(cursor.open_next(), Some((1, 16.0)));
        assert_eq!(cursor.open_next(), Some((0, 4.0)));
        assert_eq!(cursor.open_next(), Some((0, 4.0)));
        assert_eq!(cursor.open_next(), None);
        assert_eq!(cursor.opened(), 3);
        assert!(matches!(
            cursor.exhausted(5),
            CoreError::FleetExhausted {
                slots: 3,
                unallocated: 5
            }
        ));
    }

    #[test]
    fn estimate_server_count_walks_the_fill_order() {
        let fleet = ServerFleet::new(vec![
            ServerClass::new("small", 10, 4.0, xeon()).unwrap(),
            ServerClass::new("big", 2, 16.0, xeon().scaled(2.0).unwrap()).unwrap(),
        ])
        .unwrap();
        assert_eq!(fleet.estimate_server_count(0.0), 0);
        assert_eq!(fleet.estimate_server_count(-3.0), 0);
        assert_eq!(fleet.estimate_server_count(1.0), 1);
        assert_eq!(fleet.estimate_server_count(16.0), 1);
        assert_eq!(fleet.estimate_server_count(17.0), 2);
        assert_eq!(fleet.estimate_server_count(32.0), 2);
        // 16 + 16 + 4 + 4 covers 40.
        assert_eq!(fleet.estimate_server_count(40.0), 4);
        // Beyond total capacity (72): saturates at the slot count.
        assert_eq!(fleet.estimate_server_count(500.0), 12);
        // Non-finite demands saturate instead of looping.
        assert_eq!(fleet.estimate_server_count(f64::INFINITY), 12);
        assert_eq!(fleet.estimate_server_count(f64::NAN), 0);
        assert_eq!(
            ServerFleet::unbounded(8.0)
                .unwrap()
                .estimate_server_count(f64::INFINITY),
            usize::MAX
        );
    }

    #[test]
    fn estimate_server_count_matches_scalar_eqn3_on_uniform_fleets() {
        let fleet = ServerFleet::unbounded(8.0).unwrap();
        for total in [0.5, 7.9, 8.0, 8.1, 30.0, 32.0, 33.0] {
            assert_eq!(
                fleet.estimate_server_count(total),
                crate::alloc::proposed::estimate_server_count(total, 8.0),
                "total {total}"
            );
        }
    }

    #[test]
    fn unbounded_cursor_never_runs_out() {
        let fleet = ServerFleet::unbounded(8.0).unwrap();
        let mut cursor = FleetCursor::new(&fleet);
        for _ in 0..10_000 {
            assert_eq!(cursor.open_next(), Some((0, 8.0)));
        }
    }
}
