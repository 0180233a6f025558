//! The re-pack schedule's knobs and feedback loops: the
//! [`RepackTrigger`], the [`QosGuard`] composed onto it, and the
//! closed-loop [`SlackController`] / [`OvercommitController`] that walk
//! the fragmentation slack and the deliberate-overcommit margin.

#[cfg(doc)]
use crate::config::ControllerConfig;
#[cfg(doc)]
use crate::event::{RepackEvent, RepackReason};
#[cfg(doc)]
use cavm_core::alloc::Placement;

/// When the controller re-packs the live placement.
///
/// The paper's Fig 2 re-packs strictly on the period clock; under
/// heavy departure churn that leaves fragmented, half-empty servers
/// burning idle watts until the next boundary. The fragmentation
/// variants watch the live Eqn (3) lower bound
/// ([`ServerFleet::estimate_server_count`] of the packed predicted
/// demand) and fire an *off-cycle* re-pack as soon as it drops at
/// least `slack` servers below
/// [`Placement::active_server_count`] — checked at the first tick
/// after a departure evicts a placed VM (between membership changes
/// the predicate cannot change, so nothing else is ever checked).
///
/// ```
/// use cavm_sim::RepackTrigger;
///
/// let trigger = RepackTrigger::Hybrid { slack: 2 };
/// // 5 active servers, but the live demand would fit into 3.
/// assert!(trigger.fires(3, 5));
/// assert!(!trigger.fires(4, 5));
/// assert!(!RepackTrigger::Periodic.fires(0, 5));
/// ```
///
/// [`ServerFleet::estimate_server_count`]: cavm_core::fleet::ServerFleet::estimate_server_count
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RepackTrigger {
    /// Re-pack at every period boundary only — the paper's schedule
    /// and the default; bit-identical to the pre-trigger controller.
    #[default]
    Periodic,
    /// Re-pack *only* when fragmentation warrants it: period
    /// boundaries refresh predictions, the cost matrix and the
    /// frequency plans but keep the standing placement (VMs that
    /// arrived between periods are admitted incrementally), and a full
    /// ALLOCATE pass runs only when the predicate fires. The session's
    /// first placement of a live VM set is still a batch pass.
    Fragmentation {
        /// Minimum gap (in servers) between the active count and the
        /// Eqn (3) bound before a re-pack fires; must be ≥ 1.
        slack: u32,
    },
    /// Both schedules: periodic re-packs *plus* fragmentation-fired
    /// off-cycle ones — never re-packs less than [`Periodic`] does.
    ///
    /// [`Periodic`]: RepackTrigger::Periodic
    Hybrid {
        /// Minimum gap (in servers) between the active count and the
        /// Eqn (3) bound before an off-cycle re-pack fires; must be
        /// ≥ 1.
        slack: u32,
    },
}

impl RepackTrigger {
    /// Whether period boundaries run the full ALLOCATE re-pack
    /// (`Periodic` and `Hybrid`).
    pub fn periodic_repacks(&self) -> bool {
        matches!(self, Self::Periodic | Self::Hybrid { .. })
    }

    /// The fragmentation slack, or `None` when off-cycle re-packs are
    /// disabled.
    pub fn slack(&self) -> Option<u32> {
        match *self {
            Self::Periodic => None,
            Self::Fragmentation { slack } | Self::Hybrid { slack } => Some(slack),
        }
    }

    /// The fragmentation predicate: `true` when the Eqn (3) bound
    /// `estimate` sits at least `slack` servers below the `active`
    /// server count (always `false` for [`RepackTrigger::Periodic`]).
    pub fn fires(&self, estimate: usize, active: usize) -> bool {
        match self.slack() {
            None => false,
            Some(slack) => active.saturating_sub(estimate) >= slack as usize,
        }
    }

    /// Stable display name for reports and experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Periodic => "periodic",
            Self::Fragmentation { .. } => "fragmentation",
            Self::Hybrid { .. } => "hybrid",
        }
    }
}

/// The QoS dimension of the re-pack schedule, composable with any
/// [`RepackTrigger`] via [`ControllerConfig::qos_guard`] /
/// `ScenarioBuilder::qos_guard`.
///
/// A pure [`RepackTrigger::Fragmentation`] schedule keeps placements
/// across period boundaries, so drifting predictions can leave kept
/// servers overcommitted for hours — the SLA side of the paper's
/// Eqn (2)/(3) energy/QoS tension. The guard watches the *observed*
/// worst per-server violation ratio of the running period and, once a
/// violation pushes it past `violation_ratio`, fires an off-cycle
/// re-pack ([`RepackReason::QosGuard`]) of exactly the breaching
/// servers: their members' predictions are refreshed from the
/// period's samples so far and their largest members trimmed onto
/// other servers until the refreshed load fits. At placement-keeping
/// period boundaries it additionally force-repacks servers that
/// breached the threshold over the completed period *and* remain
/// overcommitted under the refreshed predictions
/// ([`RepackReason::Overcommit`]). Sub-threshold overcommit is
/// deliberately left standing in both checks — summed per-VM peaks
/// overstating the coincident aggregate is the correlation gap the
/// paper's Eqn (1) packing exploits, and it is where the
/// placement-keeping schedule's energy win lives.
///
/// ```
/// use cavm_sim::QosGuard;
///
/// let guard = QosGuard {
///     violation_ratio: 0.05,
/// };
/// // 37 over-capacity samples in a 720-sample period is past 5%.
/// assert!(guard.exceeded(37, 720));
/// assert!(!guard.exceeded(36, 720));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosGuard {
    /// Worst per-server violation ratio (over-capacity samples /
    /// period samples) above which the guard fires; must lie in
    /// (0, 1].
    pub violation_ratio: f64,
}

impl QosGuard {
    /// The guard predicate: whether `violations` over-capacity samples
    /// out of `period_samples` exceed the configured ratio.
    pub fn exceeded(&self, violations: usize, period_samples: usize) -> bool {
        period_samples > 0 && violations as f64 / period_samples as f64 > self.violation_ratio
    }
}

/// Closed-loop tuning of the fragmentation slack.
///
/// A static `slack` trades energy against migration churn blindly: the
/// hybrid schedule of the adaptive experiment pays ~500 migrations for
/// its energy win. `SlackController` instead walks the slack between
/// bounds from what the trigger *actually realizes*:
///
/// * **Raise on expensive re-packs** — a fired re-pack reports the
///   servers it freed (the energy delta — every freed server stops
///   burning idle watts) against the migrations it paid. Freeing fewer
///   than one server per 1/[`SlackController::RAISE_BELOW`] migrations
///   raises the slack, making re-packs rarer; freeing at least one per
///   1/[`SlackController::LOWER_AT`] migrations lowers it again.
/// * **Decay on persistent misses** — an armed check that finds real
///   fragmentation (a gap at or above the configured floor) but below
///   the raised slack is a *missed consolidation*.
///   [`SlackController::MISS_STREAK`] consecutive misses walk the
///   slack back down one step. Without this decay the slack would
///   ratchet: once raised, re-packs stop firing, so nothing would
///   ever feed back that consolidation has become cheap again (e.g.
///   the nearly-drained end of a departure-heavy day, where each
///   re-pack frees a server for a handful of migrations).
///
/// The in-effect value streams on every [`RepackEvent::slack_after`].
///
/// ```
/// use cavm_sim::SlackController;
///
/// let mut ctl = SlackController::new(1, 3);
/// assert_eq!(ctl.current(), 1);
/// // 1 server freed for 8 migrations: too little per migration.
/// ctl.observe(1, 8);
/// assert_eq!(ctl.current(), 2);
/// // Two armed checks in a row find a 1-server gap the raised slack
/// // ignores: consolidation opportunities are going begging.
/// ctl.observe_miss(1);
/// ctl.observe_miss(1);
/// assert_eq!(ctl.current(), 1);
/// // 2 servers freed for 3 migrations: cheap — but never below the
/// // configured floor.
/// ctl.observe(2, 3);
/// assert_eq!(ctl.current(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlackController {
    min: u32,
    max: u32,
    current: u32,
    misses: u32,
}

impl SlackController {
    /// Below this servers-freed-per-migration gain the slack is raised.
    pub const RAISE_BELOW: f64 = 0.25;
    /// At or above this servers-freed-per-migration gain the slack is
    /// lowered again.
    pub const LOWER_AT: f64 = 0.5;
    /// Consecutive armed-but-sub-slack fragmentation observations
    /// before the slack decays one step.
    pub const MISS_STREAK: u32 = 2;

    /// A controller starting (and bounded below) at `initial`, bounded
    /// above by `max` (clamped up to `initial` if smaller). Equal
    /// bounds reproduce the static-slack behaviour exactly.
    pub fn new(initial: u32, max: u32) -> Self {
        Self {
            min: initial,
            max: max.max(initial),
            current: initial,
            misses: 0,
        }
    }

    /// The slack currently in effect.
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Feeds back one fired re-pack's realized outcome; a re-pack with
    /// no migrations carries no cost signal and leaves the slack —
    /// *and* an in-progress [`SlackController::MISS_STREAK`] — fully
    /// unchanged: only a priced observation resets the decay streak.
    pub fn observe(&mut self, servers_freed: usize, migrations: usize) {
        if migrations == 0 {
            return;
        }
        self.misses = 0;
        let gain = servers_freed as f64 / migrations as f64;
        if gain < Self::RAISE_BELOW {
            self.current = (self.current + 1).min(self.max);
        } else if gain >= Self::LOWER_AT {
            self.current = self.current.saturating_sub(1).max(self.min);
        }
    }

    /// Feeds back an armed check that did *not* fire because the
    /// observed `gap` (active servers minus the Eqn (3) bound) sat
    /// below the raised slack. Gaps at or above the configured floor
    /// count toward the decay streak; smaller gaps mean the fleet
    /// really is compact and reset it.
    pub fn observe_miss(&mut self, gap: usize) {
        if self.current > self.min && gap >= self.min as usize {
            self.misses += 1;
            if self.misses >= Self::MISS_STREAK {
                self.misses = 0;
                self.current -= 1;
            }
        } else {
            self.misses = 0;
        }
    }
}

/// Deliberate correlation-gap overcommit, threaded through
/// [`ControllerConfig::overcommit`] /
/// `ScenarioBuilder::overcommit`.
///
/// With a margin in effect, incremental admission and the batch re-pack
/// both accept servers whose *predicted per-VM sum* runs up to
/// `capacity × (1 + margin)` — but only when the Eqn (2) pairwise cost
/// says the candidate's peaks anti-align with the residents, i.e. the
/// Eqn (1) coincident-aggregate estimate (`predicted sum / cost`) still
/// lands within plain capacity
/// ([`OpenServer::admits`](cavm_core::alloc::OpenServer::admits)).
/// The configured [`QosGuard`] stays armed as the reactive backstop,
/// and an [`OvercommitController`] walks the live margin per fleet
/// class from the observed per-period violation ratios. Degraded mode
/// (failed servers or a non-empty deferred queue) suspends the margin
/// outright.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvercommitConfig {
    /// Starting (and post-breach re-growable) margin as a fraction of
    /// capacity; must lie in `[0, max_margin]`.
    pub margin: f64,
    /// Hard ceiling the adaptive margin never exceeds; must lie in
    /// `(0, 1]`.
    pub max_margin: f64,
}

/// Closed-loop tuning of the deliberate-overcommit margin — the same
/// walk/decay machinery as [`SlackController`], driven by the observed
/// per-period violation ratio instead of migration cost.
///
/// Each completed period feeds
/// [`OvercommitController::observe_period`] the class's worst
/// per-server violation ratio against the guard threshold:
///
/// * **Shrink on breach** — a period whose worst ratio exceeded the
///   guard's threshold means the correlation-gap bet failed; the
///   margin steps down [`OvercommitController::STEP`] immediately
///   (never below zero — the guard's own trim handles the standing
///   placement).
/// * **Grow on sustained headroom** —
///   [`OvercommitController::RAISE_STREAK`] consecutive periods whose
///   worst ratio stayed at or below *half* the guard threshold grow
///   the margin one step, up to the configured ceiling. A ratio
///   between the two bands holds the margin (and resets the streak):
///   QoS is acceptable but not comfortable.
///
/// ```
/// use cavm_sim::OvercommitController;
///
/// let mut ctl = OvercommitController::new(0.10, 0.25);
/// assert_eq!(ctl.current(), 0.10);
/// // A breached period shrinks the margin immediately.
/// ctl.observe_period(0.08, 0.05);
/// assert!(ctl.current() < 0.10);
/// // Two comfortable periods in a row grow it back one step.
/// ctl.observe_period(0.0, 0.05);
/// ctl.observe_period(0.01, 0.05);
/// assert_eq!(ctl.current(), 0.10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvercommitController {
    max: f64,
    current: f64,
    hits: u32,
}

impl OvercommitController {
    /// Margin step per adaptation, as a fraction of capacity.
    pub const STEP: f64 = 0.05;
    /// Consecutive comfortable periods (worst ratio ≤ half the guard
    /// threshold) before the margin grows one step.
    pub const RAISE_STREAK: u32 = 2;

    /// A controller starting at `initial`, ceilinged at `max` (clamped
    /// up to `initial` if smaller).
    pub fn new(initial: f64, max: f64) -> Self {
        Self {
            max: max.max(initial),
            current: initial,
            hits: 0,
        }
    }

    /// The margin currently in effect.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The ceiling the margin grows toward.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Feeds back one completed period: the class's worst per-server
    /// violation ratio against the guard's threshold.
    pub fn observe_period(&mut self, worst_ratio: f64, guard_ratio: f64) {
        if worst_ratio > guard_ratio {
            self.hits = 0;
            self.current = (self.current - Self::STEP).max(0.0);
        } else if worst_ratio <= guard_ratio * 0.5 {
            self.hits += 1;
            if self.hits >= Self::RAISE_STREAK {
                self.hits = 0;
                self.current = (self.current + Self::STEP).min(self.max);
            }
        } else {
            self.hits = 0;
        }
    }
}
