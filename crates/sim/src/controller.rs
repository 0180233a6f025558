//! The online datacenter controller — an event-driven VM lifecycle
//! session.
//!
//! Where [`Scenario::run`] replays a *closed* world (every VM exists
//! for the whole horizon), [`DatacenterController`] is the open-system
//! API underneath it: a stateful session driven by [`VmEvent`]s —
//! `Arrive`, `Depart`, `Tick` — holding a live
//! [`Placement`], per-server incremental
//! [`ServerCostAggregate`]s and per-class energy meters, and streaming
//! progress through a [`MetricSink`] instead of only a terminal report.
//!
//! Semantics per event:
//!
//! * **`Tick`** advances one monitoring sample. The first tick of each
//!   placement period runs the batch UPDATE/ALLOCATE pass (predict →
//!   cost matrix → full policy re-pack → per-server Eqn (4) frequency),
//!   exactly as the paper's Fig 2 prescribes "at every t_period"; every
//!   tick then replays one sample (violations, energy integration,
//!   dynamic DVFS re-planning, Fig 6 histograms). The tick that
//!   completes a period observes it for the next UPDATE and rebuilds
//!   the pairwise matrix from the period's window.
//! * **`Arrive`** registers a VM whose trace starts at the current
//!   sample, together with its remaining lease when known. Mid-period
//!   arrivals are admitted **incrementally** through
//!   [`AllocationPolicy::place_one`] — an O(open servers ×
//!   |members|) scan over the live cost aggregates, *not* a full
//!   re-pack — with a lease-aware bias away from servers whose members
//!   all depart before the arrival would (soon-empty servers stay
//!   drainable); the hosting server's frequency is re-planned.
//!   Arrivals between periods simply join the next batch pass.
//! * **`Depart`** evicts the VM; the vacated server keeps its slot (and
//!   stays admissible for future arrivals), its aggregate is rebuilt
//!   and its frequency re-planned. Fully-emptied servers power off
//!   (they are skipped by the replay) until re-used or compacted by the
//!   next re-pack. Under a [`RepackTrigger`] with a fragmentation
//!   slack, an eviction also *arms* the trigger: the next tick
//!   compares the live Eqn (3) bound
//!   ([`ServerFleet::estimate_server_count`]) against the active
//!   server count and fires an **off-cycle re-pack** when the bound
//!   has dropped at least `slack` servers below it — the adaptive
//!   consolidation the fixed period clock cannot express.
//!
//! Driven with every VM arriving at t = 0 and no departures (and the
//! default [`RepackTrigger::Periodic`]), the controller is
//! **bit-identical** to the historical batch engine — the
//! `fleet_regression` golden tests and the batch≡online equivalence
//! property tests pin this.
//!
//! [`ServerFleet::estimate_server_count`]: cavm_core::fleet::ServerFleet::estimate_server_count
//!
//! [`Scenario::run`]: crate::config::Scenario::run
//! [`AllocationPolicy::place_one`]: cavm_core::alloc::AllocationPolicy::place_one

#[cfg(debug_assertions)]
mod oracle;
mod whatif;

pub use self::whatif::{WhatIf, WhatIfDelta};
pub use crate::config::ControllerConfig;
pub use crate::event::{RepackEvent, RepackReason, ViolationEvent, VmEvent};
pub use crate::feedback::{
    OvercommitConfig, OvercommitController, QosGuard, RepackTrigger, SlackController,
};
pub use crate::sink::{MetricSink, NullSink, ReportSink};

use crate::config::Policy;
use crate::report::{violation_percents, ClassBreakdown, PeriodRecord, SimReport};
use crate::SimError;
use cavm_core::alloc::{
    AllocationPolicy, BfdPolicy, FfdPolicy, OpenServer, PcpPolicy, Placement, ProposedPolicy,
    SuperVmPolicy, VmDescriptor,
};
use cavm_core::corr::CostMatrix;
use cavm_core::dvfs::{DvfsMode, FleetFrequencyPlanner};
use cavm_core::fleet::{ServerFleet, ServerHealth};
use cavm_core::servercost::{server_cost_of, ServerCostAggregate};
use cavm_core::CoreError;
use cavm_power::{EnergyMeter, PowerModel};
use cavm_trace::TimeSeries;
use std::collections::VecDeque;

pub(crate) const VIOLATION_EPS: f64 = 1e-9;

/// A fleet that cannot host the placement surfaces as the sim-level
/// "insufficient servers" error; everything else passes through.
pub(crate) fn map_core(e: CoreError) -> SimError {
    match e {
        CoreError::FleetExhausted { slots, unallocated } => SimError::InsufficientServers {
            // Each leftover VM needs at most one more server, so this
            // is an upper bound on the shortfall.
            needed: slots.saturating_add(unallocated),
            available: slots,
        },
        e => SimError::Core(e),
    }
}

/// The report histograms' frequency axis: the sorted union of every
/// class ladder, in GHz (a uniform fleet keeps its own ladder).
pub(crate) fn union_ladder_ghz(fleet: &ServerFleet) -> Vec<f64> {
    let mut ghz: Vec<f64> = fleet
        .classes()
        .iter()
        .flat_map(|c| c.ladder().levels().iter().map(|f| f.as_ghz()))
        .collect();
    ghz.sort_by(|a, b| a.partial_cmp(b).expect("finite frequencies"));
    ghz.dedup();
    ghz
}

/// What the registry remembers of an id — all that
/// [`SimError::DuplicateVm`], [`SimError::UnknownVm`] and
/// [`SimError::VmAlreadyDeparted`] need. Everything else about a VM
/// lives in its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdState {
    /// Never registered: a hole below the highest id seen, or a
    /// refused arrival that was rolled back.
    Vacant,
    /// Live, in this row of the row table.
    Live(usize),
    /// Departed. Ids are never re-used, so this tombstone (and the
    /// recorded lease end) stays — the VM's trace and predictor state
    /// do not.
    Departed,
}

/// One live VM.
#[derive(Debug, Clone)]
struct VmSlot {
    id: usize,
    /// Demand trace; sample 0 is the arrival instant.
    trace: TimeSeries,
    /// Global sample index of the arrival.
    arrival: usize,
    /// Last observed per-period reference peak (predictor state).
    last_peak: Option<f64>,
    /// Last observed per-period 90th percentile (predictor state).
    last_off: Option<f64>,
}

impl VmSlot {
    /// Demand at global sample `k` (zero before arrival or past the
    /// end of the trace).
    fn sample(&self, k: usize) -> f64 {
        k.checked_sub(self.arrival)
            .and_then(|i| self.trace.values().get(i).copied())
            .unwrap_or(0.0)
    }
}

/// Who a period row belongs to. Within one period a row has one
/// occupant: a departure keeps its row (and the samples in it) to the
/// period's close, and only then — or between periods, when no sample
/// of the coming period exists yet — is the row handed on.
#[derive(Debug, Clone)]
enum Occupant {
    /// Nobody: the row samples zeros until an arrival takes it.
    Free,
    /// A live VM.
    Live(VmSlot),
    /// The VM with this id departed during the running period; its
    /// samples up to then stay in the row's window to the close.
    Left(usize),
}

/// One row of the period tables: the index a VM's samples (and, from
/// the close on, its pairs in the period [`CostMatrix`]) are stored
/// under. Rows are recycled, so their number follows the largest
/// population one period has seen, not the ids ever registered.
#[derive(Debug, Clone)]
struct Row {
    occupant: Occupant,
    /// The running period's samples, one per replayed tick — every
    /// row, free ones included, so all windows are equally long (a row
    /// opened since the last tick is still unallocated).
    window: Vec<f64>,
}

impl Row {
    /// The id whose samples this period's window holds.
    fn id(&self) -> Option<usize> {
        match &self.occupant {
            Occupant::Free => None,
            Occupant::Live(vm) => Some(vm.id),
            Occupant::Left(id) => Some(*id),
        }
    }
}

/// The zero-demand descriptor of an id with no live VM behind it.
fn vacant_descriptor(id: usize) -> VmDescriptor {
    VmDescriptor::new(id, 0.0).with_off_peak(0.0)
}

/// Everything the controller tracks per provisioned server, beyond the
/// membership/class lists [`Placement`] owns and the health slice
/// [`DatacenterController::server_health`] hands out.
#[derive(Debug, Clone, Default)]
struct ServerSlot {
    /// Core capacity of the server's fleet class.
    cores: f64,
    /// Incremental Eqn (2) aggregate over the current members.
    agg: ServerCostAggregate,
    /// Current level on the class's frequency ladder.
    freq_idx: usize,
    /// Peak aggregate demand of the running dynamic-governor window.
    window_max: f64,
    /// Over-capacity samples recorded this period.
    violations: usize,
    /// The period index until which a boundary trim's revocation
    /// holds: the server is denied further deliberate overcommit
    /// through this period, breaking the admit-then-trim ping-pong.
    overcommit_hold: usize,
}

/// The stateful online allocation session. See the [module
/// docs](self) for event semantics.
///
/// The session is cheaply `Clone`-able end to end — registry, live
/// placement, per-server cost aggregates, energy meters,
/// guard/slack/overcommit controllers, health and the deferred queue
/// are all value state, and the registered traces are shared with the
/// clone, not copied ([`TimeSeries`] clones alias their samples). The
/// period cost matrix is the only heavyweight member: O(rows²) floats,
/// rows being the largest population one period has held
/// ([`period_rows`](Self::period_rows)). [`fork`](Self::fork) builds
/// on that, and [`what_if`](Self::what_if) answers "what would a
/// re-pack buy right now?" against a fork without perturbing the live
/// session.
#[derive(Debug, Clone)]
pub struct DatacenterController {
    cfg: ControllerConfig,
    planner: FleetFrequencyPlanner,
    class_wpc: Vec<f64>,
    total_slots: usize,
    /// Sorted union of every class ladder (the report histogram axis).
    union_ghz: Vec<f64>,
    /// `union_level[class][class_level]` → union axis column.
    union_level: Vec<Vec<usize>>,

    // ---- registry & clock. `ids` is indexed by id and only remembers
    // each id's state; the VMs themselves sit in `rows`, the dense
    // table whose index — not the id — addresses the period windows
    // and the period matrix. `free_rows` lists the `Occupant::Free`
    // rows an arrival may take.
    ids: Vec<IdState>,
    rows: Vec<Row>,
    free_rows: Vec<usize>,
    /// Per id: the global sample index at which the VM's lease ends,
    /// when known. Id-indexed rather than part of the row's `VmSlot`
    /// because every admission reads it for every placed VM
    /// ([`Self::drain_of`]) — and because it outlives the VM: between
    /// a close and the next open the stale placement still lists VMs
    /// that departed there, and an evacuation in that gap scores their
    /// server by their lease too.
    lease_end: Vec<Option<usize>>,
    clock: usize,
    period: usize,
    period_start: usize,
    in_period: bool,
    finished: bool,

    // ---- live placement state (valid while `in_period`). `placement`
    // (members + classes), `servers` and `health` are parallel: they
    // are appended only by `open_slot` and rebuilt only by
    // `install_placement`, so their lengths agree by construction.
    placement: Placement,
    servers: Vec<ServerSlot>,
    /// Per-server health — a vector of its own because
    /// [`Self::server_health`] hands it out as a slice. Failed slots
    /// survive period boundaries: only a full batch re-pack rebuilds
    /// the tables, and degraded mode suspends it.
    health: Vec<ServerHealth>,
    /// Per-VM (id-indexed) peak of the running dynamic-governor window.
    window_max_vm: Vec<f64>,
    /// Worst per-server violation ratio folded out of counters an
    /// off-cycle re-pack discarded (the bins changed under them).
    period_ratio_floor: f64,
    period_migrations: usize,
    /// Set by a departure-caused eviction; the next tick evaluates the
    /// fragmentation predicate and clears it (between membership
    /// changes the predicate cannot change).
    repack_armed: bool,
    /// Set by a recorded capacity violation when a [`QosGuard`] is
    /// configured; the next tick evaluates the guard predicate and
    /// clears it (between violations the period ratio cannot rise).
    qos_armed: bool,
    /// The live fragmentation slack; `Some` exactly when the trigger
    /// has a fragmentation dimension (degenerate equal bounds when
    /// [`ControllerConfig::adaptive_slack_max`] is unset).
    slack_ctl: Option<SlackController>,
    /// The live deliberate-overcommit margins, one per fleet class;
    /// `Some` exactly when [`ControllerConfig::overcommit`] is set.
    overcommit_ctl: Option<Vec<OvercommitController>>,
    pcp_clusters: Option<usize>,
    period_class_joules_start: Vec<f64>,
    /// Dense (id-indexed) descriptor table of the current period.
    dense_vms: Vec<VmDescriptor>,

    // ---- fault-tolerance state.
    /// Live-but-unplaceable VM ids, FIFO. Retried every tick, at each
    /// recovery and at period boundaries; bounded by
    /// [`ControllerConfig::max_deferred`].
    deferred: VecDeque<usize>,

    // ---- period matrix state (the running window is in `rows`).
    /// Keyed by the row table as it stood at the last close; ids
    /// registered since are covered by advancing its id bound.
    matrix: Option<CostMatrix>,
    /// PCP only: the last closed period's window of every row that had
    /// an occupant, by id — the envelopes the next re-pack clusters.
    /// `Some` once a period closed with any id registered.
    prev_window: Option<Vec<(usize, TimeSeries)>>,
    /// Id-indexed scratch: the current sample of every live VM (other
    /// entries are stale; only placed — hence live — ids are read).
    sample_buf: Vec<f64>,
    /// Debug builds re-derive the universe-indexed matrix from the
    /// registered traces and compare at every boundary.
    #[cfg(debug_assertions)]
    oracle: oracle::Oracle,

    // ---- run accumulators.
    class_energy: Vec<EnergyMeter>,
    class_violations: Vec<usize>,
    class_migrations: Vec<usize>,
    class_peak_servers: Vec<usize>,
    freq_histogram: Vec<Vec<u64>>,
    class_freq_histogram: Vec<Vec<u64>>,
    period_records: Vec<PeriodRecord>,
    violation_instances: usize,
    online_admissions: usize,
    offcycle_repacks: usize,
    server_failures: usize,
    server_recoveries: usize,
    evacuations: usize,
    deferred_peak: usize,
}

impl DatacenterController {
    /// Opens a session.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an unbounded fleet or
    /// out-of-range tuning values.
    pub fn new(cfg: ControllerConfig) -> crate::Result<Self> {
        cfg.validate()?;
        let fleet = &cfg.server_fleet;
        let n_classes = fleet.len();
        let total_slots = fleet
            .total_slots()
            .expect("validation rejects unbounded fleets");
        let planner = FleetFrequencyPlanner::new(fleet);
        let class_wpc: Vec<f64> = fleet
            .classes()
            .iter()
            .map(|c| c.busy_watts_per_core())
            .collect();

        let union_ghz = union_ladder_ghz(fleet);
        let union_level: Vec<Vec<usize>> = fleet
            .classes()
            .iter()
            .map(|c| {
                c.ladder()
                    .levels()
                    .iter()
                    .map(|f| {
                        union_ghz
                            .iter()
                            .position(|&g| g == f.as_ghz())
                            .expect("union contains every class level")
                    })
                    .collect()
            })
            .collect();
        let class_freq_histogram = fleet
            .classes()
            .iter()
            .map(|c| vec![0u64; c.ladder().len()])
            .collect();

        Ok(Self {
            planner,
            class_wpc,
            total_slots,
            freq_histogram: vec![vec![0u64; union_ghz.len()]; total_slots],
            union_ghz,
            union_level,
            ids: Vec::new(),
            rows: Vec::new(),
            free_rows: Vec::new(),
            lease_end: Vec::new(),
            clock: 0,
            period: 0,
            period_start: 0,
            in_period: false,
            finished: false,
            placement: Placement::from_servers(vec![]),
            servers: Vec::new(),
            window_max_vm: Vec::new(),
            period_ratio_floor: 0.0,
            period_migrations: 0,
            repack_armed: false,
            qos_armed: false,
            slack_ctl: cfg
                .repack_trigger
                .slack()
                .map(|s| SlackController::new(s, cfg.adaptive_slack_max.unwrap_or(s))),
            overcommit_ctl: cfg
                .overcommit
                .map(|oc| vec![OvercommitController::new(oc.margin, oc.max_margin); n_classes]),
            pcp_clusters: None,
            period_class_joules_start: vec![0.0; n_classes],
            dense_vms: Vec::new(),
            matrix: None,
            prev_window: None,
            sample_buf: Vec::new(),
            #[cfg(debug_assertions)]
            oracle: oracle::Oracle::default(),
            class_energy: vec![EnergyMeter::new(); n_classes],
            class_violations: vec![0; n_classes],
            class_migrations: vec![0; n_classes],
            class_peak_servers: vec![0; n_classes],
            class_freq_histogram,
            period_records: Vec::new(),
            violation_instances: 0,
            online_admissions: 0,
            offcycle_repacks: 0,
            health: Vec::new(),
            deferred: VecDeque::new(),
            server_failures: 0,
            server_recoveries: 0,
            evacuations: 0,
            deferred_peak: 0,
            cfg,
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Global sample index of the next tick.
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// Number of currently live VMs.
    pub fn live_vms(&self) -> usize {
        self.rows
            .iter()
            .filter(|row| matches!(row.occupant, Occupant::Live(_)))
            .count()
    }

    /// Rows of the period tables (sample windows and the period cost
    /// matrix): the largest number of VMs any one placement period has
    /// held so far — rows are recycled as VMs depart — rather than the
    /// number of ids ever registered
    /// ([`predicted_vms`](Self::predicted_vms)`.len()`).
    pub fn period_rows(&self) -> usize {
        self.rows.len()
    }

    /// The live VM registered under `id`.
    fn live_slot(&self, id: usize) -> Option<&VmSlot> {
        match self.ids.get(id) {
            Some(&IdState::Live(row)) => match &self.rows[row].occupant {
                Occupant::Live(vm) => Some(vm),
                _ => unreachable!("a live id owns its row"),
            },
            _ => None,
        }
    }

    fn is_live(&self, id: usize) -> bool {
        matches!(self.ids.get(id), Some(IdState::Live(_)))
    }

    /// Whether `id` was ever admitted (live or departed): a hole below
    /// the highest id and a refused arrival are not.
    pub(crate) fn is_registered(&self, id: usize) -> bool {
        matches!(self.ids.get(id), Some(IdState::Live(_) | IdState::Departed))
    }

    /// VMs admitted through the incremental (mid-period) path so far.
    pub fn online_admissions(&self) -> usize {
        self.online_admissions
    }

    /// Off-cycle (fragmentation-fired) re-packs so far.
    pub fn offcycle_repacks(&self) -> usize {
        self.offcycle_repacks
    }

    /// Per-provisioned-server health, parallel to
    /// [`DatacenterController::placement`].
    pub fn server_health(&self) -> &[ServerHealth] {
        &self.health
    }

    /// Currently failed servers.
    pub fn failed_servers(&self) -> usize {
        self.health.iter().filter(|h| h.is_failed()).count()
    }

    /// Whether the controller is in degraded mode: at least one server
    /// is failed, or the deferred-admission queue is non-empty (the
    /// fleet has not yet re-absorbed everything a failure displaced).
    /// Degraded mode suspends fragmentation/hybrid consolidation and
    /// deliberate boundary overcommit; the [`QosGuard`] stays armed.
    pub fn degraded(&self) -> bool {
        !self.deferred.is_empty() || self.health.iter().any(|h| h.is_failed())
    }

    /// Live VMs currently waiting in the deferred-admission queue.
    pub fn deferred_vms(&self) -> usize {
        self.deferred.len()
    }

    /// Ids currently waiting in the deferred-admission queue, in FIFO
    /// retry order.
    pub fn deferred_ids(&self) -> Vec<usize> {
        self.deferred.iter().copied().collect()
    }

    /// High-water mark of the deferred-admission queue over the
    /// session.
    pub fn deferred_peak(&self) -> usize {
        self.deferred_peak
    }

    /// [`VmEvent::ServerFail`] events processed so far (monotone).
    pub fn server_failures(&self) -> usize {
        self.server_failures
    }

    /// [`VmEvent::ServerRecover`] events processed so far (monotone).
    pub fn server_recoveries(&self) -> usize {
        self.server_recoveries
    }

    /// VMs moved onto an outliving server by emergency evacuations so
    /// far (monotone; deferred evacuees count once they actually
    /// admit, as online admissions).
    pub fn evacuations(&self) -> usize {
        self.evacuations
    }

    /// The live placement — stale between periods (the next period's
    /// first tick rebuilds or compacts it).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The dense (id-indexed) predicted descriptor table of the
    /// current period: departed VMs read zero demand, unobserved live
    /// VMs the configured default.
    pub fn predicted_vms(&self) -> &[VmDescriptor] {
        &self.dense_vms
    }

    /// Whether the controller is inside a placement period (at least
    /// one tick replayed since the last boundary).
    pub fn mid_period(&self) -> bool {
        self.in_period
    }

    /// Whether a departure has armed the fragmentation check for the
    /// next tick (always `false` under [`RepackTrigger::Periodic`]).
    pub fn repack_armed(&self) -> bool {
        self.repack_armed
    }

    /// Whether a recorded violation has armed the [`QosGuard`] check
    /// for the next tick (always `false` without a configured guard).
    pub fn qos_armed(&self) -> bool {
        self.qos_armed
    }

    /// Worst per-server over-capacity sample count accumulated in the
    /// running period, among servers the guard could act on (at least
    /// two members — a lone tenant exceeding its own capacity cannot
    /// be helped by any placement move, so it never arms the guard's
    /// predicate; its violations still reach the period record). Live
    /// counters only: counters a previous off-cycle re-pack discarded
    /// contribute to the period *record* through its folded floor, not
    /// here. This is the count the [`QosGuard`] predicate divides by
    /// the period length.
    pub fn period_worst_violations(&self) -> usize {
        self.servers
            .iter()
            .zip(self.placement.servers())
            .filter(|(_, members)| members.len() >= 2)
            .map(|(slot, _)| slot.violations)
            .max()
            .unwrap_or(0)
    }

    /// [`DatacenterController::period_worst_violations`] as a ratio of
    /// the period length — the quantity a [`QosGuard`] thresholds.
    pub fn period_violation_ratio(&self) -> f64 {
        self.period_worst_violations() as f64 / self.cfg.period_samples as f64
    }

    /// The fragmentation slack currently in effect — adapted by the
    /// [`SlackController`] when
    /// [`ControllerConfig::adaptive_slack_max`] is set, else the
    /// trigger's static value. `None` under
    /// [`RepackTrigger::Periodic`].
    pub fn current_slack(&self) -> Option<u32> {
        self.slack_ctl.map(|c| c.current())
    }

    /// The deliberate-overcommit margins currently in effect, one per
    /// fleet class — walked by the per-class [`OvercommitController`]s
    /// from observed violation ratios. `None` without
    /// [`ControllerConfig::overcommit`]. Degraded mode and per-slot
    /// trim holds suspend the margins *in use* without changing these
    /// controller values.
    pub fn overcommit_margins(&self) -> Option<Vec<f64>> {
        self.overcommit_ctl
            .as_ref()
            .map(|ctls| ctls.iter().map(|c| c.current()).collect())
    }

    /// Whether server `s` is under a boundary-trim revocation hold: an
    /// evidence-backed trim denies the slot further deliberate
    /// overcommit through the following period, breaking the
    /// admit-then-trim ping-pong.
    pub fn overcommit_held(&self, s: usize) -> bool {
        self.servers
            .get(s)
            .is_some_and(|slot| slot.overcommit_hold > self.period)
    }

    /// The deliberate-overcommit margin in effect for server `s` right
    /// now: zero when overcommit is unconfigured, suspended by
    /// degraded mode, or revoked for this slot by a boundary trim.
    fn margin_of(&self, s: usize) -> f64 {
        if self.degraded() || self.overcommit_held(s) {
            return 0.0;
        }
        self.overcommit_ctl
            .as_ref()
            .map_or(0.0, |ctls| ctls[self.placement.classes()[s]].current())
    }

    /// The per-class margin vector the batch re-pack packs with: the
    /// live controller values, or all zeros when overcommit is off or
    /// the controller is degraded (a full re-pack renumbers slots, so
    /// per-slot holds do not apply here).
    fn batch_margins(&self) -> Vec<f64> {
        let n = self.cfg.server_fleet.len();
        if self.degraded() {
            return vec![0.0; n];
        }
        self.overcommit_margins().unwrap_or_else(|| vec![0.0; n])
    }

    /// The live Eqn (3) lower bound: the fill-order server count
    /// [`ServerFleet::estimate_server_count`] needs for the placed
    /// VMs' predicted demand. The fragmentation predicate compares
    /// this against [`Placement::active_server_count`].
    ///
    /// [`ServerFleet::estimate_server_count`]: cavm_core::fleet::ServerFleet::estimate_server_count
    pub fn fragmentation_estimate(&self) -> usize {
        let total: f64 = self
            .placement
            .servers()
            .iter()
            .flatten()
            .map(|&id| self.dense_vms[id].demand)
            .sum();
        self.cfg.server_fleet.estimate_server_count(total)
    }

    /// Applies one lifecycle event.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SessionFinished`] after [`finish`],
    /// [`SimError::DuplicateVm`] / [`SimError::UnknownVm`] /
    /// [`SimError::VmAlreadyDeparted`] for malformed VM events,
    /// [`SimError::UnknownServer`] / [`SimError::ServerAlreadyFailed`]
    /// / [`SimError::ServerNotFailed`] for malformed server-health
    /// events and [`SimError::DeferredQueueFull`] when degraded-mode
    /// deferral would overflow (the event is rejected atomically);
    /// placement/trace/power errors propagate, with fleet exhaustion
    /// mapped to [`SimError::InsufficientServers`].
    ///
    /// [`finish`]: DatacenterController::finish
    pub fn apply(&mut self, event: VmEvent, sink: &mut dyn MetricSink) -> crate::Result<()> {
        match event {
            VmEvent::Arrive {
                id,
                trace,
                lease_samples,
            } => self.arrive(id, trace, lease_samples, sink),
            VmEvent::Depart { id } => self.depart(id),
            VmEvent::ServerFail { server } => self.server_fail(server, sink),
            VmEvent::ServerRecover { server } => self.server_recover(server, sink),
            VmEvent::Tick => self.tick(sink),
        }
    }

    fn check_open(&self) -> crate::Result<()> {
        if self.finished {
            return Err(SimError::SessionFinished);
        }
        Ok(())
    }

    /// Registers an arriving VM with an optional remaining lease (in
    /// samples). Mid-period arrivals are admitted incrementally (no
    /// re-pack), biased away from servers draining sooner than the
    /// lease; arrivals between periods join the next period's batch
    /// placement.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::apply`].
    pub fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease_samples: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        self.check_open()?;
        if !matches!(self.ids.get(id), None | Some(IdState::Vacant)) {
            return Err(SimError::DuplicateVm { id });
        }
        while self.ids.len() <= id {
            let fresh = self.ids.len();
            self.ids.push(IdState::Vacant);
            self.lease_end.push(None);
            self.dense_vms.push(vacant_descriptor(fresh));
            self.window_max_vm.push(0.0);
        }
        self.lease_end[id] = lease_samples.map(|l| self.clock.saturating_add(l));
        #[cfg(debug_assertions)]
        self.oracle.arrive(id, &trace, self.clock);
        let row = self.occupy_row(VmSlot {
            id,
            trace,
            arrival: self.clock,
            last_peak: None,
            last_off: None,
        });
        self.ids[id] = IdState::Live(row);
        if self.in_period {
            let demand = self.cfg.default_demand;
            let vm = VmDescriptor::new(id, demand).with_off_peak(demand * 0.9);
            if let Err(refused) = self.admit_or_defer(vm, sink) {
                // A refused arrival is atomic: the registration above
                // is rolled back, so the id stays fresh and a retry is
                // judged on capacity again. The row was never sampled
                // into, so it is free again at once.
                self.free_row(row);
                self.ids[id] = IdState::Vacant;
                self.dense_vms[id] = vacant_descriptor(id);
                #[cfg(debug_assertions)]
                self.oracle.forget(id);
                return Err(refused);
            }
        }
        Ok(())
    }

    /// Puts an arriving VM into a free row — a recycled one when there
    /// is any, else a fresh row (whose window the next tick allocates,
    /// keeping that cost out of the admission path).
    fn occupy_row(&mut self, vm: VmSlot) -> usize {
        if let Some(row) = self.free_rows.pop() {
            self.rows[row].occupant = Occupant::Live(vm);
            return row;
        }
        self.rows.push(Row {
            occupant: Occupant::Live(vm),
            window: Vec::new(),
        });
        self.rows.len() - 1
    }

    fn free_row(&mut self, row: usize) {
        self.rows[row].occupant = Occupant::Free;
        self.free_rows.push(row);
    }

    /// Ends a VM's lease.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::apply`].
    pub fn depart(&mut self, id: usize) -> crate::Result<()> {
        self.check_open()?;
        let row = match self.ids.get(id) {
            Some(&IdState::Live(row)) => row,
            Some(IdState::Departed) => return Err(SimError::VmAlreadyDeparted { id }),
            Some(IdState::Vacant) | None => return Err(SimError::UnknownVm { id }),
        };
        self.ids[id] = IdState::Departed;
        if self.in_period {
            // The running period has (or may have) sampled the VM: its
            // row keeps those samples, under its id, to the close.
            self.rows[row].occupant = Occupant::Left(id);
        } else {
            self.free_row(row);
        }
        #[cfg(debug_assertions)]
        self.oracle.depart(id, self.clock);
        if self.deferred.contains(&id) {
            // A queued VM departing simply leaves the queue — it was
            // never placed.
            self.deferred.retain(|&d| d != id);
            self.dense_vms[id] = vacant_descriptor(id);
            return Ok(());
        }
        if self.in_period && self.placement.server_of(id).is_some() {
            self.evict_live(id)?;
            self.dense_vms[id] = vacant_descriptor(id);
            // A departure is what creates fragmentation: arm the
            // off-cycle check for the next tick.
            if self.cfg.repack_trigger.slack().is_some() {
                self.repack_armed = true;
            }
        }
        Ok(())
    }

    /// Advances one monitoring sample.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::apply`].
    pub fn tick(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        if !self.in_period {
            self.start_period(sink)?;
            // The boundary may have placed queued VMs (or outlived
            // their departure): drop stale queue entries so degraded
            // mode ends as soon as everything is re-absorbed.
            self.prune_deferred();
            self.in_period = true;
        } else {
            // Degraded mode retries the deferred queue every tick —
            // departures free capacity between recoveries.
            if !self.deferred.is_empty() {
                self.drain_deferred(sink)?;
            }
            // QoS outranks energy: an armed guard is evaluated first.
            // Its surgical re-pack does NOT consolidate (it can even
            // open a server), so a pending fragmentation check is not
            // consumed — it stays armed and is evaluated next tick,
            // against the post-heal placement.
            let qos_fired = self.maybe_qos_repack(sink)?;
            // While degraded, consolidation into the shrunken fleet is
            // suspended: the armed flag is *kept* so the check runs
            // once capacity is whole again.
            if !qos_fired && self.repack_armed && !self.degraded() {
                self.repack_armed = false;
                let estimate = self.fragmentation_estimate();
                let active = self.placement.active_server_count();
                let slack = self.slack_ctl.map(|c| c.current());
                let gap = active.saturating_sub(estimate);
                if slack.is_some_and(|s| gap >= s as usize) {
                    self.midperiod_repack(RepackReason::Fragmentation { estimate, active }, sink)?;
                } else if let Some(ctl) = self.slack_ctl.as_mut() {
                    // Armed but below the (possibly raised) slack:
                    // let the adaptive controller see the missed
                    // consolidation so a raised slack can decay.
                    ctl.observe_miss(gap);
                }
            }
        }
        self.replay_tick(sink)?;
        self.clock += 1;
        if self.clock - self.period_start == self.cfg.period_samples {
            self.end_period(sink)?;
        }
        Ok(())
    }

    /// Fails a provisioned server and emergency-evacuates its
    /// residents: each re-admits through the active policy's single-VM
    /// rule (failed servers are never candidates), streamed as
    /// migrations under one [`RepackReason::Evacuation`] event;
    /// residents the shrunken fleet cannot host enter the deferred
    /// queue. The failed slot keeps consuming its fleet-class capacity
    /// (the hardware exists, it just cannot host) until
    /// [`VmEvent::ServerRecover`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an unprovisioned index,
    /// [`SimError::ServerAlreadyFailed`] for a double fault, and
    /// [`SimError::DeferredQueueFull`] when the residents could not
    /// all be queued in the worst case — checked *before* any state
    /// changes, so a rejected event leaves the session untouched.
    pub fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        let servers = self.placement.server_count();
        if server >= servers {
            return Err(SimError::UnknownServer { server, servers });
        }
        if self.health[server].is_failed() {
            return Err(SimError::ServerAlreadyFailed { server });
        }
        let residents = self.placement.servers()[server].len();
        if self.deferred.len() + residents > self.cfg.max_deferred {
            return Err(SimError::DeferredQueueFull {
                capacity: self.cfg.max_deferred,
            });
        }

        let servers_before = self.placement.active_server_count();
        self.health[server] = ServerHealth::Failed;
        self.server_failures += 1;
        sink.on_server_fail(self.clock, server, residents);
        if residents == 0 {
            return Ok(());
        }

        // Evacuate: the members leave their failed host wholesale, its
        // live state is zeroed, and each evacuee re-admits in id order
        // through the policy (health-aware, so no failed server is a
        // candidate); the queue has room for every resident (checked
        // above).
        let evacuees = self
            .placement
            .drain_server(server)
            .map_err(SimError::Core)?;
        self.refresh_bin(server)?;
        let displaced = evacuees.into_iter().map(|id| (id, server)).collect();
        let moved = self.readmit_displaced(displaced, Unhosted::Defer, sink)?;
        self.evacuations += moved;
        self.emit_repack(
            RepackReason::Evacuation { server },
            servers_before,
            moved,
            sink,
        );
        Ok(())
    }

    /// Recovers a failed server: its slot is admissible again and the
    /// deferred-admission queue immediately retries in FIFO order.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an unprovisioned index and
    /// [`SimError::ServerNotFailed`] when the server is healthy.
    pub fn server_recover(
        &mut self,
        server: usize,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        self.check_open()?;
        let servers = self.placement.server_count();
        if server >= servers {
            return Err(SimError::UnknownServer { server, servers });
        }
        if !self.health[server].is_failed() {
            return Err(SimError::ServerNotFailed { server });
        }
        self.health[server] = ServerHealth::Healthy;
        self.server_recoveries += 1;
        sink.on_server_recover(self.clock, server);
        if !self.deferred.is_empty() {
            self.drain_deferred(sink)?;
        }
        Ok(())
    }

    /// Queues a live, unplaced VM for deferred admission (idempotent:
    /// an already-queued id is left in place).
    ///
    /// # Errors
    ///
    /// [`SimError::DeferredQueueFull`] when the queue is at capacity;
    /// nothing is mutated.
    fn defer(&mut self, id: usize) -> crate::Result<()> {
        if self.deferred.contains(&id) {
            return Ok(());
        }
        if self.deferred.len() >= self.cfg.max_deferred {
            return Err(SimError::DeferredQueueFull {
                capacity: self.cfg.max_deferred,
            });
        }
        self.deferred.push_back(id);
        self.deferred_peak = self.deferred_peak.max(self.deferred.len());
        Ok(())
    }

    /// Drops queue entries that no longer need admission: departed
    /// VMs, and VMs a period boundary already placed.
    fn prune_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let host_of = self.placement.assignment(self.ids.len());
        let ids = &self.ids;
        self.deferred
            .retain(|&id| matches!(ids[id], IdState::Live(_)) && host_of[id].is_none());
    }

    /// Retries every queued VM once, FIFO: those the fleet can now
    /// host admit through the normal incremental path (counted as
    /// online admissions); the rest keep their queue position.
    fn drain_deferred(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        // Admissions below only ever place the id being retried, so one
        // host table serves the whole pass.
        let host_of = self.placement.assignment(self.ids.len());
        let pending: Vec<usize> = self.deferred.drain(..).collect();
        for id in pending {
            if !self.is_live(id) || host_of[id].is_some() {
                continue;
            }
            let vm = self.dense_vms[id];
            match self.admit_live(vm, sink) {
                Ok(()) => {}
                Err(SimError::InsufficientServers { .. }) => {
                    self.deferred.push_back(id);
                    // No peak update: the queue is no longer than it
                    // was before the drain.
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Ends the session: emits [`MetricSink::on_summary`] with the
    /// terminal report. A partially replayed period is dropped, like
    /// the trailing partial period of a batch run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if already finished.
    pub fn finish(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        self.finished = true;
        sink.on_summary(&self.report());
        Ok(())
    }

    /// The terminal aggregate over all *completed* periods — the same
    /// shape (and, for a batch-equivalent drive, the same bits) as
    /// [`Scenario::run`](crate::config::Scenario::run)'s report.
    pub fn report(&self) -> SimReport {
        let (max_violation_percent, mean_violation_percent) =
            violation_percents(&self.period_records);
        let mut energy = EnergyMeter::new();
        for meter in &self.class_energy {
            energy.merge(meter);
        }
        let classes: Vec<ClassBreakdown> = self
            .cfg
            .server_fleet
            .classes()
            .iter()
            .enumerate()
            .map(|(c, spec)| ClassBreakdown {
                name: spec.name().to_string(),
                cores: spec.cores(),
                servers_available: spec.count(),
                peak_servers_used: self.class_peak_servers[c],
                energy: self.class_energy[c],
                violation_instances: self.class_violations[c],
                migrations_in: self.class_migrations[c],
                freq_levels_ghz: spec.ladder().levels().iter().map(|f| f.as_ghz()).collect(),
                freq_histogram: self.class_freq_histogram[c].clone(),
            })
            .collect();
        SimReport {
            policy: self.cfg.policy.name().to_string(),
            dynamic_dvfs: matches!(self.cfg.dvfs_mode, DvfsMode::Dynamic { .. }),
            energy,
            max_violation_percent,
            mean_violation_percent,
            violation_instances: self.violation_instances,
            periods: self.period_records.clone(),
            classes,
            freq_histogram: self.freq_histogram.clone(),
            freq_levels_ghz: self.union_ghz.clone(),
            online_admissions: self.online_admissions,
            offcycle_repacks: self.offcycle_repacks,
            sink_dropped_events: 0,
            server_failures: self.server_failures,
            evacuations: self.evacuations,
            deferred_peak: self.deferred_peak,
        }
    }

    // ---- fork / what-if ----------------------------------------------------

    /// Forks the session: the returned controller is a fully
    /// independent session that continues from this instant. Feeding
    /// both the original and the fork an identical event suffix
    /// produces bit-identical reports (pinned by the fork-equivalence
    /// property tests), and events applied to one are invisible to
    /// the other. The fork shares no mutable state with the live
    /// session — the registered traces are immutable and aliased, not
    /// copied — so the dominant cost is the period cost matrix
    /// (O([`period_rows`](Self::period_rows)²) floats).
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// Estimated electrical power of the fleet at this instant, watts:
    /// each active healthy server's class power model evaluated at its
    /// current frequency plan and its members' **predicted** per-VM
    /// demands (the same Fig 2 UPDATE predictions placement used).
    /// Powered-off and failed servers draw nothing. This is the
    /// steady-state estimate the [`WhatIf`] delta is built from, not
    /// the metered energy of [`SimReport::energy`](crate::SimReport::energy).
    pub fn estimated_power_watts(&self) -> crate::Result<f64> {
        let mut watts = 0.0;
        for (s, slot) in self.servers.iter().enumerate() {
            let members: &[usize] = &self.placement.servers()[s];
            if members.is_empty() || self.health[s].is_failed() {
                continue;
            }
            let class = self.placement.classes()[s];
            let ladder = self.cfg.server_fleet.classes()[class].ladder();
            let f = ladder.get(slot.freq_idx).expect("index within ladder");
            let eff_capacity = slot.cores * f.ratio_to(ladder.max());
            let agg: f64 = members.iter().map(|&v| self.dense_vms[v].demand).sum();
            let u = (agg / eff_capacity).clamp(0.0, 1.0);
            watts += self.cfg.server_fleet.classes()[class]
                .power_model()
                .power(u, f)
                .map_err(SimError::Power)?;
        }
        Ok(watts)
    }

    // ---- period machinery -------------------------------------------------

    /// Makes the period matrix answer for every id below `universe`.
    /// Ids registered since the last close have no row in it: they
    /// pair as the all-zero windows they had that period, at no pair
    /// work. Before the first close there is no sample at all and
    /// every pair is neutral.
    fn extend_matrix(&mut self, universe: usize) -> crate::Result<()> {
        let matrix = match &mut self.matrix {
            Some(matrix) => matrix,
            None => self
                .matrix
                .insert(CostMatrix::keyed(0, self.cfg.reference).map_err(SimError::Core)?),
        };
        matrix.extend_ids(universe);
        #[cfg(debug_assertions)]
        self.oracle.refresh(universe, &self.cfg);
        Ok(())
    }

    /// The batch ALLOCATE policy of this session, plus the PCP cluster
    /// count when applicable. PCP re-clusters from the previous
    /// period's envelopes; with no history yet — including a previous
    /// period that held zero VMs — it is a single degenerate cluster,
    /// i.e. BFD behaviour.
    fn batch_policy(&self) -> crate::Result<(Box<dyn AllocationPolicy>, Option<usize>)> {
        Ok(match self.cfg.policy {
            Policy::Bfd => (Box::new(BfdPolicy), None),
            Policy::Ffd => (Box::new(FfdPolicy), None),
            Policy::Proposed(config) => (
                Box::new(ProposedPolicy::new(config).map_err(SimError::Core)?),
                None,
            ),
            Policy::SuperVm { min_pair_cost } => (
                Box::new(SuperVmPolicy::new(min_pair_cost).map_err(SimError::Core)?),
                None,
            ),
            Policy::Pcp {
                envelope_percentile,
                affinity_threshold,
            } => match &self.prev_window {
                Some(windows) => {
                    // Ids without a row that period — departed before
                    // it, or registered since — cluster from an
                    // all-zero envelope.
                    let zero =
                        TimeSeries::constant(self.cfg.sample_dt_s, self.cfg.period_samples, 0.0)
                            .map_err(SimError::Trace)?;
                    let mut refs = vec![&zero; self.ids.len()];
                    for (id, window) in windows {
                        refs[*id] = window;
                    }
                    #[cfg(debug_assertions)]
                    self.oracle.check_pcp_windows(&refs, &self.cfg);
                    let pcp =
                        PcpPolicy::from_traces(&refs, envelope_percentile, affinity_threshold)
                            .map_err(SimError::Core)?;
                    let clusters = pcp.cluster_count();
                    (Box::new(pcp), Some(clusters))
                }
                None => (Box::new(BfdPolicy), Some(1)),
            },
        })
    }

    /// The full policy re-pack of the live VM set — the batch ALLOCATE
    /// pass. Runs through [`AllocationPolicy::place_with_margins`] with
    /// the live per-class overcommit margins (all zeros — and hence the
    /// policy's plain `place`, bit for bit — when overcommit is off or
    /// the controller is degraded).
    fn place_live(&self, vms: &[VmDescriptor]) -> crate::Result<(Placement, Option<usize>)> {
        let (policy, pcp_clusters) = self.batch_policy()?;
        let matrix = self
            .matrix
            .as_ref()
            .expect("matrix is built before placement");
        let placement = policy
            .place_with_margins(vms, matrix, &self.cfg.server_fleet, &self.batch_margins())
            .map_err(map_core)?;
        #[cfg(debug_assertions)]
        self.oracle
            .check_blind_pass(policy.as_ref(), vms, &self.cfg, &placement);
        Ok((placement, pcp_clusters))
    }

    /// The UPDATE + ALLOCATE pass at a period boundary: predict live
    /// demands, refresh the matrix dimension, re-pack (or, under a
    /// pure [`RepackTrigger::Fragmentation`] schedule, keep the
    /// standing placement), count migrations, and plan every server's
    /// static frequency.
    fn start_period(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let universe = self.ids.len();
        self.period_start = self.clock;
        self.period_ratio_floor = 0.0;
        // The boundary starts fresh violation counters; a guard armed
        // by the previous period's last samples has nothing valid to
        // threshold (the keep-path's capacity check covers the drift).
        self.qos_armed = false;

        // ---- UPDATE: predicted descriptors (last-value predictor with
        // the configured default before the first observation).
        self.dense_vms.clear();
        let mut live_vms = Vec::new();
        for id in 0..universe {
            let descriptor = match self.live_slot(id) {
                Some(s) => {
                    let demand = s.last_peak.unwrap_or(self.cfg.default_demand).max(0.0);
                    let off = s.last_off.unwrap_or(demand * 0.9).clamp(0.0, demand);
                    let d = VmDescriptor::new(id, demand).with_off_peak(off);
                    live_vms.push(d);
                    d
                }
                None => vacant_descriptor(id),
            };
            self.dense_vms.push(descriptor);
        }
        if universe > 0 {
            self.extend_matrix(universe)?;
        }
        // A fresh period starts fresh dynamic-governor windows (the
        // off-cycle re-pack path preserves them instead) and a fresh
        // per-class energy baseline.
        self.window_max_vm = vec![0.0; universe];
        self.period_class_joules_start = self.class_energy.iter().map(|m| m.joules()).collect();

        // A fragmentation-only schedule keeps the standing placement
        // across boundaries once one exists; everything else (and the
        // very first placement) runs the batch ALLOCATE pass. Degraded
        // mode also keeps: the health-blind batch pass would pack onto
        // failed slots (and lose their health state in the rebuild),
        // so a degraded boundary works incrementally instead — evict
        // the departed, re-admit the pending, consolidate later.
        let degraded = self.degraded();
        let keep = (!self.cfg.repack_trigger.periodic_repacks() || degraded)
            && (self.placement.servers().iter().any(|m| !m.is_empty())
                || (degraded && self.placement.server_count() > 0));
        if keep {
            self.keep_placement_boundary(sink)?;
            #[cfg(debug_assertions)]
            self.oracle.check(self, true);
            return Ok(());
        }

        // ---- ALLOCATE.
        let servers_before = self.placement.active_server_count();
        let (placement, pcp_clusters) = if live_vms.is_empty() {
            let clusters = matches!(self.cfg.policy, Policy::Pcp { .. }).then_some(1);
            (Placement::from_servers(vec![]), clusters)
        } else {
            self.place_live(&live_vms)?
        };
        self.pcp_clusters = pcp_clusters;
        let ran_allocate = !live_vms.is_empty();

        let migrations = self.install_placement(placement, sink)?;
        self.period_migrations = migrations;
        // The batch pass healed whatever fragmentation was pending.
        self.repack_armed = false;
        if ran_allocate {
            self.emit_repack(RepackReason::Periodic, servers_before, migrations, sink);
        }
        #[cfg(debug_assertions)]
        self.oracle.check(self, true);
        Ok(())
    }

    /// Swaps in a freshly packed placement mid-stream — the one place
    /// the per-server tables are rebuilt: counts migrations against the
    /// standing placement (attributed to the destination server's
    /// class), then rebuilds every server's record, cost aggregate and
    /// static frequency plan. Returns the migration count.
    fn install_placement(
        &mut self,
        placement: Placement,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<usize> {
        let universe = self.ids.len();
        let before = self.placement.assignment(universe);
        let after = placement.assignment(universe);
        let mut migrations = 0usize;
        for (id, (&was, &now)) in before.iter().zip(&after).enumerate() {
            if let (Some(b), Some(n)) = (was, now) {
                if b != n {
                    migrations += 1;
                    self.class_migrations[placement.classes()[n]] += 1;
                    sink.on_migration(self.period, id, b, n);
                }
            }
        }

        // A full batch re-pack renumbers the server slots wholesale,
        // which only ever happens outside degraded mode (degraded
        // boundaries keep, and degraded suspends the fragmentation
        // re-pack) — so every slot of the fresh placement is healthy,
        // and no per-slot window, violation counter or overcommit hold
        // survives: the server it described no longer exists. (The
        // per-VM maxima in `window_max_vm` are bin-independent, so
        // callers decide whether to reset or carry them.)
        debug_assert!(!self.health.iter().any(|h| h.is_failed()));
        let classes = self.cfg.server_fleet.classes();
        self.servers = placement
            .classes()
            .iter()
            .map(|&class| ServerSlot {
                cores: classes[class].cores(),
                ..ServerSlot::default()
            })
            .collect();
        self.health = vec![ServerHealth::Healthy; placement.server_count()];
        self.placement = placement;
        for s in 0..self.servers.len() {
            self.refresh_bin(s)?;
        }
        Ok(migrations)
    }

    /// The period boundary under a fragmentation-only schedule: the
    /// standing placement is kept (members that departed between
    /// periods are evicted first), its aggregates and frequency plans
    /// are refreshed against the new matrix and predictions, and VMs
    /// that arrived between periods are admitted incrementally. No
    /// migrations happen, and [`PeriodRecord::pcp_clusters`] stays
    /// `None` (no clustering ran).
    fn keep_placement_boundary(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let universe = self.ids.len();

        // Members that departed between periods leave their (kept)
        // slots now; like any eviction this arms the fragmentation
        // check.
        let mut evicted_any = false;
        let host_of = self.placement.assignment(universe);
        for (id, host) in host_of.iter().enumerate() {
            if !self.is_live(id) && host.is_some() {
                self.placement.evict(id).map_err(SimError::Core)?;
                evicted_any = true;
            }
        }
        self.period_migrations = 0;
        self.pcp_clusters = None;

        // Refresh per-server state against the new matrix/predictions.
        // The completed period's per-server violation counters are the
        // guard's boundary evidence; capture them across the reset.
        let bins = self.servers.len();
        let mut prior_violations = Vec::with_capacity(bins);
        for slot in &mut self.servers {
            slot.window_max = 0.0;
            prior_violations.push(std::mem::take(&mut slot.violations));
        }
        for s in 0..bins {
            self.refresh_bin(s)?;
        }

        // The QoS guard's boundary capacity check. A kept server is
        // force-repacked only on *evidence*: its violation ratio over
        // the completed period exceeded the guard's threshold (it
        // ended the period un-healed — e.g. crossed too late for the
        // mid-period guard to act) AND the refreshed predictions say
        // it is overcommitted going into the next one. Sub-threshold
        // violators keep their packing deliberately: predicted
        // overcommit whose coincident peaks stay within the SLA budget
        // is exactly the correlation gap the paper's Eqn (1) packing
        // exploits, and splitting on it would forfeit the
        // fragmentation schedule's energy win. The fix is surgical:
        // the largest members are trimmed off (and re-admitted below)
        // until the remainder fits the capacity, moving the minimum of
        // VMs.
        //
        // Degraded mode suspends the deliberate overcommit entirely:
        // with capacity already lost to failures, *any* predicted
        // overcommit is trimmed at the boundary — no breach evidence
        // required, guard configured or not. The correlation gap is a
        // bet the shrunken fleet can no longer cover.
        let degraded = self.degraded();
        let mut forced: Vec<(usize, usize)> = Vec::new();
        let mut over_servers = 0usize;
        let servers_before = self.placement.active_server_count();
        if self.cfg.qos_guard.is_some() || degraded {
            for (s, &violations) in prior_violations.iter().enumerate() {
                let members = self.placement.servers()[s].clone();
                let evidence = degraded
                    || self
                        .cfg
                        .qos_guard
                        .is_some_and(|g| g.exceeded(violations, self.cfg.period_samples));
                if members.is_empty() || !evidence {
                    continue;
                }
                let cores = self.servers[s].cores;
                let mut load: f64 = members.iter().map(|&id| self.dense_vms[id].demand).sum();
                if load <= cores + VIOLATION_EPS {
                    continue;
                }
                over_servers += 1;
                // A trimmed server sits out deliberate overcommit for
                // the trim period and the next: re-admitting the same
                // margin it just breached would ping-pong VMs between
                // the trim loop and the admission gate every boundary.
                if self.overcommit_ctl.is_some() {
                    self.servers[s].overcommit_hold = self.period + 2;
                }
                let mut by_demand = members;
                by_demand.sort_by(|&a, &b| {
                    self.dense_vms[b]
                        .demand
                        .partial_cmp(&self.dense_vms[a].demand)
                        .expect("finite demands")
                        .then(a.cmp(&b))
                });
                for &m in &by_demand {
                    if load <= cores + VIOLATION_EPS {
                        break;
                    }
                    self.evict_live(m)?;
                    load -= self.dense_vms[m].demand;
                    forced.push((m, s));
                }
            }
        }
        if over_servers > 0 {
            // Re-admit the displaced members (origin excluded —
            // re-admitting there would undo the trim), attributed like
            // any boundary migration. On a degraded fleet a trimmed VM
            // with nowhere to go queues like any other displaced VM.
            let unhosted = if degraded {
                Unhosted::Defer
            } else {
                Unhosted::Fail
            };
            let migrations = self.readmit_displaced(forced, unhosted, sink)?;
            self.emit_repack(
                RepackReason::Overcommit {
                    servers: over_servers,
                },
                servers_before,
                migrations,
                sink,
            );
        }

        // VMs that arrived between periods join incrementally, in id
        // order, with their predicted descriptors — and so do queued
        // VMs (live but unplaced), which makes the boundary a natural
        // deferred-queue retry; successes are pruned from the queue by
        // the caller.
        let host_of = self.placement.assignment(universe);
        for (id, host) in host_of.iter().enumerate() {
            if self.is_live(id) && host.is_none() {
                self.admit_or_defer(self.dense_vms[id], sink)?;
            }
        }
        if evicted_any && self.cfg.repack_trigger.slack().is_some() {
            self.repack_armed = true;
        }
        Ok(())
    }

    /// Evaluates an armed [`QosGuard`]: when the running period's
    /// observed worst per-server violation ratio exceeds the
    /// threshold, fire the off-cycle QoS re-pack
    /// ([`RepackReason::QosGuard`]). Returns whether one fired.
    ///
    /// The re-pack is deliberately *surgical*: only servers whose own
    /// ratio breached the threshold are touched, and each loses
    /// exactly its **hotspot member** — the one with the largest peak
    /// observed this period — which is re-admitted onto another server
    /// through the policy's single-VM rule (origin excluded; the
    /// correlation-aware rule lands it with anti-correlated tenants).
    /// The move uses the *standing* predictions, so quiet servers keep
    /// their packing and a sub-threshold overcommitted fleet stays
    /// consolidated: a full honest re-pack here would convert every
    /// server to worst-case provisioning and forfeit exactly the
    /// correlation-gap energy win the placement-keeping schedule
    /// exists to hold on to. If violations persist, the ratio
    /// re-crosses the threshold one heal-interval later and the next
    /// hotspot moves — gradual, self-limiting redistribution, with the
    /// boundary capacity check as the stronger periodic backstop. On a
    /// fleet with no room anywhere else the hotspot goes back onto its
    /// origin — no migration counted or streamed, the breach still
    /// folded into the period floor — instead of failing the tick.
    fn maybe_qos_repack(&mut self, sink: &mut dyn MetricSink) -> crate::Result<bool> {
        if !self.qos_armed {
            return Ok(false);
        }
        self.qos_armed = false;
        let Some(guard) = self.cfg.qos_guard else {
            return Ok(false);
        };
        let worst = self.period_worst_violations();
        if !guard.exceeded(worst, self.cfg.period_samples) || self.live_vms() == 0 {
            return Ok(false);
        }

        let bins = self.placement.server_count();
        let servers_before = self.placement.active_server_count();
        let mut forced: Vec<(usize, usize)> = Vec::new();
        for s in 0..bins {
            let violations = self.servers[s].violations;
            let members = self.placement.servers()[s].clone();
            // A lone member would be alone wherever it goes — moving
            // it buys nothing, so lone-tenant breaches neither fire
            // nor reset (they are excluded from the predicate above).
            if members.len() < 2 || !guard.exceeded(violations, self.cfg.period_samples) {
                continue;
            }
            // The healed server's counter cannot carry on (its load is
            // about to change): fold its ratio into the period floor
            // so the record keeps the damage, and reset it so the
            // guard does not re-fire on stale evidence.
            let ratio = violations as f64 / self.cfg.period_samples as f64;
            self.period_ratio_floor = self.period_ratio_floor.max(ratio);
            self.servers[s].violations = 0;
            // The hotspot: the member with the largest reference peak
            // actually observed this period.
            let mut hotspot = members[0];
            let mut hotspot_peak = f64::NEG_INFINITY;
            for &m in &members {
                let peak = match self.ids[m] {
                    IdState::Live(row) if !self.rows[row].window.is_empty() => self
                        .cfg
                        .reference
                        .of(&self.rows[row].window)
                        .map_err(SimError::Trace)?,
                    _ => 0.0,
                };
                if peak > hotspot_peak {
                    hotspot_peak = peak;
                    hotspot = m;
                }
            }
            self.evict_live(hotspot)?;
            forced.push((hotspot, s));
        }

        // The move is optional: a hotspot no other server can host
        // goes back where it came from instead of failing the tick.
        let migrations = self.readmit_displaced(forced, Unhosted::Restore, sink)?;
        self.offcycle_repacks += 1;
        self.emit_repack(
            RepackReason::QosGuard { violations: worst },
            servers_before,
            migrations,
            sink,
        );
        Ok(true)
    }

    /// A full re-pack of the live VM set between period boundaries
    /// (fragmentation- or QoS-fired): re-packs with the batch policy
    /// against the current matrix, folds the obsoleted per-server
    /// violation counters into the period's floor, and emits
    /// [`MetricSink::on_repack`].
    fn midperiod_repack(
        &mut self,
        reason: RepackReason,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        let universe = self.ids.len();
        let live_vms: Vec<VmDescriptor> = (0..universe)
            .filter(|&id| self.is_live(id))
            .map(|id| self.dense_vms[id])
            .collect();
        if live_vms.is_empty() {
            return Ok(());
        }
        // Mid-period arrivals may postdate the period matrix; the
        // batch pass validates ids against it, so advance its id bound
        // first (as a boundary does).
        self.extend_matrix(universe)?;
        let servers_before = self.placement.active_server_count();
        let (placement, pcp_clusters) = self.place_live(&live_vms)?;

        // The re-pack reshuffles the bins, so the per-server violation
        // counters cannot carry across it — fold their worst ratio
        // into the period's floor before they are reset.
        self.period_ratio_floor = self.worst_violation_ratio();

        let migrations = self.install_placement(placement, sink)?;
        // The per-VM window maxima are bin-independent: carry them
        // across the reshuffle so a mid-interval dynamic replan still
        // sees the whole interval's peaks, and seed each new bin's
        // aggregate window with its members' per-VM maxima (Σ max ≥
        // max Σ — a conservative stand-in until fresh samples land).
        for (slot, members) in self.servers.iter_mut().zip(self.placement.servers()) {
            slot.window_max = members.iter().map(|&v| self.window_max_vm[v]).sum();
        }
        self.period_migrations += migrations;
        if pcp_clusters.is_some() {
            self.pcp_clusters = pcp_clusters;
        }
        self.offcycle_repacks += 1;
        let servers_after = self.placement.active_server_count();
        if let (RepackReason::Fragmentation { .. }, Some(ctl)) = (reason, self.slack_ctl.as_mut()) {
            // Feed the realized outcome back into the adaptive slack:
            // freed servers are the energy win, migrations the price.
            ctl.observe(servers_before.saturating_sub(servers_after), migrations);
        }
        self.emit_repack(reason, servers_before, migrations, sink);
        #[cfg(debug_assertions)]
        self.oracle.check(self, true);
        Ok(())
    }

    /// Streams one re-pack of the live placement, as it stands now, to
    /// [`MetricSink::on_repack`].
    fn emit_repack(
        &self,
        reason: RepackReason,
        servers_before: usize,
        migrations: usize,
        sink: &mut dyn MetricSink,
    ) {
        sink.on_repack(&RepackEvent {
            sample: self.clock,
            period: self.period,
            reason,
            servers_before,
            servers_after: self.placement.active_server_count(),
            migrations,
            slack_after: self.current_slack(),
        });
    }

    /// The running period's worst per-server violation ratio, with the
    /// counters off-cycle re-packs discarded contributing through the
    /// folded floor (0 when no re-pack happened).
    fn worst_violation_ratio(&self) -> f64 {
        self.servers
            .iter()
            .map(|slot| slot.violations as f64 / self.cfg.period_samples as f64)
            .fold(self.period_ratio_floor, f64::max)
    }

    /// Replays the current sample: per-server aggregation, dynamic
    /// DVFS, violations, energy and histograms.
    fn replay_tick(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let k = self.clock;
        let k_in_period = k - self.period_start;
        self.sample_buf.resize(self.ids.len(), 0.0);
        for row in &mut self.rows {
            if row.window.capacity() == 0 {
                // A row opened since the last tick: like every other
                // row it read zero for the period's samples so far.
                row.window.reserve_exact(self.cfg.period_samples);
                row.window.resize(k_in_period, 0.0);
            }
            let v = match &row.occupant {
                Occupant::Live(vm) => {
                    let v = vm.sample(k);
                    self.sample_buf[vm.id] = v;
                    v
                }
                Occupant::Free | Occupant::Left(_) => 0.0,
            };
            row.window.push(v);
        }

        let dt = self.cfg.sample_dt_s;
        for s in 0..self.placement.server_count() {
            let members: &[usize] = &self.placement.servers()[s];
            if members.is_empty() {
                // A fully vacated server is powered off until re-used.
                continue;
            }
            if self.health[s].is_failed() {
                // Evacuation empties failed servers, so this arm is
                // normally unreachable — but a failed server draws no
                // power and can violate nothing, whatever its members
                // claim.
                continue;
            }
            let class = self.placement.classes()[s];
            let slot = &mut self.servers[s];
            let ladder = self.cfg.server_fleet.classes()[class].ladder();
            let agg: f64 = members.iter().map(|&v| self.sample_buf[v]).sum();

            if let DvfsMode::Dynamic { interval_samples } = self.cfg.dvfs_mode {
                if k_in_period > 0 && k_in_period.is_multiple_of(interval_samples) {
                    // Correlation-aware governors trust the measured
                    // *aggregate* peak; correlation-blind ones must
                    // assume per-VM peaks can coincide (Σ max ≥ max Σ).
                    let recent = if self.cfg.policy.correlation_aware_frequency() {
                        slot.window_max
                    } else {
                        members.iter().map(|&v| self.window_max_vm[v]).sum()
                    };
                    let f = self
                        .planner
                        .dynamic_level(class, recent, self.cfg.dynamic_headroom)
                        .map_err(SimError::Core)?;
                    slot.freq_idx = ladder.index_of(f).expect("planner returns ladder levels");
                    slot.window_max = 0.0;
                    for &v in members {
                        self.window_max_vm[v] = 0.0;
                    }
                }
                slot.window_max = slot.window_max.max(agg);
                for &v in members {
                    self.window_max_vm[v] = self.window_max_vm[v].max(self.sample_buf[v]);
                }
            }

            let f = ladder.get(slot.freq_idx).expect("index within ladder");
            let eff_capacity = slot.cores * f.ratio_to(ladder.max());
            if agg > eff_capacity + VIOLATION_EPS {
                slot.violations += 1;
                self.violation_instances += 1;
                self.class_violations[class] += 1;
                // A violation is what degrades QoS: arm the guard
                // check for the next tick (the period ratio cannot
                // rise between violations).
                if self.cfg.qos_guard.is_some() {
                    self.qos_armed = true;
                }
                sink.on_violation(&ViolationEvent {
                    sample: k,
                    period: self.period,
                    server: s,
                    class,
                    demand: agg,
                    capacity: eff_capacity,
                });
            }
            let u = (agg / eff_capacity).clamp(0.0, 1.0);
            let watts = self.cfg.server_fleet.classes()[class]
                .power_model()
                .power(u, f)
                .map_err(SimError::Power)?;
            self.class_energy[class].add(watts, dt);
            self.freq_histogram[s][self.union_level[class][slot.freq_idx]] += 1;
            self.class_freq_histogram[class][slot.freq_idx] += 1;
        }
        Ok(())
    }

    /// Observes the completed period for the next UPDATE, rebuilds the
    /// matrix from the period window, and emits the period's metrics.
    fn end_period(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        // ---- Observe this period for the next UPDATE.
        for row in &mut self.rows {
            if let Occupant::Live(vm) = &mut row.occupant {
                let peak = self
                    .cfg
                    .reference
                    .of(&row.window)
                    .map_err(SimError::Trace)?;
                vm.last_peak = Some(peak);
                let off = cavm_trace::percentile(&row.window, 90.0).map_err(SimError::Trace)?;
                vm.last_off = Some(off);
            }
        }

        // ---- Window replay into the next period's matrix, keyed by
        // the row table as it stands — in a session that will read a
        // pair cost out of it; a matrix-blind one keeps the empty
        // matrix `extend_matrix` made. The planes are re-used while
        // the row count holds; when it grew, the old matrix goes
        // before its successor is allocated.
        if !self.rows.is_empty() {
            if self.cfg.reads_pair_costs() {
                let occupants: Vec<Option<usize>> = self.rows.iter().map(Row::id).collect();
                let windows: Vec<&[f64]> = self.rows.iter().map(|r| r.window.as_slice()).collect();
                let rows = self.rows.len();
                let mut matrix = match self.matrix.take().filter(|m| m.rows() == rows) {
                    Some(matrix) => matrix,
                    None => CostMatrix::keyed(rows, self.cfg.reference).map_err(SimError::Core)?,
                };
                matrix
                    .fill(&occupants, self.ids.len(), &windows)
                    .map_err(SimError::Core)?;
                self.matrix = Some(matrix);
            }
            if matches!(self.cfg.policy, Policy::Pcp { .. }) {
                let mut kept = Vec::new();
                for row in &self.rows {
                    if let Some(id) = row.id() {
                        let window = TimeSeries::new(self.cfg.sample_dt_s, row.window.clone())
                            .map_err(SimError::Trace)?;
                        kept.push((id, window));
                    }
                }
                self.prev_window = Some(kept);
            }
            #[cfg(debug_assertions)]
            {
                self.oracle
                    .close(self.period_start, self.clock, self.ids.len(), &self.cfg);
                self.oracle.check(self, false);
            }
        }
        // The close is where rows turn over: every window starts the
        // next period empty, and a row whose VM left during this one
        // is free from here on.
        for (r, row) in self.rows.iter_mut().enumerate() {
            row.window.clear();
            if let Occupant::Left(_) = row.occupant {
                row.occupant = Occupant::Free;
                self.free_rows.push(r);
            }
        }

        // ---- Per-class peaks and the period record.
        for (class, peak) in self.class_peak_servers.iter_mut().enumerate() {
            let used = self
                .placement
                .servers()
                .iter()
                .zip(self.placement.classes())
                .filter(|(members, &c)| !members.is_empty() && c == class)
                .count();
            *peak = (*peak).max(used);
        }
        // Counters discarded by an off-cycle re-pack contribute
        // through the folded floor (0 when no re-pack happened).
        let record = PeriodRecord {
            period: self.period,
            servers_used: self.placement.active_server_count(),
            max_violation_ratio: self.worst_violation_ratio(),
            migrations: self.period_migrations,
            pcp_clusters: self.pcp_clusters,
        };
        sink.on_period(&record);
        for (c, meter) in self.class_energy.iter().enumerate() {
            sink.on_class_energy(
                self.period,
                c,
                self.cfg.server_fleet.classes()[c].name(),
                meter.joules() - self.period_class_joules_start[c],
            );
        }
        // ---- Overcommit margin feedback. Each class's controller
        // walks on the worst violation ratio its servers produced this
        // period, measured against the guard threshold. Degraded
        // periods are skipped: failure-inflated violations say nothing
        // about whether the correlation-gap bet was sound, and the
        // margins are already suspended while degraded.
        if !self.degraded() && self.cfg.period_samples > 0 {
            if let Some(ctls) = self.overcommit_ctl.as_mut() {
                let guard = self
                    .cfg
                    .qos_guard
                    .expect("validate(): overcommit requires a qos guard")
                    .violation_ratio;
                let mut worst = vec![self.period_ratio_floor; ctls.len()];
                for (slot, &class) in self.servers.iter().zip(self.placement.classes()) {
                    let ratio = slot.violations as f64 / self.cfg.period_samples as f64;
                    if ratio > worst[class] {
                        worst[class] = ratio;
                    }
                }
                for (class, ctl) in ctls.iter_mut().enumerate() {
                    ctl.observe_period(worst[class], guard);
                }
            }
        }
        self.period_records.push(record);
        self.period += 1;
        self.in_period = false;
        Ok(())
    }

    // ---- incremental admission --------------------------------------------

    /// Provisions the next fill-order server not consumed by the live
    /// placement (empty-but-reserved slots count as consumed) and
    /// returns its index — the one place the per-server tables grow.
    fn open_slot(&mut self) -> crate::Result<usize> {
        let fleet = &self.cfg.server_fleet;
        let mut used = vec![0usize; fleet.len()];
        for &c in self.placement.classes() {
            used[c] += 1;
        }
        let class = fleet
            .fill_order()
            .iter()
            .copied()
            .find(|&class| used[class] < fleet.classes()[class].count())
            .ok_or_else(|| {
                map_core(CoreError::FleetExhausted {
                    slots: self.total_slots,
                    unallocated: 1,
                })
            })?;
        self.servers.push(ServerSlot {
            cores: fleet.classes()[class].cores(),
            ..ServerSlot::default()
        });
        self.health.push(ServerHealth::Healthy);
        Ok(self.placement.open_server(class))
    }

    /// Rebuilds server `s`'s cost aggregate from its current members
    /// and re-plans its frequency — after an eviction, or when the
    /// matrix and predictions under a kept server changed.
    fn refresh_bin(&mut self, s: usize) -> crate::Result<()> {
        let mut agg = ServerCostAggregate::new();
        if let Some(matrix) = &self.matrix {
            for &id in &self.placement.servers()[s] {
                agg.push(id, self.dense_vms[id].demand, matrix);
            }
        }
        self.servers[s].agg = agg;
        self.replan_bin(s)
    }

    /// Evicts a placed VM from the live placement and refreshes the
    /// vacated server.
    fn evict_live(&mut self, id: usize) -> crate::Result<()> {
        let server = self.placement.evict(id).map_err(SimError::Core)?;
        self.refresh_bin(server)
    }

    /// Re-admits `(vm, origin)` pairs displaced by a healing move
    /// (guard split, boundary trim, evacuation) in id order through
    /// the policy's single-VM rule, never back onto their origin. Each
    /// landing is a migration, attributed to the destination's class
    /// and streamed. A VM no other server can host goes the way
    /// `unhosted` says. Returns the number of VMs that landed.
    fn readmit_displaced(
        &mut self,
        mut displaced: Vec<(usize, usize)>,
        unhosted: Unhosted,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<usize> {
        displaced.sort_unstable();
        let mut moved = 0usize;
        for (id, origin) in displaced {
            match (self.admit_slot(self.dense_vms[id], Some(origin)), unhosted) {
                (Ok(dest), _) => {
                    moved += 1;
                    self.class_migrations[self.placement.classes()[dest]] += 1;
                    sink.on_migration(self.period, id, origin, dest);
                }
                (Err(SimError::InsufficientServers { .. }), Unhosted::Defer) => self.defer(id)?,
                (Err(SimError::InsufficientServers { .. }), Unhosted::Restore) => {
                    // Not a migration: nothing moved, nothing is streamed.
                    self.placement.admit(id, origin).map_err(SimError::Core)?;
                    self.refresh_bin(origin)?;
                }
                (Err(e), _) => return Err(e),
            }
        }
        self.period_migrations += moved;
        Ok(moved)
    }

    /// Re-plans one server's static frequency level from its current
    /// members (after an admit or evict).
    fn replan_bin(&mut self, s: usize) -> crate::Result<()> {
        let members: &[usize] = &self.placement.servers()[s];
        if members.is_empty() {
            return Ok(());
        }
        let class = self.placement.classes()[s];
        let total: f64 = members.iter().map(|&id| self.dense_vms[id].demand).sum();
        let f = if self.cfg.policy.correlation_aware_frequency() {
            let matrix = self
                .matrix
                .as_ref()
                .expect("live servers imply a period matrix");
            let cost = server_cost_of(members, &self.dense_vms, matrix).max(1.0);
            self.planner
                .static_level_correlation_aware(class, total, cost)
                .map_err(SimError::Core)?
        } else {
            self.planner
                .static_level_worst_case(class, total)
                .map_err(SimError::Core)?
        };
        let ladder = self.cfg.server_fleet.classes()[class].ladder();
        self.servers[s].freq_idx = ladder.index_of(f).expect("planner returns ladder levels");
        Ok(())
    }

    /// Samples until the last member of `members` departs: `Some(k)`
    /// when every member's lease end is known, `None` when any member
    /// is open-ended — or when the server is empty (already drained,
    /// hence bias-neutral).
    fn drain_of(&self, members: &[usize]) -> Option<usize> {
        // An already-vacated (powered-off but reserved) slot is
        // drained: re-using it extends nothing, so it stays neutral
        // (`None`) and the no-lease-info path remains bit-identical
        // to the lease-blind rules.
        if members.is_empty() {
            return None;
        }
        let mut drain = 0usize;
        for &m in members {
            match self.lease_end[m] {
                None => return None,
                Some(end) => drain = drain.max(end.saturating_sub(self.clock)),
            }
        }
        Some(drain)
    }

    /// Admits the (already registered, live) VM described by `vm` into
    /// the live placement through the policy's single-VM entry point —
    /// no re-pack. Counts as an online admission and emits
    /// [`MetricSink::on_admit`]; healing moves use [`Self::admit_slot`]
    /// directly instead (a displaced member is a migration, not an
    /// arrival).
    fn admit_live(&mut self, vm: VmDescriptor, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let id = vm.id;
        let server = self.admit_slot(vm, None)?;
        self.online_admissions += 1;
        sink.on_admit(self.clock, id, server);
        Ok(())
    }

    /// [`Self::admit_live`], except that on a degraded fleet — short on
    /// capacity because servers failed — a VM nothing can host enters
    /// the deferred queue instead of failing the event.
    fn admit_or_defer(&mut self, vm: VmDescriptor, sink: &mut dyn MetricSink) -> crate::Result<()> {
        match self.admit_live(vm, sink) {
            Err(SimError::InsufficientServers { .. }) if self.degraded() => self.defer(vm.id),
            other => other,
        }
    }

    /// The placement half of an incremental admission: routes `vm`
    /// through the policy's `place_one` rule (opening a fresh
    /// fill-order server when nothing fits), pushes it into the chosen
    /// server's aggregate and re-plans that server's frequency. The
    /// arriving VM's remaining lease and each server's drain horizon
    /// feed the lease-aware bias. `origin` marks a healing move: the
    /// rule may not pick that server (re-admission would happily undo
    /// the eviction just made). Returns the chosen server; on error
    /// the placement is untouched.
    fn admit_slot(&mut self, vm: VmDescriptor, origin: Option<usize>) -> crate::Result<usize> {
        let id = vm.id;
        self.dense_vms[id] = vm;
        if self.matrix.is_none() {
            self.extend_matrix(self.ids.len())?;
        }
        let lease = self.lease_end[id].map(|end| end.saturating_sub(self.clock));

        // Healing moves (guard splits, boundary trims, evacuations)
        // place at plain capacity — margin 0. A VM being moved *off*
        // an overloaded server must not land on another one's
        // overcommit bet.
        let healing = origin.is_some();
        let choice = {
            let matrix = self.matrix.as_ref().expect("ensured above");
            let candidates: Vec<usize> = (0..self.servers.len())
                .filter(|&s| origin != Some(s))
                .collect();
            let drains: Vec<Option<usize>> = candidates
                .iter()
                .map(|&s| self.drain_of(&self.placement.servers()[s]))
                .collect();
            let views: Vec<OpenServer<'_>> = candidates
                .iter()
                .zip(&drains)
                .map(|(&s, &drain_samples)| {
                    let class = self.placement.classes()[s];
                    OpenServer {
                        class,
                        cores: self.servers[s].cores,
                        watts_per_core: self.class_wpc[class],
                        drain_samples,
                        agg: &self.servers[s].agg,
                        healthy: !self.health[s].is_failed(),
                        overcommit_margin: if healing { 0.0 } else { self.margin_of(s) },
                    }
                })
                .collect();
            admit_choice(self.cfg.policy, &vm, lease, &views, matrix).map(|i| candidates[i])
        };
        let server = match choice {
            Some(s) => s,
            None => self.open_slot()?,
        };
        self.placement.admit(id, server).map_err(SimError::Core)?;
        let matrix = self.matrix.as_ref().expect("ensured above");
        self.servers[server].agg.push(id, vm.demand, matrix);
        self.replan_bin(server)?;
        Ok(server)
    }
}

/// What [`DatacenterController::readmit_displaced`] does with a
/// displaced VM that no server other than its origin can host.
#[derive(Debug, Clone, Copy)]
enum Unhosted {
    /// Fail the pass with [`SimError::InsufficientServers`].
    Fail,
    /// Queue it for deferred admission (a degraded fleet is short on
    /// capacity until servers recover).
    Defer,
    /// Put it back on its origin and refresh that server's aggregate
    /// and frequency plan: the move was optional.
    Restore,
}

/// Routes a single-VM admission to the policy's `place_one` rule. PCP
/// and SuperVM consolidate per period only; between re-packs their
/// arrivals use the default best-fit rule (spelled through `BfdPolicy`,
/// whose inherited default it is). Every rule receives the arriving
/// VM's remaining lease for the drain-aware bias.
fn admit_choice(
    policy: Policy,
    vm: &VmDescriptor,
    lease: Option<usize>,
    servers: &[OpenServer<'_>],
    matrix: &CostMatrix,
) -> Option<usize> {
    match policy {
        Policy::Proposed(config) => ProposedPolicy::new(config)
            .expect("controller construction validates the proposed config")
            .place_one(vm, lease, servers, matrix),
        Policy::Ffd => FfdPolicy.place_one(vm, lease, servers, matrix),
        Policy::Bfd | Policy::Pcp { .. } | Policy::SuperVm { .. } => {
            BfdPolicy.place_one(vm, lease, servers, matrix)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavm_trace::Reference;

    /// Regression for the decay-streak bug: a zero-migration re-pack
    /// carries no cost signal, so it must leave an in-progress miss
    /// streak untouched. The broken `observe` cleared `misses` before
    /// its `migrations == 0` early return, letting a cost-free re-pack
    /// indefinitely postpone the slack decay.
    #[test]
    fn cost_free_repack_does_not_interrupt_miss_streak() {
        let mut ctl = SlackController::new(1, 3);
        ctl.observe(1, 8); // expensive: slack 1 -> 2
        assert_eq!(ctl.current(), 2);
        ctl.observe_miss(1); // streak 1 of MISS_STREAK=2
        ctl.observe(0, 0); // cost-free re-pack: no signal
        ctl.observe_miss(1); // streak completes -> decay
        assert_eq!(
            ctl.current(),
            1,
            "a zero-migration observe must not reset the miss streak"
        );
    }

    /// A priced observation (migrations > 0) legitimately resets the
    /// streak — only the cost-free case was the bug.
    #[test]
    fn priced_repack_still_resets_miss_streak() {
        let mut ctl = SlackController::new(1, 3);
        ctl.observe(1, 8); // slack 1 -> 2
        ctl.observe_miss(1); // streak 1
        ctl.observe(1, 3); // priced, mid-band: holds slack, resets streak
        ctl.observe_miss(1); // streak 1 again, not 2
        assert_eq!(ctl.current(), 2, "a priced observe must reset the streak");
        ctl.observe_miss(1);
        assert_eq!(ctl.current(), 1);
    }

    #[test]
    fn overcommit_controller_walks_within_bounds() {
        let guard = 0.05;
        let mut ctl = OvercommitController::new(0.0, 0.10);
        // Comfortable periods grow the margin in STEP increments after
        // RAISE_STREAK, never past the ceiling.
        for _ in 0..20 {
            ctl.observe_period(0.0, guard);
            assert!(ctl.current() <= ctl.max() + 1e-12);
            assert!(ctl.current() >= 0.0);
        }
        assert!(
            (ctl.current() - 0.10).abs() < 1e-9,
            "sustained headroom reaches the ceiling"
        );
        // A breach shrinks immediately.
        ctl.observe_period(0.20, guard);
        assert!((ctl.current() - 0.05).abs() < 1e-9);
        // Middle band (acceptable but not comfortable) holds.
        ctl.observe_period(0.04, guard);
        assert!((ctl.current() - 0.05).abs() < 1e-9);
        // And the middle band resets the raise streak: one comfortable
        // period after it must not grow yet.
        ctl.observe_period(0.0, guard);
        assert!((ctl.current() - 0.05).abs() < 1e-9);
        ctl.observe_period(0.0, guard);
        assert!((ctl.current() - 0.10).abs() < 1e-9);
        // Repeated breaches floor at zero.
        for _ in 0..5 {
            ctl.observe_period(0.9, guard);
        }
        assert_eq!(ctl.current(), 0.0);
    }

    fn config_with(
        overcommit: Option<OvercommitConfig>,
        guard: Option<QosGuard>,
    ) -> ControllerConfig {
        ControllerConfig {
            server_fleet: cavm_core::fleet::ServerFleet::uniform(
                8,
                8.0,
                cavm_power::LinearPowerModel::xeon_e5410(),
            )
            .unwrap(),
            policy: Policy::Proposed(Default::default()),
            repack_trigger: RepackTrigger::Periodic,
            qos_guard: guard,
            adaptive_slack_max: None,
            overcommit,
            dvfs_mode: DvfsMode::Static,
            period_samples: 16,
            reference: Reference::Peak,
            dynamic_headroom: 0.1,
            default_demand: 1.0,
            sample_dt_s: 5.0,
            max_deferred: 64,
        }
    }

    /// `fork()` copies no sample buffer: the fork's registered traces
    /// are the parent's, by address.
    #[test]
    fn fork_aliases_the_registered_traces() {
        let mut ctl = DatacenterController::new(config_with(None, None)).unwrap();
        for id in 0..3 {
            let trace = TimeSeries::constant(5.0, 64, 1.0 + id as f64).unwrap();
            ctl.arrive(id, trace, None, &mut NullSink).unwrap();
        }
        for _ in 0..20 {
            ctl.tick(&mut NullSink).unwrap();
        }
        let samples = |c: &DatacenterController| -> Vec<*const f64> {
            (0..3)
                .map(|id| c.live_slot(id).unwrap().trace.values().as_ptr())
                .collect()
        };
        assert_eq!(samples(&ctl), samples(&ctl.fork()));
    }

    /// A session whose policy reads no pair cost never calls
    /// `CostMatrix::fill`: periods close over occupied rows and the
    /// matrix still holds no sample. The proposed policy, driven the
    /// same way, has replayed its last window.
    #[test]
    fn blind_sessions_never_fill_the_period_matrix() {
        let pcp = Policy::Pcp {
            envelope_percentile: 90.0,
            affinity_threshold: 0.2,
        };
        for (policy, fills) in [
            (Policy::Bfd, false),
            (Policy::Ffd, false),
            (pcp, false),
            (Policy::Proposed(Default::default()), true),
        ] {
            let mut cfg = config_with(None, None);
            cfg.policy = policy;
            let mut ctl = DatacenterController::new(cfg).unwrap();
            for id in 0..3 {
                let trace = TimeSeries::constant(5.0, 64, 1.0 + id as f64).unwrap();
                ctl.arrive(id, trace, None, &mut NullSink).unwrap();
            }
            // Two closes of the 16-sample period, then mid-period.
            for _ in 0..40 {
                ctl.tick(&mut NullSink).unwrap();
            }
            assert_eq!(ctl.period_rows(), 3);
            let matrix = ctl.matrix.as_ref().expect("placed sessions have one");
            assert_eq!(matrix.len(), 3, "{}: id bound", policy.name());
            let expected = if fills { 16 } else { 0 };
            assert_eq!(matrix.samples(), expected, "{}", policy.name());
        }
    }

    #[test]
    fn overcommit_config_validation() {
        let guard = Some(QosGuard {
            violation_ratio: 0.05,
        });
        let oc = |margin, max_margin| Some(OvercommitConfig { margin, max_margin });

        config_with(oc(0.0, 0.25), guard)
            .validate()
            .expect("margin 0 with a guard is valid");
        assert!(
            config_with(oc(0.0, 0.25), None).validate().is_err(),
            "overcommit requires the guard"
        );
        assert!(
            config_with(oc(0.0, 0.0), guard).validate().is_err(),
            "max_margin must be positive"
        );
        assert!(
            config_with(oc(0.5, 0.25), guard).validate().is_err(),
            "margin must not exceed max_margin"
        );
    }
}
