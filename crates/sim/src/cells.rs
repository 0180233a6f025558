//! Sharded placement cells — the controller that breaks the O(n²)
//! correlation wall.
//!
//! The flat [`DatacenterController`] keeps one dense
//! [`CostMatrix`](cavm_core::corr::CostMatrix) over every VM id it has
//! ever seen, so every monitoring tick costs O(n²) pair updates — 13 ms
//! per tick at n = 4096 and unusable at 100k VMs. [`ShardedController`]
//! shards the datacenter into **placement cells**: each cell owns a
//! slice of the server fleet (`partition_fleet`) and runs its *own*
//! flat controller over only its residents, so the per-tick cost drops
//! to O(Σ cellᵢ²) — a `cells`-fold reduction at equal occupancy.
//!
//! Arrivals are steered between cells by a constant-size
//! [`MomentSketch`] router rather than any dense structure: each VM is
//! summarized at arrival into running moments plus an 8-bucket phase
//! envelope, and the router picks the feasible cell whose projected
//! **worst-phase aggregate** grows the least — the cheap streaming
//! analogue of Eqn (1)'s "don't co-locate VMs that peak together" —
//! in O(cells) time.
//!
//! # Exactness
//!
//! Inside a cell nothing is approximated: members are placed, DVFS'd
//! and accounted by the unmodified flat controller with exact Eqn
//! (1)/(2) quantities. The approximation is confined to the routing
//! boundary (pair costs *between* cells are never materialized). The
//! degenerate `cells = 1` configuration bypasses the router entirely
//! and delegates every call verbatim to one flat controller —
//! bit-identical by construction, pinned by the `controller_invariants`
//! equivalence property tests.
//!
//! # Observer semantics
//!
//! With `cells = 1` the sink sees exactly the flat event stream. With
//! `cells > 1` per-event callbacks are translated to global ids (VM
//! ids, server indices offset by the cell's slot range, class indices
//! mapped back to the global fleet's) and forwarded;
//! [`MetricSink::on_period`] fires once per **cell** per
//! period (records are cell-local), and only the sharded session's own
//! [`MetricSink::on_summary`] fires — with the merged fleet-wide
//! report.
//!
//! # Example
//!
//! ```
//! use cavm_core::fleet::ServerFleet;
//! use cavm_power::LinearPowerModel;
//! use cavm_sim::cells::ShardedController;
//! use cavm_sim::{ControllerConfig, NullSink, Policy};
//! use cavm_core::dvfs::DvfsMode;
//! use cavm_trace::{Reference, TimeSeries};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ControllerConfig {
//!     server_fleet: ServerFleet::uniform(8, 8.0, LinearPowerModel::xeon_e5410())?,
//!     policy: Policy::Proposed(Default::default()),
//!     repack_trigger: Default::default(),
//!     qos_guard: None,
//!     adaptive_slack_max: None,
//!     overcommit: None,
//!     dvfs_mode: DvfsMode::Static,
//!     period_samples: 16,
//!     reference: Reference::Peak,
//!     dynamic_headroom: 0.1,
//!     default_demand: 1.0,
//!     sample_dt_s: 5.0,
//!     max_deferred: 64,
//! };
//! let mut sink = NullSink;
//! let mut dc = ShardedController::new(cfg, 2)?;
//! for id in 0..6 {
//!     let trace = TimeSeries::constant(5.0, 32, 1.0 + id as f64 * 0.2)?;
//!     dc.arrive(id, trace, None, &mut sink)?;
//! }
//! for _ in 0..16 {
//!     dc.tick(&mut sink)?;
//! }
//! assert_eq!(dc.live_vms(), 6);
//! dc.finish(&mut sink)?;
//! # Ok(())
//! # }
//! ```

use crate::controller::{
    union_ladder_ghz, ControllerConfig, DatacenterController, MetricSink, RepackEvent,
    ViolationEvent, VmEvent,
};
use crate::error::SimError;
use crate::report::{violation_percents, ClassBreakdown, PeriodRecord, SimReport};
use cavm_core::fleet::{ServerClass, ServerFleet, UNBOUNDED};
use cavm_power::EnergyMeter;
use cavm_trace::{MomentSketch, TimeSeries, PHASE_BUCKETS};

/// One cell's slice of a partitioned [`ServerFleet`]: the hardware the
/// cell controls plus the mapping from its local class indices back to
/// the global fleet's.
#[derive(Debug)]
struct CellSubfleet {
    /// The cell's own (bounded) server fleet.
    fleet: ServerFleet,
    /// `class_map[local]` = global class index in the parent fleet.
    class_map: Vec<usize>,
}

/// Splits a bounded [`ServerFleet`] into `n_cells` sub-fleets,
/// class by class: each class's `count` is divided evenly, and the
/// remainders rotate across cells so capacity stays balanced. Classes
/// whose share in a cell is zero are omitted from that cell's fleet
/// (a [`ServerClass`] cannot be empty), which is why each sub-fleet
/// carries a `class_map` back to global class indices.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for zero cells, an unbounded
/// fleet, or more cells than servers (every cell must own at least one
/// server).
fn partition_fleet(fleet: &ServerFleet, n_cells: usize) -> crate::Result<Vec<CellSubfleet>> {
    if n_cells == 0 {
        return Err(SimError::InvalidParameter(
            "fleet partition needs at least one cell",
        ));
    }
    let slots = fleet.total_slots().ok_or(SimError::InvalidParameter(
        "cannot partition an unbounded fleet into cells",
    ))?;
    if slots < n_cells {
        return Err(SimError::InvalidParameter(
            "fleet partition needs at least one server per cell",
        ));
    }
    let mut shares = vec![Vec::<(usize, usize)>::new(); n_cells]; // (global class, count)
    let mut rotation = 0usize;
    for (gi, class) in fleet.classes().iter().enumerate() {
        debug_assert_ne!(class.count(), UNBOUNDED);
        let base = class.count() / n_cells;
        let rem = class.count() % n_cells;
        for (c, share) in shares.iter_mut().enumerate() {
            let extra = usize::from((c + n_cells - rotation % n_cells) % n_cells < rem);
            let count = base + extra;
            if count > 0 {
                share.push((gi, count));
            }
        }
        rotation += rem;
    }
    shares
        .into_iter()
        .map(|share| {
            let mut classes = Vec::with_capacity(share.len());
            let mut class_map = Vec::with_capacity(share.len());
            for (gi, count) in share {
                let class = &fleet.classes()[gi];
                classes.push(ServerClass::new(
                    class.name(),
                    count,
                    class.cores(),
                    class.power_model().clone(),
                )?);
                class_map.push(gi);
            }
            Ok(CellSubfleet {
                fleet: ServerFleet::new(classes)?,
                class_map,
            })
        })
        .collect()
}

/// Where a global VM currently lives (or lived) in the shard layout.
#[derive(Debug, Clone)]
struct RouteEntry {
    /// The cell the VM was routed to.
    cell: usize,
    /// The VM's id inside that cell's flat controller.
    local: usize,
    /// The sketch's phase envelope, subtracted from the cell's
    /// aggregate at departure.
    profile: [f64; PHASE_BUCKETS],
    /// Reference demand charged against the cell's capacity.
    ref_demand: f64,
    /// `false` once departed (the entry stays — departed global ids
    /// must never re-arrive, matching the flat controller).
    live: bool,
}

/// Per-cell sink adapter: rewrites cell-local identifiers into the
/// global namespace before forwarding, and swallows the inner
/// controller's summary (the sharded session emits its own merged
/// one).
struct CellSink<'a> {
    outer: &'a mut dyn MetricSink,
    server_offset: usize,
    class_map: &'a [usize],
    global_of: &'a [usize],
}

impl CellSink<'_> {
    fn vm(&self, local: usize) -> usize {
        self.global_of.get(local).copied().unwrap_or(local)
    }
}

impl MetricSink for CellSink<'_> {
    fn on_period(&mut self, record: &PeriodRecord) {
        self.outer.on_period(record);
    }

    fn on_repack(&mut self, event: &RepackEvent) {
        self.outer.on_repack(event);
    }

    fn on_migration(&mut self, period: usize, vm: usize, from: usize, to: usize) {
        self.outer.on_migration(
            period,
            self.vm(vm),
            from + self.server_offset,
            to + self.server_offset,
        );
    }

    fn on_violation(&mut self, event: &ViolationEvent) {
        let mut event = *event;
        event.server += self.server_offset;
        event.class = self
            .class_map
            .get(event.class)
            .copied()
            .unwrap_or(event.class);
        self.outer.on_violation(&event);
    }

    fn on_class_energy(&mut self, period: usize, class: usize, name: &str, period_joules: f64) {
        let class = self.class_map.get(class).copied().unwrap_or(class);
        self.outer
            .on_class_energy(period, class, name, period_joules);
    }

    fn on_admit(&mut self, sample: usize, vm: usize, server: usize) {
        self.outer
            .on_admit(sample, self.vm(vm), server + self.server_offset);
    }

    fn on_server_fail(&mut self, sample: usize, server: usize, residents: usize) {
        self.outer
            .on_server_fail(sample, server + self.server_offset, residents);
    }

    fn on_server_recover(&mut self, sample: usize, server: usize) {
        self.outer
            .on_server_recover(sample, server + self.server_offset);
    }

    fn on_summary(&mut self, _report: &SimReport) {
        // The sharded session emits the merged summary itself.
    }
}

/// The sharded datacenter session: one flat [`DatacenterController`]
/// per placement cell plus an O(cells) sketch router in front. See the
/// [module docs](self).
///
/// Like the flat controller the whole session is `Clone`-able:
/// [`fork`](Self::fork) copies **cell-wise**
/// (each cell's flat controller clones independently, plus the O(cells)
/// routing tables), so a fork of a 256-cell session costs the sum of
/// 256 small per-cell clones — each a matrix over that cell's period
/// rows, no trace copied — never a fleet-wide dense matrix.
#[derive(Debug, Clone)]
pub struct ShardedController {
    inner: Vec<DatacenterController>,
    /// `class_maps[cell][local_class]` → global class index.
    class_maps: Vec<Vec<usize>>,
    /// `server_offsets[cell]` = first global server index of the cell
    /// (prefix sums of the sub-fleet slot counts).
    server_offsets: Vec<usize>,
    /// `global_of[cell][local_vm]` → global VM id.
    global_of: Vec<Vec<usize>>,
    /// Routing table by global VM id.
    route: Vec<Option<RouteEntry>>,
    /// Per-cell aggregate phase envelope of live residents.
    phase_load: Vec<[f64; PHASE_BUCKETS]>,
    /// Per-cell aggregate reference demand of live residents.
    ref_load: Vec<f64>,
    /// Per-cell total core capacity.
    capacity: Vec<f64>,
    /// Global union frequency axis (sorted GHz) for the merged report.
    union_ghz: Vec<f64>,
    total_slots: usize,
    period_samples: usize,
    policy_name: String,
    dynamic_dvfs: bool,
    base_classes: Vec<(String, f64, usize, Vec<f64>)>,
    clock: usize,
    finished: bool,
}

impl ShardedController {
    /// Opens a sharded session over `cells` placement cells. The
    /// fleet in `base` is the **global** fleet; it is partitioned
    /// class-by-class across the cells, each class's servers split
    /// evenly with the remainders rotating so every cell gets hardware.
    ///
    /// `cells = 1` is the degenerate flat configuration: every call
    /// delegates verbatim to one [`DatacenterController`] over the
    /// whole fleet (bit-identical, including the sink event stream).
    ///
    /// # Errors
    ///
    /// Propagates [`DatacenterController::new`] validation, and returns
    /// [`SimError::InvalidParameter`] for zero cells, an unbounded
    /// fleet, or more cells than servers.
    pub fn new(base: ControllerConfig, cells: usize) -> crate::Result<Self> {
        let union_ghz = union_ladder_ghz(&base.server_fleet);
        let base_classes: Vec<(String, f64, usize, Vec<f64>)> = base
            .server_fleet
            .classes()
            .iter()
            .map(|c| {
                (
                    c.name().to_string(),
                    c.cores(),
                    c.count(),
                    c.ladder().levels().iter().map(|f| f.as_ghz()).collect(),
                )
            })
            .collect();
        let policy_name = base.policy.name().to_string();
        let dynamic_dvfs = matches!(base.dvfs_mode, cavm_core::dvfs::DvfsMode::Dynamic { .. });
        let period_samples = base.period_samples;

        let (inner, class_maps, server_offsets, capacity) = if cells == 1 {
            // Degenerate flat path: one controller over the untouched
            // global fleet, no routing layer at all.
            let capacity = base.server_fleet.total_cores().unwrap_or(f64::INFINITY);
            let n_classes = base.server_fleet.len();
            let ctl = DatacenterController::new(base)?;
            (
                vec![ctl],
                vec![(0..n_classes).collect()],
                vec![0],
                vec![capacity],
            )
        } else {
            let parts = partition_fleet(&base.server_fleet, cells)?;
            let mut inner = Vec::with_capacity(cells);
            let mut class_maps = Vec::with_capacity(cells);
            let mut server_offsets = Vec::with_capacity(cells);
            let mut capacity = Vec::with_capacity(cells);
            let mut offset = 0usize;
            for CellSubfleet { fleet, class_map } in parts {
                server_offsets.push(offset);
                offset += fleet
                    .total_slots()
                    .expect("partitioned sub-fleets are bounded");
                capacity.push(
                    fleet
                        .total_cores()
                        .expect("partitioned sub-fleets are bounded"),
                );
                let mut cfg = base.clone();
                cfg.server_fleet = fleet;
                inner.push(DatacenterController::new(cfg)?);
                class_maps.push(class_map);
            }
            (inner, class_maps, server_offsets, capacity)
        };
        let n_cells = inner.len();
        let total_slots = base_classes.iter().map(|(_, _, count, _)| *count).sum();
        Ok(Self {
            inner,
            class_maps,
            server_offsets,
            global_of: vec![Vec::new(); n_cells],
            route: Vec::new(),
            phase_load: vec![[0.0; PHASE_BUCKETS]; n_cells],
            ref_load: vec![0.0; n_cells],
            capacity,
            union_ghz,
            total_slots,
            period_samples,
            policy_name,
            dynamic_dvfs,
            base_classes,
            clock: 0,
            finished: false,
        })
    }

    /// Number of placement cells.
    pub fn cells(&self) -> usize {
        self.inner.len()
    }

    /// Global sample index of the next tick.
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// Currently live VMs across every cell.
    pub fn live_vms(&self) -> usize {
        self.inner.iter().map(DatacenterController::live_vms).sum()
    }

    /// VMs held in the cells' deferred-admission queues.
    pub fn deferred_vms(&self) -> usize {
        self.inner
            .iter()
            .map(DatacenterController::deferred_vms)
            .sum()
    }

    /// The cell a live or departed global VM was routed to, or `None`
    /// for an id this session never admitted. In the degenerate
    /// `cells = 1` configuration the router is bypassed and every
    /// admitted id reports cell 0.
    pub fn cell_of_vm(&self, id: usize) -> Option<usize> {
        if self.inner.len() == 1 {
            return self.inner[0].is_registered(id).then_some(0);
        }
        self.route.get(id).and_then(|r| r.as_ref()).map(|r| r.cell)
    }

    /// Live VM count of each cell, for balance inspection.
    pub fn cell_populations(&self) -> Vec<usize> {
        self.inner
            .iter()
            .map(DatacenterController::live_vms)
            .collect()
    }

    /// Applies one lifecycle event — the sharded analogue of
    /// [`DatacenterController::apply`].
    ///
    /// # Errors
    ///
    /// As [`DatacenterController::apply`]; routing adds no new error
    /// conditions.
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

    /// Routes an arriving VM to a cell and admits it there.
    ///
    /// The router sketches the trace ([`MomentSketch`], phase bucket =
    /// one placement period) and picks the cell minimizing the
    /// projected worst-phase aggregate — among cells whose reference
    /// load still fits their capacity, falling back to all cells when
    /// none fits (the receiving cell then defers or errors exactly as
    /// a flat controller would). Ties break toward the most free
    /// capacity, then the lowest cell index.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::arrive`].
    pub fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease_samples: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        self.check_open()?;
        if self.inner.len() == 1 {
            return self.inner[0].arrive(id, trace, lease_samples, sink);
        }
        if self.route.get(id).is_some_and(Option::is_some) {
            return Err(SimError::DuplicateVm { id });
        }
        let sketch = MomentSketch::from_series(&trace, self.clock, self.period_samples)
            .map_err(SimError::Trace)?;
        let reference = self.inner[0].config().reference;
        let ref_demand = sketch.reference(reference);
        let profile = sketch.phase_profile();
        let cell = self.route_to_cell(ref_demand, &profile);

        // The cell may admit on the spot and say so through the sink:
        // the local → global translation must already know this VM.
        let local = self.global_of[cell].len();
        self.global_of[cell].push(id);
        let (ctl, mut cell_sink) = self.cell_mut(cell, sink);
        if let Err(refused) = ctl.arrive(local, trace, lease_samples, &mut cell_sink) {
            // The cell rolled the local id back; so does the router.
            self.global_of[cell].pop();
            return Err(refused);
        }
        if self.route.len() <= id {
            self.route.resize_with(id + 1, || None);
        }
        self.route[id] = Some(RouteEntry {
            cell,
            local,
            profile,
            ref_demand,
            live: true,
        });
        for (slot, p) in self.phase_load[cell].iter_mut().zip(profile) {
            *slot += p;
        }
        self.ref_load[cell] += ref_demand;
        Ok(())
    }

    /// The O(cells) routing decision. Score = projected worst-phase
    /// aggregate after adding the VM's envelope.
    ///
    /// Feasibility is deliberately *plain-capacity* even when the
    /// per-cell controllers run a deliberate-overcommit margin: the
    /// margin is an intra-cell, per-server bet priced by exact Eqn (2)
    /// pair costs, which the sketch router does not have. Inflating
    /// the phase-bucket feasibility by the margin as well would count
    /// the same headroom twice (router capacity × (1 + m), then server
    /// capacity × (1 + m) again inside the cell). Cells admit past
    /// their router budget on their own margin only through the
    /// infeasible-fallback path below, exactly as a full flat fleet
    /// would.
    fn route_to_cell(&self, ref_demand: f64, profile: &[f64; PHASE_BUCKETS]) -> usize {
        let score = |c: usize| -> f64 {
            self.phase_load[c]
                .iter()
                .zip(profile)
                .map(|(have, add)| have + add)
                .fold(0.0f64, f64::max)
        };
        let free = |c: usize| self.capacity[c] - self.ref_load[c];
        let feasible = |c: usize| self.ref_load[c] + ref_demand <= self.capacity[c];
        let pick = |candidates: &mut dyn Iterator<Item = usize>| -> Option<usize> {
            let mut best: Option<(usize, f64, f64)> = None;
            for c in candidates {
                let s = score(c);
                let f = free(c);
                let better = match best {
                    None => true,
                    Some((_, bs, bf)) => s < bs || (s == bs && f > bf),
                };
                if better {
                    best = Some((c, s, f));
                }
            }
            best.map(|(c, _, _)| c)
        };
        pick(&mut (0..self.inner.len()).filter(|&c| feasible(c)))
            .or_else(|| pick(&mut (0..self.inner.len())))
            .unwrap_or(0)
    }

    /// Ends a VM's lease in its cell.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::depart`].
    pub fn depart(&mut self, id: usize) -> crate::Result<()> {
        self.check_open()?;
        if self.inner.len() == 1 {
            return self.inner[0].depart(id);
        }
        let entry = self
            .route
            .get_mut(id)
            .and_then(Option::as_mut)
            .ok_or(SimError::UnknownVm { id })?;
        if !entry.live {
            return Err(SimError::VmAlreadyDeparted { id });
        }
        let (cell, local, profile, ref_demand) =
            (entry.cell, entry.local, entry.profile, entry.ref_demand);
        self.inner[cell].depart(local)?;
        let entry = self.route[id].as_mut().expect("checked above");
        entry.live = false;
        for (slot, p) in self.phase_load[cell].iter_mut().zip(profile) {
            *slot -= p;
        }
        self.ref_load[cell] -= ref_demand;
        Ok(())
    }

    /// Advances one monitoring sample in every cell.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::tick`].
    pub fn tick(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        if self.inner.len() == 1 {
            self.clock += 1;
            return self.inner[0].tick(sink);
        }
        for cell in 0..self.inner.len() {
            let (ctl, mut cell_sink) = self.cell_mut(cell, sink);
            ctl.tick(&mut cell_sink)?;
        }
        self.clock += 1;
        Ok(())
    }

    /// Fails a server by its **global** index (cells occupy contiguous
    /// slot ranges in partition order).
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::server_fail`];
    /// [`SimError::UnknownServer`] for an index outside the global
    /// fleet.
    pub fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        if self.inner.len() == 1 {
            return self.inner[0].server_fail(server, sink);
        }
        let (cell, local) = self.locate_server(server)?;
        let (ctl, mut cell_sink) = self.cell_mut(cell, sink);
        let result = ctl.server_fail(local, &mut cell_sink);
        result.map_err(|e| self.globalize_server_error(cell, e))
    }

    /// Recovers a failed server by its **global** index.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::server_recover`].
    pub fn server_recover(
        &mut self,
        server: usize,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        self.check_open()?;
        if self.inner.len() == 1 {
            return self.inner[0].server_recover(server, sink);
        }
        let (cell, local) = self.locate_server(server)?;
        let (ctl, mut cell_sink) = self.cell_mut(cell, sink);
        let result = ctl.server_recover(local, &mut cell_sink);
        result.map_err(|e| self.globalize_server_error(cell, e))
    }

    /// One cell's controller together with the sink adapter that
    /// translates its events into the global namespace.
    fn cell_mut<'a>(
        &'a mut self,
        cell: usize,
        outer: &'a mut dyn MetricSink,
    ) -> (&'a mut DatacenterController, CellSink<'a>) {
        let cell_sink = CellSink {
            outer,
            server_offset: self.server_offsets[cell],
            class_map: &self.class_maps[cell],
            global_of: &self.global_of[cell],
        };
        (&mut self.inner[cell], cell_sink)
    }

    /// Servers currently provisioned across every cell — what
    /// [`SimError::UnknownServer`] reports, as the flat controller does.
    fn provisioned_servers(&self) -> usize {
        self.inner
            .iter()
            .map(|c| c.placement().server_count())
            .sum()
    }

    /// Re-bases a cell's server-health error into the global namespace:
    /// the server index by the cell's slot offset, and the provisioned
    /// count to the fleet-wide one.
    fn globalize_server_error(&self, cell: usize, error: SimError) -> SimError {
        let offset = self.server_offsets[cell];
        match error {
            SimError::UnknownServer { server, .. } => SimError::UnknownServer {
                server: server + offset,
                servers: self.provisioned_servers(),
            },
            SimError::ServerAlreadyFailed { server } => SimError::ServerAlreadyFailed {
                server: server + offset,
            },
            SimError::ServerNotFailed { server } => SimError::ServerNotFailed {
                server: server + offset,
            },
            other => other,
        }
    }

    fn locate_server(&self, server: usize) -> crate::Result<(usize, usize)> {
        if server >= self.total_slots {
            return Err(SimError::UnknownServer {
                server,
                servers: self.provisioned_servers(),
            });
        }
        let cell = match self.server_offsets.binary_search(&server) {
            Ok(c) => c,
            Err(insert) => insert - 1,
        };
        Ok((cell, server - self.server_offsets[cell]))
    }

    /// Ends the session: finishes every cell (their summaries are
    /// swallowed) and emits one merged [`MetricSink::on_summary`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SessionFinished`] if already finished.
    pub fn finish(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        if self.inner.len() == 1 {
            self.finished = true;
            return self.inner[0].finish(sink);
        }
        for cell in 0..self.inner.len() {
            let (ctl, mut cell_sink) = self.cell_mut(cell, sink);
            ctl.finish(&mut cell_sink)?;
        }
        self.finished = true;
        sink.on_summary(&self.report());
        Ok(())
    }

    /// The fleet-wide aggregate. With one cell this is exactly the
    /// flat controller's report; with several it merges the per-cell
    /// reports into the global namespace: per-period rows are summed
    /// across cells (violation ratios take the worst cell), class
    /// rows merge through each cell's class map, per-server frequency
    /// histograms land at the cell's global slot offset, and scalar
    /// counters add up. `peak_servers_used` and `deferred_peak` sum
    /// per-cell peaks, an upper bound on the true simultaneous global
    /// peak.
    pub fn report(&self) -> SimReport {
        if self.inner.len() == 1 {
            return self.inner[0].report();
        }
        let reports: Vec<SimReport> = self
            .inner
            .iter()
            .map(DatacenterController::report)
            .collect();

        // ---- periods: index-aligned merge (ticks are synchronized).
        let n_periods = reports.iter().map(|r| r.periods.len()).max().unwrap_or(0);
        let mut periods = Vec::with_capacity(n_periods);
        for p in 0..n_periods {
            let rows = reports.iter().filter_map(|r| r.periods.get(p));
            let mut merged = PeriodRecord {
                period: p,
                servers_used: 0,
                max_violation_ratio: 0.0,
                migrations: 0,
                pcp_clusters: None,
            };
            for row in rows {
                merged.servers_used += row.servers_used;
                merged.max_violation_ratio =
                    merged.max_violation_ratio.max(row.max_violation_ratio);
                merged.migrations += row.migrations;
                if let Some(k) = row.pcp_clusters {
                    merged.pcp_clusters = Some(merged.pcp_clusters.unwrap_or(0) + k);
                }
            }
            periods.push(merged);
        }
        let (max_violation_percent, mean_violation_percent) = violation_percents(&periods);

        // ---- classes: merge through each cell's class map.
        let mut classes: Vec<ClassBreakdown> = self
            .base_classes
            .iter()
            .map(|(name, cores, count, levels)| ClassBreakdown {
                name: name.clone(),
                cores: *cores,
                servers_available: *count,
                peak_servers_used: 0,
                energy: EnergyMeter::new(),
                violation_instances: 0,
                migrations_in: 0,
                freq_levels_ghz: levels.clone(),
                freq_histogram: vec![0; levels.len()],
            })
            .collect();
        for (cell, report) in reports.iter().enumerate() {
            for (local, row) in report.classes.iter().enumerate() {
                let class = &mut classes[self.class_maps[cell][local]];
                class.peak_servers_used += row.peak_servers_used;
                class.energy.merge(&row.energy);
                class.violation_instances += row.violation_instances;
                class.migrations_in += row.migrations_in;
                for (slot, count) in class.freq_histogram.iter_mut().zip(&row.freq_histogram) {
                    *slot += count;
                }
            }
        }
        let mut energy = EnergyMeter::new();
        for class in &classes {
            energy.merge(&class.energy);
        }

        // ---- per-server histograms: remap each cell's union axis
        // onto the global one and land rows at the cell's offset.
        let mut freq_histogram = vec![vec![0u64; self.union_ghz.len()]; self.total_slots];
        for (cell, report) in reports.iter().enumerate() {
            let col_map: Vec<usize> = report
                .freq_levels_ghz
                .iter()
                .map(|g| {
                    self.union_ghz
                        .iter()
                        .position(|u| u == g)
                        .expect("cell ladders are subsets of the global union")
                })
                .collect();
            for (row_i, row) in report.freq_histogram.iter().enumerate() {
                let target = &mut freq_histogram[self.server_offsets[cell] + row_i];
                for (col, &count) in row.iter().enumerate() {
                    target[col_map[col]] += count;
                }
            }
        }

        SimReport {
            policy: self.policy_name.clone(),
            dynamic_dvfs: self.dynamic_dvfs,
            energy,
            max_violation_percent,
            mean_violation_percent,
            violation_instances: reports.iter().map(|r| r.violation_instances).sum(),
            periods,
            classes,
            freq_histogram,
            freq_levels_ghz: self.union_ghz.clone(),
            online_admissions: reports.iter().map(|r| r.online_admissions).sum(),
            offcycle_repacks: reports.iter().map(|r| r.offcycle_repacks).sum(),
            // Inner controllers report 0 here (only a `Buffered`
            // adapter can drop, and it folds its counter in at
            // `on_summary`), but summing keeps the merge faithful if
            // a cell's report ever arrives with drops recorded.
            sink_dropped_events: reports.iter().map(|r| r.sink_dropped_events).sum(),
            server_failures: reports.iter().map(|r| r.server_failures).sum(),
            evacuations: reports.iter().map(|r| r.evacuations).sum(),
            deferred_peak: reports.iter().map(|r| r.deferred_peak).sum(),
        }
    }

    /// Read access to one cell's flat controller, for inspection.
    pub fn cell_controller(&self, cell: usize) -> Option<&DatacenterController> {
        self.inner.get(cell)
    }

    /// Forks the sharded session: every cell's flat controller is
    /// cloned independently along with the O(cells) routing state.
    /// Events applied to the fork never touch the original and vice
    /// versa.
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// Runs a hypothetical off-cycle re-pack on a **fork of every
    /// cell** and returns the summed delta, without touching the live
    /// session. Cells re-pack independently (exactly as a real
    /// off-cycle trigger would fire per cell), so the delta is the sum
    /// of per-cell [`WhatIfDelta`](crate::controller::WhatIfDelta)s.
    ///
    /// # Errors
    ///
    /// Propagates any per-cell re-pack failure
    /// (e.g. [`SimError::InsufficientServers`]).
    pub fn what_if_repack(&self) -> crate::Result<crate::controller::WhatIfDelta> {
        let mut servers_before = 0;
        let mut servers_after = 0;
        let mut servers_freed = 0;
        let mut migrations = 0;
        let mut energy_estimate = 0.0;
        for cell in &self.inner {
            let delta = cell.what_if().repack()?;
            servers_before += delta.servers_before;
            servers_after += delta.servers_after;
            servers_freed += delta.servers_freed;
            migrations += delta.migrations;
            energy_estimate += delta.energy_estimate;
        }
        Ok(crate::controller::WhatIfDelta {
            servers_before,
            servers_after,
            servers_freed,
            migrations,
            energy_estimate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Policy;
    use crate::controller::NullSink;
    use cavm_core::dvfs::DvfsMode;
    use cavm_power::LinearPowerModel;
    use cavm_trace::{Reference, SimRng};

    fn config(servers: usize) -> ControllerConfig {
        ControllerConfig {
            server_fleet: ServerFleet::uniform(servers, 8.0, LinearPowerModel::xeon_e5410())
                .unwrap(),
            policy: Policy::Proposed(Default::default()),
            repack_trigger: Default::default(),
            qos_guard: None,
            adaptive_slack_max: None,
            overcommit: None,
            dvfs_mode: DvfsMode::Static,
            period_samples: 16,
            reference: Reference::Peak,
            dynamic_headroom: 0.1,
            default_demand: 1.0,
            sample_dt_s: 5.0,
            max_deferred: 64,
        }
    }

    fn diurnal(rng: &mut SimRng, len: usize, phase: f64) -> TimeSeries {
        let noise: Vec<f64> = (0..len).map(|_| rng.normal(0.0, 0.1)).collect();
        TimeSeries::from_fn(5.0, len, |i| {
            let base = 1.5 + (i as f64 / 24.0 + phase).sin();
            (base + noise[i]).max(0.05)
        })
        .unwrap()
    }

    #[test]
    fn fleet_partition_conserves_hardware() {
        let fleet = ServerFleet::mixed_4_8_16(7, 5, 3).unwrap();
        let parts = partition_fleet(&fleet, 4).unwrap();
        assert_eq!(parts.len(), 4);
        // Per-class counts are conserved and every cell is non-empty.
        let mut totals = vec![0usize; fleet.len()];
        for part in &parts {
            assert!(part.fleet.total_slots().unwrap() >= 1);
            for (local, class) in part.fleet.classes().iter().enumerate() {
                let gi = part.class_map[local];
                assert_eq!(class.cores(), fleet.classes()[gi].cores());
                assert_eq!(class.name(), fleet.classes()[gi].name());
                totals[gi] += class.count();
            }
        }
        let counts: Vec<usize> = fleet.classes().iter().map(ServerClass::count).collect();
        assert_eq!(totals, counts);
    }

    #[test]
    fn fleet_partition_rotates_remainders_over_cells() {
        // Three 1-server classes over 3 cells: without rotation every
        // remainder would land on cell 0 and later cells would starve.
        let xeon = LinearPowerModel::xeon_e5410();
        let fleet = ServerFleet::new(vec![
            ServerClass::new("a", 1, 8.0, xeon.clone()).unwrap(),
            ServerClass::new("b", 1, 8.0, xeon.clone()).unwrap(),
            ServerClass::new("c", 1, 8.0, xeon.clone()).unwrap(),
        ])
        .unwrap();
        let parts = partition_fleet(&fleet, 3).unwrap();
        for part in &parts {
            assert_eq!(part.fleet.total_slots(), Some(1));
        }
    }

    #[test]
    fn fleet_partition_validation() {
        let fleet = ServerFleet::uniform(4, 8.0, LinearPowerModel::xeon_e5410()).unwrap();
        assert!(partition_fleet(&fleet, 0).is_err());
        assert!(partition_fleet(&fleet, 5).is_err());
        let unbounded = ServerFleet::unbounded(8.0).unwrap();
        assert!(partition_fleet(&unbounded, 2).is_err());
        // Degenerate single cell: the sub-fleet is the whole fleet.
        let parts = partition_fleet(&fleet, 1).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].fleet, fleet);
        assert_eq!(parts[0].class_map, vec![0]);
    }

    /// Every shape `new` cannot shard is the documented
    /// `InvalidParameter`, whichever path (flat or partitioned) rejects
    /// it — never a wrapped `CoreError`.
    #[test]
    fn unshardable_fleets_are_invalid_parameters() {
        for cells in [0, 9] {
            assert!(
                matches!(
                    ShardedController::new(config(8), cells),
                    Err(SimError::InvalidParameter(_))
                ),
                "{cells} cells over 8 servers"
            );
        }
        for cells in [1, 2] {
            let mut cfg = config(8);
            cfg.server_fleet = ServerFleet::unbounded(8.0).unwrap();
            assert!(
                matches!(
                    ShardedController::new(cfg, cells),
                    Err(SimError::InvalidParameter(_))
                ),
                "unbounded fleet over {cells} cells"
            );
        }
    }

    #[test]
    fn single_cell_is_bit_identical_to_flat() {
        let mut rng = SimRng::new(11);
        let traces: Vec<TimeSeries> = (0..8).map(|i| diurnal(&mut rng, 64, i as f64)).collect();
        let mut flat = DatacenterController::new(config(8)).unwrap();
        let mut sharded = ShardedController::new(config(8), 1).unwrap();
        let mut sink = NullSink;
        for (id, t) in traces.iter().enumerate() {
            flat.arrive(id, t.clone(), Some(40), &mut sink).unwrap();
            sharded.arrive(id, t.clone(), Some(40), &mut sink).unwrap();
        }
        for k in 0..48 {
            if k == 40 {
                for id in 0..4 {
                    flat.depart(id).unwrap();
                    sharded.depart(id).unwrap();
                }
            }
            flat.tick(&mut sink).unwrap();
            sharded.tick(&mut sink).unwrap();
        }
        let a = flat.report();
        let b = sharded.report();
        assert_eq!(a, b);
        assert_eq!(
            a.energy.joules().to_bits(),
            b.energy.joules().to_bits(),
            "single-cell energy must be bit-identical"
        );
    }

    /// Pins the sharded report to the flat one **field by field**. The
    /// exhaustive destructuring (no `..`) is the point: adding a field
    /// to [`SimReport`] fails this test's compilation until the merge
    /// in [`ShardedController::report`] — and this list — handle it,
    /// which is exactly the audit that caught `sink_dropped_events`
    /// being silently zeroed in the merge.
    #[test]
    fn single_cell_report_pins_every_field() {
        let mut rng = SimRng::new(23);
        let traces: Vec<TimeSeries> = (0..8).map(|i| diurnal(&mut rng, 64, i as f64)).collect();
        let mut flat = DatacenterController::new(config(8)).unwrap();
        let mut sharded = ShardedController::new(config(8), 1).unwrap();
        let mut sink = NullSink;
        for (id, t) in traces.iter().enumerate() {
            flat.arrive(id, t.clone(), Some(40), &mut sink).unwrap();
            sharded.arrive(id, t.clone(), Some(40), &mut sink).unwrap();
        }
        for k in 0..48 {
            if k == 40 {
                flat.depart(0).unwrap();
                sharded.depart(0).unwrap();
            }
            flat.tick(&mut sink).unwrap();
            sharded.tick(&mut sink).unwrap();
        }
        let want = flat.report();
        let SimReport {
            policy,
            dynamic_dvfs,
            energy,
            max_violation_percent,
            mean_violation_percent,
            violation_instances,
            periods,
            classes,
            freq_histogram,
            freq_levels_ghz,
            online_admissions,
            offcycle_repacks,
            sink_dropped_events,
            server_failures,
            evacuations,
            deferred_peak,
        } = sharded.report();
        assert_eq!(policy, want.policy);
        assert_eq!(dynamic_dvfs, want.dynamic_dvfs);
        assert_eq!(energy, want.energy);
        assert_eq!(max_violation_percent, want.max_violation_percent);
        assert_eq!(mean_violation_percent, want.mean_violation_percent);
        assert_eq!(violation_instances, want.violation_instances);
        assert_eq!(periods, want.periods);
        assert_eq!(classes, want.classes);
        assert_eq!(freq_histogram, want.freq_histogram);
        assert_eq!(freq_levels_ghz, want.freq_levels_ghz);
        assert_eq!(online_admissions, want.online_admissions);
        assert_eq!(offcycle_repacks, want.offcycle_repacks);
        assert_eq!(sink_dropped_events, want.sink_dropped_events);
        assert_eq!(server_failures, want.server_failures);
        assert_eq!(evacuations, want.evacuations);
        assert_eq!(deferred_peak, want.deferred_peak);
    }

    #[test]
    fn multi_cell_routes_and_merges() {
        let mut rng = SimRng::new(7);
        let mut sharded = ShardedController::new(config(8), 2).unwrap();
        let mut sink = NullSink;
        for id in 0..10 {
            let t = diurnal(&mut rng, 64, id as f64 * 0.7);
            sharded.arrive(id, t, None, &mut sink).unwrap();
        }
        assert_eq!(sharded.live_vms(), 10);
        // Both cells should have residents — the router balances.
        let pops = sharded.cell_populations();
        assert_eq!(pops.iter().sum::<usize>(), 10);
        assert!(pops.iter().all(|&p| p > 0), "lopsided routing: {pops:?}");
        for _ in 0..32 {
            sharded.tick(&mut sink).unwrap();
        }
        sharded.depart(3).unwrap();
        assert!(matches!(
            sharded.depart(3),
            Err(SimError::VmAlreadyDeparted { id: 3 })
        ));
        assert!(matches!(
            sharded.arrive(
                3,
                TimeSeries::constant(5.0, 8, 1.0).unwrap(),
                None,
                &mut sink
            ),
            Err(SimError::DuplicateVm { id: 3 })
        ));
        let report = sharded.report();
        assert_eq!(report.periods.len(), 2);
        // Two cells of 4 servers: per-period servers_used is the sum.
        assert!(report.periods[0].servers_used <= 8);
        assert!(report.energy.joules() > 0.0);
        // The merged class row sees the whole fleet.
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].servers_available, 8);
        assert_eq!(report.freq_histogram.len(), 8);
        sharded.finish(&mut sink).unwrap();
        assert!(matches!(
            sharded.finish(&mut sink),
            Err(SimError::SessionFinished)
        ));
    }

    #[test]
    fn global_server_indices_map_onto_cells() {
        let mut sharded = ShardedController::new(config(8), 2).unwrap();
        let mut sink = NullSink;
        for id in 0..6 {
            let t = TimeSeries::constant(5.0, 64, 1.0 + id as f64 * 0.3).unwrap();
            sharded.arrive(id, t, None, &mut sink).unwrap();
        }
        sharded.tick(&mut sink).unwrap();
        // Cell 1 starts at global server 4 (two equal 4-server cells).
        assert_eq!(sharded.locate_server(0).unwrap(), (0, 0));
        assert_eq!(sharded.locate_server(3).unwrap(), (0, 3));
        assert_eq!(sharded.locate_server(4).unwrap(), (1, 0));
        assert_eq!(sharded.locate_server(7).unwrap(), (1, 3));
        // Past the fleet, the error counts provisioned servers (one per
        // cell here), as it does for an unprovisioned index inside it.
        let provisioned: usize = (0..2)
            .map(|c| {
                sharded
                    .cell_controller(c)
                    .unwrap()
                    .placement()
                    .server_count()
            })
            .sum();
        assert_eq!(provisioned, 2);
        assert_eq!(
            sharded.server_fail(8, &mut sink),
            Err(SimError::UnknownServer {
                server: 8,
                servers: provisioned
            })
        );
        // Failing a provisioned global server reaches the right cell.
        let report_failures_before = sharded.report().server_failures;
        sharded.server_fail(0, &mut sink).unwrap();
        assert_eq!(sharded.report().server_failures, report_failures_before + 1);
        sharded.server_recover(0, &mut sink).unwrap();
    }

    /// Server-health errors raised inside a cell come back in the
    /// global namespace the caller addressed the event in.
    #[test]
    fn server_errors_speak_global_indices() {
        // Two cells of three servers: cell 1 owns global servers 3..6.
        let mut sharded = ShardedController::new(config(6), 2).unwrap();
        let mut sink = NullSink;
        for id in 0..6 {
            let t = TimeSeries::constant(5.0, 64, 1.0).unwrap();
            sharded.arrive(id, t, None, &mut sink).unwrap();
        }
        sharded.tick(&mut sink).unwrap();
        // Three 1-core VMs per cell pack onto one 8-core server each.
        assert_eq!(sharded.cell_populations(), vec![3, 3]);
        let provisioned: usize = (0..2)
            .map(|c| {
                sharded
                    .cell_controller(c)
                    .unwrap()
                    .placement()
                    .server_count()
            })
            .sum();
        assert_eq!(provisioned, 2);

        // Global 5 is cell 1's third slot: in the fleet, not provisioned.
        assert_eq!(
            sharded.server_fail(5, &mut sink),
            Err(SimError::UnknownServer {
                server: 5,
                servers: provisioned
            })
        );
        assert_eq!(
            sharded.server_recover(4, &mut sink),
            Err(SimError::UnknownServer {
                server: 4,
                servers: provisioned
            })
        );
        assert_eq!(
            sharded.server_recover(3, &mut sink),
            Err(SimError::ServerNotFailed { server: 3 })
        );
        sharded.server_fail(3, &mut sink).unwrap();
        assert_eq!(
            sharded.server_fail(3, &mut sink),
            Err(SimError::ServerAlreadyFailed { server: 3 })
        );
        sharded.server_recover(3, &mut sink).unwrap();
    }

    /// A refused arrival must not wedge the cell it was routed to: the
    /// next arrival there is judged on capacity, never `DuplicateVm`.
    #[test]
    fn refused_arrival_leaves_the_cell_usable() {
        // Two cells of one 8-core server; a 6-core default demand means
        // one mid-period admission per cell.
        let mut cfg = config(2);
        cfg.default_demand = 6.0;
        let mut sharded = ShardedController::new(cfg, 2).unwrap();
        let mut sink = NullSink;
        let quiet = || TimeSeries::constant(5.0, 64, 1.0).unwrap();
        sharded.arrive(0, quiet(), None, &mut sink).unwrap();
        sharded.arrive(1, quiet(), None, &mut sink).unwrap();
        sharded.tick(&mut sink).unwrap();
        assert_eq!(sharded.cell_populations(), vec![1, 1]);

        for id in [2, 3] {
            assert!(
                matches!(
                    sharded.arrive(id, quiet(), None, &mut sink),
                    Err(SimError::InsufficientServers { .. })
                ),
                "arrival {id} must be refused on capacity"
            );
            assert_eq!(sharded.cell_of_vm(id), None);
            assert_eq!(sharded.live_vms(), 2);
        }
        // Freeing the cell's server makes the retry succeed.
        let cell = sharded.cell_of_vm(0).unwrap();
        sharded.depart(0).unwrap();
        sharded.arrive(2, quiet(), None, &mut sink).unwrap();
        assert_eq!(sharded.cell_of_vm(2), Some(cell));
        for _ in 0..20 {
            sharded.tick(&mut sink).unwrap();
        }
        assert_eq!(sharded.live_vms(), 2);
    }

    /// One cell answers from the flat controller's id registry, like the
    /// routing table does for several: an id below the highest one that
    /// never arrived, and an arrival the cell refused, are in no cell.
    #[test]
    fn single_cell_locates_only_admitted_vms() {
        // Two 8-core servers; a 6-core default demand fills one each.
        let mut cfg = config(2);
        cfg.default_demand = 6.0;
        let mut sharded = ShardedController::new(cfg, 1).unwrap();
        let mut sink = NullSink;
        let quiet = || TimeSeries::constant(5.0, 64, 1.0).unwrap();
        sharded.arrive(0, quiet(), None, &mut sink).unwrap();
        sharded.arrive(2, quiet(), None, &mut sink).unwrap();
        sharded.tick(&mut sink).unwrap();
        assert!(matches!(
            sharded.arrive(4, quiet(), None, &mut sink),
            Err(SimError::InsufficientServers { .. })
        ));
        sharded.depart(0).unwrap();
        assert_eq!(sharded.cell_of_vm(0), Some(0), "departed");
        assert_eq!(sharded.cell_of_vm(2), Some(0), "live");
        assert_eq!(sharded.cell_of_vm(1), None, "never arrived");
        assert_eq!(sharded.cell_of_vm(4), None, "refused");
        assert_eq!(sharded.cell_of_vm(5), None, "past every id");
    }

    /// Records the VM of every [`MetricSink::on_admit`].
    #[derive(Default)]
    struct AdmitLog(Vec<usize>);

    impl MetricSink for AdmitLog {
        fn on_admit(&mut self, _sample: usize, vm: usize, _server: usize) {
            self.0.push(vm);
        }
    }

    /// A mid-period arrival is admitted — and announced — inside the
    /// cell's `arrive`: the announcement must carry the caller's id,
    /// not the cell-local one, also after a refused arrival.
    #[test]
    fn mid_period_admissions_report_global_vm_ids() {
        // Two cells of one 8-core server; a 3-core default demand means
        // two VMs per cell.
        let mut cfg = config(2);
        cfg.default_demand = 3.0;
        let mut sharded = ShardedController::new(cfg, 2).unwrap();
        let mut log = AdmitLog::default();
        let quiet = || TimeSeries::constant(5.0, 64, 1.0).unwrap();
        // Ids far from the 0, 1, 2 the cells number their own VMs with.
        sharded.arrive(40, quiet(), None, &mut log).unwrap();
        sharded.arrive(41, quiet(), None, &mut log).unwrap();
        sharded.tick(&mut log).unwrap();
        assert_eq!(sharded.cell_populations(), vec![1, 1]);
        assert!(log.0.is_empty(), "the batch pass announces no admission");

        sharded.arrive(50, quiet(), None, &mut log).unwrap();
        sharded.arrive(51, quiet(), None, &mut log).unwrap();
        assert_eq!(sharded.cell_populations(), vec![2, 2]);
        assert_eq!(log.0, vec![50, 51]);

        assert!(matches!(
            sharded.arrive(60, quiet(), None, &mut log),
            Err(SimError::InsufficientServers { .. })
        ));
        sharded.depart(50).unwrap();
        sharded.arrive(61, quiet(), None, &mut log).unwrap();
        assert_eq!(log.0, vec![50, 51, 61]);
    }

    #[test]
    fn router_prefers_anti_correlated_cells() {
        // Two cells; cell 0 already hosts VMs peaking in bucket 0.
        // A new VM peaking in the same bucket should go to cell 1.
        let cfg = config(8);
        let period = cfg.period_samples;
        let mut sharded = ShardedController::new(cfg, 2).unwrap();
        let mut sink = NullSink;
        let peak_early = |height: f64| {
            TimeSeries::from_fn(5.0, period * PHASE_BUCKETS, move |i| {
                if i < period {
                    height
                } else {
                    0.1
                }
            })
            .unwrap()
        };
        sharded.arrive(0, peak_early(3.0), None, &mut sink).unwrap();
        // Cell loads now differ; the next same-phase VM must avoid the
        // loaded cell.
        let first = sharded.cell_of_vm(0).unwrap();
        sharded.arrive(1, peak_early(3.0), None, &mut sink).unwrap();
        let second = sharded.cell_of_vm(1).unwrap();
        assert_ne!(first, second, "router stacked correlated peaks");
    }
}
